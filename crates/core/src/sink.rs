//! Solution sinks: where enumerated MBPs go.
//!
//! Every enumeration entry point takes a [`SolutionSink`]; this decouples
//! the algorithms from what the caller wants to do with the output
//! (count it, collect it, record inter-solution delays, …). The paper's
//! "first N results" experiments use the facade's
//! [`limit`](crate::api::Enumerator::limit) instead of a sink.

use std::time::{Duration, Instant};

use crate::biplex::Biplex;

/// Whether the enumeration should continue after a solution was delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Keep enumerating.
    Continue,
    /// Stop as soon as possible (used for "first N results" experiments).
    Stop,
}

/// Receives maximal k-biplexes as they are produced.
pub trait SolutionSink {
    /// Called once per reported solution.
    fn on_solution(&mut self, solution: &Biplex) -> Control;
}

impl<F: FnMut(&Biplex) -> Control> SolutionSink for F {
    fn on_solution(&mut self, solution: &Biplex) -> Control {
        self(solution)
    }
}

/// Counts solutions without storing them.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Number of solutions seen so far.
    pub count: u64,
}

impl CountingSink {
    /// New counting sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SolutionSink for CountingSink {
    fn on_solution(&mut self, _solution: &Biplex) -> Control {
        self.count += 1;
        Control::Continue
    }
}

/// Collects every solution into a vector.
#[derive(Debug, Default)]
pub struct CollectSink {
    /// The collected solutions, in the order they were reported.
    pub solutions: Vec<Biplex>,
}

impl CollectSink {
    /// New collecting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the sink, returning the solutions sorted canonically (handy
    /// for comparisons in tests). Defensively de-duplicates by canonical
    /// order — in *every* build profile — so that collecting from a stream
    /// and from a legacy entry point agree byte-for-byte even if an engine
    /// ever delivered a duplicate. A duplicate would still be an engine bug,
    /// but the sink's contract is to absorb it, not to panic on it (a
    /// `debug_assert` here used to make the defensive path untestable).
    pub fn into_sorted(mut self) -> Vec<Biplex> {
        self.solutions.sort();
        self.solutions.dedup();
        self.solutions
    }
}

impl SolutionSink for CollectSink {
    fn on_solution(&mut self, solution: &Biplex) -> Control {
        self.solutions.push(solution.clone());
        Control::Continue
    }
}

/// Records the arrival time of every solution, from which the *delay* of the
/// enumeration (the paper's Figure 8 metric) is derived: the maximum of the
/// time to the first solution, the gaps between consecutive solutions, and
/// the time from the last solution to termination.
#[derive(Debug)]
pub struct DelayRecorder {
    start: Instant,
    arrivals: Vec<Duration>,
    count: u64,
}

impl Default for DelayRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl DelayRecorder {
    /// Starts the clock now.
    pub fn new() -> Self {
        DelayRecorder { start: Instant::now(), arrivals: Vec::new(), count: 0 }
    }

    /// Number of solutions observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Finishes the measurement and returns the delay statistics. Call this
    /// immediately after the enumeration returns.
    pub fn finish(self) -> DelayReport {
        let end = self.start.elapsed();
        let mut max_gap = Duration::ZERO;
        let mut prev = Duration::ZERO;
        for &t in &self.arrivals {
            max_gap = max_gap.max(t.saturating_sub(prev));
            prev = t;
        }
        max_gap = max_gap.max(end.saturating_sub(prev));
        let mean_gap =
            if self.arrivals.is_empty() { end } else { end / (self.arrivals.len() as u32 + 1) };
        DelayReport { solutions: self.count, total: end, max_delay: max_gap, mean_delay: mean_gap }
    }
}

impl SolutionSink for DelayRecorder {
    fn on_solution(&mut self, _solution: &Biplex) -> Control {
        self.count += 1;
        self.arrivals.push(self.start.elapsed());
        Control::Continue
    }
}

/// Delay statistics produced by [`DelayRecorder::finish`].
#[derive(Clone, Copy, Debug)]
pub struct DelayReport {
    /// Number of solutions reported.
    pub solutions: u64,
    /// Total running time.
    pub total: Duration,
    /// Maximum delay (the paper's metric).
    pub max_delay: Duration,
    /// Average time per solution (total / (#solutions + 1)).
    pub mean_delay: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<Biplex> {
        (0..n as u32).map(|i| Biplex::new(vec![i], vec![i, i + 1])).collect()
    }

    #[test]
    fn counting_sink_counts() {
        let mut sink = CountingSink::new();
        for b in sample(5) {
            assert_eq!(sink.on_solution(&b), Control::Continue);
        }
        assert_eq!(sink.count, 5);
    }

    #[test]
    fn collect_sink_collects_in_order() {
        let mut sink = CollectSink::new();
        for b in sample(3) {
            sink.on_solution(&b);
        }
        assert_eq!(sink.solutions.len(), 3);
        assert_eq!(sink.solutions[0].left, vec![0]);
        let sorted = sink.into_sorted();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn collect_sink_dedups_duplicate_delivery() {
        // Regression: a duplicate delivered through the sink must be folded
        // away by `into_sorted` instead of tripping an assertion — the
        // defensive dedup has to be exercisable in test builds too.
        let mut sink = CollectSink::new();
        let dup = Biplex::new(vec![1, 2], vec![3]);
        sink.on_solution(&dup);
        sink.on_solution(&Biplex::new(vec![0], vec![1]));
        sink.on_solution(&dup);
        let sorted = sink.into_sorted();
        assert_eq!(sorted.len(), 2);
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
    }

    /// A complete 3×3 graph minus its diagonal, which has more maximal
    /// bicliques than the limits below.
    fn many_solutions() -> bigraph::BipartiteGraph {
        let edges: Vec<(u32, u32)> =
            (0..3).flat_map(|v| (0..3).filter(move |&u| u != v).map(move |u| (v, u))).collect();
        bigraph::BipartiteGraph::from_edges(3, 3, &edges).unwrap()
    }

    #[test]
    fn first_n_stops() {
        let g = many_solutions();
        let mut sink = CollectSink::new();
        let report = crate::api::Enumerator::new(&g).k(0).limit(2).run(&mut sink).unwrap();
        assert_eq!(sink.solutions.len(), 2);
        assert_eq!(report.stop, crate::api::StopReason::LimitReached);
    }

    #[test]
    fn first_zero_immediately_stops() {
        let g = many_solutions();
        let mut sink = CountingSink::new();
        let report = crate::api::Enumerator::new(&g).k(0).limit(0).run(&mut sink).unwrap();
        assert_eq!(sink.count, 0);
        assert_eq!(report.stop, crate::api::StopReason::LimitReached);
    }

    #[test]
    fn delay_recorder_reports_gaps() {
        let mut rec = DelayRecorder::new();
        for b in sample(3) {
            rec.on_solution(&b);
        }
        assert_eq!(rec.count(), 3);
        let report = rec.finish();
        assert_eq!(report.solutions, 3);
        assert!(report.max_delay <= report.total);
        assert!(report.mean_delay <= report.total);
    }

    #[test]
    fn delay_recorder_with_no_solutions() {
        let rec = DelayRecorder::new();
        let report = rec.finish();
        assert_eq!(report.solutions, 0);
        assert_eq!(report.max_delay, report.total);
    }

    #[test]
    fn closures_are_sinks() {
        let mut seen = 0;
        let mut sink = |_: &Biplex| {
            seen += 1;
            Control::Continue
        };
        for b in sample(4) {
            SolutionSink::on_solution(&mut sink, &b);
        }
        assert_eq!(seen, 4);
    }
}
