//! # mbpe-bench — experiment harness
//!
//! Shared utilities for the per-figure binaries (`src/bin/`) and the
//! criterion benches (`benches/`): dataset preparation, algorithm runners
//! with first-N cut-offs and time budgets, and plain-text table printing in
//! the shape of the paper's tables and figures.
//!
//! Every binary accepts `--help`; the most common knobs are `--scale <n>`
//! (extra down-scaling of the dataset stand-ins), `--results <n>` (the
//! "first N MBPs" cut-off) and `--budget-secs <s>` (the per-run analogue of
//! the paper's 24 h INF limit).

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use bigraph::gen::datasets::DatasetSpec;
use bigraph::BipartiteGraph;
use kbiplex::{Algorithm, Biplex, Control, EnumKind, Enumerator, SolutionSink, StopReason};

/// The algorithms compared throughout Section 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// The paper's algorithm (left-anchored + right-shrinking + exclusion).
    ITraversal,
    /// The conventional reverse-search framework.
    BTraversal,
    /// The iMB backtracking baseline.
    Imb,
    /// The FaPlexen-style inflation baseline.
    FaPlexen,
}

impl Algo {
    /// All four algorithms in the order used by Figure 7(a).
    pub const ALL: [Algo; 4] = [Algo::Imb, Algo::FaPlexen, Algo::BTraversal, Algo::ITraversal];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Algo::ITraversal => "iTraversal",
            Algo::BTraversal => "bTraversal",
            Algo::Imb => "iMB",
            Algo::FaPlexen => "FaPlexen",
        }
    }
}

/// Outcome of one timed run.
#[derive(Clone, Copy, Debug)]
pub enum RunOutcome {
    /// Finished (or reached the requested number of results) within budget.
    Finished {
        /// Wall-clock time.
        elapsed: Duration,
        /// Number of MBPs reported.
        results: u64,
    },
    /// Hit the time budget — the analogue of the paper's "INF".
    TimedOut,
    /// Refused because the (simulated) memory budget was exceeded — the
    /// paper's "OUT".
    OutOfMemory,
}

impl RunOutcome {
    /// Seconds, or `None` for INF / OUT entries.
    pub fn secs(&self) -> Option<f64> {
        match self {
            RunOutcome::Finished { elapsed, .. } => Some(elapsed.as_secs_f64()),
            _ => None,
        }
    }

    /// Column text in the paper's style.
    pub fn cell(&self) -> String {
        match self {
            RunOutcome::Finished { elapsed, .. } => format!("{:>10.4}", elapsed.as_secs_f64()),
            RunOutcome::TimedOut => format!("{:>10}", "INF"),
            RunOutcome::OutOfMemory => format!("{:>10}", "OUT"),
        }
    }
}

/// A sink that collects up to `limit` solutions and aborts once a time
/// budget is exceeded, reporting which of the two happened.
pub struct BudgetSink {
    limit: u64,
    deadline: Instant,
    /// Number of solutions received.
    pub count: u64,
    /// Set when the deadline fired before `limit` solutions arrived.
    pub timed_out: bool,
}

impl BudgetSink {
    /// Collects at most `limit` solutions within `budget`.
    pub fn new(limit: u64, budget: Duration) -> Self {
        BudgetSink { limit, deadline: Instant::now() + budget, count: 0, timed_out: false }
    }
}

impl SolutionSink for BudgetSink {
    fn on_solution(&mut self, _solution: &Biplex) -> Control {
        self.count += 1;
        if Instant::now() > self.deadline {
            self.timed_out = true;
            return Control::Stop;
        }
        if self.count >= self.limit {
            Control::Stop
        } else {
            Control::Continue
        }
    }
}

/// Runs `algo` on `g`, asking for the first `results` MBPs with the given
/// `k`, within `budget`.
pub fn run_algo(
    g: &BipartiteGraph,
    algo: Algo,
    k: usize,
    results: u64,
    budget: Duration,
) -> RunOutcome {
    let start = Instant::now();
    let mut sink = BudgetSink::new(results, budget);
    match algo {
        Algo::ITraversal | Algo::BTraversal => {
            // The facade owns the limit and the time budget for the paper's
            // algorithms; the baselines below keep the BudgetSink.
            let algorithm = if algo == Algo::ITraversal {
                Algorithm::ITraversal
            } else {
                Algorithm::BTraversal
            };
            let mut counter = kbiplex::CountingSink::new();
            let report = Enumerator::new(g)
                .k(k)
                .algorithm(algorithm)
                .limit(results)
                .time_budget(budget)
                .run(&mut counter)
                .expect("valid facade configuration");
            return match report.stop {
                StopReason::TimeBudget => RunOutcome::TimedOut,
                _ => RunOutcome::Finished { elapsed: start.elapsed(), results: report.solutions },
            };
        }
        Algo::Imb => {
            let budget_nodes = 2_000_000u64.saturating_mul(budget.as_secs().max(1));
            let stats = baselines::enumerate_imb(
                g,
                &baselines::ImbConfig::new(k).with_max_nodes(budget_nodes),
                &mut sink,
            );
            if stats.budget_exhausted {
                return RunOutcome::TimedOut;
            }
        }
        Algo::FaPlexen => {
            // 32 GB at ~12 bytes per CSR edge entry ≈ 2.7e9 edges.
            let memory_budget_edges = 2_700_000_000u64;
            let budget_nodes = 2_000_000u64.saturating_mul(budget.as_secs().max(1));
            let report = baselines::enumerate_inflation(
                g,
                &baselines::InflationConfig::new(k)
                    .with_max_nodes(budget_nodes)
                    .with_memory_budget_edges(memory_budget_edges),
                &mut sink,
            );
            if report.out_of_memory {
                return RunOutcome::OutOfMemory;
            }
            if report.plex.budget_exhausted {
                return RunOutcome::TimedOut;
            }
        }
    }
    if sink.timed_out {
        RunOutcome::TimedOut
    } else {
        RunOutcome::Finished { elapsed: start.elapsed(), results: sink.count }
    }
}

/// Measures the delay (maximum gap between consecutive outputs) of `algo`
/// when enumerating *all* MBPs, within `budget`. Returns `None` when the
/// run does not finish in time.
pub fn measure_delay(
    g: &BipartiteGraph,
    algo: Algo,
    k: usize,
    budget: Duration,
) -> Option<kbiplex::DelayReport> {
    struct DelayBudget {
        rec: kbiplex::DelayRecorder,
        deadline: Instant,
        timed_out: bool,
    }
    impl SolutionSink for DelayBudget {
        fn on_solution(&mut self, solution: &Biplex) -> Control {
            let c = self.rec.on_solution(solution);
            if Instant::now() > self.deadline {
                self.timed_out = true;
                return Control::Stop;
            }
            c
        }
    }
    match algo {
        Algo::ITraversal | Algo::BTraversal => {
            let algorithm = if algo == Algo::ITraversal {
                Algorithm::ITraversal
            } else {
                Algorithm::BTraversal
            };
            let mut rec = kbiplex::DelayRecorder::new();
            let report = Enumerator::new(g)
                .k(k)
                .algorithm(algorithm)
                .time_budget(budget)
                .run(&mut rec)
                .expect("valid facade configuration");
            if report.stop == StopReason::TimeBudget {
                None
            } else {
                Some(rec.finish())
            }
        }
        Algo::Imb | Algo::FaPlexen => {
            let mut sink = DelayBudget {
                rec: kbiplex::DelayRecorder::new(),
                deadline: Instant::now() + budget,
                timed_out: false,
            };
            if algo == Algo::Imb {
                baselines::enumerate_imb(g, &baselines::ImbConfig::new(k), &mut sink);
            } else {
                baselines::enumerate_inflation(g, &baselines::InflationConfig::new(k), &mut sink);
            }
            if sink.timed_out {
                None
            } else {
                Some(sink.rec.finish())
            }
        }
    }
}

/// Runs the `EnumAlmostSat` variant comparison of Figure 12 on random
/// almost-satisfying graphs derived from the first `samples` MBPs of `g`.
pub fn enum_almost_sat_avg_time(
    g: &BipartiteGraph,
    k: usize,
    kind: EnumKind,
    samples: usize,
) -> Duration {
    use kbiplex::PartialBiplex;
    let mut sink = kbiplex::CollectSink::new();
    Enumerator::new(g)
        .k(k)
        .limit(samples as u64)
        .run(&mut sink)
        .expect("valid facade configuration");
    let mut total = Duration::ZERO;
    let mut runs = 0u32;
    for (i, mbp) in sink.solutions.iter().enumerate() {
        if g.num_left() == 0 {
            break;
        }
        let host = PartialBiplex::from_sets(g, &mbp.left, &mbp.right);
        // Deterministically pick a left vertex outside the MBP.
        let offset = (i as u32) % g.num_left();
        let v = (0..g.num_left())
            .map(|j| (j + offset) % g.num_left())
            .find(|&v| !host.contains_left(v));
        let Some(v) = v else { continue };
        let start = Instant::now();
        kbiplex::enum_almost_sat(g, k, kind, &host, v, |_| true);
        total += start.elapsed();
        runs += 1;
    }
    if runs == 0 {
        Duration::ZERO
    } else {
        total / runs
    }
}

/// Prepares a dataset stand-in: the registry's laptop scale divided by an
/// extra `extra_scale` factor.
pub fn prepare_dataset(spec: &DatasetSpec, extra_scale: u32) -> BipartiteGraph {
    spec.generate_with_scale(spec.default_scale.saturating_mul(extra_scale).max(1))
}

/// Minimal command-line flag parser used by the harness binaries:
/// `--flag value` pairs and boolean `--flag`.
#[derive(Debug, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `std::env::args` (skipping the binary name).
    pub fn parse() -> Self {
        Self::from_tokens(std::env::args().skip(1))
    }

    /// Parses an explicit iterator (used by tests).
    pub fn from_tokens<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = Args::default();
        let tokens: Vec<String> = iter.into_iter().collect();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if let Some(name) = t.strip_prefix("--") {
                if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    args.pairs.push((name.to_string(), tokens[i + 1].clone()));
                    i += 2;
                } else {
                    args.flags.push(name.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        args
    }

    /// Value of `--name` parsed as `T`, or `default` when the flag is
    /// absent. A value that does not parse is a usage error: the process
    /// names the flag and exits with status 2 instead of silently running
    /// with the default.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.try_get(name, default).unwrap_or_else(|msg| {
            eprintln!("usage error: {msg}");
            std::process::exit(2)
        })
    }

    /// [`Args::get`] without the exit: `Err` carries the usage message for
    /// a value of `--name` that does not parse as `T`.
    pub fn try_get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get_str(name) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                format!("--{name} expects a {}, got {raw:?}", std::any::type_name::<T>())
            }),
        }
    }

    /// String value of `--name`.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// `true` when the boolean flag `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name) || self.pairs.iter().any(|(n, _)| n == name)
    }
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least `p`% of the sample at or below it, i.e. index
/// `⌈p/100 · n⌉ − 1`. Unlike the rounded `p/100 · (n − 1)` index it
/// replaces, this never reads past the intended rank on small samples
/// (where rounding turned p95 into p100 or collapsed p99 onto p50).
///
/// `p` is clamped to `(0, 100]`; an empty sample returns 0.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let p = p.clamp(f64::MIN_POSITIVE, 100.0);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// Prints a table header followed by a separator line.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n== {title} ==");
    let header: Vec<String> = columns.iter().map(|c| format!("{c:>10}")).collect();
    println!("{}", header.join(" "));
    println!("{}", "-".repeat(11 * columns.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> BipartiteGraph {
        bigraph::gen::er::er_bipartite(20, 20, 80, 7)
    }

    #[test]
    fn all_algorithms_agree_on_counts() {
        let g = tiny_graph();
        let k = 1;
        let budget = Duration::from_secs(60);
        let mut counts = Vec::new();
        for algo in Algo::ALL {
            match run_algo(&g, algo, k, u64::MAX, budget) {
                RunOutcome::Finished { results, .. } => counts.push(results),
                other => panic!("{algo:?} did not finish: {other:?}"),
            }
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "counts {counts:?}");
    }

    #[test]
    fn budget_sink_limits_results() {
        let g = tiny_graph();
        match run_algo(&g, Algo::ITraversal, 1, 3, Duration::from_secs(10)) {
            RunOutcome::Finished { results, .. } => assert_eq!(results, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delay_measurement_produces_a_report() {
        let g = tiny_graph();
        let report = measure_delay(&g, Algo::ITraversal, 1, Duration::from_secs(30)).unwrap();
        assert!(report.solutions > 0);
        assert!(report.max_delay <= report.total);
    }

    #[test]
    fn enum_almost_sat_timer_runs() {
        let g = tiny_graph();
        for kind in [EnumKind::L2R2, EnumKind::Inflation] {
            let d = enum_almost_sat_avg_time(&g, 1, kind, 5);
            assert!(d < Duration::from_secs(5));
        }
    }

    #[test]
    fn args_parser() {
        let args = Args::from_tokens(
            ["--k", "3", "--huge", "--dataset", "Writer"].iter().map(|s| s.to_string()),
        );
        assert_eq!(args.get::<usize>("k", 1), 3);
        assert_eq!(args.get::<usize>("missing", 7), 7);
        assert!(args.has("huge"));
        assert!(!args.has("absent"));
        assert_eq!(args.get_str("dataset"), Some("Writer"));
    }

    #[test]
    fn unparsable_values_are_usage_errors_not_defaults() {
        let args = Args::from_tokens(["--edges", "1e6", "--k", "2"].iter().map(|s| s.to_string()));
        let err = args.try_get::<u64>("edges", 240).unwrap_err();
        assert!(err.contains("--edges") && err.contains("1e6"), "{err}");
        assert_eq!(args.try_get::<usize>("k", 1), Ok(2));
        assert_eq!(args.try_get::<usize>("missing", 7), Ok(7));
    }

    #[test]
    fn percentile_uses_the_nearest_rank_rule() {
        let ms = |n: u64| Duration::from_millis(n);
        // n = 1: every percentile is the single sample (the old rounding
        // agreed here, but only by accident).
        let one = [ms(5)];
        for p in [50.0, 95.0, 99.0, 100.0] {
            assert_eq!(percentile(&one, p), ms(5), "n=1 p{p}");
        }
        // n = 2: p50 is the first sample, p95/p99/p100 the second. The old
        // `round(p/100·(n−1))` read the *second* sample for p50 too.
        let two = [ms(1), ms(9)];
        assert_eq!(percentile(&two, 50.0), ms(1));
        assert_eq!(percentile(&two, 95.0), ms(9));
        assert_eq!(percentile(&two, 99.0), ms(9));
        assert_eq!(percentile(&two, 100.0), ms(9));
        // n = 19: ⌈0.95·19⌉ = 19 → the maximum; ⌈0.5·19⌉ = 10 → the median.
        // The old rounding mapped p95 to index 17 (the 18th sample) and p99
        // to index 18 — p95 under-read while p99 and p100 collided.
        let nineteen: Vec<Duration> = (1..=19).map(ms).collect();
        assert_eq!(percentile(&nineteen, 50.0), ms(10));
        assert_eq!(percentile(&nineteen, 95.0), ms(19));
        assert_eq!(percentile(&nineteen, 99.0), ms(19));
        // n = 100: the textbook case — p95 is the 95th sample, p99 the
        // 99th, and they are distinct from the maximum.
        let hundred: Vec<Duration> = (1..=100).map(ms).collect();
        assert_eq!(percentile(&hundred, 50.0), ms(50));
        assert_eq!(percentile(&hundred, 95.0), ms(95));
        assert_eq!(percentile(&hundred, 99.0), ms(99));
        assert_eq!(percentile(&hundred, 100.0), ms(100));
        // Degenerate inputs stay total: empty → 0, p clamped into (0, 100].
        assert_eq!(percentile(&[], 95.0), Duration::ZERO);
        assert_eq!(percentile(&hundred, 0.0), ms(1));
        assert_eq!(percentile(&hundred, 250.0), ms(100));
    }

    #[test]
    fn outcome_cells() {
        assert_eq!(RunOutcome::TimedOut.cell().trim(), "INF");
        assert_eq!(RunOutcome::OutOfMemory.cell().trim(), "OUT");
        assert!(
            RunOutcome::Finished { elapsed: Duration::from_millis(1500), results: 1 }
                .secs()
                .unwrap()
                > 1.0
        );
    }
}
