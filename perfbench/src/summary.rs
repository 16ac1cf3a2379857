//! The one summary routine behind every reported timing: median, quartiles
//! and the tail, all read with the nearest-rank `mbpe_bench::percentile`.

use std::time::Duration;

use mbpe_bench::percentile;

/// Percentiles the tail may be reported at. The tail is the highest of them
/// that still leaves at least [`TAIL_BEYOND`] samples above it. A fixed
/// ladder (rather than `100·(n−10)/n`) keeps the tail of two runs with
/// slightly different sample counts at the same percentile. It stops at
/// p95: on a shared 2-vCPU virtual machine the p99 of a 25-second run
/// swung by half from one seed to the next. It has no p90 rung: a run of
/// `planted-dynamic` or `enum-full` takes about 50 to 120 samples of its
/// primary operation, depending on the machine's speed, and a rung at 100
/// samples would switch those runs between two percentiles.
const TAIL_LADDER: [f64; 3] = [95.0, 75.0, 50.0];

/// Samples that must lie beyond the tail percentile.
const TAIL_BEYOND: usize = 10;

/// Summary of one sample of timings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub p25: Duration,
    /// Median.
    pub p50: Duration,
    /// Third quartile.
    pub p75: Duration,
    /// `(percentile, value)` of the tail, when the sample is large enough.
    pub tail: Option<(f64, Duration)>,
}

impl Summary {
    /// Summarizes `samples` (any order). `None` for an empty sample.
    pub fn of(samples: &[Duration]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let tail = TAIL_LADDER.iter().find_map(|&p| {
            let rank = (p / 100.0 * n as f64).ceil() as usize;
            (n - rank.max(1) >= TAIL_BEYOND).then(|| (p, percentile(&sorted, p)))
        });
        Some(Summary {
            n,
            p25: percentile(&sorted, 25.0),
            p50: percentile(&sorted, 50.0),
            p75: percentile(&sorted, 75.0),
            tail,
        })
    }

    /// One human-readable line: `median (p25 … p75), tail pXX …, n = …`,
    /// in `unit` (`s`, `ms` or `us`).
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p} {:.4}", scale(v, unit)),
            None => "tail n/a (< 11 samples)".to_string(),
        };
        format!(
            "median {:.4} {unit} (p25 {:.4}, p75 {:.4}; {tail}; n = {})",
            scale(self.p50, unit),
            scale(self.p25, unit),
            scale(self.p75, unit),
            self.n
        )
    }
}

/// `d` expressed in `unit`.
pub fn scale(d: Duration, unit: &str) -> f64 {
    match unit {
        "s" => d.as_secs_f64(),
        "ms" => d.as_secs_f64() * 1e3,
        "us" => d.as_secs_f64() * 1e6,
        "ns" => d.as_secs_f64() * 1e9,
        other => panic!("unknown time unit {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn quartiles_are_nearest_rank() {
        let s = Summary::of(&(1..=8).rev().map(ms).collect::<Vec<_>>()).unwrap();
        assert_eq!((s.p25, s.p50, s.p75), (ms(2), ms(4), ms(6)));
        assert_eq!(s.n, 8);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // Fewer than 11 samples: no percentile has ten samples above it.
        assert_eq!(Summary::of(&(1..=10).map(ms).collect::<Vec<_>>()).unwrap().tail, None);
        // 20 samples: p50 leaves exactly ten above; p75 would leave five.
        let s = Summary::of(&(1..=20).map(ms).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.tail, Some((50.0, ms(10))));
        // 199 samples: p75, not p95 (nine above).
        let s = Summary::of(&(1..=199).map(ms).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.tail, Some((75.0, ms(150))));
        // 200 samples: p95 (ten above).
        let s = Summary::of(&(1..=200).map(ms).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.tail, Some((95.0, ms(190))));
        // 1000 samples: the ladder stops at p95.
        let s = Summary::of(&(1..=1000).map(ms).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.tail, Some((95.0, ms(950))));
    }
}
