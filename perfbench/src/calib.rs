//! Machine-speed reference for the operation timings.
//!
//! On a shared 2-vCPU virtual machine the same work runs at very different
//! speeds from one moment to the next. The host switches between a fast and
//! a slow state every few seconds: a `planted-dynamic` block update took
//! ≈ 215 ms of thread CPU time in one and ≈ 370 ms in the other, and a run
//! could spend all of its 25 seconds in either. Each workload therefore also
//! times a fixed kernel of the benchmark's own (no repository code) next to
//! its operations and reports them in *reference milliseconds*: the raw time
//! × [`NOMINAL`] ÷ the kernel time around it. A change to the program cannot
//! move the kernel, so the ratio cancels only the machine's speed.
//!
//! The kernel formats numbers into a string and parses them back:
//! allocation, formatting and parsing, a large and branchy code path. Of ten
//! candidate kernels it was the one whose slowdown in the slow state (1.81×)
//! matched the block update's (1.74×); over twenty later runs it slowed by
//! ≈ 1.7× where the block update slowed by ≈ 1.85×, so reference times
//! still read ≈ 15% higher in the slow state. A walk over a cache-resident
//! table slowed by 1.33×, a walk over a 16 MiB table by 1.11×, pure register
//! arithmetic by 1.06×: the slow state hurts branchy, code-heavy work, not
//! the memory system or the ALUs. Kernel and operations are timed in thread
//! CPU time (`cputime`), so the host taking the vCPU away does not count.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Duration;

use crate::cputime::CpuInstant;
use crate::summary::Summary;

/// Kernel time the reference figures are expressed against: about its
/// median in the machine's slow state, so reference milliseconds read close
/// to raw ones there.
pub const NOMINAL: Duration = Duration::from_millis(2);

/// Numbers the kernel formats and parses back.
const NUMBERS: u32 = 6_000;

/// Times the kernel once, in thread CPU time.
fn kernel() -> Duration {
    let t = CpuInstant::now();
    let mut text = String::new();
    let mut x = 0x2545_F491u32;
    for _ in 0..NUMBERS {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let _ = write!(text, "{} {:.3},", x, f64::from(x) / 7.0);
    }
    let total: f64 = text
        .split(',')
        .filter(|t| !t.is_empty())
        .map(|t| {
            let (int, fixed) = t.split_once(' ').expect("the kernel writes pairs");
            int.parse::<u64>().expect("an integer") as f64 + fixed.parse::<f64>().expect("a float")
        })
        .sum();
    black_box(total);
    t.elapsed()
}

/// `raw` in reference time, against the kernel readings taken just before
/// and just after it.
pub fn local(raw: Duration, before: Duration, after: Duration) -> Duration {
    raw.mul_f64(2.0 * NOMINAL.as_secs_f64() / (before + after).as_secs_f64())
}

/// Kernel readings taken through one measured phase.
#[derive(Default)]
pub struct Speed {
    samples: Vec<Duration>,
}

impl Speed {
    /// Times the kernel, records the reading and returns it.
    pub fn sample(&mut self) -> Duration {
        let k = kernel();
        self.samples.push(k);
        k
    }

    /// Median kernel time and reading count, for the run output.
    pub fn describe(&self) -> String {
        let median = Summary::of(&self.samples).map_or(0.0, |s| s.p50.as_secs_f64() * 1e3);
        format!(
            "reference kernel: median {median:.4} ms over {} readings (nominal {} ms)",
            self.samples.len(),
            NOMINAL.as_secs_f64() * 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_scales_by_the_bracketing_readings() {
        let ms = Duration::from_millis;
        // Kernel at twice its nominal time: the machine runs at half speed.
        assert_eq!(local(ms(300), 2 * NOMINAL, 2 * NOMINAL), ms(150));
        assert_eq!(local(ms(300), NOMINAL, 3 * NOMINAL), ms(150));
        assert_eq!(local(ms(300), NOMINAL, NOMINAL), ms(300));
    }
}
