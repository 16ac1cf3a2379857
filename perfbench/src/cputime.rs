//! CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID`) or of the
//! whole process (`CLOCK_PROCESS_CPUTIME_ID`).
//!
//! On a virtual machine that shares its host with other guests, a vCPU
//! loses the physical CPU now and then ("steal" in `/proc/stat`). Wall-clock
//! time counts those gaps, CPU time does not: a fixed 24 ms loop on a
//! shared 2-vCPU guest read p25–p75 25–43 ms by the wall clock and
//! 23.3–25.1 ms by thread CPU time. Operations that run on the calling
//! thread are timed with its clock, operations that run on worker threads
//! with the process's (the CPU time of all its threads).

#![allow(unsafe_code)]

use std::time::Duration;

/// Linux clock ids.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// A reading of a CPU clock.
#[derive(Clone, Copy, Debug)]
pub struct CpuInstant {
    clock: i32,
    at: Duration,
}

impl CpuInstant {
    /// The calling thread's CPU time so far.
    pub fn now() -> CpuInstant {
        CpuInstant { clock: CLOCK_THREAD_CPUTIME_ID, at: cpu_time(CLOCK_THREAD_CPUTIME_ID) }
    }

    /// The CPU time of all the process's threads so far.
    pub fn process_now() -> CpuInstant {
        CpuInstant { clock: CLOCK_PROCESS_CPUTIME_ID, at: cpu_time(CLOCK_PROCESS_CPUTIME_ID) }
    }

    /// CPU time used since `self` on the same clock (a thread reading must
    /// be taken on the same thread).
    pub fn elapsed(&self) -> Duration {
        cpu_time(self.clock).saturating_sub(self.at)
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_time(clock: i32) -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for 64-bit Linux
    // (two 64-bit fields), and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Elsewhere the wall clock stands in (the benchmark's figures are taken on
/// 64-bit Linux).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_time(_clock: i32) -> Duration {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_but_not_sleep() {
        let t = CpuInstant::now();
        std::thread::sleep(Duration::from_millis(50));
        let slept = t.elapsed();
        let t = CpuInstant::now();
        let mut x = 1u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let busy = t.elapsed();
        assert!(slept < Duration::from_millis(10), "sleep counted {slept:?}");
        assert!(busy > Duration::from_millis(5), "busy loop counted only {busy:?}");
    }

    #[test]
    fn process_clock_counts_worker_threads() {
        let t = CpuInstant::process_now();
        std::thread::spawn(|| {
            let mut x = 1u64;
            let start = std::time::Instant::now();
            while start.elapsed() < Duration::from_millis(30) {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        })
        .join()
        .expect("the worker finishes");
        let busy = t.elapsed();
        assert!(busy > Duration::from_millis(5), "worker counted only {busy:?}");
    }
}
