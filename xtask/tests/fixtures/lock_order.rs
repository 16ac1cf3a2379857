// lint-as: crates/serve/src/mutant.rs
// expect-rule: lock-order
//! Seeded mutant: acquires the graph lock, then the scheduler lock — the
//! reverse of the declared `sched < current` hierarchy. This thread
//! holding `current` while waiting for `sched`, plus an admitting thread
//! holding `sched` while waiting for `current`, is a deadlock cycle: each
//! waits for the lock the other holds.

use std::sync::{Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub fn pick_job_against_snapshot(shared: &Shared) -> usize {
    let current = lock(&shared.current);
    let sched = lock(&shared.sched);
    sched.queue.len().min(current.num_left())
}
