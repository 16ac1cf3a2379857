// lint-as: crates/serve/src/clean.rs
// expect-rule: clean
//! Near-miss that must pass: the same two locks as the `lock_order`
//! mutant, but the one nesting follows the declared `sched < current`
//! hierarchy, and the out-of-order acquisition happens only after the
//! earlier guard is explicitly dropped.

use std::sync::{Arc, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub fn apply_then_admit(shared: &Shared, edge: Edge) {
    let mut current = lock(&shared.current);
    current.apply(edge);
    drop(current);
    // `sched` ranks before `current`, but nothing is held anymore.
    let mut sched = lock(&shared.sched);
    // Taking `current` under `sched` is in hierarchy order
    // (sched < current); its guard is a statement-scoped temporary.
    sched.admit(Arc::clone(&lock(&shared.current)));
}
