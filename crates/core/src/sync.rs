//! Synchronisation facade for the parallel engine.
//!
//! Everything in [`crate::parallel`] reaches its atomics, locks and
//! threads through this module instead of `std` directly (the
//! `cargo xtask lint` pass enforces it for `parallel/`): the pending-work
//! counter, the cancel flag, the deque and seen-set shard locks, and the
//! worker threads. The facade has two backends selected at compile time by
//! the `kbiplex_model` cfg:
//!
//! * **Production** (default): direct re-exports of the `std` types. No
//!   wrapper types, no indirection — binaries are byte-for-byte identical
//!   to importing `std::sync` directly, and the `modelsim` crate is not in
//!   the dependency graph at all.
//! * **Model** (`--cfg kbiplex_model` + `--features model`): the vendored
//!   `modelsim` deterministic concurrency model checker. Every operation
//!   becomes a scheduling point, atomics run under a weak-memory visibility
//!   simulation, and `modelsim::check` explores interleavings. Used by
//!   `tests/model_check.rs` and the CI `analysis` job.
//!
//! # Ordering sites
//!
//! The `order!` macro (crate-internal) names a memory ordering *site*:
//! `order!(SeqCst, "steal-pending")`. It expands to the literal ordering
//! on both backends; the name is what `cargo xtask lint`'s
//! `ordering-registry-drift` rule checks against the table of sites in
//! DESIGN.md § "Memory-ordering arguments", which also records what the
//! model checker showed about each site.

// The model backend is only compiled when explicitly requested; forgetting
// the feature while setting the cfg would otherwise produce confusing
// "unresolved import" errors deep inside the facade.
#[cfg(all(kbiplex_model, not(feature = "model")))]
compile_error!(
    "--cfg kbiplex_model requires the `model` feature of kbiplex \
     (cargo test -p kbiplex --features model with RUSTFLAGS=\"--cfg kbiplex_model\")"
);

#[cfg(not(kbiplex_model))]
pub use std::sync::{Mutex, MutexGuard};

#[cfg(kbiplex_model)]
pub use modelsim::{Mutex, MutexGuard};

/// Atomic types and memory orderings (std or modelsim, by backend).
pub mod atomic {
    #[cfg(not(kbiplex_model))]
    pub use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[cfg(kbiplex_model)]
    pub use modelsim::atomic::{AtomicBool, AtomicUsize, Ordering};
}

/// Thread spawning and scheduling hints (std or modelsim, by backend).
pub mod thread {
    #[cfg(not(kbiplex_model))]
    pub use std::thread::{scope, sleep, yield_now};

    #[cfg(kbiplex_model)]
    pub use modelsim::thread::{scope, sleep, yield_now};
}

/// Spin-wait hint (std or modelsim, by backend).
pub mod hint {
    #[cfg(not(kbiplex_model))]
    pub use std::hint::spin_loop;

    #[cfg(kbiplex_model)]
    pub use modelsim::hint::spin_loop;
}

/// Names a memory-ordering site: `order!(SeqCst, "site-tag")` expands to
/// `Ordering::SeqCst` of the active backend. The tag documents the site and
/// ties it to its argument in DESIGN.md.
macro_rules! order {
    ($ord:ident, $site:literal) => {
        $crate::sync::atomic::Ordering::$ord
    };
}

pub(crate) use order;

/// Locks a mutex, recovering the guard from a poisoned lock. The parallel
/// engines hold locks only around short queue/buffer operations that leave
/// the data consistent at every await point, so a panic elsewhere never
/// leaves them half-updated and continuing with the inner value is sound —
/// and the engines must not *compound* a worker panic into a second one
/// while the scope unwinds.
pub(crate) fn plock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
