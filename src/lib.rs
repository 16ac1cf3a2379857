//! # mbpe — maximal k-biplex enumeration (umbrella crate)
//!
//! This crate re-exports the whole workspace behind a single dependency and
//! hosts the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`). The implementation reproduces
//! *"Efficient Algorithms for Maximal k-Biplex Enumeration"* (SIGMOD 2022);
//! see `README.md` for the project overview, `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the reproduction of every table and
//! figure.
//!
//! ```
//! use mbpe::prelude::*;
//!
//! let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]).unwrap();
//! let mut sink = CollectSink::new();
//! Enumerator::new(&g).k(1).run(&mut sink).unwrap();
//! let mbps = sink.into_sorted();
//! assert!(mbps.iter().all(|b| is_maximal_k_biplex(&g, &b.left, &b.right, 1)));
//! ```

#![forbid(unsafe_code)]

pub use baselines;
pub use bigraph;
pub use cohesive;
pub use frauddet;
pub use kbiplex;
pub use kplex;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use bigraph::{
        BipartiteBuilder, BipartiteGraph, DynamicBipartiteGraph, IncrementalCore, Side, VertexRef,
    };
    pub use kbiplex::{
        is_k_biplex, is_maximal_k_biplex, Algorithm, Anchor, ApiError, Biplex, CollectSink,
        ConcurrentSeenSet, Control, CountingSink, DelayRecorder, DynamicConfig, DynamicEnumerator,
        DynamicError, EmitMode, Engine, EngineStats, EnumKind, Enumerator, Json, JsonError, KPair,
        MaintainStats, QuerySpec, RunReport, SolutionSink, SolutionStream, StopReason, UpdateDiff,
        VertexOrder,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_is_usable() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let mut sink = CollectSink::new();
        let report = Enumerator::new(&g).k(1).run(&mut sink).unwrap();
        assert_eq!(report.stop, StopReason::Exhausted);
        let all = sink.into_sorted();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].num_vertices(), 4);
    }
}
