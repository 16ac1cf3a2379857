//! # kbiplex — maximal k-biplex enumeration
//!
//! Rust implementation of *"Efficient Algorithms for Maximal k-Biplex
//! Enumeration"* (SIGMOD 2022). A **k-biplex** of a bipartite graph
//! `G = (L ∪ R, E)` is an induced subgraph `(L', R')` in which every vertex
//! misses at most `k` vertices of the opposite side; this crate enumerates
//! all *maximal* k-biplexes (MBPs).
//!
//! ## Quick start
//!
//! ```
//! use bigraph::BipartiteGraph;
//! use kbiplex::{CollectSink, Enumerator, StopReason};
//!
//! // A small bipartite graph: 3 users × 3 products.
//! let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2)])
//!     .unwrap();
//!
//! // Enumerate all maximal 1-biplexes with the paper's iTraversal.
//! let mut sink = CollectSink::new();
//! let report = Enumerator::new(&g).k(1).run(&mut sink).unwrap();
//! assert_eq!(report.stop, StopReason::Exhausted);
//! assert_eq!(report.solutions as usize, sink.solutions.len());
//! assert!(!sink.solutions.is_empty());
//!
//! // Or pull the first two solutions from a stream.
//! let first_two: Vec<_> = Enumerator::new(&g).k(1).limit(2).stream().unwrap().collect();
//! assert_eq!(first_two.len(), 2);
//! ```
//!
//! ## What is inside
//!
//! * [`api`] — the [`Enumerator`] builder facade: the single entry point
//!   for every algorithm variant × engine combination, with streaming,
//!   first-N limits, time budgets and cooperative cancellation.
//!   It prepares the graph every traversal runs on (the (θ−k)-core
//!   reduction of large-MBP enumeration, Section 5; the vertex relabeling;
//!   the transpose of the right-anchored variant) and maps each solution
//!   back to input ids.
//! * [`traversal`] — the reverse-search engine implementing both
//!   `bTraversal` (Algorithm 1) and `iTraversal` (Algorithm 2); the
//!   algorithm picks which of the left-anchored, right-shrinking and
//!   exclusion-strategy prunings are on. Its expansion step, the
//!   `iThreeStep`, is one function shared with the parallel engine, and
//!   the large-MBP size prunings run inside it. `bTraversal` also
//!   enumerates maximal `(k_L, k_R)`-biplexes, the per-side budgets the
//!   paper mentions after Definition 2.1 ([`KPair`]).
//! * [`mod@enum_almost_sat`] — the `EnumAlmostSat` procedure (Section 4) in its
//!   four refined variants plus the inflation-based baseline (Figure 12).
//! * [`parallel`] — a thread-parallel enumeration of the full MBP set (the
//!   paper's stated future work).
//! * [`dynamic`] — incremental maintenance of the maximal-k-biplex set
//!   under edge insertions/deletions, with per-update added/removed diffs
//!   and a core-bounded localized re-enumeration path.
//! * [`biplex`], [`extend`], [`initial`], [`store`], [`sink`], [`stats`] —
//!   the supporting data structures.
//! * [`bruteforce`] — an exponential oracle used for cross-validation.
//!
//! The crate never panics on well-formed inputs, uses no `unsafe`, and all
//! algorithms are deterministic (fixed preset orders), so runs are exactly
//! reproducible.

#![forbid(unsafe_code)]

pub mod api;
pub mod biplex;
pub mod bruteforce;
pub mod dynamic;
pub mod enum_almost_sat;
pub mod extend;
pub mod initial;
pub mod json;
#[cfg(test)]
mod large;
pub mod parallel;
pub mod sink;
pub mod stats;
mod step;
pub mod store;
pub mod sync;
pub mod traversal;
pub mod wire;

pub use api::{
    Algorithm, ApiError, Engine, EngineStats, Enumerator, QuerySpec, ReducedGraph, RunReport,
    SolutionStream, StopReason,
};
pub use bigraph::order::VertexOrder;
pub use biplex::{is_k_biplex, is_maximal_k_biplex, Biplex, KPair, PartialBiplex};
pub use dynamic::{DynamicConfig, DynamicEnumerator, DynamicError, MaintainStats, UpdateDiff};
pub use enum_almost_sat::{enum_almost_sat, AlmostSatStats, EnumKind};
pub use json::{Json, JsonError};
pub use parallel::seen::ConcurrentSeenSet;
pub use parallel::ParallelStats;
pub use sink::{CollectSink, Control, CountingSink, DelayRecorder, DelayReport, SolutionSink};
pub use stats::TraversalStats;
pub use store::{HashStore, SolutionStore};
pub use traversal::{Anchor, EmitMode};
