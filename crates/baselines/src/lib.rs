//! # baselines — the competing algorithms of the paper's evaluation
//!
//! Two baselines are compared against `iTraversal` throughout Section 6:
//!
//! * [`imb`] — the `iMB` backtracking algorithm for (large) maximal
//!   k-biplex enumeration. Its pruning relies on the size constraints and
//!   its delay is exponential.
//! * [`inflation`] — the `FaPlexen`-style baseline that inflates the
//!   bipartite graph and enumerates maximal (k+1)-plexes of the resulting
//!   general graph; its weakness is the memory blow-up of the inflation.
//!
//! (`bTraversal`, the third baseline, shares the reverse-search engine of
//! the `kbiplex` crate and is obtained with
//! [`kbiplex::Algorithm::BTraversal`].)
//!
//! Every baseline is cross-validated against the brute-force oracle and
//! against `iTraversal` in this crate's tests, so the running-time
//! comparisons in the benchmark harness compare algorithms that provably
//! produce the same output.

#![forbid(unsafe_code)]

pub mod imb;
pub mod inflation;

pub use imb::{collect_imb, enumerate_imb, ImbConfig, ImbStats};
pub use inflation::{
    collect_inflation, enumerate_inflation, inflation_edge_count, would_exceed_memory,
    InflationConfig, InflationReport,
};
