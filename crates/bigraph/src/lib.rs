//! # bigraph — bipartite graph substrate
//!
//! This crate provides the graph infrastructure shared by every algorithm in
//! the workspace:
//!
//! * [`BipartiteGraph`] — a CSR-encoded undirected bipartite graph with
//!   sorted adjacency lists on both sides and O(log d) edge queries. It is
//!   read-only except for one copy-on-write edit of a graph shared behind
//!   an `Arc` ([`BipartiteGraph::update_shared`]), which costs one
//!   O(|V| + |E|) splice.
//! * [`BipartiteBuilder`] — incremental construction from edge pairs with
//!   duplicate removal.
//! * [`csr::Csr`] — the one-sided compressed-sparse-row half underlying the
//!   graph.
//! * [`intersect`] — the sorted-slice intersection kernel layer (merge /
//!   gallop / branchless chunked / bitset-chunk) behind a single
//!   [`intersect::dispatch`] entry with a measured crossover heuristic;
//!   [`intersect::dispatch_with`] forces one [`Kernel`] for the per-kernel
//!   bench table.
//! * [`order`] — degeneracy/degree vertex relabelings ([`VertexOrder`]) that
//!   pack the dense core into a contiguous low-id range before enumeration.
//! * [`bitset::BitSet`] — a fixed-capacity bitset used pervasively for vertex
//!   set membership in the enumeration algorithms.
//! * [`gen`] — deterministic random generators (Erdős–Rényi, Chung–Lu
//!   power-law, planted quasi-biclique blocks) and the dataset registry that
//!   stands in for the paper's KONECT datasets (Table 1).
//! * [`core_decomp`] — (α,β)-core peeling used both as a preprocessing step
//!   for large-MBP enumeration and as a detector in the fraud case study,
//!   plus [`IncrementalCore`], the same membership maintained under edge
//!   updates by local cascades instead of full re-peels.
//! * [`dynamic`] — [`DynamicBipartiteGraph`], a mutable adjacency with
//!   checked O(deg) `insert_edge`/`delete_edge` and cheap CSR
//!   re-materialization, the substrate for incremental maximal-k-biplex
//!   maintenance.
//! * [`subgraph`] — induced-subgraph extraction with id remapping.
//! * [`general`] — general (unipartite) graphs and the *inflation* of a
//!   bipartite graph used by the FaPlexen-style baseline.
//! * [`io`] — a plain edge-list text format for persisting graphs.
//! * [`formats`] — KONECT `out.*` downloads and adjacency lists, plus
//!   format sniffing, so the harness can also run on the paper's original
//!   datasets when they are available.
//!
//! The crate has no dependency on the enumeration algorithms; it is a pure
//! substrate and can be reused on its own.
//!
//! ## Quick start
//!
//! ```
//! use bigraph::{BipartiteGraph, BitSet};
//!
//! // 2 users × 3 products, with user 0 buying everything.
//! let g = BipartiteGraph::from_edges(2, 3, &[(0, 0), (0, 1), (0, 2), (1, 2)]).unwrap();
//! assert_eq!(g.num_edges(), 4);
//! assert_eq!(g.left_neighbors(0), &[0, 1, 2]);
//! assert!(g.has_edge(1, 2) && !g.has_edge(1, 0));
//!
//! // Bitsets track vertex subsets during enumeration.
//! let mut picked = BitSet::new(g.num_right() as usize);
//! for &u in g.left_neighbors(1) {
//!     picked.insert(u as usize);
//! }
//! assert_eq!(picked.iter().collect::<Vec<_>>(), vec![2]);
//! ```

#![forbid(unsafe_code)]

pub mod bitset;
pub mod core_decomp;
pub mod csr;
pub mod dynamic;
pub mod formats;
pub mod gen;
pub mod general;
pub mod graph;
pub mod intersect;
pub mod io;
pub mod order;
pub mod stats;
pub mod subgraph;

pub use bitset::BitSet;
pub use core_decomp::{BipartiteAdjacency, IncrementalCore};
pub use csr::Csr;
pub use dynamic::DynamicBipartiteGraph;
pub use graph::{BipartiteBuilder, BipartiteGraph, Side, VertexRef};
pub use intersect::Kernel;
pub use order::{bipartite_degeneracy, Relabeling, VertexOrder};
pub use subgraph::InducedSubgraph;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the substrate (graph construction and IO).
#[derive(Debug)]
pub enum Error {
    /// An edge referenced a vertex id that is out of the declared range.
    VertexOutOfRange {
        /// Side of the offending endpoint.
        side: Side,
        /// The offending vertex id.
        id: u32,
        /// The number of vertices declared on that side.
        len: u32,
    },
    /// An edge of a general (unipartite) graph referenced a vertex id that
    /// is out of the declared range.
    NodeOutOfRange {
        /// The offending vertex id.
        id: u32,
        /// The number of vertices declared.
        len: usize,
    },
    /// A general-graph edge connected a vertex to itself; the substrate only
    /// models simple graphs.
    SelfLoop {
        /// The vertex with the rejected loop.
        id: u32,
    },
    /// Wrapper around I/O errors from [`std::io`].
    Io(std::io::Error),
    /// A text line could not be parsed as an edge.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// Human readable description.
        msg: String,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::VertexOutOfRange { side, id, len } => {
                write!(f, "vertex {id} on side {side:?} out of range (|side| = {len})")
            }
            Error::NodeOutOfRange { id, len } => {
                write!(f, "vertex {id} out of range (|V| = {len})")
            }
            Error::SelfLoop { id } => write!(f, "self-loop at vertex {id} rejected"),
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}
