//! The CSR bipartite graph and its builder.
//!
//! Vertices on each side use their own dense `u32` id space:
//! `0..num_left()` on the left, `0..num_right()` on the right. Adjacency is
//! stored twice (left→right and right→left) in CSR form with sorted
//! neighbour lists, so `has_edge` is a binary search over the smaller of the
//! two adjacency lists.

use std::sync::Arc;

use crate::csr::Csr;
use crate::{Error, Result};

/// Which side of the bipartition a vertex belongs to.
///
/// Following the paper, the left side is `L` (e.g. users, authors) and the
/// right side is `R` (e.g. products, papers).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Side {
    /// The left vertex class `L`.
    Left,
    /// The right vertex class `R`.
    Right,
}

impl Side {
    /// The opposite side.
    #[inline]
    pub fn flip(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// A side-tagged vertex reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexRef {
    /// Side the vertex lives on.
    pub side: Side,
    /// Dense id within that side.
    pub id: u32,
}

impl VertexRef {
    /// Convenience constructor for a left vertex.
    pub fn left(id: u32) -> Self {
        VertexRef { side: Side::Left, id }
    }

    /// Convenience constructor for a right vertex.
    pub fn right(id: u32) -> Self {
        VertexRef { side: Side::Right, id }
    }
}

/// An undirected, unweighted bipartite graph stored as two [`Csr`] halves
/// (left→right and right→left).
///
/// The graph is read-only through `&self`. The one edit,
/// [`update_shared`](Self::update_shared), works on a graph shared behind
/// an `Arc`, copy-on-write: readers that hold the `Arc` keep the edge set
/// they saw, and an edit of a shared graph costs one `O(|V| + |E|)` splice.
/// [`DynamicBipartiteGraph`](crate::DynamicBipartiteGraph) is the type for
/// `O(deg)` edits.
#[derive(Clone, Debug, Default)]
pub struct BipartiteGraph {
    left: Csr,
    right: Csr,
}

impl BipartiteGraph {
    /// Assembles a graph from two pre-built CSR halves (left→right and
    /// right→left). The halves must describe the same edge set; this is the
    /// fast path used by [`crate::dynamic::DynamicBipartiteGraph::snapshot`],
    /// whose adjacency lists are already sorted and deduplicated.
    pub(crate) fn from_halves(left: Csr, right: Csr) -> Self {
        debug_assert_eq!(left.num_targets(), right.num_targets());
        BipartiteGraph { left, right }
    }

    /// Builds a graph from an edge list; `(v, u)` means left vertex `v` is
    /// adjacent to right vertex `u`. Duplicate edges are removed.
    pub fn from_edges(num_left: u32, num_right: u32, edges: &[(u32, u32)]) -> Result<Self> {
        let mut builder = BipartiteBuilder::new(num_left, num_right);
        for &(v, u) in edges {
            builder.add_edge(v, u)?;
        }
        Ok(builder.build())
    }

    /// Number of left vertices `|L|`.
    #[inline]
    pub fn num_left(&self) -> u32 {
        self.left.len()
    }

    /// Number of right vertices `|R|`.
    #[inline]
    pub fn num_right(&self) -> u32 {
        self.right.len()
    }

    /// Total number of vertices `|L| + |R|`.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.num_left() as u64 + self.num_right() as u64
    }

    /// Number of (undirected) edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.left.num_targets() as u64
    }

    /// Edge density `|E| / (|L| + |R|)` as defined in the paper's
    /// experiments section.
    pub fn edge_density(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Sorted neighbours (right ids) of left vertex `v`.
    #[inline]
    pub fn left_neighbors(&self, v: u32) -> &[u32] {
        self.left.neighbors(v)
    }

    /// Sorted neighbours (left ids) of right vertex `u`.
    #[inline]
    pub fn right_neighbors(&self, u: u32) -> &[u32] {
        self.right.neighbors(u)
    }

    /// Sorted neighbours of a side-tagged vertex (ids live on the other side).
    #[inline]
    pub fn neighbors(&self, v: VertexRef) -> &[u32] {
        match v.side {
            Side::Left => self.left_neighbors(v.id),
            Side::Right => self.right_neighbors(v.id),
        }
    }

    /// Degree of left vertex `v`.
    #[inline]
    pub fn left_degree(&self, v: u32) -> usize {
        self.left.degree(v)
    }

    /// Degree of right vertex `u`.
    #[inline]
    pub fn right_degree(&self, u: u32) -> usize {
        self.right.degree(u)
    }

    /// Degree of a side-tagged vertex.
    #[inline]
    pub fn degree(&self, v: VertexRef) -> usize {
        self.neighbors(v).len()
    }

    /// Number of vertices on the given side.
    #[inline]
    pub fn side_len(&self, side: Side) -> u32 {
        match side {
            Side::Left => self.num_left(),
            Side::Right => self.num_right(),
        }
    }

    /// `true` iff left vertex `v` and right vertex `u` are adjacent.
    /// Searches the shorter of the two adjacency lists.
    #[inline]
    pub fn has_edge(&self, v: u32, u: u32) -> bool {
        let ln = self.left_neighbors(v);
        let rn = self.right_neighbors(u);
        if ln.len() <= rn.len() {
            ln.binary_search(&u).is_ok()
        } else {
            rn.binary_search(&v).is_ok()
        }
    }

    /// Iterates over all edges as `(left, right)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_left()).flat_map(move |v| self.left_neighbors(v).iter().map(move |&u| (v, u)))
    }

    /// Returns the transposed graph (left and right sides swapped). Used to
    /// run the "right-anchored" symmetric variant of the traversal by
    /// re-using the left-anchored implementation.
    pub fn transpose(&self) -> BipartiteGraph {
        BipartiteGraph { left: self.right.clone(), right: self.left.clone() }
    }

    /// Maximum degree over the left side (0 for an empty side).
    pub fn max_left_degree(&self) -> usize {
        (0..self.num_left()).map(|v| self.left_degree(v)).max().unwrap_or(0)
    }

    /// Maximum degree over the right side (0 for an empty side).
    pub fn max_right_degree(&self) -> usize {
        (0..self.num_right()).map(|u| self.right_degree(u)).max().unwrap_or(0)
    }

    /// Inserts (`insert`) or deletes the edge `(left v, right u)` of a
    /// graph behind an `Arc`, copy-on-write. Returns `Ok(true)` if the edge
    /// set changed and `Ok(false)` for a no-op (inserting a present edge or
    /// deleting an absent one), which leaves `g` as it was. An endpoint out
    /// of range is an [`Error::VertexOutOfRange`], found before anything is
    /// written.
    ///
    /// When nobody else holds the graph, both halves are edited in place:
    /// a binary search, one `Vec` insert or remove and an offset bump per
    /// half. Otherwise the edited graph is built in one pass (prefix, edge,
    /// suffix) and replaces `g`; the other holders keep the old one.
    pub fn update_shared(
        g: &mut Arc<BipartiteGraph>,
        v: u32,
        u: u32,
        insert: bool,
    ) -> Result<bool> {
        check_endpoints(v, u, g.num_left(), g.num_right())?;
        let in_left = g.left_neighbors(v).binary_search(&u);
        let in_right = g.right_neighbors(u).binary_search(&v);
        debug_assert_eq!(in_left.is_ok(), in_right.is_ok(), "adjacency halves out of sync");
        if in_left.is_ok() == insert {
            return Ok(false);
        }
        let (at_left, at_right) = (in_left.unwrap_or_else(|p| p), in_right.unwrap_or_else(|p| p));
        match Arc::get_mut(g) {
            Some(owned) => {
                owned.left.splice(v, at_left, u, insert);
                owned.right.splice(u, at_right, v, insert);
            }
            None => {
                *g = Arc::new(BipartiteGraph {
                    left: g.left.spliced(v, at_left, u, insert),
                    right: g.right.spliced(u, at_right, v, insert),
                });
            }
        }
        Ok(true)
    }
}

/// Checks that left vertex `v` and right vertex `u` exist in a graph of
/// `num_left` × `num_right` vertices.
pub(crate) fn check_endpoints(v: u32, u: u32, num_left: u32, num_right: u32) -> Result<()> {
    if v >= num_left {
        return Err(Error::VertexOutOfRange { side: Side::Left, id: v, len: num_left });
    }
    if u >= num_right {
        return Err(Error::VertexOutOfRange { side: Side::Right, id: u, len: num_right });
    }
    Ok(())
}

/// Incremental builder for [`BipartiteGraph`].
#[derive(Clone, Debug)]
pub struct BipartiteBuilder {
    num_left: u32,
    num_right: u32,
    edges: Vec<(u32, u32)>,
}

impl BipartiteBuilder {
    /// New builder for a graph with `num_left` left and `num_right` right
    /// vertices (ids are `0..num_left` and `0..num_right`).
    pub fn new(num_left: u32, num_right: u32) -> Self {
        BipartiteBuilder { num_left, num_right, edges: Vec::new() }
    }

    /// Pre-allocates space for `n` more edges.
    pub fn reserve(&mut self, n: usize) {
        self.edges.reserve(n);
    }

    /// Adds the edge `(left v, right u)`; duplicates are removed at
    /// [`build`](Self::build) time.
    pub fn add_edge(&mut self, v: u32, u: u32) -> Result<()> {
        check_endpoints(v, u, self.num_left, self.num_right)?;
        self.edges.push((v, u));
        Ok(())
    }

    /// Adds an edge without range checks beyond a debug assertion. Intended
    /// for generators that construct ids themselves.
    pub fn add_edge_unchecked(&mut self, v: u32, u: u32) {
        debug_assert!(v < self.num_left && u < self.num_right);
        self.edges.push((v, u));
    }

    /// Finalizes the CSR representation (sorts and deduplicates the edges).
    pub fn build(mut self) -> BipartiteGraph {
        self.edges.sort_unstable();
        self.edges.dedup();

        let nl = self.num_left as usize;
        let nr = self.num_right as usize;

        let mut left_offsets = vec![0usize; nl + 1];
        let mut right_offsets = vec![0usize; nr + 1];
        for &(v, u) in &self.edges {
            left_offsets[v as usize + 1] += 1;
            right_offsets[u as usize + 1] += 1;
        }
        for i in 0..nl {
            left_offsets[i + 1] += left_offsets[i];
        }
        for i in 0..nr {
            right_offsets[i + 1] += right_offsets[i];
        }

        let mut left_neighbors = vec![0u32; self.edges.len()];
        let mut right_neighbors = vec![0u32; self.edges.len()];
        let mut lcur = left_offsets.clone();
        let mut rcur = right_offsets.clone();
        for &(v, u) in &self.edges {
            left_neighbors[lcur[v as usize]] = u;
            lcur[v as usize] += 1;
            right_neighbors[rcur[u as usize]] = v;
            rcur[u as usize] += 1;
        }
        // The edge list is sorted by (v, u) so each left adjacency list is
        // already sorted; right adjacency lists are filled in increasing v
        // order so they are sorted too.

        BipartiteGraph {
            left: Csr::from_parts(left_offsets, left_neighbors),
            right: Csr::from_parts(right_offsets, right_neighbors),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_example() -> BipartiteGraph {
        // A small dense 5x5 fixture in the spirit of the paper's running
        // example (Figure 1): L = {v0..v4}, R = {u0..u4}, one full-degree
        // left vertex and a few asymmetric gaps. Used across the workspace
        // tests.
        BipartiteGraph::from_edges(
            5,
            5,
            &[
                (0, 0),
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 0),
                (1, 1),
                (1, 2),
                (1, 3),
                (2, 0),
                (2, 1),
                (2, 2),
                (3, 2),
                (3, 3),
                (3, 4),
                (4, 0),
                (4, 1),
                (4, 2),
                (4, 3),
                (4, 4),
            ],
        )
        .unwrap()
    }

    #[test]
    fn counts_and_density() {
        let g = paper_example();
        assert_eq!(g.num_left(), 5);
        assert_eq!(g.num_right(), 5);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.num_edges(), 19);
        assert!((g.edge_density() - 1.9).abs() < 1e-12);
    }

    #[test]
    fn adjacency_is_sorted_and_symmetric() {
        let g = paper_example();
        for v in 0..g.num_left() {
            let n = g.left_neighbors(v);
            assert!(n.windows(2).all(|w| w[0] < w[1]));
            for &u in n {
                assert!(g.right_neighbors(u).contains(&v));
                assert!(g.has_edge(v, u));
            }
        }
        for u in 0..g.num_right() {
            let n = g.right_neighbors(u);
            assert!(n.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn has_edge_negative() {
        let g = paper_example();
        assert!(!g.has_edge(2, 3));
        assert!(!g.has_edge(2, 4));
        assert!(!g.has_edge(3, 0));
        assert!(!g.has_edge(3, 1));
    }

    #[test]
    fn duplicate_edges_are_removed() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 0), (1, 1), (0, 0)]).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.left_degree(0), 1);
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let err = BipartiteGraph::from_edges(2, 2, &[(2, 0)]);
        assert!(err.is_err());
        let err = BipartiteGraph::from_edges(2, 2, &[(0, 5)]);
        assert!(err.is_err());
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_edges(0, 0, &[]).unwrap();
        assert_eq!(g.num_left(), 0);
        assert_eq!(g.num_right(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edge_density(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = BipartiteGraph::from_edges(4, 3, &[(0, 0)]).unwrap();
        assert_eq!(g.left_degree(3), 0);
        assert_eq!(g.right_degree(2), 0);
        assert_eq!(g.max_left_degree(), 1);
    }

    #[test]
    fn edges_iterator_roundtrip() {
        let g = paper_example();
        let edges: Vec<(u32, u32)> = g.edges().collect();
        assert_eq!(edges.len(), 19);
        let g2 = BipartiteGraph::from_edges(5, 5, &edges).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        for v in 0..5 {
            assert_eq!(g.left_neighbors(v), g2.left_neighbors(v));
        }
    }

    #[test]
    fn transpose_swaps_sides() {
        let g = paper_example();
        let t = g.transpose();
        assert_eq!(t.num_left(), g.num_right());
        assert_eq!(t.num_right(), g.num_left());
        assert_eq!(t.num_edges(), g.num_edges());
        for v in 0..g.num_left() {
            for u in 0..g.num_right() {
                assert_eq!(g.has_edge(v, u), t.has_edge(u, v));
            }
        }
        // Double transpose is the identity.
        let tt = t.transpose();
        assert_eq!(tt.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
    }

    /// Asserts both halves of `g` equal those of the graph built from
    /// `edges` by the reference builder.
    fn assert_same_halves(g: &BipartiteGraph, nl: u32, nr: u32, edges: &[(u32, u32)]) {
        let reference = BipartiteGraph::from_edges(nl, nr, edges).unwrap();
        assert_eq!(g.num_edges(), reference.num_edges());
        assert_eq!(g.left, reference.left);
        assert_eq!(g.right, reference.right);
    }

    /// Random insert/delete scripts through both cases of `update_shared`:
    /// in place when the `Arc` is unique, and a one-pass copy when another
    /// holder (a clone taken before each step) pins the graph.
    #[test]
    fn update_shared_matches_reference_builder() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;

        for shared in [false, true] {
            let mut rng = StdRng::seed_from_u64(11);
            let mut g = Arc::new(BipartiteGraph::from_edges(9, 7, &[]).unwrap());
            let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
            for _ in 0..200 {
                let v = rng.gen_range(0..9);
                let u = rng.gen_range(0..7);
                let insert = rng.gen_bool(0.6);
                let held = shared.then(|| Arc::clone(&g));
                let before: Vec<(u32, u32)> = edges.iter().copied().collect();
                let changed = if insert { edges.insert((v, u)) } else { edges.remove(&(v, u)) };
                let old_ptr = Arc::as_ptr(&g);
                assert_eq!(BipartiteGraph::update_shared(&mut g, v, u, insert).unwrap(), changed);
                let after: Vec<(u32, u32)> = edges.iter().copied().collect();
                assert_same_halves(&g, 9, 7, &after);
                // In place keeps the allocation; a copy replaces it only
                // when the edge set changed, and the holder keeps its graph.
                assert_eq!(std::ptr::eq(old_ptr, Arc::as_ptr(&g)), !shared || !changed);
                if let Some(held) = held {
                    assert_same_halves(&held, 9, 7, &before);
                }
            }
        }
    }

    #[test]
    fn update_shared_rejects_and_noops_leave_the_graph() {
        let base = paper_example();
        let edges: Vec<(u32, u32)> = base.edges().collect();
        let mut g = Arc::new(base);
        let ptr = Arc::as_ptr(&g);
        assert!(matches!(
            BipartiteGraph::update_shared(&mut g, 5, 0, true),
            Err(Error::VertexOutOfRange { side: Side::Left, id: 5, len: 5 })
        ));
        assert!(matches!(
            BipartiteGraph::update_shared(&mut g, 0, 9, false),
            Err(Error::VertexOutOfRange { side: Side::Right, id: 9, len: 5 })
        ));
        assert!(!BipartiteGraph::update_shared(&mut g, 0, 0, true).unwrap(), "present edge");
        assert!(!BipartiteGraph::update_shared(&mut g, 2, 3, false).unwrap(), "absent edge");
        assert!(std::ptr::eq(ptr, Arc::as_ptr(&g)));
        assert_same_halves(&g, 5, 5, &edges);
    }

    #[test]
    fn vertex_ref_helpers() {
        let g = paper_example();
        assert_eq!(g.neighbors(VertexRef::left(4)).len(), 5);
        assert_eq!(g.degree(VertexRef::right(4)), 2);
        assert_eq!(Side::Left.flip(), Side::Right);
        assert_eq!(Side::Right.flip(), Side::Left);
        assert_eq!(g.side_len(Side::Left), 5);
    }
}
