//! Mutable bipartite graphs for dynamic (streaming) workloads.
//!
//! [`DynamicBipartiteGraph`] keeps per-side adjacency as sorted `Vec`s so
//! single-edge inserts and deletes are `O(deg)` (a binary search plus a
//! shift), while [`snapshot`](DynamicBipartiteGraph::snapshot) re-materializes
//! a CSR [`BipartiteGraph`] in `O(|V| + |E|)` *without sorting* —
//! the lists are already sorted and deduplicated, so the snapshot is a flat
//! copy. This is the substrate for the `kbiplex::dynamic` maintenance layer:
//! updates mutate in place, and the enumeration pipelines that want the CSR
//! layout get a cheap snapshot of exactly the current edge set.
//!
//! Both mutators follow the checked-`Result` contract of
//! [`BipartiteBuilder::add_edge`](crate::graph::BipartiteBuilder::add_edge):
//! out-of-range endpoints are an [`crate::Error::VertexOutOfRange`], never a
//! panic, and the `Ok(bool)` return reports whether the edge set actually
//! changed (inserting a present edge or deleting an absent one is a no-op).

use crate::core_decomp::BipartiteAdjacency;
use crate::csr::Csr;
use crate::graph::{check_endpoints, BipartiteGraph};
use crate::Result;

/// A mutable, undirected, unweighted bipartite graph with sorted adjacency
/// stored on both sides.
#[derive(Clone, Debug, Default)]
pub struct DynamicBipartiteGraph {
    left: Vec<Vec<u32>>,
    right: Vec<Vec<u32>>,
    num_edges: u64,
}

impl DynamicBipartiteGraph {
    /// An edgeless graph with `num_left` left and `num_right` right vertices.
    pub fn new(num_left: u32, num_right: u32) -> Self {
        DynamicBipartiteGraph {
            left: vec![Vec::new(); num_left as usize],
            right: vec![Vec::new(); num_right as usize],
            num_edges: 0,
        }
    }

    /// Copies a CSR graph into mutable form.
    pub fn from_graph(g: &BipartiteGraph) -> Self {
        let left = (0..g.num_left()).map(|v| g.left_neighbors(v).to_vec()).collect();
        let right = (0..g.num_right()).map(|u| g.right_neighbors(u).to_vec()).collect();
        DynamicBipartiteGraph { left, right, num_edges: g.num_edges() }
    }

    /// Number of left vertices `|L|`.
    #[inline]
    pub fn num_left(&self) -> u32 {
        self.left.len() as u32
    }

    /// Number of right vertices `|R|`.
    #[inline]
    pub fn num_right(&self) -> u32 {
        self.right.len() as u32
    }

    /// Number of (undirected) edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    /// Sorted neighbours (right ids) of left vertex `v`.
    #[inline]
    pub fn left_neighbors(&self, v: u32) -> &[u32] {
        &self.left[v as usize]
    }

    /// Sorted neighbours (left ids) of right vertex `u`.
    #[inline]
    pub fn right_neighbors(&self, u: u32) -> &[u32] {
        &self.right[u as usize]
    }

    /// Degree of left vertex `v`.
    #[inline]
    pub fn left_degree(&self, v: u32) -> usize {
        self.left[v as usize].len()
    }

    /// Degree of right vertex `u`.
    #[inline]
    pub fn right_degree(&self, u: u32) -> usize {
        self.right[u as usize].len()
    }

    /// `true` iff left vertex `v` and right vertex `u` are adjacent.
    /// Searches the shorter of the two adjacency lists.
    pub fn has_edge(&self, v: u32, u: u32) -> bool {
        let ln = &self.left[v as usize];
        let rn = &self.right[u as usize];
        if ln.len() <= rn.len() {
            ln.binary_search(&u).is_ok()
        } else {
            rn.binary_search(&v).is_ok()
        }
    }

    /// Inserts the edge `(left v, right u)`. Returns `Ok(true)` if the edge
    /// was absent (and is now present), `Ok(false)` if it already existed.
    pub fn insert_edge(&mut self, v: u32, u: u32) -> Result<bool> {
        check_endpoints(v, u, self.num_left(), self.num_right())?;
        let ln = &mut self.left[v as usize];
        let Err(pos) = ln.binary_search(&u) else {
            return Ok(false);
        };
        ln.insert(pos, u);
        let rn = &mut self.right[u as usize];
        match rn.binary_search(&v) {
            Ok(_) => debug_assert!(false, "adjacency halves out of sync"),
            Err(pos) => rn.insert(pos, v),
        }
        self.num_edges += 1;
        Ok(true)
    }

    /// Deletes the edge `(left v, right u)`. Returns `Ok(true)` if the edge
    /// was present (and is now gone), `Ok(false)` if it did not exist.
    pub fn delete_edge(&mut self, v: u32, u: u32) -> Result<bool> {
        check_endpoints(v, u, self.num_left(), self.num_right())?;
        let ln = &mut self.left[v as usize];
        let Ok(pos) = ln.binary_search(&u) else {
            return Ok(false);
        };
        ln.remove(pos);
        let rn = &mut self.right[u as usize];
        match rn.binary_search(&v) {
            Ok(pos) => {
                rn.remove(pos);
            }
            Err(_) => debug_assert!(false, "adjacency halves out of sync"),
        }
        self.num_edges -= 1;
        Ok(true)
    }

    /// Re-materializes the current edge set as a CSR
    /// [`BipartiteGraph`]. The adjacency lists are already sorted, so this is
    /// a flat `O(|V| + |E|)` copy with no sorting pass.
    pub fn snapshot(&self) -> BipartiteGraph {
        BipartiteGraph::from_halves(flatten(&self.left), flatten(&self.right))
    }
}

/// Packs sorted per-vertex lists into one CSR half.
fn flatten(lists: &[Vec<u32>]) -> Csr {
    let mut offsets = Vec::with_capacity(lists.len() + 1);
    offsets.push(0usize);
    let mut total = 0usize;
    for l in lists {
        total += l.len();
        offsets.push(total);
    }
    let mut targets = Vec::with_capacity(total);
    for l in lists {
        targets.extend_from_slice(l);
    }
    Csr::from_parts(offsets, targets)
}

impl BipartiteAdjacency for DynamicBipartiteGraph {
    fn num_left(&self) -> u32 {
        DynamicBipartiteGraph::num_left(self)
    }

    fn num_right(&self) -> u32 {
        DynamicBipartiteGraph::num_right(self)
    }

    fn left_neighbors(&self, v: u32) -> &[u32] {
        DynamicBipartiteGraph::left_neighbors(self, v)
    }

    fn right_neighbors(&self, u: u32) -> &[u32] {
        DynamicBipartiteGraph::right_neighbors(self, u)
    }
}

impl From<&BipartiteGraph> for DynamicBipartiteGraph {
    fn from(g: &BipartiteGraph) -> Self {
        DynamicBipartiteGraph::from_graph(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core_decomp::{alpha_beta_core, IncrementalCore};
    use crate::gen::chung_lu_bipartite;
    use crate::{Error, Side};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn insert_and_delete_roundtrip() {
        let mut g = DynamicBipartiteGraph::new(3, 3);
        assert!(g.insert_edge(0, 1).unwrap());
        assert!(g.insert_edge(0, 0).unwrap());
        assert!(!g.insert_edge(0, 1).unwrap(), "duplicate insert is a no-op");
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.left_neighbors(0), &[0, 1]);
        assert_eq!(g.right_neighbors(1), &[0]);
        assert!(g.has_edge(0, 1));

        assert!(g.delete_edge(0, 1).unwrap());
        assert!(!g.delete_edge(0, 1).unwrap(), "deleting an absent edge is a no-op");
        assert_eq!(g.num_edges(), 1);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.left_neighbors(0), &[0]);
        assert!(g.right_neighbors(1).is_empty());
    }

    #[test]
    fn out_of_range_is_checked() {
        let mut g = DynamicBipartiteGraph::new(2, 2);
        assert!(matches!(
            g.insert_edge(2, 0),
            Err(Error::VertexOutOfRange { side: Side::Left, .. })
        ));
        assert!(matches!(
            g.delete_edge(0, 7),
            Err(Error::VertexOutOfRange { side: Side::Right, .. })
        ));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn snapshot_matches_reference_builder() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut g = DynamicBipartiteGraph::new(9, 7);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for _ in 0..120 {
            let v = rng.gen_range(0..9);
            let u = rng.gen_range(0..7);
            if rng.gen_bool(0.7) {
                if g.insert_edge(v, u).unwrap() {
                    edges.push((v, u));
                }
            } else if g.delete_edge(v, u).unwrap() {
                edges.retain(|&e| e != (v, u));
            }
            let snap = g.snapshot();
            let reference = BipartiteGraph::from_edges(9, 7, &edges).unwrap();
            assert_eq!(snap.num_edges(), reference.num_edges());
            for v in 0..9 {
                assert_eq!(snap.left_neighbors(v), reference.left_neighbors(v));
            }
            for u in 0..7 {
                assert_eq!(snap.right_neighbors(u), reference.right_neighbors(u));
            }
        }
    }

    #[test]
    fn from_graph_roundtrips() {
        let base = chung_lu_bipartite(20, 20, 80, 2.0, 5);
        let dynamic = DynamicBipartiteGraph::from_graph(&base);
        assert_eq!(dynamic.num_edges(), base.num_edges());
        let snap = dynamic.snapshot();
        assert_eq!(snap.edges().collect::<Vec<_>>(), base.edges().collect::<Vec<_>>());
        let via_from: DynamicBipartiteGraph = (&base).into();
        assert_eq!(via_from.num_edges(), base.num_edges());
    }

    /// The incremental core must agree with a full re-peel after every step
    /// of a random edit script, across a grid of thresholds.
    #[test]
    fn incremental_core_matches_full_peel() {
        for seed in 0..4u64 {
            let base = chung_lu_bipartite(24, 24, 110, 2.2, seed);
            for (alpha, beta) in [(1, 1), (2, 2), (3, 2), (2, 4)] {
                let mut g = DynamicBipartiteGraph::from_graph(&base);
                let mut core = IncrementalCore::new(&g, alpha, beta);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
                for _ in 0..160 {
                    let v = rng.gen_range(0..24);
                    let u = rng.gen_range(0..24);
                    if g.has_edge(v, u) {
                        g.delete_edge(v, u).unwrap();
                        core.on_delete(&g, v, u);
                    } else {
                        g.insert_edge(v, u).unwrap();
                        core.on_insert(&g, v, u);
                    }
                    let expected = alpha_beta_core(&g, alpha, beta);
                    assert_eq!(
                        core.members(),
                        expected,
                        "core diverged (alpha={alpha}, beta={beta}, seed={seed})"
                    );
                }
            }
        }
    }

    /// Degenerate thresholds: α = 0 keeps every left vertex unconditionally.
    #[test]
    fn incremental_core_zero_thresholds() {
        let mut g = DynamicBipartiteGraph::new(3, 3);
        let mut core = IncrementalCore::new(&g, 0, 1);
        assert_eq!(core.members().left.len(), 3);
        assert!(core.members().right.is_empty());
        g.insert_edge(1, 1).unwrap();
        core.on_insert(&g, 1, 1);
        assert!(core.contains_right(1));
        assert_eq!(core.members(), alpha_beta_core(&g, 0, 1));
        g.delete_edge(1, 1).unwrap();
        core.on_delete(&g, 1, 1);
        assert_eq!(core.members(), alpha_beta_core(&g, 0, 1));
        assert_eq!(core.alpha(), 0);
        assert_eq!(core.beta(), 1);
    }
}
