//! (α,β)-core computation by iterative peeling.
//!
//! The (α,β)-core of a bipartite graph is the (unique, possibly empty)
//! maximal vertex subset in which every remaining left vertex has degree at
//! least `α` and every remaining right vertex has degree at least `β`
//! (degrees counted within the subset).
//!
//! The paper uses this structure twice:
//!
//! * as a *preprocessing* step for large-MBP enumeration (every MBP with
//!   both sides of size ≥ θ is contained in the (θ−k, θ−k)-core — Section 6.1
//!   "Extension of iTraversal for enumerating large MBPs");
//! * as one of the *detectors* in the fraud-detection case study
//!   (Section 6.3).

use std::collections::BTreeMap;

use crate::graph::BipartiteGraph;
use crate::subgraph::InducedSubgraph;

/// Read-only bipartite adjacency, the interface the peeling (and its
/// incremental variant) actually needs. Implemented by the CSR
/// [`BipartiteGraph`] and by the mutable
/// [`DynamicBipartiteGraph`](crate::dynamic::DynamicBipartiteGraph), so the
/// same core-decomposition code serves both the static pipelines and the
/// dynamic-maintenance layer.
pub trait BipartiteAdjacency {
    /// Number of left vertices `|L|`.
    fn num_left(&self) -> u32;
    /// Number of right vertices `|R|`.
    fn num_right(&self) -> u32;
    /// Sorted neighbours (right ids) of left vertex `v`.
    fn left_neighbors(&self, v: u32) -> &[u32];
    /// Sorted neighbours (left ids) of right vertex `u`.
    fn right_neighbors(&self, u: u32) -> &[u32];

    /// Degree of left vertex `v`.
    fn left_degree(&self, v: u32) -> usize {
        self.left_neighbors(v).len()
    }

    /// Degree of right vertex `u`.
    fn right_degree(&self, u: u32) -> usize {
        self.right_neighbors(u).len()
    }
}

impl BipartiteAdjacency for BipartiteGraph {
    fn num_left(&self) -> u32 {
        BipartiteGraph::num_left(self)
    }

    fn num_right(&self) -> u32 {
        BipartiteGraph::num_right(self)
    }

    fn left_neighbors(&self, v: u32) -> &[u32] {
        BipartiteGraph::left_neighbors(self, v)
    }

    fn right_neighbors(&self, u: u32) -> &[u32] {
        BipartiteGraph::right_neighbors(self, u)
    }
}

/// Result of an (α,β)-core peeling: the surviving vertices of each side
/// (original ids, sorted).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AlphaBetaCore {
    /// Surviving left vertices (sorted original ids).
    pub left: Vec<u32>,
    /// Surviving right vertices (sorted original ids).
    pub right: Vec<u32>,
}

impl AlphaBetaCore {
    /// `true` when the core is empty.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty() && self.right.is_empty()
    }

    /// Number of surviving vertices.
    pub fn num_vertices(&self) -> usize {
        self.left.len() + self.right.len()
    }
}

/// Full peeling worker shared by the one-shot [`alpha_beta_core`] and the
/// seeding of [`IncrementalCore`]. Returns per-side membership flags plus
/// the final degrees *within the core* (only meaningful for members).
fn peel_core<G: BipartiteAdjacency>(
    g: &G,
    alpha: usize,
    beta: usize,
) -> (Vec<bool>, Vec<bool>, Vec<usize>, Vec<usize>) {
    let nl = g.num_left() as usize;
    let nr = g.num_right() as usize;

    let mut left_deg: Vec<usize> = (0..nl).map(|v| g.left_degree(v as u32)).collect();
    let mut right_deg: Vec<usize> = (0..nr).map(|u| g.right_degree(u as u32)).collect();
    let mut left_in = vec![true; nl];
    let mut right_in = vec![true; nr];

    // Work queue of vertices that currently violate their threshold.
    let mut queue: Vec<(bool, u32)> = Vec::new();
    for (v, &deg) in left_deg.iter().enumerate() {
        if deg < alpha {
            queue.push((true, v as u32));
            left_in[v] = false;
        }
    }
    for (u, &deg) in right_deg.iter().enumerate() {
        if deg < beta {
            queue.push((false, u as u32));
            right_in[u] = false;
        }
    }

    while let Some((is_left, id)) = queue.pop() {
        if is_left {
            for &u in g.left_neighbors(id) {
                if right_in[u as usize] {
                    right_deg[u as usize] -= 1;
                    if right_deg[u as usize] < beta {
                        right_in[u as usize] = false;
                        queue.push((false, u));
                    }
                }
            }
        } else {
            for &v in g.right_neighbors(id) {
                if left_in[v as usize] {
                    left_deg[v as usize] -= 1;
                    if left_deg[v as usize] < alpha {
                        left_in[v as usize] = false;
                        queue.push((true, v));
                    }
                }
            }
        }
    }

    (left_in, right_in, left_deg, right_deg)
}

/// Computes the (α,β)-core of `g`: every left vertex keeps ≥ `alpha`
/// neighbours and every right vertex keeps ≥ `beta` neighbours.
///
/// Runs in `O(|E| + |V|)` using a peeling queue. Generic over
/// [`BipartiteAdjacency`] so it also works on
/// [`DynamicBipartiteGraph`](crate::dynamic::DynamicBipartiteGraph).
pub fn alpha_beta_core<G: BipartiteAdjacency>(g: &G, alpha: usize, beta: usize) -> AlphaBetaCore {
    let (left_in, right_in, _, _) = peel_core(g, alpha, beta);
    let left = (0..g.num_left()).filter(|&v| left_in[v as usize]).collect();
    let right = (0..g.num_right()).filter(|&u| right_in[u as usize]).collect();
    AlphaBetaCore { left, right }
}

/// (α,β)-core membership maintained *incrementally* under edge updates.
///
/// A full peel runs once at construction; afterwards each
/// [`on_insert`](IncrementalCore::on_insert) /
/// [`on_delete`](IncrementalCore::on_delete) call repairs the membership by
/// a cascade that is local to the touched endpoints, instead of re-peeling
/// the whole graph:
///
/// * **Deletion** can only shrink the core, and the shrink cascade starts at
///   the deleted edge's endpoints — exactly the standard peeling loop seeded
///   there.
/// * **Insertion** can only grow the core. Every newly-qualifying vertex is
///   connected to a touched endpoint through other newly-qualifying vertices
///   (otherwise the new vertices would already have satisfied the thresholds
///   before the update, contradicting the maximality of the old core), so a
///   bounded BFS from the endpoints over non-members collects a candidate
///   superset, which a local peel then trims to the exact new members.
///
/// The struct stores membership flags and, for members, the degree counted
/// within the core — the invariant every repair step preserves.
#[derive(Clone, Debug)]
pub struct IncrementalCore {
    alpha: usize,
    beta: usize,
    left_in: Vec<bool>,
    right_in: Vec<bool>,
    left_deg: Vec<usize>,
    right_deg: Vec<usize>,
}

impl IncrementalCore {
    /// Seeds the structure with a full (α,β)-core peel of `g`.
    pub fn new<G: BipartiteAdjacency>(g: &G, alpha: usize, beta: usize) -> Self {
        let (left_in, right_in, left_deg, right_deg) = peel_core(g, alpha, beta);
        IncrementalCore { alpha, beta, left_in, right_in, left_deg, right_deg }
    }

    /// The left-side degree threshold α.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// The right-side degree threshold β.
    pub fn beta(&self) -> usize {
        self.beta
    }

    /// `true` iff left vertex `v` is in the core.
    #[inline]
    pub fn contains_left(&self, v: u32) -> bool {
        self.left_in[v as usize]
    }

    /// `true` iff right vertex `u` is in the core.
    #[inline]
    pub fn contains_right(&self, u: u32) -> bool {
        self.right_in[u as usize]
    }

    /// Materializes the current membership as an [`AlphaBetaCore`].
    pub fn members(&self) -> AlphaBetaCore {
        let left = (0..self.left_in.len() as u32).filter(|&v| self.left_in[v as usize]).collect();
        let right =
            (0..self.right_in.len() as u32).filter(|&u| self.right_in[u as usize]).collect();
        AlphaBetaCore { left, right }
    }

    /// Repairs the membership after the edge `(v, u)` was inserted into `g`
    /// (`g` must already contain the edge).
    pub fn on_insert<G: BipartiteAdjacency>(&mut self, g: &G, v: u32, u: u32) {
        if self.left_in[v as usize] && self.right_in[u as usize] {
            // An edge between two members raises their in-core degrees and
            // cannot change anyone's membership: any would-be joiner would
            // have qualified before the update as well (its own edges are
            // untouched), contradicting the old core's maximality.
            self.left_deg[v as usize] += 1;
            self.right_deg[u as usize] += 1;
            return;
        }

        // Candidate collection: every vertex that joins the core is reachable
        // from a non-member endpoint through other joining vertices, and a
        // joiner's full degree is a cheap upper bound for its in-core degree,
        // so BFS over degree-qualified non-members collects a superset.
        let mut cand_left: BTreeMap<u32, usize> = BTreeMap::new();
        let mut cand_right: BTreeMap<u32, usize> = BTreeMap::new();
        let mut stack: Vec<(bool, u32)> = Vec::new();
        if !self.left_in[v as usize] && g.left_degree(v) >= self.alpha {
            cand_left.insert(v, 0);
            stack.push((true, v));
        }
        if !self.right_in[u as usize] && g.right_degree(u) >= self.beta {
            cand_right.insert(u, 0);
            stack.push((false, u));
        }
        while let Some((is_left, id)) = stack.pop() {
            if is_left {
                for &n in g.left_neighbors(id) {
                    if !self.right_in[n as usize]
                        && !cand_right.contains_key(&n)
                        && g.right_degree(n) >= self.beta
                    {
                        cand_right.insert(n, 0);
                        stack.push((false, n));
                    }
                }
            } else {
                for &n in g.right_neighbors(id) {
                    if !self.left_in[n as usize]
                        && !cand_left.contains_key(&n)
                        && g.left_degree(n) >= self.alpha
                    {
                        cand_left.insert(n, 0);
                        stack.push((true, n));
                    }
                }
            }
        }
        if cand_left.is_empty() && cand_right.is_empty() {
            return;
        }

        // Degrees within core ∪ candidates, then a local peel of the
        // candidates only (members cannot violate: their within-core degree
        // alone already meets the threshold).
        let ids_left: Vec<u32> = cand_left.keys().copied().collect();
        for &w in &ids_left {
            let deg = g
                .left_neighbors(w)
                .iter()
                .filter(|&&n| self.right_in[n as usize] || cand_right.contains_key(&n))
                .count();
            if let Some(slot) = cand_left.get_mut(&w) {
                *slot = deg;
            }
        }
        let ids_right: Vec<u32> = cand_right.keys().copied().collect();
        for &w in &ids_right {
            let deg = g
                .right_neighbors(w)
                .iter()
                .filter(|&&n| self.left_in[n as usize] || cand_left.contains_key(&n))
                .count();
            if let Some(slot) = cand_right.get_mut(&w) {
                *slot = deg;
            }
        }

        let mut queue: Vec<(bool, u32)> = Vec::new();
        for (&w, &deg) in &cand_left {
            if deg < self.alpha {
                queue.push((true, w));
            }
        }
        for (&w, &deg) in &cand_right {
            if deg < self.beta {
                queue.push((false, w));
            }
        }
        while let Some((is_left, id)) = queue.pop() {
            if is_left {
                if cand_left.remove(&id).is_none() {
                    continue;
                }
                for &n in g.left_neighbors(id) {
                    if let Some(deg) = cand_right.get_mut(&n) {
                        *deg -= 1;
                        if *deg < self.beta {
                            queue.push((false, n));
                        }
                    }
                }
            } else {
                if cand_right.remove(&id).is_none() {
                    continue;
                }
                for &n in g.right_neighbors(id) {
                    if let Some(deg) = cand_left.get_mut(&n) {
                        *deg -= 1;
                        if *deg < self.alpha {
                            queue.push((true, n));
                        }
                    }
                }
            }
        }

        // Promote the survivors: bump old members' degrees first (while the
        // flags still distinguish them), then flip the flags and install the
        // survivors' own counts.
        for &w in cand_left.keys() {
            for &n in g.left_neighbors(w) {
                if self.right_in[n as usize] {
                    self.right_deg[n as usize] += 1;
                }
            }
        }
        for &w in cand_right.keys() {
            for &n in g.right_neighbors(w) {
                if self.left_in[n as usize] {
                    self.left_deg[n as usize] += 1;
                }
            }
        }
        for (&w, &deg) in &cand_left {
            self.left_in[w as usize] = true;
            self.left_deg[w as usize] = deg;
        }
        for (&w, &deg) in &cand_right {
            self.right_in[w as usize] = true;
            self.right_deg[w as usize] = deg;
        }
    }

    /// Repairs the membership after the edge `(v, u)` was deleted from `g`
    /// (`g` must no longer contain the edge).
    pub fn on_delete<G: BipartiteAdjacency>(&mut self, g: &G, v: u32, u: u32) {
        if !self.left_in[v as usize] || !self.right_in[u as usize] {
            // The edge crossed the core boundary, so it was not counted in
            // any in-core degree — membership is unchanged.
            return;
        }
        self.left_deg[v as usize] -= 1;
        self.right_deg[u as usize] -= 1;

        // Standard peeling cascade, seeded at the endpoints.
        let mut queue: Vec<(bool, u32)> = Vec::new();
        if self.left_deg[v as usize] < self.alpha {
            self.left_in[v as usize] = false;
            queue.push((true, v));
        }
        if self.right_deg[u as usize] < self.beta {
            self.right_in[u as usize] = false;
            queue.push((false, u));
        }
        while let Some((is_left, id)) = queue.pop() {
            if is_left {
                for &n in g.left_neighbors(id) {
                    if self.right_in[n as usize] {
                        self.right_deg[n as usize] -= 1;
                        if self.right_deg[n as usize] < self.beta {
                            self.right_in[n as usize] = false;
                            queue.push((false, n));
                        }
                    }
                }
            } else {
                for &n in g.right_neighbors(id) {
                    if self.left_in[n as usize] {
                        self.left_deg[n as usize] -= 1;
                        if self.left_deg[n as usize] < self.alpha {
                            self.left_in[n as usize] = false;
                            queue.push((true, n));
                        }
                    }
                }
            }
        }
    }
}

/// Computes the (α,β)-core and materializes it as an induced subgraph with
/// the id mapping back to `g` (convenience for the large-MBP pipeline).
pub fn alpha_beta_core_subgraph(g: &BipartiteGraph, alpha: usize, beta: usize) -> InducedSubgraph {
    let core = alpha_beta_core(g, alpha, beta);
    InducedSubgraph::new(g, &core.left, &core.right)
}

/// The reduction used before enumerating *large* MBPs with both sides of
/// size at least `theta`: every such MBP lies inside the
/// (θ−k, θ−k)-core, because each of its vertices connects at least
/// `θ − k` vertices of the other side (it can miss at most `k`).
pub fn large_mbp_core(g: &BipartiteGraph, theta: usize, k: usize) -> InducedSubgraph {
    let bound = theta.saturating_sub(k);
    alpha_beta_core_subgraph(g, bound, bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A complete 3x3 biclique plus a pendant path `v3 - u3`.
    fn biclique_plus_pendant() -> BipartiteGraph {
        let mut edges = vec![];
        for v in 0u32..3 {
            for u in 0u32..3 {
                edges.push((v, u));
            }
        }
        edges.push((3, 3));
        edges.push((0, 3));
        BipartiteGraph::from_edges(4, 4, &edges).unwrap()
    }

    #[test]
    fn trivial_core_is_whole_graph() {
        let g = biclique_plus_pendant();
        let core = alpha_beta_core(&g, 0, 0);
        assert_eq!(core.left.len(), 4);
        assert_eq!(core.right.len(), 4);
        let core = alpha_beta_core(&g, 1, 1);
        assert_eq!(core.left.len(), 4);
        assert_eq!(core.right.len(), 4);
    }

    #[test]
    fn peeling_removes_pendant() {
        let g = biclique_plus_pendant();
        let core = alpha_beta_core(&g, 2, 2);
        assert_eq!(core.left, vec![0, 1, 2]);
        assert_eq!(core.right, vec![0, 1, 2]);
    }

    #[test]
    fn core_degrees_satisfy_thresholds() {
        let g = biclique_plus_pendant();
        for alpha in 0..4 {
            for beta in 0..4 {
                let sub = alpha_beta_core_subgraph(&g, alpha, beta);
                for v in 0..sub.graph.num_left() {
                    assert!(sub.graph.left_degree(v) >= alpha);
                }
                for u in 0..sub.graph.num_right() {
                    assert!(sub.graph.right_degree(u) >= beta);
                }
            }
        }
    }

    #[test]
    fn too_high_threshold_empties_graph() {
        let g = biclique_plus_pendant();
        let core = alpha_beta_core(&g, 4, 4);
        assert!(core.is_empty());
        assert_eq!(core.num_vertices(), 0);
    }

    #[test]
    fn cascading_removal() {
        // Path-like graph: v0-u0, v1-u0, v1-u1, v2-u1. Asking for (2,2)
        // should cascade-remove everything.
        let g = BipartiteGraph::from_edges(3, 2, &[(0, 0), (1, 0), (1, 1), (2, 1)]).unwrap();
        let core = alpha_beta_core(&g, 2, 2);
        assert!(core.is_empty());
        // (1,2) keeps the middle structure: u0 and u1 need degree >= 2,
        // left vertices need >= 1.
        let core = alpha_beta_core(&g, 1, 2);
        assert_eq!(core.left, vec![0, 1, 2]);
        assert_eq!(core.right, vec![0, 1]);
    }

    #[test]
    fn large_mbp_core_bound() {
        let g = biclique_plus_pendant();
        // theta = 3, k = 1 -> (2,2)-core.
        let sub = large_mbp_core(&g, 3, 1);
        assert_eq!(sub.graph.num_left(), 3);
        assert_eq!(sub.graph.num_right(), 3);
        // theta <= k -> bound 0 -> whole graph survives.
        let sub = large_mbp_core(&g, 1, 2);
        assert_eq!(sub.graph.num_left(), 4);
    }

    #[test]
    fn asymmetric_thresholds() {
        let g = biclique_plus_pendant();
        // alpha = 1 (left needs >= 1), beta = 2 (right needs >= 2):
        // u3 has neighbours {v3, v0}; it survives only if both survive.
        let core = alpha_beta_core(&g, 1, 2);
        assert!(core.right.contains(&3));
        let core = alpha_beta_core(&g, 3, 2);
        // v3 has degree 1 < 3 so it is peeled, u3 drops to degree 1 < 2 and
        // is peeled too.
        assert!(!core.left.contains(&3));
        assert!(!core.right.contains(&3));
    }
}
