//! Initial solutions for the traversal frameworks.
//!
//! * `bTraversal` may start from *any* maximal k-biplex; we build one by
//!   greedily extending the empty subgraph in the preset order.
//! * `iTraversal` starts from the designated solution `H0 = (L0, R)` where
//!   `R` is the whole right side and `L0` is any maximal left set keeping
//!   `(L0, R)` a k-biplex (Section 3.2). The symmetric start `(L, R0)` of
//!   the right-anchored comparison (Section 6.2) is `H0` on the transposed
//!   graph, which is how the facade runs that variant.
//!
//! Both take a budget pair `(k_L, k_R)` or a plain `k`.

use bigraph::BipartiteGraph;

use crate::biplex::{Biplex, KPair, PartialBiplex};
use crate::extend::{extend_to_maximal, ExtendMode};

/// Builds the designated initial solution `H0 = (L0, R)` of `iTraversal`:
/// the right side is the whole of `R`, and left vertices are added greedily
/// in ascending id order while the budgets hold.
///
/// Only left vertices with degree at least `|R| − k_L` can possibly join,
/// so the candidates are pre-filtered by degree — this keeps the
/// construction linear in practice even on graphs with millions of
/// vertices.
pub fn initial_left_anchored(g: &BipartiteGraph, k: impl Into<KPair>) -> Biplex {
    let kp = k.into();
    let all_right: Vec<u32> = (0..g.num_right()).collect();
    let mut partial = PartialBiplex::from_sets(g, &[], &all_right);
    let need = (g.num_right() as usize).saturating_sub(kp.left);
    for v in 0..g.num_left() {
        if g.left_degree(v) >= need && partial.can_add_left(g, v, kp) {
            partial.add_left(g, v);
        }
    }
    partial.to_biplex()
}

/// An arbitrary maximal k-biplex (or (k_L, k_R)-biplex), built by greedily
/// extending the empty subgraph in the preset order — the initial solution
/// used by `bTraversal` (Algorithm 1 line 1).
pub fn initial_arbitrary(g: &BipartiteGraph, k: impl Into<KPair>) -> Biplex {
    let mut partial = PartialBiplex::new();
    extend_to_maximal(g, &mut partial, k, ExtendMode::BothSides);
    partial.to_biplex()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biplex::is_maximal_k_biplex;

    fn fixture() -> BipartiteGraph {
        let mut edges = Vec::new();
        for v in 0u32..5 {
            for u in 0u32..5 {
                if !matches!((v, u), (0, 4) | (1, 3) | (1, 4) | (2, 0) | (3, 1) | (3, 2)) {
                    edges.push((v, u));
                }
            }
        }
        BipartiteGraph::from_edges(5, 5, &edges).unwrap()
    }

    #[test]
    fn left_anchored_initial_contains_all_of_r_and_is_maximal() {
        let g = fixture();
        for k in 0..=2usize {
            let h0 = initial_left_anchored(&g, k);
            assert_eq!(h0.right.len(), g.num_right() as usize, "k = {k}");
            assert!(is_maximal_k_biplex(&g, &h0.left, &h0.right, k), "k = {k}");
        }
    }

    #[test]
    fn right_anchored_initial_contains_all_of_l_and_is_maximal() {
        // The right-anchored start H0' = (L, R0) is H0 on the transpose,
        // which is how the facade builds it.
        let g = fixture();
        let t = g.transpose();
        for k in 0..=2usize {
            let h0 = initial_left_anchored(&t, k).transpose();
            assert_eq!(h0.left.len(), g.num_left() as usize, "k = {k}");
            assert!(is_maximal_k_biplex(&g, &h0.left, &h0.right, k), "k = {k}");
        }
    }

    #[test]
    fn arbitrary_initial_is_maximal() {
        let g = fixture();
        for k in 0..=3usize {
            let h0 = initial_arbitrary(&g, k);
            assert!(is_maximal_k_biplex(&g, &h0.left, &h0.right, k), "k = {k}");
            assert!(!h0.is_empty());
        }
        for kp in [KPair::new(0, 1), KPair::new(1, 0), KPair::new(1, 2), KPair::new(2, 1)] {
            let h0 = initial_arbitrary(&g, kp);
            assert!(is_maximal_k_biplex(&g, &h0.left, &h0.right, kp), "{kp:?}");
            let h0 = initial_left_anchored(&g, kp);
            assert_eq!(h0.right.len(), g.num_right() as usize, "{kp:?}");
            assert!(is_maximal_k_biplex(&g, &h0.left, &h0.right, kp), "{kp:?}");
        }
    }

    #[test]
    fn left_anchored_on_sparse_graph_can_have_empty_left() {
        // No left vertex connects enough of R when the graph is very sparse
        // and k is small; (∅, R) is then itself the maximal solution.
        let g = BipartiteGraph::from_edges(3, 5, &[(0, 0), (1, 1), (2, 2)]).unwrap();
        let h0 = initial_left_anchored(&g, 1);
        assert!(h0.left.is_empty());
        assert_eq!(h0.right.len(), 5);
        assert!(is_maximal_k_biplex(&g, &h0.left, &h0.right, 1));
    }

    #[test]
    fn left_anchored_with_large_k_takes_everything_possible() {
        let g = fixture();
        // k = 5 >= |R| means every left vertex can always join.
        let h0 = initial_left_anchored(&g, 5);
        assert_eq!(h0.left.len(), 5);
        assert_eq!(h0.right.len(), 5);
    }

    #[test]
    fn transposed_symmetry() {
        // Under the right anchor the facade runs on the transpose with the
        // budgets swapped: the start found there, flipped back, is a
        // maximal solution of g under the original pair.
        let g = fixture();
        let t = g.transpose();
        for kp in [KPair::new(0, 1), KPair::new(1, 0), KPair::new(1, 2), KPair::new(2, 1)] {
            let a = initial_arbitrary(&t, kp.transpose()).transpose();
            assert!(is_maximal_k_biplex(&g, &a.left, &a.right, kp), "{kp:?}");
            let b = initial_left_anchored(&t, kp.transpose()).transpose();
            assert_eq!(b.left.len(), g.num_left() as usize, "{kp:?}");
            assert!(is_maximal_k_biplex(&g, &b.left, &b.right, kp), "{kp:?}");
        }
    }
}
