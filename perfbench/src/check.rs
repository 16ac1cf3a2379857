//! The certificate oracle: every checked set must be a maximal k-biplex
//! according to `kbiplex::is_maximal_k_biplex`, which shares no traversal
//! code with the engines under test.

use bigraph::{BipartiteGraph, InducedSubgraph};
use kbiplex::{is_maximal_k_biplex, Biplex};

/// `true` iff `b` is a maximal k-biplex of `g`.
///
/// `is_maximal_k_biplex` tries every vertex of `g`, which is too slow on
/// the serve graph. When both sides of `b` exceed `k`, a vertex outside
/// `b` can only be added if it misses at most `k` of the other side, so it
/// has a neighbour there: checking `b` in the subgraph induced by
/// `L ∪ N(R)` and `R ∪ N(L)` gives the same answer. Otherwise the whole
/// graph is checked.
pub fn is_certified(g: &BipartiteGraph, b: &Biplex, k: usize) -> bool {
    if b.left.len() <= k || b.right.len() <= k || g.num_vertices() <= 4096 {
        return is_maximal_k_biplex(g, &b.left, &b.right, k);
    }
    let mut left = b.left.clone();
    for &u in &b.right {
        left.extend_from_slice(g.right_neighbors(u));
    }
    let mut right = b.right.clone();
    for &v in &b.left {
        right.extend_from_slice(g.left_neighbors(v));
    }
    let sub = InducedSubgraph::new(g, &left, &right);
    let local = |map: &[u32], ids: &[u32]| -> Vec<u32> {
        ids.iter()
            .map(|id| {
                map.binary_search(id).expect("every solution vertex is in its own region") as u32
            })
            .collect()
    };
    is_maximal_k_biplex(
        &sub.graph,
        &local(&sub.left_map, &b.left),
        &local(&sub.right_map, &b.right),
        k,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::gen::chung_lu_bipartite;
    use kbiplex::Enumerator;

    #[test]
    fn local_certificate_agrees_with_the_whole_graph_check() {
        // Large enough to take the induced-subgraph path.
        let g = chung_lu_bipartite(3000, 3000, 12_000, 2.2, 5);
        let sols = Enumerator::new(&g).k(1).limit(300).collect().unwrap();
        assert!(!sols.is_empty());
        for b in &sols {
            assert!(is_certified(&g, b, 1));
            assert!(is_maximal_k_biplex(&g, &b.left, &b.right, 1));
            // Dropping a vertex breaks maximality; both checks must see it.
            if b.left.len() > 2 && b.right.len() > 2 {
                let smaller = Biplex::new(b.left[1..].to_vec(), b.right.clone());
                assert_eq!(
                    is_certified(&g, &smaller, 1),
                    is_maximal_k_biplex(&g, &smaller.left, &smaller.right, 1)
                );
                assert!(!is_certified(&g, &smaller, 1));
            }
        }
    }
}
