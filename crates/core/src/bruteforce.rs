//! Brute-force maximal k-biplex enumeration by subset enumeration.
//!
//! Exponential in the graph size and only usable for tiny graphs; it serves
//! as the *test oracle* that every traversal configuration and every
//! baseline is cross-validated against, and as a readable executable
//! specification of Definitions 2.1–2.3. It uses no engine code: subset
//! enumeration over [`is_k_biplex`], under a plain `k` or a budget pair.

use bigraph::BipartiteGraph;

use crate::biplex::{is_k_biplex, Biplex, KPair};

/// Enumerates every maximal k-biplex of `g` (every maximal
/// (k_L, k_R)-biplex for a budget pair) by checking all `2^{|L|+|R|}`
/// vertex subsets. Panics if either side has more than 16 vertices.
///
/// The result is sorted canonically and duplicate-free.
pub fn brute_force_mbps(g: &BipartiteGraph, k: impl Into<KPair>) -> Vec<Biplex> {
    let kp = k.into();
    let nl = g.num_left() as usize;
    let nr = g.num_right() as usize;
    assert!(nl <= 16 && nr <= 16, "brute force is only meant for tiny graphs");

    // Collect every k-biplex first.
    let mut biplexes: Vec<Biplex> = Vec::new();
    for lmask in 0u32..(1 << nl) {
        let left: Vec<u32> = (0..nl as u32).filter(|&v| lmask & (1 << v) != 0).collect();
        for rmask in 0u32..(1 << nr) {
            let right: Vec<u32> = (0..nr as u32).filter(|&u| rmask & (1 << u) != 0).collect();
            if is_k_biplex(g, &left, &right, kp) {
                biplexes.push(Biplex { left: left.clone(), right });
            }
        }
    }

    // Keep the maximal ones (no proper k-biplex superset).
    let mut maximal: Vec<Biplex> = biplexes
        .iter()
        .filter(|b| {
            !biplexes
                .iter()
                .any(|other| other.num_vertices() > b.num_vertices() && b.is_subgraph_of(other))
        })
        .cloned()
        .collect();
    maximal.sort();
    maximal.dedup();
    maximal
}

/// Brute-force enumeration of *large* MBPs: all maximal k-biplexes with
/// `|L| ≥ theta_left` and `|R| ≥ theta_right` (post-filtered).
pub fn brute_force_large_mbps(
    g: &BipartiteGraph,
    k: usize,
    theta_left: usize,
    theta_right: usize,
) -> Vec<Biplex> {
    brute_force_mbps(g, k)
        .into_iter()
        .filter(|b| b.left.len() >= theta_left && b.right.len() >= theta_right)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biplex::is_maximal_k_biplex;

    fn small_graph() -> BipartiteGraph {
        BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2)]).unwrap()
    }

    #[test]
    fn results_are_maximal_k_biplexes() {
        let g = small_graph();
        let pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 0)];
        for kp in pairs.map(|(kl, kr)| KPair::new(kl, kr)) {
            let all = brute_force_mbps(&g, kp);
            assert!(!all.is_empty());
            for b in &all {
                assert!(is_maximal_k_biplex(&g, &b.left, &b.right, kp), "{kp:?} {b:?}");
            }
        }
    }

    #[test]
    fn k0_contains_the_obvious_bicliques() {
        let g = small_graph();
        let all = brute_force_mbps(&g, 0);
        // {0,1} x {0,1} is a maximal biclique.
        assert!(all.contains(&Biplex::new(vec![0, 1], vec![0, 1])));
        // {1,2} x {2} is a maximal biclique.
        assert!(all.contains(&Biplex::new(vec![1, 2], vec![2])));
    }

    #[test]
    fn larger_k_allows_larger_solutions() {
        let g = small_graph();
        let k0_max = brute_force_mbps(&g, 0).iter().map(Biplex::num_vertices).max().unwrap();
        let k2_max = brute_force_mbps(&g, 2).iter().map(Biplex::num_vertices).max().unwrap();
        assert!(k2_max >= k0_max);
    }

    #[test]
    fn large_filter() {
        let g = small_graph();
        let large = brute_force_large_mbps(&g, 1, 2, 2);
        for b in &large {
            assert!(b.left.len() >= 2 && b.right.len() >= 2);
        }
        let all = brute_force_mbps(&g, 1);
        let expected = all.iter().filter(|b| b.left.len() >= 2 && b.right.len() >= 2).count();
        assert_eq!(large.len(), expected);
    }

    #[test]
    fn empty_graph_has_the_empty_solution() {
        let g = BipartiteGraph::from_edges(0, 0, &[]).unwrap();
        let all = brute_force_mbps(&g, 1);
        assert_eq!(all.len(), 1);
        assert!(all[0].is_empty());
    }
}
