//! Equivalence battery for the extension step (`kbiplex::extend`): the
//! counting filters against a brute filter, and `extend_to_maximal` in both
//! modes against a reference that shares no code with the filters' tally.

use mbpe::kbiplex::biplex::PartialBiplex;
use mbpe::kbiplex::extend::{
    extend_to_maximal, left_extension_candidates, right_extension_candidates, ExtendMode,
};
use mbpe::prelude::*;
use proptest::prelude::*;

/// Largest side of a generated graph.
const MAX_SIDE: u32 = 12;

/// A random graph of 1..=12 × 1..=12 vertices. Each pair is an edge with
/// probability `density / 4`, `density` drawn per graph from 0..=4, so
/// empty, sparse, dense and complete graphs all occur.
fn graph_strategy() -> impl Strategy<Value = BipartiteGraph> {
    (1u32..MAX_SIDE + 1, 1u32..MAX_SIDE + 1, 0u32..5)
        .prop_flat_map(|(nl, nr, density)| {
            (Just(nl), Just(nr), Just(density), collection::vec(0u32..4, (nl * nr) as usize))
        })
        .prop_map(|(nl, nr, density, draws)| {
            let mut edges = Vec::new();
            for v in 0..nl {
                for u in 0..nr {
                    if draws[(v * nr + u) as usize] < density {
                        edges.push((v, u));
                    }
                }
            }
            BipartiteGraph::from_edges(nl, nr, &edges).unwrap()
        })
}

/// A random subset of `0..n`, given as one membership bit per possible id.
fn subset(bits: &[bool], n: u32) -> Vec<u32> {
    (0..n).filter(|&x| bits[x as usize]).collect()
}

/// Brute filter: every id of a side of `n` vertices with at least
/// `|set| − k` neighbours in `set`, with that neighbour count, by edge
/// lookups.
fn brute_candidates(
    n: u32,
    set: &[u32],
    k: usize,
    adjacent: impl Fn(u32, u32) -> bool,
) -> Vec<(u32, u32)> {
    (0..n)
        .map(|x| (x, set.iter().filter(|&&y| adjacent(x, y)).count() as u32))
        .filter(|&(_, hits)| hits as usize + k >= set.len())
        .collect()
}

/// A random k-biplex: the drawn `(side, id)` additions in draw order, each
/// kept only if the result is still a k-biplex by the definition
/// ([`is_k_biplex`]).
fn random_k_biplex(g: &BipartiteGraph, k: usize, draws: &[(bool, u32)]) -> (Vec<u32>, Vec<u32>) {
    let (mut left, mut right) = (Vec::new(), Vec::new());
    for &(is_left, id) in draws {
        let (side, n) = if is_left { (&left, g.num_left()) } else { (&right, g.num_right()) };
        if id >= n || side.contains(&id) {
            continue;
        }
        let (mut l, mut r) = (left.clone(), right.clone());
        let grown = if is_left { &mut l } else { &mut r };
        grown.push(id);
        grown.sort_unstable();
        if is_k_biplex(g, &l, &r, k) {
            (left, right) = (l, r);
        }
    }
    (left, right)
}

/// The preset-order extension without the filters: scan the left side in
/// ascending id order, then (for `BothSides`) the right side, and add every
/// vertex `can_add_*` admits.
fn reference_extension(
    g: &BipartiteGraph,
    left: &[u32],
    right: &[u32],
    k: usize,
    mode: ExtendMode,
) -> PartialBiplex {
    let mut p = PartialBiplex::from_sets(g, left, right);
    for v in 0..g.num_left() {
        if !p.contains_left(v) && p.can_add_left(g, v, k) {
            p.add_left(g, v);
        }
    }
    if mode == ExtendMode::BothSides {
        for u in 0..g.num_right() {
            if !p.contains_right(u) && p.can_add_right(g, u, k) {
                p.add_right(g, u);
            }
        }
    }
    p
}

/// Every cached miss count of `p` equals a fresh recount.
fn miss_counts_are_exact(g: &BipartiteGraph, p: &PartialBiplex) -> bool {
    let fresh = PartialBiplex::from_sets(g, p.left(), p.right());
    (0..p.left().len()).all(|i| p.left_miss(i) == fresh.left_miss(i))
        && (0..p.right().len()).all(|i| p.right_miss(i) == fresh.right_miss(i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both counting filters return exactly the brute filter's ids, each
    /// with its exact hit count.
    #[test]
    fn filters_match_the_brute_filter(
        g in graph_strategy(),
        k in 0usize..4,
        left_bits in collection::vec(any::<bool>(), MAX_SIDE as usize),
        right_bits in collection::vec(any::<bool>(), MAX_SIDE as usize),
    ) {
        let right = subset(&right_bits, g.num_right());
        prop_assert_eq!(
            left_extension_candidates(&g, &right, k),
            brute_candidates(g.num_left(), &right, k, |v, u| g.has_edge(v, u)),
            "left filter, R = {:?}, k = {}", right, k
        );
        let left = subset(&left_bits, g.num_left());
        prop_assert_eq!(
            right_extension_candidates(&g, &left, k),
            brute_candidates(g.num_right(), &left, k, |u, v| g.has_edge(v, u)),
            "right filter, L = {:?}, k = {}", left, k
        );
    }

    /// From a random k-biplex, the extension equals the reference in both
    /// modes and leaves exact miss counts; `can_add_*` on the partial agrees
    /// with the k-biplex definition.
    #[test]
    fn extension_matches_the_preset_order_reference(
        g in graph_strategy(),
        k in 0usize..4,
        draws in collection::vec((any::<bool>(), 0u32..MAX_SIDE), 0..24),
    ) {
        let (left, right) = random_k_biplex(&g, k, &draws);
        let partial = PartialBiplex::from_sets(&g, &left, &right);
        for v in (0..g.num_left()).filter(|v| !left.contains(v)) {
            let mut grown = left.clone();
            grown.push(v);
            grown.sort_unstable();
            prop_assert_eq!(partial.can_add_left(&g, v, k), is_k_biplex(&g, &grown, &right, k));
        }
        for u in (0..g.num_right()).filter(|u| !right.contains(u)) {
            let mut grown = right.clone();
            grown.push(u);
            grown.sort_unstable();
            prop_assert_eq!(partial.can_add_right(&g, u, k), is_k_biplex(&g, &left, &grown, k));
        }
        for mode in [ExtendMode::LeftOnly, ExtendMode::BothSides] {
            let mut p = partial.clone();
            extend_to_maximal(&g, &mut p, k, mode);
            let expected = reference_extension(&g, &left, &right, k, mode);
            prop_assert_eq!(
                (p.left(), p.right()),
                (expected.left(), expected.right()),
                "{:?} from ({:?}, {:?}), k = {}", mode, left, right, k
            );
            prop_assert!(miss_counts_are_exact(&g, &p), "{:?}: stale miss counts", mode);
            if mode == ExtendMode::BothSides {
                prop_assert!(is_maximal_k_biplex(&g, p.left(), p.right(), k));
            }
        }
    }
}
