//! Property-based tests (proptest) over the extension modules: per-side
//! budgets, the parallel engine and the extra on-disk formats.

use mbpe::bigraph::formats::{
    read_adjacency, read_konect, sniff_format, write_adjacency, write_konect, Format,
};
use mbpe::bigraph::io::{read_edge_list, write_edge_list};
use mbpe::prelude::*;
use proptest::prelude::*;

/// Canonically sorted sequential enumeration through the facade.
fn enumerate_all(g: &BipartiteGraph, k: usize) -> Vec<Biplex> {
    Enumerator::new(g).k(k).collect().expect("valid facade configuration")
}

/// Canonically sorted bTraversal under per-side budgets.
fn collect_asym_mbps(g: &BipartiteGraph, kp: KPair) -> Vec<Biplex> {
    Enumerator::new(g)
        .algorithm(Algorithm::BTraversal)
        .k_pair(kp)
        .collect()
        .expect("valid facade configuration")
}

/// Strategy: a small random bipartite graph given as (nl, nr, edge bitmap).
fn graph_strategy() -> impl Strategy<Value = BipartiteGraph> {
    (2u32..7, 2u32..7)
        .prop_flat_map(|(nl, nr)| {
            let m = (nl * nr) as usize;
            (Just(nl), Just(nr), proptest::collection::vec(any::<bool>(), m))
        })
        .prop_map(|(nl, nr, bits)| {
            let mut edges = Vec::new();
            for v in 0..nl {
                for u in 0..nr {
                    if bits[(v * nr + u) as usize] {
                        edges.push((v, u));
                    }
                }
            }
            BipartiteGraph::from_edges(nl, nr, &edges).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The parallel enumeration returns exactly the sequential solution set
    /// regardless of the thread count.
    #[test]
    fn parallel_set_equals_sequential(g in graph_strategy(), k in 0usize..3, threads in 1usize..5) {
        let sequential = enumerate_all(&g, k);
        let parallel = Enumerator::new(&g)
            .k(k)
            .engine(Engine::WorkSteal)
            .threads(threads)
            .collect()
            .expect("valid facade configuration");
        prop_assert_eq!(parallel, sequential);
    }

    /// Pair enumeration is sound (every output is a maximal
    /// (k_L, k_R)-biplex) and reduces to the symmetric algorithm when the
    /// budgets coincide.
    #[test]
    fn asymmetric_is_sound_and_generalises(g in graph_strategy(), kl in 0usize..3, kr in 0usize..3) {
        let kp = KPair::new(kl, kr);
        let solutions = collect_asym_mbps(&g, kp);
        for b in &solutions {
            prop_assert!(is_maximal_k_biplex(&g, &b.left, &b.right, kp));
            prop_assert!(is_k_biplex(&g, &b.left, &b.right, kp));
        }
        // No duplicates.
        let mut dedup = solutions.clone();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), solutions.len());
        if kl == kr {
            prop_assert_eq!(solutions, enumerate_all(&g, kl));
        }
    }

    /// Swapping the budgets and transposing the graph commute.
    #[test]
    fn asymmetric_transpose_symmetry(g in graph_strategy(), kl in 0usize..2, kr in 0usize..2) {
        let kp = KPair::new(kl, kr);
        let direct = collect_asym_mbps(&g, kp);
        let mut flipped: Vec<Biplex> = collect_asym_mbps(&g.transpose(), kp.transpose())
            .into_iter()
            .map(Biplex::transpose)
            .collect();
        flipped.sort();
        prop_assert_eq!(direct, flipped);
    }

    /// Every writer/reader pair is a lossless roundtrip for every graph, and
    /// the sniffer classifies each serialisation correctly.
    #[test]
    fn format_roundtrips_are_lossless(g in graph_strategy()) {
        // Edge list.
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        prop_assert_eq!(sniff_format(std::str::from_utf8(&buf).unwrap()), Format::EdgeList);
        let back = read_edge_list(&buf[..]).unwrap();
        prop_assert_eq!(collect_edges(&back), collect_edges(&g));
        prop_assert_eq!((back.num_left(), back.num_right()), (g.num_left(), g.num_right()));

        // KONECT (sizes are inferred, so only compare when no trailing
        // vertex is isolated — otherwise the inferred side may be smaller).
        let mut buf = Vec::new();
        write_konect(&g, &mut buf).unwrap();
        prop_assert_eq!(sniff_format(std::str::from_utf8(&buf).unwrap()), Format::Konect);
        let back = read_konect(&buf[..]).unwrap();
        prop_assert_eq!(collect_edges(&back), collect_edges(&g));

        // Adjacency.
        let mut buf = Vec::new();
        write_adjacency(&g, &mut buf).unwrap();
        prop_assert_eq!(sniff_format(std::str::from_utf8(&buf).unwrap()), Format::Adjacency);
        let back = read_adjacency(&buf[..]).unwrap();
        prop_assert_eq!(collect_edges(&back), collect_edges(&g));
        prop_assert_eq!((back.num_left(), back.num_right()), (g.num_left(), g.num_right()));
    }

    /// Large-MBP thresholds in the parallel engine equal post-filtering.
    #[test]
    fn parallel_thresholds_equal_post_filter(g in graph_strategy(), tl in 0usize..4, tr in 0usize..4) {
        let k = 1;
        let mut expected: Vec<Biplex> = enumerate_all(&g, k)
            .into_iter()
            .filter(|b| b.left.len() >= tl && b.right.len() >= tr)
            .collect();
        expected.sort();
        let got = Enumerator::new(&g)
            .k(k)
            .engine(Engine::WorkSteal)
            .threads(2)
            .thresholds(tl, tr)
            .collect()
            .expect("valid facade configuration");
        prop_assert_eq!(got, expected);
    }
}

fn collect_edges(g: &BipartiteGraph) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    edges.sort_unstable();
    edges
}
