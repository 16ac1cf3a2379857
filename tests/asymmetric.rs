//! Cross-crate integration tests for per-side budgets `(k_L, k_R)`, which
//! bTraversal runs through the same traversal and `iThreeStep` as every
//! other algorithm.

use std::time::Instant;

use mbpe::bigraph::gen::er::er_bipartite;
use mbpe::cohesive::{collect_maximal_bicliques, BicliqueConfig};
use mbpe::kbiplex::bruteforce::brute_force_mbps;
use mbpe::prelude::*;

/// bTraversal under the budgets `kp`.
fn pair_run(g: &BipartiteGraph, kp: KPair) -> Enumerator<'_> {
    Enumerator::new(g).algorithm(Algorithm::BTraversal).k_pair(kp)
}

/// Canonically sorted pair enumeration through the facade.
fn collect_asym_mbps(g: &BipartiteGraph, kp: KPair) -> Vec<Biplex> {
    pair_run(g, kp).collect().expect("valid facade configuration")
}

#[test]
fn asymmetric_enumeration_matches_brute_force_on_random_graphs() {
    for seed in 0..8u64 {
        let g = er_bipartite(5, 5, 12 + seed % 5, seed);
        for (kl, kr) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            let kp = KPair::new(kl, kr);
            let expected = brute_force_mbps(&g, kp);
            for order in [VertexOrder::Input, VertexOrder::Degree, VertexOrder::Degeneracy] {
                for anchor in [Anchor::Left, Anchor::Right] {
                    for emit in [EmitMode::Immediate, EmitMode::Alternating] {
                        let e = pair_run(&g, kp).order(order).anchor(anchor).emit(emit);
                        let got = e.collect().expect("valid facade configuration");
                        assert_eq!(
                            got, expected,
                            "seed {seed} budgets ({kl},{kr}) {order} {anchor} {emit}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn symmetric_budgets_reduce_to_the_paper_algorithm() {
    for seed in 0..5u64 {
        let g = er_bipartite(8, 8, 30, 100 + seed);
        for k in 0..=2usize {
            assert_eq!(
                collect_asym_mbps(&g, KPair::symmetric(k)),
                Enumerator::new(&g).k(k).collect().expect("valid facade configuration"),
                "seed {seed} k {k}"
            );
        }
    }
}

#[test]
fn zero_budgets_agree_with_the_maximal_biclique_enumerator() {
    // (0,0)-biplexes are exactly bicliques, so the pair enumeration with
    // zero budgets must agree with the dedicated biclique enumerator, modulo
    // the degenerate single-sided solutions that bicliques exclude.
    for seed in 0..5u64 {
        let g = er_bipartite(7, 7, 22, seed);
        let asym: Vec<Biplex> = collect_asym_mbps(&g, KPair::new(0, 0))
            .into_iter()
            .filter(|b| !b.left.is_empty() && !b.right.is_empty())
            .collect();
        let mut bicliques =
            collect_maximal_bicliques(&g, &BicliqueConfig::default().with_min_sizes(1, 1));
        bicliques.sort();
        // Every non-degenerate pair solution is a maximal biclique.
        for b in &asym {
            assert!(
                bicliques.binary_search(b).is_ok(),
                "seed {seed}: {:?} missing from biclique enumeration",
                b
            );
        }
    }
}

#[test]
fn budgets_are_monotone_in_solution_coverage() {
    // Raising either budget can only allow *larger* subgraphs: every maximal
    // (k_L, k_R)-biplex is contained in some maximal (k_L', k_R')-biplex when
    // k_L' >= k_L and k_R' >= k_R.
    let g = er_bipartite(10, 10, 45, 17);
    let small = collect_asym_mbps(&g, KPair::new(1, 0));
    let large = collect_asym_mbps(&g, KPair::new(2, 1));
    for b in &small {
        assert!(
            large.iter().any(|big| b.is_subgraph_of(big)),
            "{b:?} is not covered by any larger-budget solution"
        );
    }
}

#[test]
fn every_solution_is_maximal_for_its_budgets() {
    let g = er_bipartite(12, 9, 50, 23);
    for (kl, kr) in [(1, 2), (2, 1), (3, 0)] {
        let kp = KPair::new(kl, kr);
        let solutions = collect_asym_mbps(&g, kp);
        assert!(!solutions.is_empty());
        for b in &solutions {
            assert!(is_maximal_k_biplex(&g, &b.left, &b.right, kp), "budgets ({kl},{kr})");
        }
    }
}

/// A stop request reaches a pair run within one expansion, also after the
/// last new solution, where the search finds only duplicates: the
/// traversal polls the cancel flag and the deadline at every DFS step and
/// between local solutions, not only at deliveries. The stream is
/// cancelled right after its last solution; winding down must take a small
/// fraction of the full run, not the rest of the search.
#[test]
fn a_pair_run_stops_within_one_expansion_after_its_last_solution() {
    let g = er_bipartite(14, 14, 80, 5);
    let e = pair_run(&g, KPair::new(1, 2));
    let started = Instant::now();
    let total = e.collect().expect("valid facade configuration").len();
    let full_run = started.elapsed();

    let mut stream = e.stream().expect("valid facade configuration");
    for i in 0..total {
        assert!(stream.next().is_some(), "solution {i} of {total} never arrived");
    }
    let cancelled = Instant::now();
    let report = stream.finish();
    let wind_down = cancelled.elapsed();
    assert_eq!(report.solutions, total as u64);
    assert!(
        wind_down < full_run / 10,
        "the run took {wind_down:?} to stop after its last solution (full run {full_run:?}, \
         {total} solutions, stop {})",
        report.stop
    );
}
