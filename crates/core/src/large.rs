//! Unit tests of large maximal k-biplex enumeration (Section 5).
//!
//! The pipeline has no module of its own: [`crate::api`] prepares the graph
//! (the (θ_R − k, θ_L − k)-core reduction, the relabeling, the right-anchor
//! transpose) and the traversal applies the size prunings. These tests run
//! [`Algorithm::Large`](crate::api::Algorithm::Large) through the facade on
//! both engines and check it against the brute-force oracle.

#[cfg(test)]
mod tests {
    use crate::api::{Algorithm, Engine, Enumerator, ReducedGraph};
    use crate::bruteforce::brute_force_large_mbps;
    use crate::sink::{CollectSink, CountingSink};
    use crate::traversal::Anchor;
    use bigraph::BipartiteGraph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(nl: u32, nr: u32, p: f64, seed: u64) -> BipartiteGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for v in 0..nl {
            for u in 0..nr {
                if rng.gen_bool(p) {
                    edges.push((v, u));
                }
            }
        }
        BipartiteGraph::from_edges(nl, nr, &edges).unwrap()
    }

    fn large(
        g: &BipartiteGraph,
        k: usize,
        theta_left: usize,
        theta_right: usize,
    ) -> Enumerator<'_> {
        Enumerator::new(g).k(k).algorithm(Algorithm::Large).thresholds(theta_left, theta_right)
    }

    fn expected(
        g: &BipartiteGraph,
        k: usize,
        theta_left: usize,
        theta_right: usize,
    ) -> Vec<crate::biplex::Biplex> {
        let mut e = brute_force_large_mbps(g, k, theta_left, theta_right);
        e.sort();
        e
    }

    #[test]
    fn matches_brute_force_with_and_without_core_reduction() {
        for seed in 0..12u64 {
            let g = random_graph(6, 6, 0.6, seed);
            for k in 1..=2usize {
                for theta in 2..=3usize {
                    let got = large(&g, k, theta, theta).collect().unwrap();
                    assert_eq!(got, expected(&g, k, theta, theta), "seed {seed} k {k} θ {theta}");
                }
            }
        }
    }

    #[test]
    fn parallel_large_mbps_match_sequential() {
        for seed in 0..6u64 {
            let g = random_graph(7, 7, 0.55, seed);
            let k = 1;
            for theta in 2..=3usize {
                let e = large(&g, k, theta, theta);
                let expected = e.collect().unwrap();
                let mut sink = CollectSink::new();
                let report = e.engine(Engine::WorkSteal).threads(3).run(&mut sink).unwrap();
                let got = sink.into_sorted();
                assert_eq!(got, expected, "seed {seed} θ {theta}");
                assert_eq!(report.solutions as usize, got.len());
                let reduced = report.reduced.expect("large runs report the reduction");
                assert!(reduced.left <= g.num_left());
            }
        }
    }

    #[test]
    fn asymmetric_thresholds() {
        for seed in 20..26u64 {
            let g = random_graph(6, 5, 0.6, seed);
            let k = 1;
            let got = large(&g, k, 3, 2).collect().unwrap();
            assert_eq!(got, expected(&g, k, 3, 2), "seed {seed}");
        }
    }

    #[test]
    fn core_reduction_shrinks_the_graph() {
        // A sparse graph loses vertices and edges to the (θ−k)-core, which
        // is reported in the input's orientation also under the right
        // anchor; thresholds of at most k keep the whole graph.
        let g = random_graph(40, 30, 0.08, 3);
        let reduced = |e: Enumerator<'_>| e.run(&mut CountingSink::new()).unwrap().reduced;
        let core = reduced(large(&g, 1, 4, 3)).expect("large runs report the reduction");
        assert!(core.left < g.num_left() && core.right <= g.num_right());
        assert!(core.edges < g.num_edges());
        assert_eq!(reduced(large(&g, 1, 4, 3).anchor(Anchor::Right)), Some(core));
        let whole = ReducedGraph { left: 40, right: 30, edges: g.num_edges() };
        assert_eq!(reduced(large(&g, 1, 1, 1)), Some(whole));
    }

    #[test]
    fn high_threshold_returns_nothing() {
        let g = random_graph(6, 6, 0.3, 9);
        assert_eq!(large(&g, 1, 6, 6).collect().unwrap(), expected(&g, 1, 6, 6));
        // Thresholds above the side sizes leave nothing to report.
        for engine in [Engine::Sequential, Engine::WorkSteal] {
            let got = large(&g, 1, 7, 7).engine(engine).collect().unwrap();
            assert!(got.is_empty(), "{engine}");
        }
    }
}
