//! Large maximal k-biplex enumeration (Section 5).
//!
//! A *large MBP* has at least `θ_L` vertices on the left and `θ_R` on the
//! right. The pipeline combines
//!
//! 1. a (θ_R − k, θ_L − k)-core reduction of the input graph — every large
//!    MBP survives it because each of its left vertices keeps at least
//!    `θ_R − k` neighbours and each right vertex at least `θ_L − k`;
//! 2. the `iTraversal` size prunings inside the engine (almost-satisfying
//!    graph pruning, local-solution pruning, solution pruning and the
//!    exclusion-based left-side pruning), enabled through
//!    [`TraversalConfig::with_thresholds`].
//!
//! Solutions are translated back to the original vertex ids before being
//! reported.

use bigraph::core_decomp::alpha_beta_core_subgraph;
use bigraph::BipartiteGraph;

use crate::biplex::Biplex;
use crate::parallel::{par_run, ParRuntime};
use crate::sink::SolutionSink;
use crate::stats::TraversalStats;
use crate::traversal::{traverse, TraversalConfig};

/// Parameters of a large-MBP enumeration.
#[derive(Clone, Copy, Debug)]
pub struct LargeMbpParams {
    /// The k of the k-biplex definition.
    pub k: usize,
    /// Minimum left-side size θ_L.
    pub theta_left: usize,
    /// Minimum right-side size θ_R.
    pub theta_right: usize,
    /// Whether to run the (θ−k)-core reduction before enumerating.
    pub core_reduction: bool,
}

impl LargeMbpParams {
    /// Both sides at least `theta` (the setting used in the paper's
    /// Figure 10 experiments).
    pub fn symmetric(k: usize, theta: usize) -> Self {
        LargeMbpParams { k, theta_left: theta, theta_right: theta, core_reduction: true }
    }
}

/// Result of a large-MBP run: statistics of the traversal plus the size of
/// the reduced graph actually enumerated.
#[derive(Clone, Debug, Default)]
pub struct LargeMbpReport {
    /// Traversal statistics (on the reduced graph).
    pub stats: TraversalStats,
    /// Vertices of the reduced graph (left, right).
    pub reduced_size: (u32, u32),
    /// Edges of the reduced graph.
    pub reduced_edges: u64,
}

/// The large-MBP pipeline behind the [`crate::api::Enumerator`] facade:
/// (θ−k)-core reduction, size-pruned traversal, translation back to
/// original ids.
pub(crate) fn run_large<S: SolutionSink + ?Sized>(
    g: &BipartiteGraph,
    params: &LargeMbpParams,
    base_config: &TraversalConfig,
    sink: &mut S,
) -> LargeMbpReport {
    let mut config = base_config.clone();
    config.k = params.k;
    config.theta_left = params.theta_left;
    config.theta_right = params.theta_right;

    if !params.core_reduction {
        let stats = traverse(g, &config, sink);
        return LargeMbpReport {
            stats,
            reduced_size: (g.num_left(), g.num_right()),
            reduced_edges: g.num_edges(),
        };
    }

    // (θ_R − k)-core on the left degrees, (θ_L − k)-core on the right
    // degrees: each left vertex of a large MBP has ≥ θ_R − k neighbours and
    // vice versa.
    let alpha = params.theta_right.saturating_sub(params.k);
    let beta = params.theta_left.saturating_sub(params.k);
    let reduced = alpha_beta_core_subgraph(g, alpha, beta);

    let mut mapping_sink = |b: &Biplex| {
        let (left, right) = reduced.original_pair(&b.left, &b.right);
        sink.on_solution(&Biplex::new(left, right))
    };
    let stats = traverse(&reduced.graph, &config, &mut mapping_sink);
    LargeMbpReport {
        stats,
        reduced_size: (reduced.graph.num_left(), reduced.graph.num_right()),
        reduced_edges: reduced.graph.num_edges(),
    }
}

/// Report of a parallel large-MBP run.
#[derive(Debug)]
pub struct ParLargeMbpReport {
    /// Parallel run statistics (on the reduced graph).
    pub stats: crate::parallel::ParallelStats,
    /// Vertices of the reduced graph (left, right).
    pub reduced_size: (u32, u32),
    /// Edges of the reduced graph.
    pub reduced_edges: u64,
}

/// The parallel large-MBP pipeline behind the facade: the same (θ−k)-core
/// reduction, then the work-stealing engine (with the host-local exclusion
/// slice) and the size thresholds pushed into the search. In collect mode (no emit hook on `rt`) the large MBPs come
/// back in original ids, sorted canonically; in streaming mode they go
/// through the emit hook (already translated) and the vector is empty.
pub(crate) fn par_run_large(
    g: &BipartiteGraph,
    params: &LargeMbpParams,
    base_config: &crate::parallel::ParallelConfig,
    rt: &ParRuntime<'_>,
) -> (Vec<Biplex>, ParLargeMbpReport) {
    let mut config = base_config.clone();
    config.k = params.k;
    config.theta_left = params.theta_left;
    config.theta_right = params.theta_right;

    if !params.core_reduction {
        let (mut solutions, stats) = par_run(g, &config, true, rt);
        solutions.sort();
        let report = ParLargeMbpReport {
            stats,
            reduced_size: (g.num_left(), g.num_right()),
            reduced_edges: g.num_edges(),
        };
        return (solutions, report);
    }

    let alpha = params.theta_right.saturating_sub(params.k);
    let beta = params.theta_left.saturating_sub(params.k);
    let reduced = alpha_beta_core_subgraph(g, alpha, beta);

    let (mapped, stats) = if let Some(emit) = rt.emit {
        // Streaming delivery: translate ids on the way through the hook.
        let mapping_emit = |b: &Biplex| {
            let (left, right) = reduced.original_pair(&b.left, &b.right);
            emit(&Biplex::new(left, right))
        };
        let mapped_rt = ParRuntime { emit: Some(&mapping_emit), ..*rt };
        let (_, stats) = par_run(&reduced.graph, &config, true, &mapped_rt);
        (Vec::new(), stats)
    } else {
        let (solutions, stats) = par_run(&reduced.graph, &config, true, rt);
        let mut mapped: Vec<Biplex> = solutions
            .into_iter()
            .map(|b| {
                let (left, right) = reduced.original_pair(&b.left, &b.right);
                Biplex::new(left, right)
            })
            .collect();
        mapped.sort();
        (mapped, stats)
    };
    let report = ParLargeMbpReport {
        stats,
        reduced_size: (reduced.graph.num_left(), reduced.graph.num_right()),
        reduced_edges: reduced.graph.num_edges(),
    };
    (mapped, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::brute_force_large_mbps;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Non-deprecated stand-ins for the legacy collect wrappers.
    fn collect_large(
        g: &BipartiteGraph,
        params: &LargeMbpParams,
        base_config: &TraversalConfig,
    ) -> Vec<Biplex> {
        let mut sink = crate::sink::CollectSink::new();
        run_large(g, params, base_config, &mut sink);
        sink.into_sorted()
    }

    fn par_collect_large(
        g: &BipartiteGraph,
        params: &LargeMbpParams,
        base_config: &crate::parallel::ParallelConfig,
    ) -> (Vec<Biplex>, ParLargeMbpReport) {
        par_run_large(g, params, base_config, &ParRuntime::default())
    }

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

    #[test]
    fn matches_brute_force_with_and_without_core_reduction() {
        for seed in 0..12u64 {
            let g = random_graph(6, 6, 0.6, seed);
            for k in 1..=2usize {
                for theta in 2..=3usize {
                    let expected = {
                        let mut e = brute_force_large_mbps(&g, k, theta, theta);
                        e.sort();
                        e
                    };
                    for core in [true, false] {
                        let params = LargeMbpParams {
                            k,
                            theta_left: theta,
                            theta_right: theta,
                            core_reduction: core,
                        };
                        let got = collect_large(&g, &params, &TraversalConfig::itraversal(k));
                        assert_eq!(got, expected, "seed {seed} k {k} θ {theta} core {core}");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_large_mbps_match_sequential() {
        use crate::parallel::ParallelConfig;
        for seed in 0..6u64 {
            let g = random_graph(7, 7, 0.55, seed);
            let k = 1;
            for theta in 2..=3usize {
                for core in [true, false] {
                    let params = LargeMbpParams {
                        k,
                        theta_left: theta,
                        theta_right: theta,
                        core_reduction: core,
                    };
                    let expected = collect_large(&g, &params, &TraversalConfig::itraversal(k));
                    let (got, report) =
                        par_collect_large(&g, &params, &ParallelConfig::new(k).with_threads(3));
                    assert_eq!(got, expected, "seed {seed} θ {theta} core {core}");
                    assert_eq!(report.stats.reported as usize, got.len());
                    assert!(report.reduced_size.0 <= g.num_left());
                }
            }
        }
    }

    #[test]
    fn asymmetric_thresholds() {
        for seed in 20..26u64 {
            let g = random_graph(6, 5, 0.6, seed);
            let k = 1;
            let expected = {
                let mut e = brute_force_large_mbps(&g, k, 3, 2);
                e.sort();
                e
            };
            let params = LargeMbpParams { k, theta_left: 3, theta_right: 2, core_reduction: true };
            let got = collect_large(&g, &params, &TraversalConfig::itraversal(k));
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn core_reduction_shrinks_the_graph() {
        let g = random_graph(40, 40, 0.08, 3);
        let params = LargeMbpParams::symmetric(1, 4);
        let mut sink = crate::sink::CountingSink::new();
        let report = run_large(&g, &params, &TraversalConfig::itraversal(1), &mut sink);
        assert!(report.reduced_size.0 <= g.num_left());
        assert!(report.reduced_size.1 <= g.num_right());
        assert!(report.reduced_edges <= g.num_edges());
    }

    #[test]
    fn high_threshold_returns_nothing() {
        let g = random_graph(6, 6, 0.3, 9);
        let params = LargeMbpParams::symmetric(1, 6);
        let got = collect_large(&g, &params, &TraversalConfig::itraversal(1));
        let expected = brute_force_large_mbps(&g, 1, 6, 6);
        assert_eq!(got.len(), expected.len());
    }
}
