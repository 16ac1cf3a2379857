//! Cross-crate integration tests: the parallel enumeration must agree with
//! the sequential frameworks and the baselines on every input we can afford
//! to cross-check exhaustively.

use mbpe::baselines::{collect_imb, ImbConfig};
use mbpe::bigraph::gen::chung_lu::chung_lu_bipartite;
use mbpe::bigraph::gen::er::er_bipartite;
use mbpe::bigraph::gen::planted::planted_biplexes;
use mbpe::bigraph::order::VertexOrder;
use mbpe::kbiplex::ParallelStats;
use mbpe::prelude::*;

/// Canonically sorted sequential baseline.
fn enumerate_all(g: &BipartiteGraph, k: usize) -> Vec<Biplex> {
    Enumerator::new(g).k(k).collect().expect("valid facade configuration")
}

/// Runs a parallel facade configuration, returning the canonically sorted
/// solutions and the engine statistics.
fn par_run(e: &Enumerator<'_>) -> (Vec<Biplex>, ParallelStats) {
    let mut sink = CollectSink::new();
    let report = e.run(&mut sink).expect("valid facade configuration");
    let EngineStats::Parallel(stats) = report.stats else {
        panic!("parallel engines report parallel stats");
    };
    (sink.into_sorted(), stats)
}

/// Property: for every random Chung–Lu graph, every miss budget, every
/// thread count, both exclusion policies and every relabeling pass, the
/// parallel engine must return the *exact* canonical solution set of the
/// sequential `iTraversal`. This is the scheduler-correctness contract: the
/// work-stealing engine only reorders expansions, and the seen-set
/// de-duplication makes the result a function of the graph alone.
#[test]
fn work_stealing_engine_matches_sequential_on_chung_lu_graphs() {
    for seed in 0..4u64 {
        // Skewed power-law degrees stress the dedup (hubs participate in
        // many overlapping MBPs) far more than uniform noise.
        let nl = 10 + (seed % 3) as u32;
        let nr = 9 + (seed % 2) as u32;
        let edges = 3 * (nl as u64 + nr as u64) / 2;
        let g = chung_lu_bipartite(nl, nr, edges, 2.2, seed);
        for k in 1..=2usize {
            let sequential = enumerate_all(&g, k);
            for threads in [1usize, 2, 4, 8] {
                for algorithm in [Algorithm::ITraversal, Algorithm::ITraversalNoExclusion] {
                    let (got, stats) = par_run(
                        &Enumerator::new(&g)
                            .k(k)
                            .algorithm(algorithm)
                            .engine(Engine::WorkSteal)
                            .threads(threads),
                    );
                    assert_eq!(got, sequential, "seed {seed} k {k} threads {threads} {algorithm}");
                    assert_eq!(stats.solutions as usize, sequential.len());
                }
            }
            // The relabeling passes compose with the default engine.
            for order in [VertexOrder::Degree, VertexOrder::Degeneracy] {
                let (got, _) = par_run(
                    &Enumerator::new(&g).k(k).engine(Engine::WorkSteal).threads(4).order(order),
                );
                assert_eq!(got, sequential, "seed {seed} k {k} order {order}");
            }
        }
    }
}

/// Full cross of orders and thread counts on one dedup-heavy graph: the
/// work-stealer agrees with the sequential engine under every relabeling
/// pass and thread count, with and without the host-local exclusion slice.
#[test]
fn work_steal_composes_with_orders_and_thread_counts() {
    let g = chung_lu_bipartite(11, 10, 33, 2.2, 42);
    let k = 1;
    let sequential = enumerate_all(&g, k);
    for order in [VertexOrder::Input, VertexOrder::Degree, VertexOrder::Degeneracy] {
        for threads in [2usize, 4] {
            for algorithm in [Algorithm::ITraversal, Algorithm::ITraversalNoExclusion] {
                let (got, _) = par_run(
                    &Enumerator::new(&g)
                        .k(k)
                        .algorithm(algorithm)
                        .engine(Engine::WorkSteal)
                        .threads(threads)
                        .order(order),
                );
                assert_eq!(got, sequential, "{algorithm} {order} threads {threads}");
            }
        }
    }
}

#[test]
fn parallel_matches_sequential_and_imb_on_er_graphs() {
    for seed in 0..5u64 {
        let g = er_bipartite(10, 9, 32 + seed * 3, seed);
        for k in 1..=2usize {
            let sequential = enumerate_all(&g, k);
            let (parallel, _) =
                par_run(&Enumerator::new(&g).k(k).engine(Engine::WorkSteal).threads(4));
            assert_eq!(parallel, sequential, "seed {seed} k {k} (parallel vs sequential)");

            // iMB has exponential delay; keep its cross-check to k = 1.
            if k == 1 {
                let mut imb = collect_imb(&g, &ImbConfig::new(k));
                imb.sort();
                assert_eq!(imb, sequential, "seed {seed} k {k} (iMB vs sequential)");
            }
        }
    }
}

#[test]
fn parallel_matches_sequential_on_planted_dense_blocks() {
    // Planted quasi-biclique blocks produce many overlapping MBPs — a harder
    // dedup workload for the concurrent seen-set than uniform noise.
    let g = planted_biplexes(20, 20, 25, 2, 5, 5, 1, 99).graph;
    let k = 1;
    let sequential = enumerate_all(&g, k);
    for threads in [1, 3, 8] {
        let (parallel, _) =
            par_run(&Enumerator::new(&g).k(k).engine(Engine::WorkSteal).threads(threads));
        assert_eq!(parallel, sequential, "threads {threads}");
    }
}

#[test]
fn parallel_thresholds_agree_with_sequential_large_mbp_enumeration() {
    let g = er_bipartite(20, 20, 120, 7);
    let k = 1;
    let (theta_l, theta_r) = (3, 3);

    let mut expected: Vec<Biplex> = enumerate_all(&g, k)
        .into_iter()
        .filter(|b| b.left.len() >= theta_l && b.right.len() >= theta_r)
        .collect();
    expected.sort();

    let (got, stats) = par_run(
        &Enumerator::new(&g).k(k).engine(Engine::WorkSteal).threads(4).thresholds(theta_l, theta_r),
    );
    assert_eq!(got, expected);
    assert_eq!(stats.reported as usize, expected.len());
}

#[test]
fn parallel_solutions_are_maximal_and_distinct() {
    let g = er_bipartite(25, 25, 140, 3);
    let k = 1;
    // `threads` left at 0: the engine sizes the pool from the machine.
    let (solutions, stats) = par_run(&Enumerator::new(&g).k(k).engine(Engine::WorkSteal));
    assert_eq!(stats.solutions as usize, solutions.len());
    let mut sorted = solutions.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), solutions.len(), "no duplicates may be reported");
    for b in &solutions {
        assert!(is_maximal_k_biplex(&g, &b.left, &b.right, k));
    }
}
