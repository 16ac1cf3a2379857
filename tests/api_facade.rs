//! Equivalence matrix for the `Enumerator` facade: across algorithm ×
//! anchor × engine × vertex order, every configuration must report the
//! *exact* canonical solution set of the brute-force oracle, and the
//! stopping rules (limit, cancellation) must be deterministic and sound.

use std::time::Duration;

use mbpe::bigraph::gen::chung_lu::chung_lu_bipartite;
use mbpe::kbiplex::bruteforce::{brute_force_large_mbps, brute_force_mbps};
use mbpe::prelude::*;

/// Canonically sorted facade output (the `collect` terminal).
fn facade(e: &Enumerator<'_>) -> Vec<Biplex> {
    e.collect().expect("valid facade configuration")
}

fn chung_lu(seed: u64) -> BipartiteGraph {
    let nl = 9 + (seed % 3) as u32;
    let nr = 8 + (seed % 2) as u32;
    let edges = 3 * (nl as u64 + nr as u64) / 2;
    chung_lu_bipartite(nl, nr, edges, 2.2, seed)
}

const ORDERS: [VertexOrder; 3] = [VertexOrder::Input, VertexOrder::Degree, VertexOrder::Degeneracy];

/// Every traversal algorithm from both anchors: the initial solution is the
/// algorithm's own rule, and the right anchor (Section 6.2) runs it on the
/// transpose.
#[test]
fn sequential_algorithms_match_the_oracle_across_orders() {
    for seed in 0..4u64 {
        let g = chung_lu(seed);
        for k in 1..=2usize {
            let expected = brute_force_mbps(&g, k);
            for algorithm in [
                Algorithm::ITraversal,
                Algorithm::ITraversalNoExclusion,
                Algorithm::LeftAnchoredOnly,
                Algorithm::BTraversal,
                Algorithm::Large,
            ] {
                for anchor in [Anchor::Left, Anchor::Right] {
                    for order in ORDERS {
                        let e = Enumerator::new(&g).k(k).algorithm(algorithm).anchor(anchor);
                        let got = facade(&e.order(order));
                        assert_eq!(got, expected, "seed {seed} k {k} {algorithm} {anchor} {order}");
                    }
                }
            }
        }
    }
}

#[test]
fn parallel_engines_match_the_sequential_path() {
    for seed in 0..3u64 {
        let g = chung_lu(seed);
        for k in 1..=2usize {
            let expected = facade(&Enumerator::new(&g).k(k));
            for order in ORDERS {
                let e = Enumerator::new(&g).k(k).engine(Engine::WorkSteal).threads(3).order(order);
                assert_eq!(facade(&e), expected, "seed {seed} k {k} {order}");
            }
        }
    }
}

/// The facade composes its three graph preparations — the (θ−k)-core
/// reduction, the relabeling and the right-anchor transpose — and maps
/// every solution back through all of them.
#[test]
fn large_pipeline_matches_the_filtered_full_enumeration_on_both_engines() {
    for seed in 0..3u64 {
        let g = chung_lu(seed + 10);
        let k = 1;
        for (tl, tr) in [(2, 2), (3, 2), (2, 3)] {
            let mut expected = brute_force_large_mbps(&g, k, tl, tr);
            expected.sort();
            for order in ORDERS {
                let large = || {
                    Enumerator::new(&g)
                        .k(k)
                        .algorithm(Algorithm::Large)
                        .thresholds(tl, tr)
                        .order(order)
                };
                let what = format!("seed {seed} θ=({tl},{tr}) {order}");
                for anchor in [Anchor::Left, Anchor::Right] {
                    let sequential = facade(&large().anchor(anchor));
                    assert_eq!(sequential, expected, "{what} {anchor}-anchored");
                }
                let parallel = facade(&large().engine(Engine::WorkSteal).threads(3));
                assert_eq!(parallel, expected, "{what} steal");
            }
        }
    }
}

#[test]
fn asym_and_brute_force_match_their_oracles() {
    for seed in 0..3u64 {
        let g = chung_lu(seed + 20);
        for (kl, kr) in [(1, 1), (1, 2), (2, 1)] {
            let kp = KPair::new(kl, kr);
            let expected = brute_force_mbps(&g, kp);
            let got = facade(&Enumerator::new(&g).algorithm(Algorithm::BTraversal).k_pair(kp));
            assert_eq!(got, expected, "seed {seed} k=({kl},{kr})");
        }
        for k in 1..=2usize {
            let expected = brute_force_mbps(&g, k);
            assert_eq!(facade(&Enumerator::new(&g).k(k)), expected, "seed {seed} k {k}");
        }
    }
}

#[test]
fn limit_n_returns_exactly_n_valid_mbps_deterministically() {
    let g = chung_lu(31);
    let k = 1;
    let total = facade(&Enumerator::new(&g).k(k)).len() as u64;
    assert!(total > 5, "fixture must have enough solutions, got {total}");
    for engine in [Engine::Sequential, Engine::WorkSteal] {
        for limit in [1u64, 3, 5] {
            // Repeat each run: the *count* must be deterministic even where
            // the parallel delivery order is not.
            for round in 0..3 {
                let mut sink = CollectSink::new();
                let mut e = Enumerator::new(&g).k(k).limit(limit);
                if engine != Engine::Sequential {
                    e = e.engine(engine).threads(4);
                }
                let report = e.run(&mut sink).expect("valid facade configuration");
                assert_eq!(
                    sink.solutions.len() as u64,
                    limit,
                    "{engine:?} limit {limit} round {round}"
                );
                assert_eq!(report.solutions, limit);
                assert_eq!(report.stop, StopReason::LimitReached);
                for b in &sink.solutions {
                    assert!(
                        is_maximal_k_biplex(&g, &b.left, &b.right, k),
                        "{engine:?} delivered a non-maximal solution"
                    );
                }
            }
        }
        // A limit beyond the solution count ends by exhaustion.
        let mut sink = CountingSink::new();
        let mut e = Enumerator::new(&g).k(k).limit(total + 100);
        if engine != Engine::Sequential {
            e = e.engine(engine).threads(4);
        }
        let report = e.run(&mut sink).expect("valid facade configuration");
        assert_eq!(report.stop, StopReason::Exhausted, "{engine:?}");
        assert_eq!(sink.count, total, "{engine:?}");
    }
}

#[test]
fn work_steal_cancellation_marks_the_run_stopped_early() {
    let g = chung_lu(33);
    let mut sink = CollectSink::new();
    let report = Enumerator::new(&g)
        .k(2)
        .engine(Engine::WorkSteal)
        .threads(4)
        .limit(2)
        .run(&mut sink)
        .expect("valid facade configuration");
    assert_eq!(report.stop, StopReason::LimitReached);
    let EngineStats::Parallel(stats) = &report.stats else {
        panic!("work-steal runs report parallel stats");
    };
    assert!(stats.stopped_early, "cooperative cancellation must reach the workers");
}

/// A sink that stops on its own ends a work-steal run with no limit within
/// one expansion: the workers see the cancellation the gate raises.
#[test]
fn a_stopping_sink_stops_the_work_stealer() {
    let g = chung_lu_bipartite(24, 24, 70, 2.2, 11);
    let mut delivered = 0u64;
    let mut sink = |_: &Biplex| {
        delivered += 1;
        if delivered == 3 {
            Control::Stop
        } else {
            Control::Continue
        }
    };
    let report = Enumerator::new(&g)
        .k(1)
        .engine(Engine::WorkSteal)
        .threads(2)
        .run(&mut sink)
        .expect("valid facade configuration");
    assert_eq!(delivered, 3);
    assert_eq!(report.solutions, 3);
    assert_eq!(report.stop, StopReason::SinkStopped);
    let EngineStats::Parallel(stats) = &report.stats else {
        panic!("work-steal runs report parallel stats");
    };
    assert!(stats.stopped_early);
    assert!(stats.solutions < 1451, "the workers ran on: {} discovered", stats.solutions);
}

#[test]
fn stream_collection_agrees_with_collect_byte_for_byte() {
    for seed in 0..3u64 {
        let g = chung_lu(seed + 40);
        let k = 1;
        let expected = facade(&Enumerator::new(&g).k(k));
        for engine in [Engine::Sequential, Engine::WorkSteal] {
            let mut e = Enumerator::new(&g).k(k);
            if engine != Engine::Sequential {
                e = e.engine(engine).threads(3);
            }
            let mut sink = CollectSink::new();
            for b in e.stream().expect("valid facade configuration") {
                sink.on_solution(&b);
            }
            // `into_sorted` dedups defensively, so stream collection and the
            // direct collect agree byte-for-byte.
            assert_eq!(sink.into_sorted(), expected, "seed {seed} {engine:?}");
        }
    }
}

#[test]
fn time_budget_stops_within_the_run() {
    let g = chung_lu(51);
    for engine in [Engine::Sequential, Engine::WorkSteal] {
        let mut e = Enumerator::new(&g).k(2).time_budget(Duration::ZERO);
        if engine != Engine::Sequential {
            e = e.engine(engine).threads(2);
        }
        let mut sink = CountingSink::new();
        let report = e.run(&mut sink).expect("valid facade configuration");
        assert_eq!(report.stop, StopReason::TimeBudget, "{engine:?}");
        assert_eq!(sink.count, 0, "{engine:?}");
        // A generous budget never fires.
        let mut e = Enumerator::new(&g).k(1).time_budget(Duration::from_secs(3600));
        if engine != Engine::Sequential {
            e = e.engine(engine).threads(2);
        }
        let report = e.run(&mut CountingSink::new()).expect("valid facade configuration");
        assert_eq!(report.stop, StopReason::Exhausted, "{engine:?}");
    }
}

#[test]
fn spec_round_trip_reproduces_the_run() {
    // An enumerator rebuilt from its own spec (directly or through the JSON
    // wire shape) is the same query.
    let g = chung_lu(60);
    for e in [
        Enumerator::new(&g).k(1),
        Enumerator::new(&g).k(2).engine(Engine::WorkSteal).threads(3).limit(7),
        Enumerator::new(&g).algorithm(Algorithm::BTraversal).k_pair(KPair::new(1, 2)),
        Enumerator::new(&g).k(1).algorithm(Algorithm::Large).thresholds(2, 2),
    ] {
        let spec = e.to_spec();
        let direct = facade(&e);
        assert_eq!(facade(&Enumerator::from_spec(&g, &spec)), direct);
        let wire = QuerySpec::from_json_str(&spec.to_json_string()).expect("wire round-trip");
        assert_eq!(wire, spec);
        assert_eq!(facade(&Enumerator::from_spec(&g, &wire)), direct);
    }
}
