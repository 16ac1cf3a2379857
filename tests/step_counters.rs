//! Counter pins for the shared `iThreeStep`.
//!
//! Both engines run the same expansion step, so on a fixed graph every
//! counter they report is a property of the algorithm — its prunings, its
//! exclusion policy and its de-duplication — not of scheduling. Only the
//! work-stealer's `steals` depends on timing. A change to the step, or to
//! what an engine wraps around it, shows up here as a changed number.

use mbpe::bigraph::gen::chung_lu::chung_lu_bipartite;
use mbpe::kbiplex::{AlmostSatStats, ParallelStats, TraversalStats};
use mbpe::prelude::*;

fn graph() -> BipartiteGraph {
    chung_lu_bipartite(24, 24, 70, 2.2, 11)
}

fn sequential(e: &Enumerator<'_>) -> TraversalStats {
    let report = e.run(&mut CountingSink::new()).expect("valid configuration");
    let EngineStats::Sequential(stats) = report.stats else {
        panic!("sequential runs report traversal stats");
    };
    stats
}

/// The work-stealer's counters with `steals` zeroed.
fn work_steal(e: Enumerator<'_>, threads: usize) -> ParallelStats {
    let e = e.engine(Engine::WorkSteal).threads(threads);
    let report = e.run(&mut CountingSink::new()).expect("valid configuration");
    let EngineStats::Parallel(stats) = report.stats else {
        panic!("work-steal runs report parallel stats");
    };
    ParallelStats { steals: 0, ..stats }
}

#[test]
fn sequential_itraversal_counters_are_pinned() {
    let g = graph();
    assert_eq!(
        sequential(&Enumerator::new(&g).k(1)),
        TraversalStats {
            solutions: 1451,
            reported: 1451,
            links: 7090,
            duplicate_links: 5640,
            almost_sat_graphs: 12359,
            local_solutions: 38030,
            pruned_right_shrinking: 17411,
            pruned_exclusion: 31327,
            pruned_size: 0,
            max_depth: 17,
            almost_sat: AlmostSatStats {
                r_combinations: 38030,
                l_candidates: 55979,
                local_solutions: 38030,
            },
            stopped_early: false,
        }
    );
}

#[test]
fn work_steal_counters_are_pinned_at_one_and_two_threads() {
    let g = graph();
    for threads in [1, 2] {
        assert_eq!(
            work_steal(Enumerator::new(&g).k(1), threads),
            ParallelStats {
                solutions: 1451,
                reported: 1451,
                almost_sat_graphs: 30157,
                local_solutions: 97656,
                links: 18959,
                steals: 0,
                threads,
                stopped_early: false,
            },
            "{threads} threads"
        );
    }
}

/// Without the host-local exclusion slice the work-stealer follows exactly
/// the links of the sequential `iTraversal-ES`: without any exclusion the
/// link set does not depend on the expansion order.
#[test]
fn work_steal_ablation_follows_the_sequential_ablation_links() {
    let g = graph();
    let ablation = || Enumerator::new(&g).k(1).algorithm(Algorithm::ITraversalNoExclusion);
    let seq = sequential(&ablation());
    assert_eq!((seq.links, seq.solutions), (51418, 1451));
    let par = work_steal(ablation(), 2);
    assert_eq!((par.links, par.solutions), (seq.links, seq.solutions));
}

/// The size prunings of Section 5 run inside the step: the large-MBP
/// pipeline's counters are pinned on both engines.
#[test]
fn large_pipeline_counters_are_pinned() {
    let g = graph();
    let large = || Enumerator::new(&g).k(1).algorithm(Algorithm::Large).thresholds(2, 3);
    let seq = sequential(&large());
    assert_eq!(
        (seq.solutions, seq.reported, seq.links, seq.duplicate_links),
        (654, 570, 1278, 625)
    );
    assert_eq!(
        (seq.almost_sat_graphs, seq.local_solutions, seq.pruned_size, seq.pruned_exclusion),
        (1474, 4747, 3515, 4886)
    );
    assert_eq!(seq.pruned_right_shrinking, 2385);
    let par = work_steal(large(), 1);
    assert_eq!(
        (par.solutions, par.reported, par.almost_sat_graphs, par.local_solutions, par.links),
        (654, 570, 3089, 10056, 3078)
    );
}
