//! Deterministic model-checking of the parallel engine's concurrency
//! protocols, driven by the vendored [`modelsim`] runtime.
//!
//! Compiled only under the model backend of [`kbiplex::sync`]:
//!
//! ```sh
//! RUSTFLAGS="--cfg kbiplex_model" cargo test -p kbiplex --features model --test model_check
//! ```
//!
//! Each test hands a protocol closure to [`modelsim::check`], which runs it
//! thousands of times under bounded-exhaustive (preemption-bounded DFS) and
//! randomized schedule exploration with a weak-memory visibility
//! simulation, and asserts the protocol invariants hold on every explored
//! schedule *and* that coverage met the floor: one winner per key in the
//! seen-set's shard locks, termination through the work-stealer's
//! pending-work counter, and exact delivery under cancellation. The engine
//! protocols run on a graph with four solutions, so the workers push, steal
//! and claim discovered items rather than only the seed.

#![cfg(all(kbiplex_model, feature = "model"))]

use bigraph::BipartiteGraph;
use kbiplex::sync::thread;
use kbiplex::{
    Biplex, CollectSink, ConcurrentSeenSet, Engine, EngineStats, Enumerator, StopReason,
};
use modelsim::{check, Config, Report};

/// Coverage floor: either the preemption-bounded DFS tree was exhausted or
/// at least this many distinct schedules ran.
const DISTINCT_FLOOR: usize = 10_000;

fn assert_coverage(report: &Report, what: &str) {
    assert!(
        report.dfs_complete || report.distinct >= DISTINCT_FLOOR,
        "{what}: insufficient schedule coverage: {report:?}"
    );
}

// ---------------------------------------------------------------------------
// Protocol 1: one-winner insert on a hot key
// ---------------------------------------------------------------------------

/// Three threads race to insert the same key; the key's shard lock must
/// hand exactly one of them the win, on every schedule.
fn hot_key_protocol() {
    let set = ConcurrentSeenSet::new(0);
    let wins = thread::scope(|s| {
        let h1 = s.spawn(|| set.insert(vec![7]) as usize);
        let h2 = s.spawn(|| set.insert(vec![7]) as usize);
        let mine = set.insert(vec![7]) as usize;
        mine + h1.join().expect("inserter 1") + h2.join().expect("inserter 2")
    });
    assert_eq!(wins, 1, "exactly one racer claims the hot key");
    assert_eq!(set.len(), 1);
    assert!(!set.insert(vec![7]), "the key stays claimed");
}

#[test]
fn seen_one_winner_on_hot_key() {
    let report = check(&Config::default(), hot_key_protocol).unwrap_or_else(|failure| {
        panic!("one-winner protocol refuted: {failure}");
    });
    assert_coverage(&report, "one-winner");
}

// ---------------------------------------------------------------------------
// Protocol 2: engine termination (pending counter)
// ---------------------------------------------------------------------------

/// The miss budget of the engine protocols.
const K: usize = 0;

/// The reference answer, computed once by the sequential engine.
fn expected_solutions(g: &BipartiteGraph) -> Vec<Biplex> {
    Enumerator::new(g).k(K).collect().expect("sequential reference")
}

/// The 2×2 perfect matching: at k = 0 its maximal bicliques are the two
/// edges and the two one-sided sets. The seed is one of them; the workers
/// discover the other three.
fn tiny_graph() -> BipartiteGraph {
    BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]).expect("valid edges")
}

/// Work-stealing engine under the model: the pending-work counter must
/// prove termination on every schedule — no early exit with nonempty
/// deques (missing solutions) and no lost decrement (hang, caught by the
/// deadlock detector / step cap showing up as a refutation or no coverage).
#[test]
fn work_steal_engine_terminates_exactly() {
    let g = tiny_graph();
    let expected = expected_solutions(&g);
    assert_eq!(expected.len(), 4, "the workers must discover solutions beyond the seed");
    let report = check(&Config::default(), || {
        let mut sink = CollectSink::new();
        let run = Enumerator::new(&g)
            .k(K)
            .engine(Engine::WorkSteal)
            .threads(2)
            .run(&mut sink)
            .expect("valid facade configuration");
        let EngineStats::Parallel(stats) = run.stats else {
            panic!("work-steal runs report parallel stats");
        };
        assert_eq!(sink.into_sorted(), expected, "work-steal run must be exact on every schedule");
        assert_eq!(stats.solutions, expected.len() as u64);
        assert!(!stats.stopped_early);
    })
    .unwrap_or_else(|failure| panic!("work-steal termination refuted: {failure}"));
    assert_coverage(&report, "work-steal termination");
}

// ---------------------------------------------------------------------------
// Protocol 3: cancellation delivery through the facade gate
// ---------------------------------------------------------------------------

/// A limited run through the full `Enumerator` facade: the seed is the
/// first delivery, so the second comes from a worker, and the gate must
/// stop at exactly two, raise the shared cancel flag and wind the workers
/// down on every schedule (stale flag reads only delay the stop — the run
/// still terminates through the pending counter).
#[test]
fn cancellation_delivers_limit_exactly() {
    let g = tiny_graph();
    let report = check(&Config::default(), || {
        let mut sink = CollectSink::new();
        let run = Enumerator::new(&g)
            .k(K)
            .engine(Engine::WorkSteal)
            .threads(2)
            .limit(2)
            .run(&mut sink)
            .expect("valid spec");
        assert_eq!(run.stop, StopReason::LimitReached);
        assert_eq!(sink.solutions.len(), 2, "limit(2) must deliver exactly two solutions");
    })
    .unwrap_or_else(|failure| panic!("cancellation protocol refuted: {failure}"));
    assert_coverage(&report, "cancellation");
}
