//! Thread-parallel maximal k-biplex enumeration.
//!
//! The paper's conclusion lists *"efficient parallel and distributed
//! implementations"* as future work; this module provides a shared-memory
//! parallel engine for `iTraversal`. The solution-graph exploration is an
//! irregular graph traversal, which parallelises naturally: every discovered
//! solution becomes a work item, and expanding a solution is independent of
//! every other expansion apart from the shared *seen* set. Each expansion
//! runs the same `iThreeStep` as the sequential engine (the crate-private
//! `step` module) for every left candidate of the host, in ascending order.
//!
//! The scheduler is **work stealing** ([`work_steal`]): per-worker LIFO
//! deques; a worker pushes the solutions it discovers onto its own deque and
//! pops from the same end (depth-first, cache-warm), and steals from the old
//! end of a random victim's deque when it runs dry — one item from a
//! shallow victim, the oldest half of a deep one. De-duplication goes
//! through a [`seen::ConcurrentSeenSet`] (64 mutex-guarded hash-set
//! shards). The only atomics are the pending-work counter and the cancel
//! flag.
//!
//! The engine runs the left-anchored + right-shrinking `iTraversal`
//! configuration (those prunings' correctness arguments never reference the
//! order in which solutions are expanded). The sequential engine's *full*
//! exclusion strategy is inherently order-dependent — ℰ(H) inherits the
//! completed sibling branches of every ancestor — and stays sequential. In
//! its place, for [`crate::api::Algorithm::ITraversal`] and
//! [`crate::api::Algorithm::Large`], the step prunes against the
//! **host-local slice** of ℰ(H): while expanding one host H, every fully
//! enumerated earlier candidate `w` of H joins a local excluded set, and
//! later links out of the *same* expansion whose solution contains `w` are
//! pruned. The `iTraversal-ES` ablation passes an empty slice. The slice is
//! position-determined (a function of H and the fixed ascending candidate
//! order only, never of worker timing). Correctness (oracle-checked by the
//! `parallel` test battery and the engine cross-validation suite): if the
//! link (H, v′) → S is pruned because `w ∈ S.left` for an earlier fully
//! enumerated candidate `w < v′`, then (H, w) → S is itself a link of the
//! solution graph (the same-host exclusion lemma the sequential strategy
//! already relies on), and it was considered during `w`'s enumeration at H
//! — where, by induction over the strictly decreasing candidate id, it was
//! either followed (S claimed in the seen-set) or pruned in favour of an
//! even earlier candidate. Since the seen-set expands every claimed
//! solution exactly once, every maximal k-biplex is still discovered,
//! independent of scheduling. The *set* of solutions returned — and every
//! per-run counter except `steals` — therefore remains deterministic; the
//! discovery order is not. The [`crate::api::Enumerator::collect`]
//! terminal returns the canonically sorted set.
//!
//! The engine runs on the graph the facade ([`crate::api::Enumerator`])
//! prepared (core-reduced, relabeled) and hands every solution to the
//! facade's emit closure, which maps it back to input ids and offers it to
//! the stopping rules. It supports *cooperative cancellation*: the facade
//! also hands it a shared `AtomicBool` which the workers poll at
//! steal/expand boundaries (and between local solutions of one expansion),
//! so a limit, a time budget or a sink that stops ends the run within one
//! expansion instead of running to completion.

pub mod seen;
pub mod work_steal;

use std::time::Instant;

use bigraph::VertexRef;

use crate::biplex::{Biplex, PartialBiplex};
use crate::sink::Control;
use crate::stats::TraversalStats;
use crate::step::{Expansion, ThreeStep};
use crate::sync::atomic::AtomicBool;
use crate::sync::order;

pub(crate) use work_steal::par_run;

/// Runtime hooks of one parallel run, injected by the facade: the
/// per-solution emit closure and the shared cancellation flag polled by
/// every worker at steal/expand boundaries.
pub(crate) struct ParRuntime<'a> {
    /// Takes every reported solution, in nondeterministic discovery order;
    /// a [`Control::Stop`] verdict requests cancellation of the whole run.
    pub emit: &'a (dyn Fn(&Biplex) -> Control + Sync),
    /// Shared stop flag. Workers exit their scheduling loops and abandon
    /// in-flight expansions as soon as it reads `true`.
    pub cancel: &'a AtomicBool,
    /// Hard deadline polled alongside the flag at scheduling boundaries, so
    /// a time-budgeted run stops even when no solution ever reaches the
    /// emit callback (e.g. thresholds filter everything out).
    pub deadline: Option<Instant>,
}

/// `true` once the shared stop `flag` is raised.
pub(crate) fn is_raised(flag: &AtomicBool) -> bool {
    // ordering: Relaxed — the flag is a pure liveness signal, no data is
    // published through it; see DESIGN.md "cancel-flag".
    flag.load(order!(Relaxed, "cancel-flag"))
}

impl ParRuntime<'_> {
    /// `true` once cancellation has been requested.
    pub(crate) fn cancelled(&self) -> bool {
        is_raised(self.cancel)
    }

    /// Boundary check: `true` once the run is cancelled or past its
    /// deadline (an expired deadline raises the shared flag so in-flight
    /// expansions on other workers also wind down).
    pub(crate) fn should_stop(&self) -> bool {
        if self.cancelled() {
            return true;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.request_cancel();
            return true;
        }
        false
    }

    /// Requests cancellation.
    pub(crate) fn request_cancel(&self) {
        // ordering: Relaxed — liveness-only signal, no data published
        // through the flag; see DESIGN.md "cancel-flag".
        self.cancel.store(true, order!(Relaxed, "cancel-flag"));
    }

    /// Delivers one reported solution through the emit closure, turning a
    /// stop verdict into a cancellation request.
    pub(crate) fn deliver(&self, solution: &Biplex) {
        if (self.emit)(solution) == Control::Stop {
            self.request_cancel();
        }
    }
}

/// Worker threads of a parallel run: `requested`, or the available
/// parallelism reported by the operating system when it is `0`.
pub(crate) fn resolved_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Aggregate statistics of a parallel run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Distinct maximal k-biplexes discovered.
    pub solutions: u64,
    /// Solutions passing the size thresholds (what the caller received).
    pub reported: u64,
    /// Almost-satisfying graphs formed across all workers.
    pub almost_sat_graphs: u64,
    /// Local solutions produced across all workers.
    pub local_solutions: u64,
    /// Solution-graph links followed (including duplicates).
    pub links: u64,
    /// Successful steal operations (the only counter that depends on
    /// worker timing).
    pub steals: u64,
    /// Worker threads actually used.
    pub threads: usize,
    /// `true` when the run was cut short by cooperative cancellation (limit,
    /// time budget or a stopping sink) instead of exhausting the search.
    pub stopped_early: bool,
}

impl ParallelStats {
    /// Adds one worker's step counters and steal count; workers tally
    /// privately and merge once at join, so the hot loop never touches
    /// shared atomics.
    pub(crate) fn absorb(&mut self, worker: &TraversalStats, steals: u64) {
        self.solutions += worker.solutions;
        self.reported += worker.reported;
        self.almost_sat_graphs += worker.almost_sat_graphs;
        self.local_solutions += worker.local_solutions;
        self.links += worker.links;
        self.steals += steals;
    }
}

/// Expands one solution: the `iThreeStep` for every left candidate outside
/// `host`, in ascending order. With `exclusion` on, every fully enumerated
/// candidate joins the host-local slice of ℰ(H) that the later candidates'
/// links are pruned against (see the module docs). The scheduler supplies
/// the dedup `claim` and `on_new`, which takes every newly claimed solution.
pub(crate) fn expand_solution<C, N>(
    step: &ThreeStep<'_>,
    host: &Biplex,
    exclusion: bool,
    tally: &mut TraversalStats,
    mut claim: C,
    mut on_new: N,
) where
    C: FnMut(&Biplex) -> bool,
    N: FnMut(Biplex, &mut TraversalStats) -> Control,
{
    let host = PartialBiplex::from_sets(step.g, &host.left, &host.right);
    // Fully enumerated candidates of this host, ascending because `v` is.
    let mut excluded: Vec<u32> = Vec::new();
    for v in 0..step.g.num_left() {
        if step.cancelled() {
            return;
        }
        if host.contains_left(v) {
            continue;
        }
        match step.expand(&host, VertexRef::left(v), &excluded, tally, &mut claim, &mut on_new) {
            // Only fully enumerated candidates may be excluded against —
            // the completeness induction needs every link via `v` to have
            // been considered. θ-pruned and skipped candidates never join.
            Expansion::Pruned => {}
            Expansion::Done => {
                if exclusion {
                    excluded.push(v);
                }
            }
            Expansion::Stopped => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Algorithm, Engine, EngineStats, Enumerator};
    use crate::sink::CollectSink;
    use bigraph::order::VertexOrder;
    use bigraph::BipartiteGraph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// All MBPs under the sequential `iTraversal`, sorted canonically.
    fn enumerate_all(g: &BipartiteGraph, k: usize) -> Vec<Biplex> {
        Enumerator::new(g).k(k).collect().unwrap()
    }

    /// `e` on the work-stealer with `threads` workers: the solutions it
    /// delivered, sorted canonically, and its counters.
    fn par_enumerate_mbps(e: Enumerator<'_>, threads: usize) -> (Vec<Biplex>, ParallelStats) {
        let mut sink = CollectSink::new();
        let report = e.engine(Engine::WorkSteal).threads(threads).run(&mut sink).unwrap();
        let EngineStats::Parallel(stats) = report.stats else {
            panic!("work-steal runs report parallel stats");
        };
        (sink.into_sorted(), stats)
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
    fn parallel_matches_sequential_on_random_graphs() {
        for seed in 0..10u64 {
            let g = random_graph(6, 6, 0.5, seed);
            for k in 1..=2usize {
                let expected = enumerate_all(&g, k);
                for threads in [1, 2, 4] {
                    let (got, _) = par_enumerate_mbps(Enumerator::new(&g).k(k), threads);
                    assert_eq!(got, expected, "seed {seed} k {k} threads {threads}");
                }
            }
        }
    }

    #[test]
    fn relabeling_orders_return_the_same_set() {
        for seed in 0..6u64 {
            let g = random_graph(7, 6, 0.45, seed);
            let k = 1;
            let expected = enumerate_all(&g, k);
            for order in [VertexOrder::Degree, VertexOrder::Degeneracy] {
                let (got, _) = par_enumerate_mbps(Enumerator::new(&g).k(k).order(order), 3);
                assert_eq!(got, expected, "seed {seed} order {order}");
            }
        }
    }

    #[test]
    fn parallel_stats_are_consistent() {
        let g = random_graph(7, 7, 0.5, 3);
        let (results, stats) = par_enumerate_mbps(Enumerator::new(&g).k(1), 3);
        assert_eq!(stats.solutions, results.len() as u64);
        assert_eq!(stats.reported, stats.solutions);
        assert!(stats.links >= stats.solutions.saturating_sub(1));
        assert_eq!(stats.threads, 3);
        assert!(!stats.stopped_early);
    }

    #[test]
    fn parallel_size_thresholds_match_post_filtering() {
        for seed in 0..6u64 {
            let g = random_graph(6, 6, 0.6, seed);
            let k = 1;
            let all = enumerate_all(&g, k);
            for (tl, tr) in [(2, 2), (3, 2), (2, 3)] {
                let expected: Vec<Biplex> = all
                    .iter()
                    .filter(|b| b.left.len() >= tl && b.right.len() >= tr)
                    .cloned()
                    .collect();
                let (got, _) = par_enumerate_mbps(Enumerator::new(&g).k(k).thresholds(tl, tr), 4);
                assert_eq!(got, expected, "seed {seed} θ=({tl},{tr})");
            }
        }
    }

    #[test]
    fn degenerate_graphs() {
        let g = BipartiteGraph::from_edges(0, 0, &[]).unwrap();
        let (got, _) = par_enumerate_mbps(Enumerator::new(&g).k(1), 2);
        assert_eq!(got.len(), 1);
        assert!(got[0].is_empty());

        let g = BipartiteGraph::from_edges(3, 3, &[]).unwrap();
        for k in 0..=2usize {
            let (got, _) = par_enumerate_mbps(Enumerator::new(&g).k(k), 2);
            assert_eq!(got, enumerate_all(&g, k), "k {k}");
        }
    }

    #[test]
    fn host_local_exclusion_is_oracle_checked_against_sequential() {
        // The exclusion slice must change only the link counts, never the
        // solution set, at any thread count.
        for seed in 0..8u64 {
            let g = random_graph(7, 6, 0.5, seed);
            for k in 1..=2usize {
                let expected = enumerate_all(&g, k);
                for algorithm in [Algorithm::ITraversal, Algorithm::ITraversalNoExclusion] {
                    let (got, _) =
                        par_enumerate_mbps(Enumerator::new(&g).k(k).algorithm(algorithm), 3);
                    assert_eq!(got, expected, "seed {seed} k {k} {algorithm}");
                }
            }
        }
    }

    #[test]
    fn host_local_exclusion_prunes_duplicate_links() {
        // The algorithm picks the exclusion policy: on the work-stealer,
        // iTraversal prunes against the host-local slice of ℰ(H) and the
        // iTraversal-ES ablation does not. On a dense graph the
        // within-expansion duplicate links are plentiful, so the full
        // algorithm must follow strictly fewer links for the same set.
        let g = random_graph(8, 8, 0.7, 5);
        let run = |algorithm: Algorithm| {
            par_enumerate_mbps(Enumerator::new(&g).k(1).algorithm(algorithm), 2)
        };
        let (with, stats_with) = run(Algorithm::ITraversal);
        let (without, stats_without) = run(Algorithm::ITraversalNoExclusion);
        assert_eq!(with, without);
        assert_eq!(stats_with.solutions, stats_without.solutions);
        assert!(
            stats_with.links < stats_without.links,
            "exclusion pruned nothing: {} vs {}",
            stats_with.links,
            stats_without.links
        );
    }

    #[test]
    fn auto_thread_count_resolves() {
        assert!(resolved_threads(0) >= 1);
        assert_eq!(resolved_threads(3), 3);
    }

    #[test]
    fn engine_parsing() {
        // The work-stealer is the one parallel engine; the retired
        // global-queue codes are rejected, not mapped onto it.
        for code in ["steal", "work-steal"] {
            assert_eq!(code.parse::<Engine>().unwrap(), Engine::WorkSteal);
        }
        for code in ["global", "global-queue", "quantum"] {
            assert!(code.parse::<Engine>().is_err(), "{code}");
        }
    }
}
