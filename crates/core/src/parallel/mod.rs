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
//! through a lock-free [`seen::ConcurrentSeenSet`] (atomic-swap bucket
//! chains behind a segmented directory that grows under load), and results
//! are handed to the shared output vector in batches to keep the output
//! lock out of the hot path.
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
//! A [`VertexOrder`] relabeling pass can be applied up front (see
//! [`bigraph::order`]): the engine then runs on the relabeled graph and the
//! solutions are mapped back to the original ids on the way out.
//!
//! The engine supports *cooperative cancellation*: the facade
//! ([`crate::api::Enumerator`]) hands it a shared `AtomicBool` which the
//! workers poll at steal/expand boundaries (and between local solutions of
//! one expansion), so early-stopping "first N" and time-budgeted runs stop
//! within one expansion instead of running to completion. Streaming
//! delivery goes through an optional per-solution callback instead of the
//! collected output vector.

pub mod seen;
pub mod work_steal;

use std::time::Instant;

use bigraph::intersect::Kernel;
use bigraph::order::{Relabeling, VertexOrder};
use bigraph::{BipartiteGraph, VertexRef};

use crate::biplex::{Biplex, PartialBiplex};
use crate::enum_almost_sat::EnumKind;
use crate::sink::Control;
use crate::stats::TraversalStats;
use crate::step::{Expansion, ThreeStep};
use crate::sync::atomic::AtomicBool;
use crate::sync::order;

/// Runtime hooks of one parallel run, injected by the facade: an optional
/// per-solution callback (streaming delivery instead of the collected
/// output vector) and an optional shared cancellation flag polled by every
/// worker at steal/expand boundaries.
#[derive(Clone, Copy, Default)]
pub(crate) struct ParRuntime<'a> {
    /// When set, reported solutions are handed to this callback (in
    /// nondeterministic discovery order) instead of being collected; a
    /// [`Control::Stop`] verdict requests cancellation of the whole run.
    pub emit: Option<&'a (dyn Fn(&Biplex) -> Control + Sync)>,
    /// Shared stop flag. Workers exit their scheduling loops and abandon
    /// in-flight expansions as soon as it reads `true`.
    pub cancel: Option<&'a AtomicBool>,
    /// Hard deadline polled alongside the flag at scheduling boundaries, so
    /// a time-budgeted run stops even when no solution ever reaches the
    /// emit callback (e.g. thresholds filter everything out).
    pub deadline: Option<Instant>,
}

/// `true` once the shared stop `flag` is raised (`None` never is).
pub(crate) fn is_raised(flag: Option<&AtomicBool>) -> bool {
    // ordering: Relaxed — the flag is a pure liveness signal, no data is
    // published through it; see DESIGN.md "cancel-flag".
    flag.is_some_and(|c| c.load(order!(Relaxed, "cancel-flag")))
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

    /// Requests cancellation (no-op without a flag).
    pub(crate) fn request_cancel(&self) {
        if let Some(c) = self.cancel {
            // ordering: Relaxed — liveness-only signal, no data published
            // through the flag; see DESIGN.md "cancel-flag".
            c.store(true, order!(Relaxed, "cancel-flag"));
        }
    }

    /// Delivers one reported solution through the callback, translating a
    /// stop verdict into a cancellation request. Returns `false` when the
    /// engine should keep the solution for the collected output instead.
    pub(crate) fn deliver(&self, solution: &Biplex) -> bool {
        match self.emit {
            Some(emit) => {
                if emit(solution) == Control::Stop {
                    self.request_cancel();
                }
                true
            }
            None => false,
        }
    }
}

/// Configuration of a parallel enumeration run.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// The `k` of the k-biplex definition.
    pub k: usize,
    /// Worker thread count. `0` means "use the available parallelism
    /// reported by the operating system".
    pub threads: usize,
    /// Which `EnumAlmostSat` implementation each worker uses.
    pub enum_kind: EnumKind,
    /// Minimum left-side size of reported MBPs (`0` disables).
    pub theta_left: usize,
    /// Minimum right-side size of reported MBPs (`0` disables).
    pub theta_right: usize,
    /// Vertex relabeling applied before the run (solutions are mapped back).
    pub order: VertexOrder,
    /// Intersection kernel installed on every worker thread
    /// ([`Kernel::Auto`] applies the measured crossover heuristic; the rest
    /// force one kernel for `--kernel` A/B runs).
    pub kernel: Kernel,
}

impl ParallelConfig {
    /// Default configuration: `L2.0+R2.0` local enumeration, OS-chosen
    /// thread count, no size thresholds, input order.
    pub fn new(k: usize) -> Self {
        ParallelConfig {
            k,
            threads: 0,
            enum_kind: EnumKind::L2R2,
            theta_left: 0,
            theta_right: 0,
            order: VertexOrder::Input,
            kernel: Kernel::Auto,
        }
    }

    /// Sets the number of worker threads (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Selects the `EnumAlmostSat` implementation.
    pub fn with_enum_kind(mut self, kind: EnumKind) -> Self {
        self.enum_kind = kind;
        self
    }

    /// Sets the large-MBP size thresholds (`0` disables a side).
    pub fn with_thresholds(mut self, theta_left: usize, theta_right: usize) -> Self {
        self.theta_left = theta_left;
        self.theta_right = theta_right;
        self
    }

    /// Selects the vertex relabeling pass.
    pub fn with_order(mut self, order: VertexOrder) -> Self {
        self.order = order;
        self
    }

    /// Selects the intersection kernel (default [`Kernel::Auto`]).
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }

    pub(crate) fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
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

/// The relabeling pass plus the work-stealing run behind the
/// [`crate::api::Enumerator`] facade. A relabeling pass runs the engine on
/// the permuted graph and maps the solutions back (in collect mode through
/// the output vector, in streaming mode by wrapping the emit callback); the
/// canonical solution set is unchanged. `exclusion` selects the host-local
/// exclusion slice — the algorithm's choice: on for `iTraversal` and the
/// large-MBP pipeline, off for the `iTraversal-ES` ablation.
pub(crate) fn par_run(
    g: &BipartiteGraph,
    config: &ParallelConfig,
    exclusion: bool,
    rt: &ParRuntime<'_>,
) -> (Vec<Biplex>, ParallelStats) {
    if config.order != VertexOrder::Input {
        let relab = Relabeling::compute(g, config.order);
        let rg = relab.apply(g);
        let cfg = ParallelConfig { order: VertexOrder::Input, ..config.clone() };
        if let Some(emit) = rt.emit {
            let mapped_emit = |b: &Biplex| emit(&b.map_back(&relab));
            let mapped_rt = ParRuntime { emit: Some(&mapped_emit), ..*rt };
            return par_run(&rg, &cfg, exclusion, &mapped_rt);
        }
        let (solutions, stats) = par_run(&rg, &cfg, exclusion, rt);
        let mapped = solutions.iter().map(|b| b.map_back(&relab)).collect();
        return (mapped, stats);
    }
    work_steal::run(g, config, exclusion, rt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Algorithm, Engine, EngineStats, Enumerator};
    use crate::traversal::tests_support::enumerate_all;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The engine under its default runtime (no emit hook, no cancel) with
    /// the host-local exclusion slice on.
    fn par_enumerate_mbps(
        g: &BipartiteGraph,
        cfg: &ParallelConfig,
    ) -> (Vec<Biplex>, ParallelStats) {
        par_run(g, cfg, true, &ParRuntime::default())
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
                    let cfg = ParallelConfig::new(k).with_threads(threads);
                    let (mut got, _) = par_enumerate_mbps(&g, &cfg);
                    got.sort();
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
                let cfg = ParallelConfig::new(k).with_threads(3).with_order(order);
                let (mut got, _) = par_enumerate_mbps(&g, &cfg);
                got.sort();
                assert_eq!(got, expected, "seed {seed} order {order}");
            }
        }
    }

    #[test]
    fn parallel_stats_are_consistent() {
        let g = random_graph(7, 7, 0.5, 3);
        let cfg = ParallelConfig::new(1).with_threads(3);
        let (results, stats) = par_enumerate_mbps(&g, &cfg);
        assert_eq!(stats.solutions, results.len() as u64);
        assert_eq!(stats.reported, stats.solutions);
        assert!(stats.links >= stats.solutions.saturating_sub(1));
        assert_eq!(stats.threads, 3);
    }

    #[test]
    fn parallel_size_thresholds_match_post_filtering() {
        for seed in 0..6u64 {
            let g = random_graph(6, 6, 0.6, seed);
            let k = 1;
            let all = enumerate_all(&g, k);
            for (tl, tr) in [(2, 2), (3, 2), (2, 3)] {
                let mut expected: Vec<Biplex> = all
                    .iter()
                    .filter(|b| b.left.len() >= tl && b.right.len() >= tr)
                    .cloned()
                    .collect();
                expected.sort();
                let cfg = ParallelConfig::new(k).with_threads(4).with_thresholds(tl, tr);
                let (mut got, _) = par_enumerate_mbps(&g, &cfg);
                got.sort();
                assert_eq!(got, expected, "seed {seed} θ=({tl},{tr})");
            }
        }
    }

    #[test]
    fn every_enum_kind_matches_in_parallel() {
        let g = random_graph(6, 6, 0.5, 11);
        let k = 1;
        let expected = enumerate_all(&g, k);
        for kind in EnumKind::ALL {
            let cfg = ParallelConfig::new(k).with_threads(2).with_enum_kind(kind);
            let (mut got, _) = par_enumerate_mbps(&g, &cfg);
            got.sort();
            assert_eq!(got, expected, "kind {kind:?}");
        }
    }

    #[test]
    fn degenerate_graphs() {
        let g = BipartiteGraph::from_edges(0, 0, &[]).unwrap();
        let cfg = ParallelConfig::new(1).with_threads(2);
        let (got, _) = par_enumerate_mbps(&g, &cfg);
        assert_eq!(got.len(), 1);
        assert!(got[0].is_empty());

        let g = BipartiteGraph::from_edges(3, 3, &[]).unwrap();
        for k in 0..=2usize {
            let cfg = ParallelConfig::new(k).with_threads(2);
            let (mut got, _) = par_enumerate_mbps(&g, &cfg);
            got.sort();
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
                for exclusion in [true, false] {
                    let cfg = ParallelConfig::new(k).with_threads(3);
                    let (mut got, _) = par_run(&g, &cfg, exclusion, &ParRuntime::default());
                    got.sort();
                    assert_eq!(got, expected, "seed {seed} k {k} exclusion {exclusion}");
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
            let e = Enumerator::new(&g).k(1).algorithm(algorithm).engine(Engine::WorkSteal);
            let mut sink = crate::sink::CollectSink::new();
            let report = e.threads(2).run(&mut sink).unwrap();
            let EngineStats::Parallel(stats) = report.stats else {
                panic!("work-steal runs report parallel stats");
            };
            (sink.into_sorted(), stats)
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
    fn kernel_overrides_never_change_the_solution_set() {
        for seed in 0..4u64 {
            let g = random_graph(7, 7, 0.5, seed);
            let k = 1;
            let expected = enumerate_all(&g, k);
            for kernel in Kernel::ALL {
                let cfg = ParallelConfig::new(k).with_threads(2).with_kernel(kernel);
                let (mut got, _) = par_enumerate_mbps(&g, &cfg);
                got.sort();
                assert_eq!(got, expected, "seed {seed} kernel {kernel}");
            }
        }
    }

    #[test]
    fn auto_thread_count_resolves() {
        let cfg = ParallelConfig::new(1);
        assert!(cfg.resolved_threads() >= 1);
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
