//! The reverse-search traversal engine.
//!
//! One engine implements both frameworks of the paper:
//!
//! * **bTraversal** (Algorithm 1): arbitrary initial solution, candidate
//!   vertices from both sides, both-side extension, no pruning of the
//!   solution graph.
//! * **iTraversal** (Algorithm 2): designated initial solution
//!   `H0 = (L0, R)`, left-anchored traversal, right-shrinking traversal and
//!   the exclusion strategy. The algorithm picks which of them are on (the
//!   crate-private `rules` table), so the ablation variants of Figure 11
//!   (`iTraversal-ES`, `iTraversal-ES-RS`) fall out of the same code path.
//!
//! bTraversal also enumerates maximal (k_L, k_R)-biplexes when the spec
//! carries a `k_pair`: the same DFS and the same `iThreeStep` run with the
//! pair in place of `k_L = k_R = k`. The left-anchored algorithms stay
//! symmetric, since the paper proves their left-anchored, right-shrinking
//! and exclusion arguments for a single k.
//!
//! The initial solution is a rule of the algorithm, not of the caller:
//! the left-anchored algorithms start from `H0 = (L0, R)`, from which alone
//! their traversal is complete, and bTraversal from an arbitrary maximal
//! k-biplex. The [`Anchor`] only picks the orientation: the engine
//! enumerates the graph the [`crate::api`] facade prepared for it
//! (core-reduced, relabeled, transposed for [`Anchor::Right`]) and hands
//! each solution to the facade's emit closure, which maps it back to input
//! ids.
//!
//! The DFS over the implicit solution graph is driven by an explicit stack
//! (no recursion), so arbitrarily deep solution graphs cannot overflow the
//! call stack. Size thresholds for *large MBP* enumeration (Section 5) are
//! applied inside the engine: almost-satisfying-graph pruning,
//! local-solution pruning, solution pruning and the exclusion-based
//! left-side pruning.

use std::time::Instant;

use bigraph::{BipartiteGraph, Side, VertexRef};

use crate::api::{Algorithm, QuerySpec};
use crate::biplex::{Biplex, KPair, PartialBiplex};
use crate::initial::{initial_arbitrary, initial_left_anchored};
use crate::sink::Control;
use crate::stats::TraversalStats;
use crate::step::{Expansion, ThreeStep};
use crate::store::{HashStore, SolutionStore};
use crate::sync::atomic::AtomicBool;

/// Which side the traversal is anchored on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Anchor {
    /// `H0 = (L0, R)` — the left-anchored proposal of Section 3.2, run on
    /// the graph as given (the default).
    Left,
    /// `H0 = (L, R0)` — the symmetric proposal, evaluated in Section 6.2.
    /// The facade runs it as the left-anchored traversal on the transpose.
    Right,
}

impl std::fmt::Display for Anchor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Anchor::Left => "left",
            Anchor::Right => "right",
        })
    }
}

impl std::str::FromStr for Anchor {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "left" => Ok(Anchor::Left),
            "right" => Ok(Anchor::Right),
            other => Err(format!("unknown anchor {other:?} (expected left or right)")),
        }
    }
}

/// When solutions are handed to the sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmitMode {
    /// As soon as a solution is discovered (best practical delay, and the
    /// mode required for early-stopping "first N" runs).
    Immediate,
    /// The alternating pre/post-order output trick of Takeaki Uno used in
    /// the paper's delay analysis: a solution is emitted when its DFS frame
    /// is *pushed* on even depths and when it is *popped* on odd depths,
    /// which guarantees at least one output every two recursive calls.
    Alternating,
}

impl std::fmt::Display for EmitMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EmitMode::Immediate => "immediate",
            EmitMode::Alternating => "alternating",
        })
    }
}

impl std::str::FromStr for EmitMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "immediate" => Ok(EmitMode::Immediate),
            "alternating" => Ok(EmitMode::Alternating),
            other => {
                Err(format!("unknown emit mode {other:?} (expected immediate or alternating)"))
            }
        }
    }
}

/// The traversal rules an algorithm switches on. The ablation variants of
/// Figure 11 fall out of the same code path by switching them off.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rules {
    /// Restrict candidate vertices to the left side (left-anchored
    /// traversal, Section 3.3).
    pub left_anchored: bool,
    /// Keep only right-shrinking links (Section 3.4).
    pub right_shrinking: bool,
    /// Enable the exclusion strategy (Section 3.5).
    pub exclusion: bool,
}

/// The rules of an algorithm.
pub(crate) fn rules(algorithm: Algorithm) -> Rules {
    let (left_anchored, right_shrinking, exclusion) = match algorithm {
        Algorithm::ITraversal | Algorithm::Large => (true, true, true),
        Algorithm::ITraversalNoExclusion => (true, true, false),
        Algorithm::LeftAnchoredOnly => (true, false, false),
        Algorithm::BTraversal => (false, false, false),
    };
    Rules { left_anchored, right_shrinking, exclusion }
}

/// The sequential reverse-search engine behind the
/// [`crate::api::Enumerator`] facade. Enumerates the maximal k-biplexes of
/// the graph the facade prepared under the validated `spec`, handing every
/// reported solution to `emit`, and returns the run's counters. `deadline`
/// and the `cancel` flag are checked at every DFS step (the flag also
/// between local solutions), so a budgeted or cancelled run winds down
/// even when no solution reaches `emit`.
pub(crate) fn traverse(
    g: &BipartiteGraph,
    spec: &QuerySpec,
    deadline: Option<Instant>,
    cancel: &AtomicBool,
    emit: &dyn Fn(&Biplex) -> Control,
) -> TraversalStats {
    let rules = rules(spec.algorithm);
    let kp = spec.k_pair.unwrap_or(KPair::symmetric(spec.k));
    // Right-side candidates (bTraversal) run the step on the transpose.
    let gt = if rules.left_anchored { None } else { Some(g.transpose()) };
    let mut engine = Engine {
        g,
        step: ThreeStep {
            g,
            gt: gt.as_ref(),
            kp,
            right_shrinking: rules.right_shrinking,
            theta_right: spec.theta_right,
            cancel,
        },
        rules,
        spec,
        deadline,
        store: HashStore::new(),
        stats: TraversalStats::default(),
        emit,
        stop: false,
    };
    // The left-anchored traversal is complete only from H0 = (L0, R);
    // bTraversal reaches every solution from any one (Algorithm 1 line 1).
    let initial =
        if rules.left_anchored { initial_left_anchored(g, kp) } else { initial_arbitrary(g, kp) };
    engine.run(initial);
    engine.stats
}

struct Frame {
    partial: PartialBiplex,
    /// Snapshot + growth of the exclusion set ℰ(H) (sorted left ids).
    exclusion: Vec<u32>,
    /// Next candidate position in the combined order (left ids, then —
    /// for bTraversal — right ids shifted by `num_left`).
    next_candidate: u64,
    /// Candidate currently being processed (left ids only are recorded for
    /// the exclusion strategy).
    current_candidate: Option<Option<u32>>,
    /// New solutions found under the current candidate, awaiting DFS
    /// descent.
    current_children: Vec<Biplex>,
    depth: usize,
}

struct Engine<'a> {
    g: &'a BipartiteGraph,
    /// The `iThreeStep` applied to every (solution, candidate) pair.
    step: ThreeStep<'a>,
    rules: Rules,
    spec: &'a QuerySpec,
    deadline: Option<Instant>,
    store: HashStore,
    stats: TraversalStats,
    emit: &'a dyn Fn(&Biplex) -> Control,
    stop: bool,
}

impl Engine<'_> {
    fn run(&mut self, initial: Biplex) {
        self.store.insert(&initial);
        self.stats.solutions = 1;
        if self.spec.emit_mode == EmitMode::Immediate {
            self.emit(&initial);
        }
        let mut stack: Vec<Frame> = Vec::new();
        if let Some(frame) = self.make_frame(initial, Vec::new(), 0) {
            stack.push(frame);
        }

        while !self.stop {
            // Stop boundary: a budgeted or cancelled run winds down here
            // even when no solution ever reaches `emit` (e.g. thresholds
            // filter everything out).
            if self.step.cancelled() || self.deadline.is_some_and(|d| Instant::now() >= d) {
                self.stats.stopped_early = true;
                break;
            }
            let Some(mut frame) = stack.pop() else { break };

            // 1. Descend into a pending child.
            if let Some(child) = frame.current_children.pop() {
                let exclusion = frame.exclusion.clone();
                let depth = frame.depth + 1;
                stack.push(frame);
                if let Some(child_frame) = self.make_frame(child, exclusion, depth) {
                    stack.push(child_frame);
                }
                continue;
            }

            // 2. Close out the candidate whose branch just completed.
            if let Some(done) = frame.current_candidate.take() {
                if let Some(v) = done {
                    if self.rules.exclusion {
                        if let Err(pos) = frame.exclusion.binary_search(&v) {
                            frame.exclusion.insert(pos, v);
                        }
                    }
                }
                stack.push(frame);
                continue;
            }

            // 3. Expand the next candidate vertex (or finish the frame). A
            //    candidate the step prunes outright has no branch to close
            //    out, so it never joins ℰ(H).
            let mut expanded = None;
            while let Some(cand) = self.next_candidate(&mut frame) {
                if self.process_candidate(&mut frame, cand) {
                    expanded = Some(cand);
                    break;
                }
            }
            match expanded {
                Some(cand) => {
                    frame.current_candidate = Some(match cand.side {
                        Side::Left => Some(cand.id),
                        Side::Right => None,
                    });
                    stack.push(frame);
                }
                None => {
                    // Frame exhausted: post-order emission point.
                    if self.spec.emit_mode == EmitMode::Alternating && frame.depth % 2 == 1 {
                        self.emit(&frame.partial.to_biplex());
                    }
                }
            }
        }
    }

    /// Reports a solution, applying the size filter.
    fn emit(&mut self, solution: &Biplex) {
        if solution.left.len() >= self.spec.theta_left
            && solution.right.len() >= self.spec.theta_right
        {
            self.stats.reported += 1;
            if (self.emit)(solution) == Control::Stop {
                self.stop = true;
                self.stats.stopped_early = true;
            }
        }
    }

    /// Builds the DFS frame for a newly discovered solution, applying the
    /// recursion-pruning rules of Section 5. Returns `None` when the
    /// recursion from this solution is pruned (the solution itself has
    /// already been reported).
    fn make_frame(&mut self, solution: Biplex, exclusion: Vec<u32>, depth: usize) -> Option<Frame> {
        let (spec, rules) = (self.spec, self.rules);
        let alternating = spec.emit_mode == EmitMode::Alternating;
        // Solution pruning: with right-shrinking traversal every descendant
        // has a right side no larger than this one.
        if spec.theta_right > 0 && rules.right_shrinking && solution.right.len() < spec.theta_right
        {
            self.stats.pruned_size += 1;
            if alternating {
                self.emit(&solution);
            }
            return None;
        }
        // Left-side pruning via the exclusion set.
        if spec.theta_left > 0
            && rules.exclusion
            && (self.g.num_left() as usize).saturating_sub(exclusion.len()) < spec.theta_left
        {
            self.stats.pruned_size += 1;
            if alternating {
                self.emit(&solution);
            }
            return None;
        }
        if alternating && depth % 2 == 0 {
            self.emit(&solution);
            if self.stop {
                return None;
            }
        }
        self.stats.max_depth = self.stats.max_depth.max(depth);
        Some(Frame {
            partial: PartialBiplex::from_sets(self.g, &solution.left, &solution.right),
            exclusion,
            next_candidate: 0,
            current_candidate: None,
            current_children: Vec::new(),
            depth,
        })
    }

    /// Advances to the next candidate vertex of the frame, applying the
    /// left-anchored restriction and the exclusion strategy.
    fn next_candidate(&mut self, frame: &mut Frame) -> Option<VertexRef> {
        let num_left = self.g.num_left() as u64;
        let num_right = self.g.num_right() as u64;
        let limit = if self.rules.left_anchored { num_left } else { num_left + num_right };
        while frame.next_candidate < limit {
            let pos = frame.next_candidate;
            frame.next_candidate += 1;
            if pos < num_left {
                let v = pos as u32;
                if frame.partial.contains_left(v) {
                    continue;
                }
                if self.rules.exclusion && frame.exclusion.binary_search(&v).is_ok() {
                    self.stats.pruned_exclusion += 1;
                    continue;
                }
                return Some(VertexRef::left(v));
            } else {
                let u = (pos - num_left) as u32;
                if frame.partial.contains_right(u) {
                    continue;
                }
                return Some(VertexRef::right(u));
            }
        }
        None
    }

    /// Runs the `iThreeStep` for one candidate vertex against the full
    /// ℰ(H), claiming in the run's [`HashStore`]; every new solution is
    /// emitted (immediate mode) and queued for the DFS descent. Returns
    /// `false` when the step pruned the candidate outright.
    fn process_candidate(&mut self, frame: &mut Frame, cand: VertexRef) -> bool {
        let Engine { step, spec, store, stats, emit, stop, .. } = self;
        let children = &mut frame.current_children;
        let outcome = step.expand(
            &frame.partial,
            cand,
            &frame.exclusion,
            stats,
            |solution| store.insert(solution),
            |solution, stats| {
                if spec.emit_mode == EmitMode::Immediate
                    && solution.left.len() >= spec.theta_left
                    && solution.right.len() >= spec.theta_right
                {
                    stats.reported += 1;
                    if emit(&solution) == Control::Stop {
                        stats.stopped_early = true;
                        return Control::Stop;
                    }
                }
                children.push(solution);
                Control::Continue
            },
        );
        match outcome {
            Expansion::Pruned => return false,
            Expansion::Stopped => {
                *stop = true;
                stats.stopped_early = true;
            }
            Expansion::Done => {}
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{EngineStats, Enumerator};
    use crate::bruteforce::brute_force_mbps;
    use crate::sink::{CollectSink, CountingSink};
    use bigraph::order::VertexOrder;
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

    fn run_sorted(e: Enumerator<'_>) -> Vec<Biplex> {
        e.collect().unwrap()
    }

    /// The run's counters and the number of solutions the sink received.
    fn run_stats(e: Enumerator<'_>) -> (TraversalStats, u64) {
        let mut sink = CountingSink::new();
        let report = e.run(&mut sink).unwrap();
        let EngineStats::Sequential(stats) = report.stats else {
            panic!("sequential runs report traversal stats");
        };
        (stats, sink.count)
    }

    fn all_configs(g: &BipartiteGraph, k: usize) -> Vec<(&'static str, Enumerator<'_>)> {
        let e = || Enumerator::new(g).k(k);
        vec![
            ("iTraversal", e()),
            ("iTraversal-ES", e().algorithm(Algorithm::ITraversalNoExclusion)),
            ("iTraversal-ES-RS", e().algorithm(Algorithm::LeftAnchoredOnly)),
            ("bTraversal", e().algorithm(Algorithm::BTraversal)),
            ("right-anchored", e().anchor(Anchor::Right)),
        ]
    }

    #[test]
    fn every_configuration_matches_brute_force_on_random_graphs() {
        for seed in 0..20u64 {
            let nl = 4 + (seed % 3) as u32;
            let nr = 4 + (seed % 4) as u32;
            let g = random_graph(nl, nr, 0.5, seed);
            for k in 0..=2usize {
                let expected = brute_force_mbps(&g, k);
                for (name, e) in all_configs(&g, k) {
                    let got = run_sorted(e);
                    assert_eq!(
                        got, expected,
                        "{name} differs from brute force (seed {seed}, k {k}, |L|={nl}, |R|={nr})"
                    );
                }
            }
        }
    }

    #[test]
    fn denser_and_sparser_random_graphs() {
        for &p in &[0.25, 0.75] {
            for seed in 100..108u64 {
                let g = random_graph(5, 5, p, seed);
                for k in 1..=2usize {
                    let expected = brute_force_mbps(&g, k);
                    for (name, e) in all_configs(&g, k) {
                        let got = run_sorted(e);
                        assert_eq!(got, expected, "{name} seed {seed} k {k} p {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn relabeling_orders_report_the_same_set() {
        for seed in 0..6u64 {
            let g = random_graph(6, 5, 0.5, seed);
            for k in 1..=2usize {
                let expected = run_sorted(Enumerator::new(&g).k(k));
                for order in [VertexOrder::Degree, VertexOrder::Degeneracy] {
                    let e = Enumerator::new(&g).k(k).order(order);
                    assert_eq!(run_sorted(e.clone()), expected, "seed {seed} k {k} order {order}");
                    assert_eq!(
                        run_sorted(e.algorithm(Algorithm::BTraversal)),
                        expected,
                        "bTraversal seed {seed} k {k} order {order}"
                    );
                }
            }
        }
    }

    #[test]
    fn relabeling_composes_with_early_stop_and_thresholds() {
        let g = random_graph(7, 7, 0.5, 2);
        let k = 1;
        let e = Enumerator::new(&g).k(k).order(VertexOrder::Degeneracy);
        let mut sink = CollectSink::new();
        let report = e.clone().limit(3).run(&mut sink).unwrap();
        assert_eq!(sink.solutions.len(), 3);
        let EngineStats::Sequential(stats) = report.stats else { unreachable!() };
        assert!(stats.stopped_early);
        for b in &sink.solutions {
            assert!(crate::biplex::is_maximal_k_biplex(&g, &b.left, &b.right, k));
        }

        let expected: Vec<Biplex> = run_sorted(Enumerator::new(&g).k(k))
            .into_iter()
            .filter(|b| b.left.len() >= 2 && b.right.len() >= 2)
            .collect();
        assert_eq!(run_sorted(e.thresholds(2, 2)), expected);
    }

    #[test]
    fn alternating_emission_reports_the_same_set() {
        for seed in 0..6u64 {
            let g = random_graph(5, 5, 0.5, seed);
            let e = Enumerator::new(&g).k(1);
            let immediate = run_sorted(e.clone());
            let alternating = run_sorted(e.emit(EmitMode::Alternating));
            assert_eq!(immediate, alternating, "seed {seed}");
        }
    }

    #[test]
    fn first_n_stops_early() {
        let g = random_graph(7, 7, 0.5, 11);
        let k = 1;
        let all = run_sorted(Enumerator::new(&g).k(k));
        assert!(all.len() > 3, "fixture should have enough solutions");
        let mut sink = CollectSink::new();
        let report = Enumerator::new(&g).k(k).limit(3).run(&mut sink).unwrap();
        assert_eq!(sink.solutions.len(), 3);
        let EngineStats::Sequential(stats) = report.stats else { unreachable!() };
        assert!(stats.stopped_early);
        assert!(stats.solutions >= 3);
        // Everything returned is a genuine MBP.
        for b in &sink.solutions {
            assert!(crate::biplex::is_maximal_k_biplex(&g, &b.left, &b.right, k));
        }
    }

    #[test]
    fn sparser_solution_graphs_for_stronger_pruning() {
        // The paper's Figure 11: iTraversal's solution graph has no more
        // links than its ablations, which have no more than bTraversal.
        for seed in 0..8u64 {
            let g = random_graph(6, 6, 0.5, seed);
            let count = |algorithm: Algorithm| {
                let (stats, count) = run_stats(Enumerator::new(&g).k(1).algorithm(algorithm));
                (stats.links, count)
            };
            let (full, n_full) = count(Algorithm::ITraversal);
            let (no_es, n_no_es) = count(Algorithm::ITraversalNoExclusion);
            let (la_only, n_la) = count(Algorithm::LeftAnchoredOnly);
            let (btrav, n_b) = count(Algorithm::BTraversal);
            assert_eq!(n_full, n_no_es);
            assert_eq!(n_full, n_la);
            assert_eq!(n_full, n_b);
            assert!(full <= no_es, "seed {seed}: ES must not add links");
            assert!(no_es <= la_only, "seed {seed}: RS must not add links");
            assert!(la_only <= btrav, "seed {seed}: left-anchoring must not add links");
        }
    }

    #[test]
    fn stats_are_consistent() {
        let g = random_graph(6, 6, 0.5, 5);
        let (stats, count) = run_stats(Enumerator::new(&g).k(1));
        assert_eq!(stats.solutions, count);
        assert_eq!(stats.reported, count);
        assert_eq!(stats.links, stats.tree_links() + stats.duplicate_links);
        assert!(stats.local_solutions >= stats.links);
        assert!(!stats.stopped_early);
        assert!(stats.almost_sat.local_solutions >= stats.local_solutions);
    }

    #[test]
    fn empty_and_degenerate_graphs() {
        // Graph with no edges: for k = 1 the MBPs pair every right vertex
        // with at most one left vertex etc.; just check against brute force.
        let g = BipartiteGraph::from_edges(3, 3, &[]).unwrap();
        for k in 0..=2usize {
            let expected = brute_force_mbps(&g, k);
            assert_eq!(run_sorted(Enumerator::new(&g).k(k)), expected, "k {k}");
        }
        // Single-vertex sides.
        let g = BipartiteGraph::from_edges(1, 1, &[(0, 0)]).unwrap();
        let got = run_sorted(Enumerator::new(&g).k(1));
        assert_eq!(got, vec![Biplex::new(vec![0], vec![0])]);
        // Empty graph.
        let g = BipartiteGraph::from_edges(0, 0, &[]).unwrap();
        let got = run_sorted(Enumerator::new(&g).k(1));
        assert_eq!(got.len(), 1);
        assert!(got[0].is_empty());
    }

    #[test]
    fn complete_bipartite_graph_has_one_mbp() {
        let mut edges = Vec::new();
        for v in 0u32..4 {
            for u in 0u32..5 {
                edges.push((v, u));
            }
        }
        let g = BipartiteGraph::from_edges(4, 5, &edges).unwrap();
        for k in 0..=2usize {
            let got = run_sorted(Enumerator::new(&g).k(k));
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].left.len(), 4);
            assert_eq!(got[0].right.len(), 5);
        }
    }

    /// bTraversal under per-side budgets, sorted canonically.
    fn collect_pair(g: &BipartiteGraph, kp: KPair) -> Vec<Biplex> {
        run_sorted(Enumerator::new(g).algorithm(Algorithm::BTraversal).k_pair(kp))
    }

    #[test]
    fn symmetric_budgets_match_the_symmetric_enumerator() {
        for seed in 0..10u64 {
            let g = random_graph(5, 5, 0.5, seed);
            for k in 0..=2usize {
                let sym = run_sorted(Enumerator::new(&g).k(k));
                assert_eq!(collect_pair(&g, KPair::symmetric(k)), sym, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn asymmetric_budgets_match_brute_force() {
        for seed in 0..12u64 {
            let g = random_graph(4, 5, 0.5, seed);
            for (kl, kr) in [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2)] {
                let kp = KPair::new(kl, kr);
                assert_eq!(collect_pair(&g, kp), brute_force_mbps(&g, kp), "seed {seed} {kp:?}");
            }
        }
    }

    #[test]
    fn every_reported_solution_is_a_maximal_asym_biplex() {
        let g = random_graph(6, 6, 0.4, 42);
        let kp = KPair::new(1, 2);
        let all = collect_pair(&g, kp);
        assert!(!all.is_empty());
        for b in all {
            assert!(crate::biplex::is_maximal_k_biplex(&g, &b.left, &b.right, kp));
        }
    }

    #[test]
    fn transposed_graph_swaps_budgets() {
        let g = random_graph(5, 4, 0.5, 7);
        let kp = KPair::new(1, 2);
        let mut via_transpose: Vec<Biplex> = collect_pair(&g.transpose(), kp.transpose())
            .into_iter()
            .map(Biplex::transpose)
            .collect();
        via_transpose.sort();
        assert_eq!(collect_pair(&g, kp), via_transpose);
    }

    #[test]
    fn zero_budgets_enumerate_maximal_bicliques() {
        // (0,0)-biplexes are exactly bicliques; every maximal one must be a
        // maximal biclique (cross-check structure only, not the full set).
        let g = random_graph(5, 5, 0.6, 3);
        for b in collect_pair(&g, KPair::symmetric(0)) {
            for &v in &b.left {
                for &u in &b.right {
                    assert!(g.has_edge(v, u));
                }
            }
        }
    }

    #[test]
    fn early_stop_via_sink() {
        let g = random_graph(6, 6, 0.5, 9);
        let kp = KPair::new(1, 2);
        assert!(collect_pair(&g, kp).len() > 2);
        let e = Enumerator::new(&g).algorithm(Algorithm::BTraversal).k_pair(kp).limit(2);
        let (stats, count) = run_stats(e);
        assert_eq!(count, 2);
        assert!(stats.stopped_early);
    }

    #[test]
    fn size_thresholds_match_post_filtering() {
        for seed in 0..10u64 {
            let g = random_graph(6, 6, 0.6, seed);
            let k = 1;
            let all = run_sorted(Enumerator::new(&g).k(k));
            for (tl, tr) in [(2, 2), (3, 2), (2, 3), (3, 3)] {
                let expected: Vec<Biplex> = all
                    .iter()
                    .filter(|b| b.left.len() >= tl && b.right.len() >= tr)
                    .cloned()
                    .collect();
                let got = run_sorted(Enumerator::new(&g).k(k).thresholds(tl, tr));
                assert_eq!(got, expected, "seed {seed} θ=({tl},{tr})");
            }
        }
    }
}
