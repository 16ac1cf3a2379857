//! The reverse-search traversal engine.
//!
//! One engine implements both frameworks of the paper:
//!
//! * **bTraversal** (Algorithm 1): arbitrary initial solution, candidate
//!   vertices from both sides, both-side extension, no pruning of the
//!   solution graph.
//! * **iTraversal** (Algorithm 2): designated initial solution
//!   `H0 = (L0, R)`, left-anchored traversal, right-shrinking traversal and
//!   the exclusion strategy, each individually toggleable so that the
//!   ablation variants of Figure 11 (`iTraversal-ES`, `iTraversal-ES-RS`)
//!   fall out of the same code path.
//!
//! The DFS over the implicit solution graph is driven by an explicit stack
//! (no recursion), so arbitrarily deep solution graphs cannot overflow the
//! call stack. Size thresholds for *large MBP* enumeration (Section 5) are
//! applied inside the engine: almost-satisfying-graph pruning,
//! local-solution pruning, solution pruning and the exclusion-based
//! left-side pruning.

use std::time::Instant;

use bigraph::intersect::{set_thread_kernel, Kernel};
use bigraph::order::{Relabeling, VertexOrder};
use bigraph::{BipartiteGraph, Side, VertexRef};

use crate::biplex::{Biplex, PartialBiplex};
use crate::enum_almost_sat::EnumKind;
use crate::initial::{initial_arbitrary, initial_left_anchored};
use crate::sink::{Control, SolutionSink};
use crate::stats::TraversalStats;
use crate::step::{Expansion, ThreeStep};
use crate::store::{HashStore, SolutionStore};

/// Which designated initial solution the traversal starts from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Anchor {
    /// `H0 = (L0, R)` — the left-anchored proposal of Section 3.2.
    Left,
    /// `H0 = (L, R0)` — the symmetric proposal, evaluated in Section 6.2.
    Right,
    /// Any maximal k-biplex (greedy extension of the empty subgraph) — what
    /// `bTraversal` uses.
    Arbitrary,
}

impl std::fmt::Display for Anchor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Anchor::Left => "left",
            Anchor::Right => "right",
            Anchor::Arbitrary => "arbitrary",
        })
    }
}

impl std::str::FromStr for Anchor {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "left" => Ok(Anchor::Left),
            "right" => Ok(Anchor::Right),
            "arbitrary" => Ok(Anchor::Arbitrary),
            other => Err(format!("unknown anchor {other:?} (expected left, right or arbitrary)")),
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

/// Full configuration of a traversal run.
#[derive(Clone, Debug)]
pub struct TraversalConfig {
    /// The `k` of the k-biplex definition.
    pub k: usize,
    /// Which `EnumAlmostSat` implementation to use (Figure 12 knob).
    pub enum_kind: EnumKind,
    /// Restrict candidate vertices to the left side (left-anchored
    /// traversal, Section 3.3).
    pub left_anchored: bool,
    /// Keep only right-shrinking links (Section 3.4).
    pub right_shrinking: bool,
    /// Enable the exclusion strategy (Section 3.5).
    pub exclusion: bool,
    /// Initial solution.
    pub anchor: Anchor,
    /// Output timing.
    pub emit: EmitMode,
    /// Minimum left-side size of reported MBPs (`0` disables — Section 5).
    pub theta_left: usize,
    /// Minimum right-side size of reported MBPs (`0` disables — Section 5).
    pub theta_right: usize,
    /// Vertex relabeling applied before the run; solutions are mapped back
    /// to the input ids, so the reported set is unchanged.
    pub order: VertexOrder,
    /// Wall-clock deadline checked at every DFS step (how the facade's
    /// `time_budget` reaches a run whose deliveries are sparse or filtered).
    /// `None` disables the check.
    pub deadline: Option<Instant>,
    /// Intersection kernel installed for the run ([`Kernel::Auto`] applies
    /// the measured crossover heuristic; the rest force one kernel for A/B
    /// comparisons — the CLI's `--kernel`).
    pub kernel: Kernel,
}

impl TraversalConfig {
    /// The full `iTraversal` configuration (left-anchored + right-shrinking
    /// + exclusion strategy, `L2.0+R2.0` local enumeration).
    pub fn itraversal(k: usize) -> Self {
        TraversalConfig {
            k,
            enum_kind: EnumKind::L2R2,
            left_anchored: true,
            right_shrinking: true,
            exclusion: true,
            anchor: Anchor::Left,
            emit: EmitMode::Immediate,
            theta_left: 0,
            theta_right: 0,
            order: VertexOrder::Input,
            deadline: None,
            kernel: Kernel::Auto,
        }
    }

    /// `iTraversal-ES`: the full version *without* the exclusion strategy.
    pub fn itraversal_no_exclusion(k: usize) -> Self {
        TraversalConfig { exclusion: false, ..Self::itraversal(k) }
    }

    /// `iTraversal-ES-RS`: left-anchored traversal only (no right-shrinking,
    /// no exclusion strategy).
    pub fn itraversal_left_anchored_only(k: usize) -> Self {
        TraversalConfig { exclusion: false, right_shrinking: false, ..Self::itraversal(k) }
    }

    /// The conventional `bTraversal` framework (Algorithm 1).
    pub fn btraversal(k: usize) -> Self {
        TraversalConfig {
            k,
            enum_kind: EnumKind::L2R2,
            left_anchored: false,
            right_shrinking: false,
            exclusion: false,
            anchor: Anchor::Arbitrary,
            emit: EmitMode::Immediate,
            theta_left: 0,
            theta_right: 0,
            order: VertexOrder::Input,
            deadline: None,
            kernel: Kernel::Auto,
        }
    }

    /// Selects the `EnumAlmostSat` implementation.
    pub fn with_enum_kind(mut self, kind: EnumKind) -> Self {
        self.enum_kind = kind;
        self
    }

    /// Selects the anchor (initial solution).
    pub fn with_anchor(mut self, anchor: Anchor) -> Self {
        self.anchor = anchor;
        self
    }

    /// Selects the emission mode.
    pub fn with_emit(mut self, emit: EmitMode) -> Self {
        self.emit = emit;
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

    /// Sets the wall-clock deadline (`None` disables).
    pub fn with_deadline(mut self, deadline: Option<Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Selects the intersection kernel (default [`Kernel::Auto`]).
    pub fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = kernel;
        self
    }
}

/// The sequential reverse-search engine behind the
/// [`crate::api::Enumerator`] facade. Enumerates maximal k-biplexes of `g`
/// under `config`, delivering them to `sink`, and returns the run
/// statistics.
pub(crate) fn traverse<S: SolutionSink + ?Sized>(
    g: &BipartiteGraph,
    config: &TraversalConfig,
    sink: &mut S,
) -> TraversalStats {
    // A relabeling pass runs the engine on the permuted graph and maps
    // solutions back to the input ids; the canonical solution set is a
    // property of the graph, so it is unchanged.
    if config.order != VertexOrder::Input {
        let relab = Relabeling::compute(g, config.order);
        let rg = relab.apply(g);
        let cfg = TraversalConfig { order: VertexOrder::Input, ..config.clone() };
        let mut map_sink = |b: &Biplex| sink.on_solution(&b.map_back(&relab));
        return traverse(&rg, &cfg, &mut map_sink as &mut dyn SolutionSink);
    }

    // The right-anchored variant is the left-anchored variant on the
    // transposed graph; solutions are flipped back on the way out.
    if config.anchor == Anchor::Right {
        let t = g.transpose();
        let mut cfg = config.clone();
        cfg.anchor = Anchor::Left;
        std::mem::swap(&mut cfg.theta_left, &mut cfg.theta_right);
        let mut flip_sink = |b: &Biplex| sink.on_solution(&b.clone().transpose());
        // Coerce to a trait object so the recursive call does not create an
        // unbounded chain of closure instantiations.
        return traverse(&t, &cfg, &mut flip_sink as &mut dyn SolutionSink);
    }

    // Install the configured intersection kernel for the run; the guard
    // restores the caller's choice so nested/sequential runs with different
    // configs do not leak into each other.
    let _kernel = set_thread_kernel(config.kernel);

    // Right-side candidates (bTraversal) run the step on the transpose.
    let gt = if config.left_anchored { None } else { Some(g.transpose()) };
    let mut engine = Engine {
        g,
        step: ThreeStep {
            g,
            gt: gt.as_ref(),
            k: config.k,
            enum_kind: config.enum_kind,
            right_shrinking: config.right_shrinking,
            theta_right: config.theta_right,
            cancel: None,
        },
        config,
        store: HashStore::new(),
        stats: TraversalStats::default(),
        sink,
        stop: false,
    };
    let initial = match config.anchor {
        Anchor::Left => initial_left_anchored(g, config.k),
        Anchor::Arbitrary => initial_arbitrary(g, config.k),
        Anchor::Right => unreachable!("handled above"),
    };
    engine.run(initial);
    engine.stats
}

/// Crate-internal test helpers shared by the unit-test modules of other
/// files.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// All MBPs under the default `iTraversal`, sorted canonically.
    pub(crate) fn enumerate_all(g: &BipartiteGraph, k: usize) -> Vec<Biplex> {
        let mut sink = crate::sink::CollectSink::new();
        traverse(g, &TraversalConfig::itraversal(k), &mut sink);
        sink.into_sorted()
    }
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

struct Engine<'a, S: SolutionSink + ?Sized> {
    g: &'a BipartiteGraph,
    /// The `iThreeStep` applied to every (solution, candidate) pair.
    step: ThreeStep<'a>,
    config: &'a TraversalConfig,
    store: HashStore,
    stats: TraversalStats,
    sink: &'a mut S,
    stop: bool,
}

impl<S: SolutionSink + ?Sized> Engine<'_, S> {
    fn run(&mut self, initial: Biplex) {
        self.store.insert(&initial);
        self.stats.solutions = 1;
        if self.config.emit == EmitMode::Immediate {
            self.emit(&initial);
        }
        let mut stack: Vec<Frame> = Vec::new();
        if let Some(frame) = self.make_frame(initial, Vec::new(), 0) {
            stack.push(frame);
        }

        while !self.stop {
            // Deadline boundary: a budgeted run winds down here even when
            // no solution ever reaches the sink (e.g. thresholds filter
            // everything out).
            if self.config.deadline.is_some_and(|d| Instant::now() >= d) {
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
                    if self.config.exclusion {
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
                    if self.config.emit == EmitMode::Alternating && frame.depth % 2 == 1 {
                        self.emit(&frame.partial.to_biplex());
                    }
                }
            }
        }
    }

    /// Reports a solution to the sink, applying the size filter.
    fn emit(&mut self, solution: &Biplex) {
        if solution.left.len() >= self.config.theta_left
            && solution.right.len() >= self.config.theta_right
        {
            self.stats.reported += 1;
            if self.sink.on_solution(solution) == Control::Stop {
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
        let cfg = self.config;
        // Solution pruning: with right-shrinking traversal every descendant
        // has a right side no larger than this one.
        if cfg.theta_right > 0 && cfg.right_shrinking && solution.right.len() < cfg.theta_right {
            self.stats.pruned_size += 1;
            if cfg.emit == EmitMode::Alternating {
                self.emit(&solution);
            }
            return None;
        }
        // Left-side pruning via the exclusion set.
        if cfg.theta_left > 0
            && cfg.exclusion
            && (self.g.num_left() as usize).saturating_sub(exclusion.len()) < cfg.theta_left
        {
            self.stats.pruned_size += 1;
            if cfg.emit == EmitMode::Alternating {
                self.emit(&solution);
            }
            return None;
        }
        if cfg.emit == EmitMode::Alternating && depth % 2 == 0 {
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
        let limit = if self.config.left_anchored { num_left } else { num_left + num_right };
        while frame.next_candidate < limit {
            let pos = frame.next_candidate;
            frame.next_candidate += 1;
            if pos < num_left {
                let v = pos as u32;
                if frame.partial.contains_left(v) {
                    continue;
                }
                if self.config.exclusion && frame.exclusion.binary_search(&v).is_ok() {
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
        let Engine { step, config, store, stats, sink, stop, .. } = self;
        let cfg: &TraversalConfig = config;
        let children = &mut frame.current_children;
        let outcome = step.expand(
            &frame.partial,
            cand,
            &frame.exclusion,
            stats,
            |solution| store.insert(solution),
            |solution, stats| {
                if cfg.emit == EmitMode::Immediate
                    && solution.left.len() >= cfg.theta_left
                    && solution.right.len() >= cfg.theta_right
                {
                    stats.reported += 1;
                    if sink.on_solution(&solution) == Control::Stop {
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
            Expansion::Stopped => *stop = true,
            Expansion::Done => {}
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bruteforce::brute_force_mbps;
    use crate::sink::{CollectSink, CountingSink, FirstN};
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

    fn run_sorted(g: &BipartiteGraph, cfg: &TraversalConfig) -> Vec<Biplex> {
        let mut sink = CollectSink::new();
        traverse(g, cfg, &mut sink);
        sink.into_sorted()
    }

    fn all_configs(k: usize) -> Vec<(&'static str, TraversalConfig)> {
        vec![
            ("iTraversal", TraversalConfig::itraversal(k)),
            ("iTraversal-ES", TraversalConfig::itraversal_no_exclusion(k)),
            ("iTraversal-ES-RS", TraversalConfig::itraversal_left_anchored_only(k)),
            ("bTraversal", TraversalConfig::btraversal(k)),
            ("right-anchored", TraversalConfig::itraversal(k).with_anchor(Anchor::Right)),
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
                for (name, cfg) in all_configs(k) {
                    let got = run_sorted(&g, &cfg);
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
                    for (name, cfg) in all_configs(k) {
                        let got = run_sorted(&g, &cfg);
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
                let expected = run_sorted(&g, &TraversalConfig::itraversal(k));
                for order in [VertexOrder::Degree, VertexOrder::Degeneracy] {
                    let cfg = TraversalConfig::itraversal(k).with_order(order);
                    assert_eq!(run_sorted(&g, &cfg), expected, "seed {seed} k {k} order {order}");
                    let cfg = TraversalConfig::btraversal(k).with_order(order);
                    assert_eq!(
                        run_sorted(&g, &cfg),
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
        let cfg = TraversalConfig::itraversal(k).with_order(VertexOrder::Degeneracy);
        let mut sink = FirstN::new(3);
        let stats = traverse(&g, &cfg, &mut sink);
        assert_eq!(sink.len(), 3);
        assert!(stats.stopped_early);
        for b in &sink.solutions {
            assert!(crate::biplex::is_maximal_k_biplex(&g, &b.left, &b.right, k));
        }

        let all = tests_support::enumerate_all(&g, k);
        let mut expected: Vec<Biplex> =
            all.into_iter().filter(|b| b.left.len() >= 2 && b.right.len() >= 2).collect();
        expected.sort();
        let cfg = cfg.with_thresholds(2, 2);
        assert_eq!(run_sorted(&g, &cfg), expected);
    }

    #[test]
    fn alternating_emission_reports_the_same_set() {
        for seed in 0..6u64 {
            let g = random_graph(5, 5, 0.5, seed);
            let k = 1;
            let immediate = run_sorted(&g, &TraversalConfig::itraversal(k));
            let alternating =
                run_sorted(&g, &TraversalConfig::itraversal(k).with_emit(EmitMode::Alternating));
            assert_eq!(immediate, alternating, "seed {seed}");
        }
    }

    #[test]
    fn every_enum_kind_gives_the_same_answer() {
        let g = random_graph(6, 6, 0.5, 3);
        let k = 1;
        let expected = brute_force_mbps(&g, k);
        for kind in EnumKind::ALL {
            let cfg = TraversalConfig::itraversal(k).with_enum_kind(kind);
            assert_eq!(run_sorted(&g, &cfg), expected, "kind {kind:?}");
        }
        for kind in EnumKind::ALL {
            let cfg = TraversalConfig::btraversal(k).with_enum_kind(kind);
            assert_eq!(run_sorted(&g, &cfg), expected, "bTraversal kind {kind:?}");
        }
    }

    #[test]
    fn first_n_stops_early() {
        let g = random_graph(7, 7, 0.5, 11);
        let k = 1;
        let all = tests_support::enumerate_all(&g, k);
        assert!(all.len() > 3, "fixture should have enough solutions");
        let mut sink = FirstN::new(3);
        let stats = traverse(&g, &TraversalConfig::itraversal(k), &mut sink);
        assert_eq!(sink.len(), 3);
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
            let k = 1;
            let count = |cfg: &TraversalConfig| {
                let mut sink = CountingSink::new();
                let stats = traverse(&g, cfg, &mut sink);
                (stats.links, sink.count)
            };
            let (full, n_full) = count(&TraversalConfig::itraversal(k));
            let (no_es, n_no_es) = count(&TraversalConfig::itraversal_no_exclusion(k));
            let (la_only, n_la) = count(&TraversalConfig::itraversal_left_anchored_only(k));
            let (btrav, n_b) = count(&TraversalConfig::btraversal(k));
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
        let mut sink = CountingSink::new();
        let stats = traverse(&g, &TraversalConfig::itraversal(1), &mut sink);
        assert_eq!(stats.solutions, sink.count);
        assert_eq!(stats.reported, sink.count);
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
            assert_eq!(run_sorted(&g, &TraversalConfig::itraversal(k)), expected, "k {k}");
        }
        // Single-vertex sides.
        let g = BipartiteGraph::from_edges(1, 1, &[(0, 0)]).unwrap();
        let got = run_sorted(&g, &TraversalConfig::itraversal(1));
        assert_eq!(got, vec![Biplex::new(vec![0], vec![0])]);
        // Empty graph.
        let g = BipartiteGraph::from_edges(0, 0, &[]).unwrap();
        let got = run_sorted(&g, &TraversalConfig::itraversal(1));
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
            let got = run_sorted(&g, &TraversalConfig::itraversal(k));
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].left.len(), 4);
            assert_eq!(got[0].right.len(), 5);
        }
    }

    #[test]
    fn size_thresholds_match_post_filtering() {
        for seed in 0..10u64 {
            let g = random_graph(6, 6, 0.6, seed);
            let k = 1;
            for (tl, tr) in [(2, 2), (3, 2), (2, 3), (3, 3)] {
                let all = tests_support::enumerate_all(&g, k);
                let mut expected: Vec<Biplex> =
                    all.into_iter().filter(|b| b.left.len() >= tl && b.right.len() >= tr).collect();
                expected.sort();
                let cfg = TraversalConfig::itraversal(k).with_thresholds(tl, tr);
                let got = run_sorted(&g, &cfg);
                assert_eq!(got, expected, "seed {seed} θ=({tl},{tr})");
            }
        }
    }
}
