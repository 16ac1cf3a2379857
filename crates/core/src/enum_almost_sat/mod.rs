//! The `EnumAlmostSat` procedure (Section 4 of the paper).
//!
//! Given a solution `H = (L, R)` (a k-biplex) and a new left vertex
//! `v ∉ L`, the *almost-satisfying graph* is `G[L ∪ {v} ∪ R]`. The
//! procedure enumerates every *local solution*: a k-biplex that contains
//! `v` and is maximal **within the almost-satisfying graph** (it may or may
//! not be maximal within `G`).
//!
//! Five implementations are provided, matching the paper's Figure 12:
//!
//! * the refined enumerations `L1.0/R1.0`, `L1.0/R2.0`, `L2.0/R1.0`,
//!   `L2.0/R2.0` (Sections 4.1–4.4), implemented in [`refined`];
//! * `Inflation`, which inflates the almost-satisfying graph and enumerates
//!   maximal (k+1)-plexes containing `v` with the `kplex` crate — the
//!   implementation the paper attributes to the original `bTraversal`.
//!
//! The engines always run `L2.0/R2.0`, the variant the paper ships; the
//! others are compared at the procedure level (`fig12_enumalmostsat`, the
//! `enumalmostsat` bench), which is what Figure 12 measures.
//!
//! The refined variants also take per-side budgets `(k_L, k_R)`: the new
//! vertex's budget `k_L` bounds how many of its non-neighbours a local
//! solution keeps, and `k_R` decides which of those are saturated (see
//! [`refined`]). `Inflation` handles the symmetric budget only: a k-biplex
//! is a (k+1)-plex of the inflated graph, and no plex covers two budgets.
//!
//! New vertices on the *right* side (needed by `bTraversal`, which forms
//! almost-satisfying graphs from both sides) are handled by the caller via
//! the transposed graph and [`PartialBiplex::flipped`] (see the shared
//! `iThreeStep`, `ThreeStep::expand` in the crate-private `step` module).

pub mod inflation;
pub mod refined;

use bigraph::BipartiteGraph;

use crate::biplex::{Biplex, KPair, PartialBiplex};

/// Which `EnumAlmostSat` implementation to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EnumKind {
    /// Refined enumeration on `L` 1.0 + on `R` 1.0 (no Lemma 4.2 pruning,
    /// no superset pruning).
    L1R1,
    /// `L` 1.0 + `R` 2.0 (Lemma 4.2 pruning on the right side).
    L1R2,
    /// `L` 2.0 + `R` 1.0 (superset pruning on the left side).
    L2R1,
    /// `L` 2.0 + `R` 2.0 — the algorithm the paper ships (Algorithm 3).
    L2R2,
    /// Graph inflation + local maximal (k+1)-plex enumeration.
    Inflation,
}

impl EnumKind {
    /// All variants, in the order used by the Figure 12 experiment.
    pub const ALL: [EnumKind; 5] =
        [EnumKind::L1R1, EnumKind::L1R2, EnumKind::L2R1, EnumKind::L2R2, EnumKind::Inflation];

    /// Human-readable label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            EnumKind::L1R1 => "L1.0+R1.0",
            EnumKind::L1R2 => "L1.0+R2.0",
            EnumKind::L2R1 => "L2.0+R1.0",
            EnumKind::L2R2 => "L2.0+R2.0",
            EnumKind::Inflation => "Inflation",
        }
    }
}

/// Work counters for one `EnumAlmostSat` invocation (accumulated across a
/// traversal by [`crate::stats::TraversalStats`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AlmostSatStats {
    /// Subsets `R''` of `R_enum` examined.
    pub r_combinations: u64,
    /// Removal sets `L̄'` examined.
    pub l_candidates: u64,
    /// Local solutions reported.
    pub local_solutions: u64,
}

impl AlmostSatStats {
    /// Accumulates another invocation's counters.
    pub fn absorb(&mut self, other: &AlmostSatStats) {
        self.r_combinations += other.r_combinations;
        self.l_candidates += other.l_candidates;
        self.local_solutions += other.local_solutions;
    }
}

/// Enumerates the local solutions of the almost-satisfying graph
/// `(host.left ∪ {v}, host.right)` where `v` is a **left** vertex of `g`
/// not contained in `host.left`, and `host` is a k-biplex of `g` (a
/// (k_L, k_R)-biplex for a budget pair).
///
/// Each local solution is passed to `emit` (its left side contains `v`).
/// `emit` returns `false` to stop the enumeration early (propagating the
/// caller's "first N results" cut-off into the innermost loops, which is
/// what keeps the delay small in practice).
///
/// Returns the per-invocation statistics. Panics if `kind` is
/// [`EnumKind::Inflation`] and the budgets differ.
pub fn enum_almost_sat<F>(
    g: &BipartiteGraph,
    k: impl Into<KPair>,
    kind: EnumKind,
    host: &PartialBiplex,
    v: u32,
    emit: F,
) -> AlmostSatStats
where
    F: FnMut(Biplex) -> bool,
{
    let kp = k.into();
    debug_assert!(!host.contains_left(v), "v must be outside the host solution");
    debug_assert!(host.is_k_biplex(kp), "the host must be within the budgets");
    match kind {
        EnumKind::Inflation => {
            assert_eq!(kp.left, kp.right, "inflation only encodes a symmetric budget");
            inflation::enumerate(g, kp.left, host, v, emit)
        }
        _ => refined::enumerate(g, kp, kind, host, v, emit),
    }
}

/// Collects the local solutions into a vector (convenience for tests and
/// small harness utilities).
pub fn collect_local_solutions(
    g: &BipartiteGraph,
    k: impl Into<KPair>,
    kind: EnumKind,
    host: &PartialBiplex,
    v: u32,
) -> (Vec<Biplex>, AlmostSatStats) {
    let mut out = Vec::new();
    let stats = enum_almost_sat(g, k, kind, host, v, |b| {
        out.push(b);
        true
    });
    (out, stats)
}

/// Reference implementation used by tests: checks whether `(left, right)`
/// is a local solution of the almost-satisfying graph
/// `(host_left ∪ {v}, host_right)` — i.e. a k-biplex (or (k_L, k_R)-biplex)
/// containing `v` that is maximal with respect to adding any vertex of the
/// almost-satisfying graph.
pub fn is_local_solution(
    g: &BipartiteGraph,
    k: impl Into<KPair>,
    host_left: &[u32],
    host_right: &[u32],
    v: u32,
    left: &[u32],
    right: &[u32],
) -> bool {
    let kp = k.into();
    if !left.contains(&v) {
        return false;
    }
    if !crate::biplex::is_k_biplex(g, left, right, kp) {
        return false;
    }
    let partial = PartialBiplex::from_sets(g, left, right);
    // Maximality within the almost-satisfying universe.
    for &w in host_left.iter().chain(std::iter::once(&v)) {
        if !partial.contains_left(w) && partial.can_add_left(g, w, kp) {
            return false;
        }
    }
    for &u in host_right {
        if !partial.contains_right(u) && partial.can_add_right(g, u, kp) {
            return false;
        }
    }
    true
}

/// Brute-force local enumeration used as a test oracle: enumerates every
/// subset pair of the almost-satisfying graph (exponential — only for tiny
/// hosts) and keeps the local solutions.
pub fn brute_force_local_solutions(
    g: &BipartiteGraph,
    k: impl Into<KPair>,
    host_left: &[u32],
    host_right: &[u32],
    v: u32,
) -> Vec<Biplex> {
    assert!(host_left.len() <= 12 && host_right.len() <= 12);
    let kp = k.into();
    let mut out = Vec::new();
    for lmask in 0u32..(1 << host_left.len()) {
        let mut left: Vec<u32> = host_left
            .iter()
            .enumerate()
            .filter_map(|(i, &w)| (lmask & (1 << i) != 0).then_some(w))
            .collect();
        left.push(v);
        left.sort_unstable();
        for rmask in 0u32..(1 << host_right.len()) {
            let right: Vec<u32> = host_right
                .iter()
                .enumerate()
                .filter_map(|(i, &u)| (rmask & (1 << i) != 0).then_some(u))
                .collect();
            if is_local_solution(g, kp, host_left, host_right, v, &left, &right) {
                out.push(Biplex::new(left.clone(), right));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Builds a random host solution: a maximal k-biplex (or
    /// (k_L, k_R)-biplex) of the graph.
    fn random_host(g: &BipartiteGraph, k: impl Into<KPair>, seed: u64) -> PartialBiplex {
        use crate::extend::{extend_to_maximal, ExtendMode};
        let kp = k.into();
        let mut rng = StdRng::seed_from_u64(seed);
        let v = rng.gen_range(0..g.num_left());
        let u = rng.gen_range(0..g.num_right());
        let mut p = if g.has_edge(v, u) || (kp.left >= 1 && kp.right >= 1) {
            PartialBiplex::from_sets(g, &[v], &[u])
        } else {
            PartialBiplex::from_sets(g, &[v], &[])
        };
        extend_to_maximal(g, &mut p, kp, ExtendMode::BothSides);
        p
    }

    #[test]
    fn every_refined_variant_matches_the_brute_force_oracle() {
        let pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)];
        for seed in 0..25u64 {
            let g = random_graph(6, 6, 0.55, seed);
            for (i, kp) in pairs.map(|(kl, kr)| KPair::new(kl, kr)).into_iter().enumerate() {
                let host = random_host(&g, kp, seed * 31 + i as u64);
                // Pick a left vertex outside the host, if any.
                let v = (0..g.num_left()).find(|&v| !host.contains_left(v));
                let Some(v) = v else { continue };
                let expected = brute_force_local_solutions(&g, kp, host.left(), host.right(), v);
                for kind in EnumKind::ALL {
                    // Inflation encodes one budget for both sides.
                    if kind == EnumKind::Inflation && kp.left != kp.right {
                        continue;
                    }
                    let (mut got, _) = collect_local_solutions(&g, kp, kind, &host, v);
                    got.sort();
                    got.dedup();
                    assert_eq!(
                        got,
                        expected,
                        "seed {seed} {kp:?} kind {kind:?} host=({:?},{:?}) v={v}",
                        host.left(),
                        host.right()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "symmetric budget")]
    fn inflation_rejects_asymmetric_budgets() {
        let g = random_graph(4, 4, 0.5, 3);
        let host = PartialBiplex::from_sets(&g, &[], &[]);
        enum_almost_sat(&g, KPair::new(1, 2), EnumKind::Inflation, &host, 0, |_| true);
    }

    #[test]
    fn emitted_solutions_are_local_solutions() {
        for seed in 100..110u64 {
            let g = random_graph(8, 8, 0.5, seed);
            let k = 1;
            let host = random_host(&g, k, seed);
            let Some(v) = (0..g.num_left()).find(|&v| !host.contains_left(v)) else {
                continue;
            };
            let (got, stats) = collect_local_solutions(&g, k, EnumKind::L2R2, &host, v);
            assert_eq!(stats.local_solutions as usize, got.len());
            for sol in got {
                assert!(sol.contains_left(v));
                assert!(is_local_solution(
                    &g,
                    k,
                    host.left(),
                    host.right(),
                    v,
                    &sol.left,
                    &sol.right
                ));
            }
        }
    }

    #[test]
    fn early_stop_propagates() {
        let g = random_graph(8, 8, 0.5, 7);
        let k = 2;
        let host = random_host(&g, k, 7);
        let Some(v) = (0..g.num_left()).find(|&v| !host.contains_left(v)) else {
            return;
        };
        let mut seen = 0;
        enum_almost_sat(&g, k, EnumKind::L2R2, &host, v, |_| {
            seen += 1;
            seen < 2
        });
        assert!(seen <= 2);
    }

    #[test]
    fn pruned_variants_do_no_more_work() {
        // R2.0 must examine at most as many R'' combinations as R1.0, and
        // L2.0 at most as many removal sets as L1.0.
        for seed in 0..10u64 {
            let g = random_graph(7, 7, 0.5, seed);
            let k = 2;
            let host = random_host(&g, k, seed + 99);
            let Some(v) = (0..g.num_left()).find(|&v| !host.contains_left(v)) else {
                continue;
            };
            let (_, s11) = collect_local_solutions(&g, k, EnumKind::L1R1, &host, v);
            let (_, s12) = collect_local_solutions(&g, k, EnumKind::L1R2, &host, v);
            let (_, s21) = collect_local_solutions(&g, k, EnumKind::L2R1, &host, v);
            let (_, s22) = collect_local_solutions(&g, k, EnumKind::L2R2, &host, v);
            assert!(s12.r_combinations <= s11.r_combinations, "seed {seed}");
            assert!(s22.r_combinations <= s21.r_combinations, "seed {seed}");
            assert!(s21.l_candidates <= s11.l_candidates, "seed {seed}");
            assert!(s22.l_candidates <= s12.l_candidates, "seed {seed}");
            assert_eq!(s11.local_solutions, s22.local_solutions, "seed {seed}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            EnumKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), EnumKind::ALL.len());
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = AlmostSatStats { r_combinations: 1, l_candidates: 2, local_solutions: 3 };
        let b = AlmostSatStats { r_combinations: 10, l_candidates: 20, local_solutions: 30 };
        a.absorb(&b);
        assert_eq!(a.r_combinations, 11);
        assert_eq!(a.l_candidates, 22);
        assert_eq!(a.local_solutions, 33);
    }
}
