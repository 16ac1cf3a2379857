//! The `iThreeStep` of Algorithm 2: the one expansion step every engine
//! applies at every solution.
//!
//! For a host solution H and a candidate vertex v outside it, the step
//!
//! 1. applies the almost-satisfying-graph pruning of Section 5 to v;
//! 2. forms the almost-satisfying graph `G[L_H ∪ {v}, R_H]` and enumerates
//!    its local solutions with `EnumAlmostSat` in the variant the paper
//!    ships, L2.0+R2.0 (Algorithm 3; the other variants of Figure 12 are
//!    measured at the procedure level only);
//! 3. for every local solution: the exclusion check, the local-solution
//!    pruning of Section 5, the right-shrinking test (Algorithm 2 line 7),
//!    the extension to a maximal k-biplex of G, the exclusion check again,
//!    and a claim in the caller's dedup target.
//!
//! The step takes per-side budgets `(k_L, k_R)`; every algorithm but
//! bTraversal with a `k_pair` runs it with `k_L = k_R = k`. A right-side
//! candidate (bTraversal) runs the left-oriented `EnumAlmostSat` on the
//! transposed graph, with the flipped host and the swapped pair.
//!
//! The engines differ only in what surrounds the step. The sequential DFS
//! ([`crate::traversal`]) passes the full exclusion set ℰ(H) and claims in
//! a [`HashStore`](crate::store::HashStore); the work-stealer
//! ([`crate::parallel`]) passes the host-local slice of ℰ(H) and claims in
//! the shared, shard-locked
//! [`ConcurrentSeenSet`](crate::parallel::seen::ConcurrentSeenSet); the
//! ablations without the exclusion strategy pass an empty slice.

use bigraph::intersect::intersects;
use bigraph::{BipartiteGraph, Side, VertexRef};

use crate::biplex::{sorted_intersection_len, Biplex, KPair, PartialBiplex};
use crate::enum_almost_sat::{enum_almost_sat, EnumKind};
use crate::extend::{extend_to_maximal, right_extension_candidates, ExtendMode};
use crate::parallel::is_raised;
use crate::sink::Control;
use crate::stats::TraversalStats;
use crate::sync::atomic::AtomicBool;

/// The fixed rules of one run's `iThreeStep`.
pub(crate) struct ThreeStep<'a> {
    /// The graph being enumerated.
    pub g: &'a BipartiteGraph,
    /// Its transpose, present only when right-side candidates are expanded
    /// (bTraversal): the left-oriented `EnumAlmostSat` then runs on it with
    /// the flipped host.
    pub gt: Option<&'a BipartiteGraph>,
    /// The miss budgets: `k_L = k_R = k` of the k-biplex definition, or a
    /// `k_pair`.
    pub kp: KPair,
    /// Right-shrinking traversal (Section 3.4): keep only links whose local
    /// solution admits no right vertex of G, and extend on the left only.
    /// Off means both-side extension and no size pruning.
    pub right_shrinking: bool,
    /// Minimum right-side size θ_R of a large-MBP run (`0` disables the
    /// almost-satisfying-graph and local-solution prunings).
    pub theta_right: usize,
    /// Shared stop flag polled between local solutions; a raised flag
    /// abandons the step.
    pub cancel: &'a AtomicBool,
}

/// How one [`ThreeStep::expand`] call ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Expansion {
    /// The almost-satisfying-graph pruning discarded the candidate: no
    /// local solution was formed, so it must not join ℰ(H).
    Pruned,
    /// Every local solution of the candidate was handled.
    Done,
    /// The caller or the cancel flag stopped the step part-way.
    Stopped,
}

impl ThreeStep<'_> {
    /// `true` once the shared stop flag is raised.
    pub(crate) fn cancelled(&self) -> bool {
        is_raised(self.cancel)
    }

    /// Runs the step for candidate `cand` of `host`, pruning against
    /// `exclusion` (sorted left ids). Every link that survives the prunings
    /// is offered to `claim`, which returns `true` exactly once per distinct
    /// solution; each newly claimed solution goes to `on_new`, which may
    /// stop the step. All counters land in `stats`.
    pub(crate) fn expand<C, N>(
        &self,
        host: &PartialBiplex,
        cand: VertexRef,
        exclusion: &[u32],
        stats: &mut TraversalStats,
        mut claim: C,
        mut on_new: N,
    ) -> Expansion
    where
        C: FnMut(&Biplex) -> bool,
        N: FnMut(Biplex, &mut TraversalStats) -> Control,
    {
        let (g, kp) = (self.g, self.kp);
        // Almost-satisfying-graph pruning (Section 5): every solution
        // reached through v keeps v on its left side and, under
        // right-shrinking, a right side within N(v, R_H) plus at most k_L
        // non-neighbours.
        if cand.side == Side::Left && self.theta_right > 0 && self.right_shrinking {
            let deg_in_r = sorted_intersection_len(g.left_neighbors(cand.id), host.right());
            if deg_in_r + kp.left < self.theta_right {
                stats.pruned_size += 1;
                return Expansion::Pruned;
            }
        }
        stats.almost_sat_graphs += 1;

        let flipped_host;
        let (enum_graph, enum_kp, enum_host, flip) = match cand.side {
            Side::Left => (g, kp, host, false),
            Side::Right => {
                let Some(gt) = self.gt else {
                    unreachable!("the transpose is built when right candidates are enabled")
                };
                flipped_host = host.flipped();
                (gt, kp.transpose(), &flipped_host, true)
            }
        };

        let mut stopped = false;
        let almost_stats =
            enum_almost_sat(enum_graph, enum_kp, EnumKind::L2R2, enum_host, cand.id, |local| {
                if stopped || self.cancelled() {
                    stopped = true;
                    return false;
                }
                let local = if flip { local.transpose() } else { local };
                stats.local_solutions += 1;

                // Exclusion strategy: the extension keeps `local.left`, so a
                // hit here prunes the link before the right-shrinking test
                // and the extension are paid for.
                if intersects(&local.left, exclusion) {
                    stats.pruned_exclusion += 1;
                    return true;
                }

                // Local-solution pruning (Section 5): under right-shrinking
                // the final right side equals the local one.
                if self.theta_right > 0
                    && self.right_shrinking
                    && local.right.len() < self.theta_right
                {
                    stats.pruned_size += 1;
                    return true;
                }

                let mut partial = PartialBiplex::from_sets(g, &local.left, &local.right);

                // Right-shrinking traversal (Algorithm 2 line 7): discard the
                // local solution if a right vertex of G outside it can be
                // added.
                if self.right_shrinking && exists_addable_right_outside(g, &partial, host, kp) {
                    stats.pruned_right_shrinking += 1;
                    return true;
                }

                let mode =
                    if self.right_shrinking { ExtendMode::LeftOnly } else { ExtendMode::BothSides };
                extend_to_maximal(g, &mut partial, kp, mode);
                let solution = partial.to_biplex();

                // Exclusion on the extended solution: the extension may pull
                // in an excluded left vertex the local solution lacked.
                if intersects(&solution.left, exclusion) {
                    stats.pruned_exclusion += 1;
                    return true;
                }

                stats.links += 1;
                if !claim(&solution) {
                    stats.duplicate_links += 1;
                    return true;
                }
                stats.solutions += 1;
                if on_new(solution, stats) == Control::Stop {
                    stopped = true;
                    return false;
                }
                true
            });
        stats.almost_sat.absorb(&almost_stats);
        if stopped {
            Expansion::Stopped
        } else {
            Expansion::Done
        }
    }
}

/// `true` iff some right vertex of `G` outside both the local solution and
/// the host solution can be added to `partial` within the budgets (the
/// right-shrinking test of Algorithm 2 line 7; right vertices of the host
/// outside the local solution need not be tested because the local
/// solution is maximal within the almost-satisfying graph).
fn exists_addable_right_outside(
    g: &BipartiteGraph,
    partial: &PartialBiplex,
    host: &PartialBiplex,
    kp: KPair,
) -> bool {
    if g.num_right() as usize == partial.right().len() {
        return false;
    }
    // A saturated left vertex (miss count = k_L) only tolerates additions
    // adjacent to it, so its adjacency list bounds the candidates.
    let saturated = (0..partial.left().len()).find(|&i| partial.left_miss(i) as usize >= kp.left);
    match saturated {
        Some(i) => {
            let anchor = partial.left()[i];
            for &u in g.left_neighbors(anchor) {
                if !partial.contains_right(u)
                    && !host.contains_right(u)
                    && partial.can_add_right(g, u, kp)
                {
                    return true;
                }
            }
            false
        }
        None => {
            if partial.left().len() <= kp.right {
                // No left vertex is saturated and a right vertex tolerates
                // |L| ≤ k_R misses, so *any* right vertex outside the local
                // solution can be added — and one exists by the size check
                // at the top of this function.
                true
            } else {
                // A candidate misses |L| − hits ≤ k_R left vertices, and
                // every left vertex is below its budget, so each candidate
                // outside both solutions can be added: the filter's count
                // stands in for the intersection and the budget walk of
                // `can_add_right`.
                let l = partial.left().len();
                right_extension_candidates(g, partial.left(), kp.right).into_iter().any(
                    |(u, hits)| {
                        let outside = !partial.contains_right(u) && !host.contains_right(u);
                        debug_assert!(
                            !outside
                                || partial.can_add_right_with_misses(g, u, l - hits as usize, kp)
                        );
                        outside
                    },
                )
            }
        }
    }
}
