//! The refined `EnumAlmostSat` enumerations of Sections 4.1–4.4
//! (Algorithm 3), parameterized by the four `L{1,2}.0 + R{1,2}.0` variants.
//!
//! Outline (new vertex `v` on the left, host solution `(L, R)`):
//!
//! 1. `R` is split into `R_keep` (neighbours of `v`; in every local solution
//!    by Lemma 4.1) and `R_enum` (non-neighbours of `v`).
//! 2. Subsets `R'' ⊆ R_enum` with `|R''| ≤ k` are enumerated. The R2.0
//!    refinement partitions `R_enum` into `R¹` (`δ̄(u,L) ≤ k−1`) and `R²`
//!    (`δ̄(u,L) = k`) and skips — by Lemma 4.2 — every combination with
//!    `|R''| < k` that does not contain the whole of `R¹`.
//! 3. For each `R' = R_keep ∪ R''`, the only vertices violating the
//!    k-biplex condition in `(L ∪ {v}, R')` are the `R²`-members of `R''`
//!    (Lemma 4.3); they are repaired by removing a set `L̄'` of at most
//!    `|R'' ∩ R²|` vertices chosen from `L_remo` (the vertices missing at
//!    least one violator). The L2.0 refinement prunes supersets of removal
//!    sets that already produced a local solution.
//! 4. Each candidate `(L \ L̄' ∪ {v}, R')` is kept iff it is a *local
//!    solution*; the checks below exploit the structure of the
//!    almost-satisfying graph so that each candidate costs `O(k²)` after an
//!    `O(Σ deg)` per-invocation precomputation (rather than the naive
//!    `O(|L|·|R|)` bound used in the paper's analysis).
//!
//! Per-side budgets `(k_L, k_R)` need no other change than putting each
//! budget where it belongs. `v` is a left vertex, so `k_L` bounds `|R''|`:
//! it sizes cases A and B, Lemma 4.2's doomed combinations (`|R''| < k_L`)
//! and the right-maximality test (c). The members of `R` are right
//! vertices, so `k_R` splits `R¹` (`δ̄(u,L) < k_R`) from `R²`
//! (`δ̄(u,L) = k_R`), which fixes the violators of Lemma 4.3 and with them
//! the left-maximality test (b). With `k_L = k_R = k` this is the paper's
//! procedure.

use bigraph::BipartiteGraph;

use crate::biplex::{Biplex, KPair, PartialBiplex};

use super::{AlmostSatStats, EnumKind};

/// Runs the refined enumeration. See the module documentation.
pub(super) fn enumerate<F>(
    g: &BipartiteGraph,
    kp: KPair,
    kind: EnumKind,
    host: &PartialBiplex,
    v: u32,
    mut emit: F,
) -> AlmostSatStats
where
    F: FnMut(Biplex) -> bool,
{
    let l2 = matches!(kind, EnumKind::L2R1 | EnumKind::L2R2);
    let r2_refined = matches!(kind, EnumKind::L1R2 | EnumKind::L2R2);
    let mut stats = AlmostSatStats::default();

    // ---- Step 1: partition R into R_keep / R_enum -------------------------
    let nbrs = g.left_neighbors(v);
    let mut r_keep: Vec<u32> = Vec::new();
    let mut r_enum: Vec<(u32, u32)> = Vec::new(); // (vertex, δ̄(u, L))
    let mut ni = 0;
    for (idx, &u) in host.right().iter().enumerate() {
        while ni < nbrs.len() && nbrs[ni] < u {
            ni += 1;
        }
        if ni < nbrs.len() && nbrs[ni] == u {
            r_keep.push(u);
        } else {
            r_enum.push((u, host.right_miss(idx)));
        }
    }

    // v's budget k_L bounds |R''|.
    let k = kp.left;
    // R¹ (slack remaining) and R² (saturated at k_R) within R_enum.
    let r1: Vec<u32> =
        r_enum.iter().filter(|&&(_, m)| (m as usize) < kp.right).map(|&(u, _)| u).collect();
    let r2: Vec<u32> =
        r_enum.iter().filter(|&&(_, m)| m as usize == kp.right).map(|&(u, _)| u).collect();

    // Precompute |N(w) ∩ R²| for every host-left vertex `w` (by position in
    // host.left()). Used by the O(k²) right-maximality test.
    let mut adj_r2 = vec![0u32; host.left().len()];
    for &u in &r2 {
        for &w in g.right_neighbors(u) {
            if let Ok(pos) = host.left().binary_search(&w) {
                adj_r2[pos] += 1;
            }
        }
    }

    let ctx = ComboContext {
        g,
        k,
        l2,
        host,
        v,
        r_keep: &r_keep,
        r1_len: r1.len(),
        r2_all: &r2,
        adj_r2: &adj_r2,
    };

    // ---- Step 2: enumerate R'' combinations --------------------------------
    let mut stopped = false;
    if r2_refined {
        // Case A: R''₁ = R¹ entirely (possible only when |R¹| ≤ k_L), any
        // R''₂ with |R¹| + |R''₂| ≤ k_L.
        if r1.len() <= k && !stopped {
            let budget = k - r1.len();
            for s2 in 0..=budget.min(r2.len()) {
                if stopped {
                    break;
                }
                for_each_subset(&r2, s2, &mut |r2_part| {
                    let cont = ctx.process_combo(&r1, r2_part, &mut stats, &mut emit);
                    if !cont {
                        stopped = true;
                    }
                    cont
                });
            }
        }
        // Case B: |R''| = k_L with a proper subset of R¹.
        for t1 in 0..=k.min(r1.len()) {
            if stopped {
                break;
            }
            if t1 == r1.len() && r1.len() <= k {
                continue; // covered by case A
            }
            let s2 = k - t1;
            if s2 > r2.len() {
                continue;
            }
            for_each_subset(&r1, t1, &mut |r1_part| {
                let mut keep_going = true;
                for_each_subset(&r2, s2, &mut |r2_part| {
                    let cont = ctx.process_combo(r1_part, r2_part, &mut stats, &mut emit);
                    if !cont {
                        stopped = true;
                        keep_going = false;
                    }
                    cont
                });
                keep_going && !stopped
            });
        }
    } else {
        // R1.0: every subset of R_enum with at most k_L vertices, split into
        // its R¹ / R² parts for the downstream processing.
        let all: Vec<u32> = r_enum.iter().map(|&(u, _)| u).collect();
        let is_r2: std::collections::HashSet<u32> = r2.iter().copied().collect();
        for size in 0..=k.min(all.len()) {
            if stopped {
                break;
            }
            for_each_subset(&all, size, &mut |subset| {
                let mut r1_part = Vec::with_capacity(subset.len());
                let mut r2_part = Vec::with_capacity(subset.len());
                for &u in subset {
                    if is_r2.contains(&u) {
                        r2_part.push(u);
                    } else {
                        r1_part.push(u);
                    }
                }
                let cont = ctx.process_combo(&r1_part, &r2_part, &mut stats, &mut emit);
                if !cont {
                    stopped = true;
                }
                cont
            });
        }
    }

    stats
}

/// Shared, read-only context for processing one `R''` combination.
struct ComboContext<'a> {
    g: &'a BipartiteGraph,
    /// The new vertex's budget `k_L`: the bound on `|R''|`.
    k: usize,
    l2: bool,
    host: &'a PartialBiplex,
    v: u32,
    r_keep: &'a [u32],
    r1_len: usize,
    r2_all: &'a [u32],
    adj_r2: &'a [u32],
}

impl ComboContext<'_> {
    /// Processes one combination `R'' = r1_part ∪ r2_part`. Returns `false`
    /// if the caller asked to stop.
    fn process_combo<F>(
        &self,
        r1_part: &[u32],
        r2_part: &[u32],
        stats: &mut AlmostSatStats,
        emit: &mut F,
    ) -> bool
    where
        F: FnMut(Biplex) -> bool,
    {
        let g = self.g;
        let k = self.k;
        stats.r_combinations += 1;

        let total = r1_part.len() + r2_part.len();
        debug_assert!(total <= k);
        // Lemma 4.2: if |R''| < k_L and some R¹ vertex is left out, that
        // vertex can always be added to any candidate, so no local solution
        // exists for this R'. The R2.0 generation never produces such
        // combinations; under R1.0 they are produced and every candidate is
        // rejected below (reflecting the extra work R1.0 performs).
        let doomed = total < k && r1_part.len() < self.r1_len;

        // Violators (Lemma 4.3) and the removal pool.
        let v2 = r2_part;
        let l_remo: Vec<u32> = if v2.is_empty() {
            Vec::new()
        } else {
            self.host
                .left()
                .iter()
                .copied()
                .filter(|&w| v2.iter().any(|&u| !g.has_edge(w, u)))
                .collect()
        };

        // R' = R_keep ∪ R'' (sorted).
        let mut r_prime: Vec<u32> =
            Vec::with_capacity(self.r_keep.len() + r1_part.len() + r2_part.len());
        r_prime.extend_from_slice(self.r_keep);
        r_prime.extend_from_slice(r1_part);
        r_prime.extend_from_slice(r2_part);
        r_prime.sort_unstable();

        // ---- Steps 3 & 4: enumerate removal sets ---------------------------
        let mut successes: Vec<Vec<u32>> = Vec::new();
        let mut keep_going = true;
        for size in 0..=v2.len().min(l_remo.len()) {
            if !keep_going {
                break;
            }
            for_each_subset(&l_remo, size, &mut |removal| {
                stats.l_candidates += 1;
                if doomed {
                    return true;
                }
                // L2.0 superset pruning: a superset of a successful removal
                // set yields a strictly smaller left side with the same R',
                // hence cannot be maximal.
                if self.l2 && successes.iter().any(|s| s.iter().all(|x| removal.contains(x))) {
                    return true;
                }
                if !self.candidate_is_local_solution(total, v2, removal) {
                    return true;
                }
                stats.local_solutions += 1;
                if self.l2 {
                    successes.push(removal.to_vec());
                }
                // Assemble the local solution (host.left \ removal ∪ {v}, R').
                let mut left: Vec<u32> =
                    self.host.left().iter().copied().filter(|w| !removal.contains(w)).collect();
                let pos = left.binary_search(&self.v).unwrap_or_else(|p| p);
                left.insert(pos, self.v);
                if !emit(Biplex { left, right: r_prime.clone() }) {
                    keep_going = false;
                    return false;
                }
                true
            });
        }
        keep_going
    }

    /// Exact check that `(host.left \ removal ∪ {v}, R_keep ∪ R'')` is a
    /// local solution, using the structural facts derived from the host
    /// being a k-biplex (see the module documentation). `O(k²)` per call.
    /// `total` is `|R''|`.
    fn candidate_is_local_solution(&self, total: usize, v2: &[u32], removal: &[u32]) -> bool {
        let g = self.g;
        let k = self.k;

        // (a) Validity: every violator must lose at least one non-neighbour.
        for &u in v2 {
            if !removal.iter().any(|&w| !g.has_edge(w, u)) {
                return false;
            }
        }

        // (b) Left maximality: every removed vertex must be blocked from
        // re-insertion, i.e. some violator u misses w and no *other* removed
        // vertex (u stays saturated at k_R once w returns).
        for &w in removal {
            let blocked = v2.iter().any(|&u| {
                !g.has_edge(w, u) && removal.iter().all(|&w2| w2 == w || g.has_edge(w2, u))
            });
            if !blocked {
                return false;
            }
        }

        // (c) Right maximality. When |R''| = k_L, the new vertex v is
        // saturated and no further right vertex fits. Otherwise (|R''| < k_L)
        // a left-out R¹ vertex is always addable (handled by the caller via
        // `doomed`), and a left-out R² vertex is addable iff one of its
        // non-neighbours was removed.
        if total < k {
            for &w in removal {
                let Ok(pos) = self.host.left().binary_search(&w) else {
                    unreachable!("removal vertices come from the host left side")
                };
                // non-neighbours of w inside R² \ R''₂
                let miss_in_r2_all = self.r2_all.len() as u32 - self.adj_r2[pos];
                let miss_in_r2_part = v2.iter().filter(|&&u| !g.has_edge(w, u)).count() as u32;
                if miss_in_r2_all > miss_in_r2_part {
                    // Some outside saturated vertex regained slack: addable.
                    return false;
                }
            }
        }
        true
    }
}

/// Calls `f` for every subset of `items` with exactly `size` elements, in
/// lexicographic order of indices. `f` returns `false` to stop; the function
/// then returns `false` as well.
pub(crate) fn for_each_subset<F>(items: &[u32], size: usize, f: &mut F) -> bool
where
    F: FnMut(&[u32]) -> bool,
{
    fn rec<F: FnMut(&[u32]) -> bool>(
        items: &[u32],
        size: usize,
        start: usize,
        scratch: &mut Vec<u32>,
        f: &mut F,
    ) -> bool {
        if scratch.len() == size {
            return f(scratch);
        }
        let remaining = size - scratch.len();
        let mut i = start;
        while i + remaining <= items.len() {
            scratch.push(items[i]);
            let cont = rec(items, size, i + 1, scratch, f);
            scratch.pop();
            if !cont {
                return false;
            }
            i += 1;
        }
        true
    }
    if size > items.len() {
        return true;
    }
    let mut scratch = Vec::with_capacity(size);
    rec(items, size, 0, &mut scratch, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsets_of_each_size() {
        let items = [10u32, 20, 30, 40];
        let mut all = Vec::new();
        for size in 0..=4 {
            for_each_subset(&items, size, &mut |s| {
                all.push(s.to_vec());
                true
            });
        }
        assert_eq!(all.len(), 16);
        assert!(all.contains(&vec![]));
        assert!(all.contains(&vec![10, 30, 40]));
        assert!(all.contains(&vec![10, 20, 30, 40]));
    }

    #[test]
    fn subsets_respect_early_stop() {
        let items = [1u32, 2, 3, 4, 5];
        let mut count = 0;
        let finished = for_each_subset(&items, 2, &mut |_| {
            count += 1;
            count < 3
        });
        assert!(!finished);
        assert_eq!(count, 3);
    }

    #[test]
    fn oversized_subset_request_is_empty() {
        let items = [1u32, 2];
        let mut count = 0;
        assert!(for_each_subset(&items, 5, &mut |_| {
            count += 1;
            true
        }));
        assert_eq!(count, 0);
    }
}
