//! Asymmetric k-biplex enumeration — different miss budgets per side.
//!
//! The paper (Section 2, remark after Definition 2.1) notes that *"it is
//! possible to use different k's at different sides and the techniques
//! developed in this paper can be easily adapted to this case"*. This module
//! implements that adaptation: a **(k_L, k_R)-biplex** is an induced
//! subgraph `(L', R')` where every left vertex misses at most `k_L` vertices
//! of `R'` and every right vertex misses at most `k_R` vertices of `L'`.
//! With `k_L = k_R = k` the definitions coincide with the symmetric
//! k-biplex of the rest of this crate.
//!
//! Because the asymmetric structure is still hereditary, the reverse-search
//! framework applies verbatim. The enumeration below is a faithful
//! generalisation of `bTraversal` (Algorithm 1): an arbitrary initial
//! maximal solution, almost-satisfying graphs formed from *both* sides, the
//! refined local enumeration of Section 4 generalised to two budgets, and a
//! deterministic maximal extension. It is cross-validated against a
//! brute-force oracle in the unit tests and in `tests/asymmetric.rs`.

use bigraph::{BipartiteGraph, Side};
use std::collections::HashSet;

use crate::biplex::{left_misses, right_misses, Biplex, PartialBiplex};
use crate::sink::{Control, SolutionSink};

/// Per-side miss budgets `(k_L, k_R)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KPair {
    /// Maximum number of right-side vertices a *left* vertex may miss.
    pub left: usize,
    /// Maximum number of left-side vertices a *right* vertex may miss.
    pub right: usize,
}

impl KPair {
    /// The symmetric budget `k_L = k_R = k` (equivalent to the plain
    /// k-biplex definition).
    pub fn symmetric(k: usize) -> Self {
        KPair { left: k, right: k }
    }

    /// Builds an asymmetric budget.
    pub fn new(left: usize, right: usize) -> Self {
        KPair { left, right }
    }

    /// Budgets as seen from the transposed graph (sides swapped).
    pub fn transpose(self) -> Self {
        KPair { left: self.right, right: self.left }
    }

    /// `true` when both budgets coincide.
    pub fn is_symmetric(&self) -> bool {
        self.left == self.right
    }
}

/// `true` iff `(left, right)` (both sorted) induces a (k_L, k_R)-biplex.
pub fn is_asym_biplex(g: &BipartiteGraph, left: &[u32], right: &[u32], kp: KPair) -> bool {
    left.iter().all(|&v| left_misses(g, v, right) <= kp.left)
        && right.iter().all(|&u| right_misses(g, u, left) <= kp.right)
}

/// `true` iff `(left, right)` is a *maximal* (k_L, k_R)-biplex of `g`: no
/// single vertex can be added while preserving both budgets. (As for the
/// symmetric case, single-vertex extensibility is equivalent to proper
/// superset existence because the structure is hereditary.)
pub fn is_maximal_asym_biplex(g: &BipartiteGraph, left: &[u32], right: &[u32], kp: KPair) -> bool {
    if !is_asym_biplex(g, left, right, kp) {
        return false;
    }
    let partial = PartialBiplex::from_sets(g, left, right);
    for v in 0..g.num_left() {
        if left.binary_search(&v).is_err() && can_add_left_asym(g, &partial, v, kp) {
            return false;
        }
    }
    for u in 0..g.num_right() {
        if right.binary_search(&u).is_err() && can_add_right_asym(g, &partial, u, kp) {
            return false;
        }
    }
    true
}

/// Checks whether left vertex `v ∉ L` can be added to `partial` while
/// keeping the asymmetric budgets: `v` must miss at most `k_L` vertices of
/// the current right side, and no right vertex missing `v` may already sit
/// at its budget `k_R`.
pub fn can_add_left_asym(g: &BipartiteGraph, partial: &PartialBiplex, v: u32, kp: KPair) -> bool {
    debug_assert!(!partial.contains_left(v));
    let nbrs = g.left_neighbors(v);
    let mut v_misses = 0usize;
    let mut ni = 0usize;
    for (ri, &u) in partial.right().iter().enumerate() {
        while ni < nbrs.len() && nbrs[ni] < u {
            ni += 1;
        }
        let adjacent = ni < nbrs.len() && nbrs[ni] == u;
        if !adjacent {
            v_misses += 1;
            if v_misses > kp.left {
                return false;
            }
            if partial.right_miss(ri) as usize + 1 > kp.right {
                return false;
            }
        }
    }
    true
}

/// Symmetric to [`can_add_left_asym`] for a right vertex `u ∉ R`.
pub fn can_add_right_asym(g: &BipartiteGraph, partial: &PartialBiplex, u: u32, kp: KPair) -> bool {
    debug_assert!(!partial.contains_right(u));
    let nbrs = g.right_neighbors(u);
    let mut u_misses = 0usize;
    let mut ni = 0usize;
    for (li, &v) in partial.left().iter().enumerate() {
        while ni < nbrs.len() && nbrs[ni] < v {
            ni += 1;
        }
        let adjacent = ni < nbrs.len() && nbrs[ni] == v;
        if !adjacent {
            u_misses += 1;
            if u_misses > kp.right {
                return false;
            }
            if partial.left_miss(li) as usize + 1 > kp.left {
                return false;
            }
        }
    }
    true
}

/// Extends `partial` (already a (k_L, k_R)-biplex) to a *maximal* one in
/// place, scanning all vertices in the preset order (left ids ascending,
/// then right ids ascending). Deterministic, as the reverse-search framework
/// requires of its extension step.
pub fn extend_to_maximal_asym(g: &BipartiteGraph, partial: &mut PartialBiplex, kp: KPair) {
    for v in 0..g.num_left() {
        if !partial.contains_left(v) && can_add_left_asym(g, partial, v, kp) {
            partial.add_left(g, v);
        }
    }
    for u in 0..g.num_right() {
        if !partial.contains_right(u) && can_add_right_asym(g, partial, u, kp) {
            partial.add_right(g, u);
        }
    }
    debug_assert!(is_asym_biplex(g, partial.left(), partial.right(), kp));
}

/// Computes an arbitrary initial maximal (k_L, k_R)-biplex by greedy
/// extension of the empty subgraph.
pub fn initial_asym(g: &BipartiteGraph, kp: KPair) -> Biplex {
    let mut partial = PartialBiplex::new();
    extend_to_maximal_asym(g, &mut partial, kp);
    partial.to_biplex()
}

/// Statistics of an asymmetric enumeration run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AsymStats {
    /// Distinct maximal (k_L, k_R)-biplexes discovered.
    pub solutions: u64,
    /// Almost-satisfying graphs formed (Step 1 invocations).
    pub almost_sat_graphs: u64,
    /// Local solutions produced by the local enumeration.
    pub local_solutions: u64,
    /// Links of the underlying solution graph (extension results, including
    /// duplicates).
    pub links: u64,
    /// `true` when the sink requested an early stop.
    pub stopped_early: bool,
}

/// The asymmetric enumeration engine behind the
/// [`crate::api::Enumerator`] facade. Enumerates all maximal
/// (k_L, k_R)-biplexes of `g` with the `bTraversal` reverse-search
/// framework (Algorithm 1) generalised to two budgets, delivering each
/// exactly once to `sink`.
pub(crate) fn run_asym<S: SolutionSink + ?Sized>(
    g: &BipartiteGraph,
    kp: KPair,
    sink: &mut S,
) -> AsymStats {
    let mut stats = AsymStats::default();
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    let initial = initial_asym(g, kp);
    seen.insert(initial.canonical_key());
    stats.solutions = 1;
    if sink.on_solution(&initial) == Control::Stop {
        stats.stopped_early = true;
        return stats;
    }

    let gt = g.transpose();
    let mut stack: Vec<Biplex> = vec![initial];

    while let Some(host) = stack.pop() {
        let host_partial = PartialBiplex::from_sets(g, &host.left, &host.right);
        // Candidates from both sides (0..|L| are left ids, the rest right).
        let num_left = g.num_left() as u64;
        let num_right = g.num_right() as u64;
        for pos in 0..(num_left + num_right) {
            if stats.stopped_early {
                return stats;
            }
            let (side, id) = if pos < num_left {
                (Side::Left, pos as u32)
            } else {
                (Side::Right, (pos - num_left) as u32)
            };
            match side {
                Side::Left => {
                    if host_partial.contains_left(id) {
                        continue;
                    }
                }
                Side::Right => {
                    if host_partial.contains_right(id) {
                        continue;
                    }
                }
            }
            stats.almost_sat_graphs += 1;

            // The local enumeration is written for a left-side candidate;
            // right-side candidates run on the transposed graph with the
            // budgets swapped and the result flipped back.
            let locals = match side {
                Side::Left => local_solutions_asym(g, kp, &host_partial, id),
                Side::Right => {
                    local_solutions_asym(&gt, kp.transpose(), &host_partial.flipped(), id)
                        .into_iter()
                        .map(Biplex::transpose)
                        .collect()
                }
            };

            for local in locals {
                stats.local_solutions += 1;
                let mut partial = PartialBiplex::from_sets(g, &local.left, &local.right);
                extend_to_maximal_asym(g, &mut partial, kp);
                let solution = partial.to_biplex();
                stats.links += 1;
                if seen.insert(solution.canonical_key()) {
                    stats.solutions += 1;
                    if sink.on_solution(&solution) == Control::Stop {
                        stats.stopped_early = true;
                        return stats;
                    }
                    stack.push(solution);
                }
            }
        }
    }
    stats
}

/// Enumerates the local solutions of the almost-satisfying graph
/// `(L ∪ {v}, R)` where `host = (L, R)` is a (k_L, k_R)-biplex and `v ∉ L`:
/// all (k_L, k_R)-biplexes of the almost-satisfying graph that contain `v`
/// and are maximal *within it*.
///
/// The structure mirrors the refined enumeration of Section 4 with the two
/// budgets substituted in the right places:
///
/// * `R_keep` = neighbours of `v` in `R` appear in every local solution
///   (Lemma 4.1 carries over unchanged);
/// * `R_enum` = non-neighbours of `v`; subsets `R''` of size at most `k_L`
///   are enumerated (`v` tolerates `k_L` misses);
/// * right vertices of `R''` whose miss count versus `L ∪ {v}` exceeds
///   `k_R` force the removal of left vertices; minimal removal sets of size
///   at most `|R''_over|` are enumerated from the vertices that miss at
///   least one over-budget right vertex (Section 4.3 with budget `k_R`).
fn local_solutions_asym(
    g: &BipartiteGraph,
    kp: KPair,
    host: &PartialBiplex,
    v: u32,
) -> Vec<Biplex> {
    debug_assert!(!host.contains_left(v));
    let left = host.left();
    let right = host.right();
    let v_nbrs = g.left_neighbors(v);

    // Partition R into R_keep (neighbours of v) and R_enum (non-neighbours).
    let mut r_keep: Vec<u32> = Vec::new();
    let mut r_enum: Vec<u32> = Vec::new();
    for &u in right {
        if v_nbrs.binary_search(&u).is_ok() {
            r_keep.push(u);
        } else {
            r_enum.push(u);
        }
    }

    let mut out: Vec<Biplex> = Vec::new();
    let mut seen: HashSet<Vec<u32>> = HashSet::new();

    // Enumerate R'' ⊆ R_enum with |R''| ≤ k_L.
    let max_pick = kp.left.min(r_enum.len());
    let mut subset: Vec<u32> = Vec::new();
    enumerate_subsets(&r_enum, max_pick, &mut subset, &mut |r2: &[u32]| {
        let mut r_prime: Vec<u32> = r_keep.clone();
        r_prime.extend_from_slice(r2);
        r_prime.sort_unstable();

        // Right vertices over budget w.r.t. L ∪ {v}: only members of R''
        // can be over budget (R_keep gained no new miss from v, and every
        // right vertex had at most k_R misses w.r.t. L).
        let mut l_with_v: Vec<u32> = left.to_vec();
        match l_with_v.binary_search(&v) {
            Ok(_) => {}
            Err(pos) => l_with_v.insert(pos, v),
        }
        let over: Vec<u32> =
            r2.iter().copied().filter(|&u| right_misses(g, u, &l_with_v) > kp.right).collect();

        if over.is_empty() {
            // L' = L works; check validity and maximality within the
            // almost-satisfying graph.
            push_if_local_solution(g, kp, host, v, left, &r_prime, &mut seen, &mut out);
            return;
        }

        // Left vertices eligible for removal: those missing at least one
        // over-budget right vertex (removing anything else cannot help).
        let l_remo: Vec<u32> = left
            .iter()
            .copied()
            .filter(|&w| {
                let nbrs = g.left_neighbors(w);
                over.iter().any(|&u| nbrs.binary_search(&u).is_err())
            })
            .collect();
        let budget = over.len().min(l_remo.len());
        let mut removal: Vec<u32> = Vec::new();
        let mut found_minimal: Vec<Vec<u32>> = Vec::new();
        enumerate_subsets(&l_remo, budget, &mut removal, &mut |rem: &[u32]| {
            // Skip supersets of an already-accepted removal set (Section 4.4).
            if found_minimal.iter().any(|m| m.iter().all(|x| rem.contains(x))) {
                return;
            }
            let l_prime: Vec<u32> = left.iter().copied().filter(|w| !rem.contains(w)).collect();
            if push_if_local_solution(g, kp, host, v, &l_prime, &r_prime, &mut seen, &mut out) {
                found_minimal.push(rem.to_vec());
            }
        });
    });
    out
}

/// Validates `(l_prime ∪ {v}, r_prime)` as a local solution of the
/// almost-satisfying graph `(host.left ∪ {v}, host.right)` and records it.
/// Returns `true` when the candidate was a valid (k_L, k_R)-biplex that is
/// maximal within the almost-satisfying graph.
#[allow(clippy::too_many_arguments)]
fn push_if_local_solution(
    g: &BipartiteGraph,
    kp: KPair,
    host: &PartialBiplex,
    v: u32,
    l_prime: &[u32],
    r_prime: &[u32],
    seen: &mut HashSet<Vec<u32>>,
    out: &mut Vec<Biplex>,
) -> bool {
    let mut left: Vec<u32> = l_prime.to_vec();
    match left.binary_search(&v) {
        Ok(_) => {}
        Err(pos) => left.insert(pos, v),
    }
    if !is_asym_biplex(g, &left, r_prime, kp) {
        return false;
    }
    // Maximality within the almost-satisfying graph: no vertex of
    // host ∪ {v} outside the candidate can be added.
    let partial = PartialBiplex::from_sets(g, &left, r_prime);
    for &w in host.left() {
        if !partial.contains_left(w) && can_add_left_asym(g, &partial, w, kp) {
            return false;
        }
    }
    for &u in host.right() {
        if !partial.contains_right(u) && can_add_right_asym(g, &partial, u, kp) {
            return false;
        }
    }
    let b = Biplex { left, right: r_prime.to_vec() };
    if seen.insert(b.canonical_key()) {
        out.push(b);
    }
    true
}

/// Enumerates every subset of `items` of size at most `max_size` (including
/// the empty set), invoking `f` on each. Subsets are produced in
/// non-decreasing size order within each prefix branch, which is what the
/// superset pruning of Section 4.4 relies on.
fn enumerate_subsets(
    items: &[u32],
    max_size: usize,
    current: &mut Vec<u32>,
    f: &mut impl FnMut(&[u32]),
) {
    fn rec(
        items: &[u32],
        start: usize,
        max_size: usize,
        current: &mut Vec<u32>,
        f: &mut impl FnMut(&[u32]),
    ) {
        f(current);
        if current.len() == max_size {
            return;
        }
        for i in start..items.len() {
            current.push(items[i]);
            rec(items, i + 1, max_size, current, f);
            current.pop();
        }
    }
    // Re-implemented iteratively over sizes to call `f` on each subset once.
    // (The recursive helper above already visits each subset exactly once;
    // the top-level call with an empty prefix covers sizes 0..=max_size.)
    rec(items, 0, max_size, current, f);
}

/// Brute-force oracle: enumerates every maximal (k_L, k_R)-biplex by testing
/// all `2^(|L|+|R|)` vertex subsets. Exponential — for tests on tiny graphs
/// only.
pub fn brute_force_asym_mbps(g: &BipartiteGraph, kp: KPair) -> Vec<Biplex> {
    let nl = g.num_left() as usize;
    let nr = g.num_right() as usize;
    assert!(nl + nr <= 24, "brute force oracle limited to tiny graphs");
    let mut biplexes: Vec<Biplex> = Vec::new();
    for mask in 0u64..(1u64 << (nl + nr)) {
        let left: Vec<u32> = (0..nl as u32).filter(|&v| mask & (1 << v) != 0).collect();
        let right: Vec<u32> =
            (0..nr as u32).filter(|&u| mask & (1 << (nl as u32 + u)) != 0).collect();
        if is_asym_biplex(g, &left, &right, kp) {
            biplexes.push(Biplex { left, right });
        }
    }
    let mut maximal: Vec<Biplex> = Vec::new();
    'outer: for (i, b) in biplexes.iter().enumerate() {
        for (j, other) in biplexes.iter().enumerate() {
            if i != j && b.is_subgraph_of(other) && b != other {
                continue 'outer;
            }
        }
        maximal.push(b.clone());
    }
    maximal.sort();
    maximal.dedup();
    maximal
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Non-deprecated stand-in for `collect_asym_mbps`.
    fn collect_asym(g: &BipartiteGraph, kp: KPair) -> Vec<Biplex> {
        let mut sink = crate::sink::CollectSink::new();
        run_asym(g, kp, &mut sink);
        sink.into_sorted()
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
    fn symmetric_budgets_match_the_symmetric_enumerator() {
        for seed in 0..10u64 {
            let g = random_graph(5, 5, 0.5, seed);
            for k in 0..=2usize {
                let sym = crate::api::Enumerator::new(&g).k(k).collect().unwrap();
                let asym = collect_asym(&g, KPair::symmetric(k));
                assert_eq!(sym, asym, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn asymmetric_budgets_match_brute_force() {
        for seed in 0..12u64 {
            let g = random_graph(4, 5, 0.5, seed);
            for (kl, kr) in [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2)] {
                let kp = KPair::new(kl, kr);
                let expected = brute_force_asym_mbps(&g, kp);
                let got = collect_asym(&g, kp);
                assert_eq!(got, expected, "seed {seed} k=({kl},{kr})");
            }
        }
    }

    #[test]
    fn every_reported_solution_is_a_maximal_asym_biplex() {
        let g = random_graph(6, 6, 0.4, 42);
        let kp = KPair::new(1, 2);
        for b in collect_asym(&g, kp) {
            assert!(is_maximal_asym_biplex(&g, &b.left, &b.right, kp));
        }
    }

    #[test]
    fn transposed_graph_swaps_budgets() {
        let g = random_graph(5, 4, 0.5, 7);
        let gt = g.transpose();
        let kp = KPair::new(1, 2);
        let direct = collect_asym(&g, kp);
        let mut via_transpose: Vec<Biplex> =
            collect_asym(&gt, kp.transpose()).into_iter().map(Biplex::transpose).collect();
        via_transpose.sort();
        assert_eq!(direct, via_transpose);
    }

    #[test]
    fn kpair_helpers() {
        let kp = KPair::new(1, 3);
        assert!(!kp.is_symmetric());
        assert_eq!(kp.transpose(), KPair::new(3, 1));
        assert!(KPair::symmetric(2).is_symmetric());
    }

    #[test]
    fn zero_budgets_enumerate_maximal_bicliques() {
        // (0,0)-biplexes are exactly bicliques; every maximal one must be a
        // maximal biclique (cross-check structure only, not the full set).
        let g = random_graph(5, 5, 0.6, 3);
        let kp = KPair::symmetric(0);
        for b in collect_asym(&g, kp) {
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
        let all = collect_asym(&g, kp);
        assert!(all.len() > 2);
        let e = crate::api::Enumerator::new(&g).algorithm(crate::api::Algorithm::Asym);
        let mut sink = crate::sink::CountingSink::new();
        let report = e.k_pair(kp).limit(2).run(&mut sink).unwrap();
        assert_eq!(sink.count, 2);
        let crate::api::EngineStats::Asym(stats) = report.stats else { unreachable!() };
        assert!(stats.stopped_early);
    }
}
