//! The k-biplex structure: representation, the per-side miss budgets
//! [`KPair`], validity and maximality checks, and the mutable
//! [`PartialBiplex`] used as the workhorse of the enumeration algorithms.
//!
//! Every check takes a budget pair `(k_L, k_R)`: a left vertex may miss at
//! most `k_L` vertices of the opposite side, a right vertex at most `k_R`.
//! The paper's k-biplex is the symmetric pair `k_L = k_R = k`, and a plain
//! `usize` converts into it, so symmetric callers pass `k` unchanged.

use bigraph::BipartiteGraph;

/// Per-side miss budgets `(k_L, k_R)`.
///
/// The paper notes after Definition 2.1 that different budgets per side
/// need only an adaptation of its techniques: a (k_L, k_R)-biplex is an
/// induced subgraph `(L', R')` in which every left vertex misses at most
/// `k_L` vertices of `R'` and every right vertex at most `k_R` of `L'`. The
/// structure is hereditary, so the reverse-search framework applies as is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KPair {
    /// Maximum number of right-side vertices a *left* vertex may miss.
    pub left: usize,
    /// Maximum number of left-side vertices a *right* vertex may miss.
    pub right: usize,
}

impl KPair {
    /// The symmetric budget `k_L = k_R = k` of the plain k-biplex.
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
}

/// A plain `k` is the symmetric pair, so every function that takes
/// `impl Into<KPair>` also takes the paper's single budget.
impl From<usize> for KPair {
    fn from(k: usize) -> Self {
        KPair::symmetric(k)
    }
}

/// An induced bipartite subgraph `(L, R)`, stored as two sorted vertex-id
/// vectors. This is the unit reported by every enumeration algorithm in the
/// workspace.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Biplex {
    /// Sorted left vertex ids.
    pub left: Vec<u32>,
    /// Sorted right vertex ids.
    pub right: Vec<u32>,
}

impl Biplex {
    /// Builds a biplex from (possibly unsorted) vertex lists.
    pub fn new(mut left: Vec<u32>, mut right: Vec<u32>) -> Self {
        left.sort_unstable();
        left.dedup();
        right.sort_unstable();
        right.dedup();
        Biplex { left, right }
    }

    /// Total number of vertices `|L| + |R|`.
    pub fn num_vertices(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// `true` when both sides are empty.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty() && self.right.is_empty()
    }

    /// Membership test on the left side (binary search).
    pub fn contains_left(&self, v: u32) -> bool {
        self.left.binary_search(&v).is_ok()
    }

    /// Membership test on the right side (binary search).
    pub fn contains_right(&self, u: u32) -> bool {
        self.right.binary_search(&u).is_ok()
    }

    /// `true` iff `self` is a subgraph of `other` (`L ⊆ L'` and `R ⊆ R'`).
    pub fn is_subgraph_of(&self, other: &Biplex) -> bool {
        self.left.iter().all(|v| other.contains_left(*v))
            && self.right.iter().all(|u| other.contains_right(*u))
    }

    /// Number of edges of `G` present inside the biplex (used by the case
    /// study to report densities).
    pub fn num_edges(&self, g: &BipartiteGraph) -> usize {
        self.left.iter().map(|&v| self.right.iter().filter(|&&u| g.has_edge(v, u)).count()).sum()
    }

    /// Canonical key used by the solution store: left ids, a separator, then
    /// right ids. Two biplexes are equal iff their keys are equal.
    pub fn canonical_key(&self) -> Vec<u32> {
        let mut key = Vec::with_capacity(self.num_vertices() + 1);
        key.extend_from_slice(&self.left);
        key.push(u32::MAX);
        key.extend_from_slice(&self.right);
        key
    }

    /// The similarity measure `S(H, H')` of the paper's Lemma 3.3 proof: the
    /// number of shared vertices.
    pub fn similarity(&self, other: &Biplex) -> usize {
        sorted_intersection_len(&self.left, &other.left)
            + sorted_intersection_len(&self.right, &other.right)
    }

    /// Swaps the two sides (used when running on a transposed graph).
    pub fn transpose(self) -> Biplex {
        Biplex { left: self.right, right: self.left }
    }

    /// Maps a solution found on a relabeled graph back to the original
    /// vertex ids. The facade routes every engine's
    /// [`VertexOrder`](bigraph::order::VertexOrder) handling through this,
    /// so the inverse mapping lives in exactly one place.
    pub fn map_back(&self, relabeling: &bigraph::order::Relabeling) -> Biplex {
        Biplex {
            left: relabeling.original_left_ids(&self.left),
            right: relabeling.original_right_ids(&self.right),
        }
    }
}

/// Length of the intersection of two sorted slices. Delegates to the
/// kernel dispatcher (`bigraph::intersect::dispatch`, through its stable
/// CSR alias), which picks merge/gallop/chunked/bitset from the measured
/// crossover heuristic.
pub(crate) fn sorted_intersection_len(a: &[u32], b: &[u32]) -> usize {
    bigraph::csr::intersection_len(a, b)
}

/// Number of vertices of the sorted set `right` that are *not* neighbours of
/// left vertex `v` — the paper's `δ̄(v, R)`.
pub fn left_misses(g: &BipartiteGraph, v: u32, right: &[u32]) -> usize {
    right.len() - sorted_intersection_len(g.left_neighbors(v), right)
}

/// Number of vertices of the sorted set `left` that are *not* neighbours of
/// right vertex `u` — the paper's `δ̄(u, L)`.
pub fn right_misses(g: &BipartiteGraph, u: u32, left: &[u32]) -> usize {
    left.len() - sorted_intersection_len(g.right_neighbors(u), left)
}

/// `true` iff `(left, right)` (both sorted) induces a k-biplex of `g`
/// (Definition 2.1), or a (k_L, k_R)-biplex for a budget pair.
pub fn is_k_biplex(g: &BipartiteGraph, left: &[u32], right: &[u32], k: impl Into<KPair>) -> bool {
    let kp = k.into();
    left.iter().all(|&v| left_misses(g, v, right) <= kp.left)
        && right.iter().all(|&u| right_misses(g, u, left) <= kp.right)
}

/// `true` iff `(left, right)` is a *maximal* k-biplex of `g`
/// (Definition 2.3), or a maximal (k_L, k_R)-biplex for a budget pair: it
/// is one and no single vertex of `G` can be added while preserving the
/// property. (For hereditary properties, single-vertex extensibility is
/// equivalent to the existence of a proper superset.)
pub fn is_maximal_k_biplex(
    g: &BipartiteGraph,
    left: &[u32],
    right: &[u32],
    k: impl Into<KPair>,
) -> bool {
    let kp = k.into();
    if !is_k_biplex(g, left, right, kp) {
        return false;
    }
    let partial = PartialBiplex::from_sets(g, left, right);
    for v in 0..g.num_left() {
        if left.binary_search(&v).is_err() && partial.can_add_left(g, v, kp) {
            return false;
        }
    }
    for u in 0..g.num_right() {
        if right.binary_search(&u).is_err() && partial.can_add_right(g, u, kp) {
            return false;
        }
    }
    true
}

/// Positions, in ascending order, of the members of the sorted set
/// `members` that are absent from the sorted list `nbrs`: the members a
/// vertex with neighbour list `nbrs` misses. One merge walk; a caller that
/// knows the miss count stops it at the last miss with `take`.
fn miss_positions<'a>(members: &'a [u32], nbrs: &'a [u32]) -> impl Iterator<Item = usize> + 'a {
    let mut ni = 0;
    members.iter().enumerate().filter_map(move |(i, &x)| {
        while ni < nbrs.len() && nbrs[ni] < x {
            ni += 1;
        }
        (ni == nbrs.len() || nbrs[ni] != x).then_some(i)
    })
}

/// A mutable working solution with cached per-vertex miss counts.
///
/// `left[i]` misses exactly `left_miss[i]` vertices of `right`, and
/// symmetrically for the right side. All enumeration inner loops
/// (extension, candidate checks, local-solution validation) go through this
/// structure so the miss counts are maintained incrementally instead of
/// being recomputed.
#[derive(Clone, Debug, Default)]
pub struct PartialBiplex {
    left: Vec<u32>,
    right: Vec<u32>,
    left_miss: Vec<u32>,
    right_miss: Vec<u32>,
}

impl PartialBiplex {
    /// Empty working solution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the working solution from two (possibly unsorted) vertex sets,
    /// computing all miss counts.
    pub fn from_sets(g: &BipartiteGraph, left: &[u32], right: &[u32]) -> Self {
        let mut left = left.to_vec();
        left.sort_unstable();
        left.dedup();
        let mut right = right.to_vec();
        right.sort_unstable();
        right.dedup();
        let left_miss = left.iter().map(|&v| left_misses(g, v, &right) as u32).collect();
        let right_miss = right.iter().map(|&u| right_misses(g, u, &left) as u32).collect();
        PartialBiplex { left, right, left_miss, right_miss }
    }

    /// Sorted left vertices.
    pub fn left(&self) -> &[u32] {
        &self.left
    }

    /// Sorted right vertices.
    pub fn right(&self) -> &[u32] {
        &self.right
    }

    /// `δ̄(v, R)` for the `i`-th left member.
    pub fn left_miss(&self, i: usize) -> u32 {
        self.left_miss[i]
    }

    /// `δ̄(u, L)` for the `i`-th right member.
    pub fn right_miss(&self, i: usize) -> u32 {
        self.right_miss[i]
    }

    /// Membership test on the left side.
    pub fn contains_left(&self, v: u32) -> bool {
        self.left.binary_search(&v).is_ok()
    }

    /// Membership test on the right side.
    pub fn contains_right(&self, u: u32) -> bool {
        self.right.binary_search(&u).is_ok()
    }

    /// `true` iff the working solution currently satisfies the k-biplex
    /// (or (k_L, k_R)-biplex) condition.
    pub fn is_k_biplex(&self, k: impl Into<KPair>) -> bool {
        let kp = k.into();
        self.left_miss.iter().all(|&m| m as usize <= kp.left)
            && self.right_miss.iter().all(|&m| m as usize <= kp.right)
    }

    /// Checks whether left vertex `v ∉ L` can be added while keeping the
    /// budgets: `v` must miss at most `k_L` vertices of `R`, and no right
    /// vertex that misses `v` may already be at its budget `k_R`.
    pub fn can_add_left(&self, g: &BipartiteGraph, v: u32, k: impl Into<KPair>) -> bool {
        // Kernel-counted misses first: most candidates either miss nothing
        // (no budgets to re-check) or bust their own budget outright, and
        // the counting kernels beat the budget walk.
        let misses = left_misses(g, v, &self.right);
        self.can_add_left_with_misses(g, v, misses, k.into())
    }

    /// [`can_add_left`](Self::can_add_left) for a vertex whose miss count
    /// `δ̄(v, R)` the caller already knows exactly: no intersection, and no
    /// budget walk when `misses = 0`.
    pub(crate) fn can_add_left_with_misses(
        &self,
        g: &BipartiteGraph,
        v: u32,
        misses: usize,
        kp: KPair,
    ) -> bool {
        debug_assert!(!self.contains_left(v));
        if misses > kp.left {
            return false;
        }
        // 1..=k_L misses: the right vertices that would gain a miss must be
        // below their budget k_R.
        misses == 0
            || miss_positions(&self.right, g.left_neighbors(v))
                .take(misses)
                .all(|ri| (self.right_miss[ri] as usize) < kp.right)
    }

    /// Symmetric to [`can_add_left`](Self::can_add_left) for a right vertex:
    /// `u` may miss at most `k_R` vertices of `L`, and no left vertex that
    /// misses `u` may already be at its budget `k_L`.
    pub fn can_add_right(&self, g: &BipartiteGraph, u: u32, k: impl Into<KPair>) -> bool {
        let misses = right_misses(g, u, &self.left);
        self.can_add_right_with_misses(g, u, misses, k.into())
    }

    /// Symmetric to [`can_add_left_with_misses`](Self::can_add_left_with_misses).
    pub(crate) fn can_add_right_with_misses(
        &self,
        g: &BipartiteGraph,
        u: u32,
        misses: usize,
        kp: KPair,
    ) -> bool {
        debug_assert!(!self.contains_right(u));
        if misses > kp.right {
            return false;
        }
        misses == 0
            || miss_positions(&self.left, g.right_neighbors(u))
                .take(misses)
                .all(|li| (self.left_miss[li] as usize) < kp.left)
    }

    /// Adds left vertex `v`, updating all miss counters. The caller is
    /// responsible for having checked `can_add_left` when the k-biplex
    /// property must be preserved.
    pub fn add_left(&mut self, g: &BipartiteGraph, v: u32) {
        let misses = left_misses(g, v, &self.right);
        self.add_left_with_misses(g, v, misses);
    }

    /// [`add_left`](Self::add_left) for a vertex that misses exactly
    /// `misses` vertices of `R`: no intersection, and the walk that charges
    /// the missed right vertices stops at the last of them (a vertex that
    /// misses nothing skips it).
    pub(crate) fn add_left_with_misses(&mut self, g: &BipartiteGraph, v: u32, misses: usize) {
        debug_assert_eq!(misses, left_misses(g, v, &self.right));
        let pos = match self.left.binary_search(&v) {
            Ok(_) => return,
            Err(pos) => pos,
        };
        self.left.insert(pos, v);
        self.left_miss.insert(pos, misses as u32);
        for ri in miss_positions(&self.right, g.left_neighbors(v)).take(misses) {
            self.right_miss[ri] += 1;
        }
    }

    /// Adds right vertex `u`, updating all miss counters.
    pub fn add_right(&mut self, g: &BipartiteGraph, u: u32) {
        let misses = right_misses(g, u, &self.left);
        self.add_right_with_misses(g, u, misses);
    }

    /// Symmetric to [`add_left_with_misses`](Self::add_left_with_misses).
    pub(crate) fn add_right_with_misses(&mut self, g: &BipartiteGraph, u: u32, misses: usize) {
        debug_assert_eq!(misses, right_misses(g, u, &self.left));
        let pos = match self.right.binary_search(&u) {
            Ok(_) => return,
            Err(pos) => pos,
        };
        self.right.insert(pos, u);
        self.right_miss.insert(pos, misses as u32);
        for li in miss_positions(&self.left, g.right_neighbors(u)).take(misses) {
            self.left_miss[li] += 1;
        }
    }

    /// Removes left vertex `v` (if present), updating all miss counters.
    pub fn remove_left(&mut self, g: &BipartiteGraph, v: u32) {
        let pos = match self.left.binary_search(&v) {
            Ok(pos) => pos,
            Err(_) => return,
        };
        self.left.remove(pos);
        let misses = self.left_miss.remove(pos) as usize;
        for ri in miss_positions(&self.right, g.left_neighbors(v)).take(misses) {
            self.right_miss[ri] -= 1;
        }
    }

    /// Freezes the working solution into an immutable [`Biplex`].
    pub fn to_biplex(&self) -> Biplex {
        Biplex { left: self.left.clone(), right: self.right.clone() }
    }

    /// Returns the side-swapped working solution, valid with respect to the
    /// *transposed* graph. Used to run the left-oriented `EnumAlmostSat`
    /// implementation on a new vertex from the right side.
    pub fn flipped(&self) -> PartialBiplex {
        PartialBiplex {
            left: self.right.clone(),
            right: self.left.clone(),
            left_miss: self.right_miss.clone(),
            right_miss: self.left_miss.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::Side;

    fn fixture() -> BipartiteGraph {
        // L = {0..3}, R = {0..3}; complete except (0,3), (1,2), (3,0), (3,1).
        let mut edges = Vec::new();
        for v in 0u32..4 {
            for u in 0u32..4 {
                if !matches!((v, u), (0, 3) | (1, 2) | (3, 0) | (3, 1)) {
                    edges.push((v, u));
                }
            }
        }
        BipartiteGraph::from_edges(4, 4, &edges).unwrap()
    }

    #[test]
    fn biplex_constructor_sorts_and_dedups() {
        let b = Biplex::new(vec![3, 1, 1], vec![2, 0, 2]);
        assert_eq!(b.left, vec![1, 3]);
        assert_eq!(b.right, vec![0, 2]);
        assert_eq!(b.num_vertices(), 4);
        assert!(!b.is_empty());
        assert!(Biplex::default().is_empty());
    }

    #[test]
    fn misses_and_k_biplex_check() {
        let g = fixture();
        // v0 misses u3 only.
        assert_eq!(left_misses(&g, 0, &[0, 1, 2, 3]), 1);
        assert_eq!(left_misses(&g, 3, &[0, 1, 2, 3]), 2);
        assert_eq!(right_misses(&g, 0, &[0, 1, 2, 3]), 1);
        // Whole graph: v3 misses 2 -> not a 1-biplex, but a 2-biplex.
        assert!(!is_k_biplex(&g, &[0, 1, 2, 3], &[0, 1, 2, 3], 1));
        assert!(is_k_biplex(&g, &[0, 1, 2, 3], &[0, 1, 2, 3], 2));
        // Empty sides are always k-biplexes.
        assert!(is_k_biplex(&g, &[], &[], 0));
        assert!(is_k_biplex(&g, &[0, 1], &[], 0));
        // Per-side budgets: v3 misses two right vertices, every right
        // vertex misses one left vertex.
        assert!(is_k_biplex(&g, &[0, 1, 2, 3], &[0, 1, 2, 3], KPair::new(2, 1)));
        assert!(!is_k_biplex(&g, &[0, 1, 2, 3], &[0, 1, 2, 3], KPair::new(1, 2)));
        assert!(!is_k_biplex(&g, &[0, 1, 2, 3], &[0, 1, 2, 3], KPair::new(2, 0)));
    }

    #[test]
    fn maximality_check() {
        let g = fixture();
        // (all, all) is a maximal 2-biplex (nothing left to add).
        assert!(is_maximal_k_biplex(&g, &[0, 1, 2, 3], &[0, 1, 2, 3], 2));
        // A proper sub-biplex of it is not maximal.
        assert!(!is_maximal_k_biplex(&g, &[0, 1, 2], &[0, 1, 2, 3], 2));
        // Not even a k-biplex -> not maximal.
        assert!(!is_maximal_k_biplex(&g, &[0, 1, 2, 3], &[0, 1, 2, 3], 1));
        // Under (k_L, k_R) = (2, 1) the whole graph is the one maximal
        // solution; dropping v3 leaves room for it.
        assert!(is_maximal_k_biplex(&g, &[0, 1, 2, 3], &[0, 1, 2, 3], KPair::new(2, 1)));
        assert!(!is_maximal_k_biplex(&g, &[0, 1, 2], &[0, 1, 2, 3], KPair::new(2, 1)));
    }

    #[test]
    fn partial_biplex_matches_naive_counts() {
        let g = fixture();
        let p = PartialBiplex::from_sets(&g, &[0, 1, 3], &[0, 2, 3]);
        for (i, &v) in p.left().iter().enumerate() {
            assert_eq!(p.left_miss(i) as usize, left_misses(&g, v, p.right()));
        }
        for (i, &u) in p.right().iter().enumerate() {
            assert_eq!(p.right_miss(i) as usize, right_misses(&g, u, p.left()));
        }
    }

    #[test]
    fn incremental_add_matches_recompute() {
        let g = fixture();
        let mut p = PartialBiplex::new();
        let additions: Vec<(Side, u32)> = vec![
            (Side::Right, 0),
            (Side::Left, 1),
            (Side::Right, 2),
            (Side::Left, 0),
            (Side::Right, 3),
            (Side::Left, 3),
        ];
        for (side, id) in additions {
            match side {
                Side::Left => p.add_left(&g, id),
                Side::Right => p.add_right(&g, id),
            }
            let fresh = PartialBiplex::from_sets(&g, p.left(), p.right());
            assert_eq!(p.left_miss, fresh.left_miss);
            assert_eq!(p.right_miss, fresh.right_miss);
        }
    }

    #[test]
    fn remove_left_restores_counts() {
        let g = fixture();
        let mut p = PartialBiplex::from_sets(&g, &[0, 1, 2, 3], &[0, 1, 2, 3]);
        p.remove_left(&g, 3);
        let fresh = PartialBiplex::from_sets(&g, &[0, 1, 2], &[0, 1, 2, 3]);
        assert_eq!(p.left(), fresh.left());
        assert_eq!(p.right_miss, fresh.right_miss);
        // Removing a vertex that is not present is a no-op.
        p.remove_left(&g, 3);
        assert_eq!(p.left(), &[0, 1, 2]);
    }

    #[test]
    fn can_add_checks_both_directions() {
        let g = fixture();
        // Start from ({0,1}, {0,1}): complete, so misses are all zero.
        let p = PartialBiplex::from_sets(&g, &[0, 1], &[0, 1]);
        assert!(p.can_add_left(&g, 2, 0));
        // v3 misses u0 and u1 -> needs k >= 2.
        assert!(!p.can_add_left(&g, 3, 1));
        assert!(p.can_add_left(&g, 3, 2));
        assert!(p.can_add_right(&g, 2, 1));
        // With k = 0, u2 cannot join because it misses v1.
        assert!(!p.can_add_right(&g, 2, 0));
        assert!(p.can_add_right(&g, 3, 1));
    }

    #[test]
    fn can_add_respects_existing_budgets() {
        let g = fixture();
        // ({0,3}, {2,3}): v0 misses u3, v3 misses nothing here? v3 ~ u2,u3.
        // u2 misses v... v0~u2 yes, v3~u2 yes -> 0. u3: v0 misses it -> 1.
        let p = PartialBiplex::from_sets(&g, &[0, 3], &[2, 3]);
        // Adding u0 with k = 1: u0 misses v3 (1 <= 1), but does any left
        // vertex exceed its budget? v0 ~ u0 so no change; v3 !~ u0 so v3
        // would go from 0 to 1 <= 1. OK.
        assert!(p.can_add_right(&g, 0, 1));
        // Adding v1 with k = 1: v1 misses u2 (1 <= 1); u2 goes 0 -> 1 ok;
        // so it is allowed.
        assert!(p.can_add_left(&g, 1, 1));
        // With k = 0 nothing that introduces a miss can be added.
        assert!(!p.can_add_right(&g, 0, 0));
        // u0 would miss v3 (u0's own budget is k_R) and charge v3 one miss
        // (v3's budget is k_L): both sides of the pair must allow it.
        assert!(p.can_add_right(&g, 0, KPair::new(1, 1)));
        assert!(!p.can_add_right(&g, 0, KPair::new(1, 0)));
        assert!(!p.can_add_right(&g, 0, KPair::new(0, 1)));
        // v1 misses u2 (its own budget k_L) and charges u2 (budget k_R).
        assert!(!p.can_add_left(&g, 1, KPair::new(0, 1)));
        assert!(!p.can_add_left(&g, 1, KPair::new(1, 0)));
    }

    #[test]
    fn kpair_helpers() {
        let kp = KPair::new(1, 3);
        assert_eq!(kp.transpose(), KPair::new(3, 1));
        assert_eq!(kp.transpose().transpose(), kp);
        assert_eq!(KPair::symmetric(2), KPair::new(2, 2));
        assert_eq!(KPair::from(2usize), KPair::symmetric(2));
    }

    #[test]
    fn canonical_key_disambiguates_sides() {
        let a = Biplex::new(vec![1], vec![2]);
        let b = Biplex::new(vec![1, 2], vec![]);
        assert_ne!(a.canonical_key(), b.canonical_key());
        let c = Biplex::new(vec![1], vec![2]);
        assert_eq!(a.canonical_key(), c.canonical_key());
    }

    #[test]
    fn similarity_counts_shared_vertices() {
        let a = Biplex::new(vec![0, 1, 2], vec![5, 6]);
        let b = Biplex::new(vec![1, 2, 3], vec![6, 7]);
        assert_eq!(a.similarity(&b), 3);
        assert_eq!(b.similarity(&a), 3);
        assert_eq!(a.similarity(&a), 5);
    }

    #[test]
    fn subgraph_relation() {
        let a = Biplex::new(vec![0, 1], vec![2]);
        let b = Biplex::new(vec![0, 1, 4], vec![2, 3]);
        assert!(a.is_subgraph_of(&b));
        assert!(!b.is_subgraph_of(&a));
        assert!(Biplex::default().is_subgraph_of(&a));
    }

    #[test]
    fn num_edges_inside() {
        let g = fixture();
        let b = Biplex::new(vec![0, 1], vec![0, 1, 2]);
        // (0,0),(0,1),(0,2),(1,0),(1,1) present; (1,2) missing.
        assert_eq!(b.num_edges(&g), 5);
    }

    #[test]
    fn transpose_biplex() {
        let b = Biplex::new(vec![1, 2], vec![7]);
        let t = b.clone().transpose();
        assert_eq!(t.left, vec![7]);
        assert_eq!(t.right, vec![1, 2]);
    }
}
