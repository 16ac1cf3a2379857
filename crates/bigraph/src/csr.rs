//! One-sided compressed-sparse-row adjacency and slice-set primitives.
//!
//! [`Csr`] stores the out-neighbourhoods of a dense `u32` id space as one
//! contiguous `targets` array indexed by an `offsets` array, so iterating a
//! neighbourhood is a contiguous slice scan and the whole structure is two
//! allocations regardless of the vertex count. [`BipartiteGraph`] is two of
//! these (left→right and right→left); the enumeration kernels additionally
//! use the free functions below for sorted-slice intersections, which is
//! where most of the inner-loop time of `iTraversal` goes.
//!
//! [`BipartiteGraph`]: crate::graph::BipartiteGraph

/// A compressed-sparse-row adjacency structure over `0..len()` source ids.
///
/// Neighbour lists are stored back-to-back in `targets`; the list of source
/// `v` is `targets[offsets[v]..offsets[v + 1]]`. Lists are sorted ascending
/// when built through [`Csr::from_sorted_pairs`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Default for Csr {
    /// An empty CSR over zero sources.
    fn default() -> Self {
        Csr { offsets: vec![0], targets: Vec::new() }
    }
}

impl Csr {
    /// Assembles a CSR from raw parts produced by a counting sort. The
    /// invariants (`offsets` monotone, `offsets[len] == targets.len()`,
    /// per-source slices sorted) are debug-asserted, not re-checked.
    pub(crate) fn from_parts(offsets: Vec<usize>, targets: Vec<u32>) -> Csr {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(offsets[offsets.len() - 1], targets.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Csr { offsets, targets }
    }

    /// Builds from `(source, target)` pairs that are sorted by source and,
    /// within a source, by target (the builder of `BipartiteGraph` produces
    /// exactly this shape). `num_sources` fixes the id space even when
    /// trailing sources have no pairs.
    pub fn from_sorted_pairs(num_sources: u32, pairs: &[(u32, u32)]) -> Csr {
        debug_assert!(pairs.windows(2).all(|w| w[0] <= w[1]), "pairs must be sorted");
        let n = num_sources as usize;
        let mut offsets = vec![0usize; n + 1];
        for &(s, _) in pairs {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets = pairs.iter().map(|&(_, t)| t).collect();
        Csr { offsets, targets }
    }

    /// Number of source vertices.
    #[inline]
    pub fn len(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// `true` when there are no source vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Total number of stored adjacencies.
    #[inline]
    pub fn num_targets(&self) -> usize {
        self.targets.len()
    }

    /// The sorted neighbour slice of source `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of source `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Inserts `t` at index `pos` of source `v`'s list (`insert`), or
    /// removes the entry `t` found there, in place: one `Vec` insert or
    /// remove plus an offset bump for every later source.
    pub(crate) fn splice(&mut self, v: u32, pos: usize, t: u32, insert: bool) {
        let v = v as usize;
        let at = self.offsets[v] + pos;
        if insert {
            self.targets.insert(at, t);
            self.offsets[v + 1..].iter_mut().for_each(|o| *o += 1);
        } else {
            debug_assert_eq!(self.targets[at], t);
            self.targets.remove(at);
            self.offsets[v + 1..].iter_mut().for_each(|o| *o -= 1);
        }
    }

    /// The edit of [`splice`](Self::splice) applied to a new CSR, built in
    /// one pass (prefix, edit, suffix); `self` is left as it was.
    pub(crate) fn spliced(&self, v: u32, pos: usize, t: u32, insert: bool) -> Csr {
        let v = v as usize;
        let at = self.offsets[v] + pos;
        let mut targets = Vec::with_capacity(self.targets.len() + usize::from(insert));
        targets.extend_from_slice(&self.targets[..at]);
        let mut offsets = Vec::with_capacity(self.offsets.len());
        offsets.extend_from_slice(&self.offsets[..=v]);
        if insert {
            targets.push(t);
            targets.extend_from_slice(&self.targets[at..]);
            offsets.extend(self.offsets[v + 1..].iter().map(|o| o + 1));
        } else {
            debug_assert_eq!(self.targets[at], t);
            targets.extend_from_slice(&self.targets[at + 1..]);
            offsets.extend(self.offsets[v + 1..].iter().map(|o| o - 1));
        }
        Csr { offsets, targets }
    }
}

/// Length of the intersection of two sorted `u32` slices.
///
/// Stable alias of [`crate::intersect::dispatch`]: the kernel layer picks a
/// merge walk, a galloping scan, a branchless chunked merge or a
/// bitset-chunk kernel from a measured crossover heuristic. Kept here
/// because this is the historical entry every caller already goes through.
#[inline]
pub fn intersection_len(a: &[u32], b: &[u32]) -> usize {
    crate::intersect::dispatch(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_sorted_pairs_builds_slices() {
        let csr = Csr::from_sorted_pairs(4, &[(0, 1), (0, 3), (2, 0), (2, 1), (2, 2)]);
        assert_eq!(csr.len(), 4);
        assert_eq!(csr.num_targets(), 5);
        assert_eq!(csr.neighbors(0), &[1, 3]);
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
        assert_eq!(csr.neighbors(2), &[0, 1, 2]);
        assert_eq!(csr.neighbors(3), &[] as &[u32]);
        assert_eq!(csr.degree(2), 3);
        assert_eq!(csr.degree(3), 0);
        assert!(!csr.is_empty());
        assert!(Csr::from_sorted_pairs(0, &[]).is_empty());
    }

    #[test]
    fn intersection_len_matches_naive() {
        // Kernel-by-kernel coverage lives in `crate::intersect`; this pins
        // the historical entry point still dispatching correctly.
        let cases: &[(&[u32], &[u32])] = &[
            (&[], &[]),
            (&[1], &[]),
            (&[1, 2, 3], &[2, 3, 4]),
            (&[0, 5, 9], &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
            (&[7], &(0..100).collect::<Vec<u32>>()),
        ];
        for (a, b) in cases {
            let naive = a.iter().filter(|x| b.contains(x)).count();
            assert_eq!(intersection_len(a, b), naive, "a={a:?} b={b:?}");
            assert_eq!(intersection_len(b, a), naive, "swapped a={a:?} b={b:?}");
        }
    }
}
