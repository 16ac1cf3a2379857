//! Sorted-slice intersection kernels behind a single crossover dispatcher.
//!
//! Every expansion step of the enumeration engines bottoms out in an
//! intersection of two sorted `u32` slices, so this module keeps *several*
//! kernels and picks per call:
//!
//! * **merge** — the classic two-pointer walk; best when the inputs are
//!   short or similar in length.
//! * **gallop** — exponential probe + binary search of the long side per
//!   short element; best when one side is much longer
//!   (`O(|short| · log |long|)`).
//! * **chunked** — a branchless blocked merge: disjoint blocks are skipped
//!   on a single bounds compare, overlapping blocks are counted with an
//!   all-pairs `CHUNK × CHUNK` equality sweep that the compiler
//!   autovectorizes (no `std::arch`, the crate stays
//!   `forbid(unsafe_code)`). Best for mid-size balanced inputs where the
//!   merge walk's per-element branch misses dominate.
//! * **bitset** — groups values by their 64-value word (`v >> 6`), packs
//!   each run into a `u64` mask via [`crate::bitset::pack_word`] and counts
//!   `(wa & wb).count_ones()`; up to 64 comparisons collapse into one AND +
//!   popcount. Best for dense neighbourhoods (small average gap).
//!
//! [`dispatch`] is the single entry the rest of the workspace calls; the
//! crossover between kernels is a measured size-ratio/density heuristic
//! (constants below, regime boundaries recorded in DESIGN.md and re-measured
//! by `bench_parallel`'s per-kernel section). [`dispatch_with`] forces one
//! [`Kernel`] for that per-kernel table and the equivalence tests. All
//! kernels require strictly sorted (deduplicated) inputs, which CSR
//! neighbour lists and the engines' working sets guarantee; the
//! precondition is `debug_assert!`ed.

use std::fmt;

use crate::bitset::pack_word;

/// Kernel selector of [`dispatch_with`]: `Auto` applies the crossover
/// heuristic, the other variants force one kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Pick per call from the size-ratio/density crossover heuristic.
    #[default]
    Auto,
    /// Scalar two-pointer merge walk.
    Merge,
    /// Exponential probe + binary search of the long side.
    Gallop,
    /// Branchless blocked merge with an all-pairs equality sweep.
    Chunked,
    /// `u64`-word mask AND + popcount over 64-value chunks.
    Bitset,
}

impl Kernel {
    /// Every selectable kernel, `Auto` first.
    pub const ALL: [Kernel; 5] =
        [Kernel::Auto, Kernel::Merge, Kernel::Gallop, Kernel::Chunked, Kernel::Bitset];

    /// The lower-case name used in bench output.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Auto => "auto",
            Kernel::Merge => "merge",
            Kernel::Gallop => "gallop",
            Kernel::Chunked => "chunked",
            Kernel::Bitset => "bitset",
        }
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Crossover: gallop once the long side is this many times the short one.
/// Matches the pre-kernel-layer constant; re-validated by the per-kernel
/// bench (skewed inputs: gallop ≈ 30× merge at ratio 1024, crossover near
/// 16 on the CI workload).
pub const GALLOP_RATIO: usize = 16;

/// Crossover: a slice is *dense* when its average value gap is at most this
/// (i.e. ≥ 64 / DENSE_MAX_GAP set bits per `u64` word on average). Measured
/// on the bench's dense class (gap 3): bitset ≈ 1.7–2.6× merge; at gap 8
/// the win fades into noise, so that is the boundary.
pub const DENSE_MAX_GAP: u64 = 8;

/// Block width of the chunked kernel: 8 × u32 is one AVX2 lane and small
/// enough that the all-pairs sweep (64 compares) beats the merge walk's
/// branch misses on balanced inputs.
pub const CHUNK: usize = 8;

/// The bitset kernel needs at least this many elements on the short side
/// before word-packing amortizes: the bench's tiny class (12 elements,
/// dense) has chunked ≈ 1.5× bitset, while on the 4096-element dense class
/// bitset ≈ 1.7× chunked.
pub const DENSE_MIN_LEN: usize = 64;

/// Below this many elements on the short side the plain merge walk wins.
/// One full block is exactly where the chunked kernel starts paying off:
/// the bench's tiny class (12 elements) already has chunked ≈ 1.5× merge,
/// while below [`CHUNK`] no full block exists and the kernel *is* the merge
/// walk plus setup cost.
pub const SMALL_LEN: usize = CHUNK;

#[inline]
fn strictly_sorted(v: &[u32]) -> bool {
    v.windows(2).all(|w| w[0] < w[1])
}

/// Length of the intersection of two strictly sorted `u32` slices, with the
/// kernel the crossover heuristic picks.
///
/// This is the single entry point the rest of the workspace goes through;
/// `cargo xtask lint` rejects out-of-crate calls to the raw kernels.
#[inline]
pub fn dispatch(a: &[u32], b: &[u32]) -> usize {
    dispatch_with(Kernel::Auto, a, b)
}

/// [`dispatch`] with an explicit kernel — the A/B entry used by the
/// per-kernel benchmark and the equivalence tests.
#[inline]
pub fn dispatch_with(kernel: Kernel, a: &[u32], b: &[u32]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return 0;
    }
    match kernel {
        Kernel::Auto => auto_intersection_len(short, long),
        Kernel::Merge => merge_intersection_len(short, long),
        Kernel::Gallop => gallop_intersection_len(short, long),
        Kernel::Chunked => chunked_intersection_len(short, long),
        Kernel::Bitset => bitset_intersection_len(short, long),
    }
}

/// The crossover heuristic. `short` is non-empty and no longer than `long`.
#[inline]
fn auto_intersection_len(short: &[u32], long: &[u32]) -> usize {
    if long.len() / GALLOP_RATIO > short.len() {
        return gallop_intersection_len(short, long);
    }
    if short.len() < SMALL_LEN {
        return merge_intersection_len(short, long);
    }
    if short.len() >= DENSE_MIN_LEN && is_dense(short) && is_dense(long) {
        return bitset_intersection_len(short, long);
    }
    chunked_intersection_len(short, long)
}

/// Average value gap at most [`DENSE_MAX_GAP`] over the slice's span.
#[inline]
fn is_dense(v: &[u32]) -> bool {
    let span = u64::from(v[v.len() - 1] - v[0]) + 1;
    v.len() as u64 * DENSE_MAX_GAP >= span
}

/// Writes the intersection of two strictly sorted slices into `out`
/// (cleared first, ascending). Skew dispatches to a galloping gather, so
/// intersecting many lists iteratively stays cheap as the accumulator
/// shrinks.
pub fn intersection_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return;
    }
    debug_assert!(strictly_sorted(short) && strictly_sorted(long));
    if long.len() / GALLOP_RATIO > short.len() {
        let mut rest = long;
        for &x in short {
            let mut hi = 1;
            while hi < rest.len() && rest[hi] < x {
                hi *= 2;
            }
            match rest[..(hi + 1).min(rest.len())].binary_search(&x) {
                Ok(pos) => {
                    out.push(x);
                    rest = &rest[pos + 1..];
                }
                Err(pos) => {
                    rest = &rest[pos..];
                    if rest.is_empty() {
                        break;
                    }
                }
            }
        }
        return;
    }
    let mut i = 0;
    let mut j = 0;
    while i < short.len() && j < long.len() {
        match short[i].cmp(&long[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(short[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// `true` when two strictly sorted slices share at least one element.
/// Early-exits on the first hit, so filtering against a small exclusion
/// set is cheaper than any counting kernel.
pub fn intersects(a: &[u32], b: &[u32]) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return false;
    }
    debug_assert!(strictly_sorted(short) && strictly_sorted(long));
    if long.len() / GALLOP_RATIO > short.len() {
        let mut rest = long;
        for &x in short {
            let mut hi = 1;
            while hi < rest.len() && rest[hi] < x {
                hi *= 2;
            }
            match rest[..(hi + 1).min(rest.len())].binary_search(&x) {
                Ok(_) => return true,
                Err(pos) => {
                    rest = &rest[pos..];
                    if rest.is_empty() {
                        return false;
                    }
                }
            }
        }
        return false;
    }
    let mut i = 0;
    let mut j = 0;
    while i < short.len() && j < long.len() {
        match short[i].cmp(&long[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Scalar two-pointer merge walk.
fn merge_intersection_len(a: &[u32], b: &[u32]) -> usize {
    debug_assert!(strictly_sorted(a) && strictly_sorted(b));
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Galloping kernel for heavily skewed sizes; `short` must be the smaller
/// slice (the dispatcher guarantees it, direct tests uphold it).
fn gallop_intersection_len(short: &[u32], long: &[u32]) -> usize {
    debug_assert!(strictly_sorted(short), "gallop requires strictly sorted short side");
    debug_assert!(strictly_sorted(long), "gallop requires strictly sorted long side");
    let mut rest = long;
    let mut count = 0;
    for &x in short {
        // Exponential probe to bound the search window, then binary search.
        // The probe stops at the first index with `rest[hi] >= x`, so the
        // window must include that index.
        let mut hi = 1;
        while hi < rest.len() && rest[hi] < x {
            hi *= 2;
        }
        let window = &rest[..(hi + 1).min(rest.len())];
        match window.binary_search(&x) {
            Ok(pos) => {
                count += 1;
                rest = &rest[pos + 1..];
            }
            Err(pos) => {
                rest = &rest[pos..];
                if rest.is_empty() {
                    break;
                }
            }
        }
    }
    count
}

/// Branchless blocked merge.
///
/// Full `CHUNK`-wide blocks are compared by bounds first: disjoint blocks
/// are skipped with one compare; overlapping blocks are counted with an
/// all-pairs equality sweep whose 64 independent compares the compiler
/// turns into vector ops. Strict sortedness makes the sweep exact — every
/// value occurs at most once per slice, so each cross pair contributes at
/// most one hit and no pair is visited twice (a block is only retired once
/// every future element of the other side provably exceeds its maximum).
/// Tails shorter than a block fall back to the merge walk.
fn chunked_intersection_len(a: &[u32], b: &[u32]) -> usize {
    debug_assert!(strictly_sorted(a) && strictly_sorted(b));
    let mut i = 0;
    let mut j = 0;
    let mut count = 0usize;
    while i + CHUNK <= a.len() && j + CHUNK <= b.len() {
        let ab = &a[i..i + CHUNK];
        let bb = &b[j..j + CHUNK];
        let a_max = ab[CHUNK - 1];
        let b_max = bb[CHUNK - 1];
        if a_max < bb[0] {
            i += CHUNK;
            continue;
        }
        if b_max < ab[0] {
            j += CHUNK;
            continue;
        }
        let mut hits = 0u32;
        for &x in ab {
            for &y in bb {
                hits += u32::from(x == y);
            }
        }
        count += hits as usize;
        // Retire whichever block's maximum is smaller (both on a tie):
        // everything beyond the other side's current block is strictly
        // larger than that maximum, so the retired block is fully counted.
        i += CHUNK * usize::from(a_max <= b_max);
        j += CHUNK * usize::from(b_max <= a_max);
    }
    count + merge_intersection_len(&a[i..], &b[j..])
}

/// `u64`-bitset-chunk kernel for dense neighbourhoods.
///
/// Both slices are walked as runs sharing a 64-value word key (`v >> 6`);
/// runs with matching keys are packed into `u64` masks by
/// [`pack_word`](crate::bitset::pack_word) (the same layout
/// [`BitSet`](crate::bitset::BitSet) stores) and intersected with one AND +
/// popcount, so up to 64 element comparisons collapse into two word ops.
fn bitset_intersection_len(a: &[u32], b: &[u32]) -> usize {
    debug_assert!(strictly_sorted(a) && strictly_sorted(b));
    let mut i = 0;
    let mut j = 0;
    let mut count = 0usize;
    while i < a.len() && j < b.len() {
        let ka = a[i] >> 6;
        let kb = b[j] >> 6;
        if ka < kb {
            i += 1;
            while i < a.len() && a[i] >> 6 < kb {
                i += 1;
            }
        } else if kb < ka {
            j += 1;
            while j < b.len() && b[j] >> 6 < ka {
                j += 1;
            }
        } else {
            let (wa, ni) = pack_word(a, i);
            let (wb, nj) = pack_word(b, j);
            count += (wa & wb).count_ones() as usize;
            i = ni;
            j = nj;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[u32], b: &[u32]) -> usize {
        a.iter().filter(|x| b.contains(x)).count()
    }

    #[test]
    fn every_kernel_matches_naive_on_mixed_cases() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[], &[]),
            (&[1], &[]),
            (&[1, 2, 3], &[2, 3, 4]),
            (&[0, 5, 9], &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
            (&[7], &[0, 7, 63, 64, 65, 127, 128]),
            (&[0, 63, 64, 127, 128, 200], &[63, 64, 100, 128]),
        ];
        for (a, b) in cases {
            let want = naive(a, b);
            for kernel in Kernel::ALL {
                assert_eq!(dispatch_with(kernel, a, b), want, "{kernel} a={a:?} b={b:?}");
                assert_eq!(dispatch_with(kernel, b, a), want, "{kernel} swapped a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn every_kernel_matches_on_stride_grids() {
        // Dense and sparse strides across word boundaries, long enough to
        // drive the chunked kernel's blocked path and the bitset packing.
        for stride_a in [1u32, 2, 3, 7] {
            for stride_b in [1u32, 4, 9] {
                let a: Vec<u32> = (0..200).map(|i| 5 + i * stride_a).collect();
                let b: Vec<u32> = (0..333).map(|i| i * stride_b).collect();
                let want = a.iter().filter(|x| b.binary_search(x).is_ok()).count();
                for kernel in Kernel::ALL {
                    assert_eq!(
                        dispatch_with(kernel, &a, &b),
                        want,
                        "{kernel} stride_a={stride_a} stride_b={stride_b}"
                    );
                }
            }
        }
    }

    #[test]
    fn galloping_path_is_exact() {
        // Long side >> short side so the Auto heuristic gallops.
        let long: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        let short: Vec<u32> = vec![0, 3, 4, 2_997, 29_997, 29_998];
        let want = short.iter().filter(|x| long.binary_search(x).is_ok()).count();
        assert_eq!(dispatch(&short, &long), want);
        assert_eq!(want, 4);
    }

    #[test]
    fn galloping_probe_boundary_is_included() {
        // Regression (PR 2 off-by-one): the element sitting exactly at the
        // first probe index (`rest[hi] == x`) must be found.
        assert_eq!(dispatch_with(Kernel::Gallop, &[6], &[0, 6]), 1);
        assert_eq!(dispatch_with(Kernel::Gallop, &[3], &[0, 1, 3, 9]), 1);
        // Exhaustive cross-check against binary search on stride patterns.
        let long: Vec<u32> = (0..512).collect();
        for start in 0..8u32 {
            for stride in 1..8u32 {
                let short: Vec<u32> = (0..6).map(|i| start + i * stride).collect();
                let want = short.iter().filter(|x| long.binary_search(x).is_ok()).count();
                assert_eq!(
                    dispatch_with(Kernel::Gallop, &short, &long),
                    want,
                    "start {start} stride {stride}"
                );
            }
        }
    }

    #[test]
    fn gallop_probe_window_boundaries_stay_dead() {
        // `short` element equal to the LAST element of `long`, at every
        // power-of-two-straddling length the probe can produce.
        for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33] {
            let long: Vec<u32> = (0..len as u32).map(|i| i * 2).collect();
            let last = *long.last().unwrap();
            assert_eq!(dispatch_with(Kernel::Gallop, &[last], &long), 1, "len {len}");
            // One past the last element must miss, not panic.
            assert_eq!(dispatch_with(Kernel::Gallop, &[last + 1], &long), 0, "len {len}");
        }
        // Empty slices on either side.
        assert_eq!(dispatch_with(Kernel::Gallop, &[], &[1, 2, 3]), 0);
        assert_eq!(dispatch_with(Kernel::Gallop, &[1, 2, 3], &[]), 0);
        assert_eq!(dispatch(&[], &[]), 0);
        // u32::MAX present / absent at the window edge.
        assert_eq!(dispatch_with(Kernel::Gallop, &[u32::MAX], &[0, 1, u32::MAX]), 1);
        assert_eq!(dispatch_with(Kernel::Gallop, &[u32::MAX], &[0, 1, u32::MAX - 1]), 0);
        assert_eq!(dispatch_with(Kernel::Gallop, &[u32::MAX - 1, u32::MAX], &[u32::MAX]), 1);
    }

    #[test]
    fn bitset_kernel_handles_word_edges() {
        // Values straddling the 64-value word boundary and u32::MAX's word.
        let a: Vec<u32> = vec![62, 63, 64, 65, 127, 128, u32::MAX - 1, u32::MAX];
        let b: Vec<u32> = vec![0, 63, 64, 126, 128, 129, u32::MAX];
        assert_eq!(dispatch_with(Kernel::Bitset, &a, &b), naive(&a, &b));
    }

    #[test]
    fn intersection_into_matches_len_and_sorted() {
        let a: Vec<u32> = (0..400).map(|i| i * 3).collect();
        let b: Vec<u32> = (0..90).map(|i| i * 5).collect();
        let mut out = vec![42]; // must be cleared
        intersection_into(&a, &b, &mut out);
        assert_eq!(out.len(), dispatch(&a, &b));
        assert!(out.windows(2).all(|w| w[0] < w[1]));
        assert!(out.iter().all(|x| a.binary_search(x).is_ok() && b.binary_search(x).is_ok()));
        // Skewed sizes take the galloping gather.
        let tiny = [0u32, 30, 1199];
        intersection_into(&tiny, &a, &mut out);
        assert_eq!(out, vec![0, 30]);
        intersection_into(&[], &a, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn intersects_agrees_with_len() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[], &[]),
            (&[1], &[2]),
            (&[1, 5], &[0, 5]),
            (&[9], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
        ];
        for (a, b) in cases {
            assert_eq!(intersects(a, b), dispatch(a, b) > 0, "a={a:?} b={b:?}");
        }
        let long: Vec<u32> = (0..4096).map(|i| i * 2).collect();
        assert!(intersects(&[4094], &long));
        assert!(!intersects(&[4095], &long));
    }

    #[test]
    fn kernel_names_round_trip() {
        // Every kernel prints its own distinct name (the bench tables key on
        // it).
        for (i, kernel) in Kernel::ALL.iter().enumerate() {
            assert_eq!(kernel.to_string(), kernel.name());
            assert!(Kernel::ALL[..i].iter().all(|k| k.name() != kernel.name()), "{kernel}");
        }
        assert_eq!(Kernel::default(), Kernel::Auto);
    }
}
