//! Property-based equivalence battery over the intersection kernels:
//! scalar merge ≡ galloping ≡ branchless chunked ≡ bitset on arbitrary
//! strictly-sorted inputs across every length ratio and density (including
//! one or both sides empty).

use bigraph::intersect::{dispatch_with, intersection_into, intersects, Kernel};
use proptest::prelude::*;

/// Reference implementation: the obvious quadratic-free two-pointer walk,
/// written independently of the kernels under test.
fn naive_len(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

fn naive_set(a: &[u32], b: &[u32]) -> Vec<u32> {
    a.iter().copied().filter(|x| b.binary_search(x).is_ok()).collect()
}

/// Strategy: a strictly sorted, deduplicated id list whose length and
/// density both vary wildly — `max_gap` spans contiguous runs (bitset
/// territory) to sparse scatters (gallop/merge territory), and `len` spans
/// empty through several chunked blocks.
fn sorted_ids_strategy() -> impl Strategy<Value = Vec<u32>> {
    (0usize..80, 1u32..200, 0u32..100).prop_flat_map(|(len, max_gap, start)| {
        proptest::collection::vec(1u32..max_gap + 1, len).prop_map(move |gaps| {
            let mut v = Vec::with_capacity(gaps.len());
            let mut next = start;
            for g in gaps {
                v.push(next);
                next += g;
            }
            v
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every kernel (and the crossover heuristic) agrees with the naive
    /// reference on arbitrary sorted inputs, in both argument orders.
    #[test]
    fn all_kernels_match_the_naive_reference(
        a in sorted_ids_strategy(),
        b in sorted_ids_strategy(),
    ) {
        let expected = naive_len(&a, &b);
        for kernel in Kernel::ALL {
            prop_assert_eq!(dispatch_with(kernel, &a, &b), expected, "kernel {}", kernel);
            prop_assert_eq!(dispatch_with(kernel, &b, &a), expected, "kernel {} swapped", kernel);
        }
    }

    /// `intersection_into` produces the exact sorted set (not just the
    /// count), and `intersects` agrees with emptiness — on the same wild
    /// ratio/density mix.
    #[test]
    fn set_and_emptiness_agree_with_the_reference(
        a in sorted_ids_strategy(),
        b in sorted_ids_strategy(),
    ) {
        let expected = naive_set(&a, &b);
        let mut out = vec![42u32]; // must be cleared
        intersection_into(&a, &b, &mut out);
        prop_assert_eq!(&out, &expected);
        intersection_into(&b, &a, &mut out);
        prop_assert_eq!(&out, &expected);
        prop_assert_eq!(intersects(&a, &b), !expected.is_empty());
        prop_assert_eq!(intersects(&b, &a), !expected.is_empty());
    }
}

/// Extreme length-ratio sweep the random strategy is unlikely to hit: a
/// handful of probes against a long stride grid, exercising the galloping
/// probe windows at every power-of-two boundary.
#[test]
fn extreme_ratio_grid() {
    let long: Vec<u32> = (0..5000u32).map(|i| i * 3).collect();
    for probe in [0u32, 1, 2, 3, 7_499, 7_500, 7_501, 14_994, 14_997, 15_000] {
        let short = vec![probe];
        let expected = naive_len(&short, &long);
        for kernel in Kernel::ALL {
            assert_eq!(dispatch_with(kernel, &short, &long), expected, "probe {probe} {kernel}");
        }
    }
    // Both-empty and one-empty stay total for every kernel.
    for kernel in Kernel::ALL {
        assert_eq!(dispatch_with(kernel, &[], &[]), 0);
        assert_eq!(dispatch_with(kernel, &[], &long), 0);
        assert_eq!(dispatch_with(kernel, &long, &[]), 0);
    }
}
