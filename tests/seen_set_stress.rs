//! Concurrency battery for the segmented, growable seen-set: exactly-one
//! winner per key under thread storms, no lost inserts across segment
//! publications, and permutation-invariance of the final contents.
//!
//! Every scenario runs under two geometries: **fixed** (a directory
//! already at its maximum segment count — growth impossible, chains absorb
//! the load) and **segmented** (a one-segment start sized so the workload
//! crosses several growth thresholds mid-run).

use mbpe::kbiplex::parallel::seen::{ConcurrentSeenSet, MAX_SEGMENTS};
use proptest::prelude::*;

/// The geometries each scenario must survive. The tiny bucket counts keep
/// the growable set small enough that a few thousand keys force repeated
/// publications (and long chains in the non-growing set).
fn geometries() -> [(&'static str, ConcurrentSeenSet); 2] {
    [
        ("fixed", ConcurrentSeenSet::with_geometry(MAX_SEGMENTS, 16)),
        ("segmented", ConcurrentSeenSet::with_geometry(1, 64)),
    ]
}

/// Distinct key for index `i` (multi-word, so chain walks compare vectors).
fn key(i: u32) -> Vec<u32> {
    vec![i, i.wrapping_mul(0x9e37_79b9), !i]
}

/// Deterministic per-thread permutation of `0..n` (xorshift-seeded
/// Fisher–Yates), so every thread inserts the same keys in a different
/// interleaving.
fn permutation(n: u32, mut seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n).collect();
    for i in (1..order.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        order.swap(i, (seed as usize) % (i + 1));
    }
    order
}

#[test]
fn thread_storm_claims_every_key_exactly_once() {
    let threads = 8;
    let keys = 4_000u32;
    for (label, set) in geometries() {
        let start_segments = set.segments();
        let claimed: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let set = &set;
                    scope.spawn(move || {
                        let mut wins = 0u64;
                        for &i in &permutation(keys, 0xc0ff_ee00 + t as u64) {
                            if set.insert(key(i)) {
                                wins += 1;
                            }
                        }
                        wins
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(claimed, keys as u64, "{label}: every key claimed exactly once");
        assert_eq!(set.len(), keys as u64, "{label}: len counts distinct keys");
        let mut got = set.keys();
        got.sort();
        let mut expected: Vec<Vec<u32>> = (0..keys).map(key).collect();
        expected.sort();
        assert_eq!(got, expected, "{label}: no insert lost, none duplicated");
        if label == "segmented" {
            assert!(
                set.segments() > start_segments,
                "the storm must cross the growth threshold (still {start_segments} segments)"
            );
        } else {
            assert_eq!(set.segments(), start_segments, "fixed geometry cannot grow");
        }
    }
}

#[test]
fn len_is_stable_across_the_growth_threshold() {
    // Single-threaded determinism: len must tick up exactly on wins and
    // re-inserting everything must change nothing, no matter how many
    // publications happen along the way.
    for (label, set) in geometries() {
        assert!(set.is_empty(), "{label}");
        let mut growth_events = 0;
        let mut segments = set.segments();
        for i in 0..3_000u32 {
            assert!(set.insert(key(i)), "{label}: first insert of {i} wins");
            assert!(!set.insert(key(i)), "{label}: immediate duplicate of {i} loses");
            assert_eq!(set.len(), (i + 1) as u64, "{label}: len ticks exactly on wins");
            if set.segments() != segments {
                segments = set.segments();
                growth_events += 1;
            }
        }
        for &i in &permutation(3_000, 7) {
            assert!(!set.insert(key(i)), "{label}: key {i} survives all publications");
        }
        assert_eq!(set.len(), 3_000, "{label}");
        if label == "segmented" {
            assert!(growth_events >= 3, "tiny segments must publish repeatedly");
        } else {
            assert_eq!(growth_events, 0, "fixed geometry cannot grow");
        }
    }
}

#[test]
fn concurrent_duplicates_of_one_hot_key_have_one_winner() {
    // All threads fight over the same tiny key set while a filler range
    // forces growth underneath — the worst case for an insert straddling a
    // publication.
    let threads = 8;
    for (label, set) in geometries() {
        let winners: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let set = &set;
                    scope.spawn(move || {
                        let mut wins = 0u64;
                        for round in 0..500u32 {
                            if set.insert(vec![round % 50]) {
                                wins += 1;
                            }
                            // Filler keys distinct per thread drive len
                            // over the growth threshold mid-fight.
                            set.insert(key(10_000 + t * 1_000 + round));
                        }
                        wins
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(winners, 50, "{label}: one winner per hot key");
        assert_eq!(set.len(), 50 + threads as u64 * 500, "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Interleaved insert sequences are permutation-invariant: the same
    /// multiset of keys produces the same final key set, the same count
    /// and one win per distinct key, regardless of insertion order,
    /// initial segment count, or where the growth points fall.
    #[test]
    fn contents_are_permutation_invariant(
        raw in proptest::collection::vec((0u32..400, 0u32..4), 1..250),
        seed in any::<u64>(),
        initial_segments in 1usize..5,
    ) {
        let keys: Vec<Vec<u32>> = raw.iter().map(|&(a, b)| vec![a, b]).collect();
        let mut shuffled = keys.clone();
        let order = permutation(shuffled.len() as u32, seed);
        let reordered: Vec<Vec<u32>> =
            order.iter().map(|&i| shuffled[i as usize].clone()).collect();
        shuffled = reordered;

        // Tiny 8-bucket segments: 250 inserts cross several growth points,
        // and different orders/initial sizes move those points around.
        let forward = ConcurrentSeenSet::with_geometry(1, 8);
        let permuted = ConcurrentSeenSet::with_geometry(initial_segments, 8);
        let mut forward_wins = 0u64;
        for k in &keys {
            if forward.insert(k.clone()) {
                forward_wins += 1;
            }
        }
        let mut permuted_wins = 0u64;
        for k in &shuffled {
            if permuted.insert(k.clone()) {
                permuted_wins += 1;
            }
        }

        let mut expected: Vec<Vec<u32>> = keys.clone();
        expected.sort();
        expected.dedup();
        prop_assert_eq!(forward_wins, expected.len() as u64);
        prop_assert_eq!(permuted_wins, expected.len() as u64);
        prop_assert_eq!(forward.len(), permuted.len());
        let mut a = forward.keys();
        a.sort();
        let mut b = permuted.keys();
        b.sort();
        prop_assert_eq!(&a, &expected);
        prop_assert_eq!(&b, &expected);
    }
}
