//! Concurrency battery for the seen-set: exactly-one winner per key under
//! thread storms, no lost inserts while shards rehash, and
//! permutation-invariance of the final contents.
//!
//! Every scenario runs on two sets: **sized** (`ConcurrentSeenSet::new`
//! with the scenario's distinct-key count, as the work-stealer pre-sizes
//! it) and **undersized** (`new(0)`, so every shard rehashes several times
//! in the middle of the storm).

use mbpe::kbiplex::parallel::seen::ConcurrentSeenSet;
use proptest::prelude::*;

/// The sets each scenario must survive, for a workload of `expected`
/// distinct keys.
fn sets(expected: usize) -> [(&'static str, ConcurrentSeenSet); 2] {
    [("sized", ConcurrentSeenSet::new(expected)), ("undersized", ConcurrentSeenSet::new(0))]
}

/// Distinct key for index `i` (multi-word, like a canonical solution key).
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
    for (label, set) in sets(keys as usize) {
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
    }
}

#[test]
fn len_is_stable_across_the_growth_threshold() {
    // Single-threaded determinism: len must tick up exactly on wins and
    // re-inserting everything must change nothing, however often the
    // shards rehash along the way.
    for (label, set) in sets(3_000) {
        assert!(set.is_empty(), "{label}");
        for i in 0..3_000u32 {
            assert!(set.insert(key(i)), "{label}: first insert of {i} wins");
            assert!(!set.insert(key(i)), "{label}: immediate duplicate of {i} loses");
            assert_eq!(set.len(), (i + 1) as u64, "{label}: len ticks exactly on wins");
        }
        for &i in &permutation(3_000, 7) {
            assert!(!set.insert(key(i)), "{label}: key {i} survives every rehash");
        }
        assert_eq!(set.len(), 3_000, "{label}");
    }
}

#[test]
fn concurrent_duplicates_of_one_hot_key_have_one_winner() {
    // All threads fight over the same tiny key set while a filler range
    // makes the shards rehash underneath the fight.
    let threads = 8;
    for (label, set) in sets(50 + threads as usize * 500) {
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
                            // Filler keys distinct per thread push the
                            // undersized shards past their capacity
                            // mid-fight.
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
    /// and one win per distinct key, regardless of insertion order, of
    /// pre-sizing, or of where the shards rehash.
    #[test]
    fn contents_are_permutation_invariant(
        raw in proptest::collection::vec((0u32..400, 0u32..4), 1..250),
        seed in any::<u64>(),
    ) {
        let keys: Vec<Vec<u32>> = raw.iter().map(|&(a, b)| vec![a, b]).collect();
        let mut shuffled = keys.clone();
        let order = permutation(shuffled.len() as u32, seed);
        let reordered: Vec<Vec<u32>> =
            order.iter().map(|&i| shuffled[i as usize].clone()).collect();
        shuffled = reordered;

        // An undersized set rehashes as the forward order fills it; the
        // permuted order goes into a set sized for every insert.
        let forward = ConcurrentSeenSet::new(0);
        let permuted = ConcurrentSeenSet::new(keys.len());
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
