//! The work-stealer's set of claimed solutions: canonical solution keys in
//! 64 independently locked hash sets, each key's shard chosen by its FNV-1a
//! hash.
//!
//! This is the paper's solution dictionary (Algorithm 1, lines 1 and 7–8)
//! made safe to share between workers. An insert locks one shard for one
//! `HashSet` insert, so exactly one of any number of concurrent inserts of
//! a key returns `true`, which is what keeps the reported solution set
//! exact. Workers claiming keys of different shards never touch the same
//! lock.

use std::collections::HashSet;

use crate::sync::{plock, Mutex};

/// Number of independently locked shards.
const SHARDS: usize = 64;

/// The concurrent seen-set. See the module docs for the design.
pub struct ConcurrentSeenSet {
    shards: [Mutex<HashSet<Vec<u32>>>; SHARDS],
}

impl ConcurrentSeenSet {
    /// Creates a set pre-sized for roughly `expected` keys, spread evenly
    /// over the shards. A shard that outgrows its share rehashes under its
    /// own lock, as any `HashSet` does.
    pub fn new(expected: usize) -> Self {
        let per_shard = expected.div_ceil(SHARDS);
        ConcurrentSeenSet {
            shards: std::array::from_fn(|_| Mutex::new(HashSet::with_capacity(per_shard))),
        }
    }

    /// Inserts `key`; returns `true` iff this call added it (exactly one of
    /// any number of concurrent inserts of the same key returns `true`).
    pub fn insert(&self, key: Vec<u32>) -> bool {
        let shard = fnv1a(&key) as usize % SHARDS;
        plock(&self.shards[shard]).insert(key)
    }

    /// Number of distinct keys inserted so far (shard by shard, so inserts
    /// racing with the call may or may not be counted).
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|s| plock(s).len() as u64).sum()
    }

    /// `true` when nothing has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the inserted keys, in no particular order. Keys whose
    /// insert completed before the call are all present; keys racing with
    /// the call may or may not be.
    pub fn keys(&self) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(plock(shard).iter().cloned());
        }
        out
    }
}

/// FNV-1a over a slice of `u32` keys (shard selector — speed over quality).
fn fnv1a(key: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &x in key {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_first_only() {
        let set = ConcurrentSeenSet::new(0);
        assert!(set.is_empty());
        assert!(set.insert(vec![1, 2, 3]));
        assert!(!set.insert(vec![1, 2, 3]));
        assert!(set.insert(vec![1, 2]));
        assert!(set.insert(vec![]));
        assert!(!set.insert(vec![]));
        assert_eq!(set.len(), 3);
        let mut keys = set.keys();
        keys.sort();
        assert_eq!(keys, [vec![], vec![1, 2], vec![1, 2, 3]]);
    }

    #[test]
    fn concurrent_inserts_claim_each_key_once() {
        // An unsized set: every shard rehashes several times mid-run while
        // 8 threads hammer overlapping key ranges.
        let set = ConcurrentSeenSet::new(0);
        let threads = 8;
        let keys = 2_000u32;
        let claimed: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let set = &set;
                    scope.spawn(move || {
                        let mut wins = 0u64;
                        for i in 0..keys {
                            if set.insert(vec![i]) {
                                wins += 1;
                            }
                        }
                        wins
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(claimed, keys as u64, "every key claimed exactly once");
        assert_eq!(set.len(), keys as u64);
    }
}
