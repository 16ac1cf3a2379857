//! A lock-free, insert-only concurrent set of canonical solution keys with
//! a segmented, cooperatively-growable bucket index.
//!
//! # Chains
//!
//! Each bucket is a singly linked chain of immutable nodes whose `next`
//! pointers are [`OnceLock`]s. An insert walks the chain comparing keys
//! and, at the tail, *atomically swaps* its freshly allocated node into the
//! empty `next` slot; losing the swap race simply means another thread
//! extended the chain first, and the walk continues from the node that won.
//! No entry is ever removed or mutated, so readers need no synchronisation
//! beyond the atomic pointer loads `OnceLock::get` performs.
//!
//! # Segmented directory
//!
//! Buckets are addressed through a two-level directory: a fixed root array
//! of [`MAX_SEGMENTS`] slots, each lazily holding one fixed-size *segment*
//! of bucket heads. Only a power-of-two prefix of the root is *published*
//! at any time; the global bucket index of a key is its hash masked to the
//! published capacity (`hash & (segments · segment_buckets − 1)`), split
//! into a segment number and a slot within the segment.
//!
//! Capacity grows by *publishing* more segments — allocating the next run
//! of segments and doubling the published count — never by rehashing:
//! published masks are nested, so a key inserted when the mask was small
//! still sits in a chain every later probe visits (the probe loop walks the
//! key's bucket under every historical mask, deduplicating repeated bucket
//! indices). Whichever inserting thread pushes
//! [`len`](ConcurrentSeenSet::len) past the published capacity triggers the
//! next doubling.
//!
//! # Cooperative growth protocol
//!
//! Growth must not race with in-flight inserts of the same key landing in
//! chains of different eras. The set therefore counts in-flight inserts
//! and linearises publication against them:
//!
//! 1. an inserter increments `inflight`, then re-checks the `growing`
//!    flag — if set, it backs out and spins until publication completes;
//! 2. the growing thread sets `growing`, waits for `inflight` to drain to
//!    zero, publishes the new segments, and clears the flag.
//!
//! Any node linked under an old mask is therefore linked *before* the next
//! mask is published, so an insert running under the new mask probes the
//! old chain after that link is visible and can never duplicate the key.
//! The insert path is lock-free except during a publication event, where
//! inserters cooperatively pause for the new segments' allocation plus (at
//! most) the longest in-flight chain walk; probes never block.

use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{order, OnceLock};

/// Buckets per segment (2¹²): one segment is 64 KiB of bucket heads, so a
/// tiny enumeration pays ~128 KiB (one segment plus the 4096-slot root
/// directory) instead of the old 1 MiB fixed floor.
pub const SEGMENT_BUCKETS: usize = 1 << 12;

/// Root directory slots. With [`SEGMENT_BUCKETS`] this caps the index at
/// 2²⁴ buckets (≈16.8 M); past the cap, chains absorb the load exactly as
/// the old fixed design did at 2¹⁶.
pub const MAX_SEGMENTS: usize = 1 << 12;

/// One chain link holding a canonical solution key (plus its full 64-bit
/// hash, so chain walks only compare vectors on a hash match).
struct Node {
    hash: u64,
    key: Vec<u32>,
    next: OnceLock<Box<Node>>,
}

/// Stripes of the in-flight insert counter. Each thread is assigned a
/// stripe round-robin on first insert, so the two counter bumps per insert
/// don't all contend on one cache line even when every thread races on the
/// same hot key; only the (rare) growth drain reads every stripe.
const INFLIGHT_STRIPES: usize = 16;

/// Round-robin stripe assignment, cached per thread. Correctness only
/// needs every in-flight insert counted on *some* stripe (the drain reads
/// them all), so the choice is free to optimise for contention.
#[cfg(not(kbiplex_model))]
fn my_stripe() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            // ordering: Relaxed — the counter only spreads threads across
            // stripes; no data is published through it.
            v = NEXT.fetch_add(1, Ordering::Relaxed) % INFLIGHT_STRIPES;
            s.set(v);
        }
        v
    })
}

/// Model-backend stripe assignment: derived from the model-thread index so
/// it is deterministic per execution (a thread-local cache would leak
/// stripe choices across model executions and break schedule replay).
#[cfg(kbiplex_model)]
fn my_stripe() -> usize {
    crate::sync::thread::current_index() % INFLIGHT_STRIPES
}

/// One cache-line-padded counter stripe.
#[repr(align(64))]
#[derive(Default)]
struct InflightStripe(AtomicUsize);

/// One lazily allocated run of bucket heads.
struct Segment {
    buckets: Vec<OnceLock<Box<Node>>>,
}

impl Segment {
    fn new(buckets: usize) -> Box<Segment> {
        Box::new(Segment { buckets: (0..buckets).map(|_| OnceLock::new()).collect() })
    }
}

/// The concurrent seen-set. See the module docs for the design.
pub struct ConcurrentSeenSet {
    /// Root directory; slots `0..segments` are published.
    root: Vec<OnceLock<Box<Segment>>>,
    /// Buckets per segment (power of two; [`SEGMENT_BUCKETS`] unless built
    /// through [`with_geometry`](Self::with_geometry)).
    segment_buckets: usize,
    /// Published segment count (power-of-two multiple of `min_segments`).
    segments: AtomicUsize,
    /// Segment count at construction — the smallest mask probes must cover.
    min_segments: usize,
    /// Number of inserts between reading `segments` and linking their node,
    /// striped by inserting thread.
    inflight: [InflightStripe; INFLIGHT_STRIPES],
    /// Set while a thread is waiting out `inflight` to publish segments.
    growing: AtomicBool,
    len: AtomicU64,
}

impl ConcurrentSeenSet {
    /// Creates a set pre-sized for roughly `expected` keys: the initial
    /// published capacity is `expected` rounded up to a whole number of
    /// segments (one 2¹²-bucket segment minimum, so small runs start
    /// small). Capacity is *not* fixed: whenever the number of distinct
    /// keys crosses the published bucket count, the inserting thread that
    /// crossed it doubles the segment count, keeping chains near length
    /// one up to [`MAX_SEGMENTS`] segments (≈16.8 M buckets).
    pub fn new(expected: usize) -> Self {
        Self::with_geometry(expected.div_ceil(SEGMENT_BUCKETS), SEGMENT_BUCKETS)
    }

    /// Creates a set with an explicit geometry: `initial_segments` segments
    /// (clamped to `1..=`[`MAX_SEGMENTS`], rounded up to a power of two) of
    /// `segment_buckets` buckets each (rounded up to a power of two). The
    /// growth policy is the same as [`new`](Self::new); a set whose initial
    /// capacity already covers the whole workload never grows and behaves
    /// exactly like the old fixed-capacity design. Intended for benchmarks
    /// and tests; everything else should use [`new`](Self::new).
    pub fn with_geometry(initial_segments: usize, segment_buckets: usize) -> Self {
        let segment_buckets = segment_buckets.max(1).next_power_of_two();
        let initial = initial_segments.clamp(1, MAX_SEGMENTS).next_power_of_two();
        let root: Vec<OnceLock<Box<Segment>>> =
            (0..MAX_SEGMENTS).map(|_| OnceLock::new()).collect();
        for slot in root.iter().take(initial) {
            let fresh = slot.set(Segment::new(segment_buckets)).is_ok();
            debug_assert!(fresh, "fresh root slot");
        }
        ConcurrentSeenSet {
            root,
            segment_buckets,
            segments: AtomicUsize::new(initial),
            min_segments: initial,
            inflight: Default::default(),
            growing: AtomicBool::new(false),
            len: AtomicU64::new(0),
        }
    }

    /// Inserts `key`; returns `true` iff this call added it (exactly one of
    /// any number of concurrent inserts of the same key returns `true`).
    pub fn insert(&self, key: Vec<u32>) -> bool {
        let h = fnv1a(&key);
        let stripe = &self.inflight[my_stripe()].0;
        let segments = self.enter(stripe);
        let added = self.insert_under(h, key, segments);
        // ordering: SeqCst — the exit decrement must come after the node
        // link in the single total order the growth drain reads (mutation
        // site, see DESIGN.md "seen-exit-stripe").
        stripe.fetch_sub(1, order!(SeqCst, "seen-exit-stripe"));
        if added {
            // ordering: Relaxed — len is a statistic plus a growth trigger;
            // the growth protocol itself re-reads it under the flag.
            let len = self.len.fetch_add(1, Ordering::Relaxed) + 1;
            // Load factor 1: whoever crosses the published bucket count
            // kicks off the next doubling.
            if len as usize > segments * self.segment_buckets {
                self.try_grow();
            }
        }
        added
    }

    /// Registers this thread as an in-flight inserter on `stripe` and
    /// returns the published segment count its insert runs under. Backs
    /// out and spins while a publication is in progress, so the growth
    /// protocol's drain wait terminates.
    fn enter(&self, stripe: &AtomicUsize) -> usize {
        loop {
            // ordering: SeqCst — Dekker-style with `growing`: the increment
            // and the flag check must not reorder, or the grower could miss
            // this in-flight insert (mutation site, see DESIGN.md
            // "seen-enter-stripe").
            stripe.fetch_add(1, order!(SeqCst, "seen-enter-stripe"));
            // ordering: SeqCst — pairs with the increment above against the
            // grower's swap/drain; see DESIGN.md "seen-enter-growing".
            if !self.growing.load(order!(SeqCst, "seen-enter-growing")) {
                // ordering: SeqCst — the count read here decides which era
                // the insert links under; it must be at least as new as the
                // publication the cleared flag proves finished; see
                // DESIGN.md "seen-enter-segments".
                return self.segments.load(order!(SeqCst, "seen-enter-segments"));
            }
            // ordering: SeqCst — backout must be ordered before the re-read
            // of the flag so the drain can terminate.
            stripe.fetch_sub(1, Ordering::SeqCst);
            // ordering: SeqCst — spin until the publication completes.
            while self.growing.load(Ordering::SeqCst) {
                // Publication is rare and the wait is bounded by one drain;
                // yielding (rather than spinning) keeps oversubscribed
                // boxes from burning the publisher's timeslice.
                crate::sync::thread::yield_now();
            }
        }
    }

    /// The chain walk + tail race, against the directory state `segments`.
    fn insert_under(&self, h: u64, key: Vec<u32>, segments: usize) -> bool {
        // Walk the current era's chain first: each doubling means the
        // newest era holds about half of all keys, so the expected
        // duplicate is found after one or two walks when probing newest to
        // oldest (versus touching every era when probing oldest-first).
        // This walk doubles as the tail search for the insert race below.
        let target = self.bucket_index(h, segments);
        let mut slot = self.bucket_slot(target);
        loop {
            match slot.get() {
                Some(node) if node.hash == h && node.key == key => return false,
                Some(node) => slot = &node.next,
                None => break,
            }
        }
        // Probe the key's bucket under every older mask, newest era first;
        // nested masks mean consecutive eras often alias to the same
        // bucket, in which case the revisit is skipped. A new key must
        // visit them all before it may link.
        let mut era = segments / 2;
        let mut last = target;
        while era >= self.min_segments {
            let idx = self.bucket_index(h, era);
            era /= 2;
            if idx == last {
                continue;
            }
            last = idx;
            if self.chain_contains(idx, h, &key) {
                return false;
            }
        }
        // Not present anywhere: allocate once and race for empty tail slots
        // of the current era's chain, where all same-key racers meet.
        let mut node = Box::new(Node { hash: h, key, next: OnceLock::new() });
        loop {
            match slot.set(node) {
                Ok(()) => return true,
                Err(returned) => {
                    node = returned;
                    let Some(occupant) = slot.get() else {
                        // A failed set proves the slot was occupied, and
                        // chain links are never removed.
                        unreachable!("slot observed occupied");
                    };
                    if occupant.hash == node.hash && occupant.key == node.key {
                        return false;
                    }
                    slot = &occupant.next;
                }
            }
        }
    }

    /// Walks one chain read-only; `true` if it holds `key`.
    fn chain_contains(&self, idx: usize, h: u64, key: &[u32]) -> bool {
        let mut slot = self.bucket_slot(idx);
        while let Some(node) = slot.get() {
            if node.hash == h && node.key == *key {
                return true;
            }
            slot = &node.next;
        }
        false
    }

    /// Global bucket index of hash `h` under a published count of
    /// `segments` (both factors are powers of two, so this is a mask).
    fn bucket_index(&self, h: u64, segments: usize) -> usize {
        (h as usize) & (segments * self.segment_buckets - 1)
    }

    /// Resolves a global bucket index through the directory.
    fn bucket_slot(&self, idx: usize) -> &OnceLock<Box<Node>> {
        let Some(segment) = self.root[idx / self.segment_buckets].get() else {
            // Indices are always masked to a published count, and segments
            // are set strictly before the count covering them.
            unreachable!("published segment");
        };
        &segment.buckets[idx % self.segment_buckets]
    }

    /// Doubles the published segment count (capped at [`MAX_SEGMENTS`]),
    /// waiting out in-flight inserts first; no-op if another thread is
    /// already publishing.
    fn try_grow(&self) {
        // ordering: SeqCst — the pre-election snapshot the post-election
        // re-check compares against.
        let observed = self.segments.load(Ordering::SeqCst);
        // ordering: Relaxed (len) — the threshold is heuristic; the
        // authoritative re-check happens under the flag below.
        // ordering: SeqCst (growing.swap) — the swap elects exactly one
        // grower *before* anything is allocated, so racing
        // threshold-crossers never each build (and discard) a capacity's
        // worth of segments; see DESIGN.md "seen-elect-growing".
        if observed >= MAX_SEGMENTS
            || (self.len.load(Ordering::Relaxed) as usize) <= observed * self.segment_buckets
            || self.growing.swap(true, order!(SeqCst, "seen-elect-growing"))
        {
            return;
        }
        // Elected. Re-check under the flag: a racer may have published
        // while this thread was entering, in which case the doubling it
        // observed is already done and the flag comes straight back down.
        // ordering: SeqCst — reads the count the previous publication wrote
        // before clearing the flag this thread now holds.
        let current = self.segments.load(Ordering::SeqCst);
        // ordering: Relaxed (len) — same heuristic as above; a stale read
        // only delays growth by one insert.
        if current == observed
            && self.len.load(Ordering::Relaxed) as usize > current * self.segment_buckets
        {
            // Allocation happens under the flag — inserters arriving now
            // stall for the allocation as well as the drain, but only on
            // this rare true-growth path, and only one thread allocates.
            for (slot, _) in self.root.iter().skip(current).zip(0..current) {
                let unpublished = slot.set(Segment::new(self.segment_buckets)).is_ok();
                debug_assert!(unpublished, "unpublished root slot");
            }
            // Drain: every insert that read the old count links its node
            // before decrementing, so after the drain the new mask can be
            // published without a same-key insert straddling two eras.
            // ordering: SeqCst — each stripe read must observe every
            // increment ordered before this thread's flag swap (mutation
            // site, see DESIGN.md "seen-drain-stripe").
            while self.inflight.iter().any(|s| s.0.load(order!(SeqCst, "seen-drain-stripe")) > 0) {
                // The holders are mid-chain-walk; let them run (matters on
                // oversubscribed boxes where they may not be scheduled).
                crate::sync::thread::yield_now();
            }
            // ordering: SeqCst — publication: every later `enter` must see
            // this count once the flag below is observed clear; see
            // DESIGN.md "seen-publish-segments".
            self.segments.store(current * 2, order!(SeqCst, "seen-publish-segments"));
        }
        // ordering: SeqCst — releases the election; ordered after the
        // publication store so waiters resume under the new mask; see
        // DESIGN.md "seen-publish-segments".
        self.growing.store(false, order!(SeqCst, "seen-publish-segments"));
    }

    /// Number of distinct keys inserted so far.
    pub fn len(&self) -> u64 {
        // ordering: Relaxed — a monotonic statistic; readers tolerate lag.
        self.len.load(Ordering::Relaxed)
    }

    /// `true` when nothing has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Published segment count (grows from the constructor's value up to
    /// [`MAX_SEGMENTS`], doubling each time the load factor crosses 1).
    pub fn segments(&self) -> usize {
        // ordering: SeqCst — observers see counts no older than the inserts
        // they synchronised with.
        self.segments.load(Ordering::SeqCst)
    }

    /// Published bucket count — `segments() · segment_buckets`.
    pub fn capacity(&self) -> usize {
        self.segments() * self.segment_buckets
    }

    /// Snapshot of the inserted keys, in no particular order. Keys whose
    /// insert completed before the call are all present; keys racing with
    /// the call may or may not be.
    pub fn keys(&self) -> Vec<Vec<u32>> {
        // ordering: SeqCst — walk everything published before the call.
        let segments = self.segments.load(Ordering::SeqCst);
        let mut out = Vec::with_capacity(self.len() as usize);
        for slot in self.root.iter().take(segments) {
            let Some(segment) = slot.get() else { continue };
            for head in &segment.buckets {
                let mut slot = head;
                while let Some(node) = slot.get() {
                    out.push(node.key.clone());
                    slot = &node.next;
                }
            }
        }
        out
    }
}

impl Drop for ConcurrentSeenSet {
    /// Unlinks chains iteratively: the default recursive `Box` drop would
    /// overflow the stack on the long chains a saturated set builds up.
    fn drop(&mut self) {
        // Only the published prefix can hold segments (publication sets a
        // slot strictly before the count covering it is stored, and counts
        // never shrink).
        // ordering: SeqCst — `&mut self` already guarantees exclusivity; a
        // plain load keeps the facade surface small (the model backend has
        // no `get_mut`).
        let published = self.segments.load(Ordering::SeqCst);
        for slot in &mut self.root[..published] {
            let Some(segment) = slot.get_mut() else { continue };
            for head in &mut segment.buckets {
                let mut cur = head.take();
                while let Some(mut node) = cur {
                    cur = node.next.take();
                }
            }
        }
    }
}

/// FNV-1a over a slice of `u32` keys (bucket selector — speed over quality).
pub(crate) fn fnv1a(key: &[u32]) -> u64 {
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
        assert_eq!(set.segments(), 1, "tiny expectation starts at one segment");
        assert!(set.insert(vec![1, 2, 3]));
        assert!(!set.insert(vec![1, 2, 3]));
        assert!(set.insert(vec![1, 2]));
        assert!(set.insert(vec![]));
        assert!(!set.insert(vec![]));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn new_rounds_expected_up_to_whole_segments() {
        assert_eq!(ConcurrentSeenSet::new(1).capacity(), SEGMENT_BUCKETS);
        assert_eq!(ConcurrentSeenSet::new(SEGMENT_BUCKETS).capacity(), SEGMENT_BUCKETS);
        assert_eq!(ConcurrentSeenSet::new(SEGMENT_BUCKETS + 1).capacity(), 2 * SEGMENT_BUCKETS);
        let huge = ConcurrentSeenSet::with_geometry(2 * MAX_SEGMENTS, SEGMENT_BUCKETS);
        assert_eq!(huge.segments(), MAX_SEGMENTS);
    }

    #[test]
    fn chains_handle_collisions_without_growth() {
        // Far more keys than buckets in a maxed-out directory of tiny
        // segments: every bucket degrades into a multi-node chain, exactly
        // the old fixed-capacity behaviour.
        let set = ConcurrentSeenSet::with_geometry(MAX_SEGMENTS, 1);
        for i in 0..10_000u32 {
            assert!(set.insert(vec![i, i + 1]));
        }
        for i in 0..10_000u32 {
            assert!(!set.insert(vec![i, i + 1]));
        }
        assert_eq!(set.len(), 10_000);
    }

    #[test]
    fn growth_crosses_eras_without_losing_keys() {
        // One 16-bucket segment grows several times; every key inserted
        // before, across and after the growth points stays claimed exactly
        // once.
        let set = ConcurrentSeenSet::with_geometry(1, 16);
        assert_eq!(set.segments(), 1);
        for i in 0..2_000u32 {
            assert!(set.insert(vec![i]));
            assert!(!set.insert(vec![i]), "key {i} duplicated after growth");
        }
        assert!(set.segments() > 1, "load factor 1 triggers publication");
        for i in 0..2_000u32 {
            assert!(!set.insert(vec![i]), "key {i} lost across eras");
        }
        assert_eq!(set.len(), 2_000);
        let mut keys = set.keys();
        keys.sort();
        assert_eq!(keys.len(), 2_000);
        assert_eq!(keys[0], vec![0]);
        assert_eq!(keys[1_999], vec![1_999]);
    }

    #[test]
    fn concurrent_inserts_claim_each_key_once() {
        // Small segments force several publications mid-run while 8 threads
        // hammer overlapping key ranges.
        let set = ConcurrentSeenSet::with_geometry(1, 64);
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
        assert!(set.segments() > 1, "concurrent load grew the directory");
    }

    #[test]
    fn saturated_directory_keeps_claiming_past_the_cap() {
        // A directory already at MAX_SEGMENTS cannot grow; inserts beyond
        // its capacity must still claim exactly once (chains absorb the
        // load), and the iterative drop must unlink them all.
        let set = ConcurrentSeenSet::with_geometry(MAX_SEGMENTS, 1);
        let n = 4 * MAX_SEGMENTS as u32;
        for i in 0..n {
            assert!(set.insert(vec![i, i]));
        }
        assert_eq!(set.segments(), MAX_SEGMENTS, "cap holds");
        assert_eq!(set.len(), n as u64);
        for i in 0..n {
            assert!(!set.insert(vec![i, i]));
        }
        drop(set);
    }
}
