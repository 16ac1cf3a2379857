//! The work-stealing scheduler.
//!
//! Every worker owns a LIFO deque of pending solutions. Expanding a
//! solution pushes the newly discovered solutions onto the *owner's* deque;
//! the owner pops from the same end, so each worker runs a depth-first
//! exploration over its private region of the solution graph and its
//! working set stays cache-warm. A worker whose deque runs dry picks a
//! random victim and steals from the *old* end of its deque — the items
//! closest to the root of the victim's DFS, which head the largest
//! unexplored subtrees — amortising one steal over many subsequent local
//! pops. The steal *granularity* adapts to the victim's depth: a deque at
//! most [`STEAL_SHALLOW`] deep gives up a single item (grabbing half of
//! almost nothing just moves the starvation to the victim and bounces the
//! same items between deques), a deeper one gives up its oldest half.
//!
//! Termination uses a single pending-work counter: it is incremented
//! *before* an item becomes visible in any deque and decremented only
//! *after* the item's expansion has completed, so `pending == 0` proves
//! that no queued item and no in-flight expansion exists anywhere and no
//! new work can appear. Idle workers spin briefly, then yield, then sleep
//! in microsecond steps until work reappears or the counter hits zero.
//!
//! De-duplication goes through the [`ConcurrentSeenSet`] (64 locked
//! hash-set shards), pre-sized from the graph; every reported solution
//! goes to the facade's emit closure from the worker that found it.

use std::collections::VecDeque;

use bigraph::BipartiteGraph;

use crate::sync::atomic::AtomicUsize;
use crate::sync::{hint, order, plock, thread, Mutex};

use super::seen::ConcurrentSeenSet;
use super::{expand_solution, resolved_threads, ParRuntime, ParallelStats};
use crate::api::QuerySpec;
use crate::biplex::{Biplex, KPair};
use crate::initial::initial_left_anchored;
use crate::sink::Control;
use crate::stats::TraversalStats;
use crate::step::ThreeStep;
use crate::traversal::rules;

/// Victim-deque depth at or below which a steal takes one item instead of
/// half.
pub const STEAL_SHALLOW: usize = 4;

/// The work-stealing engine behind the [`crate::api::Enumerator`] facade:
/// enumerates the prepared graph `g` under the validated `spec`, handing
/// every reported solution to the [`ParRuntime`] emit closure, and returns
/// the run's counters. The algorithm picks the exclusion policy: the
/// host-local slice of ℰ(H) for `iTraversal` and the large-MBP pipeline,
/// none for the `iTraversal-ES` ablation. The cancellation flag is polled at
/// every pop/steal boundary and inside expansions, so a stop request is
/// honoured within one expansion instead of running the search to
/// completion.
pub(crate) fn par_run(g: &BipartiteGraph, spec: &QuerySpec, rt: &ParRuntime<'_>) -> ParallelStats {
    let threads = resolved_threads(spec.threads);
    let exclusion = rules(spec.algorithm).exclusion;
    let deques: Vec<Mutex<VecDeque<Biplex>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    let seen = ConcurrentSeenSet::new((g.num_vertices() as usize) * 2);
    let pending = AtomicUsize::new(0);

    let mut stats = ParallelStats { threads, ..ParallelStats::default() };

    let initial = initial_left_anchored(g, spec.k);
    seen.insert(initial.canonical_key());
    stats.solutions = 1;
    if initial.left.len() >= spec.theta_left && initial.right.len() >= spec.theta_right {
        stats.reported = 1;
        rt.deliver(&initial);
    }
    // ordering: SeqCst — the seed item is counted before any worker can
    // observe the deque; see DESIGN.md "steal-pending".
    pending.store(1, order!(SeqCst, "steal-pending"));
    plock(&deques[0]).push_back(initial);

    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let deques = &deques;
                let seen = &seen;
                let pending = &pending;
                scope.spawn(move || worker(w, g, spec, exclusion, rt, deques, seen, pending))
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok((tally, steals)) => stats.absorb(&tally, steals),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    stats.stopped_early = rt.cancelled();
    stats
}

/// One worker: pop locally, steal when dry, exit when the pending counter
/// proves global completion or the run is cancelled. Returns the worker's
/// step counters and its steal count.
#[allow(clippy::too_many_arguments)]
fn worker(
    w: usize,
    g: &BipartiteGraph,
    spec: &QuerySpec,
    exclusion: bool,
    rt: &ParRuntime<'_>,
    deques: &[Mutex<VecDeque<Biplex>>],
    seen: &ConcurrentSeenSet,
    pending: &AtomicUsize,
) -> (TraversalStats, u64) {
    let mut tally = TraversalStats::default();
    let mut steals = 0u64;
    // Left candidates only, right-shrinking, this run's thresholds.
    let step = ThreeStep {
        g,
        gt: None,
        kp: KPair::symmetric(spec.k),
        right_shrinking: true,
        theta_right: spec.theta_right,
        cancel: rt.cancel,
    };
    // Per-worker deterministic xorshift state for victim selection.
    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15 ^ (w as u64 + 1).wrapping_mul(0x2545_f491_4f6c_dd1d);
    let mut idle = 0u32;

    loop {
        // Steal boundary: a cancelled (or deadline-expired) run abandons
        // queued work outright.
        if rt.should_stop() {
            break;
        }
        let host = pop_own(&deques[w]).or_else(|| steal(w, deques, &mut rng, &mut steals));
        let Some(host) = host else {
            // ordering: SeqCst — conservative: the counter reaches 0 only
            // after the last expansion, so a stale read only delays the
            // exit; see DESIGN.md "steal-pending".
            if pending.load(order!(SeqCst, "steal-pending")) == 0 {
                break;
            }
            idle += 1;
            if idle < 8 {
                hint::spin_loop();
            } else if idle < 64 {
                // Oversubscribed boxes (threads > cores) need the yield to
                // let the worker that owns the remaining work run.
                thread::yield_now();
            } else {
                // Escalate the sleep so long-idle workers stop competing
                // with the workers that still have work: 100 µs doubling up
                // to 1.6 ms. Steal latency on refill stays bounded while the
                // idle loop's CPU share goes to ~zero.
                let backoff = ((idle - 64) / 32).min(4);
                thread::sleep(std::time::Duration::from_micros(100 << backoff));
            }
            continue;
        };
        idle = 0;

        let my_deque = &deques[w];
        let on_new = |solution: Biplex, tally: &mut TraversalStats| {
            if solution.left.len() >= spec.theta_left && solution.right.len() >= spec.theta_right {
                tally.reported += 1;
                rt.deliver(&solution);
            }
            // Solution pruning (Section 5): descendants cannot regain
            // right-side size under right-shrinking.
            let expandable = !(spec.theta_right > 0 && solution.right.len() < spec.theta_right);
            // A cancelled run stops scheduling new expansions; the already
            // delivered solutions stay valid.
            if expandable && !rt.cancelled() {
                // Count the item before it becomes stealable so the
                // termination check can never miss it.
                // ordering: SeqCst — conservative: the deque lock already
                // orders this increment before the pop that takes the item;
                // see DESIGN.md "steal-pending".
                pending.fetch_add(1, order!(SeqCst, "steal-pending"));
                plock(my_deque).push_back(solution);
            }
            Control::Continue
        };
        let claim = |s: &Biplex| seen.insert(s.canonical_key());
        expand_solution(&step, &host, exclusion, &mut tally, claim, on_new);
        // Only now is this item fully accounted for.
        // ordering: SeqCst — all child fetch_adds from this expansion are
        // sequenced before this decrement, so the counter can only hit zero
        // once no queued or in-flight item remains; see DESIGN.md
        // "steal-pending".
        pending.fetch_sub(1, order!(SeqCst, "steal-pending"));
    }
    (tally, steals)
}

/// LIFO pop from the worker's own deque.
fn pop_own(deque: &Mutex<VecDeque<Biplex>>) -> Option<Biplex> {
    plock(deque).pop_back()
}

/// Scans the other deques from a random start and steals from the old end
/// of the first non-empty victim — one item when the victim is at most
/// [`STEAL_SHALLOW`] deep, its oldest half otherwise. The first stolen item
/// is returned for immediate processing, the rest land on the thief's own
/// deque.
fn steal(
    w: usize,
    deques: &[Mutex<VecDeque<Biplex>>],
    rng: &mut u64,
    steals: &mut u64,
) -> Option<Biplex> {
    let n = deques.len();
    if n == 1 {
        return None;
    }
    let start = (xorshift(rng) as usize) % n;
    for i in 0..n {
        let v = (start + i) % n;
        if v == w {
            continue;
        }
        let mut victim = plock(&deques[v]);
        let len = victim.len();
        if len == 0 {
            continue;
        }
        let take = if len <= STEAL_SHALLOW { 1 } else { len.div_ceil(2) };
        let mut stolen: VecDeque<Biplex> = victim.drain(..take).collect();
        drop(victim);
        *steals += 1;
        let first = stolen.pop_front();
        if !stolen.is_empty() {
            let mut mine = plock(&deques[w]);
            mine.extend(stolen);
        }
        return first;
    }
    None
}

/// xorshift64* step.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}
