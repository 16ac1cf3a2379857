//! Greedy maximal extension of a k-biplex (Step 3 of the `ThreeStep` /
//! `iThreeStep` procedures).
//!
//! Given a k-biplex, vertices are considered in a fixed *preset order* (all
//! left vertices by ascending id, then all right vertices by ascending id)
//! and added whenever the k-biplex property is preserved. Because the
//! property is hereditary, a vertex that cannot be added at the moment it is
//! considered can never become addable later, so a single pass yields a
//! maximal k-biplex and the result is a deterministic function of the input
//! — the requirement the reverse-search framework places on the extension
//! step.
//!
//! Only a vertex with at least `|S| − k` neighbours in the opposite side
//! `S` can join, so each pass first filters its side by counting, with the
//! budget of the side it draws from: `k_L` for left vertices, `k_R` for
//! right ones (the symmetric k-biplex has `k_L = k_R = k`). For `k ≥ 1`
//! the counting is one dense occurrence tally per thread: every id
//! of every neighbour list of `S` bumps its counter, and the ids that reach
//! `|S| − k` are the candidates. The tally keeps each candidate's hit count
//! `|N(v) ∩ S|`, and `S` does not change during the pass, so the pass knows
//! every candidate's miss count without intersecting its neighbours with
//! `S` again. For `k = 0` the filter is the intersection of the lists.

use std::cell::RefCell;

use bigraph::intersect::intersection_into;
use bigraph::BipartiteGraph;

use crate::biplex::{KPair, PartialBiplex};

/// Which sides the extension step is allowed to draw new vertices from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExtendMode {
    /// Add vertices from both sides (used by `bTraversal`, Algorithm 1).
    BothSides,
    /// Add vertices from the left side only (used by `iTraversal` under the
    /// right-shrinking traversal, Algorithm 2 line 8).
    LeftOnly,
}

/// Collects the left vertices that could possibly be added to a solution
/// whose right side is `right`: a left vertex needs at least
/// `|right| − k` neighbours inside `right`. When `|right| ≤ k` every left
/// vertex qualifies trivially.
///
/// Returns `(id, hits)` pairs sorted by id, where `hits = |N(id) ∩ right|`
/// exactly, so a caller holding `right` fixed knows each candidate's miss
/// count `|right| − hits` without intersecting again. The list excludes
/// nothing else: the budgets of `right` are still the caller's to check.
pub fn left_extension_candidates(g: &BipartiteGraph, right: &[u32], k: usize) -> Vec<(u32, u32)> {
    extension_candidates(g.num_left(), right.iter().map(|&u| g.right_neighbors(u)), right.len(), k)
}

/// Symmetric to [`left_extension_candidates`] for the right side.
pub fn right_extension_candidates(g: &BipartiteGraph, left: &[u32], k: usize) -> Vec<(u32, u32)> {
    extension_candidates(g.num_right(), left.iter().map(|&v| g.left_neighbors(v)), left.len(), k)
}

/// The filter behind both sides: ids in `0..n` occurring in at least
/// `len − k` of the `len` sorted `lists`, with their occurrence counts.
fn extension_candidates<'a, I: Iterator<Item = &'a [u32]>>(
    n: u32,
    lists: I,
    len: usize,
    k: usize,
) -> Vec<(u32, u32)> {
    if k == 0 && len > 0 {
        let hits = len as u32;
        return intersect_all(lists).into_iter().map(|id| (id, hits)).collect();
    }
    count_candidates(n, lists, len.saturating_sub(k))
}

/// `k = 0` counting filter: a candidate must occur in *every* list, so the
/// answer is exactly the intersection of all neighbour lists (and every
/// candidate's hit count is the number of lists). Iterated kernel
/// intersections through [`bigraph::intersect`] (shortest list first, the
/// accumulator only shrinks, skewed steps gallop) touch fewer ids than the
/// tally of [`count_candidates`], which reads every id of every list.
fn intersect_all<'a, I: Iterator<Item = &'a [u32]>>(lists: I) -> Vec<u32> {
    let mut lists: Vec<&[u32]> = lists.collect();
    let Some(min_idx) = (0..lists.len()).min_by_key(|&i| lists[i].len()) else {
        return Vec::new();
    };
    let mut acc: Vec<u32> = lists.swap_remove(min_idx).to_vec();
    let mut scratch = Vec::new();
    for list in lists {
        if acc.is_empty() {
            break;
        }
        intersection_into(&acc, list, &mut scratch);
        std::mem::swap(&mut acc, &mut scratch);
    }
    acc
}

/// A dense occurrence tally: one counter per vertex id of the largest side
/// counted on so far, plus the ids the current call has touched.
#[derive(Default)]
struct Tally {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

thread_local! {
    /// This thread's tally for [`count_candidates`]. Thread-local, so the
    /// engines' workers never share or lock it and no signature has to
    /// carry it.
    static TALLY: RefCell<Tally> = RefCell::new(Tally::default());
}

/// Counts how often each id of `0..n` occurs in the sorted `lists` and
/// returns the ids occurring at least `need` times as `(id, count)` pairs,
/// sorted by id. With `need = 0` every id of `0..n` is returned.
///
/// Each occurrence is one increment in the thread's dense [`Tally`]; the
/// first increment of an id records it in the touched list, which bounds
/// the scan for candidates and the reset to the ids this call saw, and only
/// the candidates are sorted. Every counter is zero between calls: the scan
/// resets what it reads, and a call that unwound part-way (a panicking
/// `lists`) is cleaned up from its touched list at the start of the next
/// call on the thread.
fn count_candidates<'a, I: Iterator<Item = &'a [u32]>>(
    n: u32,
    lists: I,
    need: usize,
) -> Vec<(u32, u32)> {
    TALLY.with(|tally| {
        let mut tally = tally.borrow_mut();
        let Tally { counts, touched } = &mut *tally;
        for id in touched.drain(..) {
            counts[id as usize] = 0;
        }
        if counts.len() < n as usize {
            counts.resize(n as usize, 0);
        }
        for list in lists {
            for &id in list {
                let c = &mut counts[id as usize];
                if *c == 0 {
                    touched.push(id);
                }
                *c += 1;
            }
        }
        let mut cands = Vec::new();
        if need == 0 {
            cands.extend((0..n).map(|id| (id, std::mem::take(&mut counts[id as usize]))));
            touched.clear();
        } else {
            for id in touched.drain(..) {
                let hits = std::mem::take(&mut counts[id as usize]);
                if hits as usize >= need {
                    cands.push((id, hits));
                }
            }
            cands.sort_unstable();
        }
        cands
    })
}

/// Extends `partial` (which must already be a k-biplex, or a
/// (k_L, k_R)-biplex for a budget pair) to a maximal one of `g` in place,
/// following the preset order. `mode` selects which sides may contribute
/// new vertices.
///
/// Each pass draws its candidates from the counting filter and keeps the
/// opposite side fixed while it adds, so a candidate's hit count gives its
/// exact miss count: a candidate that misses nothing joins without a budget
/// walk, the others without a fresh intersection.
pub fn extend_to_maximal(
    g: &BipartiteGraph,
    partial: &mut PartialBiplex,
    k: impl Into<KPair>,
    mode: ExtendMode,
) {
    let kp = k.into();
    debug_assert!(partial.is_k_biplex(kp));

    // Left side first (ascending id), then — for BothSides — the right side.
    let r = partial.right().len();
    if r <= kp.left {
        extend_left_small_right(g, partial, kp);
    } else {
        for (v, hits) in left_extension_candidates(g, partial.right(), kp.left) {
            let misses = r - hits as usize;
            if !partial.contains_left(v) && partial.can_add_left_with_misses(g, v, misses, kp) {
                partial.add_left_with_misses(g, v, misses);
            }
        }
    }

    if mode == ExtendMode::BothSides {
        let l = partial.left().len();
        for (u, hits) in right_extension_candidates(g, partial.left(), kp.right) {
            let misses = l - hits as usize;
            if !partial.contains_right(u) && partial.can_add_right_with_misses(g, u, misses, kp) {
                partial.add_right_with_misses(g, u, misses);
            }
        }
        // Adding right vertices can never unlock additional left vertices
        // (constraints only tighten), so a single pass per side suffices.
    }
}

/// Left extension for the degenerate regime `|R| ≤ k_L`, where *every*
/// left vertex passes the counting filter. While no right vertex is
/// saturated (miss count `= k_R`) every left vertex is addable, so vertices
/// are taken in id order without any check; as soon as some right vertex
/// saturates, only neighbours of that vertex can still join, so the scan
/// switches to its adjacency list instead of walking the whole left side.
/// This keeps the extension near-linear in the output size on graphs with
/// millions of vertices.
fn extend_left_small_right(g: &BipartiteGraph, partial: &mut PartialBiplex, kp: KPair) {
    let num_left = g.num_left();
    let mut v = 0u32;
    // Phase 1: no right vertex saturated yet.
    while v < num_left {
        if let Some(idx) =
            (0..partial.right().len()).find(|&i| partial.right_miss(i) as usize >= kp.right)
        {
            // Phase 2: only neighbours of the saturated vertex qualify.
            let anchor = partial.right()[idx];
            let nbrs = g.right_neighbors(anchor).to_vec();
            for w in nbrs {
                if w >= v && !partial.contains_left(w) && partial.can_add_left(g, w, kp) {
                    partial.add_left(g, w);
                }
            }
            return;
        }
        if !partial.contains_left(v) && partial.can_add_left(g, v, kp) {
            partial.add_left(g, v);
        }
        v += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biplex::{is_k_biplex, is_maximal_k_biplex, left_misses};
    use bigraph::BipartiteGraph;

    fn fixture() -> BipartiteGraph {
        // 5 x 5, complete except a scattering of misses.
        let mut edges = Vec::new();
        for v in 0u32..5 {
            for u in 0u32..5 {
                if !matches!((v, u), (0, 4) | (1, 3) | (2, 2) | (3, 1) | (4, 0) | (4, 4)) {
                    edges.push((v, u));
                }
            }
        }
        BipartiteGraph::from_edges(5, 5, &edges).unwrap()
    }

    #[test]
    fn extension_produces_a_maximal_biplex() {
        let g = fixture();
        let pairs = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1), (0, 2)];
        for kp in pairs.map(|(kl, kr)| KPair::new(kl, kr)) {
            for start in [(vec![0u32], vec![0u32]), (vec![], vec![4]), (vec![4], vec![])] {
                let mut p = PartialBiplex::from_sets(&g, &start.0, &start.1);
                extend_to_maximal(&g, &mut p, kp, ExtendMode::BothSides);
                assert!(
                    is_maximal_k_biplex(&g, p.left(), p.right(), kp),
                    "{kp:?} from {start:?}, got ({:?}, {:?})",
                    p.left(),
                    p.right()
                );
            }
        }
    }

    #[test]
    fn left_only_extension_is_maximal_wrt_left() {
        let g = fixture();
        let k = 1;
        let mut p = PartialBiplex::from_sets(&g, &[1], &[0, 1, 2]);
        extend_to_maximal(&g, &mut p, k, ExtendMode::LeftOnly);
        assert!(is_k_biplex(&g, p.left(), p.right(), k));
        // No further left vertex can be added.
        for v in 0..g.num_left() {
            if !p.contains_left(v) {
                assert!(!p.can_add_left(&g, v, k));
            }
        }
    }

    #[test]
    fn extension_is_deterministic() {
        let g = fixture();
        let mut a = PartialBiplex::from_sets(&g, &[2], &[3]);
        let mut b = PartialBiplex::from_sets(&g, &[2], &[3]);
        extend_to_maximal(&g, &mut a, 1, ExtendMode::BothSides);
        extend_to_maximal(&g, &mut b, 1, ExtendMode::BothSides);
        assert_eq!(a.left(), b.left());
        assert_eq!(a.right(), b.right());
    }

    #[test]
    fn extension_keeps_existing_vertices() {
        let g = fixture();
        let mut p = PartialBiplex::from_sets(&g, &[3], &[4]);
        extend_to_maximal(&g, &mut p, 1, ExtendMode::BothSides);
        assert!(p.contains_left(3));
        assert!(p.contains_right(4));
    }

    #[test]
    fn candidate_filters_are_supersets_of_addable_vertices() {
        let g = fixture();
        for k in 0..=2usize {
            let right = vec![0u32, 1, 3];
            let p = PartialBiplex::from_sets(&g, &[], &right);
            let cands = left_extension_candidates(&g, &right, k);
            for v in 0..g.num_left() {
                if p.can_add_left(&g, v, k) {
                    assert!(
                        cands.iter().any(|&(c, _)| c == v),
                        "k {k}: addable vertex {v} filtered out"
                    );
                }
            }
            for &(v, hits) in &cands {
                assert_eq!(hits as usize, right.len() - left_misses(&g, v, &right), "k {k}, v {v}");
            }
        }
    }

    #[test]
    fn candidate_filter_small_right_side_returns_everything() {
        let g = fixture();
        let cands = left_extension_candidates(&g, &[2], 1);
        let ids: Vec<u32> = cands.iter().map(|&(v, _)| v).collect();
        assert_eq!(ids, (0..g.num_left()).collect::<Vec<_>>());
        // Vertex 2 misses right vertex 2; every other left vertex hits it.
        assert!(cands.iter().all(|&(v, hits)| hits == u32::from(v != 2)));
        let cands = right_extension_candidates(&g, &[], 0);
        assert_eq!(cands.len(), g.num_right() as usize);
        assert!(cands.iter().all(|&(_, hits)| hits == 0));
    }

    #[test]
    fn k0_intersection_path_matches_the_counting_filter() {
        let g = fixture();
        for right in [vec![0u32, 1, 3], vec![0, 1, 2, 3, 4], vec![2, 4]] {
            let via_intersect = left_extension_candidates(&g, &right, 0);
            let via_tally = count_candidates(
                g.num_left(),
                right.iter().map(|&u| g.right_neighbors(u)),
                right.len(),
            );
            assert_eq!(via_intersect, via_tally, "right = {right:?}");
        }
        for left in [vec![0u32, 2], vec![1, 3, 4]] {
            let via_intersect = right_extension_candidates(&g, &left, 0);
            let via_tally = count_candidates(
                g.num_right(),
                left.iter().map(|&v| g.left_neighbors(v)),
                left.len(),
            );
            assert_eq!(via_intersect, via_tally, "left = {left:?}");
        }
    }

    #[test]
    fn tally_reads_zero_after_a_call_unwound_mid_count() {
        let g = fixture();
        let right = [0u32, 1, 3];
        let brute = |k: usize| -> Vec<(u32, u32)> {
            (0..g.num_left())
                .map(|v| (v, (right.len() - left_misses(&g, v, &right)) as u32))
                .filter(|&(_, hits)| hits as usize + k >= right.len())
                .collect()
        };
        // The first list is counted, then the iterator panics: the tally
        // is left holding counts when the call unwinds.
        let unwound = std::panic::catch_unwind(|| {
            let mut lists = right.iter().map(|&u| g.right_neighbors(u));
            let first = lists.next();
            let panicking = first
                .into_iter()
                .chain(std::iter::from_fn(|| panic!("list source failed mid-count")));
            count_candidates(g.num_left(), panicking, 1)
        });
        assert!(unwound.is_err());
        for k in 1..=2 {
            assert_eq!(left_extension_candidates(&g, &right, k), brute(k), "k = {k}");
        }
    }

    #[test]
    fn empty_start_extends_to_nonempty_maximal() {
        let g = fixture();
        let mut p = PartialBiplex::new();
        extend_to_maximal(&g, &mut p, 1, ExtendMode::BothSides);
        assert!(p.left().len() + p.right().len() > 0);
        assert!(is_maximal_k_biplex(&g, p.left(), p.right(), 1));
    }
}
