//! Transpose symmetry of the large-MBP pipeline beyond brute-force scale:
//! `Algorithm::Large` with thresholds (θ_L, θ_R) on G must return exactly
//! the transposes of its solutions with (θ_R, θ_L) on Gᵀ, on both engines.
//!
//! The left-anchored traversal starts from a different initial solution on
//! G and on Gᵀ and walks a different solution graph, and the (θ−k)-core
//! reduction and the size prunings see the sides swapped, so agreement
//! checks the whole pipeline on graphs far too large for the brute-force
//! oracle without taking one engine as the other's oracle.

use mbpe::bigraph::gen::chung_lu_bipartite;
use mbpe::prelude::*;

/// Canonically sorted `Algorithm::Large` solutions of `g`.
fn large(g: &BipartiteGraph, k: usize, theta: (usize, usize), engine: Engine) -> Vec<Biplex> {
    let e = Enumerator::new(g).k(k).algorithm(Algorithm::Large).thresholds(theta.0, theta.1);
    let e = if engine == Engine::Sequential { e } else { e.engine(engine).threads(2) };
    e.collect().expect("valid facade configuration")
}

/// Checks the relation on `g` for both engines; returns the solution count.
fn assert_transpose_symmetric(
    g: &BipartiteGraph,
    k: usize,
    theta: (usize, usize),
    what: &str,
) -> usize {
    let gt = g.transpose();
    let mut counts = Vec::new();
    for engine in [Engine::Sequential, Engine::WorkSteal] {
        let direct = large(g, k, theta, engine);
        let mut flipped: Vec<Biplex> =
            large(&gt, k, (theta.1, theta.0), engine).into_iter().map(Biplex::transpose).collect();
        flipped.sort();
        assert_eq!(direct, flipped, "{what}, k = {k}, θ = {theta:?}, {engine}");
        for b in &direct {
            assert!(b.left.len() >= theta.0 && b.right.len() >= theta.1, "{what}: {b:?} too small");
        }
        counts.push(direct.len());
    }
    assert_eq!(counts[0], counts[1], "{what}: engines disagree");
    counts[0]
}

#[test]
fn large_pipeline_is_transpose_symmetric_on_mid_scale_chung_lu_graphs() {
    let mut solutions = 0;
    let cases = [
        (15u32, 15u32, 90u64, 2usize, (5usize, 7usize)),
        (18, 24, 140, 1, (2, 4)),
        (25, 20, 150, 1, (4, 3)),
        (30, 30, 200, 2, (5, 7)),
    ];
    for (seed, (nl, nr, edges, k, theta)) in cases.into_iter().enumerate() {
        let g = chung_lu_bipartite(nl, nr, edges, 2.2, 40 + seed as u64);
        solutions += assert_transpose_symmetric(&g, k, theta, &format!("{nl}x{nr} seed {seed}"));
    }
    // The relation must not hold vacuously.
    assert!(solutions > 0);
}

/// Two planted complete `block × block` bicliques on a sparse Chung–Lu
/// background, shaped like the `planted-dynamic` benchmark graph: background
/// edges touching a block vertex are dropped and the blocks are joined by
/// two fixed edges, so the (θ−k)-core is the two blocks.
fn two_planted_blocks(side: u32, block: u32, seed: u64) -> BipartiteGraph {
    let first = [side / 4, 3 * side / 4 - block];
    let planted = |id: u32| first.iter().any(|&f| (f..f + block).contains(&id));
    let bg = chung_lu_bipartite(side, side, 2 * side as u64, 2.5, seed);
    let mut edges: Vec<(u32, u32)> =
        bg.edges().filter(|&(v, u)| !planted(v) && !planted(u)).collect();
    for f in first {
        for dv in 0..block {
            for du in 0..block {
                edges.push((f + dv, f + du));
            }
        }
    }
    edges.push((first[0], first[1]));
    edges.push((first[1], first[0]));
    BipartiteGraph::from_edges(side, side, &edges).unwrap()
}

#[test]
fn large_pipeline_is_transpose_symmetric_on_a_two_block_planted_graph() {
    let g = two_planted_blocks(60, 7, 11);
    for theta in [(6, 6), (5, 6), (6, 4)] {
        let found = assert_transpose_symmetric(&g, 1, theta, "two planted blocks");
        // Each block alone is a 1-biplex meeting every threshold above.
        assert!(found >= 2, "θ = {theta:?}: only {found} solutions");
    }
}
