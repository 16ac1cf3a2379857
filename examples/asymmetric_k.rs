//! Asymmetric miss budgets: enumerate maximal (k_L, k_R)-biplexes where the
//! two sides tolerate a different number of missing edges.
//!
//! A practical reading of the budgets in a user × product graph: `k_L`
//! bounds how many of the group's products a member may have skipped, while
//! `k_R` bounds how many members of the group may have skipped a product.
//! Setting `k_R < k_L` asks for products that nearly everyone in the group
//! interacted with, while still being lenient about individual users.
//!
//! Per-side budgets are a `k_pair` on bTraversal, which runs the same
//! traversal and expansion step as with a single `k`.
//!
//! Run with: `cargo run --release --example asymmetric_k`

use mbpe::bigraph::gen::er::er_bipartite;
use mbpe::prelude::*;

fn main() {
    let g = er_bipartite(14, 14, 80, 7);
    println!("graph: |L| = {}, |R| = {}, |E| = {}", g.num_left(), g.num_right(), g.num_edges());

    // The symmetric budget is the special case k_L = k_R.
    let btraversal = || Enumerator::new(&g).algorithm(Algorithm::BTraversal);
    let symmetric = Enumerator::new(&g).k(1).collect().expect("valid configuration");
    let via_pair = btraversal().k_pair(KPair::symmetric(1)).collect().expect("valid configuration");
    assert_eq!(symmetric, via_pair);
    println!("maximal 1-biplexes (symmetric budget): {}", symmetric.len());

    // Sweep a few asymmetric budgets and report how the solution count and
    // the shape of the largest solution respond.
    for (kl, kr) in [(0, 0), (0, 2), (2, 0), (1, 2), (2, 1), (2, 2)] {
        let kp = KPair::new(kl, kr);
        let mbps = btraversal().k_pair(kp).collect().expect("valid configuration");
        let largest = mbps.iter().max_by_key(|b| b.num_vertices()).cloned().unwrap_or_default();
        for b in &mbps {
            assert!(is_maximal_k_biplex(&g, &b.left, &b.right, kp));
        }
        println!(
            "(k_L, k_R) = ({kl}, {kr}): {:>4} maximal biplexes, largest |L|x|R| = {}x{}",
            mbps.len(),
            largest.left.len(),
            largest.right.len()
        );
    }
}
