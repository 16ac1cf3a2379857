//! Incremental-maintenance benchmark: per-update cost of the dynamic
//! maintainer vs rebuild-from-scratch, with machine-readable output.
//!
//! Generates a Chung–Lu bipartite background with `--blocks` planted
//! quasi-biclique blocks (the fraud case study's workload shape: the
//! planted blocks are the solutions worth maintaining, the power-law
//! background is noise), seeds the maintained large-MBP set, then replays a
//! random toggle script (insert if absent, delete if present); a
//! `--target-frac` share of the updates lands inside a planted block so the
//! diffs are real. Every update is timed through [`DynamicEnumerator`];
//! every `--rebuild-every`-th update additionally times a full snapshot +
//! re-enumeration and asserts the two solution sets agree, so the benchmark
//! doubles as an at-scale equivalence check. The headline number is
//! `median_speedup` = median rebuild time / median incremental time.
//!
//! Results go to `BENCH_dynamic.json` (uploaded by CI's `bench-smoke` job).
//!
//! Usage: `cargo run --release -p mbpe-bench --bin bench_dynamic --
//!         [--left 2000] [--right 2000] [--edges 100000] [--updates 1000]
//!         [--blocks 8] [--block-size 20] [--target-frac 0.5]
//!         [--k 1] [--theta 16] [--rebuild-every 50] [--gamma 2.5]
//!         [--seed 7] [--out BENCH_dynamic.json]`

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use bigraph::gen::chung_lu_bipartite;
use bigraph::BipartiteGraph;
use kbiplex::{DynamicConfig, DynamicEnumerator};
use mbpe_bench::{percentile, Args};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = Args::parse();
    let left: u32 = args.get("left", 2_000u32);
    let right: u32 = args.get("right", 2_000u32);
    let edges: u64 = args.get("edges", 100_000u64);
    let updates: usize = args.get("updates", 1_000usize);
    let k: usize = args.get("k", 1usize);
    let theta: usize = args.get("theta", 16usize);
    let rebuild_every: usize = args.get("rebuild-every", 50usize);
    let gamma: f64 = args.get("gamma", 2.5f64);
    let blocks: usize = args.get("blocks", 8usize);
    let block_size: u32 = args.get("block-size", 20u32);
    let target_frac: f64 = args.get("target-frac", 0.5f64);
    let seed: u64 = args.get("seed", 7u64);
    let out_path = args.get_str("out").unwrap_or("BENCH_dynamic.json").to_string();
    assert!(
        blocks as u64 * block_size as u64 <= left.min(right) as u64,
        "planted blocks exceed the vertex ranges"
    );
    assert!((0.0..=1.0).contains(&target_frac), "--target-frac must be in [0, 1]");

    eprintln!(
        "dynamic maintenance: {left}x{right} ~{edges} edges (gamma {gamma}) \
         + {blocks} planted {block_size}x{block_size} blocks, {updates} updates \
         ({target_frac} targeted), k={k} theta={theta} rebuild-every={rebuild_every} seed={seed}"
    );

    let g = build_graph(left, right, edges, gamma, blocks, block_size, seed);
    eprintln!("generated: |E| = {}", g.num_edges());

    let cfg =
        DynamicConfig { k, theta_left: theta, theta_right: theta, ..DynamicConfig::default() };
    let localizable = cfg.is_localizable();
    let seed_start = Instant::now();
    let mut m = DynamicEnumerator::new(&g, cfg).expect("seed enumeration");
    let seed_secs = seed_start.elapsed().as_secs_f64();
    eprintln!(
        "seeded: {} solutions in {seed_secs:.3}s  mode = {}",
        m.len(),
        if localizable { "localized" } else { "fallback" }
    );

    // Planted block b occupies left/right ids [b·stride, b·stride + size).
    let stride = if blocks == 0 { 0 } else { left.min(right) / blocks as u32 };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1FF);
    let mut inc_times: Vec<Duration> = Vec::with_capacity(updates);
    let mut rebuild_times: Vec<Duration> = Vec::new();
    for step in 0..updates {
        let (v, u) = if blocks > 0 && rng.gen_bool(target_frac) {
            let b = rng.gen_range(0..blocks as u32);
            (b * stride + rng.gen_range(0..block_size), b * stride + rng.gen_range(0..block_size))
        } else {
            (rng.gen_range(0..left), rng.gen_range(0..right))
        };
        let insert = !m.graph().has_edge(v, u);
        let start = Instant::now();
        let diff = if insert { m.insert_edge(v, u) } else { m.delete_edge(v, u) }
            .expect("in-range update");
        inc_times.push(start.elapsed());
        let _ = diff;
        if rebuild_every != 0 && (step + 1) % rebuild_every == 0 {
            let start = Instant::now();
            let rebuilt = m.rebuild().expect("rebuild enumeration");
            rebuild_times.push(start.elapsed());
            assert_eq!(
                m.solutions(),
                rebuilt,
                "maintained set diverged from rebuild at update {}",
                step + 1
            );
        }
    }

    let stats = m.stats().clone();
    inc_times.sort_unstable();
    rebuild_times.sort_unstable();
    let inc_median = percentile(&inc_times, 50.0).as_secs_f64();
    let rebuild_median = percentile(&rebuild_times, 50.0).as_secs_f64();
    let inc_mean = inc_times.iter().sum::<Duration>().as_secs_f64() / inc_times.len().max(1) as f64;
    let speedup = if inc_median > 0.0 { rebuild_median / inc_median } else { f64::INFINITY };
    eprintln!(
        "incremental: median {:.6}s  mean {:.6}s  | rebuild: median {:.4}s ({} samples)",
        inc_median,
        inc_mean,
        rebuild_median,
        rebuild_times.len()
    );
    eprintln!(
        "updates: {} (noop {}, localized {}, fallback {})  diffs +{} -{}  max region {}",
        stats.updates,
        stats.noop_updates,
        stats.localized_updates,
        stats.fallback_updates,
        stats.added_total,
        stats.removed_total,
        stats.max_region
    );
    eprintln!("median speedup (rebuild / incremental): {speedup:.1}x");

    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"left\": {left}, \"right\": {right}, \"edges\": {},", g.num_edges());
    let _ = writeln!(s, "  \"updates\": {updates}, \"k\": {k}, \"theta\": {theta},");
    let _ = writeln!(s, "  \"seed\": {seed}, \"localized_mode\": {localizable},");
    let _ = writeln!(
        s,
        "  \"initial_solutions\": {}, \"final_solutions\": {},",
        stats_initial(&stats, m.len()),
        m.len()
    );
    let _ = writeln!(s, "  \"seed_secs\": {seed_secs:.6},");
    let _ = writeln!(s, "  \"incremental_median_secs\": {inc_median:.9},");
    let _ = writeln!(s, "  \"incremental_mean_secs\": {inc_mean:.9},");
    let _ = writeln!(s, "  \"rebuild_median_secs\": {rebuild_median:.6},");
    let _ = writeln!(s, "  \"rebuild_samples\": {},", rebuild_times.len());
    let _ = writeln!(s, "  \"median_speedup\": {speedup:.2},");
    let _ = writeln!(
        s,
        "  \"stats\": {{\"noop\": {}, \"localized\": {}, \"fallback\": {}, \
         \"added\": {}, \"removed\": {}, \"max_region\": {}, \"region_vertices_total\": {}}}",
        stats.noop_updates,
        stats.localized_updates,
        stats.fallback_updates,
        stats.added_total,
        stats.removed_total,
        stats.max_region,
        stats.region_vertices_total
    );
    s.push_str("}\n");
    std::fs::write(&out_path, s).expect("write bench json");
    eprintln!("wrote {out_path}");
}

/// Chung–Lu background plus `blocks` planted complete bicliques of
/// `block_size × block_size`, block `b` occupying ids
/// `[b·stride, b·stride + block_size)` on both sides.
fn build_graph(
    left: u32,
    right: u32,
    edges: u64,
    gamma: f64,
    blocks: usize,
    block_size: u32,
    seed: u64,
) -> BipartiteGraph {
    let bg = chung_lu_bipartite(left, right, edges, gamma, seed);
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(bg.num_edges() as usize);
    for v in 0..left {
        for &u in bg.left_neighbors(v) {
            pairs.push((v, u));
        }
    }
    let stride = if blocks == 0 { 0 } else { left.min(right) / blocks as u32 };
    for b in 0..blocks as u32 {
        for dv in 0..block_size {
            for du in 0..block_size {
                pairs.push((b * stride + dv, b * stride + du));
            }
        }
    }
    BipartiteGraph::from_edges(left, right, &pairs).expect("in-range composed edges")
}

/// The seed solution count is the final count minus the net diff.
fn stats_initial(stats: &kbiplex::MaintainStats, final_len: usize) -> i64 {
    final_len as i64 - stats.added_total as i64 + stats.removed_total as i64
}
