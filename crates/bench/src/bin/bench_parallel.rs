//! Parallel-scaling benchmark with machine-readable output.
//!
//! Runs the sequential `iTraversal` and the work-stealing engine over a
//! Chung–Lu stand-in graph at a list of thread counts, and writes the
//! wall-clock numbers to a JSON file (`BENCH_parallel.json` by default),
//! headed by `gap_1t`: work-steal at one thread ÷ sequential, the
//! per-thread cost of the parallel engine. The CI `bench-smoke` job runs
//! this on a tiny graph, gates `gap_1t` and uploads the JSON as a workflow
//! artifact, so the performance trajectory of the scheduler accumulates
//! across commits.
//!
//! Usage: `cargo run --release -p mbpe-bench --bin bench_parallel --
//!         [--left 60] [--right 60] [--edges 240] [--gamma 2.2]
//!         [--seed 7] [--k 1] [--iters 3] [--threads 1,2,4]
//!         [--order degeneracy] [--out BENCH_parallel.json]`
//!
//! `--threads` defaults to every count from 1 up to the machine's
//! available parallelism.
//!
//! Power-law stand-ins pack a lot of MBPs per edge: the 60×60/240-edge
//! default already enumerates ~20k solutions per run. Scale with care.

use std::fmt::Write as _;
use std::time::Instant;

use bigraph::gen::chung_lu::chung_lu_bipartite;
use bigraph::intersect::{dispatch_with, Kernel};
use bigraph::order::VertexOrder;
use bigraph::BipartiteGraph;
use kbiplex::{CountingSink, Engine, EngineStats, Enumerator};
use mbpe_bench::Args;

/// One measured configuration.
struct Row {
    engine: &'static str,
    threads: usize,
    order: VertexOrder,
    secs: f64,
    solutions: u64,
    steals: u64,
}

/// One kernel measurement on one input size-class.
struct KernelRow {
    class: &'static str,
    kernel: Kernel,
    len_a: usize,
    len_b: usize,
    elems_per_sec: f64,
}

fn main() {
    let args = Args::parse();
    let left: u32 = args.get("left", 60u32);
    let right: u32 = args.get("right", 60u32);
    let edges: u64 = args.get("edges", 240u64);
    let gamma: f64 = args.get("gamma", 2.2f64);
    let seed: u64 = args.get("seed", 7u64);
    let k: usize = args.get("k", 1usize);
    let iters: u32 = args.get("iters", 3u32);
    let out_path = args.get_str("out").unwrap_or("BENCH_parallel.json").to_string();
    let threads_list: Vec<usize> = match args.get_str("threads") {
        Some(list) => list
            .split(',')
            .map(|t| t.trim().parse().expect("--threads takes a comma-separated list"))
            .collect(),
        None => {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            (1..=cores).collect()
        }
    };
    let order: VertexOrder = args.get_str("order").unwrap_or("input").parse().expect("bad --order");

    let g = chung_lu_bipartite(left, right, edges, gamma, seed);
    eprintln!(
        "graph: chung_lu |L|={} |R|={} |E|={} k={} iters={} order={}",
        g.num_left(),
        g.num_right(),
        g.num_edges(),
        k,
        iters,
        order
    );

    let mut rows: Vec<Row> = Vec::new();

    // Sequential baseline (the full iTraversal, exclusion strategy on).
    let (secs, solutions, _) = best_of(iters, || {
        let mut sink = CountingSink::new();
        Enumerator::new(&g).k(k).order(order).run(&mut sink).expect("valid configuration");
        (sink.count, 0)
    });
    eprintln!("sequential_itraversal: {secs:.4}s  {solutions} solutions");
    rows.push(Row { engine: "sequential", threads: 1, order, secs, solutions, steals: 0 });

    for &threads in &threads_list {
        let (secs, solutions, steals) = best_of(iters, || {
            let e =
                Enumerator::new(&g).k(k).engine(Engine::WorkSteal).order(order).threads(threads);
            let mut sink = CountingSink::new();
            let report = e.run(&mut sink).expect("valid configuration");
            match report.stats {
                EngineStats::Parallel(stats) => (stats.solutions, stats.steals),
                _ => unreachable!("the parallel engine reports parallel stats"),
            }
        });
        eprintln!("work_steal x{threads}: {secs:.4}s  {solutions} solutions  {steals} steals");
        rows.push(Row { engine: "work_steal", threads, order, secs, solutions, steals });
    }

    let kernel_rows = kernel_microbench(iters, seed);

    let json = render_json(&g, k, iters, &rows, &kernel_rows);
    std::fs::write(&out_path, json).expect("write bench json");
    eprintln!("wrote {out_path}");
}

/// xorshift64* step (the same deterministic generator the engines use for
/// victim selection — no external RNG dependency).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Strictly ascending list of `len` ids whose consecutive gaps are drawn
/// uniformly from `1..=max_gap` — `max_gap` is the density dial (1 packs
/// the ids contiguously, large values spread them out).
fn sorted_ids(len: usize, max_gap: u32, rng: &mut u64) -> Vec<u32> {
    let mut v = Vec::with_capacity(len);
    let mut next = xorshift(rng) as u32 % 64;
    for _ in 0..len {
        v.push(next);
        next += 1 + (xorshift(rng) as u32) % max_gap;
    }
    v
}

/// Per-kernel intersection throughput by input size-class, the measured
/// basis of the `intersect::dispatch` crossover constants. Every kernel
/// runs on identical inputs; results are cross-checked against the scalar
/// merge so a wrong kernel can never post a fast number.
fn kernel_microbench(iters: u32, seed: u64) -> Vec<KernelRow> {
    // (class, |a|, gap_a, |b|, gap_b): the regimes the dispatcher's
    // heuristic distinguishes. "dense" keeps both sides near-contiguous
    // (bitset territory), "skewed" has a 512x length ratio (galloping
    // territory), "tiny" sits below the SMALL_LEN cut-off, and
    // "balanced-sparse" is the branchless chunked kernel's home turf.
    const CLASSES: [(&str, usize, u32, usize, u32); 4] = [
        ("tiny", 12, 8, 12, 8),
        ("balanced-sparse", 4096, 16, 4096, 16),
        ("skewed", 128, 512, 65536, 16),
        ("dense", 4096, 3, 4096, 3),
    ];
    let mut rows = Vec::new();
    for (class, len_a, gap_a, len_b, gap_b) in CLASSES {
        let mut rng = seed ^ 0x9e37_79b9_7f4a_7c15;
        let a = sorted_ids(len_a, gap_a, &mut rng);
        let b = sorted_ids(len_b, gap_b, &mut rng);
        let expected = dispatch_with(Kernel::Merge, &a, &b);
        let elems = (len_a + len_b) as u64;
        // Aim for ~20M touched elements per timing so even the fastest
        // kernel runs long enough to measure.
        let reps = (20_000_000 / elems).max(64);
        for kernel in Kernel::ALL {
            let mut best = f64::INFINITY;
            for _ in 0..iters.max(1) {
                let start = Instant::now();
                let mut hits = 0usize;
                for _ in 0..reps {
                    hits = dispatch_with(kernel, &a, &b);
                }
                let secs = start.elapsed().as_secs_f64();
                assert_eq!(hits, expected, "kernel {kernel} diverged on class {class}");
                best = best.min(secs);
            }
            let elems_per_sec = (elems * reps) as f64 / best;
            eprintln!(
                "kernel {class}/{kernel}: {:.1}M elems/s ({expected} hits)",
                elems_per_sec / 1e6
            );
            rows.push(KernelRow { class, kernel, len_a, len_b, elems_per_sec });
        }
    }
    rows
}

/// Runs `f` (returning `(solutions, steals)`) `iters` times; returns the
/// best wall-clock time, the solution count (asserted identical across
/// runs) and the steal count *of the best-timed run*, so every JSON row
/// pairs measurements from the same iteration.
fn best_of(iters: u32, mut f: impl FnMut() -> (u64, u64)) -> (f64, u64, u64) {
    let mut best = f64::INFINITY;
    let mut best_steals = 0u64;
    let mut value = None;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        let (v, steals) = f();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed < best {
            best = elapsed;
            best_steals = steals;
        }
        if let Some(prev) = value.replace(v) {
            assert_eq!(prev, v, "nondeterministic solution count");
        }
    }
    (best, value.unwrap(), best_steals)
}

/// Renders the measurements as a small self-describing JSON document; the
/// workspace has no serde, so the document is assembled by hand.
fn render_json(
    g: &BipartiteGraph,
    k: usize,
    iters: u32,
    rows: &[Row],
    kernel_rows: &[KernelRow],
) -> String {
    let secs_of = |engine: &str, threads: usize| -> Option<f64> {
        rows.iter().find(|r| r.engine == engine && r.threads == threads).map(|r| r.secs)
    };
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(
        s,
        "  \"graph\": {{\"generator\": \"chung_lu\", \"num_left\": {}, \"num_right\": {}, \"num_edges\": {}}},",
        g.num_left(),
        g.num_right(),
        g.num_edges()
    );
    let _ = writeln!(s, "  \"k\": {k},");
    let _ = writeln!(s, "  \"iters\": {iters},");
    // The per-thread gap: work-steal at one thread ÷ sequential (null when
    // the thread list skips 1).
    let seq = secs_of("sequential", 1);
    let gap_1t = secs_of("work_steal", 1).zip(seq).map(|(ws, seq)| ws / seq);
    let _ =
        writeln!(s, "  \"gap_1t\": {},", gap_1t.map_or("null".to_string(), |v| format!("{v:.3}")));
    s.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"engine\": \"{}\", \"threads\": {}, \"order\": \"{}\", \"secs\": {:.6}, \"solutions\": {}, \"steals\": {}}}{}",
            r.engine, r.threads, r.order, r.secs, r.solutions, r.steals, comma
        );
    }
    s.push_str("  ],\n");
    // Headline ratios: work-steal speedup over the sequential baseline.
    s.push_str("  \"speedups\": {");
    let mut first = true;
    for r in rows.iter().filter(|r| r.engine == "work_steal") {
        let vs_seq = seq.map(|g| g / r.secs);
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(
            s,
            "\n    \"t{}\": {{\"vs_sequential\": {}}}",
            r.threads,
            vs_seq.map_or("null".to_string(), |v| format!("{v:.3}"))
        );
    }
    s.push_str("\n  },\n");
    // Per-kernel intersection throughput by size-class, with each kernel's
    // speedup over the scalar merge on the same inputs — the numbers the
    // crossover constants in `bigraph::intersect` are chosen from.
    s.push_str("  \"kernels\": {");
    let classes: Vec<&str> = {
        let mut cs: Vec<&str> = Vec::new();
        for r in kernel_rows {
            if !cs.contains(&r.class) {
                cs.push(r.class);
            }
        }
        cs
    };
    for (ci, class) in classes.iter().enumerate() {
        let in_class: Vec<&KernelRow> = kernel_rows.iter().filter(|r| r.class == *class).collect();
        let merge = in_class
            .iter()
            .find(|r| r.kernel == Kernel::Merge)
            .map(|r| r.elems_per_sec)
            .unwrap_or(f64::NAN);
        let comma = if ci > 0 { "," } else { "" };
        let _ = write!(
            s,
            "{comma}\n    \"{class}\": {{\"len_a\": {}, \"len_b\": {}",
            in_class[0].len_a, in_class[0].len_b
        );
        for r in &in_class {
            let _ = write!(
                s,
                ", \"{}\": {{\"elems_per_sec\": {:.0}, \"vs_merge\": {:.3}}}",
                r.kernel,
                r.elems_per_sec,
                r.elems_per_sec / merge
            );
        }
        s.push('}');
    }
    s.push_str("\n  }\n}\n");
    s
}
