//! Seen-set contention benchmark with machine-readable output.
//!
//! Hammers the concurrent seen-set in its default `segmented` geometry
//! (starting at one segment and growing cooperatively as the load factor
//! crosses 1) with `--threads` inserter threads over a heavily overlapping
//! key range at three scales: *small* (fits in one segment), *mid* (forces
//! several cooperative growth publications, the regime where the segmented
//! design pays its historical-era probes) and *large* (many doublings).
//! Its comparison against the retired fixed-capacity design is frozen in
//! EXPERIMENTS.md.
//!
//! Results go to `BENCH_seen.json` (CI's `bench-smoke` job uploads it as a
//! workflow artifact next to `BENCH_parallel.json`).
//!
//! Usage: `cargo run --release -p mbpe-bench --bin bench_seen --
//!         [--threads 4] [--keys-small 4000] [--keys-mid 20000]
//!         [--keys-large 1000000] [--iters 3] [--out BENCH_seen.json]`

use std::fmt::Write as _;
use std::time::Instant;

use kbiplex::parallel::seen::SEGMENT_BUCKETS;
use mbpe_bench::seen_harness::{build, hammer};
use mbpe_bench::Args;

/// One measured configuration.
struct Row {
    config: &'static str,
    scale: &'static str,
    keys: usize,
    threads: usize,
    secs: f64,
    final_segments: usize,
    final_capacity: usize,
}

fn main() {
    let args = Args::parse();
    let threads: usize = args.get("threads", 4usize);
    let keys_small: usize = args.get("keys-small", 4_000usize);
    let keys_mid: usize = args.get("keys-mid", 20_000usize);
    let keys_large: usize = args.get("keys-large", 1_000_000usize);
    let iters: u32 = args.get("iters", 3u32);
    let out_path = args.get_str("out").unwrap_or("BENCH_seen.json").to_string();

    eprintln!(
        "seen-set contention: threads={threads} keys-small={keys_small} \
         keys-mid={keys_mid} keys-large={keys_large} iters={iters} \
         (segment={SEGMENT_BUCKETS} buckets)"
    );

    let config = "segmented";
    let mut rows: Vec<Row> = Vec::new();
    for (scale, keys) in [("small", keys_small), ("mid", keys_mid), ("large", keys_large)] {
        let mut best = f64::INFINITY;
        let mut final_segments = 0;
        let mut final_capacity = 0;
        for _ in 0..iters.max(1) {
            // Construction is part of the measurement: the enumeration
            // engines build a fresh set per run.
            let start = Instant::now();
            let set = build();
            hammer(&set, keys, threads);
            let secs = start.elapsed().as_secs_f64();
            assert_eq!(set.len(), keys as u64, "{config}/{scale}: lost or duplicated keys");
            if secs < best {
                // Keep the geometry of the iteration being reported:
                // interleaving can leave different iterations one doubling
                // apart.
                best = secs;
                final_segments = set.segments();
                final_capacity = set.capacity();
            }
        }
        eprintln!(
            "{config:>10} {scale:>5}: {best:.4}s  {keys} keys  \
             {final_segments} segments  {final_capacity} buckets"
        );
        rows.push(Row { config, scale, keys, threads, secs: best, final_segments, final_capacity });
    }

    let json = render_json(iters, &rows);
    std::fs::write(&out_path, json).expect("write bench json");
    eprintln!("wrote {out_path}");
}

/// Renders the measurements by hand (the workspace has no serde).
fn render_json(iters: u32, rows: &[Row]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"iters\": {iters},");
    let _ = writeln!(s, "  \"segment_buckets\": {SEGMENT_BUCKETS},");
    s.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"config\": \"{}\", \"scale\": \"{}\", \"keys\": {}, \"threads\": {}, \
             \"secs\": {:.6}, \"final_segments\": {}, \"final_capacity\": {}}}{}",
            r.config, r.scale, r.keys, r.threads, r.secs, r.final_segments, r.final_capacity, comma
        );
    }
    s.push_str("  ]\n}\n");
    s
}
