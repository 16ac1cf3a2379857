//! `perfbench`: the repository's benchmark. One command runs one of three
//! seeded, self-checking workloads and prints every metric by name with its
//! unit, then one JSON line with the result. See `README.md` for why each
//! workload exists and which layer each metric belongs to.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload enum-full --seed 7 --seconds 30 --trace 0
//! ```

#![deny(unsafe_code)]

mod args;
mod calib;
mod check;
mod cputime;
mod enum_full;
mod layers;
mod planted_dynamic;
mod report;
mod serve_mixed;
mod summary;
mod trace;

use std::time::{Duration, Instant};

use args::{Args, Workload};
use report::{peak_rss_mib, Report, END_TO_END};
use summary::Summary;
use trace::Tracer;

/// What every workload gets to run with.
pub struct Ctx<'a> {
    /// The checked command line.
    pub args: &'a Args,
    /// Span recorder (inert unless `--trace 1`).
    pub tracer: &'a Tracer,
    /// Threads a parallel engine or the daemon may use: 2, or fewer on a
    /// smaller machine.
    pub threads: usize,
    /// Id of the run's root span.
    pub root: u64,
}

/// Derives the seed of input `i` from the run seed (splitmix64).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the set-up `reps` times and reports the median as `setup_s`, in
/// reference seconds: each wall-clock time is taken against the kernel
/// readings just before and just after it (see `calib`). Keeps the last
/// result (earlier ones are dropped, which stops anything they started).
pub fn time_setup<T>(rep: &mut Report, reps: usize, mut setup: impl FnMut() -> T) -> T {
    let mut raw: Vec<Duration> = Vec::with_capacity(reps);
    let mut times: Vec<Duration> = Vec::with_capacity(reps);
    let mut kept = None;
    let mut speed = calib::Speed::default();
    let mut before = speed.sample();
    for _ in 0..reps {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        let dt = t.elapsed();
        let after = speed.sample();
        raw.push(dt);
        times.push(calib::local(dt, before, after));
        before = after;
    }
    let s = Summary::of(&times).expect("at least one set-up");
    rep.metric("setup_s", s.p50.as_secs_f64(), "s");
    let r = Summary::of(&raw).expect("at least one set-up");
    rep.line(format!("{:<24} {}", "setup (raw)", r.describe("s")));
    rep.line(format!("{:<24} {:.6} reference s", "setup_s", s.p50.as_secs_f64()));
    kept.expect("at least one set-up")
}

fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string()))
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tracer = Tracer::new(args.trace);
    let mut rep = Report::default();
    rep.line(format!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\"",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rustc_version()
    ));
    {
        let root = tracer.span(args.workload.name(), 0);
        let ctx = Ctx { args: &args, tracer: &tracer, threads: nproc.min(2), root: root.id() };
        match args.workload {
            Workload::EnumFull => enum_full::run(&ctx, &mut rep),
            Workload::PlantedDynamic => planted_dynamic::run(&ctx, &mut rep),
            Workload::ServeMixed => serve_mixed::run(&ctx, &mut rep),
        }
    }
    rep.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    rep.line(format!(
        "{:<24} {:.1} MiB",
        "peak_rss_mb",
        rep.get("peak_rss_mb").unwrap_or(f64::NAN)
    ));

    let required: &[(&str, &str)] = if args.trace { &layers::PER_LAYER } else { &END_TO_END };
    if args.trace {
        write_trace(&args, &tracer, &mut rep);
    }
    rep.finish(required);
    print!("{}", rep.render(required));
}

/// Writes the spans and their self times to `.bench_trace/` in the working
/// directory and prints the layers with the most self time.
fn write_trace(args: &Args, tracer: &Tracer, rep: &mut Report) {
    let spans = tracer.spans();
    let mut by_self: Vec<_> = trace::self_times(&spans).into_iter().collect();
    by_self.sort_by_key(|(_, (_, _, own))| std::cmp::Reverse(*own));
    for (name, (count, total, own)) in by_self.iter().take(12) {
        rep.line(format!(
            "self time {name:<40} {:>10.3} ms of {:>10.3} ms ({count} spans)",
            *own as f64 / 1e6,
            *total as f64 / 1e6
        ));
    }
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    let header = format!(
        "\"workload\":\"{}\",\"seed\":{},\"seconds\":{}",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(&spans, &header)));
    rep.check(written.is_ok(), || format!("cannot write {}: {written:?}", path.display()));
    rep.line(format!("trace: {} spans written to {}", spans.len(), path.display()));
}
