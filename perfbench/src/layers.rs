//! Per-layer metrics of the traced run.
//!
//! Two sources, both measured from outside the program:
//! * counters the public API already returns (`RunReport` engine stats,
//!   `MaintainStats`, served `RunReport`s), gathered by the workload while
//!   it runs;
//! * component replays: timed calls into one layer's public functions on
//!   the workload's own graph, made after the measured phase.
//!
//! Every workload reports every metric. A counter of a layer the workload
//! does not exercise (the scheduler on `serve-mixed`, the maintainer on
//! `enum-full`, …) is reported as 0; the replays run everywhere, because
//! they time the layer itself on that workload's graph.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bigraph::core_decomp::large_mbp_core;
use bigraph::intersect::dispatch;
use bigraph::{BipartiteGraph, DynamicBipartiteGraph, IncrementalCore};
use kbiplex::extend::{extend_to_maximal, ExtendMode};
use kbiplex::initial::initial_left_anchored;
use kbiplex::{
    enum_almost_sat, Biplex, ConcurrentSeenSet, CountingSink, EnumKind, Enumerator, HashStore,
    MaintainStats, ParallelStats, PartialBiplex, QuerySpec, SolutionStore, TraversalStats,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Report;
use crate::summary::{scale, Summary};
use crate::{mix, Ctx};

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("gen_s", "s"),
    ("csr_build_s", "s"),
    ("intersect.tiny.melems_per_s", "Melem/s"),
    ("intersect.balanced_sparse.melems_per_s", "Melem/s"),
    ("intersect.skewed.melems_per_s", "Melem/s"),
    ("intersect.dense.melems_per_s", "Melem/s"),
    ("core.peel_ms", "ms"),
    ("core.reduced_edges", "count"),
    ("core.incremental_update_us", "us"),
    ("dyn_graph.toggle_us", "us"),
    ("dyn_graph.snapshot_ms", "ms"),
    ("initial.ms", "ms"),
    ("extend.call_us", "us"),
    ("eas.call_us", "us"),
    ("eas.almost_sat_graphs", "count"),
    ("eas.local_solutions", "count"),
    ("eas.r_combinations", "count"),
    ("eas.l_candidates", "count"),
    ("trav.links", "count"),
    ("trav.duplicate_links", "count"),
    ("trav.tree_link_ratio", "ratio"),
    ("trav.pruned_right_shrinking", "count"),
    ("trav.pruned_exclusion", "count"),
    ("trav.pruned_size", "count"),
    ("trav.max_delay_ms", "ms"),
    ("trav.first_solution_ms", "ms"),
    ("large.size_prunes_per_solution", "ratio"),
    ("store.insert_ns", "ns"),
    ("par.links", "count"),
    ("par.link_ratio_vs_seq", "ratio"),
    ("par.steals", "count"),
    ("par.gap_1t", "ratio"),
    ("seen.insert_ns_2t", "ns"),
    ("dyn.localized_frac", "ratio"),
    ("dyn.region_vertices_mean", "count"),
    ("dyn.max_region", "count"),
    ("dyn.diff_churn", "ratio"),
    ("wire.spec_decode_us", "us"),
    ("wire.report_encode_us", "us"),
    ("serve.engine_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.overhead_ms_tail", "ms"),
    ("serve.generator_lag_ms_max", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Threshold the core-peel replay uses on every workload (the
/// `planted-dynamic` θ).
const PEEL_THETA: usize = 16;

/// Counters gathered while a workload runs.
#[derive(Default)]
pub struct Counters {
    seq_runs: u64,
    trav: TraversalStats,
    /// `(max delay, time to first solution)` per traced sequential run.
    pub delays: Vec<(Duration, Duration)>,
    par_runs: u64,
    par: ParallelStats,
    par_seq_links: u64,
    /// Work-steal at one thread ÷ sequential.
    pub gap_1t: Option<f64>,
    /// Maintainer counters (`planted-dynamic`).
    pub maintain: Option<MaintainStats>,
    /// Served requests (`serve-mixed`): engine time per query, client
    /// latency minus engine time, and the generator's largest lag.
    pub serve: Option<(Vec<Duration>, Vec<Duration>, Duration)>,
}

impl Counters {
    /// Adds one sequential traversal's counters.
    pub fn add_traversal(&mut self, s: &TraversalStats) {
        self.seq_runs += 1;
        let t = &mut self.trav;
        t.solutions += s.solutions;
        t.links += s.links;
        t.duplicate_links += s.duplicate_links;
        t.almost_sat_graphs += s.almost_sat_graphs;
        t.local_solutions += s.local_solutions;
        t.pruned_right_shrinking += s.pruned_right_shrinking;
        t.pruned_exclusion += s.pruned_exclusion;
        t.pruned_size += s.pruned_size;
        t.almost_sat.absorb(&s.almost_sat);
    }

    /// Adds one parallel run's counters; `seq_links` are the sequential
    /// engine's links on the same graph.
    pub fn add_parallel(&mut self, p: &ParallelStats, seq_links: u64) {
        self.par_runs += 1;
        self.par.links += p.links;
        self.par.steals += p.steals;
        self.par_seq_links += seq_links;
    }
}

fn per(total: u64, runs: u64) -> f64 {
    if runs == 0 {
        0.0
    } else {
        total as f64 / runs as f64
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median of `samples` in `unit`, 0 when empty.
fn median(samples: &[Duration], unit: &str) -> f64 {
    Summary::of(samples).map_or(0.0, |s| scale(s.p50, unit))
}

/// Times `f` `reps` times; returns the samples.
fn repeat(reps: usize, mut f: impl FnMut()) -> Vec<Duration> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect()
}

/// Component replays on the workload's graph `g`. `regen` regenerates the
/// workload's inputs (for `gen_s`); `graphs` are rebuilt from their edge
/// lists (for `csr_build_s`).
pub fn replay(
    ctx: &Ctx,
    rep: &mut Report,
    regen: &dyn Fn(),
    graphs: &[&BipartiteGraph],
    g: &BipartiteGraph,
    k: usize,
) {
    let root = ctx.tracer.span("replay", ctx.root);
    let id = root.id();
    let span = |name| ctx.tracer.span(name, id);

    {
        let _s = span("bigraph.gen");
        rep.metric("gen_s", median(&repeat(3, regen), "s"), "s");
    }
    {
        let _s = span("bigraph.graph.from_edges");
        let lists: Vec<_> = graphs
            .iter()
            .map(|g| (g.num_left(), g.num_right(), g.edges().collect::<Vec<_>>()))
            .collect();
        let samples = repeat(3, || {
            for (l, r, edges) in &lists {
                black_box(
                    BipartiteGraph::from_edges(*l, *r, edges).expect("edges of a valid graph"),
                );
            }
        });
        rep.metric("csr_build_s", median(&samples, "s"), "s");
    }
    {
        let _s = span("bigraph.intersect.dispatch");
        intersect_classes(ctx, rep);
    }
    {
        let _s = span("bigraph.core_decomp.large_mbp_core");
        let mut edges = 0;
        let samples =
            repeat(5, || edges = black_box(large_mbp_core(g, PEEL_THETA, k)).graph.num_edges());
        rep.metric("core.peel_ms", median(&samples, "ms"), "ms");
        rep.metric("core.reduced_edges", edges as f64, "count");
    }
    {
        let _s = span("bigraph.dynamic+core_decomp.incremental");
        dynamic_replay(ctx, rep, g, k);
    }
    {
        let _s = span("kbiplex.initial");
        let samples = repeat(5, || {
            black_box(initial_left_anchored(g, k));
        });
        rep.metric("initial.ms", median(&samples, "ms"), "ms");
    }

    // Hosts for the extension and EnumAlmostSat replays: the first MBPs of
    // the graph, in the fig12 harness's manner.
    let samples: Vec<Biplex> = Enumerator::new(g).k(k).limit(200).collect().unwrap_or_default();
    {
        let _s = span("kbiplex.extend");
        let mut times = Vec::new();
        for b in samples.iter().filter(|b| !b.left.is_empty()) {
            let mut p = PartialBiplex::from_sets(g, &b.left[1..], &b.right);
            let t = Instant::now();
            extend_to_maximal(g, &mut p, k, ExtendMode::BothSides);
            times.push(t.elapsed());
            black_box(p);
        }
        rep.metric("extend.call_us", median(&times, "us"), "us");
    }
    {
        let _s = span("kbiplex.enum_almost_sat");
        let mut times = Vec::new();
        for (i, b) in samples.iter().enumerate() {
            let host = PartialBiplex::from_sets(g, &b.left, &b.right);
            let n = g.num_left();
            let offset = i as u32 % n.max(1);
            let Some(v) = (0..n).map(|j| (j + offset) % n).find(|&v| !host.contains_left(v)) else {
                continue;
            };
            let t = Instant::now();
            black_box(enum_almost_sat(g, k, EnumKind::L2R2, &host, v, |_| true));
            times.push(t.elapsed());
        }
        rep.metric("eas.call_us", median(&times, "us"), "us");
    }
    let keys: Vec<Vec<u32>> = samples.iter().map(Biplex::canonical_key).collect();
    {
        let _s = span("kbiplex.store.HashStore");
        let reps = repeat(20, || {
            let mut store = HashStore::new();
            for b in &samples {
                black_box(store.insert(b));
            }
        });
        rep.metric("store.insert_ns", median(&reps, "ns") / samples.len().max(1) as f64, "ns");
    }
    {
        let _s = span("kbiplex.parallel.seen");
        let threads = ctx.threads;
        let reps = repeat(20, || {
            let set = ConcurrentSeenSet::new(keys.len());
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (set, keys) = (&set, &keys);
                    scope.spawn(move || {
                        let offset = t * keys.len() / threads;
                        for i in 0..keys.len() {
                            black_box(set.insert(keys[(i + offset) % keys.len()].clone()));
                        }
                    });
                }
            });
        });
        let inserts = (threads * keys.len()).max(1) as f64;
        rep.metric("seen.insert_ns_2t", median(&reps, "ns") / inserts, "ns");
    }
    {
        let _s = span("kbiplex.wire");
        let spec = QuerySpec { k: 2, limit: Some(200), ..QuerySpec::default() };
        let text = spec.to_json_string();
        const CALLS: u32 = 500;
        let decode = repeat(9, || {
            for _ in 0..CALLS {
                black_box(QuerySpec::from_json_str(black_box(&text)).expect("round-trips"));
            }
        });
        rep.metric("wire.spec_decode_us", median(&decode, "us") / f64::from(CALLS), "us");
        let report = Enumerator::new(g).k(k).limit(200).run(&mut CountingSink::new());
        let encode = match report {
            Ok(report) => repeat(9, || {
                for _ in 0..CALLS {
                    black_box(report.to_json().encode());
                }
            }),
            Err(_) => Vec::new(),
        };
        rep.metric("wire.report_encode_us", median(&encode, "us") / f64::from(CALLS), "us");
    }
}

/// Throughput of `intersect::dispatch` on the four input classes its
/// crossover heuristic distinguishes, on sorted inputs drawn from the seed.
fn intersect_classes(ctx: &Ctx, rep: &mut Report) {
    // (name, |a|, |b|, universe): tiny lists, balanced sparse, skewed sizes
    // (the gallop regime), dense (small gaps, the bitset regime).
    let classes = [
        ("tiny", 4, 6, 64),
        ("balanced_sparse", 256, 256, 1 << 16),
        ("skewed", 16, 4096, 1 << 16),
        ("dense", 512, 512, 1024),
    ];
    let mut rng = StdRng::seed_from_u64(mix(ctx.args.seed, 0x1e55));
    for (name, la, lb, universe) in classes {
        let mut draw = |len: usize| -> Vec<u32> {
            let mut v: Vec<u32> = (0..len * 2).map(|_| rng.gen_range(0..universe)).collect();
            v.sort_unstable();
            v.dedup();
            v.truncate(len);
            v
        };
        let pairs: Vec<(Vec<u32>, Vec<u32>)> = (0..64).map(|_| (draw(la), draw(lb))).collect();
        let elems: usize = pairs.iter().map(|(a, b)| a.len() + b.len()).sum();
        let rounds = (2_000_000 / elems).max(1);
        let samples = repeat(7, || {
            for _ in 0..rounds {
                for (a, b) in &pairs {
                    black_box(dispatch(black_box(a), black_box(b)));
                }
            }
        });
        let secs = median(&samples, "s");
        let melems = (elems * rounds) as f64 / secs / 1e6;
        rep.metric(format!("intersect.{name}.melems_per_s"), melems, "Melem/s");
    }
}

/// Replays an edge-toggle script on a mutable copy of `g`: the dynamic
/// graph's own insert/delete, its CSR snapshot, and the incremental
/// (θ−k)-core repair the maintainer runs after each update.
fn dynamic_replay(ctx: &Ctx, rep: &mut Report, g: &BipartiteGraph, k: usize) {
    let mut dg = DynamicBipartiteGraph::from_graph(g);
    let bound = PEEL_THETA - k;
    let mut core = IncrementalCore::new(&dg, bound, bound);
    let mut rng = StdRng::seed_from_u64(mix(ctx.args.seed, 0xd1ff));
    let mut toggle = Vec::new();
    let mut repair = Vec::new();
    // At most 1,000 toggle pairs or two seconds: on the serve graph the
    // (15, 15)-core holds tens of thousands of edges and one repair can
    // take tens of milliseconds.
    let start = Instant::now();
    for _ in 0..1000 {
        if start.elapsed() > Duration::from_secs(2) {
            break;
        }
        let (v, u) = (rng.gen_range(0..g.num_left()), rng.gen_range(0..g.num_right()));
        // Each edge is toggled and then toggled back, so the graph stays
        // the workload's graph.
        for _ in 0..2 {
            let insert = !dg.has_edge(v, u);
            let t = Instant::now();
            let changed = if insert { dg.insert_edge(v, u) } else { dg.delete_edge(v, u) };
            toggle.push(t.elapsed());
            debug_assert_eq!(changed.ok(), Some(true));
            let t = Instant::now();
            if insert {
                core.on_insert(&dg, v, u);
            } else {
                core.on_delete(&dg, v, u);
            }
            repair.push(t.elapsed());
        }
    }
    rep.metric("dyn_graph.toggle_us", median(&toggle, "us"), "us");
    rep.metric("core.incremental_update_us", median(&repair, "us"), "us");
    let snaps = repeat(5, || {
        black_box(dg.snapshot());
    });
    rep.metric("dyn_graph.snapshot_ms", median(&snaps, "ms"), "ms");
}

/// Writes the counter-based metrics (0 where the workload does not
/// exercise the layer) and the tracing overhead: the median of the traced
/// operations over the median of the untraced ones, both from this run.
pub fn finish(
    ctx: &Ctx,
    rep: &mut Report,
    c: &Counters,
    traced: &[Duration],
    untraced: &[Duration],
    large: Option<&TraversalStats>,
) {
    let runs = c.seq_runs;
    let t = &c.trav;
    rep.metric("eas.almost_sat_graphs", per(t.almost_sat_graphs, runs), "count");
    rep.metric("eas.local_solutions", per(t.local_solutions, runs), "count");
    rep.metric("eas.r_combinations", per(t.almost_sat.r_combinations, runs), "count");
    rep.metric("eas.l_candidates", per(t.almost_sat.l_candidates, runs), "count");
    rep.metric("trav.links", per(t.links, runs), "count");
    rep.metric("trav.duplicate_links", per(t.duplicate_links, runs), "count");
    rep.metric(
        "trav.tree_link_ratio",
        ratio((t.links - t.duplicate_links) as f64, t.links as f64),
        "ratio",
    );
    rep.metric("trav.pruned_right_shrinking", per(t.pruned_right_shrinking, runs), "count");
    rep.metric("trav.pruned_exclusion", per(t.pruned_exclusion, runs), "count");
    rep.metric("trav.pruned_size", per(t.pruned_size, runs), "count");
    let max_delay: Vec<Duration> = c.delays.iter().map(|d| d.0).collect();
    let first: Vec<Duration> = c.delays.iter().map(|d| d.1).collect();
    rep.metric("trav.max_delay_ms", median(&max_delay, "ms"), "ms");
    rep.metric("trav.first_solution_ms", median(&first, "ms"), "ms");
    let size_prunes = large.map_or(0.0, |s| ratio(s.pruned_size as f64, s.solutions as f64));
    rep.metric("large.size_prunes_per_solution", size_prunes, "ratio");

    rep.metric("par.links", per(c.par.links, c.par_runs), "count");
    rep.metric("par.link_ratio_vs_seq", ratio(c.par.links as f64, c.par_seq_links as f64), "ratio");
    rep.metric("par.steals", per(c.par.steals, c.par_runs), "count");
    rep.metric("par.gap_1t", c.gap_1t.unwrap_or(0.0), "ratio");

    let m = c.maintain.clone().unwrap_or_default();
    let changed = m.updates - m.noop_updates;
    rep.metric("dyn.localized_frac", ratio(m.localized_updates as f64, changed as f64), "ratio");
    rep.metric(
        "dyn.region_vertices_mean",
        ratio(m.region_vertices_total as f64, m.localized_updates as f64),
        "count",
    );
    rep.metric("dyn.max_region", m.max_region as f64, "count");
    rep.metric(
        "dyn.diff_churn",
        ratio((m.added_total + m.removed_total) as f64, m.updates as f64),
        "ratio",
    );

    let (engine, overhead, lag) = c.serve.clone().unwrap_or_default();
    rep.metric("serve.engine_ms_p50", median(&engine, "ms"), "ms");
    rep.metric("serve.overhead_ms_p50", median(&overhead, "ms"), "ms");
    let tail = Summary::of(&overhead).and_then(|s| s.tail).map_or(0.0, |(_, v)| scale(v, "ms"));
    rep.metric("serve.overhead_ms_tail", tail, "ms");
    rep.metric("serve.generator_lag_ms_max", scale(lag, "ms"), "ms");

    let overhead = ratio(median(traced, "ms"), median(untraced, "ms"));
    rep.metric("trace.overhead_ratio", overhead, "ratio");
    rep.line(format!(
        "tracing overhead: traced/untraced median {overhead:.4} ({} traced, {} untraced operations)",
        traced.len(),
        untraced.len()
    ));
    // Counted before the replay and finish spans close; the trace file
    // holds every span.
    rep.metric("trace.spans", ctx.tracer.spans().len() as f64, "count");
}
