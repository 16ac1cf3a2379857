//! `planted-dynamic`: the Section 5 pipeline (large MBPs after the
//! (θ−k)-core reduction) and the write path of the dynamic maintainer, on
//! one graph: a Chung–Lu background with planted complete bicliques. The
//! graph is the same for every seed; the seed drives the toggle script.
//!
//! Set-up generates the graph and seeds a `DynamicEnumerator` (a large-MBP
//! enumeration). The measured phase replays a seeded toggle script through
//! the maintainer; one toggle pair in twenty lands inside a planted block
//! and re-enumerates a region around it, the rest hit the background and
//! mostly only repair the core. Every update is toggled back by the next
//! one, so the graph, and with it the cost of an update, stays the same
//! however many updates a run makes. The parallel scheduler and serve do no
//! work here.

use std::time::{Duration, Instant};

use bigraph::gen::chung_lu_bipartite;
use bigraph::BipartiteGraph;
use kbiplex::{
    Algorithm, Biplex, CollectSink, DynamicConfig, DynamicEnumerator, EngineStats, Enumerator,
    StopReason, TraversalStats,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calib::{self, Speed};
use crate::check::is_certified;
use crate::cputime::CpuInstant;
use crate::layers::{self, Counters};
use crate::report::Report;
use crate::summary::Summary;
use crate::{mix, time_setup, Ctx};

const SIDE: u32 = 20_000;
const EDGES: u64 = 100_000;
const GAMMA: f64 = 2.5;
const BLOCKS: u32 = 4;
const BLOCK: u32 = 20;
const K: usize = 1;
const THETA: usize = 16;
/// Share of toggle pairs that land inside a planted block. A block pair
/// costs about a hundred background pairs, so a run still spends most of
/// its time on block pairs and takes ≈ 900 background pairs besides. With
/// one in five, the ≈ 250 background pairs of a run left their median
/// varying by a fifth from seed to seed.
const BLOCK_SHARE: f64 = 0.05;
/// The maintained set is compared with a rebuild after this many toggle
/// pairs (about twice a run).
const CHECKPOINT_EVERY: usize = 500;
/// Seed of the background graph. A background update that touches a vertex
/// of degree ≥ θ − k searches the non-core vertices around it and takes
/// ≈ 12 ms instead of microseconds; how far that search reaches depends on
/// the draw, and with a graph per seed the p95 of background pairs varied
/// by 0.13 from seed to seed.
const GRAPH_SEED: u64 = 7;
/// Realized edges and reduced-graph (core) edges of the graph, pinned.
const PIN: (u64, u64) = (119_478, 1604);

/// Chung–Lu background plus `BLOCKS` complete `BLOCK × BLOCK` bicliques,
/// block `b` on ids `[b·STRIDE + OFFSET, b·STRIDE + OFFSET + BLOCK)` of both
/// sides, away from the generator's hubs (its lowest ids). Background edges
/// touching a block vertex are dropped and blocks `2j` and `2j + 1` are
/// joined by two fixed edges: the (θ−k)-core is then exactly the blocks,
/// every block update re-enumerates a two-block region, and the cost of an
/// update does not depend on where the background's edges happen to land.
fn build_graph() -> BipartiteGraph {
    let bg = chung_lu_bipartite(SIDE, SIDE, EDGES, GAMMA, mix(GRAPH_SEED, 0));
    let planted = |id: u32| id % STRIDE >= OFFSET && id % STRIDE < OFFSET + BLOCK;
    let mut pairs: Vec<(u32, u32)> =
        bg.edges().filter(|&(v, u)| !planted(v) && !planted(u)).collect();
    let first = |b: u32| b * STRIDE + OFFSET;
    for b in 0..BLOCKS {
        for dv in 0..BLOCK {
            for du in 0..BLOCK {
                pairs.push((first(b) + dv, first(b) + du));
            }
        }
    }
    for j in (0..BLOCKS).step_by(2) {
        pairs.push((first(j), first(j + 1)));
        pairs.push((first(j + 1), first(j)));
    }
    BipartiteGraph::from_edges(SIDE, SIDE, &pairs).expect("planted ids are in range")
}

const STRIDE: u32 = SIDE / BLOCKS;
const OFFSET: u32 = STRIDE / 2;

fn config() -> DynamicConfig {
    DynamicConfig { k: K, theta_left: THETA, theta_right: THETA, ..DynamicConfig::default() }
}

/// The static large-MBP enumeration under the workload's k and θ.
fn large(g: &BipartiteGraph) -> Enumerator<'_> {
    Enumerator::new(g).k(K).algorithm(Algorithm::Large).thresholds(THETA, THETA)
}

/// One static large-MBP run: solutions, report, time.
fn large_run(g: &BipartiteGraph) -> (Vec<Biplex>, Option<kbiplex::RunReport>, Duration) {
    let mut sink = CollectSink::new();
    let t = Instant::now();
    let report = large(g).run(&mut sink).ok();
    let dt = t.elapsed();
    (sink.into_sorted(), report, dt)
}

fn certify_set(rep: &mut Report, g: &BipartiteGraph, sols: &[Biplex], what: &str) {
    for b in sols {
        rep.check(is_certified(g, b, K) && b.left.len() >= THETA && b.right.len() >= THETA, || {
            format!("{what}: {b:?} is not a maximal {K}-biplex with both sides ≥ {THETA}")
        });
    }
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let seed = ctx.args.seed;
    let (g, m) = time_setup(rep, 5, || {
        let g = build_graph();
        let m = DynamicEnumerator::new(&g, config());
        (g, m)
    });
    let mut m = match m {
        Ok(m) => m,
        Err(e) => {
            rep.check(false, || format!("seeding the maintainer failed: {e}"));
            return;
        }
    };
    rep.line(format!(
        "graph: Chung–Lu {SIDE}x{SIDE}, {EDGES} requested edges, gamma {GAMMA}, plus {BLOCKS} planted \
         {BLOCK}x{BLOCK} blocks: {} edges; k = {K}, theta = {THETA}",
        g.num_edges()
    ));

    // Phase (a): the static large-MBP run must equal the maintainer's seed.
    let static_span = ctx.tracer.span("kbiplex.enumerate.large", ctx.root);
    let mut large_times = Vec::new();
    let mut large_stats: Option<TraversalStats> = None;
    let mut reduced_edges = 0;
    for _ in 0..2 {
        let (sols, report, dt) = large_run(&g);
        large_times.push(dt);
        let Some(report) = report else {
            rep.check(false, || "the facade rejected the large-MBP configuration".to_string());
            continue;
        };
        rep.check(report.stop == StopReason::Exhausted, || {
            format!("large run stopped: {}", report.stop)
        });
        rep.check(sols == m.solutions(), || {
            format!(
                "static large run ({}) differs from the maintainer's seed ({})",
                sols.len(),
                m.len()
            )
        });
        certify_set(rep, &g, &sols, "static large run");
        reduced_edges = report.reduced.map_or(0, |r| r.edges);
        if let EngineStats::Sequential(s) = report.stats {
            large_stats = Some(s);
        }
    }
    drop(static_span);
    let (edges, reduced) = PIN;
    rep.check(g.num_edges() == edges && reduced_edges == reduced && m.len() == BLOCKS as usize, || {
        format!(
            "{} edges, {reduced_edges} reduced edges, {} solutions; pinned {edges}, {reduced}, {BLOCKS}",
            g.num_edges(),
            m.len()
        )
    });
    rep.line(format!("seed solutions {}, reduced graph {reduced_edges} edges", m.len()));

    // Phase (b): the maintainer under a toggle script. One sample is a
    // toggle pair: an update and the update that undoes it. Deleting a block
    // edge and putting it back cost differently; timing the pair keeps the
    // sample's distribution from splitting into two modes. Every pair is
    // taken to reference time against the kernel readings around it (see
    // `calib`): a block pair against readings just before and just after it;
    // a background pair against the readings around its burst (the pairs
    // between two block pairs), so that the kernel does not run between two
    // of them and evict what they work on. Block pairs are timed in thread
    // CPU time; background pairs, most of which take microseconds, by the
    // wall clock (a CPU-clock read is a system call that would cost about
    // as much as the pair).
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xd1ff));
    let (mut block_raw, mut block_times) = (Vec::new(), Vec::new());
    let (mut bg_raw, mut bg_times) = (Vec::new(), Vec::new());
    let mut burst = Vec::new();
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let run_span = ctx.tracer.span("planted-dynamic.run", ctx.root);
    let start = Instant::now();
    let mut pair = 0usize;
    let mut speed = Speed::default();
    let mut last = speed.sample();
    // Whether anything ran since `last` was read.
    let mut stale = false;
    while start.elapsed().as_secs_f64() < ctx.args.seconds {
        let in_block = rng.gen_bool(BLOCK_SHARE);
        let (v, u) = if in_block {
            let first = rng.gen_range(0..BLOCKS) * STRIDE + OFFSET;
            (first + rng.gen_range(0..BLOCK), first + rng.gen_range(0..BLOCK))
        } else {
            (rng.gen_range(0..SIDE), rng.gen_range(0..SIDE))
        };
        let trace_this = ctx.tracer.enabled() && pair.is_multiple_of(2);
        let name =
            if in_block { "kbiplex.dynamic.update.block" } else { "kbiplex.dynamic.update.bg" };
        if in_block && stale {
            let now = speed.sample();
            bg_times.extend(burst.drain(..).map(|d| calib::local(d, last, now)));
            last = now;
        }
        let mut raw = Duration::ZERO;
        for _ in 0..2 {
            let insert = !m.graph().has_edge(v, u);
            let cpu = in_block.then(CpuInstant::now);
            let wall = Instant::now();
            let diff = {
                let _s = trace_this.then(|| ctx.tracer.span(name, run_span.id()));
                if insert {
                    m.insert_edge(v, u)
                } else {
                    m.delete_edge(v, u)
                }
            };
            raw += cpu.map_or_else(|| wall.elapsed(), |t| t.elapsed());
            match diff {
                Ok(diff) => rep.check(diff.localized, || {
                    format!("pair {pair}: an update fell back to a full re-enumeration")
                }),
                Err(e) => rep.check(false, || format!("pair {pair}: update failed: {e}")),
            }
        }
        stale = !in_block;
        pair += 1;
        if in_block {
            let after = speed.sample();
            let dt = calib::local(raw, last, after);
            last = after;
            block_raw.push(raw);
            block_times.push(dt);
            if ctx.tracer.enabled() {
                if trace_this {
                    traced.push(dt)
                } else {
                    untraced.push(dt)
                }
            }
        } else {
            bg_raw.push(raw);
            burst.push(raw);
        }
        if pair.is_multiple_of(CHECKPOINT_EVERY) {
            checkpoint(ctx, rep, &m, pair, run_span.id());
            stale = true;
        }
    }
    let now = speed.sample();
    bg_times.extend(burst.drain(..).map(|d| calib::local(d, last, now)));
    if !pair.is_multiple_of(CHECKPOINT_EVERY) {
        checkpoint(ctx, rep, &m, pair, run_span.id());
    }
    drop(run_span);

    if let Some(s) = rep.timing("large_s", "s", &large_times) {
        rep.line(format!(
            "  (static large-MBP run; also inside setup_s as the maintainer seed: {:.6} s)",
            s.p50.as_secs_f64()
        ));
    }
    rep.line(speed.describe());
    rep.timing("block_update pair (raw)", "ms", &block_raw);
    let block = Summary::of(&block_times);
    let alias = "a toggle pair (update + undo) inside a planted block";
    rep.role("primary", alias, block, true);
    rep.timing("bg_update pair (raw)", "us", &bg_raw);
    let bg = Summary::of(&bg_times);
    let alias = "a toggle pair (update + undo) on the background";
    rep.role("secondary", alias, bg, true);
    let stats = m.stats().clone();
    rep.line(format!(
        "updates {} (noop {}, localized {}, fallback {}), diffs +{} -{}, max region {}",
        stats.updates,
        stats.noop_updates,
        stats.localized_updates,
        stats.fallback_updates,
        stats.added_total,
        stats.removed_total,
        stats.max_region
    ));

    if ctx.tracer.enabled() {
        let mut counters = Counters::default();
        if let Some(s) = &large_stats {
            counters.add_traversal(s);
        }
        // Delay of the static run, through the paper's recorder, and the
        // time to its first solution.
        let mut rec = kbiplex::DelayRecorder::new();
        let _ = large(&g).run(&mut rec);
        let t = Instant::now();
        let _ = large(&g).limit(1).run(&mut kbiplex::CountingSink::new());
        counters.delays.push((rec.finish().max_delay, t.elapsed()));
        counters.maintain = Some(stats);
        let regen = || {
            std::hint::black_box(build_graph());
        };
        layers::replay(ctx, rep, &regen, &[&g], &g, K);
        layers::finish(ctx, rep, &counters, &traced, &untraced, large_stats.as_ref());
    }
}

/// The maintained set must equal a from-scratch enumeration of the current
/// graph, and every maintained set must pass the certificate check.
fn checkpoint(ctx: &Ctx, rep: &mut Report, m: &DynamicEnumerator, pair: usize, parent: u64) {
    let _s = ctx.tracer.span("check.checkpoint", parent);
    let maintained = m.solutions();
    match m.rebuild() {
        Ok(rebuilt) => rep.check(maintained == rebuilt, || {
            format!(
                "pair {pair}: maintained set ({}) differs from a rebuild ({})",
                maintained.len(),
                rebuilt.len()
            )
        }),
        Err(e) => rep.check(false, || format!("rebuild at pair {pair} failed: {e}")),
    }
    certify_set(rep, &m.snapshot(), &maintained, &format!("maintained set at pair {pair}"));
}
