//! `enum-full`: enumerate every maximal 1-biplex of a stream of small
//! Chung–Lu graphs, each once with the sequential iTraversal and once with
//! the work-steal engine.
//!
//! Traversal, `EnumAlmostSat`, `extend_to_maximal`, de-duplication, the
//! intersection kernels and the parallel scheduler do nearly all the work;
//! core reduction, snapshots, the wire codec and serve do none. Each timed
//! operation runs on a fresh graph, so a run's median and tail average over
//! a hundred or more graphs rather than riding on one graph's shape.

use std::time::{Duration, Instant};

use bigraph::gen::chung_lu_bipartite;
use bigraph::BipartiteGraph;
use kbiplex::{
    Biplex, CollectSink, Control, DelayRecorder, Engine, EngineStats, Enumerator, SolutionSink,
    StopReason,
};

use crate::calib::{self, Speed};
use crate::check::is_certified;
use crate::cputime::CpuInstant;
use crate::layers::{self, Counters};
use crate::report::Report;
use crate::summary::Summary;
use crate::{mix, time_setup, Ctx};

const SIDE: u32 = 24;
const EDGES: u64 = 70;
const GAMMA: f64 = 2.2;
const K: usize = 1;
/// Graphs generated up front; the measured loop cycles through them.
const BATCH: usize = 400;
/// MBP counts of the first graphs of the stream, pinned per seed.
const PINS: [(u64, [u64; 4]); 2] = [(7, [1925, 2002, 1571, 1740]), (11, [2007, 1861, 1809, 1982])];

/// Collects solutions and, when tracing, the time to the first one and
/// the delay (the paper's Figure 8 metric) through `DelayRecorder`.
struct TimedSink {
    collect: CollectSink,
    delay: Option<DelayRecorder>,
    first: Option<Duration>,
    start: Instant,
}

impl SolutionSink for TimedSink {
    fn on_solution(&mut self, solution: &Biplex) -> Control {
        if let Some(rec) = self.delay.as_mut() {
            self.first.get_or_insert_with(|| self.start.elapsed());
            rec.on_solution(solution);
        }
        self.collect.on_solution(solution)
    }
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let seed = ctx.args.seed;
    let generate = || -> Vec<BipartiteGraph> {
        (0..BATCH as u64)
            .map(|i| chung_lu_bipartite(SIDE, SIDE, EDGES, GAMMA, mix(seed, i)))
            .collect()
    };
    let graphs = time_setup(rep, 5, generate);
    rep.line(format!(
        "graphs: {BATCH} Chung–Lu {SIDE}x{SIDE}, {EDGES} requested edges, gamma {GAMMA}, k = {K}; \
         work-steal at {} threads",
        ctx.threads
    ));

    // The sequential run is timed in thread CPU time (it runs on this
    // thread), the work-steal run in the CPU time of all the process's
    // threads (it runs on workers; by the wall clock, the spread of its
    // per-run tail across five seeds was 0.22, as the host took one vCPU
    // or the other away). Both are taken to reference time against the
    // kernel readings just before and just after the graph's pair of runs
    // (see `calib`).
    let (mut seq_raw, mut seq_times) = (Vec::new(), Vec::new());
    let (mut steal_raw, mut steal_times) = (Vec::new(), Vec::new());
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut counters = Counters::default();
    let mut pinned = Vec::new();
    let mut speed = Speed::default();
    let run_span = ctx.tracer.span("enum-full.run", ctx.root);
    let start = Instant::now();
    let mut i = 0usize;
    let mut before = speed.sample();
    while start.elapsed().as_secs_f64() < ctx.args.seconds {
        let g = &graphs[i % BATCH];
        // Tracing alternates on and off per graph so the traced run can
        // report its own overhead.
        let trace_this = ctx.tracer.enabled() && i.is_multiple_of(2);

        let mut sink = TimedSink {
            collect: CollectSink::new(),
            delay: trace_this.then(DelayRecorder::new),
            first: None,
            start: Instant::now(),
        };
        let t = CpuInstant::now();
        let seq = {
            let _s = trace_this.then(|| ctx.tracer.span("kbiplex.enumerate.seq", run_span.id()));
            Enumerator::new(g).k(K).run(&mut sink)
        };
        let seq_dt = t.elapsed();
        let mut par_sink = CollectSink::new();
        let t = CpuInstant::process_now();
        let par = {
            let _s = trace_this.then(|| ctx.tracer.span("kbiplex.enumerate.steal", run_span.id()));
            Enumerator::new(g)
                .k(K)
                .engine(Engine::WorkSteal)
                .threads(ctx.threads)
                .run(&mut par_sink)
        };
        let par_dt = t.elapsed();
        let after = speed.sample();
        let (seq_ref, par_ref) =
            (calib::local(seq_dt, before, after), calib::local(par_dt, before, after));
        before = after;

        let (Ok(seq), Ok(par)) = (seq, par) else {
            rep.check(false, || format!("graph {i}: the facade rejected the configuration"));
            i += 1;
            continue;
        };
        seq_raw.push(seq_dt);
        seq_times.push(seq_ref);
        steal_raw.push(par_dt);
        steal_times.push(par_ref);
        if ctx.tracer.enabled() {
            if trace_this {
                traced.push(seq_ref)
            } else {
                untraced.push(seq_ref)
            }
        }

        let _check = ctx.tracer.span("check.certificates", run_span.id());
        let delay =
            sink.delay.take().map(|d| (d.finish().max_delay, sink.first.unwrap_or_default()));
        let seq_sols = sink.collect.into_sorted();
        let par_sols = par_sink.into_sorted();
        rep.check(seq.stop == StopReason::Exhausted && par.stop == StopReason::Exhausted, || {
            format!("graph {i}: stop reasons {} / {}", seq.stop, par.stop)
        });
        rep.check(seq.solutions == seq_sols.len() as u64, || {
            format!(
                "graph {i}: report says {} solutions, sink got {}",
                seq.solutions,
                seq_sols.len()
            )
        });
        rep.check(seq_sols == par_sols, || {
            format!(
                "graph {i}: sequential ({}) and work-steal ({}) sets differ",
                seq_sols.len(),
                par_sols.len()
            )
        });
        for b in &seq_sols {
            rep.check(is_certified(g, b, K), || {
                format!("graph {i}: {b:?} is not a maximal {K}-biplex")
            });
        }
        if i < 4 {
            pinned.push(seq_sols.len() as u64);
        }
        if ctx.tracer.enabled() {
            if let (EngineStats::Sequential(s), EngineStats::Parallel(p)) = (&seq.stats, &par.stats)
            {
                counters.add_traversal(s);
                counters.add_parallel(p, s.links);
            }
            if let Some((max_delay, first)) = delay {
                counters.delays.push((max_delay, first));
            }
        }
        i += 1;
    }
    drop(run_span);
    check_pins(rep, seed, &pinned);

    rep.line(speed.describe());
    let seq = rep.timing("enum_seq (per graph, raw)", "ms", &seq_raw);
    rep.role("primary", "sequential full enumeration of one graph", Summary::of(&seq_times), true);
    let steal = rep.timing("enum_steal2 (per graph, raw)", "ms", &steal_raw);
    let alias = "work-steal full enumeration of one graph";
    rep.role("secondary", alias, Summary::of(&steal_times), true);
    if let (Some(a), Some(b)) = (seq, steal) {
        rep.line(format!(
            "enum_seq_s {:.6} s, enum_steal2_s {:.6} s (median per graph)",
            a.p50.as_secs_f64(),
            b.p50.as_secs_f64()
        ));
    }

    if ctx.tracer.enabled() {
        counters.gap_1t = Some(gap_one_thread(ctx, &graphs[..8]));
        let regen = || {
            std::hint::black_box(generate());
        };
        let all: Vec<&BipartiteGraph> = graphs.iter().collect();
        layers::replay(ctx, rep, &regen, &all, &graphs[0], K);
        layers::finish(ctx, rep, &counters, &traced, &untraced, None);
    }
}

/// Work-steal at one thread ÷ sequential, summed over `graphs`: the
/// per-thread gap of the parallel engine.
fn gap_one_thread(ctx: &Ctx, graphs: &[BipartiteGraph]) -> f64 {
    let _s = ctx.tracer.span("kbiplex.enumerate.steal1", ctx.root);
    let mut seq = Duration::ZERO;
    let mut one = Duration::ZERO;
    for g in graphs {
        let t = Instant::now();
        let _ = Enumerator::new(g).k(K).run(&mut kbiplex::CountingSink::new());
        seq += t.elapsed();
        let t = Instant::now();
        let _ = Enumerator::new(g)
            .k(K)
            .engine(Engine::WorkSteal)
            .threads(1)
            .run(&mut kbiplex::CountingSink::new());
        one += t.elapsed();
    }
    one.as_secs_f64() / seq.as_secs_f64()
}

fn check_pins(rep: &mut Report, seed: u64, got: &[u64]) {
    if let Some((_, want)) = PINS.iter().find(|(s, _)| *s == seed) {
        rep.check(got == want, || format!("seed {seed}: MBP counts {got:?}, pinned {want:?}"));
    }
    rep.line(format!("MBP counts of the first graphs: {got:?}"));
}
