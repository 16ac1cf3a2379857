//! The unified enumeration facade: one builder-style entry point for every
//! algorithm variant and every execution engine.
//!
//! The crate once grew one free function per algorithm × output
//! combination (`enumerate_mbps`, `enumerate_large_mbps`,
//! `par_collect_large_mbps`, …), each with its own config plumbing.
//! [`Enumerator`] replaced them all (the legacy wrappers are gone) with a
//! single customisable surface:
//!
//! ```
//! use bigraph::BipartiteGraph;
//! use kbiplex::api::{Algorithm, Engine, Enumerator, StopReason};
//! use kbiplex::CollectSink;
//!
//! let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2)])
//!     .unwrap();
//!
//! // Enumerate all maximal 1-biplexes with the paper's iTraversal.
//! let mut sink = CollectSink::new();
//! let report = Enumerator::new(&g).k(1).run(&mut sink).unwrap();
//! assert_eq!(report.stop, StopReason::Exhausted);
//! assert_eq!(report.solutions as usize, sink.solutions.len());
//!
//! // The same enumeration on the work-stealing engine, stopping after two
//! // solutions — cooperative cancellation reaches into the workers.
//! let first_two: Vec<_> =
//!     Enumerator::new(&g).k(1).engine(Engine::WorkSteal).limit(2).stream().unwrap().collect();
//! assert_eq!(first_two.len(), 2);
//!
//! // Large-MBP pipeline ((θ−k)-core reduction + size-pruned search).
//! let mut sink = CollectSink::new();
//! let report = Enumerator::new(&g)
//!     .k(1)
//!     .algorithm(Algorithm::Large)
//!     .thresholds(2, 2)
//!     .run(&mut sink)
//!     .unwrap();
//! assert!(report.reduced.is_some());
//! ```
//!
//! ## Lifecycle
//!
//! 1. **Configure**: chain builder methods ([`Enumerator::k`],
//!    [`Enumerator::algorithm`], [`Enumerator::engine`],
//!    [`Enumerator::order`], [`Enumerator::limit`],
//!    [`Enumerator::time_budget`], …). Every knob has a sensible default;
//!    contradictory combinations are rejected at run time with an
//!    [`ApiError`], never silently ignored.
//! 2. **Execute**: either push-based — [`Enumerator::run`] drives the
//!    engine to completion, delivering solutions to a caller-provided
//!    [`SolutionSink`] and returning a [`RunReport`] — or pull-based —
//!    [`Enumerator::stream`] spawns the run on a background thread and
//!    returns a [`SolutionStream`] iterator backed by a bounded channel.
//! 3. **Stop**: the run ends when the search is exhausted, the
//!    [`Enumerator::limit`] is reached, the [`Enumerator::time_budget`]
//!    expires, the sink returns [`Control::Stop`], or the stream is dropped.
//!    The [`RunReport::stop`] reason records which. All stopping rules are
//!    cooperative: a shared cancellation flag is polled at every DFS step of
//!    the sequential engine and at the parallel workers' steal/expand
//!    boundaries, so the run stops within one expansion instead of running
//!    to completion.
//!
//! ## Graph preparation
//!
//! The facade is the one place that decides which graph a run enumerates
//! and how its solutions reach the caller. For every algorithm it
//! prepares the graph once — the (θ−k)-core reduction of
//! [`Algorithm::Large`] (Section 5), then the [`VertexOrder`] relabeling,
//! then for [`Anchor::Right`] the transpose (Section 6.2), with the
//! thresholds and a budget pair swapped — and either
//! engine runs on that graph, handing every solution to one emit closure
//! that maps it back to input ids and offers it to the stopping rules.
//!
//! What the paper fixes is not a knob: every engine runs `EnumAlmostSat`
//! as L2.0+R2.0 (Algorithm 3), the left-anchored algorithms start from
//! `H0 = (L0, R)` and bTraversal from an arbitrary maximal k-biplex, and
//! [`Algorithm::Large`] always enumerates the (θ−k)-core. Per-side budgets
//! ([`Enumerator::k_pair`]) are no algorithm either: bTraversal runs its
//! one traversal and its one `iThreeStep` with the pair. The brute-force
//! oracle is no algorithm of the facade: tests call
//! [`brute_force_mbps`](crate::bruteforce::brute_force_mbps) directly, so it
//! shares no code path with the engines it checks.

use std::fmt;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bigraph::core_decomp::alpha_beta_core_subgraph;
use bigraph::order::{Relabeling, VertexOrder};
use bigraph::BipartiteGraph;

use crate::biplex::{Biplex, KPair};
use crate::parallel::{par_run, ParRuntime, ParallelStats};
use crate::sink::{Control, SolutionSink};
use crate::stats::TraversalStats;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{plock, Mutex};
use crate::traversal::{traverse, Anchor, EmitMode};

/// Capacity of the bounded channel behind [`Enumerator::stream`], in
/// solutions.
const STREAM_BUFFER: usize = 256;

/// Which enumeration algorithm the facade runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Algorithm {
    /// The paper's full `iTraversal` (left-anchored + right-shrinking +
    /// exclusion strategy). On the work-stealing engine the order-dependent
    /// exclusion set ℰ(H) shrinks to its host-local slice; the reported
    /// solution *set* is identical.
    #[default]
    ITraversal,
    /// `iTraversal-ES`: `iTraversal` without the exclusion strategy.
    ITraversalNoExclusion,
    /// `iTraversal-ES-RS`: left-anchored traversal only.
    LeftAnchoredOnly,
    /// The conventional `bTraversal` reverse-search framework (Algorithm 1),
    /// the one algorithm that also takes per-side budgets
    /// ([`Enumerator::k_pair`]).
    BTraversal,
    /// The large-MBP pipeline of Section 5: the (θ_R − k, θ_L − k)-core
    /// reduction plus the size-pruned `iTraversal` under the
    /// [`Enumerator::thresholds`].
    Large,
}

impl Algorithm {
    /// `true` for the `iTraversal`-family algorithms the parallel engine
    /// can execute.
    fn parallelisable(self) -> bool {
        matches!(self, Algorithm::ITraversal | Algorithm::ITraversalNoExclusion | Algorithm::Large)
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Algorithm::ITraversal => "itraversal",
            Algorithm::ITraversalNoExclusion => "itraversal-es",
            Algorithm::LeftAnchoredOnly => "itraversal-es-rs",
            Algorithm::BTraversal => "btraversal",
            Algorithm::Large => "large",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "itraversal" => Ok(Algorithm::ITraversal),
            "itraversal-es" => Ok(Algorithm::ITraversalNoExclusion),
            "itraversal-es-rs" => Ok(Algorithm::LeftAnchoredOnly),
            "btraversal" => Ok(Algorithm::BTraversal),
            "large" => Ok(Algorithm::Large),
            other => Err(format!(
                "unknown algorithm {other:?} (expected itraversal, itraversal-es, \
                 itraversal-es-rs, btraversal or large)"
            )),
        }
    }
}

/// Which execution engine drives the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// Single-threaded, in the calling thread (default).
    #[default]
    Sequential,
    /// The work-stealing scheduler (per-worker deques, a seen-set of 64
    /// locked hash-set shards).
    WorkSteal,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Engine::Sequential => "sequential",
            Engine::WorkSteal => "steal",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sequential" | "seq" => Ok(Engine::Sequential),
            "steal" | "work-steal" => Ok(Engine::WorkSteal),
            other => Err(format!("unknown engine {other:?} (expected sequential or steal)")),
        }
    }
}

/// Why an enumeration run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The search space was exhausted: every solution was reported.
    Exhausted,
    /// The [`Enumerator::limit`] was delivered.
    LimitReached,
    /// The [`Enumerator::time_budget`] expired.
    TimeBudget,
    /// The caller's sink returned [`Control::Stop`].
    SinkStopped,
    /// The run was cancelled externally (e.g. the [`SolutionStream`] was
    /// dropped or [`SolutionStream::cancel`] was called).
    Cancelled,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            StopReason::Exhausted => "exhausted",
            StopReason::LimitReached => "limit-reached",
            StopReason::TimeBudget => "time-budget",
            StopReason::SinkStopped => "sink-stopped",
            StopReason::Cancelled => "cancelled",
        };
        f.write_str(name)
    }
}

impl std::str::FromStr for StopReason {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exhausted" => Ok(StopReason::Exhausted),
            "limit-reached" => Ok(StopReason::LimitReached),
            "time-budget" => Ok(StopReason::TimeBudget),
            "sink-stopped" => Ok(StopReason::SinkStopped),
            "cancelled" => Ok(StopReason::Cancelled),
            other => Err(format!(
                "unknown stop reason {other:?} (expected exhausted, limit-reached, \
                 time-budget, sink-stopped or cancelled)"
            )),
        }
    }
}

/// Engine-specific counters of one run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineStats {
    /// A sequential traversal run (also used by [`Algorithm::Large`]).
    Sequential(TraversalStats),
    /// A parallel (work-stealing) run.
    Parallel(ParallelStats),
}

/// Size of the (θ−k)-core-reduced graph an [`Algorithm::Large`] run actually
/// enumerated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReducedGraph {
    /// Left vertices surviving the reduction.
    pub left: u32,
    /// Right vertices surviving the reduction.
    pub right: u32,
    /// Edges surviving the reduction.
    pub edges: u64,
}

/// Outcome of one [`Enumerator::run`] (or a finished [`SolutionStream`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Solutions delivered to the sink (after thresholds and limit).
    pub solutions: u64,
    /// Why the run ended.
    pub stop: StopReason,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Engine-specific counters.
    pub stats: EngineStats,
    /// Present on [`Algorithm::Large`] runs: the reduced-graph size.
    pub reduced: Option<ReducedGraph>,
}

/// A rejected [`Enumerator`] configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApiError {
    /// The algorithm × engine (or algorithm × knob) combination does not
    /// exist in this build — e.g. [`Algorithm::BTraversal`] on a parallel
    /// engine.
    Unsupported(String),
    /// A knob value is invalid on its own terms.
    InvalidConfig(String),
    /// The operating system refused a resource the run needs (today: the
    /// background thread of [`Enumerator::stream`]).
    Resource(String),
}

impl ApiError {
    /// Stable machine-readable code of the variant — what remote clients
    /// match on instead of parsing the human-readable message. Pinned by
    /// `tests/api_surface.rs`; never renamed, only extended.
    pub fn code(&self) -> &'static str {
        match self {
            ApiError::Unsupported(_) => "unsupported",
            ApiError::InvalidConfig(_) => "invalid-config",
            ApiError::Resource(_) => "resource",
        }
    }

    /// The human-readable detail message of any variant.
    pub fn message(&self) -> &str {
        match self {
            ApiError::Unsupported(msg) | ApiError::InvalidConfig(msg) | ApiError::Resource(msg) => {
                msg
            }
        }
    }

    /// Rebuilds an `ApiError` from a stable [`ApiError::code`] and message —
    /// the decode half used by wire clients. Unknown codes are rejected so a
    /// newer server's variants never masquerade as an old one.
    pub fn from_code(code: &str, message: &str) -> Option<ApiError> {
        match code {
            "unsupported" => Some(ApiError::Unsupported(message.to_string())),
            "invalid-config" => Some(ApiError::InvalidConfig(message.to_string())),
            "resource" => Some(ApiError::Resource(message.to_string())),
            _ => None,
        }
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Unsupported(msg) => write!(f, "unsupported configuration: {msg}"),
            ApiError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ApiError::Resource(msg) => write!(f, "resource error: {msg}"),
        }
    }
}

impl std::error::Error for ApiError {}

/// The full, serializable configuration of one enumeration run — the single
/// query surface shared by the [`Enumerator`] builder, the CLI, the wire
/// protocol of the `mbpe-serve` daemon and the benches.
///
/// A `QuerySpec` is plain data: every knob of the builder is a public
/// field, [`Default`] gives the builder's defaults, and
/// [`QuerySpec::to_json`] / [`QuerySpec::from_json`] round-trip the value
/// losslessly (pinned by the `query_spec` property tests). Validation stays
/// where it always was — [`Enumerator::validate`] — so a deserialized spec
/// goes through exactly the same checks as a locally built one.
///
/// Owned (no graph reference) so it can move onto streaming threads and
/// across the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// Miss budget `k` of the k-biplex definition (default 1).
    pub k: usize,
    /// Per-side budgets `(k_L, k_R)` ([`Algorithm::BTraversal`] only);
    /// when set they replace `k`.
    pub k_pair: Option<KPair>,
    /// Algorithm variant (default [`Algorithm::ITraversal`]).
    pub algorithm: Algorithm,
    /// Execution engine (default [`Engine::Sequential`]).
    pub engine: Engine,
    /// Vertex relabeling pass (default [`VertexOrder::Input`]).
    pub order: VertexOrder,
    /// Emission mode of the sequential engine (default
    /// [`EmitMode::Immediate`]).
    pub emit_mode: EmitMode,
    /// Anchor side of the sequential engine (unset = [`Anchor::Left`]).
    pub anchor: Option<Anchor>,
    /// Only report MBPs with `|L| ≥ theta_left` (0 disables).
    pub theta_left: usize,
    /// Only report MBPs with `|R| ≥ theta_right` (0 disables).
    pub theta_right: usize,
    /// Worker threads of the parallel engine (0 = auto).
    pub threads: usize,
    /// Stop after delivering exactly this many solutions.
    pub limit: Option<u64>,
    /// Stop once this much wall-clock time has elapsed.
    pub time_budget: Option<Duration>,
}

impl Default for QuerySpec {
    fn default() -> Self {
        QuerySpec {
            k: 1,
            k_pair: None,
            algorithm: Algorithm::ITraversal,
            engine: Engine::Sequential,
            order: VertexOrder::Input,
            emit_mode: EmitMode::Immediate,
            anchor: None,
            theta_left: 0,
            theta_right: 0,
            threads: 0,
            limit: None,
            time_budget: None,
        }
    }
}

/// Builder-style entry point for every enumeration the crate can perform.
///
/// See the [module documentation](self) for the lifecycle and examples.
#[derive(Clone, Debug)]
pub struct Enumerator<'g> {
    graph: &'g BipartiteGraph,
    spec: QuerySpec,
}

impl<'g> Enumerator<'g> {
    /// Starts a builder over `graph` with the defaults: `k = 1`, the full
    /// `iTraversal`, the sequential engine, input vertex order, no
    /// thresholds, no limit, no time budget.
    pub fn new(graph: &'g BipartiteGraph) -> Self {
        Enumerator { graph, spec: QuerySpec::default() }
    }

    /// Builds an enumerator over `graph` from an explicit [`QuerySpec`] —
    /// the entry point of deserialized queries (wire protocol, saved specs).
    /// The spec is *not* validated here; [`Enumerator::run`],
    /// [`Enumerator::stream`] and [`Enumerator::validate`] apply exactly the
    /// same checks as for a locally built configuration.
    pub fn from_spec(graph: &'g BipartiteGraph, spec: &QuerySpec) -> Self {
        Enumerator { graph, spec: spec.clone() }
    }

    /// The current configuration as a plain, serializable [`QuerySpec`] —
    /// the inverse of [`Enumerator::from_spec`].
    pub fn to_spec(&self) -> QuerySpec {
        self.spec.clone()
    }

    /// Sets the miss budget `k` of the k-biplex definition (default 1).
    pub fn k(mut self, k: usize) -> Self {
        self.spec.k = k;
        self
    }

    /// Sets per-side budgets `(k_L, k_R)`, which replace `k`: the run
    /// enumerates the maximal (k_L, k_R)-biplexes. Only
    /// [`Algorithm::BTraversal`] takes a pair, since the paper proves the
    /// other algorithms' prunings for a single k.
    pub fn k_pair(mut self, kp: KPair) -> Self {
        self.spec.k_pair = Some(kp);
        self
    }

    /// Selects the algorithm variant (default [`Algorithm::ITraversal`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.spec.algorithm = algorithm;
        self
    }

    /// Selects the execution engine (default [`Engine::Sequential`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.spec.engine = engine;
        self
    }

    /// Selects the vertex relabeling pass (default [`VertexOrder::Input`]).
    pub fn order(mut self, order: VertexOrder) -> Self {
        self.spec.order = order;
        self
    }

    /// Selects the emission mode of the sequential traversal engine
    /// (default [`EmitMode::Immediate`]).
    pub fn emit(mut self, emit: EmitMode) -> Self {
        self.spec.emit_mode = emit;
        self
    }

    /// Selects the anchor side of the sequential traversal engine:
    /// [`Anchor::Right`] runs the right-anchored variant of Section 6.2 as
    /// the left-anchored traversal on the transpose. Defaults to
    /// [`Anchor::Left`], the input's own orientation.
    pub fn anchor(mut self, anchor: Anchor) -> Self {
        self.spec.anchor = Some(anchor);
        self
    }

    /// Only reports MBPs with `|L| ≥ theta_left` and `|R| ≥ theta_right`
    /// (`0` disables a side). With [`Algorithm::Large`] the thresholds are
    /// additionally pushed into the search as the Section 5 prunings.
    pub fn thresholds(mut self, theta_left: usize, theta_right: usize) -> Self {
        self.spec.theta_left = theta_left;
        self.spec.theta_right = theta_right;
        self
    }

    /// Worker thread count for the parallel engine (`0` = auto, default).
    pub fn threads(mut self, threads: usize) -> Self {
        self.spec.threads = threads;
        self
    }

    /// Stops the run after delivering exactly `n` solutions — the paper's
    /// "first N results" experiments. Works on every engine: the parallel
    /// workers observe the shared cancellation flag at steal/expand
    /// boundaries.
    pub fn limit(mut self, n: u64) -> Self {
        self.spec.limit = Some(n);
        self
    }

    /// Stops the run once `budget` has elapsed. Cooperative: the deadline
    /// is checked at every solution delivery, at every DFS step of the
    /// sequential engine, and at the parallel workers' steal/expand
    /// boundaries — so a budgeted run stops within one expansion even when
    /// the thresholds filter out every solution.
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.spec.time_budget = Some(budget);
        self
    }

    /// Checks the configuration without running it.
    pub fn validate(&self) -> Result<(), ApiError> {
        let s = &self.spec;
        if s.engine != Engine::Sequential && !s.algorithm.parallelisable() {
            return Err(ApiError::Unsupported(format!(
                "algorithm {} only runs on the sequential engine (got {})",
                s.algorithm, s.engine
            )));
        }
        if s.k_pair.is_some() && s.algorithm != Algorithm::BTraversal {
            return Err(ApiError::InvalidConfig(format!(
                "k_pair only applies to algorithm btraversal (got {})",
                s.algorithm
            )));
        }
        if s.anchor.is_some() && s.engine != Engine::Sequential {
            return Err(ApiError::Unsupported(
                "the anchor only exists on the sequential engine".to_string(),
            ));
        }
        if s.emit_mode != EmitMode::Immediate && s.engine != Engine::Sequential {
            return Err(ApiError::Unsupported(
                "alternating emission only exists on the sequential engine".to_string(),
            ));
        }
        if s.threads != 0 && s.engine == Engine::Sequential {
            return Err(ApiError::InvalidConfig(
                "threads only applies to the parallel engine".to_string(),
            ));
        }
        Ok(())
    }

    /// Runs the enumeration, delivering every reported solution to `sink`,
    /// and returns the [`RunReport`].
    ///
    /// `S: Send` because the parallel engines deliver solutions from worker
    /// threads (behind an internal mutex; the sink still sees one call at a
    /// time, in nondeterministic order). A sink that returns
    /// [`Control::Stop`] ends the run on every engine within one expansion.
    pub fn run<S: SolutionSink + Send>(&self, sink: &mut S) -> Result<RunReport, ApiError> {
        self.validate()?;
        let cancel = AtomicBool::new(false);
        Ok(execute(self.graph, &self.spec, sink, &cancel, None))
    }

    /// Terminal convenience: runs the enumeration and returns the reported
    /// solutions sorted canonically — what the retired `enumerate_all` /
    /// `collect_*` free functions used to hand back. Use [`Enumerator::run`]
    /// when the [`RunReport`] or a custom sink is needed.
    pub fn collect(&self) -> Result<Vec<Biplex>, ApiError> {
        let mut sink = crate::sink::CollectSink::new();
        self.run(&mut sink)?;
        Ok(sink.into_sorted())
    }

    /// Runs the enumeration on a background thread and returns a pull-based
    /// iterator over the solutions, backed by a bounded channel of 256
    /// solutions. The stream owns a clone of the graph
    /// so it is `'static` and can outlive the builder. Dropping the stream
    /// cancels the run cooperatively; [`SolutionStream::finish`] joins it
    /// and returns the [`RunReport`].
    pub fn stream(&self) -> Result<SolutionStream, ApiError> {
        self.validate()?;
        let graph = self.graph.clone();
        let spec = self.spec.clone();
        let cancel = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel(STREAM_BUFFER);
        let thread_cancel = Arc::clone(&cancel);
        let handle = std::thread::Builder::new()
            .name("kbiplex-enumerator".to_string())
            .spawn(move || {
                let undelivered = AtomicBool::new(false);
                let mut sink = ChannelSink { tx, undelivered: &undelivered };
                execute(&graph, &spec, &mut sink, &thread_cancel, Some(&undelivered))
            })
            .map_err(|e| ApiError::Resource(format!("failed to spawn enumerator thread: {e}")))?;
        Ok(SolutionStream { rx: Some(rx), cancel, handle: Some(handle) })
    }
}

/// Sink of the streaming thread: forwards into the bounded channel and
/// requests a stop once the receiver is gone, flagging the failed delivery
/// so the gate neither counts it nor mistakes it for a deliberate sink
/// stop.
struct ChannelSink<'a> {
    tx: SyncSender<Biplex>,
    undelivered: &'a AtomicBool,
}

impl SolutionSink for ChannelSink<'_> {
    fn on_solution(&mut self, solution: &Biplex) -> Control {
        match self.tx.send(solution.clone()) {
            Ok(()) => Control::Continue,
            Err(_) => {
                // ordering: Relaxed — advisory flag read under the gate
                // lock; see DESIGN.md "cancel-flag".
                self.undelivered.store(true, Ordering::Relaxed);
                Control::Stop
            }
        }
    }
}

/// Pull-based solution iterator returned by [`Enumerator::stream`].
///
/// Iterates the solutions in delivery order (nondeterministic on the
/// parallel engines). Dropping the stream cancels the underlying run and
/// joins the producer thread; [`SolutionStream::finish`] does the same but
/// hands back the [`RunReport`].
#[derive(Debug)]
pub struct SolutionStream {
    rx: Option<Receiver<Biplex>>,
    cancel: Arc<AtomicBool>,
    handle: Option<JoinHandle<RunReport>>,
}

impl SolutionStream {
    /// Requests cooperative cancellation of the producing run without
    /// consuming the stream; already-buffered solutions remain readable.
    pub fn cancel(&self) {
        // ordering: Relaxed — liveness-only stop request; see DESIGN.md
        // "cancel-flag".
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Stops the run (if still going), joins the producer thread and
    /// returns its [`RunReport`]. After a fully drained stream the report's
    /// stop reason is whatever ended the run (e.g.
    /// [`StopReason::Exhausted`] or [`StopReason::LimitReached`]); calling
    /// it early cancels the run first.
    pub fn finish(mut self) -> RunReport {
        self.shutdown()
    }

    fn shutdown(&mut self) -> RunReport {
        // ordering: Relaxed — liveness-only stop request; see DESIGN.md
        // "cancel-flag".
        self.cancel.store(true, Ordering::Relaxed);
        // Drop the receiver before joining: a producer blocked on a full
        // channel unblocks through the send error.
        drop(self.rx.take());
        let Some(handle) = self.handle.take() else {
            // `shutdown` is only reachable from `finish`, which consumes the
            // stream; `Drop` (the other taker) runs after that.
            unreachable!("stream already finished")
        };
        match handle.join() {
            Ok(report) => report,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl Iterator for SolutionStream {
    type Item = Biplex;

    fn next(&mut self) -> Option<Biplex> {
        self.rx.as_ref()?.recv().ok()
    }
}

impl Drop for SolutionStream {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            // ordering: Relaxed — liveness-only stop request; see DESIGN.md
            // "cancel-flag".
            self.cancel.store(true, Ordering::Relaxed);
            drop(self.rx.take());
            // Swallow a producer panic here: panicking inside drop would
            // abort the process when the consumer is already unwinding and
            // mask the original failure. `finish()` still propagates it.
            let _ = handle.join();
        }
    }
}

/// Shared stopping logic wrapped around the caller's sink: counts
/// deliveries, enforces the limit and the deadline, records the stop reason
/// and raises the cancellation flag the engines poll. The mutex serialises
/// deliveries from parallel workers, which is what makes "limit n returns
/// exactly n" exact.
struct Gate<'a> {
    inner: Mutex<GateInner<'a>>,
    cancel: &'a AtomicBool,
    /// Raised by [`ChannelSink`] when a delivery attempt failed because the
    /// stream's receiver is gone: the solution was not consumed, so it must
    /// not be counted and the stop is a cancellation, not a sink stop.
    undelivered: Option<&'a AtomicBool>,
}

struct GateInner<'a> {
    sink: &'a mut (dyn SolutionSink + Send),
    delivered: u64,
    limit: Option<u64>,
    deadline: Option<Instant>,
    reason: Option<StopReason>,
}

impl<'a> Gate<'a> {
    fn new(
        sink: &'a mut (dyn SolutionSink + Send),
        limit: Option<u64>,
        deadline: Option<Instant>,
        cancel: &'a AtomicBool,
        undelivered: Option<&'a AtomicBool>,
    ) -> Self {
        Gate {
            inner: Mutex::new(GateInner { sink, delivered: 0, limit, deadline, reason: None }),
            cancel,
            undelivered,
        }
    }

    /// Delivers one solution through the stopping rules.
    fn offer(&self, solution: &Biplex) -> Control {
        let mut inner = plock(&self.inner);
        if let Some(control) = self.pre_checks(&mut inner) {
            return control;
        }
        let verdict = inner.sink.on_solution(solution);
        // ordering: Relaxed — the flag was set by this same delivery attempt
        // before on_solution returned; no cross-thread data rides on it. See
        // DESIGN.md "cancel-flag".
        if verdict == Control::Stop && self.undelivered.is_some_and(|u| u.load(Ordering::Relaxed)) {
            // The stream's channel sink reports the send failed (receiver
            // dropped mid-run). The solution was not consumed: report a
            // cancellation, not a sink stop, and do not count it. A genuine
            // sink stop — even one racing an engine-side cancel — is still
            // counted and labelled SinkStopped below.
            return self.stop(&mut inner, StopReason::Cancelled);
        }
        inner.delivered += 1;
        if verdict == Control::Stop {
            return self.stop(&mut inner, StopReason::SinkStopped);
        }
        if inner.limit == Some(inner.delivered) {
            return self.stop(&mut inner, StopReason::LimitReached);
        }
        Control::Continue
    }

    /// The checks running before a delivery: an already-decided stop, an
    /// external cancellation, an expired deadline, an exhausted limit
    /// (covers `limit(0)`). Returns `Some(Stop)` when the run must stop.
    fn pre_checks(&self, inner: &mut GateInner<'_>) -> Option<Control> {
        if inner.reason.is_some() {
            return Some(Control::Stop);
        }
        // ordering: Relaxed — cancellation poll, liveness only; see
        // DESIGN.md "cancel-flag".
        if self.cancel.load(Ordering::Relaxed) {
            return Some(self.stop(inner, StopReason::Cancelled));
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Some(self.stop(inner, StopReason::TimeBudget));
            }
        }
        if inner.limit == Some(inner.delivered) {
            return Some(self.stop(inner, StopReason::LimitReached));
        }
        None
    }

    fn stop(&self, inner: &mut GateInner<'_>, reason: StopReason) -> Control {
        inner.reason = Some(reason);
        // ordering: Relaxed — liveness-only stop request; the decision
        // itself is published by the gate lock. See DESIGN.md "cancel-flag".
        self.cancel.store(true, Ordering::Relaxed);
        Control::Stop
    }

    fn finish(self) -> (u64, Option<StopReason>) {
        let inner = self.inner.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
        (inner.delivered, inner.reason)
    }
}

/// Runs a validated spec to completion. Infallible: every configuration
/// error was caught by [`Enumerator::validate`].
fn execute(
    g: &BipartiteGraph,
    spec: &QuerySpec,
    sink: &mut (dyn SolutionSink + Send),
    cancel: &AtomicBool,
    undelivered: Option<&AtomicBool>,
) -> RunReport {
    let deadline = spec.time_budget.map(|budget| Instant::now() + budget);
    let gate = Gate::new(sink, spec.limit, deadline, cancel, undelivered);
    let start = Instant::now();

    let (stats, reduced) = run_traversal(g, spec, &gate, cancel, deadline);

    let elapsed = start.elapsed();
    let (delivered, reason) = gate.finish();
    let stop = reason.unwrap_or_else(|| {
        // The gate never decided a stop, but the engine may still have been
        // cut short at a scheduling boundary without any delivery passing
        // through the gate afterwards (e.g. thresholds filtered everything
        // out of a budgeted run, or a stream was dropped mid-run).
        let engine_stopped = match &stats {
            EngineStats::Parallel(s) => s.stopped_early,
            EngineStats::Sequential(s) => s.stopped_early,
        };
        if !engine_stopped {
            StopReason::Exhausted
        } else if deadline.is_some_and(|d| Instant::now() >= d) {
            StopReason::TimeBudget
        } else {
            StopReason::Cancelled
        }
    });
    RunReport { solutions: delivered, stop, elapsed, stats, reduced }
}

/// Runs a validated spec on the graph it prepares, in this order:
///
/// 1. for [`Algorithm::Large`], the (θ_R − k, θ_L − k)-core of Section 5
///    — every large MBP survives it,
///    because each of its left vertices keeps at least θ_R − k neighbours
///    and each right vertex at least θ_L − k;
/// 2. the [`VertexOrder`] relabeling;
/// 3. for [`Anchor::Right`], the transpose with θ_L and θ_R swapped, and
///    the budget pair with them — the right-anchored traversal of
///    Section 6.2 is the left-anchored one on Gᵀ.
///
/// The engine gets that graph plus one emit closure, which maps each
/// solution back to input ids and offers it to the gate. The reported
/// [`ReducedGraph`] is the core in the input's orientation.
fn run_traversal(
    g: &BipartiteGraph,
    spec: &QuerySpec,
    gate: &Gate<'_>,
    cancel: &AtomicBool,
    deadline: Option<Instant>,
) -> (EngineStats, Option<ReducedGraph>) {
    let core = (spec.algorithm == Algorithm::Large).then(|| {
        let alpha = spec.theta_right.saturating_sub(spec.k);
        let beta = spec.theta_left.saturating_sub(spec.k);
        alpha_beta_core_subgraph(g, alpha, beta)
    });
    let g = core.as_ref().map_or(g, |core| &core.graph);
    let reduced = core.is_some().then(|| ReducedGraph {
        left: g.num_left(),
        right: g.num_right(),
        edges: g.num_edges(),
    });
    let relabeling = (spec.order != VertexOrder::Input).then(|| Relabeling::compute(g, spec.order));
    let relabeled = relabeling.as_ref().map(|relabeling| relabeling.apply(g));
    let g = relabeled.as_ref().unwrap_or(g);
    let right = spec.anchor == Some(Anchor::Right);
    let transposed = right.then(|| g.transpose());
    let g = transposed.as_ref().unwrap_or(g);
    let mut spec = spec.clone();
    if right {
        std::mem::swap(&mut spec.theta_left, &mut spec.theta_right);
        spec.k_pair = spec.k_pair.map(KPair::transpose);
    }

    // Undo the preparations in reverse order.
    let emit = |b: &Biplex| {
        if !right && relabeling.is_none() && core.is_none() {
            return gate.offer(b);
        }
        let mut b = if right { b.clone().transpose() } else { b.clone() };
        if let Some(relabeling) = &relabeling {
            b = b.map_back(relabeling);
        }
        if let Some(core) = &core {
            let (left, right) = core.original_pair(&b.left, &b.right);
            b = Biplex::new(left, right);
        }
        gate.offer(&b)
    };
    let stats = match spec.engine {
        Engine::Sequential => EngineStats::Sequential(traverse(g, &spec, deadline, cancel, &emit)),
        Engine::WorkSteal => {
            EngineStats::Parallel(par_run(g, &spec, &ParRuntime { emit: &emit, cancel, deadline }))
        }
    };
    (stats, reduced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biplex::is_maximal_k_biplex;
    use crate::bruteforce::{brute_force_large_mbps, brute_force_mbps};
    use crate::sink::{CollectSink, CountingSink};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(nl: u32, nr: u32, p: f64, seed: u64) -> BipartiteGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for v in 0..nl {
            for u in 0..nr {
                if rng.gen_bool(p) {
                    edges.push((v, u));
                }
            }
        }
        BipartiteGraph::from_edges(nl, nr, &edges).unwrap()
    }

    fn collect(e: &Enumerator<'_>) -> Vec<Biplex> {
        e.collect().unwrap()
    }

    #[test]
    fn every_algorithm_engine_combination_agrees() {
        let g = random_graph(6, 6, 0.5, 1);
        let k = 1;
        let expected = brute_force_mbps(&g, k);
        assert!(!expected.is_empty());
        for algorithm in [
            Algorithm::ITraversal,
            Algorithm::ITraversalNoExclusion,
            Algorithm::LeftAnchoredOnly,
            Algorithm::BTraversal,
        ] {
            let got = collect(&Enumerator::new(&g).k(k).algorithm(algorithm));
            assert_eq!(got, expected, "{algorithm}");
        }
        // The symmetric pair is the plain k.
        let e = Enumerator::new(&g).algorithm(Algorithm::BTraversal).k_pair(KPair::symmetric(k));
        assert_eq!(collect(&e), expected, "btraversal with k_pair ({k}, {k})");
        for algorithm in [Algorithm::ITraversal, Algorithm::ITraversalNoExclusion] {
            let got = collect(
                &Enumerator::new(&g).k(k).algorithm(algorithm).engine(Engine::WorkSteal).threads(3),
            );
            assert_eq!(got, expected, "{algorithm} on the work-stealer");
        }
    }

    #[test]
    fn limit_is_exact_on_every_engine() {
        let g = random_graph(7, 7, 0.5, 3);
        let k = 1;
        let total = collect(&Enumerator::new(&g).k(k)).len() as u64;
        assert!(total > 4);
        for engine in [Engine::Sequential, Engine::WorkSteal] {
            for limit in [0u64, 1, 3] {
                let mut sink = CollectSink::new();
                let e = Enumerator::new(&g).k(k).engine(engine).limit(limit);
                let e = if engine == Engine::Sequential { e } else { e.threads(3) };
                let report = e.run(&mut sink).unwrap();
                assert_eq!(sink.solutions.len() as u64, limit, "{engine} limit {limit}");
                assert_eq!(report.solutions, limit, "{engine} limit {limit}");
                assert_eq!(report.stop, StopReason::LimitReached, "{engine} limit {limit}");
                for b in &sink.solutions {
                    assert!(is_maximal_k_biplex(&g, &b.left, &b.right, k));
                }
                if let EngineStats::Parallel(stats) = &report.stats {
                    assert!(stats.stopped_early, "{engine} limit {limit}");
                }
            }
        }
    }

    #[test]
    fn time_budget_zero_stops_immediately() {
        let g = random_graph(7, 7, 0.5, 5);
        for engine in [Engine::Sequential, Engine::WorkSteal] {
            let mut sink = CountingSink::new();
            let e = Enumerator::new(&g).time_budget(Duration::ZERO).engine(engine);
            let e = if engine == Engine::Sequential { e } else { e.threads(2) };
            let report = e.run(&mut sink).unwrap();
            assert_eq!(report.stop, StopReason::TimeBudget, "{engine}");
            assert_eq!(sink.count, 0, "{engine}");
        }
    }

    #[test]
    fn budget_reported_even_when_thresholds_filter_every_delivery() {
        // Thresholds no solution can meet: nothing ever reaches the gate,
        // so the stop reason must come from the engine-side deadline — the
        // sequential engine polls it at DFS steps, the parallel workers at
        // steal/expand boundaries.
        let g = random_graph(7, 7, 0.5, 17);
        for engine in [Engine::Sequential, Engine::WorkSteal] {
            let mut sink = CountingSink::new();
            let e = Enumerator::new(&g)
                .k(1)
                .thresholds(100, 100)
                .time_budget(Duration::ZERO)
                .engine(engine);
            let e = if engine == Engine::Sequential { e } else { e.threads(2) };
            let report = e.run(&mut sink).unwrap();
            assert_eq!(sink.count, 0, "{engine}");
            assert_eq!(report.stop, StopReason::TimeBudget, "{engine}");
        }
    }

    #[test]
    fn cancelled_stream_stops_even_when_thresholds_filter_every_delivery() {
        // bTraversal prunes nothing by size, so with θ_L above |L| it walks
        // the whole solution graph (seconds on this graph) without a single
        // delivery: only the engine's own poll of the flag can stop it.
        let g = bigraph::gen::chung_lu_bipartite(60, 60, 240, 2.2, 5);
        let e = Enumerator::new(&g).algorithm(Algorithm::BTraversal).thresholds(61, 0);
        let report = e.stream().unwrap().finish();
        assert_eq!(report.stop, StopReason::Cancelled);
        assert_eq!(report.solutions, 0);
    }

    #[test]
    fn stream_matches_run_and_supports_early_drop() {
        let g = random_graph(6, 6, 0.5, 7);
        let expected = collect(&Enumerator::new(&g));
        for engine in [Engine::Sequential, Engine::WorkSteal] {
            let e = Enumerator::new(&g).engine(engine);
            let e = if engine == Engine::Sequential { e } else { e.threads(2) };
            let mut got: Vec<Biplex> = e.stream().unwrap().collect();
            got.sort();
            assert_eq!(got, expected, "{engine}");

            // Taking a prefix and dropping the stream cancels the run.
            let taken: Vec<Biplex> = e.stream().unwrap().take(2).collect();
            assert_eq!(taken.len(), 2, "{engine}");
        }
    }

    #[test]
    fn early_stream_finish_reports_cancelled_not_sink_stopped() {
        // 1,451 solutions are far more than the 256-slot buffer, so the
        // producer is still mid-run when the stream is abandoned.
        let g = bigraph::gen::chung_lu_bipartite(24, 24, 70, 2.2, 11);
        let mut stream = Enumerator::new(&g).stream().unwrap();
        let _first = stream.next().expect("at least one solution");
        let report = stream.finish();
        assert_eq!(report.stop, StopReason::Cancelled);
    }

    #[test]
    fn stream_finish_reports_stop_reason() {
        let g = random_graph(6, 6, 0.5, 9);
        let mut stream = Enumerator::new(&g).limit(3).stream().unwrap();
        let mut n = 0;
        while stream.next().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        let report = stream.finish();
        assert_eq!(report.stop, StopReason::LimitReached);
        assert_eq!(report.solutions, 3);
    }

    #[test]
    fn invalid_combinations_are_rejected() {
        let g = random_graph(4, 4, 0.5, 0);
        let err = |e: Enumerator<'_>| e.run(&mut CountingSink::new()).unwrap_err();
        let pair = || Enumerator::new(&g).algorithm(Algorithm::BTraversal).k_pair(KPair::new(1, 2));
        assert!(matches!(err(pair().engine(Engine::WorkSteal)), ApiError::Unsupported(_)));
        assert!(matches!(
            err(Enumerator::new(&g).algorithm(Algorithm::BTraversal).engine(Engine::WorkSteal)),
            ApiError::Unsupported(_)
        ));
        for algorithm in [
            Algorithm::ITraversal,
            Algorithm::ITraversalNoExclusion,
            Algorithm::LeftAnchoredOnly,
            Algorithm::Large,
        ] {
            let e = Enumerator::new(&g).algorithm(algorithm).k_pair(KPair::new(1, 2));
            assert!(matches!(err(e), ApiError::InvalidConfig(_)), "{algorithm}");
        }
        assert!(matches!(err(Enumerator::new(&g).threads(2)), ApiError::InvalidConfig(_)));
        // A pair takes every sequential knob bTraversal takes.
        let e = pair().order(VertexOrder::Degree).anchor(Anchor::Right).emit(EmitMode::Alternating);
        assert_eq!(e.validate(), Ok(()));
        // Errors render.
        let msg = format!("{}", err(Enumerator::new(&g).threads(2)));
        assert!(msg.contains("threads"));
    }

    #[test]
    fn parsing_and_display_round_trip() {
        for algorithm in [
            Algorithm::ITraversal,
            Algorithm::ITraversalNoExclusion,
            Algorithm::LeftAnchoredOnly,
            Algorithm::BTraversal,
            Algorithm::Large,
        ] {
            assert_eq!(algorithm.to_string().parse::<Algorithm>().unwrap(), algorithm);
        }
        // Per-side budgets are a k_pair on btraversal, not an algorithm.
        assert!("asym".parse::<Algorithm>().is_err());
        for engine in [Engine::Sequential, Engine::WorkSteal] {
            assert_eq!(engine.to_string().parse::<Engine>().unwrap(), engine);
        }
        assert!("quantum".parse::<Algorithm>().is_err());
        assert!("quantum".parse::<Engine>().is_err());
        assert_eq!(StopReason::LimitReached.to_string(), "limit-reached");
    }

    #[test]
    fn large_pipeline_reports_reduction() {
        let g = random_graph(8, 8, 0.4, 11);
        let mut sink = CollectSink::new();
        let report = Enumerator::new(&g)
            .algorithm(Algorithm::Large)
            .thresholds(2, 2)
            .run(&mut sink)
            .unwrap();
        let reduced = report.reduced.expect("large runs report the reduction");
        assert!(reduced.left <= g.num_left());
        let mut expected = brute_force_large_mbps(&g, 1, 2, 2);
        expected.sort();
        assert_eq!(sink.into_sorted(), expected);
    }
}
