//! The always-on enumeration daemon.
//!
//! One [`Server`] holds one graph, a [`BipartiteGraph`] behind an `Arc` in
//! the `current` mutex. An admitted query clones the `Arc` and runs on that
//! graph to the end. An update edits the graph copy-on-write with
//! [`BipartiteGraph::update_shared`] while holding `current`: in place when
//! no admitted query holds the graph, otherwise on a copy built in one pass
//! that replaces it. Either way the edit is one splice under the lock, so
//! no reader observes a half-applied update, and the next admitted query
//! sees every acknowledged one.
//!
//! ## Concurrency model
//!
//! Deliberately boring: every shared structure is a `Mutex` (plus one
//! `Condvar` for the worker pool). No atomics — the atomic protocols (the
//! work-stealer's pending counter and cancel flag) live in
//! `kbiplex::parallel` where they are model-checked; the service layer
//! optimizes for auditability.
//!
//! * one *accept* thread turning connections into *connection* threads,
//!   and joining the connection threads that have finished;
//! * connection threads parse frames and either answer directly (ping,
//!   update, malformed input) or submit the query to the scheduler;
//! * a fixed pool of *worker* threads runs queries through the
//!   [`Enumerator`] facade and writes the response back on the submitting
//!   connection (writes are serialized per connection by a mutex). A query
//!   that panics is answered with [`CODE_INTERNAL`]; its worker survives.
//!
//! ## Admission control and fairness
//!
//! Admission is a hard bound on *queued* queries ([`ServeConfig::
//! max_pending`]): when the queue is full the connection thread answers
//! immediately with a typed [`CODE_OVERLOADED`] error — clients see
//! fast-fail back-pressure, never an unbounded queue. Admitted queries
//! land in per-tenant FIFO queues; a free worker picks the queue whose
//! tenant has the *fewest queries currently running* (ties broken by
//! tenant name), so one chatty tenant cannot starve the others.
//!
//! ## Server-side budgets
//!
//! [`ServeConfig::max_limit`] and [`ServeConfig::max_time_budget`] clamp
//! every admitted spec (`min` of client ask and server cap), so a
//! misbehaving client cannot run unbounded work: enforcement rides the
//! facade's own limit/deadline gate, which cancels the engines
//! cooperatively within one expansion. A query's thread count is capped at
//! the machine's available parallelism.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use bigraph::BipartiteGraph;
use kbiplex::json::Json;
use kbiplex::{CollectSink, CountingSink, Enumerator, QuerySpec};

use crate::frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
use crate::proto::{
    QueryRequest, Request, Response, SnapshotInfo, UpdateOp, CODE_BAD_REQUEST, CODE_BAD_UPDATE,
    CODE_FRAME_TOO_LARGE, CODE_INTERNAL, CODE_OVERLOADED, CODE_SHUTTING_DOWN,
};

/// Locks a mutex, riding over poisoning: a panicking worker must not take
/// the whole daemon down, and every structure behind these locks is valid
/// at every await-free point. That includes the graph in `current`:
/// `update_shared` runs every check that can fail before its first write,
/// so it cannot stop between its two halves.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads executing queries; `0` sizes from the machine.
    pub workers: usize,
    /// Hard bound on queued (admitted, not yet running) queries; at the
    /// bound new queries are rejected with [`CODE_OVERLOADED`].
    pub max_pending: usize,
    /// Server-side cap on a query's solution limit (`None` = no cap).
    pub max_limit: Option<u64>,
    /// Server-side cap on a query's time budget (`None` = no cap).
    pub max_time_budget: Option<Duration>,
    /// Maximum accepted frame payload, bytes.
    pub max_frame: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            max_pending: 64,
            max_limit: None,
            max_time_budget: None,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// An admitted query waiting for (or holding) a worker.
struct Job {
    req: QueryRequest,
    snapshot: Arc<BipartiteGraph>,
    out: Arc<Mutex<TcpStream>>,
}

/// Scheduler state: per-tenant FIFO queues plus the running census.
#[derive(Default)]
struct Sched {
    queues: BTreeMap<String, VecDeque<Job>>,
    running: BTreeMap<String, usize>,
    pending: usize,
    shutdown: bool,
}

impl Sched {
    /// Pops the next job under the fair-share policy: among tenants with
    /// queued work, the one with the fewest running queries wins (ties by
    /// tenant name, which `BTreeMap` iteration yields deterministically).
    fn pick(&mut self) -> Option<Job> {
        let tenant =
            self.queues.keys().min_by_key(|t| self.running.get(*t).copied().unwrap_or(0))?.clone();
        let queue = self.queues.get_mut(&tenant)?;
        let job = queue.pop_front()?;
        if queue.is_empty() {
            self.queues.remove(&tenant);
        }
        self.pending -= 1;
        *self.running.entry(tenant).or_insert(0) += 1;
        Some(job)
    }

    fn finish(&mut self, tenant: &str) {
        if let Some(n) = self.running.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.running.remove(tenant);
            }
        }
    }
}

/// Every connection's thread, with a clone of its stream so shutdown can
/// close it. The accept loop joins and drops the finished ones.
type ConnRegistry = Arc<Mutex<Vec<(TcpStream, JoinHandle<()>)>>>;

/// State shared by every thread of one server.
struct Shared {
    cfg: ServeConfig,
    /// The graph the next admitted query runs on; updates edit it in place
    /// or replace it (see [`BipartiteGraph::update_shared`]).
    current: Mutex<Arc<BipartiteGraph>>,
    sched: Mutex<Sched>,
    work: Condvar,
}

/// The shape of `g`, as responses report it.
fn snapshot_info(g: &BipartiteGraph) -> SnapshotInfo {
    SnapshotInfo { left: g.num_left(), right: g.num_right(), edges: g.num_edges() }
}

impl Shared {
    fn snapshot(&self) -> Arc<BipartiteGraph> {
        Arc::clone(&lock(&self.current))
    }

    /// Clamps the client's spec to the server-side caps, and a thread count
    /// to the machine's parallelism. A non-zero count never becomes 0 (the
    /// "auto" value), so the facade still rejects threads on the sequential
    /// engine.
    fn clamp(&self, spec: &mut QuerySpec) {
        if let Some(max) = self.cfg.max_limit {
            spec.limit = Some(spec.limit.map_or(max, |l| l.min(max)));
        }
        if let Some(max) = self.cfg.max_time_budget {
            spec.time_budget = Some(spec.time_budget.map_or(max, |b| b.min(max)));
        }
        if spec.threads > 0 {
            let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
            spec.threads = spec.threads.min(cpus);
        }
    }
}

/// Writes one response frame, ignoring transport errors (a vanished peer
/// is not the server's problem).
fn send(out: &Mutex<TcpStream>, resp: &Response) {
    let payload = resp.to_json().encode();
    let mut stream = lock(out);
    let _ = write_frame(&mut *stream, payload.as_bytes());
}

fn error_response(id: u64, code: &str, message: String) -> Response {
    Response::Error { id, code: code.to_string(), message }
}

/// A request id that makes [`run_query`] panic, to drive the panic path in
/// tests.
#[cfg(test)]
const PANIC_QUERY_ID: u64 = 0xDEAD_BEEF;

/// Runs one admitted query on its captured snapshot.
fn run_query(job: &Job) -> Response {
    #[cfg(test)]
    if job.req.id == PANIC_QUERY_ID {
        panic!("test hook: query {PANIC_QUERY_ID} panics");
    }
    let e = Enumerator::from_spec(&job.snapshot, &job.req.spec);
    if job.req.include_solutions {
        let mut sink = CollectSink::new();
        match e.run(&mut sink) {
            Ok(report) => {
                Response::Result { id: job.req.id, report, solutions: Some(sink.into_sorted()) }
            }
            Err(err) => error_response(job.req.id, err.code(), err.message().to_string()),
        }
    } else {
        let mut sink = CountingSink::new();
        match e.run(&mut sink) {
            Ok(report) => Response::Result { id: job.req.id, report, solutions: None },
            Err(err) => error_response(job.req.id, err.code(), err.message().to_string()),
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut sched = lock(&shared.sched);
            loop {
                if sched.shutdown {
                    return;
                }
                if let Some(job) = sched.pick() {
                    break job;
                }
                sched = shared.work.wait(sched).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // A panicking query must not take its worker with it: it gets a
        // typed error, and its tenant's slot is released like any other.
        let resp = catch_unwind(AssertUnwindSafe(|| run_query(&job))).unwrap_or_else(|_| {
            error_response(job.req.id, CODE_INTERNAL, "the query panicked".to_string())
        });
        // Release the graph and the slot before replying, so a client that
        // has its answer finds both free: an update it sends next can edit
        // the graph in place.
        drop(job.snapshot);
        lock(&shared.sched).finish(&job.req.tenant);
        send(&job.out, &resp);
    }
}

/// Parses and dispatches one frame payload on a connection thread.
fn handle_payload(shared: &Shared, out: &Arc<Mutex<TcpStream>>, payload: &[u8]) {
    let parsed = std::str::from_utf8(payload)
        .map_err(|e| format!("payload is not UTF-8: {e}"))
        .and_then(|text| Json::parse(text).map_err(|e| e.0))
        .and_then(|doc| Request::from_json(&doc).map_err(|e| e.0));
    let req = match parsed {
        Ok(req) => req,
        Err(message) => {
            // The frame boundary held, so the connection survives a
            // malformed payload: reject it and keep reading.
            send(out, &error_response(0, CODE_BAD_REQUEST, message));
            return;
        }
    };
    match req {
        Request::Ping { id } => {
            let snapshot = snapshot_info(&lock(&shared.current));
            send(out, &Response::Pong { id, snapshot });
        }
        Request::Update { id, op, left, right } => {
            // Updates serialize on `current`, held for at most one splice:
            // in place when no admitted query holds the graph, on a copy
            // otherwise. A failed or no-op update writes nothing.
            let mut current = lock(&shared.current);
            let insert = op == UpdateOp::Insert;
            let applied = BipartiteGraph::update_shared(&mut current, left, right, insert);
            let snapshot = snapshot_info(&current);
            drop(current);
            let resp = match applied {
                Ok(changed) => Response::Updated { id, changed, snapshot },
                Err(e) => error_response(id, CODE_BAD_UPDATE, e.to_string()),
            };
            send(out, &resp);
        }
        Request::Query(mut q) => {
            shared.clamp(&mut q.spec);
            let snapshot = shared.snapshot();
            // Fail malformed specs fast on the connection thread, with the
            // facade's own error code — no scheduler slot wasted.
            if let Err(e) = Enumerator::from_spec(&snapshot, &q.spec).validate() {
                send(out, &error_response(q.id, e.code(), e.message().to_string()));
                return;
            }
            let mut sched = lock(&shared.sched);
            if sched.shutdown {
                drop(sched);
                send(
                    out,
                    &error_response(q.id, CODE_SHUTTING_DOWN, "server is shutting down".into()),
                );
                return;
            }
            if sched.pending >= shared.cfg.max_pending {
                let pending = sched.pending;
                drop(sched);
                send(
                    out,
                    &error_response(
                        q.id,
                        CODE_OVERLOADED,
                        format!(
                            "admission rejected: {pending} queries pending (bound {})",
                            shared.cfg.max_pending
                        ),
                    ),
                );
                return;
            }
            sched.pending += 1;
            sched.queues.entry(q.tenant.clone()).or_default().push_back(Job {
                req: q,
                snapshot,
                out: Arc::clone(out),
            });
            drop(sched);
            shared.work.notify_one();
        }
    }
}

fn connection_loop(shared: &Shared, mut reader: TcpStream) {
    let Ok(writer) = reader.try_clone() else {
        return;
    };
    let out = Arc::new(Mutex::new(writer));
    loop {
        match read_frame(&mut reader, shared.cfg.max_frame) {
            Ok(None) => break,
            Ok(Some(payload)) => handle_payload(shared, &out, &payload),
            Err(FrameError::TooLarge { len, max }) => {
                // The advertised bytes may never arrive, so the stream
                // cannot be resynchronised: answer with the typed error and
                // drop the connection. The *server* survives; the client
                // reconnects.
                send(
                    &out,
                    &error_response(
                        0,
                        CODE_FRAME_TOO_LARGE,
                        format!("frame of {len} bytes exceeds the {max}-byte limit"),
                    ),
                );
                break;
            }
            Err(FrameError::Io(_)) => break,
        }
    }
    // Close at the socket level: the connection registry holds another
    // clone of this stream until the accept loop reaps this thread, so
    // merely dropping ours would leave the peer's connection half-open.
    let _ = reader.shutdown(std::net::Shutdown::Both);
}

/// The enumeration daemon. Construct with [`Server::start`]; the returned
/// [`ServerHandle`] owns every thread.
pub struct Server;

impl Server {
    /// Binds `cfg.addr`, publishes `graph` as the first snapshot and spawns
    /// the accept loop plus the worker pool.
    pub fn start(cfg: ServeConfig, graph: BipartiteGraph) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers_wanted = if cfg.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(2, 8)
        } else {
            cfg.workers
        };
        let shared = Arc::new(Shared {
            cfg,
            current: Mutex::new(Arc::new(graph)),
            sched: Mutex::new(Sched::default()),
            work: Condvar::new(),
        });
        let mut workers = Vec::with_capacity(workers_wanted);
        for i in 0..workers_wanted {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("mbpe-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let conns: ConnRegistry = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let registry = Arc::clone(&conns);
            std::thread::Builder::new().name("mbpe-serve-accept".to_string()).spawn(move || {
                for stream in listener.incoming() {
                    if lock(&shared.sched).shutdown {
                        return;
                    }
                    let Ok(stream) = stream else {
                        continue;
                    };
                    // Responses are small frames, often several per round
                    // trip (pipelined requests): with Nagle on, each one
                    // after the first waits for the client's delayed ACK.
                    let _ = stream.set_nodelay(true);
                    let Ok(clone) = stream.try_clone() else {
                        continue;
                    };
                    let shared = Arc::clone(&shared);
                    let spawned = std::thread::Builder::new()
                        .name("mbpe-serve-conn".to_string())
                        .spawn(move || connection_loop(&shared, stream));
                    let Ok(handle) = spawned else {
                        continue;
                    };
                    // Reap finished connections here, so churn does not
                    // pile up threads and file descriptors until shutdown.
                    let finished = {
                        let mut conns = lock(&registry);
                        let (finished, mut live): (Vec<_>, Vec<_>) =
                            conns.drain(..).partition(|(_, h)| h.is_finished());
                        live.push((clone, handle));
                        *conns = live;
                        finished
                    };
                    for (_, handle) in finished {
                        let _ = handle.join();
                    }
                }
            })?
        };
        Ok(ServerHandle { addr, shared, accept: Some(accept), workers, conns })
    }
}

/// Owns a running server's threads; [`ServerHandle::shutdown`] stops them.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: ConnRegistry,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when `addr` asked for
    /// port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The currently published snapshot — what the next admitted query
    /// will run against. Tests use this to cross-check service responses
    /// against a direct facade run on the same graph. While the returned
    /// `Arc` is held, an update copies the graph instead of editing it in
    /// place.
    pub fn snapshot(&self) -> Arc<BipartiteGraph> {
        self.shared.snapshot()
    }

    /// Stops admitting, closes every connection, joins every thread.
    /// In-flight queries run to completion (their snapshots stay alive);
    /// queued ones are dropped with their closing connections.
    pub fn shutdown(mut self) {
        lock(&self.shared.sched).shutdown = true;
        self.shared.work.notify_all();
        // Unblock the accept loop with a throwaway connection; it checks
        // the shutdown flag before handling anything.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let conns: Vec<_> = lock(&self.conns).drain(..).collect();
        for (stream, _) in &conns {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for (_, handle) in conns {
            let _ = handle.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sends one request frame and reads the next response frame; the
    /// socket's read timeout turns a lost reply into a test failure.
    fn round_trip(stream: &mut TcpStream, req: &Request) -> Response {
        write_frame(&mut *stream, req.to_json().encode().as_bytes()).expect("send");
        let payload = read_frame(&mut *stream, DEFAULT_MAX_FRAME).expect("reply").expect("frame");
        let text = std::str::from_utf8(&payload).expect("utf-8");
        Response::from_json(&Json::parse(text).expect("json")).expect("response")
    }

    #[test]
    fn a_panicking_query_gets_internal_and_its_worker_survives() {
        let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 1), (2, 2)]).expect("graph");
        // One worker: if the panic killed it, the next query would never run.
        let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
        let handle = Server::start(cfg, g).expect("server starts");
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(20))).expect("timeout");
        let query = |id| {
            Request::Query(QueryRequest {
                id,
                tenant: "tenant".to_string(),
                spec: QuerySpec::default(),
                include_solutions: false,
            })
        };

        match round_trip(&mut stream, &query(PANIC_QUERY_ID)) {
            Response::Error { id, code, .. } => {
                assert_eq!((id, code.as_str()), (PANIC_QUERY_ID, CODE_INTERNAL));
            }
            other => panic!("expected an internal error, got {other:?}"),
        }
        assert!(lock(&handle.shared.sched).running.is_empty(), "the tenant's slot leaked");
        match round_trip(&mut stream, &query(7)) {
            Response::Result { id, report, .. } => {
                assert_eq!(id, 7);
                assert!(report.solutions > 0);
            }
            other => panic!("expected a result, got {other:?}"),
        }
        handle.shutdown();
    }
}
