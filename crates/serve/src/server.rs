//! The always-on enumeration daemon.
//!
//! One [`Server`] owns two representations of the graph: an immutable
//! [`BipartiteGraph`] snapshot behind an `Arc` (what queries run against)
//! and a [`DynamicBipartiteGraph`] (what updates mutate). An update applies
//! the edge mutation, re-materializes a fresh snapshot and swaps the `Arc`
//! — queries already running keep their old snapshot alive for free, and no
//! query ever observes a half-applied update.
//!
//! ## Concurrency model
//!
//! Deliberately boring: every shared structure is a `Mutex` (plus one
//! `Condvar` for the worker pool). No atomics, no lock-free structures —
//! the lock-free core lives in `kbiplex::parallel` where it is
//! model-checked; the service layer optimizes for auditability.
//!
//! * one *accept* thread turning connections into *connection* threads;
//! * connection threads parse frames and either answer directly (ping,
//!   update, malformed input) or submit the query to the scheduler;
//! * a fixed pool of *worker* threads runs queries through the
//!   [`Enumerator`] facade and writes the response back on the submitting
//!   connection (writes are serialized per connection by a mutex).
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
//! cooperatively within one expansion.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use bigraph::{BipartiteGraph, DynamicBipartiteGraph};
use kbiplex::json::Json;
use kbiplex::{CollectSink, CountingSink, Enumerator, QuerySpec};

use crate::frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
use crate::proto::{
    QueryRequest, Request, Response, SnapshotInfo, UpdateOp, CODE_BAD_REQUEST, CODE_BAD_UPDATE,
    CODE_FRAME_TOO_LARGE, CODE_OVERLOADED, CODE_SHUTTING_DOWN,
};

/// Locks a mutex, riding over poisoning: a panicking worker must not take
/// the whole daemon down, and every structure behind these locks is valid
/// at every await-free point.
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

/// State shared by every thread of one server.
struct Shared {
    cfg: ServeConfig,
    /// The published immutable snapshot queries run against.
    current: Mutex<Arc<BipartiteGraph>>,
    /// The mutable edge set updates apply to.
    dynamic: Mutex<DynamicBipartiteGraph>,
    sched: Mutex<Sched>,
    work: Condvar,
}

impl Shared {
    fn snapshot(&self) -> Arc<BipartiteGraph> {
        Arc::clone(&lock(&self.current))
    }

    fn snapshot_info(&self) -> SnapshotInfo {
        let g = self.snapshot();
        SnapshotInfo { left: g.num_left(), right: g.num_right(), edges: g.num_edges() }
    }

    /// Clamps the client's spec to the server-side caps.
    fn clamp(&self, spec: &mut QuerySpec) {
        if let Some(max) = self.cfg.max_limit {
            spec.limit = Some(spec.limit.map_or(max, |l| l.min(max)));
        }
        if let Some(max) = self.cfg.max_time_budget {
            spec.time_budget = Some(spec.time_budget.map_or(max, |b| b.min(max)));
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

/// Runs one admitted query on its captured snapshot.
fn run_query(job: &Job) -> Response {
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
        let resp = run_query(&job);
        send(&job.out, &resp);
        lock(&shared.sched).finish(&job.req.tenant);
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
            send(out, &Response::Pong { id, snapshot: shared.snapshot_info() });
        }
        Request::Update { id, op, left, right } => {
            // Updates serialize on the dynamic-graph lock; the snapshot
            // swap happens inside it so publications are ordered.
            let mut dynamic = lock(&shared.dynamic);
            let applied = match op {
                UpdateOp::Insert => dynamic.insert_edge(left, right),
                UpdateOp::Delete => dynamic.delete_edge(left, right),
            };
            match applied {
                Ok(changed) => {
                    let snap = Arc::new(dynamic.snapshot());
                    let info = SnapshotInfo {
                        left: snap.num_left(),
                        right: snap.num_right(),
                        edges: snap.num_edges(),
                    };
                    *lock(&shared.current) = snap;
                    drop(dynamic);
                    send(out, &Response::Updated { id, changed, snapshot: info });
                }
                Err(e) => {
                    drop(dynamic);
                    send(out, &error_response(id, CODE_BAD_UPDATE, e.to_string()));
                }
            }
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
    // Close at the socket level: the shutdown registry holds another clone
    // of this stream, so merely dropping ours would leave the peer's
    // connection half-open until server shutdown.
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
            dynamic: Mutex::new(DynamicBipartiteGraph::from_graph(&graph)),
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
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            let conn_handles = Arc::clone(&conn_handles);
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
                    if let Ok(clone) = stream.try_clone() {
                        lock(&conns).push(clone);
                    }
                    let shared = Arc::clone(&shared);
                    let spawned = std::thread::Builder::new()
                        .name("mbpe-serve-conn".to_string())
                        .spawn(move || connection_loop(&shared, stream));
                    if let Ok(handle) = spawned {
                        lock(&conn_handles).push(handle);
                    }
                }
            })?
        };
        Ok(ServerHandle { addr, shared, accept: Some(accept), workers, conns, conn_handles })
    }
}

/// Owns a running server's threads; [`ServerHandle::shutdown`] stops them.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when `addr` asked for
    /// port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The currently published snapshot — what the next admitted query
    /// will run against. Tests use this to cross-check service responses
    /// against a direct facade run on the same graph.
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
        for stream in lock(&self.conns).drain(..) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.conn_handles).drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}
