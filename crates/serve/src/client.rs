//! Blocking client for the enumeration service.
//!
//! One [`Client`] wraps one connection and issues one request at a time
//! (send, then read until the response with the matching id arrives —
//! which, for a non-pipelining client, is the next frame). Concurrency
//! comes from opening more clients, not from sharing one.

use std::net::{TcpStream, ToSocketAddrs};

use kbiplex::json::Json;
use kbiplex::{Biplex, QuerySpec, RunReport};

use crate::frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
use crate::proto::{QueryRequest, Request, Response, SnapshotInfo, UpdateOp};

/// Failure of a client call.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, send, receive, or mid-frame EOF).
    Io(std::io::Error),
    /// The server's bytes did not decode as a protocol response.
    Protocol(String),
    /// The server answered with a typed error response.
    Server {
        /// Stable error code (`overloaded`, `bad-request`, `unsupported`, …).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Io(io),
            FrameError::TooLarge { len, max } => {
                ClientError::Protocol(format!("response frame of {len} bytes exceeds {max}"))
            }
        }
    }
}

impl ClientError {
    /// The server-side error code, when this is a typed server rejection.
    pub fn server_code(&self) -> Option<&str> {
        match self {
            ClientError::Server { code, .. } => Some(code),
            _ => None,
        }
    }
}

/// A completed query: the run report plus the solutions if requested.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The facade's run report (stop reason, counters, elapsed).
    pub report: RunReport,
    /// Canonically sorted solutions; `None` for report-only queries.
    pub solutions: Option<Vec<Biplex>>,
}

/// The result of an edge update.
#[derive(Clone, Copy, Debug)]
pub struct UpdateOutcome {
    /// `true` if the edge set changed.
    pub changed: bool,
    /// Shape of the snapshot published after the update.
    pub snapshot: SnapshotInfo,
}

/// A blocking connection to an enumeration daemon.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    tenant: String,
    next_id: u64,
    max_frame: usize,
}

impl Client {
    /// Connects to a daemon, identifying as `tenant` for scheduling.
    pub fn connect<A: ToSocketAddrs>(addr: A, tenant: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, tenant: tenant.to_string(), next_id: 1, max_frame: DEFAULT_MAX_FRAME })
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, ClientError> {
        let id = match req {
            Request::Query(q) => q.id,
            Request::Update { id, .. } | Request::Ping { id } => *id,
        };
        write_frame(&mut self.stream, req.to_json().encode().as_bytes())?;
        loop {
            let Some(payload) = read_frame(&mut self.stream, self.max_frame)? else {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection before responding",
                )));
            };
            let text = std::str::from_utf8(&payload)
                .map_err(|e| ClientError::Protocol(format!("response is not UTF-8: {e}")))?;
            let doc = Json::parse(text).map_err(|e| ClientError::Protocol(e.0))?;
            let resp = Response::from_json(&doc).map_err(|e| ClientError::Protocol(e.0))?;
            // `id` 0 marks failures raised before the server could parse a
            // request id (bad frame, bad JSON): ours by elimination, since
            // this client never pipelines.
            if resp.id() == id || resp.id() == 0 {
                return Ok(resp);
            }
        }
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn run(
        &mut self,
        spec: &QuerySpec,
        include_solutions: bool,
    ) -> Result<QueryOutcome, ClientError> {
        let req = Request::Query(QueryRequest {
            id: self.next_id(),
            tenant: self.tenant.clone(),
            spec: spec.clone(),
            include_solutions,
        });
        match self.round_trip(&req)? {
            Response::Result { report, solutions, .. } => Ok(QueryOutcome { report, solutions }),
            Response::Error { code, message, .. } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Runs a query and returns the report plus the solutions.
    pub fn query(&mut self, spec: &QuerySpec) -> Result<QueryOutcome, ClientError> {
        self.run(spec, true)
    }

    /// Runs a query and returns the report only (no solution payload).
    pub fn count(&mut self, spec: &QuerySpec) -> Result<RunReport, ClientError> {
        Ok(self.run(spec, false)?.report)
    }

    fn update(
        &mut self,
        op: UpdateOp,
        left: u32,
        right: u32,
    ) -> Result<UpdateOutcome, ClientError> {
        let req = Request::Update { id: self.next_id(), op, left, right };
        match self.round_trip(&req)? {
            Response::Updated { changed, snapshot, .. } => Ok(UpdateOutcome { changed, snapshot }),
            Response::Error { code, message, .. } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Inserts an edge into the served graph.
    pub fn insert_edge(&mut self, left: u32, right: u32) -> Result<UpdateOutcome, ClientError> {
        self.update(UpdateOp::Insert, left, right)
    }

    /// Deletes an edge from the served graph.
    pub fn delete_edge(&mut self, left: u32, right: u32) -> Result<UpdateOutcome, ClientError> {
        self.update(UpdateOp::Delete, left, right)
    }

    /// Health check; returns the current snapshot shape.
    pub fn ping(&mut self) -> Result<SnapshotInfo, ClientError> {
        let req = Request::Ping { id: self.next_id() };
        match self.round_trip(&req)? {
            Response::Pong { snapshot, .. } => Ok(snapshot),
            Response::Error { code, message, .. } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!("unexpected response {other:?}"))),
        }
    }
}
