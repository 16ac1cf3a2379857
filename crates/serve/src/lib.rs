//! # mbpe-serve — the always-on enumeration service
//!
//! A daemon that holds a bipartite graph in memory and answers maximal
//! k-biplex enumeration queries over TCP, so repeated queries against the
//! same graph pay the load/index cost once instead of per-process.
//!
//! The wire protocol is deliberately minimal: length-prefixed frames
//! ([`frame`]) carrying JSON documents ([`proto`]), with the query payload
//! being exactly the [`kbiplex::QuerySpec`] the in-process `Enumerator`
//! facade is built from. The daemon ([`server`]) adds what a shared
//! service needs on top of the facade: one graph edited copy-on-write on
//! update, admission control with typed overload rejections, fair-share
//! scheduling across tenants, and server-side clamping of per-query
//! limits, time budgets and thread counts. [`client`] is the matching
//! blocking client.
//!
//! ```no_run
//! use bigraph::BipartiteGraph;
//! use kbiplex::QuerySpec;
//! use mbpe_serve::{Client, ServeConfig, Server};
//!
//! let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 1)]).unwrap();
//! let handle = Server::start(ServeConfig::default(), g).unwrap();
//! let mut client = Client::connect(handle.addr(), "docs").unwrap();
//! let outcome = client.query(&QuerySpec::default()).unwrap();
//! println!("{} solutions", outcome.report.solutions);
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError, QueryOutcome, UpdateOutcome};
pub use frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
pub use proto::{QueryRequest, Request, Response, SnapshotInfo, UpdateOp};
pub use server::{ServeConfig, Server, ServerHandle};
