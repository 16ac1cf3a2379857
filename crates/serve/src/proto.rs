//! The request/response vocabulary of the enumeration service.
//!
//! One JSON document per frame, tagged by a `"type"` key. Requests carry a
//! client-chosen `id` that the matching response echoes, so a client may
//! pipeline requests on one connection and pair the answers back up
//! (responses to *queries* complete in scheduler order, not send order).
//!
//! The query payload is exactly [`QuerySpec`] — the same serializable
//! object the `Enumerator` facade is built from — so "what the daemon
//! runs" and "what a local run executes" cannot drift apart.

use kbiplex::json::{obj, s, u, Json, JsonError};
use kbiplex::{Biplex, QuerySpec, RunReport};

/// Error code: the admission controller refused the query because the
/// pending queue is full. Back off and retry.
pub const CODE_OVERLOADED: &str = "overloaded";
/// Error code: the payload was not a well-formed request document.
pub const CODE_BAD_REQUEST: &str = "bad-request";
/// Error code: the frame length prefix exceeded the server's limit; the
/// connection is closed after this response.
pub const CODE_FRAME_TOO_LARGE: &str = "frame-too-large";
/// Error code: the server is shutting down and no longer admits queries.
pub const CODE_SHUTTING_DOWN: &str = "shutting-down";
/// Error code: an edge update referenced a vertex outside the graph.
pub const CODE_BAD_UPDATE: &str = "bad-update";
/// Error code: the query panicked inside the server. The daemon and the
/// connection keep serving.
pub const CODE_INTERNAL: &str = "internal";

/// An edge mutation applied to the server's graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert the edge (no-op if present).
    Insert,
    /// Delete the edge (no-op if absent).
    Delete,
}

impl std::fmt::Display for UpdateOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            UpdateOp::Insert => "insert",
            UpdateOp::Delete => "delete",
        })
    }
}

impl std::str::FromStr for UpdateOp {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, String> {
        match text {
            "insert" => Ok(UpdateOp::Insert),
            "delete" => Ok(UpdateOp::Delete),
            other => Err(format!("unknown update op {other:?} (insert|delete)")),
        }
    }
}

/// An enumeration query: who is asking, what to run, and whether the
/// solutions themselves should come back (a count/report otherwise).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Tenant name for fair-share scheduling and accounting.
    pub tenant: String,
    /// The query itself — the facade's serializable configuration.
    pub spec: QuerySpec,
    /// `true` to return the solutions, `false` for the report only.
    pub include_solutions: bool,
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Run an enumeration on the current snapshot.
    Query(QueryRequest),
    /// Insert or delete one edge of the served graph.
    Update {
        /// Correlation id, echoed in the response.
        id: u64,
        /// Insert or delete.
        op: UpdateOp,
        /// Left endpoint.
        left: u32,
        /// Right endpoint.
        right: u32,
    },
    /// Health check; the response reports the current snapshot shape.
    Ping {
        /// Correlation id, echoed in the response.
        id: u64,
    },
}

/// Shape of the currently published snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Left vertices.
    pub left: u32,
    /// Right vertices.
    pub right: u32,
    /// Edges.
    pub edges: u64,
}

/// A server response, echoing the request `id`.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A completed query.
    Result {
        /// Correlation id of the query.
        id: u64,
        /// The facade's run report (stop reason, counters, elapsed).
        report: RunReport,
        /// The solutions, canonically sorted — present iff the query asked
        /// for them.
        solutions: Option<Vec<Biplex>>,
    },
    /// A completed update.
    Updated {
        /// Correlation id of the update.
        id: u64,
        /// `true` if the edge set changed (insert of a new edge, delete of
        /// an existing one).
        changed: bool,
        /// Shape of the snapshot published after the update.
        snapshot: SnapshotInfo,
    },
    /// Health-check reply.
    Pong {
        /// Correlation id of the ping.
        id: u64,
        /// Shape of the current snapshot.
        snapshot: SnapshotInfo,
    },
    /// The request failed; `code` is stable, `message` is for humans.
    Error {
        /// Correlation id of the failed request (0 when the failure
        /// happened before a request id could be parsed).
        id: u64,
        /// One of the `CODE_*` constants or a `kbiplex::ApiError` code.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

fn get_u64(doc: &Json, key: &str) -> Result<u64, JsonError> {
    doc.get(key).ok_or_else(|| JsonError(format!("{key} missing")))?.as_u64(key)
}

fn get_u32(doc: &Json, key: &str) -> Result<u32, JsonError> {
    let v = get_u64(doc, key)?;
    u32::try_from(v).map_err(|_| JsonError(format!("{key}: {v} out of u32 range")))
}

fn get_str<'j>(doc: &'j Json, key: &str) -> Result<&'j str, JsonError> {
    doc.get(key).ok_or_else(|| JsonError(format!("{key} missing")))?.as_str(key)
}

impl Request {
    /// Encodes the request as its wire JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Query(q) => obj(vec![
                ("type", s("query")),
                ("id", u(q.id)),
                ("tenant", s(q.tenant.clone())),
                ("spec", q.spec.to_json()),
                ("solutions", Json::Bool(q.include_solutions)),
            ]),
            Request::Update { id, op, left, right } => obj(vec![
                ("type", s("update")),
                ("id", u(*id)),
                ("op", s(op.to_string())),
                ("left", u(u64::from(*left))),
                ("right", u(u64::from(*right))),
            ]),
            Request::Ping { id } => obj(vec![("type", s("ping")), ("id", u(*id))]),
        }
    }

    /// Decodes a request from its wire JSON document.
    pub fn from_json(doc: &Json) -> Result<Request, JsonError> {
        match get_str(doc, "type")? {
            "query" => Ok(Request::Query(QueryRequest {
                id: get_u64(doc, "id")?,
                tenant: get_str(doc, "tenant")?.to_string(),
                spec: QuerySpec::from_json(
                    doc.get("spec").ok_or_else(|| JsonError("spec missing".into()))?,
                )?,
                include_solutions: match doc.get("solutions") {
                    Some(v) => v.as_bool("solutions")?,
                    None => false,
                },
            })),
            "update" => Ok(Request::Update {
                id: get_u64(doc, "id")?,
                op: get_str(doc, "op")?.parse().map_err(JsonError)?,
                left: get_u32(doc, "left")?,
                right: get_u32(doc, "right")?,
            }),
            "ping" => Ok(Request::Ping { id: get_u64(doc, "id")? }),
            other => Err(JsonError(format!("unknown request type {other:?}"))),
        }
    }
}

impl SnapshotInfo {
    fn to_json(self) -> Json {
        obj(vec![
            ("left", u(u64::from(self.left))),
            ("right", u(u64::from(self.right))),
            ("edges", u(self.edges)),
        ])
    }

    fn from_json(doc: &Json) -> Result<SnapshotInfo, JsonError> {
        Ok(SnapshotInfo {
            left: get_u32(doc, "left")?,
            right: get_u32(doc, "right")?,
            edges: get_u64(doc, "edges")?,
        })
    }
}

impl Response {
    /// Encodes the response as its wire JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Result { id, report, solutions } => {
                let mut pairs =
                    vec![("type", s("result")), ("id", u(*id)), ("report", report.to_json())];
                if let Some(sols) = solutions {
                    pairs
                        .push(("solutions", Json::Arr(sols.iter().map(Biplex::to_json).collect())));
                }
                obj(pairs)
            }
            Response::Updated { id, changed, snapshot } => obj(vec![
                ("type", s("updated")),
                ("id", u(*id)),
                ("changed", Json::Bool(*changed)),
                ("snapshot", snapshot.to_json()),
            ]),
            Response::Pong { id, snapshot } => {
                obj(vec![("type", s("pong")), ("id", u(*id)), ("snapshot", snapshot.to_json())])
            }
            Response::Error { id, code, message } => obj(vec![
                ("type", s("error")),
                ("id", u(*id)),
                ("code", s(code.clone())),
                ("message", s(message.clone())),
            ]),
        }
    }

    /// Decodes a response from its wire JSON document.
    pub fn from_json(doc: &Json) -> Result<Response, JsonError> {
        match get_str(doc, "type")? {
            "result" => Ok(Response::Result {
                id: get_u64(doc, "id")?,
                report: RunReport::from_json(
                    doc.get("report").ok_or_else(|| JsonError("report missing".into()))?,
                )?,
                solutions: match doc.get("solutions") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_arr("solutions")?.iter().map(Biplex::from_json).collect::<Result<
                            Vec<Biplex>,
                            JsonError,
                        >>(
                        )?,
                    ),
                },
            }),
            "updated" => Ok(Response::Updated {
                id: get_u64(doc, "id")?,
                changed: doc
                    .get("changed")
                    .ok_or_else(|| JsonError("changed missing".into()))?
                    .as_bool("changed")?,
                snapshot: SnapshotInfo::from_json(
                    doc.get("snapshot").ok_or_else(|| JsonError("snapshot missing".into()))?,
                )?,
            }),
            "pong" => Ok(Response::Pong {
                id: get_u64(doc, "id")?,
                snapshot: SnapshotInfo::from_json(
                    doc.get("snapshot").ok_or_else(|| JsonError("snapshot missing".into()))?,
                )?,
            }),
            "error" => Ok(Response::Error {
                id: get_u64(doc, "id")?,
                code: get_str(doc, "code")?.to_string(),
                message: get_str(doc, "message")?.to_string(),
            }),
            other => Err(JsonError(format!("unknown response type {other:?}"))),
        }
    }

    /// The response's correlation id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Result { id, .. }
            | Response::Updated { id, .. }
            | Response::Pong { id, .. }
            | Response::Error { id, .. } => *id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbiplex::json::Json;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Query(QueryRequest {
                id: 7,
                tenant: "alice".to_string(),
                spec: QuerySpec { k: 2, limit: Some(10), ..QuerySpec::default() },
                include_solutions: true,
            }),
            Request::Update { id: 8, op: UpdateOp::Insert, left: 3, right: 4 },
            Request::Update { id: 9, op: UpdateOp::Delete, left: 0, right: 0 },
            Request::Ping { id: 10 },
        ];
        for req in reqs {
            let text = req.to_json().encode();
            let back = Request::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let snapshot = SnapshotInfo { left: 4, right: 5, edges: 9 };
        let resps = [
            Response::Updated { id: 1, changed: true, snapshot },
            Response::Pong { id: 2, snapshot },
            Response::Error {
                id: 3,
                code: CODE_OVERLOADED.to_string(),
                message: "42 queries pending".to_string(),
            },
        ];
        for resp in resps {
            let text = resp.to_json().encode();
            let back = Response::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn result_with_solutions_round_trips() {
        let g =
            bigraph::BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]).expect("graph");
        let mut sink = kbiplex::CollectSink::new();
        let report = kbiplex::Enumerator::new(&g).k(1).run(&mut sink).expect("valid configuration");
        let resp = Response::Result { id: 11, report, solutions: Some(sink.into_sorted()) };
        let text = resp.to_json().encode();
        let back = Response::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back.id(), 11);
        let Response::Result { report: r2, solutions: Some(sols), .. } = back else {
            panic!("expected a result response");
        };
        let Response::Result { report: r1, solutions: Some(sols1), .. } = resp else {
            unreachable!();
        };
        assert_eq!(r2.solutions, r1.solutions);
        assert_eq!(r2.stop, r1.stop);
        assert_eq!(sols, sols1);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for text in [
            "{}",
            "{\"type\":\"query\",\"id\":1}",
            "{\"type\":\"update\",\"id\":1,\"op\":\"upsert\",\"left\":0,\"right\":0}",
            "{\"type\":\"warp\",\"id\":1}",
            "{\"type\":\"query\",\"id\":1,\"tenant\":\"t\",\"spec\":{\"kk\":2}}",
        ] {
            let doc = Json::parse(text).expect("well-formed JSON");
            assert!(Request::from_json(&doc).is_err(), "{text}");
        }
    }
}
