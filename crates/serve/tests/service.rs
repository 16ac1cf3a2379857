//! End-to-end tests of the enumeration daemon: concurrent tenants
//! cross-checked against the in-process facade, server-side budget and
//! thread clamping, typed overload rejection, protocol-framing failure
//! modes and copy-on-write edits under edge updates.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bigraph::BipartiteGraph;
use kbiplex::{Engine, EngineStats, Enumerator, QuerySpec, StopReason};
use mbpe_serve::{
    read_frame, write_frame, Client, ClientError, ServeConfig, Server, DEFAULT_MAX_FRAME,
};

/// Deterministic pseudo-random bipartite graph (splitmix-style LCG).
fn random_graph(nl: u32, nr: u32, keep_percent: u64, seed: u64) -> BipartiteGraph {
    let mut state = seed;
    let mut edges = Vec::new();
    for l in 0..nl {
        for r in 0..nr {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if (state >> 33) % 100 < keep_percent {
                edges.push((l, r));
            }
        }
    }
    BipartiteGraph::from_edges(nl, nr, &edges).expect("valid edges")
}

fn start(cfg: ServeConfig, g: &BipartiteGraph) -> mbpe_serve::ServerHandle {
    Server::start(cfg, g.clone()).expect("server starts")
}

#[test]
fn concurrent_tenants_match_direct_facade() {
    let g = random_graph(10, 10, 50, 7);
    let handle = start(ServeConfig::default(), &g);
    let addr = handle.addr();
    let snapshot = handle.snapshot();

    let threads: Vec<_> = (0..8)
        .map(|t| {
            let snapshot = std::sync::Arc::clone(&snapshot);
            std::thread::spawn(move || {
                let tenant = format!("tenant-{t}");
                let mut client = Client::connect(addr, &tenant).expect("connect");
                for round in 0..3 {
                    let mut spec = QuerySpec {
                        k: 1 + (t + round) % 2,
                        theta_left: 1 + t % 2,
                        theta_right: 1 + round % 2,
                        ..QuerySpec::default()
                    };
                    if t % 3 == 0 {
                        spec.engine = Engine::WorkSteal;
                        spec.threads = 2;
                    }
                    let expected = Enumerator::from_spec(&snapshot, &spec)
                        .collect()
                        .expect("direct facade run");
                    let outcome = client.query(&spec).expect("service query");
                    assert_eq!(outcome.report.stop, StopReason::Exhausted);
                    assert_eq!(outcome.report.solutions, expected.len() as u64);
                    assert_eq!(outcome.solutions.as_deref(), Some(expected.as_slice()));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("tenant thread");
    }
    handle.shutdown();
}

#[test]
fn server_clamps_time_budget_and_reports_it() {
    // A dense graph the enumerator cannot exhaust in 50ms; the client asks
    // for no budget at all, and the server's cap must still stop the run.
    let g = random_graph(40, 40, 70, 11);
    let cfg =
        ServeConfig { max_time_budget: Some(Duration::from_millis(50)), ..ServeConfig::default() };
    let handle = start(cfg, &g);
    let mut client = Client::connect(handle.addr(), "budget").expect("connect");
    let start_at = std::time::Instant::now();
    let report = client.count(&QuerySpec::default()).expect("query");
    assert_eq!(report.stop, StopReason::TimeBudget);
    // Cancellation rides the facade's per-expansion deadline gate, so the
    // wall time stays within the same order of magnitude as the budget.
    assert!(
        start_at.elapsed() < Duration::from_secs(5),
        "budget-capped query took {:?}",
        start_at.elapsed()
    );
    handle.shutdown();
}

#[test]
fn server_clamps_solution_limit() {
    let g = random_graph(12, 12, 60, 3);
    let cfg = ServeConfig { max_limit: Some(2), ..ServeConfig::default() };
    let handle = start(cfg, &g);
    let mut client = Client::connect(handle.addr(), "capped").expect("connect");
    // The client asks for more than the server allows.
    let spec = QuerySpec { limit: Some(1_000_000), ..QuerySpec::default() };
    let outcome = client.query(&spec).expect("query");
    assert_eq!(outcome.report.stop, StopReason::LimitReached);
    assert_eq!(outcome.report.solutions, 2);
    assert_eq!(outcome.solutions.map(|s| s.len()), Some(2));
    handle.shutdown();
}

#[test]
fn overload_is_a_typed_fast_fail() {
    let g = random_graph(40, 40, 70, 23);
    let cfg = ServeConfig {
        workers: 1,
        max_pending: 1,
        max_time_budget: Some(Duration::from_secs(2)),
        ..ServeConfig::default()
    };
    let handle = start(cfg, &g);
    let addr = handle.addr();

    // A: a slow query that occupies the single worker (~2s via the cap).
    let slow = std::thread::spawn(move || {
        let mut client = Client::connect(addr, "slow").expect("connect");
        client.count(&QuerySpec::default()).expect("slow query completes")
    });
    std::thread::sleep(Duration::from_millis(400));

    // B: fills the single pending slot; it will run after A finishes.
    let queued = std::thread::spawn(move || {
        let mut client = Client::connect(addr, "queued").expect("connect");
        let spec = QuerySpec { limit: Some(1), ..QuerySpec::default() };
        client.count(&spec).expect("queued query completes")
    });
    std::thread::sleep(Duration::from_millis(200));

    // C: the queue is full, so admission rejects with the typed code
    // immediately — not after waiting for a worker.
    let mut client = Client::connect(addr, "rejected").expect("connect");
    let start_at = std::time::Instant::now();
    let err = client.count(&QuerySpec::default()).expect_err("over admission bound");
    assert_eq!(err.server_code(), Some("overloaded"), "got {err}");
    assert!(start_at.elapsed() < Duration::from_secs(1), "reject was not fast");

    let slow_report = slow.join().expect("slow thread");
    assert_eq!(slow_report.stop, StopReason::TimeBudget);
    let queued_report = queued.join().expect("queued thread");
    assert_eq!(queued_report.stop, StopReason::LimitReached);
    handle.shutdown();
}

#[test]
fn invalid_spec_is_rejected_with_the_facade_error_code() {
    let g = random_graph(6, 6, 60, 5);
    let handle = start(ServeConfig::default(), &g);
    let mut client = Client::connect(handle.addr(), "bad-spec").expect("connect");
    // Thread counts are a parallel-engine knob; on the sequential engine
    // the facade rejects them, and the service must surface that code.
    let spec = QuerySpec { threads: 4, ..QuerySpec::default() };
    let err = client.query(&spec).expect_err("invalid spec");
    assert_eq!(err.server_code(), Some("invalid-config"), "got {err}");
    // The connection survives a rejected spec.
    client.ping().expect("ping after rejection");
    handle.shutdown();
}

#[test]
fn updates_swap_the_snapshot_and_queries_see_it() {
    let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1)]).expect("graph");
    let handle = start(ServeConfig::default(), &g);
    let mut client = Client::connect(handle.addr(), "updater").expect("connect");

    let before = client.query(&QuerySpec::default()).expect("query before update");

    let update = client.insert_edge(2, 2).expect("insert");
    assert!(update.changed);
    assert_eq!(update.snapshot.edges, 5);
    // Re-inserting is a no-op but still a valid request.
    assert!(!client.insert_edge(2, 2).expect("reinsert").changed);

    let after = client.query(&QuerySpec::default()).expect("query after update");
    assert_ne!(before.solutions, after.solutions, "snapshot did not change results");

    // The handle's published snapshot is what the service queried.
    let expected = Enumerator::from_spec(&handle.snapshot(), &QuerySpec::default())
        .collect()
        .expect("direct facade run");
    assert_eq!(after.solutions.as_deref(), Some(expected.as_slice()));

    let removed = client.delete_edge(2, 2).expect("delete");
    assert!(removed.changed);
    assert_eq!(removed.snapshot.edges, 4);
    let restored = client.query(&QuerySpec::default()).expect("query after delete");
    assert_eq!(restored.solutions, before.solutions);

    // Out-of-range endpoints are a typed error, not a dead connection.
    let err = client.insert_edge(99, 0).expect_err("bad endpoint");
    assert_eq!(err.server_code(), Some("bad-update"), "got {err}");
    client.ping().expect("ping after bad update");
    handle.shutdown();
}

/// An update edits the graph copy-on-write: a graph held from before keeps
/// its edge set, while the next query runs on the edited one.
#[test]
fn a_held_snapshot_keeps_its_edges_across_updates() {
    let g = random_graph(8, 8, 40, 13);
    let handle = start(ServeConfig::default(), &g);
    let mut client = Client::connect(handle.addr(), "holder").expect("connect");
    let held = handle.snapshot();
    let edges: Vec<(u32, u32)> = held.edges().collect();

    let (v, u) = (0..8)
        .flat_map(|v| (0..8).map(move |u| (v, u)))
        .find(|&(v, u)| !g.has_edge(v, u))
        .expect("an absent pair");
    assert!(client.insert_edge(v, u).expect("insert").changed);
    assert!(client.delete_edge(edges[0].0, edges[0].1).expect("delete").changed);

    assert_eq!(held.edges().collect::<Vec<_>>(), edges, "the held graph changed");
    let now = handle.snapshot();
    assert!(now.has_edge(v, u) && !now.has_edge(edges[0].0, edges[0].1));
    assert_eq!(now.num_edges(), held.num_edges());
    let served = client.query(&QuerySpec::default()).expect("query after updates");
    let expected =
        Enumerator::from_spec(&now, &QuerySpec::default()).collect().expect("direct run");
    assert_eq!(served.solutions.as_deref(), Some(expected.as_slice()));
    handle.shutdown();
}

/// A redundant insert and a rejected update write nothing, so the served
/// graph is the same allocation before and after.
#[test]
fn noop_and_rejected_updates_publish_nothing() {
    let g = random_graph(6, 6, 50, 17);
    let (v, u) = g.edges().next().expect("an edge");
    let handle = start(ServeConfig::default(), &g);
    let mut client = Client::connect(handle.addr(), "noop").expect("connect");
    let before = handle.snapshot();
    assert!(!client.insert_edge(v, u).expect("redundant insert").changed);
    let err = client.delete_edge(6, 0).expect_err("out of range");
    assert_eq!(err.server_code(), Some("bad-update"), "got {err}");
    assert!(std::sync::Arc::ptr_eq(&before, &handle.snapshot()));
    handle.shutdown();
}

/// A wire query cannot ask for more threads than the machine has.
#[test]
fn thread_count_is_capped_at_available_parallelism() {
    let g = random_graph(10, 10, 50, 7);
    let handle = start(ServeConfig::default(), &g);
    let mut client = Client::connect(handle.addr(), "greedy").expect("connect");
    let spec = QuerySpec { engine: Engine::WorkSteal, threads: 64, ..QuerySpec::default() };
    let report = client.count(&spec).expect("query");
    let EngineStats::Parallel(stats) = &report.stats else {
        panic!("expected parallel stats, got {:?}", report.stats);
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(stats.threads <= cpus, "{} threads on {cpus} CPUs", stats.threads);
    assert!(stats.threads >= 1);
    handle.shutdown();
}

#[test]
fn truncated_frame_kills_the_connection_but_not_the_server() {
    let g = random_graph(4, 4, 60, 2);
    let handle = start(ServeConfig::default(), &g);

    {
        let mut raw = TcpStream::connect(handle.addr()).expect("connect");
        // Advertise 100 bytes, send 3, hang up mid-frame.
        raw.write_all(&100u32.to_be_bytes()).expect("prefix");
        raw.write_all(b"abc").expect("partial payload");
    }

    // The server is still alive and serving.
    let mut client = Client::connect(handle.addr(), "survivor").expect("connect");
    client.ping().expect("ping after truncated peer");
    handle.shutdown();
}

#[test]
fn oversized_frame_gets_a_typed_error_then_close() {
    let g = random_graph(4, 4, 60, 2);
    let handle = start(ServeConfig::default(), &g);

    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    let huge = (DEFAULT_MAX_FRAME as u32) + 1;
    raw.write_all(&huge.to_be_bytes()).expect("oversized prefix");
    raw.flush().expect("flush");

    let payload = read_frame(&mut raw, DEFAULT_MAX_FRAME)
        .expect("typed error frame")
        .expect("server answered before closing");
    let text = std::str::from_utf8(&payload).expect("utf-8");
    assert!(text.contains("frame-too-large"), "unexpected response: {text}");
    // The stream cannot be resynchronised, so the server closes it.
    assert!(read_frame(&mut raw, DEFAULT_MAX_FRAME).expect("clean close").is_none());

    let mut client = Client::connect(handle.addr(), "survivor").expect("connect");
    client.ping().expect("ping after oversized peer");
    handle.shutdown();
}

/// The framing boundary, pinned as a positive/negative pair: a frame of
/// *exactly* the maximum advertised length must be accepted (an `>=` in
/// place of `>` in the limit check would reject it), while one byte more
/// is the typed [`FrameError::TooLarge`].
#[test]
fn frame_of_exactly_max_length_is_accepted() {
    use mbpe_serve::FrameError;

    let max = 64usize;
    let exact = vec![0x5au8; max];
    let mut wire = Vec::new();
    write_frame(&mut wire, &exact).expect("write exact-max frame");
    let back = read_frame(&mut &wire[..], max)
        .expect("exactly max bytes is within the limit")
        .expect("one frame");
    assert_eq!(back, exact);

    let over = vec![0x5au8; max + 1];
    let mut wire = Vec::new();
    write_frame(&mut wire, &over).expect("write over-max frame");
    match read_frame(&mut &wire[..], max) {
        Err(FrameError::TooLarge { len, max: m }) => {
            assert_eq!((len, m), (max + 1, max));
        }
        other => panic!("max+1 bytes must be TooLarge, got {other:?}"),
    }
}

#[test]
fn garbage_payload_is_rejected_but_the_connection_survives() {
    let g = random_graph(4, 4, 60, 2);
    let handle = start(ServeConfig::default(), &g);

    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    write_frame(&mut raw, b"this is not json").expect("send garbage");
    let payload =
        read_frame(&mut raw, DEFAULT_MAX_FRAME).expect("error frame").expect("server answered");
    let text = std::str::from_utf8(&payload).expect("utf-8");
    assert!(text.contains("bad-request"), "unexpected response: {text}");

    // Same connection, now a well-formed request: it must still work.
    write_frame(&mut raw, br#"{"type":"ping","id":9}"#).expect("send ping");
    let payload =
        read_frame(&mut raw, DEFAULT_MAX_FRAME).expect("pong frame").expect("server answered");
    let text = std::str::from_utf8(&payload).expect("utf-8");
    assert!(text.contains("pong"), "unexpected response: {text}");
    handle.shutdown();
}

#[test]
fn retired_engine_codes_and_scheduler_keys_get_bad_request() {
    let g = random_graph(4, 4, 60, 2);
    let handle = start(ServeConfig::default(), &g);
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    for spec in [
        r#"{"engine":"global"}"#,
        r#"{"seen_segments":2}"#,
        r#"{"steal_adaptive":false}"#,
        r#"{"kernel":"merge"}"#,
        r#"{"stream_buffer":8}"#,
        r#"{"enum_kind":"l1r2"}"#,
        r#"{"core_reduction":false}"#,
        r#"{"anchor":"arbitrary"}"#,
        r#"{"algorithm":"brute-force"}"#,
        r#"{"algorithm":"oracle"}"#,
        r#"{"algorithm":"asym"}"#,
    ] {
        let request = format!(r#"{{"type":"query","id":3,"tenant":"t","spec":{spec}}}"#);
        write_frame(&mut raw, request.as_bytes()).expect("send query");
        let payload =
            read_frame(&mut raw, DEFAULT_MAX_FRAME).expect("error frame").expect("server answered");
        let text = std::str::from_utf8(&payload).expect("utf-8");
        assert!(text.contains("bad-request"), "{spec}: unexpected response: {text}");
    }
    handle.shutdown();
}

/// Every frame leaves in one write and both ends disable Nagle, so neither
/// a lone round trip nor a pipelined pair waits for the peer's delayed ACK
/// (about 40 ms per exchange when a frame is split or a reply is held).
#[test]
fn round_trips_do_not_wait_for_delayed_acks() {
    let g = random_graph(4, 4, 60, 2);
    let handle = start(ServeConfig::default(), &g);

    let mut client = Client::connect(handle.addr(), "latency").expect("connect");
    let started = Instant::now();
    for _ in 0..60 {
        client.ping().expect("ping");
    }
    let lone = started.elapsed();

    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    let started = Instant::now();
    for pair in 0..60u64 {
        for id in [2 * pair + 1, 2 * pair + 2] {
            let ping = format!(r#"{{"type":"ping","id":{id}}}"#);
            write_frame(&mut raw, ping.as_bytes()).expect("send ping");
        }
        for _ in 0..2 {
            let payload =
                read_frame(&mut raw, DEFAULT_MAX_FRAME).expect("pong").expect("server answered");
            assert!(std::str::from_utf8(&payload).expect("utf-8").contains("pong"));
        }
    }
    let pipelined = started.elapsed();
    handle.shutdown();

    assert!(lone < Duration::from_secs(1), "60 lone round trips took {lone:?}");
    assert!(pipelined < Duration::from_secs(1), "60 pipelined pairs took {pipelined:?}");
}

#[test]
fn shutdown_rejects_new_queries() {
    let g = random_graph(4, 4, 60, 2);
    let handle = start(ServeConfig::default(), &g);
    let addr = handle.addr();
    let mut client = Client::connect(addr, "late").expect("connect");
    client.ping().expect("ping while up");
    handle.shutdown();
    // After shutdown the connection is closed server-side; a query fails
    // with a transport error rather than hanging.
    let err = client.count(&QuerySpec::default()).expect_err("server is down");
    assert!(matches!(err, ClientError::Io(_) | ClientError::Server { .. }), "got {err}");
}
