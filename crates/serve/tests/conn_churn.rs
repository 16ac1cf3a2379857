//! Connection churn must not grow the daemon's open file descriptors. This
//! test has its own file, so no other test opens descriptors in the same
//! process while it counts them.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use bigraph::BipartiteGraph;
use mbpe_serve::{Client, ServeConfig, Server};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

#[test]
fn connection_churn_does_not_leak_file_descriptors() {
    let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 1)]).expect("graph");
    let handle = Server::start(ServeConfig::default(), g).expect("server starts");
    let baseline = open_fds();
    for _ in 0..300 {
        let mut client = Client::connect(handle.addr(), "churn").expect("connect");
        client.ping().expect("ping");
    }
    // The last connection threads close their sockets asynchronously, and
    // the accept loop reaps a finished connection only at the next accept,
    // so the few still running at the last accept keep their stream clone.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut after = open_fds();
    while after > baseline + 8 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        after = open_fds();
    }
    handle.shutdown();
    assert!(after <= baseline + 8, "300 connections took the fds from {baseline} to {after}");
}
