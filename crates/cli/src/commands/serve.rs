//! `mbpe serve` — run the always-on enumeration daemon over a graph, so
//! repeated queries (see `mbpe query`) pay the load cost once.

use std::io::Write;

use mbpe_serve::{ServeConfig, Server, ServerHandle};

use crate::args::Args;
use crate::commands::{load_graph, spec};
use crate::CliError;

/// Help text for `mbpe help serve`.
pub const HELP: &str = "\
mbpe serve — run the enumeration daemon

USAGE:
    mbpe serve <FILE> [OPTIONS]
    mbpe serve --dataset <NAME> [OPTIONS]

The daemon loads the graph once and answers `mbpe query` requests until
killed. Edge updates sent by clients edit the graph copy-on-write;
running queries keep the graph they started on.

OPTIONS:
    --addr <HOST:PORT>      Bind address (default 127.0.0.1:7661; port 0
                            picks a free port)
    --workers <N>           Query worker threads (default 0 = auto)
    --max-pending <N>       Admission bound on queued queries; above it new
                            queries fast-fail with `overloaded` (default 64)
    --max-limit <N>         Server-side cap on any query's solution limit
    --max-time-budget <S>   Server-side cap on any query's time budget,
                            seconds (fractions allowed)
    --port-file <PATH>      Write the bound address to PATH once listening
                            (lets scripts wait for startup with port 0)
    --dataset/--scale/--full   Input selection, as for `mbpe stats`";

const OPTIONS: &[&str] = &[
    "addr",
    "workers",
    "max-pending",
    "max-limit",
    "max-time-budget",
    "port-file",
    "dataset",
    "scale",
    "full",
];
const FLAGS: &[&str] = &["full"];

/// Builds and starts the server from parsed arguments; split from [`run`]
/// so tests can drive a live daemon without blocking forever.
pub(crate) fn start_from_args(args: &Args) -> Result<(ServerHandle, String), CliError> {
    let (graph, label) = load_graph(args)?;
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: args.value("addr").unwrap_or("127.0.0.1:7661").to_string(),
        workers: args.parse_or("workers", defaults.workers)?,
        max_pending: args.parse_or("max-pending", defaults.max_pending)?,
        max_limit: match args.value("max-limit") {
            None => None,
            Some(v) => {
                Some(v.parse().map_err(|_| CliError::Usage(format!("bad --max-limit {v:?}")))?)
            }
        },
        max_time_budget: spec::parse_seconds(args, "max-time-budget")?,
        max_frame: defaults.max_frame,
    };
    let handle = Server::start(cfg, graph)?;
    Ok((handle, label))
}

/// Runs the command; does not return until the process is killed.
pub fn run(raw: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(raw, FLAGS)?;
    args.reject_unknown(OPTIONS)?;
    let (handle, label) = start_from_args(&args)?;
    let addr = handle.addr();
    writeln!(out, "serving {label} on {addr}")?;
    out.flush()?;
    if let Some(path) = args.value("port-file") {
        std::fs::write(path, format!("{addr}\n"))?;
    }
    // The accept and worker threads own all the work from here; this
    // thread just keeps the process alive.
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        let raw: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw, FLAGS).unwrap()
    }

    #[test]
    fn starts_and_answers_a_ping() {
        let (handle, label) =
            start_from_args(&args(&["--dataset", "Divorce", "--addr", "127.0.0.1:0"])).unwrap();
        assert_eq!(label, "Divorce");
        let mut client = mbpe_serve::Client::connect(handle.addr(), "test").unwrap();
        let info = client.ping().unwrap();
        assert!(info.edges > 0);
        handle.shutdown();
    }

    #[test]
    fn bad_options_are_usage_errors() {
        assert!(start_from_args(&args(&["--dataset", "Divorce", "--max-limit", "many"])).is_err());
        assert!(
            start_from_args(&args(&["--dataset", "Divorce", "--max-time-budget", "-1"])).is_err()
        );
    }
}
