//! `mbpe query` — send a [`kbiplex::QuerySpec`] to a running `mbpe serve`
//! daemon. The query surface is exactly the one `mbpe enumerate` uses
//! locally, so the same flags (or the same `--spec` document) work in both
//! places.

use std::io::Write;

use mbpe_serve::Client;

use crate::args::Args;
use crate::commands::spec;
use crate::CliError;

/// Help text for `mbpe help query`.
pub const HELP: &str = "\
mbpe query — query a running enumeration daemon

USAGE:
    mbpe query --addr <HOST:PORT> [QUERY OPTIONS]
    mbpe query --addr <HOST:PORT> --ping
    mbpe query --addr <HOST:PORT> --insert <L:R> | --delete <L:R>

MODES:
    --ping              Health check; prints the served snapshot's shape
    --insert <L:R>      Insert edge (left:right); repeatable
    --delete <L:R>      Delete edge (left:right); repeatable
    (default)           Run an enumeration query

OPTIONS:
    --addr <HOST:PORT>  The daemon to talk to (default 127.0.0.1:7661)
    --tenant <NAME>     Tenant name for fair-share scheduling (default cli)
    --algo <A>          itraversal (default) | btraversal | large | parallel
    --count-only        Ask only for the count, not the solution payload
    --print             Print every reported solution (L= ... R= ...)
    --show-spec         Echo the query as its canonical JSON document

The query-shaping options below are listed by `mbpe help enumerate` and
mean the same thing here (the server runs the identical QuerySpec):
    --spec --k --algo --limit --time-budget --theta-left --theta-right
    --threads --order";

/// Options of `query` beyond [`spec::SPEC_OPTIONS`].
const OPTIONS: &[&str] =
    &["addr", "tenant", "insert", "delete", "ping", "count-only", "print", "show-spec"];
const FLAGS: &[&str] = &["ping", "count-only", "print", "show-spec"];

fn parse_edge(raw: &str) -> Result<(u32, u32), CliError> {
    let bad = || CliError::Usage(format!("expected an edge as <left>:<right>, got {raw:?}"));
    let (l, r) = raw.split_once(':').or_else(|| raw.split_once(',')).ok_or_else(bad)?;
    Ok((l.trim().parse().map_err(|_| bad())?, r.trim().parse().map_err(|_| bad())?))
}

/// Runs the command.
pub fn run(raw: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(raw, FLAGS)?;
    spec::reject_unknown(&args, OPTIONS)?;
    let addr = args.value("addr").unwrap_or("127.0.0.1:7661");
    let tenant = args.value("tenant").unwrap_or("cli");
    let mut client = Client::connect(addr, tenant)?;

    if args.flag("ping") {
        let info = client.ping()?;
        writeln!(out, "snapshot: |L| = {}  |R| = {}  |E| = {}", info.left, info.right, info.edges)?;
        return Ok(());
    }

    if !args.values("insert").is_empty() || !args.values("delete").is_empty() {
        for raw in args.values("insert") {
            let (l, r) = parse_edge(raw)?;
            let o = client.insert_edge(l, r)?;
            writeln!(out, "insert {l}:{r}  changed = {}  |E| = {}", o.changed, o.snapshot.edges)?;
        }
        for raw in args.values("delete") {
            let (l, r) = parse_edge(raw)?;
            let o = client.delete_edge(l, r)?;
            writeln!(out, "delete {l}:{r}  changed = {}  |E| = {}", o.changed, o.snapshot.edges)?;
        }
        return Ok(());
    }

    let query = spec::spec_from_args(&args)?;
    if args.flag("show-spec") {
        writeln!(out, "spec: {}", query.to_json_string())?;
    }
    writeln!(out, "server: {addr}  tenant: {tenant}")?;
    if args.flag("count-only") {
        let report = client.count(&query)?;
        writeln!(out, "solutions: {}", report.solutions)?;
        writeln!(out, "stop: {}", report.stop)?;
        writeln!(out, "elapsed: {:.3} s", report.elapsed.as_secs_f64())?;
    } else {
        let outcome = client.query(&query)?;
        writeln!(out, "solutions: {}", outcome.report.solutions)?;
        writeln!(out, "stop: {}", outcome.report.stop)?;
        writeln!(out, "elapsed: {:.3} s", outcome.report.elapsed.as_secs_f64())?;
        if args.flag("print") {
            for b in outcome.solutions.as_deref().unwrap_or(&[]) {
                writeln!(out, "L={:?} R={:?}", b.left, b.right)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::serve;

    fn parse(tokens: &[&str]) -> Args {
        let raw: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw, serve_flags()).unwrap()
    }

    fn serve_flags() -> &'static [&'static str] {
        &["full"]
    }

    fn capture(tokens: &[&str]) -> Result<String, CliError> {
        let raw: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        let mut sink = Vec::new();
        run(&raw, &mut sink)?;
        Ok(String::from_utf8(sink).unwrap())
    }

    fn with_server(test: impl FnOnce(&str)) {
        let (handle, _) =
            serve::start_from_args(&parse(&["--dataset", "Divorce", "--addr", "127.0.0.1:0"]))
                .unwrap();
        let addr = handle.addr().to_string();
        test(&addr);
        handle.shutdown();
    }

    #[test]
    fn query_matches_local_enumerate() {
        with_server(|addr| {
            let raw: Vec<String> =
                ["--dataset", "Divorce", "--k", "1"].iter().map(|s| s.to_string()).collect();
            let mut sink = Vec::new();
            crate::commands::enumerate::run(&raw, &mut sink).unwrap();
            let local = String::from_utf8(sink).unwrap();
            let remote = capture(&["--addr", addr, "--k", "1"]).unwrap();
            let count = |text: &str| -> u64 {
                text.lines()
                    .find_map(|l| l.strip_prefix("solutions: "))
                    .unwrap()
                    .trim()
                    .parse()
                    .unwrap()
            };
            assert_eq!(count(&remote), count(&local));
            assert!(remote.contains("stop: exhausted"), "{remote}");
        });
    }

    #[test]
    fn ping_updates_and_spec_echo() {
        with_server(|addr| {
            let text = capture(&["--addr", addr, "--ping"]).unwrap();
            assert!(text.contains("|E| ="), "{text}");

            let text = capture(&["--addr", addr, "--insert", "0:1"]).unwrap();
            assert!(text.starts_with("insert 0:1"), "{text}");
            let text = capture(&["--addr", addr, "--delete", "0:1"]).unwrap();
            assert!(text.starts_with("delete 0:1"), "{text}");

            let text =
                capture(&["--addr", addr, "--theta-left", "2", "--count-only", "--show-spec"])
                    .unwrap();
            let json = text
                .lines()
                .find_map(|l| l.strip_prefix("spec: "))
                .expect("spec echoed")
                .to_string();
            // The echoed document replays as the same query.
            let replay = capture(&["--addr", addr, "--spec", &json, "--count-only"]).unwrap();
            let count = |text: &str| -> String {
                text.lines().find_map(|l| l.strip_prefix("solutions: ")).unwrap().to_string()
            };
            assert_eq!(count(&replay), count(&text));

            assert!(capture(&["--addr", addr, "--insert", "zero:1"]).is_err());
        });
    }

    #[test]
    fn server_side_rejections_are_reported() {
        with_server(|addr| {
            // threads on the sequential engine: rejected by the facade's
            // validation, surfaced with its stable code.
            let err = capture(&["--addr", addr, "--spec", r#"{"threads":4}"#]).unwrap_err();
            let text = err.to_string();
            assert!(text.contains("invalid-config"), "{text}");
        });
    }

    #[test]
    fn connecting_to_a_dead_server_fails_cleanly() {
        // Port 1 is never listening.
        assert!(capture(&["--addr", "127.0.0.1:1", "--ping"]).is_err());
    }
}
