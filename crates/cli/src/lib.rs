//! Library backing the `mbpe` command-line tool.
//!
//! The binary is a thin wrapper around [`run`], which parses a subcommand
//! and dispatches to one of the [`commands`]. Keeping everything in the
//! library means the full CLI surface is exercised by ordinary unit tests
//! (every command writes to a `Write` sink instead of directly to stdout).
//!
//! ```text
//! mbpe generate --dataset Writer --out writer.txt
//! mbpe stats writer.txt
//! mbpe enumerate writer.txt --k 1 --limit 1000
//! mbpe enumerate --dataset Opsahl --k 2 --algo btraversal --count-only
//! mbpe fraud --preset tiny --theta-r 5
//! ```

#![forbid(unsafe_code)]

pub mod args;
pub mod commands;

use std::io::Write;

/// Errors surfaced to the user by the CLI.
#[derive(Debug)]
pub enum CliError {
    /// The command line itself was malformed (unknown command, bad option).
    Usage(String),
    /// A graph file could not be read or written.
    Graph(bigraph::Error),
    /// Plain I/O failure while writing output.
    Io(std::io::Error),
    /// A round-trip to an `mbpe serve` daemon failed (`mbpe query`).
    Service(mbpe_serve::ClientError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}\n\n{USAGE}"),
            CliError::Graph(e) => write!(f, "graph error: {e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Service(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<bigraph::Error> for CliError {
    fn from(e: bigraph::Error) -> Self {
        CliError::Graph(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<mbpe_serve::ClientError> for CliError {
    fn from(e: mbpe_serve::ClientError) -> Self {
        CliError::Service(e)
    }
}

/// Top-level usage text (printed by `mbpe help` and on usage errors).
pub const USAGE: &str = "\
mbpe — maximal k-biplex enumeration (SIGMOD 2022 reproduction)

USAGE:
    mbpe <COMMAND> [OPTIONS]

COMMANDS:
    generate    Generate a synthetic bipartite graph and write it to a file
    stats       Print summary statistics of a graph
    enumerate   Enumerate maximal k-biplexes of a graph
    update      Maintain maximal k-biplexes under an edge-update script
    serve       Run the always-on enumeration daemon over a graph
    query       Query a running daemon (same options as enumerate)
    fraud       Run the camouflage-attack fraud-detection case study
    help        Show this message

Run `mbpe help <COMMAND>` for command-specific options.";

/// Entry point shared by the binary and the tests: `raw` is everything after
/// the program name, `out` receives the normal output.
pub fn run(raw: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let Some(command) = raw.first() else {
        writeln!(out, "{USAGE}")?;
        return Ok(());
    };
    let rest = &raw[1..];
    match command.as_str() {
        "generate" => commands::generate::run(rest, out),
        "stats" => commands::stats::run(rest, out),
        "enumerate" => commands::enumerate::run(rest, out),
        "update" => commands::update::run(rest, out),
        "serve" => commands::serve::run(rest, out),
        "query" => commands::query::run(rest, out),
        "fraud" => commands::fraud::run(rest, out),
        "help" | "--help" | "-h" => {
            match rest.first().map(String::as_str) {
                Some("generate") => writeln!(out, "{}", commands::generate::HELP)?,
                Some("stats") => writeln!(out, "{}", commands::stats::HELP)?,
                Some("enumerate") => writeln!(out, "{}", commands::enumerate::HELP)?,
                Some("update") => writeln!(out, "{}", commands::update::HELP)?,
                Some("serve") => writeln!(out, "{}", commands::serve::HELP)?,
                Some("query") => writeln!(out, "{}", commands::query::HELP)?,
                Some("fraud") => writeln!(out, "{}", commands::fraud::HELP)?,
                _ => writeln!(out, "{USAGE}")?,
            }
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_capture(tokens: &[&str]) -> Result<String, CliError> {
        let raw: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&raw, &mut out)?;
        Ok(String::from_utf8(out).expect("cli output is utf-8"))
    }

    #[test]
    fn no_arguments_prints_usage() {
        let text = run_capture(&[]).unwrap();
        assert!(text.contains("USAGE"));
    }

    #[test]
    fn help_subcommands() {
        for cmd in ["generate", "stats", "enumerate", "update", "serve", "query", "fraud"] {
            let text = run_capture(&["help", cmd]).unwrap();
            assert!(text.contains(cmd), "help for {cmd} mentions it");
        }
        assert!(run_capture(&["--help"]).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn unknown_command_is_a_usage_error() {
        assert!(matches!(run_capture(&["explode"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn end_to_end_generate_stats_enumerate() {
        let dir = std::env::temp_dir().join("mbpe_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.txt");
        let path_str = path.to_str().unwrap();

        let text = run_capture(&[
            "generate", "--er", "--left", "12", "--right", "12", "--edges", "50", "--seed", "7",
            "--out", path_str,
        ])
        .unwrap();
        assert!(text.contains("12"), "generate reports the sizes: {text}");

        let text = run_capture(&["stats", path_str]).unwrap();
        assert!(text.contains("|E|"), "stats prints an edge count: {text}");

        let text = run_capture(&["enumerate", path_str, "--k", "1", "--count-only"]).unwrap();
        assert!(text.contains("solutions"), "enumerate reports a count: {text}");

        let text =
            run_capture(&["enumerate", path_str, "--k", "1", "--limit", "3", "--print"]).unwrap();
        assert!(text.lines().filter(|l| l.starts_with("L=")).count() <= 3);

        std::fs::remove_file(path).ok();
    }

    #[test]
    fn enumerate_algorithms_agree_on_count() {
        let dir = std::env::temp_dir().join("mbpe_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("agree.txt");
        let path_str = path.to_str().unwrap();
        run_capture(&[
            "generate", "--er", "--left", "8", "--right", "8", "--edges", "28", "--seed", "3",
            "--out", path_str,
        ])
        .unwrap();

        let count_of = |algo: &str| -> u64 {
            let text =
                run_capture(&["enumerate", path_str, "--k", "1", "--algo", algo, "--count-only"])
                    .unwrap();
            text.lines()
                .find_map(|l| l.strip_prefix("solutions: "))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or_else(|| panic!("no count in output of {algo}: {text}"))
        };
        let reference = count_of("itraversal");
        for algo in ["btraversal", "imb", "inflation", "parallel"] {
            assert_eq!(count_of(algo), reference, "algorithm {algo}");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn fraud_tiny_preset_runs() {
        let text = run_capture(&["fraud", "--preset", "tiny", "--theta-r", "4"]).unwrap();
        assert!(text.contains("1-biplex"), "fraud output lists detectors: {text}");
        assert!(text.contains("precision"), "fraud output has a metrics header: {text}");
    }
}
