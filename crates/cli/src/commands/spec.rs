//! Shared translation from command-line flags to a [`QuerySpec`] — the
//! serializable query surface the CLI, the service client and the
//! in-process facade all speak. `mbpe enumerate` and `mbpe query` parse
//! the same options through [`spec_from_args`], so a query tuned locally
//! can be replayed against a daemon (or vice versa) unchanged, and
//! `--spec` accepts the JSON document directly.

use std::time::Duration;

use kbiplex::{Algorithm, Engine, QuerySpec, VertexOrder};

use crate::args::Args;
use crate::CliError;

/// Query-shaping options understood by [`spec_from_args`] (shared between
/// `enumerate` and `query`).
pub const SPEC_OPTIONS: &[&str] =
    &["spec", "k", "algo", "limit", "time-budget", "theta-left", "theta-right", "threads", "order"];

/// Rejects every option that is neither in [`SPEC_OPTIONS`] nor among the
/// command's `own` options.
pub fn reject_unknown(args: &Args, own: &[&str]) -> Result<(), CliError> {
    let allowed: Vec<&str> = SPEC_OPTIONS.iter().chain(own).copied().collect();
    args.reject_unknown(&allowed)
}

/// The `--algo` value with the historical default.
pub fn algo_name(args: &Args) -> &str {
    args.value("algo").unwrap_or("itraversal")
}

/// Parses an option holding a number of seconds (fractions allowed) into a
/// [`Duration`].
pub fn parse_seconds(args: &Args, name: &str) -> Result<Option<Duration>, CliError> {
    match args.value(name) {
        None => Ok(None),
        Some(v) => {
            let secs: f64 =
                v.parse().map_err(|_| CliError::Usage(format!("bad --{name} {v:?} (seconds)")))?;
            // try_from_secs_f64 rejects NaN, negatives and values too large
            // for a Duration, which from_secs_f64 would panic on.
            let budget = Duration::try_from_secs_f64(secs).map_err(|_| {
                CliError::Usage(format!(
                    "--{name} expects a representable non-negative number of seconds, got {v:?}"
                ))
            })?;
            Ok(Some(budget))
        }
    }
}

/// Parses `--limit`.
pub fn parse_limit(args: &Args) -> Result<Option<u64>, CliError> {
    match args.value("limit") {
        None => Ok(None),
        Some(v) => Ok(Some(v.parse().map_err(|_| CliError::Usage(format!("bad --limit {v:?}")))?)),
    }
}

/// Rejects the parallel-only knob (`--threads`) when `algo` is not
/// `parallel`. Shared with the baseline paths of `enumerate`, which never
/// build a spec.
pub fn reject_misplaced_engine_knobs(args: &Args, algo: &str) -> Result<(), CliError> {
    if args.value("threads").is_some() && algo != "parallel" {
        return Err(CliError::Usage(format!(
            "--threads only applies to --algo parallel (got --algo {algo})"
        )));
    }
    Ok(())
}

/// Builds the query from the command line: either the `--spec` JSON
/// document verbatim, or the individual flags.
pub fn spec_from_args(args: &Args) -> Result<QuerySpec, CliError> {
    if let Some(raw) = args.value("spec") {
        for opt in SPEC_OPTIONS.iter().filter(|o| **o != "spec") {
            if args.value(opt).is_some() {
                return Err(CliError::Usage(format!(
                    "--spec is the whole query; drop --{opt} or fold it into the document"
                )));
            }
        }
        let text = match raw.strip_prefix('@') {
            Some(path) => std::fs::read_to_string(path)?,
            None => raw.to_string(),
        };
        return QuerySpec::from_json_str(text.trim())
            .map_err(|e| CliError::Usage(format!("bad --spec document: {}", e.0)));
    }

    let algo = algo_name(args);
    reject_misplaced_engine_knobs(args, algo)?;
    let mut spec = QuerySpec {
        k: args.parse_or("k", 1)?,
        theta_left: args.parse_or("theta-left", 0)?,
        theta_right: args.parse_or("theta-right", 0)?,
        limit: parse_limit(args)?,
        time_budget: parse_seconds(args, "time-budget")?,
        ..QuerySpec::default()
    };
    if let Some(raw) = args.value("order") {
        spec.order = raw.parse::<VertexOrder>().map_err(CliError::Usage)?;
    }
    match algo {
        "itraversal" => spec.algorithm = Algorithm::ITraversal,
        "btraversal" => spec.algorithm = Algorithm::BTraversal,
        "large" => spec.algorithm = Algorithm::Large,
        "parallel" => {
            spec.algorithm = Algorithm::ITraversal;
            spec.engine = Engine::WorkSteal;
            spec.threads = args.parse_or("threads", 0)?;
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown --algo {other:?} (expected itraversal, btraversal, large or parallel; \
                 imb and inflation are local-only baselines of `mbpe enumerate`)"
            )))
        }
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str], flags: &[&str]) -> Args {
        let raw: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw, flags).unwrap()
    }

    #[test]
    fn flags_build_the_same_spec_as_the_json_document() {
        let from_flags = spec_from_args(&args(
            &["--k", "2", "--theta-left", "3", "--limit", "10", "--order", "degree"],
            &[],
        ))
        .unwrap();
        let json = from_flags.to_json_string();
        let from_doc = spec_from_args(&args(&["--spec", &json], &[])).unwrap();
        assert_eq!(from_flags, from_doc);
    }

    #[test]
    fn spec_excludes_individual_options() {
        let e = spec_from_args(&args(&["--spec", "{}", "--k", "2"], &[]));
        assert!(matches!(e, Err(CliError::Usage(_))));
    }

    #[test]
    fn parallel_algo_maps_to_the_engines() {
        let spec = spec_from_args(&args(&["--algo", "parallel", "--threads", "2"], &[])).unwrap();
        assert_eq!(spec.engine, Engine::WorkSteal);
        assert_eq!(spec.threads, 2);
        let spec = spec_from_args(&args(&["--algo", "itraversal"], &[])).unwrap();
        assert_eq!(spec.engine, Engine::Sequential);
    }

    #[test]
    fn misplaced_knobs_are_usage_errors() {
        assert!(spec_from_args(&args(&["--threads", "2"], &[])).is_err());
        assert!(spec_from_args(&args(&["--algo", "large", "--threads", "2"], &[])).is_err());
        assert!(spec_from_args(&args(&["--algo", "parallel", "--threads", "2"], &[])).is_ok());
    }

    #[test]
    fn bad_spec_document_is_a_usage_error() {
        assert!(spec_from_args(&args(&["--spec", "{"], &[])).is_err());
        assert!(spec_from_args(&args(&["--spec", r#"{"warp":9}"#], &[])).is_err());
        // Retired engine codes and spec keys are rejected, not ignored.
        for doc in [
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
            assert!(spec_from_args(&args(&["--spec", doc], &[])).is_err(), "{doc}");
        }
    }
}
