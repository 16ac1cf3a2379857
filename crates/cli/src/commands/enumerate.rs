//! `mbpe enumerate` — enumerate maximal k-biplexes with a selectable
//! algorithm, size thresholds, first-N limits and time budgets. The
//! command builds a serializable [`kbiplex::QuerySpec`] (shared with
//! `mbpe query`) and runs it through the [`kbiplex::Enumerator`] facade;
//! only the `imb`/`inflation` baselines bypass the spec, having no facade
//! path.

use std::io::Write;

use baselines::{collect_imb, collect_inflation, ImbConfig, InflationConfig};
use bigraph::BipartiteGraph;
use kbiplex::{Biplex, CollectSink, Engine, EngineStats, Enumerator};

use crate::args::Args;
use crate::commands::{load_graph, spec};
use crate::CliError;

/// Help text for `mbpe help enumerate`.
pub const HELP: &str = "\
mbpe enumerate — enumerate maximal k-biplexes

USAGE:
    mbpe enumerate <FILE> [OPTIONS]
    mbpe enumerate --dataset <NAME> [OPTIONS]

OPTIONS:
    --spec <JSON>       The full query as a QuerySpec JSON document
                        (@path reads it from a file); replaces every other
                        query option and runs through the same facade
    --show-spec         Echo the query as its canonical JSON document
                        (feed it back via --spec, or to `mbpe query`)
    --k <K>             Miss budget k (default 1)
    --algo <A>          itraversal (default) | btraversal | large | imb |
                        inflation | parallel
    --limit <N>         Stop after delivering exactly N solutions (all
                        engines — the parallel workers cancel
                        cooperatively)
    --time-budget <S>   Stop once S seconds have passed (fractions
                        allowed; not for imb/inflation). The engines check
                        the deadline at every step, so a run ends within
                        one expansion even when no solution arrives
    --theta-left <N>    Only report MBPs with at least N left vertices
    --theta-right <N>   Only report MBPs with at least N right vertices
    --threads <T>       Worker threads for --algo parallel, the
                        work-stealing engine (0 = auto)
    --order <O>         Vertex relabeling pass: input (default) | degree |
                        degeneracy (itraversal, btraversal, large, parallel)
    --count-only        Print only the number of solutions
    --print             Print every reported solution (L= ... R= ...)
    --dataset/--scale/--full   Input selection, as for `mbpe stats`";

/// Options of `enumerate` beyond [`spec::SPEC_OPTIONS`].
const OPTIONS: &[&str] = &["show-spec", "count-only", "print", "dataset", "scale", "full"];
const FLAGS: &[&str] = &["show-spec", "count-only", "print", "full"];

/// Runs the command.
pub fn run(raw: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(raw, FLAGS)?;
    spec::reject_unknown(&args, OPTIONS)?;
    let (graph, label) = load_graph(&args)?;

    let algo = spec::algo_name(&args).to_string();
    // The baselines have no facade path, hence no spec: dispatch first.
    if args.value("spec").is_none() && matches!(algo.as_str(), "imb" | "inflation") {
        return run_baseline(&args, &graph, &label, &algo, out);
    }

    let query = spec::spec_from_args(&args)?;
    if args.flag("show-spec") {
        writeln!(out, "spec: {}", query.to_json_string())?;
    }
    let mut sink = CollectSink::new();
    let report = Enumerator::from_spec(&graph, &query)
        .run(&mut sink)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let solutions = sink.into_sorted();

    let algo_label = if args.value("spec").is_some() {
        // A spec document names the algorithm itself; echo its code.
        match query.engine {
            Engine::Sequential => query.algorithm.to_string(),
            _ => "parallel".to_string(),
        }
    } else {
        algo
    };
    writeln!(out, "graph: {label}  k = {}  algorithm = {algo_label}", query.k)?;
    if let EngineStats::Parallel(stats) = &report.stats {
        writeln!(
            out,
            "parallel: threads = {}  order = {}  steals = {}",
            stats.threads, query.order, stats.steals
        )?;
    }
    print_summary(&args, out, solutions.len(), &report.stop.to_string(), report.elapsed, &solutions)
}

/// The `imb`/`inflation` baselines: collect, post-filter, post-truncate.
fn run_baseline(
    args: &Args,
    graph: &BipartiteGraph,
    label: &str,
    algo: &str,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    spec::reject_misplaced_engine_knobs(args, algo)?;
    if args.value("order").is_some() {
        return Err(CliError::Usage(format!(
            "--order is not supported by --algo {algo} (use itraversal, btraversal, large or parallel)"
        )));
    }
    if args.value("time-budget").is_some() {
        return Err(CliError::Usage(format!(
            "--time-budget is not supported by --algo {algo} (baselines have no cancellation hook)"
        )));
    }
    let k: usize = args.parse_or("k", 1)?;
    let theta_left: usize = args.parse_or("theta-left", 0)?;
    let theta_right: usize = args.parse_or("theta-right", 0)?;
    let limit = spec::parse_limit(args)?;

    let start = std::time::Instant::now();
    let mut solutions: Vec<Biplex> = if algo == "imb" {
        let config = ImbConfig::new(k).with_thresholds(theta_left, theta_right);
        collect_imb(graph, &config)
    } else {
        collect_inflation(graph, &InflationConfig::new(k))
            .into_iter()
            .filter(|b| b.left.len() >= theta_left && b.right.len() >= theta_right)
            .collect()
    };
    let mut stop_label = "exhausted";
    if let Some(n) = limit {
        if (solutions.len() as u64) > n {
            solutions.truncate(n as usize);
            stop_label = "limit-reached";
        }
    }
    let elapsed = start.elapsed();
    writeln!(out, "graph: {label}  k = {k}  algorithm = {algo}")?;
    print_summary(args, out, solutions.len(), stop_label, elapsed, &solutions)
}

fn print_summary(
    args: &Args,
    out: &mut dyn Write,
    count: usize,
    stop: &str,
    elapsed: std::time::Duration,
    solutions: &[Biplex],
) -> Result<(), CliError> {
    writeln!(out, "solutions: {count}")?;
    writeln!(out, "stop: {stop}")?;
    writeln!(out, "elapsed: {:.3} s", elapsed.as_secs_f64())?;
    if args.flag("print") && !args.flag("count-only") {
        for b in solutions {
            writeln!(out, "L={:?} R={:?}", b.left, b.right)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    fn capture(tokens: &[&str]) -> Result<String, CliError> {
        let mut sink = Vec::new();
        run(&raw(tokens), &mut sink)?;
        Ok(String::from_utf8(sink).unwrap())
    }

    fn parse(text: &str) -> u64 {
        text.lines().find_map(|l| l.strip_prefix("solutions: ")).unwrap().trim().parse().unwrap()
    }

    #[test]
    fn enumerates_a_dataset_standin() {
        let text = capture(&["--dataset", "Divorce", "--k", "1", "--count-only"]).unwrap();
        assert!(text.contains("solutions:"));
        assert!(text.contains("stop: exhausted"));
    }

    #[test]
    fn thresholds_reduce_the_count() {
        let all = capture(&["--dataset", "Divorce", "--k", "1"]).unwrap();
        let large = capture(&[
            "--dataset",
            "Divorce",
            "--k",
            "1",
            "--theta-left",
            "3",
            "--theta-right",
            "3",
        ])
        .unwrap();
        assert!(parse(&large) <= parse(&all));
        // --algo large (core reduction + in-search pruning) agrees.
        let pipeline = capture(&[
            "--dataset",
            "Divorce",
            "--k",
            "1",
            "--algo",
            "large",
            "--theta-left",
            "3",
            "--theta-right",
            "3",
        ])
        .unwrap();
        assert_eq!(parse(&pipeline), parse(&large));
    }

    #[test]
    fn limit_works_on_every_engine_and_echoes_the_stop_reason() {
        let text =
            capture(&["--dataset", "Divorce", "--k", "1", "--limit", "2", "--print"]).unwrap();
        assert_eq!(text.lines().filter(|l| l.starts_with("L=")).count(), 2);
        assert!(text.contains("stop: limit-reached"), "{text}");
        // `--first` is not an alias of `--limit`: it is an unknown option.
        let err = capture(&["--dataset", "Divorce", "--k", "1", "--first", "2"]).unwrap_err();
        assert!(err.to_string().contains("unknown option --first"), "{err}");
        // The work-steal engine cancels cooperatively: exactly 2 delivered.
        let text = capture(&[
            "--dataset",
            "Divorce",
            "--k",
            "1",
            "--algo",
            "parallel",
            "--threads",
            "2",
            "--limit",
            "2",
            "--print",
        ])
        .unwrap();
        assert_eq!(text.lines().filter(|l| l.starts_with("L=")).count(), 2);
        assert!(text.contains("stop: limit-reached"), "{text}");
    }

    #[test]
    fn time_budget_is_validated_and_echoed() {
        // A zero budget stops before the first solution.
        let text = capture(&["--dataset", "Divorce", "--k", "1", "--time-budget", "0"]).unwrap();
        assert_eq!(parse(&text), 0);
        assert!(text.contains("stop: time-budget"), "{text}");
        // A generous budget never fires.
        let text = capture(&["--dataset", "Divorce", "--k", "1", "--time-budget", "3600"]).unwrap();
        assert!(text.contains("stop: exhausted"), "{text}");
        // Fractional budgets are accepted, not rejected or truncated to
        // zero seconds (the run may or may not finish inside half a second
        // on a loaded machine — either stop reason is fine).
        let text = capture(&["--dataset", "Divorce", "--k", "1", "--time-budget", "0.5"]).unwrap();
        assert!(text.contains("stop: exhausted") || text.contains("stop: time-budget"), "{text}");
        assert!(capture(&["--dataset", "Divorce", "--time-budget", "never"]).is_err());
        assert!(capture(&["--dataset", "Divorce", "--time-budget", "-1"]).is_err());
        // Finite but unrepresentable as a Duration: usage error, not a panic.
        assert!(capture(&["--dataset", "Divorce", "--time-budget", "1e20"]).is_err());
        assert!(
            capture(&["--dataset", "Divorce", "--algo", "imb", "--time-budget", "1"]).is_err(),
            "baselines have no cancellation hook"
        );
    }

    #[test]
    fn bad_algorithm_is_rejected() {
        assert!(capture(&["--dataset", "Divorce", "--algo", "quantum"]).is_err());
    }

    #[test]
    fn kernel_override_is_an_ab_switch() {
        // The intersection kernel is not a query knob (a forced kernel
        // never changes the result): `--kernel` is an unknown option on
        // every algorithm.
        for algo in ["itraversal", "parallel", "imb"] {
            let argv = ["--dataset", "Divorce", "--algo", algo, "--kernel", "merge"];
            let err = capture(&argv).unwrap_err();
            assert!(err.to_string().contains("unknown option --kernel"), "--algo {algo}: {err}");
        }
    }

    #[test]
    fn spec_document_is_a_full_query_surface() {
        // --show-spec echoes the canonical document; replaying it through
        // --spec reproduces the run exactly.
        let text =
            capture(&["--dataset", "Divorce", "--k", "1", "--theta-left", "2", "--show-spec"])
                .unwrap();
        let doc =
            text.lines().find_map(|l| l.strip_prefix("spec: ")).expect("spec echoed").to_string();
        assert!(doc.contains("\"theta_left\":2"), "{doc}");
        let replay = capture(&["--dataset", "Divorce", "--spec", &doc]).unwrap();
        assert_eq!(parse(&replay), parse(&text));
        assert!(replay.contains("algorithm = itraversal"), "{replay}");

        // The default query is the empty document.
        let text = capture(&["--dataset", "Divorce", "--show-spec", "--count-only"]).unwrap();
        assert!(text.contains("spec: {}"), "{text}");

        // A spec document and individual options are mutually exclusive;
        // malformed or unknown-key documents are usage errors.
        assert!(capture(&["--dataset", "Divorce", "--spec", "{}", "--k", "2"]).is_err());
        assert!(capture(&["--dataset", "Divorce", "--spec", "{"]).is_err());
        assert!(capture(&["--dataset", "Divorce", "--spec", r#"{"warp":9}"#]).is_err());
        // Specs that parse but fail facade validation surface its message.
        let err = capture(&["--dataset", "Divorce", "--spec", r#"{"threads":4}"#]).unwrap_err();
        assert!(err.to_string().contains("invalid configuration"), "{err}");
    }

    #[test]
    fn spec_file_is_read_through_the_at_prefix() {
        let dir = std::env::temp_dir().join("mbpe_cli_spec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("query.json");
        std::fs::write(&path, "{\"limit\": 1}\n").unwrap();
        let arg = format!("@{}", path.display());
        let text = capture(&["--dataset", "Divorce", "--spec", &arg]).unwrap();
        assert_eq!(parse(&text), 1);
        assert!(text.contains("stop: limit-reached"), "{text}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn order_and_engine_flags() {
        let baseline = capture(&["--dataset", "Divorce", "--k", "1"]).unwrap();
        for order in ["degree", "degeneracy"] {
            let text = capture(&["--dataset", "Divorce", "--k", "1", "--order", order]).unwrap();
            assert_eq!(parse(&text), parse(&baseline), "order {order}");
        }
        let text = capture(&[
            "--dataset",
            "Divorce",
            "--k",
            "1",
            "--algo",
            "parallel",
            "--threads",
            "2",
            "--order",
            "degeneracy",
        ])
        .unwrap();
        assert_eq!(parse(&text), parse(&baseline));
        assert!(text.contains("parallel: threads = 2  order = degeneracy"), "{text}");
        assert!(capture(&["--dataset", "Divorce", "--order", "fancy"]).is_err());
        assert!(capture(&["--dataset", "Divorce", "--algo", "imb", "--order", "degree"]).is_err());
        // `--algo parallel` is the work-stealing engine; the scheduler
        // selector is gone, so `--engine` is an unknown option everywhere.
        for engine in ["steal", "global"] {
            let parallel = &["--dataset", "Divorce", "--algo", "parallel", "--engine", engine];
            assert!(capture(parallel).is_err(), "--engine {engine}");
            assert!(capture(&["--dataset", "Divorce", "--engine", engine]).is_err());
        }
    }

    #[test]
    fn seen_and_steal_knobs() {
        // The seen-set geometry and the steal granularity are no longer
        // settable: the work-stealer sizes its seen-set from the graph and
        // always steals adaptively. The retired flags are usage errors on
        // every algorithm, and the run header no longer echoes them.
        for algo in ["parallel", "itraversal", "imb"] {
            for (flag, value) in [("--seen-segments", "2"), ("--steal-adaptive", "off")] {
                let argv = &["--dataset", "Divorce", "--algo", algo, flag, value];
                assert!(capture(argv).is_err(), "--algo {algo} {flag}");
            }
        }
        let text =
            capture(&["--dataset", "Divorce", "--algo", "parallel", "--threads", "2"]).unwrap();
        assert!(text.contains("steals = "), "{text}");
        assert!(!text.contains("seen-segments") && !text.contains("steal-adaptive"), "{text}");
    }
}
