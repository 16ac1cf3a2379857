//! `mbpe update` — replay an edge-update script against the incremental
//! maintenance layer ([`kbiplex::dynamic::DynamicEnumerator`]), reporting
//! the per-update solution diffs and the localized/fallback statistics.

use std::io::Write;

use kbiplex::{DynamicConfig, DynamicEnumerator, Engine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::args::Args;
use crate::commands::load_graph;
use crate::CliError;

/// Help text for `mbpe help update`.
pub const HELP: &str = "\
mbpe update — maintain maximal k-biplexes under edge updates

USAGE:
    mbpe update <FILE> --script <SCRIPT> [OPTIONS]
    mbpe update --dataset <NAME> --random <N> [OPTIONS]

Seeds the maintained solution set with a full enumeration, then applies the
edge updates one by one, printing each update's added/removed diff counts.
When both size thresholds exceed 2k, each update is confined to a core-
bounded region around the touched endpoints; otherwise the maintainer falls
back to a full re-enumeration per update.

SCRIPT FORMAT (one update per line, `#` comments):
    + <v> <u>       insert the edge (left v, right u)
    - <v> <u>       delete the edge (left v, right u)

OPTIONS:
    --script <FILE>     Update script to replay
    --random <N>        Instead of --script: N random toggle updates
                        (insert if absent, delete if present)
    --seed <S>          Seed for --random (default 1)
    --k <K>             Miss budget k (default 1)
    --theta-left <N>    Minimum left size of maintained solutions (default 0)
    --theta-right <N>   Minimum right size of maintained solutions (default 0)
    --engine <E>        Re-enumeration engine: seq (default) | steal
    --threads <T>       Worker threads for parallel engines (0 = auto)
    --print-diffs       Print every added/removed solution
    --verify            After every update, re-enumerate from scratch and
                        assert the maintained set matches (slow; for audits)
    --dataset/--scale/--full   Input selection, as for `mbpe stats`";

const OPTIONS: &[&str] = &[
    "script",
    "random",
    "seed",
    "k",
    "theta-left",
    "theta-right",
    "engine",
    "threads",
    "print-diffs",
    "verify",
    "dataset",
    "scale",
    "full",
];
const FLAGS: &[&str] = &["print-diffs", "verify", "full"];

/// One parsed update: insert? plus the edge endpoints.
type Update = (bool, u32, u32);

/// Parses a script file: `+ v u` / `- v u` lines, blank lines and `#`
/// comments ignored.
fn parse_script(text: &str) -> Result<Vec<Update>, CliError> {
    let mut updates = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let bad = || {
            CliError::Usage(format!(
                "script line {}: expected `+ v u` or `- v u`, got {line:?}",
                idx + 1
            ))
        };
        let op = parts.next().ok_or_else(bad)?;
        let insert = match op {
            "+" => true,
            "-" => false,
            _ => return Err(bad()),
        };
        let v: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let u: u32 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if parts.next().is_some() {
            return Err(bad());
        }
        updates.push((insert, v, u));
    }
    Ok(updates)
}

/// Runs the command.
pub fn run(raw: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(raw, FLAGS)?;
    args.reject_unknown(OPTIONS)?;
    let (graph, label) = load_graph(&args)?;

    let k: usize = args.parse_or("k", 1)?;
    let theta_left: usize = args.parse_or("theta-left", 0)?;
    let theta_right: usize = args.parse_or("theta-right", 0)?;
    let threads: usize = args.parse_or("threads", 0)?;
    let engine = match args.value("engine") {
        None | Some("seq") | Some("sequential") => Engine::Sequential,
        Some("steal") => Engine::WorkSteal,
        Some(other) => {
            return Err(CliError::Usage(format!("--engine expects seq or steal, got {other:?}")))
        }
    };

    let updates: Vec<Update> = match (args.value("script"), args.value("random")) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage("give either --script or --random, not both".to_string()))
        }
        (Some(path), None) => parse_script(&std::fs::read_to_string(path)?)?,
        (None, Some(n)) => {
            let n: usize =
                n.parse().map_err(|_| CliError::Usage(format!("bad --random value {n:?}")))?;
            let seed: u64 = args.parse_or("seed", 1)?;
            let mut rng = StdRng::seed_from_u64(seed);
            // Toggle updates planned against a running edge view, so that a
            // planned delete always targets an existing edge.
            let mut view = bigraph::DynamicBipartiteGraph::from_graph(&graph);
            let mut script = Vec::with_capacity(n);
            for _ in 0..n {
                let v = rng.gen_range(0..graph.num_left());
                let u = rng.gen_range(0..graph.num_right());
                let insert = !view.has_edge(v, u);
                if insert {
                    view.insert_edge(v, u)?;
                } else {
                    view.delete_edge(v, u)?;
                }
                script.push((insert, v, u));
            }
            script
        }
        (None, None) => {
            return Err(CliError::Usage("expected --script <FILE> or --random <N>".to_string()))
        }
    };

    let cfg = DynamicConfig { k, theta_left, theta_right, engine, threads };
    let localizable = cfg.is_localizable();
    let mut m = DynamicEnumerator::new(&graph, cfg).map_err(|e| CliError::Usage(e.to_string()))?;

    writeln!(out, "graph: {label}  k = {k}  thresholds = ({theta_left}, {theta_right})")?;
    writeln!(
        out,
        "mode: {}  initial solutions: {}",
        if localizable { "localized" } else { "fallback (thresholds ≤ 2k)" },
        m.len()
    )?;

    let start = std::time::Instant::now();
    for (idx, &(insert, v, u)) in updates.iter().enumerate() {
        let diff = if insert { m.insert_edge(v, u) } else { m.delete_edge(v, u) }
            .map_err(|e| CliError::Usage(e.to_string()))?;
        writeln!(
            out,
            "#{:<4} {} ({v}, {u})  +{} -{}",
            idx + 1,
            if insert { "+" } else { "-" },
            diff.added.len(),
            diff.removed.len(),
        )?;
        if args.flag("print-diffs") {
            for b in &diff.added {
                writeln!(out, "    added   L={:?} R={:?}", b.left, b.right)?;
            }
            for b in &diff.removed {
                writeln!(out, "    removed L={:?} R={:?}", b.left, b.right)?;
            }
        }
        if args.flag("verify") {
            let rebuilt = m.rebuild().map_err(|e| CliError::Usage(e.to_string()))?;
            if m.solutions() != rebuilt {
                return Err(CliError::Usage(format!(
                    "verification FAILED after update #{}: maintained {} solutions, rebuild found {}",
                    idx + 1,
                    m.len(),
                    rebuilt.len()
                )));
            }
        }
    }
    let elapsed = start.elapsed();

    let stats = m.stats();
    writeln!(
        out,
        "updates: {}  (noop {}, localized {}, fallback {})",
        stats.updates, stats.noop_updates, stats.localized_updates, stats.fallback_updates
    )?;
    writeln!(out, "diff totals: +{} -{}", stats.added_total, stats.removed_total)?;
    if stats.localized_updates > 0 {
        writeln!(
            out,
            "region vertices: max {}  mean {:.1}",
            stats.max_region,
            stats.region_vertices_total as f64 / stats.localized_updates as f64
        )?;
    }
    writeln!(out, "final solutions: {}", m.len())?;
    writeln!(out, "elapsed: {:.3} s", elapsed.as_secs_f64())?;
    if args.flag("verify") {
        writeln!(out, "verified: every update against rebuild-from-scratch")?;
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

    #[test]
    fn script_parser_accepts_comments_and_rejects_garbage() {
        let ops = parse_script("# header\n+ 1 2\n\n- 3 4  # trailing\n").unwrap();
        assert_eq!(ops, vec![(true, 1, 2), (false, 3, 4)]);
        assert!(parse_script("* 1 2").is_err());
        assert!(parse_script("+ 1").is_err());
        assert!(parse_script("+ 1 2 3").is_err());
        assert!(parse_script("+ one 2").is_err());
    }

    #[test]
    fn random_updates_with_verification() {
        let text = capture(&[
            "--dataset",
            "Divorce",
            "--random",
            "8",
            "--seed",
            "3",
            "--k",
            "1",
            "--theta-left",
            "3",
            "--theta-right",
            "3",
            "--verify",
        ])
        .unwrap();
        assert!(text.contains("mode: localized"), "{text}");
        assert!(text.contains("updates: 8"), "{text}");
        assert!(text.contains("verified: every update"), "{text}");
    }

    #[test]
    fn script_file_replay_reports_diffs() {
        let dir = std::env::temp_dir().join("mbpe_cli_update_test");
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("g.txt");
        let script_path = dir.join("ops.txt");
        // 3×3 biclique plus a pendant left vertex 3 attached to right 0.
        let mut edges = Vec::new();
        for v in 0..3u32 {
            for u in 0..3u32 {
                edges.push((v, u));
            }
        }
        edges.push((3, 0));
        let g = bigraph::BipartiteGraph::from_edges(4, 3, &edges).unwrap();
        bigraph::io::write_edge_list_file(&g, &graph_path).unwrap();
        std::fs::write(&script_path, "+ 3 1\n- 3 1\n").unwrap();

        let text = capture(&[
            graph_path.to_str().unwrap(),
            "--script",
            script_path.to_str().unwrap(),
            "--k",
            "1",
            "--theta-left",
            "3",
            "--theta-right",
            "3",
            "--print-diffs",
            "--verify",
        ])
        .unwrap();
        assert!(text.contains("#1    + (3, 1)  +1 -1"), "{text}");
        assert!(text.contains("#2    - (3, 1)  +1 -1"), "{text}");
        assert!(text.contains("added   L="), "{text}");
        assert!(text.contains("final solutions: 1"), "{text}");

        std::fs::remove_file(graph_path).ok();
        std::fs::remove_file(script_path).ok();
    }

    #[test]
    fn fallback_mode_is_reported() {
        let text = capture(&["--dataset", "Divorce", "--random", "2", "--k", "1"]).unwrap();
        assert!(text.contains("mode: fallback"), "{text}");
        assert!(text.contains("fallback 2)") || text.contains("noop"), "{text}");
    }

    #[test]
    fn usage_errors() {
        assert!(capture(&["--dataset", "Divorce"]).is_err(), "needs --script or --random");
        assert!(
            capture(&["--dataset", "Divorce", "--script", "a", "--random", "2"]).is_err(),
            "--script and --random are exclusive"
        );
        for engine in ["warp", "global"] {
            assert!(
                capture(&["--dataset", "Divorce", "--random", "1", "--engine", engine]).is_err(),
                "bad engine {engine}"
            );
        }
    }
}
