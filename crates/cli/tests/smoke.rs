//! End-to-end smoke tests driving [`mbpe_cli::run`] exactly like the binary
//! does, against the tiny in-repo graph under `testdata/`.

use std::path::PathBuf;

/// Path of the committed fixture graph (`testdata/tiny.txt` at the repo root).
fn tiny_graph() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../testdata/tiny.txt");
    path.to_str().expect("utf-8 path").to_string()
}

/// Runs the CLI with `tokens` and returns the captured stdout.
fn run(tokens: &[&str]) -> String {
    let raw: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    mbpe_cli::run(&raw, &mut out).unwrap_or_else(|e| panic!("cli failed for {tokens:?}: {e}"));
    String::from_utf8(out).expect("cli output is utf-8")
}

#[test]
fn stats_reads_the_in_repo_graph() {
    let text = run(&["stats", &tiny_graph()]);
    assert!(text.contains("|E|"), "stats prints an edge count: {text}");
    assert!(text.contains('6'), "the fixture has 6 edges: {text}");
}

#[test]
fn enumerate_counts_match_the_library() {
    let text = run(&["enumerate", &tiny_graph(), "--k", "1", "--count-only"]);
    let reported: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("solutions: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no solution count in: {text}"));

    let g = bigraph::io::read_edge_list_file(tiny_graph()).expect("fixture parses");
    let expected = kbiplex::Enumerator::new(&g).k(1).collect().expect("facade run").len();
    assert_eq!(reported, expected, "CLI count equals the library count");
    assert!(reported > 0, "the fixture contains at least one maximal 1-biplex");
}

#[test]
fn enumerate_prints_well_formed_solutions() {
    let text = run(&["enumerate", &tiny_graph(), "--k", "1", "--limit", "2", "--print"]);
    let printed: Vec<&str> = text.lines().filter(|l| l.starts_with("L=")).collect();
    assert!(!printed.is_empty(), "--print emits solutions: {text}");
    assert!(printed.len() <= 2, "--limit 2 caps the printed solutions: {text}");
    assert!(text.contains("stop: limit-reached"), "the run header echoes the stop reason: {text}");
}

#[test]
fn first_is_an_unknown_option() {
    // `--limit N` is the one spelling: `--first N` is a usage error that
    // names the flag.
    let raw: Vec<String> = ["enumerate", &tiny_graph(), "--k", "1", "--first", "2"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut out = Vec::new();
    match mbpe_cli::run(&raw, &mut out) {
        Err(mbpe_cli::CliError::Usage(msg)) => {
            assert!(msg.contains("--first"), "the error names the flag: {msg}");
        }
        other => panic!("--first must be a usage error, got {other:?}"),
    }
}

#[test]
fn parallel_thread_counts_match_the_sequential_count() {
    let sequential = run(&["enumerate", &tiny_graph(), "--k", "1", "--count-only"]);
    let count = |text: &str| -> usize {
        text.lines()
            .find_map(|l| l.strip_prefix("solutions: "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no solution count in: {text}"))
    };
    for threads in ["1", "2", "4"] {
        let text = run(&[
            "enumerate",
            &tiny_graph(),
            "--k",
            "1",
            "--algo",
            "parallel",
            "--threads",
            threads,
            "--count-only",
        ]);
        assert_eq!(count(&text), count(&sequential), "--threads {threads}: {text}");
        assert!(
            text.contains(&format!("parallel: threads = {threads}")),
            "run header echoes the thread count: {text}"
        );
    }
}

#[test]
fn fractional_time_budget_is_accepted() {
    // `--time-budget 0.5` must parse as half a second, not be rejected or
    // truncated to zero. A zero-truncation bug would stop before the first
    // solution, so a non-zero count proves the fraction survived.
    let text = run(&["enumerate", &tiny_graph(), "--k", "1", "--time-budget", "0.5"]);
    let count: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("solutions: "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no solution count in: {text}"));
    assert!(count > 0, "a half-second budget must not stop before the first solution: {text}");
}

#[test]
fn generate_stats_enumerate_roundtrip() {
    let dir = std::env::temp_dir().join(format!("mbpe_cli_smoke_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("generated.txt");
    let path_str = path.to_str().unwrap().to_string();

    let text = run(&[
        "generate", "--er", "--left", "10", "--right", "10", "--edges", "40", "--seed", "5",
        "--out", &path_str,
    ]);
    assert!(text.contains("10"), "generate reports the sizes: {text}");

    let text = run(&["stats", &path_str]);
    assert!(text.contains("|E|"), "stats reads the generated file: {text}");

    let text = run(&["enumerate", &path_str, "--k", "1", "--count-only"]);
    assert!(text.contains("solutions"), "enumerate runs on the generated file: {text}");

    std::fs::remove_file(path).ok();
}
