//! Repo automation: the custom static lint pass behind `cargo xtask lint`.
//!
//! The pass enforces the concurrency-hygiene rules that `rustc` and clippy
//! cannot express. The original rule set centred on the lock-free core:
//!
//! - **`ordering-comment`** — every atomic operation in library code under
//!   `crates/*/src` carries an adjacent `// ordering:` comment justifying
//!   its memory ordering (see DESIGN.md "Memory-ordering arguments").
//! - **`relaxed-allowlist`** — `Relaxed` orderings may appear only in the
//!   allowlisted files whose Relaxed sites have been argued through
//!   (the cancel flags).
//! - **`forbid-unsafe`** — every crate root starts with
//!   `#![forbid(unsafe_code)]`, as defence-in-depth on top of the
//!   workspace-level `unsafe_code = "forbid"` lint.
//! - **`no-unwrap`** — no `.unwrap()` / `.expect(` in non-test library
//!   code of the `core` and `bigraph` crates (test modules are exempt).
//! - **`atomic-facade`** — code under `crates/core/src/parallel/` must go
//!   through `crate::sync::atomic`, never `std::sync::atomic` directly,
//!   so the model checker sees every operation.
//! - **`dead-code-allow`** — `allow(dead_code)` is banned workspace-wide;
//!   dead code is deleted, not silenced.
//! - **`kernel-dispatch`** — the raw intersection kernels
//!   (`*_intersection_len`) are `bigraph`-internal; every other crate must
//!   go through `intersect::dispatch` so the measured crossover heuristic
//!   stays authoritative.
//!
//! The scope-aware rules cover the blocking-concurrency half of the
//! codebase (the serve scheduler's mutex+condvar core), built on a real
//! token stream ([`syntax`]) and an intra-procedural guard-liveness
//! dataflow ([`guards`]):
//!
//! - **`lock-order`** — nested lock acquisitions must follow the declared
//!   per-crate hierarchy ([`guards::LOCK_HIERARCHIES`]); re-acquiring a
//!   held lock is a self-deadlock finding.
//! - **`guard-across-blocking`** — no guard may be held across blocking
//!   I/O, channel ops or joins unless the exact site is declared in
//!   [`guards::GUARD_BLOCKING_ALLOWLIST`] with its invariant.
//! - **`condvar-wait-loop`** — `Condvar::wait`/`wait_timeout` must sit
//!   under a `while`/`loop`, never a bare `if` or straight-line call.
//! - **`ordering-registry-drift`** — the `order!(…, "site")` tags under
//!   `crates/core/src/parallel/` and the named-site table in DESIGN.md
//!   § "Memory-ordering arguments" must agree in both directions
//!   ([`registry`]).
//!
//! Everything is hand-rolled (no syn/proc-macro dependencies — the
//! container is offline): [`syntax::SourceFile::parse`] lexes each file
//! **once** into a token stream plus masked lines, and every rule family
//! shares that one parse. `#[cfg(test)]` module extents are tracked by
//! brace depth over the masked lines, and a file its parent declares as
//! `#[cfg(test)] mod x;` is test code throughout. Fixture files under
//! `xtask/tests/fixtures/` encode their virtual location in a
//! `// lint-as:` header so the integration tests can drive each rule
//! without polluting the real tree. The `--report` flag writes the JSON
//! artifact documented in [`report`] and `xtask/README.md`.

#![forbid(unsafe_code)]

pub mod guards;
pub mod registry;
pub mod report;
pub mod syntax;

use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use syntax::SourceFile;

/// One lint violation, pointing at a workspace-relative path and line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Stable rule identifier, e.g. `no-unwrap`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// A finished workspace pass: the findings plus the cost figures the
/// `--report` artifact pins.
#[derive(Debug)]
pub struct LintRun {
    /// Every finding, in path order then line order.
    pub findings: Vec<Finding>,
    /// `.rs` files parsed.
    pub files_scanned: usize,
    /// Wall-clock cost of the whole pass (parse + all rules).
    pub elapsed_ms: u128,
}

/// Files allowed to mention `Relaxed` in code: each has per-site
/// `// ordering:` arguments recorded in DESIGN.md.
const RELAXED_ALLOWLIST: &[&str] = &[
    "crates/core/src/parallel/mod.rs", // cancel-flag polls
    "crates/core/src/api.rs",          // cancel/undelivered advisory flags
];

/// Crates whose library code must be panic-free (`no-unwrap` rule).
const NO_UNWRAP_SCOPES: &[&str] = &["crates/core/src/", "crates/bigraph/src/"];

/// How many lines above an atomic operation the `// ordering:` comment may
/// sit (multi-line justifications push the operation down).
const ORDERING_COMMENT_WINDOW: usize = 10;

/// Atomic operations are recognised as one of these method calls on a line
/// that also names an ordering (every real call site passes one).
const ATOMIC_METHODS: &[&str] =
    &[".load(", ".store(", ".swap(", ".compare_exchange", ".compare_and_swap", ".fetch_"];

/// Directories that own workspace members, plus the umbrella crate's own
/// source/test/example trees at the workspace root.
const MEMBER_ROOTS: &[&str] = &["crates", "vendor", "xtask", "src", "tests", "examples"];

/// The banned suppression attribute, assembled at runtime so the linter's
/// own source does not trip the workspace-wide scan.
fn dead_code_needle() -> String {
    ["allow(", "dead_code)"].concat()
}

/// The raw intersection kernels only `bigraph` itself may name; everyone
/// else goes through `intersect::dispatch`. Assembled at runtime for the
/// same self-exemption reason as [`dead_code_needle`].
fn raw_kernel_needles() -> [String; 4] {
    ["merge", "gallop", "chunked", "bitset"].map(|k| [k, "_intersection", "_len"].concat())
}

/// Marks each line (0-indexed) that sits inside a `#[cfg(test)]` block,
/// by brace depth over the masked lines. The attribute line and the
/// opening-brace line themselves are not marked; the closing-brace line
/// is. Shared by the line rules and the guard dataflow so both exempt the
/// same test code.
#[must_use]
pub fn test_line_mask(sf: &SourceFile) -> Vec<bool> {
    let mut mask = vec![false; sf.code_lines.len()];
    // Brace depths at which `#[cfg(test)]` blocks opened; non-empty means
    // the current line is inside test-only code.
    let mut test_depths: Vec<i32> = Vec::new();
    let mut depth: i32 = 0;
    let mut pending_cfg_test = false;
    for (idx, code) in sf.code_lines.iter().enumerate() {
        let trimmed = code.trim_start();
        if trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[cfg(all(test") {
            pending_cfg_test = true;
        }
        mask[idx] = !test_depths.is_empty();
        let opens = code.matches('{').count() as i32;
        let closes = code.matches('}').count() as i32;
        if pending_cfg_test {
            if opens > 0 {
                test_depths.push(depth);
                pending_cfg_test = false;
            } else if code.contains(';') {
                // `#[cfg(test)]` on a braceless item (use, extern crate).
                pending_cfg_test = false;
            }
        }
        depth += opens - closes;
        while test_depths.last().is_some_and(|d| depth <= *d) {
            test_depths.pop();
        }
    }
    mask
}

/// Lints one source file as if it lived at the workspace-relative `rel`
/// path. Public so the fixture tests can lint snippets under virtual
/// paths; [`lint_workspace`] parses each real file once and calls
/// [`lint_parsed`] directly.
#[must_use]
pub fn lint_source(rel: &str, source: &str) -> Vec<Finding> {
    lint_parsed(rel, &SourceFile::parse(source))
}

/// Runs every per-file rule family over one already-parsed file: the
/// line-oriented rules on the masked lines and the guard-liveness rules
/// on the token stream. (The cross-file `ordering-registry-drift` rule
/// lives in [`lint_workspace`].)
#[must_use]
pub fn lint_parsed(rel: &str, sf: &SourceFile) -> Vec<Finding> {
    lint_masked(rel, sf, &test_line_mask(sf))
}

/// [`lint_parsed`] under a given test-code mask (one flag per line).
fn lint_masked(rel: &str, sf: &SourceFile, test_mask: &[bool]) -> Vec<Finding> {
    let mut findings = lint_lines(rel, sf, test_mask);
    findings.extend(guards::analyze(rel, sf, test_mask));
    findings.sort_by_key(|f| f.line);
    findings
}

/// Workspace-relative paths of the files `rel` declares at top level as
/// `#[cfg(test)]` followed by `mod x;` on the next line: `x.rs` or
/// `x/mod.rs` in the directory that holds its child modules (its own for
/// `lib.rs`, `main.rs` and `mod.rs`, the one named after it otherwise).
/// Such a file only exists in test builds.
fn cfg_test_children(rel: &str, sf: &SourceFile) -> Vec<String> {
    let (dir, file) = rel.rsplit_once('/').unwrap_or(("", rel));
    let base = match file {
        "lib.rs" | "main.rs" | "mod.rs" => dir.to_string(),
        _ => format!("{dir}/{}", file.trim_end_matches(".rs")),
    };
    let mut children = Vec::new();
    let mut depth: i32 = 0;
    let mut after_cfg_test = false;
    for code in &sf.code_lines {
        let line = code.trim();
        if after_cfg_test {
            let decl = line.trim_start_matches("pub(crate) ").trim_start_matches("pub ");
            if let Some(name) = decl.strip_prefix("mod ").and_then(|d| d.strip_suffix(';')) {
                children.push(format!("{base}/{name}.rs"));
                children.push(format!("{base}/{name}/mod.rs"));
            }
        }
        after_cfg_test = depth == 0 && line == "#[cfg(test)]";
        depth += code.matches('{').count() as i32 - code.matches('}').count() as i32;
    }
    children
}

/// The legacy line-oriented rules, over the masked lines of one parse.
fn lint_lines(rel: &str, sf: &SourceFile, test_mask: &[bool]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let in_crate_src = rel.starts_with("crates/") && rel.contains("/src/");
    let in_parallel = rel.starts_with("crates/core/src/parallel/");
    let unwrap_scope = NO_UNWRAP_SCOPES.iter().any(|s| rel.starts_with(s));
    let relaxed_allowed = RELAXED_ALLOWLIST.contains(&rel);
    let dead_needle = dead_code_needle();
    let kernel_needles = raw_kernel_needles();
    let outside_bigraph = !rel.starts_with("crates/bigraph/src/");

    for (idx, code) in sf.code_lines.iter().enumerate() {
        let lineno = idx + 1;
        let in_test_block = test_mask.get(idx).copied().unwrap_or(false);

        // Rule: dead-code-allow (workspace-wide, tests included).
        if code.contains(&dead_needle) {
            findings.push(Finding {
                path: rel.to_string(),
                line: lineno,
                rule: "dead-code-allow",
                message: format!("`{dead_needle}` is banned: delete dead code instead"),
            });
        }

        // Rule: kernel-dispatch (raw kernels are bigraph-internal; the
        // rule is workspace-wide — tests included — because even test
        // callers should cross-validate through the dispatcher).
        if outside_bigraph {
            if let Some(needle) = kernel_needles.iter().find(|n| code.contains(n.as_str())) {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: lineno,
                    rule: "kernel-dispatch",
                    message: format!(
                        "`{needle}` bypasses `intersect::dispatch`: call the dispatcher so \
                         the crossover heuristic applies"
                    ),
                });
            }
        }

        // Rule: atomic-facade (parallel/ must use crate::sync::atomic).
        if in_parallel && code.contains("std::sync::atomic") {
            findings.push(Finding {
                path: rel.to_string(),
                line: lineno,
                rule: "atomic-facade",
                message: "use crate::sync::atomic so the model checker sees this operation"
                    .to_string(),
            });
        }

        if in_crate_src && !in_test_block {
            // Rule: ordering-comment.
            let is_atomic_op = (code.contains("Ordering::") || code.contains("order!("))
                && ATOMIC_METHODS.iter().any(|m| code.contains(m));
            if is_atomic_op {
                let start = idx.saturating_sub(ORDERING_COMMENT_WINDOW);
                let justified =
                    sf.raw_lines[start..=idx].iter().any(|l| l.contains("// ordering:"));
                if !justified {
                    findings.push(Finding {
                        path: rel.to_string(),
                        line: lineno,
                        rule: "ordering-comment",
                        message: "atomic operation without an adjacent `// ordering:` \
                                  justification comment"
                            .to_string(),
                    });
                }
            }

            // Rule: relaxed-allowlist.
            if !relaxed_allowed && code.contains("Relaxed") {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: lineno,
                    rule: "relaxed-allowlist",
                    message: format!(
                        "`Relaxed` ordering outside the allowlist ({})",
                        RELAXED_ALLOWLIST.join(", ")
                    ),
                });
            }

            // Rule: no-unwrap.
            if unwrap_scope && (code.contains(".unwrap()") || code.contains(".expect(")) {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: lineno,
                    rule: "no-unwrap",
                    message: "`.unwrap()`/`.expect()` in non-test library code: return an \
                              error or restructure so the invariant is type-enforced"
                        .to_string(),
                });
            }
        }
    }
    findings
}

/// Checks that a crate-root file opts into `#![forbid(unsafe_code)]`.
fn lint_crate_root(rel: &str, source: &str) -> Option<Finding> {
    if source.contains("#![forbid(unsafe_code)]") {
        None
    } else {
        Some(Finding {
            path: rel.to_string(),
            line: 0,
            rule: "forbid-unsafe",
            message: "crate root must contain `#![forbid(unsafe_code)]`".to_string(),
        })
    }
}

/// Recursively collects `.rs` files under `dir`, skipping `target` build
/// output and the intentionally-violating `fixtures`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Workspace root, resolved from the linter's own manifest directory.
#[must_use]
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().map(Path::to_path_buf).unwrap_or_default()
}

/// Runs the whole pass over the workspace rooted at `root`: each file is
/// parsed once, every per-file rule family shares the parse, and the
/// cross-file ordering-registry check runs at the end over the `order!`
/// sites collected along the way.
#[must_use]
pub fn lint_workspace(root: &Path) -> LintRun {
    let started = Instant::now();
    let mut files = Vec::new();
    for member_root in MEMBER_ROOTS {
        collect_rs(&root.join(member_root), &mut files);
    }
    files.sort();

    // Parse everything before linting anything: whether a file is test
    // code throughout is decided by its parent, which may sort after it.
    let parsed: Vec<(String, Option<(String, SourceFile)>)> = files
        .iter()
        .map(|path| {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(path)
                .to_string_lossy()
                .replace(std::path::MAIN_SEPARATOR, "/");
            let file = fs::read_to_string(path).ok().map(|source| {
                let sf = SourceFile::parse(&source);
                (source, sf)
            });
            (rel, file)
        })
        .collect();
    let test_files: HashSet<String> = parsed
        .iter()
        .filter_map(|(rel, file)| file.as_ref().map(|(_, sf)| cfg_test_children(rel, sf)))
        .flatten()
        .collect();

    let mut findings = Vec::new();
    let mut order_sites = Vec::new();
    for (rel, file) in parsed {
        let Some((source, sf)) = file else {
            findings.push(Finding {
                path: rel,
                line: 0,
                rule: "io",
                message: "file exists but could not be read as UTF-8".to_string(),
            });
            continue;
        };
        let is_crate_root = rel.ends_with("/src/lib.rs") || rel.ends_with("/src/main.rs");
        if is_crate_root {
            findings.extend(lint_crate_root(&rel, &source));
        }
        if rel.starts_with(registry::SITE_SCOPE) {
            order_sites.extend(registry::collect_order_sites(&rel, &sf));
        }
        let test_mask = if test_files.contains(&rel) {
            vec![true; sf.code_lines.len()]
        } else {
            test_line_mask(&sf)
        };
        findings.extend(lint_masked(&rel, &sf, &test_mask));
    }

    // Cross-file rule: ordering-registry-drift.
    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    findings.extend(registry::check_ordering_registry("DESIGN.md", &design, &order_sites));

    LintRun { findings, files_scanned: files.len(), elapsed_ms: started.elapsed().as_millis() }
}

/// Entry point for the `xtask` binary; returns the process exit code.
///
/// `cargo xtask lint [--report <path>]` — run the pass over the workspace;
/// findings go to stderr, and the report file gets the JSON artifact
/// documented in [`report`]. Exit code 0 = clean, 1 = findings, 2 = usage
/// error.
pub fn run(mut args: impl Iterator<Item = String>) -> i32 {
    match args.next().as_deref() {
        Some("lint") => {
            let mut report_path: Option<PathBuf> = None;
            while let Some(flag) = args.next() {
                match flag.as_str() {
                    "--report" => match args.next() {
                        Some(p) => report_path = Some(PathBuf::from(p)),
                        None => {
                            eprintln!("--report requires a path");
                            return 2;
                        }
                    },
                    other => {
                        eprintln!("unknown flag: {other}");
                        return 2;
                    }
                }
            }
            let root = workspace_root();
            let lint_run = lint_workspace(&root);
            if let Some(path) = report_path {
                if let Err(e) = fs::write(&path, report::render(&lint_run)) {
                    eprintln!("failed to write report {}: {e}", path.display());
                    return 2;
                }
            }
            for finding in &lint_run.findings {
                eprintln!("{finding}");
            }
            let (n, scanned, ms) =
                (lint_run.findings.len(), lint_run.files_scanned, lint_run.elapsed_ms);
            if n == 0 {
                eprintln!("lint: clean ({scanned} files, {ms} ms)");
                0
            } else {
                eprintln!("lint: {n} finding(s) in {scanned} files ({ms} ms)");
                1
            }
        }
        other => {
            eprintln!("usage: cargo xtask lint [--report <path>]");
            if let Some(other) = other {
                eprintln!("unknown subcommand: {other}");
            }
            2
        }
    }
}
