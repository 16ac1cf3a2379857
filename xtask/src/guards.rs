//! Intra-procedural guard-liveness dataflow and the blocking-concurrency
//! lint rules built on it.
//!
//! The analysis walks one file's token stream (from [`crate::syntax`])
//! with a stack of lexical blocks. A *guard* is born when a statement
//! acquires a lock — through the serve crate's `lock()` helper, the core
//! crate's `plock()`, a direct `.lock()` method call, or a zero-argument
//! `.read()`/`.write()` (RwLock) — and dies at the end of its enclosing
//! block, at an explicit `drop(guard)`, or by shadowing/rebinding.
//! `Condvar::wait`-family calls consume and re-produce their guard, so the
//! guard stays live across them under its rebound name. Acquisitions that
//! are never bound (`*lock(&shared.current) = snap;`) are *temporaries*:
//! live to the end of their statement.
//!
//! Three rules consume the liveness state:
//!
//! - **`lock-order`** — each crate may declare a lock hierarchy
//!   ([`LOCK_HIERARCHIES`]); acquiring a declared lock while holding one
//!   of equal or later rank is a finding (re-acquisition of the *same*
//!   lock is a self-deadlock and reported as such). The hierarchy is the
//!   in-repo, build-enforced declaration the DESIGN document points at.
//! - **`guard-across-blocking`** — a live guard at a blocking call site
//!   (frame/socket I/O, channel ops, `JoinHandle::join`, condvar waits on
//!   *other* locks, `thread::sleep`) is a finding unless the exact
//!   (file, lock, callee) triple is declared in
//!   [`GUARD_BLOCKING_ALLOWLIST`] with its invariant — deliberate holds
//!   become auditable declarations instead of silence.
//! - **`condvar-wait-loop`** — every `Condvar::wait`/`wait_timeout` must
//!   sit under a `while`/`loop` ancestor inside its function, so spurious
//!   wakeups and stolen signals re-check the predicate. The `*_while`
//!   variants carry their own predicate closure and are exempt.
//!
//! # Known false-negative edges (by design)
//!
//! The dataflow is intra-procedural and lexical, so it cannot see:
//! guards moved into structs or returned to the caller; guards acquired
//! inside a callee (`shared.snapshot()` locks internally); blocking
//! reached through dynamic dispatch (`sink.on_solution` may park on a
//! bounded channel); temporaries created in a `for`-loop head, which
//! outlive the statement but are conservatively killed at `{`; and guards
//! whose lock expression the path heuristic cannot name (`stdout().lock()`
//! has no receiver path and is skipped). DESIGN.md §11 records these
//! edges and when to reach for the model checker or the sanitizers
//! instead.

use crate::syntax::{classify_block, BlockKind, SourceFile, TokKind, Token};
use crate::Finding;

/// A declared lock hierarchy: within `scope`, locks must be acquired in
/// strictly increasing `order` position.
pub struct LockHierarchy {
    /// Path prefix (workspace-relative) the hierarchy governs.
    pub scope: &'static str,
    /// Lock names (field/variable identifiers) in acquisition order:
    /// `["sched", "current"]` means `sched < current`.
    pub order: &'static [&'static str],
}

/// The checked-in lock-order tables, one per crate that nests locks.
///
/// `crates/serve`: the scheduler lock is the hottest and outermost —
/// admission and worker pick run under `sched` alone; an update holds
/// `current`, the graph lock, for one copy-on-write splice and takes no
/// other lock; nothing may acquire `sched` while holding `current`, or
/// re-acquire a held lock.
pub const LOCK_HIERARCHIES: &[LockHierarchy] =
    &[LockHierarchy { scope: "crates/serve/src/", order: &["sched", "current"] }];

/// One deliberate guard-held-across-blocking site. The entry *is* the
/// audit trail: the invariant string states why the hold is correct.
pub struct BlockingAllow {
    /// Workspace-relative file the hold lives in.
    pub file: &'static str,
    /// Lock name (the last path segment of the lock expression).
    pub lock: &'static str,
    /// Blocking callee name as the rule reports it (`write_frame`,
    /// `join`, `Condvar::wait`, …).
    pub callee: &'static str,
    /// Why holding this guard across this call is correct.
    pub invariant: &'static str,
}

/// Deliberate holds, declared instead of silenced.
pub const GUARD_BLOCKING_ALLOWLIST: &[BlockingAllow] = &[BlockingAllow {
    file: "crates/serve/src/server.rs",
    lock: "out",
    callee: "write_frame",
    invariant: "per-connection write serialization IS this mutex's purpose: worker and \
                connection threads interleave whole frames on one TcpStream, so the length \
                prefix and payload must be written under one critical section; the peer \
                draining slowly only stalls its own connection's writers, never the \
                scheduler (no other lock is held here).",
}];

/// Blocking *method* names (`.name(` with a receiver).
const BLOCKING_METHODS: &[&str] =
    &["join", "send", "recv", "recv_timeout", "write_all", "read_exact", "flush", "accept"];

/// Blocking free functions (called bare or through a path).
const BLOCKING_FREE_FNS: &[&str] = &["write_frame", "read_frame"];

/// Blocking functions only recognised behind a `::`/`.` path segment
/// (`TcpStream::connect`, `thread::sleep`) — bare `connect`/`sleep` idents
/// are too generic to claim.
const BLOCKING_PATH_FNS: &[&str] = &["connect", "sleep"];

/// Free acquisition helpers: the serve crate's poison-riding `lock()` and
/// the core crate's `plock()`.
const ACQUIRE_FREE_FNS: &[&str] = &["lock", "plock"];

/// The `Condvar::wait` family. The `*_while` variants embed the predicate
/// re-check and are exempt from `condvar-wait-loop`.
const WAIT_METHODS: &[&str] = &["wait", "wait_timeout", "wait_while", "wait_timeout_while"];

/// A live guard.
#[derive(Debug, Clone)]
struct Guard {
    /// Binding name; `None` for statement-scoped temporaries.
    var: Option<String>,
    /// Full lock path as written (`shared.sched`, `deques[_]`).
    path: String,
    /// Last path segment — the name hierarchies and allowlists key on.
    key: String,
    /// Position in the governing hierarchy, when the key is declared.
    rank: Option<usize>,
    /// Acquisition line.
    line: usize,
}

/// One lexical block and the guards born in it.
struct Frame {
    kind: BlockKind,
    guards: Vec<Guard>,
}

/// Whether the concurrency rules apply to this path: crate library code
/// plus the umbrella crate's `src/` — not vendor shims, not the
/// workspace-root test/bench trees (their concurrency is the *subject* of
/// the stress suites, and `modelsim` implements condvars itself).
fn in_scope(rel: &str) -> bool {
    (rel.starts_with("crates/") && rel.contains("/src/")) || rel.starts_with("src/")
}

fn hierarchy_for(rel: &str) -> Option<&'static LockHierarchy> {
    LOCK_HIERARCHIES.iter().find(|h| rel.starts_with(h.scope))
}

fn allow_entry(rel: &str, key: &str, callee: &str) -> Option<&'static BlockingAllow> {
    GUARD_BLOCKING_ALLOWLIST.iter().find(|a| a.file == rel && a.lock == key && a.callee == callee)
}

/// Runs the guard-liveness analysis over one tokenized file. `test_lines`
/// marks lines inside `#[cfg(test)]` blocks (1-based line `n` at index
/// `n - 1`); findings on those lines are dropped.
pub fn analyze(rel: &str, sf: &SourceFile, test_lines: &[bool]) -> Vec<Finding> {
    if !in_scope(rel) {
        return Vec::new();
    }
    let hierarchy = hierarchy_for(rel);
    let toks = &sf.tokens;
    let mut findings: Vec<Finding> = Vec::new();
    let mut frames: Vec<Frame> = vec![Frame { kind: BlockKind::Other, guards: Vec::new() }];
    // Token indices since the last statement boundary (`;`, `{`, `}`).
    let mut recent: Vec<usize> = Vec::new();
    // Unbound acquisitions of the current statement.
    let mut temps: Vec<Guard> = Vec::new();
    // Blocking callees already seen in the current statement, so a
    // temporary acquired *later in the same expression* (its guard lives
    // to the end of the full expression) is still checked against them.
    let mut stmt_blocking: Vec<(usize, String)> = Vec::new();

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('{') {
            let recent_toks: Vec<Token> = recent.iter().map(|&j| toks[j].clone()).collect();
            frames.push(Frame { kind: classify_block(&recent_toks), guards: Vec::new() });
            recent.clear();
            temps.clear();
            stmt_blocking.clear();
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            if frames.len() > 1 {
                frames.pop();
            }
            recent.clear();
            temps.clear();
            stmt_blocking.clear();
            i += 1;
            continue;
        }
        if t.is_punct(';') {
            recent.clear();
            temps.clear();
            stmt_blocking.clear();
            i += 1;
            continue;
        }

        // drop(guard) / mem::drop(guard): explicit early release.
        if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !prev_is(toks, i, ".")
            && !prev_is(toks, i, "fn")
        {
            if let Some(name) = first_ident_after(toks, i + 2) {
                for frame in &mut frames {
                    frame.guards.retain(|g| g.var.as_deref() != Some(name));
                }
            }
        }

        // Acquisitions.
        if let Some((path, args_end)) = match_acquisition(toks, i) {
            let key = lock_key(&path);
            let rank = hierarchy.and_then(|h| h.order.iter().position(|&name| name == key));
            // lock-order: check against every live guard with a rank.
            if let Some(r) = rank {
                let live: Vec<&Guard> =
                    frames.iter().flat_map(|f| &f.guards).chain(&temps).collect();
                for g in live {
                    if g.key == key {
                        findings.push(Finding {
                            path: rel.to_string(),
                            line: t.line,
                            rule: "lock-order",
                            message: format!(
                                "re-acquisition of `{key}`: its guard from line {} is still \
                                 live — std mutexes are not reentrant, this self-deadlocks",
                                g.line
                            ),
                        });
                    } else if let Some(gr) = g.rank {
                        if gr >= r {
                            let h = hierarchy.expect("rank implies hierarchy");
                            findings.push(Finding {
                                path: rel.to_string(),
                                line: t.line,
                                rule: "lock-order",
                                message: format!(
                                    "lock-order violation: acquiring `{key}` while holding \
                                     `{}` (line {}) — declared hierarchy for {} is {}",
                                    g.key,
                                    g.line,
                                    h.scope,
                                    h.order.join(" < ")
                                ),
                            });
                        }
                    }
                }
            }
            // The acquisition only produces a *named* guard when the
            // statement binds the guard value itself: `let g = lock(&m);`
            // or `g = m.lock().unwrap();` — possibly through an
            // unwrap-style adapter. `let v = lock(&m).drain(..).collect()`
            // consumes the guard inside the expression, so it stays a
            // temporary and `v` is not a guard.
            let var =
                if directly_bound(toks, args_end) { binding_target(toks, &recent) } else { None };
            let guard = Guard { var, path: path.clone(), key: key.to_string(), rank, line: t.line };
            // A temporary acquired after a blocking callee in the same
            // statement is held across it (temporaries live to the end of
            // the full expression).
            if guard.var.is_none() {
                for (bline, callee) in &stmt_blocking {
                    if allow_entry(rel, &guard.key, callee).is_none() {
                        findings.push(blocking_finding(rel, *bline, &guard, callee));
                    }
                }
            }
            match guard.var {
                Some(ref name) => {
                    let name = name.clone();
                    for frame in &mut frames {
                        frame.guards.retain(|g| g.var.as_deref() != Some(name.as_str()));
                    }
                    if let Some(frame) = frames.last_mut() {
                        frame.guards.push(guard);
                    }
                }
                None => temps.push(guard),
            }
            recent.push(i);
            i = args_end.max(i + 1);
            continue;
        }

        // Condvar wait family.
        if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|n| {
                n.kind == TokKind::Ident && WAIT_METHODS.contains(&n.text.as_str())
            })
            && toks.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            let method = toks[i + 1].text.clone();
            let line = toks[i + 1].line;
            // condvar-wait-loop: a plain wait must sit under a loop.
            let predicate_builtin = method.ends_with("_while");
            if !predicate_builtin {
                let mut looped = false;
                for frame in frames.iter().rev() {
                    if frame.kind.is_loop() {
                        looped = true;
                        break;
                    }
                    if frame.kind == BlockKind::Fn {
                        break;
                    }
                }
                if !looped {
                    findings.push(Finding {
                        path: rel.to_string(),
                        line,
                        rule: "condvar-wait-loop",
                        message: format!(
                            "`Condvar::{method}` outside a `while`/`loop`: a spurious wakeup \
                             or stolen signal skips the predicate re-check and the wait is \
                             lost — loop on the predicate around the wait"
                        ),
                    });
                }
            }
            // guard-across-blocking: every live guard except the one the
            // wait itself releases (its argument) is held across the park.
            let waited = first_ident_after(toks, i + 3).map(str::to_string);
            let callee = format!("Condvar::{method}");
            for g in frames.iter().flat_map(|f| &f.guards).chain(&temps) {
                if g.var.as_deref() == waited.as_deref() && g.var.is_some() {
                    continue;
                }
                if allow_entry(rel, &g.key, &callee).is_none() {
                    findings.push(blocking_finding(rel, line, g, &callee));
                }
            }
            // The wait consumes and re-produces the guard: under a `let`
            // or assignment it stays live under the (re)bound name, which
            // `binding_target` already registered when it was acquired —
            // nothing to update for the common `g = cv.wait(g)` shape.
            stmt_blocking.push((line, callee));
            recent.push(i);
            i += 2;
            continue;
        }

        // Blocking calls.
        if let Some(callee) = match_blocking(toks, i) {
            let line = t.line;
            for g in frames.iter().flat_map(|f| &f.guards).chain(&temps) {
                if allow_entry(rel, &g.key, &callee).is_none() {
                    findings.push(blocking_finding(rel, line, g, &callee));
                }
            }
            stmt_blocking.push((line, callee));
        }

        if recent.len() < 256 {
            recent.push(i);
        }
        i += 1;
    }

    findings.retain(|f| !test_lines.get(f.line.saturating_sub(1)).copied().unwrap_or(false));
    findings
}

fn blocking_finding(rel: &str, line: usize, g: &Guard, callee: &str) -> Finding {
    let var = g.var.as_deref().unwrap_or("<temporary>");
    Finding {
        path: rel.to_string(),
        line,
        rule: "guard-across-blocking",
        message: format!(
            "guard `{var}` on `{}` (acquired line {}) is held across blocking `{callee}` — \
             drop or scope the guard first, or declare the invariant in \
             GUARD_BLOCKING_ALLOWLIST (xtask/src/guards.rs)",
            g.path, g.line
        ),
    }
}

fn prev_is(toks: &[Token], i: usize, what: &str) -> bool {
    i > 0
        && toks.get(i - 1).is_some_and(|p| match what {
            "." => p.is_punct('.'),
            other => p.is_ident(other),
        })
}

/// First identifier at or after `start`, skipping `&`, `*` and `mut`.
fn first_ident_after(toks: &[Token], start: usize) -> Option<&str> {
    let mut j = start;
    while let Some(t) = toks.get(j) {
        if t.is_punct('&') || t.is_punct('*') || t.is_ident("mut") {
            j += 1;
            continue;
        }
        if t.kind == TokKind::Ident {
            return Some(&t.text);
        }
        return None;
    }
    None
}

/// Matches a lock acquisition at token `i`. Returns the lock path and the
/// index just past the tokens consumed by the *path* (the caller resumes
/// scanning there, so a path like `shared.sched` is not re-inspected).
fn match_acquisition(toks: &[Token], i: usize) -> Option<(String, usize)> {
    let t = &toks[i];
    // Free helpers: lock(&shared.sched), plock(&self.queue).
    if t.kind == TokKind::Ident
        && ACQUIRE_FREE_FNS.contains(&t.text.as_str())
        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        && !prev_is(toks, i, ".")
        && !prev_is(toks, i, "fn")
    {
        let (path, end) = arg_path(toks, i + 2)?;
        return Some((path, end));
    }
    // Methods: receiver.lock(), receiver.read(), receiver.write() — the
    // RwLock forms only with zero arguments, so `io::Read::read(buf)` and
    // `io::Write::write(buf)` never match.
    if t.is_punct('.') {
        let name = toks.get(i + 1)?;
        let open = toks.get(i + 2)?;
        if name.kind != TokKind::Ident || !open.is_punct('(') {
            return None;
        }
        let zero_arg = toks.get(i + 3).is_some_and(|n| n.is_punct(')'));
        let is_lock = name.text == "lock";
        let is_rw = (name.text == "read" || name.text == "write") && zero_arg;
        if !is_lock && !is_rw {
            return None;
        }
        let path = receiver_path(toks, i)?;
        return Some((path, i + 3));
    }
    None
}

/// Extracts the lock path from a call argument list starting at `start`
/// (just after the `(`): skips `&`/`mut`, then takes a dotted/`::` path
/// with `[index]` segments collapsed to `[_]`.
fn arg_path(toks: &[Token], start: usize) -> Option<(String, usize)> {
    let mut j = start;
    while toks.get(j).is_some_and(|t| t.is_punct('&') || t.is_ident("mut")) {
        j += 1;
    }
    let first = toks.get(j)?;
    if first.kind != TokKind::Ident {
        return None;
    }
    let mut path = first.text.clone();
    j += 1;
    loop {
        match toks.get(j) {
            Some(t) if t.is_punct('.') || t.is_punct(':') => {
                // `.segment` or `::segment` (the `::` arrives as two `:`).
                let mut k = j + 1;
                if t.is_punct(':') {
                    if !toks.get(k).is_some_and(|n| n.is_punct(':')) {
                        break;
                    }
                    k += 1;
                }
                match toks.get(k) {
                    Some(seg) if seg.kind == TokKind::Ident || seg.kind == TokKind::Num => {
                        path.push('.');
                        path.push_str(&seg.text);
                        j = k + 1;
                    }
                    _ => break,
                }
            }
            Some(t) if t.is_punct('[') => {
                // Collapse the index expression: different indices are
                // different locks, so indexed paths never join a declared
                // hierarchy — but the guard itself is still tracked.
                let mut depth = 1usize;
                let mut k = j + 1;
                while let Some(inner) = toks.get(k) {
                    if inner.is_punct('[') {
                        depth += 1;
                    } else if inner.is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                path.push_str("[_]");
                j = k + 1;
            }
            _ => break,
        }
    }
    Some((path, j))
}

/// Walks backwards from the `.` of a method call to recover the receiver
/// path (`self.queue`, `shared.work`). Returns `None` when the receiver is
/// not a plain path (e.g. `stdout().lock()`), which the caller skips.
fn receiver_path(toks: &[Token], dot: usize) -> Option<String> {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot;
    loop {
        if j == 0 {
            break;
        }
        let prev = &toks[j - 1];
        if prev.kind == TokKind::Ident || prev.kind == TokKind::Num {
            parts.push(prev.text.clone());
            j -= 1;
            // Continue only through a `.` connector.
            if j > 0 && toks[j - 1].is_punct('.') {
                j -= 1;
                continue;
            }
            break;
        }
        // Receiver ends in `)`/`]`/literal — not a nameable path.
        return None;
    }
    if parts.is_empty() {
        return None;
    }
    parts.reverse();
    Some(parts.join("."))
}

/// The hierarchy/allowlist key of a lock path: its last plain segment
/// (`shared.sched` → `sched`; indexed paths keep the `[_]` marker so they
/// can never collide with a declared name).
fn lock_key(path: &str) -> &str {
    path.rsplit('.').next().unwrap_or(path)
}

/// Matches a blocking callee at token `i`; returns its reported name.
fn match_blocking(toks: &[Token], i: usize) -> Option<String> {
    let t = &toks[i];
    if t.is_punct('.') {
        let name = toks.get(i + 1)?;
        if name.kind == TokKind::Ident
            && BLOCKING_METHODS.contains(&name.text.as_str())
            && toks.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            return Some(name.text.clone());
        }
        return None;
    }
    if t.kind != TokKind::Ident || !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
        return None;
    }
    if prev_is(toks, i, "fn") {
        return None;
    }
    if BLOCKING_FREE_FNS.contains(&t.text.as_str()) && !prev_is(toks, i, ".") {
        return Some(t.text.clone());
    }
    if BLOCKING_PATH_FNS.contains(&t.text.as_str()) && i > 0 && toks[i - 1].is_punct(':') {
        return Some(t.text.clone());
    }
    None
}

/// True when the expression ending at the acquisition's `)` (index
/// `close`) is the whole right-hand side of its statement — optionally
/// through unwrap-style adapters that return the guard unchanged — so the
/// statement's binding really names the guard.
fn directly_bound(toks: &[Token], close: usize) -> bool {
    let mut j = close;
    if !toks.get(j).is_some_and(|t| t.is_punct(')')) {
        return false;
    }
    j += 1;
    loop {
        match toks.get(j) {
            Some(t) if t.is_punct(';') => return true,
            Some(t) if t.is_punct('.') => {
                let name = match toks.get(j + 1) {
                    Some(n) if n.kind == TokKind::Ident => n.text.as_str(),
                    _ => return false,
                };
                if !matches!(name, "unwrap" | "expect" | "unwrap_or_else") {
                    return false;
                }
                if !toks.get(j + 2).is_some_and(|t| t.is_punct('(')) {
                    return false;
                }
                // Skip the adapter's balanced argument list.
                let mut depth = 1usize;
                j += 3;
                while let Some(t) = toks.get(j) {
                    if t.is_punct('(') {
                        depth += 1;
                    } else if t.is_punct(')') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                j += 1;
            }
            _ => return false,
        }
    }
}

/// Resolves the binding target of the statement whose tokens (indices into
/// the file's stream) are in `recent`: `let [mut] name = …`, tuple `let
/// (name, _) = …`, or a plain `name = …` rebind. `None` for temporaries.
fn binding_target(toks: &[Token], recent: &[usize]) -> Option<String> {
    let recent_toks: Vec<&Token> = recent.iter().map(|&j| &toks[j]).collect();
    if let [.., prev, eq] = recent_toks.as_slice() {
        if eq.is_punct('=') && prev.kind == TokKind::Ident && !prev.is_ident("mut") {
            // Exclude `==`, `<=`, `+=` … by checking the token before the
            // pair is not an operator fragment and the `=` is a lone sign.
            let before = recent_toks.len().checked_sub(3).map(|k| recent_toks[k]);
            let compound = before
                .is_some_and(|b| b.kind == TokKind::Punct && "=<>!+-*/%&|^".contains(&b.text));
            if !compound {
                return Some(prev.text.clone());
            }
        }
    }
    // `let` pattern: first identifier after `let`, skipping `mut`/`(`.
    let let_pos = recent_toks.iter().position(|t| t.is_ident("let"))?;
    let mut j = let_pos + 1;
    while recent_toks
        .get(j)
        .is_some_and(|t| t.is_ident("mut") || t.is_punct('(') || t.is_punct('&'))
    {
        j += 1;
    }
    let target = recent_toks.get(j)?;
    if target.kind == TokKind::Ident {
        Some(target.text.clone())
    } else {
        None
    }
}
