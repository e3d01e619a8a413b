//! The rule catalogue and per-file analysis context.
//!
//! Every rule is named, machine-checkable, and waivable inline. A waiver is
//! a comment anywhere on the offending line or the line directly above:
//!
//! ```text
//! // aligraph::allow(no-unwrap-in-lib): channel endpoints live exactly as
//! // long as the executor thread.
//! ```
//!
//! Two rules accept a *justification* comment instead of a waiver, because
//! the point is documentation rather than exemption:
//!
//! * `relaxed-needs-justification` — an atomic `Ordering::…` site is clean
//!   when a `// ordering: …` comment sits on the site's line or within the
//!   five lines above it;
//! * `no-unwrap-in-lib` — an `.expect(…)` in library code is clean when a
//!   `// invariant: …` comment does the same (bare `.unwrap()` and
//!   `panic!` have no such escape: convert to `Result` or waive).

use crate::lexer::{lex, Token, TokenKind};
use std::collections::HashMap;
use std::collections::HashSet;

/// How many lines above a site a `// ordering:` / `// invariant:`
/// justification comment still covers it.
const JUSTIFICATION_WINDOW: u32 = 5;

/// Where a file sits in the workspace — decides which rules apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate directory name (`"telemetry"`, `"storage"`, …); `"suite"` for
    /// the workspace-root `src/`, `"tests"`/`"examples"` for those trees.
    pub crate_name: String,
    /// Top-level `tests/`, any `benches/`, or a path containing a `tests`
    /// directory component.
    pub is_test_tree: bool,
    /// Binary / example / bench-harness code: `src/bin/`, `examples/`,
    /// `src/main.rs`, or anything in the `bench` / `cli` crates.
    pub is_bin_like: bool,
    /// `src/lib.rs` or `src/main.rs` — the file where crate-root
    /// attributes (`#![forbid(unsafe_code)]`) must live.
    pub is_crate_root: bool,
}

impl FileClass {
    /// Classifies a repo-relative path (forward slashes).
    pub fn of(path: &str) -> FileClass {
        let parts: Vec<&str> = path.split('/').collect();
        let crate_name = if parts.first() == Some(&"crates") && parts.len() > 1 {
            parts[1].to_string()
        } else if parts.first() == Some(&"src") {
            "suite".to_string()
        } else if parts.first() == Some(&"tests") {
            "tests".to_string()
        } else if parts.first() == Some(&"examples") {
            "examples".to_string()
        } else {
            parts.first().unwrap_or(&"").to_string()
        };
        let is_test_tree = parts.iter().any(|p| *p == "tests" || *p == "benches");
        let is_bin_like = parts.iter().any(|p| *p == "bin" || *p == "examples")
            || path.ends_with("src/main.rs")
            || crate_name == "bench"
            || crate_name == "cli";
        let is_crate_root = path.ends_with("src/lib.rs") || path.ends_with("src/main.rs");
        FileClass { crate_name, is_test_tree, is_bin_like, is_crate_root }
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name (stable, waivable).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// Pre-lexed, pre-classified view of one source file that all rules share.
#[derive(Debug)]
pub struct FileCtx {
    /// Repo-relative path.
    pub path: String,
    /// Classification.
    pub class: FileClass,
    /// Non-comment tokens, in order.
    pub code: Vec<Token>,
    /// Line → waived `(rule, reason)` pairs (`aligraph::allow(rule): reason`
    /// comments; a waiver covers its own line and the next line).
    waivers: HashMap<u32, Vec<(String, String)>>,
    /// Lines carrying an `// aligraph::seeded` mark — the annotation that
    /// forces the following function into the determinism-taint pass's
    /// seeded region even when no seed-root call is visible.
    seeded_marks: HashSet<u32>,
    /// Lines carrying a `// ordering:` justification.
    ordering_notes: HashSet<u32>,
    /// Lines carrying a `// invariant:` justification.
    invariant_notes: HashSet<u32>,
    /// Line ranges (inclusive) of `#[cfg(test)]` items — test code inside
    /// library files.
    test_spans: Vec<(u32, u32)>,
    /// Lines that carry at least one code token (a waiver on a
    /// comment-only line extends to the next line; a trailing waiver
    /// covers only its own).
    code_lines: HashSet<u32>,
}

impl FileCtx {
    /// Lexes and indexes `src`.
    pub fn new(path: &str, src: &str) -> FileCtx {
        let tokens = lex(src);
        let mut waivers: HashMap<u32, Vec<(String, String)>> = HashMap::new();
        let mut seeded_marks = HashSet::new();
        let mut ordering_notes = HashSet::new();
        let mut invariant_notes = HashSet::new();
        let mut code = Vec::with_capacity(tokens.len());
        for t in &tokens {
            if t.kind == TokenKind::Comment {
                let body = t.text.trim_start_matches('/').trim_start_matches('*').trim_start();
                for rule in parse_waivers(&t.text) {
                    waivers.entry(t.line).or_default().push(rule);
                }
                if t.text.contains("aligraph::seeded") {
                    seeded_marks.insert(t.line);
                }
                if body.starts_with("ordering:") {
                    ordering_notes.insert(t.line);
                }
                if body.starts_with("invariant:") {
                    invariant_notes.insert(t.line);
                }
            } else {
                code.push(t.clone());
            }
        }
        let test_spans = find_cfg_test_spans(&tokens);
        let code_lines: HashSet<u32> = code.iter().map(|t| t.line).collect();
        // A marker opens a comment *block*: propagate each note/waiver down
        // through the contiguous run of comment-only lines that follows it,
        // so a wrapped justification still sits adjacent to the code it
        // covers.
        let comment_lines: HashSet<u32> = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Comment)
            .map(|t| t.line)
            .filter(|l| !code_lines.contains(l))
            .collect();
        propagate_through_comments(&mut ordering_notes, &comment_lines);
        propagate_through_comments(&mut invariant_notes, &comment_lines);
        propagate_through_comments(&mut seeded_marks, &comment_lines);
        let waived_lines: Vec<u32> = waivers.keys().copied().collect();
        for start in waived_lines {
            let rules = waivers[&start].clone();
            let mut l = start + 1;
            while comment_lines.contains(&l) {
                waivers.entry(l).or_default().extend(rules.iter().cloned());
                l += 1;
            }
        }
        FileCtx {
            path: path.to_string(),
            class: FileClass::of(path),
            code,
            waivers,
            seeded_marks,
            ordering_notes,
            invariant_notes,
            test_spans,
            code_lines,
        }
    }

    /// True when `line` falls inside a `#[cfg(test)]` item or the file
    /// itself is test-tree code.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.class.is_test_tree || self.test_spans.iter().any(|&(a, b)| line >= a && line <= b)
    }

    /// True when `rule` is waived for `line`: a waiver comment on the line
    /// itself, or on a comment-only line directly above.
    pub fn is_waived(&self, rule: &str, line: u32) -> bool {
        self.waiver_reason(rule, line).is_some()
    }

    /// The waiver reason covering `(rule, line)`, when one applies — the
    /// text after `aligraph::allow(rule):`, kept so JSON output can list
    /// grandfathered waivers auditable by reason.
    pub fn waiver_reason(&self, rule: &str, line: u32) -> Option<&str> {
        let find = |l: u32| {
            self.waivers
                .get(&l)
                .and_then(|rs| rs.iter().find(|(r, _)| r == rule || r == "*"))
                .map(|(_, reason)| reason.as_str())
        };
        if let Some(r) = find(line) {
            return Some(r);
        }
        let above = line.saturating_sub(1);
        if !self.code_lines.contains(&above) {
            return find(above);
        }
        None
    }

    /// True when an `// aligraph::seeded` mark sits on `line` or within the
    /// justification window above it (covering doc comments and attributes
    /// between the mark and the `fn` it annotates).
    pub fn has_seeded_mark(&self, line: u32) -> bool {
        self.has_note_near(&self.seeded_marks, line)
    }

    fn has_note_near(&self, notes: &HashSet<u32>, line: u32) -> bool {
        (line.saturating_sub(JUSTIFICATION_WINDOW)..=line).any(|l| notes.contains(&l))
    }

    /// `// ordering:` comment on `line` or within the window above it.
    pub fn has_ordering_note(&self, line: u32) -> bool {
        self.has_note_near(&self.ordering_notes, line)
    }

    /// `// invariant:` comment on `line` or within the window above it.
    pub fn has_invariant_note(&self, line: u32) -> bool {
        self.has_note_near(&self.invariant_notes, line)
    }
}

/// Extracts rule names from `aligraph::allow(rule-a, rule-b)` occurrences
/// inside a comment.
/// Extends every line in `notes` down through the contiguous comment-only
/// lines that follow it, so the *end* of a wrapped comment block carries the
/// marker too.
fn propagate_through_comments(notes: &mut HashSet<u32>, comment_lines: &HashSet<u32>) {
    let starts: Vec<u32> = notes.iter().copied().collect();
    for start in starts {
        let mut l = start + 1;
        while comment_lines.contains(&l) {
            notes.insert(l);
            l += 1;
        }
    }
}

fn parse_waivers(comment: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("aligraph::allow(") {
        let after = &rest[pos + "aligraph::allow(".len()..];
        if let Some(end) = after.find(')') {
            let reason = after[end + 1..]
                .strip_prefix(':')
                .map(|r| r.trim_start().to_string())
                .unwrap_or_default();
            for name in after[..end].split(',') {
                let name = name.trim();
                if !name.is_empty() {
                    out.push((name.to_string(), reason.clone()));
                }
            }
            rest = &after[end..];
        } else {
            break;
        }
    }
    out
}

/// Finds `(start, end)` line spans of items annotated `#[cfg(test)]` —
/// scans for the attribute, then brace-matches the following item body.
fn find_cfg_test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let code: Vec<&Token> = tokens.iter().filter(|t| t.kind != TokenKind::Comment).collect();
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        // `# [ cfg ( test ) ]`
        let is_cfg_test = code[i].kind == TokenKind::Pound
            && code.get(i + 1).is_some_and(|t| t.kind == TokenKind::Punct('['))
            && code.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && code.get(i + 3).is_some_and(|t| t.kind == TokenKind::Punct('('))
            && code.get(i + 4).is_some_and(|t| t.is_ident("test"))
            && code.get(i + 5).is_some_and(|t| t.kind == TokenKind::Punct(')'));
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = code[i].line;
        // Walk to the item's opening brace, then to its matching close.
        let mut j = i + 6;
        while j < code.len() && code[j].kind != TokenKind::Punct('{') {
            // `#[cfg(test)]` on a brace-less item (e.g. `use`): stop at `;`.
            if code[j].kind == TokenKind::Punct(';') {
                break;
            }
            j += 1;
        }
        if j >= code.len() || code[j].kind != TokenKind::Punct('{') {
            spans.push((start_line, code.get(j).map_or(start_line, |t| t.line)));
            i = j + 1;
            continue;
        }
        let mut depth = 0i32;
        let mut end_line = code[j].line;
        while j < code.len() {
            match code[j].kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        end_line = code[j].line;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        spans.push((start_line, end_line));
        i = j + 1;
    }
    spans
}

/// A named lint rule.
pub struct Rule {
    /// Stable rule name (used in waivers and diagnostics).
    pub name: &'static str,
    /// One-line description for `--list-rules`.
    pub description: &'static str,
    check: fn(&FileCtx, &mut Vec<Violation>),
}

impl std::fmt::Debug for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rule").field("name", &self.name).finish()
    }
}

/// The token-level rule catalogue, in diagnostic order. The interprocedural
/// rule (`determinism-taint`) lives in the [`crate::taint`] pass;
/// [`crate::analysis_rules`] lists the whole catalogue. The old purely
/// local `no-wallclock-in-seeded-paths`/`no-entropy` rules were subsumed by
/// `determinism-taint`, which tracks entropy/wall-clock *flow* through the
/// workspace call graph instead of flagging every token.
pub fn all_rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "no-unwrap-in-lib",
            description: "no unwrap/panic! in non-test library code; expect() needs an \
                          `// invariant:` comment",
            check: check_unwrap,
        },
        Rule {
            name: "relaxed-needs-justification",
            description: "every atomic Ordering:: site carries a `// ordering:` comment",
            check: check_ordering,
        },
        Rule {
            name: "forbid-unsafe",
            description: "no unsafe code; crate roots declare #![forbid(unsafe_code)]",
            check: check_unsafe,
        },
        Rule {
            name: "telemetry-never-branches",
            description: "no control flow on registry/metric reads outside crates/telemetry",
            check: check_telemetry_branch,
        },
        Rule {
            name: "backoff-needs-cap",
            description: "retry/backoff loops must reference a cap, deadline, or \
                          exhaustion check — no unbounded retry",
            check: check_backoff_cap,
        },
    ]
}

/// Runs every rule (or the named subset) over one file's context,
/// *without* filtering waived sites — the JSON output keeps waived
/// diagnostics as an audit trail.
pub fn check_file_raw(ctx: &FileCtx, only: Option<&[String]>) -> Vec<Violation> {
    let mut raw = Vec::new();
    for rule in all_rules() {
        if only.is_some_and(|names| !names.iter().any(|n| n == rule.name)) {
            continue;
        }
        (rule.check)(ctx, &mut raw);
    }
    raw.sort_by_key(|v| (v.line, v.rule));
    raw
}

/// Runs every rule (or the named subset) over one file's context,
/// filtering waived sites.
pub fn check_file(ctx: &FileCtx, only: Option<&[String]>) -> Vec<Violation> {
    let mut raw = check_file_raw(ctx, only);
    raw.retain(|v| !ctx.is_waived(v.rule, v.line));
    raw
}

fn push(out: &mut Vec<Violation>, ctx: &FileCtx, line: u32, rule: &'static str, msg: String) {
    out.push(Violation { path: ctx.path.clone(), line, rule, message: msg });
}

// ------------------------------------------------------------------- unwrap

fn check_unwrap(ctx: &FileCtx, out: &mut Vec<Violation>) {
    // Library code only: binaries and the bench/cli crates may panic at the
    // top level, tests assert freely.
    if ctx.class.is_bin_like || ctx.class.is_test_tree {
        return;
    }
    let code = &ctx.code;
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident || ctx.is_test_line(t.line) {
            continue;
        }
        let dot_before = i > 0 && code[i - 1].kind == TokenKind::Punct('.');
        let paren_after = code.get(i + 1).is_some_and(|n| n.kind == TokenKind::Punct('('));
        let bang_after = code.get(i + 1).is_some_and(|n| n.kind == TokenKind::Bang);
        match t.text.as_str() {
            "unwrap" if dot_before && paren_after => push(
                out,
                ctx,
                t.line,
                "no-unwrap-in-lib",
                "`.unwrap()` in library code — return a Result, or use `.expect()` \
                 with an `// invariant:` comment"
                    .to_string(),
            ),
            "expect" if dot_before && paren_after && !ctx.has_invariant_note(t.line) => push(
                out,
                ctx,
                t.line,
                "no-unwrap-in-lib",
                "`.expect()` in library code without an `// invariant:` comment \
                 documenting why it cannot fail"
                    .to_string(),
            ),
            "panic" | "todo" | "unimplemented" if bang_after => push(
                out,
                ctx,
                t.line,
                "no-unwrap-in-lib",
                format!("`{}!` in library code — return an error instead, or waive", t.text),
            ),
            _ => {}
        }
    }
}

// ----------------------------------------------------------------- ordering

const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn check_ordering(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let code = &ctx.code;
    for (i, t) in code.iter().enumerate() {
        // `Ordering :: <atomic variant>` — the variant names disambiguate
        // `std::sync::atomic::Ordering` from `std::cmp::Ordering`.
        if !t.is_ident("Ordering") || ctx.is_test_line(t.line) {
            continue;
        }
        let Some(variant) = code
            .get(i + 1)
            .filter(|s| s.kind == TokenKind::PathSep)
            .and_then(|_| code.get(i + 2))
            .filter(|v| v.kind == TokenKind::Ident && ATOMIC_ORDERINGS.contains(&v.text.as_str()))
        else {
            continue;
        };
        if !ctx.has_ordering_note(t.line) {
            push(
                out,
                ctx,
                t.line,
                "relaxed-needs-justification",
                format!(
                    "atomic `Ordering::{}` without an `// ordering:` comment justifying \
                     the memory ordering",
                    variant.text
                ),
            );
        }
    }
}

// ------------------------------------------------------------------- unsafe

fn check_unsafe(ctx: &FileCtx, out: &mut Vec<Violation>) {
    for t in &ctx.code {
        if t.is_ident("unsafe") {
            push(
                out,
                ctx,
                t.line,
                "forbid-unsafe",
                "`unsafe` code — this workspace is 100% safe Rust and locked that in".to_string(),
            );
        }
    }
    if ctx.class.is_crate_root && !has_forbid_unsafe_attr(&ctx.code) {
        push(
            out,
            ctx,
            1,
            "forbid-unsafe",
            "crate root missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }
}

/// Scans for `# ! [ forbid ( unsafe_code ) ]` anywhere in the file (inner
/// attributes sit at the top, but position is rustc's business).
fn has_forbid_unsafe_attr(code: &[Token]) -> bool {
    code.windows(7).any(|w| {
        w[0].kind == TokenKind::Pound
            && w[1].kind == TokenKind::Bang
            && w[2].kind == TokenKind::Punct('[')
            && w[3].is_ident("forbid")
            && w[4].kind == TokenKind::Punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].kind == TokenKind::Punct(')')
    })
}

// ------------------------------------------------- telemetry-never-branches

/// Method names that read metric state. `snapshot` additionally requires a
/// metrics-ish receiver, because graph snapshots share the name.
const METRIC_READS: &[&str] = &["percentile", "render_text", "to_json", "total_ops"];
const METRIC_RECEIVERS: &[&str] =
    &["registry", "stats", "meter", "metrics", "telemetry", "hist", "counter", "gauge"];

fn check_telemetry_branch(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if ctx.class.crate_name == "telemetry" || ctx.class.is_test_tree {
        return;
    }
    let code = &ctx.code;
    let mut i = 0usize;
    while i < code.len() {
        let t = &code[i];
        let is_branch = t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "if" | "while" | "match")
            && !ctx.is_test_line(t.line);
        if !is_branch {
            i += 1;
            continue;
        }
        // The condition region: tokens up to the block `{` at depth 0.
        let mut j = i + 1;
        let mut paren = 0i32;
        while j < code.len() {
            match code[j].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => paren += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => paren -= 1,
                TokenKind::Punct('{') if paren == 0 => break,
                TokenKind::Punct(';') if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        for k in i + 1..j {
            let c = &code[k];
            if c.kind != TokenKind::Ident {
                continue;
            }
            let called = code.get(k + 1).is_some_and(|n| n.kind == TokenKind::Punct('('));
            if !called {
                continue;
            }
            let flagged = METRIC_READS.contains(&c.text.as_str())
                || (c.text == "snapshot" && has_metric_receiver(code, k));
            if flagged {
                push(
                    out,
                    ctx,
                    c.line,
                    "telemetry-never-branches",
                    format!(
                        "control flow on metric read `{}()` — telemetry records but \
                         never branches (PR 3 contract)",
                        c.text
                    ),
                );
            }
        }
        i = j + 1;
    }
}

/// True when the tokens before `.name(` look like a metrics receiver
/// (`registry.snapshot()`, `self.stats.snapshot()`, `ps.stats().snapshot()`).
fn has_metric_receiver(code: &[Token], call_idx: usize) -> bool {
    let lo = call_idx.saturating_sub(6);
    code[lo..call_idx]
        .iter()
        .any(|t| t.kind == TokenKind::Ident && METRIC_RECEIVERS.contains(&t.text.as_str()))
}

// --------------------------------------------------------- backoff-needs-cap

/// Identifier substrings marking a loop as a retry/backoff loop.
const BACKOFF_TRIGGERS: &[&str] = &["backoff", "retry", "retries", "sleep"];
/// Identifier substrings that count as bounding the loop: an attempt cap, a
/// deadline, or an explicit exhaustion check.
const BACKOFF_CAPS: &[&str] = &["cap", "max", "deadline", "exhausted", "attempts", "budget"];

fn ident_has_any(text: &str, needles: &[&str]) -> bool {
    let lower = text.to_ascii_lowercase();
    needles.iter().any(|n| lower.contains(n))
}

/// `loop { … }` / `while … { … }` bodies that mention retrying or backing
/// off must also reference something that bounds them (`MAX_*`, `*_cap`,
/// `deadline`, `exhausted(…)`, `attempts`); an unbounded retry loop spins
/// forever the moment the chaos plane makes a channel lossy enough.
fn check_backoff_cap(ctx: &FileCtx, out: &mut Vec<Violation>) {
    // Library code only: bench/CLI top-level retry loops answer to a human.
    if ctx.class.is_bin_like || ctx.class.is_test_tree {
        return;
    }
    let code = &ctx.code;
    let mut i = 0usize;
    while i < code.len() {
        let t = &code[i];
        let is_loop = t.kind == TokenKind::Ident
            && matches!(t.text.as_str(), "loop" | "while")
            && !ctx.is_test_line(t.line);
        if !is_loop {
            i += 1;
            continue;
        }
        // Walk past the condition (if any) to the body's `{`, then
        // brace-match the body. The condition region counts toward the
        // scan: `while attempt < max_attempts { retry() }` is bounded.
        let mut j = i + 1;
        let mut paren = 0i32;
        while j < code.len() {
            match code[j].kind {
                TokenKind::Punct('(') | TokenKind::Punct('[') => paren += 1,
                TokenKind::Punct(')') | TokenKind::Punct(']') => paren -= 1,
                TokenKind::Punct('{') if paren == 0 => break,
                TokenKind::Punct(';') if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= code.len() || code[j].kind != TokenKind::Punct('{') {
            i = j + 1;
            continue;
        }
        let mut depth = 0i32;
        let mut end = j;
        while end < code.len() {
            match code[end].kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        let mut trigger: Option<&Token> = None;
        let mut capped = false;
        for c in &code[i + 1..end.min(code.len())] {
            if c.kind != TokenKind::Ident {
                continue;
            }
            if trigger.is_none() && ident_has_any(&c.text, BACKOFF_TRIGGERS) {
                trigger = Some(c);
            }
            if ident_has_any(&c.text, BACKOFF_CAPS) {
                capped = true;
            }
        }
        if let Some(tr) = trigger {
            if !capped {
                push(
                    out,
                    ctx,
                    t.line,
                    "backoff-needs-cap",
                    format!(
                        "retry/backoff loop (`{}` at line {}) without a visible cap, \
                         deadline, or exhaustion check — bound it (e.g. \
                         `policy.exhausted(attempt)` or a MAX_* clamp) or waive",
                        tr.text, tr.line
                    ),
                );
            }
        }
        // Continue scanning *inside* the loop too (nested loops).
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Violation> {
        check_file(&FileCtx::new(path, src), None)
    }

    fn rules_hit(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|v| v.rule).collect()
    }

    // Each rule has fixture-based positive and waived-negative self-tests;
    // the fixtures live under crates/lint/fixtures/ and are excluded from
    // the workspace walk.

    #[test]
    fn fixture_unwrap() {
        let bad = include_str!("../fixtures/unwrap_bad.rs");
        let v = run("crates/graph/src/fixture.rs", bad);
        let hits = rules_hit(&v).iter().filter(|r| **r == "no-unwrap-in-lib").count();
        assert_eq!(hits, 3, "unwrap, undocumented expect, panic!: {v:?}");
        let waived = include_str!("../fixtures/unwrap_waived.rs");
        let v = run("crates/graph/src/fixture.rs", waived);
        assert!(!rules_hit(&v).contains(&"no-unwrap-in-lib"), "{v:?}");
        // Test code and binaries assert freely.
        assert!(run("tests/fixture.rs", bad).is_empty());
        assert!(run("crates/cli/src/fixture.rs", bad).is_empty());
    }

    #[test]
    fn fixture_ordering() {
        let bad = include_str!("../fixtures/ordering_bad.rs");
        let v = run("crates/storage/src/fixture.rs", bad);
        assert!(rules_hit(&v).contains(&"relaxed-needs-justification"), "{v:?}");
        // std::cmp::Ordering is not an atomic ordering.
        assert!(!bad.contains("cmp_hit") || !v.iter().any(|v| v.message.contains("Equal")));
        let ok = include_str!("../fixtures/ordering_justified.rs");
        let v = run("crates/storage/src/fixture.rs", ok);
        assert!(!rules_hit(&v).contains(&"relaxed-needs-justification"), "{v:?}");
    }

    #[test]
    fn fixture_unsafe() {
        let bad = include_str!("../fixtures/unsafe_bad.rs");
        let v = run("crates/tensor/src/lib.rs", bad);
        let hits = rules_hit(&v).iter().filter(|r| **r == "forbid-unsafe").count();
        assert_eq!(hits, 2, "unsafe block + missing crate-root attr: {v:?}");
        let ok = include_str!("../fixtures/unsafe_ok.rs");
        let v = run("crates/tensor/src/lib.rs", ok);
        assert!(!rules_hit(&v).contains(&"forbid-unsafe"), "{v:?}");
        // Non-crate-root files don't need the attribute.
        let empty = "pub fn f() {}\n";
        assert!(run("crates/tensor/src/matrix.rs", empty).is_empty());
    }

    #[test]
    fn fixture_telemetry_branch() {
        let bad = include_str!("../fixtures/telemetry_branch_bad.rs");
        let v = run("crates/serving/src/fixture.rs", bad);
        assert!(rules_hit(&v).contains(&"telemetry-never-branches"), "{v:?}");
        // Inside crates/telemetry the registry may inspect itself.
        assert!(run("crates/telemetry/src/fixture.rs", bad).is_empty());
        let ok = include_str!("../fixtures/telemetry_branch_ok.rs");
        let v = run("crates/serving/src/fixture.rs", ok);
        assert!(!rules_hit(&v).contains(&"telemetry-never-branches"), "{v:?}");
    }

    #[test]
    fn fixture_backoff() {
        let bad = include_str!("../fixtures/backoff_bad.rs");
        let v = run("crates/chaos/src/fixture.rs", bad);
        let hits = rules_hit(&v).iter().filter(|r| **r == "backoff-needs-cap").count();
        assert_eq!(hits, 2, "uncapped resend loop + bare sleep poll: {v:?}");
        let waived = include_str!("../fixtures/backoff_waived.rs");
        let v = run("crates/chaos/src/fixture.rs", waived);
        assert!(!rules_hit(&v).contains(&"backoff-needs-cap"), "{v:?}");
        // Bench/CLI retry loops answer to a human; test code polls freely.
        assert!(run("crates/cli/src/fixture.rs", bad).is_empty());
        assert!(run("tests/fixture.rs", bad).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        let v = run("crates/graph/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn waiver_covers_same_and_next_line() {
        let src = "fn f() {\n    // aligraph::allow(no-unwrap-in-lib): fixture\n    x.unwrap();\n    y.unwrap(); // aligraph::allow(no-unwrap-in-lib): fixture\n    z.unwrap();\n}\n";
        let v = run("crates/graph/src/x.rs", src);
        assert_eq!(v.len(), 1, "only the unwaived line flags: {v:?}");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn doc_comment_examples_do_not_flag() {
        let src = "/// Call `.unwrap()` or `Instant::now()` at your peril.\npub fn f() {}\n";
        let v = run("crates/graph/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn file_class_covers_layout() {
        assert_eq!(FileClass::of("crates/storage/src/lru.rs").crate_name, "storage");
        assert!(FileClass::of("crates/storage/src/lib.rs").is_crate_root);
        assert!(FileClass::of("tests/property_tests.rs").is_test_tree);
        assert!(FileClass::of("crates/bench/src/bin/table4_sampling.rs").is_bin_like);
        assert!(FileClass::of("crates/cli/src/commands.rs").is_bin_like);
        assert!(FileClass::of("examples/demo.rs").is_bin_like);
        assert_eq!(FileClass::of("src/lib.rs").crate_name, "suite");
    }
}
