//! # aligraph-lint
//!
//! In-repo correctness tooling for the AliGraph reproduction, in two
//! halves (DESIGN.md §2.18):
//!
//! 1. **Static analysis v2** — [`lexer`] is a small hand-rolled Rust lexer
//!    (string/comment/attribute aware, no `syn`, consistent with the
//!    offline `vendor/` policy); [`parse`] recovers `fn` items, call
//!    sites, and determinism events from the token stream; [`graph`]
//!    links them into a workspace-wide call graph. One interprocedural
//!    pass runs on it — [`taint`] (`determinism-taint`:
//!    wall-clock/entropy/unordered-iteration flow into seeded paths, with
//!    the full source→sink call chain). The token-level rules in [`rules`]
//!    (`no-unwrap-in-lib`, `relaxed-needs-justification`, `forbid-unsafe`,
//!    `telemetry-never-branches`, `backoff-needs-cap`) still cover the
//!    single-site invariants. [`json`] renders everything as SARIF-lite
//!    JSON diffed against `ci/lint-baseline.json`.
//!
//! 2. **Concurrency checking** — [`loom`] is a mini-loom: a seeded
//!    virtual-thread scheduler that drives the lock-free storage bucket
//!    executor, the telemetry striped counter, and the sparse parameter
//!    server through thousands of interleavings per seed, checking every
//!    history against a sequential shadow model (linearizability of
//!    totals, no lost updates, snapshot monotonicity, bit-exact replica
//!    freshness).
//!
//! The `aligraph-lint` binary wires both into CI:
//!
//! ```text
//! aligraph-lint --json                     # static analysis → SARIF-lite
//! aligraph-lint --deny-all                 # human-readable gate
//! aligraph-lint concurrency --seed 42 --interleavings 1000
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod graph;
pub mod json;
pub mod lexer;
pub mod loom;
pub mod parse;
pub mod rules;
pub mod taint;
pub mod walk;

pub use graph::{Diagnostic, Workspace};
pub use json::AnalysisReport;
pub use rules::{all_rules, check_file, FileClass, FileCtx, Violation};

use std::io;
use std::path::Path;

/// The interprocedural rule catalogue: `(name, description)` pairs,
/// complementing [`all_rules`] for `--list-rules` and rule filtering.
pub fn analysis_rules() -> Vec<(&'static str, &'static str)> {
    vec![(
        taint::RULE,
        "no wall-clock/entropy/thread-id/unordered-iteration flow into seeded paths \
             (workspace call-graph taint)",
    )]
}

/// Runs the full static analysis (token rules + call-graph passes) over
/// every first-party source under `root`. `only` restricts to the named
/// rules (token or interprocedural). Waived diagnostics are included in
/// the report, marked with their waiver reason.
pub fn analyze_workspace(root: &Path, only: Option<&[String]>) -> io::Result<AnalysisReport> {
    let files = walk::rust_sources(root)?;
    let mut ctxs = Vec::with_capacity(files.len());
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))?;
        ctxs.push(FileCtx::new(&rel.to_string_lossy().replace('\\', "/"), &src));
    }
    let wants = |name: &str| only.is_none_or(|o| o.iter().any(|n| n == name));
    let mut diags: Vec<Diagnostic> = Vec::new();
    for ctx in &ctxs {
        for v in rules::check_file_raw(ctx, only) {
            let waived = ctx.waiver_reason(v.rule, v.line).map(str::to_string);
            diags.push(Diagnostic {
                rule: v.rule,
                path: v.path,
                line: v.line,
                message: v.message,
                chain: Vec::new(),
                waived,
            });
        }
    }
    let ws = Workspace::build(ctxs);
    if wants(taint::RULE) {
        taint::check(&ws, &mut diags);
    }
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(AnalysisReport {
        files_scanned: ws.files.len(),
        functions: ws.fns.len(),
        diagnostics: diags,
    })
}
