//! SARIF-lite JSON output for lint diagnostics.
//!
//! The writer is hand-rolled (the lint crate stays dependency-light by
//! design) and emits a stable, diff-friendly shape validated by
//! `ci/lint-schema.json`:
//!
//! ```json
//! {
//!   "version": 1,
//!   "tool": "aligraph-lint",
//!   "files_scanned": 180,
//!   "functions": 1500,
//!   "diagnostics": [
//!     {
//!       "rule": "determinism-taint",
//!       "path": "crates/x/src/y.rs",
//!       "line": 12,
//!       "message": "…",
//!       "chain": ["crates/a/src/b.rs:40 plan", "…"],
//!       "waived": false,
//!       "waiver_reason": null
//!     }
//!   ],
//!   "summary": { "active": 0, "waived": 12 }
//! }
//! ```
//!
//! `ci/compare_lint.py` fingerprints each diagnostic as
//! `rule|path|message` (line numbers drift with unrelated edits) and fails
//! CI on any active diagnostic not in the committed baseline
//! (`ci/lint-baseline.json`). Waived diagnostics are present but inert —
//! the waiver's reason rides along so the grandfather list stays
//! reviewable.

use crate::graph::Diagnostic;

/// A complete analysis run: scan stats plus every diagnostic (active and
/// waived) from the token rules and the interprocedural passes.
#[derive(Debug)]
pub struct AnalysisReport {
    /// Files lexed and parsed.
    pub files_scanned: usize,
    /// `fn` items in the call graph.
    pub functions: usize,
    /// All diagnostics, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Diagnostics not covered by a waiver — the set that gates CI.
    pub fn active(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.waived.is_none())
    }

    /// Count of waived diagnostics (the audit trail).
    pub fn waived_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.waived.is_some()).count()
    }

    /// Renders the report as SARIF-lite JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096 + self.diagnostics.len() * 256);
        s.push_str("{\n");
        s.push_str("  \"version\": 1,\n");
        s.push_str("  \"tool\": \"aligraph-lint\",\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"functions\": {},\n", self.functions));
        s.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\n");
            s.push_str(&format!("      \"rule\": {},\n", quote(d.rule)));
            s.push_str(&format!("      \"path\": {},\n", quote(&d.path)));
            s.push_str(&format!("      \"line\": {},\n", d.line));
            s.push_str(&format!("      \"message\": {},\n", quote(&d.message)));
            s.push_str("      \"chain\": [");
            for (k, frame) in d.chain.iter().enumerate() {
                if k > 0 {
                    s.push_str(", ");
                }
                s.push_str(&quote(frame));
            }
            s.push_str("],\n");
            s.push_str(&format!("      \"waived\": {},\n", d.waived.is_some()));
            s.push_str(&format!(
                "      \"waiver_reason\": {}\n",
                d.waived.as_deref().map_or("null".to_string(), quote)
            ));
            s.push_str("    }");
        }
        if !self.diagnostics.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n");
        s.push_str(&format!(
            "  \"summary\": {{ \"active\": {}, \"waived\": {} }}\n",
            self.active().count(),
            self.waived_count()
        ));
        s.push_str("}\n");
        s
    }
}

/// JSON string escaping for the subset that appears in diagnostics
/// (quotes, backslashes, control characters).
fn quote(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AnalysisReport {
        AnalysisReport {
            files_scanned: 2,
            functions: 5,
            diagnostics: vec![
                Diagnostic {
                    rule: "determinism-taint",
                    path: "crates/a/src/x.rs".into(),
                    line: 3,
                    message: "wall-clock \"now\" flows".into(),
                    chain: vec!["crates/a/src/x.rs:9 plan".into()],
                    waived: None,
                },
                Diagnostic {
                    rule: "no-unwrap-in-lib",
                    path: "crates/b/src/y.rs".into(),
                    line: 7,
                    message: "unwrap in library code".into(),
                    chain: Vec::new(),
                    waived: Some("startup only".into()),
                },
            ],
        }
    }

    #[test]
    fn json_shape_and_escaping() {
        let j = sample().to_json();
        assert!(j.contains("\"version\": 1"));
        assert!(j.contains("\"files_scanned\": 2"));
        assert!(j.contains("\"rule\": \"determinism-taint\""));
        assert!(j.contains("wall-clock \\\"now\\\" flows"), "{j}");
        assert!(j.contains("\"waived\": true"));
        assert!(j.contains("\"waiver_reason\": \"startup only\""));
        assert!(j.contains("\"summary\": { \"active\": 1, \"waived\": 1 }"));
    }

    #[test]
    fn empty_report_is_valid() {
        let r = AnalysisReport { files_scanned: 0, functions: 0, diagnostics: Vec::new() };
        let j = r.to_json();
        assert!(j.contains("\"diagnostics\": [],"), "{j}");
        assert!(j.contains("\"active\": 0"));
    }

    #[test]
    fn active_filter_excludes_waived() {
        let r = sample();
        assert_eq!(r.active().count(), 1);
        assert_eq!(r.waived_count(), 1);
    }
}
