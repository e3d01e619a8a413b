//! The `channel-protocol` interprocedural pass.
//!
//! The chaos plane wraps six inter-shard channel families (tags 0–5: PS
//! push/pull, bucket submissions, serving fetches, streaming ingest,
//! migration) and may drop, duplicate, or reorder anything sent through
//! them. PRs 5–8 survive that because every send carries a `ChannelSeqs`
//! sequence number and crosses the plane through its one delivery driver,
//! `FaultPlane::deliver`, whose signature demands the `RetryPolicy` and
//! `RecoveryMode` (the compiler checks that half). This pass pins what the
//! compiler cannot:
//!
//! * **Driver calls** — a function calling `.deliver(…)` must have a
//!   sequence identifier in scope. When the sequence arrives as a
//!   parameter, some transitive caller must contain a sequence *origin*
//!   (`ChannelSeqs`, `Sequencer`, `next_push`, `next_pull`, `next_seq`) —
//!   a delivery fed by an unsequenced caller is exactly the bug that turns
//!   a duplicated delivery into a double-apply.
//! * **Raw sends** — a `.send(…)` in library code whose message carries no
//!   `seq` identifier is flagged, unless the endpoint is an ack/reply
//!   channel (response channels are request-scoped; the request's sequence
//!   number already dedupes them). Control-plane sends that are
//!   deliberately unsequenced take an `aligraph::allow(channel-protocol)`
//!   waiver, which the JSON output keeps auditable.

use crate::graph::{Diagnostic, Workspace};

/// Rule name (stable; used in waivers, JSON, and the baseline).
pub const RULE: &str = "channel-protocol";

/// Identifiers that *originate* a sequence number (as opposed to merely
/// carrying one).
const SEQ_ORIGINS: &[&str] = &["ChannelSeqs", "Sequencer", "next_push", "next_pull", "next_seq"];

/// Receiver-name fragments marking a response/ack endpoint.
const REPLY_RECEIVERS: &[&str] = &["reply", "ack", "resp", "done"];

/// Runs the pass, appending diagnostics (waived ones included, marked).
pub fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for i in 0..ws.fns.len() {
        if !ws.is_traversal_node(i) {
            continue;
        }
        check_delivers(ws, i, out);
        check_sends(ws, i, out);
    }
}

/// True when the fn mentions a sequence identifier anywhere.
fn has_seq_ident(ws: &Workspace, i: usize) -> bool {
    ws.fns[i].item.idents.iter().any(|t| is_seq_ident(t))
}

fn is_seq_ident(t: &str) -> bool {
    t == "seq" || t == "seqs" || t.ends_with("_seq") || t.ends_with("_seqs")
}

fn has_any(ws: &Workspace, i: usize, tokens: &[&str]) -> bool {
    tokens.iter().any(|t| ws.fns[i].item.idents.contains(*t))
}

fn check_delivers(ws: &Workspace, i: usize, out: &mut Vec<Diagnostic>) {
    if ws.fns[i].item.delivers.is_empty() {
        return;
    }
    let problem = if !has_seq_ident(ws, i) {
        "no sequence identifier in scope — the delivery is not tied to a `ChannelSeqs` assignment"
            .to_string()
    } else if !has_any(ws, i, SEQ_ORIGINS) {
        // The sequence is a parameter: some caller must originate it.
        let parents = ws.callers_bfs(i);
        let caller_count = parents.len() - 1;
        let fed = parents.keys().any(|&c| {
            c != i && (has_any(ws, c, SEQ_ORIGINS) || !ws.fns[c].item.delivers.is_empty())
        });
        // Vacuous pass when no non-test caller exists yet (e.g. a helper
        // only exercised from tests — the test is the sequencer).
        if caller_count == 0 || fed {
            return;
        }
        format!(
            "sequence number arrives as a parameter but none of its {caller_count} \
             caller(s) contains a `ChannelSeqs`/`next_*` origin"
        )
    } else {
        return;
    };
    let file = &ws.files[ws.fns[i].file];
    let line = ws.fns[i].item.delivers[0];
    out.push(Diagnostic {
        rule: RULE,
        path: file.path.clone(),
        line,
        message: format!(
            "`{}` sends through the chaos plane's `.deliver(…)` but {problem}",
            ws.qualified_name(i)
        ),
        chain: Vec::new(),
        waived: file.waiver_reason(RULE, line).map(str::to_string),
    });
}

fn check_sends(ws: &Workspace, i: usize, out: &mut Vec<Diagnostic>) {
    let file = &ws.files[ws.fns[i].file];
    for s in &ws.fns[i].item.sends {
        if file.is_test_line(s.line) || s.carries_seq {
            continue;
        }
        let recv = s.receiver.to_ascii_lowercase();
        if REPLY_RECEIVERS.iter().any(|r| recv.contains(r)) {
            continue;
        }
        out.push(Diagnostic {
            rule: RULE,
            path: file.path.clone(),
            line: s.line,
            message: format!(
                "raw `.send(…)` on `{}` in `{}` carries no sequence number — route it \
                 through `ChannelSeqs` (or waive if it is deliberately unsequenced \
                 control-plane traffic)",
                s.receiver,
                ws.qualified_name(i)
            ),
            chain: Vec::new(),
            waived: file.waiver_reason(RULE, s.line).map(str::to_string),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileCtx;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let ws = Workspace::build(files.iter().map(|(p, s)| FileCtx::new(p, s)).collect());
        let mut out = Vec::new();
        check(&ws, &mut out);
        out
    }

    fn active(out: &[Diagnostic]) -> usize {
        out.iter().filter(|d| d.waived.is_none()).count()
    }

    #[test]
    fn sequenced_driver_call_is_clean() {
        let out = run(&[(
            "crates/runtime/src/p.rs",
            "pub fn push(seqs: &mut ChannelSeqs, policy: &RetryPolicy, plane: &FaultPlane) {\n\
                 let seq = seqs.next_push();\n\
                 plane.deliver(0, seq, policy, RecoveryMode::Full, HopKind::Acked, || {}).ok();\n\
             }\n",
        )]);
        assert_eq!(active(&out), 0, "{out:?}");
    }

    #[test]
    fn driver_call_without_a_sequence_is_flagged() {
        let out = run(&[(
            "crates/runtime/src/q.rs",
            "pub fn fire(plane: &FaultPlane, policy: &RetryPolicy) {\n\
                 plane.deliver(0, 0, policy, RecoveryMode::Full, HopKind::Acked, || {}).ok();\n\
             }\n",
        )]);
        assert_eq!(active(&out), 1, "{out:?}");
        assert!(out[0].message.contains("no sequence identifier"), "{out:?}");
    }

    #[test]
    fn param_seq_needs_an_originating_caller() {
        const HOP: &str = "pub fn hop(seq: u64, plane: &FaultPlane, policy: &RetryPolicy) {\n\
                 plane.deliver(2, seq, policy, RecoveryMode::Full, HopKind::Unacked, || {}).ok();\n\
             }\n";
        // Caller without any ChannelSeqs origin → flagged.
        let bad = run(&[(
            "crates/storage/src/r.rs",
            &format!(
                "{HOP}pub fn submit(plane: &FaultPlane, policy: &RetryPolicy) {{ \
                 hop(9, plane, policy); }}\n"
            ),
        )]);
        assert_eq!(active(&bad), 1, "{bad:?}");

        // Caller that draws from ChannelSeqs → clean.
        let ok = run(&[(
            "crates/storage/src/r.rs",
            &format!(
                "{HOP}pub fn submit(seqs: &mut ChannelSeqs, plane: &FaultPlane, \
                 policy: &RetryPolicy) {{\n hop(seqs.next_push(), plane, policy);\n}}\n"
            ),
        )]);
        assert_eq!(active(&ok), 0, "{ok:?}");

        // No callers at all → vacuous pass (the test is the sequencer).
        let orphan = run(&[("crates/storage/src/r.rs", HOP)]);
        assert_eq!(active(&orphan), 0, "{orphan:?}");
    }

    #[test]
    fn a_same_named_free_fn_in_another_crate_feeds_a_driver_call() {
        // Serving's `worker_loop` before its counter was named `next_seq`:
        // a sequence identifier, no origin, one caller without one either.
        const SERVING: (&str, &str) = (
            "crates/serving/src/service.rs",
            "pub fn start(plane: &FaultPlane) { worker_loop(plane); }\n\
             fn worker_loop(plane: &FaultPlane) {\n\
                 let mut remote_seq = 0u64;\n\
                 let seq = remote_seq;\n\
                 plane.deliver(3, seq, &POLICY, RecoveryMode::Full, HopKind::Unacked, || {}).ok();\n\
             }\n",
        );
        assert_eq!(active(&run(&[SERVING])), 1);
        // Free-fn calls resolve by bare name across crates, so another
        // crate's caller of *its* `worker_loop` counted as this one's.
        let fed = run(&[
            SERVING,
            (
                "crates/streaming/src/ingest.rs",
                "pub fn spawn() { let next_seq = 0u64; worker_loop(next_seq); }\n\
                 fn worker_loop(first: u64) {}\n",
            ),
        ]);
        assert_eq!(active(&fed), 0, "{fed:?}");
        // The fix: the counter is an origin and is named as one.
        let named = (SERVING.0, &*SERVING.1.replace("remote_seq", "next_seq"));
        assert_eq!(active(&run(&[named])), 0);
    }

    #[test]
    fn unsequenced_send_is_flagged_but_seq_and_reply_sends_pass() {
        let out = run(&[(
            "crates/streaming/src/s.rs",
            "pub fn go(tx: &Sender<Msg>, reply_tx: &Sender<u64>) {\n\
                 tx.send(Msg::Batch { seq, rows }).ok();\n\
                 reply_tx.send(7).ok();\n\
                 tx.send(Msg::Bare(1)).ok();\n\
             }\n",
        )]);
        assert_eq!(active(&out), 1, "{out:?}");
        assert_eq!(out[0].line, 4);
    }

    #[test]
    fn waived_control_plane_send_is_audited_not_active() {
        let out = run(&[(
            "crates/streaming/src/t.rs",
            "pub fn adopt(tx: &Sender<Msg>) {\n\
                 // aligraph::allow(channel-protocol): control-plane handoff, idempotent\n\
                 tx.send(Msg::Adopt).ok();\n\
             }\n",
        )]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(active(&out), 0);
        assert_eq!(out[0].waived.as_deref(), Some("control-plane handoff, idempotent"));
    }
}
