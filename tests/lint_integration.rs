//! Workspace-level gates for `aligraph-lint` (DESIGN.md §2.18).
//!
//! These contracts are pinned here rather than inside the lint crate's unit
//! tests, because they are statements about the *whole repository*:
//!
//! 1. The workspace is analysis-clean: the token rules **and** the
//!    interprocedural passes (determinism taint, channel protocol) report
//!    zero active violations, so CI's baseline diff can only fail when a
//!    change introduces new debt.
//! 2. The call graph covers the workspace: every `pub fn` in the storage,
//!    runtime, and streaming crates resolves to a graph node, and the
//!    planted fixture workspaces still yield their exact violations —
//!    including the full source→sink call path for the taint chain.
//! 3. The mini-loom targets hold over a seed sweep: the lock-free bucket
//!    executor, the striped telemetry counter, and the sparse parameter
//!    server each survive hundreds of adversarial interleavings against
//!    their sequential shadow models — and the known-bad drain-loop variant
//!    is still caught.

use aligraph_lint::loom::bucket::BucketWorkload;
use aligraph_lint::loom::counter::CounterWorkload;
use aligraph_lint::loom::ps::PsWorkload;
use aligraph_lint::loom::swap::SwapWorkload;
use aligraph_lint::loom::Explorer;
use aligraph_lint::parse::parse_fns;
use aligraph_lint::walk::rust_sources;
use aligraph_lint::{analyze_workspace, AnalysisReport, FileCtx, Workspace};
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn analyze(rel: &str) -> AnalysisReport {
    analyze_workspace(&repo_root().join(rel), None).expect("analyze")
}

#[test]
fn workspace_is_analysis_clean() {
    let report = analyze_workspace(repo_root(), None).expect("analyze workspace");
    assert!(
        report.files_scanned > 100,
        "expected the walker to find the whole workspace, got {} files",
        report.files_scanned
    );
    assert!(
        report.functions > 1000,
        "call graph suspiciously small: {} functions",
        report.functions
    );
    let active: Vec<_> = report.active().collect();
    assert!(
        active.is_empty(),
        "workspace has {} active violation(s):\n{}",
        active.len(),
        active.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn every_pub_fn_in_core_crates_resolves_to_a_call_graph_node() {
    // Property over crates/{storage,runtime,streaming}: re-parse each file
    // independently and require every `pub fn` to land in the workspace
    // call graph under the same (qualifier, name) — a parser regression
    // that silently drops items would shrink taint coverage without any
    // rule noticing.
    let root = repo_root();
    let files = rust_sources(root).expect("walk workspace sources");
    let ctxs: Vec<FileCtx> = files
        .iter()
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(rel)).expect("read source file");
            FileCtx::new(&rel.to_string_lossy().replace('\\', "/"), &src)
        })
        .collect();
    // Collect the expected (qual, name) pairs first; `Workspace::build`
    // takes the contexts by value.
    let mut expected: Vec<(String, Option<String>, String, u32)> = Vec::new();
    for ctx in &ctxs {
        let core = ["storage", "runtime", "streaming"].contains(&ctx.class.crate_name.as_str());
        if !core || ctx.class.is_test_tree || ctx.class.is_bin_like {
            continue;
        }
        for f in parse_fns(ctx) {
            if f.is_pub {
                expected.push((ctx.path.clone(), f.qual.clone(), f.name.clone(), f.line));
            }
        }
    }
    let ws = Workspace::build(ctxs);
    for (path, qual, name, line) in &expected {
        let hits = match qual.as_deref() {
            Some(q) => ws.find_qualified(q, name),
            None => ws.find(name),
        };
        assert!(
            !hits.is_empty(),
            "pub fn `{}{}` at {}:{} missing from the call graph",
            qual.as_deref().map(|q| format!("{q}::")).unwrap_or_default(),
            name,
            path,
            line
        );
    }
    // The channel-protocol pass keys on calls of the fault plane's delivery
    // driver: it must see exactly the six senders that cross the plane,
    // or its clean sweep is a statement about nothing.
    let mut hops: Vec<String> = (0..ws.fns.len())
        .filter(|&i| ws.is_traversal_node(i) && !ws.fns[i].item.delivers.is_empty())
        .map(|i| ws.qualified_name(i))
        .collect();
    hops.sort();
    assert_eq!(hops.len(), 6, "faulted hops seen by channel-protocol: {hops:?}");
    assert!(
        expected.len() > 150,
        "property checked only {} pub fns — walk regressed?",
        expected.len()
    );
}

#[test]
fn planted_taint_fixture_reports_the_exact_chain() {
    let report = analyze("crates/lint/fixtures/taint_ws");
    let active: Vec<_> = report.active().collect();
    assert_eq!(active.len(), 1, "{active:?}");
    let d = active[0];
    assert_eq!(d.rule, "determinism-taint");
    assert_eq!(d.path, "crates/clock/src/lib.rs");
    assert_eq!(d.line, 8, "pinned to the `Instant::now` line");
    assert_eq!(d.chain.len(), 3, "plan_updates → jitter_ms → now_ms: {:?}", d.chain);
    assert!(d.chain[0].contains("plan_updates"), "{:?}", d.chain);
    assert!(d.chain[1].contains("jitter_ms"), "{:?}", d.chain);
    assert!(d.chain[2].contains("now_ms"), "{:?}", d.chain);
}

#[test]
fn planted_protocol_fixture_reports_both_contract_halves() {
    let report = analyze("crates/lint/fixtures/proto_ws");
    let active: Vec<_> = report.active().collect();
    // Two, not three, since PR 15: the delivery driver cannot be called
    // without a `RetryPolicy`, so the "no retry machinery" diagnostic went
    // to the compiler.
    assert_eq!(active.len(), 2, "{active:?}");
    assert!(active.iter().all(|d| d.rule == "channel-protocol"));
    assert!(active.iter().any(|d| d.message.contains("no sequence identifier")));
    assert!(active.iter().any(|d| d.message.contains("raw `.send(…)`")));
}

#[test]
fn json_report_round_trips_the_summary() {
    let report = analyze("crates/lint/fixtures/proto_ws");
    let json = report.to_json();
    assert!(json.contains("\"version\": 1"), "{json}");
    assert!(json.contains("\"active\": 2"), "{json}");
    assert!(json.contains("channel-protocol"), "{json}");
}

#[test]
fn lint_sweep_covers_the_streaming_crate() {
    // New crates join the walk automatically; this pins that the streaming
    // crate (seeded-path code that must never read wall-clock) is in the
    // sweep from day one rather than silently skipped.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = rust_sources(root).expect("walk workspace sources");
    let streaming: Vec<_> = files.iter().filter(|p| p.starts_with("crates/streaming")).collect();
    assert!(streaming.len() >= 5, "streaming crate missing from the lint sweep: {streaming:?}");
}

#[test]
fn lint_sweep_covers_the_loopsim_crate() {
    // The closed-loop driver is seeded-path code end to end (virtual ticks,
    // never wall clocks); pin that `aligraph-lint --deny-all` sweeps it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = rust_sources(root).expect("walk workspace sources");
    let loopsim: Vec<_> = files.iter().filter(|p| p.starts_with("crates/loopsim")).collect();
    assert!(loopsim.len() >= 5, "loopsim crate missing from the lint sweep: {loopsim:?}");
}

#[test]
fn bucket_executor_survives_interleavings() {
    let w = BucketWorkload::default();
    Explorer { seed: 7 }.explore(&w, 300).expect("no divergence");
}

#[test]
fn buggy_bucket_executor_is_caught_from_suite() {
    // The stop-before-pop drain loop loses queued updates under the right
    // schedule; the explorer must find that schedule.
    let w = BucketWorkload::buggy();
    let div = Explorer { seed: 7 }.explore(&w, 300).expect_err("divergence expected");
    assert!(div.message.contains("lost"), "unexpected divergence: {}", div.message);
}

#[test]
fn striped_counter_survives_interleavings() {
    let w = CounterWorkload::default();
    Explorer { seed: 11 }.explore(&w, 300).expect("no divergence");
}

#[test]
fn sparse_param_server_matches_shadow() {
    let w = PsWorkload::new(3, 2).expect("workload setup");
    Explorer { seed: 13 }.explore(&w, 150).expect("no divergence");
}

#[test]
fn model_swap_survives_interleavings() {
    let w = SwapWorkload::default();
    Explorer { seed: 17 }.explore(&w, 300).expect("no divergence");
}

#[test]
fn field_by_field_model_publish_is_caught_and_replays_from_suite() {
    // The split twin publishes version, rows and seal as separate steps;
    // some schedule must expose a torn model, and the recorded schedule
    // must reproduce it bit-for-bit.
    let w = SwapWorkload::buggy();
    let div = Explorer { seed: 17 }.explore(&w, 300).expect_err("divergence expected");
    assert!(div.message.contains("torn model"), "unexpected divergence: {}", div.message);
    let replayed = Explorer::replay(&w, &div.schedule).expect_err("replay reproduces");
    assert_eq!(replayed.message, div.message);
}
