//! The `aligraph-lint` binary: static-analysis gate + mini-loom runner.

#![forbid(unsafe_code)]

use aligraph_lint::loom::bucket::BucketWorkload;
use aligraph_lint::loom::combiner::CombinerWorkload;
use aligraph_lint::loom::counter::CounterWorkload;
use aligraph_lint::loom::overlay::OverlayWorkload;
use aligraph_lint::loom::ps::PsWorkload;
use aligraph_lint::loom::swap::SwapWorkload;
use aligraph_lint::loom::topology::TopologyWorkload;
use aligraph_lint::loom::{Explorer, Workload};
use aligraph_lint::{all_rules, analysis_rules, analyze_workspace};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("concurrency") {
        run_concurrency(&args[1..])
    } else {
        run_lint(&args)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  aligraph-lint [--root DIR] [--deny-all] [--json] [--rule NAME]... \
         [--list-rules]\n  \
         aligraph-lint concurrency [--seed N] [--interleavings N] \
         [--target bucket|combiner|counter|ps|overlay|swap|topology|all]"
    );
    ExitCode::from(2)
}

// ------------------------------------------------------------------- lint

fn run_lint(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny_all = false;
    let mut json = false;
    let mut only: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(d) => root = PathBuf::from(d),
                None => return usage(),
            },
            "--deny-all" => deny_all = true,
            "--json" => json = true,
            "--rule" => match it.next() {
                Some(r) => only.push(r.clone()),
                None => return usage(),
            },
            "--list-rules" => {
                for r in all_rules() {
                    println!("{:32} {}", r.name, r.description);
                }
                for (name, desc) in analysis_rules() {
                    println!("{name:32} {desc}");
                }
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    // Anchor at the workspace root so repo-relative classification holds
    // when invoked from a crate directory.
    if !root.join("Cargo.toml").exists() && root.join("../../Cargo.toml").exists() {
        root = root.join("../..");
    }

    let only = (!only.is_empty()).then_some(only);
    let report = match analyze_workspace(&root, only.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("aligraph-lint: analyzing {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    if json {
        // Machine output: CI diffs this against ci/lint-baseline.json via
        // ci/compare_lint.py; the exit code stays 0 so the comparison (not
        // the producer) decides pass/fail.
        print!("{}", report.to_json());
        return ExitCode::SUCCESS;
    }
    let active: Vec<_> = report.active().collect();
    for d in &active {
        println!("{d}");
    }
    println!(
        "aligraph-lint: {} file(s) scanned, {} fn(s) in call graph, {} violation(s), \
         {} waived{}",
        report.files_scanned,
        report.functions,
        active.len(),
        report.waived_count(),
        if deny_all { " [deny-all]" } else { "" }
    );
    if deny_all && !active.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// ------------------------------------------------------------ concurrency

fn run_concurrency(args: &[String]) -> ExitCode {
    let mut seed = 42u64;
    let mut interleavings = 1000u64;
    let mut target = "all".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--interleavings" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => interleavings = v,
                None => return usage(),
            },
            "--target" => match it.next() {
                Some(t) => target = t.clone(),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let explorer = Explorer { seed };
    let mut failed = false;
    let mut run = |name: &str, result: Result<(), aligraph_lint::loom::Divergence>| match result {
        Ok(()) => println!(
            "mini-loom: target={name} seed={seed} interleavings={interleavings} ok \
                 (0 divergences)"
        ),
        Err(d) => {
            eprintln!("mini-loom: target={name} seed={seed} FAILED: {d}");
            eprintln!("  replay schedule: {:?}", d.schedule);
            failed = true;
        }
    };

    if target == "all" || target == "bucket" {
        let w = BucketWorkload::default();
        run(w.name(), explorer.explore(&w, interleavings));
    }
    if target == "all" || target == "combiner" {
        let w = CombinerWorkload::default();
        run(w.name(), explorer.explore(&w, interleavings));
    }
    if target == "all" || target == "counter" {
        let w = CounterWorkload::default();
        run(w.name(), explorer.explore(&w, interleavings));
    }
    if target == "all" || target == "overlay" {
        let w = OverlayWorkload::default();
        run(w.name(), explorer.explore(&w, interleavings));
    }
    if target == "all" || target == "swap" {
        let w = SwapWorkload::default();
        run(w.name(), explorer.explore(&w, interleavings));
    }
    if target == "all" || target == "topology" {
        let w = TopologyWorkload::default();
        run(w.name(), explorer.explore(&w, interleavings));
    }
    // Last target: the error arm assigns `failed` directly, which is only
    // legal once the `run` closure (which also captures it) is dead.
    if target == "all" || target == "ps" {
        match PsWorkload::new(3, 3) {
            Ok(w) => run(w.name(), explorer.explore(&w, interleavings)),
            Err(e) => {
                eprintln!("mini-loom: ps setup failed: {e}");
                failed = true;
            }
        }
    }
    let targets = ["all", "bucket", "combiner", "counter", "ps", "overlay", "swap", "topology"];
    if !targets.contains(&target.as_str()) {
        return usage();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
