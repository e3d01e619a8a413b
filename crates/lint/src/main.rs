//! The `aligraph-lint` binary: the mini-loom runner.

use aligraph_lint::loom::combiner::CombinerWorkload;
use aligraph_lint::loom::counter::CounterWorkload;
use aligraph_lint::loom::overlay::OverlayWorkload;
use aligraph_lint::loom::ps::PsWorkload;
use aligraph_lint::loom::swap::SwapWorkload;
use aligraph_lint::loom::topology::TopologyWorkload;
use aligraph_lint::loom::{Explorer, Workload};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "concurrency" => run_concurrency(rest),
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: aligraph-lint concurrency [--seed N] [--interleavings N] \
         [--target combiner|counter|ps|overlay|swap|topology|all]"
    );
    ExitCode::from(2)
}

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
    let targets = ["all", "combiner", "counter", "ps", "overlay", "swap", "topology"];
    if !targets.contains(&target.as_str()) {
        return usage();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
