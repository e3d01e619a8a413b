//! # aligraph-cli
//!
//! The `aligraph` command: a thin, dependency-free front door to the
//! platform for downstream users who want graphs, partitions, embeddings
//! and metrics without writing Rust.
//!
//! ```text
//! aligraph generate  --kind taobao --scale 0.01 --out graph.tsv
//! aligraph stats     --graph graph.tsv
//! aligraph partition --graph graph.tsv --workers 8 --algo metis
//! aligraph train     --graph graph.tsv --model graphsage --out emb.tsv
//! aligraph eval      --graph graph.tsv --model deepwalk
//! aligraph automl    --graph graph.tsv
//! ```
//!
//! Every subcommand accepts `--metrics-json PATH`: the run's telemetry
//! registry (one [`aligraph_telemetry::Registry`] per invocation, threaded
//! through storage, sampling, serving and runtime) is snapshotted after the
//! command succeeds and written as stable JSON
//! (`{"version":1,"command":...,"metrics":[...]}`). Commands that register
//! nothing produce an empty `metrics` array.
//!
//! The library half exposes the argument parser and command runners so the
//! behaviour is unit-testable; `main.rs` is a two-line shim.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod commands;

pub use args::{Args, CliError, CommonArgs, CommonDefaults};

use aligraph_telemetry::{Json, Registry};
use std::sync::Arc;

/// Entry point shared by `main` and the tests: parses, dispatches, and (on
/// success) dumps the command's telemetry snapshot if `--metrics-json` was
/// given.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv)?;
    let registry = Arc::new(Registry::new());
    let out = match args.command.as_str() {
        "generate" => commands::generate(&args),
        "stats" => commands::stats(&args),
        "partition" => commands::partition(&args),
        "train" => commands::train(&args),
        "eval" => commands::eval(&args),
        "automl" => commands::automl(&args),
        "serve-bench" => commands::serve_bench(&args, &registry),
        "serve-under-update" => commands::serve_under_update(&args, &registry),
        "train-bench" => commands::train_bench(&args, &registry),
        "rebalance-bench" => commands::rebalance_bench(&args, &registry),
        "tiered-bench" => commands::tiered_bench(&args, &registry),
        "closed-loop" => commands::closed_loop(&args, &registry),
        "metrics-demo" => commands::metrics_demo(&args, &registry),
        "help" | "--help" | "-h" => Ok(HELP.to_string()),
        other => Err(CliError::Usage(format!("unknown command `{other}`\n\n{HELP}"))),
    }?;
    let common = CommonArgs::from_args(&args, CommonDefaults::default())?;
    if let Some(path) = &common.metrics_json {
        let json = metrics_json(&args.command, &registry);
        std::fs::write(path, format!("{json}\n")).map_err(|e| {
            CliError::Runtime(format!("cannot write metrics to {}: {e}", path.display()))
        })?;
    }
    Ok(out)
}

/// The stable metrics-JSON wrapper: schema version, the command that ran,
/// and the registry snapshot's `metrics` array.
pub fn metrics_json(command: &str, registry: &Registry) -> Json {
    let snapshot = registry.snapshot();
    let metrics =
        snapshot.to_json().get("metrics").cloned().unwrap_or_else(|| Json::Arr(Vec::new()));
    Json::obj(vec![
        ("version", Json::UInt(1)),
        ("command", Json::str(command)),
        ("metrics", metrics),
    ])
}

/// Top-level usage text.
pub const HELP: &str = "\
aligraph — the AliGraph reproduction CLI

USAGE:
    aligraph <COMMAND> [--key value ...]

COMMANDS:
    generate   synthesize a graph        --kind taobao|amazon|ba [--scale F] [--seed N] --out FILE
    stats      inspect a graph           --graph FILE
    partition  partition + quality       --graph FILE [--workers N] [--algo hash|metis|vertex-cut|2d|ldg]
    train      train embeddings          --graph FILE [--model graphsage|deepwalk|node2vec|line|gatne|hep] [--dim N] [--seed N] --out FILE
    eval       link-prediction metrics   --graph FILE [--model ...] [--test-fraction F] [--seed N]
    automl     model-selection tournament --graph FILE
    serve-bench online-serving load test  [--requests N] [--clients N] [--workers N] [--scale F] [--seed N] [--delta-every-ms N] [--batch N] [--queue N] [--cache N] [--fault-seed N] [--drop-rate F] [--max-stale N]
    serve-under-update streaming-update load test [--requests N] [--clients N] [--workers N] [--scale F] [--seed N] [--update-every-ms N] [--update-adds N] [--update-attrs N] [--dim N] [--cache N] [--slo-p99-ms F] [--fault-seed N] [--drop-rate F]
    train-bench distributed-training bench [--workers N] [--scale F] [--seed N] [--epochs N] [--batches N] [--batch N] [--negatives N] [--staleness N] [--dim N] [--sparse-lr F] [--checkpoint-dir DIR] [--checkpoint-every N] [--kill-worker N] [--kill-at-step N] [--fault-seed N] [--drop-rate F] [--resident-budget BYTES]
    rebalance-bench elastic-topology bench: mid-training shard split (and optional merge) must match the static run bit-for-bit [--workers N] [--scale F] [--seed N] [--epochs N] [--split-after N] [--merge 1] [--batches N] [--batch N] [--staleness N] [--dim N] [--fault-seed N] [--drop-rate F]
    tiered-bench out-of-core scale curve: graph sizes S/4, S/2, S (hundredths of taobao-large), each trained all-hot and under a resident byte cap — peak resident bytes must hold the budget and the tight model must match the all-hot oracle bit-for-bit [--scale S] [--workers N] [--seed N] [--resident-budget BYTES] [--epochs N] [--batches N] [--batch N] [--dim N]
    closed-loop end-to-end production loop: serve -> log -> update -> incremental train -> hot-swap [--cycles N] [--users N] [--interactions N] [--workers N] [--scale F] [--seed N] [--dim N] [--hub-capacity N] [--drift-rate F] [--batches N] [--batch N] [--staleness N] [--checkpoint-dir DIR] [--slo-freshness-ticks N] [--fault-seed N] [--drop-rate F]
    metrics-demo exercise every layer and print the unified telemetry table [--workers N] [--scale F] [--seed N]
    help       this text

SHARED FLAGS:
    --metrics-json PATH   after the command succeeds, write its telemetry
                          registry snapshot as stable JSON (all commands)
    --seed N / --workers N / --scale F parse identically everywhere
    --fault-seed N        attach the deterministic chaos plane, seeded with N
                          (train-bench / serve-bench / serve-under-update /
                          closed-loop);
                          faults and retries are counted in the report and
                          metrics JSON
    --drop-rate F         per-message fault probability for the chaos plane
                          (default 0.1, clamped to [0, 0.999])
    --resident-budget N   byte cap for the cold storage tier's hot set
                          (train-bench / tiered-bench); 0 or absent keeps
                          train-bench untiered and lets tiered-bench default
                          to 10% of each point's all-hot footprint
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("aligraph-cli-run-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn run_writes_metrics_json_for_any_command() {
        let graph = tmp("run_graph.tsv");
        let metrics = tmp("run_generate_metrics.json");
        run(&argv(&[
            "generate",
            "--kind",
            "ba",
            "--scale",
            "0.002",
            "--out",
            &graph,
            "--metrics-json",
            &metrics,
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&metrics).unwrap();
        // `generate` registers nothing, so the wrapper carries an empty array.
        assert_eq!(json.trim(), r#"{"version":1,"command":"generate","metrics":[]}"#);
    }

    #[test]
    fn run_metrics_demo_dumps_all_layers_as_json() {
        let metrics = tmp("run_demo_metrics.json");
        let out =
            run(&argv(&["metrics-demo", "--scale", "0.004", "--metrics-json", &metrics])).unwrap();
        assert!(
            out.contains("one registry across storage, sampling, runtime, and serving"),
            "{out}"
        );
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.starts_with(r#"{"version":1,"command":"metrics-demo","metrics":["#), "{json}");
        for name in ["storage.access", "sampling.draws", "runtime.ps.ops", "serving.requests"] {
            assert!(json.contains(name), "metrics JSON missing {name}");
        }
    }
}
