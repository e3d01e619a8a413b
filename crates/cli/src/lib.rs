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

/// One subcommand: its name, the `--flags` it reads (every command also
/// takes `--metrics-json`) and its runner. Dispatch, the unread-flag check
/// and — by test — the [`HELP`] text all follow this table.
struct Command {
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args, &Arc<Registry>) -> Result<String, CliError>,
}

#[rustfmt::skip] // one command per entry
const COMMANDS: &[Command] = &[
    Command { name: "generate", run: |a, _| commands::generate(a),
        flags: &["kind", "scale", "seed", "reverse", "attach", "out"] },
    Command { name: "stats", run: |a, _| commands::stats(a), flags: &["graph"] },
    Command { name: "partition", run: |a, _| commands::partition(a),
        flags: &["graph", "workers", "algo"] },
    Command { name: "train", run: |a, _| commands::train(a),
        flags: &["graph", "model", "dim", "seed", "out"] },
    Command { name: "eval", run: |a, _| commands::eval(a),
        flags: &["graph", "model", "dim", "test-fraction", "seed"] },
    Command { name: "automl", run: |a, _| commands::automl(a), flags: &["graph", "dim", "seed"] },
    Command { name: "serve-bench", run: commands::serve_bench,
        flags: &["requests", "clients", "workers", "scale", "seed", "delta-every-ms", "batch",
            "queue", "cache", "fault-seed", "drop-rate", "max-stale"] },
    Command { name: "serve-under-update", run: commands::serve_under_update,
        flags: &["requests", "clients", "workers", "scale", "seed", "update-every-ms",
            "update-adds", "update-attrs", "dim", "cache", "slo-p99-ms", "fault-seed",
            "drop-rate"] },
    Command { name: "train-bench", run: commands::train_bench,
        flags: &["workers", "scale", "seed", "epochs", "batches", "batch", "negatives",
            "staleness", "dim", "sparse-lr", "checkpoint-dir", "checkpoint-every", "kill-worker",
            "kill-at-step", "fault-seed", "drop-rate", "resident-budget"] },
    Command { name: "rebalance-bench", run: commands::rebalance_bench,
        flags: &["workers", "scale", "seed", "epochs", "split-after", "merge", "batches", "batch",
            "negatives", "staleness", "dim", "sparse-lr", "fault-seed", "drop-rate"] },
    Command { name: "tiered-bench", run: commands::tiered_bench,
        flags: &["scale", "workers", "seed", "resident-budget", "epochs", "batches", "batch",
            "negatives", "staleness", "dim", "sparse-lr"] },
    Command { name: "closed-loop", run: commands::closed_loop,
        flags: &["cycles", "users", "interactions", "workers", "scale", "seed", "dim",
            "hub-capacity", "drift-rate", "batches", "batch", "staleness", "checkpoint-dir",
            "slo-freshness-ticks", "fault-seed", "drop-rate"] },
    Command { name: "metrics-demo", run: commands::metrics_demo,
        flags: &["workers", "scale", "seed"] },
];

/// Entry point shared by `main` and the tests: parses, refuses a flag the
/// command does not read (a typo must not run with the default), dispatches,
/// and (on success) dumps the command's telemetry snapshot if
/// `--metrics-json` was given.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv)?;
    if matches!(args.command.as_str(), "help" | "--help" | "-h") {
        return Ok(HELP.to_string());
    }
    let command = COMMANDS
        .iter()
        .find(|c| c.name == args.command)
        .ok_or_else(|| CliError::Usage(format!("unknown command `{}`\n\n{HELP}", args.command)))?;
    args.expect_only(command.flags)?;
    let registry = Arc::new(Registry::new());
    let out = (command.run)(&args, &registry)?;
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
    generate   synthesize a graph        --kind taobao|amazon|ba [--scale F] [--seed N] [--reverse F] [--attach N] --out FILE
    stats      inspect a graph           --graph FILE
    partition  partition + quality       --graph FILE [--workers N] [--algo hash|metis|vertex-cut|2d|ldg]
    train      train embeddings          --graph FILE [--model graphsage|deepwalk|node2vec|line|gatne|hep] [--dim N] [--seed N] --out FILE
    eval       link-prediction metrics   --graph FILE [--model ...] [--dim N] [--test-fraction F] [--seed N]
    automl     model-selection tournament --graph FILE [--dim N] [--seed N]
    serve-bench online-serving load test  [--requests N] [--clients N] [--workers N] [--scale F] [--seed N] [--delta-every-ms N] [--batch N] [--queue N] [--cache N] [--fault-seed N] [--drop-rate F] [--max-stale N]
    serve-under-update streaming-update load test [--requests N] [--clients N] [--workers N] [--scale F] [--seed N] [--update-every-ms N] [--update-adds N] [--update-attrs N] [--dim N] [--cache N] [--slo-p99-ms F] [--fault-seed N] [--drop-rate F]
    train-bench distributed-training bench [--workers N] [--scale F] [--seed N] [--epochs N] [--batches N] [--batch N] [--negatives N] [--staleness N] [--dim N] [--sparse-lr F] [--checkpoint-dir DIR] [--checkpoint-every N] [--kill-worker N] [--kill-at-step N] [--fault-seed N] [--drop-rate F] [--resident-budget BYTES]
    rebalance-bench elastic-topology bench: mid-training shard split (and optional merge) must match the static run bit-for-bit [--workers N] [--scale F] [--seed N] [--epochs N] [--split-after N] [--merge 1] [--batches N] [--batch N] [--negatives N] [--staleness N] [--dim N] [--sparse-lr F] [--fault-seed N] [--drop-rate F]
    tiered-bench out-of-core scale curve: graph sizes S/4, S/2, S (hundredths of taobao-large), each trained all-hot and under a resident byte cap — peak resident bytes must hold the budget and the tight model must match the all-hot oracle bit-for-bit [--scale S] [--workers N] [--seed N] [--resident-budget BYTES] [--epochs N] [--batches N] [--batch N] [--negatives N] [--staleness N] [--dim N] [--sparse-lr F]
    closed-loop end-to-end production loop: serve -> log -> update -> incremental train -> hot-swap [--cycles N] [--users N] [--interactions N] [--workers N] [--scale F] [--seed N] [--dim N] [--hub-capacity N] [--drift-rate F] [--batches N] [--batch N] [--staleness N] [--checkpoint-dir DIR] [--slo-freshness-ticks N] [--fault-seed N] [--drop-rate F]
    metrics-demo exercise every layer and print the unified telemetry table [--workers N] [--scale F] [--seed N]
    help       this text

SHARED FLAGS:
    --metrics-json PATH   after the command succeeds, write its telemetry
                          registry snapshot as stable JSON (all commands)
    --seed N / --workers N / --scale F parse identically everywhere
    --fault-seed N        attach the deterministic chaos plane, seeded with N
                          (train-bench / rebalance-bench / serve-bench /
                          serve-under-update / closed-loop);
                          faults and retries are counted in the report and
                          metrics JSON
    --drop-rate F         per-message fault probability for the chaos plane
                          (default 0.1, clamped to [0, 0.999]); needs
                          --fault-seed
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
    fn help_documents_exactly_the_flags_each_command_reads() {
        for command in COMMANDS {
            let line = HELP
                .lines()
                .find(|l| l.trim_start().split(' ').next() == Some(command.name))
                .unwrap_or_else(|| panic!("HELP has no line for `{}`", command.name));
            let mut documented: Vec<&str> = line
                .split(|c: char| c.is_whitespace() || c == '[')
                .filter_map(|word| word.strip_prefix("--"))
                .collect();
            let mut read = command.flags.to_vec();
            documented.sort_unstable();
            read.sort_unstable();
            assert_eq!(documented, read, "`{}`: HELP line vs flag table", command.name);
        }
    }

    #[test]
    fn a_flag_the_command_does_not_read_is_a_usage_error_before_any_work() {
        // The typo used to train untiered and exit 0.
        let typo = run(&argv(&["train-bench", "--resident-budjet", "1000"]));
        assert!(matches!(&typo, Err(CliError::Usage(m)) if m.contains("--resident-budjet")));
        // Another command's flag is not this command's; nothing was written.
        let graph = tmp("never_written.tsv");
        let foreign = run(&argv(&["generate", "--kind", "ba", "--out", &graph, "--dim", "8"]));
        assert!(matches!(foreign, Err(CliError::Usage(_))));
        assert!(!std::path::Path::new(&graph).exists());
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
