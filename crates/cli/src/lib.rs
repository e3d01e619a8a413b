//! # aligraph-cli
//!
//! The `aligraph` command: a thin, dependency-free front door to the
//! platform for downstream users who want graphs, partitions, embeddings
//! and metrics without writing Rust. `aligraph help` lists every command
//! with its flags and their defaults, all read from one table, `COMMANDS`.
//!
//! Every subcommand accepts `--metrics-json PATH`: the run's telemetry
//! registry (one [`aligraph_telemetry::Registry`] per invocation, threaded
//! through storage, sampling, serving and runtime) is snapshotted after the
//! command succeeds and written as stable JSON
//! (`{"version":1,"command":...,"metrics":[...]}`). Commands that register
//! nothing produce an empty `metrics` array.
//!
//! The library half exposes the argument parser and command runners so the
//! behaviour is unit-testable; both binaries' `main` is a call to [`main`].

pub mod args;
pub mod commands;

pub use args::{Args, CliError, CommonArgs, Flag};

use aligraph_telemetry::{Json, Registry};
use args::flag;
use std::fmt::Write as _;
use std::io::{ErrorKind, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// One subcommand: its name, what it does, the `--flags` it takes (every
/// command also takes `--metrics-json`) and its runner. Dispatch, parsing,
/// defaults and [`help`] all follow this table.
struct Command {
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args, &Arc<Registry>) -> Result<String, CliError>,
}

const SEED: Flag = flag("seed", "N", "42");
const FAULT_SEED: Flag = flag("fault-seed", "N", "");
const DROP_RATE: Flag = flag("drop-rate", "F", "0.1");
const GRAPH: Flag = Flag { name: "graph", metavar: "FILE", default: None };
const OUT: Flag = Flag { name: "out", metavar: "FILE", default: None };
const MODEL: Flag = flag("model", "graphsage|deepwalk|node2vec|line|gatne|hep", "graphsage");

#[rustfmt::skip] // one command per entry
const COMMANDS: &[Command] = &[
    Command { name: "generate", about: "synthesize a graph", run: |a, _| commands::generate(a),
        flags: &[flag("kind", "taobao|amazon|ba", "taobao"), flag("scale", "F", "0.001"), SEED,
            OUT] },
    Command { name: "stats", about: "inspect a graph", run: |a, _| commands::stats(a),
        flags: &[GRAPH] },
    Command { name: "partition", about: "partition + quality", run: |a, _| commands::partition(a),
        flags: &[GRAPH, flag("workers", "N", "8"),
            flag("algo", "hash|metis|vertex-cut|2d|ldg", "hash")] },
    Command { name: "train", about: "train embeddings", run: |a, _| commands::train(a),
        flags: &[GRAPH, MODEL, flag("dim", "N", "32"), SEED, OUT] },
    Command { name: "eval", about: "link-prediction metrics", run: |a, _| commands::eval(a),
        flags: &[GRAPH, MODEL, flag("dim", "N", "32"), SEED] },
    Command { name: "automl", about: "model-selection tournament", run: |a, _| commands::automl(a),
        flags: &[GRAPH, flag("dim", "N", "24"), SEED] },
    Command { name: "serve-bench", about: "online-serving load test", run: commands::serve_bench,
        flags: &[flag("requests", "N", "10000"), flag("clients", "N", "4"),
            flag("workers", "N", "2"), flag("scale", "F", "0.1"), SEED,
            flag("delta-every-ms", "N", "2"), flag("batch", "N", "32"), flag("queue", "N", "512"),
            flag("cache", "N", "4096"), FAULT_SEED, DROP_RATE, flag("max-stale", "N", "8")] },
    Command { name: "serve-under-update", about: "streaming-update load test with a p99 SLO",
        run: commands::serve_under_update,
        flags: &[flag("requests", "N", "6000"), flag("clients", "N", "4"),
            flag("workers", "N", "2"), flag("scale", "F", "0.05"), SEED,
            flag("update-every-ms", "N", "2"), flag("dim", "N", "16"), flag("cache", "N", "4096"),
            flag("slo-p99-ms", "F", "20"), FAULT_SEED, DROP_RATE] },
    Command { name: "train-bench", about: "distributed-training bench, speedup vs 1 worker",
        run: commands::train_bench,
        flags: &[flag("workers", "N", "4"), flag("scale", "F", "0.02"), SEED,
            flag("epochs", "N", "2"), flag("batches", "N", "12"), flag("batch", "N", "32"),
            flag("negatives", "N", "4"), flag("staleness", "N", "2"), flag("dim", "N", "32"),
            flag("sparse-lr", "F", "0.05"), flag("checkpoint-dir", "DIR", ""),
            flag("checkpoint-every", "N", "0"), flag("kill-worker", "N", ""),
            flag("kill-at-step", "N", "1"), FAULT_SEED, DROP_RATE,
            flag("resident-budget", "BYTES", "0")] },
    Command { name: "rebalance-bench", about: "shard split (+ merge) mid-run, bit-exact vs static",
        run: commands::rebalance_bench,
        flags: &[flag("workers", "N", "4"), flag("scale", "F", "0.02"), SEED,
            flag("epochs", "N", "3"), flag("split-after", "N", "1"), flag("merge", "N", "0"),
            flag("batches", "N", "12"), flag("batch", "N", "32"), flag("negatives", "N", "4"),
            flag("staleness", "N", "2"), flag("dim", "N", "32"), flag("sparse-lr", "F", "0.05"),
            FAULT_SEED, DROP_RATE] },
    Command { name: "tiered-bench", about: "scale curve S/4, S/2, S (% of taobao-large) vs all-hot",
        run: commands::tiered_bench,
        flags: &[flag("scale", "F", "10"), flag("workers", "N", "4"), SEED,
            flag("resident-budget", "BYTES", "0"), flag("epochs", "N", "2"),
            flag("batches", "N", "6"), flag("batch", "N", "16"), flag("negatives", "N", "2"),
            flag("staleness", "N", "0"), flag("dim", "N", "16"), flag("sparse-lr", "F", "0.05")] },
    Command { name: "closed-loop", about: "serve -> log -> update -> incremental train -> hot-swap",
        run: commands::closed_loop,
        flags: &[flag("cycles", "N", "4"), flag("workers", "N", "2"), flag("scale", "F", "0.02"),
            SEED, flag("dim", "N", "16"), flag("batches", "N", "6"), flag("batch", "N", "16"),
            flag("staleness", "N", "1"), flag("checkpoint-dir", "DIR", ""),
            flag("slo-freshness-ticks", "N", "0"), FAULT_SEED, DROP_RATE] },
    Command { name: "metrics-demo", about: "exercise every layer, print the telemetry table",
        run: commands::metrics_demo,
        flags: &[flag("workers", "N", "2"), flag("scale", "F", "0.004"), SEED] },
];

/// Entry point shared by [`main`] and the tests: parses against the
/// command's flag table (a typo must not run with the default), dispatches,
/// and (on success) dumps the command's telemetry snapshot if
/// `--metrics-json` was given.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some((name, options)) = argv.split_first() else {
        return Err(CliError::Usage(help()));
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        return Ok(help());
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(CliError::Usage(format!("unknown command `{name}`\n\n{}", help())));
    };
    let args = Args::parse(name, command.flags, options)?;
    let registry = Arc::new(Registry::new());
    let out = (command.run)(&args, &registry)?;
    if let Some(path) = args.opt::<PathBuf>("metrics-json")? {
        let json = metrics_json(name, &registry);
        std::fs::write(&path, format!("{json}\n")).map_err(|e| {
            CliError::Runtime(format!("cannot write metrics to {}: {e}", path.display()))
        })?;
    }
    Ok(out)
}

/// The whole of both binaries' `main`: runs the process's arguments and
/// prints the report (exit 0), or the error (exit 2 for a usage error, 1
/// otherwise). A reader that went away (`aligraph … | head`) ends the run
/// cleanly; `println!` would panic on the closed pipe.
pub fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (code, msg) = match run(&argv) {
        Ok(report) => match writeln!(std::io::stdout().lock(), "{report}") {
            Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                (1, format!("error: cannot write to stdout: {e}"))
            }
            _ => return ExitCode::SUCCESS,
        },
        Err(CliError::Usage(msg)) => (2, msg),
        Err(CliError::Runtime(msg)) => (1, format!("error: {msg}")),
    };
    eprintln!("{msg}");
    ExitCode::from(code)
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

/// Top-level usage text: each command's line and flag rows, then the
/// shared flags.
pub fn help() -> String {
    let mut out = String::from(USAGE);
    for command in COMMANDS {
        writeln!(out, "    {:<19}{}", command.name, command.about).ok();
        let mut line = String::from("       ");
        for flag in command.flags {
            let word = match flag.default {
                None => format!("--{} {}", flag.name, flag.metavar),
                Some("") => format!("[--{} {}]", flag.name, flag.metavar),
                Some(default) => format!("[--{} {}={default}]", flag.name, flag.metavar),
            };
            if line.len() + word.len() >= 80 {
                writeln!(out, "{line}").ok();
                line.truncate(7); // back to the indent
            }
            line.push(' ');
            line.push_str(&word);
        }
        writeln!(out, "{line}").ok();
    }
    writeln!(out, "    {:<19}this text", "help").ok();
    out + SHARED_FLAGS
}

const USAGE: &str = "\
aligraph — the AliGraph reproduction CLI

USAGE:
    aligraph <COMMAND> [--key value ...]

COMMANDS (`--flag KIND` is required; `[--flag KIND=D]` defaults to D):
";

const SHARED_FLAGS: &str = "
SHARED FLAGS:
    --metrics-json PATH   after the command succeeds, write its telemetry
                          registry snapshot as stable JSON (all commands)
    --seed N / --workers N / --scale F parse identically everywhere
    --fault-seed N        attach the deterministic chaos plane, seeded with N;
                          faults and retries are counted in the report and
                          metrics JSON
    --drop-rate F         per-message fault probability for the chaos plane
                          (clamped to [0, 0.999]); needs --fault-seed
    --resident-budget BYTES
                          byte cap for the cold storage tier's hot set; 0
                          keeps train-bench untiered and lets tiered-bench
                          default to 10% of each point's all-hot footprint
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
        let (graph, metrics) = (tmp("run_graph.tsv"), tmp("run_generate_metrics.json"));
        let line =
            format!("generate --kind ba --scale 0.002 --out {graph} --metrics-json {metrics}");
        run(&line.split(' ').map(String::from).collect::<Vec<_>>()).unwrap();
        let json = std::fs::read_to_string(&metrics).unwrap();
        // `generate` registers nothing, so the wrapper carries an empty array.
        assert_eq!(json.trim(), r#"{"version":1,"command":"generate","metrics":[]}"#);
    }

    #[test]
    fn every_default_is_of_its_flags_kind() {
        for command in COMMANDS {
            for flag in command.flags.iter().chain([&args::METRICS_JSON]) {
                if let Some(default) = flag.default.filter(|d| !d.is_empty()) {
                    let at = format!("{} --{}", command.name, flag.name);
                    assert!(flag.accepts(default), "`{at}`: `{default}` is not a {}", flag.metavar);
                }
            }
        }
    }

    const SKILL: &str = ".claude/skills/verify/SKILL.md";

    /// The words after the first invocation in `line`: `-p aligraph-cli --`,
    /// `cargo run --release --`, or (where `bare`) an `aligraph` binary —
    /// not the package `-p aligraph` names. A `#` comment or a `|` ends it.
    fn invocation(line: &str, bare: bool) -> Option<Vec<String>> {
        let words: Vec<&str> = line.split_whitespace().collect();
        let bin = |w: &str| w == "aligraph" || w.ends_with("/aligraph");
        let start = (0..words.len()).find_map(|i| match &words[i..] {
            ["-p", "aligraph-cli", "--", ..] => Some(i + 3),
            ["cargo", "run", "--release", "--", ..] => Some(i + 4),
            [w, ..] if bare && bin(w) && (i == 0 || words[i - 1] != "-p") => Some(i + 1),
            _ => None,
        })?;
        let rest = words[start..].iter().take_while(|w| !w.starts_with('#') && **w != "|");
        let rest: Vec<String> = rest.map(|w| w.to_string()).collect();
        (!rest.is_empty()).then_some(rest)
    }

    /// Every command line the docs show, as (file, whether its values are
    /// checked, its words): `ci/smoke.sh`'s table rows, the README's
    /// code-block lines (`\` continuations joined), and the verify skill's
    /// code-block lines and code spans.
    fn documented_lines() -> Vec<(&'static str, bool, Vec<String>)> {
        let read = |path: &str| {
            std::fs::read_to_string(format!("{}/../../{path}", env!("CARGO_MANIFEST_DIR"))).unwrap()
        };
        let smoke = read("ci/smoke.sh");
        let table = smoke.split("table=\"").nth(1).and_then(|t| t.split('"').next()).unwrap();
        let mut lines: Vec<_> = table
            .lines()
            .filter_map(|row| {
                let cols: Vec<&str> = row.split('|').collect();
                let words = format!("{} {}", cols.get(1)?, cols.get(2)?);
                Some(("ci/smoke.sh", true, words.split_whitespace().map(String::from).collect()))
            })
            .collect();
        for (path, skill) in [("README.md", false), (SKILL, true)] {
            for (i, part) in read(path).split("```").enumerate() {
                let code: Vec<String> = match (i % 2, skill) {
                    (1, _) => part.replace("\\\n", " ").lines().map(String::from).collect(),
                    (_, true) => part.split('`').skip(1).step_by(2).map(String::from).collect(),
                    _ => continue,
                };
                lines.extend(
                    code.iter().filter_map(|l| Some((path, !skill, invocation(l, skill)?))),
                );
            }
        }
        lines
    }

    /// Why `words` (a command and its options) does not parse against the
    /// command's rows; with `values`, each value must also be of its flag's
    /// kind (a `$var` passes).
    fn refusal(words: &[String], values: bool) -> Option<String> {
        let (name, options) = words.split_first()?;
        if name == "help" {
            return None;
        }
        let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
            return Some(format!("unknown command `{name}`"));
        };
        if let Err(e) = Args::parse(name, command.flags, options) {
            return Some(e.to_string());
        }
        let rows = || command.flags.iter().chain([&args::METRICS_JSON]);
        options.chunks(2).filter(|_| values).find_map(|pair| {
            let flag = rows().find(|f| pair[0] == format!("--{}", f.name))?;
            let ok = pair[1].starts_with('$') || flag.accepts(&pair[1]);
            (!ok).then(|| format!("--{} {}: {} expected", flag.name, pair[1], flag.metavar))
        })
    }

    #[test]
    fn every_documented_command_line_parses_against_the_flag_table() {
        let lines = documented_lines();
        for (path, floor) in [("ci/smoke.sh", 14), ("README.md", 25), (SKILL, 8)] {
            let found = lines.iter().filter(|l| l.0 == path).count();
            assert!(found >= floor, "{path}: {found} command lines, at least {floor} expected");
        }
        let refused: Vec<String> = lines
            .iter()
            .filter_map(|(path, values, words)| {
                refusal(words, *values).map(|why| format!("{path}: `{}`: {why}", words.join(" ")))
            })
            .collect();
        assert!(refused.is_empty(), "{refused:#?}");
    }

    #[test]
    fn a_package_name_is_no_invocation_and_a_bad_binary_line_is_still_refused() {
        assert_eq!(invocation("cargo test -q -p aligraph -p aligraph-sampling", true), None);
        let bad = invocation("target/release/aligraph serve-bench --requestz 9", true).unwrap();
        assert_eq!(bad, ["serve-bench", "--requestz", "9"]);
        assert!(refusal(&bad, true).is_some_and(|why| why.contains("--requestz")), "{bad:?}");
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
