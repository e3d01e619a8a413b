//! `perf`: the repository's wall-clock benchmark. One invocation runs one
//! workload with one seed and prints every metric by name with its unit;
//! the last line is the JSON object the driver reads. See README.md.

#![forbid(unsafe_code)]

mod bench;
mod cal;
mod report;
mod serve;
mod stream;
mod trace;
mod train;

use bench::{run_timed, run_traced, Opts, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perf --cal-ref-ns N --workload \
    train_dense|train_tiered|serve_busy|stream_mixed --seed N --seconds N --trace 0|1";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts =
        Opts { workload: String::new(), seed: 42, seconds: 20.0, trace: false, cal_ref_ns: 0.0 };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => opts.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--cal-ref-ns" => opts.cal_ref_ns = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // NaN fails both comparisons.
    if opts.cal_ref_ns.is_nan() || opts.cal_ref_ns <= 0.0 {
        return Err("--cal-ref-ns must be given and positive".into());
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

fn run<W: Workload>(opts: &Opts) -> report::Outcome {
    if opts.trace {
        run_traced::<W>(opts)
    } else {
        run_timed::<W>(opts)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.workload.as_str() {
        "train_dense" => run::<train::Train<train::Dense>>(&opts),
        "train_tiered" => run::<train::Train<train::Tiered>>(&opts),
        "serve_busy" => run::<serve::Serve>(&opts),
        "stream_mixed" => run::<stream::Stream>(&opts),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let table = if opts.trace { report::PER_LAYER } else { report::END_TO_END };
    print!("{}", report::render(&outcome, table));
    if outcome.check_failures.is_empty() && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
