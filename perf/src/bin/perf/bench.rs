//! The run loop shared by the four workloads: set-up, one discarded
//! warm-up round, then rounds of fixed work, each bracketed by the
//! calibration kernel. The traced run adds a span-recorded pass and the
//! per-layer probes.

use crate::cal::{median, percentile, Calibrator, Timed};
use crate::report::{peak_rss_mb, Outcome};
use crate::trace::{self, SpanRec};
use aligraph_telemetry::{Registry, RegistrySnapshot};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name, also the stem of the trace file.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured rounds should take on the reference state;
    /// sets how many rounds run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Probe time on the reference machine state, nanoseconds.
    pub cal_ref_ns: f64,
}

/// How often the timed run repeats set-up; `setup_s` is the median.
const SETUPS: usize = 3;
/// Fewest measured rounds, whatever `--seconds` says.
const MIN_ROUNDS: usize = 8;
/// Share of `--seconds` the traced run spends on untraced rounds.
const TRACED_PLAIN_SHARE: f64 = 0.35;

/// What one round of fixed work did. Times are raw wall seconds.
#[derive(Debug, Default)]
pub struct Round {
    /// Primary operations completed.
    pub ops: u64,
    /// Operations refused or failed.
    pub failed: u64,
    /// Time the primary operations took.
    pub ops_s: f64,
    /// Latency of each timed read.
    pub reads_s: Vec<f64>,
    /// Latency of each timed update.
    pub updates_s: Vec<f64>,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Rounds the traced run records spans for (each also run untraced).
    const TRACED_ROUNDS: usize;

    /// Rounds, probes included, that fit into a second on the reference
    /// state. A run measures `--seconds` times this many rounds: the work
    /// is fixed by count, so a slower box takes longer but measures the
    /// same rounds.
    const ROUNDS_PER_SECOND: f64;

    /// Everything from an empty process to the first operation: graph
    /// generation, featurisation, partitioning, cluster / tier / service
    /// build.
    fn setup(seed: u64, registry: &Arc<Registry>) -> Self;

    /// One round of fixed work through the system's public entry points.
    fn round(&mut self, out: &mut Outcome) -> Round;

    /// Brings caches to their steady state before anything is measured: one
    /// discarded round, unless the workload's caches need more.
    fn warm_up(&mut self, out: &mut Outcome) {
        self.round(out);
    }

    /// The round the traced run records. Differs from [`round`](Self::round)
    /// only where that round is opaque from outside.
    fn traced_round(&mut self, out: &mut Outcome) -> Round {
        self.round(out)
    }

    /// Spans recorded on threads other than the harness thread.
    fn take_thread_spans(&mut self) -> Vec<SpanRec> {
        Vec::new()
    }

    /// Per-layer metrics: probes, span totals and registry counts.
    fn layers(&mut self, ctx: &LayerCtx<'_>, out: &mut Outcome);

    /// Output checks over the whole run; consumes the workload.
    fn finish(self, out: &mut Outcome);

    /// Stops and joins whatever threads set-up started (a world that is
    /// rebuilt for `setup_s`, not finished).
    fn teardown(self) {}
}

/// What the traced run hands to [`Workload::layers`].
#[derive(Debug)]
pub struct LayerCtx<'a> {
    /// Spans of set-up (recorded once, before any round).
    pub setup_spans: &'a [SpanRec],
    /// Spans of the traced rounds.
    pub spans: &'a [SpanRec],
    /// Untraced rounds through the normal entry point.
    pub plain: &'a Pooled,
    /// The traced rounds' work with the recorder off.
    pub off: &'a Pooled,
    /// Snapshot of the live registry after the traced rounds.
    pub registry: &'a RegistrySnapshot,
    /// Probe time on the reference state, for calibrating probes.
    pub cal_ref_ns: f64,
}

/// Rounds with their calibration factors, and per-operation latencies
/// scaled by their round's factor and pooled.
#[derive(Debug, Default)]
pub struct Pooled {
    /// Whole-round timing.
    pub rounds: Vec<Timed>,
    /// `ops_s` of each round with the round's factor.
    pub ops: Vec<Timed>,
    /// Operations per round.
    pub ops_count: Vec<u64>,
    /// Calibrated read latencies, seconds.
    pub reads_cal: Vec<f64>,
    /// Raw read latencies, seconds.
    pub reads_raw: Vec<f64>,
    /// Calibrated update latencies, seconds.
    pub updates_cal: Vec<f64>,
    /// Raw update latencies, seconds.
    pub updates_raw: Vec<f64>,
}

impl Pooled {
    fn add(&mut self, round: Round, timed: Timed, out: &mut Outcome) {
        out.attempted += round.ops + round.failed;
        out.failed += round.failed;
        self.rounds.push(timed);
        self.ops.push(Timed { raw_s: round.ops_s, factor: timed.factor });
        self.ops_count.push(round.ops);
        self.reads_cal.extend(round.reads_s.iter().map(|s| s * timed.factor));
        self.reads_raw.extend(round.reads_s);
        self.updates_cal.extend(round.updates_s.iter().map(|s| s * timed.factor));
        self.updates_raw.extend(round.updates_s);
    }

    /// Median over rounds of operations per calibrated second.
    pub fn ops_per_s(&self) -> f64 {
        let v: Vec<f64> =
            self.ops.iter().zip(&self.ops_count).map(|(t, &n)| n as f64 / t.cal_s()).collect();
        median(&v)
    }

    /// Median over rounds of operations per raw second.
    pub fn raw_ops_per_s(&self) -> f64 {
        let v: Vec<f64> =
            self.ops.iter().zip(&self.ops_count).map(|(t, &n)| n as f64 / t.raw_s).collect();
        median(&v)
    }

    /// Median over rounds of the calibrated seconds the operations took.
    pub fn median_ops_s(&self) -> f64 {
        median(&self.ops.iter().map(Timed::cal_s).collect::<Vec<_>>())
    }

    /// Calibrated median update latency, milliseconds.
    pub fn update_p50_ms(&self) -> f64 {
        median(&self.updates_cal) * 1e3
    }

    fn factors(&self) -> Vec<f64> {
        self.rounds.iter().map(|t| t.factor).collect()
    }
}

/// As many rounds through [`Workload::round`] as take `seconds` on the
/// reference state, and at least [`MIN_ROUNDS`].
fn run_rounds<W: Workload>(
    world: &mut W,
    cal: &mut Calibrator,
    out: &mut Outcome,
    seconds: f64,
) -> Pooled {
    let rounds = ((seconds * W::ROUNDS_PER_SECOND).round() as usize).max(MIN_ROUNDS);
    let mut pooled = Pooled::default();
    for _ in 0..rounds {
        let (r, timed) = cal.time(|| world.round(out));
        pooled.add(r, timed, out);
    }
    pooled
}

fn put_end_to_end(out: &mut Outcome, setups: &[Timed], pooled: &Pooled) {
    out.metrics.put("setup_s", median(&setups.iter().map(Timed::cal_s).collect::<Vec<_>>()));
    out.raw.put("setup_s", median(&setups.iter().map(|t| t.raw_s).collect::<Vec<_>>()));
    out.metrics.put("ops_per_s", pooled.ops_per_s());
    out.raw.put("ops_per_s", pooled.raw_ops_per_s());
    out.metrics.put("read_p50_ms", median(&pooled.reads_cal) * 1e3);
    out.raw.put("read_p50_ms", median(&pooled.reads_raw) * 1e3);
    out.metrics.put("update_p50_ms", pooled.update_p50_ms());
    out.raw.put("update_p50_ms", median(&pooled.updates_raw) * 1e3);
    out.metrics.put("peak_rss_mb", peak_rss_mb());
}

/// The timed run: registry disabled, no spans, end-to-end metrics.
pub fn run_timed<W: Workload>(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let registry = Arc::new(Registry::disabled());
    let mut cal = Calibrator::new(opts.cal_ref_ns);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut world: Option<W> = None;
    for _ in 0..SETUPS {
        // The previous world is gone before the next is built, so peak
        // memory is that of one set-up.
        if let Some(previous) = world.take() {
            W::teardown(previous);
        }
        cal.reopen();
        let (w, timed) = cal.time(|| W::setup(opts.seed, &registry));
        setups.push(timed);
        world = Some(w);
    }
    let mut world = world.expect("SETUPS >= 1");
    let mut discarded = Outcome::default();
    world.warm_up(&mut discarded);
    out.check_failures.append(&mut discarded.check_failures);
    cal.reopen();
    let pooled = run_rounds(&mut world, &mut cal, &mut out, opts.seconds);
    world.finish(&mut out);
    put_end_to_end(&mut out, &setups, &pooled);
    out
}

/// The traced run: live registry, spans around every call into a layer,
/// per-layer metrics, `perf/out/<workload>.trace.json`.
pub fn run_traced<W: Workload>(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let registry = Arc::new(Registry::new());
    let epoch = Instant::now();
    let mut cal = Calibrator::new(opts.cal_ref_ns);

    trace::start(epoch);
    let (mut world, setup_timed) = cal.time(|| W::setup(opts.seed, &registry));
    let mut setup_spans = trace::finish();
    // Spans are reported on the reference state like everything else.
    trace::rescale(&mut setup_spans, setup_timed.factor);

    let mut discarded = Outcome::default();
    world.warm_up(&mut discarded);
    out.check_failures.append(&mut discarded.check_failures);
    cal.reopen();
    let plain = run_rounds(&mut world, &mut cal, &mut out, opts.seconds * TRACED_PLAIN_SHARE);

    // The same round with the recorder off, then on, in turns: the
    // difference in throughput is what tracing costs. Spans are put on the
    // reference state with the factor of the round they were recorded in.
    let (mut off, mut on) = (Pooled::default(), Pooled::default());
    let mut spans = Vec::new();
    for _ in 0..W::TRACED_ROUNDS {
        let (r, timed) = cal.time(|| world.traced_round(&mut out));
        off.add(r, timed, &mut out);
        trace::start(epoch);
        let (r, timed) = cal.time(|| world.traced_round(&mut out));
        let mut recorded = trace::finish();
        trace::merge(&mut recorded, world.take_thread_spans());
        trace::rescale(&mut recorded, timed.factor);
        trace::merge(&mut spans, recorded);
        on.add(r, timed, &mut out);
    }
    for (name, t) in trace::self_times(&spans) {
        out.notes.push(format!(
            "span {name}: count {} total {:.3} ms self {:.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }

    let snapshot = registry.snapshot();
    let ctx = LayerCtx {
        setup_spans: &setup_spans,
        spans: &spans,
        plain: &plain,
        off: &off,
        registry: &snapshot,
        cal_ref_ns: opts.cal_ref_ns,
    };
    world.layers(&ctx, &mut out);
    world.finish(&mut out);

    let factors = plain.factors();
    out.metrics.put("bench.cal_factor_p50", median(&factors));
    out.metrics.put(
        "bench.cal_factor_spread",
        (percentile(&factors, 0.75) - percentile(&factors, 0.25)) / median(&factors),
    );
    out.metrics.put("bench.raw_ops_per_s", plain.raw_ops_per_s());
    out.metrics.put("bench.trace_overhead_share", 1.0 - on.ops_per_s() / off.ops_per_s());

    let mut all = setup_spans;
    trace::merge(&mut all, spans);
    // `cargo run` names the package directory at run time; the path baked in
    // at build time is stale once a built checkout has been moved. The trace
    // file is a by-product: failing to write it does not fail the run.
    let package = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let path = PathBuf::from(package).join("out").join(format!("{}.trace.json", opts.workload));
    if let Err(e) = trace::write_json(&path, &all) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    out
}
