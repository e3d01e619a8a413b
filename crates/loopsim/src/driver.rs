//! The loop scheduler: serve → log → graph update → incremental train →
//! hot-swap deploy, as one deterministic in-process cycle.
//!
//! Each cycle:
//!
//! 1. **serve** — power-law user sessions pinned to streaming
//!    [`EpochView`](aligraph_streaming::EpochView)s score items against the
//!    pinned [`ModelVersion`]; every interaction appends to the bounded
//!    [`DataHub`] and advances the virtual clock by one tick;
//! 2. **ingest** — the hub drains into one compacted
//!    [`UpdateBatch`](aligraph_streaming::UpdateBatch) pushed through the
//!    (chaos-wrappable) streaming ingest path; injected faults surface as
//!    `lag_ticks`, which the clock absorbs;
//! 3. **train** — a delta epoch warm-starts from the latest valid
//!    checkpoint with only the ingest-touched feature rows re-pulled from
//!    the post-ingest epoch view ([`aligraph_runtime::Checkpoint::patch_feature_rows`]);
//! 4. **deploy** — the new model seals into a [`ModelVersion`] and
//!    atomically hot-swaps into the model's [`Published`] cell; in-flight
//!    pins keep serving the old version untouched.
//!
//! Freshness of an interaction = (tick its model version went live) −
//! (tick it was served). The whole loop is a pure function of
//! `(seed, fault_seed, drop_rate)`.

use crate::hub::{DataHub, HubEvent};
use crate::mix2;
use crate::report::LoopReport;
use crate::traffic::TrafficGen;
use aligraph_graph::generate::TaobaoConfig;
use aligraph_graph::{Featurizer, VertexId};
use aligraph_partition::EdgeCutHash;
use aligraph_runtime::{
    latest_valid_checkpoint, CheckpointConfig, DistOutcome, DistTrainer, EncoderSpec,
    RuntimeConfig, RuntimeError,
};
use aligraph_serving::ModelVersion;
use aligraph_storage::{CacheStrategy, Cluster, CostModel, Published};
use aligraph_streaming::{FaultConfig, StreamingConfig, StreamingService};
use aligraph_telemetry::Registry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Configuration of a closed-loop run.
#[derive(Debug, Clone)]
pub struct LoopConfig {
    /// Serve→ingest→train→swap cycles to run.
    pub cycles: usize,
    /// User sessions per cycle.
    pub users: usize,
    /// Interactions per session.
    pub interactions_per_user: usize,
    /// The loop seed: graph, traffic, training — the run's only entropy
    /// source besides `fault`.
    pub seed: u64,
    /// Taobao sim scale factor.
    pub scale: f64,
    /// Feature dimension.
    pub dim: usize,
    /// Trainer partitions and ingest shards.
    pub workers: usize,
    /// Data-hub capacity between drains (overflow is shed and counted).
    pub hub_capacity: usize,
    /// Per-interaction probability of a feature-drift event.
    pub drift_rate: f64,
    /// Mini-batches per worker per training epoch.
    pub batches_per_epoch: usize,
    /// Positive edges per mini-batch.
    pub batch_size: usize,
    /// Bounded staleness of the trainer's parameter server.
    pub staleness: u64,
    /// Checkpoint directory; `ckpt-*.bin` files in it are wiped at run
    /// start so every run warm-starts only from its own cuts.
    pub checkpoint_dir: PathBuf,
    /// Optional chaos plane over the streaming ingest channel (tag 4).
    /// Faults cost freshness ticks, never model divergence.
    pub fault: Option<FaultConfig>,
}

impl LoopConfig {
    /// The small reference shape the CLI and CI run: a few hundred
    /// vertices, two workers, short delta epochs.
    pub fn small(seed: u64, checkpoint_dir: PathBuf) -> LoopConfig {
        LoopConfig {
            cycles: 4,
            users: 8,
            interactions_per_user: 6,
            seed,
            scale: 0.02,
            dim: 16,
            workers: 2,
            hub_capacity: 256,
            drift_rate: 0.15,
            batches_per_epoch: 6,
            batch_size: 16,
            staleness: 1,
            checkpoint_dir,
            fault: None,
        }
    }
}

/// Why a loop run stopped.
#[derive(Debug)]
pub enum LoopError {
    /// Graph generation or roster problem.
    Graph(String),
    /// The training runtime failed.
    Runtime(RuntimeError),
    /// The streaming ingest path failed permanently.
    Ingest(String),
    /// A pinned model version failed its fingerprint check — a torn swap.
    Atomicity {
        /// The version whose seal did not match its contents.
        version: u64,
    },
    /// Checkpoint-directory housekeeping failed.
    Io(std::io::Error),
    /// The loop's own invariants broke (e.g. no checkpoint after a cycle).
    Config(String),
}

impl std::fmt::Display for LoopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoopError::Graph(m) => write!(f, "graph: {m}"),
            LoopError::Runtime(e) => write!(f, "runtime: {e}"),
            LoopError::Ingest(m) => write!(f, "ingest: {m}"),
            LoopError::Atomicity { version } => {
                write!(f, "hot-swap atomicity violated: pinned version {version} failed verify")
            }
            LoopError::Io(e) => write!(f, "io: {e}"),
            LoopError::Config(m) => write!(f, "config: {m}"),
        }
    }
}

impl std::error::Error for LoopError {}

impl From<RuntimeError> for LoopError {
    fn from(e: RuntimeError) -> Self {
        LoopError::Runtime(e)
    }
}

impl From<std::io::Error> for LoopError {
    fn from(e: std::io::Error) -> Self {
        LoopError::Io(e)
    }
}

/// What a finished loop run hands back.
#[derive(Debug)]
pub struct LoopOutcome {
    /// The final live model version number.
    pub final_version: u64,
    /// Content fingerprint of the final deployment: the sealed
    /// [`ModelVersion`] fingerprint folded with the dense encoder
    /// parameter bits. Bit-identical across runs with identical seeds.
    pub fingerprint: u64,
    /// Virtual ticks the run spanned.
    pub ticks: u64,
    /// Per-interaction freshness samples, in drain order (virtual ticks
    /// from serve to the covering version going live).
    pub freshness: Vec<u64>,
    /// The `loop.*` telemetry rollup.
    pub report: LoopReport,
}

/// Removes `ckpt-*.bin` leftovers so warm-starts only ever resume from
/// this run's own cuts.
fn wipe_checkpoints(dir: &PathBuf) -> Result<(), LoopError> {
    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("ckpt-") && name.ends_with(".bin") {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Seals a trained outcome into a model version — every vertex's (trained)
/// feature row, keyed by vertex id — and deploys it. A version that does
/// not follow the deployed one is a scheduler bug.
fn deploy(
    store: &Published<ModelVersion>,
    version: u64,
    tick: u64,
    outcome: &DistOutcome,
    dim: usize,
) -> Result<(), LoopError> {
    let flat = outcome.features.as_slice();
    let mut rows = BTreeMap::new();
    for v in 0..(flat.len() / dim) {
        rows.insert(v as u32, flat[v * dim..(v + 1) * dim].to_vec());
    }
    let next = ModelVersion::new(version, tick, rows);
    store.write().publish(next, || {}).map_err(|e| LoopError::Config(e.to_string()))?;
    Ok(())
}

/// Runs the closed loop to completion. All `loop.*` (plus the constituent
/// `streaming.*`, `runtime.*`, `chaos.*`) series land in `registry`.
pub fn run_loop(cfg: &LoopConfig, registry: &Arc<Registry>) -> Result<LoopOutcome, LoopError> {
    if cfg.cycles == 0 || cfg.users == 0 || cfg.interactions_per_user == 0 {
        return Err(LoopError::Config(
            "cycles, users and interactions_per_user must all be >= 1".into(),
        ));
    }
    wipe_checkpoints(&cfg.checkpoint_dir)?;

    // One world, two faces: the trainer sees the base cluster (fixed
    // topology — updates reach it through re-pulled feature rows), the
    // serving plane sees the live streaming views the ingest path advances.
    let mut gen = TaobaoConfig::small_sim().scaled(cfg.scale);
    gen.seed = cfg.seed;
    let graph = Arc::new(gen.generate().map_err(|e| LoopError::Graph(e.to_string()))?);
    let features = Featurizer::new(cfg.dim).matrix(&graph);
    let (cluster, _build) = Cluster::builder(Arc::clone(&graph))
        .partitioner(&EdgeCutHash)
        .shards(cfg.workers)
        .cache(CacheStrategy::None)
        .max_hop(2)
        .cost_model(CostModel::default())
        .registry(registry)
        .build();
    let service = StreamingService::start_with_registry(
        Arc::clone(&graph),
        Arc::new(features.clone()),
        StreamingConfig {
            shards: cfg.workers.max(1),
            seed: cfg.seed,
            fault: cfg.fault.clone(),
            ..Default::default()
        },
        registry,
    );
    let store = Published::new(ModelVersion::new(0, 0, BTreeMap::new()));
    let mut traffic = TrafficGen::new(&graph, cfg.seed ^ 0x007a_ff1c)
        .ok_or_else(|| LoopError::Graph("graph has no USER or no ITEM vertices".into()))?
        .with_drift_rate(cfg.drift_rate);

    let spec = EncoderSpec {
        dim_in: cfg.dim,
        dims: vec![cfg.dim.max(2), (cfg.dim / 2).max(2)],
        fanouts: vec![3, 2],
        lr: 0.05,
        seed: cfg.seed ^ 0x5eed,
    };
    let runtime_cfg = |epochs: usize| RuntimeConfig {
        workers: cfg.workers,
        epochs,
        batches_per_epoch: cfg.batches_per_epoch,
        batch_size: cfg.batch_size,
        negatives: 2,
        staleness: cfg.staleness,
        seed: cfg.seed,
        sparse_lr: 0.05,
        checkpoint: Some(CheckpointConfig { dir: cfg.checkpoint_dir.clone(), every_steps: 0 }),
        ..RuntimeConfig::default()
    };

    let freshness_hist = registry.histogram("loop.freshness_ticks", &[]);
    let cycles_ctr = registry.counter("loop.cycles", &[]);
    let interactions_ctr = registry.counter("loop.interactions", &[]);
    let repulled_ctr = registry.counter("loop.rows_repulled", &[]);
    let swaps_ctr = registry.counter("loop.swaps", &[]);
    let dropped_ctr = registry.counter("loop.hub.dropped", &[]);
    let swap_gauge = registry.gauge("loop.swap_epoch", &[]);
    let ticks_gauge = registry.gauge("loop.ticks", &[]);

    let mut hub = DataHub::new(cfg.hub_capacity);
    let mut tick: u64 = 0;
    let mut freshness: Vec<u64> = Vec::new();

    // Bootstrap: one full epoch over the base graph, so every cycle after
    // it is a pure warm-start + patch. Publishes version 1.
    let trainer = DistTrainer::new(&cluster, &features, spec.clone(), runtime_cfg(1))?
        .with_registry(Arc::clone(registry));
    let mut outcome = trainer.train()?;
    tick += cfg.batches_per_epoch as u64 + 1;
    deploy(&store, 1, 0, &outcome, cfg.dim)?;
    swaps_ctr.inc();
    swap_gauge.set(1);

    for cycle in 1..=cfg.cycles {
        // serve: pinned sessions score items against the pinned model;
        // every interaction is one virtual tick and one hub append.
        let mut dropped_before = hub.dropped();
        for _ in 0..cfg.users {
            let user = traffic.draw_user();
            let session = service.session();
            let pin = store.pin();
            if !pin.verify() {
                return Err(LoopError::Atomicity { version: pin.version() });
            }
            for _ in 0..cfg.interactions_per_user {
                let item = traffic.draw_item();
                let _ = session.score(user, item);
                let _ = pin.embedding(item.0);
                tick += 1;
                interactions_ctr.inc();
                hub.append(HubEvent::Click { user, item, tick });
                if let Some(drifted) = traffic.maybe_drift(session.view().features(item)) {
                    hub.append(HubEvent::Drift { vertex: item, features: drifted, tick });
                }
            }
            // The pin rode through the whole session; a swap landing
            // mid-session must never have torn what it serves.
            if !pin.verify() {
                return Err(LoopError::Atomicity { version: pin.version() });
            }
        }
        dropped_before = hub.dropped() - dropped_before;
        dropped_ctr.add(dropped_before);

        // ingest: drain the hub through the (possibly faulted) streaming
        // ingest path. Retry backoff surfaces as lag ticks on the clock.
        let compacted = hub.drain_compacted();
        let touched_feats = if compacted.batch.is_empty() {
            Vec::new()
        } else {
            let receipt =
                service.ingest(&compacted.batch).map_err(|e| LoopError::Ingest(e.to_string()))?;
            tick += 1 + receipt.lag_ticks;
            receipt.touched_feats
        };
        let data_tick = tick;

        // train: warm-start a delta epoch from the latest valid cut,
        // re-pulling only the rows this cycle's ingest touched.
        let (_, mut ckpt) = latest_valid_checkpoint(&cfg.checkpoint_dir)?
            .ok_or_else(|| LoopError::Config("no valid checkpoint after bootstrap".into()))?;
        let post = service.session();
        let rows: Vec<(u32, Vec<f32>)> = touched_feats
            .iter()
            .map(|&v| (v, post.view().features(VertexId(v)).to_vec()))
            .collect();
        let repulled =
            ckpt.patch_feature_rows(cfg.dim, rows.iter().map(|(v, r)| (*v, r.as_slice())));
        repulled_ctr.add(repulled as u64);
        drop(post);
        let trainer = DistTrainer::new(&cluster, &features, spec.clone(), runtime_cfg(1 + cycle))?
            .with_registry(Arc::clone(registry));
        outcome = trainer.train_from_checkpoint(ckpt)?;
        tick += cfg.batches_per_epoch as u64;

        // deploy: seal and atomically hot-swap. Freshness clocks stop for
        // every interaction this version was trained on.
        tick += 1;
        let version = cycle as u64 + 1;
        deploy(&store, version, data_tick, &outcome, cfg.dim)?;
        swaps_ctr.inc();
        swap_gauge.set(version as i64);
        for born in &compacted.born_ticks {
            let age = tick - born;
            freshness.push(age);
            freshness_hist.record(age);
        }
        cycles_ctr.inc();
        ticks_gauge.set(tick as i64);
    }

    service.oracle_check().map_err(LoopError::Config)?;

    // Content fingerprint only: version number + trained feature rows +
    // dense parameters. Deliberately NOT the sealed ModelVersion
    // fingerprint — that one covers `trained_through_tick`, which chaos
    // legitimately shifts; the loop's convergence claim is about *what*
    // the model is, not *when* its data arrived.
    let final_pin = store.pin();
    let mut fingerprint = mix2(0x100b, final_pin.version());
    for f in outcome.features.as_slice() {
        fingerprint = mix2(fingerprint, f.to_bits() as u64);
    }
    for p in outcome.encoder.dense_param_vec() {
        fingerprint = mix2(fingerprint, p.to_bits() as u64);
    }
    Ok(LoopOutcome {
        final_version: final_pin.version(),
        fingerprint,
        ticks: tick,
        freshness,
        report: LoopReport::from_snapshot(&registry.snapshot()),
    })
}
