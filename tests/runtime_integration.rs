//! Integration tests for the distributed training runtime: sequential
//! parity, checkpoint round-trips, corruption handling, fault recovery, and
//! modelled scaling.

#![expect(
    clippy::expect_used,
    reason = "a failed fixture setup in a test helper aborts the test, as in the #[test] itself"
)]

use aligraph_suite::chaos::{CrashPoint, FaultConfig};
use aligraph_suite::core::{train_unsupervised, GnnEncoder, TrainConfig};
use aligraph_suite::graph::{
    AttributedHeterogeneousGraph, FeatureMatrix, Featurizer, TaobaoConfig,
};
use aligraph_suite::partition::EdgeCutHash;
use aligraph_suite::runtime::{
    latest_valid_checkpoint, Checkpoint, CheckpointConfig, DistOutcome, DistTrainer, EncoderSpec,
    RuntimeConfig, RuntimeError,
};
use aligraph_suite::sampling::UniformNeighborhood;
use aligraph_suite::storage::{
    AccessStatsSnapshot, CacheStrategy, Cluster, CostModel, TierConfig, TierMeterSnapshot,
};
use aligraph_telemetry::Registry;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const DIM: usize = 16;

fn setup(workers: usize) -> (Cluster, FeatureMatrix) {
    let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
    let features = Featurizer::new(DIM).matrix(&graph);
    let (cluster, _) = Cluster::builder(graph)
        .partitioner(&EdgeCutHash)
        .shards(workers)
        .cache(CacheStrategy::None)
        .max_hop(2)
        .cost_model(CostModel::default())
        .build();
    (cluster, features)
}

fn spec() -> EncoderSpec {
    EncoderSpec { dim_in: DIM, dims: vec![16, 8], fanouts: vec![3, 2], lr: 0.05, seed: 7 }
}

fn base_cfg(workers: usize) -> RuntimeConfig {
    RuntimeConfig {
        workers,
        epochs: 3,
        batches_per_epoch: 8,
        batch_size: 16,
        negatives: 2,
        staleness: 0,
        seed: 11,
        sparse_lr: 0.05,
        ..RuntimeConfig::default()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("algr-rt-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Resumes `trainer` from the checkpoint file at `path`.
fn resume(trainer: &DistTrainer<'_>, path: &Path) -> Result<DistOutcome, RuntimeError> {
    trainer.train_from_checkpoint(Checkpoint::read_from(path)?)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn fbits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Satellite 1 — convergence parity: one worker with staleness 0 and frozen
/// features must reproduce the sequential trainer's loss trajectory
/// bit-for-bit, and end with bit-identical dense parameters.
#[test]
fn single_worker_matches_sequential_trainer_bitwise() {
    let (cluster, features) = setup(1);
    let graph: &AttributedHeterogeneousGraph = cluster.graph();

    let mut seq_encoder = GnnEncoder::sage(DIM, &[16, 8], &[3, 2], 0.05, 7);
    let seq = train_unsupervised(
        &mut seq_encoder,
        graph,
        &features,
        &UniformNeighborhood,
        &TrainConfig {
            epochs: 3,
            batches_per_epoch: 8,
            batch_size: 16,
            negatives: 2,
            patience: None,
            min_delta: 1e-4,
            seed: 11,
        },
    );

    let cfg = RuntimeConfig { sparse_lr: 0.0, ..base_cfg(1) };
    let trainer = DistTrainer::new(&cluster, &features, spec(), cfg).unwrap();
    let dist = trainer.train().unwrap();

    assert_eq!(
        bits(&dist.report.epoch_losses),
        bits(&seq.epoch_losses),
        "distributed {:?} vs sequential {:?}",
        dist.report.epoch_losses,
        seq.epoch_losses
    );
    assert_eq!(fbits(&dist.encoder.dense_param_vec()), fbits(&seq_encoder.dense_param_vec()));
    // Frozen sparse features stay at their initial values.
    assert_eq!(dist.features.as_slice(), features.as_slice());
}

/// Satellite 3 — checkpoint round-trip at an epoch boundary: train 1 epoch,
/// checkpoint, restore, continue — bit-identical losses, dense parameters,
/// and trained features versus the uninterrupted run.
#[test]
fn epoch_checkpoint_roundtrip_is_bit_exact() {
    let (cluster, features) = setup(2);
    let dir = tmp_dir("epoch");

    let full = DistTrainer::new(&cluster, &features, spec(), base_cfg(2)).unwrap();
    let full = full.train().unwrap();

    let mut cfg_a = base_cfg(2);
    cfg_a.epochs = 1;
    cfg_a.checkpoint = Some(CheckpointConfig { dir: dir.clone(), every_steps: 0 });
    let first = DistTrainer::new(&cluster, &features, spec(), cfg_a).unwrap();
    let first = first.train().unwrap();
    assert_eq!(first.report.checkpoints_written, 1);

    let resumed = DistTrainer::new(&cluster, &features, spec(), base_cfg(2)).unwrap();
    let resumed = resume(&resumed, &dir.join("ckpt-0000000008.bin")).unwrap();

    assert_eq!(bits(&resumed.report.epoch_losses), bits(&full.report.epoch_losses));
    assert_eq!(fbits(&resumed.encoder.dense_param_vec()), fbits(&full.encoder.dense_param_vec()));
    assert_eq!(resumed.features.as_slice(), full.features.as_slice());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite 3 — mid-epoch restore: a checkpoint cut between epoch
/// boundaries resumes with the partial-epoch loss accumulators intact.
#[test]
fn mid_epoch_checkpoint_roundtrip_is_bit_exact() {
    let (cluster, features) = setup(2);
    let dir = tmp_dir("mid");

    let full = DistTrainer::new(&cluster, &features, spec(), base_cfg(2)).unwrap();
    let full = full.train().unwrap();

    let mut cfg = base_cfg(2);
    cfg.checkpoint = Some(CheckpointConfig { dir: dir.clone(), every_steps: 5 });
    let interrupted = DistTrainer::new(&cluster, &features, spec(), cfg).unwrap();
    let interrupted = interrupted.train().unwrap();
    // Steps 5, 10, 15, 20 are mid-epoch cuts; 8, 16, 24 are epoch boundaries.
    assert!(interrupted.report.checkpoints_written >= 6);

    let resumed = DistTrainer::new(&cluster, &features, spec(), base_cfg(2)).unwrap();
    let resumed = resume(&resumed, &dir.join("ckpt-0000000005.bin")).unwrap();

    assert_eq!(bits(&resumed.report.epoch_losses), bits(&full.report.epoch_losses));
    assert_eq!(fbits(&resumed.encoder.dense_param_vec()), fbits(&full.encoder.dense_param_vec()));
    assert_eq!(resumed.features.as_slice(), full.features.as_slice());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite 3 — corrupted or mismatched checkpoints are clean errors, never
/// panics.
#[test]
fn corrupt_and_mismatched_checkpoints_error_cleanly() {
    let (cluster, features) = setup(2);
    let dir = tmp_dir("corrupt");

    let mut cfg = base_cfg(2);
    cfg.epochs = 1;
    cfg.checkpoint = Some(CheckpointConfig { dir: dir.clone(), every_steps: 0 });
    DistTrainer::new(&cluster, &features, spec(), cfg).unwrap().train().unwrap();
    let path = dir.join("ckpt-0000000008.bin");
    let bytes = std::fs::read(&path).unwrap();

    let trainer = DistTrainer::new(&cluster, &features, spec(), base_cfg(2)).unwrap();

    // Truncation.
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(matches!(resume(&trainer, &path), Err(RuntimeError::Checkpoint(_))));
    // Bit flip.
    let mut bad = bytes.clone();
    bad[bytes.len() / 3] ^= 0xff;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(resume(&trainer, &path), Err(RuntimeError::Checkpoint(_))));
    // Structurally different run (other seed) must refuse the checkpoint.
    std::fs::write(&path, &bytes).unwrap();
    let other_cfg = RuntimeConfig { seed: 999, ..base_cfg(2) };
    let other = DistTrainer::new(&cluster, &features, spec(), other_cfg).unwrap();
    let err = match resume(&other, &path) {
        Err(e) => e,
        Ok(_) => panic!("fingerprint mismatch must be rejected"),
    };
    assert!(err.to_string().contains("fingerprint"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A chaos plan that drops nothing and kills `worker` right before global
/// step `at_step`. Its plane is registered and crash-scheduled where the
/// uninterrupted run's is the unarmed default; both cross it through the
/// same `push` / `drain_into`, so the bit-equalities below hold by
/// construction.
fn kill(worker: u32, at_step: u64) -> Option<FaultConfig> {
    let mut chaos = FaultConfig::with_seed(0, 0.0);
    chaos.plan.crash_schedule.push(CrashPoint { worker, at_step });
    Some(chaos)
}

/// Tentpole acceptance — fault injection: killing a worker mid-run restores
/// from the latest checkpoint and reaches the same final loss as the
/// uninterrupted run (the ISSUE asks for 5%; the deterministic restore is in
/// fact bit-exact).
#[test]
fn killed_worker_recovers_from_checkpoint() {
    let (cluster, features) = setup(2);
    let dir = tmp_dir("fault");

    let clean = DistTrainer::new(&cluster, &features, spec(), base_cfg(2)).unwrap();
    let clean = clean.train().unwrap();

    let mut cfg = base_cfg(2);
    cfg.checkpoint = Some(CheckpointConfig { dir: dir.clone(), every_steps: 0 });
    // Kill worker 1 two steps into epoch 2 (last checkpoint is step 8).
    cfg.chaos = kill(1, 10);
    let faulted = DistTrainer::new(&cluster, &features, spec(), cfg).unwrap();
    let faulted = faulted.train().unwrap();

    assert_eq!(faulted.report.recoveries, 1);
    let rel = (faulted.report.final_loss() - clean.report.final_loss()).abs()
        / clean.report.final_loss().abs();
    assert!(rel < 0.05, "final loss off by {rel}");
    assert_eq!(bits(&faulted.report.epoch_losses), bits(&clean.report.epoch_losses));
    assert_eq!(faulted.features.as_slice(), clean.features.as_slice());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A fault with no checkpointing configured restarts from scratch and still
/// finishes with the right answer.
#[test]
fn fault_without_checkpoints_restarts_from_scratch() {
    let (cluster, features) = setup(2);
    let clean = DistTrainer::new(&cluster, &features, spec(), base_cfg(2)).unwrap();
    let clean = clean.train().unwrap();

    let mut cfg = base_cfg(2);
    cfg.chaos = kill(0, 3);
    let faulted = DistTrainer::new(&cluster, &features, spec(), cfg).unwrap();
    let faulted = faulted.train().unwrap();
    assert_eq!(faulted.report.recoveries, 1);
    assert_eq!(bits(&faulted.report.epoch_losses), bits(&clean.report.epoch_losses));
}

/// Weak scaling: 4 workers each train their own shard, so they consume 4x
/// the edges of 1 worker, some of them on stale replicas, with remote
/// traffic metered. The modelled 2x speedup over 1 worker is a wall-clock
/// bound (`busy_ns` is measured time), so it is gated by the
/// `train-bench-scaling` row of `ci/smoke.sh`, not here.
#[test]
fn four_workers_consume_four_shards_with_stale_remote_reads() {
    let (cluster1, features1) = setup(1);
    let mut cfg = base_cfg(1);
    cfg.epochs = 1;
    let one = DistTrainer::new(&cluster1, &features1, spec(), cfg).unwrap().train().unwrap();

    let (cluster4, features4) = setup(4);
    let mut cfg = base_cfg(4);
    cfg.epochs = 1;
    cfg.staleness = 2;
    let four = DistTrainer::new(&cluster4, &features4, spec(), cfg).unwrap().train().unwrap();

    assert_eq!(four.report.edges_total, 4 * one.report.edges_total);
    assert!(four.report.per_worker.iter().all(|w| w.edges == one.report.edges_total));
    // The staleness histogram has entries beyond age 0 and remote traffic
    // was actually metered.
    assert_eq!(four.report.staleness_hist.len(), 3);
    assert!(four.report.staleness_hist.iter().skip(1).sum::<u64>() > 0);
    assert!(four.report.ps.remote_ops > 0);
    assert!(four.report.ps.remote_bytes > 0);
}

/// Staleness 2, a mid-epoch checkpoint every 3 steps and a kill at step 7:
/// the dense step runs after the push, and it must still land in the
/// encoder before the checkpoint deposit. The killed run equals the
/// uninterrupted one, and both equal the pinned bits, those of the shape
/// run without checkpoints. A checkpoint is a function of the seed and the
/// cut, so both runs also write the same files, byte for byte, at every
/// cut — before the kill and after the restore alike.
#[test]
fn stale_mid_epoch_kill_lands_on_the_parent_fingerprint() {
    /// `DistOutcome::fingerprint` of all three runs, with every push
    /// applied at the first drain after its step.
    const PARENT: u64 = 0x454c_6835_4783_280c;
    let (cluster, features) = setup(2);
    let run = |name: &str, checkpoint: bool, chaos| {
        let dir = tmp_dir(name);
        let mut cfg = base_cfg(2);
        cfg.staleness = 2;
        cfg.checkpoint = checkpoint.then(|| CheckpointConfig { dir: dir.clone(), every_steps: 3 });
        cfg.chaos = chaos;
        let out = DistTrainer::new(&cluster, &features, spec(), cfg).unwrap().train().unwrap();
        (out, dir)
    };
    let (plain, _) = run("stale-plain", false, None);
    let (clean, clean_dir) = run("stale-clean", true, None);
    let (killed, killed_dir) = run("stale-kill", true, kill(1, 7));
    assert_eq!(killed.report.recoveries, 1);
    assert_eq!(plain.fingerprint(), PARENT, "{:#018x}", plain.fingerprint());
    assert_eq!(clean.fingerprint(), PARENT, "{:#018x}", clean.fingerprint());
    assert_eq!(killed.fingerprint(), PARENT, "{:#018x}", killed.fingerprint());

    let files = |dir: &Path| {
        let mut names: Vec<_> =
            std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        names.sort();
        names
    };
    let names = files(&clean_dir);
    // Cuts at 3, 6, 8, 9, 12, 15, 16, 18, 21, 24; the kill restores from 6.
    assert_eq!(names.len(), 10, "{names:?}");
    assert_eq!(files(&killed_dir), names);
    for name in &names {
        let clean_bytes = std::fs::read(clean_dir.join(name)).unwrap();
        let killed_bytes = std::fs::read(killed_dir.join(name)).unwrap();
        assert!(clean_bytes == killed_bytes, "{name:?} differs between the clean and killed runs");
    }
    std::fs::remove_dir_all(&clean_dir).unwrap();
    std::fs::remove_dir_all(&killed_dir).unwrap();
}

/// Warm-start beyond the staleness-0 boundary. A checkpoint holds the
/// server as it stands: the rows at the workers' last drain, which a
/// restored worker pins as its replica, and the pushes staged since, which
/// its next drain applies. So with `staleness > 0` and a live sparse
/// learning rate a resumed run computes on the rows the uninterrupted one
/// does; this sweep pins bit-exact resumes across staleness bounds and
/// both cut kinds (mid-epoch and epoch boundary).
#[test]
fn warm_start_is_bit_exact_across_staleness_bounds() {
    for staleness in [0u64, 1, 2] {
        for resume_step in ["ckpt-0000000005.bin", "ckpt-0000000008.bin"] {
            let (cluster, features) = setup(2);
            let dir = tmp_dir(&format!("warm-{staleness}-{resume_step}"));

            let mut cfg = base_cfg(2);
            cfg.staleness = staleness;
            cfg.checkpoint = Some(CheckpointConfig { dir: dir.clone(), every_steps: 5 });
            let full = DistTrainer::new(&cluster, &features, spec(), cfg.clone()).unwrap();
            let full = full.train().unwrap();

            let resumed = DistTrainer::new(&cluster, &features, spec(), cfg).unwrap();
            let resumed = resume(&resumed, &dir.join(resume_step)).unwrap();

            assert_eq!(
                bits(&resumed.report.epoch_losses),
                bits(&full.report.epoch_losses),
                "losses diverged at staleness {staleness} resuming from {resume_step}",
            );
            assert_eq!(
                fbits(&resumed.encoder.dense_param_vec()),
                fbits(&full.encoder.dense_param_vec()),
                "dense params diverged at staleness {staleness} resuming from {resume_step}",
            );
            assert_eq!(
                resumed.features.as_slice(),
                full.features.as_slice(),
                "features diverged at staleness {staleness} resuming from {resume_step}",
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// What a 4-worker run over a tiered cluster must repeat exactly: the
/// trained model, the cluster's access meter, and the tier's read and
/// demotion totals.
#[derive(Debug, PartialEq, Eq)]
struct TieredRun {
    fingerprint: u64,
    adjacency: AccessStatsSnapshot,
    tier_reads: u64,
    tier_demotions: u64,
}

/// Four shards over a tier holding 20 000 decoded bytes, metered into
/// `registry`.
fn tiered_setup(registry: &Registry) -> (Cluster, FeatureMatrix) {
    let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
    let features = Featurizer::new(DIM).matrix(&graph);
    let (cluster, _) = Cluster::builder(graph)
        .partitioner(&EdgeCutHash)
        .shards(4)
        .cache(CacheStrategy::Lru { fraction: 0.05 })
        .max_hop(2)
        .cost_model(CostModel::default())
        .registry(registry)
        .tier_config(TierConfig::with_budget(Some(20_000)))
        .build();
    (cluster, features)
}

fn tiered_run(staleness: u64) -> TieredRun {
    let registry = Arc::new(Registry::new());
    let (cluster, features) = tiered_setup(&registry);
    let cfg = RuntimeConfig { staleness, epochs: 2, ..base_cfg(4) };
    let out = DistTrainer::new(&cluster, &features, spec(), cfg)
        .expect("valid config")
        .with_registry(Arc::clone(&registry))
        .train()
        .expect("fault-free run");
    let snap = registry.snapshot();
    TieredRun {
        fingerprint: out.fingerprint(),
        adjacency: out.report.adjacency,
        tier_reads: snap.counter_total("tier.reads"),
        tier_demotions: snap.counter_total("tier.demotions"),
    }
}

/// The workers sample at once, and every read of the cluster goes through
/// the reader's own part of it — its shard's tier state (hot set, decode
/// buffer), its neighbor cache — or an access meter that only adds. So the
/// counters are a function of the seed whatever the interleaving. They
/// were captured with per-shard tier state (each shard's hot set under its
/// share of the budget) and the fingerprints from the cut schedule (a
/// drain at step `t` sees no step-`t` push); each run must reproduce them.
#[test]
fn tiered_four_worker_runs_repeat_the_lock_step_counters() {
    let expected = [
        (
            0u64,
            TieredRun {
                fingerprint: 0xd4d9_7f6f_42fe_ec1b,
                adjacency: AccessStatsSnapshot {
                    local: 1710,
                    cached_remote: 951,
                    remote: 2457,
                    cold: 681,
                    replacements: 2018,
                    virtual_ns: 93_790_850,
                },
                tier_reads: 2391,
                tier_demotions: 667,
            },
        ),
        (
            2,
            TieredRun {
                fingerprint: 0x1ce0_7008_d73a_cee0,
                adjacency: AccessStatsSnapshot {
                    local: 1710,
                    cached_remote: 951,
                    remote: 2457,
                    cold: 681,
                    replacements: 2018,
                    virtual_ns: 93_790_850,
                },
                tier_reads: 2391,
                tier_demotions: 667,
            },
        ),
    ];
    for (staleness, want) in expected {
        assert!(want.tier_reads > 0 && want.tier_demotions > 0, "the budget must bind");
        for run in 0..10 {
            assert_eq!(tiered_run(staleness), want, "staleness {staleness}, run {run}");
        }
    }
}

/// Everything a run produces that two drivers of it must agree on besides
/// its checkpoint files: the model bits, the metered traffic, the staleness
/// histogram and the edges.
#[derive(Debug, PartialEq)]
struct RunBits {
    fingerprint: u64,
    epoch_losses: Vec<u64>,
    ps: TierMeterSnapshot,
    adjacency: AccessStatsSnapshot,
    staleness_hist: Vec<u64>,
    edges_total: u64,
}

/// Each checkpoint file's name and bytes, in name order.
type Files = Vec<(std::ffi::OsString, Vec<u8>)>;

/// Runs `cfg` on `cluster` on threads or in series, checkpointing every
/// `every` steps into a fresh directory when asked, and returns the run
/// with the files it wrote.
fn run_files(
    cluster: &Cluster,
    features: &FeatureMatrix,
    name: &str,
    cfg: &RuntimeConfig,
    every: Option<u64>,
    serial: bool,
) -> (DistOutcome, Files) {
    let dir = tmp_dir(&format!("{name}-{}", if serial { "series" } else { "threads" }));
    let mut cfg = cfg.clone();
    cfg.checkpoint = every.map(|every_steps| CheckpointConfig { dir: dir.clone(), every_steps });
    let trainer = DistTrainer::new(cluster, features, spec(), cfg).expect("valid config");
    let out = if serial { trainer.train_in_series() } else { trainer.train() }.expect("run ends");
    let mut files: Files = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .map(|e| {
                let path = e.expect("readable dir").path();
                (
                    path.file_name().expect("a file").to_owned(),
                    std::fs::read(&path).expect("readable"),
                )
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    files.sort();
    let _ = std::fs::remove_dir_all(&dir);
    (out, files)
}

/// Runs `cfg` on a fresh cluster (tiered or not) on threads or in series,
/// checkpointing every `every` steps into a fresh directory when asked.
fn run_bits(
    name: &str,
    tiered: bool,
    cfg: &RuntimeConfig,
    every: Option<u64>,
    serial: bool,
) -> (RunBits, Files) {
    let (cluster, features) =
        if tiered { tiered_setup(&Registry::new()) } else { setup(cfg.workers) };
    let (out, files) = run_files(&cluster, &features, name, cfg, every, serial);
    let run = RunBits {
        fingerprint: out.fingerprint(),
        epoch_losses: bits(&out.report.epoch_losses),
        ps: out.report.ps,
        adjacency: out.report.adjacency,
        staleness_hist: out.report.staleness_hist,
        edges_total: out.report.edges_total,
    };
    (run, files)
}

/// The serial driver is the reference for the threaded one: the same
/// worker steps in worker order on one thread, each cut's leader inline.
/// Every shape — mid-epoch checkpoints, a stale mid-epoch kill, a lossy
/// chaos plane, four workers on a binding tier at two staleness bounds —
/// must come out the same bit for bit, checkpoint files included.
#[test]
fn series_and_threads_agree_bit_for_bit() {
    let mut chaos = FaultConfig::with_seed(7, 0.2);
    chaos.plan.corrupt_checkpoint = true;
    let shapes = [
        ("mid-epoch", false, base_cfg(2), Some(5)),
        (
            "stale-kill",
            false,
            RuntimeConfig { staleness: 2, chaos: kill(1, 7), ..base_cfg(2) },
            Some(3),
        ),
        ("chaos", false, RuntimeConfig { chaos: Some(chaos), ..base_cfg(2) }, Some(4)),
        ("tiered-0", true, RuntimeConfig { epochs: 2, ..base_cfg(4) }, None),
        ("tiered-2", true, RuntimeConfig { staleness: 2, epochs: 2, ..base_cfg(4) }, None),
    ];
    for (name, tiered, cfg, every) in shapes {
        let (threads, threads_files) = run_bits(name, tiered, &cfg, every, false);
        let (series, series_files) = run_bits(name, tiered, &cfg, every, true);
        assert_eq!(threads, series, "{name}");
        let names = |files: &Files| files.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
        assert_eq!(names(&threads_files), names(&series_files), "{name}");
        assert!(threads_files == series_files, "{name}: a checkpoint file's bytes differ");
        assert_eq!(threads_files.is_empty(), every.is_none(), "{name}");
        if name == "stale-kill" {
            // The parent fingerprint of `stale_mid_epoch_kill_lands_on_the_parent_fingerprint`.
            assert_eq!(series.fingerprint, 0x454c_6835_4783_280c, "{:#018x}", series.fingerprint);
        }
    }
}

/// A checkpoint is an observation. At staleness 0–3, for every cadence —
/// none, epoch ends only, every 1, 2, 3 and 5 steps — on threads and in
/// series, a run trains the model its shape trains without checkpoints.
/// Seven steps an epoch put the epoch-end cut mid drain window at every
/// staleness above 0. A kill at every cut restores from that cut to the
/// same model, and the killed run writes the clean run's files byte for
/// byte.
#[test]
fn a_checkpoint_cadence_never_moves_the_model() {
    let (cluster, features) = setup(2);
    for staleness in 0u64..=3 {
        let cfg = RuntimeConfig {
            staleness,
            epochs: 2,
            batches_per_epoch: 7,
            batch_size: 8,
            ..base_cfg(2)
        };
        let name = format!("cadence-{staleness}");
        let plain = run_files(&cluster, &features, &name, &cfg, None, false).0.fingerprint();
        for every in [None, Some(0), Some(1), Some(2), Some(3), Some(5)] {
            let shape = format!("staleness {staleness}, every {every:?}");
            let (clean, files) = run_files(&cluster, &features, &name, &cfg, every, false);
            let series = run_files(&cluster, &features, &name, &cfg, every, true);
            assert_eq!(clean.fingerprint(), plain, "{shape}: {:#018x}", clean.fingerprint());
            assert_eq!(series.0.fingerprint(), plain, "{shape}, in series");
            assert!(series.1 == files, "{shape}: the series run wrote other files");
            let cuts = files.iter().map(|(name, _)| {
                let name = name.to_str().expect("an ASCII name");
                name["ckpt-".len()..name.len() - ".bin".len()].parse::<u64>().expect("a step")
            });
            for (i, cut) in cuts.filter(|&cut| cut < 14).enumerate() {
                let mut killed = cfg.clone();
                killed.chaos = kill(i as u32 % 2, cut);
                let (out, killed_files) =
                    run_files(&cluster, &features, &name, &killed, every, false);
                assert_eq!(out.report.recoveries, 1, "{shape}, killed at {cut}");
                assert_eq!(out.fingerprint(), plain, "{shape}, killed at {cut}");
                assert!(killed_files == files, "{shape}, killed at {cut}: other files");
            }
        }
    }
}

/// The drain schedule is a function of the step: every worker computes
/// step `t` on a replica `t % (s + 1)` steps old, restored workers too. So
/// the histogram of an attempt's steps is closed-form; a kill at step 7
/// restores from the checkpoint at step 5, which is not a multiple of
/// `s + 1` for `s` = 1..=3.
#[test]
fn the_staleness_histogram_follows_the_closed_form_schedule() {
    for staleness in 0u64..=3 {
        for killed in [false, true] {
            let (cluster, features) = setup(2);
            let dir = tmp_dir(&format!("schedule-{staleness}-{killed}"));
            let mut cfg = RuntimeConfig { staleness, ..base_cfg(2) };
            cfg.checkpoint = Some(CheckpointConfig { dir: dir.clone(), every_steps: 5 });
            cfg.chaos = if killed { kill(1, 7) } else { None };
            let out = DistTrainer::new(&cluster, &features, spec(), cfg).unwrap().train().unwrap();
            assert_eq!(out.report.recoveries, u64::from(killed));
            let first = if killed { 5 } else { 0 };
            let steps = first..24u64;
            let want: Vec<u64> = (0..=staleness)
                .map(|a| 2 * steps.clone().filter(|t| t % (staleness + 1) == a).count() as u64)
                .collect();
            assert_eq!(out.report.staleness_hist, want, "staleness {staleness}, killed {killed}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// PR 7 satellite — a warm-started delta epoch over an empty update set is
/// a no-op: resuming the latest valid checkpoint without extending
/// `epochs` runs zero steps and hands back the checkpointed model with an
/// unchanged fingerprint (bit-identical dense parameters and features).
#[test]
fn empty_delta_warm_start_is_a_noop() {
    for staleness in [0u64, 2] {
        let (cluster, features) = setup(2);
        let dir = tmp_dir(&format!("noop-{staleness}"));

        let mut cfg = base_cfg(2);
        cfg.staleness = staleness;
        cfg.checkpoint = Some(CheckpointConfig { dir: dir.clone(), every_steps: 0 });
        let trained = DistTrainer::new(&cluster, &features, spec(), cfg.clone()).unwrap();
        let trained = trained.train().unwrap();

        let (path, ckpt) = latest_valid_checkpoint(&dir).unwrap().expect("checkpoints written");
        assert_eq!(ckpt.global_step, 24, "latest cut is the final epoch boundary: {path:?}");

        let resumed = DistTrainer::new(&cluster, &features, spec(), cfg).unwrap();
        let resumed = resumed.train_from_checkpoint(ckpt).unwrap();

        assert_eq!(bits(&resumed.report.epoch_losses), bits(&trained.report.epoch_losses));
        assert_eq!(
            fbits(&resumed.encoder.dense_param_vec()),
            fbits(&trained.encoder.dense_param_vec()),
            "zero-step resume must not move the model (staleness {staleness})",
        );
        assert_eq!(resumed.features.as_slice(), trained.features.as_slice());
        // The report covers the steps this call ran: none.
        assert_eq!(resumed.report.edges_total, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
