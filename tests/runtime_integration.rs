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
    latest_valid_checkpoint, CheckpointConfig, DistTrainer, EncoderSpec, RuntimeConfig,
    RuntimeError,
};
use aligraph_suite::sampling::UniformNeighborhood;
use aligraph_suite::storage::{CacheStrategy, Cluster, CostModel};
use std::path::PathBuf;
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
    let resumed = resumed.train_from(&dir.join("ckpt-0000000008.bin")).unwrap();

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
    let resumed = resumed.train_from(&dir.join("ckpt-0000000005.bin")).unwrap();

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
    assert!(matches!(trainer.train_from(&path), Err(RuntimeError::Checkpoint(_))));
    // Bit flip.
    let mut bad = bytes.clone();
    bad[bytes.len() / 3] ^= 0xff;
    std::fs::write(&path, &bad).unwrap();
    assert!(matches!(trainer.train_from(&path), Err(RuntimeError::Checkpoint(_))));
    // Structurally different run (other seed) must refuse the checkpoint.
    std::fs::write(&path, &bytes).unwrap();
    let other_cfg = RuntimeConfig { seed: 999, ..base_cfg(2) };
    let other = DistTrainer::new(&cluster, &features, spec(), other_cfg).unwrap();
    let err = match other.train_from(&path) {
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

/// Tentpole acceptance — weak-scaling throughput: 4 workers must show at
/// least 2x the modelled edges/s of 1 worker (each worker trains its own
/// shard; comm is metered through the cost model).
#[test]
fn four_workers_double_modeled_throughput() {
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
    let speedup = four.report.modeled_edges_per_sec() / one.report.modeled_edges_per_sec();
    assert!(
        speedup >= 2.0,
        "modeled speedup {speedup:.2} < 2.0\n1w: {}\n4w: {}",
        one.report,
        four.report
    );
    // The staleness histogram has entries beyond age 0 and remote traffic
    // was actually metered.
    assert_eq!(four.report.staleness_hist.len(), 3);
    assert!(four.report.staleness_hist.iter().skip(1).sum::<u64>() > 0);
    assert!(four.report.ps.remote_ops > 0);
    assert!(four.report.ps.remote_bytes > 0);
}

/// PR 7 satellite — warm-start beyond the staleness-0 boundary. Earlier the
/// restore seeded every replica with the materialized server state at the
/// cut while `last_drain` pointed before it, so with `staleness > 0` and a
/// live sparse learning rate a resumed run computed on fresher features
/// than the uninterrupted one. Checkpoint cuts now refresh every worker's
/// replica to the same materialized state a restore rebuilds; this sweep
/// pins bit-exact resumes across staleness bounds and both cut kinds
/// (mid-epoch and epoch boundary).
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
            let resumed = resumed.train_from(&dir.join(resume_step)).unwrap();

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
        // Counters restore from the checkpoint; a zero-step resume adds
        // nothing on top of the trained run's totals.
        assert_eq!(resumed.report.edges_total, trained.report.edges_total);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
