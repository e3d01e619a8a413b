//! Regression tests for run-to-run determinism of the distributed runtime:
//! repeated trainings in one process must be bitwise identical. (This once
//! caught worker threads materializing their initial replica *after* another
//! worker had already pushed — a startup race invisible to single-run
//! tests.)

#![expect(
    clippy::unwrap_used,
    reason = "a failed fixture setup in a test helper aborts the test, as in the #[test] itself"
)]

use aligraph_suite::graph::{Featurizer, TaobaoConfig};
use aligraph_suite::partition::EdgeCutHash;
use aligraph_suite::runtime::{DistTrainer, EncoderSpec, RuntimeConfig};
use aligraph_suite::storage::{CacheStrategy, Cluster, CostModel};
use std::sync::Arc;

fn probe(workers: usize, sparse_lr: f32, label: &str) {
    let graph = Arc::new(TaobaoConfig::tiny().generate().unwrap());
    let features = Featurizer::new(16).matrix(&graph);
    let (cluster, _) = Cluster::builder(graph)
        .partitioner(&EdgeCutHash)
        .shards(workers)
        .cache(CacheStrategy::None)
        .max_hop(2)
        .cost_model(CostModel::default())
        .build();
    let spec =
        EncoderSpec { dim_in: 16, dims: vec![16, 8], fanouts: vec![3, 2], lr: 0.05, seed: 7 };
    let cfg = RuntimeConfig {
        workers,
        epochs: 2,
        batches_per_epoch: 8,
        batch_size: 16,
        negatives: 2,
        staleness: 0,
        seed: 11,
        sparse_lr,
        ..RuntimeConfig::default()
    };
    let a =
        DistTrainer::new(&cluster, &features, spec.clone(), cfg.clone()).unwrap().train().unwrap();
    for i in 0..6 {
        let b = DistTrainer::new(&cluster, &features, spec.clone(), cfg.clone())
            .unwrap()
            .train()
            .unwrap();
        assert_eq!(
            a.report.epoch_losses.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.report.epoch_losses.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "{label}: losses diverged at rerun {i}"
        );
        assert_eq!(
            a.features.as_slice(),
            b.features.as_slice(),
            "{label}: features diverged at rerun {i}"
        );
        let pa: Vec<u32> = a.encoder.dense_param_vec().iter().map(|x| x.to_bits()).collect();
        let pb: Vec<u32> = b.encoder.dense_param_vec().iter().map(|x| x.to_bits()).collect();
        assert_eq!(pa, pb, "{label}: params diverged at rerun {i}");
    }
}

#[test]
fn two_workers_frozen_features_are_deterministic() {
    probe(2, 0.0, "p2 sparse_lr=0");
}

#[test]
fn single_worker_sparse_updates_are_deterministic() {
    probe(1, 0.05, "p1 sparse_lr=0.05");
}

#[test]
fn two_workers_sparse_updates_are_deterministic() {
    probe(2, 0.05, "p2 sparse_lr=0.05");
}
