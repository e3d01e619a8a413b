//! Telemetry integration: one registry spanning storage, sampling, and
//! runtime, and the determinism contract — telemetry observes a run, it
//! never perturbs one.

use aligraph_graph::generate::TaobaoConfig;
use aligraph_graph::{AttributedHeterogeneousGraph, Featurizer};
use aligraph_partition::EdgeCutHash;
use aligraph_runtime::{DistOutcome, DistTrainer, EncoderSpec, RuntimeConfig};
use aligraph_storage::{CacheStrategy, Cluster, CostModel};
use aligraph_telemetry::Registry;
use std::sync::Arc;

fn graph() -> Arc<AttributedHeterogeneousGraph> {
    let mut cfg = TaobaoConfig::small_sim().scaled(0.004);
    cfg.seed = 7;
    Arc::new(cfg.generate().unwrap())
}

fn train(registry: &Arc<Registry>) -> DistOutcome {
    let graph = graph();
    let dim = 8;
    let (cluster, _) = Cluster::builder(Arc::clone(&graph))
        .partitioner(&EdgeCutHash)
        .shards(2)
        .cache(CacheStrategy::Lru { fraction: 0.1 })
        .max_hop(2)
        .cost_model(CostModel::default())
        .registry(registry)
        .build();
    let features = Featurizer::new(dim).matrix(&graph);
    let spec =
        EncoderSpec { dim_in: dim, dims: vec![dim, 4], fanouts: vec![4, 2], lr: 0.05, seed: 3 };
    let cfg = RuntimeConfig {
        workers: 2,
        epochs: 2,
        batches_per_epoch: 4,
        batch_size: 8,
        negatives: 2,
        staleness: 1,
        seed: 11,
        sparse_lr: 0.05,
        ..RuntimeConfig::default()
    };
    DistTrainer::new(&cluster, &features, spec, cfg)
        .unwrap()
        .with_registry(Arc::clone(registry))
        .train()
        .unwrap()
}

/// The determinism regression: a run with a live registry must produce the
/// bit-identical loss trajectory, parameters, and features of a run with
/// telemetry disabled. Metrics are recorded but never branched on.
#[test]
fn telemetry_does_not_perturb_training() {
    let silent = train(&Arc::new(Registry::disabled()));
    let observed = train(&Arc::new(Registry::new()));

    let bits = |ls: &[f64]| ls.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&silent.report.epoch_losses),
        bits(&observed.report.epoch_losses),
        "loss trajectory must be bit-identical with telemetry on vs off"
    );
    assert_eq!(silent.encoder.dense_param_vec(), observed.encoder.dense_param_vec());
    assert_eq!(silent.features.as_slice(), observed.features.as_slice());
    assert_eq!(silent.report.staleness_hist, observed.report.staleness_hist);
    assert_eq!(silent.report.ps, observed.report.ps);
}

/// The unified-registry acceptance check: one train-bench-style run lands
/// storage, sampling, and runtime series in a single snapshot.
#[test]
fn one_snapshot_spans_storage_sampling_and_runtime() {
    let registry = Arc::new(Registry::new());
    let outcome = train(&registry);
    let snap = registry.snapshot();

    assert!(snap.has_prefix("storage.access"), "storage tiers missing");
    assert!(snap.has_prefix("storage.neighbor_cache"), "cache events missing");
    assert!(snap.counter_total("sampling.draws") > 0, "sampler draws missing");
    assert!(snap.counter_total("runtime.ps.ops") > 0, "ps ops missing");
    assert!(snap.histogram("runtime.staleness", &[]).count > 0, "staleness missing");
    assert!(snap.histogram("runtime.allreduce_ns", &[]).count > 0, "allreduce missing");

    // The registry and the report agree on the PS traffic.
    let remote_ops = snap.counter("runtime.ps.ops", &[("tier", "remote")]);
    assert_eq!(remote_ops, outcome.report.ps.remote_ops);

    // Both export surfaces carry the cross-layer series.
    let text = snap.render_text();
    let json = snap.to_json().to_string();
    for name in ["storage.access", "sampling.draws", "runtime.ps.ops"] {
        assert!(text.contains(name), "render_text missing {name}");
        assert!(json.contains(name), "to_json missing {name}");
    }
}
