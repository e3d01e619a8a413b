//! Elastic-membership suite: mid-training topology changes attacked
//! end-to-end (ISSUE 8).
//!
//! The headline property: a shard split (or split-then-merge roundtrip)
//! applied at an epoch boundary — with the moved subgraph streamed over the
//! chaos plane's migration channel — converges **bit-exactly** to the same
//! run on a static topology, at any drop rate below 1. A rebalance moves
//! physical residency and comm accounting, never the math. The broken
//! recovery variant ([`RecoveryMode::NoRetry`]) exists to prove the
//! assertion has teeth: losing migrated subgraphs must visibly diverge.

use aligraph_suite::chaos::{FaultConfig, RecoveryMode};
use aligraph_suite::graph::{FeatureMatrix, Featurizer, TaobaoConfig};
use aligraph_suite::partition::EdgeCutHash;
use aligraph_suite::runtime::{
    DistOutcome, DistTrainer, EncoderSpec, RebalancePlan, RuntimeConfig,
};
use aligraph_suite::storage::{CacheStrategy, Cluster, CostModel, RebalanceOp};
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
        batches_per_epoch: 6,
        batch_size: 16,
        negatives: 2,
        staleness: 0,
        seed: 11,
        sparse_lr: 0.05,
        ..RuntimeConfig::default()
    }
}

fn split_after(epoch: usize) -> RebalancePlan {
    RebalancePlan {
        after_epoch: epoch,
        op: RebalanceOp::Split { shard: 0 },
        mode: RecoveryMode::Full,
    }
}

fn train(cfg: RuntimeConfig, cluster: &Cluster, features: &FeatureMatrix) -> DistOutcome {
    DistTrainer::new(cluster, features, spec(), cfg).unwrap().train().unwrap()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn fbits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The tentpole headline: a split after epoch 1 — clean plane, 5% drop,
/// and 20% drop on every channel including the migration stream — all
/// converge bit-exactly to the static-topology run (losses, dense
/// parameters, trained features), and the drops really happened.
#[test]
fn mid_training_split_is_bit_exact_under_chaos() {
    let (cluster, features) = setup(2);
    let fixed = train(base_cfg(2), &cluster, &features);
    assert_eq!(fixed.report.rebalances, 0, "static run must not rebalance");

    let mut faulted_runs = 0u64;
    for chaos in [None, Some((3u64, 0.05)), Some((3u64, 0.2)), Some((9u64, 0.2))] {
        let cfg = RuntimeConfig {
            rebalance: vec![split_after(1)],
            chaos: chaos.map(|(seed, rate)| FaultConfig::with_seed(seed, rate)),
            ..base_cfg(2)
        };
        let elastic = train(cfg, &cluster, &features);
        assert_eq!(elastic.report.rebalances, 1, "the split must have applied");
        let tag = match chaos {
            Some((seed, rate)) => format!("chaos seed {seed} drop {rate}"),
            None => "clean plane".to_string(),
        };
        assert_eq!(
            bits(&elastic.report.epoch_losses),
            bits(&fixed.report.epoch_losses),
            "{tag}: losses diverged from the static topology"
        );
        assert_eq!(
            fbits(&elastic.encoder.dense_param_vec()),
            fbits(&fixed.encoder.dense_param_vec()),
            "{tag}: dense parameters diverged from the static topology"
        );
        assert_eq!(
            elastic.features.as_slice(),
            fixed.features.as_slice(),
            "{tag}: trained feature rows diverged from the static topology"
        );
        if chaos.is_some() {
            assert!(elastic.report.faults_injected > 0, "{tag}: no faults fired");
            faulted_runs += 1;
        }
    }
    assert_eq!(faulted_runs, 3, "every armed plane must have injected");
}

/// Split-then-merge roundtrip: shard 0 splits after epoch 1, and the new
/// shard (id = old shard count) merges back after epoch 2 — both
/// migrations live, both bit-exact against the run that never moved.
#[test]
fn split_then_merge_roundtrip_is_bit_exact() {
    let (cluster, features) = setup(2);
    let fixed = train(base_cfg(2), &cluster, &features);

    let cfg = RuntimeConfig {
        rebalance: vec![
            split_after(1),
            RebalancePlan {
                after_epoch: 2,
                op: RebalanceOp::Merge { from: 2, into: 0 },
                mode: RecoveryMode::Full,
            },
        ],
        chaos: Some(FaultConfig::with_seed(5, 0.2)),
        ..base_cfg(2)
    };
    let round = train(cfg, &cluster, &features);
    assert_eq!(round.report.rebalances, 2, "split and merge must both apply");
    assert_eq!(bits(&round.report.epoch_losses), bits(&fixed.report.epoch_losses));
    assert_eq!(fbits(&round.encoder.dense_param_vec()), fbits(&fixed.encoder.dense_param_vec()));
}

/// Teeth: with retry deliberately broken on the migration stream, a lost
/// subgraph record still flips its cutover, so the moved vertices serve
/// empty state — some fault seed must visibly diverge from the static run.
/// If no seed in the sweep diverges, the headline assertions above are
/// vacuous and this test fails.
#[test]
fn broken_migration_recovery_diverges_for_some_seed() {
    let (cluster, features) = setup(2);
    let fixed = train(base_cfg(2), &cluster, &features);

    let diverged = (1..=10u64).any(|seed| {
        let cfg = RuntimeConfig {
            rebalance: vec![RebalancePlan {
                after_epoch: 1,
                op: RebalanceOp::Split { shard: 0 },
                mode: RecoveryMode::NoRetry,
            }],
            chaos: Some(FaultConfig::with_seed(seed, 0.2)),
            ..base_cfg(2)
        };
        match DistTrainer::new(&cluster, &features, spec(), cfg).unwrap().train() {
            // Losing migrated state may also surface as a hard error —
            // that counts as detection too.
            Err(_) => true,
            Ok(out) => {
                bits(&out.report.epoch_losses) != bits(&fixed.report.epoch_losses)
                    || fbits(&out.encoder.dense_param_vec())
                        != fbits(&fixed.encoder.dense_param_vec())
            }
        }
    });
    assert!(
        diverged,
        "NoRetry on the migration stream never diverged: the bit-exact assertions have no teeth"
    );
}

/// A rebalance scheduled past the last epoch is rejected up front, not
/// silently skipped.
#[test]
fn out_of_range_rebalance_is_rejected() {
    let (cluster, features) = setup(2);
    let cfg = RuntimeConfig { rebalance: vec![split_after(99)], ..base_cfg(2) };
    let err = DistTrainer::new(&cluster, &features, spec(), cfg)
        .and_then(|t| t.train())
        .expect_err("after_epoch beyond the run must fail");
    assert!(err.to_string().contains("out of range"), "unexpected error: {err}");
}
