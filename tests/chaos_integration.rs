//! Chaos suite: the deterministic fault plane attacked end-to-end.
//!
//! The headline property (ISSUE 5): for any fault seed, as long as the drop
//! rate is below 1, training under the full recovery machinery converges
//! **bit-exactly** to the fault-free run — drops are retried, duplicates are
//! deduplicated by sequence number, crashes restore from the latest valid
//! checkpoint, and none of it perturbs a single mantissa bit. Recovery has
//! no off switch; the assertions' teeth are shown on a scratch copy that
//! carries the bug (a receiver without its sequencer, a sender without its
//! retry), where the sweep fails.

#![expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "a failed fixture setup in a test helper aborts the test, as in the #[test] itself"
)]

use aligraph_suite::chaos::{CrashPoint, FaultConfig, FaultPlan, FaultPlane, RetryPolicy};
use aligraph_suite::graph::dynamic::{EdgeEvent, EvolutionKind, SnapshotDelta};
use aligraph_suite::graph::ids::well_known::CLICK;
use aligraph_suite::graph::{FeatureMatrix, Featurizer, TaobaoConfig, VertexId};
use aligraph_suite::partition::EdgeCutHash;
use aligraph_suite::runtime::{
    CheckpointConfig, DistOutcome, DistTrainer, EncoderSpec, RuntimeConfig,
};
use aligraph_suite::sampling::TopKNeighborhood;
use aligraph_suite::serving::{ServeError, ServingConfig, ServingService};
use aligraph_suite::storage::{CacheStrategy, Cluster, CostModel};
use std::sync::Arc;
use std::time::Duration;

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
        epochs: 2,
        batches_per_epoch: 6,
        batch_size: 16,
        negatives: 2,
        staleness: 0,
        seed: 11,
        sparse_lr: 0.05,
        ..RuntimeConfig::default()
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

/// Satellite 1 — the 16-seed sweep: 8 fault seeds × drop rates {0.05, 0.2},
/// every run bit-exact against the fault-free baseline (losses, dense
/// parameters, trained features), with faults actually injected and
/// retries actually performed.
#[test]
fn chaos_sweep_converges_bit_exact_across_seeds_and_drop_rates() {
    let (cluster, features) = setup(2);
    let clean = train(base_cfg(2), &cluster, &features);
    assert_eq!(clean.report.faults_injected, 0, "baseline must be fault-free");

    let (mut faults, mut retries) = (0u64, 0u64);
    for seed in 1..=8u64 {
        for &drop_rate in &[0.05, 0.2] {
            let cfg = RuntimeConfig {
                chaos: Some(FaultConfig::with_seed(seed, drop_rate)),
                ..base_cfg(2)
            };
            let chaotic = train(cfg, &cluster, &features);
            assert_eq!(
                bits(&chaotic.report.epoch_losses),
                bits(&clean.report.epoch_losses),
                "seed {seed} drop {drop_rate}: losses diverged from fault-free run"
            );
            assert_eq!(
                fbits(&chaotic.encoder.dense_param_vec()),
                fbits(&clean.encoder.dense_param_vec()),
                "seed {seed} drop {drop_rate}: dense parameters diverged"
            );
            assert_eq!(
                chaotic.features.as_slice(),
                clean.features.as_slice(),
                "seed {seed} drop {drop_rate}: trained sparse features diverged"
            );
            faults += chaotic.report.faults_injected;
            retries += chaotic.report.retries;
        }
    }
    assert!(faults > 0, "the sweep must actually inject faults");
    assert!(retries > 0, "recovery must actually retry dropped sends");
}

/// Crashes mid-epoch plus checkpoint bit-flips: the worker dies, the
/// corrupted newest checkpoint is rejected, restore falls back to the
/// previous valid one — and the run still lands bit-exact on the baseline.
#[test]
fn crash_with_corrupted_checkpoint_recovers_bit_exact() {
    let (cluster, features) = setup(2);
    let clean = train(base_cfg(2), &cluster, &features);

    let dir = std::env::temp_dir().join(format!("algr-chaos-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut plan = FaultPlan::with_seed(5, 0.1);
    // Die two steps into epoch 2 (6 steps/epoch × 2 workers ⇒ step 8 ends
    // epoch 1); flip a byte in a seeded subset of checkpoints on the way.
    plan.crash_schedule = vec![CrashPoint { worker: 1, at_step: 8 }];
    plan.corrupt_checkpoint = true;
    let cfg = RuntimeConfig {
        checkpoint: Some(CheckpointConfig { dir: dir.clone(), every_steps: 3 }),
        chaos: Some(FaultConfig { plan, ..FaultConfig::default() }),
        ..base_cfg(2)
    };
    let faulted = train(cfg, &cluster, &features);

    assert_eq!(faulted.report.recoveries, 1, "the scheduled crash must fire once");
    assert!(faulted.report.faults_injected > 0);
    assert_eq!(bits(&faulted.report.epoch_losses), bits(&clean.report.epoch_losses));
    assert_eq!(fbits(&faulted.encoder.dense_param_vec()), fbits(&clean.encoder.dense_param_vec()));
    assert_eq!(faulted.features.as_slice(), clean.features.as_slice());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A send past its retry deadline is not a fault: the attempt loop does
/// not recover from it, `train()` returns it. At this seed and drop rate
/// one worker's send gives up while the other worker waits at its next
/// cut; that worker must be woken with the error, not left waiting. The
/// run is on a helper thread, so a hang fails the test instead of
/// stalling the suite.
#[test]
fn one_worker_past_its_retry_deadline_fails_the_run_instead_of_hanging() {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (cluster, features) = setup(2);
        let cfg = RuntimeConfig { chaos: Some(FaultConfig::with_seed(3, 0.9)), ..base_cfg(2) };
        let outcome = DistTrainer::new(&cluster, &features, spec(), cfg).unwrap().train();
        tx.send(outcome.map(|_| ()).map_err(|e| e.to_string())).ok();
    });
    let outcome = rx.recv_timeout(Duration::from_secs(60)).expect("train() must return, not hang");
    let err = outcome.expect_err("a send past its retry deadline fails the run");
    assert!(err.contains("retry deadline exhausted"), "unexpected error: {err}");
}

fn click_delta(i: u32) -> SnapshotDelta {
    SnapshotDelta {
        added: vec![EdgeEvent {
            src: VertexId(i % 4),
            dst: VertexId(i % 4 + 1),
            etype: CLICK,
            kind: EvolutionKind::Normal,
        }],
        removed: vec![],
    }
}

/// Serving under fire: with shard fetches failing almost always, the service
/// degrades to version-tagged fallback embeddings *within* the staleness
/// bound (tagged `degraded=true`, metered) and fails closed with the exact
/// staleness arithmetic once the overlay moves beyond the bound. A stale
/// embedding never escapes untagged or out of bound.
#[test]
fn serving_degrades_within_bound_and_fails_closed_beyond() {
    let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
    let n = graph.num_vertices() as u32;
    let bound = 3u64;
    let config = ServingConfig {
        cache_capacity: 1, // force (faulted) forwards instead of cache hits
        fault: Some(FaultConfig {
            plan: FaultPlan::with_seed(21, 0.95),
            policy: RetryPolicy { base_ticks: 1, max_attempts: 2 },
        }),
        max_stale_versions: bound,
        ..Default::default()
    };
    let service = ServingService::start(Arc::clone(&graph), TopKNeighborhood, config);
    let plane = service.fault_plane().expect("fault config installs a plane");

    // Warm every vertex fault-free: fallback entries land at version 0.
    plane.disarm();
    for v in 0..n {
        let e = service.embedding_tagged(VertexId(v)).unwrap();
        assert!(!e.degraded, "fault-free serves are never degraded");
    }

    // Two deltas (version 2 — inside the bound), then attack.
    for i in 0..2 {
        service.apply_delta(&click_delta(i));
    }
    plane.arm();
    let mut degraded = 0usize;
    for v in 0..n {
        let e =
            service.embedding_tagged(VertexId(v)).expect("inside the bound every vertex is served");
        if e.degraded {
            degraded += 1;
        }
    }
    assert!(degraded > 0, "a 95% drop rate must degrade some serves");
    let report = service.report(Duration::from_secs(1));
    assert_eq!(report.degraded as usize, degraded, "degraded serves are metered");

    // Two more deltas (version 4): vertices whose fallback still dates from
    // version 0 are now beyond the bound — unavailable, with the staleness
    // spelled out, never a silently-stale embedding.
    for i in 2..4 {
        service.apply_delta(&click_delta(i));
    }
    let mut unavailable = 0usize;
    for v in 0..n {
        match service.embedding_tagged(VertexId(v)) {
            Ok(_) => {}
            Err(ServeError::Unavailable { stale_by, bound: b, .. }) => {
                assert_eq!(b, bound);
                assert!(stale_by > bound, "fail-closed only beyond the bound");
                unavailable += 1;
            }
            Err(other) => panic!("unexpected serve error: {other}"),
        }
    }
    assert!(unavailable > 0, "some fallback entries must have aged out");
}

/// One `FaultConfig` *value* attaches all three subsystems in turn — the
/// type is shared, not merely same-shaped — and each keeps its promise
/// under it: training and streaming land bit-exactly on their fault-free
/// runs (faults cost only modelled time), serving never hands out an
/// untagged stale embedding.
#[test]
fn one_fault_config_value_attaches_every_subsystem() {
    use aligraph_suite::streaming::{StreamingConfig, StreamingService, UpdateWorkload};
    use aligraph_telemetry::Registry;
    let fault = FaultConfig::with_seed(7, 0.2);

    let (cluster, features) = setup(2);
    let clean = train(base_cfg(2), &cluster, &features);
    let cfg = RuntimeConfig { chaos: Some(fault.clone()), ..base_cfg(2) };
    let chaotic = train(cfg, &cluster, &features);
    assert!(chaotic.report.faults_injected > 0 && chaotic.report.retries > 0);
    assert_eq!(chaotic.fingerprint(), clean.fingerprint(), "training diverged under faults");

    let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
    let n = graph.num_vertices() as u32;
    let feats = Arc::new(Featurizer::new(DIM).matrix(&graph));
    let stream = |fault: Option<FaultConfig>| {
        let config = StreamingConfig { shards: 2, seed: 7, fault, ..Default::default() };
        let svc = StreamingService::start(Arc::clone(&graph), Arc::clone(&feats), config);
        let mut workload = UpdateWorkload::new(7, n, DIM);
        let mut lag = 0u64;
        let touched: Vec<_> = (0..20)
            .map(|_| {
                let r = svc.ingest(&workload.next_batch(6, 2)).expect("ingest");
                lag += r.lag_ticks;
                (r.epoch, r.touched_rows, r.touched_feats)
            })
            .collect();
        svc.oracle_check().expect("rebuild oracle");
        let session = svc.session();
        let gathers: Vec<_> = (0..n).map(|v| session.gather(VertexId(v)).vector).collect();
        (touched, gathers, lag)
    };
    let (clean_touched, clean_gathers, clean_lag) = stream(None);
    let (touched, gathers, lag) = stream(Some(fault.clone()));
    assert_eq!((touched, gathers), (clean_touched, clean_gathers), "ingest diverged under faults");
    assert!(clean_lag == 0 && lag > 0, "faults cost lag ticks, and only faults do");

    let registry = Registry::new();
    let serve = |fault: Option<FaultConfig>, registry: &Registry| {
        let config =
            ServingConfig { cache_capacity: 1, fault, max_stale_versions: 3, ..Default::default() };
        let svc = ServingService::start_with_registry(
            Arc::clone(&graph),
            TopKNeighborhood,
            config,
            registry,
        );
        (0..n)
            .map(|v| svc.embedding_tagged(VertexId(v)).expect("inside the retry budget"))
            .collect()
    };
    let clean_served: Vec<_> = serve(None, &Registry::disabled());
    let served: Vec<_> = serve(Some(fault), &registry);
    assert!(registry.snapshot().counter_total("chaos.faults_injected") > 0);
    for (v, (a, b)) in served.iter().zip(&clean_served).enumerate() {
        assert!(!a.degraded, "vertex {v}: a fetch that got through is never tagged degraded");
        assert_eq!(a.embedding, b.embedding, "vertex {v}: served embedding diverged");
    }
}

/// The fault stream itself is deterministic: the same seed yields the same
/// fault count and the same retry count, run after run — the repro
/// one-liner in the README depends on it.
#[test]
fn fault_stream_is_a_pure_function_of_the_seed() {
    let (cluster, features) = setup(2);
    let run = |seed: u64| {
        let cfg = RuntimeConfig { chaos: Some(FaultConfig::with_seed(seed, 0.2)), ..base_cfg(2) };
        let out = train(cfg, &cluster, &features);
        (out.report.faults_injected, out.report.retries)
    };
    assert_eq!(run(42), run(42), "same seed, same faults, same retries");
    assert_ne!(run(42), run(43), "different seeds explore different fault sequences");
}

/// The fault stream each of the six senders draws, pinned to the numbers
/// its parent produced (computed there, written here): training, ingest and
/// rebalance at the parent of PR 15, whose one delivery driver replaced
/// their hand-rolled retry loops; PS rehome and the serving fetch at the
/// parent of PR 25, whose `Seq` replaced their `u64` counters. Each must
/// consume the same `Delivery` per `(channel, seq, attempt)`, count the
/// same faults and retries, and cost the same virtual ticks.
mod parent_pins {
    use super::*;
    use aligraph_suite::chaos::FaultSnapshot;
    use aligraph_suite::runtime::RebalancePlan;
    use aligraph_suite::storage::RebalanceOp;
    use aligraph_suite::streaming::{StreamingConfig, StreamingService, UpdateWorkload};
    use aligraph_telemetry::Registry;

    const TRAIN: FaultSnapshot = FaultSnapshot { faults_injected: 71, retries: 29 };
    const INGEST: (FaultSnapshot, u64) = (FaultSnapshot { faults_injected: 60, retries: 25 }, 86);
    const REBALANCE: (FaultSnapshot, u64) =
        (FaultSnapshot { faults_injected: 31, retries: 11 }, 54);
    const REHOME: (FaultSnapshot, u64) = (FaultSnapshot { faults_injected: 113, retries: 44 }, 1);
    const FETCH: FaultSnapshot = FaultSnapshot { faults_injected: 98, retries: 37 };

    #[test]
    fn training_draws_the_parent_fault_stream() {
        let (cluster, features) = setup(2);
        let cfg = RuntimeConfig { chaos: Some(FaultConfig::with_seed(7, 0.2)), ..base_cfg(2) };
        let report = train(cfg, &cluster, &features).report;
        let got =
            FaultSnapshot { faults_injected: report.faults_injected, retries: report.retries };
        assert_eq!(got, TRAIN);
    }

    #[test]
    fn streaming_ingest_draws_the_parent_fault_stream() {
        let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
        let n = graph.num_vertices() as u32;
        let feats = Arc::new(Featurizer::new(DIM).matrix(&graph));
        let registry = Registry::new();
        let fault = Some(FaultConfig::with_seed(7, 0.2));
        let config = StreamingConfig { shards: 2, seed: 7, fault, ..Default::default() };
        let svc = StreamingService::start_with_registry(graph, feats, config, &registry);
        let mut workload = UpdateWorkload::new(7, n, DIM);
        let lag: u64 = (0..40)
            .map(|_| svc.ingest(&workload.next_batch(6, 2)).expect("ingest").lag_ticks)
            .sum();
        svc.shutdown();
        let snap = registry.snapshot();
        let got = FaultSnapshot {
            faults_injected: snap.counter_total("chaos.faults_injected"),
            retries: snap.counter("chaos.retries", &[]),
        };
        assert_eq!((got, lag), INGEST);
    }

    #[test]
    fn rebalance_draws_the_parent_fault_stream() {
        let (cluster, _) = setup(2);
        let plane = FaultPlane::new(FaultPlan::with_seed(7, 0.2));
        let report = cluster
            .rebalance(RebalanceOp::Split { shard: 0 }, &plane, &RetryPolicy::default())
            .expect("split");
        assert_eq!((plane.snapshot(), report.lag_ticks), REBALANCE);
    }

    /// The PS rehome hop, measured on the parent of PR 25 (no earlier pin
    /// covered it): one split after epoch 1 adds its stream to training's.
    #[test]
    fn rebalance_in_training_draws_the_parent_fault_stream() {
        let (cluster, features) = setup(2);
        let cfg = RuntimeConfig {
            chaos: Some(FaultConfig::with_seed(7, 0.2)),
            rebalance: vec![RebalancePlan { after_epoch: 1, op: RebalanceOp::Split { shard: 0 } }],
            ..base_cfg(2)
        };
        let report = train(cfg, &cluster, &features).report;
        let got =
            FaultSnapshot { faults_injected: report.faults_injected, retries: report.retries };
        assert_eq!((got, report.rebalances), REHOME);
    }

    /// The serving fetch hop, measured on the parent of PR 25: one
    /// sequential pass over every vertex, every read a cache miss.
    #[test]
    fn serving_fetch_draws_the_parent_fault_stream() {
        let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
        let n = graph.num_vertices() as u32;
        let registry = Registry::new();
        let config = ServingConfig {
            cache_capacity: 1,
            fault: Some(FaultConfig::with_seed(7, 0.2)),
            max_stale_versions: 3,
            ..Default::default()
        };
        let svc = ServingService::start_with_registry(graph, TopKNeighborhood, config, &registry);
        for v in 0..n {
            svc.embedding_tagged(VertexId(v)).expect("inside the retry budget");
        }
        let snap = registry.snapshot();
        let got = FaultSnapshot {
            faults_injected: snap.counter_total("chaos.faults_injected"),
            retries: snap.counter("chaos.retries", &[]),
        };
        assert_eq!(got, FETCH);
    }
}
