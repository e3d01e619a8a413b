//! Differential oracle suite for the cold storage tier (ISSUE 10).
//!
//! The tier's headline claim: resident-budget pressure changes *where* rows
//! are served from — never *what* they contain. Every test here runs the
//! same seeded workload against the all-hot oracle (infinite budget) and
//! against tight budgets (50%, 10% of the all-hot footprint), and demands
//! bit-identical results: k-hop context trees, adjacency and feature
//! gathers, training epoch losses, dense parameters, trained features.
//! Each tight run also proves it pressed on the path it guards (cold reads,
//! dirty rows written back), so no equality here holds vacuously.

#![expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "a failed fixture setup in a test helper aborts the test, as in the #[test] itself"
)]

use aligraph_graph::generate::TaobaoConfig;
use aligraph_graph::{AttributedHeterogeneousGraph, FeatureMatrix, Featurizer, VertexId};
use aligraph_partition::{EdgeCutHash, Partitioner, WorkerId};
use aligraph_runtime::{DistOutcome, DistTrainer, EncoderSpec, RuntimeConfig};
use aligraph_sampling::neighborhood::ClusterView;
use aligraph_sampling::{NeighborhoodSampler, UniformNeighborhood};
use aligraph_storage::seal::Fnv1a;
use aligraph_storage::{CacheStrategy, Cluster, CostModel, TierConfig, TieredStore};
use aligraph_telemetry::Registry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const DIM: usize = 16;

fn graph() -> Arc<AttributedHeterogeneousGraph> {
    Arc::new(TaobaoConfig::tiny().generate().expect("valid config"))
}

fn tiered_cluster(
    g: &Arc<AttributedHeterogeneousGraph>,
    budget: Option<u64>,
) -> (Cluster, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let (cluster, _) = Cluster::builder(Arc::clone(g))
        .partitioner(&EdgeCutHash)
        .shards(4)
        .cache(CacheStrategy::None)
        .cost_model(CostModel::default())
        .registry(&registry)
        .tier_config(TierConfig::with_budget(budget))
        .build();
    (cluster, registry)
}

/// The decoded footprint of "everything hot": build with an infinite budget,
/// touch every row, read the gauge.
fn all_hot_bytes(g: &Arc<AttributedHeterogeneousGraph>) -> u64 {
    let (cluster, _) = tiered_cluster(g, None);
    let tier = cluster.tier().expect("tiered build").clone();
    for v in g.vertices() {
        tier.read_adjacency(v);
    }
    tier.resident_bytes()
}

/// Order-sensitive fingerprint of every adjacency row and feature row read
/// back through the tier — the bit-exactness witness.
fn gather_fingerprint(tier: &TieredStore, g: &AttributedHeterogeneousGraph) -> u64 {
    let mut h = Fnv1a::new();
    for v in g.vertices() {
        let (nbrs, _) = tier.read_adjacency(v).expect("a vertex of the graph");
        h.word(nbrs.len() as u64);
        for n in nbrs.iter() {
            h.word(u64::from(n.vertex.0));
            h.word(u64::from(n.weight.to_bits()));
            h.word(u64::from(n.attr.0));
            h.word(u64::from(n.etype.0));
        }
        if let Some((row, _)) = tier.feature_row(v) {
            for f in row.iter() {
                h.word(u64::from(f.to_bits()));
            }
        }
    }
    h.finish()
}

/// Differential oracle 1 — gathers and k-hop samples: the same seed under
/// infinite, 50% and 10% resident budgets produces bit-identical context
/// trees and row contents, while the tight budgets actually serve from the
/// cold tier (cold ops > 0) and never burst their byte cap.
#[test]
fn gathers_and_khop_samples_bit_identical_across_budgets() {
    let g = graph();
    let features = Featurizer::new(DIM).matrix(&g);
    let full = all_hot_bytes(&g);

    // Oracle: the infinite-budget tier.
    let (oracle_cluster, _) = tiered_cluster(&g, None);
    let oracle_tier = oracle_cluster.tier().unwrap().clone();
    oracle_tier.attach_features(&features).unwrap();
    let oracle_fp = gather_fingerprint(&oracle_tier, &g);
    let mut oracle_rng = StdRng::seed_from_u64(42);
    let seeds: Vec<VertexId> = g.vertices().take(32).collect();
    let oracle_ctx = UniformNeighborhood.sample_context(
        &ClusterView { cluster: &oracle_cluster, from: WorkerId(0) },
        &seeds,
        None,
        &[4, 3],
        &mut oracle_rng,
    );

    for fraction in [2u64, 10] {
        let budget = (full / fraction).max(1);
        let (cluster, registry) = tiered_cluster(&g, Some(budget));
        let tier = cluster.tier().unwrap().clone();
        tier.attach_features(&features).unwrap();

        // Same-seed k-hop samples through the cluster view (this also
        // drives the frontier prefetch pipeline).
        let mut rng = StdRng::seed_from_u64(42);
        let ctx = UniformNeighborhood.sample_context(
            &ClusterView { cluster: &cluster, from: WorkerId(0) },
            &seeds,
            None,
            &[4, 3],
            &mut rng,
        );
        assert_eq!(ctx, oracle_ctx, "budget 1/{fraction}: context tree diverged");

        // Full-graph gather, bit-compared via fingerprint.
        assert_eq!(
            gather_fingerprint(&tier, &g),
            oracle_fp,
            "budget 1/{fraction}: gather fingerprint diverged from all-hot"
        );

        // The budget held and the cold tier actually served reads.
        assert!(
            tier.peak_resident_bytes() <= budget,
            "budget 1/{fraction}: peak {} > budget {budget}",
            tier.peak_resident_bytes()
        );
        let snap = registry.snapshot();
        assert!(
            snap.counter("tier.reads", &[("src", "cold")])
                + snap.counter("tier.reads", &[("src", "prefetch")])
                > 0,
            "budget 1/{fraction}: nothing was ever served cold — vacuous test"
        );
        if fraction == 10 {
            // At 50% the sampled hubs may all stay hot; at 10% the frontier
            // must spill to the cold class (direct or prefetch-overlapped).
            assert!(
                snap.counter("storage.access", &[("tier", "cold")]) > 0,
                "budget 1/{fraction}: sampling never hit the cold AccessKind"
            );
        }
    }
}

fn spec() -> EncoderSpec {
    EncoderSpec { dim_in: DIM, dims: vec![16, 8], fanouts: vec![3, 2], lr: 0.05, seed: 7 }
}

fn train(cluster: &Cluster, features: &FeatureMatrix) -> DistOutcome {
    let cfg = RuntimeConfig {
        workers: 4,
        epochs: 2,
        batches_per_epoch: 5,
        batch_size: 16,
        negatives: 2,
        staleness: 0,
        seed: 11,
        sparse_lr: 0.05,
        ..RuntimeConfig::default()
    };
    DistTrainer::new(cluster, features, spec(), cfg).unwrap().train().unwrap()
}

/// Differential oracle 2 — training: epoch fingerprints (losses), dense
/// parameters and trained features are bit-identical whether the cluster
/// trains all-hot or under a 10% resident budget, and the tight run really
/// does read through the cold tier.
#[test]
fn training_epoch_fingerprints_identical_across_budgets() {
    let g = graph();
    let features = Featurizer::new(DIM).matrix(&g);
    let full = all_hot_bytes(&g);

    let (oracle_cluster, _) = tiered_cluster(&g, None);
    let oracle = train(&oracle_cluster, &features);

    for fraction in [2u64, 10] {
        let (cluster, _) = tiered_cluster(&g, Some((full / fraction).max(1)));
        let out = train(&cluster, &features);
        let losses: Vec<u64> = out.report.epoch_losses.iter().map(|x| x.to_bits()).collect();
        let oracle_losses: Vec<u64> =
            oracle.report.epoch_losses.iter().map(|x| x.to_bits()).collect();
        assert_eq!(losses, oracle_losses, "budget 1/{fraction}: epoch losses diverged");
        assert_eq!(
            out.encoder.dense_param_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            oracle.encoder.dense_param_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "budget 1/{fraction}: dense parameters diverged"
        );
        assert_eq!(
            out.features.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            oracle.features.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "budget 1/{fraction}: trained features diverged"
        );
        assert_eq!(out.fingerprint(), oracle.fingerprint(), "the one-word form of the above");
        if fraction == 10 {
            assert!(
                out.report.adjacency.cold > 0,
                "budget 1/{fraction}: training never touched the cold tier — vacuous"
            );
        }
        assert_eq!(oracle.report.adjacency.cold, 0, "all-hot oracle must never read cold");
    }
}

/// Applies a deterministic feature-update workload through a tier: read,
/// modify, write back, with adjacency sweeps in between to force demotions.
/// Returns the fingerprint of every row read back at the end.
fn feature_update_workload(tier: &TieredStore, g: &AttributedHeterogeneousGraph) -> u64 {
    for (i, v) in g.vertices().enumerate() {
        if i % 3 == 0 {
            let (row, _) = tier.feature_row(v).expect("features attached");
            let updated: Vec<f32> = row.iter().map(|f| f * 0.5 + i as f32).collect();
            tier.write_row(v, &updated);
        }
        if i % 7 == 0 {
            // Demotion pressure: walk a stretch of adjacency rows.
            for u in g.vertices().skip(i).take(16) {
                tier.read_adjacency(u);
            }
        }
    }
    tier.flush_writeback().unwrap();
    let mut h = Fnv1a::new();
    for v in g.vertices() {
        let (row, _) = tier.feature_row(v).expect("features attached");
        for f in row.iter() {
            h.word(u64::from(f.to_bits()));
        }
    }
    h.finish()
}

fn build_tier(
    g: &Arc<AttributedHeterogeneousGraph>,
    features: &FeatureMatrix,
    budget: Option<u64>,
    registry: &Registry,
) -> Arc<TieredStore> {
    let part = EdgeCutHash.partition(g, 2);
    let owners: Vec<u32> = g.vertices().map(|v| part.owner_of(v).0).collect();
    let cfg = TierConfig::with_budget(budget);
    let tier = TieredStore::build(Arc::clone(g), &owners, 2, cfg, CostModel::default(), registry);
    tier.attach_features(features).unwrap();
    tier
}

/// Differential oracle 3 — writes: the same update workload under a 10%
/// budget is bit-identical to the all-hot oracle, and the tight run really
/// did demote dirty rows through the writeback (a write's only copy is its
/// hot row until then).
#[test]
fn feature_writes_survive_eviction_under_a_tight_budget() {
    let g = graph();
    let features = Featurizer::new(8).matrix(&g);
    let full = all_hot_bytes(&g);
    let tight = (full / 10).max(1);

    let oracle =
        feature_update_workload(&build_tier(&g, &features, None, &Registry::disabled()), &g);
    let registry = Registry::new();
    let writeback = feature_update_workload(&build_tier(&g, &features, Some(tight), &registry), &g);
    assert_eq!(
        writeback, oracle,
        "writeback eviction under a 10% budget must be bit-identical to all-hot"
    );
    let snap = registry.snapshot();
    assert!(
        snap.counter("tier.demotions", &[("outcome", "writeback")]) > 0,
        "no dirty row was ever demoted — vacuous test"
    );
    assert!(snap.counter("tier.writeback.rows", &[]) > 0, "nothing was written back");
}

/// The migration path stays correct on a tiered cluster: a shard split with
/// live migration serves every vertex bit-exactly afterwards, from the new
/// residency.
#[test]
fn tiered_cluster_survives_shard_split() {
    use aligraph_chaos::{FaultPlan, FaultPlane, RetryPolicy};
    use aligraph_storage::RebalanceOp;

    let g = graph();
    let full = all_hot_bytes(&g);
    let (cluster, _) = tiered_cluster(&g, Some((full / 4).max(1)));
    let plane = FaultPlane::new(FaultPlan::default());
    cluster.rebalance(RebalanceOp::Split { shard: 0 }, &plane, &RetryPolicy::default()).unwrap();
    // Every vertex resident on the shard it routes to and on no other,
    // rows still bit-exact.
    cluster.verify_residency().unwrap();
    let tier = cluster.tier().unwrap();
    let servers: Vec<_> =
        (0..cluster.num_shards() as u32).map(|s| cluster.server(WorkerId(s))).collect();
    for v in g.vertices() {
        let home = cluster.primary_of(v).unwrap();
        for (slot, server) in servers.iter().enumerate() {
            assert_eq!(server.is_local(v), slot == home.index(), "vertex {v:?} on shard {slot}");
        }
        let (nbrs, _) = tier.read_adjacency(v).expect("a vertex of the graph");
        assert_eq!(&nbrs[..], g.out_neighbors(v));
    }
}

/// The one durable writer — checkpoints — goes through
/// `seal::write_atomic`: the file reads back equal, no temp sibling is left
/// behind, and a stale `*.tmp` from a crashed writer is neither picked up
/// by recovery (`latest_valid_checkpoint`) nor in the way of the next write
/// to the same name.
#[test]
fn sealed_writers_are_atomic_and_ignore_stale_temps() {
    use aligraph_runtime::{latest_valid_checkpoint, Checkpoint};

    let dir = std::env::temp_dir().join(format!("aligraph-sealed-writers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tmp_files = |d: &std::path::Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        names.sort();
        names
    };
    let torn = b"half a file, from a writer that died before its rename";

    // The crashed writer was on a *newer* step than anything valid on
    // disk, and a second one died on the very name written next.
    let ckpt_dir = dir.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    std::fs::write(ckpt_dir.join("ckpt-0000000009.bin.tmp"), torn).unwrap();
    std::fs::write(ckpt_dir.join("ckpt-0000000005.bin.tmp"), torn).unwrap();
    let ckpt = Checkpoint { global_step: 5, epoch_losses: vec![0.5, 0.25], ..Default::default() };
    let path = ckpt.write_to_dir(&ckpt_dir).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), ckpt.to_bytes());
    assert_eq!(tmp_files(&ckpt_dir), ["ckpt-0000000009.bin.tmp"], "own temp renamed away");
    let (latest, loaded) = latest_valid_checkpoint(&ckpt_dir).unwrap().unwrap();
    assert_eq!((latest, &loaded), (path, &ckpt), "the stale step-9 temp is not a candidate");

    let _ = std::fs::remove_dir_all(&dir);
}
