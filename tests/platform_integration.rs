//! End-to-end platform integration: generator → partition → distributed
//! storage → sampling pipeline → GNN training → evaluation, the whole
//! Figure 3 stack in one test file.

#![expect(
    clippy::expect_used,
    reason = "a failed fixture setup in a test helper aborts the test, as in the #[test] itself"
)]

use aligraph_suite::core::models::graphsage::{train_graphsage, GraphSageConfig};
use aligraph_suite::core::trainer::evaluate_split;
use aligraph_suite::eval::link_prediction_split;
use aligraph_suite::graph::dynamic::{EdgeEvent, EvolutionKind, SnapshotDelta};
use aligraph_suite::graph::generate::TaobaoConfig;
use aligraph_suite::graph::ids::well_known::{BUY, CLICK, ITEM, USER};
use aligraph_suite::graph::{AttributedHeterogeneousGraph, EdgeType, Featurizer, VertexId};
use aligraph_suite::partition::{
    EdgeCutHash, Grid2D, MetisLike, PartitionQuality, Partitioner, StreamingLdg, VertexCutGreedy,
    WorkerId,
};
use aligraph_suite::runtime::{DistTrainer, EncoderSpec, RuntimeConfig};
use aligraph_suite::sampling::{
    SamplingPipeline, TopKNeighborhood, UniformNegative, UniformNeighborhood, UniformTraverse,
};
use aligraph_suite::serving::{ServingConfig, ServingService};
use aligraph_suite::storage::{CacheStrategy, Cluster, CostModel, TierConfig};
use aligraph_suite::streaming::{StreamingConfig, StreamingService, UpdateBatch, UpdateEvent};
use std::sync::Arc;

fn graph() -> aligraph_suite::graph::AttributedHeterogeneousGraph {
    TaobaoConfig::tiny().scaled(2.0).generate().expect("valid config")
}

#[test]
fn every_partitioner_supports_the_full_stack() {
    let graph = Arc::new(graph());
    let partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(EdgeCutHash),
        Box::new(VertexCutGreedy::default()),
        Box::new(Grid2D),
        Box::new(StreamingLdg::default()),
        Box::new(MetisLike::default()),
    ];
    for partitioner in &partitioners {
        let part = partitioner.partition(&graph, 4);
        let q = PartitionQuality::evaluate(&graph, &part);
        assert!(q.edge_cut_ratio <= 1.0, "{}: cut {}", partitioner.name(), q.edge_cut_ratio);
        assert!(
            q.vertex_imbalance < 8.0,
            "{}: imbalance {}",
            partitioner.name(),
            q.vertex_imbalance
        );
        // Every vertex must be owned by a valid worker.
        assert_eq!(part.vertex_owners().len(), graph.num_vertices());
        assert!(part.vertex_owners().iter().all(|w| w.index() < part.num_workers()));
    }
}

#[test]
fn cluster_serves_full_sampling_pipeline() {
    let graph = Arc::new(graph());
    let (cluster, report) = Cluster::builder(Arc::clone(&graph))
        .partitioner(&EdgeCutHash)
        .shards(4)
        .cache(CacheStrategy::ImportanceBudget { k: 2, fraction: 0.2 })
        .max_hop(2)
        .cost_model(CostModel::default())
        .build();
    assert!(report.total() > std::time::Duration::ZERO);
    assert!(report.ingest_makespan() <= report.ingest_time);

    // Figure 5 pipeline against the distributed view.
    let pipeline = SamplingPipeline {
        traverse: UniformTraverse,
        neighborhood: UniformNeighborhood,
        negative: UniformNegative { vtype: Some(ITEM) },
        hop_nums: vec![6, 3],
        neg_num: 4,
    };
    let view = aligraph_suite::sampling::neighborhood::ClusterView {
        cluster: &cluster,
        from: WorkerId(0),
    };
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(7);
    let batch = pipeline.sample(&graph, &view, BUY, 32, &mut rng);
    assert_eq!(batch.vertices.len(), 32);
    assert!(batch.context.context_size() > 0);
    // The distributed reads were accounted.
    let snap = cluster.stats().snapshot();
    assert!(snap.total() > 0);
    assert!(snap.cached_remote + snap.remote > 0, "4 workers => remote traffic");
}

#[test]
fn importance_cache_reduces_modeled_cost_end_to_end() {
    let graph = Arc::new(graph());
    let mut costs = Vec::new();
    for strategy in [CacheStrategy::None, CacheStrategy::ImportanceBudget { k: 2, fraction: 0.3 }] {
        let (cluster, _) = Cluster::builder(Arc::clone(&graph))
            .partitioner(&EdgeCutHash)
            .shards(4)
            .cache(strategy)
            .max_hop(2)
            .cost_model(CostModel::default())
            .build();
        for v in graph.vertices() {
            cluster.neighbors_from(WorkerId(0), v, 2).unwrap();
        }
        costs.push(cluster.stats().snapshot().virtual_ns);
    }
    assert!(costs[1] < costs[0], "cached {} vs none {}", costs[1], costs[0]);
}

#[test]
fn trained_gnn_beats_chance_on_link_prediction() {
    let g = graph();
    let split = link_prediction_split(&g, 0.15, 9);
    let trained = train_graphsage(&split.train, &GraphSageConfig::quick());
    let metrics = evaluate_split(&trained.embeddings, &split);
    assert!(metrics.roc_auc > 0.53, "AUC {}", metrics.roc_auc);
    assert!(metrics.roc_auc <= 1.0 && metrics.pr_auc <= 1.0 && metrics.f1 <= 1.0);
}

#[test]
fn heterogeneous_structure_survives_the_stack() {
    let g = graph();
    // Types preserved through splits.
    let split = link_prediction_split(&g, 0.2, 3);
    assert_eq!(split.train.vertices_of_type(USER).len(), g.vertices_of_type(USER).len());
    assert_eq!(split.train.vertices_of_type(ITEM).len(), g.vertices_of_type(ITEM).len());
    // All four behavior types appear among held-out positives.
    assert!(split.test_edge_types().len() >= 3);
}

/// `g`'s adjacency bytes with no in-record held: 16 B an out-record, both
/// offset arrays and the per-type edge rosters.
fn held_without_in_records(g: &AttributedHeterogeneousGraph) -> usize {
    let offsets = 2 * (g.num_vertices() + 1) * size_of::<usize>();
    let rosters: usize =
        (0..g.num_edge_types()).map(|t| g.edges_of_type(EdgeType(t)).heap_bytes()).sum();
    16 * g.num_edge_records() + offsets + rosters
}

/// Training reads in-degrees (the tier's importance key, the negative
/// samplers), never an in-row, so it never derives the in-records. The
/// online services' first delta walks in-rows (reverse-reach
/// invalidation, the overlay's in-row copy) and derives them: from then on
/// the graph holds what an eager build held, 32 B a record.
#[test]
fn training_never_derives_the_in_records_and_a_delta_does() {
    // All hot, then over a tier holding 20 000 decoded bytes.
    for tier in [None, Some(TierConfig::with_budget(Some(20_000)))] {
        let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
        let features = Featurizer::new(16).matrix(&graph);
        let held = held_without_in_records(&graph);
        assert_eq!(graph.adjacency_bytes(), held);
        let builder = Cluster::builder(Arc::clone(&graph))
            .partitioner(&EdgeCutHash)
            .shards(2)
            .cache(CacheStrategy::Lru { fraction: 0.05 })
            .max_hop(2)
            .cost_model(CostModel::default());
        let tiered = tier.is_some();
        let (cluster, _) = match tier {
            Some(cfg) => builder.tier_config(cfg).build(),
            None => builder.build(),
        };
        let spec =
            EncoderSpec { dim_in: 16, dims: vec![16, 8], fanouts: vec![3, 2], lr: 0.05, seed: 7 };
        let cfg = RuntimeConfig {
            workers: 2,
            epochs: 2,
            batches_per_epoch: 4,
            batch_size: 16,
            negatives: 2,
            seed: 11,
            sparse_lr: 0.05,
            ..RuntimeConfig::default()
        };
        let out = DistTrainer::new(&cluster, &features, spec, cfg)
            .expect("valid config")
            .train()
            .expect("fault-free run");
        assert!(out.report.epoch_losses.iter().all(|l| l.is_finite()));
        assert_eq!(graph.adjacency_bytes(), held, "tiered {tiered}: training derived in-rows");
    }

    let eager =
        |g: &AttributedHeterogeneousGraph| held_without_in_records(g) + 16 * g.num_edge_records();
    let (src, dst) = (VertexId(0), VertexId(1));

    let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
    let service =
        ServingService::start(Arc::clone(&graph), TopKNeighborhood, ServingConfig::default());
    service.embedding(src).expect("served");
    assert_eq!(graph.adjacency_bytes(), held_without_in_records(&graph));
    let edge = EdgeEvent { src, dst, etype: CLICK, kind: EvolutionKind::Normal };
    service.apply_delta(&SnapshotDelta { added: vec![edge], removed: Vec::new() });
    assert_eq!(graph.adjacency_bytes(), eager(&graph), "a serving delta derives the in-rows");

    let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
    let features = Arc::new(Featurizer::new(8).matrix(&graph));
    let svc = StreamingService::start(Arc::clone(&graph), features, StreamingConfig::default());
    svc.session().gather(src);
    assert_eq!(graph.adjacency_bytes(), held_without_in_records(&graph));
    let add = UpdateEvent::AddEdge { src, dst, etype: CLICK, weight: 1.0 };
    svc.ingest(&UpdateBatch { events: vec![add] }).expect("ingest");
    assert_eq!(graph.adjacency_bytes(), eager(&graph), "a streaming ingest derives the in-rows");
    svc.shutdown();
}
