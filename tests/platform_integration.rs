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
use aligraph_suite::graph::generate::TaobaoConfig;
use aligraph_suite::graph::ids::well_known::{BUY, ITEM, USER};
use aligraph_suite::partition::{
    EdgeCutHash, Grid2D, MetisLike, PartitionQuality, Partitioner, StreamingLdg, VertexCutGreedy,
    WorkerId,
};
use aligraph_suite::sampling::{
    SamplingPipeline, UniformNegative, UniformNeighborhood, UniformTraverse,
};
use aligraph_suite::storage::{CacheStrategy, Cluster, CostModel};
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
