//! A tour of the platform's system layers: storage, partitioning, caching,
//! sampling, and the request-flow buckets — with live statistics.
//!
//! Run with: `cargo run --release --example platform_tour`

#![expect(clippy::expect_used, reason = "an example aborts on a setup error")]

use aligraph_suite::graph::generate::TaobaoConfig;
use aligraph_suite::graph::{DegreeTable, ImportanceTable, VertexId};
use aligraph_suite::partition::WorkerId;
use aligraph_suite::partition::{
    EdgeCutHash, Grid2D, MetisLike, PartitionQuality, Partitioner, StreamingLdg, VertexCutGreedy,
};
use aligraph_suite::sampling::DynamicWeights;
use aligraph_suite::storage::{BucketWeightService, CacheStrategy, Cluster, CostModel};
use std::sync::Arc;

fn main() {
    let mut cfg = TaobaoConfig::tiny().scaled(5.0);
    cfg.reverse_ui_prob = 0.2;
    let graph = Arc::new(cfg.generate().expect("valid config"));

    // --- Storage: separate attribute storage (paper §3.2). ---
    println!("## storage");
    println!(
        "adjacency: {} KB   attributes (interned): {} KB   naive co-located attrs: {} KB",
        graph.adjacency_bytes() / 1024,
        graph.attribute_bytes() / 1024,
        graph.naive_attribute_bytes() / 1024,
    );

    // --- The four partitioners (paper §3.2). ---
    println!("\n## partitioners (8 workers)");
    let partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(EdgeCutHash),
        Box::new(VertexCutGreedy::default()),
        Box::new(Grid2D),
        Box::new(StreamingLdg::default()),
        Box::new(MetisLike::default()),
    ];
    for p in &partitioners {
        let part = p.partition(&graph, 8);
        let q = PartitionQuality::evaluate(&graph, &part);
        println!(
            "{:<18} edge-cut {:>5.1}%  replication {:.2}  vertex imbalance {:.2}",
            p.name(),
            q.edge_cut_ratio * 100.0,
            q.replication_factor,
            q.vertex_imbalance,
        );
    }

    // --- Importance-based caching (Algorithm 2, Theorem 2). ---
    println!("\n## importance caching");
    let degrees = DegreeTable::compute(&graph, 2);
    let importance = ImportanceTable::from_degrees(&degrees);
    for tau in [0.1, 0.2, 0.3] {
        println!("τ={tau}: cache rate {:.1}%", importance.cache_rate(2, tau) * 100.0);
    }

    // --- A cluster with accounting. ---
    let (cluster, report) = Cluster::builder(Arc::clone(&graph))
        .partitioner(&EdgeCutHash)
        .shards(4)
        .cache(CacheStrategy::ImportanceBudget { k: 2, fraction: 0.2 })
        .max_hop(2)
        .cost_model(CostModel::default())
        .build();
    println!(
        "\n## cluster: built in {:.2?} (distributed makespan {:.2?})",
        report.total(),
        report.modeled_parallel_total()
    );
    for v in graph.vertices().take(2_000) {
        cluster.neighbors_from(WorkerId(0), v, 2).expect("in-graph vertex");
    }
    let snap = cluster.stats().snapshot();
    println!(
        "2000 reads from worker 0: {} local, {} cache-served, {} remote (hit rate {:.1}%)",
        snap.local,
        snap.cached_remote,
        snap.remote,
        snap.cache_hit_rate() * 100.0,
    );

    // --- Request-flow buckets (Figure 6): one lock per vertex group. ---
    println!("\n## request-flow buckets");
    let service = Arc::new(BucketWeightService::new(graph.num_vertices(), 4, 1.0));
    let weights = DynamicWeights::asynchronous(service).register_gradient(|g| -0.1 * g);
    for i in 0..1_000u32 {
        weights.backward(VertexId(i % 64), 1.0);
    }
    println!(
        "after 1000 async sampler updates: weight(v0) = {:.3} (mode {:?})",
        weights.get(VertexId(0)),
        weights.mode(),
    );
}
