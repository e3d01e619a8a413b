//! Quickstart: the full AliGraph pipeline in one page.
//!
//! 1. Generate a heterogeneous e-commerce graph (the Taobao simulator).
//! 2. Build the distributed store: partition → parallel shard ingest →
//!    importance-based neighbor caching.
//! 3. Sample a training batch through the TRAVERSE / NEIGHBORHOOD /
//!    NEGATIVE pipeline (paper Figure 5).
//! 4. Train GraphSAGE end-to-end on the Algorithm 1 framework.
//! 5. Evaluate link prediction (ROC-AUC / PR-AUC / F1).
//!
//! Run with: `cargo run --release --example quickstart`

#![expect(clippy::expect_used, reason = "an example aborts on a setup error")]

use aligraph_suite::core::models::graphsage::{train_graphsage, GraphSageConfig};
use aligraph_suite::core::trainer::evaluate_split;
use aligraph_suite::eval::link_prediction_split;
use aligraph_suite::graph::generate::TaobaoConfig;
use aligraph_suite::partition::EdgeCutHash;
use aligraph_suite::sampling::{
    SamplingPipeline, UniformNegative, UniformNeighborhood, UniformTraverse,
};
use aligraph_suite::storage::{CacheStrategy, Cluster, CostModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    // 1. A small attributed heterogeneous graph: users, items, four
    //    behavior edge types, interned attributes.
    let graph =
        Arc::new(TaobaoConfig::tiny().scaled(4.0).generate().expect("valid generator config"));
    println!(
        "graph: {} vertices ({} types), {} edges ({} types), attr index {} records",
        graph.num_vertices(),
        graph.num_vertex_types(),
        graph.num_edges(),
        graph.num_edge_types(),
        graph.vertex_attr_index().len(),
    );

    // 2. Distributed storage: 4 workers, importance cache on the top 20%.
    let (cluster, report) = Cluster::builder(Arc::clone(&graph))
        .partitioner(&EdgeCutHash)
        .shards(4)
        .cache(CacheStrategy::ImportanceBudget { k: 2, fraction: 0.2 })
        .max_hop(2)
        .cost_model(CostModel::default())
        .build();
    println!(
        "cluster: {} workers built in {:.1?} ({:.1}% of vertices cached per shard)",
        cluster.num_workers(),
        report.total(),
        cluster.cached_fraction() * 100.0,
    );

    // 3. One sampling stage, exactly as the paper's Figure 5.
    let pipeline = SamplingPipeline {
        traverse: UniformTraverse,
        neighborhood: UniformNeighborhood,
        negative: UniformNegative { vtype: None },
        hop_nums: vec![10, 5],
        neg_num: 5,
    };
    let mut rng = StdRng::seed_from_u64(7);
    let batch = pipeline.sample(
        &graph,
        graph.as_ref(),
        aligraph_suite::graph::ids::well_known::BUY,
        64,
        &mut rng,
    );
    println!(
        "sampled batch: {} seeds, {} context vertices, {} negatives each",
        batch.vertices.len(),
        batch.context.context_size(),
        batch.negatives[0].len(),
    );

    // 4 + 5. Train GraphSAGE and evaluate link prediction.
    let split = link_prediction_split(&graph, 0.15, 42);
    let trained = train_graphsage(&split.train, &GraphSageConfig::quick());
    println!(
        "training loss: {:.3} -> {:.3}",
        trained.report.epoch_losses[0],
        trained.report.final_loss(),
    );
    let metrics = evaluate_split(&trained.embeddings, &split);
    println!("link prediction: {metrics}");
}
