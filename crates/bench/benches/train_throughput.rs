//! Weak-scaling bench for the distributed training runtime: modelled
//! edges/s and speedup vs 1 worker as the worker count grows. Not a
//! criterion timing loop — each configuration trains once and the runtime's
//! own cost-model report supplies the numbers (the container is
//! single-core, so wall-clock scaling is meaningless; see DESIGN.md).

#![expect(clippy::expect_used, reason = "a benchmark aborts on a broken setup")]

use aligraph_bench::{f, header, row, taobao_small_bench};
use aligraph_graph::Featurizer;
use aligraph_partition::EdgeCutHash;
use aligraph_runtime::{DistTrainer, EncoderSpec, RuntimeConfig};
use aligraph_storage::{CacheStrategy, Cluster, CostModel};
use std::sync::Arc;

fn main() {
    let graph = Arc::new(taobao_small_bench());
    let dim = 16;
    let features = Featurizer::new(dim).matrix(&graph);
    let spec =
        EncoderSpec { dim_in: dim, dims: vec![16, 8], fanouts: vec![5, 3], lr: 0.05, seed: 7 };

    println!("train_throughput: {} vertices / {} edges", graph.num_vertices(), graph.num_edges());
    header(&["workers", "staleness", "edges/s (modeled)", "speedup", "remote msgs", "loss"]);

    let mut base = None;
    for workers in [1usize, 2, 4, 8] {
        let (cluster, _) = Cluster::builder(Arc::clone(&graph))
            .partitioner(&EdgeCutHash)
            .shards(workers)
            .cache(CacheStrategy::None)
            .max_hop(2)
            .cost_model(CostModel::default())
            .build();
        let cfg = RuntimeConfig {
            workers,
            epochs: 2,
            batches_per_epoch: 16,
            batch_size: 32,
            negatives: 4,
            staleness: 2,
            seed: 42,
            sparse_lr: 0.05,
            ..RuntimeConfig::default()
        };
        let out = DistTrainer::new(&cluster, &features, spec.clone(), cfg)
            .expect("valid config")
            .train()
            .expect("training run");
        let eps = out.report.modeled_edges_per_sec();
        let base_eps = *base.get_or_insert(eps);
        row(&[
            workers.to_string(),
            out.report.staleness.to_string(),
            f(eps, 0),
            format!("{:.2}x", eps / base_eps),
            out.report.ps.remote_ops.to_string(),
            f(out.report.final_loss(), 4),
        ]);
    }
}
