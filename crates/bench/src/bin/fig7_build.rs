//! Figure 7: graph building time vs. number of workers, both datasets.
//!
//! Paper shape: build time decreases with workers; whole builds finish in
//! minutes even for Taobao-large (vs hours on PowerGraph). Here the
//! simulated datasets are ~20,000× smaller, so absolute times are in the
//! millisecond–second range; the *scaling* with workers is the result.
//! A shard's ingest builds only its residency bits and neighbor cache (the
//! rows stay in the one shared graph), so the serial partition phase
//! dominates and the curve is flat here (EXPERIMENTS.md, Fig 7).

use aligraph_bench::{f, header, row, taobao_large_bench, taobao_small_bench};
use aligraph_partition::EdgeCutHash;
use aligraph_storage::{CacheStrategy, Cluster, CostModel};
use std::sync::Arc;

#[expect(clippy::expect_used, reason = "an experiment aborts on a broken fixture")]
fn main() {
    println!("# Figure 7 — graph building time vs number of workers\n");
    let datasets = [
        ("Taobao-small(sim)", Arc::new(taobao_small_bench())),
        ("Taobao-large(sim)", Arc::new(taobao_large_bench())),
    ];
    header(&[
        "dataset",
        "vertices",
        "edges",
        "workers",
        "partition(ms)",
        "slowest shard ingest(ms)",
        "cluster build(ms)",
    ]);
    for (name, graph) in &datasets {
        for workers in [1usize, 2, 4, 8, 16, 32] {
            // Best of 3 runs (build time is allocation-noise sensitive).
            let report = (0..3)
                .map(|_| {
                    Cluster::builder(Arc::clone(graph))
                        .partitioner(&EdgeCutHash)
                        .shards(workers)
                        .cache(CacheStrategy::None)
                        .max_hop(2)
                        .cost_model(CostModel::default())
                        .build()
                        .1
                })
                .min_by_key(|r| r.modeled_parallel_total())
                .expect("three runs");
            row(&[
                name.to_string(),
                graph.num_vertices().to_string(),
                graph.num_edges().to_string(),
                workers.to_string(),
                f(report.partition_time.as_secs_f64() * 1e3, 1),
                f(report.ingest_makespan().as_secs_f64() * 1e3, 2),
                f(report.modeled_parallel_total().as_secs_f64() * 1e3, 2),
            ]);
        }
    }
    println!("\n'cluster build' = partition + importance + slowest shard's ingest (the");
    println!("distributed makespan; on a machine with >= `workers` cores it equals wall time).");
    println!(
        "paper: build time decreases w.r.t. workers; Taobao-large builds in ~5 min on 400 workers."
    );
}
