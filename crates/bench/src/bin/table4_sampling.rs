//! Table 4: time of the three sampler classes, batch size 512, ~20% cache.
//!
//! Paper shape: TRAVERSE a few ms, NEIGHBORHOOD tens of ms, NEGATIVE a few
//! ms, and times grow only slowly from Taobao-small to Taobao-large.

use aligraph_bench::{f, header, row, taobao_large_bench, taobao_small_bench};
use aligraph_partition::{EdgeCutHash, WorkerId};
use aligraph_sampling::neighborhood::ClusterView;
use aligraph_sampling::{
    NegativeSampler, NeighborhoodSampler, TraverseSampler, UniformNeighborhood, UniformTraverse,
    UnigramNegative,
};
use aligraph_storage::{CacheStrategy, Cluster, CostModel};
use aligraph_telemetry::Stopwatch;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const BATCH: usize = 512;
const ROUNDS: u32 = 20;

fn main() {
    println!("# Table 4 — sampler time (batch = 512, ~20% importance cache)\n");
    header(&[
        "dataset",
        "workers",
        "cache rate",
        "TRAVERSE (ms)",
        "NEIGHBORHOOD (ms)",
        "NEGATIVE (ms)",
    ]);

    for (name, graph, workers) in [
        ("Taobao-small(sim)", Arc::new(taobao_small_bench()), 8usize),
        ("Taobao-large(sim)", Arc::new(taobao_large_bench()), 16),
    ] {
        let (cluster, _) = Cluster::builder(Arc::clone(&graph))
            .partitioner(&EdgeCutHash)
            .shards(workers)
            .cache(CacheStrategy::ImportanceBudget { k: 2, fraction: 0.2 })
            .max_hop(2)
            .cost_model(CostModel::default())
            .build();
        let mut rng = StdRng::seed_from_u64(4);
        let negative = UnigramNegative::new(&graph, None, 0.75);
        let etype = aligraph_graph::EdgeType(0);

        // TRAVERSE: a batch of edges.
        let t0 = Stopwatch::start();
        for _ in 0..ROUNDS {
            let edges = UniformTraverse.sample_edges(&graph, etype, BATCH, &mut rng);
            std::hint::black_box(edges);
        }
        let traverse_ms = t0.elapsed().as_secs_f64() * 1e3 / ROUNDS as f64;

        // NEIGHBORHOOD: 2-hop context [10, 5] through the cluster.
        let view = ClusterView { cluster: &cluster, from: WorkerId(0) };
        let seeds = UniformTraverse.sample_vertices(&graph, None, BATCH, &mut rng);
        let t0 = Stopwatch::start();
        for _ in 0..ROUNDS {
            let ctx = UniformNeighborhood.sample_context(&view, &seeds, None, &[10, 5], &mut rng);
            std::hint::black_box(ctx.context_size());
        }
        let neighborhood_ms = t0.elapsed().as_secs_f64() * 1e3 / ROUNDS as f64;

        // NEGATIVE: 10 negatives per seed.
        let t0 = Stopwatch::start();
        for _ in 0..ROUNDS {
            for &v in &seeds {
                std::hint::black_box(negative.sample(&graph, &[v], 10, &mut rng));
            }
        }
        let negative_ms = t0.elapsed().as_secs_f64() * 1e3 / ROUNDS as f64;

        row(&[
            name.to_string(),
            workers.to_string(),
            format!("{:.2}%", cluster.cached_fraction() * 100.0),
            f(traverse_ms, 2),
            f(neighborhood_ms, 2),
            f(negative_ms, 2),
        ]);
    }
    println!("\npaper: TRAVERSE 2.6ms, NEIGHBORHOOD 45-53ms, NEGATIVE 6.2-7.5ms; slow growth with graph size.");
}
