//! Table 5: AGGREGATE/COMBINE time per mini-batch with and without the
//! intermediate-embedding materialization cache (§3.4).
//!
//! Paper shape: an order-of-magnitude speedup (12.9× on Taobao-small,
//! 13.7× on Taobao-large). Here the memoized Algorithm 1 tape vs. the
//! recompute-everything tape plays that role: sampled neighborhoods of a
//! mini-batch overlap heavily, so sharing `ĥ^(k)_v` eliminates most of the
//! operator work.

use aligraph::{EpisodeTape, GnnEncoder};
use aligraph_bench::{f, header, row, taobao_large_bench, taobao_small_bench};
use aligraph_graph::{Featurizer, VertexId};
use aligraph_sampling::UniformNeighborhood;
use aligraph_telemetry::Stopwatch;
use rand::prelude::*;
use rand::rngs::StdRng;

const BATCH: usize = 256;
const ROUNDS: u32 = 10;

fn run(graph: &aligraph_graph::AttributedHeterogeneousGraph, memoized: bool) -> (f64, u64, u64) {
    let features = Featurizer::new(32).matrix(graph);
    // Three hops: the recomputation the cache removes grows with kmax, and
    // kmax in [2, 3] is the practical GNN range.
    let encoder = GnnEncoder::sage(32, &[64, 64, 32], &[10, 8, 5], 0.01, 1);
    let mut rng = StdRng::seed_from_u64(7);
    let n = graph.num_vertices() as u32;
    let mut total = 0.0;
    let mut hits = 0;
    let mut computes = 0;
    for _ in 0..ROUNDS {
        let seeds: Vec<VertexId> = (0..BATCH).map(|_| VertexId(rng.gen_range(0..n))).collect();
        let mut tape =
            if memoized { EpisodeTape::new() } else { EpisodeTape::without_memoization() };
        let t0 = Stopwatch::start();
        for &v in &seeds {
            let idx =
                encoder.forward(graph, &features, &UniformNeighborhood, v, &mut tape, &mut rng);
            std::hint::black_box(tape.output(idx)[0]);
        }
        total += t0.elapsed().as_secs_f64() * 1e3;
        let (h, m) = tape.stats();
        hits += h;
        computes += m;
    }
    (total / ROUNDS as f64, hits, computes)
}

fn main() {
    println!("# Table 5 — operator time with/without the materialization cache\n");
    header(&[
        "dataset",
        "W/O cache (ms/batch)",
        "with cache (ms/batch)",
        "speedup",
        "cache hit rate",
    ]);
    for (name, graph) in
        [("Taobao-small(sim)", taobao_small_bench()), ("Taobao-large(sim)", taobao_large_bench())]
    {
        let (without_ms, _, _) = run(&graph, false);
        let (with_ms, hits, computes) = run(&graph, true);
        row(&[
            name.to_string(),
            f(without_ms, 2),
            f(with_ms, 2),
            format!("{:.1}x", without_ms / with_ms),
            format!("{:.1}%", 100.0 * hits as f64 / (hits + computes).max(1) as f64),
        ]);
    }
    println!("\npaper: 7.33ms -> 0.57ms (12.9x) on small, 17.21ms -> 1.26ms (13.7x) on large.");
}
