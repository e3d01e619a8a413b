//! Ablation: the four built-in partitioners (paper §3.2) — build time on
//! the same graph. Quality (edge cut, balance) is reported by the
//! `platform_tour` example; this bench isolates speed.

use aligraph_bench::taobao_small_bench;
use aligraph_partition::{
    EdgeCutHash, Grid2D, MetisLike, Partitioner, StreamingLdg, VertexCutGreedy,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn bench_partitioners(c: &mut Criterion) {
    let graph = taobao_small_bench();
    let mut group = c.benchmark_group("ablation_partition");
    group.sample_size(10).measurement_time(Duration::from_secs(5));
    let partitioners: Vec<Box<dyn Partitioner>> = vec![
        Box::new(EdgeCutHash),
        Box::new(VertexCutGreedy::default()),
        Box::new(Grid2D),
        Box::new(StreamingLdg::default()),
        Box::new(MetisLike::default()),
    ];
    for p in &partitioners {
        group.bench_function(p.name(), |b| b.iter(|| p.partition(&graph, 8).num_workers()));
    }
    group.finish();
}

criterion_group!(benches, bench_partitioners);
criterion_main!(benches);
