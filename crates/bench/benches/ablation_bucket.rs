//! Ablation: request-flow buckets (Figure 6, one lock per bucket) vs a
//! global mutex, under concurrent sampler weight updates.

#![expect(clippy::expect_used, reason = "a benchmark aborts on a broken setup")]

use aligraph_graph::VertexId;
use aligraph_storage::{BucketWeightService, MutexWeightService, WeightService};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 10_000;
const UPDATES_PER_THREAD: usize = 5_000;
const THREADS: usize = 4;

fn hammer(service: Arc<dyn WeightService>) {
    let threads: Vec<_> = (0..THREADS)
        .map(|t| {
            let svc = Arc::clone(&service);
            std::thread::spawn(move || {
                for i in 0..UPDATES_PER_THREAD {
                    svc.update(VertexId(((t * 7919 + i) % N) as u32), 0.01);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("worker");
    }
}

fn bench_buckets(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bucket");
    group.sample_size(10).measurement_time(Duration::from_secs(5));

    group.bench_function("buckets", |b| {
        b.iter(|| {
            let svc: Arc<dyn WeightService> = Arc::new(BucketWeightService::new(N, 4, 0.0));
            hammer(Arc::clone(&svc));
        })
    });

    group.bench_function("global_mutex", |b| {
        b.iter(|| {
            let svc: Arc<dyn WeightService> = Arc::new(MutexWeightService::new(N, 0.0));
            hammer(Arc::clone(&svc));
        })
    });
    group.finish();
}

criterion_group!(benches, bench_buckets);
criterion_main!(benches);
