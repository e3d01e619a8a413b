//! Ablation: alias-table negative sampling (O(1) per draw) vs a naive
//! linear-scan weighted draw — the design choice behind the NEGATIVE
//! sampler's latency in Table 4.

#![expect(clippy::expect_used, reason = "a benchmark aborts on a broken setup")]

use aligraph_bench::taobao_small_bench;
use aligraph_sampling::{AliasTable, NegativeSampler, UnigramNegative};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::Duration;

fn bench_negative(c: &mut Criterion) {
    let graph = taobao_small_bench();
    let weights: Vec<f32> = graph
        .vertices()
        .map(|v| ((graph.in_degree(v) + graph.out_degree(v)) as f32).powf(0.75))
        .collect();

    let mut group = c.benchmark_group("ablation_negative");
    group.sample_size(20).measurement_time(Duration::from_secs(5));

    group.bench_function("alias_table", |b| {
        let table = AliasTable::new(&weights).expect("positive weights");
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..1_000 {
                acc += table.sample(&mut rng);
            }
            acc
        })
    });

    group.bench_function("linear_scan", |b| {
        let total: f32 = weights.iter().sum();
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..1_000 {
                let mut x = rng.gen::<f32>() * total;
                for (i, &w) in weights.iter().enumerate() {
                    if x < w {
                        acc += i;
                        break;
                    }
                    x -= w;
                }
            }
            acc
        })
    });

    group.bench_function("sampler_end_to_end", |b| {
        let negative = UnigramNegative::new(&graph, None, 0.75);
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| negative.sample(&graph, &[], 1_000, &mut rng).len())
    });
    group.finish();
}

criterion_group!(benches, bench_negative);
criterion_main!(benches);
