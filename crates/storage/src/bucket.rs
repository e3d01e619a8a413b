//! Request-flow buckets (paper §3.3, Figure 6).
//!
//! Reads and updates against the in-memory graph state (here: the dynamic
//! sampling weights that samplers adjust in their backward pass) are grouped
//! by vertex into request-flow buckets. Vertex `v` belongs to bucket
//! `v % num_buckets`, and each bucket's weights sit behind a lock of their
//! own: that lock is the group's owner, so operations within a group apply
//! one at a time in order, and no lock spans two groups. An operation is one
//! `f32` add, cheaper than any hand-off to an owning thread would be.
//!
//! [`MutexWeightService`] is the global-lock baseline used by the
//! `ablation_bucket` bench.

use aligraph_graph::VertexId;
use parking_lot::Mutex;

/// Shared interface over vertex-weight storage, so samplers and benches can
/// swap the bucketed and global-mutex implementations.
pub trait WeightService: Send + Sync {
    /// Applies `delta` to the weight of `v` (a sampler backward update).
    fn update(&self, v: VertexId, delta: f32);
    /// Reads the current weight of `v`, observing every update to `v` that
    /// returned before the read began.
    fn get(&self, v: VertexId) -> f32;
}

/// The Figure 6 design: vertices sharded into buckets, one lock per bucket.
/// Global vertex `v` maps to slot `v / num_buckets` of bucket
/// `v % num_buckets`.
#[derive(Debug)]
pub struct BucketWeightService {
    buckets: Vec<Mutex<Vec<f32>>>,
}

impl BucketWeightService {
    /// `num_buckets` buckets over `n` vertex weights, all initialized to
    /// `initial`.
    pub fn new(n: usize, num_buckets: usize, initial: f32) -> Self {
        let num_buckets = num_buckets.max(1);
        let shard_len = n / num_buckets + 1;
        BucketWeightService {
            buckets: (0..num_buckets).map(|_| Mutex::new(vec![initial; shard_len])).collect(),
        }
    }

    /// The bucket owning `v`, and `v`'s slot within it.
    fn slot(&self, v: VertexId) -> (&Mutex<Vec<f32>>, usize) {
        let n = self.buckets.len();
        (&self.buckets[v.index() % n], v.index() / n)
    }
}

impl WeightService for BucketWeightService {
    fn update(&self, v: VertexId, delta: f32) {
        let (bucket, slot) = self.slot(v);
        bucket.lock()[slot] += delta;
    }

    fn get(&self, v: VertexId) -> f32 {
        let (bucket, slot) = self.slot(v);
        bucket.lock()[slot]
    }
}

/// The baseline: one global mutex around the whole weight table.
#[derive(Debug)]
pub struct MutexWeightService {
    weights: Mutex<Vec<f32>>,
}

impl MutexWeightService {
    /// A table of `n` weights initialized to `initial`.
    pub fn new(n: usize, initial: f32) -> Self {
        MutexWeightService { weights: Mutex::new(vec![initial; n]) }
    }
}

impl WeightService for MutexWeightService {
    fn update(&self, v: VertexId, delta: f32) {
        self.weights.lock()[v.index()] += delta;
    }

    fn get(&self, v: VertexId) -> f32 {
        self.weights.lock()[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_free_update_then_get() {
        let svc = BucketWeightService::new(100, 4, 1.0);
        svc.update(VertexId(7), 0.5);
        svc.update(VertexId(7), 0.25);
        assert!((svc.get(VertexId(7)) - 1.75).abs() < 1e-6);
        assert!((svc.get(VertexId(8)) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn lock_free_concurrent_updates_all_applied() {
        let svc = Arc::new(BucketWeightService::new(64, 4, 0.0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    for i in 0..1_000u32 {
                        svc.update(VertexId(i % 64), 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total: f32 = (0..64).map(|v| svc.get(VertexId(v))).sum();
        assert!((total - 8_000.0).abs() < 1e-3, "total {total}");
    }

    #[test]
    fn mutex_service_equivalent_semantics() {
        // The same integer-valued updates (exact in f32, so order cannot
        // matter) through both services, every vertex compared. Neither `n`
        // is a multiple of every bucket count, so the last vertex lands in
        // the last slot of a bucket.
        for n in [10usize, 64] {
            for num_buckets in [1, 3, 4, 7] {
                let buckets = BucketWeightService::new(n, num_buckets, 2.0);
                let global = MutexWeightService::new(n, 2.0);
                for i in 0..5 * n {
                    // 7 is coprime with both sizes: every vertex is hit.
                    let v = VertexId(((i * 7 + 3) % n) as u32);
                    let delta = (i % 5) as f32 - 2.0 + v.0 as f32;
                    buckets.update(v, delta);
                    global.update(v, delta);
                }
                for v in (0..n as u32).map(VertexId) {
                    assert_eq!(buckets.get(v), global.get(v), "n {n} buckets {num_buckets} {v:?}");
                }
            }
        }
    }

    #[test]
    fn same_group_ops_are_ordered() {
        // All ops on one vertex land in one bucket => strictly sequential.
        let svc = BucketWeightService::new(16, 2, 0.0);
        for _ in 0..100 {
            svc.update(VertexId(5), 1.0);
        }
        // A get issued after the updates must observe all of them.
        assert!((svc.get(VertexId(5)) - 100.0).abs() < 1e-6);
    }
}
