//! Lock-free request-flow buckets (paper §3.3, Figure 6).
//!
//! Reads and updates against the in-memory graph state (here: the dynamic
//! sampling weights that samplers adjust in their backward pass) are grouped
//! by vertex into request-flow buckets. Each bucket is a **lock-free queue**
//! bound to one worker thread that owns that vertex group's data outright —
//! operations within a group execute sequentially with no locking at all.
//! The queue/thread/shutdown plumbing lives in [`crate::executor`].
//!
//! [`MutexWeightService`] is the contended global-lock baseline used by the
//! `ablation_bucket` bench.

use crate::executor::{BucketExecutor, ExecutorStopped};
use aligraph_graph::VertexId;
use crossbeam::channel::Sender;
use parking_lot::Mutex;

/// Shared interface over vertex-weight storage, so samplers and benches can
/// swap the lock-free and mutex implementations. Read and barrier paths
/// report [`ExecutorStopped`] when the backing executors have shut down
/// instead of panicking.
pub trait WeightService: Send + Sync {
    /// Applies `delta` to the weight of `v` (a sampler backward update).
    fn update(&self, v: VertexId, delta: f32);
    /// Reads the current weight of `v`, observing all previously submitted
    /// updates to `v`'s group.
    fn get(&self, v: VertexId) -> Result<f32, ExecutorStopped>;
    /// Blocks until every submitted operation has been applied.
    fn flush(&self) -> Result<(), ExecutorStopped>;
}

enum Op {
    Update(u32, f32),
    Get(u32, Sender<f32>),
    Flush(Sender<()>),
}

/// Per-bucket state: the weights of the vertex group this executor owns.
/// Global vertex `v` maps to shard-local slot `v / num_buckets` (the bucket
/// itself is chosen by `v % num_buckets`).
struct WeightShard {
    weights: Vec<f32>,
    num_buckets: usize,
}

impl WeightShard {
    fn apply(&mut self, op: Op) {
        match op {
            Op::Update(v, delta) => self.weights[(v as usize) / self.num_buckets] += delta,
            Op::Get(v, reply) => {
                let _ = reply.send(self.weights[(v as usize) / self.num_buckets]);
            }
            Op::Flush(reply) => {
                let _ = reply.send(());
            }
        }
    }
}

/// The Figure 6 design: vertices sharded into buckets, one lock-free queue
/// and one owning thread per bucket.
pub struct LockFreeWeightService {
    exec: BucketExecutor<Op>,
}

impl std::fmt::Debug for LockFreeWeightService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockFreeWeightService")
            .field("num_buckets", &self.exec.num_buckets())
            .finish()
    }
}

impl LockFreeWeightService {
    /// Spawns `num_buckets` bucket executors over `n` vertex weights, all
    /// initialized to `initial`.
    pub fn new(n: usize, num_buckets: usize, initial: f32) -> Self {
        let num_buckets = num_buckets.max(1);
        let shard_len = n / num_buckets + 1;
        let states = (0..num_buckets)
            .map(|_| WeightShard { weights: vec![initial; shard_len], num_buckets })
            .collect();
        LockFreeWeightService { exec: BucketExecutor::spawn(states, WeightShard::apply) }
    }
}

impl WeightService for LockFreeWeightService {
    fn update(&self, v: VertexId, delta: f32) {
        self.exec.submit(v.0, Op::Update(v.0, delta));
    }

    fn get(&self, v: VertexId) -> Result<f32, ExecutorStopped> {
        self.exec.round_trip(v.0, |tx| Op::Get(v.0, tx))
    }

    fn flush(&self) -> Result<(), ExecutorStopped> {
        self.exec.barrier(Op::Flush)
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

    fn get(&self, v: VertexId) -> Result<f32, ExecutorStopped> {
        Ok(self.weights.lock()[v.index()])
    }

    fn flush(&self) -> Result<(), ExecutorStopped> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_free_update_then_get() {
        let svc = LockFreeWeightService::new(100, 4, 1.0);
        svc.update(VertexId(7), 0.5);
        svc.update(VertexId(7), 0.25);
        svc.flush().unwrap();
        assert!((svc.get(VertexId(7)).unwrap() - 1.75).abs() < 1e-6);
        assert!((svc.get(VertexId(8)).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn lock_free_concurrent_updates_all_applied() {
        let svc = Arc::new(LockFreeWeightService::new(64, 4, 0.0));
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
        svc.flush().unwrap();
        let total: f32 = (0..64).map(|v| svc.get(VertexId(v)).unwrap()).sum();
        assert!((total - 8_000.0).abs() < 1e-3, "total {total}");
    }

    #[test]
    fn mutex_service_equivalent_semantics() {
        let svc = MutexWeightService::new(10, 2.0);
        svc.update(VertexId(3), -1.0);
        assert!((svc.get(VertexId(3)).unwrap() - 1.0).abs() < 1e-6);
        svc.flush().unwrap();
    }

    #[test]
    fn same_group_ops_are_ordered() {
        // All ops on one vertex land in one bucket => strictly sequential.
        let svc = LockFreeWeightService::new(16, 2, 0.0);
        for _ in 0..100 {
            svc.update(VertexId(5), 1.0);
        }
        // A get submitted after the updates must observe all of them.
        assert!((svc.get(VertexId(5)).unwrap() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn single_bucket_degenerate() {
        let svc = LockFreeWeightService::new(8, 1, 0.0);
        svc.update(VertexId(0), 3.0);
        svc.update(VertexId(7), 4.0);
        svc.flush().unwrap();
        assert_eq!(svc.get(VertexId(0)).unwrap(), 3.0);
        assert_eq!(svc.get(VertexId(7)).unwrap(), 4.0);
    }
}
