//! Shared request-flow bucket executor (paper §3.3, Figure 6).
//!
//! Its one client, [`crate::bucket`] (the weight service), follows this
//! pattern: vertices are grouped into buckets by `v % num_buckets`, each
//! bucket is a lock-free queue bound to one executor thread that owns the
//! group's data outright, and clients wait for replies over bounded
//! channels. This module holds that plumbing — queue fan-out, the
//! spin-then-yield drain loop, shutdown/join, and the reply round-trip —
//! parameterized over the operation type and per-bucket state.
//!
//! A round-trip against an executor that has already shut down surfaces as
//! [`ExecutorStopped`] instead of a panic, so callers can propagate the
//! condition (e.g. a serving worker draining during shutdown).

use crossbeam::channel::{bounded, Sender};
use crossbeam::queue::SegQueue;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The owning executor thread for a bucket exited (service dropped or the
/// thread died) before replying to a round-trip request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorStopped {
    /// Which bucket failed to reply.
    pub bucket: usize,
}

impl std::fmt::Display for ExecutorStopped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bucket executor {} stopped before replying", self.bucket)
    }
}

impl std::error::Error for ExecutorStopped {}

struct Bucket<Op> {
    queue: Arc<SegQueue<Op>>,
    handle: Option<JoinHandle<()>>,
}

/// `N` lock-free queues, each drained by one thread that exclusively owns
/// one shard of state. Vertex `v` routes to bucket `v % num_buckets`.
pub struct BucketExecutor<Op: Send + 'static> {
    buckets: Vec<Bucket<Op>>,
    stop: Arc<AtomicBool>,
    num_buckets: usize,
}

impl<Op: Send + 'static> std::fmt::Debug for BucketExecutor<Op> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BucketExecutor").field("num_buckets", &self.num_buckets).finish()
    }
}

impl<Op: Send + 'static> BucketExecutor<Op> {
    /// Spawns one executor thread per entry of `states`; thread `b`
    /// exclusively owns `states[b]` and applies `handler` to every
    /// operation drained from its queue.
    pub fn spawn<S, F>(states: Vec<S>, handler: F) -> Self
    where
        S: Send + 'static,
        F: Fn(&mut S, Op) + Clone + Send + 'static,
    {
        assert!(!states.is_empty(), "at least one bucket required");
        let num_buckets = states.len();
        let stop = Arc::new(AtomicBool::new(false));
        let buckets = states
            .into_iter()
            .map(|mut state| {
                let queue = Arc::new(SegQueue::new());
                let q = Arc::clone(&queue);
                let stop = Arc::clone(&stop);
                let handler = handler.clone();
                let handle = std::thread::spawn(move || {
                    let mut idle = 0u32;
                    loop {
                        match q.pop() {
                            Some(op) => {
                                handler(&mut state, op);
                                idle = 0;
                            }
                            None => {
                                // ordering: Acquire pairs with the Release
                                // store in drop(); checked *only* on empty
                                // pop so no queued op is lost at shutdown —
                                // the mini-loom bucket-executor target
                                // replays the interleaving that breaks if
                                // this check comes first.
                                if stop.load(Ordering::Acquire) {
                                    break;
                                }
                                idle += 1;
                                if idle < 64 {
                                    std::hint::spin_loop();
                                } else {
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                });
                Bucket { queue, handle: Some(handle) }
            })
            .collect();
        BucketExecutor { buckets, stop, num_buckets }
    }

    /// Number of buckets (= executor threads).
    pub fn num_buckets(&self) -> usize {
        self.num_buckets
    }

    /// The bucket owning vertex `v`.
    #[inline]
    pub fn bucket_of(&self, v: u32) -> usize {
        v as usize % self.num_buckets
    }

    /// Fire-and-forget: enqueues `op` on the bucket owning `v`.
    #[inline]
    pub fn submit(&self, v: u32, op: Op) {
        self.buckets[self.bucket_of(v)].queue.push(op);
    }

    /// Synchronous round-trip to the bucket owning `v`: `make` wraps the
    /// reply sender into an operation, and the executor's answer is awaited.
    pub fn round_trip<R>(
        &self,
        v: u32,
        make: impl FnOnce(Sender<R>) -> Op,
    ) -> Result<R, ExecutorStopped> {
        self.round_trip_to(self.bucket_of(v), make)
    }

    /// Synchronous round-trip to a specific bucket.
    pub fn round_trip_to<R>(
        &self,
        bucket: usize,
        make: impl FnOnce(Sender<R>) -> Op,
    ) -> Result<R, ExecutorStopped> {
        let (tx, rx) = bounded(1);
        self.buckets[bucket].queue.push(make(tx));
        rx.recv().map_err(|_| ExecutorStopped { bucket })
    }

    /// Round-trips every bucket in order; used for flush barriers.
    pub fn barrier(&self, make: impl Fn(Sender<()>) -> Op) -> Result<(), ExecutorStopped> {
        for b in 0..self.num_buckets {
            self.round_trip_to(b, &make)?;
        }
        Ok(())
    }
}

impl<Op: Send + 'static> Drop for BucketExecutor<Op> {
    fn drop(&mut self) {
        // ordering: Release pairs with the drain loop's Acquire load so
        // every queue push sequenced before this store is visible to the
        // executor before it observes stop and exits.
        self.stop.store(true, Ordering::Release);
        for b in &mut self.buckets {
            if let Some(h) = b.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    enum TestOp {
        Add(u64),
        Read(Sender<u64>),
        Flush(Sender<()>),
    }

    fn spawn_counters(n: usize) -> BucketExecutor<TestOp> {
        BucketExecutor::spawn(vec![0u64; n], |total, op| match op {
            TestOp::Add(x) => *total += x,
            TestOp::Read(reply) => {
                let _ = reply.send(*total);
            }
            TestOp::Flush(reply) => {
                let _ = reply.send(());
            }
        })
    }

    #[test]
    fn routes_by_modulo_and_replies() {
        let exec = spawn_counters(4);
        assert_eq!(exec.num_buckets(), 4);
        exec.submit(0, TestOp::Add(10)); // bucket 0
        exec.submit(4, TestOp::Add(5)); // bucket 0
        exec.submit(1, TestOp::Add(7)); // bucket 1
        assert_eq!(exec.round_trip(0, TestOp::Read).unwrap(), 15);
        assert_eq!(exec.round_trip(1, TestOp::Read).unwrap(), 7);
        assert_eq!(exec.round_trip(2, TestOp::Read).unwrap(), 0);
    }

    #[test]
    fn barrier_waits_on_every_bucket() {
        let exec = spawn_counters(3);
        for v in 0..300u32 {
            exec.submit(v, TestOp::Add(1));
        }
        exec.barrier(TestOp::Flush).unwrap();
        let total: u64 = (0..3).map(|b| exec.round_trip_to(b, TestOp::Read).unwrap()).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn same_bucket_ops_execute_in_submission_order() {
        let exec = spawn_counters(2);
        for _ in 0..1_000 {
            exec.submit(6, TestOp::Add(1));
        }
        // A read submitted afterward must observe every prior add.
        assert_eq!(exec.round_trip(6, TestOp::Read).unwrap(), 1_000);
    }
}
