//! Latency/throughput accounting for the serving layer.
//!
//! Workers record per-request latencies (enqueue → reply) into a bounded
//! telemetry [`Histogram`] — no per-sample buffer — plus batch-level
//! counters; [`ServingMetrics::report`] folds them into a [`ServingReport`]
//! with tail percentiles, QPS and the cache/dedup evidence the serve-bench
//! prints. Every series registers under `serving.*`, so a single
//! [`Registry`] snapshot carries this layer next to storage and runtime.

use aligraph_storage::{AccessStatsSnapshot, CacheStats};
use aligraph_telemetry::{Counter, Histogram, Registry};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Shared serving counters and the end-to-end latency histogram. All
/// recording is lock-free; the old unbounded `Mutex<Vec<u64>>` sample
/// buffer is gone.
#[derive(Debug)]
pub struct ServingMetrics {
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
    completed: Arc<Counter>,
    batches: Arc<Counter>,
    forwards: Arc<Counter>,
    tape_hits: Arc<Counter>,
    tape_misses: Arc<Counter>,
    degraded: Arc<Counter>,
    batch_size: Arc<Histogram>,
    latency_ns: Arc<Histogram>,
}

impl Default for ServingMetrics {
    fn default() -> Self {
        Self::registered(&Registry::disabled())
    }
}

impl ServingMetrics {
    /// Metrics publishing under `serving.*` in `registry`.
    pub fn registered(registry: &Registry) -> Self {
        ServingMetrics {
            admitted: registry.counter("serving.requests", &[("outcome", "admitted")]),
            rejected: registry.counter("serving.requests", &[("outcome", "rejected")]),
            completed: registry.counter("serving.completed", &[]),
            batches: registry.counter("serving.batches", &[]),
            forwards: registry.counter("serving.forwards", &[]),
            tape_hits: registry.counter("serving.tape", &[("event", "hit")]),
            tape_misses: registry.counter("serving.tape", &[("event", "miss")]),
            degraded: registry.counter("serving.degraded", &[]),
            batch_size: registry.histogram("serving.batch.size", &[]),
            latency_ns: registry.histogram("serving.latency_ns", &[]),
        }
    }

    /// Counts an admitted request.
    pub fn admitted(&self) {
        self.admitted.inc();
    }

    /// Counts a rejected (backpressured) request.
    pub fn rejected(&self) {
        self.rejected.inc();
    }

    /// Records one drained batch: its size, how many encoder forward passes
    /// it actually ran, and the episode-tape memo counters.
    pub fn batch(&self, size: usize, forwards: usize, tape_hits: u64, tape_misses: u64) {
        self.batches.inc();
        self.completed.add(size as u64);
        self.forwards.add(forwards as u64);
        self.tape_hits.add(tape_hits);
        self.tape_misses.add(tape_misses);
        self.batch_size.record(size as u64);
    }

    /// Records one request's enqueue-to-reply latency.
    pub fn latency(&self, d: Duration) {
        self.latency_ns.record_duration(d);
    }

    /// Counts one embedding served from the stale-but-bounded fallback
    /// store because the shard fetch exhausted its retries.
    pub fn degraded(&self) {
        self.degraded.inc();
    }

    /// Encoder forward passes run so far (the dedup denominator).
    pub fn forwards_so_far(&self) -> u64 {
        self.forwards.get()
    }

    /// Mean request latency in microseconds (0 before any sample) — feeds
    /// the `retry_after_ms` hint on rejections.
    pub fn mean_latency_us(&self) -> u64 {
        (self.latency_ns.snapshot().mean() / 1_000.0) as u64
    }

    /// Folds everything into a report. `elapsed` is the measurement window
    /// (for QPS); cache and storage-access snapshots come from the service.
    pub fn report(
        &self,
        elapsed: Duration,
        cache: CacheStats,
        access: AccessStatsSnapshot,
    ) -> ServingReport {
        let latency = self.latency_ns.snapshot();
        let completed = self.completed.get();
        let secs = elapsed.as_secs_f64();
        ServingReport {
            requests: self.admitted.get(),
            completed,
            rejected: self.rejected.get(),
            batches: self.batches.get(),
            forwards: self.forwards.get(),
            tape_hits: self.tape_hits.get(),
            tape_misses: self.tape_misses.get(),
            degraded: self.degraded.get(),
            p50_us: latency.quantile(0.5) as f64 / 1_000.0,
            p95_us: latency.quantile(0.95) as f64 / 1_000.0,
            p99_us: latency.quantile(0.99) as f64 / 1_000.0,
            qps: if secs > 0.0 { completed as f64 / secs } else { 0.0 },
            cache,
            access,
        }
    }
}

/// A point-in-time serving summary.
#[derive(Debug, Clone, Default)]
pub struct ServingReport {
    /// Requests admitted to a queue.
    pub requests: u64,
    /// Requests answered.
    pub completed: u64,
    /// Requests rejected with a retry hint.
    pub rejected: u64,
    /// Batches drained.
    pub batches: u64,
    /// Encoder forward passes (unique seeds actually computed). Strictly
    /// below `completed` whenever batching dedup or the cache did any work.
    pub forwards: u64,
    /// Episode-tape memo hits across batches (shared k-hop sub-trees).
    pub tape_hits: u64,
    /// Episode-tape memo misses across batches.
    pub tape_misses: u64,
    /// Requests answered from the stale-but-bounded fallback store while
    /// the chaos plane was failing shard fetches (tagged `degraded=true`).
    pub degraded: u64,
    /// Median enqueue-to-reply latency, microseconds (bucket midpoint).
    pub p50_us: f64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Answered requests per second over the measurement window.
    pub qps: f64,
    /// Embedding-cache counters.
    pub cache: CacheStats,
    /// Seed-level shard access accounting (local / cached / remote).
    pub access: AccessStatsSnapshot,
}

impl ServingReport {
    /// Mean requests per drained batch.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }
}

impl fmt::Display for ServingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests: {} completed, {} rejected (of {} admitted)",
            self.completed, self.rejected, self.requests
        )?;
        writeln!(
            f,
            "latency:  p50 {:.0} us   p95 {:.0} us   p99 {:.0} us",
            self.p50_us, self.p95_us, self.p99_us
        )?;
        writeln!(f, "throughput: {:.0} req/s", self.qps)?;
        writeln!(
            f,
            "batching: {} batches (mean size {:.1}), {} encoder forwards for {} requests",
            self.batches,
            self.mean_batch_size(),
            self.forwards,
            self.completed
        )?;
        writeln!(f, "embedding cache: {}", self.cache)?;
        writeln!(
            f,
            "tape memo: {} hits / {} misses across batches",
            self.tape_hits, self.tape_misses
        )?;
        if self.degraded > 0 {
            writeln!(
                f,
                "degraded: {} requests served from the stale-bounded fallback",
                self.degraded
            )?;
        }
        write!(
            f,
            "shard access: {} local, {} cache-served, {} remote, {} cold (hit rate {:.1}%)",
            self.access.local,
            self.access.cached_remote,
            self.access.remote,
            self.access.cold,
            self.access.cache_hit_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_distribution() {
        let m = ServingMetrics::default();
        for i in 1..=100u64 {
            m.latency(Duration::from_micros(i));
        }
        m.batch(100, 40, 10, 50);
        for _ in 0..100 {
            m.admitted();
        }
        let report =
            m.report(Duration::from_secs(1), CacheStats::default(), AccessStatsSnapshot::default());
        // Bucketed histogram: within the documented 12.5% relative error.
        assert!((report.p50_us - 50.0).abs() <= 50.0 * 0.125 + 1.0, "p50 {}", report.p50_us);
        assert!((report.p99_us - 99.0).abs() <= 99.0 * 0.125 + 1.0, "p99 {}", report.p99_us);
        assert!((report.qps - 100.0).abs() < 1e-9);
        assert_eq!(report.forwards, 40);
        assert!(report.forwards < report.completed);
        assert!((report.mean_batch_size() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn registered_metrics_round_trip_through_snapshot() {
        let registry = Registry::new();
        let m = ServingMetrics::registered(&registry);
        m.admitted();
        m.admitted();
        m.rejected();
        m.batch(2, 1, 3, 4);
        m.latency(Duration::from_micros(10));
        m.latency(Duration::from_micros(20));
        let direct =
            m.report(Duration::from_secs(1), CacheStats::default(), AccessStatsSnapshot::default());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serving.requests", &[("outcome", "admitted")]), direct.requests);
        assert_eq!(snap.counter("serving.completed", &[]), direct.completed);
        assert_eq!(snap.counter("serving.requests", &[("outcome", "rejected")]), direct.rejected);
        assert_eq!(snap.counter("serving.forwards", &[]), direct.forwards);
        assert_eq!(snap.counter("serving.tape", &[("event", "hit")]), direct.tape_hits);
        let p99_us = snap.histogram("serving.latency_ns", &[]).quantile(0.99) as f64 / 1_000.0;
        assert_eq!(p99_us, direct.p99_us);
    }
}
