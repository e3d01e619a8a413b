//! Fixed-bucket histogram: HdrHistogram-style log-linear buckets giving
//! p50/p95/p99 over an unbounded `u64` value range in constant memory,
//! without storing individual samples.
//!
//! Bucket layout: values `0..8` get one exact bucket each; every larger
//! value lands in one of four sub-buckets of its power-of-two octave
//! (`idx = 8 + (msb - 3) * 4 + sub`, where `sub` is the next two bits below
//! the most significant one). Bucket width is at most 25% of the bucket's
//! lower bound, so reporting the midpoint bounds relative quantile error at
//! ~12.5% — ample for latency percentiles, and the determinism story is
//! simple because recording is a single atomic increment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Octaves above the exact range: msb 3..=63 inclusive.
const OCTAVES: usize = 61;
/// Buckets: 8 exact values + 4 sub-buckets per octave.
pub const BUCKETS: usize = 8 + OCTAVES * 4;

/// Bucket index of a value.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < 8 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 3 since v >= 8
    let sub = ((v >> (msb - 2)) & 3) as usize;
    8 + (msb - 3) * 4 + sub
}

/// Lower bound of a bucket (its smallest member value).
fn bucket_lower(idx: usize) -> u64 {
    if idx < 8 {
        return idx as u64;
    }
    let rel = idx - 8;
    let msb = rel / 4 + 3;
    let sub = (rel % 4) as u64;
    (1u64 << msb) + sub * (1u64 << (msb - 2))
}

/// Representative value reported for a bucket: its midpoint (for the exact
/// buckets, the value itself).
fn bucket_mid(idx: usize) -> u64 {
    if idx < 8 {
        return idx as u64;
    }
    let rel = idx - 8;
    let msb = rel / 4 + 3;
    let width = 1u64 << (msb - 2);
    let lower = bucket_lower(idx);
    // The topmost bucket's upper edge would overflow; clamp to the lower
    // bound plus half the width computed in u128 space.
    lower.saturating_add(width / 2)
}

/// A concurrent fixed-bucket histogram.
///
/// All mutation is relaxed atomic adds — recording never allocates, never
/// locks, and never reads a value it could branch on.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Fresh empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        // ordering: the five fields are independently monotone statistics;
        // no reader derives cross-field invariants stronger than "count
        // within one record of buckets" (snapshot tolerates in-flight
        // records), so Relaxed RMWs suffice — atomicity of each fetch_add
        // alone prevents lost updates.
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        // ordering: monotone scalar read; exact after writers join.
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy for reporting and merging. Concurrent with
    /// writers this is a torn-but-bounded read, like
    /// [`Counter::get`](crate::Counter::get): each field lags reality by
    /// at most the records in flight, and is exact once writers joined.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ordering: every field is independently monotone (min decreases,
        // the rest increase); Relaxed loads give per-field coherence,
        // which is all reports claim. Exactness comes from reading after
        // writer joins, not from load ordering.
        let count = self.count.load(Ordering::Relaxed);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                // ordering: see snapshot() header — monotone bucket cells.
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        HistogramSnapshot {
            count,
            // ordering: see snapshot() header — independently monotone.
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Zeroes everything. Like [`Counter::reset`](crate::Counter::reset),
    /// not linearizable against concurrent `record`s — callers reset only
    /// between measurement windows.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            // ordering: reset runs between windows with writers quiet.
            b.store(0, Ordering::Relaxed);
        }
        // ordering: reset runs between windows with writers quiet.
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("p50", &s.quantile(0.5))
            .field("max", &s.max)
            .finish()
    }
}

/// A point-in-time copy of a [`Histogram`], cheap to serialize.
/// Only non-empty buckets are kept (sparse `(index, count)` pairs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping add under extreme totals).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Sparse non-empty buckets: `(bucket index, count)`, ascending index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile (`q` in `[0, 1]`), reported as the
    /// representative (midpoint) value of the bucket holding that rank,
    /// clamped to the observed `[min, max]` so one-sample and narrow
    /// distributions answer exactly. Empty histograms yield 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_mid(idx as usize).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_values() {
        for v in 0..8u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_mid(v as usize), v);
        }
    }

    #[test]
    fn buckets_are_monotone_and_contain_their_values() {
        let mut prev_lower = 0;
        for idx in 0..BUCKETS {
            let lower = bucket_lower(idx);
            assert!(idx == 0 || lower > prev_lower, "bucket {idx} lower {lower}");
            assert_eq!(bucket_of(lower), idx, "lower bound maps back to its bucket");
            prev_lower = lower;
        }
        // Spot-check: a bucket's width is at most 25% of its lower bound.
        for idx in 8..BUCKETS - 4 {
            let width = bucket_lower(idx + 1) - bucket_lower(idx);
            assert!(width * 4 <= bucket_lower(idx).max(1) * 2, "idx {idx}");
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn empty_and_single_sample() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        h.record(1234);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!((s.min, s.max), (1234, 1234));
        // Clamping to [min, max] makes single-sample quantiles exact.
        assert_eq!(s.quantile(0.0), 1234);
        assert_eq!(s.quantile(0.5), 1234);
        assert_eq!(s.quantile(1.0), 1234);
    }

    #[test]
    fn quantiles_track_oracle_within_bucket_error() {
        let mut values: Vec<u64> = (0..10_000).map(|i| (i * i) % 900_007 + 1).collect();
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let s = h.snapshot();
        for &q in &[0.5, 0.95, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let oracle = values[rank - 1];
            let got = s.quantile(q);
            let err = (got as f64 - oracle as f64).abs() / oracle as f64;
            assert!(err <= 0.125, "q={q}: got {got}, oracle {oracle}, err {err}");
        }
    }

    #[test]
    fn overflow_bucket_handles_max() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        // Quantile stays within [min, max] even at the saturating top bucket.
        assert!(s.quantile(0.99) >= s.min);
        assert!(s.quantile(0.99) <= s.max);
    }

    #[test]
    fn reset_empties() {
        let h = Histogram::new();
        h.record(7);
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn duration_recording() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(3));
        assert_eq!(h.snapshot().min, 3_000);
    }
}
