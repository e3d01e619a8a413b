//! The `streaming.*` telemetry rollup the serve-under-update bench prints
//! and the CI SLO gate parses.

use aligraph_storage::CacheStats;
use aligraph_telemetry::RegistrySnapshot;
use std::fmt;
use std::time::Duration;

/// A point-in-time summary of a serve-under-update run.
#[derive(Debug, Clone, Default)]
pub struct StreamingReport {
    /// The last published graph epoch (= batches applied).
    pub epoch: u64,
    /// Update batches ingested.
    pub batches: u64,
    /// Edge-add events applied.
    pub adds: u64,
    /// Edge-remove events applied.
    pub removes: u64,
    /// Feature-rewrite events applied.
    pub attrs: u64,
    /// Median update lag, virtual ticks (injected delays + retry backoff).
    pub lag_p50_ticks: u64,
    /// 99th-percentile update lag, virtual ticks.
    pub lag_p99_ticks: u64,
    /// Worst observed update lag, virtual ticks.
    pub lag_max_ticks: u64,
    /// 99th-percentile epoch-pin age at gather time (epochs behind head).
    pub pin_age_p99: u64,
    /// Worst observed pin age, epochs.
    pub pin_age_max: u64,
    /// Gathers served.
    pub gathers: u64,
    /// Median serve latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile serve latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile serve latency, milliseconds.
    pub p99_ms: f64,
    /// Gathers per second over the measurement window.
    pub qps: f64,
    /// In-place alias repairs performed.
    pub repairs: u64,
    /// Alias slots rewritten by those repairs (the incremental work).
    pub repaired_slots: u64,
    /// Sample-cache counters.
    pub cache: CacheStats,
}

impl StreamingReport {
    /// Folds a registry snapshot's `streaming.*` series into a report.
    /// `elapsed` is the measurement window (for QPS).
    pub fn from_snapshot(snap: &RegistrySnapshot, elapsed: Duration) -> StreamingReport {
        let lag = snap.histogram("streaming.ingest.lag_ticks", &[]);
        let pin_age = snap.histogram("streaming.epoch.pin_age", &[]);
        let latency = snap.histogram("streaming.serve.latency_ns", &[]);
        let gathers = snap.counter("streaming.serve.gathers", &[]);
        let secs = elapsed.as_secs_f64();
        StreamingReport {
            epoch: snap.gauge("streaming.epoch", &[]).max(0) as u64,
            batches: snap.counter("streaming.ingest.batches", &[]),
            adds: snap.counter("streaming.ingest.events", &[("kind", "add")]),
            removes: snap.counter("streaming.ingest.events", &[("kind", "remove")]),
            attrs: snap.counter("streaming.ingest.events", &[("kind", "attr")]),
            lag_p50_ticks: lag.quantile(0.5),
            lag_p99_ticks: lag.quantile(0.99),
            lag_max_ticks: lag.quantile(1.0),
            pin_age_p99: pin_age.quantile(0.99),
            pin_age_max: pin_age.quantile(1.0),
            gathers,
            p50_ms: latency.quantile(0.5) as f64 / 1e6,
            p95_ms: latency.quantile(0.95) as f64 / 1e6,
            p99_ms: latency.quantile(0.99) as f64 / 1e6,
            qps: if secs > 0.0 { gathers as f64 / secs } else { 0.0 },
            repairs: snap.counter("streaming.alias.repairs", &[]),
            repaired_slots: snap.counter("streaming.alias.repaired_slots", &[]),
            cache: CacheStats::from_snapshot(snap, "streaming.cache"),
        }
    }
}

impl fmt::Display for StreamingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "updates:  {} batches -> epoch {} ({} adds, {} removes, {} attr rewrites)",
            self.batches, self.epoch, self.adds, self.removes, self.attrs
        )?;
        writeln!(
            f,
            "update lag: p50 {} ticks   p99 {} ticks   max {} ticks",
            self.lag_p50_ticks, self.lag_p99_ticks, self.lag_max_ticks
        )?;
        writeln!(
            f,
            "epoch pin age: p99 {} epochs   max {} epochs behind head",
            self.pin_age_p99, self.pin_age_max
        )?;
        writeln!(
            f,
            "serve:    {} gathers at {:.0}/s   p50 {:.3} ms   p95 {:.3} ms   p99 {:.3} ms",
            self.gathers, self.qps, self.p50_ms, self.p95_ms, self.p99_ms
        )?;
        writeln!(
            f,
            "alias maintenance: {} in-place repairs, {} slots rewritten (no full rebuilds)",
            self.repairs, self.repaired_slots
        )?;
        write!(f, "sample cache: {}", self.cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_telemetry::Registry;

    #[test]
    fn snapshot_round_trip_and_render() {
        let registry = Registry::new();
        registry.counter("streaming.ingest.batches", &[]).add(3);
        registry.counter("streaming.ingest.events", &[("kind", "add")]).add(12);
        registry.counter("streaming.serve.gathers", &[]).add(200);
        registry.gauge("streaming.epoch", &[]).set(3);
        registry.histogram("streaming.ingest.lag_ticks", &[]).record(64);
        registry.histogram("streaming.serve.latency_ns", &[]).record(2_000_000);
        registry.counter("streaming.cache", &[("event", "hit")]).add(150);
        registry.counter("streaming.cache", &[("event", "miss")]).add(50);
        let report = StreamingReport::from_snapshot(&registry.snapshot(), Duration::from_secs(2));
        assert_eq!(report.epoch, 3);
        assert_eq!(report.batches, 3);
        assert_eq!(report.adds, 12);
        assert!((report.qps - 100.0).abs() < 1e-9);
        assert!(report.lag_p99_ticks >= 56, "bucketed p99 near 64");
        assert!(report.p99_ms > 1.0 && report.p99_ms < 3.0, "~2 ms bucket");
        assert!((report.cache.hit_rate() - 0.75).abs() < 1e-9);
        let text = report.to_string();
        assert!(text.contains("epoch 3"));
        assert!(text.contains("p99"));
    }
}
