//! The `loop.*` telemetry rollup the closed-loop command prints and the CI
//! gate parses — headlined by end-to-end freshness: virtual ticks from an
//! interaction being served to the first model version trained on it going
//! live.

use aligraph_telemetry::RegistrySnapshot;
use std::fmt;

/// A point-in-time summary of a closed-loop run. Every field is derived
/// from virtual ticks or counters, never wall clocks, so two runs with the
/// same seeds render byte-identical reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoopReport {
    /// Completed serve→ingest→train→swap cycles.
    pub cycles: u64,
    /// Interactions served (clicks logged to the hub, pre-drop).
    pub interactions: u64,
    /// Median end-to-end freshness, virtual ticks.
    pub freshness_p50_ticks: u64,
    /// 99th-percentile end-to-end freshness, virtual ticks.
    pub freshness_p99_ticks: u64,
    /// Worst observed freshness, virtual ticks.
    pub freshness_max_ticks: u64,
    /// Feature rows re-pulled into checkpoint warm-starts (the incremental
    /// training work — touched rows only, never the full table).
    pub rows_repulled: u64,
    /// The live model version in the serving store.
    pub swap_epoch: u64,
    /// Atomic hot-swaps performed by the model store.
    pub swaps: u64,
    /// Events shed by the bounded data hub.
    pub hub_dropped: u64,
    /// Update batches the loop pushed through the ingest path.
    pub ingest_batches: u64,
    /// 99th-percentile ingest lag, virtual ticks (chaos retries land here).
    pub ingest_lag_p99_ticks: u64,
    /// Virtual ticks the whole run spanned.
    pub ticks: u64,
}

impl LoopReport {
    /// Folds a registry snapshot's `loop.*` (and the ingest-side
    /// `streaming.*`) series into a report.
    pub fn from_snapshot(snap: &RegistrySnapshot) -> LoopReport {
        let freshness = snap.histogram("loop.freshness_ticks", &[]);
        let lag = snap.histogram("streaming.ingest.lag_ticks", &[]);
        LoopReport {
            cycles: snap.counter("loop.cycles", &[]),
            interactions: snap.counter("loop.interactions", &[]),
            freshness_p50_ticks: freshness.quantile(0.5),
            freshness_p99_ticks: freshness.quantile(0.99),
            freshness_max_ticks: freshness.quantile(1.0),
            rows_repulled: snap.counter("loop.rows_repulled", &[]),
            swap_epoch: snap.gauge("loop.swap_epoch", &[]).max(0) as u64,
            swaps: snap.counter("loop.swaps", &[]),
            hub_dropped: snap.counter("loop.hub.dropped", &[]),
            ingest_batches: snap.counter("streaming.ingest.batches", &[]),
            ingest_lag_p99_ticks: lag.quantile(0.99),
            ticks: snap.gauge("loop.ticks", &[]).max(0) as u64,
        }
    }
}

impl fmt::Display for LoopReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "loop:      {} cycles, {} interactions over {} virtual ticks",
            self.cycles, self.interactions, self.ticks
        )?;
        writeln!(
            f,
            "freshness: p50 {} ticks   p99 {} ticks   max {} ticks (serve -> live model)",
            self.freshness_p50_ticks, self.freshness_p99_ticks, self.freshness_max_ticks
        )?;
        writeln!(
            f,
            "train:     {} feature rows re-pulled across warm-started delta epochs",
            self.rows_repulled
        )?;
        writeln!(
            f,
            "deploy:    model version {} live after {} atomic hot-swaps",
            self.swap_epoch, self.swaps
        )?;
        write!(
            f,
            "ingest:    {} batches   lag p99 {} ticks   {} hub events shed",
            self.ingest_batches, self.ingest_lag_p99_ticks, self.hub_dropped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_telemetry::Registry;

    #[test]
    fn snapshot_round_trip_and_render() {
        let registry = Registry::new();
        registry.counter("loop.cycles", &[]).add(4);
        registry.counter("loop.interactions", &[]).add(320);
        registry.counter("loop.rows_repulled", &[]).add(57);
        registry.counter("loop.swaps", &[]).add(5);
        registry.gauge("loop.swap_epoch", &[]).set(5);
        registry.gauge("loop.ticks", &[]).set(400);
        registry.histogram("loop.freshness_ticks", &[]).record(12);
        registry.histogram("loop.freshness_ticks", &[]).record(90);
        registry.counter("streaming.ingest.batches", &[]).add(4);
        let report = LoopReport::from_snapshot(&registry.snapshot());
        assert_eq!(report.cycles, 4);
        assert_eq!(report.interactions, 320);
        assert_eq!(report.rows_repulled, 57);
        assert_eq!(report.swap_epoch, 5);
        assert_eq!(report.ingest_batches, 4);
        assert!(report.freshness_p99_ticks >= 64, "bucketed p99 near 90");
        let text = report.to_string();
        assert!(text.contains("4 cycles"));
        assert!(text.contains("freshness"));
    }
}
