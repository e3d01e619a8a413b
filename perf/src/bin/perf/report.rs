//! What a run reports: named metrics with units, the operation counts and
//! the output-check verdict, printed as text lines plus the one-line JSON
//! object the driver reads.

use std::fmt::Write as _;

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run, with their units. A workload
/// reports 0 for the metrics of a layer it bypasses. `BENCHMARK.json` lists
/// the same names (checked by a test).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("graph.featurize_s", "s"),
    ("partition.edge_cut_s", "s"),
    ("storage.cluster_build_s", "s"),
    ("storage.tier_build_s", "s"),
    ("storage.neighbors_hot_ns", "ns"),
    ("storage.neighbors_cold_ns", "ns"),
    ("storage.feature_row_cold_ns", "ns"),
    ("storage.adj_decode_mb_per_s", "MB/s"),
    ("storage.feat_decode_mb_per_s", "MB/s"),
    ("storage.segment_from_bytes_mb_per_s", "MB/s"),
    ("storage.tier_hot_share", "share"),
    ("storage.tier_cold_reads_per_step", "count/step"),
    ("storage.tier_demotions_per_step", "count/step"),
    ("storage.tier_prefetch_wasted_share", "share"),
    ("storage.tier_write_row_us", "us"),
    ("storage.tier_flush_writeback_ms", "ms"),
    ("sampling.context_ms", "ms"),
    ("sampling.context_vertices", "count"),
    ("sampling.edge_pool_sample_us", "us"),
    ("sampling.alias_repair_us", "us"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.matmul_transpose_gflops", "GFLOP/s"),
    ("tensor.transpose_matmul_gflops", "GFLOP/s"),
    ("tensor.adagrad_rows_per_s", "rows/s"),
    ("ops.aggregate_ms", "ms"),
    ("ops.dense_forward_ms", "ms"),
    ("ops.dense_backward_ms", "ms"),
    ("core.forward_ms", "ms"),
    ("core.backward_ms", "ms"),
    ("core.step_ms", "ms"),
    ("core.tape_hit_share", "share"),
    ("core.step_unattributed_share", "share"),
    ("runtime.ps_push_ms", "ms"),
    ("runtime.ps_drain_ms", "ms"),
    ("runtime.ps_push_bytes_per_step", "B/step"),
    ("runtime.ps_msgs_per_step", "count/step"),
    ("runtime.remote_read_share", "share"),
    ("runtime.comm_share", "share"),
    ("runtime.worker_busy_share", "share"),
    ("runtime.train_call_fixed_ms", "ms"),
    ("runtime.step_attributed_share", "share"),
    ("runtime.model_self_share", "share"),
    ("runtime.data_self_share", "share"),
    ("serving.handoff_us", "us"),
    ("serving.forward_us", "us"),
    ("serving.cache_hit_share", "share"),
    ("serving.forwards_per_request", "count"),
    ("serving.overlay_apply_us", "us"),
    ("serving.affected_seeds_us", "us"),
    ("serving.invalidated_per_delta", "count"),
    ("serving.rejected_share", "share"),
    ("serving.request_p99_ms", "ms"),
    ("serving.request_samples", "count"),
    ("streaming.gather_hit_us", "us"),
    ("streaming.gather_miss_us", "us"),
    ("streaming.cache_hit_share", "share"),
    ("streaming.ingest_ms", "ms"),
    ("streaming.invalidated_per_batch", "count"),
    ("streaming.alias_repairs_per_batch", "count"),
    ("streaming.epochs_published", "count"),
    ("streaming.session_p99_ms", "ms"),
    ("streaming.session_samples", "count"),
    ("bench.cal_factor_p50", "share"),
    ("bench.cal_factor_spread", "share"),
    ("bench.raw_ops_per_s", "1/s"),
    ("bench.trace_overhead_share", "share"),
];

/// Collected metric values, keyed by the names of the tables above.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Records one value; a later value for the same name replaces it.
    pub fn put(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values (end-to-end or per-layer, depending on the run).
    pub metrics: Metrics,
    /// Uncalibrated companions of the calibrated values, text output only.
    pub raw: Metrics,
    /// Primary operations issued.
    pub attempted: u64,
    /// Operations refused or failed.
    pub failed: u64,
    /// Failed output checks; the run is correct when this is empty.
    pub check_failures: Vec<String>,
    /// Free-form lines printed before the metrics (the span table).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Renders the text lines and the final JSON line for `table`'s metrics.
pub fn render(outcome: &Outcome, table: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for note in &outcome.notes {
        writeln!(out, "{note}").ok();
    }
    for failure in &outcome.check_failures {
        writeln!(out, "CHECK FAILED: {failure}").ok();
    }
    let mut json = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = outcome.metrics.get(name).unwrap_or(0.0);
        write!(out, "{name} {value} {unit}").ok();
        if let Some(raw) = outcome.raw.get(name) {
            write!(out, " (raw {raw} {unit})").ok();
        }
        out.push('\n');
        let sep = if i == 0 { "" } else { ", " };
        write!(json, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}").ok();
    }
    writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.check_failures.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
    )
    .ok();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_ends_with_one_json_object() {
        let mut o = Outcome { attempted: 10, ..Outcome::default() };
        o.metrics.put("setup_s", 1.25);
        o.raw.put("setup_s", 1.5);
        let text = render(&o, END_TO_END);
        assert!(text.contains("setup_s 1.25 s (raw 1.5 s)"));
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(last.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}"));
        o.check(false, || "losses differ".into());
        assert!(render(&o, END_TO_END).contains("\"correct\": false"));
    }

    /// `BENCHMARK.json` and the tables above name the same metrics.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
