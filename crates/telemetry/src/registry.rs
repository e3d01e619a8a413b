//! The metric registry: dotted names plus label sets map to shared handles.
//!
//! There is deliberately no global registry. Each CLI command, bench, or
//! test constructs its own [`Registry`] (usually one `Arc<Registry>` per
//! run) and threads it through constructors, so two runs in one process
//! never share series and tests never race. Components that don't care get
//! a [`Registry::disabled()`] registry: handles still work (recording is
//! harmless) but register nothing, so snapshots stay empty and the hot path
//! is identical either way — the determinism guarantee depends on that.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json::Json;
use crate::metric::{Counter, Gauge};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Identity of one series: dotted metric name plus sorted labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Dotted metric name, e.g. `storage.access`.
    pub name: String,
    /// Label pairs, sorted by key (e.g. `[("tier", "remote")]`).
    pub labels: Vec<(String, String)>,
}

impl SeriesKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        SeriesKey { name: name.to_string(), labels }
    }

    /// `name{k=v,...}` rendering used in tables and error messages.
    pub fn render(&self) -> String {
        let mut out = self.name.clone();
        if !self.labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{k}={v}");
            }
            out.push('}');
        }
        out
    }
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

/// A global-free metric registry.
///
/// Registration takes the internal lock once per series; the returned `Arc`
/// handles are lock-free to record into, so components register at
/// construction time and the hot path never sees the registry again.
pub struct Registry {
    /// `None` means disabled: handles are handed out but never retained.
    series: Option<Mutex<BTreeMap<SeriesKey, Handle>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A live registry.
    pub fn new() -> Self {
        Registry { series: Some(Mutex::new(BTreeMap::new())) }
    }

    /// A disabled registry: every `counter`/`gauge`/`histogram` call returns
    /// a fresh functional handle that is NOT retained, so recording costs
    /// the same as when enabled (determinism) but snapshots are empty.
    pub fn disabled() -> Self {
        Registry { series: None }
    }

    /// Whether this registry retains series.
    pub fn is_enabled(&self) -> bool {
        self.series.is_some()
    }

    fn lookup<T, F: FnOnce() -> Arc<T>>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: F,
        wrap: fn(Arc<T>) -> Handle,
        unwrap: fn(&Handle) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let Some(series) = &self.series else {
            return make();
        };
        let key = SeriesKey::new(name, labels);
        // invariant: the only panic possible under this lock is the kind-
        // collision below, which is a deliberate fail-fast on a programming
        // error — a poisoned registry means the process is already going down.
        let mut map = series.lock().expect("telemetry registry poisoned");
        match map.get(&key) {
            Some(h) => unwrap(h).unwrap_or_else(|| {
                // aligraph::allow(no-unwrap-in-lib): registering one series
                // key as two different metric kinds is a documented
                // fail-loudly API contract (DESIGN.md §2.12), not a
                // recoverable condition.
                panic!(
                    "telemetry series {} already registered as a {}, requested as a different kind",
                    key.render(),
                    h.kind()
                )
            }),
            None => {
                let handle = make();
                map.insert(key, wrap(handle.clone()));
                handle
            }
        }
    }

    /// Registers (or retrieves) a counter. Same name+labels → the same
    /// underlying counter; same key under a different metric kind panics —
    /// that's a programming error worth failing loudly on.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.lookup(
            name,
            labels,
            || Arc::new(Counter::new()),
            Handle::Counter,
            |h| match h {
                Handle::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.lookup(
            name,
            labels,
            || Arc::new(Gauge::new()),
            Handle::Gauge,
            |h| match h {
                Handle::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.lookup(
            name,
            labels,
            || Arc::new(Histogram::new()),
            Handle::Histogram,
            |h| match h {
                Handle::Histogram(x) => Some(x.clone()),
                _ => None,
            },
        )
    }

    /// Point-in-time copy of every registered series, sorted by key.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let Some(series) = &self.series else {
            return RegistrySnapshot::default();
        };
        // invariant: see lookup() — only the deliberate kind-collision
        // panic can poison this lock.
        let map = series.lock().expect("telemetry registry poisoned");
        let series = map
            .iter()
            .map(|(key, handle)| Series {
                key: key.clone(),
                value: match handle {
                    Handle::Counter(c) => MetricValue::Counter(c.get()),
                    Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                    Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        RegistrySnapshot { series }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.series.as_ref().map(|s| s.lock().map(|m| m.len()).unwrap_or(0));
        f.debug_struct("Registry").field("series", &n).finish()
    }
}

/// The value of one series at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Signed level.
    Gauge(i64),
    /// Distribution summary.
    Histogram(HistogramSnapshot),
}

/// One series in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Name + labels.
    pub key: SeriesKey,
    /// Value at snapshot time.
    pub value: MetricValue,
}

/// A point-in-time copy of a whole registry — the substrate every report
/// renders from, and the unit CLI `--metrics-json` serializes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// All series, ascending by key.
    pub series: Vec<Series>,
}

impl RegistrySnapshot {
    /// Finds a series by name and exact label set.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let key = SeriesKey::new(name, labels);
        self.series.iter().find(|s| s.key == key).map(|s| &s.value)
    }

    /// Counter value by name + labels (0 when absent — absent and untouched
    /// are indistinguishable by design).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.get(name, labels) {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        }
    }

    /// Gauge value by name + labels (0 when absent).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> i64 {
        match self.get(name, labels) {
            Some(MetricValue::Gauge(n)) => *n,
            _ => 0,
        }
    }

    /// Histogram snapshot by name + labels (empty when absent).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
        match self.get(name, labels) {
            Some(MetricValue::Histogram(h)) => h.clone(),
            _ => HistogramSnapshot::default(),
        }
    }

    /// Sums every counter whose name matches, across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.series
            .iter()
            .filter(|s| s.key.name == name)
            .map(|s| match &s.value {
                MetricValue::Counter(n) => *n,
                _ => 0,
            })
            .sum()
    }

    /// True when any series name starts with `prefix` (e.g. `storage.`).
    pub fn has_prefix(&self, prefix: &str) -> bool {
        self.series.iter().any(|s| s.key.name.starts_with(prefix))
    }

    /// Human-readable table, one series per line.
    pub fn render_text(&self) -> String {
        if self.series.is_empty() {
            return "(no metrics)\n".to_string();
        }
        let width = self.series.iter().map(|s| s.key.render().len()).max().unwrap_or(0);
        let mut out = String::new();
        for s in &self.series {
            let _ = write!(out, "{:<width$}  ", s.key.render());
            match &s.value {
                MetricValue::Counter(n) => {
                    let _ = writeln!(out, "{n}");
                }
                MetricValue::Gauge(n) => {
                    let _ = writeln!(out, "{n}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "count {}  mean {:.0}  p50 {}  p95 {}  p99 {}  max {}",
                        h.count,
                        h.mean(),
                        h.quantile(0.5),
                        h.quantile(0.95),
                        h.quantile(0.99),
                        h.max
                    );
                }
            }
        }
        out
    }

    /// Stable JSON rendering: series in key order, fixed field order, so
    /// output is byte-identical for identical inputs.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .series
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("name".to_string(), Json::Str(s.key.name.clone())),
                    ("labels".to_string(), labels_json(&s.key.labels)),
                ];
                match &s.value {
                    MetricValue::Counter(n) => {
                        fields.push(("kind".to_string(), Json::str("counter")));
                        fields.push(("value".to_string(), Json::UInt(*n)));
                    }
                    MetricValue::Gauge(n) => {
                        fields.push(("kind".to_string(), Json::str("gauge")));
                        fields.push(("value".to_string(), Json::Int(*n)));
                    }
                    MetricValue::Histogram(h) => {
                        fields.push(("kind".to_string(), Json::str("histogram")));
                        fields.push(("count".to_string(), Json::UInt(h.count)));
                        fields.push(("sum".to_string(), Json::UInt(h.sum)));
                        fields.push(("min".to_string(), Json::UInt(h.min)));
                        fields.push(("max".to_string(), Json::UInt(h.max)));
                        fields.push(("mean".to_string(), Json::Float(h.mean())));
                        fields.push(("p50".to_string(), Json::UInt(h.quantile(0.5))));
                        fields.push(("p95".to_string(), Json::UInt(h.quantile(0.95))));
                        fields.push(("p99".to_string(), Json::UInt(h.quantile(0.99))));
                    }
                }
                Json::Obj(fields)
            })
            .collect();
        Json::obj(vec![("metrics", Json::Arr(metrics))])
    }
}

fn labels_json(labels: &[(String, String)]) -> Json {
    Json::Obj(labels.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_shares_handle_distinct_labels_do_not() {
        let r = Registry::new();
        let a = r.counter("x.hits", &[("tier", "local")]);
        let b = r.counter("x.hits", &[("tier", "local")]);
        let c = r.counter("x.hits", &[("tier", "remote")]);
        a.inc();
        b.inc();
        c.add(5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x.hits", &[("tier", "local")]), 2);
        assert_eq!(snap.counter("x.hits", &[("tier", "remote")]), 5);
        assert_eq!(snap.counter_total("x.hits"), 7);
    }

    #[test]
    fn label_order_is_irrelevant() {
        let r = Registry::new();
        let a = r.counter("y", &[("a", "1"), ("b", "2")]);
        let b = r.counter("y", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counter("y", &[("a", "1"), ("b", "2")]), 2);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_collision_panics() {
        let r = Registry::new();
        let _ = r.counter("z", &[]);
        let _ = r.histogram("z", &[]);
    }

    #[test]
    fn disabled_registry_hands_out_working_unregistered_handles() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("a", &[]);
        c.add(3);
        assert_eq!(c.get(), 3);
        let h = r.histogram("b", &[]);
        h.record(1);
        assert!(r.snapshot().series.is_empty());
    }

    #[test]
    fn snapshot_renders_and_serializes() {
        let r = Registry::new();
        r.counter("b.count", &[]).add(2);
        r.gauge("c.level", &[]).set(-4);
        let h = r.histogram("a.lat", &[("kind", "x")]);
        h.record(10);
        h.record(20);
        let snap = r.snapshot();
        let text = snap.render_text();
        assert!(text.contains("a.lat{kind=x}"));
        assert!(text.contains("b.count"));
        assert!(text.contains("p95"));
        let json = snap.to_json().to_string();
        assert!(json.contains(r#""name":"b.count","labels":{},"kind":"counter","value":2"#));
        assert!(json.contains(r#""kind":"gauge","value":-4"#));
        assert!(json.contains(r#""p99":"#));
        assert!(snap.has_prefix("a."));
        assert!(!snap.has_prefix("zz."));
    }

    #[test]
    fn missing_series_defaults() {
        let snap = Registry::new().snapshot();
        assert_eq!(snap.counter("nope", &[]), 0);
        assert_eq!(snap.gauge("nope", &[]), 0);
        assert_eq!(snap.histogram("nope", &[]).count, 0);
        assert!(snap.render_text().contains("no metrics"));
    }
}
