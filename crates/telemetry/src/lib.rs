//! Unified telemetry for the AliGraph reproduction.
//!
//! One dependency-light substrate replaces the bespoke counters that used to
//! live in `storage::cost`, `serving::metrics`, and `runtime::ps`:
//!
//! - [`Counter`] — lock-free, cache-line-striped monotonic counter.
//! - [`Gauge`] — a settable signed level (queue depth, cache occupancy).
//! - [`Histogram`] — fixed-bucket latency/value distribution: p50/p95/p99
//!   without storing every sample (bounded memory, bounded error).
//! - [`Registry`] — global-free registry keyed by dotted metric name plus a
//!   label set (`storage.access{tier=remote}`). Handles are `Arc`s; the hot
//!   path never touches the registry lock.
//! - [`Span`] / [`SpanScope`] — drop-guard wall-clock timing into a
//!   histogram, with a per-thread handle cache so shard-pinned workers do
//!   not contend on shared state.
//! - [`RegistrySnapshot`] — the one JSON surface (`--metrics-json`); report
//!   structs render text through `Display` and nothing else.
//!
//! Determinism contract: telemetry records values but **never branches on
//! them** — no code path may read a metric to make a decision. A run with a
//! [`Registry::disabled()`] registry and a live one must therefore be
//! bit-identical (the regression test in the workspace `tests/` enforces
//! this for training loss trajectories).

mod histogram;
mod json;
mod metric;
mod registry;
mod span;

pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use json::Json;
pub use metric::{Counter, Gauge};
pub use registry::{MetricValue, Registry, RegistrySnapshot, Series, SeriesKey};
pub use span::{Span, SpanScope, Stopwatch};
