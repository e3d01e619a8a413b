//! Lightweight span timing: a drop guard measures wall-clock nanoseconds
//! into a histogram, and a per-thread scope caches name→handle lookups so
//! shard-pinned workers never touch shared state on the hot path.

use crate::histogram::Histogram;
use crate::registry::Registry;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// An in-flight timed section. Created by [`Span::enter`]; records elapsed
/// nanoseconds into its histogram when dropped (ends of early returns and
/// `?` exits included — that's the point of a drop guard).
#[derive(Debug)]
pub struct Span {
    hist: Arc<Histogram>,
    start: Instant,
}

impl Span {
    /// Starts timing into `hist`.
    #[inline]
    #[expect(clippy::disallowed_methods, reason = "telemetry owns the wall clock")]
    pub fn enter(hist: &Arc<Histogram>) -> Span {
        Span { hist: hist.clone(), start: Instant::now() }
    }

    /// Elapsed time so far (mostly for tests).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

/// A started wall-clock measurement that is read, not branched on.
///
/// Telemetry owns the clock in this workspace: `clippy.toml` disallows
/// `Instant::now()` everywhere, and only this constructor and
/// [`Span::enter`] carry the reasoned `#[expect]`. Every other layer that
/// wants to *report* how long something took (cluster build phases, run
/// wall time, per-epoch timings, a request's latency) goes through a
/// `Stopwatch`. Like [`Span`], it records; unlike [`Span`], the caller
/// chooses where the reading lands (a report struct, a histogram, a log
/// line). Using a reading to steer control flow in a seeded path is still
/// a bug; a deadline would need an `Instant`, which no `Stopwatch` hands
/// out.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts measuring.
    #[inline]
    #[expect(clippy::disallowed_methods, reason = "telemetry owns the wall clock")]
    pub fn start() -> Stopwatch {
        Stopwatch { start: Instant::now() }
    }

    /// Elapsed wall-clock time since `start`.
    #[inline]
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }

    /// Elapsed nanoseconds, saturating at `u64::MAX`.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A per-thread cache of span histograms, resolved once per (thread, name).
///
/// Worker threads construct one `SpanScope` from the run's registry at
/// startup; `enter("sampling.neighborhood")` then costs a thread-local
/// `HashMap` hit plus an `Instant::now()` — no registry lock, no sharing
/// with sibling workers beyond the striped histogram itself.
#[derive(Debug)]
pub struct SpanScope {
    registry: Arc<Registry>,
    cache: RefCell<HashMap<&'static str, Arc<Histogram>>>,
}

impl SpanScope {
    /// A scope over `registry`. One per thread; `SpanScope` is deliberately
    /// `!Sync` (interior `RefCell`) so it cannot be shared.
    pub fn new(registry: Arc<Registry>) -> SpanScope {
        SpanScope { registry, cache: RefCell::new(HashMap::new()) }
    }

    /// The histogram behind `name` (cached after the first call).
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        self.cache
            .borrow_mut()
            .entry(name)
            .or_insert_with(|| self.registry.histogram(name, &[]))
            .clone()
    }

    /// Starts a span recording elapsed ns into `name`'s histogram.
    #[inline]
    pub fn enter(&self, name: &'static str) -> Span {
        Span::enter(&self.histogram(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let h = Arc::new(Histogram::new());
        {
            let _s = Span::enter(&h);
            std::thread::yield_now();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
    }

    #[test]
    fn scope_caches_and_registers() {
        let r = Arc::new(Registry::new());
        let scope = SpanScope::new(r.clone());
        drop(scope.enter("t.span"));
        drop(scope.enter("t.span"));
        assert_eq!(r.snapshot().histogram("t.span", &[]).count, 2);
        // Cached handle is the registered one.
        assert!(Arc::ptr_eq(&scope.histogram("t.span"), &r.histogram("t.span", &[])));
    }

    #[test]
    fn scope_on_disabled_registry_is_inert() {
        let r = Arc::new(Registry::disabled());
        let scope = SpanScope::new(r.clone());
        drop(scope.enter("x"));
        // The cached handle works (count advances) but nothing registers.
        assert_eq!(scope.histogram("x").snapshot().count, 1);
        assert!(r.snapshot().series.is_empty());
    }
}
