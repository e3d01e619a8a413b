//! Versioned LRU: a cache that never serves a stale value across updates.
//!
//! Shared by the online layers — `serving` caches embeddings per graph
//! version, `streaming` caches gathers per epoch. The policy, written once:
//!
//! * **An entry is insertable only at the current version.** A value
//!   computed against version `n` that arrives after the cache moved to
//!   `n+1` is dropped ([`VersionedCache::insert`] counts a stale reject):
//!   the invalidation sweep for `n+1` has already run, so a late write
//!   could resurrect exactly what the sweep removed.
//! * **A version bump removes exactly the affected keys.**
//!   [`VersionedCache::advance`] takes the set the update could have
//!   altered (the callers compute it by reverse k-hop reachability) and
//!   leaves everything else warm. When the cached value is a pure function
//!   of the key's k-hop region, a survivor is bit-identical to what the new
//!   version would compute — serving it is the same answer without the
//!   work, not a staleness compromise.
//!
//! Events publish into a telemetry registry as
//! `<prefix>{event=hit|miss|evict|invalidate|stale_reject}` plus a
//! `<prefix>.len` occupancy gauge; the prefix (`serving.cache`,
//! `streaming.cache`) is fixed by the owning layer at construction.

use crate::lru::LruCache;
use aligraph_telemetry::{Counter, Gauge, Registry, RegistrySnapshot};
use parking_lot::Mutex;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counter snapshot of a [`VersionedCache`], for the layers' reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to recomputation.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Entries removed by targeted invalidation.
    pub invalidations: u64,
    /// Inserts dropped because the version moved mid-computation.
    pub stale_rejects: u64,
    /// Live entries.
    pub len: usize,
}

impl CacheStats {
    /// Hit fraction over all lookups (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Rebuilds the stats from a registry snapshot's `series_prefix` series.
    pub fn from_snapshot(snap: &RegistrySnapshot, series_prefix: &str) -> CacheStats {
        let event = |e| snap.counter(series_prefix, &[("event", e)]);
        CacheStats {
            hits: event("hit"),
            misses: event("miss"),
            evictions: event("evict"),
            invalidations: event("invalidate"),
            stale_rejects: event("stale_reject"),
            len: snap.gauge(&format!("{series_prefix}.len"), &[]).max(0) as usize,
        }
    }
}

/// The cache line of the layers' text reports (after their own label).
impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hit rate {:.1}% ({} hits / {} misses), {} invalidated, {} stale inserts dropped",
            self.hit_rate() * 100.0,
            self.hits,
            self.misses,
            self.invalidations,
            self.stale_rejects
        )
    }
}

/// A shared LRU whose entries are all valid at one current version.
#[derive(Debug)]
pub struct VersionedCache<K, V> {
    /// Invariant: every live entry was computed at `current_version` —
    /// inserts at other versions are rejected and [`advance`](Self::advance)
    /// removes everything a version change could have altered.
    inner: Mutex<LruCache<K, V>>,
    /// The version entries must match to be inserted.
    current_version: AtomicU64,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    invalidations: Arc<Counter>,
    stale_rejects: Arc<Counter>,
    len: Arc<Gauge>,
}

impl<K: Hash + Eq + Clone + Ord, V: Clone> VersionedCache<K, V> {
    /// A cache holding at most `capacity` entries, at version 0, publishing
    /// `series_prefix{event=...}` and the `series_prefix.len` gauge in
    /// `registry` (pass [`Registry::disabled`] for detached counters).
    pub fn registered(capacity: usize, registry: &Registry, series_prefix: &str) -> Self {
        let event = |e| registry.counter(series_prefix, &[("event", e)]);
        VersionedCache {
            inner: Mutex::new(LruCache::new(capacity)),
            current_version: AtomicU64::new(0),
            hits: event("hit"),
            misses: event("miss"),
            evictions: event("evict"),
            invalidations: event("invalidate"),
            stale_rejects: event("stale_reject"),
            len: registry.gauge(&format!("{series_prefix}.len"), &[]),
        }
    }

    /// The version inserts are currently admitted against.
    pub fn version(&self) -> u64 {
        // ordering: Acquire pairs with advance()'s Release store so a
        // reader that sees version V also sees the invalidations advance
        // performed before publishing V.
        self.current_version.load(Ordering::Acquire)
    }

    /// Looks up `key`, promoting it on a hit. Entries can only exist at the
    /// current version (older ones are dropped at insert or invalidated), so
    /// a hit is always fresh.
    pub fn get(&self, key: &K) -> Option<V> {
        let out = self.inner.lock().get(key).cloned();
        match out {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        out
    }

    /// Inserts a value computed against `version`; dropped (counted as a
    /// stale reject) if the cache has advanced past `version`.
    pub fn insert(&self, key: K, version: u64, value: V) {
        let mut inner = self.inner.lock();
        // Checked under the lock so an `advance` cannot interleave.
        // ordering: Acquire pairs with advance()'s Release store; observing
        // the advanced version here implies its invalidations happened.
        if version != self.current_version.load(Ordering::Acquire) {
            drop(inner);
            self.stale_rejects.inc();
            return;
        }
        if inner.put(key, value) {
            self.evictions.inc();
        }
        self.len.set(inner.len() as i64);
    }

    /// Moves the cache to `version` and removes exactly the affected
    /// entries. Returns how many live entries were invalidated.
    pub fn advance(&self, version: u64, affected: impl IntoIterator<Item = K>) -> usize {
        let mut inner = self.inner.lock();
        // ordering: Release publishes the new version; paired Acquire loads
        // in version()/insert() then observe the invalidations below only
        // after seeing V (insert additionally holds the lock).
        self.current_version.store(version, Ordering::Release);
        let mut dropped = 0;
        for key in affected {
            if inner.remove(&key).is_some() {
                dropped += 1;
            }
        }
        self.len.set(inner.len() as i64);
        drop(inner);
        self.invalidations.add(dropped as u64);
        dropped
    }

    /// True when `key` is currently cached (no hit/miss accounting, no LRU
    /// promotion) — for the invalidation-precision tests.
    pub fn contains(&self, key: &K) -> bool {
        self.inner.lock().peek(key).is_some()
    }

    /// The live entries, sorted by key (for the equivalence oracle).
    pub fn entries(&self) -> Vec<(K, V)> {
        let inner = self.inner.lock();
        let mut out: Vec<(K, V)> = inner.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let len = self.inner.lock().len();
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            invalidations: self.invalidations.get(),
            stale_rejects: self.stale_rejects.get(),
            len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Cache = VersionedCache<u32, Arc<Vec<f32>>>;

    /// The series prefixes in production use; every case runs under both.
    const PREFIXES: [&str; 2] = ["serving.cache", "streaming.cache"];

    fn val(x: f32) -> Arc<Vec<f32>> {
        Arc::new(vec![x; 4])
    }

    #[test]
    fn round_trips_at_current_version() {
        for prefix in PREFIXES {
            let c = Cache::registered(8, &Registry::disabled(), prefix);
            c.insert(1, 0, val(1.0));
            assert_eq!(c.get(&1).unwrap()[0], 1.0);
            assert_eq!(c.get(&2), None);
            let s = c.stats();
            assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        }
    }

    #[test]
    fn advance_invalidates_only_affected_keys() {
        for prefix in PREFIXES {
            let c = Cache::registered(8, &Registry::disabled(), prefix);
            c.insert(1, 0, val(1.0));
            c.insert(2, 0, val(2.0));
            assert_eq!(c.advance(1, [2, 99]), 1, "99 was never cached");
            assert_eq!(c.version(), 1);
            assert!(c.contains(&1), "unaffected entry stays warm");
            assert!(!c.contains(&2));
            assert!(c.get(&1).is_some());
            assert!(c.get(&2).is_none());
            assert_eq!(c.stats().invalidations, 1);
        }
    }

    #[test]
    fn stale_insert_is_dropped_after_advance() {
        for prefix in PREFIXES {
            let c = Cache::registered(8, &Registry::disabled(), prefix);
            c.advance(1, []);
            // A batch that started at version 0 tries to publish late.
            c.insert(7, 0, val(7.0));
            assert!(!c.contains(&7));
            assert_eq!(c.get(&7), None);
            // The same key recomputed at the current version is admitted.
            c.insert(7, 1, val(7.5));
            assert_eq!(c.get(&7).unwrap()[0], 7.5);
            let s = c.stats();
            assert_eq!((s.invalidations, s.stale_rejects, s.len), (0, 1, 1));
        }
    }

    #[test]
    fn registered_cache_publishes_events_and_occupancy() {
        for prefix in PREFIXES {
            let registry = Registry::new();
            let c = Cache::registered(2, &registry, prefix);
            c.insert(1, 0, val(1.0));
            c.insert(2, 0, val(2.0));
            c.insert(3, 0, val(3.0)); // evicts
            let _ = c.get(&3);
            let _ = c.get(&99);
            let snap = registry.snapshot();
            assert_eq!(snap.counter(prefix, &[("event", "hit")]), 1);
            assert_eq!(snap.counter(prefix, &[("event", "miss")]), 1);
            assert_eq!(snap.counter(prefix, &[("event", "evict")]), 1);
            assert_eq!(snap.gauge(&format!("{prefix}.len"), &[]), 2);
            assert_eq!(CacheStats::from_snapshot(&snap, prefix), c.stats());
            let other = PREFIXES.iter().find(|p| **p != prefix).unwrap();
            assert_eq!(CacheStats::from_snapshot(&snap, other), CacheStats::default());
            assert_eq!(c.entries().iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![2, 3]);
        }
    }
}
