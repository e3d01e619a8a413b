//! Simulated access-cost model and tier accounting.
//!
//! Real AliGraph pays network round-trips for remote neighbor reads; here a
//! [`CostModel`] assigns a virtual latency to each access class and
//! [`AccessStats`] accumulates counts so experiments can report both raw
//! counts and modelled time. The default remote/local ratio (~100×) is in
//! the range of datacenter RPC vs. DRAM access.
//!
//! [`AccessKind`] is the **single source of truth for comm tiers** across
//! the workspace: the runtime's parameter-server metering and the serving
//! layer's embedding accounting both classify traffic with this enum and
//! meter it through [`TierMeter`] / [`AccessStats`], so every layer's
//! numbers land in one telemetry registry under `{layer}.access{tier=...}`
//! style series instead of three private counter structs.

use aligraph_telemetry::{Counter, Registry};
use std::sync::Arc;

/// Classification of one storage access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// The vertex is owned by the asking worker.
    Local,
    /// The vertex is remote but its neighbors were cached locally.
    CachedRemote,
    /// A remote graph server had to be called.
    Remote,
    /// The vertex is resident on this shard but its row lives in the
    /// compressed cold tier and had to be decoded (out-of-core storage,
    /// [`crate::tier`]).
    Cold,
}

impl AccessKind {
    /// Every tier, in metering order.
    pub const ALL: [AccessKind; 4] =
        [AccessKind::Local, AccessKind::CachedRemote, AccessKind::Remote, AccessKind::Cold];

    /// Dense index (array slot) of this tier.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            AccessKind::Local => 0,
            AccessKind::CachedRemote => 1,
            AccessKind::Remote => 2,
            AccessKind::Cold => 3,
        }
    }

    /// Telemetry label value of this tier (`tier=<label>`).
    pub fn as_label(self) -> &'static str {
        match self {
            AccessKind::Local => "local",
            AccessKind::CachedRemote => "cached_remote",
            AccessKind::Remote => "remote",
            AccessKind::Cold => "cold",
        }
    }
}

/// Virtual latencies per access class, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Local in-memory read.
    pub local_ns: u64,
    /// Read served from the local neighbor cache (slightly above local: one
    /// extra lookup).
    pub cached_ns: u64,
    /// Remote server call.
    pub remote_ns: u64,
    /// Extra cost charged when a dynamic cache (LRU) replaces an entry —
    /// the churn penalty the paper observes for the LRU strategy.
    pub cache_replace_ns: u64,
    /// Blocking read from the compressed cold tier (decode included) —
    /// modelled on an NVMe read, an order of magnitude above a remote RPC.
    pub cold_ns: u64,
    /// Cold read served from the prefetch stage: the decode already
    /// happened overlapped with gather/aggregate, so the hot path only pays
    /// one stage lookup (slightly above a cache hit).
    pub prefetch_hit_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            local_ns: 100,
            cached_ns: 150,
            remote_ns: 10_000,
            cache_replace_ns: 400,
            cold_ns: 100_000,
            prefetch_hit_ns: 250,
        }
    }
}

impl CostModel {
    /// Virtual cost of one access.
    #[inline]
    pub fn cost_of(&self, kind: AccessKind) -> u64 {
        match kind {
            AccessKind::Local => self.local_ns,
            AccessKind::CachedRemote => self.cached_ns,
            AccessKind::Remote => self.remote_ns,
            AccessKind::Cold => self.cold_ns,
        }
    }
}

fn tier_counters(registry: &Registry, name: &str) -> [Arc<Counter>; 4] {
    AccessKind::ALL.map(|k| registry.counter(name, &[("tier", k.as_label())]))
}

/// Lock-free access counters shared across worker threads.
///
/// Backed by telemetry [`Counter`]s. [`AccessStats::new`] keeps them
/// detached (not visible in any registry — the pre-telemetry behaviour);
/// [`AccessStats::registered`] additionally publishes them under a layer
/// prefix so one [`Registry`] snapshot carries every layer's traffic.
#[derive(Debug)]
pub struct AccessStats {
    tiers: [Arc<Counter>; 4],
    replacements: Arc<Counter>,
    virtual_ns: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
}

impl Default for AccessStats {
    fn default() -> Self {
        Self::registered(&Registry::disabled(), "storage")
    }
}

impl AccessStats {
    /// Fresh zeroed stats, detached from any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stats whose counters are published in `registry` under `layer`:
    /// `{layer}.access{tier=...}`, `{layer}.access.replacements`,
    /// `{layer}.access.virtual_ns`, and the neighbor-cache events
    /// `{layer}.neighbor_cache{event=hit|miss|evict}`.
    pub fn registered(registry: &Registry, layer: &str) -> Self {
        let access = format!("{layer}.access");
        let cache = format!("{layer}.neighbor_cache");
        AccessStats {
            tiers: tier_counters(registry, &access),
            replacements: registry.counter(&format!("{access}.replacements"), &[]),
            virtual_ns: registry.counter(&format!("{access}.virtual_ns"), &[]),
            cache_hits: registry.counter(&cache, &[("event", "hit")]),
            cache_misses: registry.counter(&cache, &[("event", "miss")]),
            cache_evictions: registry.counter(&cache, &[("event", "evict")]),
        }
    }

    /// Records one access under `model`.
    #[inline]
    pub fn record(&self, kind: AccessKind, model: &CostModel) {
        self.tiers[kind.index()].inc();
        self.virtual_ns.add(model.cost_of(kind));
    }

    /// Records a cache replacement (LRU churn).
    #[inline]
    pub fn record_replacement(&self, model: &CostModel) {
        self.replacements.inc();
        self.virtual_ns.add(model.cache_replace_ns);
    }

    /// Records a cold-tier access whose decode was overlapped with compute
    /// by the prefetch pipeline: the op counts as `Cold` (it *was* a cold
    /// row) but only `prefetch_hit_ns` lands on the modelled clock.
    #[inline]
    pub fn record_overlapped_cold(&self, model: &CostModel) {
        self.tiers[AccessKind::Cold.index()].inc();
        self.virtual_ns.add(model.prefetch_hit_ns);
    }

    /// Records a neighbor-cache hit (a remote vertex served locally).
    #[inline]
    pub fn record_cache_hit(&self) {
        self.cache_hits.inc();
    }

    /// Records a neighbor-cache miss (remote call required).
    #[inline]
    pub fn record_cache_miss(&self) {
        self.cache_misses.inc();
    }

    /// Records a neighbor-cache eviction (dynamic strategies only).
    #[inline]
    pub fn record_cache_eviction(&self) {
        self.cache_evictions.inc();
    }

    /// Consistent-enough snapshot for reporting (relaxed loads; exactness is
    /// irrelevant once worker threads have been joined).
    pub fn snapshot(&self) -> AccessStatsSnapshot {
        AccessStatsSnapshot {
            local: self.tiers[0].get(),
            cached_remote: self.tiers[1].get(),
            remote: self.tiers[2].get(),
            cold: self.tiers[3].get(),
            replacements: self.replacements.get(),
            virtual_ns: self.virtual_ns.get(),
        }
    }

    /// Resets all counters.
    pub fn reset(&self) {
        for t in &self.tiers {
            t.reset();
        }
        self.replacements.reset();
        self.virtual_ns.reset();
        self.cache_hits.reset();
        self.cache_misses.reset();
        self.cache_evictions.reset();
    }
}

/// A point-in-time copy of [`AccessStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessStatsSnapshot {
    /// Local reads.
    pub local: u64,
    /// Reads served by a neighbor cache.
    pub cached_remote: u64,
    /// Remote server calls.
    pub remote: u64,
    /// Resident reads that had to decode from the compressed cold tier.
    pub cold: u64,
    /// Dynamic-cache replacements.
    pub replacements: u64,
    /// Total modelled time in nanoseconds.
    pub virtual_ns: u64,
}

impl AccessStatsSnapshot {
    /// Total accesses of any kind.
    pub fn total(&self) -> u64 {
        self.local + self.cached_remote + self.remote + self.cold
    }

    /// Fraction of non-local lookups that the cache absorbed.
    pub fn cache_hit_rate(&self) -> f64 {
        let nonlocal = self.cached_remote + self.remote;
        if nonlocal == 0 {
            return 0.0;
        }
        self.cached_remote as f64 / nonlocal as f64
    }
}

/// Message/byte metering split by [`AccessKind`] tier — the shared shape of
/// the runtime parameter server's comm accounting (and any other component
/// that moves payload bytes between workers). One metered message records
/// its tier's op count, payload bytes, and the modelled latency.
#[derive(Debug)]
pub struct TierMeter {
    ops: [Arc<Counter>; 4],
    bytes: [Arc<Counter>; 4],
    virtual_ns: Arc<Counter>,
}

impl Default for TierMeter {
    fn default() -> Self {
        Self::registered(&Registry::disabled(), "tier_meter")
    }
}

impl TierMeter {
    /// Fresh zeroed meter, detached from any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A meter publishing `{name}.ops{tier=...}`, `{name}.bytes{tier=...}`,
    /// and `{name}.virtual_ns` in `registry`.
    pub fn registered(registry: &Registry, name: &str) -> Self {
        TierMeter {
            ops: tier_counters(registry, &format!("{name}.ops")),
            bytes: tier_counters(registry, &format!("{name}.bytes")),
            virtual_ns: registry.counter(&format!("{name}.virtual_ns"), &[]),
        }
    }

    /// Records one message of `bytes` payload at `kind`'s tier, returning
    /// the modelled latency in nanoseconds.
    #[inline]
    pub fn record(&self, kind: AccessKind, bytes: u64, cost: &CostModel) -> u64 {
        let t = kind.index();
        self.ops[t].inc();
        self.bytes[t].add(bytes);
        let ns = cost.cost_of(kind);
        self.virtual_ns.add(ns);
        ns
    }

    /// Point-in-time copy for reporting.
    pub fn snapshot(&self) -> TierMeterSnapshot {
        TierMeterSnapshot {
            local_ops: self.ops[0].get(),
            cached_ops: self.ops[1].get(),
            remote_ops: self.ops[2].get(),
            cold_ops: self.ops[3].get(),
            local_bytes: self.bytes[0].get(),
            cached_bytes: self.bytes[1].get(),
            remote_bytes: self.bytes[2].get(),
            cold_bytes: self.bytes[3].get(),
            virtual_ns: self.virtual_ns.get(),
        }
    }

    /// Resets all counters.
    pub fn reset(&self) {
        for c in self.ops.iter().chain(self.bytes.iter()) {
            c.reset();
        }
        self.virtual_ns.reset();
    }
}

/// A copy of [`TierMeter`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierMeterSnapshot {
    /// Messages at the local tier (own shard).
    pub local_ops: u64,
    /// Messages served from a replica/cache tier.
    pub cached_ops: u64,
    /// Messages crossing shard boundaries.
    pub remote_ops: u64,
    /// Messages served by the compressed cold tier.
    pub cold_ops: u64,
    /// Bytes moved in local operations.
    pub local_bytes: u64,
    /// Bytes served from replicas/caches.
    pub cached_bytes: u64,
    /// Bytes crossing shard boundaries.
    pub remote_bytes: u64,
    /// Bytes decoded out of the cold tier.
    pub cold_bytes: u64,
    /// Total modelled time under the storage cost model.
    pub virtual_ns: u64,
}

impl TierMeterSnapshot {
    /// All metered messages.
    pub fn total_ops(&self) -> u64 {
        self.local_ops + self.cached_ops + self.remote_ops + self.cold_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let m = CostModel::default();
        let s = AccessStats::new();
        s.record(AccessKind::Local, &m);
        s.record(AccessKind::Remote, &m);
        s.record(AccessKind::CachedRemote, &m);
        s.record_replacement(&m);
        let snap = s.snapshot();
        assert_eq!(snap.local, 1);
        assert_eq!(snap.remote, 1);
        assert_eq!(snap.cached_remote, 1);
        assert_eq!(snap.replacements, 1);
        assert_eq!(snap.total(), 3);
        assert_eq!(snap.virtual_ns, m.local_ns + m.remote_ns + m.cached_ns + m.cache_replace_ns);
        assert!((snap.cache_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reset_zeroes() {
        let m = CostModel::default();
        let s = AccessStats::new();
        s.record(AccessKind::Remote, &m);
        s.reset();
        assert_eq!(s.snapshot(), AccessStatsSnapshot::default());
    }

    #[test]
    fn remote_dominates_cost() {
        let m = CostModel::default();
        assert!(m.cost_of(AccessKind::Remote) > 10 * m.cost_of(AccessKind::CachedRemote));
        assert!(m.cost_of(AccessKind::CachedRemote) >= m.cost_of(AccessKind::Local));
    }

    #[test]
    fn hit_rate_zero_when_all_local() {
        let m = CostModel::default();
        let s = AccessStats::new();
        s.record(AccessKind::Local, &m);
        assert_eq!(s.snapshot().cache_hit_rate(), 0.0);
    }

    #[test]
    fn concurrent_recording() {
        let m = CostModel::default();
        let s = std::sync::Arc::new(AccessStats::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record(AccessKind::Local, &CostModel::default());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.snapshot().local, 4000);
        let _ = m;
    }

    #[test]
    fn registered_stats_publish_series() {
        let registry = Registry::new();
        let m = CostModel::default();
        let s = AccessStats::registered(&registry, "storage");
        s.record(AccessKind::Remote, &m);
        s.record_cache_hit();
        s.record_cache_miss();
        s.record_cache_eviction();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("storage.access", &[("tier", "remote")]), 1);
        assert_eq!(snap.counter("storage.access.virtual_ns", &[]), m.remote_ns);
        assert_eq!(snap.counter("storage.neighbor_cache", &[("event", "hit")]), 1);
        assert_eq!(snap.counter("storage.neighbor_cache", &[("event", "miss")]), 1);
        assert_eq!(snap.counter("storage.neighbor_cache", &[("event", "evict")]), 1);
        // The snapshot and the registry agree.
        assert_eq!(s.snapshot().remote, 1);
    }

    #[test]
    fn tier_meter_records_ops_bytes_and_cost() {
        let registry = Registry::new();
        let m = CostModel::default();
        let t = TierMeter::registered(&registry, "runtime.ps");
        let ns = t.record(AccessKind::Remote, 64, &m);
        assert_eq!(ns, m.remote_ns);
        t.record(AccessKind::Local, 32, &m);
        let snap = t.snapshot();
        assert_eq!((snap.local_ops, snap.cached_ops, snap.remote_ops), (1, 0, 1));
        assert_eq!((snap.local_bytes, snap.remote_bytes), (32, 64));
        assert_eq!(snap.virtual_ns, m.remote_ns + m.local_ns);
        assert_eq!(snap.total_ops(), 2);
        let rs = registry.snapshot();
        assert_eq!(rs.counter("runtime.ps.bytes", &[("tier", "remote")]), 64);
        assert_eq!(rs.counter("runtime.ps.ops", &[("tier", "local")]), 1);
        t.reset();
        assert_eq!(t.snapshot(), TierMeterSnapshot::default());
    }

    #[test]
    fn access_kind_labels_and_indices() {
        for (i, k) in AccessKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(AccessKind::CachedRemote.as_label(), "cached_remote");
        assert_eq!(AccessKind::Cold.as_label(), "cold");
    }

    #[test]
    fn cold_tier_costs_and_overlap() {
        let m = CostModel::default();
        // A blocking cold read (storage + decode) is the most expensive
        // class; an overlapped one costs about a cache hit.
        assert!(m.cost_of(AccessKind::Cold) > m.cost_of(AccessKind::Remote));
        assert!(m.prefetch_hit_ns < m.remote_ns);
        let s = AccessStats::new();
        s.record(AccessKind::Cold, &m);
        s.record_overlapped_cold(&m);
        let snap = s.snapshot();
        assert_eq!(snap.cold, 2, "overlapped reads still count as cold ops");
        assert_eq!(snap.virtual_ns, m.cold_ns + m.prefetch_hit_ns);
        assert_eq!(snap.total(), 2);
    }

    #[test]
    fn tier_meter_meters_cold_ops_and_bytes() {
        let m = CostModel::default();
        let t = TierMeter::new();
        let ns = t.record(AccessKind::Cold, 128, &m);
        assert_eq!(ns, m.cold_ns);
        let snap = t.snapshot();
        assert_eq!((snap.cold_ops, snap.cold_bytes), (1, 128));
        assert_eq!(snap.total_ops(), 1);
    }
}
