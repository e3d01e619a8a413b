//! One graph server (worker shard): owns a resident set of vertices, their
//! full out-adjacency, LRU-fronted attribute access, and a local neighbor
//! cache.
//!
//! Residency is dynamic: a live migration [`absorb`](GraphServer::absorb)s
//! vertex records onto a serving shard and [`retire`](GraphServer::retire)s
//! them from the source at the next topology publish, so both shards serve
//! throughout. The resident maps sit behind `RwLock`s for exactly that
//! reason; the hot read path only takes the read side.

use crate::cost::{AccessKind, AccessStats, CostModel};
use crate::lru::LruCache;
use crate::neighbor_cache::{CacheOutcome, NeighborCache};
use crate::tier::{TierRead, TieredStore};
use aligraph_graph::{AttrId, AttrVector, AttributedHeterogeneousGraph, Neighbor, VertexId};
use aligraph_partition::WorkerId;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// One vertex's movable shard-resident state: the unit a live migration
/// streams from source to destination.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexRecord {
    /// The vertex being moved.
    pub vertex: VertexId,
    /// Its materialized out-adjacency.
    pub neighbors: Box<[Neighbor]>,
    /// Its cumulative edge-weight table (empty when the vertex has no
    /// out-edges).
    pub weight_cdf: Arc<[f32]>,
}

impl VertexRecord {
    /// Payload size of this record on the wire (what migration meters).
    pub fn bytes(&self) -> u64 {
        4 + self.neighbors.len() as u64 * 12 + self.weight_cdf.len() as u64 * 4
    }
}

/// A worker shard of the simulated cluster.
///
/// The server materializes its own adjacency for resident vertices (this is
/// the real work the parallel ingest of Figure 7 measures) and serves
/// lookups with local / cached / remote accounting.
#[derive(Debug)]
pub struct GraphServer {
    worker: WorkerId,
    graph: Arc<AttributedHeterogeneousGraph>,
    /// Materialized out-adjacency of resident vertices.
    local_adjacency: RwLock<HashMap<u32, Box<[Neighbor]>>>,
    /// Per-vertex cumulative edge-weight tables supporting O(log d) weighted
    /// neighbor draws without rescanning the adjacency (built at ingest).
    weight_cdf: RwLock<HashMap<u32, Arc<[f32]>>>,
    /// Neighbor cache for remote vertices (Algorithm 2).
    neighbor_cache: NeighborCache,
    /// LRU in front of the vertex attribute index `I_V` (paper §3.2).
    vertex_attr_cache: Mutex<LruCache<AttrId, AttrVector>>,
    /// Cold-tier binding. When present the server materializes **nothing**
    /// itself: residency, adjacency rows, and weight CDFs live in the shared
    /// [`TieredStore`] (decoded hot set + compressed segments), and resident
    /// reads whose row is cold are metered as [`AccessKind::Cold`].
    tier: Option<TierBinding>,
}

#[derive(Debug)]
struct TierBinding {
    store: Arc<TieredStore>,
    /// This server's shard slot inside the tier's residency tables.
    shard: usize,
}

impl GraphServer {
    /// Ingests the worker's shard: copies the adjacency of every roster
    /// vertex into local storage and builds the per-vertex cumulative
    /// weight tables. `roster` is this worker's resident vertex list
    /// (computed once by the cluster so each shard only touches its own
    /// data — this is what makes parallel ingest scale with workers,
    /// Figure 7).
    pub fn ingest(
        worker: WorkerId,
        graph: Arc<AttributedHeterogeneousGraph>,
        roster: &[VertexId],
        neighbor_cache: NeighborCache,
        attr_cache_capacity: usize,
    ) -> Self {
        let server = Self::empty(worker, graph, neighbor_cache, attr_cache_capacity);
        {
            let mut adjacency = server.local_adjacency.write();
            let mut cdfs = server.weight_cdf.write();
            adjacency.reserve(roster.len());
            for &v in roster {
                let nbrs: Box<[Neighbor]> = server.graph.out_neighbors(v).into();
                if !nbrs.is_empty() {
                    cdfs.insert(v.0, build_cdf(&nbrs));
                }
                adjacency.insert(v.0, nbrs);
            }
        }
        server
    }

    /// A shard with no resident vertices yet — the starting state of a
    /// split destination, populated by [`absorb`](Self::absorb).
    pub fn empty(
        worker: WorkerId,
        graph: Arc<AttributedHeterogeneousGraph>,
        neighbor_cache: NeighborCache,
        attr_cache_capacity: usize,
    ) -> Self {
        GraphServer {
            worker,
            graph,
            local_adjacency: RwLock::new(HashMap::new()),
            weight_cdf: RwLock::new(HashMap::new()),
            neighbor_cache,
            vertex_attr_cache: Mutex::new(LruCache::new(attr_cache_capacity)),
            tier: None,
        }
    }

    /// A shard served out of a [`TieredStore`]: nothing is materialized
    /// here — residency and rows live in the tier under its byte budget,
    /// which is what lets the cluster hold graphs 10–100× beyond the
    /// decoded-resident footprint. `shard` is this server's slot in the
    /// tier's residency tables (seeded by the tier build; a split
    /// destination starts empty and gains residency via
    /// [`absorb`](Self::absorb)).
    pub fn tiered(
        worker: WorkerId,
        graph: Arc<AttributedHeterogeneousGraph>,
        store: Arc<TieredStore>,
        shard: usize,
        neighbor_cache: NeighborCache,
        attr_cache_capacity: usize,
    ) -> Self {
        store.ensure_shard(shard);
        let mut server = Self::empty(worker, graph, neighbor_cache, attr_cache_capacity);
        server.tier = Some(TierBinding { store, shard });
        server
    }

    /// The cold tier this server reads through, if any.
    pub fn tier(&self) -> Option<&Arc<TieredStore>> {
        self.tier.as_ref().map(|t| &t.store)
    }

    /// Announces this shard's next sampling frontier to the cold tier
    /// ([`TieredStore::prefetch`]); a no-op returning 0 without one.
    pub fn prefetch(&self, frontier: &[VertexId]) -> usize {
        self.tier.as_ref().map_or(0, |tier| tier.store.prefetch(tier.shard, frontier))
    }

    /// The cumulative weight table of a resident vertex, if any.
    pub fn weight_cdf(&self, v: VertexId) -> Option<Arc<[f32]>> {
        if let Some(tier) = &self.tier {
            return tier.store.weight_cdf(tier.shard, v);
        }
        self.weight_cdf.read().get(&v.0).cloned()
    }

    /// This server's worker id.
    pub fn worker(&self) -> WorkerId {
        self.worker
    }

    /// Number of resident vertices.
    pub fn num_owned(&self) -> usize {
        if let Some(tier) = &self.tier {
            return tier.store.num_resident(tier.shard);
        }
        self.local_adjacency.read().len()
    }

    /// Whether a vertex is resident on this server.
    #[inline]
    pub fn is_local(&self, v: VertexId) -> bool {
        if let Some(tier) = &self.tier {
            return tier.store.is_resident(tier.shard, v.0);
        }
        self.local_adjacency.read().contains_key(&v.0)
    }

    /// The neighbor cache (exposed for experiment reporting and migration).
    pub fn neighbor_cache(&self) -> &NeighborCache {
        &self.neighbor_cache
    }

    /// A movable copy of one resident vertex's state (`None` if not
    /// resident here). The source keeps serving the vertex until
    /// [`retire`](Self::retire) — live migration's both-sides-serve window.
    pub fn extract(&self, v: VertexId) -> Option<VertexRecord> {
        if let Some(tier) = &self.tier {
            return tier.store.extract(tier.shard, v);
        }
        let adjacency = self.local_adjacency.read();
        let nbrs = adjacency.get(&v.0)?;
        let weight_cdf =
            self.weight_cdf.read().get(&v.0).cloned().unwrap_or_else(|| Arc::from(Vec::new()));
        Some(VertexRecord { vertex: v, neighbors: nbrs.clone(), weight_cdf })
    }

    /// Installs one migrated vertex record; after this the vertex serves
    /// as `Local` here. Idempotent (re-absorbing overwrites with identical
    /// data — the graph is immutable).
    pub fn absorb(&self, rec: VertexRecord) {
        if let Some(tier) = &self.tier {
            tier.store.absorb(tier.shard, rec);
            return;
        }
        if !rec.weight_cdf.is_empty() {
            self.weight_cdf.write().insert(rec.vertex.0, rec.weight_cdf);
        }
        self.local_adjacency.write().insert(rec.vertex.0, rec.neighbors);
    }

    /// Drops residency of the given vertices (the migration publish sweep:
    /// the destination has absorbed and cut over, readers on the new epoch
    /// route there, so the source copy can go).
    pub fn retire(&self, vertices: &[u32]) {
        if let Some(tier) = &self.tier {
            tier.store.retire(tier.shard, vertices);
            return;
        }
        let mut adjacency = self.local_adjacency.write();
        let mut cdfs = self.weight_cdf.write();
        for v in vertices {
            adjacency.remove(v);
            cdfs.remove(v);
        }
    }

    /// Classifies (and meters) one neighbor access from this shard without
    /// touching the data: `Local` if resident, otherwise cached/remote per
    /// the neighbor cache. The cluster serves the actual slice from the
    /// shared graph.
    pub fn classify(
        &self,
        v: VertexId,
        hop: usize,
        stats: &AccessStats,
        model: &CostModel,
    ) -> AccessKind {
        if let Some(tier) = &self.tier {
            // Resident: the tier read decides hot vs cold (and promotes the
            // row if the admission rule takes it) — residency, lookup and
            // decode under this shard's lock, which no other worker's read
            // takes.
            if let Some(how) = tier.store.classify(tier.shard, v) {
                return match how {
                    TierRead::Hot => {
                        stats.record(AccessKind::Local, model);
                        AccessKind::Local
                    }
                    TierRead::Prefetched => {
                        // Overlapped decode: counts as a cold op, costs only
                        // the prefetch-hit latency on the blocking clock.
                        stats.record_overlapped_cold(model);
                        AccessKind::Cold
                    }
                    TierRead::Cold | TierRead::Materialized => {
                        stats.record(AccessKind::Cold, model);
                        AccessKind::Cold
                    }
                };
            }
            let kind = match self.neighbor_cache.lookup(v, hop, stats, model) {
                CacheOutcome::Hit => AccessKind::CachedRemote,
                CacheOutcome::Miss | CacheOutcome::MissEvicted => AccessKind::Remote,
            };
            stats.record(kind, model);
            return kind;
        }
        let kind = if self.local_adjacency.read().contains_key(&v.0) {
            AccessKind::Local
        } else {
            match self.neighbor_cache.lookup(v, hop, stats, model) {
                CacheOutcome::Hit => AccessKind::CachedRemote,
                CacheOutcome::Miss | CacheOutcome::MissEvicted => AccessKind::Remote,
            }
        };
        stats.record(kind, model);
        kind
    }

    /// Out-neighbors of `v` as seen from this server. `hop` is the depth the
    /// caller will expand to (a hop-2 expansion needs the cache to hold
    /// 2-hop neighborhoods to avoid the remote call — Algorithm 2 caches
    /// "1 to k-hop" neighbors for exactly this reason).
    ///
    /// Returns the adjacency slice plus how the access was served; the
    /// access is recorded in `stats` under `model`. The simulation serves
    /// the data from the shared graph either way; only the accounting
    /// differs.
    pub fn neighbors(
        &self,
        v: VertexId,
        hop: usize,
        stats: &AccessStats,
        model: &CostModel,
    ) -> (&[Neighbor], AccessKind) {
        let kind = self.classify(v, hop, stats, model);
        (self.graph.out_neighbors(v), kind)
    }

    /// Vertex attributes through the LRU-fronted index. Returns a clone (the
    /// cache owns its copies); records a local access plus cache traffic.
    pub fn vertex_attrs(&self, v: VertexId, stats: &AccessStats, model: &CostModel) -> AttrVector {
        let id = self.graph.vertex_attr_id(v);
        let mut cache = self.vertex_attr_cache.lock();
        if let Some(hit) = cache.get(&id) {
            let out = hit.clone();
            stats.record(AccessKind::Local, model);
            return out;
        }
        let record =
            self.graph.vertex_attr_index().get(id).cloned().unwrap_or_else(AttrVector::empty);
        if cache.put(id, record.clone()) {
            stats.record_replacement(model);
        }
        stats.record(AccessKind::Local, model);
        record
    }

    /// (hits, misses, evictions) of the vertex attribute LRU.
    pub fn vertex_attr_cache_stats(&self) -> (u64, u64, u64) {
        self.vertex_attr_cache.lock().stats()
    }
}

/// Cumulative weight table over one adjacency row.
pub(crate) fn build_cdf(nbrs: &[Neighbor]) -> Arc<[f32]> {
    let mut cdf = Vec::with_capacity(nbrs.len());
    fill_cdf(nbrs, &mut cdf);
    Arc::from(cdf)
}

/// [`build_cdf`] into a reused buffer (cleared first).
pub(crate) fn fill_cdf(nbrs: &[Neighbor], cdf: &mut Vec<f32>) {
    cdf.clear();
    let mut acc = 0.0f32;
    for n in nbrs {
        acc += n.weight;
        cdf.push(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor_cache::CacheStrategy;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_partition::{EdgeCutHash, Partitioner};

    fn setup(strategy: CacheStrategy) -> (Arc<AttributedHeterogeneousGraph>, GraphServer) {
        let g = Arc::new(TaobaoConfig::tiny().generate().unwrap());
        let part = EdgeCutHash.partition(&g, 4);
        let cache = NeighborCache::build_fresh(&g, &strategy, 2);
        let roster: Vec<VertexId> =
            g.vertices().filter(|&v| part.owner_of(v) == WorkerId(0)).collect();
        let server = GraphServer::ingest(WorkerId(0), g.clone(), &roster, cache, 64);
        (g, server)
    }

    #[test]
    fn local_access_served_from_materialized_adjacency() {
        let (g, server) = setup(CacheStrategy::None);
        let stats = AccessStats::new();
        let model = CostModel::default();
        let local = g.vertices().find(|&v| server.is_local(v)).unwrap();
        let (nbrs, kind) = server.neighbors(local, 1, &stats, &model);
        assert_eq!(kind, AccessKind::Local);
        assert_eq!(nbrs, g.out_neighbors(local));
        assert_eq!(stats.snapshot().local, 1);
    }

    #[test]
    fn remote_access_counted_without_cache() {
        let (g, server) = setup(CacheStrategy::None);
        let stats = AccessStats::new();
        let model = CostModel::default();
        let remote = g.vertices().find(|&v| !server.is_local(v)).unwrap();
        let (_, kind) = server.neighbors(remote, 1, &stats, &model);
        assert_eq!(kind, AccessKind::Remote);
        assert_eq!(stats.snapshot().remote, 1);
    }

    #[test]
    fn cached_remote_access() {
        let (g, server) = setup(CacheStrategy::ImportanceBudget { k: 2, fraction: 1.0 });
        let stats = AccessStats::new();
        let model = CostModel::default();
        let remote = g.vertices().find(|&v| !server.is_local(v)).unwrap();
        let (_, kind) = server.neighbors(remote, 2, &stats, &model);
        assert_eq!(kind, AccessKind::CachedRemote);
        assert!(stats.snapshot().virtual_ns < model.remote_ns);
    }

    #[test]
    fn owned_count_partitions_graph() {
        let g = Arc::new(TaobaoConfig::tiny().generate().unwrap());
        let part = EdgeCutHash.partition(&g, 3);
        let mut total = 0;
        for w in 0..3 {
            let cache = NeighborCache::build_fresh(&g, &CacheStrategy::None, 1);
            let roster: Vec<VertexId> =
                g.vertices().filter(|&v| part.owner_of(v) == WorkerId(w)).collect();
            let s = GraphServer::ingest(WorkerId(w), g.clone(), &roster, cache, 8);
            total += s.num_owned();
        }
        assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn extract_absorb_retire_moves_residency() {
        let (g, server) = setup(CacheStrategy::None);
        let dest =
            GraphServer::empty(WorkerId(9), g.clone(), NeighborCache::empty(g.num_vertices()), 8);
        let v = g.vertices().find(|&v| server.is_local(v)).unwrap();
        let rec = server.extract(v).unwrap();
        assert_eq!(&*rec.neighbors, g.out_neighbors(v));
        dest.absorb(rec);
        // Both-sides window: source still serves until retirement.
        assert!(server.is_local(v));
        assert!(dest.is_local(v));
        assert_eq!(dest.weight_cdf(v).is_some(), !g.out_neighbors(v).is_empty());
        server.retire(&[v.0]);
        assert!(!server.is_local(v));
        assert!(server.weight_cdf(v).is_none());
        assert!(server.extract(v).is_none());
    }

    #[test]
    fn attr_cache_hits_on_repeat() {
        let (g, server) = setup(CacheStrategy::None);
        let stats = AccessStats::new();
        let model = CostModel::default();
        let v = VertexId(0);
        let a1 = server.vertex_attrs(v, &stats, &model);
        let a2 = server.vertex_attrs(v, &stats, &model);
        assert_eq!(a1, a2);
        assert_eq!(a1, *g.vertex_attrs(v));
        let (hits, misses, _) = server.vertex_attr_cache_stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
    }
}
