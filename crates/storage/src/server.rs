//! One graph server (worker shard): owns a resident set of vertices and a
//! local neighbor cache. Rows are held once, in the shared graph; an
//! all-hot shard keeps only a residency bit per vertex id.
//!
//! Residency is dynamic: a live migration [`absorb`](GraphServer::absorb)s
//! vertex records onto a serving shard and [`retire`](GraphServer::retire)s
//! them from the source at the next topology publish, so both shards serve
//! throughout. The bits are atomic for exactly that reason: a read is one
//! load, with no lock.

use crate::cost::{AccessKind, AccessStats, CostModel};
use crate::neighbor_cache::{CacheOutcome, NeighborCache};
use crate::tier::{TierRead, TieredStore};
use aligraph_graph::{AttributedHeterogeneousGraph, Neighbor, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One vertex's movable shard-resident state: the unit a live migration
/// streams from source to destination.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexRecord {
    /// The vertex being moved.
    pub vertex: VertexId,
    /// Its out-adjacency.
    pub neighbors: Arc<[Neighbor]>,
}

/// What migration meters for one neighbor on the wire: the record's size
/// before it dropped its edge id (12 B of vertex, weight and packed
/// type/attr, not the 16-byte [`Neighbor`]). It is the pinned wire price:
/// `BENCH_rebalance.json`'s `topology.migration.bytes` is computed from it,
/// as the tier's budget is from its `CHARGED_NEIGHBOR_BYTES`.
const WIRE_NEIGHBOR_BYTES: u64 = 12;

impl VertexRecord {
    /// Payload size of this record on the wire (what migration meters).
    pub fn bytes(&self) -> u64 {
        4 + self.neighbors.len() as u64 * WIRE_NEIGHBOR_BYTES
    }
}

/// A worker shard of the simulated cluster.
///
/// The server keeps which vertices are resident on it and serves lookups
/// with local / cached / remote accounting; the rows themselves are read
/// from the shared graph.
#[derive(Debug)]
pub struct GraphServer {
    graph: Arc<AttributedHeterogeneousGraph>,
    /// Residency of an all-hot shard: bit `v % 64` of word `v / 64` is set
    /// while vertex `v` is resident here (unused when tiered).
    resident: Box<[AtomicU64]>,
    /// Neighbor cache for remote vertices (Algorithm 2).
    neighbor_cache: NeighborCache,
    /// Cold-tier binding. When present the server keeps **nothing** itself:
    /// residency and adjacency rows live in the shared
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
    /// Ingests the worker's shard: marks every roster vertex resident.
    /// `roster` is this worker's resident vertex list (computed once by the
    /// cluster). The rows stay in the shared graph, which is this
    /// reproduction's one copy of the storage.
    pub fn ingest(
        graph: Arc<AttributedHeterogeneousGraph>,
        roster: &[VertexId],
        neighbor_cache: NeighborCache,
    ) -> Self {
        let mut server = Self::empty(graph, neighbor_cache);
        for &v in roster {
            let (word, bit) = bit_of(v.0);
            *server.resident[word].get_mut() |= bit;
        }
        server
    }

    /// A shard with no resident vertices yet — the starting state of a
    /// split destination, populated by [`absorb`](Self::absorb).
    pub fn empty(graph: Arc<AttributedHeterogeneousGraph>, neighbor_cache: NeighborCache) -> Self {
        let words = graph.num_vertices().div_ceil(64);
        GraphServer {
            graph,
            resident: (0..words).map(|_| AtomicU64::new(0)).collect(),
            neighbor_cache,
            tier: None,
        }
    }

    /// A shard served out of a [`TieredStore`]: nothing is kept here —
    /// residency and rows live in the tier under its byte budget,
    /// which is what lets the cluster hold graphs 10–100× beyond the
    /// decoded-resident footprint. `shard` is this server's slot in the
    /// tier's residency tables (seeded by the tier build; a split
    /// destination starts empty and gains residency via
    /// [`absorb`](Self::absorb)).
    pub fn tiered(
        graph: Arc<AttributedHeterogeneousGraph>,
        store: Arc<TieredStore>,
        shard: usize,
        neighbor_cache: NeighborCache,
    ) -> Self {
        store.ensure_shard(shard);
        let mut server = Self::empty(graph, neighbor_cache);
        server.tier = Some(TierBinding { store, shard });
        server
    }

    /// Announces this shard's next sampling frontier to the cold tier
    /// ([`TieredStore::prefetch`]); a no-op returning 0 without one.
    pub fn prefetch(&self, frontier: &[VertexId]) -> usize {
        self.tier.as_ref().map_or(0, |tier| tier.store.prefetch(tier.shard, frontier))
    }

    /// Number of resident vertices.
    pub fn num_owned(&self) -> usize {
        if let Some(tier) = &self.tier {
            return tier.store.num_resident(tier.shard);
        }
        // ordering: a count for reports and tests, read between rebalances.
        self.resident.iter().map(|w| w.load(Ordering::Relaxed).count_ones() as usize).sum()
    }

    /// Whether a vertex is resident on this server (false beyond the graph).
    #[inline]
    pub fn is_local(&self, v: VertexId) -> bool {
        if let Some(tier) = &self.tier {
            return tier.store.is_resident(tier.shard, v.0);
        }
        let (word, bit) = bit_of(v.0);
        // ordering: Relaxed suffices; absorb() says why a reader routed
        // here through Residency sees the bit.
        self.resident.get(word).is_some_and(|w| w.load(Ordering::Relaxed) & bit != 0)
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
        if !self.is_local(v) {
            return None;
        }
        Some(VertexRecord { vertex: v, neighbors: self.graph.out_neighbors(v).into() })
    }

    /// Installs one migrated vertex record; after this the vertex serves
    /// as `Local` here. Idempotent. An all-hot shard sets the vertex's bit
    /// and keeps none of the record: its row is the shared graph's.
    pub fn absorb(&self, rec: VertexRecord) {
        if let Some(tier) = &self.tier {
            tier.store.absorb(tier.shard, rec);
            return;
        }
        let (word, bit) = bit_of(rec.vertex.0);
        // ordering: absorb-then-flip needs no more than Relaxed here. This
        // fetch_or is sequenced before the migrator's Residency::cutover,
        // a Release store; a reader that Acquire-loads the new owner
        // synchronizes with that store, so the fetch_or happens before the
        // reader's load of this word, which therefore sees the bit.
        self.resident[word].fetch_or(bit, Ordering::Relaxed);
    }

    /// Drops residency of the given vertices (the migration publish sweep:
    /// the destination has absorbed and cut over, readers on the new epoch
    /// route there, so the source copy can go).
    pub fn retire(&self, vertices: &[u32]) {
        if let Some(tier) = &self.tier {
            tier.store.retire(tier.shard, vertices);
            return;
        }
        for &v in vertices {
            let (word, bit) = bit_of(v);
            // ordering: a retire runs in the topology publish's sweep, whose
            // write lock orders it before every reader of the new epoch, or
            // in a failed rebalance's undo, after the flip back to the source.
            self.resident[word].fetch_and(!bit, Ordering::Relaxed);
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
        let kind = if self.is_local(v) {
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
}

/// The residency word of vertex id `v` and its bit in that word.
#[inline]
fn bit_of(v: u32) -> (usize, u64) {
    ((v / 64) as usize, 1 << (v % 64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor_cache::CacheStrategy;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_partition::{EdgeCutHash, Partitioner, WorkerId};

    fn setup(strategy: CacheStrategy) -> (Arc<AttributedHeterogeneousGraph>, GraphServer) {
        let g = Arc::new(TaobaoConfig::tiny().generate().unwrap());
        let part = EdgeCutHash.partition(&g, 4);
        let cache = NeighborCache::build_fresh(&g, &strategy, 2);
        let roster: Vec<VertexId> =
            g.vertices().filter(|&v| part.owner_of(v) == WorkerId(0)).collect();
        let server = GraphServer::ingest(g.clone(), &roster, cache);
        (g, server)
    }

    #[test]
    fn local_access_is_classified_local() {
        let (g, server) = setup(CacheStrategy::None);
        let stats = AccessStats::new();
        let model = CostModel::default();
        let local = g.vertices().find(|&v| server.is_local(v)).unwrap();
        assert_eq!(server.classify(local, 1, &stats, &model), AccessKind::Local);
        assert_eq!(stats.snapshot().local, 1);
    }

    #[test]
    fn remote_access_counted_without_cache() {
        let (g, server) = setup(CacheStrategy::None);
        let stats = AccessStats::new();
        let model = CostModel::default();
        let remote = g.vertices().find(|&v| !server.is_local(v)).unwrap();
        assert_eq!(server.classify(remote, 1, &stats, &model), AccessKind::Remote);
        assert_eq!(stats.snapshot().remote, 1);
    }

    #[test]
    fn cached_remote_access() {
        let (g, server) = setup(CacheStrategy::ImportanceBudget { k: 2, fraction: 1.0 });
        let stats = AccessStats::new();
        let model = CostModel::default();
        let remote = g.vertices().find(|&v| !server.is_local(v)).unwrap();
        assert_eq!(server.classify(remote, 2, &stats, &model), AccessKind::CachedRemote);
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
            let s = GraphServer::ingest(g.clone(), &roster, cache);
            total += s.num_owned();
        }
        assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn extract_absorb_retire_moves_residency() {
        let (g, server) = setup(CacheStrategy::None);
        let dest = GraphServer::empty(g.clone(), NeighborCache::empty(g.num_vertices()));
        let v = g.vertices().find(|&v| server.is_local(v) && !g.out_neighbors(v).is_empty());
        let v = v.unwrap();
        let rec = server.extract(v).unwrap();
        assert_eq!(&*rec.neighbors, g.out_neighbors(v));
        dest.absorb(rec.clone());
        // Both-sides window: source still serves until retirement.
        assert!(server.is_local(v));
        assert!(dest.is_local(v));
        assert_eq!(dest.extract(v), Some(rec));
        let owned = server.num_owned();
        server.retire(&[v.0]);
        assert!(!server.is_local(v));
        assert!(server.extract(v).is_none());
        assert_eq!(server.num_owned(), owned - 1, "retire clears only the named vertex");
        assert_eq!(dest.num_owned(), 1);
    }

    #[test]
    fn all_hot_extract_ships_the_graph_row() {
        let (g, server) = setup(CacheStrategy::None);
        let mut resident = 0;
        for v in g.vertices() {
            let Some(rec) = server.extract(v) else {
                assert!(!server.is_local(v), "a resident vertex {} extracts", v.0);
                continue;
            };
            assert!(server.is_local(v));
            resident += 1;
            assert_eq!(rec.vertex, v);
            assert_eq!(&*rec.neighbors, g.out_neighbors(v));
            assert_eq!(rec.bytes(), 4 + 12 * rec.neighbors.len() as u64, "vertex {}", v.0);
        }
        assert_eq!(resident, server.num_owned());
        let beyond = VertexId(g.num_vertices() as u32);
        assert!(!server.is_local(beyond));
        assert!(server.extract(beyond).is_none());
    }
}
