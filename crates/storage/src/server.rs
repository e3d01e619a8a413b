//! One graph server (worker shard): owns a resident set of vertices and a
//! local neighbor cache. Rows are held once, in the shared graph; every
//! shard, tiered or not, keeps only a residency bit per vertex id.
//!
//! Residency is dynamic: a live migration [`absorb`](GraphServer::absorb)s
//! vertex records onto a serving shard and [`retire`](GraphServer::retire)s
//! them from the source at the next topology publish, so both shards serve
//! throughout. The bits are atomic for exactly that reason: a read is one
//! load, with no lock.

use crate::cost::{AccessKind, AccessStats, CostModel};
use crate::neighbor_cache::{CacheOutcome, NeighborCache};
use crate::tier::{TierRead, TieredStore};
use aligraph_graph::{AttributedHeterogeneousGraph, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One vertex's movable shard-resident state, the unit a live migration
/// streams: the vertex and the degree of its row (the shared graph's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexRecord {
    /// The vertex being moved.
    pub vertex: VertexId,
    /// Its out-degree.
    pub degree: u32,
}

/// The modelled wire price of one neighbor of the row a record stands for:
/// the record's size before it dropped its edge id (12 B of vertex, weight
/// and packed type/attr, not the 16-byte `Neighbor`). It is pinned:
/// `BENCH_rebalance.json`'s `topology.migration.bytes` is computed from it,
/// as the tier's budget is from its `CHARGED_NEIGHBOR_BYTES`.
const WIRE_NEIGHBOR_BYTES: u64 = 12;

impl VertexRecord {
    /// Payload size of this record on the wire (what migration meters).
    pub fn bytes(&self) -> u64 {
        4 + u64::from(self.degree) * WIRE_NEIGHBOR_BYTES
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
    /// Residency: bit `v % 64` of word `v / 64` is set while vertex `v` is
    /// resident here.
    resident: Box<[AtomicU64]>,
    /// Neighbor cache for remote vertices (Algorithm 2).
    neighbor_cache: NeighborCache,
    /// Cold-tier binding: this shard's slot in a shared [`TieredStore`],
    /// which keeps the slot's hot set, prefetch stage and feature
    /// generations, and meters a resident read whose row is cold as
    /// [`AccessKind::Cold`]: a cost model over the fully resident shared
    /// graph, whose hot set holds charges, not rows.
    tier: Option<TierBinding>,
}

#[derive(Debug)]
struct TierBinding {
    store: Arc<TieredStore>,
    /// This server's slot in the tier's per-shard tables.
    shard: usize,
}

impl GraphServer {
    /// Ingests the worker's shard: marks every roster vertex resident.
    /// `roster` is this worker's resident vertex list (computed once by the
    /// cluster; empty for a split destination, which fills by
    /// [`absorb`](Self::absorb)). The rows stay in the shared graph, which
    /// is this reproduction's one copy of the storage. `tier` binds the
    /// shard to its slot in a cold tier: the tier meters its resident reads
    /// and keeps the slot's hot set.
    pub fn ingest(
        graph: Arc<AttributedHeterogeneousGraph>,
        roster: &[VertexId],
        neighbor_cache: NeighborCache,
        tier: Option<(Arc<TieredStore>, usize)>,
    ) -> Self {
        let mut resident: Box<[AtomicU64]> =
            (0..graph.num_vertices().div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        for &v in roster {
            let (word, bit) = bit_of(v.0);
            *resident[word].get_mut() |= bit;
        }
        let tier = tier.map(|(store, shard)| {
            store.ensure_shard(shard);
            TierBinding { store, shard }
        });
        GraphServer { graph, resident, neighbor_cache, tier }
    }

    /// Announces this shard's next sampling frontier to the cold tier
    /// ([`TieredStore::prefetch`]): only the vertices resident here, since
    /// this shard reads every other one through its neighbor cache or
    /// remotely. A no-op returning 0 without a tier.
    pub fn prefetch(&self, frontier: &[VertexId]) -> usize {
        let Some(tier) = &self.tier else { return 0 };
        let local: Vec<VertexId> = frontier.iter().copied().filter(|&v| self.is_local(v)).collect();
        tier.store.prefetch(tier.shard, &local)
    }

    /// Number of resident vertices.
    pub fn num_owned(&self) -> usize {
        // ordering: a count for reports and tests, read between rebalances.
        self.resident.iter().map(|w| w.load(Ordering::Relaxed).count_ones() as usize).sum()
    }

    /// Whether a vertex is resident on this server (false beyond the graph).
    #[inline]
    pub fn is_local(&self, v: VertexId) -> bool {
        let (word, bit) = bit_of(v.0);
        // ordering: Relaxed suffices; absorb() says why a reader routed
        // here through Residency sees the bit.
        self.resident.get(word).is_some_and(|w| w.load(Ordering::Relaxed) & bit != 0)
    }

    /// The neighbor cache (exposed for experiment reporting and migration).
    pub fn neighbor_cache(&self) -> &NeighborCache {
        &self.neighbor_cache
    }

    /// The record of one resident vertex (`None` if not resident here),
    /// from the graph: a tiered source reads nothing through its tier slot.
    /// The source keeps serving the vertex until [`retire`](Self::retire) —
    /// live migration's both-sides-serve window.
    pub fn extract(&self, v: VertexId) -> Option<VertexRecord> {
        self.is_local(v)
            .then(|| VertexRecord { vertex: v, degree: self.graph.out_degree(v) as u32 })
    }

    /// Installs one migrated vertex record; after this the vertex serves
    /// as `Local` here. Idempotent. The shard sets the vertex's bit and
    /// keeps none of the record: its row is the shared graph's. A tiered
    /// shard first offers the record's degree to its tier slot, which
    /// charges the row hot when the admission rule takes it.
    pub fn absorb(&self, rec: VertexRecord) {
        let (word, bit) = bit_of(rec.vertex.0);
        if let Some(tier) = &self.tier {
            tier.store.absorb(tier.shard, rec);
        }
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
        for &v in vertices {
            let (word, bit) = bit_of(v);
            // ordering: a retire runs in the topology publish's sweep, whose
            // write lock orders it before every reader of the new epoch, or
            // in a failed rebalance's undo, after the flip back to the source.
            self.resident[word].fetch_and(!bit, Ordering::Relaxed);
        }
    }

    /// Classifies (and meters) one neighbor access from this shard without
    /// touching the data: a vertex resident elsewhere is cached or remote
    /// per the neighbor cache; a resident one is `Local`, unless this shard
    /// is tiered and its tier read is cold. The cluster serves the actual
    /// slice from the shared graph.
    pub fn classify(
        &self,
        v: VertexId,
        hop: usize,
        stats: &AccessStats,
        model: &CostModel,
    ) -> AccessKind {
        let kind = if !self.is_local(v) {
            match self.neighbor_cache.lookup(v, hop, stats, model) {
                CacheOutcome::Hit => AccessKind::CachedRemote,
                CacheOutcome::Miss | CacheOutcome::MissEvicted => AccessKind::Remote,
            }
        } else if let Some(tier) = &self.tier {
            // ordering: the residency bit is read outside the tier slot's
            // lock, which the tier read takes. A retire can land between
            // the two only in a topology publish's sweep, inside
            // migration's window where both shards serve the vertex, so
            // the read is served here as it would have been a moment
            // earlier: the race the all-hot path already accepts.
            match tier.store.classify(tier.shard, v) {
                // The tier read decides hot vs cold (and promotes the row
                // if the admission rule takes it).
                Some(TierRead::Hot) | None => AccessKind::Local,
                Some(TierRead::Prefetched) => {
                    // Overlapped decode: counts as a cold op, costs only
                    // the prefetch-hit latency on the blocking clock.
                    stats.record_overlapped_cold(model);
                    return AccessKind::Cold;
                }
                Some(TierRead::Cold | TierRead::Materialized) => AccessKind::Cold,
            }
        } else {
            AccessKind::Local
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
        let server = GraphServer::ingest(g.clone(), &roster, cache, None);
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
    fn a_tiered_shard_classifies_a_read_resident_elsewhere_as_an_all_hot_one() {
        use crate::tier::TierConfig;
        use aligraph_telemetry::Registry;
        let g = Arc::new(TaobaoConfig::tiny().generate().unwrap());
        let part = EdgeCutHash.partition(&g, 4);
        let owners: Vec<u32> = g.vertices().map(|v| part.owner_of(v).0).collect();
        let registry = Registry::new();
        let store = TieredStore::build(
            Arc::clone(&g),
            &owners,
            4,
            TierConfig::with_budget(Some(3_000)),
            CostModel::default(),
            &registry,
        );
        let roster: Vec<VertexId> = g.vertices().filter(|v| owners[v.index()] == 0).collect();
        let strategy = CacheStrategy::ImportanceBudget { k: 2, fraction: 0.3 };
        let shard = |tier| {
            let cache = NeighborCache::build_fresh(&g, &strategy, 2);
            GraphServer::ingest(Arc::clone(&g), &roster, cache, tier)
        };
        let (all_hot, tiered) = (shard(None), shard(Some((Arc::clone(&store), 0))));
        let (hot_stats, tiered_stats) = (AccessStats::new(), AccessStats::new());
        let model = CostModel::default();
        let tier_counters = || {
            let snap = registry.snapshot();
            (snap.counter_total("tier.reads"), snap.counter_total("tier.admit"))
        };
        let mut kinds = Vec::new();
        for v in g.vertices().filter(|&v| !all_hot.is_local(v)) {
            let kind = tiered.classify(v, 2, &tiered_stats, &model);
            assert_eq!(kind, all_hot.classify(v, 2, &hot_stats, &model), "{v:?}");
            kinds.push(kind);
        }
        assert!(kinds.contains(&AccessKind::Remote) && kinds.contains(&AccessKind::CachedRemote));
        assert_eq!(tiered_stats.snapshot(), hot_stats.snapshot());
        assert_eq!(tier_counters(), (0, 0), "a read resident elsewhere never reaches the tier");
        // A resident read is the tier's: one read and, unless hot, one
        // admission decision.
        let local = roster.iter().copied().find(|&v| !store.is_hot_on(0, v)).unwrap();
        assert_eq!(tiered.classify(local, 1, &tiered_stats, &model), AccessKind::Cold);
        assert_eq!(tier_counters(), (1, 1));
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
            let s = GraphServer::ingest(g.clone(), &roster, cache, None);
            total += s.num_owned();
        }
        assert_eq!(total, g.num_vertices());
    }

    #[test]
    fn extract_absorb_retire_moves_residency() {
        let (g, server) = setup(CacheStrategy::None);
        let dest =
            GraphServer::ingest(g.clone(), &[], NeighborCache::empty(g.num_vertices()), None);
        let v = g.vertices().find(|&v| server.is_local(v) && !g.out_neighbors(v).is_empty());
        let v = v.unwrap();
        let rec = server.extract(v).unwrap();
        assert_eq!(rec.degree as usize, g.out_degree(v));
        dest.absorb(rec);
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
        use crate::tier::TierConfig;
        use aligraph_telemetry::Registry;
        // An all-hot shard and a tiered shard of the same roster ship the
        // same records: the vertex and the degree of its graph row.
        let (g, all_hot) = setup(CacheStrategy::None);
        let owners: Vec<u32> = g.vertices().map(|v| u32::from(!all_hot.is_local(v))).collect();
        let store = TieredStore::build(
            Arc::clone(&g),
            &owners,
            2,
            TierConfig::with_budget(Some(3_000)),
            CostModel::default(),
            &Registry::disabled(),
        );
        let roster: Vec<VertexId> = g.vertices().filter(|&v| all_hot.is_local(v)).collect();
        let cache = NeighborCache::empty(g.num_vertices());
        let tiered = GraphServer::ingest(Arc::clone(&g), &roster, cache, Some((store, 0)));
        for server in [&all_hot, &tiered] {
            let mut resident = 0;
            for v in g.vertices() {
                let Some(rec) = server.extract(v) else {
                    assert!(!server.is_local(v), "a resident vertex {} extracts", v.0);
                    continue;
                };
                assert!(server.is_local(v));
                resident += 1;
                assert_eq!((rec.vertex, rec.degree as usize), (v, g.out_degree(v)));
                assert_eq!(rec.bytes(), 4 + 12 * g.out_degree(v) as u64, "vertex {}", v.0);
            }
            assert_eq!(resident, server.num_owned());
            let beyond = VertexId(g.num_vertices() as u32);
            assert!(!server.is_local(beyond));
            assert!(server.extract(beyond).is_none());
        }
    }
}
