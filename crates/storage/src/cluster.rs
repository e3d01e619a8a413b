//! The simulated distributed store: partition → parallel ingest → serving.
//!
//! [`ClusterBuilder`] is the code path behind the paper's Figure 7 (graph
//! building time vs. number of workers): partitioning assigns every edge to
//! a worker (Algorithm 2 lines 1–4), then each worker's shard is ingested
//! from its own roster — its residency bits and its neighbor cache; the
//! rows stay in the one shared graph. Each shard times itself, so the
//! report exposes both the as-executed wall time and the distributed
//! makespan (slowest shard).
//!
//! Membership is *elastic*: the builder publishes an epoch-0
//! [`TopologyView`] (the logical partition) and routing goes through it —
//! [`primary_of`](Cluster::primary_of) reads the current epoch's owner
//! table, and [`rebalance`](Cluster::rebalance) (see [`crate::migrate`])
//! splits or merges shards while both sides keep serving. The *logical*
//! partition stays fixed for the life of the run (it drives sampling streams
//! and the training worker count); only physical residency moves.

use crate::cost::{AccessKind, AccessStats, CostModel, TierMeter};
use crate::neighbor_cache::{CacheStrategy, NeighborCache};
use crate::published::Published;
use crate::server::GraphServer;
use crate::tier::{TierConfig, TieredStore};
use crate::topology::{Residency, RouteError, TopologyView};
use aligraph_graph::{
    AttributedHeterogeneousGraph, DegreeTable, EdgeRoster, ImportanceTable, Neighbor, VertexId,
};
use aligraph_partition::{EdgeCutHash, Partition, Partitioner, WorkerId};
use aligraph_telemetry::{Registry, Stopwatch};
use parking_lot::RwLock;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Timing breakdown of a cluster build (Figure 7's measurement).
#[derive(Debug, Clone)]
pub struct ClusterBuildReport {
    /// Time spent in the partitioner.
    pub partition_time: Duration,
    /// Time computing the importance table (shared across shards).
    pub importance_time: Duration,
    /// Wall-clock time of the shard ingest (all shards, as executed on this
    /// machine — equals the makespan only when enough cores exist).
    pub ingest_time: Duration,
    /// Per-shard self-timed ingest durations.
    pub shard_times: Vec<Duration>,
    /// Number of workers used.
    pub num_workers: usize,
}

impl ClusterBuildReport {
    /// Total build time as executed.
    pub fn total(&self) -> Duration {
        self.partition_time + self.importance_time + self.ingest_time
    }

    /// The parallel-cluster makespan: the slowest shard's ingest. On a
    /// machine with >= `num_workers` cores this matches `ingest_time`; on
    /// smaller machines it is the modelled distributed ingest time a real
    /// cluster would see (each worker ingests only its own shard).
    pub fn ingest_makespan(&self) -> Duration {
        self.shard_times.iter().max().copied().unwrap_or_default()
    }

    /// Modelled total on a real cluster: partition + importance + makespan.
    pub fn modeled_parallel_total(&self) -> Duration {
        self.partition_time + self.importance_time + self.ingest_makespan()
    }
}

/// Fluent construction of a [`Cluster`].
///
/// ```
/// use aligraph_graph::generate::TaobaoConfig;
/// use aligraph_partition::{EdgeCutHash, WorkerId};
/// use aligraph_storage::{CacheStrategy, Cluster};
/// use aligraph_telemetry::Registry;
/// use std::sync::Arc;
///
/// let graph = Arc::new(TaobaoConfig::tiny().generate().unwrap());
/// let registry = Registry::new();
/// let (cluster, report) = Cluster::builder(Arc::clone(&graph))
///     .partitioner(&EdgeCutHash)
///     .shards(8)
///     .cache(CacheStrategy::ImportanceBudget { k: 2, fraction: 0.2 })
///     .registry(&registry)
///     .build();
/// assert_eq!((cluster.num_workers(), report.num_workers), (8, 8));
/// let v = graph.vertices().next().unwrap();
/// let from = cluster.primary_of(v).unwrap();
/// assert_eq!(cluster.neighbors_from(from, v, 1).unwrap(), graph.out_neighbors(v));
/// // Every edge record sits in exactly one worker's roster.
/// let rosters = (0..8).flat_map(|w| cluster.edge_rosters(WorkerId(w)).to_vec());
/// assert_eq!(rosters.map(|r| r.len()).sum::<usize>(), graph.num_edge_records());
/// ```
pub struct ClusterBuilder<'a> {
    graph: Arc<AttributedHeterogeneousGraph>,
    partitioner: &'a dyn Partitioner,
    shards: usize,
    strategy: CacheStrategy,
    max_hop: usize,
    cost: CostModel,
    registry: Option<&'a Registry>,
    tier: Option<TierConfig>,
}

impl std::fmt::Debug for ClusterBuilder<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterBuilder")
            .field("shards", &self.shards)
            .field("strategy", &self.strategy)
            .field("max_hop", &self.max_hop)
            .finish_non_exhaustive()
    }
}

impl<'a> ClusterBuilder<'a> {
    /// A builder with the defaults: hash edge-cut partitioner, one shard,
    /// no neighbor cache, hop depth 2, default cost model, no telemetry
    /// registry.
    pub fn new(graph: Arc<AttributedHeterogeneousGraph>) -> Self {
        ClusterBuilder {
            graph,
            partitioner: &EdgeCutHash,
            shards: 1,
            strategy: CacheStrategy::None,
            max_hop: 2,
            cost: CostModel::default(),
            registry: None,
            tier: None,
        }
    }

    /// The partitioning algorithm (default: hash edge-cut).
    pub fn partitioner(mut self, p: &'a dyn Partitioner) -> Self {
        self.partitioner = p;
        self
    }

    /// Initial shard (worker) count. Clamped to at least 1.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// The neighbor-cache strategy (default: none).
    pub fn cache(mut self, s: CacheStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Neighbor-cache depth bound `h` (the paper uses 2).
    pub fn max_hop(mut self, h: usize) -> Self {
        self.max_hop = h;
        self
    }

    /// The storage cost model.
    pub fn cost_model(mut self, c: CostModel) -> Self {
        self.cost = c;
        self
    }

    /// Publish access stats and the migration meter into `registry`
    /// (`storage.access{tier=...}`, `topology.migration.*`).
    pub fn registry(mut self, r: &'a Registry) -> Self {
        self.registry = Some(r);
        self
    }

    /// Meter shards' resident reads through a cold tier (compressed sealed
    /// segments under a resident-byte budget) instead of treating every row
    /// as decoded and hot. The tier is a cost model over the fully resident
    /// shared graph. See [`crate::tier`].
    pub fn tier_config(mut self, cfg: TierConfig) -> Self {
        self.tier = Some(cfg);
        self
    }

    /// Partitions the graph, ingests all shards, seeds the epoch-0 topology
    /// and returns the serving cluster plus the build timing report.
    pub fn build(self) -> (Cluster, ClusterBuildReport) {
        let p = self.shards.max(1);
        let graph = self.graph;

        let t0 = Stopwatch::start();
        let partition = Arc::new(self.partitioner.partition(&graph, p));
        let partition_time = t0.elapsed();

        // Importance is a pure function of the graph; computed once and
        // shared by every shard's cache construction. Static strategies that
        // do not consult importance skip the computation entirely.
        let t1 = Stopwatch::start();
        let importance = match &self.strategy {
            CacheStrategy::None | CacheStrategy::Random { .. } | CacheStrategy::Lru { .. } => {
                ImportanceTable { imp: vec![vec![0.0; graph.num_vertices()]; self.max_hop.max(1)] }
            }
            _ => {
                let degrees = DegreeTable::compute(&graph, self.max_hop.max(1));
                ImportanceTable::from_degrees(&degrees)
            }
        };
        let importance_time = t1.elapsed();

        let disabled;
        let registry = match self.registry {
            Some(r) => r,
            None => {
                disabled = Registry::disabled();
                &disabled
            }
        };

        let t2 = Stopwatch::start();
        // A tiered build first encodes every shard's rows into sealed
        // segments (the tier build); each shard is then ingested as an
        // all-hot one is and bound to its tier slot. The tier is a cost
        // model over the shared graph, which stays fully resident: its hot
        // set holds charges, not rows, the budget bounds those charges, and
        // the segments are an encoded copy on top of the graph (ROADMAP
        // item 25).
        let tier = self.tier.map(|cfg| {
            let owners: Vec<u32> = graph.vertices().map(|v| partition.owner_of(v).0).collect();
            TieredStore::build(Arc::clone(&graph), &owners, p, cfg, self.cost, registry)
        });
        let (servers, shard_times) =
            ingest_parallel(&graph, &partition, &importance, &self.strategy, p, tier.as_ref());
        let ingest_time = t2.elapsed();

        let report = ClusterBuildReport {
            partition_time,
            importance_time,
            ingest_time,
            shard_times,
            num_workers: p,
        };
        let view = TopologyView::identity(&partition, graph.num_vertices());
        let residency = Residency::from_owners(view.owners());
        let cluster = Cluster {
            graph,
            partition,
            servers: RwLock::new(servers),
            residency,
            topology: Published::new(view),
            stats: Arc::new(AccessStats::registered(registry, "storage")),
            cost: self.cost,
            migration_meter: TierMeter::registered(registry, "topology.migration"),
            tier,
            edge_rosters: OnceLock::new(),
        };
        (cluster, report)
    }
}

/// An in-process cluster of graph servers over one shared immutable graph.
#[derive(Debug)]
pub struct Cluster {
    graph: Arc<AttributedHeterogeneousGraph>,
    /// Logical placement, fixed for the run: drives sampling streams, the
    /// training worker count and seed purity. Physical residency moves via
    /// the topology instead.
    partition: Arc<Partition>,
    /// Serving shards, indexed by slot. Grows on split; merged-away slots
    /// stay allocated (empty) so indices remain stable.
    pub(crate) servers: RwLock<Vec<Arc<GraphServer>>>,
    /// Per-vertex physical residency — the migration cutover table.
    pub(crate) residency: Residency,
    /// Versioned membership; owns routing. Its writer serializes
    /// rebalances.
    pub(crate) topology: Published<TopologyView>,
    stats: Arc<AccessStats>,
    cost: CostModel,
    /// Accounts live-migration traffic (all of it crosses shards).
    pub(crate) migration_meter: TierMeter,
    /// The cold tier shared by every shard, when built tiered.
    pub(crate) tier: Option<Arc<TieredStore>>,
    /// `[worker][edge type]` rosters, built by the first `edge_rosters` call.
    edge_rosters: OnceLock<Vec<Arc<[EdgeRoster]>>>,
}

impl Cluster {
    /// Starts a fluent build. See [`ClusterBuilder`].
    pub fn builder<'a>(graph: Arc<AttributedHeterogeneousGraph>) -> ClusterBuilder<'a> {
        ClusterBuilder::new(graph)
    }

    /// The shared graph.
    pub fn graph(&self) -> &Arc<AttributedHeterogeneousGraph> {
        &self.graph
    }

    /// The logical partition (fixed for the run).
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Logical worker count — the number the training runtime and sampling
    /// streams are keyed to. Stable across rebalances; see
    /// [`num_shards`](Self::num_shards) for the physical slot count.
    pub fn num_workers(&self) -> usize {
        self.partition.num_workers()
    }

    /// Physical shard slots in the current topology (live + retired).
    pub fn num_shards(&self) -> usize {
        self.servers.read().len()
    }

    /// Worker `w`'s edges of each type under the logical partition
    /// ([`Partition::edge_rosters`]): every worker's, built on the first
    /// call and shared after it (the partition never changes). Empty for a
    /// worker the partition does not have.
    pub fn edge_rosters(&self, w: WorkerId) -> Arc<[EdgeRoster]> {
        let all = self.edge_rosters.get_or_init(|| {
            (0..self.partition.num_workers() as u32)
                .map(|w| self.partition.edge_rosters(&self.graph, WorkerId(w)).into())
                .collect()
        });
        all.get(w.index()).map_or_else(|| Arc::from([]), Arc::clone)
    }

    /// The versioned membership.
    pub fn topology(&self) -> &Published<TopologyView> {
        &self.topology
    }

    /// The physical residency as a plain owner table (vertex → shard slot),
    /// snapshotted at the current instant. This is what the training
    /// runtime feeds the parameter server's row re-home after a rebalance.
    pub fn residency_snapshot(&self) -> Vec<u32> {
        self.residency.snapshot()
    }

    /// A server shard (cheap `Arc` clone; panics on an out-of-range slot —
    /// use [`neighbors_from`](Self::neighbors_from) for fallible access).
    pub fn server(&self, w: WorkerId) -> Arc<GraphServer> {
        Arc::clone(&self.servers.read()[w.index()])
    }

    /// The vertex's primary shard at the current membership epoch.
    #[inline]
    pub fn primary_of(&self, v: VertexId) -> Result<WorkerId, RouteError> {
        self.topology.pin().primary_of(v)
    }

    /// Shared access statistics.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The migration meter (`topology.migration`).
    pub fn migration_meter(&self) -> &TierMeter {
        &self.migration_meter
    }

    /// Out-neighbors of `v` as observed from shard `from` (accounted). The
    /// common entry point for the sampling layer. Errors — instead of
    /// panicking — on an out-of-range shard slot or vertex.
    #[inline]
    pub fn neighbors_from(
        &self,
        from: WorkerId,
        v: VertexId,
        hop: usize,
    ) -> Result<&[Neighbor], RouteError> {
        self.neighbors_from_kind(from, v, hop).map(|(nbrs, _)| nbrs)
    }

    /// Like [`neighbors_from`](Self::neighbors_from) but also reporting how
    /// the access was served.
    pub fn neighbors_from_kind(
        &self,
        from: WorkerId,
        v: VertexId,
        hop: usize,
    ) -> Result<(&[Neighbor], AccessKind), RouteError> {
        if v.index() >= self.graph.num_vertices() {
            return Err(RouteError::VertexOutOfRange {
                vertex: v.0,
                num_vertices: self.graph.num_vertices(),
            });
        }
        let server = {
            let servers = self.servers.read();
            match servers.get(from.index()) {
                Some(s) => Arc::clone(s),
                None => {
                    return Err(RouteError::WorkerOutOfRange {
                        worker: from.0,
                        num_shards: servers.len(),
                    })
                }
            }
        };
        let kind = server.classify(v, hop, &self.stats, &self.cost);
        Ok((self.graph.out_neighbors(v), kind))
    }

    /// The shared cold tier, when this cluster was built tiered.
    pub fn tier(&self) -> Option<&Arc<TieredStore>> {
        self.tier.as_ref()
    }

    /// Announces the next frontier of the sampler on shard `from` to the
    /// cold tier so cold decodes overlap gather/aggregate. Only rows
    /// resident on `from` are staged: every other vertex is read through
    /// that shard's neighbor cache or remotely, never from the tier. A no-op
    /// on an untiered cluster or an out-of-range shard. Returns how many
    /// rows the prefetch pipeline issued.
    pub fn prefetch(&self, from: WorkerId, frontier: &[VertexId]) -> usize {
        if self.tier.is_none() {
            return 0;
        }
        let server = self.servers.read().get(from.index()).cloned();
        server.map_or(0, |s| s.prefetch(frontier))
    }

    /// Fraction of vertices statically cached per shard (identical across
    /// shards for the static strategies).
    pub fn cached_fraction(&self) -> f64 {
        self.servers.read().first().map(|s| s.neighbor_cache().cached_fraction()).unwrap_or(0.0)
    }
}

/// Ingests each worker's shard in turn, timing every shard in isolation.
///
/// Shards are independent (each touches only its own roster), so a real
/// cluster executes them concurrently and finishes in the *makespan* —
/// `max(shard_times)` — which [`ClusterBuildReport`] exposes. Running them
/// sequentially here keeps the per-shard timings exact regardless of how
/// many cores the simulator machine has (timing concurrent threads on a
/// smaller machine would fold scheduler wait into every shard). With a
/// `tier`, shard `w` is bound to its slot `w`.
fn ingest_parallel(
    graph: &Arc<AttributedHeterogeneousGraph>,
    partition: &Arc<Partition>,
    importance: &ImportanceTable,
    strategy: &CacheStrategy,
    p: usize,
    tier: Option<&Arc<TieredStore>>,
) -> (Vec<Arc<GraphServer>>, Vec<Duration>) {
    // One routing pass assigns each vertex to its shard's roster.
    let mut rosters: Vec<Vec<VertexId>> = vec![Vec::new(); p];
    for v in graph.vertices() {
        rosters[partition.owner_of(v).index()].push(v);
    }
    let mut servers = Vec::with_capacity(p);
    let mut shard_times = Vec::with_capacity(p);
    for (w, roster) in rosters.iter().enumerate() {
        let t0 = Stopwatch::start();
        let cache = NeighborCache::build(graph, importance, strategy);
        let slot = tier.map(|store| (Arc::clone(store), w));
        servers.push(Arc::new(GraphServer::ingest(Arc::clone(graph), roster, cache, slot)));
        shard_times.push(t0.elapsed());
    }
    (servers, shard_times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_partition::EdgeCutHash;

    fn tiny_cluster(p: usize, strategy: CacheStrategy) -> (Cluster, ClusterBuildReport) {
        let g = Arc::new(TaobaoConfig::tiny().generate().unwrap());
        Cluster::builder(g).partitioner(&EdgeCutHash).shards(p).cache(strategy).build()
    }

    #[test]
    fn build_produces_p_shards_covering_graph() {
        let (c, report) = tiny_cluster(4, CacheStrategy::None);
        assert_eq!(c.num_workers(), 4);
        assert_eq!(c.num_shards(), 4);
        assert_eq!(report.num_workers, 4);
        let owned: usize = (0..4).map(|w| c.server(WorkerId(w)).num_owned()).sum();
        assert_eq!(owned, c.graph().num_vertices());
    }

    #[test]
    fn routing_matches_partition() {
        let (c, _) = tiny_cluster(3, CacheStrategy::None);
        assert_eq!(c.topology().current_epoch(), 0);
        for v in c.graph().vertices() {
            let w = c.primary_of(v).unwrap();
            assert_eq!(w, c.partition().owner_of(v), "epoch 0 routes like the partition");
            assert!(c.server(w).is_local(v));
        }
    }

    #[test]
    fn local_vs_remote_accounting() {
        let (c, _) = tiny_cluster(2, CacheStrategy::None);
        let g = c.graph().clone();
        let v = g.vertices().next().unwrap();
        let home = c.primary_of(v).unwrap();
        let away = WorkerId(1 - home.0);
        c.neighbors_from(home, v, 1).unwrap();
        c.neighbors_from(away, v, 1).unwrap();
        let snap = c.stats().snapshot();
        assert_eq!(snap.local, 1);
        assert_eq!(snap.remote, 1);
    }

    #[test]
    fn out_of_range_requests_are_typed_errors_not_panics() {
        let (c, _) = tiny_cluster(2, CacheStrategy::None);
        let v = c.graph().vertices().next().unwrap();
        assert_eq!(
            c.neighbors_from(WorkerId(9), v, 1),
            Err(RouteError::WorkerOutOfRange { worker: 9, num_shards: 2 })
        );
        let beyond = VertexId(c.graph().num_vertices() as u32);
        assert!(matches!(
            c.neighbors_from(WorkerId(0), beyond, 1),
            Err(RouteError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn importance_cache_reduces_remote_traffic() {
        let (none, _) = tiny_cluster(4, CacheStrategy::None);
        let (cached, _) = tiny_cluster(4, CacheStrategy::ImportanceBudget { k: 2, fraction: 0.3 });
        // Same access pattern against both clusters: every vertex read from
        // worker 0.
        for v in none.graph().vertices() {
            none.neighbors_from(WorkerId(0), v, 1).unwrap();
            cached.neighbors_from(WorkerId(0), v, 1).unwrap();
        }
        let sn = none.stats().snapshot();
        let sc = cached.stats().snapshot();
        assert!(sc.remote < sn.remote, "cached {} vs none {}", sc.remote, sn.remote);
        assert!(sc.virtual_ns < sn.virtual_ns);
    }

    #[test]
    fn single_worker_everything_local() {
        let (c, _) = tiny_cluster(1, CacheStrategy::None);
        for v in c.graph().vertices().take(100) {
            let (_, kind) = c.neighbors_from_kind(WorkerId(0), v, 1).unwrap();
            assert_eq!(kind, AccessKind::Local);
        }
        assert_eq!(c.stats().snapshot().remote, 0);
    }

    #[test]
    fn registry_build_publishes_access_series() {
        let g = Arc::new(TaobaoConfig::tiny().generate().unwrap());
        let registry = Registry::new();
        let (c, _) = Cluster::builder(g)
            .partitioner(&EdgeCutHash)
            .shards(2)
            .cache(CacheStrategy::ImportanceBudget { k: 2, fraction: 1.0 })
            .registry(&registry)
            .build();
        let v = c.graph().vertices().next().unwrap();
        let home = c.primary_of(v).unwrap();
        c.neighbors_from(home, v, 1).unwrap();
        c.neighbors_from(WorkerId(1 - home.0), v, 1).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("storage.access", &[("tier", "local")]), 1);
        // Fully-budgeted cache serves the non-local read.
        assert_eq!(snap.counter("storage.access", &[("tier", "cached_remote")]), 1);
        assert_eq!(snap.counter("storage.neighbor_cache", &[("event", "hit")]), 1);
        assert!(snap.counter("storage.access.virtual_ns", &[]) > 0);
    }

    #[test]
    fn report_total_sums_phases() {
        let (_, report) = tiny_cluster(2, CacheStrategy::None);
        assert_eq!(
            report.total(),
            report.partition_time + report.importance_time + report.ingest_time
        );
    }
}
