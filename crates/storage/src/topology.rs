//! Versioned cluster membership: monotonic topology epochs that own routing.
//!
//! The cluster's membership used to be fixed at build time — `route(v)`
//! consulted the partition and `num_workers()` never changed. Elastic
//! membership replaces that with a published [`TopologyView`]: an immutable,
//! sealed snapshot of *physical residency* (which shard currently holds each
//! vertex, which shard slots are live, and the replication factor), versioned
//! under strictly monotonic epochs exactly like the streaming layer's
//! `EpochManager`. Readers pin a view for the length of a request, so one
//! request routes against one membership version no matter how many
//! rebalances land meanwhile.
//!
//! The *logical* placement — the training partition that drives sampling
//! streams and seed purity — stays fixed per run; only physical residency
//! moves. That separation is what lets a mid-training shard split preserve
//! the bit-exact trajectory: the math never sees the topology, only the comm
//! accounting does.
//!
//! [`Residency`] is the per-vertex cutover primitive underneath a live
//! migration: one atomic slot per vertex, flipped exactly once per move
//! (absorb at the destination first, then flip, then retire the source copy
//! at the next epoch publish). The mini-loom `topology` target checks both
//! the sealed publish and the per-vertex flip against a sequential shadow
//! model.

use crate::seal::Fnv1a;
use aligraph_graph::VertexId;
use aligraph_partition::{Partition, WorkerId};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// A routing request failed before any data was touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The asking worker index is not a shard slot of this topology.
    WorkerOutOfRange {
        /// The out-of-range worker index.
        worker: u32,
        /// Shard slots in the topology.
        num_shards: usize,
    },
    /// The vertex id is outside the graph this topology covers.
    VertexOutOfRange {
        /// The out-of-range vertex id.
        vertex: u32,
        /// Vertices the topology covers.
        num_vertices: usize,
    },
    /// Every replica of the vertex is on a retired (non-live) shard.
    NoLiveReplica {
        /// The unroutable vertex.
        vertex: u32,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::WorkerOutOfRange { worker, num_shards } => {
                write!(f, "worker {worker} out of range: topology has {num_shards} shard slots")
            }
            RouteError::VertexOutOfRange { vertex, num_vertices } => {
                write!(f, "vertex {vertex} out of range: topology covers {num_vertices} vertices")
            }
            RouteError::NoLiveReplica { vertex } => {
                write!(f, "vertex {vertex} has no live replica")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// A point-in-time copy of per-shard load (operations routed so far).
/// Routing treats it as an opaque snapshot: [`TopologyView::route`] is a
/// pure function of `(vertex, view, loads)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLoads {
    /// Cumulative routed operations per shard slot.
    pub ops: Vec<u64>,
}

impl ShardLoads {
    /// A zeroed snapshot for `n` shard slots.
    pub fn zeroed(n: usize) -> Self {
        ShardLoads { ops: vec![0; n] }
    }

    fn of(&self, shard: u32) -> u64 {
        self.ops.get(shard as usize).copied().unwrap_or(0)
    }
}

/// The replicas able to serve one vertex, ranked least-loaded first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSet {
    /// The vertex's primary (owning) shard — possibly retired, in which
    /// case it is absent from `ranked` and serving it is a degraded route.
    pub primary: WorkerId,
    /// All live replicas, ordered by `(load, shard id)` ascending. Never
    /// empty; contains `primary` exactly when the primary slot is live.
    pub ranked: Vec<WorkerId>,
}

impl ReplicaSet {
    /// The replica a load-aware router should hit first.
    pub fn preferred(&self) -> WorkerId {
        // invariant: `ranked` is constructed non-empty (it always contains
        // the primary) by TopologyView::route.
        *self.ranked.first().expect("replica set is never empty")
    }

    /// Whether the preferred replica is the primary.
    pub fn prefers_primary(&self) -> bool {
        self.preferred() == self.primary
    }
}

/// One immutable membership version: per-vertex primary shard, per-slot
/// liveness, replication factor — sealed under a fingerprint so a torn
/// publish (fields from two versions) is detectable by exactly the check
/// the mini-loom target runs.
#[derive(Debug, Clone)]
pub struct TopologyView {
    epoch: u64,
    /// Vertex id → primary shard slot.
    primary: Arc<Vec<u32>>,
    /// Shard slot → live? Retired (merged-away) slots stay allocated but
    /// dead, so slot indices are stable across the topology's whole life.
    live: Arc<Vec<bool>>,
    replication: usize,
    fingerprint: u64,
}

impl TopologyView {
    /// Seals a view from its parts.
    pub fn new(
        epoch: u64,
        primary: Arc<Vec<u32>>,
        live: Arc<Vec<bool>>,
        replication: usize,
    ) -> Self {
        let fingerprint = Self::seal(epoch, &primary, &live, replication);
        TopologyView { epoch, primary, live, replication, fingerprint }
    }

    /// Epoch 0: physical residency equals the logical partition, every slot
    /// live.
    pub fn identity(partition: &Partition, num_vertices: usize, replication: usize) -> Self {
        let primary: Vec<u32> =
            (0..num_vertices as u32).map(|v| partition.owner_of(VertexId(v)).0).collect();
        let live = vec![true; partition.num_workers.max(1)];
        Self::new(0, Arc::new(primary), Arc::new(live), replication.max(1))
    }

    fn seal(epoch: u64, primary: &[u32], live: &[bool], replication: usize) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(&epoch.to_le_bytes()).bytes(&(replication as u64).to_le_bytes());
        for &p in primary {
            h.bytes(&p.to_le_bytes());
        }
        for &l in live {
            h.bytes(&[l as u8]);
        }
        h.finish()
    }

    /// The consistency check a reader can run against a pinned view: the
    /// seal must match the fields. A publish that lands field-by-field
    /// (instead of swapping one sealed value) fails this mid-flight.
    pub fn verify(&self) -> Result<(), String> {
        if Self::seal(self.epoch, &self.primary, &self.live, self.replication) != self.fingerprint {
            return Err(format!(
                "torn topology: epoch {} fields do not match their seal",
                self.epoch
            ));
        }
        Ok(())
    }

    /// This view's membership epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sealed fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Replication factor (1 = primaries only).
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Total shard slots (live + retired).
    pub fn num_shards(&self) -> usize {
        self.live.len()
    }

    /// Live shard slots.
    pub fn num_live(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// Whether a slot is live.
    pub fn is_live(&self, shard: u32) -> bool {
        self.live.get(shard as usize).copied().unwrap_or(false)
    }

    /// Vertices covered.
    pub fn num_vertices(&self) -> usize {
        self.primary.len()
    }

    /// The per-vertex primary table (shared with streaming ingest routing).
    pub fn owners(&self) -> &Arc<Vec<u32>> {
        &self.primary
    }

    /// The vertex's primary shard at this epoch.
    pub fn primary_of(&self, v: VertexId) -> Result<WorkerId, RouteError> {
        match self.primary.get(v.index()) {
            Some(&p) => Ok(WorkerId(p)),
            None => {
                Err(RouteError::VertexOutOfRange { vertex: v.0, num_vertices: self.primary.len() })
            }
        }
    }

    /// All live replicas of `v`: the primary plus the next
    /// `replication - 1` live slots in wrapping slot order. A pure function
    /// of `(v, epoch)` — replica placement never depends on load.
    pub fn replicas_of(&self, v: VertexId) -> Result<Vec<WorkerId>, RouteError> {
        let p = self.primary_of(v)?;
        let n = self.live.len();
        let mut out = Vec::with_capacity(self.replication);
        for step in 0..n {
            let slot = ((p.0 as usize + step) % n) as u32;
            if self.is_live(slot) {
                out.push(WorkerId(slot));
                if out.len() == self.replication {
                    break;
                }
            }
        }
        if out.is_empty() {
            return Err(RouteError::NoLiveReplica { vertex: v.0 });
        }
        Ok(out)
    }

    /// Load-aware routing: the replica set of `v` ranked by
    /// `(load, shard id)` ascending under the given load snapshot. Pure in
    /// `(v, epoch, loads)` — two calls with identical inputs rank
    /// identically.
    pub fn route(&self, v: VertexId, loads: &ShardLoads) -> Result<ReplicaSet, RouteError> {
        let primary = self.primary_of(v)?;
        let mut ranked = self.replicas_of(v)?;
        ranked.sort_by_key(|w| (loads.of(w.0), w.0));
        Ok(ReplicaSet { primary, ranked })
    }

    /// The successor view: same coverage, new residency/liveness, next
    /// epoch.
    pub fn advance(&self, primary: Arc<Vec<u32>>, live: Arc<Vec<bool>>) -> TopologyView {
        Self::new(self.epoch + 1, primary, live, self.replication)
    }
}

/// A reader's hold on one membership epoch.
#[derive(Debug, Clone)]
pub struct TopologyPin {
    view: Arc<TopologyView>,
}

impl TopologyPin {
    /// The pinned epoch (never changes under the pin).
    pub fn epoch(&self) -> u64 {
        self.view.epoch()
    }

    /// The pinned view.
    pub fn view(&self) -> &Arc<TopologyView> {
        &self.view
    }
}

/// Publishes monotonic membership epochs and hands out pins — the same
/// discipline as `streaming::EpochManager`: one pointer swap per publish,
/// the epoch counter and the view travelling together through the lock.
#[derive(Debug)]
pub struct Topology {
    current: RwLock<Arc<TopologyView>>,
    epoch: AtomicU64,
}

impl Topology {
    /// A topology starting at `view`'s epoch.
    pub fn new(view: TopologyView) -> Self {
        let epoch = view.epoch();
        Topology { current: RwLock::new(Arc::new(view)), epoch: AtomicU64::new(epoch) }
    }

    /// The latest published epoch (monotonic).
    pub fn current_epoch(&self) -> u64 {
        // ordering: Acquire pairs with publish_with()'s Release store, so a
        // reader that sees epoch E also sees E's sealed view through the
        // lock.
        self.epoch.load(Ordering::Acquire)
    }

    /// Pins the current epoch for a request.
    pub fn pin(&self) -> TopologyPin {
        TopologyPin { view: Arc::clone(&self.current.read()) }
    }

    /// The current view (cheap Arc clone).
    pub fn view(&self) -> Arc<TopologyView> {
        Arc::clone(&self.current.read())
    }

    /// Publishes `next` as the new membership epoch. `sweep` runs under the
    /// write lock *after* the epoch advances — source-shard retirement goes
    /// here, so no reader can route by the new epoch while the old copies
    /// are mid-retirement, and no reader on the old epoch loses its copy
    /// (pins hold the old view alive).
    pub fn publish_with<F: FnOnce(&Arc<TopologyView>)>(&self, next: Arc<TopologyView>, sweep: F) {
        let mut cur = self.current.write();
        debug_assert!(next.epoch() > cur.epoch(), "membership epochs must be strictly increasing");
        // ordering: Release pairs with current_epoch()'s Acquire; pins
        // additionally synchronize through the RwLock.
        self.epoch.store(next.epoch(), Ordering::Release);
        *cur = Arc::clone(&next);
        sweep(&next);
    }
}

/// The per-vertex cutover primitive of a live migration: which shard
/// currently holds each vertex's data, flipped atomically per vertex.
///
/// Mid-migration a vertex is present on *both* shards (absorbed at the
/// destination before the flip; the source copy retires at the next epoch
/// publish), so whichever side a racing reader observes serves correctly —
/// the flip only moves the accounting, never the data. That is what makes
/// the cutover atomic per vertex with a single store.
#[derive(Debug)]
pub struct Residency {
    shards: Vec<AtomicU32>,
}

impl Residency {
    /// Residency seeded from a per-vertex owner table.
    pub fn from_owners(owners: &[u32]) -> Self {
        Residency { shards: owners.iter().map(|&o| AtomicU32::new(o)).collect() }
    }

    /// Vertices covered.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard currently holding `v`.
    pub fn of(&self, v: VertexId) -> u32 {
        // ordering: Acquire pairs with cutover()'s Release — a reader that
        // sees the new shard also sees the absorb that preceded the flip.
        self.shards[v.index()].load(Ordering::Acquire)
    }

    /// Atomically moves `v` to `to`. The caller must have absorbed the
    /// vertex's data at `to` first — the flip is the commit point.
    pub fn cutover(&self, v: VertexId, to: u32) {
        // ordering: Release publishes the destination's absorbed state to
        // any reader that Acquire-loads the new shard id.
        self.shards[v.index()].store(to, Ordering::Release);
    }

    /// A plain copy of the whole table (the next epoch's primary map).
    pub fn snapshot(&self) -> Vec<u32> {
        // ordering: Acquire per slot, same pairing as of(); the snapshot is
        // taken quiescently (between migrations) by the publisher.
        self.shards.iter().map(|s| s.load(Ordering::Acquire)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_partition::{EdgeCutHash, Partitioner};

    fn tiny_view(workers: usize, replication: usize) -> TopologyView {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let p = EdgeCutHash.partition(&g, workers);
        TopologyView::identity(&p, g.num_vertices(), replication)
    }

    #[test]
    fn identity_view_routes_like_the_partition() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let p = EdgeCutHash.partition(&g, 3);
        let view = TopologyView::identity(&p, g.num_vertices(), 1);
        assert_eq!(view.epoch(), 0);
        assert_eq!(view.num_shards(), 3);
        view.verify().unwrap();
        for v in g.vertices() {
            assert_eq!(view.primary_of(v).unwrap(), p.owner_of(v));
        }
    }

    #[test]
    fn every_vertex_has_exactly_one_primary_per_epoch() {
        let view = tiny_view(4, 2);
        for v in 0..view.num_vertices() as u32 {
            let p = view.primary_of(VertexId(v)).unwrap();
            assert!(p.0 < 4);
            let reps = view.replicas_of(VertexId(v)).unwrap();
            assert_eq!(reps[0], p, "primary leads the replica list");
            assert_eq!(reps.len(), 2);
            assert_ne!(reps[0], reps[1]);
        }
    }

    #[test]
    fn route_is_pure_in_vertex_epoch_and_loads() {
        let view = tiny_view(4, 3);
        let loads = ShardLoads { ops: vec![9, 0, 5, 2] };
        for v in 0..view.num_vertices() as u32 {
            let a = view.route(VertexId(v), &loads).unwrap();
            let b = view.route(VertexId(v), &loads).unwrap();
            assert_eq!(a, b, "same (v, epoch, loads) must rank identically");
            // Ranked by (load, id): strictly non-decreasing load.
            for pair in a.ranked.windows(2) {
                let (x, y) = (pair[0].0 as usize, pair[1].0 as usize);
                assert!(
                    (loads.ops[x], x) <= (loads.ops[y], y),
                    "replica ranking must follow (load, id)"
                );
            }
        }
    }

    #[test]
    fn load_snapshot_picks_least_loaded_replica() {
        let view = tiny_view(2, 2);
        let v = VertexId(0);
        let p = view.primary_of(v).unwrap();
        let other = WorkerId(1 - p.0);
        let mut loads = ShardLoads::zeroed(2);
        loads.ops[p.index()] = 100;
        let r = view.route(v, &loads).unwrap();
        assert_eq!(r.preferred(), other);
        assert!(!r.prefers_primary());
        assert_eq!(r.primary, p);
    }

    #[test]
    fn replicas_skip_dead_slots() {
        let primary = Arc::new(vec![0u32, 1, 2]);
        let live = Arc::new(vec![true, false, true]);
        let view = TopologyView::new(5, primary, live, 2);
        let reps = view.replicas_of(VertexId(1)).unwrap();
        // Slot 1 is dead: its vertices' primaries would have been moved off
        // it before retirement in practice, but the replica walk must still
        // only return live slots.
        assert!(reps.iter().all(|w| view.is_live(w.0)));
    }

    #[test]
    fn no_live_replica_is_an_error_not_a_panic() {
        let view = TopologyView::new(1, Arc::new(vec![0]), Arc::new(vec![false]), 2);
        assert_eq!(view.replicas_of(VertexId(0)), Err(RouteError::NoLiveReplica { vertex: 0 }));
    }

    #[test]
    fn out_of_range_vertex_is_a_typed_error() {
        let view = tiny_view(2, 1);
        let beyond = VertexId(view.num_vertices() as u32);
        assert!(matches!(view.primary_of(beyond), Err(RouteError::VertexOutOfRange { .. })));
    }

    #[test]
    fn epochs_are_strictly_monotonic_across_publishes() {
        let topo = Topology::new(tiny_view(2, 1));
        let mut seen = vec![topo.current_epoch()];
        for _ in 0..5 {
            let cur = topo.view();
            let next = cur.advance(
                Arc::new(cur.owners().as_ref().clone()),
                Arc::new((0..cur.num_shards()).map(|s| cur.is_live(s as u32)).collect()),
            );
            topo.publish_with(Arc::new(next), |_| {});
            let e = topo.current_epoch();
            assert!(e > *seen.last().unwrap(), "epochs must strictly increase");
            seen.push(e);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn pins_keep_their_epoch_across_publishes() {
        let topo = Topology::new(tiny_view(2, 1));
        let pin0 = topo.pin();
        let cur = topo.view();
        let next = cur.advance(Arc::new(cur.owners().as_ref().clone()), Arc::new(vec![true, true]));
        let mut swept_at = None;
        topo.publish_with(Arc::new(next), |v| swept_at = Some(v.epoch()));
        assert_eq!(swept_at, Some(1));
        assert_eq!(pin0.epoch(), 0);
        assert_eq!(topo.pin().epoch(), 1);
        pin0.view().verify().unwrap();
    }

    #[test]
    fn torn_view_fails_verification() {
        let view = tiny_view(2, 1);
        let mut torn = view.clone();
        torn.epoch += 1; // header from the next version over the old seal
        assert!(torn.verify().is_err());
        view.verify().unwrap();
    }

    #[test]
    fn residency_cutover_is_visible_and_snapshottable() {
        let r = Residency::from_owners(&[0, 0, 1, 1]);
        assert_eq!(r.len(), 4);
        assert_eq!(r.of(VertexId(1)), 0);
        r.cutover(VertexId(1), 2);
        assert_eq!(r.of(VertexId(1)), 2);
        assert_eq!(r.snapshot(), vec![0, 2, 1, 1]);
    }
}
