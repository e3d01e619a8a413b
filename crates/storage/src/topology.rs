//! Versioned cluster membership: monotonic topology epochs that own routing.
//!
//! Membership is a published [`TopologyView`]: an immutable, sealed snapshot
//! of *physical residency* (which shard currently holds each vertex and which
//! shard slots are live), versioned under strictly monotonic epochs through
//! the same [`Published`](crate::published::Published) cell as the online
//! graph plane and the deployed model. Every vertex has one owner per
//! epoch; readers pin a view for the length of a request, so one request
//! routes against one membership version no matter how many rebalances land
//! meanwhile.
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

use crate::published::Versioned;
use crate::seal::Fnv1a;
use aligraph_graph::VertexId;
use aligraph_partition::{Partition, WorkerId};
use std::sync::atomic::{AtomicU32, Ordering};
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
        }
    }
}

impl std::error::Error for RouteError {}

/// One immutable membership version: per-vertex primary shard and per-slot
/// liveness — sealed under a fingerprint so a torn publish (fields from two
/// versions) is detectable by exactly the check the mini-loom target runs.
#[derive(Debug, Clone)]
pub struct TopologyView {
    epoch: u64,
    /// Vertex id → primary shard slot.
    primary: Arc<Vec<u32>>,
    /// Shard slot → live? Retired (merged-away) slots stay allocated but
    /// dead, so slot indices are stable across the topology's whole life.
    live: Arc<Vec<bool>>,
    fingerprint: u64,
}

impl TopologyView {
    /// Seals a view from its parts.
    pub fn new(epoch: u64, primary: Arc<Vec<u32>>, live: Arc<Vec<bool>>) -> Self {
        let fingerprint = Self::seal(epoch, &primary, &live);
        TopologyView { epoch, primary, live, fingerprint }
    }

    /// Epoch 0: physical residency equals the logical partition, every slot
    /// live.
    pub fn identity(partition: &Partition, num_vertices: usize) -> Self {
        let primary: Vec<u32> =
            (0..num_vertices as u32).map(|v| partition.owner_of(VertexId(v)).0).collect();
        let live = vec![true; partition.num_workers().max(1)];
        Self::new(0, Arc::new(primary), Arc::new(live))
    }

    fn seal(epoch: u64, primary: &[u32], live: &[bool]) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(&epoch.to_le_bytes());
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
        if Self::seal(self.epoch, &self.primary, &self.live) != self.fingerprint {
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

    /// The successor view: same coverage, new residency/liveness, next
    /// epoch.
    pub fn advance(&self, primary: Arc<Vec<u32>>, live: Arc<Vec<bool>>) -> TopologyView {
        Self::new(self.epoch + 1, primary, live)
    }
}

impl Versioned for TopologyView {
    fn epoch(&self) -> u64 {
        self.epoch
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
    use crate::published::Published;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_partition::{EdgeCutHash, Partitioner};

    fn tiny_view(workers: usize) -> TopologyView {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let p = EdgeCutHash.partition(&g, workers);
        TopologyView::identity(&p, g.num_vertices())
    }

    #[test]
    fn identity_view_routes_like_the_partition() {
        let g = TaobaoConfig::tiny().generate().unwrap();
        let p = EdgeCutHash.partition(&g, 3);
        let view = TopologyView::identity(&p, g.num_vertices());
        assert_eq!(view.epoch(), 0);
        assert_eq!(view.num_shards(), 3);
        view.verify().unwrap();
        for v in g.vertices() {
            assert_eq!(view.primary_of(v).unwrap(), p.owner_of(v));
        }
    }

    #[test]
    fn every_vertex_has_exactly_one_primary_per_epoch() {
        let view = tiny_view(4);
        for v in 0..view.num_vertices() as u32 {
            let p = view.primary_of(VertexId(v)).unwrap();
            assert!(p.0 < 4);
        }
    }

    #[test]
    fn out_of_range_vertex_is_a_typed_error() {
        let view = tiny_view(2);
        let beyond = VertexId(view.num_vertices() as u32);
        assert!(matches!(view.primary_of(beyond), Err(RouteError::VertexOutOfRange { .. })));
    }

    #[test]
    fn pins_keep_their_epoch_across_publishes() {
        let topo = Published::new(tiny_view(2));
        let pin0 = topo.pin();
        let next =
            pin0.advance(Arc::new(pin0.owners().as_ref().clone()), Arc::new(vec![true, true]));
        let mut swept_at = None;
        topo.write().publish(next, || swept_at = Some(topo.current_epoch())).unwrap();
        assert_eq!(swept_at, Some(1));
        assert_eq!(pin0.epoch(), 0);
        assert_eq!(topo.pin().epoch(), 1);
        pin0.verify().unwrap();
        topo.pin().verify().unwrap();
    }

    #[test]
    fn torn_view_fails_verification() {
        let view = tiny_view(2);
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
