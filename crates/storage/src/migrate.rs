//! Online shard split / merge with live subgraph migration.
//!
//! A rebalance streams the moving vertices' records — adjacency, weight
//! tables, and neighbor-cache seeds — from the source shard to the
//! destination over the chaos plane (channel tag [`MIGRATION_TAG`]), while
//! **both shards keep serving**: the destination absorbs each record before
//! the per-vertex [`Residency`](crate::topology::Residency) cutover flips,
//! and the source copy only retires inside the next topology publish's
//! sweep. Every record crosses the plane through its delivery driver
//! ([`FaultPlane::deliver`]) under a capped-backoff [`RetryPolicy`]; a
//! [`Sequencer`] collapses lost-ack resends and late duplicates to
//! exactly-once application. Faults therefore cost only
//! modelled ticks, never data (a retry budget that runs out mid-stream flips
//! the landed vertices back and publishes nothing: old membership or new,
//! never a third) — unless recovery is deliberately broken
//! ([`RecoveryMode::NoRetry`]), in which case a lost record still flips the
//! cutover and the destination serves a vertex it never received: the bug
//! the migration chaos suite exists to catch.
//!
//! The protocol per vertex:
//!
//! ```text
//! extract(src) ──MIGRATION_TAG───> absorb(dst) ──> cutover(v, dst)   [commit]
//!                                                     │
//!                         publish_with(next epoch, sweep: src.retire(moved))
//! ```

use crate::cluster::{attr_cache_capacity, Cluster};
use crate::cost::AccessKind;
use crate::neighbor_cache::NeighborCache;
use crate::server::{GraphServer, VertexRecord};
use crate::topology::RouteError;
use aligraph_chaos::{FaultPlane, HopKind, RecoveryMode, RetryPolicy, Sequencer, MIGRATION_TAG};
use aligraph_graph::VertexId;
use aligraph_partition::WorkerId;
use std::sync::Arc;

/// A membership change request against the current topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceOp {
    /// Split one live shard: half its resident vertices (by a deterministic
    /// hash bit) move to a freshly allocated slot.
    Split {
        /// The shard to split.
        shard: u32,
    },
    /// Merge one live shard into another: every resident vertex moves, the
    /// source slot retires.
    Merge {
        /// The shard to drain and retire.
        from: u32,
        /// The surviving shard absorbing its vertices.
        into: u32,
    },
}

/// What one rebalance did.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The operation performed.
    pub op: RebalanceOp,
    /// Source shard slot.
    pub from: u32,
    /// Destination shard slot.
    pub to: u32,
    /// Vertices whose residency moved.
    pub moved: usize,
    /// Payload bytes that crossed the migration channel (including
    /// duplicates the sequencer later discarded).
    pub bytes: u64,
    /// Modelled ticks of migration lag: injected delays plus retry backoff.
    pub lag_ticks: u64,
    /// Records lost in flight (always 0 unless recovery is broken).
    pub lost: u64,
    /// The membership epoch the rebalance published.
    pub epoch: u64,
}

/// Why a rebalance failed. Either way nothing was published and the cluster
/// is the membership it was asked to change: a bad op is rejected before any
/// record moves, an exhausted retry budget takes back every cutover it made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationError {
    /// The requested operation does not name live, distinct shards of the
    /// current topology.
    BadOp(String),
    /// The retry budget ran out sending one record.
    RetriesExhausted {
        /// Source shard.
        from: u32,
        /// Destination shard.
        to: u32,
        /// The record's sequence number.
        seq: u64,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A routing lookup failed while validating the operation.
    Route(RouteError),
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::BadOp(why) => write!(f, "bad rebalance op: {why}"),
            MigrationError::RetriesExhausted { from, to, seq, attempts } => write!(
                f,
                "migration retries exhausted: record {seq} from shard {from} to {to} \
                 after {attempts} attempts"
            ),
            MigrationError::Route(e) => write!(f, "rebalance routing error: {e}"),
        }
    }
}

impl std::error::Error for MigrationError {}

impl From<RouteError> for MigrationError {
    fn from(e: RouteError) -> Self {
        MigrationError::Route(e)
    }
}

/// One message of the migration stream.
#[derive(Debug, Clone)]
enum MigrationRecord {
    /// A moving vertex's shard-resident state.
    Vertex(VertexRecord),
    /// One neighbor-cache entry carried from the source shard so the
    /// destination serves the same remote vertices locally. Loss costs only
    /// accounting (colder cache), never correctness.
    CacheSeed { v: VertexId, depth: u8 },
}

impl MigrationRecord {
    fn bytes(&self) -> u64 {
        match self {
            MigrationRecord::Vertex(rec) => rec.bytes(),
            MigrationRecord::CacheSeed { .. } => 5,
        }
    }
}

/// Deterministic split assignment: which half of a shard a vertex joins.
/// A pure function of the vertex id (splitmix-style mix), so every attempt
/// of a recovering run moves the same set. Uses a *high* bit of the mix:
/// the hash partitioner keys worker assignment to the low bits of the same
/// mix, and sharing them would make a split move nothing (or everything).
fn split_bit(v: u32) -> bool {
    let mut x = u64::from(v).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((x ^ (x >> 31)) >> 32) & 1 == 1
}

impl Cluster {
    /// Performs one online shard split or merge with live migration.
    ///
    /// Streams the moving subgraph over the chaos `plane` (tag
    /// [`MIGRATION_TAG`], one directed channel per shard pair), retrying
    /// under `policy` and deduplicating through a [`Sequencer`]; each vertex
    /// cuts over atomically once its record is absorbed at the destination,
    /// and the new membership epoch publishes with the source retirement in
    /// its sweep. Both shards serve throughout.
    ///
    /// All or nothing: if the retry budget runs out mid-stream, the vertices
    /// already cut over flip back to the source (which still holds every
    /// copy), the destination retires what it absorbed, a split's new slot is
    /// released and no epoch publishes — a retry starts from the membership
    /// this call found. Neighbor-cache seeds a *merge* destination already
    /// took stay: they are accounting (a warmer cache), never residency.
    ///
    /// `mode` selects the recovery discipline; anything but
    /// [`RecoveryMode::Full`] is a deliberately broken variant for the
    /// chaos suite ([`RecoveryMode::NoRetry`] loses records but flips their
    /// cutover anyway, [`RecoveryMode::NoDedup`] double-applies duplicates
    /// — harmless for the idempotent absorb, double-counted in the meter).
    pub fn rebalance(
        &self,
        op: RebalanceOp,
        plane: &FaultPlane,
        policy: &RetryPolicy,
        mode: RecoveryMode,
    ) -> Result<MigrationReport, MigrationError> {
        let view = self.topology.pin();
        let (src, dst) = match op {
            RebalanceOp::Split { shard } => {
                if !view.is_live(shard) {
                    return Err(MigrationError::BadOp(format!("split of non-live shard {shard}")));
                }
                (shard, view.num_shards() as u32)
            }
            RebalanceOp::Merge { from, into } => {
                if from == into {
                    return Err(MigrationError::BadOp(format!(
                        "merge of shard {from} into itself"
                    )));
                }
                if !view.is_live(from) || !view.is_live(into) {
                    return Err(MigrationError::BadOp(format!(
                        "merge {from} -> {into} names a non-live shard"
                    )));
                }
                (from, into)
            }
        };

        // Allocate the split destination before any record moves: a new
        // empty server slot, live in the successor view only.
        if matches!(op, RebalanceOp::Split { .. }) {
            let cache = NeighborCache::empty(self.graph().num_vertices());
            let server = Arc::new(match self.tier {
                // A split of a tiered cluster stays tiered: the new slot
                // serves out of the same shared store (its residency starts
                // empty and fills as records absorb).
                Some(ref store) => GraphServer::tiered(
                    WorkerId(dst),
                    Arc::clone(self.graph()),
                    Arc::clone(store),
                    dst as usize,
                    cache,
                    attr_cache_capacity(self.graph()),
                ),
                None => GraphServer::empty(
                    WorkerId(dst),
                    Arc::clone(self.graph()),
                    cache,
                    attr_cache_capacity(self.graph()),
                ),
            });
            self.servers.write().push(server);
        }

        let (src_server, dst_server) = {
            let servers = self.servers.read();
            (Arc::clone(&servers[src as usize]), Arc::clone(&servers[dst as usize]))
        };

        // The moving set: deterministic in (current residency, op), sorted
        // ascending so record sequence numbers are reproducible.
        let mut moving: Vec<VertexId> = Vec::new();
        for v in self.graph().vertices() {
            if self.residency.of(v) != src {
                continue;
            }
            let moves = match op {
                RebalanceOp::Split { .. } => split_bit(v.0),
                RebalanceOp::Merge { .. } => true,
            };
            if moves {
                moving.push(v);
            }
        }

        // The stream: every moving vertex's record, then the source shard's
        // neighbor-cache entries (the destination starts cold on a split).
        let mut records: Vec<MigrationRecord> = Vec::with_capacity(moving.len());
        for &v in &moving {
            // invariant: v was selected from src's residency above and
            // nothing else mutates residency during a rebalance (one
            // rebalance at a time — the driver serializes them).
            let rec = src_server.extract(v).expect("moving vertex resident on source shard");
            records.push(MigrationRecord::Vertex(rec));
        }
        for (v, depth) in src_server.neighbor_cache().entries() {
            records.push(MigrationRecord::CacheSeed { v, depth });
        }

        let moved_ids: Vec<u32> = moving.iter().map(|v| v.0).collect();

        // Stream through the chaos plane's delivery driver; the sequencer
        // makes the copies it lands (lost-ack resends, late replays) apply
        // once.
        let channel = FaultPlane::channel_with(MIGRATION_TAG, u64::from(src), u64::from(dst));
        let mut sequencer: Sequencer<MigrationRecord> = Sequencer::new();
        let mut bytes = 0u64;
        let mut lag_ticks = 0u64;
        let mut lost = 0u64;
        for (seq, record) in records.into_iter().enumerate() {
            let seq = seq as u64;
            let land = || {
                bytes += record.bytes();
                self.migration_meter.record(AccessKind::Remote, record.bytes(), self.cost_model());
                let ready = if matches!(mode, RecoveryMode::NoDedup) {
                    vec![record.clone()]
                } else {
                    sequencer.offer(seq, record.clone())
                };
                for rec in ready {
                    match rec {
                        MigrationRecord::Vertex(rec) => {
                            let v = rec.vertex;
                            dst_server.absorb(rec);
                            // Absorb precedes the flip: the commit point.
                            self.residency.cutover(v, dst);
                        }
                        MigrationRecord::CacheSeed { v, depth } => {
                            dst_server.neighbor_cache().set_depth(v, depth);
                        }
                    }
                }
            };
            let sent =
                plane.deliver(channel, seq, policy, mode, HopKind::Acked, land).map_err(|e| {
                    // Nothing was published: undo what landed in reverse
                    // commit order — flip back (the source holds every copy),
                    // drop the destination's, release a split's new slot.
                    for &v in &moving {
                        self.residency.cutover(v, src);
                    }
                    dst_server.retire(&moved_ids);
                    self.servers.write().truncate(view.num_shards());
                    MigrationError::RetriesExhausted {
                        from: src,
                        to: dst,
                        seq,
                        attempts: e.attempts,
                    }
                })?;
            lag_ticks += sent.ticks;
            if !sent.delivered {
                lost += 1;
                // The deliberately broken cutover: the flip happens even
                // though the destination never received the record, so the
                // new epoch routes the vertex to a shard that cannot serve
                // it. This is the bug the migration chaos test must catch.
                if let MigrationRecord::Vertex(rec) = record {
                    self.residency.cutover(rec.vertex, dst);
                }
            }
        }

        // Publish the successor epoch; the source retirement runs in the
        // sweep, under the publish lock, so no reader on the new epoch can
        // observe a mid-retirement source and every pin of the old epoch
        // keeps its copies alive.
        let primary = Arc::new(self.residency.snapshot());
        let mut live: Vec<bool> = (0..view.num_shards() as u32).map(|s| view.is_live(s)).collect();
        match op {
            RebalanceOp::Split { .. } => live.push(true),
            RebalanceOp::Merge { from, .. } => live[from as usize] = false,
        }
        let next = Arc::new(view.advance(primary, Arc::new(live)));
        let epoch = next.epoch();
        self.topology.publish_with(next, |_| src_server.retire(&moved_ids));

        Ok(MigrationReport {
            op,
            from: src,
            to: dst,
            moved: moving.len(),
            bytes,
            lag_ticks,
            lost,
            epoch,
        })
    }

    /// The migration oracle: every vertex must be resident (`Local`) on its
    /// primary shard of the current epoch. A clean rebalance always passes;
    /// the broken-cutover variant routes lost vertices to a shard that
    /// never absorbed them and fails here.
    pub fn verify_residency(&self) -> Result<(), String> {
        let view = self.topology.pin();
        view.verify()?;
        let servers = self.servers.read();
        for v in self.graph().vertices() {
            let p = view.primary_of(v).map_err(|e| e.to_string())?;
            let server = servers
                .get(p.index())
                .ok_or_else(|| format!("vertex {} routed to missing slot {}", v.0, p.0))?;
            if !server.is_local(v) {
                return Err(format!(
                    "vertex {} routes to shard {} at epoch {} but is not resident there",
                    v.0,
                    p.0,
                    view.epoch()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor_cache::CacheStrategy;
    use crate::tier::TierConfig;
    use aligraph_chaos::FaultPlan;
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_partition::EdgeCutHash;

    fn cluster(shards: usize, strategy: CacheStrategy) -> Cluster {
        let g = Arc::new(TaobaoConfig::tiny().generate().unwrap());
        Cluster::builder(g).partitioner(&EdgeCutHash).shards(shards).cache(strategy).build().0
    }

    fn clean_plane() -> FaultPlane {
        FaultPlane::new(FaultPlan::default())
    }

    #[test]
    fn split_moves_half_and_publishes_next_epoch() {
        let c = cluster(2, CacheStrategy::None);
        let before = c.server(WorkerId(0)).num_owned();
        let report = c
            .rebalance(
                RebalanceOp::Split { shard: 0 },
                &clean_plane(),
                &RetryPolicy::default(),
                RecoveryMode::Full,
            )
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.from, 0);
        assert_eq!(report.to, 2);
        assert_eq!(report.lost, 0);
        assert!(report.moved > 0, "a split of a populated shard moves vertices");
        assert_eq!(c.num_shards(), 3);
        assert_eq!(c.num_workers(), 2, "logical worker count never changes");
        assert_eq!(c.server(WorkerId(0)).num_owned(), before - report.moved);
        assert_eq!(c.server(WorkerId(2)).num_owned(), report.moved);
        c.verify_residency().unwrap();
    }

    #[test]
    fn merge_drains_and_retires_the_source() {
        let c = cluster(3, CacheStrategy::None);
        let drained = c.server(WorkerId(2)).num_owned();
        let report = c
            .rebalance(
                RebalanceOp::Merge { from: 2, into: 0 },
                &clean_plane(),
                &RetryPolicy::default(),
                RecoveryMode::Full,
            )
            .unwrap();
        assert_eq!(report.moved, drained);
        assert_eq!(c.server(WorkerId(2)).num_owned(), 0);
        let view = c.topology().pin();
        assert!(!view.is_live(2), "merged-away slot retires");
        assert_eq!(view.num_live(), 2);
        c.verify_residency().unwrap();
    }

    #[test]
    fn split_then_merge_roundtrips_residency() {
        let c = cluster(2, CacheStrategy::None);
        let policy = RetryPolicy::default();
        c.rebalance(RebalanceOp::Split { shard: 1 }, &clean_plane(), &policy, RecoveryMode::Full)
            .unwrap();
        let report = c
            .rebalance(
                RebalanceOp::Merge { from: 2, into: 1 },
                &clean_plane(),
                &policy,
                RecoveryMode::Full,
            )
            .unwrap();
        assert_eq!(report.epoch, 2);
        c.verify_residency().unwrap();
        // Every vertex is back on its original (logical) owner.
        for v in c.graph().vertices() {
            assert_eq!(c.primary_of(v).unwrap(), c.partition().owner_of(v));
        }
    }

    #[test]
    fn faulted_migration_matches_clean_residency_exactly() {
        let clean = cluster(2, CacheStrategy::ImportanceBudget { k: 2, fraction: 0.2 });
        let chaotic = cluster(2, CacheStrategy::ImportanceBudget { k: 2, fraction: 0.2 });
        let policy = RetryPolicy::default();
        let a = clean
            .rebalance(RebalanceOp::Split { shard: 0 }, &clean_plane(), &policy, RecoveryMode::Full)
            .unwrap();
        let b = chaotic
            .rebalance(
                RebalanceOp::Split { shard: 0 },
                &FaultPlane::new(FaultPlan::with_seed(7, 0.2)),
                &policy,
                RecoveryMode::Full,
            )
            .unwrap();
        assert_eq!(a.moved, b.moved);
        assert_eq!(b.lost, 0, "full recovery never loses records");
        assert!(b.lag_ticks > 0, "a 20% fault rate must cost modelled lag");
        assert!(b.bytes > a.bytes, "resends cost extra bytes");
        chaotic.verify_residency().unwrap();
        for v in clean.graph().vertices() {
            assert_eq!(
                clean.primary_of(v).unwrap(),
                chaotic.primary_of(v).unwrap(),
                "faults must not change where vertex {} lands",
                v.0
            );
        }
        // The destination's seeded cache matches the clean run's.
        assert_eq!(
            clean.server(WorkerId(2)).neighbor_cache().cached_count(),
            chaotic.server(WorkerId(2)).neighbor_cache().cached_count()
        );
    }

    #[test]
    fn broken_cutover_is_caught_by_the_oracle() {
        let c = cluster(2, CacheStrategy::None);
        let report = c
            .rebalance(
                RebalanceOp::Split { shard: 0 },
                &FaultPlane::new(FaultPlan::with_seed(11, 0.3)),
                &RetryPolicy::default(),
                RecoveryMode::NoRetry,
            )
            .unwrap();
        assert!(report.lost > 0, "a 30% drop rate with no retries must lose records");
        let err = c.verify_residency().unwrap_err();
        assert!(err.contains("not resident"), "{err}");
    }

    #[test]
    fn bad_ops_are_rejected_before_any_cutover() {
        let c = cluster(2, CacheStrategy::None);
        let policy = RetryPolicy::default();
        for op in [
            RebalanceOp::Split { shard: 7 },
            RebalanceOp::Merge { from: 1, into: 1 },
            RebalanceOp::Merge { from: 5, into: 0 },
        ] {
            let err = c.rebalance(op, &clean_plane(), &policy, RecoveryMode::Full).unwrap_err();
            assert!(matches!(err, MigrationError::BadOp(_)), "{err}");
        }
        assert_eq!(c.topology().current_epoch(), 0, "rejected ops publish nothing");
    }

    /// Everything a failed rebalance must hand back as it found it.
    fn membership(c: &Cluster) -> (usize, u64, Vec<u32>, Vec<usize>) {
        let owned = (0..c.num_shards()).map(|w| c.server(WorkerId(w as u32)).num_owned()).collect();
        (c.num_shards(), c.topology().current_epoch(), c.residency_snapshot(), owned)
    }

    /// Runs `op` into a retry budget that gives out mid-stream, then again
    /// over a clean plane, against the same `op` on a fresh cluster.
    fn exhaust_then_retry(build: impl Fn() -> Cluster, op: RebalanceOp) {
        let c = build();
        let before = membership(&c);
        let lossy = FaultPlane::new(FaultPlan::with_seed(0, 0.3));
        let tight = RetryPolicy { base_ticks: 1, max_attempts: 2 };
        let err = c.rebalance(op, &lossy, &tight, RecoveryMode::Full).unwrap_err();
        assert!(
            matches!(err, MigrationError::RetriesExhausted { seq, .. } if seq > 0),
            "the budget must give out after some record has cut over: {err}"
        );
        assert_eq!(membership(&c), before, "a failed rebalance leaves the membership it found");
        c.verify_residency().unwrap();

        let fresh = build();
        let policy = RetryPolicy::default();
        let retried = c.rebalance(op, &clean_plane(), &policy, RecoveryMode::Full).unwrap();
        let first = fresh.rebalance(op, &clean_plane(), &policy, RecoveryMode::Full).unwrap();
        assert_eq!(
            (retried.to, retried.moved, retried.epoch),
            (first.to, first.moved, first.epoch),
            "the retry is the rebalance a fresh cluster performs"
        );
        assert_eq!(membership(&c), membership(&fresh));
        c.verify_residency().unwrap();
    }

    #[test]
    fn exhausted_rebalance_leaves_the_parent_membership() {
        let build = || cluster(2, CacheStrategy::None);
        exhaust_then_retry(build, RebalanceOp::Split { shard: 0 });
        // A merge destination keeps its own vertices; only the moving set
        // goes back.
        exhaust_then_retry(build, RebalanceOp::Merge { from: 0, into: 1 });
    }

    #[test]
    fn exhausted_rebalance_rolls_back_the_tier_residency() {
        let build = || {
            let g = Arc::new(TaobaoConfig::tiny().generate().unwrap());
            let tier = TierConfig::with_budget(Some(4_000));
            Cluster::builder(g).shards(2).tier_config(tier).build().0
        };
        exhaust_then_retry(build, RebalanceOp::Split { shard: 0 });
    }

    #[test]
    fn both_shards_serve_during_the_absorb_window() {
        // Simulate the mid-migration window by hand: absorb + cutover one
        // vertex without publishing, then read it from both shards.
        let c = cluster(2, CacheStrategy::None);
        let v = c.graph().vertices().find(|&v| c.residency.of(v) == 0).unwrap();
        let rec = c.server(WorkerId(0)).extract(v).unwrap();
        c.server(WorkerId(1)).absorb(rec);
        let (a, _) = c.neighbors_from_kind(WorkerId(0), v, 1).unwrap();
        assert_eq!(a, c.graph().out_neighbors(v));
        let (b, kind) = c.neighbors_from_kind(WorkerId(1), v, 1).unwrap();
        assert_eq!(b, c.graph().out_neighbors(v));
        assert_eq!(kind, AccessKind::Local, "absorbed copy serves locally before cutover");
    }
}
