//! The update-ingest pipeline: a coordinator fanning sequence-numbered
//! batches out to per-shard workers over chaos-wrapped channels.
//!
//! Each batch send to shard `w` travels the fault-plane channel
//! `channel_with(UPDATE_INGEST_TAG, 0, w)` (see the chaos crate's channel
//! inventory). The plane may drop, delay, corrupt, or ack-lose the send;
//! the coordinator crosses it through the plane's delivery driver under a
//! capped-backoff [`RetryPolicy`], and the worker's [`Sequencer`] collapses
//! the resulting duplicates to exactly-once, in-order application. Faults therefore cost
//! only *modelled ticks* (accumulated into the batch's update lag), never
//! epochs, ordering, or graph state — the property the chaos suite pins.

use crate::event::UpdateEvent;
use aligraph_chaos::{
    FaultPlane, HopKind, RecoveryMode, RetryPolicy, Sequencer, UPDATE_INGEST_TAG,
};
use aligraph_sampling::{Applied, ShardOverlay, VertexOverlay};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Chaos configuration of the ingest channel.
#[derive(Debug, Clone)]
pub struct IngestFaultConfig {
    /// The seeded fault plan for the ingest channels.
    pub plan: aligraph_chaos::FaultPlan,
    /// Retry/backoff budget for faulted batch sends.
    pub policy: RetryPolicy,
}

/// Why an ingest failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The retry budget ran out sending a batch to one shard.
    RetriesExhausted {
        /// The shard the send was addressed to.
        shard: usize,
        /// The batch's sequence number.
        seq: u64,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The worker pool has shut down.
    Disconnected,
    /// An adopted ownership table does not fit this pipeline.
    BadOwners(String),
    /// The batch failed the plane's admission check; nothing was sent.
    BadEvent {
        /// Index of the first offending event in the batch.
        index: usize,
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::RetriesExhausted { shard, seq, attempts } => write!(
                f,
                "ingest retries exhausted: batch {seq} to shard {shard} after {attempts} attempts"
            ),
            IngestError::Disconnected => write!(f, "ingest worker pool has shut down"),
            IngestError::BadOwners(reason) => write!(f, "bad ownership table: {reason}"),
            IngestError::BadEvent { index, reason } => write!(f, "bad event {index}: {reason}"),
        }
    }
}

impl std::error::Error for IngestError {}

enum ShardMsg {
    /// A sequence-numbered update batch, travelling the fault plane.
    Batch { seq: u64, events: Arc<Vec<UpdateEvent>> },
    /// Control plane: adopt a new ownership table, extract emigrants. Not
    /// faulted and not sequenced — membership changes ride the reliable
    /// in-order channel itself, mirroring how the storage layer publishes
    /// topology epochs outside the data path.
    Adopt { owners: Arc<Vec<u32>> },
    /// Control plane: install overlay state extracted from previous owners.
    Absorb { immigrants: Vec<(u32, VertexOverlay)> },
}

#[derive(Clone)]
struct ShardAck {
    shard: usize,
    seq: u64,
    /// The shard's overlay after the batch (a clone: `Arc` bumps).
    view: ShardOverlay,
    applied: Applied,
}

enum WorkerAck {
    /// One applied batch.
    Batch(ShardAck),
    /// Response to `Adopt`: the overlay state of every vertex that left
    /// this shard, as `(vertex, new owner, state)`.
    Emigrants { emigrants: Vec<(u32, u32, VertexOverlay)> },
    /// Response to `Absorb`: the post-handoff overlay.
    Snapshot { shard: usize, view: ShardOverlay },
}

/// What one coordinated submit produced, aggregated over all shards.
#[derive(Debug)]
pub(crate) struct SubmitOutcome {
    /// Per-shard overlays after the batch, indexed by shard.
    pub views: Vec<ShardOverlay>,
    /// Union of the per-shard touched sets and alias-repair counts.
    pub applied: Applied,
    /// Virtual ticks of update lag this batch accumulated: injected delays
    /// plus retry backoff.
    pub lag_ticks: u64,
}

/// The coordinator half of the pipeline: owns the shard senders and the
/// next sequence number. One batch is in flight at a time (the service
/// serializes submits), which is what makes an update *log*: batch `n+1`
/// is only sent once every shard acked batch `n`.
pub(crate) struct IngestPipeline {
    senders: Vec<Sender<ShardMsg>>,
    acks: Receiver<WorkerAck>,
    handles: Vec<JoinHandle<()>>,
    /// Shared with nobody else; crate-visible so tests can disarm it.
    pub(crate) plane: Arc<FaultPlane>,
    policy: RetryPolicy,
    next_seq: u64,
}

impl std::fmt::Debug for IngestPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestPipeline")
            .field("shards", &self.senders.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl IngestPipeline {
    /// Spawns one ingest worker per shard overlay.
    pub fn spawn(stores: Vec<ShardOverlay>, plane: Arc<FaultPlane>, policy: RetryPolicy) -> Self {
        let (ack_tx, acks) = unbounded::<WorkerAck>();
        let mut senders = Vec::with_capacity(stores.len());
        let mut handles = Vec::with_capacity(stores.len());
        for (shard, store) in stores.into_iter().enumerate() {
            let (tx, rx) = unbounded::<ShardMsg>();
            let ack_tx = ack_tx.clone();
            senders.push(tx);
            handles.push(std::thread::spawn(move || worker_loop(store, rx, ack_tx, shard)));
        }
        IngestPipeline { senders, acks, handles, plane, policy, next_seq: 0 }
    }

    /// Sends one batch to every shard through the fault plane and waits for
    /// all acks. Returns the aggregated outcome. A batch whose retry budget
    /// runs out towards any shard reaches no shard and keeps its sequence
    /// number, exactly like one refused before the send.
    pub fn submit(&mut self, events: Arc<Vec<UpdateEvent>>) -> Result<SubmitOutcome, IngestError> {
        let seq = self.next_seq;
        let shards = self.senders.len();
        // The plane's decisions are pure, so every shard's hop resolves
        // before anything is sent: a half-delivered batch would leave the
        // skipped shard's sequencer waiting on a gap that never fills (the
        // next submit hangs), or publish a batch reported as failed.
        let mut lag_ticks = 0u64;
        let mut owed = vec![0u32; shards];
        for (shard, copies) in owed.iter_mut().enumerate() {
            let channel = FaultPlane::channel_with(UPDATE_INGEST_TAG, 0, shard as u64);
            let sent = self
                .plane
                .deliver(channel, seq, &self.policy, RecoveryMode::Full, HopKind::Acked, || {
                    *copies += 1
                })
                .map_err(|e| IngestError::RetriesExhausted { shard, seq, attempts: e.attempts })?;
            lag_ticks += sent.ticks;
        }
        self.next_seq += 1;
        // Copies past the first are lost-ack resends and late duplicates:
        // the worker's sequencer discards them.
        for (tx, copies) in self.senders.iter().zip(owed) {
            for _ in 0..copies {
                tx.send(ShardMsg::Batch { seq, events: Arc::clone(&events) })
                    .map_err(|_| IngestError::Disconnected)?;
            }
        }
        // Collect exactly one ack per shard for this seq; duplicate acks
        // (lost-ack resends) and stragglers from older batches are skipped.
        let mut applied: Vec<Option<(ShardOverlay, Applied)>> = vec![None; shards];
        let mut got = 0usize;
        while got < shards {
            let ack = match self.acks.recv().map_err(|_| IngestError::Disconnected)? {
                WorkerAck::Batch(ack) => ack,
                // Control-plane acks never interleave with batch acks: an
                // adopt drains its own acks to completion before submit can
                // run again.
                WorkerAck::Emigrants { .. } | WorkerAck::Snapshot { .. } => continue,
            };
            if ack.seq != seq {
                continue;
            }
            if applied[ack.shard].is_none() {
                applied[ack.shard] = Some((ack.view, ack.applied));
                got += 1;
            }
        }
        // invariant: the collection loop above filled every slot.
        let (views, parts): (Vec<_>, Vec<_>) =
            applied.into_iter().map(|a| a.expect("one ack per shard collected")).unzip();
        Ok(SubmitOutcome { views, applied: Applied::merge(parts), lag_ticks })
    }

    /// Re-points shard ownership at a new table and migrates overlay state
    /// between workers — the streaming half of an elastic rebalance, run
    /// while the pipeline keeps its workers alive.
    ///
    /// Two reliable broadcast rounds:
    ///
    /// 1. **Adopt** — every worker swaps in the new table and hands back the
    ///    overlay state of vertices that left it;
    /// 2. **Absorb** — the coordinator regroups emigrants by destination and
    ///    delivers them; every worker answers with a fresh snapshot.
    ///
    /// The returned per-shard views reflect the post-handoff state, ready to
    /// publish in the next epoch together with `owners`. Because the channel
    /// is FIFO per worker, any batch submitted after this call applies on
    /// the new owner — routing follows the epoch with no torn window.
    pub fn adopt_owners(
        &mut self,
        owners: Arc<Vec<u32>>,
    ) -> Result<Vec<ShardOverlay>, IngestError> {
        let shards = self.senders.len();
        if let Some(&bad) = owners.iter().find(|&&o| o as usize >= shards) {
            return Err(IngestError::BadOwners(format!(
                "owner {bad} out of range for {shards} ingest shards"
            )));
        }
        for tx in &self.senders {
            // aligraph::allow(channel-protocol): rebalance control plane —
            // Adopt is broadcast once per reshard outside the sequenced
            // update stream, and the ack loop below is its receive pairing.
            tx.send(ShardMsg::Adopt { owners: Arc::clone(&owners) })
                .map_err(|_| IngestError::Disconnected)?;
        }
        let mut per_dst: Vec<Vec<(u32, VertexOverlay)>> = vec![Vec::new(); shards];
        let mut got = 0usize;
        while got < shards {
            if let WorkerAck::Emigrants { emigrants } =
                self.acks.recv().map_err(|_| IngestError::Disconnected)?
            {
                for (v, dst, state) in emigrants {
                    per_dst[dst as usize].push((v, state));
                }
                got += 1;
            }
        }
        for row in &mut per_dst {
            row.sort_by_key(|(v, _)| *v);
        }
        for (tx, immigrants) in self.senders.iter().zip(per_dst) {
            // aligraph::allow(channel-protocol): rebalance control plane —
            // Absorb carries the sorted emigrant rows gathered above and is
            // acknowledged by the Snapshot loop below, not by RetryPolicy.
            tx.send(ShardMsg::Absorb { immigrants }).map_err(|_| IngestError::Disconnected)?;
        }
        let mut views: Vec<Option<ShardOverlay>> = vec![None; shards];
        let mut got = 0usize;
        while got < shards {
            if let WorkerAck::Snapshot { shard, view } =
                self.acks.recv().map_err(|_| IngestError::Disconnected)?
            {
                if views[shard].is_none() {
                    views[shard] = Some(view);
                    got += 1;
                }
            }
        }
        // invariant: the loop above filled every slot before exiting.
        Ok(views.into_iter().map(|v| v.expect("one snapshot per shard collected")).collect())
    }

    /// Drops the senders and joins the workers.
    pub fn shutdown(self) {
        drop(self.senders);
        drop(self.acks);
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// One shard's ingest worker: dedups arrivals through a [`Sequencer`],
/// applies deliverable batches in sequence order, and acks each applied
/// sequence number. A duplicate of the *last applied* batch (a lost-ack
/// resend) is re-acked from the stored result instead of re-applied —
/// exactly-once application is the sequencer's contract.
fn worker_loop(
    mut store: ShardOverlay,
    rx: Receiver<ShardMsg>,
    acks: Sender<WorkerAck>,
    shard: usize,
) {
    let mut sequencer: Sequencer<Arc<Vec<UpdateEvent>>> = Sequencer::new();
    let mut last: Option<ShardAck> = None;
    while let Ok(msg) = rx.recv() {
        let (seq, events) = match msg {
            ShardMsg::Batch { seq, events } => (seq, events),
            ShardMsg::Adopt { owners } => {
                let emigrants = store.adopt_owners(owners);
                if acks.send(WorkerAck::Emigrants { emigrants }).is_err() {
                    return;
                }
                continue;
            }
            ShardMsg::Absorb { immigrants } => {
                for (v, state) in immigrants {
                    store.absorb(v, state);
                }
                if acks.send(WorkerAck::Snapshot { shard, view: store.clone() }).is_err() {
                    return;
                }
                continue;
            }
        };
        let ready = sequencer.offer(seq, events);
        if ready.is_empty() {
            // Duplicate (already applied or buffered): re-ack if it is the
            // batch we just applied, otherwise drop it silently.
            if let Some(prev) = &last {
                if prev.seq == seq && acks.send(WorkerAck::Batch(prev.clone())).is_err() {
                    return;
                }
            }
            continue;
        }
        let base = sequencer.delivered() - ready.len() as u64;
        for (i, events) in ready.into_iter().enumerate() {
            let applied = store.apply(&events);
            let ack = ShardAck { shard, seq: base + i as u64, view: store.clone(), applied };
            last = Some(ack.clone());
            if acks.send(WorkerAck::Batch(ack)).is_err() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::UpdateEvent;
    use aligraph_chaos::FaultPlan;
    use aligraph_graph::ids::well_known::*;
    use aligraph_graph::{AttrVector, GraphBuilder, VertexId};

    fn stores(shards: u32) -> Vec<ShardOverlay> {
        let mut b = GraphBuilder::directed();
        let vs: Vec<VertexId> = (0..6).map(|_| b.add_vertex(USER, AttrVector::empty())).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], CLICK, 1.0).unwrap();
        }
        let g = Arc::new(b.build());
        let owners = Arc::new((0..6u32).map(|v| v % shards).collect::<Vec<_>>());
        (0..shards).map(|m| ShardOverlay::new(Arc::clone(&g), Arc::clone(&owners), m)).collect()
    }

    fn add(src: u32, dst: u32) -> UpdateEvent {
        UpdateEvent::AddEdge { src: VertexId(src), dst: VertexId(dst), etype: CLICK, weight: 1.0 }
    }

    #[test]
    fn fault_free_submit_applies_on_the_owning_shard() {
        let plane = Arc::new(FaultPlane::new(FaultPlan::default()));
        let mut pipe = IngestPipeline::spawn(stores(2), plane, RetryPolicy::default());
        let out = pipe.submit(Arc::new(vec![add(0, 1), add(2, 3)])).unwrap();
        assert_eq!(out.views.len(), 2);
        assert_eq!(out.applied.touched.rows, vec![0, 2]);
        assert_eq!(out.lag_ticks, 0);
        assert_eq!(out.applied.repairs, 2);
        pipe.shutdown();
    }

    #[test]
    fn faulted_submits_match_fault_free_state_exactly() {
        // The headline chaos property at the unit level: same batches in,
        // same per-shard rows out, faults only cost modelled ticks.
        let clean_plane = Arc::new(FaultPlane::new(FaultPlan::default()));
        let mut clean = IngestPipeline::spawn(stores(2), clean_plane, RetryPolicy::default());
        let chaotic_plane = Arc::new(FaultPlane::new(FaultPlan::with_seed(9, 0.2)));
        let mut chaotic = IngestPipeline::spawn(stores(2), chaotic_plane, RetryPolicy::default());
        let mut lag = 0u64;
        for round in 0..20u32 {
            let batch = Arc::new(vec![add(round % 6, (round + 1) % 6), add(0, round % 6)]);
            let a = clean.submit(Arc::clone(&batch)).unwrap();
            let b = chaotic.submit(batch).unwrap();
            assert_eq!(a.applied.touched, b.applied.touched, "round {round}");
            lag += b.lag_ticks;
            for (va, vb) in a.views.iter().zip(&b.views) {
                for v in 0..6u32 {
                    let v = VertexId(v);
                    assert_eq!(va.out_row(v), vb.out_row(v), "round {round} vertex {v:?}");
                }
            }
        }
        assert!(lag > 0, "a 20% fault rate must cost some modelled lag");
        clean.shutdown();
        chaotic.shutdown();
    }

    #[test]
    fn adoption_hands_overlays_to_the_new_owner() {
        let plane = Arc::new(FaultPlane::new(FaultPlan::default()));
        let mut pipe = IngestPipeline::spawn(stores(2), plane, RetryPolicy::default());
        // Vertex 0 is owned by shard 0 (v % 2) and gets an overlay row.
        pipe.submit(Arc::new(vec![add(0, 3)])).unwrap();
        let flipped: Arc<Vec<u32>> = Arc::new((0..6u32).map(|v| (v + 1) % 2).collect());
        let views = pipe.adopt_owners(Arc::clone(&flipped)).unwrap();
        assert!(views[0].out_row(VertexId(0)).is_none(), "overlay left the old owner");
        let moved = views[1].out_row(VertexId(0)).expect("overlay landed on the new owner");
        assert!(moved.iter().any(|n| n.vertex.0 == 3));
        // A post-adoption submit routes vertex 0's edit to shard 1, on top
        // of the migrated state.
        let out = pipe.submit(Arc::new(vec![add(0, 5)])).unwrap();
        assert_eq!(out.applied.touched.rows, vec![0]);
        let row = out.views[1].out_row(VertexId(0)).unwrap();
        assert!(row.iter().any(|n| n.vertex.0 == 3) && row.iter().any(|n| n.vertex.0 == 5));
        pipe.shutdown();
    }

    #[test]
    fn adoption_rejects_owners_beyond_the_shard_count() {
        let plane = Arc::new(FaultPlane::new(FaultPlan::default()));
        let mut pipe = IngestPipeline::spawn(stores(2), plane, RetryPolicy::default());
        let bad = Arc::new(vec![0u32, 1, 2, 0, 1, 2]);
        assert!(matches!(pipe.adopt_owners(bad), Err(IngestError::BadOwners(_))));
        pipe.shutdown();
    }
}
