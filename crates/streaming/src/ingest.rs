//! The update-ingest pipeline: a coordinator that sequence-numbers each
//! batch, crosses the fault plane once per shard and applies what landed,
//! in shard order, on the caller's thread.
//!
//! The hop to shard `w` travels the fault-plane channel
//! `channel_with(UPDATE_INGEST_TAG, 0, w)` (see the chaos crate's channel
//! inventory). The plane may drop, delay, corrupt, or ack-lose it; the
//! coordinator crosses it through the plane's delivery driver under a
//! capped-backoff [`RetryPolicy`], and the shard's [`Sequencer`] collapses
//! the copies that land to exactly-once, in-order application. Faults
//! therefore cost only *modelled ticks* (accumulated into the batch's
//! update lag), never epochs, ordering, or graph state — the property the
//! chaos suite pins.
//!
//! There is no thread per shard: readers pin immutable epoch views and the
//! service serialises writers, so the paper's thread per vertex group would
//! protect nothing here and cost a wake-up a batch (DESIGN.md §2.15).

use crate::event::UpdateEvent;
use aligraph_chaos::{
    FaultPlane, HopKind, RecoveryMode, RetryPolicy, Sequencer, UPDATE_INGEST_TAG,
};
use aligraph_sampling::{Applied, ShardOverlay};

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
    /// An adopted ownership table does not fit the published view.
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
            IngestError::BadOwners(reason) => write!(f, "bad ownership table: {reason}"),
            IngestError::BadEvent { index, reason } => write!(f, "bad event {index}: {reason}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// One batch past the fault plane: what the hop to each shard landed.
#[derive(Debug)]
pub(crate) struct Hops {
    seq: u64,
    /// Copies landed per shard; those past the first are lost-ack resends
    /// and replayed late duplicates.
    copies: Vec<u32>,
    /// Virtual ticks of update lag the hops accumulated: injected delays
    /// plus retry backoff.
    pub lag_ticks: u64,
}

/// The coordinator: owns the next sequence number and the receiving end of
/// every shard's hop. It holds no graph state — the published head view is
/// the only holder, and [`apply`](Self::apply) edits a clone of its shards.
/// One batch is in flight at a time (the service serializes submits), which
/// is what makes an update *log*: batch `n+1` is only sent once batch `n`
/// was applied on every shard.
#[derive(Debug)]
pub(crate) struct IngestPipeline {
    /// Crate-visible so tests can disarm it.
    pub(crate) plane: FaultPlane,
    policy: RetryPolicy,
    next_seq: u64,
    /// One per shard: discards the extra copies its hop lands.
    sequencers: Vec<Sequencer<()>>,
}

impl IngestPipeline {
    /// A pipeline in front of `shards` shard overlays.
    pub fn new(shards: usize, plane: FaultPlane, policy: RetryPolicy) -> Self {
        let sequencers = (0..shards).map(|_| Sequencer::new()).collect();
        IngestPipeline { plane, policy, next_seq: 0, sequencers }
    }

    /// Resolves the next batch's hop to every shard through the fault plane
    /// — the fallible half of a submit. A batch whose retry budget runs out
    /// towards any shard reaches no shard and keeps its sequence number,
    /// exactly like one refused before the send.
    pub fn resolve(&mut self) -> Result<Hops, IngestError> {
        let seq = self.next_seq;
        // The plane's decisions are pure, so every shard's hop resolves
        // before anything is applied: a half-delivered batch would leave the
        // skipped shard's sequencer waiting on a gap that never fills, or
        // publish a batch reported as failed.
        let mut lag_ticks = 0u64;
        let mut copies = vec![0u32; self.sequencers.len()];
        for (shard, landed) in copies.iter_mut().enumerate() {
            let channel = FaultPlane::channel_with(UPDATE_INGEST_TAG, 0, shard as u64);
            let sent = self
                .plane
                .deliver(channel, seq, &self.policy, RecoveryMode::Full, HopKind::Acked, || {
                    *landed += 1
                })
                .map_err(|e| IngestError::RetriesExhausted { shard, seq, attempts: e.attempts })?;
            lag_ticks += sent.ticks;
        }
        self.next_seq += 1;
        Ok(Hops { seq, copies, lag_ticks })
    }

    /// Delivers what `hops` landed, in shard order: every copy is offered to
    /// its shard's sequencer and the one it releases applies `events` to
    /// that shard's overlay (ownership-filtered). Returns the union of what
    /// the shards touched.
    pub fn apply(
        &mut self,
        hops: &Hops,
        shards: &mut [ShardOverlay],
        events: &[UpdateEvent],
    ) -> Applied {
        let mut parts = Vec::with_capacity(shards.len());
        for ((shard, sequencer), &copies) in
            shards.iter_mut().zip(&mut self.sequencers).zip(&hops.copies)
        {
            for _ in 0..copies {
                // invariant: `resolve` consumes a sequence number only once
                // every shard's hop has resolved, so no sequencer ever waits
                // on a gap — an offer releases this batch or (a duplicate)
                // nothing, and the payload can stay with the caller.
                if !sequencer.offer(hops.seq, ()).is_empty() {
                    parts.push(shard.apply(events));
                }
            }
        }
        Applied::merge(parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::UpdateEvent;
    use aligraph_chaos::FaultPlan;
    use aligraph_graph::ids::well_known::*;
    use aligraph_graph::{AttrVector, Featurizer, GraphBuilder, VertexId};
    use aligraph_sampling::EpochView;
    use std::sync::Arc;

    /// Epoch 0 of a six-vertex chain, vertex `v` owned by shard `v % shards`.
    fn head(shards: u32) -> EpochView {
        let mut b = GraphBuilder::directed();
        let vs: Vec<VertexId> = (0..6).map(|_| b.add_vertex(USER, AttrVector::empty())).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], CLICK, 1.0).unwrap();
        }
        let g = Arc::new(b.build());
        let feats = Arc::new(Featurizer::new(8).matrix(&g));
        let owners = Arc::new((0..6u32).map(|v| v % shards).collect::<Vec<_>>());
        let alias = crate::serve::base_alias(&g);
        EpochView::initial(g, feats, alias, owners, shards as usize)
    }

    fn pipeline(plan: FaultPlan) -> IngestPipeline {
        IngestPipeline::new(2, FaultPlane::new(plan), RetryPolicy::default())
    }

    /// One submit as `StreamingService::ingest` composes it: `head` becomes
    /// its successor.
    fn submit(
        pipe: &mut IngestPipeline,
        head: &mut EpochView,
        events: &[UpdateEvent],
    ) -> (Applied, Hops) {
        let hops = pipe.resolve().unwrap();
        let mut shards = head.shards().to_vec();
        let applied = pipe.apply(&hops, &mut shards, events);
        *head = head.with_shards(shards);
        (applied, hops)
    }

    fn add(src: u32, dst: u32) -> UpdateEvent {
        UpdateEvent::AddEdge { src: VertexId(src), dst: VertexId(dst), etype: CLICK, weight: 1.0 }
    }

    #[test]
    fn fault_free_submit_applies_on_the_owning_shard() {
        let (mut pipe, mut view) = (pipeline(FaultPlan::default()), head(2));
        let (applied, hops) = submit(&mut pipe, &mut view, &[add(0, 1), add(2, 3)]);
        assert_eq!(view.shards().len(), 2);
        assert_eq!(applied.touched.rows, vec![0, 2]);
        assert_eq!(hops.lag_ticks, 0);
        assert_eq!(applied.repairs, 2);
    }

    #[test]
    fn faulted_submits_match_fault_free_state_exactly() {
        // The headline chaos property at the unit level: same batches in,
        // same per-shard rows out, faults only cost modelled ticks.
        let (mut clean, mut clean_view) = (pipeline(FaultPlan::default()), head(2));
        let (mut chaotic, mut chaotic_view) = (pipeline(FaultPlan::with_seed(9, 0.2)), head(2));
        let (mut lag, mut most_copies) = (0u64, 0u32);
        for round in 0..20u32 {
            let batch = [add(round % 6, (round + 1) % 6), add(0, round % 6)];
            let (a, _) = submit(&mut clean, &mut clean_view, &batch);
            let (b, hops) = submit(&mut chaotic, &mut chaotic_view, &batch);
            assert_eq!(a.touched, b.touched, "round {round}");
            lag += hops.lag_ticks;
            most_copies = most_copies.max(hops.copies.iter().copied().max().unwrap());
            for (va, vb) in clean_view.shards().iter().zip(chaotic_view.shards()) {
                for v in 0..6u32 {
                    let v = VertexId(v);
                    assert_eq!(va.out_row(v), vb.out_row(v), "round {round} vertex {v:?}");
                }
            }
            // Whatever landed, each shard delivered one batch per submit.
            for sequencer in &chaotic.sequencers {
                assert_eq!((sequencer.delivered(), sequencer.pending()), (round as u64 + 1, 0));
            }
        }
        assert!(lag > 0, "a 20% fault rate must cost some modelled lag");
        assert!(most_copies > 1, "no hop landed a duplicate: the dedup went unexercised");
    }

    #[test]
    fn adoption_hands_overlays_to_the_new_owner() {
        let (mut pipe, mut view) = (pipeline(FaultPlan::default()), head(2));
        // Vertex 0 is owned by shard 0 (v % 2) and gets an overlay row.
        submit(&mut pipe, &mut view, &[add(0, 3)]);
        let flipped: Arc<Vec<u32>> = Arc::new((0..6u32).map(|v| (v + 1) % 2).collect());
        view = view.adopt_owners(Arc::clone(&flipped)).unwrap();
        let views = view.shards();
        assert!(views[0].out_row(VertexId(0)).is_none(), "overlay left the old owner");
        let moved = views[1].out_row(VertexId(0)).expect("overlay landed on the new owner");
        assert!(moved.iter().any(|n| n.vertex.0 == 3));
        // A post-adoption submit routes vertex 0's edit to shard 1, on top
        // of the migrated state.
        let (applied, _) = submit(&mut pipe, &mut view, &[add(0, 5)]);
        assert_eq!(applied.touched.rows, vec![0]);
        let row = view.shards()[1].out_row(VertexId(0)).unwrap();
        assert!(row.iter().any(|n| n.vertex.0 == 3) && row.iter().any(|n| n.vertex.0 == 5));
    }

    #[test]
    fn adoption_rejects_owners_beyond_the_shard_count() {
        let bad = Arc::new(vec![0u32, 1, 2, 0, 1, 2]);
        assert!(head(2).adopt_owners(bad).unwrap_err().contains("out of range"));
    }
}
