//! Mini-loom target: the graph plane's epoch views + version-tagged
//! embedding cache under concurrent dynamic deltas.
//!
//! A serving request first probes the [`VersionedCache`] on the caller's
//! thread, with no pin; a miss is then filled by the shard's combiner in
//! three steps — pin the current [`EpochView`], compute on the pin, insert
//! the result *tagged with the pin's epoch*. Both race a writer running
//! `plane::commit`: under the publish lock it swaps in the next
//! epoch view and advances the cache past the reverse-BFS
//! [`affected_seeds`] set, and a pin waits for that lock. The invariant
//! this workload checks is the serving layer's headline guarantee: **a
//! cache hit always equals a fresh recompute on the current view** (the
//! view a pin returns) — no stale version ever escapes through the cache,
//! however the commit interleaves with probes and in-flight fills.
//!
//! Three mechanisms together make that hold; the first two have a buggy
//! twin the explorer catches:
//!
//! * inserts carry the *snapshot* version and the cache rejects any insert
//!   not at its current version (the [`Bug::CurrentVersionInsert`] twin
//!   tags inserts with the cache's current version instead — the classic
//!   TOCTOU: compute on the old graph, publish as if current);
//! * the cache sweep runs before the publish lock is released, so no pin
//!   sees the new view while the cache still holds what it changed (the
//!   [`Bug::SweepAfterPublish`] twin releases first, and a caller-side hit
//!   in between serves the old embedding against the new view);
//! * `advance` removes exactly the reverse-BFS affected seeds, so entries
//!   that survive a version bump are provably fingerprint-identical.
//!
//! "Embeddings" here are 64-bit neighborhood fingerprints bit-packed into
//! the cache's `Vec<f32>` payload, so equality is exact, not approximate.

use super::{Threads, VThread, Workload};
use aligraph_graph::dynamic::{EdgeEvent, EvolutionKind, SnapshotDelta};
use aligraph_graph::ids::well_known::{CLICK, USER};
use aligraph_graph::{AttrVector, Featurizer, GraphBuilder, VertexId};
use aligraph_serving::{affected_seeds, EpochView};
use aligraph_storage::VersionedCache;
use aligraph_telemetry::Registry;
use std::sync::Arc;

/// Encoder depth the fingerprint and the reverse BFS both use.
const KMAX: usize = 2;

/// Deterministic stand-in for the encoder: an FNV-style hash of the k-hop
/// out-neighborhood expansion of `v` on `view`.
fn fingerprint(view: &EpochView, v: VertexId) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (u64::from(v.0) << 7);
    let mut frontier = vec![v];
    for _hop in 0..KMAX {
        let mut next = Vec::new();
        for &u in &frontier {
            for n in view.out_neighbors(u) {
                h = h.wrapping_mul(0x0000_0100_0000_01B3) ^ u64::from(n.vertex.0);
                next.push(n.vertex);
            }
        }
        frontier = next;
    }
    h
}

/// Bit-packs a fingerprint into the cache's embedding payload.
fn encode(h: u64) -> Arc<Vec<f32>> {
    Arc::new(vec![f32::from_bits((h >> 32) as u32), f32::from_bits(h as u32)])
}

/// Recovers the fingerprint from a cached payload.
fn decode(e: &[f32]) -> u64 {
    (u64::from(e[0].to_bits()) << 32) | u64::from(e[1].to_bits())
}

/// A deliberately broken fill or commit, each of which must be caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// Readers tag inserts with the cache's *current* version instead of
    /// their snapshot's (TOCTOU).
    CurrentVersionInsert,
    /// The writer releases the publish lock — the new view becomes
    /// pinnable — before it sweeps the cache.
    SweepAfterPublish,
}

/// Shared state: the current overlay (what a pin returns), the real cache,
/// the writer's publish lock, and the sequential error log.
#[derive(Debug)]
pub struct OverlayState {
    overlay: Arc<EpochView>,
    cache: VersionedCache<u32, Arc<Vec<f32>>>,
    /// The writer holds the publish lock; pins wait for it.
    publishing: bool,
    bug: Option<Bug>,
    errors: Vec<String>,
}

/// Where the writer is inside one commit.
enum Commit {
    /// Build the next version and its reverse-BFS affected set, then take
    /// the publish lock and swap the view in.
    Publish,
    /// Advance the cache past the affected set.
    Sweep(Arc<EpochView>, Vec<u32>),
    /// Release the publish lock: the new view is pinnable from here on.
    Release(Arc<EpochView>, Vec<u32>),
}

/// The delta writer: applies each scripted delta in the steps of the
/// plane's `commit` under `apply_delta` (publish, sweep,
/// release). A probe takes no lock and may run between any two of them.
struct DeltaWriter {
    deltas: Vec<SnapshotDelta>,
    at: usize,
    commit: Commit,
}

impl VThread<OverlayState> for DeltaWriter {
    fn done(&self, _: &OverlayState) -> bool {
        self.at >= self.deltas.len()
    }
    fn step(&mut self, s: &mut OverlayState) {
        let late_sweep = s.bug == Some(Bug::SweepAfterPublish);
        self.commit = match std::mem::replace(&mut self.commit, Commit::Publish) {
            Commit::Publish => {
                let delta = &self.deltas[self.at];
                let post = Arc::new(s.overlay.apply(delta));
                let affected =
                    affected_seeds(&s.overlay, &post, delta, KMAX).iter().map(|v| v.0).collect();
                s.publishing = true;
                if late_sweep {
                    Commit::Release(post, affected)
                } else {
                    Commit::Sweep(post, affected)
                }
            }
            Commit::Sweep(post, affected) => {
                s.cache.advance(post.epoch(), affected.iter().copied());
                if late_sweep {
                    self.at += 1;
                    Commit::Publish
                } else {
                    Commit::Release(post, affected)
                }
            }
            Commit::Release(post, affected) => {
                s.overlay = Arc::clone(&post);
                s.publishing = false;
                if late_sweep {
                    Commit::Sweep(post, affected)
                } else {
                    self.at += 1;
                    Commit::Publish
                }
            }
        };
    }
}

/// Where a reader is inside one lookup-or-fill round.
enum Phase {
    /// The caller-side probe: no pin, no lock; a hit is checked against
    /// the current view.
    Lookup,
    /// The combiner pins the current view (waits while the writer holds
    /// the publish lock; the race window opens here).
    Snapshot,
    /// Compute the fingerprint on the pinned snapshot.
    Compute,
    /// Publish into the cache (correct: at the snapshot's version).
    Insert,
}

/// A serving reader: repeatedly resolves one vertex — a probe, and on a
/// miss the snapshot → compute → insert fill — checking every cache hit
/// against a fresh recompute on the *current* view.
struct Reader {
    v: VertexId,
    rounds_left: u32,
    phase: Phase,
    snap: Option<Arc<EpochView>>,
    value: u64,
}

impl Reader {
    fn next_round(&mut self) {
        self.phase = Phase::Lookup;
        self.snap = None;
        self.rounds_left -= 1;
    }
}

impl VThread<OverlayState> for Reader {
    fn done(&self, _: &OverlayState) -> bool {
        self.rounds_left == 0
    }
    fn blocked(&self, s: &OverlayState) -> bool {
        matches!(self.phase, Phase::Snapshot) && s.publishing
    }
    fn step(&mut self, s: &mut OverlayState) {
        match self.phase {
            Phase::Lookup => match s.cache.get(&self.v.0) {
                Some(e) => {
                    let want = fingerprint(&s.overlay, self.v);
                    let got = decode(&e);
                    if got != want {
                        s.errors.push(format!(
                            "stale hit for vertex {}: cached {got:#x} != current-view \
                             fingerprint {want:#x} at version {}",
                            self.v.0,
                            s.overlay.epoch()
                        ));
                    }
                    self.next_round();
                }
                None => self.phase = Phase::Snapshot,
            },
            Phase::Snapshot => {
                self.snap = Some(Arc::clone(&s.overlay));
                self.phase = Phase::Compute;
            }
            Phase::Compute => {
                #[expect(
                    clippy::expect_used,
                    reason = "the Snapshot phase runs before Compute and pins the overlay"
                )]
                let snap = self.snap.as_ref().expect("snapshot pinned in previous phase");
                self.value = fingerprint(snap, self.v);
                self.phase = Phase::Insert;
            }
            Phase::Insert => {
                #[expect(
                    clippy::expect_used,
                    reason = "the snapshot stays pinned until the insert that consumes its version tag"
                )]
                let snap = self.snap.as_ref().expect("snapshot pinned in previous phase");
                let version = match s.bug {
                    Some(Bug::CurrentVersionInsert) => s.cache.version(),
                    _ => snap.epoch(),
                };
                s.cache.insert(self.v.0, version, encode(self.value));
                self.next_round();
            }
        }
    }
}

/// The overlay/cache workload: a chain graph, one delta writer toggling an
/// edge that rewrites vertex `c`'s out-row (affecting `b` and `c` under the
/// reverse BFS), and readers resolving exactly those seeds.
#[derive(Debug)]
pub struct OverlayWorkload {
    /// Lookup-or-fill rounds per reader.
    pub rounds: u32,
    /// The bug to plant, if any (must be caught).
    pub bug: Option<Bug>,
}

impl Default for OverlayWorkload {
    fn default() -> Self {
        OverlayWorkload { rounds: 4, bug: None }
    }
}

impl OverlayWorkload {
    /// The buggy twin with `bug` planted.
    pub fn buggy(bug: Bug) -> Self {
        OverlayWorkload { bug: Some(bug), ..Self::default() }
    }
}

impl Workload for OverlayWorkload {
    type State = OverlayState;

    fn name(&self) -> &'static str {
        match self.bug {
            None => "serving-overlay",
            Some(Bug::CurrentVersionInsert) => "serving-overlay-current-version-insert",
            Some(Bug::SweepAfterPublish) => "serving-overlay-sweep-after-publish",
        }
    }

    fn setup(&self) -> (OverlayState, Threads<OverlayState>) {
        // a -> b -> c -> d; the writer toggles the extra edge c -> a.
        let mut b = GraphBuilder::directed();
        let vs: Vec<VertexId> = (0..4).map(|_| b.add_vertex(USER, AttrVector::empty())).collect();
        for w in vs.windows(2) {
            #[expect(
                clippy::expect_used,
                reason = "the chain's endpoints were just added to the builder"
            )]
            b.add_edge(w[0], w[1], CLICK, 1.0).expect("vertices exist");
        }
        let graph = Arc::new(b.build());
        // The fingerprint reads rows only, so the view carries one-wide
        // features and no base alias index.
        let feats = Arc::new(Featurizer::new(1).matrix(&graph));
        let state = OverlayState {
            overlay: Arc::new(EpochView::initial(graph, feats, Arc::default())),
            cache: VersionedCache::registered(8, &Registry::disabled(), "serving.cache"),
            publishing: false,
            bug: self.bug,
            errors: Vec::new(),
        };
        let toggle = |kind| EdgeEvent { src: vs[2], dst: vs[0], etype: CLICK, kind };
        let deltas: Vec<SnapshotDelta> = (0..4)
            .map(|i| {
                if i % 2 == 0 {
                    SnapshotDelta { added: vec![toggle(EvolutionKind::Normal)], removed: vec![] }
                } else {
                    SnapshotDelta { added: vec![], removed: vec![toggle(EvolutionKind::Normal)] }
                }
            })
            .collect();
        let reader = |v: VertexId| Reader {
            v,
            rounds_left: self.rounds,
            phase: Phase::Lookup,
            snap: None,
            value: 0,
        };
        let threads: Threads<OverlayState> = vec![
            Box::new(DeltaWriter { deltas, at: 0, commit: Commit::Publish }),
            // b and c are exactly the seeds the reverse BFS invalidates.
            Box::new(reader(vs[1])),
            Box::new(reader(vs[2])),
        ];
        (state, threads)
    }

    fn errors(state: &OverlayState) -> &[String] {
        &state.errors
    }

    fn check_final(&self, state: &OverlayState) -> Result<(), String> {
        // Whatever survived in the cache must equal a fresh recompute on the
        // final overlay.
        for v in 0..state.overlay.num_vertices() as u32 {
            if let Some(e) = state.cache.get(&v) {
                let want = fingerprint(&state.overlay, VertexId(v));
                let got = decode(&e);
                if got != want {
                    return Err(format!(
                        "final cache entry for vertex {v} stale: {got:#x} != {want:#x}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loom::Explorer;

    #[test]
    fn overlay_cache_never_serves_a_stale_version() {
        Explorer { seed: 42 }.explore(&OverlayWorkload::default(), 400).unwrap();
    }

    #[test]
    fn toctou_insert_version_is_caught_and_replays() {
        let w = OverlayWorkload::buggy(Bug::CurrentVersionInsert);
        let d = Explorer { seed: 42 }
            .explore(&w, 400)
            .expect_err("current-version insert tagging must let a stale value escape");
        assert!(d.message.contains("stale"), "{d}");
        // The recorded schedule reproduces the divergence bit-for-bit.
        let replayed =
            Explorer::replay(&w, &d.schedule).expect_err("replay must reproduce the divergence");
        assert_eq!(replayed.message, d.message);
    }

    #[test]
    fn a_caller_side_hit_between_publish_and_sweep_is_caught() {
        let w = OverlayWorkload::buggy(Bug::SweepAfterPublish);
        let d = Explorer { seed: 42 }
            .explore(&w, 400)
            .expect_err("a hit on the old entry after the new view is pinnable must be caught");
        assert!(d.message.contains("stale hit"), "{d}");
        let replayed =
            Explorer::replay(&w, &d.schedule).expect_err("replay must reproduce the divergence");
        assert_eq!(replayed.message, d.message);
        // The same schedule with the sweep under the publish lock is clean.
        Explorer::replay(&OverlayWorkload::default(), &d.schedule).unwrap();
    }

    #[test]
    fn fingerprint_tracks_neighborhood_changes() {
        let (state, _) = OverlayWorkload::default().setup();
        let before = fingerprint(&state.overlay, VertexId(1));
        let delta = SnapshotDelta {
            added: vec![EdgeEvent {
                src: VertexId(2),
                dst: VertexId(0),
                etype: CLICK,
                kind: EvolutionKind::Normal,
            }],
            removed: vec![],
        };
        let next = state.overlay.apply(&delta);
        // b (vertex 1) reaches c's rewritten row in its second hop.
        assert_ne!(before, fingerprint(&next, VertexId(1)));
        // a (vertex 0) only expands a -> b at depth 0 and b -> c at depth 1;
        // c's out-row is beyond its fingerprint horizon.
        assert_eq!(
            fingerprint(&state.overlay, VertexId(0)),
            fingerprint(&next, VertexId(0)),
            "kmax-bounded fingerprint must ignore rows beyond the horizon"
        );
    }
}
