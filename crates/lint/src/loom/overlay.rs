//! Mini-loom target: the graph plane's epoch views + version-tagged
//! embedding cache under concurrent dynamic deltas.
//!
//! The serving worker's cache-fill is a three-step protocol — pin the
//! current [`EpochView`], compute on the pin, insert the result into the
//! [`VersionedCache`] *tagged with the pin's epoch* — racing a writer
//! that swaps in the next epoch view and invalidates the reverse-BFS
//! [`affected_seeds`] set. The invariant this workload checks is the serving
//! layer's headline guarantee: **a cache hit always equals a fresh recompute
//! on the current overlay** — no stale version ever escapes through the
//! cache, no matter how the swap interleaves with in-flight fills.
//!
//! Two mechanisms together make that hold, and each has a buggy twin the
//! explorer catches:
//!
//! * inserts carry the *snapshot* version and the cache rejects any insert
//!   not at its current version (the `buggy` variant tags inserts with the
//!   cache's current version instead — the classic TOCTOU: compute on the
//!   old graph, publish as if current);
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

/// Shared state: the swappable current overlay, the real cache, and the
/// sequential error log.
#[derive(Debug)]
pub struct OverlayState {
    overlay: Arc<EpochView>,
    cache: VersionedCache<u32, Arc<Vec<f32>>>,
    /// Buggy twin: readers tag inserts with the cache's *current* version
    /// instead of their snapshot's (TOCTOU).
    buggy: bool,
    errors: Vec<String>,
}

/// The delta writer: each step applies one scripted delta exactly the way
/// the plane's `EpochManager::commit` does under `apply_delta` — build the
/// next version, compute the reverse-BFS affected set, swap, advance the
/// cache — as one atomic unit (the real code serializes writers across all
/// four and runs the last two under the publish lock).
struct DeltaWriter {
    deltas: Vec<SnapshotDelta>,
    at: usize,
}

impl VThread<OverlayState> for DeltaWriter {
    fn done(&self, _: &OverlayState) -> bool {
        self.at >= self.deltas.len()
    }
    fn step(&mut self, s: &mut OverlayState) {
        let delta = &self.deltas[self.at];
        self.at += 1;
        let pre = Arc::clone(&s.overlay);
        let post = Arc::new(pre.apply(delta));
        let affected = affected_seeds(&pre, &post, delta, KMAX);
        s.overlay = Arc::clone(&post);
        s.cache.advance(post.epoch(), affected.iter().map(|v| v.0));
    }
}

/// Where a reader is inside one lookup-or-fill round.
enum Phase {
    /// Probe the cache; a hit is checked against the current overlay.
    Lookup,
    /// Pin the overlay snapshot (one scheduler step — the race window
    /// opens here).
    Snapshot,
    /// Compute the fingerprint on the pinned snapshot.
    Compute,
    /// Publish into the cache (correct: at the snapshot's version).
    Insert,
}

/// A serving reader: repeatedly resolves one vertex through the
/// snapshot → compute → insert protocol, checking every cache hit against a
/// fresh recompute on the *current* overlay.
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
    fn step(&mut self, s: &mut OverlayState) {
        match self.phase {
            Phase::Lookup => match s.cache.get(&self.v.0) {
                Some(e) => {
                    let want = fingerprint(&s.overlay, self.v);
                    let got = decode(&e);
                    if got != want {
                        s.errors.push(format!(
                            "stale hit for vertex {}: cached {got:#x} != current-overlay \
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
                // invariant: Snapshot always runs before Compute and sets
                // the pinned overlay.
                let snap = self.snap.as_ref().expect("snapshot pinned in previous phase");
                self.value = fingerprint(snap, self.v);
                self.phase = Phase::Insert;
            }
            Phase::Insert => {
                // invariant: the snapshot survives until the insert that
                // consumes its version tag.
                let snap = self.snap.as_ref().expect("snapshot pinned in previous phase");
                let version = if s.buggy { s.cache.version() } else { snap.epoch() };
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
    /// Use the TOCTOU insert-version bug (must be caught).
    pub buggy: bool,
}

impl Default for OverlayWorkload {
    fn default() -> Self {
        OverlayWorkload { rounds: 4, buggy: false }
    }
}

impl OverlayWorkload {
    /// The buggy twin: inserts tagged with the cache's current version.
    pub fn buggy() -> Self {
        OverlayWorkload { buggy: true, ..Self::default() }
    }
}

impl Workload for OverlayWorkload {
    type State = OverlayState;

    fn name(&self) -> &'static str {
        if self.buggy {
            "serving-overlay-buggy"
        } else {
            "serving-overlay"
        }
    }

    fn setup(&self) -> (OverlayState, Threads<OverlayState>) {
        // a -> b -> c -> d; the writer toggles the extra edge c -> a.
        let mut b = GraphBuilder::directed();
        let vs: Vec<VertexId> = (0..4).map(|_| b.add_vertex(USER, AttrVector::empty())).collect();
        for w in vs.windows(2) {
            // invariant: chain endpoints were just added to the builder.
            b.add_edge(w[0], w[1], CLICK, 1.0).expect("vertices exist");
        }
        let graph = Arc::new(b.build());
        // One shard owning every vertex; the fingerprint reads rows only, so
        // the view carries one-wide features and no base alias index.
        let feats = Arc::new(Featurizer::new(1).matrix(&graph));
        let owners = Arc::new(vec![0; graph.num_vertices()]);
        let state = OverlayState {
            overlay: Arc::new(EpochView::initial(graph, feats, Arc::default(), owners, 1)),
            cache: VersionedCache::registered(8, &Registry::disabled(), "serving.cache"),
            buggy: self.buggy,
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
            Box::new(DeltaWriter { deltas, at: 0 }),
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
        let d = Explorer { seed: 42 }
            .explore(&OverlayWorkload::buggy(), 400)
            .expect_err("current-version insert tagging must let a stale value escape");
        assert!(d.message.contains("stale"), "{d}");
        // The recorded schedule reproduces the divergence bit-for-bit.
        let replayed = Explorer::replay(&OverlayWorkload::buggy(), &d.schedule)
            .expect_err("replay must reproduce the divergence");
        assert_eq!(replayed.message, d.message);
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
