//! The streaming service: epoch-pinned sessions gathering k-hop samples
//! while update batches flow through the ingest pipeline.
//!
//! Consistency model:
//!
//! * **Session consistency** — a [`Session`] pins one epoch at creation and
//!   every gather it performs reads that one graph version, no matter how
//!   many batches publish meanwhile.
//! * **Pure gathers** — a gather is a deterministic function of `(service
//!   seed, vertex, pinned view's k-hop region)`: its RNG is seeded from
//!   `(seed, vertex)` only. Two gathers of the same vertex at epochs whose
//!   k-hop regions are identical produce bit-identical vectors — which is
//!   exactly why a cache entry that survives the targeted reverse-k-hop
//!   invalidation sweep is still *correct*, not merely tolerably stale.
//! * **Monotonic epochs** — views publish through one
//!   [`Published`] cell (DESIGN.md §2.15), whose writer is held from
//!   the head a batch is applied to until its successor publishes, so
//!   epochs advance in submit order, strictly increasing.

use crate::event::UpdateBatch;
use crate::ingest::{IngestError, IngestPipeline};
use crate::mix2;
use aligraph_chaos::{FaultConfig, FaultPlane};
use aligraph_graph::{AttributedHeterogeneousGraph, FeatureMatrix, VertexId};
use aligraph_sampling::{commit, AliasColumns, AliasTable, EpochView};
use aligraph_storage::{CacheStats, Published, VersionedCache};
use aligraph_telemetry::{Counter, Gauge, Histogram, Registry, Span};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Tunables of a [`StreamingService`].
#[derive(Debug, Clone)]
pub struct StreamingConfig {
    /// Ingest shards (one fault-plane hop each).
    pub shards: usize,
    /// Per-hop sampling fanouts; `len()` is the gather depth `kmax`.
    pub fanouts: Vec<usize>,
    /// Capacity of the epoch-tagged sample cache.
    pub cache_capacity: usize,
    /// Service seed: the only entropy source of the gather plane.
    pub seed: u64,
    /// Chaos configuration of the ingest channel (tag 4); `None` is the
    /// unarmed plane.
    pub fault: Option<FaultConfig>,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            shards: 2,
            fanouts: vec![4, 2],
            cache_capacity: 4096,
            seed: 42,
            fault: None,
        }
    }
}

/// What one applied batch did to the published state.
#[derive(Debug, Clone)]
pub struct IngestReceipt {
    /// The epoch this batch published.
    pub epoch: u64,
    /// Sources whose out-row / alias table changed (sorted).
    pub touched_rows: Vec<u32>,
    /// Vertices whose features changed (sorted).
    pub touched_feats: Vec<u32>,
    /// Cache entries removed by the targeted invalidation sweep.
    pub invalidated: usize,
    /// Vertices whose cached gather the sweep considered affected.
    pub affected: usize,
    /// Virtual ticks of update lag (injected delays + retry backoff).
    pub lag_ticks: u64,
    /// In-place alias repairs this batch performed.
    pub repairs: u64,
    /// Alias slots rewritten by those repairs.
    pub repaired_slots: u64,
}

/// One epoch-pinned gather result.
#[derive(Debug, Clone)]
pub struct Gathered {
    /// The epoch the vector was computed (or cached) at.
    pub epoch: u64,
    /// The aggregated k-hop feature vector.
    pub vector: Arc<Vec<f32>>,
}

#[derive(Debug)]
struct Metrics {
    batches: Arc<Counter>,
    ev_add: Arc<Counter>,
    ev_remove: Arc<Counter>,
    ev_attr: Arc<Counter>,
    lag: Arc<Histogram>,
    epoch: Arc<Gauge>,
    pin_age: Arc<Histogram>,
    latency: Arc<Histogram>,
    gathers: Arc<Counter>,
    repairs: Arc<Counter>,
    repaired_slots: Arc<Counter>,
    /// Overlay entries of the published epoch: out-rows, in-rows, features.
    overlay_rows: [Arc<Gauge>; 3],
}

impl Metrics {
    fn registered(registry: &Registry) -> Self {
        Metrics {
            batches: registry.counter("streaming.ingest.batches", &[]),
            ev_add: registry.counter("streaming.ingest.events", &[("kind", "add")]),
            ev_remove: registry.counter("streaming.ingest.events", &[("kind", "remove")]),
            ev_attr: registry.counter("streaming.ingest.events", &[("kind", "attr")]),
            lag: registry.histogram("streaming.ingest.lag_ticks", &[]),
            epoch: registry.gauge("streaming.epoch", &[]),
            pin_age: registry.histogram("streaming.epoch.pin_age", &[]),
            latency: registry.histogram("streaming.serve.latency_ns", &[]),
            gathers: registry.counter("streaming.serve.gathers", &[]),
            repairs: registry.counter("streaming.alias.repairs", &[]),
            repaired_slots: registry.counter("streaming.alias.repaired_slots", &[]),
            overlay_rows: ["out", "in", "feat"]
                .map(|kind| registry.gauge("streaming.overlay.rows", &[("kind", kind)])),
        }
    }
}

/// The live service: shared by the updater and any number of reader
/// threads (`&self` everywhere except [`shutdown`](Self::shutdown)).
#[derive(Debug)]
pub struct StreamingService {
    epochs: Published<EpochView>,
    /// Gathered vectors, tagged with the epoch they were computed at.
    cache: VersionedCache<u32, Arc<Vec<f32>>>,
    pipeline: Mutex<IngestPipeline>,
    fanouts: Vec<usize>,
    seed: u64,
    metrics: Metrics,
}

impl StreamingService {
    /// Starts the service with detached (unpublished) telemetry.
    pub fn start(
        base: Arc<AttributedHeterogeneousGraph>,
        feats: Arc<FeatureMatrix>,
        config: StreamingConfig,
    ) -> Self {
        Self::start_with_registry(base, feats, config, &Registry::disabled())
    }

    /// Starts the service: builds the base alias columns once and publishes
    /// epoch 0 behind one ingest hop per shard. All `streaming.*` (and,
    /// when a fault plan is armed, `chaos.*`) series land in `registry`.
    pub fn start_with_registry(
        base: Arc<AttributedHeterogeneousGraph>,
        feats: Arc<FeatureMatrix>,
        config: StreamingConfig,
        registry: &Registry,
    ) -> Self {
        let base_alias = base_alias(&base);
        let fault = config.fault.unwrap_or_default();
        let plane = FaultPlane::registered(fault.plan, registry);
        let view = EpochView::initial(base, feats, base_alias);
        StreamingService {
            epochs: Published::new(view),
            cache: VersionedCache::registered(config.cache_capacity, registry, "streaming.cache"),
            pipeline: Mutex::new(IngestPipeline::new(config.shards.max(1), plane, fault.policy)),
            fanouts: config.fanouts,
            seed: config.seed,
            metrics: Metrics::registered(registry),
        }
    }

    /// Applies one batch on the caller's thread: checks it, crosses the
    /// (possibly faulted) ingest channel once per shard, applies it to the
    /// head once and commits the result as the next epoch, with the plane's
    /// targeted cache sweep. The pipeline lock is held through the commit,
    /// so concurrent callers cross the channel in the order they publish:
    /// strictly increasing epochs in submit order.
    pub fn ingest(&self, batch: &UpdateBatch) -> Result<IngestReceipt, IngestError> {
        let mut pipeline = self.pipeline.lock();
        let writer = self.epochs.write();
        let head = writer.head();
        head.check(batch).map_err(|(index, reason)| IngestError::BadEvent { index, reason })?;
        let hops = pipeline.resolve()?;
        let (next, applied) = head.apply_batch(batch);
        let overlay_rows = next.overlay_rows();
        let done = commit(writer, next, applied, self.fanouts.len(), &self.cache)?;
        drop(pipeline);
        for ev in &batch.events {
            match ev.kind() {
                "add" => self.metrics.ev_add.inc(),
                "remove" => self.metrics.ev_remove.inc(),
                _ => self.metrics.ev_attr.inc(),
            }
        }
        self.metrics.batches.inc();
        self.metrics.lag.record(hops.lag_ticks);
        self.metrics.repairs.add(done.applied.repairs);
        self.metrics.repaired_slots.add(done.applied.repaired_slots);
        self.metrics.epoch.set(done.epoch as i64);
        for (gauge, rows) in self.metrics.overlay_rows.iter().zip(overlay_rows) {
            gauge.set(rows as i64);
        }
        Ok(IngestReceipt {
            epoch: done.epoch,
            touched_rows: done.applied.touched.rows,
            touched_feats: done.applied.touched.feats,
            invalidated: done.invalidated,
            affected: done.affected,
            lag_ticks: hops.lag_ticks,
            repairs: done.applied.repairs,
            repaired_slots: done.applied.repaired_slots,
        })
    }

    /// Opens a session pinned to the current epoch.
    pub fn session(&self) -> Session<'_> {
        Session { svc: self, pin: self.epochs.pin() }
    }

    /// The latest published epoch.
    pub fn current_epoch(&self) -> u64 {
        self.epochs.current_epoch()
    }

    /// Counter snapshot of the sample cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The bit-exact equivalence oracle: every vertex's alias table — a
    /// slice of the base columns or an incrementally maintained table —
    /// must equal a from-scratch rebuild of its live row (same bits, and
    /// `None` for a row with none), an incremental table's stored weights
    /// must mirror the row weights, and every live cache entry must equal
    /// a fresh recompute at the current epoch. `Err` carries the first
    /// divergence found.
    pub fn oracle_check(&self) -> Result<(), String> {
        let view = self.epochs.pin();
        let mut row_w: Vec<f32> = Vec::new();
        for v in (0..view.num_vertices() as u32).map(VertexId) {
            let (row, alias) = view.out_row_and_alias(v);
            row_w.clear();
            row_w.extend(row.iter().map(|n| n.weight));
            let fresh = AliasTable::new(&row_w);
            let same = match (alias, &fresh) {
                (Some(t), Some(fresh)) => t.bit_eq(&fresh.as_slice()),
                (None, None) => true,
                _ => false,
            };
            if !same {
                return Err(format!("vertex {}: alias table != rebuild of its row", v.0));
            }
        }
        for (v, inc) in view.alias_entries() {
            let row_w: Vec<f32> =
                view.out_neighbors(VertexId(v)).iter().map(|n| n.weight).collect();
            if inc.weights().len() != row_w.len()
                || inc.weights().iter().zip(&row_w).any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err(format!("vertex {v}: alias weights diverge from its row"));
            }
        }
        if self.cache.version() == view.epoch() {
            for (v, data) in self.cache.entries() {
                let fresh = compute_gather(&view, VertexId(v), self.seed, &self.fanouts);
                if fresh.len() != data.len()
                    || fresh.iter().zip(data.iter()).any(|(a, b)| a.to_bits() != b.to_bits())
                {
                    return Err(format!("cache entry {v} != recompute at epoch {}", view.epoch()));
                }
            }
        }
        Ok(())
    }

    /// Drops the service. Ingest runs on its callers' threads, so there is
    /// nothing to stop or join; the consuming signature is kept for the
    /// callers written against the worker pool (`perf/` among them).
    pub fn shutdown(self) {}
}

/// The alias table of every base out-row, built once at startup as two
/// columns over the base's out-edge ids.
pub(crate) fn base_alias(base: &AttributedHeterogeneousGraph) -> Option<Arc<AliasColumns>> {
    Some(Arc::new(AliasColumns::build(base)))
}

/// A reader's handle: one pinned epoch for its whole lifetime.
#[derive(Debug)]
pub struct Session<'a> {
    svc: &'a StreamingService,
    pin: Arc<EpochView>,
}

impl Session<'_> {
    /// The epoch every gather of this session reads.
    pub fn epoch(&self) -> u64 {
        self.pin.epoch()
    }

    /// Gathers `v`'s k-hop feature vector at the pinned epoch. Serves from
    /// the sample cache only when the cache is still at this session's
    /// epoch — and a hit is then bit-correct by construction: entries that
    /// survived every targeted sweep since insertion have unchanged k-hop
    /// regions, so a recompute would produce the same bits.
    pub fn gather(&self, v: VertexId) -> Gathered {
        let _span = Span::enter(&self.svc.metrics.latency);
        self.svc.metrics.gathers.inc();
        let age = self.svc.epochs.current_epoch().saturating_sub(self.pin.epoch());
        self.svc.metrics.pin_age.record(age);
        if self.pin.epoch() == self.svc.cache.version() {
            if let Some(hit) = self.svc.cache.get(&v.0) {
                return Gathered { epoch: self.pin.epoch(), vector: hit };
            }
        }
        let vector = Arc::new(compute_gather(&self.pin, v, self.svc.seed, &self.svc.fanouts));
        self.svc.cache.insert(v.0, self.pin.epoch(), Arc::clone(&vector));
        Gathered { epoch: self.pin.epoch(), vector }
    }

    /// Cosine similarity of two gathers at the pinned epoch (the serving
    /// bench's request shape: user x item).
    pub fn score(&self, u: VertexId, i: VertexId) -> f32 {
        cosine(&self.gather(u).vector, &self.gather(i).vector)
    }

    /// The pinned graph version itself. Its feature rows are the closed
    /// loop's re-pull source: touched rows are re-read at the epoch the
    /// delta trainer trains against.
    pub fn view(&self) -> &EpochView {
        &self.pin
    }
}

/// The pure gather: alias-weighted k-hop sampling + hop-decayed feature
/// aggregation, seeded from `(service seed, vertex)` only.
fn compute_gather(view: &EpochView, v: VertexId, seed: u64, fanouts: &[usize]) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(mix2(seed, v.0 as u64));
    let mut acc: Vec<f32> = view.features(v).to_vec();
    let mut frontier = vec![v];
    for (hop, &fanout) in fanouts.iter().enumerate() {
        let scale = 1.0 / (hop + 2) as f32;
        let mut next = Vec::with_capacity(frontier.len() * fanout);
        for &u in &frontier {
            let (row, alias) = view.out_row_and_alias(u);
            if row.is_empty() {
                continue;
            }
            for _ in 0..fanout {
                let pick = match alias {
                    Some(t) => t.sample(&mut rng),
                    // Degenerate weights (e.g. all zero): uniform fallback.
                    None => rng.gen_range(0..row.len()),
                };
                next.push(row[pick].vertex);
            }
        }
        for &u in &next {
            for (a, f) in acc.iter_mut().zip(view.features(u)) {
                *a += scale * f;
            }
        }
        frontier = next;
    }
    acc
}

fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let (mut dot, mut na, mut nb) = (0.0f32, 0.0f32, 0.0f32);
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::UpdateEvent;
    use aligraph_chaos::{FaultPlan, RetryPolicy};
    use aligraph_graph::ids::well_known::*;
    use aligraph_graph::{AttrVector, Featurizer, GraphBuilder};

    /// a chain 0 -> 1 -> 2 -> 3 -> 4 plus an isolated far vertex 5.
    fn service(config: StreamingConfig) -> StreamingService {
        service_with_registry(config, &Registry::disabled())
    }

    fn service_with_registry(config: StreamingConfig, registry: &Registry) -> StreamingService {
        let mut b = GraphBuilder::directed();
        let vs: Vec<VertexId> = (0..6).map(|_| b.add_vertex(USER, AttrVector::empty())).collect();
        for w in vs[..5].windows(2) {
            b.add_edge(w[0], w[1], CLICK, 1.0).unwrap();
        }
        let g = Arc::new(b.build());
        let feats = Arc::new(Featurizer::new(8).matrix(&g));
        StreamingService::start_with_registry(g, feats, config, registry)
    }

    fn add(src: u32, dst: u32) -> UpdateEvent {
        UpdateEvent::AddEdge { src: VertexId(src), dst: VertexId(dst), etype: CLICK, weight: 2.0 }
    }

    #[test]
    fn gathers_are_deterministic_and_cached() {
        let svc = service(StreamingConfig::default());
        let s = svc.session();
        let a = s.gather(VertexId(0));
        let b = s.gather(VertexId(0));
        assert_eq!(a.vector, b.vector);
        assert_eq!(svc.cache_stats().hits, 1);
        // A fresh service with the same seed produces the same bits.
        let svc2 = service(StreamingConfig::default());
        let c = svc2.session().gather(VertexId(0));
        assert_eq!(a.vector, c.vector);
    }

    #[test]
    fn sessions_keep_their_epoch_and_updates_change_later_gathers() {
        let svc = service(StreamingConfig::default());
        let old = svc.session();
        let before = old.gather(VertexId(0));
        let receipt = svc.ingest(&UpdateBatch { events: vec![add(1, 4)] }).unwrap();
        assert_eq!(receipt.epoch, 1);
        assert_eq!(receipt.touched_rows, vec![1]);
        assert_eq!(receipt.repairs, 1);
        // Vertex 0 reaches the touched row 1 within kmax-1 hops: affected.
        assert!(receipt.affected >= 2, "row 1 and its reverse reach");
        // The old session still reads epoch 0 bits (session consistency).
        let again = old.gather(VertexId(0));
        assert_eq!(again.epoch, 0);
        assert_eq!(before.vector, again.vector);
        // A new session sees the new epoch and (with 1->4 in play) can
        // sample a different neighborhood for vertex 0.
        let new = svc.session();
        assert_eq!(new.epoch(), 1);
        svc.oracle_check().unwrap();
    }

    #[test]
    fn unrelated_updates_leave_cache_entries_warm() {
        let svc = service(StreamingConfig::default());
        let s = svc.session();
        let _ = s.gather(VertexId(5)); // isolated vertex, cached
        let receipt = svc.ingest(&UpdateBatch { events: vec![add(0, 2)] }).unwrap();
        assert_eq!(receipt.invalidated, 0, "vertex 5 is outside the affected set");
        // New session at the new epoch hits the surviving entry.
        let hit = svc.session().gather(VertexId(5));
        assert_eq!(hit.epoch, 1);
        assert_eq!(svc.cache_stats().hits, 1);
        svc.oracle_check().unwrap();
    }

    #[test]
    fn bad_events_are_refused_before_anything_is_sent() {
        let svc = service(StreamingConfig::default());
        let cached = svc.session().gather(VertexId(0));
        let bad = [
            add(1, 6), // dangling dst: would panic a later gather through vertex 1
            UpdateEvent::AddEdge {
                src: VertexId(1),
                dst: VertexId(2),
                etype: CLICK,
                weight: f32::NAN,
            },
            UpdateEvent::SetFeatures { vertex: VertexId(0), features: vec![1.0; 3] },
        ];
        for ev in bad {
            let batch = UpdateBatch { events: vec![add(0, 2), ev] };
            let refused = svc.ingest(&batch);
            assert!(matches!(refused, Err(IngestError::BadEvent { index: 1, .. })), "{refused:?}");
        }
        // No epoch moved, the cached entry is still served, and the ingest
        // sequence was not consumed: the next good batch is epoch 1.
        assert_eq!(svc.current_epoch(), 0);
        assert!(Arc::ptr_eq(&cached.vector, &svc.session().gather(VertexId(0)).vector));
        assert_eq!(svc.ingest(&UpdateBatch { events: vec![add(0, 2)] }).unwrap().epoch, 1);
        svc.oracle_check().unwrap();
    }

    /// The published out-rows, by vertex.
    fn rows(svc: &StreamingService) -> Vec<Vec<aligraph_graph::Neighbor>> {
        let view = svc.epochs.pin();
        (0..6).map(|v| view.out_neighbors(VertexId(v)).to_vec()).collect()
    }

    #[test]
    fn exhausted_ingest_reaches_no_shard_and_leaves_the_service_usable() {
        // One send per message at a 50% fault rate. Shard 0's hop succeeds
        // under both seeds; shard 1's is a drop under seed 9 (a batch sent
        // half-way leaves shard 1's sequencer waiting on a gap, and the next
        // ingest with it) and a lost ack under seed 2 (the copy lands: a
        // batch reported as failed gets published with the next epoch).
        for seed in [9, 2] {
            let fault = Some(FaultConfig {
                plan: FaultPlan::with_seed(seed, 0.5),
                policy: RetryPolicy { base_ticks: 1, max_attempts: 1 },
            });
            let svc = Arc::new(service(StreamingConfig { shards: 2, fault, ..Default::default() }));
            let failed = svc.ingest(&UpdateBatch { events: vec![add(0, 1), add(1, 2)] });
            assert!(
                matches!(failed, Err(IngestError::RetriesExhausted { shard: 1, seq: 0, .. })),
                "seed {seed}: {failed:?}"
            );
            assert_eq!(svc.current_epoch(), 0);

            svc.pipeline.lock().plane.disarm();
            let next = UpdateBatch { events: vec![add(2, 4)] };
            let (done_tx, done) = std::sync::mpsc::channel();
            let (ingester, batch) = (Arc::clone(&svc), next.clone());
            std::thread::spawn(move || done_tx.send(ingester.ingest(&batch)));
            let receipt = done
                .recv_timeout(std::time::Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("seed {seed}: ingest after a failed one hangs"))
                .unwrap();
            assert_eq!((receipt.epoch, svc.current_epoch()), (1, 1));

            let clean = service(StreamingConfig { shards: 2, ..Default::default() });
            clean.ingest(&next).unwrap();
            assert_eq!(rows(&svc), rows(&clean), "seed {seed}: the failed batch left a trace");
            svc.oracle_check().unwrap();
            clean.shutdown();
        }
    }

    #[test]
    fn feature_updates_invalidate_the_touched_vertex_itself() {
        let svc = service(StreamingConfig::default());
        let s = svc.session();
        let before = s.gather(VertexId(5));
        let receipt = svc
            .ingest(&UpdateBatch {
                events: vec![UpdateEvent::SetFeatures {
                    vertex: VertexId(5),
                    features: vec![9.0; 8],
                }],
            })
            .unwrap();
        assert_eq!(receipt.invalidated, 1);
        let after = svc.session().gather(VertexId(5));
        assert_ne!(before.vector, after.vector);
        assert_eq!(after.vector[0], 9.0);
        svc.oracle_check().unwrap();
    }

    /// What a reader can see of one graph version: per vertex, the words of
    /// its out-row (neighbor, weight bits), alias-table bits and feature bits.
    fn everything(view: &EpochView) -> Vec<Vec<u32>> {
        (0..view.num_vertices() as u32)
            .map(|v| {
                let (row, alias) = view.out_row_and_alias(VertexId(v));
                let mut words = vec![row.len() as u32];
                words.extend(row.iter().flat_map(|n| [n.vertex.0, n.weight.to_bits()]));
                words.extend(alias.iter().flat_map(|t| t.probs()).map(|p| p.to_bits()));
                words.extend(view.features(VertexId(v)).iter().map(|f| f.to_bits()));
                words
            })
            .collect()
    }

    /// A 300-vertex chain: ids span three index levels.
    fn long_chain_with(config: StreamingConfig) -> StreamingService {
        let mut b = GraphBuilder::directed();
        let vs: Vec<VertexId> = (0..300).map(|_| b.add_vertex(USER, AttrVector::empty())).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], CLICK, 1.0).unwrap();
        }
        let g = Arc::new(b.build());
        let feats = Arc::new(Featurizer::new(8).matrix(&g));
        StreamingService::start(g, feats, config)
    }

    fn long_chain() -> StreamingService {
        long_chain_with(StreamingConfig::default())
    }

    /// A fold of every word [`everything`] lists, and of every in-row.
    fn digest(view: &EpochView) -> u64 {
        let mut h = 0u64;
        for (v, words) in everything(view).into_iter().enumerate() {
            let in_row = view.in_neighbors(VertexId(v as u32));
            let in_words = in_row.iter().flat_map(|n| [n.vertex.0, n.weight.to_bits()]);
            for w in words.into_iter().chain([in_row.len() as u32]).chain(in_words) {
                h = mix2(h, w as u64);
            }
        }
        h
    }

    /// 240 batches of adds, retractions, feature rewrites and base-edge
    /// removals (the later ones misses) end at the same bits on any number
    /// of ingest shards: the digest the service produced when each shard
    /// kept an overlay of the vertices it owned.
    #[test]
    fn a_long_stream_ends_at_the_golden_digest_on_any_shard_count() {
        const GOLDEN: u64 = 0x0906_d00c_2d35_7cc4;
        for shards in 1..=3 {
            let svc = long_chain_with(StreamingConfig { shards, ..Default::default() });
            let mut updates = crate::UpdateWorkload::new(33, 300, 8);
            for i in 0..240u32 {
                let mut batch = updates.next_batch(8, 2);
                let src = VertexId(i % 150);
                let dst = VertexId(src.0 + 1);
                batch.events.push(UpdateEvent::RemoveEdge { src, dst, etype: CLICK });
                svc.ingest(&batch).unwrap();
            }
            assert_eq!(digest(svc.session().view()), GOLDEN, "{shards} shards");
            svc.oracle_check().unwrap();
        }
    }

    /// Every vertex's gather after a 240-batch stream, folded: the weighted
    /// draws of `compute_gather` (a column slice or a repaired table) are
    /// pinned bit for bit, which the state digest above does not see.
    #[test]
    fn a_long_stream_gathers_to_the_pinned_digest() {
        let svc = long_chain();
        let mut updates = crate::UpdateWorkload::new(33, 300, 8);
        for _ in 0..240u32 {
            svc.ingest(&updates.next_batch(8, 2)).unwrap();
        }
        let session = svc.session();
        let mut h = 0u64;
        for v in 0..300u32 {
            for x in session.gather(VertexId(v)).vector.iter() {
                h = mix2(h, u64::from(x.to_bits()));
            }
        }
        assert_eq!(h, 0xc0de_150f_bce1_fcc3, "gather digest {h:#018x}");
    }

    #[test]
    fn pins_taken_along_a_long_stream_keep_reading_what_they_read() {
        let svc = long_chain();
        let mut updates = crate::UpdateWorkload::new(11, 300, 8);
        let mut pins = Vec::new();
        for batch in 0..300u64 {
            if batch % 50 == 0 {
                let session = svc.session();
                let read = everything(session.view());
                pins.push((session, read));
            }
            // Each batch retracts the previous one's additions.
            let receipt = svc.ingest(&updates.next_batch(8, 2)).unwrap();
            assert_eq!(receipt.epoch, batch + 1);
        }
        for (session, read) in &pins {
            assert_eq!(&everything(session.view()), read, "pin of epoch {}", session.epoch());
        }
        // The versions really differed, and the newest one is sound.
        assert_ne!(pins[0].1, everything(svc.session().view()));
        svc.oracle_check().unwrap();
        drop(pins);
    }

    #[test]
    fn concurrent_writers_publish_a_gapless_log_that_replays_serially() {
        // Ingest runs on its callers' threads: the pipeline lock is all that
        // orders four writers racing from one barrier.
        const WRITERS: usize = 4;
        const BATCHES: usize = 25;
        let svc = long_chain();
        let start = std::sync::Barrier::new(WRITERS);
        let mut log: Vec<(u64, UpdateBatch)> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS as u64)
                .map(|w| {
                    let (svc, start) = (&svc, &start);
                    scope.spawn(move || {
                        let mut updates = crate::UpdateWorkload::new(100 + w, 300, 8);
                        start.wait();
                        (0..BATCHES)
                            .map(|_| {
                                let batch = updates.next_batch(8, 2);
                                (svc.ingest(&batch).unwrap().epoch, batch)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            writers.into_iter().flat_map(|w| w.join().expect("writer panicked")).collect()
        });
        log.sort_by_key(|(epoch, _)| *epoch);
        let epochs: Vec<u64> = log.iter().map(|(epoch, _)| *epoch).collect();
        assert_eq!(epochs, (1..=(WRITERS * BATCHES) as u64).collect::<Vec<_>>());
        svc.oracle_check().unwrap();
        // The same batches, one writer, in the order the epochs say they
        // applied: every row, alias table and feature vector is equal.
        let serial = long_chain();
        for (epoch, batch) in &log {
            assert_eq!(serial.ingest(batch).unwrap().epoch, *epoch);
        }
        assert_eq!(everything(svc.session().view()), everything(serial.session().view()));
    }

    #[test]
    fn overlay_size_gauges_follow_the_published_epoch_and_change_nothing() {
        let registry = Registry::new();
        let base = service(StreamingConfig::default());
        let metered = service_with_registry(StreamingConfig::default(), &registry);
        let batch = UpdateBatch {
            events: vec![
                add(0, 2),
                add(1, 2),
                UpdateEvent::SetFeatures { vertex: VertexId(5), features: vec![3.0; 8] },
            ],
        };
        let (a, b) = (base.ingest(&batch).unwrap(), metered.ingest(&batch).unwrap());
        assert_eq!((a.touched_rows, a.affected), (b.touched_rows, b.affected));
        for v in 0..6 {
            let (x, y) =
                (base.session().gather(VertexId(v)), metered.session().gather(VertexId(v)));
            assert_eq!(x.vector, y.vector, "telemetry on vs off, vertex {v}");
        }
        // Two out-rows (0, 1), one in-row (2), one feature override (5).
        assert_eq!(metered.epochs.pin().overlay_rows(), [2, 1, 1]);
        let snap = registry.snapshot();
        for (kind, rows) in [("out", 2), ("in", 1), ("feat", 1)] {
            assert_eq!(snap.gauge("streaming.overlay.rows", &[("kind", kind)]), rows, "{kind}");
        }
    }
}
