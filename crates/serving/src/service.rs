//! The online serving service: bounded admission, worker pinning, batched
//! forward passes, versioned caching, and delta-driven invalidation.
//!
//! Request flow:
//!
//! 1. A client calls [`ServingService::embedding`] / [`score`]. The request
//!    is routed to the worker that *owns* the vertex under the storage
//!    partition (shard affinity: the seed's 1-hop row is a local read for
//!    that worker). Admission is a `try_send` onto the worker's bounded
//!    queue — a full queue rejects immediately with a retry hint instead of
//!    buffering without bound ([`ServeError::Overloaded`]).
//! 2. The worker drains an adaptive micro-batch (flush on size or deadline,
//!    [`crate::batcher`]), pins the current [`EpochView`] of the graph plane,
//!    and resolves the batch's *unique* vertices: embedding-cache hits are
//!    reused, misses run the k-hop SAMPLE → AGGREGATE → COMBINE forward on
//!    one shared memoizing [`EpisodeTape`], so overlapping neighborhoods
//!    within the batch are computed once (§3.4 applied to inference).
//! 3. [`ServingService::apply_delta`] commits the delta to the plane
//!    ([`EpochManager::commit`]): the next version copy-on-write, and exactly
//!    the cache entries whose k-hop neighborhood it touched invalidated;
//!    version-tagged inserts keep in-flight batches from publishing stale
//!    results.
//!
//! [`score`]: ServingService::score

use crate::batcher::next_batch;
use crate::error::ServeError;
use crate::metrics::{ServingMetrics, ServingReport};
use aligraph::{EpisodeTape, GnnEncoder};
use aligraph_chaos::{
    FaultConfig, FaultPlane, HopKind, RecoveryMode, RetryPolicy, SERVING_FETCH_TAG,
};
use aligraph_graph::dynamic::{SnapshotDelta, UpdateBatch};
use aligraph_graph::features::{FeatureMatrix, Featurizer};
use aligraph_graph::{AttributedHeterogeneousGraph, VertexId};
use aligraph_partition::{EdgeCutHash, Partitioner};
use aligraph_sampling::{affected, EpochManager, EpochView, NeighborhoodSampler, Touched};
use aligraph_storage::{AccessKind, AccessStats, CacheStats, CostModel, VersionedCache};
use aligraph_telemetry::Registry;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`ServingService`].
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Worker threads; vertices are pinned to workers by the storage
    /// partitioner, so this is also the shard count.
    pub workers: usize,
    /// Per-worker admission queue depth; `try_send` beyond it rejects.
    pub queue_capacity: usize,
    /// Micro-batch size cap.
    pub max_batch: usize,
    /// Micro-batch latency budget: a batch is flushed at the latest this
    /// long after its first request arrived.
    pub max_batch_delay: Duration,
    /// Input feature dimension (hashed from vertex attributes).
    pub feature_dim: usize,
    /// Per-hop output dimensions of the encoder.
    pub dims: Vec<usize>,
    /// Per-hop sampling fan-outs (`dims.len()` == `fanouts.len()`).
    pub fanouts: Vec<usize>,
    /// Embedding-cache capacity (entries).
    pub cache_capacity: usize,
    /// Seed for encoder weights and per-worker sampling RNG streams. All
    /// workers build identical encoder replicas from this seed.
    pub seed: u64,
    /// Optional chaos-plane attachment. The plane wraps the inter-shard
    /// k-hop gather a cache miss implies on a partitioned store
    /// ([`SERVING_FETCH_TAG`], keyed by the seed's owner shard). A fetch
    /// whose retries exhaust falls back to the last successfully computed
    /// embedding for that vertex *if* it is at most `max_stale_versions`
    /// graph versions old — served with `degraded = true` and counted under
    /// `serving.degraded`. Entries staler than the bound are never served;
    /// the request fails with [`ServeError::Unavailable`] instead.
    pub fault: Option<FaultConfig>,
    /// How many graph versions old a fallback embedding may be and still be
    /// served (degraded) when the live fetch fails. Read only with `fault`.
    pub max_stale_versions: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            workers: 2,
            queue_capacity: 256,
            max_batch: 32,
            max_batch_delay: Duration::from_millis(2),
            feature_dim: 16,
            dims: vec![32, 16],
            fanouts: vec![8, 4],
            cache_capacity: 4096,
            seed: 7,
            fault: None,
            max_stale_versions: 8,
        }
    }
}

/// An embedding plus the explicit degraded-mode tag: `degraded` is `true`
/// when the live shard fetch failed and the result came from the bounded
/// fallback store (at most `max_stale_versions` versions old).
#[derive(Debug, Clone)]
pub struct ServedEmbedding {
    /// The (L2-normalized) embedding vector.
    pub embedding: Arc<Vec<f32>>,
    /// Whether this result was served from the stale-but-bounded fallback.
    pub degraded: bool,
}

/// Where a job's result (or the per-request failure raised inside the
/// batch) goes.
type ReplyTo<T> = Sender<Result<T, ServeError>>;

/// How often a caller looks for its reply, yielding the CPU between looks,
/// before it parks on the reply channel — about 0.4 ms, several forwards. A
/// caller that parks at once pays a thread wake-up per request, and on a
/// virtualised host a wake-up that finds its CPU halted costs more than the
/// forward it waits for, by an amount that changes from minute to minute. A
/// yielding caller keeps the CPU awake and hands it to the worker; a reply
/// that takes longer than this (a deep queue) is waited for parked, as before.
const REPLY_POLLS: usize = 1_000;

/// What a job asks for, holding the reply channel of that answer's type.
enum JobKind {
    Embed {
        reply: ReplyTo<ServedEmbedding>,
    },
    /// Cosine score against a second vertex (resolved in the same batch).
    Score {
        other: VertexId,
        reply: ReplyTo<f32>,
    },
}

struct Job {
    vertex: VertexId,
    kind: JobKind,
    enqueued: Instant,
}

/// Version-tagged fallback entries: vertex → (graph epoch at capture,
/// embedding).
type FallbackStore = HashMap<u32, (u64, Arc<Vec<f32>>)>;

/// State shared by the front-end handle and all workers.
struct Shared<S> {
    /// The graph plane: workers pin one epoch per micro-batch, and the
    /// pinned view's owner table routes requests.
    epochs: EpochManager,
    features: Arc<FeatureMatrix>,
    /// Served embeddings, tagged with the epoch they were computed against.
    cache: VersionedCache<u32, Arc<Vec<f32>>>,
    metrics: ServingMetrics,
    stats: AccessStats,
    cost: CostModel,
    config: ServingConfig,
    sampler: S,
    /// The chaos plane and the fetches' retry budget, when `config.fault`
    /// is set.
    fault: Option<(FaultPlane, RetryPolicy)>,
    /// Version-tagged fallback embeddings for degraded mode. Deliberately
    /// *not* invalidated by deltas — surviving invalidation is its purpose;
    /// the version tag is what bounds how stale a served entry can be.
    fallback: Mutex<FallbackStore>,
}

/// The online inference front-end. Cheap to share by reference; dropping it
/// joins the workers.
pub struct ServingService<S: NeighborhoodSampler + Clone + Send + Sync + 'static> {
    shared: Arc<Shared<S>>,
    senders: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl<S: NeighborhoodSampler + Clone + Send + Sync + 'static> std::fmt::Debug for ServingService<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingService").field("workers", &self.workers.len()).finish()
    }
}

impl<S: NeighborhoodSampler + Clone + Send + Sync + 'static> ServingService<S> {
    /// Partitions `graph`, spawns the worker pool, and returns the serving
    /// handle. Encoder weights are derived from `config.seed` (every worker
    /// holds an identical replica, so routing never changes a result).
    /// Telemetry stays detached; use
    /// [`start_with_registry`](Self::start_with_registry) to publish it.
    pub fn start(
        graph: Arc<AttributedHeterogeneousGraph>,
        sampler: S,
        config: ServingConfig,
    ) -> Self {
        Self::start_with_registry(graph, sampler, config, &Registry::disabled())
    }

    /// Like [`start`](Self::start), publishing the service's metrics, cache
    /// events, and seed-level access tiers under `serving.*` in `registry`.
    pub fn start_with_registry(
        graph: Arc<AttributedHeterogeneousGraph>,
        sampler: S,
        config: ServingConfig,
        registry: &Registry,
    ) -> Self {
        assert!(config.workers >= 1, "at least one worker");
        assert!(
            !config.fanouts.is_empty() && config.dims.len() == config.fanouts.len(),
            "dims and fanouts must be non-empty and of equal length"
        );
        let features = Arc::new(Featurizer::new(config.feature_dim).matrix(&graph));
        let part = EdgeCutHash.partition(&graph, config.workers);
        let owners = Arc::new(part.vertex_owner.iter().map(|w| w.index() as u32).collect());
        // No base alias index: the encoder's samplers read rows, not tables.
        let view = EpochView::initial(
            graph,
            Arc::clone(&features),
            Arc::default(),
            owners,
            config.workers,
        );
        let fault = config
            .fault
            .as_ref()
            .map(|fc| (FaultPlane::registered(fc.plan.clone(), registry), fc.policy));
        let shared = Arc::new(Shared {
            epochs: EpochManager::new(view),
            features,
            cache: VersionedCache::registered(config.cache_capacity, registry, "serving.cache"),
            metrics: ServingMetrics::registered(registry),
            stats: AccessStats::registered(registry, "serving"),
            cost: CostModel::default(),
            config,
            sampler,
            fault,
            fallback: Mutex::new(HashMap::new()),
        });
        let mut senders = Vec::new();
        let mut workers = Vec::new();
        for w in 0..shared.config.workers {
            let (tx, rx) = bounded::<Job>(shared.config.queue_capacity);
            senders.push(tx);
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(shared, rx, w)));
        }
        ServingService { shared, senders, workers }
    }

    /// The current embedding of `v` (L2-normalized, `dims.last()` wide).
    pub fn embedding(&self, v: VertexId) -> Result<Arc<Vec<f32>>, ServeError> {
        Ok(self.embedding_tagged(v)?.embedding)
    }

    /// Like [`embedding`](Self::embedding), keeping the degraded-mode tag:
    /// `degraded = true` means the live shard fetch failed under the chaos
    /// plane and the result came from the bounded fallback store.
    pub fn embedding_tagged(&self, v: VertexId) -> Result<ServedEmbedding, ServeError> {
        self.submit(v, |reply| JobKind::Embed { reply })
    }

    /// Cosine similarity of the current embeddings of `u` and `v` — the
    /// recommendation-style "score this candidate" call.
    pub fn score(&self, u: VertexId, v: VertexId) -> Result<f32, ServeError> {
        self.owner_of(v)?;
        self.submit(u, |reply| JobKind::Score { other: v, reply })
    }

    /// The worker that owns `v` under the current epoch's owner table.
    fn owner_of(&self, v: VertexId) -> Result<usize, ServeError> {
        let pin = self.shared.epochs.pin();
        let owner = pin.owners().get(v.index()).ok_or(ServeError::UnknownVertex(v))?;
        Ok(*owner as usize)
    }

    /// Enqueues one job on `v`'s owner and waits for its answer, looking
    /// [`REPLY_POLLS`] times before parking; `kind` wraps the reply channel,
    /// so a job can only be answered in its own type.
    fn submit<T>(
        &self,
        v: VertexId,
        kind: impl FnOnce(ReplyTo<T>) -> JobKind,
    ) -> Result<T, ServeError> {
        let owner = self.owner_of(v)?;
        let (tx, rx) = bounded(1);
        // aligraph::allow(determinism-taint): enqueue timestamp
        // feeds only the queue-latency histogram; no control flow reads it.
        let job = Job { vertex: v, kind: kind(tx), enqueued: Instant::now() };
        match self.senders[owner].try_send(job) {
            Ok(()) => self.shared.metrics.admitted(),
            Err(TrySendError::Full(_)) => {
                self.shared.metrics.rejected();
                return Err(ServeError::Overloaded {
                    queue_capacity: self.shared.config.queue_capacity,
                    retry_after_ms: self.retry_hint_ms(),
                });
            }
            Err(TrySendError::Disconnected(_)) => return Err(ServeError::ShuttingDown),
        }
        for _ in 0..REPLY_POLLS {
            match rx.try_recv() {
                Ok(reply) => return reply,
                Err(TryRecvError::Empty) => std::thread::yield_now(),
                Err(TryRecvError::Disconnected) => break,
            }
        }
        rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Rough time for the rejected worker to drain one queue's worth of
    /// requests, from the observed mean latency. Purely advisory.
    fn retry_hint_ms(&self) -> u64 {
        let mean_us = self.shared.metrics.mean_latency_us().max(100);
        let per_batch = self.shared.config.max_batch.max(1) as u64;
        let batches = (self.shared.config.queue_capacity as u64).div_ceil(per_batch);
        (batches * mean_us / 1_000).clamp(1, 1_000)
    }

    /// Applies an online graph update: lowers the delta to the plane's
    /// update vocabulary and commits it — the next copy-on-write version is
    /// published and exactly the cached embeddings whose k-hop neighborhood
    /// the changed rows can reach are invalidated. Returns how many cache
    /// entries were invalidated; a delta that fails the plane's admission
    /// check (an unknown vertex id) applies nothing and returns 0.
    pub fn apply_delta(&self, delta: &SnapshotDelta) -> usize {
        let batch = UpdateBatch::from(delta);
        if self.shared.epochs.pin().check(&batch).is_err() {
            return 0;
        }
        let kmax = self.shared.config.fanouts.len();
        self.shared
            .epochs
            .commit(kmax, &self.shared.cache, |pre| pre.apply_batch(&batch))
            .invalidated
    }

    /// The graph version requests are currently served against.
    pub fn graph_version(&self) -> u64 {
        self.shared.epochs.current_epoch()
    }

    /// A read-only pin of the current graph version (for recompute checks).
    pub fn overlay_snapshot(&self) -> Arc<EpochView> {
        self.shared.epochs.pin()
    }

    /// Embedding-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Encoder forward passes run so far (dedup evidence: stays below the
    /// number of completed requests whenever batching or caching helps).
    pub fn forwards_so_far(&self) -> u64 {
        self.shared.metrics.forwards_so_far()
    }

    /// The effective configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.shared.config
    }

    /// The attached chaos plane, when the service was started with a
    /// [`ServingConfig::fault`]. Tests arm/disarm it to bracket fault phases.
    pub fn fault_plane(&self) -> Option<&FaultPlane> {
        self.shared.fault.as_ref().map(|(plane, _)| plane)
    }

    /// Full latency/throughput report over `elapsed`.
    pub fn report(&self, elapsed: Duration) -> ServingReport {
        self.shared.metrics.report(elapsed, self.shared.cache.stats(), self.shared.stats.snapshot())
    }

    /// Stops admission and joins the workers (also done on drop).
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.senders.clear(); // disconnects queues; workers drain then exit
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<S: NeighborhoodSampler + Clone + Send + Sync + 'static> Drop for ServingService<S> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Serving keys whose embedding a delta may change: the plane's
/// [`affected`] rule over the out-rows of the delta's source endpoints (a
/// superset of the rows [`ServingService::apply_delta`] finds changed),
/// ascending and duplicate-free.
pub fn affected_seeds(
    pre: &EpochView,
    post: &EpochView,
    delta: &SnapshotDelta,
    kmax: usize,
) -> Vec<VertexId> {
    let rows: BTreeSet<u32> = delta.added.iter().chain(&delta.removed).map(|e| e.src.0).collect();
    affected(pre, post, &Touched { rows: rows.into_iter().collect(), feats: Vec::new() }, kmax)
}

fn worker_loop<S: NeighborhoodSampler + Clone + Send + Sync + 'static>(
    shared: Arc<Shared<S>>,
    rx: Receiver<Job>,
    worker: usize,
) {
    let cfg = &shared.config;
    // An encoder replica: same seed on every worker => identical weights.
    let encoder = GnnEncoder::sage(cfg.feature_dim, &cfg.dims, &cfg.fanouts, 0.01, cfg.seed);
    let sampler = shared.sampler.clone();
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ ((worker as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    let mut tape = EpisodeTape::new();
    // Message counter for this worker's faulted remote fetches; the channel
    // keys the owner shard, so (channel, seq) identifies each fetch.
    let mut next_seq = 0u64;

    while let Some(batch) = next_batch(&rx, cfg.max_batch, cfg.max_batch_delay) {
        // Pin the graph version once per batch; the whole batch is
        // answered against this consistent view.
        let pin = shared.epochs.pin();
        let (view, version) = (pin.as_ref(), pin.epoch());
        let owner_of = |v: VertexId| view.owners()[v.index()] as usize;
        tape.clear();
        let (hits0, misses0) = tape.stats();

        // Unique vertices the batch needs (dedup across requests).
        let batch_len = batch.len();
        let mut needed: Vec<VertexId> = Vec::new();
        let mut resolved: HashMap<u32, ServedEmbedding> = HashMap::new();
        let mut failed: HashMap<u32, ServeError> = HashMap::new();
        for job in &batch {
            needed.push(job.vertex);
            if let JobKind::Score { other, .. } = &job.kind {
                needed.push(*other);
            }
        }
        needed.sort_unstable_by_key(|v| v.0);
        needed.dedup();

        let mut misses: Vec<VertexId> = Vec::new();
        for &v in &needed {
            let owned = owner_of(v) == worker;
            if let Some(e) = shared.cache.get(&v.0) {
                // Seed-level accounting: a cache hit spares the k-hop work;
                // for a non-owned vertex that is the remote fetch the cache
                // absorbed.
                let kind = if owned { AccessKind::Local } else { AccessKind::CachedRemote };
                shared.stats.record(kind, &shared.cost);
                resolved.insert(v.0, ServedEmbedding { embedding: e, degraded: false });
                continue;
            }
            let kind = if owned { AccessKind::Local } else { AccessKind::Remote };
            shared.stats.record(kind, &shared.cost);
            // A cache miss forces a k-hop gather whose deeper hops cross
            // into remote shards on a partitioned store; with a chaos plane
            // attached that gather can fail past the retry deadline, at
            // which point the worker serves the bounded fallback (degraded)
            // or, beyond the staleness bound, fails the request.
            if let Some((plane, policy)) = &shared.fault {
                let channel =
                    FaultPlane::channel_with(SERVING_FETCH_TAG, worker as u64, owner_of(v) as u64);
                let seq = next_seq;
                next_seq += 1;
                // Fetches are idempotent reads nobody acknowledges: a lost
                // ack is a delivery, a delay costs only virtual time, and
                // the forward runs after the hop (nothing lands in flight).
                let fetched = plane.deliver(
                    channel,
                    seq,
                    policy,
                    RecoveryMode::Full,
                    HopKind::Unacked,
                    || {},
                );
                if fetched.is_err() {
                    let entry = shared.fallback.lock().get(&v.0).cloned();
                    match entry {
                        Some((ver, emb))
                            if version.saturating_sub(ver) <= cfg.max_stale_versions =>
                        {
                            shared.metrics.degraded();
                            resolved
                                .insert(v.0, ServedEmbedding { embedding: emb, degraded: true });
                        }
                        entry => {
                            let stale_by =
                                entry.map_or(u64::MAX, |(ver, _)| version.saturating_sub(ver));
                            failed.insert(
                                v.0,
                                ServeError::Unavailable {
                                    vertex: v,
                                    stale_by,
                                    bound: cfg.max_stale_versions,
                                },
                            );
                        }
                    }
                    continue;
                }
            }
            misses.push(v);
        }
        // One forward over every cache miss of the batch: one COMBINE per
        // hop, however many seeds missed.
        let idxs =
            encoder.forward_batch(view, &shared.features, &sampler, &misses, &mut tape, &mut rng);
        let forwards = misses.len();
        for (&v, idx) in misses.iter().zip(idxs) {
            let mut out = tape.output(idx).to_vec();
            aligraph_tensor::l2_normalize(&mut out);
            let out = Arc::new(out);
            shared.cache.insert(v.0, version, Arc::clone(&out));
            if shared.fault.is_some() {
                // Refresh the fallback on every successful forward so
                // degraded mode serves the freshest surviving result.
                shared.fallback.lock().insert(v.0, (version, Arc::clone(&out)));
            }
            resolved.insert(v.0, ServedEmbedding { embedding: out, degraded: false });
        }

        // Record batch counters before replying so a client that acts on its
        // reply (e.g. asks for a report) sees its own request counted.
        let (hits1, misses1) = tape.stats();
        shared.metrics.batch(batch_len, forwards, hits1 - hits0, misses1 - misses0);

        // invariant: a vertex missing from `resolved` always has a `failed`
        // entry — the resolution loop inserts into exactly one of the two
        // maps for every needed vertex.
        let answer = |v: VertexId| {
            resolved
                .get(&v.0)
                .ok_or_else(|| failed.get(&v.0).expect("unresolved vertex has failure").clone())
        };
        for job in batch {
            shared.metrics.latency(job.enqueued.elapsed());
            // A client that gave up (dropped the receiver) is not an error.
            match job.kind {
                JobKind::Embed { reply } => {
                    let _ = reply.send(answer(job.vertex).cloned());
                }
                JobKind::Score { other, reply } => {
                    let score = answer(job.vertex).and_then(|a| {
                        Ok(aligraph_tensor::dot(&a.embedding, &answer(other)?.embedding))
                    });
                    let _ = reply.send(score);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::dynamic::{EdgeEvent, EvolutionKind};
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_graph::ids::well_known::CLICK;
    use aligraph_sampling::TopKNeighborhood;

    fn small_service() -> (Arc<AttributedHeterogeneousGraph>, ServingService<TopKNeighborhood>) {
        let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
        let config =
            ServingConfig { max_batch_delay: Duration::from_micros(200), ..Default::default() };
        let service = ServingService::start(Arc::clone(&graph), TopKNeighborhood, config);
        (graph, service)
    }

    #[test]
    fn serves_normalized_deterministic_embeddings() {
        let (_graph, service) = small_service();
        let a = service.embedding(VertexId(0)).unwrap();
        let b = service.embedding(VertexId(0)).unwrap();
        assert_eq!(a, b, "TopK sampling + fixed weights must be deterministic");
        assert_eq!(a.len(), service.config().dims.last().copied().unwrap());
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4, "norm {norm}");
        service.shutdown();
    }

    #[test]
    fn served_embedding_matches_offline_embed_batch() {
        let (graph, service) = small_service();
        let cfg = service.config().clone();
        let encoder = GnnEncoder::sage(cfg.feature_dim, &cfg.dims, &cfg.fanouts, 0.01, cfg.seed);
        let features = Featurizer::new(cfg.feature_dim).matrix(&graph);
        let mut rng = StdRng::seed_from_u64(999); // irrelevant under TopK
        for v in [0u32, 3, 17, 40] {
            let served = service.embedding(VertexId(v)).unwrap();
            let offline = encoder.embed_batch(
                &*graph,
                &features,
                &TopKNeighborhood,
                &[VertexId(v)],
                &mut rng,
            );
            assert_eq!(served.as_slice(), offline.row(0), "vertex {v}");
        }
    }

    #[test]
    fn score_is_the_cosine_of_served_embeddings() {
        let (_graph, service) = small_service();
        let (u, v) = (VertexId(1), VertexId(2));
        let s = service.score(u, v).unwrap();
        let eu = service.embedding(u).unwrap();
        let ev = service.embedding(v).unwrap();
        let dot: f32 = eu.iter().zip(ev.iter()).map(|(a, b)| a * b).sum();
        assert!((s - dot).abs() < 1e-6);
    }

    #[test]
    fn unknown_vertex_is_rejected_up_front() {
        let (graph, service) = small_service();
        let bad = VertexId(graph.num_vertices() as u32);
        assert_eq!(service.embedding(bad), Err(ServeError::UnknownVertex(bad)));
        assert_eq!(service.score(VertexId(0), bad), Err(ServeError::UnknownVertex(bad)));
    }

    #[test]
    fn apply_delta_bumps_version_and_invalidates() {
        let (graph, service) = small_service();
        // Warm the cache over a spread of vertices.
        for v in 0..graph.num_vertices() as u32 {
            service.embedding(VertexId(v)).unwrap();
        }
        assert_eq!(service.graph_version(), 0);
        let delta = SnapshotDelta {
            added: vec![EdgeEvent {
                src: VertexId(0),
                dst: VertexId(1),
                etype: CLICK,
                kind: EvolutionKind::Normal,
            }],
            removed: vec![],
        };
        let dropped = service.apply_delta(&delta);
        assert_eq!(service.graph_version(), 1);
        assert!(dropped >= 1, "at least the touched vertex drops");
        assert_eq!(service.cache_stats().invalidations as usize, dropped);
        // Serving gave the plane no alias index, so the touched row keeps
        // no table either.
        assert!(service.overlay_snapshot().alias(VertexId(0)).is_none());
    }

    #[test]
    fn a_delta_naming_an_unknown_vertex_applies_nothing() {
        let (graph, service) = small_service();
        let cached = service.embedding(VertexId(0)).unwrap();
        let far = VertexId(graph.num_vertices() as u32);
        for (src, dst) in [(far, VertexId(0)), (VertexId(0), far)] {
            let ev = EdgeEvent { src, dst, etype: CLICK, kind: EvolutionKind::Normal };
            assert_eq!(service.apply_delta(&SnapshotDelta { added: vec![ev], removed: vec![] }), 0);
            assert_eq!(service.apply_delta(&SnapshotDelta { added: vec![], removed: vec![ev] }), 0);
        }
        // No version was published and the cached entry is still served.
        assert_eq!(service.graph_version(), 0);
        assert!(Arc::ptr_eq(&cached, &service.embedding(VertexId(0)).unwrap()));
        assert_eq!(service.forwards_so_far(), 1);
    }

    #[test]
    fn start_with_registry_publishes_serving_series() {
        let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
        let registry = Registry::new();
        let config =
            ServingConfig { max_batch_delay: Duration::from_micros(200), ..Default::default() };
        let service = ServingService::start_with_registry(
            Arc::clone(&graph),
            TopKNeighborhood,
            config,
            &registry,
        );
        for _ in 0..3 {
            service.embedding(VertexId(1)).unwrap();
        }
        let direct = service.report(Duration::from_secs(1));
        let snap = registry.snapshot();
        assert_eq!(direct.completed, 3);
        assert_eq!(snap.counter("serving.completed", &[]), direct.completed);
        assert_eq!(CacheStats::from_snapshot(&snap, "serving.cache"), direct.cache);
        let access = direct.access;
        for (tier, n) in [
            ("local", access.local),
            ("cached_remote", access.cached_remote),
            ("remote", access.remote),
            ("cold", access.cold),
        ] {
            assert_eq!(snap.counter("serving.access", &[("tier", tier)]), n, "{tier}");
        }
        assert_eq!(snap.counter("serving.access.replacements", &[]), access.replacements);
        assert_eq!(snap.counter("serving.access.virtual_ns", &[]), access.virtual_ns);
        assert_eq!(snap.counter("serving.requests", &[("outcome", "admitted")]), 3);
        assert!(snap.histogram("serving.latency_ns", &[]).count >= 3);
        service.shutdown();
    }

    fn click_delta(i: u32) -> SnapshotDelta {
        SnapshotDelta {
            added: vec![EdgeEvent {
                src: VertexId(i % 4),
                dst: VertexId(i % 4 + 1),
                etype: CLICK,
                kind: EvolutionKind::Normal,
            }],
            removed: vec![],
        }
    }

    #[test]
    fn degraded_serves_within_staleness_bound_then_errors_beyond() {
        let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
        let n = graph.num_vertices() as u32;
        let registry = Registry::new();
        let config = ServingConfig {
            // Capacity 1 forces a cache miss (and hence a faulted fetch for
            // non-owned vertices) on essentially every request.
            cache_capacity: 1,
            max_batch_delay: Duration::from_micros(200),
            fault: Some(FaultConfig {
                plan: aligraph_chaos::FaultPlan::with_seed(21, 0.95),
                policy: RetryPolicy { base_ticks: 1, max_attempts: 2 },
            }),
            max_stale_versions: 3,
            ..Default::default()
        };
        let service = ServingService::start_with_registry(
            Arc::clone(&graph),
            TopKNeighborhood,
            config,
            &registry,
        );
        let plane = service.fault_plane().expect("fault plane configured");

        // Phase 1 (plane disarmed): warm the fallback store fault-free at
        // version 0; every vertex gets a fresh forward.
        plane.disarm();
        for v in 0..n {
            service.embedding(VertexId(v)).expect("fault-free warmup");
        }

        // Phase 2: two deltas move the graph to version 2 — fallback entries
        // from version 0 are 2 versions stale, inside the bound of 3.
        for i in 0..2 {
            service.apply_delta(&click_delta(i));
        }
        plane.arm();
        let mut degraded = 0usize;
        for v in 0..n {
            let e = service.embedding_tagged(VertexId(v)).expect("within bound: always served");
            if e.degraded {
                degraded += 1;
            }
        }
        assert!(degraded > 0, "a 95% drop rate must degrade some non-owned serves");
        let report = service.report(Duration::from_secs(1));
        assert_eq!(report.degraded as usize, degraded);
        assert!(registry.snapshot().counter("serving.degraded", &[]) > 0);

        // Phase 3: two more deltas (version 4). Vertices whose fallback was
        // last refreshed at version 0 are now beyond the bound — a failed
        // fetch must error, never serve the over-stale entry.
        for i in 2..4 {
            service.apply_delta(&click_delta(i));
        }
        let mut unavailable = 0usize;
        for v in 0..n {
            match service.embedding_tagged(VertexId(v)) {
                Ok(_) => {}
                Err(ServeError::Unavailable { stale_by, bound, .. }) => {
                    assert!(stale_by > bound, "stale_by {stale_by} must exceed bound {bound}");
                    unavailable += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(unavailable > 0, "stale-beyond-bound fetch failures must surface as errors");
        service.shutdown();
    }

    #[test]
    fn repeated_requests_hit_the_cache_not_the_encoder() {
        let (_graph, service) = small_service();
        for _ in 0..50 {
            service.embedding(VertexId(5)).unwrap();
        }
        assert_eq!(service.forwards_so_far(), 1);
        let report = service.report(Duration::from_secs(1));
        assert_eq!(report.completed, 50);
        assert!(report.forwards < report.completed);
        assert!(report.cache.hits >= 49);
    }
}
