//! The online serving service: bounded admission, per-shard flat combining,
//! batched forward passes, versioned caching, and delta-driven invalidation.
//! No thread belongs to the service; every request runs on its caller's.
//!
//! Request flow:
//!
//! 1. A client calls [`ServingService::embedding`] / [`score`]. The request
//!    belongs to the shard that *owns* the vertex under the storage
//!    partition; when that shard's pending list is full it is rejected at
//!    once with a retry hint ([`ServeError::Overloaded`]), before it touches
//!    the cache.
//! 2. An admitted request probes the embedding cache. When every vertex it
//!    needs hits, the answer is returned at once: a hit waits for nobody.
//! 3. A miss publishes its slot on the shard's pending list and `try_lock`s
//!    the shard's owner state. Whoever holds it *combines* (flat combining;
//!    Hendler, Incze, Shavit & Tzafrir, SPAA 2010): it takes up to
//!    `max_batch` pending slots, oldest first, pins the current
//!    [`EpochView`], and runs the *unique* vertices their probes missed
//!    through one k-hop forward on one memoizing [`EpisodeTape`] (§3.4
//!    applied to inference), answering every slot it took, until its own is
//!    answered. A batch is whatever queued while the previous one ran, so
//!    batching follows load with no timer.
//! 4. [`ServingService::apply_delta`] commits the delta to the plane
//!    ([`commit`]): the next version copy-on-write, and exactly
//!    the cache entries whose k-hop neighborhood it touched invalidated;
//!    version-tagged inserts keep in-flight batches from publishing stale
//!    results.
//!
//! [`score`]: ServingService::score

use crate::error::ServeError;
use crate::metrics::{ServingMetrics, ServingReport};
use aligraph::{EpisodeTape, GnnEncoder};
use aligraph_chaos::{
    FaultConfig, FaultPlane, HopKind, RetryPolicy, SeqCounter, SERVING_FETCH_TAG,
};
use aligraph_graph::dynamic::{SnapshotDelta, UpdateBatch};
use aligraph_graph::features::{FeatureMatrix, Featurizer};
use aligraph_graph::{AttributedHeterogeneousGraph, VertexId};
use aligraph_partition::EdgeCutHash;
use aligraph_sampling::{affected, commit, AliasColumns, EpochView, NeighborhoodSampler, Touched};
use aligraph_storage::{AccessKind, AccessStats, CacheStats, CostModel, Published, VersionedCache};
use aligraph_telemetry::{Registry, Stopwatch};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for a [`ServingService`].
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Shard count: vertices are pinned to shards by the storage
    /// partitioner, and each shard combines its own micro-batches. No thread
    /// is started per shard.
    pub workers: usize,
    /// Per-shard pending-list depth; a request arriving at a full list is
    /// rejected.
    pub queue_capacity: usize,
    /// Micro-batch size cap.
    pub max_batch: usize,
    /// Input feature dimension (hashed from vertex attributes).
    pub feature_dim: usize,
    /// Per-hop output dimensions of the encoder.
    pub dims: Vec<usize>,
    /// Per-hop sampling fan-outs (`dims.len()` == `fanouts.len()`).
    pub fanouts: Vec<usize>,
    /// Embedding-cache capacity (entries).
    pub cache_capacity: usize,
    /// Seed for encoder weights and per-shard sampling RNG streams. All
    /// shards build identical encoder replicas from this seed.
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

/// How often a caller whose miss another caller is combining looks again —
/// for its answer, or for the owner lock — yielding the CPU between looks,
/// before it parks on the lock: about 0.4 ms, several forwards. On a
/// virtualised host a parked caller's wake-up can cost more than the
/// forward it waits for.
const SPINS: usize = 1_000;

/// Shard `shard`'s sampling RNG stream under `seed`.
fn shard_rng(seed: u64, shard: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ ((shard as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// The result for each of a request's two vertices.
type Answer = [Result<ServedEmbedding, ServeError>; 2];

/// A live (not degraded) answer.
fn served(embedding: &Arc<Vec<f32>>) -> ServedEmbedding {
    ServedEmbedding { embedding: Arc::clone(embedding), degraded: false }
}

/// One request: its vertex and a second one — a score's other endpoint, or
/// the vertex itself for an embedding — with what the caller's cache probe
/// found for each, so a combiner looks no key up twice. A probe's hit
/// answers its own slot only: another slot of the batch may have been
/// issued after a delta invalidated that entry. A combiner fills `answer`
/// while it holds the owner lock; only the caller takes it.
struct Slot {
    vertices: [VertexId; 2],
    probed: [Option<Arc<Vec<f32>>>; 2],
    answer: Mutex<Option<Answer>>,
}

/// What a shard's combiner runs with: an encoder replica, the memoizing
/// tape, the shard's sampling RNG stream and its fetch-message counter.
struct OwnerState<S> {
    shard: usize,
    encoder: GnnEncoder,
    sampler: S,
    rng: StdRng,
    tape: EpisodeTape,
    /// Message counter for this shard's faulted remote fetches; the channel
    /// keys the owner shard, so (channel, seq) identifies each fetch.
    seqs: SeqCounter,
}

/// One owner shard: the misses waiting for a combiner and the state a
/// combiner holds.
struct Shard<S> {
    /// Published slots no combiner has taken yet, oldest first; at most
    /// `queue_capacity`.
    pending: Mutex<VecDeque<Arc<Slot>>>,
    owner: Mutex<OwnerState<S>>,
}

/// Version-tagged fallback entries: vertex → (graph epoch at capture,
/// embedding).
type FallbackStore = HashMap<u32, (u64, Arc<Vec<f32>>)>;

/// The online inference front-end. Cheap to share by reference: every
/// request runs on its caller's thread.
pub struct ServingService<S: NeighborhoodSampler + Clone> {
    /// The graph plane: a combiner pins one epoch per micro-batch.
    epochs: Published<EpochView>,
    /// Vertex → owner shard, from the storage partition: routes requests
    /// and keys the fetch channels.
    owners: Vec<u32>,
    features: Arc<FeatureMatrix>,
    /// Served embeddings, tagged with the epoch they were computed against.
    cache: VersionedCache<u32, Arc<Vec<f32>>>,
    metrics: ServingMetrics,
    stats: AccessStats,
    cost: CostModel,
    config: ServingConfig,
    /// The chaos plane and the fetches' retry budget, when `config.fault`
    /// is set.
    fault: Option<(FaultPlane, RetryPolicy)>,
    /// Version-tagged fallback embeddings for degraded mode. Deliberately
    /// *not* invalidated by deltas — surviving invalidation is its purpose;
    /// the version tag is what bounds how stale a served entry can be.
    fallback: Mutex<FallbackStore>,
    shards: Vec<Shard<S>>,
}

impl<S: NeighborhoodSampler + Clone> std::fmt::Debug for ServingService<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingService").field("shards", &self.shards.len()).finish()
    }
}

impl<S: NeighborhoodSampler + Clone> ServingService<S> {
    /// Partitions `graph` and returns the serving handle. Encoder weights
    /// are derived from `config.seed` (every shard holds an identical
    /// replica, so routing never changes a result). Telemetry stays
    /// detached; use [`start_with_registry`](Self::start_with_registry) to
    /// publish it.
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
        assert!(config.workers >= 1, "at least one shard");
        assert!(
            !config.fanouts.is_empty() && config.dims.len() == config.fanouts.len(),
            "dims and fanouts must be non-empty and of equal length"
        );
        let features = Arc::new(Featurizer::new(config.feature_dim).matrix(&graph));
        let owners = graph.vertices().map(|v| EdgeCutHash::owner(v, config.workers).0).collect();
        // A sampler that draws by weight draws through the rows' alias
        // tables, kept as columns over the graph's out-edge ids (8 B a
        // record) and repaired on a delta; any other sampler reads rows only
        // and pays for no table.
        let columns = S::DRAWS_BY_WEIGHT.then(|| Arc::new(AliasColumns::build(&graph)));
        let view = EpochView::initial(graph, Arc::clone(&features), columns);
        let fault = config
            .fault
            .as_ref()
            .map(|fc| (FaultPlane::registered(fc.plan.clone(), registry), fc.policy));
        let shards = (0..config.workers)
            .map(|shard| Shard {
                pending: Mutex::new(VecDeque::new()),
                owner: Mutex::new(OwnerState {
                    shard,
                    encoder: GnnEncoder::sage(
                        config.feature_dim,
                        &config.dims,
                        &config.fanouts,
                        0.01,
                        config.seed,
                    ),
                    sampler: sampler.clone(),
                    rng: shard_rng(config.seed, shard),
                    tape: EpisodeTape::new(),
                    seqs: SeqCounter::default(),
                }),
            })
            .collect();
        ServingService {
            epochs: Published::new(view),
            owners,
            features,
            cache: VersionedCache::registered(config.cache_capacity, registry, "serving.cache"),
            metrics: ServingMetrics::registered(registry),
            stats: AccessStats::registered(registry, "serving"),
            cost: CostModel::default(),
            config,
            fault,
            fallback: Mutex::new(HashMap::new()),
            shards,
        }
    }

    /// The current embedding of `v` (L2-normalized, `dims.last()` wide).
    pub fn embedding(&self, v: VertexId) -> Result<Arc<Vec<f32>>, ServeError> {
        Ok(self.embedding_tagged(v)?.embedding)
    }

    /// Like [`embedding`](Self::embedding), keeping the degraded-mode tag:
    /// `degraded = true` means the live shard fetch failed under the chaos
    /// plane and the result came from the bounded fallback store.
    pub fn embedding_tagged(&self, v: VertexId) -> Result<ServedEmbedding, ServeError> {
        let [served, _] = self.submit([v, v])?;
        served
    }

    /// Cosine similarity of the current embeddings of `u` and `v` — the
    /// recommendation-style "score this candidate" call.
    pub fn score(&self, u: VertexId, v: VertexId) -> Result<f32, ServeError> {
        let [a, b] = self.submit([u, v])?;
        Ok(aligraph_tensor::dot(&a?.embedding, &b?.embedding))
    }

    /// Answers a request for `vertices` (routed by the first): from the
    /// cache on this thread when both hit, else through the owner shard's
    /// combiner.
    fn submit(&self, vertices: [VertexId; 2]) -> Result<Answer, ServeError> {
        let start = Stopwatch::start();
        let [u, v] = vertices;
        let owner_of = |v: VertexId| self.owners.get(v.index()).copied();
        let other = owner_of(v).ok_or(ServeError::UnknownVertex(v))?;
        let owner = owner_of(u).ok_or(ServeError::UnknownVertex(u))?;
        let shard = &self.shards[owner as usize];
        // Admission, probe and publish are one step under the pending lock,
        // so a rejected request never touches the cache and an admitted
        // miss always finds room.
        let mut pending = shard.pending.lock();
        if pending.len() >= self.config.queue_capacity {
            drop(pending);
            self.metrics.rejected();
            return Err(ServeError::Overloaded {
                queue_capacity: self.config.queue_capacity,
                retry_after_ms: self.retry_hint_ms(),
            });
        }
        let first = self.cache.get(&u.0);
        let second = if v == u { first.clone() } else { self.cache.get(&v.0) };
        let slot = Slot { vertices, probed: [first, second], answer: Mutex::new(None) };
        self.admit(&slot, other == owner);
        let answer = if let [Some(a), Some(b)] = &slot.probed {
            drop(pending);
            self.metrics.answered_inline();
            [Ok(served(a)), Ok(served(b))]
        } else {
            let slot = Arc::new(slot);
            pending.push_back(Arc::clone(&slot));
            drop(pending);
            self.wait(shard, &slot)
        };
        self.metrics.latency(start.elapsed());
        Ok(answer)
    }

    /// Counts an admitted request and the access tier of each vertex its
    /// probe looked up: the owner's vertex is `Local`; a score's other
    /// endpoint on another shard is `CachedRemote` on a hit (the remote
    /// fetch the cache absorbed) and `Remote` on a miss.
    fn admit(&self, slot: &Slot, other_owned: bool) {
        self.metrics.admitted();
        self.stats.record(AccessKind::Local, &self.cost);
        if slot.vertices[1] != slot.vertices[0] {
            let kind = match (other_owned, slot.probed[1].is_some()) {
                (true, _) => AccessKind::Local,
                (false, true) => AccessKind::CachedRemote,
                (false, false) => AccessKind::Remote,
            };
            self.stats.record(kind, &self.cost);
        }
    }

    /// Waits for `slot`'s answer. A caller that does not get the owner lock
    /// looks again, yielding, [`SPINS`] times and then parks on the lock,
    /// whose holder releases it only after answering every slot it took. A
    /// caller that gets it combines: it runs micro-batches of up to
    /// `max_batch` pending slots, oldest first, until its own is answered.
    fn wait(&self, shard: &Shard<S>, slot: &Slot) -> Answer {
        let mut looks = 0;
        let mut owner = loop {
            let owner =
                if looks < SPINS { shard.owner.try_lock() } else { Some(shard.owner.lock()) };
            if let Some(answer) = slot.answer.lock().take() {
                return answer;
            }
            if let Some(owner) = owner {
                break owner;
            }
            looks += 1;
            std::thread::yield_now();
        };
        // While this caller holds the lock its unanswered slot is still
        // pending, unless the combiner that took it panicked before filling
        // it.
        loop {
            let batch: Vec<Arc<Slot>> = {
                let mut pending = shard.pending.lock();
                let n = pending.len().min(self.config.max_batch.max(1));
                pending.drain(..n).collect()
            };
            if batch.is_empty() {
                return [Err(ServeError::BatchPanicked), Err(ServeError::BatchPanicked)];
            }
            self.run_batch(&mut owner, &batch);
            if let Some(answer) = slot.answer.lock().take() {
                return answer;
            }
        }
    }

    /// Rough time for a shard's combiners to drain a full pending list,
    /// from the observed mean latency. Purely advisory.
    fn retry_hint_ms(&self) -> u64 {
        let mean_us = self.metrics.mean_latency_us().max(100);
        let per_batch = self.config.max_batch.max(1) as u64;
        let batches = (self.config.queue_capacity as u64).div_ceil(per_batch);
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
        let writer = self.epochs.write();
        if writer.head().check(&batch).is_err() {
            return 0;
        }
        let (next, applied) = writer.head().apply_batch(&batch);
        let kmax = self.config.fanouts.len();
        commit(writer, next, applied, kmax, &self.cache).map_or(0, |done| done.invalidated)
    }

    /// The graph version requests are currently served against.
    pub fn graph_version(&self) -> u64 {
        self.epochs.current_epoch()
    }

    /// A read-only pin of the current graph version (for recompute checks).
    pub fn overlay_snapshot(&self) -> Arc<EpochView> {
        self.epochs.pin()
    }

    /// Embedding-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Encoder forward passes run so far (dedup evidence: stays below the
    /// number of completed requests whenever batching or caching helps).
    pub fn forwards_so_far(&self) -> u64 {
        self.metrics.forwards_so_far()
    }

    /// The effective configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// The attached chaos plane, when the service was started with a
    /// [`ServingConfig::fault`]. Tests arm/disarm it to bracket fault phases.
    pub fn fault_plane(&self) -> Option<&FaultPlane> {
        self.fault.as_ref().map(|(plane, _)| plane)
    }

    /// Full latency/throughput report over `elapsed`.
    pub fn report(&self, elapsed: Duration) -> ServingReport {
        self.metrics.report(elapsed, self.cache.stats(), self.stats.snapshot())
    }

    /// Drops the service. Requests run on their callers' threads, so there
    /// is nothing to stop or join; the consuming signature is kept for the
    /// callers written against the worker pool (`perf/` among them).
    pub fn shutdown(self) {}

    /// One micro-batch on the owner shard: pins the graph version once,
    /// computes the vertices the batch's probes missed against that one
    /// view, and fills every slot.
    fn run_batch(&self, owner: &mut OwnerState<S>, batch: &[Arc<Slot>]) {
        let cfg = &self.config;
        let pin = self.epochs.pin();
        let (view, version) = (pin.as_ref(), pin.epoch());
        let OwnerState { shard, encoder, sampler, rng, tape, seqs } = owner;
        tape.clear();
        let (hits0, misses0) = tape.stats();

        // Unique vertices some slot's probe missed (dedup across requests).
        let needed: BTreeSet<u32> = batch
            .iter()
            .flat_map(|slot| slot.vertices.iter().zip(&slot.probed))
            .filter(|(_, probed)| probed.is_none())
            .map(|(v, _)| v.0)
            .collect();

        let mut resolved: HashMap<u32, ServedEmbedding> = HashMap::new();
        let mut failed: HashMap<u32, ServeError> = HashMap::new();
        let mut misses: Vec<VertexId> = Vec::new();
        for &id in &needed {
            let v = VertexId(id);
            // A cache miss forces a k-hop gather whose deeper hops cross
            // into remote shards on a partitioned store; with a chaos plane
            // attached that gather can fail past the retry deadline, at
            // which point the combiner serves the bounded fallback
            // (degraded) or, beyond the staleness bound, fails the request.
            if let Some((plane, policy)) = &self.fault {
                let owner = self.owners[v.index()];
                let channel =
                    FaultPlane::channel_with(SERVING_FETCH_TAG, *shard as u64, owner.into());
                // Fetches are idempotent reads nobody acknowledges: a lost
                // ack is a delivery, a delay costs only virtual time, and
                // the forward runs after the hop (nothing lands in flight).
                let fetched =
                    plane.deliver(channel, seqs.next_seq(), policy, HopKind::Unacked, || {});
                if fetched.is_err() {
                    let entry = self.fallback.lock().get(&id).cloned();
                    match entry {
                        Some((ver, emb))
                            if version.saturating_sub(ver) <= cfg.max_stale_versions =>
                        {
                            self.metrics.degraded();
                            resolved.insert(id, ServedEmbedding { embedding: emb, degraded: true });
                        }
                        entry => {
                            let stale_by =
                                entry.map_or(u64::MAX, |(ver, _)| version.saturating_sub(ver));
                            failed.insert(
                                id,
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
        let idxs = encoder.forward_batch(view, &self.features, sampler, &misses, tape, rng);
        for (&v, idx) in misses.iter().zip(idxs) {
            let mut out = tape.output(idx).to_vec();
            aligraph_tensor::l2_normalize(&mut out);
            let out = Arc::new(out);
            self.cache.insert(v.0, version, Arc::clone(&out));
            if self.fault.is_some() {
                // Refresh the fallback on every successful forward so
                // degraded mode serves the freshest surviving result.
                self.fallback.lock().insert(v.0, (version, Arc::clone(&out)));
            }
            resolved.insert(v.0, served(&out));
        }

        // Record batch counters before answering so a client that acts on
        // its answer (e.g. asks for a report) sees its own request counted.
        let (hits1, misses1) = tape.stats();
        self.metrics.batch(batch.len(), misses.len(), hits1 - hits0, misses1 - misses0);

        let answer = |slot: &Slot, i: usize| {
            let Some(hit) = &slot.probed[i] else {
                let v = slot.vertices[i].0;
                #[expect(
                    clippy::expect_used,
                    reason = "the resolution loop puts every needed vertex in resolved or failed"
                )]
                let failure = || failed.get(&v).expect("unresolved vertex has failure").clone();
                return resolved.get(&v).cloned().ok_or_else(failure);
            };
            Ok(served(hit))
        };
        for slot in batch {
            *slot.answer.lock() = Some([answer(slot, 0), answer(slot, 1)]);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_graph::dynamic::{EdgeEvent, EvolutionKind};
    use aligraph_graph::generate::TaobaoConfig;
    use aligraph_graph::ids::well_known::CLICK;
    use aligraph_graph::Neighbor;
    use aligraph_partition::Partitioner;
    use aligraph_sampling::{TopKNeighborhood, WeightedNeighborhood};
    use aligraph_tensor::Matrix;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn small_service() -> (Arc<AttributedHeterogeneousGraph>, ServingService<TopKNeighborhood>) {
        let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
        let config = ServingConfig::default();
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
    fn serving_routes_by_the_hash_partitions_vertex_owners() {
        let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
        for workers in [1, 3, 4] {
            let config = ServingConfig { workers, ..Default::default() };
            let service = ServingService::start(Arc::clone(&graph), TopKNeighborhood, config);
            let part = EdgeCutHash.partition(&graph, workers);
            let want: Vec<u32> = part.vertex_owners().iter().map(|w| w.0).collect();
            assert_eq!(service.owners, want, "{workers} workers");
        }
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
        let config = ServingConfig::default();
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

    /// One client, one request at a time, over a cache small enough to
    /// evict: scores across two owners and of a vertex with itself, and a
    /// delta in the middle. The constants were measured on the worker-pool
    /// service this one replaced; every counter but `batches` must match
    /// them, because a hit answered on the caller's thread is not a batch.
    #[test]
    fn a_sequential_request_script_keeps_the_parent_counters() {
        let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
        let config = ServingConfig { workers: 2, cache_capacity: 6, ..Default::default() };
        let service = ServingService::start(Arc::clone(&graph), TopKNeighborhood, config);
        let owners = service.owners.clone();
        let v = VertexId;
        // The first vertex from `from` on that `of`'s shard does not own.
        let other_owner =
            |of: u32, from: u32| (from..).map(v).find(|u| owners[u.index()] != owners[of as usize]);
        let (far, far_cold) = (other_owner(0, 1).unwrap(), other_owner(4, 20).unwrap());
        let embeds = |ids: &[u32]| {
            for &u in ids {
                service.embedding(v(u)).unwrap();
            }
        };
        let scores = || {
            service.score(v(0), far).unwrap();
            service.score(far, v(0)).unwrap();
            service.score(v(3), v(3)).unwrap();
            service.score(v(5), v(0)).unwrap();
            service.score(v(4), far_cold).unwrap();
        };
        embeds(&[0, 1, 2, 3, 4, 5, 0, 1, 6, 7, 8, 9, 10, 0, 2]);
        scores();
        assert!(service.apply_delta(&click_delta(0)) >= 1);
        embeds(&[0, 1, 2, 3, 11, 12, 0, 5]);
        scores();

        let r = service.report(Duration::from_secs(1));
        let cache = (r.cache.hits, r.cache.misses, r.cache.evictions, r.cache.invalidations);
        assert_eq!(cache, (15, 26, 19, 1), "hits, misses, evictions, invalidations");
        let access = (r.access.local, r.access.cached_remote, r.access.remote);
        assert_eq!(access, (33, 6, 2), "local, cached_remote, remote");
        assert_eq!((r.forwards, r.completed, r.requests), (26, 33, 33));
        // `batches` is not pinned: the worker pool ran 33, one a request; a
        // combiner runs one only for each of the 24 requests with a miss.
    }

    /// The served bits of a weighted sampler: one client embeds 48 vertices,
    /// four deltas land, and it embeds them again (the invalidated ones
    /// recompute on the new version). Every embedding's bits feed one
    /// digest, so any change in how a weighted neighbor is drawn moves it.
    #[test]
    fn a_weighted_single_client_script_ends_at_its_pinned_digest() {
        let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
        let service = ServingService::start(graph, WeightedNeighborhood, ServingConfig::default());
        let mut bytes = Vec::new();
        let mut embed_all = |service: &ServingService<WeightedNeighborhood>| {
            for u in 0..48 {
                let e = service.embedding(VertexId(u)).unwrap();
                bytes.extend(e.iter().flat_map(|x| x.to_bits().to_le_bytes()));
            }
        };
        embed_all(&service);
        for i in 0..4 {
            assert!(service.apply_delta(&click_delta(i)) >= 1);
        }
        embed_all(&service);
        let digest = aligraph_storage::seal::fnv1a(&bytes);
        assert_eq!(digest, 0x0565_2a78_9518_2448, "served digest {digest:#018x}");
    }

    /// A weighted service draws through its alias columns and, after a
    /// delta, through each touched row's repaired table. Both must draw what
    /// a table built per call over the same row draws, so each served
    /// embedding equals a forward on the shard's RNG stream over the bare
    /// graph and, after the delta, over a view of it that keeps no table.
    #[test]
    fn weighted_serving_through_stored_tables_equals_a_forward_building_them_per_call() {
        let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
        // One shard and no cache: every request is a forward, in order, on
        // shard 0's stream.
        let config = ServingConfig { workers: 1, cache_capacity: 0, ..Default::default() };
        let service = ServingService::start(Arc::clone(&graph), WeightedNeighborhood, config);
        let cfg = service.config().clone();
        let encoder = GnnEncoder::sage(cfg.feature_dim, &cfg.dims, &cfg.fanouts, 0.01, cfg.seed);
        let features = Arc::clone(&service.features);
        let mut rng = shard_rng(cfg.seed, 0);
        let seeds: Vec<VertexId> = (0..48).map(VertexId).collect();
        let check = |access: &dyn Fn(VertexId, &mut StdRng) -> Matrix, rng: &mut StdRng| {
            for &v in &seeds {
                let served = service.embedding(v).unwrap();
                assert_eq!(served.as_slice(), access(v, rng).row(0), "vertex {}", v.0);
            }
        };
        let bare = |v: VertexId, rng: &mut StdRng| {
            encoder.embed_batch(&*graph, &features, &WeightedNeighborhood, &[v], rng)
        };
        check(&bare, &mut rng);

        let deltas: Vec<SnapshotDelta> = (0..4).map(click_delta).collect();
        let mut tableless = EpochView::initial(Arc::clone(&graph), Arc::clone(&features), None);
        for delta in &deltas {
            service.apply_delta(delta);
            tableless = tableless.apply(delta);
        }
        // The seeds' own rows 0..4 were touched: each draws from its repair.
        let pinned = service.overlay_snapshot();
        let repaired: Vec<u32> = pinned.alias_entries().map(|(v, _)| v).collect();
        assert_eq!(repaired, [0, 1, 2, 3]);
        let after = |v: VertexId, rng: &mut StdRng| {
            encoder.embed_batch(&tableless, &features, &WeightedNeighborhood, &[v], rng)
        };
        check(&after, &mut rng);
    }

    /// TopK, except that it panics when asked to sample `panic_on`'s row
    /// and holds the first sampling of `hold_on`'s row until released.
    #[derive(Clone)]
    struct PlantedSampler {
        panic_on: VertexId,
        hold_on: VertexId,
        held: Arc<AtomicBool>,
        go: Arc<AtomicBool>,
    }

    // ordering: SeqCst throughout; the test thread spins on `held` and sets
    // `go`, and nothing else rides on these flags.
    impl PlantedSampler {
        fn new(panic_on: VertexId, hold_on: VertexId) -> Self {
            let flag = || Arc::new(AtomicBool::new(false));
            PlantedSampler { panic_on, hold_on, held: flag(), go: flag() }
        }

        /// Returns once a combiner is held inside `hold_on`'s row.
        fn wait_held(&self) {
            while !self.held.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }

        fn release(&self) {
            self.go.store(true, Ordering::SeqCst);
        }
    }

    impl NeighborhoodSampler for PlantedSampler {
        fn sample_one<R: rand::Rng>(
            &self,
            target: VertexId,
            nbrs: &[Neighbor],
            count: usize,
            rng: &mut R,
        ) -> Vec<VertexId> {
            assert_ne!(target, self.panic_on, "planted sampler panic");
            if target == self.hold_on && !self.held.swap(true, Ordering::SeqCst) {
                while !self.go.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
            TopKNeighborhood.sample_one(target, nbrs, count, rng)
        }
    }

    /// The rows a two-hop forward of `v` may sample: `v`'s and its
    /// out-neighbours'.
    fn reach(graph: &AttributedHeterogeneousGraph, v: VertexId) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = graph.out_neighbors(v).iter().map(|n| n.vertex).collect();
        out.push(v);
        out
    }

    fn wait_pending<S: NeighborhoodSampler + Clone>(service: &ServingService<S>, n: usize) {
        while service.shards[0].pending.lock().len() < n {
            std::thread::yield_now();
        }
    }

    /// A miss's slot as `submit` publishes it.
    fn miss(v: u32) -> Arc<Slot> {
        Arc::new(Slot {
            vertices: [VertexId(v); 2],
            probed: [None, None],
            answer: Mutex::new(None),
        })
    }

    /// A combiner that panics answers the other slots of its batch with
    /// `BatchPanicked` instead of leaving their callers parked, and the
    /// shard combines again afterwards.
    #[test]
    fn a_panicking_batch_answers_its_other_slots_and_the_shard_serves_on() {
        let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
        // `a` and `c` never sample `p`'s row.
        let p = VertexId(0);
        let mut far = (1..graph.num_vertices() as u32)
            .map(VertexId)
            .filter(|&v| !reach(&graph, v).contains(&p));
        let (a, c) = (far.next().unwrap(), far.next().unwrap());
        let sampler = PlantedSampler::new(p, a);
        let config = ServingConfig { workers: 1, max_batch: 2, ..Default::default() };
        let service = ServingService::start(Arc::clone(&graph), sampler.clone(), config);
        let service = &service;
        std::thread::scope(|scope| {
            let first = scope.spawn(move || service.embedding(a));
            sampler.wait_held();
            // `a`'s combiner holds the owner lock: `p` and `c` queue behind
            // it and are combined together once it lets go.
            let panicking = scope.spawn(move || service.embedding(p));
            let other = scope.spawn(move || service.embedding(c));
            wait_pending(service, 2);
            sampler.release();
            assert!(first.join().expect("no panic").is_ok());
            let outcomes = [panicking.join(), other.join()];
            let panicked = outcomes.iter().filter(|o| o.is_err()).count();
            let aborted =
                outcomes.iter().filter(|o| matches!(o, Ok(Err(ServeError::BatchPanicked)))).count();
            assert_eq!((panicked, aborted), (1, 1), "one combiner panicked, one slot aborted");
        });
        assert!(service.embedding(c).is_ok(), "the shard combines again after a panic");
    }

    /// X's score probes `w` as a hit; then a delta changes `w` and Y, asking
    /// after it, probes a miss. When one combine takes both slots, X's probe
    /// must not answer Y: a read issued after `apply_delta` sees the delta.
    #[test]
    fn a_probe_hit_answers_only_its_own_slot() {
        let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
        let n = graph.num_vertices() as u32;
        // `w`'s row is shorter than the top fan-out, so swapping one of its
        // edges changes its embedding; warming `w` never samples `a`'s row.
        let w = (0..n).map(VertexId).find(|&v| (1..4).contains(&graph.out_neighbors(v).len()));
        let w = w.expect("some vertex has a short row");
        let a = (0..n).map(VertexId).find(|v| !reach(&graph, w).contains(v)).unwrap();
        let u = (0..n).map(VertexId).find(|&v| v != w && v != a).unwrap();
        let first = graph.out_neighbors(w)[0];
        let t = (0..n).map(VertexId).find(|t| !reach(&graph, w).contains(t)).unwrap();
        let edge = |dst| EdgeEvent { src: w, dst, etype: first.etype, kind: EvolutionKind::Normal };
        let delta = SnapshotDelta { added: vec![edge(t)], removed: vec![edge(first.vertex)] };

        let sampler = PlantedSampler::new(VertexId(u32::MAX), a);
        let config = ServingConfig { workers: 1, max_batch: 4, ..Default::default() };
        let service = ServingService::start(Arc::clone(&graph), sampler.clone(), config);
        let service = &service;
        let before = service.embedding(w).unwrap();
        let y = std::thread::scope(|scope| {
            let holder = scope.spawn(move || service.embedding(a));
            sampler.wait_held();
            let x = scope.spawn(move || service.score(u, w));
            wait_pending(service, 1);
            assert!(service.apply_delta(&delta) >= 1, "the delta invalidates w");
            let y = scope.spawn(move || service.embedding(w));
            wait_pending(service, 2);
            sampler.release();
            assert!(holder.join().unwrap().is_ok() && x.join().unwrap().is_ok());
            y.join().unwrap().unwrap()
        });
        let r = service.report(Duration::from_secs(1));
        assert_eq!(r.batches, 3, "warm-up, holder, then X and Y combined together");
        let after = service.embedding(w).unwrap();
        assert_ne!(before, after, "the delta changed w's embedding");
        assert_eq!(y, after, "Y was answered with w before the delta");
    }

    /// Five misses on a shard with `max_batch` 2: the caller of the third
    /// combines, taking the oldest two and then its own with the fourth,
    /// and leaves the fifth pending.
    #[test]
    fn a_combine_takes_at_most_max_batch_slots_oldest_first() {
        let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
        let config = ServingConfig { workers: 1, max_batch: 2, ..Default::default() };
        let service = ServingService::start(graph, TopKNeighborhood, config);
        let shard = &service.shards[0];
        let slots: Vec<Arc<Slot>> = (0..5).map(miss).collect();
        shard.pending.lock().extend(slots.iter().cloned());
        let own = service.wait(shard, &slots[2]);
        assert!(own.iter().all(Result::is_ok));
        // The caller took its own answer; the fifth slot is still pending.
        let answered: Vec<bool> = slots.iter().map(|s| s.answer.lock().is_some()).collect();
        assert_eq!(answered, [true, true, false, true, false]);
        let pending = shard.pending.lock();
        assert!(pending.len() == 1 && Arc::ptr_eq(&pending[0], &slots[4]));
        let r = service.report(Duration::from_secs(1));
        assert_eq!((r.batches, r.batched), (2, 4));
    }

    /// A full pending list rejects before the probe, so a rejected request
    /// leaves the cache's counters and recency alone — a hit included.
    #[test]
    fn a_rejected_request_leaves_the_cache_untouched() {
        let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
        let config = ServingConfig { workers: 1, queue_capacity: 1, ..Default::default() };
        let service = ServingService::start(graph, TopKNeighborhood, config);
        service.embedding(VertexId(0)).unwrap();
        let before = service.cache_stats();
        service.shards[0].pending.lock().push_back(miss(2));
        for v in [0, 1] {
            let rejected = service.embedding(VertexId(v));
            assert!(matches!(rejected, Err(ServeError::Overloaded { .. })), "{rejected:?}");
        }
        assert_eq!(service.cache_stats(), before);
        assert_eq!(service.report(Duration::from_secs(1)).rejected, 2);
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
