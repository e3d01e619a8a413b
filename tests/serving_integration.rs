//! Integration tests for the online serving layer: freshness under dynamic
//! updates, bounded-queue backpressure, and batching dedup — the three
//! behaviours the serving design guarantees.

#![expect(
    clippy::expect_used,
    reason = "a failed fixture setup in a test helper aborts the test, as in the #[test] itself"
)]

use aligraph_suite::core::GnnEncoder;
use aligraph_suite::graph::dynamic::{EdgeEvent, EvolutionKind, SnapshotDelta};
use aligraph_suite::graph::features::Featurizer;
use aligraph_suite::graph::generate::TaobaoConfig;
use aligraph_suite::graph::{Neighbor, VertexId};
use aligraph_suite::sampling::{NeighborhoodSampler, TopKNeighborhood};
use aligraph_suite::serving::{ServeError, ServingConfig, ServingService};
use aligraph_telemetry::Stopwatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

fn tiny_graph() -> Arc<aligraph_suite::graph::AttributedHeterogeneousGraph> {
    Arc::new(TaobaoConfig::tiny().generate().expect("valid config"))
}

/// After a delta lands, every served embedding must equal a from-scratch
/// recompute on the post-delta graph — the cache may never serve the
/// pre-delta value. TopK sampling makes the forward deterministic, so
/// "fresh" is a strict equality, not a tolerance.
#[test]
fn no_stale_embeddings_after_delta() {
    let graph = tiny_graph();
    let config = ServingConfig::default();
    let service = ServingService::start(Arc::clone(&graph), TopKNeighborhood, config);
    let cfg = service.config().clone();

    // Pick a vertex with fewer out-edges than the top-level fan-out, so the
    // deterministic TopK draw uses its whole row and the edge swap below is
    // guaranteed to change the sampled neighborhood. Warm its cache entry.
    let top_fanout = *cfg.fanouts.last().unwrap();
    let v = (0..graph.num_vertices() as u32)
        .map(VertexId)
        .find(|&v| {
            let d = graph.out_neighbors(v).len();
            d >= 1 && d < top_fanout
        })
        .expect("some vertex has a small out-row");
    let before = service.embedding(v).unwrap();

    // Remove v's first out-edge and add a fresh one — both touch v's row.
    let first: Neighbor = graph.out_neighbors(v)[0];
    let n = graph.num_vertices() as u32;
    let target =
        (1..n).map(|off| VertexId((v.0 + off) % n)).find(|&t| t != v && t != first.vertex).unwrap();
    let delta = SnapshotDelta {
        added: vec![EdgeEvent {
            src: v,
            dst: target,
            etype: first.etype,
            kind: EvolutionKind::Normal,
        }],
        removed: vec![EdgeEvent {
            src: v,
            dst: first.vertex,
            etype: first.etype,
            kind: EvolutionKind::Normal,
        }],
    };
    let dropped = service.apply_delta(&delta);
    assert!(dropped >= 1, "v's cached embedding must be invalidated");

    // Served value after the delta == offline recompute on the new graph.
    let served = service.embedding(v).unwrap();
    let overlay = service.overlay_snapshot();
    let encoder = GnnEncoder::sage(cfg.feature_dim, &cfg.dims, &cfg.fanouts, 0.01, cfg.seed);
    let features = Featurizer::new(cfg.feature_dim).matrix(&graph);
    let mut rng = StdRng::seed_from_u64(1); // unused under TopK
    let fresh = encoder.embed_batch(&*overlay, &features, &TopKNeighborhood, &[v], &mut rng);
    assert_eq!(served.as_slice(), fresh.row(0), "served embedding must be the fresh recompute");

    // And the neighborhood change actually flowed through (the edge swap
    // changed v's 1-hop row, so the embedding moved).
    assert_ne!(served.as_slice(), before.as_slice(), "delta changed v's row");
}

/// A sampler whose first call announces that its caller holds the combiner
/// and then blocks until the gate opens — pins the combiner for exactly as
/// long as the test needs it, with no sleep to out-wait.
#[derive(Clone)]
struct GatedSampler(Arc<Gate>);

/// `(entered, open)` under one lock, and the condition both wait on. Each
/// update sets one flag, so a poisoned lock still holds valid state (and
/// the drop guard below must not panic).
#[derive(Default)]
struct Gate(Mutex<(bool, bool)>, Condvar);

impl Gate {
    fn wait_until(&self, done: impl Fn(&(bool, bool)) -> bool) {
        let mut state = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        while !done(&state) {
            state = self.1.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn set(&self, update: impl FnOnce(&mut (bool, bool))) {
        update(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner));
        self.1.notify_all();
    }
}

/// Opens the gate when dropped, so a failed assertion releases the blocked
/// combiner instead of hanging the scope that joins it.
struct OpenOnDrop<'a>(&'a Gate);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.set(|state| state.1 = true);
    }
}

impl NeighborhoodSampler for GatedSampler {
    fn sample_one<R: Rng>(
        &self,
        target: VertexId,
        nbrs: &[Neighbor],
        count: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        self.0.set(|state| state.0 = true);
        self.0.wait_until(|state| state.1);
        TopKNeighborhood.sample_one(target, nbrs, count, rng)
    }
}

/// When the owning worker's bounded queue is full, admission fails *now*
/// with a retry hint — it does not block the caller behind the queue.
#[test]
fn overflowing_the_queue_rejects_with_retry_hint_without_blocking() {
    let graph = tiny_graph();
    let config = ServingConfig {
        workers: 1,
        queue_capacity: 1,
        max_batch: 1,
        cache_capacity: 0, // every request must run the (gated) forward
        ..Default::default()
    };
    let gate = Arc::new(Gate::default());
    let service =
        ServingService::start(Arc::clone(&graph), GatedSampler(Arc::clone(&gate)), config);
    let service = &service;

    std::thread::scope(|scope| {
        let _open = OpenOnDrop(&gate);
        // First request: it takes the combiner, drains its own slot from the
        // pending list and blocks in the sampler.
        scope.spawn(move || {
            let _ = service.embedding(VertexId(0));
        });
        gate.wait_until(|state| state.0);
        // Second request: admitted into the empty pending list (capacity 1),
        // where it stays while the combiner is held. Admission and publish
        // are one step under the pending lock, so once it is counted it is
        // pending.
        scope.spawn(move || {
            let _ = service.embedding(VertexId(1));
        });
        while service.report(Duration::ZERO).requests < 2 {
            std::thread::yield_now();
        }

        // Third request: queue full — must reject immediately.
        let start = Stopwatch::start();
        let result = service.embedding(VertexId(2));
        let waited = start.elapsed();
        match result {
            Err(ServeError::Overloaded { queue_capacity, retry_after_ms }) => {
                assert_eq!(queue_capacity, 1);
                assert!(retry_after_ms >= 1, "hint must be actionable");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert!(
            waited < Duration::from_millis(100),
            "rejection must not block behind the queue (waited {waited:?})"
        );
        let report = service.report(start.elapsed());
        assert!(report.rejected >= 1);
    });
}

/// Concurrent clients hammering a small popular set: batching + the
/// embedding cache must answer the load with strictly fewer encoder
/// forwards (k-hop sampler walks) than requests.
#[test]
fn batched_path_issues_fewer_sampler_walks_than_requests() {
    let graph = tiny_graph();
    let config = ServingConfig { workers: 2, max_batch: 16, ..Default::default() };
    let service = ServingService::start(Arc::clone(&graph), TopKNeighborhood, config);
    let service = &service;

    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 100;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(c as u64);
                for _ in 0..PER_CLIENT {
                    // Popularity-skewed traffic over 16 hot vertices.
                    let v = VertexId(rng.gen_range(0..16u32));
                    loop {
                        match service.embedding(v) {
                            Ok(_) => break,
                            Err(ServeError::Overloaded { retry_after_ms, .. }) => {
                                std::thread::sleep(Duration::from_millis(retry_after_ms.min(2)));
                            }
                            Err(e) => panic!("unexpected serve error: {e}"),
                        }
                    }
                }
            });
        }
    });

    let report = service.report(Duration::from_secs(1));
    assert_eq!(report.completed, (CLIENTS * PER_CLIENT) as u64);
    assert!(
        report.forwards < report.completed,
        "dedup evidence: {} forwards for {} requests",
        report.forwards,
        report.completed
    );
    // 16 distinct vertices, one forward each is the floor.
    assert!(report.forwards >= 16);
    assert!(report.cache.hits + report.tape_hits > 0, "sharing must have happened");
}
