//! Streaming dynamic-graph service attacked end-to-end (ISSUE 6).
//!
//! The contracts pinned here:
//!
//! * **Chaos bit-exactness** — the same update log applied through a
//!   faulted ingest channel (drop/delay/duplicate at 5% and 20%) publishes
//!   the identical epoch sequence and final graph state as the fault-free
//!   run; faults only cost modelled lag ticks.
//! * **Session consistency under concurrency** — readers hammering the
//!   service while batches flow never observe a gather at any epoch other
//!   than their session's pinned one.
//! * **Fine-grained invalidation** — an update invalidates only cache
//!   entries whose k-hop frontier intersects the touched set; an untouched
//!   vertex's entry survives and is served bit-identically at the next
//!   epoch.
//! * **The rebuild oracle** — after any of the above, every incrementally
//!   repaired alias table equals a from-scratch rebuild bit-for-bit.

#![expect(
    clippy::expect_used,
    reason = "a failed fixture setup in a test helper aborts the test, as in the #[test] itself"
)]

use aligraph_suite::chaos::FaultConfig;
use aligraph_suite::graph::ids::well_known::{CLICK, USER};
use aligraph_suite::graph::{AttrVector, Featurizer, GraphBuilder, TaobaoConfig, VertexId};
use aligraph_suite::streaming::{
    StreamingConfig, StreamingService, UpdateBatch, UpdateEvent, UpdateWorkload,
};
use std::sync::Arc;

const DIM: usize = 8;

fn taobao_service(seed: u64, fault: Option<FaultConfig>) -> (StreamingService, u32) {
    let mut cfg = TaobaoConfig::small_sim().scaled(0.004);
    cfg.seed = seed;
    let graph = Arc::new(cfg.generate().expect("valid config"));
    let n = graph.num_vertices() as u32;
    let feats = Arc::new(Featurizer::new(DIM).matrix(&graph));
    let svc = StreamingService::start(
        graph,
        feats,
        StreamingConfig { shards: 2, seed, fault, ..Default::default() },
    );
    (svc, n)
}

/// Applies `rounds` seeded workload batches and returns the observable
/// trace: per-batch `(epoch, touched rows, touched feats, affected count)`
/// plus the final gathers of the first vertices — everything that must be
/// invariant under ingest-channel faults. Update lag is deliberately NOT in
/// the trace: it is the one thing faults are allowed to cost.
#[expect(clippy::type_complexity, reason = "the trace tuple is spelled out where it is built")]
fn run_trace(
    svc: &StreamingService,
    seed: u64,
    n: u32,
    rounds: usize,
) -> (Vec<(u64, Vec<u32>, Vec<u32>, usize)>, Vec<Vec<f32>>, u64) {
    let mut workload = UpdateWorkload::new(seed, n, DIM);
    let mut trace = Vec::new();
    let mut lag = 0u64;
    for _ in 0..rounds {
        let r = svc.ingest(&workload.next_batch(6, 2)).expect("ingest");
        lag += r.lag_ticks;
        trace.push((r.epoch, r.touched_rows, r.touched_feats, r.affected));
    }
    let session = svc.session();
    let gathers: Vec<Vec<f32>> =
        (0..n.min(48)).map(|v| session.gather(VertexId(v)).vector.as_ref().clone()).collect();
    (trace, gathers, lag)
}

#[test]
fn faulted_ingest_is_bit_exact_with_fault_free_run() {
    for seed in [7u64, 41] {
        let (clean, n) = taobao_service(seed, None);
        let (clean_trace, clean_gathers, clean_lag) = run_trace(&clean, seed, n, 25);
        assert_eq!(clean_lag, 0, "fault-free run must cost no modelled lag");
        clean.oracle_check().expect("clean oracle");
        clean.shutdown();

        for drop_rate in [0.05, 0.2] {
            let fault = Some(FaultConfig::with_seed(seed ^ 0xFA, drop_rate));
            let (chaotic, n2) = taobao_service(seed, fault);
            assert_eq!(n, n2);
            let (trace, gathers, lag) = run_trace(&chaotic, seed, n, 25);
            assert_eq!(
                trace, clean_trace,
                "epoch/touched/affected sequence diverged at drop rate {drop_rate} seed {seed}"
            );
            for (v, (a, b)) in clean_gathers.iter().zip(&gathers).enumerate() {
                assert_eq!(
                    a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "vertex {v} gather diverged at drop rate {drop_rate} seed {seed}"
                );
            }
            if drop_rate >= 0.2 {
                assert!(lag > 0, "a 20% fault rate must cost some modelled lag");
            }
            chaotic.oracle_check().expect("chaotic oracle");
            chaotic.shutdown();
        }
    }
}

#[test]
fn concurrent_sessions_stay_on_their_pinned_epoch() {
    let (svc, n) = taobao_service(11, None);
    let violations = std::thread::scope(|scope| {
        let updater = scope.spawn(|| {
            let mut workload = UpdateWorkload::new(11 ^ 0xd17a, n, DIM);
            for _ in 0..40 {
                svc.ingest(&workload.next_batch(6, 2)).expect("ingest");
            }
        });
        let readers: Vec<_> = (0..3u32)
            .map(|c| {
                let svc = &svc;
                scope.spawn(move || {
                    let mut violations = 0u64;
                    for i in 0..200u32 {
                        let session = svc.session();
                        let pinned = session.epoch();
                        for k in 0..3u32 {
                            let g = session.gather(VertexId((c * 131 + i * 7 + k) % n));
                            if g.epoch != pinned {
                                violations += 1;
                            }
                        }
                    }
                    violations
                })
            })
            .collect();
        let total: u64 = readers.into_iter().map(|h| h.join().expect("reader")).sum();
        updater.join().expect("updater");
        total
    });
    assert_eq!(violations, 0, "gathers observed an epoch other than their session's pin");
    assert_eq!(svc.current_epoch(), 40);
    svc.oracle_check().expect("oracle after concurrent load");
    svc.shutdown();
}

#[test]
fn unrelated_update_leaves_untouched_cache_entry_warm() {
    // Two disconnected chains: 0 -> 1 -> 2 and 3 -> 4 -> 5. An update in
    // the second chain must not cool the first chain's cache entries.
    let mut b = GraphBuilder::directed();
    let vs: Vec<VertexId> = (0..6).map(|_| b.add_vertex(USER, AttrVector::empty())).collect();
    for pair in [(0, 1), (1, 2), (3, 4), (4, 5)] {
        b.add_edge(vs[pair.0], vs[pair.1], CLICK, 1.0).unwrap();
    }
    let graph = Arc::new(b.build());
    let feats = Arc::new(Featurizer::new(DIM).matrix(&graph));
    let svc = StreamingService::start(graph, feats, StreamingConfig::default());

    let session = svc.session();
    let warm = session.gather(VertexId(0));
    let cooled = session.gather(VertexId(3));
    assert_eq!(svc.cache_stats().len, 2);

    let receipt = svc
        .ingest(&UpdateBatch {
            events: vec![UpdateEvent::AddEdge {
                src: VertexId(4),
                dst: VertexId(2),
                etype: CLICK,
                weight: 3.0,
            }],
        })
        .expect("ingest");
    // Touching row 4 invalidates exactly the vertices that sample through
    // it within kmax-1 hops: {4, 3}. Vertex 3 was cached, so one entry
    // drops; vertices 0..2 stay warm.
    assert_eq!(receipt.touched_rows, vec![4]);
    assert_eq!(receipt.invalidated, 1);

    let hits_before = svc.cache_stats().hits;
    let fresh = svc.session();
    let again = fresh.gather(VertexId(0));
    assert_eq!(svc.cache_stats().hits, hits_before + 1, "survivor must be served from cache");
    assert_eq!(again.epoch, 1, "served at the new epoch");
    assert_eq!(
        warm.vector.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        again.vector.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        "surviving entry must be bit-identical to its pre-update value"
    );
    // The cooled vertex recomputes — and sees the new edge's influence.
    let recomputed = fresh.gather(VertexId(3));
    assert_ne!(cooled.vector, recomputed.vector, "vertex 3 samples through the new edge");
    svc.oracle_check().expect("oracle");
    svc.shutdown();
}

#[test]
fn removals_and_feature_rewrites_round_trip_through_the_oracle() {
    let (svc, n) = taobao_service(23, None);
    let mut workload = UpdateWorkload::new(23, n, DIM);
    for round in 0..10 {
        // Rounds after the first retract every previous addition, so the
        // remove path and the re-add path both churn the same alias tables.
        let receipt = svc.ingest(&workload.next_batch(8, 3)).expect("ingest");
        assert_eq!(receipt.epoch, round + 1);
        assert!(receipt.repairs > 0, "round {round} repaired no alias tables");
    }
    svc.oracle_check().expect("incremental state diverged from rebuild");
    svc.shutdown();
}
