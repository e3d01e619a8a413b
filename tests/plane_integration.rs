//! One dynamic-graph plane under both online services (ISSUE 14).
//!
//! The same seeded edit stream goes through `ServingService::apply_delta`
//! and, lowered with `UpdateBatch::from`, through `StreamingService::ingest`.
//! Both are the plane's one write path, so they must leave equal rows at
//! every touched vertex and invalidate the same cached keys — which pins the
//! lowering (removals first, additions at weight 1.0) and the one
//! invalidation rule, including that a removal matching nothing touches
//! nothing on either side.

use aligraph_suite::graph::dynamic::{EdgeEvent, EvolutionKind, SnapshotDelta, UpdateBatch};
use aligraph_suite::graph::ids::well_known::CLICK;
use aligraph_suite::graph::{EdgeType, Featurizer, TaobaoConfig, VertexId};
use aligraph_suite::sampling::TopKNeighborhood;
use aligraph_suite::serving::{ServingConfig, ServingService};
use aligraph_suite::streaming::{StreamingConfig, StreamingService};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

#[test]
fn the_same_edit_stream_leaves_both_services_in_the_same_state() {
    let graph = Arc::new(TaobaoConfig::tiny().generate().expect("valid config"));
    let n = graph.num_vertices() as u32;
    // Caches that hold every vertex, so "missed" means "was invalidated".
    let serving = ServingService::start(
        Arc::clone(&graph),
        TopKNeighborhood,
        ServingConfig { max_batch: 1, cache_capacity: n as usize, ..Default::default() },
    );
    let feats = Arc::new(Featurizer::new(8).matrix(&graph));
    let streaming = StreamingService::start(
        graph,
        feats,
        StreamingConfig { cache_capacity: n as usize, ..Default::default() },
    );
    assert_eq!(serving.config().fanouts.len(), 2, "both services read two hops");

    // Requests every vertex once; returns the ones each service recomputed.
    let misses = || -> (Vec<u32>, Vec<u32>) {
        let session = streaming.session();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for v in 0..n {
            let (forwards, missed) = (serving.forwards_so_far(), streaming.cache_stats().misses);
            serving.embedding(VertexId(v)).expect("served");
            session.gather(VertexId(v));
            if serving.forwards_so_far() > forwards {
                a.push(v);
            }
            if streaming.cache_stats().misses > missed {
                b.push(v);
            }
        }
        (a, b)
    };
    let (cold_a, cold_b) = misses();
    assert_eq!((cold_a.len(), cold_b.len()), (n as usize, n as usize));

    let mut rng = StdRng::seed_from_u64(14);
    let edge = |src: u32, dst: u32| EdgeEvent {
        src: VertexId(src),
        dst: VertexId(dst),
        etype: CLICK,
        kind: EvolutionKind::Normal,
    };
    let mut previous: Vec<EdgeEvent> = Vec::new();
    for round in 0..12 {
        let added: Vec<EdgeEvent> =
            (0..4).map(|_| edge(rng.gen_range(0..n), rng.gen_range(0..n))).collect();
        let mut removed = std::mem::replace(&mut previous, added.clone());
        let real: Vec<u32> = added.iter().chain(&removed).map(|e| e.src.0).collect();
        // An edge of a type the graph does not have: matches nothing.
        removed.push(EdgeEvent { etype: EdgeType(99), ..edge(round, 0) });
        let delta = SnapshotDelta { added, removed };

        let dropped = serving.apply_delta(&delta);
        let receipt = streaming.ingest(&UpdateBatch::from(&delta)).expect("ingest");
        assert_eq!(serving.graph_version(), receipt.epoch);
        assert_eq!(dropped, receipt.invalidated, "round {round}");
        let stray = receipt.touched_rows.iter().find(|v| !real.contains(v));
        assert_eq!(stray, None, "round {round}: the unmatched removal touched a row");

        let (a, session) = (serving.overlay_snapshot(), streaming.session());
        for v in delta.added.iter().chain(&delta.removed).flat_map(|e| [e.src, e.dst]) {
            assert_eq!(a.out_neighbors(v), session.view().out_neighbors(v), "out-row of {v:?}");
            assert_eq!(a.in_neighbors(v), session.view().in_neighbors(v), "in-row of {v:?}");
        }
        let (missed_a, missed_b) = misses();
        assert_eq!(missed_a, missed_b, "round {round}: invalidation sets differ");
        assert_eq!(missed_a.len(), dropped, "round {round}");
    }
    serving.shutdown();
    streaming.shutdown();
}
