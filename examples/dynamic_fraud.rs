//! Dynamic-graph monitoring: spotting burst behavior with the Evolving GNN.
//!
//! Fraud rings and spam campaigns appear as *burst links* — one vertex
//! suddenly gaining many edges, unlike the graph's normal drift. The
//! Evolving GNN dampens bursts during aggregation and carries a recurrent
//! state across snapshots, so its edge-type predictions stay accurate even
//! on the abnormal part of the stream.
//!
//! Run with: `cargo run --release --example dynamic_fraud`

#![expect(clippy::expect_used, reason = "an example aborts on a setup error")]

use aligraph_suite::core::models::evolving::{train_evolving, EvolvingConfig};
use aligraph_suite::eval::micro_f1;
use aligraph_suite::graph::generate::DynamicConfig;
use aligraph_suite::graph::{DynamicGraph, EvolutionKind};

fn main() {
    // A 5-snapshot dynamic graph; every other step injects a burst (one
    // vertex suddenly touches hundreds of others).
    let config = DynamicConfig {
        vertices: 800,
        initial_edges: 3_500,
        timestamps: 5,
        normal_per_step: 400,
        removed_per_step: 150,
        burst_size: 200,
        burst_every: 2,
        edge_types: 3,
        seed: 13,
    };
    let dynamic = config.generate().expect("valid config");
    for t in 0..dynamic.num_snapshots() {
        let snap = dynamic.snapshot(t).expect("in range");
        let bursts = dynamic.delta(t).expect("in range").added_of(EvolutionKind::Burst).count();
        println!("t={t}: {} edges ({} burst additions this step)", snap.num_edges(), bursts);
    }

    // Train on the first T-1 snapshots; classify the edges added at step T-1.
    let t = dynamic.num_snapshots();
    let prefix = DynamicGraph::new(
        dynamic.snapshots()[..t - 1].to_vec(),
        dynamic.deltas()[..t - 1].to_vec(),
    )
    .expect("aligned prefix");
    let model = train_evolving(&prefix, &EvolvingConfig::quick());

    let final_delta = dynamic.delta(t - 1).expect("in range");
    for (label, kind) in [("normal", EvolutionKind::Normal), ("burst", EvolutionKind::Burst)] {
        let events: Vec<_> = final_delta.added_of(kind).collect();
        let pred: Vec<usize> = events.iter().map(|e| model.predict_class(e.src, e.dst)).collect();
        let truth: Vec<usize> = events.iter().map(|e| e.etype.index()).collect();
        println!(
            "\n{label} evolution: {} future edges, edge-type micro-F1 = {:.3}",
            events.len(),
            micro_f1(&pred, &truth)
        );
    }
    println!("\n(the burst column is the hard one — static embeddings degrade there; see table11_evolving)");
}
