//! Table 11: Evolving GNN vs TNE and GraphSAGE on multi-class link
//! prediction over a dynamic graph, split into *normal evolution* and
//! *burst change* edges.
//!
//! Paper shape: Evolving GNN wins both regimes (+4 micro-F1 / +3.6 macro-F1
//! with burst change); static competitors degrade most on bursts. Protocol:
//! models see snapshots `0..T-1`; the edges added at step `T-1` (labelled
//! normal vs burst by the generator) are classified into their edge type.

use aligraph::models::evolving::{train_evolving, EvolvingConfig};
use aligraph::models::graphsage::{train_graphsage, GraphSageConfig};
use aligraph_baselines::{train_tne, EdgeTypeHead, SkipGramParams};
use aligraph_bench::{dynamic_algo, header, pct, row};
use aligraph_eval::{macro_f1, micro_f1};
use aligraph_graph::{DynamicGraph, EdgeEvent, EvolutionKind, SnapshotDelta};

fn scores(pred: &[usize], truth: &[usize], classes: usize) -> (f64, f64) {
    (micro_f1(pred, truth), macro_f1(pred, truth, classes))
}

#[expect(clippy::expect_used, reason = "an experiment aborts on a broken fixture")]
fn main() {
    println!("# Table 11 — Evolving GNN vs competitors (dynamic multi-class link prediction)\n");
    let full = dynamic_algo();
    let t = full.num_snapshots();

    // Training prefix: snapshots 0..T-1.
    let prefix =
        DynamicGraph::new(full.snapshots()[..t - 1].to_vec(), full.deltas()[..t - 1].to_vec())
            .expect("prefix is aligned");
    let last_train = prefix.snapshot(prefix.num_snapshots() - 1).expect("non-empty");
    let classes = last_train.num_edge_types() as usize;

    // Test events: the final step's additions, split by evolution kind.
    let final_delta: &SnapshotDelta = full.delta(t - 1).expect("in range");
    let normal: Vec<&EdgeEvent> =
        final_delta.added.iter().filter(|e| e.kind == EvolutionKind::Normal).collect();
    let burst: Vec<&EdgeEvent> =
        final_delta.added.iter().filter(|e| e.kind == EvolutionKind::Burst).collect();
    println!(
        "test edges: {} normal, {} burst; {} edge types\n",
        normal.len(),
        burst.len(),
        classes
    );

    header(&["method", "normal micro-F1", "normal macro-F1", "burst micro-F1", "burst macro-F1"]);

    let walk_params = SkipGramParams { dim: 48, epochs: 2, ..SkipGramParams::quick() };

    // --- TNE. ---
    let tne = train_tne(&prefix, &walk_params, 0.3);
    let tne_head = EdgeTypeHead::fit(last_train, &tne, 4, 0.1, 1);
    report("TNE", &tne, &tne_head, &normal, &burst, classes);

    // --- GraphSAGE (static, final training snapshot only). ---
    let sage = train_graphsage(last_train, &GraphSageConfig::quick());
    let sage_head = EdgeTypeHead::fit(last_train, &sage.embeddings, 4, 0.1, 2);
    report("GraphSAGE", &sage.embeddings, &sage_head, &normal, &burst, classes);

    // --- Evolving GNN (its own recurrent state + head). ---
    let mut ev_cfg = EvolvingConfig::quick();
    ev_cfg.sage.feature_dim = 64;
    ev_cfg.sage.dims = vec![48, 32];
    ev_cfg.sage.lr = 0.01;
    ev_cfg.sage.train.epochs = 3;
    ev_cfg.sage.train.batches_per_epoch = 40;
    ev_cfg.sage.train.batch_size = 32;
    ev_cfg.gamma = 0.6;
    ev_cfg.head_epochs = 8;
    let evolving = train_evolving(&prefix, &ev_cfg);
    let run = |events: &[&EdgeEvent]| -> (f64, f64) {
        let pred: Vec<usize> =
            events.iter().map(|e| evolving.predict_class(e.src, e.dst)).collect();
        let truth: Vec<usize> = events.iter().map(|e| e.etype.index()).collect();
        scores(&pred, &truth, classes)
    };
    let (nmi, nma) = run(&normal);
    let (bmi, bma) = run(&burst);
    row(&["Evolving GNN".into(), pct(nmi), pct(nma), pct(bmi), pct(bma)]);

    println!("\n('DeepWalk' and 'DANE' are N.A. in the paper's table: they cannot");
    println!(" handle dynamic graphs at scale.)");
    println!("paper: Evolving GNN 81.4/77.7 normal, 73.3/70.8 burst — ~+4 over TNE, ~+10 over GraphSAGE.");
}

fn report<M: aligraph::EmbeddingModel>(
    name: &str,
    model: &M,
    head: &EdgeTypeHead,
    normal: &[&EdgeEvent],
    burst: &[&EdgeEvent],
    classes: usize,
) {
    let run = |events: &[&EdgeEvent]| -> (f64, f64) {
        let pred: Vec<usize> = events.iter().map(|e| head.predict(model, e.src, e.dst)).collect();
        let truth: Vec<usize> = events.iter().map(|e| e.etype.index()).collect();
        scores(&pred, &truth, classes)
    };
    let (nmi, nma) = run(normal);
    let (bmi, bma) = run(burst);
    row(&[name.into(), pct(nmi), pct(nma), pct(bmi), pct(bma)]);
}
