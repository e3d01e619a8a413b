//! Figure 1: normalized effectiveness summary of the five in-house models
//! vs their best competitors.
//!
//! Paper shape: every in-house model beats its competitor set, with lifts
//! of +4.12% (GATNE) up to +17.19% (Evolving GNN). This binary re-runs the
//! five comparisons at a reduced scale and prints each model's primary
//! metric normalized by its best competitor (1.00 = parity).

use aligraph::models::evolving::{train_evolving, EvolvingConfig};
use aligraph::models::gatne::{train_gatne, GatneConfig};
use aligraph::models::graphsage::{train_graphsage, GraphSageConfig};
use aligraph::models::hierarchical::{train_hierarchical, HierarchicalConfig};
use aligraph::models::mixture::{train_mixture, MixtureConfig};
use aligraph::trainer::evaluate_split;
use aligraph_baselines::{
    train_deepwalk, train_mne, train_recommender, train_tne, EdgeTypeHead, RecommenderConfig,
    SkipGramParams,
};
use aligraph_bench::{dynamic_algo, header, leave_one_out, row, taobao_algo};
use aligraph_eval::{link_prediction_split, micro_f1, LinkMetrics};
use aligraph_graph::ids::well_known::ITEM;
use aligraph_graph::{DynamicGraph, EvolutionKind, VertexId};

#[expect(clippy::expect_used, reason = "an experiment aborts on a broken fixture")]
fn main() {
    println!("# Figure 1 — normalized effectiveness of the in-house models\n");
    header(&["model", "metric", "best competitor", "AliGraph", "lift"]);

    let graph = taobao_algo();
    let split = link_prediction_split(&graph, 0.15, 11);
    let params = SkipGramParams { dim: 32, ..SkipGramParams::quick() };

    // --- GATNE vs DeepWalk / MNE (F1). ---
    {
        let dw = evaluate_split(&train_deepwalk(&split.train, &params), &split);
        let mne = evaluate_split(&train_mne(&split.train, &params), &split);
        let gatne = train_gatne(
            &split.train,
            &GatneConfig {
                dim: 32,
                epochs: 8,
                walks_per_vertex: 3,
                window: 3,
                lr: 0.015,
                alpha: 0.5,
                beta: 1.5,
                ..GatneConfig::quick()
            },
        );
        let mut per_type = Vec::new();
        for t in split.test_edge_types() {
            let (pos, neg) = split.of_type(t);
            let mut scored = Vec::new();
            for e in pos {
                scored.push((gatne.score_typed(e.src, e.dst, t), true));
            }
            for e in neg {
                scored.push((gatne.score_typed(e.src, e.dst, t), false));
            }
            per_type.push(LinkMetrics::from_scored(&scored));
        }
        let g = LinkMetrics::average(&per_type);
        emit("GATNE", "F1", dw.f1.max(mne.f1), g.f1);
    }

    // --- Mixture GNN vs DAE (leave-one-out HR@50). ---
    {
        let (train, truth) = leave_one_out(&graph, 19);
        let mut dae_cfg = RecommenderConfig::dae_quick();
        dae_cfg.hidden = 48;
        let dae = train_recommender(&train, &dae_cfg);
        let mixture =
            train_mixture(&train, &MixtureConfig { dim: 48, epochs: 2, ..MixtureConfig::quick() });
        let items: Vec<VertexId> = train.vertices_of_type(ITEM).to_vec();
        let mut dae_hits = 0usize;
        let mut mix_hits = 0usize;
        let subset = &truth[..truth.len().min(200)];
        for &(u, item) in subset {
            if dae.recommend(&train, u, 50).contains(&item) {
                dae_hits += 1;
            }
            let seen: Vec<VertexId> = train.out_neighbors(u).iter().map(|n| n.vertex).collect();
            let candidates: Vec<VertexId> =
                items.iter().copied().filter(|i| !seen.contains(i)).collect();
            let ranked = mixture.recommend(u, &candidates);
            if ranked[..50.min(ranked.len())].contains(&item) {
                mix_hits += 1;
            }
        }
        let n = subset.len().max(1) as f64;
        emit("Mixture GNN", "HR@50", dae_hits as f64 / n, mix_hits as f64 / n);
    }

    // --- Hierarchical GNN vs GraphSAGE (ROC-AUC). ---
    {
        let mut sage_cfg = GraphSageConfig::quick();
        sage_cfg.feature_dim = 128;
        sage_cfg.dims = vec![96, 48];
        sage_cfg.lr = 0.01;
        sage_cfg.train.epochs = 6;
        sage_cfg.train.batches_per_epoch = 50;
        let sage = train_graphsage(&split.train, &sage_cfg);
        let hier = train_hierarchical(
            &split.train,
            &HierarchicalConfig {
                dim: 64,
                clusters: 96,
                pairs_per_epoch: 40_000,
                epochs: 12,
                ..HierarchicalConfig::quick()
            },
        );
        emit(
            "Hierarchical GNN",
            "ROC-AUC",
            evaluate_split(&sage.embeddings, &split).roc_auc,
            evaluate_split(&hier, &split).roc_auc,
        );
    }

    // --- Evolving GNN vs TNE (micro-F1, burst edges). ---
    {
        let dynamic = dynamic_algo();
        let t = dynamic.num_snapshots();
        let prefix = DynamicGraph::new(
            dynamic.snapshots()[..t - 1].to_vec(),
            dynamic.deltas()[..t - 1].to_vec(),
        )
        .expect("aligned");
        let last = prefix.snapshot(prefix.num_snapshots() - 1).expect("non-empty");
        let classes = last.num_edge_types() as usize;
        let burst: Vec<_> = dynamic
            .delta(t - 1)
            .expect("in range")
            .added
            .iter()
            .filter(|e| e.kind == EvolutionKind::Burst)
            .collect();
        let tne = train_tne(&prefix, &params, 0.3);
        let head = EdgeTypeHead::fit(last, &tne, 3, 0.1, 5);
        let tne_pred: Vec<usize> = burst.iter().map(|e| head.predict(&tne, e.src, e.dst)).collect();
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
        let ev_pred: Vec<usize> =
            burst.iter().map(|e| evolving.predict_class(e.src, e.dst)).collect();
        let truth: Vec<usize> = burst.iter().map(|e| e.etype.index()).collect();
        emit(
            "Evolving GNN",
            "micro-F1 (burst)",
            micro_f1(&tne_pred, &truth),
            micro_f1(&ev_pred, &truth),
        );
        let _ = classes;
    }

    // --- Bayesian GNN: see table12_bayesian for the full grid. ---
    println!("\n(Bayesian GNN's lift is reported per-granularity by `table12_bayesian`.)");
    println!("paper: +4.12%..+16.43% (GATNE), +8.73%..+15.58% (Mixture), +13.99% (Hierarchical),");
    println!("       +5.72%..+17.19% (Evolving), +15.48% (Bayesian).");
}

fn emit(model: &str, metric: &str, competitor: f64, ours: f64) {
    row(&[
        model.into(),
        metric.into(),
        format!("{competitor:.4}"),
        format!("{ours:.4}"),
        format!("{:+.2}%", (ours / competitor.max(1e-9) - 1.0) * 100.0),
    ]);
}
