//! Cross-crate model integration: every in-house model and every baseline
//! family trains on one shared heterogeneous graph and produces usable
//! embeddings through the common [`EmbeddingModel`] interface.

#![expect(
    clippy::unwrap_used,
    reason = "a failed fixture setup in a test helper aborts the test, as in the #[test] itself"
)]

use aligraph_suite::baselines::{
    train_deepwalk, train_line, train_mne, train_mve, train_node2vec, train_pmne, LineOrder,
    PmneVariant, SkipGramParams,
};
use aligraph_suite::core::models::bayesian::{train_bayesian, BayesianConfig};
use aligraph_suite::core::models::evolving::{train_evolving, EvolvingConfig};
use aligraph_suite::core::models::gatne::{train_gatne, GatneConfig};
use aligraph_suite::core::models::gcn::{train_asgcn, train_fastgcn, train_gcn, GcnConfig};
use aligraph_suite::core::models::graphsage::{train_graphsage, GraphSageConfig};
use aligraph_suite::core::models::hep::{train_hep, HepConfig};
use aligraph_suite::core::models::hierarchical::{train_hierarchical, HierarchicalConfig};
use aligraph_suite::core::models::mixture::{train_mixture, MixtureConfig};
use aligraph_suite::core::trainer::evaluate_split;
use aligraph_suite::core::EmbeddingModel;
use aligraph_suite::eval::link_prediction_split;
use aligraph_suite::graph::generate::{DynamicConfig, TaobaoConfig};
use aligraph_suite::graph::{Featurizer, VertexId};
use aligraph_suite::tensor::Matrix;

fn graph() -> aligraph_suite::graph::AttributedHeterogeneousGraph {
    TaobaoConfig::tiny().generate().unwrap()
}

#[test]
fn all_inhouse_models_beat_chance_on_one_graph() {
    let g = graph();
    let split = link_prediction_split(&g, 0.15, 42);

    let sage = train_graphsage(&split.train, &GraphSageConfig::quick());
    let hep = train_hep(&split.train, &HepConfig::hep_quick(16));
    let ahep = train_hep(&split.train, &HepConfig::ahep_quick(16, 4));
    let hier = train_hierarchical(&split.train, &HierarchicalConfig::quick());
    let mixture = train_mixture(&split.train, &MixtureConfig::quick());

    let results = [
        ("GraphSAGE", evaluate_split(&sage.embeddings, &split).roc_auc),
        ("HEP", evaluate_split(&hep, &split).roc_auc),
        ("AHEP", evaluate_split(&ahep, &split).roc_auc),
        ("Hierarchical", evaluate_split(&hier, &split).roc_auc),
        ("Mixture", evaluate_split(&mixture, &split).roc_auc),
    ];
    for (name, auc) in results {
        assert!(auc > 0.5, "{name} AUC {auc}");
    }
}

#[test]
fn gcn_family_trains_on_heterogeneous_graph() {
    let g = graph();
    let cfg = GcnConfig::quick();
    let gcn = train_gcn(&g, &cfg);
    let fast = train_fastgcn(&g, &cfg, 80);
    let adaptive = train_asgcn(&g, &cfg);
    for m in [&gcn, &fast, &adaptive] {
        assert_eq!(m.embeddings.matrix.rows, g.num_vertices());
        assert!(m.embeddings.matrix.as_slice().iter().all(|x| x.is_finite()));
    }
}

#[test]
fn baseline_family_trains_on_one_graph() {
    let g = graph();
    let params = SkipGramParams::quick();
    let models: Vec<(&str, Box<dyn EmbeddingModel>)> = vec![
        ("deepwalk", Box::new(train_deepwalk(&g, &params))),
        ("node2vec", Box::new(train_node2vec(&g, &params, 1.0, 2.0))),
        ("line", Box::new(train_line(&g, &params, LineOrder::First))),
        ("pmne-n", Box::new(train_pmne(&g, &params, PmneVariant::N))),
        ("mve", Box::new(train_mve(&g, &params, 2.0))),
        ("mne", Box::new(train_mne(&g, &params))),
    ];
    for (name, m) in &models {
        let e = m.embedding(VertexId(0));
        assert!(!e.is_empty(), "{name}");
        assert!(e.iter().all(|x| x.is_finite()), "{name} produced non-finite embeddings");
    }
}

#[test]
fn gatne_produces_type_conditional_rankings() {
    let g = graph();
    let m =
        train_gatne(&g, &GatneConfig { epochs: 1, walks_per_vertex: 1, ..GatneConfig::quick() });
    use aligraph_suite::graph::ids::well_known::{BUY, CLICK, USER};
    let u = g.vertices_of_type(USER)[0];
    let v = g.vertices_of_type(aligraph_suite::graph::ids::well_known::ITEM)[0];
    // Same pair scored differently under different behavior types.
    let click = m.score_typed(u, v, CLICK);
    let buy = m.score_typed(u, v, BUY);
    assert!(click.is_finite() && buy.is_finite());
    assert_ne!(click, buy);
}

#[test]
fn evolving_and_bayesian_compose_with_the_rest() {
    // Evolving on a small dynamic graph.
    let dynamic = DynamicConfig {
        vertices: 100,
        initial_edges: 350,
        timestamps: 3,
        normal_per_step: 50,
        removed_per_step: 20,
        burst_size: 25,
        burst_every: 2,
        edge_types: 2,
        seed: 2,
    }
    .generate()
    .unwrap();
    let mut cfg = EvolvingConfig::quick();
    cfg.sage.train.epochs = 2;
    cfg.sage.train.batches_per_epoch = 5;
    let ev = train_evolving(&dynamic, &cfg);
    assert!(ev.states.as_slice().iter().all(|x| x.is_finite()));

    // Bayesian correction over a feature prior on the static graph.
    let g = graph();
    let prior = {
        let f = Featurizer::new(8).matrix(&g);
        Matrix::from_vec(g.num_vertices(), 8, f.as_slice().to_vec())
    };
    let bayes = train_bayesian(prior, &g, &BayesianConfig::quick());
    let z = bayes.embedding(VertexId(0));
    assert_eq!(z.len(), 8);
    assert!(z.iter().all(|x| x.is_finite()));
}
