//! Product recommendation — the application that motivates the paper
//! (personalized search and recommendation on Taobao).
//!
//! GATNE learns one embedding per (vertex, behavior type), so the same user
//! gets different item rankings for *click*-intent and *buy*-intent. The
//! Mixture GNN recommender and HR@k evaluation complete the loop.
//!
//! Run with: `cargo run --release --example recommendation`

#![expect(clippy::expect_used, reason = "an example aborts on a setup error")]

use aligraph_suite::core::models::gatne::{train_gatne, GatneConfig};
use aligraph_suite::core::models::mixture::{train_mixture, MixtureConfig};
use aligraph_suite::eval::hit_rate_at_k;
use aligraph_suite::graph::generate::TaobaoConfig;
use aligraph_suite::graph::ids::well_known::{BUY, CLICK, ITEM, USER};
use aligraph_suite::graph::VertexId;

fn main() {
    let graph = TaobaoConfig::tiny().scaled(3.0).generate().expect("valid config");
    println!(
        "e-commerce graph: {} users, {} items, {} behavior edges",
        graph.vertices_of_type(USER).len(),
        graph.vertices_of_type(ITEM).len(),
        graph.num_edges(),
    );

    // --- GATNE: behavior-specific embeddings. ---
    let gatne = train_gatne(&graph, &GatneConfig::quick());
    let user = graph
        .vertices_of_type(USER)
        .iter()
        .copied()
        .find(|&u| !graph.out_neighbors_typed(u, BUY).is_empty())
        .expect("some user bought something");
    let items = graph.vertices_of_type(ITEM);
    let rank = |etype| -> Vec<VertexId> {
        let mut scored: Vec<(VertexId, f32)> =
            items.iter().map(|&i| (i, gatne.score_typed(user, i, etype))).collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.into_iter().take(5).map(|(i, _)| i).collect()
    };
    println!("\nGATNE top-5 for {user} under click-intent: {:?}", rank(CLICK));
    println!("GATNE top-5 for {user} under buy-intent:   {:?}", rank(BUY));

    // --- Mixture GNN: multi-sense recommendations + HR@k. ---
    let mixture = train_mixture(&graph, &MixtureConfig::quick());
    let mut recs = Vec::new();
    let mut truth = Vec::new();
    for &u in graph.vertices_of_type(USER).iter().take(120) {
        let out = graph.out_neighbors(u);
        if out.is_empty() {
            continue;
        }
        truth.push(out[0].vertex);
        recs.push(mixture.recommend(u, items));
    }
    for k in [10usize, 20, 50] {
        println!("Mixture GNN HR@{k}: {:.4}", hit_rate_at_k(&recs, &truth, k));
    }
    println!(
        "\n(sense posteriors let one user carry several intents: P(s|v) for {user} = {:?})",
        mixture.posterior[user.index()].iter().map(|p| format!("{p:.2}")).collect::<Vec<_>>()
    );
}
