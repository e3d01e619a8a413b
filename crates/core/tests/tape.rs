//! The tape's contracts: (a) the layer-batched encoder lands on the bits the
//! node-at-a-time encoder produced at the parent of PR 16, (b) the flush
//! granularity cannot change a bit, (c) a node without a gradient pushes
//! nothing towards the parameter server.

#![expect(
    clippy::expect_used,
    reason = "a failed fixture setup in a test helper aborts the test, as in the #[test] itself"
)]

use aligraph::{contrastive_step, EpisodeTape, FullNeighborhood, GnnEncoder};
use aligraph_graph::generate::TaobaoConfig;
use aligraph_graph::{AttributedHeterogeneousGraph, EdgeType, FeatureMatrix, Featurizer, VertexId};
use aligraph_ops::{
    Activation, AttentionAggregator, Combiner, ConcatCombiner, GcnCombiner, MeanAggregator,
};
use aligraph_sampling::{TraverseSampler, UniformNeighborhood, UniformTraverse};
use aligraph_storage::seal::Fnv1a;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const DIM: usize = 16;

fn setup() -> (AttributedHeterogeneousGraph, FeatureMatrix) {
    let g = TaobaoConfig::tiny().generate().expect("valid config");
    let f = Featurizer::new(DIM).matrix(&g);
    (g, f)
}

/// `(loss bits, FNV of the dense parameters, FNV of the key-sorted feature
/// gradients of every step)`.
type Pin = (u64, u64, u64);

fn fold_feature_grads(hash: &mut Fnv1a, grads: &HashMap<u32, Vec<f32>>) {
    let mut keys: Vec<u32> = grads.keys().copied().collect();
    keys.sort_unstable();
    for k in keys {
        hash.word(u64::from(k));
        for x in &grads[&k] {
            hash.word(u64::from(x.to_bits()));
        }
    }
}

fn param_hash(encoder: &GnnEncoder) -> u64 {
    let mut hash = Fnv1a::new();
    for x in encoder.dense_param_vec() {
        hash.word(u64::from(x.to_bits()));
    }
    hash.finish()
}

/// Three `contrastive_step`s of 16 edges and 3 negatives from one RNG.
fn three_steps(mut encoder: GnnEncoder) -> Pin {
    let (g, f) = setup();
    let mut rng = StdRng::seed_from_u64(16);
    let mut loss = 0.0f64;
    let mut grads = Fnv1a::new();
    for _ in 0..3 {
        let etype = EdgeType(rng.gen_range(0..g.num_edge_types()));
        let edges = UniformTraverse.sample_edges(&g, etype, 16, &mut rng);
        let out =
            contrastive_step(&mut encoder, &g, &g, &f, &UniformNeighborhood, &edges, 3, &mut rng);
        loss += out.loss_sum;
        fold_feature_grads(&mut grads, &out.feature_grads);
    }
    (loss.to_bits(), param_hash(&encoder), grads.finish())
}

mod parent_pins {
    //! Constants computed at `5b206ad` (this file's `three_steps` and
    //! `unmemoized` run against the parent's crates, which had one GEMV and
    //! one rank-1 update per tape node).
    use super::*;

    const SAGE: Pin = (4640165320056635392, 12405946753079214893, 3568634868506106535);
    const GCN: Pin = (4642579863486988288, 14132384659505439428, 5287094223426896009);
    const ATTENTION: Pin = (4638777193695019008, 11289163653942179518, 1047611632037594112);
    const UNMEMOIZED: Pin = (4640315368684363172, 16271556611886070442, 15485709130511495210);

    #[test]
    fn sage_lands_on_the_parent_bits() {
        assert_eq!(three_steps(GnnEncoder::sage(DIM, &[32, 16], &[5, 3], 0.05, 7)), SAGE);
    }

    #[test]
    fn gcn_combiner_lands_on_the_parent_bits() {
        let combiners: Vec<Box<dyn Combiner>> = vec![
            Box::new(GcnCombiner::new(DIM, 16, Activation::Relu, 0.05, 5)),
            Box::new(GcnCombiner::new(16, 8, Activation::Linear, 0.05, 6)),
        ];
        let encoder =
            GnnEncoder::custom(DIM, vec![16, 8], vec![5, 3], Box::new(MeanAggregator), combiners);
        assert_eq!(three_steps(encoder), GCN);
    }

    #[test]
    fn attention_aggregator_lands_on_the_parent_bits() {
        let combiners: Vec<Box<dyn Combiner>> = vec![
            Box::new(ConcatCombiner::new(DIM, 16, Activation::Relu, 0.05, 3)),
            Box::new(ConcatCombiner::new(16, 8, Activation::Linear, 0.05, 4)),
        ];
        let encoder = GnnEncoder::custom(
            DIM,
            vec![16, 8],
            vec![5, 3],
            Box::new(AttentionAggregator),
            combiners,
        );
        assert_eq!(three_steps(encoder), ATTENTION);
    }

    /// The Table 5 baseline tape: three hand-rolled steps pulling twelve
    /// roots' embeddings towards all-ones.
    #[test]
    fn unmemoized_tape_lands_on_the_parent_bits() {
        let (g, f) = setup();
        let mut encoder = GnnEncoder::sage(DIM, &[16, 8], &[4, 2], 0.05, 9);
        let mut rng = StdRng::seed_from_u64(17);
        let mut loss = 0.0f64;
        let mut grads = Fnv1a::new();
        for step in 0..3u32 {
            let mut tape = EpisodeTape::without_memoization();
            for i in 0..12u32 {
                let v = VertexId((step * 31 + i * 7) % g.num_vertices() as u32);
                let idx = encoder.forward(&g, &f, &UniformNeighborhood, v, &mut tape, &mut rng);
                let grad: Vec<f32> = tape.output(idx).iter().map(|&o| o - 1.0).collect();
                loss += grad.iter().map(|&d| f64::from(d * d)).sum::<f64>();
                tape.add_grad(idx, &grad);
            }
            assert_eq!(tape.stats().0, 0, "no memo hits without memoization");
            encoder.backward(&mut tape, &f);
            encoder.step(12);
            fold_feature_grads(&mut grads, &tape.feature_grads);
        }
        assert_eq!((loss.to_bits(), param_hash(&encoder), grads.finish()), UNMEMOIZED);
    }
}

/// Per-root `forward` and one `forward_batch` are the same computation at
/// two flush granularities: same node indices, outputs, tape length, memo
/// counts and RNG state, and the same gradients on the way back.
#[test]
fn flush_granularity_changes_nothing() {
    let (g, f) = setup();
    let roots: Vec<VertexId> = [0u32, 3, 17, 3, 40, 199, 210, 0].map(VertexId).to_vec();
    let run = |batched: bool| {
        let mut encoder = GnnEncoder::sage(DIM, &[32, 16], &[5, 3], 0.05, 7);
        let mut tape = EpisodeTape::new();
        let mut rng = StdRng::seed_from_u64(21);
        let idxs: Vec<usize> = if batched {
            encoder.forward_batch(&g, &f, &UniformNeighborhood, &roots, &mut tape, &mut rng)
        } else {
            roots
                .iter()
                .map(|&v| encoder.forward(&g, &f, &UniformNeighborhood, v, &mut tape, &mut rng))
                .collect()
        };
        let outputs: Vec<Vec<u32>> =
            idxs.iter().map(|&i| tape.output(i).iter().map(|x| x.to_bits()).collect()).collect();
        for &i in &idxs {
            let grad: Vec<f32> = tape.output(i).iter().map(|&o| o - 0.5).collect();
            tape.add_grad(i, &grad);
        }
        encoder.backward(&mut tape, &f);
        encoder.step(roots.len());
        let mut grads = Fnv1a::new();
        fold_feature_grads(&mut grads, &tape.feature_grads);
        let state = (tape.len(), tape.stats(), rng.gen::<u64>(), param_hash(&encoder));
        (idxs, outputs, state, grads.finish())
    };
    let (per_root, batched) = (run(false), run(true));
    assert!(per_root.2 .1 .0 > 0, "repeated roots must hit the memo");
    assert_eq!(per_root, batched);
}

/// A root that received no gradient is skipped by the backward sweep: it
/// adds no key to `feature_grads`, the set a worker pushes to the parameter
/// server.
#[test]
fn gradient_free_nodes_add_no_feature_grad_keys() {
    let (g, f) = setup();
    let mut encoder = GnnEncoder::sage(DIM, &[8], &[4], 0.05, 11);
    let a = g.vertices().find(|&v| g.out_degree(v) >= 4).expect("a vertex with 4 neighbors");
    let mut want: Vec<u32> =
        g.out_neighbors(a).iter().take(4).map(|n| n.vertex.0).chain([a.0]).collect();
    want.sort_unstable();
    want.dedup();
    let b = g
        .vertices()
        .find(|v| !want.contains(&v.0) && g.out_degree(*v) >= 1)
        .expect("a vertex outside a's sampled neighborhood");

    let mut tape = EpisodeTape::new();
    let mut rng = StdRng::seed_from_u64(1);
    let idxs = encoder.forward_batch(&g, &f, &FullNeighborhood, &[a, b], &mut tape, &mut rng);
    tape.add_grad(idxs[0], &[1.0; 8]);
    tape.add_grad(idxs[1], &[0.0; 8]);
    encoder.backward(&mut tape, &f);
    let mut keys: Vec<u32> = tape.feature_grads.keys().copied().collect();
    keys.sort_unstable();
    assert_eq!(keys, want);
}
