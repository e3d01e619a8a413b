//! Pairwise logistic losses and the negative-sampling skip-gram update
//! shared by the random-walk embedding trainers (paper Eq. 4–6 all reduce to
//! this primitive).

use crate::embedding::EmbeddingTable;
use crate::sigmoid;

/// Binary logistic loss for a scored pair: `-log σ(score)` for positives,
/// `-log σ(-score)` for negatives.
pub fn logistic_loss(score: f32, positive: bool) -> f32 {
    let p = if positive { sigmoid(score) } else { sigmoid(-score) };
    -(p.max(1e-12)).ln()
}

/// Gradient of the logistic loss w.r.t. the score: `σ(score) - label`.
#[inline]
pub fn logistic_grad(score: f32, positive: bool) -> f32 {
    sigmoid(score) - if positive { 1.0 } else { 0.0 }
}

/// One skip-gram update with negative sampling (SGNS):
///
/// center row `c` of `input`, positive context `pos` and negatives `negs`
/// as rows of `output`; applies SGD row updates at learning rate `lr` and
/// returns the summed loss. This is the word2vec update that DeepWalk,
/// Node2Vec, LINE, Metapath2Vec, GATNE, and Mixture GNN all instantiate.
pub fn sgns_update(
    input: &mut EmbeddingTable,
    output: &mut EmbeddingTable,
    c: usize,
    pos: usize,
    negs: &[usize],
    lr: f32,
) -> f32 {
    debug_assert_eq!(input.dim, output.dim);
    let dim = input.dim;
    let mut input_grad = vec![0.0f32; dim];
    let mut loss = 0.0f32;

    // Positive pair.
    let score = input.dot_with(c, output, pos);
    loss += logistic_loss(score, true);
    let g = logistic_grad(score, true);
    for (ig, &o) in input_grad.iter_mut().zip(output.row(pos)).take(dim) {
        *ig += g * o;
    }
    let mut out_grad: Vec<f32> = input.row(c).iter().take(dim).map(|&x| g * x).collect();
    output.sgd_update(pos, &out_grad, lr);

    // Negatives.
    for &neg in negs {
        let score = input.dot_with(c, output, neg);
        loss += logistic_loss(score, false);
        let g = logistic_grad(score, false);
        let ctr = input.row(c);
        let nbr = output.row(neg);
        for j in 0..dim {
            input_grad[j] += g * nbr[j];
            out_grad[j] = g * ctr[j];
        }
        output.sgd_update(neg, &out_grad, lr);
    }

    input.sgd_update(c, &input_grad, lr);
    loss
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_is_low_when_confidently_correct() {
        assert!(logistic_loss(10.0, true) < 0.01);
        assert!(logistic_loss(-10.0, false) < 0.01);
        assert!(logistic_loss(-10.0, true) > 5.0);
        assert!((logistic_loss(0.0, true) - std::f32::consts::LN_2).abs() < 1e-5);
    }

    #[test]
    fn grad_signs() {
        assert!(logistic_grad(0.0, true) < 0.0); // push score up
        assert!(logistic_grad(0.0, false) > 0.0); // push score down
    }

    #[test]
    fn sgns_separates_positive_from_negative() {
        let mut input = EmbeddingTable::new(3, 8, 1);
        let mut output = EmbeddingTable::zeros(3, 8);
        // Train: vertex 0's context is 1, vertex 2 is a negative.
        let mut last_loss = f32::MAX;
        for _ in 0..200 {
            last_loss = sgns_update(&mut input, &mut output, 0, 1, &[2], 0.1);
        }
        assert!(last_loss < 0.2, "loss {last_loss}");
        assert!(input.dot_with(0, &output, 1) > 1.0);
        assert!(input.dot_with(0, &output, 2) < -1.0);
    }

    #[test]
    fn sgns_loss_decreases() {
        let mut input = EmbeddingTable::new(4, 6, 2);
        let mut output = EmbeddingTable::zeros(4, 6);
        let first = sgns_update(&mut input, &mut output, 0, 1, &[2, 3], 0.2);
        let mut last = first;
        for _ in 0..50 {
            last = sgns_update(&mut input, &mut output, 0, 1, &[2, 3], 0.2);
        }
        assert!(last < first);
    }
}
