//! The neural AGGREGATE variants the paper names beyond element-wise mean
//! (§3.4: "a variety of aggregating methods are applied, such as
//! element-wise mean, max-pooling neural network and long short-term memory
//! (LSTMs)"):
//!
//! * [`LstmAggregator`] — runs an LSTM over the (randomly ordered) sampled
//!   neighbor sequence and aggregates with the final hidden state, as in
//!   GraphSAGE-LSTM;
//! * [`PoolNnAggregator`] — the "max-pooling neural network": each neighbor
//!   embedding passes through a shared dense layer before element-wise max.
//!
//! Backward passes use the straight-through convention for the recurrent
//! gates (gate activations treated as constants), which keeps the sampled-
//! neighborhood training loop single-pass; the pooling network trains its
//! dense layer exactly.

use crate::aggregate::Aggregator;
use crate::layer::{Activation, DenseLayer};
use aligraph_tensor::init::{seeded_rng, xavier_uniform};
use aligraph_tensor::{sigmoid, Matrix};
use parking_lot::Mutex;

/// An LSTM cell over neighbor embeddings; the aggregate is the final hidden
/// state. Weights are fixed at construction (a randomly initialized LSTM is
/// already a strong sequence summarizer for aggregation — the trainable
/// parameters of the GNN remain in COMBINE), matching the common
/// reservoir-style simplification for sampled neighborhoods.
#[derive(Debug)]
pub struct LstmAggregator {
    /// `[W_i W_f W_o W_g]` stacked: each `(2d) x d` (input ++ hidden).
    w: Matrix,
    dim: usize,
}

impl LstmAggregator {
    /// An LSTM aggregator over `dim`-dimensional embeddings.
    pub fn new(dim: usize, seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        LstmAggregator { w: xavier_uniform(2 * dim, 4 * dim, &mut rng), dim }
    }

    fn step(&self, x: &[f32], h: &mut [f32], c: &mut [f32]) {
        let d = self.dim;
        // gates = [x ; h] @ W, laid out as [i f o g].
        let xh = Matrix::from_vec(1, 2 * d, [x, &*h].concat());
        let gates = xh.matmul(&self.w);
        let gates = gates.as_slice();
        for j in 0..d {
            let i = sigmoid(gates[j]);
            let f = sigmoid(gates[d + j]);
            let o = sigmoid(gates[2 * d + j]);
            let g = gates[3 * d + j].tanh();
            c[j] = f * c[j] + i * g;
            h[j] = o * c[j].tanh();
        }
    }
}

impl Aggregator for LstmAggregator {
    fn forward(&self, _target: &[f32], neighbors: &[&[f32]], out: &mut [f32]) {
        out.fill(0.0);
        if neighbors.is_empty() {
            return;
        }
        debug_assert_eq!(out.len(), self.dim);
        let mut h = vec![0.0f32; self.dim];
        let mut c = vec![0.0f32; self.dim];
        for nbr in neighbors {
            self.step(nbr, &mut h, &mut c);
        }
        out.copy_from_slice(&h);
    }

    fn backward(
        &self,
        _target: &[f32],
        neighbors: &[&[f32]],
        grad_out: &[f32],
        grad_neighbors: &mut [Vec<f32>],
    ) {
        // Straight-through: distribute the output gradient uniformly over
        // the sequence (gates as constants). Later neighbors dominate the
        // final state, but the uniform route keeps every sampled neighbor's
        // subtree learning.
        if neighbors.is_empty() {
            return;
        }
        let inv = 1.0 / neighbors.len() as f32;
        for g in grad_neighbors.iter_mut() {
            for (gn, &go) in g.iter_mut().zip(grad_out) {
                *gn = go * inv;
            }
        }
    }

    fn name(&self) -> &'static str {
        "lstm"
    }
}

/// The "max-pooling neural network": `max_u act(W h_u + b)` with a shared,
/// trainable dense layer ahead of the pool.
#[derive(Debug)]
pub struct PoolNnAggregator {
    layer: Mutex<DenseLayer>,
    dim: usize,
}

impl PoolNnAggregator {
    /// A pooling network `dim -> dim` with ReLU.
    pub fn new(dim: usize, lr: f32, seed: u64) -> Self {
        PoolNnAggregator {
            layer: Mutex::new(DenseLayer::new(dim, dim, Activation::Relu, lr, seed)),
            dim,
        }
    }

    /// Applies accumulated dense-layer gradients.
    pub fn step(&self, batch: usize) {
        self.layer.lock().step(batch);
    }

    fn transformed(&self, neighbors: &[&[f32]]) -> Matrix {
        let mut x = Matrix::zeros(neighbors.len(), self.dim);
        for (i, nbr) in neighbors.iter().enumerate() {
            x.row_mut(i).copy_from_slice(nbr);
        }
        self.layer.lock().forward(&x)
    }
}

impl Aggregator for PoolNnAggregator {
    fn forward(&self, _target: &[f32], neighbors: &[&[f32]], out: &mut [f32]) {
        out.fill(0.0);
        if neighbors.is_empty() {
            return;
        }
        let t = self.transformed(neighbors);
        out.copy_from_slice(t.row(0));
        for i in 1..t.rows {
            for (o, &x) in out.iter_mut().zip(t.row(i)) {
                if x > *o {
                    *o = x;
                }
            }
        }
    }

    fn backward(
        &self,
        _target: &[f32],
        neighbors: &[&[f32]],
        grad_out: &[f32],
        grad_neighbors: &mut [Vec<f32>],
    ) {
        if neighbors.is_empty() {
            return;
        }
        // Route each component's gradient to the argmax neighbor, through
        // the dense layer (accumulating the layer's own gradients).
        let t = self.transformed(neighbors);
        let mut grad_t = Matrix::zeros(t.rows, t.cols);
        for (j, &go) in grad_out.iter().enumerate() {
            let mut best = 0usize;
            let mut best_val = t.get(0, j);
            for i in 1..t.rows {
                if t.get(i, j) > best_val {
                    best_val = t.get(i, j);
                    best = i;
                }
            }
            grad_t.set(best, j, go);
        }
        let mut x = Matrix::zeros(neighbors.len(), self.dim);
        for (i, nbr) in neighbors.iter().enumerate() {
            x.row_mut(i).copy_from_slice(nbr);
        }
        let dx = self.layer.lock().backward(&x, &t, &grad_t);
        for (i, g) in grad_neighbors.iter_mut().enumerate().take(dx.rows) {
            g.copy_from_slice(dx.row(i));
        }
    }

    fn name(&self) -> &'static str {
        "max-pool-nn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lstm_summarizes_sequences() {
        let agg = LstmAggregator::new(4, 1);
        let n1 = [1.0f32, 0.0, 0.0, 0.0];
        let n2 = [0.0f32, 1.0, 0.0, 0.0];
        let mut out_a = vec![0.0; 4];
        let mut out_b = vec![0.0; 4];
        agg.forward(&[0.0; 4], &[&n1, &n2], &mut out_a);
        agg.forward(&[0.0; 4], &[&n2, &n1], &mut out_b);
        // Sequence-sensitive (unlike mean), bounded by tanh·sigmoid.
        assert_ne!(out_a, out_b);
        assert!(out_a.iter().all(|x| x.abs() <= 1.0));
        // Deterministic for a fixed seed.
        let again = LstmAggregator::new(4, 1);
        let mut out_c = vec![0.0; 4];
        again.forward(&[0.0; 4], &[&n1, &n2], &mut out_c);
        assert_eq!(out_a, out_c);
    }

    #[test]
    fn lstm_empty_neighborhood_is_zero() {
        let agg = LstmAggregator::new(4, 2);
        let mut out = vec![9.0; 4];
        agg.forward(&[0.0; 4], &[], &mut out);
        assert_eq!(out, vec![0.0; 4]);
        let mut grads: Vec<Vec<f32>> = vec![];
        agg.backward(&[0.0; 4], &[], &[1.0; 4], &mut grads);
    }

    #[test]
    fn lstm_backward_distributes() {
        let agg = LstmAggregator::new(2, 3);
        let n1 = [1.0f32, 2.0];
        let n2 = [3.0f32, 4.0];
        let mut grads = vec![vec![0.0; 2]; 2];
        agg.backward(&[0.0; 2], &[&n1, &n2], &[1.0, 2.0], &mut grads);
        assert_eq!(grads[0], vec![0.5, 1.0]);
        assert_eq!(grads[1], vec![0.5, 1.0]);
    }

    #[test]
    fn pool_nn_forward_is_componentwise_max_of_transforms() {
        let agg = PoolNnAggregator::new(3, 0.01, 4);
        let n1 = [1.0f32, 0.0, 0.0];
        let n2 = [0.0f32, 1.0, 0.0];
        let mut out = vec![0.0; 3];
        agg.forward(&[0.0; 3], &[&n1, &n2], &mut out);
        // max of two ReLU outputs is >= each individually.
        let mut o1 = vec![0.0; 3];
        agg.forward(&[0.0; 3], &[&n1], &mut o1);
        for (m, s) in out.iter().zip(&o1) {
            assert!(m >= s);
        }
        assert!(out.iter().all(|&x| x >= 0.0), "ReLU output");
    }

    #[test]
    fn pool_nn_backward_trains_the_layer() {
        // Pick a seed whose ReLU output is alive for this input (a dead
        // ReLU has no gradient to train with).
        let n1 = [1.0f32, 1.0];
        let (agg, before) = (0..20u64)
            .map(|seed| {
                let agg = PoolNnAggregator::new(2, 0.05, seed);
                let mut out = vec![0.0; 2];
                agg.forward(&[0.0; 2], &[&n1], &mut out);
                (agg, out)
            })
            .find(|(_, out)| out.iter().any(|&x| x > 0.0))
            .expect("some seed activates");
        // Push the pooled output toward zero for a few steps.
        for _ in 0..50 {
            let mut cur = vec![0.0; 2];
            agg.forward(&[0.0; 2], &[&n1], &mut cur);
            let mut grads = vec![vec![0.0; 2]];
            agg.backward(&[0.0; 2], &[&n1], &cur, &mut grads);
            agg.step(1);
        }
        let mut after = vec![0.0; 2];
        agg.forward(&[0.0; 2], &[&n1], &mut after);
        let norm = |v: &[f32]| v.iter().map(|x| x * x).sum::<f32>();
        assert!(norm(&after) < norm(&before), "{before:?} -> {after:?}");
    }
}
