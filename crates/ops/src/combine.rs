//! COMBINE operators (paper §3.4): merge a vertex's previous-hop embedding
//! `h_v^(k-1)` with the aggregated neighborhood `h'_v` into `h_v^(k)`
//! through a trainable dense layer. Batch-oriented: rows are vertices.

use crate::layer::{Activation, DenseLayer};
use aligraph_tensor::Matrix;

/// A COMBINE plugin operating on batches.
pub trait Combiner: Send {
    /// Output embedding dimension.
    fn out_dim(&self) -> usize;

    /// Forward: `h_self` and `h_nbr` are `batch x d_in`; returns
    /// `batch x out_dim`.
    fn forward(&self, h_self: &Matrix, h_nbr: &Matrix) -> Matrix;

    /// Backward: accumulates parameter gradients and returns
    /// `(dL/dh_self, dL/dh_nbr)`.
    fn backward(
        &mut self,
        h_self: &Matrix,
        h_nbr: &Matrix,
        output: &Matrix,
        grad_out: &Matrix,
    ) -> (Matrix, Matrix);

    /// Applies accumulated gradients (mean over `batch`).
    fn step(&mut self, batch: usize);

    /// Operator name for reports.
    fn name(&self) -> &'static str;

    /// Trainable parameters flattened — what a distributed allreduce
    /// averages. Parameter-free combiners return an empty vector.
    fn param_vec(&self) -> Vec<f32> {
        Vec::new()
    }

    /// Overwrites parameters from the [`param_vec`](Self::param_vec) layout.
    fn load_param_vec(&mut self, params: &[f32]) -> Result<(), String> {
        if params.is_empty() {
            Ok(())
        } else {
            Err(format!("combiner {} has no parameters", self.name()))
        }
    }

    /// Parameters plus optimizer state, for checkpointing.
    fn state_vec(&self) -> Vec<f32> {
        Vec::new()
    }

    /// Restores state captured by [`state_vec`](Self::state_vec).
    fn load_state_vec(&mut self, state: &[f32]) -> Result<(), String> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(format!("combiner {} has no state", self.name()))
        }
    }
}

/// GraphSAGE combine: `h^(k) = act(W [h_self ; h_nbr] + b)`.
#[derive(Debug, Clone)]
pub struct ConcatCombiner {
    layer: DenseLayer,
    in_dim: usize,
}

impl ConcatCombiner {
    /// Combiner mapping `2 * in_dim -> out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, lr: f32, seed: u64) -> Self {
        ConcatCombiner { layer: DenseLayer::new(2 * in_dim, out_dim, act, lr, seed), in_dim }
    }
}

impl Combiner for ConcatCombiner {
    fn out_dim(&self) -> usize {
        self.layer.out_dim()
    }

    fn forward(&self, h_self: &Matrix, h_nbr: &Matrix) -> Matrix {
        self.layer.forward(&h_self.hcat(h_nbr))
    }

    fn backward(
        &mut self,
        h_self: &Matrix,
        h_nbr: &Matrix,
        output: &Matrix,
        grad_out: &Matrix,
    ) -> (Matrix, Matrix) {
        let dx = self.layer.backward(h_self.hcat(h_nbr), output, grad_out);
        dx.hsplit(self.in_dim)
    }

    fn step(&mut self, batch: usize) {
        self.layer.step(batch);
    }

    fn name(&self) -> &'static str {
        "concat"
    }

    fn param_vec(&self) -> Vec<f32> {
        self.layer.param_vec()
    }

    fn load_param_vec(&mut self, params: &[f32]) -> Result<(), String> {
        self.layer.load_param_vec(params)
    }

    fn state_vec(&self) -> Vec<f32> {
        self.layer.state_vec()
    }

    fn load_state_vec(&mut self, state: &[f32]) -> Result<(), String> {
        self.layer.load_state_vec(state)
    }
}

/// GCN-style combine: `h^(k) = act(W (h_self + h_nbr) + b)` — "usually,
/// h^(k-1)_v and h'_v are summed together to \[be\] fed into a deep neural
/// network" (paper §3.4).
#[derive(Debug, Clone)]
pub struct GcnCombiner {
    layer: DenseLayer,
}

impl GcnCombiner {
    /// Combiner mapping `in_dim -> out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, lr: f32, seed: u64) -> Self {
        GcnCombiner { layer: DenseLayer::new(in_dim, out_dim, act, lr, seed) }
    }
}

impl Combiner for GcnCombiner {
    fn out_dim(&self) -> usize {
        self.layer.out_dim()
    }

    fn forward(&self, h_self: &Matrix, h_nbr: &Matrix) -> Matrix {
        let mut x = h_self.clone();
        x.add_assign(h_nbr);
        self.layer.forward(&x)
    }

    fn backward(
        &mut self,
        h_self: &Matrix,
        h_nbr: &Matrix,
        output: &Matrix,
        grad_out: &Matrix,
    ) -> (Matrix, Matrix) {
        let mut x = h_self.clone();
        x.add_assign(h_nbr);
        let dx = self.layer.backward(x, output, grad_out);
        (dx.clone(), dx)
    }

    fn step(&mut self, batch: usize) {
        self.layer.step(batch);
    }

    fn name(&self) -> &'static str {
        "gcn-sum"
    }

    fn param_vec(&self) -> Vec<f32> {
        self.layer.param_vec()
    }

    fn load_param_vec(&mut self, params: &[f32]) -> Result<(), String> {
        self.layer.load_param_vec(params)
    }

    fn state_vec(&self) -> Vec<f32> {
        self.layer.state_vec()
    }

    fn load_state_vec(&mut self, state: &[f32]) -> Result<(), String> {
        self.layer.load_state_vec(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aligraph_tensor::init::seeded_rng;

    #[test]
    fn concat_shapes() {
        let c = ConcatCombiner::new(8, 16, Activation::Relu, 0.01, 1);
        let h_self = Matrix::zeros(4, 8);
        let h_nbr = Matrix::zeros(4, 8);
        let y = c.forward(&h_self, &h_nbr);
        assert_eq!((y.rows, y.cols), (4, 16));
        assert_eq!(c.out_dim(), 16);
    }

    #[test]
    fn gcn_shapes_and_shared_gradient() {
        let mut c = GcnCombiner::new(8, 8, Activation::Linear, 0.01, 2);
        let mut rng = seeded_rng(3);
        let h_self = Matrix::uniform(2, 8, 1.0, &mut rng);
        let h_nbr = Matrix::uniform(2, 8, 1.0, &mut rng);
        let y = c.forward(&h_self, &h_nbr);
        let g = Matrix::uniform(2, 8, 1.0, &mut rng);
        let (ds, dn) = c.backward(&h_self, &h_nbr, &y, &g);
        // Sum combine: both inputs receive the same upstream gradient.
        assert_eq!(ds.as_slice(), dn.as_slice());
    }

    #[test]
    fn concat_split_gradients_differ() {
        let mut c = ConcatCombiner::new(4, 4, Activation::Linear, 0.01, 4);
        let mut rng = seeded_rng(5);
        let h_self = Matrix::uniform(3, 4, 1.0, &mut rng);
        let h_nbr = Matrix::uniform(3, 4, 1.0, &mut rng);
        let y = c.forward(&h_self, &h_nbr);
        let g = Matrix::uniform(3, 4, 1.0, &mut rng);
        let (ds, dn) = c.backward(&h_self, &h_nbr, &y, &g);
        assert_eq!((ds.rows, ds.cols), (3, 4));
        assert_eq!((dn.rows, dn.cols), (3, 4));
        assert_ne!(ds.as_slice(), dn.as_slice());
    }

    #[test]
    fn combiner_param_roundtrip_across_seeds() {
        let a = ConcatCombiner::new(3, 2, Activation::Relu, 0.01, 8);
        let mut b = ConcatCombiner::new(3, 2, Activation::Relu, 0.01, 9);
        assert_ne!(a.param_vec(), b.param_vec());
        b.load_param_vec(&a.param_vec()).unwrap();
        assert_eq!(a.param_vec(), b.param_vec());
        let mut g = GcnCombiner::new(3, 2, Activation::Relu, 0.01, 10);
        g.load_state_vec(&g.state_vec()).unwrap();
        assert!(g.load_param_vec(&[0.0]).is_err());
    }

    #[test]
    fn combiner_trains_to_separate_signal() {
        // Learn to output h_self and ignore h_nbr noise: L = ||y - h_self||^2.
        let mut c = ConcatCombiner::new(2, 2, Activation::Linear, 0.05, 6);
        let mut rng = seeded_rng(7);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..300 {
            let h_self = Matrix::uniform(8, 2, 1.0, &mut rng);
            let h_nbr = Matrix::uniform(8, 2, 1.0, &mut rng);
            let y = c.forward(&h_self, &h_nbr);
            let mut g = y.clone();
            g.add_scaled(-1.0, &h_self);
            let loss = g.frobenius_norm();
            c.backward(&h_self, &h_nbr, &y, &g);
            c.step(8);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < first.unwrap() * 0.5, "loss {last} from {:?}", first);
    }
}
