//! A trainable dense layer with explicit forward/backward, the building
//! block of every COMBINE operator and of the model heads in the algorithm
//! layer.

use aligraph_tensor::activations;
use aligraph_tensor::init::{seeded_rng, xavier_uniform};
use aligraph_tensor::{Adam, Matrix};

/// Activation applied after the affine map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    Linear,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

/// `y = act(x @ W + b)` with accumulated gradients and an owned Adam
/// optimizer per parameter tensor.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    w: Matrix,
    b: Vec<f32>,
    act: Activation,
    grad_w: Matrix,
    grad_b: Vec<f32>,
    opt_w: Adam,
    opt_b: Adam,
}

impl DenseLayer {
    /// Xavier-initialized layer `in_dim -> out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, lr: f32, seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        DenseLayer {
            w: xavier_uniform(in_dim, out_dim, &mut rng),
            b: vec![0.0; out_dim],
            act,
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: vec![0.0; out_dim],
            opt_w: Adam::new(lr),
            opt_b: Adam::new(lr),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.rows
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.cols
    }

    /// Forward pass over a batch (rows = samples). Returns the activated
    /// output; keep it around for the backward pass.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        y.add_row_vector(&self.b);
        match self.act {
            Activation::Linear => {}
            Activation::Relu => activations::relu(&mut y),
            Activation::Tanh => activations::tanh_inplace(&mut y),
            Activation::Sigmoid => activations::sigmoid_inplace(&mut y),
        }
        y
    }

    /// Backward pass: given the batch input `x`, the forward output
    /// `activated`, and `grad_out = dL/dy`, accumulates parameter gradients
    /// and returns `dL/dx`. The accumulators take the batch's terms one row
    /// at a time, so a call over stacked rows leaves the same bits as one
    /// call per row in the same order.
    pub fn backward(&mut self, x: &Matrix, activated: &Matrix, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        match self.act {
            Activation::Linear => {}
            Activation::Relu => activations::relu_backward(&mut g, activated),
            Activation::Tanh => activations::tanh_backward(&mut g, activated),
            Activation::Sigmoid => activations::sigmoid_backward(&mut g, activated),
        }
        // dW = x^T g ; db = column sums of g ; dx = g W^T.
        x.transpose_matmul_acc(&g, &mut self.grad_w);
        for r in 0..g.rows {
            for (gb, &s) in self.grad_b.iter_mut().zip(g.row(r)) {
                *gb += s;
            }
        }
        g.matmul_transpose(&self.w)
    }

    /// Applies accumulated gradients (scaled by `1/batch`) and clears them.
    pub fn step(&mut self, batch: usize) {
        let scale = 1.0 / batch.max(1) as f32;
        self.grad_w.scale(scale);
        for gb in &mut self.grad_b {
            *gb *= scale;
        }
        self.grad_w.clip(5.0);
        self.opt_w.step(self.w.as_mut_slice(), self.grad_w.as_slice());
        self.opt_b.step(&mut self.b, &self.grad_b);
        // `fill`, not `scale(0.0)`: the next batch must accumulate from +0.0
        // whatever this one left (a negative entry times 0.0 is -0.0, a NaN
        // stays NaN).
        self.grad_w.as_mut_slice().fill(0.0);
        self.grad_b.fill(0.0);
    }

    /// Read-only weights (tests, serialization).
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Trainable parameters flattened (`W` row-major, then `b`) — the unit
    /// the distributed runtime averages in its epoch-boundary allreduce.
    pub fn param_vec(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.w.as_slice().len() + self.b.len());
        out.extend_from_slice(self.w.as_slice());
        out.extend_from_slice(&self.b);
        out
    }

    /// Overwrites parameters from the [`param_vec`](Self::param_vec) layout.
    pub fn load_param_vec(&mut self, params: &[f32]) -> Result<(), String> {
        let wn = self.w.as_slice().len();
        if params.len() != wn + self.b.len() {
            return Err(format!(
                "dense param buffer {} != {} weights + {} biases",
                params.len(),
                wn,
                self.b.len()
            ));
        }
        self.w.as_mut_slice().copy_from_slice(&params[..wn]);
        self.b.copy_from_slice(&params[wn..]);
        Ok(())
    }

    /// Full state — parameters plus both Adam optimizers — for
    /// checkpointing. Optimizer sections are length-prefixed (the length is
    /// bit-stored in an `f32`) because the moments are lazily allocated.
    pub fn state_vec(&self) -> Vec<f32> {
        let mut out = self.param_vec();
        for s in [self.opt_w.state_vec(), self.opt_b.state_vec()] {
            out.push(f32::from_bits(s.len() as u32));
            out.extend_from_slice(&s);
        }
        out
    }

    /// Restores state captured by [`state_vec`](Self::state_vec).
    pub fn load_state_vec(&mut self, state: &[f32]) -> Result<(), String> {
        let np = self.w.as_slice().len() + self.b.len();
        if state.len() < np {
            return Err(format!("dense state buffer {} shorter than {np} params", state.len()));
        }
        self.load_param_vec(&state[..np])?;
        let mut rest = &state[np..];
        for opt in [&mut self.opt_w, &mut self.opt_b] {
            let (len, tail) =
                rest.split_first().ok_or_else(|| "dense state missing optimizer".to_string())?;
            let len = len.to_bits() as usize;
            if tail.len() < len {
                return Err(format!("optimizer section {} > remaining {}", len, tail.len()));
            }
            opt.load_state_vec(&tail[..len])?;
            rest = &tail[len..];
        }
        if !rest.is_empty() {
            return Err(format!("{} trailing values in dense state", rest.len()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let l = DenseLayer::new(4, 3, Activation::Relu, 0.01, 1);
        let x = Matrix::zeros(5, 4);
        let y = l.forward(&x);
        assert_eq!((y.rows, y.cols), (5, 3));
        assert_eq!(l.in_dim(), 4);
        assert_eq!(l.out_dim(), 3);
    }

    #[test]
    fn gradient_check_linear_layer() {
        // Numerical gradient check of dL/dx for L = sum(y), linear act.
        let mut l = DenseLayer::new(3, 2, Activation::Linear, 0.01, 2);
        let x = Matrix::from_vec(1, 3, vec![0.3, -0.2, 0.5]);
        let y = l.forward(&x);
        let grad_out = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let dx = l.backward(&x, &y, &grad_out);
        let eps = 1e-3;
        for j in 0..3 {
            let mut xp = x.clone();
            xp.set(0, j, x.get(0, j) + eps);
            let mut xm = x.clone();
            xm.set(0, j, x.get(0, j) - eps);
            let lp: f32 = l.forward(&xp).as_slice().iter().sum();
            let lm: f32 = l.forward(&xm).as_slice().iter().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((dx.get(0, j) - fd).abs() < 1e-2, "j={j}: {} vs {}", dx.get(0, j), fd);
        }
    }

    #[test]
    fn training_reduces_regression_loss() {
        // Fit y = 2x (1-D) with a linear layer.
        let mut l = DenseLayer::new(1, 1, Activation::Linear, 0.05, 3);
        let xs: Vec<f32> = (0..16).map(|i| i as f32 / 8.0 - 1.0).collect();
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            let x = Matrix::from_vec(16, 1, xs.clone());
            let y = l.forward(&x);
            // L = 0.5 * sum (y - 2x)^2 ; dL/dy = y - 2x.
            let mut loss = 0.0;
            let mut g = Matrix::zeros(16, 1);
            for (i, &xi) in xs.iter().enumerate() {
                let diff = y.get(i, 0) - 2.0 * xi;
                loss += 0.5 * diff * diff;
                g.set(i, 0, diff);
            }
            l.backward(&x, &y, &g);
            l.step(16);
            first.get_or_insert(loss);
            last = loss;
        }
        assert!(last < first.unwrap() * 0.05, "loss {last} from {}", first.unwrap());
        assert!((l.weights().get(0, 0) - 2.0).abs() < 0.2);
    }

    #[test]
    fn param_and_state_roundtrip() {
        let mut a = DenseLayer::new(3, 2, Activation::Tanh, 0.05, 9);
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.4, 0.2, 0.7, 0.0, -0.3]);
        for _ in 0..3 {
            let y = a.forward(&x);
            let g = Matrix::from_vec(2, 2, vec![1.0, -1.0, 0.5, 0.5]);
            a.backward(&x, &y, &g);
            a.step(2);
        }
        // param_vec/load_param_vec copy exactly.
        let mut fresh = DenseLayer::new(3, 2, Activation::Tanh, 0.05, 10);
        fresh.load_param_vec(&a.param_vec()).unwrap();
        assert_eq!(fresh.weights().as_slice(), a.weights().as_slice());
        // Full state restore makes the next optimizer step bit-identical.
        let mut b = DenseLayer::new(3, 2, Activation::Tanh, 0.05, 11);
        b.load_state_vec(&a.state_vec()).unwrap();
        let (ya, yb) = (a.forward(&x), b.forward(&x));
        let g = Matrix::from_vec(2, 2, vec![0.3, 0.3, -0.2, 0.1]);
        a.backward(&x, &ya, &g);
        b.backward(&x, &yb, &g);
        a.step(2);
        b.step(2);
        for (pa, pb) in a.param_vec().iter().zip(b.param_vec()) {
            assert_eq!(pa.to_bits(), pb.to_bits());
        }
        // Shape errors, no panics.
        assert!(b.load_param_vec(&[0.0; 3]).is_err());
        assert!(b.load_state_vec(&[0.0; 4]).is_err());
        let mut truncated = a.state_vec();
        truncated.pop();
        assert!(b.load_state_vec(&truncated).is_err());
    }

    #[test]
    fn step_clears_gradients_to_positive_zero() {
        // Negative and NaN gradients: `scale(0.0)` left -0.0 and NaN behind.
        let mut l = DenseLayer::new(2, 2, Activation::Linear, 0.01, 5);
        let x = Matrix::from_vec(1, 2, vec![1.0, f32::NAN]);
        let y = l.forward(&x);
        l.backward(&x, &y, &Matrix::from_vec(1, 2, vec![-1.0, -2.0]));
        assert!(l.grad_w.get(0, 0) < 0.0 && l.grad_w.get(1, 0).is_nan() && l.grad_b[0] < 0.0);
        l.step(1);
        for g in l.grad_w.as_slice().iter().chain(&l.grad_b) {
            assert_eq!(g.to_bits(), 0.0f32.to_bits());
        }
    }

    #[test]
    fn stacked_backward_equals_one_backward_per_row() {
        let mut stacked = DenseLayer::new(5, 3, Activation::Relu, 0.05, 6);
        let mut per_row = stacked.clone();
        let mut rng = seeded_rng(7);
        let x = Matrix::uniform(9, 5, 1.0, &mut rng);
        let g = Matrix::uniform(9, 3, 1.0, &mut rng);
        let y = stacked.forward(&x);
        let dx = stacked.backward(&x, &y, &g);
        for r in 0..x.rows {
            let one = |m: &Matrix| Matrix::from_vec(1, m.cols, m.row(r).to_vec());
            let dx_r = per_row.backward(&one(&x), &one(&y), &one(&g));
            assert_eq!(dx_r.as_slice(), dx.row(r));
        }
        stacked.step(9);
        per_row.step(9);
        for (a, b) in stacked.param_vec().iter().zip(per_row.param_vec()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn relu_backward_masks() {
        let mut l = DenseLayer::new(2, 2, Activation::Relu, 0.01, 4);
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = l.forward(&x);
        let g = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let dx = l.backward(&x, &y, &g);
        // Wherever y == 0 the gradient contribution through that unit is 0.
        assert_eq!((dx.rows, dx.cols), (1, 2));
    }
}
