//! The dense-parameter optimizer. Each instance owns the state for one
//! parameter tensor (the models hold one per weight matrix). Sparse
//! embedding rows take AdaGrad steps inside
//! [`EmbeddingTable::adagrad_update`](crate::EmbeddingTable::adagrad_update).

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Adam {
    /// Adam with the standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Flat optimizer state for checkpointing: the step counter (bit-exact,
    /// as two `f32`-encoded `u32` halves) followed by the first and second
    /// moments. The moments are empty before the first `step`.
    pub fn state_vec(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(2 + self.m.len() * 2);
        out.push(f32::from_bits(self.t as u32));
        out.push(f32::from_bits((self.t >> 32) as u32));
        out.extend_from_slice(&self.m);
        out.extend_from_slice(&self.v);
        out
    }

    /// Restores state captured by [`state_vec`](Self::state_vec).
    pub fn load_state_vec(&mut self, data: &[f32]) -> Result<(), String> {
        if data.len() < 2 || !(data.len() - 2).is_multiple_of(2) {
            return Err(format!("adam state length {} is not 2 + 2k", data.len()));
        }
        self.t = data[0].to_bits() as u64 | ((data[1].to_bits() as u64) << 32);
        let k = (data.len() - 2) / 2;
        self.m = data[2..2 + k].to_vec();
        self.v = data[2 + k..].to_vec();
        Ok(())
    }

    /// Applies one update step: mutates `params` using `grads`.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        debug_assert_eq!(params.len(), grads.len());
        if self.m.len() != params.len() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_converges() {
        // Minimize f(x) = (x - 3)^2; gradient 2(x-3).
        let mut opt = Adam::new(0.1);
        let mut x = [0.0f32];
        for _ in 0..300 {
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn adam_state_roundtrip_is_bit_exact() {
        let mut a = Adam::new(0.05);
        let mut x = [0.4f32, -1.2];
        for _ in 0..7 {
            a.step(&mut x, &[0.3, -0.1]);
        }
        let mut b = Adam::new(0.05);
        b.load_state_vec(&a.state_vec()).unwrap();
        let mut y = x;
        a.step(&mut x, &[0.2, 0.2]);
        b.step(&mut y, &[0.2, 0.2]);
        assert_eq!(x[0].to_bits(), y[0].to_bits());
        assert_eq!(x[1].to_bits(), y[1].to_bits());
        assert!(Adam::new(0.1).load_state_vec(&[0.0]).is_err());
        assert!(Adam::new(0.1).load_state_vec(&[0.0; 5]).is_err());
    }
}
