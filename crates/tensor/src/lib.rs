//! # aligraph-tensor
//!
//! The neural-network substrate of the AliGraph reproduction. The original
//! system delegates training math to TensorFlow; this crate supplies the
//! equivalent primitives from scratch so the GNN models (paper §4) can run
//! end-to-end in pure Rust:
//!
//! * [`matrix::Matrix`] — row-major dense `f32` matrices with GEMM and the
//!   elementwise/rowwise operations GNN layers need,
//! * [`activations`] — `relu` / `sigmoid` / `tanh` / row `softmax` with
//!   derivatives,
//! * [`init`] — seeded Xavier/He initializers,
//! * [`optim`] — Adam, for dense layer parameters,
//! * [`embedding::EmbeddingTable`] — dense embedding rows with sparse
//!   (row-wise) SGD / AdaGrad updates, as used by every random-walk model,
//! * [`loss`] — logistic pair losses and negative-sampling skip-gram
//!   gradients shared by DeepWalk-family trainers.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod activations;
pub mod embedding;
mod gemm;
pub mod init;
pub mod loss;
pub mod matrix;
pub mod optim;

pub use embedding::EmbeddingTable;
pub use matrix::Matrix;
pub use optim::Adam;

/// Numerically safe sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Dot product of two equal-length slices, summed left to right from an
/// explicit `+0.0` (`Iterator::sum` seeds `-0.0` from Rust 1.83 on and `+0.0`
/// before, which made an empty or all-`-0.0` product depend on the compiler).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).fold(0.0, |sum, (x, y)| sum + x * y)
}

/// Cosine similarity (0 when either vector is ~zero).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = dot(a, a).sqrt();
    let nb = dot(b, b).sqrt();
    if na < 1e-12 || nb < 1e-12 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// In-place L2 normalization (no-op on ~zero vectors).
pub fn l2_normalize(v: &mut [f32]) {
    let n = dot(v, v).sqrt();
    if n > 1e-12 {
        for x in v {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_bounds_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dot_seeds_positive_zero_on_every_toolchain() {
        assert_eq!(dot(&[], &[]).to_bits(), 0.0f32.to_bits());
        assert_eq!(dot(&[0.0; 3], &[0.0; 3]).to_bits(), 0.0f32.to_bits());
        assert_eq!(dot(&[-0.0; 3], &[0.0; 3]).to_bits(), 0.0f32.to_bits());
        assert_eq!(dot(&[-1.0], &[0.0]).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn vector_ops() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        let mut v = vec![3.0, 4.0];
        l2_normalize(&mut v);
        assert!((v[0] - 0.6).abs() < 1e-6 && (v[1] - 0.8).abs() < 1e-6);
    }
}
