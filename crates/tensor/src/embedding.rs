//! Embedding tables with row-sparse updates.
//!
//! Every random-walk model (DeepWalk, Node2Vec, GATNE, ...) keeps one or
//! more `n x d` embedding tables and touches only a handful of rows per
//! training pair — so updates are applied per row, optionally through a
//! per-row AdaGrad accumulator.

use crate::init::embedding_uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A dense `n x d` embedding table.
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    /// Embedding dimension `d`.
    pub dim: usize,
    n: usize,
    weights: Vec<f32>,
    /// Per-element AdaGrad accumulators (allocated lazily on first adaptive
    /// update).
    accum: Option<Vec<f32>>,
}

impl EmbeddingTable {
    /// Word2vec-style initialization `U(-0.5/d, 0.5/d)`.
    pub fn new(n: usize, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = embedding_uniform(n, dim, &mut rng);
        EmbeddingTable { dim, n, weights: m.as_slice().to_vec(), accum: None }
    }

    /// All-zero table (standard for output/context embeddings in word2vec).
    pub fn zeros(n: usize, dim: usize) -> Self {
        EmbeddingTable { dim, n, weights: vec![0.0; n * dim], accum: None }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Borrowed row.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.weights[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable row.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.weights[i * self.dim..(i + 1) * self.dim]
    }

    /// SGD row update: `row -= lr * grad`.
    #[inline]
    pub fn sgd_update(&mut self, i: usize, grad: &[f32], lr: f32) {
        debug_assert_eq!(grad.len(), self.dim);
        for (w, &g) in self.row_mut(i).iter_mut().zip(grad) {
            *w -= lr * g;
        }
    }

    /// AdaGrad row update with per-element accumulators.
    pub fn adagrad_update(&mut self, i: usize, grad: &[f32], lr: f32) {
        debug_assert_eq!(grad.len(), self.dim);
        let accum = self.accum.get_or_insert_with(|| vec![0.0; self.n * self.dim]);
        let row = i * self.dim..(i + 1) * self.dim;
        adagrad_row(&mut self.weights[row.clone()], &mut accum[row], grad, lr);
    }

    /// Dot product between two rows.
    #[inline]
    pub fn dot_rows(&self, i: usize, j: usize) -> f32 {
        crate::dot(self.row(i), self.row(j))
    }

    /// Dot product between a row here and a row of `other` (input vs. output
    /// embeddings).
    #[inline]
    pub fn dot_with(&self, i: usize, other: &EmbeddingTable, j: usize) -> f32 {
        crate::dot(self.row(i), other.row(j))
    }

    /// L2-normalizes every row in place.
    pub fn l2_normalize_rows(&mut self) {
        for i in 0..self.n {
            crate::l2_normalize(self.row_mut(i));
        }
    }

    /// The `k` nearest rows to row `i` by cosine similarity (excluding `i`).
    pub fn nearest(&self, i: usize, k: usize) -> Vec<(usize, f32)> {
        let mut scored: Vec<(usize, f32)> = (0..self.n)
            .filter(|&j| j != i)
            .map(|j| (j, crate::cosine(self.row(i), self.row(j))))
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }

    /// Raw weights (read-only), row-major.
    pub fn as_slice(&self) -> &[f32] {
        &self.weights
    }
}

/// AdaGrad on one row, element by element: `a += g²`, then
/// `w -= lr·g / (√a + 1e-8)`. [`EmbeddingTable::adagrad_update`] and the
/// parameter server's apply both run this, so their bits agree.
#[inline]
pub fn adagrad_row(weights: &mut [f32], accum: &mut [f32], grad: &[f32], lr: f32) {
    for ((w, a), &g) in weights.iter_mut().zip(accum.iter_mut()).zip(grad) {
        *a += g * g;
        *w -= lr * g / (a.sqrt() + 1e-8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_and_shapes() {
        let t = EmbeddingTable::new(10, 4, 1);
        assert_eq!(t.len(), 10);
        assert_eq!(t.row(3).len(), 4);
        assert!(t.as_slice().iter().any(|&x| x != 0.0));
        let z = EmbeddingTable::zeros(5, 4);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn deterministic_init() {
        let a = EmbeddingTable::new(10, 8, 42);
        let b = EmbeddingTable::new(10, 8, 42);
        assert_eq!(a.as_slice(), b.as_slice());
        let c = EmbeddingTable::new(10, 8, 43);
        assert_ne!(a.as_slice(), c.as_slice());
    }

    #[test]
    fn sgd_update_math() {
        let mut t = EmbeddingTable::zeros(2, 2);
        t.sgd_update(1, &[1.0, -2.0], 0.5);
        assert_eq!(t.row(1), &[-0.5, 1.0]);
        assert_eq!(t.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn adagrad_update_shrinks_effective_lr() {
        let mut t = EmbeddingTable::zeros(1, 1);
        t.adagrad_update(0, &[1.0], 1.0);
        let first = -t.row(0)[0];
        let before = t.row(0)[0];
        t.adagrad_update(0, &[1.0], 1.0);
        let second = before - t.row(0)[0];
        assert!(second < first, "adagrad steps must shrink: {first} then {second}");
    }

    #[test]
    fn dots_and_nearest() {
        let mut t = EmbeddingTable::zeros(3, 2);
        t.row_mut(0).copy_from_slice(&[1.0, 0.0]);
        t.row_mut(1).copy_from_slice(&[0.9, 0.1]);
        t.row_mut(2).copy_from_slice(&[0.0, 1.0]);
        assert!(t.dot_rows(0, 1) > t.dot_rows(0, 2));
        let nn = t.nearest(0, 1);
        assert_eq!(nn[0].0, 1);
        let other = t.clone();
        assert!((t.dot_with(0, &other, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_rows() {
        let mut t = EmbeddingTable::zeros(1, 2);
        t.row_mut(0).copy_from_slice(&[3.0, 4.0]);
        t.l2_normalize_rows();
        assert!((t.row(0)[0] - 0.6).abs() < 1e-6);
    }
}
