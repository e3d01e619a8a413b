//! Row-major dense `f32` matrices.
//!
//! Sized for GNN mini-batches (hundreds to thousands of rows, embedding
//! dims ~100–400). The three products share one register-blocked kernel
//! (`gemm.rs`) that keeps the scalar loops' summation order.

use crate::gemm::gemm_acc;
use rand::rngs::StdRng;
use rand::Rng;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Matrix from a row-major vector (`data.len() == rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Matrix from a per-element function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Uniform random matrix in `[-bound, bound]`.
    pub fn uniform(rows: usize, cols: usize, bound: f32, rng: &mut StdRng) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(-bound..=bound)).collect();
        Matrix { rows, cols, data }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrowed row.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Raw storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// `self @ other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        gemm_acc(
            [self.rows, other.cols, self.cols],
            &self.data,
            [self.cols, 1],
            &other.data,
            &mut out.data,
        );
        out
    }

    /// `self @ other^T`: `other` is transposed once, then it is
    /// [`matmul`](Self::matmul).
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_transpose shape mismatch");
        self.matmul(&other.transpose())
    }

    /// `self^T @ other`.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.transpose_matmul_acc(other, &mut out);
        out
    }

    /// `out += self^T @ other`, each element of `out` taking its terms one
    /// row of `self` at a time — the gradient accumulation `dW += XᵀG`,
    /// which over stacked rows equals one rank-1 update per row.
    pub fn transpose_matmul_acc(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "transpose_matmul shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "transpose_matmul shape mismatch"
        );
        gemm_acc(
            [self.cols, other.cols, self.rows],
            &self.data,
            [1, self.cols],
            &other.data,
            &mut out.data,
        );
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &x) in row.iter().enumerate() {
                out.data[c * self.rows + r] = x;
            }
        }
        out
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += scale * other`.
    pub fn add_scaled(&mut self, scale: f32, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// `self *= scale`.
    pub fn scale(&mut self, scale: f32) {
        for a in &mut self.data {
            *a *= scale;
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Adds a bias row vector to every row.
    pub fn add_row_vector(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols);
        for r in 0..self.rows {
            for (a, b) in self.row_mut(r).iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    /// L2-normalizes every row (Algorithm 1 line 7).
    pub fn l2_normalize_rows(&mut self) {
        for r in 0..self.rows {
            crate::l2_normalize(self.row_mut(r));
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Clips every element to `[-limit, limit]` (gradient clipping).
    pub fn clip(&mut self, limit: f32) {
        for a in &mut self.data {
            *a = a.clamp(-limit, limit);
        }
    }

    /// Concatenates two matrices horizontally (`[self | other]`).
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Splits a matrix produced by [`hcat`](Self::hcat) back into two parts.
    pub fn hsplit(&self, left_cols: usize) -> (Matrix, Matrix) {
        assert!(left_cols <= self.cols);
        let mut left = Matrix::zeros(self.rows, left_cols);
        let mut right = Matrix::zeros(self.rows, self.cols - left_cols);
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..left_cols]);
            right.row_mut(r).copy_from_slice(&self.row(r)[left_cols..]);
        }
        (left, right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::uniform(4, 4, 1.0, &mut rng);
        let c = a.matmul(&Matrix::identity(4));
        for (x, y) in a.as_slice().iter().zip(c.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_variants_agree() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::uniform(3, 5, 1.0, &mut rng);
        let b = Matrix::uniform(4, 5, 1.0, &mut rng);
        let direct = a.matmul_transpose(&b);
        let via_t = a.matmul(&b.transpose());
        for (x, y) in direct.as_slice().iter().zip(via_t.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
        let c = Matrix::uniform(3, 4, 1.0, &mut rng);
        let tm = a.transpose_matmul(&c); // (5x3)(3x4) = 5x4
        let via = a.transpose().matmul(&c);
        for (x, y) in tm.as_slice().iter().zip(via.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        a.map_inplace(|x| x.max(0.0));
        assert_eq!(a.as_slice(), &[1.0, 0.0, 3.0, 0.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[2.0, 0.0, 6.0, 0.0]);
        let b = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[3.0, 1.0, 7.0, 1.0]);
        a.add_scaled(-1.0, &b);
        assert_eq!(a.as_slice(), &[2.0, 0.0, 6.0, 0.0]);
        a.clip(3.0);
        assert_eq!(a.as_slice(), &[2.0, 0.0, 3.0, 0.0]);
    }

    #[test]
    fn bias_is_added_to_every_row() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_vector(&[1.0, 2.0]);
        assert_eq!(a.as_slice(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn row_normalization() {
        let mut a = Matrix::from_vec(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        a.l2_normalize_rows();
        assert!((a.get(0, 0) - 0.6).abs() < 1e-6);
        assert_eq!(a.row(1), &[0.0, 0.0]); // zero row untouched
    }

    #[test]
    fn hcat_hsplit_roundtrip() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 1, vec![5.0, 6.0]);
        let cat = a.hcat(&b);
        assert_eq!(cat.cols, 3);
        assert_eq!(cat.row(1), &[3.0, 4.0, 6.0]);
        let (l, r) = cat.hsplit(2);
        assert_eq!(l, a);
        assert_eq!(r, b);
    }

    #[test]
    fn frobenius() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
    }
}
