//! Activation functions and their derivatives, operating on matrices in
//! place (forward) or producing gradient masks (backward).

use crate::matrix::Matrix;
use crate::sigmoid;

/// ReLU forward, in place.
pub fn relu(m: &mut Matrix) {
    m.map_inplace(|x| x.max(0.0));
}

/// ReLU backward: `grad *= (activated > 0)`, where `activated` is the
/// *post-activation* values.
pub fn relu_backward(grad: &mut Matrix, activated: &Matrix) {
    assert_eq!((grad.rows, grad.cols), (activated.rows, activated.cols));
    for (g, &a) in grad.as_mut_slice().iter_mut().zip(activated.as_slice()) {
        if a <= 0.0 {
            *g = 0.0;
        }
    }
}

/// Elementwise sigmoid, in place.
pub fn sigmoid_inplace(m: &mut Matrix) {
    m.map_inplace(sigmoid);
}

/// Sigmoid backward from post-activation values: `grad *= s * (1 - s)`.
pub fn sigmoid_backward(grad: &mut Matrix, activated: &Matrix) {
    assert_eq!((grad.rows, grad.cols), (activated.rows, activated.cols));
    for (g, &s) in grad.as_mut_slice().iter_mut().zip(activated.as_slice()) {
        *g *= s * (1.0 - s);
    }
}

/// Elementwise tanh, in place.
pub fn tanh_inplace(m: &mut Matrix) {
    m.map_inplace(f32::tanh);
}

/// Tanh backward from post-activation values: `grad *= 1 - t^2`.
pub fn tanh_backward(grad: &mut Matrix, activated: &Matrix) {
    assert_eq!((grad.rows, grad.cols), (activated.rows, activated.cols));
    for (g, &t) in grad.as_mut_slice().iter_mut().zip(activated.as_slice()) {
        *g *= 1.0 - t * t;
    }
}

/// Row-wise softmax, in place (numerically stabilized by the row max).
pub fn softmax_rows(m: &mut Matrix) {
    for r in 0..m.rows {
        let row = m.row_mut(r);
        let max = row.iter().cloned().fold(f32::MIN, f32::max);
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - max).exp();
            sum += *x;
        }
        if sum > 0.0 {
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
    }
}

/// Softmax over a single slice, in place.
pub fn softmax(v: &mut [f32]) {
    let max = v.iter().cloned().fold(f32::MIN, f32::max);
    let mut sum = 0.0;
    for x in v.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut m = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        relu(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let mut g = Matrix::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        relu_backward(&mut g, &m);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn sigmoid_and_tanh_grads_match_finite_difference() {
        let x = 0.3f32;
        let eps = 1e-3;
        // Sigmoid.
        let fd = (crate::sigmoid(x + eps) - crate::sigmoid(x - eps)) / (2.0 * eps);
        let mut m = Matrix::from_vec(1, 1, vec![x]);
        sigmoid_inplace(&mut m);
        let mut g = Matrix::from_vec(1, 1, vec![1.0]);
        sigmoid_backward(&mut g, &m);
        assert!((g.get(0, 0) - fd).abs() < 1e-3);
        // Tanh.
        let fd = ((x + eps).tanh() - (x - eps).tanh()) / (2.0 * eps);
        let mut m = Matrix::from_vec(1, 1, vec![x]);
        tanh_inplace(&mut m);
        let mut g = Matrix::from_vec(1, 1, vec![1.0]);
        tanh_backward(&mut g, &m);
        assert!((g.get(0, 0) - fd).abs() < 1e-3);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        softmax_rows(&mut m);
        for r in 0..2 {
            let s: f32 = m.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        // Larger logits get larger probability.
        assert!(m.get(0, 2) > m.get(0, 0));
        // Stability: equal huge logits => uniform.
        assert!((m.get(1, 0) - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_slice() {
        let mut v = vec![0.0, 0.0];
        softmax(&mut v);
        assert!((v[0] - 0.5).abs() < 1e-6);
    }
}
