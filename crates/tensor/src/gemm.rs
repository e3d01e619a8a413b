//! The one product kernel under [`Matrix`](crate::Matrix)'s three products.
//!
//! Float contract (DESIGN "Float contract"): every output element is the
//! left-to-right sum `((seed + a₀·b₀) + a₁·b₁) + …` with `k` ascending, one
//! rounded multiply and one rounded add per term, never a fused
//! multiply-add. Blocking changes which elements are in flight together,
//! not the order of any element's own terms, so the result is bit-identical
//! to the scalar triple loop (kept as the `#[cfg(test)]` oracle below).

/// Rows of a register tile.
const MR: usize = 4;
/// Columns of a register tile: two SSE2 vectors, so a full tile's
/// accumulators fill half the baseline register file.
const NR: usize = 8;
/// Columns of a one-row tile: a lone row has no other rows' accumulators to
/// overlap its add latency with, so it takes as many columns as a full
/// `MR x NR` tile has accumulators.
const WIDE: usize = MR * NR;
/// `k` steps per pass over the output. A pass reads `KC` rows of each
/// operand, which keeps the `XᵀG` shape (thousands of rows, ~100 columns)
/// in cache while every tile of the output revisits them.
const KC: usize = 64;

/// `out[i][j] += Σ_k a(i, k) · b[k][j]` for an `m x n` row-major `out` and a
/// `kk x n` row-major `b`, where `a(i, k) = a[i * a_rs + k * a_ks]` — strides
/// `(kk, 1)` read `A`, strides `(1, m)` read `Aᵀ` in place.
pub(crate) fn gemm_acc(
    [m, n, kk]: [usize; 3],
    a: &[f32],
    [a_rs, a_ks]: [usize; 2],
    b: &[f32],
    out: &mut [f32],
) {
    assert_eq!(b.len(), kk * n);
    assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    assert!(kk == 0 || (m - 1) * a_rs + (kk - 1) * a_ks < a.len());
    for k0 in (0..kk).step_by(KC) {
        let b = &b[k0 * n..(k0 + KC).min(kk) * n];
        let a = &a[k0 * a_ks..];
        let mut i = 0;
        while i + MR <= m {
            row_band::<MR>(n, &a[i * a_rs..], [a_rs, a_ks], b, &mut out[i * n..(i + MR) * n]);
            i += MR;
        }
        while i < m {
            row_band::<1>(n, &a[i * a_rs..], [a_rs, a_ks], b, &mut out[i * n..(i + 1) * n]);
            i += 1;
        }
    }
}

/// One band of `M` output rows against every `k` of `b`.
#[inline(always)]
fn row_band<const M: usize>(
    n: usize,
    a: &[f32],
    a_strides: [usize; 2],
    b: &[f32],
    out: &mut [f32],
) {
    let mut j = 0;
    if M == 1 {
        while j + WIDE <= n {
            tile::<1, WIDE>(n, j, a, a_strides, b, out);
            j += WIDE;
        }
    }
    while j + NR <= n {
        tile::<M, NR>(n, j, a, a_strides, b, out);
        j += NR;
    }
    while j < n {
        tile::<M, 1>(n, j, a, a_strides, b, out);
        j += 1;
    }
}

/// The register tile: `M x N` accumulators loaded from `out`, every `k` of
/// `b` applied in order, stored back.
#[inline(always)]
fn tile<const M: usize, const N: usize>(
    n: usize,
    j: usize,
    a: &[f32],
    [a_rs, a_ks]: [usize; 2],
    b: &[f32],
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; N]; M];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(&out[r * n + j..r * n + j + N]);
    }
    for (k, b_row) in b.chunks_exact(n).enumerate() {
        let b_row = &b_row[j..j + N];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = a[r * a_rs + k * a_ks];
            for (o, &bv) in acc_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n + j..r * n + j + N].copy_from_slice(acc_row);
    }
}

/// The scalar loops the blocked kernel replaced, kept verbatim as the oracle
/// of the differential tests (with [`dot`](crate::dot)'s explicit `+0.0`
/// seed).
#[cfg(test)]
pub(crate) mod reference {
    use crate::Matrix;

    pub(crate) fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for (k, &av) in a.row(i).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    pub(crate) fn matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows, b.rows);
        for i in 0..a.rows {
            for j in 0..b.rows {
                out.set(i, j, crate::dot(a.row(i), b.row(j)));
            }
        }
        out
    }

    pub(crate) fn transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols, b.cols);
        for k in 0..a.rows {
            for (i, &av) in a.row(k).iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                for (o, &bv) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                    *o += av * bv;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::reference;
    use crate::init::seeded_rng;
    use crate::Matrix;
    use rand::rngs::StdRng;
    use rand::Rng;

    const ROWS: [usize; 7] = [0, 1, 3, 4, 5, 7, 64];
    const INNER: [usize; 5] = [0, 1, 2, 127, 128];
    const COLS: [usize; 8] = [1, 7, 8, 9, 31, 32, 33, 64];

    /// Finite values that stress the contract: both zeros, ReLU-style zero
    /// runs, subnormals, and magnitudes whose products stay finite.
    fn awkward(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let mut zero_run = 0usize;
        Matrix::from_fn(rows, cols, |_, _| {
            if zero_run > 0 {
                zero_run -= 1;
                return 0.0;
            }
            match rng.gen_range(0..12u32) {
                0 => 0.0,
                1 => -0.0,
                2 => {
                    zero_run = rng.gen_range(1..6);
                    0.0
                }
                3 => 1e-40,
                4 => -3e-42,
                5 => 1e15,
                6 => -7e14,
                _ => rng.gen_range(-1.0f32..=1.0),
            }
        })
    }

    fn assert_same_bits(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!((got.rows, got.cols), (want.rows, want.cols), "{what}: shape");
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g:e} vs {w:e}");
        }
    }

    #[test]
    fn blocked_products_match_the_scalar_reference_bit_for_bit() {
        let mut rng = seeded_rng(16);
        for m in ROWS {
            for k in INNER {
                for n in COLS {
                    let what = format!("{m}x{k}x{n}");
                    let a = awkward(m, k, &mut rng);
                    let b = awkward(k, n, &mut rng);
                    assert_same_bits(&a.matmul(&b), &reference::matmul(&a, &b), &what);
                    let bt = awkward(n, k, &mut rng);
                    assert_same_bits(
                        &a.matmul_transpose(&bt),
                        &reference::matmul_transpose(&a, &bt),
                        &what,
                    );
                    // `a` as the k x m left operand of aᵀ·g.
                    let (x, g) = (awkward(k, m, &mut rng), awkward(k, n, &mut rng));
                    assert_same_bits(
                        &x.transpose_matmul(&g),
                        &reference::transpose_matmul(&x, &g),
                        &what,
                    );
                }
            }
        }
    }

    /// `dW += XᵀG` over stacked rows is one reference rank-1 product per
    /// row, `add_assign`ed in row order — what the encoder did per tape node.
    #[test]
    fn accumulating_product_equals_one_rank_one_update_per_row() {
        let mut rng = seeded_rng(17);
        for (rows, m, n) in [(1, 5, 9), (7, 4, 8), (130, 33, 17)] {
            let (x, g) = (awkward(rows, m, &mut rng), awkward(rows, n, &mut rng));
            let seed = Matrix::uniform(m, n, 1.0, &mut rng);
            let mut want = seed.clone();
            for r in 0..rows {
                let xr = Matrix::from_vec(1, m, x.row(r).to_vec());
                let gr = Matrix::from_vec(1, n, g.row(r).to_vec());
                want.add_assign(&reference::transpose_matmul(&xr, &gr));
            }
            let mut got = seed;
            x.transpose_matmul_acc(&g, &mut got);
            assert_same_bits(&got, &want, &format!("{rows} rows into {m}x{n}"));
        }
    }
}
