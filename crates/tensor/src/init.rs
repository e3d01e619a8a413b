//! Seeded weight initializers.

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Xavier/Glorot uniform: `U(-sqrt(6/(fan_in+fan_out)), +...)` — the default
/// for tanh/sigmoid layers.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let bound = (6.0 / (rows + cols) as f32).sqrt();
    Matrix::uniform(rows, cols, bound, rng)
}

/// A seeded RNG for reproducible model initialization.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Small uniform init `U(-0.5/cols, 0.5/cols)` — the word2vec-style
/// embedding initialization used by the random-walk models.
pub fn embedding_uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let bound = 0.5 / cols as f32;
    let data = (0..rows * cols).map(|_| rng.gen_range(-bound..bound)).collect();
    Matrix::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_within_bound_and_seeded() {
        let mut rng = seeded_rng(4);
        let m = xavier_uniform(10, 20, &mut rng);
        let bound = (6.0f32 / 30.0).sqrt();
        assert!(m.as_slice().iter().all(|&x| x.abs() <= bound + 1e-6));
        let mut rng2 = seeded_rng(4);
        let m2 = xavier_uniform(10, 20, &mut rng2);
        assert_eq!(m.as_slice(), m2.as_slice());
    }

    #[test]
    fn embedding_init_small_and_nonzero() {
        let mut rng = seeded_rng(6);
        let m = embedding_uniform(100, 50, &mut rng);
        assert!(m.as_slice().iter().all(|&x| x.abs() <= 0.01 + 1e-6));
        assert!(m.as_slice().iter().any(|&x| x != 0.0));
    }
}
