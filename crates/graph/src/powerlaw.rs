//! Power-law diagnostics for Theorems 1 and 2 (paper appendix).
//!
//! Theorem 1: if 1-hop in/out degrees are power-law distributed, so are the
//! k-hop neighbor counts. Theorem 2: the importance values `Imp^(k)` are then
//! power-law too — i.e. only a small head of vertices is worth caching.
//!
//! [`fit_exponent`] is the discrete maximum-likelihood (Clauset–Shalizi–
//! Newman) estimator `α = 1 + n / Σ ln(x_i / (x_min - 1/2))`, and
//! [`head_mass`] measures how concentrated a distribution is, which the
//! tests and the `theorem_powerlaw` experiment binary use to verify that the
//! synthetic graphs are in the regime the theorems assume.

/// A fitted power-law summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Estimated exponent `α`.
    pub alpha: f64,
    /// Minimum value used for the fit.
    pub x_min: f64,
    /// Number of samples at or above `x_min`.
    pub tail_len: usize,
}

/// Fits a power-law exponent by discrete MLE on samples `>= x_min`.
///
/// Returns `None` when fewer than `min_tail` samples lie in the tail (the
/// estimate would be meaningless).
pub fn fit_exponent(samples: &[f64], x_min: f64, min_tail: usize) -> Option<PowerLawFit> {
    if x_min <= 0.0 {
        return None;
    }
    let shift = x_min - 0.5;
    let mut n = 0usize;
    let mut log_sum = 0.0f64;
    for &x in samples {
        if x >= x_min {
            n += 1;
            log_sum += (x / shift).ln();
        }
    }
    if n < min_tail || log_sum <= 0.0 {
        return None;
    }
    Some(PowerLawFit { alpha: 1.0 + n as f64 / log_sum, x_min, tail_len: n })
}

/// Fraction of total mass held by the top `head_fraction` of samples.
///
/// Power-law distributions concentrate: the top 20% of a heavy-tailed degree
/// sequence typically holds well over half the total. Uniform-ish
/// distributions sit near `head_fraction`.
pub fn head_mass(samples: &[f64], head_fraction: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    let total: f64 = sorted.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let head_len = ((samples.len() as f64 * head_fraction).ceil() as usize).max(1);
    sorted[..head_len.min(sorted.len())].iter().sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    /// Draws from a discrete power law with exponent `alpha` by inverse CDF.
    fn powerlaw_samples(alpha: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(1e-9..1.0);
                // Continuous approximation: x = x_min * u^{-1/(alpha-1)}.
                (1.0 * u.powf(-1.0 / (alpha - 1.0))).floor().max(1.0)
            })
            .collect()
    }

    #[test]
    fn recovers_known_exponent() {
        for &alpha in &[2.1f64, 2.5, 3.0] {
            let samples = powerlaw_samples(alpha, 50_000, 11);
            let fit = fit_exponent(&samples, 5.0, 100).expect("fit");
            assert!((fit.alpha - alpha).abs() < 0.3, "alpha {alpha} estimated as {}", fit.alpha);
        }
    }

    #[test]
    fn fit_requires_tail() {
        assert!(fit_exponent(&[1.0, 1.0, 1.0], 5.0, 3).is_none());
        assert!(fit_exponent(&[], 1.0, 1).is_none());
        assert!(fit_exponent(&[2.0; 10], -1.0, 1).is_none());
    }

    #[test]
    fn head_mass_separates_heavy_from_uniform() {
        let heavy = powerlaw_samples(2.2, 10_000, 3);
        let uniform: Vec<f64> = (0..10_000).map(|i| 1.0 + (i % 10) as f64).collect();
        assert!(head_mass(&heavy, 0.2) > 0.5);
        assert!(head_mass(&uniform, 0.2) < 0.35);
        assert_eq!(head_mass(&[], 0.2), 0.0);
    }

    #[test]
    fn ba_graph_degrees_are_heavy_tailed() {
        // Empirical Theorem 1 check: BA in-degrees fit a power law.
        let g = crate::generate::barabasi_albert(3_000, 3, 99).unwrap();
        let degs: Vec<f64> = g.vertices().map(|v| g.in_degree(v) as f64).collect();
        let fit = fit_exponent(&degs, 3.0, 50).expect("tail exists");
        assert!(fit.alpha > 1.5 && fit.alpha < 4.5, "alpha {}", fit.alpha);
        assert!(head_mass(&degs, 0.2) > 0.4);
    }
}
