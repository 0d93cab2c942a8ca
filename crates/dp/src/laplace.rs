//! The Laplace sampler behind [`crate::Noise::laplace`] (Eq. 2 of the
//! paper).
//!
//! For a query with L1-sensitivity `s` and budget ε, noise is drawn from
//! `Lap(b)` with scale `b = s/ε`; the paper writes this `Lap(s/ε)`.

use rand::RngCore;

/// Draws one sample from the zero-mean Laplace distribution with scale `b`.
///
/// Uses the inverse-CDF transform `x = −b · sgn(u) · ln(1 − 2|u|)` with
/// `u ~ U(−½, ½)`, guarded against `ln(0)`.
///
/// # Panics
/// Debug-asserts that `b` is finite and positive.
#[inline]
pub fn sample_laplace(rng: &mut dyn RngCore, scale: f64) -> f64 {
    debug_assert!(
        scale.is_finite() && scale > 0.0,
        "bad Laplace scale {scale}"
    );
    use rand::Rng;
    // Uniform in (−0.5, 0.5]; reject the exact 0.5 endpoint so that
    // 1 − 2|u| never reaches zero.
    let mut u = rng.gen::<f64>() - 0.5;
    while 1.0 - 2.0 * u.abs() <= 0.0 {
        u = rng.gen::<f64>() - 0.5;
    }
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{seeded_rng, DpError, Epsilon, Noise};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn rejects_bad_sensitivity() {
        let mut rng = seeded_rng(1);
        let share = Noise::new(eps(1.0), &mut rng).rest("q").unwrap();
        for bad in [0.0, -2.0, f64::NAN] {
            assert!(matches!(
                share.with_sensitivity(bad, "q"),
                Err(DpError::InvalidSensitivity { .. })
            ));
        }
    }

    #[test]
    fn scale_and_std() {
        let mut rng = seeded_rng(2);
        let mut noise = Noise::new(eps(0.5), &mut rng);
        let share = noise.rest("q").unwrap().with_sensitivity(2.0, "q").unwrap();
        assert!((share.scale() - 4.0).abs() < 1e-12);
        // The released noise has standard deviation √2·b.
        let n = 100_000;
        let var = (0..n)
            .map(|_| noise.laplace(0.0, share).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((var.sqrt() / (4.0 * std::f64::consts::SQRT_2) - 1.0).abs() < 0.03);
    }

    #[test]
    fn samples_are_zero_mean_with_laplace_variance() {
        let mut rng = seeded_rng(12345);
        let b = 3.0;
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_laplace(&mut rng, b)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        // Var[Lap(b)] = 2 b² = 18. Std error of the mean ≈ b√2/√n ≈ 0.0095.
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 18.0).abs() < 0.6, "variance {var} too far from 18");
    }

    #[test]
    fn samples_match_laplace_quantiles() {
        let mut rng = seeded_rng(999);
        let b = 1.0;
        let n = 100_000usize;
        let mut samples: Vec<f64> = (0..n).map(|_| sample_laplace(&mut rng, b)).collect();
        samples.sort_by(|a, c| a.partial_cmp(c).unwrap());
        // CDF of Laplace(0, 1): F(x) = ½ exp(x) for x<0; 1 − ½ exp(−x) else.
        let cdf = |x: f64| {
            if x < 0.0 {
                0.5 * x.exp()
            } else {
                1.0 - 0.5 * (-x).exp()
            }
        };
        for q in [0.05, 0.25, 0.5, 0.75, 0.95] {
            let emp = samples[(q * n as f64) as usize];
            let p = cdf(emp);
            assert!(
                (p - q).abs() < 0.01,
                "quantile {q}: empirical value {emp} has CDF {p}"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let draw = |seed| {
            let mut rng = seeded_rng(seed);
            let mut noise = Noise::new(eps(0.1), &mut rng);
            let share = noise.rest("cells").unwrap();
            (0..10)
                .map(|_| noise.laplace(0.0, share))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    /// Empirical ε-DP check on a single counting query: the densities of
    /// noisy outputs for neighbouring counts (0 vs 1) must differ by at most
    /// e^ε (up to sampling slack). Not a proof — a regression tripwire for
    /// the sampler.
    #[test]
    fn empirical_dp_ratio_single_query() {
        let eps_value = 1.0;
        let n = 400_000;
        let mut rng = seeded_rng(31);
        let mut noise = Noise::new(eps(eps_value), &mut rng);
        let share = noise.rest("count").unwrap();
        let mut hist = |true_v: f64| {
            let mut buckets = vec![0u32; 40];
            for _ in 0..n {
                let x = noise.laplace(true_v, share);
                // Buckets of width 0.25 over [−5, 5].
                let b = (((x + 5.0) / 0.25) as isize).clamp(0, 39) as usize;
                buckets[b] += 1;
            }
            buckets
        };
        let h0 = hist(0.0);
        let h1 = hist(1.0);
        for (i, (&a, &b)) in h0.iter().zip(&h1).enumerate() {
            if a < 500 || b < 500 {
                continue; // skip sparsely populated tails
            }
            let ratio = a as f64 / b as f64;
            let bound = eps_value.exp() * 1.15; // 15% sampling slack
            assert!(
                ratio < bound && 1.0 / ratio < bound,
                "bucket {i}: ratio {ratio} violates e^eps bound"
            );
        }
    }
}
