//! The two-sided geometric ("discrete Laplace") sampler behind
//! [`crate::Noise::geometric`].
//!
//! An integer-valued alternative to Laplace noise for count queries; the
//! paper lists "more sophisticated mechanisms in addition to Laplace noise
//! addition" as future work, and `reproduce ablation` (A5) compares the two.
//!
//! For sensitivity `s` and budget ε, noise `k ∈ ℤ` is released with
//! `Pr[k] ∝ α^{|k|}` where `α = e^{−ε/s}`; this satisfies ε-DP for
//! integer-valued queries of L1-sensitivity `s`.

use rand::RngCore;

/// Draws one sample of two-sided geometric noise with parameter `alpha ∈ (0,1)`.
///
/// Sampling: `k = G₁ − G₂` with `Gᵢ` i.i.d. geometric on `{0,1,…}` with
/// success probability `1 − α`; the difference has exactly the two-sided
/// geometric law.
#[inline]
pub fn sample_two_sided_geometric(rng: &mut dyn RngCore, alpha: f64) -> i64 {
    debug_assert!((0.0..1.0).contains(&alpha), "alpha must be in [0,1)");
    let g1 = sample_geometric(rng, alpha);
    let g2 = sample_geometric(rng, alpha);
    g1 - g2
}

/// Geometric sample on `{0, 1, 2, …}` with `Pr[k] = (1−α) α^k`,
/// via inversion: `k = ⌊ln(u)/ln(α)⌋`.
#[inline]
fn sample_geometric(rng: &mut dyn RngCore, alpha: f64) -> i64 {
    use rand::Rng;
    if alpha <= 0.0 {
        return 0;
    }
    let mut u: f64 = rng.gen();
    while u <= 0.0 {
        u = rng.gen();
    }
    (u.ln() / alpha.ln()).floor() as i64
}

#[cfg(test)]
mod tests {
    use crate::{seeded_rng, DpError, Epsilon, Noise};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn rejects_bad_sensitivity() {
        let mut rng = seeded_rng(1);
        let s = Noise::new(eps(1.0), &mut rng).rest("counts").unwrap();
        assert!(matches!(
            s.with_sensitivity(0.0, "counts"),
            Err(DpError::InvalidSensitivity { .. })
        ));
        assert!(s.with_sensitivity(f64::INFINITY, "counts").is_err());
    }

    #[test]
    fn alpha_decreases_with_epsilon() {
        // More budget must mean faster decay: fewer draws away from 0.
        let spread = |e: f64| {
            let mut rng = seeded_rng(2);
            let mut noise = Noise::new(eps(e), &mut rng);
            let s = noise.rest("counts").unwrap();
            (0..20_000).filter(|_| noise.geometric(0, s) != 0).count()
        };
        assert!(spread(0.1) > spread(1.0));
    }

    #[test]
    fn noise_is_zero_mean_integer() {
        let mut rng = seeded_rng(77);
        let mut noise = Noise::new(eps(0.5), &mut rng);
        let s = noise.rest("counts").unwrap();
        let n = 100_000;
        let sum: i64 = (0..n).map(|_| noise.geometric(0, s)).sum();
        let mean = sum as f64 / n as f64;
        // std ≈ √(2α)/(1−α) ≈ 3.2; s.e. of mean ≈ 0.01
        assert!(mean.abs() < 0.06, "mean {mean} too far from 0");
    }

    #[test]
    fn variance_matches_closed_form() {
        let mut rng = seeded_rng(13);
        let mut noise = Noise::new(eps(1.0), &mut rng);
        let s = noise.rest("counts").unwrap();
        let n = 200_000;
        let samples: Vec<i64> = (0..n).map(|_| noise.geometric(0, s)).collect();
        let mean = samples.iter().sum::<i64>() as f64 / n as f64;
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        // Var = 2α/(1−α)² with α = e^{−ε}.
        let a = (-1.0f64).exp();
        let expected = 2.0 * a / ((1.0 - a) * (1.0 - a));
        assert!(
            (var - expected).abs() / expected < 0.05,
            "variance {var} vs expected {expected}"
        );
    }

    #[test]
    fn pmf_ratio_respects_dp_bound() {
        // Empirical PMF ratio between neighbouring counts 0 and 1 must stay
        // within e^ε (with sampling slack).
        let e = 0.8;
        let mut rng = seeded_rng(3);
        let mut noise = Noise::new(eps(e), &mut rng);
        let s = noise.rest("counts").unwrap();
        let n = 300_000;
        let mut h0 = std::collections::HashMap::new();
        let mut h1 = std::collections::HashMap::new();
        for _ in 0..n {
            *h0.entry(noise.geometric(0, s)).or_insert(0u32) += 1;
            *h1.entry(noise.geometric(1, s)).or_insert(0u32) += 1;
        }
        for (k, &a) in &h0 {
            let b = h1.get(k).copied().unwrap_or(0);
            if a < 1000 || b < 1000 {
                continue;
            }
            let ratio = a as f64 / b as f64;
            let bound = e.exp() * 1.1;
            assert!(
                ratio < bound && 1.0 / ratio < bound,
                "k={k}: ratio {ratio} violates bound"
            );
        }
    }
}
