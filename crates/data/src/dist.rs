//! From-scratch samplers used by the synthetic-data generators.
//!
//! `rand_distr` is deliberately not a dependency (the workspace builds
//! offline against local shims — see the README): the experiments need
//! exactly two non-uniform laws — the normal (Box–Muller)
//! and the Zipf (finite inverse-CDF table) — and owning them keeps the
//! entire data path inside this workspace's test surface.

use rand::{Rng, RngCore};

/// Draws one standard-normal sample via the Box–Muller transform.
///
/// Uses the polar-free basic form: `z = √(−2 ln u₁) · cos(2π u₂)`. The
/// second variate of the pair is discarded — generation cost is irrelevant
/// next to matrix accumulation, and statelessness keeps call sites simple.
#[inline]
pub fn sample_standard_normal(rng: &mut dyn RngCore) -> f64 {
    let mut u1: f64 = rng.gen();
    while u1 <= f64::MIN_POSITIVE {
        u1 = rng.gen();
    }
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draws one `N(mean, std²)` sample.
#[inline]
pub fn sample_normal(rng: &mut dyn RngCore, mean: f64, std: f64) -> f64 {
    debug_assert!(std >= 0.0, "negative standard deviation");
    mean + std * sample_standard_normal(rng)
}

/// A finite Zipf distribution over `{1, 2, …, n}` with exponent `a`:
/// `Pr[X = k] ∝ k^(−a)`.
///
/// Sampling is by inverse CDF over a precomputed table (`O(log n)` per
/// draw), exact for the finite support the paper uses (each dimension of
/// the frequency matrix).
///
/// ```
/// use dpod_data::dist::Zipf;
/// let z = Zipf::new(100, 2.0).unwrap();
/// let mut rng = rand::thread_rng();
/// let k = z.sample(&mut rng);
/// assert!((1..=100).contains(&k));
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative probabilities; `cdf[k-1] = Pr[X ≤ k]`.
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the table for support `{1, …, n}` and exponent `a`.
    ///
    /// # Errors
    /// A descriptive message when `n == 0` or `a` is not finite/positive.
    pub fn new(n: usize, a: f64) -> Result<Self, String> {
        if n == 0 {
            return Err("Zipf support must be non-empty".into());
        }
        if !a.is_finite() || a <= 0.0 {
            return Err(format!("Zipf exponent must be finite and > 0, got {a}"));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-a);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating-point shortfall at the right end.
        *cdf.last_mut().expect("non-empty") = 1.0;
        Ok(Zipf { cdf })
    }

    /// Support size `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Probability `Pr[X = k]` for `k ∈ {1, …, n}`.
    pub fn pmf(&self, k: usize) -> f64 {
        assert!((1..=self.n()).contains(&k), "k out of support");
        if k == 1 {
            self.cdf[0]
        } else {
            self.cdf[k - 1] - self.cdf[k - 2]
        }
    }

    /// Draws one sample from `{1, …, n}`.
    #[inline]
    pub fn sample(&self, rng: &mut dyn RngCore) -> usize {
        let u: f64 = rng.gen();
        // partition_point returns the first index with cdf > u, i.e. the
        // 0-based value; +1 shifts to the 1-based support.
        self.cdf.partition_point(|&c| c <= u) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn normal_moments() {
        let mut r = rng(11);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut r, 3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn normal_samples_are_finite() {
        let mut r = rng(2);
        for _ in 0..10_000 {
            assert!(sample_standard_normal(&mut r).is_finite());
        }
    }

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, 0.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_decays() {
        let z = Zipf::new(50, 1.5).unwrap();
        let total: f64 = (1..=50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..50 {
            assert!(z.pmf(k) > z.pmf(k + 1), "pmf must be decreasing at {k}");
        }
    }

    #[test]
    fn zipf_samples_stay_in_support() {
        let z = Zipf::new(7, 2.5).unwrap();
        let mut r = rng(5);
        for _ in 0..10_000 {
            let k = z.sample(&mut r);
            assert!((1..=7).contains(&k));
        }
    }

    #[test]
    fn zipf_empirical_matches_pmf() {
        let z = Zipf::new(10, 1.2).unwrap();
        let mut r = rng(7);
        let n = 200_000;
        let mut counts = [0u32; 11];
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        for (k, &count) in counts.iter().enumerate().skip(1) {
            let emp = count as f64 / n as f64;
            let exact = z.pmf(k);
            assert!(
                (emp - exact).abs() < 0.005,
                "k={k}: empirical {emp} vs exact {exact}"
            );
        }
    }

    #[test]
    fn higher_exponent_is_more_skewed() {
        let mild = Zipf::new(100, 1.1).unwrap();
        let steep = Zipf::new(100, 3.0).unwrap();
        assert!(steep.pmf(1) > mild.pmf(1));
        assert!(steep.pmf(100) < mild.pmf(100));
    }

    #[test]
    fn singleton_support_always_returns_one() {
        let z = Zipf::new(1, 2.0).unwrap();
        let mut r = rng(9);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut r), 1);
        }
    }
}
