use crate::granularity::mkm_m;
use crate::grid_engine::grid_release;
use crate::{Mechanism, MechanismError, SanitizedMatrix};
use dpod_dp::Noise;
use dpod_fmatrix::DenseMatrix;

/// The MKM grid baseline (\[11\] — Lei's differentially-private M-estimators).
///
/// Identical pipeline to EUG/EBP but with the dimensionality-aware
/// granularity rule `m = (N̂ ε²/ln N̂)^(1/(d+2))` (the paper cites no
/// formula; see [`crate::granularity::mkm_m`] for how this one is
/// chosen). The paper highlights that
/// this rule violates the ε-scale exchangeability principle of Hay et al.,
/// which our granularity tests assert.
#[derive(Debug, Clone, PartialEq)]
pub struct Mkm {
    /// Fraction of the budget spent on the noisy total (ε₀).
    pub eps0_fraction: f64,
}

impl Default for Mkm {
    fn default() -> Self {
        Mkm {
            eps0_fraction: 0.01,
        }
    }
}

impl Mkm {
    /// The granularity this configuration chooses.
    pub fn granularity(&self, d: usize, n_hat: f64, epsilon: f64) -> f64 {
        mkm_m(d, n_hat, epsilon)
    }
}

impl Mechanism for Mkm {
    fn name(&self) -> &'static str {
        "MKM"
    }

    fn release(
        &self,
        input: &DenseMatrix<u64>,
        noise: &mut Noise<'_>,
    ) -> Result<SanitizedMatrix, MechanismError> {
        grid_release(input, self.eps0_fraction, self.name(), noise, mkm_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_dp::Epsilon;
    use dpod_fmatrix::Shape;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn coarse_grid_at_low_budget() {
        // N=1e6, ε=0.1, d=2: m = (1e4/13.8)^(1/4) ≈ 5.2.
        let m = Mkm::default().granularity(2, 1e6, 0.1);
        assert!((m - 5.2).abs() < 0.3, "m = {m}");
    }

    #[test]
    fn sanitizes_and_partitions_validly() {
        let s = Shape::new(vec![25, 25]).unwrap();
        let m = DenseMatrix::from_vec(s.clone(), vec![8u64; 625]).unwrap();
        let out = Mkm::default()
            .sanitize(&m, eps(0.5), &mut dpod_dp::seeded_rng(1))
            .unwrap();
        match out.summary() {
            crate::PartitionSummary::Boxes { partitioning, .. } => {
                assert!(partitioning.validate().is_ok());
            }
            other => panic!("expected boxes, got {other:?}"),
        }
        assert!((out.total() - 5_000.0).abs() < 2_000.0);
    }

    #[test]
    fn granularity_insensitive_to_matching_scale_changes() {
        // Unlike EBP, MKM's m changes when (N, ε) → (10N, ε/10).
        let a = Mkm::default().granularity(2, 1e6, 0.1);
        let b = Mkm::default().granularity(2, 1e7, 0.01);
        assert!((a - b).abs() > 0.1);
    }
}
