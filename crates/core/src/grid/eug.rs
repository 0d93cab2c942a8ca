use crate::granularity::{eug_m, DEFAULT_C0};
use crate::grid_engine::grid_release;
use crate::{Mechanism, MechanismError, SanitizedMatrix};
use dpod_dp::Noise;
use dpod_fmatrix::DenseMatrix;

/// Extended Uniform Grid (Algorithm 1, §3.1).
///
/// Generalizes the Uniform Grid of Qardaji et al. to any dimensionality:
/// sanitize the total count with ε₀, plug it into the closed-form optimal
/// granularity (Eq. 9 for 2-D, Eq. 8/13 for d > 2), partition into `m^d`
/// equal cells and Laplace-noise each cell with the remaining budget.
///
/// ```
/// use dpod_core::{grid::Eug, Mechanism};
/// # use dpod_dp::Epsilon;
/// # use dpod_fmatrix::{DenseMatrix, Shape};
/// let input = DenseMatrix::<u64>::zeros(Shape::new(vec![16, 16]).unwrap());
/// let out = Eug::default()
///     .sanitize(&input, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(0))
///     .unwrap();
/// assert_eq!(out.mechanism(), "EUG");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Eug {
    /// Fraction of the budget spent on the noisy total (the paper's ε₀;
    /// default 1/100, so nearly all of the budget goes to the cell
    /// counts).
    pub eps0_fraction: f64,
    /// The uniformity constant `c₀` (the paper sets `10/√2`).
    pub c0: f64,
    /// Known query-selectivity ratio `r ∈ (0,1]`; `None` integrates over
    /// all ratios (Eq. 13).
    pub query_ratio: Option<f64>,
}

impl Default for Eug {
    fn default() -> Self {
        Eug {
            eps0_fraction: 0.01,
            c0: DEFAULT_C0,
            query_ratio: None,
        }
    }
}

impl Eug {
    /// EUG tuned for a known query ratio (uses Eq. 8 instead of Eq. 13).
    pub fn with_query_ratio(r: f64) -> Self {
        Eug {
            query_ratio: Some(r),
            ..Eug::default()
        }
    }

    /// The granularity this configuration would choose for a sanitized
    /// total `n_hat` at data budget `epsilon` in `d` dimensions (exposed
    /// for the ablation experiments).
    pub fn granularity(&self, d: usize, n_hat: f64, epsilon: f64) -> f64 {
        eug_m(d, n_hat, epsilon, self.c0, self.query_ratio)
    }
}

impl Mechanism for Eug {
    fn name(&self) -> &'static str {
        "EUG"
    }

    fn release(
        &self,
        input: &DenseMatrix<u64>,
        noise: &mut Noise<'_>,
    ) -> Result<SanitizedMatrix, MechanismError> {
        if !(self.c0 > 0.0 && self.c0.is_finite()) {
            return Err(MechanismError::Invalid(format!(
                "c0 must be > 0, got {}",
                self.c0
            )));
        }
        if let Some(r) = self.query_ratio {
            if !(r > 0.0 && r <= 1.0) {
                return Err(MechanismError::Invalid(format!(
                    "query_ratio must be in (0,1], got {r}"
                )));
            }
        }
        grid_release(input, self.eps0_fraction, self.name(), noise, |d, n, e| {
            self.granularity(d, n, e)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartitionSummary;
    use dpod_dp::Epsilon;
    use dpod_fmatrix::Shape;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn uniform_matrix(dims: &[usize], fill: u64) -> DenseMatrix<u64> {
        let s = Shape::new(dims.to_vec()).unwrap();
        DenseMatrix::from_vec(s.clone(), vec![fill; s.size()]).unwrap()
    }

    #[test]
    fn produces_valid_partitioning() {
        let m = uniform_matrix(&[20, 20], 25);
        let out = Eug::default()
            .sanitize(&m, eps(1.0), &mut dpod_dp::seeded_rng(1))
            .unwrap();
        match out.summary() {
            PartitionSummary::Boxes { partitioning, .. } => {
                assert!(partitioning.validate().is_ok());
            }
            other => panic!("expected boxes, got {other:?}"),
        }
    }

    #[test]
    fn grid_granularity_tracks_budget() {
        // More budget ⇒ finer grid ⇒ more partitions. (Low density keeps
        // both grids away from the per-dimension clamp.)
        let m = uniform_matrix(&[64, 64], 2);
        let lo = Eug::default()
            .sanitize(&m, eps(0.05), &mut dpod_dp::seeded_rng(2))
            .unwrap();
        let hi = Eug::default()
            .sanitize(&m, eps(2.0), &mut dpod_dp::seeded_rng(2))
            .unwrap();
        assert!(hi.num_partitions() > lo.num_partitions());
    }

    #[test]
    fn works_in_four_dimensions() {
        let m = uniform_matrix(&[8, 8, 8, 8], 3);
        let out = Eug::default()
            .sanitize(&m, eps(0.5), &mut dpod_dp::seeded_rng(3))
            .unwrap();
        assert_eq!(out.matrix().ndim(), 4);
        assert!(out.total().is_finite());
    }

    #[test]
    fn rejects_bad_configuration() {
        let m = uniform_matrix(&[4, 4], 1);
        let mut rng = dpod_dp::seeded_rng(4);
        let bad_c0 = Eug {
            c0: 0.0,
            ..Eug::default()
        };
        assert!(bad_c0.sanitize(&m, eps(1.0), &mut rng).is_err());
        let bad_r = Eug::with_query_ratio(1.5);
        assert!(bad_r.sanitize(&m, eps(1.0), &mut rng).is_err());
        let bad_frac = Eug {
            eps0_fraction: 1.0,
            ..Eug::default()
        };
        assert!(bad_frac.sanitize(&m, eps(1.0), &mut rng).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let m = uniform_matrix(&[16, 16], 10);
        let a = Eug::default()
            .sanitize(&m, eps(0.3), &mut dpod_dp::seeded_rng(9))
            .unwrap();
        let b = Eug::default()
            .sanitize(&m, eps(0.3), &mut dpod_dp::seeded_rng(9))
            .unwrap();
        assert_eq!(a.matrix().as_slice(), b.matrix().as_slice());
    }

    #[test]
    fn empty_matrix_is_handled() {
        let m = uniform_matrix(&[10, 10], 0);
        let out = Eug::default()
            .sanitize(&m, eps(0.5), &mut dpod_dp::seeded_rng(5))
            .unwrap();
        // Noisy total near zero clamps to the coarsest grid; output exists.
        assert!(out.total().is_finite());
    }
}
