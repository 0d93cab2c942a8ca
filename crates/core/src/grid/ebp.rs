use crate::granularity::ebp_m;
use crate::grid_engine::grid_release;
use crate::{Mechanism, MechanismError, SanitizedMatrix};
use dpod_dp::Noise;
use dpod_fmatrix::DenseMatrix;

/// Entropy-Based Partitioning (§3.2).
///
/// Replaces EUG's error-balancing formula (which needs the empirical
/// constant `c₀`) with an information-theoretic one: the granularity
/// `m = (N̂ε/√2)^(2/(3d))` (Eq. 19) equalizes the entropy of the injected
/// Laplace noise with the information lost by coarsening the matrix.
/// The pipeline is otherwise Algorithm 1 with line 4 swapped.
#[derive(Debug, Clone, PartialEq)]
pub struct Ebp {
    /// Fraction of the budget spent on the noisy total (ε₀).
    pub eps0_fraction: f64,
}

impl Default for Ebp {
    fn default() -> Self {
        Ebp {
            eps0_fraction: 0.01,
        }
    }
}

impl Ebp {
    /// The granularity this configuration chooses for a sanitized total
    /// `n_hat` at data budget `epsilon` in `d` dimensions.
    pub fn granularity(&self, d: usize, n_hat: f64, epsilon: f64) -> f64 {
        ebp_m(d, n_hat, epsilon)
    }
}

impl Mechanism for Ebp {
    fn name(&self) -> &'static str {
        "EBP"
    }

    fn release(
        &self,
        input: &DenseMatrix<u64>,
        noise: &mut Noise<'_>,
    ) -> Result<SanitizedMatrix, MechanismError> {
        grid_release(input, self.eps0_fraction, self.name(), noise, ebp_m)
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
    fn ebp_is_coarser_than_eug_in_2d() {
        // With the paper's parameters (N=1e6, ε=0.1): EUG m≈100, EBP m≈41.
        let ebp = Ebp::default().granularity(2, 1e6, 0.1);
        let eug = crate::grid::Eug::default().granularity(2, 1e6, 0.1);
        assert!(ebp < eug, "EBP {ebp} should be coarser than EUG {eug}");
        assert!((ebp - 41.4).abs() < 0.5);
    }

    #[test]
    fn produces_valid_partitioning() {
        let m = uniform_matrix(&[30, 30], 10);
        let out = Ebp::default()
            .sanitize(&m, eps(0.5), &mut dpod_dp::seeded_rng(1))
            .unwrap();
        match out.summary() {
            PartitionSummary::Boxes { partitioning, .. } => {
                assert!(partitioning.validate().is_ok())
            }
            other => panic!("expected boxes, got {other:?}"),
        }
    }

    #[test]
    fn six_dimensional_input() {
        let m = uniform_matrix(&[4, 4, 4, 4, 4, 4], 2);
        let out = Ebp::default()
            .sanitize(&m, eps(0.3), &mut dpod_dp::seeded_rng(2))
            .unwrap();
        assert_eq!(out.matrix().ndim(), 6);
        // Total estimate should be in the right ballpark (N = 8192).
        assert!((out.total() - 8192.0).abs() < 8192.0);
    }

    #[test]
    fn accurate_on_uniform_data() {
        // Uniform data has zero uniformity error; with a generous budget the
        // estimate must track the truth closely.
        let m = uniform_matrix(&[32, 32], 100);
        let out = Ebp::default()
            .sanitize(&m, eps(5.0), &mut dpod_dp::seeded_rng(3))
            .unwrap();
        let rel = (out.total() - m.total()).abs() / m.total();
        assert!(rel < 0.02, "relative total error {rel}");
    }

    #[test]
    fn deterministic_per_seed() {
        let m = uniform_matrix(&[16, 16], 7);
        let a = Ebp::default()
            .sanitize(&m, eps(0.2), &mut dpod_dp::seeded_rng(8))
            .unwrap();
        let b = Ebp::default()
            .sanitize(&m, eps(0.2), &mut dpod_dp::seeded_rng(8))
            .unwrap();
        assert_eq!(a.matrix().as_slice(), b.matrix().as_slice());
    }
}
