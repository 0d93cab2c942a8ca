use crate::{Mechanism, MechanismError, SanitizedMatrix};
use dpod_dp::Noise;
use dpod_fmatrix::DenseMatrix;
use dpod_partition::Partitioning;

/// The UNIFORM (a.k.a. *singular*) baseline (\[8\], Table 2): treat the whole
/// matrix as a single partition, release one noisy total, and answer every
/// query under the global uniformity assumption.
///
/// Minimal noise error (one Laplace draw), maximal uniformity error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Uniform;

impl Mechanism for Uniform {
    fn name(&self) -> &'static str {
        "UNIFORM"
    }

    fn release(
        &self,
        input: &DenseMatrix<u64>,
        noise: &mut Noise<'_>,
    ) -> Result<SanitizedMatrix, MechanismError> {
        let share = noise.rest("total")?;
        let noisy = noise.laplace(input.total(), share);
        let partitioning = Partitioning::single(input.shape().clone());
        Ok(SanitizedMatrix::from_partitions(
            self.name(),
            noise.total(),
            input.shape().clone(),
            partitioning,
            vec![noisy],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_dp::Epsilon;
    use dpod_fmatrix::{AxisBox, Shape};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn releases_exactly_one_partition() {
        let s = Shape::new(vec![10, 10]).unwrap();
        let m = DenseMatrix::from_vec(s.clone(), vec![5u64; 100]).unwrap();
        let out = Uniform
            .sanitize(&m, eps(1.0), &mut dpod_dp::seeded_rng(1))
            .unwrap();
        assert_eq!(out.num_partitions(), 1);
        assert!((out.total() - 500.0).abs() < 30.0);
    }

    #[test]
    fn all_entries_are_equal() {
        let s = Shape::new(vec![4, 4]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.set(&[0, 0], 160).unwrap();
        let out = Uniform
            .sanitize(&m, eps(2.0), &mut dpod_dp::seeded_rng(2))
            .unwrap();
        let v0 = out.entry(&[0, 0]).unwrap();
        for c in m.shape().iter_coords() {
            assert_eq!(out.entry(&c).unwrap(), v0, "uniformity assumption");
        }
    }

    #[test]
    fn perfect_on_uniform_data_queries() {
        // For exactly uniform data the only error is the single noise draw,
        // scaled down by the query's coverage fraction.
        let s = Shape::new(vec![20, 20]).unwrap();
        let m = DenseMatrix::from_vec(s.clone(), vec![10u64; 400]).unwrap();
        let out = Uniform
            .sanitize(&m, eps(1.0), &mut dpod_dp::seeded_rng(3))
            .unwrap();
        let q = AxisBox::new(vec![0, 0], vec![10, 10]).unwrap();
        let truth = 1_000.0;
        assert!((out.range_sum(&q) - truth).abs() < 10.0);
    }
}
