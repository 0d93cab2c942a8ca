use crate::{Mechanism, MechanismError, SanitizedMatrix};
use dpod_dp::Noise;
use dpod_fmatrix::DenseMatrix;

/// The IDENTITY baseline (\[7\], Table 2): add `Lap(1/ε)` to every matrix
/// entry independently.
///
/// Zero uniformity error, maximal noise error — the number of released
/// counts equals the domain size, so on sparse high-dimensional matrices
/// the noise swamps the signal (the effect Figures 4–6 show).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Identity;

impl Mechanism for Identity {
    fn name(&self) -> &'static str {
        "IDENTITY"
    }

    fn release(
        &self,
        input: &DenseMatrix<u64>,
        noise: &mut Noise<'_>,
    ) -> Result<SanitizedMatrix, MechanismError> {
        // Entries are disjoint singleton partitions: parallel composition
        // lets each receive the full budget.
        let share = noise.rest("entries")?;
        let mut out = DenseMatrix::<f64>::zeros(input.shape().clone());
        for (i, &v) in input.as_slice().iter().enumerate() {
            out.set_flat(i, noise.laplace(v as f64, share));
        }
        Ok(SanitizedMatrix::from_entries(
            self.name(),
            noise.total(),
            out,
        ))
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
    fn every_entry_is_perturbed_independently() {
        let s = Shape::new(vec![8, 8]).unwrap();
        let m = DenseMatrix::from_vec(s.clone(), vec![100u64; 64]).unwrap();
        let out = Identity
            .sanitize(&m, eps(1.0), &mut dpod_dp::seeded_rng(1))
            .unwrap();
        let values: Vec<f64> = out.matrix().as_slice().to_vec();
        // All entries differ from the truth and from each other (a.s.).
        assert!(values.iter().all(|&v| v != 100.0));
        let first = values[0];
        assert!(values.iter().skip(1).any(|&v| v != first));
        assert_eq!(out.num_partitions(), 64);
    }

    #[test]
    fn unbiased_total_at_scale() {
        let s = Shape::new(vec![50, 50]).unwrap();
        let m = DenseMatrix::from_vec(s.clone(), vec![10u64; 2500]).unwrap();
        let out = Identity
            .sanitize(&m, eps(1.0), &mut dpod_dp::seeded_rng(2))
            .unwrap();
        // Total noise std = √(2·2500)/1 ≈ 71; truth 25 000.
        assert!((out.total() - 25_000.0).abs() < 500.0);
    }

    #[test]
    fn noise_scale_shrinks_with_epsilon() {
        let s = Shape::new(vec![40, 40]).unwrap();
        let m = DenseMatrix::<u64>::zeros(s);
        let spread = |e: f64, seed: u64| {
            let out = Identity
                .sanitize(&m, eps(e), &mut dpod_dp::seeded_rng(seed))
                .unwrap();
            out.matrix().as_slice().iter().map(|v| v.abs()).sum::<f64>() / 1600.0
        };
        assert!(spread(0.1, 3) > 4.0 * spread(10.0, 3));
    }
}
