//! Shared engine for the grid-based mechanisms (EUG, EBP, MKM, AG): the
//! noisy total on ε₀, then an equi-width grid's cells on the rest.

use crate::granularity::round_granularity;
use crate::{MechanismError, SanitizedMatrix};
use dpod_dp::Noise;
use dpod_fmatrix::{AxisBox, DenseMatrix, PrefixSum};
use dpod_partition::UniformGrid;
use std::num::Wrapping;

/// Charges `eps0_fraction` of the budget and returns the noisy total
/// count `N̂` (Alg. 1 lines 1–2; unclamped, formulas clamp). `N` is the
/// count table's full box.
pub(crate) fn noisy_total(
    counts: &PrefixSum<Wrapping<u64>>,
    eps0_fraction: f64,
    noise: &mut Noise<'_>,
) -> Result<f64, MechanismError> {
    if !(eps0_fraction > 0.0 && eps0_fraction < 1.0) {
        return Err(MechanismError::Invalid(format!(
            "eps0_fraction must be in (0,1), got {eps0_fraction}"
        )));
    }
    let e0 = noise.share(noise.total() * eps0_fraction, "noisy total")?;
    let n = counts.box_count(&AxisBox::full(counts.shape()));
    Ok(noise.laplace(n as f64, e0))
}

/// Algorithm 1: the noisy total `N̂`, the granularity
/// `m = granularity(d, N̂, ε_rest)`, an `m^d` equi-width grid, and its
/// cells released with the rest of the budget. `mechanism_name` labels
/// the output.
pub(crate) fn grid_release(
    input: &DenseMatrix<u64>,
    eps0_fraction: f64,
    mechanism_name: &str,
    noise: &mut Noise<'_>,
    granularity: impl Fn(usize, f64, f64) -> f64,
) -> Result<SanitizedMatrix, MechanismError> {
    let prefix = PrefixSum::from_counts(input);
    let n_hat = noisy_total(&prefix, eps0_fraction, noise)?;
    let m = granularity(input.ndim(), n_hat, noise.remaining());
    let cells: Vec<usize> = input
        .shape()
        .dims()
        .iter()
        .map(|&len| round_granularity(m, len))
        .collect();
    let grid = UniformGrid::new(input.shape(), &cells).map_err(MechanismError::Invalid)?;
    // Disjoint partitions ⇒ parallel composition: each cell's count query
    // consumes the same (remaining) budget once, not once per cell.
    let e_data = noise.rest("grid cell counts")?;
    let boxes: Vec<AxisBox> = grid.iter_boxes().collect();
    let noisy: Vec<f64> = boxes
        .iter()
        .map(|b| noise.laplace(prefix.box_count(b) as f64, e_data))
        .collect();
    let partitioning = grid.to_partitioning();
    Ok(SanitizedMatrix::from_partitions(
        mechanism_name,
        noise.total(),
        input.shape().clone(),
        partitioning,
        noisy,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_dp::Epsilon;
    use dpod_fmatrix::Shape;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn matrix(dims: &[usize], fill: u64) -> DenseMatrix<u64> {
        let s = Shape::new(dims.to_vec()).unwrap();
        let data = vec![fill; s.size()];
        DenseMatrix::from_vec(s, data).unwrap()
    }

    #[test]
    fn noisy_total_spends_fraction() {
        let m = matrix(&[8, 8], 10);
        let mut rng = dpod_dp::seeded_rng(1);
        let mut noise = Noise::new(eps(1.0), &mut rng);
        let n_hat = noisy_total(&PrefixSum::from_counts(&m), 0.01, &mut noise).unwrap();
        assert!((noise.spent() - 0.01).abs() < 1e-12);
        // With ε₀ = 0.01 the noise scale is 100; N = 640.
        assert!((n_hat - 640.0).abs() < 2_000.0);
    }

    #[test]
    fn noisy_total_rejects_bad_fraction() {
        let m = matrix(&[4], 1);
        let mut rng = dpod_dp::seeded_rng(2);
        let mut noise = Noise::new(eps(1.0), &mut rng);
        let counts = PrefixSum::from_counts(&m);
        assert!(noisy_total(&counts, 0.0, &mut noise).is_err());
        assert!(noisy_total(&counts, 1.0, &mut noise).is_err());
    }

    #[test]
    fn sanitize_grid_releases_every_cell() {
        let m = matrix(&[6, 6], 100);
        let mut rng = dpod_dp::seeded_rng(3);
        let mut noise = Noise::new(eps(2.0), &mut rng);
        let out = grid_release(&m, 0.01, "test", &mut noise, |_, _, _| 3.0).unwrap();
        assert_eq!(out.num_partitions(), 9);
        assert!((noise.spent() - 2.0).abs() < 1e-12);
        // Each 2×2 block holds 400; with ε=2 noise is tiny relative to that.
        let err = (out.total() - 3_600.0).abs();
        assert!(err < 100.0, "total error {err}");
    }

    #[test]
    fn grid_output_close_to_truth_at_high_budget() {
        let m = matrix(&[10, 10], 50);
        let mut rng = dpod_dp::seeded_rng(4);
        let mut noise = Noise::new(eps(50.0), &mut rng);
        let out = grid_release(&m, 0.01, "hi", &mut noise, |_, _, _| 5.0).unwrap();
        for c in m.shape().iter_coords() {
            let est = out.entry(&c).unwrap();
            assert!((est - 50.0).abs() < 5.0, "entry {c:?}: {est}");
        }
    }
}
