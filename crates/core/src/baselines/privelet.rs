use crate::{Mechanism, MechanismError, SanitizedMatrix};
use dpod_dp::Noise;
use dpod_fmatrix::{DenseMatrix, Shape};

/// Privelet — wavelet-domain noise (extension baseline; \[18\] in the paper).
///
/// Applies the multi-dimensional *unnormalized* Haar transform (standard
/// tensor decomposition: a full 1-D pyramid along each dimension in turn),
/// adds Laplace noise to every coefficient, inverts, and crops.
///
/// With the unnormalized transform (`approx = left + right`,
/// `detail = left − right`), a ±1 change of one cell changes exactly
/// `1 + log₂ n_i` coefficients by ±1 along each dimension, so the L1
/// sensitivity of the coefficient vector is `∏ᵢ (1 + log₂ n_i)` and every
/// coefficient receives noise of that scale over ε. This is the simplified
/// uniform-weight variant of Xiao et al.'s Privelet (which uses per-level
/// weights): every coefficient gets the same noise scale. Dimensions
/// are padded to powers of two with (data-independent) zeros before the
/// transform.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Privelet;

impl Privelet {
    /// Largest padded domain accepted (keeps accidental 1000⁴ requests from
    /// exhausting memory).
    const MAX_PADDED_CELLS: usize = 1 << 27;
}

impl Mechanism for Privelet {
    fn name(&self) -> &'static str {
        "Privelet"
    }

    fn release(
        &self,
        input: &DenseMatrix<u64>,
        noise: &mut Noise<'_>,
    ) -> Result<SanitizedMatrix, MechanismError> {
        let dims = input.shape().dims();
        let padded_dims = padded_dims(dims);
        let padded_size: usize = padded_dims.iter().product();
        if padded_size > Self::MAX_PADDED_CELLS {
            return Err(MechanismError::Invalid(format!(
                "padded domain has {padded_size} cells (> {})",
                Self::MAX_PADDED_CELLS
            )));
        }
        let padded_shape = Shape::new(padded_dims.clone()).expect("padded dims are valid");

        // Embed the counts into the padded domain.
        let mut buf = DenseMatrix::<f64>::zeros(padded_shape.clone());
        for (i, &v) in input.as_slice().iter().enumerate() {
            let coords = input.shape().coords(i);
            let idx = padded_shape.flat_index_unchecked(&coords);
            buf.set_flat(idx, v as f64);
        }

        // Forward Haar along each dimension, noise, inverse.
        for dim in 0..padded_shape.ndim() {
            haar_along_dim(&mut buf, dim, Direction::Forward);
        }
        let sensitivity: f64 = padded_dims
            .iter()
            .map(|&n| 1.0 + (n as f64).log2())
            .product();
        let share = noise
            .rest("wavelet coefficients")?
            .with_sensitivity(sensitivity, "wavelet coefficients")?;
        for v in buf.as_mut_slice() {
            *v = noise.laplace(*v, share);
        }
        for dim in 0..padded_shape.ndim() {
            haar_along_dim(&mut buf, dim, Direction::Inverse);
        }

        // Crop back to the original domain.
        let mut out = DenseMatrix::<f64>::zeros(input.shape().clone());
        for i in 0..out.len() {
            let coords = input.shape().coords(i);
            let idx = padded_shape.flat_index_unchecked(&coords);
            out.set_flat(i, buf.get_flat(idx));
        }
        Ok(SanitizedMatrix::from_entries(
            self.name(),
            noise.total(),
            out,
        ))
    }
}

/// Per-dimension power-of-two padding for the Haar transform.
fn padded_dims(dims: &[usize]) -> Vec<usize> {
    dims.iter().map(|&n| n.next_power_of_two()).collect()
}

enum Direction {
    Forward,
    Inverse,
}

/// Applies the full 1-D Haar pyramid to every line of `m` along `dim`.
fn haar_along_dim(m: &mut DenseMatrix<f64>, dim: usize, direction: Direction) {
    let shape = m.shape().clone();
    let n = shape.dim(dim);
    if n < 2 {
        return;
    }
    debug_assert!(n.is_power_of_two());
    let stride = shape.strides()[dim];
    let mut line = vec![0.0f64; n];
    let mut scratch = vec![0.0f64; n];

    // Enumerate the base index of every line along `dim`: all indices whose
    // `dim` coordinate is zero.
    let size = shape.size();
    let block = stride * n;
    let mut base = 0;
    while base < size {
        for off in 0..stride {
            let start = base + off;
            for (k, slot) in line.iter_mut().enumerate() {
                *slot = m.get_flat(start + k * stride);
            }
            match direction {
                Direction::Forward => haar_forward(&mut line, &mut scratch),
                Direction::Inverse => haar_inverse(&mut line, &mut scratch),
            }
            for (k, &v) in line.iter().enumerate() {
                m.set_flat(start + k * stride, v);
            }
        }
        base += block;
    }
}

/// In-place unnormalized Haar pyramid: repeatedly maps pairs to
/// `(sum, difference)`, sums first. Layout after: `[base, coarsest detail,
/// …, finest details]`.
fn haar_forward(x: &mut [f64], scratch: &mut [f64]) {
    let mut len = x.len();
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            scratch[i] = x[2 * i] + x[2 * i + 1];
            scratch[half + i] = x[2 * i] - x[2 * i + 1];
        }
        x[..len].copy_from_slice(&scratch[..len]);
        len = half;
    }
}

/// Inverse of [`haar_forward`].
fn haar_inverse(x: &mut [f64], scratch: &mut [f64]) {
    let n = x.len();
    let mut len = 1;
    while len < n {
        for i in 0..len {
            let a = x[i];
            let d = x[len + i];
            scratch[2 * i] = (a + d) / 2.0;
            scratch[2 * i + 1] = (a - d) / 2.0;
        }
        x[..2 * len].copy_from_slice(&scratch[..2 * len]);
        len *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_dp::Epsilon;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn haar_round_trips() {
        let mut x = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let orig = x.clone();
        let mut s = vec![0.0; 8];
        haar_forward(&mut x, &mut s);
        // Base coefficient is the total sum.
        assert!((x[0] - orig.iter().sum::<f64>()).abs() < 1e-12);
        haar_inverse(&mut x, &mut s);
        for (a, b) in x.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn unit_change_touches_log_n_coeffs() {
        // The sensitivity argument: coefficient vectors of neighbouring
        // inputs differ in exactly 1 + log2 n positions, each by ±1.
        let n = 16;
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        b[5] = 1.0;
        let mut s = vec![0.0; n];
        haar_forward(&mut a, &mut s);
        haar_forward(&mut b, &mut s);
        let changed: Vec<f64> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - y).abs())
            .filter(|&d| d > 1e-12)
            .collect();
        assert_eq!(changed.len(), 1 + 4 /* log2 16 */);
        assert!(changed.iter().all(|&d| (d - 1.0).abs() < 1e-12));
    }

    #[test]
    fn sanitize_pads_non_power_of_two() {
        let s = Shape::new(vec![5, 3]).unwrap();
        let m = DenseMatrix::from_vec(s, vec![10u64; 15]).unwrap();
        let out = Privelet
            .sanitize(&m, eps(5.0), &mut dpod_dp::seeded_rng(1))
            .unwrap();
        assert_eq!(out.matrix().shape().dims(), &[5, 3]);
        assert!(out.total().is_finite());
    }

    #[test]
    fn high_budget_recovers_data() {
        let s = Shape::new(vec![16, 16]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.set(&[4, 4], 10_000).unwrap();
        let out = Privelet
            .sanitize(&m, eps(1_000.0), &mut dpod_dp::seeded_rng(2))
            .unwrap();
        assert!((out.entry(&[4, 4]).unwrap() - 10_000.0).abs() < 10.0);
        assert!(out.entry(&[10, 10]).unwrap().abs() < 10.0);
    }

    #[test]
    fn oversized_domains_are_detected_by_the_guard() {
        // 1025 pads to 2048 per dimension; 2048⁴ cells exceed the guard.
        let p = padded_dims(&[1025, 1025, 65, 65]);
        assert_eq!(p, vec![2048, 2048, 128, 128]);
        let cells: usize = p.iter().product();
        assert!(cells > Privelet::MAX_PADDED_CELLS);
        // Within budget: the paper's 1000² city grid pads to 1024².
        let ok: usize = padded_dims(&[1000, 1000]).iter().product();
        assert!(ok <= Privelet::MAX_PADDED_CELLS);
    }

    #[test]
    fn single_cell_dimension_is_noop_for_transform() {
        let s = Shape::new(vec![1, 8]).unwrap();
        let m = DenseMatrix::from_vec(s, vec![5u64; 8]).unwrap();
        let out = Privelet
            .sanitize(&m, eps(100.0), &mut dpod_dp::seeded_rng(4))
            .unwrap();
        assert!((out.total() - 40.0).abs() < 5.0);
    }
}
