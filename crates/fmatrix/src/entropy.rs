//! Shannon entropy of frequency matrices (Definition 4 of the paper).
//!
//! EBP (§3.2) reasons about the *information loss* of a partitioning as
//! `H(F) − H(F|P)`; these helpers compute both sides. All logarithms are
//! base 2, matching the paper.

use crate::{AxisBox, DenseMatrix, Element, PrefixSum};
use std::num::Wrapping;

/// Entropy of a discrete distribution given by non-negative weights.
///
/// Weights are normalized internally; zero weights contribute nothing
/// (`0·log 0 = 0` by convention). Returns `0.0` when every weight is zero.
///
/// ```
/// use dpod_fmatrix::entropy::entropy_of_weights;
/// let h = entropy_of_weights([1.0, 1.0, 1.0, 1.0].iter().copied());
/// assert!((h - 2.0).abs() < 1e-12);
/// ```
pub fn entropy_of_weights(weights: impl Iterator<Item = f64> + Clone) -> f64 {
    let total: f64 = weights.clone().filter(|w| *w > 0.0).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut h = 0.0;
    for w in weights {
        if w > 0.0 {
            let p = w / total;
            h -= p * p.log2();
        }
    }
    h
}

/// Entropy of a frequency matrix at entry granularity, `H(F)`.
pub fn matrix_entropy<T: Element>(m: &DenseMatrix<T>) -> f64 {
    entropy_of_weights(m.as_slice().iter().map(|v| v.to_f64()))
}

/// Entropy of a frequency matrix under a partitioning, `H(F|P)`
/// (Definition 4): the entropy of the partition-total distribution.
///
/// Partition totals are read from a prefix-sum table, so the cost is
/// `O(|P| · 2^d)` regardless of partition sizes.
pub fn partition_entropy(prefix: &PrefixSum<Wrapping<u64>>, partitions: &[AxisBox]) -> f64 {
    entropy_of_weights(PartitionWeights {
        prefix,
        partitions,
        next: 0,
    })
}

/// Cloneable iterator adapter over partition totals (needed because
/// [`entropy_of_weights`] takes two passes).
struct PartitionWeights<'a> {
    prefix: &'a PrefixSum<Wrapping<u64>>,
    partitions: &'a [AxisBox],
    next: usize,
}

impl Clone for PartitionWeights<'_> {
    fn clone(&self) -> Self {
        PartitionWeights {
            prefix: self.prefix,
            partitions: self.partitions,
            next: self.next,
        }
    }
}

impl Iterator for PartitionWeights<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let b = self.partitions.get(self.next)?;
        self.next += 1;
        Some(self.prefix.box_count(b) as f64)
    }
}

/// The paper's uniform-data approximation `H(F) ≈ log₂ N` (Eq. 17),
/// used by EBP when the true entropy cannot be observed privately.
#[inline]
pub fn approx_entropy_from_total(n: f64) -> f64 {
    if n <= 1.0 {
        0.0
    } else {
        n.log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;

    fn shape(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec()).unwrap()
    }

    #[test]
    fn uniform_matrix_has_log_size_entropy() {
        let m = DenseMatrix::<u64>::from_vec(shape(&[2, 4]), vec![3; 8]).unwrap();
        assert!((matrix_entropy(&m) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn point_mass_has_zero_entropy() {
        let mut m = DenseMatrix::<u64>::zeros(shape(&[4, 4]));
        m.set(&[2, 2], 100).unwrap();
        assert_eq!(matrix_entropy(&m), 0.0);
    }

    #[test]
    fn empty_matrix_has_zero_entropy() {
        let m = DenseMatrix::<u64>::zeros(shape(&[4, 4]));
        assert_eq!(matrix_entropy(&m), 0.0);
    }

    #[test]
    fn entropy_is_maximal_for_uniform() {
        let uniform = DenseMatrix::<u64>::from_vec(shape(&[8]), vec![5; 8]).unwrap();
        let skewed =
            DenseMatrix::<u64>::from_vec(shape(&[8]), vec![33, 1, 1, 1, 1, 1, 1, 1]).unwrap();
        assert!(matrix_entropy(&skewed) < matrix_entropy(&uniform));
    }

    #[test]
    fn partition_entropy_matches_manual() {
        let m = DenseMatrix::<u64>::from_vec(shape(&[4]), vec![1, 1, 3, 3]).unwrap();
        let p = PrefixSum::from_counts(&m);
        let parts = vec![
            AxisBox::new(vec![0], vec![2]).unwrap(), // total 2
            AxisBox::new(vec![2], vec![4]).unwrap(), // total 6
        ];
        let h = partition_entropy(&p, &parts);
        let expected = entropy_of_weights([2.0, 6.0].iter().copied());
        assert!((h - expected).abs() < 1e-12);
        // Coarsening cannot increase entropy.
        assert!(h <= matrix_entropy(&m) + 1e-12);
    }

    #[test]
    fn approx_entropy_clamps_small_totals() {
        assert_eq!(approx_entropy_from_total(0.0), 0.0);
        assert_eq!(approx_entropy_from_total(-3.0), 0.0);
        assert!((approx_entropy_from_total(1024.0) - 10.0).abs() < 1e-12);
    }
}
