//! Marginalization: projecting a frequency matrix onto a subset of its
//! dimensions by summing the rest out.
//!
//! OD matrices make this operation routine — the 2-D *origin density* of a
//! 4-D OD matrix is its marginal over dimensions `(0, 1)`, the conventional
//! OD matrix of a 6-D stops matrix is the marginal over origin+destination
//! dimensions, etc. Marginalizing a *sanitized* matrix is DP
//! post-processing and costs no budget.

use crate::{DenseMatrix, Element, FmError, Result, Shape};

/// Validates a marginal keep-list against a source shape and returns the
/// marginal's shape (the kept dimensions' cardinalities, in `keep`
/// order).
///
/// This is the one keep-list contract shared by every marginal consumer:
/// [`DenseMatrix::marginalize`] lowers through it, and memoizing layers
/// (e.g. a per-release index) use it to size and key their tables
/// without recomputing the projection.
///
/// ```
/// use dpod_fmatrix::{marginal_shape, Shape};
/// let s = Shape::new(vec![4, 5, 6]).unwrap();
/// assert_eq!(marginal_shape(&s, &[0, 2]).unwrap().dims(), &[4, 6]);
/// assert!(marginal_shape(&s, &[2, 0]).is_err());
/// ```
///
/// # Errors
/// [`FmError::InvalidShape`] for an empty, non-strictly-increasing, or
/// out-of-range `keep`.
pub fn marginal_shape(shape: &Shape, keep: &[usize]) -> Result<Shape> {
    if keep.is_empty() {
        return Err(FmError::InvalidShape {
            reason: "marginal must keep at least one dimension".into(),
        });
    }
    if keep.windows(2).any(|w| w[0] >= w[1]) || *keep.last().unwrap() >= shape.ndim() {
        return Err(FmError::InvalidShape {
            reason: format!(
                "keep list {keep:?} must be strictly increasing and < {}",
                shape.ndim()
            ),
        });
    }
    Shape::new(keep.iter().map(|&d| shape.dim(d)).collect())
}

impl<T: Element + std::ops::Add<Output = T>> DenseMatrix<T> {
    /// Sums out every dimension not listed in `keep`, returning the
    /// marginal matrix whose dimension order follows `keep`.
    ///
    /// `keep` must be non-empty, strictly increasing and in range (the
    /// strict order keeps the cell mapping unambiguous).
    ///
    /// ```
    /// use dpod_fmatrix::{DenseMatrix, Shape};
    /// let m = DenseMatrix::from_vec(
    ///     Shape::new(vec![2, 3]).unwrap(), vec![1u64, 2, 3, 4, 5, 6]).unwrap();
    /// let rows = m.marginalize(&[0]).unwrap();
    /// assert_eq!(rows.as_slice(), &[6, 15]);
    /// let cols = m.marginalize(&[1]).unwrap();
    /// assert_eq!(cols.as_slice(), &[5, 7, 9]);
    /// ```
    ///
    /// # Errors
    /// [`FmError::InvalidShape`] for an empty/unsorted/out-of-range `keep`.
    pub fn marginalize(&self, keep: &[usize]) -> Result<DenseMatrix<T>> {
        let out_shape = marginal_shape(self.shape(), keep)?;
        let mut out = DenseMatrix::<T>::zeros(out_shape);
        // One pass over the source by innermost runs: each source dim
        // contributes `coord · stride` of the kept output axis it maps
        // to (0 when summed out), so a run's output offset costs one
        // dot product over the leading dims.
        let d = self.ndim();
        let last = d - 1;
        let mut contrib = vec![0usize; d];
        for (&dim, &stride) in keep.iter().zip(out.shape().strides()) {
            contrib[dim] = stride;
        }
        let keeps_last = contrib[last] == 1;
        let src_dims = self.shape().dims().to_vec();
        let out_data = out.as_mut_slice();
        let mut coords = vec![0usize; last];
        // Each output cell sees the same additions, in the same order,
        // as a per-cell walk: `cur + v` for every source cell that maps
        // to it, in row-major source order.
        for run in self.as_slice().chunks_exact(src_dims[last]) {
            let base: usize = coords.iter().zip(&contrib).map(|(c, s)| c * s).sum();
            if keeps_last {
                // The run lands on one output row, cell for cell.
                for (o, &v) in out_data[base..base + run.len()].iter_mut().zip(run) {
                    *o = *o + v;
                }
            } else {
                // The whole run folds into one output cell.
                out_data[base] = run.iter().fold(out_data[base], |acc, &v| acc + v);
            }
            // Odometer over the leading dims (cheaper than div/mod).
            for (c, &dim) in coords.iter_mut().zip(&src_dims[..last]).rev() {
                *c += 1;
                if *c < dim {
                    break;
                }
                *c = 0;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec()).unwrap()
    }

    #[test]
    fn marginal_preserves_total() {
        let m = DenseMatrix::from_vec(shape(&[2, 3, 4]), (0..24u64).collect::<Vec<_>>()).unwrap();
        for keep in [
            vec![0],
            vec![1],
            vec![2],
            vec![0, 1],
            vec![0, 2],
            vec![1, 2],
        ] {
            let g = m.marginalize(&keep).unwrap();
            assert_eq!(g.total_u64(), m.total_u64(), "keep {keep:?}");
        }
    }

    #[test]
    fn marginal_matches_manual_sum() {
        let m = DenseMatrix::from_vec(shape(&[2, 2, 2]), vec![1u64, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let g = m.marginalize(&[0, 2]).unwrap();
        assert_eq!(g.shape().dims(), &[2, 2]);
        // g[a][c] = sum over b of m[a][b][c]
        assert_eq!(g.get(&[0, 0]).unwrap(), 1 + 3);
        assert_eq!(g.get(&[0, 1]).unwrap(), 2 + 4);
        assert_eq!(g.get(&[1, 0]).unwrap(), 5 + 7);
        assert_eq!(g.get(&[1, 1]).unwrap(), 6 + 8);
    }

    #[test]
    fn keeping_all_dims_is_identity() {
        let m = DenseMatrix::from_vec(shape(&[3, 2]), (0..6u64).collect::<Vec<_>>()).unwrap();
        let g = m.marginalize(&[0, 1]).unwrap();
        assert_eq!(g, m);
    }

    #[test]
    fn works_for_f64_matrices() {
        let m = DenseMatrix::from_vec(shape(&[2, 2]), vec![0.5f64, 1.5, -1.0, 2.0]).unwrap();
        let g = m.marginalize(&[1]).unwrap();
        assert_eq!(g.as_slice(), &[-0.5, 3.5]);
    }

    #[test]
    fn rejects_bad_keep_lists() {
        let m = DenseMatrix::<u64>::zeros(shape(&[2, 2]));
        assert!(m.marginalize(&[]).is_err());
        assert!(m.marginalize(&[1, 0]).is_err());
        assert!(m.marginalize(&[0, 0]).is_err());
        assert!(m.marginalize(&[2]).is_err());
    }

    #[test]
    fn marginal_shape_matches_marginalize() {
        let m = DenseMatrix::from_vec(shape(&[2, 3, 4]), (0..24u64).collect::<Vec<_>>()).unwrap();
        for keep in [vec![0], vec![2], vec![0, 2], vec![0, 1, 2]] {
            let expect = m.marginalize(&keep).unwrap();
            let s = marginal_shape(m.shape(), &keep).unwrap();
            assert_eq!(&s, expect.shape(), "keep {keep:?}");
        }
        for keep in [vec![], vec![1, 1], vec![2, 1], vec![3]] {
            assert!(marginal_shape(m.shape(), &keep).is_err(), "keep {keep:?}");
        }
    }
}
