use crate::{AxisBox, DenseMatrix, Element, Shape};
use std::num::Wrapping;

/// Value types a [`PrefixSum`] can accumulate.
///
/// Integer counts accumulate in `Wrapping<u64>` ([`PrefixSum`] says why
/// that is exact); sanitized matrices accumulate in `f64`.
pub trait SatValue:
    Copy
    + Default
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::fmt::Debug
    + 'static
{
}

impl SatValue for Wrapping<u64> {}
impl SatValue for f64 {}

/// A `d`-dimensional summed-area table.
///
/// Stores, for every cell `c`, the sum of all entries in `[0, c]`; any box
/// sum is then recovered with `2^d` lookups by inclusion–exclusion. Every
/// mechanism uses this to obtain partition totals in `O(2^d)` instead of
/// `O(volume)`, and the query evaluator uses it for exact true answers.
/// A count table ([`PrefixSum::from_counts`]) accumulates in
/// `Wrapping<u64>`, 8 bytes per cell: the `2^d`-corner
/// inclusion–exclusion is exact mod 2⁶⁴, so a box count is the true
/// count whenever it fits a `u64`, even where the running prefix or a
/// partial corner sum wraps.
///
/// Build cost: `O(d · size)` additions, done as one row-wise pass per
/// dimension over contiguous slices; bit-identical to a per-line build
/// at stride. Memory: one accumulator per cell. Box sums allocate
/// nothing.
///
/// ```
/// use dpod_fmatrix::{AxisBox, DenseMatrix, PrefixSum, Shape};
/// let m = DenseMatrix::<u64>::from_vec(
///     Shape::new(vec![2, 2]).unwrap(), vec![1, 2, 3, 4]).unwrap();
/// let p = PrefixSum::from_counts(&m);
/// assert_eq!(p.box_count(&AxisBox::full(m.shape())), 10);
/// ```
#[derive(Debug, Clone)]
pub struct PrefixSum<A> {
    shape: Shape,
    table: Vec<A>,
}

impl<A: SatValue> PrefixSum<A> {
    /// Builds a table from any dense matrix via an element conversion.
    ///
    /// The table is the result of one pass per dimension, in order:
    /// along a dimension with stride `s > 1` the pass adds each `s`-long
    /// row slice into the next (`row[i] = row[i−1] + row[i]`, element by
    /// element), so it streams contiguous memory; along the last
    /// dimension (`s = 1`) it keeps one running sum per line. Every cell
    /// gets the same additions, with the same operands in the same
    /// order, as a per-line walk at stride, so the table is
    /// bit-identical to it.
    pub fn build<T: Element>(matrix: &DenseMatrix<T>, conv: impl Fn(T) -> A) -> Self {
        let shape = matrix.shape().clone();
        let mut table: Vec<A> = matrix.as_slice().iter().map(|&v| conv(v)).collect();
        for (&extent, &stride) in shape.dims().iter().zip(shape.strides()) {
            if extent > 1 {
                for lines in table.chunks_exact_mut(stride * extent) {
                    add_along(lines, extent, stride);
                }
            }
        }
        PrefixSum { shape, table }
    }

    /// The shape this table was built over.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Sum of the matrix entries inside the half-open box `b`.
    ///
    /// # Panics
    /// Debug-asserts that the box fits the domain.
    pub fn box_sum(&self, b: &AxisBox) -> A {
        debug_assert!(b.fits(&self.shape), "box must fit the table domain");
        if b.is_empty() {
            return A::default();
        }
        let d = self.shape.ndim();
        debug_assert!(d <= 32, "inclusion-exclusion uses a u32 corner mask");
        let strides = self.shape.strides();
        let mut total = A::default();
        // Inclusion–exclusion over the 2^d corners: bit i selects hi−1 (no
        // subtraction) vs lo−1 (subtract one step) in dimension i. A
        // corner below the domain (lo = 0 on a subtracted axis) sums to
        // zero, and still takes its add or subtract.
        for mask in 0..(1u32 << d) {
            let mut sign_negative = false;
            let mut offset = Some(0usize);
            for (i, &stride) in strides.iter().enumerate() {
                let coord = if mask & (1 << i) == 0 {
                    Some(b.hi()[i] - 1)
                } else {
                    sign_negative ^= true;
                    b.lo()[i].checked_sub(1)
                };
                offset = offset.zip(coord).map(|(at, c)| at + c * stride);
            }
            let v = offset.map_or_else(A::default, |at| self.table[at]);
            total = if sign_negative { total - v } else { total + v };
        }
        total
    }
}

/// One pass along a dimension over `lines`: `extent` rows of `stride`
/// cells each, every row added into the next.
fn add_along<A: SatValue>(lines: &mut [A], extent: usize, stride: usize) {
    if stride == 1 {
        let mut acc = lines[0];
        for v in &mut lines[1..] {
            acc = acc + *v;
            *v = acc;
        }
        return;
    }
    for k in 1..extent {
        let (done, rest) = lines.split_at_mut(k * stride);
        let prev = &done[(k - 1) * stride..];
        for (cur, &before) in rest[..stride].iter_mut().zip(prev) {
            *cur = before + *cur;
        }
    }
}

impl PrefixSum<Wrapping<u64>> {
    /// Builds a table over a raw count matrix.
    pub fn from_counts(matrix: &DenseMatrix<u64>) -> Self {
        PrefixSum::build(matrix, Wrapping)
    }

    /// Box sum as `u64`: the true count of `b` whenever it fits in a
    /// `u64` (the sum is exact mod 2⁶⁴).
    pub fn box_count(&self, b: &AxisBox) -> u64 {
        self.box_sum(b).0
    }
}

impl PrefixSum<f64> {
    /// Builds a table over a sanitized (noisy) matrix.
    ///
    /// Floating-point SATs accumulate rounding error of order
    /// `ε_machine · size · magnitude`; for the ≤10⁷-cell matrices used here
    /// this is far below the Laplace noise floor.
    pub fn from_f64(matrix: &DenseMatrix<f64>) -> Self {
        PrefixSum::build(matrix, |v| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;
    use rand::{Rng, SeedableRng};

    fn shape(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec()).unwrap()
    }

    #[test]
    fn matches_naive_2d() {
        let m = DenseMatrix::<u64>::from_vec(
            shape(&[3, 4]),
            vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
        )
        .unwrap();
        let p = PrefixSum::from_counts(&m);
        for lo0 in 0..3 {
            for hi0 in lo0..=3 {
                for lo1 in 0..4 {
                    for hi1 in lo1..=4 {
                        let b = AxisBox::new(vec![lo0, lo1], vec![hi0, hi1]).unwrap();
                        assert_eq!(p.box_count(&b) as f64, m.box_sum_naive(&b), "box {b:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn matches_naive_random_4d() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let s = shape(&[4, 3, 5, 2]);
        let data: Vec<u64> = (0..s.size()).map(|_| rng.gen_range(0..20)).collect();
        let m = DenseMatrix::from_vec(s.clone(), data).unwrap();
        let p = PrefixSum::from_counts(&m);
        for _ in 0..200 {
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            for d in 0..s.ndim() {
                let a = rng.gen_range(0..=s.dim(d));
                let b = rng.gen_range(0..=s.dim(d));
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            let b = AxisBox::new(lo, hi).unwrap();
            assert_eq!(p.box_count(&b) as f64, m.box_sum_naive(&b), "box {b:?}");
        }
    }

    #[test]
    fn f64_table_matches_naive() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let s = shape(&[6, 7]);
        let data: Vec<f64> = (0..s.size()).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let m = DenseMatrix::from_vec(s.clone(), data).unwrap();
        let p = PrefixSum::from_f64(&m);
        for _ in 0..100 {
            let mut lo = Vec::new();
            let mut hi = Vec::new();
            for d in 0..s.ndim() {
                let a = rng.gen_range(0..=s.dim(d));
                let b = rng.gen_range(0..=s.dim(d));
                lo.push(a.min(b));
                hi.push(a.max(b));
            }
            let b = AxisBox::new(lo, hi).unwrap();
            let expected = m.box_sum_naive(&b);
            let got = p.box_sum(&b);
            assert!(
                (expected - got).abs() < 1e-9 * (1.0 + expected.abs()),
                "box {b:?}: naive {expected} vs SAT {got}"
            );
        }
    }

    #[test]
    fn one_dimensional() {
        let m = DenseMatrix::<u64>::from_vec(shape(&[5]), vec![1, 2, 3, 4, 5]).unwrap();
        let p = PrefixSum::from_counts(&m);
        assert_eq!(p.box_count(&AxisBox::new(vec![1], vec![4]).unwrap()), 9);
        assert_eq!(p.box_count(&AxisBox::new(vec![0], vec![5]).unwrap()), 15);
        assert_eq!(p.box_count(&AxisBox::new(vec![2], vec![2]).unwrap()), 0);
    }

    #[test]
    fn empty_box_is_zero() {
        let m = DenseMatrix::<u64>::from_vec(shape(&[2, 2]), vec![1, 1, 1, 1]).unwrap();
        let p = PrefixSum::from_counts(&m);
        let empty = AxisBox::new(vec![1, 0], vec![1, 2]).unwrap();
        assert_eq!(p.box_count(&empty), 0);
    }

    #[test]
    fn singleton_dims() {
        let m = DenseMatrix::<u64>::from_vec(shape(&[1, 3, 1]), vec![4, 5, 6]).unwrap();
        let p = PrefixSum::from_counts(&m);
        let b = AxisBox::new(vec![0, 1, 0], vec![1, 3, 1]).unwrap();
        assert_eq!(p.box_count(&b), 11);
    }
}
