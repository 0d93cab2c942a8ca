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
/// Build cost: `O(d · size)` additions in one sweep over the matrix,
/// each slab of the leading dimension finished while it is in cache
/// ([`PrefixSum::build`]). Memory: one accumulator per cell, plus one
/// slab while building. Box sums allocate nothing.
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
    /// The table is defined as one pass per dimension, in order: along
    /// dimension `j`, each cell becomes the sum of itself and the
    /// cell one step before it (`row[i] = row[i−1] + row[i]`, the
    /// earlier operand on the left). Dimensions of extent 1 pass
    /// nothing.
    ///
    /// The build makes those passes in one sweep. Let `lead` be the
    /// first dimension of extent > 1; its slabs `x₀, x₁, …` (one per
    /// coordinate along `lead`, `stride(lead)` cells each) are visited
    /// in order. A running slab accumulator holds `acc₀ = x₀`, then
    /// `acc_k = acc_{k−1} + x_k` element by element, which is exactly
    /// what the pass along `lead` leaves in slab `k` (the passes before
    /// it are over extent-1 dimensions). The accumulator is copied into
    /// the table, and the passes along the later dimensions run on that
    /// slab while it is still in cache: each of them works within one
    /// slab, in the same row order as over the whole table. So every
    /// cell gets the same additions, with the same operands, in the
    /// same order, as the pass-per-dimension definition, and the table
    /// is bit-identical to it, for `f64` as for `Wrapping<u64>`. When
    /// `lead` is the last dimension of extent > 1 the sweep is one
    /// running sum over the matrix.
    pub fn build<T: Element>(matrix: &DenseMatrix<T>, conv: impl Fn(T) -> A) -> Self {
        let shape = matrix.shape().clone();
        let values = matrix.as_slice();
        let (dims, strides) = (shape.dims(), shape.strides());
        let Some(lead) = dims.iter().position(|&extent| extent > 1) else {
            let table = values.iter().map(|&v| conv(v)).collect();
            return PrefixSum { shape, table };
        };
        let slab = strides[lead];
        let mut table = Vec::with_capacity(values.len());
        if slab == 1 {
            let mut acc = conv(values[0]);
            table.push(acc);
            for &v in &values[1..] {
                acc = acc + conv(v);
                table.push(acc);
            }
            return PrefixSum { shape, table };
        }
        let later: Vec<(usize, usize)> = dims[lead + 1..]
            .iter()
            .zip(&strides[lead + 1..])
            .filter(|(&extent, _)| extent > 1)
            .map(|(&extent, &stride)| (extent, stride))
            .collect();
        let mut acc: Vec<A> = values[..slab].iter().map(|&v| conv(v)).collect();
        for (k, x) in values.chunks_exact(slab).enumerate() {
            if k > 0 {
                for (a, &v) in acc.iter_mut().zip(x) {
                    *a = *a + conv(v);
                }
            }
            let at = table.len();
            table.extend_from_slice(&acc);
            let slab = &mut table[at..];
            for &(extent, stride) in &later {
                for lines in slab.chunks_exact_mut(stride * extent) {
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
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn shape(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec()).unwrap()
    }

    /// The build [`PrefixSum::build`] replaced, kept as its reference:
    /// copy the whole matrix, then one full-table pass per dimension.
    fn build_per_pass<T: Element, A: SatValue>(
        matrix: &DenseMatrix<T>,
        conv: impl Fn(T) -> A,
    ) -> Vec<A> {
        let shape = matrix.shape();
        let mut table: Vec<A> = matrix.as_slice().iter().map(|&v| conv(v)).collect();
        for (&extent, &stride) in shape.dims().iter().zip(shape.strides()) {
            if extent > 1 {
                for lines in table.chunks_exact_mut(stride * extent) {
                    add_along(lines, extent, stride);
                }
            }
        }
        table
    }

    /// Strategy: 1–6 dims of extent 1–9, the first `ones` of them forced
    /// to extent 1 (so leading extent-1 dims come up often), plus a seed
    /// for the values.
    fn arb_shape_and_seed() -> impl Strategy<Value = (Shape, u64)> {
        (
            prop::collection::vec(1usize..=9, 1..=6),
            0usize..=2,
            any::<u64>(),
        )
            .prop_map(|(mut dims, ones, seed)| {
                let ones = ones.min(dims.len());
                dims[..ones].fill(1);
                (Shape::new(dims).unwrap(), seed)
            })
    }

    /// An `f64` of one of five kinds: zero of either sign, a subnormal,
    /// a value near ±1, or one near ±1e300 (so sums reach infinity).
    fn awkward_f64(rng: &mut impl Rng) -> f64 {
        let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
        sign * match rng.gen_range(0..5) {
            0 => 0.0,
            1 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
            2 | 3 => rng.gen_range(0.0..2.0),
            _ => rng.gen_range(1.0..9.0) * 1e300,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The blocked build equals the per-pass build bit for bit, in
        /// `f64` and in the wrapping count table.
        #[test]
        fn blocked_build_matches_per_pass_build((s, seed) in arb_shape_and_seed()) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let values = (0..s.size()).map(|_| awkward_f64(&mut rng)).collect();
            let m = DenseMatrix::from_vec(s.clone(), values).unwrap();
            let got: Vec<u64> = PrefixSum::from_f64(&m).table.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = build_per_pass(&m, |v| v).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want, "f64 over {:?}", s.dims());

            // Counts near u64::MAX, so the table wraps.
            let counts = (0..s.size())
                .map(|_| u64::MAX - rng.gen_range(0..1u64 << 20))
                .collect();
            let m = DenseMatrix::from_vec(s.clone(), counts).unwrap();
            let got = PrefixSum::from_counts(&m).table;
            prop_assert_eq!(got, build_per_pass(&m, Wrapping), "counts over {:?}", s.dims());
        }
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
