//! Property-based tests for the frequency-matrix substrate.

use dpod_fmatrix::{entropy, AxisBox, DenseMatrix, PrefixSum, Shape};
use proptest::prelude::*;

/// Strategy: a small random shape (1–4 dims, each 1–8 cells).
fn arb_shape() -> impl Strategy<Value = Shape> {
    prop::collection::vec(1usize..=8, 1..=4).prop_map(|dims| Shape::new(dims).unwrap())
}

/// Strategy: a shape plus a matching random count buffer.
fn arb_matrix() -> impl Strategy<Value = DenseMatrix<u64>> {
    arb_shape().prop_flat_map(|shape| {
        let size = shape.size();
        prop::collection::vec(0u64..50, size)
            .prop_map(move |data| DenseMatrix::from_vec(shape.clone(), data).unwrap())
    })
}

/// A count near `u64::MAX / 4`: four such cells already wrap a `u64`.
const BIG: u64 = u64::MAX / 4;

/// Strategy: a 2–4-D count matrix of small counts with five cells near
/// [`BIG`] at distinct positions, so the matrix total and the running
/// prefix wrap mod 2⁶⁴ while any box holding at most three of them fits.
fn arb_wrapping_matrix() -> impl Strategy<Value = DenseMatrix<u64>> {
    prop::collection::vec(3usize..=6, 2..=4).prop_flat_map(|dims| {
        let shape = Shape::new(dims).unwrap();
        let size = shape.size();
        (
            prop::collection::vec(0u64..50, size),
            0..size,
            prop::collection::vec(0u64..1_000, 5),
        )
            .prop_map(move |(mut data, start, offsets)| {
                // size ≥ 9, so the five positions i·⌊size/5⌋ are distinct.
                for (i, off) in offsets.into_iter().enumerate() {
                    data[(start + i * (size / 5)) % size] = BIG - off;
                }
                DenseMatrix::from_vec(shape.clone(), data).unwrap()
            })
    })
}

/// The exact box sum, with no wrap.
fn naive_u128(m: &DenseMatrix<u64>, b: &AxisBox) -> u128 {
    m.box_slices(b)
        .flat_map(|run| run.iter())
        .map(|&v| u128::from(v))
        .sum()
}

/// Strategy: a random box inside `shape`.
fn arb_box_in(shape: &Shape) -> impl Strategy<Value = AxisBox> {
    let dims = shape.dims().to_vec();
    dims.iter()
        .map(|&d| (0..=d, 0..=d))
        .collect::<Vec<_>>()
        .prop_map(|corners| {
            let lo: Vec<usize> = corners.iter().map(|&(a, b)| a.min(b)).collect();
            let hi: Vec<usize> = corners.iter().map(|&(a, b)| a.max(b)).collect();
            AxisBox::new(lo, hi).unwrap()
        })
}

proptest! {
    /// Prefix sums agree with naive box sums on arbitrary matrices and boxes.
    #[test]
    fn prefix_sum_matches_naive(
        (m, b) in arb_matrix().prop_flat_map(|m| {
            let bx = arb_box_in(m.shape());
            (Just(m), bx)
        })
    ) {
        let p = PrefixSum::from_counts(&m);
        prop_assert_eq!(p.box_count(&b) as f64, m.box_sum_naive(&b));
    }

    /// The wrapping count table equals the exact (u128) box sum wherever
    /// that sum fits a `u64`, though the running prefix wraps: every
    /// single cell, and random boxes.
    #[test]
    fn wrapping_prefix_is_exact_where_the_count_fits(
        (m, boxes) in arb_wrapping_matrix().prop_flat_map(|m| {
            let bxs = prop::collection::vec(arb_box_in(m.shape()), 24);
            (Just(m), bxs)
        })
    ) {
        let p = PrefixSum::from_counts(&m);
        prop_assert!(naive_u128(&m, &AxisBox::full(m.shape())) > u128::from(u64::MAX));
        for c in m.shape().iter_coords() {
            let hi: Vec<usize> = c.iter().map(|&x| x + 1).collect();
            let cell = AxisBox::new(c.clone(), hi).unwrap();
            prop_assert_eq!(p.box_count(&cell), m.get(&c).unwrap());
        }
        for b in boxes {
            let exact = naive_u128(&m, &b);
            if exact <= u128::from(u64::MAX) {
                prop_assert_eq!(u128::from(p.box_count(&b)), exact, "box {:?}", b);
            }
        }
    }

    /// flat_index and coords are mutual inverses over the whole domain.
    #[test]
    fn flat_index_roundtrip(shape in arb_shape()) {
        for i in 0..shape.size() {
            let c = shape.coords(i);
            prop_assert_eq!(shape.flat_index(&c).unwrap(), i);
        }
    }

    /// iter_coords enumerates exactly size() distinct coordinates in
    /// flat-index order.
    #[test]
    fn iter_coords_is_exhaustive_and_ordered(shape in arb_shape()) {
        let coords: Vec<_> = shape.iter_coords().collect();
        prop_assert_eq!(coords.len(), shape.size());
        for (i, c) in coords.iter().enumerate() {
            prop_assert_eq!(shape.flat_index(c).unwrap(), i);
        }
    }

    /// Splitting a box along any dimension preserves total volume and
    /// box sums.
    #[test]
    fn split_preserves_volume_and_sum(
        (m, b, frac) in arb_matrix().prop_flat_map(|m| {
            let bx = arb_box_in(m.shape());
            (Just(m), bx, 0.0f64..1.0)
        })
    ) {
        let dim = 0;
        let at = b.lo()[dim]
            + ((b.extent(dim) as f64) * frac) as usize;
        let (l, r) = b.split_at(dim, at).unwrap();
        prop_assert_eq!(l.volume() + r.volume(), b.volume());
        let p = PrefixSum::from_counts(&m);
        prop_assert_eq!(p.box_count(&l) + p.box_count(&r), p.box_count(&b));
    }

    /// Intersection volume is symmetric and bounded by both operands.
    #[test]
    fn intersection_is_symmetric_and_bounded(
        (a, b) in arb_shape().prop_flat_map(|s| {
            (arb_box_in(&s), arb_box_in(&s))
        })
    ) {
        let v1 = a.overlap_volume(&b);
        let v2 = b.overlap_volume(&a);
        prop_assert_eq!(v1, v2);
        prop_assert!(v1 <= a.volume());
        prop_assert!(v1 <= b.volume());
    }

    /// Entropy of the entry distribution is within [0, log2(size)], and
    /// coarsening to a 2-way partition never increases it.
    #[test]
    fn entropy_bounds_and_coarsening(m in arb_matrix()) {
        let h = entropy::matrix_entropy(&m);
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (m.len() as f64).log2() + 1e-9);

        let full = AxisBox::full(m.shape());
        let mid = m.shape().dim(0) / 2;
        if mid > 0 {
            let (l, r) = full.split_at(0, mid).unwrap();
            let p = PrefixSum::from_counts(&m);
            let hp = entropy::partition_entropy(&p, &[l, r]);
            prop_assert!(hp <= h + 1e-9, "coarse {hp} > fine {h}");
        }
    }

    /// from_points totals match the number of points.
    #[test]
    fn from_points_conserves_mass(
        (shape, pts) in arb_shape().prop_flat_map(|s| {
            let d = s.ndim();
            let pts = prop::collection::vec(
                prop::collection::vec(0usize..20, d), 0..100);
            (Just(s), pts)
        })
    ) {
        let m = DenseMatrix::<u64>::from_points(shape, pts.iter());
        prop_assert_eq!(m.total_u64() as usize, pts.len());
    }
}
