//! Run-wise kernels against kept per-cell and per-line references.
//!
//! The prefix-sum build, marginalization and box walks step through
//! contiguous runs instead of single cells. Each property here keeps
//! the straightforward algorithm the kernel replaced and demands
//! bit-identical output (`f64::to_bits`), so a reordered addition shows
//! up as a failure rather than as rounding noise.

use dpod_fmatrix::{AxisBox, BoxRuns, DenseMatrix, PrefixSum, Shape};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// Strategy: a small random shape (1–5 dims, each 1–7 cells), so 1-D
/// shapes and extent-1 axes come up often.
fn arb_shape() -> impl Strategy<Value = Shape> {
    prop::collection::vec(1usize..=7, 1..=5).prop_map(|dims| Shape::new(dims).unwrap())
}

/// Strategy: a shape plus `f64` values of mixed sign and magnitude, so
/// that a different addition order rounds differently.
fn arb_f64_matrix() -> impl Strategy<Value = DenseMatrix<f64>> {
    (arb_shape(), any::<u64>()).prop_map(|(shape, seed)| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data = (0..shape.size())
            .map(|_| rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-3..6)))
            .collect();
        DenseMatrix::from_vec(shape, data).unwrap()
    })
}

/// The summed-area table built one line at a time at stride: for every
/// dimension, every line along it keeps a running sum.
fn prefix_per_line(m: &DenseMatrix<f64>) -> Vec<f64> {
    let shape = m.shape();
    let mut table = m.as_slice().to_vec();
    let size = shape.size();
    for dim in 0..shape.ndim() {
        let stride = shape.strides()[dim];
        let extent = shape.dim(dim);
        let mut base = 0;
        while base < size {
            for off in 0..stride {
                let mut idx = base + off;
                let mut acc = table[idx];
                for _ in 1..extent {
                    idx += stride;
                    acc += table[idx];
                    table[idx] = acc;
                }
            }
            base += stride * extent;
        }
    }
    table
}

/// The marginal built one source cell at a time with a full odometer.
fn marginal_per_cell(m: &DenseMatrix<f64>, keep: &[usize]) -> Vec<f64> {
    let dims = m.shape().dims();
    let out_dims: Vec<usize> = keep.iter().map(|&k| dims[k]).collect();
    let out_shape = Shape::new(out_dims).unwrap();
    let mut out = vec![0.0f64; out_shape.size()];
    let mut coords = vec![0usize; dims.len()];
    for &v in m.as_slice() {
        let idx: usize = keep
            .iter()
            .zip(out_shape.strides())
            .map(|(&k, s)| coords[k] * s)
            .sum();
        out[idx] += v;
        for d in (0..dims.len()).rev() {
            coords[d] += 1;
            if coords[d] < dims[d] {
                break;
            }
            coords[d] = 0;
        }
    }
    out
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every prefix-sum cell, read back as `box_sum([0, c+1))`: the corner
/// at `c` is added to a zero total, and every other corner lies below
/// the domain and adds or subtracts zero. So the read is `0.0 + t` for
/// table entry `t`, and the reference goes through the same `0.0 + t`.
fn table_bits(p: &PrefixSum<f64>) -> Vec<u64> {
    p.shape()
        .iter_coords()
        .map(|c| {
            let hi: Vec<usize> = c.iter().map(|&x| x + 1).collect();
            p.box_sum(&AxisBox::new(vec![0; c.len()], hi).unwrap())
                .to_bits()
        })
        .collect()
}

fn reference_bits(table: &[f64]) -> Vec<u64> {
    table.iter().map(|&t| (0.0 + t).to_bits()).collect()
}

proptest! {
    /// The row-wise prefix build equals the per-line build bit for bit.
    #[test]
    fn prefix_build_matches_per_line_reference(m in arb_f64_matrix()) {
        let p = PrefixSum::from_f64(&m);
        prop_assert_eq!(table_bits(&p), reference_bits(&prefix_per_line(&m)));
    }

    /// Run-wise marginalization equals the per-cell odometer bit for
    /// bit, over every keep subset.
    #[test]
    fn marginalize_matches_per_cell_reference(m in arb_f64_matrix()) {
        let d = m.ndim();
        for mask in 1u32..(1 << d) {
            let keep: Vec<usize> = (0..d).filter(|&k| mask & (1 << k) != 0).collect();
            let got = m.marginalize(&keep).unwrap();
            prop_assert_eq!(
                bits(got.as_slice()),
                bits(&marginal_per_cell(&m, &keep)),
                "keep {:?} of {:?}", keep, m.shape().dims()
            );
        }
    }

    /// The runs of a box cover exactly its cells, in row-major order.
    #[test]
    fn box_runs_cover_the_box_in_row_major_order(shape in arb_shape(), seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (lo, hi): (Vec<usize>, Vec<usize>) = shape
            .dims()
            .iter()
            .map(|&d| {
                let (a, b) = (rng.gen_range(0..=d), rng.gen_range(0..=d));
                (a.min(b), a.max(b))
            })
            .unzip();
        let b = AxisBox::new(lo, hi).unwrap();
        let from_runs: Vec<usize> = BoxRuns::new(&shape, &b)
            .flat_map(|(start, run)| start..start + run)
            .collect();
        let per_cell: Vec<usize> = b
            .iter_points()
            .map(|c| shape.flat_index(&c).unwrap())
            .collect();
        prop_assert_eq!(from_runs, per_cell);
    }
}

#[test]
fn prefix_build_matches_on_degenerate_shapes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for dims in [
        vec![1],
        vec![9],
        vec![1, 1, 1],
        vec![1, 6],
        vec![6, 1],
        vec![3, 1, 4],
        vec![1, 5, 1, 2],
    ] {
        let shape = Shape::new(dims).unwrap();
        let data = (0..shape.size())
            .map(|_| rng.gen_range(-1.0..1.0) * 1e3)
            .collect();
        let m = DenseMatrix::from_vec(shape, data).unwrap();
        let p = PrefixSum::from_f64(&m);
        assert_eq!(
            table_bits(&p),
            reference_bits(&prefix_per_line(&m)),
            "{:?}",
            m.shape()
        );
    }
}
