//! `Partitioning::validate` against a kept per-cell reference.
//!
//! `validate` claims each box's cells by contiguous runs in a
//! bit-per-cell map. The reference below claims them one cell at a
//! time, as the validator did before, plus the empty-box rule. On
//! random box lists with overlaps, gaps, out-of-domain, empty and
//! wrong-dimension boxes, the two must return the same `Result`:
//! variant and fields.

use dpod_fmatrix::{AxisBox, Shape};
use dpod_partition::{Partitioning, UniformGrid, ValidationError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-cell validation: each box walks its cells with `iter_points`.
fn validate_per_cell(domain: &Shape, boxes: &[AxisBox]) -> Result<(), ValidationError> {
    let mut hits = vec![false; domain.size()];
    let mut covered = 0usize;
    for (i, b) in boxes.iter().enumerate() {
        if b.ndim() != domain.ndim() {
            return Err(ValidationError::DimensionMismatch { index: i });
        }
        if !b.fits(domain) {
            return Err(ValidationError::OutOfDomain { index: i });
        }
        if b.is_empty() {
            return Err(ValidationError::EmptyBox { index: i });
        }
        for c in b.iter_points() {
            let idx = domain.flat_index(&c).unwrap();
            if hits[idx] {
                let first = boxes
                    .iter()
                    .position(|other| other.contains(&c))
                    .unwrap_or(0);
                return Err(ValidationError::Overlap { first, second: i });
            }
            hits[idx] = true;
            covered += 1;
        }
    }
    if covered != domain.size() {
        return Err(ValidationError::IncompleteCover {
            covered,
            expected: domain.size(),
        });
    }
    Ok(())
}

/// A random box with corners in `0..=limit[d]` per axis (so it may be
/// empty, and may leave the domain when `limit` exceeds it).
fn random_box(rng: &mut StdRng, limit: &[usize]) -> AxisBox {
    let (lo, hi) = limit
        .iter()
        .map(|&l| {
            let (a, b) = (rng.gen_range(0..=l), rng.gen_range(0..=l));
            (a.min(b), a.max(b))
        })
        .unzip();
    AxisBox::new(lo, hi).unwrap()
}

/// A box list over `domain`: a grid partitioning, then a few random
/// edits (drop a box, add a random box that may overlap, leave the
/// domain or be empty, add a wrong-dimension box, swap two boxes).
fn random_boxes(rng: &mut StdRng, domain: &Shape) -> Vec<AxisBox> {
    let cells: Vec<usize> = domain
        .dims()
        .iter()
        .map(|&d| rng.gen_range(1..=d))
        .collect();
    let mut boxes: Vec<AxisBox> = UniformGrid::new(domain, &cells)
        .unwrap()
        .iter_boxes()
        .collect();
    let wider: Vec<usize> = domain.dims().iter().map(|&d| d + 1).collect();
    for _ in 0..rng.gen_range(0..4) {
        match rng.gen_range(0..6) {
            0 if !boxes.is_empty() => {
                boxes.remove(rng.gen_range(0..boxes.len()));
            }
            1 => {
                let at = rng.gen_range(0..=boxes.len());
                boxes.insert(at, random_box(rng, domain.dims()));
            }
            2 => {
                let at = rng.gen_range(0..=boxes.len());
                boxes.insert(at, random_box(rng, &wider));
            }
            3 => {
                // An explicitly empty box inside the domain.
                let b = random_box(rng, domain.dims());
                let dim = rng.gen_range(0..domain.ndim());
                let mut hi = b.hi().to_vec();
                hi[dim] = b.lo()[dim];
                let at = rng.gen_range(0..=boxes.len());
                boxes.insert(at, AxisBox::new(b.lo().to_vec(), hi).unwrap());
            }
            4 if rng.gen_range(0..4) == 0 => {
                let mut other = domain.dims().to_vec();
                other.push(1);
                let at = rng.gen_range(0..=boxes.len());
                boxes.insert(at, random_box(rng, &other));
            }
            _ if boxes.len() >= 2 => {
                let (a, b) = (rng.gen_range(0..boxes.len()), rng.gen_range(0..boxes.len()));
                boxes.swap(a, b);
            }
            _ => {}
        }
    }
    boxes
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop::collection::vec(1usize..=6, 1..=4).prop_map(|d| Shape::new(d).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Run-wise validation returns exactly the per-cell reference's
    /// result.
    #[test]
    fn validate_matches_per_cell_reference(shape in arb_shape(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let boxes = random_boxes(&mut rng, &shape);
        let expected = validate_per_cell(&shape, &boxes);
        let got = Partitioning::new_unchecked(shape.clone(), boxes.clone()).validate();
        prop_assert_eq!(got, expected, "boxes {:?} over {:?}", boxes, shape.dims());
    }
}

#[test]
fn the_edits_reach_every_outcome() {
    // The generator above must exercise each variant, or the property
    // pins less than it claims.
    let mut seen = [false; 6];
    for seed in 0..2_000u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let dims: Vec<usize> = (0..rng.gen_range(1..=4))
            .map(|_| rng.gen_range(1..=6))
            .collect();
        let shape = Shape::new(dims).unwrap();
        let boxes = random_boxes(&mut rng, &shape);
        let slot = match validate_per_cell(&shape, &boxes) {
            Ok(()) => 0,
            Err(ValidationError::OutOfDomain { .. }) => 1,
            Err(ValidationError::Overlap { .. }) => 2,
            Err(ValidationError::IncompleteCover { .. }) => 3,
            Err(ValidationError::DimensionMismatch { .. }) => 4,
            Err(ValidationError::EmptyBox { .. }) => 5,
            Err(e @ ValidationError::DomainTooLarge { .. }) => panic!("{e}"),
        };
        seen[slot] = true;
    }
    assert_eq!(seen, [true; 6], "outcomes reached: {seen:?}");
}
