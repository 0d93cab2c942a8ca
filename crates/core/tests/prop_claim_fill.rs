//! The fused claim-and-fill rebuild against kept references.
//!
//! `PublishedRelease::into_sanitized` fills the uniform estimate from
//! the validation walk itself: each run a box claims in the bit-per-cell
//! coverage map gets the box's `count / volume`. The references below
//! are the two passes it replaced: the byte-per-cell validator
//! (`validate_byte_map`), then `fill_box` over every box. On random
//! kd-split partitions, and on mutants that shift, drop, grow past the
//! domain, empty or re-dimension one box, the fused walk must return the
//! same `Result` (variant and fields, and the same error string through
//! both `validate` and `into_sanitized`), and on success an estimate
//! equal to the reference bit for bit.

use dpod_core::{PublishedRelease, ReleaseBody};
use dpod_fmatrix::{AxisBox, BoxRuns, DenseMatrix, Shape};
use dpod_partition::{Partitioning, ValidationError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The validator the fused walk replaced: boxes claim their runs in a
/// byte-per-cell map.
fn validate_byte_map(domain: &Shape, boxes: &[AxisBox]) -> Result<(), ValidationError> {
    let size = domain.size();
    let mut claimed = vec![false; size];
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
        for (start, run) in BoxRuns::new(domain, b) {
            let cells = &mut claimed[start..start + run];
            if let Some(taken) = cells.iter().position(|&c| c) {
                let c = domain.coords(start + taken);
                let first = boxes
                    .iter()
                    .position(|other| other.contains(&c))
                    .unwrap_or(0);
                return Err(ValidationError::Overlap { first, second: i });
            }
            cells.fill(true);
            covered += run;
        }
    }
    if covered != size {
        return Err(ValidationError::IncompleteCover {
            covered,
            expected: size,
        });
    }
    Ok(())
}

/// The estimate the fused walk replaced: `fill_box` over every box.
fn estimate_by_fill_box(domain: &Shape, boxes: &[AxisBox], counts: &[f64]) -> Vec<u64> {
    let mut matrix = DenseMatrix::<f64>::zeros(domain.clone());
    for (b, &count) in boxes.iter().zip(counts) {
        matrix.fill_box(b, count / b.volume() as f64);
    }
    matrix.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Splits `b` recursively at random cuts along random axes, up to
/// `depth` levels, pushing the leaves.
fn kd_split(rng: &mut StdRng, b: AxisBox, depth: usize, out: &mut Vec<AxisBox>) {
    let splittable: Vec<usize> = (0..b.ndim()).filter(|&d| b.extent(d) > 1).collect();
    if depth == 0 || splittable.is_empty() || rng.gen_range(0..4) == 0 {
        out.push(b);
        return;
    }
    let dim = splittable[rng.gen_range(0..splittable.len())];
    let cut = rng.gen_range(b.lo()[dim] + 1..b.hi()[dim]);
    let (mut left_hi, mut right_lo) = (b.hi().to_vec(), b.lo().to_vec());
    left_hi[dim] = cut;
    right_lo[dim] = cut;
    let left = AxisBox::new(b.lo().to_vec(), left_hi).unwrap();
    let right = AxisBox::new(right_lo, b.hi().to_vec()).unwrap();
    kd_split(rng, left, depth - 1, out);
    kd_split(rng, right, depth - 1, out);
}

/// One edit to one box (or none), as a release mutant.
fn mutate(rng: &mut StdRng, domain: &Shape, boxes: &mut Vec<AxisBox>, counts: &mut Vec<f64>) {
    let i = rng.gen_range(0..boxes.len());
    let dim = rng.gen_range(0..domain.ndim());
    let (mut lo, mut hi) = (boxes[i].lo().to_vec(), boxes[i].hi().to_vec());
    match rng.gen_range(0..7) {
        // Shift along one axis, by one cell either way.
        0 => {
            if lo[dim] > 0 && rng.gen_bool(0.5) {
                lo[dim] -= 1;
                hi[dim] -= 1;
            } else {
                lo[dim] += 1;
                hi[dim] += 1;
            }
        }
        // Drop the box and its count.
        1 => {
            boxes.remove(i);
            counts.remove(i);
            return;
        }
        // Grow past the domain.
        2 => hi[dim] = domain.dim(dim) + rng.gen_range(1..3usize),
        // Empty it.
        3 => hi[dim] = lo[dim],
        // Re-dimension it: one axis more or one fewer.
        4 => {
            if lo.len() > 1 && rng.gen_bool(0.5) {
                lo.pop();
                hi.pop();
            } else {
                lo.push(0);
                hi.push(1);
            }
        }
        // Grow by one cell inside the domain, into a neighbour.
        5 if hi[dim] < domain.dim(dim) => hi[dim] += 1,
        // Leave the partition valid.
        _ => return,
    }
    boxes[i] = AxisBox::new(lo, hi).unwrap();
}

/// A random domain (1–4 dims of 1–8 cells), a kd-split partitioning of
/// it with random counts (negative ones too), and one mutant edit.
fn random_release(seed: u64) -> (Shape, Vec<AxisBox>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims: Vec<usize> = (0..rng.gen_range(1..=4))
        .map(|_| rng.gen_range(1..=8))
        .collect();
    let domain = Shape::new(dims).unwrap();
    let mut boxes = Vec::new();
    kd_split(&mut rng, AxisBox::full(&domain), 8, &mut boxes);
    // The walk order is the box order, so shuffle it.
    for k in (1..boxes.len()).rev() {
        boxes.swap(k, rng.gen_range(0..=k));
    }
    let mut counts: Vec<f64> = boxes.iter().map(|_| rng.gen_range(-20.0..300.0)).collect();
    mutate(&mut rng, &domain, &mut boxes, &mut counts);
    (domain, boxes, counts)
}

fn release(domain: &Shape, boxes: &[AxisBox], counts: &[f64]) -> PublishedRelease {
    PublishedRelease {
        mechanism: "kd".into(),
        epsilon: 1.0,
        domain: domain.dims().to_vec(),
        body: ReleaseBody::Partitions {
            boxes: boxes
                .iter()
                .map(|b| (b.lo().to_vec(), b.hi().to_vec()))
                .collect(),
            counts: counts.to_vec(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// The fused walk returns the reference's `Result`, through every
    /// entry point, and fills the reference's estimate.
    #[test]
    fn fused_walk_matches_the_two_pass_reference(seed in any::<u64>()) {
        let (domain, boxes, counts) = random_release(seed);
        let want = validate_byte_map(&domain, &boxes);
        let partitioning = Partitioning::new_unchecked(domain.clone(), boxes.clone());
        prop_assert_eq!(partitioning.validate(), want.clone(), "{:?} over {:?}", boxes, domain.dims());

        let artifact = release(&domain, &boxes, &counts);
        let checked = artifact.validate().map_err(|e| e.to_string());
        let rebuilt = artifact.into_sanitized();
        match want {
            Ok(()) => {
                prop_assert!(checked.is_ok(), "{:?}", checked);
                let rebuilt = rebuilt.unwrap();
                let got: Vec<u64> = rebuilt.matrix().as_slice().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, estimate_by_fill_box(&domain, &boxes, &counts));
            }
            Err(e) => {
                let message = format!("invalid mechanism input: invalid partitioning: {e}");
                prop_assert_eq!(checked, Err(message.clone()));
                prop_assert_eq!(rebuilt.map(drop).map_err(|e| e.to_string()), Err(message));
            }
        }
    }
}

#[test]
fn the_mutants_reach_every_outcome() {
    // Each variant (and success) must come up, or the property pins less
    // than it claims.
    let mut seen = [false; 6];
    for seed in 0..3_000u64 {
        let (domain, boxes, _) = random_release(seed);
        let slot = match validate_byte_map(&domain, &boxes) {
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

#[test]
fn a_domain_no_address_space_holds_is_refused_by_name() {
    // 2^60 cells: the bit map alone would take 2^57 bytes, more than any
    // address space, so the refusal does not depend on how the host
    // overcommits memory.
    let side = 1usize << 20;
    let artifact = PublishedRelease {
        mechanism: "huge".into(),
        epsilon: 1.0,
        domain: vec![side; 3],
        body: ReleaseBody::Partitions {
            boxes: vec![(vec![0; 3], vec![side; 3])],
            counts: vec![1.0],
        },
    };
    let artifact = PublishedRelease::from_bytes(&artifact.to_bytes()).unwrap();
    let message = "invalid mechanism input: invalid partitioning: \
                   a domain of 1152921504606846976 cells does not fit in memory";
    assert_eq!(artifact.validate().unwrap_err().to_string(), message);
    assert_eq!(artifact.into_sanitized().unwrap_err().to_string(), message);
}
