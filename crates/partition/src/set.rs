use crate::UniformGrid;
use dpod_fmatrix::{AxisBox, BoxRuns, Shape};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a box set failed partition validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A box does not fit inside the domain.
    OutOfDomain {
        /// Index of the offending box.
        index: usize,
    },
    /// Two boxes overlap in at least one cell.
    Overlap {
        /// Indices of the overlapping pair.
        first: usize,
        /// Indices of the overlapping pair.
        second: usize,
    },
    /// The boxes do not cover the whole domain.
    IncompleteCover {
        /// Number of domain cells covered.
        covered: usize,
        /// Number of domain cells expected.
        expected: usize,
    },
    /// A box has a different dimensionality than the domain.
    DimensionMismatch {
        /// Index of the offending box.
        index: usize,
    },
    /// A box covers no cell (`lo == hi` on some axis). It would claim
    /// nothing, so a count released for it would be silently dropped.
    EmptyBox {
        /// Index of the offending box.
        index: usize,
    },
    /// The domain has more cells than per-cell state can be allocated
    /// for: a frame may declare any domain, so this is refused by name
    /// instead of aborting the process.
    DomainTooLarge {
        /// Number of domain cells declared.
        cells: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::OutOfDomain { index } => {
                write!(f, "box {index} does not fit the domain")
            }
            ValidationError::Overlap { first, second } => {
                write!(f, "boxes {first} and {second} overlap")
            }
            ValidationError::IncompleteCover { covered, expected } => {
                write!(f, "boxes cover {covered} of {expected} domain cells")
            }
            ValidationError::DimensionMismatch { index } => {
                write!(f, "box {index} has wrong dimensionality")
            }
            ValidationError::EmptyBox { index } => {
                write!(f, "box {index} covers no cell")
            }
            ValidationError::DomainTooLarge { cells } => {
                write!(f, "a domain of {cells} cells does not fit in memory")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// A set of disjoint boxes covering a domain — the paper's *partitioning*
/// (§2.2). Sensitivity of the induced count-vector query is 1 because each
/// record falls in exactly one partition; [`Partitioning::validate`] is the
/// executable form of that argument and is asserted for every mechanism in
/// the test suites.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partitioning {
    domain: Shape,
    boxes: Vec<AxisBox>,
}

impl Partitioning {
    /// Wraps boxes without validating (use [`Partitioning::validate`] in
    /// tests or [`Partitioning::new_validated`] when correctness is not
    /// structurally guaranteed).
    pub fn new_unchecked(domain: Shape, boxes: Vec<AxisBox>) -> Self {
        Partitioning { domain, boxes }
    }

    /// Wraps boxes and eagerly validates disjointness and coverage.
    ///
    /// # Errors
    /// The first [`ValidationError`] encountered.
    pub fn new_validated(domain: Shape, boxes: Vec<AxisBox>) -> Result<Self, ValidationError> {
        let p = Partitioning { domain, boxes };
        p.validate()?;
        Ok(p)
    }

    /// The partitioning induced by a [`UniformGrid`] (structurally valid —
    /// no validation pass needed).
    pub fn from_grid(grid: &UniformGrid) -> Self {
        Partitioning {
            domain: grid.shape().clone(),
            boxes: grid.iter_boxes().collect(),
        }
    }

    /// The trivial single-partition partitioning (the UNIFORM baseline).
    pub fn single(domain: Shape) -> Self {
        let full = AxisBox::full(&domain);
        Partitioning {
            domain,
            boxes: vec![full],
        }
    }

    /// The finest partitioning: one box per cell (the IDENTITY baseline).
    /// `O(size)` boxes — intended for small/benchmark domains.
    pub fn per_cell(domain: Shape) -> Self {
        let boxes = domain.iter_coords().map(|c| AxisBox::cell(&c)).collect();
        Partitioning { domain, boxes }
    }

    /// The domain shape.
    #[inline]
    pub fn domain(&self) -> &Shape {
        &self.domain
    }

    /// The partition boxes.
    #[inline]
    pub fn boxes(&self) -> &[AxisBox] {
        &self.boxes
    }

    /// Number of partitions.
    #[inline]
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// `true` when there are no partitions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Checks that every box is non-empty, that the boxes are pairwise
    /// disjoint, and that they exactly cover the domain.
    ///
    /// The same walk as [`Partitioning::validate_with`], with a sink that
    /// does nothing.
    ///
    /// # Errors
    /// The first violation found, as a [`ValidationError`].
    pub fn validate(&self) -> Result<(), ValidationError> {
        self.validate_with(|_, _, _| {})
    }

    /// Validates the boxes as [`Partitioning::validate`] does, handing
    /// each claimed run to `sink` as `(box index, start, run)`: the flat
    /// index of the run's first cell and its length. A caller that
    /// writes per-cell state (the uniform estimate of a release) fills
    /// it from the validation walk itself instead of walking the boxes
    /// again.
    ///
    /// The coverage map (one bit per domain cell) is allocated first; a
    /// domain too large for it is [`ValidationError::DomainTooLarge`].
    /// Then boxes are checked in order: dimensionality, then fit, then
    /// emptiness, then the box claims its cells by contiguous
    /// last-dimension runs ([`BoxRuns`]), each run handed to `sink` once
    /// it is claimed. A cell claimed twice is an overlap, reported with
    /// the lowest-indexed box that owns the first such cell in row-major
    /// order; a final count of claimed cells proves coverage. Cost:
    /// `O(size / 64)` words to clear plus `O(1)` word operations per run
    /// up to 64 cells, instead of the `O(n²)` pairwise test. On an error
    /// the sink has seen some runs, and not others.
    ///
    /// # Errors
    /// The first violation found, as a [`ValidationError`].
    pub fn validate_with(
        &self,
        mut sink: impl FnMut(usize, usize, usize),
    ) -> Result<(), ValidationError> {
        let size = self.domain.size();
        let mut claimed = Claims::new(size)?;
        let mut covered = 0usize;
        for (i, b) in self.boxes.iter().enumerate() {
            if b.ndim() != self.domain.ndim() {
                return Err(ValidationError::DimensionMismatch { index: i });
            }
            if !b.fits(&self.domain) {
                return Err(ValidationError::OutOfDomain { index: i });
            }
            if b.is_empty() {
                return Err(ValidationError::EmptyBox { index: i });
            }
            for (start, run) in BoxRuns::new(&self.domain, b) {
                if let Err(taken) = claimed.claim(start, run) {
                    // Identify the previous owner for the error message.
                    let c = self.domain.coords(taken);
                    let first = self
                        .boxes
                        .iter()
                        .position(|other| other.contains(&c))
                        .unwrap_or(0);
                    return Err(ValidationError::Overlap { first, second: i });
                }
                sink(i, start, run);
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

    /// Index of the partition containing `coords` by linear scan
    /// (`O(n·d)`; tests and small inputs only).
    pub fn find(&self, coords: &[usize]) -> Option<usize> {
        self.boxes.iter().position(|b| b.contains(coords))
    }
}

/// A coverage map with one bit per domain cell.
struct Claims {
    words: Vec<u64>,
}

impl Claims {
    /// An empty map over `cells` cells, or
    /// [`ValidationError::DomainTooLarge`] when it cannot be allocated.
    fn new(cells: usize) -> Result<Self, ValidationError> {
        let len = cells.div_ceil(64);
        let mut words = Vec::new();
        words
            .try_reserve_exact(len)
            .map_err(|_| ValidationError::DomainTooLarge { cells })?;
        words.resize(len, 0);
        Ok(Claims { words })
    }

    /// Claims the non-empty run `start..start + run`, one word at a time
    /// in cell order. On a cell claimed before, returns the flat index of
    /// the first such cell; the words before it may then be claimed too.
    fn claim(&mut self, start: usize, run: usize) -> Result<(), usize> {
        let end = start + run;
        let last = (end - 1) / 64;
        let (mut word, mut from) = (start / 64, start % 64);
        loop {
            let to = if word == last { (end - 1) % 64 + 1 } else { 64 };
            let mask = (u64::MAX >> (64 - (to - from))) << from;
            let taken = self.words[word] & mask;
            if taken != 0 {
                return Err(word * 64 + taken.trailing_zeros() as usize);
            }
            self.words[word] |= mask;
            if word == last {
                return Ok(());
            }
            word += 1;
            from = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(dims: &[usize]) -> Shape {
        Shape::new(dims.to_vec()).unwrap()
    }

    fn bx(lo: &[usize], hi: &[usize]) -> AxisBox {
        AxisBox::new(lo.to_vec(), hi.to_vec()).unwrap()
    }

    #[test]
    fn valid_partition_passes() {
        let p = Partitioning::new_validated(
            shape(&[4, 4]),
            vec![bx(&[0, 0], &[2, 4]), bx(&[2, 0], &[4, 4])],
        );
        assert!(p.is_ok());
    }

    #[test]
    fn overlap_detected() {
        let err = Partitioning::new_validated(
            shape(&[4, 4]),
            vec![bx(&[0, 0], &[3, 4]), bx(&[2, 0], &[4, 4])],
        )
        .unwrap_err();
        assert!(matches!(err, ValidationError::Overlap { .. }));
    }

    #[test]
    fn gap_detected() {
        let err =
            Partitioning::new_validated(shape(&[4, 4]), vec![bx(&[0, 0], &[2, 4])]).unwrap_err();
        assert!(matches!(err, ValidationError::IncompleteCover { .. }));
    }

    #[test]
    fn out_of_domain_detected() {
        let err =
            Partitioning::new_validated(shape(&[4, 4]), vec![bx(&[0, 0], &[4, 5])]).unwrap_err();
        assert!(matches!(err, ValidationError::OutOfDomain { .. }));
    }

    #[test]
    fn empty_box_detected_after_fit() {
        let err = Partitioning::new_validated(
            shape(&[4, 4]),
            vec![bx(&[0, 0], &[4, 4]), bx(&[1, 1], &[1, 3])],
        )
        .unwrap_err();
        assert_eq!(err, ValidationError::EmptyBox { index: 1 });
        // Fit is checked first: an empty box outside the domain is
        // out of domain.
        let err =
            Partitioning::new_validated(shape(&[4, 4]), vec![bx(&[5, 0], &[5, 4])]).unwrap_err();
        assert_eq!(err, ValidationError::OutOfDomain { index: 0 });
    }

    #[test]
    fn claims_cross_word_boundaries() {
        let mut claims = Claims::new(200).unwrap();
        assert_eq!(claims.words.len(), 4);
        assert_eq!(claims.claim(0, 70), Ok(()));
        assert_eq!(claims.claim(130, 70), Ok(()));
        assert_eq!(claims.claim(70, 60), Ok(()));
        // Every cell is now claimed; a re-claim names its first cell.
        assert_eq!(claims.words, [u64::MAX, u64::MAX, u64::MAX, 0xff]);
        assert_eq!(claims.claim(63, 2), Err(63));
        let mut claims = Claims::new(200).unwrap();
        claims.claim(150, 1).unwrap();
        assert_eq!(claims.claim(10, 190), Err(150));
    }

    #[test]
    fn overlap_names_the_owner_of_the_first_shared_cell() {
        let err = Partitioning::new_validated(
            shape(&[2, 100]),
            vec![
                bx(&[0, 0], &[2, 40]),
                bx(&[0, 70], &[2, 100]),
                bx(&[1, 30], &[2, 80]),
            ],
        )
        .unwrap_err();
        assert_eq!(
            err,
            ValidationError::Overlap {
                first: 0,
                second: 2
            }
        );
    }

    #[test]
    fn a_domain_without_room_for_its_map_is_too_large() {
        let side = 1usize << 20;
        let p = Partitioning::single(shape(&[side, side, side]));
        assert_eq!(
            p.validate(),
            Err(ValidationError::DomainTooLarge { cells: 1 << 60 })
        );
    }

    #[test]
    fn dimension_mismatch_detected() {
        let err = Partitioning::new_validated(shape(&[4, 4]), vec![bx(&[0], &[4])]).unwrap_err();
        assert!(matches!(err, ValidationError::DimensionMismatch { .. }));
    }

    #[test]
    fn single_and_per_cell() {
        let s = shape(&[3, 3]);
        assert!(Partitioning::single(s.clone()).validate().is_ok());
        let pc = Partitioning::per_cell(s);
        assert_eq!(pc.len(), 9);
        assert!(pc.validate().is_ok());
    }

    #[test]
    fn grid_partitioning_is_valid() {
        let g = UniformGrid::new(&shape(&[7, 5]), &[3, 2]).unwrap();
        assert!(g.to_partitioning().validate().is_ok());
    }

    #[test]
    fn find_locates_owner() {
        let p = Partitioning::new_unchecked(
            shape(&[4, 4]),
            vec![bx(&[0, 0], &[2, 4]), bx(&[2, 0], &[4, 4])],
        );
        assert_eq!(p.find(&[1, 3]), Some(0));
        assert_eq!(p.find(&[2, 0]), Some(1));
    }
}
