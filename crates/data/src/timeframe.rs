//! Time-framed trajectory matrices (§2.3, Fig. 2 of the paper).
//!
//! The paper's motivating representation assigns each trajectory point to
//! a *time frame* (morning → noon → evening) and — crucially — lets every
//! frame use its **own spatial granularity**: the CBD needs fine cells in
//! the noon frame but coarse ones in the morning frame, the theatre
//! district only matters in the evening frame, etc. Conventional OD
//! matrices cannot express that; [`FrameGrid`] can: frame `t` contributes
//! two dimensions of `cells[t]` cells each.

use crate::city::to_cell;
use crate::trajectory::Trajectory;
use dpod_fmatrix::{DenseMatrix, Shape, SparseMatrix};
use serde::{Deserialize, Serialize};

/// Per-frame spatial granularities for a time-framed frequency matrix.
///
/// ```
/// use dpod_data::{timeframe::FrameGrid, Trajectory};
/// // Morning coarse (4×4), noon fine (16×16), evening medium (8×8).
/// let g = FrameGrid::new(vec![4, 16, 8]).unwrap();
/// assert_eq!(g.shape().dims(), &[4, 4, 16, 16, 8, 8]);
/// let trip = Trajectory { points: vec![[0.1, 0.1], [0.52, 0.5], [0.9, 0.9]] };
/// let m = g.build_dense(&[trip]).unwrap();
/// assert_eq!(m.total_u64(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameGrid {
    cells: Vec<usize>,
}

impl FrameGrid {
    /// A grid with `cells[t]` cells per axis in frame `t`.
    ///
    /// # Errors
    /// A descriptive message when fewer than two frames are given or any
    /// frame has zero cells.
    pub fn new(cells: Vec<usize>) -> Result<Self, String> {
        if cells.len() < 2 {
            return Err("need at least two time frames".into());
        }
        if cells.contains(&0) {
            return Err("every frame needs at least one cell".into());
        }
        Ok(FrameGrid { cells })
    }

    /// A uniform-granularity grid (equivalent to the plain OD builder).
    ///
    /// # Errors
    /// Same contract as [`FrameGrid::new`].
    pub fn uniform(frames: usize, cells: usize) -> Result<Self, String> {
        FrameGrid::new(vec![cells; frames])
    }

    /// Number of time frames.
    pub fn frames(&self) -> usize {
        self.cells.len()
    }

    /// The matrix shape: `2·frames` dimensions, frame `t` contributing
    /// `(cells[t], cells[t])`.
    pub fn shape(&self) -> Shape {
        let dims: Vec<usize> = self.cells.iter().flat_map(|&c| [c, c]).collect();
        Shape::new(dims).expect("validated cells")
    }

    /// Maps a trajectory (one point per frame) to its cell coordinates;
    /// `None` for arity mismatches.
    pub fn cell_of(&self, t: &Trajectory) -> Option<Vec<usize>> {
        if t.points.len() != self.frames() {
            return None;
        }
        let mut coords = Vec::with_capacity(2 * self.frames());
        for (p, &c) in t.points.iter().zip(&self.cells) {
            coords.push(to_cell(p[0], c));
            coords.push(to_cell(p[1], c));
        }
        Some(coords)
    }

    /// The row-major flat index of [`Self::cell_of`]'s coordinates in
    /// [`Self::shape`], with the same arity rule.
    fn flat_cell(&self, t: &Trajectory) -> Option<usize> {
        if t.points.len() != self.frames() {
            return None;
        }
        Some(t.points.iter().zip(&self.cells).fold(0, |at, (p, &c)| {
            (at * c + to_cell(p[0], c)) * c + to_cell(p[1], c)
        }))
    }

    /// Accumulates trajectories into a sparse matrix, returning the matrix
    /// and the number of skipped (wrong-arity) trips.
    pub fn build_sparse(&self, trips: &[Trajectory]) -> (SparseMatrix, usize) {
        let mut m = SparseMatrix::new(self.shape());
        let mut skipped = 0;
        for t in trips {
            match self.cell_of(t) {
                Some(c) => m.add(&c, 1).expect("cell in range"),
                None => skipped += 1,
            }
        }
        (m, skipped)
    }

    /// Dense variant with the same memory guard as the OD builder: each
    /// trip is counted straight into its cell, wrong-arity trips skipped.
    ///
    /// # Errors
    /// A descriptive message when the dense domain would be too large.
    pub fn build_dense(&self, trips: &[Trajectory]) -> Result<DenseMatrix<u64>, String> {
        const MAX_DENSE_CELLS: usize = 1 << 27;
        let shape = self.shape();
        if shape.size() > MAX_DENSE_CELLS {
            return Err(format!(
                "dense frame matrix needs {} cells (> {MAX_DENSE_CELLS})",
                shape.size()
            ));
        }
        let mut m = DenseMatrix::<u64>::zeros(shape);
        let counts = m.as_mut_slice();
        for at in trips.iter().filter_map(|t| self.flat_cell(t)) {
            counts[at] += 1;
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::City;
    use crate::trajectory::TrajectoryConfig;
    use rand::{Rng, SeedableRng};

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn rejects_degenerate_grids() {
        assert!(FrameGrid::new(vec![4]).is_err());
        assert!(FrameGrid::new(vec![4, 0]).is_err());
        assert!(FrameGrid::new(vec![]).is_err());
    }

    #[test]
    fn mixed_granularities_shape() {
        let g = FrameGrid::new(vec![2, 10, 5]).unwrap();
        assert_eq!(g.frames(), 3);
        assert_eq!(g.shape().dims(), &[2, 2, 10, 10, 5, 5]);
        assert_eq!(g.shape().size(), 4 * 100 * 25);
    }

    #[test]
    fn cell_mapping_uses_per_frame_resolution() {
        let g = FrameGrid::new(vec![2, 10]).unwrap();
        let t = Trajectory {
            points: vec![[0.6, 0.4], [0.6, 0.4]],
        };
        // Same physical point lands in different cells per frame.
        assert_eq!(g.cell_of(&t).unwrap(), vec![1, 0, 6, 4]);
        // Arity mismatch is skipped.
        let bad = Trajectory {
            points: vec![[0.5, 0.5]],
        };
        assert_eq!(g.cell_of(&bad), None);
    }

    #[test]
    fn build_conserves_trips_and_counts_skips() {
        let city = City::Denver.model();
        let mut trips = TrajectoryConfig::with_stops(1).generate(&city, 300, &mut rng(1));
        trips.push(Trajectory {
            points: vec![[0.5, 0.5], [0.6, 0.6]], // 2 frames, grid expects 3
        });
        let g = FrameGrid::new(vec![4, 8, 4]).unwrap();
        let (m, skipped) = g.build_sparse(&trips);
        assert_eq!(m.total_u64(), 300);
        assert_eq!(skipped, 1);
        let dense = g.build_dense(&trips).unwrap();
        assert_eq!(dense.total_u64(), 300);
        assert_eq!(dense.ndim(), 6);
    }

    #[test]
    fn dense_build_matches_sparse_build() {
        let mut r = rng(3);
        let g = FrameGrid::new(vec![3, 1, 5]).unwrap();
        let trips: Vec<Trajectory> = (0..300)
            .map(|_| {
                let arity = r.gen_range(2..=4);
                let points = (0..arity)
                    .map(|_| [r.gen_range(-0.2..1.2), r.gen_range(-0.2..1.2)])
                    .collect();
                Trajectory { points }
            })
            .collect();
        let (sparse, skipped) = g.build_sparse(&trips);
        assert!(skipped > 0 && skipped < trips.len());
        assert_eq!(g.build_dense(&trips).unwrap(), sparse.to_dense());
    }

    #[test]
    fn uniform_matches_od_builder_semantics() {
        let city = City::NewYork.model();
        let trips = TrajectoryConfig::with_stops(0).generate(&city, 500, &mut rng(2));
        let frame = FrameGrid::uniform(2, 8)
            .unwrap()
            .build_dense(&trips)
            .unwrap();
        let od = crate::od::OdMatrixBuilder::new(8)
            .build_dense(&trips, 0)
            .unwrap();
        assert_eq!(frame, od);
    }

    #[test]
    fn dense_guard_rejects_huge_domains() {
        let g = FrameGrid::new(vec![1000, 1000]).unwrap();
        assert!(g.build_dense(&[]).is_err());
    }
}
