//! Origin–destination matrix construction (§2.3, §6.1).
//!
//! A trajectory with `k` intermediate stops becomes one count in a
//! `2(k+2)`-dimensional frequency matrix: the paper's OD matrix with
//! intermediate stops. Dimension order is
//! `(x_o, y_o, x_s1, y_s1, …, x_sk, y_sk, x_d, y_d)`.
//!
//! The paper discretizes each city at 1000×1000 in 2-D but necessarily
//! coarsens higher-dimensional matrices (1000⁴ cells would not fit in
//! memory); `cells_per_dim` controls that granularity (the experiment
//! harness uses 32 per axis in 4-D and 10 in 6-D; see
//! `dpod_bench::HarnessConfig::od_cells`).

use crate::city::to_cell;
use crate::trajectory::Trajectory;
use dpod_fmatrix::{DenseMatrix, Shape, SparseMatrix};
use serde::{Deserialize, Serialize};

/// Builds OD frequency matrices from trajectories.
///
/// ```
/// use dpod_data::{OdMatrixBuilder, Trajectory};
/// let trips = vec![Trajectory { points: vec![[0.1, 0.1], [0.9, 0.9]] }];
/// let b = OdMatrixBuilder::new(8);
/// let m = b.build_dense(&trips, 0).unwrap();
/// assert_eq!(m.ndim(), 4);
/// assert_eq!(m.total_u64(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OdMatrixBuilder {
    /// Grid cells per spatial axis (each stop contributes an x and a y
    /// dimension of this cardinality).
    pub cells_per_dim: usize,
}

impl OdMatrixBuilder {
    /// A builder with `cells_per_dim` cells per axis.
    ///
    /// # Panics
    /// Panics when `cells_per_dim == 0`.
    pub fn new(cells_per_dim: usize) -> Self {
        assert!(cells_per_dim > 0, "OD grid needs at least one cell");
        OdMatrixBuilder { cells_per_dim }
    }

    /// The matrix shape for trips with `num_stops` intermediate stops:
    /// `2(num_stops + 2)` dimensions of `cells_per_dim` cells each.
    pub fn shape(&self, num_stops: usize) -> Shape {
        Shape::cube(2 * (num_stops + 2), self.cells_per_dim).expect("valid OD shape")
    }

    /// Maps a trajectory to its OD-matrix cell coordinates.
    ///
    /// Returns `None` when the trajectory does not have exactly
    /// `num_stops + 2` points (mixed-arity streams are a caller bug in
    /// experiments, but tolerated as skips so partial data never panics).
    pub fn cell_of(&self, t: &Trajectory, num_stops: usize) -> Option<Vec<usize>> {
        if t.points.len() != num_stops + 2 {
            return None;
        }
        let mut coords = Vec::with_capacity(2 * t.points.len());
        for p in &t.points {
            coords.push(to_cell(p[0], self.cells_per_dim));
            coords.push(to_cell(p[1], self.cells_per_dim));
        }
        Some(coords)
    }

    /// The row-major flat index of [`Self::cell_of`]'s coordinates in
    /// [`Self::shape`], with the same arity rule.
    fn flat_cell(&self, t: &Trajectory, num_stops: usize) -> Option<usize> {
        if t.points.len() != num_stops + 2 {
            return None;
        }
        let n = self.cells_per_dim;
        Some(t.points.iter().fold(0, |at, p| {
            (at * n + to_cell(p[0], n)) * n + to_cell(p[1], n)
        }))
    }

    /// Accumulates trajectories into a sparse OD matrix, skipping
    /// wrong-arity trips. Returns the matrix and the number skipped.
    pub fn build_sparse(&self, trips: &[Trajectory], num_stops: usize) -> (SparseMatrix, usize) {
        let mut m = SparseMatrix::new(self.shape(num_stops));
        let mut skipped = 0usize;
        for t in trips {
            match self.cell_of(t, num_stops) {
                Some(c) => m.add(&c, 1).expect("cell coords are in range"),
                None => skipped += 1,
            }
        }
        (m, skipped)
    }

    /// Accumulates trajectories into a dense OD matrix, counting each
    /// trip straight into its cell and skipping wrong-arity trips (the
    /// same matrix as [`Self::build_sparse`] made dense).
    ///
    /// # Errors
    /// A descriptive message when the dense domain would exceed
    /// `max_dense_cells` (guard against accidental 1000⁴ allocations).
    pub fn build_dense(
        &self,
        trips: &[Trajectory],
        num_stops: usize,
    ) -> Result<DenseMatrix<u64>, String> {
        const MAX_DENSE_CELLS: usize = 1 << 27; // 128 Mi cells ≈ 1 GiB of u64
        let shape = self.shape(num_stops);
        if shape.size() > MAX_DENSE_CELLS {
            return Err(format!(
                "dense OD matrix would need {} cells (> {MAX_DENSE_CELLS}); \
                 reduce cells_per_dim or use build_sparse",
                shape.size()
            ));
        }
        let mut m = DenseMatrix::<u64>::zeros(shape);
        let counts = m.as_mut_slice();
        for at in trips.iter().filter_map(|t| self.flat_cell(t, num_stops)) {
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

    fn trip(points: &[[f64; 2]]) -> Trajectory {
        Trajectory {
            points: points.to_vec(),
        }
    }

    #[test]
    fn shape_matches_stop_count() {
        let b = OdMatrixBuilder::new(16);
        assert_eq!(b.shape(0).ndim(), 4);
        assert_eq!(b.shape(1).ndim(), 6);
        assert_eq!(b.shape(2).ndim(), 8);
        assert_eq!(b.shape(0).size(), 16usize.pow(4));
    }

    #[test]
    fn cell_of_maps_corners() {
        let b = OdMatrixBuilder::new(10);
        let t = trip(&[[0.0, 0.05], [0.95, 0.999]]);
        assert_eq!(b.cell_of(&t, 0).unwrap(), vec![0, 0, 9, 9]);
        assert_eq!(b.cell_of(&t, 1), None, "arity mismatch is skipped");
    }

    #[test]
    fn build_conserves_trip_count() {
        let city = City::Denver.model();
        let trips = TrajectoryConfig::with_stops(1).generate(&city, 500, &mut rng(1));
        let b = OdMatrixBuilder::new(8);
        let (sparse, skipped) = b.build_sparse(&trips, 1);
        assert_eq!(skipped, 0);
        assert_eq!(sparse.total_u64(), 500);
        let dense = b.build_dense(&trips, 1).unwrap();
        assert_eq!(dense.total_u64(), 500);
        assert_eq!(dense.ndim(), 6);
    }

    #[test]
    fn mixed_arity_is_skipped_not_fatal() {
        let trips = vec![
            trip(&[[0.1, 0.1], [0.2, 0.2]]),
            trip(&[[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]]),
        ];
        let b = OdMatrixBuilder::new(4);
        let (m, skipped) = b.build_sparse(&trips, 0);
        assert_eq!(m.total_u64(), 1);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn dense_build_matches_sparse_build() {
        let mut r = rng(3);
        for num_stops in 0..=1 {
            for cells in [1, 3, 7] {
                let b = OdMatrixBuilder::new(cells);
                // Arities 1–4 around the expected num_stops + 2, and
                // coordinates past both edges of the unit square.
                let trips: Vec<Trajectory> = (0..300)
                    .map(|_| {
                        let arity = r.gen_range(1..=4);
                        let points = (0..arity)
                            .map(|_| [r.gen_range(-0.2..1.2), r.gen_range(-0.2..1.2)])
                            .collect();
                        Trajectory { points }
                    })
                    .collect();
                let dense = b.build_dense(&trips, num_stops).unwrap();
                let (sparse, skipped) = b.build_sparse(&trips, num_stops);
                assert!(skipped > 0 && skipped < trips.len());
                assert_eq!(dense, sparse.to_dense(), "{num_stops} stops, {cells} cells");
            }
        }
    }

    #[test]
    fn dense_guard_rejects_huge_domains() {
        let b = OdMatrixBuilder::new(1000);
        let err = b.build_dense(&[], 0).unwrap_err();
        assert!(err.contains("cells"), "{err}");
    }

    #[test]
    fn od_matrix_gets_sparser_with_stops() {
        let city = City::NewYork.model();
        let mut r = rng(2);
        let b = OdMatrixBuilder::new(6);
        let t0 = TrajectoryConfig::with_stops(0).generate(&city, 2_000, &mut r);
        let t1 = TrajectoryConfig::with_stops(1).generate(&city, 2_000, &mut r);
        let (m0, _) = b.build_sparse(&t0, 0);
        let (m1, _) = b.build_sparse(&t1, 1);
        assert!(
            m1.density() < m0.density(),
            "support share must shrink as dimensionality grows: {} vs {}",
            m1.density(),
            m0.density()
        );
    }
}
