//! Seeded inputs: the shared analyst catalog and the curator's trip
//! batches, all drawn from the `dpod-data` generators.

use dpod_core::PublishedRelease;
use dpod_data::{City, OdMatrixBuilder, TrajectoryConfig};
use dpod_dp::Epsilon;

/// Privacy budget of every release.
pub const EPSILON: f64 = 0.5;
/// 4-D release: New York, 0 stops, 32 cells per axis (32⁴ cells).
pub const OD4: &str = "od4";
pub const OD4_CELLS: usize = 32;
/// 6-D release: New York, 1 stop, 10 cells per axis (10⁶ cells).
pub const OD6: &str = "od6";
pub const OD6_CELLS: usize = 10;
/// 2-D release: Denver population grid at 1024², the drill-down target.
pub const GRID: &str = "grid2d";
pub const GRID_SIDE: usize = 1024;
/// Trips behind each analyst OD release.
pub const OD_TRIPS: usize = 60_000;
/// Sampled residents behind the population grid.
pub const GRID_POINTS: usize = 1_000_000;
/// The curator's epoch series and its grid (New York, 0 stops, 32 cells).
pub const SERIES: &str = "ny";
pub const SERIES_CELLS: usize = 32;
/// Trips per curator epoch batch, and how many distinct batches set-up
/// generates (epoch `T` parses batch `T mod EPOCH_BATCHES`; its noise
/// seed is still per epoch).
pub const EPOCH_TRIPS: usize = 30_000;
pub const EPOCH_BATCHES: usize = 4;

pub fn epsilon() -> Epsilon {
    Epsilon::new(EPSILON).expect("0.5 is a valid epsilon")
}

/// A seed derived from the benchmark seed and a purpose tag.
pub fn derive(seed: u64, tag: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag.wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Everything set-up generates before any server exists.
pub struct Inputs {
    pub seed: u64,
    /// `(name, release)` of the shared analyst catalog.
    pub analyst: Vec<(&'static str, PublishedRelease)>,
    /// Trip CSV text per curator batch.
    pub epoch_csv: Vec<String>,
}

fn sanitize(
    mechanism: &str,
    matrix: &dpod_fmatrix::DenseMatrix<u64>,
    seed: u64,
) -> Result<PublishedRelease, String> {
    let mech = dpod_cli::registry::mechanism_by_name(mechanism).map_err(|e| e.0)?;
    let out = mech
        .sanitize(matrix, epsilon(), &mut dpod_dp::seeded_rng(seed))
        .map_err(|e| format!("{mechanism}: {e}"))?;
    Ok(PublishedRelease::from_sanitized(&out))
}

/// Generates the trips and grid, sanitizes the analyst catalog, and
/// renders the curator's trip batches as CSV.
pub fn generate(seed: u64) -> Result<Inputs, String> {
    let ny = City::NewYork.model();
    let mut rng = dpod_dp::seeded_rng(derive(seed, 1));

    let trips = TrajectoryConfig::with_stops(0).generate(&ny, OD_TRIPS, &mut rng);
    let m4 = OdMatrixBuilder::new(OD4_CELLS).build_dense(&trips, 0)?;
    let od4 = sanitize("daf-entropy", &m4, derive(seed, 2))?;

    let trips = TrajectoryConfig::with_stops(1).generate(&ny, OD_TRIPS, &mut rng);
    let m6 = OdMatrixBuilder::new(OD6_CELLS).build_dense(&trips, 1)?;
    let od6 = sanitize("ebp", &m6, derive(seed, 3))?;

    let grid = City::Denver
        .model()
        .population_matrix(GRID_SIDE, GRID_POINTS, &mut rng);
    let grid2d = sanitize("identity", &grid, derive(seed, 4))?;

    let epoch_csv = (0..EPOCH_BATCHES)
        .map(|_| {
            let batch = TrajectoryConfig::with_stops(0).generate(&ny, EPOCH_TRIPS, &mut rng);
            dpod_cli::csv::to_csv(&batch)
        })
        .collect();
    Ok(Inputs {
        seed,
        analyst: vec![(OD4, od4), (OD6, od6), (GRID, grid2d)],
        epoch_csv,
    })
}
