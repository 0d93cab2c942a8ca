//! Dataset builders used by the experiments (§6.1 of the paper).

use crate::HarnessConfig;
use dpod_data::{City, GaussianConfig, OdMatrixBuilder, TrajectoryConfig, ZipfConfig};
use dpod_fmatrix::{DenseMatrix, Shape};

/// A named input matrix for one experiment cell.
pub struct Dataset {
    /// Display name ("Gaussian d=4 σ/w=0.10", "New York 2D", …).
    pub name: String,
    /// The raw count matrix.
    pub matrix: DenseMatrix<u64>,
}

/// Synthetic-domain side for `d` dimensions: the paper sets the width of
/// each dimension to `d√N`.
pub fn synthetic_side(d: usize, n: usize) -> usize {
    (n as f64).powf(1.0 / d as f64).round().max(2.0) as usize
}

/// Gaussian matrix with cluster spread `sigma_frac · side` (§6.1; the
/// paper's `var` knob expressed relative to the domain so the same
/// fractions are meaningful at every dimensionality).
pub fn gaussian(cfg: &HarnessConfig, d: usize, sigma_frac: f64) -> Dataset {
    let n = cfg.num_points();
    let side = synthetic_side(d, n);
    let sigma = sigma_frac * side as f64;
    let gen = GaussianConfig {
        shape: Shape::cube(d, side).expect("valid cube"),
        num_points: n,
        var: sigma * sigma,
    };
    let label = format!("gaussian/d{d}/sf{sigma_frac}");
    let mut rng = dpod_dp::seeded_rng(cfg.sub_seed(&label));
    Dataset {
        name: format!("Gaussian d={d} σ/w={sigma_frac:.2}"),
        matrix: gen.generate(&mut rng),
    }
}

/// Zipf matrix with skew exponent `a` (§6.1).
pub fn zipf(cfg: &HarnessConfig, d: usize, a: f64) -> Dataset {
    let n = cfg.num_points();
    let side = synthetic_side(d, n);
    let gen = ZipfConfig {
        shape: Shape::cube(d, side).expect("valid cube"),
        num_points: n,
        a,
    };
    let label = format!("zipf/d{d}/a{a}");
    let mut rng = dpod_dp::seeded_rng(cfg.sub_seed(&label));
    Dataset {
        name: format!("Zipf d={d} a={a:.1}"),
        matrix: gen.generate(&mut rng),
    }
}

/// 2-D city population histogram (the Veraset substitute; paper: 1000²,
/// 1 M points).
pub fn city_2d(cfg: &HarnessConfig, city: City) -> Dataset {
    let label = format!("city2d/{}", city.name());
    let mut rng = dpod_dp::seeded_rng(cfg.sub_seed(&label));
    let matrix = city
        .model()
        .population_matrix(cfg.city_grid(), cfg.num_points(), &mut rng);
    Dataset {
        name: format!("{} 2D", city.name()),
        matrix,
    }
}

/// OD matrix with `stops` intermediate stops (paper: 300 k trajectories;
/// 4-D for origin/destination, 6-D with one stop). Granularity per
/// [`HarnessConfig::od_cells`]: 32/axis for 4-D, 10/axis for 6-D.
pub fn city_od(cfg: &HarnessConfig, city: City, stops: usize) -> Dataset {
    let cells = cfg.od_cells(stops);
    let label = format!("cityod/{}/s{stops}", city.name());
    let mut rng = dpod_dp::seeded_rng(cfg.sub_seed(&label));
    let trips = TrajectoryConfig::with_stops(stops).generate(
        &city.model(),
        cfg.num_trajectories(),
        &mut rng,
    );
    let builder = OdMatrixBuilder::new(cells);
    let matrix = builder
        .build_dense(&trips, stops)
        .expect("OD domain within dense guard");
    Dataset {
        name: format!("{} OD {}D", city.name(), 2 * (stops + 2)),
        matrix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> HarnessConfig {
        HarnessConfig::at_scale(crate::Scale::Tiny)
    }

    #[test]
    fn synthetic_side_matches_paper_rule() {
        assert_eq!(synthetic_side(2, 1_000_000), 1_000);
        assert_eq!(synthetic_side(4, 1_000_000), 32);
        assert_eq!(synthetic_side(6, 1_000_000), 10);
    }

    #[test]
    fn gaussian_dataset_has_right_mass_and_shape() {
        let cfg = quick();
        let ds = gaussian(&cfg, 4, 0.1);
        assert_eq!(ds.matrix.ndim(), 4);
        assert_eq!(ds.matrix.total_u64() as usize, cfg.num_points());
    }

    #[test]
    fn od_dataset_dimensions() {
        let cfg = quick();
        let ds = city_od(&cfg, City::Denver, 0);
        assert_eq!(ds.matrix.ndim(), 4);
        assert_eq!(ds.matrix.total_u64() as usize, cfg.num_trajectories());
    }

    #[test]
    fn sub_seeds_differ_by_label() {
        let cfg = quick();
        assert_ne!(cfg.sub_seed("a"), cfg.sub_seed("b"));
        assert_eq!(cfg.sub_seed("a"), cfg.sub_seed("a"));
    }
}
