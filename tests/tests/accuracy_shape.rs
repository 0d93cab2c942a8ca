//! Paper-shape regression tests: the qualitative claims of §6 must hold on
//! reduced-scale versions of the experiments. These are statistical tests
//! over a handful of seeds — loose bounds, tight conclusions.

use dpod_core::{
    baselines::{Identity, Mkm},
    daf::DafEntropy,
    grid::{Ebp, Eug},
    Mechanism,
};
use dpod_data::{City, GaussianConfig};
use dpod_dp::Epsilon;
use dpod_fmatrix::{DenseMatrix, Shape};
use dpod_query::{evaluate, metrics::MreOptions, workload::QueryWorkload};

/// Mean MRE of `mech` over a few seeds on `input`.
fn mean_mre(
    input: &DenseMatrix<u64>,
    mech: &dyn Mechanism,
    eps: f64,
    seeds: std::ops::Range<u64>,
) -> f64 {
    let mut rng = dpod_dp::seeded_rng(1000);
    let queries = QueryWorkload::Random.draw_many(input.shape(), 200, &mut rng);
    let e = Epsilon::new(eps).unwrap();
    let n = (seeds.end - seeds.start) as f64;
    seeds
        .map(|s| {
            let out = mech
                .sanitize(input, e, &mut dpod_dp::seeded_rng(s))
                .unwrap();
            evaluate(input, &out, &queries, MreOptions::default())
                .stats
                .mean
        })
        .sum::<f64>()
        / n
}

/// Skewed 4-D Gaussian input (the regime the paper's Fig. 4 middle row
/// targets).
fn gaussian_4d() -> DenseMatrix<u64> {
    GaussianConfig {
        shape: Shape::cube(4, 18).unwrap(),
        num_points: 120_000,
        var: 4.0,
    }
    .generate(&mut dpod_dp::seeded_rng(5))
}

#[test]
fn adaptive_methods_beat_identity_in_4d() {
    // Fig. 4d-f: on skewed higher-dimensional data the adaptive methods
    // outperform IDENTITY by a wide margin at strict budgets.
    let input = gaussian_4d();
    let id = mean_mre(&input, &Identity, 0.1, 0..4);
    let ebp = mean_mre(&input, &Ebp::default(), 0.1, 0..4);
    let daf = mean_mre(&input, &DafEntropy::default(), 0.1, 0..4);
    assert!(
        ebp < id / 2.0,
        "EBP ({ebp:.1}%) should beat IDENTITY ({id:.1}%) by 2x+"
    );
    assert!(
        daf < id / 2.0,
        "DAF-Entropy ({daf:.1}%) should beat IDENTITY ({id:.1}%) by 2x+"
    );
}

#[test]
fn error_decreases_with_budget() {
    // Every figure: MRE is monotone (statistically) in ε.
    let input = gaussian_4d();
    for mech in [
        Box::new(Ebp::default()) as Box<dyn Mechanism>,
        Box::new(DafEntropy::default()),
        Box::new(Eug::default()),
    ] {
        let strict = mean_mre(&input, mech.as_ref(), 0.1, 0..4);
        let loose = mean_mre(&input, mech.as_ref(), 1.0, 0..4);
        assert!(
            loose < strict,
            "{}: ε=1.0 ({loose:.2}%) must beat ε=0.1 ({strict:.2}%)",
            mech.name()
        );
    }
}

#[test]
fn coarser_queries_are_easier() {
    // Fig. 6: "for all methods, the error decreases when the query range
    // increases". Checked from 5% coverage upwards — below that the MRE
    // denominator floor (`MreOptions::sanity_fraction`) dampens the
    // tiny-query errors and the comparison stops being meaningful.
    let mut rng = dpod_dp::seeded_rng(6);
    let input = City::Denver
        .model()
        .population_matrix(256, 150_000, &mut rng);
    let eps = Epsilon::new(0.1).unwrap();
    let out = Ebp::default()
        .sanitize(&input, eps, &mut dpod_dp::seeded_rng(7))
        .unwrap();
    let mut mres = Vec::new();
    for coverage in [0.05, 0.25, 0.40] {
        let queries =
            QueryWorkload::FixedCoverage { coverage }.draw_many(input.shape(), 300, &mut rng);
        mres.push(
            evaluate(&input, &out, &queries, MreOptions::default())
                .stats
                .mean,
        );
    }
    assert!(
        mres[0] > mres[1] && mres[1] > mres[2],
        "error should fall with coverage: {mres:?}"
    );
}

#[test]
fn mkm_overpartitions_relative_to_ebp() {
    // §6.2's diagnosis: MKM's granularity rule mis-sizes the grid, putting
    // it in the baseline tier. Check the released partition counts diverge
    // from EBP's and the error is worse on skewed city data.
    let mut rng = dpod_dp::seeded_rng(8);
    let input = City::NewYork
        .model()
        .population_matrix(128, 80_000, &mut rng);
    let mkm = mean_mre(&input, &Mkm::default(), 0.1, 0..4);
    let ebp = mean_mre(&input, &Ebp::default(), 0.1, 0..4);
    assert!(
        mkm > 3.0 * ebp,
        "MKM ({mkm:.1}%) should trail EBP ({ebp:.1}%) by a wide margin"
    );
}

#[test]
fn daf_advantage_grows_with_dimensionality() {
    // §6.2: "the relative accuracy gain achieved by DAF is observed to
    // increase as the number of dimensions increases" (vs the uniform
    // grids). Compare DAF-Entropy against EUG at d=2 and d=6 with matched
    // skew (σ at ~10% of the domain side). The 6-D case needs enough mass
    // for the adaptive structure to find (paper uses 1M points; 300k keeps
    // the same regime at test speed).
    let ratio = |d: usize, side: usize, points: usize, sf: f64| {
        let input = GaussianConfig {
            shape: Shape::cube(d, side).unwrap(),
            num_points: points,
            var: (side as f64 * sf).powi(2),
        }
        .generate(&mut dpod_dp::seeded_rng(9));
        let eug = mean_mre(&input, &Eug::default(), 0.1, 0..3);
        let daf = mean_mre(&input, &DafEntropy::default(), 0.1, 0..3);
        daf / eug
    };
    let r2 = ratio(2, 316, 100_000, 0.08);
    let r6 = ratio(6, 8, 300_000, 0.10);
    assert!(
        r6 < r2,
        "DAF/EUG error ratio should improve with d: 2D {r2:.2} vs 6D {r6:.2}"
    );
    assert!(r6 < 0.8, "DAF should win clearly in 6D, ratio {r6:.2}");
}
