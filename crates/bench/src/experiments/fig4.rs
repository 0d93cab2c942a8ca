//! Figure 4: synthetic Gaussian data, random shape/size queries.
//! 9 panels — d ∈ {2, 4, 6} × ε ∈ {0.1, 0.3, 0.5}; MRE vs cluster spread.

use crate::datasets::{gaussian, Dataset};
use crate::experiments::PAPER_EPSILONS;
use crate::report::{Experiment, Panel};
use crate::runner::{sweep, Cell, TruthContext};
use crate::HarnessConfig;
use dpod_core::paper_suite;
use dpod_query::workload::QueryWorkload;

/// Cluster spread values (σ as a fraction of the domain side). The paper
/// sweeps the Gaussian variance; fractions keep the skew comparable across
/// dimensionalities.
pub const SIGMA_FRACTIONS: [f64; 5] = [0.02, 0.05, 0.10, 0.20, 0.40];

/// Dimensionalities of the synthetic sweep.
pub const DIMS: [usize; 3] = [2, 4, 6];

/// Runs the experiment.
pub fn fig4(cfg: &HarnessConfig) -> Experiment {
    let mechanisms = paper_suite();
    let mut panels = Vec::new();
    for &d in &DIMS {
        // Datasets and truth contexts are shared across the ε panels.
        let datasets: Vec<Dataset> = SIGMA_FRACTIONS
            .iter()
            .map(|&sf| gaussian(cfg, d, sf))
            .collect();
        let contexts: Vec<TruthContext> = datasets
            .iter()
            .enumerate()
            .map(|(i, ds)| {
                TruthContext::new(
                    &ds.matrix,
                    QueryWorkload::Random,
                    cfg.num_queries(),
                    cfg.sub_seed(&format!("fig4/queries/d{d}/{i}")),
                )
            })
            .collect();
        for &eps in &PAPER_EPSILONS {
            let mut cells = Vec::new();
            for (ds, ctx, &sf) in itertools3(&datasets, &contexts, &SIGMA_FRACTIONS) {
                for mech in &mechanisms {
                    cells.push(Cell {
                        series: mech.name().to_string(),
                        x: sf,
                        input: &ds.matrix,
                        ctx,
                        mechanism: mech,
                        epsilon: eps,
                        seed: cfg.sub_seed(&format!("fig4/run/d{d}/e{eps}/sf{sf}/{}", mech.name())),
                    });
                }
            }
            let triples = sweep(cells);
            panels.push(Panel::from_triples(
                &format!("{d}D, ε_tot = {eps}"),
                "σ/width",
                "MRE (%)",
                &triples,
            ));
        }
    }
    Experiment {
        id: "fig4".into(),
        description: "Gaussian synthetic data, random shape/size queries (paper Fig. 4)".into(),
        panels,
    }
}

/// Zips three equal-length slices (the std `zip` chains get unreadable).
fn itertools3<'a, A, B, C>(
    a: &'a [A],
    b: &'a [B],
    c: &'a [C],
) -> impl Iterator<Item = (&'a A, &'a B, &'a C)> {
    debug_assert!(a.len() == b.len() && b.len() == c.len());
    a.iter()
        .zip(b.iter())
        .zip(c.iter())
        .map(|((x, y), z)| (x, y, z))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_fig4_has_nine_panels_and_six_series() {
        // Shrunken harness: the structure must match the paper's figure.
        let cfg = HarnessConfig::at_scale(crate::Scale::Tiny);
        let e = fig4(&cfg);
        assert_eq!(e.panels.len(), 9);
        for p in &e.panels {
            assert_eq!(p.series.len(), 6, "panel {}", p.title);
            for s in &p.series {
                assert_eq!(s.points.len(), SIGMA_FRACTIONS.len());
                assert!(s.points.iter().all(|&(_, y)| y.is_finite()));
            }
        }
    }
}
