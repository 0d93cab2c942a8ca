//! Ablations over the design choices this reproduction had to make where
//! the paper leaves a parameter or policy open:
//!
//! * **A1** — DAF stop policy (Never vs count threshold vs
//!   noise-dominated factor);
//! * **A2** — EUG's uniformity constant c₀ and DAF-Homogeneity's
//!   partition-budget ratio q;
//! * **A4** — non-negativity post-processing;
//! * **A5** — Laplace vs geometric noise on the IDENTITY baseline;
//! * **A6** — tree-consistency post-processing for DAF-Entropy.

use crate::datasets::{city_2d, gaussian};
use crate::report::{Experiment, Panel};
use crate::runner::{sweep, Cell, TruthContext};
use crate::HarnessConfig;
use dpod_core::{
    baselines::Identity,
    daf::{DafEntropy, DafHomogeneity, StopPolicy},
    grid::Eug,
    DynMechanism, Mechanism, MechanismError, SanitizedMatrix,
};
use dpod_dp::Noise;
use dpod_fmatrix::DenseMatrix;
use dpod_query::workload::QueryWorkload;

/// The fixed budget for the ablations (the paper's strictest setting).
pub const EPSILON: f64 = 0.1;

/// Runs all ablations.
pub fn ablation(cfg: &HarnessConfig) -> Experiment {
    let panels = vec![
        stop_policy_panel(cfg),
        c0_panel(cfg),
        q_panel(cfg),
        postprocess_panel(cfg),
        noise_kind_panel(cfg),
        consistency_panel(cfg),
    ];
    Experiment {
        id: "ablation".into(),
        description: "Ablations over reproduction design choices (A1/A2/A4/A5/A6)".into(),
        panels,
    }
}

/// A1: stop-policy sweep for DAF-Entropy on the New York histogram.
fn stop_policy_panel(cfg: &HarnessConfig) -> Panel {
    let ds = city_2d(cfg, dpod_data::City::NewYork);
    let ctx = TruthContext::new(
        &ds.matrix,
        QueryWorkload::Random,
        cfg.num_queries(),
        cfg.sub_seed("ablation/stop/queries"),
    );
    let variants: Vec<(String, f64, DynMechanism)> = vec![
        ("Never".into(), 0.0, boxed_daf(StopPolicy::Never)),
        (
            "NoiseDominated".into(),
            1.0,
            boxed_daf(StopPolicy::NoiseDominated { factor: 1.0 }),
        ),
        (
            "NoiseDominated".into(),
            2.0,
            boxed_daf(StopPolicy::NoiseDominated { factor: 2.0 }),
        ),
        (
            "NoiseDominated".into(),
            4.0,
            boxed_daf(StopPolicy::NoiseDominated { factor: 4.0 }),
        ),
        (
            "NoiseDominated".into(),
            8.0,
            boxed_daf(StopPolicy::NoiseDominated { factor: 8.0 }),
        ),
        (
            "CountBelow".into(),
            1.0,
            boxed_daf(StopPolicy::CountBelow(10.0)),
        ),
        (
            "CountBelow".into(),
            2.0,
            boxed_daf(StopPolicy::CountBelow(50.0)),
        ),
        (
            "CountBelow".into(),
            4.0,
            boxed_daf(StopPolicy::CountBelow(200.0)),
        ),
    ];
    let cells: Vec<Cell<'_>> = variants
        .iter()
        .map(|(label, x, mech)| Cell {
            series: label.clone(),
            x: *x,
            input: &ds.matrix,
            ctx: &ctx,
            mechanism: mech,
            epsilon: EPSILON,
            seed: cfg.sub_seed(&format!("ablation/stop/{label}/{x}")),
        })
        .collect();
    let triples = sweep(cells);
    Panel::from_triples(
        "A1: DAF-Entropy stop policy (New York 2D, ε=0.1)",
        "policy parameter",
        "MRE (%)",
        &triples,
    )
}

fn boxed_daf(stop: StopPolicy) -> DynMechanism {
    Box::new(DafEntropy {
        stop,
        ..DafEntropy::default()
    })
}

/// A2a: EUG's c₀ sweep on 4-D Gaussian data (where grid sizing matters
/// most).
fn c0_panel(cfg: &HarnessConfig) -> Panel {
    let ds = gaussian(cfg, 4, 0.1);
    let ctx = TruthContext::new(
        &ds.matrix,
        QueryWorkload::Random,
        cfg.num_queries(),
        cfg.sub_seed("ablation/c0/queries"),
    );
    let c0s = [2.5, 5.0, dpod_core::granularity::DEFAULT_C0, 10.0, 20.0];
    let mechs: Vec<(f64, DynMechanism)> = c0s
        .iter()
        .map(|&c0| {
            (
                c0,
                Box::new(Eug {
                    c0,
                    ..Eug::default()
                }) as DynMechanism,
            )
        })
        .collect();
    let cells: Vec<Cell<'_>> = mechs
        .iter()
        .map(|(c0, mech)| Cell {
            series: "EUG".into(),
            x: *c0,
            input: &ds.matrix,
            ctx: &ctx,
            mechanism: mech,
            epsilon: EPSILON,
            seed: cfg.sub_seed(&format!("ablation/c0/{c0}")),
        })
        .collect();
    Panel::from_triples(
        "A2a: EUG constant c₀ (Gaussian 4D, ε=0.1)",
        "c₀",
        "MRE (%)",
        &sweep(cells),
    )
}

/// A2b: DAF-Homogeneity's q sweep on the New York histogram.
fn q_panel(cfg: &HarnessConfig) -> Panel {
    let ds = city_2d(cfg, dpod_data::City::NewYork);
    let ctx = TruthContext::new(
        &ds.matrix,
        QueryWorkload::Random,
        cfg.num_queries(),
        cfg.sub_seed("ablation/q/queries"),
    );
    let qs = [0.1, 0.2, 0.3, 0.4, 0.6];
    let mechs: Vec<(f64, DynMechanism)> = qs
        .iter()
        .map(|&q| {
            (
                q,
                Box::new(DafHomogeneity {
                    q,
                    ..DafHomogeneity::default()
                }) as DynMechanism,
            )
        })
        .collect();
    let cells: Vec<Cell<'_>> = mechs
        .iter()
        .map(|(q, mech)| Cell {
            series: "DAF-Homogeneity".into(),
            x: *q,
            input: &ds.matrix,
            ctx: &ctx,
            mechanism: mech,
            epsilon: EPSILON,
            seed: cfg.sub_seed(&format!("ablation/q/{q}")),
        })
        .collect();
    Panel::from_triples(
        "A2b: DAF-Homogeneity partition budget ratio q (New York 2D, ε=0.1)",
        "q",
        "MRE (%)",
        &sweep(cells),
    )
}

/// A4: effect of the non-negativity post-processing step.
fn postprocess_panel(cfg: &HarnessConfig) -> Panel {
    let ds = city_2d(cfg, dpod_data::City::Denver);
    let ctx = TruthContext::new(
        &ds.matrix,
        QueryWorkload::Random,
        cfg.num_queries(),
        cfg.sub_seed("ablation/nn/queries"),
    );
    let base: Vec<DynMechanism> = vec![
        Box::new(Identity),
        Box::new(dpod_core::grid::Ebp::default()),
        Box::new(DafEntropy::default()),
    ];
    let clamped: Vec<DynMechanism> = vec![
        Box::new(NonNegative(Identity)),
        Box::new(NonNegative(dpod_core::grid::Ebp::default())),
        Box::new(NonNegative(DafEntropy::default())),
    ];
    let mut cells = Vec::new();
    for (x, group) in [(0.0, &base), (1.0, &clamped)] {
        for mech in group {
            cells.push(Cell {
                series: mech.name().to_string(),
                x,
                input: &ds.matrix,
                ctx: &ctx,
                mechanism: mech,
                epsilon: EPSILON,
                seed: cfg.sub_seed(&format!("ablation/nn/{}/{x}", mech.name())),
            });
        }
    }
    Panel::from_triples(
        "A4: non-negativity post-processing (0 = raw, 1 = clamped; Denver 2D, ε=0.1)",
        "clamped",
        "MRE (%)",
        &sweep(cells),
    )
}

/// Wrapper mechanism applying the non-negativity post-processing.
struct NonNegative<M: Mechanism>(M);

impl<M: Mechanism> Mechanism for NonNegative<M> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn release(
        &self,
        input: &DenseMatrix<u64>,
        noise: &mut Noise<'_>,
    ) -> Result<SanitizedMatrix, MechanismError> {
        Ok(self.0.release(input, noise)?.non_negative())
    }
}

/// A5: Laplace vs two-sided geometric noise on IDENTITY.
fn noise_kind_panel(cfg: &HarnessConfig) -> Panel {
    let ds = city_2d(cfg, dpod_data::City::Detroit);
    let ctx = TruthContext::new(
        &ds.matrix,
        QueryWorkload::Random,
        cfg.num_queries(),
        cfg.sub_seed("ablation/noise/queries"),
    );
    let mechs: Vec<DynMechanism> = vec![Box::new(Identity), Box::new(GeometricIdentity)];
    let mut cells = Vec::new();
    for (x, eps) in [(0.1, 0.1), (0.3, 0.3), (0.5, 0.5)] {
        for mech in &mechs {
            cells.push(Cell {
                series: mech.name().to_string(),
                x,
                input: &ds.matrix,
                ctx: &ctx,
                mechanism: mech,
                epsilon: eps,
                seed: cfg.sub_seed(&format!("ablation/noise/{}/{x}", mech.name())),
            });
        }
    }
    Panel::from_triples(
        "A5: Laplace vs geometric noise (IDENTITY, Detroit 2D)",
        "ε_tot",
        "MRE (%)",
        &sweep(cells),
    )
}

/// A6: constrained-inference (tree consistency) post-processing for
/// DAF-Entropy — recycles the internal nodes' noisy counts at zero extra
/// budget (extension; see `dpod_core::daf::consistency`).
fn consistency_panel(cfg: &HarnessConfig) -> Panel {
    let datasets = [
        ("NY 2D", city_2d(cfg, dpod_data::City::NewYork)),
        ("Gaussian 4D", gaussian(cfg, 4, 0.1)),
    ];
    let mechs: Vec<(f64, DynMechanism)> = vec![
        (0.0, Box::new(DafEntropy::default())),
        (1.0, Box::new(DafEntropy::with_consistency())),
    ];
    let mut triples = Vec::new();
    for (name, ds) in &datasets {
        let ctx = TruthContext::new(
            &ds.matrix,
            QueryWorkload::Random,
            cfg.num_queries(),
            cfg.sub_seed(&format!("ablation/consistency/queries/{name}")),
        );
        let cells: Vec<Cell<'_>> = mechs
            .iter()
            .map(|(x, mech)| Cell {
                series: format!("DAF-Entropy ({name})"),
                x: *x,
                input: &ds.matrix,
                ctx: &ctx,
                mechanism: mech,
                epsilon: EPSILON,
                seed: cfg.sub_seed(&format!("ablation/consistency/{name}/{x}")),
            })
            .collect();
        triples.extend(sweep(cells));
    }
    Panel::from_triples(
        "A6: tree-consistency post-processing (0 = raw, 1 = consistent; ε=0.1)",
        "consistent",
        "MRE (%)",
        &triples,
    )
}

/// IDENTITY with two-sided geometric noise instead of Laplace (the paper's
/// future-work direction, exercised here as an ablation).
struct GeometricIdentity;

impl Mechanism for GeometricIdentity {
    fn name(&self) -> &'static str {
        "IDENTITY-geometric"
    }

    fn release(
        &self,
        input: &DenseMatrix<u64>,
        noise: &mut Noise<'_>,
    ) -> Result<SanitizedMatrix, MechanismError> {
        // Disjoint entries: one share of the whole budget, as in IDENTITY.
        let share = noise.rest("entries")?;
        let mut out = DenseMatrix::<f64>::zeros(input.shape().clone());
        for (i, &v) in input.as_slice().iter().enumerate() {
            out.set_flat(i, noise.geometric(v as i64, share) as f64);
        }
        Ok(SanitizedMatrix::from_entries(
            self.name(),
            noise.total(),
            out,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_ablation_structure() {
        let cfg = HarnessConfig::at_scale(crate::Scale::Tiny);
        let e = ablation(&cfg);
        assert_eq!(e.panels.len(), 6);
        for p in &e.panels {
            assert!(!p.series.is_empty(), "panel {} has no series", p.title);
            for s in &p.series {
                assert!(s.points.iter().all(|&(_, y)| y.is_finite()));
            }
        }
    }
}
