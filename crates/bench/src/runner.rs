//! The experiment runner: one sanitize+evaluate cell, plus the parallel
//! sweep helper the figure experiments are built from.

use dpod_core::{DynMechanism, Mechanism};
use dpod_dp::Epsilon;
use dpod_fmatrix::{AxisBox, DenseMatrix, PrefixSum};
use dpod_query::{eval::evaluate_with_prefix, metrics::MreOptions, workload::QueryWorkload};
use rayon::prelude::*;
use std::num::Wrapping;

/// Precomputed ground truth for one (input, workload) pair, shared across
/// every mechanism and ε of a sweep.
pub struct TruthContext {
    prefix: PrefixSum<Wrapping<u64>>,
    total: f64,
    queries: Vec<AxisBox>,
}

impl TruthContext {
    /// Builds the truth table and draws the query workload.
    pub fn new(
        input: &DenseMatrix<u64>,
        workload: QueryWorkload,
        num_queries: usize,
        seed: u64,
    ) -> Self {
        let mut rng = dpod_dp::seeded_rng(seed);
        TruthContext {
            prefix: PrefixSum::from_counts(input),
            total: input.total(),
            queries: workload.draw_many(input.shape(), num_queries, &mut rng),
        }
    }

    /// Number of queries in the workload.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }
}

/// Runs one mechanism at one budget and returns the mean relative error
/// (percent) over the context's workload.
pub fn run_cell(
    input: &DenseMatrix<u64>,
    ctx: &TruthContext,
    mechanism: &dyn Mechanism,
    epsilon: f64,
    seed: u64,
) -> f64 {
    let mut rng = dpod_dp::seeded_rng(seed);
    let sanitized = mechanism
        .sanitize(
            input,
            Epsilon::new(epsilon).expect("valid epsilon"),
            &mut rng,
        )
        .unwrap_or_else(|e| panic!("{} failed at ε={epsilon}: {e}", mechanism.name()));
    evaluate_with_prefix(
        &ctx.prefix,
        ctx.total,
        &sanitized,
        &ctx.queries,
        MreOptions::default(),
    )
    .stats
    .mean
}

/// One curve point request for [`sweep`].
pub struct Cell<'a> {
    /// Series label (mechanism name by convention).
    pub series: String,
    /// X-axis value of this point.
    pub x: f64,
    /// The input matrix.
    pub input: &'a DenseMatrix<u64>,
    /// Shared ground truth for the input.
    pub ctx: &'a TruthContext,
    /// The mechanism to run.
    pub mechanism: &'a DynMechanism,
    /// Total privacy budget.
    pub epsilon: f64,
    /// Seed for this cell.
    pub seed: u64,
}

/// Evaluates many cells in parallel, returning `(series, x, mre)` triples
/// in input order.
pub fn sweep(cells: Vec<Cell<'_>>) -> Vec<(String, f64, f64)> {
    cells
        .into_par_iter()
        .map(|c| {
            let mre = run_cell(c.input, c.ctx, c.mechanism.as_ref(), c.epsilon, c.seed);
            (c.series, c.x, mre)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_core::baselines::{Identity, Uniform};
    use dpod_fmatrix::Shape;

    fn skewed_input() -> DenseMatrix<u64> {
        let s = Shape::new(vec![24, 24]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        for x in 0..4 {
            for y in 0..4 {
                m.set(&[x, y], 600).unwrap();
            }
        }
        m
    }

    #[test]
    fn run_cell_produces_finite_mre() {
        let input = skewed_input();
        let ctx = TruthContext::new(&input, QueryWorkload::Random, 100, 1);
        let mre = run_cell(&input, &ctx, &Identity, 0.5, 2);
        assert!(mre.is_finite() && mre >= 0.0);
    }

    #[test]
    fn identity_beats_uniform_on_skewed_data_at_high_eps() {
        // With generous budget, per-entry noise is tiny while the uniform
        // baseline still suffers full uniformity error.
        let input = skewed_input();
        let ctx = TruthContext::new(&input, QueryWorkload::Random, 200, 3);
        let id = run_cell(&input, &ctx, &Identity, 20.0, 4);
        let un = run_cell(&input, &ctx, &Uniform, 20.0, 4);
        assert!(id < un, "identity {id} should beat uniform {un}");
    }

    #[test]
    fn sweep_preserves_labels_and_order() {
        let input = skewed_input();
        let ctx = TruthContext::new(&input, QueryWorkload::Random, 50, 5);
        let mechs: Vec<dpod_core::DynMechanism> = vec![Box::new(Identity), Box::new(Uniform)];
        let cells: Vec<Cell<'_>> = mechs
            .iter()
            .enumerate()
            .map(|(i, m)| Cell {
                series: m.name().to_string(),
                x: i as f64,
                input: &input,
                ctx: &ctx,
                mechanism: m,
                epsilon: 1.0,
                seed: 6,
            })
            .collect();
        let out = sweep(cells);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, "IDENTITY");
        assert_eq!(out[1].0, "UNIFORM");
        assert_eq!(out[0].1, 0.0);
    }
}
