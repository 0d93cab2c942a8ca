//! The evaluation loop: true answers vs private answers over a workload.

use crate::metrics::{MreOptions, SummaryStats};
use dpod_core::SanitizedMatrix;
use dpod_fmatrix::{AxisBox, DenseMatrix, PrefixSum};
use serde::{Deserialize, Serialize};
use std::num::Wrapping;

/// The outcome of evaluating one sanitized release against one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Mechanism that produced the release.
    pub mechanism: String,
    /// Total privacy budget of the release.
    pub epsilon: f64,
    /// Error distribution over the workload (mean is the paper's MRE).
    pub stats: SummaryStats,
}

/// Evaluates `sanitized` on `queries`, comparing against the exact counts
/// of `truth`.
///
/// Truth is computed through a prefix-sum table built once per call
/// (`O(d·size)` + `O(2^d)` per query); reuse [`evaluate_with_prefix`] when
/// scoring many releases of the same input.
pub fn evaluate(
    truth: &DenseMatrix<u64>,
    sanitized: &SanitizedMatrix,
    queries: &[AxisBox],
    options: MreOptions,
) -> EvalReport {
    let prefix = PrefixSum::from_counts(truth);
    evaluate_with_prefix(&prefix, truth.total(), sanitized, queries, options)
}

/// [`evaluate`] with a caller-owned truth table (avoids rebuilding it for
/// every mechanism × ε combination in a sweep).
pub fn evaluate_with_prefix(
    truth_prefix: &PrefixSum<Wrapping<u64>>,
    total: f64,
    sanitized: &SanitizedMatrix,
    queries: &[AxisBox],
    options: MreOptions,
) -> EvalReport {
    let errors: Vec<f64> = queries
        .iter()
        .map(|q| {
            let t = truth_prefix.box_count(q) as f64;
            let e = sanitized.range_sum(q);
            options.relative_error(t, e, total)
        })
        .collect();
    EvalReport {
        mechanism: sanitized.mechanism().to_string(),
        epsilon: sanitized.epsilon(),
        stats: SummaryStats::from_errors(errors),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::QueryWorkload;
    use dpod_core::{baselines::Uniform, Mechanism};
    use dpod_dp::Epsilon;
    use dpod_fmatrix::Shape;

    #[test]
    fn perfect_release_has_zero_error() {
        let s = Shape::new(vec![10, 10]).unwrap();
        let truth = DenseMatrix::from_vec(s.clone(), vec![4u64; 100]).unwrap();
        // Fake a "release" that is exactly the truth.
        let perfect =
            SanitizedMatrix::from_entries("oracle", f64::INFINITY, truth.map(|v| v as f64));
        let mut rng = dpod_dp::seeded_rng(1);
        let queries = QueryWorkload::Random.draw_many(&s, 200, &mut rng);
        let report = evaluate(&truth, &perfect, &queries, MreOptions::default());
        assert_eq!(report.stats.max, 0.0);
        assert_eq!(report.stats.mean, 0.0);
    }

    #[test]
    fn uniform_baseline_error_is_positive_on_skewed_data() {
        let s = Shape::new(vec![16, 16]).unwrap();
        let mut truth = DenseMatrix::<u64>::zeros(s.clone());
        truth.set(&[0, 0], 10_000).unwrap();
        let out = Uniform
            .sanitize(
                &truth,
                Epsilon::new(1.0).unwrap(),
                &mut dpod_dp::seeded_rng(2),
            )
            .unwrap();
        let mut rng = dpod_dp::seeded_rng(3);
        let queries = QueryWorkload::FixedCoverage { coverage: 0.25 }.draw_many(&s, 100, &mut rng);
        let report = evaluate(&truth, &out, &queries, MreOptions::default());
        assert!(report.stats.mean > 10.0, "mean {:?}", report.stats.mean);
        assert_eq!(report.mechanism, "UNIFORM");
    }

    #[test]
    fn prefix_reuse_matches_direct_evaluation() {
        let s = Shape::new(vec![12, 12]).unwrap();
        let truth = DenseMatrix::from_vec(s.clone(), (0..144).map(|i| i % 7).collect()).unwrap();
        let out = Uniform
            .sanitize(
                &truth,
                Epsilon::new(0.5).unwrap(),
                &mut dpod_dp::seeded_rng(4),
            )
            .unwrap();
        let mut rng = dpod_dp::seeded_rng(5);
        let queries = QueryWorkload::Random.draw_many(&s, 50, &mut rng);
        let direct = evaluate(&truth, &out, &queries, MreOptions::default());
        let prefix = PrefixSum::from_counts(&truth);
        let reused = evaluate_with_prefix(
            &prefix,
            truth.total(),
            &out,
            &queries,
            MreOptions::default(),
        );
        assert_eq!(direct, reused);
    }
}
