//! Accuracy metrics: mean relative error (Eq. 3) and distribution
//! summaries.

use serde::{Deserialize, Serialize};

/// Options for relative-error computation.
///
/// Eq. (3) divides by the true count, which is zero for many random
/// queries over skewed data. Following the standard convention in this
/// literature (Qardaji et al.; Hay et al.'s DPBench), the denominator is
/// smoothed to `max(true, sanity_fraction · N)` where `N` is the dataset
/// total, so near-empty query ranges cannot blow the relative error up.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MreOptions {
    /// The smoothing fraction ρ; denominator is at least `ρ·N`.
    pub sanity_fraction: f64,
}

impl Default for MreOptions {
    fn default() -> Self {
        MreOptions {
            sanity_fraction: 0.001,
        }
    }
}

impl MreOptions {
    /// Relative error of one query, in percent (Eq. 3 with smoothing).
    ///
    /// `total` is the dataset size `N` used for the smoothing floor.
    pub fn relative_error(&self, truth: f64, estimate: f64, total: f64) -> f64 {
        let denom = truth.max(self.sanity_fraction * total).max(1.0);
        (estimate - truth).abs() / denom * 100.0
    }
}

/// Summary statistics over the per-query relative errors of a workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Number of queries evaluated.
    pub count: usize,
    /// Mean relative error (the paper's headline metric), percent.
    pub mean: f64,
    /// Median relative error, percent.
    pub median: f64,
    /// 95th-percentile relative error, percent.
    pub p95: f64,
    /// Maximum relative error, percent.
    pub max: f64,
}

impl SummaryStats {
    /// Computes the summary of a non-empty error sample.
    ///
    /// # Panics
    /// Panics on an empty sample (an experiment bug, not a data condition).
    pub fn from_errors(mut errors: Vec<f64>) -> Self {
        assert!(!errors.is_empty(), "cannot summarize zero queries");
        errors.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
        let count = errors.len();
        let mean = errors.iter().sum::<f64>() / count as f64;
        SummaryStats {
            count,
            mean,
            median: percentile(&errors, 0.5),
            p95: percentile(&errors, 0.95),
            max: *errors.last().expect("non-empty"),
        }
    }
}

/// Linear-interpolated percentile of a sorted sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&q));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_matches_eq3_when_truth_large() {
        let o = MreOptions::default();
        // truth 200 over N=1000: denominator is truth itself.
        assert!((o.relative_error(200.0, 150.0, 1_000.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn zero_truth_uses_smoothing_floor() {
        let o = MreOptions::default();
        // N = 1e6 ⇒ floor = 1000; error |50-0|/1000 = 5%.
        let e = o.relative_error(0.0, 50.0, 1e6);
        assert!((e - 5.0).abs() < 1e-12);
    }

    #[test]
    fn floor_never_below_one() {
        let o = MreOptions::default();
        // Tiny datasets: denominator clamps at 1, not at ρN = 0.01.
        let e = o.relative_error(0.0, 2.0, 10.0);
        assert!((e - 200.0).abs() < 1e-12);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = SummaryStats::from_errors(vec![4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert_eq!(s.max, 5.0);
        assert!((s.p95 - 4.8).abs() < 1e-12);
    }

    #[test]
    fn single_element_summary() {
        let s = SummaryStats::from_errors(vec![7.5]);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.median, 7.5);
        assert_eq!(s.p95, 7.5);
    }

    #[test]
    #[should_panic(expected = "zero queries")]
    fn empty_sample_panics() {
        let _ = SummaryStats::from_errors(vec![]);
    }
}
