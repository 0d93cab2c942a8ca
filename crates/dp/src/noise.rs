//! The one noise path: the per-release handle every mechanism charges ε
//! and draws noise through.

use crate::{geometric, laplace, BudgetAccountant, DpError, Epsilon, Result, BUDGET_SLACK};
use rand::{Rng, RngCore};
use std::ops::RangeInclusive;

/// Budget charged to a [`Noise`] handle, with the Laplace scale
/// `sensitivity/ε` of its draws. Only a handle mints shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Share {
    epsilon: f64,
    sensitivity: f64,
    scale: f64,
}

impl Share {
    fn new(epsilon: f64, sensitivity: f64, label: &str) -> Result<Share> {
        Epsilon::new(epsilon)?;
        if !(sensitivity.is_finite() && sensitivity > 0.0) {
            return Err(DpError::InvalidSensitivity { value: sensitivity });
        }
        let scale = sensitivity / epsilon;
        if !scale.is_finite() {
            let label = label.to_string();
            return Err(DpError::NonFiniteScale { scale, label });
        }
        Ok(Share {
            epsilon,
            sensitivity,
            scale,
        })
    }

    /// The ε this share spends.
    pub fn epsilon(self) -> f64 {
        self.epsilon
    }

    /// The Laplace scale `sensitivity/ε` of its draws.
    pub fn scale(self) -> f64 {
        self.scale
    }

    /// The same ε for a query of L1-sensitivity `sensitivity` (not 1).
    ///
    /// # Errors
    /// As [`Noise::share`], or [`DpError::InvalidSensitivity`].
    pub fn with_sensitivity(self, sensitivity: f64, label: &str) -> Result<Share> {
        Share::new(self.epsilon, sensitivity, label)
    }

    /// Splits the share into sequential parts `(q·ε, (1 − q)·ε)`.
    ///
    /// # Errors
    /// [`DpError::InvalidEpsilon`] unless `q ∈ (0, 1)`, else as
    /// [`Noise::share`].
    pub fn split(self, q: f64) -> Result<(Share, Share)> {
        Ok((
            Share::new(self.epsilon * q, self.sensitivity, "split part")?,
            Share::new(self.epsilon * (1.0 - q), self.sensitivity, "split rest")?,
        ))
    }
}

/// The noise handle of one release: it owns the release's generator and
/// [`BudgetAccountant`], and every noisy value is drawn through it.
///
/// A mechanism charges one [`Share`] per sequential-composition step and
/// draws with it. Draws within one share must cover disjoint data
/// (parallel composition), so they are not charged again. The handle
/// checks each share against the release's ε but never recomputes one.
///
/// ```
/// use dpod_dp::{Epsilon, Noise};
/// let mut rng = dpod_dp::seeded_rng(7);
/// let mut noise = Noise::new(Epsilon::new(1.0).unwrap(), &mut rng);
/// let total = noise.share(0.01, "noisy total").unwrap();
/// let cells = noise.rest("cell counts").unwrap();
/// let _n = noise.laplace(500.0, total);
/// let _c = noise.laplace(42.0, cells); // disjoint cells share one charge
/// assert!(noise.share(0.1, "over").is_err());
/// assert!(noise.check().is_err());
/// ```
pub struct Noise<'a> {
    rng: &'a mut dyn RngCore,
    budget: BudgetAccountant,
    refused: Option<DpError>,
}

impl<'a> Noise<'a> {
    /// A handle for one release of total budget `epsilon`.
    pub fn new(epsilon: Epsilon, rng: &'a mut dyn RngCore) -> Self {
        let budget = BudgetAccountant::new(epsilon);
        Noise {
            rng,
            budget,
            refused: None,
        }
    }

    /// The release's total ε.
    pub fn total(&self) -> f64 {
        self.budget.total()
    }

    /// ε charged so far.
    pub fn spent(&self) -> f64 {
        self.budget.spent()
    }

    /// ε not yet charged.
    pub fn remaining(&self) -> f64 {
        self.budget.remaining()
    }

    /// Charges `epsilon` as one sequential-composition step of counts.
    ///
    /// # Errors
    /// [`DpError::NonFiniteScale`] when `1/ε` overflows (nothing is
    /// charged); [`DpError::BudgetExhausted`] past what is left.
    pub fn share(&mut self, epsilon: f64, label: &str) -> Result<Share> {
        let charged = Share::new(epsilon, 1.0, label)
            .and_then(|share| self.budget.spend(epsilon, label).map(|_| share));
        self.remember(charged)
    }

    /// Charges everything that is left.
    ///
    /// # Errors
    /// As [`Noise::share`].
    pub fn rest(&mut self, label: &str) -> Result<Share> {
        self.share(self.budget.remaining(), label)
    }

    /// An uncharged share of `epsilon` against already-charged `covering`
    /// shares, e.g. a pruned tree node spending the levels below it.
    ///
    /// # Errors
    /// [`DpError::BudgetExhausted`] when `covering` holds less than
    /// `epsilon` (beyond [`BUDGET_SLACK`]), else as [`Noise::share`].
    pub fn within(&mut self, epsilon: f64, covering: &[Share], label: &str) -> Result<Share> {
        let held: f64 = covering.iter().map(|s| s.epsilon).sum();
        let drawn = if epsilon > held + BUDGET_SLACK * held {
            Err(DpError::BudgetExhausted {
                requested: epsilon,
                remaining: held,
                label: label.to_string(),
            })
        } else {
            Share::new(epsilon, 1.0, label)
        };
        self.remember(drawn)
    }

    /// Keeps the first refusal for [`Noise::check`].
    fn remember(&mut self, share: Result<Share>) -> Result<Share> {
        if let Err(e) = &share {
            self.refused.get_or_insert_with(|| e.clone());
        }
        share
    }

    /// `value + Lap(share.scale())` (Eq. 2 of the paper).
    #[inline]
    pub fn laplace(&mut self, value: f64, share: Share) -> f64 {
        value + laplace::sample_laplace(self.rng, share.scale)
    }

    /// `value` plus two-sided geometric noise, `α = e^{−ε/sensitivity}`.
    #[inline]
    pub fn geometric(&mut self, value: i64, share: Share) -> i64 {
        let alpha = (-share.epsilon / share.sensitivity).exp();
        value + geometric::sample_two_sided_geometric(self.rng, alpha)
    }

    /// A uniform draw that reads no data, so costs no budget.
    pub fn uniform(&mut self, range: RangeInclusive<usize>) -> usize {
        self.rng.gen_range(range)
    }

    /// # Errors
    /// The first refused share, even one the mechanism ignored.
    pub fn check(&self) -> Result<()> {
        self.refused.clone().map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn shares_charge_sequentially_and_rest_drains() {
        let mut rng = seeded_rng(1);
        let mut noise = Noise::new(eps(0.5), &mut rng);
        let a = noise.share(0.5 * 0.01, "total").unwrap();
        assert_eq!(a.epsilon(), 0.5 * 0.01);
        assert_eq!(a.scale(), 1.0 / (0.5 * 0.01));
        let b = noise.rest("cells").unwrap();
        assert_eq!(b.epsilon(), 0.5 - 0.5 * 0.01);
        assert_eq!(noise.spent(), 0.5);
        assert!(noise.check().is_ok());
        assert!(matches!(
            noise.rest("again"),
            Err(DpError::InvalidEpsilon { .. })
        ));
        assert!(noise.check().is_err());
    }

    #[test]
    fn overspend_is_refused_and_remembered() {
        let mut rng = seeded_rng(2);
        let mut noise = Noise::new(eps(1.0), &mut rng);
        let err = noise.share(1.5, "too much").unwrap_err();
        assert!(matches!(err, DpError::BudgetExhausted { .. }));
        assert_eq!(noise.spent(), 0.0);
        // Later charges succeed, but the release still fails its check.
        noise.share(1.0, "all").unwrap();
        assert_eq!(noise.check(), Err(err));
    }

    #[test]
    fn non_finite_scales_are_refused_before_charging() {
        let mut rng = seeded_rng(3);
        let mut noise = Noise::new(eps(1e-308), &mut rng);
        let err = noise.share(1e-308 * 0.01, "tiny").unwrap_err();
        assert!(matches!(err, DpError::NonFiniteScale { .. }), "{err}");
        assert_eq!(noise.spent(), 0.0);
        // 1/1e-308 is finite, but a larger sensitivity overflows it.
        let whole = noise.rest("whole").unwrap();
        assert!(matches!(
            whole.with_sensitivity(25.0, "wide"),
            Err(DpError::NonFiniteScale { .. })
        ));
    }

    #[test]
    fn split_and_sensitivity_keep_the_callers_expressions() {
        let mut rng = seeded_rng(4);
        let mut noise = Noise::new(eps(0.7), &mut rng);
        let level = noise.share(0.3, "level").unwrap();
        let (prt, data) = level.split(0.3).unwrap();
        assert_eq!(prt.epsilon(), 0.3 * 0.3);
        assert_eq!(data.epsilon(), 0.3 * (1.0 - 0.3));
        assert_eq!(
            prt.with_sensitivity(12.0, "scored").unwrap().scale(),
            12.0 / (0.3 * 0.3)
        );
        assert!(level.split(0.0).is_err() && level.split(1.0).is_err());
    }

    #[test]
    fn within_draws_against_charged_shares_only() {
        let mut rng = seeded_rng(5);
        let mut noise = Noise::new(eps(1.0), &mut rng);
        let l1 = noise.share(0.25, "l1").unwrap();
        let l2 = noise.rest("l2").unwrap();
        let topup = noise.within(1.0 - 0.25, &[l2], "pruned").unwrap();
        assert_eq!(topup.epsilon(), 0.75);
        assert!(noise.check().is_ok());
        assert!(noise.within(0.8, &[l1, l2][1..], "too much").is_err());
        assert!(noise.check().is_err());
    }

    #[test]
    fn uniform_draws_stay_in_range() {
        let mut rng = seeded_rng(6);
        let mut noise = Noise::new(eps(0.5), &mut rng);
        assert!((0..100).all(|_| (3..=5).contains(&noise.uniform(3..=5))));
        assert_eq!(noise.spent(), 0.0);
    }
}
