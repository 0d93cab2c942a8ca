use crate::{DpError, Epsilon, Result};
use serde::Serialize;

/// Relative tolerance for float drift in budget arithmetic.
///
/// Mechanisms compute per-level budgets with closed-form expressions whose
/// rounding error accumulates over a handful of additions; a spend within
/// this relative tolerance of the remaining budget is accepted and clamped.
pub const BUDGET_SLACK: f64 = 1e-9;

/// One recorded budget expenditure.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LedgerEntry {
    /// What the budget was spent on (e.g. `"root count"`, `"level 3"`).
    pub label: String,
    /// Amount of ε spent.
    pub epsilon: f64,
}

/// A sequential-composition budget ledger.
///
/// The paper's mechanisms carve one total budget ε_tot into many pieces
/// (ε₀ for the noisy total, per-level budgets, partitioning vs data budgets
/// …) whose sum must never exceed ε_tot along any root→leaf path. The
/// accountant makes that arithmetic explicit: every `spend` is validated,
/// recorded and replayable.
///
/// ```
/// use dpod_dp::{BudgetAccountant, Epsilon};
/// let mut acc = BudgetAccountant::new(Epsilon::new(1.0).unwrap());
/// let e0 = acc.spend(0.01, "noisy total").unwrap();
/// assert!((e0.value() - 0.01).abs() < 1e-12);
/// assert!((acc.remaining() - 0.99).abs() < 1e-12);
/// assert!(acc.spend(2.0, "too much").is_err());
/// ```
#[derive(Debug, Clone)]
pub struct BudgetAccountant {
    total: f64,
    spent: f64,
    ledger: Vec<LedgerEntry>,
}

impl BudgetAccountant {
    /// A fresh accountant holding `total` budget.
    pub fn new(total: Epsilon) -> Self {
        BudgetAccountant {
            total: total.value(),
            spent: 0.0,
            ledger: Vec::new(),
        }
    }

    /// The total budget this accountant started with.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Budget spent so far.
    #[inline]
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Budget still available (never negative).
    #[inline]
    pub fn remaining(&self) -> f64 {
        (self.total - self.spent).max(0.0)
    }

    /// Records a spend of `epsilon`, returning it as a validated [`Epsilon`].
    ///
    /// Requests within [`BUDGET_SLACK`] (relative) of the remaining budget
    /// are clamped to it, so "spend everything that is left" patterns are
    /// exact.
    ///
    /// # Errors
    /// [`DpError::InvalidEpsilon`] for non-positive requests;
    /// [`DpError::BudgetExhausted`] when the request exceeds the remainder.
    pub fn spend(&mut self, epsilon: f64, label: &str) -> Result<Epsilon> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(DpError::InvalidEpsilon { value: epsilon });
        }
        let remaining = self.remaining();
        let slack = BUDGET_SLACK * self.total;
        if epsilon > remaining + slack {
            return Err(DpError::BudgetExhausted {
                requested: epsilon,
                remaining,
                label: label.to_string(),
            });
        }
        let granted = epsilon.min(remaining);
        // `granted` can only be zero if remaining was within slack of zero
        // while epsilon was positive — treat as exhaustion, not a free pass.
        let granted_eps = Epsilon::new(granted).map_err(|_| DpError::BudgetExhausted {
            requested: epsilon,
            remaining,
            label: label.to_string(),
        })?;
        self.spent += granted;
        self.ledger.push(LedgerEntry {
            label: label.to_string(),
            epsilon: granted,
        });
        Ok(granted_eps)
    }

    /// Spends everything that is left.
    ///
    /// # Errors
    /// [`DpError::BudgetExhausted`] when nothing remains.
    pub fn spend_rest(&mut self, label: &str) -> Result<Epsilon> {
        let rest = self.remaining();
        self.spend(rest, label)
    }

    /// The recorded expenditure history.
    pub fn ledger(&self) -> &[LedgerEntry] {
        &self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// An accountant shared across threads behind a lock.
    type Shared = Arc<Mutex<BudgetAccountant>>;

    fn shared(total: f64) -> Shared {
        Arc::new(Mutex::new(BudgetAccountant::new(eps(total))))
    }

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn spend_tracks_ledger() {
        let mut acc = BudgetAccountant::new(eps(1.0));
        acc.spend(0.3, "a").unwrap();
        acc.spend(0.2, "b").unwrap();
        assert!((acc.spent() - 0.5).abs() < 1e-12);
        assert_eq!(acc.ledger().len(), 2);
        assert_eq!(acc.ledger()[0].label, "a");
    }

    #[test]
    fn overspend_is_rejected() {
        let mut acc = BudgetAccountant::new(eps(0.5));
        acc.spend(0.4, "a").unwrap();
        let err = acc.spend(0.2, "b").unwrap_err();
        assert!(matches!(err, DpError::BudgetExhausted { .. }));
        // The failed spend must not alter state.
        assert!((acc.remaining() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn float_drift_within_slack_is_clamped() {
        let mut acc = BudgetAccountant::new(eps(1.0));
        // Ten spends of a tenth each, accumulating float error.
        for i in 0..9 {
            acc.spend(0.1, &format!("part {i}")).unwrap();
        }
        // The "last tenth" computed as 1.0 − 9·0.1 carries rounding error.
        let last = 1.0 - 9.0f64 * 0.1;
        let granted = acc.spend(last, "last").unwrap();
        assert!(granted.value() > 0.0);
        assert!(acc.remaining() < 1e-9);
    }

    #[test]
    fn slack_is_relative_at_small_totals() {
        let mut acc = BudgetAccountant::new(eps(1e-10));
        assert!(matches!(
            acc.spend(2e-10, "double"),
            Err(DpError::BudgetExhausted { .. })
        ));
        assert_eq!(acc.spent(), 0.0);
        // Drift within the relative slack is still clamped.
        let granted = acc.spend(1e-10 * (1.0 + 1e-12), "all").unwrap();
        assert_eq!(granted.value(), 1e-10);
    }

    #[test]
    fn spend_rest_drains_budget() {
        let mut acc = BudgetAccountant::new(eps(0.7));
        acc.spend(0.25, "half").unwrap();
        let rest = acc.spend_rest("rest").unwrap();
        assert!((rest.value() - 0.45).abs() < 1e-12);
        assert_eq!(acc.remaining(), 0.0);
        assert!(acc.spend_rest("again").is_err());
    }

    #[test]
    fn invalid_spends_rejected() {
        let mut acc = BudgetAccountant::new(eps(1.0));
        assert!(acc.spend(0.0, "zero").is_err());
        assert!(acc.spend(-0.1, "negative").is_err());
        assert!(acc.spend(f64::NAN, "nan").is_err());
    }

    #[test]
    fn shared_accountant_is_thread_safe() {
        let acc = shared(1.0);
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let acc = Arc::clone(&acc);
                std::thread::spawn(move || acc.lock().unwrap().spend(0.1, &format!("t{i}")).is_ok())
            })
            .collect();
        let successes = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&ok| ok)
            .count();
        // 8 threads each requesting 0.1 of a 1.0 budget: all succeed.
        assert_eq!(successes, 8);
        assert!((acc.lock().unwrap().spent() - 0.8).abs() < 1e-9);
    }
}
