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

    /// Returns `epsilon` of previously-spent budget to the pool,
    /// reporting how much actually flowed back.
    ///
    /// This is the retention path of a continually-published series: when
    /// an expired epoch is tombstoned, the ε it consumed is no longer
    /// held against the series and may be re-spent on future epochs. The
    /// refund is clamped to what is currently spent (so `spent` never
    /// goes negative, however the caller races removals) and recorded as
    /// a negative ledger entry, keeping the history replayable: summing
    /// the ledger always reproduces `spent`.
    ///
    /// # Errors
    /// [`DpError::InvalidEpsilon`] for non-positive or non-finite
    /// requests.
    pub fn release(&mut self, epsilon: f64, label: &str) -> Result<f64> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(DpError::InvalidEpsilon { value: epsilon });
        }
        let refunded = epsilon.min(self.spent);
        self.spent -= refunded;
        self.ledger.push(LedgerEntry {
            label: label.to_string(),
            epsilon: -refunded,
        });
        Ok(refunded)
    }

    /// The recorded expenditure history.
    pub fn ledger(&self) -> &[LedgerEntry] {
        &self.ledger
    }
}

/// A point-in-time view of a budget ledger, shaped for metrics export.
///
/// This is what the serving layer's ε-budget gauges are built from: a
/// monitoring scrape needs the three totals (not the entry-by-entry
/// history) as one consistent reading, taken under the same lock as the
/// spends it reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BudgetSnapshot {
    /// Total budget the accountant started with.
    pub total: f64,
    /// Budget spent so far.
    pub spent: f64,
    /// Budget still available (never negative).
    pub remaining: f64,
    /// Number of recorded expenditures.
    pub entries: usize,
}

impl BudgetAccountant {
    /// A consistent snapshot of the budget state for metrics export.
    pub fn snapshot(&self) -> BudgetSnapshot {
        BudgetSnapshot {
            total: self.total,
            spent: self.spent,
            remaining: self.remaining(),
            entries: self.ledger.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// An accountant shared across threads the way the serving layer's
    /// per-series ledgers hold one: behind a lock.
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
    fn snapshot_reports_consistent_totals() {
        let mut acc = BudgetAccountant::new(eps(1.0));
        acc.spend(0.3, "a").unwrap();
        acc.spend(0.2, "b").unwrap();
        let snap = acc.snapshot();
        assert_eq!(snap.total, 1.0);
        assert!((snap.spent - 0.5).abs() < 1e-12);
        assert!((snap.remaining - 0.5).abs() < 1e-12);
        assert_eq!(snap.entries, 2);
        let mut all = BudgetAccountant::new(eps(0.7));
        all.spend(0.7, "all").unwrap();
        let snap = all.snapshot();
        assert_eq!(snap.remaining, 0.0);
        assert_eq!(snap.entries, 1);
    }

    #[test]
    fn release_refunds_spent_budget() {
        let mut acc = BudgetAccountant::new(eps(1.0));
        acc.spend(0.6, "epoch 1").unwrap();
        acc.spend(0.3, "epoch 2").unwrap();
        // Retiring epoch 1 returns its ε for future epochs.
        let refunded = acc.release(0.6, "retire epoch 1").unwrap();
        assert!((refunded - 0.6).abs() < 1e-12);
        assert!((acc.spent() - 0.3).abs() < 1e-12);
        assert!((acc.remaining() - 0.7).abs() < 1e-12);
        // The refund is a ledger row, and the ledger still sums to spent.
        assert_eq!(acc.ledger().len(), 3);
        let sum: f64 = acc.ledger().iter().map(|e| e.epsilon).sum();
        assert!((sum - acc.spent()).abs() < 1e-12);
        // The returned budget is spendable again.
        acc.spend(0.7, "epoch 3").unwrap();
        assert!(acc.remaining() < 1e-12);
    }

    #[test]
    fn release_clamps_to_spent_and_rejects_invalid() {
        let mut acc = BudgetAccountant::new(eps(1.0));
        acc.spend(0.2, "a").unwrap();
        // Over-refunding (a racing double-remove) clamps: spent never
        // goes negative, remaining never exceeds total.
        let refunded = acc.release(0.5, "over").unwrap();
        assert!((refunded - 0.2).abs() < 1e-12);
        assert_eq!(acc.spent(), 0.0);
        assert_eq!(acc.remaining(), 1.0);
        assert!(acc.release(0.0, "zero").is_err());
        assert!(acc.release(-0.1, "negative").is_err());
        assert!(acc.release(f64::NAN, "nan").is_err());
    }

    /// Regression: scraping `snapshot()` while publishes spend and
    /// removals release must never observe double-counted or torn
    /// totals, and must never panic. Every snapshot is taken under the
    /// same lock as the mutations, so `total == spent + remaining` (up
    /// to float rounding) and `0 ≤ spent ≤ total` must hold in every
    /// observation, however the threads interleave.
    #[test]
    fn snapshot_stays_consistent_under_racing_spend_and_release() {
        let acc = shared(1.0);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut workers = Vec::new();
        for t in 0..4u64 {
            let acc = Arc::clone(&acc);
            workers.push(std::thread::spawn(move || {
                for i in 0..500 {
                    // Publish an epoch's worth, then retire it.
                    let mut ledger = acc.lock().unwrap();
                    if ledger.spend(0.01, &format!("t{t} epoch {i}")).is_ok() {
                        drop(ledger);
                        let mut ledger = acc.lock().unwrap();
                        ledger.release(0.01, &format!("t{t} retire {i}")).unwrap();
                    }
                }
            }));
        }
        let scrapers: Vec<_> = (0..2)
            .map(|_| {
                let acc = Arc::clone(&acc);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    loop {
                        let snap = acc.lock().unwrap().snapshot();
                        assert!(snap.spent >= 0.0, "spent went negative: {snap:?}");
                        assert!(
                            snap.spent <= snap.total + 1e-9,
                            "spent exceeds total: {snap:?}"
                        );
                        assert!(
                            (snap.total - (snap.spent + snap.remaining)).abs() < 1e-9,
                            "torn snapshot: {snap:?}"
                        );
                        seen += 1;
                        if stop.load(std::sync::atomic::Ordering::Relaxed) {
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for s in scrapers {
            assert!(s.join().unwrap() > 0, "scraper never ran");
        }
        let acc = acc.lock().unwrap();
        // Every spend was matched by a release: the pool is whole again.
        assert!(acc.spent().abs() < 1e-9);
        assert!((acc.remaining() - 1.0).abs() < 1e-9);
        // And the full history (spends + refunds) is still replayable.
        let sum: f64 = acc.ledger().iter().map(|e| e.epsilon).sum();
        assert!(sum.abs() < 1e-9);
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
