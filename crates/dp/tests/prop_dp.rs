//! Property-based tests for the DP primitives.

use dpod_dp::{laplace::sample_laplace, BudgetAccountant, Epsilon};
use proptest::prelude::*;

proptest! {
    /// Laplace samples are always finite for any positive scale.
    #[test]
    fn laplace_samples_are_finite(scale in 1e-6f64..1e6, seed in any::<u64>()) {
        let mut rng = dpod_dp::seeded_rng(seed);
        for _ in 0..50 {
            let x = sample_laplace(&mut rng, scale);
            prop_assert!(x.is_finite());
        }
    }

    /// Any sequence of valid spends never drives the accountant negative
    /// and the ledger always sums to `spent`.
    #[test]
    fn accountant_invariants(
        total in 0.01f64..10.0,
        fracs in prop::collection::vec(0.01f64..0.5, 1..20)
    ) {
        let mut acc = BudgetAccountant::new(Epsilon::new(total).unwrap());
        for (i, f) in fracs.iter().enumerate() {
            let req = f * total;
            let _ = acc.spend(req, &format!("spend {i}"));
            prop_assert!(acc.spent() <= acc.total() + 1e-9);
            prop_assert!(acc.remaining() >= 0.0);
        }
        let ledger_sum: f64 = acc.ledger().iter().map(|e| e.epsilon).sum();
        prop_assert!((ledger_sum - acc.spent()).abs() < 1e-9);
    }

    /// Seeded sampling is reproducible.
    #[test]
    fn laplace_deterministic_per_seed(seed in any::<u64>()) {
        let mut r1 = dpod_dp::seeded_rng(seed);
        let mut r2 = dpod_dp::seeded_rng(seed);
        for _ in 0..10 {
            prop_assert_eq!(
                sample_laplace(&mut r1, 2.0),
                sample_laplace(&mut r2, 2.0)
            );
        }
    }
}
