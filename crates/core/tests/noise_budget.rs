//! Budget checks on the one noise path: every mechanism charges exactly
//! the ε it is given, `sanitize` refuses a release that charges more, and
//! a budget too small to draw from is refused rather than published.

use dpod_core::{all_mechanisms, Mechanism, MechanismError, SanitizedMatrix};
use dpod_dp::{DpError, Epsilon, Noise, BUDGET_SLACK};
use dpod_fmatrix::{DenseMatrix, Shape};
use proptest::prelude::*;

/// Strategy: a small random count matrix (1–4 dims, each 1–9 cells).
fn arb_matrix() -> impl Strategy<Value = DenseMatrix<u64>> {
    prop::collection::vec(1usize..=9, 1..=4)
        .prop_map(|dims| Shape::new(dims).unwrap())
        .prop_flat_map(|shape| {
            let size = shape.size();
            prop::collection::vec(0u64..300, size)
                .prop_map(move |data| DenseMatrix::from_vec(shape.clone(), data).unwrap())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every mechanism's recorded spend equals the requested ε.
    #[test]
    fn recorded_spend_equals_epsilon(
        m in arb_matrix(),
        eps in 0.01f64..5.0,
        seed in any::<u64>()
    ) {
        for mech in all_mechanisms() {
            let mut rng = dpod_dp::seeded_rng(seed);
            let mut noise = Noise::new(Epsilon::new(eps).unwrap(), &mut rng);
            mech.release(&m, &mut noise)
                .unwrap_or_else(|e| panic!("{} failed: {e}", mech.name()));
            prop_assert!(noise.check().is_ok(), "{} had a share refused", mech.name());
            prop_assert!(
                (noise.spent() - eps).abs() <= BUDGET_SLACK * eps,
                "{} spent {} of ε = {eps}", mech.name(), noise.spent()
            );
        }
    }
}

/// A test-only mechanism that charges twice the budget it is given.
struct Overspender {
    /// Carry on after the refused charge instead of returning its error.
    swallow: bool,
}

impl Mechanism for Overspender {
    fn name(&self) -> &'static str {
        "overspender"
    }

    fn release(
        &self,
        input: &DenseMatrix<u64>,
        noise: &mut Noise<'_>,
    ) -> Result<SanitizedMatrix, MechanismError> {
        let first = noise.share(noise.total(), "first pass")?;
        let second = noise.share(noise.total(), "second pass");
        if !self.swallow {
            second?;
        }
        let mut out = DenseMatrix::<f64>::zeros(input.shape().clone());
        for (i, &v) in input.as_slice().iter().enumerate() {
            out.set_flat(i, noise.laplace(v as f64, first));
        }
        Ok(SanitizedMatrix::from_entries(
            self.name(),
            noise.total(),
            out,
        ))
    }
}

#[test]
fn sanitize_refuses_a_release_that_charges_more_than_epsilon() {
    let m = DenseMatrix::<u64>::zeros(Shape::new(vec![4, 4]).unwrap());
    for swallow in [false, true] {
        let got = Overspender { swallow }.sanitize(
            &m,
            Epsilon::new(0.5).unwrap(),
            &mut dpod_dp::seeded_rng(1),
        );
        match got {
            Err(MechanismError::Dp(DpError::BudgetExhausted { label, .. })) => {
                assert_eq!(label, "second pass");
            }
            other => panic!(
                "swallow={swallow}: expected BudgetExhausted, got {:?}",
                other.map(|_| ())
            ),
        }
    }
}

/// At ε = 1e-308 the ε₀, per-level and wavelet shares have scales that
/// overflow to infinity: those mechanisms must refuse with a DP error
/// instead of panicking or publishing non-finite totals. IDENTITY and
/// UNIFORM draw at scale 1/ε = 1e308, which is finite, and only must not
/// panic.
#[test]
fn tiny_epsilon_is_refused_not_published() {
    let shape = Shape::new(vec![16, 16]).unwrap();
    let m = DenseMatrix::from_vec(shape, (0..256u64).map(|i| i % 7).collect()).unwrap();
    let eps = Epsilon::new(1e-308).unwrap();
    let mut refused = Vec::new();
    for mech in all_mechanisms() {
        match mech.sanitize(&m, eps, &mut dpod_dp::seeded_rng(1)) {
            Err(MechanismError::Dp(_)) => refused.push(mech.name()),
            Err(e) => panic!("{}: expected a DP error, got {e}", mech.name()),
            Ok(_) => {}
        }
    }
    assert_eq!(
        refused,
        [
            "EUG",
            "EBP",
            "MKM",
            "DAF-Entropy",
            "DAF-Homogeneity",
            "Privelet",
            "QuadTree",
            "AG"
        ]
    );
}
