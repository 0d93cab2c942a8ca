//! # dpod-dp
//!
//! Differential-privacy primitives for the `dp-odmatrix` workspace:
//!
//! * [`Epsilon`] — a validated privacy-budget value;
//! * [`Noise`] — the one noise path: every mechanism charges ε in
//!   [`Share`]s and draws its noise through this per-release handle;
//! * [`laplace`] / [`geometric`] — its samplers: Laplace noise (Eq. 2 of
//!   the paper) and the integer-valued alternative ablation A5 uses;
//! * [`BudgetAccountant`] — the sequential-composition ledger each
//!   [`Noise`] charges a release's shares against.
//!
//! Each draw is on a shared `&mut dyn rand::RngCore`, so mechanisms stay
//! object-safe and every experiment is reproducible from a seed.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod budget;
mod epsilon;
mod error;
pub mod geometric;
pub mod laplace;
mod noise;

pub use budget::{BudgetAccountant, LedgerEntry, BUDGET_SLACK};
pub use epsilon::Epsilon;
pub use error::DpError;
pub use noise::{Noise, Share};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DpError>;

/// Returns a seeded, portable RNG for reproducible experiments.
///
/// Every mechanism in the workspace takes `&mut dyn RngCore`; passing
/// `&mut seeded_rng(seed)` makes an entire sanitization run deterministic.
pub fn seeded_rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}
