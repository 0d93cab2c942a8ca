use crate::SanitizedMatrix;
use dpod_dp::{DpError, Epsilon, Noise};
use dpod_fmatrix::{DenseMatrix, FmError};
use rand::RngCore;
use std::fmt;

/// Errors produced by sanitization mechanisms.
#[derive(Debug, Clone, PartialEq)]
pub enum MechanismError {
    /// Budget accounting or noise-parameter failure.
    Dp(DpError),
    /// Frequency-matrix geometry failure.
    Fm(FmError),
    /// Mechanism-specific configuration or input problem.
    Invalid(String),
}

impl fmt::Display for MechanismError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MechanismError::Dp(e) => write!(f, "dp error: {e}"),
            MechanismError::Fm(e) => write!(f, "frequency-matrix error: {e}"),
            MechanismError::Invalid(msg) => write!(f, "invalid mechanism input: {msg}"),
        }
    }
}

impl std::error::Error for MechanismError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MechanismError::Dp(e) => Some(e),
            MechanismError::Fm(e) => Some(e),
            MechanismError::Invalid(_) => None,
        }
    }
}

impl From<DpError> for MechanismError {
    fn from(e: DpError) -> Self {
        MechanismError::Dp(e)
    }
}

impl From<FmError> for MechanismError {
    fn from(e: FmError) -> Self {
        MechanismError::Fm(e)
    }
}

/// A differentially-private frequency-matrix sanitization mechanism.
///
/// The contract (Problem 1 of the paper): given the exact count matrix `F`
/// and a total budget ε, release an ε-DP estimate of `F`, spending **at
/// most** ε. Every noisy value is drawn through the [`Noise`] handle, and
/// [`Mechanism::sanitize`] refuses a release whose shares exceed ε.
///
/// The trait is object-safe (`&mut dyn RngCore`) so experiment harnesses
/// can hold heterogeneous mechanism suites.
pub trait Mechanism {
    /// Stable display name used in experiment output (matches the paper's
    /// figure legends, e.g. `"EBP"`, `"DAF-Entropy"`).
    fn name(&self) -> &'static str;

    /// Releases `input`, drawing all noise through `noise`.
    ///
    /// # Errors
    /// [`MechanismError`] when the configuration is invalid for the input
    /// (wrong dimensionality, a refused share, …). Mechanisms never panic
    /// on valid inputs.
    fn release(
        &self,
        input: &DenseMatrix<u64>,
        noise: &mut Noise<'_>,
    ) -> Result<SanitizedMatrix, MechanismError>;

    /// Sanitizes `input` under total budget `epsilon` through a fresh
    /// noise handle.
    ///
    /// # Errors
    /// As [`Mechanism::release`]; [`MechanismError::Dp`] when a share was
    /// refused, even if the release carried on.
    fn sanitize(
        &self,
        input: &DenseMatrix<u64>,
        epsilon: Epsilon,
        rng: &mut dyn RngCore,
    ) -> Result<SanitizedMatrix, MechanismError> {
        with_noise(epsilon, rng, |noise| self.release(input, noise))
    }
}

/// Runs `release` on a fresh [`Noise`] handle; fails if it refused a share.
pub(crate) fn with_noise<T>(
    epsilon: Epsilon,
    rng: &mut dyn RngCore,
    release: impl FnOnce(&mut Noise<'_>) -> Result<T, MechanismError>,
) -> Result<T, MechanismError> {
    let mut noise = Noise::new(epsilon, rng);
    let out = release(&mut noise)?;
    noise.check()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = MechanismError::from(DpError::InvalidEpsilon { value: -1.0 });
        assert!(e.to_string().contains("dp error"));
        assert!(std::error::Error::source(&e).is_some());
        let e2 = MechanismError::Invalid("bad".into());
        assert!(std::error::Error::source(&e2).is_none());
    }

    #[test]
    fn trait_is_object_safe() {
        // Compile-time check: a Vec of boxed mechanisms must be expressible.
        fn _takes(_: Vec<Box<dyn Mechanism>>) {}
    }
}
