use crate::{DpError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A validated privacy budget ε: finite and strictly positive.
///
/// Lower values mean stricter privacy and more noise (§2.1). The newtype
/// prevents the classic unit bugs — passing a noise *scale* where a *budget*
/// is expected, or spending a negative amount.
///
/// ```
/// use dpod_dp::Epsilon;
/// assert_eq!(Epsilon::new(0.5).unwrap().value(), 0.5);
/// assert!(Epsilon::new(-1.0).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Epsilon(f64);

impl Epsilon {
    /// Validates and wraps a budget value.
    ///
    /// # Errors
    /// [`DpError::InvalidEpsilon`] unless `value` is finite and `> 0`.
    pub fn new(value: f64) -> Result<Self> {
        if !value.is_finite() || value <= 0.0 {
            return Err(DpError::InvalidEpsilon { value });
        }
        Ok(Epsilon(value))
    }

    /// The raw budget value.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Epsilon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_values() {
        for bad in [0.0, -0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(Epsilon::new(bad).is_err(), "accepted {bad}");
        }
        assert!(Epsilon::new(1e-12).is_ok());
    }
}
