use std::fmt;

/// Errors produced by the DP primitives.
#[derive(Debug, Clone, PartialEq)]
pub enum DpError {
    /// Epsilon must be a finite, strictly positive number.
    InvalidEpsilon {
        /// The rejected value.
        value: f64,
    },
    /// Sensitivity must be a finite, strictly positive number.
    InvalidSensitivity {
        /// The rejected value.
        value: f64,
    },
    /// A spend request exceeded the remaining budget.
    BudgetExhausted {
        /// Budget requested by the caller.
        requested: f64,
        /// Budget still available in the accountant.
        remaining: f64,
        /// Label of the offending spend, for diagnostics.
        label: String,
    },
    /// A share's Laplace scale `sensitivity/ε` is not finite: ε is too
    /// small to draw from.
    NonFiniteScale {
        /// The overflowed scale.
        scale: f64,
        /// Label of the refused share, for diagnostics.
        label: String,
    },
}

impl fmt::Display for DpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DpError::InvalidEpsilon { value } => {
                write!(f, "invalid epsilon {value}: must be finite and > 0")
            }
            DpError::InvalidSensitivity { value } => {
                write!(f, "invalid sensitivity {value}: must be finite and > 0")
            }
            DpError::BudgetExhausted {
                requested,
                remaining,
                label,
            } => write!(
                f,
                "budget exhausted at '{label}': requested {requested}, remaining {remaining}"
            ),
            DpError::NonFiniteScale { scale, label } => {
                write!(f, "noise scale {scale} at '{label}' is not finite")
            }
        }
    }
}

impl std::error::Error for DpError {}
