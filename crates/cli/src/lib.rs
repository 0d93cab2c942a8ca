//! # dpod-cli
//!
//! Library backing the `dpod` command-line tool — the curator/analyst
//! workflow of the paper's system model (Fig. 1) as four commands:
//!
//! ```text
//! dpod generate --city denver --trips 50000 --stops 1 --out trips.csv
//! dpod sanitize --input trips.csv --cells 10 --epsilon 0.5 \
//!               --mechanism daf-entropy --out release.json
//! dpod inspect  --release release.json
//! dpod query    --release release.json --range '0..4,*,3..5,*,*,*'
//! ```
//!
//! Trajectory CSV: one trip per line, `x0,y0,x1,y1,…` unit-square
//! coordinates, origin first, destination last, the same number of points
//! on every line. Releases are [`dpod_core::PublishedRelease`] JSON.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod commands;
pub mod csv;
pub mod rangespec;
pub mod registry;

/// CLI-level error: a message for the user plus a suggestion of usage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(s: String) -> Self {
        CliError(s)
    }
}

impl From<&str> for CliError {
    fn from(s: &str) -> Self {
        CliError(s.to_string())
    }
}

impl From<dpod_serve::wire::WireError> for CliError {
    fn from(e: dpod_serve::wire::WireError) -> Self {
        CliError(e.0)
    }
}
