//! # dpod-query
//!
//! Range-query workloads and accuracy evaluation for sanitized frequency
//! matrices (§6.1 of the paper):
//!
//! * [`workload`] — generators for the paper's two query classes: random
//!   shape/size queries and fixed-coverage queries (1 %, 5 %, 10 % of each
//!   dimension's side);
//! * [`metrics`] — mean relative error (Eq. 3) with the standard
//!   denominator smoothing for empty queries, plus distribution summaries;
//! * [`eval`] — the evaluation loop: true answers from a prefix-sum table
//!   over the raw matrix, private answers from a [`SanitizedMatrix`];
//! * [`plan`] — the typed query algebra: a [`QueryPlan`] names a range
//!   sum, OD query, axis marginal, top-k ranking, total, or batch of
//!   those, and [`plan::execute`] answers it against a
//!   [`SanitizedMatrix`]. The serving layer carries the same vocabulary
//!   over both wire encodings.
//! * [`backend`] — the execution backends behind the algebra: the cold
//!   [`ScanBackend`] rescans the dense estimate per aggregate, the
//!   prepared [`ReleaseIndex`] memoizes marginal tables (each with its
//!   own prefix sums), resolution-pyramid levels (for
//!   [`QueryPlan::DrillDown`] routing), the descending cell order, and
//!   the total, so warm aggregate plans skip the rescan entirely —
//!   [`plan::execute_with`] answers bit-identically over either.
//!
//! [`SanitizedMatrix`]: dpod_core::SanitizedMatrix

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod backend;
pub mod eval;
pub mod metrics;
pub mod od;
pub mod plan;
pub mod workload;

pub use backend::{
    IndexCounters, MarginalTable, PlanBackend, PyramidLevel, ReleaseIndex, ScanBackend,
};
pub use eval::{evaluate, EvalReport};
pub use metrics::{MreOptions, SummaryStats};
pub use od::{OdQuery, Region};
pub use plan::{
    merge_window_answers, Answer, EpochSelector, PlanError, QueryPlan, TopCell, WindowMerge,
    PLAN_KINDS,
};
pub use workload::QueryWorkload;
