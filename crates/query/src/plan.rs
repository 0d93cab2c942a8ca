//! The typed query algebra: one analyst vocabulary, every transport.
//!
//! A [`QueryPlan`] names *what* an analyst wants from a sanitized
//! release — a range sum, an OD query composed from spatial regions, an
//! axis marginal, the top-k cells, the total, or a batch of those — and
//! [`execute`] answers it against a
//! [`SanitizedMatrix`]. The serving layer
//! (`dpod-serve`) carries the same two enums over newline-delimited JSON
//! and the `DPRB` binary protocol, so an in-process caller, an NDJSON
//! script, and a binary client all speak — and answer — the identical
//! vocabulary, bit for bit.
//!
//! Execution is two-phase: the executor here owns validation, clamping,
//! answer-size budgeting and answer assembly, while the *numbers* come
//! from a [`PlanBackend`](crate::backend) — either the cold
//! [`ScanBackend`] that rescans the dense
//! estimate per aggregate ([`execute`]), or a prepared
//! [`ReleaseIndex`](crate::backend::ReleaseIndex) whose memoized
//! structures answer warm aggregates in `O(k)`/table-lookup time
//! ([`execute_with`]). Both produce bit-identical answers.
//!
//! Everything a plan can compute is DP post-processing of the released
//! estimate: range sums and totals read the prefix table, OD queries
//! lower to range sums through [`crate::od::OdQuery`], marginals sum the
//! estimate over dropped dimensions
//! ([`DenseMatrix::marginalize`](dpod_fmatrix::DenseMatrix::marginalize)),
//! and top-k ranks released cell estimates. No plan touches raw data.

use crate::backend::{PlanBackend, ScanBackend};
use crate::od::{OdQuery, Region};
use dpod_core::SanitizedMatrix;
use dpod_fmatrix::{AxisBox, Shape};
use serde::{Deserialize, Serialize};

/// Most cells a [`QueryPlan::TopK`] answer will carry, however large a
/// `k` the analyst asks for. Answers are clamped, not refused: `k`
/// beyond the matrix size is already clamped to the cell count, and this
/// cap keeps an adversarial `k` over a huge domain from materializing a
/// multi-gigabyte answer.
pub const MAX_TOP_K: usize = 1 << 20;

/// Most sub-plans one [`QueryPlan::Many`] may carry (plenty for real
/// batches; bounds allocation before execution starts).
pub const MAX_MANY_PLANS: usize = 1 << 16;

/// Most answer cells (f64 values / ranked cells) one [`execute`] call
/// may materialize **across the whole plan tree**. The per-variant caps
/// bound a single leaf, but a `Many` multiplies them — a few hundred
/// thousand `Marginal`/`TopK` sub-plans would otherwise assemble an
/// OOM-scale answer from one accepted request. The budget is charged
/// from cheap pre-execution estimates, so an over-budget plan is
/// refused before any work happens. 16M cells ≈ 128 MB of values —
/// generous for an analyst, survivable for a server.
pub const MAX_ANSWER_CELLS: usize = 1 << 24;

/// A planning or execution failure: a displayable message naming the
/// offending plan fragment. Never a panic — analyst input is untrusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(pub String);

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// One typed analyst query against a sanitized release.
///
/// The plan is *domain-checked at execution time* against the release it
/// runs over; the same plan value can be serialized, shipped over either
/// wire encoding, and executed remotely with identical results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryPlan {
    /// Estimated count inside the half-open box `lo..hi` (Definition 3
    /// of the paper) — the vocabulary the legacy `Query` request spoke.
    Range {
        /// Inclusive lower corner (one entry per dimension).
        lo: Vec<usize>,
        /// Exclusive upper corner.
        hi: Vec<usize>,
    },
    /// An OD query composed from 2-D spatial regions, lowered through
    /// [`OdQuery`]: trips from `origin` to `destination` passing their
    /// indexed intermediate stops through the given regions.
    /// Unconstrained legs span their full extent.
    Od {
        /// Origin region, or any origin when `None`.
        origin: Option<Region>,
        /// `(stop index, region)` constraints on intermediate stops
        /// (0-based; a k-stop release has stops `0..k`).
        stops: Vec<(usize, Region)>,
        /// Destination region, or any destination when `None`.
        destination: Option<Region>,
    },
    /// The marginal over the dimensions in `keep` (strictly increasing),
    /// summing every other dimension out — e.g. `keep: [0, 1]` on a 4-D
    /// OD release is the origin density.
    Marginal {
        /// Dimensions to keep, strictly increasing.
        keep: Vec<usize>,
    },
    /// The `k` cells with the largest released estimates, descending
    /// (ties broken by ascending cell index, so answers are
    /// deterministic). `k` is clamped to the cell count and [`MAX_TOP_K`].
    TopK {
        /// How many cells to return.
        k: usize,
    },
    /// The estimated total count of the release.
    Total,
    /// Several plans answered in order against the same release (one
    /// name resolution, one cache access). `Many` does not nest.
    Many {
        /// The sub-plans, answered in order.
        plans: Vec<QueryPlan>,
    },
    /// One plan fanned across the epochs of a release *series* and
    /// merged: the continual-publication vocabulary ("last 7 days",
    /// "epoch 3 vs 4"). The inner plan runs unchanged against each
    /// selected epoch's release; [`merge_window_answers`] combines the
    /// per-epoch answers per the [`WindowMerge`] op. `Window` does not
    /// nest (inside itself or a [`QueryPlan::Many`]) and is answered by
    /// the serving layer, which owns the epoch catalog — the
    /// single-release executors here refuse it with a descriptive
    /// error.
    Window {
        /// Which epochs of the series to cover.
        select: EpochSelector,
        /// How the per-epoch answers combine.
        merge: WindowMerge,
        /// The plan to run against each selected epoch.
        plan: Box<QueryPlan>,
    },
    /// One plan routed to a coarse *pyramid level* of the release: the
    /// inner plan runs against the level-`level` table (every axis
    /// ceiling-halved `level` times, cells summed from their children —
    /// pure post-processing of the sanitized leaf, zero extra ε, see
    /// [`dpod_fmatrix::coarsen_to_level`]). Level 0 is the leaf itself.
    /// Only [`QueryPlan::Range`], [`QueryPlan::Marginal`] and
    /// [`QueryPlan::Total`] aggregate per-axis and may drill down;
    /// other plans are refused, as is nesting `DrillDown` inside
    /// itself, [`QueryPlan::Many`] or a [`QueryPlan::Window`]'s inner
    /// plan.
    DrillDown {
        /// The pyramid level to answer from (0 = the leaf release).
        level: u32,
        /// The plan to run against the coarse table; its coordinates
        /// (range corners, marginal keep-list) address the *coarse*
        /// domain.
        plan: Box<QueryPlan>,
    },
}

/// Which epochs of a release series a [`QueryPlan::Window`] covers.
///
/// Epoch ids are the monotonic `u64`s assigned at publish time; a
/// selector names ids, and the serving layer intersects it with the
/// epochs that are still live (retention may have expired older ones).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EpochSelector {
    /// Exactly one epoch (an error if it is not live).
    At {
        /// The epoch id.
        epoch: u64,
    },
    /// The `k` most recent live epochs (clamped to however many exist;
    /// `k = 0` is an error).
    LastK {
        /// How many trailing epochs.
        k: u64,
    },
    /// The inclusive id range `from..=to`, intersected with the live
    /// epochs (`from > to` is an error; an empty intersection too).
    Range {
        /// First epoch id, inclusive.
        from: u64,
        /// Last epoch id, inclusive.
        to: u64,
    },
}

/// How a [`QueryPlan::Window`]'s per-epoch answers combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowMerge {
    /// Fold the answers into one: values and marginals sum elementwise
    /// in ascending epoch order, top-k rankings merge as top-k over the
    /// union of surfaced cells (per-cell values summed across the
    /// epochs that surfaced them, re-ranked), `Many` answers merge
    /// positionally.
    Sum,
    /// Keep the per-epoch answers separate: an [`Answer::Epochs`]
    /// carrying one answer per selected epoch, ascending by id.
    PerEpoch,
}

/// Every plan shape's label, indexed by [`QueryPlan::kind_index`].
pub const PLAN_KINDS: [&str; 8] = [
    "range",
    "od",
    "marginal",
    "top_k",
    "total",
    "many",
    "window",
    "drill_down",
];

impl QueryPlan {
    /// Position of the plan's shape in [`PLAN_KINDS`].
    pub fn kind_index(&self) -> usize {
        match self {
            QueryPlan::Range { .. } => 0,
            QueryPlan::Od { .. } => 1,
            QueryPlan::Marginal { .. } => 2,
            QueryPlan::TopK { .. } => 3,
            QueryPlan::Total => 4,
            QueryPlan::Many { .. } => 5,
            QueryPlan::Window { .. } => 6,
            QueryPlan::DrillDown { .. } => 7,
        }
    }

    /// A stable lowercase label for the plan's shape (one of
    /// [`PLAN_KINDS`]), used as the `kind` tag on serving-side metrics —
    /// low-cardinality by construction (one label per variant, never
    /// per plan value).
    pub fn kind(&self) -> &'static str {
        PLAN_KINDS[self.kind_index()]
    }

    /// A full-extent OD plan; chain [`Self::with_origin`] /
    /// [`Self::with_stop`] / [`Self::with_destination`] to constrain legs.
    pub fn od() -> Self {
        QueryPlan::Od {
            origin: None,
            stops: Vec::new(),
            destination: None,
        }
    }

    /// Constrains the origin leg of an [`QueryPlan::Od`] plan.
    ///
    /// # Panics
    /// When `self` is not an `Od` plan (a programming error, not analyst
    /// input — deserialized plans never route here).
    #[must_use]
    pub fn with_origin(mut self, r: Region) -> Self {
        let QueryPlan::Od { origin, .. } = &mut self else {
            panic!("with_origin on a non-Od plan");
        };
        *origin = Some(r);
        self
    }

    /// Constrains the destination leg of an [`QueryPlan::Od`] plan.
    ///
    /// # Panics
    /// As for [`Self::with_origin`].
    #[must_use]
    pub fn with_destination(mut self, r: Region) -> Self {
        let QueryPlan::Od { destination, .. } = &mut self else {
            panic!("with_destination on a non-Od plan");
        };
        *destination = Some(r);
        self
    }

    /// Constrains intermediate stop `index` of an [`QueryPlan::Od`] plan.
    ///
    /// # Panics
    /// As for [`Self::with_origin`].
    #[must_use]
    pub fn with_stop(mut self, index: usize, r: Region) -> Self {
        let QueryPlan::Od { stops, .. } = &mut self else {
            panic!("with_stop on a non-Od plan");
        };
        stops.push((index, r));
        self
    }
}

/// One cell of a [`Answer::TopK`] ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopCell {
    /// Cell coordinates, one entry per dimension.
    pub coords: Vec<usize>,
    /// The released estimate at that cell.
    pub value: f64,
}

/// The answer to one [`QueryPlan`], variant-matched to the plan shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Answer {
    /// A single estimated count ([`QueryPlan::Range`], [`QueryPlan::Od`],
    /// [`QueryPlan::Total`]).
    Value {
        /// The estimated count.
        value: f64,
    },
    /// A marginal table ([`QueryPlan::Marginal`]): the kept dimensions'
    /// cardinalities and the row-major flattened estimates.
    Marginal {
        /// Cardinality of each kept dimension, in `keep` order.
        dims: Vec<usize>,
        /// Row-major marginal estimates (`dims.iter().product()` values).
        values: Vec<f64>,
    },
    /// The top-k ranking ([`QueryPlan::TopK`]), descending by value.
    /// `dims` carries the release's domain so cell coordinates are
    /// interpretable (and so the wire encoding can pack cells as flat
    /// indices).
    TopK {
        /// Domain cardinalities of the queried release.
        dims: Vec<usize>,
        /// The ranked cells, descending by value, ties by cell index.
        cells: Vec<TopCell>,
    },
    /// Answers to [`QueryPlan::Many`], in plan order.
    Many {
        /// One answer per sub-plan.
        answers: Vec<Answer>,
    },
    /// Per-epoch answers to a [`QueryPlan::Window`] with
    /// [`WindowMerge::PerEpoch`]: one answer per selected epoch,
    /// ascending by id.
    Epochs {
        /// The selected epoch ids, ascending.
        epochs: Vec<u64>,
        /// One answer per epoch, in the same order.
        answers: Vec<Answer>,
    },
}

impl Answer {
    /// How many queries this answer represents (for serving-side
    /// counters): one per leaf, summed through [`Answer::Many`] and
    /// [`Answer::Epochs`].
    pub fn units(&self) -> u64 {
        match self {
            Answer::Many { answers } | Answer::Epochs { answers, .. } => {
                answers.iter().map(Answer::units).sum()
            }
            _ => 1,
        }
    }
}

/// Answers `plan` against `matrix` through the cold
/// [`ScanBackend`] (no preparation, every aggregate rescans the dense
/// estimate). Pure post-processing; never panics on analyst input —
/// every invalid plan is a descriptive [`PlanError`].
///
/// # Errors
/// [`PlanError`] for out-of-domain ranges, OD plans on non-OD domains or
/// with invalid stop indices, bad marginal keep-lists, nested
/// [`QueryPlan::Many`], and plan trees whose total answer size would
/// exceed [`MAX_ANSWER_CELLS`].
pub fn execute(matrix: &SanitizedMatrix, plan: &QueryPlan) -> Result<Answer, PlanError> {
    execute_with(&ScanBackend::new(matrix), plan)
}

/// Answers `plan` through any [`PlanBackend`] — the second phase of
/// prepare/execute. Pass a
/// [`ReleaseIndex`](crate::backend::ReleaseIndex) prepared for the
/// release to answer warm aggregates without rescans; answers are
/// bit-identical to [`execute`] whichever backend is used.
///
/// # Errors
/// As for [`execute`].
pub fn execute_with<B: PlanBackend>(backend: &B, plan: &QueryPlan) -> Result<Answer, PlanError> {
    match plan {
        QueryPlan::Many { plans } => {
            if plans.len() > MAX_MANY_PLANS {
                return Err(PlanError(format!(
                    "Many carries {} plans, limit {MAX_MANY_PLANS}",
                    plans.len()
                )));
            }
            // Refuse over-budget trees before any leaf runs: the
            // estimates are O(plan size) to compute, the answers are not.
            let matrix = backend.matrix();
            let mut budget = 0usize;
            for (i, sub) in plans.iter().enumerate() {
                if matches!(sub, QueryPlan::Many { .. }) {
                    return Err(PlanError(format!("plan {i}: Many plans cannot nest")));
                }
                if matches!(sub, QueryPlan::Window { .. }) {
                    return Err(PlanError(format!(
                        "plan {i}: Window plans select epochs at the top level \
                         and cannot ride inside Many"
                    )));
                }
                if matches!(sub, QueryPlan::DrillDown { .. }) {
                    return Err(PlanError(format!(
                        "plan {i}: DrillDown plans select a pyramid level at \
                         the top level and cannot ride inside Many"
                    )));
                }
                budget = budget.saturating_add(answer_cells_estimate(matrix, sub));
                if budget > MAX_ANSWER_CELLS {
                    return Err(PlanError(format!(
                        "plan would answer with more than {MAX_ANSWER_CELLS} cells \
                         (exceeded at sub-plan {i})"
                    )));
                }
            }
            let mut answers = Vec::with_capacity(plans.len());
            for sub in plans {
                answers.push(execute_leaf(backend, sub)?);
            }
            Ok(Answer::Many { answers })
        }
        leaf => execute_leaf(backend, leaf),
    }
}

/// Cheap upper bound on the cells a leaf's answer will carry. A single
/// leaf is inherently bounded (a marginal by the release's own size, a
/// top-k by [`MAX_TOP_K`]); the estimate exists so [`execute`] can
/// refuse a `Many` that would *multiply* those bounds. Invalid leaves
/// estimate low — they fail with their own descriptive error anyway.
fn answer_cells_estimate(matrix: &SanitizedMatrix, plan: &QueryPlan) -> usize {
    match plan {
        QueryPlan::Range { .. } | QueryPlan::Od { .. } | QueryPlan::Total => 1,
        // A ranked cell is a coords vector plus its value — charge
        // `ndim + 1` cells each, or a Many of max-k TopK leaves would
        // slip a multi-gigabyte answer under a budget calibrated for
        // bare f64 cells.
        QueryPlan::TopK { k } => (*k)
            .min(matrix.matrix().len())
            .min(MAX_TOP_K)
            .saturating_mul(matrix.matrix().ndim() + 1),
        QueryPlan::Marginal { keep } => {
            let shape = matrix.matrix().shape();
            keep.iter()
                .map(|&d| if d < shape.ndim() { shape.dim(d) } else { 1 })
                .fold(1usize, usize::saturating_mul)
        }
        // All three are rejected before estimation (none nests in Many).
        QueryPlan::Many { .. } | QueryPlan::Window { .. } | QueryPlan::DrillDown { .. } => 0,
    }
}

/// Merges one answer per epoch into a [`QueryPlan::Window`]'s final
/// answer. Pure, deterministic post-processing: `epochs` must be the
/// selected ids ascending, `answers` the matching per-epoch answers in
/// the same order, and the result is a pure function of those inputs —
/// which is what makes a memoized incremental merge bit-identical to a
/// from-scratch rescan.
///
/// [`WindowMerge::PerEpoch`] zips the inputs into [`Answer::Epochs`].
/// [`WindowMerge::Sum`] folds in ascending epoch order:
///
/// * values sum left to right;
/// * marginals sum elementwise (their `dims` must agree);
/// * top-k rankings become top-k over the union — each surfaced cell's
///   value is summed across the epochs that surfaced it (ascending), the
///   union re-ranked by value descending with ties broken by ascending
///   cell index, and truncated to the per-epoch ranking length;
/// * `Many` answers merge positionally (arities must agree).
///
/// # Errors
/// [`PlanError`] when the inputs are empty or mismatched (unequal
/// lengths, incompatible shapes across epochs).
pub fn merge_window_answers(
    merge: WindowMerge,
    epochs: &[u64],
    answers: Vec<Answer>,
) -> Result<Answer, PlanError> {
    if epochs.is_empty() {
        return Err(PlanError("window selected no epochs".to_string()));
    }
    if epochs.len() != answers.len() {
        return Err(PlanError(format!(
            "window merge got {} epochs but {} answers",
            epochs.len(),
            answers.len()
        )));
    }
    match merge {
        WindowMerge::PerEpoch => Ok(Answer::Epochs {
            epochs: epochs.to_vec(),
            answers,
        }),
        WindowMerge::Sum => {
            let mut merged: Option<Answer> = None;
            for answer in answers {
                merged = Some(match merged {
                    None => answer,
                    Some(acc) => sum_answers(acc, answer)?,
                });
            }
            Ok(merged.expect("answers checked non-empty"))
        }
    }
}

/// One step of the [`WindowMerge::Sum`] left fold: `acc` holds the
/// merge of the earlier epochs, `next` the following epoch's answer.
fn sum_answers(acc: Answer, next: Answer) -> Result<Answer, PlanError> {
    match (acc, next) {
        (Answer::Value { value: a }, Answer::Value { value: b }) => {
            Ok(Answer::Value { value: a + b })
        }
        (
            Answer::Marginal {
                dims: da,
                values: mut va,
            },
            Answer::Marginal {
                dims: db,
                values: vb,
            },
        ) => {
            if da != db {
                return Err(PlanError(format!(
                    "marginal dims differ across epochs: {da:?} vs {db:?}"
                )));
            }
            for (a, b) in va.iter_mut().zip(&vb) {
                *a += b;
            }
            Ok(Answer::Marginal {
                dims: da,
                values: va,
            })
        }
        (
            Answer::TopK {
                dims: da,
                cells: ca,
            },
            Answer::TopK {
                dims: db,
                cells: cb,
            },
        ) => {
            if da != db {
                return Err(PlanError(format!(
                    "top-k dims differ across epochs: {da:?} vs {db:?}"
                )));
            }
            // Union keyed by flat index (a BTreeMap, so accumulation
            // order is deterministic whatever order the inputs listed
            // cells in); later epochs fold onto earlier sums.
            let k = ca.len().max(cb.len());
            let mut union: std::collections::BTreeMap<usize, TopCell> = ca
                .into_iter()
                .map(|c| (flat_index(&da, &c.coords), c))
                .collect();
            for cell in cb {
                let idx = flat_index(&da, &cell.coords);
                match union.entry(idx) {
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        e.get_mut().value += cell.value;
                    }
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(cell);
                    }
                }
            }
            // Re-rank the union with the executor's own ordering (value
            // descending, ties by ascending cell index) and truncate
            // back to the ranking length.
            let mut ranked: Vec<(usize, TopCell)> = union.into_iter().collect();
            ranked.sort_by(|(ia, a), (ib, b)| b.value.total_cmp(&a.value).then_with(|| ia.cmp(ib)));
            ranked.truncate(k);
            Ok(Answer::TopK {
                dims: da,
                cells: ranked.into_iter().map(|(_, c)| c).collect(),
            })
        }
        (Answer::Many { answers: aa }, Answer::Many { answers: ab }) => {
            if aa.len() != ab.len() {
                return Err(PlanError(format!(
                    "Many arity differs across epochs: {} vs {}",
                    aa.len(),
                    ab.len()
                )));
            }
            let answers = aa
                .into_iter()
                .zip(ab)
                .map(|(a, b)| sum_answers(a, b))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Answer::Many { answers })
        }
        (a, b) => Err(PlanError(format!(
            "cannot sum mismatched answer shapes across epochs \
             ({} vs {})",
            answer_shape(&a),
            answer_shape(&b)
        ))),
    }
}

/// Stable label for an answer's shape, for merge error messages.
fn answer_shape(a: &Answer) -> &'static str {
    match a {
        Answer::Value { .. } => "value",
        Answer::Marginal { .. } => "marginal",
        Answer::TopK { .. } => "top_k",
        Answer::Many { .. } => "many",
        Answer::Epochs { .. } => "epochs",
    }
}

/// Row-major flat index of `coords` in a domain of `dims` (the tie-break
/// key top-k rankings sort by).
fn flat_index(dims: &[usize], coords: &[usize]) -> usize {
    dims.iter()
        .zip(coords)
        .fold(0usize, |acc, (&d, &c)| acc * d + c)
}

fn execute_leaf<B: PlanBackend>(backend: &B, plan: &QueryPlan) -> Result<Answer, PlanError> {
    let matrix = backend.matrix();
    match plan {
        QueryPlan::Range { lo, hi } => {
            let q = range_box(matrix.matrix().shape(), lo, hi)?;
            Ok(Answer::Value {
                value: matrix.range_sum(&q),
            })
        }
        QueryPlan::Od {
            origin,
            stops,
            destination,
        } => {
            let shape = matrix.matrix().shape();
            let mut od = OdQuery::new(shape).map_err(|_| {
                PlanError(format!(
                    "OD plans need an even-dimensional (≥ 4) domain, release has {:?}",
                    shape.dims()
                ))
            })?;
            let num_stops = od.num_legs() - 2;
            if let Some(r) = origin {
                od = od.origin(*r);
            }
            if let Some(r) = destination {
                od = od.destination(*r);
            }
            for &(index, r) in stops {
                if index >= num_stops {
                    return Err(PlanError(format!(
                        "stop index {index} out of range: release has {num_stops} stop leg(s)"
                    )));
                }
                od = od.stop(index, r);
            }
            let q = od
                .build()
                .map_err(|e| PlanError(format!("bad OD plan: {e}")))?;
            Ok(Answer::Value {
                value: matrix.range_sum(&q),
            })
        }
        QueryPlan::Marginal { keep } => {
            let (dims, values) = backend.marginal(keep)?;
            Ok(Answer::Marginal { dims, values })
        }
        QueryPlan::TopK { k } => {
            let m = matrix.matrix();
            let k = (*k).min(m.len()).min(MAX_TOP_K);
            Ok(Answer::TopK {
                dims: m.shape().dims().to_vec(),
                cells: backend.top_k(k),
            })
        }
        QueryPlan::Total => Ok(Answer::Value {
            value: backend.total(),
        }),
        QueryPlan::Window { .. } => Err(PlanError(
            "Window plans fan across a release series' epochs and are \
             answered by the serving layer; this release is a single \
             epoch"
                .to_string(),
        )),
        QueryPlan::DrillDown { level, plan } => {
            match plan.as_ref() {
                QueryPlan::Range { .. } | QueryPlan::Marginal { .. } | QueryPlan::Total => {}
                QueryPlan::DrillDown { .. } => {
                    return Err(PlanError("DrillDown plans cannot nest".to_string()));
                }
                other => {
                    return Err(PlanError(format!(
                        "DrillDown coarsens per-axis aggregates only (Range, \
                         Marginal, Total); {} plans cannot drill down",
                        other.kind()
                    )));
                }
            }
            // Level 0 *is* the leaf: route straight to the plain leaf
            // path, so `DrillDown { level: 0, plan }` ≡ `plan` bitwise
            // without materializing a leaf copy.
            if *level == 0 {
                return execute_leaf(backend, plan);
            }
            let lvl = backend.pyramid_level(*level)?;
            match plan.as_ref() {
                QueryPlan::Range { lo, hi } => {
                    let q = range_box(lvl.shape(), lo, hi)?;
                    Ok(Answer::Value {
                        value: lvl.box_sum(&q),
                    })
                }
                QueryPlan::Marginal { keep } => {
                    let (dims, values) = lvl.marginal(keep)?;
                    Ok(Answer::Marginal { dims, values })
                }
                QueryPlan::Total => Ok(Answer::Value { value: lvl.total() }),
                _ => unreachable!("inner kind validated above"),
            }
        }
        QueryPlan::Many { .. } => unreachable!("handled by execute_with"),
    }
}

/// Validates a `lo..hi` range against a domain — the leaf's, or a
/// pyramid level's (the same checks the legacy serving path applies).
fn range_box(shape: &Shape, lo: &[usize], hi: &[usize]) -> Result<AxisBox, PlanError> {
    let q =
        AxisBox::new(lo.to_vec(), hi.to_vec()).map_err(|e| PlanError(format!("bad range: {e}")))?;
    if q.ndim() != shape.ndim() || !q.fits(shape) {
        return Err(PlanError(format!(
            "range {:?}..{:?} does not fit domain {:?}",
            q.lo(),
            q.hi(),
            shape.dims()
        )));
    }
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_fmatrix::{DenseMatrix, Shape};

    /// A deterministic 4-D "sanitized" matrix: cell value = flat index.
    fn od_matrix(side: usize) -> SanitizedMatrix {
        let shape = Shape::cube(4, side).unwrap();
        let values: Vec<f64> = (0..shape.size()).map(|i| i as f64).collect();
        let m = DenseMatrix::from_vec(shape, values).unwrap();
        SanitizedMatrix::from_entries("test", 1.0, m)
    }

    fn flat_2d(side: usize, values: Vec<f64>) -> SanitizedMatrix {
        let m = DenseMatrix::from_vec(Shape::new(vec![side, side]).unwrap(), values).unwrap();
        SanitizedMatrix::from_entries("test", 1.0, m)
    }

    #[test]
    fn range_matches_range_sum() {
        let m = od_matrix(4);
        let plan = QueryPlan::Range {
            lo: vec![0, 0, 0, 0],
            hi: vec![2, 2, 2, 2],
        };
        let Answer::Value { value } = execute(&m, &plan).unwrap() else {
            panic!("expected value");
        };
        let q = AxisBox::new(vec![0, 0, 0, 0], vec![2, 2, 2, 2]).unwrap();
        assert_eq!(value.to_bits(), m.range_sum(&q).to_bits());
    }

    #[test]
    fn range_rejects_bad_domains() {
        let m = od_matrix(4);
        for (lo, hi) in [
            (vec![0, 0], vec![2, 2]),             // wrong arity
            (vec![0, 0, 0, 0], vec![5, 2, 2, 2]), // out of domain
            (vec![3, 0, 0, 0], vec![1, 2, 2, 2]), // inverted
        ] {
            assert!(execute(&m, &QueryPlan::Range { lo, hi }).is_err());
        }
    }

    #[test]
    fn od_lowers_through_builder() {
        let m = od_matrix(4);
        let plan = QueryPlan::od()
            .with_origin(Region::new((0, 0), (2, 2)))
            .with_destination(Region::new((1, 1), (3, 3)));
        let Answer::Value { value } = execute(&m, &plan).unwrap() else {
            panic!("expected value");
        };
        let q = OdQuery::new(m.matrix().shape())
            .unwrap()
            .origin(Region::new((0, 0), (2, 2)))
            .destination(Region::new((1, 1), (3, 3)))
            .build()
            .unwrap();
        assert_eq!(value.to_bits(), m.range_sum(&q).to_bits());
    }

    #[test]
    fn od_rejects_bad_plans() {
        // Odd-dimensional release: no OD structure.
        let flat = flat_2d(2, vec![0.0, 1.0, 2.0, 3.0]);
        assert!(execute(&flat, &QueryPlan::od()).is_err());
        // Stop index out of range on a stopless (4-D) release.
        let m = od_matrix(4);
        let plan = QueryPlan::od().with_stop(0, Region::new((0, 0), (1, 1)));
        let err = execute(&m, &plan).unwrap_err();
        assert!(err.0.contains("stop index"), "{err}");
        // Region beyond the grid.
        let plan = QueryPlan::od().with_origin(Region::new((0, 0), (9, 9)));
        assert!(execute(&m, &plan).is_err());
    }

    #[test]
    fn marginal_matches_dense_marginalize() {
        let m = od_matrix(3);
        let plan = QueryPlan::Marginal { keep: vec![0, 1] };
        let Answer::Marginal { dims, values } = execute(&m, &plan).unwrap() else {
            panic!("expected marginal");
        };
        assert_eq!(dims, vec![3, 3]);
        let expect = m.matrix().marginalize(&[0, 1]).unwrap();
        assert_eq!(values, expect.as_slice());
        // Bad keep lists are errors, not panics.
        assert!(execute(&m, &QueryPlan::Marginal { keep: vec![] }).is_err());
        assert!(execute(&m, &QueryPlan::Marginal { keep: vec![1, 0] }).is_err());
        assert!(execute(&m, &QueryPlan::Marginal { keep: vec![7] }).is_err());
    }

    #[test]
    fn top_k_ranks_descending_with_deterministic_ties() {
        let m = flat_2d(2, vec![1.0, 7.0, 7.0, -2.0]);
        let Answer::TopK { dims, cells } = execute(&m, &QueryPlan::TopK { k: 3 }).unwrap() else {
            panic!("expected top-k");
        };
        assert_eq!(dims, vec![2, 2]);
        let got: Vec<(Vec<usize>, f64)> = cells.into_iter().map(|c| (c.coords, c.value)).collect();
        // Tie between cells 1 and 2 resolves by ascending index.
        assert_eq!(
            got,
            vec![(vec![0, 1], 7.0), (vec![1, 0], 7.0), (vec![0, 0], 1.0),]
        );
    }

    #[test]
    fn top_k_clamps_oversized_k() {
        let m = flat_2d(2, vec![1.0, 2.0, 3.0, 4.0]);
        let Answer::TopK { cells, .. } = execute(&m, &QueryPlan::TopK { k: usize::MAX }).unwrap()
        else {
            panic!("expected top-k");
        };
        assert_eq!(cells.len(), 4);
        let Answer::TopK { cells, .. } = execute(&m, &QueryPlan::TopK { k: 0 }).unwrap() else {
            panic!("expected top-k");
        };
        assert!(cells.is_empty());
    }

    #[test]
    fn total_and_many_compose() {
        let m = od_matrix(2);
        let plan = QueryPlan::Many {
            plans: vec![
                QueryPlan::Total,
                QueryPlan::TopK { k: 1 },
                QueryPlan::Marginal { keep: vec![0] },
            ],
        };
        let answer = execute(&m, &plan).unwrap();
        assert_eq!(answer.units(), 3);
        let Answer::Many { answers } = answer else {
            panic!("expected many");
        };
        assert_eq!(answers.len(), 3);
        let Answer::Value { value } = &answers[0] else {
            panic!("expected total value");
        };
        assert_eq!(value.to_bits(), m.total().to_bits());
    }

    #[test]
    fn many_refuses_over_budget_answer_trees() {
        // 6^4 = 1296 cells; a full-keep marginal answers with all of
        // them, so ~13k sub-plans blow the 2^24-cell aggregate budget.
        let shape = Shape::cube(4, 6).unwrap();
        let m = SanitizedMatrix::from_entries(
            "test",
            1.0,
            DenseMatrix::from_vec(shape.clone(), vec![0.0; shape.size()]).unwrap(),
        );
        let leaves = MAX_ANSWER_CELLS / shape.size() + 1;
        assert!(leaves < MAX_MANY_PLANS);
        let plan = QueryPlan::Many {
            plans: vec![
                QueryPlan::Marginal {
                    keep: vec![0, 1, 2, 3],
                };
                leaves
            ],
        };
        let err = execute(&m, &plan).unwrap_err();
        assert!(err.0.contains("cells"), "{err}");
        // TopK leaves charge their coords vectors too (k·(ndim+1)), so
        // far fewer of them hit the same budget.
        let topk_leaves = MAX_ANSWER_CELLS / (shape.size() * (shape.ndim() + 1)) + 1;
        let plan = QueryPlan::Many {
            plans: vec![QueryPlan::TopK { k: shape.size() }; topk_leaves],
        };
        let err = execute(&m, &plan).unwrap_err();
        assert!(err.0.contains("cells"), "{err}");
        // The same leaf count of scalar plans is fine.
        let plan = QueryPlan::Many {
            plans: vec![QueryPlan::Total; leaves],
        };
        assert!(execute(&m, &plan).is_ok());
    }

    #[test]
    fn many_does_not_nest() {
        let m = od_matrix(2);
        let plan = QueryPlan::Many {
            plans: vec![QueryPlan::Many { plans: vec![] }],
        };
        let err = execute(&m, &plan).unwrap_err();
        assert!(err.0.contains("nest"), "{err}");
    }

    #[test]
    fn drill_down_matches_coarsened_release_execution() {
        use dpod_fmatrix::coarsen_to_level;
        // Fractional, signed values so f64 addition order matters.
        let shape = Shape::cube(4, 4).unwrap();
        let values: Vec<f64> = (0..shape.size())
            .map(|i| ((i * 2_654_435_761) % 1_000) as f64 / 7.0 - 60.0)
            .collect();
        let m = SanitizedMatrix::from_entries(
            "test",
            1.0,
            DenseMatrix::from_vec(shape, values).unwrap(),
        );
        for level in 0..=2u32 {
            let side = 4usize >> level;
            let inners = vec![
                QueryPlan::Total,
                QueryPlan::Marginal { keep: vec![0, 1] },
                QueryPlan::Range {
                    lo: vec![0; 4],
                    hi: vec![side.max(1); 4],
                },
            ];
            for inner in inners {
                let routed = execute(
                    &m,
                    &QueryPlan::DrillDown {
                        level,
                        plan: Box::new(inner.clone()),
                    },
                )
                .unwrap();
                // The correctness contract: routing must be bit-identical
                // to coarsening the leaf and executing there.
                let coarse = SanitizedMatrix::from_entries(
                    "test",
                    1.0,
                    coarsen_to_level(m.matrix(), level).unwrap(),
                );
                let reference = execute(&coarse, &inner).unwrap();
                match (&routed, &reference) {
                    (Answer::Value { value: a }, Answer::Value { value: b }) => {
                        assert_eq!(a.to_bits(), b.to_bits(), "level {level} {inner:?}");
                    }
                    (
                        Answer::Marginal {
                            dims: da,
                            values: va,
                        },
                        Answer::Marginal {
                            dims: db,
                            values: vb,
                        },
                    ) => {
                        assert_eq!(da, db, "level {level}");
                        for (a, b) in va.iter().zip(vb) {
                            assert_eq!(a.to_bits(), b.to_bits(), "level {level}");
                        }
                    }
                    other => panic!("mismatched answer shapes: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn drill_down_validates_levels_and_inner_plans() {
        let m = od_matrix(4); // 4^4 domain, pyramid root = level 2
        let err = execute(
            &m,
            &QueryPlan::DrillDown {
                level: 3,
                plan: Box::new(QueryPlan::Total),
            },
        )
        .unwrap_err();
        assert!(err.0.contains("exceeds the pyramid root"), "{err}");
        // DrillDown cannot nest inside itself…
        let err = execute(
            &m,
            &QueryPlan::DrillDown {
                level: 1,
                plan: Box::new(QueryPlan::DrillDown {
                    level: 1,
                    plan: Box::new(QueryPlan::Total),
                }),
            },
        )
        .unwrap_err();
        assert!(err.0.contains("cannot nest"), "{err}");
        // …nor inside Many…
        let err = execute(
            &m,
            &QueryPlan::Many {
                plans: vec![QueryPlan::DrillDown {
                    level: 1,
                    plan: Box::new(QueryPlan::Total),
                }],
            },
        )
        .unwrap_err();
        assert!(err.0.contains("cannot ride inside Many"), "{err}");
        // …and only per-axis aggregates may drill down.
        for inner in [
            QueryPlan::TopK { k: 3 },
            QueryPlan::od(),
            QueryPlan::Many { plans: vec![] },
            QueryPlan::Window {
                select: EpochSelector::LastK { k: 1 },
                merge: WindowMerge::Sum,
                plan: Box::new(QueryPlan::Total),
            },
        ] {
            let err = execute(
                &m,
                &QueryPlan::DrillDown {
                    level: 1,
                    plan: Box::new(inner),
                },
            )
            .unwrap_err();
            assert!(err.0.contains("cannot drill down"), "{err}");
        }
        // Coarse coordinates are validated against the coarse domain:
        // [0,4) fits the leaf but not level 1 ([2,2,2,2]).
        let err = execute(
            &m,
            &QueryPlan::DrillDown {
                level: 1,
                plan: Box::new(QueryPlan::Range {
                    lo: vec![0; 4],
                    hi: vec![4; 4],
                }),
            },
        )
        .unwrap_err();
        assert!(err.0.contains("does not fit domain [2, 2, 2, 2]"), "{err}");
    }

    #[test]
    fn single_release_executors_refuse_window_plans() {
        let m = od_matrix(2);
        let window = QueryPlan::Window {
            select: EpochSelector::LastK { k: 3 },
            merge: WindowMerge::Sum,
            plan: Box::new(QueryPlan::Total),
        };
        let err = execute(&m, &window).unwrap_err();
        assert!(err.0.contains("serving layer"), "{err}");
        // …and Window cannot ride inside Many either.
        let err = execute(
            &m,
            &QueryPlan::Many {
                plans: vec![window],
            },
        )
        .unwrap_err();
        assert!(err.0.contains("Many"), "{err}");
    }

    #[test]
    fn window_sum_merge_folds_values_and_marginals() {
        let epochs = [3u64, 4, 5];
        let answers = vec![
            Answer::Value { value: 1.5 },
            Answer::Value { value: 2.25 },
            Answer::Value { value: -0.5 },
        ];
        let merged = merge_window_answers(WindowMerge::Sum, &epochs, answers).unwrap();
        let Answer::Value { value } = merged else {
            panic!("expected value");
        };
        // Left fold in ascending epoch order, bit for bit.
        assert_eq!(value.to_bits(), ((1.5 + 2.25) + -0.5f64).to_bits());

        let answers = vec![
            Answer::Marginal {
                dims: vec![2],
                values: vec![1.0, 2.0],
            },
            Answer::Marginal {
                dims: vec![2],
                values: vec![0.5, -1.0],
            },
        ];
        let merged = merge_window_answers(WindowMerge::Sum, &epochs[..2], answers).unwrap();
        assert_eq!(
            merged,
            Answer::Marginal {
                dims: vec![2],
                values: vec![1.5, 1.0],
            }
        );
    }

    #[test]
    fn window_sum_merge_ranks_top_k_over_the_union() {
        let a = Answer::TopK {
            dims: vec![2, 2],
            cells: vec![
                TopCell {
                    coords: vec![0, 0],
                    value: 5.0,
                },
                TopCell {
                    coords: vec![1, 1],
                    value: 3.0,
                },
            ],
        };
        let b = Answer::TopK {
            dims: vec![2, 2],
            cells: vec![
                TopCell {
                    coords: vec![0, 1],
                    value: 4.0,
                },
                TopCell {
                    coords: vec![1, 1],
                    value: 2.0,
                },
            ],
        };
        let merged = merge_window_answers(WindowMerge::Sum, &[1, 2], vec![a, b]).unwrap();
        let Answer::TopK { dims, cells } = merged else {
            panic!("expected top-k");
        };
        assert_eq!(dims, vec![2, 2]);
        // Cell (1,1) surfaced in both epochs (3+2=5), tying with (0,0)'s
        // 5.0 — the tie resolves by ascending cell index. (0,1)'s 4.0 is
        // squeezed out by the k=2 truncation.
        let got: Vec<(Vec<usize>, f64)> = cells.into_iter().map(|c| (c.coords, c.value)).collect();
        assert_eq!(got, vec![(vec![0, 0], 5.0), (vec![1, 1], 5.0)]);
    }

    #[test]
    fn window_merge_validates_inputs() {
        // Empty selection, length mismatch, shape mismatch, dims drift.
        assert!(merge_window_answers(WindowMerge::Sum, &[], vec![]).is_err());
        assert!(merge_window_answers(
            WindowMerge::Sum,
            &[1, 2],
            vec![Answer::Value { value: 0.0 }]
        )
        .is_err());
        assert!(merge_window_answers(
            WindowMerge::Sum,
            &[1, 2],
            vec![
                Answer::Value { value: 0.0 },
                Answer::Many { answers: vec![] }
            ]
        )
        .is_err());
        assert!(merge_window_answers(
            WindowMerge::Sum,
            &[1, 2],
            vec![
                Answer::Marginal {
                    dims: vec![2],
                    values: vec![0.0, 0.0]
                },
                Answer::Marginal {
                    dims: vec![3],
                    values: vec![0.0, 0.0, 0.0]
                }
            ]
        )
        .is_err());
        // Many answers merge positionally and recursively.
        let merged = merge_window_answers(
            WindowMerge::Sum,
            &[1, 2],
            vec![
                Answer::Many {
                    answers: vec![Answer::Value { value: 1.0 }],
                },
                Answer::Many {
                    answers: vec![Answer::Value { value: 2.0 }],
                },
            ],
        )
        .unwrap();
        assert_eq!(
            merged,
            Answer::Many {
                answers: vec![Answer::Value { value: 3.0 }]
            }
        );
    }

    #[test]
    fn window_per_epoch_merge_keeps_answers_apart() {
        let answers = vec![Answer::Value { value: 1.0 }, Answer::Value { value: 2.0 }];
        let merged = merge_window_answers(WindowMerge::PerEpoch, &[7, 9], answers.clone()).unwrap();
        assert_eq!(
            merged,
            Answer::Epochs {
                epochs: vec![7, 9],
                answers
            }
        );
        assert_eq!(merged.units(), 2);
    }

    #[test]
    fn plans_and_answers_round_trip_as_json() {
        let plans = vec![
            QueryPlan::Range {
                lo: vec![0, 0],
                hi: vec![4, 4],
            },
            QueryPlan::od()
                .with_origin(Region::new((0, 0), (2, 2)))
                .with_stop(0, Region::new((1, 1), (2, 2))),
            QueryPlan::Marginal { keep: vec![0, 2] },
            QueryPlan::TopK { k: 5 },
            QueryPlan::Total,
            QueryPlan::Many {
                plans: vec![QueryPlan::Total, QueryPlan::TopK { k: 1 }],
            },
            QueryPlan::Window {
                select: EpochSelector::LastK { k: 7 },
                merge: WindowMerge::Sum,
                plan: Box::new(QueryPlan::Total),
            },
            QueryPlan::Window {
                select: EpochSelector::Range { from: 2, to: 5 },
                merge: WindowMerge::PerEpoch,
                plan: Box::new(QueryPlan::Marginal { keep: vec![0, 1] }),
            },
            QueryPlan::Window {
                select: EpochSelector::At { epoch: 3 },
                merge: WindowMerge::Sum,
                plan: Box::new(QueryPlan::TopK { k: 4 }),
            },
            QueryPlan::DrillDown {
                level: 3,
                plan: Box::new(QueryPlan::Marginal { keep: vec![0, 1] }),
            },
        ];
        for plan in &plans {
            let line = serde_json::to_string(plan).unwrap();
            assert!(!line.contains('\n'), "{line}");
            let back: QueryPlan = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, plan);
        }
        let answers = vec![
            Answer::Value { value: -1.25 },
            Answer::Marginal {
                dims: vec![2],
                values: vec![0.5, -0.5],
            },
            Answer::TopK {
                dims: vec![2, 2],
                cells: vec![TopCell {
                    coords: vec![1, 0],
                    value: 3.5,
                }],
            },
            Answer::Many {
                answers: vec![Answer::Value { value: 0.0 }],
            },
            Answer::Epochs {
                epochs: vec![4, 5, 6],
                answers: vec![
                    Answer::Value { value: 1.0 },
                    Answer::Value { value: 2.0 },
                    Answer::Value { value: 3.0 },
                ],
            },
        ];
        for answer in &answers {
            let line = serde_json::to_string(answer).unwrap();
            let back: Answer = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, answer);
        }
    }
}
