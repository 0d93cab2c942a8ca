//! Execution backends: *where* a [`QueryPlan`](crate::QueryPlan) gets
//! its numbers from.
//!
//! The executor in [`crate::plan`] is generic over a [`PlanBackend`] —
//! the small vocabulary of primitive lookups a plan decomposes into
//! (range sums, the total, one marginal table, the top-k ranking). Two
//! backends implement it:
//!
//! * [`ScanBackend`] — the cold path: every aggregate rescans the dense
//!   estimate of a [`SanitizedMatrix`]. Zero setup cost, `O(domain)`
//!   per marginal/top-k plan. This is what `plan::execute` uses.
//! * [`ReleaseIndex`] — the prepared path: a per-release structure that
//!   memoizes each aggregate the first time a plan touches it. Sanitized
//!   releases are static between publishes, so every derived statistic
//!   is pure DP post-processing that can be computed once: marginal
//!   tables are cached per kept-dim set (each with its own
//!   [`PrefixSum`], so *marginal range* sums are `O(2^d)` too), the
//!   descending cell order is sorted once (top-k is `O(k)` after first
//!   touch), and the total is cached. Warm plans run orders of
//!   magnitude faster than a rescan.
//!
//! Both backends are **bit-identical**: a marginal is memoized as the
//! very `Vec<f64>` the scan path computes, the cell order uses the same
//! `total_cmp`-then-index comparator, and the cached total is the same
//! prefix-table lookup — so `execute` and `execute_with(&index, …)`
//! agree to the last bit on every plan (a property test in `dpod-serve`
//! pins this across all three transports).

use crate::plan::{PlanError, TopCell};
use dpod_core::SanitizedMatrix;
use dpod_fmatrix::{coarsen_to_level, AxisBox, DenseMatrix, PrefixSum, Shape};
use dpod_obs::{Counter, CounterVec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default cap on the bytes one [`ReleaseIndex`] may spend memoizing
/// marginal tables (64 MiB). Keep-sets past the cap are still answered
/// — computed per query, exactly like the scan path — just not cached.
pub const DEFAULT_MARGINAL_BUDGET: usize = 64 << 20;

/// Pyramid levels a [`IndexCounters::pyramid_level_hits`] vector has
/// slots for: level 64 collapses even a `2^64`-cell axis.
pub const PYRAMID_LEVEL_SLOTS: usize = 65;

/// The counter handles a [`ReleaseIndex`] records into. Cloning shares
/// the handles, so every index built from one set adds into the same
/// counts, and an evicted index's traffic stays counted.
#[derive(Debug, Clone)]
pub struct IndexCounters {
    /// Wall-clock nanoseconds spent building memoized structures
    /// (marginal tables, the cell order, pyramid levels).
    pub build_nanos: Arc<Counter>,
    /// Drill-down plans answered from an already-memoized level.
    pub pyramid_hits: Arc<Counter>,
    /// Drill-down plans that had to build their level first.
    pub pyramid_misses: Arc<Counter>,
    /// Warm pyramid hits, by level.
    pub pyramid_level_hits: Arc<CounterVec>,
}

impl Default for IndexCounters {
    /// Private handles, counting for one index alone.
    fn default() -> Self {
        IndexCounters {
            build_nanos: Arc::default(),
            pyramid_hits: Arc::default(),
            pyramid_misses: Arc::default(),
            pyramid_level_hits: Arc::new(CounterVec::new("level", PYRAMID_LEVEL_SLOTS)),
        }
    }
}

/// The primitive lookups a [`QueryPlan`](crate::QueryPlan) decomposes
/// into. The executor ([`crate::plan::execute_with`]) owns all plan
/// validation, clamping and answer assembly; a backend only answers.
pub trait PlanBackend {
    /// The sanitized release this backend answers over (used by the
    /// executor for domain checks and range sums).
    fn matrix(&self) -> &SanitizedMatrix;

    /// The estimated total count of the release.
    fn total(&self) -> f64 {
        self.matrix().total()
    }

    /// The marginal over `keep` (strictly increasing, validated here):
    /// the kept dimensions' cardinalities and the row-major estimates.
    ///
    /// # Errors
    /// [`PlanError`] for an invalid keep-list.
    fn marginal(&self, keep: &[usize]) -> Result<(Vec<usize>, Vec<f64>), PlanError>;

    /// The `k` largest cells, descending by value with ties broken by
    /// ascending flat index. `k` arrives pre-clamped to the cell count
    /// (and the answer-size cap) by the executor.
    fn top_k(&self, k: usize) -> Vec<TopCell>;

    /// Pyramid level `level` of the release: every axis ceiling-halved
    /// `level` times, cells summed from their children
    /// ([`dpod_fmatrix::coarsen_to_level`]). The default builds the
    /// level from the dense estimate on every call (the cold path);
    /// [`ReleaseIndex`] memoizes levels under its byte budget. Level 0
    /// never routes here — the executor answers it from the leaf.
    ///
    /// # Errors
    /// [`PlanError`] when `level` exceeds the pyramid root.
    fn pyramid_level(&self, level: u32) -> Result<Arc<PyramidLevel>, PlanError> {
        PyramidLevel::build(self.matrix(), level)
    }
}

/// Ranks by value descending, flat index ascending on ties —
/// `total_cmp` keeps the order total (and answers deterministic) even
/// over negative noisy estimates. Both backends rank with exactly this
/// comparator, which is what makes their top-k answers identical.
#[inline]
fn rank_cmp(values: &[f64], a: usize, b: usize) -> std::cmp::Ordering {
    values[b].total_cmp(&values[a]).then(a.cmp(&b))
}

fn top_cells(m: &DenseMatrix<f64>, order: impl Iterator<Item = usize>) -> Vec<TopCell> {
    order
        .map(|idx| TopCell {
            coords: m.shape().coords(idx),
            value: m.as_slice()[idx],
        })
        .collect()
}

/// The cold backend: every aggregate rescans the dense estimate.
#[derive(Debug, Clone, Copy)]
pub struct ScanBackend<'a> {
    matrix: &'a SanitizedMatrix,
}

impl<'a> ScanBackend<'a> {
    /// A scan backend over `matrix`.
    pub fn new(matrix: &'a SanitizedMatrix) -> Self {
        ScanBackend { matrix }
    }
}

impl PlanBackend for ScanBackend<'_> {
    fn matrix(&self) -> &SanitizedMatrix {
        self.matrix
    }

    fn marginal(&self, keep: &[usize]) -> Result<(Vec<usize>, Vec<f64>), PlanError> {
        let table = self
            .matrix
            .matrix()
            .marginalize(keep)
            .map_err(|e| PlanError(format!("bad marginal: {e}")))?;
        Ok((table.shape().dims().to_vec(), table.into_vec()))
    }

    fn top_k(&self, k: usize) -> Vec<TopCell> {
        let m = self.matrix.matrix();
        let values = m.as_slice();
        // An O(n) selection bounds the sort to the k survivors.
        let mut order: Vec<usize> = (0..m.len()).collect();
        if k > 0 && k < order.len() {
            order.select_nth_unstable_by(k - 1, |&a, &b| rank_cmp(values, a, b));
        }
        order.truncate(k);
        order.sort_unstable_by(|&a, &b| rank_cmp(values, a, b));
        top_cells(m, order.into_iter())
    }
}

/// One memoized marginal: the projected estimates plus their own
/// summed-area table, so marginal *range* sums cost `O(2^d)` like any
/// other range query.
#[derive(Debug)]
pub struct MarginalTable {
    table: DenseMatrix<f64>,
    prefix: PrefixSum<f64>,
}

impl MarginalTable {
    /// Cardinality of each kept dimension, in keep-list order.
    pub fn dims(&self) -> &[usize] {
        self.table.shape().dims()
    }

    /// Row-major marginal estimates (`dims().iter().product()` values).
    pub fn values(&self) -> &[f64] {
        self.table.as_slice()
    }

    /// Estimated count inside the half-open box `q` *of the marginal
    /// domain* (coordinates in kept-dimension order), via the table's
    /// own prefix sums.
    ///
    /// # Errors
    /// [`PlanError`] when `q` does not fit the marginal domain.
    pub fn range_sum(&self, q: &AxisBox) -> Result<f64, PlanError> {
        if q.ndim() != self.table.ndim() || !q.fits(self.table.shape()) {
            return Err(PlanError(format!(
                "range {:?}..{:?} does not fit marginal domain {:?}",
                q.lo(),
                q.hi(),
                self.dims()
            )));
        }
        Ok(self.prefix.box_sum(q))
    }

    /// Estimated resident size: the values and their prefix table are
    /// each `len × 8` bytes.
    fn resident_bytes(&self) -> usize {
        self.table.len() * 16 + 64
    }
}

/// One resolution-pyramid level: the coarse table plus its own
/// summed-area table, so coarse range sums cost `O(2^d)` like any other
/// range query. Built deterministically from the sanitized leaf
/// (row-major child summation — see [`dpod_fmatrix::coarsen_once`]), so
/// every consumer that answers through a `PyramidLevel` gets answers
/// bit-identical to coarsening the leaf and executing there.
#[derive(Debug)]
pub struct PyramidLevel {
    level: u32,
    table: DenseMatrix<f64>,
    prefix: PrefixSum<f64>,
}

impl PyramidLevel {
    /// Builds level `level` from the release's dense estimate.
    fn build(matrix: &SanitizedMatrix, level: u32) -> Result<Arc<PyramidLevel>, PlanError> {
        let table = coarsen_to_level(matrix.matrix(), level)
            .map_err(|e| PlanError(format!("bad drill-down: {e}")))?;
        let prefix = PrefixSum::from_f64(&table);
        Ok(Arc::new(PyramidLevel {
            level,
            table,
            prefix,
        }))
    }

    /// Which pyramid level this table holds.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The coarse domain.
    pub fn shape(&self) -> &Shape {
        self.table.shape()
    }

    /// Estimated count inside the half-open box `q` *of the coarse
    /// domain*, via the level's own prefix sums. The executor validates
    /// `q` against [`Self::shape`] before calling.
    pub fn box_sum(&self, q: &AxisBox) -> f64 {
        self.prefix.box_sum(q)
    }

    /// The marginal of the coarse table over `keep` — same contract
    /// (and error text) as the leaf marginal paths.
    ///
    /// # Errors
    /// [`PlanError`] for an invalid keep-list.
    pub fn marginal(&self, keep: &[usize]) -> Result<(Vec<usize>, Vec<f64>), PlanError> {
        let t = self
            .table
            .marginalize(keep)
            .map_err(|e| PlanError(format!("bad marginal: {e}")))?;
        Ok((t.shape().dims().to_vec(), t.into_vec()))
    }

    /// The level's total: the full-extent prefix lookup, exactly how
    /// the leaf total is computed from its own prefix table.
    pub fn total(&self) -> f64 {
        self.box_sum(&AxisBox::full(self.table.shape()))
    }

    /// Estimated resident size: the values and their prefix table are
    /// each `len × 8` bytes.
    fn resident_bytes(&self) -> usize {
        self.table.len() * 16 + 64
    }
}

/// The prepared backend: per-release memoization of every aggregate a
/// plan can ask for.
///
/// Built once per `(name, version)` by a serving layer (or directly by
/// an in-process analyst) and shared behind an [`Arc`]; all memoization
/// is interior and thread-safe, so concurrent queries warm it
/// cooperatively. The index never mutates the release — every structure
/// is derived from the sanitized estimate, i.e. DP post-processing.
///
/// Memory is self-accounted: [`Self::resident_bytes`] reports the
/// index's *own* footprint (the shared matrix is charged by whoever owns
/// it), growing as aggregates are first touched; marginal memoization
/// stops at the construction-time budget (further keep-sets are computed
/// per query, never refused).
#[derive(Debug)]
pub struct ReleaseIndex {
    matrix: Arc<SanitizedMatrix>,
    total: OnceLock<f64>,
    /// All cell indices, descending by released estimate (ties by
    /// ascending index), sorted once on first top-k touch. `u32` halves
    /// the footprint; domains past `u32::MAX` cells fall back to
    /// per-query selection.
    order: OnceLock<Vec<u32>>,
    marginals: Mutex<HashMap<Vec<usize>, Arc<MarginalTable>>>,
    pyramid: Mutex<HashMap<u32, Arc<PyramidLevel>>>,
    marginal_budget: usize,
    marginal_bytes: AtomicUsize,
    pyramid_bytes: AtomicUsize,
    order_bytes: AtomicUsize,
    counters: IndexCounters,
}

impl ReleaseIndex {
    /// An index over `matrix` with the [`DEFAULT_MARGINAL_BUDGET`] and
    /// private counters.
    pub fn new(matrix: Arc<SanitizedMatrix>) -> Self {
        Self::with_counters(matrix, DEFAULT_MARGINAL_BUDGET, IndexCounters::default())
    }

    /// An index over `matrix` memoizing at most `marginal_budget` bytes
    /// of marginal tables (over-budget keep-sets are computed per query
    /// without caching), recording into `counters` (shared with whoever
    /// else holds them).
    pub fn with_counters(
        matrix: Arc<SanitizedMatrix>,
        marginal_budget: usize,
        counters: IndexCounters,
    ) -> Self {
        ReleaseIndex {
            matrix,
            total: OnceLock::new(),
            order: OnceLock::new(),
            marginals: Mutex::new(HashMap::new()),
            pyramid: Mutex::new(HashMap::new()),
            marginal_budget,
            marginal_bytes: AtomicUsize::new(0),
            pyramid_bytes: AtomicUsize::new(0),
            order_bytes: AtomicUsize::new(0),
            counters,
        }
    }

    /// Bytes currently spent across both memo pools (marginal tables
    /// and pyramid levels) — they share [`Self::with_counters`]'s
    /// single budget.
    fn memo_bytes(&self) -> usize {
        self.marginal_bytes.load(Ordering::Relaxed) + self.pyramid_bytes.load(Ordering::Relaxed)
    }

    /// The release this index serves.
    pub fn matrix(&self) -> &Arc<SanitizedMatrix> {
        &self.matrix
    }

    /// The memoized marginal over `keep`, built (and cached, budget
    /// permitting) on first touch.
    ///
    /// # Errors
    /// [`PlanError`] for an invalid keep-list — identical text to the
    /// scan path, so error answers are transport- and backend-invariant.
    pub fn marginal_table(&self, keep: &[usize]) -> Result<Arc<MarginalTable>, PlanError> {
        {
            let map = self.marginals.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(t) = map.get(keep) {
                return Ok(Arc::clone(t));
            }
        }
        // Build outside the lock: a slow first-touch marginal never
        // blocks queries that hit already-memoized keep-sets.
        let start = Instant::now();
        let table = self
            .matrix
            .matrix()
            .marginalize(keep)
            .map_err(|e| PlanError(format!("bad marginal: {e}")))?;
        let prefix = PrefixSum::from_f64(&table);
        let built = Arc::new(MarginalTable { table, prefix });
        self.note_build(start);
        let cost = built.resident_bytes() + keep.len() * 8 + 48;
        let mut map = self.marginals.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = map.get(keep) {
            return Ok(Arc::clone(t)); // a racing builder won; keep it
        }
        if self.memo_bytes() + cost <= self.marginal_budget {
            self.marginal_bytes.fetch_add(cost, Ordering::Relaxed);
            map.insert(keep.to_vec(), Arc::clone(&built));
        }
        Ok(built)
    }

    /// The memoized pyramid level `level`, built (and cached, budget
    /// permitting) on first touch. The shared memo budget covers
    /// marginal tables and pyramid levels together; an over-budget
    /// level is still answered, computed per query without caching.
    ///
    /// # Errors
    /// [`PlanError`] when `level` exceeds the pyramid root — identical
    /// text to the scan path, so error answers are transport- and
    /// backend-invariant.
    pub fn pyramid_table(&self, level: u32) -> Result<Arc<PyramidLevel>, PlanError> {
        {
            let map = self.pyramid.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(l) = map.get(&level) {
                self.counters.pyramid_hits.inc();
                self.counters.pyramid_level_hits.inc(level as usize);
                return Ok(Arc::clone(l));
            }
        }
        self.counters.pyramid_misses.inc();
        // Build outside the lock, as for marginals: a slow first-touch
        // level never blocks queries hitting already-memoized levels.
        let start = Instant::now();
        let built = PyramidLevel::build(&self.matrix, level)?;
        self.note_build(start);
        let cost = built.resident_bytes() + 48;
        let mut map = self.pyramid.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(l) = map.get(&level) {
            return Ok(Arc::clone(l)); // a racing builder won; keep it
        }
        if self.memo_bytes() + cost <= self.marginal_budget {
            self.pyramid_bytes.fetch_add(cost, Ordering::Relaxed);
            map.insert(level, Arc::clone(&built));
        }
        Ok(built)
    }

    /// Marginal range sum in one call: the memoized marginal over
    /// `keep`, then its `O(2^d)` prefix lookup for `q` (coordinates in
    /// kept-dimension order).
    ///
    /// # Errors
    /// [`PlanError`] for an invalid keep-list or an out-of-domain box.
    pub fn marginal_range_sum(&self, keep: &[usize], q: &AxisBox) -> Result<f64, PlanError> {
        self.marginal_table(keep)?.range_sum(q)
    }

    /// The descending cell order, sorted once on first touch. `None`
    /// when the domain exceeds `u32::MAX` cells (callers fall back to
    /// per-query selection).
    fn sorted_order(&self) -> Option<&[u32]> {
        let m = self.matrix.matrix();
        if m.len() > u32::MAX as usize {
            return None;
        }
        Some(self.order.get_or_init(|| {
            let start = Instant::now();
            let values = m.as_slice();
            let mut order: Vec<u32> = (0..m.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| rank_cmp(values, a as usize, b as usize));
            self.order_bytes
                .fetch_add(order.len() * 4 + 24, Ordering::Relaxed);
            self.note_build(start);
            order
        }))
    }

    /// This index's own resident bytes (the shared release matrix is
    /// charged by its owner): memoized marginal tables and pyramid
    /// levels plus the sorted cell order, growing as aggregates are
    /// first touched.
    pub fn resident_bytes(&self) -> usize {
        256 + self.memo_bytes() + self.order_bytes.load(Ordering::Relaxed)
    }

    /// Adds the time since `start` to the build-time counter.
    fn note_build(&self, start: Instant) {
        self.counters
            .build_nanos
            .add(start.elapsed().as_nanos() as u64);
    }

    /// The counters this index records into (shared when it was built
    /// [`with_counters`](Self::with_counters)).
    pub fn counters(&self) -> &IndexCounters {
        &self.counters
    }

    /// Memoized marginal keep-sets currently resident.
    pub fn marginal_entries(&self) -> usize {
        self.marginals
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// Memoized pyramid levels currently resident.
    pub fn pyramid_entries(&self) -> usize {
        self.pyramid.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Bytes spent on memoized pyramid levels.
    pub fn pyramid_bytes(&self) -> usize {
        self.pyramid_bytes.load(Ordering::Relaxed)
    }
}

impl PlanBackend for ReleaseIndex {
    fn matrix(&self) -> &SanitizedMatrix {
        &self.matrix
    }

    fn total(&self) -> f64 {
        *self.total.get_or_init(|| self.matrix.total())
    }

    fn marginal(&self, keep: &[usize]) -> Result<(Vec<usize>, Vec<f64>), PlanError> {
        let t = self.marginal_table(keep)?;
        Ok((t.dims().to_vec(), t.values().to_vec()))
    }

    fn top_k(&self, k: usize) -> Vec<TopCell> {
        match self.sorted_order() {
            Some(order) => top_cells(
                self.matrix.matrix(),
                order.iter().take(k).map(|&i| i as usize),
            ),
            None => ScanBackend::new(&self.matrix).top_k(k),
        }
    }

    fn pyramid_level(&self, level: u32) -> Result<Arc<PyramidLevel>, PlanError> {
        self.pyramid_table(level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{execute, execute_with, Answer, QueryPlan};
    use dpod_fmatrix::Shape;

    /// A deterministic noisy-looking 4-D release: values mix sign and
    /// magnitude so ranking and marginal sums are non-trivial.
    fn release(side: usize) -> Arc<SanitizedMatrix> {
        let shape = Shape::cube(4, side).unwrap();
        let values: Vec<f64> = (0..shape.size())
            .map(|i| ((i * 2_654_435_761) % 1_000) as f64 / 7.0 - 60.0)
            .collect();
        let m = DenseMatrix::from_vec(shape, values).unwrap();
        Arc::new(SanitizedMatrix::from_entries("test", 1.0, m))
    }

    fn bits(a: &Answer) -> String {
        // Answer's PartialEq uses f64 ==; serialize value bits for the
        // stricter total_cmp-level identity the backends promise.
        fn walk(a: &Answer, out: &mut String) {
            match a {
                Answer::Value { value } => out.push_str(&format!("v{:016x};", value.to_bits())),
                Answer::Marginal { dims, values } => {
                    out.push_str(&format!("m{dims:?}:"));
                    for v in values {
                        out.push_str(&format!("{:016x},", v.to_bits()));
                    }
                }
                Answer::TopK { dims, cells } => {
                    out.push_str(&format!("t{dims:?}:"));
                    for c in cells {
                        out.push_str(&format!("{:?}={:016x},", c.coords, c.value.to_bits()));
                    }
                }
                Answer::Many { answers } => {
                    out.push('[');
                    for a in answers {
                        walk(a, out);
                    }
                    out.push(']');
                }
                Answer::Epochs { epochs, answers } => {
                    out.push_str(&format!("e{epochs:?}["));
                    for a in answers {
                        walk(a, out);
                    }
                    out.push(']');
                }
            }
        }
        let mut s = String::new();
        walk(a, &mut s);
        s
    }

    #[test]
    fn indexed_answers_bit_match_scan_on_every_variant() {
        let m = release(5);
        let index = ReleaseIndex::new(Arc::clone(&m));
        let plans = vec![
            QueryPlan::Total,
            QueryPlan::TopK { k: 0 },
            QueryPlan::TopK { k: 7 },
            QueryPlan::TopK { k: usize::MAX },
            QueryPlan::Marginal { keep: vec![0] },
            QueryPlan::Marginal { keep: vec![1, 3] },
            QueryPlan::Marginal {
                keep: vec![0, 1, 2, 3],
            },
            QueryPlan::Range {
                lo: vec![1, 0, 2, 0],
                hi: vec![4, 5, 3, 2],
            },
            QueryPlan::Many {
                plans: vec![
                    QueryPlan::Total,
                    QueryPlan::TopK { k: 3 },
                    QueryPlan::Marginal { keep: vec![2] },
                    QueryPlan::TopK { k: 3 }, // warm second touch
                    QueryPlan::Marginal { keep: vec![2] },
                ],
            },
            QueryPlan::DrillDown {
                level: 1,
                plan: Box::new(QueryPlan::Total),
            },
            QueryPlan::DrillDown {
                level: 2,
                plan: Box::new(QueryPlan::Marginal { keep: vec![0, 3] }),
            },
            QueryPlan::DrillDown {
                level: 1,
                plan: Box::new(QueryPlan::Range {
                    lo: vec![0, 1, 0, 0],
                    hi: vec![2, 3, 1, 2],
                }),
            },
            QueryPlan::DrillDown {
                level: 0,
                plan: Box::new(QueryPlan::Range {
                    lo: vec![1, 0, 2, 0],
                    hi: vec![4, 5, 3, 2],
                }),
            },
        ];
        for plan in &plans {
            let cold = execute(&m, plan).unwrap();
            let warm = execute_with(&index, plan).unwrap();
            assert_eq!(bits(&cold), bits(&warm), "plan {plan:?}");
            // And again, fully warm.
            let warm2 = execute_with(&index, plan).unwrap();
            assert_eq!(bits(&cold), bits(&warm2), "warm replay of {plan:?}");
        }
    }

    #[test]
    fn indexed_errors_match_scan_errors_verbatim() {
        let m = release(3);
        let index = ReleaseIndex::new(Arc::clone(&m));
        for plan in [
            QueryPlan::Marginal { keep: vec![] },
            QueryPlan::Marginal { keep: vec![3, 1] },
            QueryPlan::Marginal { keep: vec![9] },
            QueryPlan::Range {
                lo: vec![0],
                hi: vec![9],
            },
            QueryPlan::DrillDown {
                level: 99,
                plan: Box::new(QueryPlan::Total),
            },
            QueryPlan::DrillDown {
                level: 1,
                plan: Box::new(QueryPlan::Marginal { keep: vec![3, 1] }),
            },
        ] {
            let cold = execute(&m, &plan).unwrap_err();
            let warm = execute_with(&index, &plan).unwrap_err();
            assert_eq!(cold, warm, "plan {plan:?}");
        }
    }

    #[test]
    fn marginal_range_sums_match_the_base_release() {
        let m = release(4);
        let index = ReleaseIndex::new(Arc::clone(&m));
        // Sum over a box of the (0, 2) marginal == base-matrix range
        // with dropped dims at full extent.
        let q2 = AxisBox::new(vec![1, 0], vec![3, 2]).unwrap();
        let got = index.marginal_range_sum(&[0, 2], &q2).unwrap();
        let full = AxisBox::new(vec![1, 0, 0, 0], vec![3, 4, 2, 4]).unwrap();
        let expect = m.range_sum(&full);
        assert!(
            (got - expect).abs() < 1e-9 * (1.0 + expect.abs()),
            "marginal range {got} vs base {expect}"
        );
        // Out-of-domain and bad keep-lists are descriptive errors.
        let big = AxisBox::new(vec![0, 0], vec![9, 9]).unwrap();
        assert!(index.marginal_range_sum(&[0, 2], &big).is_err());
        assert!(index.marginal_range_sum(&[2, 0], &q2).is_err());
    }

    #[test]
    fn memoization_respects_the_marginal_budget() {
        let m = release(4);
        // Budget fits roughly one small marginal table, not all of them.
        let index = ReleaseIndex::with_counters(Arc::clone(&m), 600, IndexCounters::default());
        index.marginal_table(&[0]).unwrap(); // 4 cells → memoized
        let after_first = index.resident_bytes();
        assert_eq!(index.marginal_entries(), 1);
        // A full-keep marginal (256 cells ≈ 4 KiB) blows the budget: it
        // is answered but not cached, and bytes do not move.
        let uncached = index.marginal_table(&[0, 1, 2, 3]).unwrap();
        assert_eq!(
            uncached.values(),
            m.matrix().as_slice(),
            "identity marginal must still answer correctly"
        );
        assert_eq!(index.marginal_entries(), 1);
        assert_eq!(index.resident_bytes(), after_first);
        // The memoized keep-set still answers warm (same Arc).
        let again = index.marginal_table(&[0]).unwrap();
        assert_eq!(index.marginal_entries(), 1);
        assert!(Arc::ptr_eq(&again, &index.marginal_table(&[0]).unwrap()));
    }

    #[test]
    fn pyramid_levels_memoize_with_hit_and_miss_counters() {
        let m = release(5); // 5^4, pyramid root = level 3
        let index = ReleaseIndex::new(Arc::clone(&m));
        assert_eq!(index.pyramid_entries(), 0);
        let base = index.resident_bytes();

        let plan = QueryPlan::DrillDown {
            level: 2,
            plan: Box::new(QueryPlan::Total),
        };
        execute_with(&index, &plan).unwrap();
        assert_eq!(
            (
                index.counters().pyramid_misses.get(),
                index.counters().pyramid_hits.get()
            ),
            (1, 0)
        );
        assert_eq!(index.pyramid_entries(), 1);
        assert!(index.pyramid_bytes() > 0);
        assert!(index.resident_bytes() > base, "levels must be charged");
        assert_eq!(index.counters().pyramid_level_hits.nonzero(), vec![]);

        // Warm replays hit the memo; a different level misses again.
        execute_with(&index, &plan).unwrap();
        execute_with(&index, &plan).unwrap();
        assert_eq!(
            (
                index.counters().pyramid_misses.get(),
                index.counters().pyramid_hits.get()
            ),
            (1, 2)
        );
        assert_eq!(index.counters().pyramid_level_hits.nonzero(), vec![(2, 2)]);
        let other = QueryPlan::DrillDown {
            level: 1,
            plan: Box::new(QueryPlan::Marginal { keep: vec![0] }),
        };
        execute_with(&index, &other).unwrap();
        execute_with(&index, &other).unwrap();
        assert_eq!(
            (
                index.counters().pyramid_misses.get(),
                index.counters().pyramid_hits.get()
            ),
            (2, 3)
        );
        assert_eq!(
            index.counters().pyramid_level_hits.nonzero(),
            vec![(1, 1), (2, 2)]
        );
        assert_eq!(index.pyramid_entries(), 2);

        // Level 0 routes to the leaf — it never touches the memo.
        execute_with(
            &index,
            &QueryPlan::DrillDown {
                level: 0,
                plan: Box::new(QueryPlan::Total),
            },
        )
        .unwrap();
        assert_eq!(
            (
                index.counters().pyramid_misses.get(),
                index.counters().pyramid_hits.get()
            ),
            (2, 3)
        );

        // Invalid levels are errors, not memo entries.
        assert!(index.pyramid_table(99).is_err());
        assert_eq!(index.pyramid_entries(), 2);
    }

    #[test]
    fn pyramid_memoization_shares_the_marginal_budget() {
        let m = release(4);
        // Fits the level-2 table (1 cell) but not level 1 (16 cells:
        // 16·16 + 64 + 48 = 368 > 200).
        let index = ReleaseIndex::with_counters(Arc::clone(&m), 200, IndexCounters::default());
        let coarse = index.pyramid_table(2).unwrap();
        assert_eq!(index.pyramid_entries(), 1);
        let after_first = index.resident_bytes();
        // An over-budget level still answers, uncached and correct.
        let fine = index.pyramid_table(1).unwrap();
        assert_eq!(fine.shape().dims(), &[2, 2, 2, 2]);
        assert_eq!(index.pyramid_entries(), 1);
        assert_eq!(index.resident_bytes(), after_first);
        // The cached level answers warm (same Arc).
        assert!(Arc::ptr_eq(&coarse, &index.pyramid_table(2).unwrap()));
        // And pyramid bytes count against marginal memoization too: the
        // remaining headroom refuses a marginal the budget would
        // otherwise have taken.
        index.marginal_table(&[0, 1]).unwrap(); // 16 cells, same cost
        assert_eq!(index.marginal_entries(), 0);
    }

    #[test]
    fn whole_grid_marginal_at_1024_routes_to_the_coarse_level() {
        // The acceptance scenario: a coarse marginal on a 1024² release
        // executes against the level-4 table (64² = 4096 cells, not the
        // 2^20-cell leaf), verified by the pyramid hit counters — and
        // stays bit-identical to coarsening the leaf and executing there.
        let shape = Shape::new(vec![1024, 1024]).unwrap();
        let values: Vec<f64> = (0..shape.size())
            .map(|i| ((i * 2_654_435_761) % 1_000) as f64 / 7.0 - 60.0)
            .collect();
        let m = Arc::new(SanitizedMatrix::from_entries(
            "test",
            1.0,
            DenseMatrix::from_vec(shape, values).unwrap(),
        ));
        let index = ReleaseIndex::new(Arc::clone(&m));
        let plan = QueryPlan::DrillDown {
            level: 4,
            plan: Box::new(QueryPlan::Marginal { keep: vec![0, 1] }),
        };
        let first = execute_with(&index, &plan).unwrap();
        let warm = execute_with(&index, &plan).unwrap();
        assert_eq!(
            (
                index.counters().pyramid_misses.get(),
                index.counters().pyramid_hits.get()
            ),
            (1, 1)
        );
        assert_eq!(index.counters().pyramid_level_hits.nonzero(), vec![(4, 1)]);
        let Answer::Marginal { dims, .. } = &first else {
            panic!("expected marginal");
        };
        assert_eq!(dims, &[64, 64]);
        let coarse =
            SanitizedMatrix::from_entries("test", 1.0, coarsen_to_level(m.matrix(), 4).unwrap());
        let reference = execute(&coarse, &QueryPlan::Marginal { keep: vec![0, 1] }).unwrap();
        assert_eq!(bits(&first), bits(&reference));
        assert_eq!(bits(&warm), bits(&reference));
    }

    #[test]
    fn resident_bytes_and_build_time_grow_on_first_touch_only() {
        let m = release(4);
        let index = ReleaseIndex::new(Arc::clone(&m));
        let base = index.resident_bytes();
        assert_eq!(index.counters().build_nanos.get(), 0);

        index.top_k(5);
        let after_order = index.resident_bytes();
        assert!(after_order > base, "order must be charged");
        let nanos_order = index.counters().build_nanos.get();

        index.marginal_table(&[0, 1]).unwrap();
        assert!(index.resident_bytes() > after_order);
        assert!(index.counters().build_nanos.get() >= nanos_order);

        // Warm touches change nothing.
        let settled = (index.resident_bytes(), index.counters().build_nanos.get());
        index.top_k(5);
        index.marginal_table(&[0, 1]).unwrap();
        let _ = index.total();
        let _ = index.total();
        assert_eq!(
            (index.resident_bytes(), index.counters().build_nanos.get()),
            settled
        );
    }
}
