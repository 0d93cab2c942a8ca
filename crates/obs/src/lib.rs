//! # dpod-obs
//!
//! Lock-free observability primitives for the serving stack: counters,
//! gauges, and HDR-style log-bucketed latency [`Histogram`]s, collected
//! in a [`Registry`]. [`Registry::snapshot`] reads every series into one
//! plain-data [`Snapshot`] (families of labelled samples) that renders
//! the Prometheus text exposition format and serializes as data, so every
//! surface that shows the numbers shows the same ones.
//!
//! The design targets the event-loop hot path (~10⁵ requests/sec):
//!
//! * [`Counter`] / [`Gauge`] are single relaxed atomics, and a
//!   [`CounterVec`] is an array of them (floating-point values, such as
//!   ε budgets, are derived into a [`Snapshot`] at read time);
//! * [`Histogram::record`] is one relaxed `fetch_add` into a
//!   power-of-2-bucketed count array plus one into a running sum, with
//!   the arrays *sharded per recording thread* so concurrent workers
//!   never contend on a cache line;
//! * reading is snapshot-based: [`Histogram::snapshot`] merges the
//!   shards into an immutable [`HistogramSnapshot`], and snapshots merge
//!   with each other — quantiles come out of the merged counts, so the
//!   same samples always produce the same quantile no matter how many
//!   threads recorded them or in which order (the property `dpod replay`
//!   leans on for deterministic p99 spreads).
//!
//! Bucket layout: values below 2⁴ get exact buckets; above that, each
//! power of two is split into 2⁴ sub-buckets, so any reported quantile
//! is an upper bound within 1/16 (≈6.3%) of the true sample. All
//! latency values are recorded and reported in **nanoseconds** — metric
//! names carry the unit (`…_nanoseconds`).
//!
//! Registration is the cold path (a mutex-guarded map keyed by metric
//! name + labels, deduplicating to the same handle); recording never
//! takes a lock.

#![warn(missing_docs)]
#![warn(clippy::all)]

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sub-bucket resolution: each power of two splits into `2^SUB_BITS`
/// buckets, bounding quantile overestimation at `1/2^SUB_BITS`.
pub const SUB_BITS: u32 = 4;
/// Sub-buckets per power of two (`2^SUB_BITS`).
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` value range: one linear
/// group below `2^SUB_BITS` plus one group per remaining power of two.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;
/// Number of independently updated shards per histogram. Each recording
/// thread is pinned to one shard (round-robin at first record), so up to
/// this many threads record with zero cache-line contention.
pub const NUM_SHARDS: usize = 8;

/// Maps a value to its bucket index (monotone, total over `u64`).
#[inline]
fn bucket_index(v: u64) -> usize {
    let msb = 63 - (v | 1).leading_zeros();
    if msb < SUB_BITS {
        v as usize
    } else {
        let shift = msb - SUB_BITS;
        (((msb - SUB_BITS + 1) as usize) << SUB_BITS) + ((v >> shift) as usize & (SUB_BUCKETS - 1))
    }
}

/// Largest value stored in bucket `i` — what quantiles report, making
/// every quantile an upper bound on the true sample.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        i as u64
    } else {
        let shift = (i >> SUB_BITS) as u32 - 1;
        // OR, not add: the shifted base has zero low bits, and adding
        // would overflow at the top bucket (upper bound `u64::MAX`).
        (((SUB_BUCKETS + (i & (SUB_BUCKETS - 1))) as u64) << shift) | ((1u64 << shift) - 1)
    }
}

/// A monotonically increasing event count. `Clone` of the *handle* is
/// done via `Arc` from the [`Registry`]; the count itself only grows.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter (standalone use; prefer
    /// [`Registry::counter`] for exported metrics).
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// An instantaneous integer measurement (queue depth, resident bytes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh zero gauge (standalone use; prefer [`Registry::gauge`]).
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Subtracts `n`, saturating at zero on racy underflow.
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(n)));
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// Counters keyed by one small-integer label (pyramid level, say): one
/// relaxed atomic per slot, so recording never takes a lock. Snapshots
/// show only the slots that have counted.
#[derive(Debug)]
pub struct CounterVec {
    label: String,
    slots: Box<[Counter]>,
}

impl CounterVec {
    /// `len` zero slots labelled `label="<slot>"` (standalone use; prefer
    /// [`Registry::counter_vec`] for exported metrics).
    pub fn new(label: &str, len: usize) -> Self {
        CounterVec {
            label: label.to_string(),
            slots: (0..len).map(|_| Counter::new()).collect(),
        }
    }

    /// Adds one to `slot`; slots past the end are ignored.
    #[inline]
    pub fn inc(&self, slot: usize) {
        if let Some(c) = self.slots.get(slot) {
            c.inc();
        }
    }

    /// `(slot, count)` for every slot that has counted, ascending.
    pub fn nonzero(&self) -> Vec<(usize, u64)> {
        (0..self.slots.len())
            .map(|i| (i, self.slots[i].get()))
            .filter(|&(_, n)| n > 0)
            .collect()
    }
}

/// One shard of a histogram: a full bucket array plus a running sum,
/// updated by the threads pinned to it.
struct Shard {
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }
}

/// Round-robin shard assignment: each thread draws its shard index once.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Relaxed) % NUM_SHARDS;
}

/// A concurrent, log-bucketed latency histogram.
///
/// [`record`](Self::record) is wait-free (two relaxed `fetch_add`s on a
/// thread-private shard); quantiles are read through
/// [`snapshot`](Self::snapshot). Values are unit-agnostic `u64`s — the
/// serving stack records nanoseconds everywhere.
pub struct Histogram {
    shards: Box<[Shard]>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count())
            .field("sum", &s.sum())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh empty histogram (standalone use; prefer
    /// [`Registry::histogram`] for exported metrics).
    pub fn new() -> Self {
        Histogram {
            shards: (0..NUM_SHARDS).map(|_| Shard::new()).collect(),
        }
    }

    /// Records one sample. Wait-free; safe from any number of threads.
    #[inline]
    pub fn record(&self, v: u64) {
        let shard = &self.shards[MY_SHARD.with(|s| *s)];
        shard.counts[bucket_index(v)].fetch_add(1, Relaxed);
        shard.sum.fetch_add(v, Relaxed);
    }

    /// Merges all shards into an immutable point-in-time snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = vec![0u64; NUM_BUCKETS];
        let mut sum = 0u64;
        for shard in self.shards.iter() {
            for (acc, c) in counts.iter_mut().zip(shard.counts.iter()) {
                *acc += c.load(Relaxed);
            }
            sum = sum.wrapping_add(shard.sum.load(Relaxed));
        }
        let count = counts.iter().sum();
        HistogramSnapshot { counts, count, sum }
    }
}

/// An immutable histogram snapshot: mergeable, with deterministic
/// quantiles (a pure function of the bucket counts, independent of
/// recording order or thread count).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples (identity element for
    /// [`merge`](Self::merge)).
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean recorded value (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Records one sample directly into the snapshot — the
    /// single-threaded accumulation path (e.g. a load generator's
    /// per-connection tally). Produces exactly the bucket counts that
    /// [`Histogram::record`] + [`Histogram::snapshot`] would for the
    /// same samples, so both paths share quantile semantics.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Folds another snapshot in (element-wise bucket addition).
    /// Commutative and associative, so merged quantiles do not depend on
    /// merge order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as an upper bound on the true
    /// sample at that rank: the reported value is ≥ the sample and
    /// within a factor `1 + 1/2^SUB_BITS` of it. Returns `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_upper(i);
            }
        }
        bucket_upper(NUM_BUCKETS - 1)
    }

    /// Upper bound of the highest occupied bucket (`0` when empty).
    pub fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(bucket_upper)
            .unwrap_or(0)
    }
}

/// A started timing span: measures wall-clock nanoseconds from
/// construction, recording into a [`Histogram`] on
/// [`finish`](Self::finish).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    t0: Instant,
}

impl Span {
    /// Starts timing now.
    pub fn start() -> Self {
        Span { t0: Instant::now() }
    }

    /// Nanoseconds elapsed since start (saturating at `u64::MAX`).
    #[inline]
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records the elapsed time into `h` and consumes the span.
    #[inline]
    pub fn finish(self, h: &Histogram) {
        h.record(self.elapsed_nanos());
    }
}

/// A process-local monotonic clock handing out nanosecond stamps, for
/// queue-wait accounting where the *enqueue* and *dequeue* sides are
/// different threads (stamps from one [`Clock`] are comparable).
#[derive(Debug, Clone)]
pub struct Clock {
    epoch: Instant,
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        Clock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since this clock's epoch.
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The handle kinds a registry entry can hold.
#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    CounterVec(Arc<CounterVec>),
    Histogram(Arc<Histogram>),
}

/// One labelled series within a family.
struct Series {
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// One metric family: a name, a help string, and its labelled series.
struct Family {
    name: String,
    help: String,
    series: Vec<Series>,
}

/// A named collection of metrics, read out as a [`Snapshot`].
///
/// Registration (`counter` / `gauge` / `counter_vec` / `histogram`)
/// is the mutex-guarded cold path and deduplicates: asking twice for the
/// same name + label set returns the same `Arc` handle. Histograms are
/// read as Prometheus *summaries* (p50/p90/p99/p999 `quantile` series
/// plus `_sum` and `_count`) so a scrape stays compact despite the
/// ~1000 internal buckets.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.families.lock().map(|f| f.len()).unwrap_or(0);
        f.debug_struct("Registry").field("families", &n).finish()
    }
}

/// Quantiles a histogram family exports when rendered.
const RENDERED_QUANTILES: [(f64, &str); 4] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut fams = self.families.lock().expect("registry poisoned");
        let fam = match fams.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => {
                fams.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    series: Vec::new(),
                });
                fams.last_mut().expect("just pushed")
            }
        };
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if let Some(s) = fam.series.iter().find(|s| s.labels == labels) {
            return s.metric.clone();
        }
        let metric = make();
        fam.series.push(Series {
            labels,
            metric: metric.clone(),
        });
        metric
    }

    /// Registers (or retrieves) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, labels, || {
            Metric::Counter(Arc::new(Counter::new()))
        }) {
            Metric::Counter(c) => c,
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Registers (or retrieves) an integer gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, labels, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Registers (or retrieves) a histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.register(name, help, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Registers (or retrieves) a counter vector: `len` slots exported
    /// as `name{label="<slot>"}`, counted slots only.
    pub fn counter_vec(&self, name: &str, help: &str, label: &str, len: usize) -> Arc<CounterVec> {
        match self.register(name, help, &[], || {
            Metric::CounterVec(Arc::new(CounterVec::new(label, len)))
        }) {
            Metric::CounterVec(v) => v,
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Reads every registered series into a [`Snapshot`], in
    /// registration order. Histograms become Prometheus *summary*
    /// samples: p50/p90/p99/p999 `quantile` rows plus `_sum` and
    /// `_count`.
    pub fn snapshot(&self) -> Snapshot {
        let fams = self.families.lock().expect("registry poisoned");
        let mut snap = Snapshot::default();
        for fam in fams.iter() {
            let kind = match fam.series.first().map(|s| &s.metric) {
                Some(Metric::Counter(_)) | Some(Metric::CounterVec(_)) => MetricKind::Counter,
                Some(Metric::Gauge(_)) => MetricKind::Gauge,
                Some(Metric::Histogram(_)) => MetricKind::Summary,
                None => continue,
            };
            let out = snap.family(&fam.name, &fam.help, kind);
            let mut push = |suffix: &str, labels: Vec<(String, String)>, value: u64| {
                out.samples.push(Sample {
                    name: format!("{}{suffix}", fam.name),
                    labels,
                    value: value as f64,
                })
            };
            for s in &fam.series {
                match &s.metric {
                    Metric::Counter(c) => push("", s.labels.clone(), c.get()),
                    Metric::Gauge(g) => push("", s.labels.clone(), g.get()),
                    Metric::CounterVec(v) => {
                        for (slot, n) in v.nonzero() {
                            push("", vec![(v.label.clone(), slot.to_string())], n);
                        }
                    }
                    Metric::Histogram(h) => {
                        let hs = h.snapshot();
                        for (q, qlabel) in RENDERED_QUANTILES {
                            let mut labels = s.labels.clone();
                            labels.push(("quantile".into(), qlabel.into()));
                            push("", labels, hs.quantile(q));
                        }
                        push("_sum", s.labels.clone(), hs.sum());
                        push("_count", s.labels.clone(), hs.count());
                    }
                }
            }
        }
        snap
    }
}

/// What a family measures, as the exposition's `# TYPE` line names it.
/// Binary encodings carry the discriminant, so variants keep their
/// declaration order (`Counter` 0, `Gauge` 1, `Summary` 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// A monotone count.
    Counter,
    /// An instantaneous value.
    Gauge,
    /// Histogram quantiles plus `_sum` and `_count`.
    Summary,
}

impl MetricKind {
    /// The exposition-format type name.
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Summary => "summary",
        }
    }
}

/// One exposition line: sample name, labels, value. Values are `f64`,
/// as in Prometheus itself; integer counts are exact up to 2⁵³.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Sample name: the family name, plus `_sum`/`_count` for summaries.
    pub name: String,
    /// Label pairs in exposition order.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: f64,
}

/// One metric family at a point in time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FamilySnapshot {
    /// Family name.
    pub name: String,
    /// One-line description (`# HELP`).
    pub help: String,
    /// Family type (`# TYPE`).
    pub kind: MetricKind,
    /// Its samples, in exposition order.
    pub samples: Vec<Sample>,
}

impl FamilySnapshot {
    /// Appends a sample named after the family.
    pub fn sample(&mut self, labels: &[(&str, &str)], value: f64) -> &mut Self {
        self.samples.push(Sample {
            name: self.name.clone(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
        self
    }
}

/// A point-in-time reading of metric families: plain data that renders
/// the Prometheus text format and round-trips through serde.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Families in exposition order.
    pub families: Vec<FamilySnapshot>,
}

impl Snapshot {
    /// Appends an empty family and returns it for [`FamilySnapshot::sample`].
    pub fn family(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut FamilySnapshot {
        self.families.push(FamilySnapshot {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            samples: Vec::new(),
        });
        self.families.last_mut().expect("just pushed")
    }

    /// Every sample, across families.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.families.iter().flat_map(|f| f.samples.iter())
    }

    /// The value of the sample named `name` whose labels are exactly
    /// `labels`, in exposition order.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.samples()
            .find(|s| {
                s.name == name
                    && (s.labels.iter())
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .eq(labels.iter().copied())
            })
            .map(|s| s.value)
    }

    /// The sum over every sample named `name`, whatever its labels.
    pub fn sum(&self, name: &str) -> f64 {
        self.samples()
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// Renders the Prometheus text exposition format (version 0.0.4).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for fam in &self.families {
            out.push_str(&format!("# HELP {} {}\n", fam.name, fam.help));
            out.push_str(&format!("# TYPE {} {}\n", fam.name, fam.kind.as_str()));
            for s in &fam.samples {
                out.push_str(&s.name);
                if !s.labels.is_empty() {
                    let pairs: Vec<String> = s
                        .labels
                        .iter()
                        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                        .collect();
                    out.push_str(&format!("{{{}}}", pairs.join(",")));
                }
                out.push_str(&format!(" {}\n", format_f64(s.value)));
            }
        }
        out
    }
}

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats an `f64` the way Prometheus expects (plain decimal; `NaN`
/// and `±Inf` spelled out).
fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_total() {
        let mut last = 0usize;
        for &v in &[
            0u64,
            1,
            2,
            15,
            16,
            17,
            31,
            32,
            33,
            63,
            64,
            100,
            1000,
            10_000,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(i >= last, "bucket index not monotone at {v}");
            assert!(i < NUM_BUCKETS);
            last = i;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_bounds_its_values() {
        for v in (0u64..4096).chain([1 << 20, 1 << 33, u64::MAX / 3, u64::MAX]) {
            let i = bucket_index(v);
            let hi = bucket_upper(i);
            assert!(hi >= v, "upper bound {hi} < value {v}");
            // Relative error bound: within 1/16 above the true value.
            if v >= SUB_BUCKETS as u64 {
                assert!(
                    (hi - v) as f64 <= v as f64 / SUB_BUCKETS as f64,
                    "bucket error too large at {v}: upper {hi}"
                );
            }
            if i + 1 < NUM_BUCKETS {
                assert!(bucket_upper(i + 1) > hi);
            }
        }
        assert_eq!(bucket_upper(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_bound_known_distributions() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 10_000);
        for (q, exact) in [(0.5, 5000u64), (0.9, 9000), (0.99, 9900), (0.999, 9990)] {
            let got = s.quantile(q);
            assert!(got >= exact, "q{q}: {got} < exact {exact}");
            assert!(
                got as f64 <= exact as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64) + 1.0,
                "q{q}: {got} too far above exact {exact}"
            );
        }
        assert_eq!(s.quantile(0.0), s.quantile(1.0 / 10_000.0));
        assert!(s.max() >= 10_000);
    }

    #[test]
    fn concurrent_record_equals_single_thread_merge() {
        let shared = Arc::new(Histogram::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let h = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    h.record(t * 1_000 + i % 997);
                }
            }));
        }
        for j in handles {
            j.join().unwrap();
        }
        let reference = Histogram::new();
        for t in 0..8u64 {
            for i in 0..5_000u64 {
                reference.record(t * 1_000 + i % 997);
            }
        }
        assert_eq!(shared.snapshot(), reference.snapshot());
    }

    #[test]
    fn merge_is_commutative_and_identity_on_empty() {
        let a_src = Histogram::new();
        let b_src = Histogram::new();
        for v in [3u64, 99, 4096, 70_000] {
            a_src.record(v);
        }
        for v in [1u64, 99, 1 << 30] {
            b_src.record(v);
        }
        let (a, b) = (a_src.snapshot(), b_src.snapshot());
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut with_empty = a.clone();
        with_empty.merge(&HistogramSnapshot::empty());
        assert_eq!(with_empty, a);
        assert_eq!(ab.count(), a.count() + b.count());
        assert_eq!(ab.sum(), a.sum() + b.sum());
    }

    #[test]
    fn registry_dedupes_and_renders() {
        let r = Registry::new();
        let c1 = r.counter("dpod_test_total", "test counter", &[("kind", "a")]);
        let c2 = r.counter("dpod_test_total", "test counter", &[("kind", "a")]);
        let c3 = r.counter("dpod_test_total", "test counter", &[("kind", "b")]);
        c1.add(3);
        c3.inc();
        assert_eq!(c2.get(), 3, "same name+labels must be the same handle");
        let g = r.gauge("dpod_depth", "queue depth", &[]);
        g.set(7);
        r.counter("dpod_eps_total", "escaping", &[("release", "ci\"ty")])
            .add(5);
        let h = r.histogram("dpod_lat_nanoseconds", "latency", &[("stage", "exec")]);
        h.record(1000);
        h.record(2000);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE dpod_test_total counter"), "{text}");
        assert!(text.contains("dpod_test_total{kind=\"a\"} 3"), "{text}");
        assert!(text.contains("dpod_test_total{kind=\"b\"} 1"), "{text}");
        assert!(text.contains("dpod_depth 7"), "{text}");
        assert!(text.contains("release=\"ci\\\"ty\"} 5"), "{text}");
        assert!(
            text.contains("# TYPE dpod_lat_nanoseconds summary"),
            "{text}"
        );
        assert!(
            text.contains("dpod_lat_nanoseconds{stage=\"exec\",quantile=\"0.5\"}"),
            "{text}"
        );
        assert!(
            text.contains("dpod_lat_nanoseconds_sum{stage=\"exec\"} 3000"),
            "{text}"
        );
        assert!(
            text.contains("dpod_lat_nanoseconds_count{stage=\"exec\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn snapshot_lookups_match_the_rendering() {
        let r = Registry::new();
        r.counter("dpod_hits_total", "hits", &[("memo", "a")])
            .add(2);
        r.counter("dpod_hits_total", "hits", &[("memo", "b")])
            .add(5);
        let levels = r.counter_vec("dpod_level_hits_total", "per level", "level", 4);
        levels.inc(2);
        levels.inc(2);
        levels.inc(9); // past the end: ignored
        r.histogram("dpod_lat_nanoseconds", "latency", &[])
            .record(40);
        let snap = r.snapshot();
        assert_eq!(snap.get("dpod_hits_total", &[("memo", "b")]), Some(5.0));
        assert_eq!(snap.get("dpod_hits_total", &[]), None);
        assert_eq!(snap.sum("dpod_hits_total"), 7.0);
        assert_eq!(
            snap.get("dpod_level_hits_total", &[("level", "2")]),
            Some(2.0)
        );
        assert_eq!(snap.get("dpod_lat_nanoseconds_count", &[]), Some(1.0));
        let text = snap.render_prometheus();
        assert!(
            text.contains("# TYPE dpod_level_hits_total counter"),
            "{text}"
        );
        assert!(
            text.contains("dpod_level_hits_total{level=\"2\"} 2\n"),
            "{text}"
        );
        assert!(
            !text.contains("level=\"0\""),
            "uncounted slots stay out: {text}"
        );
        // Every sample renders as exactly one `name{labels} value` line.
        let lines = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(lines, snap.samples().count());
    }

    #[test]
    fn span_and_clock_measure_forward_time() {
        let clock = Clock::new();
        let t0 = clock.now_nanos();
        let h = Histogram::new();
        let span = Span::start();
        std::hint::black_box((0..1000).sum::<u64>());
        span.finish(&h);
        span.finish(&h); // a Copy span can close twice from one start
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert!(clock.now_nanos() >= t0);
    }
}
