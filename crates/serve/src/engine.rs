//! The query engine: one cached entry per release, one memo per entry.
//!
//! A `PublishedRelease` must be rebuilt (`O(domain size)`) into a
//! [`SanitizedMatrix`](dpod_core::SanitizedMatrix) before it can answer,
//! so the engine caches one entry per release name under an LRU byte
//! budget. The entry holds the release's [`ReleaseIndex`], which owns the
//! rebuilt matrix and fills its aggregate tables lazily, and one plan
//! memo keyed by [`QueryPlan::write_key`] bytes: per plan, the answer as
//! one epoch's window partial and the response bytes per
//! [`ResponseEncoding`]. Re-serving a memoized answer is
//! post-processing of a published release, so it costs no ε.
//!
//! A rebuild has two halves: *build* turns a release into a fresh
//! index outside the cache lock, and *adopt* caches it under the lock
//! if the catalog still serves that version. A lookup that misses runs
//! both on the querying thread.
//! [`Server::publish_epoch`](crate::Server::publish_epoch) runs the build
//! on the publisher's thread instead, before the catalog swap, when
//! analysts are already querying the series, and adopts the index
//! after it, so the first plan over the new epoch finds it resident
//! (other publishes only validate the release and leave the build to
//! the first lookup).
//!
//! The entry records the catalog version it was built from, and the
//! catalog only hands out a name's latest version: a lookup for another
//! version misses, and caching the new version drops the old entry with
//! every memo on it. A republish never serves stale answers, and
//! republishing one epoch of a series invalidates only that epoch.
//!
//! Hits, misses, rebuild and index build time, and residency (entries
//! and bytes per memo, and the cache total the budget is enforced
//! against) live in a `dpod_obs` [`Registry`] (the server's, so
//! `/metrics` and `Stats` read them there). Indexes add what they
//! memoize to the total themselves.

use crate::{Catalog, CatalogEntry, ResponseEncoding, ServeError};
use dpod_core::PublishedRelease;
use dpod_obs::{Counter, Gauge, Registry};
use dpod_query::{Answer, IndexCounters, QueryPlan, ReleaseIndex};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One memo's registry handles, labelled `memo`:
/// `dpod_engine_memo_{hits,misses}_total` and the residency gauges
/// `dpod_engine_memo_{entries,bytes}`.
#[derive(Debug)]
struct MemoCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    entries: Arc<Gauge>,
    bytes: Arc<Gauge>,
}

impl MemoCounters {
    fn register(registry: &Registry, memo: &str) -> Self {
        let labels = &[("memo", memo)];
        let counter = |name: &str, help: &str| registry.counter(name, help, labels);
        let gauge = |name: &str, help: &str| registry.gauge(name, help, labels);
        MemoCounters {
            hits: counter(
                "dpod_engine_memo_hits_total",
                "Engine memo lookups answered from a resident entry, by memo",
            ),
            misses: counter(
                "dpod_engine_memo_misses_total",
                "Engine memo lookups that had to compute the entry, by memo",
            ),
            entries: gauge(
                "dpod_engine_memo_entries",
                "Engine memo entries resident, by memo",
            ),
            bytes: match memo {
                // Matrix and index bytes show only in the cache total.
                "matrix" | "index" => Arc::default(),
                _ => gauge(
                    "dpod_engine_memo_bytes",
                    "Bytes a memo holds inside dpod_engine_cache_bytes, by memo",
                ),
            },
        }
    }

    /// Counts one resident entry of `bytes` in.
    fn hold(&self, bytes: usize) {
        self.entries.add(1);
        self.bytes.add(bytes as u64);
    }

    /// Counts one resident entry of `bytes` out.
    fn release(&self, bytes: usize) {
        self.entries.sub(1);
        self.bytes.sub(bytes as u64);
    }
}

/// A memoizing release cache with a shared LRU byte budget.
#[derive(Debug)]
pub struct QueryEngine {
    /// Consulted before a fresh result is cached: only the version the
    /// catalog serves may enter the cache.
    catalog: Arc<Catalog>,
    byte_budget: usize,
    state: Mutex<LruState>,
    matrix: MemoCounters,
    index: MemoCounters,
    partial: MemoCounters,
    encoded: MemoCounters,
    /// `dpod_engine_rebuild_nanoseconds_total`: time spent turning
    /// releases into indexes, on lookups and at publish alike.
    rebuild_nanos: Arc<Counter>,
    /// Build time and pyramid handles shared by every index, and
    /// `resident_bytes`: the `dpod_engine_cache_bytes` total, which
    /// indexes and entries both add to.
    index_counters: IndexCounters,
}

#[derive(Debug, Default)]
struct LruState {
    map: HashMap<String, Cached>,
    tick: u64,
}

/// One cached release: its index and every answer memoized over it.
#[derive(Debug)]
struct Cached {
    /// The catalog version the index was built from.
    version: u64,
    index: Arc<ReleaseIndex>,
    /// The plan memo, keyed by [`QueryPlan::write_key`] bytes.
    plans: HashMap<Box<[u8]>, PlanMemo>,
    /// Bytes charged for `plans`.
    plan_bytes: usize,
    last_used: u64,
}

/// Everything memoized for one plan on one release.
#[derive(Debug, Default)]
struct PlanMemo {
    /// The answer as one epoch's share of a window plan, with the bytes
    /// it was charged. Boxed: most plans never run inside a window.
    partial: Option<Box<(Answer, usize)>>,
    /// The exact response bytes, indexed by [`ResponseEncoding`].
    encoded: [Option<Arc<Vec<u8>>>; ResponseEncoding::BinaryPacked as usize + 1],
    /// Query units the answer counts for, so warm hits bump the same
    /// accounting a cold execution would.
    units: u64,
}

/// Bytes charged for one memoized response: payload, key and a small
/// per-entry overhead.
fn encoded_cost(key: &[u8], bytes: &[u8]) -> usize {
    bytes.len() + key.len() + 64
}

/// Estimated resident bytes of one memoized answer (heap payload plus a
/// small per-node overhead), used to charge plan partials against the
/// shared LRU budget.
fn answer_bytes(answer: &Answer) -> usize {
    match answer {
        Answer::Value { .. } => 32,
        Answer::Marginal { dims, values } => 64 + dims.len() * 8 + values.len() * 8,
        Answer::TopK { dims, cells } => {
            64 + dims.len() * 8 + cells.iter().map(|c| 48 + c.coords.len() * 8).sum::<usize>()
        }
        Answer::Many { answers } | Answer::Epochs { answers, .. } => {
            64 + answers.iter().map(answer_bytes).sum::<usize>()
        }
    }
}

/// Runs `f` on `plan`'s memo key, written into a per-thread buffer so a
/// warm lookup allocates nothing.
fn with_plan_key<R>(plan: &QueryPlan, f: impl FnOnce(&[u8]) -> R) -> R {
    thread_local! {
        static KEY: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
    }
    let mut key = KEY.take();
    key.clear();
    plan.write_key(&mut key);
    let out = f(&key);
    KEY.set(key);
    out
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Cached releases currently resident.
    pub entries: usize,
    /// Estimated resident bytes: rebuilt matrices, what their indexes
    /// memoized, window partials and encoded responses.
    pub bytes: usize,
    /// Lifetime matrix-cache hits. A matrix is looked up only when its
    /// index misses, and both live in one entry, so this stays 0.
    pub hits: u64,
    /// Lifetime matrix-cache misses (— rebuilds performed).
    pub misses: u64,
    /// Resident releases whose plan index is built (all of them).
    pub index_entries: usize,
    /// Lifetime index-cache hits (plans answered by a resident
    /// [`ReleaseIndex`]).
    pub index_hits: u64,
    /// Lifetime index-cache misses (— indexes constructed).
    pub index_misses: u64,
    /// Memoized window-plan partials currently resident (across all
    /// cached epochs).
    pub partial_entries: usize,
    /// Lifetime window-partial hits (per-epoch answers served from the
    /// memo instead of re-executing the plan).
    pub partial_hits: u64,
    /// Lifetime window-partial misses (— per-epoch plan executions).
    pub partial_misses: u64,
    /// Memoized encoded responses currently resident (across all
    /// cached releases and encodings).
    pub encoded_entries: usize,
    /// Lifetime encoded-memo hits (responses served as a memcpy of
    /// cached wire bytes, skipping execution and encoding).
    pub encoded_hits: u64,
    /// Lifetime encoded-memo misses (— responses executed and encoded).
    pub encoded_misses: u64,
    /// Resident bytes held by the encoded-response memo.
    pub encoded_bytes: usize,
    /// Cumulative wall-clock nanoseconds spent rebuilding releases into
    /// indexes (validation, the per-cell estimate and its prefix
    /// table), whether a lookup missed or a publish warmed the entry.
    pub rebuild_nanos: u64,
    /// Cumulative wall-clock nanoseconds spent building index
    /// structures (marginal tables, cell orders, pyramid levels),
    /// evicted indexes included.
    pub index_build_nanos: u64,
    /// Memoized resolution-pyramid levels currently resident (across
    /// all cached releases).
    pub pyramid_entries: usize,
    /// Resident bytes held by memoized pyramid levels.
    pub pyramid_bytes: usize,
    /// Lifetime pyramid-memo hits (drill-down plans answered from a
    /// resident coarse level), evicted indexes included.
    pub pyramid_hits: u64,
    /// Lifetime pyramid-memo misses (— coarse levels built).
    pub pyramid_misses: u64,
}

impl QueryEngine {
    /// An engine caching up to ~`byte_budget` bytes of `catalog`'s
    /// releases, counting into a private registry.
    ///
    /// A single release larger than the whole budget is still cached (the
    /// alternative — rebuilding on every query — is strictly worse); the
    /// budget then holds exactly that one entry.
    pub fn new(catalog: Arc<Catalog>, byte_budget: usize) -> Self {
        Self::with_registry(catalog, byte_budget, &Registry::new())
    }

    /// [`Self::new`], but counting into `registry`.
    pub fn with_registry(catalog: Arc<Catalog>, byte_budget: usize, registry: &Registry) -> Self {
        let [matrix, index, partial, encoded, pyramid] =
            ["matrix", "index", "partial", "encoded", "pyramid"]
                .map(|memo| MemoCounters::register(registry, memo));
        QueryEngine {
            catalog,
            byte_budget,
            state: Mutex::new(LruState::default()),
            matrix,
            index,
            partial,
            encoded,
            rebuild_nanos: registry.counter(
                "dpod_engine_rebuild_nanoseconds_total",
                "Cumulative nanoseconds spent rebuilding releases into indexes",
                &[],
            ),
            index_counters: IndexCounters {
                build_nanos: registry.counter(
                    "dpod_engine_index_build_nanoseconds_total",
                    "Cumulative nanoseconds spent building plan-index structures",
                    &[],
                ),
                pyramid_hits: pyramid.hits,
                pyramid_misses: pyramid.misses,
                pyramid_level_hits: registry.counter_vec(
                    "dpod_engine_pyramid_level_hits_total",
                    "Warm pyramid hits per level",
                    "level",
                    dpod_query::backend::PYRAMID_LEVEL_SLOTS,
                ),
                resident_bytes: registry.gauge(
                    "dpod_engine_cache_bytes",
                    "Engine cache resident bytes, every memo included",
                    &[],
                ),
                pyramid_entries: pyramid.entries,
                pyramid_bytes: pyramid.bytes,
            },
        }
    }

    fn lock(&self) -> MutexGuard<'_, LruState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The cache total: entries plus what their indexes memoized.
    fn cache_bytes(&self) -> &Gauge {
        &self.index_counters.resident_bytes
    }

    /// Evicts least-recently-used entries (never `keep`) until the
    /// budget holds.
    fn enforce_budget(&self, state: &mut LruState, keep: &str) {
        while self.cache_bytes().get() as usize > self.byte_budget && state.map.len() > 1 {
            let victim = state
                .map
                .iter()
                .filter(|(name, _)| name.as_str() != keep)
                .min_by_key(|(_, c)| c.last_used)
                .map(|(name, _)| name.clone());
            match victim.and_then(|name| state.map.remove(&name)) {
                Some(evicted) => self.forget(&evicted),
                None => break,
            }
        }
    }

    /// Takes a dropped entry off the gauges, its index's bytes included.
    fn forget(&self, cached: &Cached) {
        self.cache_bytes().sub(cached.plan_bytes as u64);
        self.matrix.release(0);
        self.index.release(0);
        for (key, memo) in &cached.plans {
            if let Some(partial) = &memo.partial {
                self.partial.release(partial.1);
            }
            for bytes in memo.encoded.iter().flatten() {
                self.encoded.release(encoded_cost(key, bytes));
            }
        }
        cached.index.retire();
    }

    /// The one fill routine behind every memo. `get` reads the value
    /// from a resident entry of `entry`'s version; a hit returns it. On
    /// a miss, `compute` runs outside the lock against the entry's
    /// index (rebuilt and cached first when the entry is not resident),
    /// and `put` caches the value in that entry, returning the bytes it
    /// charged. A value is cached only while the entry is resident and
    /// the catalog still serves its version (checked under the lock);
    /// otherwise it is served uncached. A value a racing fill cached
    /// first wins, and errors are never memoized.
    ///
    /// `memo` is the plan memo being filled, or `None` for the index
    /// itself, whose lookup is the entry lookup.
    fn fill<T>(
        &self,
        entry: &CatalogEntry,
        memo: Option<&MemoCounters>,
        get: impl Fn(&Cached) -> Option<T>,
        compute: impl FnOnce(&Arc<ReleaseIndex>) -> Result<T, ServeError>,
        put: impl FnOnce(&mut Cached, &T) -> usize,
    ) -> Result<T, ServeError> {
        let name = entry.name.as_str();
        let resident = {
            let mut guard = self.lock();
            let state = &mut *guard;
            state.tick += 1;
            let mut resident = None;
            if let Some(c) = state
                .map
                .get_mut(name)
                .filter(|c| c.version == entry.version)
            {
                c.last_used = state.tick;
                if let Some(value) = get(c) {
                    memo.unwrap_or(&self.index).hits.inc();
                    // Index tables grow as plans execute.
                    self.enforce_budget(state, name);
                    return Ok(value);
                }
                resident = Some(Arc::clone(&c.index));
            }
            resident
        };
        if let Some(memo) = memo {
            memo.misses.inc();
        }
        let index = match resident {
            Some(index) => {
                self.index.hits.inc();
                index
            }
            None => self.rebuild(entry)?,
        };
        let value = compute(&index)?;
        let mut guard = self.lock();
        let state = &mut *guard;
        let Some(c) = state.map.get_mut(name) else {
            return Ok(value);
        };
        // A value that raced a removal, republish or eviction is served
        // but never cached.
        if !Arc::ptr_eq(&c.index, &index) || !self.is_current(name, entry.version) {
            return Ok(value);
        }
        if let Some(winner) = get(c) {
            return Ok(winner);
        }
        let cost = put(c, &value);
        c.plan_bytes += cost;
        self.cache_bytes().add(cost as u64);
        memo.expect("a resident entry always yields its index")
            .hold(cost);
        self.enforce_budget(state, name);
        Ok(value)
    }

    /// Rebuilds `entry`'s release and caches the index as the name's
    /// entry: [`Self::build`] then [`Self::adopt`]. The build runs
    /// outside the lock: concurrent first touches of one release may
    /// rebuild twice, but a slow rebuild never blocks queries against
    /// other releases.
    fn rebuild(&self, entry: &CatalogEntry) -> Result<Arc<ReleaseIndex>, ServeError> {
        let index = self.build(&entry.name, &entry.release)?;
        Ok(self.adopt(&entry.name, entry.version, index))
    }

    /// The build half of a rebuild, run without the lock: validates
    /// `release` (to be served as `name`) and rebuilds it into a fresh
    /// index, counting a matrix and an index miss and the time taken.
    ///
    /// # Errors
    /// [`ServeError`] when the release fails validation.
    pub(crate) fn build(
        &self,
        name: &str,
        release: &PublishedRelease,
    ) -> Result<Arc<ReleaseIndex>, ServeError> {
        self.index.misses.inc();
        self.matrix.misses.inc();
        let started = Instant::now();
        let matrix = release.clone().into_sanitized();
        let index = matrix.map(|matrix| {
            Arc::new(ReleaseIndex::with_counters(
                Arc::new(matrix),
                dpod_query::backend::DEFAULT_MARGINAL_BUDGET,
                self.index_counters.clone(),
            ))
        });
        self.rebuild_nanos
            .add(started.elapsed().as_nanos().try_into().unwrap_or(u64::MAX));
        index.map_err(|e| ServeError(format!("release '{name}' is invalid: {e}")))
    }

    /// The adopt half of a rebuild, run under the lock: caches `index`
    /// as `name`'s entry at catalog `version`, replacing an older
    /// version's, and returns it, unless the catalog no longer serves
    /// that version or a racing rebuild got there first. Then the index
    /// is retired, and the racing winner (or the uncached index) is
    /// returned.
    pub(crate) fn adopt(
        &self,
        name: &str,
        version: u64,
        index: Arc<ReleaseIndex>,
    ) -> Arc<ReleaseIndex> {
        let mut guard = self.lock();
        let state = &mut *guard;
        state.tick += 1;
        // Versions are monotonic per name: a fresh index replaces an
        // older version, never a newer one or a racing winner.
        let held = state.map.get(name);
        if let Some(c) = held.filter(|c| c.version == version) {
            index.retire();
            return Arc::clone(&c.index);
        }
        if held.is_some_and(|c| c.version > version) || !self.is_current(name, version) {
            index.retire();
            return index;
        }
        let cached = Cached {
            version,
            index: Arc::clone(&index),
            plans: HashMap::new(),
            plan_bytes: 0,
            last_used: state.tick,
        };
        if let Some(stale) = state.map.insert(name.to_string(), cached) {
            self.forget(&stale);
        }
        self.matrix.hold(0);
        self.index.hold(0);
        self.enforce_budget(state, name);
        index
    }

    /// Whether any of `names` has a resident entry, of any version:
    /// someone has queried it since it was last evicted.
    pub(crate) fn any_resident<'a>(&self, mut names: impl Iterator<Item = &'a str>) -> bool {
        let state = self.lock();
        names.any(|name| state.map.contains_key(name))
    }

    /// Whether the catalog still serves `name` at `version`. Asked under
    /// the cache lock, which [`Self::evict`] also takes, so a result
    /// computed while a removal or republish lands is served but never
    /// cached, and cannot strand an entry no request can reach.
    fn is_current(&self, name: &str, version: u64) -> bool {
        self.catalog
            .get(name)
            .is_some_and(|current| current.version == version)
    }

    /// Returns the release's prepared [`ReleaseIndex`], from cache when
    /// warm; a cold call rebuilds the release and caches the index.
    ///
    /// # Errors
    /// [`ServeError`] when the artifact fails validation (tampered or
    /// corrupt release) — nothing is cached in that case.
    pub fn index(&self, entry: &CatalogEntry) -> Result<Arc<ReleaseIndex>, ServeError> {
        self.fill(
            entry,
            None,
            |c| Some(Arc::clone(&c.index)),
            |index| Ok(Arc::clone(index)),
            |_, _| unreachable!("a resident entry always yields its index"),
        )
    }

    /// Answers `plan` as one epoch's share of a window plan, memoized
    /// per `(entry, plan)` like [`Self::encoded_response`]. A republish
    /// of one epoch invalidates only
    /// that epoch's partials, so a sliding window over k epochs after
    /// one republish re-executes one epoch, not k.
    ///
    /// # Errors
    /// As for [`Self::index`], plus plan-validation failures.
    pub fn window_partial(
        &self,
        entry: &CatalogEntry,
        plan: &QueryPlan,
    ) -> Result<Answer, ServeError> {
        with_plan_key(plan, |key| {
            self.fill(
                entry,
                Some(&self.partial),
                |c| c.plans.get(key)?.partial.as_ref().map(|p| p.0.clone()),
                |index| {
                    dpod_query::plan::execute_with(index.as_ref(), plan)
                        .map_err(|e| ServeError(e.0))
                },
                |c, answer| {
                    let cost = answer_bytes(answer) + key.len();
                    let partial = Box::new((answer.clone(), cost));
                    c.plans.entry(key.into()).or_default().partial = Some(partial);
                    cost
                },
            )
        })
    }

    /// Serves one plan request's response bytes in `enc`: a warm
    /// `(entry, plan, enc)` returns the memoized bytes — no execution,
    /// no serialization — with the query units the answer counts for; a
    /// cold one runs `compute` (execute and encode) against the
    /// release's index and memoizes the result.
    ///
    /// # Errors
    /// As for [`Self::index`], plus whatever `compute` returns.
    pub fn encoded_response(
        &self,
        entry: &CatalogEntry,
        enc: ResponseEncoding,
        plan: &QueryPlan,
        compute: impl FnOnce(&ReleaseIndex) -> Result<(Vec<u8>, u64), ServeError>,
    ) -> Result<(Arc<Vec<u8>>, u64), ServeError> {
        let slot = enc as usize;
        with_plan_key(plan, |key| {
            self.fill(
                entry,
                Some(&self.encoded),
                |c| {
                    let memo = c.plans.get(key)?;
                    Some((Arc::clone(memo.encoded[slot].as_ref()?), memo.units))
                },
                |index| compute(index).map(|(bytes, units)| (Arc::new(bytes), units)),
                |c, (bytes, units)| {
                    let memo = c.plans.entry(key.into()).or_default();
                    memo.encoded[slot] = Some(Arc::clone(bytes));
                    memo.units = *units;
                    encoded_cost(key, bytes)
                },
            )
        })
    }

    /// Drops the cached entry of `name` with every memo on it,
    /// returning the bytes reclaimed. Used when a release is removed
    /// outright: no future request can reach the entry, so leaving it to
    /// LRU pressure would strand its bytes on an idle server.
    pub fn evict(&self, name: &str) -> usize {
        let dropped = self.lock().map.remove(name);
        dropped.map_or(0, |dropped| {
            self.forget(&dropped);
            dropped.index.resident_bytes() + dropped.plan_bytes
        })
    }

    /// Drops every cached entry (counters are preserved).
    pub fn clear(&self) {
        for (_, dropped) in self.lock().map.drain() {
            self.forget(&dropped);
        }
    }

    /// Current residency and lifetime counters, read from the registry
    /// handles.
    pub fn stats(&self) -> EngineStats {
        let n = |g: &Gauge| g.get() as usize;
        let ix = &self.index_counters;
        EngineStats {
            entries: n(&self.matrix.entries),
            bytes: n(self.cache_bytes()),
            hits: self.matrix.hits.get(),
            misses: self.matrix.misses.get(),
            index_entries: n(&self.index.entries),
            index_hits: self.index.hits.get(),
            index_misses: self.index.misses.get(),
            partial_entries: n(&self.partial.entries),
            partial_hits: self.partial.hits.get(),
            partial_misses: self.partial.misses.get(),
            encoded_entries: n(&self.encoded.entries),
            encoded_hits: self.encoded.hits.get(),
            encoded_misses: self.encoded.misses.get(),
            encoded_bytes: n(&self.encoded.bytes),
            rebuild_nanos: self.rebuild_nanos.get(),
            index_build_nanos: ix.build_nanos.get(),
            pyramid_entries: n(&ix.pyramid_entries),
            pyramid_bytes: n(&ix.pyramid_bytes),
            pyramid_hits: ix.pyramid_hits.get(),
            pyramid_misses: ix.pyramid_misses.get(),
        }
    }

    /// Plan memos resident across every entry.
    #[cfg(test)]
    pub(crate) fn plan_memos(&self) -> usize {
        self.lock().map.values().map(|c| c.plans.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Catalog;
    use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
    use dpod_dp::Epsilon;
    use dpod_fmatrix::{AxisBox, DenseMatrix, Shape};
    use dpod_query::{PlanBackend, QueryPlan};

    const TOTAL: QueryPlan = QueryPlan::Total;
    const BIN: ResponseEncoding = ResponseEncoding::Binary;

    fn catalog_with(names: &[&str], side: usize) -> Arc<Catalog> {
        let c = Arc::new(Catalog::new());
        for (i, name) in names.iter().enumerate() {
            let s = Shape::new(vec![side, side]).unwrap();
            let mut m = DenseMatrix::<u64>::zeros(s);
            m.add_at(&[1, 1], 100 + i as u64).unwrap();
            let out = Ebp::default()
                .sanitize(
                    &m,
                    Epsilon::new(0.5).unwrap(),
                    &mut dpod_dp::seeded_rng(i as u64),
                )
                .unwrap();
            c.publish(name, PublishedRelease::from_sanitized(&out));
        }
        c
    }

    #[test]
    fn second_access_hits_cache() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        let e = c.get("a").unwrap();
        let m1 = engine.index(&e).unwrap();
        let m2 = engine.index(&e).unwrap();
        assert!(Arc::ptr_eq(&m1, &m2));
        let stats = engine.stats();
        assert_eq!(stats.index_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn republish_invalidates_by_version() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        let v1 = engine.index(&c.get("a").unwrap()).unwrap();
        // Republish under the same name.
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[2, 2], 999).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(42))
            .unwrap();
        c.publish("a", PublishedRelease::from_sanitized(&out));
        let v2 = engine.index(&c.get("a").unwrap()).unwrap();
        assert!(!Arc::ptr_eq(&v1, &v2));
        let q = AxisBox::new(vec![0, 0], vec![8, 8]).unwrap();
        assert_ne!(v1.matrix().range_sum(&q), v2.matrix().range_sum(&q));
    }

    #[test]
    fn remove_then_republish_never_serves_stale_answers() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        let old = engine.index(&c.get("a").unwrap()).unwrap();
        c.remove("a");
        // Republish different data under the same name.
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[5, 5], 7_777).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(90))
            .unwrap();
        c.publish("a", PublishedRelease::from_sanitized(&out));
        let fresh = engine.index(&c.get("a").unwrap()).unwrap();
        assert!(
            !Arc::ptr_eq(&old, &fresh),
            "cache must not serve the removed release"
        );
        let q = AxisBox::new(vec![0, 0], vec![8, 8]).unwrap();
        assert_eq!(fresh.matrix().range_sum(&q), out.range_sum(&q));
    }

    #[test]
    fn lru_evicts_cold_entries_under_budget() {
        let c = catalog_with(&["a", "b", "c"], 16);
        // Measure one rebuild's charged size, then budget for exactly two.
        let probe = QueryEngine::new(Arc::clone(&c), usize::MAX);
        probe.index(&c.get("a").unwrap()).unwrap();
        let per_entry = probe.stats().bytes;
        let engine = QueryEngine::new(Arc::clone(&c), per_entry * 2 + per_entry / 2);
        let (ea, eb, ec) = (
            c.get("a").unwrap(),
            c.get("b").unwrap(),
            c.get("c").unwrap(),
        );
        engine.index(&ea).unwrap();
        engine.index(&eb).unwrap();
        engine.index(&ea).unwrap(); // refresh a; b is now LRU
        engine.index(&ec).unwrap(); // evicts b
        assert_eq!(engine.stats().entries, 2);
        let misses_before = engine.stats().misses;
        engine.index(&ea).unwrap(); // still cached
        assert_eq!(engine.stats().misses, misses_before);
        engine.index(&eb).unwrap(); // rebuilt
        assert_eq!(engine.stats().misses, misses_before + 1);
    }

    /// Charged resident size of one entry, measured with a throwaway
    /// engine (sizes vary per release with its partition structure).
    fn charged_bytes(c: &Arc<Catalog>, entry: &crate::CatalogEntry) -> usize {
        let probe = QueryEngine::new(Arc::clone(c), usize::MAX);
        probe.index(entry).unwrap();
        probe.stats().bytes
    }

    #[test]
    fn eviction_returns_the_victims_bytes() {
        let c = catalog_with(&["a", "b", "c"], 16);
        let (ea, eb, ec) = (
            c.get("a").unwrap(),
            c.get("b").unwrap(),
            c.get("c").unwrap(),
        );
        let (sa, sb, sc) = (
            charged_bytes(&c, &ea),
            charged_bytes(&c, &eb),
            charged_bytes(&c, &ec),
        );
        assert!(sa > 0 && sb > 0 && sc > 0);

        // Budget one byte short of all three: the third insert must
        // evict exactly the LRU entry and give its bytes back.
        let engine = QueryEngine::new(Arc::clone(&c), sa + sb + sc - 1);
        engine.index(&ea).unwrap();
        engine.index(&eb).unwrap();
        assert_eq!(engine.stats().bytes, sa + sb);
        engine.index(&ec).unwrap(); // evicts a (the LRU)
        let stats = engine.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(
            stats.bytes,
            sb + sc,
            "the evicted entry's bytes must come back off the ledger"
        );
    }

    #[test]
    fn republish_drops_the_stale_version_immediately() {
        let c = catalog_with(&["a", "b"], 16);
        let engine = QueryEngine::new(Arc::clone(&c), usize::MAX);
        engine.index(&c.get("a").unwrap()).unwrap();
        let eb = c.get("b").unwrap();
        engine.index(&eb).unwrap();
        let sb = charged_bytes(&c, &eb);

        // Republish 'a': resolving the new version must replace — not
        // sit beside — the (a, v1) rebuild, under zero LRU pressure.
        let s = Shape::new(vec![16, 16]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[3, 3], 4_242).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(55))
            .unwrap();
        c.publish("a", PublishedRelease::from_sanitized(&out));
        let ea2 = c.get("a").unwrap();
        assert_eq!(ea2.version, 2);
        engine.index(&ea2).unwrap();

        let stats = engine.stats();
        assert_eq!(stats.entries, 2, "stale (a, v1) must be dropped");
        assert_eq!(
            stats.bytes,
            sb + charged_bytes(&c, &ea2),
            "the stale version's bytes must not strand in the budget"
        );
        // And the fresh version answers from cache.
        let misses = stats.misses;
        engine.index(&ea2).unwrap();
        assert_eq!(engine.stats().misses, misses);
    }

    #[test]
    fn rebuild_racing_a_removal_is_served_but_not_cached() {
        // Models the remove/rebuild race: by the time the rebuild is
        // ready to cache, the catalog no longer serves the entry (the
        // release was removed and `evict` already ran).
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        let entry = c.get("a").unwrap();
        c.remove("a");
        let served = engine.index(&entry).unwrap();
        assert!(served.total().is_finite());
        let stats = engine.stats();
        assert_eq!(stats.entries, 0, "stale rebuild must not be cached");
        assert_eq!(stats.bytes, 0);
        // A current rebuild caches as usual.
        c.publish("a", entry.release.as_ref().clone());
        engine.index(&c.get("a").unwrap()).unwrap();
        assert_eq!(engine.stats().entries, 1);
    }

    #[test]
    fn straggler_rebuild_of_an_old_version_cannot_evict_the_new_cache() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        // A request resolved the v1 entry… and then a republish lands
        // before its rebuild reaches the cache.
        let old_entry = c.get("a").unwrap();
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[6, 6], 1_234).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(91))
            .unwrap();
        c.publish("a", PublishedRelease::from_sanitized(&out));
        let new_entry = c.get("a").unwrap();
        let fresh = engine.index(&new_entry).unwrap();

        // The straggler is served its v1 answer but must neither evict
        // the fresh (a, v2) entry nor cache the unreachable (a, v1).
        let served = engine.index(&old_entry).unwrap();
        assert!(!Arc::ptr_eq(&served, &fresh));
        assert_eq!(engine.stats().entries, 1);
        let hits = engine.stats().index_hits;
        let again = engine.index(&new_entry).unwrap();
        assert!(Arc::ptr_eq(&again, &fresh), "v2 must still answer warm");
        assert_eq!(engine.stats().index_hits, hits + 1);
    }

    #[test]
    fn oversized_release_is_still_served() {
        let c = catalog_with(&["big"], 32);
        let engine = QueryEngine::new(Arc::clone(&c), 16); // far below one rebuild
        let e = c.get("big").unwrap();
        assert!(engine.index(&e).is_ok());
        assert_eq!(engine.stats().entries, 1);
        // And it stays cached (evicting the only entry would thrash).
        engine.index(&e).unwrap();
        assert_eq!(engine.stats().index_hits, 1);
    }

    #[test]
    fn invalid_release_errors_and_is_not_cached() {
        let c = Arc::new(Catalog::new());
        let mut release = {
            let s = Shape::new(vec![4, 4]).unwrap();
            let m = DenseMatrix::<u64>::zeros(s);
            let out = Ebp::default()
                .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(1))
                .unwrap();
            PublishedRelease::from_sanitized(&out)
        };
        release.domain = vec![3, 3]; // tampered
        c.publish("bad", release);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        assert!(engine.index(&c.get("bad").unwrap()).is_err());
        assert_eq!(engine.stats().entries, 0);
    }

    #[test]
    fn clear_resets_residency() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        engine.index(&c.get("a").unwrap()).unwrap();
        engine.clear();
        let stats = engine.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.bytes, 0);
    }

    /// Warms every lazily-built structure the engine charges for: one
    /// marginal table, the sorted cell order, the total.
    fn warm_index(ix: &ReleaseIndex) {
        use dpod_query::{plan, QueryPlan};
        let plan = QueryPlan::Many {
            plans: vec![
                QueryPlan::Marginal { keep: vec![0] },
                QueryPlan::TopK { k: 3 },
                QueryPlan::Total,
            ],
        };
        plan::execute_with(ix, &plan).unwrap();
    }

    #[test]
    fn second_index_access_hits_cache() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        let e = c.get("a").unwrap();
        let i1 = engine.index(&e).unwrap();
        let i2 = engine.index(&e).unwrap();
        assert!(Arc::ptr_eq(&i1, &i2));
        let stats = engine.stats();
        assert_eq!((stats.index_hits, stats.index_misses), (1, 1));
        assert_eq!(stats.index_entries, 1);
        // The index ride-alongs on the matrix entry: one entry, and the
        // matrix path was exercised exactly once (by the index build).
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn index_bytes_are_accounted_and_reclaimed_under_a_tiny_budget() {
        let c = catalog_with(&["a", "b", "c"], 16);
        let (ea, eb, ec) = (
            c.get("a").unwrap(),
            c.get("b").unwrap(),
            c.get("c").unwrap(),
        );
        // Probe each entry's fully-warmed footprint (matrix + index)
        // and the unwarmed index base, with throwaway engines.
        let warmed = |e: &crate::CatalogEntry| {
            let probe = QueryEngine::new(Arc::clone(&c), usize::MAX);
            warm_index(&probe.index(e).unwrap());
            probe.stats().bytes
        };
        let (wa, wb) = (warmed(&ea), warmed(&eb));
        let base_c = {
            let probe = QueryEngine::new(Arc::clone(&c), usize::MAX);
            probe.index(&ec).unwrap();
            probe.stats().bytes
        };

        // Budget holds two warmed entries plus a bare third — minus one
        // byte, so attaching the third index must evict the LRU entry
        // and give back its *full* (matrix + grown index) bytes.
        let engine = QueryEngine::new(Arc::clone(&c), wa + wb + base_c - 1);
        warm_index(&engine.index(&ea).unwrap());
        warm_index(&engine.index(&eb).unwrap());
        assert_eq!(
            engine.stats().bytes,
            wa + wb,
            "ledger must track lazily-grown index bytes"
        );
        let ixc = engine.index(&ec).unwrap(); // evicts a (the LRU)
        let stats = engine.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.index_entries, 2);
        assert_eq!(
            stats.bytes,
            wb + base_c,
            "the victim's matrix and index bytes must both come back"
        );
        // Growing the surviving index keeps the ledger exact.
        warm_index(&ixc);
        let wc = warmed(&ec);
        assert_eq!(engine.stats().bytes, wb + wc);
        // And the evicted release rebuilds (and re-indexes) on demand.
        let before = engine.stats().index_misses;
        engine.index(&ea).unwrap();
        assert_eq!(engine.stats().index_misses, before + 1);
    }

    #[test]
    fn republish_invalidates_the_stale_index() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        let old_entry = c.get("a").unwrap();
        let old_ix = engine.index(&old_entry).unwrap();
        warm_index(&old_ix);
        let old_top = old_ix.top_k(1);

        // Republish different data under the same name.
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[7, 0], 9_999).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(61))
            .unwrap();
        c.publish("a", PublishedRelease::from_sanitized(&out));
        let new_entry = c.get("a").unwrap();
        let new_ix = engine.index(&new_entry).unwrap();
        assert!(!Arc::ptr_eq(&old_ix, &new_ix));
        // Exactly one resident entry: (a, v2). The stale (a, v1) index
        // left with its matrix.
        let stats = engine.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.index_entries, 1);
        // The new index answers over the new data, not the stale order.
        let new_top = new_ix.top_k(1);
        assert_ne!(old_top[0].value.to_bits(), new_top[0].value.to_bits());
        assert_eq!(
            new_top[0].value.to_bits(),
            out.range_sum(&AxisBox::cell(&new_top[0].coords)).to_bits()
        );
        // A straggler resolving the old entry is served, never cached.
        let straggler = engine.index(&old_entry).unwrap();
        assert!(!Arc::ptr_eq(&straggler, &new_ix));
        assert_eq!(engine.stats().entries, 1);
        let hits = engine.stats().index_hits;
        assert!(Arc::ptr_eq(&engine.index(&new_entry).unwrap(), &new_ix));
        assert_eq!(engine.stats().index_hits, hits + 1);
    }

    #[test]
    fn index_racing_a_removal_is_served_but_not_cached() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        let entry = c.get("a").unwrap();
        c.remove("a");
        let served = engine.index(&entry).unwrap();
        assert!(served.total().is_finite());
        let stats = engine.stats();
        assert_eq!(stats.entries, 0, "stale index must not be cached");
        assert_eq!(stats.index_entries, 0);
        // A current build caches as usual.
        c.publish("a", entry.release.as_ref().clone());
        engine.index(&c.get("a").unwrap()).unwrap();
        assert_eq!(engine.stats().index_entries, 1);
    }

    #[test]
    fn window_partials_memoize_per_entry() {
        use dpod_query::QueryPlan;
        let c = catalog_with(&["s@1", "s@2"], 8);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        let plan = QueryPlan::Total;
        let run = |entry: &crate::CatalogEntry| engine.window_partial(entry, &plan).unwrap();
        let e1 = c.get("s@1").unwrap();
        let e2 = c.get("s@2").unwrap();
        let a1 = run(&e1);
        let a2 = run(&e2);
        let stats = engine.stats();
        assert_eq!((stats.partial_hits, stats.partial_misses), (0, 2));
        assert_eq!(stats.partial_entries, 2);
        assert!(stats.bytes > 0);
        // Warm repeats serve the memo, bit for bit.
        assert_eq!(run(&e1), a1);
        assert_eq!(run(&e2), a2);
        let stats = engine.stats();
        assert_eq!((stats.partial_hits, stats.partial_misses), (2, 2));
    }

    #[test]
    fn republishing_one_epoch_keeps_the_others_partials_warm() {
        use dpod_query::QueryPlan;
        let c = catalog_with(&["s@1", "s@2"], 8);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        let plan = QueryPlan::TopK { k: 2 };
        let run = |entry: &crate::CatalogEntry| engine.window_partial(entry, &plan).unwrap();
        run(&c.get("s@1").unwrap());
        run(&c.get("s@2").unwrap());

        // Republish epoch 2 only.
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[4, 4], 777).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(70))
            .unwrap();
        c.publish("s@2", PublishedRelease::from_sanitized(&out));

        let (hits0, misses0) = {
            let s = engine.stats();
            (s.partial_hits, s.partial_misses)
        };
        // Epoch 1 still answers from the memo; epoch 2's new version is
        // a miss — exactly one re-execution for a one-epoch republish.
        run(&c.get("s@1").unwrap());
        run(&c.get("s@2").unwrap());
        let stats = engine.stats();
        assert_eq!(stats.partial_hits, hits0 + 1, "epoch 1 must stay warm");
        assert_eq!(stats.partial_misses, misses0 + 1);
    }

    #[test]
    fn failed_window_partials_are_not_memoized() {
        use dpod_query::QueryPlan;
        let c = catalog_with(&["s@1"], 8);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        // An invalid plan (2-D release has no dimension 9).
        let plan = QueryPlan::Marginal { keep: vec![9] };
        let entry = c.get("s@1").unwrap();
        for _ in 0..2 {
            let err = engine.window_partial(&entry, &plan);
            assert!(err.is_err());
        }
        let stats = engine.stats();
        assert_eq!(stats.partial_entries, 0, "errors must not be memoized");
        assert_eq!((stats.partial_hits, stats.partial_misses), (0, 2));
    }

    #[test]
    fn encoded_responses_memoize_per_entry_and_encoding() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        let entry = c.get("a").unwrap();
        // The memo rides the release's cache entry (in production the
        // compute path resolves it); create it as an executor would.
        engine.index(&entry).unwrap();
        // Two encodings of the same plan memoize independently.
        let run = |enc: ResponseEncoding, payload: &[u8]| {
            let payload = payload.to_vec();
            engine
                .encoded_response(&entry, enc, &TOTAL, move |_| Ok((payload, 3)))
                .unwrap()
        };
        let (b1, u1) = run(ResponseEncoding::Json, b"json bytes");
        assert_eq!((&b1[..], u1), (&b"json bytes"[..], 3));
        let (b2, _) = run(ResponseEncoding::Binary, b"frame bytes");
        assert_eq!(&b2[..], b"frame bytes");
        // Warm repeats return the first compute's bytes, bit for bit —
        // the second closure's payload is never consulted.
        let (warm, units) = run(ResponseEncoding::Json, b"IGNORED");
        assert!(Arc::ptr_eq(&warm, &b1));
        assert_eq!(units, 3);
        let stats = engine.stats();
        assert_eq!((stats.encoded_hits, stats.encoded_misses), (1, 2));
        assert_eq!(stats.encoded_entries, 2);
        assert!(stats.encoded_bytes > 0);

        // Errors are never memoized.
        let err: Result<_, ServeError> = engine.encoded_response(
            &entry,
            ResponseEncoding::Json,
            &QueryPlan::TopK { k: 1 },
            |_| Err(ServeError("nope".into())),
        );
        assert!(err.is_err());
        assert_eq!(engine.stats().encoded_entries, 2);

        // A compute that raced a removal is served but not cached.
        c.remove("a");
        let (served, _) = engine
            .encoded_response(
                &entry,
                ResponseEncoding::Json,
                &QueryPlan::TopK { k: 2 },
                |_| Ok((vec![1, 2], 1)),
            )
            .unwrap();
        assert_eq!(&served[..], &[1, 2]);
        assert_eq!(engine.stats().encoded_entries, 2);
    }

    #[test]
    fn encoded_memo_bytes_ride_the_shared_ledger() {
        let c = catalog_with(&["a", "b"], 16);
        let (ea, eb) = (c.get("a").unwrap(), c.get("b").unwrap());
        let (sa, sb) = (charged_bytes(&c, &ea), charged_bytes(&c, &eb));

        let engine = QueryEngine::new(Arc::clone(&c), usize::MAX);
        engine.index(&ea).unwrap();
        engine.index(&eb).unwrap();
        assert_eq!(
            engine.stats().bytes,
            sa + sb,
            "an unused encoded memo must charge zero bytes"
        );
        let payload = vec![0u8; 1 << 12];
        engine
            .encoded_response(&ea, BIN, &TOTAL, |_| Ok((payload, 1)))
            .unwrap();
        let stats = engine.stats();
        assert_eq!(stats.bytes, sa + sb + stats.encoded_bytes);
        assert!(stats.encoded_bytes >= 1 << 12);

        // Evicting the release reclaims the memo's bytes with it.
        let reclaimed = engine.evict("a");
        assert_eq!(reclaimed, sa + stats.encoded_bytes);
        let stats = engine.stats();
        assert_eq!((stats.bytes, stats.encoded_entries), (sb, 0));
        assert_eq!(stats.encoded_bytes, 0);
    }

    #[test]
    fn republish_invalidates_the_encoded_memo() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        let old = c.get("a").unwrap();
        engine
            .encoded_response(&old, BIN, &TOTAL, |_| Ok((b"v1".to_vec(), 1)))
            .unwrap();
        // Republish under the same name: the next resolve drops the
        // stale entry, so the memo misses and re-computes.
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[2, 2], 999).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(42))
            .unwrap();
        c.publish("a", PublishedRelease::from_sanitized(&out));
        let new = c.get("a").unwrap();
        engine.index(&new).unwrap(); // drops (a, v1) and its memo
        let (bytes, _) = engine
            .encoded_response(&new, BIN, &TOTAL, |_| Ok((b"v2".to_vec(), 1)))
            .unwrap();
        assert_eq!(&bytes[..], b"v2");
        let stats = engine.stats();
        assert_eq!((stats.encoded_hits, stats.encoded_misses), (0, 2));
        assert_eq!(stats.encoded_entries, 1);
    }

    #[test]
    fn pyramid_stats_aggregate_across_indexes_and_survive_eviction() {
        use dpod_query::{plan, QueryPlan};
        let c = catalog_with(&["a"], 16);
        let engine = QueryEngine::new(Arc::clone(&c), 1 << 20);
        let ix = engine.index(&c.get("a").unwrap()).unwrap();
        let drill = QueryPlan::DrillDown {
            level: 2,
            plan: Box::new(QueryPlan::Total),
        };
        plan::execute_with(&*ix, &drill).unwrap(); // builds level 2
        plan::execute_with(&*ix, &drill).unwrap(); // warm hit
        let stats = engine.stats();
        assert_eq!(
            (
                stats.pyramid_entries,
                stats.pyramid_hits,
                stats.pyramid_misses
            ),
            (1, 1, 1)
        );
        assert!(stats.pyramid_bytes > 0);
        assert_eq!(ix.counters().pyramid_level_hits.nonzero(), vec![(2, 1)]);
        // Eviction drops the resident level but the lifetime counters
        // survive: they live on handles shared across indexes.
        engine.evict("a");
        let stats = engine.stats();
        assert_eq!((stats.pyramid_entries, stats.pyramid_bytes), (0, 0));
        assert_eq!((stats.pyramid_hits, stats.pyramid_misses), (1, 1));
        assert_eq!(ix.counters().pyramid_level_hits.nonzero(), vec![(2, 1)]);
    }

    #[test]
    fn evict_drops_the_index_with_the_matrix() {
        let c = catalog_with(&["a"], 16);
        let engine = QueryEngine::new(Arc::clone(&c), usize::MAX);
        let ix = engine.index(&c.get("a").unwrap()).unwrap();
        warm_index(&ix);
        let charged = engine.stats().bytes;
        assert!(engine.stats().index_build_nanos > 0);
        let reclaimed = engine.evict("a");
        assert_eq!(reclaimed, charged, "evict must reclaim index bytes too");
        let stats = engine.stats();
        assert_eq!((stats.entries, stats.index_entries, stats.bytes), (0, 0, 0));
        // Build time of the evicted index survives in the lifetime
        // counter.
        assert!(stats.index_build_nanos > 0);
    }

    /// Every residency gauge returns to zero once the cache is empty,
    /// including after an evicted index, and an index that was never
    /// cached, memoized more tables while a query still held them.
    #[test]
    fn residency_gauges_return_to_zero_once_every_entry_is_dropped() {
        use dpod_query::plan;
        let c = catalog_with(&["a", "b", "z"], 16);
        let registry = Registry::new();
        let engine = QueryEngine::with_registry(Arc::clone(&c), usize::MAX, &registry);
        let level = |level| QueryPlan::DrillDown {
            level,
            plan: Box::new(TOTAL),
        };
        for name in ["a", "b"] {
            let entry = c.get(name).unwrap();
            warm_index(&engine.index(&entry).unwrap());
            engine.window_partial(&entry, &level(1)).unwrap();
            engine
                .encoded_response(&entry, BIN, &TOTAL, |_| Ok((vec![0; 100], 1)))
                .unwrap();
        }
        let residency = || {
            let snap = registry.snapshot();
            let total = |name| snap.sum(name);
            (
                total("dpod_engine_memo_entries"),
                total("dpod_engine_memo_bytes"),
                total("dpod_engine_cache_bytes"),
            )
        };
        let (entries, bytes, cached) = residency();
        assert!(entries > 0.0 && bytes > 0.0 && cached > bytes);

        // Evicted while a query still holds it: later growth is not
        // resident.
        let held = engine.index(&c.get("a").unwrap()).unwrap();
        engine.evict("a");
        plan::execute_with(&*held, &level(2)).unwrap();
        // Rebuilt after its release was removed: served, never counted.
        let gone = c.get("z").unwrap();
        c.remove("z");
        let straggler = engine.index(&gone).unwrap();
        plan::execute_with(&*straggler, &level(2)).unwrap();
        warm_index(&straggler);

        engine.clear();
        assert_eq!(residency(), (0.0, 0.0, 0.0));
    }
}
