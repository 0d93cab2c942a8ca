//! The query engine: memoized analyst-side rebuilds and plan indexes.
//!
//! A `PublishedRelease` is cheap to store but must be rebuilt into a
//! [`SanitizedMatrix`] — dense estimate plus prefix-sum table — before it
//! can answer `O(2^d)` range queries. The rebuild is `O(domain size)` and
//! the table doubles the memory, so the engine memoizes rebuilds per
//! `(name, version)` under an LRU byte budget: hot releases answer from
//! cache, cold ones pay one rebuild, and a republish (new version) never
//! serves stale answers because the version is part of the key.
//!
//! Beside each rebuilt matrix the engine keeps a second, lazily-filled
//! slot: the release's [`ReleaseIndex`] — memoized marginal tables,
//! descending cell order and cached total — which turns aggregate plans
//! (marginal, top-k, total) from full rescans into table lookups. Both
//! slots share one byte budget and one LRU clock, and both are
//! invalidated together: a republish or removal that drops the matrix
//! drops its index with it, so a stale `(name, old_version)` index can
//! never answer. Index bytes grow as aggregates are first touched, so
//! the ledger is recomputed from the live entries whenever the budget is
//! enforced rather than trusted from insert time.
//!
//! Hit, miss and build-time counts are recorded once, at event time, in
//! a `dpod_obs` [`Registry`] (the server's, so `/metrics` and `Stats`
//! read them there). Every index the engine builds shares one set of
//! handles, so counts outlive evicted indexes by construction.

use crate::{CatalogEntry, ServeError};
use dpod_core::SanitizedMatrix;
use dpod_obs::{Counter, Registry};
use dpod_query::{Answer, IndexCounters, ReleaseIndex};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One memo's hit and miss counters:
/// `dpod_engine_memo_{hits,misses}_total{memo}`.
#[derive(Debug)]
struct MemoCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl MemoCounters {
    fn register(registry: &Registry, memo: &str) -> Self {
        let labels = &[("memo", memo)];
        MemoCounters {
            hits: registry.counter(
                "dpod_engine_memo_hits_total",
                "Engine memo lookups answered from a resident entry, by memo",
                labels,
            ),
            misses: registry.counter(
                "dpod_engine_memo_misses_total",
                "Engine memo lookups that had to compute the entry, by memo",
                labels,
            ),
        }
    }
}

/// A memoizing rebuild + index cache with a shared LRU byte budget.
#[derive(Debug)]
pub struct QueryEngine {
    byte_budget: usize,
    /// Per-release cap on memoized marginal-table bytes, passed to each
    /// [`ReleaseIndex`] it builds.
    index_marginal_cap: usize,
    state: Mutex<LruState>,
    matrix: MemoCounters,
    index: MemoCounters,
    partial: MemoCounters,
    encoded: MemoCounters,
    /// Build time and pyramid-memo counters, shared by every index.
    index_counters: IndexCounters,
}

#[derive(Debug, Default)]
struct LruState {
    map: HashMap<(String, u64), Cached>,
    tick: u64,
    bytes: usize,
}

#[derive(Debug)]
struct Cached {
    matrix: Arc<SanitizedMatrix>,
    matrix_bytes: usize,
    /// The release's prepared plan index, attached on first aggregate
    /// query. Lives and dies with the matrix entry.
    index: Option<Arc<ReleaseIndex>>,
    /// Memoized per-epoch plan partials for window queries: canonical
    /// plan key → the finished answer and its estimated bytes. Riding
    /// on the `(name, version)` entry gives version-keyed invalidation
    /// for free — republishing one epoch drops only that epoch's
    /// partials, every other epoch's stay warm.
    partials: HashMap<String, (Answer, usize)>,
    /// Running byte total of `partials` (so [`Cached::bytes`] stays
    /// O(1) under the ledger refresh).
    partials_bytes: usize,
    /// Memoized final wire bytes per `(encoding, plan key)`: a warm hit
    /// skips plan execution *and* encoding — the worker memcpys the
    /// bytes to the socket. Rides the `(name, version)` entry exactly
    /// like `partials`, so republish invalidation is free.
    encoded: HashMap<(u8, String), EncodedEntry>,
    /// Running byte total of `encoded` (as `partials_bytes`).
    encoded_bytes: usize,
    /// What this entry currently contributes to `LruState::bytes`. Kept
    /// beside the live size so a warm touch can apply an O(1) delta
    /// (index bytes only grow) instead of rescanning every entry.
    charged: usize,
    last_used: u64,
}

/// One memoized encoded response: the exact on-socket bytes and the
/// query units the answer counts for (so warm hits bump the same
/// accounting a cold execution would).
#[derive(Debug)]
struct EncodedEntry {
    bytes: Arc<Vec<u8>>,
    units: u64,
}

impl Cached {
    /// Current resident bytes: the rebuild plus whatever the index and
    /// plan partials have memoized so far (both grow after insertion).
    fn bytes(&self) -> usize {
        self.matrix_bytes
            + self.index.as_ref().map_or(0, |ix| ix.resident_bytes())
            + self.partials_bytes
            + self.encoded_bytes
    }
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

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Cached rebuilds currently resident.
    pub entries: usize,
    /// Estimated resident bytes (rebuilds plus index structures).
    pub bytes: usize,
    /// Lifetime matrix-cache hits.
    pub hits: u64,
    /// Lifetime matrix-cache misses (— rebuilds performed).
    pub misses: u64,
    /// Resident releases whose plan index is built.
    pub index_entries: usize,
    /// Lifetime index-cache hits (aggregate plans answered by a
    /// resident [`ReleaseIndex`]).
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

/// Estimated resident size of one rebuilt release: the dense estimate and
/// its prefix table are each `size × 8` bytes, and a retained
/// [`PartitionSummary::Boxes`](dpod_core::PartitionSummary) carries two
/// heap-allocated corner vectors plus one count per box — significant for
/// partition-heavy (DAF/quadtree) releases over large domains.
fn resident_bytes(m: &SanitizedMatrix) -> usize {
    let tables = m.matrix().len() * 16;
    let summary = match m.summary() {
        dpod_core::PartitionSummary::PerEntry => 0,
        dpod_core::PartitionSummary::Boxes { partitioning, .. } => {
            let d = m.matrix().shape().ndim();
            // Two Vec<usize> corners (24-byte header + 8·d payload each)
            // plus the box struct and its noisy count.
            partitioning.len() * (2 * (24 + 8 * d) + 32)
        }
    };
    tables + summary + 512
}

impl QueryEngine {
    /// An engine caching up to ~`byte_budget` bytes of rebuilt releases,
    /// counting into a private registry.
    ///
    /// A single release larger than the whole budget is still cached (the
    /// alternative — rebuilding on every query — is strictly worse); the
    /// budget then holds exactly that one entry.
    pub fn new(byte_budget: usize) -> Self {
        Self::with_registry(
            byte_budget,
            dpod_query::backend::DEFAULT_MARGINAL_BUDGET,
            &Registry::new(),
        )
    }

    /// [`Self::new`], but capping each release's memoized marginal
    /// tables at `index_marginal_cap` bytes (keep-sets past the cap are
    /// answered per query without caching) and counting into `registry`.
    pub fn with_registry(
        byte_budget: usize,
        index_marginal_cap: usize,
        registry: &Registry,
    ) -> Self {
        let [matrix, index, partial, encoded, pyramid] =
            ["matrix", "index", "partial", "encoded", "pyramid"]
                .map(|memo| MemoCounters::register(registry, memo));
        QueryEngine {
            byte_budget,
            index_marginal_cap,
            state: Mutex::new(LruState::default()),
            matrix,
            index,
            partial,
            encoded,
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
            },
        }
    }

    /// The configured byte budget.
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// Recomputes the byte ledger from the live entries (re-charging
    /// each). Index bytes grow after insertion (memoization is lazy),
    /// so the ledger is refreshed at every insert/evict point; warm
    /// touches use an O(1) per-entry delta instead.
    fn refresh_bytes(state: &mut LruState) {
        let mut total = 0usize;
        for cached in state.map.values_mut() {
            cached.charged = cached.bytes();
            total += cached.charged;
        }
        state.bytes = total;
    }

    /// Evicts least-recently-used entries (never `keep`) until the
    /// budget holds, reclaiming exactly what each victim had been
    /// charged to the ledger.
    fn enforce_budget(&self, state: &mut LruState, keep: &(String, u64)) {
        while state.bytes > self.byte_budget && state.map.len() > 1 {
            let victim = state
                .map
                .iter()
                .filter(|(k, _)| *k != keep)
                .min_by_key(|(_, c)| c.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(v) => {
                    if let Some(evicted) = state.map.remove(&v) {
                        state.bytes = state.bytes.saturating_sub(evicted.charged);
                    }
                }
                None => break,
            }
        }
    }

    /// Returns the queryable rebuild of `entry`, from cache when warm.
    ///
    /// # Errors
    /// [`ServeError`] when the artifact fails validation (tampered or
    /// corrupt release) — the entry is *not* cached in that case.
    pub fn sanitized(&self, entry: &CatalogEntry) -> Result<Arc<SanitizedMatrix>, ServeError> {
        self.sanitized_if(entry, || true)
    }

    /// [`Self::sanitized`], but consulting `still_current` (under the
    /// cache lock) before a freshly rebuilt entry is inserted: when it
    /// returns `false` the rebuild is served to the caller *without*
    /// being cached. Servers pass a catalog re-check here to close the
    /// remove/rebuild race — a removal's [`Self::evict`] can run while a
    /// rebuild is in flight, and caching afterwards would strand an
    /// entry no future request can reach.
    pub fn sanitized_if(
        &self,
        entry: &CatalogEntry,
        still_current: impl Fn() -> bool,
    ) -> Result<Arc<SanitizedMatrix>, ServeError> {
        let key = (entry.name.clone(), entry.version);
        {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            state.tick += 1;
            let tick = state.tick;
            if let Some(cached) = state.map.get_mut(&key) {
                cached.last_used = tick;
                self.matrix.hits.inc();
                return Ok(Arc::clone(&cached.matrix));
            }
        }
        // Rebuild outside the lock: concurrent first-touch of the same
        // release may rebuild twice, but a slow rebuild never blocks
        // queries against other (cached) releases.
        self.matrix.misses.inc();
        let rebuilt = entry
            .release
            .as_ref()
            .clone()
            .into_sanitized()
            .map_err(|e| ServeError(format!("release '{}' is invalid: {e}", entry.name)))?;
        let matrix = Arc::new(rebuilt);
        let bytes = resident_bytes(&matrix);

        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.tick += 1;
        let tick = state.tick;
        // Another thread may have raced the rebuild; keep the winner.
        if let Some(cached) = state.map.get_mut(&key) {
            cached.last_used = tick;
            return Ok(Arc::clone(&cached.matrix));
        }
        // Versions are monotonic per name. If a *newer* version is
        // already cached, this rebuild lost a race with a republish
        // (the entry it resolved is no longer the latest): serve it to
        // this caller but do not cache it, and leave the fresh entry
        // alone.
        if state.map.keys().any(|(n, v)| *n == key.0 && *v > key.1) {
            return Ok(matrix);
        }
        // Caller-supplied currency check, serialized with `evict` by the
        // lock held here: a rebuild that raced a removal (or republish)
        // is served but never cached.
        if !still_current() {
            return Ok(matrix);
        }
        // A republish made any older version of this name unreachable
        // (the catalog only hands out the latest), so its cached rebuild
        // — and the plan index riding on it — is dead weight: drop it
        // now instead of stranding its bytes until LRU pressure happens
        // to find it.
        let stale: Vec<(String, u64)> = state
            .map
            .keys()
            .filter(|(name, version)| *name == key.0 && *version < key.1)
            .cloned()
            .collect();
        for old in stale {
            state.map.remove(&old);
        }
        state.map.insert(
            key.clone(),
            Cached {
                matrix: Arc::clone(&matrix),
                matrix_bytes: bytes,
                index: None,
                partials: HashMap::new(),
                partials_bytes: 0,
                encoded: HashMap::new(),
                encoded_bytes: 0,
                charged: 0, // set by the refresh below
                last_used: tick,
            },
        );
        // Evict least-recently-used entries (never the one just added)
        // until the budget holds.
        Self::refresh_bytes(&mut state);
        self.enforce_budget(&mut state, &key);
        Ok(matrix)
    }

    /// Returns the release's prepared [`ReleaseIndex`], from cache when
    /// warm; a cold call builds (or reuses) the matrix rebuild through
    /// [`Self::sanitized_if`] — inheriting its republish-staleness and
    /// currency handling — then attaches a fresh index beside it.
    ///
    /// # Errors
    /// As for [`Self::sanitized`].
    pub fn index(&self, entry: &CatalogEntry) -> Result<Arc<ReleaseIndex>, ServeError> {
        self.index_if(entry, || true)
    }

    /// [`Self::index`], with the same `still_current` contract as
    /// [`Self::sanitized_if`]: when the check fails, the freshly built
    /// index is served to the caller but never cached.
    ///
    /// # Errors
    /// As for [`Self::sanitized`].
    pub fn index_if(
        &self,
        entry: &CatalogEntry,
        still_current: impl Fn() -> bool,
    ) -> Result<Arc<ReleaseIndex>, ServeError> {
        let key = (entry.name.clone(), entry.version);
        {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            state.tick += 1;
            let tick = state.tick;
            if let Some(cached) = state.map.get_mut(&key) {
                cached.last_used = tick;
                if let Some(ix) = &cached.index {
                    self.index.hits.inc();
                    let ix = Arc::clone(ix);
                    // Index bytes grow between accesses (memoization is
                    // lazy), so the warm path re-charges *this* entry —
                    // an O(1) delta, not a rescan of every resident
                    // entry — and re-enforces the budget when the
                    // growth pushed the ledger over it.
                    let now = cached.bytes();
                    let delta = now.saturating_sub(cached.charged);
                    cached.charged = now;
                    state.bytes += delta;
                    if delta > 0 && state.bytes > self.byte_budget {
                        self.enforce_budget(&mut state, &key);
                    }
                    return Ok(ix);
                }
            }
        }
        self.index.misses.inc();
        // Resolve the matrix through the normal rebuild path (hit or
        // miss), which owns all the staleness rules; then wrap it.
        let matrix = self.sanitized_if(entry, &still_current)?;
        let index = Arc::new(ReleaseIndex::with_counters(
            matrix,
            self.index_marginal_cap,
            self.index_counters.clone(),
        ));

        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.tick += 1;
        let tick = state.tick;
        if let Some(cached) = state.map.get_mut(&key) {
            // Attach only when the resident entry is exactly the matrix
            // this index wraps (the entry may have raced a removal or
            // republish while we built).
            if Arc::ptr_eq(&cached.matrix, index.matrix()) {
                cached.last_used = tick;
                if let Some(existing) = &cached.index {
                    return Ok(Arc::clone(existing)); // a racing builder won
                }
                cached.index = Some(Arc::clone(&index));
                Self::refresh_bytes(&mut state);
                self.enforce_budget(&mut state, &key);
            }
        }
        Ok(index)
    }

    /// Answers one epoch's share of a window plan through the partial
    /// memo: a warm `(entry, plan_key)` pair returns the memoized
    /// answer without touching the release at all; a cold one resolves
    /// the epoch's [`ReleaseIndex`] (through [`Self::index_if`], which
    /// owns all the staleness rules), runs `compute` against it, and
    /// memoizes the answer beside the index under the shared byte
    /// budget. `plan_key` must be a canonical serialization of the
    /// inner plan — the caller owns that contract.
    ///
    /// Because the memo rides the `(name, version)` cache entry, a
    /// republish of one epoch invalidates exactly that epoch's partials
    /// (its version changes; the stale entry is dropped on next
    /// resolve) while every other epoch's stay warm — a sliding window
    /// over k epochs after one republish re-executes one epoch, not k.
    ///
    /// # Errors
    /// As for [`Self::sanitized`], plus whatever `compute` returns
    /// (plan-validation failures are not memoized).
    pub fn window_partial(
        &self,
        entry: &CatalogEntry,
        plan_key: &str,
        still_current: impl Fn() -> bool,
        compute: impl FnOnce(&ReleaseIndex) -> Result<Answer, ServeError>,
    ) -> Result<Answer, ServeError> {
        let key = (entry.name.clone(), entry.version);
        {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            state.tick += 1;
            let tick = state.tick;
            if let Some(cached) = state.map.get_mut(&key) {
                if let Some((answer, _)) = cached.partials.get(plan_key) {
                    cached.last_used = tick;
                    self.partial.hits.inc();
                    return Ok(answer.clone());
                }
            }
        }
        self.partial.misses.inc();
        let index = self.index_if(entry, &still_current)?;
        let answer = compute(&index)?;

        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.tick += 1;
        let tick = state.tick;
        if let Some(cached) = state.map.get_mut(&key) {
            // Memoize only against the entry this answer was computed
            // from (the entry may have raced a removal or republish
            // while the plan ran) — and keep a racing winner's answer.
            if Arc::ptr_eq(&cached.matrix, index.matrix())
                && !cached.partials.contains_key(plan_key)
            {
                cached.last_used = tick;
                let bytes = answer_bytes(&answer) + plan_key.len();
                cached
                    .partials
                    .insert(plan_key.to_string(), (answer.clone(), bytes));
                cached.partials_bytes += bytes;
                Self::refresh_bytes(&mut state);
                self.enforce_budget(&mut state, &key);
            }
        }
        Ok(answer)
    }

    /// Serves one request's final wire bytes through the encoded memo:
    /// a warm `(entry, encoding, plan_key)` triple returns the memoized
    /// bytes — no plan execution, no serialization, the caller memcpys
    /// them to the socket — together with the query units the answer
    /// counts for. A cold triple runs `compute` (execute + encode, the
    /// caller owns both) and memoizes its bytes beside the entry under
    /// the shared LRU byte budget.
    ///
    /// The memo key rides the `(name, version)` cache entry like
    /// `partials`, so a republish invalidates exactly the republished
    /// release's bytes. `still_current` is consulted under the cache
    /// lock before a fresh result is memoized: a compute that raced a
    /// removal or republish is served to its caller but never cached.
    /// `plan_key` must be a canonical serialization of the request's
    /// plan and `enc` the response encoding discriminant — the caller
    /// owns both contracts.
    ///
    /// # Errors
    /// Whatever `compute` returns; errors are never memoized.
    pub fn encoded_response(
        &self,
        entry: &CatalogEntry,
        enc: u8,
        plan_key: &str,
        still_current: impl Fn() -> bool,
        compute: impl FnOnce() -> Result<(Vec<u8>, u64), ServeError>,
    ) -> Result<(Arc<Vec<u8>>, u64), ServeError> {
        let key = (entry.name.clone(), entry.version);
        let memo_key = (enc, plan_key.to_string());
        {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            state.tick += 1;
            let tick = state.tick;
            if let Some(cached) = state.map.get_mut(&key) {
                if let Some(e) = cached.encoded.get(&memo_key) {
                    cached.last_used = tick;
                    self.encoded.hits.inc();
                    return Ok((Arc::clone(&e.bytes), e.units));
                }
            }
        }
        self.encoded.misses.inc();
        let (bytes, units) = compute()?;
        let bytes = Arc::new(bytes);

        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.tick += 1;
        let tick = state.tick;
        if let Some(cached) = state.map.get_mut(&key) {
            // Memoize only while the entry is still the catalog's
            // current version (checked under the lock, as
            // `sanitized_if` does) — and keep a racing winner's bytes.
            if still_current() && !cached.encoded.contains_key(&memo_key) {
                cached.last_used = tick;
                let cost = bytes.len() + memo_key.1.len() + 64;
                cached.encoded.insert(
                    memo_key,
                    EncodedEntry {
                        bytes: Arc::clone(&bytes),
                        units,
                    },
                );
                cached.encoded_bytes += cost;
                Self::refresh_bytes(&mut state);
                self.enforce_budget(&mut state, &key);
            }
        }
        Ok((bytes, units))
    }

    /// Drops every cached rebuild of `name` (any version) — plan
    /// indexes included — returning the bytes reclaimed. Used when a
    /// release is removed outright: no future request can reach those
    /// entries, so leaving them to LRU pressure would strand their
    /// bytes on an idle server.
    pub fn evict(&self, name: &str) -> usize {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let victims: Vec<(String, u64)> = state
            .map
            .keys()
            .filter(|(n, _)| n == name)
            .cloned()
            .collect();
        let mut reclaimed = 0;
        for key in victims {
            if let Some(dropped) = state.map.remove(&key) {
                reclaimed += dropped.bytes();
            }
        }
        Self::refresh_bytes(&mut state);
        reclaimed
    }

    /// Drops every cached rebuild and index (counters are preserved).
    pub fn clear(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.map.clear();
        state.bytes = 0;
    }

    /// Current residency, plus the lifetime counters read from their
    /// registry handles.
    pub fn stats(&self) -> EngineStats {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        Self::refresh_bytes(&mut state);
        let live_indexes = || state.map.values().filter_map(|c| c.index.as_ref());
        EngineStats {
            pyramid_entries: live_indexes().map(|ix| ix.pyramid_entries()).sum(),
            pyramid_bytes: live_indexes().map(|ix| ix.pyramid_bytes()).sum(),
            pyramid_hits: self.index_counters.pyramid_hits.get(),
            pyramid_misses: self.index_counters.pyramid_misses.get(),
            entries: state.map.len(),
            bytes: state.bytes,
            hits: self.matrix.hits.get(),
            misses: self.matrix.misses.get(),
            index_entries: live_indexes().count(),
            index_hits: self.index.hits.get(),
            index_misses: self.index.misses.get(),
            partial_entries: state.map.values().map(|c| c.partials.len()).sum(),
            partial_hits: self.partial.hits.get(),
            partial_misses: self.partial.misses.get(),
            encoded_entries: state.map.values().map(|c| c.encoded.len()).sum(),
            encoded_hits: self.encoded.hits.get(),
            encoded_misses: self.encoded.misses.get(),
            encoded_bytes: state.map.values().map(|c| c.encoded_bytes).sum(),
            index_build_nanos: self.index_counters.build_nanos.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Catalog;
    use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
    use dpod_dp::Epsilon;
    use dpod_fmatrix::{AxisBox, DenseMatrix, Shape};
    use dpod_query::PlanBackend;

    fn catalog_with(names: &[&str], side: usize) -> Catalog {
        let c = Catalog::new();
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
        let engine = QueryEngine::new(1 << 20);
        let e = c.get("a").unwrap();
        let m1 = engine.sanitized(&e).unwrap();
        let m2 = engine.sanitized(&e).unwrap();
        assert!(Arc::ptr_eq(&m1, &m2));
        let stats = engine.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn republish_invalidates_by_version() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        let v1 = engine.sanitized(&c.get("a").unwrap()).unwrap();
        // Republish under the same name.
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[2, 2], 999).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(42))
            .unwrap();
        c.publish("a", PublishedRelease::from_sanitized(&out));
        let v2 = engine.sanitized(&c.get("a").unwrap()).unwrap();
        assert!(!Arc::ptr_eq(&v1, &v2));
        let q = AxisBox::new(vec![0, 0], vec![8, 8]).unwrap();
        assert_ne!(v1.range_sum(&q), v2.range_sum(&q));
    }

    #[test]
    fn remove_then_republish_never_serves_stale_answers() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        let old = engine.sanitized(&c.get("a").unwrap()).unwrap();
        c.remove("a");
        // Republish different data under the same name.
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[5, 5], 7_777).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(90))
            .unwrap();
        c.publish("a", PublishedRelease::from_sanitized(&out));
        let fresh = engine.sanitized(&c.get("a").unwrap()).unwrap();
        assert!(
            !Arc::ptr_eq(&old, &fresh),
            "cache must not serve the removed release"
        );
        let q = AxisBox::new(vec![0, 0], vec![8, 8]).unwrap();
        assert_eq!(fresh.range_sum(&q), out.range_sum(&q));
    }

    #[test]
    fn lru_evicts_cold_entries_under_budget() {
        let c = catalog_with(&["a", "b", "c"], 16);
        // Measure one rebuild's charged size, then budget for exactly two.
        let probe = QueryEngine::new(usize::MAX);
        probe.sanitized(&c.get("a").unwrap()).unwrap();
        let per_entry = probe.stats().bytes;
        let engine = QueryEngine::new(per_entry * 2 + per_entry / 2);
        let (ea, eb, ec) = (
            c.get("a").unwrap(),
            c.get("b").unwrap(),
            c.get("c").unwrap(),
        );
        engine.sanitized(&ea).unwrap();
        engine.sanitized(&eb).unwrap();
        engine.sanitized(&ea).unwrap(); // refresh a; b is now LRU
        engine.sanitized(&ec).unwrap(); // evicts b
        assert_eq!(engine.stats().entries, 2);
        let misses_before = engine.stats().misses;
        engine.sanitized(&ea).unwrap(); // still cached
        assert_eq!(engine.stats().misses, misses_before);
        engine.sanitized(&eb).unwrap(); // rebuilt
        assert_eq!(engine.stats().misses, misses_before + 1);
    }

    /// Charged resident size of one entry, measured with a throwaway
    /// engine (sizes vary per release with its partition structure).
    fn charged_bytes(entry: &crate::CatalogEntry) -> usize {
        let probe = QueryEngine::new(usize::MAX);
        probe.sanitized(entry).unwrap();
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
        let (sa, sb, sc) = (charged_bytes(&ea), charged_bytes(&eb), charged_bytes(&ec));
        assert!(sa > 0 && sb > 0 && sc > 0);

        // Budget one byte short of all three: the third insert must
        // evict exactly the LRU entry and give its bytes back.
        let engine = QueryEngine::new(sa + sb + sc - 1);
        engine.sanitized(&ea).unwrap();
        engine.sanitized(&eb).unwrap();
        assert_eq!(engine.stats().bytes, sa + sb);
        engine.sanitized(&ec).unwrap(); // evicts a (the LRU)
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
        let engine = QueryEngine::new(usize::MAX);
        engine.sanitized(&c.get("a").unwrap()).unwrap();
        let eb = c.get("b").unwrap();
        engine.sanitized(&eb).unwrap();
        let sb = charged_bytes(&eb);

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
        engine.sanitized(&ea2).unwrap();

        let stats = engine.stats();
        assert_eq!(stats.entries, 2, "stale (a, v1) must be dropped");
        assert_eq!(
            stats.bytes,
            sb + charged_bytes(&ea2),
            "the stale version's bytes must not strand in the budget"
        );
        // And the fresh version answers from cache.
        let misses = stats.misses;
        engine.sanitized(&ea2).unwrap();
        assert_eq!(engine.stats().misses, misses);
    }

    #[test]
    fn rebuild_racing_a_removal_is_served_but_not_cached() {
        // Models the remove/rebuild race: by the time the rebuild is
        // ready to cache, the caller's currency check fails (the
        // release was removed and `evict` already ran).
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        let entry = c.get("a").unwrap();
        let served = engine.sanitized_if(&entry, || false).unwrap();
        assert!(served.total().is_finite());
        let stats = engine.stats();
        assert_eq!(stats.entries, 0, "stale rebuild must not be cached");
        assert_eq!(stats.bytes, 0);
        // A current rebuild caches as usual.
        engine.sanitized_if(&entry, || true).unwrap();
        assert_eq!(engine.stats().entries, 1);
    }

    #[test]
    fn straggler_rebuild_of_an_old_version_cannot_evict_the_new_cache() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
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
        let fresh = engine.sanitized(&new_entry).unwrap();

        // The straggler is served its v1 answer but must neither evict
        // the fresh (a, v2) entry nor cache the unreachable (a, v1).
        let served = engine.sanitized(&old_entry).unwrap();
        assert!(!Arc::ptr_eq(&served, &fresh));
        assert_eq!(engine.stats().entries, 1);
        let hits = engine.stats().hits;
        let again = engine.sanitized(&new_entry).unwrap();
        assert!(Arc::ptr_eq(&again, &fresh), "v2 must still answer warm");
        assert_eq!(engine.stats().hits, hits + 1);
    }

    #[test]
    fn oversized_release_is_still_served() {
        let c = catalog_with(&["big"], 32);
        let engine = QueryEngine::new(16); // far below one rebuild
        let e = c.get("big").unwrap();
        assert!(engine.sanitized(&e).is_ok());
        assert_eq!(engine.stats().entries, 1);
        // And it stays cached (evicting the only entry would thrash).
        engine.sanitized(&e).unwrap();
        assert_eq!(engine.stats().hits, 1);
    }

    #[test]
    fn invalid_release_errors_and_is_not_cached() {
        let c = Catalog::new();
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
        let engine = QueryEngine::new(1 << 20);
        assert!(engine.sanitized(&c.get("bad").unwrap()).is_err());
        assert_eq!(engine.stats().entries, 0);
    }

    #[test]
    fn clear_resets_residency() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        engine.sanitized(&c.get("a").unwrap()).unwrap();
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
        let engine = QueryEngine::new(1 << 20);
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
            let probe = QueryEngine::new(usize::MAX);
            warm_index(&probe.index(e).unwrap());
            probe.stats().bytes
        };
        let (wa, wb) = (warmed(&ea), warmed(&eb));
        let base_c = {
            let probe = QueryEngine::new(usize::MAX);
            probe.index(&ec).unwrap();
            probe.stats().bytes
        };

        // Budget holds two warmed entries plus a bare third — minus one
        // byte, so attaching the third index must evict the LRU entry
        // and give back its *full* (matrix + grown index) bytes.
        let engine = QueryEngine::new(wa + wb + base_c - 1);
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
        let engine = QueryEngine::new(1 << 20);
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
        let engine = QueryEngine::new(1 << 20);
        let entry = c.get("a").unwrap();
        let served = engine.index_if(&entry, || false).unwrap();
        assert!(served.total().is_finite());
        let stats = engine.stats();
        assert_eq!(stats.entries, 0, "stale index must not be cached");
        assert_eq!(stats.index_entries, 0);
        // A current build caches as usual.
        engine.index_if(&entry, || true).unwrap();
        assert_eq!(engine.stats().index_entries, 1);
    }

    #[test]
    fn window_partials_memoize_per_entry() {
        use dpod_query::{plan, QueryPlan};
        let c = catalog_with(&["s@1", "s@2"], 8);
        let engine = QueryEngine::new(1 << 20);
        let plan = QueryPlan::Total;
        let key = serde_json::to_string(&plan).unwrap();
        let run = |entry: &crate::CatalogEntry| {
            engine
                .window_partial(
                    entry,
                    &key,
                    || true,
                    |ix| plan::execute_with(ix, &plan).map_err(|e| crate::ServeError(e.0)),
                )
                .unwrap()
        };
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
        use dpod_query::{plan, QueryPlan};
        let c = catalog_with(&["s@1", "s@2"], 8);
        let engine = QueryEngine::new(1 << 20);
        let plan = QueryPlan::TopK { k: 2 };
        let key = serde_json::to_string(&plan).unwrap();
        let run = |entry: &crate::CatalogEntry| {
            engine
                .window_partial(
                    entry,
                    &key,
                    || true,
                    |ix| plan::execute_with(ix, &plan).map_err(|e| crate::ServeError(e.0)),
                )
                .unwrap()
        };
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
        use dpod_query::{plan, QueryPlan};
        let c = catalog_with(&["s@1"], 8);
        let engine = QueryEngine::new(1 << 20);
        // An invalid plan (2-D release has no dimension 9).
        let plan = QueryPlan::Marginal { keep: vec![9] };
        let key = serde_json::to_string(&plan).unwrap();
        let entry = c.get("s@1").unwrap();
        for _ in 0..2 {
            let err = engine.window_partial(
                &entry,
                &key,
                || true,
                |ix| plan::execute_with(ix, &plan).map_err(|e| crate::ServeError(e.0)),
            );
            assert!(err.is_err());
        }
        let stats = engine.stats();
        assert_eq!(stats.partial_entries, 0, "errors must not be memoized");
        assert_eq!((stats.partial_hits, stats.partial_misses), (0, 2));
    }

    #[test]
    fn encoded_responses_memoize_per_entry_and_encoding() {
        let c = catalog_with(&["a"], 8);
        let engine = QueryEngine::new(1 << 20);
        let entry = c.get("a").unwrap();
        // The memo rides the release's cache entry (in production the
        // compute path resolves it); create it as an executor would.
        engine.sanitized(&entry).unwrap();
        // Two encodings of the "same plan" memoize independently.
        let run = |enc: u8, payload: &[u8]| {
            let payload = payload.to_vec();
            engine
                .encoded_response(&entry, enc, "plan-key", || true, move || Ok((payload, 3)))
                .unwrap()
        };
        let (b1, u1) = run(0, b"json bytes");
        assert_eq!((&b1[..], u1), (&b"json bytes"[..], 3));
        let (b2, _) = run(1, b"frame bytes");
        assert_eq!(&b2[..], b"frame bytes");
        // Warm repeats return the first compute's bytes, bit for bit —
        // the second closure's payload is never consulted.
        let (warm, units) = run(0, b"IGNORED");
        assert!(Arc::ptr_eq(&warm, &b1));
        assert_eq!(units, 3);
        let stats = engine.stats();
        assert_eq!((stats.encoded_hits, stats.encoded_misses), (1, 2));
        assert_eq!(stats.encoded_entries, 2);
        assert!(stats.encoded_bytes > 0);

        // Errors are never memoized.
        let err: Result<_, ServeError> = engine.encoded_response(
            &entry,
            0,
            "bad-plan",
            || true,
            || Err(ServeError("nope".into())),
        );
        assert!(err.is_err());
        assert_eq!(engine.stats().encoded_entries, 2);

        // A compute that raced a removal is served but not cached.
        let (served, _) = engine
            .encoded_response(&entry, 0, "racing", || false, || Ok((vec![1, 2], 1)))
            .unwrap();
        assert_eq!(&served[..], &[1, 2]);
        assert_eq!(engine.stats().encoded_entries, 2);
    }

    #[test]
    fn encoded_memo_bytes_ride_the_shared_ledger() {
        let c = catalog_with(&["a", "b"], 16);
        let (ea, eb) = (c.get("a").unwrap(), c.get("b").unwrap());
        let (sa, sb) = (charged_bytes(&ea), charged_bytes(&eb));

        let engine = QueryEngine::new(usize::MAX);
        engine.sanitized(&ea).unwrap();
        engine.sanitized(&eb).unwrap();
        assert_eq!(
            engine.stats().bytes,
            sa + sb,
            "an unused encoded memo must charge zero bytes"
        );
        let payload = vec![0u8; 1 << 12];
        engine
            .encoded_response(&ea, 1, "k", || true, || Ok((payload, 1)))
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
        let engine = QueryEngine::new(1 << 20);
        let old = c.get("a").unwrap();
        engine
            .encoded_response(&old, 1, "k", || true, || Ok((b"v1".to_vec(), 1)))
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
        engine.sanitized(&new).unwrap(); // drops (a, v1) and its memo
        let (bytes, _) = engine
            .encoded_response(&new, 1, "k", || true, || Ok((b"v2".to_vec(), 1)))
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
        let engine = QueryEngine::new(1 << 20);
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
        let engine = QueryEngine::new(usize::MAX);
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
}
