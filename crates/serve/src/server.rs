//! The request front end: in-process dispatch plus two TCP serving
//! cores over one request path.
//!
//! [`Server::handle`] is the whole request surface — the CLI, tests and
//! benches call it directly with zero serialization. Every request that
//! reads a release runs through the indexed plan executor: legacy
//! `Query`/`Batch` ranges are lowered to [`QueryPlan::Range`] leaves.
//! [`spawn_with`] wraps the same dispatch behind a `TcpListener` using
//! one of two front ends (no async runtime either way):
//!
//! * **`event`** — a readiness-driven core ([`crate::event`]): epoll
//!   loops own every socket as cheap nonblocking state and dispatch raw
//!   bytes to the worker pool — `N` workers serve `M ≫ N` connections,
//!   so an idle analyst costs a few kilobytes, not a thread.
//! * **`pool`** — the fallback when epoll is unavailable: one acceptor
//!   hands sockets to workers over an `mpsc` channel, each worker runs
//!   one connection's blocking read–answer–write loop, and the
//!   [`IDLE_TIMEOUT`] reclaims workers from clients that go quiet.
//!
//! Both cores frame bytes with the same [`crate::conn::Assembler`] and
//! answer its items with the same [`crate::conn::run_job`], so they
//! serve identical bytes (pinned by a differential test) and both
//! maintain the open/accepted-connection series in
//! [`Server::snapshot`]. Each connection speaks one of two encodings,
//! selected by its first bytes (see [`WireMode`]): the `DPRB` binary
//! preamble switches to length-prefixed frames ([`crate::wire`]),
//! anything else is served as newline-delimited JSON.

use crate::conn::{run_job, Assembler};
use crate::metrics::ServeMetrics;
use crate::protocol::{ReleaseInfo, Request, Response, Snapshot};
use crate::series::{self, SeriesLedgers};
use crate::{wire, Catalog, QueryEngine, ServeError};
use dpod_query::{Answer, EpochSelector, QueryPlan, ReleaseIndex, WindowMerge};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Default rebuild-cache budget: 256 MiB.
pub const DEFAULT_CACHE_BYTES: usize = 256 << 20;

/// Which encodings a TCP front end accepts.
///
/// `Auto` sniffs the first bytes of each connection: the `DPRB` magic
/// selects binary framing, anything else is newline-delimited JSON. The
/// restricted modes exist for operators who want a single-protocol
/// endpoint (e.g. JSON only behind a line-oriented proxy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireMode {
    /// Accept both encodings, sniffed per connection (the default).
    #[default]
    Auto,
    /// Newline-delimited JSON only; `DPRB` preambles are refused.
    Json,
    /// `DPRB` binary frames only; JSON connections are refused.
    Binary,
}

impl std::str::FromStr for WireMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(WireMode::Auto),
            "json" => Ok(WireMode::Json),
            "binary" => Ok(WireMode::Binary),
            other => Err(format!(
                "unknown wire mode '{other}' (expected auto|json|binary)"
            )),
        }
    }
}

/// Which TCP serving core accepts and answers connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontEnd {
    /// The readiness-driven core (the default): epoll loops own all
    /// sockets, workers serve ready requests, open connections are
    /// cheap state rather than threads.
    #[default]
    Event,
    /// The thread-per-connection pool: concurrency is capped at the
    /// worker count, but no epoll is required. The automatic fallback
    /// on targets without epoll.
    Pool,
}

/// How [`Server::handle_encoded`] serializes a response into final
/// socket bytes — one variant per wire shape a connection can be in.
/// The discriminant keys the engine's encoded-response memo, so each
/// encoding memoizes its own bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseEncoding {
    /// One JSON document plus the trailing newline (NDJSON transport
    /// and the event loop's JSON-line connections).
    Json,
    /// A length-prefixed `DPRB` frame with the legacy opcodes.
    Binary,
    /// A length-prefixed `DPRB` frame preferring the packed opcodes
    /// (peer advertised [`wire::WIRE_FEATURE_PACKED`]).
    BinaryPacked,
}

impl ResponseEncoding {
    /// The memo-key discriminant for this encoding.
    pub(crate) fn code(self) -> u8 {
        match self {
            ResponseEncoding::Json => 0,
            ResponseEncoding::Binary => 1,
            ResponseEncoding::BinaryPacked => 2,
        }
    }

    /// Serializes `resp` into complete socket bytes: JSON line with its
    /// `\n`, or a `DPRB` frame *with* its u32 length prefix. A response
    /// too large to frame degrades to an in-protocol error so the
    /// connection survives (the frame cap is 64 MiB; real answers stay
    /// far under it).
    pub(crate) fn encode(self, resp: &Response) -> Vec<u8> {
        match self {
            ResponseEncoding::Json => {
                let mut line = serde_json::to_string(resp)
                    .unwrap_or_else(|e| {
                        format!("{{\"Error\":{{\"message\":\"serialization failed: {e}\"}}}}")
                    })
                    .into_bytes();
                line.push(b'\n');
                line
            }
            ResponseEncoding::Binary | ResponseEncoding::BinaryPacked => {
                let body = if self == ResponseEncoding::BinaryPacked {
                    wire::encode_response_packed(resp)
                } else {
                    wire::encode_response(resp)
                };
                let mut out = Vec::with_capacity(body.len() + 4);
                if wire::write_frame(&mut out, &body).is_err() {
                    out.clear();
                    let fallback = wire::encode_response(&Response::Error {
                        message: format!("response of {} bytes exceeds the frame cap", body.len()),
                    });
                    wire::write_frame(&mut out, &fallback).expect("error frame fits the frame cap");
                }
                out
            }
        }
    }
}

/// A connection with no readable line for this long is closed so its
/// worker can serve the next queued connection.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Longest accepted request line; a client exceeding it (e.g. streaming
/// bytes with no newline to exhaust memory) is disconnected.
pub const MAX_LINE_BYTES: u64 = 8 << 20;

/// Most per-release hit-counter rows the stats map holds. Removing
/// releases through [`Server::remove_release`] prunes rows eagerly; this
/// cap is the backstop for catalogs churned around it (operators calling
/// [`Catalog::remove`] directly), trading the stalest rows for a bound
/// instead of leaking. Evictions are counted in
/// `dpod_server_evicted_stat_entries_total`.
pub const MAX_RELEASE_HIT_ENTRIES: usize = 1024;

/// The serving core: catalog + engine + counters.
#[derive(Debug)]
pub struct Server {
    catalog: Arc<Catalog>,
    engine: QueryEngine,
    /// Lifetime answered-query count per release name. Reads (the hot
    /// path) only take the `RwLock` shared; the exclusive lock is held
    /// once per name, on first touch.
    release_hits: RwLock<HashMap<String, AtomicU64>>,
    /// The metric registry's handles, shared by every front end and the
    /// engine (stage latencies, request mix, connections, queries,
    /// epochs, memo counters).
    metrics: ServeMetrics,
    /// Per-series ε ledgers: publishes spend, retention expiries refund
    /// (see [`crate::series::SeriesLedgers`]).
    ledgers: SeriesLedgers,
}

impl Server {
    /// A server over `catalog` with `cache_bytes` of rebuild cache
    /// (shared between matrix rebuilds and plan indexes) and the
    /// default per-release marginal-memoization cap.
    pub fn new(catalog: Arc<Catalog>, cache_bytes: usize) -> Self {
        Self::with_marginal_cap(
            catalog,
            cache_bytes,
            dpod_query::backend::DEFAULT_MARGINAL_BUDGET,
        )
    }

    /// [`Self::new`], but capping each release index's memoized
    /// marginal tables at `index_marginal_bytes` (`dpod serve
    /// --index-mb` plumbs here).
    pub fn with_marginal_cap(
        catalog: Arc<Catalog>,
        cache_bytes: usize,
        index_marginal_bytes: usize,
    ) -> Self {
        let metrics = ServeMetrics::new();
        Server {
            catalog,
            engine: QueryEngine::with_registry(
                cache_bytes,
                index_marginal_bytes,
                &metrics.registry,
            ),
            release_hits: RwLock::new(HashMap::new()),
            metrics,
            ledgers: SeriesLedgers::new(),
        }
    }

    /// The server's metric hub (stage histograms, event-loop gauges,
    /// request counters).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Every metric family at this instant: the registry's counters,
    /// gauges and histograms plus the families derived from state at
    /// read time (engine residency, catalog, per-release hits, ε). This
    /// one snapshot is what `/metrics`, `Stats` responses and the
    /// `dpod serve` stats line render.
    pub fn snapshot(&self) -> Snapshot {
        crate::metrics::snapshot(self)
    }

    /// Records a connection entering service (both front ends call this
    /// once per connection). Bumps the accepted counter and open gauge.
    pub(crate) fn connection_opened(&self) {
        self.metrics.conn_accepted.inc();
        self.metrics.conn_open.add(1);
    }

    /// Records a connection leaving service (close, timeout, or drop).
    pub(crate) fn connection_closed(&self) {
        self.metrics.conn_open.sub(1);
    }

    /// The underlying catalog (shared with publishers).
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Removes `release` from the catalog, prunes its per-release hit
    /// counter, and evicts its cached rebuild, returning whether it
    /// existed. Operators managing a served catalog should remove
    /// through this method rather than [`Catalog::remove`] directly —
    /// the counter map is keyed by name and would otherwise grow
    /// without bound as releases churn, and the engine's rebuild would
    /// strand its bytes in the cache until LRU pressure found it.
    pub fn remove_release(&self, release: &str) -> bool {
        let existed = self.catalog.remove(release);
        let mut map = self.release_hits.write().unwrap_or_else(|e| e.into_inner());
        map.remove(release);
        drop(map);
        self.engine.evict(release);
        existed
    }

    /// Publishes `release` as epoch `epoch` of `series` (catalog entry
    /// `series@epoch`), enforcing the monotonic epoch rule and spending
    /// the release's ε into the series ledger. Returns the entry's new
    /// catalog version (`> 1` on a republish of a live epoch).
    ///
    /// # Errors
    /// [`ServeError`] when the series name contains
    /// [`EPOCH_SEP`](crate::EPOCH_SEP) or `epoch` is behind the series
    /// frontier and not live (see
    /// [`series::validate_publish_epoch`](crate::series::validate_publish_epoch)).
    pub fn publish_epoch(
        &self,
        series: &str,
        epoch: u64,
        release: dpod_core::release::PublishedRelease,
    ) -> Result<u64, ServeError> {
        series::validate_publish_epoch(&self.catalog, series, epoch)?;
        let epsilon = release.epsilon;
        let version = self
            .catalog
            .publish(&series::epoch_entry_name(series, epoch), release);
        self.ledgers.note_publish(series, epoch, epsilon);
        self.metrics.epochs_published.inc();
        Ok(version)
    }

    /// Applies a `retain`-newest retention policy to `series`: every
    /// older epoch is removed through [`Server::remove_release`] (so its
    /// cached rebuild, index, window partials and hit counter go with
    /// it) and its ε is refunded into the series ledger. Returns the
    /// retired epoch ids, oldest first.
    ///
    /// # Errors
    /// [`ServeError`] when `retain` is zero.
    pub fn apply_retention(&self, series: &str, retain: usize) -> Result<Vec<u64>, ServeError> {
        let epochs = series::series_epochs(&self.catalog, series);
        let expired = series::expired_epochs(&epochs, retain)?;
        let mut retired = Vec::with_capacity(expired.len());
        for info in expired {
            if self.remove_release(&info.entry.name) {
                self.ledgers
                    .note_retire(series, info.epoch, info.entry.release.epsilon);
                self.metrics.epochs_retired.inc();
                retired.push(info.epoch);
            }
        }
        Ok(retired)
    }

    /// The per-series ε ledgers (publish spends, retention refunds).
    pub fn ledgers(&self) -> &SeriesLedgers {
        &self.ledgers
    }

    /// Answers a [`QueryPlan::Window`]: resolves the selector against
    /// the series' live epochs, executes the inner plan once per
    /// selected epoch (each through the engine's memoized per-epoch
    /// partials, keyed by the inner plan's canonical JSON, so a sliding
    /// window re-executes only the epochs it hasn't seen), then merges.
    fn answer_window(
        &self,
        series: &str,
        select: &EpochSelector,
        merge: WindowMerge,
        inner: &QueryPlan,
    ) -> Result<Answer, ServeError> {
        if matches!(inner, QueryPlan::DrillDown { .. }) {
            return Err(ServeError(
                "DrillDown plans select a pyramid level at the top level \
                 and cannot ride inside Window"
                    .to_string(),
            ));
        }
        let live = series::series_epochs(&self.catalog, series);
        let selected = series::select_epochs(select, &live)?;
        let plan_key = serde_json::to_string(inner)
            .map_err(|e| ServeError(format!("cannot key window plan: {e}")))?;
        let epochs: Vec<u64> = selected.iter().map(|info| info.epoch).collect();
        let mut answers = Vec::with_capacity(selected.len());
        for info in &selected {
            let name = &info.entry.name;
            let version = info.entry.version;
            answers.push(self.engine.window_partial(
                &info.entry,
                &plan_key,
                || {
                    self.catalog
                        .get(name)
                        .is_some_and(|current| current.version == version)
                },
                |index| dpod_query::plan::execute_with(index, inner).map_err(|e| ServeError(e.0)),
            )?);
        }
        dpod_query::merge_window_answers(merge, &epochs, answers).map_err(|e| ServeError(e.0))
    }

    /// Answers one request. Never panics on analyst input: every failure
    /// is a [`Response::Error`].
    pub fn handle(&self, request: &Request) -> Response {
        match request {
            Request::Query { release, lo, hi } => match self.answer_ranges(release, [(lo, hi)]) {
                Ok(values) => Response::Value { value: values[0] },
                Err(e) => Response::Error { message: e.0 },
            },
            Request::Batch { release, ranges } => {
                match self.answer_ranges(release, ranges.iter().map(|(lo, hi)| (lo, hi))) {
                    Ok(values) => Response::Values { values },
                    Err(e) => Response::Error { message: e.0 },
                }
            }
            Request::Plan { release, plan } => match self.execute_plan(release, plan) {
                Ok(answer) => {
                    // One query per leaf answered; none for a failure.
                    self.note_answered(release, answer.units());
                    Response::Answer { answer }
                }
                Err(e) => Response::Error { message: e.0 },
            },

            Request::List => Response::Releases {
                releases: self
                    .catalog
                    .entries()
                    .iter()
                    .map(|e| ReleaseInfo {
                        name: e.name.clone(),
                        version: e.version,
                        mechanism: e.release.mechanism.clone(),
                        epsilon: e.release.epsilon,
                        domain: e.release.domain.clone(),
                        released_values: e.release.len(),
                    })
                    .collect(),
            },
            Request::Stats => Response::Stats {
                stats: self.snapshot(),
            },
        }
    }

    /// Answers legacy `lo..hi` ranges as [`QueryPlan::Range`] leaves
    /// against the release index, so they share the plan executor's
    /// validation and error wording. Like a plan, the request counts one
    /// query per range, or nothing when any range fails: a `Batch` is
    /// answered whole or not at all. It is not lowered to one `Many`,
    /// whose plan cap would refuse large legacy batches.
    fn answer_ranges<'a>(
        &self,
        release: &str,
        ranges: impl IntoIterator<Item = (&'a Vec<usize>, &'a Vec<usize>)>,
    ) -> Result<Vec<f64>, ServeError> {
        let index = self.resolve_index(release)?;
        let values = ranges
            .into_iter()
            .map(|(lo, hi)| {
                let plan = QueryPlan::Range {
                    lo: lo.clone(),
                    hi: hi.clone(),
                };
                match dpod_query::plan::execute_with(index.as_ref(), &plan) {
                    Ok(Answer::Value { value }) => Ok(value),
                    Ok(other) => unreachable!("a Range leaf answers with a value, not {other:?}"),
                    Err(e) => Err(ServeError(e.0)),
                }
            })
            .collect::<Result<Vec<f64>, _>>()?;
        self.note_answered(release, values.len() as u64);
        Ok(values)
    }

    /// Executes one [`QueryPlan`] against a release (or, for `Window`
    /// plans, a release series). Two-phase execution: resolve the
    /// release's prepared index (built once per (name, version),
    /// memoized structures answering warm aggregates), then execute
    /// against it. Window plans take a second path: the name addresses
    /// a release *series* and the plan fans across its epochs. Pure
    /// execution — the caller owns the query counters.
    fn execute_plan(&self, release: &str, plan: &QueryPlan) -> Result<Answer, ServeError> {
        if let QueryPlan::Window {
            select,
            merge,
            plan: inner,
        } = plan
        {
            self.answer_window(release, select, *merge, inner)
        } else {
            self.resolve_index(release).and_then(|ix| {
                dpod_query::plan::execute_with(ix.as_ref(), plan).map_err(|e| ServeError(e.0))
            })
        }
    }

    /// Answers one request as final socket-ready bytes in the given
    /// encoding — the transport loops memcpy the result to the wire.
    ///
    /// For non-`Window` [`Request::Plan`] requests the bytes come from
    /// the engine's encoded-response memo: a warm hit skips plan
    /// execution *and* serialization (the source paper's
    /// post-processing invariance makes re-serving identical bytes
    /// ε-free), while a miss executes, encodes once, and memoizes under
    /// the shared cache ledger with the same catalog-currency re-check
    /// the index cache uses. Every other request — and every error —
    /// takes the plain [`Server::handle`] path and is encoded fresh.
    /// Query counters advance identically on warm and cold paths.
    pub fn handle_encoded(&self, request: &Request, enc: ResponseEncoding) -> Arc<Vec<u8>> {
        if let Request::Plan { release, plan } = request {
            if !matches!(plan, QueryPlan::Window { .. }) {
                if let (Some(entry), Ok(plan_key)) =
                    (self.catalog.get(release), serde_json::to_string(plan))
                {
                    let version = entry.version;
                    let result = self.engine.encoded_response(
                        &entry,
                        enc.code(),
                        &plan_key,
                        || {
                            self.catalog
                                .get(release)
                                .is_some_and(|current| current.version == version)
                        },
                        || {
                            let answer = self.execute_plan(release, plan)?;
                            let units = answer.units();
                            Ok((enc.encode(&Response::Answer { answer }), units))
                        },
                    );
                    return match result {
                        Ok((bytes, units)) => {
                            self.note_answered(release, units);
                            bytes
                        }
                        Err(e) => Arc::new(enc.encode(&Response::Error { message: e.0 })),
                    };
                }
                // Unknown release or unkeyable plan: fall through to the
                // plain path, which produces the error response.
            }
        }
        Arc::new(enc.encode(&self.handle(request)))
    }

    /// Resolves a release name to its prepared plan index. The engine
    /// re-checks the catalog before caching a fresh build, closing the
    /// race with [`Self::remove_release`] and republishes: an index
    /// built while one lands is served but never cached, so its bytes
    /// cannot strand in an entry no request can reach.
    fn resolve_index(&self, release: &str) -> Result<Arc<ReleaseIndex>, ServeError> {
        let entry = self
            .catalog
            .get(release)
            .ok_or_else(|| ServeError(format!("unknown release '{release}'")))?;
        self.engine.index_if(&entry, || {
            self.catalog
                .get(release)
                .is_some_and(|current| current.version == entry.version)
        })
    }

    /// Counts `n` answered queries, globally and against `release`.
    fn note_answered(&self, release: &str, n: u64) {
        self.metrics.queries.add(n);
        self.note_hits(release, n);
    }

    /// Records `n` answered queries against `release`.
    fn note_hits(&self, release: &str, n: u64) {
        if n == 0 {
            return;
        }
        {
            let map = self.release_hits.read().unwrap_or_else(|e| e.into_inner());
            if let Some(counter) = map.get(release) {
                counter.fetch_add(n, Ordering::Relaxed);
                return;
            }
        }
        let mut map = self.release_hits.write().unwrap_or_else(|e| e.into_inner());
        // First touch of this name: re-check the catalog *inside* the
        // exclusive lock. An in-flight request can race
        // [`Self::remove_release`] (its entry was resolved before the
        // removal); inserting here would re-create the counter that was
        // just pruned — a permanent leak. With the check under the same
        // lock the prune takes, either this insert happens first and the
        // prune removes it, or the removal happened first and the
        // catalog lookup fails.
        if self.catalog.get(release).is_none() {
            return;
        }
        // Bound the map before growing it. The eager prune in
        // [`Self::remove_release`] keeps well-behaved servers far below
        // the cap; this path only fires when releases were removed
        // behind the server's back ([`Catalog::remove`] directly), so
        // first retire rows whose names left the catalog — the same
        // retire-on-remove outcome, just deferred — and only then, if
        // the catalog itself outgrew the cap, drop the coldest row.
        if map.len() >= MAX_RELEASE_HIT_ENTRIES && !map.contains_key(release) {
            let stale: Vec<String> = map
                .keys()
                .filter(|name| self.catalog.get(name).is_none())
                .cloned()
                .collect();
            for name in stale {
                map.remove(&name);
                self.metrics.evicted_stat_entries.inc();
            }
            while map.len() >= MAX_RELEASE_HIT_ENTRIES {
                let coldest = map
                    .iter()
                    .min_by_key(|(name, hits)| (hits.load(Ordering::Relaxed), (*name).clone()))
                    .map(|(name, _)| name.clone());
                let Some(name) = coldest else { break };
                map.remove(&name);
                self.metrics.evicted_stat_entries.inc();
            }
        }
        map.entry(release.to_string())
            .or_insert_with(|| AtomicU64::new(0))
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Lifetime `(release, answered queries)` counts, sorted by name. A
    /// name's row lives as long as the release is served: removing it
    /// through [`Server::remove_release`] prunes the row, and a later
    /// republish starts a fresh count. The map is also capped at
    /// [`MAX_RELEASE_HIT_ENTRIES`].
    pub fn release_hits(&self) -> Vec<(String, u64)> {
        let map = self.release_hits.read().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(String, u64)> = map
            .iter()
            .map(|(name, hits)| (name.clone(), hits.load(Ordering::Relaxed)))
            .collect();
        out.sort();
        out
    }

    /// Engine counters (for benches and tests).
    pub fn engine_stats(&self) -> crate::EngineStats {
        self.engine.stats()
    }
}

/// Configuration for [`spawn_with`]: worker count, accepted encodings,
/// serving core, and timeouts. Construct with struct-update syntax over
/// [`SpawnOptions::default`].
#[derive(Debug, Clone)]
pub struct SpawnOptions {
    /// Worker threads answering requests (both front ends). Minimum 1.
    pub workers: usize,
    /// Accepted encodings (`Auto` sniffs per connection).
    pub wire: WireMode,
    /// Serving core; `None` (the default) means [`FrontEnd::Event`].
    /// Either way the pool takes over where epoll is unavailable.
    pub front_end: Option<FrontEnd>,
    /// Close a connection once no byte moves in either direction for
    /// this long (quiet analysts and stalled pipeliners alike).
    pub idle_timeout: Duration,
    /// Graceful-shutdown bound: how long [`ServerHandle::stop`] (event
    /// front end) waits for in-flight responses to flush before
    /// dropping stragglers.
    pub drain_deadline: Duration,
    /// Event-loop shards (event front end only). `0` (the default)
    /// resolves to the `DPOD_EVENT_LOOPS` environment variable when
    /// set, then to `min(4, cores/2)` with a floor of 1.
    pub event_loops: usize,
    /// `listen(2)` backlog applied to every listener — the primary on
    /// both front ends, and each shard's `SO_REUSEPORT` sibling (each
    /// gets its own full queue). The kernel clamps to
    /// `net.core.somaxconn`.
    pub listen_backlog: i32,
}

impl Default for SpawnOptions {
    fn default() -> Self {
        SpawnOptions {
            workers: 4,
            wire: WireMode::Auto,
            front_end: None,
            idle_timeout: IDLE_TIMEOUT,
            drain_deadline: Duration::from_secs(5),
            event_loops: 0,
            listen_backlog: 1024,
        }
    }
}

/// Resolves [`SpawnOptions::event_loops`]: an explicit count wins, then
/// the `DPOD_EVENT_LOOPS` environment variable, then `min(4, cores/2)`
/// with a floor of 1 — shards beyond ~4 buy little while requests stay
/// CPU-bound on the workers.
fn resolve_event_loops(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = std::env::var("DPOD_EVENT_LOOPS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    (cores / 2).clamp(1, 4)
}

/// Pool-mode bookkeeping shared with the [`ServerHandle`] so graceful
/// shutdown can reach into workers' blocking reads: each served
/// connection registers a second handle to its socket, and
/// [`ServerHandle::drain`] shuts the read sides down — the worker
/// finishes its in-flight request, flushes, observes EOF, and exits.
#[derive(Debug, Default)]
struct PoolState {
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_id: AtomicU64,
    /// Connections the acceptor handed into the worker channel that no
    /// worker has registered yet. [`ServerHandle::drain`] must treat
    /// these as live, or a momentarily-empty registry would let drain
    /// return while a queued connection is about to be served.
    handed: AtomicU64,
}

impl PoolState {
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut map = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        map.insert(id, clone);
        Some(id)
    }

    fn unregister(&self, id: Option<u64>) {
        if let Some(id) = id {
            let mut map = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            map.remove(&id);
        }
    }
}

/// Handle to a running TCP front end; dropping it does **not** stop the
/// server — call [`ServerHandle::stop`] or [`ServerHandle::drain`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    front_end: FrontEnd,
    /// Event-loop shards actually spawned (1 in pool mode).
    loops: usize,
    /// The `listen(2)` backlog requested for every listener.
    backlog: i32,
    /// Event mode: one join handle per loop shard. Pool mode: the
    /// acceptor.
    joins: Vec<std::thread::JoinHandle<()>>,
    /// Event mode: one waker per loop shard (shutdown must reach every
    /// shard's `epoll_wait`). Pool mode: empty.
    wakers: Vec<Arc<polling::Waker>>,
    drain_ms: Arc<AtomicU64>,
    pool: Option<Arc<PoolState>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Which serving core this handle drives (after fallback, so it may
    /// differ from the requested [`SpawnOptions::front_end`] on targets
    /// without epoll).
    pub fn front_end(&self) -> FrontEnd {
        self.front_end
    }

    /// Event-loop shards actually spawned (after fallback and
    /// environment resolution; `1` on the pool front end).
    pub fn event_loops(&self) -> usize {
        self.loops
    }

    /// The `listen(2)` backlog requested for every listener (the kernel
    /// clamps to `net.core.somaxconn`).
    pub fn listen_backlog(&self) -> i32 {
        self.backlog
    }

    /// Stops the server. On the event front end this is a graceful
    /// drain bounded by [`SpawnOptions::drain_deadline`]: accepting
    /// stops, every request already received is answered and flushed,
    /// then the loop exits. On the pool front end it keeps the legacy
    /// semantics — accepting stops and joins, but connections already
    /// handed to workers are served until the peer closes or idles out.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        for handle in self.joins.drain(..) {
            let _ = handle.join();
        }
    }

    /// Graceful shutdown on both front ends: stops accepting, drains
    /// in-flight responses, and returns once everything quiesced or
    /// `deadline` passed (stragglers are dropped). `dpod serve` calls
    /// this on SIGINT.
    pub fn drain(mut self, deadline: Duration) {
        self.drain_ms
            .store(deadline.as_millis() as u64, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        for handle in self.joins.drain(..) {
            // Event mode: every shard drains toward the same global
            // deadline (the first to observe shutdown anchors it), so
            // joining them in sequence still returns by ~deadline, not
            // shards × deadline. Pool mode: this is just the acceptor.
            let _ = handle.join();
        }
        let Some(pool) = &self.pool else { return };
        let by = Instant::now() + deadline;
        loop {
            {
                let map = pool.conns.lock().unwrap_or_else(|e| e.into_inner());
                // A connection can sit in the accept channel (counted in
                // `handed`) before any worker registers it; only when
                // both are empty is nothing in flight.
                if map.is_empty() && pool.handed.load(Ordering::SeqCst) == 0 {
                    return;
                }
                // Repeatedly: connections queued in the accept channel
                // surface in the registry only when a worker picks them
                // up, and shutting a read side twice is harmless.
                for stream in map.values() {
                    let _ = stream.shutdown(std::net::Shutdown::Read);
                }
                if Instant::now() >= by {
                    for stream in map.values() {
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                    }
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Spawns the serve-side retention timer for unattended feeds (`dpod
/// serve --retain-ttl` plumbs here): every `period`, each series in the
/// catalog is trimmed to its `retain` newest epochs through
/// [`Server::apply_retention`], retiring caches and refunding ε exactly
/// as a manual sweep would.
///
/// The thread holds only a [`Weak`](std::sync::Weak) reference, so it
/// never keeps a
/// server alive: once every strong reference drops (tests, short-lived
/// embedders), the next tick exits the loop. There is no explicit stop
/// handle — the timer is daemon-like by design.
pub fn spawn_retention_timer(
    server: &Arc<Server>,
    period: Duration,
    retain: usize,
) -> std::thread::JoinHandle<()> {
    let weak = Arc::downgrade(server);
    std::thread::spawn(move || loop {
        std::thread::sleep(period);
        let Some(server) = weak.upgrade() else {
            return;
        };
        for (series, epochs) in series::series_names(server.catalog()) {
            if epochs <= retain {
                continue;
            }
            // `retain` is validated non-zero by the CLI; a sweep error
            // on one series must not starve the others.
            let _ = server.apply_retention(&series, retain);
        }
    })
}

/// Binds `addr` and serves `server` on `workers` pool threads with the
/// default [`WireMode::Auto`] encoding sniff and default front end.
///
/// # Errors
/// IO errors from binding the listener or creating the event loop.
pub fn spawn(
    server: Arc<Server>,
    addr: impl ToSocketAddrs,
    workers: usize,
) -> std::io::Result<ServerHandle> {
    spawn_with(
        server,
        addr,
        SpawnOptions {
            workers,
            ..SpawnOptions::default()
        },
    )
}

/// Binds `addr` and serves `server` on `workers` pool threads, accepting
/// the encodings `mode` allows, on the default front end.
///
/// # Errors
/// IO errors from binding the listener or creating the event loop.
pub fn spawn_wire(
    server: Arc<Server>,
    addr: impl ToSocketAddrs,
    workers: usize,
    mode: WireMode,
) -> std::io::Result<ServerHandle> {
    spawn_with(
        server,
        addr,
        SpawnOptions {
            workers,
            wire: mode,
            ..SpawnOptions::default()
        },
    )
}

/// Binds `addr` and serves `server` with full control over front end,
/// encodings, and timeouts. Requesting [`FrontEnd::Event`] on a target
/// without epoll support falls back to the thread pool (check
/// [`ServerHandle::front_end`] for the outcome).
///
/// # Errors
/// IO errors from binding the listener or wiring the event loop.
pub fn spawn_with(
    server: Arc<Server>,
    addr: impl ToSocketAddrs,
    opts: SpawnOptions,
) -> std::io::Result<ServerHandle> {
    let requested = opts.front_end.unwrap_or_default();
    // Probe epoll support up front so the fallback can reuse the bound
    // listener (off Linux the polling shim reports `Unsupported`).
    let front_end = match requested {
        FrontEnd::Event if polling::Poller::new().is_ok() => FrontEnd::Event,
        _ => FrontEnd::Pool,
    };
    let loops = match front_end {
        FrontEnd::Event => resolve_event_loops(opts.event_loops),
        FrontEnd::Pool => 1,
    };
    let backlog = opts.listen_backlog.max(1);
    // With several shards the primary listener itself must carry
    // SO_REUSEPORT (set before bind) or the sibling shard listeners
    // cannot share its address; when that bind fails — no SO_REUSEPORT
    // on this platform — the event front end stripes accepts from the
    // one plain listener instead.
    let listener = if loops > 1 {
        match first_addr(&addr).and_then(|a| polling::net::bind_reuseport(a, backlog)) {
            Ok(l) => l,
            Err(_) => bind_with_backlog(&addr, backlog)?,
        }
    } else {
        bind_with_backlog(&addr, backlog)?
    };
    let local = listener.local_addr()?;
    match front_end {
        FrontEnd::Event => spawn_event_front_end(server, listener, &opts, local, loops, backlog),
        FrontEnd::Pool => Ok(spawn_pool_front_end(server, listener, &opts, local)),
    }
}

/// Resolves `addr` to its first candidate, the one
/// [`polling::net::bind_reuseport`] (a raw `socket`/`bind` sequence,
/// not an iterator over candidates) binds.
fn first_addr(addr: &impl ToSocketAddrs) -> std::io::Result<SocketAddr> {
    addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "address resolved to no candidates",
        )
    })
}

/// Plain `std` bind plus a production-sized `listen(2)` queue.
/// `TcpListener::bind` hardcodes an accept backlog of 128, which a
/// fleet of analysts reconnecting at once (or a load generator starting
/// up) overflows into multi-second SYN-retransmit stalls; re-apply
/// `listen(2)` with the configured queue (the kernel clamps to
/// `net.core.somaxconn`). A failed resize is surfaced as a startup
/// warning — except `Unsupported`, the shim's documented answer off
/// Linux, where 128 simply stands.
fn bind_with_backlog(addr: &impl ToSocketAddrs, backlog: i32) -> std::io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        if let Err(e) = polling::net::set_listen_backlog(listener.as_raw_fd(), backlog) {
            if e.kind() != std::io::ErrorKind::Unsupported {
                eprintln!(
                    "dpod-serve: warning: failed to resize listen backlog to {backlog}: {e} \
                     (the kernel default stands)"
                );
            }
        }
    }
    Ok(listener)
}

#[cfg(unix)]
fn spawn_event_front_end(
    server: Arc<Server>,
    listener: TcpListener,
    opts: &SpawnOptions,
    local: SocketAddr,
    loops: usize,
    backlog: i32,
) -> std::io::Result<ServerHandle> {
    server.metrics().note_front_end("event");
    let shutdown = Arc::new(AtomicBool::new(false));
    let drain_ms = Arc::new(AtomicU64::new(opts.drain_deadline.as_millis() as u64));
    // One listener per shard when the kernel can spread accepts
    // (SO_REUSEPORT); otherwise the single listener is striped by
    // shard 0. All-or-nothing: with only a partial sibling set the
    // kernel would spread accepts over fewer queues than shards and
    // leave the rest idle.
    let mut listeners = vec![listener];
    if loops > 1 {
        let mut siblings = Vec::with_capacity(loops - 1);
        for _ in 1..loops {
            match polling::net::bind_reuseport(local, backlog) {
                Ok(l) => siblings.push(l),
                Err(_) => {
                    siblings.clear();
                    break;
                }
            }
        }
        listeners.extend(siblings);
    }
    let cfg = crate::event::EventConfig {
        workers: opts.workers.max(1),
        loops,
        mode: opts.wire,
        idle_timeout: opts.idle_timeout,
    };
    let (joins, wakers) = crate::event::spawn(
        server,
        listeners,
        cfg,
        Arc::clone(&shutdown),
        Arc::clone(&drain_ms),
    )?;
    Ok(ServerHandle {
        addr: local,
        shutdown,
        front_end: FrontEnd::Event,
        loops,
        backlog,
        joins,
        wakers,
        drain_ms,
        pool: None,
    })
}

#[cfg(not(unix))]
fn spawn_event_front_end(
    _server: Arc<Server>,
    _listener: TcpListener,
    _opts: &SpawnOptions,
    _local: SocketAddr,
    _loops: usize,
    _backlog: i32,
) -> std::io::Result<ServerHandle> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the event front end requires epoll",
    ))
}

/// The thread-per-connection front end (see the module docs).
fn spawn_pool_front_end(
    server: Arc<Server>,
    listener: TcpListener,
    opts: &SpawnOptions,
    local: SocketAddr,
) -> ServerHandle {
    server.metrics().note_front_end("pool");
    let shutdown = Arc::new(AtomicBool::new(false));
    let workers = opts.workers.max(1);
    let mode = opts.wire;
    let idle_timeout = opts.idle_timeout;
    let pool_state = Arc::new(PoolState::default());

    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    for _ in 0..workers {
        let rx = Arc::clone(&rx);
        let server = Arc::clone(&server);
        let pool_state = Arc::clone(&pool_state);
        std::thread::spawn(move || loop {
            let stream = {
                let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                guard.recv()
            };
            match stream {
                Ok(s) => {
                    server.connection_opened();
                    let id = pool_state.register(&s);
                    // Registered (or at least counted): the channel's
                    // hand-off is no longer in flight.
                    pool_state.handed.fetch_sub(1, Ordering::SeqCst);
                    // Per-connection failures are that connection's
                    // problem; the worker lives on.
                    let _ = serve_blocking(&server, &s, mode, idle_timeout);
                    pool_state.unregister(id);
                    server.connection_closed();
                }
                Err(_) => return, // channel closed: server stopped
            }
        });
    }

    let accept_shutdown = Arc::clone(&shutdown);
    let accept_pool_state = Arc::clone(&pool_state);
    let acceptor = std::thread::spawn(move || {
        listener
            .set_nonblocking(true)
            .expect("listener supports non-blocking");
        loop {
            if accept_shutdown.load(Ordering::SeqCst) {
                return; // dropping `tx` drains and stops the workers
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false).ok();
                    // Request/response traffic is latency-bound; Nagle
                    // interacting with delayed ACKs can stall a large
                    // pipelined frame for tens of milliseconds.
                    stream.set_nodelay(true).ok();
                    accept_pool_state.handed.fetch_add(1, Ordering::SeqCst);
                    if tx.send(stream).is_err() {
                        // No worker will ever pick this one up.
                        accept_pool_state.handed.fetch_sub(1, Ordering::SeqCst);
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    });

    ServerHandle {
        addr: local,
        shutdown,
        front_end: FrontEnd::Pool,
        loops: 1,
        backlog: opts.listen_backlog.max(1),
        joins: vec![acceptor],
        wakers: Vec::new(),
        drain_ms: Arc::new(AtomicU64::new(opts.drain_deadline.as_millis() as u64)),
        pool: Some(pool_state),
    }
}

/// Serves one connection on a pool worker until the peer closes, the
/// stream turns fatal, or no byte arrives or drains for `idle_timeout`
/// (default [`IDLE_TIMEOUT`]). Each read goes through the connection's
/// [`Assembler`] and its completed items through [`run_job`], exactly
/// as on the event front end; the only difference is that this loop
/// blocks. The write timeout keeps a client that stops draining
/// responses from pinning the worker in `write_all`.
fn serve_blocking(
    server: &Server,
    mut stream: &TcpStream,
    mode: WireMode,
    idle_timeout: Duration,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(idle_timeout))?;
    stream.set_write_timeout(Some(idle_timeout))?;
    let mut asm = Assembler::new(mode);
    let mut buf = vec![0u8; 64 << 10];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            asm.push_eof();
        } else {
            asm.push(&buf[..n]);
        }
        let (out, close) = run_job(server, asm.take_items(), asm.packed());
        stream.write_all(&out)?;
        if close || n == 0 {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
    use dpod_dp::Epsilon;
    use dpod_fmatrix::{DenseMatrix, Shape};
    use dpod_query::plan;
    use std::io::{BufRead, BufReader, BufWriter};

    fn test_server(names: &[&str]) -> Arc<Server> {
        let catalog = Arc::new(Catalog::new());
        for (i, name) in names.iter().enumerate() {
            let s = Shape::new(vec![8, 8]).unwrap();
            let mut m = DenseMatrix::<u64>::zeros(s);
            m.add_at(&[2, 2], 500).unwrap();
            let out = Ebp::default()
                .sanitize(
                    &m,
                    Epsilon::new(0.5).unwrap(),
                    &mut dpod_dp::seeded_rng(i as u64),
                )
                .unwrap();
            catalog.publish(name, PublishedRelease::from_sanitized(&out));
        }
        Arc::new(Server::new(catalog, 1 << 20))
    }

    /// The reference rebuild: a fresh `into_sanitized()` of the catalog
    /// entry, outside every engine cache.
    fn rebuild(server: &Server, name: &str) -> dpod_core::SanitizedMatrix {
        let entry = server.catalog().get(name).expect("published");
        entry.release.as_ref().clone().into_sanitized().unwrap()
    }

    /// The reference answer: `plan::execute` (the cold scan backend) on
    /// a fresh rebuild, as the serialized response a server should send.
    fn reference(server: &Server, name: &str, plan: &QueryPlan) -> String {
        let response = match plan::execute(&rebuild(server, name), plan) {
            Ok(answer) => Response::Answer { answer },
            Err(e) => Response::Error { message: e.0 },
        };
        serde_json::to_string(&response).unwrap()
    }

    #[test]
    fn handle_answers_queries_and_batches() {
        let server = test_server(&["city"]);
        let q = Request::Query {
            release: "city".into(),
            lo: vec![0, 0],
            hi: vec![8, 8],
        };
        let Response::Value { value } = server.handle(&q) else {
            panic!("expected value");
        };
        assert!(value.is_finite());

        let b = Request::Batch {
            release: "city".into(),
            ranges: vec![(vec![0, 0], vec![4, 4]), (vec![0, 0], vec![8, 8])],
        };
        let Response::Values { values } = server.handle(&b) else {
            panic!("expected values");
        };
        assert_eq!(values.len(), 2);
        assert_eq!(values[1], value);
        assert_eq!(server.metrics().queries.get(), 3);
    }

    #[test]
    fn handle_reports_errors_not_panics() {
        let server = test_server(&["city"]);
        for bad in [
            Request::Query {
                release: "nope".into(),
                lo: vec![0, 0],
                hi: vec![4, 4],
            },
            Request::Query {
                release: "city".into(),
                lo: vec![0],
                hi: vec![4],
            },
            Request::Query {
                release: "city".into(),
                lo: vec![0, 0],
                hi: vec![9, 9],
            },
            Request::Query {
                release: "city".into(),
                lo: vec![5, 5],
                hi: vec![2, 2],
            },
        ] {
            let Response::Error { message } = server.handle(&bad) else {
                panic!("expected error for {bad:?}");
            };
            assert!(!message.is_empty());
        }
    }

    #[test]
    fn list_and_stats_reflect_catalog() {
        let server = test_server(&["a", "b"]);
        let Response::Releases { releases } = server.handle(&Request::List) else {
            panic!("expected releases");
        };
        assert_eq!(releases.len(), 2);
        assert_eq!(releases[0].name, "a");
        assert_eq!(releases[0].domain, vec![8, 8]);

        server.handle(&Request::Query {
            release: "a".into(),
            lo: vec![0, 0],
            hi: vec![1, 1],
        });
        let Response::Stats { stats } = server.handle(&Request::Stats) else {
            panic!("expected stats");
        };
        let get = |name: &str, labels: &[(&str, &str)]| stats.get(name, labels).unwrap();
        assert_eq!(get("dpod_catalog_releases", &[]), 2.0);
        assert_eq!(get("dpod_server_queries_total", &[]), 1.0);
        assert_eq!(
            get("dpod_engine_memo_misses_total", &[("memo", "matrix")]),
            1.0
        );
        let hit_rows: Vec<_> = stats
            .samples()
            .filter(|s| s.name == "dpod_release_hits_total")
            .collect();
        assert_eq!(hit_rows.len(), 1);
        assert_eq!(hit_rows[0].labels, vec![("release".into(), "a".into())]);
        assert_eq!(hit_rows[0].value, 1.0);
    }

    #[test]
    fn plan_requests_share_the_handle_path() {
        let server = test_server(&["city"]);
        let matrix = rebuild(&server, "city");

        // A Many plan answers every variant in order, bit-identically to
        // the in-process executor.
        let plan = QueryPlan::Many {
            plans: vec![
                QueryPlan::Range {
                    lo: vec![0, 0],
                    hi: vec![4, 4],
                },
                QueryPlan::Total,
                QueryPlan::TopK { k: 3 },
                QueryPlan::Marginal { keep: vec![1] },
            ],
        };
        let Response::Answer { answer } = server.handle(&Request::Plan {
            release: "city".into(),
            plan: plan.clone(),
        }) else {
            panic!("expected answer");
        };
        assert_eq!(answer, plan::execute(&matrix, &plan).unwrap());
        // Four leaves → four answered queries, on both counters.
        assert_eq!(server.metrics().queries.get(), 4);
        assert_eq!(server.release_hits()[0].1, 4);

        // Failures are descriptive errors and count nothing.
        for (release, plan) in [
            ("nope".to_string(), QueryPlan::Total),
            ("city".to_string(), QueryPlan::Marginal { keep: vec![9] }),
            ("city".to_string(), QueryPlan::od()), // 2-D release: no OD legs
            (
                "city".to_string(),
                QueryPlan::Many {
                    plans: vec![QueryPlan::Many { plans: vec![] }],
                },
            ),
        ] {
            let Response::Error { message } = server.handle(&Request::Plan { release, plan })
            else {
                panic!("expected error");
            };
            assert!(!message.is_empty());
        }
        assert_eq!(server.metrics().queries.get(), 4);

        // A lone TopK answer carries the release's domain.
        let Response::Answer { answer } = server.handle(&Request::Plan {
            release: "city".into(),
            plan: QueryPlan::TopK { k: 1 },
        }) else {
            panic!("expected answer");
        };
        let Answer::TopK { dims, cells } = answer else {
            panic!("expected top-k");
        };
        assert_eq!(dims, vec![8, 8]);
        assert_eq!(cells.len(), 1);
    }

    #[test]
    fn plan_requests_build_and_reuse_the_release_index() {
        use dpod_query::QueryPlan;
        let server = test_server(&["city"]);
        let req = Request::Plan {
            release: "city".into(),
            plan: QueryPlan::Marginal { keep: vec![0] },
        };
        assert!(matches!(server.handle(&req), Response::Answer { .. }));
        let stats = server.engine_stats();
        assert_eq!(stats.index_entries, 1);
        assert_eq!((stats.index_hits, stats.index_misses), (0, 1));
        assert!(matches!(server.handle(&req), Response::Answer { .. }));
        let stats = server.engine_stats();
        assert_eq!((stats.index_hits, stats.index_misses), (1, 1));
        assert!(stats.index_build_nanos > 0, "marginal build must be timed");

        // The Stats response surfaces the index counters.
        let Response::Stats { stats } = server.handle(&Request::Stats) else {
            panic!("expected stats");
        };
        let index = |name: &str| stats.get(name, &[("memo", "index")]).unwrap();
        assert_eq!(index("dpod_engine_memo_entries"), 1.0);
        assert_eq!(
            (
                index("dpod_engine_memo_hits_total"),
                index("dpod_engine_memo_misses_total")
            ),
            (1.0, 1.0)
        );
        assert!(
            stats
                .get("dpod_engine_index_build_nanoseconds_total", &[])
                .unwrap()
                > 0.0
        );

        // Legacy Query traffic answers from the same index: a hit, not
        // another build.
        server.handle(&Request::Query {
            release: "city".into(),
            lo: vec![0, 0],
            hi: vec![4, 4],
        });
        let stats = server.engine_stats();
        assert_eq!((stats.index_hits, stats.index_misses), (2, 1));
    }

    #[test]
    fn cold_and_indexed_plan_paths_answer_identically() {
        let server = test_server(&["city"]);
        let plan = QueryPlan::Many {
            plans: vec![
                QueryPlan::Total,
                QueryPlan::TopK { k: 5 },
                QueryPlan::Marginal { keep: vec![0, 1] },
                QueryPlan::Range {
                    lo: vec![1, 1],
                    hi: vec![7, 7],
                },
            ],
        };
        let cold = reference(&server, "city", &plan);
        let req = Request::Plan {
            release: "city".into(),
            plan,
        };
        let indexed = serde_json::to_string(&server.handle(&req)).unwrap();
        let warm = serde_json::to_string(&server.handle(&req)).unwrap();
        assert_eq!(indexed, cold, "the index must answer as the cold scan");
        assert_eq!(indexed, warm);
    }

    /// DrillDown plans route through the engine-cached index's pyramid
    /// memo: answers are bit-identical to the cold scan backend and to
    /// executing the inner plan over a hand-coarsened leaf, and the
    /// stats snapshot reports the memo's hit/miss traffic.
    #[test]
    fn drill_down_plans_route_through_the_pyramid_memo() {
        let server = test_server(&["city"]);
        let drill = QueryPlan::DrillDown {
            level: 2,
            plan: Box::new(QueryPlan::Marginal { keep: vec![0, 1] }),
        };
        let cold = reference(&server, "city", &drill);
        let req = Request::Plan {
            release: "city".into(),
            plan: drill,
        };
        let indexed = serde_json::to_string(&server.handle(&req)).unwrap();
        let warm = serde_json::to_string(&server.handle(&req)).unwrap();
        assert_eq!(indexed, warm);
        assert_eq!(indexed, cold, "the index must answer as the cold scan");
        // Reference: coarsen the rebuilt leaf by hand, execute the
        // inner plan against it, and compare serialized responses.
        let leaf = rebuild(&server, "city");
        let coarse = dpod_core::SanitizedMatrix::from_entries(
            "coarse",
            0.5,
            dpod_fmatrix::coarsen_to_level(leaf.matrix(), 2).unwrap(),
        );
        let answer = plan::execute(&coarse, &QueryPlan::Marginal { keep: vec![0, 1] }).unwrap();
        let reference = serde_json::to_string(&Response::Answer { answer }).unwrap();
        assert_eq!(indexed, reference);
        // One miss (level built), one warm hit; the references ran
        // outside the server and touched no counters.
        let Response::Stats { stats } = server.handle(&Request::Stats) else {
            panic!("expected stats");
        };
        let pyramid = |name: &str| stats.get(name, &[("memo", "pyramid")]).unwrap();
        assert_eq!(
            (
                pyramid("dpod_engine_memo_hits_total"),
                pyramid("dpod_engine_memo_misses_total")
            ),
            (1.0, 1.0)
        );
        assert_eq!(pyramid("dpod_engine_memo_entries"), 1.0);
        assert!(pyramid("dpod_engine_memo_bytes") > 0.0);
        let level_2 = [("level", "2")];
        assert_eq!(
            stats.get("dpod_engine_pyramid_level_hits_total", &level_2),
            Some(1.0)
        );
    }

    #[test]
    fn window_plans_reject_drill_down_inner_plans() {
        let server = test_server(&["city"]);
        let req = Request::Plan {
            release: "city".into(),
            plan: QueryPlan::Window {
                select: EpochSelector::LastK { k: 1 },
                merge: WindowMerge::Sum,
                plan: Box::new(QueryPlan::DrillDown {
                    level: 1,
                    plan: Box::new(QueryPlan::Total),
                }),
            },
        };
        let Response::Error { message } = server.handle(&req) else {
            panic!("expected error");
        };
        assert_eq!(
            message,
            "DrillDown plans select a pyramid level at the top level \
             and cannot ride inside Window"
        );
    }

    #[test]
    fn remove_release_prunes_hit_counters() {
        let server = test_server(&["hot", "cold"]);
        for release in ["hot", "cold"] {
            server.handle(&Request::Query {
                release: release.into(),
                lo: vec![0, 0],
                hi: vec![2, 2],
            });
            // Aggregate traffic builds each release's plan index too.
            server.handle(&Request::Plan {
                release: release.into(),
                plan: dpod_query::QueryPlan::TopK { k: 1 },
            });
        }
        assert_eq!(server.release_hits().len(), 2);

        // Removing through the server drops the counter with the release.
        assert_eq!(server.engine_stats().entries, 2);
        assert_eq!(server.engine_stats().index_entries, 2);
        assert!(server.remove_release("hot"));
        assert!(!server.remove_release("hot"), "second remove is a no-op");
        let hits = server.release_hits();
        assert_eq!(hits.len(), 1, "removed release must not leak a counter");
        assert_eq!(hits[0].0, "cold");
        assert_eq!(server.catalog().len(), 1);
        // …and its rebuilt matrix must leave the cache with it.
        assert_eq!(
            server.engine_stats().entries,
            1,
            "removed release must not strand its rebuild in the cache"
        );
        assert_eq!(
            server.engine_stats().index_entries,
            1,
            "removed release must not strand its plan index either"
        );

        // A republish under the same name starts a fresh count.
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[1, 1], 250).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(77))
            .unwrap();
        server
            .catalog()
            .publish("hot", PublishedRelease::from_sanitized(&out));
        server.handle(&Request::Query {
            release: "hot".into(),
            lo: vec![0, 0],
            hi: vec![2, 2],
        });
        let hits = server.release_hits();
        let as_pairs: Vec<(&str, u64)> = hits.iter().map(|(n, h)| (n.as_str(), *h)).collect();
        assert_eq!(as_pairs, vec![("cold", 2), ("hot", 1)]);
    }

    #[test]
    fn release_hits_track_per_release_traffic() {
        let server = test_server(&["hot", "cold"]);
        for _ in 0..5 {
            server.handle(&Request::Query {
                release: "hot".into(),
                lo: vec![0, 0],
                hi: vec![2, 2],
            });
        }
        server.handle(&Request::Batch {
            release: "cold".into(),
            ranges: vec![(vec![0, 0], vec![1, 1]), (vec![0, 0], vec![3, 3])],
        });
        // Failures do not count.
        server.handle(&Request::Query {
            release: "hot".into(),
            lo: vec![9, 9],
            hi: vec![1, 1],
        });
        server.handle(&Request::Query {
            release: "missing".into(),
            lo: vec![0, 0],
            hi: vec![1, 1],
        });
        let hits = server.release_hits();
        let as_pairs: Vec<(&str, u64)> = hits.iter().map(|(n, h)| (n.as_str(), *h)).collect();
        assert_eq!(as_pairs, vec![("cold", 2), ("hot", 5)]);
    }

    /// A `Batch` is answered whole or not at all, like a `Many` of the
    /// same ranges: one bad range fails it with the same message and it
    /// counts no queries and no release hits.
    #[test]
    fn failed_batches_count_nothing_like_failed_many_plans() {
        let server = test_server(&["city"]);
        let ranges = vec![
            (vec![0, 0], vec![4, 4]),
            (vec![0, 0], vec![9, 9]),
            (vec![1, 1], vec![2, 2]),
        ];
        let Response::Error { message } = server.handle(&Request::Batch {
            release: "city".into(),
            ranges: ranges.clone(),
        }) else {
            panic!("expected the batch to fail");
        };
        let many = QueryPlan::Many {
            plans: ranges
                .iter()
                .map(|(lo, hi)| QueryPlan::Range {
                    lo: lo.clone(),
                    hi: hi.clone(),
                })
                .collect(),
        };
        let Response::Error {
            message: many_message,
        } = server.handle(&Request::Plan {
            release: "city".into(),
            plan: many,
        })
        else {
            panic!("expected the Many to fail");
        };
        assert_eq!(message, many_message);
        assert_eq!(server.metrics().queries.get(), 0);
        assert!(server.release_hits().is_empty());

        // The same batch without its bad range counts one per range.
        let Response::Values { values } = server.handle(&Request::Batch {
            release: "city".into(),
            ranges: vec![ranges[0].clone(), ranges[2].clone()],
        }) else {
            panic!("expected values");
        };
        assert_eq!(values.len(), 2);
        assert_eq!(server.metrics().queries.get(), 2);
        assert_eq!(server.release_hits()[0].1, 2);
    }

    /// Publishes one sanitized release under `names` on the server's
    /// catalog (cloning the release is much cheaper than re-sanitizing
    /// per name, and the hit-counter map only cares about names).
    fn publish_clones(server: &Server, names: impl Iterator<Item = String>) {
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[3, 3], 300).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(9))
            .unwrap();
        let release = PublishedRelease::from_sanitized(&out);
        for name in names {
            server.catalog().publish(&name, release.clone());
        }
    }

    fn query_for(name: &str) -> Request {
        Request::Query {
            release: name.into(),
            lo: vec![0, 0],
            hi: vec![2, 2],
        }
    }

    #[test]
    fn release_hit_map_stays_bounded_under_catalog_churn() {
        let server = test_server(&[]);
        let n = MAX_RELEASE_HIT_ENTRIES + 8;
        publish_clones(&server, (0..n).map(|i| format!("r{i:05}")));
        // One hot release that must survive every coldest-row eviction.
        for _ in 0..10 {
            server.handle(&query_for("r00000"));
        }
        for i in 1..n {
            server.handle(&query_for(&format!("r{i:05}")));
        }
        let hits = server.release_hits();
        assert!(
            hits.len() <= MAX_RELEASE_HIT_ENTRIES,
            "map grew past the cap: {}",
            hits.len()
        );
        assert!(
            hits.iter().any(|(n, h)| n == "r00000" && *h == 10),
            "the hottest row must not be the one evicted"
        );
        let evicted = server.metrics().evicted_stat_entries.get();
        assert!(evicted >= 8, "expected ≥8 evictions, saw {evicted}");
        // The stats snapshot carries the same counter.
        let Response::Stats { stats } = server.handle(&Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(
            stats.get("dpod_server_evicted_stat_entries_total", &[]),
            Some(server.metrics().evicted_stat_entries.get() as f64)
        );
        let rows = stats
            .samples()
            .filter(|s| s.name == "dpod_release_hits_total")
            .count();
        assert!(rows <= MAX_RELEASE_HIT_ENTRIES);
    }

    #[test]
    fn stale_hit_rows_are_retired_before_live_ones_are_evicted() {
        let server = test_server(&[]);
        publish_clones(
            &server,
            (0..MAX_RELEASE_HIT_ENTRIES).map(|i| format!("r{i:05}")),
        );
        for i in 0..MAX_RELEASE_HIT_ENTRIES {
            server.handle(&query_for(&format!("r{i:05}")));
        }
        assert_eq!(server.release_hits().len(), MAX_RELEASE_HIT_ENTRIES);

        // Remove releases *behind the server's back* (straight through
        // the catalog, bypassing `remove_release`'s eager prune), so
        // their rows go stale.
        for i in 0..4 {
            assert!(server.catalog().remove(&format!("r{i:05}")));
        }
        assert_eq!(server.release_hits().len(), MAX_RELEASE_HIT_ENTRIES);

        // The next first-touch insert retires the stale rows instead of
        // evicting live ones.
        publish_clones(&server, std::iter::once("fresh".to_string()));
        server.handle(&query_for("fresh"));
        let hits = server.release_hits();
        assert!(hits.iter().any(|(n, _)| n == "fresh"));
        assert!(
            !hits
                .iter()
                .any(|(n, _)| n.as_str() < "r00004" && n != "fresh"),
            "stale rows must be the ones retired"
        );
        assert!(
            hits.iter().any(|(n, _)| n == "r00004"),
            "live rows survive when stale ones cover the deficit"
        );
        assert_eq!(server.metrics().evicted_stat_entries.get(), 4);
    }

    #[test]
    fn binary_clients_get_identical_answers() {
        let server = test_server(&["city"]);
        let handle = spawn(Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
        let addr = handle.addr();

        // Reference answers via the in-process path.
        let ranges: Vec<(Vec<usize>, Vec<usize>)> =
            (1..=8).map(|hi| (vec![0, 0], vec![hi, hi])).collect();
        let Response::Values { values: expected } = server.handle(&Request::Batch {
            release: "city".into(),
            ranges: ranges.clone(),
        }) else {
            panic!("reference batch failed");
        };

        let mut client = crate::wire::Client::connect(addr).unwrap();
        let got = client.batch("city", ranges).unwrap();
        assert_eq!(got, expected, "binary answers must be bit-identical");

        // Single queries, pipelined, still in order.
        for hi in 1..=4 {
            client
                .send(&Request::Query {
                    release: "city".into(),
                    lo: vec![0, 0],
                    hi: vec![hi, hi],
                })
                .unwrap();
        }
        for hi in 1..=4usize {
            let Response::Value { value } = client.receive().unwrap() else {
                panic!("expected value");
            };
            assert_eq!(value, expected[hi - 1]);
        }

        // Stats and List also cross the wire.
        let Response::Stats { stats } = client.request(&Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(stats.get("dpod_catalog_releases", &[]), Some(1.0));
        assert!(stats
            .get("dpod_release_hits_total", &[("release", "city")])
            .is_some());
        let Response::Releases { releases } = client.request(&Request::List).unwrap() else {
            panic!("expected releases");
        };
        assert_eq!(releases[0].name, "city");
        handle.stop();
    }

    #[test]
    fn json_and_binary_clients_share_one_endpoint() {
        let server = test_server(&["city"]);
        let handle = spawn(Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
        let addr = handle.addr();
        let req = Request::Query {
            release: "city".into(),
            lo: vec![0, 0],
            hi: vec![4, 4],
        };

        let mut binary = crate::wire::Client::connect(addr).unwrap();
        let Response::Value { value: bin_value } = binary.request(&req).unwrap() else {
            panic!("binary query failed");
        };

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writer
            .write_all(serde_json::to_string(&req).unwrap().as_bytes())
            .unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let Response::Value { value: json_value } = serde_json::from_str(line.trim()).unwrap()
        else {
            panic!("json query failed");
        };
        assert_eq!(bin_value, json_value);
        handle.stop();
    }

    #[test]
    fn wire_mode_restrictions_refuse_the_other_encoding() {
        // A JSON-only endpoint refuses the DPRB preamble in-protocol.
        let server = test_server(&["city"]);
        let handle = spawn_wire(Arc::clone(&server), "127.0.0.1:0", 1, WireMode::Json).unwrap();
        let mut client = crate::wire::Client::connect(handle.addr()).unwrap();
        match client.request(&Request::List) {
            Ok(Response::Error { message }) => assert!(message.contains("JSON"), "{message}"),
            other => panic!("expected refusal, got {other:?}"),
        }
        handle.stop();

        // A binary-only endpoint answers JSON lines with an error frame.
        let server = test_server(&["city"]);
        let handle = spawn_wire(Arc::clone(&server), "127.0.0.1:0", 1, WireMode::Binary).unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        writer.write_all(b"\"List\"\n").unwrap();
        writer.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let body = crate::wire::read_frame(&mut reader).unwrap().unwrap();
        match crate::wire::decode_response(&body) {
            Ok(Response::Error { message }) => assert!(message.contains("DPRB"), "{message}"),
            other => panic!("expected refusal frame, got {other:?}"),
        }
        // But binary clients are served normally.
        let mut client = crate::wire::Client::connect(handle.addr()).unwrap();
        assert!(matches!(
            client.request(&Request::List),
            Ok(Response::Releases { .. })
        ));
        handle.stop();
    }

    #[test]
    fn tcp_round_trip_with_concurrent_clients() {
        let server = test_server(&["city", "transit"]);
        let handle = spawn(Arc::clone(&server), "127.0.0.1:0", 4).unwrap();
        let addr = handle.addr();

        let mut joins = Vec::new();
        for t in 0..4 {
            joins.push(std::thread::spawn(move || {
                let release = if t % 2 == 0 { "city" } else { "transit" };
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = BufWriter::new(stream);
                for i in 0..25usize {
                    let hi = 1 + (i % 8);
                    let req = Request::Query {
                        release: release.into(),
                        lo: vec![0, 0],
                        hi: vec![hi, hi],
                    };
                    writer
                        .write_all(serde_json::to_string(&req).unwrap().as_bytes())
                        .unwrap();
                    writer.write_all(b"\n").unwrap();
                    writer.flush().unwrap();
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    let resp: Response = serde_json::from_str(line.trim()).unwrap();
                    assert!(matches!(resp, Response::Value { .. }), "{resp:?}");
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(server.metrics().queries.get(), 100);
        handle.stop();
    }

    #[test]
    fn malformed_lines_get_error_responses() {
        let server = test_server(&["city"]);
        let handle = spawn(server, "127.0.0.1:0", 1).unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writer.write_all(b"this is not json\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp: Response = serde_json::from_str(line.trim()).unwrap();
        assert!(matches!(resp, Response::Error { .. }));

        // The connection survives and still answers valid requests.
        let req = Request::Query {
            release: "city".into(),
            lo: vec![0, 0],
            hi: vec![2, 2],
        };
        writer
            .write_all(serde_json::to_string(&req).unwrap().as_bytes())
            .unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp: Response = serde_json::from_str(line.trim()).unwrap();
        assert!(matches!(resp, Response::Value { .. }));
        handle.stop();
    }

    /// An 8×8 release whose noise differs per seed (each epoch of a
    /// series must carry distinct values or the merge tests prove
    /// nothing).
    fn epoch_release(seed: u64) -> PublishedRelease {
        let s = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(s);
        m.add_at(&[2, 2], 500).unwrap();
        m.add_at(&[5, 1], 120).unwrap();
        let out = Ebp::default()
            .sanitize(
                &m,
                Epsilon::new(0.5).unwrap(),
                &mut dpod_dp::seeded_rng(seed),
            )
            .unwrap();
        PublishedRelease::from_sanitized(&out)
    }

    /// A server carrying epochs 1–3 of series `city`.
    fn epoch_server() -> Arc<Server> {
        let server = Arc::new(Server::new(Arc::new(Catalog::new()), 1 << 20));
        for epoch in 1..=3u64 {
            server
                .publish_epoch("city", epoch, epoch_release(100 + epoch))
                .unwrap();
        }
        server
    }

    /// The retention timer sweeps every series down to its `retain`
    /// newest epochs, and its thread — holding only a weak reference —
    /// exits once the server is dropped.
    #[test]
    fn retention_timer_sweeps_series_and_dies_with_the_server() {
        let server = epoch_server();
        assert_eq!(server.catalog().len(), 3);
        let timer = spawn_retention_timer(&server, Duration::from_millis(10), 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.catalog().len() > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.catalog().len(), 1, "timer should retire epochs 1-2");
        assert!(server.catalog().get("city@3").is_some());
        assert_eq!(server.metrics().epochs_retired.get(), 2);
        // Refunds landed: one live epoch's ε remains on the ledger.
        let active = server.ledgers().active_epsilon("city").unwrap();
        assert!((active - 0.5).abs() < 1e-12, "{active}");
        // Dropping the last strong reference ends the timer thread.
        drop(server);
        timer.join().expect("timer thread exits cleanly");
    }

    /// `handle_encoded` returns byte-identical output to the
    /// handle-then-encode path, serves warm hits from the memo (same
    /// allocation, no re-execution), and keeps encodings independent.
    #[test]
    fn handle_encoded_memoizes_plan_responses_per_encoding() {
        let server = test_server(&["city"]);
        let request = Request::Plan {
            release: "city".into(),
            plan: QueryPlan::Marginal { keep: vec![0] },
        };

        // Cold call matches encoding the plain handle() response.
        let cold = server.handle_encoded(&request, ResponseEncoding::Binary);
        let by_hand = ResponseEncoding::Binary.encode(&server.handle(&request));
        assert_eq!(*cold, by_hand);

        // Warm call: the very same bytes, straight from the memo.
        let warm = server.handle_encoded(&request, ResponseEncoding::Binary);
        assert!(Arc::ptr_eq(&cold, &warm));

        // A different encoding memoizes separately and stays correct.
        let json = server.handle_encoded(&request, ResponseEncoding::Json);
        let mut json_line = serde_json::to_string(&server.handle(&request))
            .unwrap()
            .into_bytes();
        json_line.push(b'\n');
        assert_eq!(*json, json_line);

        let stats = server.engine.stats();
        assert_eq!(stats.encoded_entries, 2);
        assert_eq!(stats.encoded_hits, 1);
        assert_eq!(stats.encoded_misses, 2);
        assert!(stats.encoded_bytes > 0);

        // Errors and non-plan requests bypass the memo.
        let bad = Request::Plan {
            release: "nope".into(),
            plan: QueryPlan::Total,
        };
        let err = server.handle_encoded(&bad, ResponseEncoding::Binary);
        assert_eq!(*err, ResponseEncoding::Binary.encode(&server.handle(&bad)));
        let stats = server.engine.stats();
        assert_eq!(stats.encoded_entries, 2);

        // The memoized bytes are the cold scan's answer, encoded.
        let plan = QueryPlan::Marginal { keep: vec![0] };
        let answer = plan::execute(&rebuild(&server, "city"), &plan).unwrap();
        let cold = ResponseEncoding::Binary.encode(&Response::Answer { answer });
        assert_eq!(*warm, cold, "memoized bytes must match the cold scan");
    }

    /// The acceptance criterion: a `Window{last_k}` plan answers
    /// bit-identically to executing the inner plan per epoch and
    /// merging by hand — and the same bytes come back in-process, over
    /// NDJSON, and over `DPRB`.
    #[test]
    fn window_plans_match_per_epoch_execution_on_every_transport() {
        use dpod_query::merge_window_answers;
        let server = epoch_server();
        let inner = QueryPlan::Many {
            plans: vec![
                QueryPlan::Total,
                QueryPlan::Marginal { keep: vec![0] },
                QueryPlan::TopK { k: 4 },
            ],
        };

        // Merge by hand: execute the inner plan with the cold scan
        // against a fresh rebuild of each epoch, then fold with the pure
        // merge.
        let epochs: Vec<u64> = vec![1, 2, 3];
        let mut by_hand = Vec::new();
        for &epoch in &epochs {
            let matrix = rebuild(&server, &format!("city@{epoch}"));
            by_hand.push(plan::execute(&matrix, &inner).unwrap());
        }
        let expected_sum =
            merge_window_answers(WindowMerge::Sum, &epochs, by_hand.clone()).unwrap();
        let expected_per = merge_window_answers(WindowMerge::PerEpoch, &epochs, by_hand).unwrap();

        let window = |merge| Request::Plan {
            release: "city".into(),
            plan: QueryPlan::Window {
                select: EpochSelector::LastK { k: 3 },
                merge,
                plan: Box::new(inner.clone()),
            },
        };

        // In-process, from cold partials and then from memoized ones.
        for pass in ["cold", "warm"] {
            let Response::Answer { answer } = server.handle(&window(WindowMerge::Sum)) else {
                panic!("expected answer ({pass})");
            };
            assert_eq!(answer, expected_sum, "{pass}");
            let Response::Answer { answer } = server.handle(&window(WindowMerge::PerEpoch)) else {
                panic!("expected answer ({pass})");
            };
            assert_eq!(answer, expected_per, "{pass}");
        }

        // Both TCP encodings return the same bytes.
        let handle = spawn(Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
        let addr = handle.addr();
        let mut binary = crate::wire::Client::connect(addr).unwrap();
        let Response::Answer { answer } = binary.request(&window(WindowMerge::Sum)).unwrap() else {
            panic!("binary window failed");
        };
        assert_eq!(answer, expected_sum);

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writer
            .write_all(
                serde_json::to_string(&window(WindowMerge::Sum))
                    .unwrap()
                    .as_bytes(),
            )
            .unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let Response::Answer { answer } = serde_json::from_str(line.trim()).unwrap() else {
            panic!("json window failed");
        };
        assert_eq!(answer, expected_sum);
        handle.stop();
    }

    /// Warm window queries answer from memoized per-epoch partials: the
    /// second identical window is all hits, and sliding the window to
    /// include a new epoch misses only that epoch.
    #[test]
    fn sliding_windows_reuse_memoized_partials() {
        use dpod_query::{EpochSelector, QueryPlan, WindowMerge};
        let server = epoch_server();
        let window = |k| Request::Plan {
            release: "city".into(),
            plan: QueryPlan::Window {
                select: EpochSelector::LastK { k },
                merge: WindowMerge::Sum,
                plan: Box::new(QueryPlan::Total),
            },
        };

        assert!(matches!(server.handle(&window(2)), Response::Answer { .. }));
        let cold = server.engine_stats();
        assert_eq!(cold.partial_hits, 0);
        assert_eq!(cold.partial_misses, 2);

        // Same window again: pure hits.
        assert!(matches!(server.handle(&window(2)), Response::Answer { .. }));
        let warm = server.engine_stats();
        assert_eq!(warm.partial_hits, 2);
        assert_eq!(warm.partial_misses, 2);

        // Widen to 3: the two cached epochs hit, the new one misses.
        assert!(matches!(server.handle(&window(3)), Response::Answer { .. }));
        let slid = server.engine_stats();
        assert_eq!(slid.partial_hits, 4);
        assert_eq!(slid.partial_misses, 3);

        // Republishing epoch 3 invalidates only its partial: the next
        // window misses once (epoch 3) and hits the rest.
        server.publish_epoch("city", 3, epoch_release(999)).unwrap();
        assert!(matches!(server.handle(&window(3)), Response::Answer { .. }));
        let republished = server.engine_stats();
        assert_eq!(republished.partial_hits, 6);
        assert_eq!(republished.partial_misses, 4);

        let Response::Stats { stats } = server.handle(&Request::Stats) else {
            panic!("expected stats");
        };
        let partial = |name: &str| stats.get(name, &[("memo", "partial")]);
        assert_eq!(stats.get("dpod_catalog_series", &[]), Some(1.0));
        assert_eq!(partial("dpod_engine_memo_hits_total"), Some(6.0));
        assert_eq!(partial("dpod_engine_memo_misses_total"), Some(4.0));
    }

    /// Retention tombstones expired epochs, refunds their ε into the
    /// series ledger, and the monotonic rule keeps their ids retired.
    #[test]
    fn retention_retires_epochs_and_refunds_epsilon() {
        use dpod_query::{EpochSelector, QueryPlan, WindowMerge};
        let server = epoch_server();
        let active_before = server.ledgers().active_epsilon("city").unwrap();
        assert!((active_before - 1.5).abs() < 1e-9, "{active_before}");

        let retired = server.apply_retention("city", 2).unwrap();
        assert_eq!(retired, vec![1]);
        assert_eq!(server.metrics().epochs_retired.get(), 1);
        let active_after = server.ledgers().active_epsilon("city").unwrap();
        assert!((active_after - 1.0).abs() < 1e-9, "{active_after}");

        // The retired epoch is gone from serving and from selection.
        assert!(server.catalog().get("city@1").is_none());
        let at_retired = server.handle(&Request::Plan {
            release: "city".into(),
            plan: QueryPlan::Window {
                select: EpochSelector::At { epoch: 1 },
                merge: WindowMerge::Sum,
                plan: Box::new(QueryPlan::Total),
            },
        });
        assert!(matches!(at_retired, Response::Error { .. }));
        // Its id cannot be republished (the ε was refunded).
        assert!(server.publish_epoch("city", 1, epoch_release(7)).is_err());
        // But the frontier keeps moving.
        assert_eq!(
            server.publish_epoch("city", 4, epoch_release(8)).unwrap(),
            1
        );
        assert_eq!(server.metrics().epochs_published.get(), 4);
    }

    /// Window plans against a legacy plain-named release see it as a
    /// one-epoch series at epoch 0 — continuity for pre-epoch catalogs.
    #[test]
    fn legacy_releases_answer_window_plans_as_epoch_zero() {
        let server = test_server(&["city"]);
        let matrix = rebuild(&server, "city");
        let expected = plan::execute(&matrix, &QueryPlan::Total).unwrap();
        let Response::Answer { answer } = server.handle(&Request::Plan {
            release: "city".into(),
            plan: QueryPlan::Window {
                select: EpochSelector::LastK { k: 5 },
                merge: WindowMerge::Sum,
                plan: Box::new(QueryPlan::Total),
            },
        }) else {
            panic!("expected answer");
        };
        assert_eq!(answer, expected);
    }
}
