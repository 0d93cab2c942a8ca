//! Serving-stack observability: the [`ServeMetrics`] hub every front
//! end records into, the one [`Snapshot`] every surface renders, and the
//! Prometheus-text `/metrics` exporter behind `dpod serve --metrics-addr`.
//!
//! ## One registry, one snapshot
//!
//! Every counter is recorded once, at event time, in the hub's
//! `dpod_obs` registry: request mix, stage latencies, event-loop health,
//! connections, answered queries, epoch publishes and retirements, and
//! the engine's memo hits, misses and index build time (the engine
//! registers its handles into the same registry, residency gauges
//! included). [`Server::snapshot`] reads the registry and appends the
//! families derived from the catalog at read time: releases, series,
//! per-release hits, and ε.
//! That one
//! snapshot is rendered three ways — `/metrics` prints it as Prometheus
//! text, [`Response::Stats`](crate::protocol::Response::Stats) carries it
//! (serde over NDJSON, opcode `0x88` over `DPRB`), and the `dpod serve`
//! stats line looks samples up in it — so the surfaces cannot disagree.
//!
//! ## What is measured
//!
//! **Per-request stage latencies** (`dpod_request_stage_nanoseconds`,
//! labelled `transport` × `stage`): `parse` (socket read → frame/line
//! assembled), `execute` (decode, answer and encode — fused in
//! [`Server::handle_encoded`], so an encoded-memo hit skips the last
//! two), `write` (response bytes → socket). Recording is a wait-free
//! histogram `fetch_add` (see `dpod_obs`), cheap enough for the ~10⁵
//! req/s hot path.
//!
//! **Event-loop health** (`dpod_eventloop_*`, labelled `shard`): per
//! loop shard, cumulative epoll wait nanoseconds and wake count, the
//! distribution of request bytes framed per connection turn, read-side
//! backpressure pauses, idle-sweep evictions, and the partial-request
//! byte depth.
//!
//! **Request mix** (`dpod_requests_total`, labelled `transport` ×
//! `kind`): one increment per decoded request, plan requests split by
//! [`QueryPlan::kind`](dpod_query::QueryPlan::kind) (`plan_range`,
//! `plan_window`, `plan_drill_down`, …).
//!
//! **Engine memos** (`dpod_engine_memo_{hits,misses}_total` and
//! `dpod_engine_memo_entries`, labelled `memo` = `matrix`, `index`,
//! `partial`, `encoded` or `pyramid`; `dpod_engine_memo_bytes` for the
//! last three) and `dpod_engine_cache_bytes`: residency gauges the
//! engine moves as it caches and evicts.
//!
//! **ε** per release and per epoch, and `dpod_epsilon_spent_total`: the
//! plain sum over catalogued releases — a report, not an enforced
//! ceiling.

use crate::protocol::Request;
use crate::series;
use crate::server::Server;
use dpod_obs::{Clock, Counter, Gauge, Histogram, MetricKind, Registry, Snapshot};
use dpod_query::PLAN_KINDS;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which encoding a request arrived in — the `transport` label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Newline-delimited JSON.
    Json = 0,
    /// `DPRB` binary frames.
    Binary = 1,
}

/// `transport` label values, indexed by [`Transport`].
const TRANSPORTS: [&str; 2] = ["json", "binary"];

/// One stage of the request lifecycle — the `stage` label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Socket read → request frame/line fully assembled.
    Parse = 0,
    /// Decode, answer and encode ([`Server::handle_encoded`]).
    Execute = 1,
    /// Response bytes → socket.
    Write = 2,
}

/// `stage` label values, indexed by [`Stage`].
const STAGES: [&str; 3] = ["parse", "execute", "write"];

/// Request-kind label count: one `plan_<kind>` per [`PLAN_KINDS`]
/// entry, then `list`, `stats`, `undecodable`.
const KIND_COUNT: usize = PLAN_KINDS.len() + 3;

/// Kind index of a request that failed to decode (no kind).
pub(crate) const KIND_UNDECODABLE: usize = KIND_COUNT - 1;

/// The `kind` label value at `index` (see [`kind_index`]).
fn kind_label(index: usize) -> String {
    match PLAN_KINDS.get(index) {
        Some(kind) => format!("plan_{kind}"),
        None => ["list", "stats", "undecodable"][index - PLAN_KINDS.len()].into(),
    }
}

/// Maps a decoded request to its `kind` label index.
pub(crate) fn kind_index(req: &Request) -> usize {
    match req {
        Request::Plan { plan, .. } => plan.kind_index(),
        Request::List => PLAN_KINDS.len(),
        Request::Stats => PLAN_KINDS.len() + 1,
    }
}

/// The serving stack's metric handles: one instance per [`Server`],
/// shared by every front end and exposition surface.
///
/// All handles are pre-registered at construction, so a `/metrics`
/// scrape always shows the full series catalog (zeros included) and the
/// hot path never touches the registry lock.
#[derive(Debug)]
pub struct ServeMetrics {
    /// The registry every handle lives in (the engine registers its memo
    /// counters here too).
    pub(crate) registry: Registry,
    clock: Clock,
    /// `[transport][stage]` latency histograms, nanoseconds.
    stages: [[Arc<Histogram>; 3]; 2],
    /// `[transport][kind]` request counters.
    requests: [[Arc<Counter>; KIND_COUNT]; 2],
    /// Queries answered (one per range or plan leaf).
    pub(crate) queries: Arc<Counter>,
    /// Connections a TCP front end has started serving.
    pub(crate) conn_accepted: Arc<Counter>,
    /// Connections a TCP front end currently holds open.
    pub(crate) conn_open: Arc<Gauge>,
    /// Epochs published through [`Server::publish_epoch`].
    pub(crate) epochs_published: Arc<Counter>,
    /// Epochs retired through [`Server::apply_retention`].
    pub(crate) epochs_retired: Arc<Counter>,
}

/// One event-loop shard's health handles, labelled `shard="<i>"` on
/// every series so imbalance across the `N` loops is visible on a
/// single `/metrics` scrape. Obtained from [`ServeMetrics::shard`] at
/// shard spawn (registration is the cold path; recording is lock-free).
#[derive(Debug, Clone)]
pub(crate) struct ShardMetrics {
    /// Cumulative nanoseconds this shard spent inside `epoll_wait`.
    pub(crate) epoll_wait_nanos: Arc<Counter>,
    /// Times this shard returned from `epoll_wait`.
    pub(crate) epoll_wakes: Arc<Counter>,
    /// Request bytes this shard read and framed per connection turn.
    pub(crate) dispatch_bytes: Arc<Histogram>,
    /// Times a connection's read side was paused for backpressure.
    pub(crate) backpressure_pauses: Arc<Counter>,
    /// Connections closed by this shard's idle sweep.
    pub(crate) sweep_evictions: Arc<Counter>,
    /// Request bytes read but not yet framed into a complete request
    /// (partials in the assemblers) across the shard's connections.
    pub(crate) pending_bytes: Arc<Gauge>,
}

impl ServeMetrics {
    /// Builds the hub, registering every hot-path series.
    pub(crate) fn new() -> Self {
        let registry = Registry::new();
        let stages = TRANSPORTS.map(|t| {
            STAGES.map(|s| {
                registry.histogram(
                    "dpod_request_stage_nanoseconds",
                    "Per-stage request latency in nanoseconds (execute includes response encoding)",
                    &[("transport", t), ("stage", s)],
                )
            })
        });
        let requests = TRANSPORTS.map(|t| {
            std::array::from_fn(|k| {
                registry.counter(
                    "dpod_requests_total",
                    "Requests received, by transport and request kind",
                    &[("transport", t), ("kind", &kind_label(k))],
                )
            })
        });
        let counter = |name: &str, help: &str| registry.counter(name, help, &[]);
        let hub = ServeMetrics {
            stages,
            requests,
            queries: counter("dpod_server_queries_total", "Queries answered since start"),
            conn_accepted: counter(
                "dpod_server_accepted_connections_total",
                "TCP connections accepted since start",
            ),
            conn_open: registry.gauge(
                "dpod_server_open_connections",
                "TCP connections currently open",
                &[],
            ),
            epochs_published: counter(
                "dpod_epochs_published_total",
                "Epochs published through the server since start",
            ),
            epochs_retired: counter(
                "dpod_epochs_retired_total",
                "Epochs retired by retention since start",
            ),
            clock: Clock::new(),
            registry,
        };
        // Shard 0 always exists under the event front end; registering
        // it eagerly keeps the scrape catalog complete (zeros included)
        // even before the first loop iteration — and on the pool front
        // end, where no shard ever records.
        let _ = hub.shard(0);
        hub
    }

    /// Registers (or re-fetches — the registry dedupes by name+labels)
    /// the `shard="<i>"` event-loop series and returns their handles.
    /// Called once per shard at spawn; never on the hot path.
    pub(crate) fn shard(&self, shard: usize) -> ShardMetrics {
        let idx = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", idx.as_str())];
        let counter = |name: &str, help: &str| self.registry.counter(name, help, labels);
        ShardMetrics {
            epoll_wait_nanos: counter(
                "dpod_eventloop_epoll_wait_nanoseconds_total",
                "Cumulative nanoseconds the loop shard spent blocked in epoll_wait",
            ),
            epoll_wakes: counter(
                "dpod_eventloop_epoll_wakes_total",
                "Times the loop shard returned from epoll_wait",
            ),
            dispatch_bytes: self.registry.histogram(
                "dpod_eventloop_dispatch_unit_bytes",
                "Request bytes read and framed per connection turn",
                labels,
            ),
            backpressure_pauses: counter(
                "dpod_eventloop_backpressure_pauses_total",
                "Times a connection's read side was paused for backpressure",
            ),
            sweep_evictions: counter(
                "dpod_eventloop_sweep_evictions_total",
                "Connections closed by the idle-timeout sweep",
            ),
            pending_bytes: self.registry.gauge(
                "dpod_eventloop_pending_bytes",
                "Request bytes buffered in partial requests across the shard's connections",
                labels,
            ),
        }
    }

    /// Nanosecond stamp on the hub's monotonic clock (`parse` stage
    /// accounting compares stamps across turns).
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// The stage histogram for `(transport, stage)`.
    #[inline]
    pub fn stage(&self, t: Transport, s: Stage) -> &Histogram {
        &self.stages[t as usize][s as usize]
    }

    /// Counts one request by transport and kind index (see
    /// [`kind_index`] / [`KIND_UNDECODABLE`]).
    #[inline]
    pub(crate) fn count_request(&self, t: Transport, kind: usize) {
        self.requests[t as usize][kind].inc();
    }

    /// Marks which front end this server runs (an info-style gauge:
    /// value 1 on the active label).
    pub fn note_front_end(&self, front_end: &str) {
        self.registry
            .gauge(
                "dpod_serve_front_end_info",
                "Active serving front end (info gauge; 1 on the active label)",
                &[("front_end", front_end)],
            )
            .set(1);
    }
}

/// `server`'s registry snapshot plus the families derived from the
/// catalog at read time: releases, series, per-release hits, and ε.
pub(crate) fn snapshot(server: &Server) -> Snapshot {
    use MetricKind::{Counter, Gauge};
    let mut snap = server.metrics().registry.snapshot();
    let catalog = server.catalog();
    let releases = catalog.entries();
    let series = series::series_names(catalog);
    let epsilon: Vec<f64> = releases.iter().map(|r| r.release.epsilon).collect();
    for (name, help, value) in [
        (
            "dpod_catalog_releases",
            "Releases currently catalogued",
            releases.len() as f64,
        ),
        (
            "dpod_catalog_series",
            "Release series currently catalogued",
            series.len() as f64,
        ),
        (
            "dpod_epsilon_spent_total",
            "Privacy budget: sum over catalogued releases (not an enforced ceiling)",
            epsilon.iter().sum(),
        ),
        (
            "dpod_epsilon_ledger_entries",
            "Releases summed into dpod_epsilon_spent_total",
            epsilon.len() as f64,
        ),
    ] {
        snap.family(name, help, Gauge).sample(&[], value);
    }
    let hits = snap.family(
        "dpod_release_hits_total",
        "Queries answered per release",
        Counter,
    );
    for r in &releases {
        let n = r.hits();
        if n > 0 {
            hits.sample(&[("release", &r.name)], n as f64);
        }
    }
    let eps = snap.family(
        "dpod_release_epsilon",
        "Privacy budget the release consumed",
        Gauge,
    );
    for (r, epsilon) in releases.iter().zip(epsilon) {
        eps.sample(&[("release", &r.name)], epsilon);
    }

    // Epoch catalogs, rendered fresh from the catalog per read, so
    // directly-published epochs count and retired ones drop out.
    let epochs: Vec<_> = series
        .iter()
        .map(|(name, _)| (name, series::series_epochs(catalog, name)))
        .collect();
    let count = snap.family("dpod_epoch_count", "Live epochs per release series", Gauge);
    for (name, live) in &epochs {
        count.sample(&[("series", name)], live.len() as f64);
    }
    let per_epoch = snap.family(
        "dpod_epoch_epsilon",
        "Privacy budget each live epoch consumed",
        Gauge,
    );
    for (name, live) in &epochs {
        for info in live {
            let epoch = info.epoch.to_string();
            per_epoch.sample(
                &[("series", name), ("epoch", &epoch)],
                info.entry.release.epsilon,
            );
        }
    }
    let active = snap.family(
        "dpod_series_epsilon_active",
        "Privacy budget active across a series' live epochs",
        Gauge,
    );
    for (name, live) in &epochs {
        active.sample(
            &[("series", name)],
            live.iter().map(|info| info.entry.release.epsilon).sum(),
        );
    }
    snap
}

/// Handle to a running `/metrics` exporter; [`stop`](Self::stop) (or
/// drop) shuts the listener thread down.
#[derive(Debug)]
pub struct MetricsExporter {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl MetricsExporter {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the exporter thread and waits for it to exit.
    pub fn stop(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for MetricsExporter {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Hard ceiling on scrape request bytes: a well-formed `GET /metrics`
/// header block is a few hundred bytes, so 8 KiB is generous and keeps
/// an attacker from streaming an unbounded "request".
const SCRAPE_REQUEST_CAP: usize = 8 * 1024;

/// Wall-clock budget for reading one scrape request. Without a total
/// deadline, a slow-loris peer trickling one byte per read-timeout
/// window could hold a handler for minutes.
const SCRAPE_READ_DEADLINE: Duration = Duration::from_secs(2);

/// Binds `addr` and serves the Prometheus text exposition for `server`:
/// `GET /metrics` gets a `200 text/plain; version=0.0.4` body rendered
/// fresh per scrape (`dpod serve --metrics-addr` plumbs here). Other
/// paths get `404`, other methods (or oversized/timed-out requests)
/// `400`. Each connection is answered on its own short-lived thread
/// under a hard read deadline, so a slow-loris peer can stall only its
/// own handler — never the accept loop or other scrapers.
///
/// # Errors
/// IO errors from binding the listener.
pub fn spawn_metrics_exporter(
    server: Arc<Server>,
    addr: impl ToSocketAddrs,
) -> std::io::Result<MetricsExporter> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let thread_shutdown = Arc::clone(&shutdown);
    let join = std::thread::spawn(move || loop {
        if thread_shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // One detached thread per scrape: rare, tiny, and a
                // misbehaving peer must not wedge the accept loop.
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    let _ = serve_scrape(stream, &server);
                });
            }
            // Nothing pending (WouldBlock) or a transient accept error.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    });
    Ok(MetricsExporter {
        addr: local,
        shutdown,
        join: Some(join),
    })
}

/// Outcome of reading and validating one scrape request.
enum ScrapeRequest {
    /// `GET /metrics` — serve the exposition.
    Metrics,
    /// Well-formed `GET` for some other path.
    NotFound,
    /// Anything else: non-GET, unparseable, oversized, or timed out.
    Bad,
}

/// Reads one HTTP request under [`SCRAPE_READ_DEADLINE`] /
/// [`SCRAPE_REQUEST_CAP`] and classifies it.
fn read_scrape_request(stream: &mut std::net::TcpStream) -> std::io::Result<ScrapeRequest> {
    let start = std::time::Instant::now();
    let mut buf = [0u8; 4096];
    let mut seen = Vec::new();
    let complete = loop {
        let Some(remaining) = SCRAPE_READ_DEADLINE.checked_sub(start.elapsed()) else {
            break false; // deadline exhausted mid-request
        };
        stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
        let n = match stream.read(&mut buf) {
            Ok(0) => break false, // EOF before the header terminator
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break false
            }
            Err(e) => return Err(e),
        };
        seen.extend_from_slice(&buf[..n]);
        if seen.len() > SCRAPE_REQUEST_CAP {
            break false;
        }
        if seen.windows(4).any(|w| w == b"\r\n\r\n") {
            break true;
        }
    };
    if !complete {
        return Ok(ScrapeRequest::Bad);
    }
    let Some(line_end) = seen.windows(2).position(|w| w == b"\r\n") else {
        return Ok(ScrapeRequest::Bad);
    };
    let Ok(line) = std::str::from_utf8(&seen[..line_end]) else {
        return Ok(ScrapeRequest::Bad);
    };
    let mut parts = line.split_ascii_whitespace();
    match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) => {
            // Tolerate a query string ("/metrics?x=1") like most exporters.
            if path == "/metrics" || path.starts_with("/metrics?") {
                Ok(ScrapeRequest::Metrics)
            } else {
                Ok(ScrapeRequest::NotFound)
            }
        }
        _ => Ok(ScrapeRequest::Bad),
    }
}

/// Answers one HTTP scrape: reads the request under a hard deadline and
/// byte cap, then writes the exposition body (or an error status),
/// closes.
fn serve_scrape(mut stream: std::net::TcpStream, server: &Server) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let (status, body) = match read_scrape_request(&mut stream)? {
        ScrapeRequest::Metrics => ("200 OK", server.snapshot().render_prometheus()),
        ScrapeRequest::NotFound => ("404 Not Found", "not found; try /metrics\n".to_string()),
        ScrapeRequest::Bad => ("400 Bad Request", "bad request\n".to_string()),
    };
    let header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
