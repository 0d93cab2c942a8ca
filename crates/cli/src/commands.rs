//! The four CLI commands as pure(ish) library functions: file IO in, file
//! IO out, no process exits — the binary is a thin wrapper and the test
//! suite drives these directly.

use crate::{csv, rangespec, registry, CliError};
use dpod_core::{PublishedRelease, ReleaseBody};
use dpod_data::{City, OdMatrixBuilder, TrajectoryConfig};
use dpod_dp::Epsilon;
use dpod_fmatrix::Shape;
use dpod_obs::HistogramSnapshot;
use dpod_query::{plan, Answer, QueryPlan, ReleaseIndex};
use dpod_serve::protocol::{Request, Response, Snapshot};
use dpod_serve::{series, Catalog, MetricsExporter, Server, ServerHandle, SpawnOptions, WireMode};
use serde::Serialize;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// `dpod generate`: writes a synthetic trajectory CSV.
pub struct GenerateArgs {
    /// City archetype name (`newyork`, `denver`, `detroit`).
    pub city: String,
    /// Number of trips.
    pub trips: usize,
    /// Intermediate stops per trip.
    pub stops: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Runs `generate`, returning the CSV text (the binary writes it out).
///
/// # Errors
/// [`CliError`] for unknown city names.
pub fn generate(args: &GenerateArgs) -> Result<String, CliError> {
    let city = match args
        .city
        .to_ascii_lowercase()
        .replace([' ', '_', '-'], "")
        .as_str()
    {
        "newyork" | "ny" => City::NewYork,
        "denver" => City::Denver,
        "detroit" => City::Detroit,
        other => {
            return Err(CliError(format!(
                "unknown city '{other}'; valid: newyork, denver, detroit"
            )))
        }
    };
    let mut rng = dpod_dp::seeded_rng(args.seed);
    let trips =
        TrajectoryConfig::with_stops(args.stops).generate(&city.model(), args.trips, &mut rng);
    Ok(csv::to_csv(&trips))
}

/// `dpod sanitize`: trajectory CSV → OD matrix → DP release JSON.
pub struct SanitizeArgs {
    /// Grid cells per spatial axis.
    pub cells: usize,
    /// Total privacy budget ε.
    pub epsilon: f64,
    /// Mechanism CLI name (see [`registry::mechanism_names`]).
    pub mechanism: String,
    /// RNG seed.
    pub seed: u64,
}

/// Runs `sanitize` on CSV text, returning the release JSON.
///
/// The stop count is inferred from the CSV arity (`points − 2`).
///
/// # Errors
/// [`CliError`] for malformed CSV, unknown mechanisms, invalid ε, or
/// domains too large to densify.
pub fn sanitize(csv_text: &str, args: &SanitizeArgs) -> Result<String, CliError> {
    let release = sanitize_to_release(csv_text, args)?;
    serde_json::to_string_pretty(&release).map_err(|e| CliError(e.to_string()))
}

/// The shared curator pipeline: CSV → OD matrix → DP release artifact.
///
/// # Errors
/// Same as [`sanitize`].
pub fn sanitize_to_release(
    csv_text: &str,
    args: &SanitizeArgs,
) -> Result<PublishedRelease, CliError> {
    let trips = csv::from_csv(csv_text)?;
    if trips.is_empty() {
        return Err("input contains no trajectories".into());
    }
    let stops = trips[0].points.len() - 2;
    let builder = OdMatrixBuilder::new(args.cells);
    let matrix = builder.build_dense(&trips, stops).map_err(CliError)?;
    let mechanism = registry::mechanism_by_name(&args.mechanism)?;
    let epsilon = Epsilon::new(args.epsilon).map_err(|e| CliError(format!("bad epsilon: {e}")))?;
    let mut rng = dpod_dp::seeded_rng(args.seed);
    let sanitized = mechanism
        .sanitize(&matrix, epsilon, &mut rng)
        .map_err(|e| CliError(format!("sanitization failed: {e}")))?;
    Ok(PublishedRelease::from_sanitized(&sanitized))
}

/// `dpod publish`: sanitize and install the release into a serving
/// catalog directory under `name` (creating or updating the directory's
/// `DPRL` frames and manifest). Returns a confirmation line.
///
/// With `epoch`, the release lands as epoch `T` of the `name` series
/// (catalog entry `name@T`, monotonic per series); `retain` then
/// applies the sliding retention window, tombstoning every epoch older
/// than the newest `K` before the directory is saved.
///
/// With `series_budget`, the publish is refused outright — nothing
/// written — when the series' *active* ε (live epochs after this
/// publish and after the `retain` prune) would exceed the ceiling.
/// Retention refunds count: a sliding window whose retired epochs give
/// back their ε can publish forever under a fixed ceiling, which is the
/// continual-release accounting the epoch ledgers implement.
///
/// # Errors
/// [`CliError`] for pipeline failures, catalog IO, an epoch that is not
/// live and not past the series frontier, `retain` or `series_budget`
/// without `epoch`, or a publish that would break the series ε ceiling.
pub fn publish(
    csv_text: &str,
    args: &SanitizeArgs,
    name: &str,
    catalog_dir: &Path,
    epoch: Option<u64>,
    retain: Option<usize>,
    series_budget: Option<f64>,
) -> Result<String, CliError> {
    if name.is_empty() {
        return Err("release name must not be empty".into());
    }
    if retain.is_some() && epoch.is_none() {
        return Err("--retain needs --epoch (retention is per epoch series)".into());
    }
    if series_budget.is_some() && epoch.is_none() {
        return Err("--series-budget needs --epoch (the ceiling is per epoch series)".into());
    }
    let release = sanitize_to_release(csv_text, args)?;
    let catalog = if catalog_dir.is_dir() {
        Catalog::load_dir(catalog_dir).map_err(|e| CliError(e.0))?
    } else {
        Catalog::new()
    };
    if let (Some(budget), Some(t)) = (series_budget, epoch) {
        check_series_budget(&catalog, name, t, release.epsilon, retain, budget)?;
    }
    let (label, version, retired) = match epoch {
        None => (
            format!("'{name}'"),
            catalog.publish(name, release),
            Vec::new(),
        ),
        Some(t) => {
            series::validate_publish_epoch(&catalog, name, t).map_err(|e| CliError(e.0))?;
            let version = catalog.publish(&series::epoch_entry_name(name, t), release);
            let retired: Vec<u64> = match retain {
                None => Vec::new(),
                Some(k) => {
                    let epochs = series::series_epochs(&catalog, name);
                    let expired = series::expired_epochs(&epochs, k).map_err(|e| CliError(e.0))?;
                    for info in &expired {
                        catalog.remove(&info.entry.name);
                    }
                    expired.iter().map(|i| i.epoch).collect()
                }
            };
            (format!("'{name}' epoch {t}"), version, retired)
        }
    };
    let report = catalog.save_dir(catalog_dir).map_err(|e| CliError(e.0))?;
    let total = report.live();
    let retirement = if retired.is_empty() {
        String::new()
    } else {
        format!(
            "; retired epoch{} {}",
            if retired.len() == 1 { "" } else { "s" },
            retired
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    Ok(format!(
        "published {label} v{version} to {} ({total} release{}, {} frame{} written{retirement})\n",
        catalog_dir.display(),
        if total == 1 { "" } else { "s" },
        report.written,
        if report.written == 1 { "" } else { "s" },
    ))
}

/// Enforces `--series-budget`: simulates the live epoch set *after*
/// publishing ε at epoch `t` and after the `retain`-newest prune, and
/// refuses (before anything is mutated or written) when the surviving
/// active ε would exceed `budget`. The small tolerance absorbs the
/// float summation of many per-epoch ε values at an exact ceiling.
fn check_series_budget(
    catalog: &Catalog,
    name: &str,
    t: u64,
    epsilon: f64,
    retain: Option<usize>,
    budget: f64,
) -> Result<(), CliError> {
    let mut sim: Vec<(u64, f64)> = series::series_epochs(catalog, name)
        .iter()
        .map(|info| (info.epoch, info.entry.release.epsilon))
        .collect();
    // A republish of a live epoch replaces its ε; a new epoch adds one.
    match sim.iter_mut().find(|(e, _)| *e == t) {
        Some(slot) => slot.1 = epsilon,
        None => {
            sim.push((t, epsilon));
            sim.sort_by_key(|(e, _)| *e);
        }
    }
    if let Some(k) = retain.filter(|&k| k > 0) {
        if sim.len() > k {
            let cut = sim.len() - k;
            sim.drain(..cut);
        }
    }
    let active: f64 = sim.iter().map(|(_, eps)| eps).sum();
    if active > budget + 1e-12 {
        return Err(CliError(format!(
            "refusing publish: series '{name}' active \u{3b5} would be {active} \
             ({} live epoch{}), over the --series-budget ceiling {budget}",
            sim.len(),
            if sim.len() == 1 { "" } else { "s" },
        )));
    }
    Ok(())
}

/// `dpod serve` configuration.
pub struct ServeArgs {
    /// Catalog directory produced by `dpod publish`.
    pub catalog: std::path::PathBuf,
    /// Bind address (e.g. `127.0.0.1:7878`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads in the connection pool.
    pub workers: usize,
    /// Rebuild-cache budget in mebibytes (shared between matrix
    /// rebuilds and plan indexes).
    pub cache_mb: usize,
    /// Per-release cap, in mebibytes, on the marginal tables a plan
    /// index may memoize (keep-sets past the cap are answered per
    /// query, uncached).
    pub index_mb: usize,
    /// Accepted encodings (`auto` sniffs per connection).
    pub wire: WireMode,
    /// Event-loop shards (`--event-loops`); `0` resolves to the
    /// `DPOD_EVENT_LOOPS` environment variable, then `min(4, cores/2)`.
    pub event_loops: usize,
    /// Accept-queue depth requested for every listener
    /// (`--listen-backlog`; the kernel clamps to `somaxconn`).
    pub listen_backlog: i32,
    /// Bind address for the Prometheus-text `/metrics` exposition
    /// (`--metrics-addr`); `None` disables the exporter.
    pub metrics_addr: Option<String>,
    /// Retention sweep period in seconds (`--retain-ttl`); `None`
    /// disables the serve-side retention timer.
    pub retain_ttl: Option<u64>,
    /// Epochs each series keeps under the retention timer
    /// (`--retain-last`, default 1; must be ≥ 1 when `--retain-ttl` is
    /// set).
    pub retain_last: usize,
}

/// Starts the serving stack for `dpod serve`, returning the running
/// handle, the shared server, and — when `metrics_addr` is set — the
/// `/metrics` exporter (the binary parks; tests drive it). The exporter
/// handle must be kept alive for the scrape endpoint to stay up.
///
/// # Errors
/// [`CliError`] when the catalog cannot be loaded or either address
/// cannot be bound.
pub fn start_server(
    args: &ServeArgs,
) -> Result<(ServerHandle, Arc<Server>, Option<MetricsExporter>), CliError> {
    if let Some(secs) = args.retain_ttl {
        if secs == 0 {
            return Err("--retain-ttl must be at least 1 second".into());
        }
        if args.retain_last == 0 {
            return Err(
                "--retain-last must be at least 1 (a series keeps its newest epoch)".into(),
            );
        }
    }
    let catalog = Catalog::load_dir(&args.catalog).map_err(|e| CliError(e.0))?;
    if catalog.is_empty() {
        return Err(CliError(format!(
            "catalog {} holds no releases; run `dpod publish` first",
            args.catalog.display()
        )));
    }
    let server = Arc::new(Server::with_marginal_cap(
        Arc::new(catalog),
        args.cache_mb.saturating_mul(1 << 20),
        args.index_mb.saturating_mul(1 << 20),
    ));
    let handle = dpod_serve::spawn_with(
        Arc::clone(&server),
        args.addr.as_str(),
        SpawnOptions {
            workers: args.workers,
            wire: args.wire,
            event_loops: args.event_loops,
            listen_backlog: args.listen_backlog,
            ..SpawnOptions::default()
        },
    )
    .map_err(|e| CliError(format!("cannot bind {}: {e}", args.addr)))?;
    let exporter = match &args.metrics_addr {
        Some(addr) => Some(
            dpod_serve::spawn_metrics_exporter(Arc::clone(&server), addr.as_str())
                .map_err(|e| CliError(format!("cannot bind metrics endpoint {addr}: {e}")))?,
        ),
        None => None,
    };
    if let Some(secs) = args.retain_ttl {
        // Validated ≥ 1 above. Daemon thread holding only a weak server
        // reference; it dies with the server, so the handle needs no
        // keeping.
        let _ = dpod_serve::spawn_retention_timer(
            &server,
            std::time::Duration::from_secs(secs),
            args.retain_last,
        );
    }
    Ok((handle, server, exporter))
}

/// One periodic operator line for `dpod serve`: traffic, connections,
/// and each engine memo's residency and hit rate, looked up in the same
/// [`Server::snapshot`] that `/metrics` and `Stats` responses render.
pub fn stats_line(snap: &Snapshot) -> String {
    let get = |name: &str, labels: &[(&str, &str)]| snap.get(name, labels).unwrap_or(0.0);
    // (resident entries, hit percentage) of one engine memo.
    let memo = |m: &str| {
        let hits = get("dpod_engine_memo_hits_total", &[("memo", m)]);
        let lookups = hits + get("dpod_engine_memo_misses_total", &[("memo", m)]);
        let rate = if lookups == 0.0 {
            0.0
        } else {
            100.0 * hits / lookups
        };
        (get("dpod_engine_memo_entries", &[("memo", m)]), rate)
    };
    let (matrix, matrix_rate) = memo("matrix");
    let (index, index_rate) = memo("index");
    let (partial, partial_rate) = memo("partial");
    let (pyramid, pyramid_rate) = memo("pyramid");
    format!(
        "served {} queries | conns: {} open / {} accepted | matrix cache: {matrix} entries, \
         {:.1} MiB, {matrix_rate:.0}% hit | index: {index} built, {index_rate:.0}% hit, \
         {:.1} ms building | epochs: {} series, {partial} window partials, \
         {partial_rate:.0}% hit | pyramid: {pyramid} levels, {pyramid_rate:.0}% hit",
        get("dpod_server_queries_total", &[]),
        get("dpod_server_open_connections", &[]),
        get("dpod_server_accepted_connections_total", &[]),
        get("dpod_engine_cache_bytes", &[]) / (1 << 20) as f64,
        get("dpod_engine_index_build_nanoseconds_total", &[]) / 1e6,
        get("dpod_catalog_series", &[]),
    )
}

/// Interval-aware operator stats for the `dpod serve` loop: each
/// [`line`](Self::line) call appends per-interval rates (queries/s and
/// requests/s since the previous call) to the cumulative
/// [`stats_line`], so a minute of quiet reads `0.0 q/s` instead of a
/// slowly-decaying lifetime average.
pub struct StatsTracker {
    last_at: Instant,
    last_queries: f64,
    last_requests: f64,
}

impl Default for StatsTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl StatsTracker {
    /// Starts an interval at "now" with zero traffic seen.
    pub fn new() -> Self {
        StatsTracker {
            last_at: Instant::now(),
            last_queries: 0.0,
            last_requests: 0.0,
        }
    }

    /// One operator line: the cumulative [`stats_line`] plus this
    /// interval's query and request rates, all read from one snapshot.
    /// Resets the interval.
    pub fn line(&mut self, server: &Server) -> String {
        let snap = server.snapshot();
        let queries = snap.get("dpod_server_queries_total", &[]).unwrap_or(0.0);
        let requests = snap.sum("dpod_requests_total");
        let secs = self.last_at.elapsed().as_secs_f64().max(1e-9);
        let q_rate = (queries - self.last_queries).max(0.0) / secs;
        let r_rate = (requests - self.last_requests).max(0.0) / secs;
        self.last_at = Instant::now();
        self.last_queries = queries;
        self.last_requests = requests;
        format!(
            "{} | interval: {q_rate:.1} queries/s, {r_rate:.1} requests/s",
            stats_line(&snap)
        )
    }
}

/// `dpod replay` configuration.
pub struct ReplayArgs {
    /// NDJSON file: one [`QueryPlan`] per line.
    pub file: std::path::PathBuf,
    /// Release to replay against: a catalog name with `connect`, a
    /// release JSON path otherwise.
    pub release: String,
    /// Replay against a running server at this address instead of a
    /// local release file.
    pub connect: Option<String>,
    /// With `connect`: use the `DPRB` binary encoding.
    pub binary: bool,
    /// Local replays only: execute through the cold `ScanBackend`
    /// instead of a prepared [`ReleaseIndex`] (for A/B runs; answers
    /// are bit-identical either way).
    pub cold: bool,
    /// Write each plan's response (answer or error) as one JSON line,
    /// enabling bit-identical diffing between replays.
    pub answers: Option<std::path::PathBuf>,
    /// Remote replays: fan the stream out over this many concurrent
    /// client connections (round-robin), turning the replay into a load
    /// generator. `1` preserves the classic single-connection replay.
    pub connections: usize,
    /// Write a machine-readable JSON [`SloReport`] (throughput plus
    /// histogram-backed latency quantiles, per connection and merged)
    /// here after the replay.
    pub slo_report: Option<std::path::PathBuf>,
}

/// How a replay turns one plan into one response (local executor or a
/// live connection). `Send` so `--connections` can run one per thread.
type PlanResponder<'a> = Box<dyn FnMut(&QueryPlan) -> Result<Response, CliError> + Send + 'a>;

/// One replay connection over the chosen encoding: a `DPRB`
/// [`wire::Client`](dpod_serve::wire::Client) or a hand-rolled NDJSON
/// request/response loop, both yielding one [`Response`] per plan.
fn remote_responder(
    addr: &str,
    release: &str,
    binary: bool,
) -> Result<PlanResponder<'static>, CliError> {
    if binary {
        let mut client = dpod_serve::wire::Client::connect(addr)
            .map_err(|e| CliError(format!("cannot connect to {addr}: {e}")))?;
        let release = release.to_string();
        Ok(Box::new(move |plan| {
            client
                .request(&Request::Plan {
                    release: release.clone(),
                    plan: plan.clone(),
                })
                .map_err(|e| CliError(e.0))
        }))
    } else {
        use std::io::{BufRead, BufReader, BufWriter, Write};
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| CliError(format!("cannot connect to {addr}: {e}")))?;
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| CliError(format!("socket: {e}")))?,
        );
        let mut writer = BufWriter::new(stream);
        let release = release.to_string();
        Ok(Box::new(move |plan| {
            let req = Request::Plan {
                release: release.clone(),
                plan: plan.clone(),
            };
            let mut line = serde_json::to_string(&req).map_err(|e| CliError(e.to_string()))?;
            line.push('\n');
            writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.flush())
                .map_err(|e| CliError(format!("send: {e}")))?;
            let mut answer = String::new();
            reader
                .read_line(&mut answer)
                .map_err(|e| CliError(format!("receive: {e}")))?;
            serde_json::from_str(answer.trim()).map_err(|e| CliError(format!("bad response: {e}")))
        }))
    }
}

/// `dpod replay`: re-runs a recorded stream of [`QueryPlan`]s against a
/// release and reports latency/throughput. The stream is NDJSON — one
/// plan per line, exactly the `plan` field of a `Plan` request — so a
/// production query log can be replayed verbatim against a new release,
/// a new server build, or both execution backends. Because sanitized
/// releases are static, a replay is deterministic: the same stream
/// against the same release version produces bit-identical answers,
/// warm or cold (a test pins this).
///
/// # Errors
/// [`CliError`] for unreadable files, malformed plan lines, connection
/// failures, or invalid release artifacts. Per-plan *execution* errors
/// do not abort the replay; they are counted (and recorded in the
/// answers file when requested).
pub fn replay(args: &ReplayArgs) -> Result<String, CliError> {
    if args.cold && args.connect.is_some() {
        // Refuse rather than silently measure the server's (indexed)
        // path and label it cold in an A/B comparison.
        return Err(
            "--cold applies to local replays only; a remote server picks its own backend".into(),
        );
    }
    if args.connections == 0 {
        return Err("--connections must be at least 1".into());
    }
    if args.connections > 1 && args.connect.is_none() {
        return Err("--connections applies to remote replays; add --connect HOST:PORT".into());
    }
    if args.connections > 1 && args.answers.is_some() {
        // Interleaved responses from concurrent connections have no
        // stable order to bit-diff against.
        return Err("--answers requires --connections 1 (answers are order-sensitive)".into());
    }
    let text = std::fs::read_to_string(&args.file)
        .map_err(|e| CliError(format!("cannot read {}: {e}", args.file.display())))?;
    let mut plans: Vec<QueryPlan> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let plan: QueryPlan = serde_json::from_str(line.trim())
            .map_err(|e| CliError(format!("line {}: bad plan: {e}", lineno + 1)))?;
        plans.push(plan);
    }
    if plans.is_empty() {
        return Err(CliError(format!(
            "{} contains no plans",
            args.file.display()
        )));
    }
    if args.connections > 1 {
        let addr = args.connect.as_deref().expect("validated above");
        return replay_fan_out(
            addr,
            &args.release,
            args.binary,
            args.connections,
            &plans,
            args.slo_report.as_deref(),
        );
    }

    let mut respond: PlanResponder = match &args.connect {
        Some(addr) => remote_responder(addr, &args.release, args.binary)?,
        None => {
            let release = load_release(Path::new(&args.release))?;
            let sanitized = Arc::new(
                release
                    .into_sanitized()
                    .map_err(|e| CliError(format!("invalid release: {e}")))?,
            );
            let index = (!args.cold).then(|| ReleaseIndex::new(Arc::clone(&sanitized)));
            Box::new(move |plan| {
                let executed = match &index {
                    Some(ix) => plan::execute_with(ix, plan),
                    None => plan::execute(&sanitized, plan),
                };
                Ok(match executed {
                    Ok(answer) => Response::Answer { answer },
                    Err(e) => Response::Error { message: e.0 },
                })
            })
        }
    };

    // Stream answers to disk as they arrive: a production-scale stream
    // of aggregate plans produces multi-KB responses per line, so
    // accumulating them in memory would grow without bound on exactly
    // the large-workload use case this tool targets.
    let mut answers_out = match &args.answers {
        Some(path) => Some(std::io::BufWriter::new(
            std::fs::File::create(path)
                .map_err(|e| CliError(format!("cannot write {}: {e}", path.display())))?,
        )),
        None => None,
    };
    let mut report = ConnReport::new();
    let started = Instant::now();
    for plan in &plans {
        let t0 = Instant::now();
        let response = respond(plan)?;
        report
            .latency
            .record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        match &response {
            Response::Answer { answer } => report.leaves += answer.units(),
            Response::Error { .. } => report.errors += 1,
            other => return Err(CliError(format!("unexpected response {other:?}"))),
        }
        if let Some(out) = &mut answers_out {
            use std::io::Write;
            let line = serde_json::to_string(&response).map_err(|e| CliError(e.to_string()))?;
            out.write_all(line.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .map_err(|e| CliError(format!("cannot write answers: {e}")))?;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();

    if let Some(mut out) = answers_out {
        use std::io::Write;
        out.flush()
            .map_err(|e| CliError(format!("cannot write answers: {e}")))?;
    }
    let slo = build_slo_report(std::slice::from_ref(&report), plans.len(), elapsed);
    if let Some(path) = &args.slo_report {
        write_slo_report(path, &slo)?;
    }
    Ok(format!(
        "replayed {} plans ({} leaves, {} errors) in {elapsed:.3}s: {:.0} plans/s\n\
         latency: mean {:.3} ms, p50 {:.3} ms, p99 {:.3} ms\n",
        slo.plans,
        slo.leaves,
        slo.errors,
        slo.plans_per_second,
        slo.latency.mean_ms,
        slo.latency.p50_ms,
        slo.latency.p99_ms,
    ))
}

/// Latency quantiles of one replay population, in milliseconds, from a
/// log-bucketed [`HistogramSnapshot`]: each quantile is an upper bound
/// on the true sample, within 1/16 of it (see `dpod_obs`). Quantiles
/// are a pure function of the bucket counts, so a replay report is
/// deterministic for a given set of samples regardless of arrival
/// order or connection interleaving.
#[derive(Debug, Clone, Serialize)]
pub struct SloLatency {
    /// Samples in this population.
    pub count: u64,
    /// Exact mean (from the histogram's running sum, not the buckets).
    pub mean_ms: f64,
    /// Median upper bound.
    pub p50_ms: f64,
    /// 90th-percentile upper bound.
    pub p90_ms: f64,
    /// 99th-percentile upper bound.
    pub p99_ms: f64,
    /// 99.9th-percentile upper bound.
    pub p999_ms: f64,
    /// Upper bound of the slowest sample.
    pub max_ms: f64,
}

impl SloLatency {
    fn from_snapshot(snap: &HistogramSnapshot) -> Self {
        let ms = |ns: u64| ns as f64 / 1e6;
        SloLatency {
            count: snap.count(),
            mean_ms: snap.mean() / 1e6,
            p50_ms: ms(snap.quantile(0.50)),
            p90_ms: ms(snap.quantile(0.90)),
            p99_ms: ms(snap.quantile(0.99)),
            p999_ms: ms(snap.quantile(0.999)),
            max_ms: ms(snap.max()),
        }
    }
}

/// The machine-readable replay artifact `dpod replay --slo-report`
/// writes: one JSON document with throughput, merged latency quantiles,
/// and the per-connection breakdown (one entry per connection; a
/// single-connection replay has exactly one).
#[derive(Debug, Serialize)]
pub struct SloReport {
    /// Plans replayed.
    pub plans: usize,
    /// Leaf aggregates the answers covered.
    pub leaves: u64,
    /// Plans answered with an error.
    pub errors: usize,
    /// Wall-clock seconds for the whole replay.
    pub wall_seconds: f64,
    /// `plans / wall_seconds`.
    pub plans_per_second: f64,
    /// Concurrent client connections used.
    pub connections: usize,
    /// Quantiles over every connection's samples merged.
    pub latency: SloLatency,
    /// Per-connection quantiles, in connection order.
    pub per_connection: Vec<SloLatency>,
}

fn write_slo_report(path: &Path, report: &SloReport) -> Result<(), CliError> {
    let json = serde_json::to_string_pretty(report).map_err(|e| CliError(e.to_string()))?;
    std::fs::write(path, json)
        .map_err(|e| CliError(format!("cannot write {}: {e}", path.display())))
}

/// Per-connection measurements from one replay connection: a latency
/// histogram instead of raw samples, so a million-plan replay costs a
/// fixed few KiB per connection and the merged quantiles are
/// deterministic.
struct ConnReport {
    latency: HistogramSnapshot,
    leaves: u64,
    errors: usize,
}

impl ConnReport {
    fn new() -> Self {
        ConnReport {
            latency: HistogramSnapshot::empty(),
            leaves: 0,
            errors: 0,
        }
    }
}

/// Merges per-connection reports into the aggregate totals and the
/// whole-replay latency snapshot.
fn merge_reports(reports: &[ConnReport]) -> (HistogramSnapshot, u64, usize) {
    let mut merged = HistogramSnapshot::empty();
    let (mut leaves, mut errors) = (0u64, 0usize);
    for report in reports {
        merged.merge(&report.latency);
        leaves += report.leaves;
        errors += report.errors;
    }
    (merged, leaves, errors)
}

fn build_slo_report(reports: &[ConnReport], plans: usize, elapsed: f64) -> SloReport {
    let (merged, leaves, errors) = merge_reports(reports);
    SloReport {
        plans,
        leaves,
        errors,
        wall_seconds: elapsed,
        plans_per_second: plans as f64 / elapsed,
        connections: reports.len(),
        latency: SloLatency::from_snapshot(&merged),
        per_connection: reports
            .iter()
            .map(|r| SloLatency::from_snapshot(&r.latency))
            .collect(),
    }
}

/// `dpod replay --connections N`: the load-generator path. The recorded
/// stream is split round-robin over `n` concurrent connections (each a
/// request/response client, like a live dashboard), proving a serving
/// core scales past its worker count: aggregate plans/s and the spread
/// of per-connection p99 latencies are reported together.
///
/// The generator itself is readiness-driven: **one** thread multiplexes
/// all `n` nonblocking sockets through the `polling` shim (as `wrk`
/// does), so driving 512 connections costs one client thread, not 512 —
/// at high fan-out a thread-per-connection generator measures its own
/// scheduler churn more than the server. Where epoll is unavailable it
/// falls back to a thread per connection.
fn replay_fan_out(
    addr: &str,
    release: &str,
    binary: bool,
    n: usize,
    plans: &[QueryPlan],
    slo_path: Option<&Path>,
) -> Result<String, CliError> {
    let started = Instant::now();
    let reports: Vec<ConnReport> = match polling::Poller::new() {
        Ok(poller) => fan_out_multiplexed(poller, addr, release, binary, n, plans)?,
        Err(_) => fan_out_threaded(addr, release, binary, n, plans)?,
    };
    let elapsed = started.elapsed().as_secs_f64();
    let slo = build_slo_report(&reports, plans.len(), elapsed);
    if let Some(path) = slo_path {
        write_slo_report(path, &slo)?;
    }
    Ok(fan_out_summary(&slo))
}

/// Renders the fan-out operator summary from the [`SloReport`]. The
/// per-connection p99 spread comes from the same histogram snapshots the
/// report carries, so it is a deterministic function of the recorded
/// samples — bucketized quantiles do not wobble with merge or arrival
/// order the way raw-sample index math did.
fn fan_out_summary(slo: &SloReport) -> String {
    let (p99_min, p99_max) = slo
        .per_connection
        .iter()
        .filter(|l| l.count > 0)
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), l| {
            (lo.min(l.p99_ms), hi.max(l.p99_ms))
        });
    format!(
        "replayed {} plans over {} connections ({} leaves, {} errors) in \
         {:.3}s: {:.0} plans/s aggregate\n\
         latency: mean {:.3} ms, p50 {:.3} ms, p99 {:.3} ms; \
         per-connection p99 {p99_min:.3}..{p99_max:.3} ms\n",
        slo.plans,
        slo.connections,
        slo.leaves,
        slo.errors,
        slo.wall_seconds,
        slo.plans_per_second,
        slo.latency.mean_ms,
        slo.latency.p50_ms,
        slo.latency.p99_ms,
    )
}

/// One multiplexed load-generator connection: a nonblocking socket plus
/// the buffers to assemble its responses incrementally. Connection `t`
/// replays plan indexes `t, t+n, t+2n, …` strictly request/response.
struct FanConn {
    stream: std::net::TcpStream,
    inbuf: Vec<u8>,
    inpos: usize,
    outbuf: Vec<u8>,
    outpos: usize,
    /// When the in-flight request was issued (`None` between requests).
    sent_at: Option<Instant>,
    /// Global index of the next plan this connection will send.
    next: usize,
    write_armed: bool,
    done: bool,
    report: ConnReport,
}

impl FanConn {
    fn outstanding(&self) -> usize {
        self.outbuf.len() - self.outpos
    }
}

/// The readiness-driven fan-out: one thread, `n` nonblocking sockets,
/// one poller. Each connection keeps exactly one request in flight.
fn fan_out_multiplexed(
    poller: polling::Poller,
    addr: &str,
    release: &str,
    binary: bool,
    n: usize,
    plans: &[QueryPlan],
) -> Result<Vec<ConnReport>, CliError> {
    use std::io::Read;
    use std::os::fd::AsRawFd;

    let encode = |plan: &QueryPlan, out: &mut Vec<u8>| -> Result<(), CliError> {
        let request = Request::Plan {
            release: release.to_string(),
            plan: plan.clone(),
        };
        if binary {
            let body = dpod_serve::wire::encode_request(&request);
            dpod_serve::wire::write_frame(out, &body).map_err(|e| CliError(e.0))
        } else {
            let line = serde_json::to_string(&request).map_err(|e| CliError(e.to_string()))?;
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
            Ok(())
        }
    };

    // Nonblocking write of whatever is queued; `Ok(false)` when the
    // connection died under us.
    fn flush(conn: &mut FanConn) -> Result<bool, CliError> {
        use std::io::Write;
        while conn.outstanding() > 0 {
            match (&conn.stream).write(&conn.outbuf[conn.outpos..]) {
                Ok(0) => return Ok(false),
                Ok(written) => conn.outpos += written,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(CliError(format!("send: {e}"))),
            }
        }
        if conn.outstanding() == 0 {
            conn.outbuf.clear();
            conn.outpos = 0;
        }
        Ok(true)
    }

    let mut conns: Vec<FanConn> = Vec::with_capacity(n);
    for t in 0..n {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| CliError(format!("cannot connect to {addr}: {e}")))?;
        stream.set_nodelay(true).ok();
        let conn = FanConn {
            stream,
            inbuf: Vec::new(),
            inpos: 0,
            outbuf: Vec::new(),
            outpos: 0,
            sent_at: None,
            next: t,
            write_armed: false,
            done: t >= plans.len(),
            report: ConnReport::new(),
        };
        conns.push(conn);
    }
    // Issue the opening requests only after every socket is connected:
    // interleaving connects with live traffic makes each blocking
    // `connect` contend with the server answering the earlier
    // connections, stretching setup from milliseconds to seconds at
    // high fan-out.
    for (t, conn) in conns.iter_mut().enumerate() {
        if conn.done {
            continue;
        }
        if binary {
            conn.outbuf.extend_from_slice(dpod_serve::wire::WIRE_MAGIC);
            conn.outbuf.push(dpod_serve::wire::WIRE_VERSION);
        }
        conn.sent_at = Some(Instant::now());
        encode(&plans[t], &mut conn.outbuf)?;
        conn.stream
            .set_nonblocking(true)
            .map_err(|e| CliError(format!("socket: {e}")))?;
        if !flush(conn)? {
            return Err("server closed a replay connection mid-stream".into());
        }
        let interest = if conn.outstanding() > 0 {
            conn.write_armed = true;
            polling::Interest::BOTH
        } else {
            polling::Interest::READABLE
        };
        poller
            .add(conn.stream.as_raw_fd(), t as u64, interest)
            .map_err(|e| CliError(format!("poller: {e}")))?;
    }

    let mut remaining = conns.iter().filter(|c| !c.done).count();
    let mut events = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    while remaining > 0 {
        poller
            .wait(&mut events, Some(std::time::Duration::from_millis(500)))
            .map_err(|e| CliError(format!("poller: {e}")))?;
        for ev in events.iter().copied() {
            let t = ev.token as usize;
            let conn = &mut conns[t];
            if conn.done {
                continue;
            }
            if ev.writable && !flush(conn)? {
                return Err("server closed a replay connection mid-stream".into());
            }
            if ev.readable {
                loop {
                    match (&conn.stream).read(&mut scratch) {
                        Ok(0) => return Err("server closed a replay connection mid-stream".into()),
                        Ok(got) => {
                            conn.inbuf.extend_from_slice(&scratch[..got]);
                            if got < scratch.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(CliError(format!("receive: {e}"))),
                    }
                }
                // Assemble every complete response available (at most
                // one in flight, but stay defensive about framing).
                loop {
                    let avail = &conn.inbuf[conn.inpos..];
                    let response = if binary {
                        if avail.len() < 4 {
                            break;
                        }
                        let len =
                            u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
                        if avail.len() < 4 + len {
                            break;
                        }
                        let body = &avail[4..4 + len];
                        let response = dpod_serve::wire::decode_response(body)
                            .map_err(|e| CliError(format!("bad response: {e}")))?;
                        conn.inpos += 4 + len;
                        response
                    } else {
                        let Some(i) = avail.iter().position(|&b| b == b'\n') else {
                            break;
                        };
                        let line = std::str::from_utf8(&avail[..i])
                            .map_err(|e| CliError(format!("bad response: {e}")))?;
                        let response: Response = serde_json::from_str(line.trim())
                            .map_err(|e| CliError(format!("bad response: {e}")))?;
                        conn.inpos += i + 1;
                        response
                    };
                    let t0 = conn
                        .sent_at
                        .take()
                        .ok_or_else(|| CliError("unsolicited response".into()))?;
                    conn.report
                        .latency
                        .record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                    match response {
                        Response::Answer { answer } => conn.report.leaves += answer.units(),
                        Response::Error { .. } => conn.report.errors += 1,
                        other => return Err(CliError(format!("unexpected response {other:?}"))),
                    }
                    conn.next += n;
                    if conn.next < plans.len() {
                        conn.sent_at = Some(Instant::now());
                        encode(&plans[conn.next], &mut conn.outbuf)?;
                        if !flush(conn)? {
                            return Err("server closed a replay connection mid-stream".into());
                        }
                    } else {
                        conn.done = true;
                        remaining -= 1;
                        let _ = poller.delete(conn.stream.as_raw_fd());
                        // Close the socket eagerly (the threaded
                        // generator's drop did this implicitly): a
                        // thread-pool server releases its worker on
                        // EOF, so queued connections get served next
                        // instead of waiting out the idle timeout.
                        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                        break;
                    }
                }
                if conn.inpos == conn.inbuf.len() {
                    conn.inbuf.clear();
                    conn.inpos = 0;
                }
            }
            // Write interest only while bytes are queued, or EPOLLOUT
            // (level-triggered, almost always ready) would spin the
            // generator.
            if !conn.done {
                let want_write = conn.outstanding() > 0;
                if want_write != conn.write_armed {
                    conn.write_armed = want_write;
                    let interest = if want_write {
                        polling::Interest::BOTH
                    } else {
                        polling::Interest::READABLE
                    };
                    poller
                        .modify(conn.stream.as_raw_fd(), t as u64, interest)
                        .map_err(|e| CliError(format!("poller: {e}")))?;
                }
            }
        }
    }
    Ok(conns.into_iter().map(|c| c.report).collect())
}

/// Thread-per-connection fallback for targets without epoll: same
/// round-robin split, one blocking request/response client per thread.
fn fan_out_threaded(
    addr: &str,
    release: &str,
    binary: bool,
    n: usize,
    plans: &[QueryPlan],
) -> Result<Vec<ConnReport>, CliError> {
    let reports: Vec<Result<ConnReport, CliError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                scope.spawn(move || -> Result<ConnReport, CliError> {
                    let mut respond = remote_responder(addr, release, binary)?;
                    let mine = plans.iter().skip(t).step_by(n);
                    let mut report = ConnReport::new();
                    for plan in mine {
                        let t0 = Instant::now();
                        let response = respond(plan)?;
                        report
                            .latency
                            .record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                        match response {
                            Response::Answer { answer } => report.leaves += answer.units(),
                            Response::Error { .. } => report.errors += 1,
                            other => {
                                return Err(CliError(format!("unexpected response {other:?}")))
                            }
                        }
                    }
                    Ok(report)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("replay thread panicked".into()))
            })
            .collect()
    });
    reports.into_iter().collect()
}

/// `dpod query --connect`: answers query specs — classic ranges or the
/// typed algebra (`total`, `top:K`, `marginal:…`, `od:…`) — against a
/// *running* server instead of a local release file, over either
/// encoding.
///
/// The release's domain is fetched via a `List` request first (range
/// specs like `0..4,*` need the axis lengths), then every spec is
/// answered in one request: the legacy `Batch` when every spec is a
/// classic range (so this CLI still talks to pre-algebra servers), a
/// `Plan` (`Many`-batched as needed) once any typed spec appears.
///
/// # Errors
/// [`CliError`] for connection failures, unknown releases, bad specs,
/// or server-side errors.
pub fn remote_query(
    addr: &str,
    release: &str,
    specs: &[String],
    binary: bool,
) -> Result<String, CliError> {
    let transport = |req: &Request| -> Result<Response, CliError> {
        if binary {
            let mut client = dpod_serve::wire::Client::connect(addr)
                .map_err(|e| CliError(format!("cannot connect to {addr}: {e}")))?;
            client.request(req).map_err(|e| CliError(e.0))
        } else {
            ndjson_round_trip(addr, req)
        }
    };
    // One connection per request keeps this helper trivially correct for
    // both encodings; interactive analysts needing throughput should
    // pipeline over `dpod_serve::wire::Client` directly.
    let Response::Releases { releases } = transport(&Request::List)? else {
        return Err("unexpected response to List".into());
    };
    let info = releases
        .iter()
        .find(|r| r.name == release)
        .ok_or_else(|| CliError(format!("unknown release '{release}' on {addr}")))?;
    let shape =
        Shape::new(info.domain.clone()).map_err(|e| CliError(format!("bad domain: {e}")))?;
    let mut plans: Vec<QueryPlan> = specs
        .iter()
        .map(|spec| rangespec::parse_plan(spec, &shape))
        .collect::<Result<_, _>>()?;
    // All-classic-range queries keep speaking the legacy `Batch`
    // request: it answers bit-identically, and it lets this CLI talk to
    // servers that predate the plan algebra.
    if plans.iter().all(|p| matches!(p, QueryPlan::Range { .. })) {
        let ranges = plans
            .into_iter()
            .map(|p| {
                let QueryPlan::Range { lo, hi } = p else {
                    unreachable!("filtered to ranges");
                };
                (lo, hi)
            })
            .collect();
        return match transport(&Request::Batch {
            release: release.to_string(),
            ranges,
        })? {
            Response::Values { values } => {
                if values.len() != specs.len() {
                    return Err(CliError(format!(
                        "server answered {} of {} specs",
                        values.len(),
                        specs.len()
                    )));
                }
                let mut out = String::new();
                for (spec, value) in specs.iter().zip(values) {
                    format_answer(&mut out, spec, &Answer::Value { value });
                }
                Ok(out)
            }
            Response::Error { message } => Err(CliError(message)),
            other => Err(CliError(format!("unexpected response {other:?}"))),
        };
    }
    // `DrillDown` selects its pyramid level at the top of a plan, so it
    // cannot ride inside a `Many` batch; when one appears among several
    // specs, each plan travels as its own request instead.
    if plans.len() > 1
        && plans
            .iter()
            .any(|p| matches!(p, QueryPlan::DrillDown { .. }))
    {
        let mut out = String::new();
        for (spec, plan) in specs.iter().zip(plans) {
            match transport(&Request::Plan {
                release: release.to_string(),
                plan,
            })? {
                Response::Answer { answer } => format_answer(&mut out, spec, &answer),
                Response::Error { message } => return Err(CliError(message)),
                other => return Err(CliError(format!("unexpected response {other:?}"))),
            }
        }
        return Ok(out);
    }
    let plan = if plans.len() == 1 {
        plans.remove(0)
    } else {
        QueryPlan::Many { plans }
    };
    match transport(&Request::Plan {
        release: release.to_string(),
        plan,
    })? {
        Response::Answer { answer } => {
            let answers = match answer {
                Answer::Many { answers } if specs.len() > 1 => answers,
                single => vec![single],
            };
            if answers.len() != specs.len() {
                return Err(CliError(format!(
                    "server answered {} of {} specs",
                    answers.len(),
                    specs.len()
                )));
            }
            let mut out = String::new();
            for (spec, answer) in specs.iter().zip(&answers) {
                format_answer(&mut out, spec, answer);
            }
            Ok(out)
        }
        Response::Error { message } => Err(CliError(message)),
        other => Err(CliError(format!("unexpected response {other:?}"))),
    }
}

/// Renders one answer in the CLI's `spec => …` shape. Plain values keep
/// the historical single-line form; marginals and top-k rankings take
/// one header line plus indented detail.
fn format_answer(out: &mut String, spec: &str, answer: &Answer) {
    match answer {
        Answer::Value { value } => out.push_str(&format!("{spec} => {value:.2}\n")),
        Answer::Marginal { dims, values } => {
            // `dims` are the kept axes' *sizes*; spell that out so they
            // are not misread as dimension indices.
            let shape: Vec<String> = dims.iter().map(usize::to_string).collect();
            let cells: Vec<String> = values.iter().map(|v| format!("{v:.2}")).collect();
            out.push_str(&format!(
                "{spec} => {} marginal table: [{}]\n",
                shape.join("x"),
                cells.join(", ")
            ));
        }
        Answer::TopK { dims, cells } => {
            out.push_str(&format!(
                "{spec} => top {} cells of domain {dims:?}\n",
                cells.len()
            ));
            for cell in cells {
                out.push_str(&format!("  {:?} => {:.2}\n", cell.coords, cell.value));
            }
        }
        Answer::Many { answers } => {
            // Not produced for CLI specs (each spec is one leaf plan),
            // but render nested answers rather than dropping them.
            for answer in answers {
                format_answer(out, spec, answer);
            }
        }
        Answer::Epochs { epochs, answers } => {
            // Per-epoch window answers: one header, then each epoch's
            // answer under an `epoch T` sub-spec.
            out.push_str(&format!("{spec} => {} epochs\n", epochs.len()));
            for (epoch, answer) in epochs.iter().zip(answers) {
                format_answer(out, &format!("  epoch {epoch}"), answer);
            }
        }
    }
}

/// One NDJSON request/response round trip on a fresh connection.
fn ndjson_round_trip(addr: &str, req: &Request) -> Result<Response, CliError> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| CliError(format!("cannot connect to {addr}: {e}")))?;
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| CliError(format!("socket: {e}")))?,
    );
    let mut line = serde_json::to_string(req).map_err(|e| CliError(e.to_string()))?;
    line.push('\n');
    let mut stream = stream;
    stream
        .write_all(line.as_bytes())
        .map_err(|e| CliError(format!("send: {e}")))?;
    let mut answer = String::new();
    reader
        .read_line(&mut answer)
        .map_err(|e| CliError(format!("receive: {e}")))?;
    serde_json::from_str(answer.trim()).map_err(|e| CliError(format!("bad response: {e}")))
}

/// Loads and validates a release JSON file.
///
/// # Errors
/// [`CliError`] for IO, JSON, or artifact-validation failures.
pub fn load_release(path: &Path) -> Result<PublishedRelease, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read {}: {e}", path.display())))?;
    serde_json::from_str(&text).map_err(|e| CliError(format!("bad release JSON: {e}")))
}

/// `dpod inspect`: human-readable release summary.
///
/// # Errors
/// [`CliError`] when the artifact fails validation.
pub fn inspect(release: PublishedRelease) -> Result<String, CliError> {
    let mut out = String::new();
    out.push_str(&format!("mechanism : {}\n", release.mechanism));
    out.push_str(&format!("epsilon   : {}\n", release.epsilon));
    out.push_str(&format!("domain    : {:?}\n", release.domain));
    match &release.body {
        ReleaseBody::PerEntry { values } => {
            out.push_str(&format!("release   : per-entry, {} values\n", values.len()));
        }
        ReleaseBody::Partitions { counts, .. } => {
            out.push_str(&format!("release   : {} partitions\n", counts.len()));
        }
    }
    let sanitized = release
        .into_sanitized()
        .map_err(|e| CliError(format!("invalid release: {e}")))?;
    out.push_str(&format!("total (estimated): {:.1}\n", sanitized.total()));
    Ok(out)
}

/// `dpod query`: answers query specs — classic ranges or the typed
/// algebra (`total`, `top:K`, `marginal:…`, `od:…`) — against a local
/// release file, through the same [`plan::execute`] path the server
/// uses (so local and remote answers are bit-identical).
///
/// # Errors
/// [`CliError`] for invalid artifacts or specs.
pub fn query(release: PublishedRelease, specs: &[String]) -> Result<String, CliError> {
    let shape =
        Shape::new(release.domain.clone()).map_err(|e| CliError(format!("bad domain: {e}")))?;
    let sanitized = release
        .into_sanitized()
        .map_err(|e| CliError(format!("invalid release: {e}")))?;
    let mut out = String::new();
    for spec in specs {
        let plan = rangespec::parse_plan(spec, &shape)?;
        let answer = plan::execute(&sanitized, &plan).map_err(|e| CliError(e.0))?;
        format_answer(&mut out, spec, &answer);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_produces_parseable_csv() {
        let args = GenerateArgs {
            city: "denver".into(),
            trips: 200,
            stops: 1,
            seed: 1,
        };
        let text = generate(&args).unwrap();
        let trips = csv::from_csv(&text).unwrap();
        assert_eq!(trips.len(), 200);
        assert_eq!(trips[0].points.len(), 3);
    }

    #[test]
    fn generate_rejects_unknown_city() {
        let args = GenerateArgs {
            city: "gotham".into(),
            trips: 1,
            stops: 0,
            seed: 1,
        };
        assert!(generate(&args).is_err());
    }

    #[test]
    fn full_curator_analyst_round_trip() {
        // generate → sanitize → inspect → query, all in memory.
        let csv_text = generate(&GenerateArgs {
            city: "newyork".into(),
            trips: 2_000,
            stops: 0,
            seed: 7,
        })
        .unwrap();
        let release_json = sanitize(
            &csv_text,
            &SanitizeArgs {
                cells: 8,
                epsilon: 1.0,
                mechanism: "daf-entropy".into(),
                seed: 9,
            },
        )
        .unwrap();
        let release: PublishedRelease = serde_json::from_str(&release_json).unwrap();
        assert_eq!(release.domain, vec![8, 8, 8, 8]);

        let summary = inspect(release.clone()).unwrap();
        assert!(summary.contains("DAF-Entropy"), "{summary}");

        let answers = query(
            release,
            &["*,*,*,*".to_string(), "0..4,0..4,*,*".to_string()],
        )
        .unwrap();
        // The full-domain estimate should be near 2000 trips.
        let total: f64 = answers
            .lines()
            .next()
            .unwrap()
            .split("=> ")
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!((total - 2_000.0).abs() < 400.0, "total {total}");
    }

    #[test]
    fn sanitize_rejects_empty_and_bad_epsilon() {
        let args = SanitizeArgs {
            cells: 4,
            epsilon: 1.0,
            mechanism: "ebp".into(),
            seed: 0,
        };
        assert!(sanitize("", &args).is_err());
        let bad_eps = SanitizeArgs {
            epsilon: -1.0,
            ..SanitizeArgs {
                cells: 4,
                epsilon: 0.0,
                mechanism: "ebp".into(),
                seed: 0,
            }
        };
        assert!(sanitize("0.1,0.1,0.2,0.2\n", &bad_eps).is_err());
    }

    #[test]
    fn publish_then_serve_answers_over_tcp() {
        use dpod_serve::protocol::{Request, Response};
        use std::io::{BufRead, BufReader, BufWriter, Write};

        let dir = std::env::temp_dir().join(format!("dpod_cli_serve_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        // Curator: publish two releases into the catalog directory.
        let csv_text = generate(&GenerateArgs {
            city: "denver".into(),
            trips: 3_000,
            stops: 0,
            seed: 21,
        })
        .unwrap();
        let args = SanitizeArgs {
            cells: 8,
            epsilon: 1.0,
            mechanism: "ebp".into(),
            seed: 22,
        };
        let msg = publish(&csv_text, &args, "denver-ebp", &dir, None, None, None).unwrap();
        assert!(msg.contains("v1"), "{msg}");
        let msg = publish(&csv_text, &args, "denver-ebp", &dir, None, None, None).unwrap();
        assert!(msg.contains("v2"), "{msg}");
        publish(
            &csv_text,
            &SanitizeArgs {
                mechanism: "identity".into(),
                ..SanitizeArgs {
                    cells: 8,
                    epsilon: 1.0,
                    mechanism: String::new(),
                    seed: 23,
                }
            },
            "denver-id",
            &dir,
            None,
            None,
            None,
        )
        .unwrap();

        // Analyst: serve the catalog and query it over TCP.
        let (handle, server, _exporter) = start_server(&ServeArgs {
            catalog: dir.clone(),
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_mb: 64,
            index_mb: 64,
            wire: WireMode::Auto,
            event_loops: 0,
            listen_backlog: 1024,
            metrics_addr: None,
            retain_ttl: None,
            retain_last: 1,
        })
        .unwrap();
        assert_eq!(server.catalog().len(), 2);

        let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let req = Request::Batch {
            release: "denver-ebp".into(),
            ranges: vec![(vec![0, 0, 0, 0], vec![8, 8, 8, 8])],
        };
        writer
            .write_all(serde_json::to_string(&req).unwrap().as_bytes())
            .unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp: Response = serde_json::from_str(line.trim()).unwrap();
        let Response::Values { values } = resp else {
            panic!("expected values, got {resp:?}");
        };
        // Full-domain estimate near the 3000 generated trips.
        assert!((values[0] - 3_000.0).abs() < 600.0, "total {}", values[0]);

        // `dpod query --connect`: identical output over both encodings,
        // and both agree with the raw batch answer above.
        let addr = handle.addr().to_string();
        let spec = vec!["*,*,*,*".to_string()];
        let json_out = remote_query(&addr, "denver-ebp", &spec, false).unwrap();
        let bin_out = remote_query(&addr, "denver-ebp", &spec, true).unwrap();
        assert_eq!(json_out, bin_out);
        assert_eq!(json_out, format!("*,*,*,* => {:.2}\n", values[0]));
        assert!(remote_query(&addr, "no-such-release", &spec, true).is_err());

        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--series-budget` refuses any publish whose post-retention live
    /// epochs would exceed the ceiling — and refunds from the `--retain`
    /// prune count, so a sliding window publishes forever under a fixed
    /// ceiling.
    #[test]
    fn series_budget_refuses_over_ceiling_publishes() {
        let dir = std::env::temp_dir().join(format!("dpod_cli_budget_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let csv_text = generate(&GenerateArgs {
            city: "denver".into(),
            trips: 1_000,
            stops: 0,
            seed: 7,
        })
        .unwrap();
        let args = SanitizeArgs {
            cells: 8,
            epsilon: 1.0,
            mechanism: "ebp".into(),
            seed: 8,
        };

        // Ceiling of 2.0 at ε=1.0/epoch: two live epochs fit exactly.
        let b = Some(2.0);
        publish(&csv_text, &args, "denver", &dir, Some(1), Some(2), b).unwrap();
        publish(&csv_text, &args, "denver", &dir, Some(2), Some(2), b).unwrap();
        // A third without retention pruning would hold 3ε — refused,
        // and nothing is written (epoch 3 stays unpublished).
        let err = publish(&csv_text, &args, "denver", &dir, Some(3), None, b).unwrap_err();
        assert!(err.0.contains("series-budget"), "{err}");
        // With the window of 2 the oldest epoch's refund pays for the
        // new one: active ε stays at 2.0 and the publish is accepted.
        let msg = publish(&csv_text, &args, "denver", &dir, Some(3), Some(2), b).unwrap();
        assert!(msg.contains("retired epoch 1"), "{msg}");
        // The ceiling needs an epoch series to meter.
        assert!(publish(&csv_text, &args, "denver", &dir, None, None, b).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn epoch_publish_retention_and_window_queries() {
        use dpod_query::{EpochSelector, WindowMerge};

        let dir = std::env::temp_dir().join(format!("dpod_cli_epoch_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let csv_text = generate(&GenerateArgs {
            city: "denver".into(),
            trips: 2_000,
            stops: 0,
            seed: 41,
        })
        .unwrap();
        let args = SanitizeArgs {
            cells: 8,
            epsilon: 1.0,
            mechanism: "ebp".into(),
            seed: 42,
        };

        // Three continual publications under a sliding window of 2.
        let msg = publish(&csv_text, &args, "denver", &dir, Some(1), Some(2), None).unwrap();
        assert!(msg.contains("'denver' epoch 1 v1"), "{msg}");
        let msg = publish(&csv_text, &args, "denver", &dir, Some(2), Some(2), None).unwrap();
        assert!(!msg.contains("retired"), "{msg}");
        let msg = publish(&csv_text, &args, "denver", &dir, Some(3), Some(2), None).unwrap();
        assert!(msg.contains("retired epoch 1"), "{msg}");

        // Retired epochs stay retired across reloads; --retain needs
        // --epoch; series names cannot contain the separator.
        let err = publish(&csv_text, &args, "denver", &dir, Some(1), None, None).unwrap_err();
        assert!(err.0.contains("behind the frontier"), "{err}");
        assert!(publish(&csv_text, &args, "denver", &dir, None, Some(2), None).is_err());
        assert!(publish(&csv_text, &args, "d@nver", &dir, Some(4), None, None).is_err());

        // Serve the directory: the two live epochs answer window plans.
        let (handle, server, _exporter) = start_server(&ServeArgs {
            catalog: dir.clone(),
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_mb: 64,
            index_mb: 64,
            wire: WireMode::Auto,
            event_loops: 0,
            listen_backlog: 1024,
            metrics_addr: None,
            retain_ttl: None,
            retain_last: 1,
        })
        .unwrap();
        assert_eq!(server.catalog().len(), 2);
        assert_eq!(series::series_names(server.catalog()).len(), 1);

        let mut client = dpod_serve::wire::Client::connect(handle.addr()).unwrap();
        client
            .send(&Request::Plan {
                release: "denver".into(),
                plan: QueryPlan::Window {
                    select: EpochSelector::LastK { k: 2 },
                    merge: WindowMerge::PerEpoch,
                    plan: Box::new(QueryPlan::Total),
                },
            })
            .unwrap();
        let Response::Answer {
            answer: Answer::Epochs { epochs, answers },
        } = client.receive().unwrap()
        else {
            panic!("expected per-epoch answer");
        };
        assert_eq!(epochs, vec![2, 3]);
        assert_eq!(answers.len(), 2);
        let mut rendered = String::new();
        format_answer(&mut rendered, "window", &Answer::Epochs { epochs, answers });
        assert!(rendered.contains("window => 2 epochs"), "{rendered}");
        assert!(rendered.contains("  epoch 2 => "), "{rendered}");

        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_refuses_empty_catalog() {
        let dir = std::env::temp_dir().join(format!("dpod_cli_empty_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        assert!(start_server(&ServeArgs {
            catalog: dir.clone(),
            addr: "127.0.0.1:0".into(),
            workers: 1,
            cache_mb: 1,
            index_mb: 1,
            wire: WireMode::Auto,
            event_loops: 0,
            listen_backlog: 1024,
            metrics_addr: None,
            retain_ttl: None,
            retain_last: 1,
        })
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_specs_answer_locally_and_remotely() {
        // Publish a 1-stop (6-D) release so OD stop legs are exercised.
        let dir = std::env::temp_dir().join(format!("dpod_cli_plan_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let csv_text = generate(&GenerateArgs {
            city: "newyork".into(),
            trips: 2_000,
            stops: 1,
            seed: 31,
        })
        .unwrap();
        let args = SanitizeArgs {
            cells: 4,
            epsilon: 1.0,
            mechanism: "ebp".into(),
            seed: 32,
        };
        publish(&csv_text, &args, "ny", &dir, None, None, None).unwrap();

        let specs = vec![
            "total".to_string(),
            "top:3".to_string(),
            "marginal:0,1".to_string(),
            "od:o=0..2x0..2;s0=1..3x1..3;d=2..4x2..4".to_string(),
            "*,*,*,*,*,*".to_string(),
            // Drill-downs cannot ride inside `Many`, so their presence
            // forces the remote path onto one request per spec — this
            // mixed list pins that route too.
            "drill:1:total".to_string(),
            "level:1:marginal:0,1".to_string(),
        ];
        // Local path: the release artifact answers directly.
        let release = sanitize_to_release(&csv_text, &args).unwrap();
        let local = query(release, &specs).unwrap();
        assert!(local.contains("total => "), "{local}");
        assert!(local.contains("top:3 => top 3 cells"), "{local}");
        assert!(
            local.contains("marginal:0,1 => 4x4 marginal table"),
            "{local}"
        );

        // Remote path: identical output over both encodings, which also
        // pins JSON/DPRB agreement through the full CLI stack.
        let (handle, _server, _exporter) = start_server(&ServeArgs {
            catalog: dir.clone(),
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_mb: 64,
            index_mb: 64,
            wire: WireMode::Auto,
            event_loops: 0,
            listen_backlog: 1024,
            metrics_addr: None,
            retain_ttl: None,
            retain_last: 1,
        })
        .unwrap();
        let addr = handle.addr().to_string();
        let json_out = remote_query(&addr, "ny", &specs, false).unwrap();
        let bin_out = remote_query(&addr, "ny", &specs, true).unwrap();
        assert_eq!(json_out, bin_out);
        assert_eq!(json_out, local, "serving must not change the answers");

        // A bad plan (stop index past the release's one stop) is a
        // server-side error carried back verbatim.
        let bad = vec!["od:s5=0..1x0..1".to_string()];
        let err = remote_query(&addr, "ny", &bad, true).unwrap_err();
        assert!(err.0.contains("stop index"), "{err}");
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_is_bit_identical_warm_cold_and_remote() {
        let dir = std::env::temp_dir().join(format!("dpod_cli_replay_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        // One deterministic release, both as a local artifact and
        // published into a served catalog (same CSV + args + seed →
        // identical releases).
        let csv_text = generate(&GenerateArgs {
            city: "detroit".into(),
            trips: 2_500,
            stops: 0,
            seed: 51,
        })
        .unwrap();
        let args = SanitizeArgs {
            cells: 8,
            epsilon: 1.0,
            mechanism: "ebp".into(),
            seed: 52,
        };
        let release_path = dir.join("release.json");
        std::fs::write(&release_path, sanitize(&csv_text, &args).unwrap()).unwrap();
        let catalog_dir = dir.join("catalog");
        publish(&csv_text, &args, "detroit", &catalog_dir, None, None, None).unwrap();

        // A recorded stream: every plan variant plus one failing plan.
        let plans_path = dir.join("plans.ndjson");
        std::fs::write(
            &plans_path,
            concat!(
                "\"Total\"\n",
                "{\"TopK\":{\"k\":5}}\n",
                "{\"Marginal\":{\"keep\":[0,1]}}\n",
                "\n",
                "{\"Range\":{\"lo\":[0,0,1,1],\"hi\":[8,8,7,7]}}\n",
                "{\"Marginal\":{\"keep\":[9]}}\n",
                "{\"TopK\":{\"k\":5}}\n",
            ),
        )
        .unwrap();

        let run = |connect: Option<String>, binary: bool, cold: bool, tag: &str| {
            let answers = dir.join(format!("answers_{tag}.ndjson"));
            let release = match &connect {
                Some(_) => "detroit".to_string(),
                None => release_path.display().to_string(),
            };
            let summary = replay(&ReplayArgs {
                file: plans_path.clone(),
                release,
                connect,
                binary,
                cold,
                answers: Some(answers.clone()),
                connections: 1,
                slo_report: None,
            })
            .unwrap();
            assert!(
                summary.contains("replayed 6 plans") && summary.contains("1 errors"),
                "{summary}"
            );
            assert!(summary.contains("p99"), "{summary}");
            std::fs::read_to_string(answers).unwrap()
        };

        let cold1 = run(None, false, true, "cold1");
        let cold2 = run(None, false, true, "cold2");
        let warm = run(None, false, false, "warm");
        assert_eq!(cold1, cold2, "cold replays must be deterministic");
        assert_eq!(
            cold1, warm,
            "indexed replay must be bit-identical to the cold scan"
        );
        assert_eq!(warm.lines().count(), 6);
        // The repeated TopK plan answers identically warm (lines 2 and
        // 7 of the stream → answers 2 and 6).
        let lines: Vec<&str> = warm.lines().collect();
        assert_eq!(lines[1], lines[5]);

        // Remote replays (both encodings) serve the same bytes.
        let (handle, _server, _exporter) = start_server(&ServeArgs {
            catalog: catalog_dir,
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_mb: 64,
            index_mb: 64,
            wire: WireMode::Auto,
            event_loops: 0,
            listen_backlog: 1024,
            metrics_addr: None,
            retain_ttl: None,
            retain_last: 1,
        })
        .unwrap();
        let addr = handle.addr().to_string();
        let remote_json = run(Some(addr.clone()), false, false, "remote_json");
        let remote_bin = run(Some(addr.clone()), true, false, "remote_bin");
        assert_eq!(cold1, remote_json, "NDJSON replay drifted");
        assert_eq!(cold1, remote_bin, "DPRB replay drifted");

        // --cold makes no sense against a remote server (it would
        // silently measure the indexed path); it is refused up front.
        let err = replay(&ReplayArgs {
            file: plans_path.clone(),
            release: "detroit".into(),
            connect: Some(addr),
            binary: false,
            cold: true,
            answers: None,
            connections: 1,
            slo_report: None,
        })
        .unwrap_err();
        assert!(err.0.contains("local replays only"), "{err}");

        // The periodic serve stats line reflects the replay traffic.
        let line = stats_line(&_server.snapshot());
        assert!(line.contains("served"), "{line}");
        assert!(line.contains("% hit"), "{line}");
        assert!(line.contains("built"), "{line}");
        assert!(line.contains("pyramid"), "{line}");
        handle.stop();

        // Malformed streams are named by line.
        let bad = dir.join("bad.ndjson");
        std::fs::write(&bad, "\"Total\"\nnot json\n").unwrap();
        let err = replay(&ReplayArgs {
            file: bad,
            release: release_path.display().to_string(),
            connect: None,
            binary: false,
            cold: false,
            answers: None,
            connections: 1,
            slo_report: None,
        })
        .unwrap_err();
        assert!(err.0.contains("line 2"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_fans_out_over_concurrent_connections() {
        let dir = std::env::temp_dir().join(format!("dpod_cli_fanout_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let csv_text = generate(&GenerateArgs {
            city: "denver".into(),
            trips: 2_000,
            stops: 0,
            seed: 61,
        })
        .unwrap();
        let args = SanitizeArgs {
            cells: 8,
            epsilon: 1.0,
            mechanism: "ebp".into(),
            seed: 62,
        };
        let catalog_dir = dir.join("catalog");
        publish(&csv_text, &args, "denver", &catalog_dir, None, None, None).unwrap();

        // 40 plans over 4 connections: every connection gets work and
        // the aggregate line reports the fan-out.
        let plans_path = dir.join("plans.ndjson");
        let mut stream = String::new();
        for i in 0..40 {
            stream.push_str(if i % 2 == 0 {
                "\"Total\"\n"
            } else {
                "{\"TopK\":{\"k\":3}}\n"
            });
        }
        std::fs::write(&plans_path, stream).unwrap();

        let (handle, server, _exporter) = start_server(&ServeArgs {
            catalog: catalog_dir,
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_mb: 64,
            index_mb: 64,
            wire: WireMode::Auto,
            event_loops: 0,
            listen_backlog: 1024,
            metrics_addr: None,
            retain_ttl: None,
            retain_last: 1,
        })
        .unwrap();
        let addr = handle.addr().to_string();
        for binary in [false, true] {
            let summary = replay(&ReplayArgs {
                file: plans_path.clone(),
                release: "denver".into(),
                connect: Some(addr.clone()),
                binary,
                cold: false,
                answers: None,
                connections: 4,
                slo_report: None,
            })
            .unwrap();
            assert!(
                summary.contains("replayed 40 plans over 4 connections"),
                "{summary}"
            );
            assert!(summary.contains("plans/s aggregate"), "{summary}");
            assert!(summary.contains("per-connection p99"), "{summary}");
            assert!(summary.contains("0 errors"), "{summary}");
        }
        // All four sockets were really concurrent on the server.
        let accepted = server
            .snapshot()
            .get("dpod_server_accepted_connections_total", &[]);
        assert!(accepted.unwrap() >= 8.0, "{accepted:?}");

        // Misconfigurations are refused up front.
        let base = ReplayArgs {
            file: plans_path.clone(),
            release: "denver".into(),
            connect: Some(addr.clone()),
            binary: false,
            cold: false,
            answers: None,
            connections: 0,
            slo_report: None,
        };
        assert!(replay(&base).unwrap_err().0.contains("at least 1"));
        let err = replay(&ReplayArgs {
            connect: None,
            connections: 3,
            slo_report: None,
            release: dir.join("missing.json").display().to_string(),
            file: plans_path.clone(),
            binary: false,
            cold: false,
            answers: None,
        })
        .unwrap_err();
        assert!(err.0.contains("--connect"), "{err}");
        let err = replay(&ReplayArgs {
            connections: 3,
            slo_report: None,
            answers: Some(dir.join("a.ndjson")),
            file: plans_path.clone(),
            release: "denver".into(),
            connect: Some(addr),
            binary: false,
            cold: false,
        })
        .unwrap_err();
        assert!(err.0.contains("--connections 1"), "{err}");
        handle.stop();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Pins the fan-out summary to exact output: quantiles are bucket
    /// upper bounds, a pure function of the recorded samples, so the
    /// same samples must render the same report — regardless of the
    /// order connections are merged in.
    #[test]
    fn slo_report_quantiles_are_deterministic() {
        let build = |reversed: bool| {
            let mut a = ConnReport::new();
            for _ in 0..50 {
                a.latency.record(1_000_000);
            }
            for _ in 0..10 {
                a.latency.record(3_000_000);
            }
            a.leaves = 5;
            let mut b = ConnReport::new();
            for _ in 0..40 {
                b.latency.record(2_000_000);
            }
            b.leaves = 7;
            b.errors = 1;
            let reports = if reversed { vec![b, a] } else { vec![a, b] };
            fan_out_summary(&build_slo_report(&reports, 100, 2.0))
        };
        let summary = build(false);
        assert_eq!(
            summary,
            "replayed 100 plans over 2 connections (12 leaves, 1 errors) in \
             2.000s: 50 plans/s aggregate\n\
             latency: mean 1.600 ms, p50 1.016 ms, p99 3.015 ms; \
             per-connection p99 2.032..3.015 ms\n"
        );
        assert_eq!(summary, build(true), "merge order changed the report");
    }

    #[test]
    fn replay_writes_machine_readable_slo_report() {
        let dir = std::env::temp_dir().join(format!("dpod_cli_slo_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let csv_text = generate(&GenerateArgs {
            city: "detroit".into(),
            trips: 500,
            stops: 0,
            seed: 71,
        })
        .unwrap();
        let release_path = dir.join("release.json");
        std::fs::write(
            &release_path,
            sanitize(
                &csv_text,
                &SanitizeArgs {
                    cells: 8,
                    epsilon: 1.0,
                    mechanism: "ebp".into(),
                    seed: 72,
                },
            )
            .unwrap(),
        )
        .unwrap();
        let plans_path = dir.join("plans.ndjson");
        std::fs::write(&plans_path, "\"Total\"\n{\"TopK\":{\"k\":2}}\n\"Total\"\n").unwrap();

        let slo_path = dir.join("slo.json");
        replay(&ReplayArgs {
            file: plans_path,
            release: release_path.display().to_string(),
            connect: None,
            binary: false,
            cold: false,
            answers: None,
            connections: 1,
            slo_report: Some(slo_path.clone()),
        })
        .unwrap();

        // Round-trip through mirror structs: the artifact must parse as
        // JSON with exactly the documented fields.
        #[derive(serde::Deserialize)]
        struct LatencyDoc {
            count: u64,
            mean_ms: f64,
            p50_ms: f64,
            p90_ms: f64,
            p99_ms: f64,
            p999_ms: f64,
            max_ms: f64,
        }
        #[derive(serde::Deserialize)]
        struct ReportDoc {
            plans: usize,
            leaves: u64,
            errors: usize,
            wall_seconds: f64,
            plans_per_second: f64,
            connections: usize,
            latency: LatencyDoc,
            per_connection: Vec<LatencyDoc>,
        }
        let doc: ReportDoc =
            serde_json::from_str(&std::fs::read_to_string(&slo_path).unwrap()).unwrap();
        assert_eq!(doc.plans, 3);
        assert_eq!(doc.errors, 0);
        assert_eq!(doc.connections, 1);
        assert_eq!(doc.latency.count, 3);
        assert_eq!(doc.per_connection.len(), 1);
        assert!(doc.leaves > 0);
        assert!(doc.wall_seconds > 0.0 && doc.plans_per_second > 0.0);
        let l = &doc.latency;
        assert!(
            l.p50_ms <= l.p90_ms
                && l.p90_ms <= l.p99_ms
                && l.p99_ms <= l.p999_ms
                && l.p999_ms <= l.max_ms,
            "quantiles out of order: p50 {}, p99 {}, max {}",
            l.p50_ms,
            l.p99_ms,
            l.max_ms
        );
        assert!(l.mean_ms > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn query_rejects_bad_specs() {
        let csv_text = "0.1,0.1,0.9,0.9\n";
        let json = sanitize(
            csv_text,
            &SanitizeArgs {
                cells: 4,
                epsilon: 1.0,
                mechanism: "uniform".into(),
                seed: 3,
            },
        )
        .unwrap();
        let release: PublishedRelease = serde_json::from_str(&json).unwrap();
        assert!(query(release.clone(), &["*,*".to_string()]).is_err());
        assert!(query(release, &["0..9,*,*,*".to_string()]).is_err());
    }
}
