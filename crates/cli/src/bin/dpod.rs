//! The `dpod` binary: thin argument parsing over [`dpod_cli::commands`].

use dpod_cli::commands::{self, GenerateArgs, SanitizeArgs};
use dpod_cli::{registry, CliError};
use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
dpod — differentially-private OD-matrix publication

USAGE:
  dpod generate --city <newyork|denver|detroit> [--trips N] [--stops K]
                [--seed S] [--out FILE]
  dpod sanitize --input trips.csv [--cells M] --epsilon E
                [--mechanism NAME] [--seed S] [--out FILE]
  dpod publish  --input trips.csv --name NAME --catalog DIR [--cells M]
                --epsilon E [--mechanism NAME] [--seed S]
                [--epoch T [--retain K] [--series-budget EPS]]
  dpod serve    --catalog DIR [--addr HOST:PORT] [--workers N]
                [--cache-mb M] [--index-mb M] [--wire auto|json|binary]
                [--event-loops N] [--listen-backlog N]
                [--metrics-addr HOST:PORT]
                [--retain-ttl SECS [--retain-last K]]
  dpod inspect  --release release.json
  dpod query    --release release.json --range SPEC [--range SPEC]...
  dpod query    --connect HOST:PORT --release NAME [--binary true]
                --range SPEC [--range SPEC]...
  dpod replay   FILE --release release.json [--cold true]
                [--answers out.ndjson] [--slo-report FILE]
  dpod replay   FILE --connect HOST:PORT --release NAME [--binary true]
                [--answers out.ndjson] [--connections N]
                [--slo-report FILE]

QUERY SPEC (--range accepts classic ranges and the typed algebra):
  '0..4,*,3..5,*'        range sum: one clause per dimension, 'lo..hi' or '*'
  'total'                estimated total count
  'top:10'               the 10 largest cells
  'marginal:0,1'         marginal over the kept dimensions
  'od:o=0..4x0..4;s0=2..6x2..6;d=8..16x8..16'
                         OD query from 2-D regions (legs: o/origin,
                         d/dest/destination, sN/stopN; unlisted legs
                         span their full extent)
REPLAY: FILE is NDJSON, one QueryPlan per line (the `plan` field of a
        Plan request, e.g. {\"TopK\":{\"k\":10}}); prints latency and
        throughput. --answers records each response for bit-identical
        diffing between runs; --cold executes without the release index;
        --connections N fans the stream out over N concurrent client
        connections (remote replays; the load-generator mode);
        --slo-report writes a machine-readable JSON latency report
        (aggregate and per-connection quantiles).
EPOCHS: --epoch T publishes NAME as epoch T of its series (catalog
        entry NAME@T; epoch ids are monotonic per series — republish a
        live epoch or advance past the frontier, never resurrect a
        retired one). --retain K then tombstones every epoch older than
        the newest K, releasing their ε back to the series ledger.
        --series-budget EPS refuses any publish whose post-retention
        live epochs would together hold more than EPS of active ε. A
        pre-epoch release named NAME serves as epoch 0 of series NAME.
        `serve --retain-ttl SECS` sweeps the same retention (keeping
        --retain-last K epochs, default 1) on a timer for unattended
        feeds.
        Window plans slide over a series, e.g.
        {\"Window\":{\"select\":{\"LastK\":{\"k\":4}},\"merge\":\"Sum\",
        \"plan\":\"Total\"}}
NOISE SEED: sanitize and publish draw their noise seed from
            /dev/urandom. --seed S fixes it for reproducible tests and
            prints a warning: a known seed reveals the noise.
MECHANISMS: see `dpod mechanisms`
SERVE WIRE: newline-delimited JSON by default; e.g.
            {\"Query\":{\"release\":\"NAME\",\"lo\":[0,0],\"hi\":[4,4]}}
            A connection opening with the 5-byte preamble 'DPRB'+version
            speaks the length-prefixed binary protocol instead (fastest;
            used by `dpod query --binary true`). --wire restricts an
            endpoint to one encoding. DPOD_WIRE_PACKED=1 makes binary
            clients advertise the varint-packed frame feature bit
            (fewer wire bytes; old servers refuse, old frames
            unchanged).
SERVE CORE: many idle connections are served on a few workers via
            epoll readiness loops (a thread-per-connection pool takes
            over where epoll is unavailable). The event
            core runs --event-loops N shards, each with its own epoll fd
            and SO_REUSEPORT listener (default: DPOD_EVENT_LOOPS, then
            min(4, cores/2)). --listen-backlog N sizes every listener's
            accept queue (default 1024; kernel clamps to somaxconn).
            SIGINT drains in flight responses across all shards, prints
            a final stats line, and exits 0. --metrics-addr additionally
            serves a Prometheus text-format exposition at GET /metrics
            on its own listener (per-shard series carry a shard label).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, CliError> {
    let Some(cmd) = args.first() else {
        return Err("no command given".into());
    };
    // `replay` takes its stream file positionally (`dpod replay FILE`);
    // every other argument everywhere is `--key value`.
    let mut rest = &args[1..];
    let mut positional: Option<String> = None;
    if cmd == "replay" {
        if let Some(first) = rest.first().filter(|a| !a.starts_with("--")) {
            positional = Some(first.clone());
            rest = &rest[1..];
        }
    }
    let opts = Opts::parse(rest)?;
    match cmd.as_str() {
        "generate" => {
            let text = commands::generate(&GenerateArgs {
                city: opts.require("city")?,
                trips: opts.parse_or("trips", 10_000)?,
                stops: opts.parse_or("stops", 0)?,
                seed: opts.parse_or("seed", 0)?,
            })?;
            opts.write_or_return("out", text)
        }
        "sanitize" => {
            let input = opts.require("input")?;
            let csv_text = std::fs::read_to_string(&input)
                .map_err(|e| CliError(format!("cannot read {input}: {e}")))?;
            let json = commands::sanitize(
                &csv_text,
                &SanitizeArgs {
                    cells: opts.parse_or("cells", 16)?,
                    epsilon: opts.parse_require("epsilon")?,
                    mechanism: opts.get("mechanism").unwrap_or("daf-entropy").to_string(),
                    seed: noise_seed(&opts)?,
                },
            )?;
            opts.write_or_return("out", json)
        }
        "inspect" => {
            let release = commands::load_release(&PathBuf::from(opts.require("release")?))?;
            commands::inspect(release)
        }
        "query" => {
            if opts.ranges.is_empty() {
                return Err("query needs at least one --range".into());
            }
            match opts.get("connect") {
                Some(addr) => commands::remote_query(
                    addr,
                    &opts.require("release")?,
                    &opts.ranges,
                    opts.parse_or("binary", false)?,
                ),
                None => {
                    let release = commands::load_release(&PathBuf::from(opts.require("release")?))?;
                    commands::query(release, &opts.ranges)
                }
            }
        }
        "publish" => {
            let input = opts.require("input")?;
            let csv_text = std::fs::read_to_string(&input)
                .map_err(|e| CliError(format!("cannot read {input}: {e}")))?;
            let epoch = match opts.get("epoch") {
                Some(v) => Some(
                    v.parse::<u64>()
                        .map_err(|_| CliError(format!("--epoch: cannot parse '{v}'")))?,
                ),
                None => None,
            };
            let retain = match opts.get("retain") {
                Some(v) => Some(
                    v.parse::<usize>()
                        .map_err(|_| CliError(format!("--retain: cannot parse '{v}'")))?,
                ),
                None => None,
            };
            let series_budget = match opts.get("series-budget") {
                Some(v) => Some(
                    v.parse::<f64>()
                        .map_err(|_| CliError(format!("--series-budget: cannot parse '{v}'")))?,
                ),
                None => None,
            };
            commands::publish(
                &csv_text,
                &SanitizeArgs {
                    cells: opts.parse_or("cells", 16)?,
                    epsilon: opts.parse_require("epsilon")?,
                    mechanism: opts.get("mechanism").unwrap_or("daf-entropy").to_string(),
                    seed: noise_seed(&opts)?,
                },
                &opts.require("name")?,
                &PathBuf::from(opts.require("catalog")?),
                epoch,
                retain,
                series_budget,
            )
        }
        "replay" => {
            let file = match positional {
                Some(f) => f,
                None => opts.require("file")?,
            };
            commands::replay(&commands::ReplayArgs {
                file: PathBuf::from(file),
                release: opts.require("release")?,
                connect: opts.get("connect").map(str::to_string),
                binary: opts.parse_or("binary", false)?,
                cold: opts.parse_or("cold", false)?,
                answers: opts.get("answers").map(PathBuf::from),
                connections: opts.parse_or("connections", 1)?,
                slo_report: opts.get("slo-report").map(PathBuf::from),
            })
        }
        "serve" => {
            let (handle, server, metrics) = commands::start_server(&commands::ServeArgs {
                catalog: PathBuf::from(opts.require("catalog")?),
                addr: opts.get("addr").unwrap_or("127.0.0.1:7878").to_string(),
                workers: opts.parse_or("workers", 4)?,
                cache_mb: opts.parse_or("cache-mb", 256)?,
                index_mb: opts.parse_or("index-mb", 64)?,
                wire: opts.parse_or("wire", dpod_serve::WireMode::Auto)?,
                event_loops: opts.parse_or("event-loops", 0)?,
                listen_backlog: opts.parse_or("listen-backlog", 1024)?,
                metrics_addr: opts.get("metrics-addr").map(str::to_string),
                retain_ttl: match opts.get("retain-ttl") {
                    Some(v) => Some(v.parse::<u64>().map_err(|_| {
                        CliError(format!("--retain-ttl: cannot parse '{v}' (seconds)"))
                    })?),
                    None => None,
                },
                retain_last: opts.parse_or("retain-last", 1)?,
            })?;
            eprintln!(
                "dpod-serve listening on {} ({} releases in {} series; {:?} front end, \
                 {} event loop{}, listen backlog {})",
                handle.addr(),
                server.catalog().len(),
                dpod_serve::series::series_names(server.catalog()).len(),
                handle.front_end(),
                handle.event_loops(),
                if handle.event_loops() == 1 { "" } else { "s" },
                handle.listen_backlog(),
            );
            if let Some(exporter) = &metrics {
                eprintln!("metrics exposition on http://{}/metrics", exporter.addr());
            }
            // Serve until SIGINT, printing one operator stats line per
            // minute (traffic, connections, cache and index hit-rates).
            // On SIGINT: stop accepting, drain in-flight responses,
            // print a final stats line, and exit 0.
            let sigint_armed = polling::signal::install_sigint().is_ok();
            let started = std::time::Instant::now();
            let mut next_stats = std::time::Duration::from_secs(60);
            let mut tracker = commands::StatsTracker::new();
            loop {
                std::thread::sleep(std::time::Duration::from_millis(200));
                if sigint_armed && polling::signal::sigint_received() {
                    eprintln!("SIGINT: draining in-flight responses…");
                    handle.drain(std::time::Duration::from_secs(5));
                    drop(metrics);
                    return Ok(format!("shutdown | {}\n", tracker.line(&server)));
                }
                if started.elapsed() >= next_stats {
                    eprintln!("{}", tracker.line(&server));
                    next_stats += std::time::Duration::from_secs(60);
                }
            }
        }
        "mechanisms" => Ok(format!("{}\n", registry::mechanism_names().join("\n"))),
        other => Err(format!("unknown command '{other}'").into()),
    }
}

/// The noise seed for `sanitize` and `publish`. Without `--seed` it is
/// 8 fresh bytes of OS entropy, so no two releases share a noise vector.
/// A given `--seed` is honoured with a warning: anyone who learns it can
/// regenerate the noise and subtract it from the release.
fn noise_seed(opts: &Opts) -> Result<u64, CliError> {
    if opts.get("seed").is_some() {
        let seed = opts.parse_require("seed")?;
        eprintln!(
            "warning: --seed makes this release deterministic; anyone who knows the seed \
             can regenerate its noise"
        );
        return Ok(seed);
    }
    let mut bytes = [0u8; 8];
    std::fs::File::open("/dev/urandom")
        .and_then(|mut f| f.read_exact(&mut bytes))
        .map_err(|e| CliError(format!("cannot read /dev/urandom for a noise seed: {e}")))?;
    Ok(u64::from_le_bytes(bytes))
}

/// Flat `--key value` option bag (with repeatable `--range`).
struct Opts {
    pairs: Vec<(String, String)>,
    ranges: Vec<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut pairs = Vec::new();
        let mut ranges = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'").into());
            };
            let value = it
                .next()
                .ok_or_else(|| CliError(format!("--{key} needs a value")))?;
            if key == "range" {
                ranges.push(value.clone());
            } else {
                pairs.push((key.to_string(), value.clone()));
            }
        }
        Ok(Opts { pairs, ranges })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<String, CliError> {
        self.get(key)
            .map(str::to_string)
            .ok_or_else(|| CliError(format!("--{key} is required")))
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("--{key}: cannot parse '{v}'"))),
        }
    }

    fn parse_require<T: std::str::FromStr>(&self, key: &str) -> Result<T, CliError> {
        let v = self.require(key)?;
        v.parse()
            .map_err(|_| CliError(format!("--{key}: cannot parse '{v}'")))
    }

    /// Writes to `--out` when given (returning a confirmation line),
    /// otherwise returns the content for stdout.
    fn write_or_return(&self, key: &str, content: String) -> Result<String, CliError> {
        match self.get(key) {
            None => Ok(content),
            Some(path) => {
                std::fs::write(path, &content)
                    .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
                Ok(format!("wrote {path}\n"))
            }
        }
    }
}
