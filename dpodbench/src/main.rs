//! `dpodbench` — the repository's benchmark.
//!
//! ```text
//! dpodbench --workload <analyst_hot|analyst_cold|curator_epochs>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! From one process it builds the shared analyst catalog and the
//! curator's epoch series from seeded `dpod-data` inputs, spawns a
//! `dpod_serve::Server` on the event front end, and drives one workload
//! against it for `--seconds`, checking every answer it can afford to.
//! With `--trace 0` the last stdout line is the end-to-end result; with
//! `--trace 1` the run is followed by an in-process replay of the same
//! seeded requests that times each layer's public calls, and the last
//! line carries the per-layer metrics. Spans and the host fingerprint are
//! written under `.bench_out/` in the working directory.
//! `dpodbench/WORKLOADS.md` explains the workloads and metrics.

mod curator;
mod host;
mod inputs;
mod net;
mod plans;
mod run;
mod stack;
mod trace;

use crate::plans::{ColdStream, Enc, HotStream};
use crate::run::{better_decile, Planned, RunResult, Window};
use crate::stack::{Stack, Workload, WARM_REQ_BASE};
use crate::trace::{median, Tracer};
use dpod_serve::protocol::{Request, Response};
use dpod_serve::{FrontEnd, SpawnOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Server threads: one worker and one event-loop shard.
const WORKERS: usize = 1;
const LOOP_SHARDS: usize = 1;
/// Set-ups per untraced run (`setup_s` is their median).
const SETUP_REPS: usize = 5;
/// Requests the traced replay of an analyst workload pushes through.
const REPLAY_PLANS: u64 = 50_000;
/// Epochs the traced replay of `curator_epochs` publishes.
const REPLAY_EPOCHS: u64 = 10;
/// Every this-many-th `analyst_cold` answer is checked after the run…
const COLD_SAMPLE_EVERY: u64 = 32;
/// …up to this many.
const COLD_SAMPLE_MAX: usize = 2_000;
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("dpodbench: {e}");
        std::process::exit(1);
    }
}

/// One metric line of the result object.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    ))
}

fn spawn(stack: &Stack) -> Result<dpod_serve::ServerHandle, String> {
    dpod_serve::spawn_with(
        Arc::clone(&stack.server),
        "127.0.0.1:0",
        SpawnOptions {
            workers: WORKERS,
            front_end: Some(FrontEnd::Event),
            event_loops: LOOP_SHARDS,
            ..SpawnOptions::default()
        },
    )
    .map_err(|e| format!("spawn: {e}"))
}

fn catalog_dir(tag: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("catalog-{}-{tag}", std::process::id()))
}

/// Bodies the server must send for each pool plan on each of the
/// workload's encodings, from the cold `ScanBackend` (`plan::execute`).
fn hot_expected(
    stack: &Stack,
    pool: &[Request],
    encs: &[Enc],
) -> Result<Vec<Vec<Vec<u8>>>, String> {
    pool.iter()
        .map(|req| {
            let answer = reference(stack, req)?;
            let resp = Response::Answer { answer };
            Ok(encs
                .iter()
                .map(|&enc| net::expected_body(&resp, enc))
                .collect())
        })
        .collect()
}

fn reference(stack: &Stack, req: &Request) -> Result<dpod_query::Answer, String> {
    let Request::Plan { release, plan } = req else {
        return Err("not a plan request".into());
    };
    let index = stack
        .bench_index(release)
        .ok_or_else(|| format!("no reference for release '{release}'"))?;
    dpod_query::plan::execute(index.matrix(), plan).map_err(|e| e.0)
}

/// An untraced run against a freshly set-up, spawned server, with the
/// durations and publishes of its set-ups.
struct Untraced {
    run: RunResult,
    setup_s: Vec<f64>,
    /// One window per set-up, holding its publishes.
    setup_windows: Vec<Window>,
    inputs: inputs::Inputs,
}

fn untraced(args: &Args, pool: &[Request], reps: usize) -> Result<Untraced, String> {
    let wl = args.workload;
    let encs = wl.encodings();
    let mut setup_s = Vec::new();
    let mut setup_windows = Vec::new();
    let mut kept: Option<(inputs::Inputs, Stack, dpod_serve::ServerHandle)> = None;
    for rep in 0..reps {
        if let Some((_, _, handle)) = kept.take() {
            handle.stop();
        }
        let t0 = Instant::now();
        let inputs = inputs::generate(args.seed)?;
        let stack = Stack::build(
            &inputs,
            wl,
            pool,
            catalog_dir(&format!("setup{rep}")),
            &mut Tracer::new(false),
        )?;
        let handle = spawn(&stack)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        setup_windows.push(Window {
            publish_ms: stack.publishes.iter().map(|p| p.publish_ms).collect(),
            ..Window::default()
        });
        kept = Some((inputs, stack, handle));
    }
    let (inputs, mut stack, handle) = kept.ok_or("no set-up ran")?;
    let addr = handle.addr();
    let run = match wl {
        Workload::Hot => {
            let expected = hot_expected(&stack, pool, encs)?;
            let mut stream = HotStream::new(args.seed);
            run::analyst(
                addr,
                encs,
                args.seconds,
                &mut || {
                    let i = stream.next_index();
                    Planned {
                        seq: 0,
                        pool: Some(i),
                        req: pool[i].clone(),
                    }
                },
                &mut |planned, enc, body| {
                    let k = encs.iter().position(|&e| e == enc).unwrap_or(0);
                    planned.pool.is_some_and(|i| expected[i][k] == body)
                },
            )?
        }
        Workload::Cold => {
            let mut stream = ColdStream::new(args.seed);
            let mut seq = 0u64;
            let mut samples: Vec<(Request, Enc, Vec<u8>)> = Vec::new();
            let mut run = run::analyst(
                addr,
                encs,
                args.seconds,
                &mut || {
                    seq += 1;
                    Planned {
                        seq,
                        pool: None,
                        req: stream.next_request(),
                    }
                },
                &mut |planned, enc, body| {
                    if planned.seq % COLD_SAMPLE_EVERY == 0 && samples.len() < COLD_SAMPLE_MAX {
                        samples.push((planned.req.clone(), enc, body.to_vec()));
                    }
                    true
                },
            )?;
            for (req, enc, body) in &samples {
                let answer = reference(&stack, req)?;
                if net::expected_body(&Response::Answer { answer }, *enc) != *body {
                    run.failed += 1;
                }
            }
            println!("# analyst_cold: {} sampled answers checked", samples.len());
            run
        }
        Workload::Curator => run::curator(&mut stack, addr, args.seconds, &mut Tracer::new(false))?,
    };
    handle.stop();
    Ok(Untraced {
        run,
        setup_s,
        setup_windows,
        inputs,
    })
}

/// Per-request figures of a replay's run phase.
#[derive(Default)]
struct Replay {
    plans: u64,
    failed: u64,
    /// Time spent in the run phase's plan pipelines (publishes excluded).
    run_s: f64,
    before: Option<dpod_serve::EngineStats>,
    after: Option<dpod_serve::EngineStats>,
    /// Per encoding: (requests, request bytes, response bytes).
    bytes: [(u64, u64, u64); 3],
    parse_ns: Vec<f64>,
    handle_ns: Vec<f64>,
    publishes: u64,
    partitions: u64,
    frame_bytes: u64,
}

fn enc_slot(enc: Enc) -> usize {
    match enc {
        Enc::Json => 0,
        Enc::Binary => 1,
        Enc::Packed => 2,
    }
}

/// Rebuilds the stack in-process (no front end) and pushes the
/// workload's first requests through [`Stack::pipe`]: the same seeded
/// sequence and connection assignment the untraced run started with.
fn replay(
    args: &Args,
    inputs: &inputs::Inputs,
    pool: &[Request],
    tracer: &mut Tracer,
    tag: &str,
) -> Result<Replay, String> {
    let wl = args.workload;
    let encs = wl.encodings();
    let mut stack = Stack::build(inputs, wl, pool, catalog_dir(tag), tracer)?;
    let mut out = Replay {
        before: Some(stack.server.engine_stats()),
        ..Replay::default()
    };
    let record = |out: &mut Replay, enc: Enc, o: stack::Outcome| {
        out.plans += 1;
        if !matches!(o.response, Response::Answer { .. }) {
            out.failed += 1;
        }
        let b = &mut out.bytes[enc_slot(enc)];
        b.0 += 1;
        b.1 += o.request_bytes as u64;
        b.2 += o.response_bytes as u64;
        out.parse_ns.push(o.parse_ns as f64);
        out.handle_ns.push(o.handle_ns as f64);
    };
    match wl {
        Workload::Hot => {
            let mut stream = HotStream::new(args.seed);
            for i in 0..REPLAY_PLANS {
                let enc = encs[(i as usize) % encs.len()];
                let req = &pool[stream.next_index()];
                let t0 = Instant::now();
                let o = stack.pipe(tracer, i, req, enc)?;
                out.run_s += t0.elapsed().as_secs_f64();
                record(&mut out, enc, o);
            }
        }
        Workload::Cold => {
            let mut stream = ColdStream::new(args.seed);
            for i in 0..REPLAY_PLANS {
                let enc = encs[(i as usize) % encs.len()];
                let req = stream.next_request();
                let t0 = Instant::now();
                let o = stack.pipe(tracer, i, &req, enc)?;
                out.run_s += t0.elapsed().as_secs_f64();
                record(&mut out, enc, o);
            }
        }
        Workload::Curator => {
            let mut i = 0u64;
            for _ in 0..REPLAY_EPOCHS {
                let newest = stack.publish(tracer)?.epoch;
                let batch = plans::curator_plans(newest);
                for j in 0..plans::CURATOR_BATCH {
                    let t0 = Instant::now();
                    let o = stack.pipe(tracer, i, &batch[plans::curator_slot(j)], Enc::Binary)?;
                    out.run_s += t0.elapsed().as_secs_f64();
                    record(&mut out, Enc::Binary, o);
                    i += 1;
                }
            }
        }
    }
    out.after = Some(stack.server.engine_stats());
    for p in &stack.publishes {
        out.publishes += 1;
        out.partitions += p.partitions as u64;
        out.frame_bytes += p.frame_bytes as u64;
        if !p.round_trip_ok {
            out.failed += 1;
        }
    }
    Ok(out)
}

fn med_of(tracer: &Tracer, names: &[&str], scale: f64) -> f64 {
    let mut all: Vec<f64> = names
        .iter()
        .flat_map(|n| tracer.durations_where(n, |_| true))
        .collect();
    median(&mut all) / scale
}

/// Median of `name` spans belonging to run-phase requests.
fn run_median(tracer: &Tracer, name: &str) -> f64 {
    let mut d = tracer.durations_where(name, |s| s.req < WARM_REQ_BASE);
    median(&mut d)
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn per_layer(untraced_p50_us: f64, off: &Replay, on: &Replay, tracer: &Tracer) -> Vec<Metric> {
    const NS: f64 = 1.0;
    const US: f64 = 1e3;
    const MS: f64 = 1e6;
    let (b, a) = (
        on.before.expect("replay records stats"),
        on.after.expect("replay records stats"),
    );
    let d = |x: u64, y: u64| y.saturating_sub(x);
    let encoded = (
        d(b.encoded_hits, a.encoded_hits),
        d(b.encoded_misses, a.encoded_misses),
    );
    let index = (
        d(b.index_hits, a.index_hits),
        d(b.index_misses, a.index_misses),
    );
    let pyramid = (
        d(b.pyramid_hits, a.pyramid_hits),
        d(b.pyramid_misses, a.pyramid_misses),
    );
    let matrix = (d(b.hits, a.hits), d(b.misses, a.misses));
    let partial = (
        d(b.partial_hits, a.partial_hits),
        d(b.partial_misses, a.partial_misses),
    );
    let mut parse = on.parse_ns.clone();
    let mut handle = on.handle_ns.clone();
    let layered_us = (run_median(tracer, "client.encode_request")
        + median(&mut parse)
        + median(&mut handle)
        + run_median(tracer, "client.decode_response"))
        / US;
    let mean = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let [json, binary, packed] = on.bytes;
    vec![
        metric(
            "client.encode_request_ns",
            med_of(tracer, &["client.encode_request"], NS),
            "ns",
        ),
        metric(
            "wire.decode_request_ns",
            med_of(tracer, &["wire.decode_request"], NS),
            "ns",
        ),
        metric(
            "wire.parse_request_json_ns",
            med_of(
                tracer,
                &["wire.parse_request_json", "wire.parse_request_json_shadow"],
                NS,
            ),
            "ns",
        ),
        metric(
            "serve.plan_key_ns",
            med_of(tracer, &["serve.plan_key"], NS),
            "ns",
        ),
        metric(
            "serve.handle_hit_ns",
            med_of(tracer, &["serve.handle_hit"], NS),
            "ns",
        ),
        metric(
            "serve.handle_miss_ns",
            med_of(tracer, &["serve.handle_miss"], NS),
            "ns",
        ),
        metric(
            "query.execute_ns",
            med_of(tracer, &["query.execute"], NS),
            "ns",
        ),
        metric(
            "wire.encode_response_ns",
            med_of(tracer, &["wire.encode_response"], NS),
            "ns",
        ),
        metric(
            "client.decode_response_ns",
            med_of(tracer, &["client.decode_response"], NS),
            "ns",
        ),
        metric("front_end.residual_us", untraced_p50_us - layered_us, "us"),
        metric(
            "engine.encoded_hit_ratio",
            ratio(encoded.0, encoded.1),
            "ratio",
        ),
        metric(
            "engine.encoded_lookups",
            (encoded.0 + encoded.1) as f64,
            "count",
        ),
        metric("engine.index_hit_ratio", ratio(index.0, index.1), "ratio"),
        metric("engine.index_lookups", (index.0 + index.1) as f64, "count"),
        metric(
            "engine.pyramid_hit_ratio",
            ratio(pyramid.0, pyramid.1),
            "ratio",
        ),
        metric(
            "engine.pyramid_lookups",
            (pyramid.0 + pyramid.1) as f64,
            "count",
        ),
        metric(
            "engine.matrix_hit_ratio",
            ratio(matrix.0, matrix.1),
            "ratio",
        ),
        metric(
            "engine.matrix_lookups",
            (matrix.0 + matrix.1) as f64,
            "count",
        ),
        metric(
            "engine.partial_hit_ratio",
            ratio(partial.0, partial.1),
            "ratio",
        ),
        metric(
            "engine.partial_lookups",
            (partial.0 + partial.1) as f64,
            "count",
        ),
        metric("engine.resident_bytes", a.bytes as f64, "bytes"),
        metric("wire.request_bytes.json", mean(json.1, json.0), "bytes"),
        metric(
            "wire.request_bytes.binary",
            mean(binary.1, binary.0),
            "bytes",
        ),
        metric(
            "wire.request_bytes.packed",
            mean(packed.1, packed.0),
            "bytes",
        ),
        metric("wire.response_bytes.json", mean(json.2, json.0), "bytes"),
        metric(
            "wire.response_bytes.binary",
            mean(binary.2, binary.0),
            "bytes",
        ),
        metric(
            "wire.response_bytes.packed",
            mean(packed.2, packed.0),
            "bytes",
        ),
        metric(
            "cli.csv_parse_ms",
            med_of(tracer, &["cli.csv_parse"], MS),
            "ms",
        ),
        metric(
            "data.od_build_ms",
            med_of(tracer, &["data.od_build"], MS),
            "ms",
        ),
        metric(
            "core.sanitize_ms.ebp",
            med_of(tracer, &["core.sanitize.ebp"], MS),
            "ms",
        ),
        metric(
            "core.sanitize_ms.daf-entropy",
            med_of(tracer, &["core.sanitize.daf-entropy"], MS),
            "ms",
        ),
        metric(
            "core.sanitize_ms.daf-homogeneity",
            med_of(tracer, &["core.sanitize.daf-homogeneity"], MS),
            "ms",
        ),
        metric("core.partitions", on.partitions as f64, "count"),
        metric(
            "core.release_ms",
            med_of(tracer, &["core.release"], MS),
            "ms",
        ),
        metric(
            "fmatrix.frame_encode_ms",
            med_of(tracer, &["fmatrix.frame_encode"], MS),
            "ms",
        ),
        metric("fmatrix.frame_bytes", on.frame_bytes as f64, "bytes"),
        metric(
            "serve.catalog_save_ms",
            med_of(tracer, &["serve.catalog_save"], MS),
            "ms",
        ),
        metric(
            "serve.publish_epoch_us",
            med_of(tracer, &["serve.publish_epoch"], US),
            "us",
        ),
        metric("serve.publishes", on.publishes as f64, "count"),
        metric(
            "core.rebuild_ms",
            med_of(tracer, &["core.rebuild"], MS),
            "ms",
        ),
        metric(
            "query.index_build_ms",
            med_of(tracer, &["query.index_build"], MS),
            "ms",
        ),
        metric(
            "serve.window_first_ms",
            med_of(tracer, &["serve.window_first"], MS),
            "ms",
        ),
        metric(
            "serve.window_warm_us",
            med_of(tracer, &["serve.window_warm"], US),
            "us",
        ),
        metric("trace.overhead_frac", on.run_s / off.run_s - 1.0, "ratio"),
    ]
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let wl = args.workload;
    let shape = host::Shape {
        server_workers: WORKERS,
        loop_shards: LOOP_SHARDS,
        client_threads: 1,
        client_connections: wl.encodings().len(),
    };
    host::check_caps(&shape)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let fingerprint = host::fingerprint(&shape);
    println!("# host {fingerprint}");
    println!(
        "# workload {} seed {} seconds {} trace {}",
        wl.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let pool = plans::hot_pool(args.seed);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let steal_before = host::steal_s();
    let u = untraced(&args, &pool, reps)?;
    println!(
        "# host steal during set-up and run: {:.2} CPU-s",
        host::steal_s() - steal_before
    );
    let windows = &u.run.windows;
    let plans_per_s = better_decile(windows, Window::plans_per_s, true);
    let p50_us = better_decile(windows, |w| w.latency_us(0.5), false);
    let p99_us = better_decile(windows, |w| w.latency_us(0.99), false);
    println!(
        "# windows (plans/s, p99 us): {:?}",
        windows
            .iter()
            .map(|w| (w.plans_per_s().round(), w.latency_us(0.99).round()))
            .collect::<Vec<_>>()
    );
    let mut attempted = u.run.attempted;
    let mut failed = u.run.failed;
    println!(
        "# run: {} plans in {:.3} s; better decile of {} windows: {plans_per_s:.0} plans/s, \
         p50 {p50_us:.2} us, p99 {p99_us:.2} us",
        u.run.plans,
        u.run.wall_s,
        windows.len()
    );

    let metrics = if args.trace {
        let mut off = Tracer::new(false);
        let untraced_replay = replay(&args, &u.inputs, &pool, &mut off, "replay-off")?;
        let mut tracer = Tracer::new(true);
        let traced_replay = replay(&args, &u.inputs, &pool, &mut tracer, "replay-on")?;
        attempted += traced_replay.plans + traced_replay.publishes;
        failed += traced_replay.failed;
        let spans = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.tsv", wl.name(), args.seed));
        tracer
            .write_tsv(&spans)
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        println!(
            "# replay: {} plans, {} publishes, {} spans in {}",
            traced_replay.plans,
            traced_replay.publishes,
            tracer.len(),
            spans.display()
        );
        per_layer(p50_us, &untraced_replay, &traced_replay, &tracer)
    } else {
        let publish_windows = if wl == Workload::Curator {
            windows
        } else {
            &u.setup_windows
        };
        let mut setup_s = u.setup_s.clone();
        vec![
            metric("plans_per_s", plans_per_s, "1/s"),
            metric("latency_p50_us", p50_us, "us"),
            metric("latency_p99_us", p99_us, "us"),
            metric(
                "publish_ms_p50",
                better_decile(publish_windows, |w| w.publish_ms(0.5), false),
                "ms",
            ),
            metric(
                "publish_ms_p90",
                better_decile(publish_windows, |w| w.publish_ms(0.9), false),
                "ms",
            ),
            metric("setup_s", median(&mut setup_s), "s"),
            metric("peak_rss_mb", host::peak_rss_mb(), "MiB"),
        ]
    };
    println!(
        "# failed_frac {} ({failed} of {attempted} operations)",
        if attempted == 0 {
            0.0
        } else {
            failed as f64 / attempted as f64
        }
    );
    let result = result_json(attempted, failed, &metrics)?;
    let record = Path::new(OUT_DIR).join(format!(
        "result-{}-seed{}-trace{}.json",
        wl.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(
        &record,
        format!("{{\"host\":{fingerprint},\"result\":{result}}}\n"),
    )
    .map_err(|e| format!("{}: {e}", record.display()))?;
    println!("{result}");
    Ok(())
}
