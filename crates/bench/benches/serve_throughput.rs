//! Serving-layer throughput: queries/sec against a warm release catalog.
//!
//! The paper's deployment model is publish-once, query-forever; the
//! serving subsystem's job is to make the query side cheap at volume.
//! This bench pins three paths over a catalog of three 256×256 releases:
//!
//! * `handle/single` — one in-process `Server::handle` round trip per
//!   range query (the CLI/bench path);
//! * `handle/batch` — 1000-range batches through one request (amortized
//!   name resolution and cache lookup);
//! * `tcp/pipelined` — end-to-end newline-delimited JSON over a local
//!   socket;
//! * `tcp/binary` — the same single-query traffic over the `DPRB`
//!   binary protocol (pipelined frames, one connection);
//! * `tcp/binary-batch` — 1000-range `DPRB` batch frames, the protocol's
//!   intended interactive-analyst shape — measured legacy and packed
//!   (the preamble feature bit that varint-packs coordinates and answer
//!   vectors), plus static `wire_bytes_batch1000_*` rows pinning the
//!   bytes per batch round trip under each encoding;
//! * `plan/*_indexed` — the typed query algebra's hot aggregate plans
//!   (`QueryPlan::Marginal` / `QueryPlan::TopK`) over both TCP
//!   encodings and in-process, answered from the release index once one
//!   warming request has built it;
//! * `plan/*_pyramid` — coarse aggregates over a 1024×1024 release
//!   routed through the resolution pyramid (`DrillDown { level: 4 }`
//!   answers from a memoized 64×64 coarse level, derived from the
//!   sanitized leaf by pure post-processing — zero extra ε), pinned
//!   against the leaf-indexed marginal at the same side; the pyramid
//!   marginal must clear 5× the leaf-indexed rate;
//! * `tcp/eventloop-cN` — request/response `DPRB` traffic from N
//!   concurrent connections (1, 64, 512) against the epoll front end
//!   (one loop shard, pinned) on a fixed 8-worker pool, plus a
//!   `tcp/pool-c64` row from the thread-per-connection fallback
//!   at the same worker count — the many-analysts shape the event loop
//!   exists for;
//! * `replay_plans_c1024_eventloop_shards4` — the replay load generator
//!   at 1024 connections over **four** `SO_REUSEPORT` loop shards, the
//!   fan-in where a single loop thread became the ceiling.
//! * `window_lastk3_publish_storm` — sliding-window plans
//!   (`Window{LastK:3}` over an epoch series) answered while a curator
//!   thread republishes the frontier epoch as fast as it can: the
//!   continual-publication shape, where each republish invalidates only
//!   that epoch's memoized partial and the warm epochs keep answering
//!   from cache.
//!
//! Besides the criterion-style console lines, it writes the measured
//! queries/sec into `BENCH_serve.json` (report::Experiment schema) so the
//! workspace's perf trajectory accumulates across PRs. Setting
//! `DPOD_BENCH_SMOKE=1` shrinks every workload to a seconds-long smoke
//! run (CI uses this to catch codec regressions without paying for a
//! full measurement; the trajectory file is not rewritten in that mode).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dpod_bench::report::{Experiment, Panel};
use dpod_bench::{datasets, HarnessConfig, Scale};
use dpod_core::{baselines::Identity, grid::Ebp, grid::Eug, Mechanism, PublishedRelease};
use dpod_dp::Epsilon;
use dpod_query::workload::QueryWorkload;
use dpod_query::QueryPlan;
use dpod_serve::protocol::{Request, Response};
use dpod_serve::{Catalog, FrontEnd, Server, SpawnOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::sync::Arc;
use std::time::Instant;

const SIDE: usize = 256;
const BATCH: usize = 1_000;

/// `DPOD_BENCH_SMOKE=1` → correctness-smoke sizes, no trajectory write.
fn smoke() -> bool {
    std::env::var("DPOD_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Catalog of three 256×256 releases from distinct mechanisms.
fn build_server() -> Arc<Server> {
    let cfg = HarnessConfig::at_scale(Scale::Quick);
    let ds = datasets::gaussian(&cfg, 2, 0.1);
    let eps = Epsilon::new(0.5).expect("valid epsilon");
    let catalog = Catalog::new();
    let mechanisms: [(&str, Box<dyn Mechanism>); 3] = [
        ("gauss-ebp", Box::new(Ebp::default())),
        ("gauss-eug", Box::new(Eug::default())),
        ("gauss-identity", Box::new(Identity)),
    ];
    for (i, (name, mech)) in mechanisms.into_iter().enumerate() {
        let out = mech
            .sanitize(&ds.matrix, eps, &mut dpod_dp::seeded_rng(100 + i as u64))
            .expect("sanitize");
        catalog.publish(name, PublishedRelease::from_sanitized(&out));
    }
    Arc::new(Server::new(Arc::new(catalog), 256 << 20))
}

fn query_requests(n: usize) -> Vec<Request> {
    let shape = dpod_fmatrix::Shape::new(vec![SIDE, SIDE]).expect("shape");
    let mut rng = dpod_dp::seeded_rng(7);
    let names = ["gauss-ebp", "gauss-eug", "gauss-identity"];
    QueryWorkload::Random
        .draw_many(&shape, n, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(i, q)| Request::Query {
            release: names[i % names.len()].to_string(),
            lo: q.lo().to_vec(),
            hi: q.hi().to_vec(),
        })
        .collect()
}

/// Directly measured queries/sec for the trajectory file.
fn measure_qps(server: &Server, requests: &[Request], rounds: usize) -> f64 {
    let start = Instant::now();
    let mut answered = 0u64;
    for _ in 0..rounds {
        for req in requests {
            match server.handle(req) {
                Response::Value { value } => {
                    black_box(value);
                    answered += 1;
                }
                other => panic!("query failed: {other:?}"),
            }
        }
    }
    answered as f64 / start.elapsed().as_secs_f64()
}

fn measure_batch_qps(server: &Server, rounds: usize) -> f64 {
    let shape = dpod_fmatrix::Shape::new(vec![SIDE, SIDE]).expect("shape");
    let mut rng = dpod_dp::seeded_rng(8);
    let ranges: Vec<(Vec<usize>, Vec<usize>)> = QueryWorkload::Random
        .draw_many(&shape, BATCH, &mut rng)
        .into_iter()
        .map(|q| (q.lo().to_vec(), q.hi().to_vec()))
        .collect();
    let req = Request::Batch {
        release: "gauss-ebp".into(),
        ranges,
    };
    let start = Instant::now();
    for _ in 0..rounds {
        match server.handle(&req) {
            Response::Values { values } => {
                black_box(values.len());
            }
            other => panic!("batch failed: {other:?}"),
        }
    }
    (BATCH * rounds) as f64 / start.elapsed().as_secs_f64()
}

/// The serving handle the *legacy* trajectory rows were recorded on:
/// the thread-pool front end at 4 workers. Pinned explicitly now that
/// [`dpod_serve::spawn`] defaults to the event loop, so the historical
/// labels in `BENCH_serve.json` keep comparing like with like (the
/// event core has its own `*_eventloop` / `replay_plans_*` rows).
fn spawn_legacy_pool(server: Arc<Server>) -> dpod_serve::ServerHandle {
    dpod_serve::spawn_with(
        server,
        "127.0.0.1:0",
        SpawnOptions {
            workers: 4,
            front_end: Some(FrontEnd::Pool),
            ..SpawnOptions::default()
        },
    )
    .expect("bind")
}

fn measure_tcp_qps(server: Arc<Server>, n: usize) -> f64 {
    let handle = spawn_legacy_pool(server);
    let requests = query_requests(n);
    let stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    let start = Instant::now();
    // Pipeline everything, then read all responses back.
    for req in &requests {
        writer
            .write_all(serde_json::to_string(req).expect("encode").as_bytes())
            .expect("write");
        writer.write_all(b"\n").expect("write");
    }
    writer.flush().expect("flush");
    let mut line = String::new();
    for _ in 0..requests.len() {
        line.clear();
        reader.read_line(&mut line).expect("read");
        let resp: Response = serde_json::from_str(line.trim()).expect("decode");
        match resp {
            Response::Value { value } => {
                black_box(value);
            }
            other => panic!("tcp query failed: {other:?}"),
        }
    }
    let qps = requests.len() as f64 / start.elapsed().as_secs_f64();
    drop(writer);
    drop(reader);
    handle.stop();
    qps
}

/// Single-query `DPRB` frames, pipelined on one connection.
fn measure_tcp_binary_qps(server: Arc<Server>, n: usize) -> f64 {
    let handle = spawn_legacy_pool(server);
    let requests = query_requests(n);
    let mut client = dpod_serve::wire::Client::connect(handle.addr()).expect("connect");
    let start = Instant::now();
    for req in &requests {
        client.send(req).expect("send");
    }
    for _ in 0..requests.len() {
        match client.receive().expect("receive") {
            Response::Value { value } => {
                black_box(value);
            }
            other => panic!("binary query failed: {other:?}"),
        }
    }
    let qps = requests.len() as f64 / start.elapsed().as_secs_f64();
    handle.stop();
    qps
}

/// The fixed 1000-range batch request the binary-batch rows share.
fn batch_request() -> Request {
    let shape = dpod_fmatrix::Shape::new(vec![SIDE, SIDE]).expect("shape");
    let mut rng = dpod_dp::seeded_rng(9);
    let ranges: Vec<(Vec<usize>, Vec<usize>)> = QueryWorkload::Random
        .draw_many(&shape, BATCH, &mut rng)
        .into_iter()
        .map(|q| (q.lo().to_vec(), q.hi().to_vec()))
        .collect();
    Request::Batch {
        release: "gauss-ebp".into(),
        ranges,
    }
}

/// 1000-range `DPRB` batch frames on one connection: the protocol's
/// intended high-volume shape. `packed` negotiates the varint-packed
/// payload encoding (preamble feature bit `0x80`).
fn measure_tcp_binary_batch_qps(server: Arc<Server>, rounds: usize, packed: bool) -> f64 {
    let handle = spawn_legacy_pool(server);
    let mut client =
        dpod_serve::wire::Client::connect_with(handle.addr(), packed).expect("connect");
    let req = batch_request();
    let start = Instant::now();
    for _ in 0..rounds {
        match client.request(&req).expect("batch") {
            Response::Values { values } => {
                black_box(values.len());
            }
            other => panic!("binary batch failed: {other:?}"),
        }
    }
    let qps = (BATCH * rounds) as f64 / start.elapsed().as_secs_f64();
    handle.stop();
    qps
}

/// Wire bytes for one 1000-range batch round trip (request frame plus
/// response frame), legacy vs varint-packed payload encoding — the
/// serialization-tax comparison the packed feature bit exists for.
fn measure_batch_wire_bytes(server: &Server) -> (usize, usize) {
    use dpod_serve::wire;
    let req = batch_request();
    let resp = server.handle(&req);
    let frame = |body: &[u8]| {
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, body).expect("frame");
        framed.len()
    };
    let legacy = frame(&wire::encode_request(&req)) + frame(&wire::encode_response(&resp));
    let packed =
        frame(&wire::encode_request_packed(&req)) + frame(&wire::encode_response_packed(&resp));
    (legacy, packed)
}

/// Plans/sec for one fixed typed plan over the chosen encoding, fully
/// pipelined on one connection: a sender thread streams the `n`
/// pre-encoded requests while the main thread drains and decodes every
/// response, so neither socket buffer can fill against a blocked peer
/// however large `n` is. Aggregate plans return multi-kilobyte answers,
/// so this measures the full serialize/transport cost, not just compute.
fn measure_tcp_plan_qps(
    server: Arc<Server>,
    release: &str,
    plan: QueryPlan,
    n: usize,
    binary: bool,
) -> f64 {
    let handle = spawn_legacy_pool(server);
    let req = Request::Plan {
        release: release.to_string(),
        plan,
    };
    let check = |resp: Response| match resp {
        Response::Answer { answer } => {
            black_box(answer.units());
        }
        other => panic!("plan failed: {other:?}"),
    };
    let stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut request_bytes = Vec::new();
    if binary {
        request_bytes.extend_from_slice(dpod_serve::wire::WIRE_MAGIC);
        request_bytes.push(dpod_serve::wire::WIRE_VERSION);
    }
    let one_request = if binary {
        let mut frame = Vec::new();
        dpod_serve::wire::write_frame(&mut frame, &dpod_serve::wire::encode_request(&req))
            .expect("encode");
        frame
    } else {
        let mut line = serde_json::to_string(&req).expect("encode").into_bytes();
        line.push(b'\n');
        line
    };

    let start = Instant::now();
    let sender = std::thread::spawn(move || {
        let mut writer = BufWriter::new(stream);
        writer.write_all(&request_bytes).expect("preamble");
        for _ in 0..n {
            writer.write_all(&one_request).expect("send");
        }
        writer.flush().expect("flush");
    });
    if binary {
        for _ in 0..n {
            let body = dpod_serve::wire::read_frame(&mut reader)
                .expect("frame")
                .expect("open stream");
            check(dpod_serve::wire::decode_response(&body).expect("decode"));
        }
    } else {
        let mut answer = String::new();
        for _ in 0..n {
            answer.clear();
            reader.read_line(&mut answer).expect("read");
            check(serde_json::from_str(answer.trim()).expect("decode"));
        }
    }
    let qps = n as f64 / start.elapsed().as_secs_f64();
    sender.join().expect("sender");
    handle.stop();
    qps
}

/// Aggregate plans/sec from the `dpod replay --connections N` load
/// generator (one readiness-driven client thread multiplexing all `N`
/// request/response connections) against the chosen front end on a
/// fixed 8-worker pool — the acceptance workload for the event-loop
/// serving core. `event_loops` pins the shard count so the trajectory
/// rows stay comparable across host core counts.
fn measure_replay_plansps(
    server: Arc<Server>,
    front_end: FrontEnd,
    connections: usize,
    event_loops: usize,
) -> f64 {
    let handle = dpod_serve::spawn_with(
        server,
        "127.0.0.1:0",
        SpawnOptions {
            workers: 8,
            front_end: Some(front_end),
            event_loops,
            ..SpawnOptions::default()
        },
    )
    .expect("bind");
    let plans = if smoke() { 2_000 } else { 64_000 };
    let mut stream = String::with_capacity(plans * 32);
    for i in 0..plans {
        stream.push_str(
            match i % 4 {
                0 => "\"Total\"\n".into(),
                1 => "{\"TopK\":{\"k\":5}}\n".into(),
                2 => "{\"Marginal\":{\"keep\":[0]}}\n".into(),
                _ => format!(
                    "{{\"Range\":{{\"lo\":[0,0],\"hi\":[{},{SIDE}]}}}}\n",
                    1 + i % SIDE
                ),
            }
            .as_str(),
        );
    }
    let path = std::env::temp_dir().join(format!(
        "dpod_bench_replay_{}_{:?}_{}.ndjson",
        std::process::id(),
        front_end,
        connections
    ));
    std::fs::write(&path, stream).expect("write plans");
    let summary = dpod_cli::commands::replay(&dpod_cli::commands::ReplayArgs {
        file: path.clone(),
        release: "gauss-ebp".into(),
        connect: Some(handle.addr().to_string()),
        binary: true,
        cold: false,
        answers: None,
        connections,
        slo_report: None,
    })
    .expect("replay");
    std::fs::remove_file(&path).ok();
    handle.stop();
    // First line ends "…: NNN plans/s aggregate"; take the rate.
    summary
        .lines()
        .next()
        .and_then(|line| line.rsplit(": ").next())
        .and_then(|tail| tail.split_whitespace().next())
        .and_then(|rate| rate.parse().ok())
        .expect("replay summary carries plans/s")
}

/// Aggregate queries/sec from `conns` concurrent request/response
/// clients (each its own `DPRB` connection sending one query and
/// waiting for the answer — the live-dashboard shape, no pipelining)
/// against the chosen front end on a fixed 8-worker pool. This is the
/// workload where connections ≫ workers separates the serving cores:
/// the pool serializes into worker-sized waves, the event loop keeps
/// every connection's request in flight.
fn measure_concurrent_qps(
    server: Arc<Server>,
    front_end: FrontEnd,
    conns: usize,
    per_conn: usize,
) -> f64 {
    let handle = dpod_serve::spawn_with(
        server,
        "127.0.0.1:0",
        SpawnOptions {
            workers: 8,
            front_end: Some(front_end),
            // One loop shard, pinned: these are the single-loop
            // trajectory rows, comparable across host core counts.
            event_loops: 1,
            ..SpawnOptions::default()
        },
    )
    .expect("bind");
    let addr = handle.addr();
    let start = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(conns);
        for t in 0..conns {
            joins.push(scope.spawn(move || {
                let mut client = dpod_serve::wire::Client::connect(addr).expect("connect");
                let names = ["gauss-ebp", "gauss-eug", "gauss-identity"];
                let mut answered = 0u64;
                for i in 0..per_conn {
                    let req = Request::Query {
                        release: names[(t + i) % names.len()].to_string(),
                        lo: vec![0, 0],
                        hi: vec![1 + ((t + i) % SIDE), SIDE],
                    };
                    match client.request(&req).expect("query") {
                        Response::Value { value } => {
                            black_box(value);
                            answered += 1;
                        }
                        other => panic!("concurrent query failed: {other:?}"),
                    }
                }
                answered
            }));
        }
        joins.into_iter().map(|j| j.join().expect("client")).sum()
    });
    let qps = total as f64 / start.elapsed().as_secs_f64();
    handle.stop();
    qps
}

/// Window plans/sec under a publish storm: the continual-publication
/// acceptance row. Four epochs of a `ts` series go live, then a curator
/// thread republishes the frontier epoch in a tight loop while the main
/// thread drives `Window{LastK:3, Sum, Marginal}` plans request/response
/// over `DPRB`. Each republish invalidates exactly one memoized
/// per-epoch partial, so the steady state mixes warm partials (the two
/// older epochs) with recomputes of the churning frontier.
fn measure_window_publish_storm_qps(server: Arc<Server>, n: usize) -> f64 {
    use std::sync::atomic::{AtomicBool, Ordering};

    let cfg = HarnessConfig::at_scale(Scale::Quick);
    let ds = datasets::gaussian(&cfg, 2, 0.2);
    let eps = Epsilon::new(0.5).expect("valid epsilon");
    let fresh = |seed: u64| {
        let out = Ebp::default()
            .sanitize(&ds.matrix, eps, &mut dpod_dp::seeded_rng(seed))
            .expect("sanitize");
        PublishedRelease::from_sanitized(&out)
    };
    for t in 1..=4u64 {
        server
            .publish_epoch("ts", t, fresh(200 + t))
            .expect("epoch");
    }
    let handle = spawn_legacy_pool(Arc::clone(&server));
    let req = Request::Plan {
        release: "ts".into(),
        plan: QueryPlan::Window {
            select: dpod_query::EpochSelector::LastK { k: 3 },
            merge: dpod_query::WindowMerge::Sum,
            plan: Box::new(QueryPlan::Marginal { keep: vec![0] }),
        },
    };
    let stop = AtomicBool::new(false);
    let (qps, republished) = std::thread::scope(|scope| {
        let curator = scope.spawn(|| {
            let mut republished = 0u64;
            while !stop.load(Ordering::Relaxed) {
                server
                    .publish_epoch("ts", 4, fresh(300 + republished))
                    .expect("republish");
                republished += 1;
            }
            republished
        });
        let mut client = dpod_serve::wire::Client::connect(handle.addr()).expect("connect");
        let start = Instant::now();
        for _ in 0..n {
            match client.request(&req).expect("window plan") {
                Response::Answer { answer } => {
                    black_box(answer.units());
                }
                other => panic!("window plan failed: {other:?}"),
            }
        }
        let qps = n as f64 / start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        (qps, curator.join().expect("curator"))
    });
    handle.stop();
    // Leave the bench catalog as the other rows found it.
    for t in 1..=4u64 {
        server.remove_release(&format!("ts@{t}"));
    }
    println!(
        "serve_throughput window publish storm: {qps:.0} plans/s \
         while {republished} republishes landed"
    );
    qps
}

/// Plans/sec for one fixed typed plan through the in-process
/// `Server::handle` path (no serialization) — the ceiling the TCP rows
/// are chasing.
fn measure_handle_plan_qps(server: &Server, plan: QueryPlan, n: usize) -> f64 {
    let req = Request::Plan {
        release: "gauss-ebp".into(),
        plan,
    };
    let start = Instant::now();
    for _ in 0..n {
        match server.handle(&req) {
            Response::Answer { answer } => {
                black_box(answer.units());
            }
            other => panic!("plan failed: {other:?}"),
        }
    }
    n as f64 / start.elapsed().as_secs_f64()
}

fn bench_serve_throughput(c: &mut Criterion) {
    let server = build_server();
    let requests = query_requests(1_024);
    // Warm the rebuild cache so the bench measures the steady state.
    for req in requests.iter().take(3) {
        server.handle(req);
    }

    let mut group = c.benchmark_group("serve_throughput");
    group.throughput(Throughput::Elements(1));
    let mut i = 0usize;
    group.bench_function("handle/single", |b| {
        b.iter(|| {
            i = (i + 1) % requests.len();
            black_box(server.handle(&requests[i]))
        });
    });
    group.finish();

    // Trajectory measurements (fixed work, direct wall-clock). Smoke
    // mode shrinks everything: the point is then "the paths still
    // answer correctly end to end", not the numbers.
    let (rounds, tcp_n, bin_n, bin_rounds, indexed_n, handle_n) = if smoke() {
        (1, 1_000, 2_000, 3, 200, 500)
    } else {
        (10, 10_000, 50_000, 200, 50_000, 200_000)
    };
    let single_qps = measure_qps(&server, &requests, rounds);
    let batch_qps = measure_batch_qps(&server, rounds);
    let tcp_qps = measure_tcp_qps(Arc::clone(&server), tcp_n);
    let tcp_bin_qps = measure_tcp_binary_qps(Arc::clone(&server), bin_n);
    let tcp_bin_batch_qps = measure_tcp_binary_batch_qps(Arc::clone(&server), bin_rounds, false);
    let tcp_bin_batch_packed_qps =
        measure_tcp_binary_batch_qps(Arc::clone(&server), bin_rounds, true);
    let (batch_bytes_unpacked, batch_bytes_packed) = measure_batch_wire_bytes(&server);
    let marginal = QueryPlan::Marginal { keep: vec![0] };
    let topk = QueryPlan::TopK { k: 10 };

    // Indexed rows: the prepare/execute path. One warming request per
    // plan shape builds the release's memoized structures; the
    // measurement is then the steady state an analyst dashboard sees.
    let _ = measure_handle_plan_qps(&server, marginal.clone(), 1);
    let _ = measure_handle_plan_qps(&server, topk.clone(), 1);
    let marginal_json_ix_qps = measure_tcp_plan_qps(
        Arc::clone(&server),
        "gauss-ebp",
        marginal.clone(),
        indexed_n,
        false,
    );
    let marginal_bin_ix_qps = measure_tcp_plan_qps(
        Arc::clone(&server),
        "gauss-ebp",
        marginal.clone(),
        indexed_n,
        true,
    );
    let topk_json_ix_qps = measure_tcp_plan_qps(
        Arc::clone(&server),
        "gauss-ebp",
        topk.clone(),
        indexed_n,
        false,
    );
    let topk_bin_ix_qps = measure_tcp_plan_qps(
        Arc::clone(&server),
        "gauss-ebp",
        topk.clone(),
        indexed_n,
        true,
    );
    let marginal_handle_ix_qps = measure_handle_plan_qps(&server, marginal, handle_n);
    let topk_handle_ix_qps = measure_handle_plan_qps(&server, topk, handle_n);

    // Pyramid rows: a 1024×1024 release (built straight from entries —
    // the pyramid is pure post-processing, so no sanitizer pass is
    // needed to exercise it) answering the whole-grid marginal
    // (`keep: [0, 1]`, the heatmap-render shape) two ways. The
    // leaf-indexed rows replay the `*_indexed` labels at side 1024 and
    // must ship all 1024² cells per answer; the `*_pyramid` rows route
    // `DrillDown { level: 4 }` to a memoized 64×64 coarse level —
    // 256× fewer cells scanned and shipped, for zero extra privacy
    // budget, bit-identical to coarsening the leaf answer.
    const BIG_SIDE: usize = 1_024;
    const BIG_LEVEL: u32 = 4;
    let big = "synthetic-1024";
    {
        let shape = dpod_fmatrix::Shape::new(vec![BIG_SIDE, BIG_SIDE]).expect("shape");
        let values: Vec<f64> = (0..shape.size())
            .map(|i| (i.wrapping_mul(2_654_435_761) % 1_000) as f64 / 7.0)
            .collect();
        let matrix = dpod_fmatrix::DenseMatrix::from_vec(shape, values).expect("matrix");
        let sanitized = dpod_core::SanitizedMatrix::from_entries("synthetic", 0.5, matrix);
        server
            .catalog()
            .publish(big, PublishedRelease::from_sanitized(&sanitized));
    }
    let big_marginal = QueryPlan::Marginal { keep: vec![0, 1] };
    let drill_marginal = QueryPlan::DrillDown {
        level: BIG_LEVEL,
        plan: Box::new(big_marginal.clone()),
    };
    // Whole-grid coarse range: every leaf cell, summed at level 4.
    let coarse_dim = ((BIG_SIDE - 1) >> BIG_LEVEL) + 1;
    let drill_range = QueryPlan::DrillDown {
        level: BIG_LEVEL,
        plan: Box::new(QueryPlan::Range {
            lo: vec![0, 0],
            hi: vec![coarse_dim, coarse_dim],
        }),
    };
    // One warming request per plan shape, as for the 256² indexed rows.
    for plan in [
        big_marginal.clone(),
        drill_marginal.clone(),
        drill_range.clone(),
    ] {
        match server.handle(&Request::Plan {
            release: big.into(),
            plan,
        }) {
            Response::Answer { .. } => {}
            other => panic!("pyramid warmup failed: {other:?}"),
        }
    }
    // The leaf answers are megabytes each, so the leaf rows get a
    // smaller fixed workload than the coarse rows.
    let (big_leaf_n, big_pyr_n) = if smoke() { (20, 200) } else { (1_000, 20_000) };
    let big_marginal_json_ix_qps = measure_tcp_plan_qps(
        Arc::clone(&server),
        big,
        big_marginal.clone(),
        big_leaf_n,
        false,
    );
    let big_marginal_bin_ix_qps =
        measure_tcp_plan_qps(Arc::clone(&server), big, big_marginal, big_leaf_n, true);
    let pyr_marginal_json_qps = measure_tcp_plan_qps(
        Arc::clone(&server),
        big,
        drill_marginal.clone(),
        big_pyr_n,
        false,
    );
    let pyr_marginal_bin_qps =
        measure_tcp_plan_qps(Arc::clone(&server), big, drill_marginal, big_pyr_n, true);
    let pyr_range_bin_qps =
        measure_tcp_plan_qps(Arc::clone(&server), big, drill_range, big_pyr_n, true);
    server.remove_release(big);

    // Concurrent-connection rows, fixed 8-worker pool: the event loop
    // at 1 / 64 / 512 connections, and the pool fallback at 64 (where its
    // thread-per-connection model serializes into waves of 8).
    let (ev_n1, ev_n64, ev_n512, pool_n64) = if smoke() {
        (200, 6, 2, 6)
    } else {
        (20_000, 300, 40, 300)
    };
    let ev_c1_qps = measure_concurrent_qps(Arc::clone(&server), FrontEnd::Event, 1, ev_n1);
    let ev_c64_qps = measure_concurrent_qps(Arc::clone(&server), FrontEnd::Event, 64, ev_n64);
    let ev_c512_qps = measure_concurrent_qps(Arc::clone(&server), FrontEnd::Event, 512, ev_n512);
    let pool_c64_qps = measure_concurrent_qps(Arc::clone(&server), FrontEnd::Pool, 64, pool_n64);

    // The acceptance comparison: the replay load generator (plans, not
    // bare ranges) at 64 connections against both serving cores, plus
    // the sharded headline — 1024 connections over four SO_REUSEPORT
    // loop shards, the fan-in a single loop thread serialized on.
    let replay_ev_c64 = measure_replay_plansps(Arc::clone(&server), FrontEnd::Event, 64, 1);
    let replay_pool_c64 = measure_replay_plansps(Arc::clone(&server), FrontEnd::Pool, 64, 1);
    let replay_ev_c1024_s4 = measure_replay_plansps(Arc::clone(&server), FrontEnd::Event, 1024, 4);

    // Continual publication: sliding-window plans against a series whose
    // frontier epoch is being republished concurrently.
    let storm_n = if smoke() { 200 } else { 10_000 };
    let window_storm_qps = measure_window_publish_storm_qps(Arc::clone(&server), storm_n);

    println!(
        "serve_throughput: single {:.0} q/s, batch {:.0} q/s, tcp-json {:.0} q/s, \
         tcp-binary {:.0} q/s, tcp-binary-batch {:.0} q/s (packed {:.0} q/s)",
        single_qps, batch_qps, tcp_qps, tcp_bin_qps, tcp_bin_batch_qps, tcp_bin_batch_packed_qps
    );
    println!(
        "serve_throughput batch wire bytes (req+resp frames, {BATCH} ranges): \
         unpacked {batch_bytes_unpacked} B, packed {batch_bytes_packed} B \
         ({:.2}x smaller)",
        batch_bytes_unpacked as f64 / batch_bytes_packed as f64
    );
    println!(
        "serve_throughput plans (indexed): marginal json {:.0}/s binary {:.0}/s \
         in-process {:.0}/s, topk json {:.0}/s binary {:.0}/s in-process {:.0}/s",
        marginal_json_ix_qps,
        marginal_bin_ix_qps,
        marginal_handle_ix_qps,
        topk_json_ix_qps,
        topk_bin_ix_qps,
        topk_handle_ix_qps
    );
    println!(
        "serve_throughput pyramid (1024², drill level {BIG_LEVEL}): marginal json {:.0}/s \
         binary {:.0}/s, coarse range binary {:.0}/s; leaf-indexed marginal json {:.0}/s \
         binary {:.0}/s ({:.1}x binary speedup)",
        pyr_marginal_json_qps,
        pyr_marginal_bin_qps,
        pyr_range_bin_qps,
        big_marginal_json_ix_qps,
        big_marginal_bin_ix_qps,
        pyr_marginal_bin_qps / big_marginal_bin_ix_qps
    );
    println!(
        "serve_throughput concurrent (8 workers, request/response): eventloop c1 {:.0} q/s, \
         c64 {:.0} q/s, c512 {:.0} q/s; pool c64 {:.0} q/s",
        ev_c1_qps, ev_c64_qps, ev_c512_qps, pool_c64_qps
    );
    println!(
        "serve_throughput replay --connections 64 (8 workers): eventloop {:.0} plans/s, \
         pool {:.0} plans/s; --connections 1024 on 4 loop shards: {:.0} plans/s",
        replay_ev_c64, replay_pool_c64, replay_ev_c1024_s4
    );
    if smoke() {
        println!("smoke mode: skipping BENCH_serve.json update");
        return;
    }

    let triples = vec![
        ("handle_single".to_string(), SIDE as f64, single_qps),
        ("handle_batch1000".to_string(), SIDE as f64, batch_qps),
        ("tcp_pipelined".to_string(), SIDE as f64, tcp_qps),
        ("tcp_binary_pipelined".to_string(), SIDE as f64, tcp_bin_qps),
        (
            "tcp_binary_batch1000".to_string(),
            SIDE as f64,
            tcp_bin_batch_qps,
        ),
        (
            "tcp_binary_batch1000_packed".to_string(),
            SIDE as f64,
            tcp_bin_batch_packed_qps,
        ),
        // Wire bytes per 1000-range batch round trip (request +
        // response frames) — lower is better, unlike the rate rows.
        (
            "wire_bytes_batch1000_unpacked".to_string(),
            SIDE as f64,
            batch_bytes_unpacked as f64,
        ),
        (
            "wire_bytes_batch1000_packed".to_string(),
            SIDE as f64,
            batch_bytes_packed as f64,
        ),
        (
            "tcp_plan_marginal_json_indexed".to_string(),
            SIDE as f64,
            marginal_json_ix_qps,
        ),
        (
            "tcp_plan_marginal_binary_indexed".to_string(),
            SIDE as f64,
            marginal_bin_ix_qps,
        ),
        (
            "tcp_plan_topk_json_indexed".to_string(),
            SIDE as f64,
            topk_json_ix_qps,
        ),
        (
            "tcp_plan_topk_binary_indexed".to_string(),
            SIDE as f64,
            topk_bin_ix_qps,
        ),
        (
            "handle_plan_marginal_indexed".to_string(),
            SIDE as f64,
            marginal_handle_ix_qps,
        ),
        (
            "handle_plan_topk_indexed".to_string(),
            SIDE as f64,
            topk_handle_ix_qps,
        ),
        // Pyramid rows at side 1024: the leaf-indexed marginal extends
        // its existing series with a 1024² point, the `*_pyramid` rows
        // are the drill-down path over the same release.
        (
            "tcp_plan_marginal_json_indexed".to_string(),
            BIG_SIDE as f64,
            big_marginal_json_ix_qps,
        ),
        (
            "tcp_plan_marginal_binary_indexed".to_string(),
            BIG_SIDE as f64,
            big_marginal_bin_ix_qps,
        ),
        (
            "tcp_plan_marginal_json_pyramid".to_string(),
            BIG_SIDE as f64,
            pyr_marginal_json_qps,
        ),
        (
            "tcp_plan_marginal_binary_pyramid".to_string(),
            BIG_SIDE as f64,
            pyr_marginal_bin_qps,
        ),
        (
            "tcp_plan_range_binary_pyramid".to_string(),
            BIG_SIDE as f64,
            pyr_range_bin_qps,
        ),
        (
            "tcp_binary_eventloop_c1".to_string(),
            SIDE as f64,
            ev_c1_qps,
        ),
        (
            "tcp_binary_eventloop_c64".to_string(),
            SIDE as f64,
            ev_c64_qps,
        ),
        (
            "tcp_binary_eventloop_c512".to_string(),
            SIDE as f64,
            ev_c512_qps,
        ),
        ("tcp_binary_pool_c64".to_string(), SIDE as f64, pool_c64_qps),
        (
            "replay_plans_c64_eventloop".to_string(),
            SIDE as f64,
            replay_ev_c64,
        ),
        (
            "replay_plans_c64_pool".to_string(),
            SIDE as f64,
            replay_pool_c64,
        ),
        (
            "replay_plans_c1024_eventloop_shards4".to_string(),
            SIDE as f64,
            replay_ev_c1024_s4,
        ),
        (
            "window_lastk3_publish_storm".to_string(),
            SIDE as f64,
            window_storm_qps,
        ),
    ];
    let experiment = Experiment {
        id: "BENCH_serve".into(),
        description: format!(
            "Serving throughput: random range queries/sec over a warm \
             catalog of 3 {SIDE}x{SIDE} releases"
        ),
        panels: vec![Panel::from_triples(
            "queries per second (warm cache)",
            "release side",
            "queries/sec",
            &triples,
        )],
    };
    let out_dir = std::env::var("DPOD_BENCH_OUT").unwrap_or_else(|_| ".".into());
    match experiment.save_json(std::path::Path::new(&out_dir)) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("!! could not write BENCH_serve.json: {e}"),
    }
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
