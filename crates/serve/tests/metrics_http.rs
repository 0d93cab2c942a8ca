//! End-to-end observability tests: traffic through a live front end
//! shows up in the `/metrics` exposition and in `Stats` snapshots, and
//! the surfaces agree sample for sample.

use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
use dpod_dp::Epsilon;
use dpod_fmatrix::{DenseMatrix, Shape};
use dpod_serve::protocol::{Request, Response};
use dpod_serve::{
    spawn_metrics_exporter, spawn_with, wire, Catalog, FrontEnd, Server, SpawnOptions,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn test_server() -> Arc<Server> {
    let catalog = Arc::new(Catalog::new());
    let shape = Shape::new(vec![8, 8]).unwrap();
    let mut m = DenseMatrix::<u64>::zeros(shape);
    m.add_at(&[2, 2], 500).unwrap();
    let out = Ebp::default()
        .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(7))
        .unwrap();
    catalog.publish("city", PublishedRelease::from_sanitized(&out));
    Arc::new(Server::new(catalog, 1 << 22))
}

/// One plain-HTTP scrape of the exporter.
fn scrape(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "bad status: {head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "bad content type: {head}"
    );
    body.to_string()
}

fn drive_traffic(addr: std::net::SocketAddr) {
    // A few NDJSON requests…
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for _ in 0..3 {
        let mut line = serde_json::to_string(&Request::Query {
            release: "city".into(),
            lo: vec![0, 0],
            hi: vec![4, 4],
        })
        .unwrap();
        line.push('\n');
        (&stream).write_all(line.as_bytes()).unwrap();
        let mut answer = String::new();
        reader.read_line(&mut answer).unwrap();
        assert!(matches!(
            serde_json::from_str::<Response>(answer.trim()).unwrap(),
            Response::Value { .. }
        ));
    }
    drop(reader);
    // …and a few DPRB frames.
    let mut client = wire::Client::connect(addr).unwrap();
    for _ in 0..3 {
        client
            .send(&Request::Batch {
                release: "city".into(),
                ranges: vec![(vec![0, 0], vec![4, 4]), (vec![0, 0], vec![8, 8])],
            })
            .unwrap();
        assert!(matches!(client.receive().unwrap(), Response::Values { .. }));
    }
}

fn assert_key_series(body: &str, front_end: FrontEnd) {
    // Per-stage latency histograms, with samples recorded.
    assert!(
        body.contains(
            "dpod_request_stage_nanoseconds_count{transport=\"binary\",stage=\"execute\"}"
        ),
        "missing binary execute-stage series"
    );
    assert!(
        body.contains("dpod_request_stage_nanoseconds_count{transport=\"json\",stage=\"execute\"}"),
        "missing json execute-stage series"
    );
    assert!(body.contains("quantile=\"0.99\""), "missing p99 quantiles");
    // Request mix.
    assert!(body.contains("dpod_requests_total{transport=\"json\",kind=\"query\"} 3"));
    assert!(body.contains("dpod_requests_total{transport=\"binary\",kind=\"batch\"} 3"));
    // Event-loop health gauges exist either way (shard 0's series are
    // pre-registered); on the event front end the shards must actually
    // have woken. Since the loop was sharded the series carry a
    // `shard` label — sum across them.
    assert!(body.contains("dpod_eventloop_epoll_wakes_total{shard=\"0\"}"));
    if front_end == FrontEnd::Event {
        let wakes: u64 = body
            .lines()
            .filter_map(|l| l.strip_prefix("dpod_eventloop_epoll_wakes_total{shard=\""))
            .filter_map(|rest| {
                rest.split_once("\"} ")
                    .and_then(|(_, v)| v.parse::<u64>().ok())
            })
            .sum();
        assert!(wakes > 0, "event-loop shards should have woken");
    }
    assert!(body.contains("dpod_eventloop_pending_bytes{shard=\"0\"}"));
    // ε-budget accounting.
    assert!(body.contains("dpod_release_epsilon{release=\"city\"} 0.5"));
    assert!(body.contains("dpod_epsilon_spent_total 0.5"));
    assert!(body.contains("dpod_epsilon_ledger_entries 1"));
    // Engine + catalog scrape-time gauges.
    assert!(body.contains("dpod_catalog_releases 1"));
    assert!(body.contains("dpod_release_hits_total{release=\"city\"}"));
    // Front-end info gauge.
    let label = match front_end {
        FrontEnd::Event => "event",
        FrontEnd::Pool => "pool",
    };
    assert!(
        body.contains(&format!(
            "dpod_serve_front_end_info{{front_end=\"{label}\"}} 1"
        )),
        "missing front-end info gauge for {label}"
    );
}

fn exposition_covers_served_traffic(front_end: FrontEnd) {
    let server = test_server();
    let handle = spawn_with(
        Arc::clone(&server),
        "127.0.0.1:0",
        SpawnOptions {
            workers: 2,
            front_end: Some(front_end),
            ..SpawnOptions::default()
        },
    )
    .unwrap();
    assert_eq!(handle.front_end(), front_end);
    let exporter = spawn_metrics_exporter(Arc::clone(&server), "127.0.0.1:0").unwrap();

    drive_traffic(handle.addr());
    let body = scrape(exporter.addr());
    assert_key_series(&body, front_end);

    // The stats snapshot reports the same stage histograms.
    let mut client = wire::Client::connect(handle.addr()).unwrap();
    client.send(&Request::Stats).unwrap();
    let Response::Stats { stats } = client.receive().unwrap() else {
        panic!("expected stats");
    };
    for transport in ["json", "binary"] {
        let execute = &[("transport", transport), ("stage", "execute")];
        let count = stats.get("dpod_request_stage_nanoseconds_count", execute);
        assert!(
            count.unwrap_or(0.0) >= 3.0,
            "stats snapshot missing {transport} execute-stage quantiles: {stats:?}"
        );
        for stage in ["parse", "queue", "execute", "write"] {
            let q = |q: &str| {
                let labels = [("transport", transport), ("stage", stage), ("quantile", q)];
                stats
                    .get("dpod_request_stage_nanoseconds", &labels)
                    .unwrap()
            };
            assert!(q("0.5") <= q("0.9"));
            assert!(q("0.9") <= q("0.99"));
            assert!(q("0.99") <= q("0.999"));
        }
    }

    exporter.stop();
    handle.stop();
}

#[test]
fn metrics_exposition_event_front_end() {
    exposition_covers_served_traffic(FrontEnd::Event);
}

#[test]
fn metrics_exposition_pool_front_end() {
    exposition_covers_served_traffic(FrontEnd::Pool);
}

/// The epoch catalog's whole lifecycle is visible on `/metrics`: live
/// epoch counts, the per-epoch ε series, per-series active ε (shrunk by
/// retention refunds), publish/retire counters, and the window-partial
/// cache counters.
#[test]
fn epoch_gauges_cover_the_series_lifecycle() {
    use dpod_query::{EpochSelector, QueryPlan, WindowMerge};

    let fresh = |seed: u64| {
        let shape = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(shape);
        m.add_at(&[2, 2], 500).unwrap();
        let out = Ebp::default()
            .sanitize(
                &m,
                Epsilon::new(0.5).unwrap(),
                &mut dpod_dp::seeded_rng(seed),
            )
            .unwrap();
        PublishedRelease::from_sanitized(&out)
    };
    // The pre-epoch "city" release plays epoch 0 of its series.
    let server = test_server();
    server.publish_epoch("city", 1, fresh(11)).unwrap();
    server.publish_epoch("city", 2, fresh(12)).unwrap();
    assert_eq!(server.apply_retention("city", 2).unwrap(), vec![0]);

    // A window query warms the per-epoch partial cache.
    let answer = server.handle(&Request::Plan {
        release: "city".into(),
        plan: QueryPlan::Window {
            select: EpochSelector::LastK { k: 2 },
            merge: WindowMerge::Sum,
            plan: Box::new(QueryPlan::Total),
        },
    });
    assert!(matches!(answer, Response::Answer { .. }), "{answer:?}");

    let exporter = spawn_metrics_exporter(Arc::clone(&server), "127.0.0.1:0").unwrap();
    let body = scrape(exporter.addr());
    assert!(
        body.contains("dpod_epoch_count{series=\"city\"} 2"),
        "{body}"
    );
    assert!(body.contains("dpod_epoch_epsilon{series=\"city\",epoch=\"1\"} 0.5"));
    assert!(body.contains("dpod_epoch_epsilon{series=\"city\",epoch=\"2\"} 0.5"));
    assert!(
        !body.contains("epoch=\"0\""),
        "retired epoch 0 must drop out of the exposition"
    );
    assert!(body.contains("dpod_series_epsilon_active{series=\"city\"} 1"));
    assert!(body.contains("dpod_epochs_published_total 2"));
    assert!(body.contains("dpod_epochs_retired_total 1"));
    assert!(body.contains("dpod_engine_memo_entries{memo=\"partial\"} 2"));
    assert!(body.contains("dpod_engine_memo_misses_total{memo=\"partial\"} 2"));
    exporter.stop();
}

/// The pyramid memo's whole surface is visible on `/metrics`: the four
/// aggregate series and the per-level hit-counter rows, agreeing with
/// the stats snapshot.
#[test]
fn pyramid_gauges_cover_drill_down_traffic() {
    use dpod_query::QueryPlan;

    let server = test_server();
    let drill = Request::Plan {
        release: "city".into(),
        plan: QueryPlan::DrillDown {
            level: 2,
            plan: Box::new(QueryPlan::Marginal { keep: vec![0, 1] }),
        },
    };
    // First execution builds level 2 (miss); the repeat answers warm
    // from the memoized level (hit). A second level adds an entry.
    for _ in 0..2 {
        let answer = server.handle(&drill);
        assert!(matches!(answer, Response::Answer { .. }), "{answer:?}");
    }
    let total = Request::Plan {
        release: "city".into(),
        plan: QueryPlan::DrillDown {
            level: 1,
            plan: Box::new(QueryPlan::Total),
        },
    };
    assert!(matches!(server.handle(&total), Response::Answer { .. }));

    let exporter = spawn_metrics_exporter(Arc::clone(&server), "127.0.0.1:0").unwrap();
    let body = scrape(exporter.addr());
    assert!(
        body.contains("dpod_engine_memo_entries{memo=\"pyramid\"} 2"),
        "{body}"
    );
    assert!(
        body.contains("dpod_engine_memo_hits_total{memo=\"pyramid\"} 1"),
        "{body}"
    );
    assert!(
        body.contains("dpod_engine_memo_misses_total{memo=\"pyramid\"} 2"),
        "{body}"
    );
    assert!(
        body.contains("dpod_engine_pyramid_level_hits_total{level=\"2\"} 1"),
        "{body}"
    );
    let bytes: usize = body
        .lines()
        .find_map(|l| l.strip_prefix("dpod_engine_memo_bytes{memo=\"pyramid\"} "))
        .and_then(|v| v.parse().ok())
        .expect("pyramid bytes gauge present");
    assert!(bytes > 0);

    // The stats snapshot reports the same counters.
    let Response::Stats { stats } = server.handle(&Request::Stats) else {
        panic!("expected stats");
    };
    let pyramid = |name: &str| stats.get(name, &[("memo", "pyramid")]).unwrap() as usize;
    assert_eq!(pyramid("dpod_engine_memo_entries"), 2);
    assert_eq!(
        (
            pyramid("dpod_engine_memo_hits_total"),
            pyramid("dpod_engine_memo_misses_total")
        ),
        (1, 2)
    );
    assert_eq!(pyramid("dpod_engine_memo_bytes"), bytes);
    exporter.stop();
}

/// Exposition lines keyed by `name{labels}`, values as rendered.
fn exposition_samples(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (key, value) = l.rsplit_once(' ').expect("sample line");
            (key.to_string(), value.to_string())
        })
        .collect()
}

/// The three surfaces render one snapshot: after mixed traffic (window
/// and drill-down plans, a legacy batch, an LRU eviction), every sample
/// of a `Stats` answer fetched over NDJSON and over `DPRB` equals the
/// same sample of a `/metrics` scrape. Only the series the `Stats`
/// requests themselves move are excluded.
#[test]
fn stats_and_metrics_render_one_snapshot() {
    use dpod_query::{EpochSelector, QueryPlan, WindowMerge};

    let release = |seed: u64| {
        let mut m = DenseMatrix::<u64>::zeros(Shape::new(vec![8, 8]).unwrap());
        m.add_at(&[2, 2], 500).unwrap();
        let out = Ebp::default()
            .sanitize(
                &m,
                Epsilon::new(0.5).unwrap(),
                &mut dpod_dp::seeded_rng(seed),
            )
            .unwrap();
        PublishedRelease::from_sanitized(&out)
    };
    let catalog = Arc::new(Catalog::new());
    catalog.publish("city", release(1));
    // A budget near one rebuild: a window over three epochs evicts.
    let server = Arc::new(Server::new(catalog, 4096));
    server.publish_epoch("city", 1, release(2)).unwrap();
    server.publish_epoch("city", 2, release(3)).unwrap();
    let handle = spawn_with(
        Arc::clone(&server),
        "127.0.0.1:0",
        SpawnOptions {
            workers: 3,
            front_end: Some(FrontEnd::Pool),
            ..SpawnOptions::default()
        },
    )
    .unwrap();
    let exporter = spawn_metrics_exporter(Arc::clone(&server), "127.0.0.1:0").unwrap();

    let plan = |plan: QueryPlan| Request::Plan {
        release: "city".into(),
        plan,
    };
    let traffic = [
        plan(QueryPlan::Window {
            select: EpochSelector::LastK { k: 3 },
            merge: WindowMerge::Sum,
            plan: Box::new(QueryPlan::Total),
        }),
        plan(QueryPlan::DrillDown {
            level: 1,
            plan: Box::new(QueryPlan::Total),
        }),
        plan(QueryPlan::TopK { k: 2 }),
        Request::Batch {
            release: "city".into(),
            ranges: vec![(vec![0, 0], vec![4, 4]), (vec![0, 0], vec![8, 8])],
        },
    ];
    let json = TcpStream::connect(handle.addr()).unwrap();
    let mut json_reader = BufReader::new(json.try_clone().unwrap());
    let mut json_request = |req: &Request| {
        let mut line = serde_json::to_string(req).unwrap();
        line.push('\n');
        (&json).write_all(line.as_bytes()).unwrap();
        let mut answer = String::new();
        json_reader.read_line(&mut answer).unwrap();
        serde_json::from_str::<Response>(answer.trim()).unwrap()
    };
    let mut binary = wire::Client::connect(handle.addr()).unwrap();
    for req in &traffic {
        for resp in [json_request(req), binary.request(req).unwrap()] {
            assert!(
                !matches!(resp, Response::Error { .. }),
                "{req:?} failed: {resp:?}"
            );
        }
    }
    let Response::Stats { stats: via_json } = json_request(&Request::Stats) else {
        panic!("expected stats over NDJSON");
    };
    let Response::Stats { stats: via_wire } = binary.request(&Request::Stats).unwrap() else {
        panic!("expected stats over DPRB");
    };
    let scraped = exposition_samples(&scrape(exporter.addr()));

    // The traffic did what it was meant to: its own request kinds, and
    // an eviction (three epochs touched, fewer resident).
    for kind in ["plan_window", "plan_drill_down", "plan_top_k", "batch"] {
        for transport in ["json", "binary"] {
            let key = format!("dpod_requests_total{{transport=\"{transport}\",kind=\"{kind}\"}}");
            assert_eq!(scraped.get(&key).map(String::as_str), Some("1"), "{key}");
        }
    }
    assert_eq!(
        scraped.get("dpod_requests_total{transport=\"json\",kind=\"plan_many\"}"),
        Some(&"0".to_string()),
        "window and drill-down plans must not count as plan_many"
    );
    let resident = &scraped["dpod_engine_memo_entries{memo=\"matrix\"}"];
    assert!(
        resident.parse::<u64>().unwrap() < 3,
        "no eviction: {resident}"
    );

    let moved_by_stats = |key: &str| {
        key.starts_with("dpod_request_stage_nanoseconds")
            || (key.starts_with("dpod_requests_total{") && key.contains("kind=\"stats\""))
    };
    let compared = |m: &BTreeMap<String, String>| -> BTreeMap<String, String> {
        m.iter()
            .filter(|(k, _)| !moved_by_stats(k))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    };
    let scraped = compared(&scraped);
    assert!(scraped.len() > 50, "suspiciously few samples: {scraped:?}");
    for (surface, snap) in [("NDJSON", &via_json), ("DPRB", &via_wire)] {
        let rendered = compared(&exposition_samples(&snap.render_prometheus()));
        for (key, value) in &scraped {
            assert_eq!(
                rendered.get(key),
                Some(value),
                "{surface} Stats vs /metrics: {key}"
            );
        }
        assert_eq!(rendered.len(), scraped.len(), "{surface} has extra samples");
    }
    exporter.stop();
    handle.stop();
}

/// A second scrape on a fresh connection must work (the exporter serves
/// one request per connection, `Connection: close`).
#[test]
fn exporter_serves_repeated_scrapes() {
    let server = test_server();
    let exporter = spawn_metrics_exporter(Arc::clone(&server), "127.0.0.1:0").unwrap();
    let a = scrape(exporter.addr());
    let b = scrape(exporter.addr());
    assert!(a.contains("dpod_catalog_releases 1"));
    assert!(b.contains("dpod_catalog_releases 1"));
    exporter.stop();
}

/// Reads as much of the HTTP response as the peer delivers and returns
/// its status line. Tolerates a mid-stream reset: a handler that
/// answers and closes while our unread request bytes are still in
/// flight makes the kernel RST the tail, after the status line already
/// arrived.
fn status_of(mut stream: TcpStream) -> String {
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
        }
    }
    String::from_utf8_lossy(&raw)
        .lines()
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Regression: the exporter used to block forever on a peer that
/// connects and sends nothing (or trickles bytes) — one slow-loris
/// connection wedged `/metrics` for every scraper. Now each connection
/// gets its own handler under a hard read deadline, so a healthy scrape
/// succeeds *while* the loris holds its connection open, and the loris
/// itself is answered 400 once the deadline lapses.
#[test]
fn slow_loris_does_not_wedge_the_exporter() {
    let server = test_server();
    let exporter = spawn_metrics_exporter(Arc::clone(&server), "127.0.0.1:0").unwrap();

    // Open and stall: no bytes at all, and a second that trickles an
    // incomplete header and stops.
    let silent = TcpStream::connect(exporter.addr()).unwrap();
    let mut trickler = TcpStream::connect(exporter.addr()).unwrap();
    trickler.write_all(b"GET /metr").unwrap();

    // A healthy scrape right behind them must not wait on either.
    let start = std::time::Instant::now();
    let body = scrape(exporter.addr());
    assert!(body.contains("dpod_catalog_releases 1"));
    assert!(
        start.elapsed() < std::time::Duration::from_secs(2),
        "scrape stalled behind a slow-loris connection: {:?}",
        start.elapsed()
    );

    // The stalled connections are answered 400 (not held forever).
    assert!(status_of(silent).contains("400"), "silent peer gets 400");
    assert!(status_of(trickler.try_clone().unwrap()).contains("400"));
    exporter.stop();
}

/// Non-`GET /metrics` requests get proper error statuses instead of the
/// exposition body (or a hang): unknown path → 404, non-GET → 400,
/// oversized request → 400.
#[test]
fn exporter_rejects_non_scrape_requests() {
    let server = test_server();
    let exporter = spawn_metrics_exporter(Arc::clone(&server), "127.0.0.1:0").unwrap();

    let mut wrong_path = TcpStream::connect(exporter.addr()).unwrap();
    wrong_path
        .write_all(b"GET /debug/pprof HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    assert!(status_of(wrong_path).contains("404 Not Found"));

    let mut post = TcpStream::connect(exporter.addr()).unwrap();
    post.write_all(b"POST /metrics HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    assert!(status_of(post).contains("400 Bad Request"));

    // An unbounded "request" is cut off at the byte cap, not buffered
    // forever.
    let mut oversized = TcpStream::connect(exporter.addr()).unwrap();
    let filler = vec![b'a'; 64 * 1024];
    let _ = oversized.write_all(b"GET /metrics HTTP/1.1\r\n");
    let _ = oversized.write_all(&filler); // no terminator, way past the cap
    assert!(status_of(oversized).contains("400 Bad Request"));

    // A query string still counts as /metrics.
    let mut with_query = TcpStream::connect(exporter.addr()).unwrap();
    with_query
        .write_all(b"GET /metrics?debug=1 HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    assert!(status_of(with_query).contains("200 OK"));
    exporter.stop();
}
