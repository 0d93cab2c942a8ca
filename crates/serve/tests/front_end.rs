//! Event-loop front-end tests: the behaviors that motivated the
//! readiness-driven serving core.
//!
//! * slow-loris clients (bytes trickling in one at a time) are served
//!   correctly on both encodings — partial reads assemble, they never
//!   pin a thread;
//! * a pipelining client that stops draining responses trips write-side
//!   backpressure and is *timed out*, while its shard keeps serving
//!   other connections — no deadlock;
//! * many idle connections (far more than serving threads) are all
//!   served: open sockets are state, not threads;
//! * 512 concurrent connections on one loop shard answer
//!   bit-identically to the thread-pool front end (the acceptance pin),
//!   and 1024 connections over four `SO_REUSEPORT` loop shards do too;
//! * graceful drain answers everything already received, flushes, and
//!   closes — on both front ends, and across all shards within one
//!   global deadline;
//! * four shards answering concurrent round trips strand none of them,
//!   and each shard's idle sweep reaps its own connections.

// Tests spawn the event core with a `workers` count: it sizes only the
// pool fallback, since the event core's loop shards answer requests
// themselves.

use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
use dpod_dp::Epsilon;
use dpod_fmatrix::{DenseMatrix, Shape};
use dpod_query::{Answer, QueryPlan};
use dpod_serve::protocol::{Request, Response, Snapshot};
use dpod_serve::{
    spawn_with, wire, Catalog, Client, FrontEnd, ResponseEncoding, Server, ServerHandle,
    SpawnOptions, WRITE_BACKPRESSURE_BYTES,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read side must answer well within this (the suite's "promptly").
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

fn test_server(names: &[&str]) -> Arc<Server> {
    let catalog = Arc::new(Catalog::new());
    for (i, name) in names.iter().enumerate() {
        let shape = Shape::new(vec![16, 16]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(shape);
        m.add_at(&[i % 16, (i * 3) % 16], 700).unwrap();
        let out = Ebp::default()
            .sanitize(
                &m,
                Epsilon::new(0.5).unwrap(),
                &mut dpod_dp::seeded_rng(400 + i as u64),
            )
            .unwrap();
        catalog.publish(name, PublishedRelease::from_sanitized(&out));
    }
    Arc::new(Server::new(catalog, 64 << 20))
}

fn spawn_front_end(server: &Arc<Server>, front_end: FrontEnd, workers: usize) -> ServerHandle {
    let handle = spawn_with(
        Arc::clone(server),
        "127.0.0.1:0",
        SpawnOptions {
            workers,
            front_end: Some(front_end),
            ..SpawnOptions::default()
        },
    )
    .expect("bind");
    assert_eq!(handle.front_end(), front_end, "no fallback expected here");
    handle
}

/// Event front end with an explicit shard count (this suite runs on
/// machines where the core-count default may resolve to one loop).
fn spawn_sharded(server: &Arc<Server>, event_loops: usize, workers: usize) -> ServerHandle {
    let handle = spawn_with(
        Arc::clone(server),
        "127.0.0.1:0",
        SpawnOptions {
            workers,
            front_end: Some(FrontEnd::Event),
            event_loops,
            ..SpawnOptions::default()
        },
    )
    .expect("bind");
    assert_eq!(handle.front_end(), FrontEnd::Event);
    assert_eq!(handle.event_loops(), event_loops, "one listener per shard");
    handle
}

/// One unlabelled sample of the server's snapshot.
fn series(server: &Server, name: &str) -> u64 {
    server.snapshot().get(name, &[]).expect(name) as u64
}

/// `(open, accepted)` connection counts from a stats snapshot.
fn connection_series(stats: &Snapshot) -> (u64, u64) {
    let get = |name: &str| stats.get(name, &[]).expect("connection series") as u64;
    (
        get("dpod_server_open_connections"),
        get("dpod_server_accepted_connections_total"),
    )
}

fn json_round_trip(stream: &TcpStream, reader: &mut impl BufRead, req: &Request) -> Response {
    let mut writer = stream;
    let mut line = serde_json::to_string(req).unwrap();
    line.push('\n');
    writer.write_all(line.as_bytes()).unwrap();
    let mut answer = String::new();
    reader.read_line(&mut answer).unwrap();
    serde_json::from_str(answer.trim()).unwrap()
}

#[test]
fn slow_loris_ndjson_client_is_served() {
    let server = test_server(&["city"]);
    let handle = spawn_front_end(&server, FrontEnd::Event, 2);
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let req = Request::Plan {
        release: "city".into(),
        plan: QueryPlan::Range {
            lo: vec![0, 0],
            hi: vec![16, 16],
        },
    };
    let mut line = serde_json::to_string(&req).unwrap();
    line.push('\n');
    // One byte per write, flushed, with pauses: the assembler must see
    // dozens of partial reads and still produce exactly one request.
    let mut writer = stream.try_clone().unwrap();
    for b in line.as_bytes() {
        writer.write_all(&[*b]).unwrap();
        writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut answer = String::new();
    reader.read_line(&mut answer).unwrap();
    let Response::Answer {
        answer: Answer::Value { value },
    } = serde_json::from_str(answer.trim()).unwrap()
    else {
        panic!("expected value, got {answer}");
    };
    // The connection is still healthy: a normal request follows.
    let resp = json_round_trip(&stream, &mut reader, &req);
    let Response::Answer {
        answer: Answer::Value { value: again },
    } = resp
    else {
        panic!("second request failed");
    };
    assert_eq!(value, again);
    handle.stop();
}

#[test]
fn slow_loris_dprb_client_is_served() {
    let server = test_server(&["city"]);
    let handle = spawn_front_end(&server, FrontEnd::Event, 2);
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Preamble, length prefix, and frame body — every byte its own
    // packet.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(wire::WIRE_MAGIC);
    bytes.push(wire::WIRE_VERSION);
    let body = wire::encode_request(&Request::Plan {
        release: "city".into(),
        plan: QueryPlan::Range {
            lo: vec![2, 2],
            hi: vec![10, 10],
        },
    });
    bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&body);
    for b in &bytes {
        writer.write_all(&[*b]).unwrap();
        writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let frame = wire::read_frame(&mut reader).unwrap().unwrap();
    let Response::Answer {
        answer: Answer::Value { value },
    } = wire::decode_response(&frame).unwrap()
    else {
        panic!("expected value");
    };
    assert!(value.is_finite());
    // A pipelined pair afterwards still answers in order.
    let mut two = Vec::new();
    wire::write_frame(&mut two, &body).unwrap();
    wire::write_frame(&mut two, &wire::encode_request(&Request::List)).unwrap();
    writer.write_all(&two).unwrap();
    let first = wire::read_frame(&mut reader).unwrap().unwrap();
    assert!(matches!(
        wire::decode_response(&first),
        Ok(Response::Answer {
            answer: Answer::Value { .. }
        })
    ));
    let second = wire::read_frame(&mut reader).unwrap().unwrap();
    assert!(matches!(
        wire::decode_response(&second),
        Ok(Response::Releases { .. })
    ));
    handle.stop();
}

/// Request kinds the protocol no longer has — the `Query` and `Batch`
/// JSON documents and the `0x01` range frame — are refused like any
/// other undecodable request, on both front ends: exactly one `Error`
/// each, counted as `kind="undecodable"`, and the same connection goes
/// on answering plans.
#[test]
fn removed_request_kinds_are_refused_and_the_connection_survives() {
    let plan = Request::Plan {
        release: "city".into(),
        plan: QueryPlan::Total,
    };
    let answered = |resp: &Response| matches!(resp, Response::Answer { .. });
    for front_end in [FrontEnd::Pool, FrontEnd::Event] {
        let server = test_server(&["city"]);
        let handle = spawn_front_end(&server, front_end, 2);
        let undecodable = |transport: &str| {
            let labels = [("transport", transport), ("kind", "undecodable")];
            server
                .snapshot()
                .get("dpod_requests_total", &labels)
                .unwrap()
        };

        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let removed = [
            r#"{"Query":{"release":"city","lo":[0,0],"hi":[4,4]}}"#,
            r#"{"Batch":{"release":"city","ranges":[[[0,0],[4,4]]]}}"#,
        ];
        for (refused, line) in removed.into_iter().enumerate() {
            (&stream).write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut answer = String::new();
            reader.read_line(&mut answer).unwrap();
            let resp: Response = serde_json::from_str(answer.trim()).unwrap();
            assert!(
                matches!(resp, Response::Error { .. }),
                "{front_end:?}: {line} got {resp:?}"
            );
            assert_eq!(undecodable("json"), refused as f64 + 1.0, "{front_end:?}");
            let resp = json_round_trip(&stream, &mut reader, &plan);
            assert!(answered(&resp), "{front_end:?}: {resp:?}");
        }

        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(wire::WIRE_MAGIC).unwrap();
        writer.write_all(&[wire::WIRE_VERSION]).unwrap();
        let mut range_frame = wire::WIRE_MAGIC.to_vec();
        range_frame.extend_from_slice(&[wire::WIRE_VERSION, 0x01]);
        range_frame.extend_from_slice(&4u64.to_le_bytes());
        range_frame.extend_from_slice(b"city");
        wire::write_frame(&mut writer, &range_frame).unwrap();
        let mut reader = BufReader::new(stream);
        let body = wire::read_frame(&mut reader).unwrap().unwrap();
        match wire::decode_response(&body).unwrap() {
            Response::Error { message } => assert!(message.contains("0x01"), "{message}"),
            other => panic!("{front_end:?}: 0x01 got {other:?}"),
        }
        assert_eq!(undecodable("binary"), 1.0, "{front_end:?}");
        wire::write_frame(&mut writer, &wire::encode_request(&plan)).unwrap();
        let body = wire::read_frame(&mut reader).unwrap().unwrap();
        let resp = wire::decode_response(&body).unwrap();
        assert!(answered(&resp), "{front_end:?}: {resp:?}");
        handle.stop();
    }
}

#[test]
fn stalled_pipeliner_times_out_without_deadlocking_the_worker() {
    let server = test_server(&["city"]);
    // A short idle timeout: if write backpressure ever parked the
    // serving shard, the second client below could not be served.
    let handle = spawn_with(
        Arc::clone(&server),
        "127.0.0.1:0",
        SpawnOptions {
            workers: 1,
            front_end: Some(FrontEnd::Event),
            idle_timeout: Duration::from_millis(400),
            ..SpawnOptions::default()
        },
    )
    .unwrap();

    // Client A: pipelines small plans whose responses exceed the
    // backpressure threshold, then never reads a byte.
    let stalled = TcpStream::connect(handle.addr()).unwrap();
    stalled.set_nodelay(true).unwrap();
    let mut w = stalled.try_clone().unwrap();
    w.write_all(wire::WIRE_MAGIC).unwrap();
    w.write_all(&[wire::WIRE_VERSION]).unwrap();
    // Each top-256 ranking is every cell of the 16×16 release.
    let big = Request::Plan {
        release: "city".into(),
        plan: QueryPlan::Many {
            plans: vec![QueryPlan::TopK { k: 256 }; 600],
        },
    };
    // 3 × ~2.4 MB of responses ≫ the 4 MiB outbound cap plus socket
    // buffers: the loop must pause reads and, with no write progress,
    // time the connection out.
    let answer_bytes = wire::encode_response(&server.handle(&big)).len();
    assert!(3 * answer_bytes > WRITE_BACKPRESSURE_BYTES);
    let mut frames = Vec::new();
    for _ in 0..3 {
        wire::write_frame(&mut frames, &wire::encode_request(&big)).unwrap();
    }
    w.write_all(&frames).unwrap();
    w.flush().unwrap();

    // Client B must be answered promptly while A is stalled.
    std::thread::sleep(Duration::from_millis(100));
    let t0 = Instant::now();
    let mut client = Client::connect(handle.addr(), ResponseEncoding::Binary).unwrap();
    let resp = client
        .request(&Request::Plan {
            release: "city".into(),
            plan: QueryPlan::Range {
                lo: vec![0, 0],
                hi: vec![16, 16],
            },
        })
        .expect("worker must not be deadlocked by the stalled client");
    assert!(matches!(
        resp,
        Response::Answer {
            answer: Answer::Value { .. }
        }
    ));
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "query took {:?}",
        t0.elapsed()
    );

    // And A is eventually dropped by the idle/stall timeout: reading its
    // socket ends in EOF or a reset, never a hang.
    stalled.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
    let mut sink = vec![0u8; 1 << 20];
    let mut reader = stalled;
    let deadline = Instant::now() + REPLY_TIMEOUT;
    loop {
        match reader.read(&mut sink) {
            Ok(0) => break,  // clean close after the flushable part
            Ok(_) => {}      // draining whatever was buffered
            Err(_) => break, // reset also proves the drop
        }
        assert!(
            Instant::now() < deadline,
            "stalled connection never dropped"
        );
    }
    handle.stop();
}

#[test]
fn many_idle_connections_are_all_served_by_two_workers() {
    let server = test_server(&["city"]);
    let handle = spawn_front_end(&server, FrontEnd::Event, 2);

    // 40 connections ≫ serving threads, all held open and idle before
    // any of them speaks. Under the pool front end this layout would wedge
    // (worker-per-connection); here sockets are just state.
    let mut conns: Vec<(TcpStream, BufReader<TcpStream>)> = (0..40)
        .map(|_| {
            let s = TcpStream::connect(handle.addr()).unwrap();
            s.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
            let r = BufReader::new(s.try_clone().unwrap());
            (s, r)
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50)); // let all accepts land

    let req = Request::Plan {
        release: "city".into(),
        plan: QueryPlan::Range {
            lo: vec![0, 0],
            hi: vec![16, 16],
        },
    };
    let mut values = Vec::new();
    for (stream, reader) in conns.iter_mut() {
        let Response::Answer {
            answer: Answer::Value { value },
        } = json_round_trip(stream, reader, &req)
        else {
            panic!("idle connection not served");
        };
        values.push(value);
    }
    assert_eq!(values.len(), 40);
    assert!(values.windows(2).all(|w| w[0] == w[1]), "answers diverged");

    // The gauges see every open socket, idle or not.
    let Response::Stats { stats } = server.handle(&Request::Stats) else {
        panic!("stats");
    };
    let (open, accepted) = connection_series(&stats);
    assert!(open >= 40, "{open}");
    assert!(accepted >= 40, "{accepted}");

    // Dropping the clients drains the gauge.
    drop(conns);
    let deadline = Instant::now() + REPLY_TIMEOUT;
    while series(&server, "dpod_server_open_connections") > 0 {
        assert!(Instant::now() < deadline, "open-connection gauge stuck");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.stop();
}

/// The acceptance pin, parameterized over the shard count: `conns`
/// concurrent connections on `event_loops` shards, answered
/// bit-identically to the thread-pool front end, across both encodings.
fn bit_identical_to_pool_mode(conns: usize, event_loops: usize) {
    let server = test_server(&["city", "transit"]);
    let event = spawn_sharded(&server, event_loops, 8);

    // Reference bytes from the legacy front end (one pipelined
    // connection per encoding is enough — the pool cannot hold 512).
    let pool_server = test_server(&["city", "transit"]);
    let pool = spawn_front_end(&pool_server, FrontEnd::Pool, 8);
    let request_for = |i: usize| Request::Plan {
        release: if i.is_multiple_of(2) {
            "city"
        } else {
            "transit"
        }
        .into(),
        plan: QueryPlan::Range {
            lo: vec![0, 0],
            hi: vec![1 + (i % 16), 1 + ((i * 7) % 16)],
        },
    };
    let mut expected_json: Vec<String> = Vec::new();
    {
        let stream = TcpStream::connect(pool.addr()).unwrap();
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..conns {
            let mut line = serde_json::to_string(&request_for(i)).unwrap();
            line.push('\n');
            (&stream).write_all(line.as_bytes()).unwrap();
            let mut answer = String::new();
            reader.read_line(&mut answer).unwrap();
            expected_json.push(answer);
        }
    }
    let mut expected_frames: Vec<Vec<u8>> = Vec::new();
    {
        let mut client = Client::connect(pool.addr(), ResponseEncoding::Binary).unwrap();
        for i in 0..conns {
            client.send(&request_for(i)).unwrap();
        }
        for _ in 0..conns {
            let resp = client.receive().unwrap();
            expected_frames.push(wire::encode_response(&resp));
        }
    }
    pool.stop();

    // Open all sockets first — every one of them concurrently open
    // and idle — then speak on each: JSON on even connections, DPRB on
    // odd ones. Waves keep the accept backlog comfortable.
    let mut socks: Vec<TcpStream> = Vec::with_capacity(conns);
    for _wave in 0..(conns / 64) {
        for _ in 0..64 {
            let s = TcpStream::connect(event.addr()).unwrap();
            s.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
            s.set_nodelay(true).unwrap();
            socks.push(s);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    for (i, stream) in socks.iter().enumerate() {
        let mut w = stream;
        if i % 2 == 0 {
            let mut line = serde_json::to_string(&request_for(i)).unwrap();
            line.push('\n');
            w.write_all(line.as_bytes()).unwrap();
        } else {
            w.write_all(wire::WIRE_MAGIC).unwrap();
            w.write_all(&[wire::WIRE_VERSION]).unwrap();
            wire::write_frame(&mut w, &wire::encode_request(&request_for(i))).unwrap();
        }
    }
    for (i, stream) in socks.iter().enumerate() {
        if i % 2 == 0 {
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut answer = String::new();
            reader.read_line(&mut answer).unwrap();
            assert_eq!(answer, expected_json[i], "connection {i} diverged");
        } else {
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let frame = wire::read_frame(&mut reader).unwrap().unwrap();
            let resp = wire::decode_response(&frame).unwrap();
            assert_eq!(
                wire::encode_response(&resp),
                expected_frames[i],
                "connection {i} diverged"
            );
        }
    }
    assert!(series(&server, "dpod_server_accepted_connections_total") >= conns as u64);
    drop(socks);
    event.stop();
}

/// The original acceptance pin: 512 connections on a single loop shard.
#[test]
fn event_loop_serves_512_connections_bit_identically_to_pool_mode() {
    bit_identical_to_pool_mode(512, 1);
}

/// The sharded acceptance pin: 1024 connections spread over four
/// `SO_REUSEPORT` shards, still bit-identical to pool mode on both
/// encodings — sharding must not change a single answered byte.
#[test]
fn four_shards_serve_1024_connections_bit_identically_to_pool_mode() {
    bit_identical_to_pool_mode(1024, 4);
}

#[test]
fn deep_pipeline_past_the_pending_cap_is_fully_served() {
    // Regression: a client that pipelines far more requests than one
    // turn reads must be served across many turns, its reads resuming
    // whenever backpressure lifts — an early version left the read
    // pause armed and the connection starved until the idle sweep
    // reset it.
    let server = test_server(&["city"]);
    let handle = spawn_front_end(&server, FrontEnd::Event, 2);
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    const N: usize = 10_000;
    let mut pipelined = String::with_capacity(N * 64);
    for i in 0..N {
        let req = Request::Plan {
            release: "city".into(),
            plan: QueryPlan::Range {
                lo: vec![0, 0],
                hi: vec![1 + (i % 16), 16],
            },
        };
        pipelined.push_str(&serde_json::to_string(&req).unwrap());
        pipelined.push('\n');
    }
    let writer_stream = stream.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        (&writer_stream).write_all(pipelined.as_bytes()).unwrap();
    });
    let mut line = String::new();
    for i in 0..N {
        line.clear();
        let n = reader.read_line(&mut line).unwrap();
        assert!(n > 0, "connection closed after {i} of {N} responses");
        let resp: Response = serde_json::from_str(line.trim()).unwrap();
        assert!(
            matches!(
                resp,
                Response::Answer {
                    answer: Answer::Value { .. }
                }
            ),
            "{resp:?}"
        );
    }
    writer.join().unwrap();
    assert_eq!(series(&server, "dpod_server_queries_total"), N as u64);
    handle.stop();
}

#[test]
fn graceful_drain_answers_everything_already_received() {
    let server = test_server(&["city"]);
    let handle = spawn_front_end(&server, FrontEnd::Event, 2);
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Pipeline 50 requests, reading nothing yet.
    let mut pipelined = String::new();
    for i in 0..50usize {
        let req = Request::Plan {
            release: "city".into(),
            plan: QueryPlan::Range {
                lo: vec![0, 0],
                hi: vec![1 + (i % 16), 16],
            },
        };
        pipelined.push_str(&serde_json::to_string(&req).unwrap());
        pipelined.push('\n');
    }
    (&stream).write_all(pipelined.as_bytes()).unwrap();

    // Wait until the server has answered them all…
    let deadline = Instant::now() + REPLY_TIMEOUT;
    while series(&server, "dpod_server_queries_total") < 50 {
        assert!(Instant::now() < deadline, "requests not processed");
        std::thread::sleep(Duration::from_millis(5));
    }
    // …then drain. Every response must be flushed, then EOF — none lost.
    handle.drain(Duration::from_secs(5));
    let mut answers = 0;
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).unwrap();
        if n == 0 {
            break;
        }
        let resp: Response = serde_json::from_str(line.trim()).unwrap();
        assert!(
            matches!(
                resp,
                Response::Answer {
                    answer: Answer::Value { .. }
                }
            ),
            "{resp:?}"
        );
        answers += 1;
    }
    assert_eq!(answers, 50, "drain lost in-flight responses");
}

/// The pool stops the way the event core does: `drain` and `stop` (the
/// configured drain deadline) both shut an idle-open connection
/// promptly instead of waiting out the 30 s idle timeout.
#[test]
fn pool_front_end_drains_gracefully_too() {
    for via_stop in [false, true] {
        let server = test_server(&["city"]);
        let handle = spawn_front_end(&server, FrontEnd::Pool, 1);
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let resp = json_round_trip(
            &stream,
            &mut reader,
            &Request::Plan {
                release: "city".into(),
                plan: QueryPlan::Range {
                    lo: vec![0, 0],
                    hi: vec![4, 4],
                },
            },
        );
        assert!(matches!(
            resp,
            Response::Answer {
                answer: Answer::Value { .. }
            }
        ));

        let t0 = Instant::now();
        if via_stop {
            handle.stop();
        } else {
            handle.drain(Duration::from_secs(3));
        }
        // The worker observed EOF and closed: the client reads EOF back.
        let mut line = String::new();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "{line}");
        assert!(
            t0.elapsed() < REPLY_TIMEOUT / 2,
            "shutdown (stop: {via_stop}) took {:?}",
            t0.elapsed()
        );
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while series(&server, "dpod_server_open_connections") > 0 {
            assert!(Instant::now() < deadline, "gauge not drained");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

#[test]
fn connection_gauges_cross_the_wire() {
    let server = test_server(&["city"]);
    let handle = spawn_front_end(&server, FrontEnd::Event, 2);
    // Two idle connections plus the stats client itself.
    let idle_a = TcpStream::connect(handle.addr()).unwrap();
    let idle_b = TcpStream::connect(handle.addr()).unwrap();
    let mut client = Client::connect(handle.addr(), ResponseEncoding::Binary).unwrap();
    let deadline = Instant::now() + REPLY_TIMEOUT;
    loop {
        let Response::Stats { stats } = client.request(&Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        let (open, accepted) = connection_series(&stats);
        if open == 3 && accepted == 3 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gauges never converged: {open} open / {accepted} accepted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(idle_a);
    drop(idle_b);
    // Closes are observed and the accepted count is monotone.
    let deadline = Instant::now() + REPLY_TIMEOUT;
    loop {
        let Response::Stats { stats } = client.request(&Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        let (open, accepted) = connection_series(&stats);
        if open == 1 {
            assert_eq!(accepted, 3);
            break;
        }
        assert!(Instant::now() < deadline, "closed connections not observed");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.stop();
}

/// Cross-shard isolation: slow-loris connections trickling partial
/// requests on every shard must not delay healthy clients — each shard
/// parks the stalled sockets as state and keeps answering.
#[test]
fn loris_connections_do_not_stall_healthy_clients_across_shards() {
    let server = test_server(&["city"]);
    let handle = spawn_sharded(&server, 4, 2);

    // Eight stalled connections — enough that (kernel REUSEPORT
    // hashing) every shard almost surely holds at least one — each with
    // a partial JSON request that never completes.
    let lorises: Vec<TcpStream> = (0..8)
        .map(|_| {
            let mut s = TcpStream::connect(handle.addr()).unwrap();
            s.write_all(b"{\"Query\":{\"release\":\"ci").unwrap();
            s
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));

    // Sixteen healthy round trips must all answer promptly.
    let req = Request::Plan {
        release: "city".into(),
        plan: QueryPlan::Range {
            lo: vec![0, 0],
            hi: vec![16, 16],
        },
    };
    let t0 = Instant::now();
    for _ in 0..16 {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let resp = json_round_trip(&stream, &mut reader, &req);
        assert!(
            matches!(
                resp,
                Response::Answer {
                    answer: Answer::Value { .. }
                }
            ),
            "{resp:?}"
        );
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "healthy clients stalled behind lorises: {:?}",
        t0.elapsed()
    );
    drop(lorises);
    handle.stop();
}

/// Multi-shard graceful drain: responses already computed on *every*
/// shard are flushed before close, and the shards converge on one
/// global drain deadline — `drain` returns in about one deadline, not
/// `shards × deadline` (the loops anchor a shared instant and the
/// sequential joins each find their shard already done).
#[test]
fn multi_shard_drain_flushes_every_shard_within_one_deadline() {
    const CONNS: usize = 12;
    const PER_CONN: usize = 20;
    let server = test_server(&["city"]);
    let handle = spawn_sharded(&server, 4, 2);

    let mut conns: Vec<(TcpStream, BufReader<TcpStream>)> = Vec::new();
    for _ in 0..CONNS {
        let s = TcpStream::connect(handle.addr()).unwrap();
        s.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
        let r = BufReader::new(s.try_clone().unwrap());
        conns.push((s, r));
    }
    for (i, (stream, _)) in conns.iter().enumerate() {
        let mut pipelined = String::new();
        for j in 0..PER_CONN {
            let req = Request::Plan {
                release: "city".into(),
                plan: QueryPlan::Range {
                    lo: vec![0, 0],
                    hi: vec![1 + ((i + j) % 16), 16],
                },
            };
            pipelined.push_str(&serde_json::to_string(&req).unwrap());
            pipelined.push('\n');
        }
        (&*stream).write_all(pipelined.as_bytes()).unwrap();
    }

    // Wait until every shard has answered its share…
    let deadline = Instant::now() + REPLY_TIMEOUT;
    while series(&server, "dpod_server_queries_total") < (CONNS * PER_CONN) as u64 {
        assert!(Instant::now() < deadline, "requests not processed");
        std::thread::sleep(Duration::from_millis(5));
    }
    // …then drain with a 3 s window. Four shards × 3 s would be 12 s;
    // the global deadline keeps the whole barrier to ~one window.
    let t0 = Instant::now();
    handle.drain(Duration::from_secs(3));
    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "drain did not converge on one global deadline: {:?}",
        t0.elapsed()
    );
    // No response was lost on any shard: every connection reads all of
    // its answers, then EOF.
    for (i, (_, reader)) in conns.iter_mut().enumerate() {
        let mut answers = 0;
        let mut line = String::new();
        loop {
            line.clear();
            let n = reader.read_line(&mut line).unwrap();
            if n == 0 {
                break;
            }
            let resp: Response = serde_json::from_str(line.trim()).unwrap();
            assert!(
                matches!(
                    resp,
                    Response::Answer {
                        answer: Answer::Value { .. }
                    }
                ),
                "{resp:?}"
            );
            answers += 1;
        }
        assert_eq!(answers, PER_CONN, "connection {i} lost drained responses");
    }
}

/// Four shards under concurrent lock-step round trips: every client
/// waits for each answer before sending its next request, so a shard
/// that missed a readiness event or wedged would strand a round trip
/// and trip the read timeout.
#[test]
fn single_worker_across_four_shards_loses_no_wakeups() {
    let server = test_server(&["city"]);
    let handle = spawn_sharded(&server, 4, 1);
    let addr = handle.addr();

    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                stream.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                for j in 0..50usize {
                    let req = Request::Plan {
                        release: "city".into(),
                        plan: QueryPlan::Range {
                            lo: vec![0, 0],
                            hi: vec![1 + ((t + j) % 16), 16],
                        },
                    };
                    let mut line = serde_json::to_string(&req).unwrap();
                    line.push('\n');
                    (&stream).write_all(line.as_bytes()).unwrap();
                    let mut answer = String::new();
                    reader.read_line(&mut answer).unwrap();
                    let resp: Response = serde_json::from_str(answer.trim()).unwrap();
                    assert!(
                        matches!(
                            resp,
                            Response::Answer {
                                answer: Answer::Value { .. }
                            }
                        ),
                        "{resp:?}"
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("round trip stranded: lost wakeup");
    }
    assert_eq!(series(&server, "dpod_server_queries_total"), 400);
    handle.stop();
}

/// The idle sweep is shard-local: every shard times out its own idle
/// connections — none are missed because "their" shard never looked.
#[test]
fn idle_sweep_reaps_connections_on_every_shard() {
    let server = test_server(&["city"]);
    let handle = spawn_with(
        Arc::clone(&server),
        "127.0.0.1:0",
        SpawnOptions {
            workers: 2,
            front_end: Some(FrontEnd::Event),
            event_loops: 4,
            idle_timeout: Duration::from_millis(300),
            ..SpawnOptions::default()
        },
    )
    .unwrap();

    // Twelve idle connections spread over the shards; all must be
    // swept, each by whichever shard owns it.
    let conns: Vec<TcpStream> = (0..12)
        .map(|_| {
            let s = TcpStream::connect(handle.addr()).unwrap();
            s.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
            s
        })
        .collect();
    for mut s in conns {
        let mut sink = [0u8; 64];
        loop {
            match s.read(&mut sink) {
                Ok(0) | Err(_) => break, // EOF or reset: swept
                Ok(_) => {}
            }
        }
    }
    let deadline = Instant::now() + REPLY_TIMEOUT;
    while series(&server, "dpod_server_open_connections") > 0 {
        assert!(Instant::now() < deadline, "idle sweep missed a shard");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.stop();
}
