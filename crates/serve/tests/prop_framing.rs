//! Differential framing test: the two TCP front ends must turn any byte
//! stream into the same response bytes and the same close behaviour.
//!
//! Each case builds one client stream from a mix of pieces — NDJSON
//! request lines, legacy and packed `DPRB` frames after their preamble,
//! blank lines, garbage lines and garbage frame bodies — and ends it
//! one of several ways: a clean EOF, an unterminated final line, a line
//! past [`MAX_LINE_BYTES`], an oversized length prefix, or a frame cut
//! short by EOF. Preambles may also carry a bad version, stop short, or
//! meet an endpoint restricted to the other encoding. The stream is
//! written at arbitrary split points, with a pause between chunks so the
//! server sees them as separate reads, to a pool and to an event front
//! end sharing one [`Server`]. Both must answer with identical bytes and
//! both must close exactly when the stream says they should: on their
//! own after a fatal violation, otherwise only after the client's EOF.

use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
use dpod_dp::Epsilon;
use dpod_fmatrix::{DenseMatrix, Shape};
use dpod_query::QueryPlan;
use dpod_serve::protocol::{Request, Response};
use dpod_serve::{
    spawn_with, wire, Catalog, FrontEnd, Server, ServerHandle, SpawnOptions, WireMode,
    MAX_LINE_BYTES,
};
use proptest::prelude::*;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// How long a server may take to close a connection it must close.
const CLOSE_TIMEOUT: Duration = Duration::from_secs(20);

/// The three endpoint modes, each served by one pool and one event
/// front end over the same [`Server`].
const MODES: [WireMode; 3] = [WireMode::Auto, WireMode::Json, WireMode::Binary];

struct Endpoints {
    /// `(pool, event)` addresses per entry of [`MODES`].
    addrs: Vec<(SocketAddr, SocketAddr)>,
    _handles: Vec<ServerHandle>,
}

fn endpoints() -> &'static Endpoints {
    static ENDPOINTS: OnceLock<Endpoints> = OnceLock::new();
    ENDPOINTS.get_or_init(|| {
        let catalog = Catalog::new();
        let mut m = DenseMatrix::<u64>::zeros(Shape::new(vec![8, 8]).unwrap());
        m.add_at(&[2, 5], 300).unwrap();
        m.add_at(&[6, 1], 120).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(12))
            .unwrap();
        catalog.publish("city", PublishedRelease::from_sanitized(&out));
        let server = Arc::new(Server::new(Arc::new(catalog), 1 << 22));
        let spawn = |front_end, wire| {
            let handle = spawn_with(
                Arc::clone(&server),
                "127.0.0.1:0",
                SpawnOptions {
                    workers: 2,
                    wire,
                    front_end: Some(front_end),
                    event_loops: 1,
                    ..SpawnOptions::default()
                },
            )
            .expect("bind");
            assert_eq!(handle.front_end(), front_end, "no fallback expected");
            handle
        };
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for mode in MODES {
            let pool = spawn(FrontEnd::Pool, mode);
            let event = spawn(FrontEnd::Event, mode);
            addrs.push((pool.addr(), event.addr()));
            handles.extend([pool, event]);
        }
        Endpoints {
            addrs,
            _handles: handles,
        }
    })
}

/// A small request vocabulary: valid and failing legacy ranges and
/// batches, plans of several kinds, and an unknown release. No `Stats`:
/// its counters move between the two sessions of a case.
fn request(n: usize) -> Request {
    let city = || "city".to_string();
    let plan = |plan| Request::Plan {
        release: city(),
        plan,
    };
    match n % 12 {
        0 => Request::List,
        1 => Request::Query {
            release: city(),
            lo: vec![0, 0],
            hi: vec![8, 8],
        },
        2 => Request::Query {
            release: city(),
            lo: vec![1, 2],
            hi: vec![5, 7],
        },
        3 => Request::Query {
            release: city(),
            lo: vec![0, 0],
            hi: vec![9, 9],
        },
        4 => Request::Query {
            release: "missing".into(),
            lo: vec![0, 0],
            hi: vec![1, 1],
        },
        5 => Request::Batch {
            release: city(),
            ranges: vec![(vec![0, 0], vec![4, 4]), (vec![2, 2], vec![8, 8])],
        },
        6 => Request::Batch {
            release: city(),
            ranges: vec![(vec![0, 0], vec![4, 4]), (vec![5], vec![2])],
        },
        7 => plan(QueryPlan::Total),
        8 => plan(QueryPlan::TopK { k: 3 }),
        9 => plan(QueryPlan::Marginal { keep: vec![1] }),
        10 => plan(QueryPlan::Many {
            plans: vec![
                QueryPlan::Range {
                    lo: vec![0, 1],
                    hi: vec![3, 8],
                },
                QueryPlan::Total,
            ],
        }),
        _ => plan(QueryPlan::Marginal { keep: vec![4] }),
    }
}

/// Lines that are not valid requests (none starts with `D`, which would
/// read as the start of a `DPRB` preamble).
const GARBAGE_LINES: [&str; 6] = [
    "not json",
    "{",
    "{\"Query\":{}}",
    "[1,2",
    "\"Nope\"",
    "  {\"Plan\":7}  ",
];

/// Blank lines: skipped without a response on every front end.
const BLANK_LINES: [&str; 3] = ["", "   ", "\t\r"];

/// A length-correct frame body that is not a decodable request.
fn garbage_body(seed: u64) -> Vec<u8> {
    if seed.is_multiple_of(4) {
        // Right inner magic and version, unknown opcode.
        let mut body = wire::WIRE_MAGIC.to_vec();
        body.extend_from_slice(&[wire::WIRE_VERSION, 0x7E]);
        return body;
    }
    let len = (seed % 23) as usize;
    (0..len)
        .map(|i| (seed.rotate_left(i as u32 * 7) as u8) ^ (i as u8))
        .collect()
}

/// One generated stream and what both servers must do with it.
struct Case {
    mode: usize,
    stream: Vec<u8>,
    /// Chunk boundaries, ascending, strictly inside the stream.
    cuts: Vec<usize>,
    /// The stream is fatal on its own: the server must close without
    /// waiting for the client's EOF (the client never sends one).
    server_closes: bool,
    /// The stream ends inside a frame body: the farewell's wording is
    /// compared by prefix only (it names byte counts).
    cut_mid_body: bool,
    /// Responses are `DPRB` frames rather than JSON lines.
    frames: bool,
}

impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let head = &self.stream[..self.stream.len().min(160)];
        write!(
            f,
            "Case {{ mode: {:?}, len: {}, cuts: {:?}, server_closes: {}, head: {:?} }}",
            MODES[self.mode],
            self.stream.len(),
            self.cuts,
            self.server_closes,
            String::from_utf8_lossy(head)
        )
    }
}

/// Builds a [`Case`]: `encoding` picks NDJSON (0), legacy `DPRB` (1) or
/// packed `DPRB` (2); `pieces` are `(kind, parameter)` pairs; `ending`
/// picks how the stream stops; `cut_seeds` place the split points.
fn build_case(
    mode: usize,
    encoding: usize,
    pieces: Vec<(usize, u64)>,
    ending: (usize, u64),
    cut_seeds: Vec<u64>,
) -> Case {
    let mut stream = Vec::new();
    let mut server_closes = false;
    let mut cut_mid_body = false;
    let (end_kind, end_param) = ending;
    if encoding == 0 {
        for (kind, param) in pieces {
            let line = match kind % 10 {
                0..=5 => serde_json::to_string(&request(param as usize)).unwrap(),
                6 | 7 => BLANK_LINES[param as usize % BLANK_LINES.len()].to_string(),
                8 => GARBAGE_LINES[param as usize % GARBAGE_LINES.len()].to_string(),
                // The longest line that is still served.
                _ if param.is_multiple_of(4) => "x".repeat(MAX_LINE_BYTES as usize - 1),
                _ => GARBAGE_LINES[param as usize % GARBAGE_LINES.len()].to_string(),
            };
            stream.extend_from_slice(line.as_bytes());
            stream.push(b'\n');
        }
        match end_kind % 4 {
            // An unterminated final line is still a request.
            1 => {
                let line = if end_param.is_multiple_of(2) {
                    serde_json::to_string(&request(end_param as usize / 2)).unwrap()
                } else {
                    GARBAGE_LINES[end_param as usize / 2 % GARBAGE_LINES.len()].to_string()
                };
                stream.extend_from_slice(line.as_bytes());
            }
            // A line past the cap: one error line, then the server closes.
            2 => {
                let extra = (end_param % 64) as usize;
                stream.extend(std::iter::repeat_n(b'y', MAX_LINE_BYTES as usize + extra));
                stream.push(b'\n');
                server_closes = true;
            }
            _ => {}
        }
        // A JSON stream on a binary-only endpoint is refused at once.
        if MODES[mode] == WireMode::Binary && !stream.is_empty() {
            server_closes = true;
        }
    } else {
        let packed = encoding == 2;
        let version = if packed {
            wire::WIRE_VERSION | wire::WIRE_FEATURE_PACKED
        } else {
            wire::WIRE_VERSION
        };
        match end_kind % 8 {
            // A preamble with an unknown version: refused, then closed.
            6 => {
                stream.extend_from_slice(wire::WIRE_MAGIC);
                stream.push(wire::WIRE_VERSION + 1 + (end_param % 5) as u8);
                server_closes = true;
            }
            // A preamble cut short by EOF: closed without a reply.
            7 if MODES[mode] != WireMode::Json => {
                let keep = 1 + (end_param % 4) as usize;
                stream.extend_from_slice(&wire::WIRE_MAGIC[..keep]);
            }
            _ => {
                stream.extend_from_slice(wire::WIRE_MAGIC);
                stream.push(version);
                for (kind, param) in pieces {
                    let body = match kind % 4 {
                        0..=2 => {
                            let req = request(param as usize);
                            if packed {
                                wire::encode_request_packed(&req)
                            } else {
                                wire::encode_request(&req)
                            }
                        }
                        _ => garbage_body(param),
                    };
                    wire::write_frame(&mut stream, &body).unwrap();
                }
                match end_kind % 8 {
                    // EOF inside the length prefix.
                    1 => {
                        let keep = 1 + (end_param % 3) as usize;
                        stream.extend_from_slice(&40u32.to_le_bytes()[..keep]);
                    }
                    // EOF inside the body.
                    2 => {
                        let declared = 8 + (end_param % 40) as u32;
                        stream.extend_from_slice(&declared.to_le_bytes());
                        let keep = (end_param / 40) as usize % declared as usize;
                        stream.extend(std::iter::repeat_n(0xA5u8, keep));
                        cut_mid_body = true;
                    }
                    // A length prefix past the frame cap.
                    3 => {
                        let declared = wire::MAX_FRAME_BYTES + 1 + (end_param % 1000) as u32;
                        stream.extend_from_slice(&declared.to_le_bytes());
                        server_closes = true;
                    }
                    _ => {}
                }
            }
        }
        // A preamble on a JSON-only endpoint is refused at once.
        if MODES[mode] == WireMode::Json {
            server_closes = true;
            cut_mid_body = false;
        }
    }
    let mut cuts: Vec<usize> = if stream.len() > 1 {
        cut_seeds
            .iter()
            .map(|s| 1 + (*s % (stream.len() as u64 - 1)) as usize)
            .collect()
    } else {
        Vec::new()
    };
    cuts.sort_unstable();
    cuts.dedup();
    Case {
        mode,
        frames: encoding != 0 || MODES[mode] == WireMode::Binary,
        stream,
        cuts,
        server_closes,
        cut_mid_body,
    }
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        // Auto endpoints take three draws in five.
        (0usize..5).prop_map(|m| m.saturating_sub(2)),
        0usize..3,
        prop::collection::vec((0usize..40, any::<u64>()), 0..7),
        (0usize..8, any::<u64>()),
        prop::collection::vec(any::<u64>(), 0..6),
    )
        .prop_map(|(mode, encoding, pieces, ending, cuts)| {
            build_case(mode, encoding, pieces, ending, cuts)
        })
}

/// How a session ended.
#[derive(Debug, PartialEq, Eq)]
enum Closed {
    /// The server closed the connection (EOF or reset).
    ByServer,
    /// The server still held the connection open at the deadline.
    NotWithin,
}

/// Writes `case`'s stream to `addr` chunk by chunk on a writer thread
/// (half-closing afterwards unless the server must close on its own)
/// while this thread reads every response byte until the server closes.
fn session(addr: SocketAddr, case: &Case) -> (Vec<u8>, Closed) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(CLOSE_TIMEOUT)).unwrap();
    let writer = stream.try_clone().unwrap();
    let mut bounds = vec![0];
    bounds.extend_from_slice(&case.cuts);
    bounds.push(case.stream.len());
    let chunks: Vec<Vec<u8>> = bounds
        .windows(2)
        .map(|w| case.stream[w[0]..w[1]].to_vec())
        .collect();
    let half_close = !case.server_closes;
    let write_side = std::thread::spawn(move || {
        let mut writer = writer;
        for chunk in chunks {
            // A server that already closed makes later writes fail; the
            // reader still sees everything it sent before closing.
            if writer.write_all(&chunk).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        if half_close {
            let _ = writer.shutdown(Shutdown::Write);
        }
    });
    let mut out = Vec::new();
    let mut buf = [0u8; 64 << 10];
    let mut reader = &stream;
    let closed = loop {
        match reader.read(&mut buf) {
            Ok(0) => break Closed::ByServer,
            Ok(n) => out.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                break Closed::NotWithin
            }
            Err(_) => break Closed::ByServer,
        }
    };
    let _ = stream.shutdown(Shutdown::Both);
    write_side.join().unwrap();
    (out, closed)
}

/// Splits response bytes into units: whole frames (length prefix
/// included) or whole lines; a trailing fragment is its own unit.
fn units(bytes: &[u8], frames: bool) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    if frames {
        let mut pos = 0;
        while pos < bytes.len() {
            let end = if bytes.len() - pos >= 4 {
                let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
                (pos + 4 + len).min(bytes.len())
            } else {
                bytes.len()
            };
            out.push(bytes[pos..end].to_vec());
            pos = end;
        }
    } else {
        out.extend(bytes.split_inclusive(|&b| b == b'\n').map(<[u8]>::to_vec));
    }
    out
}

fn error_message(frame: &[u8]) -> Option<String> {
    match wire::decode_response(frame.get(4..)?) {
        Ok(Response::Error { message }) => Some(message),
        _ => None,
    }
}

fn show(unit: &[u8]) -> String {
    let text = String::from_utf8_lossy(&unit[..unit.len().min(200)]).into_owned();
    format!("{text:?} ({} bytes)", unit.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pool_and_event_front_ends_frame_streams_identically(case in arb_case()) {
        let (pool_addr, event_addr) = endpoints().addrs[case.mode];
        let (pool, pool_closed) = session(pool_addr, &case);
        let (event, event_closed) = session(event_addr, &case);
        prop_assert_eq!(&pool_closed, &Closed::ByServer, "pool kept {:?} open", case);
        prop_assert_eq!(&event_closed, &Closed::ByServer, "event kept {:?} open", case);

        let pool_units = units(&pool, case.frames);
        let mut event_units = units(&event, case.frames);
        prop_assert_eq!(
            pool_units.len(),
            event_units.len(),
            "{:?}: pool answered {} units, event {}",
            case,
            pool_units.len(),
            event_units.len()
        );
        let mut pool_units = pool_units;
        if case.cut_mid_body {
            let (p, e) = (pool_units.pop(), event_units.pop());
            let p = p.as_deref().and_then(error_message);
            let e = e.as_deref().and_then(error_message);
            let prefix = "protocol error: frame truncated";
            prop_assert!(
                p.as_deref().is_some_and(|m| m.starts_with(prefix))
                    && e.as_deref().is_some_and(|m| m.starts_with(prefix)),
                "{:?}: truncation farewells {:?} / {:?}",
                case,
                p,
                e
            );
        }
        for (i, (p, e)) in pool_units.iter().zip(&event_units).enumerate() {
            prop_assert!(
                p == e,
                "{:?}: unit {} differs: pool {} vs event {}",
                case,
                i,
                show(p),
                show(e)
            );
        }
    }
}
