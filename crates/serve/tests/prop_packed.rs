//! Packed-wire and encoded-memo acceptance tests.
//!
//! * Property tests: zigzag and varint primitives round-trip across
//!   their whole domains.
//! * 256 deterministic mixed requests answer identically across all
//!   three transports — in-process dispatch, NDJSON over TCP, and the
//!   `DPRB` binary protocol — with the binary protocol exercised both
//!   legacy and packed (feature bit negotiated in the preamble).
//! * Warm encoded-memo hits serve bit-identical bytes to cold
//!   execution, on one server and across identically-seeded servers.

use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
use dpod_dp::Epsilon;
use dpod_fmatrix::{DenseMatrix, Shape};
use dpod_query::QueryPlan;
use dpod_serve::protocol::{Request, Response};
use dpod_serve::{spawn, wire, Catalog, ResponseEncoding, Server};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

proptest! {
    #[test]
    fn zigzag_round_trips(bits in any::<u64>()) {
        let v = bits as i64;
        prop_assert_eq!(wire::unzigzag(wire::zigzag(v)), v);
    }

    #[test]
    fn uvarint_round_trips(v in any::<u64>()) {
        let mut buf = Vec::new();
        wire::put_uvarint(&mut buf, v);
        prop_assert!(buf.len() <= 10);
        let mut pos = 0;
        let back = wire::get_uvarint(&buf, &mut pos, "v")
            .map_err(|e| TestCaseError::fail(e.0))?;
        prop_assert_eq!(back, v);
        prop_assert_eq!(pos, buf.len());
    }

    /// Concatenated varints decode back in order (the packed-blob
    /// framing depends on self-delimiting entries).
    #[test]
    fn uvarint_sequences_round_trip(vs in prop::collection::vec(any::<u64>(), 0..64)) {
        let mut buf = Vec::new();
        for v in &vs {
            wire::put_uvarint(&mut buf, *v);
        }
        let mut pos = 0;
        for v in &vs {
            let back = wire::get_uvarint(&buf, &mut pos, "v")
                .map_err(|e| TestCaseError::fail(e.0))?;
            prop_assert_eq!(back, *v);
        }
        prop_assert_eq!(pos, buf.len());
    }
}

/// A small deterministic generator (xorshift) so the 256 cases are the
/// same on every run, with no proptest shrink machinery between the
/// four live transports.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn seeded_server() -> Arc<Server> {
    let catalog = Arc::new(Catalog::new());
    for (i, name) in ["city", "transit"].into_iter().enumerate() {
        let shape = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(shape);
        m.add_at(&[i, 7 - i], 400).unwrap();
        m.add_at(&[3, 3], 90).unwrap();
        let out = Ebp::default()
            .sanitize(
                &m,
                Epsilon::new(0.5).unwrap(),
                &mut dpod_dp::seeded_rng(900 + i as u64),
            )
            .unwrap();
        catalog.publish(name, PublishedRelease::from_sanitized(&out));
    }
    Arc::new(Server::new(catalog, 16 << 20))
}

fn request_for(rng: &mut Rng) -> Request {
    let release = match rng.below(5) {
        0 => "transit".to_string(),
        1 => "nowhere".to_string(), // error path
        _ => "city".to_string(),
    };
    match rng.below(8) {
        0 => Request::Query {
            release,
            lo: vec![rng.below(8) as usize, rng.below(8) as usize],
            hi: vec![rng.below(10) as usize, rng.below(10) as usize],
        },
        1 | 2 => {
            // Dense batches: the packed coordinate encoding's target.
            let n = rng.below(24) as usize;
            let ranges = (0..n)
                .map(|_| {
                    let lo = vec![rng.below(8) as usize, rng.below(8) as usize];
                    let hi = vec![lo[0] + rng.below(3) as usize, lo[1] + rng.below(3) as usize];
                    (lo, hi)
                })
                .collect();
            Request::Batch { release, ranges }
        }
        3 => Request::Plan {
            release,
            plan: QueryPlan::Marginal {
                keep: vec![rng.below(2) as usize],
            },
        },
        4 => Request::Plan {
            release,
            plan: QueryPlan::TopK {
                k: rng.below(9) as usize,
            },
        },
        5 => Request::Plan {
            release,
            plan: QueryPlan::Many {
                plans: vec![
                    QueryPlan::Total,
                    QueryPlan::Marginal { keep: vec![0, 1] },
                    QueryPlan::TopK { k: 3 },
                ],
            },
        },
        6 => Request::Plan {
            release,
            plan: QueryPlan::Total,
        },
        _ => Request::List,
    }
}

fn ndjson_round_trip(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    req: &Request,
) -> Response {
    let mut line = serde_json::to_string(req).unwrap();
    line.push('\n');
    writer.write_all(line.as_bytes()).unwrap();
    writer.flush().unwrap();
    let mut answer = String::new();
    reader.read_line(&mut answer).unwrap();
    serde_json::from_str(answer.trim()).unwrap()
}

/// The satellite acceptance test: 256 deterministic mixed requests,
/// answered over four live paths — in-process, NDJSON/TCP, legacy
/// `DPRB`, and packed `DPRB` — produce JSON-identical responses.
#[test]
fn packed_and_unpacked_transports_answer_identically_256_cases() {
    let server = seeded_server();
    let handle = spawn(Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
    let addr = handle.addr();

    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut json_reader = BufReader::new(stream.try_clone().unwrap());
    let mut json_writer = stream;

    let mut legacy = wire::Client::connect_with(addr, false).unwrap();
    let mut packed = wire::Client::connect_with(addr, true).unwrap();
    assert!(!legacy.is_packed());
    assert!(packed.is_packed());

    let mut rng = Rng(0x5eed_cafe_f00d_0001);
    for case in 0..256 {
        let req = request_for(&mut rng);
        let in_process = server.handle(&req);
        let via_json = ndjson_round_trip(&mut json_reader, &mut json_writer, &req);
        let via_legacy = legacy.request(&req).unwrap();
        let via_packed = packed.request(&req).unwrap();

        let want = serde_json::to_string(&in_process).unwrap();
        for (name, got) in [
            ("ndjson", &via_json),
            ("dprb", &via_legacy),
            ("dprb-packed", &via_packed),
        ] {
            assert_eq!(
                serde_json::to_string(got).unwrap(),
                want,
                "case {case} over {name}: {req:?}"
            );
        }
    }
    handle.stop();
}

/// Warm memo hits are bit-identical to cold execution — on the same
/// server (the warm call returns the very bytes the cold call produced)
/// and across two identically-seeded servers that never shared a cache.
#[test]
fn memo_hits_are_bit_identical_to_cold_execution() {
    let a = seeded_server();
    let b = seeded_server();
    let requests = [
        Request::Plan {
            release: "city".into(),
            plan: QueryPlan::Marginal { keep: vec![1] },
        },
        Request::Plan {
            release: "city".into(),
            plan: QueryPlan::TopK { k: 5 },
        },
        Request::Plan {
            release: "transit".into(),
            plan: QueryPlan::Many {
                plans: vec![QueryPlan::Total, QueryPlan::Marginal { keep: vec![0] }],
            },
        },
    ];
    for enc in [
        ResponseEncoding::Json,
        ResponseEncoding::Binary,
        ResponseEncoding::BinaryPacked,
    ] {
        for req in &requests {
            let cold = a.handle_encoded(req, enc);
            let warm = a.handle_encoded(req, enc);
            assert!(Arc::ptr_eq(&cold, &warm), "{req:?} {enc:?}");
            let other = b.handle_encoded(req, enc);
            assert_eq!(*cold, *other, "{req:?} {enc:?}");
        }
    }
    // The warm half of each pair hit the memo.
    let Response::Stats { stats } = a.handle(&Request::Stats) else {
        panic!("expected stats");
    };
    let encoded = |name: &str| stats.get(name, &[("memo", "encoded")]).unwrap() as u64;
    assert_eq!(encoded("dpod_engine_memo_hits_total"), 9);
    assert_eq!(encoded("dpod_engine_memo_misses_total"), 9);
    assert!(encoded("dpod_engine_memo_entries") > 0 && encoded("dpod_engine_memo_bytes") > 0);
}
