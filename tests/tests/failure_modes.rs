//! Failure-injection tests: every documented error path across the
//! workspace actually fires, with useful messages and without panics.

use dpod_core::{daf::DafHomogeneity, grid::Eug, Mechanism, MechanismError};
use dpod_dp::{BudgetAccountant, DpError, Epsilon};
use dpod_fmatrix::{AxisBox, DenseMatrix, FmError, Shape};
use dpod_partition::{Partitioning, ValidationError};

#[test]
fn shape_and_box_errors_are_descriptive() {
    let e = Shape::new(vec![]).unwrap_err();
    assert!(e.to_string().contains("at least one dimension"));
    let e = Shape::new(vec![3, 0]).unwrap_err();
    assert!(e.to_string().contains("zero-length"));
    let e = AxisBox::new(vec![5], vec![2]).unwrap_err();
    assert!(e.to_string().contains("lo > hi") || e.to_string().contains("out of domain"));
}

#[test]
fn matrix_access_errors_round_trip_through_display() {
    let m = DenseMatrix::<u64>::zeros(Shape::new(vec![2, 2]).unwrap());
    match m.get(&[2, 0]) {
        Err(FmError::OutOfBounds { coords, dims }) => {
            assert_eq!(coords, vec![2, 0]);
            assert_eq!(dims, vec![2, 2]);
        }
        other => panic!("expected OutOfBounds, got {other:?}"),
    }
    match m.get(&[0]) {
        Err(FmError::DimensionMismatch { expected, got }) => {
            assert_eq!((expected, got), (2, 1));
        }
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
}

#[test]
fn budget_exhaustion_reports_label_and_amounts() {
    let mut acc = BudgetAccountant::new(Epsilon::new(0.2).unwrap());
    acc.spend(0.15, "setup").unwrap();
    match acc.spend(0.1, "too much") {
        Err(DpError::BudgetExhausted {
            requested,
            remaining,
            label,
        }) => {
            assert_eq!(requested, 0.1);
            assert!((remaining - 0.05).abs() < 1e-12);
            assert_eq!(label, "too much");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
}

#[test]
fn mechanism_config_errors_name_the_parameter() {
    let m = DenseMatrix::<u64>::zeros(Shape::new(vec![4, 4]).unwrap());
    let eps = Epsilon::new(1.0).unwrap();
    let mut rng = dpod_dp::seeded_rng(1);

    let bad = Eug {
        eps0_fraction: 2.0,
        ..Eug::default()
    };
    match bad.sanitize(&m, eps, &mut rng) {
        Err(MechanismError::Invalid(msg)) => assert!(msg.contains("eps0_fraction"), "{msg}"),
        other => panic!("expected Invalid, got {:?}", other.map(|_| ())),
    }

    let bad = DafHomogeneity {
        q: -0.5,
        ..DafHomogeneity::default()
    };
    match bad.sanitize(&m, eps, &mut rng) {
        Err(MechanismError::Invalid(msg)) => assert!(msg.contains('q'), "{msg}"),
        other => panic!("expected Invalid, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn partition_validation_errors_identify_the_culprit() {
    let s = Shape::new(vec![4]).unwrap();
    let overlap = Partitioning::new_validated(
        s.clone(),
        vec![
            AxisBox::new(vec![0], vec![3]).unwrap(),
            AxisBox::new(vec![2], vec![4]).unwrap(),
        ],
    );
    match overlap {
        Err(ValidationError::Overlap { first, second }) => {
            assert_eq!((first, second), (0, 1));
        }
        other => panic!("expected Overlap, got {other:?}"),
    }
    let gap = Partitioning::new_validated(s, vec![AxisBox::new(vec![0], vec![2]).unwrap()]);
    match gap {
        Err(ValidationError::IncompleteCover { covered, expected }) => {
            assert_eq!((covered, expected), (2, 4));
        }
        other => panic!("expected IncompleteCover, got {other:?}"),
    }
}

#[test]
fn epsilon_rejections_are_loud_not_silent() {
    for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
        match Epsilon::new(bad) {
            Err(DpError::InvalidEpsilon { value }) => {
                assert!(value.is_nan() || value == bad);
            }
            Ok(_) => panic!("accepted invalid epsilon {bad}"),
            Err(other) => panic!("wrong error for {bad}: {other:?}"),
        }
    }
}

mod serve_protocol {
    //! Adversarial `DPRB` decode and transport tests: every malformed
    //! input must produce a protocol error — never a panic, never a
    //! wedged connection.

    use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
    use dpod_dp::Epsilon;
    use dpod_fmatrix::{DenseMatrix, Shape};
    use dpod_query::{Answer, QueryPlan};
    use dpod_serve::protocol::{Request, Response};
    use dpod_serve::{wire, Catalog, Client, ResponseEncoding, Server};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Duration;

    /// Well under the server's 30 s idle reclaim: "returns an error"
    /// must mean promptly, not eventually.
    const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

    fn spawn_test_server() -> (dpod_serve::ServerHandle, Arc<Server>) {
        let catalog = Catalog::new();
        let shape = Shape::new(vec![8, 8]).unwrap();
        let mut m = DenseMatrix::<u64>::zeros(shape);
        m.add_at(&[3, 3], 250).unwrap();
        let out = Ebp::default()
            .sanitize(&m, Epsilon::new(0.5).unwrap(), &mut dpod_dp::seeded_rng(5))
            .unwrap();
        catalog.publish("city", PublishedRelease::from_sanitized(&out));
        let server = Arc::new(Server::new(Arc::new(catalog), 1 << 20));
        let handle = dpod_serve::spawn(Arc::clone(&server), "127.0.0.1:0", 2).unwrap();
        (handle, server)
    }

    fn timed(stream: &TcpStream) {
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).unwrap();
        stream.set_write_timeout(Some(REPLY_TIMEOUT)).unwrap();
    }

    #[test]
    fn truncated_binary_frames_error_without_hanging() {
        let (handle, _server) = spawn_test_server();
        // A frame that promises 100 bytes but delivers 10, then EOF.
        let stream = TcpStream::connect(handle.addr()).unwrap();
        timed(&stream);
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(wire::WIRE_MAGIC).unwrap();
        writer.write_all(&[wire::WIRE_VERSION]).unwrap();
        writer.write_all(&100u32.to_le_bytes()).unwrap();
        writer.write_all(&[0u8; 10]).unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = BufReader::new(stream);
        let body = wire::read_frame(&mut reader)
            .expect("server must answer, not hang")
            .expect("server must send an error frame before closing");
        match wire::decode_response(&body) {
            Ok(Response::Error { message }) => assert!(message.contains("protocol"), "{message}"),
            other => panic!("expected protocol error, got {other:?}"),
        }
        handle.stop();
    }

    #[test]
    fn oversized_declared_length_is_refused() {
        let (handle, _server) = spawn_test_server();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        timed(&stream);
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(wire::WIRE_MAGIC).unwrap();
        writer.write_all(&[wire::WIRE_VERSION]).unwrap();
        // Declares ~4 GiB; the server must refuse up front rather than
        // try to read (or allocate) it.
        writer.write_all(&u32::MAX.to_le_bytes()).unwrap();
        writer.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let body = wire::read_frame(&mut reader).unwrap().unwrap();
        match wire::decode_response(&body) {
            Ok(Response::Error { message }) => {
                assert!(message.contains("exceeds max"), "{message}")
            }
            other => panic!("expected length refusal, got {other:?}"),
        }
        // And the connection is closed, not left half-synced.
        assert!(wire::read_frame(&mut reader).unwrap().is_none());
        handle.stop();
    }

    #[test]
    fn wrong_magic_preambles_get_protocol_errors() {
        let (handle, _server) = spawn_test_server();

        // Right length, wrong bytes ("DPXX"): not the binary magic, so
        // it is served as NDJSON and answered with a JSON error line.
        let stream = TcpStream::connect(handle.addr()).unwrap();
        timed(&stream);
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(b"DXQQ junk preamble\n").unwrap();
        writer.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp: Response = serde_json::from_str(line.trim()).unwrap();
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");

        // Correct magic, unsupported version: refused in-protocol with a
        // binary error frame.
        let stream = TcpStream::connect(handle.addr()).unwrap();
        timed(&stream);
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(wire::WIRE_MAGIC).unwrap();
        writer.write_all(&[wire::WIRE_VERSION + 7]).unwrap();
        writer.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let body = wire::read_frame(&mut reader).unwrap().unwrap();
        match wire::decode_response(&body) {
            Ok(Response::Error { message }) => {
                assert!(message.contains("version"), "{message}")
            }
            other => panic!("expected version refusal, got {other:?}"),
        }
        handle.stop();
    }

    /// `plan` against the test server's `city` release.
    fn range_request(plan: QueryPlan) -> Request {
        Request::Plan {
            release: "city".into(),
            plan,
        }
    }

    #[test]
    fn degenerate_ranges_error_in_protocol_and_keep_the_connection() {
        let (handle, _server) = spawn_test_server();
        let mut client = Client::connect(handle.addr(), ResponseEncoding::Binary).unwrap();
        // Zero-dimension range, lo>hi corner, wrong arity, out of
        // domain: each is a Response::Error, and the connection keeps
        // answering afterwards.
        let degenerate = [
            (vec![], vec![]),
            (vec![5, 5], vec![2, 2]),
            (vec![0], vec![4]),
            (vec![0, 0], vec![9, 9]),
        ];
        for (lo, hi) in degenerate {
            let resp = client
                .request(&range_request(QueryPlan::Range { lo, hi }))
                .expect("transport must survive degenerate ranges");
            assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
        }
        // A batch mixing good and bad ranges errors as a unit…
        let resp = client
            .request(&range_request(QueryPlan::Many {
                plans: vec![
                    QueryPlan::Range {
                        lo: vec![0, 0],
                        hi: vec![2, 2],
                    },
                    QueryPlan::Range {
                        lo: vec![7, 7],
                        hi: vec![1, 1],
                    },
                ],
            }))
            .unwrap();
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
        // …and the connection still answers valid queries.
        let resp = client
            .request(&range_request(QueryPlan::Range {
                lo: vec![0, 0],
                hi: vec![8, 8],
            }))
            .unwrap();
        assert!(
            matches!(
                resp,
                Response::Answer {
                    answer: Answer::Value { .. }
                }
            ),
            "{resp:?}"
        );
        handle.stop();
    }

    #[test]
    fn garbage_frame_bodies_keep_the_stream_in_sync() {
        let (handle, _server) = spawn_test_server();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        timed(&stream);
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(wire::WIRE_MAGIC).unwrap();
        writer.write_all(&[wire::WIRE_VERSION]).unwrap();
        // A length-correct frame whose body is noise: decodes to an
        // error response, but the frame boundary holds, so a valid
        // frame behind it is answered normally.
        let noise = [0xABu8; 16];
        writer
            .write_all(&(noise.len() as u32).to_le_bytes())
            .unwrap();
        writer.write_all(&noise).unwrap();
        let good = wire::encode_request(&range_request(QueryPlan::Range {
            lo: vec![0, 0],
            hi: vec![4, 4],
        }));
        writer
            .write_all(&(good.len() as u32).to_le_bytes())
            .unwrap();
        writer.write_all(&good).unwrap();
        writer.flush().unwrap();

        let mut reader = BufReader::new(stream);
        let first = wire::read_frame(&mut reader).unwrap().unwrap();
        assert!(matches!(
            wire::decode_response(&first),
            Ok(Response::Error { .. })
        ));
        let second = wire::read_frame(&mut reader).unwrap().unwrap();
        assert!(matches!(
            wire::decode_response(&second),
            Ok(Response::Answer {
                answer: Answer::Value { .. }
            })
        ));
        handle.stop();
    }

    #[test]
    fn decode_request_survives_bit_flips() {
        // Header-byte corruption of a real frame: errors, never panics.
        let good = wire::encode_request(&range_request(QueryPlan::Many {
            plans: vec![
                QueryPlan::Range {
                    lo: vec![0, 0],
                    hi: vec![4, 4],
                },
                QueryPlan::Range {
                    lo: vec![1, 1],
                    hi: vec![2, 2],
                },
            ],
        }));
        for i in 0..good.len().min(40) {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            let _ = wire::decode_request(&bad); // must not panic
        }
        for cut in 0..good.len() {
            assert!(wire::decode_request(&good[..cut]).is_err(), "cut {cut}");
        }
        assert!(wire::decode_request(&[]).is_err());
    }

    #[test]
    fn slow_preamble_still_selects_binary() {
        // The magic arriving one byte at a time must not confuse the
        // sniffer into the JSON path.
        let (handle, _server) = spawn_test_server();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        timed(&stream);
        let mut writer = stream.try_clone().unwrap();
        for b in wire::WIRE_MAGIC.iter().chain(&[wire::WIRE_VERSION]) {
            writer.write_all(&[*b]).unwrap();
            writer.flush().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let body = wire::encode_request(&Request::List);
        writer
            .write_all(&(body.len() as u32).to_le_bytes())
            .unwrap();
        writer.write_all(&body).unwrap();
        writer.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let resp = wire::read_frame(&mut reader).unwrap().unwrap();
        assert!(matches!(
            wire::decode_response(&resp),
            Ok(Response::Releases { .. })
        ));
        handle.stop();
    }

    #[test]
    fn short_garbage_lines_are_still_answered_as_json() {
        // A sub-4-byte first line must not stall the encoding sniff.
        let (handle, _server) = spawn_test_server();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        timed(&stream);
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(b"{}\n").unwrap();
        writer.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp: Response = serde_json::from_str(line.trim()).unwrap();
        assert!(matches!(resp, Response::Error { .. }), "{resp:?}");
        handle.stop();
    }
}

#[test]
fn codec_rejects_every_tampering_mode() {
    let m = DenseMatrix::<u64>::zeros(Shape::new(vec![2, 2]).unwrap());
    let good = dpod_fmatrix::codec::encode_u64(&m).to_vec();
    // Flip one byte anywhere in the header: must error, never panic.
    for i in 0..8 {
        let mut bad = good.clone();
        bad[i] ^= 0xFF;
        let _ = dpod_fmatrix::codec::decode_u64(&bad); // no panic
    }
    assert!(dpod_fmatrix::codec::decode_u64(&[]).is_err());
}
