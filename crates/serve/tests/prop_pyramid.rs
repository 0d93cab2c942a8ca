//! Property tests for the resolution pyramid: every coarse cell is the
//! row-major sum of its children, and a routed [`QueryPlan::DrillDown`]
//! answers **bit-identically** to executing the inner plan over a
//! hand-coarsened leaf — across in-process dispatch (cold and indexed),
//! newline-delimited JSON, and `DPRB` binary frames. Legacy wire bytes
//! (plan frames without a drill-down) are pinned unchanged.

use dpod_core::{grid::Ebp, Mechanism, PublishedRelease, SanitizedMatrix};
use dpod_dp::Epsilon;
use dpod_fmatrix::codec::FrameWriter;
use dpod_fmatrix::{coarsen_once, coarsen_to_level, DenseMatrix, Shape};
use dpod_query::QueryPlan;
use dpod_serve::protocol::{Request, Response};
use dpod_serve::{wire, Catalog, Client, ResponseEncoding, Server};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// A shared reference server: a 16×16 release ("city", pyramid root 4)
/// and an odd-extent 3-D release ("odd", 9×7×5) whose ragged boundary
/// tiles exercise the ceiling-halved shapes.
fn server() -> &'static Arc<Server> {
    static SERVER: OnceLock<Arc<Server>> = OnceLock::new();
    SERVER.get_or_init(|| {
        let catalog = Catalog::new();
        let mut city = DenseMatrix::<u64>::zeros(Shape::new(vec![16, 16]).unwrap());
        city.add_at(&[3, 12], 400).unwrap();
        city.add_at(&[9, 2], 250).unwrap();
        let mut odd = DenseMatrix::<u64>::zeros(Shape::new(vec![9, 7, 5]).unwrap());
        odd.add_at(&[8, 6, 4], 120).unwrap();
        odd.add_at(&[0, 3, 1], 75).unwrap();
        for (name, matrix, seed) in [("city", city, 50u64), ("odd", odd, 51)] {
            let out = Ebp::default()
                .sanitize(
                    &matrix,
                    Epsilon::new(0.5).unwrap(),
                    &mut dpod_dp::seeded_rng(seed),
                )
                .unwrap();
            catalog.publish(name, PublishedRelease::from_sanitized(&out));
        }
        Arc::new(Server::new(Arc::new(catalog), 1 << 22))
    })
}

/// Inner plans for a drill-down: the three routable kinds with
/// coordinates that deliberately stray out of the coarse domain, plus a
/// forbidden kind so the rejection is transport-invariant too.
fn arb_inner() -> impl Strategy<Value = QueryPlan> {
    let range = (0usize..4).prop_flat_map(|d| {
        (
            prop::collection::vec(0usize..18, d),
            prop::collection::vec(0usize..18, d),
        )
    });
    (
        0usize..5,
        range,
        prop::collection::vec(0usize..4, 0..4),
        0usize..9,
    )
        .prop_map(|(kind, (lo, hi), keep, k)| match kind {
            0 | 1 => QueryPlan::Range { lo, hi },
            2 => QueryPlan::Marginal { keep },
            3 => QueryPlan::Total,
            _ => QueryPlan::TopK { k }, // must be refused identically
        })
}

/// The cold reference executor: rebuilds the named release's matrix and
/// answers the *whole drill plan* through the un-prepared
/// [`dpod_query::ScanBackend`] path (which coarsens per call).
fn cold_answer(release: &str, plan: &QueryPlan) -> Option<Response> {
    let entry = server().catalog().get(release)?;
    let matrix = entry.release.as_ref().clone().into_sanitized().unwrap();
    Some(match dpod_query::plan::execute(&matrix, plan) {
        Ok(answer) => Response::Answer { answer },
        Err(e) => Response::Error { message: e.0 },
    })
}

/// The equivalence-contract reference: coarsen the rebuilt leaf by hand
/// with [`coarsen_to_level`] and execute the *inner* plan against the
/// coarse matrix directly. `None` when the level itself is invalid.
fn coarsened_answer(release: &str, level: u32, inner: &QueryPlan) -> Option<Response> {
    let entry = server().catalog().get(release)?;
    let leaf = entry.release.as_ref().clone().into_sanitized().unwrap();
    let coarse = coarsen_to_level(leaf.matrix(), level).ok()?;
    let coarse = SanitizedMatrix::from_entries("coarse", 0.5, coarse);
    Some(match dpod_query::plan::execute(&coarse, inner) {
        Ok(answer) => Response::Answer { answer },
        Err(e) => Response::Error { message: e.0 },
    })
}

fn json(resp: &Response) -> Result<String, TestCaseError> {
    serde_json::to_string(resp).map_err(|e| TestCaseError::fail(e.to_string()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every coarse cell bit-equals a row-major child-order gather from
    /// 0.0, over arbitrary shapes and signed fractional fills — the
    /// determinism contract every routed answer rests on.
    #[test]
    fn coarse_cells_are_row_major_child_sums(
        dims in prop::collection::vec(1usize..8, 1..4),
        salt in any::<u32>(),
    ) {
        let shape = Shape::new(dims).unwrap();
        let values: Vec<f64> = (0..shape.size())
            .map(|i| {
                let h = (i as u64 + 1).wrapping_mul(2_654_435_761).wrapping_add(salt as u64);
                ((h % 10_000) as f64) / 11.0 - 450.0
            })
            .collect();
        let m = DenseMatrix::from_vec(shape, values).unwrap();
        let c = coarsen_once(&m);
        for coarse_coords in c.shape().iter_coords() {
            let mut acc = 0.0f64;
            for fine_coords in m.shape().iter_coords() {
                let is_child = fine_coords
                    .iter()
                    .zip(&coarse_coords)
                    .all(|(&f, &p)| f >> 1 == p);
                if is_child {
                    acc += m.get(&fine_coords).unwrap();
                }
            }
            prop_assert_eq!(
                c.get(&coarse_coords).unwrap().to_bits(),
                acc.to_bits(),
                "cell {:?}",
                coarse_coords
            );
        }
    }

    /// The routing contract: ANY drill-down — valid, past the root, or
    /// with a forbidden inner kind — answers bit-identically through
    /// the warm indexed backend, a cold scan, and the binary response
    /// codec; and when the level is valid, all of them bit-equal the
    /// inner plan executed over a hand-coarsened leaf.
    #[test]
    fn routed_drill_downs_match_coarsened_leaf_execution(
        release in (0usize..2).prop_map(|i| ["city", "odd"][i]),
        level in 0u32..6,
        inner in arb_inner(),
    ) {
        let plan = QueryPlan::DrillDown {
            level,
            plan: Box::new(inner.clone()),
        };
        let req = Request::Plan { release: release.to_string(), plan: plan.clone() };
        let served = server().handle(&req); // in-process, indexed backend
        let warm = json(&served)?;
        let cold = json(&cold_answer(release, &plan).expect("test releases exist"))?;
        prop_assert_eq!(&cold, &warm, "indexed routing drifted from cold scan");
        // The routed answer survives the binary codec bit-for-bit.
        let via_wire = wire::decode_response(&wire::encode_response(&served))
            .map_err(|e| TestCaseError::fail(e.0))?;
        prop_assert_eq!(&warm, &json(&via_wire)?);
        // And the request itself round-trips both codecs.
        let via_wire_req = wire::decode_request(&wire::encode_request(&req))
            .map_err(|e| TestCaseError::fail(e.0))?;
        prop_assert_eq!(&via_wire_req, &req);
        match coarsened_answer(release, level, &inner) {
            Some(reference) => {
                // A valid level: the routed answer (or error, for bad
                // inner coordinates/kinds) must bit-match executing the
                // inner plan on the hand-coarsened leaf — except the
                // kind rejection, which the drill validator names
                // differently than a bare unroutable plan would fail.
                if matches!(
                    inner,
                    QueryPlan::Range { .. } | QueryPlan::Marginal { .. } | QueryPlan::Total
                ) {
                    prop_assert_eq!(&warm, &json(&reference)?, "equivalence contract broken");
                } else {
                    prop_assert!(warm.contains("cannot drill down"), "{}", warm);
                }
            }
            None => {
                // Past the pyramid root: a named error — the inner
                // kind is validated first, so a forbidden kind keeps
                // its own rejection even at a bad level.
                if matches!(
                    inner,
                    QueryPlan::Range { .. } | QueryPlan::Marginal { .. } | QueryPlan::Total
                ) {
                    prop_assert!(warm.contains("exceeds the pyramid root"), "{}", warm);
                } else {
                    prop_assert!(warm.contains("cannot drill down"), "{}", warm);
                }
            }
        }
    }
}

/// End-to-end over real sockets: drill-down plans answer with the same
/// serialized bytes via in-process dispatch, a live NDJSON connection,
/// and a live `DPRB` connection, plain or packed — and match the
/// coarsened-leaf reference, with the pyramid hit counters proving the
/// coarse route.
#[test]
fn live_transports_agree_on_drill_downs() {
    for enc in [ResponseEncoding::Binary, ResponseEncoding::BinaryPacked] {
        live_drill_downs_agree(enc);
    }
}

fn live_drill_downs_agree(enc: ResponseEncoding) {
    let server = server();
    let handle = dpod_serve::spawn(Arc::clone(server), "127.0.0.1:0", 2).unwrap();
    let addr = handle.addr();

    let mut json = Client::connect(addr, ResponseEncoding::Json).unwrap();
    let mut binary = Client::connect(addr, enc).unwrap();

    let drills: Vec<(u32, QueryPlan)> = vec![
        (0, QueryPlan::Total),
        (1, QueryPlan::Marginal { keep: vec![0] }),
        (
            2,
            QueryPlan::Range {
                lo: vec![0, 0],
                hi: vec![4, 4],
            },
        ),
        (4, QueryPlan::Marginal { keep: vec![0, 1] }),
        // Errors must cross both wires verbatim too.
        (9, QueryPlan::Total),
        (1, QueryPlan::TopK { k: 2 }),
    ];
    for (level, inner) in drills {
        let req = Request::Plan {
            release: "city".to_string(),
            plan: QueryPlan::DrillDown {
                level,
                plan: Box::new(inner.clone()),
            },
        };
        let in_process = serde_json::to_string(&server.handle(&req)).unwrap();
        let via_ndjson = serde_json::to_string(&json.request(&req).unwrap()).unwrap();
        let via_binary = serde_json::to_string(&binary.request(&req).unwrap()).unwrap();
        assert_eq!(in_process, via_ndjson, "NDJSON drifted on {req:?}");
        assert_eq!(in_process, via_binary, "DPRB ({enc:?}) drifted on {req:?}");
        if let Some(reference) = coarsened_answer("city", level, &inner) {
            if matches!(
                inner,
                QueryPlan::Range { .. } | QueryPlan::Marginal { .. } | QueryPlan::Total
            ) {
                assert_eq!(
                    in_process,
                    serde_json::to_string(&reference).unwrap(),
                    "live serving drifted from the coarsened leaf on {req:?}"
                );
            }
        }
    }
    // The coarse levels answered above were routed through the pyramid
    // memo (level 0 short-circuits to the leaf and never touches it).
    let stats = server.snapshot();
    let pyramid = |name: &str| stats.get(name, &[("memo", "pyramid")]).unwrap();
    assert!(
        pyramid("dpod_engine_memo_hits_total") + pyramid("dpod_engine_memo_misses_total") >= 3.0,
        "coarse answers must route through the pyramid memo: {stats:?}"
    );
    assert!(pyramid("dpod_engine_memo_bytes") > 0.0);
    handle.stop();
}

/// Legacy back-compat: plan frames without a drill-down are pinned
/// byte-for-byte (tag table and payload layout unchanged), and the
/// legacy JSON document for the same plan carries no new keys.
#[test]
fn legacy_plan_wire_bytes_are_pinned() {
    let req = Request::Plan {
        release: "city".into(),
        plan: QueryPlan::Marginal { keep: vec![0, 1] },
    };
    // Hand-build the exact frame a pre-pyramid encoder produced:
    // opcode 0x05, length-prefixed release name, tag 0x03 Marginal,
    // usize slice payload.
    let mut w = FrameWriter::with_capacity(wire::WIRE_MAGIC, wire::WIRE_VERSION, 64);
    w.put_u8(0x05);
    w.put_bytes(b"city");
    w.put_u8(0x03);
    w.put_usize_slice(&[0, 1]);
    assert_eq!(
        wire::encode_request(&req),
        w.finish().to_vec(),
        "legacy Marginal plan frame drifted"
    );
    // The JSON document is unchanged too: no level key appears on
    // plans that do not drill down.
    assert_eq!(
        serde_json::to_string(&req).unwrap(),
        r#"{"Plan":{"release":"city","plan":{"Marginal":{"keep":[0,1]}}}}"#,
        "legacy Marginal plan JSON drifted"
    );
    // And the server's answer to it still frames as opcode 0x85.
    let resp = server().handle(&req);
    let encoded = wire::encode_response(&resp);
    assert_eq!(encoded[5], 0x85, "legacy Answer opcode moved");
}
