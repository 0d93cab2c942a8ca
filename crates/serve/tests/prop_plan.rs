//! Property tests for the typed query algebra: every [`QueryPlan`]
//! variant answers **bit-identically** across the transports —
//! in-process [`Server::handle`], newline-delimited JSON, and `DPRB`
//! binary frames, plain and packed.

use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
use dpod_dp::Epsilon;
use dpod_fmatrix::{DenseMatrix, Shape};
use dpod_query::{QueryPlan, Region};
use dpod_serve::protocol::{Request, Response};
use dpod_serve::{wire, Catalog, Client, ResponseEncoding, Server};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// A shared reference server: a 2-D release ("city", 8×8) and a 4-D
/// OD release ("od", 6^4) so OD and marginal plans have real targets.
fn server() -> &'static Arc<Server> {
    static SERVER: OnceLock<Arc<Server>> = OnceLock::new();
    SERVER.get_or_init(|| {
        let catalog = Catalog::new();
        let mut flat = DenseMatrix::<u64>::zeros(Shape::new(vec![8, 8]).unwrap());
        flat.add_at(&[2, 5], 300).unwrap();
        let mut od = DenseMatrix::<u64>::zeros(Shape::cube(4, 6).unwrap());
        od.add_at(&[0, 1, 4, 5], 150).unwrap();
        od.add_at(&[3, 3, 2, 2], 90).unwrap();
        for (name, matrix, seed) in [("city", flat, 40u64), ("od", od, 41)] {
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

/// Mostly-real release names with a sprinkling of unknown ones.
fn arb_name() -> impl Strategy<Value = String> {
    (0usize..6).prop_map(|kind| match kind {
        0 | 1 => "city".to_string(),
        2 | 3 => "od".to_string(),
        4 => "missing".to_string(),
        _ => String::new(),
    })
}

/// Regions both inside and straying past the 6×6 / 8×8 grids, inverted
/// corners included, so error paths must agree across transports too.
fn arb_region() -> impl Strategy<Value = Region> {
    (0usize..10, 0usize..10, 0usize..10, 0usize..10)
        .prop_map(|(a, b, c, d)| Region::new((a, b), (c, d)))
}

/// One leaf plan of every variant (never `Many`; that nests via
/// `arb_plan`). Coordinates deliberately stray out of domain.
fn arb_leaf() -> impl Strategy<Value = QueryPlan> {
    let range = (0usize..5).prop_flat_map(|d| {
        (
            prop::collection::vec(0usize..10, d),
            prop::collection::vec(0usize..10, d),
        )
    });
    let od = (
        any::<bool>(),
        arb_region(),
        any::<bool>(),
        arb_region(),
        prop::collection::vec((0usize..3, arb_region()), 0..3),
    )
        .prop_map(|(has_o, o, has_d, d, stops)| QueryPlan::Od {
            origin: has_o.then_some(o),
            stops,
            destination: has_d.then_some(d),
        });
    (
        0usize..5,
        range,
        od,
        prop::collection::vec(0usize..6, 0..4),
        0usize..80,
    )
        .prop_map(|(kind, (lo, hi), od, keep, k)| match kind {
            0 => QueryPlan::Range { lo, hi },
            1 => od,
            2 => QueryPlan::Marginal { keep },
            3 => QueryPlan::TopK { k },
            _ => QueryPlan::Total,
        })
}

fn arb_plan() -> impl Strategy<Value = QueryPlan> {
    (
        0usize..4,
        arb_leaf(),
        prop::collection::vec(arb_leaf(), 0..6),
    )
        .prop_map(|(kind, leaf, plans)| match kind {
            0 => QueryPlan::Many { plans },
            _ => leaf,
        })
}

/// The cold reference executor: rebuilds the named release's matrix and
/// answers through the un-prepared [`ScanBackend`] path — exactly what
/// the server did before the `ReleaseIndex` existed.
fn cold_answer(release: &str, plan: &dpod_query::QueryPlan) -> Option<Response> {
    let entry = server().catalog().get(release)?;
    let matrix = entry.release.as_ref().clone().into_sanitized().unwrap();
    Some(match dpod_query::plan::execute(&matrix, plan) {
        Ok(answer) => Response::Answer { answer },
        Err(e) => Response::Error { message: e.0 },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The prepare/execute tentpole: ANY plan answered by the server's
    /// warm `ReleaseIndex` backend is **bit-identical** (the serialized
    /// shortest-round-trip floats compare equal, i.e. the same f64 bit
    /// patterns) to a cold `ScanBackend` execution over a fresh rebuild
    /// of the same release — and stays identical through both wire
    /// codecs, so all three transports serve the cold answers.
    #[test]
    fn indexed_serving_matches_cold_scan(release in arb_name(), plan in arb_plan()) {
        let req = Request::Plan { release: release.clone(), plan: plan.clone() };
        let served = server().handle(&req); // in-process, indexed backend
        if let Some(cold) = cold_answer(&release, &plan) {
            let cold = serde_json::to_string(&cold)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let warm = serde_json::to_string(&served)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&cold, &warm, "indexed backend drifted from cold scan");
            // The cold answer also survives the binary response codec —
            // what a DPRB client receives — and the JSON line codec.
            let via_wire = wire::decode_response(&wire::encode_response(&served))
                .map_err(|e| TestCaseError::fail(e.0))?;
            let via_wire = serde_json::to_string(&via_wire)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&cold, &via_wire);
            let via_json: Response = serde_json::from_str(&warm)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            let via_json = serde_json::to_string(&via_json)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(&cold, &via_json);
        } else {
            prop_assert!(matches!(served, Response::Error { .. }));
        }
    }

    /// A `Plan` request survives both codecs unchanged.
    #[test]
    fn plan_requests_round_trip_identically(release in arb_name(), plan in arb_plan()) {
        let req = Request::Plan { release, plan };
        let via_wire = wire::decode_request(&wire::encode_request(&req))
            .map_err(|e| TestCaseError::fail(e.0))?;
        prop_assert_eq!(&via_wire, &req);
        let json = serde_json::to_string(&req)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let via_json: Request = serde_json::from_str(&json)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&via_json, &via_wire);
    }

    /// The tentpole equivalence: ANY plan — valid, out-of-domain, or
    /// structurally wrong — answers identically whether it reaches the
    /// server through the JSON codec or the binary codec, and the
    /// answer survives the binary response codec bit-for-bit (the
    /// packed marginal vectors and top-k index/value pairs included).
    #[test]
    fn plan_answers_are_transport_invariant(release in arb_name(), plan in arb_plan()) {
        let req = Request::Plan { release, plan };
        let json = serde_json::to_string(&req)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let via_json: Request = serde_json::from_str(&json)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let via_wire = wire::decode_request(&wire::encode_request(&req))
            .map_err(|e| TestCaseError::fail(e.0))?;

        let json_answer = server().handle(&via_json);
        let wire_answer = server().handle(&via_wire);
        let wire_answer = wire::decode_response(&wire::encode_response(&wire_answer))
            .map_err(|e| TestCaseError::fail(e.0))?;
        let a = serde_json::to_string(&json_answer)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let b = serde_json::to_string(&wire_answer)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(a, b);
    }
}

/// End-to-end over real sockets: every plan variant answers with the
/// same serialized bytes via in-process dispatch, a live NDJSON
/// connection, and a live `DPRB` connection, plain or packed.
#[test]
fn live_transports_agree_on_every_variant() {
    for enc in [ResponseEncoding::Binary, ResponseEncoding::BinaryPacked] {
        live_transports_agree(enc);
    }
}

fn live_transports_agree(enc: ResponseEncoding) {
    let server = server();
    let handle = dpod_serve::spawn(Arc::clone(server), "127.0.0.1:0", 2).unwrap();
    let addr = handle.addr();

    let mut json = Client::connect(addr, ResponseEncoding::Json).unwrap();
    let mut binary = Client::connect(addr, enc).unwrap();

    let plans = vec![
        QueryPlan::Range {
            lo: vec![0, 0],
            hi: vec![8, 8],
        },
        QueryPlan::Total,
        QueryPlan::TopK { k: 5 },
        QueryPlan::Marginal { keep: vec![0] },
        QueryPlan::Marginal { keep: vec![0, 1] },
        QueryPlan::Many {
            plans: vec![
                QueryPlan::Total,
                QueryPlan::TopK { k: 2 },
                QueryPlan::Marginal { keep: vec![1] },
            ],
        },
        // Errors must cross both wires verbatim too.
        QueryPlan::Marginal { keep: vec![7] },
    ];
    for (release, od_only) in [("city", false), ("od", true)] {
        let mut plans = plans.clone();
        if od_only {
            plans.push(
                QueryPlan::od()
                    .with_origin(Region::new((0, 0), (3, 3)))
                    .with_destination(Region::new((2, 2), (6, 6))),
            );
            plans.push(QueryPlan::Marginal { keep: vec![2, 3] });
        }
        for plan in plans {
            let cold = cold_answer(release, &plan).map(|r| serde_json::to_string(&r).unwrap());
            let req = Request::Plan {
                release: release.to_string(),
                plan,
            };
            let in_process = serde_json::to_string(&server.handle(&req)).unwrap();
            let via_ndjson = serde_json::to_string(&json.request(&req).unwrap()).unwrap();
            let via_binary = serde_json::to_string(&binary.request(&req).unwrap()).unwrap();
            assert_eq!(in_process, via_ndjson, "NDJSON drifted on {req:?}");
            assert_eq!(in_process, via_binary, "DPRB ({enc:?}) drifted on {req:?}");
            // Live sockets serve the indexed backend; every transport
            // must still produce the cold ScanBackend bytes.
            assert_eq!(
                cold.expect("test releases exist"),
                in_process,
                "indexed serving drifted from cold scan on {req:?}"
            );
        }
    }
    handle.stop();
}
