//! Property tests for the `DPRB` binary protocol: any request or
//! response round-trips through the binary codec (stats snapshots
//! through the NDJSON codec too), and the binary path is
//! *JSON-path-equivalent* — an arbitrary request decoded from its binary
//! encoding produces, against a live server, exactly the answers (in
//! order) that the NDJSON encoding of the same request produces.

use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
use dpod_dp::Epsilon;
use dpod_fmatrix::{DenseMatrix, Shape};
use dpod_obs::{MetricKind, Sample};
use dpod_serve::protocol::{ReleaseInfo, Request, Response, Snapshot};
use dpod_serve::{wire, Catalog, Server};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// A shared reference server: two 8×8 releases under the names the
/// request strategy likes to draw.
fn server() -> &'static Server {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER.get_or_init(|| {
        let catalog = Catalog::new();
        for (i, name) in ["city", "transit"].into_iter().enumerate() {
            let shape = Shape::new(vec![8, 8]).unwrap();
            let mut m = DenseMatrix::<u64>::zeros(shape);
            m.add_at(&[i, 7 - i], 400).unwrap();
            let out = Ebp::default()
                .sanitize(
                    &m,
                    Epsilon::new(0.5).unwrap(),
                    &mut dpod_dp::seeded_rng(30 + i as u64),
                )
                .unwrap();
            catalog.publish(name, PublishedRelease::from_sanitized(&out));
        }
        Server::new(Arc::new(catalog), 1 << 22)
    })
}

/// Release names: mostly catalogued ones, sometimes unknown or empty so
/// the error paths are exercised too.
fn arb_name() -> impl Strategy<Value = String> {
    (0usize..5, prop::collection::vec(0u32..36, 0..10)).prop_map(|(kind, raw)| match kind {
        0 | 1 => "city".to_string(),
        2 => "transit".to_string(),
        3 => String::new(),
        _ => raw
            .iter()
            .map(|c| char::from_digit(*c, 36).expect("digit < 36"))
            .collect(),
    })
}

/// One range: 0–3 dimensions, coordinates straying past the 8×8 domain
/// so in-domain, out-of-domain and lo>hi corners all occur.
fn arb_range() -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    (0usize..4).prop_flat_map(|d| {
        (
            prop::collection::vec(0usize..12, d),
            prop::collection::vec(0usize..12, d),
        )
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    (
        0usize..8,
        arb_name(),
        prop::collection::vec(arb_range(), 0..24),
        arb_range(),
    )
        .prop_map(|(kind, release, ranges, single)| match kind {
            0 | 1 => Request::Query {
                release,
                lo: single.0,
                hi: single.1,
            },
            // Batches dominate: they are the protocol's reason to exist,
            // and mixing per-range dimensionality exercises both the
            // packed and the heterogeneous encodings.
            2..=5 => Request::Batch { release, ranges },
            6 => Request::List,
            _ => Request::Stats,
        })
}

/// Snapshots: 0–3 families of every kind, 0–3 samples each with 0–2
/// labels, names and label values drawn from the release-name pool
/// (empty and odd strings included), finite values.
fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    let sample = (
        arb_name(),
        prop::collection::vec((arb_name(), arb_name()), 0..3),
        any::<f64>(),
    );
    let family = (
        arb_name(),
        arb_name(),
        0usize..3,
        prop::collection::vec(sample, 0..4),
    );
    prop::collection::vec(family, 0..4).prop_map(|families| {
        let mut snap = Snapshot::default();
        for (name, help, kind, samples) in families {
            let kind = [MetricKind::Counter, MetricKind::Gauge, MetricKind::Summary][kind];
            snap.family(&name, &help, kind).samples = samples
                .into_iter()
                .map(|(name, labels, value)| Sample {
                    name,
                    labels,
                    value,
                })
                .collect();
        }
        snap
    })
}

fn arb_response() -> impl Strategy<Value = Response> {
    (
        0usize..5,
        prop::collection::vec(any::<f64>(), 0..32),
        arb_name(),
        0u64..1_000_000,
        prop::collection::vec(1usize..64, 0..4),
        arb_snapshot(),
    )
        .prop_map(|(kind, values, name, counter, domain, stats)| match kind {
            0 => Response::Value {
                value: values.first().copied().unwrap_or(0.5),
            },
            1 => Response::Values { values },
            2 => Response::Releases {
                releases: vec![ReleaseInfo {
                    name: name.clone(),
                    version: counter,
                    mechanism: name,
                    epsilon: 0.25,
                    released_values: domain.iter().product(),
                    domain,
                }],
            },
            3 => Response::Stats { stats },
            _ => Response::Error { message: name },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Binary and JSON encodings decode to the same `Request` value.
    #[test]
    fn requests_round_trip_identically(req in arb_request()) {
        let via_wire = wire::decode_request(&wire::encode_request(&req))
            .map_err(|e| TestCaseError::fail(e.0))?;
        prop_assert_eq!(&via_wire, &req);
        let json = serde_json::to_string(&req)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let via_json: Request = serde_json::from_str(&json)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&via_json, &via_wire);
    }

    /// Binary response frames are lossless, down to f64 bit patterns.
    #[test]
    fn responses_round_trip_identically(resp in arb_response()) {
        let via_wire = wire::decode_response(&wire::encode_response(&resp))
            .map_err(|e| TestCaseError::fail(e.0))?;
        prop_assert_eq!(&via_wire, &resp);
    }

    /// A stats snapshot survives both codecs unchanged: `0x88` frames
    /// and the NDJSON serde form.
    #[test]
    fn snapshots_round_trip_through_both_codecs(stats in arb_snapshot()) {
        let resp = Response::Stats { stats };
        let via_wire = wire::decode_response(&wire::encode_response(&resp))
            .map_err(|e| TestCaseError::fail(e.0))?;
        prop_assert_eq!(&via_wire, &resp);
        let json = serde_json::to_string(&resp)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let via_json: Response = serde_json::from_str(&json)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&via_json, &resp);
    }

    /// The tentpole equivalence: for ANY request — batches of arbitrary
    /// (even degenerate) ranges included — the server's answer to the
    /// binary-decoded request is JSON-path-equivalent to its answer to
    /// the NDJSON-decoded request: same variant, same values, same
    /// order, same serialized bytes.
    #[test]
    fn wire_and_json_paths_answer_identically(req in arb_request()) {
        let json = serde_json::to_string(&req)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let via_json: Request = serde_json::from_str(&json)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let via_wire = wire::decode_request(&wire::encode_request(&req))
            .map_err(|e| TestCaseError::fail(e.0))?;

        let json_answer = server().handle(&via_json);
        let wire_answer = server().handle(&via_wire);
        // The binary answer, once more through its own codec (as the TCP
        // path would carry it), serializes to the same JSON document the
        // NDJSON path would have written.
        let wire_answer = wire::decode_response(&wire::encode_response(&wire_answer))
            .map_err(|e| TestCaseError::fail(e.0))?;
        let a = serde_json::to_string(&json_answer)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let b = serde_json::to_string(&wire_answer)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(a, b);
    }
}
