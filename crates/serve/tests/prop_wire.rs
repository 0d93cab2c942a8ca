//! Property tests for the `DPRB` binary protocol: any request or
//! response round-trips through the binary codec, plain and packed
//! (stats snapshots through the NDJSON codec too); the binary path is
//! *JSON-path-equivalent* — an arbitrary request decoded from its binary
//! encoding produces, against a live server, exactly the answers (in
//! order) that the NDJSON encoding of the same request produces; and
//! mutated frame bodies never panic either decoder, and whatever still
//! decodes re-encodes to the same bytes; the client's response parser
//! yields the same responses however a stream is split.

use dpod_core::{grid::Ebp, Mechanism, PublishedRelease};
use dpod_dp::Epsilon;
use dpod_fmatrix::{DenseMatrix, Shape};
use dpod_obs::{MetricKind, Sample};
use dpod_query::{Answer, EpochSelector, QueryPlan, Region, TopCell, WindowMerge};
use dpod_serve::protocol::{ReleaseInfo, Request, Response, Snapshot};
use dpod_serve::{client, wire, Catalog, ResponseEncoding, Server};
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
fn arb_range() -> impl Strategy<Value = QueryPlan> {
    (0usize..4).prop_flat_map(|d| {
        (
            prop::collection::vec(0usize..12, d),
            prop::collection::vec(0usize..12, d),
        )
            .prop_map(|(lo, hi)| QueryPlan::Range { lo, hi })
    })
}

/// Plans: range counts dominate (alone and as `Many` batches of mixed
/// dimensionality, the shape a range-count workload sends), then one of
/// every other tag so each plan decoder branch meets the codecs.
fn arb_plan() -> impl Strategy<Value = QueryPlan> {
    (
        0usize..10,
        arb_range(),
        prop::collection::vec(arb_range(), 0..24),
        (0usize..9, 0u64..6, 0u32..4),
        prop::collection::vec(0usize..3, 0..3),
        (0usize..9, 0usize..9, 0usize..9, 0usize..9),
    )
        .prop_map(
            |(kind, range, ranges, (k, epoch, level), keep, (a, b, c, d))| match kind {
                0..=2 => range,
                3..=5 => QueryPlan::Many { plans: ranges },
                6 => QueryPlan::Total,
                7 => QueryPlan::TopK { k },
                8 => QueryPlan::Marginal { keep },
                _ => match epoch % 3 {
                    0 => QueryPlan::DrillDown {
                        level,
                        plan: Box::new(range),
                    },
                    1 => QueryPlan::Window {
                        select: EpochSelector::Range {
                            from: epoch,
                            to: epoch + k as u64,
                        },
                        merge: WindowMerge::PerEpoch,
                        plan: Box::new(QueryPlan::Marginal { keep }),
                    },
                    _ => QueryPlan::od()
                        .with_origin(Region::new((a, b), (c, d)))
                        .with_stop(k % 2, Region::new((b, a), (d, c))),
                },
            },
        )
}

fn arb_request() -> impl Strategy<Value = Request> {
    (0usize..8, arb_name(), arb_plan()).prop_map(|(kind, release, plan)| match kind {
        0..=5 => Request::Plan { release, plan },
        6 => Request::List,
        _ => Request::Stats,
    })
}

/// One answer leaf of every kind; top-k cells stay inside their domain
/// (the codec carries them as flat indices against `dims`).
fn arb_leaf_answer() -> impl Strategy<Value = Answer> {
    (
        0usize..3,
        prop::collection::vec(any::<f64>(), 0..32),
        prop::collection::vec(1usize..6, 0..4),
        prop::collection::vec(any::<u64>(), 0..6),
    )
        .prop_map(|(kind, values, dims, picks)| match kind {
            0 => Answer::Value {
                value: values.first().copied().unwrap_or(0.5),
            },
            1 => Answer::Marginal { dims, values },
            _ => Answer::TopK {
                cells: picks
                    .iter()
                    .zip(&values)
                    .map(|(&pick, &value)| TopCell {
                        coords: dims.iter().map(|&d| (pick % d as u64) as usize).collect(),
                        value,
                    })
                    .collect(),
                dims,
            },
        })
}

/// Answers: leaves, `Many` of leaves and per-epoch window answers.
fn arb_answer() -> impl Strategy<Value = Answer> {
    (
        0usize..4,
        arb_leaf_answer(),
        prop::collection::vec(arb_leaf_answer(), 0..4),
        prop::collection::vec(any::<u64>(), 0..4),
    )
        .prop_map(|(kind, leaf, answers, epochs)| match kind {
            0 | 1 => leaf,
            2 => Answer::Many { answers },
            _ => Answer::Epochs { epochs, answers },
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
        arb_answer(),
        arb_name(),
        0u64..1_000_000,
        prop::collection::vec(1usize..64, 0..4),
        arb_snapshot(),
    )
        .prop_map(|(kind, answer, name, counter, domain, stats)| match kind {
            0 | 1 => Response::Answer { answer },
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

    /// Binary response frames are lossless, down to f64 bit patterns,
    /// in the plain and the packed encoding alike.
    #[test]
    fn responses_round_trip_identically(resp in arb_response()) {
        for body in [wire::encode_response(&resp), wire::encode_response_packed(&resp)] {
            let via_wire = wire::decode_response(&body)
                .map_err(|e| TestCaseError::fail(e.0))?;
            prop_assert_eq!(&via_wire, &resp);
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The decoders on hostile bytes: every surviving request and
    /// response kind (packed answers and `0x88` snapshots included) is
    /// encoded, then mutated by a bit flip, a truncation or a bumped
    /// length field, and fed to both decoders. Neither may panic, and a
    /// body that still decodes must re-encode to exactly its own bytes
    /// (bytes, not values, so NaN payloads compare).
    #[test]
    fn mutated_bodies_decode_or_fail_without_panicking(
        req in arb_request(),
        resp in arb_response(),
        pick in 0usize..3,
        mutation in (0usize..3, any::<u64>(), any::<u64>()),
    ) {
        let body = match pick {
            0 => wire::encode_request(&req),
            1 => wire::encode_response(&resp),
            _ => wire::encode_response_packed(&resp),
        };
        let mutated = mutate(&body, mutation);
        if let Ok(req) = wire::decode_request(&mutated) {
            prop_assert_eq!(wire::encode_request(&req), mutated.clone(), "request {:?}", req);
        }
        if let Ok(resp) = wire::decode_response(&mutated) {
            let again = if mutated[5] == PACKED_ANSWER {
                wire::encode_response_packed(&resp)
            } else {
                wire::encode_response(&resp)
            };
            prop_assert_eq!(again, mutated, "response {:?}", resp);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The client's parser is split-invariant: a stream of responses in
    /// any encoding, intact or mutated, fed to `take_response` in chunks
    /// cut at random points yields exactly what one whole-buffer pass
    /// yields. An intact stream re-encodes to its own bytes, a truncated
    /// response is `None`, and a declared frame length over the cap is
    /// refused by name; no input panics.
    #[test]
    fn take_response_is_split_invariant(
        resps in prop::collection::vec(arb_response(), 1..4),
        pick in 0usize..3,
        cuts in prop::collection::vec(any::<u64>(), 0..8),
        at in any::<u64>(),
        mutation in (0usize..3, any::<u64>(), any::<u64>()),
        oversize in (wire::MAX_FRAME_BYTES + 1)..=u32::MAX,
    ) {
        let enc = ENCODINGS[pick];
        let stream: Vec<u8> = resps.iter().flat_map(|r| enc.encode(r)).collect();
        let whole = feed(enc, &stream, &[]);
        prop_assert_eq!(&feed(enc, &stream, &cuts), &whole);
        if whole.1.is_none() {
            prop_assert_eq!(whole.0.concat(), stream.clone());
        }
        let mutated = mutate(&stream, mutation);
        prop_assert_eq!(feed(enc, &mutated, &cuts), feed(enc, &mutated, &[]));

        let first = enc.encode(&resps[0]);
        let cut = (at % first.len() as u64) as usize;
        prop_assert!(matches!(client::take_response(enc, &first[..cut]), Ok(None)));
        if enc != ResponseEncoding::Json {
            let mut huge = oversize.to_le_bytes().to_vec();
            huge.extend_from_slice(&first[4..]);
            let err = client::take_response(enc, &huge).map(|_| ()).unwrap_err();
            prop_assert!(err.0.contains("exceeds max"), "{}", err);
        }
    }
}

/// A JSON line longer than the frame cap is refused by name, not
/// buffered without bound.
#[test]
fn json_lines_over_the_cap_are_refused() {
    let line = vec![b' '; wire::MAX_FRAME_BYTES as usize + 1];
    let err = client::take_response(ResponseEncoding::Json, &line)
        .map(|_| ())
        .unwrap_err();
    assert!(err.0.contains("exceeds max"), "{err}");
    let short = &line[..wire::MAX_FRAME_BYTES as usize];
    assert!(matches!(
        client::take_response(ResponseEncoding::Json, short),
        Ok(None)
    ));
}

const ENCODINGS: [ResponseEncoding; 3] = [
    ResponseEncoding::Json,
    ResponseEncoding::Binary,
    ResponseEncoding::BinaryPacked,
];

/// Feeds `bytes` to `take_response` in chunks ending at `cuts` (taken
/// modulo the length) and at the end, taking every complete response
/// after each chunk. Returns the responses re-encoded (bytes, not
/// values, so NaN payloads compare) and the error that stopped the
/// stream, if any.
fn feed(enc: ResponseEncoding, bytes: &[u8], cuts: &[u64]) -> (Vec<Vec<u8>>, Option<String>) {
    let mut ends: Vec<usize> = cuts
        .iter()
        .map(|&c| (c % (bytes.len() as u64 + 1)) as usize)
        .chain([bytes.len()])
        .collect();
    ends.sort_unstable();
    let (mut taken, mut pos) = (Vec::new(), 0);
    for end in ends {
        loop {
            match client::take_response(enc, &bytes[pos..end]) {
                Ok(Some((resp, used))) => {
                    taken.push(enc.encode(&resp));
                    pos += used;
                }
                Ok(None) => break,
                Err(e) => return (taken, Some(e.0)),
            }
        }
    }
    (taken, None)
}

/// The packed answer opcode: the one response the packed encoder emits
/// differently from the plain one.
const PACKED_ANSWER: u8 = 0x87;

/// Applies one mutation to a frame body: `kind` 0 flips one bit, 1 cuts
/// the body short, and 2 adds a signed delta to one little-endian `u64`
/// word that reads like a length or count (below 2²⁰), past the
/// 6-byte header.
fn mutate(body: &[u8], (kind, at, delta): (usize, u64, u64)) -> Vec<u8> {
    let mut out = body.to_vec();
    match kind {
        0 => {
            let bit = at % (out.len() as u64 * 8);
            out[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        1 => out.truncate((at % out.len() as u64) as usize),
        _ => {
            let word = |p: usize| u64::from_le_bytes(out[p..p + 8].try_into().expect("8 bytes"));
            let lengths: Vec<usize> = (6..out.len().saturating_sub(7))
                .filter(|&p| word(p) < 1 << 20)
                .collect();
            if let Some(&p) = lengths.get((at % lengths.len().max(1) as u64) as usize) {
                // Mostly small nudges either way, sometimes a huge claim.
                let delta = match delta % 4 {
                    0 => 1,
                    1 => u64::MAX,
                    2 => delta % 64,
                    _ => delta,
                };
                let bumped = word(p).wrapping_add(delta);
                out[p..p + 8].copy_from_slice(&bumped.to_le_bytes());
            }
        }
    }
    out
}
