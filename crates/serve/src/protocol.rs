//! The wire protocol: one request/response vocabulary, two encodings.
//!
//! The [`Request`]/[`Response`] types here are the whole analyst
//! surface; they drive the in-process
//! [`Server::handle`](crate::Server::handle) path directly, and both TCP
//! encodings are just serialization around it. The server answers every
//! request with exactly one response, in order, so a client can pipeline
//! an entire batch and read answers back positionally.
//!
//! ## The typed query algebra ([`Request::Plan`])
//!
//! Every query is a [`QueryPlan`] from `dpod-query`'s typed algebra —
//! the one vocabulary every transport shares. A bare range count is a
//! `Range` leaf, and many of them travel as one `Many`:
//!
//! | plan | answer |
//! |------|--------|
//! | `Range { lo, hi }` | `Value` — estimated count in the box |
//! | `Od { origin, stops, destination }` | `Value` — OD query lowered through `dpod_query::od` |
//! | `Marginal { keep }` | `Marginal` — kept dims + row-major estimates |
//! | `TopK { k }` | `TopK` — k largest cells, descending, deterministic ties |
//! | `Total` | `Value` — full-domain estimate |
//! | `Many { plans }` | `Many` — sub-answers in order (plans do not nest) |
//! | `DrillDown { level, plan }` | inner plan's answer, routed to pyramid level `level` |
//!
//! The same plan executed in-process, over NDJSON, or over `DPRB`
//! produces bit-identical answers (a property test pins this). In-process
//! users who do not need a server can call
//! [`dpod_query::plan::execute`] directly.
//!
//! ## Encoding 1: newline-delimited JSON (the default)
//!
//! One JSON document per line:
//!
//! ```text
//! → {"Plan":{"release":"city","plan":{"Range":{"lo":[0,0],"hi":[4,4]}}}}
//! ← {"Answer":{"answer":{"Value":{"value":812.4375}}}}
//! → {"Plan":{"release":"city","plan":{"TopK":{"k":3}}}}
//! ← {"Answer":{"answer":{"TopK":{"dims":[8,8],"cells":[…]}}}}
//! → "List"
//! ← {"Releases":{"releases":[…]}}
//! ```
//!
//! A line that is not one of these documents is answered with one
//! [`Response::Error`], and the connection keeps serving.
//!
//! ## Encoding 2: `DPRB` binary frames (see [`crate::wire`])
//!
//! A connection that opens with the 5-byte preamble `"DPRB" + version`
//! switches to length-prefixed binary frames for its lifetime:
//!
//! ```text
//! preamble:  "DPRB"  u8 version            (client → server, once)
//! frame:     u32 len | "DPRB" u8 version u8 opcode payload…
//! ```
//!
//! Plans ride opcode `0x05` and answers opcode `0x85`, with raw
//! encodings for the hot variants: a marginal answer is a raw `f64`
//! vector, a top-k answer is packed flat-index/value pairs. The server
//! sniffs the first four bytes of each connection; only an exact `DPRB`
//! preamble selects binary framing, and no JSON document can begin with
//! those bytes. Both encodings answer from the same catalog with
//! bit-identical values, so clients can switch per connection
//! ([`dpod_serve::Client`](crate::Client) speaks both).
//! The full field-by-field layout is documented in [`crate::wire`].
//!
//! ## Introspection
//!
//! [`Request::Stats`] is answered with the server's metrics [`Snapshot`]
//! — the same families and samples `/metrics` renders (see
//! [`crate::metrics`]). Introspection frames follow the server version:
//! snapshots travel as opcode `0x88` over `DPRB` and as the serde form
//! over NDJSON.

pub use dpod_obs::Snapshot;
use dpod_query::{Answer, QueryPlan};
use serde::{Deserialize, Serialize};

/// One analyst request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// A typed [`QueryPlan`] against the named release — the full
    /// algebra (range, OD, marginal, top-k, total, `Many` batches).
    Plan {
        /// Catalog name of the release.
        release: String,
        /// The plan to execute.
        plan: QueryPlan,
    },
    /// Enumerate the catalog.
    List,
    /// Server and cache counters.
    Stats,
}

/// One server response (same order as requests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::Plan`], variant-matched to the plan shape.
    Answer {
        /// The typed answer.
        answer: Answer,
    },
    /// Answer to [`Request::List`].
    Releases {
        /// Catalog contents, sorted by name.
        releases: Vec<ReleaseInfo>,
    },
    /// Answer to [`Request::Stats`].
    Stats {
        /// Every metric family, as `/metrics` renders it.
        stats: Snapshot,
    },
    /// Any failure; the connection stays usable.
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// Catalog metadata exposed to analysts (all post-processing safe).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReleaseInfo {
    /// Catalog name.
    pub name: String,
    /// Current version.
    pub version: u64,
    /// Producing mechanism.
    pub mechanism: String,
    /// Privacy budget the release consumed.
    pub epsilon: f64,
    /// Domain cardinalities.
    pub domain: Vec<usize>,
    /// Number of released values.
    pub released_values: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpod_obs::MetricKind;

    #[test]
    fn requests_round_trip_as_json() {
        let reqs = vec![
            Request::Plan {
                release: "city".into(),
                plan: QueryPlan::Range {
                    lo: vec![0, 0],
                    hi: vec![4, 4],
                },
            },
            Request::Plan {
                release: "city".into(),
                plan: QueryPlan::Many {
                    plans: vec![
                        QueryPlan::Total,
                        QueryPlan::TopK { k: 3 },
                        QueryPlan::Marginal { keep: vec![0] },
                        dpod_query::QueryPlan::od()
                            .with_origin(dpod_query::Region::new((0, 0), (2, 2))),
                    ],
                },
            },
            Request::List,
            Request::Stats,
        ];
        for r in reqs {
            let line = serde_json::to_string(&r).unwrap();
            assert!(!line.contains('\n'), "{line}");
            let back: Request = serde_json::from_str(&line).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn responses_round_trip_as_json() {
        let resps = vec![
            Response::Answer {
                answer: Answer::Value { value: 12.5 },
            },
            Response::Answer {
                answer: Answer::Many {
                    answers: vec![
                        Answer::Value { value: 3.5 },
                        Answer::Marginal {
                            dims: vec![2],
                            values: vec![1.5, 2.0],
                        },
                        Answer::TopK {
                            dims: vec![2, 2],
                            cells: vec![dpod_query::TopCell {
                                coords: vec![1, 1],
                                value: 9.0,
                            }],
                        },
                    ],
                },
            },
            Response::Releases {
                releases: vec![ReleaseInfo {
                    name: "city".into(),
                    version: 3,
                    mechanism: "EBP".into(),
                    epsilon: 0.5,
                    domain: vec![8, 8],
                    released_values: 16,
                }],
            },
            Response::Stats {
                stats: {
                    let mut snap = Snapshot::default();
                    snap.family("dpod_requests_total", "requests", MetricKind::Counter)
                        .sample(&[("transport", "json"), ("kind", "stats")], 3.0);
                    snap
                },
            },
            Response::Error {
                message: "unknown release".into(),
            },
        ];
        for r in resps {
            let line = serde_json::to_string(&r).unwrap();
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(back, r);
        }
    }
}
