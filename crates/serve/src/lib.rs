//! # dpod-serve
//!
//! The analyst-facing serving layer of the publication model (Fig. 1 of
//! the paper): a trusted curator *publishes* sanitized releases; untrusted
//! analysts *query* them — at volume. This crate turns the workspace's
//! one-shot `PublishedRelease` artifact into a long-lived service:
//!
//! * [`Catalog`] — one `RwLock`-guarded in-memory store of named,
//!   versioned releases, with directory persistence via the `DPRL` binary
//!   frame (`dpod_fmatrix::codec::RELEASE_MAGIC`); each [`CatalogEntry`]
//!   also carries its release's answered-query count;
//! * [`QueryEngine`] — caches each release as its prepared
//!   [`ReleaseIndex`](dpod_query::ReleaseIndex) (the rebuilt matrix with
//!   lazily memoized aggregate tables) plus one memo of plan answers and
//!   response bytes, under an LRU byte budget, so warm plans are table
//!   lookups or a memcpy;
//! * [`Server`] — the request front end: an in-process [`Server::handle`]
//!   API driven directly by the CLI, tests and benches, plus two
//!   std-only TCP serving cores ([`spawn_with`], see [`FrontEnd`]): an
//!   epoll-driven event loop whose shards each accept from their own
//!   `SO_REUSEPORT` listener, own open connections as cheap state and
//!   answer their requests, and a thread-per-connection pool, the only
//!   core where epoll is unavailable. Both frame bytes with one parser,
//!   answer through one executor and stop through one drain, speaking
//!   newline-delimited JSON and/or the length-prefixed `DPRB` binary
//!   protocol ([`wire`]), selected per connection by a preamble sniff
//!   ([`WireMode`]).
//! * [`Client`] — the analyst side: one connection in any
//!   [`ResponseEncoding`], framing through the socket-free
//!   [`client::encode_request`]/[`client::take_response`] pair.
//!
//! Every transport serves the same typed query algebra: a
//! [`Request::Plan`](protocol::Request::Plan) carries any
//! [`QueryPlan`](dpod_query::QueryPlan) (range sum, OD query, axis
//! marginal, top-k, total, or a `Many` batch) and answers come back as
//! the matching [`Answer`](dpod_query::Answer) variant — bit-identical
//! whether the plan arrived in-process, as NDJSON, or as `DPRB` frames.
//! The algebra itself lives in `dpod-query` (`dpod_query::plan`), so
//! in-process analysts need no server at all.
//!
//! Everything released through this crate is DP post-processing: the
//! catalog stores only `PublishedRelease` artifacts, never raw counts.

#![warn(missing_docs)]
#![warn(clippy::all)]

mod catalog;
pub mod client;
mod conn;
mod engine;
#[cfg(unix)]
mod event;
pub mod metrics;
pub mod protocol;
pub mod series;
mod server;
pub mod wire;

pub use catalog::{Catalog, CatalogEntry, SaveReport};
pub use client::Client;
pub use engine::{EngineStats, QueryEngine};
#[cfg(unix)]
pub use event::WRITE_BACKPRESSURE_BYTES;
pub use metrics::{spawn_metrics_exporter, MetricsExporter, ServeMetrics, Stage, Transport};
pub use series::{EpochInfo, EPOCH_SEP};
pub use server::{
    spawn, spawn_with, FrontEnd, ResponseEncoding, Server, ServerHandle, SpawnOptions, WireMode,
    DEFAULT_CACHE_BYTES, IDLE_TIMEOUT, MAX_LINE_BYTES,
};

/// Serving-layer error: a displayable message naming the failing operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError(pub String);

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ServeError {}

impl From<String> for ServeError {
    fn from(s: String) -> Self {
        ServeError(s)
    }
}

impl From<&str> for ServeError {
    fn from(s: &str) -> Self {
        ServeError(s.to_string())
    }
}
