//! # dpod-serve
//!
//! The analyst-facing serving layer of the publication model (Fig. 1 of
//! the paper): a trusted curator *publishes* sanitized releases; untrusted
//! analysts *query* them — at volume. This crate turns the workspace's
//! one-shot `PublishedRelease` artifact into a long-lived service:
//!
//! * [`Catalog`] — a sharded, `RwLock`-striped in-memory store of named,
//!   versioned releases, with directory persistence via the `DPRL` binary
//!   frame (`dpod_fmatrix::codec::RELEASE_MAGIC`);
//! * [`QueryEngine`] — rebuilds a release into its queryable
//!   [`SanitizedMatrix`](dpod_core::SanitizedMatrix) (prefix-sum table
//!   included) on first access and memoizes it under an LRU byte budget,
//!   so steady-state range queries are `O(2^d)` lookups; beside each
//!   rebuild it caches the release's prepared
//!   [`ReleaseIndex`](dpod_query::ReleaseIndex) (memoized marginal
//!   tables with their own prefix sums, descending cell order, cached
//!   total) under the same budget, so warm aggregate plans skip the
//!   rescan entirely;
//! * [`Server`] — the request front end: an in-process [`Server::handle`]
//!   API driven directly by the CLI, tests and benches, plus two
//!   std-only TCP serving cores ([`spawn_with`], see [`FrontEnd`]): an
//!   epoll-driven event loop where open connections are cheap state
//!   served by a small worker pool, and a thread-per-connection pool
//!   that takes over where epoll is unavailable. Both frame bytes with
//!   one parser and answer through one executor, speaking
//!   newline-delimited JSON and/or the length-prefixed `DPRB` binary
//!   protocol ([`wire`]), selected per connection by a preamble sniff
//!   ([`WireMode`]).
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
pub use engine::{EngineStats, QueryEngine};
#[cfg(unix)]
pub use event::WRITE_BACKPRESSURE_BYTES;
pub use metrics::{spawn_metrics_exporter, MetricsExporter, ServeMetrics, Stage, Transport};
pub use series::{EpochInfo, SeriesLedgers, EPOCH_SEP};
pub use server::{
    spawn, spawn_retention_timer, spawn_wire, spawn_with, FrontEnd, ResponseEncoding, Server,
    ServerHandle, SpawnOptions, WireMode, DEFAULT_CACHE_BYTES, IDLE_TIMEOUT, MAX_LINE_BYTES,
    MAX_RELEASE_HIT_ENTRIES,
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
