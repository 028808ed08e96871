//! `nc-serve`: a concurrent dataset-carving service.
//!
//! The paper's end product is a *service*: users request customized
//! test datasets of a chosen dirtiness (NC1/NC2/NC3), carved out of a
//! versioned cluster store, and versioning metadata keeps every
//! published dataset reconstructible (Sections 4–5). This crate turns
//! the in-process pipeline into that service:
//!
//! * [`snapshot`] — versioned snapshot reads. An `Arc`-swapped,
//!   immutable [`snapshot::ServeSnapshot`] (a
//!   [`nc_core::snapshot::StoreSnapshot`] plus its deterministic
//!   entropy scorer) is published into a [`snapshot::SnapshotRegistry`];
//!   carve requests clone the `Arc` under a brief read lock and then
//!   run entirely lock-free against a consistent version while newer
//!   snapshots are published underneath.
//! * [`carve`] + [`cache`] — the carve engine. A request names a
//!   version, customization parameters (explicit bounds or the
//!   `nc1`/`nc2`/`nc3` presets) and a page window. A canonical
//!   predicate fingerprint ([`nc_core::md5`] over the pinned version
//!   and the bit-exact parameters) keys a bounded LRU cache of carve
//!   results, so warm requests skip the cluster scan entirely;
//!   hit/miss/eviction counters are exported via `/metrics`.
//! * [`http`] + [`server`] — a from-scratch HTTP/1.1 front end over
//!   `std::net::TcpListener` (no dependencies). `GET /healthz`,
//!   `GET /metrics` (text counters and per-endpoint latency
//!   histograms), `POST /carve` and `GET /datasets/{nc1|nc2|nc3}`
//!   return paginated labeled records as JSON lines. A JSON body on
//!   `POST /carve` switches to *carve-by-query*: the document is
//!   compiled by [`nc_query`] into an index-aware plan over the
//!   snapshot's cluster catalog, and `POST /carve/explain` reports that
//!   plan (indexed vs scanned conjuncts, estimated rows) without
//!   executing it. Shutdown is graceful: the acceptor stops, queued
//!   and in-flight requests are drained, then the workers exit.
//! * **Change deltas** — a publish can carry a
//!   [`snapshot::PublishDelta`] naming the clusters founded and
//!   revised since the previous version. The carve engine uses it to
//!   reconcile the warm cache across versions (carry forward carves
//!   whose sampled clusters are untouched, bit-identically; invalidate
//!   entries for retention-evicted versions), and
//!   `GET /watch?from=<version>` streams the recorded delta window as
//!   chunked JSON lines so subscribers can catch up incrementally —
//!   or learn (via `410 Gone`) that they must re-fetch a full carve.
//!
//! Requests are dispatched over a bounded channel to a worker pool
//! sized by [`nc_core::scoring::ScoringConfig`] — the same "0 means
//! hardware parallelism, degrade to inline on one core" machinery the
//! scoring pool uses.
//!
//! Correctness invariant (asserted by `tests/serve.rs`): a carve
//! response pinned to version `v` is **bit-identical** to calling
//! [`nc_core::customize::customize`] directly against the version-`v`
//! store with the same parameters — cached or not, from any number of
//! concurrent clients.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod carve;
pub mod fingerprint;
pub mod http;
pub mod metrics;
pub mod server;
pub mod snapshot;

pub use carve::{
    CacheStatus, CarveEngine, CarveError, CarveOutcome, CarveRequest, CarveResult, DeltaStats,
    QueryCarve, QueryStats, Recipe,
};
pub use fingerprint::{knob_fingerprint, query_fingerprint};
pub use server::{Server, ServerHandle, ServeConfig, ServeState};
pub use snapshot::{PublishDelta, ServeSnapshot, SnapshotRegistry, WatchWindow};
