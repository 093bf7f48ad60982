//! # d3l-server — concurrent query serving over the persistent store
//!
//! The paper positions D3L as an interactive discovery service over a
//! live data lake; this crate is the long-lived process that makes it
//! one. It is dependency-free (`std::net` + the workspace's own wire
//! codecs) and serves a [`D3l`] engine cold-started from an
//! [`IndexStore`] directory behind a copy-on-write hot-swap
//! ([`EngineHandle`]), so:
//!
//! * queries run **lock-free** on an immutable engine snapshot —
//!   concurrent mutations can never tear the state a query observes;
//! * mutations persist through the store (delta append / compact)
//!   *before* the swapped-in engine answers, so a 2xx implies
//!   read-your-writes and a crash never loses an acknowledged write;
//!   the serving process is the one writer of its index directory, and
//!   a segment another process wrote there refuses the next write
//!   with a 409; a write that finds [`FOLD_SEGMENTS`] segments pending
//!   folds them into the base first, whether an endpoint or the
//!   watcher made it, so the store never holds more;
//! * results are **byte-identical** to in-process
//!   [`D3l::query_with`] at every worker-thread count — the
//!   determinism suite compares response bodies bit-for-bit;
//! * repeated queries hit a versioned result cache
//!   (`d3l_core::cache`) whose keys carry the hot-swap engine
//!   version, so mutations invalidate exactly and a hit is
//!   byte-identical to the uncached rendering by construction;
//! * load is **admission-controlled**: connections beyond the
//!   bounded pending queue are shed with a typed 503 +
//!   `Retry-After` instead of queueing unboundedly, and a fairness
//!   quantum rotates pipelining keep-alive connections so one client
//!   cannot starve the worker pool;
//! * the process is **observable**: lock-free latency histograms
//!   (`d3l_telemetry`) cover every endpoint, the three query-pipeline
//!   stages and store operations, exposed in
//!   Prometheus text format at `GET /metrics`; every response carries
//!   `X-Request-Id` (client-supplied ids echoed) and
//!   `X-Engine-Version`, and requests slower than
//!   [`ServerConfig::slow_query_ms`] land in a bounded ring readable
//!   at `GET /debug/slow_queries` with their per-stage breakdown.
//!
//! | endpoint | effect |
//! |---|---|
//! | `POST /query` | top-k ranking for one target table |
//! | `GET /rank_all?target=<name>` | rank the lake against an indexed table |
//! | `GET /stats` | engine version, footprints, cache/shed counters, queue depth |
//! | `GET /metrics` | Prometheus 0.0.4 text exposition of all telemetry |
//! | `GET /debug/slow_queries` | newest-first ring of threshold-crossing requests |
//! | `POST /tables` | add a table (persisted, hot-swapped) |
//! | `DELETE /tables/{name}` | remove a table (tombstoned) |
//! | `POST /admin/compact` | fold delta segments into the base |
//! | `POST /admin/shutdown` | graceful drain and exit |
//!
//! Modules: [`http`] (hardened request parser — every malformed input
//! is a typed 4xx, never a panic or a hung worker), [`json`]
//! (deterministic hand-rolled codec), [`api`] (wire shapes),
//! [`server`] (worker pool, routing, graceful shutdown, and the
//! minimal [`Client`]).
//!
//! [`D3l`]: d3l_core::D3l
//! [`D3l::query_with`]: d3l_core::D3l::query_with
//! [`IndexStore`]: d3l_core::IndexStore
//! [`EngineHandle`]: d3l_core::hotswap::EngineHandle
//! [`FOLD_SEGMENTS`]: d3l_core::FOLD_SEGMENTS

pub mod api;
pub mod http;
pub mod json;
pub mod server;

pub use api::{query_response, table_from_json, table_to_json};
pub use http::{Method, Request, Response};
pub use json::Json;
pub use server::{request_once, Client, Server, ServerConfig, ShutdownHandle};
