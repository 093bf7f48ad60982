//! The request path, replayed in process: the same request bytes the
//! end-to-end run sends over the socket go through the same public
//! functions `d3l serve` calls for a `POST /query`, in the same order,
//! with a span around each.
//!
//! ```text
//! request
//! ├─ server.http.parse        http::read_request
//! ├─ server.json.decode       Json::parse + api::table_from_json
//! ├─ core.cache.fingerprint   table_fingerprint + options_fingerprint
//! ├─ core.cache.get           QueryCache::get
//! ├─ core.query.prepare       ShardedD3l::prepare_target        (miss)
//! ├─ core.query.search        ShardedD3l::query_prepared        (miss)
//! │  ├─ core.query.candidates   QueryTrace::stages_ns().0
//! │  ├─ core.query.score        QueryTrace::stages_ns().1
//! │  └─ core.query.aggregate    QueryTrace::stages_ns().2
//! ├─ server.api.render        api::query_response               (miss)
//! ├─ core.cache.put           QueryCache::put                   (miss)
//! └─ server.http.write        Response::write_to (into memory)
//! ```
//!
//! What this cannot see — accept, queue wait, the kernel's socket
//! path, the worker's wake-up — is `server.transport_ms`: the socket
//! wall of the same requests minus the in-process sum.

use std::sync::Arc;

use d3l_core::cache::{options_fingerprint, table_fingerprint, CacheKey};
use d3l_core::query::QueryOptions;
use d3l_core::trace::QueryTrace;
use d3l_core::EngineHandle;
use d3l_server::http::{read_request, Response, DEFAULT_MAX_BODY};
use d3l_server::json::Json;
use d3l_server::{api, table_from_json};
use d3l_table::Table;

use d3l_benchmark::trace::Recorder;

/// Decode the table (and `k`) out of prebuilt request bytes with the
/// server's own parser and codec.
pub fn decode_table(wire: &[u8]) -> Result<(Table, usize), String> {
    let req = read_request(&mut &wire[..], DEFAULT_MAX_BODY).map_err(|e| e.to_string())?;
    decode_body(&req.body)
}

fn decode_body(body: &[u8]) -> Result<(Table, usize), String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    let table = table_from_json(json.get("table").unwrap_or(&json)).map_err(|e| e.to_string())?;
    let k = json.get("k").and_then(Json::as_usize).unwrap_or(10);
    Ok((table, k))
}

/// What one replayed request did.
pub struct Replayed {
    pub hit: bool,
    /// Ranked tables in the answer.
    pub body_len: usize,
}

/// Serve one `POST /query` in process, as `Server::handle_query` does.
pub fn replay(
    rec: &mut Recorder,
    request: u32,
    handle: &EngineHandle,
    wire: &[u8],
    sink: &mut Vec<u8>,
) -> Result<Replayed, String> {
    rec.span("request", request, |rec| {
        let req = rec
            .span("server.http.parse", request, |_| {
                read_request(&mut &wire[..], DEFAULT_MAX_BODY)
            })
            .map_err(|e| e.to_string())?;
        let (target, k) = rec.span("server.json.decode", request, |_| decode_body(&req.body))?;
        let snap = handle.snapshot();
        let mut opts = QueryOptions::default();
        let key = rec.span("core.cache.fingerprint", request, |_| CacheKey {
            target: table_fingerprint(&target),
            k: k as u64,
            opts: options_fingerprint(&opts),
            version: snap.version,
        });
        let cached = rec.span("core.cache.get", request, |_| handle.cache().get(&key));
        let hit = cached.is_some();
        let rendered: Vec<u8> = match cached {
            Some(body) => body.as_bytes().to_vec(),
            None => {
                let prepared = rec.span("core.query.prepare", request, |_| {
                    snap.engine.prepare_target(&target)
                });
                let trace = QueryTrace::with_shards(snap.engine.shard_count());
                opts.trace = Some(Arc::clone(&trace));
                let matches = rec.span("core.query.search", request, |rec| {
                    let matches = snap.engine.query_prepared(&prepared, k, &opts);
                    // The stages run one after the other inside the
                    // call; their lengths are the engine's own.
                    let (c, s, a) = trace.stages_ns();
                    rec.child_at("core.query.candidates", request, 0, c);
                    rec.child_at("core.query.score", request, c, s);
                    rec.child_at("core.query.aggregate", request, c + s, a);
                    matches
                });
                let rendered = rec.span("server.api.render", request, |_| {
                    api::query_response(&snap, &matches)
                });
                rec.span("core.cache.put", request, |_| {
                    handle.cache().put(key, rendered.clone().into())
                });
                rendered.into_bytes()
            }
        };
        let body_len = rendered.len();
        rec.span("server.http.write", request, |_| {
            sink.clear();
            Response::json(200, rendered)
                .with_header("X-Request-Id", format!("req-{request}"))
                .with_header("X-Engine-Version", snap.version.to_string())
                .write_to(sink, req.keep_alive)
        })
        .map_err(|e| e.to_string())?;
        Ok(Replayed { hit, body_len })
    })
}
