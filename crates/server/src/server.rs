//! The concurrent query server: a fixed worker pool over
//! `std::net::TcpListener`, serving a hot-swappable engine.
//!
//! ## Concurrency model
//!
//! * The accept loop hands connections to a bounded-behavior worker
//!   pool (`threads` workers, one connection per worker at a time,
//!   keep-alive supported). Queries clone the current
//!   [`EngineSnapshot`] `Arc` and run **lock-free** on it — a
//!   mutation landing mid-query can never tear the state a query
//!   observes.
//! * Mutations (`POST /tables`, `DELETE /tables/{name}`) go through
//!   [`EngineHandle`]: persist to the [`IndexStore`] first, then
//!   atomically swap the extended engine in, then answer — so a 2xx
//!   implies read-your-writes for every subsequent request.
//! * Graceful shutdown ([`ShutdownHandle::shutdown`], SIGINT in the
//!   CLI, or `POST /admin/shutdown`): the accept loop stops taking
//!   connections, queued and in-flight requests are drained to
//!   completion, then [`Server::run`] returns.
//!
//! [`IndexStore`]: d3l_core::IndexStore

use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use d3l_core::cache::{options_fingerprint, table_fingerprint, CacheKey, DEFAULT_CACHE_BYTES};
use d3l_core::config::available_cpus;
use d3l_core::hotswap::{EngineHandle, EngineSnapshot, MaintenanceError};
use d3l_core::query::{QueryOptions, TableMatch};
use d3l_core::trace::QueryTrace;
use d3l_core::watch::WatchStats;
use d3l_core::Evidence;
use d3l_store::StoreError;
use d3l_table::Table;
use d3l_telemetry::{Counter, Histogram, PromWriter, Registry, PROM_CONTENT_TYPE};

use crate::api;
use crate::http::{read_request, Method, Request, Response, DEFAULT_MAX_BODY};
use crate::json::Json;

/// `Retry-After` seconds advertised on load-shed 503s: long enough to
/// drain a burst, short enough that a well-behaved client retries
/// while its user is still waiting.
pub const RETRY_AFTER_SECS: u32 = 1;

/// Namespace tag for `GET /rank_all` cache keys: indexed targets are
/// keyed by `(tag, table id)`, which can never alias a `/query`
/// target's 128-bit content fingerprint in practice.
const RANK_ALL_TAG: u64 = 0x5241_4e4b_5f41_4c4c; // "RANK_ALL"

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker thread count (0 = number of available CPUs; at most
    /// 1 024, or [`Server::bind`] refuses it).
    pub threads: usize,
    /// Cap on request bodies.
    pub max_body_bytes: usize,
    /// Socket read/write timeout — a stalled client gets a 408 (or a
    /// silent close when idle between keep-alive requests) instead of
    /// parking a worker forever.
    pub io_timeout: Duration,
    /// Byte budget for the engine's query-result cache (0 disables
    /// caching). Applied to the [`EngineHandle`]'s cache at bind.
    pub cache_bytes: u64,
    /// Admission bound: connections arriving while this many are
    /// already waiting for a worker are shed with a typed 503 +
    /// `Retry-After` instead of queueing without bound. At least 1, or
    /// [`Server::bind`] refuses it.
    pub max_queue: usize,
    /// Requests taking at least this many milliseconds are captured
    /// (with their per-stage breakdown) in the slow-query ring buffer
    /// served at `GET /debug/slow_queries` and dumped on drain.
    pub slow_query_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 0,
            max_body_bytes: DEFAULT_MAX_BODY,
            io_timeout: Duration::from_secs(10),
            cache_bytes: DEFAULT_CACHE_BYTES,
            max_queue: 1024,
            slow_query_ms: 250,
        }
    }
}

/// Fairness quantum: after serving this many consecutive requests on
/// one keep-alive connection while other connections wait, the
/// connection is rotated to the back of the queue (its buffered
/// pipelined bytes travel with it), so one pipelining client cannot
/// starve the pool.
const FAIR_BATCH: usize = 32;

/// Bound on [`ServerConfig::threads`]: each worker is an OS thread
/// spawned at [`Server::run`], so a count past what any machine
/// schedules is refused at bind instead of spawning until the process
/// runs out of memory or threads.
const MAX_THREADS: usize = 1024;

/// Most recent slow queries kept for `GET /debug/slow_queries`.
const SLOW_RING_CAP: usize = 64;

/// One captured slow request: identity, outcome, and its
/// [`QueryTrace`], read for the per-stage breakdown when
/// the ring is rendered (zeros for endpoints that never entered the
/// query pipeline).
#[derive(Debug, Clone)]
struct SlowQuery {
    request_id: String,
    endpoint: &'static str,
    path: String,
    status: u16,
    result: &'static str,
    engine_version: u64,
    total_ms: f64,
    trace: Option<Arc<QueryTrace>>,
}

impl SlowQuery {
    fn to_json(&self) -> Json {
        let ms = |ns: u64| Json::Num(ns as f64 / 1e6);
        let trace = self.trace.as_deref();
        let (c, s, a) = trace.map(QueryTrace::stages_ns).unwrap_or((0, 0, 0));
        let mut obj = vec![
            ("request_id".to_string(), Json::str(&self.request_id)),
            ("endpoint".to_string(), Json::str(self.endpoint)),
            ("path".to_string(), Json::str(&self.path)),
            ("status".to_string(), Json::Num(self.status as f64)),
            ("result".to_string(), Json::str(self.result)),
            (
                "engine_version".to_string(),
                Json::Num(self.engine_version as f64),
            ),
            ("total_ms".to_string(), Json::Num(self.total_ms)),
        ];
        let stages = Json::Obj(vec![
            ("candidates_ms".to_string(), ms(c)),
            ("score_ms".to_string(), ms(s)),
            ("aggregate_ms".to_string(), ms(a)),
        ]);
        obj.push(("stages".to_string(), stages));
        Json::Obj(obj)
    }
}

/// Server-owned instruments: the registry rendered by `/metrics`
/// (and read by `/stats`) plus pre-registered `Arc`s for the counters
/// and hot-path histograms (stage series are fixed at bind;
/// per-endpoint request series register on first use, off the query
/// hot path).
struct ServerMetrics {
    registry: Registry,
    /// Requests that parsed far enough to be routed.
    requests: Arc<Counter>,
    /// Responses by status class: 2xx, 4xx, then everything else.
    responses: [Arc<Counter>; 3],
    /// Connections refused at the door with a 503 because the
    /// pending-connection queue was at its bound. Not in `responses`,
    /// which counts routed requests.
    shed: Arc<Counter>,
    stage_candidates: Arc<Histogram>,
    stage_score: Arc<Histogram>,
    stage_aggregate: Arc<Histogram>,
    slow_queries_total: Arc<Counter>,
}

const REQUEST_HIST: &str = "d3l_http_request_seconds";
const REQUEST_HELP: &str =
    "Wall-clock request latency per endpoint, split by result (hit/miss/ok/error/shed).";

impl ServerMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        const RESPONSES: &str = "d3l_http_responses_total";
        let responses = ["2xx", "4xx", "5xx"].map(|class| {
            registry.counter(RESPONSES, "Responses by status class.", &[("class", class)])
        });
        const STAGE: &str = "d3l_query_stage_seconds";
        const STAGE_HELP: &str =
            "Query pipeline stage latency: candidate generation, evidence scoring, CCDF aggregation (the scatter-gather merge).";
        let stage_candidates = registry.histogram(STAGE, STAGE_HELP, &[("stage", "candidates")]);
        let stage_score = registry.histogram(STAGE, STAGE_HELP, &[("stage", "score")]);
        let stage_aggregate = registry.histogram(STAGE, STAGE_HELP, &[("stage", "aggregate")]);
        let slow_queries_total = registry.counter(
            "d3l_slow_queries_total",
            "Requests at or above the --slow-query-ms threshold.",
            &[],
        );
        ServerMetrics {
            requests: registry.counter(
                "d3l_http_requests_total",
                "Accepted HTTP requests (sheds excluded).",
                &[],
            ),
            responses,
            shed: registry.counter(
                "d3l_http_shed_total",
                "Connections shed at the admission gate.",
                &[],
            ),
            registry,
            stage_candidates,
            stage_score,
            stage_aggregate,
            slow_queries_total,
        }
    }

    /// Count one response by its status class.
    fn record_status(&self, status: u16) {
        let class = match status {
            200..=299 => 0,
            400..=499 => 1,
            _ => 2,
        };
        self.responses[class].inc();
    }

    fn request_histogram(&self, endpoint: &'static str, result: &'static str) -> Arc<Histogram> {
        self.registry.histogram(
            REQUEST_HIST,
            REQUEST_HELP,
            &[("endpoint", endpoint), ("result", result)],
        )
    }

    /// Fold a finished query's trace into the stage histograms.
    fn record_trace(&self, trace: &QueryTrace) {
        let (c, s, a) = trace.stages_ns();
        self.stage_candidates.record_ns(c);
        self.stage_score.record_ns(s);
        self.stage_aggregate.record_ns(a);
    }
}

struct Shared {
    shutdown: AtomicBool,
    started: Instant,
    queue: ConnQueue,
    metrics: ServerMetrics,
    /// Stats of a co-located continuous-ingestion watcher
    /// (`serve --watch`): rendered into `/metrics` and `/stats` when
    /// attached.
    watch: std::sync::OnceLock<Arc<WatchStats>>,
    slow: Mutex<VecDeque<SlowQuery>>,
    slow_query_ms: u64,
    /// Request-id generation: a per-boot stamp plus a sequence, so
    /// ids are unique per process and sortable within it.
    boot_stamp: u64,
    req_seq: AtomicU64,
}

impl Shared {
    fn next_request_id(&self) -> String {
        let seq = self.req_seq.fetch_add(1, Ordering::Relaxed) + 1;
        format!("req-{:x}-{seq}", self.boot_stamp)
    }

    fn capture_slow(&self, entry: SlowQuery) {
        self.metrics.slow_queries_total.inc();
        let mut ring = self.slow.lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() == SLOW_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// The slow-query ring as the `/debug/slow_queries` JSON body
    /// (newest first).
    fn slow_queries_json(&self) -> String {
        let ring = self.slow.lock().unwrap_or_else(|p| p.into_inner());
        Json::Obj(vec![
            (
                "threshold_ms".to_string(),
                Json::Num(self.slow_query_ms as f64),
            ),
            (
                "captured_total".to_string(),
                Json::Num(self.metrics.slow_queries_total.get() as f64),
            ),
            ("count".to_string(), Json::Num(ring.len() as f64)),
            (
                "slow_queries".to_string(),
                Json::Arr(ring.iter().rev().map(SlowQuery::to_json).collect()),
            ),
        ])
        .to_string()
    }
}

/// Stops a running [`Server`] from another thread (signal handlers,
/// tests, the shutdown endpoint). Cloneable and cheap.
#[derive(Clone)]
pub struct ShutdownHandle(Arc<Shared>);

impl ShutdownHandle {
    /// Ask the server to stop accepting and drain in-flight work.
    pub fn shutdown(&self) {
        self.0.shutdown.store(true, Ordering::SeqCst);
    }

    /// Slow queries captured so far (at or above the configured
    /// threshold), across the whole process lifetime.
    pub fn slow_query_count(&self) -> u64 {
        self.0.metrics.slow_queries_total.get()
    }

    /// The slow-query ring as JSON — the same body `GET
    /// /debug/slow_queries` serves. The CLI dumps this on SIGTERM
    /// drain so slow traffic is never lost with the process.
    pub fn slow_queries_json(&self) -> String {
        self.0.slow_queries_json()
    }
}

/// One queued connection: the socket plus any bytes a fairness
/// rotation pulled out of its reader before requeueing (pipelined
/// requests the client already sent — they must not be lost).
struct Conn {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl Conn {
    fn fresh(stream: TcpStream) -> Self {
        Conn {
            stream,
            carry: Vec::new(),
        }
    }
}

/// Connection hand-off between the accept loop and the workers.
/// `depth` mirrors the queue length so the accept loop's admission
/// check and `GET /stats` read it without taking the mutex.
struct ConnQueue {
    state: Mutex<(VecDeque<Conn>, bool)>,
    ready: Condvar,
    depth: AtomicUsize,
}

impl ConnQueue {
    fn new() -> Self {
        ConnQueue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
            depth: AtomicUsize::new(0),
        }
    }

    fn push(&self, conn: Conn) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.0.push_back(conn);
        self.depth.store(state.0.len(), Ordering::Relaxed);
        drop(state);
        self.ready.notify_one();
    }

    /// `None` once the queue is closed *and* drained.
    fn pop(&self) -> Option<Conn> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(conn) = state.0.pop_front() {
                self.depth.store(state.0.len(), Ordering::Relaxed);
                return Some(conn);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Connections currently waiting for a worker.
    fn len(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    fn close(&self) {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).1 = true;
        self.ready.notify_all();
    }
}

/// A routed response plus what observability needs to label it: the
/// cache outcome (query endpoints only), the pipeline trace (set when
/// the query actually ran) and the version of the engine snapshot the
/// response was answered from (set when the handler read one).
struct Routed {
    response: Response,
    cache_hit: Option<bool>,
    trace: Option<Arc<QueryTrace>>,
    version: Option<u64>,
}

impl Routed {
    /// A response answered from the snapshot at `version`.
    fn at(version: u64, response: Response) -> Routed {
        Routed {
            version: Some(version),
            ..response.into()
        }
    }

    fn hit(version: u64, response: Response) -> Routed {
        Routed {
            cache_hit: Some(true),
            ..Routed::at(version, response)
        }
    }

    fn miss(version: u64, response: Response, trace: Arc<QueryTrace>) -> Routed {
        Routed {
            cache_hit: Some(false),
            trace: Some(trace),
            ..Routed::at(version, response)
        }
    }

    /// The `result` label on the request histogram: errors win, then
    /// the cache outcome, then plain `ok`.
    fn result(&self) -> &'static str {
        if self.response.status >= 400 {
            "error"
        } else {
            match self.cache_hit {
                Some(true) => "hit",
                Some(false) => "miss",
                None => "ok",
            }
        }
    }
}

impl From<Response> for Routed {
    fn from(response: Response) -> Routed {
        Routed {
            response,
            cache_hit: None,
            trace: None,
            version: None,
        }
    }
}

/// An endpoint's handler: the routed response, or the refusal it
/// answers with.
type Handler = fn(&Server, &Request) -> Result<Routed, Response>;

/// Every endpoint: the method it answers, its path (one ending in `/`
/// names every path under it), the bounded-cardinality `endpoint`
/// label its requests are metered under, and its handler. Routing,
/// the 405-versus-404 decision and the label all read this one list.
const ENDPOINTS: &[(Method, &str, &str, Handler)] = &[
    (Method::Post, "/query", "/query", Server::handle_query),
    (
        Method::Get,
        "/rank_all",
        "/rank_all",
        Server::handle_rank_all,
    ),
    (Method::Get, "/stats", "/stats", |s, _| Ok(s.handle_stats())),
    (Method::Get, "/metrics", "/metrics", |s, _| {
        Ok(s.handle_metrics().into())
    }),
    (
        Method::Get,
        "/debug/slow_queries",
        "/debug/slow_queries",
        |s, _| Ok(Response::json(200, s.shared.slow_queries_json()).into()),
    ),
    (Method::Post, "/tables", "/tables", Server::handle_add_table),
    (
        Method::Delete,
        "/tables/",
        "/tables/{name}",
        Server::handle_remove_table,
    ),
    (
        Method::Post,
        "/admin/compact",
        "/admin",
        Server::handle_compact,
    ),
    (Method::Post, "/admin/shutdown", "/admin", |s, _| {
        s.shared.shutdown.store(true, Ordering::SeqCst);
        Ok(Response::json(200, "{\"shutting_down\":true}").into())
    }),
];

/// The HTTP server. Bind, then [`Server::run`] (blocking until
/// shutdown).
pub struct Server {
    listener: TcpListener,
    engine: Arc<EngineHandle>,
    cfg: ServerConfig,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind a listener (use port 0 for an ephemeral port and read it
    /// back with [`Server::local_addr`]). A worker count past 1 024,
    /// or a pending-connection queue of 0 (which would shed every
    /// connection), is refused, before anything is bound, as
    /// `InvalidInput`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<EngineHandle>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let invalid =
            |error: String| Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, error));
        if cfg.threads > MAX_THREADS {
            let n = cfg.threads;
            return invalid(format!(
                "{n} worker threads is past the bound of {MAX_THREADS}"
            ));
        }
        if cfg.max_queue == 0 {
            return invalid("a pending-connection queue of 0 would shed every connection".into());
        }
        let listener = TcpListener::bind(addr)?;
        // The cache lives in the engine handle (so CLI tools sharing
        // the handle see the same entries); the serving config owns
        // its budget.
        engine.cache().set_budget(cfg.cache_bytes);
        let boot_stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Ok(Server {
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                started: Instant::now(),
                queue: ConnQueue::new(),
                metrics: ServerMetrics::new(),
                watch: std::sync::OnceLock::new(),
                slow: Mutex::new(VecDeque::with_capacity(SLOW_RING_CAP)),
                slow_query_ms: cfg.slow_query_ms,
                boot_stamp,
                req_seq: AtomicU64::new(0),
            }),
            listener,
            engine,
            cfg,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops this server from anywhere.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(self.shared.clone())
    }

    /// Surface a co-located watcher's stats (`serve --watch`): its
    /// series join `/metrics` and a `watch` object joins `/stats`.
    /// First attachment wins; later calls are ignored.
    pub fn attach_watch(&self, stats: Arc<WatchStats>) {
        let _ = self.shared.watch.set(stats);
    }

    /// Worker count this server will run with.
    pub fn effective_threads(&self) -> usize {
        if self.cfg.threads > 0 {
            self.cfg.threads
        } else {
            available_cpus()
        }
    }

    /// Accept and serve until shutdown is requested, then drain:
    /// queued connections and in-flight requests complete before this
    /// returns. Admission control happens here: a connection arriving
    /// while [`ServerConfig::max_queue`] connections already wait is
    /// answered with a typed 503 + `Retry-After` and closed — bounded
    /// queueing instead of an unbounded backlog with an exploding
    /// tail.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let queue = &self.shared.queue;
        let threads = self.effective_threads();
        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(threads);
            for _ in 0..threads {
                let server = &self;
                workers.push(scope.spawn(move || {
                    while let Some(conn) = queue.pop() {
                        server.serve_connection(conn);
                    }
                }));
            }
            while !self.shared.shutdown.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if queue.len() >= self.cfg.max_queue {
                            self.shed(stream);
                        } else {
                            queue.push(Conn::fresh(stream));
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    // Transient accept failures (EMFILE, aborted
                    // handshakes) must not kill the serving loop.
                    Err(_) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
            queue.close();
            for worker in workers {
                worker.join().expect("server worker panicked");
            }
        });
        Ok(())
    }

    /// Refuse a connection at the door: typed 503 with `Retry-After`,
    /// then close. Runs on the accept thread, so the write gets a
    /// short timeout — a peer that will not even read a 200-byte
    /// response is not worth stalling admission for.
    fn shed(&self, mut stream: TcpStream) {
        let t0 = Instant::now();
        self.shared.metrics.shed.inc();
        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
        let _ = stream.set_nodelay(true);
        let response = self
            .stamp(
                Response::error(503, "server at capacity; back off and retry")
                    .with_retry_after(RETRY_AFTER_SECS),
                self.shared.next_request_id(),
                self.engine.snapshot().version,
            )
            .write_to(&mut stream, false);
        self.shared
            .metrics
            .request_histogram("none", "shed")
            .record(t0.elapsed());
        if response.is_err() {
            return;
        }
        // Closing a socket whose receive buffer still holds unread
        // request bytes makes the kernel answer with RST, which can
        // destroy the 503 sitting in the peer's receive queue before
        // the peer reads it. Half-close the write side first (the FIN
        // carries the response out), then briefly drain whatever the
        // peer already sent so the final close is orderly. The drain
        // is bounded — a peer that keeps streaming loses its claim on
        // the accept thread after 250 ms.
        let _ = stream.shutdown(Shutdown::Write);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let deadline = Instant::now() + Duration::from_millis(250);
        let mut sink = [0u8; 4096];
        while Instant::now() < deadline {
            match stream.read(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }

    /// Serve one connection: requests in sequence (keep-alive) until
    /// the peer closes, an unanswerable error occurs, or shutdown.
    /// Wait for the next request's first byte without parking the
    /// worker past the shutdown signal: poll `peek` on a short
    /// timeout, re-checking the drain flag between polls, until data
    /// arrives, the peer hangs up, or the keep-alive idle window
    /// (`io_timeout`) expires. Returns whether a request is ready.
    /// `set_read_timeout` applies to the shared socket, so the
    /// full-length timeout is restored before the request is parsed —
    /// mid-request stalls keep their 408 semantics.
    fn await_next_request(&self, stream: &TcpStream) -> bool {
        const POLL: Duration = Duration::from_millis(100);
        let _ = stream.set_read_timeout(Some(POLL));
        let idle_deadline = Instant::now() + self.cfg.io_timeout;
        let mut probe = [0u8; 1];
        let ready = loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break false;
            }
            match stream.peek(&mut probe) {
                Ok(0) => break false, // peer closed
                Ok(_) => break true,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if Instant::now() >= idle_deadline {
                        break false; // idle keep-alive expiry
                    }
                }
                Err(_) => break false,
            }
        };
        let _ = stream.set_read_timeout(Some(self.cfg.io_timeout));
        ready
    }

    fn serve_connection(&self, conn: Conn) {
        let Conn { stream, carry } = conn;
        // A fairness rotation's carried-over bytes, read before the
        // socket; what is left of them travels on with the next
        // rotation.
        let mut carried: &[u8] = &carry;
        let _ = stream.set_read_timeout(Some(self.cfg.io_timeout));
        let _ = stream.set_write_timeout(Some(self.cfg.io_timeout));
        // Interactive request/response traffic: never wait for a
        // Nagle coalescing window.
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut write_half = stream;
        let mut served_this_turn = 0usize;
        loop {
            // Idle wait happens outside read_request so a worker
            // blocked between keep-alive requests still observes
            // shutdown within ~100 ms (pipelined bytes already
            // buffered — carried or in the reader — skip the wait).
            if carried.is_empty()
                && reader.buffer().is_empty()
                && !self.await_next_request(&write_half)
            {
                return;
            }
            let mut input = (&mut carried).chain(&mut reader);
            match read_request(&mut input, self.cfg.max_body_bytes) {
                Ok(req) => {
                    self.shared.metrics.requests.inc();
                    let request_id = req
                        .request_id
                        .clone()
                        .unwrap_or_else(|| self.shared.next_request_id());
                    let t0 = Instant::now();
                    let (endpoint, routed) = self.route(&req);
                    let elapsed = t0.elapsed();
                    // A response that read no snapshot names the
                    // current one.
                    let version = routed
                        .version
                        .unwrap_or_else(|| self.engine.snapshot().version);
                    self.observe(endpoint, &req, &request_id, &routed, version, elapsed);
                    let response = self.stamp(routed.response, request_id, version);
                    self.shared.metrics.record_status(response.status);
                    let draining = self.shared.shutdown.load(Ordering::SeqCst);
                    let keep = req.keep_alive && !draining;
                    if response.write_to(&mut write_half, keep).is_err() || !keep {
                        return;
                    }
                    served_this_turn += 1;
                    // Fairness rotation: this connection had its
                    // quantum while others are waiting — requeue it
                    // (with any pipelined bytes it already sent) and
                    // free the worker for the next connection.
                    if served_this_turn >= FAIR_BATCH && self.shared.queue.len() > 0 {
                        let mut residue = carried.to_vec();
                        residue.extend_from_slice(reader.buffer());
                        self.shared.queue.push(Conn {
                            stream: write_half,
                            carry: residue,
                        });
                        return;
                    }
                }
                Err(err) => {
                    // Status-less errors (peer gone, idle keep-alive
                    // expiry) close silently; everything else answers
                    // with its typed 4xx/5xx before closing.
                    if let Some(status) = err.status() {
                        self.shared.metrics.record_status(status);
                        let _ = self
                            .stamp(
                                Response::error(status, &err.to_string()),
                                self.shared.next_request_id(),
                                self.engine.snapshot().version,
                            )
                            .write_to(&mut write_half, false);
                    }
                    return;
                }
            }
        }
    }

    // ---- routing ----------------------------------------------------

    /// Stamp the correlation headers every response carries: the
    /// request id (client-supplied or generated) and the engine
    /// version that answered.
    fn stamp(&self, response: Response, request_id: String, version: u64) -> Response {
        response
            .with_header("X-Request-Id", request_id)
            .with_header("X-Engine-Version", version.to_string())
    }

    /// Record one routed request into the per-endpoint histogram,
    /// fold its pipeline trace into the stage histograms, and
    /// capture it in the slow-query ring when it crossed the
    /// threshold.
    fn observe(
        &self,
        endpoint: &'static str,
        req: &Request,
        request_id: &str,
        routed: &Routed,
        version: u64,
        elapsed: Duration,
    ) {
        self.shared
            .metrics
            .request_histogram(endpoint, routed.result())
            .record(elapsed);
        if let Some(trace) = &routed.trace {
            self.shared.metrics.record_trace(trace);
        }
        if elapsed.as_millis() as u64 >= self.shared.slow_query_ms {
            self.shared.capture_slow(SlowQuery {
                request_id: request_id.to_string(),
                endpoint,
                path: req.path.clone(),
                status: routed.response.status,
                result: routed.result(),
                engine_version: version,
                total_ms: elapsed.as_nanos() as f64 / 1e6,
                trace: routed.trace.clone(),
            });
        }
    }

    /// Route a request through [`ENDPOINTS`]: the endpoint label and
    /// what its handler answered. A path no endpoint names is a 404
    /// labelled `other`; a method its endpoints do not answer, a 405.
    fn route(&self, req: &Request) -> (&'static str, Routed) {
        let named = || {
            ENDPOINTS.iter().filter(|(_, path, ..)| {
                req.path == *path || (path.ends_with('/') && req.path.starts_with(path))
            })
        };
        if let Some(&(_, _, label, handle)) = named().find(|(method, ..)| *method == req.method) {
            return (label, handle(self, req).unwrap_or_else(Routed::from));
        }
        match named().next() {
            Some(&(_, _, label, _)) => {
                let message = format!("{} not allowed on {}", req.method.as_str(), req.path);
                (label, Response::error(405, &message).into())
            }
            None => {
                let message = format!("no endpoint at {}", req.path);
                ("other", Response::error(404, &message).into())
            }
        }
    }

    fn body_json(req: &Request) -> Result<Json, Response> {
        let text = std::str::from_utf8(&req.body)
            .map_err(|_| Response::error(400, "body is not UTF-8"))?;
        Json::parse(text).map_err(|e| Response::error(400, &e.to_string()))
    }

    /// The `"table"` member (or, leniently, the whole body) as a
    /// table.
    fn body_table(body: &Json) -> Result<Table, Response> {
        let spec = body.get("table").unwrap_or(body);
        Self::bound_attributes(spec)?;
        api::table_from_json(spec).map_err(|e| Response::error(400, &e.to_string()))
    }

    /// Refuse with a typed 413, before it is decoded, a table whose
    /// `"columns"` hold more than [`api::MAX_REQUEST_ATTRIBUTES`]
    /// attributes.
    fn bound_attributes(spec: &Json) -> Result<(), Response> {
        let total = spec
            .get("columns")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        if total > api::MAX_REQUEST_ATTRIBUTES {
            let message = format!(
                "the request's table holds {total} attributes; at most {} are accepted",
                api::MAX_REQUEST_ATTRIBUTES
            );
            return Err(Response::error(413, &message));
        }
        Ok(())
    }

    /// A `/query` body and its `"k"` (10 when absent).
    fn query_body(req: &Request) -> Result<(Json, usize), Response> {
        let body = Self::body_json(req)?;
        let k = match body.get("k") {
            None => 10,
            Some(v) => v
                .as_usize()
                .ok_or_else(|| Response::error(400, "\"k\" must be a non-negative integer"))?,
        };
        Ok((body, k))
    }

    /// Option decoding for `/query`: `evidence` (single-evidence
    /// ranking) and `exclude` (a lake table name to drop from the
    /// answer).
    fn query_options(body: &Json, snap: &EngineSnapshot) -> Result<QueryOptions, Response> {
        let mut opts = QueryOptions::default();
        if let Some(e) = body.get("evidence") {
            let letter = e
                .as_str()
                .ok_or_else(|| Response::error(400, "\"evidence\" must be a string"))?;
            opts.evidence =
                Some(Evidence::from_letter(letter).ok_or_else(|| {
                    Response::error(400, &format!("unknown evidence {letter:?}"))
                })?);
        }
        if let Some(x) = body.get("exclude") {
            let name = x
                .as_str()
                .ok_or_else(|| Response::error(400, "\"exclude\" must be a table name"))?;
            let id = snap
                .engine
                .table_id(name)
                .ok_or_else(|| Response::error(404, &format!("no indexed table named {name:?}")))?;
            opts.exclude = Some(id);
        }
        Ok(opts)
    }

    /// The serving fast path `/query` and `/rank_all` share:
    /// everything the rendering depends on is pinned in the key (the
    /// snapshot version makes mutations invalidate exactly), so a hit
    /// returns the previously rendered bytes without running the
    /// pipeline. A miss runs `run` with a trace attached, renders,
    /// and stores the body; the trace never splits the key —
    /// `options_fingerprint` excludes it.
    fn serve_cached(
        &self,
        snap: &EngineSnapshot,
        target: [u64; 2],
        k: usize,
        mut opts: QueryOptions,
        run: impl FnOnce(&QueryOptions) -> Vec<TableMatch>,
    ) -> Routed {
        let key = CacheKey {
            target,
            k: k as u64,
            opts: options_fingerprint(&opts),
            version: snap.version,
        };
        if let Some(hit) = self.engine.cache().get(&key) {
            return Routed::hit(snap.version, Response::json(200, hit.as_bytes().to_vec()));
        }
        let trace = QueryTrace::new();
        opts.trace = Some(Arc::clone(&trace));
        let rendered = api::query_response(snap, &run(&opts));
        self.engine.cache().put(key, rendered.clone().into());
        Routed::miss(snap.version, Response::json(200, rendered), trace)
    }

    fn handle_query(&self, req: &Request) -> Result<Routed, Response> {
        let (body, k) = Self::query_body(req)?;
        let target = Self::body_table(&body)?;
        let snap = self.engine.snapshot();
        let opts = Self::query_options(&body, &snap)?;
        let fingerprint = table_fingerprint(&target);
        Ok(self.serve_cached(&snap, fingerprint, k, opts, |opts| {
            snap.engine.query_with(&target, k, opts)
        }))
    }

    fn handle_rank_all(&self, req: &Request) -> Result<Routed, Response> {
        let name = req
            .query_param("target")
            .ok_or_else(|| Response::error(400, "missing ?target=<indexed table name>"))?;
        let snap = self.engine.snapshot();
        let id = snap
            .engine
            .table_id(name)
            .ok_or_else(|| Response::error(404, &format!("no indexed table named {name:?}")))?;
        let width = match req.query_param("width") {
            None => snap.engine.config().lookup_width(10),
            Some(raw) => raw
                .parse::<usize>()
                .ok()
                .filter(|&w| w > 0)
                .ok_or_else(|| Response::error(400, "\"width\" must be a positive integer"))?,
        };
        let opts = QueryOptions {
            // Ranking a lake member against the lake: the member
            // itself would trivially win, so it is excluded unless
            // asked for.
            exclude: (req.query_param("include_self") != Some("true")).then_some(id),
            ..Default::default()
        };
        // rank_all targets are indexed members, so their identity is
        // `(tag, id)` — no content hashing needed; the version in the
        // key covers both id reuse and profile changes.
        let target = [RANK_ALL_TAG, id.0 as u64];
        Ok(self.serve_cached(&snap, target, width, opts, |opts| {
            let prepared = snap
                .engine
                .signed_table(id)
                .expect("table_id only returns live tables");
            snap.engine.rank_all_prepared(&prepared, width, opts)
        }))
    }

    fn handle_stats(&self) -> Routed {
        // The watcher's counters are read before the snapshot is taken:
        // a change they count as applied is in the engine the rest of
        // the document describes, never ahead of it.
        let watch = self.shared.watch.get().map(|ws| {
            let lag = ws.ingest_lag();
            let ms = |ns: u64| ns as f64 / 1e6;
            (
                "watch".to_string(),
                Json::Obj(vec![
                    (
                        "files_tracked".to_string(),
                        Json::Num(ws.files_tracked() as f64),
                    ),
                    ("queued_changes".to_string(), Json::Num(ws.queued() as f64)),
                    ("polls".to_string(), Json::Num(ws.polls() as f64)),
                    ("batches".to_string(), Json::Num(ws.batches() as f64)),
                    ("tables_added".to_string(), Json::Num(ws.added() as f64)),
                    (
                        "tables_replaced".to_string(),
                        Json::Num(ws.replaced() as f64),
                    ),
                    ("tables_removed".to_string(), Json::Num(ws.removed() as f64)),
                    ("files_skipped".to_string(), Json::Num(ws.skipped() as f64)),
                    ("errors".to_string(), Json::Num(ws.errors() as f64)),
                    (
                        "ingest_lag_ms".to_string(),
                        Json::Obj(vec![
                            ("count".to_string(), Json::Num(lag.count() as f64)),
                            ("p50".to_string(), Json::Num(ms(lag.quantile_ns(0.50)))),
                            ("p99".to_string(), Json::Num(ms(lag.quantile_ns(0.99)))),
                            ("max".to_string(), Json::Num(ms(lag.max_ns()))),
                        ]),
                    ),
                ]),
            )
        });
        let snap = self.engine.snapshot();
        let fp = snap.engine.byte_size();
        let index_json = |idx: d3l_core::IndexFootprint| {
            Json::Obj(vec![
                ("tree_bytes".to_string(), Json::Num(idx.tree_bytes as f64)),
                (
                    "signature_bytes".to_string(),
                    Json::Num(idx.signature_bytes as f64),
                ),
                (
                    "posting_bytes".to_string(),
                    Json::Num(idx.posting_bytes as f64),
                ),
            ])
        };
        let mut memory: Vec<(String, Json)> = fp
            .indexes()
            .iter()
            .map(|(name, idx)| (name.to_lowercase(), index_json(*idx)))
            .collect();
        for (key, bytes) in [
            ("profile_bytes", fp.profile_bytes),
            ("table_bytes", fp.table_bytes),
            ("hasher_bytes", fp.hasher_bytes),
            ("total_bytes", fp.total()),
        ] {
            memory.push((key.to_string(), Json::Num(bytes as f64)));
        }
        // The store lists its directory once.
        let disk = self.engine.disk_stats().map_or(Json::Null, disk_json);
        let m = &self.shared.metrics;
        let cache = self.engine.cache().stats();
        let mut body = vec![
            ("engine_version".to_string(), Json::Num(snap.version as f64)),
            (
                "tables".to_string(),
                Json::Num(snap.engine.table_count() as f64),
            ),
            (
                "live_tables".to_string(),
                Json::Num(snap.engine.live_table_count() as f64),
            ),
            (
                "signing_lanes".to_string(),
                Json::str(d3l_core::index::signing_lanes()),
            ),
            ("memory".to_string(), Json::Obj(memory)),
            ("disk".to_string(), disk),
            (
                "cache".to_string(),
                Json::Obj(vec![
                    ("hits".to_string(), Json::Num(cache.hits as f64)),
                    ("misses".to_string(), Json::Num(cache.misses as f64)),
                    ("evictions".to_string(), Json::Num(cache.evictions as f64)),
                    ("insertions".to_string(), Json::Num(cache.insertions as f64)),
                    ("entries".to_string(), Json::Num(cache.entries as f64)),
                    ("bytes".to_string(), Json::Num(cache.bytes as f64)),
                    (
                        "budget_bytes".to_string(),
                        Json::Num(cache.budget_bytes as f64),
                    ),
                ]),
            ),
            (
                "server".to_string(),
                Json::Obj(vec![
                    (
                        "threads".to_string(),
                        Json::Num(self.effective_threads() as f64),
                    ),
                    (
                        "uptime_ms".to_string(),
                        Json::Num(self.shared.started.elapsed().as_millis() as f64),
                    ),
                    (
                        "uptime_seconds".to_string(),
                        Json::Num(self.shared.started.elapsed().as_secs_f64()),
                    ),
                    ("hw_threads".to_string(), Json::Num(available_cpus() as f64)),
                    ("requests".to_string(), Json::Num(m.requests.get() as f64)),
                    (
                        "responses_2xx".to_string(),
                        Json::Num(m.responses[0].get() as f64),
                    ),
                    (
                        "responses_4xx".to_string(),
                        Json::Num(m.responses[1].get() as f64),
                    ),
                    (
                        "responses_5xx".to_string(),
                        Json::Num(m.responses[2].get() as f64),
                    ),
                    ("shed_requests".to_string(), Json::Num(m.shed.get() as f64)),
                    (
                        "queue_depth".to_string(),
                        Json::Num(self.shared.queue.len() as f64),
                    ),
                    (
                        "max_queue".to_string(),
                        Json::Num(self.cfg.max_queue as f64),
                    ),
                ]),
            ),
            (
                "build".to_string(),
                Json::Obj(vec![
                    ("version".to_string(), Json::str(env!("CARGO_PKG_VERSION"))),
                    (
                        "profile".to_string(),
                        Json::str(if cfg!(debug_assertions) {
                            "debug"
                        } else {
                            "release"
                        }),
                    ),
                ]),
            ),
        ];
        body.extend(watch);
        Routed::at(
            snap.version,
            Response::json(200, Json::Obj(body).to_string()),
        )
    }

    /// `GET /metrics` — Prometheus text exposition 0.0.4, hand-rolled.
    ///
    /// The registries (server counters and request/stage timings, the
    /// engine's store-op timings, the cache's counters and, when
    /// attached, the watcher's series) are rendered first, then the
    /// point-in-time gauges read at scrape time, so a scraper needs
    /// only this one endpoint.
    fn handle_metrics(&self) -> Response {
        let snap = self.engine.snapshot();
        let cache = self.engine.cache().stats();
        let mut w = PromWriter::new();
        self.shared.metrics.registry.render(&mut w);
        self.engine.telemetry().registry().render(&mut w);
        self.engine.cache().registry().render(&mut w);
        if let Some(ws) = self.shared.watch.get() {
            ws.registry().render(&mut w);
        }
        w.gauge_u64(
            "d3l_queue_depth",
            "Connections currently queued for a worker.",
            &[],
            self.shared.queue.len() as u64,
        );
        w.gauge_u64(
            "d3l_queue_limit",
            "Admission-gate queue capacity.",
            &[],
            self.cfg.max_queue as u64,
        );
        w.gauge_u64(
            "d3l_cache_entries",
            "Query-result cache resident entries.",
            &[],
            cache.entries,
        );
        w.gauge_u64(
            "d3l_cache_bytes",
            "Query-result cache resident bytes.",
            &[],
            cache.bytes,
        );
        w.gauge_u64(
            "d3l_cache_budget_bytes",
            "Query-result cache byte budget.",
            &[],
            cache.budget_bytes,
        );
        w.gauge_u64(
            "d3l_engine_version",
            "Monotone engine snapshot version.",
            &[],
            snap.version,
        );
        w.gauge_u64(
            "d3l_engine_tables",
            "Indexed tables (incl. dead).",
            &[],
            snap.engine.table_count() as u64,
        );
        w.gauge_u64(
            "d3l_engine_live_tables",
            "Live indexed tables.",
            &[],
            snap.engine.live_table_count() as u64,
        );
        w.gauge_u64(
            "d3l_engine_memory_bytes",
            "In-memory index footprint.",
            &[],
            snap.engine.byte_size().total() as u64,
        );
        w.gauge_f64(
            "d3l_uptime_seconds",
            "Server uptime.",
            &[],
            self.shared.started.elapsed().as_secs_f64(),
        );
        Response::text(200, PROM_CONTENT_TYPE, w.finish().into_bytes())
    }

    fn maintenance_error(e: MaintenanceError) -> Response {
        match e {
            MaintenanceError::DuplicateName(_)
            | MaintenanceError::Store(StoreError::AnotherWriter { .. }) => {
                Response::error(409, &e.to_string())
            }
            MaintenanceError::UnknownTable(_) => Response::error(404, &e.to_string()),
            MaintenanceError::Store(_) => Response::error(500, &e.to_string()),
        }
    }

    /// A mutation's acknowledgement: `ack` in the envelope of `snap`,
    /// the snapshot it names and its header stamps.
    fn acknowledge(status: u16, snap: &EngineSnapshot, ack: Vec<(String, Json)>) -> Routed {
        Routed::at(
            snap.version,
            Response::json(status, api::envelope(snap, ack)),
        )
    }

    fn handle_add_table(&self, req: &Request) -> Result<Routed, Response> {
        let table = Self::body_table(&Self::body_json(req)?)?;
        if table.name().is_empty() {
            // `DELETE /tables/` could never name it again.
            return Err(Response::error(400, "table name must not be empty"));
        }
        let (id, snap) = self
            .engine
            .add_table(&table)
            .map_err(Self::maintenance_error)?;
        let ack = vec![
            ("added".to_string(), Json::str(table.name())),
            ("id".to_string(), Json::Num(id.0 as f64)),
        ];
        Ok(Self::acknowledge(201, &snap, ack))
    }

    fn handle_remove_table(&self, req: &Request) -> Result<Routed, Response> {
        let name = &req.path["/tables/".len()..];
        if name.is_empty() {
            return Err(Response::error(400, "missing table name"));
        }
        let (id, snap) = self
            .engine
            .remove_table(name)
            .map_err(Self::maintenance_error)?;
        let ack = vec![
            ("removed".to_string(), Json::str(name)),
            ("id".to_string(), Json::Num(id.0 as f64)),
        ];
        Ok(Self::acknowledge(200, &snap, ack))
    }

    fn handle_compact(&self, _: &Request) -> Result<Routed, Response> {
        let folded = self.engine.compact().map_err(Self::maintenance_error)?;
        let ack = vec![("folded_segments".to_string(), Json::Num(folded as f64))];
        let snap = self.engine.snapshot();
        Ok(Self::acknowledge(200, &snap, ack))
    }
}

/// A parsed client-side response: status, lower-cased response
/// headers in wire order, and the body.
pub type ResponseParts = (u16, Vec<(String, String)>, String);

/// A minimal blocking HTTP/1.1 client over `std::net` — exactly what
/// the README documents for talking to `d3l serve` without any
/// dependency. Keep-alive: one connection, many requests.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Issue one request; returns `(status, body)`. The request goes
    /// out in a single write (see [`Response::write_to`] on why).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        self.request_with_headers(method, path, body, &[])
            .map(|(status, _, body)| (status, body))
    }

    /// Like [`Client::request`] but with extra request headers, and
    /// returning the response headers (lower-cased names) as well.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        headers: &[(&str, &str)],
    ) -> std::io::Result<ResponseParts> {
        let body = body.unwrap_or("");
        let extra: String = headers
            .iter()
            .map(|(k, v)| format!("{k}: {v}\r\n"))
            .collect();
        let wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: d3l\r\nContent-Length: {}\r\nConnection: keep-alive\r\n{extra}\r\n{body}",
            body.len()
        );
        self.writer.write_all(wire.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<ResponseParts> {
        use std::io::BufRead;
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        let mut headers = Vec::new();
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().map_err(|_| bad("bad content-length"))?;
                }
                headers.push((name.to_ascii_lowercase(), value.to_string()));
            }
        }
        let mut body = vec![0u8; content_length];
        std::io::Read::read_exact(&mut self.reader, &mut body)?;
        String::from_utf8(body)
            .map(|text| (status, headers, text))
            .map_err(|_| bad("non-UTF-8 body"))
    }
}

/// A `/stats` `disk` object: `(base bytes, delta bytes, pending
/// delta segments)`.
fn disk_json((base, deltas, segments): (u64, u64, usize)) -> Json {
    Json::Obj(vec![
        ("base_bytes".to_string(), Json::Num(base as f64)),
        ("delta_bytes".to_string(), Json::Num(deltas as f64)),
        ("delta_segments".to_string(), Json::Num(segments as f64)),
    ])
}

/// One-shot convenience: connect, request, close.
pub fn request_once(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    Client::connect(addr)?.request(method, path, body)
}
