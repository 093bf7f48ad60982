//! Adversarial battery for the concurrent serving layer.
//!
//! Three fronts, mirroring the failure-injection style of the store
//! suite:
//!
//! * **protocol hardening** — malformed request lines, oversized
//!   headers, truncated and over-declared bodies, pipelined garbage,
//!   stalled clients and seeded random fuzz: every case must produce
//!   a *typed* 4xx/5xx (or a silent close for a peer that is gone)
//!   and must never panic a worker or park it forever — the server
//!   has to keep answering cleanly afterwards;
//! * **API contract** — every endpoint's success and refusal paths,
//!   including read-your-writes after mutations;
//! * **concurrency** — the stress test races 8 query clients against
//!   a writer looping add → remove → compact and proves (a) zero
//!   failed requests, (b) no torn reads, via the version/live-count
//!   pair stamped into every response from one immutable snapshot,
//!   and (c) the final store equals an in-process replay
//!   byte-for-byte and answers byte-identically to a from-scratch
//!   rebuild.

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use d3l::core::hotswap::EngineHandle;
use d3l::core::IndexStore;
use d3l::prelude::*;
use d3l::server::api::MAX_REQUEST_ATTRIBUTES;
use d3l::server::{
    request_once, table_to_json, Client, Json, Server, ServerConfig, ShutdownHandle,
};

// ---------------------------------------------------------------- fixtures

fn lake(tables: usize) -> DataLake {
    let cities = ["Salford", "Manchester", "Bolton", "Leeds", "York", "Derby"];
    let mut lake = DataLake::new();
    for i in 0..tables {
        let rows: Vec<Vec<String>> = (0..4)
            .map(|r| {
                vec![
                    format!("Practice {i}-{r}"),
                    cities[(i + r) % cities.len()].to_string(),
                    format!("{}", 500 + 97 * i + r),
                ]
            })
            .collect();
        lake.add(
            Table::from_rows(
                format!("gp_{i:02}"),
                &["Practice", "City", "Patients"],
                &rows,
            )
            .unwrap(),
        )
        .unwrap();
    }
    lake
}

fn target() -> Table {
    Table::from_rows(
        "wanted",
        &["Practice", "City"],
        &[
            vec!["Practice 3-1".into(), "Salford".into()],
            vec!["Practice 5-2".into(), "Manchester".into()],
        ],
    )
    .unwrap()
}

fn query_body(t: &Table, k: usize) -> String {
    Json::Obj(vec![
        ("table".to_string(), table_to_json(t)),
        ("k".to_string(), Json::Num(k as f64)),
    ])
    .to_string()
}

// ------------------------------------------------------------- test server

struct TestServer {
    addr: SocketAddr,
    engine: Arc<EngineHandle>,
    dir: PathBuf,
    handle: ShutdownHandle,
    join: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

fn boot(tag: &str, lake: &DataLake, threads: usize, io_timeout: Duration) -> TestServer {
    boot_cfg(
        tag,
        lake,
        ServerConfig {
            threads,
            io_timeout,
            max_body_bytes: 256 * 1024,
            ..Default::default()
        },
    )
}

fn boot_cfg(tag: &str, lake: &DataLake, cfg: ServerConfig) -> TestServer {
    let dir = std::env::temp_dir().join(format!("d3l_srv_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d3l = D3l::index_lake(lake, D3lConfig::fast());
    let store = IndexStore::create(&dir, &d3l).unwrap();
    let engine = Arc::new(EngineHandle::new(store, d3l));
    let server = Server::bind(("127.0.0.1", 0), engine.clone(), cfg).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle();
    let join = Some(std::thread::spawn(move || server.run()));
    TestServer {
        addr,
        engine,
        dir,
        handle,
        join,
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            join.join()
                .expect("server thread panicked")
                .expect("run failed");
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Throw raw bytes at the server and collect everything it answers
/// until it closes the connection. With `half_close`, our sending
/// side is shut down first (simulating a client that stops mid-body).
fn raw_exchange(addr: SocketAddr, input: &[u8], half_close: bool) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(input).unwrap();
    if half_close {
        stream.shutdown(Shutdown::Write).unwrap();
    }
    let mut out = String::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(_) => break,
        }
    }
    out
}

fn status_of(response: &str) -> Option<u16> {
    response
        .strip_prefix("HTTP/1.1 ")?
        .split(' ')
        .next()?
        .parse()
        .ok()
}

fn assert_alive(addr: SocketAddr) {
    let (status, body) = request_once(addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200, "server must stay answerable: {body}");
}

// ------------------------------------------------------ protocol hardening

#[test]
fn malformed_requests_get_typed_4xx_and_server_survives() {
    let lake = lake(4);
    let srv = boot("malformed", &lake, 2, Duration::from_secs(10));
    let cases: Vec<(Vec<u8>, u16)> = vec![
        // Garbage request lines.
        (b"GARBAGE\r\n\r\n".to_vec(), 400),
        (b"GET\r\n\r\n".to_vec(), 400),
        (b"GET /stats\r\n\r\n".to_vec(), 400),
        (b"GET /stats HTTP/1.1 junk\r\n\r\n".to_vec(), 400),
        (b"get /stats HTTP/1.1\r\n\r\n".to_vec(), 400),
        (b"GET stats HTTP/1.1\r\n\r\n".to_vec(), 400),
        (b"GET /%zz HTTP/1.1\r\n\r\n".to_vec(), 400),
        (b"\x00\x01\x02\x03\r\n\r\n".to_vec(), 400),
        // Unsupported method / version.
        (b"PATCH /stats HTTP/1.1\r\n\r\n".to_vec(), 405),
        (b"GET /stats HTTP/2.0\r\n\r\n".to_vec(), 505),
        // Oversized request line.
        (
            format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000)).into_bytes(),
            414,
        ),
        // Oversized single header / too many headers.
        (
            format!(
                "GET /stats HTTP/1.1\r\nX-Big: {}\r\n\r\n",
                "v".repeat(10_000)
            )
            .into_bytes(),
            431,
        ),
        (
            format!("GET /stats HTTP/1.1\r\n{}\r\n", "X-H: v\r\n".repeat(150)).into_bytes(),
            431,
        ),
        // Header without a colon.
        (
            b"GET /stats HTTP/1.1\r\nbroken header line\r\n\r\n".to_vec(),
            400,
        ),
        // Body-length violations.
        (b"POST /query HTTP/1.1\r\n\r\n".to_vec(), 411),
        (
            b"POST /query HTTP/1.1\r\nContent-Length: many\r\n\r\n".to_vec(),
            400,
        ),
        (
            b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n".to_vec(),
            400,
        ),
        (
            b"POST /query HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n".to_vec(),
            413,
        ),
        // Valid HTTP, invalid JSON / invalid table.
        (
            b"POST /query HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!".to_vec(),
            400,
        ),
        (
            b"POST /query HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}".to_vec(),
            400,
        ),
        (
            b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\n\xff\xfe\xfd\xfc".to_vec(),
            400,
        ),
    ];
    for (input, expected) in cases {
        let response = raw_exchange(srv.addr, &input, false);
        assert_eq!(
            status_of(&response),
            Some(expected),
            "input {:?} answered {response:?}",
            String::from_utf8_lossy(&input)
        );
        // A protocol violation poisons only its own connection.
        assert_alive(srv.addr);
    }
}

#[test]
fn routing_refusals_are_typed() {
    let lake = lake(4);
    let srv = boot("routing", &lake, 2, Duration::from_secs(10));
    let t = target();

    // Unknown paths and wrong methods.
    let (status, _) = request_once(srv.addr, "GET", "/definitely/not", None).unwrap();
    assert_eq!(status, 404);
    let batch = format!("{{\"targets\":[{}]}}", table_to_json(&t));
    let (status, body) = request_once(srv.addr, "POST", "/query_batch", Some(&batch)).unwrap();
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("no endpoint at /query_batch"), "{body}");
    let (status, _) = request_once(srv.addr, "GET", "/query", None).unwrap();
    assert_eq!(status, 405, "GET on a POST endpoint");
    let (status, _) = request_once(srv.addr, "DELETE", "/stats", None).unwrap();
    assert_eq!(status, 405);

    // Query-shape refusals.
    let bad_k = format!("{{\"table\":{},\"k\":\"ten\"}}", table_to_json(&t));
    let (status, body) = request_once(srv.addr, "POST", "/query", Some(&bad_k)).unwrap();
    assert_eq!(status, 400, "{body}");
    let bad_evidence = format!("{{\"table\":{},\"evidence\":\"Z\"}}", table_to_json(&t));
    let (status, body) = request_once(srv.addr, "POST", "/query", Some(&bad_evidence)).unwrap();
    assert_eq!(status, 400);
    assert!(body.contains("unknown evidence"), "{body}");
    let bad_exclude = format!(
        "{{\"table\":{},\"exclude\":\"never_there\"}}",
        table_to_json(&t)
    );
    let (status, body) = request_once(srv.addr, "POST", "/query", Some(&bad_exclude)).unwrap();
    assert_eq!(status, 404, "{body}");

    // rank_all parameter contract.
    let (status, _) = request_once(srv.addr, "GET", "/rank_all", None).unwrap();
    assert_eq!(status, 400);
    let (status, _) = request_once(srv.addr, "GET", "/rank_all?target=missing", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) =
        request_once(srv.addr, "GET", "/rank_all?target=gp_00&width=0", None).unwrap();
    assert_eq!(status, 400);

    // Mutation refusals.
    let (status, _) = request_once(srv.addr, "DELETE", "/tables/never_there", None).unwrap();
    assert_eq!(status, 404);
    let dup = format!("{{\"table\":{}}}", table_to_json(lake.table(TableId(0))));
    let (status, body) = request_once(srv.addr, "POST", "/tables", Some(&dup)).unwrap();
    assert_eq!(status, 409, "{body}");
    // A table no `DELETE /tables/<name>` could name is never indexed.
    let nameless = "{\"name\":\"\",\"columns\":[\"a\"],\"rows\":[[\"1\"]]}";
    let (status, body) = request_once(srv.addr, "POST", "/tables", Some(nameless)).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("name must not be empty"), "{body}");
    assert_eq!(srv.engine.snapshot().engine.live_table_count(), 4);
}

/// The widest lookups a request can ask for answer: the largest `"k"`
/// a `/query` body can carry (`u32::MAX`) and a `/rank_all` width of
/// 2⁴⁰ each answer 200, and the server answers afterwards. (Either
/// aborted the process: the lookups' fallback sized its selection heap
/// by the width.)
#[test]
fn huge_k_and_width_answer_and_the_server_survives() {
    let lake = lake(12);
    let srv = boot("huge_k", &lake, 2, Duration::from_secs(10));
    let huge_k = format!(
        "{{\"table\":{},\"k\":4294967295}}",
        table_to_json(&target())
    );
    let (status, body) = request_once(srv.addr, "POST", "/query", Some(&huge_k)).unwrap();
    assert_eq!(status, 200, "{body}");
    let wide = "/rank_all?target=gp_03&width=1099511627776";
    let (status, body) = request_once(srv.addr, "GET", wide, None).unwrap();
    assert_eq!(status, 200, "{body}");
    assert_alive(srv.addr);
}

/// Every numeric request field at 0, 1, the lake size, 2³² and
/// `u64::MAX` (and `k` also at −1, 1.5 and 1e300): `k` on `/query` and
/// `width` on `/rank_all`; and a table's column and row counts on
/// `/query` and `POST /tables`. Each request answers 2xx with at most
/// the lake's tables, or a typed 4xx; the server answers afterwards.
#[test]
fn every_numeric_request_field_at_its_extremes_answers_or_is_refused() {
    const TABLES: usize = 12;
    let lake = lake(TABLES);
    let srv = boot("numeric_fields", &lake, 2, Duration::from_secs(10));
    let extremes = ["0", "1", "12", "4294967296", "18446744073709551615"];
    let ks = extremes.iter().chain(&["-1", "1.5", "1e300"]);
    let target = table_to_json(&target()).to_string();
    // The ranking an answer carries, at most the lake's tables.
    let ranking = |status: u16, body: &str, what: &str| {
        if status != 200 {
            assert!((400..500).contains(&status), "{what}: {status} {body}");
            return;
        }
        let doc = Json::parse(body).unwrap();
        let len = doc.get("matches").unwrap().as_arr().unwrap().len();
        assert!(len <= TABLES, "{what}: {len}");
    };
    for k in ks {
        let body = format!("{{\"table\":{target},\"k\":{k}}}");
        let (status, text) = request_once(srv.addr, "POST", "/query", Some(&body)).unwrap();
        ranking(status, &text, &format!("/query k {k}"));
    }
    for width in extremes {
        let path = format!("/rank_all?target=gp_03&width={width}");
        let (status, text) = request_once(srv.addr, "GET", &path, None).unwrap();
        ranking(status, &text, &format!("/rank_all width {width}"));
    }

    // Table sizes on the wire: a table's column count at 0, 1, the
    // attribute bound and one past it (one row each), and the
    // 2-column target's row count at 0, 1 and the most rows the
    // 256 KiB body cap holds, on `/query` and `POST /tables` (last:
    // it grows the lake). One past the bound is
    // a 413.
    let bound = MAX_REQUEST_ATTRIBUTES;
    // `(n, "columns")`: `c0`, `c1`, ... over one row of "v"s (none
    // without columns); `(n, "rows")`: the target's two columns, n
    // rows of its first row.
    let sized = |name: &str, (n, unit): (usize, &str)| {
        let table = if unit == "columns" {
            let names: Vec<String> = (0..n).map(|c| format!("c{c}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let rows = vec![vec!["v".to_string(); n]; usize::from(n > 0)];
            Table::from_rows(name, &names, &rows)
        } else {
            let rows = vec![vec!["Practice 3-1".to_string(), "Salford".to_string()]; n];
            Table::from_rows(name, &["Practice", "City"], &rows)
        };
        table_to_json(&table.unwrap()).to_string()
    };
    let body_of = |path: &str, table: &str| match path {
        "/query" => format!("{{\"table\":{table},\"k\":5}}"),
        _ => format!("{{\"table\":{table}}}"),
    };
    let cap = 256 * 1024;
    let mut slowest = (Duration::ZERO, String::new());
    for path in ["/query", "/tables"] {
        // Rows after the first cost their bytes plus a comma.
        let rows = |n| body_of(path, &sized("sized_0", (n, "rows"))).len();
        let most_rows = 1 + (cap - rows(1)) / (rows(2) - rows(1));
        assert!(rows(most_rows) <= cap && rows(most_rows + 1) > cap);
        let columns = [0, 1, bound, bound + 1].map(|n| (n, "columns"));
        let sizes = columns
            .into_iter()
            .chain([0, 1, most_rows].map(|n| (n, "rows")));
        // Each added table needs a name of its own.
        for (i, size) in sizes.enumerate() {
            let body = body_of(path, &sized(&format!("sized_{i}"), size));
            let what = format!("POST {path} with {} {}", size.0, size.1);
            let start = Instant::now();
            let (status, text) = request_once(srv.addr, "POST", path, Some(&body)).unwrap();
            if start.elapsed() > slowest.0 {
                slowest = (start.elapsed(), what.clone());
            }
            if path == "/tables" {
                assert!(
                    status == 201 || (400..500).contains(&status),
                    "{what}: {status} {text}"
                );
            } else {
                ranking(status, &text, &what);
            }
            if size == (bound + 1, "columns") {
                assert_eq!(status, 413, "{what}: {text}");
            }
        }
    }
    println!(
        "slowest table-size request: {} ms ({})",
        slowest.0.as_millis(),
        slowest.1
    );
    assert_alive(srv.addr);
}

/// A request whose table holds more than [`MAX_REQUEST_ATTRIBUTES`]
/// attributes is refused with a typed 413 before anything is signed:
/// a `/query` target or a `POST /tables` table one past the bound. A
/// target at the bound answers 200.
#[test]
fn a_request_past_the_attribute_bound_is_refused_at_decode() {
    let lake = lake(3);
    let srv = boot("attribute_bound", &lake, 2, Duration::from_secs(10));
    let table = |name: &str, columns: usize| {
        let names = vec![""; columns];
        table_to_json(&Table::from_rows(name, &names, &[]).unwrap()).to_string()
    };
    let bound = MAX_REQUEST_ATTRIBUTES;
    for (path, body, want) in [
        (
            "/query",
            format!("{{\"table\":{}}}", table("t", bound)),
            200,
        ),
        (
            "/query",
            format!("{{\"table\":{}}}", table("t", bound + 1)),
            413,
        ),
        (
            "/tables",
            format!("{{\"table\":{}}}", table("t", bound + 1)),
            413,
        ),
    ] {
        let (status, text) = request_once(srv.addr, "POST", path, Some(&body)).unwrap();
        assert_eq!(status, want, "{path}: {text}");
        if want == 413 {
            assert!(text.contains(&format!("at most {bound}")), "{text}");
        }
    }
    assert_eq!(srv.engine.snapshot().engine.live_table_count(), 3);
    assert_alive(srv.addr);
}

/// A pending-connection queue of 0 would shed every connection with a
/// 503, so it is refused at bind, beside the worker-count bound.
#[test]
fn a_zero_max_queue_is_refused_at_bind() {
    let dir = std::env::temp_dir().join(format!("d3l_srv_zero_queue_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d3l = D3l::index_lake(&lake(2), D3lConfig::fast());
    let engine = Arc::new(EngineHandle::create(&dir, d3l).unwrap());
    let cfg = ServerConfig {
        max_queue: 0,
        ..Default::default()
    };
    let error = Server::bind(("127.0.0.1", 0), engine, cfg)
        .err()
        .expect("a zero max_queue is refused");
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stalled_and_truncated_clients_cannot_park_a_worker() {
    let lake = lake(3);
    // One worker on purpose: if any stalling connection parked it,
    // every later assertion would hang instead of answering.
    let srv = boot("stall", &lake, 1, Duration::from_millis(300));

    // Truncated body, sender closes: typed 400 naming the truncation.
    let response = raw_exchange(
        srv.addr,
        b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"tab",
        true,
    );
    assert_eq!(status_of(&response), Some(400), "{response}");
    assert!(response.contains("truncated"), "{response}");

    // Truncated body, sender stalls silently: 408 after the timeout,
    // never a hang.
    let start = Instant::now();
    let response = raw_exchange(
        srv.addr,
        b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"tab",
        false,
    );
    assert_eq!(status_of(&response), Some(408), "{response}");
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "timeout must fire promptly"
    );

    // Stall mid-headers: same contract.
    let response = raw_exchange(srv.addr, b"GET /stats HTTP/1.1\r\nX-Half", false);
    assert_eq!(status_of(&response), Some(408), "{response}");

    // A connection that never sends anything is reaped silently.
    let response = raw_exchange(srv.addr, b"", false);
    assert_eq!(response, "", "idle connection closes without a scolding");

    // The single worker is free again.
    assert_alive(srv.addr);
}

#[test]
fn pipelined_requests_and_pipelined_garbage() {
    let lake = lake(3);
    let srv = boot("pipeline", &lake, 2, Duration::from_secs(5));

    // Two pipelined valid requests: both answered, in order.
    let response = raw_exchange(
        srv.addr,
        b"GET /stats HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\nConnection: close\r\n\r\n",
        false,
    );
    assert_eq!(response.matches("HTTP/1.1 200 OK").count(), 2, "{response}");

    // A valid request pipelined with garbage: the garbage gets a
    // typed 400 on the same connection, then the connection closes.
    let response = raw_exchange(
        srv.addr,
        b"GET /stats HTTP/1.1\r\n\r\n\x13\x37 utter nonsense\r\n\r\n",
        false,
    );
    assert_eq!(response.matches("HTTP/1.1 200 OK").count(), 1, "{response}");
    assert!(response.contains("HTTP/1.1 400 Bad Request"), "{response}");

    // Over-declared body: the bytes beyond Content-Length are parsed
    // as the next pipelined request and fail typed (the half-close
    // delivers EOF mid-garbage-line, a 400-class truncation).
    let body = b"{\"k\":1}tail-overflow";
    let mut wire = b"POST /query HTTP/1.1\r\nContent-Length: 7\r\n\r\n".to_vec();
    wire.extend_from_slice(body);
    let response = raw_exchange(srv.addr, &wire, true);
    // First answer: the 7-byte body is valid JSON but not a table;
    // second: the overflow bytes are not a request.
    assert_eq!(response.matches("HTTP/1.1 400").count(), 2, "{response}");
    assert_alive(srv.addr);
}

/// A body is framed by one `Content-Length` or not at all (RFC 9112
/// §6.1, §6.3): differing lengths answer 400 and any
/// `Transfer-Encoding` 501, each before a body byte is read and as the
/// connection's only answer, so no byte of the body is parsed as a
/// request. Equal repeated lengths frame the body as usual.
#[test]
fn ambiguous_body_framing_is_refused_and_closes() {
    let lake = lake(3);
    let srv = boot("framing", &lake, 2, Duration::from_secs(5));
    let query = query_body(&target(), 3);
    let cases: Vec<(Vec<u8>, u16, &str)> = vec![
        // The longer length would swallow the start of the pipelined
        // request.
        (
            b"POST /query HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n{}GET /stats HTTP/1.1\r\n\r\n"
                .to_vec(),
            400,
            "differing Content-Length values 2 and 5",
        ),
        // Chunk bytes that must not be parsed as a request.
        (
            b"GET /stats HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n".to_vec(),
            501,
            r#"chunked\" not implemented"#,
        ),
        // A coding and a length: neither frames the body.
        (
            format!(
                "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: {}\r\n\r\n{query}",
                query.len()
            )
            .into_bytes(),
            501,
            "not implemented",
        ),
    ];
    for (input, status, needle) in cases {
        let response = raw_exchange(srv.addr, &input, false);
        let what = String::from_utf8_lossy(&input).into_owned();
        assert_eq!(status_of(&response), Some(status), "{what:?}: {response}");
        assert_eq!(
            response.matches("HTTP/1.1 ").count(),
            1,
            "{what:?}: {response}"
        );
        assert!(response.contains(needle), "{what:?}: {response}");
        assert!(response.contains("Connection: close"), "{response}");
    }
    let repeated = format!(
        "POST /query HTTP/1.1\r\nContent-Length: {n}\r\ncontent-length: {n}\r\nConnection: close\r\n\r\n{query}",
        n = query.len()
    );
    let response = raw_exchange(srv.addr, repeated.as_bytes(), false);
    assert_eq!(status_of(&response), Some(200), "{response}");
    assert_alive(srv.addr);
}

/// Deterministic fuzz: seeded random byte soup, random header soup
/// and random mutations of a valid request. The server must answer
/// every connection with either a well-formed HTTP response or a
/// clean close — and must still be serving afterwards.
#[test]
fn fuzzed_wire_input_never_kills_the_server() {
    use rand::{Rng, SeedableRng};
    let lake = lake(3);
    let srv = boot("fuzz", &lake, 2, Duration::from_millis(400));
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xd31f);
    let valid = format!(
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
        query_body(&target(), 3).len(),
        query_body(&target(), 3)
    );

    for case in 0..120 {
        let input: Vec<u8> = match case % 3 {
            // Random bytes, newline-sprinkled.
            0 => {
                let len = rng.gen_range(1..200usize);
                (0..len)
                    .map(|i| {
                        if i % 17 == 16 {
                            b'\n'
                        } else {
                            (rng.gen_range(0..256u32) & 0xff) as u8
                        }
                    })
                    .chain(*b"\r\n\r\n")
                    .collect()
            }
            // ASCII header soup after a plausible request line.
            1 => {
                let mut s = String::from("GET /stats HTTP/1.1\r\n");
                for _ in 0..rng.gen_range(0..6u32) {
                    for _ in 0..rng.gen_range(0..30u32) {
                        s.push((b'!' + (rng.gen_range(0..90u32) as u8 % 90)) as char);
                    }
                    s.push_str("\r\n");
                }
                s.push_str("\r\n");
                s.into_bytes()
            }
            // Bit-flipped / truncated valid request.
            _ => {
                let mut bytes = valid.clone().into_bytes();
                let cut = rng.gen_range(1..bytes.len());
                bytes.truncate(cut);
                if !bytes.is_empty() {
                    let pos = rng.gen_range(0..bytes.len());
                    bytes[pos] ^= 1 << rng.gen_range(0..8u32);
                }
                bytes
            }
        };
        let response = raw_exchange(srv.addr, &input, true);
        assert!(
            response.is_empty() || response.starts_with("HTTP/1.1 "),
            "case {case}: non-HTTP answer {response:?} to {:?}",
            String::from_utf8_lossy(&input)
        );
    }
    assert_alive(srv.addr);
}

// ------------------------------------------------------------ API contract

#[test]
fn endpoints_answer_and_mutations_are_read_your_writes() {
    let lake = lake(6);
    let srv = boot("api", &lake, 4, Duration::from_secs(10));
    let mut client = Client::connect(srv.addr).unwrap();

    // stats: fresh server at version 0.
    let (status, body) = client.request("GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    let stats = Json::parse(&body).unwrap();
    assert_eq!(stats.get("engine_version").unwrap().as_usize(), Some(0));
    assert_eq!(stats.get("tables").unwrap().as_usize(), Some(6));
    assert_eq!(stats.get("live_tables").unwrap().as_usize(), Some(6));
    let lanes = stats.get("signing_lanes").unwrap().as_str().unwrap();
    assert!(["avx512", "portable"].contains(&lanes), "got: {lanes}");
    assert_eq!(lanes, d3l::core::index::signing_lanes());
    // Additive: clients that scan for the first `live_tables` still
    // find the lake-wide one.
    assert!(body.find("\"signing_lanes\"").unwrap() > body.find("\"live_tables\"").unwrap());
    let memory = stats.get("memory").unwrap();
    let bytes = |obj: &Json, key: &str| {
        let value = obj.get(key).and_then(Json::as_usize);
        value.unwrap_or_else(|| panic!("memory.{key} missing from /stats"))
    };
    let total = bytes(memory, "total_bytes");
    assert!(total > 0);
    // The parts add up to the total: per index its trees, signatures
    // and postings, then the attribute rows, the table columns and
    // the hashers.
    let indexes: usize = ["in", "iv", "if", "ie"]
        .iter()
        .map(|name| memory.get(name).unwrap())
        .flat_map(|idx| ["tree_bytes", "signature_bytes", "posting_bytes"].map(|k| bytes(idx, k)))
        .sum();
    let rest: usize = ["profile_bytes", "table_bytes", "hasher_bytes"]
        .iter()
        .map(|k| bytes(memory, k))
        .sum();
    assert_eq!(indexes + rest, total);
    assert_eq!(
        stats
            .get("disk")
            .unwrap()
            .get("delta_segments")
            .unwrap()
            .as_usize(),
        Some(0)
    );
    // Cache and admission-control observability: the documented
    // schema, present from the first response.
    let cache = stats.get("cache").expect("stats exposes a cache object");
    for key in [
        "hits",
        "misses",
        "evictions",
        "insertions",
        "entries",
        "bytes",
        "budget_bytes",
    ] {
        assert!(
            cache.get(key).and_then(Json::as_f64).is_some(),
            "cache.{key} missing from /stats"
        );
    }
    let server = stats.get("server").expect("stats exposes a server object");
    assert_eq!(server.get("shed_requests").unwrap().as_usize(), Some(0));
    assert_eq!(server.get("queue_depth").unwrap().as_usize(), Some(0));
    assert!(server.get("max_queue").unwrap().as_usize().unwrap() >= 1);

    // query.
    let (status, body) = client
        .request("POST", "/query", Some(&query_body(&target(), 3)))
        .unwrap();
    assert_eq!(status, 200);
    let parsed = Json::parse(&body).unwrap();
    let matches = parsed.get("matches").unwrap().as_arr().unwrap();
    assert!(!matches.is_empty(), "related tables must be found");
    assert!(matches.len() <= 3, "k respected");

    // rank_all over an indexed member excludes it by default.
    let (status, body) = client
        .request("GET", "/rank_all?target=gp_02", None)
        .unwrap();
    assert_eq!(status, 200);
    let ranked = Json::parse(&body).unwrap();
    for m in ranked.get("matches").unwrap().as_arr().unwrap() {
        assert_ne!(m.get("table").unwrap().as_str(), Some("gp_02"));
    }
    let (status, body) = client
        .request("GET", "/rank_all?target=gp_02&include_self=true", None)
        .unwrap();
    assert_eq!(status, 200);
    let ranked = Json::parse(&body).unwrap();
    let first = &ranked.get("matches").unwrap().as_arr().unwrap()[0];
    assert_eq!(
        first.get("table").unwrap().as_str(),
        Some("gp_02"),
        "a table is trivially closest to itself"
    );

    // Mutation: add a table, then read it back immediately.
    let new_table = Table::from_rows(
        "fresh_arrivals",
        &["Practice", "City"],
        &[vec!["Practice 3-1".into(), "Salford".into()]],
    )
    .unwrap();
    let add = format!("{{\"table\":{}}}", table_to_json(&new_table));
    let (status, body) = client.request("POST", "/tables", Some(&add)).unwrap();
    assert_eq!(status, 201, "{body}");
    let ack = Json::parse(&body).unwrap();
    assert_eq!(ack.get("engine_version").unwrap().as_usize(), Some(1));
    assert_eq!(ack.get("live_tables").unwrap().as_usize(), Some(7));
    // Read-your-writes: the very next query sees it.
    let (status, body) = client
        .request("POST", "/query", Some(&query_body(&target(), 7)))
        .unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("fresh_arrivals"), "{body}");
    // And so does a brand-new connection.
    let (_, body) =
        request_once(srv.addr, "POST", "/query", Some(&query_body(&target(), 7))).unwrap();
    assert!(body.contains("fresh_arrivals"));

    // Remove: gone for every subsequent read.
    let (status, body) = client
        .request("DELETE", "/tables/fresh_arrivals", None)
        .unwrap();
    assert_eq!(status, 200, "{body}");
    let ack = Json::parse(&body).unwrap();
    assert_eq!(ack.get("engine_version").unwrap().as_usize(), Some(2));
    assert_eq!(ack.get("live_tables").unwrap().as_usize(), Some(6));
    let (_, body) = client
        .request("POST", "/query", Some(&query_body(&target(), 7)))
        .unwrap();
    assert!(!body.contains("fresh_arrivals"), "{body}");

    // The two mutations sit in delta segments until compaction.
    let (_, body) = client.request("GET", "/stats", None).unwrap();
    let stats = Json::parse(&body).unwrap();
    assert_eq!(
        stats
            .get("disk")
            .unwrap()
            .get("delta_segments")
            .unwrap()
            .as_usize(),
        Some(2)
    );
    let (status, body) = client.request("POST", "/admin/compact", Some("")).unwrap();
    assert_eq!(status, 200);
    let ack = Json::parse(&body).unwrap();
    assert_eq!(ack.get("folded_segments").unwrap().as_usize(), Some(2));
    let (_, body) = client.request("GET", "/stats", None).unwrap();
    let stats = Json::parse(&body).unwrap();
    assert_eq!(
        stats
            .get("disk")
            .unwrap()
            .get("delta_segments")
            .unwrap()
            .as_usize(),
        Some(0)
    );

    // Request counters moved.
    let served = stats
        .get("server")
        .unwrap()
        .get("responses_2xx")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(served >= 10.0, "counters must track responses: {served}");

    // The identical query was asked twice at the same engine version
    // (read-your-writes check above), so the result cache served at
    // least one hit — and the counters prove it moved.
    let cache = stats.get("cache").unwrap();
    assert!(
        cache.get("hits").unwrap().as_f64().unwrap() >= 1.0,
        "repeated identical query must hit the result cache"
    );
    assert!(cache.get("insertions").unwrap().as_f64().unwrap() >= 1.0);
}

/// One process writes an index directory. A second process that
/// appends a segment to a served directory (what `d3l add` beside a
/// running `d3l serve` does) takes the sequence number the server's
/// next write needs: that write is refused with a 409 naming the rule,
/// the served engine does not move, and the store keeps the second
/// writer's table, intact, for the next open.
#[test]
fn a_second_writer_is_a_conflict_not_a_corrupt_store() {
    let lake = lake(4);
    let mut srv = boot("second_writer", &lake, 2, Duration::from_secs(10));
    let table = |name: &str| {
        Table::from_rows(
            name,
            &["Practice", "City"],
            &[vec!["Practice 3-1".into(), "Salford".into()]],
        )
        .unwrap()
    };

    let (mut store, mut engine) = IndexStore::open(&srv.dir).unwrap();
    store.append_add(&mut engine, &table("outside")).unwrap();

    let body = format!("{{\"table\":{}}}", table_to_json(&table("refused")));
    let (status, body) = request_once(srv.addr, "POST", "/tables", Some(&body)).unwrap();
    assert_eq!(status, 409, "{body}");
    assert!(body.contains("another process"), "{body}");
    let (status, stats) = request_once(srv.addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    let stats = Json::parse(&stats).unwrap();
    assert_eq!(stats.get("live_tables").unwrap().as_usize(), Some(4));

    srv.handle.shutdown();
    srv.join.take().unwrap().join().unwrap().unwrap();
    let reopened = EngineHandle::open(&srv.dir).unwrap().snapshot();
    assert!(reopened.engine.table_id("outside").is_some());
    assert!(reopened.engine.table_id("refused").is_none());
    assert_eq!(reopened.engine.live_table_count(), 5);
}

/// Every writer folds by one rule, HTTP included: 65 `POST /tables`
/// leave one delta segment beside a base holding the first 64, and
/// `/metrics` counts that one fold.
#[test]
fn http_writes_fold_at_the_handles_segment_count() {
    let lake = lake(2);
    let srv = boot("fold", &lake, 2, Duration::from_secs(10));
    let mut client = Client::connect(srv.addr).unwrap();
    for i in 0..=d3l::core::FOLD_SEGMENTS {
        let table = Table::from_rows(
            format!("added_{i:03}"),
            &["Practice", "City"],
            &[vec![format!("Practice {i}"), "Salford".into()]],
        )
        .unwrap();
        let body = format!("{{\"table\":{}}}", table_to_json(&table));
        let (status, body) = client.request("POST", "/tables", Some(&body)).unwrap();
        assert_eq!(status, 201, "{body}");
    }
    let (_, body) = client.request("GET", "/stats", None).unwrap();
    let stats = Json::parse(&body).unwrap();
    let disk = stats.get("disk").unwrap();
    assert_eq!(disk.get("delta_segments").unwrap().as_usize(), Some(1));
    assert_eq!(stats.get("live_tables").unwrap().as_usize(), Some(67));
    let (_, metrics) = client.request("GET", "/metrics", None).unwrap();
    assert!(
        metrics
            .lines()
            .any(|l| l == "d3l_store_op_seconds_count{op=\"compact\"} 1"),
        "{metrics}"
    );
}

#[test]
fn shutdown_is_prompt_despite_idle_keep_alive_connections() {
    // Regression: a worker parked on an idle keep-alive connection
    // must still observe the drain signal within the poll interval,
    // not after the full io_timeout.
    let lake = lake(3);
    let io_timeout = Duration::from_secs(30);
    let mut srv = boot("idle_drain", &lake, 2, io_timeout);

    // An idle monitoring client: does one request, then just holds
    // the connection open.
    let mut idle = Client::connect(srv.addr).unwrap();
    let (status, _) = idle.request("GET", "/stats", None).unwrap();
    assert_eq!(status, 200);

    let start = Instant::now();
    let (status, _) = request_once(srv.addr, "POST", "/admin/shutdown", Some("")).unwrap();
    assert_eq!(status, 200);
    srv.join
        .take()
        .unwrap()
        .join()
        .expect("server thread panicked")
        .expect("run failed");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "drain took {:?} with a {io_timeout:?} io_timeout — the idle \
         connection parked a worker",
        start.elapsed()
    );
    drop(idle);
}

#[test]
fn graceful_shutdown_drains_and_run_returns() {
    let lake = lake(3);
    let mut srv = boot("shutdown", &lake, 2, Duration::from_secs(5));
    let (status, body) = request_once(srv.addr, "POST", "/admin/shutdown", Some("")).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("shutting_down"), "{body}");
    // run() returns on its own — join without triggering the Drop
    // handle first.
    srv.join
        .take()
        .unwrap()
        .join()
        .expect("server thread panicked")
        .expect("run failed");
    // New connections are refused or die unanswered.
    assert!(request_once(srv.addr, "GET", "/stats", None).is_err());
}

// ------------------------------------------------------- admission control

#[test]
fn overload_sheds_with_typed_503_and_recovers() {
    // One worker, a pending queue bounded at one connection. Client A
    // owns the worker, B fills the queue, and a burst of six more
    // connections must every one be refused at the door with a typed
    // 503 + Retry-After — immediately, never hanging, never killing
    // the server. Releasing A must drain B normally (200), and the
    // shed/queue counters must account for all of it.
    let lake = lake(4);
    let srv = boot_cfg(
        "overload",
        &lake,
        ServerConfig {
            threads: 1,
            max_queue: 1,
            io_timeout: Duration::from_secs(10),
            max_body_bytes: 256 * 1024,
            ..Default::default()
        },
    );

    // A: one served request parks the worker on A's keep-alive socket.
    let mut a = Client::connect(srv.addr).unwrap();
    let (status, _) = a
        .request("POST", "/query", Some(&query_body(&target(), 3)))
        .unwrap();
    assert_eq!(status, 200);

    // B: a full valid request, parked in the pending queue (depth 1).
    let body = query_body(&target(), 3);
    let close_req = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let mut b = TcpStream::connect(srv.addr).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    b.write_all(close_req.as_bytes()).unwrap();
    // Give the accept loop time to enqueue B before the burst.
    std::thread::sleep(Duration::from_millis(200));

    // The burst: queue full, so each connection is shed on arrival.
    for i in 0..6 {
        let response = raw_exchange(srv.addr, close_req.as_bytes(), false);
        assert_eq!(status_of(&response), Some(503), "burst {i}: {response}");
        assert!(
            response.contains("Retry-After: 1"),
            "burst {i}: shed response must carry Retry-After: {response}"
        );
        assert!(
            response.contains("server at capacity"),
            "burst {i}: typed body: {response}"
        );
        // The shed path half-closes and drains before dropping the
        // socket; a premature RST would truncate the body (or wipe it
        // entirely) even though the server wrote every byte. Prove
        // the client received exactly Content-Length bytes.
        let (headers, body) = response
            .split_once("\r\n\r\n")
            .unwrap_or_else(|| panic!("burst {i}: incomplete header block: {response}"));
        let declared: usize = headers
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("burst {i}: no Content-Length: {response}"));
        assert_eq!(
            body.len(),
            declared,
            "burst {i}: 503 body must arrive intact despite the close"
        );
    }

    // Release the worker: A hangs up, B gets served and closed.
    drop(a);
    let mut out = String::new();
    let mut buf = [0u8; 4096];
    loop {
        match b.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(_) => break,
        }
    }
    assert_eq!(
        status_of(&out),
        Some(200),
        "queued client must recover: {out}"
    );

    // Recovered: fresh requests answer, counters account for the shed
    // burst, and nothing is left queued.
    assert_alive(srv.addr);
    let (_, body) = request_once(srv.addr, "GET", "/stats", None).unwrap();
    let stats = Json::parse(&body).unwrap();
    let server = stats.get("server").unwrap();
    assert_eq!(
        server.get("shed_requests").unwrap().as_usize(),
        Some(6),
        "every burst connection was shed"
    );
    assert_eq!(server.get("queue_depth").unwrap().as_usize(), Some(0));
}

#[test]
fn pipelining_client_cannot_starve_the_pool() {
    // One worker. A pipelines a long burst of requests; B arrives
    // mid-burst with one request. With the fairness quantum (32
    // responses per turn), the worker must rotate A back into the
    // queue and answer B before A's burst is done — and A must still
    // receive every one of its responses.
    //
    // B is queued while the burst is provably still being served: A
    // reads its first response before B connects, and A sends its
    // burst as CHUNKS pipelined writes PACE apart, so its last request
    // leaves A at least (CHUNKS - 1) × PACE after its first, however
    // fast the worker answers — far longer than the accept loop's
    // 2 ms poll takes to queue B. Without the rotation the worker
    // would stay on A, waiting for each next chunk, until the burst
    // ended.
    const CHUNKS: usize = 20;
    const PER_CHUNK: usize = 5;
    const PACE: Duration = Duration::from_millis(10);
    const BURST: usize = CHUNKS * PER_CHUNK;
    let lake = lake(6);
    let srv = boot_cfg(
        "fairness",
        &lake,
        ServerConfig {
            threads: 1,
            cache_bytes: 0, // keep every query on the engine path
            max_queue: 64,
            io_timeout: Duration::from_secs(10),
            max_body_bytes: 256 * 1024,
            slow_query_ms: 250,
        },
    );

    let body = query_body(&target(), 5);
    let keep_req = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let chunk = keep_req.repeat(PER_CHUNK);

    let addr = srv.addr;
    let a = TcpStream::connect(addr).unwrap();
    a.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut a_writer = a.try_clone().unwrap();
    let (first_tx, first_rx) = std::sync::mpsc::channel();
    let (t_b, t_a) = std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..CHUNKS {
                a_writer.write_all(chunk.as_bytes()).unwrap();
                std::thread::sleep(PACE);
            }
        });
        let reader = scope.spawn(move || {
            let mut a = a;
            // Drain until all BURST responses arrived; counting status
            // lines is enough — bodies carry no "HTTP/1.1" text.
            let mut out = String::new();
            let mut buf = [0u8; 16 * 1024];
            while out.matches("HTTP/1.1 200").count() < BURST {
                match a.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
                    Err(e) => panic!("pipelining client starved mid-burst: {e}"),
                }
                if out.contains("HTTP/1.1 200") {
                    let _ = first_tx.send(());
                }
            }
            assert_eq!(
                out.matches("HTTP/1.1 200").count(),
                BURST,
                "every pipelined request must still be answered"
            );
            Instant::now()
        });

        // The worker is into A's burst: show up as the disadvantaged
        // second client.
        first_rx.recv().expect("A is answered at all");
        let close_req = format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let response = raw_exchange(addr, close_req.as_bytes(), false);
        assert_eq!(
            status_of(&response),
            Some(200),
            "B must be served: {response}"
        );
        let t_b = Instant::now();
        let t_a = reader.join().expect("pipelining client panicked");
        (t_b, t_a)
    });

    assert!(
        t_b < t_a,
        "fairness rotation must serve the waiting client before the \
         pipelined burst completes (B at {t_b:?}, A at {t_a:?})"
    );
}

// ------------------------------------------------------------- concurrency

/// The acceptance-gate stress test: 8 concurrent query clients race a
/// writer looping add → remove → compact on the same store.
#[test]
fn stress_concurrent_queries_race_mutating_writer() {
    let clients = 8usize;
    let queries_per_client = if cfg!(debug_assertions) { 40 } else { 200 };
    let lake = lake(10);
    let srv = boot("stress", &lake, clients + 2, Duration::from_secs(30));
    let baseline = srv.engine.snapshot().engine.clone();
    let initial_live = baseline.live_table_count();

    // The churn table is an exact copy of the query target, so
    // whenever it is live it must rank (and rank first); whenever it
    // is tombstoned it must be absent. Either way, every response
    // proves which engine state answered it.
    let churn = {
        let t = target();
        let rows: Vec<Vec<String>> = t
            .rows()
            .map(|r| r.into_iter().map(str::to_string).collect())
            .collect();
        let cols: Vec<&str> = t.columns().iter().map(|c| c.name()).collect();
        Table::from_rows("churn", &cols, &rows).unwrap()
    };
    let add_body = format!("{{\"table\":{}}}", table_to_json(&churn));
    let q_body = query_body(&target(), 10);

    let stop = AtomicBool::new(false);
    let completed_cycles = std::sync::atomic::AtomicU64::new(0);
    let addr = srv.addr;
    let iterations = std::thread::scope(|scope| {
        // Writer: add → remove → compact until the readers are done.
        // Every cycle ends with the churn table tombstoned, so the
        // final state has the initial live set.
        let writer = scope.spawn(|| {
            let mut client = Client::connect(addr).expect("writer connect");
            let mut iterations = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let (status, body) = client
                    .request("POST", "/tables", Some(&add_body))
                    .expect("add failed");
                assert_eq!(status, 201, "writer add: {body}");
                let (status, body) = client
                    .request("DELETE", "/tables/churn", None)
                    .expect("remove failed");
                assert_eq!(status, 200, "writer remove: {body}");
                let (status, body) = client
                    .request("POST", "/admin/compact", Some(""))
                    .expect("compact failed");
                assert_eq!(status, 200, "writer compact: {body}");
                iterations += 1;
                completed_cycles.store(iterations, Ordering::SeqCst);
            }
            iterations
        });

        // Readers: hammer /query; every response must be internally
        // consistent. `engine_version` and `live_tables` come from
        // one immutable snapshot, so the pair must always satisfy
        // live == initial + (version % 2) — the writer strictly
        // alternates add (odd versions) and remove (even versions) —
        // and the `X-Engine-Version` header must name that version.
        // A torn read (version from one state, count or matches from
        // another) would break the invariant. Each reader issues its
        // quota and then keeps going (bounded) until the writer has
        // landed a few full cycles, so the race provably happened.
        let mut readers = Vec::new();
        for _ in 0..clients {
            readers.push(scope.spawn(|| {
                let mut client = Client::connect(addr).expect("reader connect");
                let mut issued = 0usize;
                loop {
                    let done_quota = issued >= queries_per_client;
                    let raced = completed_cycles.load(Ordering::SeqCst) >= 3;
                    if done_quota && (raced || issued >= queries_per_client * 50) {
                        break;
                    }
                    issued += 1;
                    let (status, headers, body) = client
                        .request_with_headers("POST", "/query", Some(&q_body), &[])
                        .expect("query failed");
                    assert_eq!(status, 200, "no failed requests allowed: {body}");
                    let parsed = Json::parse(&body).expect("response must be JSON");
                    let version = parsed
                        .get("engine_version")
                        .and_then(Json::as_f64)
                        .expect("version") as u64;
                    // The header names the snapshot that answered, not
                    // one a write swapped in after the handler read it.
                    let stamped = headers
                        .iter()
                        .find(|(name, _)| name == "x-engine-version")
                        .map(|(_, value)| value.parse::<u64>().expect("numeric version"));
                    assert_eq!(
                        stamped,
                        Some(version),
                        "X-Engine-Version disagrees with the body's engine_version"
                    );
                    let live = parsed
                        .get("live_tables")
                        .and_then(Json::as_f64)
                        .expect("live") as u64;
                    assert_eq!(
                        live,
                        initial_live as u64 + version % 2,
                        "torn read: version {version} with live count {live}"
                    );
                    let has_churn = body.contains("\"churn\"");
                    assert_eq!(
                        has_churn,
                        version % 2 == 1,
                        "matches tore off the version: churn={has_churn} at version {version}"
                    );
                }
            }));
        }
        // Stop the writer before a reader's failure is raised, or the
        // scope would wait on it forever.
        let outcomes: Vec<_> = readers.into_iter().map(|r| r.join()).collect();
        stop.store(true, Ordering::SeqCst);
        let iterations = writer.join().expect("writer panicked");
        for outcome in outcomes {
            outcome.expect("reader panicked");
        }
        iterations
    });
    assert!(
        iterations >= 3,
        "the writer must have raced the readers ({iterations} cycles)"
    );

    // Drain and release the store directory.
    let (status, _) = request_once(srv.addr, "POST", "/admin/shutdown", Some("")).unwrap();
    assert_eq!(status, 200);

    // ---- final-state oracles ---------------------------------------
    // (1) PR 4 byte-identity oracle: replaying the exact mutation
    // sequence in-process yields a snapshot byte-identical to what
    // the server persisted.
    let mut shadow = baseline;
    for _ in 0..iterations {
        let id = shadow.add_table(&churn);
        assert!(shadow.remove_table(id));
    }
    let (_, persisted) = IndexStore::open(&srv.dir).unwrap();
    assert_eq!(
        persisted.to_snapshot_bytes(),
        shadow.to_snapshot_bytes(),
        "server-persisted state must equal the in-process replay byte-for-byte"
    );

    // (2) Rebuild oracle: the surviving live set answers
    // byte-identically to a from-scratch rebuild over the same lake
    // (tombstones must leave no residue in the rankings).
    let rebuilt = D3l::index_lake(&lake, D3lConfig::fast());
    let opts = d3l::core::query::QueryOptions::default();
    let a = persisted.rank_all(&target(), 40, &opts);
    let b = rebuilt.rank_all(&target(), 40, &opts);
    assert_eq!(a.len(), b.len(), "ranking lengths diverged");
    assert!(!a.is_empty());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.table, y.table);
        assert_eq!(x.distance.to_bits(), y.distance.to_bits());
    }
}

// ---------------------------------------------------------- observability

fn header(headers: &[(String, String)], name: &str) -> Option<String> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.clone())
}

/// Parse a Prometheus 0.0.4 exposition body and enforce its grammar:
/// every series belongs to a family with a preceding `# TYPE`, every
/// histogram's cumulative buckets are monotone non-decreasing and end
/// with `+Inf`, and `_count` equals the `+Inf` bucket.
fn validate_exposition(body: &str) {
    use std::collections::{BTreeMap, HashMap};
    let mut types: HashMap<String, String> = HashMap::new();
    let mut buckets: BTreeMap<(String, String), Vec<(String, u64)>> = BTreeMap::new();
    let mut counts: HashMap<(String, String), u64> = HashMap::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE line names a family");
            let kind = it.next().expect("TYPE line carries a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown metric kind {kind:?} in {line:?}"
            );
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP
        }
        let (series, value) = line.rsplit_once(' ').expect("series line carries a value");
        let (name, labels) = match series.split_once('{') {
            Some((n, l)) => (n, l.trim_end_matches('}')),
            None => (series, ""),
        };
        let histogram_part = ["_bucket", "_sum", "_count"].iter().find_map(|suf| {
            name.strip_suffix(suf)
                .filter(|base| types.get(*base).map(String::as_str) == Some("histogram"))
                .map(|base| (base.to_string(), *suf))
        });
        match histogram_part {
            Some((base, "_bucket")) => {
                let mut le = None;
                let rest: Vec<&str> = labels
                    .split(',')
                    .filter(|kv| match kv.strip_prefix("le=") {
                        Some(v) => {
                            le = Some(v.trim_matches('"').to_string());
                            false
                        }
                        None => true,
                    })
                    .collect();
                let cum: u64 = value
                    .parse()
                    .unwrap_or_else(|_| panic!("bucket value must be an integer: {line:?}"));
                buckets
                    .entry((base, rest.join(",")))
                    .or_default()
                    .push((le.expect("every bucket line carries le"), cum));
            }
            Some((base, "_count")) => {
                counts.insert(
                    (base, labels.to_string()),
                    value.parse().expect("count is an integer"),
                );
            }
            Some(_) => {
                value.parse::<f64>().expect("sum parses as a float");
            }
            None => {
                assert!(
                    types.contains_key(name),
                    "series {name} has no preceding # TYPE line"
                );
                value
                    .parse::<f64>()
                    .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
            }
        }
    }
    assert!(!buckets.is_empty(), "exposition must contain histograms");
    for ((family, labels), series) in &buckets {
        let mut prev = 0u64;
        for (le, cum) in series {
            assert!(
                *cum >= prev,
                "{family}{{{labels}}}: bucket le={le} not cumulative ({cum} < {prev})"
            );
            prev = *cum;
        }
        let (last_le, last_cum) = series.last().unwrap();
        assert_eq!(
            last_le, "+Inf",
            "{family}{{{labels}}}: buckets must end with +Inf"
        );
        let count = counts
            .get(&(family.clone(), labels.clone()))
            .unwrap_or_else(|| panic!("{family}{{{labels}}}: missing _count"));
        assert_eq!(
            count, last_cum,
            "{family}{{{labels}}}: _count must equal the +Inf bucket"
        );
    }
}

#[test]
fn metrics_exposition_is_valid_and_covers_the_pipeline() {
    let lake = lake(6);
    let srv = boot("metrics", &lake, 2, Duration::from_secs(10));
    let body = query_body(&target(), 5);
    // One miss, one hit, one client error: all three result labels.
    let (s, _) = request_once(srv.addr, "POST", "/query", Some(&body)).unwrap();
    assert_eq!(s, 200);
    let (s, _) = request_once(srv.addr, "POST", "/query", Some(&body)).unwrap();
    assert_eq!(s, 200);
    let (s, _) = request_once(srv.addr, "GET", "/rank_all", None).unwrap();
    assert_eq!(s, 400);

    let mut c = Client::connect(srv.addr).unwrap();
    let (status, headers, text) = c
        .request_with_headers("GET", "/metrics", None, &[])
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type").as_deref(),
        Some("text/plain; version=0.0.4"),
        "exposition content type is the 0.0.4 text format"
    );
    validate_exposition(&text);

    // The pipeline's core series must all be present.
    for needle in [
        "d3l_http_request_seconds_bucket{endpoint=\"/query\",result=\"miss\"",
        "d3l_http_request_seconds_bucket{endpoint=\"/query\",result=\"hit\"",
        "d3l_http_request_seconds_bucket{endpoint=\"/rank_all\",result=\"error\"",
        "d3l_query_stage_seconds_bucket{stage=\"candidates\"",
        "d3l_query_stage_seconds_bucket{stage=\"score\"",
        "d3l_query_stage_seconds_bucket{stage=\"aggregate\"",
        "d3l_store_op_seconds_bucket{op=\"load\"",
        "d3l_store_op_seconds_bucket{op=\"append\"",
        "d3l_store_op_seconds_bucket{op=\"compact\"",
        "d3l_slow_queries_total",
        "d3l_http_requests_total",
        "d3l_http_responses_total{class=\"2xx\"}",
        "d3l_http_shed_total",
        "d3l_queue_depth",
        "d3l_queue_limit",
        "d3l_cache_hits_total",
        "d3l_cache_misses_total",
        "d3l_cache_entries",
        "d3l_cache_bytes",
        "d3l_engine_version",
        "d3l_engine_live_tables",
        "d3l_engine_memory_bytes",
        "d3l_uptime_seconds",
    ] {
        assert!(
            text.contains(needle),
            "metrics exposition is missing {needle:?}\n---\n{text}"
        );
    }

    // The three stage histograms saw exactly the one cache-miss query.
    for stage in ["candidates", "score", "aggregate"] {
        let count_line = format!("d3l_query_stage_seconds_count{{stage=\"{stage}\"}} 1");
        assert!(
            text.contains(&count_line),
            "stage {stage} must have observed exactly one traced query\n---\n{text}"
        );
    }
}

/// `/metrics` as two sets: each `# TYPE` family with its kind, and each
/// series as its family and label set (`le` dropped, so a histogram is
/// one series however many buckets it fills).
fn metrics_surface(text: &str) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut families = BTreeSet::new();
    let mut histograms = BTreeSet::new();
    let mut series = BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line carries a kind");
            families.insert(format!("{name} {kind}"));
            if kind == "histogram" {
                histograms.insert(name.to_string());
            }
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (sample, _) = line.rsplit_once(' ').expect("series line carries a value");
        let (name, labels) = match sample.split_once('{') {
            Some((name, rest)) => (name, rest.strip_suffix('}').expect("labels close")),
            None => (sample, ""),
        };
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|base| histograms.contains(*base))
            })
            .unwrap_or(name);
        let labels: Vec<&str> = labels
            .split(',')
            .filter(|kv| !kv.is_empty() && !kv.starts_with("le="))
            .collect();
        series.insert(format!("{family}{{{}}}", labels.join(",")));
    }
    (families, series)
}

/// Every key path of a JSON document (`a.b`, arrays as `a[].b`).
fn key_paths(prefix: &str, doc: &Json, out: &mut BTreeSet<String>) {
    match doc {
        Json::Obj(members) => {
            for (key, value) in members {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                key_paths(&path, value, out);
                out.insert(path);
            }
        }
        Json::Arr(items) => {
            for item in items {
                key_paths(&format!("{prefix}[]"), item, out);
            }
        }
        _ => {}
    }
}

fn assert_pinned(what: &str, actual: &BTreeSet<String>, pinned: &[&str]) {
    let pinned: BTreeSet<String> = pinned.iter().map(|s| s.to_string()).collect();
    let missing: Vec<&String> = pinned.difference(actual).collect();
    let extra: Vec<&String> = actual.difference(&pinned).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "{what} moved: missing {missing:#?}, unexpected {extra:#?}"
    );
}

/// The serving surface monitoring reads: which `/metrics` families
/// exist and of which kind, which label sets they carry, and which
/// `/stats` keys exist, after one fixed request sequence that touches
/// every endpoint class. Series order and values are free to change;
/// names, labels and kinds are not.
#[test]
fn serving_surface_is_pinned() {
    let lake = lake(6);
    let srv = boot("surface", &lake, 2, Duration::from_secs(10));
    let mut c = Client::connect(srv.addr).unwrap();
    let query = query_body(&target(), 5);
    let fresh = Table::from_rows(
        "fresh",
        &["Practice", "City"],
        &[vec!["Practice 3-1".into(), "Salford".into()]],
    )
    .unwrap();
    let add = format!("{{\"table\":{}}}", table_to_json(&fresh));
    for (method, path, body, want) in [
        ("POST", "/query", Some(query.as_str()), 200),
        ("POST", "/query", Some(query.as_str()), 200),
        ("GET", "/rank_all", None, 400),
        ("GET", "/nowhere", None, 404),
        ("DELETE", "/query", None, 405),
        ("POST", "/tables", Some(add.as_str()), 201),
        ("DELETE", "/tables/fresh", None, 200),
        ("POST", "/admin/compact", Some(""), 200),
        ("GET", "/rank_all?target=gp_02", None, 200),
        ("GET", "/debug/slow_queries", None, 200),
    ] {
        let (status, text) = c.request(method, path, body).unwrap();
        assert_eq!(status, want, "{method} {path}: {text}");
    }
    let (status, stats) = c.request("GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    let (status, metrics) = c.request("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);

    let (families, series) = metrics_surface(&metrics);
    let stats = Json::parse(&stats).unwrap();
    let mut stat_keys = BTreeSet::new();
    key_paths("", &stats, &mut stat_keys);
    // Both surfaces read the same cache counters (nothing touched the
    // cache between the two scrapes).
    for (key, family, want) in [
        ("hits", "d3l_cache_hits_total", 1),
        ("misses", "d3l_cache_misses_total", 2),
        ("insertions", "d3l_cache_insertions_total", 2),
        ("evictions", "d3l_cache_evictions_total", 0),
    ] {
        let line = format!("\n{family} {want}\n");
        assert!(metrics.contains(&line), "/metrics lacks {line:?}");
        let stat = stats.get("cache").and_then(|c| c.get(key));
        assert_eq!(stat.and_then(Json::as_usize), Some(want), "cache.{key}");
    }
    assert_pinned("/metrics families", &families, PINNED_FAMILIES);
    assert_pinned("/metrics series", &series, PINNED_SERIES);
    assert_pinned("/stats keys", &stat_keys, PINNED_STATS_KEYS);
}

const PINNED_FAMILIES: &[&str] = &[
    "d3l_cache_budget_bytes gauge",
    "d3l_cache_bytes gauge",
    "d3l_cache_entries gauge",
    "d3l_cache_evictions_total counter",
    "d3l_cache_hits_total counter",
    "d3l_cache_insertions_total counter",
    "d3l_cache_misses_total counter",
    "d3l_engine_live_tables gauge",
    "d3l_engine_memory_bytes gauge",
    "d3l_engine_tables gauge",
    "d3l_engine_version gauge",
    "d3l_http_request_seconds histogram",
    "d3l_http_requests_total counter",
    "d3l_http_responses_total counter",
    "d3l_http_shed_total counter",
    "d3l_query_stage_seconds histogram",
    "d3l_queue_depth gauge",
    "d3l_queue_limit gauge",
    "d3l_slow_queries_total counter",
    "d3l_store_op_seconds histogram",
    "d3l_uptime_seconds gauge",
];

const PINNED_SERIES: &[&str] = &[
    "d3l_cache_budget_bytes{}",
    "d3l_cache_bytes{}",
    "d3l_cache_entries{}",
    "d3l_cache_evictions_total{}",
    "d3l_cache_hits_total{}",
    "d3l_cache_insertions_total{}",
    "d3l_cache_misses_total{}",
    "d3l_engine_live_tables{}",
    "d3l_engine_memory_bytes{}",
    "d3l_engine_tables{}",
    "d3l_engine_version{}",
    "d3l_http_request_seconds{endpoint=\"/admin\",result=\"ok\"}",
    "d3l_http_request_seconds{endpoint=\"/debug/slow_queries\",result=\"ok\"}",
    "d3l_http_request_seconds{endpoint=\"/query\",result=\"error\"}",
    "d3l_http_request_seconds{endpoint=\"/query\",result=\"hit\"}",
    "d3l_http_request_seconds{endpoint=\"/query\",result=\"miss\"}",
    "d3l_http_request_seconds{endpoint=\"/rank_all\",result=\"error\"}",
    "d3l_http_request_seconds{endpoint=\"/rank_all\",result=\"miss\"}",
    "d3l_http_request_seconds{endpoint=\"/stats\",result=\"ok\"}",
    "d3l_http_request_seconds{endpoint=\"/tables\",result=\"ok\"}",
    "d3l_http_request_seconds{endpoint=\"/tables/{name}\",result=\"ok\"}",
    "d3l_http_request_seconds{endpoint=\"other\",result=\"error\"}",
    "d3l_http_requests_total{}",
    "d3l_http_responses_total{class=\"2xx\"}",
    "d3l_http_responses_total{class=\"4xx\"}",
    "d3l_http_responses_total{class=\"5xx\"}",
    "d3l_http_shed_total{}",
    "d3l_query_stage_seconds{stage=\"aggregate\"}",
    "d3l_query_stage_seconds{stage=\"candidates\"}",
    "d3l_query_stage_seconds{stage=\"score\"}",
    "d3l_queue_depth{}",
    "d3l_queue_limit{}",
    "d3l_slow_queries_total{}",
    "d3l_store_op_seconds{op=\"append\"}",
    "d3l_store_op_seconds{op=\"compact\"}",
    "d3l_store_op_seconds{op=\"load\"}",
    "d3l_uptime_seconds{}",
];

const PINNED_STATS_KEYS: &[&str] = &[
    "build",
    "build.profile",
    "build.version",
    "cache",
    "cache.budget_bytes",
    "cache.bytes",
    "cache.entries",
    "cache.evictions",
    "cache.hits",
    "cache.insertions",
    "cache.misses",
    "disk",
    "disk.base_bytes",
    "disk.delta_bytes",
    "disk.delta_segments",
    "engine_version",
    "live_tables",
    "memory",
    "memory.hasher_bytes",
    "memory.ie",
    "memory.ie.posting_bytes",
    "memory.ie.signature_bytes",
    "memory.ie.tree_bytes",
    "memory.if",
    "memory.if.posting_bytes",
    "memory.if.signature_bytes",
    "memory.if.tree_bytes",
    "memory.in",
    "memory.in.posting_bytes",
    "memory.in.signature_bytes",
    "memory.in.tree_bytes",
    "memory.iv",
    "memory.iv.posting_bytes",
    "memory.iv.signature_bytes",
    "memory.iv.tree_bytes",
    "memory.profile_bytes",
    "memory.table_bytes",
    "memory.total_bytes",
    "server",
    "server.hw_threads",
    "server.max_queue",
    "server.queue_depth",
    "server.requests",
    "server.responses_2xx",
    "server.responses_4xx",
    "server.responses_5xx",
    "server.shed_requests",
    "server.threads",
    "server.uptime_ms",
    "server.uptime_seconds",
    "signing_lanes",
    "tables",
];

#[test]
fn request_ids_and_engine_version_are_stamped_on_every_response() {
    let lake = lake(4);
    let srv = boot("reqid", &lake, 2, Duration::from_secs(5));
    let mut c = Client::connect(srv.addr).unwrap();

    let (status, headers, _) = c.request_with_headers("GET", "/stats", None, &[]).unwrap();
    assert_eq!(status, 200);
    let rid = header(&headers, "x-request-id").expect("server generates a request id");
    assert!(
        rid.starts_with("req-"),
        "generated ids look like req-<boot>-<seq>: {rid}"
    );
    let version = header(&headers, "x-engine-version").expect("engine version header");
    version.parse::<u64>().expect("engine version is numeric");

    // A client-supplied id is echoed verbatim ...
    let (_, headers, _) = c
        .request_with_headers("GET", "/stats", None, &[("X-Request-Id", "trace-me.42:a")])
        .unwrap();
    assert_eq!(
        header(&headers, "x-request-id").as_deref(),
        Some("trace-me.42:a")
    );

    // ... after dropping unsafe characters ...
    let (_, headers, _) = c
        .request_with_headers("GET", "/stats", None, &[("X-Request-Id", "a b<c>\"d")])
        .unwrap();
    assert_eq!(header(&headers, "x-request-id").as_deref(), Some("abcd"));

    // ... and an id with nothing safe left falls back to a fresh one.
    let (_, headers, _) = c
        .request_with_headers("GET", "/stats", None, &[("X-Request-Id", "???")])
        .unwrap();
    let rid = header(&headers, "x-request-id").unwrap();
    assert!(rid.starts_with("req-"), "unusable ids are replaced: {rid}");

    // Error responses carry the headers too.
    let (status, headers, _) = c
        .request_with_headers("GET", "/no/such/path", None, &[("X-Request-Id", "err-1")])
        .unwrap();
    assert_eq!(status, 404);
    assert_eq!(header(&headers, "x-request-id").as_deref(), Some("err-1"));
    assert!(header(&headers, "x-engine-version").is_some());

    // Two generated ids never collide.
    let (_, h1, _) = c.request_with_headers("GET", "/stats", None, &[]).unwrap();
    let (_, h2, _) = c.request_with_headers("GET", "/stats", None, &[]).unwrap();
    assert_ne!(
        header(&h1, "x-request-id"),
        header(&h2, "x-request-id"),
        "request ids are unique per request"
    );
}

#[test]
fn slow_query_ring_captures_traced_queries() {
    let lake = lake(6);
    let srv = boot_cfg(
        "slowq",
        &lake,
        ServerConfig {
            threads: 2,
            slow_query_ms: 0, // every request is "slow": deterministic capture
            cache_bytes: 0,   // keep queries on the traced engine path
            io_timeout: Duration::from_secs(10),
            max_body_bytes: 256 * 1024,
            ..Default::default()
        },
    );
    let body = query_body(&target(), 5);
    let mut c = Client::connect(srv.addr).unwrap();
    let (status, headers, _) = c
        .request_with_headers("POST", "/query", Some(&body), &[("X-Request-Id", "slow-1")])
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-request-id").as_deref(), Some("slow-1"));

    let (status, text) = request_once(srv.addr, "GET", "/debug/slow_queries", None).unwrap();
    assert_eq!(status, 200);
    let json = Json::parse(&text).unwrap();
    assert_eq!(json.get("threshold_ms").unwrap().as_usize(), Some(0));
    assert!(json.get("captured_total").unwrap().as_usize().unwrap() >= 1);
    let entries = json.get("slow_queries").unwrap().as_arr().unwrap();
    let query_entry = entries
        .iter()
        .find(|e| e.get("endpoint").and_then(Json::as_str) == Some("/query"))
        .expect("the traced /query request is in the ring");
    assert_eq!(
        query_entry.get("request_id").and_then(Json::as_str),
        Some("slow-1"),
        "ring entries carry the request id"
    );
    assert_eq!(
        query_entry.get("result").and_then(Json::as_str),
        Some("miss")
    );
    let stages = query_entry.get("stages").expect("per-stage breakdown");
    for stage in ["candidates_ms", "score_ms", "aggregate_ms"] {
        assert!(
            stages.get(stage).and_then(Json::as_f64).is_some(),
            "stage timing {stage} present"
        );
    }
    assert!(
        srv.handle.slow_query_count() >= 1,
        "the shutdown handle exposes the capture count"
    );
}

// --------------------------------------------------- continuous ingestion

/// `serve --watch` surface: the watcher's state must appear as a
/// `watch` object in `/stats` and as `d3l_watch_*` series in
/// `/metrics`, and a CSV dropped into the lake must become queryable
/// while the server keeps answering.
#[test]
fn stats_and_metrics_expose_watcher_state() {
    use d3l::core::watch::Watcher;

    let root = std::env::temp_dir().join(format!("d3l_srv_watch_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let lake_dir = root.join("lake");
    let index_dir = root.join("index");
    std::fs::create_dir_all(&lake_dir).unwrap();
    let d3l = D3l::index_lake(&lake(2), D3lConfig::fast());
    let store = IndexStore::create(&index_dir, &d3l).unwrap();
    let engine = Arc::new(EngineHandle::new(store, d3l));

    let server = Server::bind(
        ("127.0.0.1", 0),
        engine.clone(),
        ServerConfig {
            threads: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let watcher = Watcher::start(engine.clone(), &lake_dir).unwrap();
    server.attach_watch(watcher.stats());
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());

    // Schema: the watch object and its fields are present from the
    // first scrape, before anything was ingested.
    let (status, body) = request_once(addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    for key in [
        "\"watch\":",
        "\"files_tracked\":",
        "\"queued_changes\":",
        "\"polls\":",
        "\"batches\":",
        "\"tables_added\":",
        "\"tables_replaced\":",
        "\"tables_removed\":",
        "\"files_skipped\":",
        "\"errors\":",
        "\"ingest_lag_ms\":{\"count\":",
        "\"p50\":",
        "\"p99\":",
        "\"max\":",
    ] {
        assert!(body.contains(key), "/stats missing {key}: {body}");
    }
    let (status, metrics) = request_once(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    for series in [
        "d3l_watch_polls_total",
        "d3l_watch_files_tracked",
        "d3l_watch_batches_total",
        "d3l_watch_applied_total{op=\"add\"}",
        "d3l_watch_applied_total{op=\"replace\"}",
        "d3l_watch_applied_total{op=\"remove\"}",
        "d3l_watch_ingest_lag_seconds_bucket",
    ] {
        assert!(metrics.contains(series), "/metrics missing {series}");
    }

    // Drop a table into the lake and watch it become queryable over
    // HTTP, with the counters following.
    std::fs::write(
        lake_dir.join("fresh.csv"),
        "Practice,City\nBlackfriars,Salford\n",
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = request_once(addr, "GET", "/stats", None).unwrap();
        assert_eq!(status, 200, "server must answer during ingestion");
        if body.contains("\"tables_added\":1") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "watcher never ingested fresh.csv: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, stats) = request_once(addr, "GET", "/stats", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        stats.contains("\"live_tables\":3"),
        "ingested table must be live (2 seeded + 1 watched): {stats}"
    );
    let (status, _) =
        request_once(addr, "POST", "/query", Some(&query_body(&target(), 3))).unwrap();
    assert_eq!(status, 200, "queries must keep working under ingestion");

    handle.shutdown();
    join.join().unwrap().unwrap();
    watcher.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
