//! Serve a persisted index over HTTP and talk to it with the
//! dependency-free `std::net` client — the end-to-end shape of
//! `d3l serve`, in-process:
//!
//! 1. index a small lake;
//! 2. persist it under an [`EngineHandle`] and bind the server on an
//!    ephemeral port with a fixed worker pool;
//! 3. query over a real socket, hot-add a table (persisted + swapped
//!    before the 2xx — read-your-writes), query again, inspect
//!    `/stats`, and shut down gracefully.
//!
//! ```text
//! cargo run --example http_serving
//! ```

use std::sync::Arc;

use d3l::prelude::*;
use d3l::server::{table_to_json, Client, Json, Server, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- a lake, indexed and persisted ------------------------------
    let mut lake = DataLake::new();
    lake.add(Table::from_rows(
        "gp_funding",
        &["Practice", "City", "Payment"],
        &[
            vec!["Blackfriars".into(), "Salford".into(), "15530".into()],
            vec!["The London Clinic".into(), "London".into(), "73648".into()],
        ],
    )?)?;
    lake.add(Table::from_rows(
        "planets",
        &["Planet", "Moons"],
        &[vec!["Saturn".into(), "146".into()]],
    )?)?;
    let d3l = D3l::index_lake(&lake, D3lConfig::fast());
    let dir = std::env::temp_dir().join(format!("d3l_http_example_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ---- serve it ----------------------------------------------------
    let engine = Arc::new(EngineHandle::create(&dir, d3l)?);
    let server = Server::bind(
        ("127.0.0.1", 0),
        engine,
        ServerConfig {
            threads: 2,
            ..Default::default()
        },
    )?;
    let addr = server.local_addr()?;
    println!("serving on http://{addr} (2 workers)");
    let server_thread = std::thread::spawn(move || server.run());

    // ---- a client session -------------------------------------------
    let mut client = Client::connect(addr)?;
    let target = Table::from_rows(
        "gps",
        &["Practice", "City"],
        &[vec!["Blackfriars".into(), "Salford".into()]],
    )?;
    let body = Json::Obj(vec![
        ("table".to_string(), table_to_json(&target)),
        ("k".to_string(), Json::Num(2.0)),
    ])
    .to_string();

    let (status, answer) = client.request("POST", "/query", Some(&body))?;
    let top = Json::parse(&answer)?;
    let first = top
        .get("matches")
        .and_then(Json::as_arr)
        .and_then(|m| m.first());
    println!(
        "POST /query -> {status}; top match: {}",
        first
            .and_then(|m| m.get("table"))
            .and_then(Json::as_str)
            .unwrap_or("(none)")
    );

    // Hot-add a table; the 201 means it is persisted and served.
    let fresh = Table::from_rows(
        "local_gps",
        &["GP", "Location"],
        &[vec!["Blackfriars".into(), "Salford".into()]],
    )?;
    let add = format!("{{\"table\":{}}}", table_to_json(&fresh));
    let (status, ack) = client.request("POST", "/tables", Some(&add))?;
    println!("POST /tables -> {status}: {ack}");
    let (_, answer) = client.request("POST", "/query", Some(&body))?;
    assert!(
        answer.contains("local_gps"),
        "read-your-writes: the added table answers immediately"
    );
    println!("the added table is served immediately (read-your-writes)");

    let (_, stats) = client.request("GET", "/stats", None)?;
    let stats = Json::parse(&stats)?;
    println!(
        "GET /stats -> engine_version {}, {} live tables, {} delta segments",
        stats
            .get("engine_version")
            .and_then(Json::as_f64)
            .unwrap_or(-1.0),
        stats
            .get("live_tables")
            .and_then(Json::as_f64)
            .unwrap_or(-1.0),
        stats
            .get("disk")
            .and_then(|d| d.get("delta_segments"))
            .and_then(Json::as_f64)
            .unwrap_or(-1.0),
    );

    let (status, _) = client.request("POST", "/admin/shutdown", Some(""))?;
    println!("POST /admin/shutdown -> {status}; draining");
    server_thread.join().expect("server thread")?;
    println!("server drained cleanly");
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
