//! The traced run (`--trace 1`): a short end-to-end pass for the
//! generator's own and the scraped numbers, then every layer timed
//! from outside through its crate's public functions, on the same
//! generated inputs, with in-memory spans written at exit to
//! `benchmark/out/<workload>.trace.json`.
//!
//! End-to-end metrics are never taken from this run.

mod layers;
mod request;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use d3l_benchmark::report::{self, PER_LAYER};
use d3l_benchmark::run::{self, Prepared, RunConfig, Stream, Value};
use d3l_benchmark::trace::Recorder;
use d3l_benchmark::workloads::Scale;
use d3l_benchmark::{child, cli, stats};
use d3l_core::cache::DEFAULT_CACHE_BYTES;
use d3l_core::EngineHandle;

/// Spans the buffer is allocated for, once, before anything is timed.
const SPAN_CAPACITY: usize = 1 << 20;

/// The steady part of the request replay ends at whichever comes
/// first.
const REPLAY_REQUESTS: usize = 4000;
const REPLAY_SECONDS: f64 = 3.0;

/// Requests of each of the four passes (spans off, on, on, off) of the
/// overhead measurement.
const OVERHEAD_REQUESTS: usize = 400;

/// A smoke run replays a twentieth of that (it may be a debug build).
fn scaled(cfg: &RunConfig, n: usize) -> usize {
    if cfg.scale == Scale::Smoke {
        n / 20
    } else {
        n
    }
}

pub struct Metrics(BTreeMap<&'static str, Value>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, Value { value, samples });
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.value)
    }
}

/// Median, or 0 for a layer that never ran on this workload.
pub fn median_of(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match traced_run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The order the replay asks the targets in: the workload's own, as
/// the end-to-end run asks them.
fn replay_order(cfg: &RunConfig, n: usize) -> Vec<usize> {
    let mut stream = Stream::new(&cfg.workload, cfg.seed);
    (0..n).map(|_| stream.next_target()).collect()
}

/// Replay the request path and derive the `server.*`, `core.cache.*`
/// and `core.query.*` metrics from its spans.
fn replay_requests(
    rec: &mut Recorder,
    cfg: &RunConfig,
    prepared: &Prepared,
    handle: &EngineHandle,
    socket_p50_ms: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let targets = &prepared.inputs.targets;
    let mut sink = Vec::with_capacity(1 << 16);
    let mut request = 0u32;
    let mut hits: Vec<bool> = vec![false]; // by request id; id 0 is "no request"
    let mut one = |rec: &mut Recorder, i: usize, hits: &mut Vec<bool>| -> Result<(), String> {
        request += 1;
        let done = request::replay(rec, request, handle, &targets[i], &mut sink)?;
        if done.body_len == 0 {
            return Err("an in-process request rendered nothing".into());
        }
        hits.push(done.hit);
        Ok(())
    };
    // As over the socket: a Zipf workload asks every target once
    // first, so that the steady part is all hits (and these misses are
    // where its `core.query.*` numbers come from).
    let warm = if cfg.workload.targets.zipf.is_some() {
        targets.len()
    } else {
        cfg.workload.warmup_requests.min(targets.len())
    };
    for i in 0..warm {
        one(rec, i, &mut hits)?;
    }
    let steady_from = rec.spans().len();
    let started = Instant::now();
    for i in replay_order(cfg, scaled(cfg, REPLAY_REQUESTS)) {
        if started.elapsed().as_secs_f64() > REPLAY_SECONDS {
            break;
        }
        one(rec, i, &mut hits)?;
    }

    let spans = rec.spans();
    let cover = rec.child_cover();
    let ns = |s: &d3l_benchmark::trace::Span| (s.end_ns - s.start_ns) as f64;
    let steady = |name: &str| -> Vec<f64> {
        spans[steady_from..]
            .iter()
            .filter(|s| s.name == name)
            .map(ns)
            .collect()
    };
    let all = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.request > 0)
            .map(ns)
            .collect()
    };
    for (metric, span) in [
        ("server.http.parse_us", "server.http.parse"),
        ("server.json.decode_us", "server.json.decode"),
        ("server.http.write_us", "server.http.write"),
        ("core.cache.fingerprint_us", "core.cache.fingerprint"),
    ] {
        let d = steady(span);
        m.set(metric, median_of(&d) / 1e3, d.len());
    }
    let render = all("server.api.render");
    m.set(
        "server.api.render_us",
        median_of(&render) / 1e3,
        render.len(),
    );
    let put = all("core.cache.put");
    m.set("core.cache.put_us", median_of(&put) / 1e3, put.len());
    // Lookups that hit, or — where the cache is off — every lookup.
    let any_hit = hits.iter().any(|&h| h);
    let gets: Vec<f64> = spans[steady_from..]
        .iter()
        .filter(|s| s.name == "core.cache.get" && (!any_hit || hits[s.request as usize]))
        .map(ns)
        .collect();
    m.set("core.cache.get_hit_ns", median_of(&gets), gets.len());

    // core.query.*: every request that ran the pipeline.
    for (metric, span) in [
        ("core.query.prepare_ms", "core.query.prepare"),
        ("core.query.candidates_ms", "core.query.candidates"),
        ("core.query.score_ms", "core.query.score"),
        ("core.query.aggregate_ms", "core.query.aggregate"),
    ] {
        let d = all(span);
        m.set(metric, median_of(&d) / 1e6, d.len());
    }
    let mut per_request: BTreeMap<u32, f64> = BTreeMap::new();
    for s in spans {
        if s.name == "core.query.prepare" || s.name == "core.query.search" {
            *per_request.entry(s.request).or_default() += ns(s);
        }
    }
    let totals: Vec<f64> = per_request.values().copied().collect();
    m.set(
        "core.query.total_ms",
        median_of(&totals) / 1e6,
        totals.len(),
    );
    let candidates: f64 = all("core.query.candidates").iter().sum();
    let share = if totals.is_empty() {
        0.0
    } else {
        candidates / totals.iter().sum::<f64>()
    };
    m.set("core.query.candidates_share", share, totals.len());

    // The request as a whole, in its steady state.
    let (mut whole, mut covered) = (Vec::new(), Vec::new());
    for (i, s) in spans.iter().enumerate().skip(steady_from) {
        if s.name == "request" {
            whole.push(ns(s));
            covered.push(cover[i] as f64 / ns(s).max(1.0));
        }
    }
    let inprocess_ms = median_of(&whole) / 1e6;
    m.set("server.inprocess_sum_ms", inprocess_ms, whole.len());
    m.set(
        "server.request_child_coverage",
        median_of(&covered),
        covered.len(),
    );
    m.set(
        "server.transport_ms",
        socket_p50_ms - inprocess_ms,
        whole.len(),
    );

    // Candidate tables per query, off the clock.
    let snap = handle.snapshot();
    let width = snap.engine.config().lookup_width(cfg.workload.k);
    let mut candidate_tables = Vec::new();
    for wire in targets.iter().take(100) {
        let (table, _) = request::decode_table(wire)?;
        let prepared = snap.engine.prepare_target(&table);
        candidate_tables.push(
            snap.engine
                .related_table_set_prepared(&prepared, width)
                .len() as f64,
        );
    }
    m.set(
        "core.query.candidate_tables",
        median_of(&candidate_tables),
        candidate_tables.len(),
    );
    Ok(())
}

/// Tracing overhead: the same requests replayed with spans recorded
/// and with a recorder that records nothing, in the order off, on, on,
/// off so that a drift over the four passes cancels; the difference
/// over the untraced wall.
fn trace_overhead(
    cfg: &RunConfig,
    prepared: &Prepared,
    handle: &EngineHandle,
) -> Result<f64, String> {
    let targets = &prepared.inputs.targets;
    let order = replay_order(cfg, scaled(cfg, OVERHEAD_REQUESTS));
    let mut sink = Vec::with_capacity(1 << 16);
    let mut pass = |mut rec: Recorder| -> Result<f64, String> {
        let start = Instant::now();
        for (n, &i) in order.iter().enumerate() {
            request::replay(&mut rec, n as u32 + 1, handle, &targets[i], &mut sink)?;
        }
        Ok(start.elapsed().as_secs_f64())
    };
    let traced = || Recorder::with_capacity(order.len() * 16);
    let off = pass(Recorder::disabled())?;
    let on = pass(traced())? + pass(traced())?;
    let off = off + pass(Recorder::disabled())?;
    Ok((on - off) / off)
}

fn traced_run(args: &[String]) -> Result<bool, String> {
    let parsed = cli::parse(args).map_err(|e| format!("{e}\n{}", cli::USAGE))?;
    // The layers in this process run as the children do: on one CPU.
    child::pin()?;
    // The engine in this process runs as the server child does.
    std::env::set_var("D3L_QUERY_THREADS", "1");
    let mut parsed = parsed;
    parsed.trace = true;
    let cfg = parsed.run_config();
    let start = Instant::now();

    // The short end-to-end pass: generator's own and scraped metrics.
    let prepared = run::prepare(&cfg)?;
    let outcome = run::run(&cfg, &prepared)?;
    let mut m = Metrics(BTreeMap::new());
    for metric in PER_LAYER {
        if let Some(v) = outcome.metrics.get(metric.name) {
            m.0.insert(metric.name, *v);
        }
    }
    let socket_p50_ms = outcome
        .get("client.query_p50_ms")
        .ok_or("the end-to-end pass measured no query")?;

    // The layers, from outside.
    let mut rec = Recorder::with_capacity(SPAN_CAPACITY);
    let built = layers::time_layers(&mut rec, &cfg, &prepared, &mut m)?;
    let accounted = built.index_accounted_ms / m.get("client.index_wall_ms").max(1e-9);
    m.set("client.index_accounted_share", accounted, 1);

    // The request path, replayed in process on the saved engine.
    let handle =
        EngineHandle::open(&built.store_dir).map_err(|e| format!("open the saved engine: {e}"))?;
    handle.cache().set_budget(if cfg.workload.cache_off {
        0
    } else {
        DEFAULT_CACHE_BYTES
    });
    replay_requests(&mut rec, &cfg, &prepared, &handle, socket_p50_ms, &mut m)?;
    let overhead = trace_overhead(&cfg, &prepared, &handle)?;
    m.set(
        "trace.overhead_share",
        overhead,
        4 * scaled(&cfg, OVERHEAD_REQUESTS),
    );
    drop(handle);

    let trace_path = child::out_dir().join(format!("{}.trace.json", cfg.workload.name));
    rec.write_json(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    drop(prepared);

    eprintln!(
        "{} seed {} ({:?}, traced): {} operations end to end, {} failed, {} spans ({} dropped) in {}, {:.1} s wall",
        cfg.workload.name,
        cfg.seed,
        cfg.scale,
        outcome.attempted,
        outcome.failed,
        rec.spans().len(),
        rec.dropped,
        trace_path.display(),
        start.elapsed().as_secs_f64()
    );
    for f in &outcome.failures {
        eprintln!("  failed: {f}");
    }
    eprint!("{}", report::table(&PER_LAYER, &m.0));
    // How the workloads differ, shown rather than asserted.
    let hit_path = m.get("server.http.parse_us")
        + m.get("server.json.decode_us")
        + m.get("server.http.write_us")
        + m.get("core.cache.fingerprint_us")
        + m.get("core.cache.get_hit_ns") / 1e3;
    eprintln!(
        "  separation: candidates {:.2} of the query; cache hit rate {:.3}; server.* + core.cache.* {:.2} of the in-process request; in-process index {:.2} of `d3l index`; children cover {:.3} of the request, transport {:.3} ms",
        m.get("core.query.candidates_share"),
        m.get("core.cache.hit_rate"),
        hit_path / 1e3 / m.get("server.inprocess_sum_ms").max(1e-12),
        m.get("client.index_accounted_share"),
        m.get("server.request_child_coverage"),
        m.get("server.transport_ms"),
    );

    let dropped = rec.dropped;
    let correct = outcome.correct() && dropped == 0;
    if dropped > 0 {
        eprintln!("  failed: {dropped} spans did not fit the buffer");
    }
    let line = report::result_line(&PER_LAYER, &m.0, correct, outcome.attempted, outcome.failed)?;
    println!("{line}");
    Ok(correct)
}
