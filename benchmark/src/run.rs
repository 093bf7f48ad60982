//! The end-to-end run: cycles of S (set-up rounds) → A (mutation
//! script) → `solo` (queries) against child processes over loopback.
//!
//! Closed loop throughout and no timers on the load path: the one
//! connection sends its next request when the previous answer has
//! been read and checked. Generator and children share one CPU
//! ([`crate::workloads::CPU`]), and at any instant one thread of them
//! is meant to be runnable: during S the generator only waits for
//! `d3l index`; in A and `solo` it waits for each answer.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::child::{self, Scratch, Server};
use crate::http::Conn;
use crate::inputs::{self, Inputs, OpKind};
use crate::rng::{Rng, Zipf};
use crate::stats;
use crate::wire;
use crate::workloads::{RssOf, Scale, Workload};

/// One reported number: value and how many samples stand behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// Everything a run found out.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Metrics by catalogue name (end-to-end and `client.*`/scraped).
    pub metrics: BTreeMap<&'static str, Value>,
    /// Wall of the whole run, input generation included.
    pub wall: Duration,
    /// Where the wall went: seconds per phase, summed over the cycles.
    pub phases: Vec<(&'static str, f64)>,
    /// `(d3l index wall, spawn → first query)` of every set-up round,
    /// in order: a summary hides whether rounds drift or fall in modes.
    pub rounds: Vec<(f64, f64)>,
    /// Per cycle, in order: median `solo` latency (ms), `solo` rate
    /// (1/s), median add latency (ms).
    pub cycles: [Vec<f64>; 3],
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, Value { value, samples });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|v| v.value)
    }
}

/// Counts operations and keeps the first few failure messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn ok(&mut self) {
        self.attempted += 1;
    }

    fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// A check that is not itself a request (a count, a comparison).
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(what());
        }
    }
}

/// Number of ranked tables in a `/query` body: match objects, and only
/// they, open with `{"table":"` (see [`wire::top_names`]).
fn count_matches(body: &[u8]) -> usize {
    const OPEN: &[u8] = b"{\"table\":\"";
    let mut n = 0;
    let mut i = 0;
    while let Some(p) = body[i..].iter().position(|&b| b == b'{') {
        let at = i + p;
        if body[at..].starts_with(OPEN) {
            n += 1;
            i = at + OPEN.len();
        } else {
            i = at + 1;
        }
    }
    n
}

/// Send one `/query` and check the answer: 200 and exactly `k` ranked
/// tables. Returns the latency of a good answer.
fn query(conn: &mut Conn, wire: &[u8], k: usize, tally: &mut Tally, what: &str) -> Option<f64> {
    let t = Instant::now();
    let sent = conn.send(wire);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match sent {
        Ok(200) => {
            let got = count_matches(conn.body());
            if got == k {
                tally.ok();
                Some(ms)
            } else {
                tally.fail(format!("{what}: {got} tables ranked, {k} asked"));
                None
            }
        }
        Ok(status) => {
            tally.fail(format!("{what}: status {status}"));
            None
        }
        Err(e) => {
            tally.fail(format!("{what}: {e}"));
            None
        }
    }
}

/// The order in which the connection asks the targets.
pub enum Stream {
    RoundRobin { next: usize, n: usize },
    Zipf { zipf: Zipf, rng: Rng },
}

impl Stream {
    pub fn new(w: &Workload, seed: u64) -> Stream {
        let n = w.targets.count;
        match w.targets.zipf {
            Some(s) => Stream::Zipf {
                zipf: Zipf::new(n, s),
                rng: Rng::new(seed ^ 0x5a49_5046),
            },
            None => Stream::RoundRobin { next: 0, n },
        }
    }

    pub fn next_target(&mut self) -> usize {
        match self {
            Stream::RoundRobin { next, n } => {
                let i = *next % *n;
                *next += 1;
                i
            }
            Stream::Zipf { zipf, rng } => zipf.sample(rng),
        }
    }
}

/// A timed closed loop on the connection until `until`. Returns the
/// latencies of the good answers.
fn closed_loop(
    conn: &mut Conn,
    stream: &mut Stream,
    targets: &[Vec<u8>],
    k: usize,
    until: Instant,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(1 << 14);
    while Instant::now() < until {
        let i = stream.next_target();
        if let Some(ms) = query(conn, &targets[i], k, tally, "query") {
            latencies.push(ms);
        }
    }
    latencies
}

/// CPU time of this process (all threads), from `/proc/self/stat`.
/// `utime + stime` are in clock ticks; `USER_HZ` is 100 on Linux.
fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, the 12th and 13th after `)`.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// One scrape of `/stats` and `/metrics` over an existing connection.
#[derive(Default)]
struct Scrape {
    cache_hits: f64,
    cache_misses: f64,
    cache_evictions: f64,
    shed: f64,
    queue_depth: f64,
    live_tables: f64,
    query_buckets: Vec<(f64, f64)>,
}

fn scrape(conn: &mut Conn, tally: &mut Tally) -> Option<Scrape> {
    let mut s = Scrape::default();
    match conn.request("GET", "/stats", b"") {
        Ok(200) => {
            tally.ok();
            s.live_tables = wire::json_number(conn.body(), "live_tables")?;
            s.queue_depth = wire::json_number(conn.body(), "queue_depth")?;
        }
        other => {
            tally.fail(format!("GET /stats: {other:?}"));
            return None;
        }
    }
    match conn.request("GET", "/metrics", b"") {
        Ok(200) => {
            tally.ok();
            let text = String::from_utf8_lossy(conn.body()).into_owned();
            s.cache_hits = wire::prom_value(&text, "d3l_cache_hits_total")?;
            s.cache_misses = wire::prom_value(&text, "d3l_cache_misses_total")?;
            s.cache_evictions = wire::prom_value(&text, "d3l_cache_evictions_total")?;
            s.shed = wire::prom_value(&text, "d3l_http_shed_total")?;
            s.query_buckets =
                wire::prom_buckets(&text, "d3l_http_request_seconds", &["endpoint=\"/query\""]);
        }
        other => {
            tally.fail(format!("GET /metrics: {other:?}"));
            return None;
        }
    }
    Some(s)
}

/// Precision and recall of one ranked answer against the truth.
fn precision_recall(names: &[String], answer: &std::collections::HashSet<String>) -> (f64, f64) {
    let good = names.iter().filter(|n| answer.contains(*n)).count() as f64;
    let precision = if names.is_empty() {
        0.0
    } else {
        good / names.len() as f64
    };
    (precision, good / answer.len().max(1) as f64)
}

/// Samples and sums gathered over the cycles of a run.
#[derive(Default)]
struct Gathered {
    index_s: Vec<f64>,
    cold_s: Vec<f64>,
    setup_s: Vec<f64>,
    index_rss_kib: Vec<f64>,
    serve_rss_kib: Vec<f64>,
    fresh_store_bytes: Vec<u64>,
    /// Every `solo` latency of the run; each cycle's median and rate.
    solo_ms: Vec<f64>,
    solo_p50_ms: Vec<f64>,
    solo_rps: Vec<f64>,
    /// Wall of the `solo` slices and the generator's CPU time in them.
    solo_wall: f64,
    solo_cpu: f64,
    /// Every add latency of the run, and each cycle's median.
    add_ms: Vec<f64>,
    add_p50_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    after_write_ms: Vec<f64>,
    precision: Vec<f64>,
    recall: Vec<f64>,
    ranking_digest: inputs::Fnv,
    final_store_bytes_per_table: Option<f64>,
    phases: Vec<(&'static str, f64)>,
    hits: f64,
    lookups: f64,
    evictions: f64,
    shed: f64,
    queue_depth_max: f64,
    server_query_p50_ms: Vec<f64>,
}

impl Gathered {
    /// Charge the time since `*since` to `phase` and restart the clock.
    fn phase(&mut self, phase: &'static str, since: &mut Instant) {
        let s = since.elapsed().as_secs_f64();
        *since = Instant::now();
        match self.phases.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, total)) => *total += s,
            None => self.phases.push((phase, s)),
        }
    }
}

pub struct RunConfig {
    /// Already scaled ([`Workload::at`]).
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
}

/// What the traced run needs from the end-to-end pass beside numbers:
/// the generated inputs and the lake on disk.
pub struct Prepared {
    pub inputs: Inputs,
    pub scratch: Scratch,
    pub prepare_s: f64,
}

/// Generate the inputs, check them against their pins and write the
/// lake as CSV files. Nothing here is ever part of a reported time
/// except `client.prepare_s`.
pub fn prepare(cfg: &RunConfig) -> Result<Prepared, String> {
    let start = Instant::now();
    let w = &cfg.workload;
    let inputs = inputs::generate(w, cfg.seed);
    inputs::check_pins(w, &inputs, cfg.seed)?;
    let scratch = Scratch::create(w.name)?;
    let lake_dir = scratch.path().join("lake");
    std::fs::create_dir_all(&lake_dir).map_err(|e| format!("create lake dir: {e}"))?;
    for (name, text) in &inputs.lake {
        std::fs::write(lake_dir.join(format!("{name}.csv")), text)
            .map_err(|e| format!("write {name}.csv: {e}"))?;
    }
    Ok(Prepared {
        inputs,
        scratch,
        prepare_s: start.elapsed().as_secs_f64(),
    })
}

/// The state of one run in progress.
struct Runner<'a> {
    bin: PathBuf,
    cfg: &'a RunConfig,
    prepared: &'a Prepared,
    stream: Stream,
    g: Gathered,
    tally: Tally,
}

impl Runner<'_> {
    fn spawn_server(&self, index_dir: &Path) -> Result<Server, String> {
        Server::spawn(
            &self.bin,
            index_dir,
            self.cfg.workload.cache_off,
            &self.prepared.scratch.path().join("serve.stderr"),
        )
    }

    /// One set-up round: `d3l index` into an empty directory,
    /// `d3l serve` spawned on it, one connection opened and the first
    /// `/query` answered.
    fn setup_round(&mut self, index_dir: &Path) -> Result<(Server, Conn), String> {
        let w = &self.cfg.workload;
        let lake_dir = self.prepared.scratch.path().join("lake");
        let idx = child::run_index(&self.bin, &lake_dir, index_dir)?;
        self.g.fresh_store_bytes.push(child::dir_bytes(index_dir)?);
        let server = self.spawn_server(index_dir)?;
        let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        let first = &self.prepared.inputs.targets[0];
        let answered = query(&mut conn, first, w.k, &mut self.tally, "first query");
        let cold = server.spawned.elapsed().as_secs_f64();
        if answered.is_none() {
            return Err(format!(
                "the first /query after start-up failed: {}",
                self.tally.failures.last().cloned().unwrap_or_default()
            ));
        }
        self.g.index_s.push(idx.wall.as_secs_f64());
        self.g.index_rss_kib.push(idx.peak_rss_kib as f64);
        self.g.cold_s.push(cold);
        self.g.setup_s.push(idx.wall.as_secs_f64() + cold);
        Ok((server, conn))
    }

    /// Untimed warm-up: the process is fresh, so fault the index in
    /// and (where there is a cache) fill it. A Zipf workload asks every
    /// target once, so that every timed request is a hit.
    fn warm_up(&mut self, conn: &mut Conn) {
        let w = &self.cfg.workload;
        let targets = &self.prepared.inputs.targets;
        let n = if w.targets.zipf.is_some() {
            targets.len()
        } else {
            w.warmup_requests
        };
        for i in 0..n {
            query(
                conn,
                &targets[i % targets.len()],
                w.k,
                &mut self.tally,
                "warm-up",
            );
        }
    }

    /// The quality gate: ground-truth probes against the pinned lake.
    fn quality_probes(&mut self, conn: &mut Conn) {
        for p in &self.prepared.inputs.quality {
            match conn.send(&p.wire) {
                Ok(200) => match wire::top_names(conn.body()) {
                    Some(names) => {
                        self.tally.ok();
                        let (pr, rc) = precision_recall(&names, &p.answer);
                        self.g.precision.push(pr);
                        self.g.recall.push(rc);
                        for n in &names {
                            self.g.ranking_digest.write(n.as_bytes());
                        }
                        self.g.ranking_digest.write(b"|");
                    }
                    None => self
                        .tally
                        .fail(format!("probe {}: malformed ranking", p.name)),
                },
                other => self.tally.fail(format!("probe {}: {other:?}", p.name)),
            }
        }
    }

    /// The mutation phase of one cycle.
    fn mutate(&mut self, conn: &mut Conn, cycle: usize) {
        let w = &self.cfg.workload;
        let ops = &self.prepared.inputs.script[cycle];
        let hot = &self.prepared.inputs.targets[0];
        let mut issued = 0usize;
        for op in ops {
            let (want, samples) = match op.kind {
                OpKind::Add => (201, &mut self.g.add_ms),
                OpKind::Delete => (200, &mut self.g.delete_ms),
                OpKind::Compact => (200, &mut self.g.compact_ms),
            };
            let t = Instant::now();
            let sent = conn.send(&op.wire);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            issued += 1;
            match sent {
                Ok(status) if status == want => {
                    self.tally.ok();
                    samples.push(ms);
                }
                other => {
                    self.tally
                        .fail(format!("{:?} {}: {other:?}", op.kind, op.name));
                    continue;
                }
            }
            if !w.mutations.follow_up || op.kind == OpKind::Compact {
                continue;
            }
            // The version moved, so the hot target is a miss again: a
            // read beside writes.
            if let Some(ms) = query(conn, hot, w.k, &mut self.tally, "query after write") {
                self.g.after_write_ms.push(ms);
            }
            if op.kind == OpKind::Add {
                // Read-your-writes: the table just acknowledged can be
                // ranked against the lake by name.
                let path = format!("/rank_all?target={}", op.name);
                match conn.request("GET", &path, b"") {
                    Ok(200) if count_matches(conn.body()) > 0 => self.tally.ok(),
                    other => self
                        .tally
                        .fail(format!("read-your-writes {}: {other:?}", op.name)),
                }
            }
        }
        self.tally.check(issued == ops.len(), || {
            format!(
                "cycle {cycle}: {issued} of {} scripted operations issued",
                ops.len()
            )
        });
    }

    /// Top-k names of the kill check's probe targets.
    fn probe(&mut self, conn: &mut Conn) -> Vec<Option<Vec<String>>> {
        let w = &self.cfg.workload;
        self.prepared.inputs.targets[..w.probes]
            .iter()
            .map(|wire| {
                query(conn, wire, w.k, &mut self.tally, "kill-check probe")?;
                wire::top_names(conn.body())
            })
            .collect()
    }

    /// The durability check that ends a `kill_check` workload: top-k
    /// names of the probe targets and the live-table count, before a
    /// SIGKILL and after a restart from the store.
    fn kill_and_restart(
        &mut self,
        server: Server,
        mut conn: Conn,
        index_dir: &Path,
    ) -> Result<(), String> {
        let before = self.probe(&mut conn);
        let live_before = scrape(&mut conn, &mut self.tally).map(|s| s.live_tables);
        if let Some(live) = live_before {
            self.g.final_store_bytes_per_table = Some(child::dir_bytes(index_dir)? as f64 / live);
        }
        drop(conn);
        drop(server); // SIGKILL, reaped
        let server = self.spawn_server(index_dir)?;
        let mut conn = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        let after = self.probe(&mut conn);
        let live_after = scrape(&mut conn, &mut self.tally).map(|s| s.live_tables);
        self.tally
            .check(live_before.is_some() && live_before == live_after, || {
                format!(
                    "live tables {live_before:?} before the kill, {live_after:?} after the restart"
                )
            });
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            self.tally.check(b.is_some() && b == a, || {
                format!("probe {i}: top-k names differ across the kill: {b:?} vs {a:?}")
            });
        }
        Ok(())
    }

    /// One cycle: S → (quality, once) → A → warm-up → solo.
    fn cycle(&mut self, cycle: usize) -> Result<(), String> {
        let w = &self.cfg.workload;
        let targets = &self.prepared.inputs.targets;
        let solo_len =
            Duration::from_secs_f64(self.cfg.seconds * w.solo_share / w.run_cycles as f64);
        let mut clock = Instant::now();

        // S: the cycle's set-up rounds, each into a directory of its
        // own; the last round's server serves the rest of the cycle.
        let mut serving: Option<(Server, Conn, PathBuf)> = None;
        for _ in 0..w.rounds_in_cycle(cycle) {
            drop(serving.take());
            let round = self.g.setup_s.len();
            let index_dir = self.prepared.scratch.path().join(format!("index-{round}"));
            let (server, conn) = self.setup_round(&index_dir)?;
            serving = Some((server, conn, index_dir));
        }
        let (server, mut conn, index_dir) =
            serving.ok_or_else(|| format!("cycle {cycle} has no set-up round"))?;
        self.g.phase("S", &mut clock);

        // Nothing is deleted while set-up rounds are still to come: on
        // this box a file written within seconds of a delete costs a
        // tenth of one written later (`NOISE.md`), so a round after a
        // delete is not the round before it. After the last S every
        // index directory but the served one goes, which leaves the
        // rest of the cycle for that to wear off and little for the
        // final clean-up to pass on to the next run.
        if cycle + 1 == w.run_cycles {
            for round in 0..self.g.setup_s.len() - 1 {
                let dir = self.prepared.scratch.path().join(format!("index-{round}"));
                std::fs::remove_dir_all(&dir)
                    .map_err(|e| format!("remove {}: {e}", dir.display()))?;
            }
        }

        // Once, before anything mutates the lake.
        if cycle == 0 {
            self.quality_probes(&mut conn);
        }
        if let Some(kib) = child::vm_hwm_kib(server.pid()) {
            self.g.serve_rss_kib.push(kib as f64);
        }
        self.g.phase("quality", &mut clock);

        // A: this cycle's slice of the mutation script. It comes before
        // the queries, not after them, so that what a compaction
        // deletes is seconds old when the next cycle's S begins.
        let adds_before = self.g.add_ms.len();
        self.mutate(&mut conn, cycle);
        if let Some(p50) = stats::median_or_none(&self.g.add_ms[adds_before..]) {
            self.g.add_p50_ms.push(p50);
        }
        self.g.phase("A", &mut clock);

        // The mutations moved the version, so the cache is filled again.
        self.warm_up(&mut conn);
        self.g.phase("warm-up", &mut clock);
        let before = scrape(&mut conn, &mut self.tally);

        let cpu0 = process_cpu_seconds();
        let start = Instant::now();
        let solo = closed_loop(
            &mut conn,
            &mut self.stream,
            targets,
            w.k,
            start + solo_len,
            &mut self.tally,
        );
        let wall = start.elapsed().as_secs_f64();
        self.g.solo_wall += wall;
        self.g.solo_cpu += process_cpu_seconds() - cpu0;
        if let Some(p50) = stats::median_or_none(&solo) {
            self.g.solo_p50_ms.push(p50);
            self.g.solo_rps.push(solo.len() as f64 / wall);
        }
        self.g.solo_ms.extend(solo);
        self.g.phase("solo", &mut clock);

        let after = scrape(&mut conn, &mut self.tally);
        if let (Some(b), Some(a)) = (&before, &after) {
            let g = &mut self.g;
            g.hits += a.cache_hits - b.cache_hits;
            g.lookups += (a.cache_hits - b.cache_hits) + (a.cache_misses - b.cache_misses);
            g.evictions += a.cache_evictions - b.cache_evictions;
            g.shed += a.shed;
            g.queue_depth_max = g.queue_depth_max.max(a.queue_depth).max(b.queue_depth);
            if let Some(q) = wire::bucket_quantile(&b.query_buckets, &a.query_buckets, 0.5) {
                g.server_query_p50_ms.push(q * 1e3);
            }
        }

        if cycle + 1 == w.run_cycles && w.mutations.kill_check {
            self.kill_and_restart(server, conn, &index_dir)?;
            self.g.phase("kill-check", &mut clock);
        }
        Ok(())
    }

    /// Fixed-count phases issued exactly their counts.
    fn check_counts(&mut self) {
        let w = &self.cfg.workload;
        let g = &self.g;
        let scripted = |kind: OpKind| {
            self.prepared.inputs.script[..w.run_cycles]
                .iter()
                .flatten()
                .filter(|op| op.kind == kind)
                .count()
        };
        self.tally.check(g.setup_s.len() == w.setup_rounds, || {
            format!(
                "{} of {} set-up rounds ran",
                g.setup_s.len(),
                w.setup_rounds
            )
        });
        let (adds, deletes) = (scripted(OpKind::Add), scripted(OpKind::Delete));
        self.tally.check(
            g.add_ms.len() == adds && g.delete_ms.len() == deletes,
            || {
                format!(
                    "{} adds and {} deletes acknowledged, {adds} and {deletes} scripted",
                    g.add_ms.len(),
                    g.delete_ms.len(),
                )
            },
        );
        self.tally.check(
            g.fresh_store_bytes
                .iter()
                .all(|&b| b == g.fresh_store_bytes[0]),
            || format!("fresh snapshots differ in size: {:?}", g.fresh_store_bytes),
        );
    }
}

/// Run the workload end to end.
pub fn run(cfg: &RunConfig, prepared: &Prepared) -> Result<Outcome, String> {
    let run_start = Instant::now();
    let mut runner = Runner {
        bin: child::d3l_bin()?,
        cfg,
        prepared,
        stream: Stream::new(&cfg.workload, cfg.seed),
        g: Gathered::default(),
        tally: Tally::default(),
    };
    for cycle in 0..cfg.workload.run_cycles {
        runner.cycle(cycle)?;
    }
    runner.check_counts();
    let Runner { mut g, tally, .. } = runner;

    let phases = std::mem::take(&mut g.phases);
    let rounds = g
        .index_s
        .iter()
        .copied()
        .zip(g.cold_s.iter().copied())
        .collect();
    let cycles = [
        g.solo_p50_ms.clone(),
        g.solo_rps.clone(),
        g.add_p50_ms.clone(),
    ];
    let mut out = summarize(cfg, prepared, g);
    out.phases = phases;
    out.rounds = rounds;
    out.cycles = cycles;
    out.phases.insert(0, ("prepare", prepared.prepare_s));
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.failures = tally.failures;
    let ok_share = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    out.set("ok_share", ok_share, out.attempted as usize);
    out.wall = run_start.elapsed() + Duration::from_secs_f64(prepared.prepare_s);
    Ok(out)
}

fn summarize(cfg: &RunConfig, prepared: &Prepared, mut g: Gathered) -> Outcome {
    let w = &cfg.workload;
    let mut out = Outcome::default();
    let med = stats::median;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mib = |kib: f64| kib / 1024.0;

    // Timings and rates: of the per-round or per-cycle values, the
    // quartile on the good side (see `stats::lower_quartile`).
    let (low, high) = (stats::lower_quartile, stats::upper_quartile);
    out.set("setup_s", low(&g.setup_s), g.setup_s.len());
    out.set(
        "client.index_tables_per_s",
        w.lake.tables as f64 / low(&g.index_s),
        g.index_s.len(),
    );
    out.set("client.cold_start_s", low(&g.cold_s), g.cold_s.len());

    stats::sort(&mut g.solo_ms);
    let solo_n = g.solo_ms.len();
    if solo_n > 0 {
        out.set("client.query_p50_ms", low(&g.solo_p50_ms), solo_n);
        let tail = stats::supported_tail(solo_n, 99.0);
        out.set(
            "client.query_p99_ms",
            stats::percentile(&g.solo_ms, tail),
            solo_n,
        );
        out.set("client.query_throughput_rps", high(&g.solo_rps), solo_n);
        out.set(
            "client.generator_cpu_share",
            g.solo_cpu / g.solo_wall,
            solo_n,
        );
    }
    stats::sort(&mut g.add_ms);
    if !g.add_ms.is_empty() {
        let n = g.add_ms.len();
        out.set("client.add_p50_ms", low(&g.add_p50_ms), n);
        let tail = stats::supported_tail(n, 90.0);
        out.set("client.add_p90_ms", stats::percentile(&g.add_ms, tail), n);
    }
    // Workloads without deletes, compactions or follow-up reads still
    // print these, as 0 over 0 samples.
    let p50_or_zero = |v: &mut Vec<f64>| {
        stats::sort(v);
        if v.is_empty() {
            0.0
        } else {
            stats::percentile(v, 50.0)
        }
    };
    let n = g.delete_ms.len();
    out.set("client.delete_p50_ms", p50_or_zero(&mut g.delete_ms), n);
    let n = g.compact_ms.len();
    out.set("client.compact_p50_ms", p50_or_zero(&mut g.compact_ms), n);
    let n = g.after_write_ms.len();
    out.set(
        "client.query_after_write_p50_ms",
        p50_or_zero(&mut g.after_write_ms),
        n,
    );

    out.set("precision_at_k", mean(&g.precision), g.precision.len());
    out.set("recall_at_k", mean(&g.recall), g.recall.len());
    // 48 bits survive the trip through a JSON number exactly.
    let digest = g.ranking_digest.finish() & ((1 << 48) - 1);
    out.set("client.ranking_digest", digest as f64, g.precision.len());

    let fresh = g.fresh_store_bytes[0] as f64 / w.lake.tables as f64;
    out.set(
        "store_bytes_per_table",
        g.final_store_bytes_per_table.unwrap_or(fresh),
        1,
    );
    let rss = match w.rss_of {
        RssOf::Index => &g.index_rss_kib,
        RssOf::Serve => &g.serve_rss_kib,
    };
    if !rss.is_empty() {
        out.set("peak_rss_mb", mib(med(rss)), rss.len());
    }

    out.set("client.prepare_s", prepared.prepare_s, 1);
    out.set(
        "client.index_wall_ms",
        med(&g.index_s) * 1e3,
        g.index_s.len(),
    );
    let samples = solo_n + g.add_ms.len() + g.delete_ms.len() + g.compact_ms.len();
    out.set("client.samples", samples as f64, samples);
    let hit_rate = if g.lookups > 0.0 {
        g.hits / g.lookups
    } else {
        0.0
    };
    out.set("core.cache.hit_rate", hit_rate, g.lookups as usize);
    out.set("core.cache.evictions", g.evictions, 1);
    out.set("server.shed_total", g.shed, 1);
    out.set(
        "server.queue_depth_max",
        g.queue_depth_max,
        2 * w.run_cycles,
    );
    if !g.server_query_p50_ms.is_empty() {
        out.set(
            "server.request_p50_ms",
            med(&g.server_query_p50_ms),
            g.server_query_p50_ms.len(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_are_counted_not_alignments() {
        let body = br#"{"engine_version":3,"live_tables":9,"matches":[{"table":"b","id":2,"alignments":[{"target_column":0,"source_name":"{x"}]},{"table":"a","id":0,"alignments":[]}]}"#;
        assert_eq!(count_matches(body), 2);
        assert_eq!(count_matches(br#"{"matches":[]}"#), 0);
        assert_eq!(count_matches(b""), 0);
        assert_eq!(count_matches(b"{{{"), 0);
    }

    #[test]
    fn precision_and_recall_exclude_nothing_twice() {
        let answer: std::collections::HashSet<String> =
            ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let names: Vec<String> = ["a", "x", "b"].iter().map(|s| s.to_string()).collect();
        let (p, r) = precision_recall(&names, &answer);
        assert!((p - 2.0 / 3.0).abs() < 1e-12);
        assert!((r - 0.5).abs() < 1e-12);
        assert_eq!(precision_recall(&[], &answer), (0.0, 0.0));
    }

    #[test]
    fn round_robin_covers_everything() {
        let w = crate::workloads::WORKLOADS[1];
        let mut a = Stream::new(&w, 11);
        assert_eq!(a.next_target(), 0);
        let seen: std::collections::HashSet<usize> =
            (0..w.targets.count).map(|_| a.next_target()).collect();
        assert_eq!(seen.len(), w.targets.count);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.ok();
        t.fail("x".into());
        t.check(true, || unreachable!());
        t.check(false, || "y".into());
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.failures, vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn process_cpu_time_advances() {
        let c0 = process_cpu_seconds();
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_seconds() - c0 >= 0.03);
    }
}
