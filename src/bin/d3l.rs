//! `d3l` — command-line dataset discovery over a directory of CSVs.
//!
//! ```text
//! d3l index   <lake-dir> --out <index-dir> [--shards N]
//! d3l query   <lake-dir>|--index <index-dir> <target.csv> [-k N] [--joins] [--evidence N|V|F|E|D] [--threads N]
//! d3l serve   --index <index-dir> [--shards N] [--port P] [--host H] [--threads N] [--cache-bytes N[k|m|g]] [--max-queue N] [--slow-query-ms N] [--watch <lake-dir>] [--reload-ms N]
//! d3l watch   <lake-dir> --index <index-dir> [--poll-ms N] [--compact-segments N] [--compact-bytes N[k|m|g]]
//! d3l stats   <lake-dir>|--index <index-dir>
//! d3l add     <index-dir> <table.csv>
//! d3l remove  <index-dir> <table-name>
//! d3l compact <index-dir>
//! d3l demo
//! ```
//!
//! The lake directory is any folder of `*.csv` files (header row
//! required). The target is a CSV with the schema you want to
//! populate plus a few exemplar tuples.
//!
//! `index` pays the profiling cost once and persists the engine;
//! `query --index` / `stats --index` then cold-start from the
//! snapshot in milliseconds with no re-profiling. `add`/`remove`
//! profile only the delta and append it as a segment; `compact` folds
//! segments back into the base snapshot. `serve` turns the persisted
//! index into a long-lived concurrent HTTP service (see the README's
//! "Serving" section for the endpoints); SIGINT drains in-flight
//! requests before exiting. `watch` keeps an index continuously in
//! sync with a lake directory (one poll loop: every settled change
//! applied, then compaction past a threshold; see the README's
//! "Continuous ingestion" section);
//! `serve --watch` runs the watcher inside the server process, and
//! `serve --reload-ms` makes a read replica follow another process's
//! writes.

use std::collections::HashSet;
use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Instant;

use d3l::benchgen;
use d3l::prelude::*;
use d3l::table::csv;

const USAGE: &str = "usage:\n  d3l index <lake-dir> --out <index-dir> [--shards N]\n  d3l query <lake-dir>|--index <index-dir> <target.csv> [-k N] [--joins] [--evidence N|V|F|E|D] [--threads N]\n  d3l serve --index <index-dir> [--shards N] [--port P] [--host H] [--threads N] [--cache-bytes N[k|m|g]] [--max-queue N] [--slow-query-ms N] [--watch <lake-dir> [watch flags]] [--reload-ms N]\n  d3l watch <lake-dir> --index <index-dir> [--poll-ms N] [--compact-segments N] [--compact-bytes N[k|m|g]]\n  d3l stats <lake-dir>|--index <index-dir>\n  d3l add <index-dir> <table.csv>\n  d3l remove <index-dir> <table-name>\n  d3l compact <index-dir>\n  d3l demo";

/// A line of command output. Every command writes through here, not
/// `println!`, which panics when stdout is gone: a failed write is the
/// command's error, and a closed pipe (`d3l stats --index dir | head -1`)
/// ends the command quietly (see `main`).
macro_rules! out {
    ($($arg:tt)*) => {
        writeln!(io::stdout(), $($arg)*).map_err(StdoutError)?
    };
}

/// A write to stdout failed.
#[derive(Debug)]
struct StdoutError(io::Error);

impl std::fmt::Display for StdoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "writing to stdout: {}", self.0)
    }
}

impl std::error::Error for StdoutError {}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("index") => cmd_index(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("add") => cmd_add(&args[1..]),
        Some("remove") => cmd_remove(&args[1..]),
        Some("compact") => cmd_compact(&args[1..]),
        Some("demo") => cmd_demo(),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let closed_pipe = |e: &(dyn std::error::Error + 'static)| {
        e.downcast_ref::<StdoutError>()
            .is_some_and(|StdoutError(e)| e.kind() == io::ErrorKind::BrokenPipe)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // The reader has what it wanted.
        Err(e) if closed_pipe(&*e) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Build an engine for serving: either a millisecond cold start from
/// a persisted index directory (monolithic or sharded — the layout is
/// auto-detected), or an index-on-the-fly over a raw CSV lake
/// directory.
fn load_engine(
    lake_dir: Option<&str>,
    index_dir: Option<&str>,
) -> Result<ShardedD3l, Box<dyn std::error::Error>> {
    match (lake_dir, index_dir) {
        (None, Some(index)) => {
            let start = Instant::now();
            let handle = EngineHandle::open(index)?;
            let snap = handle.snapshot();
            eprintln!(
                "cold start: loaded {} tables ({} shard{}) from {index} in {:.1} ms (no re-profiling)",
                snap.engine.live_table_count(),
                snap.engine.shard_count(),
                if snap.engine.shard_count() == 1 { "" } else { "s" },
                start.elapsed().as_secs_f64() * 1e3
            );
            // Shards sit behind `Arc`: this copies pointers, not the
            // engine the open just built.
            Ok(snap.engine.clone())
        }
        (Some(dir), None) => {
            eprintln!("indexing the lake in {dir} ...");
            Ok(ShardedD3l::index_dir(dir, D3lConfig::default())?)
        }
        (Some(_), Some(_)) => Err("give either a lake directory or --index, not both".into()),
        (None, None) => Err("missing lake directory (or --index <index-dir>)".into()),
    }
}

fn cmd_index(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut dir = None;
    let mut out = None;
    let mut shards: usize = 1;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(it.next().ok_or("missing value for --out")?.to_string()),
            "--shards" => shards = it.next().ok_or("missing value for --shards")?.parse()?,
            other if dir.is_none() => dir = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other}").into()),
        }
    }
    let dir = dir.ok_or("missing lake directory")?;
    let out = out.ok_or("missing --out <index-dir>")?;
    let cfg = D3lConfig {
        shards,
        ..Default::default()
    };
    if let Some(error) = cfg.shape_error() {
        return Err(format!("--shards {shards}: {error}").into());
    }

    eprintln!(
        "indexing the lake in {dir} ({} signing lanes) ...",
        d3l::core::index::signing_lanes()
    );
    let build_start = Instant::now();
    // Streamed: each table is read, parsed, indexed and dropped in
    // turn, and nothing is created under `out` unless all of them
    // load.
    let engine = ShardedD3l::index_dir(&dir, cfg)?;
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let save_start = Instant::now();
    let tables = engine.table_count();
    // The shard count rides in every shard's config, so `d3l serve`
    // and the maintenance commands reopen with the same partitioning
    // without being told.
    let handle = EngineHandle::create(&out, engine)?;
    let (base_bytes, _, _) = handle.disk_stats()?;
    out!(
        "indexed {tables} tables into {shards} shard{} in {build_ms:.1} ms; snapshot {base_bytes} bytes written to {out} in {:.1} ms",
        if shards == 1 { "" } else { "s" },
        save_start.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}

fn cmd_add(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let [index_dir, table_path] = args else {
        return Err("usage: d3l add <index-dir> <table.csv>".into());
    };
    let engine = EngineHandle::open(index_dir)?;
    let table = d3l::table::lake::load_csv(std::path::Path::new(table_path))?;
    let start = Instant::now();
    let (id, snap) = engine.add_table(&table)?;
    let shard = snap.engine.shard_of(table.name());
    let (_, _, segments) = engine.disk_stats()?;
    out!(
        "added {} as {id} (shard {shard}) in {:.1} ms ({segments} delta segments pending; run `d3l compact` to fold)",
        table.name(),
        start.elapsed().as_secs_f64() * 1e3,
    );
    Ok(())
}

fn cmd_remove(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let [index_dir, table_name] = args else {
        return Err("usage: d3l remove <index-dir> <table-name>".into());
    };
    let engine = EngineHandle::open(index_dir)?;
    let (id, snap) = engine.remove_table(table_name)?;
    out!(
        "removed {table_name} ({id}); {} of {} tables still serving",
        snap.engine.live_table_count(),
        snap.engine.table_count()
    );
    Ok(())
}

fn cmd_compact(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let [index_dir] = args else {
        return Err("usage: d3l compact <index-dir>".into());
    };
    let engine = EngineHandle::open(index_dir)?;
    let folded = engine.compact()?;
    let (base_bytes, _, _) = engine.disk_stats()?;
    out!("folded {folded} delta segments; base snapshot now {base_bytes} bytes");
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (mut dir, mut index_dir, mut target_path) = (None, None, None);
    let mut k = 10usize;
    let mut joins = false;
    let mut evidence = None;
    let mut threads: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-k" => {
                k = it.next().ok_or("missing value for -k")?.parse()?;
            }
            "--joins" => joins = true,
            "--evidence" => {
                let e = it.next().ok_or("missing value for --evidence")?;
                evidence =
                    Some(Evidence::from_letter(e).ok_or_else(|| format!("unknown evidence {e}"))?);
            }
            "--threads" => {
                threads = Some(it.next().ok_or("missing value for --threads")?.parse()?);
            }
            "--index" => {
                index_dir = Some(it.next().ok_or("missing value for --index")?.to_string());
            }
            other if dir.is_none() && index_dir.is_none() => dir = Some(other.to_string()),
            other if target_path.is_none() => target_path = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other}").into()),
        }
    }
    let target_path = target_path.ok_or("missing target csv")?;
    let d3l = load_engine(dir.as_deref(), index_dir.as_deref())?;

    let text = std::fs::read_to_string(&target_path)?;
    let target = csv::parse_csv("target", &text)?;

    // An explicit --threads flag beats the D3L_QUERY_THREADS env var,
    // so it goes through the per-query override.
    let opts = d3l::core::query::QueryOptions {
        evidence,
        threads,
        ..Default::default()
    };
    // Profile the target once; the ranking and the join-path
    // related-set lookup both reuse it.
    let prepared = d3l.prepare_target(&target);
    let matches = d3l.query_prepared(&prepared, k, &opts);
    if matches.is_empty() {
        out!("no related tables found");
        return Ok(());
    }
    out!("{:<40} {:>9} {:>9}", "table", "distance", "covered");
    for m in &matches {
        out!(
            "{:<40} {:>9.4} {:>6}/{}",
            d3l.table_name(m.table),
            m.distance,
            m.covered_targets().len(),
            target.arity()
        );
        for a in &m.alignments {
            out!(
                "    target.{} ← {}",
                target.columns()[a.target_column].name(),
                d3l.profile(a.source).name
            );
        }
    }

    if joins {
        let graph = d3l.build_join_graph();
        let top: HashSet<TableId> = matches.iter().map(|m| m.table).collect();
        let related = d3l.related_table_set_prepared(&prepared, d3l.config().lookup_width(k));
        out!("\njoin paths from the top-{k}:");
        let mut any = false;
        for m in &matches {
            for path in d3l.find_join_paths(&graph, m.table, &top, &related) {
                let names: Vec<&str> = path.nodes.iter().map(|&t| d3l.table_name(t)).collect();
                out!("  {}", names.join(" ⋈ "));
                any = true;
            }
        }
        if !any {
            out!("  (none)");
        }
    }
    Ok(())
}

/// Graceful-shutdown signals for `d3l serve`: SIGINT/SIGTERM set a
/// flag that a watcher thread turns into a server drain. Raw
/// `signal(2)` registration — std has no signal API and the workspace
/// takes no dependencies; the handler only stores into an atomic,
/// which is async-signal-safe.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

/// Parse a byte count with an optional `k`/`m`/`g` suffix
/// (case-insensitive, powers of 1024). `0` disables the result cache.
fn parse_byte_size(s: &str) -> Result<u64, Box<dyn std::error::Error>> {
    let s = s.trim();
    let (digits, shift) = match s.as_bytes().last() {
        Some(b'k') | Some(b'K') => (&s[..s.len() - 1], 10),
        Some(b'm') | Some(b'M') => (&s[..s.len() - 1], 20),
        Some(b'g') | Some(b'G') => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("invalid byte size {s:?} (expected N, Nk, Nm or Ng)"))?;
    n.checked_shl(shift)
        .filter(|v| v >> shift == n)
        .ok_or_else(|| format!("byte size {s:?} overflows u64").into())
}

/// Parse one continuous-ingestion flag into `cfg`. Returns `false`
/// when the flag is not a watch knob (the caller handles it), so
/// `d3l watch` and `d3l serve --watch` accept the same set.
fn parse_watch_flag(
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
    cfg: &mut WatchConfig,
) -> Result<bool, Box<dyn std::error::Error>> {
    use std::time::Duration;
    match flag {
        "--poll-ms" => {
            cfg.poll_interval =
                Duration::from_millis(it.next().ok_or("missing value for --poll-ms")?.parse()?);
        }
        "--compact-segments" => {
            cfg.compact_segments = it
                .next()
                .ok_or("missing value for --compact-segments")?
                .parse()?;
            if cfg.compact_segments == 0 {
                return Err("--compact-segments must be at least 1".into());
            }
        }
        "--compact-bytes" => {
            cfg.compact_bytes =
                parse_byte_size(it.next().ok_or("missing value for --compact-bytes")?)?;
            if cfg.compact_bytes == 0 {
                return Err("--compact-bytes must be at least 1".into());
            }
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn cmd_watch(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut lake_dir = None;
    let mut index_dir = None;
    let mut cfg = WatchConfig {
        verbose: true,
        ..Default::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--index" => {
                index_dir = Some(it.next().ok_or("missing value for --index")?.to_string());
            }
            other => {
                if parse_watch_flag(other, &mut it, &mut cfg)? {
                    continue;
                }
                if lake_dir.is_none() && !other.starts_with('-') {
                    lake_dir = Some(other.to_string());
                } else {
                    return Err(format!("unexpected argument {other}").into());
                }
            }
        }
    }
    let lake_dir = lake_dir.ok_or("missing lake directory to watch")?;
    let index_dir = index_dir.ok_or("missing --index <index-dir>")?;

    let start = Instant::now();
    let engine = std::sync::Arc::new(EngineHandle::open(&index_dir)?);
    let snap = engine.snapshot();
    eprintln!(
        "cold start: loaded {} tables from {index_dir} in {:.1} ms",
        snap.engine.live_table_count(),
        start.elapsed().as_secs_f64() * 1e3
    );
    let watcher = Watcher::start(engine, &lake_dir, cfg.clone())?;
    let stats = watcher.stats();
    // Before the line that says Ctrl-C stops, so a Ctrl-C after it
    // does.
    #[cfg(unix)]
    sig::install();
    out!(
        "watching {lake_dir} -> {index_dir} (poll {} ms, compact at {} segments or {} delta bytes); Ctrl-C stops",
        cfg.poll_interval.as_millis(),
        cfg.compact_segments,
        cfg.compact_bytes,
    );

    #[cfg(unix)]
    {
        while !sig::requested() {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        eprintln!("shutdown requested; finishing the poll in flight ...");
    }
    #[cfg(not(unix))]
    loop {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }

    watcher.shutdown();
    let lag = stats.ingest_lag();
    out!(
        "watched {} files; {} polls applied changes ({} adds, {} replaces, {} removes, {} skipped), {} compactions; ingest lag p50 {:.1} ms p99 {:.1} ms; bye",
        stats.files_tracked(),
        stats.batches(),
        stats.added(),
        stats.replaced(),
        stats.removed(),
        stats.skipped(),
        stats.compactions(),
        lag.quantile_ns(0.50) as f64 / 1e6,
        lag.quantile_ns(0.99) as f64 / 1e6,
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut index_dir = None;
    let mut port: u16 = 4333;
    let mut host = "127.0.0.1".to_string();
    let mut threads: usize = 0;
    let mut cache_bytes: u64 = d3l::core::cache::DEFAULT_CACHE_BYTES;
    let mut max_queue: usize = d3l::server::ServerConfig::default().max_queue;
    let mut slow_query_ms: u64 = d3l::server::ServerConfig::default().slow_query_ms;
    let mut shards: Option<usize> = None;
    let mut watch_dir: Option<String> = None;
    let mut watch_cfg = WatchConfig::default();
    let mut reload_ms: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--index" => {
                index_dir = Some(it.next().ok_or("missing value for --index")?.to_string());
            }
            "--watch" => {
                watch_dir = Some(it.next().ok_or("missing value for --watch")?.to_string());
            }
            "--reload-ms" => {
                let ms: u64 = it.next().ok_or("missing value for --reload-ms")?.parse()?;
                if ms == 0 {
                    return Err("--reload-ms must be at least 1".into());
                }
                reload_ms = Some(ms);
            }
            "--shards" => {
                let n: usize = it.next().ok_or("missing value for --shards")?.parse()?;
                if n == 0 {
                    return Err("--shards must be at least 1".into());
                }
                shards = Some(n);
            }
            "--port" => port = it.next().ok_or("missing value for --port")?.parse()?,
            "--host" => host = it.next().ok_or("missing value for --host")?.to_string(),
            "--threads" => threads = it.next().ok_or("missing value for --threads")?.parse()?,
            "--cache-bytes" => {
                cache_bytes = parse_byte_size(it.next().ok_or("missing value for --cache-bytes")?)?;
            }
            "--max-queue" => {
                max_queue = it.next().ok_or("missing value for --max-queue")?.parse()?;
            }
            "--slow-query-ms" => {
                slow_query_ms = it
                    .next()
                    .ok_or("missing value for --slow-query-ms")?
                    .parse()?;
            }
            other => {
                if !parse_watch_flag(other, &mut it, &mut watch_cfg)? {
                    return Err(format!("unexpected argument {other}").into());
                }
            }
        }
    }
    let index_dir = index_dir.ok_or("missing --index <index-dir>")?;
    if watch_dir.is_some() && reload_ms.is_some() {
        // One process per index directory writes; --watch makes this
        // server the writer, --reload-ms makes it a follower.
        return Err("--watch and --reload-ms are mutually exclusive (the watcher is the single writer; replicas follow with --reload-ms)".into());
    }

    let start = Instant::now();
    let engine = std::sync::Arc::new(d3l::core::EngineHandle::open(&index_dir)?);
    let snap = engine.snapshot();
    // The layout on disk decides the shard count (it rides in every
    // shard's config); an explicit --shards is a cross-check against
    // serving the wrong index, not a way to repartition.
    if let Some(n) = shards {
        if n != snap.engine.shard_count() {
            return Err(format!(
                "--shards {n} does not match the index at {index_dir}, which has {} shard{} (repartition with `d3l index --shards {n}`)",
                snap.engine.shard_count(),
                if snap.engine.shard_count() == 1 { "" } else { "s" },
            )
            .into());
        }
    }
    eprintln!(
        "cold start: loaded {} tables ({} shard{}) from {index_dir} in {:.1} ms",
        snap.engine.live_table_count(),
        snap.engine.shard_count(),
        if snap.engine.shard_count() == 1 {
            ""
        } else {
            "s"
        },
        start.elapsed().as_secs_f64() * 1e3
    );

    let cfg = d3l::server::ServerConfig {
        threads,
        cache_bytes,
        max_queue,
        slow_query_ms,
        ..Default::default()
    };
    let server = d3l::server::Server::bind((host.as_str(), port), engine.clone(), cfg)?;
    let addr = server.local_addr()?;
    let workers = server.effective_threads();
    // Before the line that says Ctrl-C drains, so a Ctrl-C after it
    // does (`run` drains at once when the flag is already up).
    #[cfg(unix)]
    sig::install();
    // The CLI tests parse this line to learn the ephemeral port, so
    // keep the "listening on" prefix stable.
    out!("listening on http://{addr} ({workers} workers); Ctrl-C drains and exits");
    if cache_bytes == 0 {
        out!("result cache: disabled");
    } else {
        out!("result cache: {cache_bytes} bytes; pending-connection queue: {max_queue}");
    }

    // Single-process continuous ingestion: the watcher writes deltas
    // into the same handle the workers serve from; queries keep
    // running on immutable snapshots while changes land.
    let mut watcher = None;
    if let Some(dir) = &watch_dir {
        let w = Watcher::start(engine.clone(), dir, watch_cfg.clone())?;
        server.attach_watch(w.stats());
        out!(
            "watching {dir} (poll {} ms, compact at {} segments or {} delta bytes)",
            watch_cfg.poll_interval.as_millis(),
            watch_cfg.compact_segments,
            watch_cfg.compact_bytes,
        );
        watcher = Some(w);
    }

    // Replica mode: another process (a watcher or the CLI mutators)
    // writes this index directory; this server polls the store and
    // hot-swaps in whatever new segments it finds.
    let reload_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut reload_thread = None;
    if let Some(ms) = reload_ms {
        out!("replica mode: following the index store every {ms} ms");
        let stop = reload_stop.clone();
        let eng = engine.clone();
        reload_thread = Some(std::thread::spawn(move || {
            use std::sync::atomic::Ordering;
            let slice = std::time::Duration::from_millis(50);
            let period = std::time::Duration::from_millis(ms);
            while !stop.load(Ordering::Relaxed) {
                if let Err(e) = eng.reload_latest() {
                    eprintln!("reload error: {e}");
                }
                let deadline = Instant::now() + period;
                while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
                    std::thread::sleep(slice.min(deadline - Instant::now()));
                }
            }
        }));
    }

    #[cfg(unix)]
    {
        let handle = server.shutdown_handle();
        std::thread::spawn(move || {
            while !sig::requested() {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            eprintln!("shutdown requested; draining in-flight requests ...");
            handle.shutdown();
        });
    }

    let slow_handle = server.shutdown_handle();
    server.run()?;
    reload_stop.store(true, std::sync::atomic::Ordering::SeqCst);
    if let Some(t) = reload_thread {
        let _ = t.join();
    }
    if let Some(w) = watcher {
        eprintln!("stopping watcher; finishing the poll in flight ...");
        w.shutdown();
    }
    // Post-drain dump: whatever the slow-query ring held when the
    // server stopped, so a SIGTERM'd deployment leaves a trail even if
    // nobody scraped /debug/slow_queries in time.
    if slow_handle.slow_query_count() > 0 {
        eprintln!("slow queries captured (threshold {slow_query_ms} ms):");
        eprintln!("{}", slow_handle.slow_queries_json());
    }
    out!("drained; bye");
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (mut dir, mut index_dir) = (None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--index" => {
                index_dir = Some(it.next().ok_or("missing value for --index")?.to_string());
            }
            other if dir.is_none() && index_dir.is_none() => dir = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other}").into()),
        }
    }

    // On-disk accounting: the real store files when serving from an
    // index directory (monolithic or sharded), otherwise the snapshot
    // the lake would produce.
    let mut sections = Vec::new();
    let (d3l, disk, shard_disk) = match (&dir, &index_dir) {
        (None, Some(index)) => {
            let handle = EngineHandle::open(index)?;
            let snap = handle.snapshot();
            let per_shard = handle.shard_disk_stats()?;
            let (base, deltas, pending) = handle.disk_stats()?;
            sections = handle.base_sections()?;
            (snap.engine.clone(), (base, deltas, pending), per_shard)
        }
        (Some(dir), None) => {
            let lake = DataLake::load_dir(dir)?;
            let stats = benchgen::RepoStats::compute(&lake);
            out!("tables:         {}", stats.tables);
            out!("attributes:     {}", stats.attributes);
            out!("mean arity:     {:.1}", stats.mean_arity());
            out!("mean rows:      {:.1}", stats.mean_cardinality());
            out!("numeric ratio:  {:.1}%", stats.numeric_ratio * 100.0);
            out!("raw bytes:      {}", stats.bytes);
            let mono = D3l::index_lake(&lake, D3lConfig::default());
            out!(
                "index bytes:    {} ({:.0}% overhead, in-memory)",
                mono.index_byte_size(),
                100.0 * mono.index_byte_size() as f64 / stats.bytes.max(1) as f64
            );
            let snapshot = mono.to_snapshot_bytes().len() as u64;
            (
                ShardedD3l::from_monolith(mono),
                (snapshot, 0, 0),
                Vec::new(),
            )
        }
        _ => return Err("give either a lake directory or --index <index-dir>".into()),
    };

    if index_dir.is_some() {
        out!("tables:         {}", d3l.table_count());
        if d3l.live_table_count() != d3l.table_count() {
            out!(
                "serving:        {} (rest tombstoned)",
                d3l.live_table_count()
            );
        }
        if d3l.shard_count() > 1 {
            out!("shards:         {}", d3l.shard_count());
            for (s, (base, deltas, segments)) in shard_disk.iter().enumerate() {
                out!(
                    "  shard-{s:02}: {} live tables, {base} base + {deltas} delta bytes ({segments} segments)",
                    d3l.shards()[s].live_table_count(),
                );
            }
        }
    }
    out!("signing lanes:  {}", d3l::core::index::signing_lanes());
    let fp = d3l.byte_size();
    out!("in-memory footprint (every array the engine holds, at the bytes its content needs):");
    out!(
        "  {:<10} {:>12} {:>12} {:>12} {:>12}",
        "index",
        "trees",
        "signatures",
        "postings",
        "total"
    );
    for (name, idx) in fp.indexes() {
        out!(
            "  {:<10} {:>12} {:>12} {:>12} {:>12}",
            name,
            idx.tree_bytes,
            idx.signature_bytes,
            idx.posting_bytes,
            idx.total()
        );
    }
    for (name, bytes) in [
        ("attributes", fp.profile_bytes),
        ("tables", fp.table_bytes),
        ("hashers", fp.hasher_bytes),
    ] {
        out!(
            "  {:<10} {:>12} {:>12} {:>12} {:>12}",
            name,
            "-",
            "-",
            "-",
            bytes
        );
    }
    out!(
        "  {:<10} {:>12} {:>12} {:>12} {:>12}",
        "total",
        "",
        "",
        "",
        fp.total()
    );
    out!("classes (distinct signatures; per-shard counts added, largest class of any shard):");
    out!(
        "  {:<10} {:>12} {:>12} {:>14}",
        "index",
        "attributes",
        "classes",
        "largest class"
    );
    for ((name, _), stats) in fp.indexes().iter().zip(d3l.class_stats()) {
        out!(
            "  {:<10} {:>12} {:>12} {:>14}",
            name,
            stats.attributes,
            stats.classes,
            stats.largest_class
        );
    }
    let (base, deltas, pending) = disk;
    out!("on-disk snapshot (serialized bytes):");
    match index_dir {
        Some(_) => {
            out!("  {:<16} {:>12}", "base snapshot", base);
            out!(
                "  {:<16} {:>12} ({pending} segments)",
                "delta segments",
                deltas
            );
            out!("  {:<16} {:>12}", "total", base + deltas);
            // What the base is made of, from its table of contents.
            out!("base snapshot sections (payload bytes, share):");
            let payload: u64 = sections.iter().map(|s| s.1).sum();
            for (tag, len) in sections {
                let share = 100.0 * len as f64 / payload.max(1) as f64;
                let tag = String::from_utf8_lossy(&tag);
                out!("  {tag:<16} {len:>12} {share:>5.1}%");
            }
        }
        None => out!(
            "  {:<16} {:>12} (if persisted with `d3l index`)",
            "base snapshot",
            base
        ),
    }
    Ok(())
}

fn cmd_demo() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("d3l_demo_{}", std::process::id()));
    eprintln!("generating a demo lake in {} ...", dir.display());
    let bench = benchgen::smaller_real(48, 1);
    bench.lake.save_dir(&dir)?;
    // Keep the target outside the lake directory so it is not indexed
    // as a lake member.
    let target_path =
        std::env::temp_dir().join(format!("d3l_demo_target_{}.csv", std::process::id()));
    // Use the first generated table's CSV as the target.
    let tname = bench.pick_targets(1, 1)[0].clone();
    let target = bench.lake.table_by_name(&tname).expect("member");
    std::fs::write(&target_path, csv::to_csv(target))?;
    out!("demo lake: {} tables; target: {tname}", bench.lake.len());
    cmd_query(&[
        dir.to_string_lossy().into_owned(),
        target_path.to_string_lossy().into_owned(),
        "-k".into(),
        "5".into(),
        "--joins".into(),
    ])?;
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&target_path).ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evidence_flags_parse_case_insensitively() {
        for (flag, want) in [
            ("N", Evidence::Name),
            ("V", Evidence::Value),
            ("F", Evidence::Format),
            ("E", Evidence::Embedding),
            ("D", Evidence::Distribution),
        ] {
            assert_eq!(Evidence::from_letter(flag), Some(want));
            assert_eq!(Evidence::from_letter(&flag.to_lowercase()), Some(want));
        }
    }

    #[test]
    fn evidence_flags_cover_every_evidence_type() {
        for e in Evidence::ALL {
            let flag = format!("{e:?}").chars().next().unwrap().to_string();
            assert_eq!(
                Evidence::from_letter(&flag),
                Some(e),
                "flag {flag} must map back to {e:?}"
            );
        }
    }

    #[test]
    fn unknown_evidence_flags_are_rejected() {
        for bad in ["X", "", "NV", "name", "0"] {
            assert_eq!(Evidence::from_letter(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn query_rejects_missing_and_unexpected_arguments() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(cmd_query(&args(&[])).is_err(), "missing lake dir must fail");
        assert!(
            cmd_query(&args(&["lake-dir"])).is_err(),
            "missing target must fail"
        );
        assert!(
            cmd_query(&args(&["a", "b", "c"])).is_err(),
            "third positional argument must fail"
        );
        assert!(
            cmd_query(&args(&["-k"])).is_err(),
            "-k without value must fail"
        );
        assert!(
            cmd_query(&args(&["-k", "x"])).is_err(),
            "non-numeric -k must fail"
        );
        assert!(
            cmd_query(&args(&["--evidence"])).is_err(),
            "--evidence without value must fail"
        );
        assert!(
            cmd_query(&args(&["--threads"])).is_err(),
            "--threads without value must fail"
        );
        assert!(
            cmd_query(&args(&["--threads", "x", "a", "b"])).is_err(),
            "non-numeric --threads must fail"
        );
        assert!(
            cmd_query(&args(&["--evidence", "Z", "a", "b"])).is_err(),
            "unknown evidence letter must fail"
        );
    }

    #[test]
    fn serve_rejects_bad_arguments() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(cmd_serve(&args(&[])).is_err(), "serve needs --index");
        assert!(
            cmd_serve(&args(&["--index"])).is_err(),
            "--index needs a value"
        );
        assert!(
            cmd_serve(&args(&["--index", "idx", "--port"])).is_err(),
            "--port needs a value"
        );
        assert!(
            cmd_serve(&args(&["--index", "idx", "--port", "not-a-port"])).is_err(),
            "--port must parse"
        );
        assert!(
            cmd_serve(&args(&["--index", "idx", "--threads", "x"])).is_err(),
            "--threads must parse"
        );
        assert!(
            cmd_serve(&args(&["--index", "idx", "stray"])).is_err(),
            "positional arguments are rejected"
        );
        assert!(
            cmd_serve(&args(&["--index", "idx", "--cache-bytes"])).is_err(),
            "--cache-bytes needs a value"
        );
        assert!(
            cmd_serve(&args(&["--index", "idx", "--cache-bytes", "64q"])).is_err(),
            "unknown byte suffix must fail"
        );
        assert!(
            cmd_serve(&args(&["--index", "idx", "--max-queue", "-1"])).is_err(),
            "--max-queue must parse as usize"
        );
        assert!(
            cmd_serve(&args(&["--index", "idx", "--slow-query-ms"])).is_err(),
            "--slow-query-ms needs a value"
        );
        assert!(
            cmd_serve(&args(&["--index", "idx", "--slow-query-ms", "soon"])).is_err(),
            "--slow-query-ms must parse as u64"
        );
        assert!(
            cmd_serve(&args(&["--index", "/definitely/not/a/store"])).is_err(),
            "missing store must fail before binding"
        );
    }

    #[test]
    fn watch_rejects_bad_arguments() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(cmd_watch(&args(&[])).is_err(), "watch needs a lake dir");
        assert!(
            cmd_watch(&args(&["lake-dir"])).is_err(),
            "watch needs --index"
        );
        assert!(
            cmd_watch(&args(&["lake-dir", "--index"])).is_err(),
            "--index needs a value"
        );
        assert!(
            cmd_watch(&args(&["a", "--index", "idx", "b"])).is_err(),
            "extra positional must fail"
        );
        assert!(
            cmd_watch(&args(&["a", "--index", "idx", "--poll-ms"])).is_err(),
            "--poll-ms needs a value"
        );
        assert!(
            cmd_watch(&args(&["a", "--index", "idx", "--poll-ms", "soon"])).is_err(),
            "--poll-ms must parse"
        );
        // The watcher has no batching to tune: its former flags are
        // arguments like any other it does not know.
        for gone in ["ms", "max"] {
            let flag = format!("--batch-{gone}");
            let err = cmd_watch(&args(&["a", "--index", "idx", &flag, "5"])).unwrap_err();
            assert_eq!(err.to_string(), format!("unexpected argument {flag}"));
        }
        assert!(
            cmd_watch(&args(&["a", "--index", "idx", "--compact-segments", "0"])).is_err(),
            "--compact-segments 0 must fail"
        );
        assert!(
            cmd_watch(&args(&["a", "--index", "idx", "--compact-bytes", "64q"])).is_err(),
            "unknown byte suffix must fail"
        );
        assert!(
            cmd_watch(&args(&["a", "--index", "idx", "--compact-bytes", "0"])).is_err(),
            "--compact-bytes 0 must fail"
        );
        assert!(
            cmd_watch(&args(&[
                "/nonexistent/lake",
                "--index",
                "/nonexistent/index"
            ]))
            .is_err(),
            "missing store must fail before watching"
        );
    }

    #[test]
    fn serve_watch_flags_are_validated() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(
            cmd_serve(&args(&["--index", "idx", "--watch"])).is_err(),
            "--watch needs a value"
        );
        assert!(
            cmd_serve(&args(&["--index", "idx", "--reload-ms"])).is_err(),
            "--reload-ms needs a value"
        );
        assert!(
            cmd_serve(&args(&["--index", "idx", "--reload-ms", "soon"])).is_err(),
            "--reload-ms must parse"
        );
        assert!(
            cmd_serve(&args(&["--index", "idx", "--reload-ms", "0"])).is_err(),
            "--reload-ms 0 must fail"
        );
        assert!(
            cmd_serve(&args(&[
                "--index",
                "idx",
                "--watch",
                "lake",
                "--reload-ms",
                "100"
            ]))
            .is_err(),
            "--watch and --reload-ms are mutually exclusive"
        );
        assert!(
            cmd_serve(&args(&[
                "--index",
                "idx",
                "--watch",
                "lake",
                "--compact-segments",
                "0"
            ]))
            .is_err(),
            "serve takes the watch flags, validated alike"
        );
        for gone in ["ms", "max"] {
            let flag = format!("--batch-{gone}");
            let err =
                cmd_serve(&args(&["--index", "idx", "--watch", "lake", &flag, "5"])).unwrap_err();
            assert_eq!(err.to_string(), format!("unexpected argument {flag}"));
        }
    }

    #[test]
    fn byte_sizes_accept_binary_suffixes() {
        assert_eq!(parse_byte_size("0").unwrap(), 0);
        assert_eq!(parse_byte_size("4096").unwrap(), 4096);
        assert_eq!(parse_byte_size("8k").unwrap(), 8 * 1024);
        assert_eq!(parse_byte_size("8K").unwrap(), 8 * 1024);
        assert_eq!(parse_byte_size("64m").unwrap(), 64 * 1024 * 1024);
        assert_eq!(parse_byte_size("2G").unwrap(), 2 * 1024 * 1024 * 1024);
        assert!(parse_byte_size("").is_err());
        assert!(parse_byte_size("k").is_err());
        assert!(parse_byte_size("12.5m").is_err());
        assert!(parse_byte_size("-3k").is_err());
        assert!(parse_byte_size("99999999999999999999g").is_err());
        assert!(
            parse_byte_size("18446744073709551615k").is_err(),
            "suffix shift past u64::MAX must fail, not wrap"
        );
    }

    #[test]
    fn stats_requires_a_directory() {
        assert!(cmd_stats(&[]).is_err());
        assert!(cmd_stats(&["/nonexistent/lake/dir".to_string()]).is_err());
    }

    #[test]
    fn store_commands_reject_bad_arguments() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(cmd_index(&args(&[])).is_err(), "index needs a lake dir");
        assert!(
            cmd_index(&args(&["lake-dir"])).is_err(),
            "index needs --out"
        );
        assert!(
            cmd_index(&args(&["lake-dir", "--out"])).is_err(),
            "--out needs a value"
        );
        assert!(
            cmd_index(&args(&["a", "--out", "b", "c"])).is_err(),
            "extra positional must fail"
        );
        assert!(
            cmd_index(&args(&["a", "--out", "b", "--shards"])).is_err(),
            "--shards needs a value"
        );
        assert!(
            cmd_index(&args(&["a", "--out", "b", "--shards", "0"])).is_err(),
            "zero shards must fail"
        );
        assert!(
            cmd_index(&args(&["a", "--out", "b", "--shards", "257"])).is_err(),
            "shards past the bound must fail"
        );
        assert!(
            cmd_index(&args(&["a", "--out", "b", "--shards", "x"])).is_err(),
            "non-numeric --shards must fail"
        );
        assert!(
            cmd_serve(&args(&["--index", "idx", "--shards"])).is_err(),
            "serve --shards needs a value"
        );
        assert!(
            cmd_serve(&args(&["--index", "idx", "--shards", "0"])).is_err(),
            "serve --shards 0 must fail"
        );
        assert!(cmd_add(&args(&["only-one"])).is_err());
        assert!(cmd_add(&args(&["/nonexistent/index", "t.csv"])).is_err());
        assert!(cmd_remove(&args(&["only-one"])).is_err());
        assert!(cmd_remove(&args(&["/nonexistent/index", "t"])).is_err());
        assert!(cmd_compact(&args(&[])).is_err());
        assert!(cmd_compact(&args(&["/nonexistent/index"])).is_err());
        assert!(
            cmd_query(&args(&["--index"])).is_err(),
            "--index needs a value"
        );
        assert!(
            cmd_query(&args(&["lake", "--index", "idx", "t.csv"])).is_err(),
            "lake dir and --index are mutually exclusive"
        );
        assert!(
            cmd_stats(&args(&["lake", "--index", "idx"])).is_err(),
            "stats takes one source"
        );
    }
}
