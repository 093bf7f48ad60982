//! `d3l` — command-line dataset discovery over a directory of CSVs.
//!
//! ```text
//! d3l index   <lake-dir> --out <index-dir>
//! d3l query   <lake-dir>|--index <index-dir> <target.csv> [-k N] [--joins] [--evidence N|V|F|E|D]
//! d3l serve   --index <index-dir> [--port P] [--host H] [--threads N] [--cache-bytes N[k|m|g]] [--max-queue N] [--slow-query-ms N] [--watch <lake-dir>]
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
//! profile only the delta and append it as a segment; a write that
//! finds 64 segments pending folds them into the base snapshot first,
//! whoever writes it, and `compact` folds them at once. `serve` turns
//! the persisted index into a long-lived concurrent HTTP service (see
//! the README's "Serving" section for the endpoints); SIGINT drains
//! in-flight requests before exiting. `serve --watch` also keeps the
//! index in step with a lake directory (one poll loop: every settled
//! change applied; see the README's "Continuous ingestion" section).
//!
//! One process writes an index directory: `add`, `remove` and
//! `compact` are for an index no server is serving, and a served index
//! changes through the server (`POST /tables`, `DELETE /tables/{name}`,
//! `POST /admin/compact`, or its watcher).

use std::collections::HashSet;
use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Instant;

use d3l::benchgen;
use d3l::core::FOLD_SEGMENTS;
use d3l::prelude::*;
use d3l::table::csv;

const USAGE: &str = "usage:\n  d3l index <lake-dir> --out <index-dir>\n  d3l query <lake-dir>|--index <index-dir> <target.csv> [-k N] [--joins] [--evidence N|V|F|E|D]\n  d3l serve --index <index-dir> [--port P] [--host H] [--threads N] [--cache-bytes N[k|m|g]] [--max-queue N] [--slow-query-ms N] [--watch <lake-dir>]\n  d3l stats <lake-dir>|--index <index-dir>\n  d3l add <index-dir> <table.csv>\n  d3l remove <index-dir> <table-name>\n  d3l compact <index-dir>\n  d3l demo";

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

/// A subcommand's arguments, read front to back. A flag may be given
/// once: a second use is refused, not taken over the first.
struct Args<'a> {
    it: std::slice::Iter<'a, String>,
    seen: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn new(args: &'a [String]) -> Self {
        Args {
            it: args.iter(),
            seen: Vec::new(),
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.it.next().map(String::as_str)
    }

    /// Note `flag` as given, refusing it if it was already.
    fn flag(&mut self, flag: &'a str) -> Result<(), Box<dyn std::error::Error>> {
        if self.seen.contains(&flag) {
            return Err(format!("{flag} given twice").into());
        }
        self.seen.push(flag);
        Ok(())
    }

    /// The value given to `flag` ([`Args::flag`]).
    fn value(&mut self, flag: &'a str) -> Result<&'a str, Box<dyn std::error::Error>> {
        self.flag(flag)?;
        self.next()
            .ok_or_else(|| format!("missing value for {flag}").into())
    }
}

/// `dir` as a lake to index, unless it is an index directory — a base
/// snapshot and no CSV file — which would index as an empty lake.
fn as_lake(dir: &str) -> Result<&str, Box<dyn std::error::Error>> {
    let base = std::path::Path::new(dir).join(d3l::core::snapshot::BASE_FILE);
    if base.is_file() && d3l::table::lake::csv_files(dir)?.is_empty() {
        return Err(format!("{dir} is an index directory, not a lake; use --index {dir}").into());
    }
    Ok(dir)
}

/// Build an engine to query: either a millisecond cold start from a
/// persisted index directory, or an index-on-the-fly over a raw CSV
/// lake directory.
fn load_engine(
    lake_dir: Option<&str>,
    index_dir: Option<&str>,
) -> Result<D3l, Box<dyn std::error::Error>> {
    match (lake_dir, index_dir) {
        (None, Some(index)) => {
            let start = Instant::now();
            let (_, engine) = IndexStore::open(index)?;
            eprintln!(
                "cold start: loaded {} tables from {index} in {:.1} ms (no re-profiling)",
                engine.live_table_count(),
                start.elapsed().as_secs_f64() * 1e3
            );
            Ok(engine)
        }
        (Some(dir), None) => {
            let dir = as_lake(dir)?;
            eprintln!("indexing the lake in {dir} ...");
            Ok(D3l::index_dir(dir, D3lConfig::default())?)
        }
        (Some(_), Some(_)) => Err("give either a lake directory or --index, not both".into()),
        (None, None) => Err("missing lake directory (or --index <index-dir>)".into()),
    }
}

fn cmd_index(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut dir = None;
    let mut out = None;
    let mut args = Args::new(args);
    while let Some(a) = args.next() {
        match a {
            "--out" => out = Some(args.value(a)?.to_string()),
            other if dir.is_none() => dir = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other}").into()),
        }
    }
    let dir = dir.ok_or("missing lake directory")?;
    let out = out.ok_or("missing --out <index-dir>")?;
    as_lake(&dir)?;

    eprintln!(
        "indexing the lake in {dir} ({} signing lanes) ...",
        d3l::core::index::signing_lanes()
    );
    // Streamed: each table is read, parsed, indexed and dropped in
    // turn, and nothing is created under `out` unless all of them
    // load. The build is written, not queried, so no tree is sorted.
    let (store, indexed) = IndexStore::index_dir(&out, &dir, D3lConfig::default())?;
    let (base_bytes, _, _) = store.disk_usage()?;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    out!(
        "indexed {} tables in {:.1} ms; snapshot {base_bytes} bytes written to {out} in {:.1} ms",
        indexed.tables,
        ms(indexed.build),
        ms(indexed.write)
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
    let (id, _) = engine.add_table(&table)?;
    let (_, _, segments) = engine.disk_stats()?;
    out!(
        "added {} as {id} in {:.1} ms ({segments} delta segments pending; they fold at {FOLD_SEGMENTS}, or run `d3l compact`)",
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
    let mut args = Args::new(args);
    while let Some(a) = args.next() {
        match a {
            "-k" => k = args.value(a)?.parse()?,
            "--joins" => {
                args.flag(a)?;
                joins = true;
            }
            "--evidence" => {
                let e = args.value(a)?;
                evidence =
                    Some(Evidence::from_letter(e).ok_or_else(|| format!("unknown evidence {e}"))?);
            }
            "--index" => index_dir = Some(args.value(a)?.to_string()),
            other if dir.is_none() && index_dir.is_none() => dir = Some(other.to_string()),
            other if target_path.is_none() => target_path = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other}").into()),
        }
    }
    let target_path = target_path.ok_or("missing target csv")?;
    let d3l = load_engine(dir.as_deref(), index_dir.as_deref())?;

    let text = std::fs::read_to_string(&target_path)?;
    let target = csv::parse_csv("target", &text)?;

    let opts = d3l::core::query::QueryOptions {
        evidence,
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

fn cmd_serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut index_dir = None;
    let mut port: u16 = 4333;
    let mut host = "127.0.0.1".to_string();
    let mut threads: usize = 0;
    let mut cache_bytes: u64 = d3l::core::cache::DEFAULT_CACHE_BYTES;
    let mut max_queue: usize = d3l::server::ServerConfig::default().max_queue;
    let mut slow_query_ms: u64 = d3l::server::ServerConfig::default().slow_query_ms;
    let mut watch_dir: Option<String> = None;
    let mut args = Args::new(args);
    while let Some(a) = args.next() {
        match a {
            "--index" => index_dir = Some(args.value(a)?.to_string()),
            "--watch" => watch_dir = Some(args.value(a)?.to_string()),
            "--port" => port = args.value(a)?.parse()?,
            "--host" => host = args.value(a)?.to_string(),
            "--threads" => threads = args.value(a)?.parse()?,
            "--cache-bytes" => cache_bytes = parse_byte_size(args.value(a)?)?,
            "--max-queue" => max_queue = args.value(a)?.parse()?,
            "--slow-query-ms" => slow_query_ms = args.value(a)?.parse()?,
            other => return Err(format!("unexpected argument {other}").into()),
        }
    }
    let index_dir = index_dir.ok_or("missing --index <index-dir>")?;

    let start = Instant::now();
    let engine = std::sync::Arc::new(d3l::core::EngineHandle::open(&index_dir)?);
    eprintln!(
        "cold start: loaded {} tables from {index_dir} in {:.1} ms",
        engine.snapshot().engine.live_table_count(),
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
        let w = Watcher::start(engine.clone(), dir)?;
        server.attach_watch(w.stats());
        out!(
            "watching {dir} (poll {} ms)",
            d3l::core::watch::POLL_INTERVAL.as_millis()
        );
        watcher = Some(w);
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
    let mut args = Args::new(args);
    while let Some(a) = args.next() {
        match a {
            "--index" => index_dir = Some(args.value(a)?.to_string()),
            other if dir.is_none() && index_dir.is_none() => dir = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other}").into()),
        }
    }

    // On-disk accounting: the real store files when serving from an
    // index directory, otherwise the snapshot the lake would produce.
    let mut sections = Vec::new();
    let (d3l, disk) = match (&dir, &index_dir) {
        (None, Some(index)) => {
            let (store, engine) = IndexStore::open(index)?;
            sections = store.base_sections()?;
            (engine, store.disk_usage()?)
        }
        (Some(dir), None) => {
            let lake = DataLake::load_dir(as_lake(dir)?)?;
            let stats = benchgen::RepoStats::compute(&lake);
            out!("tables:         {}", stats.tables);
            out!("attributes:     {}", stats.attributes);
            out!("mean arity:     {:.1}", stats.mean_arity());
            out!("mean rows:      {:.1}", stats.mean_cardinality());
            out!("numeric ratio:  {:.1}%", stats.numeric_ratio * 100.0);
            out!("raw bytes:      {}", stats.bytes);
            let engine = D3l::index_lake(&lake, D3lConfig::default());
            out!(
                "index bytes:    {} ({:.0}% overhead, in-memory)",
                engine.index_byte_size(),
                100.0 * engine.index_byte_size() as f64 / stats.bytes.max(1) as f64
            );
            let snapshot = engine.to_snapshot_bytes().len() as u64;
            (engine, (snapshot, 0, 0))
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
    out!("classes (distinct signatures):");
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
            cmd_query(&args(&["a", "b", "--threads", "2"])).is_err(),
            "query takes no --threads"
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
    fn serve_watch_flags_are_validated() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(
            cmd_serve(&args(&["--index", "idx", "--watch"])).is_err(),
            "--watch needs a value"
        );
        // The watcher has no knobs: its former flags are arguments like
        // any other `serve` does not know, with or without `--watch`.
        for (knob, unit) in [
            ("poll", "ms"),
            ("compact", "segments"),
            ("compact", "bytes"),
        ] {
            let flag = format!("--{knob}-{unit}");
            for watch in [&[][..], &["--watch", "lake"][..]] {
                let list = [&["--index", "idx"][..], watch, &[&flag, "5"]].concat();
                let err = cmd_serve(&args(&list)).unwrap_err();
                assert_eq!(err.to_string(), format!("unexpected argument {flag}"));
            }
        }
    }

    #[test]
    fn watch_rejects_bad_arguments() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let watching = |extra: &[&str]| {
            let list = [&["--index", "idx", "--watch", "lake"][..], extra].concat();
            cmd_serve(&args(&list))
        };
        for gone in ["--batch-ms", "--batch-max"] {
            let err = watching(&[gone, "5"]).unwrap_err();
            assert_eq!(err.to_string(), format!("unexpected argument {gone}"));
        }
        assert!(
            cmd_serve(&args(&[
                "--index",
                "/nonexistent/index",
                "--watch",
                "/nonexistent/lake"
            ]))
            .is_err(),
            "missing store must fail before watching"
        );
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
