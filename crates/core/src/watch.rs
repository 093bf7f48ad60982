//! Continuous ingestion: one poll loop that keeps an index directory
//! in step with a directory of CSVs.
//!
//! The paper's data-lake setting is not static — datasets arrive,
//! change and disappear while discovery queries keep running. The
//! whole module is one rule: **scan; apply, in file-name order, every
//! change whose fingerprint held across two polls; compact if a
//! threshold is crossed.**
//!
//! * The **scan** polls the directory over plain `std::fs` (no
//!   notification APIs, no dependencies), fingerprinting each file by
//!   `(len, mtime)` — and by a checksum of its bytes while its mtime
//!   is too recent for those two to be trusted (within `RACY_WINDOW`,
//!   2 s, of the previous scan).
//! * A change is acted on only after the **stability window** — the
//!   fingerprint must hold across two consecutive polls, so
//!   [`WatchConfig::poll_interval`] is the debounce — and a file still
//!   being copied in keeps settling rather than being half-ingested.
//! * Every change that settled is **applied the poll that finds it
//!   settled**, through [`EngineHandle`] (new file → add, changed file
//!   → remove + add, deleted file → remove), in name order. Each
//!   change is its own delta segment, persisted before its own swap;
//!   a change a store error interrupted is retried by the next poll.
//! * After each poll the same thread folds the accumulated delta
//!   segments into a fresh base snapshot once their count or byte
//!   total crosses a threshold ([`compact_if_due`]) — queries keep
//!   running on immutable snapshots throughout, and serving replicas
//!   follow with [`EngineHandle::reload_latest`].
//!
//! The watcher is the store's **single writer**: exactly one watcher
//! (or CLI mutator) per index directory. Replicas open the same
//! directory read-only and poll `reload_latest`.
//!
//! [`Ingestor`] is the synchronous core (one `poll()` = one scan +
//! every settled change applied) so tests can drive every
//! interleaving without threads; [`Watcher`] runs it on one background
//! thread and publishes [`WatchStats`] for `/stats` and `/metrics`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use d3l_table::csv;
use d3l_telemetry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};

use crate::hotswap::{EngineHandle, MaintenanceError};

/// Tuning knobs of the continuous-ingestion loop.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Directory scan cadence; also the width of the stability
    /// window (a change must survive one full interval unchanged).
    pub poll_interval: Duration,
    /// Auto-compact once this many delta segments accumulate.
    pub compact_segments: usize,
    /// Auto-compact once the delta segments total this many bytes.
    pub compact_bytes: u64,
    /// Log each applying poll, skip and compaction to stderr (the CLI
    /// foreground mode; servers keep it off and expose stats
    /// instead).
    pub verbose: bool,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            poll_interval: Duration::from_millis(200),
            compact_segments: 64,
            compact_bytes: 64 << 20,
            verbose: false,
        }
    }
}

/// Watcher state shared with serving layers: lock-free counters,
/// gauges and the ingestion-lag histogram, all registered in one
/// [`Registry`] so `/metrics` renders them and `/stats` reads them.
#[derive(Debug)]
pub struct WatchStats {
    registry: Registry,
    files_tracked: Arc<Gauge>,
    queued: Arc<Gauge>,
    polls: Arc<Counter>,
    batches: Arc<Counter>,
    added: Arc<Counter>,
    replaced: Arc<Counter>,
    removed: Arc<Counter>,
    skipped: Arc<Counter>,
    errors: Arc<Counter>,
    compactions: Arc<Counter>,
    ingest_lag: Arc<Histogram>,
}

impl Default for WatchStats {
    fn default() -> Self {
        Self::new()
    }
}

impl WatchStats {
    /// A fresh stats block with every series pre-registered.
    pub fn new() -> Self {
        let registry = Registry::new();
        const APPLIED: &str = "d3l_watch_applied_total";
        const APPLIED_HELP: &str = "Tables applied to the engine by the watcher, by operation.";
        WatchStats {
            files_tracked: registry.gauge(
                "d3l_watch_files_tracked",
                "CSV files currently tracked in the watched directory.",
                &[],
            ),
            queued: registry.gauge(
                "d3l_watch_queued_changes",
                "Settled changes not yet applied: in flight during a poll, held for retry after a store error.",
                &[],
            ),
            polls: registry.counter(
                "d3l_watch_polls_total",
                "Directory scans performed by the watcher.",
                &[],
            ),
            batches: registry.counter(
                "d3l_watch_batches_total",
                "Polls that applied at least one change to the engine.",
                &[],
            ),
            added: registry.counter(APPLIED, APPLIED_HELP, &[("op", "add")]),
            replaced: registry.counter(APPLIED, APPLIED_HELP, &[("op", "replace")]),
            removed: registry.counter(APPLIED, APPLIED_HELP, &[("op", "remove")]),
            skipped: registry.counter(
                "d3l_watch_skipped_files_total",
                "Files skipped because they failed to read or parse.",
                &[],
            ),
            errors: registry.counter(
                "d3l_watch_errors_total",
                "Watcher loop errors (scan or store failures).",
                &[],
            ),
            compactions: registry.counter(
                "d3l_watch_compactions_total",
                "Compactions the watcher ran after a poll crossed a threshold.",
                &[],
            ),
            ingest_lag: registry.histogram(
                "d3l_watch_ingest_lag_seconds",
                "Per-change ingestion lag: change first observed to applied in the engine.",
                &[],
            ),
            registry,
        }
    }

    /// The registry holding every watcher series, for `/metrics`.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// CSV files currently tracked.
    pub fn files_tracked(&self) -> u64 {
        self.files_tracked.get()
    }

    /// Settled changes not yet applied: the ones the running poll is
    /// working through, and between polls the ones a store error
    /// sent back for a retry.
    pub fn queued(&self) -> u64 {
        self.queued.get()
    }

    /// Directory scans performed.
    pub fn polls(&self) -> u64 {
        self.polls.get()
    }

    /// Polls that applied at least one change.
    pub fn batches(&self) -> u64 {
        self.batches.get()
    }

    /// Tables added (new files).
    pub fn added(&self) -> u64 {
        self.added.get()
    }

    /// Tables replaced (changed files).
    pub fn replaced(&self) -> u64 {
        self.replaced.get()
    }

    /// Tables removed (deleted files).
    pub fn removed(&self) -> u64 {
        self.removed.get()
    }

    /// Files skipped for read/parse failures.
    pub fn skipped(&self) -> u64 {
        self.skipped.get()
    }

    /// Watcher loop errors.
    pub fn errors(&self) -> u64 {
        self.errors.get()
    }

    /// Compactions performed.
    pub fn compactions(&self) -> u64 {
        self.compactions.get()
    }

    /// Snapshot of the ingestion-lag distribution.
    pub fn ingest_lag(&self) -> HistogramSnapshot {
        self.ingest_lag.snapshot()
    }
}

/// The coarsest timestamp step a filesystem is assumed to have (FAT's
/// two seconds). A file modified within this much of the previous
/// scan may be rewritten again without its mtime moving, so `(len,
/// mtime)` alone cannot vouch for its content — git's "racily clean"
/// rule.
const RACY_WINDOW: Duration = Duration::from_secs(2);

/// Identity of a file's content as far as a poll-based scanner can
/// see it: `(len, mtime)`, plus the checksum of the bytes while the
/// mtime lies inside [`RACY_WINDOW`] — an aged file costs one `stat`,
/// a fresh one a read. [`Fingerprint::same_content`] across two polls
/// is the stability criterion; any change restarts the window.
#[derive(Debug, Clone, Copy)]
struct Fingerprint {
    len: u64,
    mtime_ns: u128,
    checksum: Option<u64>,
}

impl Fingerprint {
    /// Whether two observations of one path saw the same content.
    /// Checksums decide only when both observations took one: a file
    /// ages out of the racy window without having changed.
    fn same_content(&self, other: &Fingerprint) -> bool {
        (self.len, self.mtime_ns) == (other.len, other.mtime_ns)
            && match (self.checksum, other.checksum) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

/// Fingerprint `path`, reading it only if it was modified no earlier
/// than `racy_since`. A fresh file that cannot be read (deleted or
/// locked under the scanner) is fingerprinted by its metadata alone.
fn fingerprint(path: &Path, md: &std::fs::Metadata, racy_since: SystemTime) -> Fingerprint {
    let modified = md.modified().ok();
    let checksum = match modified {
        Some(t) if t < racy_since => None,
        _ => std::fs::read(path).ok().map(|b| d3l_store::checksum(&b)),
    };
    Fingerprint {
        len: md.len(),
        mtime_ns: modified
            .and_then(|t| t.duration_since(SystemTime::UNIX_EPOCH).ok())
            .map(|d| d.as_nanos())
            .unwrap_or(0),
        checksum,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileState {
    /// Fingerprint observed, not yet confirmed stable: it must hold
    /// across one full poll interval before the file may be applied.
    /// A half-copied CSV keeps changing its fingerprint and therefore
    /// keeps settling — it can never enter a delta segment.
    Settling,
    /// Applied to the engine at this fingerprint (or intentionally
    /// skipped after a parse failure — retried only when the file
    /// changes again).
    Ingested,
}

#[derive(Debug)]
struct TrackedFile {
    path: PathBuf,
    fp: Fingerprint,
    state: FileState,
    /// When the current change episode was first observed (start of
    /// the ingestion-lag clock).
    detected: Instant,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueuedOp {
    /// Add the table, or replace it when the engine already has one
    /// under this name.
    Upsert,
    /// Tombstone the table of a deleted file.
    Remove,
}

#[derive(Debug)]
struct QueuedChange {
    op: QueuedOp,
    /// Lag clock start (first observation of the change).
    detected: Instant,
}

/// The synchronous ingestion core: one [`Ingestor::poll`] scans the
/// directory and applies every change that has settled. The
/// [`Watcher`] calls this on a timer; tests call it directly to drive
/// exact interleavings.
pub struct Ingestor {
    engine: Arc<EngineHandle>,
    dir: PathBuf,
    cfg: WatchConfig,
    stats: Arc<WatchStats>,
    files: BTreeMap<String, TrackedFile>,
    /// The changes this poll found settled, by name; empty between
    /// polls unless a store error sent some back for the next one.
    queue: BTreeMap<String, QueuedChange>,
    /// Wall-clock start of the previous directory scan: what a file's
    /// mtime is held against to decide whether it is still racy.
    last_scan: SystemTime,
}

impl Ingestor {
    /// Track `dir`, taking the current contents as the baseline:
    /// files whose table name (the file stem) is already indexed are
    /// assumed current — fingerprints exist only while the watcher
    /// runs, so across a restart a byte-stable file is
    /// indistinguishable from a changed one and re-ingesting
    /// everything would rewrite the whole lake on every boot. Files
    /// present but not indexed settle and ingest normally; everything
    /// that changes from here on is picked up.
    pub fn new(
        engine: Arc<EngineHandle>,
        dir: impl AsRef<Path>,
        cfg: WatchConfig,
        stats: Arc<WatchStats>,
    ) -> std::io::Result<Ingestor> {
        let dir = dir.as_ref().to_path_buf();
        let indexed: BTreeSet<String> = engine
            .snapshot()
            .engine
            .name_to_id()
            .keys()
            .map(|s| s.to_string())
            .collect();
        let last_scan = SystemTime::now();
        let mut files = BTreeMap::new();
        for (name, path, fp) in Self::list_csvs(&dir, last_scan)? {
            let state = if indexed.contains(&name) {
                FileState::Ingested
            } else {
                FileState::Settling
            };
            files.insert(
                name,
                TrackedFile {
                    path,
                    fp,
                    state,
                    detected: Instant::now(),
                },
            );
        }
        let ingestor = Ingestor {
            engine,
            dir,
            cfg,
            stats,
            files,
            queue: BTreeMap::new(),
            last_scan,
        };
        ingestor
            .stats
            .files_tracked
            .set(ingestor.files.len() as u64);
        Ok(ingestor)
    }

    /// The stats block this ingestor records into.
    pub fn stats(&self) -> &Arc<WatchStats> {
        &self.stats
    }

    /// Every `*.csv` regular file in `dir` as
    /// `(table name, path, fingerprint)`, `prev_scan` being when the
    /// scan before this one began.
    fn list_csvs(
        dir: &Path,
        prev_scan: SystemTime,
    ) -> std::io::Result<Vec<(String, PathBuf, Fingerprint)>> {
        let racy_since = prev_scan
            .checked_sub(RACY_WINDOW)
            .unwrap_or(SystemTime::UNIX_EPOCH);
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "csv") {
                continue;
            }
            let Some(name) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            let Ok(md) = entry.metadata() else {
                // Raced with a delete between readdir and stat: the
                // next poll sees the settled truth.
                continue;
            };
            if !md.is_file() {
                continue;
            }
            let fp = fingerprint(&path, &md, racy_since);
            out.push((name.to_string(), path, fp));
        }
        Ok(out)
    }

    /// One watcher tick: scan the directory, then apply every change
    /// whose fingerprint held since the previous scan, in name order
    /// (deterministic — an interrupted watcher replayed from the
    /// surviving files reproduces the same engine). Returns the number
    /// of operations applied to the engine. On a store-level error the
    /// failing change stays queued with everything after it, so
    /// nothing is lost across a transient failure: the next poll
    /// retries them.
    pub fn poll(&mut self) -> Result<usize, MaintenanceError> {
        self.scan().map_err(d3l_store::StoreError::from)?;
        let mut applied = 0usize;
        let mut failed = None;
        while let Some((name, change)) = self.queue.pop_first() {
            match self.apply(&name, &change) {
                Ok(mutated) => applied += usize::from(mutated),
                Err(e) => {
                    self.queue.insert(name, change);
                    failed = Some(e);
                    break;
                }
            }
        }
        if applied > 0 {
            self.stats.batches.inc();
            if self.cfg.verbose {
                eprintln!(
                    "[watch] applied {applied} change{}",
                    if applied == 1 { "" } else { "s" }
                );
            }
        }
        self.stats.queued.set(self.queue.len() as u64);
        failed.map_or(Ok(applied), Err)
    }

    fn scan(&mut self) -> std::io::Result<()> {
        self.stats.polls.inc();
        let now = Instant::now();
        let prev_scan = std::mem::replace(&mut self.last_scan, SystemTime::now());
        let mut seen = BTreeSet::new();
        for (name, path, fp) in Self::list_csvs(&self.dir, prev_scan)? {
            seen.insert(name.clone());
            match self.files.get_mut(&name) {
                None => {
                    // New file: start settling. The lag clock starts
                    // now — it ends when the table is queryable.
                    self.files.insert(
                        name,
                        TrackedFile {
                            path,
                            fp,
                            state: FileState::Settling,
                            detected: now,
                        },
                    );
                }
                Some(t) if !t.fp.same_content(&fp) => {
                    // Changed since the last poll. If it was mid-
                    // settle this is the same change episode still in
                    // flight (keep the lag clock); if it was ingested
                    // a new episode starts. Either way the stability
                    // window restarts and an upsert waiting for its
                    // retry is withdrawn — a file observed changing
                    // must never be applied.
                    if t.state != FileState::Settling {
                        t.detected = now;
                    }
                    t.fp = fp;
                    t.path = path;
                    t.state = FileState::Settling;
                    self.queue.remove(&name);
                }
                Some(t) if t.state == FileState::Settling => {
                    // Unchanged across a full poll interval: stable.
                    // It stays `Settling` until applied, so an upsert
                    // a store error interrupts is queued again by
                    // the next scan.
                    self.queue.insert(
                        name,
                        QueuedChange {
                            op: QueuedOp::Upsert,
                            detected: t.detected,
                        },
                    );
                }
                Some(_) => {}
            }
        }
        let gone: Vec<String> = self
            .files
            .keys()
            .filter(|k| !seen.contains(*k))
            .cloned()
            .collect();
        for name in gone {
            let t = self.files.remove(&name).expect("tracked");
            match t.state {
                // An ingested table whose file vanished gets a
                // tombstone: a missing file cannot be half-written,
                // so there is nothing to wait out.
                FileState::Ingested => {
                    self.queue.insert(
                        name,
                        QueuedChange {
                            op: QueuedOp::Remove,
                            detected: now,
                        },
                    );
                }
                // Appeared and vanished before ever being ingested:
                // forget it (and withdraw any upsert awaiting retry).
                FileState::Settling => {
                    self.queue.remove(&name);
                }
            }
        }
        self.stats.files_tracked.set(self.files.len() as u64);
        self.stats.queued.set(self.queue.len() as u64);
        Ok(())
    }

    /// Apply one change; `Ok(true)` when the engine was mutated.
    fn apply(&mut self, name: &str, change: &QueuedChange) -> Result<bool, MaintenanceError> {
        match change.op {
            QueuedOp::Remove => match self.engine.remove_table(name) {
                Ok(_) => {
                    self.stats.removed.inc();
                    self.stats.ingest_lag.record(change.detected.elapsed());
                    Ok(true)
                }
                // Deleted before it was ever indexed (e.g. its only
                // content never parsed): nothing to remove.
                Err(MaintenanceError::UnknownTable(_)) => Ok(false),
                Err(e) => Err(e),
            },
            QueuedOp::Upsert => {
                let Some(tracked) = self.files.get_mut(name) else {
                    // Deleted after queueing; the scan already
                    // withdrew or replaced the entry.
                    return Ok(false);
                };
                let text = match std::fs::read_to_string(&tracked.path) {
                    Ok(text) => text,
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
                    Err(e) => {
                        // Unreadable (permissions, I/O): skip until
                        // the file changes again.
                        tracked.state = FileState::Ingested;
                        self.stats.skipped.inc();
                        if self.cfg.verbose {
                            eprintln!("[watch] skipping {name}: {e}");
                        }
                        return Ok(false);
                    }
                };
                let table = match csv::parse_csv(name.to_string(), &text) {
                    Ok(table) => table,
                    Err(e) => {
                        tracked.state = FileState::Ingested;
                        self.stats.skipped.inc();
                        if self.cfg.verbose {
                            eprintln!("[watch] skipping {name}: {e}");
                        }
                        return Ok(false);
                    }
                };
                let replace = self.engine.snapshot().engine.table_id(name).is_some();
                if replace {
                    // Changed file: tombstone the old rows, then add
                    // the new ones — two delta segments, exactly what
                    // a CLI remove + add would write. If the add
                    // below fails the re-queued upsert retries as a
                    // plain add (the name is gone from the engine).
                    self.engine.remove_table(name)?;
                }
                self.engine.add_table(&table)?;
                tracked.state = FileState::Ingested;
                if replace {
                    self.stats.replaced.inc();
                } else {
                    self.stats.added.inc();
                }
                self.stats.ingest_lag.record(change.detected.elapsed());
                Ok(true)
            }
        }
    }
}

/// Fold the delta segments into a fresh base snapshot if either
/// threshold in `cfg` is crossed. Returns whether a compaction ran.
/// The [`Watcher`] calls this after each poll; exposed so tests and
/// embedders can drive the same policy synchronously.
pub fn compact_if_due(engine: &EngineHandle, cfg: &WatchConfig) -> Result<bool, MaintenanceError> {
    let (_base, delta_bytes, segments) = engine.disk_stats()?;
    if segments == 0 {
        return Ok(false);
    }
    if segments >= cfg.compact_segments.max(1) || delta_bytes >= cfg.compact_bytes.max(1) {
        engine.compact()?;
        return Ok(true);
    }
    Ok(false)
}

/// The continuous-ingestion driver: one thread that polls an
/// [`Ingestor`] and then compacts past the configured thresholds.
/// Queries on the shared [`EngineHandle`] keep running on immutable
/// snapshots throughout.
pub struct Watcher {
    stats: Arc<WatchStats>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Watcher {
    /// Start watching `dir`, applying changes to `engine`. Fails only
    /// if the directory cannot be scanned at all; runtime errors are
    /// counted in [`WatchStats::errors`] and logged, and the loop
    /// keeps going.
    pub fn start(
        engine: Arc<EngineHandle>,
        dir: impl AsRef<Path>,
        cfg: WatchConfig,
    ) -> std::io::Result<Watcher> {
        let stats = Arc::new(WatchStats::new());
        let mut ingestor = Ingestor::new(engine.clone(), dir, cfg.clone(), stats.clone())?;
        let stop = Arc::new(AtomicBool::new(false));
        let (loop_stop, loop_stats) = (stop.clone(), stats.clone());
        let thread = std::thread::Builder::new()
            .name("d3l-watch".into())
            .spawn(move || {
                while !loop_stop.load(Ordering::Relaxed) {
                    if let Err(e) = ingestor.poll() {
                        loop_stats.errors.inc();
                        eprintln!("[watch] ingest error: {e}");
                    }
                    match compact_if_due(&engine, &cfg) {
                        Ok(true) => {
                            loop_stats.compactions.inc();
                            if cfg.verbose {
                                eprintln!("[watch] compacted delta segments");
                            }
                        }
                        Ok(false) => {}
                        Err(e) => {
                            loop_stats.errors.inc();
                            eprintln!("[watch] compaction error: {e}");
                        }
                    }
                    sleep_until_stopped(&loop_stop, cfg.poll_interval);
                }
            })
            .expect("spawn watcher thread");
        Ok(Watcher {
            stats,
            stop,
            thread,
        })
    }

    /// The live stats block (attach to a server for `/stats` and
    /// `/metrics`).
    pub fn stats(&self) -> Arc<WatchStats> {
        self.stats.clone()
    }

    /// Stop the thread. Blocks until the in-flight poll finishes.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.thread.join();
    }
}

/// Sleep `total`, waking early (≤50 ms granularity) if `stop` flips —
/// a shutdown must not wait out a long poll interval.
fn sleep_until_stopped(stop: &AtomicBool, total: Duration) {
    let deadline = Instant::now() + total;
    while !stop.load(Ordering::Relaxed) {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(Duration::from_millis(50)));
    }
}
