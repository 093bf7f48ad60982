//! Continuous ingestion: the poll-based watcher's state machine,
//! driven deterministically through [`Ingestor::poll`] (one call =
//! one scan + every settled change applied), plus one threaded
//! end-to-end pass through [`Watcher`].
//!
//! The load-bearing property is the **stability window**: a file
//! whose `(len, mtime)` fingerprint changed between two consecutive
//! polls keeps settling, never applied, so a half-copied CSV can
//! never enter a delta segment.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use d3l::core::watch::{Ingestor, WatchStats, Watcher};
use d3l::core::{IndexStore, FOLD_SEGMENTS};
use d3l::prelude::*;

struct Fixture {
    lake_dir: PathBuf,
    engine: Arc<EngineHandle>,
}

impl Fixture {
    /// An empty lake directory and an empty persisted engine.
    fn new(tag: &str) -> Fixture {
        let root = std::env::temp_dir().join(format!("d3l_watch_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let lake_dir = root.join("lake");
        let index_dir = root.join("index");
        std::fs::create_dir_all(&lake_dir).unwrap();
        let d3l = D3l::index_lake(&DataLake::new(), D3lConfig::fast());
        let store = IndexStore::create(&index_dir, &d3l).unwrap();
        Fixture {
            lake_dir,
            engine: Arc::new(EngineHandle::new(store, d3l)),
        }
    }

    fn ingestor(&self) -> Ingestor {
        Ingestor::new(
            self.engine.clone(),
            &self.lake_dir,
            Arc::new(WatchStats::new()),
        )
        .unwrap()
    }

    fn write(&self, file: &str, content: &str) {
        std::fs::write(self.lake_dir.join(file), content).unwrap();
    }

    fn has_table(&self, name: &str) -> bool {
        self.engine.snapshot().engine.table_id(name).is_some()
    }

    fn segments(&self) -> usize {
        self.engine.disk_stats().unwrap().2
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(root) = self.lake_dir.parent() {
            std::fs::remove_dir_all(root).ok();
        }
    }
}

#[test]
fn new_files_ingest_only_after_the_stability_window() {
    let fx = Fixture::new("stable");
    fx.write("alpha.csv", "City\nSalford\n");
    fx.write("notes.txt", "not a csv");
    let mut ing = fx.ingestor();

    // The baseline scan already saw alpha, so the first poll confirms
    // its fingerprint held for one interval and ingests it. The .txt
    // file is invisible throughout.
    assert_eq!(ing.poll().unwrap(), 1);
    assert!(fx.has_table("alpha"));
    assert!(!fx.has_table("notes"));
    assert_eq!(ing.stats().files_tracked(), 1);

    // A file appearing mid-run needs one settling poll first.
    fx.write("beta.csv", "City\nBolton\n");
    assert_eq!(ing.poll().unwrap(), 0, "first sighting must only settle");
    assert!(!fx.has_table("beta"));
    assert_eq!(ing.poll().unwrap(), 1, "stable across a poll: ingested");
    assert!(fx.has_table("beta"));

    let stats = ing.stats();
    assert_eq!(stats.added(), 2);
    assert_eq!(stats.replaced(), 0);
    assert_eq!(stats.batches(), 2);
    assert!(stats.ingest_lag().count() >= 2);
}

#[test]
fn half_copied_csv_never_enters_a_delta_segment() {
    let fx = Fixture::new("slowwriter");
    let mut ing = fx.ingestor();
    assert_eq!(fx.segments(), 0);

    // A slow writer streams the file in over several polls; every
    // observation differs from the last, so the watcher must keep
    // re-settling and never apply the torn prefix.
    let chunks = ["City,Patients\n", "Salf", "ord,120\nBol", "ton,80\n"];
    let mut so_far = String::new();
    for chunk in chunks {
        so_far.push_str(chunk);
        fx.write("slow.csv", &so_far);
        assert_eq!(ing.poll().unwrap(), 0, "changing file must not ingest");
        assert!(!fx.has_table("slow"));
        assert_eq!(
            fx.segments(),
            0,
            "no delta segment may exist while the file is in flight"
        );
    }

    // Writer done: one quiet poll settles it, the next one ingests.
    assert_eq!(ing.poll().unwrap(), 1);
    assert!(fx.has_table("slow"));
    assert_eq!(ing.stats().added(), 1);
    assert_eq!(
        fx.segments(),
        1,
        "exactly one segment — the complete file, nothing partial"
    );
}

#[test]
fn changed_files_replace_and_deleted_files_remove() {
    let fx = Fixture::new("churn");
    fx.write("gp.csv", "City\nSalford\n");
    fx.write("doomed.csv", "City\nYork\n");
    let mut ing = fx.ingestor();
    assert_eq!(ing.poll().unwrap(), 2);
    assert!(fx.has_table("gp") && fx.has_table("doomed"));
    let v_ingested = fx.engine.snapshot().version;

    // Overwrite: one settling poll, then remove + add under the same
    // name.
    fx.write("gp.csv", "City,Patients\nSalford,120\n");
    assert_eq!(ing.poll().unwrap(), 0);
    assert_eq!(ing.poll().unwrap(), 1);
    assert!(fx.has_table("gp"));
    assert_eq!(ing.stats().replaced(), 1);

    // Delete: a missing file has nothing to settle, so the tombstone
    // lands the poll that misses it.
    std::fs::remove_file(fx.lake_dir.join("doomed.csv")).unwrap();
    assert_eq!(ing.poll().unwrap(), 1);
    assert!(!fx.has_table("doomed"));
    assert!(fx.has_table("gp"));
    assert_eq!(ing.stats().removed(), 1);
    assert!(
        fx.engine.snapshot().version > v_ingested,
        "mutations must bump the snapshot version for cache purging"
    );
}

/// Overwrite `file` with `content` and put `mtime` back on it — what a
/// rewrite inside one tick of a coarse filesystem clock leaves behind.
fn rewrite_keeping_mtime(fx: &Fixture, file: &str, content: &str, mtime: std::time::SystemTime) {
    let path = fx.lake_dir.join(file);
    let len = std::fs::metadata(&path).unwrap().len();
    fx.write(file, content);
    let f = std::fs::File::options().write(true).open(&path).unwrap();
    f.set_modified(mtime).unwrap();
    let md = std::fs::metadata(&path).unwrap();
    assert_eq!((md.len(), md.modified().unwrap()), (len, mtime));
}

#[test]
fn same_length_rewrite_inside_one_mtime_tick_is_replaced() {
    let fx = Fixture::new("racy");
    fx.write("a.csv", "City\nSalford\n");
    let mut ing = fx.ingestor();
    assert_eq!(ing.poll().unwrap(), 1);
    let mtime = std::fs::metadata(fx.lake_dir.join("a.csv"))
        .unwrap()
        .modified()
        .unwrap();

    // `(len, mtime)` is what it was; only the bytes tell. The file was
    // modified inside the racy window, so the scanner reads them.
    rewrite_keeping_mtime(&fx, "a.csv", "City\nBurnley\n", mtime);
    assert_eq!(ing.poll().unwrap(), 0, "a changed file settles first");
    assert_eq!(ing.poll().unwrap(), 1);
    assert_eq!(ing.stats().replaced(), 1);
    assert_eq!(ing.stats().errors(), 0);
}

#[test]
fn a_file_older_than_the_racy_window_costs_a_stat_not_a_read() {
    let fx = Fixture::new("aged");
    fx.write("old.csv", "City\nSalford\n");
    let hour_ago = std::time::SystemTime::now() - Duration::from_secs(3600);
    rewrite_keeping_mtime(&fx, "old.csv", "City\nSalford\n", hour_ago);
    let mut ing = fx.ingestor();
    assert_eq!(ing.poll().unwrap(), 1);

    // Only a read could tell these bytes from the ingested ones, and
    // an aged file is trusted on `(len, mtime)`: no poll reads it, so
    // none sees a change.
    rewrite_keeping_mtime(&fx, "old.csv", "City\nBurnley\n", hour_ago);
    for _ in 0..3 {
        assert_eq!(ing.poll().unwrap(), 0);
    }
    assert_eq!(ing.stats().replaced(), 0);
    assert_eq!(ing.stats().queued(), 0);
}

#[test]
fn stable_changes_all_apply_in_name_order_the_poll_they_settle() {
    let fx = Fixture::new("settle");
    let mut ing = fx.ingestor();
    let names = ["a", "b", "c", "d", "e"];
    for name in names.iter().rev() {
        fx.write(&format!("{name}.csv"), "City\nSalford\n");
    }

    assert_eq!(ing.poll().unwrap(), 0, "first sighting must only settle");
    assert_eq!(fx.segments(), 0);

    // All five held their fingerprint: all five are queryable after
    // this poll — nothing waits for a later one — each as its own
    // segment, ids handed out lowest name first.
    assert_eq!(ing.poll().unwrap(), 5);
    let engine = &fx.engine.snapshot().engine;
    for (i, name) in names.iter().enumerate() {
        assert_eq!(engine.table_id(name), Some(TableId(i as u32)), "{name}");
    }
    assert_eq!(fx.segments(), 5);
    assert_eq!(ing.stats().added(), 5);
    assert_eq!(ing.stats().batches(), 1, "one poll applied changes");
    assert_eq!(ing.stats().queued(), 0);
    assert_eq!(ing.poll().unwrap(), 0);
}

#[test]
fn unparsable_csv_is_skipped_until_it_changes() {
    let fx = Fixture::new("badcsv");
    fx.write("bad.csv", "a,b\n\"unterminated");
    let mut ing = fx.ingestor();

    assert_eq!(ing.poll().unwrap(), 0, "parse failure applies nothing");
    assert!(!fx.has_table("bad"));
    assert_eq!(ing.stats().skipped(), 1);

    // No retry storm: the broken file is not re-parsed every poll.
    for _ in 0..3 {
        assert_eq!(ing.poll().unwrap(), 0);
    }
    assert_eq!(ing.stats().skipped(), 1);

    // Fixing the file is a change like any other.
    fx.write("bad.csv", "a,b\n1,2\n");
    assert_eq!(ing.poll().unwrap(), 0);
    assert_eq!(ing.poll().unwrap(), 1);
    assert!(fx.has_table("bad"));
}

/// The watcher folds nothing itself: its writes go through the
/// handle, which folds the pending segments when a write finds
/// [`FOLD_SEGMENTS`] of them — the 65th table of one poll lands as the
/// one segment left beside a base holding the other 64.
#[test]
fn watcher_writes_fold_at_the_handles_segment_count() {
    let fx = Fixture::new("fold");
    let tables = FOLD_SEGMENTS as usize + 1;
    for i in 0..tables {
        fx.write(&format!("t{i:03}.csv"), &format!("City\nSalford {i}\n"));
    }
    let mut ing = fx.ingestor();
    assert_eq!(ing.poll().unwrap(), tables);
    assert_eq!(fx.segments(), 1, "64 folded, the 65th appended");
    assert_eq!(fx.engine.snapshot().version, tables as u64);
    assert_eq!(fx.engine.telemetry().compact.count(), 1);

    // A delete is a write like any other: it appends beside the base.
    std::fs::remove_file(fx.lake_dir.join("t000.csv")).unwrap();
    assert_eq!(ing.poll().unwrap(), 1);
    assert_eq!(fx.segments(), 2);
    let (_, reopened) = IndexStore::open(fx.lake_dir.with_file_name("index")).unwrap();
    assert_eq!(
        reopened.to_snapshot_bytes(),
        fx.engine.snapshot().engine.to_snapshot_bytes(),
        "base plus the two segments replay to the live engine"
    );
    assert!(!fx.has_table("t000") && fx.has_table("t064"));
}

#[test]
fn files_already_indexed_at_startup_are_not_reingested() {
    let fx = Fixture::new("restart");
    fx.write("alpha.csv", "City\nSalford\n");
    let mut ing = fx.ingestor();
    assert_eq!(ing.poll().unwrap(), 1);
    drop(ing);

    // A fresh ingestor over the same engine treats the already-
    // indexed file as current instead of rewriting the lake on boot.
    let mut ing = fx.ingestor();
    for _ in 0..3 {
        assert_eq!(ing.poll().unwrap(), 0);
    }
    assert_eq!(ing.stats().added(), 0);
    assert_eq!(fx.segments(), 1, "no new segments after the restart");

    // But its changes are still tracked from here on.
    fx.write("alpha.csv", "City\nBolton\n");
    assert_eq!(ing.poll().unwrap(), 0);
    assert_eq!(ing.poll().unwrap(), 1);
    assert_eq!(ing.stats().replaced(), 1);
}

/// Live threads of this process named by [`Watcher`] (`d3l-watch…`).
/// Only the threaded test below starts any.
#[cfg(target_os = "linux")]
fn watcher_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("d3l-watch"))
        .count()
}

#[test]
fn threaded_watcher_ingests_and_shuts_down_cleanly() {
    let fx = Fixture::new("threaded");
    fx.write("first.csv", "City\nSalford\n");
    let watcher = Watcher::start(fx.engine.clone(), &fx.lake_dir).unwrap();
    let stats = watcher.stats();

    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !fx.has_table("first") {
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never ingested first.csv"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    fx.write("second.csv", "City\nBolton\n");
    while !fx.has_table("second") {
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never ingested second.csv"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    assert_eq!(fx.segments(), 2, "one segment a table");
    #[cfg(target_os = "linux")]
    assert_eq!(watcher_threads(), 1, "one watcher thread");

    watcher.shutdown();
    assert!(stats.polls() > 0);
    assert_eq!(stats.added(), 2);
    assert_eq!(stats.errors(), 0);
    let lag = stats.ingest_lag();
    assert_eq!(lag.count(), 2);
    assert!(lag.max_ns() > 0, "ingestion lag must be measured, not zero");
}

/// A file is the table `d3l index` names it, printable or not:
/// `caf\xe9.csv` is indexed as `"caf\u{FFFD}"`, and the watcher tracks
/// it under that name, so deleting it removes the table. Of two files
/// that are one name, the first in path order is the table and the
/// second is skipped, counted once.
#[cfg(unix)]
#[test]
fn a_file_with_a_lossy_name_is_tracked_under_its_indexed_name() {
    use std::ffi::OsStr;
    use std::os::unix::ffi::OsStrExt;

    let fx = Fixture::new("lossy");
    let cafe = |last: u8| {
        fx.lake_dir.join(OsStr::from_bytes(&[
            b'c', b'a', b'f', last, b'.', b'c', b's', b'v',
        ]))
    };
    std::fs::write(cafe(0xe9), "City\nSalford\n").unwrap();
    fx.write("plain.csv", "City\nBolton\n");
    let built = D3l::index_dir(&fx.lake_dir, D3lConfig::fast()).unwrap();
    let name = "caf\u{FFFD}";
    assert!(built.table_id(name).is_some());
    let engine =
        Arc::new(EngineHandle::create(fx.lake_dir.with_file_name("index"), built).unwrap());
    let stats = Arc::new(WatchStats::new());
    let mut ing = Ingestor::new(engine.clone(), &fx.lake_dir, stats.clone()).unwrap();
    assert_eq!(stats.files_tracked(), 2);
    assert_eq!(ing.poll().unwrap(), 0, "both files are the index's tables");

    std::fs::remove_file(cafe(0xe9)).unwrap();
    assert_eq!(ing.poll().unwrap(), 1);
    assert_eq!(engine.snapshot().engine.table_id(name), None);
    assert_eq!(stats.removed(), 1);

    std::fs::write(cafe(0xe9), "Town\nSalford\n").unwrap();
    std::fs::write(cafe(0xef), "Ward\nSalford\n").unwrap();
    assert_eq!(ing.poll().unwrap(), 0, "first sighting must only settle");
    assert_eq!(stats.skipped(), 1, "the second file of one name");
    assert_eq!(ing.poll().unwrap(), 1);
    assert_eq!(ing.poll().unwrap(), 0);
    assert_eq!(stats.skipped(), 1, "a taken name is counted once");
    let snap = engine.snapshot();
    let id = snap.engine.table_id(name).expect("re-added");
    let column = snap.engine.profile(AttrRef {
        table: id,
        column: 0,
    });
    assert_eq!(column.name, "Town", "the first file in path order");
}
