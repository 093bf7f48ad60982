//! Copy-on-write hot-swap around a persistent engine — the substrate
//! of the concurrent serving layer.
//!
//! A long-lived server must answer queries *while* the lake is
//! maintained (tables added, removed, segments compacted). Guarding
//! one engine with a plain lock would make every mutation a stall for
//! every in-flight query; instead, [`EngineHandle`] keeps the current
//! engine behind `RwLock<Arc<EngineSnapshot>>`:
//!
//! * **Readers** take the read lock just long enough to clone the
//!   `Arc` ([`EngineHandle::snapshot`]) and then query their snapshot
//!   with no lock held at all. A query that started before a mutation
//!   finishes on the exact engine state it started with — there is no
//!   torn state to observe, by construction.
//! * **Writers** serialize on the store mutex, deep-clone the engine,
//!   persist the mutation through the [`IndexStore`] (which writes the
//!   delta segment, then applies it to the clone) and only then swap
//!   the new snapshot in under a brief write lock. A 2xx on a mutation
//!   therefore implies read-your-writes: the swap happened before the
//!   response was written, so any later query observes it. The clone
//!   is the whole engine — attribute table, arenas, trees, postings —
//!   to change a handful of attributes; ROADMAP item 5 (an immutable
//!   base under a small mutable tail) is what makes a write cost its
//!   delta.
//!
//! Durability ordering is persist-then-swap: if the delta write
//! fails, the clone is discarded and the served engine still matches
//! the store on disk.
//!
//! Each swap bumps a monotonic version stamped into the snapshot
//! itself, so `(version, engine state)` pairs are atomically
//! consistent — the concurrency stress tests use this to prove the
//! absence of torn reads. A snapshot holds the stamp and the engine
//! and nothing derived from them: memory accounting
//! ([`D3l::byte_size`]) sums stored lengths, so `/stats` computes it
//! when it is read.
//!
//! On disk an index is one store directory: `<dir>/base.d3ls` plus
//! delta segments. Every write is one segment, and every write — an
//! HTTP add or remove, the watcher's, `d3l add` / `remove` — goes
//! through [`EngineHandle::add_table`] / [`EngineHandle::remove_table`],
//! so the rule that folds segments back into the base lives there and
//! nowhere else: a write that finds [`FOLD_SEGMENTS`] segments pending
//! folds them first (a log-structured merge with one level), then
//! appends its own. An open therefore replays at most that many.

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use d3l_store::StoreError;
use d3l_table::{Table, TableId};
use d3l_telemetry::{Histogram, Registry};

use crate::cache::QueryCache;
use crate::index::D3l;
use crate::snapshot::IndexStore;

/// Pending delta segments at which a write folds them into the base
/// before appending its own. An open's replay costs per segment; on a
/// 2 000-table lake a fold of 64 took ≈ 20 ms, ≈ 0.35 ms a write.
pub const FOLD_SEGMENTS: u64 = 64;

/// One immutable engine state plus the version it was swapped in at.
#[derive(Debug)]
pub struct EngineSnapshot {
    /// Monotonic swap counter: the base load is version 0 and every
    /// accepted mutation (add, remove) increments it.
    pub version: u64,
    /// The query-ready engine. Immutable — mutations build a new
    /// snapshot.
    pub engine: D3l,
}

/// A maintenance request the serving layer can refuse without
/// touching the store.
#[derive(Debug)]
pub enum MaintenanceError {
    /// An add named a table that is already indexed.
    DuplicateName(String),
    /// A remove named a table that is not indexed (or already
    /// tombstoned).
    UnknownTable(String),
    /// The persistence layer failed.
    Store(StoreError),
}

impl std::fmt::Display for MaintenanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaintenanceError::DuplicateName(name) => {
                write!(f, "table {name:?} already indexed")
            }
            MaintenanceError::UnknownTable(name) => {
                write!(f, "no indexed table named {name:?}")
            }
            MaintenanceError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MaintenanceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MaintenanceError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for MaintenanceError {
    fn from(e: StoreError) -> Self {
        MaintenanceError::Store(e)
    }
}

/// Concurrent handle over a persistent engine: lock-free consistent
/// reads, serialized copy-on-write mutations, and a versioned
/// query-result cache whose entries the swap invalidates implicitly.
pub struct EngineHandle {
    current: RwLock<Arc<EngineSnapshot>>,
    /// The store the engine persists to.
    store: Mutex<IndexStore>,
    cache: QueryCache,
    telemetry: EngineTelemetry,
}

/// Engine-owned latency instruments: one registry holding the store
/// operation histograms (`d3l_store_op_seconds{op=...}`), recorded
/// around every snapshot load, delta append, and base compaction the
/// handle performs. Serving layers render the registry into their
/// `/metrics` exposition; recording is lock-free through the
/// pre-registered `Arc`s.
#[derive(Debug)]
pub struct EngineTelemetry {
    registry: Registry,
    /// Cold-start snapshot load + delta replay.
    pub load: Arc<Histogram>,
    /// Durable delta append for one add/remove mutation.
    pub append: Arc<Histogram>,
    /// Base compaction: `d3l compact`, `POST /admin/compact` and every
    /// fold a write runs ([`FOLD_SEGMENTS`]).
    pub compact: Arc<Histogram>,
}

impl EngineTelemetry {
    fn new() -> Self {
        let registry = Registry::new();
        const NAME: &str = "d3l_store_op_seconds";
        const HELP: &str =
            "Index store operation latency: snapshot load, delta append, base compaction.";
        let load = registry.histogram(NAME, HELP, &[("op", "load")]);
        let append = registry.histogram(NAME, HELP, &[("op", "append")]);
        let compact = registry.histogram(NAME, HELP, &[("op", "compact")]);
        EngineTelemetry {
            registry,
            load,
            append,
            compact,
        }
    }

    /// The registry holding every engine-level series.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

impl EngineHandle {
    /// Wrap an engine and the open store that persists it. The result
    /// cache starts at [`crate::cache::DEFAULT_CACHE_BYTES`]; it holds
    /// nothing until a serving layer populates it, so non-serving users
    /// pay only an empty map.
    pub fn new(store: IndexStore, engine: D3l) -> Self {
        EngineHandle {
            current: RwLock::new(Arc::new(EngineSnapshot { version: 0, engine })),
            store: Mutex::new(store),
            cache: QueryCache::new(crate::cache::DEFAULT_CACHE_BYTES),
            telemetry: EngineTelemetry::new(),
        }
    }

    /// The engine-level latency instruments (store operations).
    pub fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    /// Persist a freshly built engine under `dir` and wrap it.
    pub fn create(dir: impl AsRef<Path>, engine: D3l) -> Result<Self, StoreError> {
        Ok(Self::new(IndexStore::create(dir, &engine)?, engine))
    }

    /// The result cache. Serving layers key entries on
    /// `(target fingerprint, k, options fingerprint, snapshot
    /// version)`; every mutation purges stale versions on swap.
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Cold-start a handle from an index directory (base snapshot plus
    /// delta replay — the millisecond load path). A directory that
    /// holds no index is refused with an error that names it
    /// ([`IndexStore::open`]).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let t0 = Instant::now();
        let (store, engine) = IndexStore::open(dir)?;
        let handle = Self::new(store, engine);
        handle.telemetry.load.record(t0.elapsed());
        Ok(handle)
    }

    /// The current consistent snapshot. The read lock is held only
    /// for the `Arc` clone; queries run lock-free on the returned
    /// snapshot, which no mutation ever alters.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.read_current().clone()
    }

    /// Profile, index and persist one new table, then swap the
    /// extended engine in. Returns the new table's id and the snapshot
    /// that serves it. Folds the pending segments first if there are
    /// [`FOLD_SEGMENTS`] of them; a failed fold refuses the write.
    pub fn add_table(
        &self,
        table: &Table,
    ) -> Result<(TableId, Arc<EngineSnapshot>), MaintenanceError> {
        let mut store = self.lock_store();
        let cur = self.snapshot();
        if cur.engine.table_id(table.name()).is_some() {
            return Err(MaintenanceError::DuplicateName(table.name().to_string()));
        }
        self.fold_if_due(&mut store, &cur.engine)?;
        let mut next = cur.engine.clone();
        let t0 = Instant::now();
        let id = store.append_add(&mut next, table)?;
        self.telemetry.append.record(t0.elapsed());
        Ok((id, self.swap(&cur, next)))
    }

    /// Tombstone a table by name, persist the removal, and swap the
    /// shrunk engine in. Folds first as [`EngineHandle::add_table`]
    /// does.
    pub fn remove_table(
        &self,
        name: &str,
    ) -> Result<(TableId, Arc<EngineSnapshot>), MaintenanceError> {
        let mut store = self.lock_store();
        let cur = self.snapshot();
        let Some(id) = cur.engine.table_id(name) else {
            return Err(MaintenanceError::UnknownTable(name.to_string()));
        };
        self.fold_if_due(&mut store, &cur.engine)?;
        let mut next = cur.engine.clone();
        let t0 = Instant::now();
        store.append_remove(&mut next, id)?;
        self.telemetry.append.record(t0.elapsed());
        Ok((id, self.swap(&cur, next)))
    }

    /// Fold the delta segments into a fresh base snapshot. The engine
    /// state is unchanged (compaction reorganizes disk, not the index),
    /// so no version moves; a segment this handle did not write or
    /// replay survives untouched (see [`IndexStore::compact`]). Returns
    /// the number of folded segments.
    pub fn compact(&self) -> Result<usize, MaintenanceError> {
        let mut store = self.lock_store();
        Ok(self.fold(&mut store, &self.snapshot().engine)?)
    }

    /// The write path's fold: run by a write, under the store lock it
    /// holds, before it appends — when [`FOLD_SEGMENTS`] are pending.
    fn fold_if_due(&self, store: &mut IndexStore, engine: &D3l) -> Result<(), StoreError> {
        if store.pending_segments() >= FOLD_SEGMENTS {
            self.fold(store, engine)?;
        }
        Ok(())
    }

    fn fold(&self, store: &mut IndexStore, engine: &D3l) -> Result<usize, StoreError> {
        let t0 = Instant::now();
        let folded = store.compact(engine)?;
        self.telemetry.compact.record(t0.elapsed());
        Ok(folded)
    }

    /// On-disk footprint: `(base bytes, delta bytes, pending delta
    /// segments)`, from one directory listing
    /// ([`IndexStore::disk_usage`]).
    pub fn disk_stats(&self) -> Result<(u64, u64, usize), MaintenanceError> {
        Ok(self.lock_store().disk_usage()?)
    }

    /// Publish `next` as the successor of `prev` and return the new
    /// snapshot. Callers hold the store lock, so versions move one
    /// writer at a time.
    fn swap(&self, prev: &EngineSnapshot, next: D3l) -> Arc<EngineSnapshot> {
        let swapped = Arc::new(EngineSnapshot {
            version: prev.version + 1,
            engine: next,
        });
        *self
            .current
            .write()
            .unwrap_or_else(|poison| poison.into_inner()) = swapped.clone();
        // The version bump just invalidated every cached rendering;
        // drop them eagerly so the byte budget is not held by
        // unreachable entries. (Compaction does not swap: the engine
        // state is unchanged and the cache correctly stays warm.)
        self.cache.purge_stale(swapped.version);
        swapped
    }

    fn read_current(&self) -> std::sync::RwLockReadGuard<'_, Arc<EngineSnapshot>> {
        // A poisoned lock means a panic elsewhere while the guard was
        // held; snapshots are immutable `Arc`s and the swap is a
        // single assignment, so the stored value is always intact.
        self.current
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    fn lock_store(&self) -> MutexGuard<'_, IndexStore> {
        // Same reasoning: the store handle's bookkeeping is only
        // advanced after a successful durable write.
        self.store
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::D3lConfig;
    use d3l_table::DataLake;

    fn handle(tag: &str) -> (EngineHandle, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("d3l_hotswap_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut lake = DataLake::new();
        lake.add(
            Table::from_rows(
                "gp",
                &["Practice", "City"],
                &[vec!["Blackfriars".into(), "Salford".into()]],
            )
            .unwrap(),
        )
        .unwrap();
        let d3l = D3l::index_lake(&lake, D3lConfig::fast());
        (EngineHandle::create(&dir, d3l).unwrap(), dir)
    }

    fn extra_table(name: &str) -> Table {
        Table::from_rows(
            name,
            &["GP", "Location"],
            &[vec!["Blackfriars".into(), "Salford".into()]],
        )
        .unwrap()
    }

    #[test]
    fn mutations_version_and_persist() {
        let (handle, dir) = handle("mut");
        assert_eq!(handle.snapshot().version, 0);

        let (id, snap) = handle.add_table(&extra_table("local_gps")).unwrap();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.engine.live_table_count(), 2);
        assert_eq!(snap.engine.table_name(id), "local_gps");

        // Old snapshots are unaffected by the swap.
        let before = handle.snapshot();
        let (_, after) = handle.remove_table("local_gps").unwrap();
        assert_eq!(before.version, 1);
        assert_eq!(before.engine.live_table_count(), 2);
        assert_eq!(after.version, 2);
        assert_eq!(after.engine.live_table_count(), 1);

        // Both mutations were persisted as segments; compact folds
        // them without moving the version.
        assert_eq!(handle.disk_stats().unwrap().2, 2);
        assert_eq!(handle.compact().unwrap(), 2);
        assert_eq!(handle.disk_stats().unwrap().2, 0);
        assert_eq!(handle.snapshot().version, 2);

        // A cold start over the directory sees the same final state.
        let reopened = EngineHandle::open(&dir).unwrap();
        assert_eq!(
            reopened.snapshot().engine.to_snapshot_bytes(),
            handle.snapshot().engine.to_snapshot_bytes()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_and_unknown_names_are_typed_refusals() {
        let (handle, dir) = handle("refuse");
        assert!(matches!(
            handle.add_table(&extra_table("gp")),
            Err(MaintenanceError::DuplicateName(n)) if n == "gp"
        ));
        assert!(matches!(
            handle.remove_table("never_there"),
            Err(MaintenanceError::UnknownTable(n)) if n == "never_there"
        ));
        // Refusals leave no segments and do not bump the version.
        assert_eq!(handle.disk_stats().unwrap().2, 0);
        assert_eq!(handle.snapshot().version, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutations_purge_cached_renderings_compaction_keeps_them() {
        use crate::cache::CacheKey;
        let (handle, dir) = handle("cache");
        let key = CacheKey {
            target: [1, 2],
            k: 10,
            opts: 0,
            version: 0,
        };
        handle.cache().put(key, "rendered".into());
        assert!(handle.cache().get(&key).is_some());

        handle.add_table(&extra_table("t2")).unwrap();
        assert!(
            handle.cache().get(&key).is_none(),
            "swap must purge stale-version entries"
        );
        // Entries keyed at the new version survive compaction: the
        // engine state (and thus every rendering) is unchanged.
        let live = CacheKey { version: 1, ..key };
        handle.cache().put(live, "rendered".into());
        handle.compact().unwrap();
        assert!(handle.cache().get(&live).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn lake(tables: usize) -> DataLake {
        let mut lake = DataLake::new();
        for t in 0..tables {
            let rows: Vec<Vec<String>> = (0..5)
                .map(|r| {
                    vec![
                        format!("practice_{}_{}", t % 3, r),
                        format!("{}", (t * 13 + r) % 90),
                    ]
                })
                .collect();
            lake.add(
                Table::from_rows(format!("lake_table_{t:02}"), &["name", "count"], &rows).unwrap(),
            )
            .unwrap();
        }
        lake
    }

    fn lake_handle(tag: &str) -> (EngineHandle, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("d3l_hotswap_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = D3l::index_lake(&lake(8), D3lConfig::fast());
        (EngineHandle::create(&dir, engine).unwrap(), dir)
    }

    #[test]
    fn table_id_is_the_name_to_id_lookup_through_add_remove_and_re_add() {
        let (handle, dir) = lake_handle("tid");
        let agree = |stage: &str| {
            let snap = handle.snapshot();
            let map = snap.engine.name_to_id();
            for name in ["lake_table_00", "lake_table_05", "comeback", "nobody", ""] {
                assert_eq!(
                    snap.engine.table_id(name),
                    map.get(name).copied(),
                    "{stage}: {name:?}"
                );
            }
        };
        agree("built");
        let (first, _) = handle.add_table(&extra_table("comeback")).unwrap();
        agree("added");
        handle.remove_table("comeback").unwrap();
        handle.remove_table("lake_table_05").unwrap();
        agree("removed");
        assert_eq!(handle.snapshot().engine.table_id("comeback"), None);
        let (second, after) = handle.add_table(&extra_table("comeback")).unwrap();
        agree("re-added");
        assert_ne!(first, second, "the tombstone keeps its id");
        assert_eq!(after.engine.table_id("comeback"), Some(second));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lifecycle_survives_compact_and_reopen() {
        let (handle, dir) = lake_handle("cycle");
        handle.add_table(&extra_table("added_one")).unwrap();
        handle.remove_table("lake_table_05").unwrap();
        let live = handle.snapshot().engine.to_snapshot_bytes();

        let reopened = EngineHandle::open(&dir).unwrap();
        assert_eq!(
            live,
            reopened.snapshot().engine.to_snapshot_bytes(),
            "replay must reproduce the live engine"
        );

        assert_eq!(handle.compact().unwrap(), 2);
        assert_eq!(handle.disk_stats().unwrap().2, 0);
        let recompacted = EngineHandle::open(&dir).unwrap();
        assert_eq!(
            live,
            recompacted.snapshot().engine.to_snapshot_bytes(),
            "the compacted base must reproduce the live engine"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_write_that_finds_the_fold_count_pending_folds_first() {
        use crate::cache::CacheKey;
        let (handle, dir) = lake_handle("fold");
        let pending = |handle: &EngineHandle| handle.lock_store().pending_segments();
        let folds = |handle: &EngineHandle| handle.telemetry().compact.count();
        let mut added = Vec::new();
        let mut write = |handle: &EngineHandle| {
            let table = extra_table(&format!("added_{:03}", added.len()));
            handle.add_table(&table).unwrap();
            added.push(table);
        };
        for _ in 0..FOLD_SEGMENTS {
            write(&handle);
        }
        assert_eq!(pending(&handle), FOLD_SEGMENTS);
        assert_eq!(handle.disk_stats().unwrap().2, 64);
        assert_eq!(folds(&handle), 0);
        write(&handle);
        assert_eq!(
            handle.disk_stats().unwrap().2,
            1,
            "64 folded, then 1 appended"
        );
        assert_eq!(folds(&handle), 1);
        assert_eq!(handle.snapshot().version, 65, "one version a write");

        // The fold itself moves no version and keeps the cache warm.
        for _ in 1..FOLD_SEGMENTS {
            write(&handle);
        }
        let key = CacheKey {
            target: [1, 2],
            k: 10,
            opts: 0,
            version: 128,
        };
        handle.cache().put(key, "rendered".into());
        handle
            .fold_if_due(&mut handle.lock_store(), &handle.snapshot().engine)
            .unwrap();
        assert_eq!((pending(&handle), folds(&handle)), (0, 2));
        assert_eq!(handle.snapshot().version, 128);
        assert!(handle.cache().get(&key).is_some());

        let mut all = lake(8);
        for table in added {
            all.add(table).unwrap();
        }
        let rebuilt = D3l::index_lake(&all, D3lConfig::fast());
        let reopened = EngineHandle::open(&dir).unwrap();
        assert!(reopened.snapshot().engine.to_snapshot_bytes() == rebuilt.to_snapshot_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }
}
