//! Copy-on-write hot-swap around a persistent sharded engine — the
//! substrate of the concurrent serving layer.
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
//! * **Writers** serialize on the store mutex, deep-clone *only the
//!   shard that owns the mutated table* — O(lake/shards) copy and
//!   snapshot work; the other shards are shared by `Arc` — persist the
//!   mutation through that shard's [`IndexStore`] (which writes the
//!   delta segment, then applies it to the clone) and only then swap
//!   the new snapshot in under a brief write lock. A 2xx on a mutation
//!   therefore implies read-your-writes: the swap happened before the
//!   response was written, so any later query observes it.
//!
//! Durability ordering is persist-then-swap: if the delta write
//! fails, the clone is discarded and the served engine still matches
//! the store on disk.
//!
//! Each swap bumps a monotonic version stamped into the snapshot
//! itself, so `(version, engine state)` pairs are atomically
//! consistent — the concurrency stress tests use this to prove the
//! absence of torn reads. The snapshot additionally carries one
//! version stamp *per shard*, advanced only when that shard is
//! rewritten: a mutation's blast radius is visible — and testable —
//! as "every other shard's stamp (and snapshot bytes) unchanged".
//! A snapshot holds the stamps and the engine and nothing derived
//! from them: memory accounting ([`ShardedD3l::byte_size`]) sums
//! stored lengths, so `/stats` computes it when it is read.
//!
//! On disk, a one-shard engine keeps the classic monolith layout
//! (`<dir>/base.d3ls` + deltas); an N-shard engine nests one complete
//! store per shard under `<dir>/shard-NN/`. [`EngineHandle::open`]
//! auto-detects which of the two it was given.

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use d3l_store::layout::{shard_dir_name, shard_dirs};
use d3l_store::{SectionTag, StoreError, BASE_FILE};
use d3l_table::{Table, TableId};
use d3l_telemetry::{Histogram, Registry};

use crate::cache::QueryCache;
use crate::shard::ShardedD3l;
use crate::snapshot::IndexStore;

/// One immutable engine state plus the version it was swapped in at.
#[derive(Debug)]
pub struct EngineSnapshot {
    /// Monotonic swap counter: the base load is version 0 and every
    /// accepted mutation (add, remove, reload) increments it.
    pub version: u64,
    /// Per-shard version stamps: entry `s` is the global version of
    /// the last swap that rewrote shard `s`. A mutation bumps exactly
    /// one entry; the others carry over untouched.
    pub shard_versions: Vec<u64>,
    /// The query-ready engine. Immutable — mutations build a new
    /// snapshot.
    pub engine: ShardedD3l,
}

impl EngineSnapshot {
    /// A snapshot at `version` with every shard stamped at that same
    /// version (the cold-load shape; mutations diverge the stamps).
    pub fn at_version(version: u64, engine: ShardedD3l) -> Self {
        EngineSnapshot {
            version,
            shard_versions: vec![version; engine.shard_count()],
            engine,
        }
    }
}

/// Lake-wide `(base bytes, delta bytes, pending delta segments)`:
/// the per-shard [`EngineHandle::shard_disk_stats`] summed.
pub fn sum_disk_stats(shards: &[(u64, u64, usize)]) -> (u64, u64, usize) {
    shards
        .iter()
        .fold((0, 0, 0), |acc, s| (acc.0 + s.0, acc.1 + s.1, acc.2 + s.2))
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
/// reads, serialized copy-on-write mutations scoped to the owning
/// shard, and a versioned query-result cache whose entries the swap
/// invalidates implicitly.
pub struct EngineHandle {
    current: RwLock<Arc<EngineSnapshot>>,
    /// One store per shard, parallel to `engine.shards()`. A one-shard
    /// engine's single store lives directly in the index root.
    stores: Mutex<Vec<IndexStore>>,
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
    /// Cold-start snapshot load + delta replay (per store opened).
    pub load: Arc<Histogram>,
    /// Durable delta append for one add/remove mutation.
    pub append: Arc<Histogram>,
    /// Per-shard base compaction.
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
    /// Wrap an engine and its open per-shard stores (parallel vectors:
    /// `stores[s]` persists `engine.shards()[s]`; a one-shard engine
    /// has the one store). The result cache starts at
    /// [`crate::cache::DEFAULT_CACHE_BYTES`]; it holds nothing until
    /// a serving layer populates it, so non-serving users pay only
    /// an empty map.
    pub fn new_sharded(stores: Vec<IndexStore>, engine: ShardedD3l) -> Self {
        assert_eq!(
            stores.len(),
            engine.shard_count(),
            "one store per shard required"
        );
        EngineHandle {
            current: RwLock::new(Arc::new(EngineSnapshot::at_version(0, engine))),
            stores: Mutex::new(stores),
            cache: QueryCache::new(crate::cache::DEFAULT_CACHE_BYTES),
            telemetry: EngineTelemetry::new(),
        }
    }

    /// The engine-level latency instruments (store operations).
    pub fn telemetry(&self) -> &EngineTelemetry {
        &self.telemetry
    }

    /// Persist a freshly built engine under `dir` and wrap it. A
    /// one-shard engine writes the monolith layout (`base.d3ls` in
    /// the root); N shards write one store per `shard-NN/`
    /// subdirectory. Leftovers of the *other* layout in `dir` are
    /// removed first, so re-indexing with a different shard count
    /// never leaves an ambiguous root.
    pub fn create(dir: impl AsRef<Path>, engine: ShardedD3l) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut stores = Vec::with_capacity(engine.shard_count());
        if engine.shard_count() == 1 {
            for (_, stale) in shard_dirs(dir)? {
                std::fs::remove_dir_all(stale)?;
            }
            stores.push(IndexStore::create(dir, &engine.shards()[0])?);
        } else {
            let stale_base = dir.join(BASE_FILE);
            if stale_base.exists() {
                std::fs::remove_file(&stale_base)?;
            }
            for (s, shard) in engine.shards().iter().enumerate() {
                stores.push(IndexStore::create(dir.join(shard_dir_name(s)), shard)?);
            }
        }
        Ok(Self::new_sharded(stores, engine))
    }

    /// The result cache. Serving layers key entries on
    /// `(target fingerprint, k, options fingerprint, snapshot
    /// version)`; every mutation purges stale versions on swap.
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Cold-start a handle from an index directory (base snapshots
    /// plus delta replay — the millisecond load path). Auto-detects
    /// the layout: `shard-NN/` subdirectories beside no `base.d3ls` are
    /// opened as one store each (ordinals must be contiguous from 0,
    /// and each shard's stored config must agree on the shard count);
    /// anything else is a monolith — or neither layout, and the
    /// monolith open's error names the path the caller gave.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        let found = if dir.join(BASE_FILE).exists() {
            Vec::new()
        } else {
            shard_dirs(dir)?
        };
        if found.is_empty() {
            let t0 = Instant::now();
            let (store, engine) = IndexStore::open(dir)?;
            let handle = Self::new_sharded(vec![store], ShardedD3l::from_monolith(engine));
            handle.telemetry.load.record(t0.elapsed());
            return Ok(handle);
        }
        for (expect, (ordinal, path)) in found.iter().enumerate() {
            if *ordinal != expect {
                return Err(StoreError::corrupt(format!(
                    "sharded index is missing {}; found {}",
                    shard_dir_name(expect),
                    path.display()
                )));
            }
        }
        let mut stores = Vec::with_capacity(found.len());
        let mut engines = Vec::with_capacity(found.len());
        let mut load_ns = Vec::with_capacity(found.len());
        for (_, path) in &found {
            let t0 = Instant::now();
            let (store, engine) = IndexStore::open(path)?;
            load_ns.push(t0.elapsed());
            if engine.config().shards != found.len() {
                return Err(StoreError::corrupt(format!(
                    "{} believes in {} shards, directory holds {}",
                    path.display(),
                    engine.config().shards,
                    found.len()
                )));
            }
            stores.push(store);
            engines.push(engine);
        }
        let handle = Self::new_sharded(stores, ShardedD3l::from_shards(engines));
        for d in load_ns {
            handle.telemetry.load.record(d);
        }
        Ok(handle)
    }

    /// The current consistent snapshot. The read lock is held only
    /// for the `Arc` clone; queries run lock-free on the returned
    /// snapshot, which no mutation ever alters.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.read_current().clone()
    }

    /// Profile, index and persist one new table, then swap the
    /// extended engine in. Only the shard owning the table's name is
    /// cloned and rewritten. Returns the new table's id and the
    /// snapshot that serves it.
    pub fn add_table(
        &self,
        table: &Table,
    ) -> Result<(TableId, Arc<EngineSnapshot>), MaintenanceError> {
        let mut stores = self.lock_stores();
        let cur = self.snapshot();
        if cur.engine.table_id(table.name()).is_some() {
            return Err(MaintenanceError::DuplicateName(table.name().to_string()));
        }
        let s = cur.engine.shard_of(table.name());
        let mut shard = (*cur.engine.shards()[s]).clone();
        let t0 = Instant::now();
        let id = cur.engine.next_table_id();
        stores[s].append_add_at(&mut shard, table, id)?;
        self.telemetry.append.record(t0.elapsed());
        let next = cur.engine.with_shard(s, shard);
        Ok((id, self.swap(&cur, next, &[s])))
    }

    /// Tombstone a table by name, persist the removal in the owning
    /// shard's store, and swap the shrunk engine in.
    pub fn remove_table(
        &self,
        name: &str,
    ) -> Result<(TableId, Arc<EngineSnapshot>), MaintenanceError> {
        let mut stores = self.lock_stores();
        let cur = self.snapshot();
        let Some(id) = cur.engine.table_id(name) else {
            return Err(MaintenanceError::UnknownTable(name.to_string()));
        };
        let s = cur
            .engine
            .owner_of(id)
            .expect("a name-resolved table has an owner");
        let mut shard = (*cur.engine.shards()[s]).clone();
        let t0 = Instant::now();
        stores[s].append_remove(&mut shard, id)?;
        self.telemetry.append.record(t0.elapsed());
        let next = cur.engine.with_shard(s, shard);
        Ok((id, self.swap(&cur, next, &[s])))
    }

    /// Fold every shard's observed delta segments into fresh base
    /// snapshots. The engine state is unchanged (compaction
    /// reorganizes disk, not the index), so no version moves;
    /// segments appended by an external writer and not yet reloaded
    /// survive untouched (see [`IndexStore::compact`]). Returns the
    /// total number of folded segments.
    pub fn compact(&self) -> Result<usize, MaintenanceError> {
        let mut stores = self.lock_stores();
        let cur = self.snapshot();
        let mut folded = 0;
        for (store, shard) in stores.iter_mut().zip(cur.engine.shards()) {
            let t0 = Instant::now();
            folded += store.compact(shard)?;
            self.telemetry.compact.record(t0.elapsed());
        }
        Ok(folded)
    }

    /// Pick up delta segments appended by another writer (a CLI
    /// `d3l add` or a `d3l watch` process next to a serving replica):
    /// every shard directory holding segments this handle has not
    /// replayed gets them applied incrementally onto a clone of the
    /// live shard, and only those shards are swapped. `None` when the
    /// handle is already at the latest state everywhere.
    ///
    /// Staleness is decided and replayed **under one store lock**,
    /// and the replay re-scans the directory rather than trusting an
    /// earlier inventory: [`IndexStore::replay_newer`] applies
    /// everything above the shard's replayed-through watermark at the
    /// moment it runs. An earlier version scanned first and then
    /// replayed the scanned set, so a writer appending between scan
    /// and replay (or to a shard the scan judged current) was
    /// silently deferred to a later poll — the regression tests
    /// inject exactly that interleaving via
    /// `reload_latest_paced`.
    pub fn reload_latest(&self) -> Result<Option<Arc<EngineSnapshot>>, MaintenanceError> {
        self.reload_latest_paced(|| {})
    }

    /// [`EngineHandle::reload_latest`] with a hook that runs after the
    /// reload has begun (store lock held) and before the authoritative
    /// scan-and-replay. The hook is the TOCTOU window of the pre-fix
    /// implementation: segments an external writer appends inside it
    /// must still be observed by this very reload. Exposed for the
    /// mid-reload-append regression tests.
    fn reload_latest_paced(
        &self,
        before_replay: impl FnOnce(),
    ) -> Result<Option<Arc<EngineSnapshot>>, MaintenanceError> {
        let mut stores = self.lock_stores();
        before_replay();
        let cur = self.snapshot();
        let mut next = cur.engine.clone();
        // (shard, watermark before replay) — the rollback set: if a
        // later shard's replay fails, no swap happens, so the shards
        // already replayed must rewind their store watermarks or
        // their segments would count as replayed without ever
        // reaching the served engine.
        let mut touched: Vec<(usize, u64)> = Vec::new();
        let mut replay_all = || -> Result<(), MaintenanceError> {
            for (s, store) in stores.iter_mut().enumerate() {
                if !store.has_newer_segments()? {
                    continue;
                }
                // Incremental replay: clone the live shard and apply
                // only the segments above its watermark — no base
                // re-read, and `replay_newer`'s own directory scan
                // (not the staleness check above) decides what gets
                // applied.
                let mut shard = (*cur.engine.shards()[s]).clone();
                let prev = store.replayed_through();
                let t0 = Instant::now();
                store.replay_newer(&mut shard)?;
                self.telemetry.load.record(t0.elapsed());
                next = next.with_shard(s, shard);
                touched.push((s, prev));
            }
            Ok(())
        };
        if let Err(e) = replay_all() {
            for &(s, prev) in &touched {
                stores[s].rewind_replayed_through(prev);
            }
            return Err(e);
        }
        if touched.is_empty() {
            return Ok(None);
        }
        let shards: Vec<usize> = touched.iter().map(|&(s, _)| s).collect();
        Ok(Some(self.swap(&cur, next, &shards)))
    }

    /// On-disk footprint: `(base bytes, delta bytes, pending delta
    /// segments)` summed across shards.
    pub fn disk_stats(&self) -> Result<(u64, u64, usize), MaintenanceError> {
        Ok(sum_disk_stats(&self.shard_disk_stats()?))
    }

    /// Per-shard on-disk footprints, parallel to `engine.shards()`:
    /// one directory listing per shard ([`IndexStore::disk_usage`]).
    pub fn shard_disk_stats(&self) -> Result<Vec<(u64, u64, usize)>, MaintenanceError> {
        let stores = self.lock_stores();
        let usage = stores.iter().map(IndexStore::disk_usage);
        Ok(usage.collect::<Result<_, _>>()?)
    }

    /// What the base snapshots are made of: `(section tag, payload
    /// bytes)` in file order ([`IndexStore::base_sections`]), summed
    /// across shards — every base holds the same sections in the same
    /// order.
    pub fn base_sections(&self) -> Result<Vec<(SectionTag, u64)>, MaintenanceError> {
        let stores = self.lock_stores();
        let mut total = stores[0].base_sections()?;
        for store in &stores[1..] {
            for (row, (_, len)) in total.iter_mut().zip(store.base_sections()?) {
                row.1 += len;
            }
        }
        Ok(total)
    }

    /// Publish `next` as the successor of `prev`, stamping the
    /// `touched` shards with the new version, and return the new
    /// snapshot. Callers hold the store lock, so versions move one
    /// writer at a time.
    fn swap(
        &self,
        prev: &EngineSnapshot,
        next: ShardedD3l,
        touched: &[usize],
    ) -> Arc<EngineSnapshot> {
        let version = prev.version + 1;
        let mut shard_versions = prev.shard_versions.clone();
        for &s in touched {
            shard_versions[s] = version;
        }
        let swapped = Arc::new(EngineSnapshot {
            version,
            shard_versions,
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

    fn lock_stores(&self) -> MutexGuard<'_, Vec<IndexStore>> {
        // Same reasoning: the store handles' bookkeeping is only
        // advanced after a successful durable write.
        self.stores
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::D3lConfig;
    use crate::index::D3l;
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
        let store = IndexStore::create(&dir, &d3l).unwrap();
        let engine = ShardedD3l::from_monolith(d3l);
        (EngineHandle::new_sharded(vec![store], engine), dir)
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
            reopened.snapshot().engine.shards()[0].to_snapshot_bytes(),
            handle.snapshot().engine.shards()[0].to_snapshot_bytes()
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

    #[test]
    fn reload_observes_appends_that_race_the_scan() {
        // Regression for the scan-then-replay TOCTOU: a writer
        // appending after the reload began (the pre-fix code had
        // already decided "nothing is stale" by then) must still be
        // observed by this very reload, not deferred to a later poll.
        let (handle, dir) = handle("toctou");
        let snap = handle
            .reload_latest_paced(|| {
                let (mut store, mut engine) = IndexStore::open(&dir).unwrap();
                store
                    .append_add(&mut engine, &extra_table("mid_reload"))
                    .unwrap();
            })
            .unwrap()
            .expect("the mid-reload append must be observed, not deferred");
        assert_eq!(snap.version, 1);
        assert!(snap.engine.name_to_id().contains_key("mid_reload"));
        assert!(handle.reload_latest().unwrap().is_none(), "caught up");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_reload_observes_appends_to_shards_the_scan_judged_current() {
        // The sharded flavor of the TOCTOU: shard A already has an
        // external segment when the reload begins; mid-reload a
        // writer appends to shard B. The pre-fix code replayed only
        // the scanned-stale set {A}, silently deferring B's
        // acknowledged segment. One reload must pick up both.
        let (handle, dir) = sharded_handle("toctou", 2);
        let cur = handle.snapshot();
        // Two names owned by different shards.
        let mut names = Vec::new();
        for i in 0..64 {
            let name = format!("race_{i}");
            if names.is_empty() || cur.engine.shard_of(&name) != cur.engine.shard_of(names[0]) {
                names.push(Box::leak(name.into_boxed_str()) as &str);
            }
            if names.len() == 2 {
                break;
            }
        }
        let [first, second] = names[..] else {
            panic!("no shard split found")
        };
        let append = |name: &str, id| {
            let owner = cur.engine.shard_of(name);
            let (mut store, mut engine) =
                IndexStore::open(dir.join(shard_dir_name(owner))).unwrap();
            store
                .append_add_at(&mut engine, &extra_table(name), id)
                .unwrap();
        };
        append(first, cur.engine.next_table_id());
        let second_id = TableId(cur.engine.next_table_id().0 + 1);
        let snap = handle
            .reload_latest_paced(|| append(second, second_id))
            .unwrap()
            .expect("must observe");
        assert!(
            snap.engine.name_to_id().contains_key(first),
            "pre-scan append applied"
        );
        assert!(
            snap.engine.name_to_id().contains_key(second),
            "mid-reload append to the other shard applied in the same reload"
        );
        assert_eq!(snap.version, 1, "one reload, one swap");
        assert!(handle.reload_latest().unwrap().is_none(), "caught up");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_reload_rewinds_watermarks_so_nothing_is_lost() {
        // Shard replay order is shard 0 first; make shard 0's segment
        // valid and shard 1's corrupt, confirm the error, repair, and
        // assert a retry still applies shard 0's segment.
        let (handle, dir) = sharded_handle("rewind", 2);
        let cur = handle.snapshot();
        let mut by_shard: [Option<&str>; 2] = [None, None];
        for i in 0..64 {
            let name = format!("rewind_{i}");
            let owner = cur.engine.shard_of(&name);
            if by_shard[owner].is_none() {
                by_shard[owner] = Some(Box::leak(name.into_boxed_str()));
            }
            if by_shard.iter().all(|n| n.is_some()) {
                break;
            }
        }
        let (zero, one) = (by_shard[0].unwrap(), by_shard[1].unwrap());
        let id0 = cur.engine.next_table_id();
        let id1 = TableId(id0.0 + 1);
        let append = |name: &str, id| {
            let owner = cur.engine.shard_of(name);
            let (mut store, mut engine) =
                IndexStore::open(dir.join(shard_dir_name(owner))).unwrap();
            store
                .append_add_at(&mut engine, &extra_table(name), id)
                .unwrap();
        };
        append(zero, id0);
        append(one, id1);
        // Corrupt shard 1's new segment.
        let seg1 = dir
            .join(shard_dir_name(1))
            .join(d3l_store::layout::delta_file_name(1));
        let good = std::fs::read(&seg1).unwrap();
        std::fs::write(&seg1, b"garbage").unwrap();
        assert!(handle.reload_latest().is_err(), "corrupt segment surfaces");
        // Repair and retry: shard 0's segment must not have been
        // swallowed by the failed attempt.
        std::fs::write(&seg1, good).unwrap();
        let snap = handle.reload_latest().unwrap().expect("retry succeeds");
        assert!(snap.engine.name_to_id().contains_key(zero));
        assert!(snap.engine.name_to_id().contains_key(one));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_latest_picks_up_external_segments() {
        let (handle, dir) = handle("reload");
        assert!(handle.reload_latest().unwrap().is_none(), "nothing new");

        // A second writer (the CLI next to a server) appends a delta.
        let (mut other_store, mut other_engine) = IndexStore::open(&dir).unwrap();
        other_store
            .append_add(&mut other_engine, &extra_table("late"))
            .unwrap();

        let snap = handle
            .reload_latest()
            .unwrap()
            .expect("new segment must be observed");
        assert_eq!(snap.version, 1);
        assert!(snap.engine.name_to_id().contains_key("late"));
        assert!(handle.reload_latest().unwrap().is_none(), "caught up");
        std::fs::remove_dir_all(&dir).ok();
    }

    // ------------------------------------------------ sharded layout

    fn sharded_lake(tables: usize) -> DataLake {
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

    fn sharded_handle(tag: &str, shards: usize) -> (EngineHandle, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("d3l_hotswap_sh_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = D3lConfig {
            shards,
            ..D3lConfig::fast()
        };
        let engine = ShardedD3l::index_lake(&sharded_lake(8), cfg);
        let handle = EngineHandle::create(&dir, engine).unwrap();
        (handle, dir)
    }

    /// Every shard's base-snapshot bytes as currently on disk.
    fn disk_shard_bytes(dir: &Path, n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|s| std::fs::read(dir.join(shard_dir_name(s)).join(BASE_FILE)).unwrap())
            .collect()
    }

    #[test]
    fn sharded_mutations_touch_only_the_owning_shard() {
        let (handle, dir) = sharded_handle("blast", 3);
        let before = handle.snapshot();
        assert_eq!(before.shard_versions, vec![0, 0, 0]);
        let disk_before = disk_shard_bytes(&dir, 3);

        let table = extra_table("newcomer");
        let owner = before.engine.shard_of("newcomer");
        let (id, after) = handle.add_table(&table).unwrap();
        assert_eq!(id, before.engine.next_table_id());
        assert_eq!(after.engine.table_name(id), "newcomer");
        assert_eq!(after.engine.owner_of(id), Some(owner));

        // Non-owning shards: same Arc (no copy), same version stamp,
        // same bytes on disk.
        let disk_after = disk_shard_bytes(&dir, 3);
        for s in 0..3 {
            if s == owner {
                assert_eq!(after.shard_versions[s], 1, "owner stamped");
                continue;
            }
            assert!(
                Arc::ptr_eq(&before.engine.shards()[s], &after.engine.shards()[s]),
                "shard {s} must be shared, not copied"
            );
            assert_eq!(after.shard_versions[s], 0, "shard {s} stamp must hold");
            assert_eq!(disk_before[s], disk_after[s], "shard {s} bytes must hold");
        }

        // Remove follows the same discipline.
        let victim = "lake_table_03";
        let victim_owner = after.engine.shard_of(victim);
        let (_, removed) = handle.remove_table(victim).unwrap();
        for s in 0..3 {
            if s == victim_owner {
                assert_eq!(removed.shard_versions[s], 2);
            } else {
                assert!(Arc::ptr_eq(
                    &after.engine.shards()[s],
                    &removed.engine.shards()[s]
                ));
                assert_eq!(removed.shard_versions[s], after.shard_versions[s]);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table_id_is_the_name_to_id_lookup_through_add_remove_and_re_add() {
        for shards in [1usize, 2, 8] {
            let (handle, dir) = sharded_handle(&format!("tid{shards}"), shards);
            let agree = |stage: &str| {
                let snap = handle.snapshot();
                let map = snap.engine.name_to_id();
                for name in ["lake_table_00", "lake_table_05", "comeback", "nobody", ""] {
                    assert_eq!(
                        snap.engine.table_id(name),
                        map.get(name).copied(),
                        "{stage}: {name:?} at {shards} shards"
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
    }

    #[test]
    fn sharded_lifecycle_survives_compact_and_reopen() {
        let (handle, dir) = sharded_handle("cycle", 3);
        handle.add_table(&extra_table("added_one")).unwrap();
        handle.remove_table("lake_table_05").unwrap();

        let reopened = EngineHandle::open(&dir).unwrap();
        let live = handle.snapshot();
        let cold = reopened.snapshot();
        assert_eq!(cold.engine.shard_count(), 3);
        for s in 0..3 {
            assert_eq!(
                live.engine.shards()[s].to_snapshot_bytes(),
                cold.engine.shards()[s].to_snapshot_bytes(),
                "shard {s} replay must reproduce the live engine"
            );
        }

        assert!(handle.compact().unwrap() >= 2);
        assert_eq!(handle.disk_stats().unwrap().2, 0);
        let recompacted = EngineHandle::open(&dir).unwrap();
        for s in 0..3 {
            assert_eq!(
                live.engine.shards()[s].to_snapshot_bytes(),
                recompacted.snapshot().engine.shards()[s].to_snapshot_bytes(),
                "shard {s} compacted base must reproduce the live engine"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_reload_picks_up_external_shard_segments() {
        let (handle, dir) = sharded_handle("ext", 2);
        assert!(handle.reload_latest().unwrap().is_none());

        // A second writer appends straight into one shard's store.
        let cur = handle.snapshot();
        let name = "externally_added";
        let owner = cur.engine.shard_of(name);
        let id = cur.engine.next_table_id();
        let (mut store, mut engine) = IndexStore::open(dir.join(shard_dir_name(owner))).unwrap();
        store
            .append_add_at(&mut engine, &extra_table(name), id)
            .unwrap();

        let snap = handle.reload_latest().unwrap().expect("must observe");
        assert!(snap.engine.name_to_id().contains_key(name));
        assert_eq!(snap.engine.owner_of(id), Some(owner));
        for s in 0..2 {
            if s != owner {
                assert!(Arc::ptr_eq(
                    &cur.engine.shards()[s],
                    &snap.engine.shards()[s]
                ));
                assert_eq!(snap.shard_versions[s], 0);
            }
        }
        assert!(handle.reload_latest().unwrap().is_none(), "caught up");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_a_gapped_shard_set() {
        let (_, dir) = sharded_handle("gap", 3);
        std::fs::remove_dir_all(dir.join(shard_dir_name(1))).unwrap();
        assert!(matches!(
            EngineHandle::open(&dir),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
