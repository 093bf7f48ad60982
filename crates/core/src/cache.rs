//! Versioned query-result cache — the serving fast path.
//!
//! The discovery workload is read-dominated and highly repetitive in
//! a multi-user setting: the same handful of popular targets are
//! ranked over and over while the lake mutates rarely. [`QueryCache`]
//! converts that repetition into sub-millisecond answers by storing
//! the **fully rendered** response body under a key that pins every
//! input the rendering depends on:
//!
//! * the 128-bit fingerprint of the target table
//!   ([`table_fingerprint`]),
//! * the requested `k`,
//! * the fingerprint of the effective [`QueryOptions`]
//!   ([`options_fingerprint`]),
//! * and the hot-swap **engine version** of the snapshot that would
//!   answer.
//!
//! The version stamp makes invalidation *exact and free*: every
//! accepted mutation (add, remove, reload) bumps the version, so a
//! stale entry simply can never be keyed again — there is no TTL, no
//! heuristic invalidation, and a hit is byte-identical to what the
//! engine would render, by construction. Compaction reorganizes disk
//! without moving the version, and correctly leaves the cache warm.
//! The worker-thread count is deliberately **excluded** from the
//! options fingerprint: the query pipeline is byte-identical at every
//! thread count (the determinism suite proves it), so thread settings
//! changing between requests must share entries.
//!
//! Concurrency: one `Mutex` guards one map, one CLOCK ring, the byte
//! budget and the live version, so a body up to the whole budget can
//! be cached and a put checks the version under the same lock that
//! `purge_stale` moves it under. A get holds the lock for one map
//! lookup and a put for one insert plus the sweep it triggers; only a
//! purge or a budget change scans, and the mutation or operator
//! action behind it costs far more than the scan. Eviction is CLOCK
//! (second-chance): the keys sit on a ring, a hit sets the entry's
//! referenced bit (O(1), no reordering), and an insert that pushes the
//! cache over its budget sweeps the ring — giving referenced entries
//! a second chance (bit cleared, entry rotated to the back) and
//! evicting the first unreferenced one. Every sweep step either
//! evicts an entry or retires a referenced bit some hit set, so
//! eviction work is amortized O(1) per cache operation — never a scan
//! of the map per evicted entry.
//!
//! The hit, miss, eviction and insertion counts are
//! [`d3l_telemetry::Counter`]s in the cache's own [`Registry`]: a
//! serving layer renders [`QueryCache::registry`] into `/metrics`,
//! and [`QueryCache::stats`] reads the same counters.
//!
//! [`QueryOptions`]: crate::query::QueryOptions

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use d3l_lsh::hash::Fnv1a;
use d3l_table::Table;
use d3l_telemetry::{Counter, Registry};

use crate::query::QueryOptions;

/// Default byte budget a serving process starts with (the CLI's
/// `--cache-bytes` and `ServerConfig::cache_bytes` override it).
pub const DEFAULT_CACHE_BYTES: u64 = 64 * 1024 * 1024;

/// Fixed accounting overhead charged per entry on top of the body
/// bytes (key, map slot, `Arc` bookkeeping).
const ENTRY_OVERHEAD: u64 = 96;

/// Everything a cached rendering depends on. Two requests with equal
/// keys are guaranteed the same response body; the `version` member
/// is the hot-swap stamp, so mutations invalidate implicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// 128-bit target fingerprint (two independent FNV-1a streams —
    /// accidental collisions are a ~2^-128 event).
    pub target: [u64; 2],
    /// Requested result count (or ranking width).
    pub k: u64,
    /// [`options_fingerprint`] of the effective query options.
    pub opts: u64,
    /// Engine version of the snapshot that answers.
    pub version: u64,
}

struct Entry {
    body: Arc<str>,
    bytes: u64,
    /// Second-chance bit: set by every hit, cleared (once) by the
    /// clock sweep before the entry becomes evictable.
    referenced: bool,
}

#[derive(Default)]
struct State {
    map: HashMap<CacheKey, Entry>,
    /// Clock ring: every live key occurs exactly once, in insertion
    /// order, rotated by the sweep.
    ring: VecDeque<CacheKey>,
    bytes: u64,
    /// Byte budget (0 = disabled).
    budget: u64,
    /// The engine version mutations have advanced to; entries keyed
    /// at any other version are garbage and inserts at a stale
    /// version are refused (closes the race where a slow query
    /// renders against a snapshot that was swapped out mid-flight).
    live_version: u64,
    /// Total sweep steps taken by `evict_to` — the cost meter the
    /// amortized-work unit test bounds.
    scanned: u64,
}

impl State {
    /// Clock sweep: evict until at most `budget` bytes remain.
    /// Returns the number of entries evicted. Each step pops the ring
    /// head and either clears a referenced bit and rotates the entry
    /// to the back, or evicts — so total work is bounded by evictions
    /// plus the referenced bits hits have set, not by
    /// `entries × evictions`.
    fn evict_to(&mut self, budget: u64) -> u64 {
        let mut evicted = 0;
        while self.bytes > budget {
            let Some(key) = self.ring.pop_front() else {
                break;
            };
            self.scanned += 1;
            let entry = self.map.get_mut(&key).expect("the ring holds live keys");
            if entry.referenced {
                entry.referenced = false;
                self.ring.push_back(key);
            } else {
                self.bytes -= entry.bytes;
                self.map.remove(&key);
                evicted += 1;
            }
        }
        evicted
    }
}

/// Point-in-time cache counters, exposed by `GET /stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the engine.
    pub misses: u64,
    /// Entries removed to stay under the byte budget.
    pub evictions: u64,
    /// Entries stored.
    pub insertions: u64,
    /// Live entries right now.
    pub entries: u64,
    /// Bytes held right now (bodies plus per-entry overhead).
    pub bytes: u64,
    /// Configured byte budget (0 = disabled).
    pub budget_bytes: u64,
}

/// Bounded, version-keyed result cache. See the module docs for the
/// invalidation contract.
pub struct QueryCache {
    state: Mutex<State>,
    registry: Registry,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    insertions: Arc<Counter>,
}

impl QueryCache {
    /// A cache with the given byte budget (0 disables caching: gets
    /// miss silently, puts are dropped, counters stay at zero).
    pub fn new(budget_bytes: u64) -> Self {
        let registry = Registry::new();
        QueryCache {
            state: Mutex::new(State {
                budget: budget_bytes,
                ..State::default()
            }),
            hits: registry.counter("d3l_cache_hits_total", "Query-result cache hits.", &[]),
            misses: registry.counter("d3l_cache_misses_total", "Query-result cache misses.", &[]),
            evictions: registry.counter(
                "d3l_cache_evictions_total",
                "Query-result cache evictions.",
                &[],
            ),
            insertions: registry.counter(
                "d3l_cache_insertions_total",
                "Query-result cache insertions.",
                &[],
            ),
            registry,
        }
    }

    /// The registry holding the cache's counters, for `/metrics`.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Whether caching is enabled at all.
    pub fn enabled(&self) -> bool {
        self.lock().budget > 0
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // The state is consistent between operations; a poisoning
        // panic cannot leave a torn map.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Look a rendered body up. Counts a hit or a miss unless the
    /// cache is disabled (disabled lookups are silent, so hit-rate
    /// arithmetic stays meaningful).
    pub fn get(&self, key: &CacheKey) -> Option<Arc<str>> {
        let mut state = self.lock();
        if state.budget == 0 {
            return None;
        }
        let body = state.map.get_mut(key).map(|entry| {
            entry.referenced = true;
            entry.body.clone()
        });
        drop(state);
        match body {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        body
    }

    /// Store a rendered body. Dropped when the cache is disabled,
    /// when the key's version is no longer live, or when the body
    /// alone exceeds the whole budget.
    pub fn put(&self, key: CacheKey, body: Arc<str>) {
        let bytes = body.len() as u64 + ENTRY_OVERHEAD;
        let mut state = self.lock();
        if key.version != state.live_version || bytes > state.budget {
            return;
        }
        // A fresh key earns a ring slot; an overwrite reuses the slot
        // the key already holds (the ring never carries duplicates).
        let entry = Entry {
            body,
            bytes,
            referenced: false,
        };
        match state.map.insert(key, entry) {
            Some(old) => state.bytes -= old.bytes,
            None => state.ring.push_back(key),
        }
        state.bytes += bytes;
        let budget = state.budget;
        let evicted = state.evict_to(budget);
        drop(state);
        self.insertions.inc();
        self.evictions.add(evicted);
    }

    /// Advance the live version and drop every entry keyed at any
    /// other version. Called by the hot-swap on every mutation; the
    /// scan is over whatever the byte budget holds, which a mutation
    /// (an engine clone plus a durable write) dwarfs.
    pub fn purge_stale(&self, live_version: u64) {
        let mut state = self.lock();
        state.live_version = live_version;
        let mut freed = 0;
        state.map.retain(|key, entry| {
            let keep = key.version == live_version;
            if !keep {
                freed += entry.bytes;
            }
            keep
        });
        state.bytes -= freed;
        state.ring.retain(|key| key.version == live_version);
    }

    /// Change the byte budget at runtime; shrinking evicts down to
    /// the new budget immediately, 0 disables and clears.
    pub fn set_budget(&self, budget_bytes: u64) {
        let mut state = self.lock();
        state.budget = budget_bytes;
        let evicted = state.evict_to(budget_bytes);
        drop(state);
        self.evictions.add(evicted);
    }

    /// Drop every entry (counters are kept; an explicit clear is an
    /// operator action, not an eviction).
    pub fn clear(&self) {
        let mut state = self.lock();
        state.map.clear();
        state.ring.clear();
        state.bytes = 0;
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            insertions: self.insertions.get(),
            entries: state.map.len() as u64,
            bytes: state.bytes,
            budget_bytes: state.budget,
        }
    }
}

/// Two independent FNV-1a streams over the same feed — a cheap
/// 128-bit fingerprint. The second stream is salted so the pair never
/// degenerates into one hash written twice.
struct Fingerprint {
    a: Fnv1a,
    b: Fnv1a,
}

impl Fingerprint {
    fn new() -> Self {
        let mut b = Fnv1a::new();
        // Any fixed salt decorrelates the streams; golden-ratio bytes
        // are as good as any.
        b.write(&0x9e3779b97f4a7c15u64.to_le_bytes());
        Fingerprint { a: Fnv1a::new(), b }
    }

    fn write(&mut self, bytes: &[u8]) {
        self.a.write(bytes);
        self.b.write(bytes);
    }

    /// Length-prefix a variable-length field so adjacent fields can
    /// never alias (`"ab","c"` vs `"a","bc"`).
    fn write_str(&mut self, s: &str) {
        self.write(&(s.len() as u64).to_le_bytes());
        self.write(s.as_bytes());
    }

    fn finish(self) -> [u64; 2] {
        [self.a.finish(), self.b.finish()]
    }
}

/// 128-bit content fingerprint of a target table: name, column names
/// and every cell, all length-prefixed. Linear in the table size —
/// orders of magnitude cheaper than profiling the table, which is
/// what a hit skips.
pub fn table_fingerprint(table: &Table) -> [u64; 2] {
    let mut fp = Fingerprint::new();
    fp.write_str(table.name());
    fp.write(&(table.arity() as u64).to_le_bytes());
    for column in table.columns() {
        fp.write_str(column.name());
        fp.write(&(column.values().len() as u64).to_le_bytes());
        for value in column.values() {
            fp.write_str(value);
        }
    }
    fp.finish()
}

/// Fingerprint of every [`QueryOptions`] member that can change the
/// rendered result: `exclude`, `evidence` and `weights`. `threads` and
/// `trace` are excluded on purpose —
/// results are byte-identical at every thread count and tracing is
/// pure observation, so latency/observability knobs must not split
/// cache entries.
pub fn options_fingerprint(opts: &QueryOptions) -> u64 {
    let mut h = Fnv1a::new();
    match opts.exclude {
        None => h.write_byte(0),
        Some(id) => {
            h.write_byte(1);
            h.write(&(id.0 as u64).to_le_bytes());
        }
    }
    match opts.evidence {
        None => h.write_byte(0),
        Some(e) => {
            h.write_byte(1);
            h.write_byte(e.index() as u8);
        }
    }
    match &opts.weights {
        None => h.write_byte(0),
        Some(w) => {
            h.write_byte(1);
            for component in w.0 {
                h.write(&component.to_bits().to_le_bytes());
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::Evidence;
    use d3l_table::TableId;

    fn key(n: u64, version: u64) -> CacheKey {
        CacheKey {
            target: [n, n.wrapping_mul(31)],
            k: 10,
            opts: 0,
            version,
        }
    }

    fn body(len: usize) -> Arc<str> {
        "x".repeat(len).into()
    }

    #[test]
    fn hit_after_put_and_counters() {
        let cache = QueryCache::new(1 << 20);
        assert_eq!(cache.get(&key(1, 0)), None);
        cache.put(key(1, 0), body(100));
        assert_eq!(cache.get(&key(1, 0)).as_deref(), Some(&*body(100)));
        // Different k / opts / version are different entries.
        assert_eq!(cache.get(&CacheKey { k: 5, ..key(1, 0) }), None);
        assert_eq!(
            cache.get(&CacheKey {
                opts: 7,
                ..key(1, 0)
            }),
            None
        );
        assert_eq!(cache.get(&key(1, 1)), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes >= 100);
    }

    #[test]
    fn disabled_cache_is_silent() {
        let cache = QueryCache::new(0);
        assert!(!cache.enabled());
        cache.put(key(1, 0), body(10));
        assert_eq!(cache.get(&key(1, 0)), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (0, 0, 0));
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn eviction_respects_budget_and_recency() {
        // Room for three entries: the touched entry's referenced bit
        // buys it a second chance, so the oldest untouched one goes
        // first.
        let per_entry = ENTRY_OVERHEAD + 200;
        let cache = QueryCache::new(per_entry * 3);
        for n in 0..3 {
            cache.put(key(n, 0), body(200));
        }
        assert_eq!(cache.stats().entries, 3);
        assert!(cache.get(&key(0, 0)).is_some());
        cache.put(key(3, 0), body(200));
        assert_eq!(cache.stats().evictions, 1);
        assert!(
            cache.get(&key(1, 0)).is_none(),
            "oldest untouched entry evicted"
        );
        assert!(cache.get(&key(0, 0)).is_some(), "touched entry survives");
        assert!(cache.get(&key(2, 0)).is_some());
        assert!(cache.get(&key(3, 0)).is_some(), "new entry present");
        assert!(cache.stats().bytes <= per_entry * 3);
    }

    #[test]
    fn eviction_work_is_amortized_constant() {
        // A sweep that rescanned the map per evicted entry would cost
        // O(entries × evictions); the clock sweep's total steps are
        // bounded by insertions plus the referenced bits hits set,
        // plus the entries each sweep actually evicts — amortized
        // O(1) per operation. Drive the cache far past its budget with
        // interleaved hits and bound the meter.
        let cache = QueryCache::new((ENTRY_OVERHEAD + 200) * 4);
        let keys: Vec<CacheKey> = (0..256).map(|n| key(n, 0)).collect();
        let mut hits = 0u64;
        for (i, k) in keys.iter().enumerate() {
            cache.put(*k, body(200));
            // Touch an older key now and then so second chances occur.
            if i % 2 == 0 && cache.get(&keys[i / 2]).is_some() {
                hits += 1;
            }
        }
        let stats = cache.stats();
        assert!(
            stats.evictions >= 200,
            "workload must actually churn: {} evictions",
            stats.evictions
        );
        let scanned = cache.lock().scanned;
        let bound = keys.len() as u64 + hits + stats.evictions;
        assert!(
            scanned <= bound,
            "sweep steps ({scanned}) must stay within insertions + hits + evictions ({bound}), \
             not degrade to entries × evictions"
        );
    }

    #[test]
    fn oversized_bodies_are_not_cached() {
        let cache = QueryCache::new(1024);
        cache.put(key(1, 0), body(1024));
        assert_eq!(cache.stats().entries, 0, "one byte over the whole budget");
        cache.put(key(2, 0), body(1024 - ENTRY_OVERHEAD as usize));
        assert_eq!(cache.stats().entries, 1, "exactly the whole budget");
    }

    #[test]
    fn a_body_up_to_the_whole_budget_is_cached() {
        // 600 KiB of a 1 MiB budget: only a body above the whole
        // budget is refused.
        let cache = QueryCache::new(1 << 20);
        cache.put(key(1, 0), body(600 << 10));
        assert_eq!(cache.get(&key(1, 0)).map(|b| b.len()), Some(600 << 10));
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn purge_drops_stale_versions_and_guards_inserts() {
        let cache = QueryCache::new(1 << 20);
        cache.put(key(1, 0), body(10));
        cache.put(key(2, 0), body(10));
        cache.purge_stale(1);
        assert_eq!(cache.stats().entries, 0, "old-version entries dropped");
        // A slow reader trying to insert against the swapped-out
        // version is refused.
        cache.put(key(3, 0), body(10));
        assert_eq!(cache.stats().entries, 0);
        cache.put(key(3, 1), body(10));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn set_budget_shrinks_and_disables() {
        let cache = QueryCache::new(1 << 20);
        for n in 0..64 {
            cache.put(key(n, 0), body(128));
        }
        assert!(cache.stats().entries > 0);
        cache.set_budget(0);
        assert_eq!(cache.stats().entries, 0);
        assert!(!cache.enabled());
        cache.put(key(1, 0), body(10));
        assert_eq!(cache.get(&key(1, 0)), None);
    }

    #[test]
    fn clear_empties_without_counting_evictions() {
        let cache = QueryCache::new(1 << 20);
        cache.put(key(1, 0), body(10));
        let evictions_before = cache.stats().evictions;
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().bytes, 0);
        assert_eq!(cache.stats().evictions, evictions_before);
    }

    #[test]
    fn table_fingerprint_separates_contents() {
        let t = |name: &str, cols: &[&str], rows: &[Vec<String>]| {
            Table::from_rows(name, cols, rows).unwrap()
        };
        let base = t("a", &["x", "y"], &[vec!["1".into(), "2".into()]]);
        let fp = table_fingerprint(&base);
        assert_eq!(fp, table_fingerprint(&base.clone()), "deterministic");
        // Field-boundary aliasing: same concatenation, different split.
        let shifted = t("a", &["xy", ""], &[vec!["12".into(), "".into()]]);
        assert_ne!(fp, table_fingerprint(&shifted));
        assert_ne!(
            fp,
            table_fingerprint(&t("b", &["x", "y"], &[vec!["1".into(), "2".into()]]))
        );
        assert_ne!(
            fp,
            table_fingerprint(&t("a", &["x", "y"], &[vec!["1".into(), "3".into()]]))
        );
    }

    #[test]
    fn options_fingerprint_covers_result_affecting_members() {
        let base = QueryOptions::default();
        let fp = options_fingerprint(&base);
        assert_eq!(fp, options_fingerprint(&QueryOptions::default()));
        // Threads must NOT split entries.
        assert_eq!(
            fp,
            options_fingerprint(&QueryOptions {
                threads: Some(8),
                ..Default::default()
            })
        );
        // Neither must an attached stage trace: tracing is pure
        // observation, so traced and untraced runs share entries.
        assert_eq!(
            fp,
            options_fingerprint(&QueryOptions {
                trace: Some(crate::trace::QueryTrace::new()),
                ..Default::default()
            })
        );
        assert_ne!(
            fp,
            options_fingerprint(&QueryOptions {
                exclude: Some(TableId(3)),
                ..Default::default()
            })
        );
        assert_ne!(
            fp,
            options_fingerprint(&QueryOptions {
                evidence: Some(Evidence::Value),
                ..Default::default()
            })
        );
        assert_ne!(
            fp,
            options_fingerprint(&QueryOptions {
                weights: Some(crate::weights::EvidenceWeights::uniform()),
                ..Default::default()
            })
        );
    }
}
