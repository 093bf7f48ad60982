//! The engine: one lake partitioned over N shards, and the routing
//! that lets the query pipeline ([`crate::query`]) read them as one.
//!
//! [`ShardedD3l`] splits the lake across `D3lConfig::shards`
//! partitions, each a [`D3l`]: four forests, an attribute table and a
//! store of its own. One shard holding every table is the N = 1 case, not a
//! separate implementation. Tables are assigned to shards by a stable
//! fingerprint of the table name, and every shard keeps its slot
//! vector *dense over global table ids* — the ids other shards own are
//! holes (`D3l::push_hole`), so an `AttrRef` read out of any shard's
//! forest is already a global reference and no id translation exists
//! anywhere. The payoff is in maintenance: a mutation clones and
//! rewrites only the owning shard — O(lake/N) work and snapshot bytes
//! — while the other N−1 shards stay byte-for-byte untouched.
//!
//! This module holds construction (build; [`ShardedD3l::split`], which
//! reads every table of a whole index back as the record it was pushed
//! as and pushes it into the shard that owns it; assemble from loaded
//! shards), the owner lookup and the owner-routed accessors.
//! Queries and the SA-join graph are `impl ShardedD3l` blocks in
//! [`crate::query`] and [`crate::join`]; nothing in them depends on N,
//! so answers are byte-identical at every shard count.

use std::collections::HashMap;
use std::sync::Arc;

use d3l_embedding::SemanticEmbedder;
use d3l_lsh::hash::hash_str;
use d3l_table::{DataLake, TableId};

use crate::config::D3lConfig;
use crate::index::{AttrRef, ClassStats, D3l, MemoryFootprint};
use crate::profile::AttrView;

/// The shard that owns a table named `name` in an `n`-shard engine.
/// Stable across processes and runs: FNV-1a of the name, mod `n`.
pub fn shard_of_name(name: &str, n: usize) -> usize {
    debug_assert!(n > 0, "shard count must be positive");
    (hash_str(name) % n as u64) as usize
}

/// The discovery engine: the lake's tables partitioned over N
/// [`D3l`] shards, queried as one index.
///
/// Shards sit behind `Arc` so the copy-on-write maintenance path
/// ([`crate::hotswap::EngineHandle`]) clones the engine cheaply (N
/// pointer bumps), deep-clones *only* the shard owning the mutated
/// table, and swaps the result in — concurrent readers keep their
/// consistent snapshot and the other shards' memory is shared, not
/// copied.
#[derive(Clone)]
pub struct ShardedD3l {
    shards: Vec<Arc<D3l>>,
}

impl std::fmt::Debug for ShardedD3l {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedD3l")
            .field("shards", &self.shards.len())
            .field("tables", &self.table_count())
            .field("live_tables", &self.live_table_count())
            .finish()
    }
}

impl ShardedD3l {
    // ------------------------------------------------- construction

    /// Index a lake into `cfg.shards` shards with a lexicon-free
    /// embedder.
    pub fn index_lake(lake: &DataLake, cfg: D3lConfig) -> Self {
        let shards = cfg.shards;
        Self::split(D3l::index_lake(lake, cfg), shards)
    }

    /// Index a lake into `cfg.shards` shards with the supplied
    /// word-embedding model.
    pub fn index_lake_with(lake: &DataLake, cfg: D3lConfig, embedder: SemanticEmbedder) -> Self {
        let shards = cfg.shards;
        Self::split(D3l::index_lake_with(lake, cfg, embedder), shards)
    }

    /// Index the `*.csv` files of a directory into `cfg.shards` shards
    /// without holding the lake ([`D3l::index_dir`]): what
    /// [`ShardedD3l::index_lake`] builds from the loaded directory.
    pub fn index_dir(
        dir: impl AsRef<std::path::Path>,
        cfg: D3lConfig,
    ) -> Result<Self, d3l_table::TableError> {
        let shards = cfg.shards;
        Ok(Self::split(D3l::index_dir(dir, cfg)?, shards))
    }

    /// The one-shard engine over a partition that holds every table.
    pub fn from_monolith(mut d3l: D3l) -> Self {
        d3l.cfg.shards = 1;
        ShardedD3l {
            shards: vec![Arc::new(d3l)],
        }
    }

    /// Partition a [`D3l`] holding every table into `n` shards: each
    /// table is read back as the record it was pushed as
    /// ([`D3l::signed_table`]) and pushed into the shard that owns it
    /// (by [`shard_of_name`]) at its id, holes in between — bit-identical
    /// to having indexed only the owned tables. Removal tombstones
    /// follow their name to the owning shard.
    pub fn split(d3l: D3l, n: usize) -> Self {
        assert!(n > 0, "shard count must be positive");
        if n == 1 {
            return Self::from_monolith(d3l);
        }
        let mut cfg = d3l.cfg.clone();
        cfg.shards = n;
        let mut shards: Vec<D3l> = (0..n).map(|_| d3l.empty_like(cfg.clone())).collect();
        for i in 0..d3l.table_count() {
            let id = TableId(i as u32);
            if d3l.is_hole(id) {
                continue;
            }
            // Dense over global ids up to this shard's last owned slot
            // — shorter vectors mean adds elsewhere never touch this
            // shard's snapshot.
            let shard = &mut shards[shard_of_name(d3l.table_name(id), n)];
            while shard.table_count() < i {
                shard.push_hole();
            }
            match d3l.signed_table(id) {
                Some(table) => shard.push(id, table),
                None => shard.push_tombstone(d3l.table_name(id)),
            }
        }
        let threads = cfg.effective_threads();
        shards.iter_mut().for_each(|shard| shard.commit(threads));
        Self::from_shards(shards)
    }

    /// Assemble an engine from per-shard instances (the loader path:
    /// one [`crate::snapshot::IndexStore`] per `shard-NN/` directory).
    /// Validates that the shards agree on how many of them there are.
    pub fn from_shards(shards: Vec<D3l>) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(
                s.cfg.shards,
                shards.len(),
                "shard {i} believes in {} shards, loaded {}",
                s.cfg.shards,
                shards.len()
            );
        }
        ShardedD3l {
            shards: shards.into_iter().map(Arc::new).collect(),
        }
    }

    // -------------------------------------------------- shard access

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard engines (read-only).
    pub fn shards(&self) -> &[Arc<D3l>] {
        &self.shards
    }

    /// The shard used for target profiling and config access. All
    /// shards share identical hashers and configuration; shard 0 is
    /// the designated representative.
    pub(crate) fn primary(&self) -> &D3l {
        &self.shards[0]
    }

    /// The shard owning table `id`: the one whose slot vector covers
    /// the id with a non-hole (live table or removal tombstone).
    /// `None` for ids no shard has seen.
    pub fn owner_of(&self, id: TableId) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| id.index() < s.table_count() && !s.is_hole(id))
    }

    /// The shard that owns (or would own) a table named `name`.
    pub fn shard_of(&self, name: &str) -> usize {
        shard_of_name(name, self.shards.len())
    }

    /// The global id the next added table receives: one past the
    /// highest slot any shard has allocated.
    pub fn next_table_id(&self) -> TableId {
        TableId(self.table_count() as u32)
    }

    /// Replace one shard (the copy-on-write maintenance path). The
    /// new shard must still agree on the shard count.
    pub fn with_shard(&self, s: usize, shard: D3l) -> Self {
        debug_assert_eq!(shard.cfg.shards, self.shards.len());
        let mut shards = self.shards.clone();
        shards[s] = Arc::new(shard);
        ShardedD3l { shards }
    }

    // ---------------------------------------------------- accessors

    /// Global slot count: one past the highest table id any shard
    /// owns (holes included, exactly like the monolith's count).
    pub fn table_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.table_count())
            .max()
            .unwrap_or(0)
    }

    /// Number of tables still serving across all shards.
    pub fn live_table_count(&self) -> usize {
        self.shards.iter().map(|s| s.live_table_count()).sum()
    }

    /// Name of an indexed table (owner-routed; panics for ids no
    /// shard owns, like the monolith's out-of-range indexing).
    pub fn table_name(&self, id: TableId) -> &str {
        let s = self.owner_of(id).expect("table id owned by no shard");
        self.shards[s].table_name(id)
    }

    /// Arity of an indexed table (owner-routed).
    pub fn table_arity(&self, id: TableId) -> usize {
        let s = self.owner_of(id).expect("table id owned by no shard");
        self.shards[s].table_arity(id)
    }

    /// Whether an id is a removal tombstone (or an id inside the
    /// allocated range that no shard owns).
    pub fn is_removed(&self, id: TableId) -> bool {
        if id.index() >= self.table_count() {
            return false;
        }
        match self.owner_of(id) {
            Some(s) => self.shards[s].is_removed(id),
            None => true,
        }
    }

    /// What the index keeps of one attribute beside its signatures
    /// (owner-routed).
    pub fn profile(&self, attr: AttrRef) -> AttrView<'_> {
        let s = self.owner_of(attr.table).expect("attr owned by no shard");
        self.shards[s].profile(attr)
    }

    /// Subject attribute of an indexed table, if any (owner-routed).
    pub fn subject_of(&self, id: TableId) -> Option<AttrRef> {
        let s = self.owner_of(id)?;
        self.shards[s].subject_of(id)
    }

    /// The configuration in effect (identical across shards).
    pub fn config(&self) -> &D3lConfig {
        self.primary().config()
    }

    /// Change the query-pipeline worker count on every shard.
    pub fn set_query_threads(&mut self, threads: usize) {
        for shard in &mut self.shards {
            Arc::make_mut(shard).set_query_threads(threads);
        }
    }

    /// The id of the live table named `name`, if there is one: what
    /// [`ShardedD3l::name_to_id`] maps it to. A name lives only in the
    /// shard [`ShardedD3l::shard_of`] routes it to, so this reads that
    /// shard's names and builds nothing.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.shards[self.shard_of(name)].table_id(name)
    }

    /// Map from table name to id across all shards (highest id wins
    /// for duplicate names, matching the monolith).
    pub fn name_to_id(&self) -> HashMap<&str, TableId> {
        let mut pairs: Vec<(TableId, &str)> = self
            .shards
            .iter()
            .flat_map(|s| s.name_to_id().into_iter().map(|(n, id)| (id, n)))
            .collect();
        pairs.sort_unstable_by_key(|(id, _)| *id);
        pairs.into_iter().map(|(id, n)| (n, id)).collect()
    }

    /// Total index byte footprint across shards.
    pub fn index_byte_size(&self) -> usize {
        self.shards.iter().map(|s| s.index_byte_size()).sum()
    }

    /// Aggregate memory accounting across shards.
    pub fn byte_size(&self) -> MemoryFootprint {
        MemoryFootprint::sum(&self.shard_byte_sizes())
    }

    /// How far each index pools its attributes, `(IN, IV, IF, IE)`,
    /// over all shards: attributes and classes summed (one signature
    /// held in two shards is a class in each), the largest class the
    /// largest of any shard.
    pub fn class_stats(&self) -> [ClassStats; 4] {
        let mut total = [ClassStats::default(); 4];
        for shard in &self.shards {
            for (acc, add) in total.iter_mut().zip(shard.class_stats()) {
                acc.add(add);
            }
        }
        total
    }

    /// Per-shard memory accounting, for diagnostics and `/stats`.
    pub fn shard_byte_sizes(&self) -> Vec<MemoryFootprint> {
        self.shards.iter().map(|s| s.byte_size()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{QueryOptions, TableMatch};
    use d3l_table::Table;

    fn lake(tables: usize) -> DataLake {
        let mut lake = DataLake::new();
        for t in 0..tables {
            let name = format!("table_{t:02}");
            let rows: Vec<Vec<String>> = (0..6)
                .map(|r| {
                    vec![
                        format!("entity_{}_{}", t % 4, r),
                        format!("{}", (t * 17 + r * 3) % 100),
                        format!("C{:03}-{}", (t + r) % 50, r % 5),
                    ]
                })
                .collect();
            lake.add(Table::from_rows(&name, &["name", "count", "code"], &rows).unwrap())
                .unwrap();
        }
        lake
    }

    fn cfg() -> D3lConfig {
        D3lConfig {
            index_threads: 2,
            query_threads: 2,
            ..D3lConfig::fast()
        }
    }

    fn assert_matches_identical(a: &[TableMatch], b: &[TableMatch]) {
        assert_eq!(a.len(), b.len(), "ranking lengths differ");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.table, y.table);
            assert_eq!(x.distance.to_bits(), y.distance.to_bits());
            for (dx, dy) in x.vector.0.iter().zip(&y.vector.0) {
                assert_eq!(dx.to_bits(), dy.to_bits());
            }
            assert_eq!(x.alignments.len(), y.alignments.len());
            for (ax, ay) in x.alignments.iter().zip(&y.alignments) {
                assert_eq!(ax.target_column, ay.target_column);
                assert_eq!(ax.source, ay.source);
                for (dx, dy) in ax.distances.0.iter().zip(&ay.distances.0) {
                    assert_eq!(dx.to_bits(), dy.to_bits());
                }
            }
        }
    }

    #[test]
    fn every_shard_count_matches_the_monolith() {
        let lake = lake(12);
        let mono = D3l::index_lake(&lake, cfg());
        let one = ShardedD3l::from_monolith(mono.clone());
        let target = lake.table(TableId(3)).clone();
        let expect = one.query(&target, 6);
        let expect_all = one.rank_all(&target, 30, &QueryOptions::default());
        for n in [2usize, 3, 5, 8] {
            let sharded = ShardedD3l::split(mono.clone(), n);
            assert_eq!(sharded.shard_count(), n);
            assert_eq!(sharded.table_count(), mono.table_count());
            assert_eq!(sharded.live_table_count(), mono.live_table_count());
            assert_matches_identical(&expect, &sharded.query(&target, 6));
            assert_matches_identical(
                &expect_all,
                &sharded.rank_all(&target, 30, &QueryOptions::default()),
            );
            assert_eq!(
                one.related_table_set(&target, 30),
                sharded.related_table_set(&target, 30)
            );
        }
    }

    #[test]
    fn shard_accessors_agree_with_the_monolith() {
        let lake = lake(9);
        let mono = D3l::index_lake(&lake, cfg());
        let sharded = ShardedD3l::split(mono.clone(), 4);
        for i in 0..mono.table_count() {
            let id = TableId(i as u32);
            assert_eq!(sharded.table_name(id), mono.table_name(id));
            assert_eq!(sharded.table_arity(id), mono.table_arity(id));
            assert_eq!(sharded.is_removed(id), mono.is_removed(id));
            assert_eq!(sharded.subject_of(id), mono.subject_of(id));
            let owner = sharded.owner_of(id).unwrap();
            assert_eq!(owner, sharded.shard_of(mono.table_name(id)));
        }
        assert_eq!(sharded.name_to_id(), mono.name_to_id());
        assert_eq!(sharded.index_byte_size(), {
            let sizes = sharded.shard_byte_sizes();
            let indexes = sizes.iter().flat_map(|f| f.indexes());
            indexes.map(|(_, index)| index.total()).sum::<usize>()
        });
    }

    #[test]
    fn tombstones_follow_their_name_to_the_owning_shard() {
        let lake = lake(10);
        let mut mono = D3l::index_lake(&lake, cfg());
        let victim = TableId(4);
        let victim_name = mono.table_name(victim).to_string();
        assert!(mono.remove_table(victim));
        let sharded = ShardedD3l::split(mono.clone(), 3);
        let owner = sharded.owner_of(victim).expect("tombstone keeps an owner");
        assert_eq!(owner, sharded.shard_of(&victim_name));
        assert!(sharded.is_removed(victim));
        assert_eq!(sharded.live_table_count(), mono.live_table_count());
        let target = lake.table(TableId(1)).clone();
        let one = ShardedD3l::from_monolith(mono.clone());
        assert_matches_identical(&one.query(&target, 5), &sharded.query(&target, 5));
    }

    #[test]
    fn batch_queries_match_per_target_queries_at_every_shard_count() {
        let lake = lake(8);
        let mono = D3l::index_lake(&lake, cfg());
        let targets: Vec<Table> = (0..3).map(|i| lake.table(TableId(i)).clone()).collect();
        let expect = ShardedD3l::from_monolith(mono.clone()).query_batch(&targets, 4);
        for n in [2usize, 3, 5, 8] {
            let sharded = ShardedD3l::split(mono.clone(), n);
            let got = sharded.query_batch(&targets, 4);
            assert_eq!(got.len(), expect.len());
            for (e, g) in expect.iter().zip(&got) {
                assert_matches_identical(e, g);
            }
        }
    }

    #[test]
    fn with_shard_shares_untouched_shards() {
        let lake = lake(6);
        let sharded = ShardedD3l::split(D3l::index_lake(&lake, cfg()), 3);
        let replacement = (*sharded.shards()[1]).clone();
        let swapped = sharded.with_shard(1, replacement);
        assert!(Arc::ptr_eq(&sharded.shards()[0], &swapped.shards()[0]));
        assert!(Arc::ptr_eq(&sharded.shards()[2], &swapped.shards()[2]));
        assert!(!Arc::ptr_eq(&sharded.shards()[1], &swapped.shards()[1]));
    }
}
