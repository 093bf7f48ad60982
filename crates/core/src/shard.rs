//! The partitioned engine: N shards, one lake, monolith-identical
//! answers.
//!
//! [`ShardedD3l`] splits the lake across `D3lConfig::shards` complete
//! [`D3l`] engines. Tables are assigned to shards by a stable
//! fingerprint of the table name, and every shard keeps its slot
//! vector *dense over global table ids* — the ids other shards own are
//! holes (`D3l::push_hole`), so an `AttrRef` read out of any shard's
//! forest is already a global reference and no id translation exists
//! anywhere. The payoff is in maintenance: a mutation clones and
//! rewrites only the owning shard — O(lake/N) work and snapshot bytes
//! — while the other N−1 shards stay byte-for-byte untouched.
//!
//! Queries scatter and gather without approximation:
//!
//! 1. **Candidate generation** runs the *monolith* forest descent over
//!    the shard set via [`d3l_lsh::forest::query_union`] — the union
//!    of the shards' per-tree prefix ranges is exactly the monolith
//!    range, and the widening stop is driven by the global candidate
//!    count, so the candidate sets match the monolith's exactly.
//! 2. **Pairwise scoring** routes each profile/signature lookup to the
//!    owning shard and feeds the shared scoring core
//!    (`pair_distances_resolved`), which never sees index state.
//! 3. **Aggregation** is the shared `stage_aggregate`, which only sees
//!    the scored pair lists.
//!
//! Nothing in the pipeline depends on N, so rankings are
//! **byte-identical at every shard count** (and still at every thread
//! count) — the determinism suite pins both axes at once.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use d3l_embedding::SemanticEmbedder;
use d3l_lsh::forest::{query_union, LshForest};
use d3l_lsh::hash::hash_str;
use d3l_lsh::minhash::MinHashSignature;
use d3l_lsh::randproj::BitSignature;
use d3l_table::{DataLake, Table, TableId};

use crate::config::D3lConfig;
use crate::evidence::Evidence;
use crate::index::{AttrRef, AttrSignatures, D3l, MemoryFootprint};
use crate::profile::AttributeProfile;
use crate::query::{
    pair_distances_resolved, par_map, stage_aggregate, subjects_related_resolved, PreparedTarget,
    QueryOptions, TableMatch,
};

/// The shard that owns a table named `name` in an `n`-shard engine.
/// Stable across processes and runs: FNV-1a of the name, mod `n`.
pub fn shard_of_name(name: &str, n: usize) -> usize {
    debug_assert!(n > 0, "shard count must be positive");
    (hash_str(name) % n as u64) as usize
}

/// An N-shard [`D3l`] engine with monolith-identical query results.
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

    /// Wrap an existing monolithic engine as a one-shard engine.
    pub fn from_monolith(mut d3l: D3l) -> Self {
        d3l.cfg.shards = 1;
        ShardedD3l {
            shards: vec![Arc::new(d3l)],
        }
    }

    /// Partition a monolithic engine into `n` shards. Each shard gets
    /// the slots it owns (by [`shard_of_name`]), holes elsewhere, and
    /// four forests rebuilt from the monolith's stored signatures —
    /// bit-identical to having inserted only the owned attributes.
    /// Removal tombstones follow their name to the owning shard.
    pub fn split(d3l: D3l, n: usize) -> Self {
        assert!(n > 0, "shard count must be positive");
        if n == 1 {
            return Self::from_monolith(d3l);
        }
        let owner: Vec<Option<usize>> = (0..d3l.table_count())
            .map(|i| {
                let id = TableId(i as u32);
                if d3l.is_hole(id) {
                    None
                } else {
                    Some(shard_of_name(&d3l.names[i], n))
                }
            })
            .collect();
        let mut cfg = d3l.cfg.clone();
        cfg.shards = n;
        let shards = (0..n)
            .map(|s| {
                // Dense over global ids up to this shard's last owned
                // slot — shorter vectors mean adds elsewhere never
                // touch this shard's snapshot.
                let slots = owner
                    .iter()
                    .rposition(|&o| o == Some(s))
                    .map_or(0, |i| i + 1);
                let mut shard = D3l {
                    cfg: cfg.clone(),
                    embedder: d3l.embedder.clone(),
                    minhasher: d3l.minhasher.clone(),
                    projector: d3l.projector.clone(),
                    i_n: Self::partition_forest(&d3l.i_n, cfg.num_perm, &cfg, &owner, s),
                    i_v: Self::partition_forest(&d3l.i_v, cfg.num_perm, &cfg, &owner, s),
                    i_f: Self::partition_forest(&d3l.i_f, cfg.num_perm, &cfg, &owner, s),
                    i_e: Self::partition_forest(&d3l.i_e, cfg.embed_bits, &cfg, &owner, s),
                    profiles: Vec::with_capacity(slots),
                    subjects: Vec::with_capacity(slots),
                    names: Vec::with_capacity(slots),
                    arities: Vec::with_capacity(slots),
                    removed: Vec::with_capacity(slots),
                };
                for (i, &slot_owner) in owner.iter().enumerate().take(slots) {
                    if slot_owner == Some(s) {
                        shard.names.push(d3l.names[i].clone());
                        shard.arities.push(d3l.arities[i]);
                        shard.subjects.push(d3l.subjects[i]);
                        shard.profiles.push(d3l.profiles[i].clone());
                        shard.removed.push(d3l.removed[i]);
                    } else {
                        shard.push_hole();
                    }
                }
                Arc::new(shard)
            })
            .collect();
        ShardedD3l { shards }
    }

    /// One shard's slice of a forest: the items whose owning table
    /// maps to shard `s`, rebuilt into a committed forest. Trees sort
    /// a total `(label, id)` order, so the result is independent of
    /// iteration order and identical to incremental insertion.
    fn partition_forest<S: d3l_lsh::signature::Signature>(
        full: &LshForest<S>,
        sig_len: usize,
        cfg: &D3lConfig,
        owner: &[Option<usize>],
        s: usize,
    ) -> LshForest<S> {
        let mut part = LshForest::new(sig_len, cfg.trees);
        for key in full.ids() {
            if owner[AttrRef::from_key(key).table.index()] != Some(s) {
                continue;
            }
            let words = full
                .signature_words(key)
                .expect("forest id without signature");
            part.insert_with(key, (words.len(), full.sig_meta()), |slot| {
                slot.copy_from_slice(words)
            });
        }
        part.commit_parallel(cfg.effective_threads());
        part
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
    fn primary(&self) -> &D3l {
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

    /// Profile of one attribute (owner-routed).
    pub fn profile(&self, attr: AttrRef) -> &AttributeProfile {
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

    /// Per-shard memory accounting, for diagnostics and `/stats`.
    pub fn shard_byte_sizes(&self) -> Vec<MemoryFootprint> {
        self.shards.iter().map(|s| s.byte_size()).collect()
    }

    // -------------------------------------------------- query path

    /// Stage 1 entry point; targets are profiled with shard 0's
    /// hashers, which every shard shares.
    pub fn prepare_target(&self, target: &Table) -> PreparedTarget {
        self.primary().prepare_target(target)
    }

    /// Prepare an already-indexed table as a query target
    /// (owner-routed; see [`D3l::prepare_indexed`]).
    pub fn prepare_indexed(&self, id: TableId) -> Option<PreparedTarget> {
        let s = self.owner_of(id)?;
        self.shards[s].prepare_indexed(id)
    }

    /// The k-most related lake tables to `target` with default
    /// options — byte-identical to the monolith's answer.
    pub fn query(&self, target: &Table, k: usize) -> Vec<TableMatch> {
        self.query_with(target, k, &QueryOptions::default())
    }

    /// The k-most related lake tables with explicit options.
    pub fn query_with(&self, target: &Table, k: usize, opts: &QueryOptions) -> Vec<TableMatch> {
        self.query_prepared(&self.prepare_target(target), k, opts)
    }

    /// [`ShardedD3l::query_with`] over an already-prepared target.
    pub fn query_prepared(
        &self,
        prepared: &PreparedTarget,
        k: usize,
        opts: &QueryOptions,
    ) -> Vec<TableMatch> {
        let width = opts
            .lookup_width
            .unwrap_or_else(|| self.config().lookup_width(k));
        let mut all = self.rank_all_prepared(prepared, width, opts);
        all.truncate(k);
        all
    }

    /// Rank every table with at least one related attribute, closest
    /// first.
    pub fn rank_all(&self, target: &Table, width: usize, opts: &QueryOptions) -> Vec<TableMatch> {
        self.rank_all_prepared(&self.prepare_target(target), width, opts)
    }

    /// [`ShardedD3l::rank_all`] over an already-prepared target.
    pub fn rank_all_prepared(
        &self,
        prepared: &PreparedTarget,
        width: usize,
        opts: &QueryOptions,
    ) -> Vec<TableMatch> {
        let threads = self.config().effective_query_threads(opts.threads);
        self.rank_all_inner(prepared, width, opts, threads)
    }

    /// Top-k answers for many targets at once (see
    /// [`D3l::query_batch`]); batched and per-target results are
    /// identical at every shard and thread count.
    pub fn query_batch(&self, targets: &[Table], k: usize) -> Vec<Vec<TableMatch>> {
        let opts = vec![QueryOptions::default(); targets.len()];
        self.query_batch_with(targets, k, &opts)
    }

    /// [`ShardedD3l::query_batch`] with per-target options.
    pub fn query_batch_with(
        &self,
        targets: &[Table],
        k: usize,
        opts: &[QueryOptions],
    ) -> Vec<Vec<TableMatch>> {
        assert_eq!(targets.len(), opts.len(), "one QueryOptions per target");
        let work: Vec<(&Table, &QueryOptions)> = targets.iter().zip(opts).collect();
        let (outer, inner) = self.batch_threads(work.len());
        par_map(&work, outer, |&(target, opt)| {
            let width = opt
                .lookup_width
                .unwrap_or_else(|| self.config().lookup_width(k));
            let prepared = self.prepare_target(target);
            let mut all = self.rank_all_inner(&prepared, width, opt, inner);
            all.truncate(k);
            all
        })
    }

    /// The set of lake tables related to `target` by at least one
    /// evidence type, unioned across shards.
    pub fn related_table_set(&self, target: &Table, width: usize) -> HashSet<TableId> {
        self.related_table_set_prepared(&self.prepare_target(target), width)
    }

    /// [`ShardedD3l::related_table_set`] over a prepared target.
    pub fn related_table_set_prepared(
        &self,
        prepared: &PreparedTarget,
        width: usize,
    ) -> HashSet<TableId> {
        let threads = self.config().effective_query_threads(None);
        let work: Vec<(&AttributeProfile, &AttrSignatures)> =
            prepared.profiles.iter().zip(&prepared.sigs).collect();
        par_map(&work, threads, |&(tp, ts)| {
            self.gather_candidates(tp, ts, width, None)
        })
        .into_iter()
        .flatten()
        .map(|attr| attr.table)
        .collect()
    }

    /// Same thread-budget split as [`D3l::query_batch_with`].
    fn batch_threads(&self, batch_len: usize) -> (usize, usize) {
        let budget = self.config().effective_query_threads(None);
        let outer = budget.min(batch_len.max(1));
        let inner = (budget / outer.max(1)).max(1);
        (outer, inner)
    }

    /// The scatter-gather pipeline over one prepared target: shard-set
    /// candidate generation, owner-routed scoring, shared aggregation.
    fn rank_all_inner(
        &self,
        prepared: &PreparedTarget,
        width: usize,
        opts: &QueryOptions,
        threads: usize,
    ) -> Vec<TableMatch> {
        let mut timer = crate::trace::StageTimer::start(opts.trace.as_deref());
        let candidates = self.stage_candidates(prepared, width, opts, threads);
        timer.candidates_done();
        let scored = self.stage_score(prepared, &candidates, threads, opts.trace.as_deref());
        timer.score_done();
        let ranked = stage_aggregate(&scored, opts);
        timer.aggregate_done();
        ranked
    }

    /// Stage 1 over the shard set — the monolith's per-attribute
    /// lookup with each forest read replaced by the shard-union
    /// descent.
    fn stage_candidates(
        &self,
        prepared: &PreparedTarget,
        width: usize,
        opts: &QueryOptions,
        threads: usize,
    ) -> Vec<Vec<AttrRef>> {
        let work: Vec<(&AttributeProfile, &AttrSignatures)> =
            prepared.profiles.iter().zip(&prepared.sigs).collect();
        par_map(&work, threads, |&(tp, ts)| {
            let mut cands: Vec<AttrRef> = self
                .gather_candidates(tp, ts, width, opts.evidence)
                .into_iter()
                .filter(|attr| opts.exclude != Some(attr.table))
                .collect();
            cands.sort_unstable_by_key(|a| a.key());
            cands
        })
    }

    /// Look up one target attribute in every shard's indexes at once.
    /// [`query_union`] runs the monolith descent over the union of the
    /// shards' trees, so the result matches a single-forest lookup
    /// over the whole lake exactly — including the candidate-count
    /// widening stop and the fallback scan.
    fn gather_candidates(
        &self,
        tp: &AttributeProfile,
        ts: &AttrSignatures,
        width: usize,
        only: Option<Evidence>,
    ) -> HashSet<AttrRef> {
        let want = |e: Evidence| match only {
            None => true,
            Some(Evidence::Distribution) => matches!(e, Evidence::Name | Evidence::Format),
            Some(x) => x == e,
        };
        let mut out = HashSet::new();
        if want(Evidence::Name) && !tp.qset.is_empty() {
            let forests: Vec<&LshForest<MinHashSignature>> =
                self.shards.iter().map(|s| &s.i_n).collect();
            for h in query_union(&forests, &ts.name, width) {
                out.insert(AttrRef::from_key(h.id));
            }
        }
        if want(Evidence::Format) && !tp.rset.is_empty() {
            let forests: Vec<&LshForest<MinHashSignature>> =
                self.shards.iter().map(|s| &s.i_f).collect();
            for h in query_union(&forests, &ts.format, width) {
                out.insert(AttrRef::from_key(h.id));
            }
        }
        if want(Evidence::Value) && tp.has_text() {
            let forests: Vec<&LshForest<MinHashSignature>> =
                self.shards.iter().map(|s| &s.i_v).collect();
            for h in query_union(&forests, &ts.value, width) {
                out.insert(AttrRef::from_key(h.id));
            }
        }
        if want(Evidence::Embedding) && tp.has_embedding() {
            let forests: Vec<&LshForest<BitSignature>> =
                self.shards.iter().map(|s| &s.i_e).collect();
            for h in query_union(&forests, &ts.embedding, width) {
                out.insert(AttrRef::from_key(h.id));
            }
        }
        out
    }

    /// Stage 2 — the monolith's pairwise scoring with every index
    /// lookup routed to the owning shard. Work lists, iteration
    /// orders and the scoring core are the monolith's, so the scored
    /// pairs are bit-identical.
    fn stage_score(
        &self,
        prepared: &PreparedTarget,
        candidates: &[Vec<AttrRef>],
        threads: usize,
        trace: Option<&crate::trace::QueryTrace>,
    ) -> Vec<Vec<(AttrRef, crate::distance::DistanceVector)>> {
        let guards = self.subject_guards(prepared, candidates, threads);
        let work: Vec<(usize, AttrRef)> = candidates
            .iter()
            .enumerate()
            .flat_map(|(i, cands)| cands.iter().map(move |&attr| (i, attr)))
            .collect();
        let threshold = self.config().threshold;
        // Fallback signatures are seed-derived from the shared config,
        // so one shard's are every shard's.
        let fallbacks = self.shards[0].sig_fallbacks();
        let scored = par_map(&work, threads, |&(i, attr)| {
            let owner = self.owner_of(attr.table).expect("candidate has an owner");
            let shard = &self.shards[owner];
            // Per-pair attribution only when traced: the scoring
            // stage is the one place work belongs to a single shard.
            let start = trace.map(|_| std::time::Instant::now());
            let sp = shard.profile(attr);
            let ss = shard.stored_signatures_ref(attr, &fallbacks);
            let guard_subject = guards.get(&attr.table).copied().unwrap_or(false);
            let dv = pair_distances_resolved(
                &prepared.profiles[i],
                &prepared.sigs[i],
                sp,
                ss,
                guard_subject,
                threshold,
            );
            if let (Some(t), Some(s)) = (trace, start) {
                t.add_shard_ns(owner, s.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
            dv
        });
        let mut out: Vec<Vec<(AttrRef, crate::distance::DistanceVector)>> =
            vec![Vec::new(); candidates.len()];
        for (&(i, attr), dv) in work.iter().zip(scored) {
            if dv.has_signal() {
                out[i].push((attr, dv));
            }
        }
        out
    }

    /// Algorithm 2 line 4 precomputation, owner-routed (see
    /// `D3l::subject_guards`).
    fn subject_guards(
        &self,
        prepared: &PreparedTarget,
        candidates: &[Vec<AttrRef>],
        threads: usize,
    ) -> HashMap<TableId, bool> {
        let mut tables: std::collections::BTreeSet<TableId> = Default::default();
        for (i, cands) in candidates.iter().enumerate() {
            if !prepared.profiles[i].is_numeric {
                continue;
            }
            for attr in cands {
                if self.profile(*attr).is_numeric {
                    tables.insert(attr.table);
                }
            }
        }
        let threshold = self.config().threshold;
        let fallbacks = self.shards[0].sig_fallbacks();
        let tables: Vec<TableId> = tables.into_iter().collect();
        let guards = par_map(&tables, threads, |&t| {
            let shard = &self.shards[self.owner_of(t).expect("candidate has an owner")];
            let ss = shard
                .subject_of(t)
                .map(|s_attr| shard.stored_signatures_ref(s_attr, &fallbacks));
            subjects_related_resolved(prepared, ss, threshold)
        });
        tables.into_iter().zip(guards).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let target = lake.table(TableId(3)).clone();
        let expect = mono.query(&target, 6);
        let expect_all = mono.rank_all(&target, 30, &QueryOptions::default());
        for n in [1usize, 2, 3, 8] {
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
                mono.related_table_set(&target, 30),
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
            sizes
                .iter()
                .map(|f| f.total() - f.profile_bytes)
                .sum::<usize>()
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
        assert_matches_identical(&mono.query(&target, 5), &sharded.query(&target, 5));
    }

    #[test]
    fn batch_queries_match_per_target_queries_at_every_shard_count() {
        let lake = lake(8);
        let mono = D3l::index_lake(&lake, cfg());
        let targets: Vec<Table> = (0..3).map(|i| lake.table(TableId(i)).clone()).collect();
        let expect = mono.query_batch(&targets, 4);
        for n in [2usize, 5] {
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
