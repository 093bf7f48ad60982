//! Top-k discovery queries (§III-D) — an explicit three-stage
//! pipeline, run by [`ShardedD3l`] at every shard count.
//!
//! Given a target table, the query path runs:
//!
//! 1. **Candidate generation** — the target is signed once into a
//!    [`SignedTable`] (or, a lake member, read back as one) and each of
//!    its attributes is looked up in the four LSH indexes by its
//!    signature words. An index is one forest per shard, descended
//!    together by
//!    [`d3l_lsh::forest::query_union`], whose widening stop is driven
//!    by the lake-wide candidate count; per-attribute candidate sets
//!    are sorted by [`AttrRef::key`] so later stages iterate them in a
//!    fixed order.
//! 2. **Pairwise evidence scoring** — every (target attribute,
//!    candidate attribute) pair gets a full five-distance vector
//!    (Algorithm 2 guards the numeric KS case with a precomputed
//!    per-table subject guard). Both sides are read alike, as an
//!    [`AttrView`] and word slices: the target's from its record, a
//!    candidate's from its row in the shard that owns its table (the
//!    row names its class in each forest, so resolving it is array
//!    reads); the scoring itself sees no index state.
//! 3. **CCDF-weighted aggregation** — the scored pairs are sorted once
//!    by source table and grouped in one pass, aggregated column-wise
//!    with CCDF weights (Eq. 1–2, counted in sorted populations) and
//!    collapsed to a scalar by the weighted Euclidean norm (Eq. 3).
//!    Tables are returned closest-first.
//!
//! Stages 1 and 2 fan out over `std::thread::scope` workers
//! (`D3lConfig::query_threads`, overridable per query via
//! [`QueryOptions::threads`]; the `D3L_QUERY_THREADS` environment
//! variable stands in for the automatic count, 0); [`ShardedD3l::query_batch`] additionally
//! fans out over targets. Work is split into contiguous chunks
//! reassembled in input order and every reduction runs over key-sorted
//! data, and no stage depends on how tables are assigned to shards, so
//! results are **byte-identical at every thread count and every shard
//! count** — the determinism suite pins both axes at once.

use std::collections::{BTreeSet, HashMap, HashSet};

use d3l_lsh::forest::{query_union, LshForest};
use d3l_lsh::minhash::MinHashSignature;
use d3l_lsh::randproj::BitSignature;
use d3l_lsh::signature::Signature;
use d3l_lsh::{Hit, ItemId};
use d3l_table::{Table, TableId};

use crate::config::D3lConfig;
use crate::distance::DistanceVector;
use crate::evidence::Evidence;
use crate::index::{AttrRef, AttrSigsRef, SignedTable};
use crate::profile::AttrView;
use crate::shard::ShardedD3l;
use crate::weights::{aggregate_evidence, ccdf_weight, EvidenceWeights};

/// One aligned attribute pair within a [`TableMatch`].
#[derive(Debug, Clone)]
pub struct Alignment {
    /// Target attribute (column index in the query table).
    pub target_column: usize,
    /// The aligned source attribute.
    pub source: AttrRef,
    /// The five distances of the pair.
    pub distances: DistanceVector,
}

/// One ranked source table.
#[derive(Debug, Clone)]
pub struct TableMatch {
    /// The source table.
    pub table: TableId,
    /// Eq. 3 combined distance (or the single evidence's Eq. 1 value
    /// in single-evidence mode). Smaller is more related.
    pub distance: f64,
    /// The Eq. 1 per-evidence distance vector of the table pair.
    pub vector: DistanceVector,
    /// Best aligned source attribute per covered target attribute.
    pub alignments: Vec<Alignment>,
}

impl TableMatch {
    /// Target columns covered by at least one alignment.
    pub fn covered_targets(&self) -> HashSet<usize> {
        self.alignments.iter().map(|a| a.target_column).collect()
    }
}

/// Query-time options.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Exclude one lake table (used when the target itself is a lake
    /// member, as in the benchmark evaluation).
    pub exclude: Option<TableId>,
    /// Rank by a single evidence type (Experiment 1) instead of the
    /// Eq. 3 aggregate.
    pub evidence: Option<Evidence>,
    /// Evidence weights for Eq. 3; `None` uses the trained defaults.
    pub weights: Option<EvidenceWeights>,
    /// Per-query worker-thread override (`None` = the config's
    /// `query_threads`, or where that is 0 the `D3L_QUERY_THREADS` env
    /// var; `Some(0)` = all available CPUs). Ignored by
    /// the batch APIs, which split the config/env budget across
    /// targets themselves. Thread count never changes results, only
    /// latency.
    pub threads: Option<usize>,
    /// Optional stage-timing sink (see [`crate::trace`]). Like
    /// `threads`, tracing never affects results — it is excluded from
    /// [`crate::options_fingerprint`] so traced and untraced runs
    /// share cache entries — and when `None` the pipeline reads no
    /// clocks at all.
    pub trace: Option<std::sync::Arc<crate::trace::QueryTrace>>,
}

/// One attribute of a scored pair: what the index keeps of it and its
/// signature words — a target's from its [`SignedTable`], a lake
/// member's from its row and the arenas of the shard that owns it.
type Attr<'a> = (AttrView<'a>, AttrSigsRef<'a>);

/// Map `f` over `items` on up to `threads` scoped workers, returning
/// results in input order. Work is split into contiguous chunks whose
/// results are reassembled in spawn order, so the output — and every
/// float reduction downstream of it — is independent of the thread
/// count.
fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for batch in items.chunks(chunk) {
            let f = &f;
            handles.push(scope.spawn(move || batch.iter().map(f).collect::<Vec<R>>()));
        }
        for h in handles {
            out.extend(h.join().expect("query worker panicked"));
        }
    });
    out
}

/// Stage 3 — CCDF-weighted aggregation (Eq. 1–3) over stage 2's
/// `(target column, candidate, distances)` pairs of a target with
/// `columns` attributes: build the distance populations `R_t`, keep the
/// best pair per (source table, target attribute), aggregate
/// column-wise and collapse to the ranking. Sequential: each population
/// is sorted once, then the pairs are sorted in place by (table, target
/// column, key) and read in one pass — a table is a run of them, and
/// within it a target column is a run whose first lowest pick wins.
///
/// Reads no index state: it sees only the scored pairs, so the ranking
/// cannot depend on which shard a pair came from.
fn stage_aggregate(
    mut scored: Vec<(usize, AttrRef, DistanceVector)>,
    columns: usize,
    opts: &QueryOptions,
) -> Vec<TableMatch> {
    // ---- Distance populations R_t per target attribute --------
    let mut populations = vec![<[Vec<f64>; 5]>::default(); columns];
    for (i, _, dv) in &scored {
        for (pop, &d) in populations[*i].iter_mut().zip(&dv.0) {
            if d < 1.0 {
                pop.push(d);
            }
        }
    }
    for pop in populations.iter_mut().flatten() {
        pop.sort_unstable_by(f64::total_cmp);
    }

    // ---- Group by table: best pair per target attribute -------
    let pick = |dv: &DistanceVector| match opts.evidence {
        Some(e) => dv.get(e),
        None => dv.mean(),
    };
    scored.sort_unstable_by_key(|&(i, attr, _)| (attr.table, i, attr.column));
    let weights = opts.weights.unwrap_or_default();
    let mut pairs: Vec<(f64, f64)> = Vec::new();
    let mut matches: Vec<TableMatch> = scored
        .chunk_by(|a, b| a.1.table == b.1.table)
        .map(|run| {
            // A column's pairs are in key order, so a tie keeps the
            // lowest-key attribute.
            let alignments: Vec<Alignment> = run
                .chunk_by(|a, b| a.0 == b.0)
                .map(|column| {
                    let best = column[1..].iter().fold(&column[0], |best, pair| {
                        if pick(&best.2) <= pick(&pair.2) {
                            best
                        } else {
                            pair
                        }
                    });
                    let &(target_column, source, distances) = best;
                    Alignment {
                        target_column,
                        source,
                        distances,
                    }
                })
                .collect();

            // ---- Eq. 1 + Eq. 3 ------------------------------------
            let mut vector = DistanceVector::max_distant();
            for e in Evidence::ALL {
                let t = e.index();
                pairs.clear();
                pairs.extend(alignments.iter().filter_map(|a| {
                    let d = a.distances.0[t];
                    (d < 1.0).then(|| (d, ccdf_weight(d, &populations[a.target_column][t])))
                }));
                vector.0[t] = aggregate_evidence(&pairs);
            }
            let distance = match opts.evidence {
                Some(e) => vector.get(e),
                None => weights.combined_distance(&vector),
            };
            TableMatch {
                table: run[0].1.table,
                distance,
                vector,
                alignments,
            }
        })
        .collect();

    matches.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then_with(|| a.table.cmp(&b.table))
    });
    matches
}

/// Estimated similarity of two signatures of one index, when both
/// sides have one and the evidence (`has`: both sides' flag for it); 0
/// otherwise. An attribute an index does not cover has no words there
/// and a false flag.
fn similarity<S: Signature>(has: bool, a: Option<&[u64]>, b: Option<&[u64]>, meta: usize) -> f64 {
    match (a, b) {
        (Some(a), Some(b)) if has => S::similarity_words(a, b, meta as u64),
        _ => 0.0,
    }
}

/// The LSH similarity threshold (paper: 0.7, §V footnote 5) at which
/// Algorithm 2's guards count two attributes related.
const LSH_THRESHOLD: f64 = 0.7;

/// The five estimated distances of a (target attr, lake attr) pair
/// with both sides already resolved — Algorithm 2 decides whether KS
/// is computed. The resolution step (what the index keeps of the
/// attribute and its stored signature words, by [`AttrRef`], routed to
/// the owning shard) is the only part of pairwise scoring that touches
/// index state.
fn pair_distances_resolved(
    cfg: &D3lConfig,
    (tp, ts): Attr<'_>,
    (sp, ss): Attr<'_>,
    guard_subject: bool,
) -> DistanceVector {
    let jaccard = |has, a, b| similarity::<MinHashSignature>(has, a, b, cfg.num_perm);
    let d_n = 1.0 - jaccard(tp.has_name && sp.has_name, Some(ts.name), Some(ss.name));
    let d_v = 1.0 - jaccard(tp.has_text && sp.has_text, ts.value, ss.value);
    let has_f = tp.has_format && sp.has_format;
    let d_f = 1.0 - jaccard(has_f, Some(ts.format), Some(ss.format));
    let has_e = tp.has_embedding && sp.has_embedding;
    let d_e = 1.0 - similarity::<BitSignature>(has_e, ts.embedding, ss.embedding, cfg.embed_bits);

    // Algorithm 2: only both-numeric pairs get a KS measurement,
    // and only when blocked-in by existing evidence.
    let d_d = if tp.is_numeric && sp.is_numeric {
        let guard_name = 1.0 - d_n >= LSH_THRESHOLD;
        let guard_format = 1.0 - d_f >= LSH_THRESHOLD;
        if guard_subject || guard_name || guard_format {
            tp.numeric_extent.ks_statistic(sp.numeric_extent)
        } else {
            1.0
        }
    } else {
        1.0
    };

    DistanceVector([d_n, d_v, d_f, d_e, d_d])
}

/// Algorithm 2 line 4 with both subjects' signatures already resolved:
/// are the subject attributes of the target and of a lake table related
/// in any index (`i' ∈ I*.lookup(i)`)? Either is `None` when its table
/// has no subject attribute. A subject is a text column, so it has
/// words in all four indexes.
fn subjects_related_resolved(
    cfg: &D3lConfig,
    ts: Option<AttrSigsRef<'_>>,
    ss: Option<AttrSigsRef<'_>>,
) -> bool {
    let (Some(ts), Some(ss)) = (ts, ss) else {
        return false;
    };
    let jaccard = |a, b| similarity::<MinHashSignature>(true, a, b, cfg.num_perm);
    jaccard(Some(ts.name), Some(ss.name)) >= LSH_THRESHOLD
        || jaccard(ts.value, ss.value) >= LSH_THRESHOLD
        || jaccard(Some(ts.format), Some(ss.format)) >= LSH_THRESHOLD
        || similarity::<BitSignature>(true, ts.embedding, ss.embedding, cfg.embed_bits)
            >= LSH_THRESHOLD
}

/// An engine's four indexes, each as one forest per shard.
struct Indexes<'a> {
    name: Vec<&'a LshForest<MinHashSignature>>,
    value: Vec<&'a LshForest<MinHashSignature>>,
    format: Vec<&'a LshForest<MinHashSignature>>,
    embedding: Vec<&'a LshForest<BitSignature>>,
}

/// Look up one target attribute in the indexes (restricted to one
/// evidence type when `only` is set; `Distribution` uses the N/F
/// indexes as its blocking mechanism, mirroring Algorithm 2), and
/// return the keys of every hit — one index's after another's, an
/// attribute as often as indexes found it. An index is one forest per
/// shard, read together by [`query_union`]: the widening stop and the
/// fallback scan see the whole lake's candidate count, so the hits do
/// not depend on the shard count.
fn gather_candidates(
    cfg: &D3lConfig,
    indexes: &Indexes<'_>,
    (tp, ts): Attr<'_>,
    width: usize,
    only: Option<Evidence>,
) -> Vec<ItemId> {
    let want = |e: Evidence| match only {
        None => true,
        Some(Evidence::Distribution) => matches!(e, Evidence::Name | Evidence::Format),
        Some(x) => x == e,
    };
    let mut keys = Vec::new();
    let mut look_up = |hits: Vec<Hit>| keys.extend(hits.iter().map(|h| h.id));
    let (perm, bits) = (cfg.num_perm as u64, cfg.embed_bits as u64);
    if want(Evidence::Name) && tp.has_name {
        look_up(query_union(&indexes.name, ts.name, perm, width));
    }
    if want(Evidence::Format) && tp.has_format {
        look_up(query_union(&indexes.format, ts.format, perm, width));
    }
    if let Some(value) = ts.value.filter(|_| want(Evidence::Value) && tp.has_text) {
        look_up(query_union(&indexes.value, value, perm, width));
    }
    if let Some(embedding) = ts
        .embedding
        .filter(|_| want(Evidence::Embedding) && tp.has_embedding)
    {
        look_up(query_union(&indexes.embedding, embedding, bits, width));
    }
    keys
}

impl ShardedD3l {
    /// Stage 1 entry point: sign a target once
    /// ([`crate::D3l::sign_table`]) for reuse across queries
    /// (`query_prepared`, `rank_all_prepared`,
    /// `related_table_set_prepared`). Every shard shares one set of
    /// hashers, so shard 0's sign for all of them.
    pub fn prepare_target(&self, target: &Table) -> SignedTable {
        self.primary().sign_table(target)
    }

    /// An already-indexed table as a query target: its record read back
    /// from the shard that owns it ([`crate::D3l::signed_table`]), equal
    /// to preparing the original table. `None` for ids no shard holds a
    /// live table at.
    pub fn prepare_indexed(&self, id: TableId) -> Option<SignedTable> {
        let s = self.owner_of(id)?;
        self.shards()[s].signed_table(id)
    }

    /// The k-most related lake tables to `target` with default
    /// options.
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
        prepared: &SignedTable,
        k: usize,
        opts: &QueryOptions,
    ) -> Vec<TableMatch> {
        let width = self.config().lookup_width(k);
        let mut all = self.rank_all_prepared(prepared, width, opts);
        all.truncate(k);
        all
    }

    /// Rank *every* table with at least one related attribute,
    /// closest first. `width` is the per-attribute, per-index lookup
    /// size.
    pub fn rank_all(&self, target: &Table, width: usize, opts: &QueryOptions) -> Vec<TableMatch> {
        self.rank_all_prepared(&self.prepare_target(target), width, opts)
    }

    /// [`ShardedD3l::rank_all`] over an already-prepared target.
    pub fn rank_all_prepared(
        &self,
        prepared: &SignedTable,
        width: usize,
        opts: &QueryOptions,
    ) -> Vec<TableMatch> {
        let threads = self.config().effective_query_threads(opts.threads);
        self.rank_all_inner(prepared, width, opts, threads)
    }

    /// The top-k answers for many targets at once, fanning the
    /// batch out over the configured query threads. Each target is
    /// profiled exactly once and ranked with the same deterministic
    /// pipeline as [`ShardedD3l::query`], so
    /// `query_batch(ts, k)[i] == query(&ts[i], k)` at every shard and
    /// thread count.
    pub fn query_batch(&self, targets: &[Table], k: usize) -> Vec<Vec<TableMatch>> {
        let opts = vec![QueryOptions::default(); targets.len()];
        self.query_batch_with(targets, k, &opts)
    }

    /// [`ShardedD3l::query_batch`] with per-target options (one
    /// [`QueryOptions`] per target — the evaluation loop excludes
    /// each target itself from its own answer).
    ///
    /// The batch fans out over the config/env thread count;
    /// [`QueryOptions::threads`] is ignored in batch mode. When the
    /// batch is smaller than the thread budget, the leftover workers
    /// parallelize *within* each target instead, so a one-element
    /// batch performs like [`ShardedD3l::query_with`].
    pub fn query_batch_with(
        &self,
        targets: &[Table],
        k: usize,
        opts: &[QueryOptions],
    ) -> Vec<Vec<TableMatch>> {
        assert_eq!(targets.len(), opts.len(), "one QueryOptions per target");
        let work: Vec<(&Table, &QueryOptions)> = targets.iter().zip(opts).collect();
        let (outer, inner) = self.batch_threads(work.len());
        let width = self.config().lookup_width(k);
        par_map(&work, outer, |&(target, opt)| {
            let prepared = self.prepare_target(target);
            let mut all = self.rank_all_inner(&prepared, width, opt, inner);
            all.truncate(k);
            all
        })
    }

    /// The set of lake tables related to `target` by at least one
    /// evidence type — `I*.lookup(T)` in Algorithms 2 and 3.
    pub fn related_table_set(&self, target: &Table, width: usize) -> HashSet<TableId> {
        self.related_table_set_prepared(&self.prepare_target(target), width)
    }

    /// [`ShardedD3l::related_table_set`] over an already-prepared
    /// target. Runs stage 1 only, without the ranking pipeline's
    /// candidate sort — the output is an unordered set.
    pub fn related_table_set_prepared(
        &self,
        prepared: &SignedTable,
        width: usize,
    ) -> HashSet<TableId> {
        let threads = self.config().effective_query_threads(None);
        let target: Vec<Attr<'_>> = prepared.columns(self.primary()).collect();
        let (cfg, indexes) = (self.config(), self.indexes());
        par_map(&target, threads, |&attr| {
            gather_candidates(cfg, &indexes, attr, width, None)
        })
        .into_iter()
        .flatten()
        .map(|key| AttrRef::from_key(key).table)
        .collect()
    }

    /// Split the thread budget between batch fan-out (outer) and the
    /// per-target pipeline (inner): big batches get one worker per
    /// target, small batches hand the spare workers to the pipeline
    /// stages.
    fn batch_threads(&self, batch_len: usize) -> (usize, usize) {
        let budget = self.config().effective_query_threads(None);
        let outer = budget.min(batch_len.max(1));
        let inner = (budget / outer.max(1)).max(1);
        (outer, inner)
    }

    /// The full pipeline over one prepared target with an explicit
    /// worker count (batch workers pass their share of the thread
    /// budget — 1 for batches at least as large as the budget).
    fn rank_all_inner(
        &self,
        prepared: &SignedTable,
        width: usize,
        opts: &QueryOptions,
        threads: usize,
    ) -> Vec<TableMatch> {
        let mut timer = crate::trace::StageTimer::start(opts.trace.as_deref());
        let target: Vec<Attr<'_>> = prepared.columns(self.primary()).collect();
        let candidates = self.stage_candidates(&target, width, opts, threads);
        timer.candidates_done();
        let subject = prepared.subject().and_then(|c| target.get(c as usize));
        let guards = self.subject_guards(&target, subject.map(|s| s.1), &candidates, threads);
        let scored = self.stage_score(
            &target,
            &candidates,
            &guards,
            threads,
            opts.trace.as_deref(),
        );
        timer.score_done();
        let ranked = stage_aggregate(scored, target.len(), opts);
        timer.aggregate_done();
        ranked
    }

    /// Stage 1 — candidate generation: per target attribute, the
    /// union of the four indexes' lookups, filtered by `exclude` and
    /// sorted by [`AttrRef::key`] so every downstream iteration order
    /// is thread-count-independent.
    fn stage_candidates(
        &self,
        target: &[Attr<'_>],
        width: usize,
        opts: &QueryOptions,
        threads: usize,
    ) -> Vec<Vec<AttrRef>> {
        let (cfg, indexes) = (self.config(), self.indexes());
        par_map(target, threads, |&attr| {
            let mut keys = gather_candidates(cfg, &indexes, attr, width, opts.evidence);
            keys.sort_unstable();
            keys.dedup();
            keys.into_iter()
                .map(AttrRef::from_key)
                .filter(|attr| opts.exclude != Some(attr.table))
                .collect()
        })
    }

    /// The four indexes as [`query_union`] reads them: one forest per
    /// shard each. Built once per query, not once per target attribute.
    fn indexes(&self) -> Indexes<'_> {
        let shards = self.shards();
        Indexes {
            name: shards.iter().map(|s| &s.i_n).collect(),
            value: shards.iter().map(|s| &s.i_v).collect(),
            format: shards.iter().map(|s| &s.i_f).collect(),
            embedding: shards.iter().map(|s| &s.i_e).collect(),
        }
    }

    /// Stage 2 — pairwise evidence scoring: a five-distance vector
    /// per (target attribute, candidate) pair, parallel over the
    /// flattened pair list, each candidate's attribute record and stored
    /// signature words read from the shard that owns its table. `guards`
    /// is Algorithm 2 line 4, a per-candidate-table predicate,
    /// precomputed ([`ShardedD3l::subject_guards`]) for every table that
    /// could face a KS measurement so the per-pair workers stay pure.
    /// Returns one flat `(target column, candidate, distances)` list in
    /// (column, key) order, without the pairs that carry no signal (all
    /// distances 1).
    fn stage_score(
        &self,
        target: &[Attr<'_>],
        candidates: &[Vec<AttrRef>],
        guards: &HashMap<TableId, bool>,
        threads: usize,
        trace: Option<&crate::trace::QueryTrace>,
    ) -> Vec<(usize, AttrRef, DistanceVector)> {
        let work: Vec<(usize, AttrRef)> = candidates
            .iter()
            .enumerate()
            .flat_map(|(i, cands)| cands.iter().map(move |&attr| (i, attr)))
            .collect();
        let cfg = self.config();
        let mut scored = par_map(&work, threads, |&(i, attr)| {
            let owner = self.owner_of(attr.table).expect("candidate has an owner");
            let shard = &self.shards()[owner];
            // Per-pair attribution only when traced: the scoring
            // stage is the one place work belongs to a single shard.
            let start = trace.map(|_| std::time::Instant::now());
            let source = (shard.profile(attr), shard.stored_signatures_ref(attr));
            let guard_subject = guards.get(&attr.table).copied().unwrap_or(false);
            let dv = pair_distances_resolved(cfg, target[i], source, guard_subject);
            if let (Some(t), Some(s)) = (trace, start) {
                t.add_shard_ns(owner, s.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
            (i, attr, dv)
        });
        scored.retain(|(_, _, dv)| dv.has_signal());
        scored
    }

    /// Algorithm 2 line 4 precomputation: for every candidate table
    /// that contains a numeric candidate attribute paired with a
    /// numeric target attribute, whether its subject attribute and
    /// the target's (`subject`) are related in any index.
    fn subject_guards(
        &self,
        target: &[Attr<'_>],
        subject: Option<AttrSigsRef<'_>>,
        candidates: &[Vec<AttrRef>],
        threads: usize,
    ) -> HashMap<TableId, bool> {
        let mut tables: BTreeSet<TableId> = BTreeSet::new();
        for ((tp, _), cands) in target.iter().zip(candidates) {
            if !tp.is_numeric {
                continue;
            }
            for attr in cands {
                if self.profile(*attr).is_numeric {
                    tables.insert(attr.table);
                }
            }
        }
        let tables: Vec<TableId> = tables.into_iter().collect();
        let guards = par_map(&tables, threads, |&t| {
            let shard = &self.shards()[self.owner_of(t).expect("candidate has an owner")];
            let ss = shard
                .subject_of(t)
                .map(|s_attr| shard.stored_signatures_ref(s_attr));
            subjects_related_resolved(self.config(), subject, ss)
        });
        tables.into_iter().zip(guards).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::D3lConfig;
    use d3l_table::DataLake;

    /// The Figure 1 scenario plus an unrelated decoy table.
    fn lake() -> DataLake {
        let mut lake = DataLake::new();
        lake.add(
            Table::from_rows(
                "s1_gp_practices",
                &["Practice Name", "Address", "City", "Postcode", "Patients"],
                &[
                    vec![
                        "Dr E Cullen".into(),
                        "51 Botanic Av".into(),
                        "Belfast".into(),
                        "BT7 1JL".into(),
                        "1202".into(),
                    ],
                    vec![
                        "Blackfriars".into(),
                        "1a Chapel St".into(),
                        "Salford".into(),
                        "M3 6AF".into(),
                        "3572".into(),
                    ],
                    vec![
                        "Radclife".into(),
                        "69 Church St".into(),
                        "Manchester".into(),
                        "M26 2SP".into(),
                        "2210".into(),
                    ],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        lake.add(
            Table::from_rows(
                "s2_gp_funding",
                &["Practice", "City", "Postcode", "Payment"],
                &[
                    vec![
                        "The London Clinic".into(),
                        "London".into(),
                        "W1G 6BW".into(),
                        "73648".into(),
                    ],
                    vec![
                        "Blackfriars".into(),
                        "Salford".into(),
                        "M3 6AF".into(),
                        "15530".into(),
                    ],
                    vec![
                        "Radclife".into(),
                        "Manchester".into(),
                        "M26 2SP".into(),
                        "20110".into(),
                    ],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        lake.add(
            Table::from_rows(
                "decoy_planets",
                &["Planet", "Mass", "Moons"],
                &[
                    vec!["Jupiter".into(), "1.898e27".into(), "95".into()],
                    vec!["Saturn".into(), "5.683e26".into(), "146".into()],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        lake
    }

    fn target() -> Table {
        Table::from_rows(
            "target_gps",
            &["Practice", "Street", "City", "Postcode", "Hours"],
            &[
                vec![
                    "Radclife".into(),
                    "69 Church St".into(),
                    "Manchester".into(),
                    "M26 2SP".into(),
                    "07:00-20:00".into(),
                ],
                vec![
                    "Bolton Medical".into(),
                    "21 Rupert St".into(),
                    "Bolton".into(),
                    "BL3 6PY".into(),
                    "08:00-16:00".into(),
                ],
                vec![
                    "Blackfriars".into(),
                    "1a Chapel St".into(),
                    "Salford".into(),
                    "M3 6AF".into(),
                    "08:00-18:00".into(),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn related_tables_rank_above_decoys() {
        let d3l = ShardedD3l::index_lake(&lake(), D3lConfig::fast());
        let matches = d3l.query(&target(), 3);
        assert!(matches.len() >= 2);
        let names: Vec<&str> = matches.iter().map(|m| d3l.table_name(m.table)).collect();
        assert!(
            names[0].starts_with("s1") || names[0].starts_with("s2"),
            "{names:?}"
        );
        assert!(
            names[1].starts_with("s1") || names[1].starts_with("s2"),
            "{names:?}"
        );
        if let Some(decoy) = matches
            .iter()
            .find(|m| d3l.table_name(m.table) == "decoy_planets")
        {
            let best = matches[0].distance;
            assert!(
                decoy.distance > best,
                "decoy must rank below related tables"
            );
        }
        // Distances ascend.
        for w in matches.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn alignments_cover_shared_attributes() {
        let d3l = ShardedD3l::index_lake(&lake(), D3lConfig::fast());
        let matches = d3l.query(&target(), 2);
        let s2 = matches
            .iter()
            .find(|m| d3l.table_name(m.table) == "s2_gp_funding")
            .expect("s2 must be returned");
        // Practice, City, Postcode target columns (0, 2, 3) should be
        // covered.
        let covered = s2.covered_targets();
        assert!(covered.contains(&0), "Practice covered: {covered:?}");
        assert!(covered.contains(&2), "City covered: {covered:?}");
        assert!(covered.contains(&3), "Postcode covered: {covered:?}");
    }

    #[test]
    fn exclude_removes_self_matches() {
        let d3l = ShardedD3l::index_lake(&lake(), D3lConfig::fast());
        let t = lake().table_by_name("s1_gp_practices").unwrap().clone();
        let opts = QueryOptions {
            exclude: Some(TableId(0)),
            ..Default::default()
        };
        let matches = d3l.query_with(&t, 3, &opts);
        assert!(matches.iter().all(|m| m.table != TableId(0)));
    }

    #[test]
    fn single_evidence_mode_ranks_by_that_evidence() {
        let d3l = ShardedD3l::index_lake(&lake(), D3lConfig::fast());
        let opts = QueryOptions {
            evidence: Some(Evidence::Name),
            ..Default::default()
        };
        let matches = d3l.query_with(&target(), 3, &opts);
        for m in &matches {
            assert!((m.distance - m.vector.get(Evidence::Name)).abs() < 1e-12);
        }
    }

    #[test]
    fn related_table_set_includes_sources() {
        let d3l = ShardedD3l::index_lake(&lake(), D3lConfig::fast());
        let related = d3l.related_table_set(&target(), 50);
        assert!(related.contains(&TableId(0)));
        assert!(related.contains(&TableId(1)));
    }

    #[test]
    fn numeric_ks_guard_blocks_unrelated_tables() {
        // Patients (s1) vs Moons (decoy): both numeric, but no name,
        // format, or subject evidence links the pair's tables, so D
        // must stay at 1 for the decoy's numeric column.
        let d3l = ShardedD3l::index_lake(&lake(), D3lConfig::fast());
        let matches = d3l.rank_all(&target(), 50, &QueryOptions::default());
        if let Some(decoy) = matches
            .iter()
            .find(|m| d3l.table_name(m.table) == "decoy_planets")
        {
            assert!(
                (decoy.vector.get(Evidence::Distribution) - 1.0).abs() < 1e-9,
                "KS must be guarded off for the decoy"
            );
        }
    }

    /// An estimate needs the evidence on both sides and words on both
    /// sides; without either the pair is maximally distant.
    #[test]
    fn similarity_respects_flags_and_coverage() {
        use d3l_lsh::minhash::MinHasher;
        use d3l_lsh::randproj::RandomProjector;
        let s = MinHasher::new(64, 1).sign_strs(["a", "b"]);
        let jaccard = |has, a, b| similarity::<MinHashSignature>(has, a, b, 64);
        assert_eq!(jaccard(true, Some(s.words()), Some(s.words())), 1.0);
        assert_eq!(jaccard(false, Some(s.words()), Some(s.words())), 0.0);
        assert_eq!(jaccard(true, None, Some(s.words())), 0.0);
        let e = RandomProjector::new(4, 64, 1).sign(&[0.5, -1.0, 0.25, 2.0]);
        let cosine = |has, a, b| similarity::<BitSignature>(has, a, b, 64);
        assert_eq!(cosine(true, Some(e.words()), Some(e.words())), 1.0);
        assert_eq!(cosine(true, Some(e.words()), None), 0.0);
    }

    #[test]
    fn query_zero_k() {
        let d3l = ShardedD3l::index_lake(&lake(), D3lConfig::fast());
        assert!(d3l.query(&target(), 0).is_empty());
    }

    fn assert_identical(a: &[TableMatch], b: &[TableMatch]) {
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
    fn thread_count_never_changes_results() {
        let d3l = ShardedD3l::index_lake(&lake(), D3lConfig::fast());
        let t = target();
        let at = |n: usize| {
            d3l.rank_all(
                &t,
                50,
                &QueryOptions {
                    threads: Some(n),
                    ..Default::default()
                },
            )
        };
        let base = at(1);
        assert!(!base.is_empty());
        for n in [2, 4, 8] {
            assert_identical(&base, &at(n));
        }
    }

    #[test]
    fn prepared_target_reuse_matches_fresh_profiling() {
        let d3l = ShardedD3l::index_lake(&lake(), D3lConfig::fast());
        let t = target();
        let prepared = d3l.prepare_target(&t);
        assert_eq!(prepared.arity(), t.arity());
        let opts = QueryOptions::default();
        assert_identical(
            &d3l.query_with(&t, 3, &opts),
            &d3l.query_prepared(&prepared, 3, &opts),
        );
        assert_eq!(
            d3l.related_table_set(&t, 50),
            d3l.related_table_set_prepared(&prepared, 50)
        );
    }

    #[test]
    fn batch_matches_per_target_queries() {
        let lake = lake();
        let d3l = ShardedD3l::index_lake(&lake, D3lConfig::fast());
        let targets: Vec<Table> = vec![
            target(),
            lake.table_by_name("s1_gp_practices").unwrap().clone(),
            lake.table_by_name("decoy_planets").unwrap().clone(),
        ];
        let batched = d3l.query_batch(&targets, 3);
        assert_eq!(batched.len(), targets.len());
        for (t, b) in targets.iter().zip(&batched) {
            assert_identical(&d3l.query(t, 3), b);
        }
        // Per-target options flow through.
        let opts: Vec<QueryOptions> = targets
            .iter()
            .map(|t| QueryOptions {
                exclude: lake.id_of(t.name()),
                ..Default::default()
            })
            .collect();
        let batched = d3l.query_batch_with(&targets, 3, &opts);
        for (b, o) in batched.iter().zip(&opts) {
            if let Some(ex) = o.exclude {
                assert!(b.iter().all(|m| m.table != ex), "excluded self returned");
            }
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let d3l = ShardedD3l::index_lake(&lake(), D3lConfig::fast());
        assert!(d3l.query_batch(&[], 5).is_empty());
    }
}
