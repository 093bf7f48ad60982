//! Top-k discovery queries (§III-D) — an explicit three-stage
//! pipeline, run by [`D3l`].
//!
//! Given a target table, the query path runs:
//!
//! 1. **Candidate generation** — the target is signed once into a
//!    [`SignedTable`] (or, a lake member, read back as one) and each of
//!    its attributes is looked up in the four LSH forests by its
//!    signature words ([`d3l_lsh::forest::LshForest::query_words`]);
//!    per-attribute candidate sets are sorted by [`AttrRef::key`] so
//!    later stages iterate them in a fixed order.
//! 2. **Pairwise evidence scoring** — every (target attribute,
//!    candidate attribute) pair gets a full five-distance vector
//!    (Algorithm 2 guards the numeric KS case with a per-table subject
//!    guard, computed once per table). Both sides are read alike, as an
//!    [`AttrView`] and word slices: the target's from its record, a
//!    candidate's from its row (the row names its class in each
//!    forest, so resolving it is array reads); the scoring itself sees
//!    no index state.
//! 3. **CCDF-weighted aggregation** — the scored pairs are sorted once
//!    by source table and grouped in one pass, aggregated column-wise
//!    with CCDF weights (Eq. 1–2, counted in sorted populations) and
//!    collapsed to a scalar by the weighted Euclidean norm (Eq. 3).
//!    Tables are returned closest-first.
//!
//! A query runs on the thread that asked for it; the engine fans out
//! nowhere at query time. A caller with many targets maps them over
//! its own threads (the evaluation harness does), and each answer is
//! what [`D3l::query_with`] gives on one thread.

use std::collections::{HashMap, HashSet};

use d3l_lsh::minhash::MinHashSignature;
use d3l_lsh::randproj::BitSignature;
use d3l_lsh::signature::Signature;
use d3l_lsh::{Hit, ItemId};
use d3l_table::{Table, TableId};

use crate::config::D3lConfig;
use crate::distance::DistanceVector;
use crate::evidence::Evidence;
use crate::index::{AttrRef, AttrSigsRef, D3l, SignedTable};
use crate::profile::AttrView;
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
    /// Optional stage-timing sink (see [`crate::trace`]). Tracing
    /// never affects results — it is excluded from
    /// [`crate::options_fingerprint`] so traced and untraced runs
    /// share cache entries — and when `None` the pipeline reads no
    /// clocks at all.
    pub trace: Option<std::sync::Arc<crate::trace::QueryTrace>>,
}

/// One attribute of a scored pair: what the index keeps of it and its
/// signature words — a target's from its [`SignedTable`], a lake
/// member's from its row and the arenas.
type Attr<'a> = (AttrView<'a>, AttrSigsRef<'a>);

/// Stage 3 — CCDF-weighted aggregation (Eq. 1–3) over stage 2's
/// `(target column, candidate, distances)` pairs of a target with
/// `columns` attributes: build the distance populations `R_t`, keep the
/// best pair per (source table, target attribute), aggregate
/// column-wise and collapse to the ranking. Sequential: each population
/// is sorted once, then the pairs are sorted in place by (table, target
/// column, key) and read in one pass — a table is a run of them, and
/// within it a target column is a run whose first lowest pick wins.
///
/// Reads no index state: it sees only the scored pairs.
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
/// attribute and its stored signature words, by [`AttrRef`]) is the
/// only part of pairwise scoring that touches index state.
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

/// Look up one target attribute in the indexes (restricted to one
/// evidence type when `only` is set; `Distribution` uses the N/F
/// indexes as its blocking mechanism, mirroring Algorithm 2), and
/// return the keys of every hit — one index's after another's, an
/// attribute as often as indexes found it.
fn gather_candidates(
    d3l: &D3l,
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
    let (perm, bits) = (d3l.cfg.num_perm as u64, d3l.cfg.embed_bits as u64);
    if want(Evidence::Name) && tp.has_name {
        look_up(d3l.i_n.query_words(ts.name, perm, width));
    }
    if want(Evidence::Format) && tp.has_format {
        look_up(d3l.i_f.query_words(ts.format, perm, width));
    }
    if let Some(value) = ts.value.filter(|_| want(Evidence::Value) && tp.has_text) {
        look_up(d3l.i_v.query_words(value, perm, width));
    }
    if let Some(embedding) = ts
        .embedding
        .filter(|_| want(Evidence::Embedding) && tp.has_embedding)
    {
        look_up(d3l.i_e.query_words(embedding, bits, width));
    }
    keys
}

impl D3l {
    /// Stage 1 entry point: sign a target once ([`D3l::sign_table`])
    /// for reuse across queries (`query_prepared`, `rank_all_prepared`,
    /// `related_table_set_prepared`). An indexed table is a target as
    /// its record read back ([`D3l::signed_table`]), equal to preparing
    /// the original table.
    pub fn prepare_target(&self, target: &Table) -> SignedTable {
        self.sign_table(target)
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

    /// [`D3l::query_with`] over an already-prepared target.
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

    /// [`D3l::rank_all`] over an already-prepared target: the three
    /// stages, one after another, on the calling thread.
    pub fn rank_all_prepared(
        &self,
        prepared: &SignedTable,
        width: usize,
        opts: &QueryOptions,
    ) -> Vec<TableMatch> {
        let mut timer = crate::trace::StageTimer::start(opts.trace.as_deref());
        let target: Vec<Attr<'_>> = prepared.columns(self).collect();
        let candidates = self.stage_candidates(&target, width, opts);
        timer.candidates_done();
        let subject = prepared.subject().and_then(|c| target.get(c as usize));
        let scored = self.stage_score(&target, subject.map(|s| s.1), &candidates);
        timer.score_done();
        let ranked = stage_aggregate(scored, target.len(), opts);
        timer.aggregate_done();
        ranked
    }

    /// The set of lake tables related to `target` by at least one
    /// evidence type — `I*.lookup(T)` in Algorithms 2 and 3.
    pub fn related_table_set(&self, target: &Table, width: usize) -> HashSet<TableId> {
        self.related_table_set_prepared(&self.prepare_target(target), width)
    }

    /// [`D3l::related_table_set`] over an already-prepared
    /// target. Runs stage 1 only, without the ranking pipeline's
    /// candidate sort — the output is an unordered set.
    pub fn related_table_set_prepared(
        &self,
        prepared: &SignedTable,
        width: usize,
    ) -> HashSet<TableId> {
        prepared
            .columns(self)
            .flat_map(|attr| gather_candidates(self, attr, width, None))
            .map(|key| AttrRef::from_key(key).table)
            .collect()
    }

    /// Stage 1 — candidate generation: per target attribute, the
    /// union of the four indexes' lookups, filtered by `exclude` and
    /// sorted by [`AttrRef::key`] so every downstream iteration order
    /// is fixed.
    fn stage_candidates(
        &self,
        target: &[Attr<'_>],
        width: usize,
        opts: &QueryOptions,
    ) -> Vec<Vec<AttrRef>> {
        target
            .iter()
            .map(|&attr| {
                let mut keys = gather_candidates(self, attr, width, opts.evidence);
                keys.sort_unstable();
                keys.dedup();
                keys.into_iter()
                    .map(AttrRef::from_key)
                    .filter(|attr| opts.exclude != Some(attr.table))
                    .collect()
            })
            .collect()
    }

    /// Stage 2 — pairwise evidence scoring: a five-distance vector
    /// per (target attribute, candidate) pair, each candidate's
    /// attribute record and stored signature words read from its row.
    /// Algorithm 2 line 4 — are the candidate table's subject attribute
    /// and the target's (`subject`) related in any index? — is asked
    /// once per table, the first time a numeric target attribute meets
    /// a numeric candidate of it. Returns one flat `(target column,
    /// candidate, distances)` list in (column, key) order, without the
    /// pairs that carry no signal (all distances 1).
    fn stage_score(
        &self,
        target: &[Attr<'_>],
        subject: Option<AttrSigsRef<'_>>,
        candidates: &[Vec<AttrRef>],
    ) -> Vec<(usize, AttrRef, DistanceVector)> {
        let cfg = self.config();
        let mut guards: HashMap<TableId, bool> = HashMap::new();
        let mut scored = Vec::new();
        for (i, (&attr, cands)) in target.iter().zip(candidates).enumerate() {
            for &source in cands {
                let resolved = (self.profile(source), self.stored_signatures_ref(source));
                let guard_subject = attr.0.is_numeric
                    && resolved.0.is_numeric
                    && *guards.entry(source.table).or_insert_with(|| {
                        let ss = self.subject_of(source.table);
                        let ss = ss.map(|s| self.stored_signatures_ref(s));
                        subjects_related_resolved(cfg, subject, ss)
                    });
                let distances = pair_distances_resolved(cfg, attr, resolved, guard_subject);
                if distances.has_signal() {
                    scored.push((i, source, distances));
                }
            }
        }
        scored
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
        let d3l = D3l::index_lake(&lake(), D3lConfig::fast());
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
        let d3l = D3l::index_lake(&lake(), D3lConfig::fast());
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
        let d3l = D3l::index_lake(&lake(), D3lConfig::fast());
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
        let d3l = D3l::index_lake(&lake(), D3lConfig::fast());
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
        let d3l = D3l::index_lake(&lake(), D3lConfig::fast());
        let related = d3l.related_table_set(&target(), 50);
        assert!(related.contains(&TableId(0)));
        assert!(related.contains(&TableId(1)));
    }

    #[test]
    fn numeric_ks_guard_blocks_unrelated_tables() {
        // Patients (s1) vs Moons (decoy): both numeric, but no name,
        // format, or subject evidence links the pair's tables, so D
        // must stay at 1 for the decoy's numeric column.
        let d3l = D3l::index_lake(&lake(), D3lConfig::fast());
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
        let d3l = D3l::index_lake(&lake(), D3lConfig::fast());
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
    fn prepared_target_reuse_matches_fresh_profiling() {
        let d3l = D3l::index_lake(&lake(), D3lConfig::fast());
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
}
