//! Aurum (Castro Fernandez et al., ICDE 2018), reimplemented from the
//! paper.
//!
//! Aurum is a two-step system: (1) **profile** every column (content
//! MinHash, attribute-name features, and — per the "Seeping
//! Semantics" extension the D3L paper also cites — word embeddings);
//! (2) build an **enterprise knowledge graph** whose nodes are
//! columns and whose edges are relationships discovered by querying
//! the LSH indexes *once* at build time (content similarity, name
//! similarity, embedding similarity, plus PK/FK candidates from
//! high-uniqueness content overlaps).
//!
//! Discovery is then a graph lookup: for a target table, collect the
//! neighbours of its columns and rank source tables with the
//! **certainty** strategy — "when attributes are related by more than
//! one evidence type … the maximum similarity score gives the value
//! used in ranking" (§V-A, footnote 4). Because the indexes are only
//! consulted at graph-build time, query cost does not scale with the
//! answer size `k` (Experiment 5's constant Aurum search time).
//!
//! `Aurum+J` augments a top-k with tables reachable over PK/FK edges;
//! unlike D3L's SA-joins these rely on value uniqueness only, which
//! is why the paper finds they admit more false positives
//! (Experiment 9).

use std::collections::{HashMap, HashSet};

use d3l_embedding::{CachedEmbedder, SemanticEmbedder, WordEmbedder};
use d3l_features::qgrams;
use d3l_lsh::forest::LshForest;
use d3l_lsh::minhash::{MinHashSignature, MinHasher};
use d3l_lsh::randproj::{BitSignature, RandomProjector};
use d3l_table::{Column, DataLake, Table, TableId};

use crate::common::{
    embed_value_words, rank_and_truncate, significance, whole_value_set, BaselineAlignment,
    BaselineMatch,
};

/// Aurum configuration: the shapes and the build width
/// [`AurumConfig::fast`] sets smaller. The edge threshold (0.5), the
/// PK uniqueness floor (0.6) and the hashing seed are constants of
/// this module, which [`Aurum::index_lake`] builds the graph with and
/// an external target's lookups filter by.
#[derive(Debug, Clone)]
pub struct AurumConfig {
    /// MinHash signature length.
    pub num_perm: usize,
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Random-projection bits.
    pub embed_bits: usize,
    /// LSH Forest trees.
    pub trees: usize,
    /// Neighbour width consulted per column at graph-build time.
    pub build_width: usize,
}

/// Graph edges require at least this estimated similarity.
const EDGE_THRESHOLD: f64 = 0.5;

/// Distinct-ratio floor for a column to be a PK candidate.
const PK_UNIQUENESS: f64 = 0.6;

/// Seed of Aurum's MinHash permutations and projection planes.
const SEED: u64 = 0xa97;

impl Default for AurumConfig {
    fn default() -> Self {
        AurumConfig {
            num_perm: 256,
            embed_dim: 64,
            embed_bits: 256,
            trees: 16,
            build_width: 64,
        }
    }
}

impl AurumConfig {
    /// Smaller settings for tests.
    pub fn fast() -> Self {
        AurumConfig {
            num_perm: 64,
            embed_dim: 32,
            embed_bits: 64,
            trees: 8,
            build_width: 32,
        }
    }
}

fn attr_key(table: TableId, column: u32) -> u64 {
    ((table.0 as u64) << 24) | column as u64
}

fn attr_of_key(key: u64) -> (TableId, u32) {
    (TableId((key >> 24) as u32), (key & 0xff_ffff) as u32)
}

/// The enterprise knowledge graph plus the one-off query indexes.
pub struct Aurum {
    cfg: AurumConfig,
    embedder: SemanticEmbedder,
    minhasher: MinHasher,
    projector: RandomProjector,
    /// column → (neighbour column → certainty score)
    graph: HashMap<u64, HashMap<u64, f64>>,
    /// PK/FK candidate edges: table → joinable neighbour tables.
    pkfk: HashMap<TableId, HashSet<TableId>>,
    /// Kept for querying external (non-lake) targets.
    content_index: LshForest<MinHashSignature>,
    name_index: LshForest<MinHashSignature>,
    embed_index: LshForest<BitSignature>,
    /// Distinct whole-value count per column (significance scaling).
    value_sizes: HashMap<u64, usize>,
    /// q-gram count per column name (significance scaling).
    name_sizes: HashMap<u64, usize>,
    names: Vec<String>,
    graph_bytes: usize,
}

impl Aurum {
    /// Profile a lake and build the knowledge graph.
    pub fn index_lake(lake: &DataLake, embedder: SemanticEmbedder, cfg: AurumConfig) -> Self {
        let minhasher = MinHasher::new(cfg.num_perm, SEED);
        let projector = RandomProjector::new(cfg.embed_dim, cfg.embed_bits, SEED ^ 0xa0);
        let mut content_index = LshForest::new(cfg.num_perm, cfg.trees);
        let mut name_index = LshForest::new(cfg.num_perm, cfg.trees);
        let mut embed_index = LshForest::new(cfg.embed_bits, cfg.trees);
        let mut names = Vec::with_capacity(lake.len());
        let mut uniqueness: HashMap<u64, f64> = HashMap::new();
        let mut textual: HashSet<u64> = HashSet::new();
        let mut value_sizes: HashMap<u64, usize> = HashMap::new();
        let mut name_sizes: HashMap<u64, usize> = HashMap::new();
        // Every column's three signatures, for the graph pass.
        let mut signed = Vec::new();

        // Step 1: profile + index.
        let cached = CachedEmbedder::new(&embedder);
        for (id, table) in lake.iter() {
            names.push(table.name().to_string());
            for (ci, col) in table.columns().iter().enumerate() {
                let key = attr_key(id, ci as u32);
                let (content, name_sig, emb) =
                    Self::profile_column(col, &minhasher, &projector, &cached);
                uniqueness.insert(key, col.distinct_ratio());
                value_sizes.insert(key, col.distinct_count());
                name_sizes.insert(key, qgrams::qgram_set(col.name()).len());
                if !col.column_type().is_numeric() {
                    textual.insert(key);
                }
                content_index.insert(key, content.clone());
                name_index.insert(key, name_sig.clone());
                embed_index.insert(key, emb.clone());
                signed.push((key, content, name_sig, emb));
            }
        }
        drop(cached);
        content_index.commit();
        name_index.commit();
        embed_index.commit();

        // Step 2: build the graph by querying each index once per
        // column. Edges keep their best score and PK/FK pairs are a
        // set, so the order columns are visited in does not matter.
        let mut graph: HashMap<u64, HashMap<u64, f64>> = HashMap::new();
        let mut pkfk: HashMap<TableId, HashSet<TableId>> = HashMap::new();
        for (key, content_sig, name_sig, emb_sig) in signed {
            let (table, _) = attr_of_key(key);
            let add_edge =
                |a: u64, b: u64, score: f64, graph: &mut HashMap<u64, HashMap<u64, f64>>| {
                    let e = graph.entry(a).or_default().entry(b).or_insert(0.0);
                    *e = e.max(score); // certainty: max over evidence types
                };
            for hit in content_index.query(&content_sig, cfg.build_width) {
                let (other_table, _) = attr_of_key(hit.id);
                let score = hit.similarity
                    * significance(value_sizes[&key].min(value_sizes[&hit.id]), 15.0);
                if other_table == table || score < EDGE_THRESHOLD {
                    continue;
                }
                // Content edges only make sense between textual
                // columns (raw numeric value overlap is noise).
                if textual.contains(&key) && textual.contains(&hit.id) {
                    add_edge(key, hit.id, score, &mut graph);
                    add_edge(hit.id, key, score, &mut graph);
                    // PK/FK candidate: content overlap + one side
                    // nearly unique.
                    if uniqueness[&key] >= PK_UNIQUENESS || uniqueness[&hit.id] >= PK_UNIQUENESS {
                        pkfk.entry(table).or_default().insert(other_table);
                        pkfk.entry(other_table).or_default().insert(table);
                    }
                }
            }
            for hit in name_index.query(&name_sig, cfg.build_width) {
                let (other_table, _) = attr_of_key(hit.id);
                let score =
                    hit.similarity * significance(name_sizes[&key].min(name_sizes[&hit.id]), 8.0);
                if other_table == table || score < EDGE_THRESHOLD {
                    continue;
                }
                add_edge(key, hit.id, score, &mut graph);
                add_edge(hit.id, key, score, &mut graph);
            }
            for hit in embed_index.query(&emb_sig, cfg.build_width) {
                let (other_table, _) = attr_of_key(hit.id);
                let score = hit.similarity
                    * significance(value_sizes[&key].min(value_sizes[&hit.id]), 15.0);
                if other_table == table || score < EDGE_THRESHOLD {
                    continue;
                }
                if textual.contains(&key) && textual.contains(&hit.id) {
                    add_edge(key, hit.id, score, &mut graph);
                    add_edge(hit.id, key, score, &mut graph);
                }
            }
        }

        let graph_bytes = graph
            .values()
            .map(|nbrs| 8 + nbrs.len() * 16)
            .sum::<usize>()
            + pkfk.values().map(|s| 4 + s.len() * 4).sum::<usize>();

        Aurum {
            cfg,
            embedder,
            minhasher,
            projector,
            graph,
            pkfk,
            content_index,
            name_index,
            embed_index,
            value_sizes,
            name_sizes,
            names,
            graph_bytes,
        }
    }

    /// Content, name and embedding signatures of one column.
    fn profile_column(
        col: &Column,
        minhasher: &MinHasher,
        projector: &RandomProjector,
        embedder: &impl WordEmbedder,
    ) -> (MinHashSignature, MinHashSignature, BitSignature) {
        let values = whole_value_set(col);
        let content = minhasher.sign_strs(values.iter().map(String::as_str));
        let name_grams = qgrams::qgram_set(col.name());
        let name_sig = minhasher.sign_strs(name_grams.iter().map(String::as_str));
        let emb = projector.sign(&Self::embedding(col, &values, embedder));
        (content, name_sig, emb)
    }

    /// The mean embedding of a textual column's value words; zero for
    /// a numeric column.
    fn embedding(col: &Column, values: &HashSet<String>, embedder: &impl WordEmbedder) -> Vec<f64> {
        if col.column_type().is_numeric() {
            return vec![0.0; embedder.dim()];
        }
        embed_value_words(values, embedder).1
    }

    /// Table name by id.
    pub fn table_name(&self, id: TableId) -> &str {
        &self.names[id.index()]
    }

    /// Combined footprint of graph, profile store and indexes
    /// (Table II reports these together for Aurum).
    pub fn index_byte_size(&self) -> usize {
        self.graph_bytes
            + self.content_index.byte_size()
            + self.name_index.byte_size()
            + self.embed_index.byte_size()
    }

    /// Number of graph edges (directed).
    pub fn edge_count(&self) -> usize {
        self.graph.values().map(HashMap::len).sum()
    }

    /// Discovery for a lake-member target: pure graph lookup
    /// (independent of `k` until the final truncation).
    pub fn query_member(
        &self,
        target: TableId,
        target_arity: usize,
        k: usize,
    ) -> Vec<BaselineMatch> {
        let mut best: HashMap<TableId, HashMap<usize, BaselineAlignment>> = HashMap::new();
        for ci in 0..target_arity {
            let key = attr_key(target, ci as u32);
            let Some(nbrs) = self.graph.get(&key) else {
                continue;
            };
            for (&other, &score) in nbrs {
                let (table, column) = attr_of_key(other);
                if table == target {
                    continue;
                }
                let slot = best.entry(table).or_default();
                match slot.get(&ci) {
                    Some(e) if e.score >= score => {}
                    _ => {
                        slot.insert(
                            ci,
                            BaselineAlignment {
                                target_column: ci,
                                table,
                                column,
                                score,
                            },
                        );
                    }
                }
            }
        }
        Self::finish(best, k)
    }

    /// Discovery for an external target table: the target is profiled
    /// and the indexes are queried once (the same path graph
    /// construction uses).
    pub fn query(&self, target: &Table, k: usize, exclude: Option<TableId>) -> Vec<BaselineMatch> {
        let mut best: HashMap<TableId, HashMap<usize, BaselineAlignment>> = HashMap::new();
        for (ci, col) in target.columns().iter().enumerate() {
            let (content, name_sig, emb) =
                Self::profile_column(col, &self.minhasher, &self.projector, &self.embedder);
            let textual = !col.column_type().is_numeric();
            let t_values = col.distinct_count();
            let t_grams = qgrams::qgram_set(col.name()).len();
            let consider =
                |key: u64,
                 score: f64,
                 best: &mut HashMap<TableId, HashMap<usize, BaselineAlignment>>| {
                    if score < EDGE_THRESHOLD {
                        return;
                    }
                    let (table, column) = attr_of_key(key);
                    if exclude == Some(table) {
                        return;
                    }
                    let slot = best.entry(table).or_default();
                    match slot.get(&ci) {
                        Some(e) if e.score >= score => {}
                        _ => {
                            slot.insert(
                                ci,
                                BaselineAlignment {
                                    target_column: ci,
                                    table,
                                    column,
                                    score,
                                },
                            );
                        }
                    }
                };
            if textual {
                for hit in self.content_index.query(&content, self.cfg.build_width) {
                    let sig = significance(t_values.min(self.value_sizes[&hit.id]), 15.0);
                    consider(hit.id, hit.similarity * sig, &mut best);
                }
                for hit in self.embed_index.query(&emb, self.cfg.build_width) {
                    let sig = significance(t_values.min(self.value_sizes[&hit.id]), 15.0);
                    consider(hit.id, hit.similarity * sig, &mut best);
                }
            }
            for hit in self.name_index.query(&name_sig, self.cfg.build_width) {
                let sig = significance(t_grams.min(self.name_sizes[&hit.id]), 8.0);
                consider(hit.id, hit.similarity * sig, &mut best);
            }
        }
        Self::finish(best, k)
    }

    fn finish(
        best: HashMap<TableId, HashMap<usize, BaselineAlignment>>,
        k: usize,
    ) -> Vec<BaselineMatch> {
        let matches: Vec<BaselineMatch> = best
            .into_iter()
            .map(|(table, aligns)| {
                let mut alignments: Vec<BaselineAlignment> = aligns.into_values().collect();
                alignments.sort_by_key(|a| a.target_column);
                let score = alignments.iter().map(|a| a.score).fold(0.0_f64, f64::max);
                BaselineMatch {
                    table,
                    score,
                    alignments,
                }
            })
            .collect();
        rank_and_truncate(matches, k)
    }

    /// `Aurum+J`: tables joinable (via PK/FK candidate edges) with a
    /// top-k member, excluding tables already in the top-k.
    pub fn join_extensions(&self, top_k: &[TableId]) -> Vec<(TableId, TableId)> {
        let in_top: HashSet<TableId> = top_k.iter().copied().collect();
        let mut out = Vec::new();
        for &t in top_k {
            if let Some(nbrs) = self.pkfk.get(&t) {
                let mut sorted: Vec<TableId> = nbrs.iter().copied().collect();
                sorted.sort();
                for n in sorted {
                    if !in_top.contains(&n) {
                        out.push((t, n));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d3l_benchgen::vocab;

    fn embedder() -> SemanticEmbedder {
        SemanticEmbedder::new(vocab::domain_lexicon(32))
    }

    fn indexed() -> (d3l_benchgen::Benchmark, Aurum) {
        let b = d3l_benchgen::synthetic(48, 99);
        let a = Aurum::index_lake(&b.lake, embedder(), AurumConfig::fast());
        (b, a)
    }

    #[test]
    fn graph_has_edges_and_bytes() {
        let (_, a) = indexed();
        assert!(a.edge_count() > 0);
        assert!(a.index_byte_size() > 0);
    }

    #[test]
    fn member_query_finds_family() {
        let (b, a) = indexed();
        let targets = b.pick_targets(5, 4);
        let mut hits = 0;
        for tname in &targets {
            let id = b.lake.id_of(tname).unwrap();
            let arity = b.lake.table(id).arity();
            let res = a.query_member(id, arity, 5);
            if res
                .iter()
                .any(|m| b.truth.tables_related(tname, a.table_name(m.table)))
            {
                hits += 1;
            }
        }
        assert!(hits >= 3, "Aurum should find related tables ({hits}/5)");
    }

    #[test]
    fn external_query_matches_member_query_shape() {
        let (b, a) = indexed();
        let tname = &b.pick_targets(1, 5)[0];
        let id = b.lake.id_of(tname).unwrap();
        let t = b.lake.table_by_name(tname).unwrap();
        let external = a.query(t, 10, Some(id));
        assert!(!external.is_empty());
        for m in &external {
            assert!(m.table != id);
            assert!((0.0..=1.0).contains(&m.score));
        }
    }

    #[test]
    fn join_extensions_leave_topk() {
        let (b, a) = indexed();
        let tname = &b.pick_targets(1, 6)[0];
        let id = b.lake.id_of(tname).unwrap();
        let res = a.query_member(id, b.lake.table(id).arity(), 5);
        let top: Vec<TableId> = res.iter().map(|m| m.table).collect();
        for (from, to) in a.join_extensions(&top) {
            assert!(top.contains(&from));
            assert!(!top.contains(&to));
        }
    }

    #[test]
    fn certainty_scores_descend() {
        let (b, a) = indexed();
        let tname = &b.pick_targets(1, 7)[0];
        let id = b.lake.id_of(tname).unwrap();
        let res = a.query_member(id, b.lake.table(id).arity(), 20);
        for w in res.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    /// A column's embedding is a function of the column: its words are
    /// embedded in one order, whatever seed a hash set draws.
    #[test]
    fn profiling_a_column_twice_gives_the_same_bits() {
        let (col, e) = (crate::common::wordy_column(), embedder());
        let bits = || -> Vec<u64> {
            let values = whole_value_set(&col);
            let embedding = Aurum::embedding(&col, &values, &e);
            embedding.into_iter().map(f64::to_bits).collect()
        };
        let first = bits();
        for _ in 0..4 {
            assert_eq!(bits(), first);
        }
    }
}
