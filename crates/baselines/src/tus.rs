//! Table Union Search (Nargesian et al., PVLDB 2018), reimplemented
//! from the paper as the D3L authors did.
//!
//! TUS decides attribute unionability from **instance values only**,
//! with an ensemble of three measures:
//!
//! 1. **set unionability** — overlap of the raw (whole, lowercased)
//!    value sets, estimated by MinHash;
//! 2. **semantic unionability** — overlap of the knowledge-base class
//!    sets of the values, estimated by MinHash over class ids. The
//!    original maps tokens to YAGO classes; here the knowledge base is
//!    whatever token → class map the caller passes, and an empty map
//!    turns the measure off;
//! 3. **natural-language unionability** — cosine similarity of mean
//!    word-embedding vectors of the values.
//!
//! The ensemble score of an attribute pair is the max of the three
//! (the "max–score aggregation" D3L contrasts itself with), and a
//! table's score is the maximum ensemble score of any aligned pair.
//! Numeric attributes are ignored entirely ("they are completely
//! ignored by TUS", Experiment 6).
//!
//! The knowledge base is consulted for every token of every value, at
//! both indexing and query time, at the cost of one hash-map lookup: a
//! real KB's entity-resolution cost is not modelled.

use std::collections::{HashMap, HashSet};

use d3l_embedding::{CachedEmbedder, SemanticEmbedder, WordEmbedder};
use d3l_lsh::forest::LshForest;
use d3l_lsh::minhash::{MinHashSignature, MinHasher};
use d3l_lsh::randproj::{BitSignature, RandomProjector};
use d3l_table::{Column, DataLake, Table, TableId};

use crate::common::{
    embed_value_words, rank_and_truncate, significance, whole_value_set, BaselineAlignment,
    BaselineMatch,
};

/// TUS configuration (LSH settings mirror the shared evaluation
/// setup: MinHash 256, 16 trees): the shapes [`TusConfig::fast`] sets
/// smaller. The lookup width's multiple of `k` (3, as D3L's) and the
/// hashing seed are constants of [`Tus::query`] and [`Tus::index_lake`].
#[derive(Debug, Clone)]
pub struct TusConfig {
    /// MinHash signature length.
    pub num_perm: usize,
    /// Embedding dimensionality.
    pub embed_dim: usize,
    /// Random-projection bits.
    pub embed_bits: usize,
    /// LSH Forest trees.
    pub trees: usize,
    /// Minimum lookup width.
    pub min_lookup: usize,
}

/// Per-attribute lookup width as a multiple of the answer size `k`.
const LOOKUP_FACTOR: usize = 3;

/// Seed of TUS's MinHash permutations and projection planes.
const SEED: u64 = 0x705;

impl Default for TusConfig {
    fn default() -> Self {
        TusConfig {
            num_perm: 256,
            embed_dim: 64,
            embed_bits: 256,
            trees: 16,
            min_lookup: 50,
        }
    }
}

impl TusConfig {
    /// Smaller settings for tests.
    pub fn fast() -> Self {
        TusConfig {
            num_perm: 64,
            embed_dim: 32,
            embed_bits: 64,
            trees: 8,
            min_lookup: 20,
        }
    }
}

/// Per-attribute TUS profile.
struct TusProfile {
    value_count: usize,
    class_count: usize,
    word_count: usize,
    has_embedding: bool,
}

/// The indexed TUS state.
pub struct Tus {
    cfg: TusConfig,
    kb: HashMap<String, u32>,
    embedder: SemanticEmbedder,
    minhasher: MinHasher,
    projector: RandomProjector,
    set_index: LshForest<MinHashSignature>,
    class_index: LshForest<MinHashSignature>,
    nl_index: LshForest<BitSignature>,
    profiles: HashMap<u64, TusProfile>,
    names: Vec<String>,
    textual_attrs: usize,
}

fn attr_key(table: TableId, column: u32) -> u64 {
    ((table.0 as u64) << 24) | column as u64
}

fn attr_of_key(key: u64) -> (TableId, u32) {
    (TableId((key >> 24) as u32), (key & 0xff_ffff) as u32)
}

impl Tus {
    /// Profile and index a lake, with `kb` (lowercase token → class
    /// id) as the knowledge base of the semantic measure.
    pub fn index_lake(
        lake: &DataLake,
        kb: HashMap<String, u32>,
        embedder: SemanticEmbedder,
        cfg: TusConfig,
    ) -> Self {
        let minhasher = MinHasher::new(cfg.num_perm, SEED);
        let projector = RandomProjector::new(cfg.embed_dim, cfg.embed_bits, SEED ^ 0x7e);
        let mut set_index = LshForest::new(cfg.num_perm, cfg.trees);
        let mut class_index = LshForest::new(cfg.num_perm, cfg.trees);
        let mut nl_index = LshForest::new(cfg.embed_bits, cfg.trees);
        let mut profiles = HashMap::new();
        let mut names = Vec::with_capacity(lake.len());
        let mut textual_attrs = 0usize;
        let cached = CachedEmbedder::new(&embedder);

        for (id, table) in lake.iter() {
            names.push(table.name().to_string());
            for (ci, col) in table.columns().iter().enumerate() {
                if col.column_type().is_numeric() {
                    continue; // TUS ignores numeric attributes.
                }
                textual_attrs += 1;
                let key = attr_key(id, ci as u32);
                let (values, classes, words, embedding) = Self::profile_column(col, &kb, &cached);
                set_index.insert(key, minhasher.sign_strs(values.iter().map(String::as_str)));
                class_index.insert(
                    key,
                    minhasher.sign_hashes(classes.iter().map(|&c| c as u64)),
                );
                let has_embedding = embedding.iter().any(|&x| x != 0.0);
                nl_index.insert(key, projector.sign(&embedding));
                profiles.insert(
                    key,
                    TusProfile {
                        value_count: values.len(),
                        class_count: classes.len(),
                        word_count: words,
                        has_embedding,
                    },
                );
            }
        }
        drop(cached);
        set_index.commit();
        class_index.commit();
        nl_index.commit();
        Tus {
            cfg,
            kb,
            embedder,
            minhasher,
            projector,
            set_index,
            class_index,
            nl_index,
            profiles,
            names,
            textual_attrs,
        }
    }

    /// Whole-value set, KB class set, distinct word count, and mean
    /// value embedding of one column.
    fn profile_column(
        col: &Column,
        kb: &HashMap<String, u32>,
        embedder: &impl WordEmbedder,
    ) -> (HashSet<String>, HashSet<u32>, usize, Vec<f64>) {
        let values = whole_value_set(col);
        let classes = values
            .iter()
            .flat_map(|v| classes_of_value(kb, v))
            .collect();
        let (words, embedding) = embed_value_words(&values, embedder);
        (values, classes, words, embedding)
    }

    /// Number of indexed (textual) attributes.
    pub fn attr_count(&self) -> usize {
        self.textual_attrs
    }

    /// Table name by id.
    pub fn table_name(&self, id: TableId) -> &str {
        &self.names[id.index()]
    }

    /// Index footprint in bytes (Table II): three forests.
    pub fn index_byte_size(&self) -> usize {
        self.set_index.byte_size() + self.class_index.byte_size() + self.nl_index.byte_size()
    }

    /// Top-k unionable tables for a target. The target's values are
    /// mapped through the KB afresh.
    pub fn query(&self, target: &Table, k: usize, exclude: Option<TableId>) -> Vec<BaselineMatch> {
        let width = LOOKUP_FACTOR.saturating_mul(k).max(self.cfg.min_lookup);
        // candidate attr → (target col, ensemble score) best per table
        let mut best: HashMap<TableId, HashMap<usize, BaselineAlignment>> = HashMap::new();

        for (ti, col) in target.columns().iter().enumerate() {
            if col.column_type().is_numeric() {
                continue;
            }
            let (values, classes, words, embedding) =
                Self::profile_column(col, &self.kb, &self.embedder);
            let set_sig = self.minhasher.sign_strs(values.iter().map(String::as_str));
            let class_sig = self
                .minhasher
                .sign_hashes(classes.iter().map(|&c| c as u64));
            let nl_sig = self.projector.sign(&embedding);
            let has_emb = embedding.iter().any(|&x| x != 0.0);

            // Ensemble score per candidate attribute: each measure is
            // the LSH similarity estimate scaled by its statistical
            // significance (hypergeometric-style small-set discount).
            let mut scores: HashMap<u64, f64> = HashMap::new();
            for hit in self.set_index.query(&set_sig, width) {
                let cand = &self.profiles[&hit.id];
                let sig = significance(values.len().min(cand.value_count), 15.0);
                let e = scores.entry(hit.id).or_insert(0.0);
                *e = e.max(hit.similarity * sig);
            }
            if !classes.is_empty() {
                for hit in self.class_index.query(&class_sig, width) {
                    let cand = &self.profiles[&hit.id];
                    if cand.class_count == 0 {
                        continue;
                    }
                    let sig = significance(classes.len().min(cand.class_count), 5.0);
                    let e = scores.entry(hit.id).or_insert(0.0);
                    *e = e.max(hit.similarity * sig);
                }
            }
            if has_emb {
                for hit in self.nl_index.query(&nl_sig, width) {
                    let cand = &self.profiles[&hit.id];
                    if !cand.has_embedding {
                        continue;
                    }
                    let sig = significance(words.min(cand.word_count), 15.0);
                    let e = scores.entry(hit.id).or_insert(0.0);
                    *e = e.max(hit.similarity * sig);
                }
            }

            for (key, score) in scores {
                if score <= 0.0 {
                    continue;
                }
                let (table, column) = attr_of_key(key);
                if exclude == Some(table) {
                    continue;
                }
                let slot = best.entry(table).or_default();
                match slot.get(&ti) {
                    Some(existing) if existing.score >= score => {}
                    _ => {
                        slot.insert(
                            ti,
                            BaselineAlignment {
                                target_column: ti,
                                table,
                                column,
                                score,
                            },
                        );
                    }
                }
            }
        }

        let matches: Vec<BaselineMatch> = best
            .into_iter()
            .map(|(table, aligns)| {
                let mut alignments: Vec<BaselineAlignment> = aligns.into_values().collect();
                alignments.sort_by_key(|a| a.target_column);
                // Max-score aggregation: the table's rank is its best
                // single pair.
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
}

/// The KB classes of a value's whitespace-split, lowercased tokens,
/// sorted and deduplicated.
fn classes_of_value(kb: &HashMap<String, u32>, value: &str) -> Vec<u32> {
    let mut out: Vec<u32> = value
        .split_whitespace()
        .filter_map(|t| kb.get(&t.to_lowercase()).copied())
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use d3l_benchgen::vocab;

    fn embedder() -> SemanticEmbedder {
        SemanticEmbedder::new(vocab::domain_lexicon(32))
    }

    fn small_bench() -> d3l_benchgen::Benchmark {
        d3l_benchgen::synthetic(48, 77)
    }

    #[test]
    fn finds_same_family_tables() {
        let b = small_bench();
        let tus = Tus::index_lake(&b.lake, vocab::kb_classes(), embedder(), TusConfig::fast());
        let targets = b.pick_targets(5, 1);
        let mut hits = 0;
        for tname in &targets {
            let t = b.lake.table_by_name(tname).unwrap();
            let id = b.lake.id_of(tname).unwrap();
            let res = tus.query(t, 5, Some(id));
            if res
                .iter()
                .any(|m| b.truth.tables_related(tname, tus.table_name(m.table)))
            {
                hits += 1;
            }
        }
        assert!(
            hits >= 3,
            "TUS should find related tables for most targets ({hits}/5)"
        );
    }

    #[test]
    fn numeric_attributes_are_ignored() {
        let b = small_bench();
        let tus = Tus::index_lake(&b.lake, vocab::kb_classes(), embedder(), TusConfig::fast());
        let total_attrs = b.lake.total_attributes();
        assert!(
            tus.attr_count() < total_attrs,
            "numeric columns must be skipped"
        );
        assert!(tus.index_byte_size() > 0);
    }

    #[test]
    fn exclude_works() {
        let b = small_bench();
        let tus = Tus::index_lake(&b.lake, vocab::kb_classes(), embedder(), TusConfig::fast());
        let tname = &b.pick_targets(1, 2)[0];
        let t = b.lake.table_by_name(tname).unwrap();
        let id = b.lake.id_of(tname).unwrap();
        assert!(tus.query(t, 10, Some(id)).iter().all(|m| m.table != id));
    }

    #[test]
    fn scores_are_descending_and_bounded() {
        let b = small_bench();
        let tus = Tus::index_lake(&b.lake, vocab::kb_classes(), embedder(), TusConfig::fast());
        let tname = &b.pick_targets(1, 3)[0];
        let t = b.lake.table_by_name(tname).unwrap();
        let res = tus.query(t, 10, b.lake.id_of(tname));
        for w in res.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for m in &res {
            assert!((0.0..=1.0).contains(&m.score));
            assert!(!m.alignments.is_empty());
        }
    }

    /// A column's embedding is a function of the column: its words are
    /// embedded in one order, whatever seed a hash set draws.
    #[test]
    fn profiling_a_column_twice_gives_the_same_bits() {
        let (col, kb, e) = (
            crate::common::wordy_column(),
            vocab::kb_classes(),
            embedder(),
        );
        let bits = || -> Vec<u64> {
            let (.., embedding) = Tus::profile_column(&col, &kb, &e);
            embedding.into_iter().map(f64::to_bits).collect()
        };
        let first = bits();
        for _ in 0..4 {
            assert_eq!(bits(), first);
        }
    }

    #[test]
    fn value_classes_are_sorted_and_deduped() {
        let kb = vocab::kb_classes();
        let cls = classes_of_value(&kb, "Cullen Medical Centre Salford Cullen");
        assert_eq!(cls.len(), 3, "person, health suffix, city: {cls:?}");
        assert!(cls.windows(2).all(|w| w[0] < w[1]));
        assert!(classes_of_value(&kb, "1202 73648").is_empty());
        assert!(classes_of_value(&HashMap::new(), "Cullen Salford").is_empty());
    }
}
