//! Shared result and profile types for the baselines.

use std::collections::{BTreeSet, HashSet};

use d3l_embedding::WordEmbedder;
use d3l_table::TableId;

/// One proposed attribute alignment of a baseline result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineAlignment {
    /// Target column index.
    pub target_column: usize,
    /// Source table.
    pub table: TableId,
    /// Source column index.
    pub column: u32,
    /// The similarity score that proposed the alignment.
    pub score: f64,
}

/// One ranked table returned by a baseline.
#[derive(Debug, Clone)]
pub struct BaselineMatch {
    /// The source table.
    pub table: TableId,
    /// Ranking score (larger is better — both baselines rank by
    /// similarity, not distance).
    pub score: f64,
    /// Proposed attribute alignments (best source column per covered
    /// target column).
    pub alignments: Vec<BaselineAlignment>,
}

impl BaselineMatch {
    /// Target columns covered by at least one alignment.
    pub fn covered_targets(&self) -> HashSet<usize> {
        self.alignments.iter().map(|a| a.target_column).collect()
    }
}

/// Sort matches by descending score (ties by table id) and truncate.
pub fn rank_and_truncate(mut matches: Vec<BaselineMatch>, k: usize) -> Vec<BaselineMatch> {
    matches.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.table.cmp(&b.table))
    });
    matches.truncate(k);
    matches
}

/// Set-size significance factor: `1 - exp(-n / scale)`.
///
/// TUS's set unionability is not raw overlap but the probability that
/// the observed overlap is non-accidental (a hypergeometric test);
/// tiny domains (a 4-value Status column, a 7-value Day column) score
/// low however perfectly they overlap. This factor reproduces that
/// discounting for both baselines: it approaches 1 for large sets and
/// vanishes for trivial ones.
pub fn significance(n: usize, scale: f64) -> f64 {
    1.0 - (-(n as f64) / scale).exp()
}

/// Lowercased whole-value set of a column — the coarse-grained value
/// representation both baselines share ("TUS and Aurum expect
/// equality between the instance values of similar attributes",
/// Experiment 3).
pub fn whole_value_set(col: &d3l_table::Column) -> HashSet<String> {
    col.non_null().map(|v| v.trim().to_lowercase()).collect()
}

/// The number of distinct whitespace-separated words in a column's
/// values, and their mean embedding (zero when there are none). The
/// words are embedded in sorted order: a float sum depends on its
/// order, and a hash set's order would give one column different bits
/// in every build.
pub(crate) fn embed_value_words(
    values: &HashSet<String>,
    embedder: &impl WordEmbedder,
) -> (usize, Vec<f64>) {
    let words: BTreeSet<&str> = values.iter().flat_map(|v| v.split_whitespace()).collect();
    (words.len(), embedder.embed_all(words))
}

/// A column of 60 address-like values over ≈ 90 distinct words — a
/// bag whose sum, taken in a hash set's order, varies in its low bits.
#[cfg(test)]
pub(crate) fn wordy_column() -> d3l_table::Column {
    let values = (0..60)
        .map(|i| format!("{} Mill{} Lane Oakfield{} Ward{}", i * 7, i % 13, i % 11, i))
        .collect();
    d3l_table::Column::new("address", values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use d3l_table::Column;

    #[test]
    fn ranking_orders_by_score() {
        let m = |t: u32, s: f64| BaselineMatch {
            table: TableId(t),
            score: s,
            alignments: vec![],
        };
        let ranked = rank_and_truncate(vec![m(1, 0.2), m(2, 0.9), m(3, 0.5)], 2);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].table, TableId(2));
        assert_eq!(ranked[1].table, TableId(3));
    }

    #[test]
    fn ties_break_by_id() {
        let m = |t: u32| BaselineMatch {
            table: TableId(t),
            score: 0.5,
            alignments: vec![],
        };
        let ranked = rank_and_truncate(vec![m(9), m(1)], 2);
        assert_eq!(ranked[0].table, TableId(1));
    }

    /// Regression: NaN scores must not feed the sort a comparator
    /// that violates strict weak ordering (the old
    /// `partial_cmp(..).unwrap_or(Equal)` did exactly that).
    #[test]
    fn nan_scores_rank_deterministically() {
        let m = |t: u32, s: f64| BaselineMatch {
            table: TableId(t),
            score: s,
            alignments: vec![],
        };
        let ranked = rank_and_truncate(
            vec![m(1, f64::NAN), m(2, 0.9), m(3, f64::NAN), m(4, 0.1)],
            4,
        );
        let order: Vec<TableId> = ranked.iter().map(|r| r.table).collect();
        // total_cmp orders NaN above every finite score in a
        // descending sort; ties break by table id.
        assert_eq!(order, vec![TableId(1), TableId(3), TableId(2), TableId(4)]);
    }

    #[test]
    fn whole_values_normalize() {
        let c = Column::new(
            "x",
            vec![
                "Salford ".into(),
                "SALFORD".into(),
                "".into(),
                "Bolton".into(),
            ],
        );
        let s = whole_value_set(&c);
        assert_eq!(s.len(), 2);
        assert!(s.contains("salford"));
    }

    #[test]
    fn significance_discounts_small_sets() {
        assert!(significance(4, 15.0) < 0.3);
        assert!(significance(40, 15.0) > 0.9);
        assert!(significance(0, 15.0) < 1e-12);
        // monotone
        assert!(significance(10, 15.0) < significance(20, 15.0));
    }

    #[test]
    fn covered_targets_dedupe() {
        let m = BaselineMatch {
            table: TableId(1),
            score: 1.0,
            alignments: vec![
                BaselineAlignment {
                    target_column: 0,
                    table: TableId(1),
                    column: 0,
                    score: 0.9,
                },
                BaselineAlignment {
                    target_column: 0,
                    table: TableId(1),
                    column: 1,
                    score: 0.8,
                },
                BaselineAlignment {
                    target_column: 2,
                    table: TableId(1),
                    column: 2,
                    score: 0.7,
                },
            ],
        };
        assert_eq!(m.covered_targets().len(), 2);
    }
}
