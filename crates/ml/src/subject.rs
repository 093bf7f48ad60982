//! Subject-attribute detection (§III-C).
//!
//! "Given a dataset, a subject attribute identifies the entities the
//! dataset is about. … Intuitively, this approach favours leftmost
//! non-numeric attributes with fewer nulls and many distinct values.
//! As in \[15\], we assume each dataset has only one subject attribute
//! and that this attribute has non-numeric values."
//!
//! The paper builds a classification model (after Venetis et al.) and
//! 10-fold cross-validates it on 350 manually labelled tables from
//! data.gov.uk at ~89% accuracy. Here the same feature set feeds a
//! [`LogisticRegression`]; a sensible default model is provided, and
//! the experiment harness trains/validates one on generated labelled
//! tables.

use d3l_table::{ColumnType, Table};

use crate::logreg::LogisticRegression;

/// Number of features extracted per column.
pub const SUBJECT_FEATURES: usize = 5;

/// Feature vector for "is column `idx` the subject attribute of
/// `table`?":
///
/// 1. leftness — `1 - idx / arity` (subject attributes are leftmost);
/// 2. non-numeric — 1.0 for textual columns;
/// 3. distinct ratio — many distinct values;
/// 4. fill ratio — `1 - null_ratio` (few nulls);
/// 5. multi-word ratio proxy — normalized average length (entity
///    names are longer than codes/flags).
pub fn subject_features(table: &Table, idx: usize) -> [f64; SUBJECT_FEATURES] {
    let col = &table.columns()[idx];
    let arity = table.arity().max(1) as f64;
    let leftness = 1.0 - idx as f64 / arity;
    let non_numeric = if col.column_type() == ColumnType::Text {
        1.0
    } else {
        0.0
    };
    let cells = col.cell_stats();
    let fill = 1.0 - cells.null_ratio();
    let avg_len = (cells.avg_len() / 20.0).min(1.0);
    [leftness, non_numeric, cells.distinct_ratio(), fill, avg_len]
}

/// A trained (or default) subject-attribute classifier.
#[derive(Debug, Clone)]
pub struct SubjectClassifier {
    model: LogisticRegression,
}

impl SubjectClassifier {
    /// Wrap a trained model (feature dimension must be
    /// [`SUBJECT_FEATURES`]).
    pub fn new(model: LogisticRegression) -> Self {
        assert_eq!(model.weights().len(), SUBJECT_FEATURES);
        SubjectClassifier { model }
    }

    /// The built-in default: coefficients encoding the paper's stated
    /// intuition, usable without a training corpus.
    pub fn default_model() -> Self {
        SubjectClassifier {
            model: LogisticRegression::from_coefficients(vec![2.5, 3.0, 2.0, 1.5, 1.0], -5.5),
        }
    }

    /// Access the underlying model.
    pub fn model(&self) -> &LogisticRegression {
        &self.model
    }

    /// Score of one column being the subject attribute.
    pub fn score(&self, table: &Table, idx: usize) -> f64 {
        self.model.predict_proba(&subject_features(table, idx))
    }

    /// The subject attribute of a table: the highest-scoring
    /// *non-numeric* column (the paper assumes non-numeric subjects).
    /// `None` for tables with no textual column.
    pub fn subject_of(&self, table: &Table) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, col) in table.columns().iter().enumerate() {
            if col.column_type() != ColumnType::Text {
                continue;
            }
            let s = self.score(table, i);
            if best.is_none_or(|(_, bs)| s > bs) {
                best = Some((i, s));
            }
        }
        best.map(|(i, _)| i)
    }
}

impl Default for SubjectClassifier {
    fn default() -> Self {
        SubjectClassifier::default_model()
    }
}

/// Convenience: subject attribute with the default classifier —
/// `get_subject_attribute(T)` in Algorithm 2. The model is built once
/// per process, not per table.
pub fn subject_attribute(table: &Table) -> Option<usize> {
    static DEFAULT: std::sync::OnceLock<SubjectClassifier> = std::sync::OnceLock::new();
    DEFAULT
        .get_or_init(SubjectClassifier::default_model)
        .subject_of(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use d3l_table::Table;

    fn s1() -> Table {
        // Figure 1's S1: subject attribute should be "Practice Name".
        Table::from_rows(
            "S1",
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
                    "The London Clinic".into(),
                    "20 Devonshire Pl".into(),
                    "London".into(),
                    "W1G 6BW".into(),
                    "73648".into(),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn paper_example_subject_is_practice_name() {
        let t = s1();
        assert_eq!(subject_attribute(&t), Some(0));
    }

    #[test]
    fn numeric_columns_are_never_subjects() {
        let t = Table::from_rows(
            "nums",
            &["id", "value"],
            &[
                vec!["1".into(), "2.5".into()],
                vec!["2".into(), "3.5".into()],
            ],
        )
        .unwrap();
        assert_eq!(subject_attribute(&t), None);
    }

    #[test]
    fn repeated_city_column_loses_to_distinct_names() {
        // A rightmost distinct name column still beats a leftmost
        // low-distinct one when the distinct gap is large.
        let rows: Vec<Vec<String>> = (0..20)
            .map(|i| vec!["Salford".to_string(), format!("Practice {i} Health Centre")])
            .collect();
        let t = Table::from_rows("t", &["City", "Name"], &rows).unwrap();
        let c = SubjectClassifier::default_model();
        assert!(c.score(&t, 1) > c.score(&t, 0));
    }

    #[test]
    fn features_are_bounded() {
        let t = s1();
        for i in 0..t.arity() {
            for f in subject_features(&t, i) {
                assert!((0.0..=1.0).contains(&f), "feature {f} out of range");
            }
        }
    }

    #[test]
    fn nulls_penalize() {
        let mostly_null: Vec<Vec<String>> = (0..10)
            .map(|i| {
                vec![
                    if i < 8 {
                        String::new()
                    } else {
                        format!("name{i}")
                    },
                    format!("entity number {i}"),
                ]
            })
            .collect();
        let t = Table::from_rows("t", &["sparse", "dense"], &mostly_null).unwrap();
        let c = SubjectClassifier::default_model();
        assert!(c.score(&t, 1) > c.score(&t, 0));
        assert_eq!(c.subject_of(&t), Some(1));
    }

    #[test]
    fn trained_classifier_roundtrip() {
        // Train on simple synthetic features and wrap.
        let xs = vec![
            vec![1.0, 1.0, 1.0, 1.0, 0.8],
            vec![0.2, 0.0, 0.1, 1.0, 0.1],
            vec![0.9, 1.0, 0.9, 0.9, 0.7],
            vec![0.4, 0.0, 0.2, 0.8, 0.05],
        ];
        let ys = vec![true, false, true, false];
        let m = LogisticRegression::train(&xs, &ys);
        let c = SubjectClassifier::new(m);
        assert!(c.model().weights().len() == SUBJECT_FEATURES);
    }
}
