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
//! data.gov.uk at ~89% accuracy. Here the same feature set is scored
//! by one fixed [`LogisticRegression`] whose five coefficients and
//! intercept encode that intuition, and the experiment harness reports
//! its per-table accuracy against generated ground truth. Nothing
//! swaps the model: every stored table carries its subject column, so
//! the subject attribute is a function of the table.

use d3l_table::{CellStats, ColumnType, Table};

use crate::logreg::LogisticRegression;

/// Number of features extracted per column.
pub const SUBJECT_FEATURES: usize = 5;

/// Feature vector for "is column `idx` of a table of `arity` columns
/// the subject attribute?", from whether the column is textual and
/// its cell counts:
///
/// 1. leftness — `1 - idx / arity` (subject attributes are leftmost);
/// 2. non-numeric — 1.0 for textual columns;
/// 3. distinct ratio — many distinct values;
/// 4. fill ratio — `1 - null_ratio` (few nulls);
/// 5. multi-word ratio proxy — normalized average length (entity
///    names are longer than codes/flags).
pub fn subject_features(
    idx: usize,
    arity: usize,
    textual: bool,
    cells: &CellStats,
) -> [f64; SUBJECT_FEATURES] {
    let leftness = 1.0 - idx as f64 / arity.max(1) as f64;
    let non_numeric = if textual { 1.0 } else { 0.0 };
    let fill = 1.0 - cells.null_ratio();
    let avg_len = (cells.avg_len() / 20.0).min(1.0);
    [leftness, non_numeric, cells.distinct_ratio(), fill, avg_len]
}

/// Coefficients of the [`subject_features`], in order: leftness,
/// non-numeric, distinct ratio, fill ratio, length.
const SUBJECT_WEIGHTS: [f64; SUBJECT_FEATURES] = [2.5, 3.0, 2.0, 1.5, 1.0];

/// Intercept of the subject score.
const SUBJECT_BIAS: f64 = -5.5;

/// The one subject score: the fixed model's `P(subject | features)`.
fn subject_score(features: &[f64; SUBJECT_FEATURES]) -> f64 {
    static MODEL: std::sync::OnceLock<LogisticRegression> = std::sync::OnceLock::new();
    MODEL
        .get_or_init(|| {
            LogisticRegression::from_coefficients(SUBJECT_WEIGHTS.to_vec(), SUBJECT_BIAS)
        })
        .predict_proba(features)
}

/// The subject attribute of a table of `arity` columns, from the cell
/// counts of its textual columns — `(column index, counts)`, in
/// ascending column order: the highest-scoring column, the leftmost
/// on a tie. `None` when there is no textual column. What
/// [`subject_attribute`] computes from the table; an index build
/// passes the counts its profiler already took.
pub fn subject_of_textual(
    arity: usize,
    textual: impl IntoIterator<Item = (usize, CellStats)>,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, cells) in textual {
        let s = subject_score(&subject_features(i, arity, true, &cells));
        if best.is_none_or(|(_, bs)| s > bs) {
            best = Some((i, s));
        }
    }
    best.map(|(i, _)| i)
}

/// The subject attribute of a table — `get_subject_attribute(T)` in
/// Algorithm 2: the highest-scoring *non-numeric* column (the paper
/// assumes non-numeric subjects), the leftmost on a tie. `None` for
/// tables with no textual column.
pub fn subject_attribute(table: &Table) -> Option<usize> {
    let textual = table.columns().iter().enumerate();
    subject_of_textual(
        table.arity(),
        textual
            .filter(|(_, col)| col.column_type() == ColumnType::Text)
            .map(|(i, col)| (i, col.cell_stats())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use d3l_table::Table;

    /// Column `idx`'s score, from the table.
    fn score(table: &Table, idx: usize) -> f64 {
        let col = &table.columns()[idx];
        let textual = col.column_type() == ColumnType::Text;
        subject_score(&subject_features(
            idx,
            table.arity(),
            textual,
            &col.cell_stats(),
        ))
    }

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
        assert!(score(&t, 1) > score(&t, 0));
    }

    #[test]
    fn features_are_bounded() {
        let t = s1();
        for i in 0..t.arity() {
            let col = &t.columns()[i];
            let textual = col.column_type() == ColumnType::Text;
            for f in subject_features(i, t.arity(), textual, &col.cell_stats()) {
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
        assert!(score(&t, 1) > score(&t, 0));
        assert_eq!(subject_attribute(&t), Some(1));
    }
}
