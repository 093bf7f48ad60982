//! Target population — the wrangling step discovery exists for.
//!
//! The paper's objective is "to identify related datasets from a data
//! lake that are relevant for *populating* as many target attributes
//! as possible" (§I). This module closes the loop: given the ranked
//! [`TableMatch`]es (and, optionally, join-path extensions), project
//! each source's aligned columns into the target schema and union the
//! rows, recording provenance per contributed row.

use std::collections::HashMap;

use d3l_table::{Column, Table, TableError, TableId};

use crate::query::TableMatch;
use crate::shard::ShardedD3l;

/// Result of populating a target from discovered tables.
#[derive(Debug, Clone)]
pub struct Population {
    /// The union table, in the target's schema (same column names and
    /// order), with an extra trailing `_provenance` column naming the
    /// contributing source table.
    pub table: Table,
    /// Rows contributed per source table.
    pub contributed: Vec<(TableId, usize)>,
    /// Target columns (by index) that at least one source populated.
    pub covered_columns: Vec<usize>,
}

impl Population {
    /// Fraction of target attributes populated (Eq. 4 over the
    /// union).
    pub fn coverage(&self, target_arity: usize) -> f64 {
        if target_arity == 0 {
            0.0
        } else {
            self.covered_columns.len() as f64 / target_arity as f64
        }
    }
}

/// Maximum Eq. 3 combined distance of an alignment's pair vector for
/// its source column to be used when populating. The combined form
/// (with the trained evidence weights) is what keeps weak single-
/// evidence coincidences — e.g. two single-word name columns sharing
/// only the `C` format pattern — from injecting noise.
const POPULATE_MAX_DISTANCE: f64 = 0.6;

impl ShardedD3l {
    /// Populate `target`'s schema from the given matches: for every
    /// match, rows are projected through its alignments (unaligned
    /// target columns become nulls) and appended.
    ///
    /// Alignments whose best evidence distance exceeds an internal
    /// quality floor are skipped, so weakly-related columns do not
    /// inject noise — the paper's attribute-precision measurements
    /// (Experiments 9/11) quantify exactly this risk.
    pub fn populate(
        &self,
        target: &Table,
        matches: &[TableMatch],
        lake: &d3l_table::DataLake,
    ) -> Result<Population, TableError> {
        let arity = target.arity();
        let mut columns: Vec<Vec<String>> = vec![Vec::new(); arity];
        let mut provenance: Vec<String> = Vec::new();
        let mut contributed = Vec::new();
        let mut covered: Vec<bool> = vec![false; arity];

        let weights = crate::weights::EvidenceWeights::trained_default();
        for m in matches {
            let source = lake.table(m.table);
            // target column → source column, quality-filtered.
            let mut mapping: HashMap<usize, usize> = HashMap::new();
            for a in &m.alignments {
                if weights.combined_distance(&a.distances) <= POPULATE_MAX_DISTANCE {
                    mapping.insert(a.target_column, a.source.column as usize);
                }
            }
            if mapping.is_empty() {
                continue;
            }
            let rows = source.cardinality();
            for (t_col, col_acc) in columns.iter_mut().enumerate() {
                match mapping.get(&t_col) {
                    Some(&s_col) => {
                        covered[t_col] = true;
                        col_acc.extend(source.columns()[s_col].values().iter().cloned());
                    }
                    None => col_acc.extend(std::iter::repeat_n(String::new(), rows)),
                }
            }
            provenance.extend(std::iter::repeat_n(source.name().to_string(), rows));
            contributed.push((m.table, rows));
        }

        let mut out_columns: Vec<Column> = target
            .columns()
            .iter()
            .zip(columns)
            .map(|(c, vals)| Column::new(c.name(), vals))
            .collect();
        out_columns.push(Column::new("_provenance", provenance));
        let table = Table::new(format!("{}_populated", target.name()), out_columns)?;
        let covered_columns = covered
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(i, _)| i)
            .collect();
        Ok(Population {
            table,
            contributed,
            covered_columns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::D3lConfig;
    use d3l_table::DataLake;

    fn lake() -> DataLake {
        let mut lake = DataLake::new();
        lake.add(
            Table::from_rows(
                "gp_registry",
                &["Practice", "City", "Postcode"],
                &[
                    vec!["Blackfriars".into(), "Salford".into(), "M3 6AF".into()],
                    vec!["Radclife".into(), "Manchester".into(), "M26 2SP".into()],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        lake.add(
            Table::from_rows(
                "planets",
                &["Planet", "Mass"],
                &[vec!["Saturn".into(), "5.7e26".into()]],
            )
            .unwrap(),
        )
        .unwrap();
        lake
    }

    fn target() -> Table {
        Table::from_rows(
            "gps",
            &["Practice", "City", "Hours"],
            &[vec![
                "Blackfriars".into(),
                "Salford".into(),
                "08:00-18:00".into(),
            ]],
        )
        .unwrap()
    }

    #[test]
    fn covered_columns_are_populated_with_provenance() {
        let lake = lake();
        let d3l = ShardedD3l::index_lake(&lake, D3lConfig::fast());
        let t = target();
        let matches = d3l.query(&t, 1);
        let pop = d3l.populate(&t, &matches, &lake).unwrap();

        // Schema: target columns + _provenance.
        assert_eq!(pop.table.arity(), 4);
        assert_eq!(pop.table.columns()[3].name(), "_provenance");
        // Two registry rows contributed.
        assert_eq!(pop.table.cardinality(), 2);
        assert_eq!(
            pop.contributed,
            vec![(lake.id_of("gp_registry").unwrap(), 2)]
        );
        // Practice and City populated; Hours has no source → nulls.
        assert!(pop.covered_columns.contains(&0));
        assert!(pop.covered_columns.contains(&1));
        assert!(!pop.covered_columns.contains(&2));
        assert!((pop.coverage(3) - 2.0 / 3.0).abs() < 1e-12);
        let hours = pop.table.column("Hours").unwrap();
        assert!(hours.values().iter().all(|v| v.is_empty()));
        let prov = pop.table.column("_provenance").unwrap();
        assert!(prov.values().iter().all(|v| v == "gp_registry"));
        // Values flowed through the alignment.
        let practices = pop.table.column("Practice").unwrap();
        assert!(practices.values().contains(&"Radclife".to_string()));
    }

    #[test]
    fn weak_alignments_are_filtered() {
        let lake = lake();
        let d3l = ShardedD3l::index_lake(&lake, D3lConfig::fast());
        let t = target();
        // Force-include the decoy table in the matches.
        let all = d3l.rank_all(&t, 50, &Default::default());
        let pop = d3l.populate(&t, &all, &lake).unwrap();
        // The decoy may appear in the ranking, but its columns must
        // not populate the target unless some evidence is strong.
        let prov = pop.table.column("_provenance").unwrap();
        let decoy_rows = prov.values().iter().filter(|v| *v == "planets").count();
        let practices = pop.table.column("Practice").unwrap();
        assert!(
            !practices.values().contains(&"Saturn".to_string()) || decoy_rows == 0,
            "decoy values should not leak into Practice via weak alignments"
        );
    }

    #[test]
    fn empty_matches_give_empty_population() {
        let lake = lake();
        let d3l = ShardedD3l::index_lake(&lake, D3lConfig::fast());
        let t = target();
        let pop = d3l.populate(&t, &[], &lake).unwrap();
        assert_eq!(pop.table.cardinality(), 0);
        assert_eq!(pop.coverage(3), 0.0);
        assert!(pop.contributed.is_empty());
    }
}
