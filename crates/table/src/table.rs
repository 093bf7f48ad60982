//! Tables: named collections of equal-length columns, plus the
//! relational operators the benchmark generators and join-path
//! evaluation need (projection, selection, hash join).

use std::collections::HashMap;

use crate::column::Column;
use crate::error::TableError;

/// A named table: columns in declaration order, all of equal length.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
}

impl Table {
    /// Build a table, validating that all columns have equal length.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Result<Self, TableError> {
        if let Some(first) = columns.first() {
            let expected = first.len();
            for c in &columns {
                if c.len() != expected {
                    return Err(TableError::RaggedRows {
                        expected,
                        found: c.len(),
                    });
                }
            }
        }
        Ok(Table {
            name: name.into(),
            columns,
        })
    }

    /// Build a table from a header row and string rows (CSV shape).
    pub fn from_rows(
        name: impl Into<String>,
        header: &[&str],
        rows: &[Vec<String>],
    ) -> Result<Self, TableError> {
        let width = header.len();
        let mut cols: Vec<Vec<String>> = vec![Vec::with_capacity(rows.len()); width];
        for row in rows {
            if row.len() != width {
                return Err(TableError::RaggedRows {
                    expected: width,
                    found: row.len(),
                });
            }
            for (i, cell) in row.iter().enumerate() {
                cols[i].push(cell.clone());
            }
        }
        let columns = header
            .iter()
            .zip(cols)
            .map(|(h, vals)| Column::new(*h, vals))
            .collect();
        Table::new(name, columns)
    }

    /// Table name (unique within a lake).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the table.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of attributes (the paper's *arity*).
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows (the paper's *cardinality*).
    pub fn cardinality(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name() == name)
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name() == name)
    }

    /// One row as a vector of cell references.
    pub fn row(&self, i: usize) -> Vec<&str> {
        self.columns
            .iter()
            .map(|c| c.values()[i].as_str())
            .collect()
    }

    /// Iterate rows as cell-reference vectors.
    pub fn rows(&self) -> impl Iterator<Item = Vec<&str>> {
        (0..self.cardinality()).map(move |i| self.row(i))
    }

    /// Projection: keep the named columns, in the given order.
    pub fn project(
        &self,
        names: &[&str],
        new_name: impl Into<String>,
    ) -> Result<Table, TableError> {
        let mut cols = Vec::with_capacity(names.len());
        for n in names {
            let c = self
                .column(n)
                .ok_or_else(|| TableError::UnknownColumn((*n).to_string()))?;
            cols.push(c.clone());
        }
        Table::new(new_name, cols)
    }

    /// Selection: keep rows whose indexes are in `keep` (in order).
    pub fn select_rows(&self, keep: &[usize], new_name: impl Into<String>) -> Table {
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let vals = keep.iter().map(|&i| c.values()[i].clone()).collect();
                Column::new(c.name(), vals)
            })
            .collect();
        Table {
            name: new_name.into(),
            columns,
        }
    }

    /// Equi hash-join with `other` on `self.left_col == other.right_col`.
    ///
    /// Output columns are all of `self`'s followed by all of `other`'s
    /// except the join column; names from `other` are prefixed with its
    /// table name when they would collide. Join keys are compared after
    /// trimming and case-folding, matching the leniency D3L assumes
    /// when postulating inclusion dependencies (§IV).
    pub fn hash_join(
        &self,
        other: &Table,
        left_col: &str,
        right_col: &str,
        new_name: impl Into<String>,
    ) -> Result<Table, TableError> {
        let li = self
            .column_index(left_col)
            .ok_or_else(|| TableError::UnknownColumn(left_col.to_string()))?;
        let ri = other
            .column_index(right_col)
            .ok_or_else(|| TableError::UnknownColumn(right_col.to_string()))?;

        let norm = |s: &str| s.trim().to_lowercase();
        // Build side: other.
        let mut index: HashMap<String, Vec<usize>> = HashMap::new();
        for (row, cell) in other.columns[ri].values().iter().enumerate() {
            let key = norm(cell);
            if key.is_empty() {
                continue;
            }
            index.entry(key).or_default().push(row);
        }

        let mut left_keep: Vec<usize> = Vec::new();
        let mut right_keep: Vec<usize> = Vec::new();
        for (row, cell) in self.columns[li].values().iter().enumerate() {
            let key = norm(cell);
            if key.is_empty() {
                continue;
            }
            if let Some(matches) = index.get(&key) {
                for &m in matches {
                    left_keep.push(row);
                    right_keep.push(m);
                }
            }
        }

        let mut columns: Vec<Column> = self
            .columns
            .iter()
            .map(|c| {
                let vals = left_keep.iter().map(|&i| c.values()[i].clone()).collect();
                Column::new(c.name(), vals)
            })
            .collect();
        let left_names: std::collections::HashSet<&str> =
            self.columns.iter().map(|c| c.name()).collect();
        for (ci, c) in other.columns.iter().enumerate() {
            if ci == ri {
                continue;
            }
            let vals: Vec<String> = right_keep.iter().map(|&i| c.values()[i].clone()).collect();
            let name = if left_names.contains(c.name()) {
                format!("{}.{}", other.name(), c.name())
            } else {
                c.name().to_string()
            };
            columns.push(Column::new(name, vals));
        }
        Table::new(new_name, columns)
    }

    /// Approximate byte footprint (Table II accounting).
    pub fn byte_size(&self) -> usize {
        self.name.len() + self.columns.iter().map(Column::byte_size).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gp_practices() -> Table {
        Table::from_rows(
            "S1",
            &["Practice Name", "City", "Patients"],
            &[
                vec!["Dr E Cullen".into(), "Belfast".into(), "1202".into()],
                vec!["Blackfriars".into(), "Salford".into(), "3572".into()],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let t = gp_practices();
        assert_eq!(t.arity(), 3);
        assert_eq!(t.cardinality(), 2);
        assert_eq!(t.column("City").unwrap().values()[1], "Salford");
        assert_eq!(t.row(0)[0], "Dr E Cullen");
        assert_eq!(t.rows().count(), 2);
    }

    #[test]
    fn ragged_rows_rejected() {
        let r = Table::from_rows("t", &["a", "b"], &[vec!["1".into()]]);
        assert!(matches!(
            r,
            Err(TableError::RaggedRows {
                expected: 2,
                found: 1
            })
        ));
        let c1 = Column::new("a", vec!["1".into()]);
        let c2 = Column::new("b", vec![]);
        assert!(Table::new("t", vec![c1, c2]).is_err());
    }

    #[test]
    fn projection() {
        let t = gp_practices();
        let p = t.project(&["City", "Patients"], "p").unwrap();
        assert_eq!(p.arity(), 2);
        assert_eq!(p.columns()[0].name(), "City");
        assert!(t.project(&["Nope"], "x").is_err());
    }

    #[test]
    fn selection() {
        let t = gp_practices();
        let s = t.select_rows(&[1], "s");
        assert_eq!(s.cardinality(), 1);
        assert_eq!(s.row(0)[0], "Blackfriars");
    }

    #[test]
    fn hash_join_matches_case_insensitively() {
        let t = gp_practices();
        let hours = Table::from_rows(
            "S3",
            &["GP", "Opening hours"],
            &[
                vec!["blackfriars".into(), "08:00-18:00".into()],
                vec!["Radclife Care".into(), "07:00-20:00".into()],
            ],
        )
        .unwrap();
        let j = t.hash_join(&hours, "Practice Name", "GP", "j").unwrap();
        assert_eq!(j.cardinality(), 1);
        assert_eq!(j.arity(), 4); // 3 left + 1 right (join col dropped)
        assert_eq!(
            j.column("Opening hours").unwrap().values()[0],
            "08:00-18:00"
        );
    }

    #[test]
    fn hash_join_prefixes_colliding_names() {
        let a = Table::from_rows("A", &["k", "x"], &[vec!["1".into(), "a".into()]]).unwrap();
        let b = Table::from_rows("B", &["k2", "x"], &[vec!["1".into(), "b".into()]]).unwrap();
        let j = a.hash_join(&b, "k", "k2", "j").unwrap();
        assert!(j.column("B.x").is_some());
    }

    #[test]
    fn hash_join_skips_nulls() {
        let a = Table::from_rows("A", &["k"], &[vec!["".into()], vec!["1".into()]]).unwrap();
        let b = Table::from_rows("B", &["k"], &[vec!["".into()], vec!["1".into()]]).unwrap();
        let j = a.hash_join(&b, "k", "k", "j").unwrap();
        assert_eq!(j.cardinality(), 1);
    }
}
