//! Columns: named vectors of string cells with an inferred type.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;

use crate::typing;

/// Domain-independent column type, inferred from cell values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// All (or a clear majority of) non-null cells are whole numbers.
    Integer,
    /// Numeric with at least one fractional value.
    Float,
    /// Non-numeric content.
    Text,
    /// No non-null cells at all.
    Empty,
}

impl ColumnType {
    /// Integer and Float columns are treated uniformly as "numeric" by
    /// the paper (§III-C: the D evidence type applies, V and E do not).
    pub fn is_numeric(self) -> bool {
        matches!(self, ColumnType::Integer | ColumnType::Float)
    }
}

/// A named column of string cells. The empty string is a null.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    values: Vec<String>,
    ty: ColumnType,
}

/// FNV-1a for the distinct-cell set of [`Column::cell_stats`], whose
/// only product is a count: exact under any hasher. Fixed-seed, like
/// the token interner over the same cells — a column built to collide
/// costs time, never a result.
struct CellHasher(u64);

impl Default for CellHasher {
    fn default() -> Self {
        CellHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What [`Column::cell_stats`] counts in its one pass; the ratios are
/// derived from the counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellStats {
    /// Rows, nulls included.
    pub rows: usize,
    /// Non-null (non-empty after trim) cells.
    pub non_null: usize,
    /// Distinct non-null cell values.
    pub distinct: usize,
    /// Total character length of the non-null cells.
    pub chars: usize,
}

impl CellStats {
    /// Fraction of cells that are null; 0 for an empty column.
    pub fn null_ratio(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            (self.rows - self.non_null) as f64 / self.rows as f64
        }
    }

    /// distinct / non-null count, in `[0, 1]`; 0 for all-null columns.
    pub fn distinct_ratio(&self) -> f64 {
        if self.non_null == 0 {
            0.0
        } else {
            self.distinct as f64 / self.non_null as f64
        }
    }

    /// Mean character length of non-null cells.
    pub fn avg_len(&self) -> f64 {
        if self.non_null == 0 {
            0.0
        } else {
            self.chars as f64 / self.non_null as f64
        }
    }
}

impl Column {
    /// Build a column, inferring its type from the supplied cells.
    pub fn new(name: impl Into<String>, values: Vec<String>) -> Self {
        let ty = typing::infer_type(values.iter().map(String::as_str));
        Column {
            name: name.into(),
            values,
            ty,
        }
    }

    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the column (used by the dirty-data generator).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Inferred domain-independent type.
    pub fn column_type(&self) -> ColumnType {
        self.ty
    }

    /// All cells including nulls, in row order.
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Number of rows (including nulls).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterator over non-null (non-empty after trim) cells.
    pub fn non_null(&self) -> impl Iterator<Item = &str> {
        self.values
            .iter()
            .map(String::as_str)
            .filter(|v| !v.trim().is_empty())
    }

    /// Null count, distinct count and total length of the cells, in
    /// one pass over the column.
    pub fn cell_stats(&self) -> CellStats {
        let mut distinct: HashSet<&str, BuildHasherDefault<CellHasher>> =
            HashSet::with_capacity_and_hasher(self.values.len(), Default::default());
        let mut chars = 0usize;
        let mut non_null = 0usize;
        for v in self.non_null() {
            non_null += 1;
            chars += v.chars().count();
            distinct.insert(v);
        }
        CellStats {
            rows: self.values.len(),
            non_null,
            distinct: distinct.len(),
            chars,
        }
    }

    /// Count of null cells.
    pub fn null_count(&self) -> usize {
        self.values.iter().filter(|v| v.trim().is_empty()).count()
    }

    /// Fraction of cells that are null; 0 for an empty column.
    pub fn null_ratio(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.null_count() as f64 / self.values.len() as f64
        }
    }

    /// Number of distinct non-null cell values.
    pub fn distinct_count(&self) -> usize {
        self.cell_stats().distinct
    }

    /// distinct / non-null count, in `[0, 1]`; 0 for all-null columns.
    pub fn distinct_ratio(&self) -> f64 {
        self.cell_stats().distinct_ratio()
    }

    /// Mean character length of non-null cells.
    pub fn avg_len(&self) -> f64 {
        self.cell_stats().avg_len()
    }

    /// Parse the extent as numbers (for D-relatedness). Non-numeric
    /// and null cells are skipped.
    pub fn numeric_extent(&self) -> Vec<f64> {
        self.non_null().filter_map(typing::parse_numeric).collect()
    }

    /// Approximate in-memory/on-disk footprint of the column in bytes
    /// (cells + name), used for Table II space-overhead accounting.
    pub fn byte_size(&self) -> usize {
        self.name.len() + self.values.iter().map(|v| v.len() + 1).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: &[&str]) -> Column {
        Column::new("c", vals.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn type_inference_on_construction() {
        assert_eq!(col(&["1", "2"]).column_type(), ColumnType::Integer);
        assert_eq!(col(&["1.5", "2"]).column_type(), ColumnType::Float);
        assert_eq!(col(&["x", "y"]).column_type(), ColumnType::Text);
        assert_eq!(col(&["", ""]).column_type(), ColumnType::Empty);
        assert!(ColumnType::Integer.is_numeric());
        assert!(!ColumnType::Text.is_numeric());
    }

    proptest::proptest! {
        /// The cells `typing`'s proptests generate (numeric syntax,
        /// blanks, a multi-byte letter), a column at a time: the
        /// distinct count is the ordered set's.
        #[test]
        fn cell_stats_count_distinct_cells_exactly(
            cells in proptest::collection::vec("[0-9eE.,+%a é-]{0,10}", 0..60)
        ) {
            let stats = Column::new("c", cells.clone()).cell_stats();
            let distinct: std::collections::BTreeSet<&str> = cells
                .iter()
                .map(String::as_str)
                .filter(|v| !v.trim().is_empty())
                .collect();
            proptest::prop_assert_eq!(stats.distinct, distinct.len());
            proptest::prop_assert_eq!(stats.rows, cells.len());
        }
    }

    #[test]
    fn null_and_distinct_accounting() {
        let c = col(&["a", "", "a", "b", " "]);
        assert_eq!(c.len(), 5);
        assert_eq!(c.null_count(), 2);
        assert!((c.null_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(c.distinct_count(), 2);
        assert!((c.distinct_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            c.cell_stats(),
            CellStats {
                rows: 5,
                non_null: 3,
                distinct: 2,
                chars: 3
            }
        );
        let empty = col(&[]).cell_stats();
        assert_eq!(
            (empty.null_ratio(), empty.distinct_ratio(), empty.avg_len()),
            (0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn numeric_extent_skips_junk() {
        let c = col(&["1", "x", "", "2.5"]);
        assert_eq!(c.numeric_extent(), vec![1.0, 2.5]);
    }

    #[test]
    fn avg_len_and_bytes() {
        let c = col(&["ab", "abcd", ""]);
        assert!((c.avg_len() - 3.0).abs() < 1e-12);
        assert!(c.byte_size() > 6);
    }
}
