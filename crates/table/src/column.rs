//! Columns: named sequences of string cells with an inferred type.
//!
//! A [`Column`] keeps its cells as one buffer — every cell's bytes
//! back to back in one `String`, plus where each cell ends — the
//! layout of Arrow's variable-size binary arrays. A lake's load then
//! makes one allocation per column, not one per cell, and frees as
//! few. [`Column::values`] lends the cells out as [`Cells`], a view
//! that reads like a `&[&str]`; [`ColumnBuilder`] fills a column a
//! cell at a time (the CSV reader and the server's JSON decoder) and
//! [`Column::new`] packs a `Vec<String>`.

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
///
/// The cells are one buffer: their bytes back to back in `data`, and
/// where each ends. Two columns' cells are equal exactly when their
/// buffers and ends are, so the derived `PartialEq` compares cells.
#[derive(Clone, PartialEq)]
pub struct Column {
    name: String,
    /// Every cell's bytes, in row order, with nothing between them.
    data: String,
    /// `ends[r]` is where cell `r` ends in `data`; it starts where
    /// cell `r - 1` ends (cell 0 at 0).
    ends: Vec<usize>,
    ty: ColumnType,
}

impl std::fmt::Debug for Column {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Column")
            .field("name", &self.name)
            .field("values", &self.values())
            .field("ty", &self.ty)
            .finish()
    }
}

/// A column's cells, borrowed: what [`Column::values`] hands out. It
/// reads like a `&[&str]` — `len`, `get`, `iter` and `cells[r]`, which
/// panics past the end as a slice does.
#[derive(Clone, Copy)]
pub struct Cells<'a> {
    data: &'a str,
    ends: &'a [usize],
}

impl<'a> Cells<'a> {
    /// Number of cells, nulls included.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there are no cells.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Cell `r`, or `None` past the end.
    pub fn get(&self, r: usize) -> Option<&'a str> {
        (r < self.ends.len()).then(|| self.cell(r))
    }

    /// The cells in row order.
    pub fn iter(&self) -> CellsIter<'a> {
        CellsIter {
            data: self.data,
            ends: self.ends.iter(),
            start: 0,
        }
    }

    /// Cell `r`; past the end it panics with the slice's message.
    pub(crate) fn cell(&self, r: usize) -> &'a str {
        let end = self.ends[r];
        let start = if r == 0 { 0 } else { self.ends[r - 1] };
        &self.data[start..end]
    }
}

impl std::ops::Index<usize> for Cells<'_> {
    type Output = str;

    fn index(&self, r: usize) -> &str {
        self.cell(r)
    }
}

impl<'a> IntoIterator for Cells<'a> {
    type Item = &'a str;
    type IntoIter = CellsIter<'a>;

    fn into_iter(self) -> CellsIter<'a> {
        self.iter()
    }
}

impl std::fmt::Debug for Cells<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a column's cells in row order ([`Cells::iter`]).
#[derive(Clone)]
pub struct CellsIter<'a> {
    data: &'a str,
    ends: std::slice::Iter<'a, usize>,
    /// Where the next cell starts.
    start: usize,
}

impl<'a> Iterator for CellsIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let end = *self.ends.next()?;
        let cell = &self.data[self.start..end];
        self.start = end;
        Some(cell)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for CellsIter<'_> {}

/// A column being filled a cell at a time: each cell's bytes are
/// appended to the one buffer the column will own. The CSV reader and
/// the server's JSON decoder fill their columns through it;
/// [`ColumnBuilder::finish`] infers the type.
#[derive(Debug, Default)]
pub struct ColumnBuilder {
    data: String,
    ends: Vec<usize>,
}

impl ColumnBuilder {
    /// An empty column with room for `cells` cells of `bytes` bytes in
    /// all.
    pub fn with_capacity(cells: usize, bytes: usize) -> Self {
        ColumnBuilder {
            data: String::with_capacity(bytes),
            ends: Vec::with_capacity(cells),
        }
    }

    /// Append one cell.
    pub fn push(&mut self, cell: &str) {
        self.data.push_str(cell);
        self.ends.push(self.data.len());
    }

    /// Take the last cell back.
    pub(crate) fn pop(&mut self) {
        if self.ends.pop().is_some() {
            self.data.truncate(self.ends.last().copied().unwrap_or(0));
        }
    }

    /// The column these cells make, its type inferred from them.
    pub fn finish(self, name: impl Into<String>) -> Column {
        let cells = Cells {
            data: &self.data,
            ends: &self.ends,
        };
        let ty = typing::infer_type(cells);
        Column {
            name: name.into(),
            data: self.data,
            ends: self.ends,
            ty,
        }
    }
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
    /// Build a column, inferring its type from the supplied cells,
    /// which are packed into the column's one buffer.
    pub fn new(name: impl Into<String>, values: Vec<String>) -> Self {
        let bytes = values.iter().map(String::len).sum();
        let mut cells = ColumnBuilder::with_capacity(values.len(), bytes);
        for v in &values {
            cells.push(v);
        }
        cells.finish(name)
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
    pub fn values(&self) -> Cells<'_> {
        Cells {
            data: &self.data,
            ends: &self.ends,
        }
    }

    /// Number of rows (including nulls).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterator over non-null (non-empty after trim) cells.
    pub fn non_null(&self) -> impl Iterator<Item = &str> {
        self.values().iter().filter(|v| !v.trim().is_empty())
    }

    /// Null count, distinct count and total length of the cells, in
    /// one pass over the column.
    pub fn cell_stats(&self) -> CellStats {
        let mut distinct: HashSet<&str, BuildHasherDefault<CellHasher>> =
            HashSet::with_capacity_and_hasher(self.len(), Default::default());
        let mut chars = 0usize;
        let mut non_null = 0usize;
        for v in self.non_null() {
            non_null += 1;
            chars += v.chars().count();
            distinct.insert(v);
        }
        CellStats {
            rows: self.len(),
            non_null,
            distinct: distinct.len(),
            chars,
        }
    }

    /// Parse the extent as numbers (for D-relatedness). Non-numeric
    /// and null cells are skipped.
    pub fn numeric_extent(&self) -> Vec<f64> {
        self.non_null().filter_map(typing::parse_numeric).collect()
    }

    /// Approximate in-memory/on-disk footprint of the column in bytes
    /// (cells + name), used for Table II space-overhead accounting.
    pub fn byte_size(&self) -> usize {
        self.name.len() + self.data.len() + self.ends.len()
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

    /// The view reads like the `Vec<String>` the column was built
    /// from: lengths, `get`, `iter`, indexing, equality.
    #[test]
    fn cells_read_like_the_strings_they_were_built_from() {
        for cells in [
            vec![],
            vec![""],
            vec!["", "", ""],
            vec!["a", "", "bc", ""],
            vec!["日本", "é", "", "naïve café", "\u{feff}x"],
        ] {
            let owned: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
            let column = Column::new("c", owned.clone());
            let view = column.values();
            assert_eq!(view.len(), cells.len());
            assert_eq!(view.is_empty(), cells.is_empty());
            assert_eq!(column.len(), cells.len());
            assert_eq!(view.iter().len(), cells.len());
            assert_eq!(view.iter().collect::<Vec<_>>(), cells);
            for (r, cell) in cells.iter().enumerate() {
                assert_eq!(view.get(r), Some(*cell));
                assert_eq!(&view[r], *cell);
            }
            assert_eq!(view.get(cells.len()), None);
            assert_eq!(format!("{view:?}"), format!("{cells:?}"));
            assert_eq!(
                column.byte_size(),
                1 + owned.iter().map(|v| v.len() + 1).sum::<usize>()
            );
            // Equal cells make equal columns, and a cell moved across
            // a boundary does not.
            assert_eq!(column, Column::new("c", owned));
        }
        assert_ne!(col(&["ab", "c"]), col(&["a", "bc"]));
        assert_ne!(col(&["", "a"]), col(&["a", ""]));
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the len is 2 but the index is 2")]
    fn indexing_past_the_end_panics_as_a_slice_does() {
        let column = col(&["a", "b"]);
        let _ = &column.values()[2];
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the len is 0 but the index is 0")]
    fn indexing_an_empty_column_panics_as_a_slice_does() {
        let column = col(&[]);
        let _ = &column.values()[0];
    }

    /// A popped cell leaves the buffer as if it had never been pushed.
    #[test]
    fn a_popped_cell_leaves_no_trace() {
        let mut cells = ColumnBuilder::default();
        cells.push("12");
        cells.push("x");
        cells.pop();
        cells.push("");
        cells.push("34");
        cells.pop();
        cells.pop();
        let mut empty = ColumnBuilder::default();
        empty.pop();
        assert_eq!(empty.finish("c"), col(&[]));
        assert_eq!(cells.finish("c"), col(&["12"]));
    }

    #[test]
    fn null_and_distinct_accounting() {
        let c = col(&["a", "", "a", "b", " "]);
        assert_eq!(c.len(), 5);
        let stats = c.cell_stats();
        assert_eq!(stats.rows - stats.non_null, 2);
        assert!((stats.null_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(stats.distinct, 2);
        assert!((stats.distinct_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            stats,
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
        assert!((c.cell_stats().avg_len() - 3.0).abs() < 1e-12);
        assert!(c.byte_size() > 6);
    }
}
