//! The attribute table: every attribute an engine indexes is a row of
//! one struct-of-arrays table, not an allocation of its own.
//!
//! Table `t` owns rows `first[t]..first[t + 1]`; its column `c` is row
//! `first[t] + c`. A row is the attribute's name (its bytes in one
//! arena), its numeric extent (in another, [`Extents`]), its flags byte
//! (`profile`'s `FLAG_*` bits), and its **class** in each of the four
//! forests — the slot of the class that `IN`, `IV`, `IF` and `IE` hold
//! it in, in that order, or [`NONE`] where the index does not hold it (a
//! numeric attribute in `IV` and `IE`, §III-C). A forest keeps no
//! item → slot map (`d3l_lsh::forest`): this column is the one place an
//! attribute's classes are written down, so resolving a candidate's
//! four signatures is four array reads.

use std::ops::Range;

use d3l_features::Extents;

use crate::index::AttrRef;
use crate::profile::AttrView;

/// The class of an attribute in an index that does not hold it.
pub(crate) const NONE: u32 = u32::MAX;

/// Every attribute of an engine, one row each (module docs).
#[derive(Debug, Clone)]
pub(crate) struct AttrTable {
    /// Table `t`'s first row, and one past the last table's last row.
    first: Vec<u32>,
    /// Every row's name, end to end.
    names: String,
    /// Where each row's name ends in `names`.
    name_ends: Vec<u32>,
    extents: Extents,
    flags: Vec<u8>,
    /// Each row's class slot in `IN`, `IV`, `IF`, `IE`.
    class: Vec<[u32; 4]>,
}

impl Default for AttrTable {
    fn default() -> Self {
        AttrTable {
            first: vec![0],
            names: String::new(),
            name_ends: Vec::new(),
            extents: Extents::default(),
            flags: Vec::new(),
            class: Vec::new(),
        }
    }
}

/// `n` as a `u32` offset.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("an attribute table fits u32 offsets")
}

impl AttrTable {
    /// Number of tables.
    pub(crate) fn tables(&self) -> usize {
        self.first.len() - 1
    }

    /// Table `t`'s rows.
    pub(crate) fn rows(&self, t: usize) -> Range<usize> {
        self.first[t] as usize..self.first[t + 1] as usize
    }

    /// The row of `attr`, if the table list has it.
    pub(crate) fn row(&self, attr: AttrRef) -> Option<usize> {
        let t = attr.table.index();
        if t >= self.tables() {
            return None;
        }
        let rows = self.rows(t);
        let row = rows.start + attr.column as usize;
        (row < rows.end).then_some(row)
    }

    /// Row `row`'s attribute.
    pub(crate) fn attr(&self, row: usize) -> AttrView<'_> {
        let name = &self.names[self.name_start(row)..self.name_ends[row] as usize];
        AttrView::with_flags(name, self.extents.get(row), self.flags[row])
    }

    /// Row `row`'s class in each index.
    pub(crate) fn class(&self, row: usize) -> [u32; 4] {
        self.class[row]
    }

    /// Put row `row` in class `slot` of index `index`.
    pub(crate) fn set_class(&mut self, row: usize, index: usize, slot: u32) {
        self.class[row][index] = slot;
    }

    /// Append a row to the table [`AttrTable::end_table`] closes next.
    pub(crate) fn push(&mut self, attr: AttrView<'_>, class: [u32; 4]) {
        self.names.push_str(attr.name);
        self.name_ends.push(offset(self.names.len()));
        self.extents.push(attr.numeric_extent);
        self.flags.push(attr.flags());
        self.class.push(class);
    }

    /// Close a table: the rows pushed since the last close are its.
    pub(crate) fn end_table(&mut self) {
        self.first.push(offset(self.class.len()));
    }

    /// Take table `t`'s rows out: the table keeps its place, with no
    /// row, and the rows of the tables after it move down.
    pub(crate) fn clear_table(&mut self, t: usize) {
        let rows = self.rows(t);
        let (from, to) = (self.name_start(rows.start), self.name_start(rows.end));
        self.names.drain(from..to);
        self.name_ends.drain(rows.clone());
        let gone = offset(to - from);
        self.name_ends[rows.start..]
            .iter_mut()
            .for_each(|e| *e -= gone);
        self.extents.remove(rows.clone());
        self.flags.drain(rows.clone());
        self.class.drain(rows.clone());
        let gone = offset(rows.len());
        self.first[t + 1..].iter_mut().for_each(|f| *f -= gone);
    }

    /// Append `other`'s tables, whose forests were appended to this
    /// table's: `moved[k][s]` is where class `s` of `other`'s index `k`
    /// went ([`d3l_lsh::forest::LshForest::append`] — which, into empty
    /// forests, moves nothing).
    pub(crate) fn append(&mut self, other: AttrTable, moved: &[Vec<u32>; 4]) {
        if self.tables() == 0 {
            *self = other;
            return;
        }
        let (rows, bytes) = (self.class.len(), self.names.len());
        let first = other.first[1..].iter();
        self.first.extend(first.map(|&f| offset(rows + f as usize)));
        self.names.push_str(&other.names);
        let ends = other.name_ends.iter();
        self.name_ends
            .extend(ends.map(|&e| offset(bytes + e as usize)));
        (0..other.extents.len()).for_each(|row| self.extents.push(other.extents.get(row)));
        self.flags.extend_from_slice(&other.flags);
        self.class.extend(other.class.iter().map(|class| {
            std::array::from_fn(|k| match class[k] {
                NONE => NONE,
                slot => moved[k][slot as usize],
            })
        }));
    }

    /// Bytes held: every column, the offsets included.
    pub(crate) fn byte_size(&self) -> usize {
        let u32s = self.first.len() + self.name_ends.len();
        u32s * std::mem::size_of::<u32>()
            + self.names.len()
            + self.extents.byte_size()
            + self.flags.len()
            + self.class.len() * std::mem::size_of::<[u32; 4]>()
    }

    /// Release spare capacity.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.first.shrink_to_fit();
        self.names.shrink_to_fit();
        self.name_ends.shrink_to_fit();
        self.extents.shrink_to_fit();
        self.flags.shrink_to_fit();
        self.class.shrink_to_fit();
    }

    /// Where row `row`'s name starts (the end of the names when `row`
    /// is the row count).
    fn name_start(&self, row: usize) -> usize {
        match row {
            0 => 0,
            row => self.name_ends[row - 1] as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d3l_features::NumericExtent;
    use d3l_table::TableId;

    fn attr<'a>(name: &'a str, extent: &'a NumericExtent) -> AttrView<'a> {
        AttrView::with_flags(name, extent, if extent.is_empty() { 4 } else { 5 })
    }

    fn at(table: u32, column: u32) -> AttrRef {
        AttrRef {
            table: TableId(table),
            column,
        }
    }

    /// Rows are found by table and column, read back as pushed, and
    /// stay so through a cleared table and an appended table whose
    /// classes move.
    #[test]
    fn rows_survive_clearing_and_appending() {
        let (none, ints) = (
            NumericExtent::default(),
            NumericExtent::from_sorted(&[1.0, 2.0]),
        );
        let mut t = AttrTable::default();
        t.push(attr("City", &none), [0, 0, 0, 0]);
        t.push(attr("Patients", &ints), [1, NONE, 1, NONE]);
        t.end_table();
        t.end_table();
        t.push(attr("Práctica", &none), [2, 1, 0, 1]);
        t.end_table();
        assert_eq!(t.tables(), 3);
        assert_eq!((t.rows(0), t.rows(1), t.rows(2)), (0..2, 2..2, 2..3));
        assert_eq!(t.row(at(0, 1)), Some(1));
        assert_eq!(t.row(at(2, 0)), Some(2));
        for gone in [at(0, 2), at(1, 0), at(3, 0), at(u32::MAX, 0)] {
            assert_eq!(t.row(gone), None, "{gone:?}");
        }
        let patients = t.attr(1);
        assert_eq!(patients.name, "Patients");
        assert!(patients.is_numeric && patients.has_name);
        assert_eq!(patients.numeric_extent, &*ints);
        assert_eq!(t.class(1), [1, NONE, 1, NONE]);

        let mut other = AttrTable::default();
        other.push(attr("Moons", &ints), [0, NONE, 1, NONE]);
        other.end_table();
        let moved = [vec![7], vec![], vec![5, 6], vec![]];
        t.append(other, &moved);
        assert_eq!(t.tables(), 4);
        assert_eq!(t.attr(t.row(at(3, 0)).unwrap()).name, "Moons");
        assert_eq!(t.class(3), [7, NONE, 6, NONE]);

        t.clear_table(0);
        assert_eq!((t.rows(0), t.rows(2), t.rows(3)), (0..0, 0..1, 1..2));
        assert_eq!(t.row(at(0, 0)), None);
        let kept: Vec<(&str, [u32; 4])> = (0..2).map(|r| (t.attr(r).name, t.class(r))).collect();
        assert_eq!(
            kept,
            [("Práctica", [2, 1, 0, 1]), ("Moons", [7, NONE, 6, NONE])]
        );
        assert_eq!(t.attr(1).numeric_extent, &*ints);
        let bytes = 5 * 4 + 2 * 4 + "PrácticaMoons".len() + (ints.byte_size() + 2 * 4) + 2 + 2 * 16;
        assert_eq!(t.byte_size(), bytes);
    }
}
