//! The attribute table: every table an engine indexes, and every
//! attribute of one, is a row of one struct-of-arrays table, not an
//! allocation of its own.
//!
//! Table `t` is its name (its bytes in one arena), its subject column
//! ([`NONE`] where it has none) and whether it is removed (a removal
//! tombstone), and it owns rows `first[t]..first[t + 1]`; its column `c` is row
//! `first[t] + c`. A row is the attribute's name (its bytes in another
//! arena), its numeric extent (in a third, [`Extents`]), its flags byte
//! (`profile`'s `FLAG_*` bits), and its **class** in each of the four
//! forests — the slot of the class that `IN`, `IV`, `IF` and `IE` hold
//! it in, in that order, or [`NONE`] where the index does not hold it (a
//! numeric attribute in `IV` and `IE`, §III-C). A forest keeps no
//! item → slot map (`d3l_lsh::forest`): this column is the one place an
//! attribute's classes are written down, so resolving a candidate's
//! four signatures is four array reads.
//!
//! A signed table (`SignedTable`: one to add, a query target, what a
//! delta segment carries) is the same table holding that one table,
//! with no class anywhere — so `PROF` and a delta segment encode a
//! table's rows through one function, and decode them through another.

use std::ops::Range;

use d3l_features::Extents;

use crate::index::AttrRef;
use crate::profile::AttrView;

/// The class of an attribute in an index that does not hold it, and
/// the subject column of a table that has none.
pub(crate) const NONE: u32 = u32::MAX;

/// `n` as a `u32` offset.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("an attribute table fits u32 offsets")
}

/// Strings end to end in one arena, each found by where it ends.
#[derive(Debug, Clone, Default, PartialEq)]
struct Strings {
    text: String,
    ends: Vec<u32>,
}

impl Strings {
    fn get(&self, i: usize) -> &str {
        &self.text[self.start(i)..self.ends[i] as usize]
    }

    fn push(&mut self, s: &str) {
        self.text.push_str(s);
        self.ends.push(offset(self.text.len()));
    }

    /// Remove strings `range`; those after it move down.
    fn remove(&mut self, range: Range<usize>) {
        let (from, to) = (self.start(range.start), self.start(range.end));
        self.text.drain(from..to);
        self.ends.drain(range.clone());
        let gone = offset(to - from);
        self.ends[range.start..].iter_mut().for_each(|e| *e -= gone);
    }

    fn append(&mut self, other: &Strings) {
        let bytes = self.text.len();
        self.text.push_str(&other.text);
        let ends = other.ends.iter();
        self.ends.extend(ends.map(|&e| offset(bytes + e as usize)));
    }

    /// The bytes and one `u32` end each.
    fn byte_size(&self) -> usize {
        self.text.len() + self.ends.len() * std::mem::size_of::<u32>()
    }

    fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Where string `i` starts (the end of the text when `i` is the
    /// count).
    fn start(&self, i: usize) -> usize {
        match i {
            0 => 0,
            i => self.ends[i - 1] as usize,
        }
    }
}

/// Every table of an engine, and every attribute of one, a row each
/// (module docs).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AttrTable {
    /// Table `t`'s first row, and one past the last table's last row.
    first: Vec<u32>,
    table_names: Strings,
    /// Each table's subject column, or [`NONE`].
    subject: Vec<u32>,
    removed: Vec<bool>,
    names: Strings,
    extents: Extents,
    flags: Vec<u8>,
    /// Each row's class slot in `IN`, `IV`, `IF`, `IE`.
    class: Vec<[u32; 4]>,
}

impl Default for AttrTable {
    fn default() -> Self {
        AttrTable {
            first: vec![0],
            table_names: Strings::default(),
            subject: Vec::new(),
            removed: Vec::new(),
            names: Strings::default(),
            extents: Extents::default(),
            flags: Vec::new(),
            class: Vec::new(),
        }
    }
}

impl AttrTable {
    /// Number of tables.
    pub(crate) fn tables(&self) -> usize {
        self.first.len() - 1
    }

    /// Table `t`'s name (a hole's is empty).
    pub(crate) fn table_name(&self, t: usize) -> &str {
        self.table_names.get(t)
    }

    /// Table `t`'s subject column, if it has one.
    pub(crate) fn subject(&self, t: usize) -> Option<u32> {
        Some(self.subject[t]).filter(|&c| c != NONE)
    }

    /// Whether table `t` is removed (a tombstone or a hole).
    pub(crate) fn is_removed(&self, t: usize) -> bool {
        self.removed[t]
    }

    /// Table `t`'s rows.
    pub(crate) fn rows(&self, t: usize) -> Range<usize> {
        self.first[t] as usize..self.first[t + 1] as usize
    }

    /// Number of rows.
    pub(crate) fn row_count(&self) -> usize {
        self.class.len()
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
        AttrView::with_flags(self.names.get(row), self.extents.get(row), self.flags[row])
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
        self.names.push(attr.name);
        self.extents.push(attr.numeric_extent);
        self.flags.push(attr.flags());
        self.class.push(class);
    }

    /// Close a table: the rows pushed since the last close are its.
    pub(crate) fn end_table(&mut self, name: &str, subject: Option<u32>, removed: bool) {
        self.first.push(offset(self.class.len()));
        self.table_names.push(name);
        self.subject.push(subject.unwrap_or(NONE));
        self.removed.push(removed);
    }

    /// Remove table `t`: it keeps its place and its name, with no row
    /// and no subject, and the rows of the tables after it move down.
    pub(crate) fn clear_table(&mut self, t: usize) {
        let rows = self.rows(t);
        self.names.remove(rows.clone());
        self.extents.remove(rows.clone());
        self.flags.drain(rows.clone());
        self.class.drain(rows.clone());
        let gone = offset(rows.len());
        self.first[t + 1..].iter_mut().for_each(|f| *f -= gone);
        self.subject[t] = NONE;
        self.removed[t] = true;
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
        let rows = self.class.len();
        let first = other.first[1..].iter();
        self.first.extend(first.map(|&f| offset(rows + f as usize)));
        self.table_names.append(&other.table_names);
        self.subject.extend_from_slice(&other.subject);
        self.removed.extend_from_slice(&other.removed);
        self.names.append(&other.names);
        (0..other.extents.len()).for_each(|row| self.extents.push(other.extents.get(row)));
        self.flags.extend_from_slice(&other.flags);
        self.class.extend(other.class.iter().map(|class| {
            std::array::from_fn(|k| match class[k] {
                NONE => NONE,
                slot => moved[k][slot as usize],
            })
        }));
    }

    /// Bytes the rows hold: every row column, the offsets included, and
    /// where each table's rows start.
    pub(crate) fn row_byte_size(&self) -> usize {
        self.first.len() * std::mem::size_of::<u32>()
            + self.names.byte_size()
            + self.extents.byte_size()
            + self.flags.len()
            + self.class.len() * std::mem::size_of::<[u32; 4]>()
    }

    /// Bytes the tables hold: their names and where each ends, subject
    /// columns and removed flags.
    pub(crate) fn table_byte_size(&self) -> usize {
        self.table_names.byte_size()
            + self.subject.len() * std::mem::size_of::<u32>()
            + self.removed.len()
    }

    /// Release spare capacity.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.first.shrink_to_fit();
        self.table_names.shrink_to_fit();
        self.subject.shrink_to_fit();
        self.removed.shrink_to_fit();
        self.names.shrink_to_fit();
        self.extents.shrink_to_fit();
        self.flags.shrink_to_fit();
        self.class.shrink_to_fit();
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
    /// classes move; so do the tables' names, subjects and flags.
    #[test]
    fn rows_survive_clearing_and_appending() {
        let (none, ints) = (
            NumericExtent::default(),
            NumericExtent::from_sorted(&[1.0, 2.0]),
        );
        let mut t = AttrTable::default();
        t.push(attr("City", &none), [0, 0, 0, 0]);
        t.push(attr("Patients", &ints), [1, NONE, 1, NONE]);
        t.end_table("gp", Some(0), false);
        t.end_table("", None, true);
        t.push(attr("Práctica", &none), [2, 1, 0, 1]);
        t.end_table("médicos", None, false);
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
        fn table(t: &AttrTable, i: usize) -> (&str, Option<u32>, bool) {
            (t.table_name(i), t.subject(i), t.is_removed(i))
        }
        assert_eq!(table(&t, 0), ("gp", Some(0), false));
        assert_eq!(table(&t, 1), ("", None, true));
        assert_eq!(table(&t, 2), ("médicos", None, false));

        let mut other = AttrTable::default();
        other.push(attr("Moons", &ints), [0, NONE, 1, NONE]);
        other.end_table("planets", None, false);
        let moved = [vec![7], vec![], vec![5, 6], vec![]];
        t.append(other, &moved);
        assert_eq!(t.tables(), 4);
        assert_eq!(t.attr(t.row(at(3, 0)).unwrap()).name, "Moons");
        assert_eq!(t.class(3), [7, NONE, 6, NONE]);
        assert_eq!(table(&t, 3), ("planets", None, false));

        t.clear_table(0);
        assert_eq!((t.rows(0), t.rows(2), t.rows(3)), (0..0, 0..1, 1..2));
        assert_eq!(t.row(at(0, 0)), None);
        assert_eq!(table(&t, 0), ("gp", None, true));
        let kept: Vec<(&str, [u32; 4])> = (0..2).map(|r| (t.attr(r).name, t.class(r))).collect();
        assert_eq!(
            kept,
            [("Práctica", [2, 1, 0, 1]), ("Moons", [7, NONE, 6, NONE])]
        );
        assert_eq!(t.attr(1).numeric_extent, &*ints);
        let rows = 5 * 4 + 2 * 4 + "PrácticaMoons".len() + (ints.byte_size() + 2 * 4) + 2 + 2 * 16;
        assert_eq!(t.row_byte_size(), rows);
        let tables = "gpmédicosplanets".len() + 4 * 4 + 4 * 4 + 4;
        assert_eq!(t.table_byte_size(), tables);
    }
}
