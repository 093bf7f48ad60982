//! The data lake: a flat repository of tables, addressable by a dense
//! [`TableId`] (used as the LSH item key throughout) or by name.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::csv;
use crate::error::TableError;
use crate::table::Table;

/// Dense identifier of a table within one [`DataLake`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl TableId {
    /// The id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A repository of datasets with no relationship metadata — the
/// paper's notion of a data lake (§I).
#[derive(Debug, Default, Clone)]
pub struct DataLake {
    tables: Vec<Table>,
    by_name: HashMap<String, TableId>,
}

impl DataLake {
    /// An empty lake.
    pub fn new() -> Self {
        DataLake::default()
    }

    /// Add a table; names must be unique within the lake.
    pub fn add(&mut self, table: Table) -> Result<TableId, TableError> {
        if self.by_name.contains_key(table.name()) {
            return Err(TableError::DuplicateTable(table.name().to_string()));
        }
        let id = TableId(self.tables.len() as u32);
        self.by_name.insert(table.name().to_string(), id);
        self.tables.push(table);
        Ok(id)
    }

    /// Number of tables in the lake.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the lake holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Table by id. Panics on out-of-range ids (they are only minted
    /// by `add`).
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Table by name.
    pub fn table_by_name(&self, name: &str) -> Option<&Table> {
        self.by_name.get(name).map(|id| self.table(*id))
    }

    /// Id by name.
    pub fn id_of(&self, name: &str) -> Option<TableId> {
        self.by_name.get(name).copied()
    }

    /// All (id, table) pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &Table)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (TableId(i as u32), t))
    }

    /// All ids.
    pub fn ids(&self) -> impl Iterator<Item = TableId> {
        (0..self.tables.len() as u32).map(TableId)
    }

    /// Total attribute count across all tables.
    pub fn total_attributes(&self) -> usize {
        self.tables.iter().map(Table::arity).sum()
    }

    /// Approximate byte footprint of the raw data (Table II baseline).
    pub fn byte_size(&self) -> usize {
        self.tables.iter().map(Table::byte_size).sum()
    }

    /// Load every `*.csv` file in a directory (non-recursive) as a
    /// table named after the file stem, in [`csv_files`] order.
    pub fn load_dir(path: impl AsRef<Path>) -> Result<Self, TableError> {
        let mut lake = DataLake::new();
        for p in csv_files(path)? {
            lake.add(load_csv(&p)?)?;
        }
        Ok(lake)
    }

    /// Persist every table as `<name>.csv` under `dir` (created if
    /// missing).
    pub fn save_dir(&self, dir: impl AsRef<Path>) -> Result<(), TableError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        for t in &self.tables {
            let path = dir.join(format!("{}.csv", t.name()));
            std::fs::write(path, csv::to_csv(t))?;
        }
        Ok(())
    }
}

/// The `*.csv` files of a directory (non-recursive), sorted by path —
/// the order [`DataLake::load_dir`] assigns table ids in.
pub fn csv_files(dir: impl AsRef<Path>) -> Result<Vec<PathBuf>, TableError> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "csv"))
        .collect();
    files.sort();
    Ok(files)
}

/// The table name a CSV file loads under: its file stem.
pub fn table_name_of(path: &Path) -> String {
    path.file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unnamed".to_string())
}

/// Read and parse one CSV file as a table named after its file stem.
pub fn load_csv(path: &Path) -> Result<Table, TableError> {
    let text = std::fs::read_to_string(path)?;
    csv::parse_csv(table_name_of(path), &text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;

    fn tiny(name: &str) -> Table {
        Table::from_rows(name, &["a"], &[vec!["1".into()]]).unwrap()
    }

    #[test]
    fn add_and_lookup() {
        let mut lake = DataLake::new();
        let id = lake.add(tiny("t1")).unwrap();
        assert_eq!(id, TableId(0));
        assert_eq!(lake.len(), 1);
        assert!(!lake.is_empty());
        assert_eq!(lake.table(id).name(), "t1");
        assert_eq!(lake.id_of("t1"), Some(id));
        assert!(lake.table_by_name("t1").is_some());
        assert!(lake.table_by_name("zzz").is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut lake = DataLake::new();
        lake.add(tiny("t")).unwrap();
        assert!(matches!(
            lake.add(tiny("t")),
            Err(TableError::DuplicateTable(_))
        ));
    }

    #[test]
    fn iteration_and_totals() {
        let mut lake = DataLake::new();
        lake.add(tiny("a")).unwrap();
        lake.add(tiny("b")).unwrap();
        assert_eq!(lake.iter().count(), 2);
        assert_eq!(lake.ids().count(), 2);
        assert_eq!(lake.total_attributes(), 2);
        assert!(lake.byte_size() > 0);
    }

    #[test]
    fn save_and_load_round_trip() {
        let mut lake = DataLake::new();
        lake.add(
            Table::from_rows(
                "gp",
                &["Practice", "City"],
                &[vec!["Blackfriars".into(), "Salford".into()]],
            )
            .unwrap(),
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("d3l_lake_test_{}", std::process::id()));
        lake.save_dir(&dir).unwrap();
        let loaded = DataLake::load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(
            loaded
                .table_by_name("gp")
                .unwrap()
                .column("City")
                .unwrap()
                .values()[0],
            "Salford"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn table_id_display() {
        assert_eq!(TableId(7).to_string(), "t7");
        assert_eq!(TableId(7).index(), 7);
    }
}
