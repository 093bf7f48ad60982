//! Ground truth recorded during derivation.
//!
//! Two granularities, mirroring the paper's benchmarks (§V): each
//! table belongs to a *family* (the base table it was derived from) —
//! tables of the same family are related (the TUS benchmark's
//! derivation-based truth); and every generated column carries the
//! *kind key* of its value domain — attributes with equal kind keys
//! are related per Definition 1 (the basis of attribute precision in
//! Experiments 9/11).

use std::collections::{HashMap, HashSet};

/// Ground truth for one generated repository.
///
/// Table-level relatedness is *group*-based: tables derived within
/// the same thematic domain share entity pools and regional value
/// slices, so a curator applying Definition 1 would record them as
/// related (they can populate each other's attributes). The base
/// table (*family*) is also retained for finer-grained analyses.
#[derive(Debug, Default, Clone)]
pub struct GroundTruth {
    /// table name → family id (base table name).
    family: HashMap<String, String>,
    /// table name → relatedness group (thematic domain tag).
    group: HashMap<String, String>,
    /// group id → member table names.
    members: HashMap<String, Vec<String>>,
    /// (table name, column name) → value-domain kind key.
    kinds: HashMap<(String, String), String>,
}

impl GroundTruth {
    /// Empty truth.
    pub fn new() -> Self {
        GroundTruth::default()
    }

    /// Register a table in a family (base table) and relatedness
    /// group (domain).
    pub fn add_table(&mut self, table: &str, family: &str, group: &str) {
        self.family.insert(table.to_string(), family.to_string());
        self.group.insert(table.to_string(), group.to_string());
        self.members
            .entry(group.to_string())
            .or_default()
            .push(table.to_string());
    }

    /// Register a column's value-domain kind.
    pub fn add_column(&mut self, table: &str, column: &str, kind_key: &str) {
        self.kinds.insert(
            (table.to_string(), column.to_string()),
            kind_key.to_string(),
        );
    }

    /// Are two distinct tables related (same group)?
    pub fn tables_related(&self, a: &str, b: &str) -> bool {
        if a == b {
            return false;
        }
        match (self.group.get(a), self.group.get(b)) {
            (Some(ga), Some(gb)) => ga == gb,
            _ => false,
        }
    }

    /// Kind key of a column, if registered.
    pub fn kind_of(&self, table: &str, column: &str) -> Option<&str> {
        self.kinds
            .get(&(table.to_string(), column.to_string()))
            .map(String::as_str)
    }

    /// Are two attributes related per Definition 1 (same value
    /// domain)?
    pub fn attrs_related(&self, ta: &str, ca: &str, tb: &str, cb: &str) -> bool {
        match (self.kind_of(ta, ca), self.kind_of(tb, cb)) {
            (Some(ka), Some(kb)) => ka == kb,
            _ => false,
        }
    }

    /// The ground-truth answer set for a target table: all *other*
    /// tables of its group.
    pub fn answer_set(&self, target: &str) -> HashSet<String> {
        let mut out = HashSet::new();
        if let Some(grp) = self.group.get(target) {
            if let Some(members) = self.members.get(grp) {
                for m in members {
                    if m != target {
                        out.insert(m.clone());
                    }
                }
            }
        }
        out
    }

    /// Average answer size over all registered tables (the paper
    /// reports 260 for Synthetic and 110 for Smaller Real).
    pub fn avg_answer_size(&self) -> f64 {
        if self.family.is_empty() {
            return 0.0;
        }
        let total: usize = self.family.keys().map(|t| self.answer_set(t).len()).sum();
        total as f64 / self.family.len() as f64
    }

    /// Number of registered tables.
    pub fn table_count(&self) -> usize {
        self.family.len()
    }

    /// Iterate registered table names.
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        self.family.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> GroundTruth {
        let mut gt = GroundTruth::new();
        gt.add_table("a1", "base_a", "dom_a");
        gt.add_table("a2", "base_a", "dom_a");
        gt.add_table("b1", "base_b", "dom_b");
        gt.add_column("a1", "City", "city");
        gt.add_column("a2", "Town", "city");
        gt.add_column("b1", "City", "city");
        gt.add_column("a1", "Patients", "count:patients");
        gt.add_column("b1", "Payment", "amount:payment");
        gt
    }

    #[test]
    fn family_relatedness() {
        let gt = truth();
        assert!(gt.tables_related("a1", "a2"));
        assert!(!gt.tables_related("a1", "b1"));
        assert!(!gt.tables_related("a1", "a1"), "self is not related");
        assert!(!gt.tables_related("a1", "unknown"));
    }

    #[test]
    fn attribute_relatedness_crosses_families() {
        let gt = truth();
        // City columns are the same value domain everywhere.
        assert!(gt.attrs_related("a1", "City", "b1", "City"));
        assert!(
            gt.attrs_related("a1", "City", "a2", "Town"),
            "renamed column still related"
        );
        assert!(!gt.attrs_related("a1", "Patients", "b1", "Payment"));
        assert!(!gt.attrs_related("a1", "City", "a1", "Nope"));
    }

    #[test]
    fn answer_sets_and_sizes() {
        let gt = truth();
        let ans = gt.answer_set("a1");
        assert_eq!(ans.len(), 1);
        assert!(ans.contains("a2"));
        assert!(gt.answer_set("b1").is_empty());
        // (1 + 1 + 0) / 3
        assert!((gt.avg_answer_size() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(gt.table_count(), 3);
        assert_eq!(gt.tables().count(), 3);
    }
}
