//! Repository statistics (arity, cardinality and data-type mix, the
//! measures of the paper's Figure 2), as `d3l stats` prints them.

use d3l_table::DataLake;

/// Descriptive statistics of one repository.
#[derive(Debug, Clone, PartialEq)]
pub struct RepoStats {
    /// Number of tables.
    pub tables: usize,
    /// Total attribute count.
    pub attributes: usize,
    /// Per-table arity values.
    pub arities: Vec<usize>,
    /// Per-table cardinality values.
    pub cardinalities: Vec<usize>,
    /// Fraction of attributes that are numeric (Fig. 2c).
    pub numeric_ratio: f64,
    /// Approximate raw size in bytes.
    pub bytes: usize,
}

impl RepoStats {
    /// Compute statistics over a lake.
    pub fn compute(lake: &DataLake) -> Self {
        let mut arities = Vec::with_capacity(lake.len());
        let mut cardinalities = Vec::with_capacity(lake.len());
        let mut numeric = 0usize;
        let mut attributes = 0usize;
        for (_, t) in lake.iter() {
            arities.push(t.arity());
            cardinalities.push(t.cardinality());
            for c in t.columns() {
                attributes += 1;
                if c.column_type().is_numeric() {
                    numeric += 1;
                }
            }
        }
        RepoStats {
            tables: lake.len(),
            attributes,
            arities,
            cardinalities,
            numeric_ratio: if attributes == 0 {
                0.0
            } else {
                numeric as f64 / attributes as f64
            },
            bytes: lake.byte_size(),
        }
    }

    /// Mean of per-table arities.
    pub fn mean_arity(&self) -> f64 {
        mean(&self.arities)
    }

    /// Mean of per-table cardinalities.
    pub fn mean_cardinality(&self) -> f64 {
        mean(&self.cardinalities)
    }
}

fn mean(xs: &[usize]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<usize>() as f64 / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::{smaller_real, synthetic};

    #[test]
    fn stats_on_synthetic() {
        let b = synthetic(32, 1);
        let s = RepoStats::compute(&b.lake);
        assert_eq!(s.tables, 32);
        assert_eq!(s.arities.len(), 32);
        assert!(s.mean_arity() >= 2.0);
        assert!(s.mean_cardinality() > 10.0);
        assert!(s.numeric_ratio > 0.0 && s.numeric_ratio < 1.0);
        assert!(s.bytes > 0);
    }

    #[test]
    fn smaller_real_more_numeric() {
        let syn = RepoStats::compute(&synthetic(48, 2).lake);
        let real = RepoStats::compute(&smaller_real(48, 2).lake);
        assert!(real.numeric_ratio > syn.numeric_ratio, "Fig. 2c shape");
    }

    #[test]
    fn empty_lake_stats() {
        let s = RepoStats::compute(&DataLake::new());
        assert_eq!(s.tables, 0);
        assert_eq!(s.numeric_ratio, 0.0);
        assert_eq!(s.mean_arity(), 0.0);
    }
}
