//! # d3l — Dataset Discovery in Data Lakes
//!
//! A from-scratch Rust implementation of **D3L** (Bogatu, Fernandes,
//! Paton, Konstantinou — *Dataset Discovery in Data Lakes*, ICDE
//! 2020), together with every substrate it needs. The two systems it
//! is evaluated against, TUS and Aurum, are the workspace's
//! `d3l-baselines` crate, which the facade does not ship.
//!
//! Given a *data lake* (a pile of tables with no relationship
//! metadata) and a *target* table with exemplar tuples, D3L returns
//! the k most *related* tables — those whose attributes draw values
//! from the same domains as the target's, and which are therefore
//! unionable with it — and extends the result with *join paths* that
//! cover additional target attributes.
//!
//! ## Quick start
//!
//! ```
//! use d3l::prelude::*;
//!
//! // A tiny lake with one useful table and one decoy.
//! let mut lake = DataLake::new();
//! lake.add(Table::from_rows(
//!     "gp_funding",
//!     &["Practice", "City", "Payment"],
//!     &[
//!         vec!["Blackfriars".into(), "Salford".into(), "15530".into()],
//!         vec!["The London Clinic".into(), "London".into(), "73648".into()],
//!     ],
//! ).unwrap()).unwrap();
//! lake.add(Table::from_rows(
//!     "planets",
//!     &["Planet", "Moons"],
//!     &[vec!["Saturn".into(), "146".into()]],
//! ).unwrap()).unwrap();
//!
//! // Index once, query with a target.
//! let d3l = ShardedD3l::index_lake(&lake, D3lConfig::fast());
//! let target = Table::from_rows(
//!     "gps",
//!     &["Practice", "City"],
//!     &[vec!["Blackfriars".into(), "Salford".into()]],
//! ).unwrap();
//! let top = d3l.query(&target, 1);
//! assert_eq!(d3l.table_name(top[0].table), "gp_funding");
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `d3l-core` | the paper's contribution: indexes, distances, Eq. 1–3, join paths |
//! | [`table`] | `d3l-table` | tables, CSV, the in-memory lake |
//! | [`lsh`] | `d3l-lsh` | MinHash, random projections, LSH Forest |
//! | [`features`] | `d3l-features` | q-grams, tokens, format patterns, KS |
//! | [`embedding`] | `d3l-embedding` | the fastText stand-in word embedder |
//! | [`store`] | `d3l-store` | binary snapshot codec + container for the persistent index store |
//! | [`server`] | `d3l-server` | concurrent HTTP serving layer over the store (`d3l serve`) |
//! | [`ml`] | `d3l-ml` | logistic regression, the subject-attribute classifier |
//! | [`benchgen`] | `d3l-benchgen` | benchmark repositories with ground truth |

pub use d3l_benchgen as benchgen;
pub use d3l_core as core;
pub use d3l_embedding as embedding;
pub use d3l_features as features;
pub use d3l_lsh as lsh;
pub use d3l_ml as ml;
pub use d3l_server as server;
pub use d3l_store as store;
pub use d3l_table as table;

/// The most common imports in one place.
pub mod prelude {
    pub use d3l_core::{
        AttrRef, D3l, D3lConfig, DistanceVector, EngineHandle, Evidence, EvidenceWeights,
        IndexStore, Ingestor, JoinPath, SaJoinGraph, ShardedD3l, TableMatch, WatchConfig,
        WatchStats, Watcher,
    };
    pub use d3l_embedding::{Lexicon, SemanticEmbedder, WordEmbedder};
    pub use d3l_table::{Column, ColumnType, DataLake, Table, TableId};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_re_exports_work() {
        let lake = DataLake::new();
        let d3l = D3l::index_lake(&lake, D3lConfig::fast());
        assert_eq!(d3l.table_count(), 0);
        assert!(Evidence::ALL.len() == 5);
    }
}
