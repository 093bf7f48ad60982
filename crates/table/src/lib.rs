//! # d3l-table — tabular data substrate
//!
//! The data lake model used throughout the D3L reproduction. A
//! [`DataLake`] is a flat collection of [`Table`]s; a table is a named
//! list of [`Column`]s; cells are strings (as they arrive from CSV
//! files) with a per-column inferred [`ColumnType`].
//!
//! This mirrors the paper's assumption (ICDE 2020, §I) that the only
//! metadata available is attribute names and domain-independent types.
//!
//! The crate also provides a hand-rolled RFC-4180 CSV reader/writer
//! ([`csv`]) so repositories can be materialized on disk and reloaded,
//! and relational operators (projection, selection, hash join) used by
//! the benchmark generators and the join-path coverage evaluation.

pub mod column;
pub mod csv;
pub mod error;
pub mod lake;
pub mod table;
pub mod typing;

pub use column::{CellStats, Column, ColumnType};
pub use error::TableError;
pub use lake::{DataLake, TableId};
pub use table::Table;
