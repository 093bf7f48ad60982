//! # d3l-core — Dataset Discovery in Data Lakes
//!
//! The primary contribution of the reproduced paper (Bogatu et al.,
//! ICDE 2020): given a target table and a data lake, return the
//! *k*-most related tables, where relatedness is measured by five
//! evidence types (attribute **N**ames, **V**alue tokens, **F**ormat
//! patterns, word-**E**mbeddings, and numeric **D**istributions)
//! mapped into a uniform `[0, 1]` distance space by LSH indexes.
//!
//! Pipeline:
//!
//! 1. [`profile`] — Algorithm 1: extract the set representations of
//!    every attribute in the lake;
//! 2. [`index`] — insert MinHash / random-projection signatures into
//!    the four LSH Forests `IN`, `IV`, `IF`, `IE`;
//! 3. [`query`] — a three-stage pipeline: (a) *candidate generation*
//!    (the prepared target's attributes are looked up in the four
//!    forests; candidate sets are sorted by [`AttrRef::key`]),
//!    (b) *pairwise evidence scoring* (five distances per candidate
//!    pair, Algorithm 2 guarding the numeric KS case), and
//!    (c) *CCDF-weighted aggregation* (Eq. 1–2 column-wise, Eq. 3
//!    collapse). Stages (a) and (b) fan out over scoped threads
//!    (`D3lConfig::query_threads`), and [`ShardedD3l::query_batch`]
//!    fans a whole evaluation workload out over targets — profiling
//!    each target exactly once — while guaranteeing results
//!    byte-identical to the sequential path at every thread count.
//!    [`ShardedD3l`] ([`shard`]) is the engine that runs it: the lake
//!    partitioned over `D3lConfig::shards` [`D3l`] shards, one shard
//!    being the ordinary case;
//! 4. [`join`] — Algorithm 3: extend the top-k with SA-join paths
//!    that cover additional target attributes;
//! 5. [`metrics`] — the paper's evaluation measures (precision,
//!    recall, coverage, attribute precision).
//!
//! ```
//! use d3l_table::{DataLake, Table};
//! use d3l_core::{D3lConfig, ShardedD3l};
//!
//! let mut lake = DataLake::new();
//! lake.add(Table::from_rows("gp_funding",
//!     &["Practice", "City"],
//!     &[vec!["Blackfriars".into(), "Salford".into()]]).unwrap()).unwrap();
//!
//! let d3l = ShardedD3l::index_lake(&lake, D3lConfig::fast());
//! let target = Table::from_rows("gps",
//!     &["Practice", "City"],
//!     &[vec!["Radclife".into(), "Manchester".into()]]).unwrap();
//! let matches = d3l.query(&target, 1);
//! assert_eq!(matches.len(), 1);
//! ```

mod attrs;
pub mod cache;
pub mod config;
pub mod distance;
pub mod evidence;
pub mod hotswap;
pub mod index;
pub mod join;
pub mod metrics;
pub mod profile;
pub mod query;
pub mod shard;
pub mod snapshot;
pub mod trace;
pub mod watch;
pub mod weights;

pub use cache::{options_fingerprint, table_fingerprint, CacheKey, CacheStats, QueryCache};
pub use config::D3lConfig;
pub use distance::DistanceVector;
pub use evidence::Evidence;
pub use hotswap::{EngineHandle, EngineSnapshot, EngineTelemetry, MaintenanceError};
pub use index::{AttrRef, ClassStats, D3l, IndexFootprint, MemoryFootprint, SignedTable};
pub use join::{JoinPath, SaJoinGraph};
pub use profile::{AttrView, AttributeProfile};
pub use query::{Alignment, QueryOptions, TableMatch};
pub use shard::{shard_of_name, ShardedD3l};
pub use snapshot::{DeltaRecord, IndexStore};
pub use trace::{QueryTrace, StageTimer};
pub use watch::{compact_if_due, Ingestor, WatchConfig, WatchStats, Watcher};
pub use weights::EvidenceWeights;
