//! # d3l-bench — the evaluation harness
//!
//! One lake, the benchmark's: [`lake::pinned`] is the dirty 2 000-table
//! lake of its `build-dirty2k` workload, read back from CSV files so
//! table ids are the ones `d3l index` assigns, and [`lake::probes`] are
//! its 100 ground-truth probes. [`runner::Systems`] indexes that one
//! lake with D3L, TUS and Aurum, all with the shipped subword-hashing
//! embedder; [`eval`] holds the paper's measures and [`experiments`]
//! what the `experiments` binary prints. Every probe loop maps its
//! probes over threads through one function, [`runner::par_map`],
//! whatever the system; only Exp. 5 times its queries one after
//! another. `tests/pinned_lake.rs` holds
//! D3L's precision and recall at k = 60 to the benchmark's exact
//! figures, so the two evaluators judge the same thing.

pub mod eval;
pub mod experiments;
pub mod lake;
pub mod runner;
