//! # d3l-benchgen — benchmark repositories with ground truth
//!
//! The paper evaluates on three repositories we cannot ship
//! (Canadian/UK open-government data and NHS archives), so this crate
//! generates structurally equivalent ones:
//!
//! * [`derive::synthetic`] mirrors the TUS benchmark construction —
//!   32 base tables, each derived into many tables by random column
//!   projections and row selections, ground truth recorded during
//!   derivation; values stay clean and consistent.
//! * [`derive::smaller_real`] mirrors the *Smaller Real* repository —
//!   the same derivation plus heavy *dirtiness*: attribute-name
//!   synonyms, value format perturbation (case, abbreviations,
//!   typos, punctuation), extra numeric noise columns (Fig. 2c shows
//!   a higher numeric ratio) and smaller row overlaps.
//! * [`derive::larger_real`] scales table counts for the efficiency
//!   experiments (Experiment 4).
//!
//! [`GroundTruth`] captures both granularities the paper's metrics
//! need: table-level relatedness (same base family) and
//! attribute-level relatedness (same value domain, per Definition 1).
//! [`kb::SyntheticKb`] is the YAGO stand-in used by the TUS baseline.

pub mod base;
pub mod derive;
pub mod ground_truth;
pub mod kb;
pub mod spec;
pub mod stats;
pub mod vocab;

pub use derive::{larger_real, smaller_real, synthetic, Benchmark, DeriveConfig, DirtConfig};
pub use ground_truth::GroundTruth;
pub use kb::SyntheticKb;
pub use spec::{ColumnKind, Domain, TableSpec};
pub use stats::RepoStats;
