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
//!   a higher numeric ratio) and smaller row overlaps. The benchmark's
//!   `build-dirty2k` lake, on which `d3l-bench` runs every experiment,
//!   is `smaller_real(2000, 11)`.
//!
//! [`GroundTruth`] captures both granularities the paper's metrics
//! need: table-level relatedness (same base family) and
//! attribute-level relatedness (same value domain, per Definition 1).
//! [`vocab`] holds the word pools values are drawn from, and an
//! answer-key oracle built from them: [`vocab::kb_classes`] (a token →
//! class knowledge base for TUS). No shipped system reads it: tests
//! do, and `d3l-bench`'s Experiment 2 prints TUS with the knowledge
//! base as a labelled oracle row.

pub mod base;
pub mod derive;
pub mod ground_truth;
pub mod spec;
pub mod stats;
pub mod vocab;

pub use derive::{smaller_real, synthetic, Benchmark, DeriveConfig, DirtConfig};
pub use ground_truth::GroundTruth;
pub use spec::{ColumnKind, Domain, TableSpec};
pub use stats::RepoStats;
