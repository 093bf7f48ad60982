//! # d3l-bench — experiment harness
//!
//! Machinery shared by the `experiments` binary (which regenerates
//! every table and figure of the paper) and the Criterion benches:
//! repository construction, system builders, and the evaluation loops
//! that sweep the answer size `k` over 100 (or configurable) targets.

pub mod eval;
pub mod experiments;
pub mod runner;
pub mod setup;

pub use eval::{EvalPoint, JoinEvalPoint};
pub use runner::Systems;
pub use setup::Setting;
