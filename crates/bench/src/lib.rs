//! # d3l-bench — experiment harness
//!
//! What the `experiments` binary (which regenerates every table and
//! figure of the paper) is made of: repository scale settings, the
//! three systems built over one repository, and the evaluation loops
//! that sweep the answer size `k` over 100 (or configurable) targets.
//! Speed, size and answer quality of the system itself are measured
//! by the benchmark package in `benchmark/`, not here.

pub mod eval;
pub mod experiments;
pub mod runner;
pub mod setup;
