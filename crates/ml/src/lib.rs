//! # d3l-ml — machine-learning substrate
//!
//! The two supervised components the paper relies on:
//!
//! * [`logreg`] — L2-regularized logistic regression optimized by
//!   cyclic coordinate descent (the paper cites Hsieh et al., ICML
//!   2008). D3L trains this on (related / unrelated) table pairs whose
//!   features are the five Eq.-1 distances, and uses the coefficients
//!   as the evidence weights of Eq. 3 (§III-D).
//! * [`subject`] — the subject attribute (after Venetis et al., PVLDB
//!   2011): [`subject_attribute`] names the column holding the
//!   entities a table is about, scored by one fixed logistic model,
//!   for Algorithm 2's guards and SA-join discovery (§IV). "Favours
//!   leftmost non-numeric attributes with fewer nulls and many
//!   distinct values" (§III-C). An index build scores the same
//!   features from the cell counts its profiler already took
//!   ([`subject_of_textual`]), through the same scoring function.
//!
//! The experiment harness (`d3l-bench`) reports how often
//! [`subject_attribute`] picks the entity column of the benchmark's
//! lake, and trains the evidence weights on a lake disjoint from it.

pub mod logreg;
pub mod subject;

pub use logreg::LogisticRegression;
pub use subject::{subject_attribute, subject_features, subject_of_textual, SUBJECT_FEATURES};
