//! # d3l-baselines — the systems D3L is compared against
//!
//! Faithful-in-spirit reimplementations of the two baselines of the
//! paper's evaluation (§V-A), built on the same substrates as D3L so
//! the comparison isolates *algorithmic* differences:
//!
//! * [`tus`] — **Table Union Search** (Nargesian, Zhu, Pu, Miller —
//!   PVLDB 2018): instance-value-only unionability from three
//!   ensemble measures (set overlap of whole values, knowledge-base
//!   class overlap, natural-language embedding similarity), with
//!   max-score aggregation. The paper notes the implementation is not
//!   public, "so we have implemented it ourselves using information
//!   from the paper" — as do we. YAGO is replaced by
//!   [`d3l_benchgen::SyntheticKb`].
//! * [`aurum`] — **Aurum** (Castro Fernandez et al. — ICDE 2018): a
//!   two-step profile-then-graph system; discovery is a graph
//!   neighbour lookup ranked by the *certainty* strategy (maximum
//!   similarity score across evidence types), and PK/FK candidate
//!   edges provide join discovery (`Aurum+J`).
//!
//! Both systems return [`BaselineMatch`]es so the experiment harness
//! evaluates all three systems uniformly.

pub mod aurum;
pub mod common;
pub mod tus;

pub use aurum::{Aurum, AurumConfig};
pub use common::BaselineMatch;
pub use tus::{Tus, TusConfig};
