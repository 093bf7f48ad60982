//! # d3l-features — evidence feature extraction
//!
//! Implements the set representations of §III-A/B of the paper:
//!
//! * [`qgrams`] — q-gram sets of attribute names (**N** evidence,
//!   q = 4);
//! * [`tokenize`] — value tokenization: a value is a *document*, split
//!   into *parts* at punctuation, parts into lowercase words;
//! * [`histogram`] — the per-column token interner: occurrence
//!   counts plus the extent as token ids, with the
//!   frequent/infrequent split that feeds the value tset (**V**) and
//!   the embedding token selection (**E**);
//! * [`regex_format`] — format-describing pattern strings over the
//!   primitive lexical classes `C U L N A P` (**F** evidence);
//! * [`ks`] — the two-sample Kolmogorov–Smirnov statistic (**D**
//!   evidence for numeric attributes);
//! * [`extent`] — the numeric extent as an index keeps it: exact
//!   scaled-integer deltas, borrowed, owned or many in one arena, and
//!   the KS statistic over two of them.

pub mod extent;
pub mod histogram;
pub mod ks;
pub mod qgrams;
pub mod regex_format;
pub mod tokenize;

pub use extent::{Extent, Extents, NumericExtent};
pub use histogram::TokenHistogram;
pub use ks::ks_statistic;
pub use qgrams::{qgram_hash_set, qgram_set};
pub use regex_format::{format_pattern, format_pattern_hash};
pub use tokenize::{parts, words};
