//! The D3L benchmark (see `README.md`).
//!
//! Two binaries share this library:
//!
//! * `d3l-benchmark` — the end-to-end run (`--trace 0`): the release
//!   `d3l` binary as a child process, spoken to over loopback. Uses
//!   only [`inputs`], [`run`], [`child`], [`http`], [`wire`],
//!   [`stats`], [`report`], [`noise`] — and so links `d3l-benchgen`
//!   and `d3l-table` only.
//! * `d3l-benchmark-layers` — the traced run (`--trace 1`): a short
//!   end-to-end pass, then calls into each crate's public functions
//!   with spans around them ([`trace`]; the calls themselves live in
//!   the binary).

pub mod child;
pub mod cli;
pub mod http;
pub mod inputs;
pub mod noise;
pub mod report;
pub mod rng;
pub mod run;
pub mod stats;
pub mod trace;
pub mod wire;
pub mod workloads;
