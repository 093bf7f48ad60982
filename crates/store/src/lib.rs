//! # d3l-store — persistent index store substrate
//!
//! The bottom layer of D3L's persistence stack. The paper's core value
//! proposition (Experiment 4) is that indexing cost is paid **once**
//! and amortized across many queries; that amortization requires the
//! built indexes to survive process restarts. This crate provides the
//! wire vocabulary that makes the rest of the workspace serializable
//! without any registry dependency (the workspace builds against
//! offline compat stand-ins, so every encoder here is hand-written):
//!
//! * [`codec`] — LEB128 varints, fixed-width little-endian scalars,
//!   length-prefixed strings/slices, bulk word slabs, plus the
//!   word-wise section [`Checksum`]. Every decode is bounds-checked
//!   and returns a typed error.
//! * [`container`] — the shared file layout: `"D3LSTORE"` magic,
//!   format version, container kind (base snapshot vs delta segment),
//!   payloads and a trailing checksummed section table; written to any
//!   [`std::io::Write`] and read back one section at a time.
//! * [`error`] — [`StoreError`], the typed failure surface (bad magic,
//!   unsupported version, truncation, checksum mismatch, corruption,
//!   a segment another process wrote, per-segment wrapping).
//! * [`layout`] — the store-directory vocabulary (base-snapshot and
//!   delta-segment filenames, tmp markers) plus the read-only
//!   [`layout::scan`] inventory that replay, compaction and disk
//!   accounting list segments with.
//!
//! Domain serialization lives with the domain types: `d3l-lsh` encodes
//! LSH forests (`LshForest::{write_to,read_from}`), and `d3l-core`
//! assembles full engine snapshots, delta segments and the on-disk
//! [`IndexStore`] directory layout on top of these primitives.
//!
//! [`IndexStore`]: https://docs.rs/d3l-core

pub mod codec;
pub mod container;
pub mod error;
pub mod layout;

pub use codec::{checksum, Checksum, Decoder, Encoder};
pub use container::{
    ContainerReader, ContainerWriter, SectionReader, SectionTag, SectionWriter, FORMAT_VERSION,
    KIND_DELTA, KIND_SNAPSHOT, MAGIC,
};
pub use error::StoreError;
pub use layout::{StoreScan, BASE_FILE};
