//! Persistent engine snapshots and the on-disk index store.
//!
//! The paper's cost model (Experiment 4) assumes indexing is paid
//! once and amortized across many queries; this module is what makes
//! that amortization real. A [`D3l`] serializes into a versioned,
//! checksummed container ([`D3l::to_snapshot_bytes`]) and loads back
//! ([`D3l::from_snapshot_bytes`]) into a query-ready engine with **no
//! re-profiling and no re-sorting**.
//!
//! **The store keeps what scoring reads and nothing else, once.**
//! Stored, one section each:
//!
//! - `CONF`: the configuration that shapes the index, seven fields —
//!   `num_perm`, `embed_bits`, `embed_dim`, `trees`, `q` and
//!   `min_lookup` as varints, `seed` as a `u64`.
//!   Not the thread count, a setting of the process, which the
//!   opening process sets; not the paper's fixed thresholds, lookup factor and
//!   join path length, constants of the code that reads them
//!   ([`D3lConfig`]).
//! - `TABL`: per table its name, subject column and removed flag.
//! - `PROF`: per table one block of the records of its attributes —
//!   name, numeric extent as the bytes of its one encoding, exact
//!   scaled-integer deltas (`d3l-features`' `extent` module), and a
//!   flags byte: numeric, and which of the four evidence types it has.
//!   A block's count is the table's arity; a removed table's is empty.
//! - `F_IN`, `F_IV`, `F_IF`, `F_IE`: each committed forest whole — its
//!   class table (which attribute carries which distinct signature;
//!   `d3l-lsh`'s `forest` module: a signature is indexed once, as a
//!   class, whatever the number of attributes that carry it), its
//!   signature arena, one signature per class, and its tree orders over
//!   those classes — all four through one codec (`d3l-lsh`'s `store`
//!   module).
//!
//! Derived at open, never stored: the hashers (from the config's shapes
//! and seed); the word embedder (subword hashing at `CONF`'s dimension
//! and `d3l-embedding`'s constant seed); each forest's tree shape and
//! signature shape, from the config and those hashers, so a forest
//! cannot disagree with the hashers that query it; each forest's items,
//! the keys of the rows its index covers (`IN` and `IF` every row, `IV`
//! and `IE` the non-numeric ones; §III-C), ascending, so a forest holds
//! exactly those attributes; and every tree entry's key, the first
//! four bytes of its label (from the arenas), against which the stored
//! tree orders are checked.
//! `TABL` and `PROF` decode into one table, the engine's attribute
//! table: `TABL`'s name, subject and removed flag of a table and
//! `PROF`'s block of its attribute records become that table and its
//! rows, through the decoder a delta segment's added table goes through
//! too (and one encoder writes both). A class table is kept in one
//! place only: each forest's ranks are written into the rows' class
//! column as the section is read, and the forest keeps its postings, no
//! id → class map. Never written: an attribute's token sets or its
//! embedding vector. Algorithm 1 builds them to be hashed into the
//! indexes; once the four signatures exist nothing reads them
//! (`profile` module), so an open signs nothing and a profile record
//! is a name, an extent and a byte.
//!
//! The codec is streamed in both directions: saving writes each
//! section to the sink as it is produced (profiles one table at a
//! time, the arenas straight from memory to the file) and
//! loading decodes one section at a time (profiles one table at a
//! time into the attribute table's rows, the slabs straight from the
//! file into the arenas), so
//! neither holds a whole-snapshot — or whole-section — buffer. The
//! byte-slice entry points are the same code over a `Vec` and a
//! cursor.
//!
//! On top of the base snapshot, [`IndexStore`] manages a directory:
//!
//! ```text
//! <dir>/base.d3ls           full snapshot (atomic tmp + rename)
//! <dir>/delta-000001.d3ld   appended add/remove segment (tmp + link)
//! <dir>/delta-000002.d3ld   ...
//! ```
//!
//! Lake maintenance signs **only the delta**, and persists before it
//! applies: an added table is signed once into a [`SignedTable`] — the
//! attribute records as `PROF` would hold them and the table's
//! signatures in all four indexes — which is written as an append-only
//! delta segment and then pushed into the live forests (re-committing
//! only the touched trees). Replaying the segment on the next cold
//! start pushes the same record, signing nothing and reading no CSV;
//! a write that fails leaves the caller's engine as it was, and the
//! store with it. [`IndexStore::compact`] folds accumulated deltas into
//! a fresh base snapshot.
//!
//! Because `LshForest` inserts commute with [`LshForest::commit`]
//! into a total order, an engine that adds tables incrementally —
//! live or by delta replay — is bit-identical to one rebuilt from
//! scratch over the extended lake, which the store tests assert.
//!
//! [`LshForest::commit`]: d3l_lsh::forest::LshForest::commit

use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use d3l_features::Extent;
use d3l_lsh::forest::LshForest;
use d3l_lsh::minhash::MinHasher;
use d3l_lsh::randproj::RandomProjector;
use d3l_lsh::signature::Signature;
use d3l_store::{
    layout, ContainerReader, ContainerWriter, Decoder, Encoder, SectionReader, SectionTag,
    StoreError, KIND_DELTA, KIND_SNAPSHOT,
};
use d3l_table::{Table, TableId};

use crate::attrs::{AttrTable, NONE};
use crate::config::D3lConfig;
use crate::index::{AttrRef, D3l, SignedTable};
use crate::profile::{AttrView, FLAG_EMBEDDED, FLAG_FORMAT, FLAG_NAME, FLAG_NUMERIC, FLAG_TEXT};

/// Filename of the base snapshot inside an index directory
/// (re-exported from the store layout, which owns the directory
/// vocabulary).
pub use d3l_store::layout::BASE_FILE;

const SEC_CONFIG: SectionTag = *b"CONF";
const SEC_TABLES: SectionTag = *b"TABL";
const SEC_PROFILES: SectionTag = *b"PROF";
const SEC_FOREST_N: SectionTag = *b"F_IN";
const SEC_FOREST_V: SectionTag = *b"F_IV";
const SEC_FOREST_F: SectionTag = *b"F_IF";
const SEC_FOREST_E: SectionTag = *b"F_IE";
const SEC_DELTA_RECORD: SectionTag = *b"DREC";
/// Store bookkeeping appended to base files by [`IndexStore`]: the
/// delta sequence number the base already contains ("applied
/// through"). Replay skips segments at or below it, so a compact
/// interrupted between writing the new base and deleting the folded
/// segments can never apply a delta twice.
const SEC_APPLIED: SectionTag = *b"SEQN";

// ---------------------------------------------------------------- config

fn encode_config(cfg: &D3lConfig, enc: &mut Encoder) {
    enc.put_varint(cfg.num_perm as u64);
    enc.put_varint(cfg.embed_bits as u64);
    enc.put_varint(cfg.embed_dim as u64);
    enc.put_varint(cfg.trees as u64);
    enc.put_varint(cfg.q as u64);
    enc.put_varint(cfg.min_lookup as u64);
    enc.put_u64(cfg.seed);
}

fn decode_config(dec: &mut Decoder<'_>) -> Result<D3lConfig, StoreError> {
    let cfg = D3lConfig {
        num_perm: dec.get_varint()? as usize,
        embed_bits: dec.get_varint()? as usize,
        embed_dim: dec.get_varint()? as usize,
        trees: dec.get_varint()? as usize,
        q: dec.get_varint()? as usize,
        min_lookup: dec.get_varint()? as usize,
        seed: dec.get_u64()?,
        // The opening process sets its own.
        ..D3lConfig::default()
    };
    match cfg.shape_error() {
        Some(error) => Err(StoreError::corrupt(error)),
        None => Ok(cfg),
    }
}

// --------------------------------------------------------------- profiles

/// An attribute record as `PROF` and a delta segment hold it.
fn encode_profile(p: AttrView<'_>, enc: &mut Encoder) {
    enc.put_str(p.name);
    enc.put_raw(p.numeric_extent.as_bytes());
    enc.put_u8(p.flags());
}

/// One attribute record, borrowed from the bytes it is decoded from.
fn decode_profile<'a>(dec: &mut Decoder<'a>) -> Result<AttrView<'a>, StoreError> {
    let name = dec.get_str_ref()?;
    let (numeric_extent, used) = Extent::read(dec.rest())
        .map_err(|e| StoreError::corrupt(format!("profile {name:?}: {e}")))?;
    dec.get_raw(used, "numeric extent")?;
    let flags = dec.get_u8()?;
    let has = |bit: u8| flags & bit != 0;
    // A numeric attribute is in neither `IV` nor `IE` (§III-C), so one
    // flagged textual or embedded is as much not a record as one with
    // an unknown bit.
    let known = FLAG_NUMERIC | FLAG_EMBEDDED | FLAG_NAME | FLAG_TEXT | FLAG_FORMAT;
    if flags & !known != 0 || has(FLAG_NUMERIC) && (has(FLAG_TEXT) || has(FLAG_EMBEDDED)) {
        return Err(StoreError::corrupt(format!(
            "profile {name:?} flags {flags:#07b} have an unknown bit, or mark a numeric \
             attribute textual or embedded"
        )));
    }
    Ok(AttrView::with_flags(name, numeric_extent, flags))
}

/// Table `t`'s attribute records, counted, as one block: a `PROF` block
/// of an engine's table, or a delta's of a signed table's one.
fn encode_rows(attrs: &AttrTable, t: usize) -> Vec<u8> {
    let rows = attrs.rows(t);
    let mut enc = Encoder::new();
    enc.put_varint(rows.len() as u64);
    for row in rows {
        encode_profile(attrs.attr(row), &mut enc);
    }
    enc.into_bytes()
}

/// Decode a block of [`encode_rows`] into `attrs` as its next table —
/// named `name`, of subject column `subject`, removed or not — whose
/// subject is checked against the rows. A table has as many attributes
/// as its block has records (a removed table none), and no more than an
/// attribute key can tell apart.
fn decode_table(
    bytes: &[u8],
    attrs: &mut AttrTable,
    (name, subject, removed): (&str, Option<u32>, bool),
) -> Result<(), StoreError> {
    let n = decode_profiles(bytes, |attr| attrs.push(attr, [NONE; 4]))?;
    attrs.end_table(name, subject, removed);
    let t = attrs.tables() - 1;
    if n > AttrRef::MAX_COLUMN as usize + 1 {
        return Err(StoreError::corrupt(format!(
            "table {name:?} has {n} attributes, more than a key can name"
        )));
    }
    // A removal leaves a table no attribute and no subject, so no
    // forest can hold, and nothing resolves, an attribute of a removed
    // table.
    if removed && (n > 0 || subject.is_some()) {
        return Err(StoreError::corrupt(format!(
            "removed table {t} keeps {n} attributes or a subject"
        )));
    }
    let first = attrs.rows(t).start;
    check_subject(subject, n, |c| attrs.attr(first + c).is_numeric)
}

/// Decode a block of [`encode_rows`], handing each record to `take`.
/// Returns the record count.
fn decode_profiles<'a>(
    bytes: &'a [u8],
    mut take: impl FnMut(AttrView<'a>),
) -> Result<usize, StoreError> {
    let mut dec = Decoder::new(bytes);
    // A record is at least a name length, an extent count and flags.
    let n = dec.get_len(3, "profile list")?;
    for _ in 0..n {
        take(decode_profile(&mut dec)?);
    }
    dec.expect_exhausted("profile list")?;
    Ok(n)
}

/// A table's subject column as `TABL` and a delta segment hold it.
fn encode_subject(subject: Option<u32>, enc: &mut Encoder) {
    match subject {
        Some(c) => {
            enc.put_u8(1);
            enc.put_varint(c as u64);
        }
        None => enc.put_u8(0),
    }
}

fn decode_subject(dec: &mut Decoder<'_>) -> Result<Option<u32>, StoreError> {
    match dec.get_u8()? {
        0 => Ok(None),
        1 => {
            let c = dec.get_varint()?;
            let c = u32::try_from(c)
                .map_err(|_| StoreError::corrupt(format!("subject column {c} exceeds u32")))?;
            Ok(Some(c))
        }
        other => Err(StoreError::corrupt(format!(
            "subject flag must be 0/1, found {other}"
        ))),
    }
}

/// A subject column is one of the table's text attributes
/// (`d3l_ml::subject_attribute` considers no other), so it has words in
/// all four indexes — which Algorithm 2's subject guard reads. `numeric`
/// says which of the table's `arity` columns are numeric.
fn check_subject(
    subject: Option<u32>,
    arity: usize,
    numeric: impl Fn(usize) -> bool,
) -> Result<(), StoreError> {
    match subject {
        Some(c) if c as usize >= arity || numeric(c as usize) => Err(StoreError::corrupt(format!(
            "subject column {c} is no text attribute of the table's {arity}"
        ))),
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------- forests

/// One forest section decoded into an engine whose attribute table is
/// read, at the engine's tree shape `shape` and signature shape
/// `sig_shape`: the forest, and column `index` of the rows' classes. Its
/// items are the rows its index covers — every row, or only the
/// non-numeric ones when `textual_only` (`IV`, `IE`; §III-C) — so a
/// forest holds exactly those attributes, by construction.
fn read_forest<S: Signature, R: Read>(
    sec: &mut SectionReader<'_, R>,
    (shape, sig_shape): ((usize, usize), (usize, u64)),
    (index, textual_only): (usize, bool),
    attrs: &mut AttrTable,
) -> Result<LshForest<S>, StoreError> {
    let covered = |attrs: &AttrTable, row: usize| !(textual_only && attrs.attr(row).is_numeric);
    let tables = 0..attrs.tables();
    let rows = tables.clone().flat_map(|t| attrs.rows(t));
    let mut ids = Vec::with_capacity(rows.filter(|&row| covered(attrs, row)).count());
    for t in tables {
        let table = TableId(t as u32);
        for (column, row) in (0u32..).zip(attrs.rows(t)) {
            if covered(attrs, row) {
                ids.push(AttrRef { table, column }.key());
            }
        }
    }
    LshForest::read_from(sec, shape, sig_shape, ids, |id, slot| {
        let row = attrs.row(AttrRef::from_key(id)).expect("an item is a row");
        attrs.set_class(row, index, slot);
    })
}

// --------------------------------------------------------------- snapshot

impl D3l {
    /// Serialize the full engine state into one snapshot container.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        self.write_snapshot(Vec::new(), None)
            .expect("writing to a Vec cannot fail")
    }

    /// Stream the engine's snapshot container into `out`. The store
    /// passes the delta watermark its base file carries as one more
    /// section; a bare snapshot has none.
    fn write_snapshot<W: Write>(&self, out: W, applied_through: Option<u64>) -> io::Result<W> {
        let mut w = ContainerWriter::new(out, KIND_SNAPSHOT)?;

        let mut conf = Encoder::new();
        encode_config(&self.cfg, &mut conf);
        w.add_section(SEC_CONFIG, conf.as_bytes())?;

        let (attrs, mut tabl) = (&self.attrs, Encoder::new());
        tabl.put_varint(attrs.tables() as u64);
        for t in 0..attrs.tables() {
            tabl.put_str(attrs.table_name(t));
            encode_subject(attrs.subject(t), &mut tabl);
            tabl.put_u8(attrs.is_removed(t) as u8);
        }
        w.add_section(SEC_TABLES, tabl.as_bytes())?;
        drop(tabl);

        // One length-prefixed block per table, each encoded and sent
        // on before the next.
        w.stream_section(SEC_PROFILES, |sec| {
            (0..attrs.tables()).try_for_each(|t| sec.put_bytes(&encode_rows(attrs, t)))
        })?;

        w.stream_section(SEC_FOREST_N, |sec| self.i_n.write_to(sec))?;
        w.stream_section(SEC_FOREST_V, |sec| self.i_v.write_to(sec))?;
        w.stream_section(SEC_FOREST_F, |sec| self.i_f.write_to(sec))?;
        w.stream_section(SEC_FOREST_E, |sec| self.i_e.write_to(sec))?;

        if let Some(seq) = applied_through {
            let mut enc = Encoder::new();
            enc.put_varint(seq);
            w.add_section(SEC_APPLIED, enc.as_bytes())?;
        }
        w.finish()
    }

    /// Load a query-ready engine from snapshot bytes. The hashers are
    /// reconstructed deterministically from the persisted config and
    /// the forests arrive signed and committed — nothing is
    /// re-profiled, signed or sorted, which is what makes cold starts
    /// orders of magnitude cheaper than a rebuild.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Self::read_snapshot(&mut ContainerReader::parse(bytes, KIND_SNAPSHOT)?)
    }

    /// Decode an engine from an opened snapshot container, one section
    /// at a time.
    fn read_snapshot<R: Read + Seek>(reader: &mut ContainerReader<R>) -> Result<Self, StoreError> {
        let conf = reader.section(SEC_CONFIG)?;
        let mut conf_dec = Decoder::new(&conf);
        let cfg = decode_config(&mut conf_dec)?;
        conf_dec.expect_exhausted("config")?;

        let tabl_bytes = reader.section(SEC_TABLES)?;
        let mut tabl = Decoder::new(&tabl_bytes);
        let count = tabl.get_len(3, "table list")?;
        let mut tables = Vec::with_capacity(count);
        for _ in 0..count {
            let name = tabl.get_str_ref()?;
            let subject = decode_subject(&mut tabl)?;
            tables.push((name, subject, tabl.get_u8()? != 0));
        }
        tabl.expect_exhausted("table list")?;

        let mut attrs = reader.stream_section(SEC_PROFILES, |sec| {
            let mut attrs = AttrTable::default();
            let mut block = Vec::new();
            for &table in &tables {
                sec.get_bytes(&mut block)?;
                decode_table(&block, &mut attrs, table)?;
            }
            attrs.shrink_to_fit();
            Ok(attrs)
        })?;

        // Each forest fills its column of the rows' classes as it is
        // read, at the shapes of the hashers that will query it — built
        // once the forests are read, off the peak of an open.
        let trees = cfg.trees;
        let minhash = (
            (trees, cfg.num_perm / trees),
            MinHasher::sig_shape_of(cfg.num_perm),
        );
        let embed = (
            (trees, cfg.embed_bits / trees),
            RandomProjector::sig_shape_of(cfg.embed_bits),
        );
        let i_n = reader.stream_section(SEC_FOREST_N, |sec| {
            read_forest(sec, minhash, (0, false), &mut attrs)
        })?;
        let i_v = reader.stream_section(SEC_FOREST_V, |sec| {
            read_forest(sec, minhash, (1, true), &mut attrs)
        })?;
        let i_f = reader.stream_section(SEC_FOREST_F, |sec| {
            read_forest(sec, minhash, (2, false), &mut attrs)
        })?;
        let i_e = reader.stream_section(SEC_FOREST_E, |sec| {
            read_forest(sec, embed, (3, true), &mut attrs)
        })?;
        Ok(D3l {
            i_n,
            i_v,
            i_f,
            i_e,
            attrs,
            ..D3l::empty(cfg)
        })
    }
}

// ----------------------------------------------------------------- deltas

/// A delta segment's add carries the table as it was pushed: with the
/// token sets and the vector gone, that is what replay cannot
/// re-derive. Replay signs nothing; it pushes the decoded record. The
/// words are uncounted: per index, the columns it covers times the
/// stride of the replaying engine's hasher, `strides` (the MinHash and
/// the `IE` one).
impl SignedTable {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self.name());
        encode_subject(self.subject(), enc);
        enc.put_bytes(&encode_rows(&self.attrs, 0));
        self.words.iter().for_each(|words| enc.put_u64_slab(words));
    }

    fn decode(dec: &mut Decoder<'_>, (mh, rp): (usize, usize)) -> Result<Self, StoreError> {
        let name = dec.get_str_ref()?;
        let subject = decode_subject(dec)?;
        let mut attrs = AttrTable::default();
        decode_table(dec.get_bytes()?, &mut attrs, (name, subject, false))?;
        let rows = attrs.rows(0);
        let textual = rows.clone().filter(|&row| !attrs.attr(row).is_numeric);
        let (columns, textual) = (rows.len(), textual.count());
        let [i_n, i_v, i_f, i_e] =
            [columns * mh, textual * mh, columns * mh, textual * rp].map(|n| dec.get_u64_slab(n));
        Ok(SignedTable {
            attrs,
            words: [i_n?, i_v?, i_f?, i_e?],
        })
    }
}

/// One persisted maintenance operation.
// A record is made, written and applied one at a time, never held in
// bulk: the headers of an add's table are no cost worth a box.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum DeltaRecord {
    /// A table removed from the lake (its id becomes a tombstone).
    Remove {
        /// The removed table.
        table: TableId,
    },
    /// A table added at its id, carrying the record the live add
    /// pushed. The id is the engine's next slot: replay refuses any
    /// other.
    AddAt {
        /// The table's id.
        table: TableId,
        /// The table.
        added: SignedTable,
    },
}

impl DeltaRecord {
    // Record type 1 was an add at the engine's next slot, retired with
    // format 6.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            DeltaRecord::Remove { table } => {
                enc.put_u8(2);
                enc.put_varint(table.0 as u64);
            }
            DeltaRecord::AddAt { table, added } => {
                enc.put_u8(3);
                enc.put_varint(table.0 as u64);
                added.encode(&mut enc);
            }
        }
        enc.into_bytes()
    }

    /// Decode a whole delta segment file, for an engine of signature
    /// strides `strides` ([`SignedTable`]'s decoder).
    fn from_segment(segment: &[u8], strides: (usize, usize)) -> Result<Self, StoreError> {
        let mut reader = ContainerReader::parse(segment, KIND_DELTA)?;
        Self::from_bytes(&reader.section(SEC_DELTA_RECORD)?, strides)
    }

    fn from_bytes(bytes: &[u8], strides: (usize, usize)) -> Result<Self, StoreError> {
        let mut dec = Decoder::new(bytes);
        let record = match dec.get_u8()? {
            2 => DeltaRecord::Remove {
                table: Self::decode_table_id(&mut dec)?,
            },
            3 => DeltaRecord::AddAt {
                table: Self::decode_table_id(&mut dec)?,
                added: SignedTable::decode(&mut dec, strides)?,
            },
            other => {
                return Err(StoreError::corrupt(format!(
                    "unknown delta record type {other}"
                )))
            }
        };
        dec.expect_exhausted("delta record")?;
        Ok(record)
    }

    fn decode_table_id(dec: &mut Decoder<'_>) -> Result<TableId, StoreError> {
        Ok(TableId(u32::try_from(dec.get_varint()?).map_err(|_| {
            StoreError::corrupt("delta table id exceeds u32")
        })?))
    }
}

impl D3l {
    /// Apply one maintenance record — the live operation and its
    /// replay alike, so both patch the forests the same way. Nothing is
    /// touched unless the record fits the engine.
    pub fn apply_delta(&mut self, record: DeltaRecord) -> Result<(), StoreError> {
        let (table, added) = match record {
            DeltaRecord::Remove { table } => {
                if table.index() >= self.table_count() {
                    return Err(StoreError::corrupt(format!(
                        "delta removes unknown table {table}"
                    )));
                }
                self.remove_table(table);
                return Ok(());
            }
            DeltaRecord::AddAt { table, added } => (table, added),
        };
        if table.index() != self.table_count() {
            return Err(StoreError::corrupt(format!(
                "delta adds table {table}, not the next slot t{}",
                self.table_count()
            )));
        }
        self.insert(table, added);
        Ok(())
    }
}

// ------------------------------------------------------------ index store

/// A directory-backed persistent index: one base snapshot plus
/// append-only delta segments, with explicit compaction.
///
/// One process at a time writes a store directory (the usual
/// embedded-store contract): `append_add`/`append_remove`/`compact`
/// from two handles at once are not coordinated, and a handle never
/// learns of segments another one writes after its open. Publishing a
/// delta segment never replaces an existing one — the name is claimed
/// atomically — so a second writer's collision surfaces as
/// [`StoreError::AnotherWriter`] for exactly one of them rather than
/// silently dropping the other's acknowledged operation.
#[derive(Debug)]
pub struct IndexStore {
    dir: PathBuf,
    next_delta_seq: u64,
    /// Delta sequence already folded into the base snapshot; segments
    /// at or below it are stale leftovers of an interrupted compact.
    applied_through: u64,
}

impl IndexStore {
    /// Persist `d3l` as a fresh store in `dir` (created if missing;
    /// any stale delta segments and orphaned tmp files from a
    /// previous store are removed). The base file is written durably
    /// (write + fsync to a tmp file, rename, fsync the directory), so
    /// a crash mid-save leaves either the old or the new snapshot,
    /// never a torn one.
    pub fn create(dir: impl AsRef<Path>, d3l: &D3l) -> Result<IndexStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Self::sweep_tmp(&dir)?;
        for (_, path, _) in layout::scan(&dir)?.deltas {
            std::fs::remove_file(path)?;
        }
        let mut store = IndexStore {
            dir,
            next_delta_seq: 1,
            applied_through: 0,
        };
        store.write_base(d3l, 0)?;
        Ok(store)
    }

    /// Open an existing store: load the base snapshot, then replay
    /// delta segments above the base's applied-through watermark in
    /// sequence order (segments at or below it were already folded in
    /// by a compact whose cleanup did not finish — replaying them
    /// would apply the operation twice). Returns the store handle and
    /// the query-ready engine.
    ///
    /// A segment that fails to read, decode or apply — a zero-length
    /// or truncated file, a bit flip, a record naming an unknown
    /// table or another slot than the next — surfaces as
    /// [`StoreError::BadSegment`] carrying the segment's sequence
    /// number, so the diagnostic names the file to inspect instead of a
    /// raw decode error. A directory without a base snapshot, or none
    /// at all, holds no index: its `NotFound` error names the directory
    /// and the missing file.
    pub fn open(dir: impl AsRef<Path>) -> Result<(IndexStore, D3l), StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let base = std::fs::File::open(dir.join(BASE_FILE)).map_err(|e| match e.kind() {
            io::ErrorKind::NotFound => io::Error::new(
                e.kind(),
                format!(
                    "{} holds no index (no {BASE_FILE}); build one with `d3l index <lake-dir> --out {0}`",
                    dir.display()
                ),
            ),
            _ => e,
        })?;
        Self::sweep_tmp(&dir)?;
        // Buffered for the small reads (section table, `PROF`'s
        // per-table blocks); slab-sized reads pass straight through.
        let base = io::BufReader::new(base);
        let mut reader = ContainerReader::open(base, KIND_SNAPSHOT)?;
        let applied_through = Self::applied_through(&mut reader)?;
        let mut d3l = D3l::read_snapshot(&mut reader)?;
        drop(reader);
        let mut through = applied_through;
        // `scan` lists segments by parsed sequence number: replay order.
        for (seq, path, _) in layout::scan(&dir)?.deltas {
            if seq <= applied_through {
                continue;
            }
            let replay = |d3l: &mut D3l| -> Result<(), StoreError> {
                let segment = std::fs::read(&path)?;
                d3l.apply_delta(DeltaRecord::from_segment(&segment, d3l.strides())?)
            };
            replay(&mut d3l).map_err(|e| StoreError::bad_segment(seq, e))?;
            through = seq;
        }
        debug_assert_eq!(d3l.check_class_column(), Ok(()));
        let store = IndexStore {
            dir,
            next_delta_seq: through + 1,
            applied_through,
        };
        Ok((store, d3l))
    }

    /// The applied-through watermark of a base snapshot (0 when the
    /// section is absent).
    fn applied_through<R: Read + Seek>(base: &mut ContainerReader<R>) -> Result<u64, StoreError> {
        match base.section_opt(SEC_APPLIED)? {
            Some(payload) => {
                let mut dec = Decoder::new(&payload);
                let seq = dec.get_varint()?;
                dec.expect_exhausted("applied-through watermark")?;
                Ok(seq)
            }
            None => Ok(0),
        }
    }

    /// Sign and index one new table, persisting the operation as a
    /// delta segment. Only the added table is profiled — the rest of
    /// the engine is untouched apart from the forest patch — and the
    /// segment is written before the engine is: on an error `d3l` is
    /// as it was, as is the store.
    pub fn append_add(&mut self, d3l: &mut D3l, table: &Table) -> Result<TableId, StoreError> {
        let id = TableId(d3l.table_count() as u32);
        let added = d3l.sign_table(table);
        self.append(d3l, DeltaRecord::AddAt { table: id, added })?;
        Ok(id)
    }

    /// Remove a table, persisting the tombstone as a delta segment
    /// before the engine is touched. Returns whether the id named a
    /// live table (nothing is written otherwise).
    pub fn append_remove(&mut self, d3l: &mut D3l, id: TableId) -> Result<bool, StoreError> {
        if !d3l.is_live(id) {
            return Ok(false);
        }
        self.append(d3l, DeltaRecord::Remove { table: id })?;
        Ok(true)
    }

    /// Persist, then apply: the segment replay will read is the record
    /// the engine is about to take.
    fn append(&mut self, d3l: &mut D3l, record: DeltaRecord) -> Result<(), StoreError> {
        self.write_delta(&record)?;
        d3l.apply_delta(record)
    }

    /// Fold the delta segments *this handle has observed* (replayed on
    /// open or appended since) into a fresh base snapshot of the
    /// current engine state, then delete them. Cold starts after a
    /// compact load one file and replay nothing (of the folded range).
    /// The new base records the folded watermark *before* the segments
    /// are deleted, so a crash (or a failed delete) between the two
    /// steps leaves stale segments that the next open skips rather
    /// than re-applies; sequence numbers are never reused.
    ///
    /// Segments **above** the watermark — written by another process
    /// against the one-writer rule — are *not* part of this engine's
    /// state, so they are left on disk for the next open rather than
    /// deleted: compacting must never discard an acknowledged write
    /// this handle has not folded in. Returns the number of segments
    /// actually folded.
    pub fn compact(&mut self, d3l: &D3l) -> Result<usize, StoreError> {
        let through = self.next_delta_seq - 1;
        let mut folded = 0usize;
        let mut remove: Vec<PathBuf> = Vec::new();
        for (seq, path, _) in layout::scan(&self.dir)?.deltas {
            if seq <= through {
                // Stale segments at or below the previous watermark
                // were folded by an earlier (interrupted) compact;
                // they are cleaned up but not counted again.
                folded += usize::from(seq > self.applied_through);
                remove.push(path);
            }
        }
        self.write_base(d3l, through)?;
        self.applied_through = through;
        for path in remove {
            std::fs::remove_file(path)?;
        }
        Ok(folded)
    }

    /// Delta segments this handle has appended or replayed since the
    /// base's watermark, from its sequence numbers alone (no directory
    /// listing): what a compact would fold.
    pub fn pending_segments(&self) -> u64 {
        self.next_delta_seq - 1 - self.applied_through
    }

    /// Number of delta segments awaiting compaction (stale segments
    /// below the folded watermark are leftovers of an interrupted
    /// compact and do not count — replay skips them).
    pub fn delta_count(&self) -> Result<usize, StoreError> {
        Ok(self.disk_usage()?.2)
    }

    /// On-disk footprint: `(base snapshot bytes, pending delta segment
    /// bytes, pending delta segments)`, from one directory listing
    /// ([`layout::scan`]), which records every size it lists.
    pub fn disk_usage(&self) -> Result<(u64, u64, usize), StoreError> {
        let scan = layout::scan(&self.dir)?;
        let base = scan
            .base_bytes
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no {BASE_FILE}")))?;
        let pending = scan
            .deltas
            .iter()
            .filter(|(seq, ..)| *seq > self.applied_through);
        let (deltas, count) = pending.fold((0, 0), |(b, n), (_, _, bytes)| (b + bytes, n + 1));
        Ok((base, deltas, count))
    }

    /// The base snapshot's table of contents — `(tag, payload bytes)`
    /// in file order — from its header, trailer and section table; no
    /// payload is read.
    pub fn base_sections(&self) -> Result<Vec<(SectionTag, u64)>, StoreError> {
        let base = std::fs::File::open(self.dir.join(BASE_FILE))?;
        Ok(ContainerReader::open(base, KIND_SNAPSHOT)?.sections())
    }

    fn write_base(&mut self, d3l: &D3l, applied_through: u64) -> Result<(), StoreError> {
        self.persist(BASE_FILE, true, |file| {
            d3l.write_snapshot(file, Some(applied_through)).map(|_| ())
        })
    }

    fn write_delta(&mut self, record: &DeltaRecord) -> Result<(), StoreError> {
        let mut w = ContainerWriter::new(Vec::new(), KIND_DELTA)?;
        w.add_section(SEC_DELTA_RECORD, &record.to_bytes())?;
        let bytes = w.finish()?;
        let seq = self.next_delta_seq;
        let name = layout::delta_file_name(seq);
        // No-clobber publication fails only on a name another process
        // took.
        self.persist(&name, false, |file| file.write_all(&bytes))
            .map_err(|e| match e {
                StoreError::Io(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    StoreError::AnotherWriter { seq }
                }
                e => e,
            })?;
        self.next_delta_seq += 1;
        Ok(())
    }

    /// Durable atomic write: `write` fills a tmp file, which is
    /// fsynced and published under the final name, and the directory
    /// entry is fsynced — a crash at any point leaves either the old
    /// file or the complete new one, never a torn or empty target.
    /// With `overwrite` (the base snapshot) publishing is a rename
    /// over the old file. Without it (delta segments, append-only)
    /// publishing is `hard_link` + unlink of the tmp name: linking
    /// fails atomically (`AlreadyExists`) when the target exists, so
    /// of two writers racing for one sequence number exactly one
    /// publishes and the other gets an error — a check-then-rename
    /// would let both pass the check and the second silently replace
    /// the first's acknowledged segment.
    fn persist(
        &self,
        name: &str,
        overwrite: bool,
        write: impl FnOnce(&mut std::fs::File) -> io::Result<()>,
    ) -> Result<(), StoreError> {
        // Unique per write, not just per process: two handles in one
        // process must not share a tmp file.
        static WRITES: AtomicU64 = AtomicU64::new(0);
        let target = self.dir.join(name);
        let tmp = self.dir.join(format!(
            "{name}.{}.tmp.{}",
            WRITES.fetch_add(1, Ordering::Relaxed),
            std::process::id()
        ));
        let publish = || -> Result<(), StoreError> {
            let mut file = std::fs::File::create(&tmp)?;
            write(&mut file)?;
            file.sync_all()?;
            drop(file);
            if overwrite {
                return Ok(std::fs::rename(&tmp, &target)?);
            }
            Ok(std::fs::hard_link(&tmp, &target)?)
        };
        let published = publish();
        // A rename consumed the tmp name; in every other case it is
        // ours to remove (a failure to is left to the next sweep).
        if published.is_err() || !overwrite {
            let _ = std::fs::remove_file(&tmp);
        }
        published?;
        std::fs::File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    /// Remove orphaned `*.tmp.<pid>` files left by a writer that
    /// crashed between creating and renaming one — but **only** when
    /// the orphanhood is provable. A tmp file matching the store
    /// naming may equally be another process's atomic write in flight
    /// *right now* (created, fsyncing, about to rename); deleting it
    /// would destroy that writer's bytes and fail its rename. So a
    /// tmp file is swept only if the pid embedded in its name is
    /// provably dead, or its mtime is older than
    /// [`IndexStore::STALE_TMP_AGE`] (no atomic write is in flight
    /// for that long; this also collects leftovers whose pid was
    /// recycled by an unrelated live process).
    fn sweep_tmp(dir: &Path) -> Result<(), StoreError> {
        for entry in std::fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()? {
            let path = entry.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !layout::is_store_tmp(name) {
                continue;
            }
            let dead_writer = layout::tmp_pid_of(name).is_some_and(layout::pid_is_dead);
            let stale = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|m| m.elapsed().ok())
                .is_some_and(|age| age >= Self::STALE_TMP_AGE);
            if dead_writer || stale {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }

    /// Age beyond which an atomic-write tmp file cannot still be in
    /// flight: persist() writes, fsyncs and renames in one call, so
    /// minutes-old tmp files are orphans regardless of pid liveness.
    pub const STALE_TMP_AGE: std::time::Duration = std::time::Duration::from_secs(600);
}

#[cfg(test)]
mod tests {
    use super::*;
    use d3l_table::DataLake;

    /// `benchgen`'s dirty derivation at seed 11, drawn as the
    /// benchmark's `build-dirty2k` lake is (and as the lake
    /// `tests/determinism.rs` pins).
    fn dirty_lake(tables: usize) -> DataLake {
        d3l_benchgen::derive::derive(&d3l_benchgen::DeriveConfig {
            tables,
            base_rows: 60,
            seed: 11,
            dirty: Some(d3l_benchgen::DirtConfig::default()),
            row_keep: (0.15, 0.5),
            ..Default::default()
        })
        .lake
    }

    fn lake() -> DataLake {
        let mut lake = DataLake::new();
        for (name, cols, rows) in [
            (
                "gp_funding",
                vec!["Practice", "City", "Payment"],
                vec![
                    vec!["Blackfriars", "Salford", "15530"],
                    vec!["The London Clinic", "London", "73648"],
                ],
            ),
            (
                "gp_practices",
                vec!["Practice Name", "Postcode", "Patients"],
                vec![
                    vec!["Blackfriars", "M3 6AF", "3572"],
                    vec!["Dr E Cullen", "BT7 1JL", "1202"],
                ],
            ),
            (
                "planets",
                vec!["Planet", "Moons"],
                vec![vec!["Saturn", "146"], vec!["Jupiter", "95"]],
            ),
        ] {
            let rows: Vec<Vec<String>> = rows
                .into_iter()
                .map(|r| r.into_iter().map(String::from).collect())
                .collect();
            lake.add(Table::from_rows(name, &cols, &rows).unwrap())
                .unwrap();
        }
        lake
    }

    fn engine() -> D3l {
        D3l::index_lake(&lake(), D3lConfig::fast())
    }

    fn assert_engines_identical(a: &D3l, b: &D3l) {
        assert_eq!(a.table_count(), b.table_count());
        assert_eq!(a.byte_size(), b.byte_size(), "memory footprints differ");
        assert!(a.i_n == b.i_n, "IN forests differ");
        assert!(a.i_v == b.i_v, "IV forests differ");
        assert!(a.i_f == b.i_f, "IF forests differ");
        assert!(a.i_e == b.i_e, "IE forests differ");
        for t in 0..a.table_count() {
            let id = TableId(t as u32);
            assert_eq!(a.table_name(id), b.table_name(id));
            assert_eq!(a.table_arity(id), b.table_arity(id));
            assert_eq!(a.subject_of(id), b.subject_of(id));
            assert_eq!(a.is_removed(id), b.is_removed(id));
        }
    }

    /// `CONF` is the index's shape and nothing else: the seven fields
    /// an open needs to rebuild the hashers and read the forests,
    /// in order, and no byte after them. The thread count is the
    /// opening process's own.
    #[test]
    fn conf_holds_the_seven_shape_fields_and_nothing_else() {
        let cfg = D3lConfig {
            num_perm: 96,
            embed_bits: 80,
            embed_dim: 24,
            trees: 6,
            q: 3,
            min_lookup: 17,
            seed: 0x0123_4567_89ab_cdef,
            threads: 7,
        };
        let mut enc = Encoder::new();
        encode_config(&cfg, &mut enc);
        let mut expect = Encoder::new();
        for n in [96, 80, 24, 6, 3, 17] {
            expect.put_varint(n);
        }
        expect.put_u64(0x0123_4567_89ab_cdef);
        assert_eq!(enc.as_bytes(), expect.as_bytes());

        let mut dec = Decoder::new(enc.as_bytes());
        let back = decode_config(&mut dec).unwrap();
        dec.expect_exhausted("config").unwrap();
        let shape = |c: &D3lConfig| {
            let sizes = [c.num_perm, c.embed_bits, c.embed_dim, c.trees, c.q];
            (sizes, c.min_lookup, c.seed)
        };
        assert_eq!(shape(&back), shape(&cfg));
        assert_eq!(back.threads, D3lConfig::default().threads);
    }

    #[test]
    fn snapshot_round_trip_restores_the_engine() {
        let d3l = engine();
        let bytes = d3l.to_snapshot_bytes();
        let loaded = D3l::from_snapshot_bytes(&bytes).unwrap();
        assert_engines_identical(&d3l, &loaded);
        // Query parity on a fresh target.
        let target = Table::from_rows(
            "t",
            &["Practice", "City"],
            &[vec!["Blackfriars".into(), "Salford".into()]],
        )
        .unwrap();
        let a = d3l.query(&target, 3);
        let b = loaded.query(&target, 3);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.table, y.table);
            assert_eq!(x.distance.to_bits(), y.distance.to_bits());
        }
        // Snapshot encoding is deterministic.
        assert_eq!(bytes, loaded.to_snapshot_bytes());
    }

    #[test]
    fn snapshot_rejects_corruption_with_typed_errors() {
        let bytes = engine().to_snapshot_bytes();
        // Magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            D3l::from_snapshot_bytes(&bad),
            Err(StoreError::BadMagic { .. })
        ));
        // Version.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            D3l::from_snapshot_bytes(&bad),
            Err(StoreError::UnsupportedVersion { found: 99, .. })
        ));
        // Payload bit flip (the first payload follows the header).
        let mut bad = bytes.clone();
        bad[16] ^= 0x10;
        assert!(matches!(
            D3l::from_snapshot_bytes(&bad),
            Err(StoreError::ChecksumMismatch { section }) if section == "CONF"
        ));
        // A flip in the trailing section table is caught as well.
        let mut bad = bytes.clone();
        let n = bad.len();
        bad[n - 30] ^= 0x10;
        assert!(matches!(
            D3l::from_snapshot_bytes(&bad),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        // Truncation anywhere must be typed, never a panic.
        for cut in [0, 7, 19, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                D3l::from_snapshot_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    /// A store written by format version 1 to 11 is named as such — by
    /// `open` as by the byte-slice decoder — and nothing of it is
    /// decoded.
    #[test]
    fn older_stores_are_a_typed_unsupported_version() {
        // Version 1 opened with: magic, version, kind, section count,
        // then the section table.
        let mut v1 = Encoder::new();
        v1.put_raw(d3l_store::MAGIC);
        v1.put_u32(1);
        v1.put_u32(KIND_SNAPSHOT);
        v1.put_u32(0);
        v1.put_raw(&[0u8; 64]);
        // Versions 2 to 11 had today's container around other sections
        // (64-bit MinHash values; a slab slot per attribute; embedding
        // vectors in `PROF`; no class tables; token sets in `PROF` and
        // `IN`/`IF` signed again from them; 8-byte extent values; forest
        // headers and id tables; query knobs in `CONF`; a shard count in
        // `CONF`; an `EMBD` section): whole, checksummed files with that
        // header.
        let newer: Vec<(u32, Vec<u8>)> = (2..=11u32)
            .map(|version| {
                let mut bytes = engine().to_snapshot_bytes();
                bytes[8..12].copy_from_slice(&version.to_le_bytes());
                (version, bytes)
            })
            .collect();
        let dir = std::env::temp_dir().join(format!("d3l_store_old_{}", std::process::id()));
        let old = std::iter::once((1u32, v1.as_bytes()))
            .chain(newer.iter().map(|(version, bytes)| (*version, &bytes[..])));
        for (version, bytes) in old {
            let is_old = |err: &StoreError| {
                matches!(
                    err,
                    StoreError::UnsupportedVersion { found, supported: 12 } if *found == version
                )
            };
            let err = D3l::from_snapshot_bytes(bytes).unwrap_err();
            assert!(is_old(&err), "{err}");
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(BASE_FILE), bytes).unwrap();
            let err = IndexStore::open(&dir).unwrap_err();
            assert!(is_old(&err), "{err}");
            assert!(err.to_string().contains("re-index"), "{err}");
        }
        // A version 11 delta segment beside a current base is named too,
        // as the segment it is.
        let mut d3l = engine();
        let mut store = IndexStore::create(&dir, &d3l).unwrap();
        let gp = Table::from_rows("local_gps", &["GP"], &[vec!["Blackfriars".into()]]).unwrap();
        store.append_add(&mut d3l, &gp).unwrap();
        let segment = dir.join(layout::delta_file_name(1));
        let mut bytes = std::fs::read(&segment).unwrap();
        bytes[8..12].copy_from_slice(&11u32.to_le_bytes());
        std::fs::write(&segment, bytes).unwrap();
        let err = IndexStore::open(&dir).unwrap_err();
        assert!(
            matches!(&err, StoreError::BadSegment { seq: 1, source }
                if matches!(**source, StoreError::UnsupportedVersion { found: 11, supported: 12 })),
            "{err}"
        );
        assert!(err.to_string().contains("re-index"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The same-run gate (CI runs it in release): opening the store of
    /// the 400-table pinned dirty lake — reading, checksumming and
    /// checking four forests, regenerating their tree keys, filling the
    /// attribute rows' classes — takes less time than profiling,
    /// signing and sorting the lake again, without which a store would
    /// be pointless (measured: 11.2–18.1×).
    #[test]
    #[ignore = "timing: cargo test --release -p d3l-core open_beats_rebuild -- --ignored"]
    fn open_beats_rebuild() {
        use std::time::Instant;
        let lake = dirty_lake(400);
        let start = Instant::now();
        let d3l = D3l::index_lake(&lake, D3lConfig::default());
        let rebuild = start.elapsed();
        let bytes = d3l.to_snapshot_bytes();
        let open = (0..7)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(D3l::from_snapshot_bytes(&bytes).unwrap());
                start.elapsed()
            })
            .min()
            .unwrap();
        println!(
            "{} attributes, snapshot {} B: open {open:?}, rebuild {rebuild:?} ({:.1}x)",
            d3l.i_n.len(),
            bytes.len(),
            rebuild.as_secs_f64() / open.as_secs_f64()
        );
        assert!(
            open < rebuild,
            "opening the store ({open:?}) is no faster than rebuilding it ({rebuild:?})"
        );
    }

    /// Rewrite one section of a snapshot and re-seal it: the result is
    /// a whole container with valid checksums, so what a reader makes
    /// of it is the decoder's doing, not the container's.
    fn with_section(
        bytes: &[u8],
        tag: SectionTag,
        edit: impl FnOnce(Vec<u8>) -> Vec<u8>,
    ) -> Vec<u8> {
        let mut reader = ContainerReader::parse(bytes, KIND_SNAPSHOT).unwrap();
        let mut edit = Some(edit);
        let mut w = ContainerWriter::new(Vec::new(), KIND_SNAPSHOT).unwrap();
        for (t, _) in reader.sections() {
            let mut payload = reader.section(t).unwrap();
            if t == tag {
                payload = edit.take().expect("tags are unique")(payload);
            }
            w.add_section(t, &payload).unwrap();
        }
        assert!(edit.is_none(), "no such section");
        w.finish().unwrap()
    }

    /// [`engine`] plus a table that repeats two of its attribute names
    /// over other values: `IN` holds ten attributes in eight classes,
    /// "Practice" and "City" of two members each, and a forest
    /// section's class table reads `0 1 2 3 4 5 6 7 0 1`.
    fn pooled_engine() -> D3l {
        let mut d3l = engine();
        let rows = [vec!["Radclife Care".to_string(), "Bolton".to_string()]];
        d3l.add_table(&Table::from_rows("gp_cities", &["Practice", "City"], &rows).unwrap());
        let [i_n, i_v, ..] = d3l.class_stats();
        assert_eq!((i_n.attributes, i_n.classes, i_n.largest_class), (10, 8, 2));
        assert_eq!((i_v.attributes, i_v.classes), (7, 7));
        d3l
    }

    fn assert_corrupt(bytes: &[u8], what: &str) {
        let err = D3l::from_snapshot_bytes(bytes).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m.contains(what)),
            "{err}"
        );
    }

    /// A forest section read at the engine's shapes and over its rows,
    /// but not of them, fails as the section it is: a typed error, never
    /// a forest.
    fn assert_refused(bytes: &[u8]) {
        let err = D3l::from_snapshot_bytes(bytes).unwrap_err();
        assert!(
            matches!(err, StoreError::Corrupt(_) | StoreError::Truncated { .. }),
            "{err}"
        );
    }

    /// The class table names no class the slab and the trees do not
    /// hold: one more class (the last attribute of `IN` and `IF` in a
    /// class of its own) or one fewer ("Moons", the one member of class
    /// 7, filed under class 0) is a typed error.
    #[test]
    fn class_table_naming_other_classes_than_the_section_holds_is_corrupt() {
        let bytes = pooled_engine().to_snapshot_bytes();
        for tag in [SEC_FOREST_N, SEC_FOREST_F] {
            let bad = with_section(&bytes, tag, |mut payload| {
                payload[9 * 4..10 * 4].copy_from_slice(&8u32.to_le_bytes());
                payload
            });
            assert_refused(&bad);
        }
        let bad = with_section(&bytes, SEC_FOREST_N, |mut payload| {
            assert_eq!(payload[7 * 4..8 * 4], 7u32.to_le_bytes());
            payload[7 * 4..8 * 4].copy_from_slice(&0u32.to_le_bytes());
            payload
        });
        assert_refused(&bad);
    }

    #[test]
    fn classes_out_of_first_appearance_order_are_corrupt() {
        let bytes = pooled_engine().to_snapshot_bytes();
        // Classes 4 and 5 trade numbers: 5 is met before 4.
        let bad = with_section(&bytes, SEC_FOREST_N, |mut payload| {
            payload[4 * 4..5 * 4].copy_from_slice(&5u32.to_le_bytes());
            payload[5 * 4..6 * 4].copy_from_slice(&4u32.to_le_bytes());
            payload
        });
        assert_corrupt(&bad, "not ranked by first appearance");
    }

    #[test]
    fn two_value_classes_with_one_signature_are_corrupt() {
        let d3l = pooled_engine();
        let (bytes, sig) = (d3l.to_snapshot_bytes(), d3l.strides().0 * 8);
        let bad = with_section(&bytes, SEC_FOREST_V, |mut payload| {
            let slab = 7 * 4;
            payload.copy_within(slab + sig..slab + 2 * sig, slab + 4 * sig);
            payload
        });
        assert_corrupt(&bad, "classes 1 and 4 hold one signature");
    }

    fn section_of(bytes: &[u8], tag: SectionTag) -> Vec<u8> {
        let mut reader = ContainerReader::parse(bytes, KIND_SNAPSHOT).unwrap();
        reader.section(tag).unwrap()
    }

    /// A forest section of another table list — each in turn taken from
    /// an engine that removed table 1, in a re-sealed snapshot of the
    /// full engine — is refused at open. (Before a forest's items were
    /// its reader's rows, such a store opened, and the first query to
    /// score one of table 1's attributes died in a query worker on
    /// "attribute not indexed".)
    #[test]
    fn forest_of_another_table_list_is_corrupt() {
        let full = engine();
        let mut short = full.clone();
        assert!(short.remove_table(TableId(1)));
        let (bytes, short_bytes) = (full.to_snapshot_bytes(), short.to_snapshot_bytes());
        for tag in [SEC_FOREST_N, SEC_FOREST_V, SEC_FOREST_F, SEC_FOREST_E] {
            let bad = with_section(&bytes, tag, |_| section_of(&short_bytes, tag));
            assert_refused(&bad);
        }
    }

    /// The mirror case: an `IV` or `IE` section that holds a numeric
    /// attribute, which those indexes do not (§III-C), is refused too.
    #[test]
    fn forest_holding_a_numeric_attribute_is_corrupt() {
        let payment = AttrRef {
            table: TableId(0),
            column: 2,
        };
        let with_payment_in = |forest: &str| {
            let mut d3l = engine();
            assert!(d3l.profile(payment).is_numeric);
            let (mh, rp) = (d3l.minhasher.clone(), d3l.projector.clone());
            if forest == "IV" {
                let empty = |slot: &mut [u64]| mh.sign_into(&[], slot);
                d3l.i_v.insert_with(payment.key(), mh.sig_shape(), empty);
                d3l.i_v.commit();
            } else {
                let zero = |slot: &mut [u64]| rp.sign_into(&vec![0.0; rp.dim()], slot);
                d3l.i_e.insert_with(payment.key(), rp.sig_shape(), zero);
                d3l.i_e.commit();
            }
            d3l.to_snapshot_bytes()
        };
        for forest in ["IV", "IE"] {
            assert_refused(&with_payment_in(forest));
        }
    }

    /// A delta's add round-trips and replays into the engine the live
    /// add built. Its words are, per index, the signatures of the
    /// columns the index covers at the engine's strides, uncounted: a
    /// record written with a word more or less in any of the four reads
    /// as another record, which is a typed error — from the decoder and
    /// from `open`, inside the `BadSegment` naming the file. So is the
    /// retired record type 1.
    #[test]
    fn delta_record_round_trips_and_one_of_other_lengths_is_corrupt() {
        let dir = std::env::temp_dir().join(format!("d3l_store_words_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = engine();
        let mut store = IndexStore::create(&dir, &base).unwrap();
        let extra = Table::from_rows(
            "local_gps",
            &["GP", "Location", "Patients"],
            &[vec!["Blackfriars".into(), "Salford".into(), "3572".into()]],
        )
        .unwrap();
        let mut added = base.clone();
        let id = added.add_table(&extra);
        let record = added.signed_table(id).unwrap();
        let (mh, rp) = base.strides();
        // Three columns, two of them textual.
        let whole = [3 * mh, 2 * mh, 3 * mh, 2 * rp];
        assert_eq!(record.words.each_ref().map(Vec::len), whole);
        let with_words = |index: usize, n: usize| {
            let mut added = record.clone();
            added.words[index].resize(n, 0);
            DeltaRecord::AddAt { table: id, added }
        };
        // The record itself round-trips and replays into the engine
        // the live add built.
        let mut replayed = base.clone();
        let bytes = with_words(0, whole[0]).to_bytes();
        replayed
            .apply_delta(DeltaRecord::from_bytes(&bytes, base.strides()).unwrap())
            .unwrap();
        assert_engines_identical(&added, &replayed);
        assert!(replayed.to_snapshot_bytes() == added.to_snapshot_bytes());
        let mut retired = bytes.clone();
        retired[0] = 1;
        let err = DeltaRecord::from_bytes(&retired, base.strides()).unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m.contains("unknown delta record type 1")),
            "{err}"
        );
        for (index, all) in whole.into_iter().enumerate() {
            for n in [all - 1, all + 1] {
                let bytes = with_words(index, n).to_bytes();
                let err = DeltaRecord::from_bytes(&bytes, base.strides()).unwrap_err();
                assert!(
                    matches!(&err, StoreError::Truncated { .. } | StoreError::Corrupt(_)),
                    "{n} words in index {index}: {err}"
                );
            }
        }
        store.write_delta(&with_words(1, mh)).unwrap();
        let err = IndexStore::open(&dir).unwrap_err();
        assert!(
            matches!(&err, StoreError::BadSegment { seq: 1, source }
                if matches!(&**source, StoreError::Truncated { .. } | StoreError::Corrupt(_))),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A stored attribute record's flags byte holds five known bits, and
    /// a numeric attribute is neither textual nor embedded: an unknown
    /// bit, or numeric with either, is a typed error in a delta as in a
    /// base; every other byte decodes to the flags it spells. Nor is a
    /// numeric attribute a table's subject: no build makes one so, and
    /// the subject guard reads a subject's words in all four indexes.
    #[test]
    fn profile_flags_that_are_no_attribute_are_corrupt() {
        let mut d3l = engine();
        let gp = Table::from_rows("local_gps", &["GP"], &[vec!["Blackfriars".into()]]).unwrap();
        let id = d3l.add_table(&gp);
        let added = d3l.signed_table(id).unwrap();
        assert_eq!(added.subject(), Some(0));
        let bytes = DeltaRecord::AddAt { table: id, added }.to_bytes();
        // The record ends: ... flags | four word lists.
        let DeltaRecord::AddAt { added, .. } =
            DeltaRecord::from_bytes(&bytes, d3l.strides()).unwrap()
        else {
            panic!("an add record");
        };
        let words: usize = added.words.iter().map(Vec::len).sum();
        let flags_at = bytes.len() - 8 * words - 1;
        let all = FLAG_EMBEDDED | FLAG_NAME | FLAG_TEXT | FLAG_FORMAT;
        assert_eq!(bytes[flags_at], all);
        let mut bad = bytes.clone();
        for flags in 0..=255u8 {
            bad[flags_at] = flags;
            let decoded = DeltaRecord::from_bytes(&bad, d3l.strides());
            let numeric = flags & FLAG_NUMERIC != 0;
            let textual = flags & (FLAG_TEXT | FLAG_EMBEDDED) != 0;
            if numeric && !textual && flags <= (all | FLAG_NUMERIC) {
                // The record's one column is its subject.
                let err = decoded.unwrap_err();
                assert!(
                    matches!(&err, StoreError::Corrupt(m) if m.contains("subject column 0")),
                    "flags {flags}: {err}"
                );
            } else if !numeric && flags <= all {
                let Ok(DeltaRecord::AddAt { added, .. }) = decoded else {
                    panic!("flags {flags}: {decoded:?}");
                };
                let a = added.attrs.attr(0);
                let spelled = [
                    (a.is_numeric, FLAG_NUMERIC),
                    (a.has_embedding, FLAG_EMBEDDED),
                    (a.has_name, FLAG_NAME),
                    (a.has_text, FLAG_TEXT),
                    (a.has_format, FLAG_FORMAT),
                ];
                let byte: u8 = spelled.iter().map(|&(set, bit)| set as u8 * bit).sum();
                assert_eq!(byte, flags);
            } else {
                let err = decoded.unwrap_err();
                assert!(
                    matches!(&err, StoreError::Corrupt(m) if m.contains("flags")),
                    "flags {flags}: {err}"
                );
            }
        }
        let snapshot = d3l.to_snapshot_bytes();
        for (flags, what) in [
            (FLAG_NUMERIC | FLAG_TEXT, "flags"),
            (FLAG_NUMERIC | FLAG_EMBEDDED, "flags"),
            (32 | all, "flags"),
            (FLAG_NUMERIC | FLAG_NAME | FLAG_FORMAT, "subject column 0"),
        ] {
            let bad = with_section(&snapshot, SEC_PROFILES, |mut prof| {
                *prof.last_mut().unwrap() = flags;
                prof
            });
            assert_corrupt(&bad, what);
        }
        // As does a `TABL` row whose subject is one of the table's
        // numeric columns, or none of its columns: "gp_funding"'s, moved
        // from "Practice" to "Payment", then past the arity.
        assert_eq!(d3l.subject_of(TableId(0)).map(|s| s.column), Some(0));
        for column in [2u8, 3] {
            let bad = with_section(&snapshot, SEC_TABLES, |mut tabl| {
                // count | name length, "gp_funding" | flag | column
                assert_eq!(tabl[12..14], [1, 0]);
                tabl[13] = column;
                tabl
            });
            assert_corrupt(
                &bad,
                &format!("subject column {column} is no text attribute"),
            );
        }
        // Nor does a removed table keep attributes or a subject: a
        // removal leaves it none, and nothing resolves them.
        let bad = with_section(&snapshot, SEC_TABLES, |mut tabl| {
            assert_eq!(tabl[14], 0, "gp_funding is live");
            tabl[14] = 1;
            tabl
        });
        assert_corrupt(&bad, "removed table 0 keeps 3 attributes or a subject");
    }

    /// A varint past `u32` where the store means a `u32` is refused, not
    /// truncated: a `TABL` subject column of 2³² (which read as column
    /// 0, "gp_funding"'s text column "Practice").
    #[test]
    fn store_varints_past_u32_are_corrupt() {
        let snapshot = engine().to_snapshot_bytes();
        let bad = with_section(&snapshot, SEC_TABLES, |tabl| {
            // count | name length, "gp_funding" | flag | column
            assert_eq!(tabl[12..14], [1, 0]);
            let mut column = Encoder::new();
            column.put_varint(1 << 32);
            [&tabl[..13], column.as_bytes(), &tabl[14..]].concat()
        });
        assert_corrupt(&bad, "subject column 4294967296 exceeds u32");
    }

    /// A numeric extent that is no sorted extent of numbers — a NaN, an
    /// unsorted raw form, an unknown scale, a scaled value out of range
    /// — is a typed error in a base, opened as bytes or as a store, and
    /// in a delta. (A NaN extent used to open, and KS over two of them
    /// never returned.)
    #[test]
    fn extent_that_is_no_sorted_extent_is_corrupt() {
        let d3l = engine();
        let payment = AttrRef {
            table: TableId(0),
            column: 2,
        };
        let good = d3l.profile(payment).numeric_extent.as_bytes().to_vec();
        assert_eq!(good[..2], [2, 0], "two integers, scale 0");
        let raw = |vs: [f64; 2]| {
            let mut enc = Encoder::new();
            enc.put_raw(&[2, 0xff]);
            vs.iter().for_each(|&v| enc.put_f64(v));
            enc.into_bytes()
        };
        let mut scale_23 = good.clone();
        scale_23[1] = 23;
        // A first value of 2⁵², zig-zagged.
        let mut past = Encoder::new();
        past.put_raw(&[2, 0]);
        past.put_varint(1 << 53);
        past.put_varint(0);
        let cases = [
            (raw([15530.0, f64::NAN]), "holds NaN"),
            (raw([73648.0, 15530.0]), "not sorted"),
            (scale_23, "unknown scale 23"),
            (past.into_bytes(), "outside ±2^52"),
        ];
        let splice = |block: &[u8], bad: &[u8]| {
            let at = block.windows(good.len()).position(|w| w == good);
            let at = at.expect("the extent is in the block");
            [&block[..at], bad, &block[at + good.len()..]].concat()
        };
        // `PROF` is one length-prefixed block per table; "gp_funding"'s
        // holds the extent.
        let prof_with = |prof: Vec<u8>, bad: &[u8]| {
            let mut dec = Decoder::new(&prof);
            let mut out = Encoder::new();
            out.put_bytes(&splice(dec.get_bytes().unwrap(), bad));
            out.put_raw(dec.rest());
            out.into_bytes()
        };
        // A delta adding "gp_funding" again, laid out as `to_bytes` does.
        let added = d3l.signed_table(TableId(0)).unwrap();
        let delta_with = |bad: &[u8]| {
            let mut enc = Encoder::new();
            enc.put_u8(3);
            enc.put_varint(3);
            enc.put_str(added.name());
            encode_subject(added.subject(), &mut enc);
            let block = encode_rows(&added.attrs, 0);
            enc.put_bytes(&splice(&block, bad));
            added.words.iter().for_each(|w| enc.put_u64_slab(w));
            enc.into_bytes()
        };
        let bytes = d3l.to_snapshot_bytes();
        assert!(with_section(&bytes, SEC_PROFILES, |p| prof_with(p, &good)) == bytes);
        let record = DeltaRecord::AddAt {
            table: TableId(3),
            added: added.clone(),
        };
        assert_eq!(delta_with(&good), record.to_bytes());
        let dir = std::env::temp_dir().join(format!("d3l_store_nan_{}", std::process::id()));
        for (bad, what) in &cases {
            let corrupt =
                |err: &StoreError| matches!(err, StoreError::Corrupt(m) if m.contains(what));
            let base = with_section(&bytes, SEC_PROFILES, |p| prof_with(p, bad));
            assert_corrupt(&base, what);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(BASE_FILE), &base).unwrap();
            let err = IndexStore::open(&dir).unwrap_err();
            assert!(corrupt(&err), "{err}");
            let err = DeltaRecord::from_bytes(&delta_with(bad), d3l.strides()).unwrap_err();
            assert!(corrupt(&err), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Nothing survives signing that scoring does not read. On every
    /// path an attribute takes into an engine — `index_lake`,
    /// `index_dir`, `add_table`, delta replay, `compact` + reopen — the
    /// engine holds of it a
    /// name and the encoding of its numeric extent, byte for byte (the
    /// accounting is content-defined, so the equality is exact), whose
    /// values are the built profile's bit for bit, and four flags that
    /// say which sets of a freshly built profile are non-empty.
    #[test]
    fn nothing_survives_signing_that_scoring_does_not_read() {
        use crate::profile::profile_table;
        let root = std::env::temp_dir().join(format!("d3l_store_lean_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        dirty_lake(12).save_dir(root.join("lake")).unwrap();
        let lake = DataLake::load_dir(root.join("lake")).unwrap();
        let cfg = D3lConfig::fast();

        let check = |engine: &D3l, ctx: &str| {
            let (mut kept_bytes, mut flags_seen) = (0, [[0usize; 2]; 4]);
            assert_eq!(engine.check_class_column(), Ok(()), "{ctx}");
            let ids = engine.name_to_id();
            assert_eq!(ids.len(), lake.len(), "{ctx}");
            for (_, table) in lake.iter() {
                let id = ids[table.name()];
                let built = profile_table(table, cfg.q, engine.embedder());
                for (column, built) in (0u32..).zip(&built) {
                    let held = engine.profile(AttrRef { table: id, column });
                    let ctx = format!("{ctx}: {}.{}", table.name(), built.name);
                    assert_eq!(held.name, built.name, "{ctx}");
                    let extent = d3l_features::NumericExtent::from_sorted(&built.numeric_extent);
                    assert_eq!(held.numeric_extent, &*extent, "{ctx}");
                    let bits = |v: f64| v.to_bits();
                    assert!(
                        held.numeric_extent.values().map(bits).eq(built
                            .numeric_extent
                            .iter()
                            .copied()
                            .map(bits)),
                        "{ctx}"
                    );
                    assert_eq!(held.is_numeric, built.is_numeric, "{ctx}");
                    let flags = [
                        (held.has_name, !built.qset.is_empty()),
                        (held.has_text, !built.tset.is_empty()),
                        (held.has_format, !built.rset.is_empty()),
                        (
                            held.has_embedding,
                            built.embedding.iter().any(|&x| x != 0.0),
                        ),
                    ];
                    for ((held, fresh), seen) in flags.into_iter().zip(&mut flags_seen) {
                        assert_eq!(held, fresh, "{ctx}");
                        seen[fresh as usize] += 1;
                    }
                    // The name and the extent's encoding (an empty
                    // extent's one zero byte is not held).
                    let encoded = extent.as_bytes().len();
                    kept_bytes += built.name.len() + if extent.is_empty() { 0 } else { encoded };
                }
            }
            // Beside them a row holds where its name and extent end, a
            // flags byte and four class slots, and every table where its
            // rows start, and one end.
            let rows = lake.total_attributes() * (4 + 4 + 1 + 16);
            let tables = 4 * (engine.table_count() + 1);
            let profile_bytes = engine.byte_size().profile_bytes;
            assert_eq!(profile_bytes, kept_bytes + rows + tables, "{ctx}");
            // Both values of the value and embedding flags occur (names
            // and formats are never empty on this lake).
            assert!(
                flags_seen[1].iter().all(|&n| n > 0),
                "{ctx}: {flags_seen:?}"
            );
            assert!(
                flags_seen[3].iter().all(|&n| n > 0),
                "{ctx}: {flags_seen:?}"
            );
        };

        check(&D3l::index_lake(&lake, cfg.clone()), "index_lake");
        let streamed = D3l::index_dir(root.join("lake"), cfg.clone()).unwrap();
        check(&streamed, "index_dir");

        // One table at a time through a store, then what a cold start
        // replays from the segments, then what it reads from the
        // compacted base.
        let dir = root.join("index");
        let mut d3l = D3l::index_lake(&DataLake::new(), cfg.clone());
        let mut store = IndexStore::create(&dir, &d3l).unwrap();
        for (_, table) in lake.iter() {
            store.append_add(&mut d3l, table).unwrap();
        }
        check(&d3l, "add_table");
        let (_, replayed) = IndexStore::open(&dir).unwrap();
        assert!(replayed.to_snapshot_bytes() == d3l.to_snapshot_bytes());
        check(&replayed, "delta replay");
        store.compact(&d3l).unwrap();
        let (_, opened) = IndexStore::open(&dir).unwrap();
        check(&opened, "open");
        std::fs::remove_dir_all(&root).ok();
    }

    /// A lake member read back from the index is the member prepared
    /// from its rows: on every table of the pinned dirty lake — and one
    /// whose text column has no wordlike token, so a zero vector and an
    /// all-ones `IE` signature — the two records are equal (name,
    /// subject, every column's attribute record and its words in every
    /// index that covers it) and so is the top 10.
    #[test]
    fn signed_table_equals_prepare_target() {
        let mut lake = dirty_lake(40);
        let codes = Table::from_rows(
            "codes",
            &["Code", "Count"],
            &[
                vec!["A1-B2".into(), "17".into()],
                vec!["C3-D4".into(), "4".into()],
            ],
        )
        .unwrap();
        let codes_id = lake.add(codes).unwrap();
        let d3l = D3l::index_lake(&lake, D3lConfig::default());
        let code = d3l.profile(AttrRef {
            table: codes_id,
            column: 0,
        });
        assert!(!code.is_numeric && code.has_text && !code.has_embedding);
        let ones = d3l.stored_signatures_ref(AttrRef {
            table: codes_id,
            column: 0,
        });
        assert!(ones.embedding.unwrap().iter().all(|&w| w == u64::MAX));

        let engine = &d3l;
        let (mut numeric, mut textual) = (0, 0);
        for (id, table) in lake.iter() {
            let from_rows = engine.prepare_target(table);
            let from_index = engine.signed_table(id).unwrap();
            assert_eq!(from_index, from_rows, "{}", table.name());
            assert_eq!(from_index.arity(), table.arity());
            for attr in from_index
                .attrs
                .rows(0)
                .map(|row| from_index.attrs.attr(row))
            {
                numeric += attr.is_numeric as usize;
                textual += !attr.is_numeric as usize;
            }
            let opts = crate::query::QueryOptions {
                exclude: Some(id),
                ..Default::default()
            };
            let a = engine.query_prepared(&from_index, 10, &opts);
            let b = engine.query_prepared(&from_rows, 10, &opts);
            assert_eq!(a.len(), b.len(), "{}", table.name());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.table, y.table, "{}", table.name());
                assert_eq!(x.distance.to_bits(), y.distance.to_bits());
                assert_eq!(x.vector, y.vector);
            }
        }
        assert!(numeric > 20 && textual > 100, "{numeric} / {textual}");
    }

    fn typed_decode_failure(err: &StoreError) -> bool {
        matches!(
            err,
            StoreError::BadMagic { .. }
                | StoreError::UnsupportedVersion { .. }
                | StoreError::WrongKind { .. }
                | StoreError::Truncated { .. }
                | StoreError::ChecksumMismatch { .. }
                | StoreError::MissingSection { .. }
                | StoreError::Corrupt(_)
        )
    }

    /// No prefix of a snapshot and no single damaged byte of one
    /// decodes, and none panics: each is one of the decode errors.
    #[test]
    fn every_snapshot_prefix_and_byte_flip_is_a_typed_error() {
        let bytes = engine().to_snapshot_bytes();
        for cut in 0..bytes.len() {
            match D3l::from_snapshot_bytes(&bytes[..cut]) {
                Err(e) => assert!(typed_decode_failure(&e), "cut {cut}: {e}"),
                Ok(_) => panic!("cut {cut}: truncated snapshot decoded"),
            }
        }
        let mut bad = bytes.clone();
        for pos in 0..bytes.len() {
            bad[pos] ^= 1 << (pos % 8);
            match D3l::from_snapshot_bytes(&bad) {
                Err(e) => assert!(typed_decode_failure(&e), "flip {pos}: {e}"),
                Ok(_) => panic!("flip {pos}: damaged snapshot decoded"),
            }
            bad[pos] = bytes[pos];
        }
    }

    /// The same for a delta segment.
    #[test]
    fn every_delta_prefix_and_byte_flip_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("d3l_store_dfuzz_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut d3l = engine();
        let mut store = IndexStore::create(&dir, &d3l).unwrap();
        let extra = Table::from_rows(
            "local_gps",
            &["GP", "Location"],
            &[vec!["Blackfriars".into(), "Salford".into()]],
        )
        .unwrap();
        store.append_add(&mut d3l, &extra).unwrap();
        let bytes = std::fs::read(dir.join(layout::delta_file_name(1))).unwrap();
        let strides = d3l.strides();
        assert!(matches!(
            DeltaRecord::from_segment(&bytes, strides),
            Ok(DeltaRecord::AddAt { .. })
        ));
        for cut in 0..bytes.len() {
            match DeltaRecord::from_segment(&bytes[..cut], strides) {
                Err(e) => assert!(typed_decode_failure(&e), "cut {cut}: {e}"),
                Ok(_) => panic!("cut {cut}: truncated segment decoded"),
            }
        }
        let mut bad = bytes.clone();
        for pos in 0..bytes.len() {
            bad[pos] ^= 1 << (pos % 8);
            match DeltaRecord::from_segment(&bad, strides) {
                Err(e) => assert!(typed_decode_failure(&e), "flip {pos}: {e}"),
                Ok(_) => panic!("flip {pos}: damaged segment decoded"),
            }
            bad[pos] = bytes[pos];
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Two handles on one directory race for the same sequence
    /// number: exactly one append is published, the other fails with
    /// the no-clobber error, and the published segment is the
    /// winner's, whole. (With check-then-rename both passed the check
    /// — it precedes the write and the fsync — and the second rename
    /// silently replaced the first writer's acknowledged segment.)
    #[test]
    fn racing_appends_publish_exactly_one_segment() {
        let dir = std::env::temp_dir().join(format!("d3l_store_race_{}", std::process::id()));
        for round in 0..8 {
            let _ = std::fs::remove_dir_all(&dir);
            let base = engine();
            let first = IndexStore::create(&dir, &base).unwrap();
            let (second, second_engine) = IndexStore::open(&dir).unwrap();
            let barrier = std::sync::Barrier::new(2);
            let race = |mut store: IndexStore, mut d3l: D3l, name: &'static str| {
                let barrier = &barrier;
                move || {
                    let table =
                        Table::from_rows(name, &["GP"], &[vec!["Blackfriars".into()]]).unwrap();
                    barrier.wait();
                    store.append_add(&mut d3l, &table).map(|_| name)
                }
            };
            let (a, b) = std::thread::scope(|scope| {
                let a = scope.spawn(race(first, base, "writer_a"));
                let b = scope.spawn(race(second, second_engine, "writer_b"));
                (a.join().unwrap(), b.join().unwrap())
            });
            let (winner, loser) = match (a, b) {
                (Ok(w), Err(e)) | (Err(e), Ok(w)) => (w, e),
                (Ok(_), Ok(_)) => panic!("round {round}: both appends were acknowledged"),
                (Err(a), Err(b)) => panic!("round {round}: no append won: {a}; {b}"),
            };
            assert!(
                matches!(&loser, StoreError::AnotherWriter { seq: 1 }),
                "round {round}: {loser}"
            );
            let scan = layout::scan(&dir).unwrap();
            assert_eq!(scan.deltas.len(), 1, "round {round}: one segment published");
            let leftovers: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|n| layout::is_store_tmp(n))
                .collect();
            assert!(leftovers.is_empty(), "round {round}: {leftovers:?}");
            let (_, reopened) = IndexStore::open(&dir).unwrap();
            assert!(reopened.name_to_id().contains_key(winner), "round {round}");
            assert_eq!(reopened.live_table_count(), 4, "round {round}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_lifecycle_add_compact_reload_matches_rebuild() {
        let dir = std::env::temp_dir().join(format!("d3l_store_core_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lake = lake();
        let extra = Table::from_rows(
            "local_gps",
            &["GP", "Location"],
            &[vec!["Blackfriars".into(), "Salford".into()]],
        )
        .unwrap();

        // Build on two tables, persist, then add the third + extra via
        // the store.
        let mut two = DataLake::new();
        two.add(lake.table(TableId(0)).clone()).unwrap();
        two.add(lake.table(TableId(1)).clone()).unwrap();
        let mut d3l = D3l::index_lake(&two, D3lConfig::fast());
        let mut store = IndexStore::create(&dir, &d3l).unwrap();
        store.append_add(&mut d3l, lake.table(TableId(2))).unwrap();
        store.append_add(&mut d3l, &extra).unwrap();
        assert_eq!(store.delta_count().unwrap(), 2);

        // Reopen replays the deltas into an identical engine.
        let (_, reopened) = IndexStore::open(&dir).unwrap();
        assert_engines_identical(&d3l, &reopened);

        // Compact folds the deltas; a fresh open still matches, and it
        // matches a from-scratch rebuild over the extended lake.
        store.compact(&d3l).unwrap();
        assert_eq!(store.delta_count().unwrap(), 0);
        let (_, compacted) = IndexStore::open(&dir).unwrap();
        assert_engines_identical(&d3l, &compacted);
        let mut full = lake.clone();
        full.add(extra).unwrap();
        let rebuilt = D3l::index_lake(&full, D3lConfig::fast());
        assert_engines_identical(&rebuilt, &compacted);

        let (base, deltas, _) = store.disk_usage().unwrap();
        assert!(base > 0);
        assert_eq!(deltas, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn remove_persists_and_tombstones() {
        let dir = std::env::temp_dir().join(format!("d3l_store_rm_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut d3l = engine();
        let mut store = IndexStore::create(&dir, &d3l).unwrap();
        assert!(store.append_remove(&mut d3l, TableId(2)).unwrap());
        assert!(
            !store.append_remove(&mut d3l, TableId(2)).unwrap(),
            "double remove is a no-op"
        );
        assert!(d3l.is_removed(TableId(2)));
        assert_eq!(d3l.live_table_count(), 2);
        assert_eq!(d3l.table_count(), 3, "ids stay stable");
        assert!(!d3l.name_to_id().contains_key("planets"));

        // The removed table's attributes left every forest, and its rows
        // the attribute table.
        let gone = AttrRef {
            table: TableId(2),
            column: 0,
        };
        assert!(!d3l.i_n.ids().any(|id| id == gone.key()));
        assert_eq!(
            (d3l.table_arity(TableId(2)), d3l.attrs.row(gone)),
            (0, None)
        );
        assert_eq!(d3l.check_class_column(), Ok(()));

        // Replay and compaction both preserve the tombstone.
        let (_, reopened) = IndexStore::open(&dir).unwrap();
        assert_engines_identical(&d3l, &reopened);
        store.compact(&d3l).unwrap();
        let (_, compacted) = IndexStore::open(&dir).unwrap();
        assert_engines_identical(&d3l, &compacted);

        // Queries no longer surface the tombstoned table.
        let target = Table::from_rows(
            "t",
            &["Planet", "Moons"],
            &[vec!["Saturn".into(), "146".into()]],
        )
        .unwrap();
        for m in compacted.query(&target, 5) {
            assert_ne!(m.table, TableId(2), "tombstoned table surfaced");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_compact_never_replays_folded_deltas() {
        // Simulate a crash between compact()'s base write and its
        // segment deletion: the folded segment is still on disk, but
        // the base's applied-through watermark must keep open() from
        // applying it a second time.
        let dir = std::env::temp_dir().join(format!("d3l_store_crash_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut d3l = engine();
        let mut store = IndexStore::create(&dir, &d3l).unwrap();
        let extra = Table::from_rows(
            "late_arrival",
            &["GP", "Location"],
            &[vec!["Blackfriars".into(), "Salford".into()]],
        )
        .unwrap();
        store.append_add(&mut d3l, &extra).unwrap();

        let delta = dir.join("delta-000001.d3ld");
        let folded_segment = std::fs::read(&delta).unwrap();
        store.compact(&d3l).unwrap();
        // The crash: the folded segment reappears (was never deleted).
        std::fs::write(&delta, folded_segment).unwrap();

        let (mut reopened_store, reopened) = IndexStore::open(&dir).unwrap();
        assert_engines_identical(&d3l, &reopened);
        assert_eq!(
            reopened
                .name_to_id()
                .keys()
                .filter(|n| **n == "late_arrival")
                .count(),
            1,
            "the folded add must not be applied twice"
        );
        // Sequence numbers are never reused: the next segment lands
        // above the stale one instead of colliding with it.
        let mut after = reopened;
        let extra2 = Table::from_rows("even_later", &["X"], &[vec!["y".into()]]).unwrap();
        reopened_store.append_add(&mut after, &extra2).unwrap();
        assert!(dir.join("delta-000002.d3ld").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_preserves_segments_from_an_external_writer() {
        // A handle compacts while a second process, against the
        // one-writer rule, has appended a segment the handle never
        // replayed. Compaction must fold only its own range — deleting
        // the external segment would silently destroy an acknowledged
        // durable write.
        let dir = std::env::temp_dir().join(format!("d3l_store_ext_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut d3l = engine();
        let mut store = IndexStore::create(&dir, &d3l).unwrap();
        let own = Table::from_rows("own_add", &["X"], &[vec!["a".into()]]).unwrap();
        store.append_add(&mut d3l, &own).unwrap();

        // The external writer opens its own handle and appends.
        let (mut other_store, mut other_engine) = IndexStore::open(&dir).unwrap();
        let external = Table::from_rows("external_add", &["Y"], &[vec!["b".into()]]).unwrap();
        other_store
            .append_add(&mut other_engine, &external)
            .unwrap();
        assert_eq!(store.delta_count().unwrap(), 2, "own and external");

        // Compact folds only the handle's own segment (seq 1).
        assert_eq!(store.compact(&d3l).unwrap(), 1);
        assert_eq!(store.delta_count().unwrap(), 1, "the external one");
        let (_, external_bytes, _) = store.disk_usage().unwrap();
        assert!(external_bytes > 0);
        assert!(
            dir.join(d3l_store::layout::delta_file_name(2)).exists(),
            "the external segment must survive compaction"
        );

        // A fresh open replays the surviving external segment on top
        // of the compacted base: nothing was lost.
        let (_, reopened) = IndexStore::open(&dir).unwrap();
        assert!(reopened.name_to_id().contains_key("own_add"));
        assert!(reopened.name_to_id().contains_key("external_add"));
        assert_engines_identical(&other_engine, &reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_missing_store_is_io_error() {
        assert!(matches!(
            IndexStore::open("/definitely/not/a/store"),
            Err(StoreError::Io(_))
        ));
    }
}
