//! The four LSH indexes and their construction (Algorithm 1).
//!
//! [`D3l`] owns everything needed to answer discovery queries over a
//! lake: the `IN`, `IV`, `IF` (MinHash) and `IE` (random projection)
//! LSH Forests, what is kept of each attribute beside its signatures
//! (name, numeric extent for the guarded KS computation, evidence
//! flags — no token set, no embedding vector), and each table's
//! subject attribute.
//!
//! **A table and an attribute are rows.** What is kept of the tables
//! and their attributes is one struct-of-arrays table (`attrs` module):
//! per table its name, subject column and removed flag, and a row per
//! attribute — its name, extent and flags, and its class in each of the
//! four forests. The forests keep no id → class map — an insert returns
//! the slot, a removal is told it, a class that moves says so and its
//! members' rows are re-pointed — so resolving a candidate's signatures
//! is four array reads, and [`D3l::profile`] hands out a row as an
//! [`AttrView`], the type a signed table's rows are read through too.
//!
//! **A table is signed once, into one record.** [`SignedTable`] is a
//! table as the index takes it: the same attribute table, holding that
//! one table (name, subject column, a row per column, no class
//! anywhere), and the columns' signature words, per index. Three
//! functions move it, and every mover of tables is one or two of them:
//! [`D3l::sign_table`] makes it (Algorithm 1 whole — profile, detect
//! the subject, sign; the one place in this crate that calls a hasher
//! on lake or target data, and the one place a profile becomes a row),
//! `D3l::push` puts it into the forests (copying its words into the
//! arenas, where a name, a format or a value set that recurs is found
//! to be a class the forest already has, and its rows into the
//! engine's table), and [`D3l::signed_table`] reads a live member back
//! out as the same value. The bulk build and [`D3l::add_table`] sign
//! and push; a delta segment is the record about to be pushed and
//! replay pushes the decoded one; a query target is signed, a lake
//! member queried as a target is read back.
//!
//! There is one build path. A worker takes a contiguous run of table
//! ids and, table by table, obtains the table (borrowed from a
//! [`DataLake`], or read and parsed from its CSV file and dropped
//! again), signs it and pushes it into its own four forests — profiling
//! and signature generation dominate, as the paper observes for all
//! three compared systems (Experiment 4). The workers' forests are then
//! appended in table-id order ([`LshForest::append`], which merges
//! classes by content; with one worker there is nothing to append).
//! The build holds no tree: the engines [`D3l::index_lake`] and
//! [`D3l::index_dir`] return are committed, so they answer queries,
//! while a build written straight to a store
//! ([`crate::IndexStore::index_dir`], what `d3l index` runs) is never
//! committed — the store keeps no tree, and its open sorts them. A
//! built profile holds hashed token sets, so its
//! signatures are derived from the hashes with no re-tokenization, and
//! it ends at its record. A forest's stored bytes, and its committed
//! trees, are a function of which attribute carries which signature,
//! so the built index is byte-identical at every thread count, from a
//! directory or from a lake, in bulk or one table at a time, committed
//! or not.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::path::Path;

use d3l_embedding::{CachedEmbedder, HashEmbedder, SUBWORD_SEED};
use d3l_features::NumericExtent;
use d3l_lsh::forest::LshForest;
use d3l_lsh::kernels::SigningLanes;
use d3l_lsh::minhash::{MinHashSignature, MinHasher};
use d3l_lsh::randproj::{BitSignature, RandomProjector};
use d3l_lsh::{ItemId, TokenSet};
use d3l_table::lake::{csv_files, load_csv, table_name_of};
use d3l_table::{DataLake, Table, TableError, TableId};

use crate::attrs::{AttrTable, NONE};
use crate::config::D3lConfig;
use crate::profile::{profile_table_with, AttrView, Scratch};

/// Which compilation of the lane loops — MinHash and hyperplane
/// signing, and the embedder's n-gram sign sums — every engine in this
/// process runs: `"avx512"` or `"portable"`, decided by the CPU
/// ([`SigningLanes::detect`]), the same for every hasher, projector and
/// embedder. What `d3l stats` and `GET /stats` report.
pub fn signing_lanes() -> &'static str {
    SigningLanes::detect().name()
}

/// A reference to one attribute of one table in the lake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrRef {
    /// Owning table.
    pub table: TableId,
    /// Column index within the table.
    pub column: u32,
}

impl AttrRef {
    /// Widest column index that survives [`AttrRef::key`] packing
    /// (the low 24 bits of the item id).
    pub const MAX_COLUMN: u32 = (1 << 24) - 1;

    /// Pack into the `u64` item id the LSH indexes use.
    ///
    /// The column occupies the low 24 bits; a column index beyond
    /// [`AttrRef::MAX_COLUMN`] would silently corrupt the table bits,
    /// so packing asserts the invariant in debug builds.
    pub fn key(self) -> ItemId {
        debug_assert!(
            self.column <= Self::MAX_COLUMN,
            "AttrRef column {} exceeds the 24-bit packing limit",
            self.column
        );
        ((self.table.0 as u64) << 24) | (self.column & Self::MAX_COLUMN) as u64
    }

    /// Unpack from an LSH item id.
    pub fn from_key(key: ItemId) -> Self {
        AttrRef {
            table: TableId((key >> 24) as u32),
            column: (key & Self::MAX_COLUMN as u64) as u32,
        }
    }
}

/// One table's signature words, per index — `IN`, `IV`, `IF`, `IE`, as
/// [`MemoryFootprint::indexes`] orders them: the signatures of the
/// columns the index covers (`IN`/`IF` every column, `IV`/`IE` the
/// non-numeric ones; §III-C), in column order, one hasher stride each.
pub(crate) type TableWords = [Vec<u64>; 4];

/// A table as the index takes it: Algorithm 1's product, whole. Made by
/// [`D3l::sign_table`] (a table to add, a query target) or read back
/// from the index by [`D3l::signed_table`] (a lake member as a query
/// target) — equal values for one table — and what a delta segment
/// carries. Only meaningful for the engine that made it: the words are
/// its hashers' output.
///
/// Signing a target (q-gram, token, pattern and embedding extraction
/// plus four signatures per attribute) dominates the cost of small
/// queries, so callers that query one target repeatedly — `rank_all`
/// plus `related_table_set` in the join workload, the evaluation loop's
/// many `k` values — sign once ([`D3l::prepare_target`])
/// and pass the record to the `*_prepared` variants.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedTable {
    /// The table as an attribute table holding it alone: its name, its
    /// subject column (never a numeric one) and a row per column, as
    /// `TABL` and `PROF` hold them, in no class of any index.
    pub(crate) attrs: AttrTable,
    /// The columns' signatures in the four indexes.
    pub(crate) words: TableWords,
}

impl SignedTable {
    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.rows(0).len()
    }

    /// Table name.
    pub(crate) fn name(&self) -> &str {
        self.attrs.table_name(0)
    }

    /// Subject-attribute column, if classified.
    pub(crate) fn subject(&self) -> Option<u32> {
        self.attrs.subject(0)
    }

    /// The columns in order, each with its words in the indexes that
    /// cover it — `of` is the engine whose hashers made them.
    pub(crate) fn columns<'a>(
        &'a self,
        of: &D3l,
    ) -> impl Iterator<Item = (AttrView<'a>, AttrSigsRef<'a>)> + 'a {
        let (mh, rp) = of.strides();
        let [i_n, i_v, i_f, i_e] = &self.words;
        let nth = |words: &'a [u64], stride: usize, n: usize| &words[n * stride..][..stride];
        // Columns so far that `IV` and `IE` cover.
        let mut textual = 0;
        self.attrs.rows(0).map(move |col| {
            let attr = self.attrs.attr(col);
            let covered = (!attr.is_numeric).then(|| {
                textual += 1;
                textual - 1
            });
            let sigs = AttrSigsRef {
                name: nth(i_n, mh, col),
                value: covered.map(|n| nth(i_v, mh, n)),
                format: nth(i_f, mh, col),
                embedding: covered.map(|n| nth(i_e, rp, n)),
            };
            (attr, sigs)
        })
    }
}

/// One attribute's signatures as word slices — of a [`SignedTable`]'s
/// runs or of the forests' arenas, so both sides of a scored pair read
/// alike and nothing is cloned per pair (three packed MinHash
/// signatures of 1 KB and a 32-byte bit signature). `IV` and `IE` hold
/// no numeric attribute (§III-C): its `value` and `embedding` are
/// `None`, and its `has_text` / `has_embedding` flags, checked before
/// every use, are false.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AttrSigsRef<'a> {
    pub name: &'a [u64],
    pub value: Option<&'a [u64]>,
    pub format: &'a [u64],
    pub embedding: Option<&'a [u64]>,
}

/// Positions of `IN` and `IF` in an attribute row's classes.
const IN: usize = 0;
const IF: usize = 2;

/// What signing keeps across tables: a build worker holds one for its
/// whole run, [`D3l::sign_table`] one for its table. Beside the
/// embedding memo sits the memo of signed name and format sets, and
/// the profiler's buffers.
struct Signer<'e> {
    embedder: CachedEmbedder<'e>,
    sets: SignedSets,
    scratch: Scratch,
}

impl<'e> Signer<'e> {
    fn new(embedder: &'e HashEmbedder) -> Self {
        Signer {
            embedder: CachedEmbedder::new(embedder),
            sets: SignedSets::default(),
            scratch: Scratch::default(),
        }
    }
}

/// A build worker's memo of the name and format sets it has signed,
/// beside its [`CachedEmbedder`]: the `IN` and `IF` sets of a lake
/// repeat (the 4 000-table benchmark lake's 13 814 attributes carry 22
/// name and 13 format classes), so each distinct set is signed once.
/// A set is keyed by itself, never by a digest, and maps to the first
/// row that carried it. The memo holds no signature: a hit copies the
/// words of that row's class, already in the worker's arena.
#[derive(Default)]
struct SignedSets {
    name: HashMap<TokenSet, usize>,
    format: HashMap<TokenSet, usize>,
}

impl SignedSets {
    /// Write the signature of `set` in index `index` (`IN` or `IF`) of
    /// `engine` into `out`, for the attribute that will be row `row`
    /// of `engine`: copied from the class of the first row that carried
    /// an equal set, if `engine` holds that row already, else signed.
    /// A set is stored as a copy of its own length: a profile's set
    /// keeps the capacity of every cell's hash it was built from.
    fn sign(&mut self, engine: &D3l, index: usize, set: &TokenSet, row: usize, out: &mut [u64]) {
        let (memo, forest) = match index {
            IN => (&mut self.name, &engine.i_n),
            _ => (&mut self.format, &engine.i_f),
        };
        match memo.get(set) {
            Some(&first) if first < engine.attrs.row_count() => {
                let class = engine.attrs.class(first)[index];
                out.copy_from_slice(forest.class_words(class));
            }
            seen => {
                engine.minhasher.sign_into(set.as_slice(), out);
                if seen.is_none() {
                    memo.insert(set.clone(), row);
                }
            }
        }
    }
}

/// The discovery engine: the lake's tables in four LSH forests and an
/// attribute table. It builds, mutates and persists them
/// ([`crate::snapshot`]), answers queries ([`crate::query`]) and builds
/// the SA-join graph ([`crate::join`]).
///
/// `Clone` is deliberate and cheap relative to a rebuild: the serving
/// layer's copy-on-write hot-swap ([`crate::hotswap::EngineHandle`])
/// clones the engine, applies a mutation to the clone, and atomically
/// swaps it in so concurrent readers keep their consistent snapshot.
#[derive(Clone)]
pub struct D3l {
    pub(crate) cfg: D3lConfig,
    pub(crate) embedder: HashEmbedder,
    pub(crate) minhasher: MinHasher,
    pub(crate) projector: RandomProjector,
    /// `IN` — attribute-name q-gram index.
    pub(crate) i_n: LshForest<MinHashSignature>,
    /// `IV` — value-token index.
    pub(crate) i_v: LshForest<MinHashSignature>,
    /// `IF` — format-pattern index.
    pub(crate) i_f: LshForest<MinHashSignature>,
    /// `IE` — embedding index.
    pub(crate) i_e: LshForest<BitSignature>,
    /// Every table's name, subject column and removed flag — ids stay
    /// stable across removals, so a removed table keeps its slot
    /// (emptied) and is skipped everywhere — and every attribute's row:
    /// what is kept of it beside its signatures, and its class in each
    /// forest.
    pub(crate) attrs: AttrTable,
}

impl std::fmt::Debug for D3l {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("D3l")
            .field("tables", &self.table_count())
            .field("live_tables", &self.live_table_count())
            .finish_non_exhaustive()
    }
}

impl D3l {
    /// Index a lake held in memory, query-ready.
    pub fn index_lake(lake: &DataLake, cfg: D3lConfig) -> Self {
        let built = Self::build(lake.len(), cfg, |i| {
            Ok::<_, Infallible>(Cow::Borrowed(lake.table(TableId(i as u32))))
        });
        match built {
            Ok(d3l) => d3l.committed(),
            Err(never) => match never {},
        }
    }

    /// Index the `*.csv` files of a directory without ever holding
    /// the lake: equal to [`D3l::index_lake`] over
    /// [`DataLake::load_dir`] of the same directory — same ids, same
    /// bytes, and the same [`TableError`] for the first file (in id
    /// order) that cannot be read or parsed — but each worker reads,
    /// parses, indexes and drops one table at a time.
    pub fn index_dir(dir: impl AsRef<Path>, cfg: D3lConfig) -> Result<Self, TableError> {
        Ok(Self::build_dir(dir, cfg)?.committed())
    }

    /// [`D3l::index_dir`] without the commit: what a build that is only
    /// written to a store needs ([`crate::IndexStore::index_dir`]).
    pub(crate) fn build_dir(dir: impl AsRef<Path>, cfg: D3lConfig) -> Result<Self, TableError> {
        let files = csv_files(dir)?;
        // Lossy stems can collide; a lake refuses the second of two
        // tables of one name, and so does this.
        let mut names = HashSet::with_capacity(files.len());
        for f in &files {
            if let Some(twice) = names.replace(table_name_of(f)) {
                return Err(TableError::DuplicateTable(twice));
            }
        }
        drop(names);
        Self::build(files.len(), cfg, |i| load_csv(&files[i]).map(Cow::Owned))
    }

    /// The one index build: tables `0..count`, obtained one at a time
    /// through `table_at`, indexed by up to `cfg.threads` (0 = every
    /// CPU) workers over contiguous id runs. The forests are left
    /// uncommitted — they hold every signature and no tree — for the
    /// caller to commit ([`D3l::committed`]) if the engine will answer
    /// a query, or to write as they are. Fails with the error of the
    /// lowest-numbered table `table_at` failed on. Panics on a
    /// configuration that cannot shape an index
    /// ([`D3lConfig::shape_error`]).
    fn build<'t, E: Send>(
        count: usize,
        cfg: D3lConfig,
        table_at: impl Fn(usize) -> Result<Cow<'t, Table>, E> + Sync,
    ) -> Result<Self, E> {
        if let Some(error) = cfg.shape_error() {
            panic!("{error}");
        }
        let mut d3l = Self::empty(cfg);
        let workers = d3l.build_threads().min(count.max(1));
        let run = count.div_ceil(workers).max(1);
        let runs = (0..count)
            .step_by(run)
            .map(|from| from..(from + run).min(count));
        let parts: Vec<Result<D3l, E>> = if workers == 1 {
            runs.map(|r| d3l.index_run(r, &table_at)).collect()
        } else {
            let (base, table_at) = (&d3l, &table_at);
            std::thread::scope(|scope| {
                let handles: Vec<_> = runs
                    .map(|r| scope.spawn(move || base.index_run(r, table_at)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("index worker panicked"))
                    .collect()
            })
        };
        // Runs are ascending and each stops at its first failure, so
        // the first failed run carries the lowest failed table.
        for part in parts {
            d3l.absorb(part?);
        }
        Ok(d3l)
    }

    /// Threads a build fans out over: `cfg.threads`, 0 meaning every
    /// CPU.
    fn build_threads(&self) -> usize {
        match self.cfg.threads {
            0 => crate::config::available_cpus(),
            n => n,
        }
    }

    /// A build, committed: the one fanned-out commit, over the build's
    /// threads. Each tree sorts a total order, so the forests are
    /// identical at any thread count.
    fn committed(mut self) -> Self {
        let threads = self.build_threads();
        self.i_n.commit_parallel(threads);
        self.i_v.commit_parallel(threads);
        self.i_f.commit_parallel(threads);
        self.i_e.commit_parallel(threads);
        self
    }

    /// An engine over no tables, its hashers derived from the
    /// configuration's seed and its embedder from the configuration's
    /// dimension and [`SUBWORD_SEED`].
    pub(crate) fn empty(cfg: D3lConfig) -> Self {
        D3l {
            i_n: LshForest::new(cfg.num_perm, cfg.trees),
            i_v: LshForest::new(cfg.num_perm, cfg.trees),
            i_f: LshForest::new(cfg.num_perm, cfg.trees),
            i_e: LshForest::new(cfg.embed_bits, cfg.trees),
            attrs: AttrTable::default(),
            minhasher: MinHasher::new(cfg.num_perm, cfg.seed),
            projector: RandomProjector::new(cfg.embed_dim, cfg.embed_bits, cfg.seed ^ 0xee),
            embedder: HashEmbedder::new(cfg.embed_dim, SUBWORD_SEED),
            cfg,
        }
    }

    /// One worker's share of [`D3l::build`]: an engine of this one's
    /// configuration and hashers holding exactly the tables of `run`,
    /// uncommitted. Its slot vectors start at `run.start`, not at 0 —
    /// it exists to be [`D3l::absorb`]ed.
    fn index_run<'t, E>(
        &self,
        run: std::ops::Range<usize>,
        table_at: &(impl Fn(usize) -> Result<Cow<'t, Table>, E> + Sync),
    ) -> Result<D3l, E> {
        let mut part = Self::empty(self.cfg.clone());
        // Per-worker memos: domain vocabulary recurs across a run's
        // columns, and so do whole name and format sets; cached vectors
        // and copied signatures are identical to fresh ones, so results
        // stay thread-count-invariant.
        let mut signer = Signer::new(&self.embedder);
        for i in run {
            let table = table_at(i)?;
            let signed = part.sign_table_with(&table, &mut signer);
            part.push(TableId(i as u32), signed);
        }
        Ok(part)
    }

    /// Take over the tables of a later run of the same build, their
    /// rows re-pointed to where their classes went.
    fn absorb(&mut self, part: D3l) {
        let moved = [
            self.i_n.append(part.i_n),
            self.i_v.append(part.i_v),
            self.i_f.append(part.i_f),
            self.i_e.append(part.i_e),
        ];
        self.attrs.append(part.attrs, &moved);
    }

    /// Incrementally index one more table (data lakes grow; Goods-style
    /// systems reindex continuously): sign it, push it. The forests are
    /// re-committed before returning (each tree sorts the table's few
    /// new entries and merges them into what is already sorted), so
    /// queries keep taking `&self`. Returns the id the table would have
    /// in a lake extended by it; the caller keeps the authoritative
    /// lake.
    pub fn add_table(&mut self, table: &Table) -> TableId {
        let id = TableId(self.table_count() as u32);
        self.insert(id, self.sign_table(table));
        id
    }

    /// Algorithm 1 on one table, with this index's hashers: profile
    /// every column, detect the subject attribute, sign.
    pub fn sign_table(&self, table: &Table) -> SignedTable {
        self.sign_table_with(table, &mut Signer::new(&self.embedder))
    }

    /// [`D3l::sign_table`] through the caller's [`Signer`] (a build
    /// worker's, shared by the tables of its run, which it pushes into
    /// this engine one by one). Each built profile ends here: its sets
    /// and its vector are signed (lines 15–18, with the §III-C rule
    /// that numeric attributes skip `IV` and `IE`), the subject
    /// attribute is scored from the cell counts the profiler took, and
    /// what is kept of a profile is its row — name, extent, and whether
    /// each set, and the vector, held anything.
    fn sign_table_with(&self, table: &Table, signer: &mut Signer) -> SignedTable {
        let (mh, rp) = (&self.minhasher, &self.projector);
        let (mh_words, rp_words) = self.strides();
        let Signer {
            embedder,
            sets,
            scratch,
        } = signer;
        let profiles = profile_table_with(scratch, table, self.cfg.q, embedder);
        let textual = profiles.iter().filter(|p| !p.is_numeric).count();
        let run = |covered: usize, stride: usize| vec![0u64; covered * stride];
        let mut words = [
            run(profiles.len(), mh_words),
            run(textual, mh_words),
            run(profiles.len(), mh_words),
            run(textual, rp_words),
        ];
        let subject = d3l_ml::subject_of_textual(
            profiles.len(),
            profiles.iter().enumerate().filter_map(|(i, p)| {
                // A non-numeric column with no non-null cell is empty,
                // not textual.
                let cells = p.cell_stats.filter(|cells| cells.non_null > 0)?;
                Some((i, cells))
            }),
        );
        let [i_n, i_v, i_f, i_e] = &mut words;
        let every = i_n
            .chunks_exact_mut(mh_words)
            .zip(i_f.chunks_exact_mut(mh_words));
        // This table's rows will follow the engine's.
        let first_row = self.attrs.row_count();
        let mut attrs = AttrTable::default();
        for (row, (p, (name, format))) in (first_row..).zip(profiles.iter().zip(every)) {
            let extent = NumericExtent::from_sorted(&p.numeric_extent);
            let attr = AttrView {
                name: &p.name,
                numeric_extent: &extent,
                is_numeric: p.is_numeric,
                has_name: !p.qset.is_empty(),
                has_text: p.has_text(),
                has_format: !p.rset.is_empty(),
                has_embedding: p.has_embedding(),
            };
            attrs.push(attr, [NONE; 4]);
            sets.sign(self, IN, &p.qset, row, name);
            sets.sign(self, IF, &p.rset, row, format);
        }
        let covered = i_v
            .chunks_exact_mut(mh_words)
            .zip(i_e.chunks_exact_mut(rp_words));
        let textual = profiles.iter().filter(|p| !p.is_numeric);
        for (p, (value, embedding)) in textual.zip(covered) {
            mh.sign_into(p.tset.as_slice(), value);
            rp.sign_into(&p.embedding, embedding);
        }
        attrs.end_table(table.name(), subject.map(|c| c as u32), false);
        SignedTable { attrs, words }
    }

    /// Put a signed table into the index as its next slot, `id` (which
    /// the caller has checked), and re-commit on the calling thread:
    /// each tree sorts the table's few new entries. [`D3l::add_table`]
    /// and delta replay end here, so replaying a segment patches the
    /// forests bit-identically.
    pub(crate) fn insert(&mut self, id: TableId, table: SignedTable) {
        self.push(id, table);
        self.i_n.commit();
        self.i_v.commit();
        self.i_f.commit();
        self.i_e.commit();
    }

    /// Append a signed table as the next slot, `id`: copy every
    /// attribute's words into the arenas of the forests that cover it
    /// and record the table, a row per attribute holding the classes
    /// the inserts returned. The forests are left uncommitted.
    pub(crate) fn push(&mut self, id: TableId, table: SignedTable) {
        fn copy(words: &[u64]) -> impl FnOnce(&mut [u64]) + '_ {
            move |slot| slot.copy_from_slice(words)
        }
        let (mh, rp) = (self.minhasher.sig_shape(), self.projector.sig_shape());
        for (column, (attr, sigs)) in (0u32..).zip(table.columns(self)) {
            let key = AttrRef { table: id, column }.key();
            let mut class = [NONE; 4];
            class[0] = self.i_n.insert_with(key, mh, copy(sigs.name));
            class[2] = self.i_f.insert_with(key, mh, copy(sigs.format));
            if let Some(value) = sigs.value {
                class[1] = self.i_v.insert_with(key, mh, copy(value));
            }
            if let Some(embedding) = sigs.embedding {
                class[3] = self.i_e.insert_with(key, rp, copy(embedding));
            }
            self.attrs.push(attr, class);
        }
        self.attrs.end_table(table.name(), table.subject(), false);
    }

    /// Read a live member back out as the record it was pushed as: what
    /// the index keeps of its columns and their words from the arenas —
    /// no raw rows needed, which is what lets a serving process answer
    /// "rank everything against lake member X" without keeping the CSVs
    /// resident. Equal to signing the original table. `None` for
    /// out-of-range ids and removal tombstones.
    pub fn signed_table(&self, id: TableId) -> Option<SignedTable> {
        if !self.is_live(id) {
            return None;
        }
        let mut attrs = AttrTable::default();
        let mut words = TableWords::default();
        let [i_n, i_v, i_f, i_e] = &mut words;
        for row in self.attrs.rows(id.index()) {
            attrs.push(self.attrs.attr(row), [NONE; 4]);
            let sigs = self.signatures_at(row);
            i_n.extend_from_slice(sigs.name);
            i_v.extend_from_slice(sigs.value.unwrap_or_default());
            i_f.extend_from_slice(sigs.format);
            i_e.extend_from_slice(sigs.embedding.unwrap_or_default());
        }
        attrs.end_table(self.table_name(id), self.attrs.subject(id.index()), false);
        Some(SignedTable { attrs, words })
    }

    /// Drop a table from the index (the maintenance counterpart of
    /// [`D3l::add_table`]). Its attributes leave all four forests, each
    /// from the class its row names — dropping entries preserves each
    /// tree's sort, so no re-commit is needed — and its rows leave the
    /// attribute table. The id becomes a tombstone: ids of other tables
    /// never shift, the slot keeps its name for display (with arity 0),
    /// and [`D3l::table_count`] still counts it (use
    /// [`D3l::live_table_count`] for the serving population). Returns
    /// whether the id named a live table.
    pub fn remove_table(&mut self, id: TableId) -> bool {
        /// Take `key` out of class `slot` of forest `index`, and re-point
        /// the rows of a class the removal moved into `slot`.
        fn leave<S: d3l_lsh::signature::Signature>(
            forest: &mut LshForest<S>,
            attrs: &mut AttrTable,
            (index, key, slot): (usize, ItemId, u32),
        ) {
            if slot == NONE || forest.remove(key, slot).is_none() {
                return;
            }
            for &member in forest.class_members(slot) {
                let row = attrs.row(AttrRef::from_key(member));
                attrs.set_class(row.expect("a member has a row"), index, slot);
            }
        }
        let idx = id.index();
        if !self.is_live(id) {
            return false;
        }
        for (column, row) in (0u32..).zip(self.attrs.rows(idx)) {
            let key = AttrRef { table: id, column }.key();
            let [n, v, f, e] = self.attrs.class(row);
            leave(&mut self.i_n, &mut self.attrs, (0, key, n));
            leave(&mut self.i_v, &mut self.attrs, (1, key, v));
            leave(&mut self.i_f, &mut self.attrs, (2, key, f));
            leave(&mut self.i_e, &mut self.attrs, (3, key, e));
        }
        self.attrs.clear_table(idx);
        true
    }

    /// Whether an id names a table still serving (no tombstone, no id
    /// past the slots).
    pub(crate) fn is_live(&self, id: TableId) -> bool {
        id.index() < self.table_count() && !self.attrs.is_removed(id.index())
    }

    /// Whether an id is a removal tombstone.
    pub fn is_removed(&self, id: TableId) -> bool {
        id.index() < self.table_count() && self.attrs.is_removed(id.index())
    }

    /// Number of tables still serving (total slots minus tombstones).
    pub fn live_table_count(&self) -> usize {
        self.live_ids().count()
    }

    /// Words per signature in the MinHash indexes and in `IE`: what a
    /// column's signature is, in each index that covers it.
    pub(crate) fn strides(&self) -> (usize, usize) {
        (self.minhasher.sig_shape().0, self.projector.sig_shape().0)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &D3lConfig {
        &self.cfg
    }

    /// Number of indexed tables.
    pub fn table_count(&self) -> usize {
        self.attrs.tables()
    }

    /// Name of an indexed table.
    pub fn table_name(&self, id: TableId) -> &str {
        self.attrs.table_name(id.index())
    }

    /// Arity of an indexed table.
    pub fn table_arity(&self, id: TableId) -> usize {
        self.attrs.rows(id.index()).len()
    }

    /// What the index keeps of one attribute beside its signatures.
    /// Panics unless the attribute is a column of an indexed table.
    pub fn profile(&self, attr: AttrRef) -> AttrView<'_> {
        self.attrs.attr(self.row(attr))
    }

    /// The row of an attribute the caller knows is indexed.
    fn row(&self, attr: AttrRef) -> usize {
        self.attrs.row(attr).expect("attribute not indexed")
    }

    /// Subject attribute of an indexed table, if any.
    pub fn subject_of(&self, id: TableId) -> Option<AttrRef> {
        self.attrs.subject(id.index()).map(|c| AttrRef {
            table: id,
            column: c,
        })
    }

    /// The word embedder used at indexing (targets must be profiled
    /// with the same one).
    pub fn embedder(&self) -> &HashEmbedder {
        &self.embedder
    }

    /// The stored signatures of an indexed attribute, borrowed from the
    /// arenas by the classes its row names — the zero-copy resolution
    /// the pairwise scoring stage uses, four array reads. Numeric
    /// attributes are in neither `IV` nor `IE` (their classes there are
    /// `NONE`). Panics unless the attribute is a column of an indexed
    /// table.
    pub(crate) fn stored_signatures_ref(&self, attr: AttrRef) -> AttrSigsRef<'_> {
        self.signatures_at(self.row(attr))
    }

    /// [`D3l::stored_signatures_ref`] of row `row`.
    ///
    /// A row's `IN` and `IF` classes are never `NONE`, so the two reads
    /// that take them as slots cannot fail. A row is made two ways.
    /// `push` (a build, an add, a delta replay, a split) gives it the
    /// slots `IN` and `IF` returned, and `absorb` maps them through
    /// `LshForest::append`'s report of where each class went. An open
    /// makes it with no class and fills the classes from the forest
    /// sections, whose items are the rows each index covers — `IN` and
    /// `IF` every row — so every such row gets a class. After that a
    /// slot changes only when a removal moves a class, and the removal
    /// re-points that class's rows; a removed table has no row left to
    /// read (its `PROF` block must be empty).
    fn signatures_at(&self, row: usize) -> AttrSigsRef<'_> {
        let [n, v, f, e] = self.attrs.class(row);
        AttrSigsRef {
            name: self.i_n.class_words(n),
            value: (v != NONE).then(|| self.i_v.class_words(v)),
            format: self.i_f.class_words(f),
            embedding: (e != NONE).then(|| self.i_e.class_words(e)),
        }
    }

    /// Total byte footprint of the four indexes (Table II accounting:
    /// signatures + tree entries + postings).
    pub fn index_byte_size(&self) -> usize {
        self.i_n.byte_size() + self.i_v.byte_size() + self.i_f.byte_size() + self.i_e.byte_size()
    }

    /// Full memory accounting, every array the engine holds: per-index
    /// forest footprints split into tree arrays, the signature arena and
    /// the postings, then the attribute table, the table list and the
    /// hashers.
    pub fn byte_size(&self) -> MemoryFootprint {
        fn index_of<S>(forest: &LshForest<S>) -> IndexFootprint {
            IndexFootprint {
                tree_bytes: forest.tree_byte_size(),
                signature_bytes: forest.signature_byte_size(),
                posting_bytes: forest.posting_byte_size(),
            }
        }
        MemoryFootprint {
            i_n: index_of(&self.i_n),
            i_v: index_of(&self.i_v),
            i_f: index_of(&self.i_f),
            i_e: index_of(&self.i_e),
            profile_bytes: self.attrs.row_byte_size(),
            table_bytes: self.attrs.table_byte_size(),
            hasher_bytes: self.minhasher.byte_size() + self.projector.byte_size(),
        }
    }

    /// How far each index pools its attributes, `(IN, IV, IF, IE)` as
    /// [`MemoryFootprint::indexes`] orders them.
    pub fn class_stats(&self) -> [ClassStats; 4] {
        fn stats_of<S>(forest: &LshForest<S>) -> ClassStats {
            ClassStats {
                attributes: forest.len(),
                classes: forest.class_count(),
                largest_class: forest.largest_class(),
            }
        }
        [
            stats_of(&self.i_n),
            stats_of(&self.i_v),
            stats_of(&self.i_f),
            stats_of(&self.i_e),
        ]
    }

    /// The class column against the forests, both ways: a removed table
    /// has no row, every row's class in an index that covers it
    /// (`IN`/`IF` every row, `IV`/`IE` the non-numeric ones) names a
    /// class whose postings hold the row's key, a row an index does not
    /// cover has no class there, and every posting member's row names
    /// the member's class. What every
    /// mutation, open and replay must leave; the tests check it after
    /// each (an integration test cannot reach a `cfg(test)` item, hence
    /// a hidden public one). `Err` says the first break.
    #[doc(hidden)]
    pub fn check_class_column(&self) -> Result<(), String> {
        fn check<S>(
            d3l: &D3l,
            (index, name): (usize, &str),
            forest: &LshForest<S>,
            covers: impl Fn(AttrView<'_>) -> bool,
        ) -> Result<(), String> {
            for slot in 0..forest.class_count() as u32 {
                for &key in forest.class_members(slot) {
                    let attr = AttrRef::from_key(key);
                    let Some(row) = d3l.attrs.row(attr) else {
                        return Err(format!(
                            "{name} class {slot} holds {attr:?}, which has no row"
                        ));
                    };
                    let held = d3l.attrs.class(row)[index];
                    if held != slot {
                        return Err(format!(
                            "{name} class {slot} holds {attr:?}, whose row says {held}"
                        ));
                    }
                }
            }
            for t in 0..d3l.table_count() {
                let rows = d3l.attrs.rows(t);
                if d3l.attrs.is_removed(t) && !rows.is_empty() {
                    return Err(format!("removed table {t} keeps {} rows", rows.len()));
                }
                for (column, row) in (0u32..).zip(rows) {
                    let attr = AttrRef {
                        table: TableId(t as u32),
                        column,
                    };
                    let slot = d3l.attrs.class(row)[index];
                    let wanted = covers(d3l.attrs.attr(row));
                    let holds = (slot as usize) < forest.class_count()
                        && forest
                            .class_members(slot)
                            .binary_search(&attr.key())
                            .is_ok();
                    if wanted != holds || !wanted && slot != NONE {
                        return Err(format!(
                            "{attr:?} is in {name} class {slot}: covered {wanted}, held {holds}"
                        ));
                    }
                }
            }
            Ok(())
        }
        let textual = |a: AttrView<'_>| !a.is_numeric;
        check(self, (0, "IN"), &self.i_n, |_| true)?;
        check(self, (1, "IV"), &self.i_v, textual)?;
        check(self, (2, "IF"), &self.i_f, |_| true)?;
        check(self, (3, "IE"), &self.i_e, textual)
    }

    /// The id of the live table named `name`: what
    /// [`D3l::name_to_id`] maps it to, without building the map.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.live_ids()
            .rev()
            .find(|&id| self.table_name(id) == name)
    }

    /// Map from table name to id for result post-processing. Removed
    /// tables are excluded — their tombstoned ids must not resolve.
    pub fn name_to_id(&self) -> HashMap<&str, TableId> {
        self.live_ids()
            .map(|id| (self.table_name(id), id))
            .collect()
    }

    /// The ids of the live tables, ascending.
    fn live_ids(&self) -> impl DoubleEndedIterator<Item = TableId> + '_ {
        let ids = (0..self.table_count()).map(|t| TableId(t as u32));
        ids.filter(|&id| self.is_live(id))
    }
}

/// How one index pools the attributes it holds: a class is a distinct
/// signature, indexed once whatever the number of attributes that
/// carry it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Attributes indexed.
    pub attributes: usize,
    /// Distinct signatures among them.
    pub classes: usize,
    /// Attributes in the most populous class.
    pub largest_class: usize,
}

/// Byte footprint of one LSH forest, split by component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexFootprint {
    /// The trees: per tree, one 8-byte entry per class — the first four
    /// bytes of its label and its arena slot — so `8 × trees × classes`.
    pub tree_bytes: usize,
    /// Stored full signatures, one per class (similarity refinement at
    /// query time).
    pub signature_bytes: usize,
    /// What ties attributes to classes: posting lists and the content →
    /// class table at the bucket capacity its entries need
    /// (`LshForest::posting_byte_size`). Which class an attribute is in
    /// is its row's, counted in [`MemoryFootprint::profile_bytes`].
    pub posting_bytes: usize,
}

impl IndexFootprint {
    /// Trees, signatures and postings.
    pub fn total(&self) -> usize {
        self.tree_bytes + self.signature_bytes + self.posting_bytes
    }
}

/// Memory accounting of a [`D3l`] instance ([`D3l::byte_size`]): every
/// array it holds, each counted as the bytes its content needs —
/// lengths, not capacities — so a figure is equal across build, reopen
/// and replay and a floor under what the allocator holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// `IN` — attribute-name q-gram index.
    pub i_n: IndexFootprint,
    /// `IV` — value-token index.
    pub i_v: IndexFootprint,
    /// `IF` — format-pattern index.
    pub i_f: IndexFootprint,
    /// `IE` — embedding index.
    pub i_e: IndexFootprint,
    /// The attribute table's rows, one per attribute: its name and
    /// numeric extent bytes and where each ends, its flags byte, its
    /// class slot in each of the four indexes, and where each table's
    /// rows start.
    pub profile_bytes: usize,
    /// The attribute table's table columns: per table its name's bytes
    /// and where they end, its subject column (4 bytes) and its removed
    /// flag.
    pub table_bytes: usize,
    /// The hashers: MinHash parameters and the projector's hyperplanes.
    pub hasher_bytes: usize,
}

impl MemoryFootprint {
    /// Everything: the four indexes, the attribute table, the table
    /// list and the hashers.
    pub fn total(&self) -> usize {
        self.i_n.total()
            + self.i_v.total()
            + self.i_f.total()
            + self.i_e.total()
            + self.profile_bytes
            + self.table_bytes
            + self.hasher_bytes
    }

    /// The four `(name, footprint)` index entries, for display.
    pub fn indexes(&self) -> [(&'static str, IndexFootprint); 4] {
        [
            ("IN", self.i_n),
            ("IV", self.i_v),
            ("IF", self.i_f),
            ("IE", self.i_e),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d3l_table::Table;

    fn figure1_lake() -> DataLake {
        let mut lake = DataLake::new();
        lake.add(
            Table::from_rows(
                "S1_gp_practices",
                &["Practice Name", "Address", "City", "Postcode", "Patients"],
                &[
                    vec![
                        "Dr E Cullen".into(),
                        "51 Botanic Av".into(),
                        "Belfast".into(),
                        "BT7 1JL".into(),
                        "1202".into(),
                    ],
                    vec![
                        "Blackfriars".into(),
                        "1a Chapel St".into(),
                        "Salford".into(),
                        "M3 6AF".into(),
                        "3572".into(),
                    ],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        lake.add(
            Table::from_rows(
                "S2_gp_funding",
                &["Practice", "City", "Postcode", "Payment"],
                &[
                    vec![
                        "The London Clinic".into(),
                        "London".into(),
                        "W1G 6BW".into(),
                        "73648".into(),
                    ],
                    vec![
                        "Blackfriars".into(),
                        "Salford".into(),
                        "M3 6AF".into(),
                        "15530".into(),
                    ],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        lake.add(
            Table::from_rows(
                "S3_local_gps",
                &["GP", "Location", "Opening hours"],
                &[
                    vec!["Blackfriars".into(), "Salford".into(), "08:00-18:00".into()],
                    vec!["Radclife Care".into(), "-".into(), "07:00-20:00".into()],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        lake
    }

    #[test]
    fn attr_ref_key_round_trip() {
        let a = AttrRef {
            table: TableId(12345),
            column: 67,
        };
        assert_eq!(AttrRef::from_key(a.key()), a);
    }

    #[test]
    fn attr_ref_key_round_trips_at_packing_limits() {
        for table in [0, 1, u32::MAX] {
            for column in [0, 1, AttrRef::MAX_COLUMN] {
                let a = AttrRef {
                    table: TableId(table),
                    column,
                };
                assert_eq!(
                    AttrRef::from_key(a.key()),
                    a,
                    "corrupted at table={table} column={column}"
                );
            }
        }
        // Distinct refs at the bit boundary stay distinct.
        let hi_col = AttrRef {
            table: TableId(0),
            column: AttrRef::MAX_COLUMN,
        };
        let lo_tab = AttrRef {
            table: TableId(1),
            column: 0,
        };
        assert_ne!(hi_col.key(), lo_tab.key());
    }

    #[test]
    #[should_panic(expected = "24-bit packing limit")]
    #[cfg(debug_assertions)]
    fn attr_ref_key_rejects_oversized_column() {
        let _ = AttrRef {
            table: TableId(0),
            column: AttrRef::MAX_COLUMN + 1,
        }
        .key();
    }

    #[test]
    fn indexes_cover_the_lake() {
        let lake = figure1_lake();
        let d3l = D3l::index_lake(&lake, D3lConfig::fast());
        assert_eq!(d3l.table_count(), 3);
        assert_eq!(d3l.table_name(TableId(0)), "S1_gp_practices");
        assert_eq!(d3l.table_arity(TableId(0)), 5);
        // All 12 attributes are in IN/IF; numeric ones skip IV/IE.
        assert_eq!(d3l.i_n.len(), 12);
        assert_eq!(d3l.i_f.len(), 12);
        assert_eq!(d3l.i_v.len(), 10, "Patients and Payment are numeric");
        assert_eq!(d3l.i_e.len(), 10);
        assert!(d3l.index_byte_size() > 0);
        let indexes = d3l.byte_size().indexes();
        let per_index: usize = indexes.iter().map(|(_, idx)| idx.total()).sum();
        assert_eq!(per_index, d3l.index_byte_size());
    }

    #[test]
    fn memory_footprint_is_consistent() {
        let lake = figure1_lake();
        let d3l = D3l::index_lake(&lake, D3lConfig::fast());
        let fp = d3l.byte_size();
        assert_eq!(fp.i_n.total(), d3l.i_n.byte_size());
        assert_eq!(fp.i_v.total(), d3l.i_v.byte_size());
        assert_eq!(fp.i_f.total(), d3l.i_f.byte_size());
        assert_eq!(fp.i_e.total(), d3l.i_e.byte_size());
        let rest = fp.profile_bytes + fp.table_bytes + fp.hasher_bytes;
        assert_eq!(fp.total(), d3l.index_byte_size() + rest);
        // The attribute table holds the names and the encoded extents —
        // `Patients` (1202, 3572) is a count, a scale, zig-zag 2404 and
        // delta 2370, six bytes, where 8 bytes a value were sixteen, and
        // `Payment` (15530, 73648) eight — and per attribute where its
        // name and extent end, a flags byte and four class slots, and
        // where each of the three tables' rows start, and one end.
        let names: usize = lake
            .iter()
            .flat_map(|(_, t)| t.columns())
            .map(|c| c.name().len())
            .sum();
        assert_eq!(
            fp.profile_bytes,
            names + 6 + 8 + 12 * (4 + 4 + 1 + 16) + 4 * 4
        );
        // The table list: per table its name's bytes and where they end,
        // a subject column and a removed flag.
        let table_names: usize = lake.iter().map(|(_, t)| t.name().len()).sum();
        assert_eq!(fp.table_bytes, table_names + 3 * (4 + 4 + 1));
        // The hashers: two parameters of each of 64 positions, and 64
        // planes of 32 components.
        assert_eq!(fp.hasher_bytes, 2 * 64 * 8 + 64 * 32 * 8);
        // A tree entry is a 4-byte key and a 4-byte class slot, one
        // per class in each of the `trees` trees.
        let trees = D3lConfig::fast().trees;
        for ((name, idx), stats) in fp.indexes().into_iter().zip(d3l.class_stats()) {
            assert_eq!(idx.tree_bytes, 8 * trees * stats.classes, "{name}");
        }
        for (name, idx) in fp.indexes() {
            assert!(!name.is_empty());
            assert!(idx.signature_bytes > 0, "{name} stores signatures");
            assert!(idx.posting_bytes > 0, "{name} holds postings");
            assert_eq!(
                idx.total(),
                idx.tree_bytes + idx.signature_bytes + idx.posting_bytes
            );
        }
        // One posting entry per attribute and a list per class, at the
        // least.
        let lists = d3l.i_n.len() * 8 + d3l.i_n.class_count() * 24;
        assert!(fp.i_n.posting_bytes > lists);
    }

    /// Attributes that share a name, a format or their values share a
    /// class: one signature and one entry per tree between them.
    #[test]
    fn repeated_names_and_formats_pool_into_classes() {
        let d3l = D3l::index_lake(&figure1_lake(), D3lConfig::fast());
        let [i_n, i_v, i_f, i_e] = d3l.class_stats();
        assert_eq!((i_n.attributes, i_f.attributes), (12, 12));
        assert_eq!((i_v.attributes, i_e.attributes), (10, 10));
        // "City" and "Postcode" head two tables each.
        assert_eq!((i_n.classes, i_n.largest_class), (10, 2));
        assert!(i_f.classes < 12 && i_f.largest_class >= 2, "{i_f:?}");
        for stats in [i_n, i_v, i_f, i_e] {
            assert!(stats.classes <= stats.attributes);
            assert!(stats.largest_class >= 1);
        }
        // A built index and one grown a table at a time pool alike.
        let mut grown = D3l::index_lake(&DataLake::new(), D3lConfig::fast());
        for (_, table) in figure1_lake().iter() {
            grown.add_table(table);
        }
        assert_eq!(grown.class_stats(), d3l.class_stats());
        assert!(grown.i_n == d3l.i_n && grown.i_v == d3l.i_v);
        assert!(grown.i_f == d3l.i_f && grown.i_e == d3l.i_e);
    }

    /// The subject a signed table carries — scored from the cell
    /// counts its profiler took — is the one
    /// `d3l_ml::subject_attribute` finds by walking the table, on the
    /// tables where the counts are easiest to get wrong.
    #[test]
    fn signed_subject_is_the_detectors_on_edge_tables() {
        use d3l_table::Column;
        let d3l = D3l::index_lake(&figure1_lake(), D3lConfig::fast());
        let cells = |v: &[&str]| -> Vec<String> { v.iter().map(|c| c.to_string()).collect() };
        let column = |name: &str, v: &[&str]| Column::new(name, cells(v));
        let long = |tags: &[&str]| -> Vec<String> {
            let long = |tag: &&str| format!("{tag} — a cell of twenty characters or more");
            tags.iter().map(long).collect()
        };
        let tables = [
            // An all-null text column (left of a textual one), and one
            // holding nothing but nulls.
            vec![
                column("Empty", &["", " ", ""]),
                column("Name", &["x", "y", "z"]),
            ],
            vec![column("Empty", &["", "\t"])],
            // Whitespace-only cells, and whitespace variants of one
            // value: three distinct cells with equal tokens.
            vec![
                column("Pad", &["\t", "  ", "x", " x"]),
                column("City", &[" Salford", "Salford", "Salford ", "Salford"]),
            ],
            // One row.
            vec![
                column("Practice", &["Blackfriars"]),
                column("City", &["Salford"]),
                column("Patients", &["3572"]),
            ],
            // Every cell equal.
            vec![
                column("Same", &["x"; 6]),
                column("Other", &["long value"; 6]),
            ],
            // Equal scores: column 0 is further left by 1/2 (2.5 × 0.5
            // = 1.25 of logit), column 1 more distinct by 5/8 (2.0 ×
            // 0.625 = 1.25); both full and of capped length. The
            // leftmost wins.
            vec![
                Column::new("Left", long(&["a", "a", "a", "b", "b", "c", "c", "c"])),
                Column::new("Right", long(&["a", "b", "c", "d", "e", "f", "g", "h"])),
            ],
        ];
        for (n, columns) in tables.into_iter().enumerate() {
            let table = Table::new(format!("edge_{n}"), columns).unwrap();
            let want = d3l_ml::subject_attribute(&table).map(|c| c as u32);
            assert_eq!(d3l.sign_table(&table).subject(), want, "{table:?}");
            if n == 5 {
                let features = |c: usize| {
                    let cells = table.columns()[c].cell_stats();
                    d3l_ml::subject_features(c, 2, true, &cells)
                };
                assert_eq!(features(0), [1.0, 1.0, 0.375, 1.0, 1.0]);
                assert_eq!(features(1), [0.5, 1.0, 1.0, 1.0, 1.0]);
                assert_eq!(want, Some(0), "the tie goes to the leftmost");
            }
        }
    }

    /// Names that differ only in case or punctuation share a q-gram
    /// set, and cells drawn from a few shapes share a format set, so a
    /// build worker signs most `IN` and `IF` sets once and copies the
    /// rest: every signature it copied equals a fresh signing of the
    /// attribute's own set, at every thread count.
    #[test]
    fn copied_name_and_format_signatures_are_fresh_ones() {
        use crate::profile::AttributeProfile;
        let names = [
            "Practice Name",
            "practice_name",
            "PRACTICE-NAME",
            "Practice.Name",
            "City",
            "city",
        ];
        let shapes = [
            "M1 3BE",
            "W1G 6BW",
            "Salford",
            "3572",
            "Dr E Cullen",
            "08:00-18:00",
        ];
        let mut lake = DataLake::new();
        for t in 0..48 {
            let column = |c: usize| -> Vec<String> {
                let shape = |r: usize| shapes[(t * 7 + c * 3 + r) % shapes.len()].to_string();
                (0..1 + t % 4).map(shape).collect()
            };
            let columns = (0..1 + t % 3)
                .map(|c| d3l_table::Column::new(names[(t + c) % names.len()], column(c)))
                .collect();
            lake.add(Table::new(format!("t{t:02}"), columns).unwrap())
                .unwrap();
        }
        for threads in [1, 2, 8] {
            let cfg = D3lConfig {
                threads,
                ..D3lConfig::fast()
            };
            let d3l = D3l::index_lake(&lake, cfg);
            let mut fresh = vec![0u64; d3l.strides().0];
            let (mut attributes, mut name_sets, mut format_sets) =
                (0, HashSet::new(), HashSet::new());
            for (id, table) in lake.iter() {
                for (row, col) in d3l.attrs.rows(id.index()).zip(table.columns()) {
                    let p = AttributeProfile::build(col, d3l.cfg.q, &d3l.embedder);
                    let sigs = d3l.signatures_at(row);
                    d3l.minhasher.sign_into(p.qset.as_slice(), &mut fresh);
                    assert_eq!(
                        sigs.name,
                        &fresh[..],
                        "{threads} threads: {} IN",
                        col.name()
                    );
                    d3l.minhasher.sign_into(p.rset.as_slice(), &mut fresh);
                    assert_eq!(
                        sigs.format,
                        &fresh[..],
                        "{threads} threads: {} IF",
                        col.name()
                    );
                    attributes += 1;
                    name_sets.insert(p.qset);
                    format_sets.insert(p.rset);
                }
            }
            // The memo had repeats to find.
            assert!(
                name_sets.len() * 10 < attributes,
                "{} of {attributes}",
                name_sets.len()
            );
            assert!(
                format_sets.len() * 2 < attributes,
                "{} of {attributes}",
                format_sets.len()
            );
        }
    }

    #[test]
    fn subject_attributes_detected() {
        let lake = figure1_lake();
        let d3l = D3l::index_lake(&lake, D3lConfig::fast());
        // S1's subject is Practice Name (column 0).
        assert_eq!(
            d3l.subject_of(TableId(0)),
            Some(AttrRef {
                table: TableId(0),
                column: 0
            })
        );
        // S2's subject is Practice (column 0).
        assert_eq!(d3l.subject_of(TableId(1)).unwrap().column, 0);
        // S3's subject is GP (column 0).
        assert_eq!(d3l.subject_of(TableId(2)).unwrap().column, 0);
    }

    /// The record read back from the index is the record signed fresh
    /// from the same table, for every table of the lake.
    #[test]
    fn stored_signatures_round_trip() {
        let lake = figure1_lake();
        let d3l = D3l::index_lake(&lake, D3lConfig::fast());
        for (id, table) in lake.iter() {
            let stored = d3l.signed_table(id).expect("a live table");
            assert_eq!(stored, d3l.sign_table(table), "{}", table.name());
            assert_eq!(stored.arity(), table.arity());
        }
        assert!(d3l.signed_table(TableId(3)).is_none(), "past the slots");
    }

    /// A numeric attribute has no `IV` or `IE` words in its table's
    /// record and is in neither forest (§III-C).
    #[test]
    fn numeric_attr_has_no_value_or_embedding_words() {
        let lake = figure1_lake();
        let d3l = D3l::index_lake(&lake, D3lConfig::fast());
        let patients = AttrRef {
            table: TableId(0),
            column: 4,
        };
        assert!(d3l.profile(patients).is_numeric);
        let stored = d3l.stored_signatures_ref(patients);
        assert!(stored.value.is_none() && stored.embedding.is_none());
        assert!(!d3l.i_v.ids().any(|id| id == patients.key()));
        assert!(!d3l.i_e.ids().any(|id| id == patients.key()));
        let [_, v, _, e] = d3l.attrs.class(d3l.attrs.row(patients).unwrap());
        assert_eq!((v, e), (NONE, NONE));
        let record = d3l.signed_table(patients.table).unwrap();
        let (mh, rp) = (d3l.minhasher.sig_shape().0, d3l.projector.sig_shape().0);
        // Five columns, four of them textual.
        let whole = [5 * mh, 4 * mh, 5 * mh, 4 * rp];
        assert_eq!(record.words.each_ref().map(Vec::len), whole);
        let (attr, sigs) = record.columns(&d3l).nth(4).unwrap();
        assert!(attr.is_numeric && !attr.has_text && !attr.has_embedding);
        assert!(sigs.value.is_none() && sigs.embedding.is_none());
        assert_eq!(sigs.name, stored.name);
        assert_eq!(sigs.format, stored.format);
    }

    #[test]
    fn empty_lake_indexes_cleanly() {
        let lake = DataLake::new();
        let d3l = D3l::index_lake(&lake, D3lConfig::fast());
        assert_eq!(d3l.table_count(), 0);
        assert_eq!(d3l.i_n.len(), 0);
    }

    #[test]
    fn incremental_add_matches_batch_indexing() {
        let lake = figure1_lake();
        // Batch: all three tables at once.
        let batch = D3l::index_lake(&lake, D3lConfig::fast());
        // Incremental: two tables, then add the third.
        let mut two = DataLake::new();
        two.add(lake.table(TableId(0)).clone()).unwrap();
        two.add(lake.table(TableId(1)).clone()).unwrap();
        let mut incremental = D3l::index_lake(&two, D3lConfig::fast());
        let id = incremental.add_table(lake.table(TableId(2)));
        assert_eq!(id, TableId(2));
        assert_eq!(incremental.table_count(), 3);
        assert_eq!(incremental.i_n.len(), batch.i_n.len());
        // Signatures are identical (same hashers).
        let attr = AttrRef {
            table: TableId(2),
            column: 0,
        };
        assert_eq!(
            incremental.stored_signatures_ref(attr).name,
            batch.stored_signatures_ref(attr).name
        );
        assert_eq!(
            incremental.subject_of(TableId(2)),
            batch.subject_of(TableId(2))
        );
    }

    #[test]
    fn added_table_is_discoverable() {
        let lake = figure1_lake();
        let mut partial = DataLake::new();
        partial.add(lake.table(TableId(2)).clone()).unwrap(); // only S3
        let mut d3l = D3l::index_lake(&partial, D3lConfig::fast());
        d3l.add_table(lake.table(TableId(0))); // add S1 incrementally
        let target = lake.table(TableId(1)); // S2 as target
        let matches = d3l.query(target, 2);
        assert!(
            matches.iter().any(|m| m.table == TableId(1)),
            "incrementally added S1 must be found for the S2 target"
        );
    }

    #[test]
    fn parallel_and_serial_agree() {
        let lake = figure1_lake();
        let serial = D3l::index_lake(
            &lake,
            D3lConfig {
                threads: 1,
                ..D3lConfig::fast()
            },
        );
        let parallel = D3l::index_lake(
            &lake,
            D3lConfig {
                threads: 4,
                ..D3lConfig::fast()
            },
        );
        assert_eq!(serial.i_n.len(), parallel.i_n.len());
        let attr = AttrRef {
            table: TableId(1),
            column: 2,
        };
        assert_eq!(
            serial.stored_signatures_ref(attr).name,
            parallel.stored_signatures_ref(attr).name
        );
    }
}
