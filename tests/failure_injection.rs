//! Failure injection: malformed inputs, degenerate lakes, and edge
//! shapes must degrade gracefully, never panic.

use d3l::core::watch::{Ingestor, WatchConfig, WatchStats};
use d3l::core::IndexStore;
use d3l::prelude::*;
use d3l::store::{
    ContainerReader, ContainerWriter, Decoder, Encoder, SectionTag, StoreError, KIND_DELTA,
    KIND_SNAPSHOT,
};
use d3l::table::{csv, TableError};

#[test]
fn malformed_csv_is_rejected_not_panicked() {
    for bad in ["a,b\n\"unterminated", "\"x\"junk,\n"] {
        assert!(
            matches!(csv::parse_csv("t", bad), Err(TableError::Csv { .. })),
            "{bad:?}"
        );
    }
    // Ragged rows surface as RaggedRows.
    assert!(matches!(
        csv::parse_csv("t", "a,b\n1\n"),
        Err(TableError::RaggedRows { .. })
    ));
}

#[test]
fn loading_missing_directory_errors() {
    assert!(matches!(
        DataLake::load_dir("/definitely/not/a/real/path"),
        Err(TableError::Io(_))
    ));
}

/// A lake directory with a file that cannot be parsed or read fails
/// the streamed build with exactly the error loading the directory
/// fails with — the one of the first bad file in id order, whatever
/// the worker count — and a directory that stops existing is an I/O
/// error, not a panic.
#[test]
fn streamed_build_reports_the_error_load_dir_reports() {
    let root = std::env::temp_dir().join(format!("d3l_stream_fail_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    type Bad = (&'static str, &'static [u8]);
    let cases: [(&str, &[Bad]); 4] = [
        ("malformed", &[("m.csv", b"a,b\n\"unterminated")]),
        ("ragged", &[("m.csv", b"a,b\n1\n")]),
        ("unreadable", &[("m.csv", b"a,b\n\xff\xfe,1\n")]),
        (
            "first of two",
            &[("c.csv", b"a,b\n1\n"), ("x.csv", b"a\n\"open")],
        ),
    ];
    for (what, bad) in cases {
        let dir = root.join(what.replace(' ', "_"));
        std::fs::create_dir_all(&dir).unwrap();
        for i in 0..12 {
            let name = format!("{}.csv", (b'a' + 2 * i) as char);
            std::fs::write(dir.join(name), format!("Practice,City\np{i},Salford\n")).unwrap();
        }
        assert!(D3l::index_dir(&dir, D3lConfig::fast()).is_ok());
        for (name, bytes) in bad {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
        let want = DataLake::load_dir(&dir).unwrap_err();
        for index_threads in [1usize, 2, 8] {
            let cfg = D3lConfig {
                index_threads,
                ..D3lConfig::fast()
            };
            let got = D3l::index_dir(&dir, cfg.clone()).unwrap_err();
            assert_eq!(
                std::mem::discriminant(&got),
                std::mem::discriminant(&want),
                "{what} @{index_threads}: {got} vs {want}"
            );
            assert_eq!(got.to_string(), want.to_string(), "{what} @{index_threads}");
            assert!(ShardedD3l::index_dir(&dir, cfg).is_err());
        }
    }
    // Two file names that are one table name once made printable.
    #[cfg(unix)]
    {
        use std::os::unix::ffi::OsStrExt;
        let dir = root.join("twice");
        std::fs::create_dir_all(&dir).unwrap();
        for raw in [&b"\xff.csv"[..], &b"\xfe.csv"[..]] {
            std::fs::write(dir.join(std::ffi::OsStr::from_bytes(raw)), "a\n1\n").unwrap();
        }
        let want = DataLake::load_dir(&dir).unwrap_err();
        let got = D3l::index_dir(&dir, D3lConfig::fast()).unwrap_err();
        assert!(matches!(got, TableError::DuplicateTable(_)), "{got}");
        assert_eq!(got.to_string(), want.to_string());
    }
    std::fs::remove_dir_all(&root).ok();
    assert!(matches!(
        D3l::index_dir(&root, D3lConfig::fast()),
        Err(TableError::Io(_))
    ));
}

#[test]
fn empty_lake_answers_empty() {
    let d3l = ShardedD3l::index_lake(&DataLake::new(), D3lConfig::fast());
    let target = Table::from_rows("t", &["a"], &[vec!["x".into()]]).unwrap();
    assert!(d3l.query(&target, 10).is_empty());
    let graph = d3l.build_join_graph();
    assert_eq!(graph.node_count(), 0);
}

#[test]
fn empty_target_answers_empty() {
    let mut lake = DataLake::new();
    lake.add(Table::from_rows("s", &["a"], &[vec!["x".into()]]).unwrap())
        .unwrap();
    let d3l = ShardedD3l::index_lake(&lake, D3lConfig::fast());
    let empty_target = Table::from_rows("t", &[], &[]).unwrap();
    assert!(d3l.query(&empty_target, 5).is_empty());
}

#[test]
fn all_null_columns_survive_the_pipeline() {
    let mut lake = DataLake::new();
    lake.add(
        Table::from_rows(
            "ghosts",
            &["empty1", "empty2"],
            &[vec!["".into(), " ".into()], vec!["".into(), "".into()]],
        )
        .unwrap(),
    )
    .unwrap();
    lake.add(Table::from_rows("real", &["City"], &[vec!["Salford".into()]]).unwrap())
        .unwrap();
    let d3l = ShardedD3l::index_lake(&lake, D3lConfig::fast());
    let target = Table::from_rows("t", &["City"], &[vec!["Salford".into()]]).unwrap();
    let matches = d3l.query(&target, 2);
    // The ghost table carries no evidence; the real one must rank
    // first if both are returned at all.
    assert!(!matches.is_empty());
    assert_eq!(d3l.table_name(matches[0].table), "real");
}

#[test]
fn single_row_and_single_column_tables() {
    let mut lake = DataLake::new();
    lake.add(Table::from_rows("one_cell", &["x"], &[vec!["42".into()]]).unwrap())
        .unwrap();
    lake.add(
        Table::from_rows(
            "wide",
            &["a", "b", "c", "d", "e", "f", "g", "h"],
            &[(0..8).map(|i| format!("v{i}")).collect()],
        )
        .unwrap(),
    )
    .unwrap();
    let d3l = ShardedD3l::index_lake(&lake, D3lConfig::fast());
    assert_eq!(d3l.table_count(), 2);
    let target = Table::from_rows("t", &["x"], &[vec!["42".into()]]).unwrap();
    // Must not panic; numeric one-value extents are fine for KS.
    let _ = d3l.query(&target, 2);
}

#[test]
fn unicode_content_is_handled() {
    let mut lake = DataLake::new();
    lake.add(
        Table::from_rows(
            "café",
            &["Nom", "Ville"],
            &[vec!["Crêperie Bretonne".into(), "Montréal".into()]],
        )
        .unwrap(),
    )
    .unwrap();
    let d3l = ShardedD3l::index_lake(&lake, D3lConfig::fast());
    let target = Table::from_rows(
        "t",
        &["Nom", "Ville"],
        &[vec!["Crêperie Bretonne".into(), "Montréal".into()]],
    )
    .unwrap();
    let matches = d3l.query(&target, 1);
    assert_eq!(matches.len(), 1);
    assert!(matches[0].distance < 0.5);
}

#[test]
fn query_k_larger_than_lake_is_bounded() {
    let mut lake = DataLake::new();
    for i in 0..3 {
        lake.add(
            Table::from_rows(
                format!("t{i}"),
                &["City"],
                &[vec!["Salford".into()], vec!["Bolton".into()]],
            )
            .unwrap(),
        )
        .unwrap();
    }
    let d3l = ShardedD3l::index_lake(&lake, D3lConfig::fast());
    let target = Table::from_rows("q", &["City"], &[vec!["Salford".into()]]).unwrap();
    let matches = d3l.query(&target, 1000);
    assert!(matches.len() <= 3);
}

#[test]
fn duplicate_column_names_do_not_crash() {
    let t = Table::from_rows("dups", &["x", "x"], &[vec!["a".into(), "b".into()]]).unwrap();
    let mut lake = DataLake::new();
    lake.add(t).unwrap();
    let d3l = ShardedD3l::index_lake(&lake, D3lConfig::fast());
    assert_eq!(d3l.table_arity(TableId(0)), 2);
}

// ---- persistent store failure modes --------------------------------

fn snapshot_lake() -> DataLake {
    let mut lake = DataLake::new();
    lake.add(
        Table::from_rows(
            "gp",
            &["Practice", "City", "Payment"],
            &[
                vec!["Blackfriars".into(), "Salford".into(), "15530".into()],
                vec!["Radclife".into(), "Manchester".into(), "24190".into()],
            ],
        )
        .unwrap(),
    )
    .unwrap();
    lake
}

fn snapshot_engine() -> D3l {
    D3l::index_lake(&snapshot_lake(), D3lConfig::fast())
}

/// Section `tag` of a snapshot.
fn section_of(bytes: &[u8], tag: SectionTag) -> Vec<u8> {
    let mut reader = ContainerReader::parse(bytes, KIND_SNAPSHOT).unwrap();
    reader.section(tag).unwrap()
}

/// A store file of kind `kind` with section `tag` rewritten by `edit`,
/// re-sealed: a whole container whose checksums hold, so what an open
/// makes of it is the decoder's doing, not the container's.
fn with_section(
    bytes: &[u8],
    (kind, tag): (u32, SectionTag),
    edit: impl FnOnce(Vec<u8>) -> Vec<u8>,
) -> Vec<u8> {
    let mut reader = ContainerReader::parse(bytes, kind).unwrap();
    let mut edit = Some(edit);
    let mut w = ContainerWriter::new(Vec::new(), kind).unwrap();
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

/// MinHash forests of 70 positions spliced into the snapshot of the
/// same lake indexed at 64 — at 8 trees both are 8 positions deep, so
/// only the signature stride tells them apart — are refused at open.
/// (They opened, and the first `rank_all` panicked a query worker on
/// "signature length mismatch".)
#[test]
fn forests_of_another_signature_length_are_refused_at_open() {
    let lake = snapshot_lake();
    let at = |num_perm| {
        let cfg = D3lConfig {
            num_perm,
            trees: 8,
            ..D3lConfig::fast()
        };
        D3l::index_lake(&lake, cfg).to_snapshot_bytes()
    };
    let (mut bad, donor) = (at(64), at(70));
    for tag in [*b"F_IN", *b"F_IV", *b"F_IF"] {
        bad = with_section(&bad, (KIND_SNAPSHOT, tag), |_| section_of(&donor, tag));
    }
    match D3l::from_snapshot_bytes(&bad) {
        Err(StoreError::Corrupt(_)) => {}
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(d3l) => {
            let engine = ShardedD3l::from_monolith(d3l);
            let target = lake.table(TableId(0));
            let opts = d3l::core::QueryOptions::default();
            let ranked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.rank_all(target, 10, &opts)
            }));
            let what = if ranked.is_ok() {
                "answered"
            } else {
                "panicked"
            };
            panic!("the spliced store opened, and rank_all {what}");
        }
    }
}

/// A `CONF` whose embedding dimension is 2⁴⁰ is refused at open. (Its
/// open aborted the process: the projector built from it would have
/// been 2⁴⁹ bytes.)
#[test]
fn a_config_shape_past_the_bound_is_refused_at_open() {
    let bytes = snapshot_engine().to_snapshot_bytes();
    let bad = with_section(&bytes, (KIND_SNAPSHOT, *b"CONF"), |conf| {
        // num_perm, embed_bits, embed_dim: three one-byte varints.
        assert_eq!(conf[..3], [64, 64, 32]);
        let mut dim = Encoder::new();
        dim.put_varint(1 << 40);
        [&conf[..2], dim.as_bytes(), &conf[3..]].concat()
    });
    let err = D3l::from_snapshot_bytes(&bad).unwrap_err();
    assert!(
        matches!(&err, StoreError::Corrupt(m) if m.contains("embed_dim 1099511627776")),
        "{err}"
    );
}

#[test]
fn corrupt_snapshot_header_is_a_typed_error() {
    let bytes = snapshot_engine().to_snapshot_bytes();
    let mut bad = bytes.clone();
    bad[..8].copy_from_slice(b"GARBAGE!");
    assert!(matches!(
        D3l::from_snapshot_bytes(&bad),
        Err(StoreError::BadMagic { .. })
    ));
    // An empty and a tiny file are BadMagic too, not index panics.
    assert!(matches!(
        D3l::from_snapshot_bytes(&[]),
        Err(StoreError::BadMagic { .. })
    ));
    assert!(matches!(
        D3l::from_snapshot_bytes(&bytes[..5]),
        Err(StoreError::BadMagic { .. })
    ));
}

#[test]
fn wrong_snapshot_version_is_a_typed_error() {
    let mut bytes = snapshot_engine().to_snapshot_bytes();
    let future = d3l::store::FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&future.to_le_bytes());
    match D3l::from_snapshot_bytes(&bytes) {
        Err(StoreError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, future);
            assert!(supported < future);
        }
        Err(other) => panic!("expected UnsupportedVersion, got {other}"),
        Ok(_) => panic!("future-version snapshot decoded"),
    }
}

#[test]
fn truncated_snapshot_never_panics() {
    let bytes = snapshot_engine().to_snapshot_bytes();
    // Every possible truncation point must produce a typed error.
    for cut in 0..bytes.len() {
        match D3l::from_snapshot_bytes(&bytes[..cut]) {
            Err(
                StoreError::BadMagic { .. }
                | StoreError::Truncated { .. }
                | StoreError::ChecksumMismatch { .. }
                | StoreError::MissingSection { .. }
                | StoreError::Corrupt(_),
            ) => {}
            Err(other) => panic!("cut {cut}: unexpected error kind {other}"),
            Ok(_) => panic!("cut {cut}: truncated snapshot decoded successfully"),
        }
    }
}

#[test]
fn flipped_snapshot_bits_are_checksum_mismatches() {
    let bytes = snapshot_engine().to_snapshot_bytes();
    // Flip one bit in a spread of payload positions; parsing must
    // fail typed (almost always ChecksumMismatch naming the section).
    let header_end = 100.min(bytes.len());
    for pos in (header_end..bytes.len()).step_by(bytes.len() / 16 + 1) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x01;
        assert!(
            D3l::from_snapshot_bytes(&bad).is_err(),
            "bit flip at {pos} must not decode"
        );
    }
}

#[test]
fn opening_a_store_on_garbage_files_errors_cleanly() {
    let dir = std::env::temp_dir().join(format!("d3l_fi_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Missing base file.
    assert!(matches!(IndexStore::open(&dir), Err(StoreError::Io(_))));

    // Garbage base file.
    std::fs::write(dir.join("base.d3ls"), b"junk").unwrap();
    assert!(matches!(
        IndexStore::open(&dir),
        Err(StoreError::BadMagic { .. })
    ));

    // Valid base, garbage delta segment: the error names the segment
    // and wraps the underlying decode failure.
    let d3l = snapshot_engine();
    let _ = IndexStore::create(&dir, &d3l).unwrap();
    std::fs::write(dir.join("delta-000001.d3ld"), b"junk").unwrap();
    match IndexStore::open(&dir) {
        Err(StoreError::BadSegment { seq: 1, source }) => {
            assert!(matches!(*source, StoreError::BadMagic { .. }), "{source}")
        }
        other => panic!("expected BadSegment(BadMagic), got {other:?}"),
    }

    // A snapshot container where a delta is expected is WrongKind,
    // wrapped the same way.
    std::fs::write(dir.join("delta-000001.d3ld"), d3l.to_snapshot_bytes()).unwrap();
    match IndexStore::open(&dir) {
        Err(StoreError::BadSegment { seq: 1, source }) => {
            assert!(matches!(*source, StoreError::WrongKind { .. }), "{source}")
        }
        other => panic!("expected BadSegment(WrongKind), got {other:?}"),
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_length_delta_segment_is_a_named_corrupt_segment() {
    // A writer can die between creating a segment file and writing
    // it; opening the store must then name the offending segment
    // ("corrupt segment NNNNNN") rather than surface a raw decode
    // error — the CLI regression test asserts the same through
    // `d3l stats --index`.
    let dir = std::env::temp_dir().join(format!("d3l_fi_zerolen_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut d3l = snapshot_engine();
    let mut store = IndexStore::create(&dir, &d3l).unwrap();
    let extra = Table::from_rows("late", &["GP"], &[vec!["Blackfriars".into()]]).unwrap();
    store.append_add(&mut d3l, &extra).unwrap();
    store
        .append_add(
            &mut d3l,
            &Table::from_rows("later", &["GP"], &[vec!["Radclife".into()]]).unwrap(),
        )
        .unwrap();

    // The *latest* delta segment ends up zero-length.
    std::fs::write(dir.join("delta-000002.d3ld"), b"").unwrap();
    let err = IndexStore::open(&dir).unwrap_err();
    match &err {
        StoreError::BadSegment { seq: 2, source } => {
            assert!(matches!(**source, StoreError::BadMagic { .. }), "{source}")
        }
        other => panic!("expected BadSegment for seq 2, got {other:?}"),
    }
    assert!(
        err.to_string().contains("corrupt segment 000002"),
        "diagnostic must name the file: {err}"
    );
    // The error wraps its cause for `Error::source` walkers.
    assert!(std::error::Error::source(&err).is_some());

    // Earlier, intact segments are not the problem: deleting the
    // corrupt one restores the store (minus the lost operation).
    std::fs::remove_file(dir.join("delta-000002.d3ld")).unwrap();
    let (_, recovered) = IndexStore::open(&dir).unwrap();
    assert!(recovered.name_to_id().contains_key("late"));
    assert!(!recovered.name_to_id().contains_key("later"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A write that fails leaves the engine where it was: with the next
/// segment's name already taken, `append_add` and `append_remove` return
/// the no-clobber error and the caller's engine is byte for byte what it
/// was before the call — the segment is written before the engine is
/// touched. (The add indexed first and read its words back to build the
/// segment, the remove tombstoned first: after the error the engine held
/// an operation no segment recorded.) Once the obstruction is gone the
/// same calls succeed, and a cold start reproduces a rebuild's bytes.
#[test]
fn failed_append_leaves_the_engine_where_it_was() {
    let dir = std::env::temp_dir().join(format!("d3l_fi_planted_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut d3l = snapshot_engine();
    let mut store = IndexStore::create(&dir, &d3l).unwrap();
    let extra = Table::from_rows(
        "late",
        &["GP", "Payment"],
        &[vec!["Blackfriars".into(), "15530".into()]],
    )
    .unwrap();
    let refused = |result: Result<(), StoreError>, d3l: &D3l, before: &[u8]| {
        let err = result.unwrap_err();
        assert!(
            matches!(&err, StoreError::Corrupt(m) if m.contains("another writer")),
            "{err}"
        );
        assert!(d3l.to_snapshot_bytes() == before, "engine moved on {err}");
    };

    let planted = dir.join("delta-000001.d3ld");
    std::fs::write(&planted, b"someone else's segment").unwrap();
    let before = d3l.to_snapshot_bytes();
    let added = store.append_add(&mut d3l, &extra).map(|_| ());
    refused(added, &d3l, &before);
    assert_eq!(store.delta_count().unwrap(), 1, "only the planted file");
    std::fs::remove_file(&planted).unwrap();
    let id = store.append_add(&mut d3l, &extra).unwrap();

    let planted = dir.join("delta-000002.d3ld");
    std::fs::write(&planted, b"someone else's segment").unwrap();
    let before = d3l.to_snapshot_bytes();
    let removed = store.append_remove(&mut d3l, TableId(0)).map(|_| ());
    refused(removed, &d3l, &before);
    assert!(!d3l.is_removed(TableId(0)));
    std::fs::remove_file(&planted).unwrap();
    assert!(store.append_remove(&mut d3l, TableId(0)).unwrap());

    let mut rebuilt = snapshot_engine();
    assert_eq!(rebuilt.add_table(&extra), id);
    assert!(rebuilt.remove_table(TableId(0)));
    let (_, reopened) = IndexStore::open(&dir).unwrap();
    assert!(reopened.to_snapshot_bytes() == rebuilt.to_snapshot_bytes());
    assert!(d3l.to_snapshot_bytes() == rebuilt.to_snapshot_bytes());
    std::fs::remove_dir_all(&dir).ok();
}

// ---- tmp-file sweeping vs. concurrent external writers --------------

#[test]
fn opening_a_store_preserves_a_live_writers_in_flight_tmp() {
    // Another *live* process is mid-atomic-write: its `*.tmp.<pid>`
    // is about to be renamed into place. Opening the store must not
    // clobber it — the pre-fix sweep deleted every tmp match on open,
    // destroying the concurrent writer's segment. Our own (certainly
    // live) pid stands in for the other writer.
    let dir = std::env::temp_dir().join(format!("d3l_fi_livetmp_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d3l = snapshot_engine();
    IndexStore::create(&dir, &d3l).unwrap();
    let inflight = dir.join(format!("delta-000001.d3ld.tmp.{}", std::process::id()));
    std::fs::write(&inflight, b"half-written segment bytes").unwrap();

    let _ = IndexStore::open(&dir).unwrap();
    assert!(
        inflight.exists(),
        "a fresh tmp file of a live pid must survive open"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn opening_a_store_sweeps_tmp_files_of_dead_writers() {
    // A reaped child pid provably no longer runs: its orphaned tmp is
    // genuine crash debris and must be swept even though it is fresh.
    let mut child = std::process::Command::new("true")
        .spawn()
        .expect("spawn true");
    let dead_pid = child.id();
    child.wait().expect("reap child");

    let dir = std::env::temp_dir().join(format!("d3l_fi_deadtmp_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d3l = snapshot_engine();
    IndexStore::create(&dir, &d3l).unwrap();
    let orphan = dir.join(format!("delta-000001.d3ld.tmp.{dead_pid}"));
    std::fs::write(&orphan, b"crash debris").unwrap();

    let _ = IndexStore::open(&dir).unwrap();
    assert!(
        !orphan.exists(),
        "a dead writer's tmp file must be swept on open"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn opening_a_store_sweeps_stale_tmp_files_even_of_live_pids() {
    // Pid liveness is not provable in general (pids recycle), so age
    // is the backstop: a tmp untouched for longer than the staleness
    // horizon is debris regardless of whether its pid currently maps
    // to some process. Backdate a tmp carrying our own live pid past
    // the horizon and it must still be swept.
    let dir = std::env::temp_dir().join(format!("d3l_fi_staletmp_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d3l = snapshot_engine();
    IndexStore::create(&dir, &d3l).unwrap();
    let stale = dir.join(format!("delta-000001.d3ld.tmp.{}", std::process::id()));
    std::fs::write(&stale, b"ancient debris").unwrap();
    let long_ago = std::time::SystemTime::now() - (IndexStore::STALE_TMP_AGE * 2);
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&stale)
        .unwrap();
    file.set_times(std::fs::FileTimes::new().set_modified(long_ago))
        .unwrap();
    drop(file);

    let _ = IndexStore::open(&dir).unwrap();
    assert!(
        !stale.exists(),
        "a stale tmp file must be swept even while its pid is live"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// How a numeric store field is written.
#[derive(Debug, Clone, Copy)]
enum Width {
    Varint,
    U8,
    U32,
    U64,
}

impl Width {
    /// `v` in this encoding, if it holds the value.
    fn encode(self, v: u64) -> Option<Vec<u8>> {
        match self {
            Width::Varint => {
                let mut enc = Encoder::new();
                enc.put_varint(v);
                Some(enc.into_bytes())
            }
            Width::U8 => u8::try_from(v).ok().map(|b| vec![b]),
            Width::U32 => u32::try_from(v).ok().map(|w| w.to_le_bytes().to_vec()),
            Width::U64 => Some(v.to_le_bytes().to_vec()),
        }
    }
}

/// A walk over a section payload that records where each numeric field
/// it takes lies.
struct Fields<'a> {
    dec: Decoder<'a>,
    len: usize,
    found: Vec<(std::ops::Range<usize>, Width)>,
}

impl<'a> Fields<'a> {
    fn of(payload: &'a [u8]) -> Self {
        let (dec, len) = (Decoder::new(payload), payload.len());
        Fields {
            dec,
            len,
            found: Vec::new(),
        }
    }

    fn take(&mut self, width: Width) -> u64 {
        let start = self.len - self.dec.remaining();
        let value = match width {
            Width::Varint => self.dec.get_varint().unwrap(),
            Width::U8 => self.dec.get_u8().unwrap().into(),
            Width::U32 => self.dec.get_u32().unwrap().into(),
            Width::U64 => self.dec.get_u64().unwrap(),
        };
        self.found
            .push((start..self.len - self.dec.remaining(), width));
        value
    }
}

/// Every numeric field an open or a replay reads — each of `CONF`'s and
/// `TABL`'s, the count of `PROF`'s first block, the first class rank of
/// each forest, the table id of a delta's add and of its remove —
/// re-sealed at 0, 1, 2³² and `u64::MAX` where its encoding holds the
/// value: the open, or the replay, returns a typed error or an engine
/// that answers a query, never a panic or an abort. (A q-gram size of
/// 0 opened, and the query panicked.)
#[test]
fn every_numeric_store_field_at_its_extremes_opens_or_is_refused() {
    use Width::*;
    const VALUES: [u64; 4] = [0, 1, 1 << 32, u64::MAX];
    let dir = std::env::temp_dir().join(format!("d3l_fi_sweep_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut d3l = snapshot_engine();
    let base = d3l.to_snapshot_bytes();
    let mut store = IndexStore::create(&dir, &d3l).unwrap();
    let extra = Table::from_rows("late", &["GP", "Payment"], &[vec!["a".into(), "7".into()]]);
    store.append_add(&mut d3l, &extra.unwrap()).unwrap();
    store.append_remove(&mut d3l, TableId(1)).unwrap();
    let segments = [1, 2].map(|seq| {
        let path = dir.join(d3l::store::layout::delta_file_name(seq));
        (path.clone(), std::fs::read(path).unwrap())
    });

    // Where each field is: the base (`None`) or segment `i`, the
    // section, the bytes.
    let mut fields: Vec<(Option<usize>, SectionTag, std::ops::Range<usize>, Width)> = Vec::new();
    let mut found = |file, tag, walk: Fields<'_>| {
        let at = walk.found.into_iter();
        fields.extend(at.map(|(range, width)| (file, tag, range, width)));
    };
    let conf = section_of(&base, *b"CONF");
    let mut walk = Fields::of(&conf);
    // num_perm, embed_bits, embed_dim, trees, q, min_lookup, seed,
    // shards.
    for width in [Varint, Varint, Varint, Varint, Varint, Varint, U64, Varint] {
        walk.take(width);
    }
    assert!(walk.dec.is_exhausted());
    found(None, *b"CONF", walk);
    let tabl = section_of(&base, *b"TABL");
    let mut walk = Fields::of(&tabl);
    for _ in 0..walk.take(Varint) {
        walk.dec.get_str_ref().unwrap();
        if walk.take(U8) == 1 {
            walk.take(Varint);
        }
        walk.take(U8);
    }
    assert!(walk.dec.is_exhausted());
    found(None, *b"TABL", walk);
    let prof = section_of(&base, *b"PROF");
    let mut walk = Fields::of(&prof);
    walk.dec.get_varint().unwrap();
    walk.take(Varint);
    found(None, *b"PROF", walk);
    for tag in [*b"F_IN", *b"F_IV", *b"F_IF", *b"F_IE"] {
        let forest = section_of(&base, tag);
        let mut walk = Fields::of(&forest);
        walk.take(U32);
        found(None, tag, walk);
    }
    for (i, (_, segment)) in segments.iter().enumerate() {
        let mut reader = ContainerReader::parse(segment, KIND_DELTA).unwrap();
        let record = reader.section(*b"DREC").unwrap();
        let mut walk = Fields::of(&record);
        walk.dec.get_u8().unwrap();
        walk.take(Varint);
        found(Some(i), *b"DREC", walk);
    }

    let target = snapshot_lake().table(TableId(0)).clone();
    let (mut cases, mut refused) = (0, 0);
    for (file, tag, range, width) in &fields {
        for value in VALUES {
            let Some(encoded) = width.encode(value) else {
                continue;
            };
            cases += 1;
            let splice = |payload: Vec<u8>| {
                [&payload[..range.start], &encoded, &payload[range.end..]].concat()
            };
            let ctx = format!("{file:?} {tag:?} {range:?} = {value}");
            let opened = match *file {
                None => {
                    D3l::from_snapshot_bytes(&with_section(&base, (KIND_SNAPSHOT, *tag), splice))
                }
                Some(i) => {
                    let (path, segment) = &segments[i];
                    let bad = with_section(segment, (KIND_DELTA, *tag), splice);
                    std::fs::write(path, bad).unwrap();
                    let opened = IndexStore::open(&dir).map(|(_, d3l)| d3l);
                    std::fs::write(path, segment).unwrap();
                    opened
                }
            };
            match opened {
                Ok(d3l) => {
                    let answer = ShardedD3l::from_monolith(d3l).query(&target, 3);
                    assert!(answer.len() <= 3, "{ctx}");
                }
                Err(_) => refused += 1,
            }
        }
    }
    assert_eq!(cases, 64);
    println!("{cases} cases, {refused} refused");
    std::fs::remove_dir_all(&dir).ok();
}

// ---- crash during continuous ingestion ------------------------------

#[test]
fn watcher_killed_before_compaction_matches_a_from_scratch_rebuild() {
    // Kill the watcher after its segment appends but before the
    // compaction threshold: reopening the surviving store must yield
    // an engine byte-identical to rebuilding from scratch over the
    // surviving files in the same (name) order.
    let root = std::env::temp_dir().join(format!("d3l_fi_watchcrash_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let lake_dir = root.join("lake");
    std::fs::create_dir_all(&lake_dir).unwrap();
    let names = ["appts", "gp_funding", "prescriptions"];
    for (i, name) in names.iter().enumerate() {
        std::fs::write(
            lake_dir.join(format!("{name}.csv")),
            format!(
                "Practice,Payment\nBlackfriars,{}\nRadclife,{}\n",
                100 + i,
                200 + i
            ),
        )
        .unwrap();
    }

    let watch_index = root.join("watch_index");
    let empty = D3l::index_lake(&DataLake::new(), D3lConfig::fast());
    let store = IndexStore::create(&watch_index, &empty).unwrap();
    let engine = std::sync::Arc::new(EngineHandle::new_sharded(
        vec![store],
        ShardedD3l::from_monolith(empty),
    ));
    let cfg = WatchConfig::default();
    let mut ingestor = Ingestor::new(
        engine.clone(),
        &lake_dir,
        cfg,
        std::sync::Arc::new(WatchStats::new()),
    )
    .unwrap();
    while engine.snapshot().engine.live_table_count() < names.len() {
        ingestor.poll().unwrap();
    }
    let (_, _, segments) = engine.disk_stats().unwrap();
    assert_eq!(segments, names.len(), "one delta segment per table");
    // The "kill": drop watcher and engine with the segments unfolded.
    drop(ingestor);
    drop(engine);

    let (_, survived) = IndexStore::open(&watch_index).unwrap();

    // From-scratch rebuild over the surviving files, applied in the
    // same deterministic name order the watcher used.
    let rebuild_index = root.join("rebuild_index");
    let mut rebuilt = D3l::index_lake(&DataLake::new(), D3lConfig::fast());
    let mut rebuild_store = IndexStore::create(&rebuild_index, &rebuilt).unwrap();
    for name in names {
        let text = std::fs::read_to_string(lake_dir.join(format!("{name}.csv"))).unwrap();
        let table = csv::parse_csv(name, &text).unwrap();
        rebuild_store.append_add(&mut rebuilt, &table).unwrap();
    }

    assert_eq!(
        survived.to_snapshot_bytes(),
        rebuilt.to_snapshot_bytes(),
        "reopened crash survivor must equal the from-scratch rebuild byte-for-byte"
    );
    std::fs::remove_dir_all(&root).ok();
}
