//! On-disk layout of an index-store directory.
//!
//! The store directory vocabulary — base-snapshot filename, delta
//! segment naming, tmp-file markers — lives here with the rest of the
//! wire format, so every layer that looks at a store directory (the
//! `IndexStore` writer in `d3l-core`, disk accounting, diagnostics)
//! agrees on what the files mean without re-deriving the naming
//! scheme:
//!
//! ```text
//! <dir>/base.d3ls           full snapshot (atomic tmp + rename)
//! <dir>/delta-000001.d3ld   appended add/remove segment
//! <dir>/delta-000002.d3ld   ...
//! <dir>/*.tmp.<pid>         in-flight atomic writes (swept on open)
//! ```
//!
//! An index is exactly one such directory, with no subdirectories: a
//! directory without `base.d3ls` holds no index.
//!
//! [`scan`] is the read-only inventory: it never opens a file. An open
//! replays the segments it lists, compaction deletes the ones it
//! folded, and disk accounting sums their sizes.

use std::path::{Path, PathBuf};

use crate::error::StoreError;

/// Filename of the base snapshot inside an index directory.
pub const BASE_FILE: &str = "base.d3ls";

/// Extension of delta segment files.
pub const DELTA_EXT: &str = "d3ld";

/// Prefix of delta segment filenames.
pub const DELTA_PREFIX: &str = "delta-";

/// The filename of the delta segment with sequence number `seq`.
/// Sequence numbers are zero-padded to six digits for directory
/// readability only — replay order is always by parsed number, so
/// sequences outgrowing the padding stay correctly ordered.
pub fn delta_file_name(seq: u64) -> String {
    format!("{DELTA_PREFIX}{seq:06}.{DELTA_EXT}")
}

/// Parse the sequence number out of a delta segment path. `None` for
/// anything that is not a well-formed delta segment name.
pub fn delta_seq_of(path: &Path) -> Option<u64> {
    if path.extension().is_none_or(|e| e != DELTA_EXT) {
        return None;
    }
    path.file_stem()?
        .to_str()?
        .strip_prefix(DELTA_PREFIX)?
        .parse()
        .ok()
}

/// Whether a directory entry is an atomic-write tmp file
/// (`<store file>.tmp.<pid>`). A match alone does **not** mean the
/// file is orphaned: another process may be mid-atomic-write right
/// now, between creating the tmp and renaming it over the target.
/// Deciding whether a tmp file is safe to delete needs the writer's
/// liveness ([`tmp_pid_of`] + [`pid_is_dead`]) or the file's age —
/// sweeping on the name alone would clobber a live writer's in-flight
/// bytes and fail its rename.
pub fn is_store_tmp(name: &str) -> bool {
    name.contains(".tmp.") && (name.starts_with(DELTA_PREFIX) || name.starts_with(BASE_FILE))
}

/// The writer pid embedded in an atomic-write tmp filename
/// (`<store file>.tmp.<pid>`). `None` for names that are not store
/// tmp files or whose suffix does not parse as a pid.
pub fn tmp_pid_of(name: &str) -> Option<u32> {
    if !is_store_tmp(name) {
        return None;
    }
    name.rsplit_once(".tmp.")?.1.parse().ok()
}

/// Whether the process `pid` is *provably* dead. `false` means alive
/// **or unknown** — callers must treat unknown as alive, because the
/// only harm in keeping a truly-orphaned tmp file is a few stray
/// bytes, while deleting a live writer's tmp file destroys its
/// in-flight atomic write.
#[cfg(unix)]
pub fn pid_is_dead(pid: u32) -> bool {
    // `kill(pid, 0)` probes existence without delivering a signal:
    // ESRCH proves there is no such process; success or EPERM mean it
    // exists (EPERM: alive but owned by someone else). `std` already
    // links libc on unix, so the declaration costs no dependency.
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let Ok(pid) = i32::try_from(pid) else {
        return false;
    };
    if pid <= 0 {
        // 0 / negative address process groups, not a single process —
        // never probe them.
        return false;
    }
    const ESRCH: i32 = 3;
    let probed = unsafe { kill(pid, 0) };
    probed == -1 && std::io::Error::last_os_error().raw_os_error() == Some(ESRCH)
}

/// On platforms without a pid probe nothing is provably dead; sweeps
/// fall back to the mtime-staleness rule alone.
#[cfg(not(unix))]
pub fn pid_is_dead(_pid: u32) -> bool {
    false
}

/// Read-only inventory of a store directory: the base snapshot (if
/// present) and every delta segment, sorted by sequence number.
#[derive(Debug, Clone)]
pub struct StoreScan {
    /// Base snapshot size in bytes, when `base.d3ls` exists.
    pub base_bytes: Option<u64>,
    /// Delta segments as `(seq, path, bytes)`, ascending by `seq`.
    pub deltas: Vec<(u64, PathBuf, u64)>,
}

/// Inventory a store directory without opening any file. Entries that
/// are not well-formed delta segment names are ignored — only files
/// this layout wrote are reported.
pub fn scan(dir: &Path) -> Result<StoreScan, StoreError> {
    let base_bytes = match std::fs::metadata(dir.join(BASE_FILE)) {
        Ok(meta) => Some(meta.len()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(e.into()),
    };
    let mut deltas = Vec::new();
    for entry in std::fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()? {
        let path = entry.path();
        if let Some(seq) = delta_seq_of(&path) {
            deltas.push((seq, path, entry.metadata()?.len()));
        }
    }
    deltas.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    Ok(StoreScan { base_bytes, deltas })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_names_round_trip() {
        for seq in [1, 42, 999_999, 1_000_000, u64::MAX / 2] {
            let name = delta_file_name(seq);
            assert_eq!(delta_seq_of(Path::new(&name)), Some(seq), "{name}");
        }
    }

    #[test]
    fn non_delta_names_are_rejected() {
        for name in [
            "base.d3ls",
            "delta-.d3ld",
            "delta-abc.d3ld",
            "delta-000001.d3ls",
            "delta-000001",
            "other-000001.d3ld",
            "delta-000001.d3ld.tmp.123",
        ] {
            assert_eq!(delta_seq_of(Path::new(name)), None, "{name}");
        }
    }

    #[test]
    fn tmp_marker_matches_both_file_kinds() {
        assert!(is_store_tmp("base.d3ls.tmp.991"));
        assert!(is_store_tmp("delta-000003.d3ld.tmp.991"));
        assert!(!is_store_tmp("base.d3ls"));
        assert!(!is_store_tmp("delta-000003.d3ld"));
        assert!(!is_store_tmp("unrelated.tmp.991"));
    }

    #[test]
    fn tmp_pid_parses_the_writer_pid() {
        assert_eq!(tmp_pid_of("base.d3ls.tmp.991"), Some(991));
        assert_eq!(tmp_pid_of("delta-000003.d3ld.tmp.12345"), Some(12345));
        // The rightmost suffix wins for pathological double markers.
        assert_eq!(tmp_pid_of("base.d3ls.tmp.1.tmp.2"), Some(2));
        assert_eq!(tmp_pid_of("base.d3ls.tmp.notapid"), None);
        assert_eq!(tmp_pid_of("unrelated.tmp.991"), None);
        assert_eq!(tmp_pid_of("base.d3ls"), None);
    }

    #[cfg(unix)]
    #[test]
    fn pid_probe_distinguishes_live_from_dead() {
        assert!(
            !pid_is_dead(std::process::id()),
            "our own pid is alive by definition"
        );
        // A reaped child's pid provably names no process any more.
        let mut child = std::process::Command::new("true")
            .spawn()
            .expect("spawn true");
        let dead = child.id();
        child.wait().expect("reap child");
        assert!(pid_is_dead(dead), "reaped pid {dead} should probe dead");
        // Pid 1 (init) exists but is not ours: alive, not dead.
        assert!(!pid_is_dead(1));
        // Unprobeable values are never "provably dead".
        assert!(!pid_is_dead(0));
        assert!(!pid_is_dead(u32::MAX));
    }

    #[test]
    fn scan_inventories_and_orders_by_seq() {
        let dir = std::env::temp_dir().join(format!("d3l_layout_scan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(BASE_FILE), b"base").unwrap();
        // Written out of order and past the zero padding.
        for seq in [3u64, 1, 2, 1_000_007] {
            std::fs::write(
                dir.join(delta_file_name(seq)),
                vec![0u8; seq as usize % 7 + 1],
            )
            .unwrap();
        }
        std::fs::write(dir.join("notes.txt"), b"ignored").unwrap();
        let scan = scan(&dir).unwrap();
        assert_eq!(scan.base_bytes, Some(4));
        let seqs: Vec<u64> = scan.deltas.iter().map(|(s, ..)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 1_000_007]);
        let bytes: Vec<u64> = scan.deltas.iter().map(|(.., b)| *b).collect();
        let expected: Vec<u64> = [1u64, 2, 3, 1_000_007].iter().map(|s| s % 7 + 1).collect();
        assert_eq!(bytes, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_without_base_reports_none() {
        let dir = std::env::temp_dir().join(format!("d3l_layout_nobase_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let scan = scan(&dir).unwrap();
        assert_eq!(scan.base_bytes, None);
        assert!(scan.deltas.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_missing_directory_is_io_error() {
        assert!(matches!(
            scan(Path::new("/definitely/not/a/store")),
            Err(StoreError::Io(_))
        ));
    }
}
