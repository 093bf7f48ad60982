//! Typed persistence errors.
//!
//! Every decode path returns a [`StoreError`] instead of panicking:
//! corrupt headers, truncated files, checksum mismatches and
//! unsupported format versions are all expected conditions for a
//! long-lived on-disk index and must degrade into actionable errors.

/// Errors raised by the snapshot encoders, the container format and
/// the index store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with the D3L container magic.
    BadMagic {
        /// The first bytes actually found (at most 8).
        found: Vec<u8>,
    },
    /// The container's format version is not the one this build reads
    /// and writes. Older stores are not migrated: the lake must be
    /// re-indexed.
    UnsupportedVersion {
        /// Version stamped in the file.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The container kind (snapshot vs delta) is not the expected one.
    WrongKind {
        /// Kind stamped in the file.
        found: u32,
        /// Kind the caller asked for.
        expected: u32,
    },
    /// The input ended before a field could be read in full.
    Truncated {
        /// What was being decoded.
        context: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes left in the input.
        remaining: usize,
    },
    /// A section payload's checksum does not match the section table.
    ChecksumMismatch {
        /// Four-character section tag.
        section: String,
    },
    /// A required section is absent from the container.
    MissingSection {
        /// Four-character section tag.
        section: String,
    },
    /// Structurally invalid data (bad lengths, out-of-range values,
    /// varints that overflow, ...).
    Corrupt(String),
    /// A delta segment failed to read, decode or apply. Wraps the
    /// underlying failure with the segment's sequence number so a
    /// store-level diagnostic names the file to inspect or delete
    /// instead of surfacing a raw decode error.
    BadSegment {
        /// Sequence number of the offending segment.
        seq: u64,
        /// The underlying failure.
        source: Box<StoreError>,
    },
}

impl StoreError {
    /// Shorthand for [`StoreError::Corrupt`].
    pub fn corrupt(msg: impl Into<String>) -> Self {
        StoreError::Corrupt(msg.into())
    }

    /// Wrap a failure with the delta segment it occurred in.
    pub fn bad_segment(seq: u64, source: StoreError) -> Self {
        StoreError::BadSegment {
            seq,
            source: Box::new(source),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::BadMagic { found } => {
                write!(f, "not a D3L store file (leading bytes {found:02x?})")
            }
            StoreError::UnsupportedVersion { found, supported } if found < supported => write!(
                f,
                "store format version {found} is older than the supported {supported}; \
                 re-index the lake to rewrite the store"
            ),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "store format version {found} is newer than the supported {supported}"
            ),
            StoreError::WrongKind { found, expected } => {
                write!(f, "container kind {found} where {expected} was expected")
            }
            StoreError::Truncated {
                context,
                needed,
                remaining,
            } => write!(
                f,
                "truncated input while reading {context}: needed {needed} bytes, {remaining} left"
            ),
            StoreError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section:?}")
            }
            StoreError::MissingSection { section } => {
                write!(f, "required section {section:?} missing")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt store data: {msg}"),
            StoreError::BadSegment { seq, source } => {
                write!(f, "corrupt segment {seq:06}: {source}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::BadSegment { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let cases: Vec<(StoreError, &str)> = vec![
            (
                StoreError::BadMagic {
                    found: vec![0xde, 0xad],
                },
                "not a D3L store file",
            ),
            (
                StoreError::UnsupportedVersion {
                    found: 9,
                    supported: 3,
                },
                "version 9 is newer",
            ),
            (
                StoreError::UnsupportedVersion {
                    found: 2,
                    supported: 3,
                },
                "re-index the lake",
            ),
            (
                StoreError::Truncated {
                    context: "u64",
                    needed: 8,
                    remaining: 3,
                },
                "truncated input while reading u64",
            ),
            (
                StoreError::ChecksumMismatch {
                    section: "PROF".into(),
                },
                "checksum mismatch",
            ),
            (
                StoreError::MissingSection {
                    section: "CONF".into(),
                },
                "missing",
            ),
            (StoreError::corrupt("bad length"), "bad length"),
            (
                StoreError::bad_segment(3, StoreError::BadMagic { found: vec![] }),
                "corrupt segment 000003",
            ),
            (
                StoreError::WrongKind {
                    found: 2,
                    expected: 1,
                },
                "container kind 2",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} lacks {needle:?}");
        }
    }

    #[test]
    fn io_errors_wrap_with_source() {
        let err: StoreError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(err.to_string().contains("gone"));
        assert!(std::error::Error::source(&err).is_some());
    }
}
