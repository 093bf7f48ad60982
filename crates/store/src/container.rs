//! The container format shared by base snapshots and delta segments
//! (format version 12): a fixed header, section payloads back to back,
//! then a checksummed section table the reader finds from the end.
//!
//! ```text
//! offset  field
//! 0       magic              "D3LSTORE" (8 bytes)
//! 8       format version     u32 LE (12)
//! 12      container kind     u32 LE (1 = snapshot, 2 = delta)
//! 16      payloads           section bytes, back to back
//! T       section table      count × { tag: 4 bytes, offset: u64,
//!                                      len: u64, checksum: u64 }
//! T+28n   trailer            table offset T: u64, section count n: u32,
//!                            checksum: u64 over header ++ table ++ T ++ n
//! ```
//!
//! The table trails the payloads so that a writer needs nothing but
//! [`std::io::Write`]: [`ContainerWriter`] sends every byte to its
//! sink as it is produced, folding each section's [`Checksum`] and
//! length on the way, and never holds a payload it was not handed.
//! [`ContainerReader`] reads header, trailer and table, then hands out
//! one section at a time — whole ([`ContainerReader::section`]) or as a
//! [`SectionReader`] the caller pulls fields and word slabs from
//! ([`ContainerReader::stream_section`]) — so neither side ever holds a
//! whole-file buffer. The same two types run over a `Vec<u8>` and a
//! [`std::io::Cursor`]: one codec, two sinks.
//!
//! Offsets are absolute. The trailer checksum covers everything that
//! says where sections are; each section's checksum covers its payload
//! and is verified when the section has been read, so a torn write or
//! bit flip surfaces as a typed [`StoreError`] naming the section
//! rather than a garbled decode downstream.
//!
//! The version counts changes to what any section holds, not only to
//! the container: version 12 is version 2's container around forest
//! sections that hold each distinct signature once, as a class with
//! the items that carry it, every one with its signature arena, and
//! nothing their reader already knows — no shape, no count, no item
//! id (`d3l-lsh`'s `store` module) — and around attribute records
//! without token sets or embedding vectors whose numeric extent is
//! exact scaled-integer deltas (`d3l-core`'s snapshot module,
//! `d3l-features`' `extent` module), a configuration that is the
//! index's shape alone, and no embedder state. Older files — version 1 (table up
//! front, FNV-1a checksums, per-item forest sections), version 2 (one
//! 64-bit MinHash value to a word), version 3 (every forest's arena
//! stored, a slot per item), version 4 (a vector in every profile),
//! version 5 (a signature and a tree entry per item), version 6 (three
//! token sets in every profile, two arenas signed again from them at
//! open), version 7 (every extent value as its 8-byte bit pattern),
//! version 8 (a header and an id table in every forest section, and
//! copies of other facts: thread counts in the configuration, an arity
//! per table, the embedder's dimension, seed and blend weight, a count
//! per word list of an added table), version 9 (four query
//! constants in the configuration: the LSH and join thresholds, the
//! lookup factor and the join path length), version 10 (a shard
//! count in the configuration, and a partitioned index's shards each
//! a store of its own) and version 11 (an `EMBD` section holding the
//! embedder's lexicon) — are not read: opening one is
//! [`StoreError::UnsupportedVersion`], and the lake must be re-indexed.

use std::io::{self, Read, Seek, SeekFrom, Write};

use crate::codec::{
    extend_u32s_from_le, extend_u64s_from_le, u32s_to_le, u64s_to_le, Checksum, Decoder, Encoder,
    MAX_VARINT_LEN,
};
use crate::error::StoreError;

/// Leading magic of every D3L store file.
pub const MAGIC: &[u8; 8] = b"D3LSTORE";

/// The container format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 12;

/// Container kind of a full base snapshot.
pub const KIND_SNAPSHOT: u32 = 1;

/// Container kind of an incremental delta segment.
pub const KIND_DELTA: u32 = 2;

/// A four-character section tag.
pub type SectionTag = [u8; 4];

const HEADER_LEN: usize = 16;
const ROW_LEN: usize = 4 + 8 + 8 + 8;
const TRAILER_LEN: usize = 8 + 4 + 8;

/// Bytes a word slab moves through between the caller's words and the
/// sink or source: small enough to stay cache-resident, large enough
/// that a 20 MB slab is under a hundred reads or writes.
const SLAB_CHUNK: usize = 256 * 1024;

fn tag_str(tag: &SectionTag) -> String {
    tag.iter().map(|&b| b as char).collect()
}

fn header_bytes(kind: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(MAGIC);
    h[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[12..].copy_from_slice(&kind.to_le_bytes());
    h
}

/// Checksum of everything that locates sections: header, table rows,
/// table offset and section count.
fn table_checksum(header: &[u8], table: &[u8], table_offset: u64, count: u32) -> u64 {
    let mut sum = Checksum::new();
    sum.update(header);
    sum.update(table);
    sum.update(&table_offset.to_le_bytes());
    sum.update(&count.to_le_bytes());
    sum.finish()
}

/// One section-table entry.
#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    tag: SectionTag,
    offset: u64,
    len: u64,
    checksum: u64,
}

/// Streams a container into an [`io::Write`] sink: the header on
/// construction, each section as it is added, table and trailer on
/// [`ContainerWriter::finish`].
#[derive(Debug)]
pub struct ContainerWriter<W: Write> {
    out: W,
    kind: u32,
    pos: u64,
    entries: Vec<SectionEntry>,
    scratch: Vec<u8>,
}

impl<W: Write> ContainerWriter<W> {
    /// Start a container of the given kind on `out`.
    pub fn new(mut out: W, kind: u32) -> io::Result<Self> {
        out.write_all(&header_bytes(kind))?;
        Ok(ContainerWriter {
            out,
            kind,
            pos: HEADER_LEN as u64,
            entries: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// Append one section the caller already holds as bytes. Tags must
    /// be unique within a container.
    pub fn add_section(&mut self, tag: SectionTag, payload: &[u8]) -> io::Result<()> {
        self.stream_section(tag, |sec| sec.put_raw(payload))
    }

    /// Append one section produced piecewise: `fill` writes the payload
    /// through the [`SectionWriter`], which passes it on to the sink
    /// and keeps only the running checksum and length.
    pub fn stream_section(
        &mut self,
        tag: SectionTag,
        fill: impl FnOnce(&mut SectionWriter<'_, W>) -> io::Result<()>,
    ) -> io::Result<()> {
        debug_assert!(
            self.entries.iter().all(|e| e.tag != tag),
            "duplicate section {}",
            tag_str(&tag)
        );
        let mut sec = SectionWriter {
            out: &mut self.out,
            scratch: &mut self.scratch,
            sum: Checksum::new(),
            len: 0,
        };
        fill(&mut sec)?;
        let (len, checksum) = (sec.len, sec.sum.finish());
        self.entries.push(SectionEntry {
            tag,
            offset: self.pos,
            len,
            checksum,
        });
        self.pos += len;
        Ok(())
    }

    /// Write the section table and trailer and hand the sink back
    /// (a file still needs its `sync_all`).
    pub fn finish(mut self) -> io::Result<W> {
        let mut table = Encoder::with_capacity(self.entries.len() * ROW_LEN + TRAILER_LEN);
        for e in &self.entries {
            table.put_raw(&e.tag);
            table.put_u64(e.offset);
            table.put_u64(e.len);
            table.put_u64(e.checksum);
        }
        let count = self.entries.len() as u32;
        let sum = table_checksum(&header_bytes(self.kind), table.as_bytes(), self.pos, count);
        table.put_u64(self.pos);
        table.put_u32(count);
        table.put_u64(sum);
        self.out.write_all(table.as_bytes())?;
        Ok(self.out)
    }
}

/// The write side of one streamed section: bytes and word slabs go
/// straight to the container's sink.
#[derive(Debug)]
pub struct SectionWriter<'a, W: Write> {
    out: &'a mut W,
    scratch: &'a mut Vec<u8>,
    sum: Checksum,
    len: u64,
}

impl<W: Write> SectionWriter<'_, W> {
    /// Raw bytes.
    pub fn put_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.sum.update(bytes);
        self.len += bytes.len() as u64;
        self.out.write_all(bytes)
    }

    /// Raw bytes with a varint length prefix — [`Encoder::put_bytes`],
    /// streamed: a section of many such blocks is written one block at
    /// a time and is the bytes one encoder holding them all would be.
    pub fn put_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut len = Encoder::with_capacity(MAX_VARINT_LEN);
        len.put_varint(bytes.len() as u64);
        self.put_raw(len.as_bytes())?;
        self.put_raw(bytes)
    }

    /// A slab of fixed-width words, no prefix: converted and moved to
    /// the sink a chunk at a time, never copied whole.
    fn put_slab<T>(&mut self, words: &[T], to_le: fn(&[T], &mut [u8])) -> io::Result<()> {
        let width = std::mem::size_of::<T>();
        for chunk in words.chunks(SLAB_CHUNK / width) {
            self.scratch.resize(std::mem::size_of_val(chunk), 0);
            to_le(chunk, self.scratch);
            self.sum.update(self.scratch);
            self.out.write_all(self.scratch)?;
        }
        self.len += std::mem::size_of_val(words) as u64;
        Ok(())
    }

    /// A `u64` slab as little-endian words, no prefix.
    pub fn put_u64_slab(&mut self, words: &[u64]) -> io::Result<()> {
        self.put_slab(words, u64s_to_le)
    }

    /// A `u32` slab as little-endian words, no prefix.
    pub fn put_u32_slab(&mut self, words: &[u32]) -> io::Result<()> {
        self.put_slab(words, u32s_to_le)
    }
}

/// A parsed container over a seekable source. Opening validates the
/// header, the trailer and the section table; payload checksums are
/// verified as sections are read.
#[derive(Debug)]
pub struct ContainerReader<R: Read + Seek> {
    src: R,
    kind: u32,
    entries: Vec<SectionEntry>,
    scratch: Vec<u8>,
}

impl<'a> ContainerReader<io::Cursor<&'a [u8]>> {
    /// Parse a container held in memory.
    pub fn parse(buf: &'a [u8], expected_kind: u32) -> Result<Self, StoreError> {
        ContainerReader::open(io::Cursor::new(buf), expected_kind)
    }
}

impl<R: Read + Seek> ContainerReader<R> {
    /// Parse the header, trailer and section table of a container of
    /// the expected kind. Reads a few dozen bytes per section; no
    /// payload is touched.
    pub fn open(mut src: R, expected_kind: u32) -> Result<Self, StoreError> {
        let file_len = src.seek(SeekFrom::End(0))?;
        src.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; HEADER_LEN];
        let have = (file_len.min(HEADER_LEN as u64)) as usize;
        src.read_exact(&mut header[..have])?;
        if have < MAGIC.len() || &header[..MAGIC.len()] != MAGIC {
            return Err(StoreError::BadMagic {
                found: header[..have.min(MAGIC.len())].to_vec(),
            });
        }
        let mut dec = Decoder::new(&header[MAGIC.len()..have]);
        let version = dec.get_u32()?;
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let kind = dec.get_u32()?;
        if kind != expected_kind {
            return Err(StoreError::WrongKind {
                found: kind,
                expected: expected_kind,
            });
        }

        let body = file_len - HEADER_LEN as u64;
        if body < TRAILER_LEN as u64 {
            return Err(StoreError::Truncated {
                context: "container trailer",
                needed: TRAILER_LEN,
                remaining: body as usize,
            });
        }
        let mut trailer = [0u8; TRAILER_LEN];
        src.seek(SeekFrom::Start(file_len - TRAILER_LEN as u64))?;
        src.read_exact(&mut trailer)?;
        let mut dec = Decoder::new(&trailer);
        let table_offset = dec.get_u64()?;
        let count = dec.get_u32()?;
        let stored_sum = dec.get_u64()?;
        // The table must sit exactly between the payloads and the
        // trailer; anything else is a file cut short (the "trailer" is
        // then payload bytes) or not what the writer produced.
        let table_len = count as u64 * ROW_LEN as u64;
        let table_end = file_len - TRAILER_LEN as u64;
        if table_offset < HEADER_LEN as u64
            || table_offset.checked_add(table_len) != Some(table_end)
        {
            return Err(StoreError::Truncated {
                context: "section table",
                needed: usize::try_from(table_len).unwrap_or(usize::MAX),
                remaining: usize::try_from(table_end.saturating_sub(table_offset))
                    .unwrap_or(usize::MAX),
            });
        }
        let mut table = vec![0u8; table_len as usize];
        src.seek(SeekFrom::Start(table_offset))?;
        src.read_exact(&mut table)?;
        if table_checksum(&header, &table, table_offset, count) != stored_sum {
            return Err(StoreError::ChecksumMismatch {
                section: "section table".to_string(),
            });
        }
        let mut dec = Decoder::new(&table);
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let tag: SectionTag = dec
                .get_raw(4, "section tag")?
                .try_into()
                .expect("4-byte tag");
            let offset = dec.get_u64()?;
            let len = dec.get_u64()?;
            let checksum = dec.get_u64()?;
            let inside = offset >= HEADER_LEN as u64
                && offset
                    .checked_add(len)
                    .is_some_and(|end| end <= table_offset);
            if !inside {
                return Err(StoreError::corrupt(format!(
                    "section {} lies outside the payload area",
                    tag_str(&tag)
                )));
            }
            entries.push(SectionEntry {
                tag,
                offset,
                len,
                checksum,
            });
        }
        Ok(ContainerReader {
            src,
            kind,
            entries,
            scratch: Vec::new(),
        })
    }

    /// The container kind stamped in the header.
    pub fn kind(&self) -> u32 {
        self.kind
    }

    /// The table of contents: tag and payload length of every section,
    /// in file order.
    pub fn sections(&self) -> Vec<(SectionTag, u64)> {
        self.entries.iter().map(|e| (e.tag, e.len)).collect()
    }

    /// A required section's payload, read whole and checksum-verified.
    pub fn section(&mut self, tag: SectionTag) -> Result<Vec<u8>, StoreError> {
        self.stream_section(tag, |sec| sec.get_rest())
    }

    /// An optional section's payload: `None` when absent,
    /// checksum-verified when present.
    pub fn section_opt(&mut self, tag: SectionTag) -> Result<Option<Vec<u8>>, StoreError> {
        if self.entries.iter().any(|e| e.tag == tag) {
            self.section(tag).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Decode a required section while it is read: `decode` pulls
    /// fields and slabs from the [`SectionReader`]. Its result is
    /// handed out only if it consumed the section exactly and the
    /// payload's checksum matches; when `decode` fails on a payload
    /// whose checksum does not match either, the mismatch is what is
    /// reported — the decode error is then a symptom.
    pub fn stream_section<T>(
        &mut self,
        tag: SectionTag,
        decode: impl FnOnce(&mut SectionReader<'_, R>) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let entry = *self.entries.iter().find(|e| e.tag == tag).ok_or_else(|| {
            StoreError::MissingSection {
                section: tag_str(&tag),
            }
        })?;
        self.src.seek(SeekFrom::Start(entry.offset))?;
        let mut sec = SectionReader {
            src: &mut self.src,
            scratch: &mut self.scratch,
            sum: Checksum::new(),
            remaining: entry.len,
        };
        let decoded = decode(&mut sec).and_then(|value| {
            if sec.remaining == 0 {
                Ok(value)
            } else {
                Err(StoreError::corrupt(format!(
                    "{} trailing bytes in section {}",
                    sec.remaining,
                    tag_str(&tag)
                )))
            }
        });
        if matches!(decoded, Err(StoreError::Io(_))) {
            return decoded;
        }
        sec.skip_rest()?;
        if sec.sum.finish() != entry.checksum {
            return Err(StoreError::ChecksumMismatch {
                section: tag_str(&tag),
            });
        }
        decoded
    }
}

/// The read side of one streamed section: a bounded, checksummed view
/// of the source. Every read is checked against the bytes the section
/// has left, so a corrupt count can neither run into the next section
/// nor size an allocation beyond the file.
#[derive(Debug)]
pub struct SectionReader<'a, R: Read> {
    src: &'a mut R,
    scratch: &'a mut Vec<u8>,
    sum: Checksum,
    remaining: u64,
}

impl<R: Read> SectionReader<'_, R> {
    /// Claim `n` bytes of the section, or fail typed.
    fn claim(&mut self, n: u64, context: &'static str) -> Result<(), StoreError> {
        if n > self.remaining {
            return Err(StoreError::Truncated {
                context,
                needed: usize::try_from(n).unwrap_or(usize::MAX),
                remaining: usize::try_from(self.remaining).unwrap_or(usize::MAX),
            });
        }
        self.remaining -= n;
        Ok(())
    }

    /// Fill `buf` with the next bytes.
    pub fn get_raw(&mut self, buf: &mut [u8], context: &'static str) -> Result<(), StoreError> {
        self.claim(buf.len() as u64, context)?;
        self.src.read_exact(buf)?;
        self.sum.update(buf);
        Ok(())
    }

    /// The next length-prefixed block ([`SectionWriter::put_bytes`]),
    /// read into `buf` in place of what it held. The length is checked
    /// against what the section has left before `buf` grows to it.
    pub fn get_bytes(&mut self, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        let mut prefix = [0u8; MAX_VARINT_LEN];
        let mut used = 0;
        loop {
            self.get_raw(&mut prefix[used..used + 1], "bytes length")?;
            used += 1;
            if prefix[used - 1] & 0x80 == 0 || used == MAX_VARINT_LEN {
                break;
            }
        }
        let len = Decoder::new(&prefix[..used]).get_varint()?;
        if len > self.remaining {
            return Err(StoreError::Truncated {
                context: "bytes",
                needed: usize::try_from(len).unwrap_or(usize::MAX),
                remaining: usize::try_from(self.remaining).unwrap_or(usize::MAX),
            });
        }
        let len = usize::try_from(len).map_err(|_| StoreError::corrupt("length exceeds usize"))?;
        buf.clear();
        buf.resize(len, 0);
        self.get_raw(buf, "bytes")
    }

    /// Everything the section has left.
    pub fn get_rest(&mut self) -> Result<Vec<u8>, StoreError> {
        let n = usize::try_from(self.remaining)
            .map_err(|_| StoreError::corrupt("section larger than the address space"))?;
        let mut out = vec![0u8; n];
        self.get_raw(&mut out, "section payload")?;
        Ok(out)
    }

    /// Pull the next `bytes` bytes through the scratch buffer, a chunk
    /// at a time, handing each (checksummed) chunk to `sink`.
    fn pull(&mut self, bytes: u64, mut sink: impl FnMut(&[u8])) -> Result<(), StoreError> {
        let mut left = bytes;
        while left > 0 {
            let take = left.min(SLAB_CHUNK as u64) as usize;
            self.scratch.resize(take, 0);
            self.src.read_exact(self.scratch)?;
            self.sum.update(self.scratch);
            sink(self.scratch);
            left -= take as u64;
        }
        Ok(())
    }

    /// The next `n` fixed-width words, in a vector of exactly that
    /// capacity: file → chunk → destination, no whole-slab byte buffer
    /// in between. (`SLAB_CHUNK` is a multiple of every word width, so
    /// chunks never split a word.)
    fn get_slab<T>(
        &mut self,
        n: usize,
        context: &'static str,
        extend_from_le: fn(&mut Vec<T>, &[u8]),
    ) -> Result<Vec<T>, StoreError> {
        let bytes = (n as u64).saturating_mul(std::mem::size_of::<T>() as u64);
        self.claim(bytes, context)?;
        let mut out = Vec::with_capacity(n);
        self.pull(bytes, |chunk| extend_from_le(&mut out, chunk))?;
        Ok(out)
    }

    /// The next `n` little-endian `u64` words.
    pub fn get_u64_slab(
        &mut self,
        n: usize,
        context: &'static str,
    ) -> Result<Vec<u64>, StoreError> {
        self.get_slab(n, context, extend_u64s_from_le)
    }

    /// The next `n` little-endian `u32` words.
    pub fn get_u32_slab(
        &mut self,
        n: usize,
        context: &'static str,
    ) -> Result<Vec<u32>, StoreError> {
        self.get_slab(n, context, extend_u32s_from_le)
    }

    /// Read (and checksum) whatever the decoder left unconsumed.
    fn skip_rest(&mut self) -> Result<(), StoreError> {
        let left = std::mem::take(&mut self.remaining);
        self.pull(left, |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_section_container() -> Vec<u8> {
        let mut w = ContainerWriter::new(Vec::new(), KIND_SNAPSHOT).unwrap();
        w.add_section(*b"AAAA", &[1, 2, 3]).unwrap();
        w.add_section(*b"BBBB", b"payload").unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn sections_round_trip() {
        let bytes = two_section_container();
        let mut r = ContainerReader::parse(&bytes, KIND_SNAPSHOT).unwrap();
        assert_eq!(r.kind(), KIND_SNAPSHOT);
        assert_eq!(r.sections(), vec![(*b"AAAA", 3), (*b"BBBB", 7)]);
        // Any order, any number of times.
        assert_eq!(r.section(*b"BBBB").unwrap(), b"payload");
        assert_eq!(r.section(*b"AAAA").unwrap(), &[1, 2, 3]);
        assert_eq!(r.section_opt(*b"AAAA").unwrap().unwrap(), &[1, 2, 3]);
        assert!(r.section_opt(*b"NOPE").unwrap().is_none());
    }

    #[test]
    fn slabs_stream_both_ways_across_chunk_boundaries() {
        // More words than one chunk holds, and not a multiple of it.
        let words: Vec<u64> = (0..(SLAB_CHUNK as u64 / 8) * 2 + 77)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let ranks: Vec<u32> = (0..(SLAB_CHUNK as u32 / 4) + 5).rev().collect();
        let mut w = ContainerWriter::new(Vec::new(), KIND_SNAPSHOT).unwrap();
        w.stream_section(*b"SLAB", |sec| {
            sec.put_raw(&[9, 9])?;
            sec.put_u64_slab(&words)?;
            sec.put_u32_slab(&ranks)
        })
        .unwrap();
        let bytes = w.finish().unwrap();

        // The streamed section is byte-identical to the buffered one.
        let mut enc = Encoder::new();
        enc.put_raw(&[9, 9]);
        enc.put_u64_slab(&words);
        for r in &ranks {
            enc.put_u32(*r);
        }
        let mut w = ContainerWriter::new(Vec::new(), KIND_SNAPSHOT).unwrap();
        w.add_section(*b"SLAB", enc.as_bytes()).unwrap();
        assert_eq!(w.finish().unwrap(), bytes);

        let mut r = ContainerReader::parse(&bytes, KIND_SNAPSHOT).unwrap();
        let (head, got_words, got_ranks) = r
            .stream_section(*b"SLAB", |sec| {
                let mut head = [0u8; 2];
                sec.get_raw(&mut head, "head")?;
                let w = sec.get_u64_slab(words.len(), "words")?;
                assert_eq!(w.capacity(), words.len(), "exact reservation");
                let r = sec.get_u32_slab(ranks.len(), "ranks")?;
                Ok((head, w, r))
            })
            .unwrap();
        assert_eq!(head, [9, 9]);
        assert_eq!(got_words, words);
        assert_eq!(got_ranks, ranks);
    }

    /// Length-prefixed blocks stream one at a time into the bytes one
    /// encoder holding them all writes, and read back through one
    /// reused buffer; a length past the section's end is truncation
    /// before it is an allocation.
    #[test]
    fn length_prefixed_blocks_stream_both_ways() {
        let blocks: [&[u8]; 4] = [b"one", b"", &[7u8; 300], b"last"];
        let mut w = ContainerWriter::new(Vec::new(), KIND_SNAPSHOT).unwrap();
        w.stream_section(*b"BLKS", |sec| {
            blocks.iter().try_for_each(|b| sec.put_bytes(b))
        })
        .unwrap();
        let bytes = w.finish().unwrap();
        let mut enc = Encoder::new();
        for b in blocks {
            enc.put_bytes(b);
        }
        let mut r = ContainerReader::parse(&bytes, KIND_SNAPSHOT).unwrap();
        assert_eq!(r.section(*b"BLKS").unwrap(), enc.as_bytes());
        r.stream_section(*b"BLKS", |sec| {
            let mut buf = vec![0xff; 9];
            for b in blocks {
                sec.get_bytes(&mut buf)?;
                assert_eq!(buf, b);
            }
            Ok(())
        })
        .unwrap();

        // "payload" is not a block: its first byte claims 112 more.
        let bytes = two_section_container();
        let mut r = ContainerReader::parse(&bytes, KIND_SNAPSHOT).unwrap();
        let err = r
            .stream_section(*b"BBBB", |sec| sec.get_bytes(&mut Vec::new()))
            .unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
        // Ten continuation bytes are not a length.
        let mut w = ContainerWriter::new(Vec::new(), KIND_SNAPSHOT).unwrap();
        w.add_section(*b"LONG", &[0x80; 12]).unwrap();
        let bytes = w.finish().unwrap();
        let err = ContainerReader::parse(&bytes, KIND_SNAPSHOT)
            .unwrap()
            .stream_section(*b"LONG", |sec| sec.get_bytes(&mut Vec::new()))
            .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    }

    #[test]
    fn oversized_slab_count_is_truncation_not_allocation() {
        let bytes = two_section_container();
        let mut r = ContainerReader::parse(&bytes, KIND_SNAPSHOT).unwrap();
        let err = r
            .stream_section(*b"BBBB", |sec| sec.get_u64_slab(usize::MAX / 2, "slab"))
            .unwrap_err();
        assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
    }

    #[test]
    fn undecoded_trailing_bytes_are_corrupt() {
        let bytes = two_section_container();
        let mut r = ContainerReader::parse(&bytes, KIND_SNAPSHOT).unwrap();
        let err = r
            .stream_section(*b"BBBB", |sec| {
                let mut two = [0u8; 2];
                sec.get_raw(&mut two, "two")
            })
            .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    }

    #[test]
    fn empty_container_is_valid() {
        let bytes = ContainerWriter::new(Vec::new(), KIND_DELTA)
            .unwrap()
            .finish()
            .unwrap();
        let mut r = ContainerReader::parse(&bytes, KIND_DELTA).unwrap();
        assert!(r.sections().is_empty());
        assert!(matches!(
            r.section(*b"NOPE"),
            Err(StoreError::MissingSection { .. })
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = two_section_container();
        bytes[0] = b'X';
        assert!(matches!(
            ContainerReader::parse(&bytes, KIND_SNAPSHOT),
            Err(StoreError::BadMagic { .. })
        ));
        // A short file is BadMagic, not a panic.
        assert!(matches!(
            ContainerReader::parse(&bytes[..4], KIND_SNAPSHOT),
            Err(StoreError::BadMagic { .. })
        ));
        assert!(matches!(
            ContainerReader::parse(&[], KIND_SNAPSHOT),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn other_versions_are_rejected() {
        // Newer and older alike: there is one read path, and a
        // version 1 to 11 store must be re-indexed.
        for version in [FORMAT_VERSION + 1, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0] {
            let mut bytes = two_section_container();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            assert!(matches!(
                ContainerReader::parse(&bytes, KIND_SNAPSHOT),
                Err(StoreError::UnsupportedVersion { found, supported })
                    if found == version && supported == FORMAT_VERSION
            ));
        }
    }

    /// A file as format version 1 laid it out (header, section count,
    /// table, payloads) is named by its version, not misread as a
    /// torn file of this version.
    #[test]
    fn a_version_1_file_is_an_unsupported_version() {
        let mut v1 = Encoder::new();
        v1.put_raw(MAGIC);
        v1.put_u32(1);
        v1.put_u32(KIND_SNAPSHOT);
        v1.put_u32(1); // section count
        v1.put_raw(b"CONF");
        v1.put_u64(48);
        v1.put_u64(3);
        v1.put_u64(0xdead_beef);
        v1.put_raw(&[1, 2, 3]);
        let err = ContainerReader::parse(v1.as_bytes(), KIND_SNAPSHOT).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::UnsupportedVersion {
                    found: 1,
                    supported: FORMAT_VERSION
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("re-index"), "{err}");
    }

    /// Files of version 2 up to the last have this version's container
    /// and other forest or profile sections; they are refused by their
    /// header before any is read.
    #[test]
    fn older_files_of_this_container_are_an_unsupported_version() {
        assert_eq!(FORMAT_VERSION, 12);
        for version in 2..FORMAT_VERSION {
            let mut old = two_section_container();
            old[8..12].copy_from_slice(&version.to_le_bytes());
            let err = ContainerReader::parse(&old, KIND_SNAPSHOT).unwrap_err();
            assert!(
                matches!(
                    err,
                    StoreError::UnsupportedVersion { found, supported: 12 } if found == version
                ),
                "{err}"
            );
            assert!(err.to_string().contains("re-index"), "{err}");
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let bytes = two_section_container();
        assert!(matches!(
            ContainerReader::parse(&bytes, KIND_DELTA),
            Err(StoreError::WrongKind { .. })
        ));
    }

    #[test]
    fn flipped_payload_bit_is_a_checksum_mismatch() {
        let mut bytes = two_section_container();
        // BBBB's payload ends where the table starts.
        let table_at = HEADER_LEN + 3 + 7;
        bytes[table_at - 1] ^= 0x40;
        let mut r = ContainerReader::parse(&bytes, KIND_SNAPSHOT).unwrap();
        assert!(r.section(*b"AAAA").is_ok(), "AAAA untouched");
        assert!(matches!(
            r.section(*b"BBBB"),
            Err(StoreError::ChecksumMismatch { section }) if section == "BBBB"
        ));
    }

    /// When the decoder trips over a damaged payload, the damage is
    /// what gets reported.
    #[test]
    fn checksum_mismatch_outranks_the_decode_error_it_causes() {
        let mut bytes = two_section_container();
        bytes[HEADER_LEN] ^= 0x01; // first byte of AAAA
        let mut r = ContainerReader::parse(&bytes, KIND_SNAPSHOT).unwrap();
        let err = r
            .stream_section(*b"AAAA", |_| -> Result<(), StoreError> {
                Err(StoreError::corrupt("decoder saw nonsense"))
            })
            .unwrap_err();
        assert!(matches!(err, StoreError::ChecksumMismatch { .. }), "{err}");
        // On an intact payload the decoder's own error stands.
        let err = r
            .stream_section(*b"BBBB", |_| -> Result<(), StoreError> {
                Err(StoreError::corrupt("decoder saw nonsense"))
            })
            .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    }

    #[test]
    fn every_flipped_byte_is_a_typed_error() {
        let bytes = two_section_container();
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x04;
            let failed = match ContainerReader::parse(&bad, KIND_SNAPSHOT) {
                Ok(mut r) => r.section(*b"AAAA").is_err() || r.section(*b"BBBB").is_err(),
                Err(_) => true,
            };
            assert!(failed, "flip at {pos} went unnoticed");
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = two_section_container();
        for cut in 0..bytes.len() {
            match ContainerReader::parse(&bytes[..cut], KIND_SNAPSHOT) {
                Ok(_) => panic!("cut {cut}: truncated container parsed"),
                Err(
                    StoreError::BadMagic { .. }
                    | StoreError::Truncated { .. }
                    | StoreError::ChecksumMismatch { .. }
                    | StoreError::Corrupt(_),
                ) => {}
                Err(other) => panic!("cut {cut}: unexpected error {other}"),
            }
        }
    }

    #[test]
    fn absurd_section_count_is_truncation() {
        let mut bytes = ContainerWriter::new(Vec::new(), KIND_SNAPSHOT)
            .unwrap()
            .finish()
            .unwrap();
        let n = bytes.len();
        bytes[n - 12..n - 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            ContainerReader::parse(&bytes, KIND_SNAPSHOT),
            Err(StoreError::Truncated { .. })
        ));
    }
}
