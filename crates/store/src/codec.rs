//! Hand-written binary encoders: LEB128 varints, fixed-width
//! little-endian scalars, length-prefixed byte/slice fields, bulk
//! word slabs, and the section [`Checksum`].
//!
//! The workspace builds offline, with no serialization framework to
//! lean on; these primitives are the entire
//! wire vocabulary of the snapshot format. Every [`Decoder`] read is
//! bounds-checked and returns a typed [`StoreError`] on truncation or
//! overflow — on-disk bytes are untrusted input.

use crate::error::StoreError;

/// Maximum encoded length of a `u64` LEB128 varint.
pub const MAX_VARINT_LEN: usize = 10;

/// An append-only byte sink for snapshot payloads.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// An empty encoder with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume into the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Fixed-width little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Fixed-width little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// LEB128 varint: 7 value bits per byte, high bit = continuation.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Raw bytes with a varint length prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_varint(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Raw bytes with no prefix (caller carries the length).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// UTF-8 string with a varint length prefix.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// `u64` slab with no prefix (caller carries the count): one bulk
    /// little-endian copy, not a push per word.
    pub fn put_u64_slab(&mut self, vs: &[u64]) {
        let start = self.buf.len();
        self.buf.resize(start + vs.len() * 8, 0);
        u64s_to_le(vs, &mut self.buf[start..]);
    }
}

/// Write the little-endian image of `words` over `out` (exactly
/// `8 * words.len()` bytes).
pub(crate) fn u64s_to_le(words: &[u64], out: &mut [u8]) {
    debug_assert_eq!(out.len(), words.len() * 8);
    for (dst, w) in out.chunks_exact_mut(8).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
}

/// Write the little-endian image of `words` over `out` (exactly
/// `4 * words.len()` bytes).
pub(crate) fn u32s_to_le(words: &[u32], out: &mut [u8]) {
    debug_assert_eq!(out.len(), words.len() * 4);
    for (dst, w) in out.chunks_exact_mut(4).zip(words) {
        dst.copy_from_slice(&w.to_le_bytes());
    }
}

/// Append the `u64` words whose little-endian image is `bytes` (a
/// multiple of 8 long).
pub(crate) fn extend_u64s_from_le(out: &mut Vec<u64>, bytes: &[u8]) {
    debug_assert_eq!(bytes.len() % 8, 0);
    out.extend(
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
    );
}

/// Append the `u32` words whose little-endian image is `bytes` (a
/// multiple of 4 long).
pub(crate) fn extend_u32s_from_le(out: &mut Vec<u32>, bytes: &[u8]) {
    debug_assert_eq!(bytes.len() % 4, 0);
    out.extend(
        bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk"))),
    );
}

/// A bounds-checked reader over untrusted encoded bytes.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte was consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Error unless the input was consumed in full — trailing garbage
    /// after a section's last field means the file is not what the
    /// writer produced.
    pub fn expect_exhausted(&self, context: &'static str) -> Result<(), StoreError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(StoreError::corrupt(format!(
                "{} trailing bytes after {context}",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                context,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// One raw byte.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Fixed-width little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Fixed-width little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// LEB128 varint; rejects encodings longer than 10 bytes and
    /// 10-byte encodings whose final byte overflows 64 bits.
    pub fn get_varint(&mut self) -> Result<u64, StoreError> {
        let mut v: u64 = 0;
        for i in 0..MAX_VARINT_LEN {
            let byte = self.get_u8()?;
            let payload = (byte & 0x7f) as u64;
            if i == MAX_VARINT_LEN - 1 && payload > 1 {
                return Err(StoreError::corrupt("varint overflows u64"));
            }
            v |= payload << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(StoreError::corrupt("varint longer than 10 bytes"))
    }

    /// A varint length used to size an allocation; capped by the bytes
    /// actually remaining (each element of the collection occupies at
    /// least `min_elem_bytes`), so a corrupt length cannot trigger a
    /// huge allocation before the truncation is even noticed.
    pub fn get_len(
        &mut self,
        min_elem_bytes: usize,
        context: &'static str,
    ) -> Result<usize, StoreError> {
        let n = self.get_varint()?;
        let n = usize::try_from(n).map_err(|_| StoreError::corrupt("length exceeds usize"))?;
        let cap = self.remaining() / min_elem_bytes.max(1);
        if n > cap {
            return Err(StoreError::Truncated {
                context,
                needed: n.saturating_mul(min_elem_bytes.max(1)),
                remaining: self.remaining(),
            });
        }
        Ok(n)
    }

    /// Length-prefixed raw bytes.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let n = self.get_len(1, "bytes")?;
        self.take(n, "bytes")
    }

    /// `n` raw bytes with no prefix.
    pub fn get_raw(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], StoreError> {
        self.take(n, context)
    }

    /// The bytes not yet consumed, left unconsumed: for a field that
    /// knows its own length, read by its own decoder and then taken
    /// with [`Decoder::get_raw`].
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, StoreError> {
        self.get_str_ref().map(str::to_string)
    }

    /// Length-prefixed UTF-8 string, borrowed from the buffer.
    pub fn get_str_ref(&mut self) -> Result<&'a str, StoreError> {
        let b = self.get_bytes()?;
        std::str::from_utf8(b).map_err(|_| StoreError::corrupt("invalid utf-8 string"))
    }

    /// `n` `u64` words written by [`Encoder::put_u64_slab`] (the caller
    /// carries the count): a straight chunked copy.
    pub fn get_u64_slab(&mut self, n: usize) -> Result<Vec<u64>, StoreError> {
        let raw = self.take(n.saturating_mul(8), "u64 slab")?;
        let mut out = Vec::with_capacity(n);
        extend_u64s_from_le(&mut out, raw);
        Ok(out)
    }
}

/// Bytes one [`Checksum`] block absorbs: one word per lane.
const BLOCK: usize = 8 * LANES;
const LANES: usize = 4;
const LANE_SEEDS: [u64; LANES] = [
    0xcbf2_9ce4_8422_2325,
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
];
const LANE_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The section checksum: a word-at-a-time, four-lane multiplicative
/// hash. Not cryptographic; it catches torn writes, truncation and
/// bit rot, which is the threat model for a local index directory.
///
/// Defined over the byte stream, independent of the platform and of
/// how the stream is chunked into [`Checksum::update`] calls: bytes
/// are grouped into 32-byte blocks of four little-endian `u64` words,
/// word `i` of a block is absorbed by lane `i` as
/// `lane = ((lane ^ word) * PRIME).rotate_left(29)`; a final partial
/// block is zero-padded; [`Checksum::finish`] folds the stream length
/// and the four lanes through the same step. Every step is a
/// bijection of the lane for a fixed input word, so two streams of
/// equal length that differ in one word always differ in the result
/// — a single flipped bit is never missed. The four independent
/// multiply chains run several bytes per cycle, where byte-serial
/// FNV-1a is bound to one multiply per byte.
#[derive(Debug, Clone)]
pub struct Checksum {
    lanes: [u64; LANES],
    /// Bytes of the current, incomplete block.
    pending: [u8; BLOCK],
    pending_len: usize,
    total: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

#[inline(always)]
fn lane_step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(LANE_PRIME).rotate_left(29)
}

impl Checksum {
    /// The checksum of the empty stream so far.
    pub fn new() -> Self {
        Checksum {
            lanes: LANE_SEEDS,
            pending: [0; BLOCK],
            pending_len: 0,
            total: 0,
        }
    }

    #[inline(always)]
    fn absorb(lanes: &mut [u64; LANES], block: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = lane_step(
                *lane,
                u64::from_le_bytes(word.try_into().expect("8-byte word")),
            );
        }
    }

    /// Fold the next bytes of the stream in.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = bytes.len().min(BLOCK - self.pending_len);
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < BLOCK {
                return;
            }
            Self::absorb(&mut self.lanes, &self.pending);
            self.pending_len = 0;
        }
        let mut lanes = self.lanes;
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            Self::absorb(&mut lanes, block);
        }
        self.lanes = lanes;
        let tail = blocks.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.pending_len > 0 {
            let mut block = [0u8; BLOCK];
            block[..self.pending_len].copy_from_slice(&self.pending[..self.pending_len]);
            Self::absorb(&mut lanes, &block);
        }
        lanes
            .iter()
            .fold(lane_step(LANE_SEEDS[0], self.total), |h, &lane| {
                lane_step(h, lane)
            })
    }
}

/// One-shot [`Checksum`] of a byte slice.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(bytes);
    sum.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_round_trips() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u32(0xdead_beef);
        enc.put_u64(u64::MAX);
        enc.put_f64(-0.0);
        enc.put_f64(f64::NAN);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 7);
        assert_eq!(dec.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(dec.get_u64().unwrap(), u64::MAX);
        assert_eq!(dec.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(dec.get_f64().unwrap().is_nan());
        assert!(dec.is_exhausted());
        assert!(dec.expect_exhausted("scalars").is_ok());
    }

    #[test]
    fn varint_boundary_values_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut enc = Encoder::new();
            enc.put_varint(v);
            let bytes = enc.into_bytes();
            assert!(bytes.len() <= MAX_VARINT_LEN);
            let mut dec = Decoder::new(&bytes);
            assert_eq!(dec.get_varint().unwrap(), v, "value {v}");
            assert!(dec.is_exhausted());
        }
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // Ten continuation bytes then more: longer than any u64.
        let bytes = [0x80u8; 11];
        assert!(matches!(
            Decoder::new(&bytes).get_varint(),
            Err(StoreError::Corrupt(_))
        ));
        // A 10th byte carrying more than one bit overflows 64 bits.
        let mut bytes = [0x80u8; 10];
        bytes[9] = 0x02;
        assert!(matches!(
            Decoder::new(&bytes).get_varint(),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn truncation_is_a_typed_error_not_a_panic() {
        let mut enc = Encoder::new();
        enc.put_u64_slab(&[1, 2, 3]);
        let bytes = enc.into_bytes();
        for cut in 0..bytes.len() {
            let mut dec = Decoder::new(&bytes[..cut]);
            assert!(
                matches!(dec.get_u64_slab(3), Err(StoreError::Truncated { .. })),
                "cut at {cut} must be Truncated"
            );
        }
    }

    #[test]
    fn oversized_count_cannot_allocate() {
        // Asks for usize::MAX words with 2 bytes of payload left.
        let mut dec = Decoder::new(&[0, 0]);
        assert!(matches!(
            dec.get_u64_slab(usize::MAX),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_corrupt() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xff, 0xfe]);
        let bytes = enc.into_bytes();
        assert!(matches!(
            Decoder::new(&bytes).get_str(),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut enc = Encoder::new();
        enc.put_u8(1);
        enc.put_u8(2);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        dec.get_u8().unwrap();
        assert!(matches!(
            dec.expect_exhausted("one byte"),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn slabs_are_the_little_endian_image() {
        let words = [1u64, u64::MAX, 0x0102_0304_0506_0708];
        let mut enc = Encoder::new();
        enc.put_u64_slab(&words);
        let mut by_word = Encoder::new();
        for w in words {
            by_word.put_u64(w);
        }
        assert_eq!(enc.as_bytes(), by_word.as_bytes());
        assert_eq!(&enc.as_bytes()[16..], &[8, 7, 6, 5, 4, 3, 2, 1]);
        let mut back = Vec::new();
        extend_u64s_from_le(&mut back, enc.as_bytes());
        assert_eq!(back, words);

        let ranks = [7u32, u32::MAX, 0x0a0b_0c0d];
        let mut bytes = [0u8; 12];
        u32s_to_le(&ranks, &mut bytes);
        assert_eq!(&bytes[8..], &[0x0d, 0x0c, 0x0b, 0x0a]);
        let mut back = Vec::new();
        extend_u32s_from_le(&mut back, &bytes);
        assert_eq!(back, ranks);
    }

    #[test]
    fn checksum_discriminates() {
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
        assert_ne!(checksum(b"abc"), checksum(b"abd"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }

    /// The value is part of the file format: it must not drift with
    /// the platform or a refactor. The constants come from a separate
    /// implementation of the definition in [`Checksum`]'s docs.
    #[test]
    fn checksum_is_pinned() {
        assert_eq!(checksum(b""), 0x1bdd_1b7e_f4fc_7952);
        let bytes: Vec<u8> = (0..100u8).collect();
        assert_eq!(checksum(&bytes), 0x9d65_6985_3094_c5ab);
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes()[7])
            .collect()
    }

    #[test]
    fn checksum_sees_every_single_bit_flip() {
        // Lengths around the 32-byte block and 8-byte word edges.
        for len in [1usize, 7, 8, 31, 32, 33, 64, 100] {
            let bytes = sample(len);
            let good = checksum(&bytes);
            for pos in 0..len {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[pos] ^= 1 << bit;
                    assert_ne!(checksum(&bad), good, "len {len} byte {pos} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn checksum_sees_swapped_words() {
        let bytes = sample(128);
        let good = checksum(&bytes);
        let words = bytes.len() / 8;
        for a in 0..words {
            for b in a + 1..words {
                let mut bad = bytes.clone();
                for i in 0..8 {
                    bad.swap(a * 8 + i, b * 8 + i);
                }
                assert_ne!(checksum(&bad), good, "words {a} and {b} swapped");
            }
        }
    }

    #[test]
    fn checksum_sees_a_dropped_tail() {
        // Zero tails are the hard case: padding makes the lanes agree,
        // the folded length must not.
        let mut bytes = sample(70);
        bytes[60..].fill(0);
        let good = checksum(&bytes);
        for keep in 0..bytes.len() {
            assert_ne!(checksum(&bytes[..keep]), good, "kept {keep}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// However the stream is cut into `update` calls, the checksum
        /// is that of the whole.
        #[test]
        fn checksum_chunked_equals_one_shot(
            bytes in prop::collection::vec(0u8..=255, 0..300),
            cuts in prop::collection::vec(0usize..300, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.push(bytes.len());
            cuts.sort_unstable();
            let mut sum = Checksum::new();
            let mut at = 0;
            for cut in cuts {
                sum.update(&bytes[at..cut]);
                at = cut;
            }
            prop_assert_eq!(sum.finish(), checksum(&bytes));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any u64 survives the varint round trip.
        #[test]
        fn varint_round_trip(v in 0u64..u64::MAX) {
            let mut enc = Encoder::new();
            enc.put_varint(v);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            prop_assert_eq!(dec.get_varint().unwrap(), v);
            prop_assert!(dec.is_exhausted());
        }

        /// Length-prefixed strings and counted slabs round trip through a
        /// shared buffer in order.
        #[test]
        fn composite_round_trip(
            s in "[ -~]{0,24}",
            hashes in prop::collection::vec(0u64..u64::MAX, 0..32),
        ) {
            let mut enc = Encoder::new();
            enc.put_str(&s);
            enc.put_u64_slab(&hashes);
            enc.put_u8(7);
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            prop_assert_eq!(dec.get_str().unwrap(), s);
            prop_assert_eq!(dec.get_u64_slab(hashes.len()).unwrap(), hashes);
            prop_assert_eq!(dec.rest(), &[7u8][..]);
            prop_assert_eq!(dec.get_u8().unwrap(), 7);
            prop_assert!(dec.is_exhausted());
        }

        /// Decoding an arbitrary prefix of a valid encoding never
        /// panics — it returns a typed error or a (shorter) value.
        #[test]
        fn prefix_decode_never_panics(
            hashes in prop::collection::vec(0u64..u64::MAX, 0..32),
            cut_frac in 0.0f64..1.0,
        ) {
            let mut enc = Encoder::new();
            enc.put_u64_slab(&hashes);
            let bytes = enc.into_bytes();
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            let mut dec = Decoder::new(&bytes[..cut.min(bytes.len())]);
            let _ = dec.get_u64_slab(hashes.len()); // must not panic
        }
    }
}
