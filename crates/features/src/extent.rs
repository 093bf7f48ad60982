//! Numeric extents as the index keeps them (**D** evidence, §III-C).
//!
//! What an index reads of a numeric attribute's values is their sorted
//! extent, and only through the two-sample KS statistic of Algorithm 2.
//! Lake numbers are mostly integers and decimals of a few places — ids,
//! counts, money, percentages — so a sorted extent is kept as scaled
//! integers `Dᵢ = vᵢ · 10ˢ` (the *pseudodecimals* of BtrBlocks,
//! Kuschewski et al., SIGMOD 2023), delta-coded, resident and on disk
//! alike. [`Extent`] is that encoding and nothing else, borrowed — as
//! `str` is to `String` — and [`NumericExtent`] owns one; [`Extents`]
//! keeps many end to end in one allocation. An engine holds one per
//! attribute, the store writes the bytes it holds, and opening a store
//! validates them and keeps them.
//!
//! ```text
//! count   varint n                      (an empty extent is this byte, 0)
//! scale   one byte: s ∈ 0..=MAX_SCALE, or 0xff for the raw form
//! scaled  zig-zag varint D₀, then n − 1 varint deltas Dᵢ − Dᵢ₋₁ (≥ 0: sorted)
//! raw     n × 8-byte little-endian bit patterns, sorted by total order
//! ```
//!
//! The encoder takes the **smallest** `s` for which every value `v`
//! has a `D` with `|D| < 2⁵²` and `(D as f64 / 10ˢ).to_bits() ==
//! v.to_bits()` — the division by an exactly represented power of ten
//! is correctly rounded, so decoding is that same division and every
//! value comes back as its own bits. Where no scale works (−0.0, ±∞,
//! subnormals, values with more digits than a double keeps) the extent
//! is the raw form. Both forms are exact, and the encoding is a function
//! of the values: equal extents are equal bytes.
//!
//! `|D| < 2⁵²` rather than the `2⁵³` every integer of a double reaches:
//! below it, consecutive integers divided by `10ˢ` are more than a unit
//! in the last place apart at every scale, so `D ↦ D / 10ˢ` is strictly
//! increasing and comparing two `D` of one scale *is* comparing their
//! values — which [`Extent::ks_statistic`] does, without decoding, for
//! any two extents a decoder accepts, not only those this encoder
//! wrote.

use std::borrow::Borrow;
use std::fmt;
use std::ops::{Deref, Range};

/// The largest scale: `10²²` is the largest power of ten a double holds
/// exactly. A format constant — the store's bytes depend on it.
pub const MAX_SCALE: u8 = 22;

/// The scale byte of the raw form.
const RAW: u8 = 0xff;

/// Scaled integers stay strictly inside `±2⁵²`.
const LIMIT: i64 = 1 << 52;

/// `10ˢ` for every scale, each exactly representable.
const POW10: [f64; MAX_SCALE as usize + 1] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// A sorted numeric extent in its one encoding (see the module docs),
/// borrowed: what a [`NumericExtent`] derefs to and an [`Extents`]
/// hands out. Equality is equality of the encodings, which for extents
/// built by [`NumericExtent::from_sorted`] is equality of the values,
/// bit for bit.
#[derive(PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct Extent {
    /// The encoding, count first — one this module wrote or
    /// [`Extent::read`] checked; empty for the empty extent, whose
    /// encoding is one zero byte that is not worth holding.
    bytes: [u8],
}

/// An owned [`Extent`].
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct NumericExtent {
    /// The encoding, as [`Extent::bytes`] holds it.
    bytes: Box<[u8]>,
}

/// Extents end to end in one allocation: extent `i` is the bytes from
/// the end of extent `i − 1` to `ends[i]`. What an engine keeps of its
/// attributes' extents, one per attribute, with no allocation of its
/// own.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Extents {
    /// The encodings, each as [`Extent::bytes`] holds it.
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

/// Why bytes are not an encoded [`NumericExtent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtentError {
    /// The bytes end inside the extent — a cut varint, a missing scale
    /// byte, or fewer bytes than the count needs.
    Truncated,
    /// A varint longer than ten bytes, or past `u64`.
    BadVarint,
    /// A scale byte that is neither a scale nor the raw form's.
    UnknownScale(u8),
    /// A scaled integer at or past `±2⁵²`, first or after a delta.
    OutOfRange,
    /// A NaN in the raw form: no distribution holds one.
    Nan,
    /// A raw form whose values are not in ascending total order.
    Unsorted,
    /// Bytes after the extent where there should be none.
    TrailingBytes(usize),
}

impl fmt::Display for ExtentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtentError::Truncated => write!(f, "numeric extent cut short"),
            ExtentError::BadVarint => write!(f, "numeric extent varint overflows u64"),
            ExtentError::UnknownScale(s) => write!(f, "numeric extent has unknown scale {s}"),
            ExtentError::OutOfRange => write!(f, "numeric extent value outside ±2^52"),
            ExtentError::Nan => write!(f, "numeric extent holds NaN"),
            ExtentError::Unsorted => write!(f, "numeric extent is not sorted"),
            ExtentError::TrailingBytes(n) => write!(f, "{n} bytes after the numeric extent"),
        }
    }
}

impl std::error::Error for ExtentError {}

impl NumericExtent {
    /// Encode `values`, sorted ascending by [`f64::total_cmp`] (as
    /// profiling sorts them). A NaN is not a value of any distribution
    /// and is left out — no cell parses to one.
    ///
    /// # Panics
    ///
    /// If `values` is not sorted.
    pub fn from_sorted(values: &[f64]) -> Self {
        assert!(
            values.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
            "a numeric extent is built from sorted values"
        );
        if values.iter().any(|v| v.is_nan()) {
            let kept: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
            return Self::from_sorted(&kept);
        }
        if values.is_empty() {
            return Self::default();
        }
        let mut out = Vec::with_capacity(2 + values.len() * 2);
        put_varint(&mut out, values.len() as u64);
        let head = out.len();
        for s in 0..=MAX_SCALE {
            if scaled_into(values, s, &mut out) {
                return NumericExtent { bytes: out.into() };
            }
            out.truncate(head);
        }
        out.push(RAW);
        for v in values {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        NumericExtent { bytes: out.into() }
    }

    /// Decode exactly one extent: [`NumericExtent::read`] with no byte
    /// left over.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ExtentError> {
        match Self::read(bytes)? {
            (extent, used) if used == bytes.len() => Ok(extent),
            (_, used) => Err(ExtentError::TrailingBytes(bytes.len() - used)),
        }
    }

    /// [`Extent::read`], owned.
    pub fn read(bytes: &[u8]) -> Result<(Self, usize), ExtentError> {
        Extent::read(bytes).map(|(extent, used)| (extent.to_owned(), used))
    }
}

impl Deref for NumericExtent {
    type Target = Extent;

    fn deref(&self) -> &Extent {
        Extent::of(&self.bytes)
    }
}

impl Borrow<Extent> for NumericExtent {
    fn borrow(&self) -> &Extent {
        self
    }
}

impl ToOwned for Extent {
    type Owned = NumericExtent;

    fn to_owned(&self) -> NumericExtent {
        NumericExtent {
            bytes: self.bytes.into(),
        }
    }
}

impl Extent {
    /// The empty extent.
    const EMPTY: &'static Extent = Extent::of(&[]);

    /// `bytes` — an encoding this module wrote or checked, or none —
    /// as an extent.
    const fn of(bytes: &[u8]) -> &Extent {
        // SAFETY: `Extent` is `repr(transparent)` over `[u8]`, so a
        // pointer to one is a pointer to the other, with the same length
        // metadata, and the borrow keeps `bytes`' lifetime.
        unsafe { &*(bytes as *const [u8] as *const Extent) }
    }

    /// Decode the extent at the start of `bytes`, returning it and the
    /// number of bytes it took. Every field is checked; the bytes are
    /// borrowed as they are, with no value decoded into memory.
    pub fn read(bytes: &[u8]) -> Result<(&Extent, usize), ExtentError> {
        let mut pos = 0;
        let n = get_varint(bytes, &mut pos)?;
        if n == 0 {
            return Ok((Extent::EMPTY, pos));
        }
        let scale = *bytes.get(pos).ok_or(ExtentError::Truncated)?;
        pos += 1;
        match scale {
            RAW => {
                if n > (bytes.len() - pos) as u64 / 8 {
                    return Err(ExtentError::Truncated);
                }
                let raw = &bytes[pos..pos + 8 * n as usize];
                let mut prev = f64::NEG_INFINITY;
                for v in raw.chunks_exact(8).map(f64_of) {
                    if v.is_nan() {
                        return Err(ExtentError::Nan);
                    }
                    if prev.total_cmp(&v).is_gt() {
                        return Err(ExtentError::Unsorted);
                    }
                    prev = v;
                }
                pos += raw.len();
            }
            s if s <= MAX_SCALE => {
                let first = unzigzag(get_varint(bytes, &mut pos)?);
                if first <= -LIMIT || first >= LIMIT {
                    return Err(ExtentError::OutOfRange);
                }
                // The deltas are not negative, so the last value is the
                // largest: their sum must stay below `LIMIT - D₀`.
                pos += check_deltas(&bytes[pos..], n - 1, (LIMIT - first) as u64)?;
            }
            other => return Err(ExtentError::UnknownScale(other)),
        }
        Ok((Extent::of(&bytes[..pos]), pos))
    }

    /// The encoding, as the store writes it.
    pub fn as_bytes(&self) -> &[u8] {
        if self.bytes.is_empty() {
            &[0]
        } else {
            &self.bytes
        }
    }

    /// Bytes held in memory: the encoding, none for an empty extent.
    pub fn byte_size(&self) -> usize {
        self.bytes.len()
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.body().map_or(0, |b| b.n)
    }

    /// True when the extent holds no value.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The scale of the scaled form; `None` for the raw form and for the
    /// empty extent.
    pub fn scale(&self) -> Option<u8> {
        self.body().map(|b| b.scale).filter(|&s| s != RAW)
    }

    /// The values, ascending, each exactly the bits it was built from.
    pub fn values(&self) -> Values<'_> {
        match self.body() {
            Some(body) => body.values(),
            None => Values(Form::Raw([].chunks_exact(8))),
        }
    }

    /// The two-sample KS statistic of two extents: bit for bit what
    /// [`crate::ks::ks_statistic_presorted`] returns on their decoded
    /// values, with no value buffer. Extents of one scale are compared
    /// as their integers `D`, which order as their values do (module
    /// docs); any other pair is compared as decoded values.
    pub fn ks_statistic(&self, other: &Extent) -> f64 {
        let (Some(a), Some(b)) = (self.body(), other.body()) else {
            return 1.0;
        };
        if a.scale == b.scale && a.scale != RAW {
            ks_merge(a.n, b.n, a.scaled(), b.scaled())
        } else {
            ks_merge(a.n, b.n, a.values(), b.values())
        }
    }

    /// Count, scale and the bytes after them; `None` when empty.
    fn body(&self) -> Option<Body<'_>> {
        if self.bytes.is_empty() {
            return None;
        }
        let mut pos = 0;
        let n = varint(&self.bytes, &mut pos) as usize;
        Some(Body {
            n,
            scale: self.bytes[pos],
            data: &self.bytes[pos + 1..],
        })
    }
}

impl fmt::Debug for Extent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

impl fmt::Debug for NumericExtent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl Extents {
    /// Number of extents.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there is no extent.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Extent `i`.
    pub fn get(&self, i: usize) -> &Extent {
        Extent::of(&self.bytes[self.start(i)..self.ends[i] as usize])
    }

    /// Append an extent.
    pub fn push(&mut self, extent: &Extent) {
        self.bytes.extend_from_slice(&extent.bytes);
        let end = u32::try_from(self.bytes.len()).expect("extent bytes fit u32 offsets");
        self.ends.push(end);
    }

    /// Remove extents `range`; those after it move down.
    pub fn remove(&mut self, range: Range<usize>) {
        let (from, to) = (self.start(range.start), self.start(range.end));
        self.bytes.drain(from..to);
        self.ends.drain(range.clone());
        let gone = (to - from) as u32;
        self.ends[range.start..].iter_mut().for_each(|e| *e -= gone);
    }

    /// Bytes held: the encodings and one `u32` end each.
    pub fn byte_size(&self) -> usize {
        self.bytes.len() + self.ends.len() * std::mem::size_of::<u32>()
    }

    /// Release spare capacity.
    pub fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
    }

    /// Where extent `i` starts (the end of the bytes when `i` is the
    /// count).
    fn start(&self, i: usize) -> usize {
        match i {
            0 => 0,
            i => self.ends[i - 1] as usize,
        }
    }
}

impl fmt::Debug for Extents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len()).map(|i| self.get(i)))
            .finish()
    }
}

/// A non-empty, validated extent past its count and scale.
struct Body<'a> {
    n: usize,
    scale: u8,
    data: &'a [u8],
}

impl<'a> Body<'a> {
    fn scaled(&self) -> Scaled<'a> {
        let mut pos = 0;
        let first = unzigzag(varint(self.data, &mut pos));
        Scaled {
            data: self.data,
            pos,
            next: Some(first),
        }
    }

    fn values(&self) -> Values<'a> {
        Values(match self.scale {
            RAW => Form::Raw(self.data.chunks_exact(8)),
            s => Form::Scaled(self.scaled(), POW10[s as usize]),
        })
    }
}

/// The integers `D` of a validated scaled form, in order: `next` is
/// the one to return, and the deltas still to add start at `pos`.
struct Scaled<'a> {
    data: &'a [u8],
    pos: usize,
    next: Option<i64>,
}

impl Iterator for Scaled<'_> {
    type Item = i64;

    #[inline]
    fn next(&mut self) -> Option<i64> {
        let d = self.next?;
        self.next =
            (self.pos < self.data.len()).then(|| d + varint(self.data, &mut self.pos) as i64);
        Some(d)
    }
}

/// The values of a [`NumericExtent`], ascending
/// ([`Extent::values`]).
pub struct Values<'a>(Form<'a>);

enum Form<'a> {
    /// The integers and `10ˢ`.
    Scaled(Scaled<'a>, f64),
    Raw(std::slice::ChunksExact<'a, u8>),
}

impl Iterator for Values<'_> {
    type Item = f64;

    #[inline]
    fn next(&mut self) -> Option<f64> {
        match &mut self.0 {
            Form::Scaled(d, pow) => d.next().map(|d| d as f64 / *pow),
            Form::Raw(chunks) => chunks.next().map(f64_of),
        }
    }
}

/// [`crate::ks::ks_statistic_presorted`]'s merge over two ascending
/// streams of `n` and `m` values with no NaN: the same cursor steps and
/// the same float operations, so the same bits. Every step moves a
/// cursor — the one at the smaller value — so it ends.
fn ks_merge<T: PartialOrd + Copy>(
    n: usize,
    m: usize,
    mut xs: impl Iterator<Item = T>,
    mut ys: impl Iterator<Item = T>,
) -> f64 {
    let (nf, mf) = (n as f64, m as f64);
    let (mut x, mut y) = (xs.next(), ys.next());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while let (Some(a), Some(b)) = (x, y) {
        let t = if b < a { b } else { a };
        while let Some(a) = x {
            if a > t {
                break;
            }
            i += 1;
            x = xs.next();
        }
        while let Some(b) = y {
            if b > t {
                break;
            }
            j += 1;
            y = ys.next();
        }
        d = d.max((i as f64 / nf - j as f64 / mf).abs());
    }
    d.min(1.0)
}

/// Try scale `s`: append the scale byte and the scaled form of
/// `values`, or return false (and leave what was appended to the
/// caller) when a value has no `D` at this scale.
fn scaled_into(values: &[f64], s: u8, out: &mut Vec<u8>) -> bool {
    let pow = POW10[s as usize];
    out.push(s);
    let mut prev = None;
    for &v in values {
        let Some(d) = scaled(v, pow) else {
            return false;
        };
        match prev {
            None => put_varint(out, zigzag(d)),
            Some(p) => match u64::try_from(d - p) {
                Ok(delta) => put_varint(out, delta),
                Err(_) => return false,
            },
        }
        prev = Some(d);
    }
    true
}

/// The `D` with `|D| < 2⁵²` that decodes to `v`'s bits at `10ˢ = pow`,
/// if there is one. There is at most one (`D ↦ D / 10ˢ` is strictly
/// increasing there), and `v · 10ˢ` rounds to within one of it — the
/// two roundings are off by under `|D| · 2⁻⁵²` — so three candidates
/// decide.
fn scaled(v: f64, pow: f64) -> Option<i64> {
    let r = (v * pow).round();
    if r.is_nan() || r.abs() > LIMIT as f64 {
        return None;
    }
    let r = r as i64;
    [r, r - 1, r + 1]
        .into_iter()
        .find(|&d| d.abs() < LIMIT && (d as f64 / pow).to_bits() == v.to_bits())
}

fn f64_of(bytes: &[u8]) -> f64 {
    f64::from_bits(u64::from_le_bytes(bytes.try_into().expect("8-byte chunk")))
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// LEB128, as the store writes its varints.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Check that `data` starts with `count` varints summing to under
/// `room`, and return the bytes they take. It walks bytes, not
/// varints: each byte's payload goes in at its place in the current
/// varint with no branch on where a varint ends, which a mix of one-,
/// two- and three-byte deltas would mispredict at every other value.
fn check_deltas(data: &[u8], count: u64, room: u64) -> Result<usize, ExtentError> {
    if count == 0 {
        return Ok(0);
    }
    // A saturated sum is past any `room`.
    let (mut sum, mut value, mut shift, mut seen) = (0u64, 0u64, 0u32, 0u64);
    for (i, &byte) in data.iter().enumerate() {
        // A tenth byte holds the last bit of a `u64` and ends the varint.
        if shift == 63 && byte > 1 {
            return Err(ExtentError::BadVarint);
        }
        value |= u64::from(byte & 0x7f) << shift;
        // All ones while the varint goes on, zero at its last byte.
        let more = u64::from(byte >> 7).wrapping_neg();
        sum = sum.saturating_add(value & !more);
        value &= more;
        shift = (shift + 7) & more as u32;
        seen += u64::from(byte < 0x80);
        if seen == count {
            if sum >= room {
                return Err(ExtentError::OutOfRange);
            }
            return Ok(i + 1);
        }
    }
    Err(ExtentError::Truncated)
}

/// A checked LEB128 read.
#[inline]
fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, ExtentError> {
    let mut v = 0u64;
    for (i, &byte) in bytes[*pos..].iter().take(10).enumerate() {
        if i == 9 && byte > 1 {
            return Err(ExtentError::BadVarint);
        }
        v |= u64::from(byte & 0x7f) << (7 * i);
        if byte < 0x80 {
            *pos += i + 1;
            return Ok(v);
        }
    }
    Err(ExtentError::Truncated)
}

/// An unchecked LEB128 read of bytes [`NumericExtent::read`] or the
/// encoder already vouched for.
#[inline]
fn varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let byte = bytes[*pos];
    *pos += 1;
    if byte < 0x80 {
        return u64::from(byte);
    }
    let mut v = u64::from(byte & 0x7f);
    let mut shift = 7;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return v;
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ks::ks_statistic_presorted;

    fn round_trip(values: &[f64]) -> NumericExtent {
        let e = NumericExtent::from_sorted(values);
        let back: Vec<u64> = e.values().map(f64::to_bits).collect();
        let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(back, want, "{values:?}");
        assert_eq!(e.len(), values.len());
        assert_eq!(NumericExtent::from_bytes(e.as_bytes()).unwrap(), e);
        e
    }

    #[test]
    fn integers_money_and_the_rest() {
        let ints = round_trip(&[-3.0, 0.0, 7.0, 7.0, 1202.0]);
        assert_eq!(ints.scale(), Some(0));
        // count, scale, zig-zag -3 = 5, deltas 3 7 0 1195 (two bytes).
        assert_eq!(ints.as_bytes(), &[5, 0, 5, 3, 7, 0, 0xab, 0x09]);
        assert_eq!(round_trip(&[0.07, 12.5, 19.99]).scale(), Some(2));
        assert_eq!(round_trip(&[1e-20]).scale(), Some(20));
        for raw in [
            &[-0.0, 0.0][..],
            &[1.0, f64::INFINITY],
            &[f64::NEG_INFINITY],
            &[f64::MIN_POSITIVE / 4.0],
            &[0.1 + 0.2],
            &[4_503_599_627_370_496.0], // 2^52
        ] {
            assert_eq!(round_trip(raw).scale(), None, "{raw:?}");
        }
        assert_eq!(round_trip(&[4_503_599_627_370_495.0]).scale(), Some(0));
        let empty = round_trip(&[]);
        assert_eq!((empty.as_bytes(), empty.byte_size()), (&[0u8][..], 0));
    }

    /// An arena hands back each extent it was given, empty ones
    /// included — owned or read from bytes — through removals on
    /// either side.
    #[test]
    fn extents_keep_each_extent_apart() {
        let owned: Vec<NumericExtent> = [&[1.0, 2.0][..], &[], &[0.5], &[-0.0, 0.0], &[7.0]]
            .iter()
            .map(|v| NumericExtent::from_sorted(v))
            .collect();
        let mut arena = Extents::default();
        for (i, e) in owned.iter().enumerate() {
            if i % 2 == 0 {
                arena.push(e);
            } else {
                let bytes = [e.as_bytes(), &[9, 9]].concat();
                let (read, used) = Extent::read(&bytes).unwrap();
                assert_eq!(used, e.as_bytes().len());
                arena.push(read);
            }
        }
        let held = |a: &Extents| {
            (0..a.len())
                .map(|i| a.get(i).to_owned())
                .collect::<Vec<_>>()
        };
        assert_eq!(held(&arena), owned);
        let encoded: usize = owned.iter().map(|e| e.byte_size()).sum();
        assert_eq!(arena.byte_size(), encoded + 5 * 4);
        arena.remove(1..3);
        assert_eq!(held(&arena), [&owned[..1], &owned[3..]].concat());
        arena.remove(0..1);
        arena.remove(1..2);
        assert_eq!(held(&arena), owned[3..4]);
    }

    #[test]
    fn nan_is_left_out() {
        let e = NumericExtent::from_sorted(&[-f64::NAN, 1.0, 2.0, f64::NAN]);
        assert_eq!(e, NumericExtent::from_sorted(&[1.0, 2.0]));
    }

    #[test]
    fn decode_errors_are_typed() {
        let read = |b: &[u8]| NumericExtent::from_bytes(b).unwrap_err();
        assert_eq!(read(&[]), ExtentError::Truncated);
        assert_eq!(read(&[2]), ExtentError::Truncated);
        assert_eq!(read(&[3, 0, 1, 1]), ExtentError::Truncated);
        assert_eq!(read(&[1, 23, 0]), ExtentError::UnknownScale(23));
        assert_eq!(read(&[1, 0, 0, 0]), ExtentError::TrailingBytes(1));
        // 2^52 as a first value, and reached by a delta.
        let mut first = vec![1, 0];
        put_varint(&mut first, zigzag(LIMIT));
        assert_eq!(read(&first), ExtentError::OutOfRange);
        let mut delta = vec![2, 0];
        put_varint(&mut delta, zigzag(LIMIT - 1));
        put_varint(&mut delta, 1);
        assert_eq!(read(&delta), ExtentError::OutOfRange);
        let mut huge = vec![2, 0, 0];
        put_varint(&mut huge, u64::MAX);
        assert_eq!(read(&huge), ExtentError::OutOfRange);
        // Zig-zag `u64::MAX` is `i64::MIN`, which has no absolute value.
        let mut min = vec![1, 0];
        put_varint(&mut min, u64::MAX);
        assert_eq!(read(&min), ExtentError::OutOfRange);
        // Two deltas that reach 2⁵² only together.
        let mut sum = vec![3, 0, 0];
        put_varint(&mut sum, 1 << 51);
        put_varint(&mut sum, 1 << 51);
        assert_eq!(read(&sum), ExtentError::OutOfRange);
        // A delta past `u64`: a tenth byte with more than one bit.
        let past_u64 = [&[2, 0, 0][..], &[0x80; 9], &[0x02]].concat();
        assert_eq!(read(&past_u64), ExtentError::BadVarint);
        assert_eq!(read(&[0x80; 11]), ExtentError::BadVarint);
        assert_eq!(read(&[2, 0, 0, 0x80]), ExtentError::Truncated);
        let raw = |vs: &[f64]| {
            let mut b = vec![vs.len() as u8, RAW];
            vs.iter()
                .for_each(|v| b.extend_from_slice(&v.to_bits().to_le_bytes()));
            b
        };
        assert_eq!(read(&raw(&[1.0, f64::NAN])), ExtentError::Nan);
        assert_eq!(read(&raw(&[2.0, 1.0])), ExtentError::Unsorted);
        assert_eq!(read(&raw(&[0.0, -0.0])), ExtentError::Unsorted);
        assert!(NumericExtent::from_bytes(&raw(&[-0.0, 0.0])).is_ok());
    }

    #[test]
    fn ks_matches_the_slice_statistic() {
        let extents: [&[f64]; 7] = [
            &[1.0, 2.0, 3.0, 4.0],
            &[2.0, 5.0, 8.0],
            &[0.5, 2.0, 2.0, 9.25],
            &[-0.0, 0.0, 3.0],
            &[0.0, 3.0, f64::INFINITY],
            &[],
            &[3.0],
        ];
        for a in extents {
            for b in extents {
                let got =
                    NumericExtent::from_sorted(a).ks_statistic(&NumericExtent::from_sorted(b));
                assert_eq!(
                    got.to_bits(),
                    ks_statistic_presorted(a, b).to_bits(),
                    "{a:?} {b:?}"
                );
            }
        }
    }
}
