//! MinHash (Broder 1997): fixed-length signatures whose per-position
//! collision probability equals the Jaccard similarity of the
//! underlying sets.
//!
//! # Stored width
//!
//! A position's value is the minimum, over the set's tokens, of a
//! 64-bit mix — and the signature keeps the **low 32 bits** of that
//! minimum, two positions to a `u64` word: position `i` is half
//! `i & 1` (0 = low) of word `i / 2`, and an odd position count leaves
//! the last high half zero. A 256-permutation signature is 128 words,
//! 1 024 bytes. Nothing downstream needs the other half:
//!
//! * the forest's tree labels read the **low byte** of a position
//!   (`forest::write_labels`), which is the low byte of the low half —
//!   the same byte the full minimum has, so every tree, candidate set
//!   and descent is what 64-bit storage gives;
//! * similarity only asks whether two positions are *equal*. Equal
//!   minima have equal low halves; unequal minima agree in the low
//!   half with probability 2⁻³² per position, i.e. the Jaccard
//!   estimate is biased upward by at most 2⁻³² — eight orders of
//!   magnitude under the estimator's own standard error (up to 2⁻⁵
//!   at 256 positions).
//!
//! This module owns that decision: [`MinHasher::sign_into`] packs,
//! `position` unpacks, and [`MinHashSignature::jaccard_words`]
//! counts agreeing halves ([`crate::kernels::agreement_count`]). The
//! forest, its arena and the store move `(words, meta)` without
//! knowing what a word holds; `meta` is the position count.
//!
//! # Two loops, one signature
//!
//! A hasher keeps its multipliers `a_i` and offsets `b_i` as two
//! arrays padded to a block of 32 positions, and signs with one of two
//! loops that write the same words for every input (`min` is exact;
//! `lane_signing_matches_min_mix` holds them word for word):
//!
//! * **permutation-major** (`min_mix`): one position at a time, its
//!   `(a, b)` in registers, the token hashes one contiguous scan. The
//!   portable path, bound by the scalar 64-bit multiplier.
//! * **across positions** (`kernels::min_sign_across`): one token hash
//!   at a time against 32 positions' running minimums. Worth it only
//!   where a register multiplies eight 64-bit lanes, so it ships
//!   compiled for AVX-512 F/DQ/VL alone (measured 2.9–4.8× `min_mix`
//!   on generated sets at 256 positions): compiled for baseline x86-64
//!   the same source is 1.5–2.5× *slower* than `min_mix` (SSE2 has no
//!   64-bit multiply), and compiled for AVX2 it measured 0.9–1.0× —
//!   so no third tier.
//!
//! Which one runs is decided once, in [`MinHasher::new`], by asking
//! the CPU ([`SigningLanes::detect`]).

use crate::hash::{hash_str, splitmix64, UniversalHasher};
use crate::kernels::{agreement_count, SigningLanes, SIGN_BLOCK};
use crate::tokenset::TokenSet;

/// Position `i` of a packed signature: half `i & 1` of word `i / 2`.
#[inline]
pub(crate) fn position(words: &[u64], i: usize) -> u32 {
    (words[i / 2] >> (32 * (i & 1))) as u32
}

/// A MinHash signature: `len` 32-bit minimum hash values, packed two
/// to a word (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHashSignature {
    /// `len.div_ceil(2)` packed words.
    words: Vec<u64>,
    /// Number of positions.
    len: usize,
}

impl MinHashSignature {
    /// A signature of `len` positions over its packed words. Panics
    /// unless there are exactly `len.div_ceil(2)` of them.
    pub(crate) fn from_packed(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(words.len(), len.div_ceil(2), "two positions to a word");
        MinHashSignature { words, len }
    }

    /// Signature length in positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the degenerate zero-length signature.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Estimate Jaccard similarity as the fraction of agreeing
    /// positions. Panics if lengths differ (signatures must come from
    /// the same [`MinHasher`]).
    pub fn jaccard(&self, other: &MinHashSignature) -> f64 {
        assert_eq!(self.len, other.len, "signature length mismatch");
        Self::jaccard_words(&self.words, &other.words, self.len)
    }

    /// [`MinHashSignature::jaccard`] of two signatures of `len`
    /// positions given as their packed words — the forest's flat
    /// signature arena scores candidates through this without
    /// materializing a signature on either side.
    pub fn jaccard_words(a: &[u64], b: &[u64], len: usize) -> f64 {
        debug_assert_eq!(a.len(), len.div_ceil(2), "two positions to a word");
        assert_eq!(a.len(), b.len(), "signature length mismatch");
        if len == 0 {
            return 0.0;
        }
        // Words whose halves are both positions; an odd count leaves
        // one more word whose high half is padding and is not counted.
        let full = len / 2;
        let mut agree = agreement_count(&a[..full], &b[..full]);
        if len % 2 == 1 {
            agree += usize::from(a[full] as u32 == b[full] as u32);
        }
        agree as f64 / len as f64
    }

    /// The packed words (flat-storage layout).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Stored footprint in bytes (space accounting).
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }
}

/// Factory producing MinHash signatures with a fixed permutation
/// family. The paper uses `num_perm = 256`.
#[derive(Debug, Clone)]
pub struct MinHasher {
    num_perm: usize,
    /// Multiplier of each position's `h ↦ splitmix64(a·h + b)` (the
    /// [`UniversalHasher`] family's), zero-padded to whole
    /// [`SIGN_BLOCK`]s.
    a: Vec<u64>,
    /// The offsets, padded alike.
    b: Vec<u64>,
    lanes: SigningLanes,
}

/// Default signature size used across the reproduction (paper §V).
pub const DEFAULT_NUM_PERM: usize = 256;

impl MinHasher {
    /// A hasher with `num_perm` simulated permutations.
    pub fn new(num_perm: usize, seed: u64) -> Self {
        let family = UniversalHasher::new(num_perm, seed);
        let padded = num_perm.next_multiple_of(SIGN_BLOCK);
        let (mut a, mut b): (Vec<u64>, Vec<u64>) = family.params().iter().copied().unzip();
        a.resize(padded, 0);
        b.resize(padded, 0);
        MinHasher {
            num_perm,
            a,
            b,
            lanes: SigningLanes::detect(),
        }
    }

    /// This hasher, signing with the portable loop whatever the CPU
    /// has — how the tests reach both loops on one machine.
    #[cfg(test)]
    pub(crate) fn portable(mut self) -> Self {
        self.lanes = SigningLanes::PORTABLE;
        self
    }

    /// Sign with the across-position loop as the baseline target
    /// compiles it — the compilation that does not ship, which the
    /// equality suite still runs on every CPU and the gate prices.
    #[cfg(test)]
    pub(crate) fn sign_across_baseline(&self, hashes: &[u64], out: &mut [u64]) {
        crate::kernels::min_sign_across_baseline(&self.a, &self.b, self.num_perm, hashes, out)
    }

    /// Number of permutations (signature length).
    pub fn num_perm(&self) -> usize {
        self.num_perm
    }

    /// Bytes held: the padded multipliers and offsets.
    pub fn byte_size(&self) -> usize {
        (self.a.len() + self.b.len()) * std::mem::size_of::<u64>()
    }

    /// The `(a_i, b_i)` of every position, in order.
    fn params(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let n = self.num_perm;
        self.a[..n].iter().copied().zip(self.b[..n].iter().copied())
    }

    /// Signature of a set of string tokens. The empty set gets a
    /// signature of all `u32::MAX`, which collides only with other
    /// empty sets.
    pub fn sign_strs<'a, I: IntoIterator<Item = &'a str>>(&self, items: I) -> MinHashSignature {
        self.sign_hashes(items.into_iter().map(hash_str))
    }

    /// Signature of an iterator of pre-hashed tokens (buffers the
    /// hashes, then runs the [`MinHasher::sign_hashed`] fast path).
    pub fn sign_hashes<I: IntoIterator<Item = u64>>(&self, hashes: I) -> MinHashSignature {
        let buf: Vec<u64> = hashes.into_iter().collect();
        self.sign_hashed(&buf)
    }

    /// Signature of a [`TokenSet`] — the indexing-side hot path: the
    /// set's tokens were hashed once at profile time and the
    /// signature is derived straight from the stored hashes, with no
    /// re-tokenization or string hashing.
    pub fn sign_token_set(&self, tokens: &TokenSet) -> MinHashSignature {
        self.sign_hashed(tokens.as_slice())
    }

    /// Signature of a slice of pre-hashed tokens: allocate, then
    /// [`MinHasher::sign_into`].
    pub fn sign_hashed(&self, hashes: &[u64]) -> MinHashSignature {
        let (words, len) = self.sig_shape();
        let mut sig = vec![0u64; words];
        self.sign_into(hashes, &mut sig);
        MinHashSignature::from_packed(sig, len as usize)
    }

    /// `(words, meta)` of every signature this hasher writes — the
    /// shape [`crate::forest::LshForest::insert_with`] reserves a
    /// slot of: two positions to a word, `meta` the position count.
    pub fn sig_shape(&self) -> (usize, u64) {
        Self::sig_shape_of(self.num_perm)
    }

    /// [`MinHasher::sig_shape`] of a hasher of `num_perm` positions,
    /// without building one.
    pub fn sig_shape_of(num_perm: usize) -> (usize, u64) {
        (num_perm.div_ceil(2), num_perm as u64)
    }

    /// Write the packed signature of a slice of pre-hashed tokens into
    /// `out` (exactly `num_perm.div_ceil(2)` words, overwritten) — the
    /// index build signs straight into a forest's signature arena
    /// through this. Each position is the low 32 bits of
    /// `min_x splitmix64(a_i·x + b_i)`; the mix and the running
    /// minimum stay 64 bits wide, so a position is exactly the
    /// truncation of the value a one-word-per-position signature
    /// would hold. Duplicate hashes are harmless (minimums ignore
    /// multiplicity).
    pub fn sign_into(&self, hashes: &[u64], out: &mut [u64]) {
        assert_eq!(
            out.len(),
            self.num_perm.div_ceil(2),
            "signature length mismatch"
        );
        #[cfg(target_arch = "x86_64")]
        if self.lanes.is_avx512() {
            // SAFETY: `is_avx512` is true only for the value
            // `SigningLanes::detect` returns after
            // `is_x86_feature_detected!` reported avx512f, avx512dq
            // and avx512vl on this CPU — the features the callee is
            // compiled for.
            unsafe {
                crate::kernels::min_sign_across_avx512(&self.a, &self.b, self.num_perm, hashes, out)
            };
            return;
        }
        let mut params = self.params();
        for word in out.iter_mut() {
            let lo = params.next().map_or(0, |perm| min_mix(perm, hashes) as u32);
            let hi = params.next().map_or(0, |perm| min_mix(perm, hashes) as u32);
            *word = u64::from(lo) | u64::from(hi) << 32;
        }
    }

    /// The one-word-per-position signature [`MinHasher::sign_into`]
    /// wrote before positions were packed: the full 64-bit minimum of
    /// every permutation. The oracle the packed layout is tested
    /// against.
    #[cfg(test)]
    pub(crate) fn sign_into_oracle(&self, hashes: &[u64], out: &mut [u64]) {
        assert_eq!(out.len(), self.num_perm, "signature length mismatch");
        for (slot, perm) in out.iter_mut().zip(self.params()) {
            *slot = min_mix(perm, hashes);
        }
    }
}

/// `min_x splitmix64(a·x + b)` over the token hashes, `u64::MAX` for
/// none. Permutation-major: `(a, b)` stays in registers and the token
/// hashes are one contiguous scan. The scan runs four independent
/// running minimums over token lanes (`chunks_exact` windows, one
/// minimum per in-chunk position) and folds them as
/// `min(min(m0, m1), min(m2, m3), tail)` — `min` is associative and
/// commutative, so the result is bit-identical to the single
/// sequential minimum while the mix/compare work runs as packed
/// vector lanes instead of one serial chain (fixed-width windows are
/// what the auto-vectorizer recognizes; manual `i`, `i + 1`, …
/// indexing is not).
#[inline]
fn min_mix((a, b): (u64, u64), hashes: &[u64]) -> u64 {
    let mix = |h: u64| splitmix64(a.wrapping_mul(h).wrapping_add(b));
    let mut m = [u64::MAX; 4];
    let mut ch = hashes.chunks_exact(4);
    for c in &mut ch {
        for l in 0..4 {
            m[l] = m[l].min(mix(c[l]));
        }
    }
    let mut min = m[0].min(m[1]).min(m[2].min(m[3]));
    for &h in ch.remainder() {
        min = min.min(mix(h));
    }
    min
}

/// Exact Jaccard similarity of two hashed token sets: a linear
/// merge-intersection over the sorted vecs, for tests and for the
/// paper's exact-distance formulas (§III-B).
pub fn exact_jaccard(a: &TokenSet, b: &TokenSet) -> f64 {
    a.jaccard(b)
}

/// Token sets the signing loops and the packed layout are compared
/// with their oracles on: empty, singleton, with repeated tokens,
/// beyond 1 000 tokens, and — so that pairs of them agree in some
/// positions and not in others — drawn from a universe small enough
/// to overlap.
#[cfg(test)]
pub(crate) fn generated_token_sets(count: usize) -> Vec<Vec<u64>> {
    let mut state = 0x0dd5_e751_u64;
    let mut next = move |below: u64| {
        state = splitmix64(state);
        state % below
    };
    (0..count)
        .map(|i| {
            let len = match i % 100 {
                0 => 0,
                1 => 1,
                2 => 1001 + next(200) as usize,
                _ => 2 + next(60) as usize,
            };
            let universe = if len > 1000 { 1500 } else { 80 };
            let mut set: Vec<u64> = (0..len)
                .map(|_| splitmix64(next(universe) ^ 0x70_6b))
                .collect();
            if i % 3 == 0 && len > 1 {
                set.extend_from_within(..len / 2);
            }
            set
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> TokenSet {
        TokenSet::from_strs(items.iter().copied())
    }

    #[test]
    fn identical_sets_have_similarity_one() {
        let mh = MinHasher::new(128, 7);
        let a = mh.sign_strs(["x", "y", "z"]);
        let b = mh.sign_strs(["z", "y", "x"]);
        assert!((a.jaccard(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_sets_have_similarity_near_zero() {
        let mh = MinHasher::new(256, 7);
        let a = mh.sign_strs(["a", "b", "c", "d"]);
        let b = mh.sign_strs(["e", "f", "g", "h"]);
        assert!(a.jaccard(&b) < 0.05);
    }

    #[test]
    fn estimate_tracks_exact_jaccard() {
        let mh = MinHasher::new(256, 11);
        // |A ∩ B| = 50, |A ∪ B| = 150 → J = 1/3.
        let a_items: Vec<String> = (0..100).map(|i| format!("tok{i}")).collect();
        let b_items: Vec<String> = (50..150).map(|i| format!("tok{i}")).collect();
        let a = mh.sign_strs(a_items.iter().map(String::as_str));
        let b = mh.sign_strs(b_items.iter().map(String::as_str));
        let est = a.jaccard(&b);
        assert!(
            (est - 1.0 / 3.0).abs() < 0.1,
            "estimate {est} too far from 1/3"
        );
    }

    #[test]
    fn empty_set_signature() {
        let mh = MinHasher::new(16, 1);
        let e1 = mh.sign_strs([]);
        let e2 = mh.sign_strs([]);
        let a = mh.sign_strs(["x"]);
        assert!((e1.jaccard(&e2) - 1.0).abs() < 1e-12);
        assert!(e1.jaccard(&a) < 1e-12);
        assert_eq!(e1.byte_size(), 16 * 4);
    }

    #[test]
    fn exact_jaccard_reference() {
        let a = set(&["x", "y"]);
        let b = set(&["y", "z"]);
        assert!((exact_jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-12);
        assert!((exact_jaccard(&a, &a) - 1.0).abs() < 1e-12);
        let e = TokenSet::new();
        assert!((exact_jaccard(&e, &e) - 1.0).abs() < 1e-12);
        assert!(exact_jaccard(&a, &e) < 1e-12);
    }

    #[test]
    fn token_set_signing_matches_string_signing() {
        // The one-pass hashed fast path must be bit-identical to
        // signing the token strings directly.
        let mh = MinHasher::new(128, 9);
        let items = ["portland", "oxford", "salford", "m1", "3be"];
        let by_strs = mh.sign_strs(items);
        let by_set = mh.sign_token_set(&set(&items));
        assert_eq!(by_strs, by_set);
        // And empty sets through both paths.
        assert_eq!(mh.sign_strs([]), mh.sign_token_set(&TokenSet::new()));
    }

    /// `sign_into` overwrites a dirty slot with exactly the signature
    /// `sign_hashed` returns, and the oracle it is the truncation of is
    /// the per-token × per-permutation definition, on random token
    /// sets of every tail length.
    #[test]
    fn sign_into_matches_sign_hashed_and_the_definition() {
        let mh = MinHasher::new(48, 13);
        let mut state = 0x5eed_u64;
        for n in (0..40).chain([255, 1000]) {
            let hashes: Vec<u64> = (0..n)
                .map(|_| {
                    state = splitmix64(state);
                    state
                })
                .collect();
            let mut slot = vec![0xdead_beef_u64; 24];
            mh.sign_into(&hashes, &mut slot);
            assert_eq!(slot, mh.sign_hashed(&hashes).words(), "{n} tokens");
            let mut oracle = vec![0xdead_beef_u64; 48];
            mh.sign_into_oracle(&hashes, &mut oracle);
            let naive: Vec<u64> = mh
                .params()
                .map(|(a, b)| {
                    hashes
                        .iter()
                        .map(|&h| splitmix64(a.wrapping_mul(h).wrapping_add(b)))
                        .min()
                        .unwrap_or(u64::MAX)
                })
                .collect();
            assert_eq!(oracle, naive, "{n} tokens");
        }
        assert_eq!(mh.sig_shape(), (24, 48));
    }

    /// The packed layout against one full-width word per position, at
    /// even, odd and single-position lengths: every position is the
    /// truncation of the oracle's, every label byte is the oracle's,
    /// and no pair of signatures agrees anywhere the oracle's do not.
    #[test]
    fn packed_signatures_match_the_one_word_oracle() {
        use crate::forest::write_labels;
        use crate::kernels::agreement_count_u64;
        use crate::signature::Signature;

        let sets = generated_token_sets(2000);
        assert!(sets.iter().any(Vec::is_empty) && sets.iter().any(|s| s.len() > 1000));
        for num_perm in [1usize, 2, 63, 64, 65, 255, 256] {
            let mh = MinHasher::new(num_perm, 41);
            let mut previous: Option<(MinHashSignature, Vec<u64>)> = None;
            let mut agreeing_pairs = 0usize;
            for set in &sets {
                let packed = mh.sign_hashed(set);
                let mut oracle = vec![0u64; num_perm];
                mh.sign_into_oracle(set, &mut oracle);
                assert_eq!(packed.len(), num_perm);
                assert_eq!(packed.words().len(), num_perm.div_ceil(2));
                for (i, &full) in oracle.iter().enumerate() {
                    assert_eq!(
                        position(packed.words(), i),
                        full as u32,
                        "position {i}/{num_perm}"
                    );
                }
                if num_perm % 2 == 1 {
                    assert_eq!(packed.words()[num_perm / 2] >> 32, 0, "zero padding");
                }
                if set.is_empty() {
                    assert!((0..num_perm).all(|i| position(packed.words(), i) == u32::MAX));
                }
                // Labels, past the signature's end included.
                let mut labels = Vec::new();
                let positions = 0..num_perm + 3;
                write_labels::<MinHashSignature>(
                    packed.words(),
                    packed.meta(),
                    positions.clone(),
                    &mut labels,
                );
                let expected: Vec<u8> = positions
                    .map(|i| oracle.get(i).map_or(0, |&full| full as u8))
                    .collect();
                assert_eq!(labels, expected, "labels @{num_perm}");
                // Agreement with the set before.
                assert!((packed.jaccard(&packed) - 1.0).abs() < 1e-15);
                if let Some((before, before_oracle)) = &previous {
                    let agree = agreement_count_u64(&oracle, before_oracle);
                    agreeing_pairs += usize::from(agree > 0 && agree < num_perm);
                    let estimate =
                        MinHashSignature::jaccard_words(packed.words(), before.words(), num_perm);
                    assert_eq!(estimate, agree as f64 / num_perm as f64, "@{num_perm}");
                    // Whatever the padding holds, it is not a position.
                    if num_perm % 2 == 1 {
                        let mut stained = before.words().to_vec();
                        *stained.last_mut().unwrap() |= 0xdead_beef << 32;
                        assert_eq!(
                            MinHashSignature::jaccard_words(packed.words(), &stained, num_perm),
                            estimate
                        );
                    }
                }
                previous = Some((packed, oracle));
            }
            assert!(
                num_perm < 63 || agreeing_pairs > sets.len() / 2,
                "pairs that partly agree @{num_perm}: {agreeing_pairs}"
            );
        }
    }

    /// Every signing loop this CPU can run against `min_mix`, word for
    /// word: the hasher as constructed (the AVX-512 compilation where
    /// detected), the hasher forced portable, and the across-position
    /// loop as the baseline target compiles it — at lengths around the
    /// 32-position block and the two-to-a-word packing.
    #[test]
    fn lane_signing_matches_min_mix() {
        let sets = generated_token_sets(2000);
        assert!(sets.iter().any(Vec::is_empty) && sets.iter().any(|s| s.len() > 1000));
        assert!(sets.iter().any(|s| s.len() == 1));
        println!(
            "tiers: {}, portable, across-positions@baseline",
            SigningLanes::detect().name()
        );
        for num_perm in [1usize, 2, 31, 32, 33, 63, 64, 65, 255, 256] {
            let detected = MinHasher::new(num_perm, 41);
            let portable = detected.clone().portable();
            assert_eq!(detected.lanes, SigningLanes::detect());
            assert_eq!(portable.lanes.name(), "portable");
            let words = num_perm.div_ceil(2);
            for set in &sets {
                let mut full = vec![0u64; num_perm];
                detected.sign_into_oracle(set, &mut full);
                let expected: Vec<u64> = full
                    .chunks(2)
                    .map(|p| {
                        u64::from(p[0] as u32) | u64::from(*p.get(1).unwrap_or(&0) as u32) << 32
                    })
                    .collect();
                let mut got = vec![0xdead_beef_dead_beef_u64; words];
                detected.sign_into(set, &mut got);
                assert_eq!(got, expected, "detected @{num_perm}, {} tokens", set.len());
                got.fill(0xdead_beef_dead_beef);
                portable.sign_into(set, &mut got);
                assert_eq!(got, expected, "portable @{num_perm}, {} tokens", set.len());
                got.fill(0xdead_beef_dead_beef);
                detected.sign_across_baseline(set, &mut got);
                assert_eq!(got, expected, "baseline @{num_perm}, {} tokens", set.len());
                if num_perm % 2 == 1 {
                    assert_eq!(got[num_perm / 2] >> 32, 0, "zero padding");
                }
            }
        }
    }

    /// No positions: a hasher constructs, and signs nothing into
    /// nothing.
    #[test]
    fn zero_permutations_sign_without_panicking() {
        for mh in [MinHasher::new(0, 3), MinHasher::new(0, 3).portable()] {
            assert_eq!(mh.sig_shape(), (0, 0));
            mh.sign_into(&[1, 2, 3], &mut []);
            assert!(mh.sign_hashed(&[]).is_empty());
        }
    }

    /// The same-run ratio gate (CI runs it in release): over the same
    /// 256-position signatures, counting agreeing halves of packed
    /// words takes at most 1/1.2 of the time of comparing one word per
    /// position (expected: 1/1.45).
    #[test]
    #[ignore = "timing: cargo test --release -p d3l-lsh agreement_beats_oracle -- --ignored"]
    fn agreement_beats_oracle() {
        use crate::kernels::agreement_count_u64;
        use std::hint::black_box;
        use std::time::Instant;

        let mh = MinHasher::new(DEFAULT_NUM_PERM, 41);
        let (packed, oracle): (Vec<_>, Vec<_>) = generated_token_sets(64)
            .iter()
            .map(|set| {
                let mut full = vec![0u64; DEFAULT_NUM_PERM];
                mh.sign_into_oracle(set, &mut full);
                (mh.sign_hashed(set).words().to_vec(), full)
            })
            .unzip();
        let time = |sigs: &[Vec<u64>], count: fn(&[u64], &[u64]) -> usize| {
            (0..7)
                .map(|_| {
                    let start = Instant::now();
                    let mut agree = 0usize;
                    for _ in 0..2000 {
                        for pair in sigs.windows(2) {
                            agree += count(black_box(&pair[0]), black_box(&pair[1]));
                        }
                    }
                    black_box(agree);
                    start.elapsed()
                })
                .min()
                .unwrap()
        };
        let one_word = time(&oracle, agreement_count_u64);
        let halves = time(&packed, agreement_count);
        let ratio = one_word.as_secs_f64() / halves.as_secs_f64();
        println!("one word per position {one_word:?}, packed {halves:?}: {ratio:.2}x");
        assert!(ratio >= 1.2, "packed agreement only {ratio:.2}x the oracle");
    }

    #[test]
    #[should_panic(expected = "signature length mismatch")]
    fn mismatched_lengths_panic() {
        let a = MinHashSignature::from_packed(vec![1], 2);
        let b = MinHashSignature::from_packed(vec![1], 1);
        a.jaccard(&b);
    }
}
