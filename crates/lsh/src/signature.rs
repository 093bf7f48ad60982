//! The contract between a signature type and the forest that stores
//! it: a fixed-length sequence of hash positions, held as `u64` words
//! plus one word of shape metadata, with an estimator of the
//! underlying similarity.

use crate::minhash::MinHashSignature;
use crate::randproj::BitSignature;

/// Anything a positional LSH index can consume: a fixed-length
/// sequence of hash values with an estimator of the underlying
/// similarity.
pub trait Signature: Clone {
    /// The signature's backing `u64` words — the flat-storage contract
    /// [`crate::forest::LshForest`]'s signature arena builds on: every
    /// signature of one provenance has the same word count, and
    /// `(words, meta)` reconstructs the signature exactly.
    fn words(&self) -> &[u64];
    /// Shape metadata the words alone cannot carry: the position count
    /// (bits of a bit signature, 32-bit values of a MinHash one).
    fn meta(&self) -> u64;
    /// Rebuild a signature from arena words and shape metadata.
    /// Panics when the word count does not match the metadata — arena
    /// slots are written by [`Signature::words`], so a mismatch is a
    /// caller bug, not data-dependent.
    fn from_words(words: Vec<u64>, meta: u64) -> Self;
    /// Estimated similarity (Jaccard or cosine) of two signatures of
    /// one provenance, both given as their raw arena words —
    /// bit-identical to materializing either first, without the copy.
    fn similarity_words(a: &[u64], b: &[u64], meta: u64) -> f64;
    /// Number of hash positions of a signature given as its raw arena
    /// words — positions are a function of `(words, meta)` alone.
    fn lsh_len_words(words: &[u64], meta: u64) -> usize;
    /// Hash value at a position of a signature given as its raw arena
    /// words.
    fn lsh_hash_words(words: &[u64], meta: u64, i: usize) -> u64;
    /// The low byte of the hash value at each of the positions
    /// `first..first + out.len()`, all of them within the signature:
    /// [`Signature::lsh_hash_words`] a position at a time, unless the
    /// type reads them faster.
    fn low_bytes(words: &[u64], meta: u64, first: usize, out: &mut [u8]) {
        for (b, pos) in out.iter_mut().zip(first..) {
            *b = Self::lsh_hash_words(words, meta, pos) as u8;
        }
    }
}

impl Signature for MinHashSignature {
    fn words(&self) -> &[u64] {
        MinHashSignature::words(self)
    }
    fn meta(&self) -> u64 {
        self.len() as u64
    }
    fn from_words(words: Vec<u64>, meta: u64) -> Self {
        MinHashSignature::from_packed(words, meta as usize)
    }
    fn similarity_words(a: &[u64], b: &[u64], meta: u64) -> f64 {
        MinHashSignature::jaccard_words(a, b, meta as usize)
    }
    fn lsh_len_words(_words: &[u64], meta: u64) -> usize {
        meta as usize
    }
    fn lsh_hash_words(words: &[u64], _meta: u64, i: usize) -> u64 {
        u64::from(crate::minhash::position(words, i))
    }
}

impl Signature for BitSignature {
    fn words(&self) -> &[u64] {
        BitSignature::words(self)
    }
    fn meta(&self) -> u64 {
        self.len() as u64
    }
    fn from_words(words: Vec<u64>, meta: u64) -> Self {
        BitSignature::from_words(words, meta as usize)
            .expect("arena word count matches the stored bit count")
    }
    fn similarity_words(a: &[u64], b: &[u64], meta: u64) -> f64 {
        BitSignature::cosine_words(a, b, meta as usize)
    }
    fn lsh_len_words(_words: &[u64], meta: u64) -> usize {
        meta as usize
    }
    fn lsh_hash_words(words: &[u64], _meta: u64, i: usize) -> u64 {
        (words[i / 64] >> (i % 64)) & 1
    }
    fn low_bytes(words: &[u64], _meta: u64, first: usize, out: &mut [u8]) {
        // A bit a position, 64 to a word: each word is read once.
        let (mut word, mut at, mut rest) = (first / 64, first % 64, out);
        while !rest.is_empty() {
            let (now, later) = rest.split_at_mut(rest.len().min(64 - at));
            let bits = words[word] >> at;
            for (i, b) in now.iter_mut().enumerate() {
                *b = (bits >> i) as u8 & 1;
            }
            (word, at, rest) = (word + 1, 0, later);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHasher;
    use crate::randproj::RandomProjector;

    /// `low_bytes` is `lsh_hash_words`' low byte at every position of
    /// every range: odd and even starts and lengths, and ranges that
    /// cross a word.
    fn check<S: Signature>(sig: &S) {
        let (words, meta) = (sig.words(), sig.meta());
        let len = S::lsh_len_words(words, meta);
        for first in 0..len {
            for n in 0..=(len - first).min(70) {
                let mut out = vec![0xaa; n];
                S::low_bytes(words, meta, first, &mut out);
                let want: Vec<u8> = (first..first + n)
                    .map(|pos| S::lsh_hash_words(words, meta, pos) as u8)
                    .collect();
                assert_eq!(out, want, "positions {first}..{}", first + n);
            }
        }
    }

    #[test]
    fn low_bytes_are_the_hash_values_low_bytes() {
        let tokens: Vec<String> = (0..40).map(|i| format!("t{i}")).collect();
        let tokens = || tokens.iter().map(String::as_str);
        for positions in [64, 67, 130] {
            check(&MinHasher::new(positions, 7).sign_strs(tokens()));
            let v: Vec<f64> = (0..8).map(|d| f64::from(d) - 3.5).collect();
            check(&RandomProjector::new(8, positions, 3).sign(&v));
        }
    }
}
