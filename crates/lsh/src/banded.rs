//! Classic banded LSH: split a signature into `b` bands of `r` rows;
//! items colliding in any band are candidates. The `(b, r)` pair is
//! tuned so the S-curve threshold `(1/b)^(1/r)` approximates the
//! requested similarity threshold.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::hash::splitmix64;
use crate::minhash::MinHashSignature;
use crate::randproj::BitSignature;
use crate::{Hit, ItemId};

/// Anything a positional LSH index can consume: a fixed-length
/// sequence of hash values with an estimator of the underlying
/// similarity.
pub trait Signature: Clone {
    /// Number of hash positions.
    fn lsh_len(&self) -> usize {
        Self::lsh_len_words(self.words(), self.meta())
    }
    /// Hash value at a position.
    fn lsh_hash(&self, i: usize) -> u64 {
        Self::lsh_hash_words(self.words(), self.meta(), i)
    }
    /// Estimated similarity (Jaccard or cosine) with another signature
    /// of the same provenance.
    fn similarity(&self, other: &Self) -> f64;
    /// Approximate stored footprint in bytes.
    fn byte_size(&self) -> usize;
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
    /// [`Signature::similarity`] against a stored signature given as
    /// its raw arena words — bit-identical to materializing the stored
    /// signature first, without the copy.
    fn similarity_words(&self, words: &[u64], meta: u64) -> f64;
    /// Whether a signature of `words` words can carry `meta` — what
    /// [`Signature::from_words`] would panic on. Shapes read from a
    /// store file are checked with this before anything is rebuilt.
    fn shape_is_valid(words: usize, meta: u64) -> bool;
    /// Number of hash positions of a signature given as its raw arena
    /// words — positions are a function of `(words, meta)` alone.
    fn lsh_len_words(words: &[u64], meta: u64) -> usize;
    /// Hash value at a position of a signature given as its raw arena
    /// words.
    fn lsh_hash_words(words: &[u64], meta: u64, i: usize) -> u64;
}

impl Signature for MinHashSignature {
    fn similarity(&self, other: &Self) -> f64 {
        self.jaccard(other)
    }
    fn byte_size(&self) -> usize {
        MinHashSignature::byte_size(self)
    }
    fn words(&self) -> &[u64] {
        MinHashSignature::words(self)
    }
    fn meta(&self) -> u64 {
        self.len() as u64
    }
    fn from_words(words: Vec<u64>, meta: u64) -> Self {
        MinHashSignature::from_packed(words, meta as usize)
    }
    fn similarity_words(&self, words: &[u64], meta: u64) -> f64 {
        debug_assert_eq!(meta as usize, self.len(), "signature length mismatch");
        self.jaccard_words(words)
    }
    fn shape_is_valid(words: usize, meta: u64) -> bool {
        meta.div_ceil(2) == words as u64
    }
    fn lsh_len_words(_words: &[u64], meta: u64) -> usize {
        meta as usize
    }
    fn lsh_hash_words(words: &[u64], _meta: u64, i: usize) -> u64 {
        u64::from(crate::minhash::position(words, i))
    }
}

impl Signature for BitSignature {
    fn similarity(&self, other: &Self) -> f64 {
        self.cosine(other)
    }
    fn byte_size(&self) -> usize {
        BitSignature::byte_size(self)
    }
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
    fn similarity_words(&self, words: &[u64], meta: u64) -> f64 {
        debug_assert_eq!(meta as usize, self.len(), "signature length mismatch");
        self.cosine_words(words)
    }
    fn shape_is_valid(words: usize, meta: u64) -> bool {
        meta.div_ceil(64) == words as u64
    }
    fn lsh_len_words(_words: &[u64], meta: u64) -> usize {
        meta as usize
    }
    fn lsh_hash_words(words: &[u64], _meta: u64, i: usize) -> u64 {
        (words[i / 64] >> (i % 64)) & 1
    }
}

/// Choose `(bands, rows)` with `bands * rows <= n` whose S-curve
/// threshold `(1/bands)^(1/rows)` is closest to `threshold`.
pub fn params_for_threshold(n: usize, threshold: f64) -> (usize, usize) {
    let mut best = (1, n.max(1));
    let mut best_err = f64::INFINITY;
    for rows in 1..=n.max(1) {
        let bands = n / rows;
        if bands == 0 {
            break;
        }
        let t = (1.0 / bands as f64).powf(1.0 / rows as f64);
        let err = (t - threshold).abs();
        if err < best_err {
            best_err = err;
            best = (bands, rows);
        }
    }
    best
}

/// A banded LSH index over signatures of type `S`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BandedIndex<S> {
    bands: usize,
    rows: usize,
    threshold: f64,
    /// One bucket map per band: band key → member items.
    buckets: Vec<HashMap<u64, Vec<ItemId>>>,
    /// Stored signatures for similarity refinement at query time.
    sigs: HashMap<ItemId, S>,
}

impl<S: Signature> BandedIndex<S> {
    /// Index for signatures of length `sig_len`, tuned to `threshold`.
    pub fn new(sig_len: usize, threshold: f64) -> Self {
        let (bands, rows) = params_for_threshold(sig_len, threshold);
        BandedIndex {
            bands,
            rows,
            threshold,
            buckets: vec![HashMap::new(); bands],
            sigs: HashMap::new(),
        }
    }

    /// The tuned band/row split.
    pub fn band_shape(&self) -> (usize, usize) {
        (self.bands, self.rows)
    }

    /// The similarity threshold the index was tuned for.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of indexed items.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    fn band_key(&self, sig: &S, band: usize) -> u64 {
        let mut acc = splitmix64(band as u64 ^ 0xabcd_ef01);
        let start = band * self.rows;
        for i in 0..self.rows {
            let pos = start + i;
            if pos < sig.lsh_len() {
                acc = splitmix64(acc ^ sig.lsh_hash(pos));
            }
        }
        acc
    }

    /// Insert an item. Re-inserting the same id replaces its
    /// signature but leaves stale bucket entries (ids are expected to
    /// be unique, as they are throughout D3L).
    pub fn insert(&mut self, id: ItemId, sig: S) {
        for band in 0..self.bands {
            let key = self.band_key(&sig, band);
            self.buckets[band].entry(key).or_default().push(id);
        }
        self.sigs.insert(id, sig);
    }

    /// All candidates sharing at least one band bucket with `sig`,
    /// deduplicated, with estimated similarities (unfiltered).
    pub fn candidates(&self, sig: &S) -> Vec<Hit> {
        let mut seen: HashMap<ItemId, ()> = HashMap::new();
        let mut hits = Vec::new();
        for band in 0..self.bands {
            let key = self.band_key(sig, band);
            if let Some(members) = self.buckets[band].get(&key) {
                for &id in members {
                    if seen.insert(id, ()).is_none() {
                        let s = sig.similarity(&self.sigs[&id]);
                        hits.push(Hit { id, similarity: s });
                    }
                }
            }
        }
        hits
    }

    /// Candidates whose estimated similarity clears the index
    /// threshold, best first.
    pub fn query(&self, sig: &S) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self
            .candidates(sig)
            .into_iter()
            .filter(|h| h.similarity >= self.threshold)
            .collect();
        hits.sort_by(|a, b| {
            b.similarity
                .total_cmp(&a.similarity)
                .then_with(|| a.id.cmp(&b.id))
        });
        hits
    }

    /// Stored signature of an item, if present.
    pub fn signature(&self, id: ItemId) -> Option<&S> {
        self.sigs.get(&id)
    }

    /// Approximate index footprint in bytes: buckets plus stored
    /// signatures (Table II accounting).
    pub fn byte_size(&self) -> usize {
        let bucket_bytes: usize = self
            .buckets
            .iter()
            .map(|b| b.values().map(|v| 8 + v.len() * 8).sum::<usize>())
            .sum();
        let sig_bytes: usize = self.sigs.values().map(Signature::byte_size).sum();
        bucket_bytes + sig_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHasher;

    #[test]
    fn threshold_tuning_is_sane() {
        let (b, r) = params_for_threshold(256, 0.7);
        assert!(b * r <= 256);
        let t = (1.0 / b as f64).powf(1.0 / r as f64);
        assert!((t - 0.7).abs() < 0.1, "tuned threshold {t}");
        // extremes
        let (b_low, _) = params_for_threshold(256, 0.05);
        let (_, r_high) = params_for_threshold(256, 0.99);
        assert!(b_low >= 64, "low threshold needs many bands");
        assert!(r_high >= 16, "high threshold needs many rows");
    }

    #[test]
    fn similar_sets_are_found_dissimilar_are_not() {
        let mh = MinHasher::new(256, 21);
        let mut idx: BandedIndex<MinHashSignature> = BandedIndex::new(256, 0.7);
        let base: Vec<String> = (0..100).map(|i| format!("v{i}")).collect();
        // near-identical (J ≈ 0.9)
        let near: Vec<String> = (5..105).map(|i| format!("v{i}")).collect();
        // unrelated
        let far: Vec<String> = (0..100).map(|i| format!("w{i}")).collect();
        idx.insert(1, mh.sign_strs(near.iter().map(String::as_str)));
        idx.insert(2, mh.sign_strs(far.iter().map(String::as_str)));
        let q = mh.sign_strs(base.iter().map(String::as_str));
        let hits = idx.query(&q);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 1);
        assert!(hits[0].similarity > 0.7);
    }

    #[test]
    fn candidates_include_subthreshold() {
        let mh = MinHasher::new(128, 2);
        let mut idx: BandedIndex<MinHashSignature> = BandedIndex::new(128, 0.99);
        idx.insert(7, mh.sign_strs(["a", "b", "c"]));
        let q = mh.sign_strs(["a", "b", "c"]);
        assert_eq!(idx.candidates(&q).len(), 1);
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
        assert!(idx.signature(7).is_some());
        assert!(idx.byte_size() > 0);
    }

    #[test]
    fn works_over_bit_signatures() {
        use crate::randproj::RandomProjector;
        let rp = RandomProjector::new(4, 256, 9);
        let mut idx: BandedIndex<BitSignature> = BandedIndex::new(256, 0.7);
        let v = [1.0, 2.0, 3.0, 4.0];
        let similar = [1.1, 2.0, 2.9, 4.2];
        let opposite = [-1.0, -2.0, -3.0, -4.0];
        idx.insert(1, rp.sign(&similar));
        idx.insert(2, rp.sign(&opposite));
        let hits = idx.query(&rp.sign(&v));
        assert!(hits.iter().any(|h| h.id == 1));
        assert!(hits.iter().all(|h| h.id != 2));
    }
}
