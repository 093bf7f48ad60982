//! Subword hash embedder: fastText's character n-gram trick without
//! the trained matrix. Each character n-gram (3..=5, with `<`/`>`
//! boundary markers) is hashed to a deterministic pseudorandom unit
//! direction; a word's vector is the normalized sum of its n-gram
//! directions, so words sharing morphology share vector mass.

use crate::vecmath::normalize;

/// Deterministic subword embedder.
#[derive(Debug, Clone)]
pub struct HashEmbedder {
    dim: usize,
    seed: u64,
}

/// splitmix64: the avalanche mixer every pseudorandom direction (an
/// n-gram's, a concept's) derives from.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Reference string-form hash; the equivalence test checks
/// [`fnv1a_chars`] against it.
#[cfg_attr(not(test), allow(dead_code))]
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// FNV-1a over the UTF-8 encoding of a char window — the same value
/// [`fnv1a`] gives for the window materialized as a `String`, without
/// the allocation.
#[inline]
fn fnv1a_chars(chars: &[char]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut buf = [0u8; 4];
    for &c in chars {
        for &b in c.encode_utf8(&mut buf).as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

impl HashEmbedder {
    /// An embedder of the given dimensionality.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        HashEmbedder { dim, seed }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Character n-grams of a word with boundary markers, n ∈ 3..=5,
    /// plus the whole bounded word (fastText's construction).
    pub fn ngrams(word: &str) -> Vec<String> {
        let bounded: Vec<char> = std::iter::once('<')
            .chain(word.chars())
            .chain(std::iter::once('>'))
            .collect();
        let mut grams = Vec::new();
        for n in 3..=5usize {
            if bounded.len() < n {
                continue;
            }
            for w in bounded.windows(n) {
                grams.push(w.iter().collect());
            }
        }
        grams.push(bounded.iter().collect());
        grams
    }

    /// Pseudorandom ±1 direction for one n-gram hash, accumulated
    /// into `acc`.
    fn accumulate(&self, gram_hash: u64, acc: &mut [f64]) {
        let base = splitmix64(gram_hash ^ self.seed);
        for (i, slot) in acc.iter_mut().enumerate() {
            let h = splitmix64(base ^ (i as u64).wrapping_mul(0x2545f4914f6cdd1d));
            *slot += if h & 1 == 1 { 1.0 } else { -1.0 };
        }
    }

    /// Embed a word as the normalized sum of its n-gram directions.
    /// The empty word maps to the zero vector.
    ///
    /// The n-gram windows are hashed in place (FNV-1a over the chars)
    /// rather than materialized through [`HashEmbedder::ngrams`], in
    /// the same order, so the output is bit-identical to accumulating
    /// the allocated gram strings while the profiling hot loop makes
    /// no per-gram allocation.
    pub fn embed(&self, word: &str) -> Vec<f64> {
        let mut acc = vec![0.0; self.dim];
        if word.is_empty() {
            return acc;
        }
        let bounded: Vec<char> = std::iter::once('<')
            .chain(word.chars())
            .chain(std::iter::once('>'))
            .collect();
        for n in 3..=5usize {
            for w in bounded.windows(n) {
                self.accumulate(fnv1a_chars(w), &mut acc);
            }
        }
        self.accumulate(fnv1a_chars(&bounded), &mut acc);
        normalize(acc)
    }
}

impl crate::WordEmbedder for HashEmbedder {
    fn dim(&self) -> usize {
        self.dim
    }
    fn embed(&self, word: &str) -> Vec<f64> {
        HashEmbedder::embed(self, word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecmath::cosine;

    #[test]
    fn deterministic() {
        let e = HashEmbedder::new(32, 1);
        assert_eq!(e.embed("salford"), e.embed("salford"));
        assert_eq!(e.dim(), 32);
    }

    #[test]
    fn morphological_variants_are_close() {
        let e = HashEmbedder::new(64, 1);
        let a = e.embed("practice");
        let b = e.embed("practices");
        let c = e.embed("zanzibar");
        assert!(cosine(&a, &b) > cosine(&a, &c));
        assert!(cosine(&a, &b) > 0.5);
    }

    #[test]
    fn unrelated_words_near_orthogonal() {
        let e = HashEmbedder::new(256, 1);
        let a = e.embed("postcode");
        let b = e.embed("wizard");
        assert!(cosine(&a, &b) < 0.3);
    }

    #[test]
    fn empty_word_is_zero() {
        let e = HashEmbedder::new(8, 1);
        assert!(e.embed("").iter().all(|&x| x == 0.0));
    }

    #[test]
    fn short_words_still_embed() {
        let e = HashEmbedder::new(16, 1);
        let v = e.embed("a"); // bounded form "<a>" has one 3-gram
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn streamed_embedding_matches_materialized_grams() {
        // The in-place window hashing must reproduce the historical
        // path exactly: hash each materialized gram string, same
        // accumulation order.
        let e = HashEmbedder::new(48, 7);
        for word in ["salford", "café", "a", "practices"] {
            let mut acc = vec![0.0; 48];
            for gram in HashEmbedder::ngrams(word) {
                e.accumulate(fnv1a(gram.as_bytes()), &mut acc);
            }
            assert_eq!(e.embed(word), normalize(acc), "mismatch for {word}");
        }
    }

    #[test]
    fn ngram_construction() {
        let grams = HashEmbedder::ngrams("ab");
        // bounded = <ab> (len 4): 3-grams {<ab, ab>}, 4-grams {<ab>},
        // whole word <ab>
        assert!(grams.contains(&"<ab".to_string()));
        assert!(grams.contains(&"ab>".to_string()));
        assert!(grams.contains(&"<ab>".to_string()));
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        HashEmbedder::new(0, 1);
    }
}
