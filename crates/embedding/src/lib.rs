//! # d3l-embedding — word-embedding substrate
//!
//! The paper uses fastText as its word-embedding model (WEM) for the
//! **E** evidence type. Shipping (or downloading) multi-gigabyte
//! fastText vectors is not possible here, so this crate provides a
//! deterministic stand-in that reproduces the two properties D3L
//! actually relies on:
//!
//! 1. **semantic geometry** — tokens from the same domain concept
//!    (street/road/avenue, doctor/GP/practice, …) land close in cosine
//!    space, tokens from unrelated concepts land near-orthogonal.
//!    Provided by [`lexicon::Lexicon`] concept vectors.
//! 2. **subword robustness** — morphological variants and typos of a
//!    word get nearby vectors (fastText's character n-gram trick).
//!    Provided by [`hash_embedder::HashEmbedder`].
//!
//! [`SemanticEmbedder`] blends the two. The [`WordEmbedder`] trait is
//! the seam where real fastText vectors could be plugged in.

pub mod hash_embedder;
pub mod lexicon;
pub mod vecmath;

pub use hash_embedder::HashEmbedder;
pub use lexicon::Lexicon;
pub use vecmath::{cosine, mean_vector, normalize};

#[cfg(test)]
mod cached_tests {
    use super::*;

    #[test]
    fn cached_embedder_is_transparent() {
        let inner = HashEmbedder::new(16, 3);
        let cached = CachedEmbedder::new(&inner);
        assert_eq!(cached.dim(), 16);
        assert_eq!(cached.embed("street"), inner.embed("street"));
        assert_eq!(cached.embed("street"), inner.embed("street")); // hit
        assert_eq!(cached.cached_words(), 1);
        assert_eq!(
            cached.embed_all(["street", "road"]),
            inner.embed_all(["street", "road"])
        );
        assert_eq!(cached.cached_words(), 2);
        // Bit for bit, hits and misses mixed, and the empty bag.
        let words: Vec<String> = (0..40).map(|i| format!("word{}", i % 23)).collect();
        let bag = || words.iter().map(String::as_str);
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(cached.embed_all(bag())), bits(inner.embed_all(bag())));
        assert_eq!(cached.cached_words(), 2 + 23);
        assert_eq!(cached.embed_all([]), vec![0.0; 16]);
    }
}

/// Dimensionality used across the reproduction (fastText's common
/// small configuration is 100–300; 64 keeps signatures cheap while
/// leaving plenty of room for near-orthogonal concepts).
pub const DEFAULT_DIM: usize = 64;

/// A word-embedding model: maps a word to a dense unit vector.
pub trait WordEmbedder {
    /// Vector dimensionality.
    fn dim(&self) -> usize;
    /// Embed one (lowercase) word.
    fn embed(&self, word: &str) -> Vec<f64>;

    /// Embed a bag of words as the normalized mean of their vectors —
    /// how D3L combines the p-vectors of an attribute's tokens into
    /// one attribute vector (§III-A, E evidence).
    fn embed_all<'a, I: IntoIterator<Item = &'a str>>(&self, words: I) -> Vec<f64> {
        let vecs: Vec<Vec<f64>> = words.into_iter().map(|w| self.embed(w)).collect();
        if vecs.is_empty() {
            return vec![0.0; self.dim()];
        }
        normalize(mean_vector(&vecs))
    }
}

/// A memoizing [`WordEmbedder`] adapter: caches `embed` results by
/// word so repeated tokens (domain vocabulary recurring across the
/// columns of a profiling batch) are embedded once. Embedders are
/// pure functions of the word, so cached results are identical to
/// fresh ones — wrapping never changes any vector, only the cost.
///
/// Intended per profiling worker (it is `!Sync` by design: each
/// worker owns its cache, so no locks sit on the hot path).
pub struct CachedEmbedder<'a, E: WordEmbedder> {
    inner: &'a E,
    cache: std::cell::RefCell<std::collections::HashMap<String, Vec<f64>>>,
}

impl<'a, E: WordEmbedder> CachedEmbedder<'a, E> {
    /// Wrap an embedder with an empty cache.
    pub fn new(inner: &'a E) -> Self {
        CachedEmbedder {
            inner,
            cache: std::cell::RefCell::new(std::collections::HashMap::new()),
        }
    }

    /// Number of distinct words embedded so far.
    pub fn cached_words(&self) -> usize {
        self.cache.borrow().len()
    }
}

impl<E: WordEmbedder> WordEmbedder for CachedEmbedder<'_, E> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn embed(&self, word: &str) -> Vec<f64> {
        if let Some(v) = self.cache.borrow().get(word) {
            return v.clone();
        }
        let v = self.inner.embed(word);
        self.cache.borrow_mut().insert(word.to_string(), v.clone());
        v
    }

    /// The trait's `normalize(mean_vector(..))` accumulated straight
    /// from borrowed cache entries — the same additions in the same
    /// order, so the same bits, without cloning a vector per word.
    fn embed_all<'a, I: IntoIterator<Item = &'a str>>(&self, words: I) -> Vec<f64> {
        let mut cache = self.cache.borrow_mut();
        let mut sum = vec![0.0; self.dim()];
        let mut n = 0usize;
        let mut add = |v: &[f64]| {
            assert_eq!(v.len(), sum.len(), "dimension mismatch");
            for (s, x) in sum.iter_mut().zip(v) {
                *s += x;
            }
            n += 1;
        };
        for word in words {
            if let Some(v) = cache.get(word) {
                add(v);
            } else {
                let v = self.inner.embed(word);
                add(&v);
                cache.insert(word.to_string(), v);
            }
        }
        if n == 0 {
            return sum;
        }
        for s in &mut sum {
            *s /= n as f64;
        }
        normalize(sum)
    }
}

/// The blended embedder: lexicon concept vector (weight 0.85) +
/// subword hash vector (weight 0.15). Words absent from the lexicon fall
/// back to pure subword hashing. The lexicon is its only state: the
/// subword seed and the blend weight are constants, so an engine
/// reloaded with the same lexicon embeds every word bit-identically to
/// the one that built its index.
#[derive(Debug, Clone)]
pub struct SemanticEmbedder {
    lexicon: Lexicon,
    subword: HashEmbedder,
}

impl SemanticEmbedder {
    /// Weight of the concept vector in the blend: concept geometry
    /// dominates while subword robustness stays.
    const ALPHA: f64 = 0.85;

    /// Seed of the subword half of the blend.
    const SUBWORD_SEED: u64 = 0xd3ee;

    /// Build from a lexicon, of its dimensionality.
    pub fn new(lexicon: Lexicon) -> Self {
        let subword = HashEmbedder::new(lexicon.dim(), Self::SUBWORD_SEED);
        SemanticEmbedder { lexicon, subword }
    }

    /// The wrapped lexicon.
    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }
}

impl WordEmbedder for SemanticEmbedder {
    fn dim(&self) -> usize {
        self.lexicon.dim()
    }

    fn embed(&self, word: &str) -> Vec<f64> {
        // Tokenized words arrive already lowercase; only allocate
        // when there is actually something to fold.
        let lw: std::borrow::Cow<'_, str> =
            if word.bytes().any(|b| b.is_ascii_uppercase()) || !word.is_ascii() {
                std::borrow::Cow::Owned(word.to_lowercase())
            } else {
                std::borrow::Cow::Borrowed(word)
            };
        let sub = self.subword.embed(&lw);
        match self.lexicon.concept_vector(&lw) {
            Some(concept) => {
                let blended: Vec<f64> = concept
                    .iter()
                    .zip(&sub)
                    .map(|(c, s)| Self::ALPHA * c + (1.0 - Self::ALPHA) * s)
                    .collect();
                normalize(blended)
            }
            None => sub,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embedder() -> SemanticEmbedder {
        let lex = Lexicon::with_groups(
            DEFAULT_DIM,
            &[
                &["street", "road", "avenue", "lane"],
                &["doctor", "gp", "practice", "surgery"],
                &["city", "town"],
            ],
        );
        SemanticEmbedder::new(lex)
    }

    #[test]
    fn synonyms_are_close_strangers_are_not() {
        let e = embedder();
        let street = e.embed("street");
        let road = e.embed("road");
        let doctor = e.embed("doctor");
        let syn = cosine(&street, &road);
        let diff = cosine(&street, &doctor);
        assert!(syn > 0.8, "synonym cosine {syn}");
        assert!(diff < 0.4, "cross-concept cosine {diff}");
    }

    #[test]
    fn out_of_lexicon_falls_back_to_subword() {
        let e = embedder();
        let a = e.embed("blackfriars");
        let b = e.embed("blackfriers"); // typo
        let c = e.embed("helicopter");
        assert!(
            cosine(&a, &b) > cosine(&a, &c),
            "subword similarity should dominate"
        );
    }

    #[test]
    fn embed_all_is_unit_norm_mean() {
        let e = embedder();
        let v = e.embed_all(["street", "road"]);
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
        // mean of synonyms stays close to each
        assert!(cosine(&v, &e.embed("street")) > 0.8);
    }

    #[test]
    fn embed_all_empty_is_zero() {
        let e = embedder();
        let v = e.embed_all([]);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(v.len(), e.dim());
    }

    #[test]
    fn case_insensitive() {
        let e = embedder();
        assert!((cosine(&e.embed("Street"), &e.embed("street")) - 1.0).abs() < 1e-9);
    }

    /// The lexicon is the embedder's whole state: one read back from
    /// its bytes at the same dimension embeds every word bit-identically.
    #[test]
    fn embedder_state_round_trips_bit_identically() {
        let e = embedder();
        let lexicon = Lexicon::from_bytes(&e.lexicon().to_bytes(), DEFAULT_DIM).unwrap();
        let loaded = SemanticEmbedder::new(lexicon);
        assert_eq!(loaded.dim(), e.dim());
        assert_eq!(loaded.lexicon().words(), e.lexicon().words());
        assert_eq!(loaded.lexicon().concepts(), e.lexicon().concepts());
        for word in ["street", "road", "blackfriars", "zzz", "café"] {
            assert_eq!(loaded.embed(word), e.embed(word), "vector for {word}");
        }
        // Equal lexicons encode identically (map order independent).
        assert_eq!(e.lexicon().to_bytes(), embedder().lexicon().to_bytes());
    }

    #[test]
    fn corrupt_lexicon_bytes_are_typed_errors() {
        let bytes = embedder().lexicon().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Lexicon::from_bytes(&bytes[..cut], DEFAULT_DIM).is_err(),
                "cut {cut} must fail"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(Lexicon::from_bytes(&long, DEFAULT_DIM).is_err());
    }
}
