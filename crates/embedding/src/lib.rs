//! # d3l-embedding — word-embedding substrate
//!
//! The paper uses fastText as its word-embedding model (WEM) for the
//! **E** evidence type. fastText builds a word's vector from two
//! parts: a trained word table, and the sum of its character n-gram
//! vectors, which gives morphological variants and typos nearby
//! vectors and gives any word — seen in training or not — a vector.
//! No pretrained vectors can ship in an offline tree, so `E` here is
//! the second part alone, untrained: [`HashEmbedder`] hashes each
//! character n-gram of a word's lowercase form to a pseudorandom ±1
//! direction and sums them (fastText's subword construction,
//! Bojanowski et al., TACL 2017). Every index embeds with it at
//! [`SUBWORD_SEED`], so the embedder is derived from the configuration
//! like the engine's other hashers and no index stores it.
//!
//! [`CachedEmbedder`] memoizes it per worker, bit for bit. The
//! [`WordEmbedder`] trait is the seam where real fastText vectors
//! could be plugged in.

pub mod hash_embedder;
pub mod vecmath;

pub use hash_embedder::HashEmbedder;
use vecmath::norm_sq;
pub use vecmath::{cosine, mean_vector, normalize};

/// Dimensionality used across the reproduction (fastText's common
/// small configuration is 100–300; 64 keeps signatures cheap while
/// leaving plenty of room for near-orthogonal words).
pub const DEFAULT_DIM: usize = 64;

/// Seed of the subword hashing every index embeds words with: part of
/// what an index means, like the n-gram range, so it is a constant and
/// not a setting.
pub const SUBWORD_SEED: u64 = 0xd3ee;

/// A word-embedding model: maps a word to a dense unit vector.
pub trait WordEmbedder {
    /// Vector dimensionality.
    fn dim(&self) -> usize;
    /// Embed one word.
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

/// A memoizing [`HashEmbedder`]: each distinct word is embedded once
/// and kept as its integer sign sums — `dim` `i16`s in one flat slab —
/// beside their `f64` norm. A hit rebuilds the vector: `sum / norm`,
/// the division [`normalize`] makes. So every vector is bit for bit
/// the embedder's own; wrapping changes only the cost. A word whose
/// sums do not fit `i16` (≈ 10 900 characters or more) is embedded on
/// every use and never stored.
///
/// Intended per profiling worker (it is `!Sync` by design: each
/// worker owns its memo, so no locks sit on the hot path).
pub struct CachedEmbedder<'a> {
    inner: &'a HashEmbedder,
    memo: std::cell::RefCell<Memo>,
}

/// The memo's rows: one per stored word, its `dim` sign sums at
/// `sums[row * dim..]`.
#[derive(Default)]
struct Memo {
    rows: std::collections::HashMap<Box<str>, u32>,
    sums: Vec<i16>,
    norms: Vec<f64>,
}

/// A word as the memo finds it.
enum Found {
    /// Stored at this row (found, or embedded just now).
    Row(usize),
    /// Embedded just now and not stored: its sums do not fit `i16`.
    Unstored(Vec<f64>),
}

impl Memo {
    /// The unit vector of `row`, coordinate by coordinate.
    #[inline]
    fn unit(&self, row: usize, dim: usize) -> impl Iterator<Item = f64> + '_ {
        let norm = self.norms[row];
        self.sums[row * dim..][..dim].iter().map(move |&c| {
            let x = f64::from(c);
            if norm > 0.0 {
                x / norm
            } else {
                x
            }
        })
    }
}

impl<'a> CachedEmbedder<'a> {
    /// Wrap an embedder with an empty memo.
    pub fn new(inner: &'a HashEmbedder) -> Self {
        CachedEmbedder {
            inner,
            memo: Default::default(),
        }
    }

    /// Number of distinct words stored so far.
    #[cfg(test)]
    fn cached_words(&self) -> usize {
        self.memo.borrow().rows.len()
    }

    /// Find `word`, embedding (and storing) it on a miss.
    fn find(&self, memo: &mut Memo, word: &str) -> Found {
        if let Some(&row) = memo.rows.get(word) {
            return Found::Row(row as usize);
        }
        let mut sums = vec![0; self.dim()];
        self.inner.sign_sums(word, &mut sums);
        let sub: Vec<f64> = sums.iter().map(|&c| f64::from(c)).collect();
        if !sums.iter().all(|&c| i16::try_from(c).is_ok()) {
            return Found::Unstored(normalize(sub));
        }
        let row = memo.norms.len();
        memo.sums.extend(sums.iter().map(|&c| c as i16));
        memo.norms.push(norm_sq(&sub).sqrt());
        let key = u32::try_from(row).expect("memo rows fit u32");
        memo.rows.insert(word.into(), key);
        Found::Row(row)
    }
}

impl WordEmbedder for CachedEmbedder<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn embed(&self, word: &str) -> Vec<f64> {
        let mut memo = self.memo.borrow_mut();
        match self.find(&mut memo, word) {
            Found::Row(row) => memo.unit(row, self.dim()).collect(),
            Found::Unstored(v) => v,
        }
    }

    /// The trait's `normalize(mean_vector(..))`, a stored word's
    /// coordinates added straight from its memo row — the same
    /// additions in the same order, so the same bits, without a vector
    /// per word.
    fn embed_all<'w, I: IntoIterator<Item = &'w str>>(&self, words: I) -> Vec<f64> {
        let mut memo = self.memo.borrow_mut();
        let dim = self.dim();
        let mut sum = vec![0.0; dim];
        let mut n = 0usize;
        fn add(sum: &mut [f64], v: impl IntoIterator<Item = f64>) {
            for (s, x) in sum.iter_mut().zip(v) {
                *s += x;
            }
        }
        for word in words {
            match self.find(&mut memo, word) {
                Found::Row(row) => add(&mut sum, memo.unit(row, dim)),
                Found::Unstored(v) => add(&mut sum, v),
            }
            n += 1;
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

/// Kept for `d3l-benchmark-layers`, which builds the shipped embedder
/// through this name and the next, until ROADMAP item 1 (d): each
/// returns the [`HashEmbedder`] every index uses. Nothing else may name
/// them (CI's "Benchmark shims" step).
#[doc(hidden)]
pub struct Lexicon;

impl Lexicon {
    /// The shipped embedder of dimension `dim`.
    #[doc(hidden)]
    #[allow(clippy::new_ret_no_self)] // a shim: its callers want the embedder
    pub fn new(dim: usize) -> HashEmbedder {
        HashEmbedder::new(dim, SUBWORD_SEED)
    }
}

/// Kept for `d3l-benchmark-layers` beside the shim above.
#[doc(hidden)]
pub struct SemanticEmbedder;

impl SemanticEmbedder {
    /// `embedder`, unchanged.
    #[doc(hidden)]
    #[allow(clippy::new_ret_no_self)] // a shim: its callers want the embedder
    pub fn new(embedder: HashEmbedder) -> HashEmbedder {
        embedder
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: Vec<f64>) -> Vec<u64> {
        v.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn cached_embedder_is_transparent() {
        let inner = HashEmbedder::new(16, SUBWORD_SEED);
        let cached = CachedEmbedder::new(&inner);
        assert_eq!(cached.dim(), 16);
        for word in ["street", "Street", "blackfriars", "", "café"] {
            let want = bits(inner.embed(word));
            assert_eq!(bits(cached.embed(word)), want, "miss {word:?}");
            assert_eq!(bits(cached.embed(word)), want, "hit {word:?}");
        }
        assert_eq!(cached.cached_words(), 5);
        assert_eq!(
            bits(cached.embed_all(["street", "road"])),
            bits(inner.embed_all(["street", "road"]))
        );
        assert_eq!(cached.cached_words(), 6);
        // Bit for bit, hits and misses mixed, and the empty bag.
        let words: Vec<String> = (0..40).map(|i| format!("word{}", i % 23)).collect();
        let bag = || words.iter().map(String::as_str);
        assert_eq!(bits(cached.embed_all(bag())), bits(inner.embed_all(bag())));
        assert_eq!(cached.cached_words(), 6 + 23);
        assert_eq!(cached.embed_all([]), vec![0.0; 16]);
    }

    /// A word whose sums overflow `i16` is embedded on every use and
    /// never stored; the words around it are.
    #[test]
    fn words_past_i16_sums_are_not_stored() {
        let inner = HashEmbedder::new(8, SUBWORD_SEED);
        let cached = CachedEmbedder::new(&inner);
        let long = "a".repeat(20_000);
        for _ in 0..2 {
            let bag = ["x", long.as_str(), "y"];
            assert_eq!(bits(cached.embed(&long)), bits(inner.embed(&long)));
            assert_eq!(bits(cached.embed_all(bag)), bits(inner.embed_all(bag)));
        }
        assert_eq!(cached.cached_words(), 2);
    }

    #[test]
    fn embed_all_is_unit_norm_mean() {
        let e = HashEmbedder::new(DEFAULT_DIM, SUBWORD_SEED);
        let v = e.embed_all(["practice", "practices"]);
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
        // The mean of two variants stays close to each.
        assert!(cosine(&v, &e.embed("practice")) > 0.8);
    }

    #[test]
    fn embed_all_empty_is_zero() {
        let e = HashEmbedder::new(DEFAULT_DIM, SUBWORD_SEED);
        let v = e.embed_all([]);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(v.len(), e.dim());
    }

    #[test]
    fn case_insensitive() {
        let e = HashEmbedder::new(DEFAULT_DIM, SUBWORD_SEED);
        assert_eq!(bits(e.embed("Street")), bits(e.embed("street")));
    }
}
