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
use vecmath::norm_sq;
pub use vecmath::{cosine, mean_vector, normalize};

#[cfg(test)]
mod cached_tests {
    use super::*;

    fn bits(v: Vec<f64>) -> Vec<u64> {
        v.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn cached_embedder_is_transparent() {
        let lexicon = Lexicon::with_groups(16, &[&["street", "road"]]);
        let inner = SemanticEmbedder::new(lexicon);
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
        let inner = SemanticEmbedder::new(Lexicon::new(8));
        let cached = CachedEmbedder::new(&inner);
        let long = "a".repeat(20_000);
        for _ in 0..2 {
            let bag = ["x", long.as_str(), "y"];
            assert_eq!(bits(cached.embed(&long)), bits(inner.embed(&long)));
            assert_eq!(bits(cached.embed_all(bag)), bits(inner.embed_all(bag)));
        }
        assert_eq!(cached.cached_words(), 2);
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

/// A memoizing [`SemanticEmbedder`]: each distinct word is embedded
/// once and kept as its subword half's integer sign sums — `dim`
/// `i16`s in one flat slab — beside their `f64` norm and whether the
/// word is in the lexicon. A hit rebuilds the vector: `sum / norm`, the
/// division [`normalize`] makes, and a lexicon word is then blended
/// with its concept vector exactly as [`SemanticEmbedder::embed`]
/// blends it. So every vector is bit for bit the embedder's own;
/// wrapping changes only the cost. A word whose sums do not fit `i16`
/// (≈ 10 900 characters or more) is embedded on every use and never
/// stored.
///
/// Intended per profiling worker (it is `!Sync` by design: each
/// worker owns its memo, so no locks sit on the hot path).
pub struct CachedEmbedder<'a> {
    inner: &'a SemanticEmbedder,
    memo: std::cell::RefCell<Memo>,
}

/// The memo's rows: one per stored word, its `dim` sign sums at
/// `sums[row * dim..]`.
#[derive(Default)]
struct Memo {
    rows: std::collections::HashMap<Box<str>, u32>,
    sums: Vec<i16>,
    norms: Vec<f64>,
    lexical: Vec<bool>,
}

/// A word as the memo finds it.
enum Found {
    /// Stored at this row.
    Row(usize),
    /// Embedded just now (and stored, if its sums fit).
    Fresh(Vec<f64>),
}

impl Memo {
    /// The unit subword vector of `row`, coordinate by coordinate.
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
    pub fn new(inner: &'a SemanticEmbedder) -> Self {
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
        let lw = fold(word);
        let mut sums = vec![0; self.dim()];
        self.inner.subword.sign_sums(&lw, &mut sums);
        let sub: Vec<f64> = sums.iter().map(|&c| f64::from(c)).collect();
        let norm = norm_sq(&sub).sqrt();
        let sub = normalize(sub);
        let concept = self.inner.lexicon.concept_vector(&lw);
        if sums.iter().all(|&c| i16::try_from(c).is_ok()) {
            let row = u32::try_from(memo.norms.len()).expect("memo rows fit u32");
            memo.sums.extend(sums.iter().map(|&c| c as i16));
            memo.norms.push(norm);
            memo.lexical.push(concept.is_some());
            memo.rows.insert(word.into(), row);
        }
        Found::Fresh(SemanticEmbedder::blend(concept, sub))
    }

    /// The vector of a stored row: its subword half, blended when the
    /// word is in the lexicon.
    fn row_vector(&self, memo: &Memo, row: usize, word: &str) -> Vec<f64> {
        let sub = memo.unit(row, self.dim()).collect();
        if !memo.lexical[row] {
            return sub;
        }
        let concept = self.inner.lexicon.concept_vector(&fold(word));
        SemanticEmbedder::blend(concept, sub)
    }
}

impl WordEmbedder for CachedEmbedder<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn embed(&self, word: &str) -> Vec<f64> {
        let mut memo = self.memo.borrow_mut();
        match self.find(&mut memo, word) {
            Found::Row(row) => self.row_vector(&memo, row, word),
            Found::Fresh(v) => v,
        }
    }

    /// The trait's `normalize(mean_vector(..))`, a word's coordinates
    /// added straight from its memo row where it has no concept — the
    /// same additions in the same order, so the same bits, without a
    /// vector per word.
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
                Found::Row(row) if !memo.lexical[row] => add(&mut sum, memo.unit(row, dim)),
                Found::Row(row) => add(&mut sum, self.row_vector(&memo, row, word)),
                Found::Fresh(v) => add(&mut sum, v),
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

/// A word as the embedders look it up: tokenized words arrive already
/// lowercase, so this only allocates when there is something to fold.
fn fold(word: &str) -> std::borrow::Cow<'_, str> {
    if word.bytes().any(|b| b.is_ascii_uppercase()) || !word.is_ascii() {
        std::borrow::Cow::Owned(word.to_lowercase())
    } else {
        std::borrow::Cow::Borrowed(word)
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

    /// A word's vector from its concept vector, if it has one, and its
    /// unit subword vector.
    fn blend(concept: Option<Vec<f64>>, sub: Vec<f64>) -> Vec<f64> {
        match concept {
            Some(concept) => normalize(
                concept
                    .iter()
                    .zip(&sub)
                    .map(|(c, s)| Self::ALPHA * c + (1.0 - Self::ALPHA) * s)
                    .collect(),
            ),
            None => sub,
        }
    }
}

impl WordEmbedder for SemanticEmbedder {
    fn dim(&self) -> usize {
        self.lexicon.dim()
    }

    fn embed(&self, word: &str) -> Vec<f64> {
        let lw = fold(word);
        Self::blend(self.lexicon.concept_vector(&lw), self.subword.embed(&lw))
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
