//! Subword hash embedder: fastText's character n-gram trick without
//! the trained matrix. Each character n-gram (3..=5, with `<`/`>`
//! boundary markers) of a word's lowercase form is hashed to a
//! deterministic pseudorandom ±1 direction; a word's vector is the
//! normalized sum of its n-gram directions, so words sharing
//! morphology share vector mass.
//!
//! Every coordinate of that sum is an integer — the count of n-grams
//! voting +1 less the count voting −1 — so it is computed as one
//! (`HashEmbedder::sign_sums`) and only the final division by the
//! norm is floating point. Summing the ±1.0 votes as `f64`, in any
//! order, gives the same integers (every partial sum is exact), so the
//! vector is bit for bit the one the float accumulation gives; the
//! `#[cfg(test)]` oracle below is that accumulation.

use d3l_lsh::hash::{splitmix64, Fnv1a};
use d3l_lsh::kernels::SigningLanes;

use crate::vecmath::normalize;

/// Deterministic subword embedder.
#[derive(Debug, Clone)]
pub struct HashEmbedder {
    dim: usize,
    seed: u64,
    lanes: SigningLanes,
}

/// Dimensions [`sign_sums_across`] takes a step.
const LANES: usize = 8;

/// Odd multiplier spreading a dimension index before it is mixed with
/// an n-gram's base.
const DIM_MIX: u64 = 0x2545f4914f6cdd1d;

impl HashEmbedder {
    /// An embedder of the given dimensionality.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        HashEmbedder {
            dim,
            seed,
            lanes: SigningLanes::detect(),
        }
    }

    /// This embedder, summing signs with the baseline compilation
    /// whatever the CPU has — how the tests reach both on one machine.
    #[cfg(test)]
    pub(crate) fn portable(mut self) -> Self {
        self.lanes = SigningLanes::PORTABLE;
        self
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Each n-gram's base `splitmix64(fnv1a(gram) ^ seed)`, in
    /// fastText's order: the 3-, 4- and 5-grams of the bounded word
    /// (`<word>`), then the bounded word itself. FNV-1a runs over the
    /// UTF-8 bytes of each char window in place.
    fn gram_bases(&self, word: &str) -> Vec<u64> {
        let bounded: Vec<char> = std::iter::once('<')
            .chain(word.chars())
            .chain(std::iter::once('>'))
            .collect();
        let base = |chars: &[char]| {
            let mut h = Fnv1a::new();
            chars.iter().for_each(|&c| h.write_char(c));
            splitmix64(h.finish() ^ self.seed)
        };
        let mut bases = Vec::with_capacity(3 * bounded.len());
        for n in 3..=5usize {
            bases.extend(bounded.windows(n).map(base));
        }
        bases.push(base(&bounded));
        bases
    }

    /// The sign sums of the word's lowercase form into `sums` (`dim`
    /// values, overwritten): coordinate `i` is the number of its
    /// n-grams whose direction is +1 there, less the number whose
    /// direction is −1. The empty word has no n-grams and sums to
    /// zero. Every vector is made here, so this is where a word is
    /// folded, and the only place.
    pub(crate) fn sign_sums(&self, word: &str, sums: &mut [i32]) {
        debug_assert_eq!(sums.len(), self.dim);
        if word.is_empty() {
            sums.fill(0);
            return;
        }
        let bases = self.gram_bases(&fold(word));
        #[cfg(target_arch = "x86_64")]
        if self.lanes.is_avx512() {
            // SAFETY: `is_avx512` is true only for the value
            // `SigningLanes::detect` returns after
            // `is_x86_feature_detected!` reported avx512f, avx512dq
            // and avx512vl on this CPU — the features the callee is
            // compiled for.
            unsafe { sign_sums_avx512(&bases, sums) };
            return;
        }
        sign_sums_across(&bases, sums)
    }

    /// Embed a word as the normalized sum of the n-gram directions of
    /// its lowercase form: its sign sums as `f64`, divided by their
    /// norm. The empty word maps to the zero vector.
    pub fn embed(&self, word: &str) -> Vec<f64> {
        let mut sums = vec![0; self.dim];
        self.sign_sums(word, &mut sums);
        normalize(sums.into_iter().map(f64::from).collect())
    }
}

/// A word as the embedder hashes it, lowercase: tokenized words arrive
/// already lowercase, so this only allocates when there is something
/// to fold.
fn fold(word: &str) -> std::borrow::Cow<'_, str> {
    if word.bytes().any(|b| b.is_ascii_uppercase()) || !word.is_ascii() {
        std::borrow::Cow::Owned(word.to_lowercase())
    } else {
        std::borrow::Cow::Borrowed(word)
    }
}

/// The sign sums of `bases` (one per n-gram) into `sums`, [`LANES`]
/// dimensions a step: dimension `i` of an n-gram is +1 when
/// `splitmix64(base ^ i·DIM_MIX)` is odd and −1 otherwise. A step keeps
/// its lanes' counts of odd mixes in registers over every base, and a
/// sum is `2·odd − grams`. Exact integer arithmetic: every compilation
/// writes the same sums. The last step computes lanes past `dim` and
/// stores only those within it.
#[inline(always)]
fn sign_sums_across(bases: &[u64], sums: &mut [i32]) {
    let grams = bases.len() as i64;
    for (step, out) in sums.chunks_mut(LANES).enumerate() {
        let mut keys = [0u64; LANES];
        for (l, key) in keys.iter_mut().enumerate() {
            *key = ((step * LANES + l) as u64).wrapping_mul(DIM_MIX);
        }
        let mut odd = [0u64; LANES];
        for &base in bases {
            for l in 0..LANES {
                odd[l] += splitmix64(base ^ keys[l]) & 1;
            }
        }
        for (sum, &odd) in out.iter_mut().zip(&odd) {
            *sum = (2 * odd as i64 - grams) as i32;
        }
    }
}

/// [`sign_sums_across`] compiled for AVX-512 F/DQ/VL (`vpmullq` over
/// eight dimensions a register). Calling it is `unsafe` unless
/// [`SigningLanes::is_avx512`] holds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn sign_sums_avx512(bases: &[u64], sums: &mut [i32]) {
    sign_sums_across(bases, sums)
}

impl crate::WordEmbedder for HashEmbedder {
    fn dim(&self) -> usize {
        self.dim
    }
    fn embed(&self, word: &str) -> Vec<f64> {
        HashEmbedder::embed(self, word)
    }
}

/// The path the sign sums replaced: materialize every n-gram as a
/// `String`, hash it with FNV-1a, and add its ±1.0 direction into an
/// `f64` accumulator one dimension at a time. Test-only — the oracle
/// the lanes are checked and timed against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    /// Character n-grams of a word with boundary markers, n ∈ 3..=5,
    /// plus the whole bounded word (fastText's construction).
    pub(crate) fn ngrams(word: &str) -> Vec<String> {
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
    fn accumulate(seed: u64, gram_hash: u64, acc: &mut [f64]) {
        let base = splitmix64(gram_hash ^ seed);
        for (i, slot) in acc.iter_mut().enumerate() {
            let h = splitmix64(base ^ (i as u64).wrapping_mul(DIM_MIX));
            *slot += if h & 1 == 1 { 1.0 } else { -1.0 };
        }
    }

    /// The vector [`HashEmbedder::embed`] must return for `word`,
    /// given lowercase.
    pub(crate) fn embed(dim: usize, seed: u64, word: &str) -> Vec<f64> {
        let mut acc = vec![0.0; dim];
        if word.is_empty() {
            return acc;
        }
        for gram in ngrams(word) {
            accumulate(seed, d3l_lsh::hash::fnv1a(gram.as_bytes()), &mut acc);
        }
        normalize(acc)
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

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Both compilations of the lanes reproduce the materialized-gram
    /// float path over the lowercase word bit for bit, at dimensions around the step width and
    /// at the largest an index allows, on words up to 20 000
    /// characters (sums past `i16`, which the memo does not store; not
    /// at 4 096 dimensions, where it would be 2.5 · 10⁸ mixes a path).
    #[test]
    fn lanes_match_the_oracle() {
        let long = "a".repeat(20_000);
        let words = [
            "",
            "a",
            "salford",
            "café",
            "practices",
            "İß日本",
            "ς",
            &long,
        ];
        println!("lanes: {}, portable", SigningLanes::detect().name());
        for dim in [1usize, 7, 8, 9, 48, 64, 65, 4096] {
            let detected = HashEmbedder::new(dim, 7);
            let portable = detected.clone().portable();
            for word in words {
                if dim == 4096 && word.len() > 100 {
                    continue;
                }
                let want = bits(&oracle::embed(dim, 7, &word.to_lowercase()));
                let ctx = format!("{} chars at {dim}", word.chars().count());
                assert_eq!(bits(&detected.embed(word)), want, "{ctx}");
                assert_eq!(bits(&portable.embed(word)), want, "{ctx}");
            }
        }
    }

    #[test]
    fn ngram_construction() {
        let grams = oracle::ngrams("ab");
        // bounded = <ab> (len 4): 3-grams {<ab, ab>}, 4-grams {<ab>},
        // whole word <ab>
        assert!(grams.contains(&"<ab".to_string()));
        assert!(grams.contains(&"ab>".to_string()));
        assert!(grams.contains(&"<ab>".to_string()));
    }

    /// The same-run ratio gate (CI runs it in release): the sign-sum
    /// lanes against the materialized-gram oracle on 17-character
    /// words at the index's 64 dimensions.
    #[test]
    #[ignore = "timing: cargo test --release -p d3l-embedding embedding_lanes_beat_oracle -- --ignored --nocapture"]
    fn embedding_lanes_beat_oracle() {
        use std::hint::black_box;
        let dim = crate::DEFAULT_DIM;
        let mut state = 0x5eed_u64;
        let words: Vec<String> = (0..400)
            .map(|_| {
                (0..17)
                    .map(|_| {
                        state = splitmix64(state);
                        char::from(b'a' + (state % 26) as u8)
                    })
                    .collect()
            })
            .collect();
        let us_per_word = |embed: &dyn Fn(&str) -> Vec<f64>| {
            (0..7)
                .map(|_| {
                    let start = std::time::Instant::now();
                    for w in &words {
                        black_box(embed(black_box(w)));
                    }
                    start.elapsed()
                })
                .min()
                .unwrap()
                .as_secs_f64()
                / words.len() as f64
                * 1e6
        };
        let detected = HashEmbedder::new(dim, crate::SUBWORD_SEED);
        let portable = detected.clone().portable();
        let oracle_us = us_per_word(&|w| oracle::embed(dim, crate::SUBWORD_SEED, w));
        let portable_us = us_per_word(&|w| portable.embed(w));
        let detected_us = us_per_word(&|w| detected.embed(w));
        println!(
            "embedding, us per word: oracle {oracle_us:.2}, portable lanes {portable_us:.2} \
             ({:.2}x)",
            oracle_us / portable_us
        );
        assert!(
            oracle_us / portable_us >= 1.2,
            "portable lanes only {:.2}x the oracle",
            oracle_us / portable_us
        );
        if SigningLanes::detect().is_avx512() {
            println!(
                "embedding, us per word: avx512 lanes {detected_us:.2} ({:.2}x)",
                oracle_us / detected_us
            );
            assert!(
                oracle_us / detected_us >= 2.0,
                "avx512 lanes only {:.2}x the oracle",
                oracle_us / detected_us
            );
        } else {
            println!("avx512 tier not available: not gated");
        }
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        HashEmbedder::new(0, 1);
    }
}
