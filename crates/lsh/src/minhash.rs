//! MinHash (Broder 1997): fixed-length signatures whose per-position
//! collision probability equals the Jaccard similarity of the
//! underlying sets.

use serde::{Deserialize, Serialize};

use crate::hash::{hash_str, splitmix64, UniversalHasher};
use crate::tokenset::TokenSet;

/// A MinHash signature: `num_perm` 64-bit minimum hash values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinHashSignature(pub Vec<u64>);

impl MinHashSignature {
    /// Signature length.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the degenerate zero-length signature.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Estimate Jaccard similarity as the fraction of agreeing
    /// positions. Panics if lengths differ (signatures must come from
    /// the same [`MinHasher`]).
    pub fn jaccard(&self, other: &MinHashSignature) -> f64 {
        self.jaccard_words(&other.0)
    }

    /// [`MinHashSignature::jaccard`] against a signature given as its
    /// raw hash words — the forest's flat signature arena scores
    /// candidates through this without materializing a signature per
    /// slot.
    pub fn jaccard_words(&self, other: &[u64]) -> f64 {
        assert_eq!(self.len(), other.len(), "signature length mismatch");
        if self.is_empty() {
            return 0.0;
        }
        let agree = crate::kernels::agreement_count(&self.0, other);
        agree as f64 / self.len() as f64
    }

    /// The backing hash words (flat-storage layout).
    pub fn words(&self) -> &[u64] {
        &self.0
    }

    /// Approximate serialized footprint in bytes (space accounting).
    pub fn byte_size(&self) -> usize {
        self.0.len() * 8
    }
}

/// Factory producing MinHash signatures with a fixed permutation
/// family. The paper uses `num_perm = 256`.
#[derive(Debug, Clone)]
pub struct MinHasher {
    family: UniversalHasher,
}

/// Default signature size used across the reproduction (paper §V).
pub const DEFAULT_NUM_PERM: usize = 256;

impl MinHasher {
    /// A hasher with `num_perm` simulated permutations.
    pub fn new(num_perm: usize, seed: u64) -> Self {
        MinHasher {
            family: UniversalHasher::new(num_perm, seed),
        }
    }

    /// Number of permutations (signature length).
    pub fn num_perm(&self) -> usize {
        self.family.len()
    }

    /// Signature of a set of string tokens. The empty set gets a
    /// signature of all `u64::MAX`, which collides only with other
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
        let mut sig = vec![0u64; self.family.len()];
        self.sign_into(hashes, &mut sig);
        MinHashSignature(sig)
    }

    /// `(words, meta)` of every signature this hasher writes — the
    /// shape [`crate::forest::LshForest::insert_with`] reserves a
    /// slot of.
    pub fn sig_shape(&self) -> (usize, u64) {
        (self.family.len(), 0)
    }

    /// Write the signature of a slice of pre-hashed tokens into `out`
    /// (exactly `num_perm` words) — the index build signs straight
    /// into a forest's signature arena through this.
    ///
    /// Produces bit-identical output to the historical per-token ×
    /// per-permutation formulation (`min_x splitmix64(a_i·x + b_i)`),
    /// but iterates permutation-major: each permutation's `(a, b)`
    /// pair stays in registers, the running minimum is a register
    /// `min` (a branchless conditional move) instead of a
    /// read-modify-write per signature slot, and the token hashes are
    /// one contiguous scan. Duplicate hashes are harmless (minimums
    /// ignore multiplicity).
    /// The inner scan runs four independent running minimums over
    /// token lanes (`chunks_exact` windows, one minimum per in-chunk
    /// position) and folds them as `min(min(m0, m1), min(m2, m3),
    /// tail)` — `min` is associative and commutative, so the result
    /// is bit-identical to the single sequential minimum while the
    /// mix/compare work runs as packed vector lanes instead of one
    /// serial chain (fixed-width windows are what the auto-vectorizer
    /// recognizes; manual `i`, `i + 1`, … indexing is not).
    pub fn sign_into(&self, hashes: &[u64], out: &mut [u64]) {
        assert_eq!(out.len(), self.family.len(), "signature length mismatch");
        for (slot, &(a, b)) in out.iter_mut().zip(self.family.params()) {
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
            *slot = min;
        }
    }
}

/// Exact Jaccard similarity of two hashed token sets: a linear
/// merge-intersection over the sorted vecs, for tests and for the
/// paper's exact-distance formulas (§III-B).
pub fn exact_jaccard(a: &TokenSet, b: &TokenSet) -> f64 {
    a.jaccard(b)
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
        assert_eq!(e1.byte_size(), 16 * 8);
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
    /// `sign_hashed` returns, which is the per-token × per-permutation
    /// definition, on random token sets of every tail length.
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
            let mut slot = vec![0xdead_beef_u64; 48];
            mh.sign_into(&hashes, &mut slot);
            assert_eq!(slot, mh.sign_hashed(&hashes).0, "{n} tokens");
            let naive: Vec<u64> = mh
                .family
                .params()
                .iter()
                .map(|&(a, b)| {
                    hashes
                        .iter()
                        .map(|&h| splitmix64(a.wrapping_mul(h).wrapping_add(b)))
                        .min()
                        .unwrap_or(u64::MAX)
                })
                .collect();
            assert_eq!(slot, naive, "{n} tokens");
        }
        assert_eq!(mh.sig_shape(), (48, 0));
    }

    #[test]
    #[should_panic(expected = "signature length mismatch")]
    fn mismatched_lengths_panic() {
        let a = MinHashSignature(vec![1, 2]);
        let b = MinHashSignature(vec![1]);
        a.jaccard(&b);
    }
}
