//! Hashed token sets: the profile representation behind every exact
//! set distance.
//!
//! A [`TokenSet`] is a sorted, deduplicated `Vec<u64>` of
//! [`hash_str`] token hashes. Compared to the
//! `HashSet<String>` representation it replaces, it
//!
//! * hashes every token exactly once — MinHash signatures are then
//!   derived from the stored hashes instead of re-hashing strings;
//! * holds 8 bytes per token for the lifetime of the index instead of
//!   an owned `String` plus hash-table overhead;
//! * computes exact Jaccard and overlap coefficients as linear,
//!   branch-predictable merge-intersections over the sorted vecs.
//!
//! Two distinct tokens collide only when their 64-bit FNV-1a hashes
//! collide, so set measures over a `TokenSet` agree with the
//! string-set measures up to that (negligible) probability.

use crate::hash::hash_str;

/// A sorted, deduplicated set of 64-bit token hashes.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct TokenSet(Vec<u64>);

impl TokenSet {
    /// The empty set.
    pub fn new() -> Self {
        TokenSet(Vec::new())
    }

    /// Build from raw hashes (sorts and deduplicates; accepts
    /// arbitrary order and duplicates).
    pub fn from_hashes(mut hashes: Vec<u64>) -> Self {
        hashes.sort_unstable();
        hashes.dedup();
        TokenSet(hashes)
    }

    /// Build by hashing string tokens with [`hash_str`].
    pub fn from_strs<'a, I: IntoIterator<Item = &'a str>>(items: I) -> Self {
        TokenSet::from_hashes(items.into_iter().map(hash_str).collect())
    }

    /// Number of distinct tokens.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no token was inserted.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The sorted hashes.
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }

    /// Iterate the sorted hashes.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().copied()
    }

    /// Membership by hash (binary search).
    pub fn contains_hash(&self, h: u64) -> bool {
        self.0.binary_search(&h).is_ok()
    }

    /// Membership by token string.
    pub fn contains_str(&self, token: &str) -> bool {
        self.contains_hash(hash_str(token))
    }

    /// Size of the intersection: a linear merge over the two sorted
    /// vecs ([`crate::kernels::intersection_len`]).
    pub fn intersection_len(&self, other: &TokenSet) -> usize {
        crate::kernels::intersection_len(&self.0, &other.0)
    }

    /// Exact Jaccard similarity `|A ∩ B| / |A ∪ B|`. Two empty sets
    /// are identical (1); an empty set against a non-empty one shares
    /// nothing (0).
    pub fn jaccard(&self, other: &TokenSet) -> f64 {
        if self.is_empty() && other.is_empty() {
            return 1.0;
        }
        let inter = self.intersection_len(other);
        let union = self.len() + other.len() - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }

    /// The overlap coefficient `|A ∩ B| / min(|A|, |B|)` (§IV's
    /// `ov(T(a), T(a'))`); 0 when either set is empty.
    pub fn overlap_coefficient(&self, other: &TokenSet) -> f64 {
        let min = self.len().min(other.len());
        if min == 0 {
            return 0.0;
        }
        self.intersection_len(other) as f64 / min as f64
    }

    /// Resident footprint in bytes (Table II accounting).
    pub fn byte_size(&self) -> usize {
        self.0.len() * std::mem::size_of::<u64>()
    }
}

impl FromIterator<u64> for TokenSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        TokenSet::from_hashes(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[&str]) -> TokenSet {
        TokenSet::from_strs(items.iter().copied())
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let t = TokenSet::from_hashes(vec![9, 3, 3, 7, 9, 1]);
        assert_eq!(t.as_slice(), &[1, 3, 7, 9]);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert_eq!(t.byte_size(), 32);
    }

    #[test]
    fn membership() {
        let t = set(&["portland", "oxford"]);
        assert!(t.contains_str("portland"));
        assert!(t.contains_str("oxford"));
        assert!(!t.contains_str("salford"));
        assert!(t.contains_hash(hash_str("portland")));
    }

    #[test]
    fn jaccard_matches_reference() {
        let a = set(&["x", "y"]);
        let b = set(&["y", "z"]);
        assert!((a.jaccard(&b) - 1.0 / 3.0).abs() < 1e-12);
        assert!((a.jaccard(&a) - 1.0).abs() < 1e-12);
        let e = TokenSet::new();
        assert!((e.jaccard(&e) - 1.0).abs() < 1e-12);
        assert!(a.jaccard(&e) < 1e-12);
    }

    #[test]
    fn jaccard_is_symmetric() {
        let a = set(&["a", "b", "c", "d"]);
        let b = set(&["c", "d", "e"]);
        assert!((a.jaccard(&b) - b.jaccard(&a)).abs() < 1e-15);
        assert_eq!(a.intersection_len(&b), 2);
    }

    #[test]
    fn overlap_coefficient_basics() {
        let a = set(&["x", "y", "z"]);
        let b = set(&["y", "z"]);
        assert!((a.overlap_coefficient(&b) - 1.0).abs() < 1e-12, "b ⊆ a");
        let c = set(&["q"]);
        assert!(a.overlap_coefficient(&c).abs() < 1e-12);
        assert!(a.overlap_coefficient(&TokenSet::new()).abs() < 1e-12);
    }

    #[test]
    fn from_iterator_collects() {
        let t: TokenSet = [5u64, 2, 5, 8].into_iter().collect();
        assert_eq!(t.as_slice(), &[2, 5, 8]);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![2, 5, 8]);
    }
}
