//! Hashing primitives: a fast 64-bit string hash and a universal hash
//! family used to simulate MinHash permutations.

/// FNV-1a 64-bit hash of a byte string. Stable across runs and
/// platforms (important: signatures are serialized with indexes).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Hash a string token to a 64-bit value.
#[inline]
pub fn hash_str(s: &str) -> u64 {
    fnv1a(s.as_bytes())
}

/// Incremental FNV-1a state: streaming equivalent of [`fnv1a`].
/// Feeding it the same bytes in any number of chunks yields the same
/// value as one [`fnv1a`] call over their concatenation — profile
/// extraction uses it to hash q-gram windows and format patterns
/// without materializing intermediate strings.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;

    /// Fresh state (the FNV offset basis).
    #[inline]
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Absorb one byte.
    #[inline]
    pub fn write_byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Absorb a byte slice.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_byte(b);
        }
    }

    /// Absorb a char as its UTF-8 bytes (matching [`hash_str`] on the
    /// equivalent string).
    #[inline]
    pub fn write_char(&mut self, c: char) {
        let mut buf = [0u8; 4];
        self.write(c.encode_utf8(&mut buf).as_bytes());
    }

    /// The hash of everything absorbed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// splitmix64: fast avalanche mixer used to derive per-permutation
/// parameters and to finalize combined hashes.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A universal hash family `h_i(x) = mix(a_i * x + b_i)` indexed by
/// `i`, deterministic in the seed. Used to simulate the `n`
/// independent permutations MinHash needs.
#[derive(Debug, Clone)]
pub struct UniversalHasher {
    params: Vec<(u64, u64)>,
}

impl UniversalHasher {
    /// Create a family of `n` hash functions from a seed.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut params = Vec::with_capacity(n);
        let mut state = splitmix64(seed ^ SEED_TAG);
        for _ in 0..n {
            state = splitmix64(state);
            let a = state | 1; // force odd so multiplication permutes
            state = splitmix64(state);
            let b = state;
            params.push((a, b));
        }
        UniversalHasher { params }
    }

    /// Number of functions in the family.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True when the family is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Apply the `i`-th function to `x`.
    #[inline]
    pub fn hash(&self, i: usize, x: u64) -> u64 {
        let (a, b) = self.params[i];
        splitmix64(a.wrapping_mul(x).wrapping_add(b))
    }

    /// The `(a_i, b_i)` parameter pairs, for hot loops that iterate
    /// the whole family without per-call bounds checks (values equal
    /// `hash(i, x)` position for position).
    #[inline]
    pub(crate) fn params(&self) -> &[(u64, u64)] {
        &self.params
    }
}

/// A constant tag mixed into seeds so different substrates seeded with
/// the same user seed do not produce correlated streams.
const SEED_TAG: u64 = 0x6433_6c5f_6c73_6821; // "d3l_lsh!"

/// A [`std::hash::Hasher`] for small integer keys (item ids, packed
/// attribute refs): one [`splitmix64`] round instead of SipHash's
/// per-block permutation. The forests' signature maps and the query
/// pipeline's candidate sets are probed once per candidate on the hot
/// path, where the default hasher's setup cost dominates. It is not
/// keyed, so it resists no one who can choose the keys: they are
/// internally assigned ids, or — the forests' content maps — a fold of
/// a stored signature's words, which a lake's author reaches only
/// through the seeded MinHash and projection signing (a collision
/// there costs a scan of the map's collision list, never an answer).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (derived Hash on structs funnels through
        // write for some field layouts): FNV over the bytes, then one
        // avalanche round.
        let mut h = Fnv1a(self.0 ^ Fnv1a::OFFSET);
        h.write(bytes);
        self.0 = splitmix64(h.finish());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = splitmix64(self.0 ^ i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`IdHasher`]-keyed maps and sets.
pub type BuildIdHasher = std::hash::BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by internally assigned integer ids (or hashes
/// computed from stored content — see [`IdHasher`]).
pub type IdHashMap<K, V> = std::collections::HashMap<K, V, BuildIdHasher>;

/// A `HashSet` of internally assigned integer ids.
pub type IdHashSet<K> = std::collections::HashSet<K, BuildIdHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_known_values() {
        // Independent FNV-1a reference values.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn hash_str_differs_across_tokens() {
        assert_ne!(hash_str("portland"), hash_str("oxford"));
        assert_eq!(hash_str("salford"), hash_str("salford"));
    }

    #[test]
    fn splitmix_avalanches() {
        let a = splitmix64(1);
        let b = splitmix64(2);
        assert_ne!(a, b);
        assert_ne!((a ^ b).count_ones(), 0);
    }

    #[test]
    fn universal_family_deterministic_and_distinct() {
        let h1 = UniversalHasher::new(8, 42);
        let h2 = UniversalHasher::new(8, 42);
        let h3 = UniversalHasher::new(8, 43);
        assert_eq!(h1.len(), 8);
        assert!(!h1.is_empty());
        for i in 0..8 {
            assert_eq!(h1.hash(i, 123), h2.hash(i, 123));
        }
        assert_ne!(h1.hash(0, 123), h3.hash(0, 123));
        assert_ne!(h1.hash(0, 123), h1.hash(1, 123));
    }
}
