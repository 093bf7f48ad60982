//! Random hyperplane projections (Charikar, STOC 2002): bit signatures
//! whose per-bit collision probability is `1 - θ/π` for vectors at
//! angle θ, giving a locality-sensitive family for cosine similarity.

use serde::{Deserialize, Serialize};

use crate::hash::splitmix64;

/// A bit signature produced by [`RandomProjector`]; packed into u64
/// words.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitSignature {
    bits: Vec<u64>,
    nbits: usize,
}

impl BitSignature {
    /// Number of hyperplanes / bits.
    pub fn len(&self) -> usize {
        self.nbits
    }

    /// True when the signature has no bits.
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    /// Bit at position `i`.
    pub fn bit(&self, i: usize) -> bool {
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Hamming distance to `other` (number of differing bits) — the
    /// chunked XOR-popcount kernel from [`crate::kernels`].
    pub fn hamming(&self, other: &BitSignature) -> usize {
        assert_eq!(self.nbits, other.nbits, "signature length mismatch");
        crate::kernels::hamming_words(&self.bits, &other.bits)
    }

    /// Estimate cosine similarity from the hamming fraction:
    /// `cos(π * h / n)`, clamped to `[0, 1]` (D3L's distances live in
    /// the unit interval, so negative cosine is treated as unrelated).
    pub fn cosine(&self, other: &BitSignature) -> f64 {
        assert_eq!(self.nbits, other.nbits, "signature length mismatch");
        self.cosine_words(&other.bits)
    }

    /// [`BitSignature::cosine`] against a signature given as its raw
    /// packed words (same bit count) — the forest's flat signature
    /// arena scores candidates through this without materializing a
    /// signature per slot.
    pub fn cosine_words(&self, other: &[u64]) -> f64 {
        assert_eq!(self.bits.len(), other.len(), "signature length mismatch");
        if self.nbits == 0 {
            return 0.0;
        }
        let h = crate::kernels::hamming_words(&self.bits, other);
        let frac = h as f64 / self.nbits as f64;
        (std::f64::consts::PI * frac).cos().max(0.0)
    }

    /// Extract `r` bits starting at `start` as a band key (for banded
    /// indexing over bit signatures).
    pub fn band_key(&self, start: usize, r: usize) -> u64 {
        let mut key = 0u64;
        for i in 0..r.min(64) {
            let pos = start + i;
            if pos < self.nbits && self.bit(pos) {
                key |= 1 << i;
            }
        }
        key
    }

    /// Approximate footprint in bytes.
    pub fn byte_size(&self) -> usize {
        self.bits.len() * 8
    }

    /// The packed bit words (persistence layout).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Reassemble from packed words; `None` unless the word count is
    /// exactly what `nbits` bits pack into.
    pub fn from_words(bits: Vec<u64>, nbits: usize) -> Option<Self> {
        if bits.len() != nbits.div_ceil(64) {
            return None;
        }
        Some(BitSignature { bits, nbits })
    }
}

/// Factory of random hyperplanes for vectors of dimension `dim`,
/// producing `nbits`-bit signatures. Hyperplane components are
/// standard Gaussians generated deterministically from the seed via
/// Box–Muller, so hyperplane normals are uniform on the sphere and
/// the collision probability is exactly `1 - θ/π` in any dimension.
#[derive(Debug, Clone)]
pub struct RandomProjector {
    dim: usize,
    nbits: usize,
    /// Precomputed hyperplane components, row-major `[plane][coord]`
    /// — Box–Muller per component is far too slow to redo on every
    /// signature.
    planes: Vec<f64>,
}

/// Default number of hyperplanes used by the `IE` index.
pub const DEFAULT_NBITS: usize = 256;

impl RandomProjector {
    /// A projector for `dim`-dimensional vectors producing `nbits`
    /// bits.
    pub fn new(dim: usize, nbits: usize, seed: u64) -> Self {
        let mut planes = Vec::with_capacity(dim * nbits);
        for plane in 0..nbits {
            for coord in 0..dim {
                planes.push(Self::component_of(seed, plane, coord));
            }
        }
        RandomProjector { dim, nbits, planes }
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Signature length in bits.
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// Gaussian component (plane, coordinate), deterministic in the
    /// seed.
    #[inline]
    fn component_of(seed: u64, plane: usize, coord: usize) -> f64 {
        let h = splitmix64(
            seed ^ (plane as u64).wrapping_mul(0x9e3779b97f4a7c15)
                ^ (coord as u64).wrapping_mul(0x2545f4914f6cdd1d),
        );
        // Box–Muller on the two 32-bit halves.
        let u1 = (((h & 0xffff_ffff) as f64) + 1.0) / (u32::MAX as f64 + 2.0);
        let u2 = ((h >> 32) as f64) / (u32::MAX as f64 + 1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Sign a dense vector: allocate, then
    /// [`RandomProjector::sign_into`].
    pub fn sign(&self, v: &[f64]) -> BitSignature {
        let mut bits = vec![0u64; self.nbits.div_ceil(64)];
        self.sign_into(v, &mut bits);
        BitSignature {
            bits,
            nbits: self.nbits,
        }
    }

    /// `(words, meta)` of every signature this projector writes — the
    /// shape [`crate::forest::LshForest::insert_with`] reserves a
    /// slot of.
    pub fn sig_shape(&self) -> (usize, u64) {
        (self.nbits.div_ceil(64), self.nbits as u64)
    }

    /// Write the packed bit signature of a dense vector into `out`
    /// (exactly `nbits.div_ceil(64)` words, overwritten). Panics if
    /// the dimension differs from the projector's.
    /// The per-plane dot runs four independent accumulators over
    /// coordinate lanes `i % 4`, folded in the fixed order
    /// `((d0 + d1) + (d2 + d3)) + tail` — the same documented
    /// summation order as `d3l-embedding`'s dot/norm kernel, so
    /// signatures are a deterministic function of the input vector at
    /// every thread and shard count.
    pub fn sign_into(&self, v: &[f64], out: &mut [u64]) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        assert_eq!(
            out.len(),
            self.nbits.div_ceil(64),
            "signature length mismatch"
        );
        out.fill(0);
        for plane in 0..self.nbits {
            let row = &self.planes[plane * self.dim..(plane + 1) * self.dim];
            // Same fixed summation order as `vecmath::dot_norms`:
            // 4 lane accumulators over `chunks_exact` windows (a
            // vertical vector op, no float reassociation), folded
            // `((d0 + d1) + (d2 + d3))`, sequential tail.
            let mut d = [0.0f64; 4];
            let mut cr = row.chunks_exact(4);
            let mut cv = v.chunks_exact(4);
            for (r, x) in (&mut cr).zip(&mut cv) {
                for l in 0..4 {
                    d[l] += r[l] * x[l];
                }
            }
            let mut dot = (d[0] + d[1]) + (d[2] + d[3]);
            for (&r, &x) in cr.remainder().iter().zip(cv.remainder()) {
                dot += r * x;
            }
            if dot >= 0.0 {
                out[plane / 64] |= 1 << (plane % 64);
            }
        }
    }
}

/// Exact cosine similarity of two dense vectors, clamped to `[0, 1]`.
pub fn exact_cosine(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector dimension mismatch");
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na.sqrt() * nb.sqrt())).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_collide_fully() {
        let rp = RandomProjector::new(8, 128, 3);
        let v = vec![0.3, -1.2, 0.7, 0.0, 2.0, -0.5, 0.9, 1.1];
        let a = rp.sign(&v);
        let b = rp.sign(&v);
        assert_eq!(a.hamming(&b), 0);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn opposite_vectors_are_maximally_distant() {
        let rp = RandomProjector::new(4, 256, 3);
        let v = vec![1.0, -2.0, 0.5, 3.0];
        let neg: Vec<f64> = v.iter().map(|x| -x).collect();
        let a = rp.sign(&v);
        let b = rp.sign(&neg);
        assert_eq!(a.hamming(&b), 256);
        assert!(a.cosine(&b) < 1e-9); // clamped at 0
    }

    #[test]
    fn estimate_tracks_exact_cosine() {
        // Two vectors at a 60° angle: cosine 0.5.
        let a = vec![1.0, 0.0];
        let b = vec![0.5, 3f64.sqrt() / 2.0];
        let rp = RandomProjector::new(2, 1024, 5);
        let sa = rp.sign(&a);
        let sb = rp.sign(&b);
        let est = sa.cosine(&sb);
        let exact = exact_cosine(&a, &b);
        assert!((est - exact).abs() < 0.12, "est {est} vs exact {exact}");
    }

    #[test]
    fn band_keys_and_bits() {
        let rp = RandomProjector::new(3, 70, 9);
        let s = rp.sign(&[1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 70);
        assert!(!s.is_empty());
        // band key consistency with bit()
        let key = s.band_key(0, 8);
        for i in 0..8 {
            assert_eq!((key >> i) & 1 == 1, s.bit(i));
        }
        assert!(s.byte_size() >= 16);
    }

    #[test]
    fn exact_cosine_reference() {
        assert!((exact_cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(exact_cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert!(exact_cosine(&[0.0, 0.0], &[1.0, 0.0]).abs() < 1e-12);
        // negative cosine clamps to 0
        assert!(exact_cosine(&[1.0], &[-1.0]).abs() < 1e-12);
    }

    /// `sign_into` overwrites a dirty slot with exactly the words
    /// `sign` returns, on random vectors (zero vector included) and a
    /// bit count that does not fill its last word.
    #[test]
    fn sign_into_matches_sign() {
        let rp = RandomProjector::new(7, 70, 21);
        assert_eq!(rp.sig_shape(), (2, 70));
        let mut state = 0xfeed_u64;
        for case in 0..64 {
            let v: Vec<f64> = (0..7)
                .map(|_| {
                    state = splitmix64(state);
                    if case == 0 {
                        0.0
                    } else {
                        (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
                    }
                })
                .collect();
            let mut slot = vec![u64::MAX; 2];
            rp.sign_into(&v, &mut slot);
            let sig = rp.sign(&v);
            assert_eq!(slot, sig.words(), "case {case}");
            assert_eq!(slot[1] >> 6, 0, "bits past nbits stay clear");
        }
    }

    #[test]
    #[should_panic(expected = "vector dimension mismatch")]
    fn dimension_mismatch_panics() {
        let rp = RandomProjector::new(2, 8, 1);
        rp.sign(&[1.0]);
    }
}
