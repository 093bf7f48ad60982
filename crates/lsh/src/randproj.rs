//! Random hyperplane projections (Charikar, STOC 2002): bit signatures
//! whose per-bit collision probability is `1 - θ/π` for vectors at
//! angle θ, giving a locality-sensitive family for cosine similarity.
//!
//! # Sixteen planes abreast
//!
//! The plane matrix is stored once, as
//! `[block of 16 planes][coordinate][plane in block]`, and
//! [`RandomProjector::sign_into`] accumulates the 16 dot products of a
//! block side by side: every load of a matrix row feeds 16 independent
//! sums, where the plane-at-a-time loop it replaced waited on one
//! chain of dependent adds per plane. Each plane's sum is still taken
//! in the order that loop (and `d3l-embedding`'s `vecmath::dot_norms`)
//! documents — four accumulators over coordinates `i % 4`, folded
//! `((d0 + d1) + (d2 + d3))`, then the tail coordinates in sequence,
//! products and sums rounded separately (no fused multiply-add) —
//! because a float sum's order decides its last bit, a dot product's
//! last bit can decide its sign, and every signature, store byte and
//! ranking recorded so far came from that order. The
//! `abreast_projection_matches_the_per_plane_oracle` test holds the
//! two loops bit for bit, non-finite inputs included.
//!
//! The loop is compiled twice from one source: for the baseline
//! target, and for AVX-512 (a block's sum is two registers); which
//! runs is decided once, in [`RandomProjector::new`].

use crate::hash::splitmix64;
use crate::kernels::SigningLanes;

/// A bit signature produced by [`RandomProjector`]; packed into u64
/// words.
#[derive(Debug, Clone, PartialEq, Eq)]
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
        Self::cosine_words(&self.bits, &other.bits, self.nbits)
    }

    /// [`BitSignature::cosine`] of two signatures of `nbits` bits given
    /// as their raw packed words — the forest's flat signature arena
    /// scores candidates through this without materializing a
    /// signature on either side.
    pub fn cosine_words(a: &[u64], b: &[u64], nbits: usize) -> f64 {
        debug_assert_eq!(a.len(), nbits.div_ceil(64), "64 bits to a word");
        assert_eq!(a.len(), b.len(), "signature length mismatch");
        if nbits == 0 {
            return 0.0;
        }
        let h = crate::kernels::hamming_words(a, b);
        let frac = h as f64 / nbits as f64;
        (std::f64::consts::PI * frac).cos().max(0.0)
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
    /// Precomputed hyperplane components — Box–Muller per component
    /// is far too slow to redo on every signature — laid out
    /// `[block][coord][plane in block]` ([`plane_slot`]). The last
    /// block is zero-padded to [`ABREAST`] planes.
    planes: Vec<f64>,
    lanes: SigningLanes,
}

/// Default number of hyperplanes used by the `IE` index.
pub const DEFAULT_NBITS: usize = 256;

/// Planes projected side by side. A block's signs never straddle an
/// output word (16 divides 64).
const ABREAST: usize = 16;

/// Where component `coord` of plane `plane` sits in the
/// `[block][coord][plane in block]` matrix of a `dim`-dimensional
/// projector.
#[inline]
fn plane_slot(dim: usize, plane: usize, coord: usize) -> usize {
    ((plane / ABREAST) * dim + coord) * ABREAST + plane % ABREAST
}

impl RandomProjector {
    /// A projector for `dim`-dimensional vectors producing `nbits`
    /// bits.
    pub fn new(dim: usize, nbits: usize, seed: u64) -> Self {
        let mut planes = vec![0.0; nbits.div_ceil(ABREAST) * dim * ABREAST];
        for plane in 0..nbits {
            for coord in 0..dim {
                planes[plane_slot(dim, plane, coord)] = Self::component_of(seed, plane, coord);
            }
        }
        RandomProjector {
            dim,
            nbits,
            planes,
            lanes: SigningLanes::detect(),
        }
    }

    /// This projector, signing with the baseline compilation whatever
    /// the CPU has — how the tests reach both on one machine.
    #[cfg(test)]
    pub(crate) fn portable(mut self) -> Self {
        self.lanes = SigningLanes::PORTABLE;
        self
    }

    /// Component `coord` of hyperplane `plane`.
    pub fn component(&self, plane: usize, coord: usize) -> f64 {
        assert!(plane < self.nbits && coord < self.dim, "no such component");
        self.planes[plane_slot(self.dim, plane, coord)]
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Signature length in bits.
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// Bytes held: the padded hyperplane components.
    pub fn byte_size(&self) -> usize {
        self.planes.len() * std::mem::size_of::<f64>()
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
        Self::sig_shape_of(self.nbits)
    }

    /// [`RandomProjector::sig_shape`] of a projector of `nbits` bits,
    /// without building one.
    pub fn sig_shape_of(nbits: usize) -> (usize, u64) {
        (nbits.div_ceil(64), nbits as u64)
    }

    /// Write the packed bit signature of a dense vector into `out`
    /// (exactly `nbits.div_ceil(64)` words, overwritten). Panics if
    /// the dimension differs from the projector's. Bit `p` is set when
    /// plane `p`'s dot product with `v`, summed in the order the
    /// module docs give, is `>= 0.0` — a deterministic function of the
    /// input vector at every thread count, on every tier.
    pub fn sign_into(&self, v: &[f64], out: &mut [u64]) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        assert_eq!(
            out.len(),
            self.nbits.div_ceil(64),
            "signature length mismatch"
        );
        #[cfg(target_arch = "x86_64")]
        if self.lanes.is_avx512() {
            // SAFETY: `is_avx512` is true only for the value
            // `SigningLanes::detect` returns after
            // `is_x86_feature_detected!` reported avx512f, avx512dq
            // and avx512vl on this CPU — the features the callee is
            // compiled for.
            unsafe { project_abreast_avx512(&self.planes, self.nbits, v, out) };
            return;
        }
        project_abreast(&self.planes, self.nbits, v, out)
    }
}

/// Sign `v` against `nbits` planes stored `[block][coord][plane in
/// block]` (see [`RandomProjector`]), a block's [`ABREAST`] planes
/// side by side, one output word (64 planes' dot products, then their
/// signs) at a time. Blocks are cut by index, not by
/// `chunks_exact(dim * ABREAST)`: a zero-dimensional projector has
/// zero-width blocks, and signs every bit set (`0.0 >= 0.0`) like any
/// all-zero dot product.
#[inline(always)]
fn project_abreast(planes: &[f64], nbits: usize, v: &[f64], out: &mut [u64]) {
    let dim = v.len();
    let quads = dim / 4 * 4;
    for (w, word) in out.iter_mut().enumerate() {
        // `out` has `nbits.div_ceil(64)` words, so every word has a
        // live plane. Planes of the word past `nbits` — absent blocks
        // and the zero padding of the last one — are masked off below.
        let live = (nbits - w * 64).min(64);
        let mut dots = [0.0f64; 64];
        let blocks = dots.chunks_exact_mut(ABREAST).take(live.div_ceil(ABREAST));
        for (block, dot) in (w * 64 / ABREAST..).zip(blocks) {
            let dot: &mut [f64; ABREAST] = dot.try_into().expect("one block of dots");
            let rows = &planes[block * dim * ABREAST..(block + 1) * dim * ABREAST];
            let (head, tail) = rows.split_at(quads * ABREAST);
            // The four accumulators are four statements, not a loop
            // over `l`: a loop is what the vectorizer takes for the
            // lane dimension (gathers across rows), and the planes are.
            let mut d = [[0.0f64; ABREAST]; 4];
            for (rows, x) in head.chunks_exact(4 * ABREAST).zip(v.chunks_exact(4)) {
                add_scaled(&mut d[0], &rows[..ABREAST], x[0]);
                add_scaled(&mut d[1], &rows[ABREAST..2 * ABREAST], x[1]);
                add_scaled(&mut d[2], &rows[2 * ABREAST..3 * ABREAST], x[2]);
                add_scaled(&mut d[3], &rows[3 * ABREAST..], x[3]);
            }
            for p in 0..ABREAST {
                dot[p] = (d[0][p] + d[1][p]) + (d[2][p] + d[3][p]);
            }
            for (row, &x) in tail.chunks_exact(ABREAST).zip(&v[quads..]) {
                add_scaled(dot, row, x);
            }
        }
        let mut signs = 0u64;
        for (p, &dot) in dots.iter().enumerate() {
            signs |= u64::from(dot >= 0.0) << p;
        }
        *word = signs & (u64::MAX >> (64 - live));
    }
}

/// `acc[p] += row[p] * x` for a block's planes; product and sum are
/// rounded separately.
#[inline(always)]
fn add_scaled(acc: &mut [f64; ABREAST], row: &[f64], x: f64) {
    let row: &[f64; ABREAST] = row.try_into().expect("one block row");
    for p in 0..ABREAST {
        acc[p] += row[p] * x;
    }
}

/// [`project_abreast`] compiled for AVX-512. Calling it is `unsafe`
/// unless [`SigningLanes::is_avx512`] holds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn project_abreast_avx512(planes: &[f64], nbits: usize, v: &[f64], out: &mut [u64]) {
    project_abreast(planes, nbits, v, out)
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

/// The plane-at-a-time projection [`RandomProjector::sign_into`]
/// replaced, verbatim, over its own row-major `[plane][coord]` matrix.
/// Test-only — the oracle the abreast loop is checked and timed
/// against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::RandomProjector;

    /// The next coordinate in `[-1, 1)` of a splitmix64 stream — what
    /// the projection tests and the gate draw their vectors from.
    pub(crate) fn unit(state: &mut u64) -> f64 {
        *state = crate::hash::splitmix64(*state);
        (*state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    pub(crate) struct PerPlaneProjector {
        dim: usize,
        nbits: usize,
        planes: Vec<f64>,
    }

    impl PerPlaneProjector {
        pub(crate) fn new(dim: usize, nbits: usize, seed: u64) -> Self {
            let mut planes = Vec::with_capacity(dim * nbits);
            for plane in 0..nbits {
                for coord in 0..dim {
                    planes.push(RandomProjector::component_of(seed, plane, coord));
                }
            }
            PerPlaneProjector { dim, nbits, planes }
        }

        pub(crate) fn sign_into(&self, v: &[f64], out: &mut [u64]) {
            assert_eq!(v.len(), self.dim, "vector dimension mismatch");
            assert_eq!(
                out.len(),
                self.nbits.div_ceil(64),
                "signature length mismatch"
            );
            out.fill(0);
            for plane in 0..self.nbits {
                let row = &self.planes[plane * self.dim..(plane + 1) * self.dim];
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
}

#[cfg(test)]
mod tests {
    use super::oracle::{unit, PerPlaneProjector};
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
    fn bits_and_shape() {
        let rp = RandomProjector::new(3, 70, 9);
        let s = rp.sign(&[1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 70);
        assert!(!s.is_empty());
        for i in 0..70 {
            assert_eq!((s.words()[i / 64] >> (i % 64)) & 1 == 1, s.bit(i));
        }
        assert_eq!(s.byte_size(), 16);
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
                .map(|_| if case == 0 { 0.0 } else { unit(&mut state) })
                .collect();
            let mut slot = vec![u64::MAX; 2];
            rp.sign_into(&v, &mut slot);
            let sig = rp.sign(&v);
            assert_eq!(slot, sig.words(), "case {case}");
            assert_eq!(slot[1] >> 6, 0, "bits past nbits stay clear");
        }
    }

    /// Both compilations of the abreast loop against the per-plane
    /// loop it replaced, word for word: dimensions around the 4-wide
    /// accumulator window, bit counts around the 16-plane block and
    /// the 64-bit word, random vectors and every kind of float that
    /// could make two summation orders disagree.
    #[test]
    fn abreast_projection_matches_the_per_plane_oracle() {
        let mut state = 0x0ab5_ea57_u64;
        let mut unit = move || unit(&mut state);
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 8.0,
            -f64::MIN_POSITIVE / 8.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e300,
            -1e300,
        ];
        println!("tiers: {}, portable", SigningLanes::detect().name());
        for dim in [1usize, 3, 4, 5, 7, 32, 64, 66] {
            for nbits in [1usize, 63, 64, 65, 100, 256] {
                let seed = (dim * 1000 + nbits) as u64;
                let oracle = PerPlaneProjector::new(dim, nbits, seed);
                let detected = RandomProjector::new(dim, nbits, seed);
                let portable = detected.clone().portable();
                for plane in [0, nbits / 2, nbits - 1] {
                    assert_eq!(
                        detected.component(plane, dim - 1).to_bits(),
                        RandomProjector::component_of(seed, plane, dim - 1).to_bits()
                    );
                }
                let words = nbits.div_ceil(64);
                let mut vectors: Vec<Vec<f64>> = (0..1000)
                    .map(|_| (0..dim).map(|_| unit()).collect())
                    .collect();
                vectors.push(vec![0.0; dim]);
                for (i, &special) in specials.iter().enumerate() {
                    // The special value alone, everywhere, and amid
                    // ordinary coordinates.
                    vectors.push(vec![special; dim]);
                    let mut v: Vec<f64> = (0..dim).map(|_| unit()).collect();
                    v[i % dim] = special;
                    vectors.push(v);
                }
                for v in &vectors {
                    let mut expected = vec![u64::MAX; words];
                    oracle.sign_into(v, &mut expected);
                    for (rp, tier) in [(&detected, "detected"), (&portable, "portable")] {
                        let mut got = vec![u64::MAX; words];
                        rp.sign_into(v, &mut got);
                        assert_eq!(got, expected, "{tier} dim {dim} nbits {nbits} {v:?}");
                    }
                }
                // `0.0 >= 0.0`: the zero vector sets every bit, and
                // none past `nbits`.
                let zero = detected.sign(&vec![0.0; dim]);
                assert!((0..nbits).all(|i| zero.bit(i)));
                let set: u32 = zero.words().iter().map(|w| w.count_ones()).sum();
                assert_eq!(set as usize, nbits);
            }
        }
    }

    /// Degenerate shapes construct and sign: no dimensions (every dot
    /// product is the empty sum, `0.0`, so every bit is set) and no
    /// planes.
    #[test]
    fn zero_dimensions_and_zero_bits_sign_without_panicking() {
        for rp in [
            RandomProjector::new(0, 70, 1),
            RandomProjector::new(0, 70, 1).portable(),
        ] {
            let sig = rp.sign(&[]);
            assert_eq!(sig.words(), [u64::MAX, (1 << 6) - 1]);
            let mut expected = vec![0u64; 2];
            PerPlaneProjector::new(0, 70, 1).sign_into(&[], &mut expected);
            assert_eq!(sig.words(), expected);
        }
        for rp in [
            RandomProjector::new(5, 0, 1),
            RandomProjector::new(5, 0, 1).portable(),
            RandomProjector::new(0, 0, 1),
        ] {
            let v = vec![1.0; rp.dim()];
            assert!(rp.sign(&v).is_empty());
            assert_eq!(rp.sig_shape(), (0, 0));
        }
    }

    #[test]
    #[should_panic(expected = "vector dimension mismatch")]
    fn dimension_mismatch_panics() {
        let rp = RandomProjector::new(2, 8, 1);
        rp.sign(&[1.0]);
    }
}
