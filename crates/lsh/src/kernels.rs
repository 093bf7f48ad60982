//! Exact integer kernels for the evidence hot paths.
//!
//! Every per-query cost in the reproduction bottoms out in one of a
//! handful of inner loops: sorted-set merge-intersections (exact
//! Jaccard/overlap over [`crate::TokenSet`]s), MinHash
//! position-agreement scans, and XOR/popcount word scans. This module
//! holds those loops in one place, in portable Rust only (no
//! `std::simd`, no external crates, no intrinsics). Two loops — the
//! across-position MinHash signing loop below and the abreast
//! projection in [`crate::randproj`] — are compiled a second time
//! under `#[target_feature]` for the widest lanes a CPU may report;
//! which compilation runs is decided once, when a hasher or projector
//! is constructed ([`SigningLanes::detect`]), never per call. The
//! source of both compilations is the same safe Rust. The hamming
//! kernel works in fixed-width windows with independent accumulators;
//! the agreement scan is the plain loop, which over packed signatures
//! is the fastest form measured (see [`agreement_count`]).
//!
//! All kernels in this module are **exact integer computations**:
//! they are bit-identical to their scalar references on every input,
//! which the property tests in `tests/properties.rs` (and the unit
//! proptests below) assert on adversarial shapes — empty, disjoint,
//! identical, length-1-vs-10k skew, and sizes straddling the chunk
//! width. Float kernels (dot/norm) live in `d3l-embedding`'s
//! `vecmath`, where the summation order is part of the contract.
//!
//! # Merge vs gallop
//!
//! [`intersection_len`] picks between two strategies:
//!
//! * the plain branchless two-pointer **merge**
//!   ([`intersection_len_scalar`]) for similarly sized sets. There
//!   is no block-skipping variant: timed next to the plain merge in
//!   the same run on near-balanced sets of 8 / 64 / 1 000 tokens it
//!   measured 0.7–0.9× / 1.05–1.09× / 0.93–1.06× its speed.
//! * a **galloping search** when one set is at least
//!   [`GALLOP_CROSSOVER`]× larger than the other (measured on this
//!   container: the gallop overtakes the merge between ~8× and ~16×
//!   skew; 16 is used so the merge keeps the near-balanced cases
//!   where it wins): each element of the small set is located in the
//!   large one by exponential probing from the previous match
//!   position followed by a binary search over the probed range —
//!   `O(small · log(large/small))` instead of `O(small + large)`.

/// Size ratio past which [`intersection_len`] switches from the merge
/// to the galloping search.
pub const GALLOP_CROSSOVER: usize = 16;

/// Size of the intersection of two sorted, deduplicated `u64` slices.
///
/// Dispatches on skew: merge for comparable sizes, gallop when one
/// side is ≥ [`GALLOP_CROSSOVER`]× the other. Exact — bit-identical
/// to [`intersection_len_scalar`] on every input.
#[inline]
pub fn intersection_len(a: &[u64], b: &[u64]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return 0;
    }
    if large.len() / small.len() >= GALLOP_CROSSOVER {
        intersection_len_gallop(small, large)
    } else {
        intersection_len_scalar(a, b)
    }
}

/// The scalar reference: a plain branchless two-pointer merge — the
/// merge [`intersection_len`] runs, and the oracle the property suite
/// compares the dispatch (gallop included) against.
pub fn intersection_len_scalar(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        inter += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    inter
}

/// Galloping path for skewed sizes: every element of `small` is
/// located in `large` by exponential probing from the previous match
/// position, then a binary search over the bracketed range. The search
/// base only moves forward, so the total work is
/// `O(|small| · log(|large| / |small|))`.
fn intersection_len_gallop(small: &[u64], large: &[u64]) -> usize {
    let mut base = 0usize;
    let mut inter = 0usize;
    for &x in small {
        if base >= large.len() {
            break;
        }
        // Exponential probe: find the first stride where large
        // overtakes x. After the loop the match (if any) lies in
        // (previous probe, current probe], both of which the window
        // below covers.
        let mut step = 1usize;
        let mut probe = base;
        while probe < large.len() && large[probe] < x {
            probe += step;
            step <<= 1;
        }
        let lo = probe.saturating_sub(step >> 1).max(base).min(large.len());
        let hi = (probe + 1).min(large.len());
        // Binary search the bracketed window.
        match large[lo..hi].binary_search(&x) {
            Ok(off) => {
                inter += 1;
                base = lo + off + 1;
            }
            Err(off) => {
                base = lo + off;
            }
        }
    }
    inter
}

/// Number of agreeing 32-bit halves of two equal-length word slices —
/// the MinHash agreement scan behind every estimated Jaccard
/// similarity. A packed signature holds two positions to a word
/// (`crate::minhash`), so over `n` words this counts agreeing
/// positions out of `2n`; a caller with an odd position count keeps
/// the padded last word out of the slices it passes.
///
/// One plain loop, both halves of a word tested at once: with
/// `d = x ^ y` and `TOP` the top bit of each half, `(d & !TOP) + !TOP`
/// carries into a half's top bit exactly when its low 31 bits are not
/// all zero (and never out of the half), so after `| d` the top bit
/// of each half says "differs",
/// and the inverted top bits, shifted down, add one to a per-half
/// counter. That is seven lane-wise 64-bit operations, which the
/// baseline target vectorizes as they stand. Per 256 positions on
/// this container it measures 52–55 ns; comparing the halves
/// (`d as u32 == 0`, `d >> 32 == 0`) 71–77 ns, an 8-word
/// `chunks_exact` form of that 82–84 ns, and the scans of one `u64`
/// per position it replaced 65 ns (plain) and 80–88 ns (the 8-lane
/// form that was the implementation) — so there is no chunked
/// variant to keep in step.
#[inline]
pub fn agreement_count(a: &[u64], b: &[u64]) -> usize {
    const TOP: u64 = 0x8000_0000_8000_0000;
    debug_assert_eq!(a.len(), b.len(), "agreement over equal-length slices");
    debug_assert!(
        a.len() <= u32::MAX as usize,
        "per-half counters are 32 bits"
    );
    // Agreeing low halves in the low 32 bits, high halves above.
    let mut same = 0u64;
    for (x, y) in a.iter().zip(b) {
        let d = x ^ y;
        let differs = d | ((d & !TOP) + !TOP);
        same += (!differs & TOP) >> 31;
    }
    ((same & 0xffff_ffff) + (same >> 32)) as usize
}

/// The scan [`agreement_count`] replaced, verbatim: equal words of
/// two slices holding one 64-bit position each, 8 lanes at a time.
/// Test-only — the oracle packed agreement is checked and timed
/// against.
#[cfg(test)]
pub(crate) fn agreement_count_u64(a: &[u64], b: &[u64]) -> usize {
    const AGREE_LANES: usize = 8;
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut ca = a.chunks_exact(AGREE_LANES);
    let mut cb = b.chunks_exact(AGREE_LANES);
    let mut total = 0usize;
    for (x, y) in (&mut ca).zip(&mut cb) {
        let mut lanes = 0u64;
        for l in 0..AGREE_LANES {
            lanes += u64::from(x[l] == y[l]);
        }
        total += lanes as usize;
    }
    total
        + ca.remainder()
            .iter()
            .zip(cb.remainder())
            .filter(|(x, y)| x == y)
            .count()
}

/// Which compilation of the signing loops runs on this CPU. The only
/// way to obtain the AVX-512 value is [`SigningLanes::detect`] seeing
/// the features at run time — the `unsafe` calls into the
/// `#[target_feature]` instantiations rest on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigningLanes {
    avx512: bool,
}

impl SigningLanes {
    /// The baseline compilation, on any CPU.
    pub const PORTABLE: SigningLanes = SigningLanes { avx512: false };

    /// Ask the CPU. AVX-512 F + DQ (`vpmullq`) + VL, or the baseline.
    /// There is no AVX2 tier: the MinHash loop compiled for it
    /// measured 0.9–1.0× the portable path.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        let avx512 = std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl");
        #[cfg(not(target_arch = "x86_64"))]
        let avx512 = false;
        SigningLanes { avx512 }
    }

    /// True only when [`SigningLanes::detect`] found AVX-512 F, DQ and
    /// VL on the running CPU — what an `unsafe` call into a
    /// `#[target_feature]` compilation rests on.
    #[inline]
    pub fn is_avx512(self) -> bool {
        self.avx512
    }

    /// `"avx512"` or `"portable"` — what `d3l stats` reports.
    pub fn name(self) -> &'static str {
        if self.avx512 {
            "avx512"
        } else {
            "portable"
        }
    }
}

/// Positions [`min_sign_across`] signs abreast; `a` and `b` are padded
/// to a multiple of it.
pub(crate) const SIGN_BLOCK: usize = 32;

/// MinHash signing turned across positions: for each block of
/// [`SIGN_BLOCK`] permutations, one pass over the token hashes keeps
/// the block's running minimums `min_h splitmix64(a_l·h + b_l)` in
/// lanes, and the low halves are packed two to a word into `out`
/// (`num_perm.div_ceil(2)` words, overwritten; an odd count leaves the
/// last high half zero). `a` and `b` hold one multiplier / offset per
/// position, padded to whole blocks; what the padding lanes compute is
/// not stored. `min` is exact, so every stored position equals the
/// permutation-major `minhash::min_mix` for every input.
///
/// Compiled for the baseline target this loop is 1.5–2.5× *slower* than
/// `min_mix` (SSE2 has no 64-bit multiply), which is why it is not the
/// portable path; it ships as [`min_sign_across_avx512`] only.
#[inline(always)]
fn min_sign_across(a: &[u64], b: &[u64], num_perm: usize, hashes: &[u64], out: &mut [u64]) {
    use crate::hash::splitmix64;
    debug_assert!(a.len() == b.len() && a.len() == num_perm.next_multiple_of(SIGN_BLOCK));
    debug_assert_eq!(out.len(), num_perm.div_ceil(2));
    let blocks = a.chunks_exact(SIGN_BLOCK).zip(b.chunks_exact(SIGN_BLOCK));
    for ((a, b), words) in blocks.zip(out.chunks_mut(SIGN_BLOCK / 2)) {
        let mut m = [u64::MAX; SIGN_BLOCK];
        for &h in hashes {
            for l in 0..SIGN_BLOCK {
                m[l] = m[l].min(splitmix64(a[l].wrapping_mul(h).wrapping_add(b[l])));
            }
        }
        for (word, pair) in words.iter_mut().zip(m.chunks_exact(2)) {
            *word = u64::from(pair[0] as u32) | u64::from(pair[1] as u32) << 32;
        }
    }
    if num_perm % 2 == 1 {
        out[num_perm / 2] &= u64::from(u32::MAX);
    }
}

/// [`min_sign_across`] compiled for AVX-512 F/DQ/VL (`vpmullq`,
/// `vpminuq` over eight positions a register). Calling it is `unsafe`
/// unless [`SigningLanes::is_avx512`] holds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
pub(crate) fn min_sign_across_avx512(
    a: &[u64],
    b: &[u64],
    num_perm: usize,
    hashes: &[u64],
    out: &mut [u64],
) {
    min_sign_across(a, b, num_perm, hashes, out)
}

/// [`min_sign_across`] as the baseline target compiles it. Test-only:
/// the equality suite runs it on every CPU, and the gate prints what
/// it costs next to `min_mix`.
#[cfg(test)]
pub(crate) fn min_sign_across_baseline(
    a: &[u64],
    b: &[u64],
    num_perm: usize,
    hashes: &[u64],
    out: &mut [u64],
) {
    min_sign_across(a, b, num_perm, hashes, out)
}

/// XOR-popcount over two equal-length word slices — the hamming
/// kernel behind bit-signature cosine estimates. 4-word
/// `chunks_exact` windows with per-chunk partial sums. Exact —
/// bit-identical to [`hamming_words_scalar`].
#[inline]
pub fn hamming_words(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len(), "hamming over equal-length slices");
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let mut total = 0usize;
    for (x, y) in (&mut ca).zip(&mut cb) {
        let mut lanes = 0usize;
        for l in 0..4 {
            lanes += (x[l] ^ y[l]).count_ones() as usize;
        }
        total += lanes;
    }
    total
        + ca.remainder()
            .iter()
            .zip(cb.remainder())
            .map(|(x, y)| (x ^ y).count_ones() as usize)
            .sum::<usize>()
}

/// Scalar reference for [`hamming_words`].
pub fn hamming_words_scalar(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x ^ y).count_ones() as usize)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sorted_set(v: Vec<u64>) -> Vec<u64> {
        let mut v = v;
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn intersection_adversarial_shapes() {
        let empty: Vec<u64> = vec![];
        let one = vec![7u64];
        let run: Vec<u64> = (0..10_000).collect();
        let odd: Vec<u64> = (0..10_000).filter(|x| x % 2 == 1).collect();
        let disjoint: Vec<u64> = (20_000..30_000).collect();
        for (a, b) in [
            (&empty, &empty),
            (&empty, &run),
            (&one, &run),
            (&run, &run),
            (&odd, &run),
            (&disjoint, &run),
            (&one, &disjoint),
        ] {
            assert_eq!(
                intersection_len(a, b),
                intersection_len_scalar(a, b),
                "shapes {}x{}",
                a.len(),
                b.len()
            );
            assert_eq!(intersection_len(a, b), intersection_len(b, a), "symmetry");
        }
        assert_eq!(intersection_len(&odd, &run), odd.len());
        assert_eq!(intersection_len(&disjoint, &run), 0);
    }

    #[test]
    fn intersection_crossover_boundaries() {
        // Small sizes on both sides of the gallop crossover.
        for n in [7usize, 8, 9, 15, 17] {
            for m in [n, n * GALLOP_CROSSOVER, n * GALLOP_CROSSOVER + 3] {
                let a: Vec<u64> = (0..n as u64).map(|x| x * 3).collect();
                let b: Vec<u64> = (0..m as u64).map(|x| x * 2).collect();
                assert_eq!(
                    intersection_len(&a, &b),
                    intersection_len_scalar(&a, &b),
                    "n={n} m={m}"
                );
            }
        }
    }

    /// The definition [`agreement_count`] computes: split every word
    /// into its two 32-bit halves and count the equal ones.
    fn agreeing_halves(a: &[u64], b: &[u64]) -> usize {
        let halves = |w: &[u64]| -> Vec<u32> {
            w.iter()
                .flat_map(|&x| [x as u32, (x >> 32) as u32])
                .collect()
        };
        let (a, b) = (halves(a), halves(b));
        a.iter().zip(&b).filter(|(x, y)| x == y).count()
    }

    #[test]
    fn agreement_and_hamming_boundaries() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 127, 128, 129] {
            let a: Vec<u64> = (0..n as u64).map(|x| x << 32 | (x * 7)).collect();
            // Per word: both halves agree, only the low, only the
            // high, neither.
            let b: Vec<u64> = a
                .iter()
                .enumerate()
                .map(|(i, &x)| match i % 4 {
                    0 => x,
                    1 => x ^ (1 << 63),
                    2 => x ^ 1,
                    _ => !x,
                })
                .collect();
            assert_eq!(agreement_count(&a, &b), agreeing_halves(&a, &b));
            assert_eq!(hamming_words(&a, &b), hamming_words_scalar(&a, &b));
        }
    }

    /// Best-of-seven wall time of `work`.
    fn best_of_seven(mut work: impl FnMut()) -> std::time::Duration {
        (0..7)
            .map(|_| {
                let start = std::time::Instant::now();
                work();
                start.elapsed()
            })
            .min()
            .unwrap()
    }

    /// The same-run ratio gate (CI runs it in release) for the signing
    /// loops: each is timed next to the loop it replaced, on this
    /// machine, in this process.
    #[test]
    #[ignore = "timing: cargo test --release -p d3l-lsh lane_signing_beats_oracle -- --ignored --nocapture"]
    fn lane_signing_beats_oracle() {
        use crate::minhash::{generated_token_sets, MinHasher, DEFAULT_NUM_PERM};
        use crate::randproj::oracle::PerPlaneProjector;
        use crate::randproj::{RandomProjector, DEFAULT_NBITS};
        use std::hint::black_box;

        // Sixteen planes abreast against one plane at a time, at the
        // index's shape (64 dimensions, 256 planes).
        let (dim, nbits) = (64, DEFAULT_NBITS);
        let mut state = 0x9a7e_u64;
        let vectors: Vec<Vec<f64>> = (0..256)
            .map(|_| {
                (0..dim)
                    .map(|_| crate::randproj::oracle::unit(&mut state))
                    .collect()
            })
            .collect();
        let per_plane = PerPlaneProjector::new(dim, nbits, 5);
        let detected = RandomProjector::new(dim, nbits, 5);
        let portable = detected.clone().portable();
        let mut out = vec![0u64; nbits.div_ceil(64)];
        let mut project = |sign: &dyn Fn(&[f64], &mut [u64])| {
            best_of_seven(|| {
                for _ in 0..20 {
                    for v in &vectors {
                        sign(black_box(v), &mut out);
                        black_box(&out);
                    }
                }
            })
            .as_secs_f64()
                / (20 * vectors.len()) as f64
                * 1e6
        };
        let oracle_us = project(&|v, out| per_plane.sign_into(v, out));
        let portable_us = project(&|v, out| portable.sign_into(v, out));
        let detected_us = project(&|v, out| detected.sign_into(v, out));
        let tier = SigningLanes::detect();
        println!(
            "projection, us per vector: per-plane oracle {oracle_us:.2}, abreast portable \
             {portable_us:.2} ({:.2}x), abreast {} {detected_us:.2} ({:.2}x)",
            oracle_us / portable_us,
            tier.name(),
            oracle_us / detected_us,
        );
        assert!(
            oracle_us / portable_us >= 1.5,
            "portable abreast projection only {:.2}x the per-plane oracle",
            oracle_us / portable_us
        );
        assert!(
            oracle_us / detected_us >= 1.5,
            "{} abreast projection only {:.2}x the per-plane oracle",
            tier.name(),
            oracle_us / detected_us
        );

        // Across positions against permutation-major, on the generated
        // token sets (mostly 2-61 tokens, a few empty / single / >1000).
        let sets = generated_token_sets(400);
        let detected = MinHasher::new(DEFAULT_NUM_PERM, 41);
        let portable = detected.clone().portable();
        let mut out = vec![0u64; DEFAULT_NUM_PERM / 2];
        let mut sign_all = |mh: &MinHasher| {
            best_of_seven(|| {
                for set in &sets {
                    mh.sign_into(black_box(set), &mut out);
                    black_box(&out);
                }
            })
            .as_secs_f64()
                / sets.len() as f64
                * 1e6
        };
        let min_mix_us = sign_all(&portable);
        let lanes_us = sign_all(&detected);
        // What the across-position loop costs where a register cannot
        // multiply 64-bit lanes: printed, not gated — it does not ship.
        let baseline_us = best_of_seven(|| {
            for set in &sets {
                detected.sign_across_baseline(black_box(set), &mut out);
                black_box(&out);
            }
        })
        .as_secs_f64()
            / sets.len() as f64
            * 1e6;
        println!(
            "minhash, us per set: across positions compiled for the baseline target \
             {baseline_us:.2} ({:.2}x min_mix)",
            min_mix_us / baseline_us
        );
        if tier.is_avx512() {
            println!(
                "minhash, us per set: min_mix {min_mix_us:.2}, avx512 {lanes_us:.2} ({:.2}x)",
                min_mix_us / lanes_us
            );
            assert!(
                min_mix_us / lanes_us >= 2.0,
                "avx512 signing only {:.2}x min_mix",
                min_mix_us / lanes_us
            );
        } else {
            println!("minhash, us per set: min_mix {min_mix_us:.2}");
            println!("avx512 tier not available: not gated");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// kernel equivalence: the merge-or-gallop intersection is
        /// bit-identical to the scalar merge on random sorted sets,
        /// including heavily skewed size pairs.
        #[test]
        fn kernel_intersection_matches_scalar(
            a in prop::collection::vec(0u64..512, 0..80),
            b in prop::collection::vec(0u64..512, 0..1200),
        ) {
            let (a, b) = (sorted_set(a), sorted_set(b));
            prop_assert_eq!(intersection_len(&a, &b), intersection_len_scalar(&a, &b));
            prop_assert_eq!(intersection_len(&b, &a), intersection_len_scalar(&a, &b));
        }

        /// kernel equivalence: the agreement count is the number of
        /// equal 32-bit halves, on halves that collide often and
        /// differ in one bit at either end when they do not.
        #[test]
        fn kernel_agreement_counts_equal_halves(
            pairs in prop::collection::vec((0usize..25, 0usize..25), 0..300),
        ) {
            const HALVES: [u64; 5] = [0, 1, 0x7fff_ffff, 0x8000_0000, 0xffff_ffff];
            let word = |i: usize| HALVES[i / 5] << 32 | HALVES[i % 5];
            let a: Vec<u64> = pairs.iter().map(|p| word(p.0)).collect();
            let b: Vec<u64> = pairs.iter().map(|p| word(p.1)).collect();
            prop_assert_eq!(agreement_count(&a, &b), agreeing_halves(&a, &b));
        }

        /// kernel equivalence: the chunked XOR-popcount is
        /// bit-identical to the scalar sum.
        #[test]
        fn kernel_hamming_matches_scalar(
            pairs in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..40),
        ) {
            let a: Vec<u64> = pairs.iter().map(|p| p.0).collect();
            let b: Vec<u64> = pairs.iter().map(|p| p.1).collect();
            prop_assert_eq!(hamming_words(&a, &b), hamming_words_scalar(&a, &b));
        }
    }
}
