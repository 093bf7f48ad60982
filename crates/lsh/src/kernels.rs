//! Exact integer kernels for the evidence hot paths.
//!
//! Every per-query cost in the reproduction bottoms out in one of a
//! handful of inner loops: sorted-set merge-intersections (exact
//! Jaccard/overlap over [`crate::TokenSet`]s), MinHash
//! position-agreement scans, and XOR/popcount word scans. This module
//! holds those loops in one place, in portable Rust only (no
//! `std::simd`, no external crates, no intrinsics). The intersection
//! and hamming kernels work in fixed-width windows with independent
//! accumulators; the agreement scan is the plain loop, which over
//! packed signatures is the fastest form measured (see
//! [`agreement_count`]).
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
//! * a **block-skip merge** for similarly sized sets: the classic
//!   two-pointer merge, but each side skips ahead [`MERGE_BLOCK`]
//!   entries at a time while its block maximum stays below the other
//!   side's cursor, then finishes the block with branchless single
//!   steps. Runs of non-intersecting keys cost `len/MERGE_BLOCK`
//!   comparisons instead of `len`.
//! * a **galloping search** when one set is at least
//!   [`GALLOP_CROSSOVER`]× larger than the other (measured on this
//!   container: the gallop overtakes the merge between ~8× and ~16×
//!   skew; 16 is used so the merge keeps the near-balanced cases
//!   where it wins): each element of the small set is located in the
//!   large one by exponential probing from the previous match
//!   position followed by a binary search over the probed range —
//!   `O(small · log(large/small))` instead of `O(small + large)`.

/// Elements each merge side skips per block probe.
pub const MERGE_BLOCK: usize = 8;

/// Size ratio past which [`intersection_len`] switches from the
/// block-skip merge to the galloping search.
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
        intersection_len_merge(a, b)
    }
}

/// The scalar reference: a plain branchless two-pointer merge. This
/// is the historical implementation, kept verbatim as the oracle the
/// property suite compares every fast path against.
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

/// Block-skip merge: whole [`MERGE_BLOCK`]-entry blocks are skipped
/// with one comparison against the block's last element while the
/// sides are disjoint, falling back to branchless single steps when
/// blocks overlap.
fn intersection_len_merge(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        // Skip ahead block-wise: every element of a[i..i+B] is below
        // b[j] iff the block maximum is, and vice versa.
        while i + MERGE_BLOCK <= a.len() && a[i + MERGE_BLOCK - 1] < b[j] {
            i += MERGE_BLOCK;
        }
        if i >= a.len() {
            break;
        }
        while j + MERGE_BLOCK <= b.len() && b[j + MERGE_BLOCK - 1] < a[i] {
            j += MERGE_BLOCK;
        }
        if j >= b.len() {
            break;
        }
        // Within overlapping blocks: the branchless two-pointer step.
        let (mut x, mut y) = (a[i], b[j]);
        loop {
            inter += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
            if i >= a.len() || j >= b.len() {
                break;
            }
            x = a[i];
            y = b[j];
            // Leave the inner loop once a side could block-skip again.
            if i + MERGE_BLOCK <= a.len() && a[i + MERGE_BLOCK - 1] < y {
                break;
            }
            if j + MERGE_BLOCK <= b.len() && b[j + MERGE_BLOCK - 1] < x {
                break;
            }
        }
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
    fn intersection_lane_boundaries() {
        // Sizes straddling the block width on both sides of the
        // gallop crossover.
        for n in [
            MERGE_BLOCK - 1,
            MERGE_BLOCK,
            MERGE_BLOCK + 1,
            2 * MERGE_BLOCK - 1,
            2 * MERGE_BLOCK + 1,
        ] {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// kernel equivalence: chunked+galloping intersection is
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
