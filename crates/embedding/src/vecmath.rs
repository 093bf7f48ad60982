//! Dense vector helpers shared by the embedders.
//!
//! The dot/norm kernel here is the float counterpart of the integer
//! kernels in `d3l-lsh::kernels`: manually chunked lanes with four
//! independent accumulators, portable Rust only. Unlike the integer
//! kernels, float addition is not associative, so **the summation
//! order is part of the contract**: four accumulators over coordinate
//! lanes `i % 4`, folded as `((s0 + s1) + (s2 + s3)) + tail`, where
//! `tail` adds the remaining `len % 4` coordinates sequentially. The
//! same order is used by `d3l-lsh`'s `RandomProjector::sign` per-plane
//! dot, so every float evidence value in the system is a deterministic
//! function of its inputs at any thread or shard count. The property
//! suite holds the kernel to exact bit-agreement with a same-order
//! naive loop; the one-accumulator loop it replaced is the unit tests'
//! tolerance reference and is not compiled otherwise (timed in the
//! same run on 64 coordinates it is level with the lanes, 48–52 ns
//! against 50.5, so the order the stored `IE` bits share decides).

/// Accumulator lanes per chunk in [`dot_norms`].
const DOT_LANES: usize = 4;

/// Fused dot product and squared norms of two equal-length vectors:
/// `(a·b, |a|², |b|²)` in one pass.
///
/// Summation order (fixed, documented): each of the three sums runs
/// `DOT_LANES` independent accumulators over coordinate lanes
/// `i % 4`, folded `((s0 + s1) + (s2 + s3))`, then the `len % 4` tail
/// coordinates are added sequentially to the folded value.
#[inline]
pub fn dot_norms(a: &[f64], b: &[f64]) -> (f64, f64, f64) {
    assert_eq!(a.len(), b.len(), "dimension mismatch");
    // Lane accumulators live in fixed arrays over `chunks_exact`
    // windows: each lane only ever adds its own chunk positions, so
    // the update is a vertical (element-wise) vector operation the
    // optimizer can emit as packed multiply/adds *without*
    // reassociating any float addition — the result stays
    // bit-identical to the documented order.
    let mut d = [0.0f64; DOT_LANES];
    let mut p = [0.0f64; DOT_LANES];
    let mut q = [0.0f64; DOT_LANES];
    let mut ca = a.chunks_exact(DOT_LANES);
    let mut cb = b.chunks_exact(DOT_LANES);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for l in 0..DOT_LANES {
            d[l] += x[l] * y[l];
            p[l] += x[l] * x[l];
            q[l] += y[l] * y[l];
        }
    }
    let mut dot = (d[0] + d[1]) + (d[2] + d[3]);
    let mut na = (p[0] + p[1]) + (p[2] + p[3]);
    let mut nb = (q[0] + q[1]) + (q[2] + q[3]);
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    (dot, na, nb)
}

/// Squared L2 norm of a vector in the [`dot_norms`] summation order.
#[inline]
pub fn norm_sq(v: &[f64]) -> f64 {
    let mut s = [0.0f64; DOT_LANES];
    let mut cv = v.chunks_exact(DOT_LANES);
    for x in &mut cv {
        for l in 0..DOT_LANES {
            s[l] += x[l] * x[l];
        }
    }
    let mut sum = (s[0] + s[1]) + (s[2] + s[3]);
    for &x in cv.remainder() {
        sum += x * x;
    }
    sum
}

/// Cosine similarity clamped to `[0, 1]` — the unit-interval distance
/// space D3L works in (§III-B treats negative cosine as unrelated).
/// Built on the [`dot_norms`] kernel (fixed summation order).
pub fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let (dot, na, nb) = dot_norms(a, b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot / (na.sqrt() * nb.sqrt())).clamp(0.0, 1.0)
}

/// Component-wise mean of a non-empty set of equal-length vectors.
pub fn mean_vector(vecs: &[Vec<f64>]) -> Vec<f64> {
    assert!(!vecs.is_empty(), "mean of no vectors");
    let dim = vecs[0].len();
    let mut out = vec![0.0; dim];
    for v in vecs {
        assert_eq!(v.len(), dim, "dimension mismatch");
        for (o, x) in out.iter_mut().zip(v) {
            *o += x;
        }
    }
    let n = vecs.len() as f64;
    for o in &mut out {
        *o /= n;
    }
    out
}

/// Scale a vector to unit L2 norm; the zero vector is returned
/// unchanged. The norm uses the [`norm_sq`] kernel (same fixed
/// summation order as [`dot_norms`]).
pub fn normalize(mut v: Vec<f64>) -> Vec<f64> {
    let norm = norm_sq(&v).sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-accumulator loop [`dot_norms`] replaced: not
    /// bit-identical to it (float addition is not associative), equal
    /// within rounding error.
    fn dot_norms_seq(a: &[f64], b: &[f64]) -> (f64, f64, f64) {
        assert_eq!(a.len(), b.len(), "dimension mismatch");
        let mut dot = 0.0;
        let mut na = 0.0;
        let mut nb = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            dot += x * y;
            na += x * x;
            nb += y * y;
        }
        (dot, na, nb)
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert!(cosine(&[0.0], &[1.0]).abs() < 1e-12);
        assert!(cosine(&[1.0], &[-1.0]).abs() < 1e-12); // clamped
    }

    #[test]
    fn mean_and_normalize() {
        let m = mean_vector(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(m, vec![0.5, 0.5]);
        let n = normalize(m);
        let norm: f64 = n.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
        assert_eq!(normalize(vec![0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn dot_norms_matches_seq_within_tolerance() {
        // Lane-boundary lengths around the 4-lane chunk width.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 63, 64, 65] {
            let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.91).cos()).collect();
            let (d, na, nb) = dot_norms(&a, &b);
            let (ds, nas, nbs) = dot_norms_seq(&a, &b);
            assert!((d - ds).abs() < 1e-9, "n={n} dot {d} vs {ds}");
            assert!((na - nas).abs() < 1e-9);
            assert!((nb - nbs).abs() < 1e-9);
            assert!((norm_sq(&a) - na).abs() < 1e-15);
        }
    }

    /// Both loops timed in one run on the traced benchmark's inputs
    /// (64 coordinates, 200 pairs, 1 000 calls a pair). Prints the
    /// two medians; gates nothing.
    #[test]
    #[ignore = "timing only: --release -- --ignored --nocapture"]
    fn dot_norms_and_seq_timed_in_one_run() {
        use std::hint::black_box;
        use std::time::Instant;
        type Kernel = fn(&[f64], &[f64]) -> (f64, f64, f64);
        let vectors: Vec<Vec<f64>> = (0..201)
            .map(|v| {
                (0..64)
                    .map(|i| ((v * 64 + i) as f64 * 0.37).sin())
                    .collect()
            })
            .collect();
        let median_ns = |f: Kernel| {
            let mut per_call: Vec<f64> = vectors
                .windows(2)
                .map(|pair| {
                    let start = Instant::now();
                    for _ in 0..1000 {
                        black_box(f(black_box(&pair[0]), black_box(&pair[1])));
                    }
                    start.elapsed().as_nanos() as f64 / 1000.0
                })
                .collect();
            per_call.sort_by(f64::total_cmp);
            per_call[per_call.len() / 2]
        };
        for round in 0..3 {
            let (lanes, seq) = (median_ns(dot_norms), median_ns(dot_norms_seq));
            println!("round {round}: dot_norms {lanes:.1} ns, dot_norms_seq {seq:.1} ns");
        }
    }

    #[test]
    fn dot_norms_fixed_order_is_deterministic() {
        // Same inputs → bit-identical outputs, run to run.
        let a: Vec<f64> = (0..67).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let b: Vec<f64> = (0..67).map(|i| (i as f64).sqrt()).collect();
        let r1 = dot_norms(&a, &b);
        let r2 = dot_norms(&a, &b);
        assert_eq!(r1.0.to_bits(), r2.0.to_bits());
        assert_eq!(r1.1.to_bits(), r2.1.to_bits());
        assert_eq!(r1.2.to_bits(), r2.2.to_bits());
    }

    #[test]
    fn dot_norms_special_values() {
        // NaN propagates; ±0 and subnormals don't disturb the sums.
        let (d, _, _) = dot_norms(&[f64::NAN, 1.0], &[1.0, 1.0]);
        assert!(d.is_nan());
        let (d, na, nb) = dot_norms(&[0.0, -0.0, 2.0], &[-0.0, 0.0, 3.0]);
        assert_eq!(d, 6.0);
        assert_eq!(na, 4.0);
        assert_eq!(nb, 9.0);
        let tiny = f64::MIN_POSITIVE / 2.0; // subnormal
        let (d, na, _) = dot_norms(&[tiny; 5], &[tiny; 5]);
        assert!(d >= 0.0 && na >= 0.0);
    }

    #[test]
    #[should_panic(expected = "mean of no vectors")]
    fn mean_of_none_panics() {
        mean_vector(&[]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn cosine_dim_mismatch_panics() {
        cosine(&[1.0], &[1.0, 2.0]);
    }
}
