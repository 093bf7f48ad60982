//! The benchmark's own seeded generator and Zipf sampler.
//!
//! Independent of the repository's `rand` stand-in on purpose: a
//! change to that crate's stream must not silently change which
//! targets a seed draws (the lake itself *is* generated through it,
//! and is pinned by digest in `workloads.rs`).

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state word, full
/// period, good enough to draw targets and shuffle scripts.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over ranks `0..n` with exponent `s`: rank `r` has weight
/// `1 / (r + 1)^s`. Sampling inverts the precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(11);
        let mut b = Rng::new(11);
        let mut c = Rng::new(12);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..100).collect();
        Rng::new(3).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let z = Zipf::new(50, 1.1);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..20_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        let mut counts = [0usize; 50];
        for &r in &a {
            counts[r] += 1;
        }
        // Rank 0 carries 1/H(50, 1.1) of the mass; rank 1 about
        // 2^-1.1 of that; every rank is reachable.
        let h: f64 = (1..=50).map(|r| (r as f64).powf(-1.1)).sum();
        let p0 = counts[0] as f64 / a.len() as f64;
        assert!((p0 - 1.0 / h).abs() < 0.02, "p0 = {p0}");
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 0.4665).abs() < 0.04, "ratio = {ratio}");
        assert!(counts.iter().all(|&c| c > 0));
        assert!(counts[0] > counts[10] && counts[10] > counts[49]);
    }
}
