//! Property tests pinning the histogram against a sorted-sample
//! oracle on random streams.

use d3l_telemetry::{bucket_index, Histogram};
use proptest::prelude::*;

fn samples() -> impl Strategy<Value = Vec<usize>> {
    // Nanosecond magnitudes from sub-bucket to beyond the finite
    // range (usize on the test hosts is 64-bit).
    prop::collection::vec(1usize..400_000_000_000, 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every quantile estimate lands in the same bucket as the
    /// sorted-sample oracle at the same rank — i.e. within one
    /// bucket's relative error of the true percentile — and count and
    /// sum are exact.
    #[test]
    fn quantiles_track_the_oracle(vals in samples(), q in 0.0f64..1.0) {
        let h = Histogram::new();
        for &v in &vals {
            h.record_ns(v as u64);
        }
        let mut sorted: Vec<u64> = vals.iter().map(|&v| v as u64).collect();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let oracle = sorted[rank - 1];
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), vals.len() as u64);
        prop_assert_eq!(snap.sum_ns(), sorted.iter().sum::<u64>());
        let est = snap.quantile_ns(q);
        prop_assert_eq!(
            bucket_index(est),
            bucket_index(oracle),
            "q={} est={} oracle={}",
            q,
            est,
            oracle
        );
    }
}
