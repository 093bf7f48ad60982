//! Summaries: nearest-rank percentiles, the "ten samples beyond" rule
//! for tails, the quartile on the good side that sums a run's cycles
//! up, and the quartiles the driver judges noise by.

/// Sort a sample in place (latencies are never NaN).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile `p` (0 < p <= 100) of a **sorted**,
/// non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a sample (sorts a copy; mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut v = samples.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of a sample that may be empty.
pub fn median_or_none(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| median(samples))
}

/// The lower quartile (nearest rank) of a non-empty sample: how a run
/// sums up the per-cycle (or per-round) values of a metric that is
/// better when lower. The box only ever adds time — a neighbour on the
/// core, a page the host must fetch — and does so for seconds to
/// minutes at a stretch (`NOISE.md`), so the good side of a run's
/// cycles is the program and the bad side is the box; the quartile,
/// unlike the minimum, does not hang on one lucky cycle. Of five or
/// six cycles it is the second best.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    percentile(&v, 25.0)
}

/// [`lower_quartile`] for a metric that is better when higher: the
/// value a quarter of the sample reaches or exceeds.
pub fn upper_quartile(samples: &[f64]) -> f64 {
    let negated: Vec<f64> = samples.iter().map(|v| -v).collect();
    -lower_quartile(&negated)
}

/// The percentiles a tail may be reported at, ascending.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of the ladder, at most `wanted`, that has at
/// least ten samples beyond it in a sample of `n`: a p99 over 300
/// requests is the third-slowest request, not a percentile.
pub fn supported_tail(n: usize, wanted: f64) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted && n as f64 * (1.0 - p / 100.0) >= 10.0)
        .fold(50.0, f64::max)
}

/// `statistics.quantiles(values, n=4)` of Python (the default
/// `exclusive` method): the three cut points the driver takes its
/// inter-quartile spread from. Needs two values or more.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    sort(&mut v);
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for i in 1..4 {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        out[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The driver's noise figure: inter-quartile distance as a share of
/// the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 75.0), 3.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn the_good_quartile_is_the_second_best_of_five_or_six() {
        assert_eq!(lower_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0]), 2.0);
        assert_eq!(lower_quartile(&[6.0, 5.0, 1.0, 4.0, 2.0, 3.0]), 2.0);
        assert_eq!(upper_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0]), 4.0);
        assert_eq!(upper_quartile(&[6.0, 5.0, 1.0, 4.0, 2.0, 3.0]), 5.0);
        // Fifteen rounds: the fourth best; two (a smoke run): the best.
        let fifteen: Vec<f64> = (1..=15).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&fifteen), 4.0);
        assert_eq!(lower_quartile(&[9.0, 7.0]), 7.0);
        assert_eq!(upper_quartile(&[9.0, 7.0]), 9.0);
        assert_eq!(median_or_none(&[]), None);
        assert_eq!(median_or_none(&[2.0, 1.0]), Some(1.5));
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert_eq!(supported_tail(1000, 99.0), 99.0);
        assert_eq!(supported_tail(999, 99.0), 95.0);
        assert_eq!(supported_tail(200, 99.0), 95.0);
        assert_eq!(supported_tail(199, 99.0), 90.0);
        assert_eq!(supported_tail(120, 90.0), 90.0);
        assert_eq!(supported_tail(99, 90.0), 75.0);
        assert_eq!(supported_tail(40, 90.0), 75.0);
        assert_eq!(supported_tail(39, 90.0), 50.0);
        assert_eq!(supported_tail(5, 99.0), 50.0);
        assert_eq!(supported_tail(100_000, 99.0), 99.0);
        assert_eq!(supported_tail(100_000, 99.9), 99.9);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 2, 7, 4, 5], n=4) == [3.0, 5.0, 8.5]
        assert_eq!(quartiles(&[10.0, 2.0, 7.0, 4.0, 5.0]), [3.0, 5.0, 8.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
