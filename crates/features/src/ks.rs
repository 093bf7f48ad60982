//! Two-sample Kolmogorov–Smirnov statistic (D evidence, §III-C).
//!
//! `KS([[a]], [[a']])` is the supremum distance between the empirical
//! CDFs of two numeric extents, in `[0, 1]`: small when the extents
//! look drawn from the same distribution.

/// The two-sample KS statistic. Returns 1.0 (maximally distant) when
/// either sample is empty — matching the paper's convention that a
/// missing distribution measurement is set to the maximum distance.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    let mut xs: Vec<f64> = a.to_vec();
    let mut ys: Vec<f64> = b.to_vec();
    xs.sort_by(f64::total_cmp);
    ys.sort_by(f64::total_cmp);
    ks_statistic_presorted(&xs, &ys)
}

/// [`ks_statistic`] over samples the caller has already sorted
/// ascending. An index compares its extents with
/// [`crate::Extent::ks_statistic`], which returns what this
/// returns on the decoded values. A NaN has no place in a distribution;
/// the merge stops where both samples reach one.
pub fn ks_statistic_presorted(xs: &[f64], ys: &[f64]) -> f64 {
    if xs.is_empty() || ys.is_empty() {
        return 1.0;
    }
    let sorted = |s: &[f64]| s.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le());
    debug_assert!(sorted(xs), "xs must be sorted");
    debug_assert!(sorted(ys), "ys must be sorted");
    let (n, m) = (xs.len() as f64, ys.len() as f64);
    let mut i = 0usize;
    let mut j = 0usize;
    let mut d: f64 = 0.0;
    while i < xs.len() && j < ys.len() {
        let x = xs[i];
        let y = ys[j];
        let t = x.min(y);
        if t.is_nan() {
            // Both cursors are at a NaN, which no `<=` passes: neither
            // would move again.
            break;
        }
        while i < xs.len() && xs[i] <= t {
            i += 1;
        }
        while j < ys.len() && ys[j] <= t {
            j += 1;
        }
        let fa = i as f64 / n;
        let fb = j as f64 / m;
        d = d.max((fa - fb).abs());
    }
    // Remaining tail contributes |1 - F_other(last)| which the loop
    // already captured at the last shared step; the supremum over all
    // remaining points is covered because the other ECDF stays fixed.
    d.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_are_zero() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert!(ks_statistic(&s, &s) < 1e-12);
    }

    #[test]
    fn disjoint_ranges_are_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [100.0, 200.0, 300.0];
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_is_maximal() {
        assert!((ks_statistic(&[], &[1.0]) - 1.0).abs() < 1e-12);
        assert!((ks_statistic(&[1.0], &[]) - 1.0).abs() < 1e-12);
        assert!((ks_statistic(&[], &[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let a = [1.0, 5.0, 9.0, 12.0];
        let b = [2.0, 5.0, 8.0];
        assert!((ks_statistic(&a, &b) - ks_statistic(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn known_value() {
        // a = {1,2}, b = {1.5}: ECDF_a jumps 0.5 at 1, 1.0 at 2;
        // ECDF_b jumps 1.0 at 1.5. At t=1: |0.5-0|=0.5; at t=1.5:
        // |0.5-1.0|=0.5; at t=2: |1-1|=0. KS = 0.5.
        assert!((ks_statistic(&[1.0, 2.0], &[1.5]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shifted_distributions_increase_distance() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let b_small: Vec<f64> = (0..100).map(|i| i as f64 + 5.0).collect();
        let b_big: Vec<f64> = (0..100).map(|i| i as f64 + 50.0).collect();
        assert!(ks_statistic(&a, &b_small) < ks_statistic(&a, &b_big));
    }

    /// Two NaN-tailed samples: both cursors came to rest on a NaN, and
    /// the merge looped there for ever.
    #[test]
    fn nan_tails_end_the_merge() {
        let d = ks_statistic_presorted(&[1.0, f64::NAN], &[2.0, f64::NAN]);
        assert_eq!(d, 0.5);
        assert_eq!(ks_statistic_presorted(&[f64::NAN], &[f64::NAN]), 0.0);
    }

    #[test]
    fn bounded_in_unit_interval() {
        let a = [3.0, 1.0, 4.0, 1.0, 5.0];
        let b = [2.0, 7.0, 1.0];
        let d = ks_statistic(&a, &b);
        assert!((0.0..=1.0).contains(&d));
    }
}
