//! Experiment scale settings.
//!
//! The paper's repositories (5,000 / 700 / 43,000 tables) are scaled
//! down so the full suite runs on a laptop in minutes; override with
//! the `D3L_SCALE` environment variable (`paper` ≈ full scale,
//! `quick` for smoke runs, default `standard`).

/// Scale profile for the experiment suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Setting {
    /// Tables in the Synthetic repository (paper: ~5,000).
    pub synthetic_tables: usize,
    /// Tables in the Smaller Real repository (paper: ~700).
    pub smaller_tables: usize,
    /// Tables in the largest Larger Real sample (paper: 12,500).
    pub larger_tables: usize,
    /// Targets averaged per data point (paper: 100).
    pub targets: usize,
    /// Repository seed.
    pub seed: u64,
}

impl Setting {
    /// Default scale: minutes, not hours.
    pub fn standard() -> Self {
        Setting {
            synthetic_tables: 600,
            smaller_tables: 160,
            larger_tables: 1500,
            targets: 30,
            seed: 0xd31_2020,
        }
    }

    /// Smoke-test scale.
    pub fn quick() -> Self {
        Setting {
            synthetic_tables: 160,
            smaller_tables: 96,
            larger_tables: 400,
            targets: 10,
            seed: 0xd31_2020,
        }
    }

    /// Paper-comparable scale (long-running).
    pub fn paper() -> Self {
        Setting {
            synthetic_tables: 5000,
            smaller_tables: 700,
            larger_tables: 12_500,
            targets: 100,
            seed: 0xd31_2020,
        }
    }

    /// Resolve from `D3L_SCALE`.
    pub fn from_env() -> Self {
        match std::env::var("D3L_SCALE").as_deref() {
            Ok("quick") => Setting::quick(),
            Ok("paper") => Setting::paper(),
            _ => Setting::standard(),
        }
    }

    /// k sweep for effectiveness experiments on a repository with the
    /// given average answer size: 7 points from 5 to ~2× the average.
    pub fn k_sweep(avg_answer: f64) -> Vec<usize> {
        let top = ((avg_answer * 2.0) as usize).max(10);
        let step = (top / 7).max(1);
        let mut ks: Vec<usize> = (1..=7).map(|i| (i * step).max(5)).collect();
        ks.dedup();
        if ks.first() != Some(&5) {
            ks.insert(0, 5);
        }
        ks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let q = Setting::quick();
        let s = Setting::standard();
        let p = Setting::paper();
        assert!(q.synthetic_tables < s.synthetic_tables);
        assert!(s.synthetic_tables < p.synthetic_tables);
        assert!(q.targets <= s.targets);
    }

    #[test]
    fn k_sweep_is_monotone_and_bounded() {
        let ks = Setting::k_sweep(30.0);
        assert!(ks.len() >= 5);
        for w in ks.windows(2) {
            assert!(w[0] < w[1], "{ks:?}");
        }
        assert!(*ks.first().unwrap() == 5);
        assert!(*ks.last().unwrap() >= 55);
    }
}
