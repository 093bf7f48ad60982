//! The paper's retrieval measures (§V-A): **precision / recall at k**
//! over returned tables, with the paper's true-positive
//! interpretation: a returned table counts as a TP if *at least one*
//! of its attributes is related to the target in the ground truth.
//! Relevance is supplied by the caller, so the generators (or a
//! human-curated truth) plug in without a dependency cycle. Coverage
//! (Eq. 4/5) and attribute precision are computed for every system
//! alike by the evaluation harness (`d3l_bench::eval`).

/// Precision at k: `TP / (TP + FP)` over the returned list, where
/// `relevant[i]` says whether the i-th returned table is related in
/// the ground truth. Empty answers score 0.
pub fn precision_at_k(relevant: &[bool]) -> f64 {
    if relevant.is_empty() {
        return 0.0;
    }
    relevant.iter().filter(|&&r| r).count() as f64 / relevant.len() as f64
}

/// Recall at k: `TP / (TP + FN)` where `total_relevant` is the ground
/// truth answer size. Zero when nothing is relevant.
pub fn recall_at_k(relevant: &[bool], total_relevant: usize) -> f64 {
    if total_relevant == 0 {
        return 0.0;
    }
    relevant.iter().filter(|&&r| r).count() as f64 / total_relevant as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_recall_basics() {
        assert!((precision_at_k(&[true, true, false, false]) - 0.5).abs() < 1e-12);
        assert_eq!(precision_at_k(&[]), 0.0);
        assert!((recall_at_k(&[true, false], 4) - 0.25).abs() < 1e-12);
        assert_eq!(recall_at_k(&[true], 0), 0.0);
    }
}
