//! Evaluation loops implementing the paper's measures over targets.

use std::collections::HashSet;

use d3l_benchgen::GroundTruth;

use crate::runner::{RankedTable, SystemKind, Systems};

/// One precision/recall data point (Figures 3–5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalPoint {
    /// Answer size.
    pub k: usize,
    /// Mean precision at k over the targets.
    pub precision: f64,
    /// Mean recall at k over the targets.
    pub recall: f64,
}

/// One coverage / attribute-precision data point (Figures 7–8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinEvalPoint {
    /// Answer size.
    pub k: usize,
    /// Mean per-table target coverage, top-k only (Eq. 4).
    pub coverage: f64,
    /// Mean combined coverage with join paths (Eq. 5).
    pub coverage_j: f64,
    /// Mean attribute precision, top-k only.
    pub attr_precision: f64,
    /// Mean pooled attribute precision with join paths.
    pub attr_precision_j: f64,
}

/// The answer sizes a precision/recall curve is drawn at, for a lake
/// whose mean answer size is `avg_answer`: 5, then seven even steps up
/// to about twice the mean.
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

/// Precision/recall of one system at one k, averaged over targets
/// (the paper's TP definition: a returned table is a TP iff related
/// in the ground truth).
pub fn prf_at_k(systems: &Systems, kind: SystemKind, targets: &[String], k: usize) -> EvalPoint {
    let truth = &systems.bench.truth;
    let mut p_sum = 0.0;
    let mut r_sum = 0.0;
    for (t, res) in targets.iter().zip(systems.query_batch(kind, targets, k)) {
        let relevant: Vec<bool> = res
            .iter()
            .map(|r| truth.tables_related(t, &r.name))
            .collect();
        p_sum += d3l_core::metrics::precision_at_k(&relevant);
        r_sum += d3l_core::metrics::recall_at_k(&relevant, truth.answer_set(t).len());
    }
    let n = targets.len().max(1) as f64;
    EvalPoint {
        k,
        precision: p_sum / n,
        recall: r_sum / n,
    }
}

/// The best recall at k any ranking can reach, averaged over targets:
/// a target whose answer set `A_t` is larger than `k` can be recalled
/// no further than `k / |A_t|`, so the mean of `min(k, |A_t|) / |A_t|`
/// (0 for an empty answer set, as recall is).
pub fn recall_ceiling(truth: &GroundTruth, targets: &[String], k: usize) -> f64 {
    let ceiling = |t: &String| match truth.answer_set(t).len() {
        0 => 0.0,
        n => k.min(n) as f64 / n as f64,
    };
    targets.iter().map(ceiling).sum::<f64>() / targets.len().max(1) as f64
}

/// Fraction of a ranked table's proposed alignments confirmed by the
/// ground truth.
fn attr_precision_of(truth: &GroundTruth, target: &str, r: &RankedTable) -> f64 {
    if r.aligned.is_empty() {
        return 0.0;
    }
    let tp = r
        .aligned
        .iter()
        .filter(|(tc, sc)| truth.attrs_related(target, tc, &r.name, sc))
        .count();
    tp as f64 / r.aligned.len() as f64
}

/// Pooled attribute precision of a group (top-k table + its join
/// tables): alignments touching the same target column form one
/// pool; a pool is a TP if any member is confirmed (§V-E).
fn grouped_attr_precision(truth: &GroundTruth, target: &str, group: &[&RankedTable]) -> f64 {
    use std::collections::HashMap;
    let mut pools: HashMap<&str, bool> = HashMap::new();
    for r in group {
        for (tc, sc) in &r.aligned {
            let ok = truth.attrs_related(target, tc, &r.name, sc);
            let slot = pools.entry(tc.as_str()).or_insert(false);
            *slot = *slot || ok;
        }
    }
    if pools.is_empty() {
        return 0.0;
    }
    pools.values().filter(|&&v| v).count() as f64 / pools.len() as f64
}

/// Coverage and attribute precision with and without join paths for
/// D3L (Experiments 8–11) or Aurum, averaged first over the top-k
/// tables of each target, then over targets.
pub fn join_eval_at_k(
    systems: &Systems,
    use_aurum: bool,
    targets: &[String],
    k: usize,
) -> JoinEvalPoint {
    let truth = &systems.bench.truth;
    let mut cov = 0.0;
    let mut cov_j = 0.0;
    let mut ap = 0.0;
    let mut ap_j = 0.0;
    let mut counted = 0usize;
    for t in targets {
        let arity = systems.bench.lake.table_by_name(t).expect("member").arity() as f64;
        let groups = if use_aurum {
            systems.aurum_join_extensions(t, k)
        } else {
            systems.d3l_join_extensions(t, k)
        };
        if groups.is_empty() {
            continue;
        }
        let mut t_cov = 0.0;
        let mut t_cov_j = 0.0;
        let mut t_ap = 0.0;
        let mut t_ap_j = 0.0;
        for (top, joined) in &groups {
            let covered: HashSet<&str> = top.covered();
            t_cov += covered.len() as f64 / arity;
            let mut covered_j: HashSet<&str> = covered.clone();
            for j in joined {
                covered_j.extend(j.covered());
            }
            t_cov_j += covered_j.len() as f64 / arity;
            t_ap += attr_precision_of(truth, t, top);
            let mut group: Vec<&RankedTable> = vec![top];
            group.extend(joined.iter());
            t_ap_j += grouped_attr_precision(truth, t, &group);
        }
        let g = groups.len() as f64;
        cov += t_cov / g;
        cov_j += t_cov_j / g;
        ap += t_ap / g;
        ap_j += t_ap_j / g;
        counted += 1;
    }
    let n = counted.max(1) as f64;
    JoinEvalPoint {
        k,
        coverage: cov / n,
        coverage_j: cov_j / n,
        attr_precision: ap / n,
        attr_precision_j: ap_j / n,
    }
}

/// Coverage/attribute precision for a join-unaware system (TUS): the
/// `_j` fields equal the plain ones.
pub fn plain_eval_at_k(
    systems: &Systems,
    kind: SystemKind,
    targets: &[String],
    k: usize,
) -> JoinEvalPoint {
    let truth = &systems.bench.truth;
    let mut cov = 0.0;
    let mut ap = 0.0;
    let mut counted = 0usize;
    for t in targets {
        let arity = systems.bench.lake.table_by_name(t).expect("member").arity() as f64;
        let res = systems.query(kind, t, k);
        if res.is_empty() {
            continue;
        }
        let mut t_cov = 0.0;
        let mut t_ap = 0.0;
        for r in &res {
            t_cov += r.covered().len() as f64 / arity;
            t_ap += attr_precision_of(truth, t, r);
        }
        cov += t_cov / res.len() as f64;
        ap += t_ap / res.len() as f64;
        counted += 1;
    }
    let n = counted.max(1) as f64;
    JoinEvalPoint {
        k,
        coverage: cov / n,
        coverage_j: cov / n,
        attr_precision: ap / n,
        attr_precision_j: ap / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Systems;

    fn systems() -> Systems {
        Systems::build(crate::lake::reloaded(d3l_benchgen::synthetic(64, 17)))
    }

    #[test]
    fn k_sweep_is_monotone_and_bounded() {
        let ks = k_sweep(30.0);
        assert!(ks.len() >= 5);
        for w in ks.windows(2) {
            assert!(w[0] < w[1], "{ks:?}");
        }
        assert!(*ks.first().unwrap() == 5);
        assert!(*ks.last().unwrap() >= 55);
    }

    #[test]
    fn d3l_beats_chance_on_synthetic() {
        let s = systems();
        let targets = s.bench.pick_targets(6, 1);
        let p1 = prf_at_k(&s, SystemKind::D3l, &targets, 1);
        // 7 related tables out of 63 candidates per target; random
        // guessing would score ~11% precision at k=1.
        assert!(p1.precision > 0.5, "D3L p@1 = {}", p1.precision);
        // At k = answer size, recall should recover a good share of
        // the 7 related tables.
        let p7 = prf_at_k(&s, SystemKind::D3l, &targets, 7);
        assert!(p7.recall > 0.4, "D3L r@7 = {}", p7.recall);
    }

    #[test]
    fn join_eval_improves_or_equals_coverage() {
        let s = systems();
        let targets = s.bench.pick_targets(4, 2);
        let point = join_eval_at_k(&s, false, &targets, 3);
        assert!(point.coverage_j >= point.coverage - 1e-9);
        assert!((0.0..=1.0).contains(&point.coverage));
        assert!((0.0..=1.0).contains(&point.attr_precision));
    }

    #[test]
    fn plain_eval_mirrors_fields() {
        let s = systems();
        let targets = s.bench.pick_targets(3, 3);
        let point = plain_eval_at_k(&s, SystemKind::Tus, &targets, 3);
        assert_eq!(point.coverage, point.coverage_j);
        assert_eq!(point.attr_precision, point.attr_precision_j);
    }
}
