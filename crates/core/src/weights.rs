//! The two weighting schemes of §III-D.
//!
//! * **CCDF weights (Eq. 2)** — per attribute-pair distance `D_i^t`,
//!   the weight is the complementary cumulative distribution function
//!   of the distance population `R_t` (all distances of type `t`
//!   between the target attribute and the lake) evaluated at `D_i^t`:
//!   the probability that the observed distance is the smallest. A
//!   query sorts each population once and counts in it by binary
//!   search.
//! * **Evidence weights (Eq. 3)** — the relative importance of the
//!   five evidence types, taken from the coefficients of a logistic
//!   regression trained on related/unrelated table pairs.

use d3l_ml::LogisticRegression;

use crate::distance::DistanceVector;

/// CCDF weight of one observed distance within its population
/// (Eq. 2): `w = 1 - P(d <= D)`, computed with a `+1` smoothing so the
/// single-element population still yields a usable weight and ties do
/// not collapse the Eq. 1 denominator to zero.
///
/// `population` must be sorted by [`f64::total_cmp`] and hold no NaN.
/// Then the distances `<= observed` are a prefix of it (`total_cmp`
/// puts −0.0 right before +0.0, which `<=` calls equal), and a binary
/// search counts them.
pub fn ccdf_weight(observed: f64, population: &[f64]) -> f64 {
    debug_assert!(
        population.is_sorted_by(|a, b| a.total_cmp(b).is_le())
            && !population.iter().any(|d| d.is_nan()),
        "a population is sorted by f64::total_cmp and holds no NaN"
    );
    let le = population.partition_point(|&d| d <= observed);
    1.0 - le as f64 / (population.len() + 1) as f64
}

/// Smoothing mass pulling Eq. 1 toward the maximal distance when all
/// aligned pairs carry low CCDF weight. Eq. 2's stated purpose is "to
/// compensate for the presence of a potentially high number of weakly
/// related attributes": a distance that ties with most of its
/// population (e.g. a 4-value categorical column matching every other
/// table with the same domain) gets weight ≈ 0 and must not dominate
/// the aggregate just because it is the only measurement — without a
/// prior, a single-row table pair would cancel its own weight in the
/// ratio.
pub const AGGREGATE_PRIOR: f64 = 0.1;

/// Eq. 1: weighted average of one evidence type's distances over the
/// aligned attribute pairs of a `(target, source)` table pair.
/// `pairs` holds `(distance, ccdf_weight)` per aligned pair.
pub fn aggregate_evidence(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 1.0;
    }
    let wsum: f64 = pairs.iter().map(|(_, w)| w).sum();
    let num: f64 = pairs.iter().map(|(d, w)| d * w).sum();
    (num + AGGREGATE_PRIOR) / (wsum + AGGREGATE_PRIOR)
}

/// The evidence-type weights of Eq. 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvidenceWeights(pub [f64; 5]);

impl EvidenceWeights {
    /// Uniform weights (the ablation baseline).
    pub fn uniform() -> Self {
        EvidenceWeights([1.0; 5])
    }

    /// The default weights shipped with the library: five fixed
    /// literals, not the output of any training run in this tree
    /// (§III-D trains them by logistic regression; see
    /// [`train_evidence_weights`]). They rank value and embedding
    /// evidence highest and format lowest — the paper's Experiment 1
    /// observation that format alone "is not sufficiently
    /// discriminating".
    pub fn trained_default() -> Self {
        EvidenceWeights([0.85, 1.55, 0.35, 1.10, 0.55])
    }

    /// Derive weights from a trained relatedness classifier: the
    /// paper uses "the coefficients of the resulting model as the
    /// respective weights in Eq. 3". Features are *distances*, so
    /// related pairs push coefficients negative; the weight of an
    /// evidence type is the magnitude of its (negative) coefficient,
    /// floored at a small positive value so no evidence is discarded
    /// outright.
    pub fn from_model(model: &LogisticRegression) -> Self {
        assert_eq!(
            model.weights().len(),
            5,
            "model must have five distance features"
        );
        let mut w = [0.0; 5];
        for (i, &c) in model.weights().iter().enumerate() {
            w[i] = (-c).max(0.05);
        }
        EvidenceWeights(w)
    }

    /// Eq. 3: the weighted L2 norm of a table-pair distance vector,
    /// normalized so the result stays in `[0, 1]`.
    pub fn combined_distance(&self, dv: &DistanceVector) -> f64 {
        let wsum: f64 = self.0.iter().sum();
        if wsum <= 0.0 {
            return dv.mean();
        }
        let num: f64 = self
            .0
            .iter()
            .zip(&dv.0)
            .map(|(&w, &d)| (w * d) * (w * d))
            .sum();
        // Normalize by the maximum attainable value (all distances 1)
        // so the combined distance is bounded by 1.
        let max: f64 = self.0.iter().map(|&w| w * w).sum();
        (num / max).sqrt()
    }
}

impl Default for EvidenceWeights {
    fn default() -> Self {
        EvidenceWeights::trained_default()
    }
}

/// Train Eq. 3 weights from labelled table-pair distance vectors
/// (§III-D steps 1–3).
pub fn train_evidence_weights(
    vectors: &[DistanceVector],
    related: &[bool],
) -> (EvidenceWeights, LogisticRegression) {
    assert_eq!(vectors.len(), related.len());
    let xs: Vec<Vec<f64>> = vectors.iter().map(|v| v.0.to_vec()).collect();
    let model = LogisticRegression::train(&xs, related);
    (EvidenceWeights::from_model(&model), model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::Evidence;

    #[test]
    fn ccdf_weight_ranks_small_distances_high() {
        let pop = [0.1, 0.2, 0.3, 0.4, 0.5];
        let w_best = ccdf_weight(0.1, &pop);
        let w_worst = ccdf_weight(0.5, &pop);
        assert!(w_best > w_worst);
        assert!(w_best > 0.8);
        assert!(w_worst < 0.2);
        assert!((0.0..=1.0).contains(&w_best));
    }

    #[test]
    fn ccdf_weight_empty_population() {
        assert_eq!(ccdf_weight(0.3, &[]), 1.0);
    }

    #[test]
    fn ccdf_ties_keep_positive_denominator() {
        let pop = [0.5, 0.5, 0.5];
        let w = ccdf_weight(0.5, &pop);
        assert!(w > 0.0, "smoothing keeps weight positive");
    }

    #[test]
    fn aggregate_weighted_average() {
        // strong pair (0.1, weight 0.9), weak pair (0.9, weight 0.1):
        // aggregate leans toward 0.1.
        let agg = aggregate_evidence(&[(0.1, 0.9), (0.9, 0.1)]);
        assert!(agg < 0.35);
        assert_eq!(aggregate_evidence(&[]), 1.0);
        // all-zero weights degrade to the prior (maximal distance)
        let agg0 = aggregate_evidence(&[(0.2, 0.0), (0.4, 0.0)]);
        assert!((agg0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn low_weight_single_rows_are_damped() {
        // A lone tie-with-everyone row (small distance, near-zero
        // weight) must not produce a small aggregate.
        let uninformative = aggregate_evidence(&[(0.16, 0.02)]);
        let informative = aggregate_evidence(&[(0.16, 0.95)]);
        assert!(uninformative > 0.8, "got {uninformative}");
        assert!(informative < 0.3, "got {informative}");
    }

    #[test]
    fn combined_distance_bounds() {
        let w = EvidenceWeights::trained_default();
        assert!(w.combined_distance(&DistanceVector([0.0; 5])).abs() < 1e-12);
        assert!((w.combined_distance(&DistanceVector([1.0; 5])) - 1.0).abs() < 1e-12);
        let mid = w.combined_distance(&DistanceVector([0.5; 5]));
        assert!((mid - 0.5).abs() < 1e-9);
    }

    #[test]
    fn combined_distance_respects_weights() {
        let w = EvidenceWeights([0.0, 1.0, 0.0, 0.0, 0.0].map(|x: f64| x.max(1e-9)));
        let mut close_v = DistanceVector::max_distant();
        close_v.set(Evidence::Value, 0.0);
        let mut close_n = DistanceVector::max_distant();
        close_n.set(Evidence::Name, 0.0);
        // V-dominant weights: V-close pair must rank closer.
        assert!(w.combined_distance(&close_v) < w.combined_distance(&close_n));
    }

    #[test]
    fn training_recovers_discriminative_evidence() {
        // Value distance alone separates related from unrelated.
        let mut vectors = Vec::new();
        let mut labels = Vec::new();
        for i in 0..50 {
            let noise = (i % 10) as f64 / 20.0;
            vectors.push(DistanceVector([0.5, 0.1 + noise * 0.2, 0.5, 0.3, 0.9]));
            labels.push(true);
            vectors.push(DistanceVector([0.5, 0.9 - noise * 0.2, 0.5, 0.7, 0.9]));
            labels.push(false);
        }
        let (w, model) = train_evidence_weights(&vectors, &labels);
        // V coefficient strongly negative → large weight.
        assert!(w.0[Evidence::Value.index()] > w.0[Evidence::Format.index()]);
        // Model itself classifies the training data well.
        let correct = vectors
            .iter()
            .zip(&labels)
            .filter(|(v, &y)| model.predict(&v.0) == y)
            .count();
        assert!(correct as f64 / vectors.len() as f64 > 0.9);
    }

    #[test]
    fn uniform_weights() {
        let u = EvidenceWeights::uniform();
        assert!(u.0.iter().all(|&w| (w - 1.0).abs() < 1e-12));
    }
}
