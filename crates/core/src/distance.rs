//! Per-pair distance computation (§III-B) and the 5-dimensional
//! distance vector.
//!
//! The exact formulas here operate on the set representations; the
//! LSH estimates used at query time operate on signature words
//! (`query` module). Both live in `[0, 1]` with 1 = maximally distant.

use d3l_embedding::vecmath;
use d3l_features::ks;
use d3l_lsh::minhash::exact_jaccard;

use crate::evidence::Evidence;
use crate::profile::AttributeProfile;

/// The `[D_N, D_V, D_F, D_E, D_D]` distance vector of one attribute
/// pair or one table pair (Eq. 1 output).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceVector(pub [f64; 5]);

impl DistanceVector {
    /// All components at maximum distance.
    pub fn max_distant() -> Self {
        DistanceVector([1.0; 5])
    }

    /// Component for an evidence type.
    pub fn get(&self, e: Evidence) -> f64 {
        self.0[e.index()]
    }

    /// Set a component.
    pub fn set(&mut self, e: Evidence, d: f64) {
        self.0[e.index()] = d.clamp(0.0, 1.0);
    }

    /// Unweighted mean of the components — used to pick the best
    /// aligned source attribute per target attribute.
    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / 5.0
    }

    /// True when at least one evidence type carries signal (< 1).
    pub fn has_signal(&self) -> bool {
        self.0.iter().any(|&d| d < 1.0)
    }
}

impl Default for DistanceVector {
    fn default() -> Self {
        DistanceVector::max_distant()
    }
}

/// Exact name distance: Jaccard distance of hashed q-gram sets
/// (a linear merge-intersection over the sorted token vecs).
pub fn name_distance(a: &AttributeProfile, b: &AttributeProfile) -> f64 {
    if a.qset.is_empty() || b.qset.is_empty() {
        return 1.0;
    }
    1.0 - exact_jaccard(&a.qset, &b.qset)
}

/// Exact value distance: Jaccard distance of hashed tsets; 1 when
/// either side has no textual tokens (numeric or empty attributes).
pub fn value_distance(a: &AttributeProfile, b: &AttributeProfile) -> f64 {
    if a.tset.is_empty() || b.tset.is_empty() {
        return 1.0;
    }
    1.0 - exact_jaccard(&a.tset, &b.tset)
}

/// Exact format distance: Jaccard distance of hashed rsets.
pub fn format_distance(a: &AttributeProfile, b: &AttributeProfile) -> f64 {
    if a.rset.is_empty() || b.rset.is_empty() {
        return 1.0;
    }
    1.0 - exact_jaccard(&a.rset, &b.rset)
}

/// Exact embedding distance: cosine distance of attribute vectors; 1
/// when either vector is zero.
pub fn embedding_distance(a: &AttributeProfile, b: &AttributeProfile) -> f64 {
    if !a.has_embedding() || !b.has_embedding() {
        return 1.0;
    }
    1.0 - vecmath::cosine(&a.embedding, &b.embedding)
}

/// Distribution distance: the two-sample KS statistic over numeric
/// extents; 1 unless both attributes are numeric with non-empty
/// extents. Callers apply Algorithm 2's guards before invoking.
pub fn distribution_distance(a: &AttributeProfile, b: &AttributeProfile) -> f64 {
    if !a.is_numeric || !b.is_numeric {
        return 1.0;
    }
    ks::ks_statistic_presorted(&a.numeric_extent, &b.numeric_extent)
}

/// The full exact distance vector of an attribute pair (D unguarded —
/// query-time code substitutes the guarded value).
pub fn exact_distances(a: &AttributeProfile, b: &AttributeProfile) -> DistanceVector {
    DistanceVector([
        name_distance(a, b),
        value_distance(a, b),
        format_distance(a, b),
        embedding_distance(a, b),
        distribution_distance(a, b),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use d3l_embedding::HashEmbedder;
    use d3l_table::Column;

    fn profile(name: &str, vals: &[&str]) -> AttributeProfile {
        let c = Column::new(name, vals.iter().map(|s| s.to_string()).collect());
        let e = HashEmbedder::new(32, 1);
        AttributeProfile::build(&c, 4, &e)
    }

    #[test]
    fn identical_attributes_are_distance_zero() {
        let a = profile("City", &["Salford", "Belfast", "London"]);
        let b = profile("City", &["London", "Salford", "Belfast"]);
        let d = exact_distances(&a, &b);
        assert!(d.get(Evidence::Name) < 1e-12);
        assert!(d.get(Evidence::Value) < 1e-12);
        assert!(d.get(Evidence::Format) < 1e-12);
        assert!(d.get(Evidence::Embedding) < 1e-9);
        // both textual → D stays maximal
        assert!((d.get(Evidence::Distribution) - 1.0).abs() < 1e-12);
        assert!(d.has_signal());
    }

    #[test]
    fn unrelated_attributes_are_maximally_distant() {
        let a = profile("City", &["Salford", "Belfast"]);
        let b = profile("Payment", &["73648", "15530"]);
        let d = exact_distances(&a, &b);
        assert!((d.get(Evidence::Name) - 1.0).abs() < 1e-12);
        assert!(
            (d.get(Evidence::Value) - 1.0).abs() < 1e-12,
            "numeric has no tset"
        );
    }

    #[test]
    fn numeric_pair_gets_ks() {
        let a = profile("Patients", &["100", "200", "300"]);
        let b = profile("Enrolled", &["100", "200", "300"]);
        let d = exact_distances(&a, &b);
        assert!(d.get(Evidence::Distribution) < 1e-12, "same distribution");
        let c = profile("Payment", &["90000", "95000"]);
        assert!(
            (distribution_distance(&a, &c) - 1.0).abs() < 1e-12,
            "disjoint ranges"
        );
    }

    #[test]
    fn shared_formats_have_low_format_distance() {
        let a = profile("Postcode", &["M3 6AF", "BT7 1JL"]);
        let b = profile("Post Code", &["W1G 6BW", "M26 2SP"]);
        let d = exact_distances(&a, &b);
        assert!(d.get(Evidence::Format) < 0.01);
        assert!(d.get(Evidence::Name) < 1.0, "qgrams overlap");
    }

    #[test]
    fn vector_accessors() {
        let mut v = DistanceVector::default();
        assert_eq!(v, DistanceVector::max_distant());
        assert!(!v.has_signal());
        v.set(Evidence::Value, 0.25);
        assert_eq!(v.get(Evidence::Value), 0.25);
        assert!((v.mean() - (4.25 / 5.0)).abs() < 1e-12);
        v.set(Evidence::Name, 7.0); // clamps
        assert_eq!(v.get(Evidence::Name), 1.0);
    }
}
