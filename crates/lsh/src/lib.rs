//! # d3l-lsh — locality-sensitive hashing substrate
//!
//! Everything D3L (and the TUS/Aurum baselines) need for approximate
//! similarity search, implemented from scratch:
//!
//! * [`minhash`] — MinHash signatures (Broder 1997) estimating Jaccard
//!   similarity of sets;
//! * [`randproj`] — random hyperplane projections (Charikar 2002)
//!   estimating cosine similarity of dense vectors;
//! * [`forest`] — LSH Forest (Bawa et al., WWW 2005), the self-tuning
//!   variant the paper configures with threshold 0.7 and MinHash size
//!   256, whose top-k search time varies little with repository size;
//! * [`signature`] — what the forest asks of a signature type.
//!
//! Items are identified by an opaque `u64` [`ItemId`]; callers map
//! their attribute identifiers onto it.

pub mod forest;
pub mod hash;
pub mod kernels;
pub mod minhash;
pub mod randproj;
pub mod signature;
pub mod store;
pub mod tokenset;

pub use tokenset::TokenSet;

/// Opaque item identifier used by all indexes in this crate.
pub type ItemId = u64;

/// A query hit: the stored item and the estimated similarity (Jaccard
/// for MinHash-backed indexes, cosine for random-projection ones).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// The matching item.
    pub id: ItemId,
    /// Estimated similarity in `[0, 1]`.
    pub similarity: f64,
}

impl Hit {
    /// Distance form of the similarity (`1 - similarity`), the space
    /// D3L works in.
    pub fn distance(&self) -> f64 {
        1.0 - self.similarity
    }
}

/// Sort hits by descending similarity, tie-broken by id for
/// determinism, and truncate to `k`. Uses `f64::total_cmp`: a NaN
/// similarity (conceivable with adversarial float inputs) must not
/// break the strict weak ordering the sort contract requires.
pub fn top_k(mut hits: Vec<Hit>, k: usize) -> Vec<Hit> {
    hits.sort_by(|a, b| {
        b.similarity
            .total_cmp(&a.similarity)
            .then_with(|| a.id.cmp(&b.id))
    });
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_distance() {
        let h = Hit {
            id: 1,
            similarity: 0.75,
        };
        assert!((h.distance() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn top_k_orders_and_truncates() {
        let hits = vec![
            Hit {
                id: 1,
                similarity: 0.2,
            },
            Hit {
                id: 2,
                similarity: 0.9,
            },
            Hit {
                id: 3,
                similarity: 0.5,
            },
        ];
        let top = top_k(hits, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].id, 2);
        assert_eq!(top[1].id, 3);
    }

    #[test]
    fn top_k_ties_break_by_id() {
        let hits = vec![
            Hit {
                id: 9,
                similarity: 0.5,
            },
            Hit {
                id: 1,
                similarity: 0.5,
            },
        ];
        let top = top_k(hits, 2);
        assert_eq!(top[0].id, 1);
    }

    /// Regression: with the old `partial_cmp(..).unwrap_or(Equal)`
    /// comparator a NaN similarity violated strict weak ordering —
    /// debug builds of the stdlib sort can panic with "comparison
    /// function does not correctly implement a total order". NaN now
    /// has a fixed place in the total order (after every finite
    /// similarity in descending sorts) and the result is still
    /// deterministic.
    #[test]
    fn top_k_tolerates_nan_similarity() {
        let hits: Vec<Hit> = [0.5, f64::NAN, 0.9, f64::NAN, f64::NEG_INFINITY, 0.1]
            .iter()
            .enumerate()
            .map(|(i, &s)| Hit {
                id: i as ItemId,
                similarity: s,
            })
            .collect();
        let top = top_k(hits.clone(), 6);
        let order: Vec<ItemId> = top.iter().map(|h| h.id).collect();
        // total_cmp: NaN > +inf > finite > -inf, so descending puts
        // the NaNs first, ties broken by id.
        assert_eq!(order, vec![1, 3, 2, 0, 5, 4]);
        // Deterministic regardless of input permutation.
        let mut rev = hits;
        rev.reverse();
        let order2: Vec<ItemId> = top_k(rev, 6).iter().map(|h| h.id).collect();
        assert_eq!(order, order2);
    }
}
