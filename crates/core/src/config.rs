//! Configuration knobs. Defaults follow the paper's evaluation setup
//! (§V, footnote 5): LSH Forest, threshold 0.7, MinHash size 256.

/// D3L configuration: the fields some caller sets. The values the
/// paper fixes once are constants beside the one piece of code that
/// reads each:
///
/// - the LSH threshold 0.7 (§V, footnote 5) of Algorithm 2's guards:
///   `query.rs`'s `LSH_THRESHOLD`;
/// - the lookup width's multiple of `k` (3): [`D3lConfig::lookup_width`];
/// - Algorithm 3's join threshold 0.5 and path length 3 (§IV):
///   `join.rs`'s `JOIN_THRESHOLD` and [`crate::join::MAX_JOIN_DEPTH`].
#[derive(Debug, Clone)]
pub struct D3lConfig {
    /// MinHash signature length (paper: 256).
    pub num_perm: usize,
    /// Random-projection signature bits for the embedding index.
    pub embed_bits: usize,
    /// Word-embedding dimensionality.
    pub embed_dim: usize,
    /// LSH Forest tree count (`l`).
    pub trees: usize,
    /// q for name q-grams (paper: 4).
    pub q: usize,
    /// Minimum per-attribute lookup width, so small `k` still gathers
    /// enough candidates to rank.
    pub min_lookup: usize,
    /// Deterministic seed for hashing and projections.
    pub seed: u64,
    /// Number of worker threads of an index build and of a
    /// [`D3l::query_batch_with`] (0 = [`available_cpus`]). A single
    /// query runs on the thread that asked for it, and a write or a
    /// delta replay commits on its own thread. Results are
    /// byte-identical at every count. A setting of the process, not of
    /// the index: a store does not keep it.
    ///
    /// [`D3l::query_batch_with`]: crate::D3l::query_batch_with
    pub threads: usize,
}

impl Default for D3lConfig {
    fn default() -> Self {
        D3lConfig {
            num_perm: 256,
            embed_bits: 256,
            embed_dim: 64,
            trees: 16,
            q: 4,
            min_lookup: 50,
            seed: 0xd31,
            threads: 0,
        }
    }
}

/// Every CPU: the worker count a thread setting of 0 stands for, with
/// a floor of one.
pub fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Per-attribute lookup width as a multiple of the requested table
/// answer size `k` (candidates gathered per index before grouping by
/// table).
const LOOKUP_FACTOR: usize = 3;

impl D3lConfig {
    /// A smaller, faster configuration for tests.
    pub fn fast() -> Self {
        D3lConfig {
            num_perm: 64,
            embed_bits: 64,
            embed_dim: 32,
            trees: 8,
            min_lookup: 20,
            ..Default::default()
        }
    }

    /// Effective worker count of an index build and of a query batch.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            available_cpus()
        }
    }

    /// Per-attribute lookup width for a table answer size `k`.
    pub fn lookup_width(&self, k: usize) -> usize {
        LOOKUP_FACTOR.saturating_mul(k).max(self.min_lookup)
    }

    /// Why this configuration cannot shape an index, if it cannot: a
    /// signature, projection or tree count of zero, a signature length
    /// or embedding dimension past [`D3lConfig::MAX_SHAPE`], fewer
    /// signature positions than trees, or q-grams of no character. A
    /// build asserts it and an open refuses a stored configuration with
    /// it, so no build writes a store its own open refuses.
    pub fn shape_error(&self) -> Option<String> {
        let sizes = [
            ("num_perm", self.num_perm, Self::MAX_SHAPE),
            ("embed_bits", self.embed_bits, Self::MAX_SHAPE),
            ("embed_dim", self.embed_dim, Self::MAX_SHAPE),
        ];
        if let Some((name, n, max)) = sizes.iter().find(|(_, n, max)| !(1..=*max).contains(n)) {
            return Some(format!("config {name} {n} is outside 1..={max}"));
        }
        if self.trees == 0 || self.num_perm < self.trees || self.embed_bits < self.trees {
            return Some(format!(
                "config of {} trees over {} and {} signature positions",
                self.trees, self.num_perm, self.embed_bits
            ));
        }
        (self.q == 0).then(|| "config with zero q".to_string())
    }

    /// Bound on `num_perm`, `embed_bits` and `embed_dim`: 16× the
    /// default signature lengths, so the largest projector an open
    /// builds is 128 MiB.
    pub const MAX_SHAPE: usize = 4096;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = D3lConfig::default();
        assert_eq!(c.num_perm, 256);
        assert_eq!(c.q, 4);
    }

    #[test]
    fn lookup_width_scales() {
        let c = D3lConfig::default();
        assert_eq!(c.lookup_width(5), 50); // floor
        assert_eq!(c.lookup_width(100), 300);
        // Any `k` a caller passes has a width, not an overflow.
        assert_eq!(c.lookup_width(usize::MAX), usize::MAX);
    }

    #[test]
    fn effective_threads_positive() {
        assert!(D3lConfig::default().effective_threads() >= 1);
        let c = D3lConfig {
            threads: 3,
            ..Default::default()
        };
        assert_eq!(c.effective_threads(), 3);
    }
}
