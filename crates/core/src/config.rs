//! Configuration knobs. Defaults follow the paper's evaluation setup
//! (§V, footnote 5): LSH Forest, threshold 0.7, MinHash size 256.

/// D3L configuration.
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
    /// LSH similarity threshold (paper: 0.7) — used by Algorithm 2's
    /// guards and join-edge postulation.
    pub threshold: f64,
    /// q for name q-grams (paper: 4).
    pub q: usize,
    /// Per-target-attribute lookup width as a multiple of the
    /// requested table answer size `k` (candidates gathered per index
    /// before grouping by table).
    pub lookup_factor: usize,
    /// Minimum per-attribute lookup width, so small `k` still gathers
    /// enough candidates to rank.
    pub min_lookup: usize,
    /// Jaccard threshold on tset overlap for postulating SA-join
    /// edges (§IV).
    pub join_threshold: f64,
    /// Maximum SA-join path length explored by Algorithm 3.
    pub max_join_depth: usize,
    /// Deterministic seed for hashing and projections.
    pub seed: u64,
    /// Number of worker threads for index construction (0 = number of
    /// available CPUs). A setting of the process, not of the index: a
    /// store does not keep it.
    pub index_threads: usize,
    /// Number of worker threads for the query pipeline (0 = number of
    /// available CPUs). Results are byte-identical at every thread
    /// count; this only trades latency for cores. The
    /// `D3L_QUERY_THREADS` environment variable overrides this field
    /// when no explicit per-query override is given (CI uses it to
    /// exercise the single- and multi-threaded paths on the same test
    /// suite). Like `index_threads`, a store does not keep it.
    pub query_threads: usize,
    /// Number of index shards (1 = the classic monolith). Tables are
    /// assigned to shards by a stable fingerprint of the table name;
    /// each shard owns its four forests and its own snapshot/delta
    /// chain, so a mutation rewrites O(lake/shards) state. Rankings
    /// are byte-identical at every shard count. Stored in the
    /// snapshot config so a reopened index agrees with the writer.
    pub shards: usize,
}

impl Default for D3lConfig {
    fn default() -> Self {
        D3lConfig {
            num_perm: 256,
            embed_bits: 256,
            embed_dim: 64,
            trees: 16,
            threshold: 0.7,
            q: 4,
            lookup_factor: 3,
            min_lookup: 50,
            join_threshold: 0.5,
            max_join_depth: 3,
            seed: 0xd31,
            index_threads: 0,
            query_threads: 0,
            shards: 1,
        }
    }
}

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

    /// Effective thread count for index construction.
    pub fn effective_threads(&self) -> usize {
        Self::auto_threads(self.index_threads)
    }

    /// Effective thread count for the query pipeline. Precedence: an
    /// explicit `per_query` override
    /// ([`crate::query::QueryOptions::threads`]) wins — callers that
    /// set it (e.g. the determinism tests comparing thread counts)
    /// mean it literally — then the `D3L_QUERY_THREADS` environment
    /// variable (CI forces the whole suite through the single- and
    /// fully-parallel paths with it), then
    /// [`D3lConfig::query_threads`]; 0 at any level means "use every
    /// available CPU".
    pub fn effective_query_threads(&self, per_query: Option<usize>) -> usize {
        if let Some(n) = per_query {
            return Self::auto_threads(n);
        }
        if let Some(n) = std::env::var("D3L_QUERY_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            return Self::auto_threads(n);
        }
        Self::auto_threads(self.query_threads)
    }

    fn auto_threads(n: usize) -> usize {
        if n > 0 {
            n
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Per-attribute lookup width for a table answer size `k`.
    pub fn lookup_width(&self, k: usize) -> usize {
        self.lookup_factor.saturating_mul(k).max(self.min_lookup)
    }

    /// Why this configuration cannot shape an index, if it cannot: a
    /// signature, projection or tree count of zero, a signature length
    /// or embedding dimension past [`D3lConfig::MAX_SHAPE`], fewer
    /// signature positions than trees, q-grams of no character, or no
    /// shard. A build asserts it and an open refuses a stored
    /// configuration with it, so no build writes a store its own open
    /// refuses.
    pub fn shape_error(&self) -> Option<String> {
        let sizes = [
            ("num_perm", self.num_perm),
            ("embed_bits", self.embed_bits),
            ("embed_dim", self.embed_dim),
        ];
        if let Some((name, n)) = sizes
            .iter()
            .find(|(_, n)| !(1..=Self::MAX_SHAPE).contains(n))
        {
            return Some(format!(
                "config {name} {n} is outside 1..={}",
                Self::MAX_SHAPE
            ));
        }
        if self.trees == 0 || self.num_perm < self.trees || self.embed_bits < self.trees {
            return Some(format!(
                "config of {} trees over {} and {} signature positions",
                self.trees, self.num_perm, self.embed_bits
            ));
        }
        let zero = [("q", self.q), ("shards", self.shards)];
        let zero = zero.iter().find(|(_, n)| *n == 0);
        zero.map(|(name, _)| format!("config with zero {name}"))
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
        assert!((c.threshold - 0.7).abs() < 1e-12);
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
            index_threads: 3,
            ..Default::default()
        };
        assert_eq!(c.effective_threads(), 3);
    }

    #[test]
    fn effective_query_threads_precedence() {
        let c = D3lConfig {
            query_threads: 2,
            ..Default::default()
        };
        // Explicit per-query overrides always win, even under the CI
        // env override.
        assert_eq!(c.effective_query_threads(Some(5)), 5);
        assert!(c.effective_query_threads(Some(0)) >= 1);
        assert!(D3lConfig::default().effective_query_threads(None) >= 1);
        // The config fallback only shows when the env override is not
        // active.
        if std::env::var("D3L_QUERY_THREADS").is_err() {
            assert_eq!(c.effective_query_threads(None), 2);
        }
    }
}
