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
    /// Number of worker threads for index construction (0 = number of
    /// available CPUs). A setting of the process, not of the index: a
    /// store does not keep it.
    pub index_threads: usize,
    /// Number of worker threads for the query pipeline (0 = number of
    /// available CPUs, or the `D3L_QUERY_THREADS` environment
    /// variable where it is set). Results are byte-identical at every
    /// thread count; this only trades latency for cores. Like
    /// `index_threads`, a store does not keep it.
    pub query_threads: usize,
    /// Number of index shards (1 = the classic monolith, at most
    /// [`D3lConfig::MAX_SHARDS`]). Tables are assigned to shards by a
    /// stable fingerprint of the table name; each shard owns its four
    /// forests and its own snapshot/delta chain, so a mutation
    /// rewrites O(lake/shards) state. Rankings are byte-identical at
    /// every shard count. Stored in the snapshot config so a reopened
    /// index agrees with the writer.
    pub shards: usize,
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
            index_threads: 0,
            query_threads: 0,
            shards: 1,
        }
    }
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

    /// Effective thread count for index construction.
    pub fn effective_threads(&self) -> usize {
        Self::auto_threads(self.index_threads)
    }

    /// Effective thread count for the query pipeline. Precedence: an
    /// explicit `per_query` override
    /// ([`crate::query::QueryOptions::threads`]), then a
    /// [`D3lConfig::query_threads`] a caller set — both meant
    /// literally, so the determinism tests comparing thread counts get
    /// the counts they ask for — then the `D3L_QUERY_THREADS`
    /// environment variable, which replaces only the automatic 0 (CI
    /// forces the suite through the single- and fully-parallel paths
    /// with it); 0 at any level means "use every available CPU".
    pub fn effective_query_threads(&self, per_query: Option<usize>) -> usize {
        let n = match per_query {
            Some(n) => n,
            None if self.query_threads > 0 => self.query_threads,
            None => std::env::var("D3L_QUERY_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(0),
        };
        Self::auto_threads(n)
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
        LOOKUP_FACTOR.saturating_mul(k).max(self.min_lookup)
    }

    /// Why this configuration cannot shape an index, if it cannot: a
    /// signature, projection or tree count of zero, a signature length
    /// or embedding dimension past [`D3lConfig::MAX_SHAPE`], fewer
    /// signature positions than trees, q-grams of no character, or a
    /// shard count outside `1..=`[`D3lConfig::MAX_SHARDS`]. A build
    /// asserts it, `d3l index` refuses `--shards` with it, and an open
    /// refuses a stored configuration with it, so no build writes a
    /// store its own open refuses.
    pub fn shape_error(&self) -> Option<String> {
        let sizes = [
            ("num_perm", self.num_perm, Self::MAX_SHAPE),
            ("embed_bits", self.embed_bits, Self::MAX_SHAPE),
            ("embed_dim", self.embed_dim, Self::MAX_SHAPE),
            ("shards", self.shards, Self::MAX_SHARDS),
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

    /// Bound on `shards`. Each shard builds its own hashers — the
    /// projector alone is `embed_dim × embed_bits` `f64`s, 128 KiB at
    /// the defaults — and its own four forests, so a shard count is a
    /// memory cost before any table is indexed: 32 MiB of projectors
    /// at this bound and the defaults, where 100 000 shards would ask
    /// for 12 GiB.
    pub const MAX_SHARDS: usize = 256;
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
        // Explicit per-query overrides always win, then a count the
        // caller set, whatever `D3L_QUERY_THREADS` says.
        assert_eq!(c.effective_query_threads(Some(5)), 5);
        assert!(c.effective_query_threads(Some(0)) >= 1);
        assert_eq!(c.effective_query_threads(None), 2);
        assert!(D3lConfig::default().effective_query_threads(None) >= 1);
    }

    #[test]
    fn shard_counts_past_the_bound_are_a_shape_error() {
        for shards in [1, 2, D3lConfig::MAX_SHARDS] {
            let c = D3lConfig {
                shards,
                ..Default::default()
            };
            assert_eq!(c.shape_error(), None, "{shards} shards");
        }
        for shards in [0, D3lConfig::MAX_SHARDS + 1, 1 << 32, usize::MAX] {
            let c = D3lConfig {
                shards,
                ..Default::default()
            };
            let error = c.shape_error().expect("refused");
            assert!(error.contains("shards"), "{error}");
        }
    }
}
