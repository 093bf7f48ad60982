//! The three workloads: every size, share, count and `k`, and the
//! digests that pin their generated inputs.
//!
//! All of it is constant, calibrated once on the commit that defined
//! the benchmark (2 vCPUs) and never derived at run time: a run that
//! sized itself from a measurement would measure something different
//! on the next commit. `--seconds` scales only the `solo` query
//! slices; set-up rounds and mutation scripts are fixed counts so
//! sizes and counts repeat exactly.

/// The stored lake, its ground truth and the whole mutation script are
/// those of this seed on every run, whatever `--seed` says.
pub const PIN_SEED: u64 = 11;

/// The generator and every child it starts run pinned to this CPU, so
/// **every timing is a one-core number**: `d3l index` builds
/// single-threaded, the two `d3l serve` workers share the core with
/// each other and with the one connection that asks them. The box has
/// two CPUs but lends the second by the minute (`NOISE.md`): whatever
/// needs both reads twice as slow in the minutes it is gone, and what
/// stays on one does not.
pub const CPU: usize = 1;

/// `d3l serve --threads`.
pub const SERVER_THREADS: usize = 2;

/// How the stored lake is derived (`benchgen::derive`).
#[derive(Debug, Clone, Copy)]
pub struct LakeSpec {
    pub tables: usize,
    pub base_rows: usize,
    /// `smaller_real`-style dirt (renamed columns, perturbed cells,
    /// numeric noise columns, small row overlap) or clean `synthetic`.
    pub dirty: bool,
}

/// The external query targets: `count` tables cut from base tables
/// generated with the run's seed. Their *shape* (which base table,
/// which columns, how many rows) is pinned; the seed draws the values.
#[derive(Debug, Clone, Copy)]
pub struct TargetSpec {
    pub count: usize,
    pub rows: usize,
    /// Columns kept per target, `(min, max)`, clamped to the arity.
    pub cols: (usize, usize),
    /// `Some(s)`: drawn Zipf(s), so a few targets are hot;
    /// `None`: round-robin, every target equally often.
    pub zipf: Option<f64>,
}

/// The mutation script of one run, split evenly over the cycles.
#[derive(Debug, Clone, Copy)]
pub struct MutationSpec {
    pub adds: usize,
    pub deletes: usize,
    /// `POST /admin/compact` after every this-many mutations (0: never).
    pub compact_every: usize,
    /// After each mutation one `/query` of a hot target, after each
    /// add one `GET /rank_all?target=<name>` (read-your-writes).
    pub follow_up: bool,
    /// At the end: SIGKILL, restart from the store, same live-table
    /// count and same top-k names for `probes` targets.
    pub kill_check: bool,
}

/// Which child's peak resident set `peak_rss_mb` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RssOf {
    /// `VmHWM` of `d3l index`, median of the set-up rounds.
    Index,
    /// `VmHWM` of `d3l serve` before its first mutation, median of the
    /// cycles.
    Serve,
}

/// Pinned FNV-1a digests of a workload's generated inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    /// Names and CSV bytes of the stored lake.
    pub lake: u64,
    /// The mutation script: every operation's request bytes, in order.
    pub script: u64,
    /// The prebuilt query bodies and quality probes of seed 11.
    pub bodies: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub lake: LakeSpec,
    /// `--cache-bytes 0` (off) or the server default.
    pub cache_off: bool,
    /// Set-up rounds per run, dealt evenly over the cycles. A round is
    /// `d3l index` into an empty directory plus `d3l serve` spawned
    /// until its first `/query` answers.
    pub setup_rounds: usize,
    /// Cycles of S → A → solo the mutation script is split over.
    pub cycles: usize,
    /// Cycles a run executes: all of them, or the first few in the
    /// traced run's short end-to-end pass.
    pub run_cycles: usize,
    pub targets: TargetSpec,
    pub k: usize,
    /// Ground-truth probes: lake members queried with themselves
    /// excluded, at `quality_k`.
    pub quality_targets: usize,
    pub quality_k: usize,
    /// Share of `--seconds` spent in the `solo` slices, over the whole
    /// run.
    pub solo_share: f64,
    /// Untimed requests before the timed slice of a cycle (each cycle
    /// serves from a fresh process).
    pub warmup_requests: usize,
    pub mutations: MutationSpec,
    pub rss_of: RssOf,
    /// Probe targets of the kill check.
    pub probes: usize,
    pub digests: Digests,
    pub smoke_digests: Digests,
}

/// How much of a workload a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `--trace 0`: the end-to-end run.
    Full,
    /// `--trace 1`: the same inputs, a short end-to-end pass (for the
    /// generator's own and the scraped metrics), the rest of the time
    /// for the in-process layer timings.
    Traced,
    /// `--smoke`: a tiny lake, about two seconds per workload.
    Smoke,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "build-dirty2k",
        why: "index builds of a dirty 2000-table lake dominate: table, features, embedding, lsh signing, core.profile/index/snapshot do the work, server and cache almost none; carries the quality gate",
        lake: LakeSpec {
            tables: 2000,
            base_rows: 120,
            dirty: true,
        },
        cache_off: true,
        setup_rounds: 15,
        cycles: 5,
        run_cycles: 5,
        targets: TargetSpec {
            count: 200,
            rows: 40,
            cols: (3, 4),
            zipf: None,
        },
        k: 10,
        quality_targets: 100,
        quality_k: 60,
        solo_share: 0.25,
        warmup_requests: 40,
        mutations: MutationSpec {
            adds: 30,
            deletes: 0,
            compact_every: 0,
            follow_up: false,
            kill_check: false,
        },
        rss_of: RssOf::Index,
        probes: 0,
        digests: Digests {
            lake: 0x205a_83ac_4653_f087,
            script: 0x04f9_b178_99c5_a9d5,
            bodies: 0x1758_6d68_a0aa_1c6c,
        },
        smoke_digests: Digests {
            lake: 0x30e1_df4f_d2d2_8ce7,
            script: 0x2d4a_8e4d_dab3_f8f4,
            bodies: 0xb46b_b367_2edd_1155,
        },
    },
    Workload {
        name: "serve-lake4k",
        why: "400 distinct uncached targets on a clean 4000-table lake: forest descent, scoring and aggregation are the request, HTTP/JSON a few percent; the paper's discovery time at the largest size that fits",
        lake: LakeSpec {
            tables: 4000,
            base_rows: 150,
            dirty: false,
        },
        cache_off: true,
        setup_rounds: 5,
        cycles: 5,
        run_cycles: 5,
        targets: TargetSpec {
            count: 400,
            rows: 90,
            cols: (3, 4),
            zipf: None,
        },
        k: 10,
        quality_targets: 20,
        quality_k: 10,
        solo_share: 0.35,
        warmup_requests: 40,
        mutations: MutationSpec {
            adds: 40,
            deletes: 0,
            compact_every: 0,
            follow_up: false,
            kill_check: false,
        },
        rss_of: RssOf::Serve,
        probes: 0,
        digests: Digests {
            lake: 0x8b29_d26c_b382_7985,
            script: 0x26c3_49d4_a0c5_ecf8,
            bodies: 0x6467_1ff6_78af_a650,
        },
        smoke_digests: Digests {
            lake: 0xa094_6ddd_ca55_9401,
            script: 0x92d1_3f26_3e97_3ac7,
            bodies: 0xf7ee_30bb_c74d_746d,
        },
    },
    Workload {
        name: "serve-hot-churn1k",
        why: "50 large Zipf-hot targets, all cache hits: HTTP parse, JSON decode, fingerprint and cache get are the request, the engine idles; beside it an add/delete/compact write path with a kill-restart check",
        lake: LakeSpec {
            tables: 1000,
            base_rows: 120,
            dirty: true,
        },
        cache_off: false,
        setup_rounds: 12,
        cycles: 6,
        run_cycles: 6,
        targets: TargetSpec {
            count: 50,
            rows: 400,
            cols: (6, 6),
            zipf: Some(1.1),
        },
        k: 10,
        quality_targets: 20,
        quality_k: 10,
        solo_share: 0.40,
        warmup_requests: 50,
        mutations: MutationSpec {
            adds: 120,
            deletes: 60,
            compact_every: 25,
            follow_up: true,
            kill_check: true,
        },
        rss_of: RssOf::Serve,
        probes: 20,
        digests: Digests {
            lake: 0x9966_942e_0b6a_449d,
            script: 0x5ccb_36e1_ba52_c27e,
            bodies: 0x6b32_5cc1_7541_9340,
        },
        smoke_digests: Digests {
            lake: 0x30e1_df4f_d2d2_8ce7,
            script: 0x1012_97f7_c4ad_f3bc,
            bodies: 0x62b8_7099_3d9b_3570,
        },
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The workload as `scale` runs it. `Full` is the table above.
    pub fn at(mut self, scale: Scale) -> Workload {
        match scale {
            Scale::Full => {}
            Scale::Traced => {
                // The same inputs, the first two cycles with one
                // set-up round each: enough for the generator's own
                // percentiles and the scraped deltas, short enough to
                // leave the layers their time.
                self.run_cycles = 2;
                self.setup_rounds = 2;
                self.solo_share /= 2.0;
            }
            Scale::Smoke => {
                self.lake.tables = 96;
                self.lake.base_rows = 40;
                self.cycles = 2;
                self.run_cycles = 2;
                self.setup_rounds = 2;
                self.targets.count = self.targets.count.min(12);
                self.targets.rows = self.targets.rows.min(30);
                self.quality_targets = 6;
                self.quality_k = 5;
                self.warmup_requests = 12;
                self.mutations.adds = self.mutations.adds.min(6);
                self.mutations.deletes = self.mutations.deletes.min(2);
                self.mutations.compact_every = self.mutations.compact_every.min(4);
                self.probes = self.probes.min(4);
                self.digests = self.smoke_digests;
            }
        }
        self
    }

    /// Set-up rounds of cycle `c`: the rounds dealt round-robin.
    pub fn rounds_in_cycle(&self, c: usize) -> usize {
        self.setup_rounds / self.run_cycles + usize::from(c < self.setup_rounds % self.run_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_dealt_evenly_and_every_cycle_gets_a_server() {
        for w in WORKLOADS {
            for scale in [Scale::Full, Scale::Traced, Scale::Smoke] {
                let w = w.at(scale);
                let per: Vec<usize> = (0..w.run_cycles).map(|c| w.rounds_in_cycle(c)).collect();
                assert_eq!(per.iter().sum::<usize>(), w.setup_rounds, "{}", w.name);
                assert!(per.iter().all(|&r| r >= 1), "{}: {per:?}", w.name);
                assert!(per.iter().max().unwrap() - per.iter().min().unwrap() <= 1);
            }
        }
        assert!(WORKLOADS.iter().all(|w| w.cycles >= 5));
    }

    #[test]
    fn query_slices_leave_time_for_the_rest() {
        assert!(WORKLOADS.iter().all(|w| w.solo_share < 0.5));
    }

    #[test]
    fn names_are_the_fixed_ones() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            ["build-dirty2k", "serve-lake4k", "serve-hot-churn1k"]
        );
        assert!(Workload::by_name("serve-lake4k").is_some());
        assert!(Workload::by_name("nope").is_none());
    }
}
