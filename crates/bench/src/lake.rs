//! The one lake every experiment runs on: the dirty 2 000-table lake
//! of the benchmark's `build-dirty2k` workload, and its probes.

use std::sync::atomic::{AtomicUsize, Ordering};

use d3l_benchgen::Benchmark;
use d3l_table::DataLake;

/// Tables in the lake.
pub const TABLES: usize = 2000;
/// The seed of the lake and of the probe draw (the benchmark's
/// `PIN_SEED`).
pub const SEED: u64 = 11;
/// Ground-truth probes: §V's "100 randomly selected targets".
pub const PROBES: usize = 100;
/// The answer size the benchmark gates precision and recall at.
pub const K: usize = 60;

/// The lake as the generator emits it, tables in generation order: the
/// same derivation `benchmark/src/inputs.rs` runs.
pub fn generated() -> Benchmark {
    d3l_benchgen::smaller_real(TABLES, SEED)
}

/// The lake as the benchmark indexes it ([`generated`], [`reloaded`]).
pub fn pinned() -> Benchmark {
    reloaded(generated())
}

/// `bench` with its lake written as `<name>.csv` files and read back,
/// so table ids follow sorted file names, as `d3l index` assigns them.
/// The order is part of the answer: `top_k` breaks ties by ascending
/// id.
pub fn reloaded(bench: Benchmark) -> Benchmark {
    static DIRS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "d3l_bench_lake_{}_{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    bench.lake.save_dir(&dir).expect("lake written");
    let lake = DataLake::load_dir(&dir);
    std::fs::remove_dir_all(&dir).ok();
    Benchmark {
        lake: lake.expect("lake read back"),
        truth: bench.truth,
    }
}

/// The probes: [`PROBES`] lake members with a non-empty answer, drawn
/// with [`SEED`].
pub fn probes(bench: &Benchmark) -> Vec<String> {
    bench.pick_targets(PROBES, SEED)
}
