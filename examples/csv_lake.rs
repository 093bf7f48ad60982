//! File-based workflow: persist a lake as CSV files, index it once,
//! persist the index, and answer later queries from a millisecond
//! cold start — the shape of a real deployment over an open-data
//! dump directory, where indexing cost is paid once and amortized
//! across every query that follows (the paper's Experiment 4 story).
//!
//! Run with: `cargo run --release --example csv_lake`

use std::time::Instant;

use d3l::benchgen;
use d3l::prelude::*;
use d3l::table::csv;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Materialize a small generated lake as a directory of CSVs.
    let bench = benchgen::synthetic(24, 5);
    let dir = std::env::temp_dir().join(format!("d3l_csv_lake_{}", std::process::id()));
    bench.lake.save_dir(&dir)?;
    println!("wrote {} csv files to {}", bench.lake.len(), dir.display());

    // Reload from disk — this is all a downstream user needs to do.
    let lake = DataLake::load_dir(&dir)?;
    assert_eq!(lake.len(), bench.lake.len());
    println!(
        "reloaded {} tables ({} bytes of raw data)",
        lake.len(),
        lake.byte_size()
    );

    let build_start = Instant::now();
    let d3l = ShardedD3l::index_lake(&lake, D3lConfig::default());
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    println!(
        "indexed in {build_ms:.1} ms; index footprint {} bytes ({:.0}% of the raw data)",
        d3l.index_byte_size(),
        100.0 * d3l.index_byte_size() as f64 / lake.byte_size() as f64
    );

    // Query with an external target table parsed from CSV text.
    let target = csv::parse_csv(
        "wanted",
        "Practice Name,City,Postcode\n\
         Cullen Practice,Salford,M3 6AF\n\
         Holloway Surgery,Manchester,M1 3BE\n",
    )?;
    println!("\ntop 5 related tables for an external CSV target:");
    for m in d3l.query(&target, 5) {
        println!(
            "  {:<28} d={:.3} covers {} of {} target attrs",
            d3l.table_name(m.table),
            m.distance,
            m.covered_targets().len(),
            target.arity()
        );
    }

    // Persist the index: the profiling cost above is now paid for
    // good. A serving process cold-starts from the snapshot without
    // ever seeing the CSVs again.
    let index_dir = std::env::temp_dir().join(format!("d3l_csv_index_{}", std::process::id()));
    let (snapshot_bytes, _, _) = EngineHandle::create(&index_dir, d3l)?.disk_stats()?;
    // The in-memory engine is gone; only the snapshot remains.
    println!(
        "\npersisted the index to {} ({snapshot_bytes} bytes)",
        index_dir.display()
    );

    let load_start = Instant::now();
    let cold = EngineHandle::open(&index_dir)?.snapshot();
    let cold = &cold.engine;
    let load_ms = load_start.elapsed().as_secs_f64() * 1e3;
    println!(
        "cold start in {load_ms:.1} ms ({:.0}x faster than the {build_ms:.1} ms rebuild)",
        build_ms / load_ms.max(1e-9)
    );

    // The second query is answered by the freshly loaded engine —
    // same ranking, no re-profiling of the lake.
    println!("\ntop 5 from the cold-started engine:");
    for m in cold.query(&target, 5) {
        println!(
            "  {:<28} d={:.3} covers {} of {} target attrs",
            cold.table_name(m.table),
            m.distance,
            m.covered_targets().len(),
            target.arity()
        );
    }

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&index_dir).ok();
    Ok(())
}
