//! The benchmark's quality gate, reproduced in-process: the pinned
//! dirty 2 000-table lake (`smaller_real(2000, 11)`, the lake of the
//! benchmark's `build-dirty2k` workload) written as CSV files and read
//! back, indexed with the default configuration, and its 100 probes
//! asked at k = 60. Every literal below is what the benchmark reports
//! for that workload at seed 11; if one moves, the two evaluators no
//! longer judge the same thing.

use d3l_bench::eval::prf_at_k;
use d3l_bench::lake;
use d3l_bench::runner::{SystemKind, Systems};
use d3l_table::csv;

/// FNV-1a, 64 bit, length-delimited writes: the benchmark's digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = (self.0 ^ bytes.len() as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn the_pinned_lake_scores_what_the_benchmark_gates() {
    let generated = lake::generated();
    let systems = Systems::build(lake::reloaded(generated.clone()));
    let lake = &systems.bench.lake;

    // The benchmark's lake digest: generation order, names and CSV text.
    let mut digest = Fnv::new();
    for (_, t) in generated.lake.iter() {
        let loaded = lake.table_by_name(t.name()).expect("every table read back");
        digest.write(t.name().as_bytes());
        digest.write(csv::to_csv(loaded).as_bytes());
    }
    assert_eq!(digest.0, 0x205a_83ac_4653_f087, "lake digest");

    for (_, t) in lake.iter() {
        assert_eq!(
            lake.id_of(t.name()),
            systems.d3l.table_id(t.name()),
            "{}",
            t.name()
        );
    }

    let probes = lake::probes(&systems.bench);
    let point = prf_at_k(&systems, SystemKind::D3l, &probes, 60);
    assert!(
        (point.precision - 0.7735).abs() < 1e-12,
        "precision {}",
        point.precision
    );
    assert!(
        (point.recall - 0.18656047873284196).abs() < 1e-12,
        "recall {}",
        point.recall
    );
    let mut ranking = Fnv::new();
    for answer in systems.query_batch(SystemKind::D3l, &probes, 60) {
        for r in &answer {
            ranking.write(r.name.as_bytes());
        }
        ranking.write(b"|");
    }
    assert_eq!(
        ranking.0 & ((1 << 48) - 1),
        108540996872531,
        "ranking digest"
    );
}

/// The subject column an index build scores from the cell counts its
/// profiler took is, on every table of the pinned lake, the one
/// `d3l_ml::subject_attribute` finds by walking the table.
#[test]
fn every_built_subject_is_the_tables_own() {
    let bench = lake::pinned();
    let d3l = d3l_core::D3l::index_lake(&bench.lake, d3l_core::D3lConfig::default());
    let mut with_subject = 0;
    for (id, table) in bench.lake.iter() {
        let built = d3l.subject_of(id).map(|attr| attr.column as usize);
        assert_eq!(built, d3l_ml::subject_attribute(table), "{}", table.name());
        with_subject += usize::from(built.is_some());
    }
    assert!(with_subject > 1000, "{with_subject} tables with a subject");
}
