//! Cross-system integration: the three systems answer the same
//! queries and exhibit the relative behaviours the paper reports.

use d3l::benchgen;
use d3l::core::query::QueryOptions;
use d3l::prelude::*;
use d3l_baselines::{Aurum, AurumConfig, Tus, TusConfig};

fn embedder() -> SemanticEmbedder {
    SemanticEmbedder::new(benchgen::vocab::domain_lexicon(32))
}

fn precision(relevant: &[bool]) -> f64 {
    if relevant.is_empty() {
        return 0.0;
    }
    relevant.iter().filter(|&&r| r).count() as f64 / relevant.len() as f64
}

#[test]
fn all_three_systems_find_related_tables_on_clean_data() {
    let bench = benchgen::synthetic(64, 61);
    let cfg = D3lConfig {
        embed_dim: 32,
        ..D3lConfig::fast()
    };
    let d3l = ShardedD3l::index_lake_with(&bench.lake, cfg, embedder());
    let tus = Tus::index_lake(
        &bench.lake,
        benchgen::vocab::kb_classes(),
        embedder(),
        TusConfig::fast(),
    );
    let aurum = Aurum::index_lake(&bench.lake, embedder(), AurumConfig::fast());

    let targets = bench.pick_targets(6, 1);
    let k = 5;
    let (mut pd, mut pt, mut pa) = (0.0, 0.0, 0.0);
    for t in &targets {
        let table = bench.lake.table_by_name(t).unwrap();
        let id = bench.lake.id_of(t).unwrap();
        let rel = |names: Vec<String>| {
            let flags: Vec<bool> = names
                .iter()
                .map(|n| bench.truth.tables_related(t, n))
                .collect();
            precision(&flags)
        };
        let opts = QueryOptions {
            exclude: Some(id),
            ..Default::default()
        };
        pd += rel(d3l
            .query_with(table, k, &opts)
            .iter()
            .map(|m| d3l.table_name(m.table).to_string())
            .collect());
        pt += rel(tus
            .query(table, k, Some(id))
            .iter()
            .map(|m| tus.table_name(m.table).to_string())
            .collect());
        pa += rel(aurum
            .query_member(id, table.arity(), k)
            .iter()
            .map(|m| aurum.table_name(m.table).to_string())
            .collect());
    }
    let n = targets.len() as f64;
    for (label, p) in [("d3l", pd / n), ("tus", pt / n), ("aurum", pa / n)] {
        assert!(p > 0.35, "{label} precision@{k} = {p}");
    }
}

#[test]
fn d3l_degrades_less_than_baselines_on_dirty_data() {
    // The paper's central comparative claim (Experiment 3): D3L's
    // fine-grained features survive representation inconsistency that
    // breaks whole-value matching.
    let clean = benchgen::synthetic(64, 62);
    let dirty = benchgen::smaller_real(64, 62);
    let k = 5;
    let run = |bench: &benchgen::Benchmark| -> (f64, f64) {
        let cfg = D3lConfig {
            embed_dim: 32,
            ..D3lConfig::fast()
        };
        let d3l = ShardedD3l::index_lake_with(&bench.lake, cfg, embedder());
        let tus = Tus::index_lake(
            &bench.lake,
            benchgen::vocab::kb_classes(),
            embedder(),
            TusConfig::fast(),
        );
        let targets = bench.pick_targets(6, 3);
        let (mut pd, mut pt) = (0.0, 0.0);
        for t in &targets {
            let table = bench.lake.table_by_name(t).unwrap();
            let id = bench.lake.id_of(t).unwrap();
            let opts = QueryOptions {
                exclude: Some(id),
                ..Default::default()
            };
            let flags: Vec<bool> = d3l
                .query_with(table, k, &opts)
                .iter()
                .map(|m| bench.truth.tables_related(t, d3l.table_name(m.table)))
                .collect();
            pd += precision(&flags);
            let flags: Vec<bool> = tus
                .query(table, k, Some(id))
                .iter()
                .map(|m| bench.truth.tables_related(t, tus.table_name(m.table)))
                .collect();
            pt += precision(&flags);
        }
        (pd / targets.len() as f64, pt / targets.len() as f64)
    };
    let (d3l_clean, tus_clean) = run(&clean);
    let (d3l_dirty, tus_dirty) = run(&dirty);
    let d3l_drop = d3l_clean - d3l_dirty;
    let tus_drop = tus_clean - tus_dirty;
    assert!(
        d3l_drop <= tus_drop + 0.15,
        "D3L drop {d3l_drop:.2} should not exceed TUS drop {tus_drop:.2} by much"
    );
    assert!(
        d3l_dirty >= tus_dirty - 0.05,
        "on dirty data D3L ({d3l_dirty:.2}) >= TUS ({tus_dirty:.2})"
    );
}

#[test]
fn aurum_joins_are_less_precise_than_sa_joins() {
    // §V-E: Aurum's PK/FK joins "are built on more than just
    // uniqueness of values" in D3L's case. Check Aurum offers join
    // extensions at all and they can leave the group (false
    // positives), while D3L's SA-joins are subject-anchored.
    let bench = benchgen::synthetic(96, 63);
    let aurum = Aurum::index_lake(&bench.lake, embedder(), AurumConfig::fast());
    let t = &bench.pick_targets(1, 4)[0];
    let id = bench.lake.id_of(t).unwrap();
    let top: Vec<TableId> = aurum
        .query_member(id, bench.lake.table(id).arity(), 5)
        .iter()
        .map(|m| m.table)
        .collect();
    let ext = aurum.join_extensions(&top);
    // Not asserting emptiness either way — just that extensions, when
    // present, are well-formed and leave the top-k.
    for (from, to) in ext {
        assert!(top.contains(&from));
        assert!(!top.contains(&to));
    }
}

#[test]
fn tus_is_blind_to_numeric_only_targets() {
    // Experiment 6's flip side: numeric attributes are "completely
    // ignored by TUS".
    let mut lake = DataLake::new();
    lake.add(
        Table::from_rows(
            "numbers_a",
            &["Count", "Total"],
            &[vec!["1".into(), "10".into()], vec!["2".into(), "20".into()]],
        )
        .unwrap(),
    )
    .unwrap();
    let tus = Tus::index_lake(
        &lake,
        benchgen::vocab::kb_classes(),
        embedder(),
        TusConfig::fast(),
    );
    assert_eq!(tus.attr_count(), 0);
    let target = Table::from_rows(
        "numbers_q",
        &["Count", "Total"],
        &[vec!["1".into(), "10".into()]],
    )
    .unwrap();
    assert!(tus.query(&target, 5, None).is_empty());

    // D3L still answers through N/F/D evidence.
    let d3l = ShardedD3l::index_lake(&lake, D3lConfig::fast());
    assert!(!d3l.query(&target, 5).is_empty());
}
