//! Persistent index store integration tests: the amortization story
//! end to end. A snapshot-loaded engine must be indistinguishable
//! from the engine that wrote it, and incremental maintenance
//! (`add_table` → delta segments → `compact` → fresh load) must land
//! on exactly the engine a from-scratch rebuild of the same lake
//! produces.

use d3l::benchgen;
use d3l::core::query::QueryOptions;
use d3l::core::IndexStore;
use d3l::prelude::*;

fn build(lake: &DataLake) -> D3l {
    let embedder = SemanticEmbedder::new(benchgen::vocab::domain_lexicon(32));
    let cfg = D3lConfig {
        embed_dim: 32,
        ..D3lConfig::fast()
    };
    D3l::index_lake_with(lake, cfg, embedder)
}

fn assert_identical(a: &[TableMatch], b: &[TableMatch], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: ranking lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.table, y.table, "{ctx}: table at rank {i}");
        assert_eq!(
            x.distance.to_bits(),
            y.distance.to_bits(),
            "{ctx}: distance bits at rank {i}"
        );
        assert_eq!(
            x.alignments.len(),
            y.alignments.len(),
            "{ctx}: alignments at rank {i}"
        );
    }
}

fn assert_query_parity(bench: &benchgen::Benchmark, a: &D3l, b: &D3l, ctx: &str) {
    assert_eq!(a.byte_size(), b.byte_size(), "{ctx}: memory footprints");
    let a = ShardedD3l::from_monolith(a.clone());
    let b = ShardedD3l::from_monolith(b.clone());
    for tname in bench.pick_targets(4, 13) {
        let target = bench.lake.table_by_name(&tname).unwrap();
        let opts = QueryOptions {
            exclude: bench.lake.id_of(&tname),
            ..Default::default()
        };
        assert_identical(
            &a.rank_all(target, 40, &opts),
            &b.rank_all(target, 40, &opts),
            &format!("{ctx}: {tname}"),
        );
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("d3l_store_it_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn snapshot_cold_start_serves_identically_at_benchmark_scale() {
    let bench = benchgen::smaller_real(48, 31);
    let d3l = build(&bench.lake);
    let dir = temp_dir("cold");
    let store = IndexStore::create(&dir, &d3l).unwrap();
    let (base_bytes, delta_bytes) = store.disk_bytes().unwrap();
    assert!(base_bytes > 0);
    assert_eq!(delta_bytes, 0);

    let (_, loaded) = IndexStore::open(&dir).unwrap();
    assert_query_parity(&bench, &d3l, &loaded, "cold start");
    // The loaded engine snapshots back to the identical bytes.
    assert_eq!(d3l.to_snapshot_bytes(), loaded.to_snapshot_bytes());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn incremental_adds_compact_to_a_rebuild_identical_engine() {
    // Split a generated lake: index the first 40 tables, then feed the
    // remaining tables through the store's delta path.
    let bench = benchgen::smaller_real(48, 37);
    let all: Vec<Table> = bench.lake.iter().map(|(_, t)| t.clone()).collect();
    let (head, tail) = all.split_at(40);

    let mut partial = DataLake::new();
    for t in head {
        partial.add(t.clone()).unwrap();
    }
    let mut d3l = build(&partial);
    let dir = temp_dir("incr");
    let mut store = IndexStore::create(&dir, &d3l).unwrap();
    for t in tail {
        store.append_add(&mut d3l, t).unwrap();
    }
    assert_eq!(store.delta_count().unwrap(), tail.len());

    // Delta replay on a fresh open reproduces the live engine.
    let (_, replayed) = IndexStore::open(&dir).unwrap();
    assert_query_parity(&bench, &d3l, &replayed, "delta replay");

    // Compact, reload, and compare against a from-scratch rebuild of
    // the full lake: same footprint, bit-identical rankings.
    store.compact(&d3l).unwrap();
    assert_eq!(store.delta_count().unwrap(), 0);
    let (_, compacted) = IndexStore::open(&dir).unwrap();
    let rebuilt = build(&bench.lake);
    assert_query_parity(&bench, &rebuilt, &compacted, "compact vs rebuild");
    assert_eq!(
        rebuilt.to_snapshot_bytes(),
        compacted.to_snapshot_bytes(),
        "compacted store must be byte-identical to a from-scratch rebuild"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn removal_survives_replay_and_compaction() {
    let bench = benchgen::smaller_real(32, 41);
    let mut d3l = build(&bench.lake);
    let dir = temp_dir("rm");
    let mut store = IndexStore::create(&dir, &d3l).unwrap();

    let victim = TableId(3);
    let victim_name = d3l.table_name(victim).to_string();
    assert!(store.append_remove(&mut d3l, victim).unwrap());
    assert_eq!(d3l.live_table_count(), bench.lake.len() - 1);
    // Removal swap-compacts the forests' signature arenas, so the live
    // engine's slot order is no longer id order while a reopened
    // engine's is; the snapshot must not tell them apart.
    let live_bytes = d3l.to_snapshot_bytes();

    for (ctx, engine) in [
        ("replay", IndexStore::open(&dir).unwrap().1),
        ("compacted", {
            store.compact(&d3l).unwrap();
            IndexStore::open(&dir).unwrap().1
        }),
    ] {
        assert!(engine.is_removed(victim), "{ctx}: tombstone lost");
        assert!(
            engine.to_snapshot_bytes() == live_bytes,
            "{ctx}: snapshot bytes depend on arena history"
        );
        assert!(
            !engine.name_to_id().contains_key(victim_name.as_str()),
            "{ctx}: removed name resolves"
        );
        // The removed table never appears in any ranking.
        let engine = ShardedD3l::from_monolith(engine);
        for tname in bench.pick_targets(4, 17) {
            let target = bench.lake.table_by_name(&tname).unwrap();
            let all = engine.rank_all(target, 40, &QueryOptions::default());
            assert!(
                all.iter().all(|m| m.table != victim),
                "{ctx}: tombstoned table ranked for {tname}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
