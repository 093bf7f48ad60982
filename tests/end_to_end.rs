//! End-to-end integration: generation → indexing → discovery →
//! join-path extension → evaluation, across all workspace crates.

use std::collections::HashSet;

use d3l::benchgen;
use d3l::core::metrics::{precision_at_k, recall_at_k};
use d3l::core::query::QueryOptions;
use d3l::prelude::*;

fn indexed(tables: usize, seed: u64, dirty: bool) -> (benchgen::Benchmark, ShardedD3l) {
    let bench = if dirty {
        benchgen::smaller_real(tables, seed)
    } else {
        benchgen::synthetic(tables, seed)
    };
    let embedder = SemanticEmbedder::new(benchgen::vocab::domain_lexicon(32));
    let cfg = D3lConfig {
        embed_dim: 32,
        ..D3lConfig::fast()
    };
    let d3l = ShardedD3l::index_lake_with(&bench.lake, cfg, embedder);
    (bench, d3l)
}

#[test]
fn discovery_beats_chance_on_clean_data() {
    let (bench, d3l) = indexed(64, 41, false);
    let targets = bench.pick_targets(8, 1);
    let k = 7; // group answer size at 64 tables / 8 domains
    let mut p = 0.0;
    let mut r = 0.0;
    for t in &targets {
        let target = bench.lake.table_by_name(t).unwrap();
        let opts = QueryOptions {
            exclude: bench.lake.id_of(t),
            ..Default::default()
        };
        let res = d3l.query_with(target, k, &opts);
        let rel: Vec<bool> = res
            .iter()
            .map(|m| bench.truth.tables_related(t, d3l.table_name(m.table)))
            .collect();
        p += precision_at_k(&rel);
        r += recall_at_k(&rel, bench.truth.answer_set(t).len());
    }
    p /= targets.len() as f64;
    r /= targets.len() as f64;
    assert!(p > 0.6, "precision@{k} = {p}");
    assert!(r > 0.5, "recall@{k} = {r}");
}

#[test]
fn discovery_survives_dirty_data() {
    let (bench, d3l) = indexed(64, 42, true);
    let targets = bench.pick_targets(6, 2);
    let mut p = 0.0;
    for t in &targets {
        let target = bench.lake.table_by_name(t).unwrap();
        let opts = QueryOptions {
            exclude: bench.lake.id_of(t),
            ..Default::default()
        };
        let res = d3l.query_with(target, 5, &opts);
        let rel: Vec<bool> = res
            .iter()
            .map(|m| bench.truth.tables_related(t, d3l.table_name(m.table)))
            .collect();
        p += precision_at_k(&rel);
    }
    p /= targets.len() as f64;
    assert!(p > 0.4, "dirty precision@5 = {p}");
}

#[test]
fn self_query_ranks_self_first_when_not_excluded() {
    let (bench, d3l) = indexed(48, 43, false);
    let t = &bench.pick_targets(1, 3)[0];
    let target = bench.lake.table_by_name(t).unwrap();
    let res = d3l.query(target, 1);
    assert_eq!(
        d3l.table_name(res[0].table),
        t,
        "a table is most related to itself"
    );
}

#[test]
fn join_paths_extend_coverage() {
    let (bench, d3l) = indexed(96, 44, false);
    let graph = d3l.build_join_graph();
    assert!(
        graph.edge_count() > 0,
        "shared entity pools must create SA-join edges"
    );

    let mut improved = 0usize;
    let targets = bench.pick_targets(6, 4);
    for tname in &targets {
        let target = bench.lake.table_by_name(tname).unwrap();
        let opts = QueryOptions {
            exclude: bench.lake.id_of(tname),
            ..Default::default()
        };
        let top = d3l.query_with(target, 3, &opts);
        let top_ids: HashSet<TableId> = top.iter().map(|m| m.table).collect();
        let mut covered: HashSet<usize> = HashSet::new();
        for m in &top {
            covered.extend(m.covered_targets());
        }
        let mut related = d3l.related_table_set(target, 60);
        if let Some(id) = bench.lake.id_of(tname) {
            related.remove(&id);
        }
        let wide = d3l.rank_all(target, 60, &opts);
        let mut covered_j = covered.clone();
        for m in &top {
            for path in d3l.find_join_paths(&graph, m.table, &top_ids, &related) {
                for node in path.extensions() {
                    if let Some(jm) = wide.iter().find(|x| x.table == *node) {
                        covered_j.extend(jm.covered_targets());
                    }
                }
            }
        }
        assert!(covered_j.len() >= covered.len());
        if covered_j.len() > covered.len() {
            improved += 1;
        }
    }
    assert!(
        improved > 0,
        "join paths should add coverage for at least one target"
    );
}

#[test]
fn join_paths_respect_algorithm3_invariants() {
    let (bench, d3l) = indexed(64, 45, false);
    let graph = d3l.build_join_graph();
    let tname = &bench.pick_targets(1, 5)[0];
    let target = bench.lake.table_by_name(tname).unwrap();
    let related = d3l.related_table_set(target, 60);
    let top: HashSet<TableId> = related.iter().copied().take(4).collect();
    for &start in &top {
        for path in d3l.find_join_paths(&graph, start, &top, &related) {
            assert_eq!(path.nodes[0], start);
            let distinct: HashSet<_> = path.nodes.iter().collect();
            assert_eq!(distinct.len(), path.nodes.len(), "paths are acyclic");
            assert!(path.len() <= d3l::core::join::MAX_JOIN_DEPTH);
            for node in path.extensions() {
                assert!(!top.contains(node), "interior nodes leave the top-k");
                assert!(
                    related.contains(node),
                    "interior nodes relate to the target"
                );
                // consecutive nodes are SA-joinable
            }
            for w in path.nodes.windows(2) {
                assert!(graph.edge(w[0], w[1]).is_some(), "path follows graph edges");
            }
        }
    }
}

#[test]
fn csv_round_trip_preserves_discovery() {
    let (bench, d3l) = indexed(32, 46, false);
    let dir = std::env::temp_dir().join(format!("d3l_it_{}", std::process::id()));
    bench.lake.save_dir(&dir).unwrap();
    let reloaded = DataLake::load_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(reloaded.len(), bench.lake.len());

    let embedder = SemanticEmbedder::new(benchgen::vocab::domain_lexicon(32));
    let cfg = D3lConfig {
        embed_dim: 32,
        ..D3lConfig::fast()
    };
    let d3l2 = ShardedD3l::index_lake_with(&reloaded, cfg, embedder);
    let t = &bench.pick_targets(1, 6)[0];
    let target = bench.lake.table_by_name(t).unwrap();
    let a: Vec<String> = d3l
        .query(target, 5)
        .iter()
        .map(|m| d3l.table_name(m.table).to_string())
        .collect();
    let b: Vec<String> = d3l2
        .query(target, 5)
        .iter()
        .map(|m| d3l2.table_name(m.table).to_string())
        .collect();
    assert_eq!(a, b, "discovery is identical after a CSV round trip");
}

#[test]
fn evidence_weights_trainable_from_ground_truth() {
    let (bench, d3l) = indexed(64, 47, false);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for t in bench.pick_targets(8, 7) {
        let target = bench.lake.table_by_name(&t).unwrap();
        let opts = QueryOptions {
            exclude: bench.lake.id_of(&t),
            ..Default::default()
        };
        for m in d3l.rank_all(target, 40, &opts) {
            xs.push(m.vector);
            ys.push(bench.truth.tables_related(&t, d3l.table_name(m.table)));
        }
    }
    assert!(
        ys.iter().any(|&y| y) && ys.iter().any(|&y| !y),
        "need both classes"
    );
    let (w, model) = d3l::core::weights::train_evidence_weights(&xs, &ys);
    assert!(w.0.iter().all(|&x| x > 0.0));
    let correct = xs
        .iter()
        .zip(&ys)
        .filter(|(x, &y)| model.predict(&x.0) == y)
        .count();
    assert!(
        correct as f64 / xs.len() as f64 > 0.75,
        "training accuracy {}",
        correct as f64 / xs.len() as f64
    );
}

#[test]
fn subject_attributes_anchor_join_edges() {
    let (bench, d3l) = indexed(48, 48, false);
    let graph = d3l.build_join_graph();
    for a in bench.lake.ids() {
        for (b, edge) in graph.neighbours(a) {
            // Condition (ii) of SA-joinability: one endpoint is its
            // table's subject attribute.
            let sa = d3l.subject_of(a);
            let sb = d3l.subject_of(b);
            assert!(
                sa == Some(edge.from_attr)
                    || sb == Some(edge.to_attr)
                    || sa == Some(edge.to_attr)
                    || sb == Some(edge.from_attr),
                "edge {a}→{b} lacks a subject endpoint"
            );
        }
    }
}
