//! Join-path discovery: increasing target coverage with tables whose
//! direct relatedness signal is weak (§IV, Experiments 8–11).
//!
//! Generates a clean synthetic lake, picks a target, and shows how
//! Algorithm 3's SA-join paths pull in tables that populate target
//! attributes the top-k alone leaves uncovered — then materializes
//! one join with the relational operators to prove the rows line up.
//!
//! Run with: `cargo run --release --example join_discovery`

use std::collections::HashSet;

use d3l::benchgen;
use d3l::core::query::QueryOptions;
use d3l::prelude::*;

fn main() {
    let bench = benchgen::synthetic(96, 99);
    let d3l = D3l::index_lake(&bench.lake, D3lConfig::default());

    // Pick a wide target so there are attributes to cover.
    let tname = bench
        .pick_targets(20, 3)
        .into_iter()
        .max_by_key(|t| bench.lake.table_by_name(t).expect("member").arity())
        .expect("targets exist");
    let target = bench.lake.table_by_name(&tname).expect("member").clone();
    println!(
        "target {tname} (arity {}): {:?}",
        target.arity(),
        target
            .columns()
            .iter()
            .map(|c| c.name())
            .collect::<Vec<_>>()
    );

    let k = 3;
    let opts = QueryOptions {
        exclude: bench.lake.id_of(&tname),
        ..Default::default()
    };
    let top = d3l.query_with(&target, k, &opts);
    let top_ids: HashSet<TableId> = top.iter().map(|m| m.table).collect();

    let mut covered: HashSet<usize> = HashSet::new();
    println!("\ntop-{k} tables and their coverage:");
    for m in &top {
        covered.extend(m.covered_targets());
        println!(
            "  {:<32} covers {:?}",
            d3l.table_name(m.table),
            m.covered_targets()
                .iter()
                .map(|&c| target.columns()[c].name())
                .collect::<Vec<_>>()
        );
    }
    println!(
        "coverage without joins: {}/{} target attributes",
        covered.len(),
        target.arity()
    );

    // Algorithm 3: walk the SA-join graph from each top-k table.
    let graph = d3l.build_join_graph();
    let mut related = d3l.related_table_set(&target, 100);
    if let Some(id) = bench.lake.id_of(&tname) {
        related.remove(&id);
    }
    let wide = d3l.rank_all(&target, 100, &opts);
    let mut covered_j = covered.clone();
    println!("\njoin paths (new tables only):");
    let mut seen: HashSet<TableId> = HashSet::new();
    for m in &top {
        for path in d3l.find_join_paths(&graph, m.table, &top_ids, &related) {
            for &node in path.extensions() {
                if !seen.insert(node) {
                    continue;
                }
                if let Some(jm) = wide.iter().find(|x| x.table == node) {
                    let extra: Vec<&str> = jm
                        .covered_targets()
                        .difference(&covered)
                        .map(|&c| target.columns()[c].name())
                        .collect();
                    covered_j.extend(jm.covered_targets());
                    println!(
                        "  {} ⋈ {:<32} adds {:?}",
                        d3l.table_name(m.table),
                        d3l.table_name(node),
                        extra
                    );
                }
            }
        }
    }
    println!(
        "coverage with joins: {}/{} target attributes",
        covered_j.len(),
        target.arity()
    );

    // Materialize one join to prove the postulated inclusion
    // dependency holds on actual rows.
    if let Some(m) = top.first() {
        if let Some((other, edge)) = graph.neighbours(m.table).next() {
            let left = bench.lake.table(m.table);
            let right = bench.lake.table(other);
            let lcol = left.columns()[edge.from_attr.column as usize].name();
            let rcol = right.columns()[edge.to_attr.column as usize].name();
            let joined = left
                .hash_join(right, lcol, rcol, "materialized")
                .expect("join columns exist");
            println!(
                "\nmaterialized {}.{} ⋈ {}.{}: {} rows, {} columns (tset similarity {:.2})",
                left.name(),
                lcol,
                right.name(),
                rcol,
                joined.cardinality(),
                joined.arity(),
                edge.similarity
            );
        }
    }
}
