//! Unionability discovery over a generated open-data lake.
//!
//! Generates a Smaller-Real-style dirty repository (renamed columns,
//! abbreviated/reordered values, noise metrics), indexes it, and runs
//! discovery for a handful of targets — reporting precision/recall
//! against the recorded ground truth, the workload of the paper's
//! Experiment 3.
//!
//! Run with: `cargo run --release --example union_search`

use d3l::benchgen;
use d3l::core::metrics::{precision_at_k, recall_at_k};
use d3l::core::query::QueryOptions;
use d3l::prelude::*;

fn main() {
    let tables = 120;
    println!("generating a dirty open-data lake of {tables} tables ...");
    let bench = benchgen::smaller_real(tables, 2026);
    println!(
        "  avg ground-truth answer size = {:.1}",
        bench.truth.avg_answer_size()
    );

    // The E evidence embeds words by their character n-grams, so
    // abbreviated and misspelled values still land near their sources.
    let d3l = D3l::index_lake(&bench.lake, D3lConfig::default());

    let k = 10;
    let targets = bench.pick_targets(5, 7);

    // One batched call answers the whole workload: each target is
    // profiled once and the batch fans out over the query threads,
    // with results identical to per-target `query_with` calls.
    let tables: Vec<Table> = targets
        .iter()
        .map(|t| bench.lake.table_by_name(t).expect("lake member").clone())
        .collect();
    let opts: Vec<QueryOptions> = targets
        .iter()
        .map(|t| QueryOptions {
            exclude: bench.lake.id_of(t),
            ..Default::default()
        })
        .collect();
    let results = d3l.query_batch_with(&tables, k, &opts);

    let mut p_sum = 0.0;
    let mut r_sum = 0.0;
    for (tname, result) in targets.iter().zip(&results) {
        let relevant: Vec<bool> = result
            .iter()
            .map(|m| bench.truth.tables_related(tname, d3l.table_name(m.table)))
            .collect();
        let p = precision_at_k(&relevant);
        let r = recall_at_k(&relevant, bench.truth.answer_set(tname).len());
        p_sum += p;
        r_sum += r;

        println!("\ntarget {tname}: precision@{k}={p:.2} recall@{k}={r:.2}");
        for (m, rel) in result.iter().zip(&relevant).take(5) {
            println!(
                "  {:<34} d={:.3} covered {} target attrs {}",
                d3l.table_name(m.table),
                m.distance,
                m.covered_targets().len(),
                if *rel { "[related]" } else { "[not related]" }
            );
        }
    }
    println!(
        "\nmean over {} targets: precision@{k}={:.2} recall@{k}={:.2}",
        targets.len(),
        p_sum / targets.len() as f64,
        r_sum / targets.len() as f64
    );
}
