//! The experiment implementations — one function per paper artifact,
//! all on the one lake of [`crate::lake`]. Each prints the rows or
//! series the paper reports.

use std::time::Instant;

use d3l_benchgen::Benchmark;
use d3l_core::{D3l, D3lConfig, DistanceVector, Evidence};

use crate::eval::{join_eval_at_k, k_sweep, plain_eval_at_k, prf_at_k, recall_ceiling};
use crate::lake;
use crate::runner::{par_map, SystemKind, Systems};

/// Probes timed per answer size (Experiment 5) and followed along join
/// paths (Experiments 8/9): the first this-many of [`lake::probes`].
const SAMPLED_PROBES: usize = 10;

/// Answer sizes of Experiments 8/9. Algorithm 3 walks every SA-join
/// path of up to four tables from each top-k table, and the subject
/// columns of this lake join most tables of a domain, so a walk costs
/// ≈ 0.15 s a table here: k stays small.
const JOIN_KS: [usize; 3] = [5, 10, 20];

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Precision and recall rows of each series over the k sweep, averaged
/// over the probes, and under them the recall ceiling: the best recall
/// any ranking of k tables reaches.
fn pr_curves(systems: &Systems, series: &[(&str, SystemKind)]) {
    let probes = lake::probes(&systems.bench);
    let ks = k_sweep(systems.bench.truth.avg_answer_size());
    let width = series
        .iter()
        .map(|(label, _)| label.len())
        .fold(10, usize::max);
    println!(
        "{:<width$} {}",
        "series",
        ks.iter().map(|k| format!("{k:>6}")).collect::<String>()
    );
    for &(label, kind) in series {
        let mut p_row = String::new();
        let mut r_row = String::new();
        for &k in &ks {
            let pt = prf_at_k(systems, kind, &probes, k);
            p_row.push_str(&format!("{:>6.2}", pt.precision));
            r_row.push_str(&format!("{:>6.2}", pt.recall));
        }
        println!("{label:<width$} P {p_row}");
        println!("{:<width$} R {r_row}", "");
    }
    let truth = &systems.bench.truth;
    let ceiling: String = ks
        .iter()
        .map(|&k| format!("{:>6.2}", recall_ceiling(truth, &probes, k)))
        .collect();
    println!("{:<width$} R {ceiling}", "ceiling");
}

/// Experiment 1 / Figure 3: per-evidence precision and recall vs k,
/// against the aggregated framework.
pub fn exp1(systems: &Systems) {
    header("Experiment 1 (Fig. 3): individual evidence P/R");
    pr_curves(
        systems,
        &[
            ("N(name)", SystemKind::D3lSingle(Evidence::Name)),
            ("V(value)", SystemKind::D3lSingle(Evidence::Value)),
            ("F(format)", SystemKind::D3lSingle(Evidence::Format)),
            ("E(embed)", SystemKind::D3lSingle(Evidence::Embedding)),
            ("D(dist)", SystemKind::D3lSingle(Evidence::Distribution)),
            ("ALL", SystemKind::D3l),
        ],
    );
    println!("(paper: format alone is weakest; values strongest; ALL beats every single type)");
}

/// Experiment 2 / Figure 4: comparative precision and recall vs k for
/// D3L, TUS and Aurum, and TUS given the generator's vocabulary as its
/// knowledge base, labelled as the oracle it is.
pub fn exp2(systems: &Systems) {
    header("Experiment 2 (Fig. 4): P/R of D3L, TUS and Aurum");
    pr_curves(
        systems,
        &[
            ("D3L", SystemKind::D3l),
            ("TUS", SystemKind::Tus),
            ("Aurum", SystemKind::Aurum),
            ("TUS+KB (oracle)", SystemKind::TusKbOracle),
        ],
    );
    println!("(paper: D3L dominates both baselines, most on dirty data)");
    println!("(TUS+KB: its knowledge base is the generator's word pools, an answer key)");
}

/// Experiment 4 / Figure 6a: the time each system took to index the
/// lake. One point: a curve over lake sizes is the benchmark's to draw.
pub fn exp4(systems: &Systems) {
    header("Experiment 4 (Fig. 6a): indexing time");
    let d3l = systems.d3l_index_secs;
    let [tus, aurum] = systems.baselines().index_secs;
    println!(
        "{:>8} {:>10} {:>10} {:>10}  (seconds)",
        "tables", "D3L", "TUS", "Aurum"
    );
    println!(
        "{:>8} {d3l:>10.2} {tus:>10.2} {aurum:>10.2}",
        systems.bench.lake.len()
    );
    println!(
        "(paper: D3L indexes 4-6x faster than TUS, blaming YAGO; Aurum fastest on small lakes)"
    );
    println!("(TUS's KB is empty here: this times profiling and indexing, not a KB's lookups)");
}

/// Mean seconds one system takes to answer each of `probes` at `k`.
fn secs_per_query(systems: &Systems, kind: SystemKind, probes: &[String], k: usize) -> f64 {
    let t0 = Instant::now();
    for t in probes {
        std::hint::black_box(systems.query(kind, t, k));
    }
    t0.elapsed().as_secs_f64() / probes.len() as f64
}

/// Experiment 5 / Figure 6b: search time vs answer size.
pub fn exp5(systems: &Systems) {
    header("Experiment 5 (Fig. 6b): search time vs answer size");
    let mut probes = lake::probes(&systems.bench);
    probes.truncate(SAMPLED_PROBES);
    let ks = k_sweep(systems.bench.truth.avg_answer_size());
    // TUS and Aurum are indexed on first use: index them before the
    // clock starts, so no search time holds an index build.
    systems.baselines();
    println!(
        "{:>6} {:>12} {:>12}  (avg seconds per query)",
        "k", "D3L", "TUS"
    );
    for &k in &ks {
        let d3l = secs_per_query(systems, SystemKind::D3l, &probes, k);
        let tus = secs_per_query(systems, SystemKind::Tus, &probes, k);
        println!("{k:>6} {d3l:>12.4} {tus:>12.4}");
    }
    // Aurum's query model is k-independent; report the average alone,
    // as the paper does.
    let aurum = secs_per_query(systems, SystemKind::Aurum, &probes, ks[ks.len() - 1]);
    println!("Aurum avg search time (k-independent): {aurum:.4}s");
    println!("(paper: D3L beats TUS, blaming YAGO; with TUS's KB empty, this times search alone)");
}

/// Experiment 7 / Table II: index space overhead relative to raw lake
/// size.
pub fn exp7(systems: &Systems) {
    header("Experiment 7 (Table II): index space overhead (% of repository size)");
    let lake_bytes = systems.bench.lake.byte_size() as f64;
    let baselines = systems.baselines();
    let pct = |bytes: usize| bytes as f64 / lake_bytes * 100.0;
    println!("{:>8} {:>8} {:>8}", "D3L", "TUS", "Aurum");
    println!(
        "{:>7.0}% {:>7.0}% {:>7.0}%",
        pct(systems.d3l.index_byte_size()),
        pct(baselines.tus.index_byte_size()),
        pct(baselines.aurum.index_byte_size())
    );
    println!("(paper: D3L occupies more than TUS/Aurum — four indexes vs three)");
}

/// Experiments 8/9 / Figure 7: target coverage and attribute precision
/// with and without join paths.
pub fn exp8(systems: &Systems) {
    header("Experiments 8/9 (Fig. 7): coverage & attribute precision");
    let mut probes = lake::probes(&systems.bench);
    probes.truncate(SAMPLED_PROBES);
    println!(
        "{:<10} {}",
        "series",
        JOIN_KS
            .iter()
            .map(|k| format!("{k:>7}"))
            .collect::<String>()
    );
    let mut rows: Vec<(String, Vec<f64>)> = vec![
        ("D3L cov".into(), vec![]),
        ("D3L+J cov".into(), vec![]),
        ("D3L ap".into(), vec![]),
        ("D3L+J ap".into(), vec![]),
        ("Aur cov".into(), vec![]),
        ("Aur+J cov".into(), vec![]),
        ("Aur ap".into(), vec![]),
        ("Aur+J ap".into(), vec![]),
        ("TUS cov".into(), vec![]),
        ("TUS ap".into(), vec![]),
    ];
    for k in JOIN_KS {
        let d = join_eval_at_k(systems, false, &probes, k);
        let a = join_eval_at_k(systems, true, &probes, k);
        let t = plain_eval_at_k(systems, SystemKind::Tus, &probes, k);
        let vals = [
            d.coverage,
            d.coverage_j,
            d.attr_precision,
            d.attr_precision_j,
            a.coverage,
            a.coverage_j,
            a.attr_precision,
            a.attr_precision_j,
            t.coverage,
            t.attr_precision,
        ];
        for (row, v) in rows.iter_mut().zip(vals) {
            row.1.push(v);
        }
    }
    for (label, vals) in rows {
        println!(
            "{label:<10} {}",
            vals.iter().map(|v| format!("{v:>7.2}")).collect::<String>()
        );
    }
    println!(
        "(paper: +J lifts coverage substantially; D3L+J attribute precision stays at or above D3L)"
    );
}

/// §III-D: train the Eq. 3 evidence weights by logistic regression on
/// a clean lake disjoint from the evaluation lake (`synthetic(300,
/// 11)`), test on the probes' pairs (paper: ~89% accuracy) beside the
/// pairs' related share, and rank the probes with the trained weights.
pub fn weights(systems: &Systems) {
    header("Evidence-weight training (§III-D)");
    let train = d3l_benchgen::synthetic(300, lake::SEED);
    let train_d3l = D3l::index_lake(&train.lake, D3lConfig::default());
    let train_targets = train.pick_targets(20, lake::SEED);
    let (train_x, train_y) = pair_vectors(&train_d3l, &train, &train_targets);
    let probes = lake::probes(&systems.bench);
    let (test_x, test_y) = pair_vectors(&systems.d3l, &systems.bench, &probes);
    let (w, model) = d3l_core::weights::train_evidence_weights(&train_x, &train_y);
    let correct = test_x
        .iter()
        .zip(&test_y)
        .filter(|(v, &y)| model.predict(&v.0) == y)
        .count();
    println!(
        "trained weights [N V F E D] = {:?}",
        w.0.map(|x| (x * 100.0).round() / 100.0)
    );
    println!(
        "test accuracy on the probes' pairs: {:.1}% over {} pairs (paper: ~89%)",
        100.0 * correct as f64 / test_x.len().max(1) as f64,
        test_x.len()
    );
    println!(
        "related share of those pairs (accuracy's base rate): {:.1}%",
        100.0 * test_y.iter().filter(|&&y| y).count() as f64 / test_y.len().max(1) as f64
    );
    println!(
        "shipped defaults: {:?}",
        d3l_core::EvidenceWeights::trained_default().0
    );
    println!(
        "precision@{} with trained weights : {:.4}",
        lake::K,
        mean_precision(systems, Some(w), None)
    );
}

/// Labelled (distance-vector, related) pairs: each target's wide D3L
/// ranking, labelled with the ground truth.
fn pair_vectors(
    d3l: &D3l,
    bench: &Benchmark,
    targets: &[String],
) -> (Vec<DistanceVector>, Vec<bool>) {
    let per_target = par_map(targets, |tname| {
        let target = bench.lake.table_by_name(tname).expect("member");
        let opts = d3l_core::query::QueryOptions {
            exclude: bench.lake.id_of(tname),
            ..Default::default()
        };
        d3l.rank_all(target, 100, &opts)
            .into_iter()
            .map(|m| {
                let related = bench.truth.tables_related(tname, d3l.table_name(m.table));
                (m.vector, related)
            })
            .collect::<Vec<_>>()
    });
    per_target.into_iter().flatten().unzip()
}

/// §III-C: how often the shipped subject-attribute model — the one
/// Algorithm 2's guards and SA-join discovery run — picks the entity
/// column, over the tables whose projection kept one.
pub fn subject(systems: &Systems) {
    let bench = &systems.bench;
    header("Subject-attribute detection (§III-C)");
    let (mut right, mut total) = (0usize, 0usize);
    for (_, table) in bench.lake.iter() {
        let entity = (0..table.arity()).find(|&i| {
            bench
                .truth
                .kind_of(table.name(), table.columns()[i].name())
                .is_some_and(|k| k.starts_with("entity:"))
        });
        let Some(entity) = entity else { continue };
        total += 1;
        right += usize::from(d3l_ml::subject_attribute(table) == Some(entity));
    }
    println!(
        "default model: subject is the entity column in {:.1}% of {total} tables (paper: ~89%)",
        100.0 * right as f64 / total.max(1) as f64
    );
}

/// D3L's mean precision at the benchmark's k over the probes, under
/// `weights` (the shipped ones when `None`) and `evidence` (all five
/// types when `None`).
fn mean_precision(
    systems: &Systems,
    weights: Option<d3l_core::EvidenceWeights>,
    evidence: Option<Evidence>,
) -> f64 {
    let probes = lake::probes(&systems.bench);
    let truth = &systems.bench.truth;
    let per_probe = par_map(&probes, |t| {
        let target = systems.bench.lake.table_by_name(t).expect("member");
        let opts = d3l_core::query::QueryOptions {
            exclude: systems.bench.lake.id_of(t),
            weights,
            evidence,
            ..Default::default()
        };
        let res = systems.d3l.query_with(target, lake::K, &opts);
        let rel: Vec<bool> = res
            .iter()
            .map(|m| truth.tables_related(t, systems.d3l.table_name(m.table)))
            .collect();
        d3l_core::metrics::precision_at_k(&rel)
    });
    per_probe.iter().sum::<f64>() / probes.len() as f64
}

/// Ablation: the shipped Eq. 3 weights vs uniform weights vs a
/// max-score-style single-best-evidence ranking, at the benchmark's k.
pub fn ablation_weights(systems: &Systems) {
    header("Ablation: weighting schemes");
    let k = lake::K;
    println!(
        "precision@{k} with shipped weights : {:.4}",
        mean_precision(systems, None, None)
    );
    println!(
        "precision@{k} with uniform weights : {:.4}",
        mean_precision(systems, Some(d3l_core::EvidenceWeights::uniform()), None)
    );
    println!(
        "precision@{k} value-evidence only  : {:.4} (max-score-style single signal)",
        mean_precision(systems, None, Some(Evidence::Value))
    );
}

/// Ablation: fine-grained tokens vs whole values on dirty data —
/// separability of related vs unrelated attribute pairs among the
/// first 40 probes' tables.
pub fn ablation_granularity(systems: &Systems) {
    let bench = &systems.bench;
    header("Ablation: fine-grained tokens vs whole values");
    let mut rel_tok = Vec::new();
    let mut unrel_tok = Vec::new();
    let mut rel_whole = Vec::new();
    let mut unrel_whole = Vec::new();
    // The exact token distance is defined on built profiles (an index
    // keeps no token set), so the tables are profiled here, with the
    // engine's own embedder.
    let q = systems.d3l.config().q;
    let e = systems.d3l.embedder();
    let tables: Vec<_> = lake::probes(bench)
        .iter()
        .take(40)
        .map(|name| {
            let t = bench.lake.table_by_name(name).expect("member");
            (t, d3l_core::profile::profile_table(t, q, e))
        })
        .collect();
    for (i, (ta, profiles_a)) in tables.iter().enumerate() {
        for (tb, profiles_b) in tables.iter().skip(i + 1) {
            for (col_a, pa) in ta.columns().iter().zip(profiles_a) {
                for (col_b, pb) in tb.columns().iter().zip(profiles_b) {
                    if col_a.column_type().is_numeric() || col_b.column_type().is_numeric() {
                        continue;
                    }
                    let tok = d3l_core::distance::value_distance(pa, pb);
                    let wa = d3l_baselines::common::whole_value_set(col_a);
                    let wb = d3l_baselines::common::whole_value_set(col_b);
                    let wa = d3l_lsh::TokenSet::from_strs(wa.iter().map(String::as_str));
                    let wb = d3l_lsh::TokenSet::from_strs(wb.iter().map(String::as_str));
                    let whole = 1.0 - d3l_lsh::minhash::exact_jaccard(&wa, &wb);
                    let related =
                        bench
                            .truth
                            .attrs_related(ta.name(), col_a.name(), tb.name(), col_b.name());
                    if related {
                        rel_tok.push(tok);
                        rel_whole.push(whole);
                    } else {
                        unrel_tok.push(tok);
                        unrel_whole.push(whole);
                    }
                }
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "related pairs:   token distance {:.3} vs whole-value distance {:.3}",
        mean(&rel_tok),
        mean(&rel_whole)
    );
    println!(
        "unrelated pairs: token distance {:.3} vs whole-value distance {:.3}",
        mean(&unrel_tok),
        mean(&unrel_whole)
    );
    let sep_tok = mean(&unrel_tok) - mean(&rel_tok);
    let sep_whole = mean(&unrel_whole) - mean(&rel_whole);
    println!(
        "separability (unrelated - related): tokens {sep_tok:.3} vs whole values {sep_whole:.3}"
    );
    println!("(paper §III-A: finer-grained evidence reduces the impact of dirty data)");
}
