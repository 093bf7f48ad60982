//! The metric catalogue — names, units, directions, bounds — and the
//! two things printed from it: `BENCHMARK.json` and a run's result.

use std::collections::BTreeMap;

use crate::run::Value;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// get worse (0 for per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// How long one run measures (`run_seconds` of `BENCHMARK.json`, the
/// default of `--seconds`).
pub const RUN_SECONDS: u64 = 30;

/// What a user of the system sees. Bounds come from `NOISE.md`:
/// `max(0.10, 3 × widest inter-quartile spread)` for timings, rounded
/// up to a whole percent; fixed small bounds for the metrics that
/// repeat exactly. A unit test holds the two together. The timings a
/// user also sees but this box cannot repeat within a third of the
/// highest bound allowed — indexing rate, cold start, query latency
/// and rate, add latency — are [`DEMOTED`] to per-layer metrics;
/// `setup_s` stays because the driver requires it.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("precision_at_k", "fraction", Higher, 0.0001),
    e2e("recall_at_k", "fraction", Higher, 0.0001),
    e2e("store_bytes_per_table", "bytes", Lower, 0.01),
    e2e("peak_rss_mb", "MiB", Lower, 0.05),
    e2e("ok_share", "fraction", Higher, 0.0001),
];

/// The end-to-end metrics whose bound is derived from measured noise
/// (the others repeat exactly or carry a fixed bound).
pub const TIMINGS: [&str; 1] = ["setup_s"];

/// The timings of the end-to-end run that are reported per layer, with
/// a `client.` prefix and no bound, because ten runs of the same code
/// spread them by more than a third of the highest bound allowed
/// (`NOISE.md`). The noise study keeps measuring their spread.
pub const DEMOTED: [&str; 5] = [
    "client.index_tables_per_s",
    "client.cold_start_s",
    "client.query_p50_ms",
    "client.query_throughput_rps",
    "client.add_p50_ms",
];

/// Single layers, timed from outside in the traced run. Names are
/// crate/module names; `client.*` is the generator's own.
pub const PER_LAYER: [Metric; 76] = [
    layer("table.load_ms_per_table", "ms", Lower),
    layer("table.csv_mb_per_s", "MB/s", Higher),
    layer("features.qgram_us_per_col", "us", Lower),
    layer("features.tokens_us_per_col", "us", Lower),
    layer("features.format_us_per_col", "us", Lower),
    layer("features.ks_us_per_pair", "us", Lower),
    layer("embedding.embed_us_per_word", "us", Lower),
    layer("embedding.dot_norms_ns", "ns", Lower),
    layer("lsh.minhash_sign_us", "us", Lower),
    layer("lsh.randproj_sign_us", "us", Lower),
    layer("lsh.forest_insert_us", "us", Lower),
    layer("lsh.forest_commit_ms", "ms", Lower),
    layer("lsh.forest_query_us", "us", Lower),
    layer("lsh.forest_hits_per_query", "count", Lower),
    layer("lsh.intersection_ns", "ns", Lower),
    layer("lsh.agreement_ns", "ns", Lower),
    layer("core.profile.ms_per_table", "ms", Lower),
    layer("core.index.build_ms_per_table", "ms", Lower),
    layer("core.index.add_table_ms", "ms", Lower),
    layer("core.index.remove_table_ms", "ms", Lower),
    layer("core.index.resident_bytes_per_table", "bytes", Lower),
    layer("core.index.bytes_i_n", "bytes", Lower),
    layer("core.index.bytes_i_v", "bytes", Lower),
    layer("core.index.bytes_i_f", "bytes", Lower),
    layer("core.index.bytes_i_e", "bytes", Lower),
    layer("core.query.prepare_ms", "ms", Lower),
    layer("core.query.candidates_ms", "ms", Lower),
    layer("core.query.score_ms", "ms", Lower),
    layer("core.query.aggregate_ms", "ms", Lower),
    layer("core.query.total_ms", "ms", Lower),
    layer("core.query.candidates_share", "fraction", Lower),
    layer("core.query.candidate_tables", "count", Lower),
    layer("core.cache.fingerprint_us", "us", Lower),
    layer("core.cache.get_hit_ns", "ns", Lower),
    layer("core.cache.put_us", "us", Lower),
    layer("core.cache.hit_rate", "fraction", Higher),
    layer("core.cache.evictions", "count", Lower),
    layer("core.hotswap.add_ms", "ms", Lower),
    layer("core.hotswap.remove_ms", "ms", Lower),
    layer("core.hotswap.compact_ms", "ms", Lower),
    layer("core.hotswap.snapshot_ns", "ns", Lower),
    layer("core.snapshot.save_ms", "ms", Lower),
    layer("core.snapshot.open_ms", "ms", Lower),
    layer("core.snapshot.append_add_ms", "ms", Lower),
    layer("core.snapshot.compact_ms", "ms", Lower),
    layer("core.snapshot.bytes_written_per_table", "bytes", Lower),
    layer("core.snapshot.delta_segments", "count", Lower),
    layer("store.encode_mb_per_s", "MB/s", Higher),
    layer("store.decode_mb_per_s", "MB/s", Higher),
    layer("server.http.parse_us", "us", Lower),
    layer("server.json.decode_us", "us", Lower),
    layer("server.api.render_us", "us", Lower),
    layer("server.http.write_us", "us", Lower),
    layer("server.inprocess_sum_ms", "ms", Lower),
    layer("server.transport_ms", "ms", Lower),
    layer("server.request_child_coverage", "fraction", Higher),
    layer("server.request_p50_ms", "ms", Lower),
    layer("server.shed_total", "count", Lower),
    layer("server.queue_depth_max", "count", Lower),
    layer("client.prepare_s", "s", Lower),
    layer("client.index_tables_per_s", "1/s", Higher),
    layer("client.cold_start_s", "s", Lower),
    layer("client.query_p50_ms", "ms", Lower),
    layer("client.query_throughput_rps", "1/s", Higher),
    layer("client.add_p50_ms", "ms", Lower),
    layer("client.index_wall_ms", "ms", Lower),
    layer("client.index_accounted_share", "fraction", Higher),
    layer("client.query_p99_ms", "ms", Lower),
    layer("client.add_p90_ms", "ms", Lower),
    layer("client.delete_p50_ms", "ms", Lower),
    layer("client.compact_p50_ms", "ms", Lower),
    layer("client.query_after_write_p50_ms", "ms", Lower),
    layer("client.generator_cpu_share", "fraction", Lower),
    layer("client.samples", "count", Higher),
    layer("client.ranking_digest", "hash", Higher),
    layer("trace.overhead_share", "fraction", Lower),
];

fn json_str(s: &str) -> String {
    let mut out = String::new();
    crate::wire::push_json_str(&mut out, s);
    out
}

/// The text of `BENCHMARK.json`, generated from the catalogue and the
/// workload table so the two cannot drift (a unit test compares the
/// committed file to this).
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{}\n",
            json_str(w.name),
            json_str(w.why),
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let better = |b: Better| match b {
        Lower => "lower",
        Higher => "higher",
    };
    for (i, m) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}{}\n",
            json_str(m.name),
            json_str(m.unit),
            better(m.better),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}{}\n",
            json_str(m.name),
            json_str(m.unit),
            better(m.better),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The one-line result the driver reads: every metric of `catalogue`,
/// in catalogue order. `Err` names the metrics a run failed to
/// produce — a run that cannot report everything reports nothing.
pub fn result_line(
    catalogue: &[Metric],
    metrics: &BTreeMap<&'static str, Value>,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut missing = Vec::new();
    let mut parts = Vec::with_capacity(catalogue.len());
    for m in catalogue {
        match metrics.get(m.name) {
            Some(v) if v.value.is_finite() => parts.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                v.value,
                json_str(m.unit)
            )),
            _ => missing.push(m.name),
        }
    }
    if !missing.is_empty() {
        return Err(format!("no value for: {}", missing.join(", ")));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        parts.join(", ")
    ))
}

/// The human-readable table: every metric with unit and sample count.
pub fn table(catalogue: &[Metric], metrics: &BTreeMap<&'static str, Value>) -> String {
    let mut out = String::new();
    for m in catalogue {
        match metrics.get(m.name) {
            Some(v) => out.push_str(&format!(
                "  {:<40} {:>16.6} {:<9} n={}\n",
                m.name, v.value, m.unit, v.samples
            )),
            None => out.push_str(&format!("  {:<40} {:>16} {:<9}\n", m.name, "-", m.unit)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn catalogue_meets_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().len() <= 64 * 1024);
        for t in TIMINGS {
            assert!(END_TO_END.iter().any(|m| m.name == t));
        }
        for d in DEMOTED {
            assert!(PER_LAYER.iter().any(|m| m.name == d));
        }
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `d3l-benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn result_line_has_exactly_the_catalogue_or_fails() {
        let mut metrics = BTreeMap::new();
        for (i, m) in END_TO_END.iter().enumerate() {
            metrics.insert(
                m.name,
                Value {
                    value: i as f64 + 0.5,
                    samples: 3,
                },
            );
        }
        metrics.insert(
            "client.samples",
            Value {
                value: 1.0,
                samples: 1,
            },
        );
        let line = result_line(&END_TO_END, &metrics, true, 7, 0).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(!line.contains("client.samples") && !line.contains('\n'));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        metrics.remove("peak_rss_mb");
        metrics.insert(
            "setup_s",
            Value {
                value: f64::NAN,
                samples: 0,
            },
        );
        let err = result_line(&END_TO_END, &metrics, true, 7, 0).unwrap_err();
        assert!(
            err.contains("peak_rss_mb") && err.contains("setup_s"),
            "{err}"
        );
    }
}
