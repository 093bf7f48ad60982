//! `d3l-benchmark noise`: what the driver does before it accepts the
//! benchmark, done here first — every workload run ten times in each
//! of two interleaved sets, each run with another seed; per metric
//! and set the quartiles and the inter-quartile spread; from the
//! widest spread of each timing its bound, or its demotion to a
//! `client.` per-layer metric where it spreads by more than a third of
//! the highest bound allowed; and the spreads of the timings already
//! demoted, for whoever wants to promote one back. The result is
//! written into `NOISE.md` between two markers (the remedies log
//! around them is kept), and a unit test holds `BENCHMARK.json`'s
//! bounds to it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::report::{Better, Metric, DEMOTED, END_TO_END, TIMINGS};
use crate::stats;
use crate::workloads::{PIN_SEED, WORKLOADS};

/// A third of the 0.25 ceiling. A timing whose spread exceeds this in
/// either set on any workload cannot have a bound three times its
/// spread: it is no end-to-end metric but a `client.` per-layer one.
/// `setup_s` alone is exempt: the driver wants it end to end, does
/// not judge its spread, and it carries the largest bound.
pub const DEMOTE_ABOVE: f64 = 0.25 / 3.0;

/// The metrics that must read the same on every run of a workload,
/// whatever the seed. The last is a per-layer metric; an end-to-end
/// run prints it on its standard error.
pub const EXACT: [&str; 4] = [
    "precision_at_k",
    "recall_at_k",
    "store_bytes_per_table",
    "client.ranking_digest",
];

/// Runs of every workload in each of the two sets, as the driver makes.
pub const RUNS: usize = 10;

pub const BEGIN: &str = "<!-- noise:begin";
pub const END: &str = "<!-- noise:end -->";
pub const BOUNDS_BEGIN: &str = "<!-- bounds:begin -->";
pub const BOUNDS_END: &str = "<!-- bounds:end -->";

pub fn noise_md_path() -> PathBuf {
    crate::child::home().join("NOISE.md")
}

/// `"name": {"value": 1.25, …` → 1.25.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&needle)? + needle.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// `  client.ranking_digest      120983688133191.000000 hash  n=20`
/// (a line of the table a run prints on its standard error) → the
/// value as printed.
pub fn table_value<'a>(stderr: &'a str, name: &str) -> Option<&'a str> {
    stderr.lines().find_map(|l| {
        let mut cells = l.split_whitespace();
        (cells.next() == Some(name)).then(|| cells.next()).flatten()
    })
}

/// The bound a timing's widest spread earns: `max(0.10, 3 × spread)`
/// rounded up to a whole percent, never above 0.25.
pub fn bound_for(widest_spread: f64) -> f64 {
    let pct = (3.0 * widest_spread * 100.0 - 1e-9)
        .ceil()
        .clamp(10.0, 25.0);
    pct / 100.0
}

/// What a timing other than `setup_s` earns: its bound, or `None` —
/// demotion — where it spreads by more than [`DEMOTE_ABOVE`].
pub fn timing_bound(widest_spread: f64) -> Option<f64> {
    (widest_spread <= DEMOTE_ABOVE).then(|| bound_for(widest_spread))
}

/// The bounds table of a `NOISE.md` text: metric → bound.
pub fn parse_bounds(noise_md: &str) -> Option<BTreeMap<String, f64>> {
    let from = noise_md.find(BOUNDS_BEGIN)? + BOUNDS_BEGIN.len();
    let to = noise_md.find(BOUNDS_END)?;
    let mut out = BTreeMap::new();
    for line in noise_md[from..to].lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        // | metric | widest spread | rule | bound |
        if cells.len() < 6 || cells[1] == "metric" || cells[1].starts_with("---") {
            continue;
        }
        // A metric to be demoted has no bound, and so no entry.
        if let Ok(bound) = cells[4].parse() {
            out.insert(cells[1].to_string(), bound);
        }
    }
    Some(out)
}

type Samples = BTreeMap<(usize, &'static str, usize), Vec<f64>>; // (workload, metric, set)

/// What every run of a workload printed for each [`EXACT`] metric.
type Exact = BTreeMap<(usize, &'static str), Vec<String>>;

fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

/// Render the generated region of `NOISE.md`.
pub fn render(samples: &Samples, demoted: &Samples, exact: &Exact, walls: &[f64]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{BEGIN} (generated by `d3l-benchmark noise`; the text outside the markers is kept) -->\n\n"
    ));
    out.push_str(&format!(
        "{RUNS} runs per set, two sets interleaved run by run, seeds {PIN_SEED}… upward (another seed each run, as the driver does), `--seconds` at its default, nproc {}. Longest run {:.1} s wall, median {:.1} s.\n\n",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        walls.iter().copied().fold(0.0, f64::max),
        if walls.is_empty() { 0.0 } else { stats::median(walls) },
    ));
    out.push_str("### Quartiles and spread, per workload, metric and set\n\n");
    out.push_str("| workload | metric | set | q1 | median | q3 | spread |\n| --- | --- | --- | --- | --- | --- | --- |\n");
    let mut widest: BTreeMap<&str, f64> = BTreeMap::new();
    for (&(w, metric, set), values) in samples {
        if values.len() < 2 {
            continue;
        }
        let [q1, q2, q3] = stats::quartiles(values);
        let spread = stats::spread(values);
        let e = widest.entry(metric).or_insert(0.0);
        *e = e.max(spread);
        out.push_str(&format!(
            "| {} | {metric} | {} | {q1:.6} | {q2:.6} | {q3:.6} | {spread:.4} |\n",
            WORKLOADS[w].name,
            ["A", "B"][set],
        ));
    }

    out.push_str(&format!("\n### Demoted timings\n\nPer-layer metrics without a bound (read off the runs' standard error): each spread by more than {DEMOTE_ABOVE:.4} in some set on some workload when it was an end-to-end metric. Kept here so that a calmer box shows.\n\n| workload | metric | set | q1 | median | q3 | spread |\n| --- | --- | --- | --- | --- | --- | --- |\n"));
    for (&(w, metric, set), values) in demoted {
        if values.len() < 2 {
            continue;
        }
        let [q1, q2, q3] = stats::quartiles(values);
        out.push_str(&format!(
            "| {} | {metric} | {} | {q1:.6} | {q2:.6} | {q3:.6} | {:.4} |\n",
            WORKLOADS[w].name,
            ["A", "B"][set],
            stats::spread(values),
        ));
    }

    out.push_str("\n### Metrics that repeat exactly\n\nThe same value on every run of both sets, whatever the seed (the study fails otherwise).\n\n| workload | metric | value | runs |\n| --- | --- | --- | --- |\n");
    for (&(w, metric), values) in exact {
        out.push_str(&format!(
            "| {} | {metric} | {} | {} |\n",
            WORKLOADS[w].name,
            values.first().map_or("-", String::as_str),
            values.len()
        ));
    }

    out.push_str(&format!("\n### Bounds\n\nTimings and rates: `max(0.10, 3 × widest spread)`, rounded up to a whole percent, at most 0.25; `setup_s` carries the largest. A timing that spreads by more than {DEMOTE_ABOVE:.4} (a third of that ceiling) in either set on any workload has no bound here: it is to leave the end-to-end list for a `client.` per-layer metric.\n\n"));
    out.push_str(&format!(
        "{BOUNDS_BEGIN}\n| metric | widest spread | rule | bound |\n| --- | --- | --- | --- |\n"
    ));
    // `setup_s` carries the largest of the timings' bounds; a metric
    // that is no timing keeps its fixed one.
    let spread_of = |name: &str| widest.get(name).copied().unwrap_or(0.0);
    let largest = TIMINGS
        .iter()
        .map(|&t| bound_for(spread_of(t)))
        .fold(0.0, f64::max);
    let bound_of = |m: &Metric| match m.name {
        "setup_s" => Some(largest),
        name if !TIMINGS.contains(&name) => Some(m.bound),
        name => timing_bound(spread_of(name)),
    };
    for m in END_TO_END {
        let rule = match m.name {
            "setup_s" => "largest of the timings",
            name if !TIMINGS.contains(&name) => "fixed",
            _ => "max(0.10, 3 × spread)",
        };
        let bound = bound_of(&m).map_or("none: demote".to_string(), |b| b.to_string());
        out.push_str(&format!(
            "| {} | {:.4} | {rule} | {bound} |\n",
            m.name,
            spread_of(m.name)
        ));
    }
    out.push_str(&format!("{BOUNDS_END}\n"));

    out.push_str("\n### Agreement of the two sets\n\nThe second set's median may not be worse than the first's by more than the bound, and both spreads should stay within a third of it. `setup_s` cannot be demoted where they do not: the driver requires it, and does not judge its spread.\n\n");
    out.push_str("| workload | metric | median A | median B | B worse by | bound | agrees | spreads within a third |\n| --- | --- | --- | --- | --- | --- | --- | --- |\n");
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for m in END_TO_END {
            let (Some(a), Some(b)) = (samples.get(&(wi, m.name, 0)), samples.get(&(wi, m.name, 1)))
            else {
                continue;
            };
            let Some(bound) = bound_of(&m) else { continue };
            if a.len() < 2 || b.len() < 2 {
                continue;
            }
            let (ma, mb) = (stats::median(a), stats::median(b));
            let worse = worse_by(m.better, ma, mb);
            let spread = stats::spread(a).max(stats::spread(b));
            let steady = spread <= bound / 3.0;
            out.push_str(&format!(
                "| {} | {} | {ma:.6} | {mb:.6} | {:+.4} | {bound} | {} | {} |\n",
                w.name,
                m.name,
                worse,
                if worse <= bound { "yes" } else { "NO" },
                if steady { "yes" } else { "NO" },
            ));
        }
    }
    out.push_str(&format!("\n{END}\n"));
    out
}

/// Replace the generated region of `existing` (or append one).
pub fn splice(existing: &str, region: &str) -> String {
    match (existing.find(BEGIN), existing.find(END)) {
        (Some(from), Some(to)) if to > from => {
            let mut out = String::from(&existing[..from]);
            out.push_str(region.trim_end_matches('\n'));
            out.push_str(&existing[to + END.len()..]);
            out
        }
        _ => format!("{existing}\n{region}"),
    }
}

/// Run the noise study and rewrite `NOISE.md`.
pub fn run() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let mut samples: Samples = BTreeMap::new();
    let mut demoted: Samples = BTreeMap::new();
    let mut exact: Exact = BTreeMap::new();
    let mut walls = Vec::new();
    for i in 0..RUNS {
        for set in 0..2 {
            for (wi, w) in WORKLOADS.iter().enumerate() {
                let seed = PIN_SEED + (i + set * 100) as u64;
                let start = Instant::now();
                let output = Command::new(&exe)
                    .args([
                        "--workload",
                        w.name,
                        "--seed",
                        &seed.to_string(),
                        "--trace",
                        "0",
                    ])
                    .stdin(Stdio::null())
                    .output()
                    .map_err(|e| format!("spawn a run: {e}"))?;
                let wall = start.elapsed().as_secs_f64();
                walls.push(wall);
                let stdout = String::from_utf8_lossy(&output.stdout);
                let line = stdout.lines().last().unwrap_or("");
                if !output.status.success() || !line.contains("\"correct\": true") {
                    return Err(format!(
                        "run {i} of set {set} on {} (seed {seed}) failed: {} {line}",
                        w.name, output.status
                    ));
                }
                eprintln!(
                    "noise: run {i} set {} {} seed {seed}: {wall:.1} s",
                    ["A", "B"][set],
                    w.name
                );
                for m in END_TO_END {
                    let v = metric_value(line, m.name)
                        .ok_or_else(|| format!("{}: no {} in {line}", w.name, m.name))?;
                    samples.entry((wi, m.name, set)).or_default().push(v);
                }
                let stderr = String::from_utf8_lossy(&output.stderr);
                let logged = |name: &str| {
                    table_value(&stderr, name)
                        .ok_or_else(|| format!("{}: no {name} on standard error", w.name))
                };
                for name in EXACT {
                    exact
                        .entry((wi, name))
                        .or_default()
                        .push(logged(name)?.to_string());
                }
                for name in DEMOTED {
                    let v = logged(name)?
                        .parse()
                        .map_err(|_| format!("{}: {name} is no number", w.name))?;
                    demoted.entry((wi, name, set)).or_default().push(v);
                }
            }
        }
    }
    // Every value of every run, for whoever wants to look closer.
    let mut raw = String::from("workload\tmetric\tset\tvalues\n");
    for ((w, metric, set), values) in samples.iter().chain(&demoted) {
        let values: Vec<String> = values.iter().map(f64::to_string).collect();
        raw.push_str(&format!(
            "{}\t{metric}\t{}\t{}\n",
            WORKLOADS[*w].name,
            ["A", "B"][*set],
            values.join("\t")
        ));
    }
    let raw_path = crate::child::out_dir().join("noise-raw.tsv");
    std::fs::write(&raw_path, raw).map_err(|e| format!("write {}: {e}", raw_path.display()))?;
    for ((w, name), values) in &exact {
        if values.iter().any(|v| v != &values[0]) {
            return Err(format!(
                "{}: {name} does not repeat exactly: {values:?} (every value is in {})",
                WORKLOADS[*w].name,
                raw_path.display()
            ));
        }
    }
    let region = render(&samples, &demoted, &exact, &walls);
    let path = noise_md_path();
    let existing = std::fs::read_to_string(&path).unwrap_or_else(|_| "# Noise\n".to_string());
    std::fs::write(&path, splice(&existing, &region))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    print!("{region}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_follow_the_rule() {
        assert_eq!(bound_for(0.0), 0.10);
        assert_eq!(bound_for(0.02), 0.10);
        assert_eq!(bound_for(0.0333), 0.10);
        assert_eq!(bound_for(0.034), 0.11);
        assert_eq!(bound_for(0.05), 0.15);
        assert_eq!(bound_for(0.0501), 0.16);
        assert_eq!(bound_for(0.08), 0.24);
        assert_eq!(bound_for(0.5), 0.25);
        assert_eq!(timing_bound(0.05), Some(0.15));
        assert_eq!(timing_bound(0.083), Some(0.25));
        assert_eq!(timing_bound(0.084), None);
    }

    #[test]
    fn the_log_table_is_read_back() {
        let log = "  ok_share      1.000000 fraction  n=9\n  client.ranking_digest      120983688133191.000000 hash      n=20\n";
        assert_eq!(
            table_value(log, "client.ranking_digest"),
            Some("120983688133191.000000")
        );
        assert_eq!(table_value(log, "ok_share"), Some("1.000000"));
        assert_eq!(table_value(log, "client.ranking"), None);
    }

    #[test]
    fn result_lines_are_read_back() {
        let line = "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"ok_share\": {\"value\": 1, \"unit\": \"fraction\"}}}";
        assert_eq!(metric_value(line, "setup_s"), Some(1.25));
        assert_eq!(metric_value(line, "ok_share"), Some(1.0));
        assert_eq!(metric_value(line, "absent"), None);
    }

    fn synthetic() -> Samples {
        let mut s: Samples = BTreeMap::new();
        for (wi, _) in WORKLOADS.iter().enumerate() {
            for m in END_TO_END {
                for set in 0..2 {
                    let v: Vec<f64> = (0..10)
                        .map(|i| match m.name {
                            // 4 % inter-quartile spread on the timing.
                            "setup_s" => 2.0 * (1.0 + 0.008 * (i as f64 - 4.5)),
                            n if TIMINGS.contains(&n) => 5.0 + 0.001 * i as f64,
                            _ => 0.5,
                        })
                        .collect();
                    s.insert((wi, m.name, set), v);
                }
            }
        }
        s
    }

    #[test]
    fn rendered_bounds_parse_back_and_setup_is_largest() {
        let none = BTreeMap::new();
        let region = render(&synthetic(), &none, &BTreeMap::new(), &[31.0, 35.5]);
        let bounds = parse_bounds(&region).unwrap();
        assert_eq!(bounds.len(), END_TO_END.len());
        let s = bounds["setup_s"];
        assert!((0.10..=0.25).contains(&s) && s > 0.10, "{s}");
        assert_eq!(bounds["precision_at_k"], 0.0001);
        assert!(region.contains("| build-dirty2k | setup_s | A |"));
        assert!(!region.contains("| NO |"));
    }

    #[test]
    fn splice_keeps_the_hand_written_log() {
        let old =
            format!("# Noise\n\nintro\n\n{BEGIN} x -->\nold table\n{END}\n\n## Remedies\n\nkept\n");
        let new = splice(&old, &format!("{BEGIN} y -->\nnew table\n{END}\n"));
        assert!(new.starts_with("# Noise\n\nintro\n\n<!-- noise:begin y -->\nnew table\n"));
        assert!(new.ends_with("\n\n## Remedies\n\nkept\n"));
        assert!(!new.contains("old table"));
        let fresh = splice("# Noise\n", "REGION");
        assert!(fresh.ends_with("REGION"));
    }

    #[test]
    fn committed_bounds_are_the_measured_ones() {
        let text = std::fs::read_to_string(noise_md_path()).expect("benchmark/NOISE.md");
        let bounds = parse_bounds(&text).expect("a bounds table in NOISE.md");
        for m in END_TO_END {
            assert_eq!(
                bounds.get(m.name).copied(),
                Some(m.bound),
                "{}: the catalogue (and so BENCHMARK.json) and NOISE.md disagree",
                m.name
            );
        }
    }
}
