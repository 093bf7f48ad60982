//! Every workload end to end at `--smoke` scale (a tiny lake, about
//! two seconds each), traced run included: real child processes,
//! real sockets, the real result line.
//!
//! Needs the release `d3l` binary; it is built here (into the
//! repository's own target directory) unless `$D3L_BIN` names one.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use d3l_benchmark::noise::{metric_value, table_value, EXACT};
use d3l_benchmark::report::{END_TO_END, PER_LAYER};
use d3l_benchmark::workloads::WORKLOADS;

fn d3l_bin() -> &'static PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Some(p) = std::env::var_os("D3L_BIN") {
            return PathBuf::from(p);
        }
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
        let target = root.join("target");
        let status = Command::new(env!("CARGO"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "d3l",
                "--manifest-path",
            ])
            .arg(root.join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building the d3l binary failed");
        target.join("release").join("d3l")
    })
}

/// Run one benchmark binary; returns (exit ok, last stdout line) and
/// leaves the standard error of the run in `stderr`.
fn bench_with_log(exe: &str, args: &[&str], stderr: &mut String) -> (bool, String) {
    let out = Command::new(exe)
        .args(args)
        .env("D3L_BIN", d3l_bin())
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("").to_string();
    *stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    if !out.status.success() {
        eprintln!("{stderr}");
    }
    (out.status.success(), line)
}

fn bench(exe: &str, args: &[&str]) -> (bool, String) {
    bench_with_log(exe, args, &mut String::new())
}

fn scratch_left_behind() -> Vec<String> {
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::read_dir(out)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with("run-") && !n.contains("unit-"))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn every_workload_runs_end_to_end_and_traced() {
    for w in WORKLOADS {
        // End to end: every end-to-end metric, nothing else, all good.
        let (ok, line) = bench(
            env!("CARGO_BIN_EXE_d3l-benchmark"),
            &[
                "--workload",
                w.name,
                "--seed",
                "11",
                "--trace",
                "0",
                "--smoke",
            ],
        );
        assert!(ok, "{}: {line}", w.name);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, "), "{line}");
        for m in END_TO_END {
            let v =
                metric_value(&line, m.name).unwrap_or_else(|| panic!("{}: no {}", w.name, m.name));
            assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name, m.name);
        }
        assert_eq!(metric_value(&line, "ok_share"), Some(1.0));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());

        // Traced, through the same front door: every per-layer metric.
        let (ok, line) = bench(
            env!("CARGO_BIN_EXE_d3l-benchmark"),
            &[
                "--workload",
                w.name,
                "--seed",
                "12",
                "--trace",
                "1",
                "--smoke",
            ],
        );
        assert!(ok, "{} traced: {line}", w.name);
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        for m in PER_LAYER {
            assert!(
                metric_value(&line, m.name).is_some_and(f64::is_finite),
                "{} traced: no {}",
                w.name,
                m.name
            );
        }
        assert_eq!(line.matches("\"value\"").count(), PER_LAYER.len());
        let trace = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.trace.json", w.name));
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        for span in [
            "\"request\"",
            "\"server.json.decode\"",
            "\"core.query.candidates\"",
            "\"core.index.build\"",
        ] {
            assert!(text.contains(span), "{}: no {span} span", w.name);
        }
    }
    assert_eq!(
        scratch_left_behind(),
        Vec::<String>::new(),
        "scratch removed"
    );

    // The exact metrics, the ranking digest among them, repeat across
    // seeds.
    let hot = [
        "--workload",
        "serve-hot-churn1k",
        "--trace",
        "0",
        "--smoke",
        "--seed",
    ];
    let (mut log_a, mut log_b) = (String::new(), String::new());
    let (ok_a, a) = bench_with_log(
        env!("CARGO_BIN_EXE_d3l-benchmark"),
        &[&hot[..], &["21"]].concat(),
        &mut log_a,
    );
    let (ok_b, b) = bench_with_log(
        env!("CARGO_BIN_EXE_d3l-benchmark"),
        &[&hot[..], &["22"]].concat(),
        &mut log_b,
    );
    assert!(ok_a && ok_b, "seed 21: {a}\nseed 22: {b}");
    for exact in EXACT {
        let (va, vb) = (table_value(&log_a, exact), table_value(&log_b, exact));
        assert!(va.is_some() && va == vb, "{exact}: {va:?} vs {vb:?}");
    }

    a_failed_start_up_fails_the_run_and_leaves_nothing_behind();
}

/// A `d3l` that cannot index: the run must exit non-zero, print no
/// result line, and still remove its scratch directory.
fn a_failed_start_up_fails_the_run_and_leaves_nothing_behind() {
    let out = Command::new(env!("CARGO_BIN_EXE_d3l-benchmark"))
        .args(["--workload", "build-dirty2k", "--smoke", "--seed", "31"])
        .env("D3L_BIN", "/bin/false")
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).trim().is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("d3l index exited"));
    assert_eq!(
        scratch_left_behind(),
        Vec::<String>::new(),
        "scratch removed"
    );
}
