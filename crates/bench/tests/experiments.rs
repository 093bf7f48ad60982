//! The `experiments` binary, run: an id whose code reads something the
//! engine stopped holding compiles until someone runs it.

use std::process::Command;

/// `experiments ablation-granularity` on the pinned lake computes exact
/// token distances — defined on built profiles — and prints its
/// separability line.
#[test]
fn ablation_granularity_runs_on_the_pinned_lake() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("ablation-granularity")
        .output()
        .expect("experiments binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout
        .lines()
        .find(|l| l.starts_with("related pairs:"))
        .unwrap_or_else(|| panic!("no related-pairs line in:\n{stdout}"));
    // Related attributes share tokens: their mean token distance is a
    // number below 1, not the 1.0 two empty sets would give.
    let token_distance: f64 = line
        .split_whitespace()
        .nth(4)
        .and_then(|d| d.parse().ok())
        .unwrap_or_else(|| panic!("unparsable: {line}"));
    assert!(token_distance < 1.0, "{line}");
    assert!(stdout.contains("separability (unrelated - related)"));
}

/// An id the binary does not know ends the run before any lake is
/// built: exit 2 and the usage, which lists every id.
#[test]
fn an_unknown_id_exits_2_with_the_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["exp1", "table1"])
        .output()
        .expect("experiments binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment id: table1"), "{stderr}");
    assert!(stderr.contains("usage: experiments <id>"), "{stderr}");
    assert!(stderr.contains("ablation-granularity all"), "{stderr}");
}
