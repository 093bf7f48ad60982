//! The `experiments` binary, run: an id whose code reads something the
//! engine stopped holding compiles until someone runs it.

use std::process::Command;

/// `experiments ablation-granularity` at the smoke scale computes exact
/// token distances — defined on built profiles — and prints its
/// separability line.
#[test]
fn ablation_granularity_runs_at_quick_scale() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("ablation-granularity")
        .env("D3L_SCALE", "quick")
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
