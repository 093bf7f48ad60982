//! The end-to-end benchmark binary. See `benchmark/README.md`.

use std::process::{Command, ExitCode};

use d3l_benchmark::workloads::{Scale, PIN_SEED, WORKLOADS};
use d3l_benchmark::{child, cli, inputs, noise, report, run};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("noise") if args.len() == 1 => noise::run().map(|()| true),
        Some("digests") => {
            digests();
            Ok(true)
        }
        Some("manifest") => {
            print!("{}", report::manifest());
            Ok(true)
        }
        Some("--help" | "-h") | None => {
            eprintln!("{}", cli::USAGE);
            return ExitCode::from(2);
        }
        _ => measure(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Print the digests of every workload's inputs at both pinned scales,
/// as the lines to paste into `src/workloads.rs`.
fn digests() {
    for w in WORKLOADS {
        for (field, scale) in [("digests", Scale::Full), ("smoke_digests", Scale::Smoke)] {
            let generated = inputs::generate(&w.at(scale), PIN_SEED);
            let d = generated.digests;
            println!(
                "{}: {field}: Digests {{ lake: {:#018x}, script: {:#018x}, bodies: {:#018x} }},",
                w.name, d.lake, d.script, d.bodies
            );
            let bytes: usize = generated.targets.iter().map(Vec::len).sum();
            eprintln!(
                "{}: {field}: {} targets, {} request bytes on average",
                w.name,
                generated.targets.len(),
                bytes / generated.targets.len().max(1)
            );
        }
    }
}

/// One run. `Ok(false)`: measured, but an operation or a check failed.
fn measure(args: &[String]) -> Result<bool, String> {
    let parsed = cli::parse(args).map_err(|e| format!("{e}\n{}", cli::USAGE))?;
    child::pin()?;
    if parsed.trace {
        // The traced run calls into the crates; it is a binary of its
        // own so that this one never links the program it measures.
        let layers = std::env::current_exe()
            .map_err(|e| format!("cannot locate this executable: {e}"))?
            .with_file_name("d3l-benchmark-layers");
        let status = Command::new(&layers)
            .args(args)
            .status()
            .map_err(|e| format!("run {}: {e}", layers.display()))?;
        return Ok(status.success());
    }
    let cfg = parsed.run_config();
    let prepared = run::prepare(&cfg)?;
    let outcome = run::run(&cfg, &prepared)?;
    drop(prepared);
    eprintln!(
        "{} seed {} ({:?}): {} operations, {} failed, {:.1} s wall",
        cfg.workload.name,
        cfg.seed,
        cfg.scale,
        outcome.attempted,
        outcome.failed,
        outcome.wall.as_secs_f64()
    );
    let phases: Vec<String> = outcome
        .phases
        .iter()
        .map(|(p, s)| format!("{p} {s:.1}"))
        .collect();
    eprintln!("  seconds by phase: {}", phases.join(", "));
    let rounds: Vec<String> = outcome
        .rounds
        .iter()
        .map(|(index, cold)| format!("{index:.2}+{cold:.2}"))
        .collect();
    eprintln!(
        "  set-up rounds (index + cold start, s): {}",
        rounds.join(" ")
    );
    for (what, values) in ["solo p50 (ms)", "solo rate (1/s)", "add p50 (ms)"]
        .iter()
        .zip(&outcome.cycles)
    {
        let values: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
        eprintln!("  per cycle, {what}: {}", values.join(" "));
    }
    for f in &outcome.failures {
        eprintln!("  failed: {f}");
    }
    eprint!("{}", report::table(&report::END_TO_END, &outcome.metrics));
    // The generator's own and the scraped numbers this run has: never
    // part of the result line, printed for whoever reads the log (and
    // for the noise study, which holds `client.ranking_digest` to one
    // value).
    let own: Vec<report::Metric> = report::PER_LAYER
        .into_iter()
        .filter(|m| outcome.metrics.contains_key(m.name))
        .collect();
    eprint!("{}", report::table(&own, &outcome.metrics));
    let line = report::result_line(
        &report::END_TO_END,
        &outcome.metrics,
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
    )?;
    println!("{line}");
    Ok(outcome.correct())
}
