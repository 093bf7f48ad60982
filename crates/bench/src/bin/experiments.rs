//! Regenerate the paper's tables and figures on the benchmark's lake.
//!
//! ```text
//! experiments <id> [<id> ...]
//!   ids: exp1 exp2 exp4 exp5 exp7 exp8 weights subject
//!        ablation-weights ablation-granularity all
//! ```

use d3l_bench::experiments as ex;
use d3l_bench::lake;
use d3l_bench::runner::Systems;

/// An experiment's id and what it runs.
type Experiment = (&'static str, fn(&Systems));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 10] = [
    ("exp1", ex::exp1),
    ("exp2", ex::exp2),
    ("exp4", ex::exp4),
    ("exp5", ex::exp5),
    ("exp7", ex::exp7),
    ("exp8", ex::exp8),
    ("weights", ex::weights),
    ("subject", ex::subject),
    ("ablation-weights", ex::ablation_weights),
    ("ablation-granularity", ex::ablation_granularity),
];

fn usage() -> ! {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    eprintln!(
        "usage: experiments <id> [<id> ...]\n       ids: {} all",
        ids.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut runs: Vec<fn(&Systems)> = Vec::new();
    for arg in &args {
        match EXPERIMENTS.iter().find(|(id, _)| id == arg) {
            Some(&(_, run)) => runs.push(run),
            None if arg == "all" => runs.extend(EXPERIMENTS.iter().map(|&(_, run)| run)),
            None => {
                eprintln!("unknown experiment id: {arg}");
                usage();
            }
        }
    }
    let systems = Systems::build(lake::pinned());
    println!(
        "lake: {} tables (smaller_real({}, {})), {} probes, mean answer size {:.1}",
        systems.bench.lake.len(),
        lake::TABLES,
        lake::SEED,
        lake::PROBES,
        systems.bench.truth.avg_answer_size()
    );
    for run in runs {
        run(&systems);
    }
}
