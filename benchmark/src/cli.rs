//! The arguments both binaries take:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`.

use crate::report::RUN_SECONDS;
use crate::run::RunConfig;
use crate::workloads::{Scale, Workload, PIN_SEED, WORKLOADS};

#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

pub const USAGE: &str = "usage:\n  d3l-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n  d3l-benchmark noise                ten runs of every workload in each of two sets; rewrites NOISE.md\n  d3l-benchmark digests              the input digests to pin in src/workloads.rs\n  d3l-benchmark manifest             the text of BENCHMARK.json";

pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = PIN_SEED;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        match a.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(Workload::by_name(name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a whole number".to_string())?;
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| "--seconds must be a positive number".to_string())?;
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload <name>")?,
        seed,
        seconds,
        trace,
        smoke,
    })
}

impl Args {
    pub fn run_config(&self) -> RunConfig {
        let scale = if self.smoke {
            Scale::Smoke
        } else if self.trace {
            Scale::Traced
        } else {
            Scale::Full
        };
        RunConfig {
            workload: self.workload.at(scale),
            scale,
            seed: self.seed,
            // A smoke run is about two seconds whatever was asked.
            seconds: if self.smoke { 1.0 } else { self.seconds },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&args(&[
            "--workload",
            "serve-lake4k",
            "--seed",
            "7",
            "--seconds",
            "30",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.name, "serve-lake4k");
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 30.0, true, false)
        );
        assert_eq!(a.run_config().scale, Scale::Traced);
        let d = parse(&args(&["--workload", "build-dirty2k"])).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (PIN_SEED, RUN_SECONDS as f64, false)
        );
        assert_eq!(d.run_config().scale, Scale::Full);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &[][..],
            &["--workload"],
            &["--workload", "nope"],
            &["--workload", "serve-lake4k", "--seed", "x"],
            &["--workload", "serve-lake4k", "--seconds", "0"],
            &["--workload", "serve-lake4k", "--seconds", "nan"],
            &["--workload", "serve-lake4k", "--trace", "2"],
            &["--workload", "serve-lake4k", "stray"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
