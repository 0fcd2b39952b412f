//! Command-line arguments shared by the two binaries.

use crate::metrics::{DEFAULT_SEED, RUN_SECONDS};
use crate::workloads::WorkloadId;
use std::path::PathBuf;

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload NAME`; `None` runs the whole suite.
    pub workload: Option<WorkloadId>,
    /// `--seed N`.
    pub seed: u64,
    /// `--seconds S`: how long the measured phase lasts.
    pub seconds: f64,
    /// `--trace 1` (`run.sh` also takes `--traced` and passes it on as this).
    pub traced: bool,
    /// `--smoke`: tiny problems, short phases.
    pub smoke: bool,
    /// `--selfcheck`: run the suite twice on ten seeds and judge the spreads.
    pub selfcheck: bool,
    /// `--emit-benchmark-json`: print `/BENCHMARK.json` and exit.
    pub emit_benchmark_json: bool,
    /// `--out-dir DIR`: where the traced run writes `<workload>.trace.jsonl`.
    pub out_dir: PathBuf,
}

impl Args {
    /// Parse `args` (without the program name).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS as f64,
            traced: false,
            smoke: false,
            selfcheck: false,
            emit_benchmark_json: false,
            out_dir: PathBuf::from("benchmark/out"),
        };
        let mut seconds_given = false;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    parsed.workload =
                        Some(WorkloadId::parse(&name).ok_or(format!("unknown workload {name}"))?);
                }
                "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    seconds_given = true;
                }
                "--trace" => {
                    parsed.traced = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
                "--smoke" => parsed.smoke = true,
                "--selfcheck" => parsed.selfcheck = true,
                "--emit-benchmark-json" => parsed.emit_benchmark_json = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if parsed.smoke && !seconds_given {
            parsed.seconds = 0.5;
        }
        if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        if parsed.selfcheck && parsed.traced {
            return Err("--selfcheck judges the end-to-end metrics: it takes no --trace 1".into());
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_form_and_human_form() {
        let a = parse("--workload sgrid_mpi2 --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            (Some(WorkloadId::SgridMpi2), 9, 3.0, true)
        );
        let b = parse("--trace 1 --smoke").unwrap();
        assert_eq!((b.workload, b.traced, b.smoke, b.seconds), (None, true, true, 0.5));
        assert_eq!(parse("").unwrap().seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_input_is_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
        assert!(parse("--selfcheck --trace 1").is_err());
    }
}
