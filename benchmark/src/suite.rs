//! Whole-suite drivers: every workload in a fresh process, and the
//! self-check that runs the suite the way the acceptance rule does.

use crate::cli::Args;
use crate::metrics::{END_TO_END, GATED, WORKLOADS};
use crate::report::{worsening, RunResult};
use crate::stats::{iqr_share, median};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Seeds per workload and set under `--selfcheck`: what the acceptance rule
/// uses.
const RUNS: u64 = 10;

/// The binary next to this one that runs a single workload: `bench` for an
/// untraced run, `ledger` (counting allocator) for a traced one.
pub fn binary(traced: bool) -> PathBuf {
    let me = std::env::current_exe().expect("the running binary has a path");
    me.with_file_name(if traced { "ledger" } else { "bench" })
}

/// Run one workload in a child process; its tables go to our stdout.
fn run_child(workload: &str, seed: u64, args: &Args, quiet: bool) -> Result<RunResult, String> {
    let mut command = Command::new(binary(args.traced));
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().unwrap_or_default();
    if !quiet {
        for line in text.lines().filter(|line| *line != last) {
            println!("{line}");
        }
    }
    let result = RunResult::parse_line(last).ok_or(format!("{workload} printed no result line"))?;
    if !output.status.success() || !result.correct {
        return Err(format!("{workload} failed its correctness gate ({})", output.status));
    }
    Ok(result)
}

/// Every workload once, each in a fresh process.  `Err` names what failed.
pub fn suite(args: &Args) -> Result<(), String> {
    for (workload, _) in WORKLOADS {
        let result = run_child(workload, args.seed, args, false)?;
        println!("# {workload}: correct, {} jobs, 0 failed\n", result.attempted);
    }
    Ok(())
}

/// The acceptance rule, run locally: two sets of [`RUNS`] untraced runs per
/// workload `BENCHMARK.json` lists, each run on another seed.  A metric holds its bound when its
/// spread (interquartile distance ÷ median) stays within the bound in both
/// sets and the second median is not worse than the first by more than the
/// bound; `setup_s` is only held to the second condition.  A metric is
/// *steady* when its spread is below a third of the bound.
pub fn selfcheck(args: &Args) -> Result<(), String> {
    let mut broken = Vec::new();
    for (workload, _) in &WORKLOADS[..GATED] {
        let mut sets: Vec<Vec<RunResult>> = Vec::new();
        for set in 0..2u64 {
            let runs: Result<Vec<_>, _> = (0..RUNS)
                .map(|i| run_child(workload, args.seed + 1000 * set + i, args, true))
                .collect();
            sets.push(runs?);
        }
        println!("# {workload}: {RUNS} runs x 2 sets");
        println!(
            "{:<22} {:>14} {:>14} {:>9} {:>9} {:>8} {:>7}  verdict",
            "metric", "median 1", "median 2", "spread 1", "spread 2", "drift", "bound"
        );
        for (name, _, better, bound) in END_TO_END {
            let column = |set: &Vec<RunResult>| -> Vec<f64> {
                set.iter().map(|r| r.value(name).expect("every run reports every metric")).collect()
            };
            let (first, second) = (column(&sets[0]), column(&sets[1]));
            let spread = iqr_share(&first).max(iqr_share(&second));
            let drift = worsening(better, median(&first), median(&second));
            let spread_binds = name != "setup_s";
            let verdict = if drift > bound || (spread_binds && spread > bound) {
                broken.push(format!("{workload}/{name}"));
                "BROKEN"
            } else if spread_binds && spread > bound / 3.0 {
                "holds, not steady"
            } else {
                "steady"
            };
            println!(
                "{:<22} {:>14.5} {:>14.5} {:>8.2}% {:>8.2}% {:>7.2}% {:>6.0}%  {verdict}",
                name,
                median(&first),
                median(&second),
                iqr_share(&first) * 100.0,
                iqr_share(&second) * 100.0,
                drift * 100.0,
                bound * 100.0,
            );
        }
        println!();
    }
    if broken.is_empty() {
        Ok(())
    } else {
        Err(format!("cannot hold their bound on this box: {}", broken.join(", ")))
    }
}
