//! The untraced binary (system allocator) and the one `run.sh` starts: one
//! workload's end-to-end metrics, or — without `--workload` — the whole
//! suite, each workload in a fresh process.  A traced run of one workload is
//! handed to the `ledger` binary.

use aohpc_layer_ledger::cli::Args;
use aohpc_layer_ledger::{metrics, run, suite};
use std::os::unix::process::CommandExt;
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("bench: {error}");
            return ExitCode::from(64);
        }
    };
    if args.emit_benchmark_json {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let outcome = match args.workload {
        _ if args.selfcheck => suite::selfcheck(&args),
        None => suite::suite(&args),
        Some(_) if args.traced => {
            // The counting allocator lives in the ledger binary: become it.
            let error = Command::new(suite::binary(true)).args(std::env::args().skip(1)).exec();
            Err(format!("cannot start the ledger binary: {error}"))
        }
        Some(workload) => {
            let result = run::untraced(workload, &args);
            println!("{}", result.to_line());
            if result.correct {
                Ok(())
            } else {
                Err(format!("{} failed its correctness gate", workload.name()))
            }
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("bench: {error}");
            ExitCode::from(2)
        }
    }
}
