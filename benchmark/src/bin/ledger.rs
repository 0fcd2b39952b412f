//! The traced binary: one workload's per-layer metrics.  It runs under the
//! counting allocator so `kernel.allocs_per_block` and
//! `runtime.allocs_per_job` are exact; that is also why the bounded
//! end-to-end numbers never come from here.

use aohpc_layer_ledger::cli::Args;
use aohpc_layer_ledger::run;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: aohpc_testalloc::CountingAlloc = aohpc_testalloc::CountingAlloc;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("ledger: {error}");
            return ExitCode::from(64);
        }
    };
    let Some(workload) = args.workload else {
        eprintln!("ledger: --workload is required (run.sh --traced runs all of them)");
        return ExitCode::from(64);
    };
    let result = run::traced(workload, &args);
    println!("{}", result.to_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger: {} failed its correctness gate", workload.name());
        ExitCode::from(2)
    }
}
