//! The subkernel internal DSL (the paper's future-work §VI): write the
//! per-cell update as an expression, let the platform compile it, and run it
//! under the same MPI+OpenMP aspect modules as a hand-written kernel.
//!
//! ```sh
//! cargo run --release --example kernel_ir
//! ```

use aohpc::prelude::*;
use aohpc_kernel::prelude::*;
use aohpc_kernel::{load, param};
use std::sync::Arc;

fn main() {
    // 1. The subkernel as an expression: alpha * centre + beta * (N + W + E + S).
    let expr =
        param(0) * load(0, 0) + param(1) * (load(0, -1) + load(-1, 0) + load(1, 0) + load(0, 1));
    let program = StencilProgram::new("jacobi-5pt", expr, 2).expect("valid subkernel");
    println!("subkernel      : {program}");

    // 2. What the optimizer did to it.
    let app = IrStencilApp::new(program.clone(), vec![0.5, 0.125], 8);
    let opt = app.opt_stats();
    println!(
        "optimizer      : {} tree nodes -> {} DAG nodes ({} CSE merges, {} folds, {} identities)",
        opt.tree_nodes,
        opt.dag_nodes,
        opt.cse_merges,
        opt.constants_folded,
        opt.identities_simplified
    );

    // 3. Run it on the platform under the MPI+OpenMP hybrid aspect weave.
    let region = RegionSize::square(128);
    let system = Arc::new(SGridSystem::with_block_size(region, 16));
    let field_sink = new_stencil_field_sink();
    let app = app.with_field_sink(field_sink.clone());
    let outcome = Platform::new(ExecutionMode::PlatformHybrid { ranks: 2, threads: 2 })
        .run_system(system, app.factory());
    let counters = outcome.report.total_counters();
    println!(
        "run            : {} tasks, {} pages shipped, {} reads, {} writes, simulated time {:.3} ms",
        outcome.report.tasks.len(),
        outcome.report.total_pages_sent(),
        counters.reads,
        counters.writes,
        outcome.simulated_seconds * 1e3
    );

    let checksum: f64 = field_sink.lock().iter().map(|(_, v)| v).sum();
    println!("field checksum : {checksum:.6}");
    println!(
        "\nThe same woven MPI+OpenMP aspect modules ran an IR-compiled kernel — the subkernel \
         generator is a DSL-part concern, invisible to the aspect layer."
    );
}
