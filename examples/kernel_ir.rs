//! The subkernel internal DSL (the paper's future-work §VI): write the
//! per-cell update as an expression, let the platform compile it, and execute
//! it heterogeneously on scalar and SIMD-lane backends — all under the same MPI+OpenMP aspect modules as a hand-written kernel.
//!
//! ```sh
//! cargo run --release --example kernel_ir
//! ```

use aohpc::prelude::*;
use aohpc_kernel::prelude::*;
use aohpc_kernel::{load, param, Processor};
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

    // 3. Run it on the platform, heterogeneously: SIMD lanes take three
    //    quarters of the blocks, scalar cores the rest — under the
    //    MPI+OpenMP hybrid aspect weave.
    let region = RegionSize::square(128);
    let system = Arc::new(SGridSystem::with_block_size(region, 16));
    let stats_sink = new_stats_sink();
    let field_sink = new_stencil_field_sink();
    let app = app
        .with_dispatcher(HeteroDispatcher::new(SchedulePolicy::Weighted(vec![
            (Processor::Simd, 3.0),
            (Processor::Scalar, 1.0),
        ])))
        .with_stats_sink(stats_sink.clone())
        .with_field_sink(field_sink.clone());
    let outcome = Platform::new(ExecutionMode::PlatformHybrid { ranks: 2, threads: 2 })
        .run_system(system, app.factory());

    println!(
        "run            : {} tasks, {} pages shipped, simulated time {:.3} ms",
        outcome.report.tasks.len(),
        outcome.report.total_pages_sent(),
        outcome.simulated_seconds * 1e3
    );

    println!(
        "{:<14} {:>10} {:>12} {:>12} {:>12} {:>14}",
        "backend", "blocks", "cells", "scalar ops", "vector ops", "halo fetches"
    );
    for (name, stats) in stats_sink.lock().iter() {
        println!(
            "{:<14} {:>10} {:>12} {:>12} {:>12} {:>14}",
            name, stats.blocks, stats.cells, stats.scalar_ops, stats.vector_ops, stats.halo_fetches
        );
    }

    let checksum: f64 = field_sink.lock().iter().map(|(_, v)| v).sum();
    println!("field checksum : {checksum:.6}");
    println!(
        "\nThe same woven MPI+OpenMP aspect modules ran an IR-compiled kernel — the subkernel \
         generator is a DSL-part concern, invisible to the aspect layer."
    );
}
