//! Extension harness — subkernel IR, access-resolution cache and
//! heterogeneous backends (the paper's future-work §VI).
//!
//! Prints (a) the optimizer's effect on a deliberately redundant program,
//! (b) the per-backend execution statistics of a heterogeneous hybrid run,
//! and (c) the platform-access saving of the resolution cache against the
//! classic Listing-1-style kernel.  Regenerates the "Subkernel IR" table of
//! EXPERIMENTS.md.

use aohpc::prelude::*;
use aohpc_kernel::prelude::*;
use aohpc_kernel::{lit, load, param, Processor};
use std::sync::Arc;

fn main() {
    let scale = Scale::from_env();
    let region = scale.scaling_region();
    let block = scale.grid_block_size();
    let loops = scale.loop_count();

    println!("# Extension — subkernel IR / heterogeneous backends (future work §VI), SGrid {}, scale = {scale}", region.nx);

    // (a) Optimizer.
    let redundant = (param(0) * load(0, 0) + lit(0.0)) * lit(1.0)
        + param(1) * (load(0, -1) + load(-1, 0) + load(1, 0) + load(0, 1))
        + (load(0, 0) - load(0, 0)) * lit(3.0);
    let program = StencilProgram::new("redundant-jacobi", redundant, 2).unwrap();
    let plain = Dag::lower(program.expr(), OptLevel::None);
    let optimized = Dag::optimized(program.expr());
    println!(
        "optimizer: {} tree nodes -> {} DAG nodes (CSE only) -> {} DAG nodes (full: {} folds, {} identities)",
        optimized.stats().tree_nodes,
        plain.len(),
        optimized.len(),
        optimized.stats().constants_folded,
        optimized.stats().identities_simplified
    );

    // (b) Heterogeneous hybrid run of the clean Jacobi program.
    let stats_sink = new_stats_sink();
    let system = Arc::new(SGridSystem::with_block_size(region, block));
    let app = IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![0.5, 0.125], loops)
        .with_dispatcher(HeteroDispatcher::new(SchedulePolicy::Weighted(vec![
            (Processor::Simd, 3.0),
            (Processor::Scalar, 1.0),
        ])))
        .with_stats_sink(stats_sink.clone());
    let outcome = Platform::new(ExecutionMode::PlatformHybrid { ranks: 2, threads: 2 })
        .run_system(system, app.factory());
    println!(
        "heterogeneous MPI 2 x OMP 2 run: {} tasks, {} pages shipped, simulated {:.3} ms",
        outcome.report.tasks.len(),
        outcome.report.total_pages_sent(),
        outcome.simulated_seconds * 1e3
    );
    println!(
        "{:<14} {:>8} {:>12} {:>12} {:>12} {:>14}",
        "backend", "blocks", "cells", "scalar ops", "vector ops", "halo fetches"
    );
    for (name, s) in stats_sink.lock().iter() {
        println!(
            "{:<14} {:>8} {:>12} {:>12} {:>12} {:>14}",
            name, s.blocks, s.cells, s.scalar_ops, s.vector_ops, s.halo_fetches
        );
    }

    // (c) Resolution cache vs the classic kernel on the platform access path.
    let classic = {
        let system = Arc::new(SGridSystem::with_block_size(region, block));
        Platform::new(ExecutionMode::PlatformDirect)
            .run_system(system, SGridJacobiApp::new(loops, block).factory())
            .report
            .total_counters()
    };
    let ir = {
        let system = Arc::new(SGridSystem::with_block_size(region, block));
        let app = IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![0.5, 0.125], loops);
        Platform::new(ExecutionMode::PlatformDirect)
            .run_system(system, app.factory())
            .report
            .total_counters()
    };
    println!();
    println!(
        "resolution cache: classic kernel {} platform reads, IR app {} ({:.2}x fewer)",
        classic.reads,
        ir.reads,
        classic.reads as f64 / ir.reads.max(1) as f64
    );
}
