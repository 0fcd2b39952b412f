//! The slab access path must not buy speed by dropping accounting.
//!
//! `IrStencilApp` moves whole blocks through `TaskCtx::{get_block_dd,
//! set_block, set_initial_block}`; `SGridJacobiApp` is the paper's Listing-1
//! kernel, one platform call per cell.  Both run the same mathematics on the
//! same platform, so the fields must agree bit for bit, and the IR run's
//! access counters must read exactly what the per-cell gather/scatter loops
//! read before the slab calls replaced them (golden values captured then).

use aohpc::env::AccessCounters;
use aohpc::prelude::*;
use aohpc_kernel::prelude::*;
use aohpc_kernel::{load, param};
use std::sync::Arc;

const REGION: usize = 32;
const BLOCK: usize = 8;
const STEPS: usize = 3;

/// The sink's `(address, value)` pairs as a dense row-major field of bits.
fn dense_bits(pairs: &[(GlobalAddress, f64)]) -> Vec<u64> {
    let mut field = vec![u64::MAX; REGION * REGION];
    for (addr, v) in pairs {
        field[addr.y as usize * REGION + addr.x as usize] = v.to_bits();
    }
    field
}

fn classic_field(mode: ExecutionMode) -> Vec<u64> {
    let system = Arc::new(SGridSystem::with_block_size(RegionSize::square(REGION), BLOCK));
    let sink = new_field_sink();
    let app = SGridJacobiApp::new(STEPS, BLOCK).with_sink(sink.clone());
    Platform::new(mode).run_system(system, app.factory());
    let field = dense_bits(&sink.lock());
    field
}

fn ir_run(mode: ExecutionMode) -> (Vec<u64>, AccessCounters) {
    let system = Arc::new(SGridSystem::with_block_size(RegionSize::square(REGION), BLOCK));
    let sink = new_stencil_field_sink();
    // Jacobi-5pt with the neighbours summed in Listing 1's order (E, W, S, N):
    // the stock `jacobi_5pt` sums N, W, E, S, which rounds differently.
    let expr =
        param(0) * load(0, 0) + param(1) * (load(1, 0) + load(-1, 0) + load(0, 1) + load(0, -1));
    let program = StencilProgram::new("jacobi-5pt-listing1", expr, 2).expect("valid program");
    let app = IrStencilApp::new(program, vec![0.5, 0.125], STEPS).with_field_sink(sink.clone());
    let outcome = Platform::new(mode).run_system(system, app.factory());
    assert!(outcome.report.tasks.iter().all(|t| t.steps == STEPS as u64), "{}", mode.label());
    let field = dense_bits(&sink.lock());
    (field, outcome.report.total_counters())
}

/// Captured at the commit before the slab calls (per-cell gather/scatter):
/// 4 sweeps (warm-up + 3 steps) x (1024 gathers + 512 halo reads), 1024 writes
/// a sweep.  Every field not named is 0.
fn golden(missing_accesses: u64) -> AccessCounters {
    AccessCounters {
        reads: 6144,
        writes: 4096,
        skip_search_hits: 4096,
        env_searches: 2048,
        search_nodes_visited: 23040,
        out_of_block_reads: 2048,
        arithmetic_reads: 512,
        missing_accesses,
        ..AccessCounters::default()
    }
}

#[test]
fn serial_slab_run_matches_the_per_cell_kernel_and_the_golden_counters() {
    let mode = ExecutionMode::PlatformNop;
    let (field, counters) = ir_run(mode);
    assert_eq!(field, classic_field(mode), "IR field differs from the Listing-1 kernel");
    assert_eq!(counters, golden(0));
}

#[test]
fn hybrid_slab_run_matches_the_per_cell_kernel_and_the_golden_counters() {
    // The warm-up sweep of each rank finds the other rank's halo pages
    // missing (64 reads) before the Dry-run plan prefetches them.
    let mode = ExecutionMode::PlatformHybrid { ranks: 2, threads: 2 };
    let (field, counters) = ir_run(mode);
    assert_eq!(field, classic_field(mode), "IR field differs from the Listing-1 kernel");
    assert_eq!(counters, golden(64));
}
