//! The slab and run access paths must not buy speed by dropping accounting.
//!
//! `IrStencilApp` moves whole blocks through `TaskCtx::{get_block_dd,
//! set_block, set_initial_block}` and fetches its halo ring with one
//! `TaskCtx::get_run` per edge; `SGridJacobiApp` is the paper's Listing-1
//! kernel, one platform call per cell.  Both run the same mathematics on the
//! same platform, so the fields must agree bit for bit, and the IR run's
//! access counters must read exactly what the per-cell loops read — except
//! the two search counters, which count the searches that actually ran.

use aohpc::env::AccessCounters;
use aohpc::prelude::*;
use aohpc_kernel::prelude::*;
use aohpc_kernel::{default_initial_value, load, param};
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

fn system() -> Arc<SGridSystem> {
    Arc::new(SGridSystem::with_block_size(RegionSize::square(REGION), BLOCK))
}

fn classic_field(mode: ExecutionMode) -> Vec<u64> {
    let sink = new_field_sink();
    let app = SGridJacobiApp::new(STEPS, BLOCK).with_sink(sink.clone());
    Platform::new(mode).run_system(system(), app.factory());
    let field = dense_bits(&sink.lock());
    field
}

/// Jacobi-5pt with the neighbours summed in Listing 1's order (E, W, S, N):
/// the stock `jacobi_5pt` sums N, W, E, S, which rounds differently.
fn listing1_jacobi() -> StencilProgram {
    let expr =
        param(0) * load(0, 0) + param(1) * (load(1, 0) + load(-1, 0) + load(0, 1) + load(0, -1));
    StencilProgram::new("jacobi-5pt-listing1", expr, 2).expect("valid program")
}

fn ir_run(
    mode: ExecutionMode,
    program: StencilProgram,
    params: Vec<f64>,
) -> (Vec<u64>, AccessCounters) {
    let sink = new_stencil_field_sink();
    let app = IrStencilApp::new(program, params, STEPS).with_field_sink(sink.clone());
    let outcome = Platform::new(mode).run_system(system(), app.factory());
    assert!(outcome.report.tasks.iter().all(|t| t.steps == STEPS as u64), "{}", mode.label());
    let field = dense_bits(&sink.lock());
    (field, outcome.report.total_counters())
}

/// The counters of the per-cell loops: 4 sweeps (warm-up + 3 steps) x (1024
/// gathers + 512 halo reads), 1024 writes a sweep; every field not named is
/// 0.  All but the two search counters were captured at the commit before
/// the slab calls and have not moved since.
///
/// The searches are those that ran.  A block's halo is four runs of 8 cells.
/// Of a sweep's 16 x 4 = 64 runs, 48 lie along a neighbour block: the leading
/// cell is searched for, the other 7 are served from the block it found.
/// From block `k` (row-major in the flat joint) the search visits the start,
/// then the siblings in order, so it finds neighbour `k'` after `k' + 2`
/// nodes if `k' < k` and `k' + 1` if `k' > k`: 432 nodes over the 48 runs.
/// The other 16 runs leave the domain; the boundary is an Arithmetic block,
/// not a buffer, so each of their 8 cells is the per-cell call: a search of
/// 18 nodes (the start, 15 siblings, the boundary branch, the catch-all).
///
///   env_searches         = 4 x (48 + 16 x 8)            =   704
///   search_nodes_visited = 4 x (432 + 16 x 8 x 18)      = 10944
///
/// (One search per read — 4 x 512 = 2048 searches, 4 x (8 x 432 + 128 x 18)
/// = 23040 nodes — is what the per-cell halo closure read, and still reads:
/// see `closure_adaptor_*` below.)
fn golden(missing_accesses: u64) -> AccessCounters {
    AccessCounters {
        reads: 6144,
        writes: 4096,
        skip_search_hits: 4096,
        env_searches: 704,
        search_nodes_visited: 10944,
        out_of_block_reads: 2048,
        arithmetic_reads: 512,
        missing_accesses,
        ..AccessCounters::default()
    }
}

#[test]
fn serial_slab_run_matches_the_per_cell_kernel_and_the_golden_counters() {
    let mode = ExecutionMode::PlatformNop;
    let (field, counters) = ir_run(mode, listing1_jacobi(), vec![0.5, 0.125]);
    assert_eq!(field, classic_field(mode), "IR field differs from the Listing-1 kernel");
    assert_eq!(counters, golden(0));
}

#[test]
fn hybrid_slab_run_matches_the_per_cell_kernel_and_the_golden_counters() {
    // The warm-up sweep of each rank finds the other rank's halo pages
    // missing (64 reads) before the Dry-run plan prefetches them.
    let mode = ExecutionMode::PlatformHybrid { ranks: 2, threads: 2 };
    let (field, counters) = ir_run(mode, listing1_jacobi(), vec![0.5, 0.125]);
    assert_eq!(field, classic_field(mode), "IR field differs from the Listing-1 kernel");
    assert_eq!(counters, golden(64));
}

/// `IrStencilApp` with the halo fetched the old way: the compiled kernel's
/// closure entry point, one `ctx.get` per ring cell.
#[derive(Clone)]
struct ClosureHaloApp {
    program: StencilProgram,
    params: Vec<f64>,
    sink: StencilFieldSink,
}

impl HpcApp<f64> for ClosureHaloApp {
    fn loop_count(&self) -> usize {
        STEPS
    }

    fn initialize(&mut self, ctx: &mut TaskCtx<f64>) {
        ctx.initialize_owned(default_initial_value);
    }

    fn kernel(&mut self, ctx: &mut TaskCtx<f64>, _warmup: bool) -> bool {
        for bid in ctx.get_blocks() {
            let extent = ctx.env().block(bid).meta.extent;
            let compiled = CompiledKernel::compile(&self.program, extent, OptLevel::Full);
            let mut cells = vec![0.0; extent.cells()];
            let mut out = vec![0.0; extent.cells()];
            ctx.get_block_dd(bid, &mut cells);
            compiled.execute_block(
                &cells,
                &self.params,
                &mut |x, y| ctx.get(bid, LocalAddress::new2d(x, y), false),
                &mut out,
                Processor::Scalar,
                &mut ExecStats::default(),
                &mut ExecScratch::new(),
            );
            ctx.set_block(bid, &out);
        }
        ctx.refresh()
    }

    fn finalize(&mut self, ctx: &mut TaskCtx<f64>) {
        ctx.deposit_owned(&self.sink, |v| *v);
    }
}

fn closure_run(
    mode: ExecutionMode,
    program: StencilProgram,
    params: Vec<f64>,
) -> (Vec<u64>, AccessCounters) {
    let sink = new_stencil_field_sink();
    let app = ClosureHaloApp { program, params, sink: sink.clone() };
    let outcome = Platform::new(mode).run_system(system(), Arc::new(move |_| app.clone()));
    let field = dense_bits(&sink.lock());
    (field, outcome.report.total_counters())
}

/// The run-read halo against the per-cell halo, program by program: the same
/// field, the same counters cell for cell, and only the searches fewer.
fn run_reads_match_the_closure_adaptor(mode: ExecutionMode) {
    let programs = [
        (StencilProgram::jacobi_5pt(), vec![0.5, 0.125]),
        (StencilProgram::smooth_9pt(), vec![0.6, 0.05]),
    ];
    for (program, params) in programs {
        let name = program.name().to_string();
        let (field, counters) = ir_run(mode, program.clone(), params.clone());
        let (oracle_field, oracle) = closure_run(mode, program, params);
        assert_eq!(field, oracle_field, "{name} {}: fields differ", mode.label());
        assert_eq!(
            oracle.env_searches, oracle.out_of_block_reads,
            "{name}: the closure adaptor searches once per out-of-block read"
        );
        assert!(counters.env_searches < oracle.env_searches, "{name}: {counters:?}");
        assert!(counters.search_nodes_visited < oracle.search_nodes_visited, "{name}");
        let searches_aside =
            |c: AccessCounters| AccessCounters { env_searches: 0, search_nodes_visited: 0, ..c };
        assert_eq!(searches_aside(counters), searches_aside(oracle), "{name} {}", mode.label());
    }
}

#[test]
fn closure_adaptor_matches_the_run_reads_serial() {
    run_reads_match_the_closure_adaptor(ExecutionMode::PlatformNop);
}

#[test]
fn closure_adaptor_matches_the_run_reads_hybrid() {
    run_reads_match_the_closure_adaptor(ExecutionMode::PlatformHybrid { ranks: 2, threads: 2 });
}
