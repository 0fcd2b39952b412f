//! A stencil app states its reach and the platform frames its Env: whoever
//! runs `IrStencilApp` through `runtime::execute` on a DSL system — the
//! service, `Platform`, an example, a bin — gets the Env framed as wide as
//! the program reaches, with no frame set by the caller, so every block runs
//! in place.  The same app on a hand-built unframed Env runs every block
//! through the scratch's tile, and leaves the same checksum bits.

use aohpc::runtime::{execute, new_checksum_sink};
use aohpc_kernel::ScratchPool;
use aohpc_suite::prelude::*;
use std::sync::Arc;

const STEPS: usize = 3;

/// The checksum bits of `program` run for [`STEPS`] sweeps on `system`,
/// the Env built by the system's own factory (`framed`) or by hand with no
/// frame, and the tile length of the scratch the run returned to its pool.
fn run<S>(system: S, program: StencilProgram, framed: bool) -> (u64, usize)
where
    S: DslSystem<Cell = f64> + 'static,
{
    let pool = ScratchPool::new(1);
    let sink = new_checksum_sink();
    let app = IrStencilApp::new(program, vec![0.5, 0.125], STEPS)
        .with_scratch_pool(Arc::clone(&pool))
        .with_checksum_sink(sink.clone());
    let system = Arc::new(system);
    let env = if framed { system.env_factory() } else { Arc::new(move |_| system.build_env()) };
    let report = execute(&RunConfig::serial(), WovenProgram::unwoven(), env, app.factory());
    assert!(report.tasks.iter().all(|t| t.steps == STEPS as u64));
    let bits = sink.lock().value().to_bits();
    (bits, pool.acquire().tile_len())
}

#[test]
fn a_stencil_app_runs_in_place_with_no_frame_set_by_its_caller() {
    let region = RegionSize { nx: 40, ny: 24 };
    let sgrid = || SGridSystem::with_block_size(region, 8);
    let usgrid = || UsGridValueSystem(UsGridSystem::with_block_size(region, 8, GridLayout::CaseC));
    let jacobi = StencilProgram::jacobi_5pt();
    let lowered = UsGridProgram::jacobi4().to_stencil();
    for (what, framed, unframed) in [
        ("sgrid jacobi", run(sgrid(), jacobi.clone(), true), run(sgrid(), jacobi, false)),
        ("usgrid jacobi4", run(usgrid(), lowered.clone(), true), run(usgrid(), lowered, false)),
    ] {
        assert_eq!(framed.1, 0, "{what}: every block ran in place, no tile sized");
        assert!(unframed.1 > 0, "{what}: the unframed Env runs the tile path");
        assert_eq!(framed.0, unframed.0, "{what}: the in-place and tile paths' checksum bits");
    }
}
