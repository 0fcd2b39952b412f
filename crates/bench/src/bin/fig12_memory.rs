//! Fig. 12 — memory usage at execution: unused memory pool, used memory pool
//! and other working memory, for Handwritten and for every platform build
//! configuration (512² regions / 2¹⁴ particles / 300 MB pool in the paper).

use aohpc::prelude::*;
use aohpc_baselines::{HandwrittenParticle, HandwrittenSGrid, HandwrittenUsGrid};
use aohpc_bench::grid_init;
use std::sync::Arc;

struct Row {
    label: String,
    unused_pool_mb: f64,
    used_pool_mb: f64,
    working_mb: f64,
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn platform_rows(
    name: &str,
    pool_bytes: u64,
    run: impl Fn(ExecutionMode) -> aohpc::RunOutcome,
) -> Vec<Row> {
    let modes = [
        ExecutionMode::PlatformDirect,
        ExecutionMode::PlatformNop,
        ExecutionMode::PlatformOmp { threads: 1 },
        ExecutionMode::PlatformMpi { ranks: 1 },
        ExecutionMode::PlatformHybrid { ranks: 1, threads: 1 },
    ];
    let short = ["P", "P NOP", "P OMP", "P MPI", "P MPI+OMP"];
    modes
        .iter()
        .zip(short)
        .map(|(mode, label)| {
            let outcome = run(*mode);
            let used = outcome.report.pool_stats.used;
            Row {
                label: format!("{name} {label}"),
                unused_pool_mb: mb(pool_bytes.saturating_sub(used)),
                used_pool_mb: mb(used),
                working_mb: mb(outcome.report.working_memory_bytes() as u64),
            }
        })
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let region = scale.fig12_region();
    let particles = scale.fig12_particles();
    let pool_bytes = scale.fig12_pool_bytes();
    let block = scale.grid_block_size();
    let loops = 3usize;

    println!("# Fig. 12 — memory usage (MB), scale = {scale}, pool = {:.0} MB", mb(pool_bytes));
    println!("{:<28} {:>14} {:>14} {:>14}", "configuration", "unused pool", "used pool", "working");

    let mut rows: Vec<Row> = Vec::new();

    // Handwritten baselines: no pool, only working memory.
    let (grid, _) = HandwrittenSGrid::new(region, loops, grid_init).run();
    rows.push(Row {
        label: "SGrid H".into(),
        unused_pool_mb: 0.0,
        used_pool_mb: 0.0,
        working_mb: mb(grid.bytes() as u64),
    });
    let (us, _) = HandwrittenUsGrid::new(region, GridLayout::CaseC, loops, grid_init).run();
    rows.push(Row {
        label: "USGrid H".into(),
        unused_pool_mb: 0.0,
        used_pool_mb: 0.0,
        // value + 4 neighbour indices per point, double buffered.
        working_mb: mb((us.len() * (8 + 4 * 8) * 2) as u64),
    });
    let (speeds, _) = HandwrittenParticle::new(particles, loops).run();
    rows.push(Row {
        label: "Particle H".into(),
        unused_pool_mb: 0.0,
        used_pool_mb: 0.0,
        working_mb: mb((speeds.len()
            * 16
            * std::mem::size_of::<aohpc_baselines::particle::BaselineParticle>())
            as u64),
    });

    // Platform: SGrid.
    rows.extend(platform_rows("SGrid", pool_bytes, |mode| {
        let mut system = SGridSystem::with_block_size(region, block);
        system.pool_bytes = Some(pool_bytes);
        let app = SGridJacobiApp::new(loops, block);
        Platform::new(mode).run_system(Arc::new(system), app.factory())
    }));
    // Platform: USGrid CaseC (CaseC and CaseR share one binary and one memory
    // footprint in the paper; MMAT adds working memory, reported separately).
    // This is the Fig. 5b reference app: every cell stores its neighbours'
    // addresses.
    rows.extend(platform_rows("USGrid", pool_bytes, |mode| {
        let mut system = UsGridSystem::with_block_size(region, block, GridLayout::CaseC);
        system.pool_bytes = Some(pool_bytes);
        let app = UsGridJacobiApp::new(system.clone(), loops);
        Platform::new(mode).with_mmat(true).run_system(Arc::new(system), app.factory())
    }));
    // The same region on the value plane — what the service runs for a usgrid
    // job: 8-byte cells in the pool instead of 72-byte ones (256² in blocks
    // of 64, two buffers: 9.4 MB -> 1.0 MB).  Both apps keep their per-block
    // plans (four `u32` slots a point) app-side, in neither column.
    let jacobi4 = UsGridProgram::jacobi4();
    let kernel =
        aohpc_kernel::UsGridKernel::compile(&jacobi4, Extent::new2d(block, block), OptLevel::Full);
    rows.extend(platform_rows("USGrid values", pool_bytes, |mode| {
        let mut system = UsGridSystem::with_block_size(region, block, GridLayout::CaseC);
        system.pool_bytes = Some(pool_bytes);
        let law = UsBlockLaw(kernel.block_law(0.5, 0.125));
        let app = UsGridValueApp::new(system.clone(), jacobi4.neighbors().to_vec(), law, loops);
        let system = Arc::new(UsGridValueSystem(system));
        Platform::new(mode).with_mmat(true).run_system(system, app.factory())
    }));
    // Platform: Particle.
    rows.extend(platform_rows("Particle", pool_bytes, |mode| {
        let mut system = ParticleSystem::paper(particles);
        system.pool_bytes = Some(pool_bytes);
        let app = ParticleApp::new(system.clone(), loops);
        Platform::new(mode).run_system(Arc::new(system), app.factory())
    }));

    for row in rows {
        println!(
            "{:<28} {:>14.2} {:>14.2} {:>14.2}",
            row.label, row.unused_pool_mb, row.used_pool_mb, row.working_mb
        );
    }
    println!();
    println!("(paper: platform configurations use several-to-dozens times more working memory than handwritten, due to the Env structure and MMAT)");
}
