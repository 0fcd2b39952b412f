//! Every kernel family runs through the service's one execute path, under
//! every topology, and gives the bits of the direct DSL run.
//!
//! One job per family (jacobi-5pt, smooth-9pt, usgrid jacobi4, particle pair
//! sweep) × {serial, 2 ranks, 2 threads, 2×2} through `KernelService`:
//!
//! * the checksum equals the serial job's and the direct `Platform` run's,
//!   bit for bit — the layer aspects must be typed on the family's own cell
//!   (`f64`, `UsCell`, `Bucket`) or ranks never exchange and threads never
//!   meet at the barrier;
//! * the summary shows the topology that was asked for, every step done, and
//!   no retries where the direct run needed none;
//! * the serial job's counters and simulated time equal the values captured
//!   before the three per-family execute functions were folded into one, so
//!   the fold is observable for observable.

use aohpc_suite::prelude::*;
use aohpc_suite::{ExecutionMode, Platform};
use std::sync::Arc;

const STEPS: usize = 3;
const BLOCK: usize = 8;
const TOPOLOGIES: [(usize, usize); 4] = [(1, 1), (2, 1), (1, 2), (2, 2)];

/// The serial job's observables at the commit before the fold.
struct Golden {
    reads: u64,
    writes: u64,
    dispatches: u64,
    simulated_seconds_bits: u64,
}

/// The direct-path mode weaving exactly the aspects the service weaves for a
/// `ranks × threads` job.
fn mode(ranks: usize, threads: usize) -> ExecutionMode {
    match (ranks, threads) {
        (1, 1) => ExecutionMode::PlatformNop,
        (_, 1) => ExecutionMode::PlatformMpi { ranks },
        (1, _) => ExecutionMode::PlatformOmp { threads },
        _ => ExecutionMode::PlatformHybrid { ranks, threads },
    }
}

/// Run `app` on `system` straight through the platform facade; the checksum
/// of what `Finalize` deposited in `sink`, and the run's summary.
fn direct<S, A>(
    mode: ExecutionMode,
    system: S,
    app: Arc<dyn Fn(TaskSlot) -> A + Send + Sync>,
    sink: &FieldSink,
) -> (f64, RunSummary)
where
    S: DslSystem + 'static,
    A: HpcApp<S::Cell> + 'static,
{
    let outcome = Platform::new(mode).run_system(Arc::new(system), app);
    (checksum(sink.lock().iter().map(|(_, v)| *v)), outcome.report.summary())
}

fn direct_stencil(spec: &JobSpec, mode: ExecutionMode) -> (f64, RunSummary) {
    let program = spec.program.as_stencil().expect("stencil job").clone();
    let sink = new_field_sink();
    let app =
        IrStencilApp::new(program, spec.params.clone(), spec.steps).with_field_sink(sink.clone());
    direct(mode, SGridSystem::with_block_size(spec.region, spec.block), app.factory(), &sink)
}

fn direct_usgrid(spec: &JobSpec, mode: ExecutionMode) -> (f64, RunSummary) {
    let system = UsGridSystem::with_block_size(spec.region, spec.block, GridLayout::CaseC);
    let sink = new_field_sink();
    let mut app = UsGridJacobiApp::new(system.clone(), spec.steps).with_sink(sink.clone());
    app.alpha = spec.params[0];
    app.beta = spec.params[1];
    direct(mode, system, app.factory(), &sink)
}

fn direct_particle(spec: &JobSpec, mode: ExecutionMode) -> (f64, RunSummary) {
    let count = spec.particles.expect("particle job carries its count");
    let system = ParticleSystem::paper(ParticleSize::new(count));
    let sink = new_field_sink();
    let mut app = ParticleApp::new(system.clone(), spec.steps)
        .with_dt(spec.params[1])
        .with_sink(sink.clone());
    app.radius = spec.params[0];
    direct(mode, system, app.factory(), &sink)
}

fn check(
    spec: JobSpec,
    direct_run: fn(&JobSpec, ExecutionMode) -> (f64, RunSummary),
    golden: Golden,
) {
    let service = KernelService::new(ServiceConfig::default().with_workers(1));
    let session = service.open_session(SessionSpec::tenant("paths"));
    let name = spec.program.name().to_string();
    let mut serial_bits = None;
    for (ranks, threads) in TOPOLOGIES {
        let at = format!("{name} {ranks}x{threads}");
        let job = spec.clone().with_topology(Topology::hybrid(ranks, threads));
        let report = service.submit(session, job).unwrap().wait().expect("job resolves");
        assert_eq!(report.error, None, "{at}");
        let summary = &report.summary;
        if (ranks, threads) == (1, 1) {
            assert_eq!(
                (
                    summary.reads,
                    summary.writes,
                    summary.dispatches,
                    report.simulated_seconds.to_bits()
                ),
                (golden.reads, golden.writes, golden.dispatches, golden.simulated_seconds_bits),
                "{at}: (reads, writes, dispatches, simulated_seconds bits)"
            );
        }
        assert_eq!(
            (summary.ranks, summary.tasks, summary.steps),
            (ranks, ranks * threads, spec.steps as u64),
            "{at}: (ranks, tasks, steps)"
        );
        let serial = *serial_bits.get_or_insert(report.checksum.to_bits());
        assert_eq!(report.checksum.to_bits(), serial, "{at}: checksum vs the serial job");
        let (direct_checksum, direct_summary) = direct_run(&spec, mode(ranks, threads));
        assert_eq!(report.checksum.to_bits(), direct_checksum.to_bits(), "{at}: vs direct run");
        assert_eq!(direct_summary.steps, spec.steps as u64, "{at}: direct run finished");
        if direct_summary.retries == 0 {
            assert_eq!(summary.retries, 0, "{at}: retries");
        }
    }
}

fn stencil_job(program: StencilProgram, params: Vec<f64>) -> JobSpec {
    JobSpec::new(program, params, RegionSize::square(32)).with_block(BLOCK).with_steps(STEPS)
}

#[test]
fn jacobi_5pt_matches_the_direct_run_under_every_topology() {
    check(
        stencil_job(StencilProgram::jacobi_5pt(), vec![0.5, 0.125]),
        direct_stencil,
        Golden {
            reads: 6144,
            writes: 4096,
            dispatches: 17,
            simulated_seconds_bits: 0x3f358df590543a58,
        },
    );
}

#[test]
fn smooth_9pt_matches_the_direct_run_under_every_topology() {
    check(
        stencil_job(StencilProgram::smooth_9pt(), vec![0.6, 0.05]),
        direct_stencil,
        Golden {
            reads: 6400,
            writes: 4096,
            dispatches: 17,
            simulated_seconds_bits: 0x3f3b3daf493f7547,
        },
    );
}

#[test]
fn usgrid_jacobi4_matches_the_direct_run_under_every_topology() {
    // 20x20 in blocks of 8: ragged edge blocks, nine blocks over two ranks.
    let spec = JobSpec::new(UsGridProgram::jacobi4(), vec![0.5, 0.125], RegionSize::square(20))
        .with_block(BLOCK)
        .with_steps(STEPS);
    check(
        spec,
        direct_usgrid,
        Golden {
            reads: 8000,
            writes: 1600,
            dispatches: 17,
            simulated_seconds_bits: 0x3f2b3df4016f15e3,
        },
    );
}

#[test]
fn particle_pair_sweep_matches_the_direct_run_under_every_topology() {
    // 1000 particles: a 16x16 bucket grid, four blocks of 8x8 buckets.
    let system = ParticleSystem::paper(ParticleSize::new(1000));
    let region = RegionSize { nx: system.buckets_x, ny: system.buckets_y };
    let spec = JobSpec::new(ParticleProgram::pair_sweep(), vec![1.0, 1e-3], region)
        .with_block(BLOCK)
        .with_steps(STEPS)
        .with_particles(1000);
    check(
        spec,
        direct_particle,
        Golden {
            reads: 10240,
            writes: 1024,
            dispatches: 17,
            simulated_seconds_bits: 0x3f2b5c8e06a49b10,
        },
    );
}
