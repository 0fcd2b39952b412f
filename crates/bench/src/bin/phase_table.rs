//! Where a job's time goes, phase by phase, read from its trace alone.
//!
//! Eight job shapes run through a one-worker observed [`KernelService`], one
//! shape at a time, so the allocator and the caches are in the service's
//! steady state: the three stock jobs of the layer ledger (`benchmark/`:
//! `sgrid_jacobi` 512² block 64, `usgrid_jacobi` CaseC 256² block 64,
//! `particle_sweep` 2^15 particles; 8 steps each), the four kinds of
//! `service_small_mix` that have a hand-written base (`jacobi64` 64² block
//! 16, 4 steps; `usgrid48` 48² block 16, 2 steps; `particle1k` 2^10
//! particles, 2 steps; `jacobi32` 32² block 16, 1 step), and the mix's
//! `smooth64` (`smooth_9pt`, 64² block 16, 4 steps: the second specialized
//! stencil shape, which has no hand-written base).  The apps timed are
//! the ones the service runs: `IrStencilApp`, `UsGridValueApp` (usgrid's
//! value plane — not the Fig. 5b reference `UsGridJacobiApp`, whose sweep
//! moves 72-byte cells) and `ParticleBlockApp` (particle's block app — not
//! the Listing-1 reference `ParticleApp`, which reads ten buckets a bucket);
//! for usgrid, "sweep 1" is a later sweep plus what a block's first pass
//! adds: its neighbour plan resolved from the program's offsets
//! (`Env::resolve_offsets`, CaseC) and the first touch of the app's scratch.
//! Every phase below is a span the woven `ObsRunAspect` recorded, or the gap
//! between two of them:
//!
//! * **set-up** — `Service::execute_spec` start → `Initialize` start: build
//!   the DSL system and the Env, weave the job's aspects;
//! * **Initialize**, each **sweep** (`Annotation::KernelStep`, the first one
//!   apart: it is the cache-cold one and looks its plans up), **Finalize**;
//! * **tail** — `Finalize` end → `Service::execute_spec` end: the checksum
//!   pass over the sink, the cost model, teardown;
//! * **sweeps %** — all sweeps together over the whole job.
//!
//! A single-rank job has exactly `steps` sweeps (`HpcApp::processing`), so
//! the phases add up to the execute span with nothing left over.  Beside
//! them, **hand-written** is the shape's hand-written code
//! (`aohpc_baselines`, initialisation + `steps` steps: the base the
//! benchmark divides by), timed as many times, before the first service
//! starts; **searches/sweep**, **nodes/sweep** are the Env searches a later
//! sweep runs and the tree nodes they visit, and **plan searches**, **plan
//! nodes** those run once a job, resolving usgrid's neighbour plans (each
//! off-block neighbour is searched for once, there) — from direct
//! `runtime::execute` runs of the app the service runs for the shape, of
//! `steps` and of `steps + 1` sweeps: a later sweep is their difference — so
//! a regression in the search count shows next to the time it costs.
//!
//! ```sh
//! cargo run --release -p aohpc-bench --bin phase_table     # 40 jobs a shape
//! AOHPC_SCALE=smoke cargo run --release -p aohpc-bench --bin phase_table  # 3
//! ```

use aohpc::dsl::{
    DslSystem, PairForce, ParticleBlockApp, ParticleSystem, SGridSystem, UsBlockLaw,
    UsGridJacobiApp, UsGridSystem, UsGridValueApp, UsGridValueSystem,
};
use aohpc::env::{Extent, GlobalAddress};
use aohpc::runtime::{execute, RunConfig};
use aohpc_aop::{names, Weaver};
use aohpc_baselines::{HandwrittenParticle, HandwrittenSGrid, HandwrittenUsGrid};
use aohpc_kernel::{
    default_initial_value, FamilyArtifact, IrStencilApp, OptLevel, ParticleProgram, StencilProgram,
    UsGridProgram,
};
use aohpc_obs::{SpanRecord, WallClock};
use aohpc_service::{FamilyProgram, JobSpec, KernelService, ObsHub, ServiceConfig, SessionSpec};
use aohpc_workloads::{GridLayout, ParticleSize, RegionSize, Scale};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const WARM_UP_JOBS: usize = 2;
const PHASES: [&str; 14] = [
    "job",
    "execute",
    "set-up",
    "Initialize",
    "sweep 1",
    "sweep 2..",
    "Finalize",
    "tail",
    "sweeps %",
    "hand-written",
    "searches/sweep",
    "nodes/sweep",
    "plan searches",
    "plan nodes",
];
/// The columns read from a job's trace: those before "hand-written".
const TRACED: usize = PHASES.len() - 5;

fn grid(program: impl Into<FamilyProgram>, side: usize, block: usize, steps: usize) -> JobSpec {
    JobSpec::new(program, vec![0.5, 0.125], RegionSize::square(side))
        .with_block(block)
        .with_steps(steps)
}

fn particle(count: usize, steps: usize) -> JobSpec {
    let buckets = ParticleSystem::paper(ParticleSize::new(count));
    JobSpec::new(
        ParticleProgram::pair_sweep(),
        vec![1.0, 1e-3],
        RegionSize { nx: buckets.buckets_x, ny: buckets.buckets_y },
    )
    .with_block(8)
    .with_steps(steps)
    .with_particles(count)
}

fn shapes() -> Vec<(&'static str, JobSpec)> {
    let jacobi = StencilProgram::jacobi_5pt;
    let usgrid = UsGridProgram::jacobi4;
    vec![
        ("sgrid_jacobi", grid(jacobi(), 512, 64, 8)),
        ("usgrid_jacobi", grid(usgrid(), 256, 64, 8)),
        ("particle_sweep", particle(1 << 15, 8)),
        ("jacobi64 b16 x4", grid(jacobi(), 64, 16, 4)),
        ("usgrid48 b16 x2", grid(usgrid(), 48, 16, 2)),
        ("particle1k x2", particle(1 << 10, 2)),
        ("jacobi32 b16 x1", grid(jacobi(), 32, 16, 1)),
        ("smooth64 b16 x4", grid(StencilProgram::smooth_9pt(), 64, 16, 4)),
    ]
}

fn stencil_init(x: i64, y: i64) -> f64 {
    default_initial_value(GlobalAddress::new2d(x, y))
}

/// One run of `spec`'s hand-written code, in seconds; NaN for a stencil
/// other than jacobi-5pt, which has none.
fn hand_written(spec: &JobSpec) -> f64 {
    let (region, steps) = (spec.region, spec.steps);
    let start = Instant::now();
    match &spec.program {
        FamilyProgram::Stencil(program) if *program != StencilProgram::jacobi_5pt() => {
            return f64::NAN;
        }
        FamilyProgram::Stencil(_) => {
            black_box(HandwrittenSGrid::new(region, steps, stencil_init).run());
        }
        FamilyProgram::UsGrid(_) => {
            let init = UsGridJacobiApp::initial_value;
            black_box(HandwrittenUsGrid::new(region, GridLayout::CaseC, steps, init).run());
        }
        FamilyProgram::Particle(_) => {
            let count = spec.particles.expect("particle shapes carry their count");
            black_box(HandwrittenParticle::new(ParticleSize::new(count), steps).run());
        }
    }
    start.elapsed().as_secs_f64()
}

/// The Env searches and the tree nodes they visit: a later sweep of
/// `spec`'s job, and what its job runs once (see the module docs).
fn searches(spec: &JobSpec) -> [u64; 4] {
    let [searches, nodes] = searches_over(spec, spec.steps);
    let [more_searches, more_nodes] = searches_over(spec, spec.steps + 1);
    let (sweep_searches, sweep_nodes) = (more_searches - searches, more_nodes - nodes);
    let steps = spec.steps as u64;
    [sweep_searches, sweep_nodes, searches - steps * sweep_searches, nodes - steps * sweep_nodes]
}

/// `(env_searches, search_nodes_visited)` of one direct run of `steps`
/// sweeps (on one rank) of the app the service runs for `spec`.  The
/// service's plan source, scratch pool and dispatcher are left out: none of
/// them moves a counter.
fn searches_over(spec: &JobSpec, steps: usize) -> [u64; 2] {
    let config = RunConfig::serial().with_topology(spec.topology.clone());
    let extent = Extent::new2d(spec.block, spec.block);
    let params = &spec.params;
    let report = match spec.program.compile(extent, OptLevel::Full) {
        FamilyArtifact::Stencil(_) => {
            let program = spec.program.as_stencil().expect("a stencil artifact").clone();
            let app = IrStencilApp::new(program, params.clone(), steps);
            let system = Arc::new(SGridSystem::with_block_size(spec.region, spec.block));
            execute(&config, Weaver::new().weave(), system.env_factory(), app.factory())
        }
        FamilyArtifact::Particle(kernel) => {
            let count = spec.particles.expect("particle shapes carry their count");
            let system = ParticleSystem::paper(ParticleSize::new(count));
            let law = PairForce(kernel.pair_law(params[0]));
            let app = ParticleBlockApp::new(system.clone(), law, steps).with_dt(params[1]);
            execute(&config, Weaver::new().weave(), Arc::new(system).env_factory(), app.factory())
        }
        FamilyArtifact::UsGrid(kernel) => {
            let system = UsGridSystem::with_block_size(spec.region, spec.block, GridLayout::CaseC);
            let law = UsBlockLaw(kernel.block_law(params[0], params[1]));
            let neighbors = kernel.program().neighbors().to_vec();
            let app = UsGridValueApp::new(system.clone(), neighbors, law, steps);
            let system = Arc::new(UsGridValueSystem(system));
            execute(&config, Weaver::new().weave(), system.env_factory(), app.factory())
        }
    };
    let counters = report.total_counters();
    [counters.env_searches, counters.search_nodes_visited]
}

/// One job's platform phases in milliseconds, in [`PHASES`] order up to
/// "sweeps %"; "sweep 2.." is NaN for a one-step job.
fn phases(spans: &[SpanRecord], trace: u64, steps: usize) -> [f64; TRACED] {
    let of = |name: &str| -> Vec<&SpanRecord> {
        let mut found: Vec<_> =
            spans.iter().filter(|s| s.trace == trace && s.name == name).collect();
        found.sort_by_key(|s| s.start_ns);
        found
    };
    let one = |name: &str| of(name)[0];
    let ms = |ns: u64| ns as f64 / 1e6;
    let (job, execute) = (one("Service::job"), one(names::SERVICE_EXECUTE));
    let (init, fin) = (one(names::INITIALIZE), one(names::FINALIZE));
    let sweeps = of(names::KERNEL_STEP);
    assert_eq!(sweeps.len(), steps, "a single-rank job sweeps `steps` times");
    let later: u64 = sweeps[1..].iter().map(|s| s.duration_ns()).sum();
    let all = later + sweeps[0].duration_ns();
    [
        ms(job.duration_ns()),
        ms(execute.duration_ns()),
        ms(init.start_ns - execute.start_ns),
        ms(init.duration_ns()),
        ms(sweeps[0].duration_ns()),
        ms(later) / (steps - 1) as f64,
        ms(fin.duration_ns()),
        ms(execute.end_ns - fin.end_ns),
        100.0 * all as f64 / job.duration_ns() as f64,
    ]
}

/// The median of `values`, NaN for none or any NaN.
fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn main() {
    let scale = Scale::from_env();
    let jobs = if scale == Scale::Smoke { 3 } else { 40 };
    println!(
        "# phase_table — one worker, medians of {jobs} jobs a shape, ms (sweeps: %; searches \
         and nodes a later sweep and once a job: direct runs)"
    );
    println!("{:<18}{}", "", PHASES.map(|p| format!("{p:>15}")).concat());
    // The hand-written codes are timed first, before any service has run in
    // this process: the heap a service leaves behind slows their many small
    // allocations (2^10 particles: 1.4 ms here, 2.1–2.5 ms after the others).
    let shapes = shapes();
    let bases: Vec<f64> = shapes
        .iter()
        .map(|(_, spec)| {
            for _ in 0..WARM_UP_JOBS {
                hand_written(spec);
            }
            median((0..jobs).map(|_| 1e3 * hand_written(spec)).collect())
        })
        .collect();
    for ((label, spec), base) in shapes.into_iter().zip(bases) {
        // One worker thread records into one shard: size it for every span
        // of every job (sgrid: 64 block spans a sweep, ~525 a job).
        let hub = ObsHub::with_clock_and_capacity(Arc::new(WallClock::new()), 1 << 16);
        let service = KernelService::with_observer(
            ServiceConfig::default().with_workers(1),
            Arc::clone(&hub),
        );
        let session = service.open_session(SessionSpec::tenant("phases"));
        let mut traces = Vec::new();
        for job in 0..WARM_UP_JOBS + jobs {
            let report = service.submit(session, spec.clone()).expect("admitted").wait();
            let report = report.expect("job executed");
            assert!(report.error.is_none(), "{label}: {:?}", report.error);
            if job >= WARM_UP_JOBS {
                traces.push(report.trace_id.expect("observed jobs carry a trace id"));
            }
        }
        assert_eq!(hub.recorder().dropped(), 0, "the flight recorder held every span");
        let spans = hub.recorder().spans();
        let rows: Vec<_> = traces.iter().map(|&t| phases(&spans, t, spec.steps)).collect();
        let mut medians: Vec<f64> =
            (0..TRACED).map(|p| median(rows.iter().map(|r| r[p]).collect())).collect();
        let violations = service.obs_snapshot().expect("observer installed").validate();
        assert!(violations.is_empty(), "snapshot inconsistent: {violations:?}");
        service.shutdown();

        medians.push(base);
        let cells = medians.iter().map(|m| {
            if m.is_nan() {
                format!("{:>15}", "-")
            } else {
                format!("{m:>15.3}")
            }
        });
        let counts = searches(&spec).map(|n| format!("{n:>15}")).concat();
        println!("{label:<18}{}{counts}", cells.collect::<String>());
    }
}
