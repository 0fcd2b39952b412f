//! Where a job's time goes, phase by phase, read from its trace alone.
//!
//! The three stock jobs of the layer ledger (`benchmark/`: `sgrid_jacobi`
//! 512² block 64, `usgrid_jacobi` CaseC 256² block 64, `particle_sweep` 2^15
//! particles; 8 steps each) run back to back through a one-worker observed
//! [`KernelService`], so the allocator and the caches are in the service's
//! steady state.  The apps timed are the ones the service runs:
//! `IrStencilApp`, `UsGridValueApp` (usgrid's value plane — not the Fig. 5b
//! reference `UsGridJacobiApp`, whose sweep moves 72-byte cells) and
//! `ParticleApp`; for usgrid, "sweep 1" is a later sweep plus what a block's
//! first pass adds: its neighbour plan resolved from the program's offsets
//! (`Env::resolve_offsets`, CaseC) and the first touch of the app's scratch.
//! Every phase below is a span the woven `ObsRunAspect` recorded, or the gap
//! between two of them:
//!
//! * **set-up** — `Service::execute_spec` start → `Initialize` start: build
//!   the DSL system and the Env, weave the job's aspects;
//! * **Initialize**, each **sweep** (`Annotation::KernelStep`, the first one
//!   apart: it is the cache-cold one and looks its plans up), **Finalize**;
//! * **tail** — `Finalize` end → `Service::execute_spec` end: the checksum
//!   pass over the sink, the cost model, teardown.
//!
//! A single-rank job has exactly `steps` sweeps (`HpcApp::processing`), so
//! the phases add up to the execute span with nothing left over.
//!
//! ```sh
//! cargo run --release -p aohpc-bench --bin phase_table     # 40 jobs a kind
//! AOHPC_SCALE=smoke cargo run --release -p aohpc-bench --bin phase_table  # 3
//! ```

use aohpc::dsl::ParticleSystem;
use aohpc_aop::names;
use aohpc_kernel::{ParticleProgram, StencilProgram, UsGridProgram};
use aohpc_obs::{SpanRecord, WallClock};
use aohpc_service::{FamilyProgram, JobSpec, KernelService, ObsHub, ServiceConfig, SessionSpec};
use aohpc_workloads::{ParticleSize, RegionSize, Scale};
use std::sync::Arc;

const STEPS: usize = 8;
const WARM_UP_JOBS: usize = 2;
const PHASES: [&str; 8] =
    ["job", "execute", "set-up", "Initialize", "sweep 1", "sweep 2..", "Finalize", "tail"];

fn stock_jobs() -> Vec<(&'static str, JobSpec)> {
    let grid = |program: FamilyProgram, side| {
        JobSpec::new(program, vec![0.5, 0.125], RegionSize::square(side))
            .with_block(64)
            .with_steps(STEPS)
    };
    let count = 1 << 15;
    let buckets = ParticleSystem::paper(ParticleSize::new(count));
    let particle = JobSpec::new(
        ParticleProgram::pair_sweep(),
        vec![1.0, 1e-3],
        RegionSize { nx: buckets.buckets_x, ny: buckets.buckets_y },
    )
    .with_block(8)
    .with_steps(STEPS)
    .with_particles(count);
    vec![
        ("sgrid_jacobi", grid(StencilProgram::jacobi_5pt().into(), 512)),
        ("usgrid_jacobi", grid(UsGridProgram::jacobi4().into(), 256)),
        ("particle_sweep", particle),
    ]
}

/// One job's phases in milliseconds, in [`PHASES`] order.
fn phases(spans: &[SpanRecord], trace: u64) -> [f64; PHASES.len()] {
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
    assert_eq!(sweeps.len(), STEPS, "a single-rank job sweeps `steps` times");
    let later: u64 = sweeps[1..].iter().map(|s| s.duration_ns()).sum();
    [
        ms(job.duration_ns()),
        ms(execute.duration_ns()),
        ms(init.start_ns - execute.start_ns),
        ms(init.duration_ns()),
        ms(sweeps[0].duration_ns()),
        ms(later) / (STEPS - 1) as f64,
        ms(fin.duration_ns()),
        ms(execute.end_ns - fin.end_ns),
    ]
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn main() {
    let scale = Scale::from_env();
    let jobs = if scale == Scale::Smoke { 3 } else { 40 };
    println!("# phase_table — one worker, {STEPS} steps, medians of {jobs} jobs a kind, ms");
    println!("{:<15}{}", "", PHASES.map(|p| format!("{p:>11}")).concat());
    for (label, spec) in stock_jobs() {
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
        let rows: Vec<_> = traces.iter().map(|&t| phases(&spans, t)).collect();
        let medians: Vec<f64> =
            (0..PHASES.len()).map(|p| median(rows.iter().map(|r| r[p]).collect())).collect();
        println!("{label:<15}{}", medians.iter().map(|m| format!("{m:>11.3}")).collect::<String>());
        let violations = service.obs_snapshot().expect("observer installed").validate();
        assert!(violations.is_empty(), "snapshot inconsistent: {violations:?}");
        service.shutdown();
    }
}
