//! Every kernel family runs through the service's one execute path, under
//! every topology, and gives the bits of the direct DSL run.
//!
//! One job per family (jacobi-5pt, smooth-9pt, usgrid jacobi4, particle pair
//! sweep) × {serial, 2 ranks, 2 threads, 2×2} through `KernelService`:
//!
//! * the checksum equals the serial job's and the direct `Platform` run's,
//!   bit for bit — the layer aspects must be typed on the cell of the system
//!   that runs (`f64` for stencil and for usgrid's value plane, `Bucket`;
//!   the direct usgrid and particle runs are the reference apps, so this is
//!   the product ≡ reference link for both) or ranks never exchange and
//!   threads never meet at the barrier;
//! * the summary shows the topology that was asked for, every step done, and
//!   no retries where the direct run needed none;
//! * every job's counters and simulated time equal recorded values, and its
//!   writes state the sweep contract of `HpcApp::processing`: a job on one
//!   rank sweeps `steps` times, a job on several `steps + 1` — the warm-up
//!   (dry-run) pass runs only where the distributed layer reads it;
//! * the processor axis: a stencil job on the lane backend, alone or
//!   alternating with the scalar one, gives the Scalar job's checksum bits
//!   and counters on 1x1 and 2x2.

use aohpc_suite::prelude::*;
use aohpc_suite::{ExecutionMode, Platform};
use std::sync::Arc;

const STEPS: usize = 3;
const BLOCK: usize = 8;
const TOPOLOGIES: [(usize, usize); 4] = [(1, 1), (2, 1), (1, 2), (2, 2)];

/// One job's observables: `(reads, writes, pages_sent, retries, dispatches,
/// simulated_seconds bits)`.
type Row = (u64, u64, u64, u64, u64, u64);

/// A family's job under each of [`TOPOLOGIES`], in that order.
///
/// The 2x1 and 2x2 rows are what the commit before the warm-up became
/// conditional measured, figure for figure: a multi-rank job is untouched —
/// it keeps the warm-up sweep, and with it `retries` 0 (the dry run's fetch
/// serves step 0, its plan every later step).  The 1x1 and 1x2 rows are that
/// commit's with one sweep less: reads and writes x `steps / (steps + 1)` =
/// 3/4, dispatches less one task's `WARM_UP` marker and one sweep's three
/// (`KernelStep`, `get_blocks`, `refresh`) per task — 17 - 4 = 13 on 1x1,
/// 30 - 2 x 4 = 22 on 1x2 — and the cost model's seconds, linear in the
/// counters, x 3/4 too (each family's per-sweep figure is beside its rows).
struct Golden {
    /// Cells the job writes in one sweep of its region.
    writes_per_sweep: u64,
    rows: [Row; 4],
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

fn row_of(report: &JobReport) -> Row {
    let summary = &report.summary;
    (
        summary.reads,
        summary.writes,
        summary.pages_sent,
        summary.retries,
        summary.dispatches,
        report.simulated_seconds.to_bits(),
    )
}

/// `policies` are the schedule policies a stencil job must also give the
/// default (Scalar) job's bits under; empty for the other families, whose
/// kernels no processor is chosen for.
fn check(
    spec: JobSpec,
    direct_run: fn(&JobSpec, ExecutionMode) -> (f64, RunSummary),
    golden: Golden,
    policies: &[SchedulePolicy],
) {
    let service = KernelService::new(ServiceConfig::default().with_workers(1));
    let session = service.open_session(SessionSpec::tenant("paths"));
    let name = spec.program.name().to_string();
    let mut serial_bits = None;
    for ((ranks, threads), row) in TOPOLOGIES.into_iter().zip(golden.rows) {
        let at = format!("{name} {ranks}x{threads}");
        let job = spec.clone().with_topology(Topology::hybrid(ranks, threads));
        let report = service.submit(session, job.clone()).unwrap().wait().expect("job resolves");
        assert_eq!(report.error, None, "{at}");
        let summary = &report.summary;
        // The sweep contract: the warm-up pass runs only across ranks.
        let sweeps = (spec.steps + usize::from(ranks > 1)) as u64;
        assert_eq!(summary.writes, golden.writes_per_sweep * sweeps, "{at}: {sweeps} sweeps");
        assert_eq!(
            row_of(&report),
            row,
            "{at}: (reads, writes, pages_sent, retries, dispatches, simulated_seconds bits)"
        );
        // The processor axis, on 1x1 and 2x2.
        if ranks == threads {
            for policy in policies {
                let job = job.clone().with_policy(policy.clone());
                let other = service.submit(session, job).unwrap().wait().expect("job resolves");
                assert_eq!(other.error, None, "{at} {policy:?}");
                assert_eq!(
                    (other.checksum.to_bits(), row_of(&other)),
                    (report.checksum.to_bits(), row),
                    "{at} {policy:?}: checksum and row vs the Scalar job"
                );
            }
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

fn lane_policies() -> [SchedulePolicy; 2] {
    [
        SchedulePolicy::Single(Processor::Simd),
        SchedulePolicy::RoundRobin(vec![Processor::Simd, Processor::Scalar]),
    ]
}

#[test]
fn jacobi_5pt_matches_the_direct_run_under_every_topology() {
    check(
        stencil_job(StencilProgram::jacobi_5pt(), vec![0.5, 0.125]),
        direct_stencil,
        // A sweep: 1024 gathers + 512 halo reads = 1536 reads, 1024 writes.
        // One rank, 3 sweeps: 4608 / 3072 (was 4 sweeps: 6144 / 4096), and
        // 82.224 us of simulated time a sweep: 1x1 328.896 -> 246.672 us.
        //
        // Then the halo runs that leave the domain searched once, not once a
        // cell: the 16 edge runs of 8 cells, 16 x 7 = 112 searches of 18
        // nodes fewer, 2016 x 25 ns = 50.4 us less a sweep, 82.224 -> 31.824:
        // 1x1 246.672 -> 95.472 us; only the seconds bits moved.
        Golden {
            writes_per_sweep: 1024,
            rows: [
                (4608, 3072, 0, 0, 13, 0x3f1907047882143a),
                (6144, 4096, 64, 0, 33, 0x3f18f00f94c1f23f),
                (4608, 3072, 0, 0, 22, 0x3f0ce307184491cd),
                (6144, 4096, 64, 0, 59, 0x3f103693c3cc5d0d),
            ],
        },
        &lane_policies(),
    );
}

#[test]
fn smooth_9pt_matches_the_direct_run_under_every_topology() {
    check(
        stencil_job(StencilProgram::smooth_9pt(), vec![0.6, 0.05]),
        direct_stencil,
        // A sweep: 1024 gathers + 576 halo reads (corners too) = 1600 reads,
        // 1024 writes.  One rank, 3 sweeps: 4800 / 3072 (was 6400 / 4096), and
        // 103.916 us of simulated time a sweep: 1x1 415.664 -> 311.748 us.
        //
        // Then the domain-leaving halo runs searched once: the 8 edge row
        // runs of 10 cells and the 8 edge column runs of 8, 8 x 9 + 8 x 7 =
        // 128 searches of 18 nodes fewer, 2304 x 25 ns = 57.6 us less a sweep,
        // 103.916 -> 46.316: 1x1 311.748 -> 138.948 us.
        Golden {
            writes_per_sweep: 1024,
            rows: [
                (4800, 3072, 0, 0, 13, 0x3f2236523b4ffc06),
                (6400, 4096, 64, 0, 33, 0x3f20c76f331d4791),
                (4800, 3072, 0, 0, 22, 0x3f15228c68f9d49a),
                (6400, 4096, 64, 0, 59, 0x3f14cbdb3285ac2e),
            ],
        },
        &lane_policies(),
    );
}

/// MMAT on against MMAT off, on one rank and on two: the same field, bit
/// for bit, and each task's memo as `(mmat_entries, mmat_hits)`, measured.
///
/// A sweep looks up 400 points x 4 neighbours = 1600 addresses.  On one rank
/// the first real step fills the memo as the warm-up used to — the 602
/// entries the commit before the warm-up became conditional ended with — and
/// the sweep that is gone was all hits: 5798 - 1600 = 4198.  On two ranks
/// nothing moved: 417 + 185 = 602 entries, 4191 + 1607 = 5798 hits.
fn usgrid_memo_fills_at_the_first_real_step(spec: &JobSpec) {
    for (ranks, memo) in [(1, vec![(602, 4198)]), (2, vec![(417, 4191), (185, 1607)])] {
        let run = |mmat: bool| {
            let system = UsGridSystem::with_block_size(spec.region, spec.block, GridLayout::CaseC);
            let sink = new_field_sink();
            let app = UsGridJacobiApp::new(system.clone(), spec.steps).with_sink(sink.clone());
            let outcome = Platform::new(mode(ranks, 1))
                .with_mmat(mmat)
                .run_system(Arc::new(system), app.factory());
            let field: Vec<_> = sink.lock().iter().map(|(at, v)| (*at, v.to_bits())).collect();
            let memo: Vec<_> =
                outcome.report.tasks.iter().map(|t| (t.mmat_entries, t.mmat_hits)).collect();
            (field, memo)
        };
        let (field, off) = run(false);
        let (field_mmat, on) = run(true);
        assert_eq!(field_mmat, field, "usgrid {ranks}x1: MMAT changed the field");
        assert_eq!(off, vec![(0, 0); ranks], "usgrid {ranks}x1: no memo without MMAT");
        assert_eq!(on, memo, "usgrid {ranks}x1: (mmat_entries, mmat_hits) a task");
    }
}

#[test]
fn usgrid_jacobi4_matches_the_direct_run_under_every_topology() {
    // 20x20 in blocks of 8: ragged edge blocks, nine blocks over two ranks.
    let spec = JobSpec::new(UsGridProgram::jacobi4(), vec![0.5, 0.125], RegionSize::square(20))
        .with_block(BLOCK)
        .with_steps(STEPS);
    usgrid_memo_fills_at_the_first_real_step(&spec);
    check(
        spec,
        direct_usgrid,
        // A sweep: 400 points x (itself + 4 neighbours) = 2000 reads, 400
        // writes.  One rank, 3 sweeps: 6000 / 1200 (was 8000 / 1600), and
        // 51.96 us of simulated time a sweep: 1x1 207.84 -> 155.88 us.
        //
        // The service runs the value-plane app: every count is the reference
        // app's (`direct_usgrid`), and so are the one-rank rows to the bit.
        // Across ranks only the wire changed: a cell is 8 bytes, not the 72
        // of a `UsCell`.  The slower rank sends 48 of the 96 pages, 4 cells
        // each: 192 cells x (72 - 8) B = 12,288 B x `comm_per_byte` 8e-11 s =
        // 0.98304 us less — 2x1 147.69792 -> 146.71488 us, 2x2 105.16320 ->
        // 104.18016 us.
        //
        // Then each plan's off-block entries searched for once, when the
        // plan is resolved, not once a sweep: a task keeps one sweep's
        // search nodes of the sweeps it makes, at 25 ns a node (x 1.035
        // contention with two threads a rank).  1x1: 3 sweeps of 240
        // searches over 1616 nodes, 2 x 1616 x 25 ns = 80.8 us less, 155.88
        // -> 75.08 us; 2x1: the slower rank's 4 sweeps of 152 over 904, 3 x
        // 904 x 25 ns = 67.8 us, 146.71488 -> 78.91488 us; 1x2: the slower
        // task's 3 of 152 over 904, 2 x 904 x 25 ns x 1.035 = 46.782 us,
        // 95.1318 -> 48.3498 us; 2x2: 4 of 96 over 560, 3 x 560 x 25 ns x
        // 1.035 = 43.47 us, 104.18016 -> 60.71016 us.  Only the seconds bits
        // moved.
        Golden {
            writes_per_sweep: 400,
            rows: [
                (6000, 1200, 0, 0, 13, 0x3f13ae88940dbe84),
                (8000, 1600, 96, 0, 33, 0x3f14afe350a87f32),
                (6000, 1200, 0, 0, 22, 0x3f0959667a67b80f),
                (8000, 1600, 96, 0, 59, 0x3f0fd46136c0cd36),
            ],
        },
        &[],
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
        // The service runs `ParticleBlockApp`; `direct_particle` is the
        // Listing-1 `ParticleApp`, which reads 256 buckets x (itself + its
        // 3x3 neighbourhood) = 2560 a sweep.  The block app reads each bucket
        // once: 256 own buckets (one hinted slab a block) + 4 blocks x 36
        // ring buckets (2 x 10 + 2 x 8, four unhinted runs) = 400 reads, and
        // 256 writes.  One rank, 3 sweeps: 7680 -> 1200 reads; two ranks, 4
        // sweeps: 10240 -> 1600.  Writes, pages, retries, dispatches and the
        // checksum bits are the reference's.
        //
        // Simulated time follows the counters.  A 1x1 sweep: 256 hinted
        // reads x 1.5 ns + 256 writes x (4 + 1) ns + 144 out-of-block reads
        // x 12 ns + 76 of them on the wall (Arithmetic) x 8 ns + 492 search
        // nodes x 25 ns = 16.3 us, was 52.188: 1x1 156.564 -> 48.9 us.
        //
        // Then the ring runs wholly off the grid searched once, not once a
        // bucket: each block's outer row (10) and outer column (8), 4 x (9 +
        // 7) = 64 searches of 6 nodes (the start, 3 siblings, the boundary
        // branch, the catch-all) fewer, 492 -> 108 nodes, 9.6 us less a
        // sweep, 16.3 -> 6.7: 1x1 48.9 -> 20.1 us.
        Golden {
            writes_per_sweep: 256,
            rows: [
                (1200, 768, 0, 0, 13, 0x3ef5138d7b7e25a0),
                (1600, 1024, 16, 0, 33, 0x3f0710d9923b2a1a),
                (1200, 768, 0, 0, 22, 0x3ee5c92e746a04b5),
                (1600, 1024, 16, 0, 59, 0x3f03abdcd1cd73ae),
            ],
        },
        &[],
    );
}
