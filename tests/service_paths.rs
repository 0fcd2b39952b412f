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
//! * the cluster route: on 1x1 and 2x2 the same job through a 2-node
//!   `ClusterService`, submitted once on each node (each node compiles the
//!   plans itself), gives the `KernelService` job's checksum bits and
//!   counters — the cluster link of the bit-identity chain.

use aohpc_service::ClusterService;
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
    /// Plans each cluster node compiles: a plan a tile shape for a job the
    /// IR app runs, the family record for a particle job.
    plans: u64,
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

fn check(
    spec: JobSpec,
    direct_run: fn(&JobSpec, ExecutionMode) -> (f64, RunSummary),
    golden: Golden,
) {
    let service = KernelService::new(ServiceConfig::default().with_workers(1));
    let session = service.open_session(SessionSpec::tenant("paths"));
    let cluster = ClusterService::new(2, ServiceConfig::default().with_workers(1));
    let nodes = [0, 1].map(|node| cluster.open_session_on(node, SessionSpec::tenant("paths")));
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
        // The cluster route, on 1x1 and 2x2: once on each node.
        if ranks == threads {
            for (node, &id) in nodes.iter().enumerate() {
                let other = cluster.submit(id, job.clone()).unwrap().wait().expect("job resolves");
                assert_eq!(other.error, None, "{at} node {node}");
                assert_eq!(
                    (other.checksum.to_bits(), row_of(&other)),
                    (report.checksum.to_bits(), row),
                    "{at} node {node}: checksum and row vs the KernelService job"
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
    // Each plan: both nodes compile it once (2 nodes x plans), nothing is
    // fetched, and the 2x2 jobs hit on both nodes.
    let cache = cluster.cache_stats().total;
    let plans = golden.plans;
    assert_eq!((cache.compiles, cache.fetches), (2 * plans, 0), "{name}: (compiles, fetches)");
}

fn stencil_job(program: StencilProgram, params: Vec<f64>) -> JobSpec {
    JobSpec::new(program, params, RegionSize::square(32)).with_block(BLOCK).with_steps(STEPS)
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
        //
        // Then the ring plans: each block's runs are resolved at its first
        // sweep, so every later sweep's searches go — the slowest task's
        // search nodes a sweep x 25 ns (x 1.035 with two threads a rank) x
        // the later sweeps: 1x1 720 x 2 = 36 us less, 95.472 -> 59.472; 2x1
        // (rank 1) 434 x 3 = 32.55, 95.12992 -> 62.57992; 1x2 (thread 1) 434
        // x 2 x 1.035 = 22.4595, 55.09725 -> 32.63775; 2x2 (rank 1, thread
        // 1) 227 x 3 x 1.035 = 17.620875, 61.84842 -> 44.227545.  Only the
        // seconds bits moved.
        // One plan: the 8x8 stencil, the one tile shape.
        Golden {
            writes_per_sweep: 1024,
            plans: 1,
            rows: [
                (4608, 3072, 0, 0, 13, 0x3f0f2e325c377d34),
                (6144, 4096, 64, 0, 33, 0x3f1067aad6d23807),
                (4608, 3072, 0, 0, 22, 0x3f011c908d091b0f),
                (6144, 4096, 64, 0, 59, 0x3f07301edff6c184),
            ],
        },
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
        //
        // Then the ring plans, resolved once a job (see jacobi above): 1x1
        // 1260 nodes x 2 later sweeps x 25 ns = 63 us less, 138.948 ->
        // 75.948; 2x1 743 x 3 = 55.725, 128.01392 -> 72.28892; 1x2 743 x 2 x
        // 1.035 = 38.45025, 80.623455 -> 42.173205; 2x2 386 x 3 x 1.035 =
        // 29.96325, 79.33164 -> 49.36839.
        // One plan: the 8x8 stencil, the one tile shape.
        Golden {
            writes_per_sweep: 1024,
            plans: 1,
            rows: [
                (4800, 3072, 0, 0, 13, 0x3f13e8c8b46ce234),
                (6400, 4096, 64, 0, 33, 0x3f12f33a3065c0ff),
                (4800, 3072, 0, 0, 22, 0x3f061c644a398280),
                (6400, 4096, 64, 0, 59, 0x3f09e21cf6cbf0cf),
            ],
        },
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
        // The service runs the program lowered to its stencil, on the value
        // plane: a sweep reads the 400 points once (a hinted slab a block)
        // and the 240 ring cells once (a run an edge: sum of 2 (w + h) over
        // the 3x3 tiles of 8/8/4), all 240 off their block and 80 of them
        // past the domain (the static row below it, the catch-all on the
        // other sides) — 640 reads where the reference app reads 5 a point,
        // 2000.  1x1: 3 x 640 = 1920 (was 6000); two ranks, 4 sweeps: 2560
        // (was 8000).  Writes, pages, retries, dispatches and the checksum
        // bits stay.
        //
        // Simulated time follows the counters (a task's hinted reads x 1.5
        // ns + writes x (4 + 1) + off-block reads x 12 + boundary reads x 8 +
        // search nodes x 25, the memory part x 1.035 with two threads a rank).
        // 1x1: 1200 x 1.5 + 1200 x 5 + 720 x 12 + 240 x 8 + 1320 x 25 = 51.36
        // us (was 75.08).  2x1, the slower rank (the last 4 of 9 tiles in Z
        // order, 112 cells): 448 x 1.5 + 448 x 5 + 352 x 12 + 144 x 8 + 1228
        // x 25 = 38.988 us + 12 messages x 2 us + 1536 B x 0.08 ns = 63.11088
        // us (was 78.91488).  1x2, the slower task: (336 x 1.5 + 336 x 4 +
        // 264 x 12 + 108 x 8 + 921 x 25) x 1.035 + 336 = 30.252675 us (was
        // 48.3498).  2x2, the slower rank's slower task: (192 x 1.5 + 192 x 4
        // + 160 x 12 + 64 x 8 + 684 x 25) x 1.035 + 192 = 21.50058 us + 24.12288
        // us = 45.62346 us (was 60.71016).
        //
        // Then the ring plans, resolved once a job: a task's search nodes
        // are those of one sweep, where they were those of every sweep.
        // 1x1: 1200 x 1.5 + 1200 x 5 + 720 x 12 + 240 x 8 + 440 x 25 = 29.36
        // us (1320 nodes were 3 x 440).  That makes another task the slowest
        // on the other three.  2x1, rank 0 (the first 5 tiles in Z order,
        // 288 cells): 1152 x 1.5 + 1152 x 5 + 608 x 12 + 176 x 8 + 133 x 25 =
        // 19.517 us + 24.12288 us = 43.63988 us.  1x2, thread 0: (864 x 1.5
        // + 864 x 4 + 456 x 12 + 132 x 8 + 133 x 25) x 1.035 + 864 =
        // 15.980175 us.  2x2, rank 0's thread 0: (768 x 1.5 + 768 x 4 + 384 x
        // 12 + 128 x 8 + 78 x 25) x 1.035 + 768 = 12.98721 us + 24.12288 us =
        // 37.11009 us.
        //
        // Plans: the lowered stencil's four tile shapes (8x8, 4x8, 8x4,
        // 4x4), and no usgrid family record.
        Golden {
            writes_per_sweep: 400,
            plans: 4,
            rows: [
                (1920, 1200, 0, 0, 13, 0x3efec943d6439907),
                (2560, 1600, 96, 0, 33, 0x3f06e13edbf53f20),
                (1920, 1200, 0, 0, 22, 0x3ef0c1a5439f50b8),
                (2560, 1600, 96, 0, 59, 0x3f0374d4fbb3d7c1),
            ],
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
        //
        // Then the ring plans, resolved once a job (see jacobi above): 1x1
        // 108 nodes x 2 later sweeps x 25 ns = 5.4 us less, 20.1 -> 14.7;
        // 2x1 54 x 3 = 4.05, 43.99456 -> 39.94456; 1x2 54 x 2 x 1.035 =
        // 2.7945, 10.38831 -> 7.59381; 2x2 27 x 3 x 1.035 = 2.095875, 37.5201
        // -> 35.424225.
        Golden {
            writes_per_sweep: 256,
            plans: 1,
            rows: [
                (1200, 768, 0, 0, 13, 0x3eeed4009db4b14d),
                (1600, 1024, 16, 0, 33, 0x3f04f144a17dbd3c),
                (1200, 768, 0, 0, 22, 0x3edfd9ca99394a14),
                (1600, 1024, 16, 0, 59, 0x3f02928f1a56f1be),
            ],
        },
    );
}
