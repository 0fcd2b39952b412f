//! The slab, run and gather access paths must not buy speed by dropping
//! accounting.
//!
//! `IrStencilApp` moves whole blocks through `TaskCtx::{get_block_dd,
//! set_block, set_initial_block}` and fetches its halo ring with one
//! `TaskCtx::get_run` per edge; `SGridJacobiApp` is the paper's Listing-1
//! kernel, one platform call per cell.  Both run the same mathematics on the
//! same platform, so the fields must agree bit for bit, and the IR run's
//! access counters must read exactly what the per-cell loops read — except
//! the two search counters, which count the searches that actually ran.
//!
//! `UsGridJacobiApp` resolves each block's indirect neighbours once
//! (`TaskCtx::resolve_gather`) and reads them with one `TaskCtx::get_gather`
//! a pass; the oracle is the same kernel with one `ctx.get_global` per
//! neighbour.  With MMAT on every counter must agree; with MMAT off the
//! searches for the neighbours off the block run once a job, when the plans
//! are resolved, and every other counter must agree.
//!
//! `ParticleBlockApp` reads a block's buckets as one slab and its one-bucket
//! ring as four runs.  Its field is `ParticleApp`'s (the Listing-1
//! reference, ten per-cell reads a bucket) bit for bit, and its counters and
//! missing-page records are those of the per-cell loop over the same buckets
//! — searches aside, as for the stencil halo.

use aohpc::dsl::UsUpdate;
use aohpc::env::AccessCounters;
use aohpc::prelude::*;
use aohpc::runtime::ctx::RefreshPayload;
use aohpc::runtime::execute;
use aohpc_aop::{names, ClosureAspect};
use aohpc_kernel::prelude::*;
use aohpc_kernel::{default_initial_value, load, param, ParticleKernel};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

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

/// The counters of the per-cell loops over `sweeps` sweeps — a sweep is 1024
/// gathers + 512 halo reads and 1024 writes — every field not named 0.  All
/// but the two search counters were captured, per sweep, at the commit before
/// the slab calls and have not moved since.
///
/// The searches are those that ran.  A block's halo is four runs of 8 cells.
/// Of a sweep's 16 x 4 = 64 runs, 48 lie along a neighbour block: the leading
/// cell is searched for, the other 7 are served from the block it found.
/// From block `k` (row-major in the flat joint) the search visits the start,
/// then the siblings in order, so it finds neighbour `k'` after `k' + 2`
/// nodes if `k' < k` and `k' + 1` if `k' > k`: 432 nodes over the 48 runs.
/// The other 16 runs leave the domain: the leading cell's search visits 18
/// nodes (the start, 15 siblings, the boundary branch, the catch-all) and
/// lands on the boundary, an Arithmetic block.  No cell outside the hull of
/// the data blocks lies in a block a search can match, so the other 7 are
/// read from the boundary without a search.
///
///   env_searches         = 48 + 16           =  64 a sweep
///   search_nodes_visited = 432 + 16 x 18     = 720 a sweep
///
/// (Each of those 8 cells searched for was 48 + 16 x 8 = 176 searches and
/// 432 + 16 x 8 x 18 = 2736 nodes a sweep.  One search per read — 512
/// searches, 8 x 432 + 128 x 18 = 5760 nodes a sweep — is what the per-cell
/// halo closure read, and still reads: see `closure_adaptor_*` below.)
fn golden(sweeps: u64, missing_accesses: u64) -> AccessCounters {
    AccessCounters {
        reads: sweeps * 1536,
        writes: sweeps * 1024,
        skip_search_hits: sweeps * 1024,
        env_searches: sweeps * 64,
        search_nodes_visited: sweeps * 720,
        out_of_block_reads: sweeps * 512,
        arithmetic_reads: sweeps * 128,
        missing_accesses,
        ..AccessCounters::default()
    }
}

/// `k` with the two search counters zeroed: what a bulk read leaves exactly
/// as the per-cell loop it replaces, where the search counters count only the
/// searches that ran.
fn searches_aside(k: AccessCounters) -> AccessCounters {
    AccessCounters { env_searches: 0, search_nodes_visited: 0, ..k }
}

#[test]
fn serial_slab_run_matches_the_per_cell_kernel_and_the_golden_counters() {
    // One rank: the 3 steps and no warm-up sweep — reads 3 x 1536 = 4608,
    // writes 3072, searches 192 over 2160 nodes (with the warm-up, 4 sweeps:
    // 6144 / 4096 / 256 / 2880, the hybrid run's figures below).
    let mode = ExecutionMode::PlatformNop;
    let (field, counters) = ir_run(mode, listing1_jacobi(), vec![0.5, 0.125]);
    assert_eq!(field, classic_field(mode), "IR field differs from the Listing-1 kernel");
    assert_eq!(counters, golden(3, 0));
}

#[test]
fn hybrid_slab_run_matches_the_per_cell_kernel_and_the_golden_counters() {
    // Two ranks: warm-up + 3 steps.  The warm-up sweep of each rank finds the
    // other rank's halo pages missing (64 reads) before the Dry-run plan
    // prefetches them.
    let mode = ExecutionMode::PlatformHybrid { ranks: 2, threads: 2 };
    let (field, counters) = ir_run(mode, listing1_jacobi(), vec![0.5, 0.125]);
    assert_eq!(field, classic_field(mode), "IR field differs from the Listing-1 kernel");
    assert_eq!(counters, golden(4, 64));
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

/// `UsGridJacobiApp` with the neighbours read the old way: its kernel as it
/// stood before the gather — slab in, four `ctx.get_global` per point, slab
/// out — around the app's own `Initialize` and `Finalize`.
#[derive(Clone)]
struct PerCellUsGridApp(UsGridJacobiApp);

impl HpcApp<UsCell> for PerCellUsGridApp {
    fn loop_count(&self) -> usize {
        self.0.loop_count()
    }

    fn initialize(&mut self, ctx: &mut TaskCtx<UsCell>) {
        self.0.initialize(ctx);
    }

    fn kernel(&mut self, ctx: &mut TaskCtx<UsCell>, _warmup: bool) -> bool {
        let (alpha, beta) = (self.0.alpha, self.0.beta);
        let mut points = Vec::new();
        for bid in ctx.get_blocks() {
            let cells = ctx.env().block(bid).meta.extent.cells();
            points.resize(cells, UsCell::default());
            ctx.get_block_dd(bid, &mut points);
            for me in points.iter_mut() {
                let mut vals = [0.0f64; 4];
                for (slot, (nx, ny)) in me.neighbors.into_iter().enumerate() {
                    vals[slot] = ctx.get_global(bid, GlobalAddress::new2d(nx, ny)).value;
                }
                me.value = match &self.0.update {
                    Some(update) => (update.0)(me.value, &vals),
                    None => {
                        let mut sum = 0.0;
                        for v in vals {
                            sum += v;
                        }
                        alpha * me.value + beta * sum
                    }
                };
            }
            ctx.set_block(bid, &points);
        }
        ctx.refresh()
    }

    fn finalize(&mut self, ctx: &mut TaskCtx<UsCell>) {
        self.0.finalize(ctx);
    }
}

/// The gathered neighbour reads against the per-cell ones, where reads stay
/// in the block (CaseC) and where most leave it (CaseR), with and without
/// MMAT, built-in and plugged-in law: the same field, the same retries, and
/// per task the same memo, the same missing-page records in order and every
/// counter but the two search counters.
///
/// Each block's plan is resolved at its first pass, so every case is run as
/// it stands, over more steps (the plans outlive the warm-up and several
/// buffer swaps), and — across ranks — without the Dry-run prefetch: every
/// step then finds its neighbours' pages missing in Buffer-only blocks
/// mid-refresh and is retried, and the retried pass reads through the same
/// plan.
///
/// The searches: with MMAT on both kernels' off-block reads go through the
/// memo, and every counter is the oracle's.  With MMAT off a plan searches
/// for its off-block entries once, when it is resolved, where the oracle
/// searches on every pass: a task's searches and search nodes times its
/// passes (the warm-up across ranks, the steps, the retried steps) are the
/// oracle's.
fn gather_matches_the_per_cell_neighbour_reads(topologies: &[(usize, usize)]) {
    // Weights differ per neighbour, so a slice in the wrong order shows.
    let weighted = UsUpdate(Arc::new(|me, near: &[f64]| {
        0.4 * me + 0.1 * near[0] + 0.2 * near[1] + 0.05 * near[2] + 0.25 * near[3]
    }));
    for &topology in topologies {
        let mut rows = vec![(true, STEPS), (true, 5)];
        if topology.0 > 1 {
            rows.push((false, STEPS));
        }
        for layout in [GridLayout::CaseC, GridLayout::CaseR { seed: 11 }] {
            let system = UsGridSystem::with_block_size(RegionSize::square(REGION), BLOCK, layout);
            for mmat in [false, true] {
                for update in [None, Some(weighted.clone())] {
                    for &(dry_run, steps) in &rows {
                        let case = format!(
                            "{} {topology:?} mmat={mmat} plugged-law={} dry-run={dry_run} \
                             steps={steps}",
                            layout.name(),
                            update.is_some()
                        );
                        let app = |sink| {
                            let app = UsGridJacobiApp::new(system.clone(), steps).with_sink(sink);
                            match &update {
                                Some(update) => app.with_update(update.clone()),
                                None => app,
                            }
                        };
                        let flags = (mmat, dry_run);
                        let gathered = logged_run(&system, topology, flags, steps, app);
                        let oracle = logged_run(&system, topology, flags, steps, |sink| {
                            PerCellUsGridApp(app(sink))
                        });
                        assert_eq!(gathered.field, oracle.field, "{case}: fields differ");
                        assert_eq!(gathered.missing, oracle.missing, "{case}: missing-page order");
                        assert_eq!(gathered.retries, oracle.retries, "{case}: retries");
                        assert_eq!(gathered.retries > 0, !dry_run, "{case}: retries");
                        assert_eq!(gathered.tasks.len(), oracle.tasks.len(), "{case}: tasks");
                        for (task, (got, want)) in
                            gathered.tasks.iter().zip(&oracle.tasks).enumerate()
                        {
                            let at = format!("{case} task {task}");
                            let (g, w) = (got.counters, want.counters);
                            assert_eq!((got.memo, got.passes), (want.memo, want.passes), "{at}");
                            assert!(g.reads > 0 && g.out_of_block_reads > 0, "{at}");
                            if mmat {
                                assert_eq!(g, w, "{at}: counters");
                                continue;
                            }
                            assert_eq!(searches_aside(g), searches_aside(w), "{at}: counters");
                            assert_eq!(
                                (g.env_searches * got.passes, g.search_nodes_visited * got.passes),
                                (w.env_searches, w.search_nodes_visited),
                                "{at}: searches once a job"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn per_cell_neighbour_reads_match_the_gather_serial() {
    gather_matches_the_per_cell_neighbour_reads(&[(1, 1), (1, 2)]);
}

#[test]
fn per_cell_neighbour_reads_match_the_gather_hybrid() {
    gather_matches_the_per_cell_neighbour_reads(&[(2, 1), (2, 2)]);
}

/// Each task's missing-page records, one list a `refresh`, in order.
type MissingLog = BTreeMap<usize, Vec<Vec<(BlockId, usize)>>>;

/// One task's part of a logged run: its counters, its memo `(mmat_entries,
/// mmat_hits)`, and the kernel passes it made (the warm-up across ranks, the
/// steps, the retried steps).
struct TaskOutcome {
    counters: AccessCounters,
    memo: (usize, u64),
    passes: u64,
}

/// What a logged run leaves: the field's bits by the `(y, x)` of the address
/// `Finalize` deposited each value at, each task's outcome in task order, its
/// missing-page log, and the retried steps.
struct LoggedOutcome {
    field: BTreeMap<(i64, i64), u64>,
    tasks: Vec<TaskOutcome>,
    missing: MissingLog,
    retries: u64,
}

/// Run the app `make` builds around a fresh sink on `ranks × threads` for
/// `steps` steps, MMAT and the Dry-run prefetch as `(mmat, dry_run)` say, with
/// the service's layer aspects and, outermost, one that logs the pages each
/// task hands to `refresh` as missing.
fn logged_run<S, A>(
    system: &S,
    (ranks, threads): (usize, usize),
    (mmat, dry_run): (bool, bool),
    steps: usize,
    make: impl FnOnce(FieldSink) -> A,
) -> LoggedOutcome
where
    S: DslSystem + Clone + 'static,
    A: HpcApp<S::Cell> + Clone + Send + Sync + 'static,
{
    let log = Arc::new(Mutex::new(MissingLog::new()));
    let recorder = {
        let log = Arc::clone(&log);
        ClosureAspect::new("missing-pages").with_precedence(i32::MIN).with_binding(
            Pointcut::call(names::REFRESH),
            Advice::before(move |ctx| {
                let p = ctx.payload_mut::<RefreshPayload<S::Cell>>().expect("refresh payload");
                let pages = p.local_missing.clone();
                log.lock().unwrap().entry(p.slot.task_id).or_default().push(pages);
            }),
        )
    };
    let mut weaver = Weaver::new().with_aspect(Box::new(recorder));
    if ranks > 1 {
        weaver = weaver.with_aspect(Box::new(MpiAspect::<S::Cell>::new()));
    }
    if threads > 1 {
        weaver = weaver.with_aspect(Box::new(OmpAspect::<S::Cell>::new()));
    }
    let config = RunConfig::serial()
        .with_topology(Topology::hybrid(ranks, threads))
        .with_mmat(mmat)
        .with_dry_run(dry_run);
    let sink = new_field_sink();
    let app = make(sink.clone());
    let env = Arc::new(system.clone()).env_factory();
    let report = execute(&config, weaver.weave(), env, Arc::new(move |_| app.clone()));
    assert!(report.tasks.iter().all(|t| t.steps == steps as u64));
    let field = sink.lock().iter().map(|(at, v)| ((at.y, at.x), v.to_bits())).collect();
    let mut tasks: Vec<_> = report.tasks.iter().collect();
    tasks.sort_by_key(|t| t.slot.task_id);
    let warm_up = u64::from(ranks > 1);
    let missing = std::mem::take(&mut *log.lock().unwrap());
    LoggedOutcome {
        field,
        tasks: tasks
            .into_iter()
            .map(|t| TaskOutcome {
                counters: t.counters,
                memo: (t.mmat_entries, t.mmat_hits),
                passes: warm_up + t.steps + t.retries,
            })
            .collect(),
        missing,
        retries: report.total_retries(),
    }
}

/// Particle runs are three steps: a block's later passes read what its
/// earlier ones wrote, across buffer swaps and (without the Dry-run
/// prefetch) retried steps.
const PARTICLE_STEPS: usize = 3;

/// The compiled pair law: what the service plugs into the product app.
fn pair_force() -> PairForce {
    let program = ParticleProgram::pair_sweep();
    let kernel = ParticleKernel::compile(&program, Extent::new2d(8, 8), OptLevel::Full);
    PairForce(kernel.pair_law(1.0))
}

/// `ParticleBlockApp`'s sweep made of the per-cell calls its bulk reads
/// stand for: each bucket of the block by `get_dd`, row-major, then each
/// ring bucket by an unhinted `get` in ring order — the row above and the row
/// below, corners included, then the left and the right column — and the
/// update written back bucket by bucket, around the app's own `Initialize`
/// and `Finalize`.
#[derive(Clone)]
struct PerCellParticleApp(ParticleBlockApp);

impl HpcApp<Bucket> for PerCellParticleApp {
    fn loop_count(&self) -> usize {
        self.0.loop_count()
    }

    fn initialize(&mut self, ctx: &mut TaskCtx<Bucket>) {
        self.0.initialize(ctx);
    }

    fn kernel(&mut self, ctx: &mut TaskCtx<Bucket>, _warmup: bool) -> bool {
        let (law, dt) = (self.0.law.clone(), self.0.dt);
        for bid in ctx.get_blocks() {
            let extent = ctx.env().block(bid).meta.extent;
            let (bx, by) = (extent.nx as i64, extent.ny as i64);
            let mut own = Vec::new();
            for j in 0..by {
                for i in 0..bx {
                    own.push(ctx.get_dd(bid, LocalAddress::new2d(i, j)));
                }
            }
            let ring_order = (-1..=bx)
                .map(|x| (x, -1))
                .chain((-1..=bx).map(|x| (x, by)))
                .chain((0..by).map(|y| (-1, y)))
                .chain((0..by).map(|y| (bx, y)));
            let mut ring = HashMap::new();
            for (x, y) in ring_order {
                ring.insert((x, y), ctx.get(bid, LocalAddress::new2d(x, y), false));
            }
            let at = |x: i64, y: i64| {
                if (0..bx).contains(&x) && (0..by).contains(&y) {
                    &own[(y * bx + x) as usize]
                } else {
                    &ring[&(x, y)]
                }
            };
            for j in 0..by {
                for i in 0..bx {
                    let me = at(i, j);
                    let mut next = *me;
                    for (p, moved) in me.live().iter().zip(&mut next.particles) {
                        let mut force = [0.0f64; 3];
                        for dj in -1..=1 {
                            for di in -1..=1 {
                                for q in at(i + di, j + dj).live() {
                                    if q.id != p.id {
                                        (law.0)(&p.pos, &q.pos, &mut force);
                                    }
                                }
                            }
                        }
                        moved.acc = force;
                        for d in 0..3 {
                            moved.vel[d] += moved.acc[d] * dt;
                            moved.pos[d] += moved.vel[d] * dt;
                        }
                    }
                    ctx.set(bid, LocalAddress::new2d(i, j), next);
                }
            }
        }
        ctx.refresh()
    }

    fn finalize(&mut self, ctx: &mut TaskCtx<Bucket>) {
        self.0.finalize(ctx);
    }
}

/// The block app against the per-cell oracle and against the Listing-1
/// reference with the same law: a half-empty 16x16 grid (1,000 particles,
/// 125 of 256 buckets filled) and a full 24x24 one (2^12), MMAT off and on,
/// and — across ranks — with the Dry-run prefetch off, where every step finds
/// its ring pages missing and is retried.
fn particle_block_app_matches(topologies: &[(usize, usize)]) {
    let law = pair_force();
    for count in [1000, 1 << 12] {
        let system = ParticleSystem::paper(ParticleSize::new(count));
        let tiling = system.tiling();
        let blocks = (tiling.nx / tiling.block) * (tiling.ny / tiling.block);
        let cells = (tiling.nx * tiling.ny) as u64;
        // A block's ring: two rows of 10 with the corners, two columns of 8.
        let ring = blocks as u64 * (2 * 10 + 2 * 8);
        for &topology in topologies {
            let dry_runs: &[bool] = if topology.0 > 1 { &[true, false] } else { &[true] };
            for mmat in [false, true] {
                for &dry_run in dry_runs {
                    let case =
                        format!("{count} particles {topology:?} mmat={mmat} dry-run={dry_run}");
                    let product = |sink| {
                        ParticleBlockApp::new(system.clone(), law.clone(), PARTICLE_STEPS)
                            .with_sink(sink)
                    };
                    let (flags, steps) = ((mmat, dry_run), PARTICLE_STEPS);
                    let block = logged_run(&system, topology, flags, steps, product);
                    let oracle = logged_run(&system, topology, flags, steps, |sink| {
                        PerCellParticleApp(product(sink))
                    });
                    let reference = logged_run(&system, topology, flags, steps, |sink| {
                        ParticleApp::new(system.clone(), PARTICLE_STEPS)
                            .with_pair_force(law.clone())
                            .with_sink(sink)
                    });

                    assert_eq!(block.field.len() as u64, cells, "{case}: a value a bucket");
                    assert_eq!(block.field, reference.field, "{case}: field vs ParticleApp");
                    assert_eq!(block.field, oracle.field, "{case}: field vs the oracle");
                    assert_eq!(block.tasks.len(), oracle.tasks.len(), "{case}: tasks");
                    for (task, (got, want)) in block.tasks.iter().zip(&oracle.tasks).enumerate() {
                        let at = format!("{case} task {task}");
                        let (g, w) = (got.counters, want.counters);
                        assert_eq!(searches_aside(g), searches_aside(w), "{at}: counters");
                        assert_eq!(got.memo, want.memo, "{at}: memo");
                    }
                    assert_eq!(block.missing, oracle.missing, "{case}: missing-page order");
                    assert_eq!(block.retries, oracle.retries, "{case}: retries");
                    assert_eq!(block.retries > 0, !dry_run, "{case}: retries");
                    // A bucket is read once a sweep: its own, hinted, and
                    // each ring bucket of its block, not.
                    let total = block.tasks.iter().fold(AccessCounters::default(), |mut sum, t| {
                        sum.merge(&t.counters);
                        sum
                    });
                    let sweeps = total.writes / cells;
                    assert_eq!(total.writes, sweeps * cells, "{case}: whole sweeps");
                    assert_eq!(total.skip_search_hits, sweeps * cells, "{case}: own buckets");
                    assert_eq!(total.reads, sweeps * (cells + ring), "{case}: reads");
                }
            }
        }
    }
}

#[test]
fn particle_block_app_matches_the_reference_and_the_per_cell_reads_one_rank() {
    particle_block_app_matches(&[(1, 1), (1, 2)]);
}

#[test]
fn particle_block_app_matches_the_reference_and_the_per_cell_reads_across_ranks() {
    // Four ranks too: on the 3x3 blocks of the 2^12 grid a block then finds
    // pages missing on more than one side, so the runs' order shows.
    particle_block_app_matches(&[(2, 1), (2, 2), (4, 1)]);
}
