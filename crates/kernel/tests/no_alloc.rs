//! Regression test: once the scratch is warm, `execute_block` performs
//! **zero** heap allocations per block on every backend — interior *and*
//! boundary path (the boundary's operand/value buffers used to be allocated
//! per `execute_block` call; they now live in [`ExecScratch`]).
//!
//! Counted with `aohpc-testalloc`'s thread-scoped tracking allocator, so
//! concurrent libtest harness threads cannot contribute stray counts.

use aohpc_aop::WovenProgram;
use aohpc_dsl::{
    Bucket, DslSystem, PairForce, ParticleApp, ParticleBlockApp, ParticleSystem, SGridSystem,
    UsGridSystem, UsGridValueSystem,
};
use aohpc_env::{Cell, Env, Extent};
use aohpc_kernel::{
    lit, load, param, CompiledKernel, ExecScratch, ExecStats, IrStencilApp, OptLevel,
    ParticleKernel, ParticleProgram, PlanSource, Processor, ScratchPool, StencilProgram,
    UsGridProgram,
};
use aohpc_runtime::{new_checksum_sink, new_field_sink, HpcApp, RankShared, TaskCtx, Topology};
use aohpc_workloads::{checksum, GridLayout, ParticleSize, RegionSize};
use std::collections::HashMap;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: aohpc_testalloc::CountingAlloc = aohpc_testalloc::CountingAlloc;

#[test]
fn warm_execute_block_is_allocation_free() {
    // A kernel exercising every tape form: loads (fused and not), a constant,
    // params, unary ops, mul-add — plus a 5-point halo so the boundary path
    // runs too.
    let expr = param(0) * load(0, 0)
        + param(1) * (load(0, -1) + load(-1, 0) + load(1, 0) + load(0, 1))
        + (-load(0, 0)).abs() * lit(0.125);
    let program = StencilProgram::new("alloc-probe", expr, 2).unwrap();
    // Wide enough that the lane backends hit the 32-cell super-group path.
    let n = 40usize;
    let compiled = CompiledKernel::compile(&program, Extent::new2d(n, n), OptLevel::Full);
    let cells: Vec<f64> = (0..n * n).map(|k| (k % 13) as f64 * 0.25 + 0.5).collect();
    let params = [0.5, 0.125];
    let mut out = vec![0.0f64; n * n];
    let mut scratch = ExecScratch::new();
    let mut checksum = 0.0f64;

    for proc in [Processor::Scalar, Processor::Simd] {
        // Warm-up: first call may grow the scratch buffers.
        let mut stats = ExecStats::default();
        compiled.execute_block(
            &cells,
            &params,
            &mut |x, y| (x + y) as f64 * 0.1,
            &mut out,
            proc,
            &mut stats,
            &mut scratch,
        );

        // Steady state: many blocks, zero allocations.
        let (_, allocs) = aohpc_testalloc::count_in(|| {
            for _ in 0..32 {
                let mut stats = ExecStats::default();
                compiled.execute_block(
                    &cells,
                    &params,
                    &mut |x, y| (x + y) as f64 * 0.1,
                    &mut out,
                    proc,
                    &mut stats,
                    &mut scratch,
                );
                checksum += out[n + 1];
                assert!(stats.boundary_cells > 0, "the probe must exercise the boundary path");
            }
        });
        assert_eq!(
            allocs, 0,
            "{proc:?}: warm execute_block must not touch the heap ({allocs} allocs over 32 blocks)"
        );
    }
    assert!(checksum.is_finite());
}

/// Regression: the *cold* path is allocation-free too.  The first
/// `execute_block` on a fresh scratch used to pay two heap allocations
/// (lazy `ExecScratch` sizing); plans now expose
/// [`CompiledKernel::prepare_scratch`], sizing the scratch from the tape's
/// recorded statistics at plan-resolve time, so even block zero never
/// touches the heap — for generic tapes and specialized ones alike.
#[test]
fn cold_execute_block_is_allocation_free_after_prepare() {
    let generic = StencilProgram::new(
        "cold-probe",
        param(0) * load(0, 0)
            + param(1) * (load(0, -1) + load(-1, 0) + load(1, 0) + load(0, 1))
            + (-load(0, 0)).abs() * lit(0.125),
        2,
    )
    .unwrap();
    // jacobi and smooth qualify for the weighted-sum specialization: its
    // padded tile must be sized by `prepare_scratch` too, so the fast path
    // honours the same zero-alloc contract as the interpreter.
    let n = 40usize;
    for program in [generic, StencilProgram::jacobi_5pt(), StencilProgram::smooth_9pt()] {
        let compiled = CompiledKernel::compile(&program, Extent::new2d(n, n), OptLevel::Full);
        let cells: Vec<f64> = (0..n * n).map(|k| (k % 13) as f64 * 0.25 + 0.5).collect();
        let params = [0.5, 0.125];
        let mut out = vec![0.0f64; n * n];
        for proc in [Processor::Scalar, Processor::Simd] {
            let mut scratch = ExecScratch::new();
            compiled.prepare_scratch(&mut scratch, proc);
            let (_, allocs) = aohpc_testalloc::count_in(|| {
                let mut stats = ExecStats::default();
                compiled.execute_block(
                    &cells,
                    &params,
                    &mut |x, y| (x + y) as f64 * 0.1,
                    &mut out,
                    proc,
                    &mut stats,
                    &mut scratch,
                );
                assert!(stats.boundary_cells > 0);
            });
            assert_eq!(
                allocs,
                0,
                "{} {proc:?}: cold execute_block after prepare_scratch must not allocate",
                program.name()
            );
        }
    }
}

/// Regression: `ExecScratch` recycled through a [`ScratchPool`] across jobs
/// stays zero-alloc warm under worker churn — acquire/release cycles, a
/// second transient "worker" forcing a cold scratch, and a capacity
/// overflow dropping one.  Only a *cold* scratch (fresh from an empty pool)
/// may allocate; every pooled check-out must run its whole job without
/// touching the heap.
#[test]
fn pooled_scratch_stays_warm_across_job_churn() {
    let expr =
        param(0) * load(0, 0) + param(1) * (load(0, -1) + load(-1, 0) + load(1, 0) + load(0, 1));
    let program = StencilProgram::new("churn-probe", expr, 2).unwrap();
    let n = 24usize;
    let compiled = CompiledKernel::compile(&program, Extent::new2d(n, n), OptLevel::Full);
    let cells: Vec<f64> = (0..n * n).map(|k| (k % 7) as f64 * 0.5).collect();
    let params = [0.5, 0.125];
    let mut out = vec![0.0f64; n * n];

    // One "job": a few blocks on every backend, like a service worker's
    // steady-state unit of work.
    let mut run_job = |scratch: &mut ExecScratch| {
        for proc in [Processor::Scalar, Processor::Simd] {
            for _ in 0..4 {
                let mut stats = ExecStats::default();
                compiled.execute_block(
                    &cells,
                    &params,
                    &mut |x, y| (x + y) as f64 * 0.1,
                    &mut out,
                    proc,
                    &mut stats,
                    scratch,
                );
            }
        }
    };

    // Pool of one idle slot, as a single service worker would see.  Job 1 is
    // cold: the pool is empty, the scratch grows, the release's first push
    // grows the free list.  All of that may allocate.
    let pool = ScratchPool::new(1);
    let mut scratch = pool.acquire();
    run_job(&mut scratch);
    pool.release(scratch);
    assert_eq!(pool.stats().created, 1);

    // Jobs 2..6: every check-out is warm, and the whole
    // acquire → execute → release cycle performs zero allocations.
    let (_, allocs) = aohpc_testalloc::count_in(|| {
        for _ in 0..5 {
            let mut scratch = pool.acquire();
            run_job(&mut scratch);
            pool.release(scratch);
        }
    });
    assert_eq!(allocs, 0, "recycled scratches must stay warm ({allocs} allocs over 5 jobs)");
    let stats = pool.stats();
    assert_eq!(stats.reused, 5, "every warm job reused the pooled scratch: {stats:?}");
    assert_eq!(stats.idle, 1);

    // Churn: a second transient worker checks out while the pool is empty —
    // a cold scratch (allocations expected) — and its release overflows the
    // one-slot pool, dropping one scratch silently.
    let held = pool.acquire(); // pool now empty
    let mut transient = pool.acquire(); // cold: created, may allocate
    run_job(&mut transient);
    pool.release(held);
    pool.release(transient); // over capacity: dropped
    let stats = pool.stats();
    assert_eq!(stats.created, 2, "the transient worker forced a second scratch: {stats:?}");
    assert_eq!(stats.idle, 1, "the overflow release was dropped, not pooled: {stats:?}");

    // After the churn the surviving pooled scratch is still warm: the next
    // job is again allocation-free.
    let (_, allocs) = aohpc_testalloc::count_in(|| {
        let mut scratch = pool.acquire();
        run_job(&mut scratch);
        pool.release(scratch);
    });
    assert_eq!(allocs, 0, "churn must not cool the surviving scratch");
    assert_eq!(pool.stats().reused, 7, "jobs 2..6, the held check-out, and the final job");
}

/// The one task of a serial run over `env`, owning every block.
fn serial_ctx<C: Cell>(env: Env<C>) -> TaskCtx<C> {
    let env = Arc::new(env);
    for id in env.data_block_ids() {
        env.block(id).meta.set_dm_tid(Some(0));
    }
    let topology = Topology::serial();
    let shared = Arc::new(RankShared::new(topology.clone(), 0, None, true));
    let slot = topology.slot(0, 0);
    TaskCtx::new(slot, env, shared, Some(WovenProgram::unwoven()), false)
}

/// A plan source holding the plans it was built with, so a sweep that
/// resolves through it compiles nothing.
struct Precompiled(HashMap<(usize, usize), Arc<CompiledKernel>>);

impl PlanSource for Precompiled {
    fn plan_for(&self, _: &StencilProgram, extent: Extent, _: OptLevel) -> Arc<CompiledKernel> {
        Arc::clone(&self.0[&(extent.nx, extent.ny)])
    }
}

/// A usgrid job's sweep — its program lowered to a stencil, run by the IR
/// app on the value plane (CaseC, a ragged tiling) — keeps its plans and
/// scratch in the app, its ring plans in the task's context, and computes
/// in the lent block: a sweep
/// after the first allocates only what the two platform calls around the
/// blocks do (`get_blocks` hands out a fresh block list, `refresh` its
/// payload).  Unframed, the block goes through the scratch's tile; framed as
/// wide as the program reaches, as the service builds it, the block runs in
/// place, its halo in the frame, and the scratch never sizes a tile.  For
/// the stock four and for the "eight" program of `tests/value_plane.rs`
/// (corners, and a reach of 2 on one side).
#[test]
fn warm_usgrid_sweep_allocates_nothing_of_its_own() {
    let eight = vec![(-1, -1), (1, -1), (-1, 1), (1, 1), (0, -1), (-2, 0), (1, 0), (0, 1)];
    let eight = UsGridProgram::new("eight", eight, 2).unwrap();
    for (program, frame) in [UsGridProgram::jacobi4(), eight]
        .into_iter()
        .flat_map(|p| [0, p.to_stencil().frame()].map(|frame| (p.clone(), frame)))
    {
        let what = format!("{} frame {frame}", program.name());
        let stencil = program.to_stencil();
        let system =
            UsGridSystem::with_block_size(RegionSize { nx: 20, ny: 12 }, 8, GridLayout::CaseC);
        let mut ctx = serial_ctx(UsGridValueSystem(system).build_framed_env(frame));
        // The tiles of 8/8/4 x 8/4 come in four shapes, compiled up front.
        let shapes = [(8, 8), (4, 8), (8, 4), (4, 4)].map(|(nx, ny)| {
            let plan = CompiledKernel::compile(&stencil, Extent::new2d(nx, ny), OptLevel::Full);
            ((nx, ny), Arc::new(plan))
        });
        let runs = shapes[0].1.plan().ring.runs().len() as u64;
        let plans = Arc::new(Precompiled(shapes.into_iter().collect()));
        let pool = ScratchPool::new(1);
        let mut app = IrStencilApp::new(stencil, vec![0.5, 0.125], 4)
            .with_plan_source(plans)
            .with_scratch_pool(Arc::clone(&pool));
        app.initialize(&mut ctx);

        let (ok, cold) = aohpc_testalloc::count_in(|| app.kernel(&mut ctx, false));
        assert!(ok);

        let (_, platform) = aohpc_testalloc::count_in(|| {
            let blocks = ctx.get_blocks();
            ctx.refresh();
            blocks
        });
        // The first sweep sizes what the app keeps, once each: the plan memo
        // (4 buckets, then 8 at the fourth shape) = 2, and the scratch's
        // ring and registers, and unframed its tile = 2 or 3 — each grown at
        // the first block, a full 8x8 one, and never again.  The block is
        // lent, not staged; framed, it runs in place: no tile.  It also
        // resolves the six blocks' ring plans: the context's table, sized
        // for the Env's blocks at the first read, and each block's list of
        // plans and
        // each plan's stretches (no run of these rings lands in more than
        // three, which the room of the first push holds) — 1 + 6 x (1 +
        // runs), the runs of the 8x8 ring, as many as any tile's.
        let (rings, scratch) = (1 + 6 * (1 + runs), if frame == 0 { 3 } else { 2 });
        assert_eq!(cold, platform + 2 + scratch + rings, "{what}: the first sweep");
        assert_warm_in_place(&mut app, &mut ctx, platform, &what);
        drop(app);
        if frame != 0 {
            assert_eq!(pool.acquire().tile_len(), 0, "{what}: the lent path sizes no tile");
        }
    }
}

/// Three more sweeps of `app`, each allocating only what the platform's
/// `get_blocks` and `refresh` do (`platform`).
fn assert_warm_in_place(app: &mut IrStencilApp, ctx: &mut TaskCtx<f64>, platform: u64, what: &str) {
    for sweep in 2..5 {
        let (ok, allocs) = aohpc_testalloc::count_in(|| app.kernel(ctx, false));
        assert!(ok);
        assert_eq!(
            allocs, platform,
            "{what} sweep {sweep}: beyond get_blocks + refresh ({platform})"
        );
    }
}

/// The sgrid job's sweep as the service runs it — jacobi on a structured
/// grid framed as wide as the program reaches, plans from a shared source,
/// the scratch from the worker's pool — computes every block in place: its
/// warm sweeps allocate only what the platform does, and the scratch it
/// returns to the pool has never sized a tile.
#[test]
fn warm_sgrid_sweep_runs_in_place() {
    let program = StencilProgram::jacobi_5pt();
    let system = SGridSystem::with_block_size(RegionSize { nx: 96, ny: 64 }, 32);
    let mut ctx = serial_ctx(system.build_framed_env(program.frame()));
    let plan = CompiledKernel::compile(&program, Extent::new2d(32, 32), OptLevel::Full);
    let plans = Arc::new(Precompiled([((32, 32), Arc::new(plan))].into_iter().collect()));
    let pool = ScratchPool::new(1);
    let mut app = IrStencilApp::new(program, vec![0.5, 0.125], 4)
        .with_plan_source(plans)
        .with_scratch_pool(Arc::clone(&pool));
    app.initialize(&mut ctx);
    assert!(app.kernel(&mut ctx, false), "the first sweep");
    let platform = aohpc_testalloc::count_in(|| {
        let blocks = ctx.get_blocks();
        ctx.refresh();
        blocks
    })
    .1;
    assert_warm_in_place(&mut app, &mut ctx, platform, "sgrid");
    drop(app);
    assert_eq!(pool.acquire().tile_len(), 0, "sgrid: the lent path sizes no tile");
}

/// `Finalize` into a checksum sink folds each owned block in place: it
/// allocates only what the platform's `owned_blocks` does, where the field
/// sink's `Finalize` also reserves its pair vector (32 B a cell, 8 MB on the
/// 512² job).  Both give the same checksum bits.
#[test]
fn warm_checksum_finalize_allocates_nothing_of_its_own() {
    let system = SGridSystem::with_block_size(RegionSize { nx: 96, ny: 64 }, 32);
    let program = StencilProgram::jacobi_5pt();
    let plan = CompiledKernel::compile(&program, Extent::new2d(32, 32), OptLevel::Full);
    let plans = Arc::new(Precompiled([((32, 32), Arc::new(plan))].into_iter().collect()));
    let app = IrStencilApp::new(program, vec![0.5, 0.125], 2).with_plan_source(plans);
    let run = |mut app: IrStencilApp| {
        let mut ctx = serial_ctx(system.build_env());
        app.initialize(&mut ctx);
        for _ in 0..2 {
            assert!(app.kernel(&mut ctx, false));
        }
        let platform = aohpc_testalloc::count_in(|| ctx.owned_blocks()).1;
        let finalize = aohpc_testalloc::count_in(|| app.finalize(&mut ctx)).1;
        (platform, finalize)
    };

    let sum = new_checksum_sink();
    let (platform, allocs) = run(app.clone().with_checksum_sink(sum.clone()));
    assert_eq!(allocs, platform, "checksum Finalize: beyond owned_blocks ({platform})");
    let field = new_field_sink();
    let (platform, allocs) = run(app.with_field_sink(field.clone()));
    assert_eq!(allocs, platform + 1, "field Finalize: owned_blocks and the pair vector");
    let want = checksum(field.lock().iter().map(|(_, v)| *v));
    assert_eq!(sum.lock().value().to_bits(), want.to_bits());
}

/// The particle block sweep keeps its ring in the app, its ring plans in
/// the task's context, and updates the lent block in place: a sweep after the first allocates only
/// what `get_blocks` and `refresh` do — nothing a block and nothing a bucket,
/// on a half-empty grid (1,000 particles in 256 buckets) and a full one (2^12
/// in 576).  The Listing-1 `ParticleApp` beside it allocates two `Vec`s a
/// bucket, every sweep.
#[test]
fn warm_particle_sweep_allocates_nothing_of_its_own() {
    let program = ParticleProgram::pair_sweep();
    let kernel = ParticleKernel::compile(&program, Extent::new2d(8, 8), OptLevel::Full);
    let law = kernel.law(1.0);
    for count in [1000, 1 << 12] {
        let system = ParticleSystem::paper(ParticleSize::new(count));
        let buckets = (system.buckets_x * system.buckets_y) as u64;
        let platform = |ctx: &mut TaskCtx<Bucket>| {
            aohpc_testalloc::count_in(|| {
                let blocks = ctx.get_blocks();
                ctx.refresh();
                blocks
            })
            .1
        };

        let mut ctx = serial_ctx(system.build_env());
        let mut app = ParticleBlockApp::new(system.clone(), law, 4);
        app.initialize(&mut ctx);
        // The first sweep sizes the ring: one.  The block is lent, not
        // staged.  It also resolves each block's four ring runs: the
        // context's table, sized for the Env's blocks at the first read,
        // and each block's list of plans and each run's stretches (at most
        // three: a row crosses at most three blocks, or leaves the domain
        // and comes back) — 1 + blocks x (1 + 4).
        let (ok, cold) = aohpc_testalloc::count_in(|| app.kernel(&mut ctx, false));
        assert!(ok);
        let platform = platform(&mut ctx);
        let blocks = buckets / 64;
        assert_eq!(cold, platform + 1 + 1 + 5 * blocks, "{count}: the first sweep");
        for sweep in 2..5 {
            let (ok, allocs) = aohpc_testalloc::count_in(|| app.kernel(&mut ctx, false));
            assert!(ok);
            assert_eq!(allocs, platform, "{count} sweep {sweep}: beyond get_blocks + refresh");
        }

        let mut ctx = serial_ctx(system.build_env());
        let mut reference =
            ParticleApp::new(system, 4).with_pair_force(PairForce(kernel.pair_law(1.0)));
        reference.initialize(&mut ctx);
        assert!(reference.kernel(&mut ctx, false));
        let (ok, allocs) = aohpc_testalloc::count_in(|| reference.kernel(&mut ctx, false));
        assert!(ok);
        assert_eq!(allocs, platform + 2 * buckets, "{count}: the reference, two a bucket");
    }
}
