//! Platform integration: run a compiled subkernel as an end-user application.
//!
//! [`IrStencilApp`] is the stencil family's product app: a [`BlockSweep`]
//! whose block routine runs a [`StencilProgram`] compiled per block shape.
//! The rest of the flow — `Initialize`, the sweep through the
//! `Kernel::execute_block` join point, `refresh`, `Finalize` — is the
//! runtime's one blanket `HpcApp` impl over [`BlockSweep`].
//!
//! The block routine reads the block with one slab `GetDD`
//! ([`TaskCtx::get_block_dd`]), runs the compiled kernel on the
//! dispatcher's backend, and writes the block back with one slab `SetD`
//! ([`TaskCtx::set_block`]).  Only the true out-of-block halo comes through
//! the platform: the plan's [`HaloRing`] lists each of those cells once, and
//! [`fill_halo_ring`] reads the ring with one run read per edge
//! ([`TaskCtx::get_run`], so MMAT and the per-read counters still apply).
//!
//! Because all of it goes through the same Annotation/Memory-Library join
//! points and leaves the same counters as Listing 1's per-cell calls, every
//! aspect module (MPI, OpenMP, hybrid) applies unchanged — which is the point
//! of the paper's layering: the subkernel generator is a DSL-part concern,
//! invisible to the aspect modules.

use crate::backend::{ExecStats, Processor};
use crate::hetero::{HeteroDispatcher, PerProcessorStats};
use crate::opt::{OptLevel, OptStats};
use crate::plan::{CompiledKernel, HaloRing, PlanSource};
use crate::program::StencilProgram;
use crate::tape::{ExecScratch, ScratchPool};
use aohpc_env::{BlockId, Extent, GlobalAddress, LocalAddress};
use aohpc_runtime::{BlockSweep, FieldSink, TaskCtx, TaskSlot};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-task reusable kernel buffers: the tape's [`ExecScratch`] plus the
/// gather/result staging vectors of the block routine.
///
/// A task's app checks one out at its first block and keeps it, so after the
/// first block of the first step every buffer is warm and the whole per-step
/// path allocates nothing.  When the task's app drops at the end of the run,
/// a pool-backed instance returns its `ExecScratch` to the owning
/// [`ScratchPool`] (how the multi-tenant service recycles buffers across jobs
/// per worker); the block-shaped staging vectors are task-sized and simply
/// drop.
#[derive(Debug, Default)]
struct KernelScratch {
    /// Tape registers, halo ring and padded tile.
    exec: ExecScratch,
    /// Staging for the block's current (read-buffer) values.
    cells: Vec<f64>,
    /// Staging for the block's next values.
    out: Vec<f64>,
    pool: Option<Arc<ScratchPool>>,
}

impl KernelScratch {
    /// Check out a scratch, warm from `pool` when one is configured.
    fn acquire(pool: Option<Arc<ScratchPool>>) -> Self {
        let exec = pool.as_deref().map(ScratchPool::acquire).unwrap_or_default();
        KernelScratch { exec, cells: Vec::new(), out: Vec::new(), pool }
    }
}

/// A clone belongs to another task: it starts cold, from the same pool.
impl Clone for KernelScratch {
    fn clone(&self) -> Self {
        KernelScratch::acquire(self.pool.clone())
    }
}

impl Drop for KernelScratch {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.release(std::mem::take(&mut self.exec));
        }
    }
}

/// The platform's [`FieldSink`] under the names stencil callers know it by.
pub use aohpc_runtime::{new_field_sink as new_stencil_field_sink, FieldSink as StencilFieldSink};

/// Shared sink receiving every task's execution statistics, merged in block
/// by block: on one rank `blocks` totals blocks × steps (plus retried
/// passes); across ranks the warm-up pass counts too (see
/// `HpcApp::processing`).
pub type StatsSink = Arc<Mutex<PerProcessorStats>>;

/// Create an empty statistics sink.
pub fn new_stats_sink() -> StatsSink {
    Arc::new(Mutex::new(PerProcessorStats::default()))
}

/// An end-user application whose block routine is an IR subkernel.
#[derive(Clone)]
pub struct IrStencilApp {
    program: StencilProgram,
    params: Vec<f64>,
    loops: usize,
    opt_level: OptLevel,
    dispatcher: HeteroDispatcher,
    field_sink: Option<FieldSink>,
    stats_sink: Option<StatsSink>,
    plan_source: Option<Arc<dyn PlanSource>>,
    scratch_pool: Option<Arc<ScratchPool>>,
    compiled: HashMap<(usize, usize), Arc<CompiledKernel>>,
    /// This task's buffers, checked out at its first block.
    scratch: Option<KernelScratch>,
}

impl std::fmt::Debug for IrStencilApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IrStencilApp")
            .field("program", &self.program.name())
            .field("params", &self.params)
            .field("loops", &self.loops)
            .field("opt_level", &self.opt_level)
            .finish()
    }
}

impl IrStencilApp {
    /// An application running `program` with the given parameters for `loops`
    /// steps, scalar backend, full optimization and the sample DSLs' default
    /// initial condition.
    pub fn new(program: StencilProgram, params: Vec<f64>, loops: usize) -> Self {
        assert!(
            params.len() >= program.num_params(),
            "program {} declares {} parameters, {} given",
            program.name(),
            program.num_params(),
            params.len()
        );
        IrStencilApp {
            program,
            params,
            loops,
            opt_level: OptLevel::Full,
            dispatcher: HeteroDispatcher::default(),
            field_sink: None,
            stats_sink: None,
            plan_source: None,
            scratch_pool: None,
            compiled: HashMap::new(),
            scratch: None,
        }
    }

    /// Use a different optimization level (for ablations).
    pub fn with_opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// Use a heterogeneous dispatcher (which backend runs which block).
    pub fn with_dispatcher(mut self, dispatcher: HeteroDispatcher) -> Self {
        self.dispatcher = dispatcher;
        self
    }

    /// Run every block on one backend.
    pub fn with_processor(self, processor: Processor) -> Self {
        self.with_dispatcher(HeteroDispatcher::single(processor))
    }

    /// Deposit the final field into a sink.
    pub fn with_field_sink(mut self, sink: FieldSink) -> Self {
        self.field_sink = Some(sink);
        self
    }

    /// Deposit per-processor execution statistics into a sink.
    pub fn with_stats_sink(mut self, sink: StatsSink) -> Self {
        self.stats_sink = Some(sink);
        self
    }

    /// Resolve compiled plans through a shared [`PlanSource`] (e.g. the
    /// service layer's sharded cache) instead of compiling privately.  Each
    /// task instance still keeps a local memo per block shape, so the shared
    /// source is consulted once per (task, shape), not once per step.
    pub fn with_plan_source(mut self, source: Arc<dyn PlanSource>) -> Self {
        self.plan_source = Some(source);
        self
    }

    /// Check execution scratch out of (and back into) a shared
    /// [`ScratchPool`] instead of growing fresh buffers per task — long-lived
    /// hosts running many short jobs (the service's workers) keep their
    /// buffers warm across jobs this way.
    pub fn with_scratch_pool(mut self, pool: Arc<ScratchPool>) -> Self {
        self.scratch_pool = Some(pool);
        self
    }

    /// The compile-time statistics of the program at this app's optimization
    /// level (nodes before/after, folds, CSE merges).
    pub fn opt_stats(&self) -> OptStats {
        crate::opt::Dag::lower(self.program.expr(), self.opt_level).stats()
    }

    /// App factory for the runtime driver.
    pub fn factory(&self) -> Arc<dyn Fn(TaskSlot) -> IrStencilApp + Send + Sync> {
        let proto = self.clone();
        Arc::new(move |_slot| proto.clone())
    }

    /// The compiled kernel for a block shape (compiling and caching it on
    /// first use — Assumption II makes the cache hit on every later step).
    fn compiled_for(&mut self, extent: Extent) -> Arc<CompiledKernel> {
        let key = (extent.nx, extent.ny);
        let program = &self.program;
        let level = self.opt_level;
        let source = self.plan_source.as_deref();
        Arc::clone(self.compiled.entry(key).or_insert_with(|| match source {
            Some(src) => src.plan_for(program, extent, level),
            None => Arc::new(CompiledKernel::compile(program, extent, level)),
        }))
    }
}

/// Fill `buf` — one value per slot of `ring` — with the halo of `block`
/// through the platform: one [`TaskCtx::get_run`] per ring run.
pub fn fill_halo_ring(ctx: &mut TaskCtx<f64>, block: BlockId, ring: &HaloRing, buf: &mut [f64]) {
    for run in ring.runs() {
        let (first, step) =
            (LocalAddress::new2d(run.x, run.y), LocalAddress::new2d(run.dx, run.dy));
        ctx.get_run(block, first, step, &mut buf[run.slots()]);
    }
}

/// The default initial condition shared with the sample SGrid DSL, so the two
/// kernels can be compared field-for-field.
pub fn default_initial_value(addr: GlobalAddress) -> f64 {
    ((addr.x * 13 + addr.y * 7) % 97) as f64 / 97.0
}

impl BlockSweep for IrStencilApp {
    type Cell = f64;

    fn loops(&self) -> usize {
        self.loops
    }

    fn initial(&self) -> impl FnMut(GlobalAddress) -> f64 + '_ {
        default_initial_value
    }

    fn sink(&self) -> Option<&FieldSink> {
        self.field_sink.as_ref()
    }

    fn deposit(v: &f64) -> f64 {
        *v
    }

    fn block(&mut self, ctx: &mut TaskCtx<f64>, bid: BlockId, i: usize, n: usize) {
        let processor = self.dispatcher.processor_for(i, n);
        // Compile (or reuse) the plan for this block shape.
        let ext = ctx.env().block(bid).meta.extent;
        let compiled = self.compiled_for(ext);
        let pool = &self.scratch_pool;
        let scratch = self.scratch.get_or_insert_with(|| KernelScratch::acquire(pool.clone()));
        let KernelScratch { exec, cells, out, .. } = scratch;

        // Gather the block's current values (slab GetDD), execute on the
        // assigned backend with the halo ring coming through the platform
        // run by run (so MMAT / Env-search semantics are preserved), and
        // write the next-step values back (slab SetD).
        cells.resize(ext.cells(), 0.0);
        out.resize(ext.cells(), 0.0);
        ctx.get_block_dd(bid, cells);
        let mut stats = ExecStats::default();
        compiled.execute_block_ring(
            cells,
            &self.params,
            |ring, buf| fill_halo_ring(ctx, bid, ring, buf),
            out,
            processor,
            &mut stats,
            exec,
        );
        if let Some(sink) = &self.stats_sink {
            sink.lock().record(processor, &stats);
        }
        ctx.set_block(bid, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::DenseField;
    use aohpc_aop::{Weaver, WovenProgram};
    use aohpc_dsl::{DslSystem, SGridJacobiApp, SGridSystem};
    use aohpc_runtime::{execute, LayerSpec, MpiAspect, OmpAspect, RunConfig, Topology};
    use aohpc_workloads::RegionSize;

    const ALPHA: f64 = 0.5;
    const BETA: f64 = 0.125;

    fn reference_field(region: RegionSize, steps: usize) -> Vec<f64> {
        let mut f = DenseField::new(
            region.nx,
            region.ny,
            |x, y| default_initial_value(GlobalAddress::new2d(x, y)),
            |_, _| 0.0,
        );
        f.run_interpreted(&StencilProgram::jacobi_5pt(), &[ALPHA, BETA], steps);
        f.values().to_vec()
    }

    fn run_ir_app(
        region: RegionSize,
        block: usize,
        topology: Topology,
        woven: WovenProgram,
        app: IrStencilApp,
    ) -> (Vec<f64>, aohpc_runtime::RunReport) {
        let system = Arc::new(SGridSystem::with_block_size(region, block));
        let sink = new_stencil_field_sink();
        let app = app.with_field_sink(sink.clone());
        let config = RunConfig::serial().with_topology(topology);
        let report = execute(&config, woven, system.env_factory(), app.factory());
        let nx = region.nx as i64;
        let mut field = vec![f64::NAN; region.cells()];
        for (addr, v) in sink.lock().iter() {
            field[(addr.y * nx + addr.x) as usize] = *v;
        }
        (field, report)
    }

    fn close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn serial_ir_app_matches_interpreter_reference() {
        let region = RegionSize::square(24);
        let app = IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![ALPHA, BETA], 4);
        let (field, _) = run_ir_app(region, 8, Topology::serial(), WovenProgram::unwoven(), app);
        close(&field, &reference_field(region, 4));
    }

    #[test]
    fn ir_app_matches_the_handwritten_sgrid_app() {
        // The IR subkernel and the hand-written Listing-1-style kernel are the
        // same mathematics; on the same platform they must produce the same
        // field.
        let region = RegionSize::square(24);
        let system = Arc::new(SGridSystem::with_block_size(region, 8));
        let sink = aohpc_dsl::common::new_field_sink();
        let classic = SGridJacobiApp::new(4, 8).with_sink(sink.clone());
        execute(
            &RunConfig::serial(),
            WovenProgram::unwoven(),
            system.env_factory(),
            classic.factory(),
        );
        let nx = region.nx as i64;
        let mut classic_field = vec![f64::NAN; region.cells()];
        for (addr, v) in sink.lock().iter() {
            classic_field[(addr.y * nx + addr.x) as usize] = *v;
        }

        let app = IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![ALPHA, BETA], 4);
        let (ir_field, _) = run_ir_app(region, 8, Topology::serial(), WovenProgram::unwoven(), app);
        close(&ir_field, &classic_field);
    }

    #[test]
    fn parallel_modes_match_reference_for_every_backend() {
        let region = RegionSize::square(32);
        let want = reference_field(region, 3);
        for processor in [Processor::Scalar, Processor::Simd] {
            let woven = Weaver::new()
                .with_aspect(Box::new(MpiAspect::<f64>::new()))
                .with_aspect(Box::new(OmpAspect::<f64>::new()))
                .weave();
            let app = IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![ALPHA, BETA], 3)
                .with_processor(processor);
            let (field, report) = run_ir_app(region, 8, Topology::hybrid(2, 2), woven, app);
            assert_eq!(report.tasks.len(), 4);
            close(&field, &want);
        }
    }

    #[test]
    fn heterogeneous_schedule_matches_reference_and_records_stats() {
        use crate::hetero::SchedulePolicy;
        let region = RegionSize::square(32);
        let stats_sink = new_stats_sink();
        let app = IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![ALPHA, BETA], 3)
            .with_dispatcher(HeteroDispatcher::new(SchedulePolicy::RoundRobin(vec![
                Processor::Simd,
                Processor::Scalar,
                Processor::Simd,
            ])))
            .with_stats_sink(stats_sink.clone());
        let (field, _) = run_ir_app(region, 8, Topology::serial(), WovenProgram::unwoven(), app);
        close(&field, &reference_field(region, 3));
        let stats = stats_sink.lock();
        assert!(stats.get(Processor::Scalar).is_some());
        assert!(stats.get(Processor::Simd).is_some());
        // 16 blocks × 3 steps = 48 block executions (one rank: no warm-up
        // sweep; with it this read 16 × (1 + 3) = 64).
        assert_eq!(stats.total().blocks, 48);
    }

    #[test]
    fn resolution_cache_reduces_platform_accesses() {
        // The classic kernel issues one platform access per load (5 per cell);
        // the compiled plan gathers each cell once and only the halo goes back
        // to the platform.
        let region = RegionSize::square(32);
        let system = Arc::new(SGridSystem::with_block_size(region, 8));
        let classic = SGridJacobiApp::new(3, 8);
        let classic_report = execute(
            &RunConfig::serial(),
            WovenProgram::unwoven(),
            system.clone().env_factory(),
            classic.factory(),
        );

        let ir = IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![ALPHA, BETA], 3);
        let ir_report = execute(
            &RunConfig::serial(),
            WovenProgram::unwoven(),
            system.env_factory(),
            ir.factory(),
        );

        let classic_reads = classic_report.total_counters().reads;
        let ir_reads = ir_report.total_counters().reads;
        assert!(
            ir_reads * 2 < classic_reads,
            "compiled plan should cut platform reads at least in half: {ir_reads} vs {classic_reads}"
        );
    }

    #[test]
    fn nine_point_program_runs_distributed() {
        let region = RegionSize::square(24);
        let mut reference = DenseField::new(
            region.nx,
            region.ny,
            |x, y| default_initial_value(GlobalAddress::new2d(x, y)),
            |_, _| 0.0,
        );
        reference.run_interpreted(&StencilProgram::smooth_9pt(), &[0.6, 0.05], 2);

        let woven = Weaver::new().with_aspect(Box::new(MpiAspect::<f64>::new())).weave();
        let topo = Topology::new(vec![LayerSpec::distributed(3)]);
        let app = IrStencilApp::new(StencilProgram::smooth_9pt(), vec![0.6, 0.05], 2)
            .with_processor(Processor::Simd);
        let (field, report) = run_ir_app(region, 8, topo, woven, app);
        assert_eq!(report.ranks.len(), 3);
        close(&field, reference.values());
    }

    #[test]
    fn opt_stats_reflect_the_level() {
        let app = IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![ALPHA, BETA], 1);
        let full = app.opt_stats();
        let none = app.with_opt_level(OptLevel::None).opt_stats();
        assert!(full.dag_nodes <= none.dag_nodes);
        assert_eq!(none.tree_nodes, full.tree_nodes);
    }

    #[test]
    #[should_panic(expected = "parameters")]
    fn missing_params_are_rejected() {
        IrStencilApp::new(StencilProgram::jacobi_5pt(), vec![ALPHA], 1);
    }
}
