//! The Annotation Library: the `Initialize` / `Processing` / `Finalize`
//! contract between end-user applications and the platform.
//!
//! In the paper the annotation library is a C++ virtual class whose three
//! functions the platform calls in order, and whose names are the pointcuts
//! the aspect modules advise.  Here it is the [`HpcApp`] trait.  End-users
//! (or DSL parts, on their behalf) implement:
//!
//! * [`HpcApp::initialize`] — fill the Data Blocks owned by this task;
//! * [`HpcApp::kernel`] — one step over the task's blocks, ending in
//!   `ctx.refresh()`; returns that refresh's outcome;
//! * [`HpcApp::finalize`] — post-processing (reductions, output);
//! * [`HpcApp::loop_count`] — the number of main-loop iterations.
//!
//! [`HpcApp::processing`] has a default implementation reproducing Listing 1:
//! `loop_count` real steps, re-executing any step whose refresh failed (the
//! platform's recompute-on-miss semantics), preceded — on a run with a
//! distributed layer, the only reader of a dry run — by one warm-up
//! execution of the kernel.  A single-rank run sweeps `loop_count` times, not
//! `loop_count + 1`; the contract is stated on [`HpcApp::processing`].
//!
//! A product app of a DSL family does not write that flow out.  It
//! implements [`BlockSweep`] — its access shape and its law as one block
//! routine, plus the initial field and the sink — and the one blanket
//! [`HpcApp`] impl over it owns `Initialize`, the sweep over `get_blocks`
//! (each block through the `Kernel::execute_block` join point), `refresh` and
//! `Finalize`.

use crate::ctx::{FieldSink, TaskCtx};
use aohpc_env::{BlockId, Cell, GlobalAddress};

/// Hard cap on consecutive re-executions of one step; exceeding it means the
/// data needed never arrives (a deadlock in user logic), so processing stops.
pub const MAX_RETRIES_PER_STEP: u64 = 16;

/// An end-user application (the App Part of the paper).
pub trait HpcApp<C: Cell> {
    /// Number of main-loop iterations (`LOOP_NUM` of Listing 1).
    fn loop_count(&self) -> usize;

    /// Initialise the data of the blocks owned by this task.
    fn initialize(&mut self, ctx: &mut TaskCtx<C>);

    /// One kernel step: update every block returned by `ctx.get_blocks()`,
    /// then call `ctx.refresh()` and return its result.
    fn kernel(&mut self, ctx: &mut TaskCtx<C>, warmup: bool) -> bool;

    /// Post-processing after the main loop.
    fn finalize(&mut self, ctx: &mut TaskCtx<C>);

    /// The Processing function of the annotation library (overridable).
    ///
    /// **The sweep contract.**  A task runs the kernel `loop_count` times,
    /// plus once per failed refresh (a retry), plus — only on a run with a
    /// distributed layer ([`TaskCtx::has_distributed_layer`]: more than one
    /// rank in the topology) — once before step 0 as Listing 1's
    /// `WarmUp(Kernel)`:
    ///
    /// | ranks | kernel sweeps a task | `WARM_UP` / warm-flagged `KERNEL_STEP` |
    /// |-------|----------------------|----------------------------------------|
    /// | 1     | `loop_count` + retries     | never dispatched                 |
    /// | > 1   | `1 + loop_count` + retries | once each, before step 0         |
    ///
    /// The warm-up is a dry run: a full kernel pass whose writes are never
    /// rotated in.  What it leaves behind is read by the distributed
    /// module's AspectType III advice alone — the non-existent pages the
    /// pass records at `refresh` are fetched and, with
    /// [`RunConfig::with_dry_run`](crate::RunConfig::with_dry_run), become
    /// the Dry-run prefetch plan, so step 0 finds its halo pages present
    /// instead of being retried.  On one rank every page is local and no
    /// such advice runs, so the pass is skipped, whatever the thread count
    /// and with MMAT on or off: everything else a kernel sets up at its
    /// first pass (a compiled plan, a `GatherPlan`, the MMAT memo, which
    /// starts empty in a fresh task) is set up by step 0 at no extra cost,
    /// and every step computes the same bits either way.  Counters follow:
    /// reads, writes, dispatches and cost-model seconds of a single-rank run
    /// are `loop_count` sweeps' worth, those of a multi-rank run
    /// `1 + loop_count`.
    fn processing(&mut self, ctx: &mut TaskCtx<C>) {
        if ctx.has_distributed_layer() {
            ctx.begin_warmup();
            let _ = ctx.run_kernel_step(true, |ctx| self.kernel(ctx, true));
            ctx.end_warmup();
        }

        let loops = self.loop_count();
        let mut consecutive_failures = 0u64;
        while (ctx.steps_done() as usize) < loops {
            let ok = ctx.run_kernel_step(false, |ctx| self.kernel(ctx, false));
            if ok {
                consecutive_failures = 0;
            } else {
                consecutive_failures += 1;
                if consecutive_failures > MAX_RETRIES_PER_STEP {
                    break;
                }
            }
        }
    }
}

/// A product app as a DSL family supplies it: how one block is updated, and
/// nothing else of the application flow.
///
/// The blanket `impl<S: BlockSweep> HpcApp<S::Cell> for S` runs it:
///
/// * `Initialize` — [`TaskCtx::initialize_owned`] on [`BlockSweep::initial`];
/// * a sweep — [`TaskCtx::get_blocks`], then [`BlockSweep::block`] for each
///   block inside [`TaskCtx::run_block`] (so every family's blocks are
///   `Kernel::execute_block` join points, a direct call when unadvised),
///   then `refresh`;
/// * `Finalize` — [`TaskCtx::deposit_owned`] of [`BlockSweep::deposit`] into
///   [`BlockSweep::sink`], when there is one.
///
/// An app instance is one task's (the driver builds one per task), so what a
/// block routine keeps between passes — staging slabs, resolved plans —
/// lives in `self`.
pub trait BlockSweep {
    /// The cell type of the Env the sweep runs on.
    type Cell: Cell;

    /// Number of main-loop iterations ([`HpcApp::loop_count`]).
    fn loops(&self) -> usize;

    /// The step-0 value of the cell at each global address.
    fn initial(&self) -> impl FnMut(GlobalAddress) -> Self::Cell + '_;

    /// Where `Finalize` deposits the field, if anywhere.
    fn sink(&self) -> Option<&FieldSink>;

    /// The value `Finalize` deposits for one cell.
    fn deposit(cell: &Self::Cell) -> f64;

    /// One block's pass: gather its values and neighbours, apply the law,
    /// `set_block` the result.  The block is number `i` of the `n` this
    /// sweep's `get_blocks` returned.
    fn block(&mut self, ctx: &mut TaskCtx<Self::Cell>, bid: BlockId, i: usize, n: usize);
}

impl<S: BlockSweep> HpcApp<S::Cell> for S {
    fn loop_count(&self) -> usize {
        self.loops()
    }

    fn initialize(&mut self, ctx: &mut TaskCtx<S::Cell>) {
        ctx.initialize_owned(self.initial());
    }

    fn kernel(&mut self, ctx: &mut TaskCtx<S::Cell>, _warmup: bool) -> bool {
        let blocks = ctx.get_blocks();
        let n = blocks.len();
        for (i, &bid) in blocks.iter().enumerate() {
            let cells = ctx.env().block(bid).meta.extent.cells();
            ctx.run_block(bid as i64, cells, |ctx| self.block(ctx, bid, i, n));
        }
        ctx.refresh()
    }

    fn finalize(&mut self, ctx: &mut TaskCtx<S::Cell>) {
        if let Some(sink) = self.sink() {
            ctx.deposit_owned(sink, S::deposit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::RankShared;
    use crate::task::Topology;
    use aohpc_aop::WovenProgram;
    use aohpc_env::{Env, EnvBuilder, Extent, GlobalAddress, LocalAddress};
    use aohpc_mem::PoolHandle;
    use std::sync::Arc;

    struct Counting {
        loops: usize,
        kernel_calls: usize,
        warmup_calls: usize,
        fail_first_n: usize,
        block: usize,
    }

    impl HpcApp<f64> for Counting {
        fn loop_count(&self) -> usize {
            self.loops
        }
        fn initialize(&mut self, ctx: &mut TaskCtx<f64>) {
            ctx.set_initial(self.block, LocalAddress::new2d(0, 0), 1.0);
        }
        fn kernel(&mut self, ctx: &mut TaskCtx<f64>, warmup: bool) -> bool {
            self.kernel_calls += 1;
            if warmup {
                self.warmup_calls += 1;
            }
            let blocks = ctx.get_blocks();
            for b in blocks {
                let v = ctx.get_dd(b, LocalAddress::new2d(0, 0));
                ctx.set(b, LocalAddress::new2d(0, 0), v + 1.0);
            }
            if !warmup && self.fail_first_n > 0 {
                self.fail_first_n -= 1;
                // Simulate a failed data update without touching the Env.
                return false;
            }
            ctx.refresh()
        }
        fn finalize(&mut self, _ctx: &mut TaskCtx<f64>) {}
    }

    fn setup() -> (Arc<Env<f64>>, usize) {
        let mut b = EnvBuilder::<f64>::new(PoolHandle::unbounded(), 4);
        let root = b.add_empty(None);
        let joint = b.add_empty(Some(root));
        let id = b.add_data(joint, GlobalAddress::new2d(0, 0), Extent::new2d(2, 2), 0).unwrap();
        let env = b.build();
        env.block(id).meta.set_dm_tid(Some(0));
        env.block(id).meta.set_ch_tid(Some(0));
        (Arc::new(env), id)
    }

    fn ctx(env: Arc<Env<f64>>) -> TaskCtx<f64> {
        ctx_on(env, Topology::serial())
    }

    /// Rank 0's context on `topo`, no communicator: enough for `processing`,
    /// which reads the topology alone to decide on the warm-up.
    fn ctx_on(env: Arc<Env<f64>>, topo: Topology) -> TaskCtx<f64> {
        let shared = Arc::new(RankShared::new(topo.clone(), 0, None, true));
        TaskCtx::new(topo.slot(0, 0), env, shared, WovenProgram::unwoven(), true, false)
    }

    /// Run `loops` steps, the first `fail_first_n` real passes failing, on
    /// `topo`; the app and its context afterwards.
    fn processed(topo: Topology, loops: usize, fail_first_n: usize) -> (Counting, TaskCtx<f64>) {
        let (env, block) = setup();
        let mut app = Counting { loops, kernel_calls: 0, warmup_calls: 0, fail_first_n, block };
        let mut c = ctx_on(env, topo);
        app.initialize(&mut c);
        app.processing(&mut c);
        (app, c)
    }

    #[test]
    fn single_rank_processing_runs_the_loops_and_no_warmup() {
        let (app, c) = processed(Topology::serial(), 5, 0);
        assert_eq!(app.warmup_calls, 0);
        assert_eq!(app.kernel_calls, 5, "5 steps, no warm-up (was 1 + 5 = 6)");
        assert_eq!(c.steps_done(), 5);
        assert_eq!(c.retries(), 0);
        // Threads are not a distributed layer.
        let (app, _) = processed(Topology::hybrid(1, 2), 5, 0);
        assert_eq!((app.warmup_calls, app.kernel_calls), (0, 5));
    }

    #[test]
    fn two_rank_processing_runs_warmup_plus_loops() {
        let (app, c) = processed(Topology::hybrid(2, 1), 5, 0);
        assert_eq!(app.warmup_calls, 1);
        assert_eq!(app.kernel_calls, 6, "1 warm-up + 5 steps");
        assert_eq!(c.steps_done(), 5);
        assert_eq!(c.retries(), 0);
        assert!(!c.is_warmup(), "the flag is down once the pass ends");
    }

    #[test]
    fn single_rank_failed_steps_are_reexecuted() {
        let (app, c) = processed(Topology::serial(), 3, 2);
        assert_eq!(c.steps_done(), 3);
        assert_eq!(c.retries(), 2);
        assert_eq!(app.kernel_calls, 3 + 2, "3 steps + 2 retries (was 1 + 3 + 2 = 6)");
    }

    #[test]
    fn two_rank_failed_steps_are_reexecuted() {
        let (app, c) = processed(Topology::hybrid(2, 1), 3, 2);
        assert_eq!(c.steps_done(), 3);
        assert_eq!(c.retries(), 2);
        assert_eq!(app.kernel_calls, 1 + 3 + 2);
    }

    #[test]
    fn runaway_retries_abort_processing() {
        struct AlwaysFails;
        impl HpcApp<f64> for AlwaysFails {
            fn loop_count(&self) -> usize {
                4
            }
            fn initialize(&mut self, _ctx: &mut TaskCtx<f64>) {}
            fn kernel(&mut self, _ctx: &mut TaskCtx<f64>, _warmup: bool) -> bool {
                false
            }
            fn finalize(&mut self, _ctx: &mut TaskCtx<f64>) {}
        }
        let (env, _block) = setup();
        let mut c = ctx(env);
        AlwaysFails.processing(&mut c);
        assert_eq!(c.steps_done(), 0);
        assert!(c.retries() >= MAX_RETRIES_PER_STEP);
    }

    #[test]
    fn initialization_is_visible_to_first_step() {
        let (env, block) = setup();
        let mut app =
            Counting { loops: 2, kernel_calls: 0, warmup_calls: 0, fail_first_n: 0, block };
        let mut c = ctx(env);
        app.initialize(&mut c);
        app.processing(&mut c);
        // Step semantics: the value starts at 1.0 (initialised), each step adds
        // 1 to the previous step's value.  Warm-up writes are discarded (no
        // swap), so after 2 real steps the value is 3.0.
        let v = c.get_dd(block, LocalAddress::new2d(0, 0));
        assert_eq!(v, 3.0);
    }
}
