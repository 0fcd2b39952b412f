//! Task context, rank-shared state and the join-point payloads.
//!
//! A [`TaskCtx`] is what an end-user application sees: the Block-based memory
//! interface (`get` / `get_dd` / `set` per cell, `get_run` per halo edge,
//! `resolve_gather` once and `get_gather` per pass for a neighbour list,
//! `get_block_dd` / `set_block` / `set_initial_block` per block),
//! `get_blocks`, `refresh`, and a handful of introspection helpers.
//! Internally every one of those calls is dispatched through the woven
//! program, so aspect modules can intercept them — this is the runtime
//! analogue of the AspectC++ pointcuts on the memory and annotation
//! libraries.
//!
//! [`RankShared`] is the state one rank's tasks share: the barrier of the
//! shared-memory layer, the communicator of the distributed layer, the merged
//! missing-page list and the Dry-run prefetch plan.

use crate::comm::Communicator;
use crate::task::{TaskSlot, Topology};
use aohpc_aop::{
    attr, JoinPointKind, WovenProgram, GET_BLOCKS, KERNEL_BLOCK, KERNEL_STEP, REFRESH, WARM_UP,
};
use aohpc_env::{AccessState, BlockId, Cell, Env, GatherPlan, GlobalAddress, LocalAddress};
use aohpc_mem::PageId;
use parking_lot::Mutex;
use serde::Serialize;
use std::any::Any;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

// ---------------------------------------------------------------------------
// Join-point payloads
// ---------------------------------------------------------------------------

/// Payload of the `Program::main` execution join point.
pub struct MainPayload<C: Cell> {
    /// Parallelism of the distributed layer.
    pub ranks: usize,
    /// Runs one rank's whole program (build Env replica, initialise, process,
    /// finalise).  The body runs it once for rank 0; the distributed-layer
    /// aspect runs it once per rank on its own thread with a communicator.
    /// Ranks reach `Finalize` in rank order (rank `r` waits for `r - 1`), so
    /// an aspect running them one after another must go in ascending order.
    pub run_rank: Arc<dyn Fn(usize, Option<Communicator<C>>) + Send + Sync>,
    /// Runtime-control log (AspectType I events such as `mpi:init`).
    pub runtime_log: Arc<Mutex<Vec<String>>>,
}

/// Payload of the `Annotation::Processing` execution join point.
pub struct ProcessingPayload {
    /// Parallelism of the shared-memory layer.
    pub threads: usize,
    /// Runs the processing loop of one shared-layer task.  The body runs it
    /// once for thread 0; the shared-layer aspect runs it once per thread.
    pub run_thread: Arc<dyn Fn(usize) + Send + Sync>,
    /// Runtime-control log (AspectType I events such as `omp:spawn`).
    pub runtime_log: Arc<Mutex<Vec<String>>>,
}

/// Payload of the `Memory::get_blocks` call join point.
pub struct GetBlocksPayload {
    /// Blocks to iterate (body: all blocks managed by this task's rank;
    /// AspectType II advice narrows this to the calling task's share).
    pub blocks: Vec<BlockId>,
    /// Calling task's thread index within its rank.
    pub thread: usize,
    /// Shared-layer parallelism.
    pub threads: usize,
    /// Calling task's global id.
    pub task_id: usize,
}

/// Payload of the `Memory::refresh` call join point.
pub struct RefreshPayload<C: Cell> {
    /// Whether this refresh belongs to the warm-up (dry-run) pass.
    pub warmup: bool,
    /// Calling task's slot.
    pub slot: TaskSlot,
    /// Shared-layer parallelism.
    pub threads: usize,
    /// The Env of this rank.
    pub env: Arc<Env<C>>,
    /// Rank-shared state (missing pages, prefetch plan, communicator,
    /// barrier).
    pub shared: Arc<RankShared<C>>,
    /// Pages the calling task found missing during this step (drained from
    /// its access state).  Advice merges this into the rank-shared list.
    pub local_missing: Vec<(BlockId, PageId)>,
    /// Set by the distributed layer's advice: the buffer rotation must wait
    /// until the *global* success is known (the advice performs it), so the
    /// original body must not rotate on local success alone.
    pub defer_swap: bool,
    /// The refresh outcome: true when the step's data update succeeded and
    /// the program may proceed to the next step.
    pub success: bool,
}

/// Payload of the `Annotation::KernelStep` execution join point.
#[derive(Debug, Clone, Copy)]
pub struct KernelStepPayload {
    /// Step index.
    pub step: u64,
    /// Whether this is a warm-up execution.
    pub warmup: bool,
}

// ---------------------------------------------------------------------------
// Progress notification
// ---------------------------------------------------------------------------

/// A point-in-time progress snapshot of one run (see [`ProgressNotifier`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Progress {
    /// Kernel steps completed across all tasks (non-warm-up, successful).
    pub steps: u64,
    /// Tasks whose processing loop has finished.
    pub tasks_finished: u64,
}

/// Live progress counters a run publishes while it executes.
///
/// Install one into a [`RunConfig`](crate::RunConfig) with
/// [`RunConfig::with_progress`](crate::RunConfig::with_progress); the driver
/// hands it to every task context, [`TaskCtx::run_kernel_step`] bumps the
/// step counter on each successful non-warm-up step, and
/// [`TaskCtx::into_report`] marks the task finished.  An observer on another
/// thread (a job handle, a monitoring endpoint) samples
/// [`ProgressNotifier::snapshot`] without synchronizing with the run — the
/// counters are plain atomics, so a mid-step read is always a valid
/// lower bound on completed work.
#[derive(Default)]
pub struct ProgressNotifier {
    steps: AtomicU64,
    tasks_finished: AtomicU64,
}

impl ProgressNotifier {
    /// Fresh counters, shared via `Arc`.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record one completed (successful, non-warm-up) kernel step.
    pub fn record_step(&self) {
        self.steps.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one task's processing loop finishing.
    pub fn record_task_finished(&self) {
        self.tasks_finished.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed steps so far (across all tasks).
    pub fn steps_done(&self) -> u64 {
        self.steps.load(Ordering::Relaxed)
    }

    /// Finished tasks so far.
    pub fn tasks_finished(&self) -> u64 {
        self.tasks_finished.load(Ordering::Relaxed)
    }

    /// Both counters, read together.
    pub fn snapshot(&self) -> Progress {
        Progress { steps: self.steps_done(), tasks_finished: self.tasks_finished() }
    }
}

impl std::fmt::Debug for ProgressNotifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressNotifier")
            .field("steps", &self.steps_done())
            .field("tasks_finished", &self.tasks_finished())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Rank-shared state
// ---------------------------------------------------------------------------

/// State shared by all tasks of one rank.
pub struct RankShared<C> {
    /// The topology of the run.
    pub topology: Topology,
    /// This rank.
    pub rank: usize,
    /// Barrier across the rank's shared-layer tasks.
    pub barrier: Barrier,
    /// The distributed-layer endpoint (None for single-rank runs).
    pub comm: Option<Mutex<Communicator<C>>>,
    /// Missing pages merged from all tasks of the rank for the current
    /// refresh.
    pub missing: Mutex<Vec<(BlockId, PageId)>>,
    /// The Dry-run prefetch plan: pages this rank had to fetch at least once.
    pub prefetch_plan: Mutex<HashSet<(BlockId, PageId)>>,
    /// Whether the Dry-run prefetch is enabled.
    pub dry_run: bool,
    /// Outcome of the last collective refresh (written by the master task).
    pub last_success: AtomicBool,
}

impl<C: Cell> RankShared<C> {
    /// Create the shared state of one rank.
    pub fn new(
        topology: Topology,
        rank: usize,
        comm: Option<Communicator<C>>,
        dry_run: bool,
    ) -> Self {
        let threads = topology.threads_per_rank();
        RankShared {
            topology,
            rank,
            barrier: Barrier::new(threads),
            comm: comm.map(Mutex::new),
            missing: Mutex::new(Vec::new()),
            prefetch_plan: Mutex::new(HashSet::new()),
            dry_run,
            last_success: AtomicBool::new(true),
        }
    }

    /// Merge a task's missing pages into the rank-level list (deduplicated).
    pub fn merge_missing(&self, pages: &[(BlockId, PageId)]) {
        if pages.is_empty() {
            return;
        }
        let mut guard = self.missing.lock();
        for p in pages {
            if !guard.contains(p) {
                guard.push(*p);
            }
        }
    }

    /// Drain the rank-level missing list.
    pub fn take_missing(&self) -> Vec<(BlockId, PageId)> {
        std::mem::take(&mut self.missing.lock())
    }

    /// Record fetched pages in the prefetch plan (Dry-run bookkeeping).
    pub fn extend_plan(&self, pages: impl IntoIterator<Item = (BlockId, PageId)>) {
        self.prefetch_plan.lock().extend(pages);
    }

    /// Snapshot of the prefetch plan.
    pub fn plan_snapshot(&self) -> Vec<(BlockId, PageId)> {
        let mut v: Vec<_> = self.prefetch_plan.lock().iter().copied().collect();
        v.sort_unstable();
        v
    }
}

// ---------------------------------------------------------------------------
// Task context
// ---------------------------------------------------------------------------

/// Where `Finalize` deposits a field: `(global address, value)` pairs from
/// every rank ([`TaskCtx::deposit_owned`]), so tests, examples and harnesses
/// can observe the outcome of a parallel run.
pub type FieldSink = Arc<Mutex<Vec<(GlobalAddress, f64)>>>;

/// Create an empty [`FieldSink`].
pub fn new_field_sink() -> FieldSink {
    Arc::new(Mutex::new(Vec::new()))
}

/// Everything one task needs to run its part of the application.
pub struct TaskCtx<C: Cell> {
    slot: TaskSlot,
    env: Arc<Env<C>>,
    shared: Arc<RankShared<C>>,
    woven: WovenProgram,
    use_weaver: bool,
    /// Whether any advice matches `Kernel::execute_block` — computed once so
    /// un-instrumented runs skip the block dispatch entirely (no dispatch
    /// counter bump, no `JoinPointCtx` construction on the per-block path).
    block_advised: bool,
    /// Task-local access state (counters, MMAT, missing pages).
    pub state: AccessState,
    /// Run-level progress counters, bumped as this task completes steps.
    progress: Option<Arc<ProgressNotifier>>,
    warmup: bool,
    step: u64,
    steps_done: u64,
    retries: u64,
}

impl<C: Cell> TaskCtx<C> {
    /// Create a context for one task.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        slot: TaskSlot,
        env: Arc<Env<C>>,
        shared: Arc<RankShared<C>>,
        woven: WovenProgram,
        use_weaver: bool,
        mmat: bool,
    ) -> Self {
        let block_advised =
            use_weaver && woven.matching_advice_count(KERNEL_BLOCK, JoinPointKind::Execution) > 0;
        TaskCtx {
            slot,
            env,
            shared,
            woven,
            use_weaver,
            block_advised,
            state: if mmat { AccessState::with_mmat() } else { AccessState::new() },
            progress: None,
            warmup: false,
            step: 0,
            steps_done: 0,
            retries: 0,
        }
    }

    /// The task's slot (global id, rank, thread).
    pub fn slot(&self) -> TaskSlot {
        self.slot
    }

    /// Global task id.
    pub fn task_id(&self) -> usize {
        self.slot.task_id
    }

    /// Rank within the distributed layer.
    pub fn rank(&self) -> usize {
        self.slot.rank
    }

    /// Thread within the shared layer.
    pub fn thread(&self) -> usize {
        self.slot.thread
    }

    /// The Env this task computes on.
    pub fn env(&self) -> &Arc<Env<C>> {
        &self.env
    }

    /// The rank-shared state.
    pub fn shared(&self) -> &Arc<RankShared<C>> {
        &self.shared
    }

    /// The topology of the run.
    pub fn topology(&self) -> &Topology {
        &self.shared.topology
    }

    /// Whether the run has a distributed layer (more than one rank in the
    /// topology): the one reader of a dry run, so the condition under which
    /// [`HpcApp::processing`](crate::HpcApp::processing) runs the warm-up
    /// pass.  Read from the topology, not from `shared.comm`: a run whose
    /// topology has ranks but whose weave never started them (Direct mode)
    /// is still a multi-rank run.
    pub fn has_distributed_layer(&self) -> bool {
        self.shared.topology.ranks() > 1
    }

    /// Whether the current kernel execution is the warm-up (dry-run) pass.
    /// Never true on a single-rank run, which has no such pass.
    pub fn is_warmup(&self) -> bool {
        self.warmup
    }

    /// Current step index.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Completed steps.
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// Re-executed steps.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Install run-level progress counters: every successful non-warm-up
    /// step this task completes bumps them, and [`TaskCtx::into_report`]
    /// marks the task finished.  The driver calls this for every task when
    /// the [`RunConfig`](crate::RunConfig) carries a notifier.
    pub fn set_progress(&mut self, progress: Arc<ProgressNotifier>) {
        self.progress = Some(progress);
    }

    fn dispatch(
        &self,
        name: &str,
        kind: JoinPointKind,
        attrs: &[(&'static str, i64)],
        payload: &mut dyn Any,
        body: &mut dyn FnMut(&mut aohpc_aop::JoinPointCtx<'_>),
    ) {
        if self.use_weaver {
            self.woven.dispatch_with(name, kind, attrs, payload, body);
        } else {
            let mut ctx = aohpc_aop::JoinPointCtx::new(name, kind, payload);
            for (k, v) in attrs {
                ctx.set_attr(k, *v);
            }
            body(&mut ctx);
        }
    }

    // -- Annotation-library support ---------------------------------------

    /// Begin the warm-up pass: clears MMAT (as the paper's `WarmUp` macro
    /// does), dispatches [`WARM_UP`] and switches the access mode to dry-run
    /// — until [`TaskCtx::end_warmup`], `refresh` judges success and (under
    /// the distributed module) fetches the pages found missing, but rotates
    /// no buffer.  The default `processing` calls this only on a run with a
    /// distributed layer ([`TaskCtx::has_distributed_layer`]).
    pub fn begin_warmup(&mut self) {
        // The WarmUp macro clears previously collected MMAT information.
        self.state.reset_mmat();
        if self.use_weaver {
            let mut payload = ();
            let attrs = [(attr::TASK_ID, self.slot.task_id as i64), (attr::WARMUP, 1)];
            let woven = self.woven.clone();
            woven.dispatch_with(
                WARM_UP,
                JoinPointKind::Execution,
                &attrs,
                &mut payload,
                &mut |_| {},
            );
        }
        self.warmup = true;
    }

    /// End the warm-up pass: what it computed is discarded, what its
    /// `refresh` fetched and memorised (pages, the Dry-run plan) stays for
    /// step 0.
    pub fn end_warmup(&mut self) {
        self.warmup = false;
    }

    /// Execute one kernel step through the `Annotation::KernelStep` join
    /// point, handling step/retry accounting.  `body` is the user kernel and
    /// returns the refresh outcome.
    pub fn run_kernel_step(&mut self, warmup: bool, body: impl FnOnce(&mut Self) -> bool) -> bool {
        let step = self.step;
        let mut payload = KernelStepPayload { step, warmup };
        // The kernel needs `&mut self`, so it cannot run inside a dispatch
        // closure that also borrows `self.woven`.  Dispatch the join point
        // around a marker body, then run the kernel; instrumentation aspects
        // observe the step boundaries, which is what they need.
        let attrs = [
            (attr::TASK_ID, self.slot.task_id as i64),
            (attr::STEP, step as i64),
            (attr::WARMUP, i64::from(warmup)),
        ];
        if self.use_weaver {
            let woven = self.woven.clone();
            woven.dispatch_with(
                KERNEL_STEP,
                JoinPointKind::Execution,
                &attrs,
                &mut payload,
                &mut |_| {},
            );
        }
        let ok = body(self);
        if !warmup {
            if ok {
                self.steps_done += 1;
                self.step += 1;
                if let Some(progress) = &self.progress {
                    progress.record_step();
                }
            } else {
                self.retries += 1;
            }
        }
        ok
    }

    /// Execute one block of kernel work through the `Kernel::execute_block`
    /// join point, so instrumentation aspects (tracing, autotuning) can wrap
    /// the platform's real per-block work.
    ///
    /// Unlike [`TaskCtx::run_kernel_step`], the body runs *inside* the
    /// dispatch (around advice brackets actual block execution).  When no
    /// advice matches the join point — the common case — the body is called
    /// directly with zero dispatch overhead and no dispatch-counter bump.
    pub fn run_block<R>(
        &mut self,
        block: i64,
        cells: usize,
        body: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.block_advised {
            return body(self);
        }
        let attrs = [
            (attr::TASK_ID, self.slot.task_id as i64),
            (attr::STEP, self.step as i64),
            (attr::WARMUP, i64::from(self.warmup)),
            (attr::BLOCK, block),
            (attr::CELLS, cells as i64),
        ];
        let woven = self.woven.clone();
        let mut body = Some(body);
        let mut result = None;
        let mut payload = ();
        woven.dispatch_with(
            KERNEL_BLOCK,
            JoinPointKind::Execution,
            &attrs,
            &mut payload,
            &mut |_| {
                if let Some(b) = body.take() {
                    result = Some(b(self));
                }
            },
        );
        // Instrumentation must never change semantics: if an around advice
        // suppressed the body, run it anyway.
        if let Some(b) = body.take() {
            result = Some(b(self));
        }
        result.expect("run_block body executes exactly once")
    }

    // -- Memory-library Block-based interface -------------------------------

    /// The blocks this task must update this step (`Env::get_blocks` routed
    /// through the `Memory::get_blocks` join point so AspectType II advice
    /// can divide them).
    pub fn get_blocks(&mut self) -> Vec<BlockId> {
        let master = self.shared.topology.rank_master_task(self.slot.rank);
        let env = self.env.clone();
        let mut payload = GetBlocksPayload {
            blocks: Vec::new(),
            thread: self.slot.thread,
            threads: self.shared.topology.threads_per_rank(),
            task_id: self.slot.task_id,
        };
        let attrs = [
            (attr::TASK_ID, self.slot.task_id as i64),
            (attr::THREAD, self.slot.thread as i64),
            (attr::PARALLELISM, self.shared.topology.threads_per_rank() as i64),
        ];
        self.dispatch(GET_BLOCKS, JoinPointKind::Call, &attrs, &mut payload, &mut |ctx| {
            let p = ctx.payload_mut::<GetBlocksPayload>().expect("GetBlocksPayload");
            p.blocks = env
                .data_block_ids()
                .into_iter()
                .filter(|&id| env.block(id).meta.dm_tid() == Some(master))
                .collect();
        });
        payload.blocks
    }

    /// All blocks whose data this task's rank manages (`dm_tid` = the rank's
    /// master task), regardless of how the shared layer divides them for
    /// computation.
    ///
    /// This is the enumeration the data-manager task uses in `Initialize` and
    /// `Finalize`: those run once per rank (outside `Processing`, so outside
    /// the shared layer's task split), and must cover every block the rank
    /// owns.  The per-step computation uses [`TaskCtx::get_blocks`] instead,
    /// which is the advised join point.
    pub fn owned_blocks(&self) -> Vec<BlockId> {
        let master = self.shared.topology.rank_master_task(self.slot.rank);
        self.env
            .data_block_ids()
            .into_iter()
            .filter(|&id| self.env.block(id).meta.dm_tid() == Some(master))
            .collect()
    }

    /// Try to publish this step's data (`Env::refresh` routed through the
    /// `Memory::refresh` join point so AspectType III advice can fetch the
    /// recorded non-existent pages from other tasks).
    ///
    /// Returns `true` when the update succeeded and the program may proceed
    /// to the next step; `false` when the step must be re-executed.
    pub fn refresh(&mut self) -> bool {
        let local_missing = self.state.take_missing();
        let dm_task = self.shared.topology.rank_master_task(self.slot.rank);
        let mut payload = RefreshPayload {
            warmup: self.warmup,
            slot: self.slot,
            threads: self.shared.topology.threads_per_rank(),
            env: self.env.clone(),
            shared: self.shared.clone(),
            local_missing,
            defer_swap: false,
            success: false,
        };
        let attrs = [
            (attr::TASK_ID, self.slot.task_id as i64),
            (attr::THREAD, self.slot.thread as i64),
            (attr::WARMUP, i64::from(self.warmup)),
        ];
        self.dispatch(REFRESH, JoinPointKind::Call, &attrs, &mut payload, &mut |ctx| {
            let p = ctx.payload_mut::<RefreshPayload<C>>().expect("RefreshPayload");
            // Original (single-task) refresh: succeed iff no non-existent data
            // was accessed; on success, rotate the owned blocks' buffers to
            // publish the new step.  When the distributed layer is woven in,
            // its advice defers the rotation until the global outcome is
            // known.
            let ok = p.local_missing.is_empty() && p.shared.missing.lock().is_empty();
            if ok && !p.warmup && !p.defer_swap {
                p.env.swap_owned_buffers(dm_task);
            }
            p.success = ok;
        });
        payload.success
    }

    // The accessors below are four forms of one contract.  The per-cell
    // calls define it; the slab, run and gather forms move many cells per
    // call and leave the values, missing-page records and counters the
    // per-cell loop over the same cells leaves (the run form alone counts
    // fewer searches — those it ran).

    // -- Cell accessors (the GetD / GetDD / SetD macros of Listing 1) -------
    //
    // One platform call per cell: the paper's programming model, what a
    // hand-written kernel (`SGridJacobiApp`, `ParticleApp`) uses, and the
    // oracle the slab, run and gather forms are tested against.

    /// Read a cell via a block-relative address.  `in_block` is the caller's
    /// assertion that the address lies inside `block` (skips the Env search).
    /// Missing data reads as `C::default()` and is recorded for `refresh`.
    pub fn get(&mut self, block: BlockId, local: LocalAddress, in_block: bool) -> C {
        self.env.read_local(block, local, in_block, &mut self.state).unwrap_or_default()
    }

    /// Read a cell asserting it is inside the block (`GetDD`).
    pub fn get_dd(&mut self, block: BlockId, local: LocalAddress) -> C {
        self.get(block, local, true)
    }

    /// Read a cell by global address.
    pub fn get_global(&mut self, block: BlockId, addr: GlobalAddress) -> C {
        self.env.read(block, addr, false, &mut self.state).unwrap_or_default()
    }

    /// Write a cell of the block being updated (`SetD`).
    pub fn set(&mut self, block: BlockId, local: LocalAddress, value: C) -> bool {
        self.env.write_local(block, local, value, &mut self.state)
    }

    /// Write the initial (step-0) value of a cell.
    pub fn set_initial(&mut self, block: BlockId, local: LocalAddress, value: C) -> bool {
        self.env.write_initial(block, local, value)
    }

    // -- Run and gather: the un-hinted read (`GetD`), many cells per call ----
    //
    // Reads that may leave the block, so no "inside my block" assertion: a
    // run is an arithmetic sequence of addresses (a halo edge), a gather an
    // arbitrary list (a block's indirect neighbours).  A gather is split in
    // two: where each address lies relative to the block never changes, so
    // it is resolved once into a `GatherPlan`; what is valid, memorised and
    // stored there is read on every pass.

    /// Read the cells `first, first + step, …` (block-relative, no in-block
    /// assertion) into `out`: `out.len()` calls of [`TaskCtx::get`] with
    /// `in_block = false` — same values, missing-page records and counters —
    /// except that the Env runs one search for a stretch of cells it can
    /// prove share a holder, or lie past every holder and so fall to the
    /// catch-all (see `Env::read_run_into`), so `env_searches` /
    /// `search_nodes_visited` count the searches that ran.  What a compiled
    /// kernel fills its halo ring with, one call per edge.
    pub fn get_run(
        &mut self,
        block: BlockId,
        first: LocalAddress,
        step: LocalAddress,
        out: &mut [C],
    ) {
        let first = self.env.block(block).to_global(first);
        self.env.read_run_into(block, first, step, out, &mut self.state);
    }

    /// Resolve, once, where each of `addrs` (global) lies relative to
    /// `block`: the static half of [`TaskCtx::get_gather`].  Reads no cell
    /// and freezes only geometry (see `Env::resolve_gather`), so a kernel
    /// whose address list does not change — `UsGridJacobiApp`, whose points
    /// never rewrite their neighbour lists — resolves a block's plan at its
    /// first pass and reuses it on every later pass and retry.  With MMAT
    /// off, an address off the block is searched for here, once, and the
    /// search is counted in this task's `env_searches` /
    /// `search_nodes_visited`: they count the searches that ran.
    pub fn resolve_gather(
        &mut self,
        block: BlockId,
        addrs: impl IntoIterator<Item = GlobalAddress>,
    ) -> GatherPlan {
        self.env.resolve_gather(block, addrs, &mut self.state)
    }

    /// [`TaskCtx::resolve_gather`] of the list "each cell of `block` in
    /// row-major order, each of `offsets` in order", a target that leaves
    /// `block` remapped by `outside` — resolved from the offsets without
    /// building the list (see `Env::resolve_offsets`): the same plan, for a
    /// kernel whose neighbours are fixed offsets of every point
    /// (`UsGridValueApp` where points stay in place).  Searches are run and
    /// counted as there.
    pub fn resolve_offsets<O>(
        &mut self,
        block: BlockId,
        offsets: O,
        outside: impl FnMut(GlobalAddress) -> GlobalAddress,
    ) -> GatherPlan
    where
        O: IntoIterator<Item = LocalAddress>,
        O::IntoIter: Clone,
    {
        self.env.resolve_offsets(block, offsets, outside, &mut self.state)
    }

    /// Read the cells `plan` names (no in-block assertion) and keep
    /// `project(&cell)` of each in `out`: one [`TaskCtx::get_global`] per
    /// address the plan was resolved from — same values, missing-page
    /// records, MMAT memo and every counter but the two search counters —
    /// with the addresses inside the plan's block served from its buffer by
    /// cell index, one lock per stretch and no clone of the cell, and (MMAT
    /// off) each address off it from where its search, run once at
    /// resolution, landed (see `Env::read_gather_into`).  So with MMAT off a
    /// gather app searches once a job, not once a pass.  What a kernel over
    /// indirect neighbour lists reads its neighbours with, one call per
    /// block.  Stops at the shorter of `plan` and `out`.
    pub fn get_gather<T>(&mut self, plan: &GatherPlan, project: impl Fn(&C) -> T, out: &mut [T]) {
        self.env.read_gather_into(plan, project, out, &mut self.state);
    }

    // -- Slab accessors: the same three calls, a whole block at a time ------
    //
    // A loop that touches every cell of its block (a compiled kernel's
    // gather and write-back, `Initialize`, `Finalize`) asserts "inside my
    // block" once for the block instead of once per cell.  Slices are in
    // row-major (linear-index) order and must hold exactly the block's cells;
    // counters, missing-page records and dirty flags come out exactly as from
    // the per-cell loop.  `false` (nothing touched) on a block without cell
    // buffers or a slice of the wrong length.

    /// Read every cell of `block` into `out` (`GetDD` over the block).
    pub fn get_block_dd(&mut self, block: BlockId, out: &mut [C]) -> bool {
        self.env.read_block_into(block, out, &mut self.state)
    }

    /// Write every cell of the block being updated from `values` (`SetD`
    /// over the block).
    pub fn set_block(&mut self, block: BlockId, values: &[C]) -> bool {
        self.env.write_block_from(block, values, &mut self.state)
    }

    /// Write the initial (step-0) values of every cell of `block`.
    pub fn set_initial_block(&mut self, block: BlockId, values: &[C]) -> bool {
        self.env.init_block_from(block, values)
    }

    /// `Initialize` for a field given as a function of the global address:
    /// set the step-0 values of every owned block, one slab per block.
    pub fn initialize_owned(&mut self, mut init: impl FnMut(GlobalAddress) -> C) {
        let mut slab = Vec::new();
        for bid in self.owned_blocks() {
            let meta = &self.env.block(bid).meta;
            let (ext, origin) = (meta.extent, meta.origin);
            slab.clear();
            for start in ext.row_starts() {
                let row = origin + start;
                slab.extend(
                    (0..ext.nx as i64).map(|dx| init(GlobalAddress { x: row.x + dx, ..row })),
                );
            }
            self.set_initial_block(bid, &slab);
        }
    }

    /// `Finalize` into a field sink: append `(global address, value(cell))`
    /// for every cell of every owned block — blocks in Z-order, cells
    /// row-major — straight into the locked sink, reserved once.
    pub fn deposit_owned(
        &mut self,
        sink: &Mutex<Vec<(GlobalAddress, f64)>>,
        value: impl Fn(&C) -> f64,
    ) {
        let owned = self.owned_blocks();
        let total: usize = owned.iter().map(|&b| self.env.block(b).meta.extent.cells()).sum();
        let mut slab = Vec::new();
        let mut out = sink.lock();
        out.reserve(total);
        for bid in owned {
            let meta = &self.env.block(bid).meta;
            let (ext, origin) = (meta.extent, meta.origin);
            slab.resize(ext.cells(), C::default());
            self.get_block_dd(bid, &mut slab);
            // (`max(1)`: a zero-cell block has no rows, and no chunk size 0.)
            for (start, cells) in ext.row_starts().zip(slab.chunks_exact(ext.nx.max(1))) {
                let row = origin + start;
                out.extend(
                    cells.iter().zip(row.x..).map(|(c, x)| (GlobalAddress { x, ..row }, value(c))),
                );
            }
        }
    }

    /// Finish the task and emit its report.
    pub fn into_report(self) -> crate::report::TaskReport {
        if let Some(progress) = &self.progress {
            progress.record_task_finished();
        }
        crate::report::TaskReport {
            slot: self.slot,
            counters: self.state.counters,
            mmat_entries: self.state.mmat.len(),
            mmat_hits: self.state.mmat.hits(),
            steps: self.steps_done,
            retries: self.retries,
            state_bytes: self.state.footprint_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aohpc_env::{EnvBuilder, Extent};
    use aohpc_mem::PoolHandle;

    fn tiny_env() -> (Arc<Env<f64>>, Vec<BlockId>) {
        let mut b = EnvBuilder::<f64>::new(PoolHandle::unbounded(), 4);
        let root = b.add_empty(None);
        let joint = b.add_empty(Some(root));
        let mut ids = Vec::new();
        for i in 0..2 {
            let id = b
                .add_data(joint, GlobalAddress::new2d(i * 4, 0), Extent::new2d(4, 4), i as u64)
                .unwrap();
            ids.push(id);
        }
        let env = b.build();
        for id in &ids {
            env.block(*id).meta.set_dm_tid(Some(0));
            env.block(*id).meta.set_ch_tid(Some(0));
        }
        (Arc::new(env), ids)
    }

    fn serial_ctx(env: Arc<Env<f64>>) -> TaskCtx<f64> {
        let topo = Topology::serial();
        let shared = Arc::new(RankShared::new(topo.clone(), 0, None, true));
        TaskCtx::new(topo.slot(0, 0), env, shared, WovenProgram::unwoven(), true, false)
    }

    #[test]
    fn get_blocks_returns_rank_owned_blocks() {
        let (env, ids) = tiny_env();
        let mut ctx = serial_ctx(env);
        assert_eq!(ctx.get_blocks(), ids);
    }

    #[test]
    fn get_set_refresh_cycle() {
        let (env, ids) = tiny_env();
        let mut ctx = serial_ctx(env);
        ctx.set(ids[0], LocalAddress::new2d(1, 1), 3.5);
        assert_eq!(
            ctx.get(ids[0], LocalAddress::new2d(1, 1), true),
            0.0,
            "write buffer not visible yet"
        );
        assert!(ctx.refresh());
        assert_eq!(ctx.get(ids[0], LocalAddress::new2d(1, 1), true), 3.5);
        assert_eq!(ctx.get_dd(ids[0], LocalAddress::new2d(1, 1)), 3.5);
    }

    #[test]
    fn slab_accessors_count_like_the_per_cell_loop() {
        let (env, ids) = tiny_env();
        let mut ctx = serial_ctx(env);
        let next: Vec<f64> = (0..16).map(f64::from).collect();
        assert!(ctx.set_block(ids[0], &next));
        assert!(ctx.refresh());
        let mut got = vec![0.0; 16];
        assert!(ctx.get_block_dd(ids[0], &mut got));
        assert_eq!(got, next);
        assert_eq!(ctx.get_dd(ids[0], LocalAddress::new2d(1, 2)), 9.0, "row-major slab order");
        assert!(!ctx.get_block_dd(ids[0], &mut got[..15]), "wrong length is refused");
        let c = ctx.state.counters;
        assert_eq!((c.reads, c.skip_search_hits, c.writes), (17, 17, 16));
    }

    #[test]
    fn get_run_counts_like_per_cell_gets_but_searches_once() {
        let (env, ids) = tiny_env();
        let mut run = serial_ctx(env.clone());
        let mut cellwise = serial_ctx(env);
        run.initialize_owned(|g| (g.x * 10 + g.y) as f64);
        // The column just right of block 0: the first column of block 1.
        let mut got = [0.0; 4];
        run.get_run(ids[0], LocalAddress::new2d(4, 0), LocalAddress::new2d(0, 1), &mut got);
        let want: Vec<f64> =
            (0..4).map(|y| cellwise.get(ids[0], LocalAddress::new2d(4, y), false)).collect();
        assert_eq!(got[..], want[..]);
        assert_eq!(got, [40.0, 41.0, 42.0, 43.0]);
        let (r, c) = (run.state.counters, cellwise.state.counters);
        assert_eq!((r.reads, r.out_of_block_reads), (c.reads, c.out_of_block_reads));
        assert_eq!((r.env_searches, c.env_searches), (1, 4));
    }

    #[test]
    fn initialize_and_deposit_cover_the_owned_blocks_in_order() {
        let (env, ids) = tiny_env();
        let mut ctx = serial_ctx(env);
        ctx.initialize_owned(|g| (g.x * 10 + g.y) as f64);
        assert_eq!(ctx.get_dd(ids[1], LocalAddress::new2d(2, 3)), 63.0);
        let reads_before = ctx.state.counters.reads;
        let sink = Mutex::new(vec![(GlobalAddress::new2d(-1, -1), 0.5)]);
        ctx.deposit_owned(&sink, |v| v * 2.0);
        let pairs = sink.into_inner();
        assert_eq!(pairs.len(), 33, "appended after what the sink held");
        assert_eq!(pairs[1], (GlobalAddress::new2d(0, 0), 0.0));
        assert_eq!(pairs[2], (GlobalAddress::new2d(1, 0), 20.0));
        assert_eq!(pairs[17], (GlobalAddress::new2d(4, 0), 80.0), "second block follows the first");
        assert_eq!(pairs[32], (GlobalAddress::new2d(7, 3), 146.0));
        assert_eq!(ctx.state.counters.reads - reads_before, 32, "one counted read per cell");
    }

    #[test]
    fn warmup_flag_and_mmat_reset() {
        let (env, ids) = tiny_env();
        let mut ctx = TaskCtx::new(
            Topology::serial().slot(0, 0),
            env,
            Arc::new(RankShared::new(Topology::serial(), 0, None, true)),
            WovenProgram::unwoven(),
            true,
            true,
        );
        // Populate the MMAT memo, then begin_warmup must clear it.
        let _ = ctx.get(ids[0], LocalAddress::new2d(1, 0), false);
        assert!(!ctx.state.mmat.is_empty());
        ctx.begin_warmup();
        assert!(ctx.is_warmup());
        assert_eq!(ctx.state.mmat.len(), 0);
        ctx.end_warmup();
        assert!(!ctx.is_warmup());
    }

    #[test]
    fn kernel_step_accounting() {
        let (env, _ids) = tiny_env();
        let mut ctx = serial_ctx(env);
        assert!(ctx.run_kernel_step(false, |_| true));
        assert!(!ctx.run_kernel_step(false, |_| false));
        assert!(ctx.run_kernel_step(false, |_| true));
        assert!(ctx.run_kernel_step(true, |_| true), "warm-up steps are not counted");
        assert_eq!(ctx.steps_done(), 2);
        assert_eq!(ctx.retries(), 1);
        assert_eq!(ctx.step(), 2);
    }

    #[test]
    fn progress_notifier_tracks_steps_and_task_completion() {
        let (env, _ids) = tiny_env();
        let mut ctx = serial_ctx(env);
        let progress = ProgressNotifier::new();
        ctx.set_progress(progress.clone());
        assert_eq!(progress.snapshot(), Progress::default());
        assert!(ctx.run_kernel_step(false, |_| true));
        assert!(!ctx.run_kernel_step(false, |_| false), "retries are not progress");
        assert!(ctx.run_kernel_step(true, |_| true), "warm-up steps are not progress");
        assert!(ctx.run_kernel_step(false, |_| true));
        assert_eq!(progress.steps_done(), 2);
        assert_eq!(progress.tasks_finished(), 0);
        let _ = ctx.into_report();
        assert_eq!(progress.snapshot(), Progress { steps: 2, tasks_finished: 1 });
        assert!(format!("{progress:?}").contains("steps"));
    }

    #[test]
    fn report_captures_counters() {
        let (env, ids) = tiny_env();
        let mut ctx = serial_ctx(env);
        let _ = ctx.get(ids[0], LocalAddress::new2d(0, 0), true);
        ctx.set(ids[0], LocalAddress::new2d(0, 0), 1.0);
        let report = ctx.into_report();
        assert_eq!(report.counters.reads, 1);
        assert_eq!(report.counters.writes, 1);
        assert!(report.state_bytes > 0);
    }

    #[test]
    fn rank_shared_missing_and_plan() {
        let shared: RankShared<f64> = RankShared::new(Topology::serial(), 0, None, true);
        shared.merge_missing(&[(1, 0), (2, 1)]);
        shared.merge_missing(&[(1, 0), (3, 0)]);
        assert_eq!(shared.take_missing(), vec![(1, 0), (2, 1), (3, 0)]);
        assert!(shared.take_missing().is_empty());
        shared.extend_plan(vec![(5, 0), (5, 1), (5, 0)]);
        assert_eq!(shared.plan_snapshot(), vec![(5, 0), (5, 1)]);
    }

    #[test]
    fn run_block_skips_dispatch_when_unadvised() {
        let (env, _) = tiny_env();
        let mut ctx = serial_ctx(env);
        let woven = WovenProgram::unwoven();
        let out = ctx.run_block(3, 16, |_| 7u32);
        assert_eq!(out, 7);
        assert_eq!(woven.stats().dispatches(), 0, "no advice => no block dispatch");
    }

    #[test]
    fn run_block_dispatches_when_advised() {
        use aohpc_aop::{Advice, ClosureAspect, Pointcut, Weaver};
        let (env, ids) = tiny_env();
        let log = Arc::new(Mutex::new(Vec::new()));
        let l = log.clone();
        let aspect = ClosureAspect::new("block-probe").with_binding(
            Pointcut::execution(KERNEL_BLOCK),
            Advice::around(move |ctx, proceed| {
                l.lock().push(format!(
                    "block={} cells={}",
                    ctx.attr(attr::BLOCK).unwrap(),
                    ctx.attr(attr::CELLS).unwrap()
                ));
                proceed(ctx);
            }),
        );
        let woven = Weaver::new().with_aspect(Box::new(aspect)).weave();
        let topo = Topology::serial();
        let shared = Arc::new(RankShared::new(topo.clone(), 0, None, true));
        let mut ctx = TaskCtx::new(topo.slot(0, 0), env, shared, woven.clone(), true, false);
        // The body runs inside the dispatch and can use the full context.
        let value = ctx.run_block(5, 16, |ctx| {
            ctx.set(ids[0], LocalAddress::new2d(0, 0), 2.0);
            42u32
        });
        assert_eq!(value, 42);
        assert_eq!(log.lock().as_slice(), ["block=5 cells=16"]);
        assert_eq!(woven.stats().advised_dispatches(), 1);
    }

    #[test]
    fn run_block_survives_suppressing_advice() {
        use aohpc_aop::{Advice, ClosureAspect, Pointcut, Weaver};
        let (env, _) = tiny_env();
        let aspect = ClosureAspect::new("suppressor").with_binding(
            Pointcut::execution(KERNEL_BLOCK),
            Advice::around(|_ctx, _proceed| { /* never proceeds */ }),
        );
        let woven = Weaver::new().with_aspect(Box::new(aspect)).weave();
        let topo = Topology::serial();
        let shared = Arc::new(RankShared::new(topo.clone(), 0, None, true));
        let mut ctx = TaskCtx::new(topo.slot(0, 0), env, shared, woven, true, false);
        let out = ctx.run_block(0, 4, |_| 11u32);
        assert_eq!(out, 11, "the body must run even if advice never proceeds");
    }

    #[test]
    fn unwoven_mode_skips_dispatch() {
        let (env, _) = tiny_env();
        let topo = Topology::serial();
        let shared = Arc::new(RankShared::new(topo.clone(), 0, None, true));
        let woven = WovenProgram::unwoven();
        let mut ctx = TaskCtx::new(topo.slot(0, 0), env, shared, woven.clone(), false, false);
        let _ = ctx.get_blocks();
        assert!(ctx.refresh());
        assert_eq!(woven.stats().dispatches(), 0, "Direct mode never touches the weaver");
    }
}
