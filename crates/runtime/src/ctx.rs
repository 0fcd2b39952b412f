//! Task context, rank-shared state and the join-point payloads.
//!
//! A [`TaskCtx`] is what an end-user application sees: the Block-based memory
//! interface (`get` / `get_dd` / `set` per cell, `read_ring` for a block's
//! halo ring, its plans kept here, `get_block_dd` / `set_block` /
//! `set_initial_block` per block, and
//! `with_block`, which lends a block routine the block's own buffers),
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
    attr, JoinPointCtx, JoinPointKind, WovenProgram, GET_BLOCKS, KERNEL_BLOCK, KERNEL_STEP,
    REFRESH, WARM_UP,
};
use aohpc_env::{AccessState, BlockId, Cell, Env, GlobalAddress, LocalAddress, RunPlan};
use aohpc_mem::{Frame, PageId};
use aohpc_workloads::Checksum;
use parking_lot::Mutex;
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

/// Run `body` at the join point `name`: inside `woven`'s advice or, in
/// Direct mode (`None`), as a plain call, whose attributes nothing reads.
pub(crate) fn dispatch(
    woven: Option<&WovenProgram>,
    name: &str,
    kind: JoinPointKind,
    attrs: &[(&'static str, i64)],
    payload: &mut dyn Any,
    body: &mut dyn FnMut(&mut JoinPointCtx<'_>),
) {
    match woven {
        Some(woven) => woven.dispatch_with(name, kind, attrs, payload, body),
        None => body(&mut JoinPointCtx::new(name, kind, payload)),
    }
}

// ---------------------------------------------------------------------------
// Progress notification
// ---------------------------------------------------------------------------

/// A point-in-time progress snapshot of one run (see [`ProgressNotifier`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// Where `Finalize` folds a field it does not keep: the field's
/// [`Checksum`], pushed a cell at a time in the order a [`FieldSink`] would
/// hold the cells, so its value is `checksum` over that sink's values, bit
/// for bit.
pub type ChecksumSink = Arc<Mutex<Checksum>>;

/// Create an empty [`ChecksumSink`].
pub fn new_checksum_sink() -> ChecksumSink {
    Arc::new(Mutex::new(Checksum::default()))
}

/// Where a [`BlockSweep`](crate::BlockSweep)'s `Finalize` deposits: the
/// field itself, or only its checksum.
#[derive(Debug, Clone)]
pub enum FinalizeSink {
    /// Every cell's `(global address, value)`.
    Field(FieldSink),
    /// The field's checksum alone.
    Checksum(ChecksumSink),
}

/// What [`TaskCtx::deposit_owned`] hands the owned blocks to, a row at a
/// time.
pub trait Deposit {
    /// Room for `cells` more cells; asked once a deposit.
    fn reserve(&mut self, _cells: usize) {}

    /// Take one row: `cells`, the first at global address `row`, the rest
    /// along x.
    fn row<C>(&mut self, row: GlobalAddress, cells: &[C], value: impl Fn(&C) -> f64);
}

impl Deposit for Vec<(GlobalAddress, f64)> {
    fn reserve(&mut self, cells: usize) {
        Vec::reserve(self, cells);
    }

    fn row<C>(&mut self, row: GlobalAddress, cells: &[C], value: impl Fn(&C) -> f64) {
        self.extend(cells.iter().zip(row.x..).map(|(c, x)| (GlobalAddress { x, ..row }, value(c))));
    }
}

impl Deposit for Checksum {
    fn row<C>(&mut self, _row: GlobalAddress, cells: &[C], value: impl Fn(&C) -> f64) {
        for c in cells {
            self.push(value(c));
        }
    }
}

/// One run of a block's halo ring: the `len` cells `(x, y), (x + dx, y +
/// dy), …` in block-local coordinates (which may be negative or ≥ extent),
/// holding the ring slots `slot .. slot + len` in that order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingRun {
    /// Local X of the first cell.
    pub x: i64,
    /// Local Y of the first cell.
    pub y: i64,
    /// X step between consecutive cells (1 for a row run, else 0).
    pub dx: i64,
    /// Y step between consecutive cells (1 for a column run, else 0).
    pub dy: i64,
    /// Ring slot of the first cell.
    pub slot: usize,
    /// Number of cells.
    pub len: usize,
}

impl RingRun {
    /// The ring slots this run fills.
    pub fn slots(&self) -> std::ops::Range<usize> {
        self.slot..self.slot + self.len
    }

    /// The run's cells, in slot order.
    pub fn cells(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        (0..self.len as i64).map(|k| (self.x + k * self.dx, self.y + k * self.dy))
    }
}

/// Everything one task needs to run its part of the application.
pub struct TaskCtx<C: Cell> {
    slot: TaskSlot,
    env: Arc<Env<C>>,
    shared: Arc<RankShared<C>>,
    /// The woven program; `None` in Direct mode, where join points are plain
    /// calls.
    woven: Option<WovenProgram>,
    /// Whether the weave bound advice to `Kernel::execute_block`, read once
    /// from the woven table: an unadvised run's blocks are plain calls, so
    /// they leave the dispatch counters where the rest of the run puts them.
    block_advised: bool,
    /// Task-local access state (counters, MMAT, missing pages).
    pub state: AccessState,
    /// Each block's ring plans, indexed by [`BlockId`], one a run of the
    /// ring [`TaskCtx::read_ring`] first read it with (empty until then).
    rings: Vec<Vec<RunPlan>>,
    /// Run-level progress counters, bumped as this task completes steps.
    progress: Option<Arc<ProgressNotifier>>,
    warmup: bool,
    step: u64,
    steps_done: u64,
    retries: u64,
}

impl<C: Cell> TaskCtx<C> {
    /// Create a context for one task; `woven` is `None` in Direct mode.
    pub fn new(
        slot: TaskSlot,
        env: Arc<Env<C>>,
        shared: Arc<RankShared<C>>,
        woven: Option<WovenProgram>,
        mmat: bool,
    ) -> Self {
        let block_advised = woven
            .as_ref()
            .is_some_and(|w| w.matching_advice_count(KERNEL_BLOCK, JoinPointKind::Execution) > 0);
        TaskCtx {
            slot,
            env,
            shared,
            woven,
            block_advised,
            state: if mmat { AccessState::with_mmat() } else { AccessState::new() },
            rings: Vec::new(),
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
        let attrs = [(attr::TASK_ID, self.slot.task_id as i64), (attr::WARMUP, 1)];
        dispatch(
            self.woven.as_ref(),
            WARM_UP,
            JoinPointKind::Execution,
            &attrs,
            &mut (),
            &mut |_| {},
        );
        self.warmup = true;
    }

    /// End the warm-up pass: what it computed is discarded, what its
    /// `refresh` fetched and memorised (pages, the Dry-run plan) stays for
    /// step 0.
    pub fn end_warmup(&mut self) {
        self.warmup = false;
    }

    /// Execute one kernel step inside the `Annotation::KernelStep` join
    /// point, handling step/retry accounting.  `body` is the user kernel and
    /// returns the refresh outcome.
    pub fn run_kernel_step(&mut self, warmup: bool, body: impl FnOnce(&mut Self) -> bool) -> bool {
        let attrs = [
            (attr::TASK_ID, self.slot.task_id as i64),
            (attr::STEP, self.step as i64),
            (attr::WARMUP, i64::from(warmup)),
        ];
        let ok = self.around(KERNEL_STEP, &attrs, body);
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

    /// Execute one block of kernel work inside the `Kernel::execute_block`
    /// join point, so instrumentation aspects (tracing, autotuning) can wrap
    /// the platform's real per-block work.  When the weave bound no advice
    /// to the join point — the common case — the body is called directly,
    /// with no dispatch-counter bump.
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
        self.around(KERNEL_BLOCK, &attrs, body)
    }

    /// Run `body` inside the execution join point `name`, so around advice
    /// brackets the work itself, and hand back what it returns.
    fn around<R>(
        &mut self,
        name: &str,
        attrs: &[(&'static str, i64)],
        body: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let woven = self.woven.clone();
        let mut body = Some(body);
        let mut result = None;
        dispatch(woven.as_ref(), name, JoinPointKind::Execution, attrs, &mut (), &mut |_| {
            if let Some(b) = body.take() {
                result = Some(b(self));
            }
        });
        // Instrumentation must never change semantics: if an around advice
        // suppressed the body, run it anyway.
        if let Some(b) = body.take() {
            result = Some(b(self));
        }
        result.expect("the body runs exactly once")
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
        dispatch(
            self.woven.as_ref(),
            GET_BLOCKS,
            JoinPointKind::Call,
            &attrs,
            &mut payload,
            &mut |ctx| {
                let p = ctx.payload_mut::<GetBlocksPayload>().expect("GetBlocksPayload");
                p.blocks = env
                    .data_block_ids()
                    .into_iter()
                    .filter(|&id| env.block(id).meta.dm_tid() == Some(master))
                    .collect();
            },
        );
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
        dispatch(
            self.woven.as_ref(),
            REFRESH,
            JoinPointKind::Call,
            &attrs,
            &mut payload,
            &mut |ctx| {
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
            },
        );
        payload.success
    }

    // The accessors below are three forms of one contract.  The per-cell
    // calls define it; the slab and run forms move many cells per call and
    // leave the values, missing-page records and counters the per-cell loop
    // over the same cells leaves (the run form alone counts fewer searches:
    // they are counted when its plan is resolved, never when it is read —
    // the rule is `Env::resolve_run`'s).

    // -- Cell accessors (the GetD / GetDD / SetD macros of Listing 1) -------
    //
    // One platform call per cell: the paper's programming model, what a
    // hand-written kernel (`SGridJacobiApp`, `UsGridJacobiApp`,
    // `ParticleApp`) uses, and the oracle the slab and run forms are tested
    // against.

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

    // -- Runs: the un-hinted read (`GetD`) along a halo edge ----------------
    //
    // Reads that may leave the block, so no "inside my block" assertion: the
    // arithmetic sequence of addresses `first, first + step, …`.  Where each
    // stretch of a run lands never changes once the Env is built, so a run
    // is resolved once into a `RunPlan` (searching, and counting the
    // searches, there); what is valid, memorised and stored where it lands
    // is read on every sweep.

    /// Resolve the `len` cells `first, first + step, …` (block-relative, no
    /// in-block assertion) into a plan for [`TaskCtx::get_run`]: where each
    /// stretch of the run lands, searched for once and counted in this
    /// task's `env_searches` / `search_nodes_visited` (see
    /// `Env::resolve_run`).  Reads no cell, so a plan serves every later
    /// sweep and retry ([`TaskCtx::read_ring`] keeps a block's).
    pub fn resolve_run(
        &mut self,
        block: BlockId,
        first: LocalAddress,
        step: LocalAddress,
        len: usize,
    ) -> RunPlan {
        let first = self.env.block(block).to_global(first);
        self.env.resolve_run(block, first, step, len, &mut self.state)
    }

    /// Read the cells of `plan` into `out` (exactly its cells): the
    /// [`TaskCtx::get`] calls with `in_block = false` it stands for — same
    /// values, missing-page records, MMAT memo and counters — without their
    /// searches, which ran when the plan was resolved.
    pub fn get_run(&mut self, plan: &RunPlan, out: &mut [C]) {
        self.env.read_run(plan, out, &mut self.state);
    }

    /// Read `block`'s halo ring into `out`, run `k` of `runs` into
    /// `out[runs[k].slots()]`: [`TaskCtx::resolve_run`] for every run, then
    /// [`TaskCtx::get_run`] for every run, with the plans kept here.  A
    /// block's ring is fixed for the task, so its runs are resolved (and
    /// their searches counted) at the block's first read only; every later
    /// read goes through the kept plans and searches nothing.
    pub fn read_ring(&mut self, block: BlockId, runs: &[RingRun], out: &mut [C]) {
        if self.rings.len() <= block {
            self.rings.resize_with(self.env.len(), Vec::new);
        }
        let plans = &mut self.rings[block];
        if plans.is_empty() {
            let home = self.env.block(block);
            plans.extend(runs.iter().map(|run| {
                let first = home.to_global(LocalAddress::new2d(run.x, run.y));
                let step = LocalAddress::new2d(run.dx, run.dy);
                self.env.resolve_run(block, first, step, run.len, &mut self.state)
            }));
        }
        for (run, plan) in runs.iter().zip(plans.iter()) {
            self.env.read_run(plan, &mut out[run.slots()], &mut self.state);
        }
    }

    // -- Slab accessors: the same three calls, a whole block at a time ------
    //
    // A loop that touches every cell of its block (a block routine's read
    // and write-back, `Initialize`, `Finalize`) asserts "inside my block"
    // once for the block instead of once per cell.  Slices are in row-major
    // (linear-index) order and must hold exactly the block's cells;
    // counters, missing-page records and dirty flags come out exactly as from
    // the per-cell loop.  `false` (nothing touched) on a block without cell
    // buffers or a slice of the wrong length.  A block routine does not copy
    // at all: `with_block` lends it the block's own buffers, counted as
    // `get_block_dd` + `set_block`, and `deposit_owned` reads each block in
    // place.

    /// Lend `block`'s read buffer (step `n-1`) and write buffer (step `n`)
    /// to `f`, whole, with the width of their ghost frame (see
    /// `EnvBuilder::with_frame`; 0 for an unframed Env, where the buffers
    /// are the block's cells, row-major): the block routine's
    /// `get_block_dd` + `set_block` without either copy — same counters,
    /// missing-page records and dirty pages.  `f` must write every cell of
    /// `write`, whose old contents are unspecified, may write `read`'s frame
    /// and nothing else of it, and must not touch the platform: the block is
    /// locked while it runs, so read its halo first.  A block that is not
    /// wholly valid is copied in and out around `f` instead, unframed.
    pub fn with_block<R>(
        &mut self,
        block: BlockId,
        mut f: impl FnMut(&mut [C], &mut [C], usize) -> R,
    ) -> R {
        match self.env.lend_block(block, &mut self.state, &mut f) {
            Some(r) => r,
            None => self.with_block_copied(block, f),
        }
    }

    /// [`TaskCtx::with_block`] for a block that cannot be lent: the copying
    /// path, on unframed staging slabs allocated here.
    #[cold]
    #[inline(never)]
    fn with_block_copied<R>(
        &mut self,
        block: BlockId,
        mut f: impl FnMut(&mut [C], &mut [C], usize) -> R,
    ) -> R {
        let cells = self.env.block(block).meta.extent.cells();
        let (mut read, mut write) = (vec![C::default(); cells], vec![C::default(); cells]);
        self.get_block_dd(block, &mut read);
        let r = f(&mut read, &mut write, 0);
        self.set_block(block, &write);
        r
    }

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

    /// `Finalize` into a sink: hand it `value(cell)` of every cell of every
    /// owned block — blocks in Z-order, cells row-major — a row at a time,
    /// holding its lock throughout (so tasks deposit one after another).
    pub fn deposit_owned(&mut self, sink: &Mutex<impl Deposit>, value: impl Fn(&C) -> f64) {
        let owned = self.owned_blocks();
        let total: usize = owned.iter().map(|&b| self.env.block(b).meta.extent.cells()).sum();
        let mut slab = Vec::new();
        let mut out = sink.lock();
        out.reserve(total);
        for bid in owned {
            let meta = &self.env.block(bid).meta;
            let (ext, origin) = (meta.extent, meta.origin);
            let mut emit = |block: &[C], frame: Frame| {
                for (start, cells) in ext.row_starts().zip(frame.rows(block)) {
                    out.row(origin + start, cells, &value);
                }
            };
            // In place (`GetDD` over the block); a block that is not wholly
            // valid is copied, unframed, its missing pages recorded.
            if self.env.view_block(bid, &mut self.state, &mut emit).is_none() {
                slab.resize(ext.cells(), C::default());
                self.get_block_dd(bid, &mut slab);
                emit(&slab, Frame::new(ext.nx, ext.ny * ext.nz, 0));
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
        TaskCtx::new(topo.slot(0, 0), env, shared, Some(WovenProgram::unwoven()), false)
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
    fn a_run_plan_searches_once_and_reads_like_per_cell_gets() {
        let (env, ids) = tiny_env();
        let mut run = serial_ctx(env.clone());
        let mut cellwise = serial_ctx(env);
        run.initialize_owned(|g| (g.x * 10 + g.y) as f64);
        // The column just right of block 0: the first column of block 1.
        let (first, step) = (LocalAddress::new2d(4, 0), LocalAddress::new2d(0, 1));
        let plan = run.resolve_run(ids[0], first, step, 4);
        let resolved = run.state.counters;
        assert_eq!((resolved.env_searches, resolved.reads), (1, 0), "one search, no read");
        // Two sweeps through the plan: no search, the per-cell reads' counts.
        for _ in 0..2 {
            let mut got = [0.0; 4];
            run.get_run(&plan, &mut got);
            let want: Vec<f64> =
                (0..4).map(|y| cellwise.get(ids[0], LocalAddress::new2d(4, y), false)).collect();
            assert_eq!(got[..], want[..]);
            assert_eq!(got, [40.0, 41.0, 42.0, 43.0]);
        }
        let (r, c) = (run.state.counters, cellwise.state.counters);
        assert_eq!((r.reads, r.out_of_block_reads), (c.reads, c.out_of_block_reads));
        assert_eq!((r.env_searches, c.env_searches), (1, 8));
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

    /// `with_block` is `get_block_dd` + `set_block` without the copies, on
    /// a wholly valid block; on one with missing pages it is the copy, with
    /// the missing pages recorded in order.  `deposit_owned` reads in place
    /// what it used to copy, and copies a block that is not wholly valid,
    /// into a field sink and a checksum sink alike.
    #[test]
    fn a_lent_block_counts_and_records_as_the_copies() {
        let (lend_env, ids) = tiny_env();
        let (copy_env, _) = tiny_env();
        let (fold_env, _) = tiny_env();
        let (mut lend, mut copy) = (serial_ctx(lend_env.clone()), serial_ctx(copy_env.clone()));
        let mut fold = serial_ctx(fold_env.clone());
        // Block 1 loses pages 1 and 3 of its four (a remote block mid-refresh).
        for env in [&lend_env, &copy_env, &fold_env] {
            env.set_block_valid(ids[1], false).unwrap();
            for page in [0, 2] {
                env.install_page(ids[1], page, &env.extract_page(ids[1], page).unwrap()).unwrap();
            }
        }
        for ctx in [&mut lend, &mut copy, &mut fold] {
            ctx.initialize_owned(|g| (g.x * 10 + g.y) as f64);
        }
        let law = |read: &[f64], write: &mut [f64]| {
            for (w, r) in write.iter_mut().zip(read) {
                *w = r * 2.0 + 1.0;
            }
        };
        for &id in &ids {
            lend.with_block(id, |read, write, _| law(read, write));
            fold.with_block(id, |read, write, _| law(read, write));
            let (mut read, mut write) = (vec![0.0; 16], vec![0.0; 16]);
            assert!(copy.get_block_dd(id, &mut read));
            law(&read, &mut write);
            assert!(copy.set_block(id, &write));
            assert_eq!(lend.state.counters, copy.state.counters, "block {id}");
            assert_eq!(lend.state.missing(), copy.state.missing(), "block {id}");
            let written = |env: &Env<f64>| match &env.block(id).kind {
                aohpc_env::BlockKind::Data(buf) => {
                    let mut g = buf.write();
                    (g.write_buf().to_vec(), g.pages().clone())
                }
                _ => unreachable!("a Data block"),
            };
            assert_eq!(written(&lend_env), written(&copy_env), "block {id}");
        }
        assert_eq!(lend.state.missing(), [(ids[1], 1), (ids[1], 3)]);

        let (lend_sink, copy_sink) = (Mutex::new(Vec::new()), Mutex::new(Vec::new()));
        lend.deposit_owned(&lend_sink, |v| *v);
        let mut out = copy_sink.lock();
        for id in copy.owned_blocks() {
            let mut cells = vec![0.0; 16];
            assert!(copy.get_block_dd(id, &mut cells));
            let origin = copy.env().block(id).meta.origin;
            out.extend(cells.iter().zip(0..).map(|(v, k)| {
                (GlobalAddress { x: origin.x + k % 4, y: origin.y + k / 4, ..origin }, *v)
            }));
        }
        drop(out);
        let field = lend_sink.into_inner();
        assert_eq!(field, copy_sink.into_inner());
        assert_eq!(lend.state.counters, copy.state.counters);
        assert_eq!(lend.state.missing(), copy.state.missing());

        // The checksum sink takes the same walk: block 0 in place, block 1
        // through the copy, so the same reads and missing pages, and the
        // field's checksum in the field's order.
        let fold_sink = Mutex::new(Checksum::default());
        fold.deposit_owned(&fold_sink, |v| *v);
        let folded = fold_sink.into_inner().value();
        let want = aohpc_workloads::checksum(field.iter().map(|(_, v)| *v));
        assert_eq!(folded.to_bits(), want.to_bits());
        assert_eq!(fold.state.counters, lend.state.counters);
        assert_eq!(fold.state.missing(), lend.state.missing());
    }

    #[test]
    fn warmup_flag_and_mmat_reset() {
        let (env, ids) = tiny_env();
        let mut ctx = TaskCtx::new(
            Topology::serial().slot(0, 0),
            env,
            Arc::new(RankShared::new(Topology::serial(), 0, None, true)),
            Some(WovenProgram::unwoven()),
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
        let mut ctx = TaskCtx::new(topo.slot(0, 0), env, shared, Some(woven.clone()), false);
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
        let mut ctx = TaskCtx::new(topo.slot(0, 0), env, shared, Some(woven), false);
        let out = ctx.run_block(0, 4, |_| 11u32);
        assert_eq!(out, 11, "the body must run even if advice never proceeds");
    }

    /// A framed Env is an unframed one to every logical access: per-cell
    /// `get`/`set`, the slab read and fill, ring runs through `get_run`
    /// (across blocks and off the domain), pages extracted and installed, a
    /// lent block (its rows where the lent frame width puts them) and the
    /// `Finalize` checksum fold give the same values, counters, missing
    /// pages, page payloads and fold bits — and no frame cell, each holding
    /// a poison value, ever shows up in any of them.
    #[test]
    fn a_framed_env_reads_writes_ships_and_folds_as_an_unframed_one() {
        const GHOST: f64 = -7777.0;
        let run = |(nx, ny, cpp): (usize, usize, usize), frame: usize| {
            let mut b = EnvBuilder::<f64>::new(PoolHandle::unbounded(), cpp).with_frame(frame);
            let root = b.add_empty(None);
            b.add_arithmetic(root, Arc::new(|a: GlobalAddress| (a.x - 2 * a.y) as f64), true);
            let joint = b.add_empty(Some(root));
            let mut ids = Vec::new();
            for (k, (bx, by)) in [(0, 0), (1, 0), (0, 1), (1, 1)].into_iter().enumerate() {
                let origin = GlobalAddress::new2d(bx * nx as i64, by * ny as i64);
                ids.push(b.add_data(joint, origin, Extent::new2d(nx, ny), k as u64).unwrap());
            }
            let env = Arc::new(b.build());
            for &id in &ids {
                env.block(id).meta.set_dm_tid(Some(0));
                env.block(id).meta.set_ch_tid(Some(0));
                let aohpc_env::BlockKind::Data(buf) = &env.block(id).kind else { unreachable!() };
                let mut g = buf.write();
                let layout = g.frame();
                let inside: HashSet<usize> =
                    (0..layout.cells()).map(|i| layout.offset(i)).collect();
                for _ in 0..g.num_buffers() {
                    for (at, cell) in g.write_buf().iter_mut().enumerate() {
                        if !inside.contains(&at) {
                            *cell = GHOST;
                        }
                    }
                    g.swap();
                }
            }
            let mut ctx = serial_ctx(env.clone());
            let mut seen = Vec::new();
            ctx.initialize_owned(|g| (g.x * 10 + g.y) as f64 + 0.5);
            let (bx, by) = (nx as i64, ny as i64);
            for &id in &ids {
                for y in -1..=by {
                    for x in -1..=bx {
                        let inside = (0..bx).contains(&x) && (0..by).contains(&y);
                        seen.push(ctx.get(id, LocalAddress::new2d(x, y), inside));
                    }
                }
                let row = ctx.resolve_run(
                    id,
                    LocalAddress::new2d(-1, -1),
                    LocalAddress::new2d(1, 0),
                    nx + 2,
                );
                let column =
                    ctx.resolve_run(id, LocalAddress::new2d(bx, 0), LocalAddress::new2d(0, 1), ny);
                for (plan, len) in [(row, nx + 2), (column, ny)] {
                    let mut cells = vec![0.0; len];
                    ctx.get_run(&plan, &mut cells);
                    seen.extend(cells);
                }
            }
            // Step 1: block 0 per cell, the rest by slab.
            for (k, &id) in ids.iter().enumerate() {
                let next: Vec<f64> = (0..nx * ny).map(|i| (k * 100 + i) as f64 * 0.25).collect();
                if k == 0 {
                    for (i, v) in next.iter().enumerate() {
                        let local = LocalAddress::new2d((i % nx) as i64, (i / nx) as i64);
                        assert!(ctx.set(id, local, *v));
                    }
                } else {
                    assert!(ctx.set_block(id, &next));
                }
            }
            assert!(ctx.refresh());
            // Step 2: every block lent.
            for &id in &ids {
                ctx.with_block(id, |read, write, width| {
                    assert_eq!(width, frame);
                    let layout = Frame::new(nx, ny, width);
                    for (w, r) in layout.rows_mut(write).zip(layout.rows(read)) {
                        for (w, r) in w.iter_mut().zip(r) {
                            *w = r * 0.5 - 1.0;
                        }
                    }
                });
            }
            assert!(ctx.refresh());
            // Pages shipped out and back in, one of them changed on the way.
            for &id in &ids {
                env.set_block_valid(id, false).unwrap();
                for page in 0..env.num_pages(id).unwrap() {
                    let mut payload = env.extract_page(id, page).unwrap();
                    seen.extend(payload.iter().copied());
                    if page % 2 == 1 {
                        payload.iter_mut().for_each(|v| *v += 3.0);
                        env.install_page(id, page, &payload).unwrap();
                    }
                }
                let mut cells = vec![0.0; nx * ny];
                assert!(ctx.get_block_dd(id, &mut cells), "a copied read of a part-valid block");
                seen.extend(cells);
                ctx.with_block(id, |read, write, width| {
                    assert_eq!(width, 0, "a part-valid block is copied in, unframed");
                    write.copy_from_slice(read);
                });
            }
            let sink = Mutex::new(Checksum::default());
            ctx.deposit_owned(&sink, |v| *v);
            let fold = sink.into_inner().value().to_bits();
            assert!(!seen.contains(&GHOST), "{frame}: a frame cell was read");
            (seen, ctx.state.counters, ctx.state.missing().to_vec(), fold)
        };
        for shape in [(4, 3, 5), (1, 4, 2), (5, 1, 3), (3, 3, 9)] {
            for frame in 1..=2 {
                assert_eq!(run(shape, frame), run(shape, 0), "{shape:?} framed {frame}");
            }
        }
    }

    mod ring_properties {
        use super::*;
        use proptest::collection;
        use proptest::prelude::*;

        /// A 3×3 tiling of 4×3 data blocks, `cpp` cells a page, every block
        /// whose bit is set in `gaps` missing its odd pages, and a catch-all
        /// that is Arithmetic or a Reference into block `home` mirroring
        /// onto the nearest cell of the domain (so a ring of `home` that
        /// leaves the domain comes back into `home`).
        fn ring_env(cpp: usize, gaps: u16, home: usize, reference: bool) -> Arc<Env<f64>> {
            let mut b = EnvBuilder::<f64>::new(PoolHandle::unbounded(), cpp);
            let root = b.add_empty(None);
            let joint = b.add_empty(Some(root));
            let ids: Vec<BlockId> = (0..9)
                .map(|k| {
                    let origin = GlobalAddress::new2d(k % 3 * 4, k / 3 * 3);
                    b.add_data(joint, origin, Extent::new2d(4, 3), k as u64).unwrap()
                })
                .collect();
            if reference {
                let mirror =
                    |a: GlobalAddress| GlobalAddress::new2d(a.x.clamp(0, 11), a.y.clamp(0, 8));
                b.add_reference(root, ids[home], Arc::new(mirror), true);
            } else {
                b.add_arithmetic(root, Arc::new(|a: GlobalAddress| (a.x - 2 * a.y) as f64), true);
            }
            let env = Arc::new(b.build());
            for &id in &ids {
                env.block(id).meta.set_dm_tid(Some(0));
            }
            serial_ctx(env.clone()).initialize_owned(|g| (g.x * 10 + g.y) as f64 + 0.5);
            for (k, &id) in ids.iter().enumerate() {
                if gaps >> k & 1 == 1 {
                    env.set_block_valid(id, false).unwrap();
                    for page in (0..env.num_pages(id).unwrap()).step_by(2) {
                        let payload = env.extract_page(id, page).unwrap();
                        env.install_page(id, page, &payload).unwrap();
                    }
                }
            }
            env
        }

        proptest! {
            /// `read_ring` is `resolve_run` for every run at the block's
            /// first read, then `get_run` for every run at every read: over
            /// two sweeps, the same values in the same slots, the same
            /// counters and the same missing pages in order, with MMAT off
            /// and on, on a ring that may leave the domain through a
            /// Reference back into its own block.  With MMAT off, its Env
            /// searches are counted at the first read only.
            #[test]
            fn a_ring_read_resolves_its_runs_once_and_reads_them_each_sweep(
                cpp in 1usize..7,
                gaps in any::<u16>(),
                home in 0usize..9,
                reference in any::<bool>(),
                mmat in any::<bool>(),
                // Per run: first cell, along x or y, length, slots skipped
                // before it.
                shape in collection::vec(
                    (-2i64..6, -2i64..5, any::<bool>(), 1usize..9, 0usize..2),
                    1..6,
                ),
            ) {
                let env = ring_env(cpp, gaps, home, reference);
                let bid = env.data_block_ids()[home];
                let mut slot = 0;
                let runs: Vec<RingRun> = shape
                    .iter()
                    .map(|&(x, y, across, len, gap)| {
                        let (dx, dy) = if across { (1, 0) } else { (0, 1) };
                        let run = RingRun { x, y, dx, dy, slot: slot + gap, len };
                        slot = run.slots().end;
                        run
                    })
                    .collect();
                let ctx = || {
                    let topo = Topology::serial();
                    let shared = Arc::new(RankShared::new(topo.clone(), 0, None, true));
                    TaskCtx::new(topo.slot(0, 0), env.clone(), shared, None, mmat)
                };
                let (mut ring, mut by_run) = (ctx(), ctx());
                let plans: Vec<RunPlan> = runs
                    .iter()
                    .map(|r| {
                        let first = LocalAddress::new2d(r.x, r.y);
                        by_run.resolve_run(bid, first, LocalAddress::new2d(r.dx, r.dy), r.len)
                    })
                    .collect();
                let mut searched = None;
                for sweep in 0..2 {
                    let (mut got, mut want) = (vec![-1.0; slot], vec![-1.0; slot]);
                    ring.read_ring(bid, &runs, &mut got);
                    for (run, plan) in runs.iter().zip(&plans) {
                        by_run.get_run(plan, &mut want[run.slots()]);
                    }
                    prop_assert_eq!(got, want, "sweep {}", sweep);
                    prop_assert_eq!(ring.state.counters, by_run.state.counters, "sweep {}", sweep);
                    prop_assert_eq!(ring.state.missing(), by_run.state.missing(), "sweep {}", sweep);
                    // A Reference whose map leaves its target walks the
                    // tree on every read, by run or by cell alike, so only
                    // the searches a resolution counts are pinned here.
                    let now = ring.state.counters.env_searches;
                    if !mmat {
                        prop_assert!(searched.is_none_or(|s| s == now), "sweep {sweep} searched");
                    }
                    searched = Some(now);
                }
            }
        }
    }

    #[test]
    fn unwoven_mode_skips_dispatch() {
        let (env, _) = tiny_env();
        let topo = Topology::serial();
        let shared = Arc::new(RankShared::new(topo.clone(), 0, None, true));
        let woven = WovenProgram::unwoven();
        let mut ctx = TaskCtx::new(topo.slot(0, 0), env, shared, None, false);
        let _ = ctx.get_blocks();
        assert!(ctx.refresh());
        assert_eq!(woven.stats().dispatches(), 0, "Direct mode never touches the weaver");
    }
}
