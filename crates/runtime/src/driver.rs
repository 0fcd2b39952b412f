//! The execution driver.
//!
//! [`execute`] runs an [`HpcApp`] under a woven program and a
//! [`RunConfig`].  The driver owns only the *mechanics* that AspectC++ would
//! leave in the generated code: building each rank's Env replica, the
//! rank-level Z-order block assignment (done by the DSL layer in the paper's
//! prototype, §IV-C), constructing task contexts and collecting reports.
//! Every policy decision — whether ranks are spawned at all, how threads
//! split blocks, what is communicated at refresh — lives in the aspect
//! modules and therefore only happens when the corresponding module is woven
//! in.  Running the very same driver with an empty weave is exactly the
//! paper's serial "Platform" / "Platform NOP" configuration.
//!
//! The driver builds one app instance per task (and one more for the rank's
//! `Initialize`/`Finalize`), so an app keeps its reusable kernel working
//! buffers in `self`: they persist across steps and retries without
//! reallocation, and drop with the task's app when its processing loop ends
//! — where pool-backed buffers return themselves to their owner's pool.

use crate::annotation::HpcApp;
use crate::comm::Communicator;
use crate::ctx::{MainPayload, ProcessingPayload, ProgressNotifier, RankShared, TaskCtx};
use crate::report::{RankReport, RunReport, TaskReport};
use crate::task::{TaskSlot, Topology};
use aohpc_aop::{
    attr, JoinPointCtx, JoinPointKind, WovenProgram, FINALIZE, INITIALIZE, MAIN, PROCESSING,
};
use aohpc_env::{Cell, Env, EnvStats};
use aohpc_mem::PoolStats;
use parking_lot::Mutex;
use std::any::Any;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Instant;

/// Whether platform calls go through the weaver at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeaveMode {
    /// The paper's plain "Platform" build: compiled directly, join points are
    /// plain function calls (no dispatch).
    Direct,
    /// Transcompiled through the weaver; aspects (possibly none — "Platform
    /// NOP") run at every join point.
    Woven,
}

/// Configuration of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Layer stack / parallelism.
    pub topology: Topology,
    /// Enable MMAT (Memorization of Memory Access Type).
    pub mmat: bool,
    /// Enable the Dry-run prefetch in the distributed layer.
    pub dry_run: bool,
    /// Whether join points are dispatched through the weaver.
    pub weave_mode: WeaveMode,
    /// Live progress counters every task reports into (completed steps,
    /// finished tasks).  `None` (the default) skips the bookkeeping; a
    /// long-lived host (e.g. the kernel-execution service) installs one per
    /// job so in-flight work is observable from outside the run.
    pub progress: Option<Arc<ProgressNotifier>>,
}

impl RunConfig {
    /// Serial, woven, no MMAT — the paper's default "Platform" single-task
    /// configuration (dispatched, but typically woven with zero aspects).
    pub fn serial() -> Self {
        RunConfig {
            topology: Topology::serial(),
            mmat: false,
            dry_run: true,
            weave_mode: WeaveMode::Woven,
            progress: None,
        }
    }

    /// Set the topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Enable or disable MMAT.
    pub fn with_mmat(mut self, mmat: bool) -> Self {
        self.mmat = mmat;
        self
    }

    /// Enable or disable the Dry-run prefetch: whether the distributed
    /// module's `refresh` advice memorises the pages a rank had to fetch and
    /// requests them ahead of every later step.  Read only on a run with more
    /// than one rank; such a run makes its warm-up pass either way (off, the
    /// pass still fetches step 0's pages, and later steps are retried).  A
    /// single-rank run has neither the pass nor the plan.
    pub fn with_dry_run(mut self, dry_run: bool) -> Self {
        self.dry_run = dry_run;
        self
    }

    /// Set the weave mode.
    pub fn with_weave_mode(mut self, mode: WeaveMode) -> Self {
        self.weave_mode = mode;
        self
    }

    /// Install progress counters the run's tasks report into (see
    /// [`ProgressNotifier`]).
    pub fn with_progress(mut self, progress: Arc<ProgressNotifier>) -> Self {
        self.progress = Some(progress);
        self
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self::serial()
    }
}

/// Whose `Finalize` runs next.  Ranks finalize in rank order: rank `r` owns
/// the `r`-th contiguous Z-order range of blocks, so whatever the apps deposit
/// (a field sink, a checksum fold) comes out in global block order — the
/// same order a single-rank run produces — instead of thread-arrival order.
/// A single-rank run never waits.
#[derive(Default)]
struct FinalizeOrder {
    next_rank: StdMutex<usize>,
    advanced: Condvar,
}

/// One rank's place in the [`FinalizeOrder`]; dropping it (normally or while
/// unwinding) passes the turn on, so a failed rank cannot park the others.
struct FinalizeTurn<'a> {
    order: &'a FinalizeOrder,
    rank: usize,
}

impl FinalizeTurn<'_> {
    /// Block until every lower rank has finished (or abandoned) `Finalize`.
    fn wait(&self) {
        let mut next = self.order.next_rank.lock().unwrap_or_else(|e| e.into_inner());
        while *next < self.rank {
            next = self.order.advanced.wait(next).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for FinalizeTurn<'_> {
    fn drop(&mut self) {
        self.wait();
        *self.order.next_rank.lock().unwrap_or_else(|e| e.into_inner()) = self.rank + 1;
        self.order.advanced.notify_all();
    }
}

fn dispatch(
    woven: &WovenProgram,
    use_weaver: bool,
    name: &str,
    kind: JoinPointKind,
    attrs: &[(&'static str, i64)],
    payload: &mut dyn Any,
    body: &mut dyn FnMut(&mut JoinPointCtx<'_>),
) {
    if use_weaver {
        woven.dispatch_with(name, kind, attrs, payload, body);
    } else {
        let mut ctx = JoinPointCtx::new(name, kind, payload);
        for (k, v) in attrs {
            ctx.set_attr(k, *v);
        }
        body(&mut ctx);
    }
}

/// Execute an application.
///
/// * `woven` — the woven program (aspect modules already registered).
/// * `env_factory` — builds the full-domain Env; called once per rank so that
///   ranks never share memory (the distributed layer's replicas).
/// * `app_factory` — builds the per-task application instance (each task runs
///   its own copy of the end-user program, as in the paper's execution
///   model).
pub fn execute<C, A>(
    config: &RunConfig,
    woven: WovenProgram,
    env_factory: Arc<dyn Fn() -> Env<C> + Send + Sync>,
    app_factory: Arc<dyn Fn(TaskSlot) -> A + Send + Sync>,
) -> RunReport
where
    C: Cell,
    A: HpcApp<C> + 'static,
{
    let start = Instant::now();
    let topology = config.topology.clone();
    let use_weaver = config.weave_mode == WeaveMode::Woven;
    let mmat = config.mmat;
    let dry_run = config.dry_run;
    let progress = config.progress.clone();

    let task_reports: Arc<Mutex<Vec<TaskReport>>> = Arc::new(Mutex::new(Vec::new()));
    let rank_reports: Arc<Mutex<Vec<RankReport>>> = Arc::new(Mutex::new(Vec::new()));
    let env_stats_cell: Arc<Mutex<Option<EnvStats>>> = Arc::new(Mutex::new(None));
    let pool_stats_cell: Arc<Mutex<Option<PoolStats>>> = Arc::new(Mutex::new(None));
    let runtime_log: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let finalize_order = Arc::new(FinalizeOrder::default());

    let run_rank: Arc<dyn Fn(usize, Option<Communicator<C>>) + Send + Sync> = {
        let topology = topology.clone();
        let woven = woven.clone();
        let env_factory = env_factory.clone();
        let app_factory = app_factory.clone();
        let task_reports = task_reports.clone();
        let rank_reports = rank_reports.clone();
        let env_stats_cell = env_stats_cell.clone();
        let pool_stats_cell = pool_stats_cell.clone();
        let runtime_log = runtime_log.clone();
        let progress = progress.clone();

        Arc::new(move |rank: usize, comm: Option<Communicator<C>>| {
            let finalize_turn = FinalizeTurn { order: &finalize_order, rank };
            let ranks = topology.ranks();
            let threads = topology.threads_per_rank();

            // Build this rank's Env replica and perform the rank-level block
            // assignment by Z-order index (the DSL layer's policy in the
            // paper's prototype).
            let mut env = (env_factory)();
            let parts = env.partition_by_morton(ranks);
            for (r, ids) in parts.iter().enumerate() {
                let master = topology.rank_master_task(r);
                for &id in ids {
                    env.block(id).meta.set_dm_tid(Some(master));
                    env.block(id).meta.set_ch_tid(Some(master));
                }
            }
            if ranks > 1 {
                for (r, ids) in parts.iter().enumerate() {
                    if r == rank {
                        continue;
                    }
                    for &id in ids {
                        let owner = env.block(id).meta.dm_tid();
                        let _ = env.demote_to_buffer_only(id);
                        env.block(id).meta.set_dm_tid(owner);
                    }
                }
            }
            let env = Arc::new(env);

            if rank == 0 {
                *env_stats_cell.lock() = Some(env.stats());
                *pool_stats_cell.lock() = Some(env.pool().stats());
            }

            let shared = Arc::new(RankShared::new(topology.clone(), rank, comm, dry_run));

            // The rank's master task initialises the rank's data (it is the
            // dm_tid of every block the rank owns).
            let master_slot = topology.slot(rank, 0);
            let mut master_app = (app_factory)(master_slot);
            let mut master_ctx = TaskCtx::new(
                master_slot,
                env.clone(),
                shared.clone(),
                woven.clone(),
                use_weaver,
                mmat,
            );
            let init_attrs =
                [(attr::TASK_ID, master_slot.task_id as i64), (attr::RANK, rank as i64)];
            dispatch(
                &woven,
                use_weaver,
                INITIALIZE,
                JoinPointKind::Execution,
                &init_attrs,
                &mut (),
                &mut |_| master_app.initialize(&mut master_ctx),
            );

            // Processing: the shared layer's aspect starts one task per
            // thread around this join point; without it, thread 0 runs alone.
            let run_thread: Arc<dyn Fn(usize) + Send + Sync> = {
                let topology = topology.clone();
                let env = env.clone();
                let shared = shared.clone();
                let woven = woven.clone();
                let app_factory = app_factory.clone();
                let task_reports = task_reports.clone();
                let progress = progress.clone();
                Arc::new(move |thread: usize| {
                    let slot = topology.slot(rank, thread);
                    let mut app = (app_factory)(slot);
                    let mut ctx = TaskCtx::new(
                        slot,
                        env.clone(),
                        shared.clone(),
                        woven.clone(),
                        use_weaver,
                        mmat,
                    );
                    if let Some(progress) = &progress {
                        ctx.set_progress(progress.clone());
                    }
                    app.processing(&mut ctx);
                    task_reports.lock().push(ctx.into_report());
                })
            };
            let mut processing_payload =
                ProcessingPayload { threads, run_thread, runtime_log: runtime_log.clone() };
            let proc_attrs = [(attr::RANK, rank as i64), (attr::PARALLELISM, threads as i64)];
            dispatch(
                &woven,
                use_weaver,
                PROCESSING,
                JoinPointKind::Execution,
                &proc_attrs,
                &mut processing_payload,
                &mut |ctx| {
                    let p = ctx.payload_ref::<ProcessingPayload>().expect("ProcessingPayload");
                    (p.run_thread)(0);
                },
            );

            finalize_turn.wait();
            dispatch(
                &woven,
                use_weaver,
                FINALIZE,
                JoinPointKind::Execution,
                &init_attrs,
                &mut (),
                &mut |_| master_app.finalize(&mut master_ctx),
            );
            drop(finalize_turn);

            let comm_stats = shared.comm.as_ref().map(|c| c.lock().stats()).unwrap_or_default();
            rank_reports.lock().push(RankReport { rank, comm: comm_stats });
        })
    };

    // The entry point: the distributed layer's aspect brackets it with
    // runtime init/finalise and spawns the ranks; without it, rank 0 runs
    // inline.
    let mut main_payload =
        MainPayload { ranks: topology.ranks(), run_rank, runtime_log: runtime_log.clone() };
    let main_attrs = [(attr::PARALLELISM, topology.ranks() as i64)];
    dispatch(
        &woven,
        use_weaver,
        MAIN,
        JoinPointKind::Execution,
        &main_attrs,
        &mut main_payload,
        &mut |ctx| {
            let p = ctx.payload_ref::<MainPayload<C>>().expect("MainPayload");
            (p.run_rank)(0, None);
        },
    );

    let mut tasks = Arc::try_unwrap(task_reports)
        .map(|m| m.into_inner())
        .unwrap_or_else(|arc| arc.lock().clone());
    tasks.sort_by_key(|t| t.slot.task_id);
    let mut ranks = Arc::try_unwrap(rank_reports)
        .map(|m| m.into_inner())
        .unwrap_or_else(|arc| arc.lock().clone());
    ranks.sort_by_key(|r| r.rank);

    let env_stats = env_stats_cell.lock().take().unwrap_or_default();
    let pool_stats = pool_stats_cell.lock().take().unwrap_or_default();
    let runtime_events = runtime_log.lock().clone();
    RunReport {
        topology,
        tasks,
        ranks,
        env_stats,
        pool_stats,
        wall_time: start.elapsed(),
        dispatches: woven.stats().dispatches(),
        advised_dispatches: woven.stats().advised_dispatches(),
        runtime_events,
    }
}
