//! The kernel-execution service: admission, queue, worker pool, results.
//!
//! [`KernelService`] owns a [`PlanCache`], a session registry and a pool of
//! worker threads draining one bounded MPMC job queue.  A submission flows:
//!
//! 1. **Admission** — the session must exist and be active and the spec must
//!    be well-formed (fatal rejections, returned as [`SubmitError`]s).  A
//!    full per-session quota or a full global queue is *not* fatal: it is
//!    **backpressure**.  [`KernelService::try_submit`] reports it immediately
//!    as [`SubmitError::WouldBlock`] / [`SubmitError::QueueFull`];
//!    [`KernelService::submit_timeout`] (and [`KernelService::submit`], which
//!    uses the configured default deadline) parks the caller until capacity
//!    frees or the deadline passes.
//! 2. **Queue** — accepted jobs carry a shared [`JobCell`](crate::job) onto
//!    the bounded crossbeam channel; any idle worker picks them up (work
//!    stealing, no per-worker queues).  The admission bound guarantees the
//!    channel never overflows.
//! 3. **Execution** — the worker claims the cell (losing the claim means the
//!    job was [cancelled](JobHandle::cancel)), resolves the job's primary
//!    plan through the shared cache (attributing the hit/miss to the job),
//!    then runs it the one way every job runs, whatever its family: the
//!    family's DSL system and app — for stencils `IrStencilApp` with the
//!    cache installed as its [`PlanSource`](aohpc_kernel::PlanSource) —
//!    through `runtime::execute`, under the layer aspects the topology asks
//!    for, with the job's live
//!    [`ProgressNotifier`](aohpc_runtime::ProgressNotifier) installed in the
//!    run config.
//! 4. **Results** — the job **resolves exactly once**, in one place
//!    (`Inner::settle` in this file, whose doc states the order): the
//!    [`JobReport`] is retained for [`KernelService::drain`] /
//!    [`KernelService::drain_session`], the session's [`CompletionStream`]
//!    receives the outcome in submission order, the session releases the
//!    job's quota slot and meters it, and only then does the [`JobHandle`]
//!    complete (report or [`JobError`]) — so whatever the handle wakes sees
//!    the job gone from the session's books.  A job that never runs
//!    ([cancelled](JobHandle::cancel), abandoned at shutdown, stranded by a
//!    kill) leaves through the same place in the same order.  The
//!    synchronous drains wait for the pending count that settlement drops.

use crate::cache::{PlanCache, PlanCacheStats, PlanOrigin};
use crate::job::{
    JobCell, JobError, JobErrorKind, JobHandle, JobId, JobOutcome, JobReport, JobSpec,
};
use crate::session::{
    CompletionStream, SessionCtx, SessionId, SessionMeter, SessionSpec, StreamState,
};
use aohpc_aop::{attr, names, JoinPointKind, Weaver, WovenProgram};
use aohpc_dsl::{
    new_field_sink, DslSystem, FieldSink, PairForce, ParticleBlockApp, ParticleSystem, SGridSystem,
    UsBlockLaw, UsGridSystem, UsGridValueApp, UsGridValueSystem,
};
use aohpc_env::Extent;
use aohpc_kernel::{FamilyArtifact, HeteroDispatcher, IrStencilApp, ScratchPool, SpecializationId};
use aohpc_obs::{
    push_context, AdmissionCounters, CacheCounters, CommCounters, Histogram, JobCounters, ObsHub,
    ObsRunAspect, ObsServiceAspect, ObsSnapshot,
};
use aohpc_runtime::annotation::MAX_RETRIES_PER_STEP;
use aohpc_runtime::{execute, CostModel, HpcApp, MpiAspect, OmpAspect, RunConfig, TaskSlot};
use aohpc_testalloc::sync::FakeClock;
use aohpc_workloads::{checksum, GridLayout, ParticleSize, Scale};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing of a [`KernelService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.  `0` is admission-only mode: jobs
    /// queue but never execute (used by tests to pin in-flight counts).
    pub workers: usize,
    /// Shards of the plan cache.
    pub cache_shards: usize,
    /// Total plan-cache capacity (entries).
    pub cache_capacity: usize,
    /// Maximum jobs one session may have in flight; further submissions are
    /// backpressured ([`SubmitError::WouldBlock`] from `try_submit`, a
    /// bounded wait from `submit` / `submit_timeout`).
    pub max_in_flight_per_session: usize,
    /// Maximum jobs admitted but not yet picked up by a worker, across all
    /// sessions — the depth of the bounded admission queue.
    pub max_queued_jobs: usize,
    /// How long a plain [`KernelService::submit`] waits for capacity before
    /// giving up with the backpressure error.  `Duration::ZERO` makes
    /// `submit` behave exactly like [`KernelService::try_submit`].
    pub admission_timeout: Duration,
    /// Whether completed [`JobReport`]s are retained for the synchronous
    /// [`KernelService::drain`] / [`KernelService::drain_session`] path.
    /// Handle/stream-only deployments can switch this off so an undrained
    /// service does not accumulate reports without bound.
    pub retain_reports: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            cache_shards: 8,
            cache_capacity: 64,
            max_in_flight_per_session: 32,
            max_queued_jobs: 1024,
            admission_timeout: Duration::from_secs(30),
            retain_reports: true,
        }
    }
}

impl ServiceConfig {
    /// Sizing for an evaluation [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        ServiceConfig { workers: scale.service_workers(), ..Default::default() }
    }

    /// Set the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the plan-cache geometry: at least one shard, at least one entry a
    /// shard.
    pub fn with_cache(mut self, shards: usize, capacity: usize) -> Self {
        self.cache_shards = shards.max(1);
        self.cache_capacity = capacity.max(self.cache_shards);
        self
    }

    /// Set the per-session in-flight quota.
    pub fn with_quota(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight_per_session = max_in_flight;
        self
    }

    /// Set the bounded admission queue's depth.
    pub fn with_queue_bound(mut self, max_queued: usize) -> Self {
        self.max_queued_jobs = max_queued.max(1);
        self
    }

    /// Set how long a plain `submit` waits under backpressure.
    pub fn with_admission_timeout(mut self, timeout: Duration) -> Self {
        self.admission_timeout = timeout;
        self
    }

    /// Enable or disable report retention for the synchronous drain path.
    pub fn with_report_retention(mut self, retain: bool) -> Self {
        self.retain_reports = retain;
        self
    }

    /// What a directly-constructed config means once the builders' clamps
    /// are applied: a zero queue bound would make every admission `QueueFull`
    /// forever, and a cache without a shard (or with fewer entries than
    /// shards) cannot be built.
    pub(crate) fn normalized(self) -> Self {
        self.with_queue_bound(self.max_queued_jobs)
            .with_cache(self.cache_shards, self.cache_capacity)
    }
}

/// Why a submission was refused.
///
/// [`SubmitError::UnknownSession`], [`SubmitError::SessionClosed`],
/// [`SubmitError::InvalidJob`] and [`SubmitError::ShuttingDown`] are fatal —
/// retrying cannot help.  [`SubmitError::WouldBlock`] and
/// [`SubmitError::QueueFull`] are **backpressure**: capacity is momentarily
/// exhausted and a later retry (or a blocking
/// [`KernelService::submit_timeout`]) can succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// No session with this id was ever opened.
    UnknownSession(SessionId),
    /// The session has been closed.
    SessionClosed(SessionId),
    /// The session is at its in-flight quota; admitting now would block.
    WouldBlock {
        /// The session at quota.
        session: SessionId,
        /// The configured limit.
        limit: usize,
    },
    /// The global admission queue is at its bound.
    QueueFull {
        /// The configured queue depth.
        limit: usize,
    },
    /// The spec itself is malformed (reason inside).
    InvalidJob(String),
    /// The service is shutting down and accepts no further work.
    ShuttingDown,
}

impl SubmitError {
    /// Whether the error is backpressure (retryable) rather than fatal.
    pub fn is_backpressure(&self) -> bool {
        matches!(self, SubmitError::WouldBlock { .. } | SubmitError::QueueFull { .. })
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownSession(id) => write!(f, "unknown session {id}"),
            SubmitError::SessionClosed(id) => write!(f, "session {id} is closed"),
            SubmitError::WouldBlock { session, limit } => {
                write!(
                    f,
                    "session {session} is at its in-flight quota ({limit}); admission would block"
                )
            }
            SubmitError::QueueFull { limit } => {
                write!(f, "the admission queue is full ({limit} jobs queued)")
            }
            SubmitError::InvalidJob(reason) => write!(f, "invalid job: {reason}"),
            SubmitError::ShuttingDown => write!(f, "the service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A batch submission that was cut short: the accepted prefix keeps running,
/// and this error says exactly where admission stopped and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// Ids of the specs accepted before the rejection (in submission order).
    pub accepted: Vec<JobId>,
    /// Index (into the submitted `Vec`) of the rejected spec.
    pub index: usize,
    /// Why that spec was rejected.
    pub error: SubmitError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch stopped at spec {} after accepting {} jobs: {}",
            self.index,
            self.accepted.len(),
            self.error
        )
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Point-in-time admission/backpressure counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct AdmissionStats {
    /// Submitters currently parked waiting for capacity.
    pub waiting: usize,
    /// Jobs admitted but not yet picked up by a worker.
    pub queued: usize,
    /// The configured queue depth ([`ServiceConfig::max_queued_jobs`]).
    pub queue_limit: usize,
    /// Median queue wait (admission to worker pickup) across finished jobs,
    /// in nanoseconds — a power-of-two-bucket upper-bound estimate, 0 before
    /// the first job is picked up.
    pub queue_wait_p50_ns: u64,
    /// 99th-percentile queue wait across finished jobs, in nanoseconds.
    pub queue_wait_p99_ns: u64,
}

/// The clock admission deadlines are measured on: the wall clock in
/// production, a test-controlled [`FakeClock`] under the deterministic
/// harness (see [`KernelService::with_fake_clock`]).
#[derive(Clone)]
pub(crate) enum ServiceClock {
    Real(Instant),
    Fake(Arc<FakeClock>),
}

impl ServiceClock {
    pub(crate) fn real() -> Self {
        ServiceClock::Real(Instant::now())
    }

    pub(crate) fn now(&self) -> Duration {
        match self {
            ServiceClock::Real(start) => start.elapsed(),
            ServiceClock::Fake(clock) => clock.now(),
        }
    }

    fn is_fake(&self) -> bool {
        matches!(self, ServiceClock::Fake(_))
    }
}

/// When parked on a fake clock, re-check at this real cadence as a safety
/// net; the primary wake-up is the clock's `on_advance` hook bumping the
/// capacity epoch.
const FAKE_CLOCK_WAIT_SLICE: Duration = Duration::from_millis(100);

/// The capacity condition submitters park on: an epoch bumped (and
/// broadcast) whenever queue or quota capacity may have changed — a worker
/// dequeued, a job completed or was cancelled, a session closed, the fake
/// clock advanced, the service began shutting down.
pub(crate) struct CapacitySignal {
    epoch: StdMutex<u64>,
    cv: Condvar,
    waiting: AtomicUsize,
}

impl CapacitySignal {
    fn new() -> Arc<Self> {
        Arc::new(CapacitySignal {
            epoch: StdMutex::new(0),
            cv: Condvar::new(),
            waiting: AtomicUsize::new(0),
        })
    }

    pub(crate) fn bump(&self) {
        let mut epoch = self.epoch.lock().unwrap_or_else(|p| p.into_inner());
        *epoch += 1;
        drop(epoch);
        self.cv.notify_all();
    }

    fn current(&self) -> u64 {
        *self.epoch.lock().unwrap_or_else(|p| p.into_inner())
    }
}

struct Queued {
    cell: Arc<JobCell>,
    spec: JobSpec,
    /// When admission accepted the job (on the service clock), so the worker
    /// that dequeues it can meter the queue-wait latency.
    admitted_at: Duration,
}

/// A job stranded on a killed node, handed to the failover supervisor for
/// replay on a survivor (see [`KernelService::kill_for_failover`]).
pub(crate) struct OrphanedJob {
    /// The full spec, so the replay is the same work.
    pub(crate) spec: JobSpec,
    /// The original cell: the supervisor resolves its slot with the replay's
    /// rewritten report, so the submitter's handle settles exactly once.
    pub(crate) cell: Arc<JobCell>,
    /// Progress the dead node had made (the checkpoint watermark; zeros for
    /// jobs still queued at kill time).
    pub(crate) watermark: aohpc_runtime::Progress,
}

/// Where a killed node's orphans go: installed per node by the cluster's
/// failover supervisor, absent on standalone services.  A sink that can no
/// longer deliver (the supervisor is gone) hands the orphan back; either way
/// orphaning then degrades to abandonment so every handle still resolves.
pub(crate) type OrphanSink =
    Arc<dyn Fn(Box<OrphanedJob>) -> Result<(), Box<OrphanedJob>> + Send + Sync>;

/// Which part of [`Inner::settle`] a call performs.
pub(crate) enum Settlement {
    /// The job ends on this node: resolve it with the outcome and release its
    /// books.
    Final(JobOutcome),
    /// The job leaves this node for the failover sink: release its books now,
    /// leave its handle open.
    HandOff,
    /// The close of a handed-off job: resolve it with the outcome; its books
    /// were released at the hand-off.
    Deferred(JobOutcome),
}

pub(crate) struct Inner {
    config: ServiceConfig,
    cache: Arc<PlanCache>,
    /// Execution-scratch recycling across jobs: each job's tasks check their
    /// tape register files out of this pool and the task-context drop returns
    /// them, so a worker's steady-state jobs run on warm buffers.
    scratch: Arc<ScratchPool>,
    sessions: Mutex<HashMap<SessionId, SessionCtx>>,
    /// Per-session completion streams (attached lazily; see
    /// [`KernelService::completion_stream`]).  Lock order: `sessions` may be
    /// held while taking this lock, never the reverse.
    streams: Mutex<HashMap<SessionId, Arc<StreamState>>>,
    results: Mutex<Vec<JobReport>>,
    pending: StdMutex<u64>,
    idle: Condvar,
    capacity: Arc<CapacitySignal>,
    /// Jobs admitted but not yet dequeued by a worker.  Checked and
    /// incremented under the `sessions` lock, so it never exceeds
    /// `config.max_queued_jobs` — which is also the channel's capacity, so
    /// sends never block.
    queued: AtomicUsize,
    next_session: AtomicU64,
    next_job: AtomicU64,
    /// Set by shutdown/Drop: workers abandon queued-but-unstarted jobs
    /// (resolving their handles with [`JobErrorKind::Abandoned`]) instead of
    /// executing the backlog.
    shutting_down: AtomicBool,
    /// Fail-stop switch ([`KernelService::kill_for_failover`]): admissions
    /// are rejected and queued-but-unstarted jobs are orphaned to the
    /// failover sink instead of executed.  Jobs a worker already started
    /// complete normally — the kill boundary is the dequeue, matching the
    /// superstep-checkpoint failure model.
    killed: AtomicBool,
    /// The failover supervisor's orphan intake, when this node runs inside a
    /// cluster with fault tolerance enabled.
    orphan_sink: Mutex<Option<OrphanSink>>,
    clock: ServiceClock,
    /// Queue-wait latency distribution, always on (recording is a handful of
    /// relaxed atomics) — backs the `admission_stats` p50/p99 whether or not
    /// an observer is installed.
    queue_wait: Histogram,
    /// The observability hub, when one was installed at construction
    /// ([`KernelService::with_observer`]).
    obs: Option<Arc<ObsHub>>,
    /// The service plane's own woven program: carries the obs aspect around
    /// `Service::execute_spec` and `PlanCache::resolve`.  Empty — and the
    /// dispatch sites skipped entirely — when no hub is installed, so the
    /// unobserved path pays nothing.
    service_woven: WovenProgram,
}

impl Inner {
    /// The one place a job ends.  Every accepted job **resolves exactly once**
    /// and every way of leaving a node — completion, [`JobHandle::cancel`],
    /// abandonment at shutdown, a fail-stop kill with or without a failover
    /// sink — comes here *after* winning the job's state claim
    /// (`begin_running` / `mark_cancelled` / `mark_abandoned`), so the steps
    /// below run once per job, in this order:
    ///
    /// 1. the report is retained for `drain` / `drain_session` (a job that
    ///    ran here, [`ServiceConfig::retain_reports`] on);
    /// 2. the session's completion stream receives the outcome (cloned only
    ///    when a consumer is attached);
    /// 3. the job's status becomes final (`Completed`; `Cancelled` and
    ///    `Abandoned` are the claims themselves);
    /// 4. the session releases the in-flight slot and meters the exit;
    /// 5. the handle resolves — waiters return and wakers fire, on this
    ///    thread, with no service lock held;
    /// 6. the pending count drops, and `drain`, `drain_session` and parked
    ///    submitters are woken.
    ///
    /// 1 before 4: a `drain_session` that sees the session idle must find its
    /// last report.  1–4 before 5: whoever the handle wakes sees the exit in
    /// the stream, the status and the meter, and can take the freed quota
    /// slot.  The bounded-queue slot is not part of this: it frees when a
    /// worker dequeues the message (see [`JobHandle::cancel`]).
    ///
    /// A job handed to the failover sink is the one exit in two calls:
    /// [`Settlement::HandOff`] does 4 and 6 at the kill — the dead node's
    /// `drain` never waits on work that finishes elsewhere — and
    /// [`Settlement::Deferred`] does 2, 3 and 5 when the supervisor has the
    /// replay's outcome (retained where it ran, not here).
    pub(crate) fn settle(&self, cell: &JobCell, how: Settlement) {
        if let Settlement::Final(Ok(report)) = &how {
            if self.config.retain_reports {
                self.results.lock().push(report.clone());
            }
        }
        let (outcome, release) = match how {
            Settlement::Final(outcome) => (Some(outcome), true),
            Settlement::HandOff => (None, true),
            Settlement::Deferred(outcome) => (Some(outcome), false),
        };
        if let Some(outcome) = &outcome {
            let stream =
                self.streams.lock().get(&cell.session).filter(|s| s.has_consumers()).cloned();
            if let Some(stream) = stream {
                stream.resolve(cell.job, outcome.clone());
            }
            if outcome.is_ok() {
                cell.mark_completed();
            }
        }
        if release {
            if let Some(ctx) = self.sessions.lock().get_mut(&cell.session) {
                match &outcome {
                    Some(Ok(_)) => ctx.note_completed(),
                    Some(Err(JobError { kind: JobErrorKind::Cancelled, .. })) => {
                        ctx.note_cancelled()
                    }
                    Some(Err(JobError { kind: JobErrorKind::Abandoned, .. })) | None => {
                        ctx.note_abandoned()
                    }
                }
            }
        }
        if let Some(outcome) = outcome {
            cell.slot.complete(outcome);
        }
        if release {
            let mut pending = self.pending.lock().expect("pending lock");
            *pending -= 1;
            drop(pending);
            self.idle.notify_all();
            self.capacity.bump();
        }
    }
}

/// A multi-tenant, concurrent kernel-execution service.
///
/// See the [module docs](self) for the submission pipeline.  Dropping the
/// service (or calling [`KernelService::shutdown`]) closes the queue and
/// joins the workers; queued-but-unstarted jobs are abandoned — their
/// handles and streams resolve with [`JobErrorKind::Abandoned`] — so call
/// [`KernelService::drain`] (or wait the handles) first if their results
/// matter.
pub struct KernelService {
    inner: Arc<Inner>,
    queue: Option<Sender<Queued>>,
    // Kept so `submit` stays valid in admission-only mode (0 workers) and so
    // shutdown can abandon a backlog no worker will ever drain.
    queue_rx: Receiver<Queued>,
    workers: Vec<JoinHandle<()>>,
}

impl KernelService {
    /// Start a service with the given sizing (wall clock).
    pub fn new(config: ServiceConfig) -> Self {
        Self::start(config, ServiceClock::real(), None, None)
    }

    /// Start a service with an observability hub installed: every job gets a
    /// span tree (job → resolve/execute → superstep → block) in the hub's
    /// flight recorder, and the hub's [`Metrics`](aohpc_obs::Metrics) unify
    /// the queue-wait / resolve / execute latency distributions and job
    /// counters.  Snapshot with [`KernelService::obs_snapshot`], export the
    /// recorder with [`aohpc_obs::chrome_trace_json`].
    pub fn with_observer(config: ServiceConfig, hub: Arc<ObsHub>) -> Self {
        Self::start(config, ServiceClock::real(), None, Some(hub))
    }

    /// [`KernelService::with_observer`] on a test-controlled [`FakeClock`]:
    /// give the hub the same clock (`ObsHub::with_clock`) and both admission
    /// deadlines *and* span timestamps become deterministic.
    pub fn with_observer_and_clock(
        config: ServiceConfig,
        hub: Arc<ObsHub>,
        clock: Arc<FakeClock>,
    ) -> Self {
        Self::start(config, ServiceClock::Fake(clock), None, Some(hub))
    }

    /// Start a service whose admission deadlines run on a test-controlled
    /// [`FakeClock`]: `submit_timeout` deadlines only pass when the test
    /// calls [`FakeClock::advance`], which also wakes parked submitters so
    /// timeout tests signal instead of sleeping.
    pub fn with_fake_clock(config: ServiceConfig, clock: Arc<FakeClock>) -> Self {
        Self::start(config, ServiceClock::Fake(clock), None, None)
    }

    pub(crate) fn start(
        config: ServiceConfig,
        clock: ServiceClock,
        cache: Option<Arc<PlanCache>>,
        obs: Option<Arc<ObsHub>>,
    ) -> Self {
        let config = config.normalized();
        let cache = cache.unwrap_or_else(|| {
            Arc::new(PlanCache::new(config.cache_shards, config.cache_capacity))
        });
        // Enough idle scratches for every worker to run a hybrid-topology job
        // (a few tasks each) without dropping warm buffers on release.
        let scratch = ScratchPool::new(config.workers.max(1) * 4);
        let capacity = CapacitySignal::new();
        if let ServiceClock::Fake(fake) = &clock {
            let capacity = Arc::clone(&capacity);
            fake.on_advance(move || capacity.bump());
        }
        // With a hub installed the service's own join points dispatch through
        // this woven program; without one it stays empty and the dispatch
        // sites are gated off before building any attributes.
        let service_woven = match &obs {
            Some(hub) => {
                Weaver::new().with_aspect(Box::new(ObsServiceAspect::new(Arc::clone(hub)))).weave()
            }
            None => Weaver::new().weave(),
        };
        let inner = Arc::new(Inner {
            config,
            cache,
            scratch,
            sessions: Mutex::new(HashMap::new()),
            streams: Mutex::new(HashMap::new()),
            results: Mutex::new(Vec::new()),
            pending: StdMutex::new(0),
            idle: Condvar::new(),
            capacity,
            queued: AtomicUsize::new(0),
            next_session: AtomicU64::new(0),
            next_job: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            orphan_sink: Mutex::new(None),
            clock,
            queue_wait: Histogram::new(),
            obs,
            service_woven,
        });
        let (tx, rx) = bounded::<Queued>(config.max_queued_jobs);
        let workers = (0..config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("aohpc-service-{i}"))
                    .spawn(move || {
                        while let Ok(queued) = rx.recv() {
                            dequeued(&inner, queued);
                        }
                    })
                    .expect("spawn service worker")
            })
            .collect();
        KernelService { inner, queue: Some(tx), queue_rx: rx, workers }
    }

    /// A service sized for an evaluation [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        Self::new(ServiceConfig::for_scale(scale))
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.inner.cache.stats()
    }

    /// Admission/backpressure counters (parked submitters, queue depth) plus
    /// the queue-wait latency quantiles over all jobs workers have picked up.
    pub fn admission_stats(&self) -> AdmissionStats {
        AdmissionStats {
            waiting: self.inner.capacity.waiting.load(Ordering::SeqCst),
            queued: self.inner.queued.load(Ordering::SeqCst),
            queue_limit: self.inner.config.max_queued_jobs,
            queue_wait_p50_ns: self.inner.queue_wait.quantile(0.50),
            queue_wait_p99_ns: self.inner.queue_wait.quantile(0.99),
        }
    }

    /// The installed observability hub, if any.
    pub fn observer(&self) -> Option<Arc<ObsHub>> {
        self.inner.obs.clone()
    }

    /// One cross-validated snapshot over the service's stat islands: plan
    /// cache, admission queue, and the hub's job metrics and recorder state.
    /// `None` without an installed observer.  At quiescence (after a
    /// [`KernelService::drain`]) the snapshot's
    /// [`validate`](ObsSnapshot::validate) returns no violations; note the
    /// job/admission numbers are **hub-wide**, so on a hub shared across a
    /// cluster use [`ClusterService::obs_snapshot`](crate::ClusterService)
    /// instead of per-node snapshots.
    pub fn obs_snapshot(&self) -> Option<ObsSnapshot> {
        let hub = self.inner.obs.as_ref()?;
        Some(obs_snapshot(hub, self.cache_stats(), None, [self.admission_stats()]))
    }

    /// The shared plan cache (e.g. to install into an out-of-band app).
    pub fn plan_cache(&self) -> Arc<PlanCache> {
        Arc::clone(&self.inner.cache)
    }

    /// Open a session for a tenant.
    pub fn open_session(&self, spec: SessionSpec) -> SessionId {
        self.open(spec, None)
    }

    /// Open a child session nested under `parent` (its accounting stays
    /// separate; the link records provenance).
    pub fn open_child_session(
        &self,
        parent: SessionId,
        spec: SessionSpec,
    ) -> Result<SessionId, SubmitError> {
        if !self.inner.sessions.lock().contains_key(&parent) {
            return Err(SubmitError::UnknownSession(parent));
        }
        Ok(self.open(spec, Some(parent)))
    }

    fn open(&self, spec: SessionSpec, parent: Option<SessionId>) -> SessionId {
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner.sessions.lock().insert(id, SessionCtx::create(id, spec, parent));
        id
    }

    /// Snapshot a session's context (None if never opened).
    pub fn session(&self, id: SessionId) -> Option<SessionCtx> {
        self.inner.sessions.lock().get(&id).cloned()
    }

    /// Close a session: further submissions are rejected, in-flight jobs
    /// finish normally.  Returns the final meter (None if never opened).
    /// Submitters parked on the session's quota wake and fail with
    /// [`SubmitError::SessionClosed`].
    pub fn close_session(&self, id: SessionId) -> Option<SessionMeter> {
        let meter = {
            let mut sessions = self.inner.sessions.lock();
            let ctx = sessions.get_mut(&id)?;
            ctx.close();
            *ctx.meter()
        };
        self.inner.capacity.bump();
        Some(meter)
    }

    /// Attach (or re-obtain) the session's [`CompletionStream`]: jobs
    /// submitted to the session **from this point on** are delivered on it
    /// in submission order, as `Ok(JobReport)` or `Err(JobError)` for
    /// cancelled/abandoned jobs.  Handles from repeated calls share one
    /// buffer — each outcome is delivered to exactly one consumer.
    pub fn completion_stream(&self, session: SessionId) -> Result<CompletionStream, SubmitError> {
        if !self.inner.sessions.lock().contains_key(&session) {
            return Err(SubmitError::UnknownSession(session));
        }
        let state =
            self.inner.streams.lock().entry(session).or_insert_with(StreamState::new).clone();
        Ok(CompletionStream::new(session, state))
    }

    /// Submit one job under a session, waiting up to the configured
    /// [`ServiceConfig::admission_timeout`] for quota/queue capacity.
    ///
    /// Returns a [`JobHandle`] that resolves exactly once with the job's
    /// outcome — poll it, block on [`JobHandle::wait`], `.await` it, or
    /// ignore it and collect through [`KernelService::drain`] /
    /// [`CompletionStream`] as before.
    ///
    /// Fatal admission checks run in the order the module docs list them:
    /// the session must exist and be active (so callers keying re-auth logic
    /// on [`SubmitError::UnknownSession`] / [`SubmitError::SessionClosed`]
    /// see them regardless of the spec), then the spec itself; only then is
    /// capacity considered.
    pub fn submit(&self, session: SessionId, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.submit_timeout(session, spec, self.inner.config.admission_timeout)
    }

    /// Submit without waiting: a full quota or queue returns the
    /// backpressure error ([`SubmitError::WouldBlock`] /
    /// [`SubmitError::QueueFull`]) immediately.
    pub fn try_submit(&self, session: SessionId, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.submit_timeout(session, spec, Duration::ZERO)
    }

    /// Submit, parking the caller up to `timeout` while the session quota or
    /// the global queue is full.  Admission happens as soon as capacity
    /// frees (a job completes or is cancelled, a worker dequeues); if the
    /// deadline passes first, the backpressure error that blocked admission
    /// is returned and the attempt is metered as throttled.
    pub fn submit_timeout(
        &self,
        session: SessionId,
        spec: JobSpec,
        timeout: Duration,
    ) -> Result<JobHandle, SubmitError> {
        let inner = &self.inner;
        let deadline = inner.clock.now().saturating_add(timeout);
        let capacity = &inner.capacity;
        let mut seen = capacity.current();
        let mut registered = false;
        let result = loop {
            match self.admit_once(session, &spec) {
                Ok(handle) => break Ok(handle),
                Err(AdmitDenied::Fatal(error)) => break Err(error),
                Err(AdmitDenied::Throttled(error)) => {
                    if timeout.is_zero() || inner.clock.now() >= deadline {
                        break Err(error);
                    }
                }
            }
            if !registered {
                registered = true;
                capacity.waiting.fetch_add(1, Ordering::SeqCst);
            }
            // Park until the capacity epoch moves or the deadline passes.
            // The epoch is re-read under the lock, so a release between the
            // failed admission above and this wait is never lost.
            let guard = capacity.epoch.lock().unwrap_or_else(|p| p.into_inner());
            if *guard == seen {
                let wait_for = if inner.clock.is_fake() {
                    FAKE_CLOCK_WAIT_SLICE
                } else {
                    deadline.saturating_sub(inner.clock.now())
                };
                let (guard, _) =
                    capacity.cv.wait_timeout(guard, wait_for).unwrap_or_else(|p| p.into_inner());
                seen = *guard;
            } else {
                seen = *guard;
            }
        };
        if registered {
            capacity.waiting.fetch_sub(1, Ordering::SeqCst);
        }
        if let Err(error) = &result {
            if error.is_backpressure() {
                if let Some(ctx) = inner.sessions.lock().get_mut(&session) {
                    ctx.note_throttled();
                }
            }
        }
        result
    }

    /// One admission attempt.  On success the job is queued and its handle
    /// returned; `Throttled` means capacity was momentarily exhausted.
    fn admit_once(&self, session: SessionId, spec: &JobSpec) -> Result<JobHandle, AdmitDenied> {
        let inner = &self.inner;
        if inner.shutting_down.load(Ordering::Relaxed) || inner.killed.load(Ordering::SeqCst) {
            return Err(AdmitDenied::Fatal(SubmitError::ShuttingDown));
        }
        let cell = {
            let mut sessions = inner.sessions.lock();
            let ctx = sessions
                .get_mut(&session)
                .ok_or(AdmitDenied::Fatal(SubmitError::UnknownSession(session)))?;
            if !ctx.is_active() {
                return Err(AdmitDenied::Fatal(SubmitError::SessionClosed(session)));
            }
            if let Err(reason) = validate(spec) {
                ctx.note_rejected();
                return Err(AdmitDenied::Fatal(SubmitError::InvalidJob(reason)));
            }
            if inner.queued.load(Ordering::SeqCst) >= inner.config.max_queued_jobs {
                return Err(AdmitDenied::Throttled(SubmitError::QueueFull {
                    limit: inner.config.max_queued_jobs,
                }));
            }
            if ctx.in_flight() >= inner.config.max_in_flight_per_session {
                return Err(AdmitDenied::Throttled(SubmitError::WouldBlock {
                    session,
                    limit: inner.config.max_in_flight_per_session,
                }));
            }
            ctx.note_submitted();
            // Job id assignment and the stream's expected-order entry happen
            // under the session lock, so per-session stream order always
            // matches ascending job ids.
            let job = inner.next_job.fetch_add(1, Ordering::Relaxed) + 1;
            let cell = JobCell::new(job, session);
            if let Some(stream) = inner.streams.lock().get(&session) {
                stream.expect(job);
            }
            inner.queued.fetch_add(1, Ordering::SeqCst);
            cell
        };
        *inner.pending.lock().expect("pending lock") += 1;
        let queued =
            Queued { cell: Arc::clone(&cell), spec: spec.clone(), admitted_at: inner.clock.now() };
        if self.queue.as_ref().expect("queue open while service exists").try_send(queued).is_err() {
            unreachable!("admission bounds the queue and workers hold the receiver");
        }
        Ok(JobHandle { cell, service: Arc::downgrade(inner) })
    }

    /// Submit a batch under one session, stopping at the first rejection.
    ///
    /// Returns the handles of the accepted jobs on success.  On a rejection
    /// the already accepted prefix keeps running (its results arrive via the
    /// handles, the stream, or `drain`); the returned [`BatchError`] carries
    /// that prefix's ids and the index of the rejected spec so the caller
    /// can correlate and retry only the rest.  Each spec is admitted with
    /// the plain [`KernelService::submit`] semantics, so backpressure inside
    /// a batch waits rather than failing (up to the configured timeout).
    pub fn submit_batch(
        &self,
        session: SessionId,
        specs: Vec<JobSpec>,
    ) -> Result<Vec<JobHandle>, BatchError> {
        let mut accepted = Vec::with_capacity(specs.len());
        for (index, spec) in specs.into_iter().enumerate() {
            match self.submit(session, spec) {
                Ok(handle) => accepted.push(handle),
                Err(error) => {
                    return Err(BatchError {
                        accepted: accepted.iter().map(JobHandle::id).collect(),
                        index,
                        error,
                    })
                }
            }
        }
        Ok(accepted)
    }

    /// Block until nothing is in flight, then take **all** accumulated
    /// reports — every session's — ordered by job id.
    ///
    /// This is the synchronous wrapper over the async completion plumbing:
    /// it waits on the same pending counter every resolution path settles,
    /// then hands back the retained reports.  It is destructive across
    /// tenants, so use it from the single caller that owns the service.
    /// Independent tenants sharing one service should collect with
    /// [`KernelService::drain_session`], a [`CompletionStream`], or their
    /// own [`JobHandle`]s instead.  With
    /// [`ServiceConfig::retain_reports`] off, `drain` still waits for
    /// quiescence but returns nothing.
    ///
    /// In admission-only mode (0 workers) queued jobs can never complete, so
    /// `drain` does not wait for them — it returns whatever has been
    /// recorded instead of blocking forever.
    pub fn drain(&self) -> Vec<JobReport> {
        if !self.workers.is_empty() {
            let mut pending = self.inner.pending.lock().expect("pending lock");
            while *pending > 0 {
                pending = self.inner.idle.wait(pending).expect("pending lock");
            }
        }
        let mut out = std::mem::take(&mut *self.inner.results.lock());
        out.sort_by_key(|r| r.job);
        out
    }

    /// Block until `session` has nothing in flight, then take *its* reports
    /// only (ordered by job id).  Other sessions' results stay queued for
    /// their own owners — the tenant-safe counterpart of
    /// [`KernelService::drain`].
    ///
    /// A session that was never opened (or has nothing in flight) returns
    /// whatever is already recorded for it without blocking; admission-only
    /// mode (0 workers) never blocks, as with `drain`.
    pub fn drain_session(&self, session: SessionId) -> Vec<JobReport> {
        if !self.workers.is_empty() {
            let mut pending = self.inner.pending.lock().expect("pending lock");
            loop {
                let in_flight = self
                    .inner
                    .sessions
                    .lock()
                    .get(&session)
                    .map(|ctx| ctx.in_flight())
                    .unwrap_or(0);
                if in_flight == 0 {
                    break;
                }
                pending = self.inner.idle.wait(pending).expect("pending lock");
            }
        }
        let mut results = self.inner.results.lock();
        let (mut out, rest): (Vec<_>, Vec<_>) =
            results.drain(..).partition(|r| r.session == session);
        *results = rest;
        drop(results);
        out.sort_by_key(|r| r.job);
        out
    }

    /// Install the failover supervisor's orphan intake (cluster-internal;
    /// one sink per node, set before any kill can fire).
    pub(crate) fn install_orphan_sink(&self, sink: OrphanSink) {
        *self.inner.orphan_sink.lock() = Some(sink);
    }

    /// Fail-stop this node for a failover drill: reject further admissions,
    /// orphan every queued-but-unstarted job to the installed orphan sink,
    /// and let jobs workers already started finish (the kill boundary is the
    /// dequeue — the superstep-checkpoint failure model, under which replay
    /// from step 0 on a survivor is bit-identical).  Idempotent.
    pub(crate) fn kill_for_failover(&self) {
        if self.inner.killed.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake parked submitters so they observe the kill and fail fast.
        self.inner.capacity.bump();
        // Drain the backlog directly: with zero workers (or workers all busy)
        // nobody else will, and the orphans must reach the supervisor now,
        // not at shutdown.  Workers racing this drain orphan their own
        // dequeues via the killed check in their loop.
        while let Ok(queued) = self.queue_rx.try_recv() {
            dequeued(&self.inner, queued);
        }
    }

    /// Whether [`KernelService::kill_for_failover`] has fired.
    pub(crate) fn is_killed(&self) -> bool {
        self.inner.killed.load(Ordering::SeqCst)
    }

    /// Revive a node killed by [`KernelService::kill_for_failover`]: the
    /// restart seam of the rejoin path.  Models a fresh process on the same
    /// rank — the plan cache is dropped cold (re-warmed through the fetcher
    /// chain), then admissions reopen.  Returns `false` (no-op) if the node
    /// was not killed.
    pub(crate) fn revive_after_failover(&self) -> bool {
        if !self.inner.killed.load(Ordering::SeqCst) {
            return false;
        }
        // Cold cache *before* reopening admissions: a job admitted into the
        // revived node must not resolve against pre-crash state.
        self.inner.cache.invalidate_all();
        self.inner.killed.store(false, Ordering::SeqCst);
        // Wake parked submitters that backed off while the node was dead.
        self.inner.capacity.bump();
        true
    }

    /// Close a job this node handed to its orphan sink: the supervisor has
    /// the replay's outcome, or found no survivor to replay on.
    pub(crate) fn resolve_orphan(&self, cell: &JobCell, outcome: JobOutcome) {
        self.inner.settle(cell, Settlement::Deferred(outcome));
    }

    /// Close the queue and join the workers.  Implied by `Drop`; explicit
    /// form for callers that want to observe worker termination.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // The flag makes workers discard the remaining backlog (resolving
        // every queued handle with `Abandoned`); the in-flight job of each
        // worker still finishes.  Parked submitters wake and fail fast.
        self.inner.shutting_down.store(true, Ordering::Relaxed);
        self.inner.capacity.bump();
        drop(self.queue.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // Whatever no worker drained (always the case in admission-only
        // mode) is abandoned inline so every job still resolves exactly
        // once.
        while let Ok(queued) = self.queue_rx.try_recv() {
            dequeued(&self.inner, queued);
        }
    }
}

impl Drop for KernelService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl fmt::Debug for KernelService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelService")
            .field("workers", &self.workers.len())
            .field("config", &self.inner.config)
            .field("cache", &self.inner.cache.stats())
            .field("admission", &self.admission_stats())
            .finish()
    }
}

/// One snapshot over the given stat islands — a node's, or a cluster's summed
/// — and the hub's job metrics and recorder state.
pub(crate) fn obs_snapshot(
    hub: &ObsHub,
    cache: PlanCacheStats,
    comm: Option<CommCounters>,
    admission: impl IntoIterator<Item = AdmissionStats>,
) -> ObsSnapshot {
    let metrics = hub.metrics();
    let mut counters = AdmissionCounters {
        waiting: 0,
        queued: 0,
        queue_limit: 0,
        queue_wait: metrics.queue_wait_ns.snapshot(),
    };
    for node in admission {
        counters.waiting += node.waiting as u64;
        counters.queued += node.queued as u64;
        counters.queue_limit += node.queue_limit as u64;
    }
    ObsSnapshot {
        cache: Some(CacheCounters {
            hits: cache.hits,
            misses: cache.misses,
            compiles: cache.compiles,
            fetches: cache.fetches,
            evictions: cache.evictions,
            collisions: cache.collisions,
            degraded_resolves: cache.degraded_resolves,
            lanes: cache.family.iter().map(|lane| (lane.hits, lane.misses)).collect(),
        }),
        comm,
        admission: counters,
        jobs: JobCounters {
            completed: metrics.jobs_completed.get(),
            failed: metrics.jobs_failed.get(),
            worker_busy_ns: metrics.worker_busy_ns.get(),
        },
        retained_spans: hub.recorder().len() as u64,
        dropped_spans: hub.recorder().dropped(),
    }
}

/// How one admission attempt failed.
enum AdmitDenied {
    /// Retrying cannot help (unknown/closed session, malformed spec,
    /// shutdown).
    Fatal(SubmitError),
    /// Capacity was momentarily exhausted; a later attempt can succeed.
    Throttled(SubmitError),
}

fn validate(spec: &JobSpec) -> Result<(), String> {
    spec.validate().map_err(|e| e.to_string())?;
    if let Err(e) = HeteroDispatcher::try_new(spec.policy.clone()) {
        return Err(format!("schedule policy: {e}"));
    }
    Ok(())
}

/// What becomes of a message once it leaves the queue, on a worker or — where
/// no worker will drain it — inline in `kill_for_failover` and shutdown.
fn dequeued(inner: &Inner, queued: Queued) {
    // The queue slot frees as soon as the job is dequeued; tell
    // backpressured submitters.
    inner.queued.fetch_sub(1, Ordering::SeqCst);
    inner.capacity.bump();
    if inner.killed.load(Ordering::SeqCst) {
        // Fail-stop: anything dequeued after the kill goes to the failover
        // sink, never a worker.
        orphan_one(inner, queued);
    } else if inner.shutting_down.load(Ordering::Relaxed) {
        abandon_one(inner, &queued.cell);
    } else {
        run_one(inner, queued);
    }
}

/// Discard a queued job during shutdown, so a concurrent `drain` cannot hang
/// on work that will never run.  A job already claimed by
/// [`JobHandle::cancel`] was settled there.
fn abandon_one(inner: &Inner, cell: &JobCell) {
    if cell.mark_abandoned() {
        inner.settle(cell, Settlement::Final(Err(cell.error(JobErrorKind::Abandoned))));
    }
}

/// Strand-side of a fail-stop kill: hand a queued job to the failover sink
/// with its handle left open — the supervisor resolves it with the replay's
/// report, so the submitter's handle still settles exactly once.  Without a
/// sink (standalone service), or with one that can no longer deliver, the
/// orphan degrades to an abandonment.
fn orphan_one(inner: &Inner, queued: Queued) {
    let Queued { cell, spec, .. } = queued;
    if !cell.mark_abandoned() {
        // A cancel won the race and settled everything already.
        return;
    }
    let abandoned = Err(cell.error(JobErrorKind::Abandoned));
    let sink = inner.orphan_sink.lock().clone();
    let Some(sink) = sink else {
        return inner.settle(&cell, Settlement::Final(abandoned));
    };
    let orphan = Box::new(OrphanedJob { spec, watermark: cell.progress.snapshot(), cell });
    inner.settle(&orphan.cell, Settlement::HandOff);
    if let Err(orphan) = sink(orphan) {
        inner.settle(&orphan.cell, Settlement::Deferred(abandoned));
    }
}

/// What executing a job yields: the result fields of its [`JobReport`].
struct Executed {
    checksum: f64,
    simulated_seconds: f64,
    summary: aohpc_runtime::RunSummary,
    error: Option<String>,
}

/// Execute one queued job on the calling worker thread and settle it with its
/// report ([`Inner::settle`]).
fn run_one(inner: &Inner, queued: Queued) {
    let Queued { cell, spec, admitted_at } = queued;
    if !cell.begin_running() {
        // A cancel won the race; it settled every counter already.
        return;
    }
    let queue_wait = inner.clock.now().saturating_sub(admitted_at);
    inner.queue_wait.record(queue_wait.as_nanos() as u64);
    let job = cell.job;
    let session = cell.session;
    let fingerprint = spec.program.fingerprint();
    // Hot sessions pin the plans they resolve, so eviction pressure from
    // other tenants cannot flush them (see SessionSpec::pin_plans).
    let pin_plans =
        inner.sessions.lock().get(&session).map(|ctx| ctx.pins_plans()).unwrap_or(false);

    // With an observer installed, open the job's trace root and make it this
    // worker thread's span context, so everything below — including a
    // cluster plan fetch fired from inside the cache — parents into the
    // job's tree.  `trace_ctx` carries (trace id, root span id) to the
    // dispatch sites.
    let obs_job = inner.obs.as_ref().map(|hub| {
        hub.metrics().queue_wait_ns.record(queue_wait.as_nanos() as u64);
        let trace = hub.recorder().next_trace_id();
        (trace, hub.recorder().start("Service::job", trace, 0))
    });
    let trace_ctx = obs_job.map(|(trace, open)| (trace, open.span));
    let _span_ctx = trace_ctx.map(|(trace, span)| push_context(trace, span));

    // Everything fallible runs inside the unwind guard so a panicking job can
    // never strand the pending counter (which would hang every later drain).
    // The pre-warm outcome and phase timings escape through Cells so a panic
    // *after* plan resolution still meters the hit/miss it already charged to
    // the cache (and the phases that did complete).
    let prewarm_hit: std::cell::Cell<Option<bool>> = std::cell::Cell::new(None);
    let resolve_time: std::cell::Cell<Duration> = std::cell::Cell::new(Duration::ZERO);
    let execute_time: std::cell::Cell<Duration> = std::cell::Cell::new(Duration::ZERO);
    let spec_tier: std::cell::Cell<SpecializationId> =
        std::cell::Cell::new(SpecializationId::Generic);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // Resolve the job's primary plan up front so the hit/miss is
        // attributable to *this* job; the app's own plan lookups then hit the
        // warm entry.  The primary shape is the block-(0,0) tile, which the
        // DSL tiling clips to the region, so small regions pre-warm the plan
        // that actually executes.
        let primary = Extent::new2d(spec.block.min(spec.region.nx), spec.block.min(spec.region.ny));
        let resolve_start = inner.clock.now();
        let (artifact, origin) = resolve_primary(inner, &spec, primary, pin_plans, trace_ctx);
        prewarm_hit.set(Some(origin == PlanOrigin::Hit));
        if let Some(kernel) = artifact.as_stencil() {
            spec_tier.set(kernel.specialization());
        }
        resolve_time.set(inner.clock.now().saturating_sub(resolve_start));
        let execute_start = inner.clock.now();
        let result = execute_traced(inner, &spec, &cell, &artifact, trace_ctx);
        execute_time.set(inner.clock.now().saturating_sub(execute_start));
        result
    }));
    let cache_hit = prewarm_hit.get();
    let executed = outcome.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "job panicked".to_string());
        Executed {
            checksum: f64::NAN,
            simulated_seconds: 0.0,
            summary: aohpc_runtime::RunReport::empty(spec.topology.clone()).summary(),
            error: Some(msg),
        }
    });

    // Meter the session *without* releasing its in-flight slot: that is the
    // settlement's, after the report is retained.
    let tenant = {
        let mut sessions = inner.sessions.lock();
        match sessions.get_mut(&session) {
            Some(ctx) => {
                let meter = ctx.meter_mut();
                match cache_hit {
                    Some(true) => meter.plan_cache_hits += 1,
                    Some(false) => meter.plan_cache_misses += 1,
                    None => {} // panicked before/while resolving the plan
                }
                meter.cells_updated += executed.summary.writes;
                meter.simulated_seconds += executed.simulated_seconds;
                ctx.tenant().to_string()
            }
            None => "unknown".to_string(),
        }
    };

    let report = JobReport {
        job,
        session,
        tenant,
        program: spec.program.name().to_string(),
        fingerprint,
        plan_cache_hit: cache_hit.unwrap_or(false),
        checksum: executed.checksum,
        simulated_seconds: executed.simulated_seconds,
        summary: executed.summary,
        error: executed.error,
        trace_id: trace_ctx.map(|(trace, _)| trace),
        queue_wait,
        resolve_time: resolve_time.get(),
        execute_time: execute_time.get(),
        failover: None,
        specialization: spec_tier.get(),
    };
    // Close the job's trace root and settle the hub's job-level metrics; the
    // per-phase spans/histograms were filed by the woven obs advice.
    if let Some(hub) = &inner.obs {
        let metrics = hub.metrics();
        if report.error.is_none() {
            metrics.jobs_completed.inc();
        } else {
            metrics.jobs_failed.inc();
        }
        metrics.worker_busy_ns.add((report.resolve_time + report.execute_time).as_nanos() as u64);
        metrics.record_kernel(
            fingerprint.as_u128() as u64,
            report.summary.writes,
            report.execute_time.as_nanos() as u64,
        );
        if let Some((_, open)) = obs_job {
            hub.recorder().end_with(open, job as i64, i64::from(report.error.is_none()));
        }
    }
    inner.settle(&cell, Settlement::Final(Ok(report)));
}

/// The admission pre-warm resolve.  With an observer installed the lookup is
/// dispatched through the service's woven program, so the obs aspect wraps
/// it in a span parented into the job's tree — the body publishes the plan's
/// [`PlanOrigin`] as an attribute for the advice to file.
fn resolve_primary(
    inner: &Inner,
    spec: &JobSpec,
    primary: Extent,
    pin_plans: bool,
    trace_ctx: Option<(u64, u64)>,
) -> (FamilyArtifact, PlanOrigin) {
    let Some((trace, parent)) = trace_ctx else {
        return inner.cache.resolve(&spec.program, primary, spec.opt_level, pin_plans);
    };
    let attrs = [
        (attr::TRACE, trace as i64),
        (attr::PARENT, parent as i64),
        (attr::FAMILY, i64::from(spec.program.family().tag())),
    ];
    let resolved = inner.service_woven.dispatch_returning(
        names::CACHE_RESOLVE,
        JoinPointKind::Call,
        &attrs,
        |ctx| {
            let resolved = inner.cache.resolve(&spec.program, primary, spec.opt_level, pin_plans);
            ctx.set_attr(attr::ORIGIN, resolved.1 as i64);
            resolved
        },
    );
    // A fresh insert (local compile or cluster fetch + re-lower) ran the
    // shape-specialization matcher: record its verdict through the
    // `Kernel::specialize` join point, parented into the same job tree.
    // Cache hits reuse an already-recorded verdict, so they stay silent.
    if resolved.1 != PlanOrigin::Hit {
        let specialized = resolved
            .0
            .as_stencil()
            .map(|k| k.specialization() != SpecializationId::Generic)
            .unwrap_or(false);
        inner.service_woven.dispatch_returning(
            names::KERNEL_SPECIALIZE,
            JoinPointKind::Call,
            &attrs,
            |ctx| ctx.set_attr(attr::OK, i64::from(specialized)),
        );
    }
    resolved
}

/// Run [`execute_spec`], wrapped in the `Service::execute_spec` join point
/// when an observer is installed.
fn execute_traced(
    inner: &Inner,
    spec: &JobSpec,
    cell: &JobCell,
    artifact: &FamilyArtifact,
    trace_ctx: Option<(u64, u64)>,
) -> Executed {
    let Some((trace, parent)) = trace_ctx else {
        return execute_spec(inner, spec, cell, artifact, None);
    };
    let attrs = [
        (attr::TRACE, trace as i64),
        (attr::PARENT, parent as i64),
        (attr::FAMILY, i64::from(spec.program.family().tag())),
        (attr::JOB, cell.job as i64),
    ];
    inner.service_woven.dispatch_returning(
        names::SERVICE_EXECUTE,
        JoinPointKind::Execution,
        &attrs,
        |_| execute_spec(inner, spec, cell, artifact, trace_ctx),
    )
}

/// Build the job's `(system, app)` pair for its
/// [kernel family](aohpc_kernel::KernelFamilyId) and hand it to
/// [`run_family`]: stencil jobs run the IR app with the shared cache installed
/// as its plan source, particle and usgrid jobs run their DSL product apps
/// with the cache-resolved family artifact installed as the law — for
/// particle the block app (slab, ring runs, slab), for usgrid the value-plane
/// app over the program's own neighbour offsets.
fn execute_spec(
    inner: &Inner,
    spec: &JobSpec,
    cell: &JobCell,
    artifact: &FamilyArtifact,
    trace_ctx: Option<(u64, u64)>,
) -> Executed {
    match artifact {
        FamilyArtifact::Stencil(_) => {
            let program =
                spec.program.as_stencil().expect("stencil artifact implies stencil program");
            let system = SGridSystem::with_block_size(spec.region, spec.block);
            let sink = new_field_sink();
            let dispatcher =
                HeteroDispatcher::try_new(spec.policy.clone()).expect("policy validated at submit");
            let app = IrStencilApp::new(program.clone(), spec.params.clone(), spec.steps)
                .with_opt_level(spec.opt_level)
                .with_dispatcher(dispatcher)
                .with_plan_source(inner.cache.clone())
                .with_scratch_pool(inner.scratch.clone())
                .with_field_sink(sink.clone());
            run_family(inner, spec, cell, trace_ctx, system, app.factory(), sink)
        }
        FamilyArtifact::Particle(kernel) => {
            // The bucket grid the count derives is spec.region in blocks of
            // spec.block: `JobSpec::validate` admitted nothing else.
            let system = ParticleSystem::paper(ParticleSize::new(spec.particle_count()));
            let sink = new_field_sink();
            let law = PairForce(kernel.pair_law(spec.params[0]));
            let app = ParticleBlockApp::new(system.clone(), law, spec.steps)
                .with_dt(spec.params[1])
                .with_sink(sink.clone());
            run_family(inner, spec, cell, trace_ctx, system, app.factory(), sink)
        }
        FamilyArtifact::UsGrid(kernel) => {
            let system = UsGridSystem::with_block_size(spec.region, spec.block, GridLayout::CaseC);
            let sink = new_field_sink();
            let law = UsBlockLaw(kernel.block_law(spec.params[0], spec.params[1]));
            let neighbors = kernel.program().neighbors().to_vec();
            let app = UsGridValueApp::new(system.clone(), neighbors, law, spec.steps)
                .with_sink(sink.clone());
            run_family(inner, spec, cell, trace_ctx, UsGridValueSystem(system), app.factory(), sink)
        }
    }
}

/// The one execute path, whatever the family: weave the spec's layer aspects,
/// run `app` on `system` through `runtime::execute` with the job's progress
/// counters installed, then fold the field `Finalize` left in `sink` into the
/// checksum and the run's counters into the simulated time.
///
/// The layer aspects are instantiated on the system's own cell type: their
/// advice finds the run's payloads by that type, so an aspect typed on
/// another family's cell would fall through and leave rank 0 running alone.
/// With an observer, the per-job [`ObsRunAspect`] joins the weave carrying
/// the job's trace and root-span ids (rank threads have no thread-local span
/// context): under the job span a rank's run reads `Initialize`, one span a
/// sweep, `Finalize`, and the finisher closes what is still open after the
/// run.  A sweep is a step, a retried step or — only when the spec's topology
/// has more than one rank, the dry run's one reader — the warm-up before
/// step 0, so a single-rank job's counters and spans are `steps` sweeps'
/// worth and a multi-rank job's `steps + 1`.
///
/// A run whose slowest task gave up before `spec.steps` (the
/// [`MAX_RETRIES_PER_STEP`] cap in `HpcApp::processing`) is a failure, not a
/// result: it resolves with an error and a NaN checksum, as a panic does.
fn run_family<S, A>(
    inner: &Inner,
    spec: &JobSpec,
    cell: &JobCell,
    trace_ctx: Option<(u64, u64)>,
    system: S,
    app: Arc<dyn Fn(TaskSlot) -> A + Send + Sync>,
    sink: FieldSink,
) -> Executed
where
    S: DslSystem + 'static,
    A: HpcApp<S::Cell> + 'static,
{
    let mut weaver = Weaver::new();
    if spec.topology.ranks() > 1 {
        weaver = weaver.with_aspect(Box::new(MpiAspect::<S::Cell>::new()));
    }
    if spec.topology.threads_per_rank() > 1 {
        weaver = weaver.with_aspect(Box::new(OmpAspect::<S::Cell>::new()));
    }
    let mut finisher = None;
    if let (Some(hub), Some((trace, job_span))) = (&inner.obs, trace_ctx) {
        let aspect = ObsRunAspect::new(Arc::clone(hub), trace, job_span);
        finisher = Some(aspect.finisher());
        weaver = weaver.with_aspect(Box::new(aspect));
    }
    let config = RunConfig::serial()
        .with_topology(spec.topology.clone())
        .with_weave_mode(spec.weave_mode)
        .with_progress(cell.progress.clone());
    let report = execute(&config, weaver.weave(), Arc::new(system).env_factory(), app);
    if let Some(finisher) = finisher {
        finisher.finish();
    }

    let simulated_seconds = CostModel::default().makespan_seconds(&report);
    let summary = report.summary();
    // `summary.steps` is the furthest any task got; a run is only as done as
    // its slowest task.
    let completed = report.tasks.iter().map(|t| t.steps).min().unwrap_or(0);
    if completed < spec.steps as u64 {
        let error = format!(
            "completed {completed} of {} steps: a task gave up after {MAX_RETRIES_PER_STEP} \
             consecutive failed refreshes",
            spec.steps
        );
        return Executed { checksum: f64::NAN, simulated_seconds, summary, error: Some(error) };
    }
    let checksum = checksum(sink.lock().iter().map(|(_, v)| *v));
    Executed { checksum, simulated_seconds, summary, error: None }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobErrorKind, JobStatus};
    use aohpc_kernel::{Processor, SchedulePolicy, StencilProgram};
    use aohpc_runtime::Topology;
    use aohpc_workloads::RegionSize;

    fn smoke_job() -> JobSpec {
        JobSpec::jacobi(Scale::Smoke)
    }

    /// Admission-only configs must not block `submit` (no worker ever frees
    /// capacity), so they pin the admission timeout to zero.
    fn admission_only() -> ServiceConfig {
        ServiceConfig::default().with_workers(0).with_admission_timeout(Duration::ZERO)
    }

    #[test]
    fn submit_drain_roundtrip_reports_every_job() {
        let service = KernelService::new(ServiceConfig::default().with_workers(2));
        let session = service.open_session(SessionSpec::tenant("acme"));
        let handles =
            service.submit_batch(session, vec![smoke_job(), smoke_job(), smoke_job()]).unwrap();
        let ids: Vec<JobId> = handles.iter().map(JobHandle::id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        let reports = service.drain();
        assert_eq!(reports.len(), 3);
        for (report, id) in reports.iter().zip(&ids) {
            assert_eq!(report.job, *id);
            assert_eq!(report.session, session);
            assert_eq!(report.tenant, "acme");
            assert_eq!(report.program, "jacobi-5pt");
            assert!(report.error.is_none());
            assert!(report.checksum.is_finite());
            assert!(report.simulated_seconds > 0.0);
            assert!(report.summary.writes > 0);
        }
        // Same program, same shape: one compile, the rest shared.
        assert_eq!(service.cache_stats().misses, 1);
        let ctx = service.session(session).unwrap();
        assert_eq!(ctx.meter().jobs_submitted, 3);
        assert_eq!(ctx.meter().jobs_completed, 3);
        assert_eq!(ctx.meter().plan_cache_misses, 1);
        assert_eq!(ctx.meter().plan_cache_hits, 2);
        assert!(ctx.meter().simulated_seconds > 0.0);
        assert_eq!(ctx.in_flight(), 0);
        // The handles resolved too — drain and handles observe the same job.
        for (handle, id) in handles.iter().zip(&ids) {
            let outcome = handle.poll().expect("resolved after drain");
            assert_eq!(outcome.unwrap().job, *id);
            assert_eq!(handle.status(), JobStatus::Completed);
        }
    }

    #[test]
    fn handle_wait_resolves_with_report_and_progress() {
        let service = KernelService::new(ServiceConfig::default().with_workers(1));
        let session = service.open_session(SessionSpec::tenant("t"));
        let handle = service.submit(session, smoke_job()).unwrap();
        assert_eq!(handle.session(), session);
        let report = handle.wait().expect("job ran");
        assert!(report.error.is_none());
        assert!(report.checksum.is_finite());
        assert!(handle.is_complete());
        // The runtime's progress plumbing saw the run: the slowest task
        // completed `summary.steps` steps, so the total is at least that.
        let progress = handle.progress();
        assert!(progress.steps >= report.summary.steps, "{progress:?} vs {report:?}");
        assert_eq!(progress.tasks_finished as usize, report.summary.tasks);
        // Cancelling a completed job is a no-op.
        assert!(!handle.cancel());
        // wait() on a resolved handle returns immediately, as does a clone.
        assert_eq!(handle.clone().wait().unwrap().job, report.job);
    }

    #[test]
    fn handle_is_a_future() {
        use std::sync::atomic::AtomicBool;
        use std::task::{Context, Poll, Wake, Waker};

        struct ThreadWaker {
            woken: AtomicBool,
            thread: std::thread::Thread,
        }
        impl Wake for ThreadWaker {
            fn wake(self: Arc<Self>) {
                self.woken.store(true, Ordering::SeqCst);
                self.thread.unpark();
            }
        }

        let service = KernelService::new(ServiceConfig::default().with_workers(1));
        let session = service.open_session(SessionSpec::tenant("t"));
        let mut handle = service.submit(session, smoke_job()).unwrap();

        // A minimal single-future block_on: poll, park until woken, repeat.
        let waker_state =
            Arc::new(ThreadWaker { woken: AtomicBool::new(false), thread: std::thread::current() });
        let waker = Waker::from(waker_state.clone());
        let mut cx = Context::from_waker(&waker);
        let outcome = loop {
            match std::future::Future::poll(std::pin::Pin::new(&mut handle), &mut cx) {
                Poll::Ready(outcome) => break outcome,
                Poll::Pending => {
                    while !waker_state.woken.swap(false, Ordering::SeqCst) {
                        std::thread::park_timeout(Duration::from_millis(50));
                    }
                }
            }
        };
        assert_eq!(outcome.unwrap().job, handle.id());
    }

    #[test]
    fn results_match_across_backends_and_sessions() {
        let service = KernelService::new(ServiceConfig::default().with_workers(3));
        let a = service.open_session(SessionSpec::tenant("a"));
        let b = service.open_session(SessionSpec::tenant("b"));
        for processor in [Processor::Scalar, Processor::Simd] {
            service.submit(a, smoke_job().with_policy(SchedulePolicy::Single(processor))).unwrap();
            service.submit(b, smoke_job().with_policy(SchedulePolicy::Single(processor))).unwrap();
        }
        let reports = service.drain();
        assert_eq!(reports.len(), 4);
        let first = reports[0].checksum;
        for r in &reports {
            assert_eq!(r.checksum, first, "all backends and tenants agree bit-for-bit");
        }
    }

    #[test]
    fn admission_enforces_sessions_and_backpressures_quotas() {
        // Admission-only mode (no workers): in-flight counts never drop, so
        // quota behaviour is deterministic.
        let service = KernelService::new(admission_only().with_quota(2));
        assert_eq!(service.worker_count(), 0);

        assert_eq!(service.submit(99, smoke_job()).unwrap_err(), SubmitError::UnknownSession(99),);

        let session = service.open_session(SessionSpec::tenant("t"));
        service.submit(session, smoke_job()).unwrap();
        service.submit(session, smoke_job()).unwrap();
        let err = service.try_submit(session, smoke_job()).unwrap_err();
        assert_eq!(err, SubmitError::WouldBlock { session, limit: 2 });
        assert!(err.is_backpressure(), "quota exhaustion is backpressure, not a hard rejection");
        let ctx = service.session(session).unwrap();
        assert_eq!(ctx.in_flight(), 2);
        assert_eq!(ctx.meter().jobs_throttled, 1);
        assert_eq!(ctx.meter().jobs_rejected, 0, "throttles are not fatal rejections");

        let closed = service.open_session(SessionSpec::tenant("u"));
        service.close_session(closed).unwrap();
        assert_eq!(
            service.submit(closed, smoke_job()).unwrap_err(),
            SubmitError::SessionClosed(closed)
        );
        assert!(service.close_session(404).is_none());

        // Session errors take precedence over spec errors: a caller keying
        // re-auth logic on UnknownSession/SessionClosed sees them even when
        // the spec is also malformed.
        let bad_spec = smoke_job().with_block(0);
        assert_eq!(
            service.submit(99, bad_spec.clone()).unwrap_err(),
            SubmitError::UnknownSession(99)
        );
        assert_eq!(
            service.submit(closed, bad_spec).unwrap_err(),
            SubmitError::SessionClosed(closed)
        );
        assert_eq!(
            service.session(closed).unwrap().meter().jobs_rejected,
            0,
            "closed sessions do not meter submissions they could never run"
        );
    }

    #[test]
    fn queue_bound_backpressures_globally() {
        // Queue depth 2, generous quota: the third admission hits the global
        // bound, not the per-session one.
        let service = KernelService::new(admission_only().with_quota(100).with_queue_bound(2));
        let session = service.open_session(SessionSpec::tenant("t"));
        service.submit(session, smoke_job()).unwrap();
        service.submit(session, smoke_job()).unwrap();
        let err = service.try_submit(session, smoke_job()).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { limit: 2 });
        assert!(err.is_backpressure());
        assert_eq!(service.admission_stats().queued, 2);
        assert_eq!(service.admission_stats().queue_limit, 2);
    }

    #[test]
    fn cancel_releases_the_quota_slot() {
        let service = KernelService::new(admission_only().with_quota(1));
        let session = service.open_session(SessionSpec::tenant("t"));
        let first = service.submit(session, smoke_job()).unwrap();
        assert_eq!(
            service.try_submit(session, smoke_job()).unwrap_err(),
            SubmitError::WouldBlock { session, limit: 1 },
        );
        assert!(first.cancel(), "a queued job can be cancelled");
        assert!(!first.cancel(), "cancel resolves at most once");
        assert_eq!(first.status(), JobStatus::Cancelled);
        let outcome = first.poll().expect("cancel resolves the handle");
        assert_eq!(outcome.unwrap_err().kind, JobErrorKind::Cancelled);
        // The slot freed: the next submission is admitted.
        let second = service.submit(session, smoke_job()).unwrap();
        assert_eq!(service.session(session).unwrap().in_flight(), 1);
        assert_eq!(service.session(session).unwrap().meter().jobs_cancelled, 1);
        assert_eq!(second.status(), JobStatus::Queued);
        // A cancelled job never reaches the results buffer.
        assert!(service.drain().is_empty());
    }

    #[test]
    fn completion_stream_delivers_in_submission_order() {
        let service = KernelService::new(ServiceConfig::default().with_workers(3));
        let session = service.open_session(SessionSpec::tenant("t"));
        let stream = service.completion_stream(session).unwrap();
        assert_eq!(stream.session(), session);
        assert_eq!(service.completion_stream(999).unwrap_err(), SubmitError::UnknownSession(999));

        let handles = service
            .submit_batch(session, vec![smoke_job(), smoke_job(), smoke_job(), smoke_job()])
            .unwrap();
        let mut delivered = Vec::new();
        for _ in 0..handles.len() {
            let outcome = stream.next().expect("stream owes four outcomes");
            delivered.push(outcome.expect("jobs ran").job);
        }
        let expected: Vec<JobId> = handles.iter().map(JobHandle::id).collect();
        assert_eq!(delivered, expected, "in submission order despite 3 racing workers");
        assert!(stream.next().is_none(), "nothing further owed");
        assert!(stream.try_next().is_none());
        assert_eq!(stream.pending(), 0);
    }

    #[test]
    fn completion_stream_is_an_iterator_and_covers_cancels() {
        let service = KernelService::new(admission_only().with_quota(10));
        let session = service.open_session(SessionSpec::tenant("t"));
        let stream = service.completion_stream(session).unwrap();
        let a = service.submit(session, smoke_job()).unwrap();
        let b = service.submit(session, smoke_job()).unwrap();
        // Cancel the *second* job: the stream must not deliver it before the
        // first (order is submission order, holes are filled with errors).
        assert!(b.cancel());
        assert!(stream.try_next().is_none(), "job A unresolved, B's error waits its turn");
        assert!(a.cancel());
        let outcomes: Vec<_> = stream.collect();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].as_ref().unwrap_err().job, a.id());
        assert_eq!(outcomes[1].as_ref().unwrap_err().job, b.id());
    }

    #[test]
    fn detached_streams_do_not_accumulate_outcomes() {
        let service = KernelService::new(ServiceConfig::default().with_workers(1));
        let session = service.open_session(SessionSpec::tenant("t"));
        // Attach, then drop the only consumer: the stream detaches and jobs
        // submitted meanwhile must not buffer anywhere.
        drop(service.completion_stream(session).unwrap());
        service.submit(session, smoke_job()).unwrap().wait().unwrap();

        // Re-attach: nothing is owed from the detached period...
        let stream = service.completion_stream(session).unwrap();
        assert_eq!(stream.pending(), 0, "detached-period jobs are not owed");
        assert!(stream.try_next().is_none());
        // ...but delivery resumes for jobs submitted from here on.
        let handle = service.submit(session, smoke_job()).unwrap();
        let outcome = stream.next().expect("owed after re-attach").expect("job ran");
        assert_eq!(outcome.job, handle.id());
        assert!(stream.next().is_none());
    }

    #[test]
    fn zero_queue_bound_is_normalized() {
        // A directly-constructed config bypasses the builder clamps; the
        // service must normalize it rather than livelock every admission —
        // or, for a cache without a shard or with fewer entries than shards,
        // panic while it starts.
        for (cache_shards, cache_capacity) in [(8, 64), (0, 64), (0, 0), (8, 3)] {
            let config = ServiceConfig {
                max_queued_jobs: 0,
                workers: 1,
                cache_shards,
                cache_capacity,
                ..ServiceConfig::default()
            };
            let service = KernelService::new(config);
            let session = service.open_session(SessionSpec::tenant("t"));
            assert_eq!(service.admission_stats().queue_limit, 1);
            service.submit(session, smoke_job()).unwrap().wait().unwrap();
            assert_eq!(service.cache_stats().entries, 1, "{cache_shards} x {cache_capacity}");
        }
        let built = ServiceConfig::default().with_cache(0, 0);
        assert_eq!((built.cache_shards, built.cache_capacity), (1, 1));
        let built = ServiceConfig::default().with_cache(8, 3);
        assert_eq!((built.cache_shards, built.cache_capacity), (8, 8));
    }

    #[test]
    fn invalid_jobs_are_rejected_at_admission() {
        let service = KernelService::new(ServiceConfig::default().with_workers(1));
        let session = service.open_session(SessionSpec::tenant("t"));

        let missing_params =
            JobSpec::new(StencilProgram::jacobi_5pt(), vec![0.5], RegionSize::square(16));
        let err = service.submit(session, missing_params).unwrap_err();
        assert!(matches!(err, SubmitError::InvalidJob(ref m) if m.contains("parameters")), "{err}");
        assert!(!err.is_backpressure());

        let zero_block = smoke_job().with_block(0);
        assert!(matches!(
            service.submit(session, zero_block),
            Err(SubmitError::InvalidJob(ref m)) if m.contains("block")
        ));

        let bad_policy = smoke_job().with_policy(SchedulePolicy::Weighted(vec![]));
        assert!(matches!(
            service.submit(session, bad_policy),
            Err(SubmitError::InvalidJob(ref m)) if m.contains("at least one processor")
        ));

        // A program the execute path would answer with the stock sweep.
        let wide = aohpc_kernel::ParticleProgram::new(
            "wide",
            aohpc_kernel::PairLaw::QuadraticDropoff,
            2,
            2,
        );
        let mut unsupported = JobSpec::particle(Scale::Smoke);
        unsupported.program = wide.unwrap().into();
        assert!(matches!(
            service.submit(session, unsupported),
            Err(SubmitError::InvalidJob(ref m)) if m.contains("wide cannot run as written")
        ));

        assert_eq!(service.session(session).unwrap().meter().jobs_rejected, 4);
        assert!(service.drain().is_empty(), "nothing malformed reached the queue");
    }

    #[test]
    fn worker_scratch_is_pooled_across_jobs() {
        // One worker runs three jobs back to back: the first creates the
        // scratch, the later two reuse it warm.
        let service = KernelService::new(ServiceConfig::default().with_workers(1));
        let session = service.open_session(SessionSpec::tenant("t"));
        for _ in 0..3 {
            service.submit(session, smoke_job()).unwrap();
        }
        let reports = service.drain();
        assert_eq!(reports.len(), 3);
        let stats = service.inner.scratch.stats();
        assert_eq!(stats.created, 1, "one worker grows exactly one scratch: {stats:?}");
        assert_eq!(stats.reused, 2, "later jobs run on warm buffers: {stats:?}");
        assert_eq!(stats.idle, 1, "the scratch is parked between jobs: {stats:?}");
    }

    #[test]
    fn child_sessions_link_to_their_parent() {
        let service = KernelService::new(ServiceConfig::default().with_workers(1));
        let parent = service.open_session(SessionSpec::tenant("proj"));
        let child =
            service.open_child_session(parent, SessionSpec::tenant("proj/sweep-1")).unwrap();
        assert_eq!(service.session(child).unwrap().parent(), Some(parent));
        assert_eq!(service.session(parent).unwrap().parent(), None);
        assert_eq!(
            service.open_child_session(12345, SessionSpec::tenant("x")).unwrap_err(),
            SubmitError::UnknownSession(12345),
        );
        // Child accounting is separate from the parent's.
        service.submit(child, smoke_job()).unwrap();
        service.drain();
        assert_eq!(service.session(child).unwrap().meter().jobs_completed, 1);
        assert_eq!(service.session(parent).unwrap().meter().jobs_completed, 0);
    }

    #[test]
    fn parallel_topology_jobs_run_under_aspects() {
        let service = KernelService::new(ServiceConfig::default().with_workers(2));
        let session = service.open_session(SessionSpec::tenant("hybrid"));
        let serial = smoke_job();
        let hybrid = smoke_job().with_topology(Topology::hybrid(2, 2));
        service.submit(session, serial).unwrap();
        let hybrid_handle = service.submit(session, hybrid).unwrap();
        let reports = service.drain();
        assert_eq!(reports.len(), 2);
        // The fields are identical cell-for-cell; the checksum accumulates in
        // sink order (which differs across topologies), so compare with a
        // float-summation tolerance.
        let (a, b) = (reports[0].checksum, reports[1].checksum);
        assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "topology changed results: {a} vs {b}");
        assert_eq!(reports[1].summary.tasks, 4);
        assert!(reports[1].summary.pages_sent > 0, "ranks exchanged halo pages");
        // Progress saw all four tasks of the hybrid run finish.
        assert_eq!(hybrid_handle.progress().tasks_finished, 4);
    }

    #[test]
    fn multi_rank_checksums_repeat_bit_for_bit() {
        // Ranks finalize in rank order, so the two ranks' halves of the field
        // are folded in global block order however their threads are
        // scheduled: every repeat gives one bit pattern — the serial one.
        let service = KernelService::new(ServiceConfig::default().with_workers(2));
        let session = service.open_session(SessionSpec::tenant("mpi"));
        service.submit(session, smoke_job()).unwrap();
        for _ in 0..20 {
            service.submit(session, smoke_job().with_topology(Topology::hybrid(2, 1))).unwrap();
        }
        let reports = service.drain();
        assert_eq!(reports.len(), 21);
        let serial = reports[0].checksum.to_bits();
        for report in &reports[1..] {
            assert!(report.error.is_none(), "job {} failed: {:?}", report.job, report.error);
            assert_eq!(report.summary.tasks, 2);
            assert_eq!(report.checksum.to_bits(), serial, "job {}", report.job);
        }
    }

    #[test]
    fn a_run_that_stops_short_of_its_steps_resolves_as_an_error() {
        // Two ranks compiled directly: nothing dispatches, so the layer
        // aspects never run, rank 0 works alone and its refresh can never
        // fetch rank 1's halo pages — every step exhausts its retries.
        let service =
            KernelService::with_observer(ServiceConfig::default().with_workers(1), ObsHub::new());
        let session = service.open_session(SessionSpec::tenant("t"));
        let stalled = smoke_job()
            .with_topology(Topology::hybrid(2, 1))
            .with_weave_mode(aohpc_runtime::WeaveMode::Direct);
        let report = service.submit(session, stalled).unwrap().wait().expect("the job resolves");
        let error = report.error.as_deref().expect("a short run is a failure");
        let steps = smoke_job().steps;
        assert!(error.starts_with(&format!("completed 0 of {steps} steps")), "{error}");
        assert!(report.checksum.is_nan(), "no checksum for a field that was never computed");
        assert_eq!(report.summary.steps, 0);
        assert!(report.summary.retries > MAX_RETRIES_PER_STEP);
        let jobs = service.obs_snapshot().expect("observer installed").jobs;
        assert_eq!((jobs.completed, jobs.failed), (0, 1), "metered as failed");
        assert_eq!(service.session(session).unwrap().in_flight(), 0, "bookkeeping still settles");
    }

    #[test]
    fn drain_session_takes_only_that_sessions_reports() {
        let service = KernelService::new(ServiceConfig::default().with_workers(2));
        let a = service.open_session(SessionSpec::tenant("a"));
        let b = service.open_session(SessionSpec::tenant("b"));
        service.submit_batch(a, vec![smoke_job(), smoke_job()]).unwrap();
        service.submit(b, smoke_job()).unwrap();

        let a_reports = service.drain_session(a);
        assert_eq!(a_reports.len(), 2);
        assert!(a_reports.iter().all(|r| r.session == a && r.tenant == "a"));

        // B's results were not consumed by A's drain.
        let b_reports = service.drain_session(b);
        assert_eq!(b_reports.len(), 1);
        assert_eq!(b_reports[0].session, b);

        // Nothing left for the global drain; unknown sessions return empty.
        assert!(service.drain().is_empty());
        assert!(service.drain_session(999).is_empty());
    }

    #[test]
    fn batch_errors_carry_the_accepted_prefix() {
        // Admission-only mode keeps in-flight counts pinned, so the quota
        // trips deterministically mid-batch (the zero admission timeout
        // makes the blocking `submit` inside the batch fail fast).
        let service = KernelService::new(admission_only().with_quota(2));
        let session = service.open_session(SessionSpec::tenant("t"));
        let err = service
            .submit_batch(session, vec![smoke_job(), smoke_job(), smoke_job(), smoke_job()])
            .unwrap_err();
        assert_eq!(err.accepted, vec![1, 2], "the accepted prefix is reported");
        assert_eq!(err.index, 2, "the failing spec's position is reported");
        assert_eq!(err.error, SubmitError::WouldBlock { session, limit: 2 });
        assert!(err.to_string().contains("after accepting 2 jobs"));
        // With no workers, queued jobs can never finish — drain must not hang.
        assert!(service.drain().is_empty());
    }

    #[test]
    fn small_regions_prewarm_the_clipped_plan() {
        // Region smaller than the block: the tiling clips the single tile to
        // 4x4, and the admission pre-warm must key on that same shape — one
        // compile total, no dead 8x8 entry.
        let service = KernelService::new(ServiceConfig::default().with_workers(1));
        let session = service.open_session(SessionSpec::tenant("t"));
        let tiny =
            JobSpec::new(StencilProgram::jacobi_5pt(), vec![0.5, 0.125], RegionSize::square(4))
                .with_block(8)
                .with_steps(2);
        service.submit(session, tiny.clone()).unwrap();
        service.submit(session, tiny).unwrap();
        let reports = service.drain();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.error.is_none()));
        let stats = service.cache_stats();
        assert_eq!(stats.misses, 1, "exactly one plan compiled: {stats:?}");
        assert_eq!(stats.entries, 1, "no dead full-block entry: {stats:?}");
        assert!(!reports[0].plan_cache_hit);
        assert!(reports[1].plan_cache_hit);
    }

    #[test]
    fn shutdown_with_a_backlog_abandons_and_resolves_queued_jobs() {
        // One worker, a deep queue: shutdown must not execute the backlog
        // (each job takes ~ms; a hung Drop would blow the test timeout), and
        // every abandoned job's handle must still resolve.
        let service = KernelService::new(ServiceConfig::default().with_workers(1).with_quota(1000));
        let session = service.open_session(SessionSpec::tenant("t"));
        let handles: Vec<JobHandle> =
            (0..64).map(|_| service.submit(session, smoke_job()).unwrap()).collect();
        service.shutdown();
        let mut completed = 0;
        let mut abandoned = 0;
        for handle in &handles {
            match handle.poll().expect("every job resolves at shutdown") {
                Ok(report) => {
                    assert!(report.error.is_none());
                    completed += 1;
                }
                Err(e) => {
                    assert_eq!(e.kind, JobErrorKind::Abandoned);
                    abandoned += 1;
                }
            }
        }
        assert_eq!(completed + abandoned, 64);
        assert!(abandoned > 0, "a 64-deep backlog cannot all have run before shutdown");
    }

    /// What a waker on a job's handle reads at the moment the handle
    /// resolves: `(in_flight, jobs_completed)` of its session, its status,
    /// and whether the session's stream already holds its outcome.
    struct ExitProbe {
        inner: Arc<Inner>,
        handle: JobHandle,
        stream: CompletionStream,
        seen: StdMutex<Option<(usize, u64, JobStatus, bool)>>,
    }

    impl std::task::Wake for ExitProbe {
        fn wake(self: Arc<Self>) {
            let ctx = self.inner.sessions.lock().get(&self.handle.session()).cloned().unwrap();
            let streamed = self.stream.try_next().map(|outcome| outcome.is_ok());
            *self.seen.lock().unwrap() = Some((
                ctx.in_flight(),
                ctx.meter().jobs_completed,
                self.handle.status(),
                streamed == Some(self.handle.poll().expect("resolved").is_ok()),
            ));
        }
    }

    #[test]
    fn every_exit_settles_before_its_handle_wakes() {
        // The exits `tests/settlement.rs` cannot reach from outside the
        // crate, each on an admission-only service with the probe on the
        // handle first; the test thread plays the worker and the supervisor.
        struct PanickingFetcher;
        impl crate::cache::PlanFetcher for PanickingFetcher {
            fn fetch(
                &self,
                _: &crate::cache::PlanKey,
                _: &aohpc_kernel::FamilyProgram,
            ) -> crate::cache::FetchOutcome {
                panic!("the fetcher is down")
            }
        }
        type Exit = fn(KernelService, &JobHandle);
        let routes: [(&str, Exit, JobStatus, u64); 5] = [
            (
                "kill without a sink",
                |service, _| service.kill_for_failover(),
                JobStatus::Abandoned,
                0,
            ),
            (
                "kill, the sink hands the orphan back",
                |service, _| {
                    service.install_orphan_sink(Arc::new(Err));
                    service.kill_for_failover();
                },
                JobStatus::Abandoned,
                0,
            ),
            (
                "kill, replayed on a survivor",
                |service, handle| {
                    // A sink that keeps the orphan, as the supervisor's intake does.
                    let kept = Arc::new(StdMutex::new(None));
                    let intake = Arc::clone(&kept);
                    service.install_orphan_sink(Arc::new(move |orphan| {
                        *intake.lock().unwrap() = Some(orphan);
                        Ok(())
                    }));
                    service.kill_for_failover();
                    // Handed off: this node's books are released, the handle
                    // is still open.
                    let ctx = service.session(handle.session()).unwrap();
                    assert_eq!((ctx.in_flight(), *service.inner.pending.lock().unwrap()), (0, 0));
                    assert!(!handle.is_complete());
                    let orphan = kept.lock().unwrap().take().expect("the orphan reached the sink");
                    let survivor = KernelService::new(ServiceConfig::default().with_workers(1));
                    let session = survivor.open_session(SessionSpec::tenant("cluster-failover"));
                    let replayed = survivor.submit(session, orphan.spec.clone()).unwrap().wait();
                    service.resolve_orphan(&orphan.cell, replayed);
                },
                JobStatus::Completed,
                0,
            ),
            ("shutdown with a backlog", |service, _| service.shutdown(), JobStatus::Abandoned, 0),
            (
                "a job that panics",
                |service, _| {
                    let queued = service.queue_rx.try_recv().expect("the job is queued");
                    dequeued(&service.inner, queued);
                },
                JobStatus::Completed,
                1,
            ),
        ];
        for (name, exit, status, completed) in routes {
            let cache = PlanCache::new(1, 4).with_fetcher(Arc::new(PanickingFetcher));
            let service = KernelService::start(
                admission_only().with_quota(1),
                ServiceClock::real(),
                Some(Arc::new(cache)),
                None,
            );
            let session = service.open_session(SessionSpec::tenant("t"));
            let stream = service.completion_stream(session).unwrap();
            let mut handle = service.submit(session, smoke_job()).unwrap();
            let probe = Arc::new(ExitProbe {
                inner: Arc::clone(&service.inner),
                handle: handle.clone(),
                stream,
                seen: StdMutex::new(None),
            });
            let waker = std::task::Waker::from(Arc::clone(&probe));
            let mut cx = std::task::Context::from_waker(&waker);
            assert!(
                std::future::Future::poll(std::pin::Pin::new(&mut handle), &mut cx).is_pending()
            );

            exit(service, &handle);

            let seen = probe.seen.lock().unwrap().take();
            assert_eq!(seen, Some((0, completed, status, true)), "{name}");
            // Only the job that ran here (and is metered as completed) has a
            // report with an error: the panic's message.
            let error = handle.poll().unwrap().ok().and_then(|report| report.error);
            assert_eq!(error.as_deref(), (completed == 1).then_some("the fetcher is down"));
        }
    }

    #[test]
    fn zero_worker_shutdown_resolves_every_queued_handle() {
        let service = KernelService::new(admission_only().with_quota(8));
        let session = service.open_session(SessionSpec::tenant("t"));
        let handles: Vec<JobHandle> =
            (0..4).map(|_| service.submit(session, smoke_job()).unwrap()).collect();
        assert!(handles.iter().all(|h| !h.is_complete()));
        drop(service);
        for handle in &handles {
            assert_eq!(
                handle.poll().expect("resolved by Drop").unwrap_err().kind,
                JobErrorKind::Abandoned
            );
        }
    }

    #[test]
    fn report_retention_can_be_disabled() {
        let service = KernelService::new(
            ServiceConfig::default().with_workers(1).with_report_retention(false),
        );
        let session = service.open_session(SessionSpec::tenant("t"));
        let handle = service.submit(session, smoke_job()).unwrap();
        let report = handle.wait().expect("handles still resolve");
        assert!(report.error.is_none());
        assert!(service.drain().is_empty(), "nothing retained for the sync path");
        assert_eq!(service.session(session).unwrap().meter().jobs_completed, 1);
    }

    #[test]
    fn drain_on_idle_service_returns_immediately() {
        let service = KernelService::new(ServiceConfig::default().with_workers(1));
        assert!(service.drain().is_empty());
        assert!(SubmitError::InvalidJob("x".into()).to_string().contains("invalid job"));
        assert!(SubmitError::UnknownSession(1).to_string().contains("unknown"));
        assert!(SubmitError::WouldBlock { session: 1, limit: 2 }.to_string().contains("quota"));
        assert!(SubmitError::QueueFull { limit: 2 }.to_string().contains("full"));
        assert!(SubmitError::ShuttingDown.to_string().contains("shutting down"));
    }
}
