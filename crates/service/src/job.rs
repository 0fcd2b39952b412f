//! Job descriptions, results and the asynchronous job lifecycle.
//!
//! A [`JobSpec`] is everything one submission needs: the program, its runtime
//! parameters, the region to sweep, how it is blocked, how many steps to run,
//! and the execution knobs the one-shot harnesses already understand
//! ([`Topology`], [`WeaveMode`], [`OptLevel`]).  A [`JobReport`] is the
//! compact result the service hands back per job.
//!
//! Submission returns a [`JobHandle`] — a poll/wait future backed by a
//! shared [`CompletionSlot`].  Every accepted job **resolves exactly once**
//! with a [`JobOutcome`]: `Ok(JobReport)` when it executed (even if the
//! kernel panicked or the run stopped short of its steps — the report carries
//! the error), or `Err(JobError)` when
//! it was [cancelled](JobHandle::cancel) before a worker picked it up or
//! abandoned at shutdown.  The handle can be polled ([`JobHandle::poll`]),
//! blocked on ([`JobHandle::wait`] / [`JobHandle::wait_timeout`]), awaited
//! (it implements [`Future`]), or dropped — dropping never leaks the
//! worker slot, the outcome still settles all accounting.

use crate::service::Settlement;
use crate::session::SessionId;
use aohpc_dsl::particle::BUCKETS_PER_BLOCK_SIDE;
use aohpc_dsl::ParticleSystem;
use aohpc_kernel::{
    FamilyProgram, OptLevel, ParticleProgram, ProgramFingerprint, SpecializationId, StencilProgram,
    UsGridProgram,
};
use aohpc_runtime::{CompletionSlot, Progress, ProgressNotifier, RunSummary, Topology, WeaveMode};
use aohpc_workloads::{ParticleSize, RegionSize, Scale};
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll};
use std::time::Duration;

/// Identifier of a job within one [`KernelService`](crate::KernelService).
pub type JobId = u64;

/// Why a [`JobSpec`] is malformed — detected by [`JobSpec::validate`] at
/// build/admission time instead of a downstream panic inside a worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpecError {
    /// `with_block(0)`: a zero block side cannot tile any region.
    ZeroBlock,
    /// `with_steps(0)`: a zero-step job would sweep nothing.
    ZeroSteps,
    /// The region has a zero side.
    EmptyRegion,
    /// Fewer parameters than the program declares (including an empty
    /// `params` vector for a program that needs any).
    MissingParams {
        /// The submitted program's name.
        program: String,
        /// How many parameters it declares.
        declared: usize,
        /// How many were given.
        given: usize,
    },
    /// The program or the job's shape asks for structure the execute path
    /// does not run as written: it would run the stock sweep in its place
    /// and report that sweep's answer under this program's fingerprint.
    UnsupportedProgram {
        /// The submitted program's name.
        program: String,
        /// What the execute path cannot honour.
        reason: &'static str,
    },
}

impl fmt::Display for JobSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobSpecError::ZeroBlock => write!(f, "block side length must be non-zero"),
            JobSpecError::ZeroSteps => write!(f, "step count must be non-zero"),
            JobSpecError::EmptyRegion => write!(f, "region must be non-empty"),
            JobSpecError::MissingParams { program, declared, given } => {
                write!(f, "program {program} declares {declared} parameters, {given} given")
            }
            JobSpecError::UnsupportedProgram { program, reason } => {
                write!(f, "program {program} cannot run as written: {reason}")
            }
        }
    }
}

impl std::error::Error for JobSpecError {}

/// One unit of work a tenant submits.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The subkernel to execute — any [`FamilyProgram`] (stencil, particle,
    /// unstructured-grid).  Constructors take `impl Into<FamilyProgram>`, so
    /// existing `JobSpec::new(StencilProgram, ..)` call sites compile
    /// unchanged.
    pub program: FamilyProgram,
    /// Runtime parameters (must cover `program.num_params()`).
    pub params: Vec<f64>,
    /// Region the job sweeps: grid cells for stencil/usgrid jobs, the
    /// neighbour-bucket grid for particle jobs.
    pub region: RegionSize,
    /// Block side length the region is partitioned into.
    pub block: usize,
    /// Time steps to run.
    pub steps: usize,
    /// Particle count for particle-family jobs (`None` uses a fill-derived
    /// default; ignored by the other families).
    pub particles: Option<usize>,
    /// Optimization level for the compiled plan.
    pub opt_level: OptLevel,
    /// Parallel topology of the run.
    pub topology: Topology,
    /// Whether join points dispatch through the weaver.
    pub weave_mode: WeaveMode,
}

impl JobSpec {
    /// A serial, fully-optimized job over `region` (block 8, one step).
    pub fn new(program: impl Into<FamilyProgram>, params: Vec<f64>, region: RegionSize) -> Self {
        JobSpec {
            program: program.into(),
            params,
            region,
            block: 8,
            steps: 1,
            particles: None,
            opt_level: OptLevel::Full,
            topology: Topology::serial(),
            weave_mode: WeaveMode::Woven,
        }
    }

    /// The stock 5-point Jacobi job sized for a [`Scale`].
    pub fn jacobi(scale: Scale) -> Self {
        JobSpec::new(StencilProgram::jacobi_5pt(), vec![0.5, 0.125], scale.service_region())
            .with_block(scale.service_block_size())
            .with_steps(scale.service_steps())
    }

    /// The stock 9-point smoothing job sized for a [`Scale`].
    pub fn smooth(scale: Scale) -> Self {
        JobSpec::new(StencilProgram::smooth_9pt(), vec![0.6, 0.05], scale.service_region())
            .with_block(scale.service_block_size())
            .with_steps(scale.service_steps())
    }

    /// The stock bucketed pair-sweep particle job sized for a [`Scale`]
    /// (params: cutoff radius, dt).  The region is the same bucket grid
    /// `ParticleSystem::paper` derives for the count, so service runs match
    /// the direct DSL path bit-for-bit.
    pub fn particle(scale: Scale) -> Self {
        let count = scale.scaling_particles();
        let system = ParticleSystem::paper(count);
        let region = RegionSize { nx: system.buckets_x, ny: system.buckets_y };
        JobSpec::new(ParticleProgram::pair_sweep(), vec![1.0, 1e-3], region)
            .with_block(8)
            .with_steps(scale.service_steps())
            .with_particles(count.count)
    }

    /// The stock 4-neighbour unstructured-grid sweep sized for a [`Scale`]
    /// (params: alpha, beta — the paper's Jacobi weights).
    pub fn usgrid(scale: Scale) -> Self {
        JobSpec::new(UsGridProgram::jacobi4(), vec![0.5, 0.125], scale.service_region())
            .with_block(scale.service_block_size())
            .with_steps(scale.service_steps())
    }

    /// Check the spec is well-formed (the typed admission gate; the service
    /// wraps failures in [`SubmitError::InvalidJob`](crate::SubmitError)).
    pub fn validate(&self) -> Result<(), JobSpecError> {
        if self.params.len() < self.program.num_params() {
            return Err(JobSpecError::MissingParams {
                program: self.program.name().to_string(),
                declared: self.program.num_params(),
                given: self.params.len(),
            });
        }
        if self.block == 0 {
            return Err(JobSpecError::ZeroBlock);
        }
        if self.steps == 0 {
            return Err(JobSpecError::ZeroSteps);
        }
        if self.region.nx == 0 || self.region.ny == 0 {
            return Err(JobSpecError::EmptyRegion);
        }
        // The particle sweep reads the 3x3 buckets of the grid the count
        // derives: until the family's program is lowered to what executes,
        // anything else is refused here rather than answered with the stock
        // sweep.  (A usgrid program is lowered: it runs as its own stencil,
        // and every valid one lowers.)
        let reason = match &self.program {
            FamilyProgram::Stencil(_) | FamilyProgram::UsGrid(_) => None,
            FamilyProgram::Particle(p) if p.neighbor_reach() != 1 => {
                Some("the particle sweep reads the 3x3 bucket neighbourhood (reach 1)")
            }
            FamilyProgram::Particle(_) => {
                let grid = ParticleSystem::paper(ParticleSize::new(self.particle_count()));
                ((self.region.nx, self.region.ny) != (grid.buckets_x, grid.buckets_y)
                    || self.block != BUCKETS_PER_BLOCK_SIDE)
                    .then_some("region and block must be the bucket grid of the particle count")
            }
        };
        match reason {
            Some(reason) => Err(JobSpecError::UnsupportedProgram {
                program: self.program.name().to_string(),
                reason,
            }),
            None => Ok(()),
        }
    }

    /// Particles a particle-family job places: the given count, else the
    /// paper's half-full buckets over the region.
    pub(crate) fn particle_count(&self) -> usize {
        self.particles.unwrap_or(self.region.cells() * 8)
    }

    /// Set the block side length.
    pub fn with_block(mut self, block: usize) -> Self {
        self.block = block;
        self
    }

    /// Set the particle count (particle-family jobs).
    pub fn with_particles(mut self, particles: usize) -> Self {
        self.particles = Some(particles);
        self
    }

    /// Set the step count.
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Set the optimization level.
    pub fn with_opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// Set the parallel topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Set the weave mode.
    pub fn with_weave_mode(mut self, mode: WeaveMode) -> Self {
        self.weave_mode = mode;
        self
    }
}

/// How a job that survived a node death was recovered — attached to its
/// [`JobReport`] so failover is auditable per job, not just in aggregate.
///
/// The deterministic execution stack (compiled tape + simulated fabric) makes
/// the replay **bit-identical**: the job restarts from step 0 on the target
/// node and produces the same checksum a healthy run would have, which the
/// fault-injection tests assert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverProvenance {
    /// The rank the job was originally admitted on (the node that died).
    pub from_node: usize,
    /// The surviving rank the job was replayed on.
    pub to_node: usize,
    /// The job id the dead node assigned at original admission (`job` in the
    /// report is the replay id on the target node).
    pub original_job: JobId,
    /// Kernel steps the dead node had completed when it was killed (the
    /// checkpoint watermark; replay re-runs from step 0 — the watermark
    /// records how much progress the failure discarded).
    pub checkpoint_steps: u64,
}

/// The result of one completed job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job id (submission order within the service).
    pub job: JobId,
    /// Session the job ran under.
    pub session: SessionId,
    /// Tenant label of that session.
    pub tenant: String,
    /// Program name (the submitter's label).
    pub program: String,
    /// Structural fingerprint the plan cache keyed on.
    pub fingerprint: ProgramFingerprint,
    /// Whether the job's primary plan was already cached when a worker began
    /// executing it (a job queued behind one that compiles the same plan
    /// reports a hit even if the plan was absent at submission time).
    /// Meaningless when `error` is set and the failure preceded plan
    /// resolution — only count hit rates over reports with `error: None`.
    pub plan_cache_hit: bool,
    /// Checksum of the final field, accumulated in sink order.  Ranks
    /// finalize in rank order and rank `r` deposits the `r`-th contiguous
    /// Z-order range of blocks, so the sink is in global block order whatever
    /// the topology and however the rank threads are scheduled: repeats of
    /// one spec agree bit-for-bit, on multi-rank topologies too, and with
    /// the serial run of the same spec.  NaN when `error` is set.
    pub checksum: f64,
    /// Deterministic simulated execution time of the run: the cost model
    /// over the run's counters, so `steps` sweeps' worth for a single-rank
    /// job and `steps + 1` (the warm-up sweep) for a multi-rank one.
    pub simulated_seconds: f64,
    /// Digest of the underlying run (its counters cover the sweeps the run
    /// made — see [`RunSummary`]).
    pub summary: RunSummary,
    /// Why the job failed, if it did (bookkeeping still settles): the panic
    /// message, or `completed k of n steps …` when the slowest task gave up
    /// re-executing a step before the run reached [`JobSpec::steps`].
    pub error: Option<String>,
    /// The job's trace id in the installed flight recorder — every span of
    /// the job's tree (root, resolve, execute, initialize, supersteps,
    /// blocks, finalize) carries this id.  `None` when the service runs
    /// without an observer ([`KernelService::with_observer`](crate::KernelService)).
    pub trace_id: Option<u64>,
    /// How long the job sat admitted before a worker picked it up.
    pub queue_wait: Duration,
    /// The plan-resolution phase (the admission pre-warm lookup: cache hit
    /// or local compile).
    pub resolve_time: Duration,
    /// The execute phase (weave + run of the kernel itself).
    pub execute_time: Duration,
    /// Set when the job was orphaned by a dead node and replayed on a
    /// survivor; `None` for jobs that ran where they were admitted.
    pub failover: Option<FailoverProvenance>,
    /// The specialization tier the job's primary plan executed on:
    /// [`SpecializationId::Generic`] for the tape interpreter, a shape id
    /// (e.g. `weighted-sum/4pt/form7`) when the compiler instantiated a
    /// monomorphic super-instruction kernel.  A usgrid job's primary plan
    /// is its program lowered to a stencil; always `Generic` for particle
    /// jobs.
    pub specialization: SpecializationId,
}

/// Why a job resolved without a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobErrorKind {
    /// [`JobHandle::cancel`] won the race: the job was dequeued unexecuted.
    Cancelled,
    /// The service shut down with the job still queued.
    Abandoned,
}

/// The error half of a [`JobOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobError {
    /// The job that resolved without running.
    pub job: JobId,
    /// The session it was submitted under.
    pub session: SessionId,
    /// Why it never ran.
    pub kind: JobErrorKind,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            JobErrorKind::Cancelled => write!(f, "job {} was cancelled before execution", self.job),
            JobErrorKind::Abandoned => {
                write!(f, "job {} was abandoned at service shutdown", self.job)
            }
        }
    }
}

impl std::error::Error for JobError {}

/// How every accepted job resolves, exactly once: a report, or the reason it
/// never ran.
pub type JobOutcome = Result<JobReport, JobError>;

/// Where a job currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Resolved with a report.
    Completed,
    /// Resolved by [`JobHandle::cancel`].
    Cancelled,
    /// Resolved by service shutdown.
    Abandoned,
}

const STATE_QUEUED: u8 = 0;
const STATE_RUNNING: u8 = 1;
const STATE_COMPLETED: u8 = 2;
const STATE_CANCELLED: u8 = 3;
const STATE_ABANDONED: u8 = 4;

/// The shared per-job cell: lifecycle state, the one-shot completion slot,
/// and the live progress counters.  One `Arc` is carried by the queue
/// message, one by every [`JobHandle`] clone.
pub(crate) struct JobCell {
    pub(crate) job: JobId,
    pub(crate) session: SessionId,
    state: AtomicU8,
    pub(crate) slot: CompletionSlot<JobOutcome>,
    pub(crate) progress: Arc<ProgressNotifier>,
}

impl JobCell {
    pub(crate) fn new(job: JobId, session: SessionId) -> Arc<Self> {
        Arc::new(JobCell {
            job,
            session,
            state: AtomicU8::new(STATE_QUEUED),
            slot: CompletionSlot::new(),
            progress: ProgressNotifier::new(),
        })
    }

    /// Worker-side claim: `Queued -> Running`.  `false` means the job was
    /// cancelled first and must not execute.
    pub(crate) fn begin_running(&self) -> bool {
        self.state
            .compare_exchange(STATE_QUEUED, STATE_RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Cancel-side claim: `Queued -> Cancelled`.  `false` means a worker got
    /// there first (or the job already resolved).
    pub(crate) fn mark_cancelled(&self) -> bool {
        self.state
            .compare_exchange(STATE_QUEUED, STATE_CANCELLED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Shutdown-side claim: `Queued -> Abandoned`.
    pub(crate) fn mark_abandoned(&self) -> bool {
        self.state
            .compare_exchange(STATE_QUEUED, STATE_ABANDONED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Completion: `Running -> Completed` (no contention possible).
    pub(crate) fn mark_completed(&self) {
        self.state.store(STATE_COMPLETED, Ordering::Release);
    }

    /// The error this job resolves with when it leaves without running.
    pub(crate) fn error(&self, kind: JobErrorKind) -> JobError {
        JobError { job: self.job, session: self.session, kind }
    }

    pub(crate) fn status(&self) -> JobStatus {
        match self.state.load(Ordering::Acquire) {
            STATE_QUEUED => JobStatus::Queued,
            STATE_RUNNING => JobStatus::Running,
            STATE_COMPLETED => JobStatus::Completed,
            STATE_CANCELLED => JobStatus::Cancelled,
            _ => JobStatus::Abandoned,
        }
    }
}

/// A poll/wait future for one submitted job.
///
/// Returned by [`KernelService::submit`](crate::KernelService::submit) and
/// friends.  All clones observe the same [`JobOutcome`] through a shared
/// [`CompletionSlot`]; the handle can be freely dropped — resolution and
/// session accounting do not depend on it.
///
/// Synchronous callers use [`JobHandle::wait`] /
/// [`JobHandle::wait_timeout`]; pollers use [`JobHandle::poll`]; async
/// callers `.await` it (the slot stores the waker).  [`JobHandle::cancel`]
/// revokes a still-queued job, and [`JobHandle::progress`] samples the
/// runtime's live step counters while the job executes.
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) cell: Arc<JobCell>,
    pub(crate) service: Weak<crate::service::Inner>,
}

impl JobHandle {
    /// The job's id (submission order within the service).
    pub fn id(&self) -> JobId {
        self.cell.job
    }

    /// The session the job was submitted under.
    pub fn session(&self) -> SessionId {
        self.cell.session
    }

    /// Where the job currently is in its lifecycle.
    pub fn status(&self) -> JobStatus {
        self.cell.status()
    }

    /// Whether the job has resolved (report or error).
    pub fn is_complete(&self) -> bool {
        self.cell.slot.is_complete()
    }

    /// The outcome, if resolved (non-blocking).
    pub fn poll(&self) -> Option<JobOutcome> {
        self.cell.slot.poll()
    }

    /// Block until the job resolves.
    ///
    /// On an admission-only service (zero workers) a queued job only
    /// resolves at shutdown, so prefer [`JobHandle::wait_timeout`] when the
    /// worker pool may be empty.
    pub fn wait(&self) -> JobOutcome {
        self.cell.slot.wait()
    }

    /// Block until the job resolves or `timeout` elapses (`None`).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        self.cell.slot.wait_timeout(timeout)
    }

    /// Revoke the job if no worker has picked it up yet.
    ///
    /// `true` means the cancel won: the job will never execute and is settled
    /// here, in the one order every exit follows (see the
    /// [service module docs](crate::service)) — its **session quota slot** is
    /// released and metered, then the handle resolves with
    /// [`JobErrorKind::Cancelled`], so whoever the handle wakes can take the
    /// slot, as can submitters parked on `WouldBlock`.  The job's
    /// **bounded-queue slot** is different: the cancelled message stays in
    /// the channel as a tombstone until a worker dequeues and discards it, so
    /// submitters parked on `QueueFull` are unblocked by worker progress, not
    /// by the cancel itself (and never in admission-only mode, where no
    /// worker exists to drain tombstones).
    /// `false` means the job already runs or has resolved; it proceeds
    /// normally.
    pub fn cancel(&self) -> bool {
        if !self.cell.mark_cancelled() {
            return false;
        }
        let cancelled = Err(self.cell.error(JobErrorKind::Cancelled));
        if let Some(inner) = self.service.upgrade() {
            inner.settle(&self.cell, Settlement::Final(cancelled));
        } else {
            // The service is gone; just resolve the slot so waiters return.
            self.cell.slot.complete(cancelled);
        }
        true
    }

    /// Live progress of the executing job (completed kernel steps across its
    /// tasks, finished tasks).  Always a valid lower bound; zeros before a
    /// worker starts the job.
    pub fn progress(&self) -> Progress {
        self.cell.progress.snapshot()
    }
}

impl Future for JobHandle {
    type Output = JobOutcome;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<JobOutcome> {
        match self.cell.slot.poll_with_waker(cx.waker()) {
            Some(outcome) => Poll::Ready(outcome),
            None => Poll::Pending,
        }
    }
}

impl fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("job", &self.cell.job)
            .field("session", &self.cell.session)
            .field("status", &self.cell.status())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aohpc_kernel::PairLaw;

    #[test]
    fn builders_override_defaults() {
        let spec =
            JobSpec::new(StencilProgram::jacobi_5pt(), vec![0.5, 0.125], RegionSize::square(32))
                .with_block(16)
                .with_steps(5)
                .with_opt_level(OptLevel::None)
                .with_topology(Topology::hybrid(2, 2))
                .with_weave_mode(WeaveMode::Direct);
        assert_eq!(spec.block, 16);
        assert_eq!(spec.steps, 5);
        assert_eq!(spec.opt_level, OptLevel::None);
        assert_eq!(spec.topology.total_tasks(), 4);
        assert_eq!(spec.weave_mode, WeaveMode::Direct);
    }

    #[test]
    fn scale_sized_stock_jobs() {
        for scale in [Scale::Smoke, Scale::Default, Scale::Paper] {
            for spec in [JobSpec::jacobi(scale), JobSpec::smooth(scale), JobSpec::usgrid(scale)] {
                assert_eq!(spec.region, scale.service_region());
                assert_eq!(spec.block, scale.service_block_size());
                assert_eq!(spec.steps, scale.service_steps());
                assert!(spec.params.len() >= spec.program.num_params());
                assert_eq!(spec.region.nx % spec.block, 0, "one block shape per job");
            }
        }
        assert_ne!(
            JobSpec::jacobi(Scale::Smoke).program.fingerprint(),
            JobSpec::smooth(Scale::Smoke).program.fingerprint(),
        );
    }

    #[test]
    fn stock_jobs_cover_every_family() {
        use aohpc_kernel::KernelFamilyId;
        let jacobi = JobSpec::jacobi(Scale::Smoke);
        let particle = JobSpec::particle(Scale::Smoke);
        let usgrid = JobSpec::usgrid(Scale::Smoke);
        assert_eq!(jacobi.program.family(), KernelFamilyId::Stencil);
        assert_eq!(particle.program.family(), KernelFamilyId::Particle);
        assert_eq!(usgrid.program.family(), KernelFamilyId::UsGrid);
        // The particle region is the bucket grid the DSL derives itself.
        let system = ParticleSystem::paper(Scale::Smoke.scaling_particles());
        assert_eq!(particle.region.nx, system.buckets_x);
        assert_eq!(particle.region.ny, system.buckets_y);
        assert_eq!(particle.particles, Some(Scale::Smoke.scaling_particles().count));
        for spec in [jacobi, particle, usgrid] {
            spec.validate().expect("stock jobs are well-formed");
        }
    }

    #[test]
    fn validate_rejects_malformed_specs_with_typed_errors() {
        let good = JobSpec::jacobi(Scale::Smoke);
        assert_eq!(good.clone().with_block(0).validate(), Err(JobSpecError::ZeroBlock));
        assert_eq!(good.clone().with_steps(0).validate(), Err(JobSpecError::ZeroSteps));
        let mut empty = good.clone();
        empty.region = RegionSize { nx: 0, ny: 8 };
        assert_eq!(empty.validate(), Err(JobSpecError::EmptyRegion));
        let mut starved = good;
        starved.params = Vec::new();
        match starved.validate() {
            Err(JobSpecError::MissingParams { declared, given, .. }) => {
                assert_eq!((declared, given), (2, 0));
            }
            other => panic!("expected MissingParams, got {other:?}"),
        }
        // A usgrid neighbour list runs as written, whatever it names.
        let usgrid = |name: &str, neighbors| {
            let program = UsGridProgram::new(name, neighbors, 2).expect("constructible");
            JobSpec::new(program, vec![0.5, 0.125], RegionSize::square(32))
                .with_block(16)
                .with_steps(3)
        };
        let wide = ParticleProgram::new("wide", PairLaw::QuadraticDropoff, 2, 2).unwrap();
        let mut wide_reach = JobSpec::particle(Scale::Smoke);
        wide_reach.program = wide.into();
        let pair_sweep = |side: usize, block: usize| {
            let region = RegionSize::square(side);
            JobSpec::new(ParticleProgram::pair_sweep(), vec![1.0, 1e-3], region)
                .with_block(block)
                .with_particles(1 << 10)
        };
        pair_sweep(16, 8).validate().expect("2^10 particles on their own 16x16 bucket grid");
        usgrid("south-only", vec![(0, 1)]).validate().expect("one neighbour");
        usgrid("far", vec![(8, 8), (-8, 0), (3, 3), (0, 0), (1, 1)]).validate().expect("any five");
        // Programs and shapes the execute path would answer with the stock
        // sweep: each ran to the stock checksum under its own fingerprint.
        for (spec, what) in [
            (wide_reach, "reach 1"),
            (pair_sweep(64, 8), "bucket grid"),
            (pair_sweep(16, 4), "bucket grid"),
        ] {
            match spec.validate() {
                Err(JobSpecError::UnsupportedProgram { program, reason }) => {
                    assert_eq!(program, spec.program.name());
                    assert!(reason.contains(what), "{program}: {reason}");
                }
                other => {
                    panic!("{}: expected UnsupportedProgram, got {other:?}", spec.program.name())
                }
            }
        }
        // Display keeps the substrings the admission tests (and users' error
        // matching) rely on.
        assert!(JobSpecError::ZeroBlock.to_string().contains("block"));
        assert!(JobSpecError::MissingParams { program: "p".into(), declared: 2, given: 0 }
            .to_string()
            .contains("parameters"));
    }
}
