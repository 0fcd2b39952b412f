//! Session contexts: the per-tenant execution state every submission flows
//! through.
//!
//! A [`SessionCtx`] is the service-layer analogue of the runtime's `TaskCtx`:
//! where a task context carries one task's view of one run, a session context
//! carries one tenant's view of the *service* — an environment/metadata
//! key-value store, accumulated metering, and an optional parent link so a
//! tenant can nest scoped child sessions (a sweep inside an experiment inside
//! a project) whose accounting stays separable.
//!
//! The module also hosts the session's asynchronous delivery surface: a
//! [`CompletionStream`] attached via
//! [`KernelService::completion_stream`](crate::KernelService::completion_stream)
//! receives every subsequently-submitted job's [`JobOutcome`] **in
//! submission order**, regardless of the order workers finish them: it
//! holds the handles of the jobs it owes and waits on the earliest.

use crate::job::{JobCell, JobOutcome};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Identifier of a session within one [`KernelService`](crate::KernelService).
pub type SessionId = u64;

/// What a session has consumed so far.
///
/// All figures are cumulative since `open_session`.  Simulated seconds come
/// from the runtime's deterministic [`CostModel`](aohpc_runtime::CostModel),
/// so metering is reproducible across hosts — the property that makes the
/// numbers usable for admission decisions and tests alike.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionMeter {
    /// Jobs accepted through `submit`.
    pub jobs_submitted: u64,
    /// Jobs whose report has been recorded.
    pub jobs_completed: u64,
    /// Submissions rejected at admission (unknown/closed session or a
    /// malformed spec — the fatal rejections).
    pub jobs_rejected: u64,
    /// Submissions that gave up under backpressure: `try_submit` at a full
    /// quota/queue, or a `submit_timeout` deadline expiring unadmitted.
    pub jobs_throttled: u64,
    /// Jobs revoked by [`JobHandle::cancel`](crate::JobHandle::cancel)
    /// before a worker picked them up.
    pub jobs_cancelled: u64,
    /// Jobs whose primary plan was already cached.
    pub plan_cache_hits: u64,
    /// Jobs whose primary plan had to be compiled.
    pub plan_cache_misses: u64,
    /// Cell updates (platform writes) executed on behalf of the session.
    pub cells_updated: u64,
    /// Deterministic simulated execution time consumed.
    pub simulated_seconds: f64,
}

/// What a caller supplies when opening a session: a tenant label plus
/// arbitrary environment / metadata key-value pairs.
#[derive(Debug, Clone, Default)]
pub struct SessionSpec {
    pub(crate) tenant: String,
    pub(crate) environment: HashMap<String, String>,
    pub(crate) metadata: HashMap<String, String>,
    pub(crate) pin_plans: bool,
}

impl SessionSpec {
    /// A spec for the given tenant.
    pub fn tenant(name: impl Into<String>) -> Self {
        SessionSpec { tenant: name.into(), ..Default::default() }
    }

    /// Add an environment entry.  Recorded on the session for callers to
    /// read back via [`SessionCtx::env`] (e.g. a data-source label shared by
    /// the client code that builds this session's jobs); the execution
    /// pipeline itself does not consult it.
    pub fn with_env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.environment.insert(key.into(), value.into());
        self
    }

    /// Add a metadata entry (opaque to the service; e.g. a priority label).
    pub fn with_metadata(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.metadata.insert(key.into(), value.into());
        self
    }

    /// Mark the session *hot*: every plan it resolves is pinned in the plan
    /// cache, so eviction pressure from other tenants' churn cannot flush
    /// this tenant's working set (pins are advisory — a shard whose entries
    /// are all pinned still evicts; see the cache module docs).
    pub fn pin_plans(mut self) -> Self {
        self.pin_plans = true;
        self
    }
}

/// One tenant's execution context.
///
/// Obtained as a point-in-time snapshot from
/// [`KernelService::session`](crate::KernelService::session); the service
/// owns the live copy.
#[derive(Debug, Clone)]
pub struct SessionCtx {
    id: SessionId,
    tenant: String,
    environment: HashMap<String, String>,
    metadata: HashMap<String, String>,
    parent: Option<SessionId>,
    active: bool,
    pin_plans: bool,
    in_flight: usize,
    meter: SessionMeter,
}

impl SessionCtx {
    pub(crate) fn create(id: SessionId, spec: SessionSpec, parent: Option<SessionId>) -> Self {
        SessionCtx {
            id,
            tenant: spec.tenant,
            environment: spec.environment,
            metadata: spec.metadata,
            parent,
            active: true,
            pin_plans: spec.pin_plans,
            in_flight: 0,
            meter: SessionMeter::default(),
        }
    }

    /// The session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The tenant label.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Look up an environment entry.
    pub fn env(&self, key: &str) -> Option<&str> {
        self.environment.get(key).map(String::as_str)
    }

    /// Look up a metadata entry.
    pub fn metadata(&self, key: &str) -> Option<&str> {
        self.metadata.get(key).map(String::as_str)
    }

    /// The parent session, if this one was opened as a child.
    pub fn parent(&self) -> Option<SessionId> {
        self.parent
    }

    /// Whether the session still accepts submissions.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Whether the session pins every plan it resolves (hot tenant; see
    /// [`SessionSpec::pin_plans`]).
    pub fn pins_plans(&self) -> bool {
        self.pin_plans
    }

    /// Jobs submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Accumulated metering.
    pub fn meter(&self) -> &SessionMeter {
        &self.meter
    }

    pub(crate) fn close(&mut self) {
        self.active = false;
    }

    pub(crate) fn meter_mut(&mut self) -> &mut SessionMeter {
        &mut self.meter
    }

    pub(crate) fn note_submitted(&mut self) {
        self.in_flight += 1;
        self.meter.jobs_submitted += 1;
    }

    pub(crate) fn note_rejected(&mut self) {
        self.meter.jobs_rejected += 1;
    }

    pub(crate) fn note_throttled(&mut self) {
        self.meter.jobs_throttled += 1;
    }

    /// A queued job revoked by `JobHandle::cancel`: releases the in-flight
    /// slot (unblocking backpressured submitters) without a completion.
    pub(crate) fn note_cancelled(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.meter.jobs_cancelled += 1;
    }

    pub(crate) fn note_completed(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.meter.jobs_completed += 1;
    }

    /// A queued job discarded at shutdown: releases the in-flight slot
    /// without counting a completion.
    pub(crate) fn note_abandoned(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
    }
}

// ---------------------------------------------------------------------------
// Completion streams
// ---------------------------------------------------------------------------

/// A session's owed jobs, shared between its [`CompletionStream`] handles
/// and admission.
///
/// The stream holds the cells of the jobs admitted while at least one
/// [`CompletionStream`] handle exists, in submission order, and reads each
/// outcome from the cell's own completion slot — the one the job's handle
/// resolves on.  When the last handle drops the cells are let go and
/// admission stops adding them, so an attached-then-abandoned stream cannot
/// accumulate jobs without bound.  Re-attaching owes the jobs submitted from
/// that point on.
pub(crate) struct StreamState {
    owed: Mutex<VecDeque<Arc<JobCell>>>,
    /// Live `CompletionStream` handles sharing this state.
    consumers: AtomicUsize,
}

impl StreamState {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(StreamState { owed: Mutex::new(VecDeque::new()), consumers: AtomicUsize::new(0) })
    }

    fn lock(&self) -> MutexGuard<'_, VecDeque<Arc<JobCell>>> {
        self.owed.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Admission-side: the stream owes the consumer this job's outcome.
    /// Called in submission order (under the service's session lock).  A
    /// no-op while no consumer is attached.
    pub(crate) fn expect(&self, cell: &Arc<JobCell>) {
        let mut owed = self.lock();
        // Checked under the lock: the last consumer's drop clears the queue
        // under this same lock, so either this push lands before the clear
        // (and is cleared) or the check sees zero consumers.
        if self.consumers.load(Ordering::SeqCst) > 0 {
            owed.push_back(Arc::clone(cell));
        }
    }

    /// Wait on the front cell with `wait` (the stream lock released) and
    /// deliver its outcome if the cell is still the front — another consumer
    /// may have taken it meanwhile, and then the next front is waited on.
    /// `None` when nothing is owed or `wait` gives up.
    fn next_with(&self, wait: impl Fn(&JobCell) -> Option<JobOutcome>) -> Option<JobOutcome> {
        loop {
            let front = Arc::clone(self.lock().front()?);
            let outcome = wait(&front)?;
            let mut owed = self.lock();
            if owed.front().is_some_and(|cell| Arc::ptr_eq(cell, &front)) {
                owed.pop_front();
                return Some(outcome);
            }
        }
    }
}

/// In-order delivery of one session's [`JobOutcome`]s.
///
/// Obtained from
/// [`KernelService::completion_stream`](crate::KernelService::completion_stream);
/// jobs submitted to the session **after** the stream is attached are
/// delivered here in submission order — the stream waits on the earliest
/// undelivered job's handle, so a job that finishes early is delivered once
/// every earlier job of the session has been.  Cancelled and abandoned jobs
/// are delivered too (as `Err`), so the stream never stalls on a hole.
///
/// Further `completion_stream` calls for the same session return handles
/// sharing one queue; each outcome goes to exactly one consumer.  The
/// stream is also a blocking [`Iterator`], ending (`None`) when no
/// undelivered job remains.
pub struct CompletionStream {
    session: SessionId,
    state: Arc<StreamState>,
}

impl CompletionStream {
    pub(crate) fn new(session: SessionId, state: Arc<StreamState>) -> Self {
        state.consumers.fetch_add(1, Ordering::SeqCst);
        CompletionStream { session, state }
    }

    /// The session this stream delivers for.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Jobs submitted-but-not-yet-delivered (including ones still running).
    pub fn pending(&self) -> usize {
        self.state.lock().len()
    }

    /// The next in-order outcome if it is already available (non-blocking).
    pub fn try_next(&self) -> Option<JobOutcome> {
        let mut owed = self.state.lock();
        let outcome = owed.front()?.slot.poll()?;
        owed.pop_front();
        Some(outcome)
    }

    /// Block until the next in-order outcome is available and return it.
    /// Returns `None` immediately when the stream owes nothing (no
    /// undelivered submission) — the natural end-of-batch signal.  Blocks
    /// for as long as the owed job is unresolved (e.g. queued on an
    /// admission-only service); [`CompletionStream::next_timeout`] bounds
    /// the wait.
    #[allow(clippy::should_implement_trait)] // the Iterator impl delegates here
    pub fn next(&self) -> Option<JobOutcome> {
        self.state.next_with(|cell| Some(cell.slot.wait()))
    }

    /// Like [`CompletionStream::next`], but gives up after `timeout` even if
    /// an undelivered job is still in flight.
    pub fn next_timeout(&self, timeout: Duration) -> Option<JobOutcome> {
        let deadline = Instant::now() + timeout;
        self.state.next_with(|cell| {
            cell.slot.wait_timeout(deadline.saturating_duration_since(Instant::now()))
        })
    }
}

impl Drop for CompletionStream {
    fn drop(&mut self) {
        if self.state.consumers.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last consumer gone: nobody can ever read the queue, so let its
            // cells go; admission adds none until a new stream attaches.
            self.state.lock().clear();
        }
    }
}

impl Iterator for CompletionStream {
    type Item = JobOutcome;

    fn next(&mut self) -> Option<JobOutcome> {
        CompletionStream::next(self)
    }
}

impl std::fmt::Debug for CompletionStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionStream")
            .field("session", &self.session)
            .field("pending", &self.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders_populate_the_context() {
        let spec = SessionSpec::tenant("acme")
            .with_env("data_source", "s3://bucket")
            .with_env("precision", "f64")
            .with_metadata("priority", "high");
        let ctx = SessionCtx::create(7, spec, Some(3));
        assert_eq!(ctx.id(), 7);
        assert_eq!(ctx.tenant(), "acme");
        assert_eq!(ctx.env("data_source"), Some("s3://bucket"));
        assert_eq!(ctx.env("precision"), Some("f64"));
        assert_eq!(ctx.env("missing"), None);
        assert_eq!(ctx.metadata("priority"), Some("high"));
        assert_eq!(ctx.metadata("absent"), None);
        assert_eq!(ctx.parent(), Some(3));
        assert!(ctx.is_active());
        assert_eq!(ctx.in_flight(), 0);
        assert_eq!(ctx.meter(), &SessionMeter::default());
    }

    #[test]
    fn lifecycle_bookkeeping() {
        let mut ctx = SessionCtx::create(1, SessionSpec::tenant("t"), None);
        ctx.note_submitted();
        ctx.note_submitted();
        assert_eq!(ctx.in_flight(), 2);
        assert_eq!(ctx.meter().jobs_submitted, 2);
        ctx.note_completed();
        assert_eq!(ctx.in_flight(), 1);
        assert_eq!(ctx.meter().jobs_completed, 1);
        ctx.note_rejected();
        assert_eq!(ctx.meter().jobs_rejected, 1);
        ctx.close();
        assert!(!ctx.is_active());
        // Completion after close still settles in-flight accounting.
        ctx.note_completed();
        assert_eq!(ctx.in_flight(), 0);
        ctx.note_completed();
        assert_eq!(ctx.in_flight(), 0, "saturates at zero");
    }
}
