//! # aohpc-service — multi-tenant kernel execution as a persistent service
//!
//! The paper's platform weaves a DSL program once and runs it as a one-shot
//! batch job.  This crate is the layer the roadmap's production goal needs on
//! top of that pipeline: a **persistent service** that many tenants submit
//! kernel jobs to concurrently, built from four pieces:
//!
//! * [`SessionCtx`] / [`SessionSpec`] — per-tenant execution contexts every
//!   submission flows through: environment and metadata key-value stores,
//!   accumulated metering, and parent/child nesting for scoped sub-sessions.
//! * [`PlanCache`] — a sharded, capacity-bounded cache of compiled execution
//!   plans for **every kernel family** ([`KernelFamilyId`]: stencil,
//!   particle, usgrid), keyed by the structural [`ProgramFingerprint`] plus
//!   family tag, block shape and optimization level.  Concurrent tenants
//!   submitting the same mathematics share one compiled
//!   [`aohpc_kernel::FamilyArtifact`]; resolution is single-flight per key:
//!   a shard hit, a joined flight, or a local compile.
//!   A full shard evicts its least-recently-used entry, sparing the plans
//!   hot sessions pinned while any other exists, and
//!   [`PlanCacheStats::for_family`] breaks hits/misses down per family.
//! * [`JobSpec`] / [`JobReport`] — the submission unit (a [`FamilyProgram`]
//!   of any family, region, blocking, steps, topology, weave mode) and its
//!   result (field checksum, deterministic simulated time, run digest).
//!   Malformed specs are rejected at admission with a typed
//!   [`JobSpecError`] inside [`SubmitError::InvalidJob`].  Stock
//!   constructors cover all three families: [`JobSpec::jacobi`] /
//!   [`JobSpec::smooth`] (stencil), [`JobSpec::particle`],
//!   [`JobSpec::usgrid`].
//! * [`KernelService`] — the front door: `open_session` → `submit` /
//!   `try_submit` / `submit_timeout` / `submit_batch`, with per-session
//!   admission quotas applied as **backpressure** and a bounded
//!   crossbeam-channel worker pool executing every job, whatever its
//!   family, through one path: the family's DSL system and app under
//!   `runtime::execute`.
//! * [`JobHandle`] / [`CompletionStream`] — the asynchronous result surface:
//!   every accepted job resolves its handle exactly once (report or
//!   [`JobError`]), and a session's stream delivers outcomes in submission
//!   order.  The synchronous [`KernelService::drain`] /
//!   [`KernelService::drain_session`] remain as thin wrappers over the same
//!   completion plumbing.
//! * [`ClusterService`] — N service nodes connected by a private frame mesh
//!   (one channel of frames per node), with tenant-affine session routing.
//!   Every node compiles its own plans through its own [`PlanCache`]; the
//!   mesh carries liveness only (heartbeats, gossip, view sync), and a
//!   killed node's queued jobs replay on a survivor.  See the
//!   [cluster module docs](cluster) for the failure model.
//!
//! ```
//! use aohpc_service::{JobSpec, KernelService, ServiceConfig, SessionSpec};
//! use aohpc_workloads::Scale;
//!
//! let service = KernelService::new(ServiceConfig::default().with_workers(2));
//! let session = service.open_session(SessionSpec::tenant("demo"));
//! // The async front door: submission returns a handle per job...
//! let handles = service
//!     .submit_batch(session, vec![JobSpec::jacobi(Scale::Smoke); 4])
//!     .unwrap();
//! // ...each resolving exactly once with the job's outcome.
//! for handle in &handles {
//!     let report = handle.wait().expect("job executed");
//!     assert!(report.error.is_none());
//! }
//! // Four submissions of the same program: one compile; every other lookup
//! // (admission pre-warm + per-task plan resolution) hits.
//! assert_eq!(service.cache_stats().misses, 1);
//! assert!(service.cache_stats().hits >= 3);
//! ```
//!
//! # Migrating from `drain` to `JobHandle::wait`
//!
//! `drain()` still works unchanged — it waits for quiescence and returns
//! every retained report.  New code should prefer the per-job surface:
//!
//! | blocking pattern                        | async replacement                         |
//! |-----------------------------------------|-------------------------------------------|
//! | `submit(...)?; ...; drain()`            | `let h = submit(...)?; h.wait()`          |
//! | `drain_session(s)`                      | `completion_stream(s)` + `next()`         |
//! | quota hit ⇒ `Err(QuotaExceeded)`        | `try_submit` ⇒ `Err(WouldBlock)` (retry), |
//! |                                         | or `submit_timeout` (bounded wait)        |
//!
//! Handle/stream-only deployments should disable
//! [`ServiceConfig::retain_reports`] so the undrained report buffer cannot
//! grow without bound.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cluster;
pub mod fault;
pub mod job;
pub mod membership;
pub mod service;
pub mod session;

pub use cache::{EntryMeta, FamilyLaneStats, PlanCache, PlanCacheStats, PlanKey, PlanOrigin};
pub use cluster::{
    plan_owner_among, ClusterCacheStats, ClusterCommStats, ClusterService, ClusterSessionId,
    ControlFrame,
};
pub use fault::{FaultAction, FaultPlan, FaultState, Interception};
pub use job::{
    FailoverProvenance, JobError, JobErrorKind, JobHandle, JobId, JobOutcome, JobReport, JobSpec,
    JobSpecError, JobStatus,
};
pub use membership::{
    rendezvous_owner, ClusterTuning, Membership, MembershipStats, NodeState, Transition,
};
pub use service::{AdmissionStats, BatchError, KernelService, ServiceConfig, SubmitError};
pub use session::{CompletionStream, SessionCtx, SessionId, SessionMeter, SessionSpec};

// Re-exported so service callers can name the program/fingerprint types
// without depending on `aohpc-kernel` directly — and the runtime's progress
// type, which `JobHandle::progress` returns.
pub use aohpc_kernel::{
    FamilyProgram, KernelFamilyId, ParticleProgram, ProgramFingerprint, SpecializationId,
    StencilProgram, UsGridProgram,
};
pub use aohpc_runtime::Progress;

// The observability surface: install a hub with
// [`KernelService::with_observer`] / [`ClusterService::with_observer`], then
// export its flight-recorder spans (`chrome_trace_json` opens directly in
// `chrome://tracing` / Perfetto) or cross-check its counters with
// [`ObsSnapshot::validate`].
pub use aohpc_obs::{chrome_trace_json, json_lines, ObsHub, ObsSnapshot};
