//! Convenience re-exports for platform users: the facade, the three sample
//! DSL processing systems, the aspect modules and the most common substrate
//! types.

pub use crate::platform::{ExecutionMode, Platform, RunOutcome};

pub use aohpc_aop::{Advice, AdviceBinding, Aspect, Pointcut, Weaver, WovenProgram};
pub use aohpc_dsl::common::new_field_sink;
pub use aohpc_dsl::{
    Bucket, DslSystem, FieldSink, PairForce, Particle, ParticleApp, ParticleBlockApp,
    ParticleSystem, SGridJacobiApp, SGridSystem, UsCell, UsGridJacobiApp, UsGridSystem,
    UsGridValueSystem,
};
pub use aohpc_env::{
    AccessState, Block, BlockId, BlockKind, Env, EnvBuilder, Extent, GlobalAddress, LocalAddress,
    TreeTopology,
};
pub use aohpc_kernel::{
    FamilyProgram, IrStencilApp, KernelFamilyId, OptLevel, ParticleProgram, Processor,
    ProgramFingerprint, StencilProgram, UsGridProgram,
};
pub use aohpc_mem::{MemoryPool, MultiBuffer, PageTable, PoolHandle};
pub use aohpc_runtime::{
    CostModel, CostParams, HpcApp, LayerSpec, MpiAspect, OmpAspect, RunConfig, RunReport,
    RunSummary, TaskCtx, TaskSlot, Topology,
};
pub use aohpc_service::{
    AdmissionStats, BatchError, CompletionStream, FamilyLaneStats, JobError, JobErrorKind,
    JobHandle, JobId, JobOutcome, JobReport, JobSpec, JobSpecError, JobStatus, KernelService,
    PlanCache, PlanCacheStats, ServiceConfig, SessionCtx, SessionId, SessionMeter, SessionSpec,
    SubmitError,
};
pub use aohpc_workloads::{checksum, GridLayout, ParticleSize, RegionSize, Scale};
