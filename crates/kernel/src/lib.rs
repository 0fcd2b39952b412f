//! # aohpc-kernel — the subkernel internal DSL
//!
//! This crate implements the paper's future-work §VI on top of the platform:
//!
//! * **Subkernel modification** — end-users (or DSL parts) describe the
//!   per-cell update as an expression IR ([`expr`], [`program`]) instead of a
//!   hand-written loop; the platform then *generates* the kernel for
//!   different processor models ([`backend`]) and can execute them
//!   heterogeneously across blocks ([`hetero`]).
//! * **Cache of data access resolution** — the address of every load is
//!   resolved once per (program, block shape) pair at compile time
//!   ([`plan`]): interior loads become precomputed row-major index offsets
//!   processed in sequential order, and only the true out-of-block halo
//!   cells go back to the platform's `GetD` path — each once per block, a
//!   halo-ring run at a time (keeping MMAT / Env-search semantics intact).
//!
//! The pipeline is: [`expr::KernelExpr`] → [`program::StencilProgram`]
//! (validation) → [`opt::Dag`] (CSE, constant folding, algebraic
//! simplification) → [`plan::CompiledKernel`] (access-resolution cache) →
//! [`backend::Processor`] execution, optionally wrapped in
//! [`app::IrStencilApp`] to run on the platform under any aspect-module
//! combination.
//!
//! The compiled kernel carries a register-allocated execution [`tape`]
//! (lowered once at compile time: constants/params hoisted to a per-block
//! prelude, loads fused into their consumers, scratch reduced to the liveness
//! peak), which both backends interpret from a reusable
//! [`ExecScratch`] — so the steady-state block loop allocates nothing.  A
//! tape that matches a hot shape runs its blocks from a padded tile in the
//! same scratch instead ([`spec`]).
//!
//! ```
//! use aohpc_kernel::prelude::*;
//!
//! // alpha * centre + beta * (N + W + E + S), on a 16x16 block, SIMD lanes.
//! let program = StencilProgram::jacobi_5pt();
//! let compiled = CompiledKernel::compile(&program, Extent::new2d(16, 16), OptLevel::Full);
//! let cells = vec![1.0; 256];
//! let mut out = vec![0.0; 256];
//! let mut stats = ExecStats::default();
//! let mut scratch = ExecScratch::new(); // reusable across blocks: zero allocs when warm
//! compiled.execute_block(
//!     &cells,
//!     &[0.5, 0.125],
//!     &mut |_x, _y| 0.0,
//!     &mut out,
//!     Processor::Simd,
//!     &mut stats,
//!     &mut scratch,
//! );
//! assert!(stats.vector_ops > 0);
//! // Interior cells see four neighbours of 1.0: 0.5*1 + 0.125*4 = 1.0.
//! assert!((out[17] - 1.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod backend;
pub mod expr;
pub mod family;
pub mod field;
pub mod hetero;
pub mod opt;
pub mod plan;
pub mod portable;
pub mod program;
pub mod spec;
pub mod tape;

pub use app::{
    default_initial_value, fill_halo_ring, new_stats_sink, new_stencil_field_sink, IrStencilApp,
    StatsSink, StencilFieldSink,
};
pub use backend::{ExecStats, Processor, LANES};
pub use expr::{jacobi_5pt, lit, load, param, smooth_9pt, BinOp, KernelExpr, UnaryOp};
pub use family::{
    FamilyArtifact, FamilyError, FamilyProgram, KernelFamilyId, PairForceFn, PairLaw,
    ParticleKernel, ParticleProgram, UsBlockLawFn, UsGridKernel, UsGridProgram, UsUpdateFn,
};
pub use field::DenseField;
pub use hetero::{HeteroDispatcher, PerProcessorStats, ScheduleError, SchedulePolicy};
pub use opt::{Dag, OptLevel, OptStats};
pub use plan::{AccessPlan, CompiledKernel, HaloRing, HaloRun, PlanSource};
pub use portable::{PortableError, PortableKernel};
pub use program::{ProgramError, ProgramFingerprint, StencilProgram};
pub use spec::SpecializationId;
pub use tape::{ExecScratch, ExecTape, ScratchPool, ScratchPoolStats, TapeStats};

/// Convenience re-exports for downstream users (examples, benches).
pub mod prelude {
    pub use crate::app::{
        new_stats_sink, new_stencil_field_sink, IrStencilApp, StatsSink, StencilFieldSink,
    };
    pub use crate::backend::{ExecStats, Processor};
    pub use crate::expr::{lit, load, param, KernelExpr};
    pub use crate::family::{
        FamilyArtifact, FamilyProgram, KernelFamilyId, ParticleProgram, UsGridProgram,
    };
    pub use crate::field::DenseField;
    pub use crate::hetero::{HeteroDispatcher, PerProcessorStats, ScheduleError, SchedulePolicy};
    pub use crate::opt::{Dag, OptLevel, OptStats};
    pub use crate::plan::{AccessPlan, CompiledKernel, PlanSource};
    pub use crate::portable::PortableKernel;
    pub use crate::program::{ProgramFingerprint, StencilProgram};
    pub use crate::spec::SpecializationId;
    pub use crate::tape::{ExecScratch, ExecTape, ScratchPool, TapeStats};
    pub use aohpc_env::Extent;
}
