//! # aohpc-runtime — layers, tasks, aspect modules and execution drivers
//!
//! This crate is the platform's runtime substrate: the pieces the paper's
//! Aspect modules manage for each layer of the HPC system.
//!
//! * [`Topology`] describes the layer stack (a distributed-memory layer of
//!   `R` ranks and a shared-memory layer of `T` threads; `R×T` tasks in
//!   total), and generates the hierarchical task ids of §III-B7.
//! * [`Communicator`] is the simulated message-passing fabric of the
//!   distributed layer: ranks are OS threads, pages move only through
//!   explicit channels, and every transfer is metered (message count, bytes,
//!   symmetric send/receive) for the cost model.  The fabric is a
//!   multiplexed transport — the superstep data plane shares the mesh with a
//!   tagged control plane ([`ControlFrame`]) used for out-of-band
//!   coordination such as the service cluster's plan sharing.  This
//!   substitutes for MPI over Omni-Path, which is not available in this
//!   environment.
//! * [`MpiAspect`] and [`OmpAspect`] are the two prototype aspect modules of
//!   §IV-A, implementing AspectType I (runtime/task control), II (block
//!   assignment) and III (inter-task communication incl. the Dry-run
//!   prefetch).
//! * [`execute`] is the driver that runs an [`HpcApp`] under a woven program
//!   and a [`RunConfig`]; it produces a [`RunReport`] with per-task access
//!   counters, communication volumes, memory statistics and wall time.
//! * [`CostModel`] converts those counters into a deterministic simulated
//!   execution time, which is how the scaling experiments (Figs. 7–11) are
//!   reproduced on a single-core host.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotation;
pub mod aspects;
pub mod comm;
pub mod cost;
pub mod ctx;
pub mod driver;
pub mod report;
pub mod task;

pub use annotation::{BlockSweep, HpcApp};
pub use aspects::{MpiAspect, OmpAspect};
pub use comm::{
    CommProbe, CommStats, Communicator, ControlFrame, ControlHandle, PagePayload, RankMessage,
    LIVENESS_TAG_BASE,
};
pub use cost::{CostModel, CostParams};
pub use ctx::{new_field_sink, FieldSink, Progress, ProgressNotifier, RankShared, TaskCtx};
pub use driver::{execute, RunConfig, WeaveMode};
pub use report::{RankReport, RunReport, RunSummary, TaskReport};
pub use task::{CompletionSlot, LayerKind, LayerSpec, TaskSlot, Topology};
