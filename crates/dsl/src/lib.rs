//! # aohpc-dsl — sample DSL processing systems built on the platform
//!
//! This crate is the "DSL Part" of the paper: libraries a DSL developer
//! writes *once* on top of the platform's annotation and memory libraries so
//! that end-users can write serial-looking application code.  Three DSL
//! processing systems are provided, matching the prototype:
//!
//! * [`sgrid`] — 2-D **structured grid** (`SGrid`): fixed-size square blocks,
//!   Dirichlet boundary through an Arithmetic block, 5-point stencil helper.
//! * [`usgrid`] — 2-D **unstructured grid** (`USGrid`): every point carries
//!   the global addresses of its neighbours; the CaseC / CaseR memory
//!   layouts of the evaluation are selected through
//!   [`aohpc_workloads::GridLayout`]; out-of-domain data lives in a Static
//!   Data block.
//! * [`particle`] — bucketed **particle method** (`Particle`): blocks of
//!   8×8×1 buckets, 16 particles per bucket, wall particles provided by an
//!   Arithmetic block; particles do not migrate between buckets (the
//!   prototype's documented limitation).
//!
//! Each module also contains the corresponding "App Part" — the end-user
//! application the evaluation runs (Jacobi relaxation for the grids, a
//! short-range force integration for the particles) — written exactly in the
//! style of Listing 1: loop over `get_blocks`, access cells through the
//! block-based interface with the skip-search flag where legal, call
//! `refresh` at the end of every step.
//!
//! # Reference apps and the paths the service runs
//!
//! The Listing-1 apps are the paper-fidelity *references*: what the figure
//! bins (`crates/bench`), the layer ledger's replays and the test oracles
//! drive.  What `KernelService` runs for a job is, per family:
//!
//! | family | Listing-1 reference | what the service runs: the block routine it supplies |
//! |---|---|---|
//! | stencil | [`SGridJacobiApp`] on [`SGridSystem`], one platform call a cell | the kernel crate's `IrStencilApp` on [`SGridSystem`]: halo ring as one run an edge, then the compiled tape in the lent block (read buffer in, write buffer out) |
//! | usgrid | [`UsGridJacobiApp`] on [`UsGridSystem`] (`Cell = `[`UsCell`]: Fig. 5b, cells that store their neighbours' addresses), law [`UsUpdate`] a point | the program lowered to its stencil (`UsGridProgram::to_stencil`, CaseC), run by the kernel crate's `IrStencilApp` on [`UsGridValueSystem`] (`Cell = f64`): the stencil's block routine |
//! | particle | [`ParticleApp`] on [`ParticleSystem`], ten per-cell bucket reads a bucket | [`ParticleBlockApp`] on [`ParticleSystem`]: its one-bucket ring as four runs, then, in the lent block, the compiled pair law ([`PairLanes`], inlined) over each bucket's particles as `f64` columns, four lanes at a time — the reference's calls one [`PairForce`] a pair |
//!
//! A product app is that block routine and nothing else of the flow: it
//! implements `aohpc_runtime::BlockSweep`, and the runtime's one blanket
//! `HpcApp` impl runs `Initialize`, the sweep (each block through the
//! `Kernel::execute_block` join point, so every family's jobs have block
//! spans), `refresh` and `Finalize` for all three.
//!
//! A product app leaves the field bits of its reference.  The stencil and
//! particle ones read each cell once a sweep where their references read it
//! once per load, and leave the counters of a per-cell loop over those cells
//! (`tests/slab_accounting.rs`).  A usgrid job is a stencil job on
//! [`UsGridValueSystem`], so the same holds for it; `tests/value_plane.rs`
//! pins its counters beside the reference's bits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod particle;
pub mod sgrid;
pub mod usgrid;

pub use common::{new_field_sink, DslSystem, FieldSink};
pub use particle::{
    Bucket, PairForce, PairLanes, Particle, ParticleApp, ParticleBlockApp, ParticleSystem,
};
pub use sgrid::{SGridJacobiApp, SGridSystem};
pub use usgrid::{UsCell, UsGridJacobiApp, UsGridSystem, UsGridValueSystem, UsUpdate};
