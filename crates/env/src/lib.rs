//! # aohpc-env — the platform's data model (`Env`)
//!
//! The global structure of the target data is a tree of **Blocks** (the
//! paper's *Env*).  A Block is a fixed-size unit of data with spatial
//! placement information; a *subkernel* updates exactly one Block at a time.
//! Blocks come in six kinds:
//!
//! * **Data** — an entity block holding multi-buffered cell data, owned by a
//!   data-manager task (`dm_tid`) and computed by a compute task (`ch_tid`);
//! * **Buffer-only Data** — a receive buffer for data owned by another task
//!   (initially invalid, becomes valid when pages arrive);
//! * **Empty** — a joint of the tree (no data), used to encode spatial
//!   locality so that searches stay near the requesting block;
//! * **Static Data** — read-only data (used by the unstructured-grid DSL for
//!   out-of-domain points);
//! * **Arithmetic** — data generated by an expression (Dirichlet boundary
//!   conditions, dummy wall particles);
//! * **Reference** — an alias that redirects to another block through an
//!   address mapping (Neumann boundary conditions).
//!
//! The crate also implements the two access-cost optimisations the paper
//! evaluates:
//!
//! * the *skip-search flag* (`GetDD` in Listing 1): the caller asserts the
//!   address is inside the starting block, so no tree search happens;
//! * **MMAT** (Memorization of Memory Access Type): a per-task memo of how
//!   each `(starting block, global address)` pair resolved, so that — under
//!   Assumption II (static access patterns) — the Env search runs only on the
//!   first step.
//!
//! Z-order (Morton) indexing of data blocks, used by the DSL part to assign
//! Blocks to tasks, lives in [`morton`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod address;
pub mod block;
pub mod env;
pub mod mmat;
pub mod morton;
pub mod topology;

pub use access::{AccessCounters, AccessState};
pub use address::{Extent, GlobalAddress, LocalAddress};
pub use aohpc_mem::Frame;
pub use block::{ArithFn, Block, BlockId, BlockKind, BlockMeta, RefMapFn, NO_TASK};
pub use env::{Env, EnvBuilder, EnvError, EnvStats, RunPlan};
pub use mmat::{MmatEntry, MmatTable};
pub use morton::{morton2d, morton3d, morton_decode2d};
pub use topology::{TilePlacement, TreeTopology};

/// Marker trait for types storable as Block cell data.
///
/// Blanket-implemented: any `Clone + Default + Send + Sync + 'static` type is
/// a cell.  The three sample DSLs use `f64` (structured grid), a small
/// neighbour-list struct (unstructured grid) and a fixed-capacity particle
/// bucket (particle method).
pub trait Cell: Clone + Default + Send + Sync + 'static {}
impl<T: Clone + Default + Send + Sync + 'static> Cell for T {}
