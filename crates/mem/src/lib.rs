//! # aohpc-mem — the platform's Memory Library
//!
//! The paper's platform allocates a fixed-size **Memory Pool** per task and
//! places all computation-domain data on it.  Data blocks are **multi-
//! buffered** (a read buffer and a write buffer that are swapped by
//! `refresh`), and every buffer is split into fixed-size **Pages** — the unit
//! at which the platform tracks validity and dirtiness, and the unit of
//! inter-task communication (communicating per page is cheaper than per
//! block when only a boundary strip is needed).
//!
//! This crate provides those three building blocks:
//!
//! * [`MemoryPool`] / [`PoolHandle`] — a first-fit chunk allocator over a
//!   fixed capacity, with the usage statistics that the paper's Fig. 12
//!   reports (used pool, unused pool), and the shareable handle buffers
//!   allocate through.
//! * [`PageTable`] — per-page validity / dirtiness flags plus the
//!   "non-existent page" bookkeeping used by `refresh` and the Dry-run
//!   feature.
//! * [`MultiBuffer`] — the double- (or N-) buffered cell storage of a Data
//!   Block, drawing its backing space from a pool and exposing page-based
//!   state to the aspect modules and block-based access to the DSL part.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod page;
pub mod pool;

pub use buffer::{Frame, MultiBuffer};
pub use page::{PageFlags, PageId, PageTable};
pub use pool::{Chunk, MemoryPool, PoolError, PoolHandle, PoolStats};
