//! The layer ledger: one end-to-end benchmark of the aohpc platform, six
//! named workloads, and per-layer numbers that add up to the end-to-end
//! figure.  See `README.md` for how to run it and how to read it.
//!
//! The crate measures every layer **from outside**, by timing calls into the
//! layers' public functions; it changes nothing under `crates/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod drive;
pub mod ledger;
pub mod metrics;
pub mod reference;
pub mod report;
pub mod rng;
pub mod run;
pub mod stats;
pub mod suite;
pub mod workloads;
