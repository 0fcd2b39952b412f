//! # aohpc-workloads — workload and parameter generators for the evaluation
//!
//! The paper's evaluation sweeps three sample applications (structured grid,
//! unstructured grid, particle method) over region sizes, particle counts,
//! parallelism degrees and memory-layout cases.  This crate centralises those
//! parameters so that the benchmark harnesses, the examples and the tests all
//! draw from the same definitions:
//!
//! * [`Scale`] — the size class of a run.  `Paper` reproduces the paper's
//!   sizes (4096² regions, 2¹⁸ particles); `Default` and `Smoke` are scaled
//!   down so the full suite runs on a single-core container in minutes or
//!   seconds while preserving every ratio the figures report.
//! * [`GridLayout`] — the CaseC (consecutive, spatially local) and CaseR
//!   (scattered, no spatial locality) memory layouts of the unstructured-grid
//!   sample, implemented as a bijective affine permutation so that arbitrarily
//!   large domains need no permutation table.
//! * [`checksum`] — order-insensitive field checksum used to compare platform
//!   runs against handwritten baselines in tests and harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layout;
pub mod scale;

pub use layout::{AffinePermutation, GridLayout, ResolvedLayout};
pub use scale::{ParticleSize, RegionSize, Scale, ScaleParseError};

/// Order-insensitive checksum of a scalar field (sum and sum of squares
/// folded together).  Used to compare results across execution modes without
/// storing full fields.
pub fn checksum(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0f64;
    let mut sq = 0.0f64;
    for v in values {
        sum += v;
        sq += v * v;
    }
    sum + sq * 1e-3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_insensitive() {
        let a = checksum([1.0, 2.0, 3.0]);
        let b = checksum([3.0, 1.0, 2.0]);
        assert_eq!(a, b);
        assert_ne!(checksum([1.0, 2.0]), checksum([1.0, 2.5]));
    }
}
