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
//! * [`checksum`] and its accumulator [`Checksum`] — the field checksum used
//!   to compare platform runs against handwritten baselines in tests and
//!   harnesses, and the one a service job's `Finalize` folds its field into.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layout;
pub mod scale;

pub use layout::{AffinePermutation, GridLayout, ResolvedLayout};
pub use scale::{ParticleSize, RegionSize, Scale, ScaleParseError};

/// A field checksum folded one value at a time: the sum and the sum of
/// squares, combined by [`Checksum::value`].  [`checksum`] is this fed from
/// an iterator; a `Finalize` that keeps no field feeds it row by row.
///
/// `f64` addition does not associate, so two folds agree bit for bit only
/// when they push the same values in the same order.  A run with several
/// tasks folds in the order the tasks take the accumulator (each holds it for
/// its whole deposit), so its checksum is repeatable exactly when that order
/// is.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Checksum {
    /// Sum of the values pushed so far.
    pub sum: f64,
    /// Sum of their squares.
    pub sq: f64,
}

impl Checksum {
    /// Fold one value in.
    #[inline]
    pub fn push(&mut self, v: f64) {
        self.sum += v;
        self.sq += v * v;
    }

    /// The checksum of everything pushed: `sum + sq · 10⁻³`.
    pub fn value(&self) -> f64 {
        self.sum + self.sq * 1e-3
    }
}

/// Checksum of a scalar field (see [`Checksum`]): compares results across
/// execution modes without storing full fields.  Bit-identical only for the
/// same values in the same order.
pub fn checksum(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut acc = Checksum::default();
    values.into_iter().for_each(|v| acc.push(v));
    acc.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small integers sum exactly in any order, so a permutation of them
    /// checksums alike.  That is a property of these values, not of the fold
    /// (see `checksum_depends_on_the_fold_order`).
    #[test]
    fn checksum_is_order_insensitive() {
        let a = checksum([1.0, 2.0, 3.0]);
        let b = checksum([3.0, 1.0, 2.0]);
        assert_eq!(a, b);
        assert_ne!(checksum([1.0, 2.0]), checksum([1.0, 2.5]));
    }

    #[test]
    fn checksum_depends_on_the_fold_order() {
        // (0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 round differently.
        let (a, b) = (checksum([0.1, 0.2, 0.3]), checksum([0.3, 0.2, 0.1]));
        assert_ne!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn the_accumulator_fed_row_by_row_is_the_checksum() {
        let values: Vec<f64> = (0..97).map(|k| ((k * 13) % 97) as f64 / 97.0 - 0.3).collect();
        let mut acc = Checksum::default();
        for row in values.chunks(8) {
            for &v in row {
                acc.push(v);
            }
        }
        assert_eq!(acc.value().to_bits(), checksum(values).to_bits());
        assert_eq!(Checksum::default().value(), checksum([]));
    }
}
