//! A validated subkernel: expression + metadata.
//!
//! [`StencilProgram`] wraps a [`KernelExpr`] after checking the properties
//! the rest of the pipeline relies on (bounded stencil radius, declared
//! parameter count).  It is the unit the optimizer, the access-resolution
//! cache and the backends consume, and the unit a DSL part would hand to the
//! platform for the paper's future-work "subkernel modification".

use crate::expr::KernelExpr;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Errors produced while validating a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// The expression contains no load, so it does not depend on the field.
    NoLoads,
    /// The stencil radius exceeds the declared maximum.
    RadiusTooLarge {
        /// Radius found in the expression.
        found: i64,
        /// Maximum allowed radius.
        max: i64,
    },
    /// The expression references more parameters than were declared.
    TooManyParams {
        /// Parameters referenced by the expression.
        referenced: usize,
        /// Parameters declared by the caller.
        declared: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::NoLoads => write!(f, "subkernel reads no field values"),
            ProgramError::RadiusTooLarge { found, max } => {
                write!(f, "stencil radius {found} exceeds the maximum {max}")
            }
            ProgramError::TooManyParams { referenced, declared } => {
                write!(f, "expression references {referenced} parameters but only {declared} are declared")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A stable 128-bit structural fingerprint of a [`StencilProgram`].
///
/// Structurally identical programs (expression trees equal with constants
/// compared at the IEEE-754 bit level, same declared parameter count) always
/// share a fingerprint.  The program *name* is a reporting label and
/// deliberately does **not** participate: a plan cache keyed on the
/// fingerprint lets differently-named submissions of the same mathematics
/// share one compiled kernel.  The converse holds only up to hash collision —
/// FNV-1a is not collision-resistant, so code that maps a fingerprint back to
/// a compiled artefact must verify with
/// [`StencilProgram::same_structure`] (as the service plan cache does).
///
/// The value is computed with two independently-seeded FNV-1a passes over the
/// canonical expression encoding, so it is stable across processes, platforms
/// and releases of the standard library (unlike `DefaultHasher`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProgramFingerprint {
    hi: u64,
    lo: u64,
}

impl ProgramFingerprint {
    /// The fingerprint as one 128-bit integer.
    pub fn as_u128(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }

    /// Rebuild a fingerprint from its [`ProgramFingerprint::as_u128`] form
    /// (used by wire formats that ship fingerprints between ranks).
    pub fn from_u128(v: u128) -> Self {
        ProgramFingerprint { hi: (v >> 64) as u64, lo: v as u64 }
    }

    /// Fingerprint a domain-tagged byte stream with the same
    /// independently-seeded double-FNV-1a construction
    /// [`StencilProgram::fingerprint`] uses, absorbing `tag` before the
    /// stream — the per-family domain separation of the non-stencil kernel
    /// families (see [`crate::family`]).  The stencil path does **not** go
    /// through here, so its fingerprints are byte-for-byte unchanged.
    pub(crate) fn of_tagged_stream(tag: u8, encode: impl FnOnce(&mut dyn FnMut(&[u8]))) -> Self {
        let mut lo = FNV_OFFSET;
        let mut hi = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;
        let mut write = |bytes: &[u8]| {
            for &b in bytes {
                lo = (lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                hi = (hi ^ u64::from(b ^ 0xa5)).wrapping_mul(FNV_PRIME);
            }
        };
        write(&[tag]);
        encode(&mut write);
        ProgramFingerprint { hi, lo }
    }
}

impl fmt::Display for ProgramFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Maximum stencil radius accepted by default — larger stencils would need a
/// halo deeper than one block, which the Env's Buffer-only-block protocol does
/// not ship.
pub const DEFAULT_MAX_RADIUS: i64 = 8;

/// A validated subkernel program.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilProgram {
    name: String,
    expr: KernelExpr,
    num_params: usize,
    offsets: Vec<(i64, i64)>,
    radius: i64,
}

impl StencilProgram {
    /// Validate an expression into a program, declaring `num_params` runtime
    /// parameters and accepting stencils up to [`DEFAULT_MAX_RADIUS`].
    pub fn new(
        name: impl Into<String>,
        expr: KernelExpr,
        num_params: usize,
    ) -> Result<Self, ProgramError> {
        Self::with_max_radius(name, expr, num_params, DEFAULT_MAX_RADIUS)
    }

    /// [`StencilProgram::new`] with an explicit radius bound.
    pub fn with_max_radius(
        name: impl Into<String>,
        expr: KernelExpr,
        num_params: usize,
        max_radius: i64,
    ) -> Result<Self, ProgramError> {
        let offsets = expr.offsets();
        if offsets.is_empty() {
            return Err(ProgramError::NoLoads);
        }
        let radius = expr.radius();
        if radius > max_radius {
            return Err(ProgramError::RadiusTooLarge { found: radius, max: max_radius });
        }
        let referenced = expr.num_params();
        if referenced > num_params {
            return Err(ProgramError::TooManyParams { referenced, declared: num_params });
        }
        Ok(StencilProgram { name: name.into(), expr, num_params, offsets, radius })
    }

    /// The program's name (used in reports and benchmark labels).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying expression.
    pub fn expr(&self) -> &KernelExpr {
        &self.expr
    }

    /// Number of declared runtime parameters.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// The distinct load offsets, in first-appearance order.
    pub fn offsets(&self) -> &[(i64, i64)] {
        &self.offsets
    }

    /// The stencil radius.
    pub fn radius(&self) -> i64 {
        self.radius
    }

    /// Width of the ghost frame a grid block keeps for this program: its
    /// reach.  A kernel compiled for the program frames its tile this wide
    /// and runs a block lent in this frame in place; an Env built with
    /// another width (or none) runs through the tile, same values.
    pub fn frame(&self) -> usize {
        self.radius as usize
    }

    /// Whether another program is structurally interchangeable with this one:
    /// same expression tree (constants compared numerically) and same
    /// declared parameter count, names ignored.  This is the ground truth the
    /// fingerprint approximates — caches use it to verify a fingerprint hit.
    pub fn same_structure(&self, other: &StencilProgram) -> bool {
        self.num_params == other.num_params && self.expr == other.expr
    }

    /// The program's structural fingerprint (see [`ProgramFingerprint`]).
    ///
    /// Cheap enough to recompute on demand (one pass over the expression
    /// tree), deterministic across processes, and independent of the
    /// program's name.
    pub fn fingerprint(&self) -> ProgramFingerprint {
        let mut lo = FNV_OFFSET;
        let mut hi = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;
        let mut write = |bytes: &[u8]| {
            for &b in bytes {
                lo = (lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                hi = (hi ^ u64::from(b ^ 0xa5)).wrapping_mul(FNV_PRIME);
            }
        };
        write(&(self.num_params as u64).to_le_bytes());
        self.expr.encode_canonical(&mut write);
        ProgramFingerprint { hi, lo }
    }

    /// Evaluate the program at one cell with `loads` supplying field values —
    /// the reference semantics used by tests and by the unoptimized
    /// interpreter backend.
    pub fn eval(&self, loads: &mut impl FnMut(i64, i64) -> f64, params: &[f64]) -> f64 {
        self.expr.eval(loads, params)
    }

    /// The 5-point Jacobi program of Listing 1.
    pub fn jacobi_5pt() -> Self {
        StencilProgram::new("jacobi-5pt", crate::expr::jacobi_5pt(), 2)
            .expect("stock kernel is valid")
    }

    /// The 9-point box-smoothing program.
    pub fn smooth_9pt() -> Self {
        StencilProgram::new("smooth-9pt", crate::expr::smooth_9pt(), 2)
            .expect("stock kernel is valid")
    }
}

/// Hashes the name, parameter count and load-offset set.
///
/// Deliberately *not* the [`StencilProgram::fingerprint`]: `PartialEq`
/// compares `f64` constants numerically (`0.0 == -0.0`) while the
/// fingerprint distinguishes their bits, so hashing the fingerprint would
/// break the `Hash`/`Eq` contract for programs differing only in a zero's
/// sign.  The fields hashed here are equal whenever the programs are, which
/// is all the contract needs — map lookups resolve residual collisions
/// through `PartialEq`.  Plan caches should key on the fingerprint directly.
impl Hash for StencilProgram {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.name.hash(state);
        self.num_params.hash(state);
        self.offsets.hash(state);
        self.radius.hash(state);
    }
}

impl fmt::Display for StencilProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: out = {}", self.name, self.expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{lit, load, param};

    #[test]
    fn valid_programs_expose_metadata() {
        let p = StencilProgram::jacobi_5pt();
        assert_eq!(p.name(), "jacobi-5pt");
        assert_eq!(p.num_params(), 2);
        assert_eq!(p.offsets().len(), 5);
        assert_eq!(p.radius(), 1);
        assert!(p.to_string().contains("jacobi-5pt"));
    }

    #[test]
    fn rejects_programs_without_loads() {
        let err = StencilProgram::new("bad", lit(1.0) + param(0), 1).unwrap_err();
        assert_eq!(err, ProgramError::NoLoads);
        assert!(err.to_string().contains("no field"));
    }

    #[test]
    fn rejects_overlong_stencils() {
        let err =
            StencilProgram::with_max_radius("far", load(9, 0) + load(0, 0), 0, 4).unwrap_err();
        assert_eq!(err, ProgramError::RadiusTooLarge { found: 9, max: 4 });
        assert!(err.to_string().contains("radius"));
    }

    #[test]
    fn rejects_undeclared_params() {
        let err = StencilProgram::new("p", load(0, 0) * param(2), 1).unwrap_err();
        assert_eq!(err, ProgramError::TooManyParams { referenced: 3, declared: 1 });
        assert!(err.to_string().contains("parameters"));
    }

    #[test]
    fn extra_declared_params_are_allowed() {
        let p = StencilProgram::new("extra", load(0, 0) * param(0), 4).unwrap();
        assert_eq!(p.num_params(), 4);
    }

    #[test]
    fn fingerprint_is_structural_and_name_independent() {
        let a = StencilProgram::new("a", load(0, 0) + param(0), 1).unwrap();
        let b = StencilProgram::new("b", load(0, 0) + param(0), 1).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "name does not matter");
        assert_eq!(a.fingerprint(), a.clone().fingerprint(), "stable under clone");

        let shifted = StencilProgram::new("a", load(1, 0) + param(0), 1).unwrap();
        assert_ne!(a.fingerprint(), shifted.fingerprint(), "offsets matter");
        let swapped = StencilProgram::new("a", param(0) + load(0, 0), 1).unwrap();
        assert_ne!(a.fingerprint(), swapped.fingerprint(), "operand order matters");
        let more_params = StencilProgram::new("a", load(0, 0) + param(0), 2).unwrap();
        assert_ne!(a.fingerprint(), more_params.fingerprint(), "declared params matter");
        let other_const = StencilProgram::new("c", load(0, 0) + lit(1.0), 0).unwrap();
        let other_const2 = StencilProgram::new("c", load(0, 0) + lit(1.5), 0).unwrap();
        assert_ne!(other_const.fingerprint(), other_const2.fingerprint(), "constants matter");
    }

    #[test]
    fn same_structure_ignores_names_but_not_structure() {
        let a = StencilProgram::new("a", load(0, 0) + param(0), 1).unwrap();
        let b = StencilProgram::new("b", load(0, 0) + param(0), 1).unwrap();
        assert!(a.same_structure(&b), "names are labels");
        let shifted = StencilProgram::new("a", load(1, 0) + param(0), 1).unwrap();
        assert!(!a.same_structure(&shifted));
        let more_params = StencilProgram::new("a", load(0, 0) + param(0), 2).unwrap();
        assert!(!a.same_structure(&more_params));
    }

    #[test]
    fn fingerprint_is_stable_across_processes() {
        // Pinned value: the fingerprint is part of the plan-cache key and must
        // not drift between builds (it is FNV-1a over a canonical encoding,
        // not DefaultHasher).  Update this constant only with a deliberate
        // cache-format change.
        let p = StencilProgram::jacobi_5pt();
        assert_eq!(p.fingerprint().to_string(), "8156f965671e84dfdbfd78a4365e8f99");
        assert_eq!(p.fingerprint().to_string(), format!("{:032x}", p.fingerprint().as_u128()));
        assert_eq!(p.fingerprint(), StencilProgram::jacobi_5pt().fingerprint());
    }

    #[test]
    fn hash_respects_the_partial_eq_contract() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |p: &StencilProgram| {
            let mut s = DefaultHasher::new();
            p.hash(&mut s);
            s.finish()
        };
        let a = StencilProgram::new("same", load(0, 0) * param(0), 1).unwrap();
        let b = StencilProgram::new("same", load(0, 0) * param(0), 1).unwrap();
        assert_eq!(h(&a), h(&b));
        let renamed = StencilProgram::new("other", load(0, 0) * param(0), 1).unwrap();
        assert_ne!(h(&a), h(&renamed), "the name participates in Hash");
        // The f64 edge the fingerprint must distinguish but Hash must not:
        // 0.0 and -0.0 compare equal, so equal programs must hash equal.
        let pos = StencilProgram::new("z", load(0, 0) + lit(0.0), 0).unwrap();
        let neg = StencilProgram::new("z", load(0, 0) + lit(-0.0), 0).unwrap();
        assert_eq!(pos, neg, "PartialEq is numeric");
        assert_eq!(h(&pos), h(&neg), "Hash must follow PartialEq");
        assert_ne!(pos.fingerprint(), neg.fingerprint(), "the plan key stays bit-level");
    }

    #[test]
    fn eval_delegates_to_expr() {
        let p = StencilProgram::jacobi_5pt();
        let mut loads = |dx: i64, dy: i64| if dx == 0 && dy == 0 { 2.0 } else { 1.0 };
        let v = p.eval(&mut loads, &[0.5, 0.125]);
        assert!((v - (1.0 + 0.5)).abs() < 1e-12);
    }
}
