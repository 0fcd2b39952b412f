//! The subkernel expression IR.
//!
//! A [`KernelExpr`] describes, for one grid point, how its next value is
//! computed from the current field: relative **loads** (`field(i + dx, j +
//! dy)`), **constants**, runtime **parameters** (the `alpha`/`beta` of
//! Listing 1) and arithmetic on them.  The paper's future-work §VI proposes
//! exactly this — "an internal DSL for a subkernel, and the platform
//! generates kernels for multiple types of processors" — so the IR is the
//! single source the optimizer ([`crate::opt`]), the access-resolution cache
//! ([`crate::plan`]) and the execution backends ([`crate::backend`]) all work
//! from.
//!
//! Expressions are built with the free functions [`load`], [`param`] and
//! [`lit`] plus ordinary Rust operators:
//!
//! ```
//! use aohpc_kernel::expr::{load, lit, param};
//!
//! // 5-point Jacobi: alpha * centre + beta * (N + W + E + S)
//! let jacobi = param(0) * load(0, 0)
//!     + param(1) * (load(0, -1) + load(-1, 0) + load(1, 0) + load(0, 1));
//! assert_eq!(jacobi.num_params(), 2);
//! assert_eq!(jacobi.radius(), 1);
//! ```

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Binary operators of the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum of the two operands.
    Min,
    /// Maximum of the two operands.
    Max,
}

impl BinOp {
    /// Apply the operator to two values.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }

    /// Is `op(a, b) == op(b, a)` for all finite inputs?
    pub fn commutative(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Mul | BinOp::Min | BinOp::Max)
    }

    /// The symbol used by [`fmt::Display`].
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }
}

/// Unary operators of the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
}

impl UnaryOp {
    /// Apply the operator to a value.
    pub fn apply(self, a: f64) -> f64 {
        match self {
            UnaryOp::Neg => -a,
            UnaryOp::Abs => a.abs(),
            UnaryOp::Sqrt => a.sqrt(),
        }
    }

    /// The symbol used by [`fmt::Display`].
    pub fn symbol(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Abs => "abs",
            UnaryOp::Sqrt => "sqrt",
        }
    }
}

/// A subkernel expression: the value written to the current cell, as a
/// function of relative loads, constants and runtime parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelExpr {
    /// Load the field at a relative offset from the current cell.
    Load {
        /// Offset along X.
        dx: i64,
        /// Offset along Y.
        dy: i64,
    },
    /// A compile-time constant.
    Const(f64),
    /// A runtime scalar parameter (the `alpha`/`beta` of Listing 1), indexed
    /// into the parameter vector supplied at execution time.
    Param(usize),
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        a: Box<KernelExpr>,
    },
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        a: Box<KernelExpr>,
        /// Right operand.
        b: Box<KernelExpr>,
    },
}

/// Load the field at a relative offset `(dx, dy)` from the current cell.
pub fn load(dx: i64, dy: i64) -> KernelExpr {
    KernelExpr::Load { dx, dy }
}

/// A compile-time constant.
pub fn lit(v: f64) -> KernelExpr {
    KernelExpr::Const(v)
}

/// The `i`-th runtime parameter.
pub fn param(i: usize) -> KernelExpr {
    KernelExpr::Param(i)
}

impl KernelExpr {
    /// Element-wise minimum of two expressions.
    pub fn min(self, other: KernelExpr) -> KernelExpr {
        KernelExpr::Binary { op: BinOp::Min, a: Box::new(self), b: Box::new(other) }
    }

    /// Element-wise maximum of two expressions.
    pub fn max(self, other: KernelExpr) -> KernelExpr {
        KernelExpr::Binary { op: BinOp::Max, a: Box::new(self), b: Box::new(other) }
    }

    /// Absolute value.
    pub fn abs(self) -> KernelExpr {
        KernelExpr::Unary { op: UnaryOp::Abs, a: Box::new(self) }
    }

    /// Square root.
    pub fn sqrt(self) -> KernelExpr {
        KernelExpr::Unary { op: UnaryOp::Sqrt, a: Box::new(self) }
    }

    /// Number of parameters the expression references (`1 + max index`, or 0).
    pub fn num_params(&self) -> usize {
        match self {
            KernelExpr::Param(i) => i + 1,
            KernelExpr::Load { .. } | KernelExpr::Const(_) => 0,
            KernelExpr::Unary { a, .. } => a.num_params(),
            KernelExpr::Binary { a, b, .. } => a.num_params().max(b.num_params()),
        }
    }

    /// All distinct load offsets, in first-appearance order.
    pub fn offsets(&self) -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        self.collect_offsets(&mut out);
        out
    }

    fn collect_offsets(&self, out: &mut Vec<(i64, i64)>) {
        match self {
            KernelExpr::Load { dx, dy } => {
                if !out.contains(&(*dx, *dy)) {
                    out.push((*dx, *dy));
                }
            }
            KernelExpr::Const(_) | KernelExpr::Param(_) => {}
            KernelExpr::Unary { a, .. } => a.collect_offsets(out),
            KernelExpr::Binary { a, b, .. } => {
                a.collect_offsets(out);
                b.collect_offsets(out);
            }
        }
    }

    /// The stencil radius: the largest |offset| component of any load.
    pub fn radius(&self) -> i64 {
        self.offsets().iter().map(|(dx, dy)| dx.abs().max(dy.abs())).max().unwrap_or(0)
    }

    /// Number of nodes in the expression tree.
    pub fn node_count(&self) -> usize {
        match self {
            KernelExpr::Load { .. } | KernelExpr::Const(_) | KernelExpr::Param(_) => 1,
            KernelExpr::Unary { a, .. } => 1 + a.node_count(),
            KernelExpr::Binary { a, b, .. } => 1 + a.node_count() + b.node_count(),
        }
    }

    /// Feed a canonical byte encoding of the expression into `sink`:
    /// pre-order traversal, one tag byte per node kind, fixed-width
    /// little-endian operands.  Constants are encoded by their IEEE-754 bits,
    /// so `0.0` and `-0.0` — which compare equal but are not interchangeable
    /// bit-for-bit under the optimizer — encode differently.  This is the
    /// input to [`StencilProgram::fingerprint`](crate::program::StencilProgram::fingerprint).
    pub(crate) fn encode_canonical(&self, sink: &mut impl FnMut(&[u8])) {
        match self {
            KernelExpr::Load { dx, dy } => {
                sink(&[1]);
                sink(&dx.to_le_bytes());
                sink(&dy.to_le_bytes());
            }
            KernelExpr::Const(c) => {
                sink(&[2]);
                sink(&c.to_bits().to_le_bytes());
            }
            KernelExpr::Param(i) => {
                sink(&[3]);
                sink(&(*i as u64).to_le_bytes());
            }
            KernelExpr::Unary { op, a } => {
                sink(&[4, *op as u8]);
                a.encode_canonical(sink);
            }
            KernelExpr::Binary { op, a, b } => {
                sink(&[5, *op as u8]);
                a.encode_canonical(sink);
                b.encode_canonical(sink);
            }
        }
    }

    /// Decode one expression from the canonical byte encoding produced by
    /// [`KernelExpr::encode_canonical`], advancing `pos` past it.
    ///
    /// The format is self-delimiting (pre-order, fixed-width operands), so a
    /// payload can embed an expression followed by further fields.  The
    /// decoder is iterative (an explicit work stack), so any tree the
    /// encoder produced round-trips regardless of nesting depth; the stack
    /// is bounded only as a guard against hostile frames claiming absurd
    /// sizes.
    pub(crate) fn decode_canonical(bytes: &[u8], pos: &mut usize) -> Result<KernelExpr, String> {
        /// More pending operators than any real subkernel: a frame deeper
        /// than this is rejected as hostile rather than decoded.
        const MAX_PENDING: usize = 1 << 20;

        /// An operator waiting for its remaining operand(s).
        enum Pending {
            Unary(UnaryOp),
            BinaryLhs(BinOp),
            BinaryRhs(BinOp, KernelExpr),
        }

        let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
            let end = pos.checked_add(n).filter(|&e| e <= bytes.len());
            let end = end.ok_or_else(|| "truncated expression payload".to_string())?;
            let slice = &bytes[*pos..end];
            *pos = end;
            Ok(slice)
        };
        let take8 = |pos: &mut usize| -> Result<[u8; 8], String> {
            Ok(take(pos, 8)?.try_into().expect("exactly eight bytes"))
        };

        let mut stack: Vec<Pending> = Vec::new();
        loop {
            // Decode operators until a leaf completes a subtree.
            let mut node = loop {
                if stack.len() > MAX_PENDING {
                    return Err(format!("expression nests deeper than {MAX_PENDING}"));
                }
                let tag = take(pos, 1)?[0];
                match tag {
                    1 => {
                        let dx = i64::from_le_bytes(take8(pos)?);
                        let dy = i64::from_le_bytes(take8(pos)?);
                        break KernelExpr::Load { dx, dy };
                    }
                    2 => break KernelExpr::Const(f64::from_bits(u64::from_le_bytes(take8(pos)?))),
                    3 => {
                        let i = u64::from_le_bytes(take8(pos)?);
                        let i = usize::try_from(i)
                            .map_err(|_| "parameter index overflow".to_string())?;
                        break KernelExpr::Param(i);
                    }
                    4 => {
                        let op = match take(pos, 1)?[0] {
                            0 => UnaryOp::Neg,
                            1 => UnaryOp::Abs,
                            2 => UnaryOp::Sqrt,
                            b => return Err(format!("unknown unary op tag {b}")),
                        };
                        stack.push(Pending::Unary(op));
                    }
                    5 => {
                        let op = match take(pos, 1)?[0] {
                            0 => BinOp::Add,
                            1 => BinOp::Sub,
                            2 => BinOp::Mul,
                            3 => BinOp::Div,
                            4 => BinOp::Min,
                            5 => BinOp::Max,
                            b => return Err(format!("unknown binary op tag {b}")),
                        };
                        stack.push(Pending::BinaryLhs(op));
                    }
                    t => return Err(format!("unknown expression node tag {t}")),
                }
            };
            // Fold the completed subtree into the pending operators.
            loop {
                match stack.pop() {
                    None => return Ok(node),
                    Some(Pending::Unary(op)) => {
                        node = KernelExpr::Unary { op, a: Box::new(node) };
                    }
                    Some(Pending::BinaryLhs(op)) => {
                        stack.push(Pending::BinaryRhs(op, node));
                        break; // the right operand comes next off the wire
                    }
                    Some(Pending::BinaryRhs(op, a)) => {
                        node = KernelExpr::Binary { op, a: Box::new(a), b: Box::new(node) };
                    }
                }
            }
        }
    }

    /// Evaluate the expression with `loads(dx, dy)` supplying field values and
    /// `params` the runtime parameters.  This is the reference semantics every
    /// optimized/compiled form must reproduce.
    pub fn eval(&self, loads: &mut impl FnMut(i64, i64) -> f64, params: &[f64]) -> f64 {
        match self {
            KernelExpr::Load { dx, dy } => loads(*dx, *dy),
            KernelExpr::Const(c) => *c,
            KernelExpr::Param(i) => params.get(*i).copied().unwrap_or(0.0),
            KernelExpr::Unary { op, a } => op.apply(a.eval(loads, params)),
            KernelExpr::Binary { op, a, b } => {
                op.apply(a.eval(loads, params), b.eval(loads, params))
            }
        }
    }
}

impl fmt::Display for KernelExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelExpr::Load { dx, dy } => write!(f, "u[{dx:+},{dy:+}]"),
            KernelExpr::Const(c) => write!(f, "{c}"),
            KernelExpr::Param(i) => write!(f, "p{i}"),
            KernelExpr::Unary { op, a } => match op {
                UnaryOp::Neg => write!(f, "(-{a})"),
                _ => write!(f, "{}({a})", op.symbol()),
            },
            KernelExpr::Binary { op, a, b } => match op {
                BinOp::Min | BinOp::Max => write!(f, "{}({a}, {b})", op.symbol()),
                _ => write!(f, "({a} {} {b})", op.symbol()),
            },
        }
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl $trait for KernelExpr {
            type Output = KernelExpr;
            fn $method(self, rhs: KernelExpr) -> KernelExpr {
                KernelExpr::Binary { op: $op, a: Box::new(self), b: Box::new(rhs) }
            }
        }

        impl $trait<f64> for KernelExpr {
            type Output = KernelExpr;
            fn $method(self, rhs: f64) -> KernelExpr {
                KernelExpr::Binary { op: $op, a: Box::new(self), b: Box::new(lit(rhs)) }
            }
        }

        impl $trait<KernelExpr> for f64 {
            type Output = KernelExpr;
            fn $method(self, rhs: KernelExpr) -> KernelExpr {
                KernelExpr::Binary { op: $op, a: Box::new(lit(self)), b: Box::new(rhs) }
            }
        }
    };
}

impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);

impl Neg for KernelExpr {
    type Output = KernelExpr;
    fn neg(self) -> KernelExpr {
        KernelExpr::Unary { op: UnaryOp::Neg, a: Box::new(self) }
    }
}

/// The 5-point Jacobi relaxation kernel of Listing 1:
/// `p0 * centre + p1 * (N + W + E + S)`.
pub fn jacobi_5pt() -> KernelExpr {
    param(0) * load(0, 0) + param(1) * (load(0, -1) + load(-1, 0) + load(1, 0) + load(0, 1))
}

/// A 9-point (box) smoothing kernel: `p0 * centre + p1 * Σ(8 neighbours)`.
pub fn smooth_9pt() -> KernelExpr {
    let mut sum: Option<KernelExpr> = None;
    for dy in -1..=1i64 {
        for dx in -1..=1i64 {
            if dx == 0 && dy == 0 {
                continue;
            }
            sum = Some(match sum {
                Some(s) => s + load(dx, dy),
                None => load(dx, dy),
            });
        }
    }
    param(0) * load(0, 0) + param(1) * sum.expect("eight neighbours")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_operators_compose() {
        let e = (load(1, 0) + load(-1, 0)) * param(0) - lit(3.0) / load(0, 0);
        assert_eq!(e.num_params(), 1);
        assert_eq!(e.offsets(), vec![(1, 0), (-1, 0), (0, 0)]);
        assert_eq!(e.radius(), 1);
        assert_eq!(e.node_count(), 9);
    }

    #[test]
    fn scalar_operand_overloads() {
        let e = 2.0 * load(0, 0) + 1.0;
        let mut loads = |_dx: i64, _dy: i64| 5.0;
        assert_eq!(e.eval(&mut loads, &[]), 11.0);
        let e2 = load(0, 0) - 1.0;
        assert_eq!(e2.eval(&mut loads, &[]), 4.0);
        let e3 = 10.0 / load(0, 0);
        assert_eq!(e3.eval(&mut loads, &[]), 2.0);
    }

    #[test]
    fn eval_matches_manual_jacobi() {
        // A tiny synthetic field: value = 10*x + y relative to the centre.
        let mut loads = |dx: i64, dy: i64| (10 * dx + dy) as f64;
        let v = jacobi_5pt().eval(&mut loads, &[0.5, 0.125]);
        // centre = 0; N + W + E + S = (-1) + (-10) + (10) + (1) = 0.
        assert_eq!(v, 0.0);
        let v2 = jacobi_5pt().eval(&mut loads, &[2.0, 1.0]);
        assert_eq!(v2, 0.0);
        // Asymmetric parameters pick up the centre value only.
        let mut loads2 = |dx: i64, dy: i64| if dx == 0 && dy == 0 { 7.0 } else { 1.0 };
        let v3 = jacobi_5pt().eval(&mut loads2, &[0.5, 0.125]);
        assert!((v3 - (0.5 * 7.0 + 0.125 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn unary_helpers() {
        let mut loads = |_dx: i64, _dy: i64| -9.0;
        assert_eq!(load(0, 0).abs().eval(&mut loads, &[]), 9.0);
        assert_eq!(load(0, 0).abs().sqrt().eval(&mut loads, &[]), 3.0);
        assert_eq!((-load(0, 0)).eval(&mut loads, &[]), 9.0);
        assert_eq!(load(0, 0).min(lit(0.0)).eval(&mut loads, &[]), -9.0);
        assert_eq!(load(0, 0).max(lit(0.0)).eval(&mut loads, &[]), 0.0);
    }

    #[test]
    fn missing_params_default_to_zero() {
        let mut loads = |_dx: i64, _dy: i64| 1.0;
        assert_eq!(param(3).eval(&mut loads, &[]), 0.0);
        assert_eq!(param(0).eval(&mut loads, &[4.0]), 4.0);
    }

    #[test]
    fn offsets_are_deduplicated() {
        let e = load(0, 0) + load(0, 0) + load(1, 0);
        assert_eq!(e.offsets(), vec![(0, 0), (1, 0)]);
    }

    #[test]
    fn stock_kernels() {
        assert_eq!(jacobi_5pt().offsets().len(), 5);
        assert_eq!(jacobi_5pt().num_params(), 2);
        assert_eq!(smooth_9pt().offsets().len(), 9);
        assert_eq!(smooth_9pt().radius(), 1);
    }

    #[test]
    fn display_is_readable() {
        let e = param(0) * load(0, 0) + lit(1.5);
        let s = format!("{e}");
        assert!(s.contains("p0"));
        assert!(s.contains("u[+0,+0]"));
        assert!(s.contains("1.5"));
        assert!(format!("{}", load(1, -1).abs()).contains("abs"));
        assert!(format!("{}", load(1, 0).min(load(0, 1))).starts_with("min("));
    }

    #[test]
    fn binop_semantics() {
        assert_eq!(BinOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(BinOp::Div.apply(3.0, 2.0), 1.5);
        assert_eq!(BinOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(BinOp::Max.apply(2.0, 3.0), 3.0);
        assert!(BinOp::Add.commutative());
        assert!(!BinOp::Sub.commutative());
        assert_eq!(UnaryOp::Neg.apply(2.0), -2.0);
        assert_eq!(UnaryOp::Abs.apply(-2.0), 2.0);
        assert_eq!(UnaryOp::Sqrt.apply(4.0), 2.0);
    }
}
