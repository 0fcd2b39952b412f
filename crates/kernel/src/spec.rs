//! Monomorphic specialization of compiled tapes.
//!
//! # The three execution tiers
//!
//! The platform executes a subkernel at one of three tiers, each bit-identical
//! to the last (property-tested in `backend.rs` and here):
//!
//! 1. **Tree-walk oracle** — one `Dag::eval` per cell.  The reference the
//!    other two are tested against; compiled for this crate's tests only.
//! 2. **Tape** ([`ExecTape`]) — the register-allocated lowering: fused
//!    super-instructions (`SumLoads`, `MulMulAdd`, …), baked addressing, a
//!    prelude hoisted out of the cell loop.  Still an interpreter: every cell
//!    pays one dispatch per tape instruction.
//! 3. **Specialized** ([`SpecializedKernel`]) — this module.  When the lowered
//!    tape matches a known hot *shape*, the whole per-cell body is replaced by
//!    one monomorphic, const-generic loop ([`exec_cell_spec`] /
//!    [`exec_lanes_spec`]) with **zero interpreter dispatch**.  The decision is
//!    made once, at [`CompiledKernel`] compile time, so a shared plan cache
//!    amortizes it across every job (and every node) that runs the program.
//!
//! # How a shape qualifies
//!
//! The first (and currently only) shape is the **weighted-sum stencil**, the
//! fig06 family of the paper: `alpha*centre + beta*(sum of K neighbours)`.
//! After lowering, such a program's body is exactly three instructions:
//!
//! ```text
//! r_c = load centre            ; TapeOp::Load
//! r_s = sumloads n0 n1 … nK    ; TapeOp::SumLoads, 2 ≤ K ≤ 8
//! root = r_a*r_b + r_c*r_d     ; TapeOp::MulMulAdd over {r_c, r_s, w0, w1}
//! ```
//!
//! where the `MulMulAdd` reads the centre register exactly once, the sum
//! register exactly once, and two *pinned* (prelude) registers — the weights.
//! The positions of centre/sum among the four `MulMulAdd` operands are encoded
//! in the `form` of the [`SpecializationId`], and the specialized loop
//! preserves the exact operand order (and therefore the exact IEEE-754
//! rounding sequence) of the generic tape: no algebraic reassociation, no FMA.
//! Jacobi 5-point qualifies with `K = 4`, the 9-point smoother with `K = 8`.
//!
//! Anything else keeps [`SpecializationId::Generic`] and runs on the tape —
//! specialization is a pure fast path, never a semantic fork.
//!
//! [`ExecTape`]: crate::tape::ExecTape
//! [`CompiledKernel`]: crate::plan::CompiledKernel

use crate::backend::ExecStats;
use crate::plan::InteriorRegion;
use crate::tape::{ExecTape, Reg, TapeOp, LANES, WIDE};
use serde::Serialize;
use std::fmt;

/// Which specialized super-instruction loop (if any) a compiled kernel runs.
///
/// Recorded on the [`CompiledKernel`] artifact at compile time, carried
/// through `PortableKernel` frames, and surfaced in the service's `JobReport`
/// so a run is always explainable: `Generic` means the interpreted tape,
/// anything else names the monomorphic loop that replaced it.
///
/// [`CompiledKernel`]: crate::plan::CompiledKernel
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SpecializationId {
    /// No shape matched: the kernel interprets its tape.
    Generic,
    /// The weighted-sum stencil `w0*centre + w1*(K-neighbour sum)`.
    WeightedSum {
        /// Number of neighbour loads folded into the sum (2 ≤ K ≤ 8).
        neighbors: u8,
        /// Operand layout of the `MulMulAdd` top: `form = pc*4 + ps` where
        /// `pc`/`ps` are the positions of the centre and sum registers among
        /// the four operands.  Preserved so the specialized loop reproduces
        /// the generic rounding order exactly.
        form: u8,
    },
}

impl fmt::Display for SpecializationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SpecializationId::Generic => write!(f, "generic"),
            SpecializationId::WeightedSum { neighbors, form } => {
                write!(f, "weighted-sum/{neighbors}pt/form{form}")
            }
        }
    }
}

/// Select the value of one `MulMulAdd` operand position for the weighted-sum
/// shape.  `FORM` is a compile-time constant, so the whole chain folds to a
/// single register move in the monomorphized loop.
#[inline(always)]
fn pick<const FORM: usize>(pos: usize, w0: f64, w1: f64, c: f64, s: f64) -> f64 {
    let pc = FORM / 4;
    let ps = FORM % 4;
    let fw = if pc != 0 && ps != 0 {
        0
    } else if pc != 1 && ps != 1 {
        1
    } else {
        2
    };
    if pos == pc {
        c
    } else if pos == ps {
        s
    } else if pos == fw {
        w0
    } else {
        w1
    }
}

/// A fixed-size view of one lane-group of cells (same trick as the tape's
/// lane interpreter: the array type drops bounds checks and vectorises).
#[inline(always)]
fn strip<const N: usize>(cells: &[f64], base: usize, delta: isize) -> &[f64; N] {
    let start = (base as isize + delta) as usize;
    cells[start..start + N].try_into().expect("lane strip is N long")
}

/// Execute the weighted-sum super-instruction for one interior cell: the
/// entire tape body — centre load, K-neighbour left-fold, weighted top — as
/// one monomorphic function with zero interpreter dispatch.
///
/// Bit-identical to the generic tape: the neighbour sum folds left in load
/// order and the `FORM` encoding preserves the exact `MulMulAdd` operand
/// order (two multiplies, one add — three roundings, no FMA).
#[inline(always)]
pub fn exec_cell_spec<const K: usize, const FORM: usize>(
    cells: &[f64],
    idx: usize,
    dc: isize,
    deltas: &[isize; K],
    w0: f64,
    w1: f64,
) -> f64 {
    let c = cells[(idx as isize + dc) as usize];
    let mut s = cells[(idx as isize + deltas[0]) as usize];
    for &d in &deltas[1..] {
        s += cells[(idx as isize + d) as usize];
    }
    pick::<FORM>(0, w0, w1, c, s) * pick::<FORM>(1, w0, w1, c, s)
        + pick::<FORM>(2, w0, w1, c, s) * pick::<FORM>(3, w0, w1, c, s)
}

/// Lane-parallel [`exec_cell_spec`]: `N` consecutive interior cells per call,
/// results written to `out[..N]`.  Element order matches the tape's lane
/// interpreter exactly, so lane results stay bit-identical too.
#[inline(always)]
pub fn exec_lanes_spec<const K: usize, const FORM: usize, const N: usize>(
    cells: &[f64],
    base: usize,
    dc: isize,
    deltas: &[isize; K],
    w0: f64,
    w1: f64,
    out: &mut [f64],
) {
    let c = strip::<N>(cells, base, dc);
    let mut s = *strip::<N>(cells, base, deltas[0]);
    for &d in &deltas[1..] {
        let vx = strip::<N>(cells, base, d);
        for (v, &x) in s.iter_mut().zip(vx) {
            *v += x;
        }
    }
    for (k, o) in out.iter_mut().enumerate().take(N) {
        *o = pick::<FORM>(0, w0, w1, c[k], s[k]) * pick::<FORM>(1, w0, w1, c[k], s[k])
            + pick::<FORM>(2, w0, w1, c[k], s[k]) * pick::<FORM>(3, w0, w1, c[k], s[k]);
    }
}

/// A tape that matched a hot shape at compile time: everything the
/// monomorphic interior loop needs, resolved once.
///
/// Owned by [`CompiledKernel`]; the generic boundary path and the prelude are
/// untouched — specialization replaces only the interior sweep.
///
/// [`CompiledKernel`]: crate::plan::CompiledKernel
#[derive(Debug, Clone, PartialEq)]
pub struct SpecializedKernel {
    /// Row-major delta of the centre load.
    dc: isize,
    /// Row-major deltas of the K summed neighbour loads, in fold order.
    deltas: Vec<isize>,
    /// Pinned (prelude) register of the first weight, in operand order.
    w0: Reg,
    /// Pinned register of the second weight.
    w1: Reg,
    /// `pc*4 + ps` operand layout of the `MulMulAdd` top.
    form: u8,
}

impl SpecializedKernel {
    /// Pattern-match a lowered tape against the known hot shapes.  Returns
    /// `None` (stay generic) unless the *entire* body is covered by a
    /// specialized loop.
    pub(crate) fn try_match(tape: &ExecTape) -> Option<SpecializedKernel> {
        let [TapeOp::Load { dst: rc, delta: dc, .. }, TapeOp::SumLoads { dst: rs, start, count }, TapeOp::MulMulAdd { dst, a, b, c, d }] =
            tape.body[..]
        else {
            return None;
        };
        if dst != tape.root || rc == rs {
            return None;
        }
        let k = count as usize;
        if !(2..=MAX_NEIGHBORS).contains(&k) {
            return None;
        }
        let pinned = tape.prelude.len() as Reg;
        let pos = [a, b, c, d];
        let exactly_one = |reg: Reg| -> Option<usize> {
            let mut hits = pos.iter().enumerate().filter(|&(_, &r)| r == reg);
            let first = hits.next()?.0;
            hits.next().is_none().then_some(first)
        };
        let pc = exactly_one(rc)?;
        let ps = exactly_one(rs)?;
        let mut ws = pos.iter().enumerate().filter(|&(i, _)| i != pc && i != ps).map(|(_, &r)| r);
        let w0 = ws.next().expect("two weight positions");
        let w1 = ws.next().expect("two weight positions");
        if w0 >= pinned || w1 >= pinned {
            return None;
        }
        let deltas =
            tape.load_table[start as usize..(start + count) as usize].iter().map(|&(_, d)| d);
        Some(SpecializedKernel { dc, deltas: deltas.collect(), w0, w1, form: (pc * 4 + ps) as u8 })
    }

    /// The stable identifier recorded on the artifact.
    pub fn id(&self) -> SpecializationId {
        SpecializationId::WeightedSum { neighbors: self.deltas.len() as u8, form: self.form }
    }

    /// Pinned registers holding the two weights (read after the prelude ran).
    pub(crate) fn weight_regs(&self) -> (Reg, Reg) {
        (self.w0, self.w1)
    }

    /// Sweep the interior region with the monomorphic loop, reproducing the
    /// generic backend's group structure (WIDE super-groups, LANES groups,
    /// scalar remainder) and its `ExecStats` accounting exactly.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_region(
        &self,
        cells: &[f64],
        out: &mut [f64],
        interior: &InteriorRegion,
        nx: usize,
        lanes: bool,
        w0: f64,
        w1: f64,
        ops: u64,
        stats: &mut ExecStats,
    ) {
        macro_rules! forms {
            ($k:literal) => {
                match self.form {
                    1 => self
                        .run_region::<$k, 1>(cells, out, interior, nx, lanes, w0, w1, ops, stats),
                    2 => self
                        .run_region::<$k, 2>(cells, out, interior, nx, lanes, w0, w1, ops, stats),
                    3 => self
                        .run_region::<$k, 3>(cells, out, interior, nx, lanes, w0, w1, ops, stats),
                    4 => self
                        .run_region::<$k, 4>(cells, out, interior, nx, lanes, w0, w1, ops, stats),
                    6 => self
                        .run_region::<$k, 6>(cells, out, interior, nx, lanes, w0, w1, ops, stats),
                    7 => self
                        .run_region::<$k, 7>(cells, out, interior, nx, lanes, w0, w1, ops, stats),
                    8 => self
                        .run_region::<$k, 8>(cells, out, interior, nx, lanes, w0, w1, ops, stats),
                    9 => self
                        .run_region::<$k, 9>(cells, out, interior, nx, lanes, w0, w1, ops, stats),
                    11 => self
                        .run_region::<$k, 11>(cells, out, interior, nx, lanes, w0, w1, ops, stats),
                    12 => self
                        .run_region::<$k, 12>(cells, out, interior, nx, lanes, w0, w1, ops, stats),
                    13 => self
                        .run_region::<$k, 13>(cells, out, interior, nx, lanes, w0, w1, ops, stats),
                    14 => self
                        .run_region::<$k, 14>(cells, out, interior, nx, lanes, w0, w1, ops, stats),
                    other => unreachable!("invalid weighted-sum form {other}"),
                }
            };
        }
        match self.deltas.len() {
            2 => forms!(2),
            3 => forms!(3),
            4 => forms!(4),
            5 => forms!(5),
            6 => forms!(6),
            7 => forms!(7),
            8 => forms!(8),
            other => unreachable!("invalid neighbour count {other}"),
        }
    }

    /// The monomorphic sweep, instantiated per `(K, FORM)`.
    #[allow(clippy::too_many_arguments)]
    fn run_region<const K: usize, const FORM: usize>(
        &self,
        cells: &[f64],
        out: &mut [f64],
        interior: &InteriorRegion,
        nx: usize,
        lanes: bool,
        w0: f64,
        w1: f64,
        ops: u64,
        stats: &mut ExecStats,
    ) {
        let deltas: &[isize; K] = self.deltas[..].try_into().expect("K matches delta count");
        let dc = self.dc;
        let nx = nx as i64;
        for y in interior.y0..interior.y1 {
            if !lanes {
                for x in interior.x0..interior.x1 {
                    let idx = (y * nx + x) as usize;
                    out[idx] = exec_cell_spec::<K, FORM>(cells, idx, dc, deltas, w0, w1);
                    stats.interior_cells += 1;
                    stats.scalar_ops += ops;
                }
            } else {
                let mut x = interior.x0;
                while x + (WIDE as i64) <= interior.x1 {
                    let idx = (y * nx + x) as usize;
                    exec_lanes_spec::<K, FORM, WIDE>(
                        cells,
                        idx,
                        dc,
                        deltas,
                        w0,
                        w1,
                        &mut out[idx..idx + WIDE],
                    );
                    stats.interior_cells += WIDE as u64;
                    stats.vector_ops += ops * (WIDE / LANES) as u64;
                    x += WIDE as i64;
                }
                while x + (LANES as i64) <= interior.x1 {
                    let idx = (y * nx + x) as usize;
                    exec_lanes_spec::<K, FORM, LANES>(
                        cells,
                        idx,
                        dc,
                        deltas,
                        w0,
                        w1,
                        &mut out[idx..idx + LANES],
                    );
                    stats.interior_cells += LANES as u64;
                    stats.vector_ops += ops;
                    x += LANES as i64;
                }
                while x < interior.x1 {
                    let idx = (y * nx + x) as usize;
                    out[idx] = exec_cell_spec::<K, FORM>(cells, idx, dc, deltas, w0, w1);
                    stats.interior_cells += 1;
                    stats.scalar_ops += ops;
                    x += 1;
                }
            }
        }
    }
}

/// Upper bound on the neighbour count a weighted-sum shape may fold (the
/// largest `K` with a monomorphic instantiation).
const MAX_NEIGHBORS: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{load, param};
    use crate::opt::OptLevel;
    use crate::plan::CompiledKernel;
    use crate::program::StencilProgram;
    use crate::tape::ExecScratch;
    use aohpc_env::Extent;

    fn compile(program: &StencilProgram, nx: usize, ny: usize) -> CompiledKernel {
        CompiledKernel::compile(program, Extent::new2d(nx, ny), OptLevel::Full)
    }

    fn boundary(x: i64, y: i64) -> f64 {
        ((x * 3 - y) % 7) as f64 * 0.125
    }

    #[test]
    fn jacobi_and_smooth_specialize() {
        let j = compile(&StencilProgram::jacobi_5pt(), 16, 8);
        match j.specialization() {
            SpecializationId::WeightedSum { neighbors: 4, .. } => {}
            other => panic!("jacobi should specialize as a 4-neighbour weighted sum: {other}"),
        }
        let s = compile(&StencilProgram::smooth_9pt(), 16, 8);
        match s.specialization() {
            SpecializationId::WeightedSum { neighbors: 8, .. } => {}
            other => panic!("smooth should specialize as an 8-neighbour weighted sum: {other}"),
        }
    }

    #[test]
    fn non_matching_shapes_stay_generic() {
        // abs() in the body: no weighted-sum shape.
        let p = StencilProgram::new(
            "absy",
            (load(0, 0) - load(1, 0)).abs() + param(0) * load(-1, 0),
            1,
        )
        .unwrap();
        let k = compile(&p, 8, 8);
        assert_eq!(k.specialization(), SpecializationId::Generic);
        // A single-neighbour "sum" does not produce SumLoads at all.
        let p2 =
            StencilProgram::new("one", param(0) * load(0, 0) + param(1) * load(1, 0), 2).unwrap();
        let k2 = compile(&p2, 8, 8);
        assert_eq!(k2.specialization(), SpecializationId::Generic);
    }

    #[test]
    fn specialization_id_displays() {
        assert_eq!(SpecializationId::Generic.to_string(), "generic");
        assert_eq!(
            SpecializationId::WeightedSum { neighbors: 4, form: 7 }.to_string(),
            "weighted-sum/4pt/form7"
        );
    }

    /// The specialized path must be bit-identical to the generic tape —
    /// outputs and ExecStats — on every processor, including the widths that
    /// exercise super-groups, lane groups and remainders.
    #[test]
    fn specialized_matches_generic_bitwise() {
        use crate::backend::Processor;
        for program in [StencilProgram::jacobi_5pt(), StencilProgram::smooth_9pt()] {
            for (nx, ny) in [(43usize, 5usize), (16, 8), (9, 4)] {
                let k = compile(&program, nx, ny);
                assert_ne!(k.specialization(), SpecializationId::Generic);
                let cells: Vec<f64> =
                    (0..nx * ny).map(|i| ((i * 31 + 7) % 97) as f64 / 97.0 - 0.2).collect();
                let params = [0.5, 0.125];
                let mut scratch = ExecScratch::new();
                for proc in [Processor::Scalar, Processor::Simd] {
                    let mut spec_out = vec![0.0; nx * ny];
                    let mut spec_stats = ExecStats::default();
                    k.execute_block(
                        &cells,
                        &params,
                        &mut boundary,
                        &mut spec_out,
                        proc,
                        &mut spec_stats,
                        &mut scratch,
                    );
                    let mut gen_out = vec![0.0; nx * ny];
                    let mut gen_stats = ExecStats::default();
                    k.execute_block_unspecialized(
                        &cells,
                        &params,
                        &mut boundary,
                        &mut gen_out,
                        proc,
                        &mut gen_stats,
                        &mut scratch,
                    );
                    for (i, (a, b)) in spec_out.iter().zip(&gen_out).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{} {nx}x{ny} {proc:?} cell {i}",
                            program.name()
                        );
                    }
                    assert_eq!(spec_stats, gen_stats, "{} {proc:?} stats", program.name());
                }
            }
        }
    }
}
