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
//!    prelude hoisted out of the cell loop.  Still an interpreter, a row at
//!    a time: every row of the block pays one dispatch per tape instruction,
//!    and every instruction is a loop over the row, its result stored in a
//!    register row.
//! 3. **Specialized** ([`SpecializedKernel`]) — this module.  When the lowered
//!    tape matches a known hot *shape*, the whole block runs as one
//!    monomorphic, const-generic row loop with **zero interpreter dispatch**
//!    and no register rows.  The decision is made once, at
//!    [`CompiledKernel`] compile time, so a shared plan cache amortizes it
//!    across every job (and every node) that runs the program.
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
//! # The framed tile
//!
//! Both tiers run from the same tile: the block's rows in a ghost frame as
//! wide as the program reaches, the filled ring's runs placed in the frame.
//! A block lent in a frame that wide is its own tile; any other block is
//! copied into the [`ExecScratch`]'s tile first.  A specialized kernel
//! computes every cell alike from `K + 1` sub-slices of length `nx` a row:
//! no bounds checks, and the loop vectorises.  Frame positions no run fills
//! (a 5-point stencil's corners) are never read.  Both processors run this
//! one loop and differ only in the [`ExecStats`] they are accounted
//! (`AccessPlan::exec_stats`).
//!
//! [`ExecTape`]: crate::tape::ExecTape
//! [`ExecScratch`]: crate::tape::ExecScratch
//! [`ExecStats`]: crate::backend::ExecStats
//! [`CompiledKernel`]: crate::plan::CompiledKernel

use crate::plan::AccessPlan;
use crate::tape::{ExecTape, Reg, TapeOp};
use aohpc_env::Frame;
use std::fmt;

/// Which specialized super-instruction loop (if any) a compiled kernel runs.
///
/// Recorded on the [`CompiledKernel`] artifact at compile time and surfaced
/// in the service's `JobReport`
/// so a run is always explainable: `Generic` means the interpreted tape,
/// anything else names the monomorphic loop that replaced it.
///
/// [`CompiledKernel`]: crate::plan::CompiledKernel
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// A tape that matched a hot shape at compile time: everything the
/// monomorphic block loop needs, resolved once.
///
/// Owned by [`CompiledKernel`]; the prelude still fills the weight registers,
/// and the loop replaces the tape's row interpreter.
///
/// [`CompiledKernel`]: crate::plan::CompiledKernel
#[derive(Debug, Clone, PartialEq)]
pub struct SpecializedKernel {
    /// Tile index of block cell (0, 0)'s centre load (cell `(x, y)` adds
    /// `y * width + x`).
    dc: usize,
    /// Tile indices of its K summed neighbour loads, in fold order.
    deltas: Vec<usize>,
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
    pub(crate) fn try_match(tape: &ExecTape, plan: &AccessPlan) -> Option<SpecializedKernel> {
        let [TapeOp::Load { dst: rc, delta: centre }, TapeOp::SumLoads { dst: rs, start, count }, TapeOp::MulMulAdd { dst, a, b, c, d }] =
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

        let at = |delta: isize| (plan.tile.offset(0) as isize + delta) as usize;
        let table = &tape.load_table[start as usize..(start + count) as usize];
        Some(SpecializedKernel {
            dc: at(centre),
            deltas: table.iter().map(|&delta| at(delta)).collect(),
            w0,
            w1,
            form: (pc * 4 + ps) as u8,
        })
    }

    /// The stable identifier recorded on the artifact.
    pub fn id(&self) -> SpecializationId {
        SpecializationId::WeightedSum { neighbors: self.deltas.len() as u8, form: self.form }
    }

    /// Execute one block: run every cell of `plan`'s filled `tile` through
    /// the monomorphic row loop into `out`, the block's rows framed
    /// `out_frame` wide.  `regs` holds the prelude's pinned registers, one
    /// value each.
    pub(crate) fn exec_block(
        &self,
        plan: &AccessPlan,
        tile: &[f64],
        regs: &[f64],
        out: &mut [f64],
        out_frame: usize,
    ) {
        let (nx, width) = (plan.extent_nx, plan.tile.stride());
        let out = Frame::new(nx, plan.extent_ny, out_frame).rows_mut(out);
        let (w0, w1) = (regs[self.w0 as usize], regs[self.w1 as usize]);
        macro_rules! forms {
            ($k:literal) => {
                match self.form {
                    1 => self.sweep::<$k, 1>(tile, nx, width, out, w0, w1),
                    2 => self.sweep::<$k, 2>(tile, nx, width, out, w0, w1),
                    3 => self.sweep::<$k, 3>(tile, nx, width, out, w0, w1),
                    4 => self.sweep::<$k, 4>(tile, nx, width, out, w0, w1),
                    6 => self.sweep::<$k, 6>(tile, nx, width, out, w0, w1),
                    7 => self.sweep::<$k, 7>(tile, nx, width, out, w0, w1),
                    8 => self.sweep::<$k, 8>(tile, nx, width, out, w0, w1),
                    9 => self.sweep::<$k, 9>(tile, nx, width, out, w0, w1),
                    11 => self.sweep::<$k, 11>(tile, nx, width, out, w0, w1),
                    12 => self.sweep::<$k, 12>(tile, nx, width, out, w0, w1),
                    13 => self.sweep::<$k, 13>(tile, nx, width, out, w0, w1),
                    14 => self.sweep::<$k, 14>(tile, nx, width, out, w0, w1),
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

    /// The row loop, instantiated per `(K, FORM)`: each cell is the tape's
    /// body — centre load, K-neighbour sum folded left in load order,
    /// weighted top in `FORM`'s operand order (two multiplies, one add, three
    /// roundings, no FMA) — so it is bit-identical to the tape.
    fn sweep<'o, const K: usize, const FORM: usize>(
        &self,
        tile: &[f64],
        nx: usize,
        width: usize,
        out: impl Iterator<Item = &'o mut [f64]>,
        w0: f64,
        w1: f64,
    ) {
        let deltas: &[usize; K] = self.deltas[..].try_into().expect("K matches delta count");
        for (y, row) in out.enumerate() {
            let at = |d: usize| &tile[y * width + d..][..nx];
            let centre = at(self.dc);
            let neighbours: [&[f64]; K] = std::array::from_fn(|k| at(deltas[k]));
            for (x, o) in row[..nx].iter_mut().enumerate() {
                let (c, mut s) = (centre[x], neighbours[0][x]);
                for n in &neighbours[1..] {
                    s += n[x];
                }
                *o = pick::<FORM>(0, w0, w1, c, s) * pick::<FORM>(1, w0, w1, c, s)
                    + pick::<FORM>(2, w0, w1, c, s) * pick::<FORM>(3, w0, w1, c, s);
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
    use crate::backend::framing::{framed, unframed};
    use crate::backend::{ExecStats, Processor};
    use crate::expr::{lit, load, param};
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

    const PARAMS: [f64; 2] = [0.5, 0.125];

    /// One block of `k` through the specialized path or the tape, on a fresh
    /// scratch: the outputs and the stats.
    fn block(
        k: &CompiledKernel,
        cells: &[f64],
        mut halo: impl FnMut(i64, i64) -> f64,
        proc: Processor,
        specialized: bool,
    ) -> (Vec<f64>, ExecStats) {
        let (mut out, mut stats, s) =
            (vec![0.0; cells.len()], ExecStats::default(), &mut ExecScratch::new());
        if specialized {
            k.execute_block(cells, &PARAMS, &mut halo, &mut out, proc, &mut stats, s);
        } else {
            k.execute_block_unspecialized(cells, &PARAMS, &mut halo, &mut out, proc, &mut stats, s);
        }
        (out, stats)
    }

    /// The specialized path must be bit-identical to the generic tape —
    /// outputs and ExecStats — on every processor: at widths that give the
    /// tape super-groups, lane groups and remainders; on blocks narrower or
    /// shorter than the stencil's reach (1×N, N×1, 2×2), where the interior
    /// is empty and every cell is a boundary cell; for a one-sided stencil,
    /// whose ring has no left or top run; and with the ring's four corners
    /// bumped, which on the 9-point ring moves exactly the block's corners.
    #[test]
    fn specialized_matches_generic_bitwise() {
        let sizes = [(43usize, 5usize), (16, 8), (9, 4), (1, 7), (7, 1), (2, 2), (1, 1)];
        // All offsets right of and below the centre: no left or top pad.
        let e = param(0) * load(0, 0) + param(1) * (load(1, 0) + load(2, 0) + load(0, 2));
        let one_sided = StencilProgram::new("one-sided", e, 2).unwrap();
        for program in [StencilProgram::jacobi_5pt(), StencilProgram::smooth_9pt(), one_sided] {
            for (nx, ny) in sizes {
                let k = compile(&program, nx, ny);
                assert_ne!(k.specialization(), SpecializationId::Generic);
                let cells: Vec<f64> =
                    (0..nx * ny).map(|i| ((i * 31 + 7) % 97) as f64 / 97.0 - 0.2).collect();
                // `d` cells out from the block's corners: 1 the ring's, 0 its own.
                let (w, h) = (nx as i64 - 1, ny as i64 - 1);
                let corner = |x, y, d: i64| (-d == x || w + d == x) && (-d == y || h + d == y);
                let bumped = |x, y| boundary(x, y) + if corner(x, y, 1) { 4.0 } else { 0.0 };
                for proc in [Processor::Scalar, Processor::Simd] {
                    let what = format!("{} {nx}x{ny} {proc:?}", program.name());
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let mut outs = Vec::new();
                    for halo in [&boundary as &dyn Fn(i64, i64) -> f64, &bumped] {
                        let (spec, spec_stats) = block(&k, &cells, halo, proc, true);
                        let (generic, generic_stats) = block(&k, &cells, halo, proc, false);
                        assert_eq!(bits(&spec), bits(&generic), "{what}");
                        assert_eq!(spec_stats, generic_stats, "{what} stats");
                        outs.push(spec);
                    }
                    if program.name() == "smooth-9pt" {
                        for (i, (a, b)) in outs[0].iter().zip(&outs[1]).enumerate() {
                            let (x, y) = ((i % nx) as i64, (i / nx) as i64);
                            assert_eq!(a != b, corner(x, y, 0), "{what} cell ({x}, {y})");
                        }
                    }
                }
            }
        }
    }

    /// A block reads its own cells and the ring's loaded slots only, on
    /// either tier, for a specialized program and a generic one (the
    /// benchmark mix's cold shape): with every ring slot no run covers (the
    /// 5-point corners) holding NaN — and, lent in its own frame, every
    /// frame cell the ring does not fill — and on a scratch whose whole tile
    /// a larger kernel left NaN, every output is finite and bit-equal to a
    /// fresh scratch's.
    #[test]
    fn unloaded_ring_slots_are_never_read() {
        let sum = load(1, -1) + load(-1, 0) + load(0, 1);
        let e = param(0) * load(0, 0) + param(1) * (sum * lit(0.625));
        let cold = StencilProgram::new("cold", e, 2).unwrap();
        // A 9-point kernel over NaN cells and a NaN ring fills every position
        // of its tile, which spans every smaller kernel's.
        let stale = || {
            let (big, n) = (compile(&StencilProgram::smooth_9pt(), 24, 24), 24 * 24);
            let mut scratch = ExecScratch::new();
            let (nan, mut out) = (vec![f64::NAN; n], vec![0.0; n]);
            let (halo, stats) = (&mut |_, _| f64::NAN, &mut ExecStats::default());
            big.execute_block(
                &nan,
                &PARAMS,
                halo,
                &mut out,
                Processor::Scalar,
                stats,
                &mut scratch,
            );
            assert!(scratch.tile.iter().all(|v| v.is_nan()));
            scratch
        };
        for program in [StencilProgram::jacobi_5pt(), cold] {
            for (nx, ny) in [(16usize, 8usize), (1, 5), (5, 1), (2, 2)] {
                let k = compile(&program, nx, ny);
                let cells: Vec<f64> = (0..nx * ny).map(|i| (i % 5) as f64 * 0.25 + 1.0).collect();
                // `Some(width)`: the block lent in a NaN frame `width` wide,
                // the ring API with every slot NaN before the runs' fill —
                // width 0 runs the specialized loop through the scratch's
                // tile, the kernel's own width runs it in place; `None`: the
                // tape with the specialized loop off.
                let block = |scratch: &mut ExecScratch, proc, ring: Option<usize>| {
                    let (mut out, stats) = (vec![0.0; nx * ny], &mut ExecStats::default());
                    if let Some(width) = ring {
                        let buf = k.ring_buf(scratch);
                        buf.fill(f64::NAN);
                        k.plan().ring.fill_per_cell(buf, |x, y| (x + y) as f64);
                        let mut read = framed(&cells, nx, ny, width, f64::NAN);
                        let mut lent = vec![f64::NAN; read.len()];
                        k.execute_block_framed(
                            &mut read, width, &PARAMS, &mut lent, proc, stats, scratch,
                        );
                        out = unframed(&lent, nx, ny, width);
                    } else {
                        let halo = &mut |x, y| (x + y) as f64;
                        k.execute_block_unspecialized(
                            &cells, &PARAMS, halo, &mut out, proc, stats, scratch,
                        );
                    }
                    out
                };
                for ring in [Some(0), Some(k.frame()), None] {
                    for proc in [Processor::Scalar, Processor::Simd] {
                        let what = format!("{} {nx}x{ny} {proc:?} ring {ring:?}", program.name());
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let want = bits(&block(&mut ExecScratch::new(), proc, ring));
                        assert!(want.iter().all(|&v| f64::from_bits(v).is_finite()), "{what}");
                        for mut scratch in [ExecScratch::new(), stale()] {
                            for _ in 0..3 {
                                assert_eq!(bits(&block(&mut scratch, proc, ring)), want, "{what}");
                            }
                        }
                    }
                }
            }
        }
    }
}
