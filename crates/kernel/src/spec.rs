//! Monomorphic specialization and cross-job fusion of compiled tapes.
//!
//! # The three execution tiers
//!
//! The platform executes a subkernel at one of three tiers, each bit-identical
//! to the last (property-tested in `backend.rs` and here):
//!
//! 1. **Tree-walk oracle** — one `match` per DAG node per cell.  Kept as the
//!    reference interpreter behind the `tree-walk` feature.
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
//! # Cross-job batch fusion
//!
//! [`FusedKernel`] fuses **up to [`MAX_FUSION_WIDTH`] compatible kernels**
//! (same block extent and same interior region — i.e. the same stencil reach
//! — but arbitrary distinct tapes and offset sets) into one multi-root pass:
//! register files are
//! concatenated with an offset rebase, load deltas are rebased into a
//! per-member segment of one concatenated cell buffer, and one sweep of the
//! fused tape produces every member's output.  Per-member roots and
//! [`ExecStats`] stay separate, so each member's results and counters are
//! bit-identical to an unfused [`CompiledKernel::execute_block`] run — the
//! service layer relies on this to fuse queued jobs without perturbing
//! reports, checksums or metering.  When every member is specialized the
//! fused sweep runs each member's monomorphic loop back-to-back.
//!
//! [`ExecTape`]: crate::tape::ExecTape
//! [`AccessPlan`]: crate::plan::AccessPlan

use crate::backend::{ExecStats, Processor};
use crate::plan::{CompiledKernel, HaloRing, InteriorRegion, ResolvedAccess};
use crate::tape::{ExecScratch, ExecTape, PreludeOp, Reg, TapeOp, TapeStats, LANES, WIDE};
use serde::Serialize;
use std::fmt;
use std::sync::Arc;

/// Maximum number of kernels [`FusedKernel::fuse`] will fuse into one pass.
pub const MAX_FUSION_WIDTH: usize = 8;

/// Which specialized super-instruction loop (if any) a compiled kernel runs.
///
/// Recorded on the [`CompiledKernel`] artifact at compile time, carried
/// through `PortableKernel` frames, and surfaced in the service's `JobReport`
/// so a run is always explainable: `Generic` means the interpreted tape,
/// anything else names the monomorphic loop that replaced it.
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
    /// scalar remainder) and its `ExecStats` accounting exactly.  `base` is
    /// the member offset into `cells`/`out` when running inside a
    /// [`FusedKernel`] (0 for a solo kernel).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_region(
        &self,
        cells: &[f64],
        out: &mut [f64],
        base: usize,
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
                    1 => self.run_region::<$k, 1>(
                        cells, out, base, interior, nx, lanes, w0, w1, ops, stats,
                    ),
                    2 => self.run_region::<$k, 2>(
                        cells, out, base, interior, nx, lanes, w0, w1, ops, stats,
                    ),
                    3 => self.run_region::<$k, 3>(
                        cells, out, base, interior, nx, lanes, w0, w1, ops, stats,
                    ),
                    4 => self.run_region::<$k, 4>(
                        cells, out, base, interior, nx, lanes, w0, w1, ops, stats,
                    ),
                    6 => self.run_region::<$k, 6>(
                        cells, out, base, interior, nx, lanes, w0, w1, ops, stats,
                    ),
                    7 => self.run_region::<$k, 7>(
                        cells, out, base, interior, nx, lanes, w0, w1, ops, stats,
                    ),
                    8 => self.run_region::<$k, 8>(
                        cells, out, base, interior, nx, lanes, w0, w1, ops, stats,
                    ),
                    9 => self.run_region::<$k, 9>(
                        cells, out, base, interior, nx, lanes, w0, w1, ops, stats,
                    ),
                    11 => self.run_region::<$k, 11>(
                        cells, out, base, interior, nx, lanes, w0, w1, ops, stats,
                    ),
                    12 => self.run_region::<$k, 12>(
                        cells, out, base, interior, nx, lanes, w0, w1, ops, stats,
                    ),
                    13 => self.run_region::<$k, 13>(
                        cells, out, base, interior, nx, lanes, w0, w1, ops, stats,
                    ),
                    14 => self.run_region::<$k, 14>(
                        cells, out, base, interior, nx, lanes, w0, w1, ops, stats,
                    ),
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
        base: usize,
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
                    let idx = base + (y * nx + x) as usize;
                    out[idx] = exec_cell_spec::<K, FORM>(cells, idx, dc, deltas, w0, w1);
                    stats.interior_cells += 1;
                    stats.scalar_ops += ops;
                }
            } else {
                let mut x = interior.x0;
                while x + (WIDE as i64) <= interior.x1 {
                    let idx = base + (y * nx + x) as usize;
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
                    let idx = base + (y * nx + x) as usize;
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
                    let idx = base + (y * nx + x) as usize;
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

/// Broadcast a fused prelude into a lane register file **by destination
/// register** (a fused prelude's dsts are member-rebased, not positional).
#[inline]
fn broadcast_by_dst<const N: usize>(
    prelude: &[PreludeOp],
    regs: &[f64],
    lane_regs: &mut [[f64; N]],
) {
    for op in prelude {
        let dst = match *op {
            PreludeOp::Const { dst, .. } | PreludeOp::Param { dst, .. } => dst as usize,
        };
        lane_regs[dst] = [regs[dst]; N];
    }
}

/// Several compatible compiled kernels fused into one multi-root pass.
///
/// Members must share an identical [`AccessPlan`](crate::plan::AccessPlan)
/// (same block extent, same offsets in the same order); their tapes may be
/// arbitrary and distinct.  Fusion concatenates register files (operand
/// registers rebased per member), rebases every load delta into the member's
/// segment of one concatenated cell buffer (`member_index * cells_per_block`),
/// and keeps one root register per member.  One sweep of the fused tape —
/// or, when every member is specialized, back-to-back monomorphic loops —
/// produces all members' outputs, while each member's output bits and
/// [`ExecStats`] counters remain exactly what a solo
/// [`CompiledKernel::execute_block`] would have produced.
#[derive(Debug, Clone)]
pub struct FusedKernel {
    members: Vec<Arc<CompiledKernel>>,
    tape: ExecTape,
    roots: Vec<Reg>,
    reg_bases: Vec<usize>,
    param_bases: Vec<usize>,
    num_params: usize,
    max_slots: usize,
    /// The longest member halo ring (members take turns in one buffer).
    max_ring: usize,
    all_specialized: bool,
}

impl FusedKernel {
    /// Fuse `members` into one pass.  Returns `None` when the batch is not
    /// fusable: fewer than 2 or more than [`MAX_FUSION_WIDTH`] members, a
    /// mismatched block extent or interior region (the sweep structure must
    /// be identical for every member — offsets may differ as long as the
    /// stencil reach, and therefore the interior rectangle, agrees), or a
    /// combined register file that exceeds the tape's register width.
    pub fn fuse(members: Vec<Arc<CompiledKernel>>) -> Option<FusedKernel> {
        if members.len() < 2 || members.len() > MAX_FUSION_WIDTH {
            return None;
        }
        let plan = members[0].plan();
        if members.iter().skip(1).any(|m| {
            let p = m.plan();
            p.extent_nx != plan.extent_nx
                || p.extent_ny != plan.extent_ny
                || p.interior != plan.interior
        }) {
            return None;
        }
        let total_regs: usize = members.iter().map(|m| m.tape().num_regs()).sum();
        if total_regs >= u16::MAX as usize {
            return None;
        }
        let cells = plan.cells();
        let mut prelude = Vec::new();
        let mut body = Vec::new();
        let mut load_table: Vec<(u16, isize)> = Vec::new();
        let mut roots = Vec::with_capacity(members.len());
        let mut reg_bases = Vec::with_capacity(members.len());
        let mut param_bases = Vec::with_capacity(members.len());
        let mut stats = TapeStats::default();
        let (mut rb, mut pb) = (0usize, 0usize);
        for (m, member) in members.iter().enumerate() {
            let t = member.tape();
            let cb = (m * cells) as isize;
            let tb = load_table.len() as u16;
            let r = rb as Reg;
            for op in &t.prelude {
                prelude.push(match *op {
                    PreludeOp::Const { dst, bits } => PreludeOp::Const { dst: dst + r, bits },
                    PreludeOp::Param { dst, index } => {
                        PreludeOp::Param { dst: dst + r, index: index + pb }
                    }
                });
            }
            for op in &t.body {
                body.push(match *op {
                    TapeOp::Load { dst, slot, delta } => {
                        TapeOp::Load { dst: dst + r, slot, delta: delta + cb }
                    }
                    TapeOp::Unary { op, dst, a } => TapeOp::Unary { op, dst: dst + r, a: a + r },
                    TapeOp::Binary { op, dst, a, b } => {
                        TapeOp::Binary { op, dst: dst + r, a: a + r, b: b + r }
                    }
                    TapeOp::LoadUnary { op, dst, slot, delta } => {
                        TapeOp::LoadUnary { op, dst: dst + r, slot, delta: delta + cb }
                    }
                    TapeOp::LoadBinLhs { op, dst, slot, delta, b } => {
                        TapeOp::LoadBinLhs { op, dst: dst + r, slot, delta: delta + cb, b: b + r }
                    }
                    TapeOp::LoadBinRhs { op, dst, a, slot, delta } => {
                        TapeOp::LoadBinRhs { op, dst: dst + r, a: a + r, slot, delta: delta + cb }
                    }
                    TapeOp::MulAdd { dst, a, b, c } => {
                        TapeOp::MulAdd { dst: dst + r, a: a + r, b: b + r, c: c + r }
                    }
                    TapeOp::MulMulAdd { dst, a, b, c, d } => {
                        TapeOp::MulMulAdd { dst: dst + r, a: a + r, b: b + r, c: c + r, d: d + r }
                    }
                    TapeOp::SumLoads { dst, start, count } => {
                        TapeOp::SumLoads { dst: dst + r, start: start + tb, count }
                    }
                    TapeOp::AccLoads { dst, a, start, count } => {
                        TapeOp::AccLoads { dst: dst + r, a: a + r, start: start + tb, count }
                    }
                });
            }
            load_table.extend(t.load_table.iter().map(|&(s, d)| (s, d + cb)));
            roots.push(t.root + r);
            reg_bases.push(rb);
            param_bases.push(pb);
            let ts = t.stats();
            stats.dag_nodes += ts.dag_nodes;
            stats.prelude_len += ts.prelude_len;
            stats.body_len += ts.body_len;
            stats.fused_loads += ts.fused_loads;
            stats.fused_muladds += ts.fused_muladds;
            stats.fused_chains += ts.fused_chains;
            stats.max_live += ts.max_live;
            rb += t.num_regs();
            pb += member.num_params();
        }
        stats.registers = rb;
        let tape = ExecTape {
            prelude,
            body,
            load_table,
            root: *roots.last().expect("at least two members"),
            num_regs: rb,
            ops_per_cell: members.iter().map(|m| m.op_count()).sum(),
            stats,
        };
        let all_specialized = members.iter().all(|m| m.spec().is_some());
        let max_slots =
            members.iter().map(|m| m.plan().offsets.len()).max().expect("non-empty batch");
        let max_ring =
            members.iter().map(|m| m.plan().ring.slots()).max().expect("non-empty batch");
        Some(FusedKernel {
            members,
            tape,
            roots,
            reg_bases,
            param_bases,
            num_params: pb,
            max_slots,
            max_ring,
            all_specialized,
        })
    }

    /// The fused members, in fusion order.
    pub fn members(&self) -> &[Arc<CompiledKernel>] {
        &self.members
    }

    /// Number of fused members.
    pub fn width(&self) -> usize {
        self.members.len()
    }

    /// Cells per member block (each member's segment of the concatenated
    /// cell/output buffers is this long).
    pub fn cells_per_member(&self) -> usize {
        self.members[0].plan().cells()
    }

    /// Total runtime parameters of the concatenated parameter slice; member
    /// `m`'s parameters start at [`FusedKernel::param_base`]`(m)`.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Offset of member `m`'s parameters in the concatenated slice.
    pub fn param_base(&self, m: usize) -> usize {
        self.param_bases[m]
    }

    /// Whether every member runs its monomorphic specialized loop (the fused
    /// sweep then performs zero interpreter dispatch).
    pub fn all_specialized(&self) -> bool {
        self.all_specialized
    }

    /// Pre-size a scratch for this fused kernel so later
    /// [`execute_block`](FusedKernel::execute_block) calls allocate nothing.
    pub fn prepare_scratch(&self, scratch: &mut ExecScratch, processor: Processor) {
        scratch.ensure(
            self.tape.num_regs,
            self.max_slots,
            self.max_ring,
            processor != Processor::Scalar,
        );
    }

    /// [`execute_block_ring`](FusedKernel::execute_block_ring) with every
    /// ring filled one cell at a time: `halo(m, x, y)` resolves member `m`'s
    /// out-of-block load and is called once per ring cell.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_block(
        &self,
        cells: &[f64],
        params: &[f64],
        halo: &mut impl FnMut(usize, i64, i64) -> f64,
        out: &mut [f64],
        processor: Processor,
        stats: &mut [ExecStats],
        scratch: &mut ExecScratch,
    ) {
        let fill = |m: usize, ring: &HaloRing, buf: &mut [f64]| {
            ring.fill_per_cell(buf, |x, y| halo(m, x, y))
        };
        self.execute_block_ring(cells, params, fill, out, processor, stats, scratch);
    }

    /// Execute one fused block: `cells`/`out` are `width * cells_per_member`
    /// long (member-major), `params` is the concatenated parameter slice,
    /// `fill(m, ring, buf)` fills member `m`'s halo ring (called once per
    /// member, before that member's boundary cells are evaluated), and
    /// `stats[m]` receives member `m`'s counters — bit-identical, member by
    /// member, to `width` solo `execute_block_ring` calls.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_block_ring(
        &self,
        cells: &[f64],
        params: &[f64],
        mut fill: impl FnMut(usize, &HaloRing, &mut [f64]),
        out: &mut [f64],
        processor: Processor,
        stats: &mut [ExecStats],
        scratch: &mut ExecScratch,
    ) {
        let n = self.members.len();
        let plan = self.members[0].plan();
        let b = plan.cells();
        assert_eq!(cells.len(), n * b, "fused cells slice must be width * block cells");
        assert_eq!(out.len(), n * b, "fused out slice must be width * block cells");
        assert_eq!(stats.len(), n, "one ExecStats per fused member");
        assert!(
            params.len() >= self.num_params,
            "fused kernel: {} runtime parameter(s) supplied but the members declare {}",
            params.len(),
            self.num_params
        );
        let lanes = processor != Processor::Scalar;
        scratch.ensure(self.tape.num_regs, self.max_slots, self.max_ring, lanes);
        for s in stats.iter_mut() {
            s.blocks += 1;
            s.cells += b as u64;
        }
        let ExecScratch { regs, lane_regs, wide_regs, operands, ring } = scratch;
        self.tape.run_prelude(params, regs);

        let nx = plan.extent_nx as i64;
        let interior = plan.interior;
        if self.all_specialized {
            for (m, member) in self.members.iter().enumerate() {
                let spec = member.spec().expect("all members specialized");
                let rb = self.reg_bases[m];
                let (w0, w1) = spec.weight_regs();
                spec.exec_region(
                    cells,
                    out,
                    m * b,
                    &interior,
                    plan.extent_nx,
                    lanes,
                    regs[rb + w0 as usize],
                    regs[rb + w1 as usize],
                    member.op_count(),
                    &mut stats[m],
                );
            }
        } else if !lanes {
            for y in interior.y0..interior.y1 {
                for x in interior.x0..interior.x1 {
                    let idx = (y * nx + x) as usize;
                    self.tape.exec_cell(cells, idx, regs);
                    for (m, member) in self.members.iter().enumerate() {
                        out[m * b + idx] = regs[self.roots[m] as usize];
                        stats[m].interior_cells += 1;
                        stats[m].scalar_ops += member.op_count();
                    }
                }
            }
        } else {
            broadcast_by_dst(&self.tape.prelude, regs, lane_regs);
            broadcast_by_dst(&self.tape.prelude, regs, wide_regs);
            let last = n - 1;
            for y in interior.y0..interior.y1 {
                let mut x = interior.x0;
                while x + (WIDE as i64) <= interior.x1 {
                    let base = (y * nx + x) as usize;
                    // The fused root is the last member's root, so exec_lanes
                    // lands member `last` directly; the rest copy from their
                    // root lane registers.
                    let lb = last * b + base;
                    self.tape.exec_lanes(cells, base, wide_regs, &mut out[lb..lb + WIDE]);
                    for (m, member) in self.members.iter().enumerate() {
                        if m != last {
                            out[m * b + base..m * b + base + WIDE]
                                .copy_from_slice(&wide_regs[self.roots[m] as usize]);
                        }
                        stats[m].interior_cells += WIDE as u64;
                        stats[m].vector_ops += member.op_count() * (WIDE / LANES) as u64;
                    }
                    x += WIDE as i64;
                }
                while x + (LANES as i64) <= interior.x1 {
                    let base = (y * nx + x) as usize;
                    let lb = last * b + base;
                    self.tape.exec_lanes(cells, base, lane_regs, &mut out[lb..lb + LANES]);
                    for (m, member) in self.members.iter().enumerate() {
                        if m != last {
                            out[m * b + base..m * b + base + LANES]
                                .copy_from_slice(&lane_regs[self.roots[m] as usize]);
                        }
                        stats[m].interior_cells += LANES as u64;
                        stats[m].vector_ops += member.op_count();
                    }
                    x += LANES as i64;
                }
                while x < interior.x1 {
                    let idx = (y * nx + x) as usize;
                    self.tape.exec_cell(cells, idx, regs);
                    for (m, member) in self.members.iter().enumerate() {
                        out[m * b + idx] = regs[self.roots[m] as usize];
                        stats[m].interior_cells += 1;
                        stats[m].scalar_ops += member.op_count();
                    }
                    x += 1;
                }
            }
        }

        // Boundary: each member runs its own generic tape over its own
        // segment with its own plan's resolved accesses and its own halo
        // ring.  The member's pinned registers already sit at its rebased
        // positions (the fused prelude filled them), so its register file is
        // simply the fused file's slice.
        for (m, member) in self.members.iter().enumerate() {
            let t = member.tape();
            let rb = self.reg_bases[m];
            let mregs = &mut regs[rb..rb + t.num_regs()];
            let ops = member.op_count();
            let ring = &mut ring[..member.plan().ring.slots()];
            fill(m, &member.plan().ring, ring);
            stats[m].halo_fetches += member.plan().ring.cells() as u64;
            for cell in &member.plan().boundary {
                for (operand, access) in operands.iter_mut().zip(&cell.accesses) {
                    *operand = match *access {
                        ResolvedAccess::InBlock(idx) => cells[m * b + idx],
                        ResolvedAccess::Halo { slot } => ring[slot],
                    };
                }
                out[m * b + cell.index] = t.exec_operands(operands, mregs);
                stats[m].boundary_cells += 1;
                stats[m].scalar_ops += ops;
            }
        }

        if processor == Processor::Accelerator {
            let f64_bytes = std::mem::size_of::<f64>() as u64;
            for (member, s) in self.members.iter().zip(stats.iter_mut()) {
                s.offload_bytes_in += (b as u64 + member.plan().halo_loads() as u64) * f64_bytes;
                s.offload_bytes_out += b as u64 * f64_bytes;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{lit, load, param};
    use crate::opt::OptLevel;
    use crate::program::StencilProgram;
    use aohpc_env::Extent;

    fn compile(program: &StencilProgram, nx: usize, ny: usize) -> Arc<CompiledKernel> {
        Arc::new(CompiledKernel::compile(program, Extent::new2d(nx, ny), OptLevel::Full))
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
                for proc in [Processor::Scalar, Processor::Simd, Processor::Accelerator] {
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

    #[test]
    fn fusion_requires_compatible_plans() {
        let a = compile(&StencilProgram::jacobi_5pt(), 16, 8);
        let b = compile(&StencilProgram::jacobi_5pt(), 8, 8);
        assert!(FusedKernel::fuse(vec![a.clone(), b]).is_none(), "extent mismatch");
        assert!(FusedKernel::fuse(vec![a.clone()]).is_none(), "width 1 is not a fusion");
        let many = vec![a.clone(); MAX_FUSION_WIDTH + 1];
        assert!(FusedKernel::fuse(many).is_none(), "over-wide batches are rejected");
        let two = FusedKernel::fuse(vec![a.clone(), a]).expect("same plan fuses");
        assert_eq!(two.width(), 2);
        assert!(two.all_specialized());
    }

    /// Fused execution ≡ N sequential solo executions: per-member output bits
    /// and per-member ExecStats, for specialized and mixed (interpreted)
    /// batches, on every processor.
    #[test]
    fn fused_matches_sequential_members_bitwise() {
        use crate::backend::Processor;
        let (nx, ny) = (43usize, 5usize);
        let jacobi = StencilProgram::jacobi_5pt();
        let smooth = StencilProgram::smooth_9pt();
        // `mixed` stays generic, forcing the interpreted fused sweep.
        let mixed = StencilProgram::new(
            "mixed",
            (-load(0, 0)).abs() + param(0) * (load(1, 0) - load(-1, 0)) / lit(2.0) + load(0, 1)
                - load(0, -1),
            1,
        )
        .unwrap();
        let batches: Vec<Vec<&StencilProgram>> =
            vec![vec![&jacobi, &smooth], vec![&jacobi, &mixed, &smooth], vec![&mixed, &mixed]];
        for programs in batches {
            let members: Vec<_> = programs.iter().map(|p| compile(p, nx, ny)).collect();
            let fused = FusedKernel::fuse(members.clone()).expect("same-extent batch fuses");
            let n = fused.width();
            let b = fused.cells_per_member();
            // Distinct field contents and parameters per member.
            let cells: Vec<f64> =
                (0..n * b).map(|i| ((i * 29 + 13) % 101) as f64 / 101.0 - 0.4).collect();
            let mut params = Vec::new();
            let mut member_params = Vec::new();
            for (m, member) in members.iter().enumerate() {
                let p: Vec<f64> =
                    (0..member.num_params()).map(|j| 0.5 / (m + j + 1) as f64).collect();
                params.extend_from_slice(&p);
                member_params.push(p);
            }
            for proc in [Processor::Scalar, Processor::Simd, Processor::Accelerator] {
                let mut fused_out = vec![0.0; n * b];
                let mut fused_stats = vec![ExecStats::default(); n];
                let mut scratch = ExecScratch::new();
                fused.execute_block(
                    &cells,
                    &params,
                    &mut |m, x, y| boundary(x, y) + m as f64,
                    &mut fused_out,
                    proc,
                    &mut fused_stats,
                    &mut scratch,
                );
                for (m, member) in members.iter().enumerate() {
                    let mut solo_out = vec![0.0; b];
                    let mut solo_stats = ExecStats::default();
                    let mut solo_scratch = ExecScratch::new();
                    member.execute_block(
                        &cells[m * b..(m + 1) * b],
                        &member_params[m],
                        &mut |x, y| boundary(x, y) + m as f64,
                        &mut solo_out,
                        proc,
                        &mut solo_stats,
                        &mut solo_scratch,
                    );
                    for (i, (a, c)) in
                        fused_out[m * b..(m + 1) * b].iter().zip(&solo_out).enumerate()
                    {
                        assert_eq!(
                            a.to_bits(),
                            c.to_bits(),
                            "member {m} ({}) {proc:?} cell {i}",
                            member.name()
                        );
                    }
                    assert_eq!(
                        fused_stats[m],
                        solo_stats,
                        "member {m} ({}) {proc:?} stats",
                        member.name()
                    );
                }
            }
        }
    }
}
