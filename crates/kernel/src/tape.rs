//! The execution tape: a register-allocated lowering of the optimized DAG.
//!
//! The tree-walking interpreter in earlier revisions re-walked the [`Node`]
//! enum for every cell: one `match` per node per cell, constants and runtime
//! parameters re-materialized per cell, a `values` buffer as long as the whole
//! DAG heap-allocated per block, and the load→offset-slot mapping recomputed
//! by linear search on every `execute_block` call.  The paper's pitch is that
//! composed building blocks run "as fast as hand-written loops", so the hot
//! interior must not pay any of that.
//!
//! [`ExecTape::lower`] turns the `(Dag, AccessPlan)` pair into a flat
//! instruction tape once, at [`CompiledKernel`](crate::plan::CompiledKernel)
//! compile time:
//!
//! * **Prelude hoisting** — `Const` and `Param` nodes become a once-per-block
//!   *prelude* that fills pinned registers; the per-cell body never touches
//!   them again.  (The tree-walk re-broadcast both per cell per node.)
//! * **Baked addressing** — each load instruction carries both its offset
//!   *slot* (index into [`AccessPlan::offsets`], used by the boundary path)
//!   and its row-major *delta* (used by the interior), so no search or lookup
//!   table survives to run time.
//! * **Fusion** — a load whose value is consumed exactly once folds into its
//!   consumer ([`TapeOp::LoadUnary`], [`TapeOp::LoadBinLhs`],
//!   [`TapeOp::LoadBinRhs`]), and an `Add` whose operand is a single-use
//!   `Mul` becomes [`TapeOp::MulAdd`].  `MulAdd` keeps the two IEEE-754
//!   roundings of the unfused sequence (it is *not* an FMA), so tape results
//!   stay bit-identical to the tree-walk oracle.
//! * **Liveness-based register allocation** — body registers are released at
//!   their last use and reused, so the scratch a block needs is
//!   `prelude + max_live` registers instead of `dag.len()` values.
//!
//! The tape is interpreted from a caller-provided [`ExecScratch`], so steady
//! state executes with **zero allocations per block** (asserted by the
//! `no_alloc` regression test with a counting allocator).  [`ScratchPool`]
//! lets long-lived hosts (the multi-tenant service) recycle scratch across
//! jobs per worker.
//!
//! The tape is the *middle* of three execution tiers — tree-walk oracle →
//! tape → specialized — each bit-identical to the last.  When the lowered
//! tape matches a known hot shape, [`crate::spec::SpecializedKernel`] runs
//! the whole block, boundary included, as one monomorphic row loop over a
//! padded tile; see `spec.rs` for how a shape qualifies and
//! `BENCH_kernel.json` for the measured trajectory across tiers.

use crate::expr::{BinOp, UnaryOp};
use crate::opt::{Dag, Node};
use crate::plan::AccessPlan;
use parking_lot::Mutex;
use serde::Serialize;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of cells one vector lane-group processes.
pub const LANES: usize = 8;

/// Width of the interior super-group: the lane backends dispatch each tape
/// instruction over `WIDE` consecutive cells (4 lane-groups) where the row is
/// wide enough, amortising interpretation overhead without changing the
/// modelled SIMD width — `ExecStats` still accounts one vector op per
/// [`LANES`]-wide group.
pub const WIDE: usize = 4 * LANES;

/// A register index into the scratch register file.
pub type Reg = u16;

/// A once-per-block prelude instruction (fills a pinned register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PreludeOp {
    /// `r[dst] = constant` (stored as bits so the tape is hashable/serializable).
    Const {
        /// Destination register.
        dst: Reg,
        /// IEEE-754 bits of the constant.
        bits: u64,
    },
    /// `r[dst] = params[index]`.
    Param {
        /// Destination register.
        dst: Reg,
        /// Runtime-parameter index.
        index: usize,
    },
}

/// A per-cell body instruction.
///
/// `slot` is the index into [`AccessPlan::offsets`] (what the boundary path
/// gathers operands by); `delta` is the row-major index delta of that offset
/// (what the interior adds to the cell index).  Both are baked in at lowering
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum TapeOp {
    /// `r[dst] = load(slot)`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Offset slot (boundary operand index).
        slot: u16,
        /// Row-major index delta (interior addressing).
        delta: isize,
    },
    /// `r[dst] = op(r[a])`.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Destination register.
        dst: Reg,
        /// Operand register.
        a: Reg,
    },
    /// `r[dst] = op(r[a], r[b])`.
    Binary {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// Fused `r[dst] = op(load(slot))`.
    LoadUnary {
        /// Operator.
        op: UnaryOp,
        /// Destination register.
        dst: Reg,
        /// Offset slot.
        slot: u16,
        /// Row-major index delta.
        delta: isize,
    },
    /// Fused `r[dst] = op(load(slot), r[b])` (the load is the left operand).
    LoadBinLhs {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Offset slot.
        slot: u16,
        /// Row-major index delta.
        delta: isize,
        /// Right operand register.
        b: Reg,
    },
    /// Fused `r[dst] = op(r[a], load(slot))` (the load is the right operand).
    LoadBinRhs {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Offset slot.
        slot: u16,
        /// Row-major index delta.
        delta: isize,
    },
    /// Fused `r[dst] = r[a] * r[b] + r[c]`, evaluated with the *two* roundings
    /// of the unfused mul-then-add sequence (not an FMA) so results stay
    /// bit-identical to the tree-walk oracle.
    MulAdd {
        /// Destination register.
        dst: Reg,
        /// Multiplicand register.
        a: Reg,
        /// Multiplier register.
        b: Reg,
        /// Addend register.
        c: Reg,
    },
    /// Fused `r[dst] = r[a] * r[b] + r[c] * r[d]` — the two-term weighted
    /// stencil top (`alpha*centre + beta*neighbour_sum`).  Three roundings,
    /// exactly as the unfused mul/mul/add sequence.
    MulMulAdd {
        /// Destination register.
        dst: Reg,
        /// First multiplicand register.
        a: Reg,
        /// First multiplier register.
        b: Reg,
        /// Second multiplicand register.
        c: Reg,
        /// Second multiplier register.
        d: Reg,
    },
    /// Fused left-leaning add chain of single-use loads — the neighbour sum
    /// every stencil has: `r[dst] = ((load₀ + load₁) + load₂) + …` over
    /// `count` entries of the tape's load table starting at `start`.  The
    /// left fold keeps the exact rounding order of the unfused chain.
    SumLoads {
        /// Destination register.
        dst: Reg,
        /// First entry in the load table.
        start: u16,
        /// Number of loads folded (≥ 2).
        count: u16,
    },
    /// Like [`TapeOp::SumLoads`] but seeded by a register:
    /// `r[dst] = ((r[a] + load₀) + load₁) + …`.
    AccLoads {
        /// Destination register.
        dst: Reg,
        /// Seed register (the chain's deepest non-load operand).
        a: Reg,
        /// First entry in the load table.
        start: u16,
        /// Number of loads folded (≥ 2).
        count: u16,
    },
}

/// Compile-time statistics of one lowering (reported by the bench harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TapeStats {
    /// Nodes in the source DAG.
    pub dag_nodes: usize,
    /// Prelude instructions (hoisted constants + parameters).
    pub prelude_len: usize,
    /// Per-cell body instructions after fusion.
    pub body_len: usize,
    /// Loads folded into their consumer (including chain-fused loads).
    pub fused_loads: usize,
    /// `Mul`+`Add` pairs folded into [`TapeOp::MulAdd`].
    pub fused_muladds: usize,
    /// Add chains folded into [`TapeOp::SumLoads`] / [`TapeOp::AccLoads`].
    pub fused_chains: usize,
    /// Registers the tape needs in total (prelude + peak body liveness).
    pub registers: usize,
    /// Peak number of simultaneously live body registers.
    pub max_live: usize,
}

/// A flat, register-allocated execution program for one `(Dag, AccessPlan)`
/// pair.  See the [module docs](self) for the lowering rules.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecTape {
    pub(crate) prelude: Vec<PreludeOp>,
    pub(crate) body: Vec<TapeOp>,
    /// `(slot, delta)` pairs referenced by chain instructions, in fold order.
    pub(crate) load_table: Vec<(u16, isize)>,
    pub(crate) root: Reg,
    num_regs: usize,
    ops_per_cell: u64,
    stats: TapeStats,
}

/// Symbolic instruction used between fusion marking and register allocation:
/// operands are still DAG node ids.
enum SymOp {
    Load { node: usize, slot: u16, delta: isize },
    Unary { op: UnaryOp, node: usize, a: usize },
    Binary { op: BinOp, node: usize, a: usize, b: usize },
    LoadUnary { op: UnaryOp, node: usize, slot: u16, delta: isize },
    LoadBinLhs { op: BinOp, node: usize, slot: u16, delta: isize, b: usize },
    LoadBinRhs { op: BinOp, node: usize, a: usize, slot: u16, delta: isize },
    MulAdd { node: usize, a: usize, b: usize, c: usize },
    MulMulAdd { node: usize, a: usize, b: usize, c: usize, d: usize },
    SumLoads { node: usize, start: u16, count: u16 },
    AccLoads { node: usize, a: usize, start: u16, count: u16 },
}

impl SymOp {
    /// DAG node this instruction defines.
    fn def(&self) -> usize {
        match *self {
            SymOp::Load { node, .. }
            | SymOp::Unary { node, .. }
            | SymOp::Binary { node, .. }
            | SymOp::LoadUnary { node, .. }
            | SymOp::LoadBinLhs { node, .. }
            | SymOp::LoadBinRhs { node, .. }
            | SymOp::MulAdd { node, .. }
            | SymOp::MulMulAdd { node, .. }
            | SymOp::SumLoads { node, .. }
            | SymOp::AccLoads { node, .. } => node,
        }
    }

    /// DAG nodes this instruction reads from registers.
    fn reads(&self, out: &mut Vec<usize>) {
        out.clear();
        match *self {
            SymOp::Load { .. } | SymOp::LoadUnary { .. } | SymOp::SumLoads { .. } => {}
            SymOp::Unary { a, .. } => out.push(a),
            SymOp::Binary { a, b, .. } => {
                out.push(a);
                out.push(b);
            }
            SymOp::LoadBinLhs { b, .. } => out.push(b),
            SymOp::LoadBinRhs { a, .. } | SymOp::AccLoads { a, .. } => out.push(a),
            SymOp::MulAdd { a, b, c, .. } => {
                out.push(a);
                out.push(b);
                out.push(c);
            }
            SymOp::MulMulAdd { a, b, c, d, .. } => {
                out.push(a);
                out.push(b);
                out.push(c);
                out.push(d);
            }
        }
    }
}

/// How a node is folded into its (single) consumer, if at all.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Inlined {
    /// The node emits its own instruction.
    No,
    /// A single-use load folded into its consumer.
    IntoLoadOp,
    /// A single-use `Mul` folded into a consumer `Add` as a `MulAdd`.
    IntoMulAdd,
    /// A single-use node absorbed into an add-chain
    /// ([`TapeOp::SumLoads`] / [`TapeOp::AccLoads`]).
    IntoChain,
}

/// For every DAG node, the index of its load offset in `plan.offsets`
/// (`usize::MAX` for non-load nodes).
fn load_slot_table(dag: &Dag, plan: &AccessPlan) -> Vec<usize> {
    dag.nodes()
        .iter()
        .map(|n| match n {
            Node::Load { dx, dy } => plan
                .offsets
                .iter()
                .position(|&o| o == (*dx, *dy))
                .expect("plan offsets cover every live load"),
            _ => usize::MAX,
        })
        .collect()
}

impl ExecTape {
    /// Lower a DAG + plan into a tape.  Panics if the plan's offsets do not
    /// cover every load in the DAG (the plan is built from the same DAG, so
    /// this only fires on internal misuse).
    pub fn lower(dag: &Dag, plan: &AccessPlan) -> Self {
        let nodes = dag.nodes();
        let root = dag.root();
        assert!(
            nodes.len() < u16::MAX as usize,
            "DAG with {} nodes exceeds the tape's register width",
            nodes.len()
        );

        // Slot + linear delta of every load node.
        let slot_of: Vec<Option<(u16, isize)>> = load_slot_table(dag, plan)
            .into_iter()
            .map(|slot| (slot != usize::MAX).then(|| (slot as u16, plan.linear_offsets[slot])))
            .collect();

        // Use counts: references as an operand, plus one for the root (its
        // register is read once per cell to produce the output).
        let mut uses = vec![0usize; nodes.len()];
        for n in nodes {
            match *n {
                Node::Unary { a, .. } => uses[a] += 1,
                Node::Binary { a, b, .. } => {
                    uses[a] += 1;
                    uses[b] += 1;
                }
                _ => {}
            }
        }
        uses[root] += 1;

        // Fusion marking, consumers before producers (children have smaller
        // ids, so descending order visits every consumer first).  A node that
        // is itself inlined emits no instruction and therefore cannot absorb
        // one of its own operands.
        let mut inlined = vec![Inlined::No; nodes.len()];
        // For chain heads: (seed node, chain loads in left-fold order).
        let mut chains: Vec<Option<(Option<usize>, Vec<usize>)>> = vec![None; nodes.len()];
        let mut fused_loads = 0usize;
        let mut fused_muladds = 0usize;
        let mut fused_chains = 0usize;
        let is_load = |n: usize| matches!(nodes[n], Node::Load { .. });
        let is_add = |n: usize| matches!(nodes[n], Node::Binary { op: BinOp::Add, .. });
        for i in (0..nodes.len()).rev() {
            if inlined[i] != Inlined::No {
                continue;
            }
            match nodes[i] {
                Node::Unary { a, .. } if uses[a] == 1 && is_load(a) => {
                    inlined[a] = Inlined::IntoLoadOp;
                    fused_loads += 1;
                }
                Node::Binary { op, a, b } => {
                    // Chain fusion first: `(((x + l₀) + l₁) + l₂)` — the
                    // neighbour-sum spine of every stencil — collapses into a
                    // single SumLoads/AccLoads, absorbing the whole left
                    // spine.  The optimizer builds these chains left-leaning,
                    // so only `b` positions carry the trailing loads.
                    if op == BinOp::Add {
                        let chain_b = |n: usize| {
                            let Node::Binary { op: BinOp::Add, a, b } = nodes[n] else {
                                return false;
                            };
                            a != b && uses[b] == 1 && is_load(b)
                        };
                        if chain_b(i) {
                            let mut loads_rev = Vec::new();
                            let mut spine = Vec::new();
                            let mut cur = i;
                            let seed = loop {
                                let Node::Binary { a, b, .. } = nodes[cur] else { unreachable!() };
                                loads_rev.push(b);
                                if uses[a] == 1
                                    && is_add(a)
                                    && inlined[a] == Inlined::No
                                    && chain_b(a)
                                {
                                    spine.push(a);
                                    cur = a;
                                    continue;
                                }
                                if uses[a] == 1 && is_load(a) {
                                    loads_rev.push(a);
                                    break None;
                                }
                                break Some(a);
                            };
                            if loads_rev.len() >= 2 {
                                loads_rev.reverse();
                                for &l in &loads_rev {
                                    inlined[l] = Inlined::IntoChain;
                                }
                                for &s in &spine {
                                    inlined[s] = Inlined::IntoChain;
                                }
                                fused_loads += loads_rev.len();
                                fused_chains += 1;
                                chains[i] = Some((seed, loads_rev));
                                continue;
                            }
                        }
                        // Mul-add next: it saves a whole instruction *and* a
                        // register, where a load fusion only saves the load.
                        let mul =
                            |n: usize| matches!(nodes[n], Node::Binary { op: BinOp::Mul, .. });
                        // Both operands single-use muls: the two-term weighted
                        // stencil top, one MulMulAdd.
                        if a != b && uses[a] == 1 && mul(a) && uses[b] == 1 && mul(b) {
                            inlined[a] = Inlined::IntoMulAdd;
                            inlined[b] = Inlined::IntoMulAdd;
                            fused_muladds += 2;
                            continue;
                        }
                        if uses[a] == 1 && mul(a) {
                            inlined[a] = Inlined::IntoMulAdd;
                            fused_muladds += 1;
                            continue;
                        }
                        if a != b && uses[b] == 1 && mul(b) {
                            inlined[b] = Inlined::IntoMulAdd;
                            fused_muladds += 1;
                            continue;
                        }
                    }
                    if uses[a] == 1 && is_load(a) {
                        inlined[a] = Inlined::IntoLoadOp;
                        fused_loads += 1;
                    } else if a != b && uses[b] == 1 && is_load(b) {
                        inlined[b] = Inlined::IntoLoadOp;
                        fused_loads += 1;
                    }
                }
                _ => {}
            }
        }

        // Prelude: constants and parameters get pinned registers 0..P.
        let mut prelude = Vec::new();
        let mut reg_of: Vec<Option<Reg>> = vec![None; nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            match *n {
                Node::Const(bits) => {
                    let dst = prelude.len() as Reg;
                    prelude.push(PreludeOp::Const { dst, bits });
                    reg_of[i] = Some(dst);
                }
                Node::Param(index) => {
                    let dst = prelude.len() as Reg;
                    prelude.push(PreludeOp::Param { dst, index });
                    reg_of[i] = Some(dst);
                }
                _ => {}
            }
        }
        let pinned = prelude.len();

        // Symbolic body in topological order; fused nodes emit nothing.
        let mut sym = Vec::new();
        let mut load_table: Vec<(u16, isize)> = Vec::new();
        for (i, n) in nodes.iter().enumerate() {
            if inlined[i] != Inlined::No {
                continue;
            }
            match *n {
                Node::Const(_) | Node::Param(_) => {}
                Node::Load { .. } => {
                    let (slot, delta) = slot_of[i].expect("load node has a slot");
                    sym.push(SymOp::Load { node: i, slot, delta });
                }
                Node::Unary { op, a } => {
                    if inlined[a] == Inlined::IntoLoadOp {
                        let (slot, delta) = slot_of[a].expect("fused operand is a load");
                        sym.push(SymOp::LoadUnary { op, node: i, slot, delta });
                    } else {
                        sym.push(SymOp::Unary { op, node: i, a });
                    }
                }
                Node::Binary { op, a, b } => {
                    if let Some((seed, loads)) = chains[i].take() {
                        let start = load_table.len() as u16;
                        let count = loads.len() as u16;
                        for l in loads {
                            load_table.push(slot_of[l].expect("chain element is a load"));
                        }
                        match seed {
                            Some(s) => sym.push(SymOp::AccLoads { node: i, a: s, start, count }),
                            None => sym.push(SymOp::SumLoads { node: i, start, count }),
                        }
                    } else if inlined[a] == Inlined::IntoMulAdd
                        && inlined[b] == Inlined::IntoMulAdd
                        && a != b
                    {
                        let Node::Binary { a: ma, b: mb, .. } = nodes[a] else { unreachable!() };
                        let Node::Binary { a: mc, b: md, .. } = nodes[b] else { unreachable!() };
                        sym.push(SymOp::MulMulAdd { node: i, a: ma, b: mb, c: mc, d: md });
                    } else if inlined[a] == Inlined::IntoMulAdd {
                        let Node::Binary { a: ma, b: mb, .. } = nodes[a] else { unreachable!() };
                        sym.push(SymOp::MulAdd { node: i, a: ma, b: mb, c: b });
                    } else if inlined[b] == Inlined::IntoMulAdd {
                        let Node::Binary { a: ma, b: mb, .. } = nodes[b] else { unreachable!() };
                        sym.push(SymOp::MulAdd { node: i, a: ma, b: mb, c: a });
                    } else if inlined[a] == Inlined::IntoLoadOp {
                        let (slot, delta) = slot_of[a].expect("fused operand is a load");
                        sym.push(SymOp::LoadBinLhs { op, node: i, slot, delta, b });
                    } else if inlined[b] == Inlined::IntoLoadOp {
                        let (slot, delta) = slot_of[b].expect("fused operand is a load");
                        sym.push(SymOp::LoadBinRhs { op, node: i, a, slot, delta });
                    } else {
                        sym.push(SymOp::Binary { op, node: i, a, b });
                    }
                }
            }
        }

        // Remaining register reads per node over the final stream (+1 for the
        // root, which is read after the body to produce the cell output, so
        // its register is never recycled).
        let mut remaining = vec![0usize; nodes.len()];
        let mut reads = Vec::with_capacity(3);
        for op in &sym {
            op.reads(&mut reads);
            for &r in &reads {
                remaining[r] += 1;
            }
        }
        remaining[root] += 1;

        // Linear-scan allocation: operands release their register at last
        // use *before* the destination allocates, so an instruction may write
        // in place over a dying operand.
        let mut free: Vec<Reg> = Vec::new();
        let mut next_body = 0usize;
        let mut max_live = 0usize;
        let mut body = Vec::with_capacity(sym.len());
        for op in &sym {
            op.reads(&mut reads);
            let reg = |node: usize, reg_of: &[Option<Reg>]| -> Reg {
                reg_of[node].expect("operand defined before use (DAG is topological)")
            };
            let (a, b, c, d) = {
                let mut it = reads.iter();
                (
                    it.next().map(|&n| reg(n, &reg_of)),
                    it.next().map(|&n| reg(n, &reg_of)),
                    it.next().map(|&n| reg(n, &reg_of)),
                    it.next().map(|&n| reg(n, &reg_of)),
                )
            };
            for &r in &reads {
                remaining[r] -= 1;
                if remaining[r] == 0 {
                    if let Some(reg) = reg_of[r] {
                        // Only body registers recycle; prelude registers are
                        // pinned for the whole block.
                        if (reg as usize) >= pinned {
                            free.push(reg);
                        }
                    }
                }
            }
            let dst = match free.pop() {
                Some(r) => r,
                None => {
                    let r = (pinned + next_body) as Reg;
                    next_body += 1;
                    max_live = max_live.max(next_body);
                    r
                }
            };
            reg_of[op.def()] = Some(dst);
            body.push(match *op {
                SymOp::Load { slot, delta, .. } => TapeOp::Load { dst, slot, delta },
                SymOp::Unary { op, .. } => TapeOp::Unary { op, dst, a: a.expect("unary operand") },
                SymOp::Binary { op, .. } => {
                    TapeOp::Binary { op, dst, a: a.expect("binary lhs"), b: b.expect("binary rhs") }
                }
                SymOp::LoadUnary { op, slot, delta, .. } => {
                    TapeOp::LoadUnary { op, dst, slot, delta }
                }
                SymOp::LoadBinLhs { op, slot, delta, .. } => {
                    TapeOp::LoadBinLhs { op, dst, slot, delta, b: a.expect("load-bin rhs") }
                }
                SymOp::LoadBinRhs { op, slot, delta, .. } => {
                    TapeOp::LoadBinRhs { op, dst, a: a.expect("load-bin lhs"), slot, delta }
                }
                SymOp::MulAdd { .. } => TapeOp::MulAdd {
                    dst,
                    a: a.expect("mul lhs"),
                    b: b.expect("mul rhs"),
                    c: c.expect("addend"),
                },
                SymOp::MulMulAdd { .. } => TapeOp::MulMulAdd {
                    dst,
                    a: a.expect("first mul lhs"),
                    b: b.expect("first mul rhs"),
                    c: c.expect("second mul lhs"),
                    d: d.expect("second mul rhs"),
                },
                SymOp::SumLoads { start, count, .. } => TapeOp::SumLoads { dst, start, count },
                SymOp::AccLoads { start, count, .. } => {
                    TapeOp::AccLoads { dst, a: a.expect("chain seed"), start, count }
                }
            });
        }

        let num_regs = pinned + next_body;
        let root_reg = reg_of[root].expect("root is materialized");
        let ops_per_cell =
            nodes.iter().filter(|n| matches!(n, Node::Unary { .. } | Node::Binary { .. })).count()
                as u64;
        let stats = TapeStats {
            dag_nodes: nodes.len(),
            prelude_len: prelude.len(),
            body_len: body.len(),
            fused_loads,
            fused_muladds,
            fused_chains,
            registers: num_regs,
            max_live,
        };
        ExecTape { prelude, body, load_table, root: root_reg, num_regs, ops_per_cell, stats }
    }

    /// The once-per-block prelude.
    pub fn prelude(&self) -> &[PreludeOp] {
        &self.prelude
    }

    /// The per-cell body.
    pub fn body(&self) -> &[TapeOp] {
        &self.body
    }

    /// Register holding the cell result after the body runs.
    pub fn root(&self) -> Reg {
        self.root
    }

    /// Total registers the tape needs (prelude + peak body liveness).
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// Evaluated DAG operations per cell (what the `ExecStats` op counters
    /// account, identically to the tree-walk interpreter).
    pub fn ops_per_cell(&self) -> u64 {
        self.ops_per_cell
    }

    /// Lowering statistics.
    pub fn stats(&self) -> TapeStats {
        self.stats
    }

    /// Run the prelude into the scalar register file (once per block).
    #[inline]
    pub fn run_prelude(&self, params: &[f64], regs: &mut [f64]) {
        for op in &self.prelude {
            match *op {
                PreludeOp::Const { dst, bits } => regs[dst as usize] = f64::from_bits(bits),
                PreludeOp::Param { dst, index } => regs[dst as usize] = params[index],
            }
        }
    }

    /// Broadcast the pinned prelude registers into a lane register file
    /// (once per block, before lane execution).
    #[inline]
    pub fn broadcast_prelude<const N: usize>(&self, regs: &[f64], lane_regs: &mut [[f64; N]]) {
        for i in 0..self.prelude.len() {
            lane_regs[i] = [regs[i]; N];
        }
    }

    /// Execute the body for one interior cell at row-major index `idx`,
    /// returning the cell's new value.
    #[inline]
    pub fn exec_cell(&self, cells: &[f64], idx: usize, regs: &mut [f64]) -> f64 {
        for op in &self.body {
            match *op {
                TapeOp::Load { dst, delta, .. } => {
                    regs[dst as usize] = cells[(idx as isize + delta) as usize];
                }
                TapeOp::Unary { op, dst, a } => {
                    regs[dst as usize] = op.apply(regs[a as usize]);
                }
                TapeOp::Binary { op, dst, a, b } => {
                    regs[dst as usize] = op.apply(regs[a as usize], regs[b as usize]);
                }
                TapeOp::LoadUnary { op, dst, delta, .. } => {
                    regs[dst as usize] = op.apply(cells[(idx as isize + delta) as usize]);
                }
                TapeOp::LoadBinLhs { op, dst, delta, b, .. } => {
                    regs[dst as usize] =
                        op.apply(cells[(idx as isize + delta) as usize], regs[b as usize]);
                }
                TapeOp::LoadBinRhs { op, dst, a, delta, .. } => {
                    regs[dst as usize] =
                        op.apply(regs[a as usize], cells[(idx as isize + delta) as usize]);
                }
                TapeOp::MulAdd { dst, a, b, c } => {
                    regs[dst as usize] = regs[a as usize] * regs[b as usize] + regs[c as usize];
                }
                TapeOp::MulMulAdd { dst, a, b, c, d } => {
                    regs[dst as usize] =
                        regs[a as usize] * regs[b as usize] + regs[c as usize] * regs[d as usize];
                }
                TapeOp::SumLoads { dst, start, count } => {
                    let table = &self.load_table[start as usize..(start + count) as usize];
                    let mut acc = cells[(idx as isize + table[0].1) as usize];
                    for &(_, delta) in &table[1..] {
                        acc += cells[(idx as isize + delta) as usize];
                    }
                    regs[dst as usize] = acc;
                }
                TapeOp::AccLoads { dst, a, start, count } => {
                    let table = &self.load_table[start as usize..(start + count) as usize];
                    let mut acc = regs[a as usize];
                    for &(_, delta) in table {
                        acc += cells[(idx as isize + delta) as usize];
                    }
                    regs[dst as usize] = acc;
                }
            }
        }
        regs[self.root as usize]
    }

    /// Execute the body for `N` consecutive interior cells starting at
    /// row-major index `base`, writing the results into `out`.  Instantiated
    /// at [`LANES`] (one SIMD group) and [`WIDE`] (the unrolled super-group).
    #[inline]
    pub fn exec_lanes<const N: usize>(
        &self,
        cells: &[f64],
        base: usize,
        lane_regs: &mut [[f64; N]],
        out: &mut [f64],
    ) {
        // A fixed-size view of one lane-group of cells: the array type lets
        // the compiler drop per-element bounds checks and vectorise the loop.
        #[inline(always)]
        fn strip<const N: usize>(cells: &[f64], base: usize, delta: isize) -> &[f64; N] {
            let start = (base as isize + delta) as usize;
            cells[start..start + N].try_into().expect("lane strip is N long")
        }
        for op in &self.body {
            match *op {
                TapeOp::Load { dst, delta, .. } => {
                    lane_regs[dst as usize] = *strip::<N>(cells, base, delta);
                }
                TapeOp::Unary { op, dst, a } => {
                    let va = lane_regs[a as usize];
                    let mut lane = [0.0; N];
                    for (v, x) in lane.iter_mut().zip(va) {
                        *v = op.apply(x);
                    }
                    lane_regs[dst as usize] = lane;
                }
                TapeOp::Binary { op, dst, a, b } => {
                    let (va, vb) = (lane_regs[a as usize], lane_regs[b as usize]);
                    let mut lane = [0.0; N];
                    for (k, v) in lane.iter_mut().enumerate() {
                        *v = op.apply(va[k], vb[k]);
                    }
                    lane_regs[dst as usize] = lane;
                }
                TapeOp::LoadUnary { op, dst, delta, .. } => {
                    let vx = strip::<N>(cells, base, delta);
                    let mut lane = [0.0; N];
                    for (v, &x) in lane.iter_mut().zip(vx) {
                        *v = op.apply(x);
                    }
                    lane_regs[dst as usize] = lane;
                }
                TapeOp::LoadBinLhs { op, dst, delta, b, .. } => {
                    let vx = strip::<N>(cells, base, delta);
                    let vb = lane_regs[b as usize];
                    let mut lane = [0.0; N];
                    for (k, v) in lane.iter_mut().enumerate() {
                        *v = op.apply(vx[k], vb[k]);
                    }
                    lane_regs[dst as usize] = lane;
                }
                TapeOp::LoadBinRhs { op, dst, a, delta, .. } => {
                    let vx = strip::<N>(cells, base, delta);
                    let va = lane_regs[a as usize];
                    let mut lane = [0.0; N];
                    for (k, v) in lane.iter_mut().enumerate() {
                        *v = op.apply(va[k], vx[k]);
                    }
                    lane_regs[dst as usize] = lane;
                }
                TapeOp::MulAdd { dst, a, b, c } => {
                    let (va, vb, vc) =
                        (lane_regs[a as usize], lane_regs[b as usize], lane_regs[c as usize]);
                    let mut lane = [0.0; N];
                    for (k, v) in lane.iter_mut().enumerate() {
                        *v = va[k] * vb[k] + vc[k];
                    }
                    lane_regs[dst as usize] = lane;
                }
                TapeOp::MulMulAdd { dst, a, b, c, d } => {
                    let (va, vb) = (lane_regs[a as usize], lane_regs[b as usize]);
                    let (vc, vd) = (lane_regs[c as usize], lane_regs[d as usize]);
                    let mut lane = [0.0; N];
                    for (k, v) in lane.iter_mut().enumerate() {
                        *v = va[k] * vb[k] + vc[k] * vd[k];
                    }
                    lane_regs[dst as usize] = lane;
                }
                TapeOp::SumLoads { dst, start, count } => {
                    let table = &self.load_table[start as usize..(start + count) as usize];
                    let mut acc = *strip::<N>(cells, base, table[0].1);
                    for &(_, delta) in &table[1..] {
                        let vx = strip::<N>(cells, base, delta);
                        for (v, &x) in acc.iter_mut().zip(vx) {
                            *v += x;
                        }
                    }
                    lane_regs[dst as usize] = acc;
                }
                TapeOp::AccLoads { dst, a, start, count } => {
                    let table = &self.load_table[start as usize..(start + count) as usize];
                    let mut acc = lane_regs[a as usize];
                    for &(_, delta) in table {
                        let vx = strip::<N>(cells, base, delta);
                        for (v, &x) in acc.iter_mut().zip(vx) {
                            *v += x;
                        }
                    }
                    lane_regs[dst as usize] = acc;
                }
            }
        }
        out[..N].copy_from_slice(&lane_regs[self.root as usize]);
    }

    /// Execute the body for one boundary cell whose loads were pre-gathered
    /// into `operands` (one value per plan offset slot).
    #[inline]
    pub fn exec_operands(&self, operands: &[f64], regs: &mut [f64]) -> f64 {
        for op in &self.body {
            match *op {
                TapeOp::Load { dst, slot, .. } => regs[dst as usize] = operands[slot as usize],
                TapeOp::Unary { op, dst, a } => regs[dst as usize] = op.apply(regs[a as usize]),
                TapeOp::Binary { op, dst, a, b } => {
                    regs[dst as usize] = op.apply(regs[a as usize], regs[b as usize]);
                }
                TapeOp::LoadUnary { op, dst, slot, .. } => {
                    regs[dst as usize] = op.apply(operands[slot as usize]);
                }
                TapeOp::LoadBinLhs { op, dst, slot, b, .. } => {
                    regs[dst as usize] = op.apply(operands[slot as usize], regs[b as usize]);
                }
                TapeOp::LoadBinRhs { op, dst, a, slot, .. } => {
                    regs[dst as usize] = op.apply(regs[a as usize], operands[slot as usize]);
                }
                TapeOp::MulAdd { dst, a, b, c } => {
                    regs[dst as usize] = regs[a as usize] * regs[b as usize] + regs[c as usize];
                }
                TapeOp::MulMulAdd { dst, a, b, c, d } => {
                    regs[dst as usize] =
                        regs[a as usize] * regs[b as usize] + regs[c as usize] * regs[d as usize];
                }
                TapeOp::SumLoads { dst, start, count } => {
                    let table = &self.load_table[start as usize..(start + count) as usize];
                    let mut acc = operands[table[0].0 as usize];
                    for &(slot, _) in &table[1..] {
                        acc += operands[slot as usize];
                    }
                    regs[dst as usize] = acc;
                }
                TapeOp::AccLoads { dst, a, start, count } => {
                    let table = &self.load_table[start as usize..(start + count) as usize];
                    let mut acc = regs[a as usize];
                    for &(slot, _) in table {
                        acc += operands[slot as usize];
                    }
                    regs[dst as usize] = acc;
                }
            }
        }
        regs[self.root as usize]
    }
}

impl fmt::Display for ExecTape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tape: {} prelude + {} body, {} regs (max live {}), root r{}:",
            self.prelude.len(),
            self.body.len(),
            self.num_regs,
            self.stats.max_live,
            self.root
        )?;
        for op in &self.prelude {
            match *op {
                PreludeOp::Const { dst, bits } => {
                    writeln!(f, "  r{dst} = const {}", f64::from_bits(bits))?;
                }
                PreludeOp::Param { dst, index } => writeln!(f, "  r{dst} = param p{index}")?,
            }
        }
        for op in &self.body {
            match *op {
                TapeOp::Load { dst, slot, delta } => {
                    writeln!(f, "  r{dst} = load s{slot} ({delta:+})")?;
                }
                TapeOp::Unary { op, dst, a } => writeln!(f, "  r{dst} = {} r{a}", op.symbol())?,
                TapeOp::Binary { op, dst, a, b } => {
                    writeln!(f, "  r{dst} = {} r{a} r{b}", op.symbol())?;
                }
                TapeOp::LoadUnary { op, dst, slot, delta } => {
                    writeln!(f, "  r{dst} = {} load s{slot} ({delta:+})", op.symbol())?;
                }
                TapeOp::LoadBinLhs { op, dst, slot, delta, b } => {
                    writeln!(f, "  r{dst} = {} load s{slot} ({delta:+}) r{b}", op.symbol())?;
                }
                TapeOp::LoadBinRhs { op, dst, a, slot, delta } => {
                    writeln!(f, "  r{dst} = {} r{a} load s{slot} ({delta:+})", op.symbol())?;
                }
                TapeOp::MulAdd { dst, a, b, c } => {
                    writeln!(f, "  r{dst} = muladd r{a} r{b} r{c}")?;
                }
                TapeOp::MulMulAdd { dst, a, b, c, d } => {
                    writeln!(f, "  r{dst} = mulmuladd r{a} r{b} r{c} r{d}")?;
                }
                TapeOp::SumLoads { dst, start, count } => {
                    write!(f, "  r{dst} = sumloads")?;
                    for &(slot, delta) in &self.load_table[start as usize..(start + count) as usize]
                    {
                        write!(f, " s{slot}({delta:+})")?;
                    }
                    writeln!(f)?;
                }
                TapeOp::AccLoads { dst, a, start, count } => {
                    write!(f, "  r{dst} = accloads r{a}")?;
                    for &(slot, delta) in &self.load_table[start as usize..(start + count) as usize]
                    {
                        write!(f, " s{slot}({delta:+})")?;
                    }
                    writeln!(f)?;
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Scratch
// ---------------------------------------------------------------------------

/// Reusable per-task execution scratch: the tape interpreter's register
/// files, boundary operand and halo ring buffers, and a specialized tile.
///
/// Create once (or check out of a [`ScratchPool`]), pass to every
/// [`execute_block`](crate::plan::CompiledKernel::execute_block) call; the
/// buffers grow to the largest kernel seen and are never shrunk, so steady
/// state performs no allocation at all.
#[derive(Debug, Clone, Default)]
pub struct ExecScratch {
    pub(crate) regs: Vec<f64>,
    pub(crate) lane_regs: Vec<[f64; LANES]>,
    pub(crate) wide_regs: Vec<[f64; WIDE]>,
    pub(crate) operands: Vec<f64>,
    /// One value per slot of the plan's halo ring, filled once per block.
    pub(crate) ring: Vec<f64>,
    /// A block and its ring in one row-major tile (see `spec.rs`).
    pub(crate) tile: Vec<f64>,
}

impl ExecScratch {
    /// An empty scratch (grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the buffers to fit a tape with `num_regs` registers, `slots`
    /// boundary operand slots, `ring` halo-ring slots, and (for lane
    /// backends) lane registers.
    #[inline]
    pub(crate) fn ensure(&mut self, num_regs: usize, slots: usize, ring: usize, lanes: bool) {
        if self.regs.len() < num_regs {
            self.regs.resize(num_regs, 0.0);
        }
        if lanes && self.lane_regs.len() < num_regs {
            self.lane_regs.resize(num_regs, [0.0; LANES]);
        }
        if lanes && self.wide_regs.len() < num_regs {
            self.wide_regs.resize(num_regs, [0.0; WIDE]);
        }
        if self.operands.len() < slots {
            self.operands.resize(slots, 0.0);
        }
        if self.ring.len() < ring {
            self.ring.resize(ring, 0.0);
        }
    }

    /// Bytes currently held by the scratch buffers.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of_val(self.regs.as_slice())
            + std::mem::size_of_val(self.lane_regs.as_slice())
            + std::mem::size_of_val(self.wide_regs.as_slice())
            + std::mem::size_of_val(self.operands.as_slice())
            + std::mem::size_of_val(self.ring.as_slice())
            + std::mem::size_of_val(self.tile.as_slice())
    }
}

/// Counters of a [`ScratchPool`] (point-in-time snapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ScratchPoolStats {
    /// Scratches created because the pool was empty.
    pub created: u64,
    /// Check-outs served from the free list (warm buffers).
    pub reused: u64,
    /// Scratches currently idle in the pool.
    pub idle: usize,
}

/// A bounded pool of [`ExecScratch`] buffers for long-lived hosts.
///
/// The multi-tenant service installs one pool per [`KernelService`]; every
/// worker checks a scratch out per task and the drop of the task context
/// returns it, so a worker's steady-state jobs run on warm buffers instead of
/// growing fresh ones per job.
///
/// [`KernelService`]: ../../aohpc_service/struct.KernelService.html
pub struct ScratchPool {
    free: Mutex<Vec<ExecScratch>>,
    capacity: usize,
    created: AtomicU64,
    reused: AtomicU64,
}

impl ScratchPool {
    /// A pool retaining at most `capacity` idle scratches.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(ScratchPool {
            free: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        })
    }

    /// Check a scratch out (warm if available, fresh otherwise).
    pub fn acquire(&self) -> ExecScratch {
        match self.free.lock().pop() {
            Some(s) => {
                self.reused.fetch_add(1, Ordering::Relaxed);
                s
            }
            None => {
                self.created.fetch_add(1, Ordering::Relaxed);
                ExecScratch::new()
            }
        }
    }

    /// Return a scratch; dropped silently when the pool is at capacity.
    pub fn release(&self, scratch: ExecScratch) {
        let mut free = self.free.lock();
        if free.len() < self.capacity {
            free.push(scratch);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ScratchPoolStats {
        ScratchPoolStats {
            created: self.created.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            idle: self.free.lock().len(),
        }
    }
}

impl fmt::Debug for ScratchPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScratchPool")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{jacobi_5pt, lit, load, param, smooth_9pt};
    use crate::opt::OptLevel;

    fn tape_for(expr: &crate::expr::KernelExpr, nx: usize, ny: usize) -> (Dag, ExecTape) {
        let dag = Dag::lower(expr, OptLevel::Full);
        let plan = AccessPlan::build(&dag.offsets(), nx, ny);
        let tape = ExecTape::lower(&dag, &plan);
        (dag, tape)
    }

    #[test]
    fn prelude_hoists_constants_and_params() {
        let (_, tape) = tape_for(&jacobi_5pt(), 8, 8);
        // jacobi has two params, no surviving constants; both land in the
        // prelude (the TapeOp body has no const/param form at all, so the
        // hoisting is total by construction).
        assert_eq!(tape.prelude().len(), 2);
        assert!(tape.prelude().iter().all(|p| matches!(p, PreludeOp::Param { .. })));
        // A constant survives folding only as a prelude register.
        let e = load(0, 0) * param(0) + lit(3.25);
        let (_, t2) = tape_for(&e, 4, 4);
        assert!(t2
            .prelude()
            .iter()
            .any(|p| matches!(p, PreludeOp::Const { bits, .. } if f64::from_bits(*bits) == 3.25)));
    }

    #[test]
    fn jacobi_lowers_with_fusion_and_few_registers() {
        let (dag, tape) = tape_for(&jacobi_5pt(), 8, 8);
        let stats = tape.stats();
        assert_eq!(stats.dag_nodes, dag.len());
        assert!(stats.fused_muladds >= 1, "alpha*c + beta*(...) fuses: {tape}");
        assert!(stats.fused_loads >= 2, "neighbour loads fold into adds: {tape}");
        assert!(stats.body_len < dag.len(), "fusion shrinks the body below the node count: {tape}");
        assert!(
            stats.registers < dag.len(),
            "liveness allocation beats one-register-per-node: {} vs {}",
            stats.registers,
            dag.len()
        );
        assert_eq!(tape.ops_per_cell(), 6, "2 muls + 3 neighbour adds + 1 top add: {tape}");
    }

    #[test]
    fn muladd_keeps_two_roundings() {
        // a*b + c with values chosen so FMA (one rounding) differs from
        // mul-then-add (two roundings).
        let e = param(0) * param(1) + param(2);
        let (_, tape) = tape_for(&(load(0, 0) * lit(0.0) + e), 4, 4);
        // a*b = 1 + 2^-26 + 2^-54 rounds to 1 + 2^-26, so a*b + c rounds to
        // 0.0 with two roundings but to 2^-54 under FMA.
        let params = [1.0 + 2f64.powi(-27), 1.0 + 2f64.powi(-27), -(1.0 + 2f64.powi(-26))];
        let mut scratch = ExecScratch::new();
        scratch.ensure(tape.num_regs(), 1, 0, false);
        tape.run_prelude(&params, &mut scratch.regs);
        let got = tape.exec_operands(&[0.0], &mut scratch.regs);
        let want = params[0] * params[1] + params[2];
        let fma = params[0].mul_add(params[1], params[2]);
        assert_eq!(got.to_bits(), want.to_bits(), "tape matches mul-then-add");
        assert_ne!(want.to_bits(), fma.to_bits(), "the probe actually distinguishes FMA");
    }

    #[test]
    fn tape_matches_dag_eval_cell_by_cell() {
        for expr in [jacobi_5pt(), smooth_9pt()] {
            let (nx, ny) = (8usize, 6usize);
            let dag = Dag::lower(&expr, OptLevel::Full);
            let plan = AccessPlan::build(&dag.offsets(), nx, ny);
            let tape = ExecTape::lower(&dag, &plan);
            let params = [0.5, 0.125];
            let cells: Vec<f64> = (0..nx * ny).map(|k| (k as f64 * 0.37).sin() + 1.5).collect();
            let mut scratch = ExecScratch::new();
            scratch.ensure(tape.num_regs(), plan.offsets.len(), 0, true);
            tape.run_prelude(&params, &mut scratch.regs);
            tape.broadcast_prelude(&scratch.regs.clone(), &mut scratch.lane_regs);
            for y in plan.interior.y0..plan.interior.y1 {
                for x in plan.interior.x0..plan.interior.x1 {
                    let idx = (y * nx as i64 + x) as usize;
                    let got = tape.exec_cell(&cells, idx, &mut scratch.regs);
                    let want = dag.eval(
                        &mut |dx, dy| cells[((y + dy) * nx as i64 + x + dx) as usize],
                        &params,
                    );
                    assert_eq!(got.to_bits(), want.to_bits(), "cell ({x},{y})");
                }
            }
            // Lane groups agree with per-cell execution.
            if plan.interior.x1 - plan.interior.x0 >= LANES as i64 {
                let y = plan.interior.y0;
                let base = (y * nx as i64 + plan.interior.x0) as usize;
                let mut out = [0.0; LANES];
                tape.exec_lanes(&cells, base, &mut scratch.lane_regs, &mut out);
                for (k, &v) in out.iter().enumerate() {
                    let want = tape.exec_cell(&cells, base + k, &mut scratch.regs);
                    assert_eq!(v.to_bits(), want.to_bits(), "lane {k}");
                }
            }
        }
    }

    #[test]
    fn constant_root_tapes_have_empty_bodies() {
        // load * 0 folds to a constant: the body is empty and every cell
        // reads the prelude register.
        let e = load(0, 0) * lit(0.0) + lit(2.5);
        let (_, tape) = tape_for(&e, 4, 4);
        assert_eq!(tape.body().len(), 0, "{tape}");
        assert_eq!(tape.ops_per_cell(), 0);
        let mut scratch = ExecScratch::new();
        scratch.ensure(tape.num_regs(), 0, 0, false);
        tape.run_prelude(&[], &mut scratch.regs);
        assert_eq!(tape.exec_cell(&[1.0; 16], 5, &mut scratch.regs), 2.5);
    }

    #[test]
    fn display_lists_every_instruction() {
        let (_, tape) = tape_for(&jacobi_5pt(), 8, 8);
        let text = format!("{tape}");
        assert_eq!(text.lines().count(), 1 + tape.prelude().len() + tape.body().len(), "{text}");
        assert!(text.contains("muladd"), "{text}");
    }

    #[test]
    fn scratch_pool_reuses_buffers() {
        let pool = ScratchPool::new(2);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(pool.stats().created, 2);
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.stats().idle, 2);
        let _c = pool.acquire();
        assert_eq!(pool.stats().reused, 1);
        // Over-capacity releases are dropped.
        pool.release(ExecScratch::new());
        pool.release(ExecScratch::new());
        pool.release(ExecScratch::new());
        assert_eq!(pool.stats().idle, 2);
    }

    #[test]
    fn scratch_footprint_grows_with_use() {
        let mut s = ExecScratch::new();
        assert_eq!(s.footprint_bytes(), 0);
        s.ensure(4, 5, 6, true);
        let grown = s.footprint_bytes();
        assert!(grown > 0);
        s.ensure(2, 1, 1, false);
        assert_eq!(s.footprint_bytes(), grown, "ensure never shrinks");
    }
}
