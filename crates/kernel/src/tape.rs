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
//! * **Baked addressing** — each load instruction carries its *delta* in the
//!   plan's padded tile (`dy · width + dx`), so no search or lookup table
//!   survives to run time.
//! * **Fusion** — a load whose value is consumed exactly once folds into its
//!   consumer ([`TapeOp::LoadUnary`], [`TapeOp::LoadBinLhs`],
//!   [`TapeOp::LoadBinRhs`]), and an `Add` whose operand is a single-use
//!   `Mul` becomes [`TapeOp::MulAdd`].  `MulAdd` keeps the two IEEE-754
//!   roundings of the unfused sequence (it is *not* an FMA), so tape results
//!   stay bit-identical to the tree-walk oracle.
//! * **Liveness-based register allocation** — body registers are released at
//!   their last use and reused, so the scratch a block needs is
//!   `prelude + max_live` registers instead of `dag.len()` values.  An
//!   instruction's destination is never one of its own operands' registers.
//!
//! [`ExecTape::exec_rows`] interprets the body a *row* at a time over the
//! block's padded tile (see [`AccessPlan`]): every register holds a row of
//! the block's width, every instruction is one loop over contiguous `f64`,
//! and a load is a sub-slice of the tile at its delta.  Each cell still sees
//! the body's operations in order, so its bits equal the tree-walk oracle's.
//! Interior and boundary cells run alike, and both processors run this one
//! loop: [`Processor`](crate::backend::Processor) only labels the
//! accounting (`AccessPlan::exec_stats`).
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
//! the same tile through one monomorphic row loop instead; see `spec.rs`
//! for how a shape qualifies and `BENCH_kernel.json` for the measured
//! trajectory across tiers.

use crate::expr::{BinOp, UnaryOp};
use crate::opt::{Dag, Node};
use crate::plan::AccessPlan;
use parking_lot::Mutex;
use serde::Serialize;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of cells one vector lane-group of the modelled SIMD processor
/// processes (what `ExecStats` accounts one vector op for).
pub const LANES: usize = 8;

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
/// A load's `delta` is its offset's index delta in the plan's padded tile
/// (what a cell's tile index adds), baked in at lowering time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum TapeOp {
    /// `r[dst] = load(delta)`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Tile index delta.
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
    /// Fused `r[dst] = op(load(delta))`.
    LoadUnary {
        /// Operator.
        op: UnaryOp,
        /// Destination register.
        dst: Reg,
        /// Tile index delta.
        delta: isize,
    },
    /// Fused `r[dst] = op(load(delta), r[b])` (the load is the left operand).
    LoadBinLhs {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Tile index delta.
        delta: isize,
        /// Right operand register.
        b: Reg,
    },
    /// Fused `r[dst] = op(r[a], load(delta))` (the load is the right operand).
    LoadBinRhs {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Tile index delta.
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
    /// Tile deltas of the loads chain instructions fold, in fold order.
    pub(crate) load_table: Vec<isize>,
    pub(crate) root: Reg,
    num_regs: usize,
    ops_per_cell: u64,
    stats: TapeStats,
}

/// Symbolic instruction used between fusion marking and register allocation:
/// operands are still DAG node ids.
enum SymOp {
    Load { node: usize, delta: isize },
    Unary { op: UnaryOp, node: usize, a: usize },
    Binary { op: BinOp, node: usize, a: usize, b: usize },
    LoadUnary { op: UnaryOp, node: usize, delta: isize },
    LoadBinLhs { op: BinOp, node: usize, delta: isize, b: usize },
    LoadBinRhs { op: BinOp, node: usize, a: usize, delta: isize },
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

        // Tile delta of every load node.
        let delta_of: Vec<Option<isize>> = nodes
            .iter()
            .map(|n| match *n {
                Node::Load { dx, dy } => {
                    let slot = plan.offsets.iter().position(|&o| o == (dx, dy));
                    Some(plan.linear_offsets[slot.expect("plan offsets cover every live load")])
                }
                _ => None,
            })
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
        let mut load_table: Vec<isize> = Vec::new();
        for (i, n) in nodes.iter().enumerate() {
            if inlined[i] != Inlined::No {
                continue;
            }
            match *n {
                Node::Const(_) | Node::Param(_) => {}
                Node::Load { .. } => {
                    let delta = delta_of[i].expect("load node has a delta");
                    sym.push(SymOp::Load { node: i, delta });
                }
                Node::Unary { op, a } => {
                    if inlined[a] == Inlined::IntoLoadOp {
                        let delta = delta_of[a].expect("fused operand is a load");
                        sym.push(SymOp::LoadUnary { op, node: i, delta });
                    } else {
                        sym.push(SymOp::Unary { op, node: i, a });
                    }
                }
                Node::Binary { op, a, b } => {
                    if let Some((seed, loads)) = chains[i].take() {
                        let start = load_table.len() as u16;
                        let count = loads.len() as u16;
                        for l in loads {
                            load_table.push(delta_of[l].expect("chain element is a load"));
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
                        let delta = delta_of[a].expect("fused operand is a load");
                        sym.push(SymOp::LoadBinLhs { op, node: i, delta, b });
                    } else if inlined[b] == Inlined::IntoLoadOp {
                        let delta = delta_of[b].expect("fused operand is a load");
                        sym.push(SymOp::LoadBinRhs { op, node: i, a, delta });
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

        // Linear-scan allocation: the destination allocates *before* the
        // operands release their registers at last use, so no instruction
        // writes a register it reads (the row interpreter borrows the
        // destination row beside its operand rows).
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
            let dst = match free.pop() {
                Some(r) => r,
                None => {
                    let r = (pinned + next_body) as Reg;
                    next_body += 1;
                    max_live = max_live.max(next_body);
                    r
                }
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
            reg_of[op.def()] = Some(dst);
            body.push(match *op {
                SymOp::Load { delta, .. } => TapeOp::Load { dst, delta },
                SymOp::Unary { op, .. } => TapeOp::Unary { op, dst, a: a.expect("unary operand") },
                SymOp::Binary { op, .. } => {
                    TapeOp::Binary { op, dst, a: a.expect("binary lhs"), b: b.expect("binary rhs") }
                }
                SymOp::LoadUnary { op, delta, .. } => TapeOp::LoadUnary { op, dst, delta },
                SymOp::LoadBinLhs { op, delta, .. } => {
                    TapeOp::LoadBinLhs { op, dst, delta, b: a.expect("load-bin rhs") }
                }
                SymOp::LoadBinRhs { op, delta, .. } => {
                    TapeOp::LoadBinRhs { op, dst, a: a.expect("load-bin lhs"), delta }
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

    /// Run the prelude once per block: every pinned register's `row` values
    /// hold its constant or runtime parameter.
    #[inline]
    pub(crate) fn run_prelude(&self, params: &[f64], regs: &mut [f64], row: usize) {
        for op in &self.prelude {
            let (dst, value) = match *op {
                PreludeOp::Const { dst, bits } => (dst, f64::from_bits(bits)),
                PreludeOp::Param { dst, index } => (dst, params[index]),
            };
            regs[dst as usize * row..][..row].fill(value);
        }
    }

    /// Execute the body a row at a time over `plan`'s filled padded `tile`
    /// into `out`.  `regs` holds a row of `nx` values a register, the
    /// prelude's filled (see [`ExecTape::run_prelude`]).
    pub(crate) fn exec_rows(
        &self,
        plan: &AccessPlan,
        tile: &[f64],
        regs: &mut [f64],
        out: &mut [f64],
    ) {
        let (nx, width) = (plan.extent_nx, plan.tile_width);
        for (y, row) in out.chunks_exact_mut(nx).enumerate() {
            let base = (plan.tile_origin + y * width) as isize;
            let load = |delta: isize| &tile[(base + delta) as usize..][..nx];
            let table = |start: u16, count: u16| {
                self.load_table[start as usize..(start + count) as usize].iter().copied()
            };
            for op in &self.body {
                match *op {
                    TapeOp::Load { dst, delta } => {
                        rows(regs, nx, dst, []).0.copy_from_slice(load(delta));
                    }
                    TapeOp::Unary { op, dst, a } => {
                        let (d, [a]) = rows(regs, nx, dst, [a]);
                        for (d, &a) in d.iter_mut().zip(a) {
                            *d = op.apply(a);
                        }
                    }
                    TapeOp::Binary { op, dst, a, b } => {
                        let (d, [a, b]) = rows(regs, nx, dst, [a, b]);
                        for ((d, &a), &b) in d.iter_mut().zip(a).zip(b) {
                            *d = op.apply(a, b);
                        }
                    }
                    TapeOp::LoadUnary { op, dst, delta } => {
                        let (d, []) = rows(regs, nx, dst, []);
                        for (d, &x) in d.iter_mut().zip(load(delta)) {
                            *d = op.apply(x);
                        }
                    }
                    TapeOp::LoadBinLhs { op, dst, delta, b } => {
                        let (d, [b]) = rows(regs, nx, dst, [b]);
                        for ((d, &x), &b) in d.iter_mut().zip(load(delta)).zip(b) {
                            *d = op.apply(x, b);
                        }
                    }
                    TapeOp::LoadBinRhs { op, dst, a, delta } => {
                        let (d, [a]) = rows(regs, nx, dst, [a]);
                        for ((d, &a), &x) in d.iter_mut().zip(a).zip(load(delta)) {
                            *d = op.apply(a, x);
                        }
                    }
                    TapeOp::MulAdd { dst, a, b, c } => {
                        let (d, [a, b, c]) = rows(regs, nx, dst, [a, b, c]);
                        for (((d, &a), &b), &c) in d.iter_mut().zip(a).zip(b).zip(c) {
                            *d = a * b + c;
                        }
                    }
                    TapeOp::MulMulAdd { dst, a, b, c, d: e } => {
                        let (d, [a, b, c, e]) = rows(regs, nx, dst, [a, b, c, e]);
                        for ((((d, &a), &b), &c), &e) in d.iter_mut().zip(a).zip(b).zip(c).zip(e) {
                            *d = a * b + c * e;
                        }
                    }
                    TapeOp::SumLoads { dst, start, count } => {
                        let (d, []) = rows(regs, nx, dst, []);
                        let mut deltas = table(start, count);
                        d.copy_from_slice(load(deltas.next().expect("a chain folds ≥ 2 loads")));
                        for delta in deltas {
                            for (d, &x) in d.iter_mut().zip(load(delta)) {
                                *d += x;
                            }
                        }
                    }
                    TapeOp::AccLoads { dst, a, start, count } => {
                        let (d, [a]) = rows(regs, nx, dst, [a]);
                        d.copy_from_slice(a);
                        for delta in table(start, count) {
                            for (d, &x) in d.iter_mut().zip(load(delta)) {
                                *d += x;
                            }
                        }
                    }
                }
            }
            row.copy_from_slice(&regs[self.root as usize * nx..][..nx]);
        }
    }
}

/// Register `dst`'s row of a register file of `nx`-long rows, writable,
/// beside the rows of `srcs`, readable.  The lowering never makes an
/// instruction's destination one of its operands, so the rows are disjoint.
#[inline(always)]
fn rows<const N: usize>(
    regs: &mut [f64],
    nx: usize,
    dst: Reg,
    srcs: [Reg; N],
) -> (&mut [f64], [&[f64]; N]) {
    let dst = dst as usize;
    let (below, rest) = regs.split_at_mut(dst * nx);
    let (row, above) = rest.split_at_mut(nx);
    let (below, above) = (&*below, &*above);
    let srcs = srcs.map(|src| match (src as usize).cmp(&dst) {
        std::cmp::Ordering::Less => &below[src as usize * nx..][..nx],
        std::cmp::Ordering::Greater => &above[(src as usize - dst - 1) * nx..][..nx],
        std::cmp::Ordering::Equal => unreachable!("an instruction never reads its destination"),
    });
    (row, srcs)
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
                TapeOp::Load { dst, delta } => writeln!(f, "  r{dst} = load ({delta:+})")?,
                TapeOp::Unary { op, dst, a } => writeln!(f, "  r{dst} = {} r{a}", op.symbol())?,
                TapeOp::Binary { op, dst, a, b } => {
                    writeln!(f, "  r{dst} = {} r{a} r{b}", op.symbol())?;
                }
                TapeOp::LoadUnary { op, dst, delta } => {
                    writeln!(f, "  r{dst} = {} load ({delta:+})", op.symbol())?;
                }
                TapeOp::LoadBinLhs { op, dst, delta, b } => {
                    writeln!(f, "  r{dst} = {} load ({delta:+}) r{b}", op.symbol())?;
                }
                TapeOp::LoadBinRhs { op, dst, a, delta } => {
                    writeln!(f, "  r{dst} = {} r{a} load ({delta:+})", op.symbol())?;
                }
                TapeOp::MulAdd { dst, a, b, c } => {
                    writeln!(f, "  r{dst} = muladd r{a} r{b} r{c}")?;
                }
                TapeOp::MulMulAdd { dst, a, b, c, d } => {
                    writeln!(f, "  r{dst} = mulmuladd r{a} r{b} r{c} r{d}")?;
                }
                TapeOp::SumLoads { dst, start, count } => {
                    write!(f, "  r{dst} = sumloads")?;
                    for delta in &self.load_table[start as usize..(start + count) as usize] {
                        write!(f, " ({delta:+})")?;
                    }
                    writeln!(f)?;
                }
                TapeOp::AccLoads { dst, a, start, count } => {
                    write!(f, "  r{dst} = accloads r{a}")?;
                    for delta in &self.load_table[start as usize..(start + count) as usize] {
                        write!(f, " ({delta:+})")?;
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

/// Reusable per-task execution scratch: the tape's register file (a row of
/// the block's width a register), the halo ring and the padded tile a block
/// runs from.
///
/// Create once (or check out of a [`ScratchPool`]), pass to every
/// [`execute_block`](crate::plan::CompiledKernel::execute_block) call; the
/// buffers grow to the largest kernel seen and are never shrunk, so steady
/// state performs no allocation at all.
#[derive(Debug, Clone, Default)]
pub struct ExecScratch {
    pub(crate) regs: Vec<f64>,
    /// One value per slot of the plan's halo ring, filled once per block.
    pub(crate) ring: Vec<f64>,
    /// A block and its ring in one row-major tile (see [`AccessPlan`]).
    pub(crate) tile: Vec<f64>,
}

impl ExecScratch {
    /// An empty scratch (grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the buffers to at least `regs` register values, `ring`
    /// halo-ring slots and a `tile` values long tile.
    #[inline]
    pub(crate) fn ensure(&mut self, regs: usize, ring: usize, tile: usize) {
        for (buf, len) in [(&mut self.regs, regs), (&mut self.ring, ring), (&mut self.tile, tile)] {
            buf.resize(buf.len().max(len), 0.0);
        }
    }

    /// Bytes currently held by the scratch buffers.
    pub fn footprint_bytes(&self) -> usize {
        [&self.regs, &self.ring, &self.tile].iter().map(|buf| std::mem::size_of_val(&buf[..])).sum()
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
    use crate::backend::{ExecStats, Processor};
    use crate::expr::{jacobi_5pt, lit, load, param, smooth_9pt, KernelExpr};
    use crate::opt::OptLevel;
    use crate::plan::CompiledKernel;
    use crate::program::StencilProgram;
    use aohpc_env::Extent;

    fn tape_for(expr: &KernelExpr, nx: usize, ny: usize) -> (Dag, ExecTape) {
        let dag = Dag::lower(expr, OptLevel::Full);
        let plan = AccessPlan::build(&dag.offsets(), nx, ny);
        let tape = ExecTape::lower(&dag, &plan);
        (dag, tape)
    }

    fn halo(x: i64, y: i64) -> f64 {
        ((x * 5 - y * 3) % 11) as f64 * 0.0625
    }

    /// One `nx × ny` block of `expr` through the row interpreter (the
    /// specialized loop off), out-of-block loads reading [`halo`].
    fn exec_rows_of(
        expr: &KernelExpr,
        nx: usize,
        ny: usize,
        cells: &[f64],
        params: &[f64],
    ) -> Vec<f64> {
        let program = StencilProgram::new("rows", expr.clone(), params.len()).unwrap();
        let compiled = CompiledKernel::compile(&program, Extent::new2d(nx, ny), OptLevel::Full);
        let mut out = vec![0.0; nx * ny];
        compiled.execute_block_unspecialized(
            cells,
            params,
            &mut halo,
            &mut out,
            Processor::Scalar,
            &mut ExecStats::default(),
            &mut ExecScratch::new(),
        );
        out
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
        let e = load(0, 0) * lit(0.0) + (param(0) * param(1) + param(2));
        let (_, tape) = tape_for(&e, 4, 4);
        assert!(tape.body().iter().any(|op| matches!(op, TapeOp::MulAdd { .. })), "{tape}");
        // a*b = 1 + 2^-26 + 2^-54 rounds to 1 + 2^-26, so a*b + c rounds to
        // 0.0 with two roundings but to 2^-54 under FMA.
        let params = [1.0 + 2f64.powi(-27), 1.0 + 2f64.powi(-27), -(1.0 + 2f64.powi(-26))];
        let got = exec_rows_of(&e, 4, 4, &[1.0; 16], &params);
        let want = params[0] * params[1] + params[2];
        let fma = params[0].mul_add(params[1], params[2]);
        for v in got {
            assert_eq!(v.to_bits(), want.to_bits(), "tape matches mul-then-add");
        }
        assert_ne!(want.to_bits(), fma.to_bits(), "the probe actually distinguishes FMA");
    }

    #[test]
    fn tape_matches_dag_eval_cell_by_cell() {
        let mixed = (-load(0, 0)).abs() - param(0) * (load(1, 0) - load(-1, 1)).max(load(0, -1));
        for expr in [jacobi_5pt(), smooth_9pt(), mixed] {
            let (nx, ny) = (8usize, 6usize);
            let dag = Dag::lower(&expr, OptLevel::Full);
            let params = [0.5, 0.125];
            let cells: Vec<f64> = (0..nx * ny).map(|k| (k as f64 * 0.37).sin() + 1.5).collect();
            let got = exec_rows_of(&expr, nx, ny, &cells, &params);
            for (k, got) in got.iter().enumerate() {
                let (x, y) = ((k % nx) as i64, (k / nx) as i64);
                let mut loads = |dx: i64, dy: i64| {
                    let (tx, ty) = (x + dx, y + dy);
                    if (0..nx as i64).contains(&tx) && (0..ny as i64).contains(&ty) {
                        cells[(ty * nx as i64 + tx) as usize]
                    } else {
                        halo(tx, ty)
                    }
                };
                let want = dag.eval(&mut loads, &params);
                assert_eq!(got.to_bits(), want.to_bits(), "{expr} cell ({x},{y})");
            }
        }
    }

    #[test]
    fn no_instruction_writes_a_register_it_reads() {
        let (_, tape) = tape_for(&(jacobi_5pt() + (-load(1, 1)).abs() * load(0, 0)), 8, 8);
        for op in tape.body() {
            let (dst, reads): (Reg, Vec<Reg>) = match *op {
                TapeOp::Unary { dst, a, .. }
                | TapeOp::LoadBinRhs { dst, a, .. }
                | TapeOp::AccLoads { dst, a, .. } => (dst, vec![a]),
                TapeOp::LoadBinLhs { dst, b, .. } => (dst, vec![b]),
                TapeOp::Binary { dst, a, b, .. } => (dst, vec![a, b]),
                TapeOp::MulAdd { dst, a, b, c } => (dst, vec![a, b, c]),
                TapeOp::MulMulAdd { dst, a, b, c, d } => (dst, vec![a, b, c, d]),
                TapeOp::Load { dst, .. }
                | TapeOp::LoadUnary { dst, .. }
                | TapeOp::SumLoads { dst, .. } => (dst, vec![]),
            };
            assert!(!reads.contains(&dst), "{tape}");
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
        assert_eq!(exec_rows_of(&e, 4, 4, &[1.0; 16], &[]), [2.5; 16]);
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
        s.ensure(4, 5, 6);
        let grown = s.footprint_bytes();
        assert_eq!(grown, 15 * 8);
        s.ensure(2, 1, 1);
        assert_eq!(s.footprint_bytes(), grown, "ensure never shrinks");
    }
}
