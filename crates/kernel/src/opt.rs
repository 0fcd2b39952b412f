//! The subkernel optimizer: hash-consed DAG construction, constant folding
//! and algebraic simplification.
//!
//! The optimizer is the "compile" half of the paper's future-work item on
//! subkernel modification: the expression tree written by the end-user is
//! lowered into a [`Dag`] whose nodes are unique (*common-subexpression
//! elimination* — repeated loads of the same offset, repeated parameters and
//! repeated subtrees collapse into one node), constants are folded, and the
//! usual algebraic identities (`x + 0`, `x * 1`, `x * 0`, `x / 1`,
//! `-(-x)`) are removed.  Dead nodes never enter the DAG because interning is
//! bottom-up and only reachable subtrees are visited.
//!
//! The algebraic identities assume the field holds finite values (the
//! `x * 0 → 0` rewrite is not IEEE-754-exact when `x` is NaN or ±∞); this is
//! the same assumption the paper's applications make and is documented on
//! [`OptLevel::Full`].

use crate::expr::{BinOp, KernelExpr, UnaryOp};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;

/// Index of a node inside a [`Dag`].
pub type NodeId = usize;

/// One node of the optimized DAG.  Children always have smaller ids, so a
/// single forward pass evaluates the whole DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// Load the field at a relative offset.
    Load {
        /// Offset along X.
        dx: i64,
        /// Offset along Y.
        dy: i64,
    },
    /// A constant (stored as bits so nodes are hashable).
    Const(u64),
    /// A runtime parameter.
    Param(usize),
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand node.
        a: NodeId,
    },
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand node.
        a: NodeId,
        /// Right operand node.
        b: NodeId,
    },
}

/// How aggressively [`Dag::lower`] rewrites the expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Default)]
pub enum OptLevel {
    /// Hash-consing only (CSE); arithmetic is preserved bit-for-bit.
    None,
    /// CSE + constant folding + algebraic identities.  Assumes finite field
    /// values (the `x * 0 → 0` rewrite ignores NaN/∞ propagation).
    #[default]
    Full,
}

/// Statistics of one lowering, reported alongside benchmark results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OptStats {
    /// Nodes in the source expression tree.
    pub tree_nodes: usize,
    /// Nodes in the resulting DAG.
    pub dag_nodes: usize,
    /// Subtrees that hash-consing merged into an existing node.
    pub cse_merges: usize,
    /// Operations evaluated at compile time.
    pub constants_folded: usize,
    /// Algebraic identities removed.
    pub identities_simplified: usize,
}

/// A hash-consed, optionally optimized form of a [`KernelExpr`].
#[derive(Debug, Clone, PartialEq)]
pub struct Dag {
    nodes: Vec<Node>,
    root: NodeId,
    stats: OptStats,
}

struct Builder {
    nodes: Vec<Node>,
    interned: HashMap<Node, NodeId>,
    level: OptLevel,
    stats: OptStats,
}

impl Builder {
    fn new(level: OptLevel) -> Self {
        Builder { nodes: Vec::new(), interned: HashMap::new(), level, stats: OptStats::default() }
    }

    fn intern(&mut self, node: Node) -> NodeId {
        if let Some(&id) = self.interned.get(&node) {
            self.stats.cse_merges += 1;
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(node);
        self.interned.insert(node, id);
        id
    }

    fn constant(&mut self, v: f64) -> NodeId {
        self.intern(Node::Const(v.to_bits()))
    }

    fn const_value(&self, id: NodeId) -> Option<f64> {
        match self.nodes[id] {
            Node::Const(bits) => Some(f64::from_bits(bits)),
            _ => None,
        }
    }

    fn lower(&mut self, expr: &KernelExpr) -> NodeId {
        match expr {
            KernelExpr::Load { dx, dy } => self.intern(Node::Load { dx: *dx, dy: *dy }),
            KernelExpr::Const(c) => self.constant(*c),
            KernelExpr::Param(i) => self.intern(Node::Param(*i)),
            KernelExpr::Unary { op, a } => {
                let a_id = self.lower(a);
                self.make_unary(*op, a_id)
            }
            KernelExpr::Binary { op, a, b } => {
                let a_id = self.lower(a);
                let b_id = self.lower(b);
                self.make_binary(*op, a_id, b_id)
            }
        }
    }

    fn make_unary(&mut self, op: UnaryOp, a: NodeId) -> NodeId {
        if self.level == OptLevel::Full {
            if let Some(v) = self.const_value(a) {
                self.stats.constants_folded += 1;
                return self.constant(op.apply(v));
            }
            // -(-x) = x
            if op == UnaryOp::Neg {
                if let Node::Unary { op: UnaryOp::Neg, a: inner } = self.nodes[a] {
                    self.stats.identities_simplified += 1;
                    return inner;
                }
            }
        }
        self.intern(Node::Unary { op, a })
    }

    fn make_binary(&mut self, op: BinOp, a: NodeId, b: NodeId) -> NodeId {
        if self.level == OptLevel::Full {
            let ca = self.const_value(a);
            let cb = self.const_value(b);
            if let (Some(x), Some(y)) = (ca, cb) {
                self.stats.constants_folded += 1;
                return self.constant(op.apply(x, y));
            }
            match op {
                BinOp::Add => {
                    if ca == Some(0.0) {
                        self.stats.identities_simplified += 1;
                        return b;
                    }
                    if cb == Some(0.0) {
                        self.stats.identities_simplified += 1;
                        return a;
                    }
                }
                BinOp::Sub => {
                    if cb == Some(0.0) {
                        self.stats.identities_simplified += 1;
                        return a;
                    }
                }
                BinOp::Mul => {
                    if ca == Some(1.0) {
                        self.stats.identities_simplified += 1;
                        return b;
                    }
                    if cb == Some(1.0) {
                        self.stats.identities_simplified += 1;
                        return a;
                    }
                    if ca == Some(0.0) || cb == Some(0.0) {
                        self.stats.identities_simplified += 1;
                        return self.constant(0.0);
                    }
                }
                BinOp::Div => {
                    if cb == Some(1.0) {
                        self.stats.identities_simplified += 1;
                        return a;
                    }
                }
                BinOp::Min | BinOp::Max => {}
            }
            // Canonicalise commutative operand order so `a + b` and `b + a`
            // hash-cons to the same node.
            if op.commutative() && a > b {
                return self.intern(Node::Binary { op, a: b, b: a });
            }
        }
        self.intern(Node::Binary { op, a, b })
    }
}

/// Drop nodes not reachable from `root` (subtrees bypassed by a rewrite) and
/// remap child ids.  The relative order of surviving nodes is preserved, so
/// the result stays topologically sorted.
fn compact(nodes: Vec<Node>, root: NodeId) -> (Vec<Node>, NodeId) {
    let mut reachable = vec![false; nodes.len()];
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if reachable[id] {
            continue;
        }
        reachable[id] = true;
        match nodes[id] {
            Node::Unary { a, .. } => stack.push(a),
            Node::Binary { a, b, .. } => {
                stack.push(a);
                stack.push(b);
            }
            _ => {}
        }
    }
    let mut remap = vec![usize::MAX; nodes.len()];
    let mut kept = Vec::with_capacity(nodes.len());
    for (id, node) in nodes.into_iter().enumerate() {
        if !reachable[id] {
            continue;
        }
        remap[id] = kept.len();
        kept.push(match node {
            Node::Unary { op, a } => Node::Unary { op, a: remap[a] },
            Node::Binary { op, a, b } => Node::Binary { op, a: remap[a], b: remap[b] },
            other => other,
        });
    }
    (kept, remap[root])
}

impl Dag {
    /// Lower an expression at the given optimization level.
    pub fn lower(expr: &KernelExpr, level: OptLevel) -> Self {
        let mut b = Builder::new(level);
        b.stats.tree_nodes = expr.node_count();
        let root = b.lower(expr);
        let (nodes, root) = compact(b.nodes, root);
        b.stats.dag_nodes = nodes.len();
        Dag { nodes, root, stats: b.stats }
    }

    /// Lower with full optimization (the default used by the compiled plans).
    pub fn optimized(expr: &KernelExpr) -> Self {
        Self::lower(expr, OptLevel::Full)
    }

    /// The lowering statistics.
    pub fn stats(&self) -> OptStats {
        self.stats
    }

    /// Number of nodes in the DAG.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the DAG is empty (never true after lowering).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The nodes in evaluation (topological) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The distinct load offsets appearing in the DAG, in node order.
    pub fn offsets(&self) -> Vec<(i64, i64)> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Load { dx, dy } => Some((*dx, *dy)),
                _ => None,
            })
            .collect()
    }

    /// Evaluate the DAG with `loads` supplying field values — one forward
    /// pass, each shared node computed once.
    pub fn eval(&self, loads: &mut impl FnMut(i64, i64) -> f64, params: &[f64]) -> f64 {
        let mut values = vec![0.0f64; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            values[i] = match *node {
                Node::Load { dx, dy } => loads(dx, dy),
                Node::Const(bits) => f64::from_bits(bits),
                Node::Param(p) => params.get(p).copied().unwrap_or(0.0),
                Node::Unary { op, a } => op.apply(values[a]),
                Node::Binary { op, a, b } => op.apply(values[a], values[b]),
            };
        }
        values[self.root]
    }
}

impl fmt::Display for Dag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "dag with {} nodes (root {}):", self.nodes.len(), self.root)?;
        for (i, n) in self.nodes.iter().enumerate() {
            match n {
                Node::Load { dx, dy } => writeln!(f, "  %{i} = load [{dx:+},{dy:+}]")?,
                Node::Const(bits) => writeln!(f, "  %{i} = const {}", f64::from_bits(*bits))?,
                Node::Param(p) => writeln!(f, "  %{i} = param p{p}")?,
                Node::Unary { op, a } => writeln!(f, "  %{i} = {} %{a}", op.symbol())?,
                Node::Binary { op, a, b } => writeln!(f, "  %{i} = {} %{a} %{b}", op.symbol())?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{jacobi_5pt, lit, load, param, smooth_9pt};
    use proptest::prelude::*;

    fn ramp(dx: i64, dy: i64) -> f64 {
        (dx * 17 + dy * 5) as f64 + 0.25
    }

    #[test]
    fn cse_merges_repeated_loads() {
        // load(0,0) appears three times; the DAG keeps one copy.
        let e = load(0, 0) + load(0, 0) * load(0, 0);
        let dag = Dag::lower(&e, OptLevel::None);
        let loads = dag.nodes().iter().filter(|n| matches!(n, Node::Load { .. })).count();
        assert_eq!(loads, 1);
        assert!(dag.stats().cse_merges >= 2);
        let mut l = |_: i64, _: i64| 3.0;
        assert_eq!(dag.eval(&mut l, &[]), 12.0);
    }

    #[test]
    fn constant_folding_collapses_const_subtrees() {
        let e = load(0, 0) * (lit(2.0) + lit(3.0)) + (lit(4.0) * lit(0.5));
        let dag = Dag::optimized(&e);
        assert!(dag.stats().constants_folded >= 2);
        let consts: Vec<f64> = dag
            .nodes()
            .iter()
            .filter_map(|n| match n {
                Node::Const(b) => Some(f64::from_bits(*b)),
                _ => None,
            })
            .collect();
        assert!(consts.contains(&5.0));
        assert!(consts.contains(&2.0));
        let mut l = |_: i64, _: i64| 1.0;
        assert_eq!(dag.eval(&mut l, &[]), 7.0);
    }

    #[test]
    fn identities_are_removed() {
        let e = (load(0, 0) + lit(0.0)) * lit(1.0) - lit(0.0);
        let dag = Dag::optimized(&e);
        assert_eq!(dag.len(), 1, "everything but the load disappears: {dag}");
        assert!(dag.stats().identities_simplified >= 3);
        let e0 = load(1, 0) * lit(0.0);
        let dag0 = Dag::optimized(&e0);
        let mut calls = 0u32;
        let mut l = |_: i64, _: i64| {
            calls += 1;
            123.0
        };
        assert_eq!(dag0.eval(&mut l, &[]), 0.0);
        assert_eq!(calls, 0, "the dead load was eliminated, not just bypassed");
        assert!(dag0.offsets().is_empty());
    }

    #[test]
    fn double_negation_cancels() {
        let e = -(-load(2, 1));
        let dag = Dag::optimized(&e);
        assert_eq!(dag.len(), 1);
        let mut l = |dx: i64, dy: i64| ramp(dx, dy);
        assert_eq!(dag.eval(&mut l, &[]), ramp(2, 1));
    }

    #[test]
    fn commutative_canonicalisation_merges_mirrored_subtrees() {
        // a*b and b*a must become the same node under full optimization.
        let e = load(1, 0) * load(0, 1) + load(0, 1) * load(1, 0);
        let dag = Dag::optimized(&e);
        let muls =
            dag.nodes().iter().filter(|n| matches!(n, Node::Binary { op: BinOp::Mul, .. })).count();
        assert_eq!(muls, 1);
    }

    #[test]
    fn optimization_level_none_preserves_structure() {
        let e = load(0, 0) * lit(1.0);
        let dag = Dag::lower(&e, OptLevel::None);
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.stats().identities_simplified, 0);
        assert_eq!(dag.stats().constants_folded, 0);
    }

    #[test]
    fn stats_for_stock_kernels() {
        let dag = Dag::optimized(&jacobi_5pt());
        let s = dag.stats();
        assert_eq!(s.tree_nodes, jacobi_5pt().node_count());
        assert!(s.dag_nodes <= s.tree_nodes);
        assert!(dag.offsets().len() == 5);
        assert_eq!(Dag::optimized(&smooth_9pt()).offsets().len(), 9);
    }

    #[test]
    fn display_lists_every_node() {
        let dag = Dag::optimized(&jacobi_5pt());
        let text = format!("{dag}");
        assert!(text.contains("load"));
        assert!(text.contains("param"));
        assert_eq!(text.lines().count(), dag.len() + 1);
    }

    /// A small random-expression generator for equivalence testing.
    fn arb_expr() -> impl Strategy<Value = KernelExpr> {
        let leaf = prop_oneof![
            (-2i64..=2, -2i64..=2).prop_map(|(dx, dy)| load(dx, dy)),
            (-4.0f64..4.0).prop_map(lit),
            (0usize..3).prop_map(param),
        ];
        leaf.prop_recursive(5, 64, 3, |inner| {
            prop_oneof![
                (
                    inner.clone(),
                    inner.clone(),
                    prop_oneof![
                        Just(BinOp::Add),
                        Just(BinOp::Sub),
                        Just(BinOp::Mul),
                        Just(BinOp::Min),
                        Just(BinOp::Max)
                    ]
                )
                    .prop_map(|(a, b, op)| KernelExpr::Binary {
                        op,
                        a: Box::new(a),
                        b: Box::new(b)
                    }),
                inner.clone().prop_map(|a| -a),
                inner.prop_map(|a| a.abs()),
            ]
        })
    }

    proptest! {
        /// Optimized and unoptimized DAGs agree with the tree-walking
        /// reference on finite fields (division excluded from the generator
        /// so that no ±∞/NaN enters the comparison).
        #[test]
        fn lowering_preserves_semantics(e in arb_expr(), p0 in -3.0f64..3.0, p1 in -3.0f64..3.0, p2 in -3.0f64..3.0) {
            let params = [p0, p1, p2];
            let reference = e.eval(&mut |dx, dy| ramp(dx, dy), &params);
            let plain = Dag::lower(&e, OptLevel::None).eval(&mut |dx, dy| ramp(dx, dy), &params);
            let optimized = Dag::optimized(&e).eval(&mut |dx, dy| ramp(dx, dy), &params);
            prop_assert!((reference - plain).abs() < 1e-9 || (reference.is_nan() && plain.is_nan()));
            prop_assert!((reference - optimized).abs() < 1e-9 || (reference.is_nan() && optimized.is_nan()));
        }

        /// The DAG never has more nodes than the source tree, and full
        /// optimization never has more nodes than CSE alone.
        #[test]
        fn dag_is_never_larger_than_the_tree(e in arb_expr()) {
            let plain = Dag::lower(&e, OptLevel::None);
            let optimized = Dag::optimized(&e);
            prop_assert!(plain.len() <= e.node_count());
            prop_assert!(optimized.len() <= plain.len());
        }
    }
}
