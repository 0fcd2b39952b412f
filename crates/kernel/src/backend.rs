//! Execution backends for compiled subkernels.
//!
//! The paper's future-work §VI proposes that "the platform generates kernels
//! for multiple types of processors and executes them heterogeneously, using
//! GPUs, SIMD, and other accelerators".  This module models two processors:
//!
//! * [`Processor::Scalar`] — one cell at a time, the shape a plain C++ loop
//!   (or the paper's prototype) executes;
//! * [`Processor::Simd`] — the interior region in fixed-width lanes
//!   ([`LANES`] cells per vector op), the shape a vectorising compiler,
//!   explicit SIMD intrinsics or a device kernel launch produce.  What a
//!   device would add is transfer volume, and that follows from the
//!   counters already kept (see [`ExecStats::halo_fetches`]).
//!
//! A `Processor` is an accounting label on one execute path: every block —
//! interior and boundary alike — runs from one padded tile (the block's
//! rows and its halo ring), through the register-allocated
//! [`ExecTape`](crate::tape::ExecTape) a row at a time or, for a specialized
//! kernel (see `spec.rs`), its monomorphic row loop, from a caller-provided
//! [`ExecScratch`].  The processors differ only in the [`ExecStats`] they
//! are accounted (`AccessPlan::exec_stats`); their results are
//! bit-identical, and the steady-state block path performs **zero heap
//! allocations** (see `tests/no_alloc.rs`).
//!
//! The tree-walk oracle (`execute_block_tree`, compiled for this crate's
//! tests only) evaluates every cell with [`Dag::eval`](crate::opt::Dag::eval)
//! and shares nothing with the tape but the plan's `exec_stats` formula:
//! property tests assert the tape is bit-identical to it — output bits and
//! [`ExecStats`] — for random programs, extents and backends.

use crate::plan::{CompiledKernel, HaloRing};
use crate::tape::ExecScratch;
use serde::Serialize;

pub use crate::tape::LANES;

/// The processor model a block is executed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Processor {
    /// One cell at a time.
    Scalar,
    /// Lane-parallel interior accounting (width [`LANES`]).
    Simd,
}

impl Processor {
    /// Short, stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Processor::Scalar => "scalar",
            Processor::Simd => "simd",
        }
    }
}

/// Counters accumulated while executing compiled kernels.
///
/// The split counters are the *modelled* processor's split of the plan's
/// geometry: a specialized kernel is accounted what the tape counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ExecStats {
    /// Blocks executed.
    pub blocks: u64,
    /// Cells updated.
    pub cells: u64,
    /// Cells inside the plan's interior rectangle (no load leaves the block).
    pub interior_cells: u64,
    /// Cells outside it (some load reads the halo ring).
    pub boundary_cells: u64,
    /// Out-of-block cells fetched from the platform: the halo ring's distinct
    /// cells, once per block execution.  A device executing these blocks
    /// would receive each block with its ring and send the block back:
    /// `8 × (cells + halo_fetches)` bytes in, `8 × cells` bytes out.
    pub halo_fetches: u64,
    /// DAG operations evaluated one cell at a time: all on `Scalar`; on
    /// `Simd`, the boundary and each interior row's remainder.
    pub scalar_ops: u64,
    /// DAG operations evaluated [`LANES`] cells at a time: on `Simd`, those
    /// of each whole lane group of an interior row.
    pub vector_ops: u64,
}

impl ExecStats {
    /// Merge another stats record into this one.
    pub fn merge(&mut self, other: &ExecStats) {
        self.blocks += other.blocks;
        self.cells += other.cells;
        self.interior_cells += other.interior_cells;
        self.boundary_cells += other.boundary_cells;
        self.halo_fetches += other.halo_fetches;
        self.scalar_ops += other.scalar_ops;
        self.vector_ops += other.vector_ops;
    }
}

impl CompiledKernel {
    /// Validate the shared `execute_block*` preconditions.
    fn check_block_args(&self, cells: &[f64], params: &[f64], out: &[f64]) {
        let plan = self.plan();
        assert_eq!(cells.len(), plan.cells(), "cells slice does not match the compiled extent");
        assert_eq!(out.len(), plan.cells(), "out slice does not match the compiled extent");
        assert!(
            params.len() >= self.num_params(),
            "kernel {}: {} runtime parameter(s) supplied but the program declares {}",
            self.name(),
            params.len(),
            self.num_params()
        );
    }

    /// Execute the kernel over one block by interpreting the compiled tape.
    ///
    /// * `cells` — the block's current (read-buffer) values, row-major,
    ///   `extent.cells()` long;
    /// * `params` — runtime parameters; must cover
    ///   [`num_params`](CompiledKernel::num_params) (validated here — a short
    ///   slice would otherwise silently zero-fill, which is a wrong answer,
    ///   not a fallback);
    /// * `fill` — fills the block's halo ring: called once, with the plan's
    ///   [`HaloRing`] and a buffer of one value per ring slot (it must set
    ///   the slots of every run; slots no run covers are never read), before
    ///   any cell is evaluated.  The caller adds the block origin and
    ///   goes through the platform (one `TaskCtx::get_run` per ring run, so
    ///   MMAT / Env-search accounting still applies);
    /// * `out` — the block's next values, row-major (same length as `cells`);
    /// * `processor` — the processor `stats` are accounted for;
    /// * `scratch` — reusable register, ring and tile buffers; grown on first
    ///   use, then reused allocation-free for every later block.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_block_ring(
        &self,
        cells: &[f64],
        params: &[f64],
        fill: impl FnOnce(&HaloRing, &mut [f64]),
        out: &mut [f64],
        processor: Processor,
        stats: &mut ExecStats,
        scratch: &mut ExecScratch,
    ) {
        self.execute_block_impl(cells, params, fill, out, processor, stats, scratch, true);
    }

    /// [`execute_block_ring`](CompiledKernel::execute_block_ring) with the
    /// ring filled one cell at a time: `halo` resolves an out-of-block load
    /// given block-local target coordinates and is called once per ring cell.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_block(
        &self,
        cells: &[f64],
        params: &[f64],
        halo: &mut impl FnMut(i64, i64) -> f64,
        out: &mut [f64],
        processor: Processor,
        stats: &mut ExecStats,
        scratch: &mut ExecScratch,
    ) {
        let fill = |ring: &HaloRing, buf: &mut [f64]| ring.fill_per_cell(buf, halo);
        self.execute_block_impl(cells, params, fill, out, processor, stats, scratch, true);
    }

    /// [`execute_block`](CompiledKernel::execute_block) with the specialized
    /// row loop disabled: always interpret the tape.  The reference
    /// the specialization bit-identity tests and benches compare against.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_block_unspecialized(
        &self,
        cells: &[f64],
        params: &[f64],
        halo: &mut impl FnMut(i64, i64) -> f64,
        out: &mut [f64],
        processor: Processor,
        stats: &mut ExecStats,
        scratch: &mut ExecScratch,
    ) {
        let fill = |ring: &HaloRing, buf: &mut [f64]| ring.fill_per_cell(buf, halo);
        self.execute_block_impl(cells, params, fill, out, processor, stats, scratch, false);
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_block_impl(
        &self,
        cells: &[f64],
        params: &[f64],
        fill: impl FnOnce(&HaloRing, &mut [f64]),
        out: &mut [f64],
        processor: Processor,
        stats: &mut ExecStats,
        scratch: &mut ExecScratch,
        use_spec: bool,
    ) {
        self.check_block_args(cells, params, out);
        let spec = self.spec().filter(|_| use_spec);
        let row = self.size_scratch(scratch, spec.is_some());
        let (plan, tape) = (self.plan(), self.tape());
        let (nx, width, origin) = (plan.extent_nx, plan.tile_width, plan.tile_origin);
        let ExecScratch { regs, ring, tile } = scratch;
        // Prelude: constants and runtime parameters fill pinned registers
        // once per block, not once per cell.
        let regs = &mut regs[..tape.num_regs() * row];
        tape.run_prelude(params, regs, row);

        // The ring is fetched through the platform once; the block's rows
        // and the ring's runs then go into one padded tile, which every
        // cell, interior or boundary, reads its loads from.
        let ring = &mut ring[..plan.ring.slots()];
        fill(&plan.ring, ring);
        let tile = &mut tile[..plan.tile_len];
        for (y, row) in cells.chunks_exact(nx).enumerate() {
            tile[origin + y * width..][..nx].copy_from_slice(row);
        }
        for run in plan.ring.runs() {
            let first = origin as i64 + run.y * width as i64 + run.x;
            let step = run.dx + run.dy * width as i64;
            for (k, &value) in (0..).zip(&ring[run.slots()]) {
                tile[(first + k * step) as usize] = value;
            }
        }

        match spec {
            Some(spec) => spec.exec_block(plan, tile, regs, out),
            None => tape.exec_rows(plan, tile, regs, out),
        }
        stats.merge(&plan.exec_stats(processor, tape.ops_per_cell()));
    }
}

#[cfg(test)]
impl CompiledKernel {
    /// The tree-walk oracle the tape is property-tested against: every cell
    /// is one [`Dag::eval`](crate::opt::Dag::eval), a load read from `cells`
    /// when its own coordinate (cell + offset) is in the block and from
    /// `halo` otherwise — no linear offsets, operand slots or ring, so a
    /// wrong one in the tape shows up as a wrong value.
    ///
    /// The counters follow from the plan's geometry alone
    /// (`AccessPlan::exec_stats`), the formula every tier is accounted by.
    pub(crate) fn execute_block_tree(
        &self,
        cells: &[f64],
        params: &[f64],
        halo: &mut impl FnMut(i64, i64) -> f64,
        out: &mut [f64],
        processor: Processor,
        stats: &mut ExecStats,
    ) {
        self.check_block_args(cells, params, out);
        let plan = self.plan();
        let (nx, ny) = (plan.extent_nx as i64, plan.extent_ny as i64);
        for y in 0..ny {
            for x in 0..nx {
                let mut loads = |dx: i64, dy: i64| {
                    let (tx, ty) = (x + dx, y + dy);
                    if (0..nx).contains(&tx) && (0..ny).contains(&ty) {
                        cells[(ty * nx + tx) as usize]
                    } else {
                        halo(tx, ty)
                    }
                };
                out[(y * nx + x) as usize] = self.dag().eval(&mut loads, params);
            }
        }
        stats.merge(&plan.exec_stats(processor, self.op_count()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::DenseField;
    use crate::opt::OptLevel;
    use crate::program::StencilProgram;
    use aohpc_env::Extent;
    use proptest::prelude::*;

    fn init(x: i64, y: i64) -> f64 {
        ((x * 13 + y * 7) % 23) as f64 / 23.0 + 0.1
    }

    fn boundary(x: i64, y: i64) -> f64 {
        ((x - y) % 5) as f64 * 0.25
    }

    /// Run one step of `program` over an `nx × ny` block with a given backend
    /// and compare against the tree-walking interpreter on a dense field.
    fn one_step_matches_reference(program: &StencilProgram, nx: usize, ny: usize, proc: Processor) {
        let params = [0.5, 0.125];
        // Reference: interpreter over the dense field.
        let mut reference = DenseField::new(nx, ny, init, boundary);
        reference.run_interpreted(program, &params, 1);

        // Compiled path.
        let compiled = CompiledKernel::compile(program, Extent::new2d(nx, ny), OptLevel::Full);
        let cells: Vec<f64> =
            (0..nx * ny).map(|k| init((k % nx) as i64, (k / nx) as i64)).collect();
        let mut out = vec![0.0; nx * ny];
        let mut stats = ExecStats::default();
        let mut scratch = ExecScratch::new();
        compiled.execute_block(
            &cells,
            &params,
            &mut |x, y| boundary(x, y),
            &mut out,
            proc,
            &mut stats,
            &mut scratch,
        );

        for (i, (&got, &want)) in out.iter().zip(reference.values()).enumerate() {
            assert!(
                (got - want).abs() < 1e-12,
                "{} {proc:?} {nx}x{ny} cell {i}: {got} vs {want}",
                program.name()
            );
        }
        assert_eq!(stats.cells as usize, nx * ny);
        assert_eq!(stats.interior_cells + stats.boundary_cells, stats.cells);
    }

    #[test]
    fn both_processors_match_interpreter() {
        // Widths around the lane count: whole lane groups and remainders.
        for proc in [Processor::Scalar, Processor::Simd] {
            for nx in [4usize, 8, 9, 16, 19] {
                one_step_matches_reference(&StencilProgram::jacobi_5pt(), nx, 7, proc);
            }
            one_step_matches_reference(&StencilProgram::smooth_9pt(), 21, 5, proc);
        }
    }

    #[test]
    fn scalar_backend_has_no_vector_ops_and_vice_versa() {
        let program = StencilProgram::jacobi_5pt();
        let compiled = CompiledKernel::compile(&program, Extent::new2d(16, 16), OptLevel::Full);
        let cells = vec![1.0; 256];
        let mut out = vec![0.0; 256];
        let mut scratch = ExecScratch::new();

        let mut scalar = ExecStats::default();
        compiled.execute_block(
            &cells,
            &[1.0, 0.0],
            &mut |_, _| 0.0,
            &mut out,
            Processor::Scalar,
            &mut scalar,
            &mut scratch,
        );
        assert_eq!(scalar.vector_ops, 0);
        assert!(scalar.scalar_ops > 0);

        let mut simd = ExecStats::default();
        compiled.execute_block(
            &cells,
            &[1.0, 0.0],
            &mut |_, _| 0.0,
            &mut out,
            Processor::Simd,
            &mut simd,
            &mut scratch,
        );
        assert!(simd.vector_ops > 0);
        assert!(simd.vector_ops < scalar.scalar_ops, "lanes amortise DAG evaluations");
    }

    #[test]
    fn halo_fetch_count_matches_the_plan() {
        let program = StencilProgram::jacobi_5pt();
        let n = 8usize;
        let compiled = CompiledKernel::compile(&program, Extent::new2d(n, n), OptLevel::Full);
        let cells = vec![2.0; n * n];
        let mut out = vec![0.0; n * n];
        let mut stats = ExecStats::default();
        let mut scratch = ExecScratch::new();
        let mut fetches = 0u64;
        compiled.execute_block(
            &cells,
            &[0.5, 0.125],
            &mut |_, _| {
                fetches += 1;
                0.0
            },
            &mut out,
            Processor::Scalar,
            &mut stats,
            &mut scratch,
        );
        assert_eq!(fetches, stats.halo_fetches);
        assert_eq!(fetches as usize, compiled.plan().halo_loads());
        assert_eq!(fetches as usize, 4 * n);
    }

    #[test]
    fn nine_point_ring_cells_are_fetched_once() {
        // Each of the 68 ring cells of a 16² block (4·16 edge cells + 4
        // corners) is asked for once, though 188 boundary loads read them.
        let compiled = CompiledKernel::compile(
            &StencilProgram::smooth_9pt(),
            Extent::new2d(16, 16),
            OptLevel::Full,
        );
        let cells = vec![1.0; 256];
        let mut out = vec![0.0; 256];
        let mut stats = ExecStats::default();
        let mut asked = std::collections::HashSet::new();
        compiled.execute_block(
            &cells,
            &[0.5, 0.0625],
            &mut |x, y| {
                assert!(asked.insert((x, y)), "({x}, {y}) fetched twice");
                0.0
            },
            &mut out,
            Processor::Simd,
            &mut stats,
            &mut ExecScratch::new(),
        );
        assert_eq!(asked.len(), 68);
        assert_eq!(stats.halo_fetches, 68);
    }

    #[test]
    #[should_panic(expected = "runtime parameter")]
    fn short_params_are_rejected_not_zero_filled() {
        let program = StencilProgram::jacobi_5pt();
        let compiled = CompiledKernel::compile(&program, Extent::new2d(8, 8), OptLevel::Full);
        let cells = vec![1.0; 64];
        let mut out = vec![0.0; 64];
        let mut stats = ExecStats::default();
        let mut scratch = ExecScratch::new();
        // jacobi declares 2 params; passing 1 must panic loudly instead of
        // silently computing with beta = 0.
        compiled.execute_block(
            &cells,
            &[0.5],
            &mut |_, _| 0.0,
            &mut out,
            Processor::Scalar,
            &mut stats,
            &mut scratch,
        );
    }

    /// Rows many lane groups wide must agree with the tree-walk oracle
    /// bit-for-bit, including the `vector_ops` accounting (one op per
    /// LANES-wide group of an interior row).  The proptest below also reaches
    /// these widths, but this pins them deterministically: interior rows of
    /// 62, 41 and 34 cells (7, 5 and 4 lane groups and a remainder of 6, 1
    /// and 2), and every unfused tape form.
    #[test]
    fn wide_rows_match_tree_walk() {
        use crate::expr::{lit, load, param};
        let programs = [
            StencilProgram::jacobi_5pt(),
            StencilProgram::smooth_9pt(),
            // Exercises LoadUnary/Unary/Binary/AccLoads (not just the fused
            // jacobi shape) on wide rows.
            StencilProgram::new(
                "mixed",
                (-load(0, 0)).abs()
                    + param(0) * (load(1, 0) - load(-1, 0)) / lit(2.0)
                    + (load(0, 1) + load(0, -1) + load(1, 1)),
                1,
            )
            .unwrap(),
        ];
        for program in &programs {
            for (nx, ny) in [(64usize, 4usize), (43, 5), (36, 3)] {
                let compiled =
                    CompiledKernel::compile(program, Extent::new2d(nx, ny), OptLevel::Full);
                let cells: Vec<f64> =
                    (0..nx * ny).map(|k| ((k * 37 + 11) % 89) as f64 / 89.0 - 0.3).collect();
                let params = [0.25, 0.5];
                let mut scratch = ExecScratch::new();
                for proc in [Processor::Scalar, Processor::Simd] {
                    let mut tape_out = vec![0.0; nx * ny];
                    let mut tape_stats = ExecStats::default();
                    compiled.execute_block(
                        &cells,
                        &params,
                        &mut boundary,
                        &mut tape_out,
                        proc,
                        &mut tape_stats,
                        &mut scratch,
                    );
                    let mut tree_out = vec![0.0; nx * ny];
                    let mut tree_stats = ExecStats::default();
                    compiled.execute_block_tree(
                        &cells,
                        &params,
                        &mut boundary,
                        &mut tree_out,
                        proc,
                        &mut tree_stats,
                    );
                    for (i, (a, b)) in tape_out.iter().zip(&tree_out).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{} {nx}x{ny} {proc:?} cell {i}",
                            program.name()
                        );
                    }
                    assert_eq!(
                        tape_stats,
                        tree_stats,
                        "{} {nx}x{ny} {proc:?} stats",
                        program.name()
                    );
                    if proc != Processor::Scalar && nx >= 32 + 2 {
                        assert!(tape_stats.vector_ops > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ExecStats { blocks: 1, cells: 10, scalar_ops: 5, ..Default::default() };
        let b = ExecStats {
            blocks: 2,
            cells: 20,
            vector_ops: 7,
            halo_fetches: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.blocks, 3);
        assert_eq!(a.cells, 30);
        assert_eq!(a.scalar_ops, 5);
        assert_eq!(a.vector_ops, 7);
        assert_eq!(a.halo_fetches, 3);
    }

    #[test]
    fn processor_names() {
        assert_eq!(Processor::Scalar.name(), "scalar");
        assert_eq!(Processor::Simd.name(), "simd");
    }

    /// Random subkernel expressions for tape-vs-oracle equivalence: loads,
    /// constants, params at the leaves; arithmetic, min/max, neg, abs above.
    /// Division is excluded so no ±∞/NaN enters the bit comparison.
    fn arb_expr() -> BoxedStrategy<crate::expr::KernelExpr> {
        use crate::expr::{lit, load, param, BinOp, KernelExpr};
        let leaf = prop_oneof![
            ((-2i64..=2), (-2i64..=2)).prop_map(|(dx, dy)| load(dx, dy)),
            (-3.0f64..3.0).prop_map(lit),
            (0usize..3).prop_map(param),
        ];
        leaf.prop_recursive(4, 40, 3, |inner| {
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
        .boxed()
    }

    proptest! {
        /// The tape is bit-identical to the tree-walk oracle — same output
        /// bits *and* same ExecStats counters — for random programs, random
        /// extents, both optimization levels and both processors.
        #[test]
        fn tape_is_bit_identical_to_tree_walk(
            expr in arb_expr(),
            // nx reaches past 32 + halo so random cases also cover rows of
            // several lane groups.
            nx in 1usize..44,
            ny in 1usize..10,
            level in prop_oneof![Just(OptLevel::None), Just(OptLevel::Full)],
            params in proptest::collection::vec(-2.0f64..2.0, 3..=3),
        ) {
            use crate::expr::load;
            let program = StencilProgram::new("prop", load(0, 0) + expr, 3).expect("valid");
            let compiled = CompiledKernel::compile(&program, Extent::new2d(nx, ny), level);
            let cells: Vec<f64> =
                (0..nx * ny).map(|k| ((k * 29 + 3) % 67) as f64 / 67.0 - 0.4).collect();
            let mut scratch = ExecScratch::new();
            for proc in [Processor::Scalar, Processor::Simd] {
                let mut tape_out = vec![0.0; nx * ny];
                let mut tape_stats = ExecStats::default();
                compiled.execute_block(
                    &cells, &params, &mut boundary, &mut tape_out, proc, &mut tape_stats,
                    &mut scratch,
                );
                let mut tree_out = vec![0.0; nx * ny];
                let mut tree_stats = ExecStats::default();
                compiled.execute_block_tree(
                    &cells, &params, &mut boundary, &mut tree_out, proc, &mut tree_stats,
                );
                for (i, (a, b)) in tape_out.iter().zip(&tree_out).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "cell {} differs on {:?} ({} vs {})", i, proc, a, b
                    );
                }
                prop_assert_eq!(tape_stats, tree_stats, "ExecStats diverged on {:?}", proc);
            }
        }

        /// Both backends agree with the interpreter for random block
        /// shapes and parameters (Jacobi kernel).
        #[test]
        fn backends_agree_on_random_shapes(
            nx in 1usize..24,
            ny in 1usize..12,
            alpha in -1.0f64..1.0,
            beta in -0.5f64..0.5,
        ) {
            let program = StencilProgram::jacobi_5pt();
            let params = [alpha, beta];
            let mut reference = DenseField::new(nx, ny, init, boundary);
            reference.run_interpreted(&program, &params, 1);
            let compiled = CompiledKernel::compile(&program, Extent::new2d(nx, ny), OptLevel::Full);
            let cells: Vec<f64> =
                (0..nx * ny).map(|k| init((k % nx) as i64, (k / nx) as i64)).collect();
            let mut scratch = ExecScratch::new();
            for proc in [Processor::Scalar, Processor::Simd] {
                let mut out = vec![0.0; nx * ny];
                let mut stats = ExecStats::default();
                compiled.execute_block(&cells, &params, &mut |x, y| boundary(x, y), &mut out, proc, &mut stats, &mut scratch);
                for (got, want) in out.iter().zip(reference.values()) {
                    prop_assert!((got - want).abs() < 1e-12);
                }
            }
        }
    }
}
