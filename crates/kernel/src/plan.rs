//! The access-resolution cache: a compiled, block-shaped execution plan.
//!
//! The paper's second future-work item ("Cache of data access resolution")
//! observes that every memory access of the prototype resolves its address
//! again, even when the same subkernel touches the same offsets at every cell
//! and step.  A [`CompiledKernel`] removes that cost: for a given block shape
//! and stencil it classifies, *once*, every (cell, offset) pair as
//!
//! * **interior** — all of the cell's loads stay inside the block, so they
//!   become precomputed row-major index offsets (no in-block test, no Env
//!   search, no MMAT lookup); interior cells are processed in sequential
//!   memory order, which is exactly the "reordering the instruction sequence
//!   [so that] memory accesses can be made sequential" the paper proposes;
//! * **halo** — at least one load leaves the block; the in-block loads are
//!   still precomputed indices and only the true out-of-block loads go back
//!   to the platform (`GetD` with the search path / MMAT).
//!
//! The out-of-block cells are known here too, so the plan also lists them
//! once — the block shape's [`HaloRing`]: every distinct out-of-block cell
//! with a slot, the slots grouped into maximal axis-aligned runs.  The
//! executor fetches each ring cell once per block (one platform run read per
//! run, see `TaskCtx::read_ring`), places the ring's runs in the
//! ghost frame of the plan's tile — the block's own read buffer when the
//! block is lent framed as wide as the program reaches, else a scratch tile
//! the block's rows are copied into — and every cell, interior or not,
//! reads its loads from the tile at the offsets' baked tile deltas.
//!
//! Under Assumption II the classification never changes between steps, so the
//! plan is computed once per (program, block shape) pair and reused — the
//! compile-time analogue of MMAT's run-time memoization.

use crate::backend::{ExecStats, Processor};
use crate::opt::{Dag, OptLevel};
use crate::program::StencilProgram;
use crate::spec::{SpecializationId, SpecializedKernel};
use crate::tape::{ExecScratch, ExecTape, LANES};
use aohpc_env::{Extent, Frame};
use aohpc_runtime::RingRun;
use std::sync::Arc;

/// A provider of compiled kernels: given a program, a block shape and an
/// optimization level, return the (possibly shared) compiled plan.
///
/// [`IrStencilApp`](crate::app::IrStencilApp) compiles privately by default;
/// installing a `PlanSource` redirects every compile through it, which is how
/// the multi-tenant service layer shares one plan cache across concurrent
/// submissions of the same program.
pub trait PlanSource: Send + Sync {
    /// Resolve (compiling if needed) the plan for `(program, extent, level)`.
    fn plan_for(
        &self,
        program: &StencilProgram,
        extent: Extent,
        level: OptLevel,
    ) -> Arc<CompiledKernel>;
}

/// The distinct out-of-block cells one execution of a plan reads, each with
/// a slot, grouped into maximal axis-aligned runs ([`RingRun`]s, what
/// `TaskCtx::read_ring` reads).
///
/// A cell's slot is its place in ring order over everything the stencil can
/// reach outside the block: the rows above the block top-down and the rows
/// below it, each along `x` (corners included), then the columns left of it
/// and the columns right of it, each along `y`.  Reachable cells no boundary
/// cell loads (the corners, for a 5-point stencil) keep their slot but
/// belong to no run and are never fetched.  A 5-point ring is its four
/// edges; the 9-point ring adds the four corners to the two row runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HaloRing {
    runs: Vec<RingRun>,
    slots: usize,
    cells: usize,
}

impl HaloRing {
    /// The ring of the loaded slots of `order`: loaded neighbours along a
    /// line become one run.
    fn of_loaded(order: &RingOrder, loaded: &[bool]) -> Self {
        let mut runs: Vec<RingRun> = Vec::new();
        let mut slot = 0;
        for ((x0, y0), (dx, dy), len) in order.lines() {
            let mut open = false;
            for k in 0..len {
                if loaded[slot] {
                    match runs.last_mut() {
                        Some(run) if open => run.len += 1,
                        _ => runs.push(RingRun {
                            x: x0 + k * dx,
                            y: y0 + k * dy,
                            dx,
                            dy,
                            slot,
                            len: 1,
                        }),
                    }
                }
                open = loaded[slot];
                slot += 1;
            }
        }
        let cells = runs.iter().map(|run| run.len).sum();
        HaloRing { runs, slots: loaded.len(), cells }
    }

    /// Length of the ring buffer: one value per slot.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of distinct cells the ring fetches (the cells of its runs).
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// The runs, in slot order.
    pub fn runs(&self) -> &[RingRun] {
        &self.runs
    }

    /// Fill a ring buffer one cell at a time: `buf[slot] = halo(x, y)` for
    /// every cell of every run.
    pub fn fill_per_cell(&self, buf: &mut [f64], mut halo: impl FnMut(i64, i64) -> f64) {
        for run in &self.runs {
            for (value, (x, y)) in buf[run.slots()].iter_mut().zip(run.cells()) {
                *value = halo(x, y);
            }
        }
    }
}

/// How far `offsets` reach past each side of a block, `[left, right, top,
/// bottom]`, each ≥ 0: the width of the halo ring on each side.
pub(crate) fn reach(offsets: &[(i64, i64)]) -> [i64; 4] {
    let (xs, ys) = (offsets.iter().map(|o| o.0), offsets.iter().map(|o| o.1));
    let (min_x, max_x) = (xs.clone().min().unwrap_or(0), xs.max().unwrap_or(0));
    let (min_y, max_y) = (ys.clone().min().unwrap_or(0), ys.max().unwrap_or(0));
    [-min_x.min(0), max_x.max(0), -min_y.min(0), max_y.max(0)]
}

/// Ring order (see [`HaloRing`]) for an `nx × ny` block and a stencil's
/// reach past each of its sides.
struct RingOrder {
    nx: i64,
    ny: i64,
    /// How far the stencil reaches past each side of the block.
    left: i64,
    right: i64,
    top: i64,
    bottom: i64,
}

impl RingOrder {
    fn row_len(&self) -> i64 {
        self.left + self.nx + self.right
    }

    /// Number of slots.
    fn len(&self) -> usize {
        ((self.top + self.bottom) * self.row_len() + (self.left + self.right) * self.ny) as usize
    }

    /// Slot of the out-of-block cell `(x, y)`.
    fn slot(&self, x: i64, y: i64) -> usize {
        let p = if y < 0 || y >= self.ny {
            let row = if y < 0 { y + self.top } else { self.top + y - self.ny };
            row * self.row_len() + x + self.left
        } else {
            let col = if x < 0 { x + self.left } else { self.left + x - self.nx };
            (self.top + self.bottom) * self.row_len() + col * self.ny + y
        };
        p as usize
    }

    /// The lines in slot order: `(first cell, step, length)`.
    fn lines(&self) -> impl Iterator<Item = ((i64, i64), (i64, i64), i64)> + '_ {
        let rows = (-self.top..0).chain(self.ny..self.ny + self.bottom);
        let cols = (-self.left..0).chain(self.nx..self.nx + self.right);
        rows.map(|y| ((-self.left, y), (1, 0), self.row_len()))
            .chain(cols.map(|x| ((x, 0), (0, 1), self.ny)))
    }
}

/// The rectangular interior region (half-open bounds) where every stencil
/// offset stays inside the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InteriorRegion {
    /// First interior column.
    pub x0: i64,
    /// One past the last interior column.
    pub x1: i64,
    /// First interior row.
    pub y0: i64,
    /// One past the last interior row.
    pub y1: i64,
}

impl InteriorRegion {
    /// Number of interior cells.
    pub fn cells(&self) -> usize {
        ((self.x1 - self.x0).max(0) * (self.y1 - self.y0).max(0)) as usize
    }

    /// Whether a local coordinate lies inside the interior region.
    pub fn contains(&self, x: i64, y: i64) -> bool {
        x >= self.x0 && x < self.x1 && y >= self.y0 && y < self.y1
    }
}

/// The resolved access pattern of one (stencil, block shape) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPlan {
    /// Block shape the plan was compiled for.
    pub extent_nx: usize,
    /// Block shape the plan was compiled for.
    pub extent_ny: usize,
    /// The live stencil offsets (after optimization), in DAG order.
    pub offsets: Vec<(i64, i64)>,
    /// Tile index deltas of `offsets` (`dy · stride + dx`, the stride of
    /// `tile`): a load of the cell at tile index `i` reads `i + delta`.
    pub linear_offsets: Vec<isize>,
    /// The interior region.
    pub interior: InteriorRegion,
    /// The out-of-block cells the boundary reads, once each.
    pub ring: HaloRing,
    /// The tile a block runs from: the block's rows in a ghost frame at
    /// least as wide as the stencil reaches — the layout of a block buffer
    /// framed that wide, which a block lent in it runs from in place.
    pub(crate) tile: Frame,
}

impl AccessPlan {
    /// Build the plan for a stencil (`offsets`) over a `nx × ny` block, its
    /// tile framed as wide as the stencil reaches past any side.
    pub fn build(offsets: &[(i64, i64)], nx: usize, ny: usize) -> Self {
        let frame = reach(offsets).into_iter().max().unwrap_or(0);
        Self::framed(offsets, nx, ny, frame as usize)
    }

    /// [`AccessPlan::build`] with the tile framed `frame` wide, at least the
    /// stencil's reach.
    pub fn framed(offsets: &[(i64, i64)], nx: usize, ny: usize, frame: usize) -> Self {
        assert!(nx > 0 && ny > 0, "blocks must be non-empty");
        let (inx, iny) = (nx as i64, ny as i64);
        let [left, right, top, bottom] = reach(offsets);
        assert!(
            [left, right, top, bottom].iter().all(|&r| r <= frame as i64),
            "a tile framed {frame} wide cannot hold a stencil reaching {:?}",
            [left, right, top, bottom]
        );
        let interior = InteriorRegion {
            x0: left,
            x1: (inx - right).max(left),
            y0: top,
            y1: (iny - bottom).max(top),
        };
        let tile = Frame::new(nx, ny, frame);
        let width = tile.stride();
        let linear_offsets =
            offsets.iter().map(|&(dx, dy)| dy as isize * width as isize + dx as isize).collect();
        let order = RingOrder { nx: inx, ny: iny, left, right, top, bottom };
        let mut loaded = vec![false; order.len()];
        for y in 0..iny {
            for x in (0..inx).filter(|&x| !interior.contains(x, y)) {
                for &(dx, dy) in offsets {
                    let (tx, ty) = (x + dx, y + dy);
                    if !(0..inx).contains(&tx) || !(0..iny).contains(&ty) {
                        loaded[order.slot(tx, ty)] = true;
                    }
                }
            }
        }
        let ring = HaloRing::of_loaded(&order, &loaded);
        AccessPlan {
            extent_nx: nx,
            extent_ny: ny,
            offsets: offsets.to_vec(),
            linear_offsets,
            interior,
            ring,
            tile,
        }
    }

    /// Width of the tile's ghost frame: how wide a block's own frame must
    /// be for the block to run in place.
    pub fn frame(&self) -> usize {
        self.tile.width()
    }

    /// Place the ring's values, one a slot of `ring`, in the frame of `tile`
    /// (a buffer laid out as the plan's tile): the loaded slots only.
    pub(crate) fn place_ring(&self, ring: &[f64], tile: &mut [f64]) {
        let (width, origin) = (self.tile.stride() as i64, self.tile.offset(0) as i64);
        for run in self.ring.runs() {
            let first = origin + run.y * width + run.x;
            let step = run.dx + run.dy * width;
            for (k, &value) in (0..).zip(&ring[run.slots()]) {
                tile[(first + k * step) as usize] = value;
            }
        }
    }

    /// Total number of cells in the block.
    pub fn cells(&self) -> usize {
        self.extent_nx * self.extent_ny
    }

    /// Number of out-of-block cells one execution of the plan fetches: the
    /// ring's distinct cells, each fetched once however many boundary cells
    /// load it.
    pub fn halo_loads(&self) -> usize {
        self.ring.cells()
    }

    /// The [`ExecStats`] of one block on `processor` at `ops` DAG operations
    /// a cell, whichever executor ran it: on `Simd` each interior row is
    /// `width / LANES` vector groups and a scalar remainder; boundary cells
    /// are scalar; the ring's distinct cells are fetched once.
    pub(crate) fn exec_stats(&self, processor: Processor, ops: u64) -> ExecStats {
        let (cells, interior, i) =
            (self.cells() as u64, self.interior.cells() as u64, self.interior);
        let row_groups = (i.x1 - i.x0) as u64 / LANES as u64;
        let groups =
            if processor == Processor::Simd { (i.y1 - i.y0) as u64 * row_groups } else { 0 };
        ExecStats {
            blocks: 1,
            cells,
            interior_cells: interior,
            boundary_cells: cells - interior,
            halo_fetches: self.halo_loads() as u64,
            scalar_ops: ops * (cells - groups * LANES as u64),
            vector_ops: ops * groups,
        }
    }
}

/// A program compiled for one block shape: optimized DAG + access plan +
/// register-allocated execution tape.
///
/// Everything the executor needs per block is resolved here, once:
/// the [`ExecTape`] (instructions with baked offset slots and linear deltas)
/// and its operation count.  Plan caches that share `Arc<CompiledKernel>`
/// therefore share the lowered tape too — a warm cache hit skips lowering
/// entirely.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    name: String,
    num_params: usize,
    dag: Dag,
    plan: AccessPlan,
    tape: ExecTape,
    /// The monomorphic fast path when the lowered tape matched a hot shape
    /// (`None` = interpret the tape).  Decided once, here, so plan caches
    /// amortize the match alongside the lowering.
    spec: Option<SpecializedKernel>,
}

impl CompiledKernel {
    /// Compile a program for blocks of the given extent (must be 2-D).
    pub fn compile(program: &StencilProgram, extent: Extent, level: OptLevel) -> Self {
        assert_eq!(extent.nz, 1, "the subkernel IR targets 2-D blocks");
        let dag = Dag::lower(program.expr(), level);
        // Use the DAG's (post-optimization) offsets: loads removed by the
        // optimizer do not cost halo fetches.  The tile is framed as wide as
        // the program reaches, optimized or not: the frame an Env built for
        // the program keeps.
        let plan = AccessPlan::framed(&dag.offsets(), extent.nx, extent.ny, program.frame());
        let tape = ExecTape::lower(&dag, &plan);
        let spec = SpecializedKernel::try_match(&tape, &plan);
        CompiledKernel {
            name: program.name().to_string(),
            num_params: program.num_params(),
            dag,
            plan,
            tape,
            spec,
        }
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of runtime parameters.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// The optimized DAG.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The access plan.
    pub fn plan(&self) -> &AccessPlan {
        &self.plan
    }

    /// The register-allocated execution tape (lowered once, at compile time).
    pub fn tape(&self) -> &ExecTape {
        &self.tape
    }

    /// Which specialized loop (if any) executes this kernel's blocks.
    pub fn specialization(&self) -> SpecializationId {
        self.spec.as_ref().map(SpecializedKernel::id).unwrap_or(SpecializationId::Generic)
    }

    /// The matched specialization, when the tape qualified.
    pub(crate) fn spec(&self) -> Option<&SpecializedKernel> {
        self.spec.as_ref()
    }

    /// Pre-size a scratch at plan-resolve time so that every later
    /// [`execute_block`](CompiledKernel::execute_block) call — even the very
    /// first, cold one — performs zero allocations.  Every processor runs the
    /// same loop, so the processor sizes nothing; the benchmark ledger passes one.
    pub fn prepare_scratch(&self, scratch: &mut ExecScratch, _processor: Processor) {
        self.size_scratch(scratch, self.spec.is_some(), true);
    }

    /// Grow `scratch` for one block — its tile only when the block runs
    /// from the tile (`tile`) — and return the values a register holds: a
    /// row for the tape, one for the specialized loop (`spec`), which reads
    /// its pinned weights only.
    pub(crate) fn size_scratch(&self, scratch: &mut ExecScratch, spec: bool, tile: bool) -> usize {
        let row = if spec { 1 } else { self.plan.extent_nx };
        let tile = if tile { self.plan.tile.len() } else { 0 };
        scratch.ensure(self.tape.num_regs() * row, self.plan.ring.slots(), tile);
        row
    }

    /// Width of the ghost frame a block must be lent in to run in place:
    /// [`StencilProgram::frame`] (see
    /// [`execute_block_framed`](CompiledKernel::execute_block_framed)).
    pub fn frame(&self) -> usize {
        self.plan.frame()
    }

    /// Evaluated DAG operations per cell.
    pub fn op_count(&self) -> u64 {
        self.tape.ops_per_cell()
    }

    /// Block shape the kernel was compiled for.
    pub fn extent(&self) -> Extent {
        Extent::new2d(self.plan.extent_nx, self.plan.extent_ny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::load;

    /// The cell a ring slot holds (`None` for a slot no run covers).
    fn cell_at(ring: &HaloRing, slot: usize) -> Option<(i64, i64)> {
        let run = ring.runs().iter().find(|run| run.slots().contains(&slot))?;
        run.cells().nth(slot - run.slot)
    }

    #[test]
    fn five_point_interior_is_the_inner_rectangle() {
        let p = StencilProgram::jacobi_5pt();
        let plan = AccessPlan::build(p.offsets(), 8, 6);
        assert_eq!(plan.interior, InteriorRegion { x0: 1, x1: 7, y0: 1, y1: 5 });
        assert_eq!(plan.interior.cells(), 6 * 4);
    }

    #[test]
    fn linear_offsets_match_row_major_layout() {
        let p = StencilProgram::jacobi_5pt();
        let plan = AccessPlan::build(p.offsets(), 8, 6);
        // The tile pads the 8×6 block by one cell a side: 10 wide, 8 tall,
        // block cell (0, 0) one row and one column in.
        let tile = plan.tile;
        assert_eq!((tile.stride(), tile.offset(0), tile.len()), (10, 11, 80));
        // offsets order: (0,0), (0,-1), (-1,0), (1,0), (0,1)
        assert_eq!(plan.offsets[0], (0, 0));
        assert_eq!(plan.linear_offsets[0], 0);
        let north = plan.offsets.iter().position(|&o| o == (0, -1)).unwrap();
        assert_eq!(plan.linear_offsets[north], -10);
        let east = plan.offsets.iter().position(|&o| o == (1, 0)).unwrap();
        assert_eq!(plan.linear_offsets[east], 1);
    }

    #[test]
    fn halo_load_count_for_five_point() {
        // For an n×n block and the 5-point stencil the halo loads are exactly
        // the 4n out-of-block neighbours.
        let p = StencilProgram::jacobi_5pt();
        for n in [2usize, 4, 8, 16] {
            let plan = AccessPlan::build(p.offsets(), n, n);
            assert_eq!(plan.halo_loads(), 4 * n, "n={n}");
        }
    }

    #[test]
    fn ring_cells_are_distinct_and_grouped_into_edges() {
        // 5-point: the four edges, one run each, no corners.
        let plan = AccessPlan::build(StencilProgram::jacobi_5pt().offsets(), 8, 6);
        let runs: Vec<_> =
            plan.ring.runs().iter().map(|r| ((r.x, r.y), (r.dx, r.dy), r.len)).collect();
        assert_eq!(
            runs,
            [((0, -1), (1, 0), 8), ((0, 6), (1, 0), 8), ((-1, 0), (0, 1), 6), ((8, 0), (0, 1), 6)]
        );
        // 9-point: an edge cell's three out-of-block loads overlap its
        // neighbours', so counting loads read 4·14·3 + 4·5 = 188 on a 16²
        // block; the ring holds each cell once — four edges and four corners.
        let plan = AccessPlan::build(StencilProgram::smooth_9pt().offsets(), 16, 16);
        assert_eq!(plan.halo_loads(), 4 * 16 + 4);
        let lens: Vec<usize> = plan.ring.runs().iter().map(|r| r.len).collect();
        assert_eq!(lens, [18, 18, 16, 16], "the corners ride on the row runs");
    }

    #[test]
    fn asymmetric_stencils_shift_the_interior() {
        // An upwind-style stencil reading only to the west keeps the east
        // column interior.
        let e = load(0, 0) + load(-2, 0);
        let p = StencilProgram::new("upwind", e, 0).unwrap();
        let plan = AccessPlan::build(p.offsets(), 8, 4);
        assert_eq!(plan.interior, InteriorRegion { x0: 2, x1: 8, y0: 0, y1: 4 });
    }

    #[test]
    fn stencil_larger_than_the_block_has_no_interior() {
        let e = load(0, 0) + load(5, 0) + load(-5, 0);
        let p = StencilProgram::new("wide", e, 0).unwrap();
        let plan = AccessPlan::build(p.offsets(), 4, 4);
        assert_eq!(plan.interior.cells(), 0);
        assert_eq!(plan.exec_stats(Processor::Scalar, 1).boundary_cells, 16);
    }

    mod ring_properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        proptest! {
            /// For any offset set within radius 2 (asymmetric sets included)
            /// the ring's runs hold exactly the out-of-block targets: every
            /// (cell, offset) pair that leaves the block targets the cell
            /// its ring slot's run holds, every run cell is some pair's
            /// target, no cell has two slots, and the runs are disjoint, in
            /// slot order, straight and maximal.  Every pair's tile delta
            /// lands on its target's tile index, inside the tile.
            #[test]
            fn ring_slots_cover_exactly_the_halo_targets(
                offsets in proptest::collection::vec(((-2i64..=2), (-2i64..=2)), 1..7),
                nx in 1usize..9,
                ny in 1usize..9,
            ) {
                let plan = AccessPlan::build(&offsets, nx, ny);
                let ring = &plan.ring;
                let [left, right, top, bottom] = reach(&plan.offsets);
                let (inx, iny) = (nx as i64, ny as i64);
                let order = RingOrder { nx: inx, ny: iny, left, right, top, bottom };
                let (width, origin) = (plan.tile.stride() as i64, plan.tile.offset(0) as i64);
                let mut targets = BTreeSet::new();
                for (x, y) in (0..iny).flat_map(|y| (0..inx).map(move |x| (x, y))) {
                    for (&(dx, dy), &delta) in plan.offsets.iter().zip(&plan.linear_offsets) {
                        let target = (x + dx, y + dy);
                        let at = origin + target.1 * width + target.0;
                        prop_assert_eq!(origin + y * width + x + delta as i64, at);
                        prop_assert!((0..plan.tile.len() as i64).contains(&at));
                        if !(0..inx).contains(&target.0) || !(0..iny).contains(&target.1) {
                            let slot = order.slot(target.0, target.1);
                            prop_assert!(slot < ring.slots());
                            prop_assert_eq!(cell_at(ring, slot), Some(target));
                            targets.insert(target);
                        }
                    }
                }
                let fetched: Vec<(i64, i64)> =
                    ring.runs().iter().flat_map(|run| run.cells()).collect();
                let distinct: BTreeSet<(i64, i64)> = fetched.iter().copied().collect();
                prop_assert_eq!(distinct.len(), fetched.len(), "a cell holds one slot");
                prop_assert_eq!(&distinct, &targets);
                prop_assert_eq!(plan.halo_loads(), targets.len());
                prop_assert_eq!(ring.cells(), targets.len());

                let mut next = 0;
                for run in ring.runs() {
                    prop_assert!(run.slot >= next, "runs are disjoint and in slot order");
                    prop_assert!(run.len > 0 && [(1, 0), (0, 1)].contains(&(run.dx, run.dy)));
                    // Maximal: the cells before and after it along its axis
                    // are not fetched cells of the same kind (row / column).
                    let row = |y: i64| y < 0 || y >= ny as i64;
                    let len = run.len as i64;
                    for (x, y) in [
                        (run.x - run.dx, run.y - run.dy),
                        (run.x + len * run.dx, run.y + len * run.dy),
                    ] {
                        prop_assert!(!distinct.contains(&(x, y)) || row(y) != row(run.y));
                    }
                    next = run.slots().end;
                }
                prop_assert!(next <= ring.slots());
            }
        }
    }

    #[test]
    fn compile_uses_post_optimization_offsets() {
        use crate::expr::lit;
        // The load at (1,0) is dead after optimization, so it must not appear
        // in the plan (and must not cost halo fetches).
        let e = load(0, 0) + load(1, 0) * lit(0.0);
        let p = StencilProgram::new("dead-east", e, 0).unwrap();
        let compiled = CompiledKernel::compile(&p, Extent::new2d(4, 4), OptLevel::Full);
        assert_eq!(compiled.plan().offsets, vec![(0, 0)]);
        assert_eq!(compiled.plan().halo_loads(), 0);
        assert_eq!(compiled.extent(), Extent::new2d(4, 4));
        assert_eq!(compiled.name(), "dead-east");
        // Without optimization the dead load stays.
        let plain = CompiledKernel::compile(&p, Extent::new2d(4, 4), OptLevel::None);
        assert_eq!(plain.plan().offsets.len(), 2);
        assert!(plain.plan().halo_loads() > 0);
    }
}
