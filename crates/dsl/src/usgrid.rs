//! The unstructured-grid DSL processing system (`USGrid`) and its sample
//! application.
//!
//! Unlike the structured grid, every point stores the *global addresses* of
//! its neighbours (indirection), so whether an access stays inside the block
//! cannot be decided arithmetically — this is the DSL the paper evaluates
//! with and without MMAT.  Two memory layouts are provided through
//! [`GridLayout`]:
//!
//! * **CaseC** — points stored at their spatial position (indirect but
//!   consecutive accesses);
//! * **CaseR** — points scattered over the whole region (no spatial
//!   locality; Assumption III violated).
//!
//! Data outside the computational domain lives in a Static Data block, as in
//! §V-B2.
//!
//! # Reference and what the service runs
//!
//! The family has one app of its own, and one Env for the service:
//!
//! * **The paper-fidelity reference** — [`UsCell`], [`UsGridSystem`] as a
//!   `DslSystem<Cell = UsCell>`, [`UsGridJacobiApp`] and [`UsUpdate`]: Fig. 5b
//!   as drawn, every cell storing its neighbours' addresses beside its value
//!   (72 bytes to change 8), each neighbour read with Listing 1's per-cell
//!   `GetD` in either layout.  The figure bins, the layer ledger's L2/L3
//!   replays and the test oracles drive it; no service path does.
//! * **The service's Env** — [`UsGridValueSystem`] (`Cell = f64`): the same
//!   tiling, static row and catch-all over a plane of values.  Where points
//!   stay in place (CaseC, the one layout the service runs) a program's
//!   neighbours are fixed offsets of every point, so the program is a
//!   stencil: the kernel crate lowers it (`UsGridProgram::to_stencil`) and
//!   runs it as a stencil job runs (`IrStencilApp`: the halo ring as runs,
//!   then the row loop over the lent block, the ring placed in its ghost
//!   frame) on this Env, framed as wide as the program reaches.  A read off the
//!   domain on any side yields `boundary_value`, as the reference's static
//!   slots do, so the field bits are the reference's; the counters are the
//!   stencil's, one read a point and one a ring cell where the reference
//!   reads five (`tests/value_plane.rs`).  A scattered layout (CaseR) has no
//!   offsets to lower and runs the reference only.

use crate::common::{build_tiled_env_with_topology, DslSystem, FieldSink, Tiling};
use aohpc_env::{Cell, Env, Extent, GlobalAddress, TreeTopology};
use aohpc_mem::PoolHandle;
use aohpc_runtime::{HpcApp, TaskCtx, TaskSlot};
use aohpc_workloads::{GridLayout, RegionSize};
use std::sync::Arc;

/// One unstructured-grid point of the reference app: its value and the
/// storage addresses of its four neighbours (the indirection of Fig. 5b/5c).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsCell {
    /// Scalar value at the point.
    pub value: f64,
    /// Storage addresses `(x, y)` of the four neighbours (N, W, E, S).
    pub neighbors: [(i64, i64); 4],
}

impl Default for UsCell {
    fn default() -> Self {
        UsCell { value: 0.0, neighbors: [(0, 0); 4] }
    }
}

/// Configuration of the USGrid DSL processing system (§V-B2: block 256×256,
/// page 2⁸ points).
#[derive(Debug, Clone)]
pub struct UsGridSystem {
    /// Computational region (logical points).
    pub region: RegionSize,
    /// Block side length in points.
    pub block_size: usize,
    /// Points per page.
    pub cells_per_page: usize,
    /// Memory layout (CaseC / CaseR).
    pub layout: GridLayout,
    /// Value of out-of-domain points (stored in the Static Data block).
    pub boundary_value: f64,
    /// Memory-pool capacity in bytes (None = effectively unbounded).
    pub pool_bytes: Option<u64>,
    /// Shape of the data branch of the Env tree (§III-B3 locality joints).
    pub tree: TreeTopology,
}

impl UsGridSystem {
    /// The paper's DSL parameters for a region and layout.
    pub fn paper(region: RegionSize, layout: GridLayout) -> Self {
        UsGridSystem {
            region,
            block_size: 256,
            cells_per_page: 256,
            layout,
            boundary_value: 0.0,
            pool_bytes: None,
            tree: TreeTopology::Flat,
        }
    }

    /// A configuration with an arbitrary block size (for scaled-down runs).
    pub fn with_block_size(region: RegionSize, block_size: usize, layout: GridLayout) -> Self {
        UsGridSystem {
            region,
            block_size,
            cells_per_page: (block_size * block_size / 16).max(1),
            layout,
            boundary_value: 0.0,
            pool_bytes: None,
            tree: TreeTopology::Flat,
        }
    }

    /// Use a non-default data-branch topology (locality joints, §III-B3).
    pub fn with_topology(mut self, tree: TreeTopology) -> Self {
        self.tree = tree;
        self
    }

    fn pool(&self) -> PoolHandle {
        match self.pool_bytes {
            Some(bytes) => PoolHandle::single(bytes),
            None => PoolHandle::unbounded(),
        }
    }

    /// The tiling of the storage region into blocks.
    pub fn tiling(&self) -> Tiling {
        Tiling { nx: self.region.nx, ny: self.region.ny, block: self.block_size }
    }

    /// Storage address of a logical point.
    pub fn storage_of(&self, x: i64, y: i64) -> GlobalAddress {
        let (sx, sy) = self.layout.storage_of(x, y, self.region.nx as i64, self.region.ny as i64);
        GlobalAddress::new2d(sx, sy)
    }

    /// Storage address representing an out-of-domain neighbour: a slot in the
    /// Static Data block row placed just below the domain.
    pub fn static_slot_of(&self, x: i64, _y: i64) -> GlobalAddress {
        GlobalAddress::new2d(x.clamp(0, self.region.nx as i64 - 1), self.region.ny as i64)
    }

    /// The storage address of the neighbour of logical `(x, y)` in direction
    /// `(dx, dy)` — either a real point or a Static-block slot.
    pub fn neighbor_address(&self, x: i64, y: i64, dx: i64, dy: i64) -> (i64, i64) {
        let (nx, ny) = (self.region.nx as i64, self.region.ny as i64);
        self.neighbor_under(|x, y| self.layout.storage_of(x, y, nx, ny), x, y, dx, dy)
    }

    /// [`UsGridSystem::neighbor_address`] with the layout's `storage_of`
    /// supplied by the caller: a sweep over the points resolves the layout
    /// once instead of once per call.
    fn neighbor_under(
        &self,
        storage_of: impl Fn(i64, i64) -> (i64, i64),
        x: i64,
        y: i64,
        dx: i64,
        dy: i64,
    ) -> (i64, i64) {
        let (nxp, nyp) = (x + dx, y + dy);
        if nxp < 0 || nyp < 0 || nxp >= self.region.nx as i64 || nyp >= self.region.ny as i64 {
            let a = self.static_slot_of(nxp, nyp);
            (a.x, a.y)
        } else {
            storage_of(nxp, nyp)
        }
    }

    /// The family's Env over cells of type `C`, framed `frame` wide: one
    /// Data block per tile, and `outside` wherever a read leaves the domain.
    fn build_env_of<C: Cell>(&self, outside: C, frame: usize) -> Env<C> {
        let nx = self.region.nx;
        let ny = self.region.ny;
        let (env, _data) = build_tiled_env_with_topology::<C>(
            self.tiling(),
            self.cells_per_page,
            frame,
            self.pool(),
            self.tree,
            |b, root| {
                // Out-of-domain data: one row of static points below the domain.
                b.add_static(
                    root,
                    GlobalAddress::new2d(0, ny as i64),
                    Extent::new2d(nx, 1),
                    vec![outside.clone(); nx],
                );
                // Anything else outside the domain (defensive) is a Dirichlet
                // Arithmetic block.
                b.add_arithmetic(root, Arc::new(move |_| outside.clone()), true);
            },
        );
        env
    }
}

impl DslSystem for UsGridSystem {
    type Cell = UsCell;

    fn build_framed_env(&self, frame: usize) -> Env<UsCell> {
        self.build_env_of(UsCell { value: self.boundary_value, neighbors: [(0, 0); 4] }, frame)
    }
}

/// [`UsGridSystem`] on the value plane: the same tiling, static row and
/// Dirichlet catch-all, the cells plain `f64` values — the Env a usgrid job
/// runs its lowered stencil on (see the module docs).
#[derive(Debug, Clone)]
pub struct UsGridValueSystem(pub UsGridSystem);

impl DslSystem for UsGridValueSystem {
    type Cell = f64;

    fn build_framed_env(&self, frame: usize) -> Env<f64> {
        self.0.build_env_of(self.0.boundary_value, frame)
    }
}

/// The update hook signature: `(own_value, neighbour_values) -> new`.
///
/// Structurally identical to the kernel crate's lowered update routine, so
/// compiled artifacts plug in without a dependency edge between the crates.
pub type UsUpdateFn = Arc<dyn Fn(f64, &[f64]) -> f64 + Send + Sync>;

/// A pluggable per-point update law: `(own_value, neighbour_values) -> new`.
///
/// Installed by [`UsGridJacobiApp::with_update`], typically from a compiled
/// usgrid-family kernel artifact so that the reference app executes a cached
/// plan's arithmetic.  Neighbour values arrive in the program's declared
/// neighbour order, one slice per point.  A law sees and returns values
/// only: which points are a point's neighbours is fixed at `Initialize`.
/// When absent, the app's built-in `alpha·me + beta·Σ` law runs; the stock
/// compiled law reproduces it bit-for-bit.
#[derive(Clone)]
pub struct UsUpdate(pub UsUpdateFn);

impl std::fmt::Debug for UsUpdate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("UsUpdate(..)")
    }
}

/// The end-user application, as the paper draws it (the Fig. 5b reference of
/// the module docs): Jacobi relaxation over the indirect neighbour lists
/// (same arithmetic as SGrid, different memory behaviour).  The lists
/// are written once, by `Initialize`; the kernel reads each neighbour with
/// one un-hinted `GetD` ([`TaskCtx::get_global`]), Listing 1's per-cell
/// call, so MMAT memorises where those reads land.
#[derive(Debug, Clone)]
pub struct UsGridJacobiApp {
    /// The DSL system (needed to compute neighbour addresses at init time).
    pub system: UsGridSystem,
    /// Weight of the centre point.
    pub alpha: f64,
    /// Weight of each neighbour.
    pub beta: f64,
    /// Main-loop iterations.
    pub loops: usize,
    /// Where `Finalize` deposits the field, keyed by *logical* position.
    pub sink: Option<FieldSink>,
    /// Pluggable update law (None = the built-in `alpha·me + beta·Σ`).
    pub update: Option<UsUpdate>,
    /// The block's own points, staged in and out as one slab, kept between
    /// passes (an app instance is one task's).
    points: Vec<UsCell>,
}

impl UsGridJacobiApp {
    /// Create the benchmark application.
    pub fn new(system: UsGridSystem, loops: usize) -> Self {
        UsGridJacobiApp {
            system,
            alpha: 0.5,
            beta: 0.125,
            loops,
            sink: None,
            update: None,
            points: Vec::new(),
        }
    }

    /// Attach a result sink.
    pub fn with_sink(mut self, sink: FieldSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Install a pluggable update law (see [`UsUpdate`]).
    pub fn with_update(mut self, update: UsUpdate) -> Self {
        self.update = Some(update);
        self
    }

    /// App factory for the runtime driver.
    pub fn factory(&self) -> Arc<dyn Fn(TaskSlot) -> UsGridJacobiApp + Send + Sync> {
        let proto = self.clone();
        Arc::new(move |_slot| proto.clone())
    }

    /// Deterministic initial condition of a *logical* point.
    pub fn initial_value(x: i64, y: i64) -> f64 {
        ((x * 13 + y * 7) % 97) as f64 / 97.0
    }
}

impl HpcApp<UsCell> for UsGridJacobiApp {
    fn loop_count(&self) -> usize {
        self.loops
    }

    fn initialize(&mut self, ctx: &mut TaskCtx<UsCell>) {
        // Sweep the owned storage positions, one slab per block: the layout
        // inverted names the logical point stored at each, and that point's
        // value and neighbours are what the cell holds.
        let system = &self.system;
        let layout = system.layout.resolve(system.region.nx as i64, system.region.ny as i64);
        ctx.initialize_owned(|s| {
            let (x, y) = layout.logical_of(s.x, s.y);
            // N, W, E, S.
            let neighbors = [(0, -1), (-1, 0), (1, 0), (0, 1)].map(|(dx, dy)| {
                system.neighbor_under(|x, y| layout.storage_of(x, y), x, y, dx, dy)
            });
            UsCell { value: Self::initial_value(x, y), neighbors }
        });
    }

    fn kernel(&mut self, ctx: &mut TaskCtx<UsCell>, _warmup: bool) -> bool {
        let (alpha, beta) = (self.alpha, self.beta);
        let (points, update) = (&mut self.points, &self.update);
        for bid in ctx.get_blocks() {
            let cells = ctx.env().block(bid).meta.extent.cells();
            points.resize(cells, UsCell::default());
            // Own values: always inside the block, one slab.
            ctx.get_block_dd(bid, points);
            for me in points.iter_mut() {
                // Neighbours are indirect: no static in-block guarantee, so
                // each read goes through MMAT / the Env search where it
                // leaves the block (`GetD`).
                let at = |(x, y)| GlobalAddress::new2d(x, y);
                let vals = me.neighbors.map(|n| ctx.get_global(bid, at(n)).value);
                me.value = match update {
                    Some(update) => (update.0)(me.value, &vals),
                    None => {
                        let mut sum = 0.0;
                        for v in vals {
                            sum += v;
                        }
                        alpha * me.value + beta * sum
                    }
                };
            }
            ctx.set_block(bid, points);
        }
        ctx.refresh()
    }

    fn finalize(&mut self, ctx: &mut TaskCtx<UsCell>) {
        if let Some(sink) = &self.sink {
            // Report values keyed by storage address; tests invert the layout
            // when they need logical positions.
            ctx.deposit_owned(sink, |cell| cell.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::new_field_sink;
    use aohpc_aop::{Weaver, WovenProgram};
    use aohpc_runtime::{execute, MpiAspect, RunConfig, Topology};
    use std::collections::HashMap;

    /// Handwritten reference on the logical grid (layout-independent).
    fn reference(region: RegionSize, steps: usize) -> Vec<f64> {
        let (nx, ny) = (region.nx as i64, region.ny as i64);
        let mut cur: Vec<f64> =
            (0..ny * nx).map(|k| UsGridJacobiApp::initial_value(k % nx, k / nx)).collect();
        let get = |b: &Vec<f64>, x: i64, y: i64| {
            if x < 0 || y < 0 || x >= nx || y >= ny {
                0.0
            } else {
                b[(y * nx + x) as usize]
            }
        };
        for _ in 0..steps {
            let mut next = vec![0.0; (nx * ny) as usize];
            for y in 0..ny {
                for x in 0..nx {
                    next[(y * nx + x) as usize] = 0.5 * get(&cur, x, y)
                        + 0.125
                            * (get(&cur, x, y - 1)
                                + get(&cur, x - 1, y)
                                + get(&cur, x + 1, y)
                                + get(&cur, x, y + 1));
                }
            }
            cur = next;
        }
        cur
    }

    fn run(layout: GridLayout, topology: Topology, woven: WovenProgram, mmat: bool) -> Vec<f64> {
        run_region(RegionSize::square(16), layout, topology, woven, mmat)
    }

    fn run_region(
        region: RegionSize,
        layout: GridLayout,
        topology: Topology,
        woven: WovenProgram,
        mmat: bool,
    ) -> Vec<f64> {
        let steps = 3;
        let system = UsGridSystem::with_block_size(region, 8, layout);
        let sink = new_field_sink();
        let app = UsGridJacobiApp::new(system.clone(), steps).with_sink(sink.clone());
        let sys_arc = Arc::new(system.clone());
        let config = RunConfig::serial().with_topology(topology).with_mmat(mmat);
        let report = execute(&config, woven, sys_arc.env_factory(), app.factory());
        assert!(report.tasks.iter().all(|t| t.steps == steps as u64));
        logical_field(&system, &sink)
    }

    /// The storage-addressed results in `sink`, in logical row-major order.
    fn logical_field(system: &UsGridSystem, sink: &FieldSink) -> Vec<f64> {
        let by_storage: HashMap<_, _> = sink.lock().iter().copied().collect();
        let (nx, ny) = (system.region.nx as i64, system.region.ny as i64);
        (0..ny)
            .flat_map(|y| (0..nx).map(move |x| (x, y)))
            .map(|(x, y)| by_storage[&system.storage_of(x, y)])
            .collect()
    }

    #[test]
    fn the_value_env_reads_the_boundary_value_all_round_the_domain() {
        // A stencil's halo ring on this Env reaches past every edge: above
        // (the catch-all), below (the static row, then the catch-all), to
        // either side and round the corners, as far as a span of 8.
        let region = RegionSize { nx: 20, ny: 12 };
        let mut system = UsGridSystem::with_block_size(region, 8, GridLayout::CaseC);
        system.boundary_value = 0.25;
        let env = UsGridValueSystem(system).build_env();
        let (mut state, start) = (aohpc_env::AccessState::new(), env.data_block_ids()[0]);
        for (x, y) in (-8..12 + 8).flat_map(|y| (-8..20 + 8).map(move |x| (x, y))) {
            if (0..20).contains(&x) && (0..12).contains(&y) {
                continue;
            }
            let read = env.read(start, GlobalAddress::new2d(x, y), false, &mut state);
            assert_eq!(read, Some(0.25), "({x}, {y})");
        }
    }

    fn close(a: &[f64], b: &[f64]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn casec_serial_matches_reference() {
        let field = run(GridLayout::CaseC, Topology::serial(), WovenProgram::unwoven(), false);
        close(&field, &reference(RegionSize::square(16), 3));
    }

    #[test]
    fn casec_serial_with_mmat_matches_reference() {
        let field = run(GridLayout::CaseC, Topology::serial(), WovenProgram::unwoven(), true);
        close(&field, &reference(RegionSize::square(16), 3));
    }

    #[test]
    fn caser_serial_matches_reference() {
        // The scattered layout changes where data lives, not what is computed.
        let field =
            run(GridLayout::CaseR { seed: 11 }, Topology::serial(), WovenProgram::unwoven(), true);
        close(&field, &reference(RegionSize::square(16), 3));
    }

    #[test]
    fn ragged_tiling_matches_reference() {
        // 20 x 12 in blocks of 8: the right-hand tiles are 4 wide, the bottom
        // ones 4 tall, so a slab's row length is not the block size.
        let region = RegionSize { nx: 20, ny: 12 };
        for layout in [GridLayout::CaseC, GridLayout::CaseR { seed: 7 }] {
            let field =
                run_region(region, layout, Topology::serial(), WovenProgram::unwoven(), false);
            close(&field, &reference(region, 3));
        }
    }

    /// The app, with `Finalize` also keeping every owned cell as the Env
    /// holds it.
    #[derive(Clone)]
    struct KeepCells(UsGridJacobiApp, Arc<parking_lot::Mutex<Vec<(GlobalAddress, UsCell)>>>);

    impl HpcApp<UsCell> for KeepCells {
        fn loop_count(&self) -> usize {
            self.0.loop_count()
        }
        fn initialize(&mut self, ctx: &mut TaskCtx<UsCell>) {
            self.0.initialize(ctx);
        }
        fn kernel(&mut self, ctx: &mut TaskCtx<UsCell>, warmup: bool) -> bool {
            self.0.kernel(ctx, warmup)
        }
        fn finalize(&mut self, ctx: &mut TaskCtx<UsCell>) {
            self.0.finalize(ctx);
            let env = ctx.env().clone();
            for bid in ctx.owned_blocks() {
                let block = env.block(bid);
                for idx in 0..block.meta.extent.cells() {
                    let addr = block.to_global(block.meta.extent.delinearize(idx));
                    self.1.lock().push((addr, ctx.get_global(bid, addr)));
                }
            }
        }
    }

    #[test]
    fn initialize_places_every_point_where_the_layout_says() {
        // No step runs, so what `Finalize` finds is what `Initialize` left:
        // on a ragged tiling, with the points in place and scattered, on one
        // rank and split over two.
        let region = RegionSize { nx: 20, ny: 12 };
        let distributed = Topology::new(vec![aohpc_runtime::LayerSpec::distributed(2)]);
        for layout in [GridLayout::CaseC, GridLayout::CaseR { seed: 7 }] {
            for topology in [Topology::serial(), distributed.clone()] {
                let system = UsGridSystem::with_block_size(region, 8, layout);
                let (sink, cells) = (new_field_sink(), Arc::default());
                let app = KeepCells(
                    UsGridJacobiApp::new(system.clone(), 0).with_sink(sink.clone()),
                    Arc::clone(&cells),
                );
                let woven = Weaver::new().with_aspect(Box::new(MpiAspect::<UsCell>::new())).weave();
                let config = RunConfig::serial().with_topology(topology);
                let env_factory = Arc::new(system.clone()).env_factory();
                execute(&config, woven, env_factory, Arc::new(move |_| app.clone()));

                let values: HashMap<_, _> = sink.lock().iter().copied().collect();
                let cells: HashMap<_, _> = cells.lock().iter().copied().collect();
                assert_eq!((values.len(), cells.len()), (region.cells(), region.cells()));
                for (x, y) in (0..12).flat_map(|y| (0..20).map(move |x| (x, y))) {
                    let s = system.storage_of(x, y);
                    let want = UsCell {
                        value: UsGridJacobiApp::initial_value(x, y),
                        neighbors: [(0, -1), (-1, 0), (1, 0), (0, 1)]
                            .map(|(dx, dy)| system.neighbor_address(x, y, dx, dy)),
                    };
                    assert_eq!(values[&s], want.value, "{} ({x}, {y})", layout.name());
                    assert_eq!(cells[&s], want, "{} ({x}, {y})", layout.name());
                }
            }
        }
    }

    #[test]
    fn casec_distributed_matches_reference() {
        let woven = Weaver::new().with_aspect(Box::new(MpiAspect::<UsCell>::new())).weave();
        let topo = Topology::new(vec![aohpc_runtime::LayerSpec::distributed(2)]);
        let field = run(GridLayout::CaseC, topo, woven, true);
        close(&field, &reference(RegionSize::square(16), 3));
    }

    #[test]
    fn caser_distributed_matches_reference() {
        let woven = Weaver::new().with_aspect(Box::new(MpiAspect::<UsCell>::new())).weave();
        let topo = Topology::new(vec![aohpc_runtime::LayerSpec::distributed(2)]);
        let field = run(GridLayout::CaseR { seed: 3 }, topo, woven, true);
        close(&field, &reference(RegionSize::square(16), 3));
    }

    #[test]
    fn caser_scatters_accesses_out_of_block() {
        // The mechanism behind the paper's CaseC/CaseR gap: CaseR's neighbour
        // accesses leave the starting block far more often.
        let count_out_of_block = |layout: GridLayout| {
            let region = RegionSize::square(32);
            let system = UsGridSystem::with_block_size(region, 8, layout);
            let app = UsGridJacobiApp::new(system.clone(), 2);
            let config = RunConfig::serial();
            let report = execute(
                &config,
                WovenProgram::unwoven(),
                Arc::new(system).env_factory(),
                app.factory(),
            );
            report.total_counters().out_of_block_reads
        };
        let casec = count_out_of_block(GridLayout::CaseC);
        let caser = count_out_of_block(GridLayout::CaseR { seed: 5 });
        assert!(
            caser > casec * 3,
            "CaseR must leave the block far more often (CaseC={casec}, CaseR={caser})"
        );
    }

    #[test]
    fn locality_joints_match_flat_and_reduce_search_cost_for_caser() {
        // §III-B3: inserting bounded Empty joints must not change results and
        // must cut the number of tree nodes visited by CaseR's out-of-block
        // neighbour accesses (no MMAT, so every such access searches).
        let run_counting = |tree: TreeTopology| {
            // 8×8 blocks: large enough that the flat data branch is expensive
            // to scan while the quadtree path stays logarithmic.
            let region = RegionSize::square(64);
            let system = UsGridSystem::with_block_size(region, 8, GridLayout::CaseR { seed: 5 })
                .with_topology(tree);
            let sink = new_field_sink();
            let app = UsGridJacobiApp::new(system.clone(), 1).with_sink(sink.clone());
            let config = RunConfig::serial();
            let report = execute(
                &config,
                WovenProgram::unwoven(),
                Arc::new(system).env_factory(),
                app.factory(),
            );
            let mut field: Vec<(i64, i64, f64)> =
                sink.lock().iter().map(|(a, v)| (a.x, a.y, *v)).collect();
            field.sort_by_key(|&(x, y, _)| (x, y));
            (report.total_counters().search_nodes_visited, field)
        };
        let (flat_visited, flat_field) = run_counting(TreeTopology::Flat);
        let (quad_visited, quad_field) =
            run_counting(TreeTopology::Quadtree { max_leaf_blocks: 1 });
        assert_eq!(flat_field.len(), quad_field.len());
        for ((x1, y1, v1), (x2, y2, v2)) in flat_field.iter().zip(&quad_field) {
            assert_eq!((x1, y1), (x2, y2));
            assert!((v1 - v2).abs() < 1e-12);
        }
        assert!(
            quad_visited * 2 < flat_visited,
            "quadtree joints should at least halve the search cost \
             (flat visited {flat_visited}, quadtree visited {quad_visited})"
        );
    }

    #[test]
    fn neighbor_addresses_point_to_static_row_outside_domain() {
        let system = UsGridSystem::with_block_size(RegionSize::square(8), 4, GridLayout::CaseC);
        assert_eq!(system.neighbor_address(0, 0, 0, -1), (0, 8));
        assert_eq!(system.neighbor_address(7, 7, 1, 0), (7, 8));
        assert_eq!(system.neighbor_address(3, 3, 1, 0), (4, 3));
        let env = system.build_env();
        // 4 data blocks + root + joint + static + arithmetic
        assert_eq!(env.stats().num_data_blocks, 4);
        assert_eq!(env.len(), 8);
    }
}
