//! The structured-grid DSL processing system (`SGrid`) and its sample
//! application.
//!
//! The DSL developer's part: a 2-D region is tiled into square Blocks of
//! `f64` cells; the region outside the computational domain is a Dirichlet
//! boundary served by an Arithmetic block.  Whether a stencil access stays
//! inside the block can be decided arithmetically from the loop indices, so
//! the generated accessors pass the skip-search flag exactly as Listing 1's
//! `GetD(LA_t{{i, j-1}}, j > 0)` does — which is why the paper evaluates
//! SGrid without MMAT.
//!
//! The end-user's part ([`SGridJacobiApp`]) solves the Laplace equation with
//! a 5-point finite-difference scheme by the Jacobi method, the benchmark of
//! §V-B1.

use crate::common::{build_tiled_env_with_topology, DslSystem, FieldSink, Tiling};
use aohpc_env::{Env, GlobalAddress, LocalAddress, TreeTopology};
use aohpc_mem::PoolHandle;
use aohpc_runtime::{HpcApp, TaskCtx, TaskSlot};
use aohpc_workloads::RegionSize;
use std::sync::Arc;

/// Configuration of the SGrid DSL processing system (the DSL Part parameters
/// of §V-B1: block size 256×256, page size 2⁸ cells).
#[derive(Debug, Clone)]
pub struct SGridSystem {
    /// Computational region.
    pub region: RegionSize,
    /// Block side length in cells.
    pub block_size: usize,
    /// Cells per page.
    pub cells_per_page: usize,
    /// Dirichlet boundary value outside the region.
    pub boundary_value: f64,
    /// Memory-pool capacity in bytes (None = effectively unbounded).
    pub pool_bytes: Option<u64>,
    /// Shape of the data branch of the Env tree (§III-B3 locality joints).
    pub tree: TreeTopology,
}

impl SGridSystem {
    /// The paper's DSL parameters for a given region.
    pub fn paper(region: RegionSize) -> Self {
        SGridSystem {
            region,
            block_size: 256,
            cells_per_page: 256,
            boundary_value: 0.0,
            pool_bytes: None,
            tree: TreeTopology::Flat,
        }
    }

    /// A configuration scaled to an arbitrary block size (benchmarks use
    /// smaller blocks at smaller scales so the block-per-task ratio of the
    /// paper is preserved).
    pub fn with_block_size(region: RegionSize, block_size: usize) -> Self {
        SGridSystem {
            region,
            block_size,
            cells_per_page: (block_size * block_size / 16).max(1),
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

    /// The tiling of the region into blocks.
    pub fn tiling(&self) -> Tiling {
        Tiling { nx: self.region.nx, ny: self.region.ny, block: self.block_size }
    }
}

impl DslSystem for SGridSystem {
    type Cell = f64;

    fn build_framed_env(&self, frame: usize) -> Env<f64> {
        let boundary = self.boundary_value;
        let (env, _data) = build_tiled_env_with_topology::<f64>(
            self.tiling(),
            self.cells_per_page,
            frame,
            self.pool(),
            self.tree,
            |b, root| {
                b.add_arithmetic(root, Arc::new(move |_addr| boundary), true);
            },
        );
        env
    }
}

/// The end-user application: Jacobi relaxation of the Laplace equation with a
/// 5-point stencil (Listing 1).
#[derive(Debug, Clone)]
pub struct SGridJacobiApp {
    /// Weight of the centre point.
    pub alpha: f64,
    /// Weight of each neighbour.
    pub beta: f64,
    /// Main-loop iterations.
    pub loops: usize,
    /// Block side length (needed for the in-block tests of the accessors).
    pub block_size: usize,
    /// Where `Finalize` deposits the computed field (None = discard).
    pub sink: Option<FieldSink>,
}

impl SGridJacobiApp {
    /// The benchmark kernel's coefficients.
    pub fn new(loops: usize, block_size: usize) -> Self {
        SGridJacobiApp { alpha: 0.5, beta: 0.125, loops, block_size, sink: None }
    }

    /// Attach a sink collecting the final field.
    pub fn with_sink(mut self, sink: FieldSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// An app factory for the runtime driver.
    pub fn factory(&self) -> Arc<dyn Fn(TaskSlot) -> SGridJacobiApp + Send + Sync> {
        let proto = self.clone();
        Arc::new(move |_slot| proto.clone())
    }

    /// Deterministic initial condition (a smooth bump plus a linear ramp).
    pub fn initial_value(addr: GlobalAddress) -> f64 {
        ((addr.x * 13 + addr.y * 7) % 97) as f64 / 97.0
    }
}

impl HpcApp<f64> for SGridJacobiApp {
    fn loop_count(&self) -> usize {
        self.loops
    }

    fn initialize(&mut self, ctx: &mut TaskCtx<f64>) {
        for bid in ctx.owned_blocks() {
            let (ext, origin) = {
                let b = ctx.env().block(bid);
                (b.meta.extent, b.meta.origin)
            };
            for j in 0..ext.ny as i64 {
                for i in 0..ext.nx as i64 {
                    let g = origin + LocalAddress::new2d(i, j);
                    ctx.set_initial(bid, LocalAddress::new2d(i, j), Self::initial_value(g));
                }
            }
        }
    }

    fn kernel(&mut self, ctx: &mut TaskCtx<f64>, _warmup: bool) -> bool {
        let alpha = self.alpha;
        let beta = self.beta;
        for bid in ctx.get_blocks() {
            let ext = ctx.env().block(bid).meta.extent;
            let (bx, by) = (ext.nx as i64, ext.ny as i64);
            for j in 0..by {
                for i in 0..bx {
                    // The paper's GetD/GetDD forms: the skip-search flag is the
                    // arithmetic "is this neighbour inside the block" test.
                    let e = ctx.get_dd(bid, LocalAddress::new2d(i, j));
                    let e_n = ctx.get(bid, LocalAddress::new2d(i, j - 1), j > 0);
                    let e_w = ctx.get(bid, LocalAddress::new2d(i - 1, j), i > 0);
                    let e_e = ctx.get(bid, LocalAddress::new2d(i + 1, j), i + 1 < bx);
                    let e_s = ctx.get(bid, LocalAddress::new2d(i, j + 1), j + 1 < by);
                    let ans = alpha * e + beta * (e_e + e_w + e_s + e_n);
                    ctx.set(bid, LocalAddress::new2d(i, j), ans);
                }
            }
        }
        ctx.refresh()
    }

    fn finalize(&mut self, ctx: &mut TaskCtx<f64>) {
        if let Some(sink) = &self.sink {
            let mut out = Vec::new();
            for bid in ctx.owned_blocks() {
                let (ext, origin) = {
                    let b = ctx.env().block(bid);
                    (b.meta.extent, b.meta.origin)
                };
                for j in 0..ext.ny as i64 {
                    for i in 0..ext.nx as i64 {
                        let v = ctx.get_dd(bid, LocalAddress::new2d(i, j));
                        out.push((origin + LocalAddress::new2d(i, j), v));
                    }
                }
            }
            sink.lock().extend(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::new_field_sink;
    use aohpc_aop::{Weaver, WovenProgram};
    use aohpc_runtime::{execute, MpiAspect, OmpAspect, RunConfig, Topology};

    fn reference(region: RegionSize, steps: usize) -> Vec<f64> {
        let (nx, ny) = (region.nx as i64, region.ny as i64);
        let mut cur: Vec<f64> = (0..ny * nx)
            .map(|k| SGridJacobiApp::initial_value(GlobalAddress::new2d(k % nx, k / nx)))
            .collect();
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
                            * (get(&cur, x + 1, y)
                                + get(&cur, x - 1, y)
                                + get(&cur, x, y + 1)
                                + get(&cur, x, y - 1));
                }
            }
            cur = next;
        }
        cur
    }

    fn run(
        region: RegionSize,
        block: usize,
        topology: Topology,
        woven: WovenProgram,
        mmat: bool,
    ) -> Vec<f64> {
        let system = Arc::new(SGridSystem::with_block_size(region, block));
        let sink = new_field_sink();
        let app = SGridJacobiApp::new(4, block).with_sink(sink.clone());
        let config = RunConfig::serial().with_topology(topology).with_mmat(mmat);
        let report = execute(&config, woven, system.env_factory(), app.factory());
        assert!(report.tasks.iter().all(|t| t.steps == 4));
        let nx = region.nx as i64;
        let mut field = vec![f64::NAN; region.cells()];
        for (addr, v) in sink.lock().iter() {
            field[(addr.y * nx + addr.x) as usize] = *v;
        }
        assert!(field.iter().all(|v| v.is_finite()));
        field
    }

    fn close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
    }

    #[test]
    fn serial_platform_matches_reference() {
        let region = RegionSize::square(24);
        let field = run(region, 8, Topology::serial(), WovenProgram::unwoven(), false);
        close(&field, &reference(region, 4));
    }

    #[test]
    fn mpi_woven_matches_reference() {
        let region = RegionSize::square(24);
        let woven = Weaver::new().with_aspect(Box::new(MpiAspect::<f64>::new())).weave();
        let topo = Topology::new(vec![aohpc_runtime::LayerSpec::distributed(3)]);
        let field = run(region, 8, topo, woven, false);
        close(&field, &reference(region, 4));
    }

    #[test]
    fn hybrid_woven_with_mmat_matches_reference() {
        let region = RegionSize::square(32);
        let woven = Weaver::new()
            .with_aspect(Box::new(MpiAspect::<f64>::new()))
            .with_aspect(Box::new(OmpAspect::<f64>::new()))
            .weave();
        let field = run(region, 8, Topology::hybrid(2, 2), woven, true);
        close(&field, &reference(region, 4));
    }

    #[test]
    fn locality_topologies_do_not_change_results() {
        let region = RegionSize::square(24);
        let reference_field = reference(region, 4);
        for tree in [
            aohpc_env::TreeTopology::MortonGroups { blocks_per_joint: 2 },
            aohpc_env::TreeTopology::Quadtree { max_leaf_blocks: 1 },
        ] {
            let system = Arc::new(SGridSystem::with_block_size(region, 8).with_topology(tree));
            let sink = new_field_sink();
            let app = SGridJacobiApp::new(4, 8).with_sink(sink.clone());
            let report = execute(
                &RunConfig::serial(),
                WovenProgram::unwoven(),
                system.env_factory(),
                app.factory(),
            );
            assert!(report.tasks.iter().all(|t| t.steps == 4));
            let nx = region.nx as i64;
            let mut field = vec![f64::NAN; region.cells()];
            for (addr, v) in sink.lock().iter() {
                field[(addr.y * nx + addr.x) as usize] = *v;
            }
            close(&field, &reference_field);
        }
    }

    #[test]
    fn paper_parameters() {
        let s = SGridSystem::paper(RegionSize::square(2048));
        assert_eq!(s.block_size, 256);
        assert_eq!(s.cells_per_page, 256);
        assert_eq!(s.tiling().total_blocks(), 64);
    }
}
