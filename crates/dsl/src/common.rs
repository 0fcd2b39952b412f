//! Shared machinery of the sample DSL processing systems.

use aohpc_env::{
    morton2d, Cell, Env, EnvBuilder, Extent, GlobalAddress, TilePlacement, TreeTopology,
};
use aohpc_mem::PoolHandle;
use std::collections::HashMap;
use std::sync::Arc;

/// A DSL processing system: something that can describe the Env of its target
/// application class.  The platform (core crate) asks the system for an Env
/// factory — one fresh Env per rank, since ranks never share memory.
pub trait DslSystem: Send + Sync {
    /// Cell type stored in the system's Data blocks.
    type Cell: Cell;

    /// Build the full-domain Env (all Data blocks plus boundary blocks),
    /// every Data block keeping a ghost frame `frame` cells wide: the reach
    /// of the app it is built for (`HpcApp::frame`).
    fn build_framed_env(&self, frame: usize) -> Env<Self::Cell>;

    /// The Env with no frame ([`DslSystem::build_framed_env`] at 0).
    fn build_env(&self) -> Env<Self::Cell> {
        self.build_framed_env(0)
    }

    /// A factory building one Env replica per call, framed as asked.
    fn env_factory(self: Arc<Self>) -> Arc<dyn Fn(usize) -> Env<Self::Cell> + Send + Sync>
    where
        Self: Sized + 'static,
    {
        Arc::new(move |frame| self.build_framed_env(frame))
    }
}

pub use aohpc_runtime::{new_field_sink, FieldSink};

/// Description of the block tiling of a rectangular region.
#[derive(Debug, Clone, Copy)]
pub struct Tiling {
    /// Region cells along X.
    pub nx: usize,
    /// Region cells along Y.
    pub ny: usize,
    /// Block side length in cells.
    pub block: usize,
}

impl Tiling {
    /// Blocks along X.
    pub fn blocks_x(&self) -> usize {
        self.nx.div_ceil(self.block)
    }

    /// Blocks along Y.
    pub fn blocks_y(&self) -> usize {
        self.ny.div_ceil(self.block)
    }

    /// Total number of blocks.
    pub fn total_blocks(&self) -> usize {
        self.blocks_x() * self.blocks_y()
    }
}

/// Build the Env tree of Fig. 2 for a tiled rectangular region: a root Empty
/// block, a boundary branch (added by the caller through `add_boundary`), and
/// one Data block per tile with its Z-order index under the data-branch
/// joints `topology` asks for.
///
/// `TreeTopology::Flat` reproduces the paper's default tree (one Empty
/// joint); the grouped topologies insert bounded Empty joints (§III-B3) so
/// that out-of-block accesses prune most of the data branch during the Env
/// search.
///
/// Every Data block keeps a ghost frame `frame` cells wide
/// ([`EnvBuilder::with_frame`]; see [`DslSystem::build_framed_env`]).
///
/// Returns the built Env and the list of data block ids in (by, bx)
/// iteration order.
pub fn build_tiled_env_with_topology<C: Cell>(
    tiling: Tiling,
    cells_per_page: usize,
    frame: usize,
    pool: PoolHandle,
    topology: TreeTopology,
    add_boundary: impl FnOnce(&mut EnvBuilder<C>, usize),
) -> (Env<C>, Vec<aohpc_env::BlockId>) {
    let mut b = EnvBuilder::<C>::new(pool, cells_per_page).with_frame(frame);
    let root = b.add_empty(None);
    // The boundary branch is attached directly under the root so the
    // locality-aware search reaches it last.
    add_boundary(&mut b, root);
    let mut tiles = Vec::with_capacity(tiling.total_blocks());
    for by in 0..tiling.blocks_y() {
        for bx in 0..tiling.blocks_x() {
            let origin =
                GlobalAddress::new2d((bx * tiling.block) as i64, (by * tiling.block) as i64);
            let ext = Extent::new2d(
                tiling.block.min(tiling.nx - bx * tiling.block),
                tiling.block.min(tiling.ny - by * tiling.block),
            );
            tiles.push(TilePlacement::new(origin, ext, morton2d(bx as u32, by as u32)));
        }
    }
    let joints = topology.build_joints(&mut b, root, &tiles);
    let mut data = Vec::with_capacity(tiles.len());
    for (tile, joint) in tiles.iter().zip(&joints) {
        let id = b
            .add_data(*joint, tile.origin, tile.extent, tile.morton)
            .expect("pool exhausted while building the Env");
        data.push(id);
    }
    (b.build(), data)
}

/// Map from block origin to block id — used by initialisation code that needs
/// to find the block holding an arbitrary storage position without a tree
/// search.
pub fn origin_index<C: Cell>(env: &Env<C>) -> HashMap<(i64, i64), aohpc_env::BlockId> {
    env.data_block_ids()
        .into_iter()
        .map(|id| {
            let o = env.block(id).meta.origin;
            ((o.x, o.y), id)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiled(t: Tiling, topology: TreeTopology) -> (Env<f64>, Vec<aohpc_env::BlockId>) {
        build_tiled_env_with_topology(t, 32, 0, PoolHandle::unbounded(), topology, |b, root| {
            b.add_arithmetic(root, Arc::new(|_| 0.0), true);
        })
    }

    #[test]
    fn tiling_counts() {
        let t = Tiling { nx: 100, ny: 60, block: 32 };
        assert_eq!(t.blocks_x(), 4);
        assert_eq!(t.blocks_y(), 2);
        assert_eq!(t.total_blocks(), 8);
    }

    #[test]
    fn tiled_env_has_expected_shape() {
        let t = Tiling { nx: 64, ny: 64, block: 16 };
        let (env, data) = tiled(t, TreeTopology::Flat);
        assert_eq!(data.len(), 16);
        assert_eq!(env.stats().num_data_blocks, 16);
        // root + boundary + joint + 16 data blocks
        assert_eq!(env.len(), 19);
        let idx = origin_index(&env);
        assert_eq!(idx.len(), 16);
        // Data blocks are created in (by, bx) row-major order; origin (16, 32)
        // is bx = 1, by = 2 → index 2 * 4 + 1 = 9.
        assert_eq!(idx[&(16, 32)], data[9]);
    }

    #[test]
    fn topology_variant_builds_grouped_joints() {
        let t = Tiling { nx: 64, ny: 64, block: 16 };
        let (flat, flat_data) = tiled(t, TreeTopology::Flat);
        let (quad, quad_data) = tiled(t, TreeTopology::Quadtree { max_leaf_blocks: 2 });
        assert_eq!(flat_data.len(), quad_data.len());
        assert_eq!(flat.stats().num_data_blocks, quad.stats().num_data_blocks);
        // The quadtree tree has strictly more (joint) blocks than the flat one.
        assert!(quad.len() > flat.len());
        // Data blocks cover the same origins in both trees.
        let origins = |env: &aohpc_env::Env<f64>| {
            let mut o: Vec<_> = env
                .data_block_ids()
                .into_iter()
                .map(|id| {
                    let m = &env.block(id).meta;
                    (m.origin.x, m.origin.y)
                })
                .collect();
            o.sort_unstable();
            o
        };
        assert_eq!(origins(&flat), origins(&quad));
    }

    #[test]
    fn ragged_tiling_truncates_edge_blocks() {
        let t = Tiling { nx: 40, ny: 40, block: 16 };
        let (env, data) = tiled(t, TreeTopology::Flat);
        assert_eq!(data.len(), 9);
        let last = env.block(*data.last().unwrap());
        assert_eq!(last.meta.extent.nx, 8);
        assert_eq!(last.meta.extent.ny, 8);
    }
}
