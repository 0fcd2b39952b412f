//! Locality-encoding tree topologies for the data branch of an Env.
//!
//! The paper's default Env (Fig. 2a) hangs every Data block under a single
//! Empty joint, so an out-of-block access scans, in the worst case, every
//! data block before it finds its target.  §III-B3 notes that *"DSL
//! developers can modify the tree by inserting Empty Blocks … as new joints
//! to increase locality to improve the performance of Env search"* — this
//! module provides exactly those joint-insertion strategies, generically over
//! the tile list a DSL part wants to place.
//!
//! Three topologies are provided:
//!
//! * [`TreeTopology::Flat`] — the paper's default: one joint, all data blocks
//!   under it (no pruning, worst-case linear search);
//! * [`TreeTopology::MortonGroups`] — one level of bounded joints, each
//!   holding a run of `blocks_per_joint` consecutive blocks in Z-order;
//! * [`TreeTopology::Quadtree`] — recursive spatial bisection down to
//!   `max_leaf_blocks` blocks per joint, giving `O(log n)` out-of-block
//!   searches for spatially local accesses.
//!
//! Bounded joints (created with [`EnvBuilder::add_joint`]) carry the bounding
//! box of their descendants; [`Env::find_block`](crate::env::Env::find_block) prunes a bounded joint's
//! subtree whenever the requested address falls outside that box.

use crate::address::{Extent, GlobalAddress};
use crate::block::BlockId;
use crate::env::EnvBuilder;
use crate::Cell;

/// Spatial placement of one tile (future Data block) of a DSL part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePlacement {
    /// Global address of the tile's first cell.
    pub origin: GlobalAddress,
    /// Tile size in cells.
    pub extent: Extent,
    /// Z-order index of the tile (drives task assignment and grouping).
    pub morton: u64,
}

impl TilePlacement {
    /// Convenience constructor.
    pub fn new(origin: GlobalAddress, extent: Extent, morton: u64) -> Self {
        TilePlacement { origin, extent, morton }
    }

    /// The exclusive upper corner of the tile.
    fn upper(&self) -> (i64, i64, i64) {
        (
            self.origin.x + self.extent.nx as i64,
            self.origin.y + self.extent.ny as i64,
            self.origin.z + self.extent.nz as i64,
        )
    }
}

/// Axis-aligned bounding box of a set of tiles.
fn bounding_box(tiles: &[&TilePlacement]) -> (GlobalAddress, Extent) {
    debug_assert!(!tiles.is_empty());
    let mut min = (i64::MAX, i64::MAX, i64::MAX);
    let mut max = (i64::MIN, i64::MIN, i64::MIN);
    for t in tiles {
        min.0 = min.0.min(t.origin.x);
        min.1 = min.1.min(t.origin.y);
        min.2 = min.2.min(t.origin.z);
        let u = t.upper();
        max.0 = max.0.max(u.0);
        max.1 = max.1.max(u.1);
        max.2 = max.2.max(u.2);
    }
    (
        GlobalAddress::new3d(min.0, min.1, min.2),
        Extent::new3d((max.0 - min.0) as usize, (max.1 - min.1) as usize, (max.2 - min.2) as usize),
    )
}

/// How the data branch of the Env tree groups Data blocks under joints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TreeTopology {
    /// All data blocks under a single unbounded joint (the paper's default
    /// tree of Fig. 2a).
    #[default]
    Flat,
    /// One level of bounded joints over runs of consecutive Z-order indices.
    MortonGroups {
        /// Number of data blocks per joint (≥ 1).
        blocks_per_joint: usize,
    },
    /// Recursive spatial bisection (alternating the split axis) until every
    /// joint holds at most this many data blocks.
    Quadtree {
        /// Maximum number of data blocks per leaf joint (≥ 1).
        max_leaf_blocks: usize,
    },
}

impl TreeTopology {
    /// Short, stable name used in reports and benchmark labels.
    pub fn name(&self) -> &'static str {
        match self {
            TreeTopology::Flat => "flat",
            TreeTopology::MortonGroups { .. } => "morton-groups",
            TreeTopology::Quadtree { .. } => "quadtree",
        }
    }

    /// Build the joint structure for `tiles` under `parent` and return, for
    /// each tile (in input order), the joint block the caller should attach
    /// the corresponding Data block to.
    ///
    /// Only joints are created here — the caller still owns the creation of
    /// the Data blocks (it may want `add_data`, `add_buffer_only`, …), so the
    /// same topology can be reused by every DSL part and by per-rank replica
    /// construction.
    pub fn build_joints<C: Cell>(
        &self,
        builder: &mut EnvBuilder<C>,
        parent: BlockId,
        tiles: &[TilePlacement],
    ) -> Vec<BlockId> {
        if tiles.is_empty() {
            return Vec::new();
        }
        match *self {
            TreeTopology::Flat => {
                let joint = builder.add_empty(Some(parent));
                vec![joint; tiles.len()]
            }
            TreeTopology::MortonGroups { blocks_per_joint } => {
                assert!(blocks_per_joint >= 1, "blocks_per_joint must be at least 1");
                // Order tiles by Z-order index, chunk, and give each chunk a
                // bounded joint.
                let mut order: Vec<usize> = (0..tiles.len()).collect();
                order.sort_by_key(|&i| (tiles[i].morton, i));
                let mut parents = vec![usize::MAX; tiles.len()];
                for chunk in order.chunks(blocks_per_joint) {
                    let members: Vec<&TilePlacement> = chunk.iter().map(|&i| &tiles[i]).collect();
                    let (origin, extent) = bounding_box(&members);
                    let joint = builder.add_joint(Some(parent), origin, extent);
                    for &i in chunk {
                        parents[i] = joint;
                    }
                }
                parents
            }
            TreeTopology::Quadtree { max_leaf_blocks } => {
                assert!(max_leaf_blocks >= 1, "max_leaf_blocks must be at least 1");
                let mut parents = vec![usize::MAX; tiles.len()];
                let indices: Vec<usize> = (0..tiles.len()).collect();
                Self::bisect(builder, parent, tiles, &indices, max_leaf_blocks, 0, &mut parents);
                parents
            }
        }
    }

    /// Recursive spatial bisection used by [`TreeTopology::Quadtree`].
    fn bisect<C: Cell>(
        builder: &mut EnvBuilder<C>,
        parent: BlockId,
        tiles: &[TilePlacement],
        members: &[usize],
        max_leaf_blocks: usize,
        depth: usize,
        parents: &mut [BlockId],
    ) {
        let refs: Vec<&TilePlacement> = members.iter().map(|&i| &tiles[i]).collect();
        let (origin, extent) = bounding_box(&refs);
        let joint = builder.add_joint(Some(parent), origin, extent);
        if members.len() <= max_leaf_blocks || depth > 64 {
            for &i in members {
                parents[i] = joint;
            }
            return;
        }
        // Split along the longer of the two horizontal axes (ties favour X),
        // at the median tile origin, so ragged tilings still split evenly.
        let axis_x = extent.nx >= extent.ny;
        let mut sorted: Vec<usize> = members.to_vec();
        sorted.sort_by_key(|&i| {
            let o = tiles[i].origin;
            if axis_x {
                (o.x, o.y, i as i64)
            } else {
                (o.y, o.x, i as i64)
            }
        });
        let mid = sorted.len() / 2;
        let (lo, hi) = sorted.split_at(mid);
        // Degenerate split (all origins equal): stop recursing.
        if lo.is_empty() || hi.is_empty() {
            for &i in members {
                parents[i] = joint;
            }
            return;
        }
        Self::bisect(builder, joint, tiles, lo, max_leaf_blocks, depth + 1, parents);
        Self::bisect(builder, joint, tiles, hi, max_leaf_blocks, depth + 1, parents);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessState;
    use crate::block::BlockKind;
    use crate::env::Env;
    use crate::morton::morton2d;
    use aohpc_mem::PoolHandle;
    use proptest::prelude::*;
    use std::sync::Arc;

    /// Build an `n × n`-block env (each block `bs × bs` cells) with the given
    /// topology and a catch-all Dirichlet boundary, mirroring what the DSL
    /// parts do.
    fn grid_env(n: usize, bs: usize, topo: TreeTopology) -> (Env<f64>, Vec<BlockId>) {
        let mut b = EnvBuilder::<f64>::new(PoolHandle::unbounded(), 8);
        let root = b.add_empty(None);
        b.add_arithmetic(root, Arc::new(|_| -7.0), true);
        let tiles: Vec<TilePlacement> = (0..n * n)
            .map(|k| {
                let (bx, by) = (k % n, k / n);
                TilePlacement::new(
                    GlobalAddress::new2d((bx * bs) as i64, (by * bs) as i64),
                    Extent::new2d(bs, bs),
                    morton2d(bx as u32, by as u32),
                )
            })
            .collect();
        let joints = topo.build_joints(&mut b, root, &tiles);
        let mut data = Vec::new();
        for (tile, joint) in tiles.iter().zip(&joints) {
            data.push(b.add_data(*joint, tile.origin, tile.extent, tile.morton).unwrap());
        }
        let env = b.build();
        for &id in &data {
            let block = env.block(id);
            for idx in 0..block.meta.extent.cells() {
                let la = block.meta.extent.delinearize(idx);
                let g = block.to_global(la);
                env.write_initial(id, la, (g.x * 1000 + g.y) as f64);
            }
        }
        (env, data)
    }

    fn lookup(env: &Env<f64>, start: BlockId, addr: GlobalAddress) -> (Option<f64>, u64) {
        let mut st = AccessState::new();
        let v = env.read(start, addr, false, &mut st);
        (v, st.counters.search_nodes_visited)
    }

    #[test]
    fn names_and_default() {
        assert_eq!(TreeTopology::default(), TreeTopology::Flat);
        assert_eq!(TreeTopology::Flat.name(), "flat");
        assert_eq!(TreeTopology::MortonGroups { blocks_per_joint: 4 }.name(), "morton-groups");
        assert_eq!(TreeTopology::Quadtree { max_leaf_blocks: 4 }.name(), "quadtree");
    }

    #[test]
    fn flat_reuses_one_joint() {
        let mut b = EnvBuilder::<f64>::new(PoolHandle::unbounded(), 8);
        let root = b.add_empty(None);
        let tiles = vec![
            TilePlacement::new(GlobalAddress::new2d(0, 0), Extent::new2d(4, 4), 0),
            TilePlacement::new(GlobalAddress::new2d(4, 0), Extent::new2d(4, 4), 1),
        ];
        let joints = TreeTopology::Flat.build_joints(&mut b, root, &tiles);
        assert_eq!(joints.len(), 2);
        assert_eq!(joints[0], joints[1]);
    }

    #[test]
    fn empty_tile_list_builds_nothing() {
        let mut b = EnvBuilder::<f64>::new(PoolHandle::unbounded(), 8);
        let root = b.add_empty(None);
        for topo in [
            TreeTopology::Flat,
            TreeTopology::MortonGroups { blocks_per_joint: 2 },
            TreeTopology::Quadtree { max_leaf_blocks: 2 },
        ] {
            assert!(topo.build_joints(&mut b, root, &[]).is_empty());
        }
    }

    #[test]
    fn morton_groups_bound_their_members() {
        let (env, data) = grid_env(4, 8, TreeTopology::MortonGroups { blocks_per_joint: 4 });
        for &id in &data {
            let block = env.block(id);
            let joint = env.block(block.meta.parent.unwrap());
            assert!(matches!(joint.kind, BlockKind::Empty));
            assert!(joint.meta.extent.cells() > 0, "grouped joints carry a bounding box");
            // The joint's box contains every corner of the member block.
            assert!(joint.contains(block.meta.origin));
            let far = block.meta.origin
                + crate::address::LocalAddress::new2d(
                    block.meta.extent.nx as i64 - 1,
                    block.meta.extent.ny as i64 - 1,
                );
            assert!(joint.contains(far));
        }
    }

    #[test]
    fn quadtree_results_match_flat() {
        let (flat, fd) = grid_env(4, 8, TreeTopology::Flat);
        let (quad, qd) = grid_env(4, 8, TreeTopology::Quadtree { max_leaf_blocks: 1 });
        // Probe from every block to a mix of in-block, neighbour and boundary
        // addresses; the value found must be identical.
        for (i, (&fb, &qb)) in fd.iter().zip(&qd).enumerate() {
            let origin = flat.block(fb).meta.origin;
            for probe in [
                GlobalAddress::new2d(origin.x + 3, origin.y + 3),
                GlobalAddress::new2d(origin.x - 1, origin.y),
                GlobalAddress::new2d(origin.x + 8, origin.y + 8),
                GlobalAddress::new2d(-5, -5),
                GlobalAddress::new2d(31, 0),
            ] {
                let (v_flat, _) = lookup(&flat, fb, probe);
                let (v_quad, _) = lookup(&quad, qb, probe);
                assert_eq!(v_flat, v_quad, "block {i} probe {probe}");
            }
        }
    }

    #[test]
    fn quadtree_prunes_far_searches() {
        // 8×8 blocks of 8×8 cells: an access from the corner block to a block
        // many Z-order positions away must visit far fewer nodes with a
        // quadtree (flat scans the data branch in insertion order, so a probe
        // on a late row passes every earlier row first).
        let (flat, fd) = grid_env(8, 8, TreeTopology::Flat);
        let (quad, qd) = grid_env(8, 8, TreeTopology::Quadtree { max_leaf_blocks: 1 });
        let probe = GlobalAddress::new2d(1, 57); // last block row
        let (v_flat, visited_flat) = lookup(&flat, fd[0], probe);
        let (v_quad, visited_quad) = lookup(&quad, qd[0], probe);
        assert_eq!(v_flat, v_quad);
        assert!(
            visited_quad < visited_flat,
            "quadtree should prune: visited {visited_quad} vs flat {visited_flat}"
        );
    }

    #[test]
    fn boundary_access_still_reaches_catch_all() {
        let (quad, qd) = grid_env(4, 8, TreeTopology::Quadtree { max_leaf_blocks: 2 });
        let (v, _) = lookup(&quad, qd[0], GlobalAddress::new2d(-1, 5));
        assert_eq!(v, Some(-7.0), "Dirichlet boundary served by the Arithmetic block");
    }

    #[test]
    fn bounding_box_of_ragged_tiles() {
        let tiles = [
            TilePlacement::new(GlobalAddress::new2d(0, 0), Extent::new2d(8, 8), 0),
            TilePlacement::new(GlobalAddress::new2d(8, 0), Extent::new2d(3, 8), 1),
        ];
        let refs: Vec<&TilePlacement> = tiles.iter().collect();
        let (origin, extent) = bounding_box(&refs);
        assert_eq!(origin, GlobalAddress::new2d(0, 0));
        assert_eq!(extent, Extent::new3d(11, 8, 1));
    }

    proptest! {
        /// Any in-domain probe resolves to the same cell value in all three
        /// topologies, from any starting block.
        #[test]
        fn topologies_are_observationally_equivalent(
            n in 2usize..5,
            start_sel in 0usize..64,
            px in -4i64..40,
            py in -4i64..40,
            group in 1usize..6,
            leaf in 1usize..4,
        ) {
            let bs = 8usize;
            let (flat, fd) = grid_env(n, bs, TreeTopology::Flat);
            let (grp, gd) = grid_env(n, bs, TreeTopology::MortonGroups { blocks_per_joint: group });
            let (quad, qd) = grid_env(n, bs, TreeTopology::Quadtree { max_leaf_blocks: leaf });
            let start = start_sel % fd.len();
            let probe = GlobalAddress::new2d(px, py);
            let (v_flat, _) = lookup(&flat, fd[start], probe);
            let (v_grp, _) = lookup(&grp, gd[start], probe);
            let (v_quad, _) = lookup(&quad, qd[start], probe);
            prop_assert_eq!(v_flat, v_grp);
            prop_assert_eq!(v_flat, v_quad);
        }
    }
}
