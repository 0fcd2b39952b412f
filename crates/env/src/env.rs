//! The Env: a distributed tree of Blocks plus its access interface.
//!
//! The Env is the global structure of the target data (§III-B3 of the paper).
//! Its default shape places the boundary (Arithmetic / Reference / Static)
//! blocks on a branch of the root that is *different* from the data blocks'
//! branch, so that the locality-aware search visits data blocks (the common
//! case under Assumption III) before falling back to the boundary.  DSL
//! developers can insert additional Empty joints to encode more locality.

use crate::access::AccessState;
use crate::address::{Extent, GlobalAddress, LocalAddress};
use crate::block::{ArithFn, Block, BlockId, BlockKind, BlockMeta, RefMapFn};
use crate::mmat::MmatEntry;
use crate::Cell;
use aohpc_mem::{Frame, MultiBuffer, PageId, PoolError, PoolHandle};
use parking_lot::RwLock;
use std::fmt;

/// Errors produced while building or using an Env.
#[derive(Debug)]
pub enum EnvError {
    /// The backing memory pool could not satisfy a buffer allocation.
    Pool(PoolError),
    /// A block id did not refer to an existing block.
    UnknownBlock(BlockId),
    /// The operation requires a Data or Buffer-only block.
    NotABufferBlock(BlockId),
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvError::Pool(e) => write!(f, "memory pool error: {e}"),
            EnvError::UnknownBlock(id) => write!(f, "unknown block id {id}"),
            EnvError::NotABufferBlock(id) => write!(f, "block {id} has no cell buffers"),
        }
    }
}

impl std::error::Error for EnvError {}

impl From<PoolError> for EnvError {
    fn from(e: PoolError) -> Self {
        EnvError::Pool(e)
    }
}

/// Summary statistics of an Env (used by the Fig. 12 harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct EnvStats {
    /// Total number of blocks (all kinds).
    pub num_blocks: usize,
    /// Number of Data blocks.
    pub num_data_blocks: usize,
    /// Number of Buffer-only blocks.
    pub num_buffer_only_blocks: usize,
    /// Bytes of cell storage (all buffers of all buffer-bearing blocks).
    pub data_bytes: usize,
    /// Bytes of tree / page-table / metadata overhead ("working memory").
    pub working_bytes: usize,
}

/// A run of cells — `first, first + step, …` read from the block `start`
/// without the in-block hint — resolved against the Env:
/// [`Env::resolve_run`] finds once where each stretch of the run lands, and
/// [`Env::read_run`] reads the stretches there on every sweep.
///
/// A plan is valid only for the Env that resolved it: it holds block ids and
/// cell indices of that Env's blocks.  Indexing stays bounds-checked, so a
/// plan read against another Env panics or yields that Env's cells at the
/// same indices; it never reads outside a buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    start: BlockId,
    first: GlobalAddress,
    step: LocalAddress,
    /// `(cells, where they land)`, in run order.
    stretches: Vec<(usize, Landing)>,
}

impl RunPlan {
    fn len(&self) -> usize {
        self.stretches.iter().map(|&(n, _)| n).sum()
    }

    /// Append `n` cells landing at `landing`, merged into the stretch before
    /// where every cell of both is read alike (not a `Cell` stretch, which
    /// indexes from its first cell).
    fn push(&mut self, n: usize, landing: Landing) {
        match self.stretches.last_mut() {
            Some((m, last)) if *last == landing && !matches!(landing, Landing::Cell(..)) => *m += n,
            _ => self.stretches.push((n, landing)),
        }
    }
}

/// Where a stretch of a [`RunPlan`] lands: found once, when the plan is
/// resolved, by the search [`Env::read`] runs from the plan's start.
///
/// A search's result is geometry — kinds, extents, catch-all flags and
/// joint boxes, all fixed at [`EnvBuilder::build`] — so it is the same on
/// every later read; what the landing block holds is not, and is read then.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Landing {
    /// Not resolved: each cell is read as [`Env::read`] reads it (MMAT on at
    /// resolution, where every read consults the memo, or a cell of the
    /// start block itself, which `Env::read` serves unsearched).
    Unresolved,
    /// A block without cell buffers (Static, Arithmetic, Reference, Empty).
    Block(BlockId),
    /// Cells of a buffer-bearing block, the first at this row-major index.
    Cell(BlockId, usize),
    /// No block at all: every read is missing.
    Nowhere,
}

/// Builder for an [`Env`].
pub struct EnvBuilder<C> {
    blocks: Vec<Block<C>>,
    cells_per_page: usize,
    num_buffers: usize,
    /// Ghost cells on every side of each buffer-bearing block's rows.
    frame: usize,
    pool: PoolHandle,
}

impl<C: Cell> EnvBuilder<C> {
    /// Start an Env whose buffer-bearing blocks draw space from `pool` and
    /// use `cells_per_page` cells per page.
    ///
    /// The root Empty block (id 0) and the conventional "joint" Empty block
    /// for data blocks are *not* created automatically; DSL parts create the
    /// exact tree they want (see the `dsl` crate for the default layout of
    /// Fig. 2).
    pub fn new(pool: PoolHandle, cells_per_page: usize) -> Self {
        assert!(cells_per_page > 0, "cells_per_page must be non-zero");
        EnvBuilder { blocks: Vec::new(), cells_per_page, num_buffers: 2, frame: 0, pool }
    }

    /// Keep a ghost frame `width` cells wide around the rows of every
    /// buffer-bearing block added from here on (see [`aohpc_mem::Frame`]):
    /// room for a stencil's halo beside the block, which a block routine
    /// lent the block (`Env::lend_block`) fills and reads in place.  Every
    /// other access stays logical: values, counters and pages are those of
    /// an unframed Env.
    pub fn with_frame(mut self, width: usize) -> Self {
        self.frame = width;
        self
    }

    /// The buffers of a buffer-bearing block of `extent`.
    fn buffers(&self, extent: Extent) -> Result<MultiBuffer<C>, PoolError> {
        let frame = Frame::new(extent.nx, extent.ny * extent.nz, self.frame);
        MultiBuffer::allocate(frame, self.num_buffers, self.cells_per_page, &self.pool)
    }

    fn push(
        &mut self,
        parent: Option<BlockId>,
        origin: GlobalAddress,
        extent: Extent,
        kind: BlockKind<C>,
    ) -> BlockId {
        let id = self.blocks.len();
        let mut meta = BlockMeta::new(id, origin, extent);
        meta.parent = parent;
        self.blocks.push(Block { meta, kind });
        if let Some(p) = parent {
            self.blocks[p].meta.children.push(id);
        }
        id
    }

    /// Add an Empty joint block.
    pub fn add_empty(&mut self, parent: Option<BlockId>) -> BlockId {
        self.push(parent, GlobalAddress::default(), Extent::new2d(0, 0), BlockKind::Empty)
    }

    /// Add an Empty joint block carrying a *bounding box* (origin + extent)
    /// covering every block that will be attached below it.
    ///
    /// This is the paper's §III-B3 locality device: "DSL developers can modify
    /// the tree by inserting Empty Blocks … as new joints to increase
    /// locality".  The search prunes a bounded joint's whole subtree when the
    /// requested address falls outside its box, so out-of-block accesses reach
    /// nearby blocks without scanning the entire data branch.
    pub fn add_joint(
        &mut self,
        parent: Option<BlockId>,
        origin: GlobalAddress,
        extent: Extent,
    ) -> BlockId {
        self.push(parent, origin, extent, BlockKind::Empty)
    }

    /// Add a Data block with the given placement and Z-order index.
    pub fn add_data(
        &mut self,
        parent: BlockId,
        origin: GlobalAddress,
        extent: Extent,
        morton: u64,
    ) -> Result<BlockId, EnvError> {
        let mb = self.buffers(extent)?;
        let id = self.push(Some(parent), origin, extent, BlockKind::Data(RwLock::new(mb)));
        self.blocks[id].meta.morton = Some(morton);
        self.blocks[id].meta.set_valid(true);
        Ok(id)
    }

    /// Add a Buffer-only Data block (receive buffer; initially invalid).
    pub fn add_buffer_only(
        &mut self,
        parent: BlockId,
        origin: GlobalAddress,
        extent: Extent,
        morton: u64,
    ) -> Result<BlockId, EnvError> {
        let mb = self.buffers(extent)?;
        let id = self.push(Some(parent), origin, extent, BlockKind::BufferOnly(RwLock::new(mb)));
        self.blocks[id].meta.morton = Some(morton);
        self.blocks[id].meta.set_valid(false);
        Ok(id)
    }

    /// Add a Static Data block covering `extent` cells starting at `origin`.
    pub fn add_static(
        &mut self,
        parent: BlockId,
        origin: GlobalAddress,
        extent: Extent,
        data: Vec<C>,
    ) -> BlockId {
        assert_eq!(data.len(), extent.cells(), "static data must cover the extent");
        let id = self.push(Some(parent), origin, extent, BlockKind::StaticData(data));
        self.blocks[id].meta.set_valid(true);
        id
    }

    /// Add an Arithmetic block.  With `catch_all = true` it matches every
    /// address not covered by other blocks (the usual boundary setup).
    pub fn add_arithmetic(&mut self, parent: BlockId, f: ArithFn<C>, catch_all: bool) -> BlockId {
        let id = self.push(
            Some(parent),
            GlobalAddress::default(),
            Extent::new2d(0, 0),
            BlockKind::Arithmetic(f),
        );
        self.blocks[id].meta.catch_all = catch_all;
        self.blocks[id].meta.set_valid(true);
        id
    }

    /// Add a Reference block redirecting to `target` through `map`.
    pub fn add_reference(
        &mut self,
        parent: BlockId,
        target: BlockId,
        map: RefMapFn,
        catch_all: bool,
    ) -> BlockId {
        let id = self.push(
            Some(parent),
            GlobalAddress::default(),
            Extent::new2d(0, 0),
            BlockKind::Reference { target, map },
        );
        self.blocks[id].meta.catch_all = catch_all;
        self.blocks[id].meta.set_valid(true);
        id
    }

    /// Freeze the tree.
    ///
    /// One pass over the arena records what every later search would
    /// otherwise rediscover: the first catch-all block, whether a run plan
    /// may trust a holder it has already found, and the holders' hull — the
    /// bounding box of every placed value-holding block, outside which every
    /// search lands on the catch-all (see [`Env::resolve_run`]).
    pub fn build(self) -> Env<C> {
        let first_catch_all = self.blocks.iter().position(|b| b.meta.catch_all);
        let holders_are_unique = holders_are_unique(&self.blocks);
        let holder_hull = holder_hull(&self.blocks);
        Env {
            blocks: self.blocks,
            cells_per_page: self.cells_per_page,
            num_buffers: self.num_buffers,
            pool: self.pool,
            first_catch_all,
            holders_are_unique,
            holder_hull,
        }
    }
}

/// Whether a block can answer a read (anything but an Empty joint).
fn holds_values<C>(b: &Block<C>) -> bool {
    !matches!(b.kind, BlockKind::Empty)
}

/// The half-open box `[lo, hi)` of a block that matches addresses by
/// placement (not a catch-all) and has cells; `None` for the rest.
fn placed_box<C>(b: &Block<C>) -> Option<([i64; 3], [i64; 3])> {
    let (o, e) = (b.meta.origin, b.meta.extent);
    (!b.meta.catch_all && e.cells() > 0)
        .then(|| ([o.x, o.y, o.z], [o.x + e.nx as i64, o.y + e.ny as i64, o.z + e.nz as i64]))
}

/// Whether an address inside a value-holding block can only ever resolve to
/// that block: the value-holding blocks are pairwise disjoint (no other
/// block could answer first), and every bounded joint covers the
/// value-holding blocks below it (pruning never hides one).
fn holders_are_unique<C>(blocks: &[Block<C>]) -> bool {
    let mut boxes = Vec::with_capacity(blocks.len());
    for b in blocks.iter().filter(|b| holds_values(b)) {
        let Some((lo, hi)) = placed_box(b) else { continue };
        let mut up = b.meta.parent;
        while let Some(p) = up {
            let joint = &blocks[p];
            if let (false, Some((jlo, jhi))) = (holds_values(joint), placed_box(joint)) {
                if (0..3).any(|a| lo[a] < jlo[a] || hi[a] > jhi[a]) {
                    return false;
                }
            }
            up = joint.meta.parent;
        }
        boxes.push((lo, hi));
    }
    // Sweep along x: only boxes whose x-ranges overlap are compared.
    boxes.sort_unstable();
    boxes.iter().enumerate().all(|(i, (lo, hi))| {
        boxes[i + 1..].iter().take_while(|(other_lo, _)| other_lo[0] < hi[0]).all(
            |(other_lo, other_hi)| (1..3).any(|a| other_lo[a] >= hi[a] || lo[a] >= other_hi[a]),
        )
    })
}

/// The half-open bounding box of the blocks [`holders_are_unique`] compares
/// (`None` when there are none).  An address outside it lies in no block a
/// search can match, so every search for it lands on the catch-all.
fn holder_hull<C>(blocks: &[Block<C>]) -> Option<([i64; 3], [i64; 3])> {
    let boxes = blocks.iter().filter(|b| holds_values(b)).filter_map(placed_box);
    boxes.reduce(|(lo, hi), (l, h)| {
        (std::array::from_fn(|a| lo[a].min(l[a])), std::array::from_fn(|a| hi[a].max(h[a])))
    })
}

/// The Env: an arena-allocated tree of blocks.
pub struct Env<C> {
    blocks: Vec<Block<C>>,
    cells_per_page: usize,
    num_buffers: usize,
    pool: PoolHandle,
    /// The catch-all block a search falls back to (first in arena order).
    first_catch_all: Option<BlockId>,
    /// See [`holders_are_unique`]; what lets a run plan skip searches.
    holders_are_unique: bool,
    /// See [`holder_hull`]; what lets a run plan leave the domain unsearched.
    holder_hull: Option<([i64; 3], [i64; 3])>,
}

impl<C: Cell> Env<C> {
    /// Number of blocks of any kind.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the Env has no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Cells per page configured at build time.
    pub fn cells_per_page(&self) -> usize {
        self.cells_per_page
    }

    /// Number of buffers per Data block.
    pub fn num_buffers(&self) -> usize {
        self.num_buffers
    }

    /// The pool backing this Env's buffers.
    pub fn pool(&self) -> &PoolHandle {
        &self.pool
    }

    /// Access a block.
    pub fn block(&self, id: BlockId) -> &Block<C> {
        &self.blocks[id]
    }

    /// Checked access to a block.
    pub fn try_block(&self, id: BlockId) -> Result<&Block<C>, EnvError> {
        self.blocks.get(id).ok_or(EnvError::UnknownBlock(id))
    }

    /// Iterate over all blocks.
    pub fn blocks(&self) -> impl Iterator<Item = &Block<C>> {
        self.blocks.iter()
    }

    /// Ids of all Data blocks, ordered by Z-order index (the order used to
    /// assign blocks to tasks).
    pub fn data_block_ids(&self) -> Vec<BlockId> {
        let mut ids: Vec<BlockId> =
            self.blocks.iter().filter(|b| b.is_data()).map(|b| b.meta.id).collect();
        ids.sort_by_key(|&id| (self.blocks[id].meta.morton.unwrap_or(u64::MAX), id));
        ids
    }

    /// Ids of buffer-bearing blocks (Data or Buffer-only).
    pub fn buffer_block_ids(&self) -> Vec<BlockId> {
        self.blocks.iter().filter(|b| b.kind.has_buffers()).map(|b| b.meta.id).collect()
    }

    /// The raw `get_blocks` of the memory library: data blocks whose
    /// `ch_tid` equals `task`.  (The platform dispatches this through the
    /// `Memory::get_blocks` join point so AspectType II advice can refine
    /// the assignment.)
    pub fn get_blocks(&self, task: usize) -> Vec<BlockId> {
        self.data_block_ids()
            .into_iter()
            .filter(|&id| self.blocks[id].meta.ch_tid() == Some(task))
            .collect()
    }

    /// Split the data blocks into `parts` contiguous Z-order ranges of nearly
    /// equal size (the prototype's assignment policy, §IV-C).
    pub fn partition_by_morton(&self, parts: usize) -> Vec<Vec<BlockId>> {
        assert!(parts > 0);
        let ids = self.data_block_ids();
        let mut out = vec![Vec::new(); parts];
        if ids.is_empty() {
            return out;
        }
        let per = ids.len().div_ceil(parts);
        for (i, id) in ids.iter().enumerate() {
            out[(i / per).min(parts - 1)].push(*id);
        }
        out
    }

    /// Demote a Data block to Buffer-only (used when building per-rank
    /// replicas in the distributed layer: blocks owned by other ranks become
    /// receive buffers and are marked invalid).
    pub fn demote_to_buffer_only(&mut self, id: BlockId) -> Result<(), EnvError> {
        let b = self.blocks.get_mut(id).ok_or(EnvError::UnknownBlock(id))?;
        let kind = std::mem::replace(&mut b.kind, BlockKind::Empty);
        match kind {
            BlockKind::Data(buf) => {
                b.kind = BlockKind::BufferOnly(buf);
                b.meta.set_valid(false);
                b.meta.set_ch_tid(None);
                Ok(())
            }
            other => {
                b.kind = other;
                Err(EnvError::NotABufferBlock(id))
            }
        }
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Locality-aware search for the block containing `addr`, starting from
    /// `start`.  Returns the block (if any) and the number of tree nodes
    /// visited (fed to the cost model and to search-efficiency tests).
    ///
    /// Order: the starting block, then — walking up the ancestor chain —
    /// each ancestor's other subtrees (siblings and their children first),
    /// and only at the very end the catch-all boundary blocks.
    pub fn find_block(&self, addr: GlobalAddress, start: BlockId) -> (Option<BlockId>, u64) {
        let mut visited: u64 = 0;
        if let Some(b) = self.blocks.get(start) {
            visited += 1;
            if !b.meta.catch_all && b.contains(addr) && self.holds_values(start) {
                return (Some(start), visited);
            }
        } else {
            return (None, visited);
        }

        let mut exclude = start;
        let mut current = start;
        while let Some(parent) = self.blocks[current].meta.parent {
            for &child in &self.blocks[parent].meta.children {
                if child == exclude {
                    continue;
                }
                if let Some(found) = self.search_subtree(child, addr, &mut visited) {
                    return (Some(found), visited);
                }
            }
            exclude = parent;
            current = parent;
        }

        // The catch-all (boundary) block is consulted last.
        if self.first_catch_all.is_some() {
            visited += 1;
        }
        (self.first_catch_all, visited)
    }

    fn holds_values(&self, id: BlockId) -> bool {
        holds_values(&self.blocks[id])
    }

    fn search_subtree(
        &self,
        id: BlockId,
        addr: GlobalAddress,
        visited: &mut u64,
    ) -> Option<BlockId> {
        *visited += 1;
        let b = &self.blocks[id];
        if !b.meta.catch_all && self.holds_values(id) && b.contains(addr) {
            return Some(id);
        }
        // Locality pruning (§III-B3): a bounded Empty joint covers every
        // descendant, so if the address is outside its box the whole subtree
        // can be skipped.  Joints built with `add_empty` have a degenerate
        // (zero-cell) extent and are never pruned.
        if matches!(b.kind, BlockKind::Empty) && b.meta.extent.cells() > 0 && !b.contains(addr) {
            return None;
        }
        for &child in &b.meta.children {
            if let Some(found) = self.search_subtree(child, addr, visited) {
                return Some(found);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Cell access
    // ------------------------------------------------------------------

    /// Read a cell through the platform's access path.
    ///
    /// `start` is the block the subkernel is currently updating;
    /// `in_block_hint` is the statically/dynamically supplied flag asserting
    /// that the address is inside `start` (the `GetDD` fast path).  When the
    /// hint is false the resolution order is: MMAT memo (if enabled) → the
    /// starting block → the Env search.
    pub fn read(
        &self,
        start: BlockId,
        addr: GlobalAddress,
        in_block_hint: bool,
        state: &mut AccessState,
    ) -> Option<C> {
        state.counters.reads += 1;

        if in_block_hint {
            state.counters.skip_search_hits += 1;
            let block = &self.blocks[start];
            let idx = block.cell_index(addr)?;
            return self.read_buffered_cell(start, idx, addr, state);
        }

        if state.mmat_enabled {
            if let Some(entry) = state.mmat.lookup(start, addr) {
                state.counters.mmat_hits += 1;
                return match entry {
                    MmatEntry::InBlock(idx) => {
                        state.counters.in_block_hits += 1;
                        self.read_buffered_cell(start, idx, addr, state)
                    }
                    MmatEntry::Remote(bid) => {
                        state.counters.out_of_block_reads += 1;
                        self.read_value_at(bid, addr, state, 0)
                    }
                    MmatEntry::NonExistent => {
                        state.counters.missing_accesses += 1;
                        None
                    }
                };
            }
            state.counters.mmat_misses += 1;
        }

        // Fast path: the starting block itself.
        let block = &self.blocks[start];
        if !block.meta.catch_all && block.contains(addr) {
            state.counters.in_block_hits += 1;
            if let Some(idx) = block.cell_index(addr) {
                if state.mmat_enabled {
                    state.mmat.record(start, addr, MmatEntry::InBlock(idx));
                }
                return self.read_buffered_cell(start, idx, addr, state);
            }
        }

        // Slow path: search the tree.
        state.counters.env_searches += 1;
        let (found, visited) = self.find_block(addr, start);
        state.counters.search_nodes_visited += visited;
        match found {
            Some(bid) => {
                state.counters.out_of_block_reads += 1;
                if state.mmat_enabled {
                    state.mmat.record(start, addr, MmatEntry::Remote(bid));
                }
                self.read_value_at(bid, addr, state, 0)
            }
            None => {
                if state.mmat_enabled {
                    state.mmat.record(start, addr, MmatEntry::NonExistent);
                }
                state.counters.missing_accesses += 1;
                None
            }
        }
    }

    /// Resolve the run of `len` cells `first, first + step, …` read from
    /// `start` without the in-block hint (`GetD` over a halo edge) into a
    /// [`RunPlan`]: where each stretch of it lands, found once.
    /// [`Env::read_run`] reads through the plan on every sweep.
    ///
    /// **Searches are counted when a plan is resolved, never when it is
    /// read.**  Resolving reads no cell and moves no counter but
    /// `env_searches` and `search_nodes_visited`; a read moves every other
    /// counter as the per-cell loop does, and of those two only the nodes a
    /// `Reference` block's own walk from its target visits, as there.
    ///
    /// The leading cell of each stretch is searched for as [`Env::read`]
    /// searches (a cell of `start` itself is not: `Env::read` serves it
    /// unsearched).  With MMAT off, that one search answers the cells after
    /// it in two cases:
    ///
    /// * **A holder's stretch.**  Where the search landed on a
    ///   buffer-bearing block, the following cells still inside that block —
    ///   only where the per-cell search is known to land there too: `start`
    ///   a placed value-holding block and the tree's holders unique (checked
    ///   at [`EnvBuilder::build`]).
    /// * **Past the holders' hull.**  Where the search fell through to the
    ///   catch-all, the following cells outside the bounding box of the
    ///   placed value-holding blocks (recorded at [`EnvBuilder::build`]).
    ///   This is exact for any tree: an address outside the hull lies in no
    ///   block a search can match, so from any start and with any pruning
    ///   the search falls through to the catch-all — provided `start` holds
    ///   values (a bounded Empty joint could claim such an address first).
    ///
    /// The cell after either stretch is searched for afresh, so a run may
    /// cross blocks, leave the domain and come back.  With MMAT on nothing
    /// is searched: the plan is one unresolved stretch, each of its reads
    /// consults the memo, and the searches are the per-cell loop's.  Only
    /// geometry is frozen — a block's origin, extent and kind do not change
    /// once the tree is built, nor therefore where a search lands.
    pub fn resolve_run(
        &self,
        start: BlockId,
        first: GlobalAddress,
        step: LocalAddress,
        len: usize,
        state: &mut AccessState,
    ) -> RunPlan {
        let mut plan = RunPlan { start, first, step, stretches: Vec::new() };
        if state.mmat_enabled {
            plan.push(len, Landing::Unresolved);
            return plan;
        }
        let block = &self.blocks[start];
        let past_hull = self.holds_values(start);
        let shortcut = past_hull && self.holders_are_unique && !block.meta.catch_all;
        let (mut i, mut addr) = (0, first);
        while i < len {
            let landing = if !block.meta.catch_all && block.contains(addr) {
                Landing::Unresolved
            } else {
                self.land(start, addr, state)
            };
            // The cells after the leading one that its search answers.
            let answered = |a: GlobalAddress| match landing {
                Landing::Block(b) => {
                    past_hull && Some(b) == self.first_catch_all && self.outside_hull(a)
                }
                Landing::Cell(holder, _) => shortcut && self.blocks[holder].contains(a),
                Landing::Unresolved | Landing::Nowhere => false,
            };
            let from = i;
            (i, addr) = (i + 1, addr + step);
            while i < len && answered(addr) {
                (i, addr) = (i + 1, addr + step);
            }
            plan.push(i - from, landing);
        }
        plan
    }

    /// Search for `addr` from `start` as [`Env::read`] does — counted in
    /// `state` — and keep where the search landed.
    fn land(&self, start: BlockId, addr: GlobalAddress, state: &mut AccessState) -> Landing {
        state.counters.env_searches += 1;
        let (found, visited) = self.find_block(addr, start);
        state.counters.search_nodes_visited += visited;
        let Some(bid) = found else { return Landing::Nowhere };
        let block = &self.blocks[bid];
        match block.cell_index(addr) {
            Some(idx) if block.kind.has_buffers() => Landing::Cell(bid, idx),
            _ => Landing::Block(bid),
        }
    }

    /// Whether `a` lies outside the holders' hull (see [`holder_hull`]).
    fn outside_hull(&self, a: GlobalAddress) -> bool {
        let p = [a.x, a.y, a.z];
        self.holder_hull.is_none_or(|(lo, hi)| (0..3).any(|k| p[k] < lo[k] || p[k] >= hi[k]))
    }

    /// Read the cells of `plan` into `out`, which must hold exactly the
    /// run's cells: the run form of [`Env::read`] without the in-block hint,
    /// each cell read where [`Env::resolve_run`] found it to land.  The one
    /// search a read still runs is a `Reference` block's: a cell its map
    /// sends outside its target block is found by [`Env::find_block`] on
    /// every read, adding to `search_nodes_visited` (not `env_searches`),
    /// as the per-cell path does.  Missing data reads as `C::default()`.
    ///
    /// Values, missing-page records (in order), the MMAT memo and every
    /// counter but the two search counters are exactly those of the
    /// per-cell loop: page validity, the memo and the values are read here,
    /// on every sweep.  A holder's stretch is served under one guard, each
    /// other cell as the per-cell path serves it once its search has landed.
    /// With MMAT on, the read is the per-cell loop, whatever the plan holds.
    ///
    /// No guard is held from one stretch to the next: a `Reference` block
    /// may map a cell back into `start`, and a second read acquisition
    /// behind a queued writer deadlocks.
    pub fn read_run(&self, plan: &RunPlan, out: &mut [C], state: &mut AccessState) {
        assert_eq!(out.len(), plan.len(), "a run plan reads exactly its cells");
        let step = plan.step;
        let nth = |k: usize| {
            let k = k as i64;
            plan.first + LocalAddress::new3d(step.dx * k, step.dy * k, step.dz * k)
        };
        let mut from = 0;
        for &(n, landing) in &plan.stretches {
            let cells = &mut out[from..from + n];
            match if state.mmat_enabled { Landing::Unresolved } else { landing } {
                Landing::Cell(holder, idx) => self.read_held(holder, idx, step, cells, state),
                landing => {
                    for (k, cell) in (from..).zip(cells) {
                        *cell = self.read_landed(plan.start, nth(k), landing, state);
                    }
                }
            }
            from += n;
        }
    }

    /// A holder's stretch of a run: `out.len()` cells of `holder` from
    /// row-major index `idx` on, `step` apart, under one guard — each read
    /// and counted as the per-cell path reads it once its search has landed
    /// on `holder`.
    fn read_held(
        &self,
        holder: BlockId,
        idx: usize,
        step: LocalAddress,
        out: &mut [C],
        state: &mut AccessState,
    ) {
        let block = &self.blocks[holder];
        let (BlockKind::Data(buf) | BlockKind::BufferOnly(buf)) = &block.kind else {
            unreachable!("a Cell landing has cell buffers")
        };
        let e = block.meta.extent;
        let guard = buf.read();
        if block.meta.is_valid() {
            // A buffer's rows run through the block's planes: a plane is
            // `ny` rows.
            let rows = step.dy + step.dz * e.ny as i64;
            guard.read_strided(idx, step.dx as isize, rows as isize, out);
        } else {
            let stride =
                (step.dx + step.dy * e.nx as i64 + step.dz * (e.nx * e.ny) as i64) as isize;
            // Consecutive cells of one invalid page are recorded in one go:
            // (page, cells) of the stretch being crossed.
            let mut gap: (PageId, u64) = (0, 0);
            for (k, cell) in out.iter_mut().enumerate() {
                let idx = idx.wrapping_add_signed(k as isize * stride);
                let page = guard.pages().page_of(idx);
                if guard.pages().is_valid(page) {
                    *cell = guard.read_cell(idx).clone();
                } else {
                    *cell = C::default();
                    if page != gap.0 {
                        state.record_missing_n(holder, gap.0, gap.1);
                        gap = (page, 0);
                    }
                    gap.1 += 1;
                }
            }
            drop(guard);
            state.record_missing_n(holder, gap.0, gap.1);
        }
        state.counters.reads += out.len() as u64;
        state.counters.out_of_block_reads += out.len() as u64;
    }

    /// One cell of a run, read as [`Env::read`] reads it once its search
    /// from `start` has landed where `landing` says, without the search (an
    /// unresolved cell is read by `Env::read` itself; a holder's stretch is
    /// [`Env::read_held`]'s).  Out of line, so the run loop stays small.
    #[inline(never)]
    fn read_landed(
        &self,
        start: BlockId,
        addr: GlobalAddress,
        landing: Landing,
        state: &mut AccessState,
    ) -> C {
        let value = match landing {
            Landing::Unresolved | Landing::Cell(..) => {
                return self.read(start, addr, false, state).unwrap_or_default();
            }
            Landing::Nowhere => {
                state.counters.missing_accesses += 1;
                None
            }
            Landing::Block(bid) => {
                state.counters.out_of_block_reads += 1;
                self.read_value_at(bid, addr, state, 0)
            }
        };
        state.counters.reads += 1;
        value.unwrap_or_default()
    }

    /// Read with a local (block-relative) address — the `GetD`/`GetDD` form.
    pub fn read_local(
        &self,
        start: BlockId,
        local: LocalAddress,
        in_block_hint: bool,
        state: &mut AccessState,
    ) -> Option<C> {
        let addr = self.blocks[start].to_global(local);
        self.read(start, addr, in_block_hint, state)
    }

    /// Write a cell of the starting block's write buffer (the `SetD` form).
    ///
    /// Subkernels only write the block they were given; writes outside the
    /// starting block are a programming error and return `false`.
    pub fn write_local(
        &self,
        start: BlockId,
        local: LocalAddress,
        value: C,
        state: &mut AccessState,
    ) -> bool {
        state.counters.writes += 1;
        let block = &self.blocks[start];
        if !block.meta.extent.contains_local(local) {
            return false;
        }
        let idx = block.meta.extent.linear_index(local);
        match &block.kind {
            BlockKind::Data(buf) | BlockKind::BufferOnly(buf) => {
                buf.write().write_cell(idx, value);
                true
            }
            _ => false,
        }
    }

    /// Write a cell of the starting block's *read* buffer (initialisation
    /// path: sets the step-0 data without marking pages dirty).
    pub fn write_initial(&self, start: BlockId, local: LocalAddress, value: C) -> bool {
        let block = &self.blocks[start];
        if !block.meta.extent.contains_local(local) {
            return false;
        }
        let idx = block.meta.extent.linear_index(local);
        match &block.kind {
            BlockKind::Data(buf) | BlockKind::BufferOnly(buf) => {
                buf.write().write_cell_to_read_buf(idx, value);
                true
            }
            _ => false,
        }
    }

    // ------------------------------------------------------------------
    // Slab access: a whole block per call
    // ------------------------------------------------------------------
    //
    // The block loop of a compiled kernel moves every cell of the block it
    // was given, in row-major order.  These are the three in-block calls
    // above at that granularity: one lock and one copy per block instead of
    // an address computation, a lock and a page lookup per cell — with
    // exactly the counters, missing-page records and dirty flags the
    // per-cell loop over `0..extent.cells()` produces.  A block without cell
    // buffers or a slice of the wrong length returns `false` and touches
    // nothing.  The borrowing forms (`view_block`, `lend_block`) are the
    // copying ones without the copy, on a wholly valid block, counted alike.

    /// The buffers of `id` if it is a buffer-bearing block of `len` cells.
    fn slab_buffers(&self, id: BlockId, len: usize) -> Option<&RwLock<MultiBuffer<C>>> {
        let block = &self.blocks[id];
        match &block.kind {
            BlockKind::Data(buf) | BlockKind::BufferOnly(buf)
                if len == block.meta.extent.cells() =>
            {
                Some(buf)
            }
            _ => None,
        }
    }

    /// The counters of `len` hinted in-block reads (`GetDD`), whether or
    /// not their pages are valid.
    fn count_block_read(state: &mut AccessState, len: usize) {
        state.counters.reads += len as u64;
        state.counters.skip_search_hits += len as u64;
    }

    /// Borrow `start`'s read buffer for `f` under a read guard — what
    /// [`Env::read_block_into`] would copy out, counted as it counts — with
    /// the [`Frame`] that says where its cells are ([`Frame::rows`]).
    /// `None`, with nothing counted and `f` not called, when `start` has no
    /// cell buffers or is not wholly valid.  Nothing may read the Env inside
    /// `f` (the guard is held).
    pub fn view_block<R>(
        &self,
        start: BlockId,
        state: &mut AccessState,
        f: impl FnOnce(&[C], Frame) -> R,
    ) -> Option<R> {
        let buf = self.slab_buffers(start, self.blocks[start].meta.extent.cells())?;
        let guard = buf.read();
        if !self.blocks[start].meta.is_valid() {
            return None;
        }
        Self::count_block_read(state, guard.cells());
        Some(f(guard.read_buf(), guard.frame()))
    }

    /// Lend `start`'s read buffer and write buffer to `f` together, whole,
    /// with the width of their ghost frame (see [`EnvBuilder::with_frame`]),
    /// under one write guard — [`Env::read_block_into`] then
    /// [`Env::write_block_from`] without either copy: the same counters,
    /// and every page of the write buffer dirty.  `write` holds whatever the
    /// buffer last held, so `f` must write every cell.  `read` is writable
    /// for its frame alone, where `f` may place the block's halo.  `None`,
    /// with nothing touched and `f` not called, when `start` has no cell
    /// buffers or is not wholly valid; the caller then copies.
    ///
    /// Nothing may read the Env inside `f`: the guard is not reentrant, and
    /// a Reference can map any address back into `start`.  Read a block's
    /// halo before lending it.
    pub fn lend_block<R>(
        &self,
        start: BlockId,
        state: &mut AccessState,
        f: impl FnOnce(&mut [C], &mut [C], usize) -> R,
    ) -> Option<R> {
        let buf = self.slab_buffers(start, self.blocks[start].meta.extent.cells())?;
        let mut guard = buf.write();
        if !self.blocks[start].meta.is_valid() {
            return None;
        }
        Self::count_block_read(state, guard.cells());
        state.counters.writes += guard.cells() as u64;
        let width = guard.frame().width();
        let (read, write) = guard.read_write_bufs();
        Some(f(read, write, width))
    }

    /// Read every cell of `start` into `out` — the slab form of
    /// [`Env::read_local`] with the in-block hint (`GetDD`).  Cells of an
    /// invalid page read as `C::default()` and are recorded missing, one
    /// record per cell, as the per-cell path does.
    pub fn read_block_into(&self, start: BlockId, out: &mut [C], state: &mut AccessState) -> bool {
        let Some(buf) = self.slab_buffers(start, out.len()) else { return false };
        let nx = self.blocks[start].meta.extent.nx.max(1);
        let copy = |read: &[C], frame: Frame| {
            for (dst, row) in out.chunks_mut(nx).zip(frame.rows(read)) {
                dst.clone_from_slice(row);
            }
        };
        if self.view_block(start, state, copy).is_some() {
            return true;
        }
        Self::count_block_read(state, out.len());
        let guard = buf.read();
        let pages = guard.pages();
        for page in 0..pages.num_pages() {
            let range = pages.cell_range(page);
            if pages.is_valid(page) {
                guard.read_range_into(range.clone(), &mut out[range]);
            } else {
                state.record_missing_n(start, page, range.len() as u64);
                out[range].fill(C::default());
            }
        }
        true
    }

    /// Write every cell of `start`'s write buffer from `src` — the slab form
    /// of [`Env::write_local`] (`SetD`); every page becomes dirty.
    pub fn write_block_from(&self, start: BlockId, src: &[C], state: &mut AccessState) -> bool {
        let Some(buf) = self.slab_buffers(start, src.len()) else { return false };
        state.counters.writes += src.len() as u64;
        buf.write().fill_write_buf(src);
        true
    }

    /// Write every cell of `start`'s *read* buffer from `src` — the slab form
    /// of [`Env::write_initial`] (step-0 data, no page marked dirty).
    pub fn init_block_from(&self, start: BlockId, src: &[C]) -> bool {
        let Some(buf) = self.slab_buffers(start, src.len()) else { return false };
        buf.write().fill_read_buf(src);
        true
    }

    fn read_buffered_cell(
        &self,
        bid: BlockId,
        idx: usize,
        addr: GlobalAddress,
        state: &mut AccessState,
    ) -> Option<C> {
        let block = &self.blocks[bid];
        match &block.kind {
            BlockKind::Data(buf) | BlockKind::BufferOnly(buf) => {
                let guard = buf.read();
                let page = guard.pages().page_of(idx);
                // A block is readable either as a whole (`is_valid`) or — for
                // remote blocks whose data arrives page-wise — per page.
                if !block.meta.is_valid() && !guard.pages().is_valid(page) {
                    drop(guard);
                    state.record_missing(bid, page);
                    return None;
                }
                Some(guard.read_cell(idx).clone())
            }
            _ => self.read_value_at(bid, addr, state, 0),
        }
    }

    fn read_value_at(
        &self,
        bid: BlockId,
        addr: GlobalAddress,
        state: &mut AccessState,
        depth: usize,
    ) -> Option<C> {
        if depth > 4 {
            // Reference cycles are a DSL bug; treat as non-existent.
            state.counters.missing_accesses += 1;
            return None;
        }
        let block = &self.blocks[bid];
        match &block.kind {
            BlockKind::Data(_) | BlockKind::BufferOnly(_) => {
                let idx = match block.cell_index(addr) {
                    Some(i) => i,
                    None => {
                        state.counters.missing_accesses += 1;
                        return None;
                    }
                };
                self.read_buffered_cell(bid, idx, addr, state)
            }
            BlockKind::StaticData(data) => {
                state.counters.static_reads += 1;
                block.cell_index(addr).map(|i| data[i].clone())
            }
            BlockKind::Arithmetic(f) => {
                state.counters.arithmetic_reads += 1;
                Some(f(addr))
            }
            BlockKind::Reference { target, map } => {
                state.counters.reference_reads += 1;
                let mapped = map(addr);
                let tgt = *target;
                if self.blocks[tgt].contains(mapped) {
                    self.read_value_at(tgt, mapped, state, depth + 1)
                } else {
                    let (found, visited) = self.find_block(mapped, tgt);
                    state.counters.search_nodes_visited += visited;
                    match found {
                        Some(fid) => self.read_value_at(fid, mapped, state, depth + 1),
                        None => {
                            state.counters.missing_accesses += 1;
                            None
                        }
                    }
                }
            }
            BlockKind::Empty => {
                state.counters.missing_accesses += 1;
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Buffer / page management (used by refresh advice and the runtime)
    // ------------------------------------------------------------------

    /// Swap read/write buffers of every Data block whose `dm_tid` is `task`.
    pub fn swap_owned_buffers(&self, task: usize) {
        for b in &self.blocks {
            if b.meta.dm_tid() == Some(task) {
                if let BlockKind::Data(buf) = &b.kind {
                    buf.write().swap();
                }
            }
        }
    }

    /// Number of pages of a buffer-bearing block.
    pub fn num_pages(&self, id: BlockId) -> Result<usize, EnvError> {
        match &self.try_block(id)?.kind {
            BlockKind::Data(buf) | BlockKind::BufferOnly(buf) => Ok(buf.read().pages().num_pages()),
            _ => Err(EnvError::NotABufferBlock(id)),
        }
    }

    /// Extract one page of a block's read buffer for shipping.
    pub fn extract_page(&self, id: BlockId, page: PageId) -> Result<Vec<C>, EnvError> {
        match &self.try_block(id)?.kind {
            BlockKind::Data(buf) | BlockKind::BufferOnly(buf) => Ok(buf.read().extract_page(page)),
            _ => Err(EnvError::NotABufferBlock(id)),
        }
    }

    /// Install a received page into a block's read buffer and mark the block
    /// valid once all its pages are valid.
    pub fn install_page(&self, id: BlockId, page: PageId, cells: &[C]) -> Result<(), EnvError> {
        let block = self.try_block(id)?;
        match &block.kind {
            BlockKind::Data(buf) | BlockKind::BufferOnly(buf) => {
                let mut guard = buf.write();
                guard.install_page(page, cells);
                let all_valid = guard.pages().valid_count() == guard.pages().num_pages();
                drop(guard);
                if all_valid {
                    block.meta.set_valid(true);
                }
                Ok(())
            }
            _ => Err(EnvError::NotABufferBlock(id)),
        }
    }

    /// Mark a buffer-bearing block valid (all pages readable) or invalid.
    pub fn set_block_valid(&self, id: BlockId, valid: bool) -> Result<(), EnvError> {
        let block = self.try_block(id)?;
        match &block.kind {
            BlockKind::Data(buf) | BlockKind::BufferOnly(buf) => {
                let mut guard = buf.write();
                if valid {
                    guard.pages_mut().validate_all();
                } else {
                    guard.pages_mut().invalidate_all();
                }
                drop(guard);
                block.meta.set_valid(valid);
                Ok(())
            }
            _ => Err(EnvError::NotABufferBlock(id)),
        }
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /// Bytes of cell storage held by all buffer-bearing blocks.
    pub fn data_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| match &b.kind {
                BlockKind::Data(buf) | BlockKind::BufferOnly(buf) => buf.read().data_bytes(),
                BlockKind::StaticData(d) => d.len() * std::mem::size_of::<C>(),
                _ => 0,
            })
            .sum()
    }

    /// Bytes of structural overhead: block metadata, page tables, arena.
    pub fn working_bytes(&self) -> usize {
        let meta_bytes = self.blocks.len() * std::mem::size_of::<Block<C>>();
        let page_bytes: usize = self
            .blocks
            .iter()
            .map(|b| match &b.kind {
                BlockKind::Data(buf) | BlockKind::BufferOnly(buf) => {
                    buf.read().footprint_bytes() - buf.read().data_bytes()
                }
                _ => 0,
            })
            .sum();
        meta_bytes + page_bytes
    }

    /// Summary statistics.
    pub fn stats(&self) -> EnvStats {
        EnvStats {
            num_blocks: self.blocks.len(),
            num_data_blocks: self.blocks.iter().filter(|b| b.is_data()).count(),
            num_buffer_only_blocks: self
                .blocks
                .iter()
                .filter(|b| matches!(b.kind, BlockKind::BufferOnly(_)))
                .count(),
            data_bytes: self.data_bytes(),
            working_bytes: self.working_bytes(),
        }
    }
}

impl<C> fmt::Debug for Env<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Env")
            .field("blocks", &self.blocks.len())
            .field("cells_per_page", &self.cells_per_page)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessCounters;
    use std::sync::Arc;

    /// Build the Fig. 2a example: a root joint, a boundary Arithmetic block on
    /// one branch and four 4x4 Data blocks (tiling an 8x8 domain) under a
    /// second joint.
    fn example_env() -> (Env<f64>, Vec<BlockId>) {
        let pool = PoolHandle::unbounded();
        let mut b = EnvBuilder::<f64>::new(pool, 4);
        let root = b.add_empty(None);
        let boundary = b.add_arithmetic(root, Arc::new(|_a| -1.0), true);
        let joint = b.add_empty(Some(root));
        let mut data = Vec::new();
        for by in 0..2u32 {
            for bx in 0..2u32 {
                let origin = GlobalAddress::new2d(bx as i64 * 4, by as i64 * 4);
                let id = b
                    .add_data(joint, origin, Extent::new2d(4, 4), crate::morton::morton2d(bx, by))
                    .unwrap();
                data.push(id);
            }
        }
        let _ = boundary;
        (b.build(), data)
    }

    fn fill(env: &Env<f64>, data: &[BlockId]) {
        for &bid in data {
            let block = env.block(bid);
            for dy in 0..4 {
                for dx in 0..4 {
                    let g = block.to_global(LocalAddress::new2d(dx, dy));
                    env.write_initial(bid, LocalAddress::new2d(dx, dy), (g.x * 100 + g.y) as f64);
                }
            }
        }
    }

    #[test]
    fn build_and_basic_queries() {
        let (env, data) = example_env();
        assert_eq!(env.len(), 7);
        assert_eq!(env.data_block_ids(), data);
        assert_eq!(env.stats().num_data_blocks, 4);
        assert_eq!(env.stats().num_blocks, 7);
        assert!(env.stats().data_bytes > 0);
        assert!(env.stats().working_bytes > 0);
        assert_eq!(env.cells_per_page(), 4);
        assert_eq!(env.num_buffers(), 2);
    }

    #[test]
    fn get_blocks_filters_by_ch_tid() {
        let (env, data) = example_env();
        env.block(data[0]).meta.set_ch_tid(Some(0));
        env.block(data[1]).meta.set_ch_tid(Some(0));
        env.block(data[2]).meta.set_ch_tid(Some(1));
        env.block(data[3]).meta.set_ch_tid(Some(1));
        assert_eq!(env.get_blocks(0), vec![data[0], data[1]]);
        assert_eq!(env.get_blocks(1), vec![data[2], data[3]]);
        assert!(env.get_blocks(2).is_empty());
    }

    #[test]
    fn partition_by_morton_balances() {
        let (env, _) = example_env();
        let parts = env.partition_by_morton(2);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 2);
        let parts3 = env.partition_by_morton(3);
        let total: usize = parts3.iter().map(|p| p.len()).sum();
        assert_eq!(total, 4);
        let parts8 = env.partition_by_morton(8);
        assert_eq!(parts8.iter().filter(|p| !p.is_empty()).count(), 4);
    }

    #[test]
    fn in_block_read_write() {
        let (env, data) = example_env();
        fill(&env, &data);
        let mut st = AccessState::new();
        let v = env.read_local(data[0], LocalAddress::new2d(1, 2), false, &mut st).unwrap();
        assert_eq!(v, 102.0);
        assert_eq!(st.counters.in_block_hits, 1);
        assert_eq!(st.counters.env_searches, 0);

        // Write goes to the write buffer; visible only after swap.
        env.block(data[0]).meta.set_dm_tid(Some(0));
        assert!(env.write_local(data[0], LocalAddress::new2d(1, 2), 7.0, &mut st));
        let before = env.read_local(data[0], LocalAddress::new2d(1, 2), false, &mut st).unwrap();
        assert_eq!(before, 102.0);
        env.swap_owned_buffers(0);
        let after = env.read_local(data[0], LocalAddress::new2d(1, 2), false, &mut st).unwrap();
        assert_eq!(after, 7.0);
    }

    #[test]
    fn write_outside_block_rejected() {
        let (env, data) = example_env();
        let mut st = AccessState::new();
        assert!(!env.write_local(data[0], LocalAddress::new2d(4, 0), 1.0, &mut st));
        assert!(!env.write_local(data[0], LocalAddress::new2d(-1, 0), 1.0, &mut st));
    }

    #[test]
    fn neighbour_block_access_via_search() {
        let (env, data) = example_env();
        fill(&env, &data);
        let mut st = AccessState::new();
        // From block 0 (origin 0,0), read the cell at (4,0) which belongs to
        // block 1 (origin 4,0).
        let v = env.read(data[0], GlobalAddress::new2d(4, 0), false, &mut st).unwrap();
        assert_eq!(v, 400.0);
        assert_eq!(st.counters.env_searches, 1);
        assert_eq!(st.counters.out_of_block_reads, 1);
        assert!(st.counters.search_nodes_visited > 0);
    }

    #[test]
    fn boundary_access_hits_arithmetic_block_last() {
        let (env, data) = example_env();
        fill(&env, &data);
        let mut st = AccessState::new();
        let v = env.read(data[0], GlobalAddress::new2d(-1, 0), false, &mut st).unwrap();
        assert_eq!(v, -1.0, "Dirichlet boundary value from the Arithmetic block");
        assert_eq!(st.counters.arithmetic_reads, 1);
        // The search had to scan the data branch before the boundary branch.
        assert!(st.counters.search_nodes_visited >= 4);
    }

    #[test]
    fn mmat_memorizes_and_replays() {
        let (env, data) = example_env();
        fill(&env, &data);
        let mut st = AccessState::with_mmat();
        let addr = GlobalAddress::new2d(4, 0);
        let v1 = env.read(data[0], addr, false, &mut st).unwrap();
        assert_eq!(st.counters.env_searches, 1);
        assert_eq!(st.counters.mmat_misses, 1);
        let v2 = env.read(data[0], addr, false, &mut st).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(st.counters.env_searches, 1, "second access resolved by MMAT");
        assert_eq!(st.counters.mmat_hits, 1);
        // In-block accesses are memorised too.
        let _ = env.read(data[0], GlobalAddress::new2d(1, 1), false, &mut st);
        let _ = env.read(data[0], GlobalAddress::new2d(1, 1), false, &mut st);
        assert_eq!(st.mmat.len(), 2);
        st.reset_mmat();
        assert_eq!(st.mmat.len(), 0);
    }

    #[test]
    fn skip_search_hint_bypasses_search() {
        let (env, data) = example_env();
        fill(&env, &data);
        let mut st = AccessState::new();
        let v = env.read_local(data[2], LocalAddress::new2d(3, 3), true, &mut st).unwrap();
        assert_eq!(v, 307.0);
        assert_eq!(st.counters.skip_search_hits, 1);
        assert_eq!(st.counters.env_searches, 0);
        // A wrong hint (address outside the block) returns None rather than
        // silently reading another block.
        assert!(env.read_local(data[2], LocalAddress::new2d(9, 0), true, &mut st).is_none());
    }

    #[test]
    fn invalid_block_records_missing_pages() {
        let (env, data) = example_env();
        fill(&env, &data);
        env.set_block_valid(data[1], false).unwrap();
        let mut st = AccessState::new();
        let v = env.read(data[0], GlobalAddress::new2d(4, 0), false, &mut st);
        assert!(v.is_none());
        assert!(st.has_missing());
        assert_eq!(st.missing()[0].0, data[1]);
        assert_eq!(st.counters.missing_accesses, 1);
        // Install the page and retry.
        let page = st.take_missing()[0].1;
        let payload = vec![42.0; env.block(data[1]).meta.extent.cells().min(4)];
        env.install_page(data[1], page, &payload).unwrap();
        // Only one page is valid, so the block as a whole may still be invalid
        // unless it has a single page; force validity for the retry.
        env.set_block_valid(data[1], true).unwrap();
        let v = env.read(data[0], GlobalAddress::new2d(4, 0), false, &mut st);
        assert!(v.is_some());
    }

    #[test]
    fn reference_block_mirrors_neumann_boundary() {
        let pool = PoolHandle::unbounded();
        let mut b = EnvBuilder::<f64>::new(pool, 4);
        let root = b.add_empty(None);
        let joint = b.add_empty(Some(root));
        let d0 = b.add_data(joint, GlobalAddress::new2d(0, 0), Extent::new2d(4, 4), 0).unwrap();
        // Mirror x=-1 accesses back onto x=0 (zero-gradient boundary).
        let _r = b.add_reference(
            root,
            d0,
            Arc::new(|a: GlobalAddress| GlobalAddress::new2d(a.x.max(0), a.y)),
            true,
        );
        let env = b.build();
        let mut st = AccessState::new();
        env.write_initial(d0, LocalAddress::new2d(0, 2), 5.5);
        let v = env.read(d0, GlobalAddress::new2d(-1, 2), false, &mut st).unwrap();
        assert_eq!(v, 5.5);
        assert_eq!(st.counters.reference_reads, 1);
    }

    #[test]
    fn static_block_reads() {
        let pool = PoolHandle::unbounded();
        let mut b = EnvBuilder::<f64>::new(pool, 4);
        let root = b.add_empty(None);
        let joint = b.add_empty(Some(root));
        let d0 = b.add_data(joint, GlobalAddress::new2d(0, 0), Extent::new2d(2, 2), 0).unwrap();
        let _s = b.add_static(
            root,
            GlobalAddress::new2d(2, 0),
            Extent::new2d(2, 2),
            vec![9.0, 8.0, 7.0, 6.0],
        );
        let env = b.build();
        let mut st = AccessState::new();
        let v = env.read(d0, GlobalAddress::new2d(3, 1), false, &mut st).unwrap();
        assert_eq!(v, 6.0);
        assert_eq!(st.counters.static_reads, 1);
    }

    #[test]
    fn demote_to_buffer_only() {
        let (mut env, data) = example_env();
        env.demote_to_buffer_only(data[3]).unwrap();
        assert_eq!(env.stats().num_data_blocks, 3);
        assert_eq!(env.stats().num_buffer_only_blocks, 1);
        assert!(!env.block(data[3]).meta.is_valid());
        // Demoting a non-data block errors.
        assert!(env.demote_to_buffer_only(0).is_err());
        assert!(env.demote_to_buffer_only(999).is_err());
    }

    #[test]
    fn page_extract_install_between_envs() {
        let (env_a, data_a) = example_env();
        let (env_b, data_b) = example_env();
        fill(&env_a, &data_a);
        // Ship all pages of block 2 from env_a to env_b.
        let bid = data_a[2];
        env_b.set_block_valid(data_b[2], false).unwrap();
        for page in 0..env_a.num_pages(bid).unwrap() {
            let payload = env_a.extract_page(bid, page).unwrap();
            env_b.install_page(data_b[2], page, &payload).unwrap();
        }
        assert!(
            env_b.block(data_b[2]).meta.is_valid(),
            "block becomes valid once every page arrived"
        );
        let mut st = AccessState::new();
        let want = env_a.read_local(bid, LocalAddress::new2d(2, 2), false, &mut st).unwrap();
        let got = env_b.read_local(data_b[2], LocalAddress::new2d(2, 2), false, &mut st).unwrap();
        assert_eq!(want, got);
    }

    mod search_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// From any starting block, the search finds a block that actually
            /// contains the address (or the catch-all boundary), never visits
            /// more nodes than the tree holds, and agrees with a brute-force
            /// scan about whether a non-boundary block covers the address.
            #[test]
            fn find_block_is_sound_and_bounded(
                start_sel in 0usize..4,
                x in -6i64..14,
                y in -6i64..14,
            ) {
                let (env, data) = example_env();
                let addr = GlobalAddress::new2d(x, y);
                let (found, visited) = env.find_block(addr, data[start_sel]);
                prop_assert!(visited <= env.len() as u64 + 1);
                let bid = found.expect("catch-all guarantees a hit");
                prop_assert!(env.block(bid).contains(addr));
                let brute = env
                    .blocks()
                    .find(|b| !b.meta.catch_all && !matches!(b.kind, BlockKind::Empty) && b.contains(addr))
                    .map(|b| b.meta.id);
                match brute {
                    Some(expected) => prop_assert_eq!(bid, expected),
                    None => prop_assert!(env.block(bid).meta.catch_all),
                }
            }
        }
    }

    mod slab_properties {
        use super::*;
        use aohpc_mem::PageTable;
        use proptest::prelude::*;

        /// One buffer-bearing block of `extent` framed `frame` wide under a
        /// joint, plus a catch-all Arithmetic boundary (a block without cell
        /// buffers).  Every frame cell holds [`GHOST`].
        fn one_block_env(
            extent: Extent,
            cpp: usize,
            buffer_only: bool,
            frame: usize,
        ) -> (Env<u64>, BlockId) {
            let mut b = EnvBuilder::<u64>::new(PoolHandle::unbounded(), cpp).with_frame(frame);
            let root = b.add_empty(None);
            b.add_arithmetic(root, Arc::new(|_| 0), true);
            let joint = b.add_empty(Some(root));
            let origin = GlobalAddress::new3d(3, -2, 1);
            let id = if buffer_only {
                b.add_buffer_only(joint, origin, extent, 0).unwrap()
            } else {
                b.add_data(joint, origin, extent, 0).unwrap()
            };
            let env = b.build();
            if let BlockKind::Data(buf) | BlockKind::BufferOnly(buf) = &env.block(id).kind {
                let mut g = buf.write();
                let cells = g.frame().cells();
                for _ in 0..g.num_buffers() {
                    let (frame, write) = (g.frame(), g.write_buf());
                    let inside: Vec<usize> = (0..cells).map(|idx| frame.offset(idx)).collect();
                    for (at, cell) in write.iter_mut().enumerate() {
                        if !inside.contains(&at) {
                            *cell = GHOST;
                        }
                    }
                    g.swap();
                }
            }
            (env, id)
        }

        /// What every frame cell holds: no logical access may yield it.
        const GHOST: u64 = 0xdead_f4a3;

        /// The block's cells (row-major) of `buf`, laid out as `frame`.
        fn logical(buf: &[u64], frame: Frame) -> Vec<u64> {
            frame.rows(buf).flatten().copied().collect()
        }

        /// Both buffers' cells and the page flags of a block.
        fn snapshot(env: &Env<u64>, id: BlockId) -> (Vec<u64>, Vec<u64>, PageTable) {
            match &env.block(id).kind {
                BlockKind::Data(buf) | BlockKind::BufferOnly(buf) => {
                    let mut g = buf.write();
                    let frame = g.frame();
                    let read = logical(g.read_buf(), frame);
                    (read, logical(g.write_buf(), frame), g.pages().clone())
                }
                _ => unreachable!("buffer-bearing block"),
            }
        }

        proptest! {
            /// The slab calls and the per-cell loops they replace leave the
            /// same values, counters, missing-page list (in order) and page
            /// flags — on Data and Buffer-only blocks, wholly valid or with
            /// an arbitrary subset of pages invalid, the slab side's block
            /// framed or not, the per-cell side's not.
            #[test]
            fn slab_calls_equal_the_per_cell_loops(
                nx in 1usize..9,
                ny in 1usize..9,
                nz in 1usize..3,
                cpp in 1usize..40,
                buffer_only in any::<bool>(),
                wholly_valid in any::<bool>(),
                invalid_mask in any::<u64>(),
                seed in any::<u64>(),
                frame in 0usize..3,
            ) {
                let extent = Extent::new3d(nx, ny, nz);
                let n = extent.cells();
                let initial: Vec<u64> = (0..n as u64).map(|i| seed.wrapping_add(i * 7919)).collect();
                let next: Vec<u64> = initial.iter().map(|v| v.rotate_left(17) ^ 0x5bd1).collect();
                let (slab, a) = one_block_env(extent, cpp, buffer_only, frame);
                let (cellwise, b) = one_block_env(extent, cpp, buffer_only, 0);
                let (mut st_a, mut st_b) = (AccessState::new(), AccessState::new());

                // Initialise.
                prop_assert!(slab.init_block_from(a, &initial));
                for (idx, v) in initial.iter().enumerate() {
                    prop_assert!(cellwise.write_initial(b, extent.delinearize(idx), *v));
                }
                prop_assert_eq!(snapshot(&slab, a), snapshot(&cellwise, b));

                // Page validity: all valid as a block, or page by page.
                for (env, id) in [(&slab, a), (&cellwise, b)] {
                    env.set_block_valid(id, wholly_valid).unwrap();
                    if !wholly_valid {
                        for page in 0..env.num_pages(id).unwrap() {
                            if invalid_mask >> (page % 64) & 1 == 0 {
                                let payload = env.extract_page(id, page).unwrap();
                                env.install_page(id, page, &payload).unwrap();
                            }
                        }
                    }
                }

                // Gather.
                let mut out_a = vec![u64::MAX; n];
                prop_assert!(slab.read_block_into(a, &mut out_a, &mut st_a));
                let out_b: Vec<u64> = (0..n)
                    .map(|idx| {
                        cellwise
                            .read_local(b, extent.delinearize(idx), true, &mut st_b)
                            .unwrap_or_default()
                    })
                    .collect();
                prop_assert_eq!(&out_a, &out_b);
                prop_assert_eq!(st_a.counters, st_b.counters);
                prop_assert_eq!(st_a.missing(), st_b.missing());

                // Scatter.
                prop_assert!(slab.write_block_from(a, &next, &mut st_a));
                for (idx, v) in next.iter().enumerate() {
                    prop_assert!(cellwise.write_local(b, extent.delinearize(idx), *v, &mut st_b));
                }
                prop_assert_eq!(st_a.counters, st_b.counters);
                prop_assert_eq!(st_a.missing(), st_b.missing());
                prop_assert_eq!(snapshot(&slab, a), snapshot(&cellwise, b));
            }
        }

        proptest! {
            /// Lending a block is reading it in and writing it out with the
            /// slab calls, without the copies: two steps (a swap between
            /// them, so both buffers take a turn) leave the same values in
            /// both buffers, the same counters and the same page flags.  A
            /// view is the read alone.  A block that is not wholly valid is
            /// neither lent nor viewed — the closure is not called and
            /// nothing is touched — and the copying fallback then records
            /// the missing pages in order.  The lent block is framed or
            /// not, the copied one not: the lend hands out the frame's
            /// width, and the block's rows are where it says.
            #[test]
            fn a_lend_equals_the_slab_copies(
                nx in 1usize..9,
                ny in 1usize..9,
                nz in 1usize..3,
                cpp in 1usize..40,
                buffer_only in any::<bool>(),
                wholly_valid in any::<bool>(),
                invalid_mask in any::<u64>(),
                seed in any::<u64>(),
                frame in 0usize..3,
            ) {
                let extent = Extent::new3d(nx, ny, nz);
                let n = extent.cells();
                let initial: Vec<u64> = (0..n as u64).map(|i| seed.wrapping_add(i * 7919)).collect();
                let law = |v: &u64, step: u64| v.rotate_left(17) ^ step;
                let (lent, a) = one_block_env(extent, cpp, buffer_only, frame);
                let (copied, b) = one_block_env(extent, cpp, buffer_only, 0);
                let layout = |width| Frame::new(nx, ny * nz, width);
                let (mut st_a, mut st_b) = (AccessState::new(), AccessState::new());
                for (env, id) in [(&lent, a), (&copied, b)] {
                    prop_assert!(env.init_block_from(id, &initial));
                    env.set_block_valid(id, wholly_valid).unwrap();
                    if !wholly_valid {
                        for page in 0..env.num_pages(id).unwrap() {
                            if invalid_mask >> (page % 64) & 1 == 0 {
                                let payload = env.extract_page(id, page).unwrap();
                                env.install_page(id, page, &payload).unwrap();
                            }
                        }
                    }
                }
                let valid = lent.block(a).meta.is_valid();

                for step in 0..2u64 {
                    // The copy: slab in, the law, slab out.
                    let mut cells = vec![0; n];
                    prop_assert!(copied.read_block_into(b, &mut cells, &mut st_b));
                    let next: Vec<u64> = cells.iter().map(|v| law(v, step)).collect();
                    prop_assert!(copied.write_block_from(b, &next, &mut st_b));

                    let viewed = lent.view_block(a, &mut AccessState::new(), logical);
                    prop_assert_eq!(viewed.is_some(), valid);
                    let before = (snapshot(&lent, a), st_a.counters, st_a.missing().to_vec());
                    let mut calls = 0;
                    let done = lent.lend_block(a, &mut st_a, |read, write, width| {
                        calls += 1;
                        let frame = layout(width);
                        for (w, r) in frame.rows_mut(write).zip(frame.rows(read)) {
                            for (w, r) in w.iter_mut().zip(r) {
                                *w = law(r, step);
                            }
                        }
                        (width, logical(read, frame))
                    });
                    match done {
                        Some((width, read)) => {
                            prop_assert_eq!(width, frame);
                            prop_assert_eq!(Some(&read), viewed.as_ref());
                            prop_assert_eq!(&read, &cells);
                        }
                        None => {
                            prop_assert!(!valid);
                            prop_assert_eq!(calls, 0);
                            let after = (snapshot(&lent, a), st_a.counters, st_a.missing().to_vec());
                            prop_assert_eq!(after, before);
                            // The caller's fallback: the copy.
                            let mut cells = vec![0; n];
                            prop_assert!(lent.read_block_into(a, &mut cells, &mut st_a));
                            let next: Vec<u64> = cells.iter().map(|v| law(v, step)).collect();
                            prop_assert!(lent.write_block_from(a, &next, &mut st_a));
                        }
                    }
                    prop_assert_eq!(st_a.counters, st_b.counters);
                    prop_assert_eq!(st_a.missing(), st_b.missing());
                    prop_assert_eq!(snapshot(&lent, a), snapshot(&copied, b));

                    // A view counts as the slab read.
                    let (mut viewing, mut reading) = (AccessState::new(), AccessState::new());
                    if let Some(read) = lent.view_block(a, &mut viewing, logical) {
                        let mut out = vec![0; n];
                        prop_assert!(copied.read_block_into(b, &mut out, &mut reading));
                        prop_assert_eq!(read, out);
                        prop_assert_eq!(viewing.counters, reading.counters);
                    } else {
                        prop_assert_eq!(viewing.counters, AccessCounters::default());
                    }

                    for (env, id) in [(&lent, a), (&copied, b)] {
                        match &env.block(id).kind {
                            BlockKind::Data(buf) | BlockKind::BufferOnly(buf) => buf.write().swap(),
                            _ => unreachable!("buffer-bearing block"),
                        }
                    }
                }
            }
        }

        #[test]
        fn wrong_length_and_non_buffer_blocks_are_refused_untouched() {
            let extent = Extent::new2d(4, 3);
            let (env, id) = one_block_env(extent, 5, false, 1);
            assert!(env.init_block_from(id, &[9; 12]));
            let before = snapshot(&env, id);
            let mut st = AccessState::new();
            // A slice one short, one long; then the Empty root and the
            // Arithmetic boundary with a slice of any length.
            for len in [11, 13] {
                let mut buf = vec![1u64; len];
                assert!(!env.read_block_into(id, &mut buf, &mut st));
                assert!(buf.iter().all(|v| *v == 1));
                assert!(!env.write_block_from(id, &buf, &mut st));
                assert!(!env.init_block_from(id, &buf));
            }
            for other in [0, 1] {
                assert!(!env.block(other).kind.has_buffers());
                for len in [0, 12] {
                    let mut buf = vec![1u64; len];
                    assert!(!env.read_block_into(other, &mut buf, &mut st));
                    assert!(!env.write_block_from(other, &buf, &mut st));
                    assert!(!env.init_block_from(other, &buf));
                }
                assert!(env.view_block(other, &mut st, |_, _| ()).is_none());
                assert!(env.lend_block(other, &mut st, |_, _, _| ()).is_none());
            }
            assert_eq!(st.counters, AccessCounters::default());
            assert!(!st.has_missing());
            assert_eq!(snapshot(&env, id), before);
        }
    }

    mod run_properties {
        use super::*;
        use crate::topology::{TilePlacement, TreeTopology};
        use proptest::prelude::*;

        const TILE: (usize, usize) = (4, 3);
        const DOMAIN: (i64, i64) = (12, 9);

        fn value_at(a: GlobalAddress) -> u64 {
            (a.x * 1_000 + a.y) as u64 ^ 0x9e37
        }

        /// `columns` × 3 data blocks of 4×3 from the origin, under flat or
        /// quadtree joints, in row-major order.
        fn add_tiles(
            b: &mut EnvBuilder<u64>,
            root: BlockId,
            columns: u32,
            quadtree: bool,
        ) -> Vec<BlockId> {
            let tiles: Vec<TilePlacement> = (0..3 * columns)
                .map(|k| {
                    let (bx, by) = (k % columns, k / columns);
                    TilePlacement::new(
                        GlobalAddress::new2d(bx as i64 * TILE.0 as i64, by as i64 * TILE.1 as i64),
                        Extent::new2d(TILE.0, TILE.1),
                        crate::morton::morton2d(bx, by),
                    )
                })
                .collect();
            let topology = if quadtree {
                TreeTopology::Quadtree { max_leaf_blocks: 2 }
            } else {
                TreeTopology::Flat
            };
            let joints = topology.build_joints(b, root, &tiles);
            let placed = tiles.iter().zip(&joints);
            placed.map(|(t, j)| b.add_data(*j, t.origin, t.extent, t.morton).unwrap()).collect()
        }

        /// The catch-all: a Reference into `target` mirroring onto the
        /// nearest cell of the `domain` from the origin, or Arithmetic.
        fn add_catch_all(
            b: &mut EnvBuilder<u64>,
            root: BlockId,
            reference: Option<(BlockId, (i64, i64))>,
        ) {
            match reference {
                Some((target, domain)) => {
                    let mirror = move |a: GlobalAddress| {
                        GlobalAddress::new2d(a.x.clamp(0, domain.0 - 1), a.y.clamp(0, domain.1 - 1))
                    };
                    b.add_reference(root, target, Arc::new(mirror), true);
                }
                None => {
                    b.add_arithmetic(root, Arc::new(|a| value_at(a) + 2), true);
                }
            }
        }

        /// Freeze the tree and give every cell of `data` its initial value.
        fn written(b: EnvBuilder<u64>, data: &[BlockId]) -> Env<u64> {
            let env = b.build();
            for &id in data {
                let block = env.block(id);
                for idx in 0..block.meta.extent.cells() {
                    let la = block.meta.extent.delinearize(idx);
                    env.write_initial(id, la, value_at(block.to_global(la)) + id as u64);
                }
            }
            env
        }

        /// A 3×3 tiling of 4×3 data blocks under flat or quadtree joints, a
        /// Static block to the right of the domain, and a catch-all that is
        /// either Arithmetic or a Reference mirroring into the domain;
        /// optionally one more data block lying across four tiles.
        fn tiled_env(cpp: usize, quadtree: bool, reference: bool, overlap: bool) -> Env<u64> {
            let mut b = EnvBuilder::<u64>::new(PoolHandle::unbounded(), cpp);
            let root = b.add_empty(None);
            let mut data = add_tiles(&mut b, root, 3, quadtree);
            if overlap {
                let joint = b.add_empty(Some(root));
                data.push(
                    b.add_data(joint, GlobalAddress::new2d(3, 2), Extent::new2d(4, 3), 99).unwrap(),
                );
            }
            let strip = Extent::new2d(3, DOMAIN.1 as usize);
            let origin = GlobalAddress::new2d(DOMAIN.0, 0);
            let cells = (0..strip.cells()).map(|i| value_at(origin + strip.delinearize(i)) + 1);
            b.add_static(root, origin, strip, cells.collect());
            add_catch_all(&mut b, root, reference.then_some((data[4], DOMAIN)));
            written(b, &data)
        }

        /// Three 4×3 data blocks stacked in one column: a domain one block
        /// wide, so a row across it leaves the hull on both sides.
        fn column_env(quadtree: bool, reference: bool) -> Env<u64> {
            let mut b = EnvBuilder::<u64>::new(PoolHandle::unbounded(), 4);
            let root = b.add_empty(None);
            let data = add_tiles(&mut b, root, 1, quadtree);
            let domain = (TILE.0 as i64, 3 * TILE.1 as i64);
            add_catch_all(&mut b, root, reference.then_some((data[1], domain)));
            written(b, &data)
        }

        fn searches_aside(k: AccessCounters) -> AccessCounters {
            AccessCounters { env_searches: 0, search_nodes_visited: 0, ..k }
        }

        /// The two search counters of `k`, every other counter 0.
        fn searches_only(k: AccessCounters) -> AccessCounters {
            let (env_searches, search_nodes_visited) = (k.env_searches, k.search_nodes_visited);
            AccessCounters { env_searches, search_nodes_visited, ..AccessCounters::default() }
        }

        /// The `k`-th address of `plan`'s run.
        fn nth(plan: &RunPlan, k: usize) -> GlobalAddress {
            let (s, k) = (plan.step, k as i64);
            plan.first + LocalAddress::new3d(s.dx * k, s.dy * k, s.dz * k)
        }

        /// Read `plan` once on `run` and the per-cell loop over its cells on
        /// `cellwise`: the values and the missing-page records, in order,
        /// must agree, and so must every counter but the two search
        /// counters.
        fn read_beside_cells(
            env: &Env<u64>,
            plan: &RunPlan,
            (run, cellwise): (&mut AccessState, &mut AccessState),
        ) -> Vec<u64> {
            let mut got = vec![u64::MAX; plan.len()];
            env.read_run(plan, &mut got, run);
            let read = |k| env.read(plan.start, nth(plan, k), false, cellwise).unwrap_or_default();
            let want: Vec<u64> = (0..plan.len()).map(read).collect();
            assert_eq!(got, want);
            assert_eq!(run.missing(), cellwise.missing());
            assert_eq!(searches_aside(run.counters), searches_aside(cellwise.counters));
            got
        }

        /// Resolve the run on `resolution` — which moves the search
        /// counters and nothing else — then [`read_beside_cells`] on states
        /// with MMAT as `resolution` has it: with MMAT off, the read
        /// searches nothing.
        fn run_beside_cells(
            env: &Env<u64>,
            start: BlockId,
            (first, step, len): (GlobalAddress, LocalAddress, usize),
            (resolution, run, cellwise): (&mut AccessState, &mut AccessState, &mut AccessState),
        ) -> RunPlan {
            let plan = env.resolve_run(start, first, step, len, resolution);
            assert_eq!(plan.len(), len);
            assert_eq!(searches_aside(resolution.counters), AccessCounters::default());
            let searches = run.counters.env_searches;
            read_beside_cells(env, &plan, (run, cellwise));
            if !run.mmat_enabled {
                assert_eq!(run.counters.env_searches, searches, "a plan read searches nothing");
            }
            plan
        }

        /// Fresh states for a resolution, a plan read and the per-cell loop.
        fn states(mmat: bool) -> [AccessState; 3] {
            std::array::from_fn(
                |_| if mmat { AccessState::with_mmat() } else { AccessState::new() },
            )
        }

        /// Per cell of the run, the nodes the per-cell loop's search for it
        /// visits (none for a cell of `start`, which `Env::read` serves
        /// unsearched), and whether a resolution with MMAT off searches for
        /// it: every other cell, except one that the stretch before it
        /// answers — after a search that landed on a buffer-bearing block, a
        /// cell of that block (with `start` a placed holder and the holders
        /// unique); after one that fell through to the catch-all, a cell
        /// outside the holders' hull (with `start` holding values).
        fn searched(env: &Env<u64>, plan: &RunPlan) -> Vec<(u64, bool)> {
            let block = env.block(plan.start);
            let past_hull = holds_values(block);
            let shortcut = past_hull && env.holders_are_unique && !block.meta.catch_all;
            let mut answering = None;
            (0..plan.len())
                .map(|k| {
                    let addr = nth(plan, k);
                    if !block.meta.catch_all && block.contains(addr) {
                        answering = None;
                        return (0, false);
                    }
                    let (found, nodes) = env.find_block(addr, plan.start);
                    let answered = match answering {
                        Some(b) if Some(b) == env.first_catch_all => env.outside_hull(addr),
                        Some(b) => env.block(b).contains(addr),
                        None => false,
                    };
                    if !answered {
                        let fell_through = found.filter(|_| past_hull) == env.first_catch_all;
                        let held = |b: &BlockId| shortcut && env.block(*b).kind.has_buffers();
                        answering = if fell_through { found } else { found.filter(held) };
                    }
                    (nodes, !answered)
                })
                .collect()
        }

        #[test]
        fn a_run_along_a_neighbour_searches_once() {
            let env = tiled_env(4, false, false, false);
            let start = env.data_block_ids()[4];
            let [mut resolution, mut run, mut cellwise] = states(false);
            // The row above the centre tile: four cells of the tile to its north.
            let at = (GlobalAddress::new2d(4, 2), LocalAddress::new2d(1, 0), 4);
            run_beside_cells(&env, start, at, (&mut resolution, &mut run, &mut cellwise));
            let (r, c) = (resolution.counters, cellwise.counters);
            assert_eq!((r.env_searches, c.env_searches), (1, 4));
            assert_eq!(r.search_nodes_visited * 4, c.search_nodes_visited);
            assert_eq!(run.counters.out_of_block_reads, 4);
        }

        #[test]
        fn a_joint_narrower_than_its_block_disables_the_shortcut() {
            // The joint's box covers only the left half of the block below
            // it, so a search for the right half is pruned and lands on the
            // boundary: the holder found for one cell says nothing about the
            // next, and the resolution must search cell by cell.
            let mut b = EnvBuilder::<u64>::new(PoolHandle::unbounded(), 4);
            let root = b.add_empty(None);
            b.add_arithmetic(root, Arc::new(|_| 7), true);
            let flat = b.add_empty(Some(root));
            let start =
                b.add_data(flat, GlobalAddress::new2d(0, 1), Extent::new2d(8, 1), 0).unwrap();
            let narrow = b.add_joint(Some(root), GlobalAddress::new2d(0, 0), Extent::new2d(4, 1));
            let wide =
                b.add_data(narrow, GlobalAddress::new2d(0, 0), Extent::new2d(8, 1), 1).unwrap();
            let env = b.build();
            assert!(!env.holders_are_unique);
            for x in 0..8 {
                env.write_initial(wide, LocalAddress::new2d(x, 0), 100 + x as u64);
            }
            let [mut resolution, mut run, mut cellwise] = states(false);
            let (first, step) = (GlobalAddress::new2d(0, 0), LocalAddress::new2d(1, 0));
            let plan = run_beside_cells(
                &env,
                start,
                (first, step, 8),
                (&mut resolution, &mut run, &mut cellwise),
            );
            // Each cell lands where `find_block` from `start` lands, not on
            // the block that holds it.
            let landed: Vec<_> = plan.stretches.iter().map(|(n, landing)| (*n, *landing)).collect();
            let boundary = env.first_catch_all.unwrap();
            let w = |x| (1, Landing::Cell(wide, x));
            assert_eq!(landed, [w(0), w(1), w(2), w(3), (4, Landing::Block(boundary))]);
            let mut got = [0u64; 8];
            env.read_run(&plan, &mut got, &mut AccessState::new());
            assert_eq!(got, [100, 101, 102, 103, 7, 7, 7, 7]);
            assert_eq!(resolution.counters, searches_only(cellwise.counters));

            // Past the hull, [0, 8) × [0, 2), the pruning cannot matter: four
            // cells more, none searched for, as the last cell inside already
            // fell through to the catch-all.
            assert_eq!(env.holder_hull, Some(([0, 0, 0], [8, 2, 1])));
            let [mut resolution, mut run, mut cellwise] = states(false);
            let at = (first, step, 12);
            run_beside_cells(&env, start, at, (&mut resolution, &mut run, &mut cellwise));
            let searches = (resolution.counters.env_searches, cellwise.counters.env_searches);
            assert_eq!(searches, (8, 12));
        }

        /// A run wholly outside the holders' hull — the ring row or column of
        /// a block on the domain's edge — searches once, for its leading
        /// cell, on any tree and through either kind of catch-all.
        #[test]
        fn a_run_wholly_outside_the_hull_searches_once() {
            // Above the tiles and the Static strip, below them leftwards,
            // left of them, right of the strip.
            let runs = [
                ((-1, -1), (1, 0), 17),
                ((15, 9), (-1, 0), 17),
                ((-1, 0), (0, 1), 9),
                ((15, -1), (0, 1), 11),
            ];
            for quadtree in [false, true] {
                for reference in [false, true] {
                    let env = tiled_env(4, quadtree, reference, false);
                    assert_eq!(env.holder_hull, Some(([0, 0, 0], [15, 9, 1])));
                    for &((x, y), (dx, dy), len) in &runs {
                        let at = (GlobalAddress::new2d(x, y), LocalAddress::new2d(dx, dy), len);
                        for start in env.data_block_ids() {
                            let [mut resolution, mut run, mut cellwise] = states(false);
                            let three = (&mut resolution, &mut run, &mut cellwise);
                            let plan = run_beside_cells(&env, start, at, three);
                            assert_eq!(plan.stretches.len(), 1, "{at:?} from {start}");
                            let searches =
                                (resolution.counters.env_searches, cellwise.counters.env_searches);
                            assert_eq!(searches, (1, len as u64), "{at:?} from {start}");
                        }
                    }
                }
            }
        }

        /// The ring row above the middle block of a one-block-wide column,
        /// corners included (`(-1, -1) … (4, -1)` in the block's own
        /// coordinates), starts outside the hull, crosses the block above and
        /// leaves again: a search a stretch — three where the per-cell loop
        /// runs six — with none, one or all of the crossed block's pages
        /// missing, and none at all on the sweeps after the resolution.
        #[test]
        fn a_corner_run_that_crosses_a_neighbour_searches_once_a_stretch() {
            for quadtree in [false, true] {
                for reference in [false, true] {
                    for installed in [u64::MAX, 0b011, 0] {
                        let env = column_env(quadtree, reference);
                        let [above, start, _] = env.data_block_ids()[..] else { unreachable!() };
                        env.set_block_valid(above, false).unwrap();
                        for page in 0..env.num_pages(above).unwrap() {
                            if installed >> page & 1 == 1 {
                                let payload = env.extract_page(above, page).unwrap();
                                env.install_page(above, page, &payload).unwrap();
                            }
                        }
                        let first = env.block(start).to_global(LocalAddress::new2d(-1, -1));
                        let at = (first, LocalAddress::new2d(1, 0), 6);
                        let [mut resolution, mut run, mut cellwise] = states(false);
                        let three = (&mut resolution, &mut run, &mut cellwise);
                        let plan = run_beside_cells(&env, start, at, three);
                        read_beside_cells(&env, &plan, (&mut run, &mut cellwise));
                        let case = format!("quadtree {quadtree}, reference {reference}");
                        assert_eq!(
                            (resolution.counters.env_searches, cellwise.counters.env_searches),
                            (3, 12),
                            "{case}, pages {installed:b}"
                        );
                        assert_eq!(cellwise.has_missing(), installed != u64::MAX);
                    }
                }
            }
        }

        /// With MMAT on every read consults the memo, so the plan is one
        /// unresolved stretch, resolving counts nothing, and reading it is
        /// the per-cell loop, searches included: on the pass that fills the
        /// memo and on the one that replays it.
        #[test]
        fn with_mmat_a_run_past_the_hull_searches_as_the_per_cell_loop() {
            for reference in [false, true] {
                let env = tiled_env(4, false, reference, false);
                let start = env.data_block_ids()[0];
                let at = (GlobalAddress::new2d(-1, -1), LocalAddress::new2d(1, 0), 17);
                let [mut resolution, mut run, mut cellwise] = states(true);
                let three = (&mut resolution, &mut run, &mut cellwise);
                let plan = run_beside_cells(&env, start, at, three);
                assert_eq!(plan.stretches, [(17, Landing::Unresolved)]);
                assert_eq!(resolution.counters, AccessCounters::default());
                read_beside_cells(&env, &plan, (&mut run, &mut cellwise));
                assert_eq!(run.counters, cellwise.counters);
                assert_eq!(run.mmat.len(), cellwise.mmat.len());
                assert_eq!(run.counters.env_searches, 17, "the second pass is all hits");
            }
        }

        /// The lock rule: no guard is held while a stretch's landing is read.
        /// The Reference catch-all maps every outside cell into `start`; at
        /// the read's second cell it lets a writer at `start` run and waits
        /// for it to finish.  Had the read kept a guard on `start`, the
        /// writer would stay queued and the read of `start` that follows
        /// would block behind it for good (std's `RwLock` prefers writers).
        /// The plan is resolved first — the one search, and no mapping — so
        /// the read runs none.
        #[test]
        fn a_run_past_the_hull_through_a_reference_into_start_yields_to_a_waiting_writer() {
            use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
            use std::sync::mpsc;
            use std::time::{Duration, Instant};

            let calls = AtomicUsize::new(0);
            let written = Arc::new(AtomicBool::new(false));
            let (release_tx, release_rx) = mpsc::channel();
            let mirror = {
                let written = Arc::clone(&written);
                move |a: GlobalAddress| {
                    if calls.fetch_add(1, SeqCst) == 1 {
                        release_tx.send(()).expect("the writer is waiting for this");
                        let deadline = Instant::now() + Duration::from_secs(2);
                        while !written.load(SeqCst) && Instant::now() < deadline {
                            std::thread::yield_now();
                        }
                    }
                    GlobalAddress::new2d(a.x.clamp(0, 3), a.y.clamp(0, 3))
                }
            };
            let mut b = EnvBuilder::<u64>::new(PoolHandle::unbounded(), 4);
            let root = b.add_empty(None);
            let joint = b.add_empty(Some(root));
            let start =
                b.add_data(joint, GlobalAddress::new2d(0, 0), Extent::new2d(4, 4), 0).unwrap();
            b.add_reference(root, start, Arc::new(mirror), true);
            let env = Arc::new(b.build());
            for x in 0..4 {
                env.write_initial(start, LocalAddress::new2d(x, 0), 10 + x as u64);
            }

            let writer = {
                let env = Arc::clone(&env);
                std::thread::spawn(move || {
                    release_rx.recv().expect("the read reaches its second cell");
                    let BlockKind::Data(buf) = &env.block(start).kind else { unreachable!() };
                    drop(buf.write());
                    written.store(true, SeqCst);
                })
            };
            let (done_tx, done_rx) = mpsc::channel();
            let reader = std::thread::spawn(move || {
                // The row above `start`, corners included: all past the hull.
                let mut st = AccessState::new();
                let (first, step) = (GlobalAddress::new2d(-1, -1), LocalAddress::new2d(1, 0));
                let plan = env.resolve_run(start, first, step, 6, &mut st);
                let resolved = st.counters.env_searches;
                let mut out = [0u64; 6];
                env.read_run(&plan, &mut out, &mut st);
                let counters = (st.counters.reference_reads, resolved, st.counters.env_searches);
                done_tx.send((out, counters)).expect("the test is waiting");
            });
            let got = done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("the read must not deadlock against a queued writer");
            assert_eq!(got, ([10, 10, 11, 12, 13, 13], (6, 1, 1)));
            writer.join().unwrap();
            reader.join().unwrap();
        }

        /// Leave the pages of `id` named by `mask` invalid.
        fn invalidate_pages(env: &Env<u64>, id: BlockId, mask: u64) {
            env.set_block_valid(id, false).unwrap();
            for page in 0..env.num_pages(id).unwrap() {
                if mask >> (page % 64) & 1 == 0 {
                    let payload = env.extract_page(id, page).unwrap();
                    env.install_page(id, page, &payload).unwrap();
                }
            }
        }

        proptest! {
            /// A run plan read and the per-cell loop it replaces: same
            /// values, the same missing-page list in the same order, the
            /// same MMAT memo and every counter equal but the two search
            /// counters — from any start (a data tile, Buffer-only or not,
            /// or any block of the arena: joints, the Static strip, the
            /// catch-all), through either catch-all, on trees with and
            /// without a block overlapping four tiles.  The plan is resolved
            /// once; between its two rounds of reads what it must not have
            /// frozen changes: pages arrive and go stale, holders turn
            /// Buffer-only, MMAT flips.
            ///
            /// The searches: resolving with MMAT on counts nothing, and every
            /// read is the per-cell loop's, counter for counter.  Resolving
            /// with MMAT off counts exactly the searches of [`searched`] —
            /// one pass of the loop's, less those a stretch's leading cell
            /// answers — and nothing else, and a read with MMAT off counts
            /// none, and of the nodes only a Reference's own walk from its
            /// target, as the loop does after its search.
            #[test]
            fn run_reads_equal_the_per_cell_loop(
                cpp in 1usize..8,
                quadtree in any::<bool>(),
                reference in any::<bool>(),
                overlap_sel in 0usize..4,
                mmat in any::<bool>(),
                start_sel in 0usize..40,
                buffer_only in any::<bool>(),
                x in -3i64..17,
                y in -3i64..12,
                step_sel in 0usize..6,
                len in 1usize..28,
                victims in (0usize..9, 0usize..9),
                victims_buffer_only in any::<bool>(),
                invalid_mask in any::<u64>(),
            ) {
                let mut env = tiled_env(cpp, quadtree, reference, overlap_sel == 0);
                let data = env.data_block_ids();
                // Three starts in four are data tiles; the rest range over
                // the whole arena.
                let start = if start_sel < 30 { data[start_sel % data.len()] } else { start_sel % env.len() };
                if buffer_only && env.block(start).is_data() {
                    env.demote_to_buffer_only(start).unwrap();
                    env.set_block_valid(start, true).unwrap();
                }
                // Two tiles lose some of their pages (remote blocks mid-refresh).
                invalidate_pages(&env, data[victims.0], invalid_mask);
                invalidate_pages(&env, data[victims.1], invalid_mask.rotate_left(7));
                let step = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (2, -1)][step_sel];
                let (first, step) = (GlobalAddress::new2d(x, y), LocalAddress::new2d(step.0, step.1));
                let [mut resolution, ..] = states(mmat);
                let plan = env.resolve_run(start, first, step, len, &mut resolution);
                prop_assert_eq!(plan.len(), len);
                prop_assert_eq!(searches_aside(resolution.counters), AccessCounters::default());
                let searched = searched(&env, &plan);
                let leaders = searched.iter().filter(|(_, s)| *s);
                let (searches, nodes) = leaders.fold((0, 0), |(s, n), (v, _)| (s + 1, n + v));
                let searched_nodes: u64 = searched.iter().map(|(v, _)| v).sum();
                if mmat {
                    prop_assert_eq!(resolution.counters, AccessCounters::default());
                } else {
                    prop_assert_eq!(
                        (resolution.counters.env_searches, resolution.counters.search_nodes_visited),
                        (searches, nodes)
                    );
                }

                for round in 0..2 {
                    if round == 1 {
                        env.set_block_valid(data[victims.0], true).unwrap();
                        invalidate_pages(&env, data[victims.1], !invalid_mask);
                        for victim in [victims.0, victims.1] {
                            if victims_buffer_only && env.block(data[victim]).is_data() {
                                env.demote_to_buffer_only(data[victim]).unwrap();
                                invalidate_pages(&env, data[victim], invalid_mask.rotate_left(3));
                            }
                        }
                    }
                    let mmat_now = mmat ^ (round == 1);
                    let [_, mut run, mut cellwise] = states(mmat_now);
                    // Twice, so the second pass replays whatever MMAT memorised.
                    for pass in 1..=2u64 {
                        read_beside_cells(&env, &plan, (&mut run, &mut cellwise));
                        prop_assert_eq!(run.mmat.len(), cellwise.mmat.len());
                        let (r, c) = (run.counters, cellwise.counters);
                        if mmat || mmat_now {
                            prop_assert_eq!(r, c);
                        } else {
                            prop_assert_eq!(r.env_searches, 0);
                            prop_assert_eq!(
                                r.search_nodes_visited,
                                c.search_nodes_visited - pass * searched_nodes
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pool_exhaustion_surfaces_as_error() {
        let pool = PoolHandle::single(64);
        let mut b = EnvBuilder::<f64>::new(pool, 4);
        let root = b.add_empty(None);
        let joint = b.add_empty(Some(root));
        let err = b.add_data(joint, GlobalAddress::new2d(0, 0), Extent::new2d(64, 64), 0);
        assert!(matches!(err, Err(EnvError::Pool(_))));
    }

    #[test]
    fn error_display() {
        assert!(EnvError::UnknownBlock(3).to_string().contains("3"));
        assert!(EnvError::NotABufferBlock(1).to_string().contains("1"));
    }
}
