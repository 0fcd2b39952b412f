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
use aohpc_mem::{MultiBuffer, PageId, PoolError, PoolHandle};
use parking_lot::RwLock;
use serde::Serialize;
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
#[derive(Debug, Clone, Copy, Default, Serialize)]
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

/// The static half of a gather: where each address of a list lies relative
/// to the block the reads start from — resolved once, read any number of
/// times by [`Env::read_gather_into`].
///
/// Two resolvers make the same value: [`Env::resolve_gather`] from a list of
/// addresses, and [`Env::resolve_offsets`] from offsets applied to every cell
/// of the block (the list is then never built).
///
/// Four bytes an address, and 56 more for each one outside the block.  A
/// plan is valid only for the Env that resolved it: it holds cell indices
/// of that Env's blocks.  Indexing stays bounds-checked, so a plan read
/// against another Env panics or yields that Env's cells at the same indices;
/// it never reads outside a buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct GatherPlan {
    start: BlockId,
    /// Per address, the row-major cell index inside `start` (filler where the
    /// address is listed in `outside`).
    slots: Vec<u32>,
    /// `(position in the list, address, where its search lands)` of every
    /// address not served from `start`'s buffer, positions ascending.
    outside: Vec<(usize, GlobalAddress, Landing)>,
}

/// Where the search from a plan's `start` lands for an address the plan
/// lists outside `start`: found once, when the plan is resolved.
///
/// A search's result is geometry — kinds, extents, catch-all flags and
/// joint boxes, all fixed at [`EnvBuilder::build`] — so it is the same on
/// every later read; what the landing block holds is not, and is read then.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Landing {
    /// Not resolved: read as [`Env::read`] reads it (MMAT on at
    /// resolution, a `start` that serves nothing from its own buffer, or an
    /// address inside `start` whose index does not fit a slot).
    Unresolved,
    /// A block without cell buffers (Static, Arithmetic, Reference, Empty).
    Block(BlockId),
    /// The cell at this row-major index of a buffer-bearing block.
    Cell(BlockId, usize),
    /// No block at all: the read is missing.
    Nowhere,
}

impl GatherPlan {
    /// Number of addresses the plan was resolved from.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the plan was resolved from an empty list.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Builder for an [`Env`].
pub struct EnvBuilder<C> {
    blocks: Vec<Block<C>>,
    cells_per_page: usize,
    num_buffers: usize,
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
        EnvBuilder { blocks: Vec::new(), cells_per_page, num_buffers: 2, pool }
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
        let mb = MultiBuffer::allocate(
            extent.cells(),
            self.num_buffers,
            self.cells_per_page,
            &self.pool,
        )?;
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
        let mb = MultiBuffer::allocate(
            extent.cells(),
            self.num_buffers,
            self.cells_per_page,
            &self.pool,
        )?;
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
    /// otherwise rediscover: the first catch-all block, whether a run read
    /// may trust a holder it has already found, and the holders' hull — the
    /// bounding box of every placed value-holding block, outside which every
    /// search lands on the catch-all (see [`Env::read_run_into`]).
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
    /// See [`holders_are_unique`]; what lets a run read skip searches.
    holders_are_unique: bool,
    /// See [`holder_hull`]; what lets a run read leave the domain unsearched.
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
        self.read_noting(start, addr, in_block_hint, state, &mut None)
    }

    /// [`Env::read`], also noting in `landed` the block a tree search landed
    /// on (left alone when the read was resolved without a search, or the
    /// search found nothing).  The value comes back exactly as from `read` —
    /// cells can be kilobytes, so it is not wrapped in a pair — and the body
    /// is inlined into its two callers, so `read` itself pays nothing for
    /// the note (a per-cell neighbour sweep is millions of these calls).
    #[inline(always)]
    fn read_noting(
        &self,
        start: BlockId,
        addr: GlobalAddress,
        in_block_hint: bool,
        state: &mut AccessState,
        landed: &mut Option<BlockId>,
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
                *landed = Some(bid);
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

    /// Read the run of cells `first, first + step, first + 2·step, …` into
    /// `out` — the run form of [`Env::read`] without the in-block hint
    /// (`GetD` over a halo edge).  Missing data reads as `C::default()`.
    ///
    /// Values, missing-page records (in order) and every counter except
    /// `env_searches` / `search_nodes_visited` are exactly those of the
    /// per-cell loop.  The leading cell is resolved as [`Env::read`] resolves
    /// it, and where that took a tree search the following cells may skip
    /// theirs; the two search counters record only the searches that ran.
    /// Two shortcuts, both with MMAT off (each read would consult and update
    /// the memo):
    ///
    /// * **A holder's stretch.**  Where the search landed on a buffer-bearing
    ///   block, the following cells still inside that block are served from
    ///   it under one lock — only where the per-cell search is known to land
    ///   there too: `start` a placed value-holding block and the tree's
    ///   holders unique (checked at [`EnvBuilder::build`]).
    /// * **Past the holders' hull.**  Where the search fell through to the
    ///   catch-all, the following cells outside the bounding box of the
    ///   placed value-holding blocks (recorded at [`EnvBuilder::build`]) are
    ///   served from the catch-all, each as the per-cell path serves it after
    ///   its search.  This is exact for any tree: an address outside the hull
    ///   lies in no block a search can match, so from any start and with any
    ///   pruning the search falls through to the catch-all — provided `start`
    ///   holds values (a bounded Empty joint could claim such an address
    ///   first).  No guard is held there: a `Reference` catch-all may map
    ///   back into `start`.
    ///
    /// The cell after either stretch is resolved afresh, so a run may cross
    /// blocks, leave the domain and come back.
    pub fn read_run_into(
        &self,
        start: BlockId,
        first: GlobalAddress,
        step: LocalAddress,
        out: &mut [C],
        state: &mut AccessState,
    ) {
        let past_hull = !state.mmat_enabled && self.holds_values(start);
        let shortcut = past_hull && self.holders_are_unique && !self.blocks[start].meta.catch_all;
        let mut addr = first;
        let mut i = 0;
        while i < out.len() {
            let mut landed = None;
            out[i] = self.read_noting(start, addr, false, state, &mut landed).unwrap_or_default();
            i += 1;
            addr = addr + step;
            let fell_through = landed.filter(|&b| past_hull && Some(b) == self.first_catch_all);
            if let Some(catch_all) = fell_through {
                (i, addr) = self.read_past_hull(catch_all, i, addr, step, out, state);
                continue;
            }
            let Some(holder) = landed.filter(|_| shortcut) else { continue };
            let block = &self.blocks[holder];
            let (BlockKind::Data(buf) | BlockKind::BufferOnly(buf)) = &block.kind else { continue };
            let guard = buf.read();
            let whole = block.meta.is_valid();
            let from = i;
            // Consecutive cells of one invalid page are recorded in one go:
            // (page, cells) of the stretch being crossed.
            let mut gap: (PageId, u64) = (0, 0);
            while i < out.len() {
                let Some(idx) = block.cell_index(addr) else { break };
                let invalid = (!whole)
                    .then(|| guard.pages().page_of(idx))
                    .filter(|&page| !guard.pages().is_valid(page));
                match invalid {
                    None => out[i] = guard.read_cell(idx).clone(),
                    Some(page) => {
                        out[i] = C::default();
                        if page != gap.0 {
                            state.record_missing_n(holder, gap.0, gap.1);
                            gap = (page, 0);
                        }
                        gap.1 += 1;
                    }
                }
                i += 1;
                addr = addr + step;
            }
            state.record_missing_n(holder, gap.0, gap.1);
            state.counters.reads += (i - from) as u64;
            state.counters.out_of_block_reads += (i - from) as u64;
        }
    }

    /// The run's cells from `out[i]` (at `addr`) on that lie outside the
    /// holders' hull, each read from the `catch_all` exactly as
    /// [`Env::read_noting`] reads it once its search has landed there; the
    /// index and address of the first cell back inside the hull (or of the
    /// run's end).  Kept out of line so the run loop stays small.
    #[inline(never)]
    fn read_past_hull(
        &self,
        catch_all: BlockId,
        mut i: usize,
        mut addr: GlobalAddress,
        step: LocalAddress,
        out: &mut [C],
        state: &mut AccessState,
    ) -> (usize, GlobalAddress) {
        let outside = |a: GlobalAddress| {
            let p = [a.x, a.y, a.z];
            self.holder_hull.is_none_or(|(lo, hi)| (0..3).any(|k| p[k] < lo[k] || p[k] >= hi[k]))
        };
        while i < out.len() && outside(addr) {
            state.counters.reads += 1;
            state.counters.out_of_block_reads += 1;
            out[i] = self.read_value_at(catch_all, addr, state, 0).unwrap_or_default();
            i += 1;
            addr = addr + step;
        }
        (i, addr)
    }

    /// The static half of a gather: resolve, once, where each of `addrs` lies
    /// relative to `start`.  An address inside `start` — a placed block with
    /// cell buffers — becomes its row-major cell index there; every other
    /// address (and all of them when `start` is a catch-all or has no cell
    /// buffers) is kept as it is, with its position in the list.
    ///
    /// With MMAT off and `start` such a block, each address outside it is
    /// also searched for once, from `start`, as [`Env::read`] would search:
    /// the plan keeps the block the search lands on (and the cell index in a
    /// buffer-bearing one), and `state` counts the searches and the nodes
    /// they visit — the per-cell loop's, one read of each address.  With
    /// MMAT on nothing is searched (the memo resolves those reads), and an
    /// address inside `start` whose index does not fit a slot is not either
    /// (`Env::read` serves it without a search).
    ///
    /// Only geometry is frozen — a block's origin, extent and kind do not
    /// change once the tree is built, nor therefore where a search lands.
    /// Validity, the MMAT state and the values are read by each
    /// [`Env::read_gather_into`]; resolving reads no cell and moves no
    /// counter but the two search counters.
    pub fn resolve_gather(
        &self,
        start: BlockId,
        addrs: impl IntoIterator<Item = GlobalAddress>,
        state: &mut AccessState,
    ) -> GatherPlan {
        let block = &self.blocks[start];
        let direct = block.kind.has_buffers() && !block.meta.catch_all;
        let addrs = addrs.into_iter();
        let listed = addrs.size_hint().0;
        let mut slots = Vec::with_capacity(listed);
        // Under Assumption III the addresses that leave a block are its
        // rim's: room for a perimeter of them, so a local list never regrows.
        let extent = block.meta.extent;
        let mut outside = Vec::with_capacity(listed.min(2 * (extent.nx + extent.ny)));
        for addr in addrs {
            let inside = if direct { block.cell_index(addr) } else { None };
            let landing = match inside.map(u32::try_from) {
                Some(Ok(idx)) => {
                    slots.push(idx);
                    continue;
                }
                // An index too large for a slot is served as an outside
                // address, which `Env::read` finds in `start` unsearched.
                Some(Err(_)) => Landing::Unresolved,
                None if direct => self.land(start, addr, state),
                None => Landing::Unresolved,
            };
            outside.push((slots.len(), addr, landing));
            slots.push(u32::MAX);
        }
        GatherPlan { start, slots, outside }
    }

    /// With MMAT off, search for `addr` from `start` as [`Env::read`] does
    /// — counted in `state` — and keep where the search landed; with MMAT
    /// on, nothing (the memo resolves each read).
    fn land(&self, start: BlockId, addr: GlobalAddress, state: &mut AccessState) -> Landing {
        if state.mmat_enabled {
            return Landing::Unresolved;
        }
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

    /// [`Env::resolve_gather`] of the list "each cell of `start` in row-major
    /// order, each of `offsets` in order", without building the list.  The
    /// address listed for the cell at `at` and the offset `o` is the target
    /// `at + o` where that lies inside `start`, and `outside(at + o)` where it
    /// does not: the DSL's remap of a neighbour off the block (into a
    /// boundary row, say).
    ///
    /// A target inside `start` is its cell index by arithmetic.  A cell as far
    /// from every edge as the offsets reach has all its targets inside, so a
    /// row's interior is the first such cell's indices, each next cell's one
    /// more — no bounds test, no address.  A rim target goes through
    /// `outside`, and what that returns takes `resolve_gather`'s in-block
    /// test: the plan is the listed addresses' for any remap, one that maps
    /// back into `start` included.  Both lists are sized once: the number of
    /// targets off the block is known before the loop.
    ///
    /// A `start` that serves no cell from a buffer of its own (no cell
    /// buffers, a catch-all) lists every address as outside, as
    /// `resolve_gather` does; for one of those the list is built and handed
    /// on.  Where an address stays outside, it is searched for as
    /// `resolve_gather` searches (with MMAT off, counted in `state`).
    pub fn resolve_offsets<O>(
        &self,
        start: BlockId,
        offsets: O,
        mut outside: impl FnMut(GlobalAddress) -> GlobalAddress,
        state: &mut AccessState,
    ) -> GatherPlan
    where
        O: IntoIterator<Item = LocalAddress>,
        O::IntoIter: Clone,
    {
        let block = &self.blocks[start];
        let (origin, extent) = (block.meta.origin, block.meta.extent);
        let offsets = offsets.into_iter();
        let (cells, k) = (extent.cells(), offsets.clone().count());
        if !block.kind.has_buffers() || block.meta.catch_all || u32::try_from(cells).is_err() {
            let mut addrs = Vec::with_capacity(cells * k);
            for idx in 0..cells {
                let at = extent.delinearize(idx);
                for target in offsets.clone().map(|o| at + o) {
                    let inside = extent.contains_local(target);
                    addrs.push(if inside { origin + target } else { outside(origin + target) });
                }
            }
            return self.resolve_gather(start, addrs, state);
        }

        let (nx, ny, nz) = (extent.nx as i64, extent.ny as i64, extent.nz as i64);
        // How far the offsets reach below and above a cell, per axis.
        let reach = |axis: fn(LocalAddress) -> i64| {
            offsets.clone().fold((0, 0), |(lo, hi), o| (lo.max(-axis(o)), hi.max(axis(o))))
        };
        let (rx, ry, rz) = (reach(|o| o.dx), reach(|o| o.dy), reach(|o| o.dz));
        let interior = |c: i64, n: i64, (lo, hi): (i64, i64)| c >= lo && c < n - hi;
        // The interior columns of a row that is interior in y and z.
        let x0 = rx.0.min(nx);
        let x1 = (nx - rx.1).max(x0);
        // Per offset, the cells whose target stays inside: the rest leave.
        let stays = |n: i64, d: i64| (n - d.abs()).max(0) as usize;
        let leaving: usize = offsets
            .clone()
            .map(|o| cells - stays(nx, o.dx) * stays(ny, o.dy) * stays(nz, o.dz))
            .sum();
        let mut slots = vec![u32::MAX; cells * k];
        let mut listed = Vec::with_capacity(leaving);
        for (r, row) in extent.row_starts().enumerate() {
            let base = r * extent.nx;
            let inner_row = interior(row.dy, ny, ry) && interior(row.dz, nz, rz);
            let (a, b) = if inner_row { (x0, x1) } else { (nx, nx) };
            // The rim cells, left then right: positions stay ascending, as
            // the interior in between lists nothing outside.
            for x in (0..a).chain(b..nx) {
                let at = LocalAddress::new3d(x, row.dy, row.dz);
                let first = (base + x as usize) * k;
                for (pos, target) in (first..).zip(offsets.clone().map(|o| at + o)) {
                    if extent.contains_local(target) {
                        slots[pos] = extent.linear_index(target) as u32;
                        continue;
                    }
                    let addr = outside(origin + target);
                    match block.cell_index(addr) {
                        Some(idx) => slots[pos] = idx as u32,
                        None => listed.push((pos, addr, self.land(start, addr, state))),
                    }
                }
            }
            if a < b {
                let run = &mut slots[(base + a as usize) * k..(base + b as usize) * k];
                let first_cell = base as i64 + a;
                for (slot, o) in run.iter_mut().zip(offsets.clone()) {
                    *slot = (first_cell + o.dz * nx * ny + o.dy * nx + o.dx) as u32;
                }
                // Each cell's targets are its left neighbour's, one cell on.
                for pos in k..run.len() {
                    run[pos] = run[pos - k] + 1;
                }
            }
        }
        GatherPlan { start, slots, outside: listed }
    }

    /// Read the cells a [`GatherPlan`] names and keep `project(&cell)` of
    /// each: `out[i] = project(&cell)` for the `i`-th address the plan was
    /// resolved from, where the cell is what [`Env::read`] from the plan's
    /// `start` without the in-block hint yields (`C::default()` for missing
    /// data) — the gather form of that call, for a block whose cells name
    /// their neighbours (an unstructured grid's indirection).  Stops at the
    /// shorter of the plan and `out`.
    ///
    /// Values, missing-page records (in order), the MMAT memo and every
    /// counter except `env_searches` / `search_nodes_visited` are exactly
    /// those of the per-cell loop over the addresses — the contract
    /// [`Env::read_run_into`] has; the two search counters record only the
    /// searches that ran.  Each stretch of entries inside `start` — the
    /// common case under Assumption III — is served from its read buffer by
    /// cell index, one lock acquisition per stretch and no clone of the
    /// cell.  Every other entry is read in order: with MMAT off, where the
    /// plan recorded where its search lands (see [`Env::resolve_gather`]),
    /// by the call the per-cell path makes once its search has landed there,
    /// with no search; otherwise through [`Env::read`].  So with MMAT off on
    /// a `start` with cell buffers a gather runs no search at all, and the
    /// resolution ran the per-cell loop's searches once.  With MMAT on (each
    /// read consults and updates the memo) it is the per-cell loop, the
    /// in-block addresses rebuilt from their indices, every counter equal.
    ///
    /// `start`'s lock is never held across a read of another entry: a
    /// `Reference` block may map an outside address back into `start`, and a
    /// second read acquisition behind a queued writer deadlocks.
    pub fn read_gather_into<T>(
        &self,
        plan: &GatherPlan,
        project: impl Fn(&C) -> T,
        out: &mut [T],
        state: &mut AccessState,
    ) {
        let start = plan.start;
        let block = &self.blocks[start];
        let len = plan.slots.len().min(out.len());
        // The buffers in-block entries may be served from, if any.
        let direct = match &block.kind {
            BlockKind::Data(buf) | BlockKind::BufferOnly(buf) if !state.mmat_enabled => Some(buf),
            _ => None,
        };
        let mut outside = plan.outside.iter().take_while(|(at, ..)| *at < len);
        let mut from = 0;
        loop {
            let next = outside.next();
            // The stretch of in-block entries before the next outside one.
            let to = next.map_or(len, |(at, ..)| *at);
            let stretch = out[from..to].iter_mut().zip(&plan.slots[from..to]);
            match direct {
                Some(buf) if from < to => {
                    let guard = buf.read();
                    let cells = guard.read_buf();
                    if block.meta.is_valid() {
                        for (slot, &idx) in stretch {
                            *slot = project(&cells[idx as usize]);
                        }
                    } else {
                        let pages = guard.pages();
                        for (slot, &idx) in stretch {
                            let page = pages.page_of(idx as usize);
                            *slot = if pages.is_valid(page) {
                                project(&cells[idx as usize])
                            } else {
                                state.record_missing(start, page);
                                project(&C::default())
                            };
                        }
                    }
                    drop(guard);
                    state.counters.reads += (to - from) as u64;
                    state.counters.in_block_hits += (to - from) as u64;
                }
                // The per-cell loop (and nothing for an empty stretch).
                _ => {
                    for (slot, &idx) in stretch {
                        let addr = block.to_global(block.meta.extent.delinearize(idx as usize));
                        *slot = project(&self.read_unhinted(start, addr, state));
                    }
                }
            }
            let Some(&(at, addr, landing)) = next else { break };
            out[at] = project(&match direct {
                Some(_) => self.read_landed(start, addr, landing, state),
                None => self.read_unhinted(start, addr, state),
            });
            from = at + 1;
        }
    }

    /// One per-cell read on behalf of [`Env::read_gather_into`], kept out of
    /// line so the gather's in-block loop stays small.
    #[inline(never)]
    fn read_unhinted(&self, start: BlockId, addr: GlobalAddress, state: &mut AccessState) -> C {
        self.read(start, addr, false, state).unwrap_or_default()
    }

    /// An outside entry of a plan on behalf of [`Env::read_gather_into`],
    /// with MMAT off: read exactly as [`Env::read_noting`] reads it once its
    /// search from `start` has landed where `landing` says, without the
    /// search (an unresolved entry is read as `Env::read` reads it).  Out of
    /// line, and no guard of `start` is held: a `Reference` may map back
    /// into `start`.
    #[inline(never)]
    fn read_landed(
        &self,
        start: BlockId,
        addr: GlobalAddress,
        landing: Landing,
        state: &mut AccessState,
    ) -> C {
        let value = match landing {
            Landing::Unresolved => return self.read_unhinted(start, addr, state),
            Landing::Nowhere => {
                state.counters.missing_accesses += 1;
                None
            }
            Landing::Block(bid) => {
                state.counters.out_of_block_reads += 1;
                self.read_value_at(bid, addr, state, 0)
            }
            Landing::Cell(bid, idx) => {
                state.counters.out_of_block_reads += 1;
                self.read_buffered_cell(bid, idx, addr, state)
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
    // nothing.

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

    /// Read every cell of `start` into `out` — the slab form of
    /// [`Env::read_local`] with the in-block hint (`GetDD`).  Cells of an
    /// invalid page read as `C::default()` and are recorded missing, one
    /// record per cell, as the per-cell path does.
    pub fn read_block_into(&self, start: BlockId, out: &mut [C], state: &mut AccessState) -> bool {
        let Some(buf) = self.slab_buffers(start, out.len()) else { return false };
        state.counters.reads += out.len() as u64;
        state.counters.skip_search_hits += out.len() as u64;
        let guard = buf.read();
        if self.blocks[start].meta.is_valid() {
            out.clone_from_slice(guard.read_buf());
            return true;
        }
        let pages = guard.pages();
        for page in 0..pages.num_pages() {
            let range = pages.cell_range(page);
            if pages.is_valid(page) {
                out[range.clone()].clone_from_slice(&guard.read_buf()[range]);
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

        /// One buffer-bearing block of `extent` under a joint, plus a
        /// catch-all Arithmetic boundary (a block without cell buffers).
        fn one_block_env(extent: Extent, cpp: usize, buffer_only: bool) -> (Env<u64>, BlockId) {
            let mut b = EnvBuilder::<u64>::new(PoolHandle::unbounded(), cpp);
            let root = b.add_empty(None);
            b.add_arithmetic(root, Arc::new(|_| 0), true);
            let joint = b.add_empty(Some(root));
            let origin = GlobalAddress::new3d(3, -2, 1);
            let id = if buffer_only {
                b.add_buffer_only(joint, origin, extent, 0).unwrap()
            } else {
                b.add_data(joint, origin, extent, 0).unwrap()
            };
            (b.build(), id)
        }

        /// Both buffers and the page flags of a block.
        fn snapshot(env: &Env<u64>, id: BlockId) -> (Vec<u64>, Vec<u64>, PageTable) {
            match &env.block(id).kind {
                BlockKind::Data(buf) | BlockKind::BufferOnly(buf) => {
                    let mut g = buf.write();
                    (g.read_buf().to_vec(), g.write_buf().to_vec(), g.pages().clone())
                }
                _ => unreachable!("buffer-bearing block"),
            }
        }

        proptest! {
            /// The slab calls and the per-cell loops they replace leave the
            /// same values, counters, missing-page list (in order) and page
            /// flags — on Data and Buffer-only blocks, wholly valid or with
            /// an arbitrary subset of pages invalid.
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
            ) {
                let extent = Extent::new3d(nx, ny, nz);
                let n = extent.cells();
                let initial: Vec<u64> = (0..n as u64).map(|i| seed.wrapping_add(i * 7919)).collect();
                let next: Vec<u64> = initial.iter().map(|v| v.rotate_left(17) ^ 0x5bd1).collect();
                let (slab, a) = one_block_env(extent, cpp, buffer_only);
                let (cellwise, b) = one_block_env(extent, cpp, buffer_only);
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

        #[test]
        fn wrong_length_and_non_buffer_blocks_are_refused_untouched() {
            let extent = Extent::new2d(4, 3);
            let (env, id) = one_block_env(extent, 5, false);
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
        pub(super) fn tiled_env(
            cpp: usize,
            quadtree: bool,
            reference: bool,
            overlap: bool,
        ) -> Env<u64> {
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

        pub(super) fn searches_aside(k: AccessCounters) -> AccessCounters {
            AccessCounters { env_searches: 0, search_nodes_visited: 0, ..k }
        }

        /// One run read on `run` and the per-cell loop it replaces on
        /// `cellwise`: the values and the missing-page records, in order,
        /// must agree, and so must every counter but the two search counters.
        fn run_beside_cells(
            env: &Env<u64>,
            start: BlockId,
            (first, step, len): (GlobalAddress, LocalAddress, usize),
            (run, cellwise): (&mut AccessState, &mut AccessState),
        ) {
            let mut got = vec![u64::MAX; len];
            env.read_run_into(start, first, step, &mut got, run);
            let mut addr = first;
            let mut want = Vec::with_capacity(len);
            for _ in 0..len {
                want.push(env.read(start, addr, false, cellwise).unwrap_or_default());
                addr = addr + step;
            }
            assert_eq!(got, want);
            assert_eq!(run.missing(), cellwise.missing());
            assert_eq!(searches_aside(run.counters), searches_aside(cellwise.counters));
        }

        /// The most searches a run read from `start` may run on a tiled Env
        /// without the overlapping block: one a maximal stretch of cells
        /// that share a buffer-bearing holder or lie outside the holders'
        /// hull, one for any other cell (a Static cell is searched for each
        /// time), none for a cell of `start`.  The tiles and the strip fill
        /// their hull, so a cell in no holder is outside it.
        fn stretches(
            env: &Env<u64>,
            start: BlockId,
            first: GlobalAddress,
            step: LocalAddress,
            len: usize,
        ) -> u64 {
            let (mut addr, mut count, mut prev) = (first, 0, None);
            for _ in 0..len {
                let holder =
                    env.blocks().find(|b| !b.meta.catch_all && holds_values(b) && b.contains(addr));
                // The stretch the cell may share with the one before: a
                // buffer-bearing holder's, `Some(Some(id))`, or the
                // outside's, `Some(None)`.
                let stretch = match holder {
                    Some(b) if b.kind.has_buffers() => Some(Some(b.meta.id)),
                    Some(_) => None,
                    None => Some(None),
                };
                let in_start = holder.is_some_and(|b| b.meta.id == start);
                if !in_start && (stretch.is_none() || stretch != prev) {
                    count += 1;
                }
                prev = stretch;
                addr = addr + step;
            }
            count
        }

        #[test]
        fn a_run_along_a_neighbour_searches_once() {
            let env = tiled_env(4, false, false, false);
            let start = env.data_block_ids()[4];
            let (mut run, mut cellwise) = (AccessState::new(), AccessState::new());
            let mut out = [0u64; 4];
            // The row above the centre tile: four cells of the tile to its north.
            env.read_run_into(
                start,
                GlobalAddress::new2d(4, 2),
                LocalAddress::new2d(1, 0),
                &mut out,
                &mut run,
            );
            for (k, got) in out.iter().enumerate() {
                let want =
                    env.read(start, GlobalAddress::new2d(4 + k as i64, 2), false, &mut cellwise);
                assert_eq!(Some(*got), want);
            }
            assert_eq!((run.counters.env_searches, cellwise.counters.env_searches), (1, 4));
            assert_eq!(
                run.counters.search_nodes_visited * 4,
                cellwise.counters.search_nodes_visited
            );
            assert_eq!(run.counters.out_of_block_reads, 4);
        }

        #[test]
        fn a_joint_narrower_than_its_block_disables_the_shortcut() {
            // The joint's box covers only the left half of the block below
            // it, so a search for the right half is pruned and lands on the
            // boundary: the holder found for one cell says nothing about the
            // next, and the run read must search cell by cell.
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
            for x in 0..8 {
                env.write_initial(wide, LocalAddress::new2d(x, 0), 100 + x as u64);
            }
            let (mut run, mut cellwise) = (AccessState::new(), AccessState::new());
            let mut got = [0u64; 8];
            let (first, step) = (GlobalAddress::new2d(0, 0), LocalAddress::new2d(1, 0));
            env.read_run_into(start, first, step, &mut got, &mut run);
            let want: Vec<u64> = (0..8)
                .map(|x| env.read(start, GlobalAddress::new2d(x, 0), false, &mut cellwise).unwrap())
                .collect();
            assert_eq!(want, [100, 101, 102, 103, 7, 7, 7, 7]);
            assert_eq!(got[..], want[..]);
            assert_eq!(run.counters, cellwise.counters);

            // Past the hull, [0, 8) × [0, 2), the pruning cannot matter: four
            // cells more, none searched for, as the last cell inside already
            // fell through to the catch-all.
            assert_eq!(env.holder_hull, Some(([0, 0, 0], [8, 2, 1])));
            let (mut run, mut cellwise) = (AccessState::new(), AccessState::new());
            run_beside_cells(&env, start, (first, step, 12), (&mut run, &mut cellwise));
            assert_eq!((run.counters.env_searches, cellwise.counters.env_searches), (8, 12));
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
                            let (mut run, mut cellwise) = (AccessState::new(), AccessState::new());
                            run_beside_cells(&env, start, at, (&mut run, &mut cellwise));
                            let searches =
                                (run.counters.env_searches, cellwise.counters.env_searches);
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
        /// missing.
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
                        let (mut run, mut cellwise) = (AccessState::new(), AccessState::new());
                        run_beside_cells(&env, start, at, (&mut run, &mut cellwise));
                        assert_eq!(
                            (run.counters.env_searches, cellwise.counters.env_searches),
                            (3, 6),
                            "quadtree {quadtree}, reference {reference}, pages {installed:b}"
                        );
                        assert_eq!(cellwise.has_missing(), installed != u64::MAX);
                    }
                }
            }
        }

        /// With MMAT on every read consults the memo, so the run read is the
        /// per-cell loop, searches included: on the pass that fills the memo
        /// and on the one that replays it.
        #[test]
        fn with_mmat_a_run_past_the_hull_searches_as_the_per_cell_loop() {
            for reference in [false, true] {
                let env = tiled_env(4, false, reference, false);
                let start = env.data_block_ids()[0];
                let at = (GlobalAddress::new2d(-1, -1), LocalAddress::new2d(1, 0), 17);
                let (mut run, mut cellwise) = (AccessState::with_mmat(), AccessState::with_mmat());
                for _ in 0..2 {
                    run_beside_cells(&env, start, at, (&mut run, &mut cellwise));
                    assert_eq!(run.counters, cellwise.counters);
                    assert_eq!(run.mmat.len(), cellwise.mmat.len());
                }
                assert_eq!(run.counters.env_searches, 17, "the second pass is all hits");
            }
        }

        /// The lock rule past the hull: no guard is held while the catch-all
        /// is read.  The Reference catch-all maps every outside cell into
        /// `start`; at the run's second cell it lets a writer at `start` and
        /// waits for it to finish.  Had the run kept a guard on `start`, the
        /// writer would stay queued and the read of `start` that follows
        /// would block behind it for good (std's `RwLock` prefers writers).
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
                    release_rx.recv().expect("the run reaches its second cell");
                    let BlockKind::Data(buf) = &env.block(start).kind else { unreachable!() };
                    drop(buf.write());
                    written.store(true, SeqCst);
                })
            };
            let (done_tx, done_rx) = mpsc::channel();
            let reader = std::thread::spawn(move || {
                // The row above `start`, corners included: all past the hull.
                let (mut out, mut st) = ([0u64; 6], AccessState::new());
                let (first, step) = (GlobalAddress::new2d(-1, -1), LocalAddress::new2d(1, 0));
                env.read_run_into(start, first, step, &mut out, &mut st);
                let counters = (st.counters.reference_reads, st.counters.env_searches);
                done_tx.send((out, counters)).expect("the test is waiting");
            });
            let got = done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("the run must not deadlock against a queued writer");
            assert_eq!(got, ([10, 10, 11, 12, 13, 13], (6, 1)));
            writer.join().unwrap();
            reader.join().unwrap();
        }

        proptest! {
            /// A run read and the per-cell loop it replaces: same values,
            /// same missing-page list in the same order, every counter equal
            /// except the two search counters, which count the searches that
            /// ran — never more than the loop's, exactly the loop's with MMAT
            /// on, and without the overlapping block at most one a stretch
            /// (see [`stretches`]).
            #[test]
            fn run_reads_equal_the_per_cell_loop(
                cpp in 1usize..8,
                quadtree in any::<bool>(),
                reference in any::<bool>(),
                overlap_sel in 0usize..4,
                mmat in any::<bool>(),
                start_sel in 0usize..9,
                x in -3i64..17,
                y in -3i64..12,
                step_sel in 0usize..6,
                len in 1usize..28,
                invalid_block in 0usize..9,
                invalid_mask in any::<u64>(),
            ) {
                let overlap = overlap_sel == 0;
                let env = tiled_env(cpp, quadtree, reference, overlap);
                let data = env.data_block_ids();
                // One tile loses some of its pages (a remote block mid-refresh).
                let victim = data[invalid_block];
                env.set_block_valid(victim, false).unwrap();
                for page in 0..env.num_pages(victim).unwrap() {
                    if invalid_mask >> (page % 64) & 1 == 0 {
                        let payload = env.extract_page(victim, page).unwrap();
                        env.install_page(victim, page, &payload).unwrap();
                    }
                }
                let start = data[start_sel];
                let first = GlobalAddress::new2d(x, y);
                let step = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (2, -1)][step_sel];
                let step = LocalAddress::new2d(step.0, step.1);
                let fresh = || if mmat { AccessState::with_mmat() } else { AccessState::new() };
                let (mut run, mut cellwise) = (fresh(), fresh());

                // Twice, so the second pass replays whatever MMAT memorised.
                for _ in 0..2 {
                    let mut got = vec![u64::MAX; len];
                    env.read_run_into(start, first, step, &mut got, &mut run);
                    let mut addr = first;
                    let mut want = Vec::with_capacity(len);
                    for _ in 0..len {
                        want.push(env.read(start, addr, false, &mut cellwise).unwrap_or_default());
                        addr = addr + step;
                    }
                    prop_assert_eq!(got, want);
                }
                prop_assert_eq!(run.missing(), cellwise.missing());
                prop_assert_eq!(run.mmat.len(), cellwise.mmat.len());
                let (r, c) = (run.counters, cellwise.counters);
                prop_assert!(r.env_searches <= c.env_searches);
                prop_assert!(r.search_nodes_visited <= c.search_nodes_visited);
                if mmat {
                    prop_assert_eq!(r, c);
                } else if !overlap {
                    prop_assert!(r.env_searches <= 2 * stretches(&env, start, first, step, len));
                }
                prop_assert_eq!(searches_aside(r), searches_aside(c));
            }
        }
    }

    mod gather_properties {
        use super::run_properties::{searches_aside, tiled_env};
        use super::*;
        use proptest::prelude::*;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;
        use std::time::{Duration, Instant};

        /// What the tests keep of a cell: not the identity, so a projection
        /// skipped or applied to the wrong cell shows.
        fn project(cell: &u64) -> u64 {
            cell.wrapping_mul(3) ^ 0x55
        }

        /// The two search counters of `k`, every other counter 0.
        fn searches_only(k: AccessCounters) -> AccessCounters {
            let (env_searches, search_nodes_visited) = (k.env_searches, k.search_nodes_visited);
            AccessCounters { env_searches, search_nodes_visited, ..AccessCounters::default() }
        }

        /// One read of `plan` and the per-cell loop over the `addrs` it was
        /// resolved from, each on its own state: the values of both.
        fn read_both_ways(
            env: &Env<u64>,
            plan: &GatherPlan,
            addrs: &[GlobalAddress],
            (gather, cellwise): (&mut AccessState, &mut AccessState),
        ) -> (Vec<u64>, Vec<u64>) {
            let mut got = vec![u64::MAX; addrs.len()];
            env.read_gather_into(plan, project, &mut got, gather);
            let read = |&a| project(&env.read(plan.start, a, false, cellwise).unwrap_or_default());
            (got, addrs.iter().map(read).collect())
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
            /// A gather and the per-cell loop it replaces: same values, the
            /// same `AccessCounters` field for field but the two search
            /// counters, the same missing-page list in the same order and
            /// the same MMAT memo — whatever the address list (inside
            /// `start`, in a neighbour, in the Static strip, outside the
            /// domain, repeated) and whatever `start` is (Data, Buffer-only,
            /// or a block without cell buffers).  The plan is resolved once;
            /// between its two rounds of reads everything it must not have
            /// frozen changes, the victims turn Buffer-only among them.
            ///
            /// The searches: with MMAT on every counter is the loop's.  With
            /// MMAT off, resolving on a `start` with cell buffers runs the
            /// searches of one pass of the loop and moves no other counter,
            /// and every gather through that plan runs none; anywhere else
            /// resolving runs none and a gather runs the loop's.
            #[test]
            fn gather_reads_equal_the_per_cell_loop(
                cpp in 1usize..8,
                quadtree in any::<bool>(),
                reference in any::<bool>(),
                overlap_sel in 0usize..4,
                mmat in any::<bool>(),
                start_sel in 0usize..40,
                buffer_only in any::<bool>(),
                start_invalid in any::<bool>(),
                victims in (0usize..9, 0usize..9),
                victims_buffer_only in any::<bool>(),
                invalid_mask in any::<u64>(),
                picks in proptest::collection::vec((0usize..8, -3i64..17, -3i64..12), 0..48),
            ) {
                let mut env = tiled_env(cpp, quadtree, reference, overlap_sel == 0);
                let data = env.data_block_ids();
                // Three starts in four are data tiles; the rest range over
                // the whole arena (joints, the Static strip, the catch-all).
                let start = if start_sel < 30 {
                    data[start_sel % data.len()]
                } else {
                    start_sel % env.len()
                };
                if buffer_only && env.block(start).is_data() {
                    env.demote_to_buffer_only(start).unwrap();
                }
                // Remote blocks mid-refresh: two tiles, and maybe `start`.
                invalidate_pages(&env, data[victims.0], invalid_mask);
                invalidate_pages(&env, data[victims.1], invalid_mask.rotate_left(7));
                if env.block(start).kind.has_buffers() {
                    if start_invalid {
                        invalidate_pages(&env, start, invalid_mask.rotate_left(13));
                    } else if !env.block(start).is_data() {
                        env.set_block_valid(start, true).unwrap();
                    }
                }
                let meta = &env.block(start).meta;
                let (origin, ext) = (meta.origin, meta.extent);
                let mut addrs: Vec<GlobalAddress> = Vec::with_capacity(picks.len());
                for (kind, x, y) in picks {
                    addrs.push(match (kind, addrs.last()) {
                        // Inside `start` (where it has cells) ...
                        (0..=3, _) if ext.cells() > 0 => {
                            let dx = x.rem_euclid(ext.nx as i64);
                            origin + LocalAddress::new2d(dx, y.rem_euclid(ext.ny as i64))
                        }
                        // ... the address just read, again ...
                        (4, Some(&last)) => last,
                        // ... or anywhere in and around the domain.
                        _ => GlobalAddress::new2d(x, y),
                    });
                }
                let state = |mmat| if mmat { AccessState::with_mmat() } else { AccessState::new() };
                let mut resolution = state(mmat);
                let plan = env.resolve_gather(start, addrs.iter().copied(), &mut resolution);
                prop_assert_eq!((plan.len(), plan.is_empty()), (addrs.len(), addrs.is_empty()));
                let block = env.block(start);
                let resolved = !mmat && block.kind.has_buffers() && !block.meta.catch_all;
                prop_assert_eq!(searches_aside(resolution.counters), AccessCounters::default());
                if !resolved {
                    prop_assert_eq!(resolution.counters, AccessCounters::default());
                }

                for round in 0..2 {
                    if round == 1 {
                        // Pages arrive and go stale — the victims' and
                        // `start`'s own — holders may turn Buffer-only, and
                        // the next state has MMAT the other way round.
                        env.set_block_valid(data[victims.0], true).unwrap();
                        invalidate_pages(&env, data[victims.1], !invalid_mask);
                        if env.block(start).kind.has_buffers() {
                            if start_invalid {
                                env.set_block_valid(start, true).unwrap();
                            } else {
                                invalidate_pages(&env, start, invalid_mask.rotate_left(29));
                            }
                        }
                        for victim in [victims.0, victims.1] {
                            if victims_buffer_only && env.block(data[victim]).is_data() {
                                env.demote_to_buffer_only(data[victim]).unwrap();
                                invalidate_pages(&env, data[victim], invalid_mask.rotate_left(3));
                            }
                        }
                    }
                    let mmat_now = mmat ^ (round == 1);
                    let (mut gather, mut cellwise) = (state(mmat_now), state(mmat_now));
                    // Twice, so the second pass replays whatever MMAT memorised.
                    for pass in 0..2 {
                        let (got, want) =
                            read_both_ways(&env, &plan, &addrs, (&mut gather, &mut cellwise));
                        let (g, c) = (gather.counters, cellwise.counters);
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(searches_aside(g), searches_aside(c));
                        prop_assert_eq!(gather.missing(), cellwise.missing());
                        prop_assert_eq!(gather.mmat.len(), cellwise.mmat.len());
                        if resolved && !mmat_now {
                            // The loop searched on each of `passes` passes,
                            // the resolution once and the gathers never.  (A
                            // Reference's own walk from its target, after the
                            // search, is the gathers' nodes, as the loop's.)
                            let (r, passes) = (resolution.counters, pass as u64 + 1);
                            prop_assert_eq!(g.env_searches, 0);
                            prop_assert_eq!(
                                (r.env_searches * passes, r.search_nodes_visited * passes),
                                (c.env_searches, c.search_nodes_visited - g.search_nodes_visited)
                            );
                        } else {
                            prop_assert_eq!(g, c);
                        }
                    }
                }
            }
        }

        #[test]
        fn a_gather_stops_at_the_shorter_of_addresses_and_slots() {
            let env = tiled_env(4, false, false, false);
            let start = env.data_block_ids()[4];
            let origin = env.block(start).meta.origin;
            let mut st = AccessState::new();
            let plan =
                env.resolve_gather(start, [origin, origin + LocalAddress::new2d(1, 0)], &mut st);
            let mut out = [u64::MAX; 3];
            env.read_gather_into(&plan, project, &mut out, &mut st);
            assert_ne!(out[1], u64::MAX);
            assert_eq!(out[2], u64::MAX, "no address, slot untouched");
            env.read_gather_into(&plan, project, &mut out[..1], &mut st);
            assert_eq!(st.counters.reads, 3, "no slot, address not read");
            assert_eq!(st.counters.in_block_hits, 3);
        }

        /// A `start` with no cell buffers to index — the Static strip, a
        /// joint, the catch-all — leaves every entry of its plan an outside
        /// address, even those the block contains, and reading the plan is
        /// the per-cell loop.
        #[test]
        fn a_plan_against_a_start_without_buffers_is_the_per_cell_loop() {
            let env = tiled_env(4, true, false, false);
            let bufferless: Vec<BlockId> =
                env.blocks().filter(|b| !b.kind.has_buffers()).map(|b| b.meta.id).collect();
            let kinds: Vec<&str> = bufferless.iter().map(|&id| env.block(id).kind_name()).collect();
            for kind in ["static", "empty", "arithmetic"] {
                assert!(kinds.contains(&kind), "{kinds:?}");
            }
            // In the domain, in the Static strip, outside both; one repeated.
            let addrs: Vec<GlobalAddress> = [(5, 4), (12, 3), (13, 8), (-2, 20), (12, 3), (0, 0)]
                .map(|(x, y)| GlobalAddress::new2d(x, y))
                .to_vec();
            for start in bufferless {
                let mut resolution = AccessState::new();
                let plan = env.resolve_gather(start, addrs.iter().copied(), &mut resolution);
                let listed: Vec<GlobalAddress> = plan.outside.iter().map(|(_, a, _)| *a).collect();
                assert_eq!(listed, addrs, "start {start}: every entry is outside");
                assert!(plan.outside.iter().all(|(.., landing)| *landing == Landing::Unresolved));
                assert_eq!(resolution.counters, AccessCounters::default(), "start {start}");
                for mmat in [false, true] {
                    let fresh = || if mmat { AccessState::with_mmat() } else { AccessState::new() };
                    let (mut gather, mut cellwise) = (fresh(), fresh());
                    // (A bounded joint "contains" addresses it has no cells
                    // for: those read as missing, both ways.)
                    for _ in 0..2 {
                        let (got, want) =
                            read_both_ways(&env, &plan, &addrs, (&mut gather, &mut cellwise));
                        assert_eq!(got, want, "start {start}");
                        assert_eq!(gather.counters, cellwise.counters, "start {start}");
                        assert_eq!(gather.mmat.len(), cellwise.mmat.len(), "start {start}");
                    }
                }
            }
        }

        /// The lock rule: `start`'s lock is not held across the read of an
        /// outside entry.  A Reference boundary maps the second address back
        /// into `start`, so that read locks `start` again; had the gather
        /// kept its guard, a writer queued in between would block the second
        /// acquisition for good (std's `RwLock` prefers writers).  MMAT is
        /// off, so the entry goes the resolved way: the search ran once, at
        /// resolution, and the gather reads the Reference it landed on.
        #[test]
        fn a_gather_through_a_reference_into_start_yields_to_a_waiting_writer() {
            let mut b = EnvBuilder::<u64>::new(PoolHandle::unbounded(), 4);
            let root = b.add_empty(None);
            let joint = b.add_empty(Some(root));
            let start =
                b.add_data(joint, GlobalAddress::new2d(0, 0), Extent::new2d(4, 4), 0).unwrap();
            let mirror = |a: GlobalAddress| GlobalAddress::new2d(a.x.clamp(0, 3), a.y.clamp(0, 3));
            b.add_reference(root, start, Arc::new(mirror), true);
            let env = Arc::new(b.build());
            env.write_initial(start, LocalAddress::new2d(1, 1), 11);
            env.write_initial(start, LocalAddress::new2d(0, 2), 2);

            let (holding_tx, holding_rx) = mpsc::channel();
            let (done_tx, done_rx) = mpsc::channel();
            let writer = {
                let env = env.clone();
                std::thread::spawn(move || {
                    holding_rx.recv().expect("the gather reaches its first cell");
                    let BlockKind::Data(buf) = &env.block(start).kind else { unreachable!() };
                    drop(buf.write());
                })
            };
            let reader = std::thread::spawn(move || {
                let BlockKind::Data(buf) = &env.block(start).kind else { unreachable!() };
                let first = AtomicBool::new(true);
                // Runs under the gather's guard: release the writer, then
                // hold on until it is queued (a queued writer turns further
                // readers away), a few seconds at most.
                let project_when_contended = |cell: &u64| {
                    if first.swap(false, Ordering::Relaxed) {
                        holding_tx.send(()).expect("the writer is waiting for this");
                        let deadline = Instant::now() + Duration::from_secs(5);
                        while buf.try_read().is_some() && Instant::now() < deadline {
                            std::thread::yield_now();
                        }
                    }
                    *cell
                };
                let addrs = [GlobalAddress::new2d(1, 1), GlobalAddress::new2d(-1, 2)];
                let mut st = AccessState::new();
                let plan = env.resolve_gather(start, addrs, &mut st);
                let resolved = st.counters.env_searches;
                let mut out = [0u64; 2];
                env.read_gather_into(&plan, project_when_contended, &mut out, &mut st);
                let counters = (resolved, st.counters.env_searches, st.counters.reference_reads);
                done_tx.send((out, counters)).expect("the test is waiting");
            });
            let (out, counters) = done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("the gather must not deadlock against a queued writer");
            assert_eq!((out, counters), ([11, 2], (1, 1, 1)), "one search, at resolution");
            writer.join().unwrap();
            reader.join().unwrap();
        }

        /// Where holders are not unique — a bounded joint narrower than the
        /// block below it prunes the search for that block's right half,
        /// which falls through to the boundary — a resolved entry is what
        /// `find_block` from `start` returns, not the block that holds the
        /// address, and the gather reads what the per-cell loop reads.
        #[test]
        fn a_resolved_entry_is_where_the_search_lands_where_holders_are_not_unique() {
            let mut b = EnvBuilder::<u64>::new(PoolHandle::unbounded(), 4);
            let root = b.add_empty(None);
            let boundary = b.add_arithmetic(root, Arc::new(|_| 7), true);
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
            let addrs: Vec<GlobalAddress> = (0..8).map(|x| GlobalAddress::new2d(x, 0)).collect();
            let mut resolution = AccessState::new();
            let plan = env.resolve_gather(start, addrs.iter().copied(), &mut resolution);
            let landed: Vec<Option<BlockId>> = plan
                .outside
                .iter()
                .map(|(.., landing)| match *landing {
                    Landing::Cell(bid, _) | Landing::Block(bid) => Some(bid),
                    Landing::Nowhere | Landing::Unresolved => None,
                })
                .collect();
            let found: Vec<_> = addrs.iter().map(|&a| env.find_block(a, start).0).collect();
            let (w, o) = (Some(wide), Some(boundary));
            assert_eq!(landed, [w, w, w, w, o, o, o, o]);
            assert_eq!(landed, found);
            let (mut gather, mut cellwise) = (AccessState::new(), AccessState::new());
            let (got, want) = read_both_ways(&env, &plan, &addrs, (&mut gather, &mut cellwise));
            assert_eq!(got, want);
            assert_eq!(want, [100, 101, 102, 103, 7, 7, 7, 7].map(|v| project(&v)));
            assert_eq!(gather.counters.env_searches, 0);
            assert_eq!(resolution.counters, searches_only(cellwise.counters));
            assert_eq!(searches_aside(gather.counters), searches_aside(cellwise.counters));
        }

        /// An address inside `start` whose cell index does not fit a `u32`
        /// slot is listed as outside, but the per-cell path serves it from
        /// `start` without a search: the plan leaves it unresolved and the
        /// gather reads it as `Env::read` does.  (Zero-sized cells: a block
        /// of 2^33 of them costs no memory.)
        #[test]
        fn an_address_outside_only_by_its_index_width_is_read_unresolved() {
            let mut b = EnvBuilder::<()>::new(PoolHandle::unbounded(), 1 << 31);
            let root = b.add_empty(None);
            let joint = b.add_empty(Some(root));
            let huge = Extent::new3d(1 << 16, 1 << 16, 2);
            let start = b.add_data(joint, GlobalAddress::new2d(0, 0), huge, 0).unwrap();
            let boundary = b.add_arithmetic(root, Arc::new(|_| ()), true);
            let env = b.build();
            let deep = GlobalAddress::new3d(3, 0, 1);
            assert!(env.block(start).cell_index(deep).unwrap() > u32::MAX as usize);
            let addrs = [GlobalAddress::new2d(1, 0), deep, GlobalAddress::new2d(-1, 0)];
            let mut resolution = AccessState::new();
            let plan = env.resolve_gather(start, addrs, &mut resolution);
            let outside: Vec<_> =
                plan.outside.iter().map(|&(at, _, landing)| (at, landing)).collect();
            assert_eq!(outside, [(1, Landing::Unresolved), (2, Landing::Block(boundary))]);
            let (mut gather, mut cellwise) = (AccessState::new(), AccessState::new());
            let mut out = [(); 3];
            env.read_gather_into(&plan, |c| *c, &mut out, &mut gather);
            for addr in addrs {
                env.read(start, addr, false, &mut cellwise);
            }
            assert_eq!((gather.counters.in_block_hits, gather.counters.env_searches), (2, 0));
            assert_eq!(resolution.counters, searches_only(cellwise.counters));
            assert_eq!(searches_aside(gather.counters), searches_aside(cellwise.counters));
        }
    }

    mod offsets_properties {
        use super::*;
        use proptest::prelude::*;

        fn value_at(a: GlobalAddress) -> u64 {
            (a.x * 1_000 + a.y * 10 + a.z) as u64 ^ 0x5a5a
        }

        /// A tile of `extent` at `origin`, a second tile to its right, a
        /// Static strip below both and a catch-all Arithmetic boundary: the
        /// ids of the tile, the strip and the catch-all.
        fn env_around(
            extent: Extent,
            origin: GlobalAddress,
            cpp: usize,
        ) -> (Env<u64>, [BlockId; 3]) {
            let mut b = EnvBuilder::<u64>::new(PoolHandle::unbounded(), cpp);
            let root = b.add_empty(None);
            let joint = b.add_empty(Some(root));
            let tile = b.add_data(joint, origin, extent, 0).unwrap();
            let right = origin + LocalAddress::new2d(extent.nx as i64, 0);
            let next = b.add_data(joint, right, extent, 1).unwrap();
            let strip_at = origin + LocalAddress::new2d(0, extent.ny as i64);
            let strip = Extent::new2d(2 * extent.nx, 2);
            let cells = (0..strip.cells()).map(|i| value_at(strip_at + strip.delinearize(i)) + 1);
            let strip = b.add_static(root, strip_at, strip, cells.collect());
            let catch_all = b.add_arithmetic(root, Arc::new(|a| value_at(a) + 2), true);
            let env = b.build();
            for id in [tile, next] {
                let block = env.block(id);
                for idx in 0..block.meta.extent.cells() {
                    let la = block.meta.extent.delinearize(idx);
                    env.write_initial(id, la, value_at(block.to_global(la)));
                }
            }
            (env, [tile, strip, catch_all])
        }

        /// The list `resolve_offsets` stands for, built as written.
        fn listed(
            env: &Env<u64>,
            start: BlockId,
            offsets: &[LocalAddress],
            outside: impl Fn(GlobalAddress) -> GlobalAddress,
        ) -> Vec<GlobalAddress> {
            let meta = &env.block(start).meta;
            let mut addrs = Vec::new();
            for idx in 0..meta.extent.cells() {
                let at = meta.origin + meta.extent.delinearize(idx);
                for &o in offsets {
                    let target = at + o;
                    let inside = meta.extent.contains_local(target - meta.origin);
                    addrs.push(if inside { target } else { outside(target) });
                }
            }
            addrs
        }

        proptest! {
            /// The offset resolver and the list resolver make the same plan —
            /// on a ragged tile (Data or Buffer-only), a Static strip and the
            /// catch-all, for offsets of reach ≤ 3 and a remap that sends
            /// some rim targets back into the tile, some to the strip, some
            /// nowhere — and reading through either gives the same values,
            /// counters, missing-page order and memo, with MMAT off and on.
            #[test]
            fn offset_plans_equal_listed_plans(
                nx in 1usize..10,
                ny in 1usize..10,
                nz in 1usize..3,
                ox in -5i64..6,
                oy in -5i64..6,
                cpp in 1usize..8,
                start_kind in 0usize..4,
                offsets in proptest::collection::vec((-3i64..4, -3i64..4, -1i64..2), 0..10),
                remap_seed in any::<u64>(),
                invalid_mask in any::<u64>(),
            ) {
                let extent = Extent::new3d(nx, ny, nz);
                let origin = GlobalAddress::new2d(ox, oy);
                let (mut env, [tile, strip, catch_all]) = env_around(extent, origin, cpp);
                let start = match start_kind {
                    0 | 1 => tile,
                    2 => strip,
                    _ => catch_all,
                };
                if start_kind == 1 {
                    env.demote_to_buffer_only(tile).unwrap();
                }
                // Some of the tile's pages are stale (a remote block mid-refresh).
                env.set_block_valid(tile, false).unwrap();
                for page in 0..env.num_pages(tile).unwrap() {
                    if invalid_mask >> (page % 64) & 1 == 0 {
                        let payload = env.extract_page(tile, page).unwrap();
                        env.install_page(tile, page, &payload).unwrap();
                    }
                }
                let offsets: Vec<LocalAddress> =
                    offsets.into_iter().map(|(dx, dy, dz)| LocalAddress::new3d(dx, dy, dz)).collect();
                // Back into the tile, as it is, into the strip, or far away.
                let remap = |t: GlobalAddress| {
                    let spin = (t.x * 31 + t.y * 17 + t.z * 7) as u64 ^ remap_seed;
                    let e = extent;
                    match spin % 4 {
                        0 => origin + LocalAddress::new3d(
                            (t.x - origin.x).clamp(0, e.nx as i64 - 1),
                            (t.y - origin.y).clamp(0, e.ny as i64 - 1),
                            t.z.clamp(0, e.nz as i64 - 1),
                        ),
                        1 => t,
                        2 => GlobalAddress::new2d(
                            origin.x + t.x.rem_euclid(2 * e.nx as i64),
                            origin.y + e.ny as i64 + t.y.rem_euclid(2),
                        ),
                        _ => GlobalAddress::new2d(t.x - 100, t.y),
                    }
                };

                let addrs = listed(&env, start, &offsets, remap);
                for mmat in [false, true] {
                    let fresh = || if mmat { AccessState::with_mmat() } else { AccessState::new() };
                    // Resolved with MMAT as read: with it off, both run the
                    // same searches, once.
                    let (mut a, mut b) = (fresh(), fresh());
                    let fast = env.resolve_offsets(start, offsets.iter().copied(), remap, &mut a);
                    let slow = env.resolve_gather(start, addrs.iter().copied(), &mut b);
                    prop_assert_eq!(&fast, &slow);
                    prop_assert_eq!(a.counters, b.counters);
                    let cells = env.block(start).meta.extent.cells();
                    prop_assert_eq!(fast.len(), cells * offsets.len());
                    // Twice, so the second pass replays whatever MMAT memorised.
                    for _ in 0..2 {
                        let (mut got, mut want) = (vec![0; addrs.len()], vec![0; addrs.len()]);
                        env.read_gather_into(&fast, |c| *c, &mut got, &mut a);
                        env.read_gather_into(&slow, |c| *c, &mut want, &mut b);
                        prop_assert_eq!(got, want);
                        prop_assert_eq!(a.counters, b.counters);
                        prop_assert_eq!(a.missing(), b.missing());
                        prop_assert_eq!(a.mmat.len(), b.mmat.len());
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
