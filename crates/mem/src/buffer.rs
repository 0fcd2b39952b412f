//! Multi-buffered cell storage for Data Blocks.
//!
//! A Data Block stores its data in a [`MultiBuffer`]: `N ≥ 2` equally sized
//! buffers of cells (the paper uses double buffering: one read buffer holding
//! step `n-1`, one write buffer being filled for step `n`).  `refresh`
//! rotates the buffers.  The write buffer's page table records dirtiness so
//! the aspect modules know which pages must be shipped to other tasks; the
//! read buffer's validity is what `is_valid` of the owning block reports.
//!
//! A buffer may keep a ghost [`Frame`] around the block's rows: `width`
//! cells on every side, which a stencil's block routine fills with the
//! block's halo and reads in place (the ghost layer of classic stencil
//! codes).  Frame cells are not cells of the block: every method here but
//! the raw views ([`MultiBuffer::read_buf`], [`MultiBuffer::write_buf`],
//! [`MultiBuffer::read_write_bufs`]) takes and yields *logical* cell indexes
//! (row-major over the block, `0..cells()`), and the page table, the page
//! payloads and the slab forms never see a frame cell.
//!
//! The backing space of every buffer is registered with a [`PoolHandle`]
//! (see [`crate::pool`]), so pool usage statistics reflect all live block
//! data, as in the paper's Fig. 12.

use crate::page::{PageId, PageTable};
use crate::pool::{Chunk, PoolError, PoolHandle};
use std::fmt;
use std::ops::Range;

/// Where a block's cells sit in each of its buffers: `rows` rows of `nx`
/// cells, with `width` ghost cells on every side of them.  Logical cell
/// `idx` (row `idx / nx`, column `idx % nx`) lives at
/// [`Frame::offset`]`(idx)`; with `width` 0 that is `idx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    nx: usize,
    rows: usize,
    width: usize,
}

impl Frame {
    /// `rows` rows of `nx` cells framed `width` wide (a block without cells
    /// keeps no frame).
    pub fn new(nx: usize, rows: usize, width: usize) -> Self {
        let width = if nx * rows == 0 { 0 } else { width };
        Frame { nx, rows, width }
    }

    /// Number of logical cells.
    pub fn cells(&self) -> usize {
        self.nx * self.rows
    }

    /// Ghost cells on each side of the block.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Distance between two rows of the buffer: the row and its two ghosts.
    pub fn stride(&self) -> usize {
        self.nx + 2 * self.width
    }

    /// Length of one buffer, frame included.
    pub fn len(&self) -> usize {
        self.stride() * (self.rows + 2 * self.width)
    }

    /// Whether the buffer holds no cell at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Buffer offset of logical cell `idx`.
    #[inline]
    pub fn offset(&self, idx: usize) -> usize {
        if self.width == 0 {
            idx
        } else {
            let (row, col) = (idx / self.nx, idx % self.nx);
            (row + self.width) * self.stride() + self.width + col
        }
    }

    /// The block's rows in `buf` (a buffer of this frame), each `nx` long.
    pub fn rows<'a, C>(&self, buf: &'a [C]) -> impl Iterator<Item = &'a [C]> + 'a {
        let (nx, stride) = (self.nx, self.stride().max(1));
        buf[self.offset(0).min(buf.len())..].chunks(stride).take(self.rows).map(move |r| &r[..nx])
    }

    /// The buffer ranges holding the logical cells `cells`, in order: one a
    /// row the range touches, the whole range at width 0.
    fn segments(&self, cells: Range<usize>) -> impl Iterator<Item = Range<usize>> {
        let (this, mut at) = (*self, cells.start);
        std::iter::from_fn(move || {
            (at < cells.end).then(|| {
                let end = match this.width {
                    0 => cells.end,
                    _ => cells.end.min((at / this.nx + 1) * this.nx),
                };
                let (start, len) = (this.offset(at), end - at);
                at = end;
                start..start + len
            })
        })
    }

    /// [`Frame::rows`], writable.
    pub fn rows_mut<'a, C>(&self, buf: &'a mut [C]) -> impl Iterator<Item = &'a mut [C]> + 'a {
        let (nx, stride) = (self.nx, self.stride().max(1));
        let start = self.offset(0).min(buf.len());
        buf[start..].chunks_mut(stride).take(self.rows).map(move |r| &mut r[..nx])
    }
}

/// Multi-buffered storage of `cells` data units of type `C`.
pub struct MultiBuffer<C> {
    buffers: Vec<Vec<C>>,
    pages: PageTable,
    read_idx: usize,
    /// Where the logical cells sit in every buffer.
    frame: Frame,
    /// Chunks registered with the pool (one per buffer).
    chunks: Vec<Chunk>,
    pool: Option<PoolHandle>,
    cell_bytes: usize,
}

impl<C: Clone + Default> MultiBuffer<C> {
    /// Allocate a multi-buffer with `num_buffers` buffers laid out as
    /// `frame` says, grouping `cells_per_page` logical cells per page,
    /// registering the backing space (frame included) with `pool`.
    pub fn allocate(
        frame: Frame,
        num_buffers: usize,
        cells_per_page: usize,
        pool: &PoolHandle,
    ) -> Result<Self, PoolError> {
        assert!(num_buffers >= 2, "multi-buffering requires at least two buffers");
        let cell_bytes = std::mem::size_of::<C>().max(1);
        let mut chunks = Vec::with_capacity(num_buffers);
        for _ in 0..num_buffers {
            match pool.alloc((frame.len() * cell_bytes) as u64) {
                Ok(c) => chunks.push(c),
                Err(e) => {
                    // Roll back partial registration.
                    for c in chunks {
                        let _ = pool.free(c);
                    }
                    return Err(e);
                }
            }
        }
        let mut mb = Self::unframed(frame, num_buffers, cells_per_page);
        (mb.chunks, mb.pool) = (chunks, Some(pool.clone()));
        Ok(mb)
    }

    /// Allocate `cells` cells a buffer, unframed, without a pool
    /// (unaccounted) — used by tests and by the handwritten baselines'
    /// wrapper types.
    pub fn unpooled(cells: usize, num_buffers: usize, cells_per_page: usize) -> Self {
        assert!(num_buffers >= 2, "multi-buffering requires at least two buffers");
        Self::unframed(Frame::new(cells, 1, 0), num_buffers, cells_per_page)
    }

    fn unframed(frame: Frame, num_buffers: usize, cells_per_page: usize) -> Self {
        MultiBuffer {
            buffers: (0..num_buffers).map(|_| vec![C::default(); frame.len()]).collect(),
            pages: PageTable::new(frame.cells(), cells_per_page),
            read_idx: 0,
            frame,
            chunks: Vec::new(),
            pool: None,
            cell_bytes: std::mem::size_of::<C>().max(1),
        }
    }

    /// Number of (logical) cells per buffer.
    pub fn cells(&self) -> usize {
        self.frame.cells()
    }

    /// Where the cells sit in each buffer.
    pub fn frame(&self) -> Frame {
        self.frame
    }

    /// Number of buffers.
    pub fn num_buffers(&self) -> usize {
        self.buffers.len()
    }

    /// Index of the buffer currently used for writes.
    fn write_idx(&self) -> usize {
        (self.read_idx + 1) % self.buffers.len()
    }

    /// The whole read buffer (data of the previous step), frame included:
    /// the cells are where [`MultiBuffer::frame`] puts them.
    pub fn read_buf(&self) -> &[C] {
        &self.buffers[self.read_idx]
    }

    /// The whole write buffer (data of the step being computed), frame
    /// included.
    pub fn write_buf(&mut self) -> &mut [C] {
        let idx = self.write_idx();
        &mut self.buffers[idx]
    }

    /// Read one cell from the read buffer.
    pub fn read_cell(&self, idx: usize) -> &C {
        &self.buffers[self.read_idx][self.frame.offset(idx)]
    }

    /// Read `out.len()` cells of the read buffer into `out`: cell `first`,
    /// then each `dx` columns and `drows` rows on from the one before, all
    /// inside the block.
    pub fn read_strided(&self, first: usize, dx: isize, drows: isize, out: &mut [C]) {
        let buf = &self.buffers[self.read_idx];
        let step = dx + drows * self.frame.stride() as isize;
        let mut at = self.frame.offset(first);
        for cell in out {
            *cell = buf[at].clone();
            at = at.wrapping_add_signed(step);
        }
    }

    /// Write one cell into the write buffer, marking its page dirty.
    pub fn write_cell(&mut self, idx: usize, value: C) {
        let (w, at) = (self.write_idx(), self.frame.offset(idx));
        self.buffers[w][at] = value;
        self.pages.mark_cell_dirty(idx);
    }

    /// Write one cell into the *read* buffer directly.
    ///
    /// Used when data arrives from another task (the received page is the
    /// authoritative step `n-1` data) and during initialisation.
    pub fn write_cell_to_read_buf(&mut self, idx: usize, value: C) {
        let (r, at) = (self.read_idx, self.frame.offset(idx));
        self.buffers[r][at] = value;
    }

    /// Rotate buffers: the freshly written buffer becomes the read buffer.
    /// Dirty flags are cleared (they describe the buffer that was just
    /// published and has, by now, been communicated if needed).
    pub fn swap(&mut self) {
        self.read_idx = self.write_idx();
        self.pages.clear_dirty();
    }

    /// Overwrite every cell of the write buffer from `src`, row-major (one
    /// copy a row), marking every page dirty — the slab form of
    /// [`MultiBuffer::write_cell`] over all cells.  `src` must hold exactly
    /// [`MultiBuffer::cells`] values.
    pub fn fill_write_buf(&mut self, src: &[C]) {
        let w = self.write_idx();
        self.fill(w, src);
        self.pages.mark_all_dirty();
    }

    /// The read buffer and the write buffer together, whole (frame
    /// included), every page marked dirty — a block routine computes step
    /// `n` from step `n-1` in place, with the page flags of
    /// [`MultiBuffer::fill_write_buf`].  The write buffer holds whatever it
    /// last held: the borrower must write every cell.  The read buffer is
    /// lent writable for its frame alone, which the borrower may fill with
    /// the block's halo: a cell it changes there is a wrong answer.
    pub fn read_write_bufs(&mut self) -> (&mut [C], &mut [C]) {
        let (r, w) = (self.read_idx, self.write_idx());
        self.pages.mark_all_dirty();
        let (low, high) = self.buffers.split_at_mut(r.max(w));
        if r < w {
            (&mut low[r], &mut high[0])
        } else {
            (&mut high[0], &mut low[w])
        }
    }

    /// Overwrite every cell of the *read* buffer from `src` — the slab form
    /// of [`MultiBuffer::write_cell_to_read_buf`] over all cells.
    pub fn fill_read_buf(&mut self, src: &[C]) {
        self.fill(self.read_idx, src);
    }

    fn fill(&mut self, buf: usize, src: &[C]) {
        assert_eq!(src.len(), self.cells(), "a slab holds every cell of the block");
        let rows = self.frame.rows_mut(&mut self.buffers[buf]);
        for (row, src) in rows.zip(src.chunks(self.frame.nx.max(1))) {
            row.clone_from_slice(src);
        }
    }

    /// Page table (validity / dirtiness).
    pub fn pages(&self) -> &PageTable {
        &self.pages
    }

    /// Mutable page table.
    pub fn pages_mut(&mut self) -> &mut PageTable {
        &mut self.pages
    }

    /// Copy the logical cells `cells` of the read buffer into `out` (one
    /// copy a row they touch).
    pub fn read_range_into(&self, cells: Range<usize>, out: &mut [C]) {
        assert_eq!(cells.len(), out.len(), "a range read fills all of `out`");
        let buf = &self.buffers[self.read_idx];
        let mut out = out;
        for seg in self.frame.segments(cells) {
            let (dst, rest) = out.split_at_mut(seg.len());
            dst.clone_from_slice(&buf[seg]);
            out = rest;
        }
    }

    /// Extract the cells of one page from the read buffer (for shipping to
    /// another task).
    pub fn extract_page(&self, page: PageId) -> Vec<C> {
        let buf = &self.buffers[self.read_idx];
        let range = self.pages.cell_range(page);
        let mut cells = Vec::with_capacity(range.len());
        for seg in self.frame.segments(range) {
            cells.extend_from_slice(&buf[seg]);
        }
        cells
    }

    /// Install received cells into one page of the read buffer and mark it
    /// valid.
    pub fn install_page(&mut self, page: PageId, cells: &[C]) {
        let range = self.pages.cell_range(page);
        assert_eq!(range.len(), cells.len(), "page payload size mismatch");
        let (buf, mut cells) = (&mut self.buffers[self.read_idx], cells);
        for seg in self.frame.segments(range) {
            let (src, rest) = cells.split_at(seg.len());
            buf[seg].clone_from_slice(src);
            cells = rest;
        }
        self.pages.set_valid(page, true);
    }

    /// Bytes of cell storage held by this multi-buffer, frames included.
    pub fn data_bytes(&self) -> usize {
        self.buffers.len() * self.frame.len() * self.cell_bytes
    }

    /// Approximate total footprint including the page table.
    pub fn footprint_bytes(&self) -> usize {
        self.data_bytes() + self.pages.footprint_bytes()
    }
}

impl<C> Drop for MultiBuffer<C> {
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            for c in self.chunks.drain(..) {
                let _ = pool.free(c);
            }
        }
    }
}

impl<C> fmt::Debug for MultiBuffer<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiBuffer")
            .field("frame", &self.frame)
            .field("num_buffers", &self.buffers.len())
            .field("read_idx", &self.read_idx)
            .field("pages", &self.pages.num_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn double_buffer_swap_semantics() {
        let mut mb: MultiBuffer<f64> = MultiBuffer::unpooled(4, 2, 2);
        mb.write_cell(0, 1.0);
        mb.write_cell(3, 2.0);
        // Before swap, reads still see the old (default) data.
        assert_eq!(*mb.read_cell(0), 0.0);
        assert_eq!(mb.pages().dirty_pages(), vec![0, 1]);
        mb.swap();
        assert_eq!(*mb.read_cell(0), 1.0);
        assert_eq!(*mb.read_cell(3), 2.0);
        assert!(mb.pages().dirty_pages().is_empty(), "swap clears dirtiness");
    }

    #[test]
    fn pooled_allocation_accounts_bytes_and_frees_on_drop() {
        let pool = PoolHandle::single(1 << 20);
        {
            let mb: MultiBuffer<f64> =
                MultiBuffer::allocate(Frame::new(1024, 1, 0), 2, 128, &pool).unwrap();
            assert_eq!(pool.stats().used, 2 * 1024 * 8);
            assert_eq!(mb.data_bytes(), 2 * 1024 * 8);
            assert!(mb.footprint_bytes() >= mb.data_bytes());
        }
        assert_eq!(pool.stats().used, 0, "drop returns chunks to the pool");
    }

    #[test]
    fn pooled_allocation_failure_rolls_back() {
        let pool = PoolHandle::single(1024);
        // Each buffer needs 8 KiB — cannot fit; no partial usage must remain.
        let res: Result<MultiBuffer<f64>, _> =
            MultiBuffer::allocate(Frame::new(1024, 1, 0), 2, 128, &pool);
        assert!(res.is_err());
        assert_eq!(pool.stats().used, 0);
    }

    #[test]
    #[should_panic(expected = "at least two buffers")]
    fn single_buffer_rejected() {
        let _: MultiBuffer<u8> = MultiBuffer::unpooled(8, 1, 4);
    }

    #[test]
    fn triple_buffering_rotates() {
        let mut mb: MultiBuffer<u32> = MultiBuffer::unpooled(1, 3, 1);
        mb.write_cell(0, 1);
        mb.swap();
        mb.write_cell(0, 2);
        mb.swap();
        mb.write_cell(0, 3);
        mb.swap();
        assert_eq!(*mb.read_cell(0), 3);
        // After three swaps we are back at the original buffer ring position.
        assert_eq!(mb.num_buffers(), 3);
    }

    #[test]
    fn slab_fills_match_the_per_cell_writes() {
        let values = [7u32, 8, 9, 10, 11];
        let mut slab: MultiBuffer<u32> = MultiBuffer::unpooled(5, 2, 2);
        let mut cellwise: MultiBuffer<u32> = MultiBuffer::unpooled(5, 2, 2);
        slab.fill_read_buf(&values);
        slab.fill_write_buf(&values);
        for (i, v) in values.iter().enumerate() {
            cellwise.write_cell_to_read_buf(i, *v);
            cellwise.write_cell(i, *v);
        }
        assert_eq!(slab.read_buf(), cellwise.read_buf());
        assert_eq!(slab.pages(), cellwise.pages(), "every page dirty, none validated");
        slab.swap();
        cellwise.swap();
        assert_eq!(slab.read_buf(), cellwise.read_buf());
    }

    #[test]
    fn the_split_borrow_matches_the_slab_fill() {
        for num_buffers in [2, 3] {
            let mut lent: MultiBuffer<u32> = MultiBuffer::unpooled(5, num_buffers, 2);
            let mut filled: MultiBuffer<u32> = MultiBuffer::unpooled(5, num_buffers, 2);
            for step in 0..num_buffers as u32 + 1 {
                let (read, write) = lent.read_write_bufs();
                assert_eq!(read, filled.read_buf(), "buffers {num_buffers} step {step}");
                let next: Vec<u32> = read.iter().map(|v| v * 3 + step + 1).collect();
                write.copy_from_slice(&next);
                filled.fill_write_buf(&next);
                assert_eq!(lent.pages(), filled.pages(), "every page dirty");
                lent.swap();
                filled.swap();
            }
            assert_eq!(lent.read_buf(), filled.read_buf());
        }
    }

    #[test]
    fn page_extract_install_roundtrip() {
        let mut a: MultiBuffer<i64> = MultiBuffer::unpooled(10, 2, 4);
        let mut b: MultiBuffer<i64> = MultiBuffer::unpooled(10, 2, 4);
        for i in 0..10 {
            a.write_cell(i, i as i64 * 10);
        }
        a.swap();
        for page in 0..a.pages().num_pages() {
            let payload = a.extract_page(page);
            b.install_page(page, &payload);
        }
        for i in 0..10 {
            assert_eq!(b.read_cell(i), a.read_cell(i));
        }
        assert_eq!(b.pages().valid_count(), b.pages().num_pages());
    }

    #[test]
    #[should_panic(expected = "page payload size mismatch")]
    fn install_page_size_mismatch_panics() {
        let mut b: MultiBuffer<i64> = MultiBuffer::unpooled(10, 2, 4);
        b.install_page(0, &[1, 2]);
    }

    #[test]
    fn write_to_read_buf_used_for_initialisation() {
        let mut mb: MultiBuffer<f32> = MultiBuffer::unpooled(2, 2, 2);
        mb.write_cell_to_read_buf(0, 5.0);
        assert_eq!(*mb.read_cell(0), 5.0);
        assert!(mb.pages().dirty_pages().is_empty(), "init writes are not dirty");
    }

    proptest! {
        /// A framed buffer is the unframed one to every logical access:
        /// per-cell reads and writes, the slab fills, the rows, strided
        /// reads along a row and a column, a range read, page payloads out
        /// and in, and the page flags — and no frame cell, each holding a
        /// poison value, shows up in any of them or is overwritten by an
        /// installed page.  The frame is accounted with the pool.
        #[test]
        fn a_framed_buffer_is_the_unframed_one_to_every_logical_access(
            nx in 1usize..9,
            rows in 1usize..9,
            width in 1usize..3,
            cpp in 1usize..20,
            seed in any::<u64>(),
        ) {
            const GHOST: u64 = u64::MAX;
            let n = nx * rows;
            let pool = PoolHandle::unbounded();
            let frame = Frame::new(nx, rows, width);
            let mut framed: MultiBuffer<u64> = MultiBuffer::allocate(frame, 2, cpp, &pool).unwrap();
            let flat = Frame::new(nx, rows, 0);
            let mut plain: MultiBuffer<u64> = MultiBuffer::allocate(flat, 2, cpp, &pool).unwrap();
            prop_assert_eq!(pool.stats().used as usize, 2 * 8 * (frame.len() + n));
            let inside: Vec<usize> = (0..n).map(|i| frame.offset(i)).collect();
            for _ in 0..2 {
                for (at, cell) in framed.write_buf().iter_mut().enumerate() {
                    if !inside.contains(&at) {
                        *cell = GHOST;
                    }
                }
                framed.swap();
            }
            let values: Vec<u64> = (0..n as u64).map(|i| seed.wrapping_mul(i + 1) >> 1).collect();
            let mut seen: [Vec<u64>; 2] = Default::default();
            for (mb, seen) in [&mut framed, &mut plain].into_iter().zip(&mut seen) {
                mb.fill_read_buf(&values);
                mb.write_cell(n / 2, 7);
                mb.swap();
                mb.fill_write_buf(&values);
                mb.write_cell(n - 1, 9);
                seen.extend((0..n).map(|i| *mb.read_cell(i)));
                mb.swap();
                seen.extend(mb.frame().rows(mb.read_buf()).flatten().copied());
                let mut run = vec![0; nx];
                mb.read_strided(nx * (rows - 1), 1, 0, &mut run);
                seen.extend(&run);
                let mut run = vec![0; rows];
                mb.read_strided(nx - 1, 0, 1, &mut run);
                seen.extend(&run);
                let mut tail = vec![0; n - n / 3];
                mb.read_range_into(n / 3..n, &mut tail);
                seen.extend(&tail);
                for page in 0..mb.pages().num_pages() {
                    let payload = mb.extract_page(page);
                    seen.extend(&payload);
                    let shifted: Vec<u64> = payload.iter().map(|v| v >> 3).collect();
                    mb.install_page(page, &shifted);
                }
                seen.extend(mb.frame().rows(mb.read_buf()).flatten().copied());
            }
            prop_assert!(!seen[0].contains(&GHOST), "a frame cell was read");
            let ghost = |(at, v): (usize, &u64)| inside.contains(&at) || *v == GHOST;
            let kept = framed.read_buf().iter().enumerate().all(ghost);
            prop_assert!(kept, "a frame cell was written");
            prop_assert_eq!(&seen[0], &seen[1]);
            prop_assert_eq!(framed.pages(), plain.pages());
        }

        /// After writing an arbitrary pattern and swapping, reads observe
        /// exactly the written pattern.
        #[test]
        fn swap_publishes_all_writes(values in proptest::collection::vec(any::<i32>(), 1..200)) {
            let mut mb: MultiBuffer<i32> = MultiBuffer::unpooled(values.len(), 2, 7);
            for (i, v) in values.iter().enumerate() {
                mb.write_cell(i, *v);
            }
            mb.swap();
            for (i, v) in values.iter().enumerate() {
                prop_assert_eq!(mb.read_cell(i), v);
            }
        }

        /// Dirty pages after a write burst are exactly the pages of the written cells.
        #[test]
        fn dirty_pages_exact(cells in proptest::collection::vec(0usize..300, 1..40), cpp in 1usize..64) {
            let mut mb: MultiBuffer<u8> = MultiBuffer::unpooled(300, 2, cpp);
            let mut expected: Vec<usize> = cells.iter().map(|c| c / cpp).collect();
            expected.sort_unstable();
            expected.dedup();
            for c in &cells {
                mb.write_cell(*c, 1);
            }
            prop_assert_eq!(mb.pages().dirty_pages(), expected);
        }
    }
}
