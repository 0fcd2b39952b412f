//! Multi-buffered cell storage for Data Blocks.
//!
//! A Data Block stores its data in a [`MultiBuffer`]: `N ≥ 2` equally sized
//! buffers of cells (the paper uses double buffering: one read buffer holding
//! step `n-1`, one write buffer being filled for step `n`).  `refresh`
//! rotates the buffers.  The write buffer's page table records dirtiness so
//! the aspect modules know which pages must be shipped to other tasks; the
//! read buffer's validity is what `is_valid` of the owning block reports.
//!
//! The backing space of every buffer is registered with a [`PoolHandle`]
//! (see [`crate::pool`]), so pool usage statistics reflect all live block
//! data, as in the paper's Fig. 12.

use crate::page::{PageId, PageTable};
use crate::pool::{Chunk, PoolError, PoolHandle};
use std::fmt;

/// Multi-buffered storage of `cells` data units of type `C`.
pub struct MultiBuffer<C> {
    buffers: Vec<Vec<C>>,
    pages: PageTable,
    read_idx: usize,
    /// Chunks registered with the pool (one per buffer).
    chunks: Vec<Chunk>,
    pool: Option<PoolHandle>,
    cell_bytes: usize,
}

impl<C: Clone + Default> MultiBuffer<C> {
    /// Allocate a multi-buffer with `num_buffers` buffers of `cells` cells
    /// each, grouping `cells_per_page` cells per page, registering the
    /// backing space with `pool`.
    pub fn allocate(
        cells: usize,
        num_buffers: usize,
        cells_per_page: usize,
        pool: &PoolHandle,
    ) -> Result<Self, PoolError> {
        assert!(num_buffers >= 2, "multi-buffering requires at least two buffers");
        let cell_bytes = std::mem::size_of::<C>().max(1);
        let mut chunks = Vec::with_capacity(num_buffers);
        for _ in 0..num_buffers {
            match pool.alloc((cells * cell_bytes) as u64) {
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
        Ok(MultiBuffer {
            buffers: (0..num_buffers).map(|_| vec![C::default(); cells]).collect(),
            pages: PageTable::new(cells, cells_per_page),
            read_idx: 0,
            chunks,
            pool: Some(pool.clone()),
            cell_bytes,
        })
    }

    /// Allocate without a pool (unaccounted) — used by tests and by the
    /// handwritten baselines' wrapper types.
    pub fn unpooled(cells: usize, num_buffers: usize, cells_per_page: usize) -> Self {
        assert!(num_buffers >= 2, "multi-buffering requires at least two buffers");
        MultiBuffer {
            buffers: (0..num_buffers).map(|_| vec![C::default(); cells]).collect(),
            pages: PageTable::new(cells, cells_per_page),
            read_idx: 0,
            chunks: Vec::new(),
            pool: None,
            cell_bytes: std::mem::size_of::<C>().max(1),
        }
    }

    /// Number of cells per buffer.
    pub fn cells(&self) -> usize {
        self.buffers[0].len()
    }

    /// Number of buffers.
    pub fn num_buffers(&self) -> usize {
        self.buffers.len()
    }

    /// Index of the buffer currently used for writes.
    fn write_idx(&self) -> usize {
        (self.read_idx + 1) % self.buffers.len()
    }

    /// The read buffer (data of the previous step).
    pub fn read_buf(&self) -> &[C] {
        &self.buffers[self.read_idx]
    }

    /// The write buffer (data of the step being computed).
    pub fn write_buf(&mut self) -> &mut [C] {
        let idx = self.write_idx();
        &mut self.buffers[idx]
    }

    /// Read one cell from the read buffer.
    pub fn read_cell(&self, idx: usize) -> &C {
        &self.buffers[self.read_idx][idx]
    }

    /// Write one cell into the write buffer, marking its page dirty.
    pub fn write_cell(&mut self, idx: usize, value: C) {
        let w = self.write_idx();
        self.buffers[w][idx] = value;
        self.pages.mark_cell_dirty(idx);
    }

    /// Write one cell into the *read* buffer directly.
    ///
    /// Used when data arrives from another task (the received page is the
    /// authoritative step `n-1` data) and during initialisation.
    pub fn write_cell_to_read_buf(&mut self, idx: usize, value: C) {
        let r = self.read_idx;
        self.buffers[r][idx] = value;
    }

    /// Rotate buffers: the freshly written buffer becomes the read buffer.
    /// Dirty flags are cleared (they describe the buffer that was just
    /// published and has, by now, been communicated if needed).
    pub fn swap(&mut self) {
        self.read_idx = self.write_idx();
        self.pages.clear_dirty();
    }

    /// Overwrite the whole write buffer from `src` (one copy), marking every
    /// page dirty — the slab form of [`MultiBuffer::write_cell`] over all
    /// cells.  `src` must hold exactly [`MultiBuffer::cells`] values.
    pub fn fill_write_buf(&mut self, src: &[C]) {
        self.write_buf().clone_from_slice(src);
        self.pages.mark_all_dirty();
    }

    /// The read buffer and the write buffer together, every page marked
    /// dirty — a block routine computes step `n` from step `n-1` in place,
    /// with the page flags of [`MultiBuffer::fill_write_buf`].  The write
    /// buffer holds whatever it last held: the borrower must write every
    /// cell.
    pub fn read_write_bufs(&mut self) -> (&[C], &mut [C]) {
        let (r, w) = (self.read_idx, self.write_idx());
        self.pages.mark_all_dirty();
        let (low, high) = self.buffers.split_at_mut(r.max(w));
        if r < w {
            (&low[r], &mut high[0])
        } else {
            (&high[0], &mut low[w])
        }
    }

    /// Overwrite the whole *read* buffer from `src` — the slab form of
    /// [`MultiBuffer::write_cell_to_read_buf`] over all cells.
    pub fn fill_read_buf(&mut self, src: &[C]) {
        let r = self.read_idx;
        self.buffers[r].clone_from_slice(src);
    }

    /// Page table (validity / dirtiness).
    pub fn pages(&self) -> &PageTable {
        &self.pages
    }

    /// Mutable page table.
    pub fn pages_mut(&mut self) -> &mut PageTable {
        &mut self.pages
    }

    /// Extract the cells of one page from the read buffer (for shipping to
    /// another task).
    pub fn extract_page(&self, page: PageId) -> Vec<C> {
        self.buffers[self.read_idx][self.pages.cell_range(page)].to_vec()
    }

    /// Install received cells into one page of the read buffer and mark it
    /// valid.
    pub fn install_page(&mut self, page: PageId, cells: &[C]) {
        let range = self.pages.cell_range(page);
        assert_eq!(range.len(), cells.len(), "page payload size mismatch");
        self.buffers[self.read_idx][range].clone_from_slice(cells);
        self.pages.set_valid(page, true);
    }

    /// Bytes of cell storage held by this multi-buffer.
    pub fn data_bytes(&self) -> usize {
        self.buffers.len() * self.cells() * self.cell_bytes
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
            .field("cells", &self.buffers.first().map(|b| b.len()).unwrap_or(0))
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
            let mb: MultiBuffer<f64> = MultiBuffer::allocate(1024, 2, 128, &pool).unwrap();
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
        let res: Result<MultiBuffer<f64>, _> = MultiBuffer::allocate(1024, 2, 128, &pool);
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
