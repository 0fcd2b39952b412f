//! Page-based state tracking.
//!
//! The memory library exposes two interfaces: a Block-based one for end-user
//! programs (implemented in the DSL part / env crate) and a **Page-based**
//! one for aspect modules.  A page groups a fixed number of data units; the
//! aspect modules track *validity* (is the page's data readable on this task)
//! and *dirtiness* (was the page written during the current step) per page,
//! and communicate whole pages between tasks.  One page may hold several data
//! units (e.g. several grid points), which is what makes page-wise
//! communication cheaper than block-wise communication.

use serde::Serialize;

/// Index of a page within one block's buffer.
pub type PageId = usize;

/// Validity / dirtiness flags of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct PageFlags {
    /// The page's data is readable on this task.
    pub valid: bool,
    /// The page has been written since the last refresh.
    pub dirty: bool,
}

/// Per-page flags for one buffer of one block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct PageTable {
    cells_per_page: usize,
    num_cells: usize,
    flags: Vec<PageFlags>,
}

impl PageTable {
    /// Create a table for `num_cells` data units grouped `cells_per_page` per
    /// page.  `cells_per_page` must be non-zero.
    pub fn new(num_cells: usize, cells_per_page: usize) -> Self {
        assert!(cells_per_page > 0, "cells_per_page must be non-zero");
        let pages = num_cells.div_ceil(cells_per_page);
        PageTable { cells_per_page, num_cells, flags: vec![PageFlags::default(); pages] }
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.flags.len()
    }

    /// Number of data units covered.
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// Data units per page.
    pub fn cells_per_page(&self) -> usize {
        self.cells_per_page
    }

    /// The page containing a cell index.
    pub fn page_of(&self, cell: usize) -> PageId {
        cell / self.cells_per_page
    }

    /// The cell range `[start, end)` covered by a page.
    pub fn cell_range(&self, page: PageId) -> std::ops::Range<usize> {
        let start = page * self.cells_per_page;
        let end = ((page + 1) * self.cells_per_page).min(self.num_cells);
        start..end
    }

    /// Flags of a page.
    pub fn flags(&self, page: PageId) -> PageFlags {
        self.flags[page]
    }

    /// Is the page valid (readable)?
    pub fn is_valid(&self, page: PageId) -> bool {
        self.flags[page].valid
    }

    /// Mark the page containing `cell` dirty.
    pub fn mark_cell_dirty(&mut self, cell: usize) {
        let p = self.page_of(cell);
        self.flags[p].dirty = true;
    }

    /// Mark one page valid/invalid.
    pub fn set_valid(&mut self, page: PageId, valid: bool) {
        self.flags[page].valid = valid;
    }

    /// Mark every page valid.
    pub fn validate_all(&mut self) {
        for f in &mut self.flags {
            f.valid = true;
        }
    }

    /// Mark every page invalid (e.g. a Buffer-only block before any data has
    /// been received).
    pub fn invalidate_all(&mut self) {
        for f in &mut self.flags {
            f.valid = false;
        }
    }

    /// Mark every page dirty (a whole-buffer write).
    pub fn mark_all_dirty(&mut self) {
        for f in &mut self.flags {
            f.dirty = true;
        }
    }

    /// Clear every dirty bit (after the dirty pages have been shipped).
    pub fn clear_dirty(&mut self) {
        for f in &mut self.flags {
            f.dirty = false;
        }
    }

    /// Indices of dirty pages.
    pub fn dirty_pages(&self) -> Vec<PageId> {
        self.flags.iter().enumerate().filter(|(_, f)| f.dirty).map(|(i, _)| i).collect()
    }

    /// Number of valid pages.
    pub fn valid_count(&self) -> usize {
        self.flags.iter().filter(|f| f.valid).count()
    }

    /// Approximate memory footprint of this table in bytes (for the working-
    /// memory accounting of Fig. 12).
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.flags.len() * std::mem::size_of::<PageFlags>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn page_count_rounds_up() {
        assert_eq!(PageTable::new(100, 32).num_pages(), 4);
        assert_eq!(PageTable::new(96, 32).num_pages(), 3);
        assert_eq!(PageTable::new(0, 32).num_pages(), 0);
        assert_eq!(PageTable::new(1, 32).num_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "cells_per_page")]
    fn zero_cells_per_page_panics() {
        let _ = PageTable::new(10, 0);
    }

    #[test]
    fn page_of_and_cell_range() {
        let t = PageTable::new(100, 32);
        assert_eq!(t.page_of(0), 0);
        assert_eq!(t.page_of(31), 0);
        assert_eq!(t.page_of(32), 1);
        assert_eq!(t.page_of(99), 3);
        assert_eq!(t.cell_range(0), 0..32);
        assert_eq!(t.cell_range(3), 96..100, "last page is truncated to the cell count");
    }

    #[test]
    fn dirty_tracking() {
        let mut t = PageTable::new(64, 16);
        t.mark_cell_dirty(0);
        t.mark_cell_dirty(17);
        t.mark_cell_dirty(18);
        assert_eq!(t.dirty_pages(), vec![0, 1]);
        t.clear_dirty();
        assert!(t.dirty_pages().is_empty());
    }

    #[test]
    fn validity_tracking() {
        let mut t = PageTable::new(64, 16);
        assert_eq!(t.valid_count(), 0);
        t.validate_all();
        assert_eq!(t.valid_count(), 4);
        t.set_valid(2, false);
        assert_eq!(t.valid_count(), 3);
        assert!(!t.is_valid(2));
        t.invalidate_all();
        assert_eq!(t.valid_count(), 0);
    }

    #[test]
    fn flags_accessors() {
        let mut t = PageTable::new(16, 8);
        t.mark_cell_dirty(8);
        t.set_valid(1, true);
        assert!(t.is_valid(1));
        assert_eq!(t.flags(1), PageFlags { valid: true, dirty: true });
        assert_eq!(t.flags(0), PageFlags::default());
        assert!(t.footprint_bytes() > 0);
        assert_eq!(t.cells_per_page(), 8);
        assert_eq!(t.num_cells(), 16);
    }

    proptest! {
        /// Every cell maps to exactly one page and that page's range contains it.
        #[test]
        fn cell_page_consistency(num_cells in 1usize..5000, cpp in 1usize..512, cell_sel in 0usize..5000) {
            let t = PageTable::new(num_cells, cpp);
            let cell = cell_sel % num_cells;
            let page = t.page_of(cell);
            prop_assert!(page < t.num_pages());
            prop_assert!(t.cell_range(page).contains(&cell));
        }

        /// The union of all page ranges covers exactly [0, num_cells) without overlap.
        #[test]
        fn page_ranges_partition_cells(num_cells in 1usize..2000, cpp in 1usize..257) {
            let t = PageTable::new(num_cells, cpp);
            let mut covered = 0usize;
            for p in 0..t.num_pages() {
                let r = t.cell_range(p);
                prop_assert_eq!(r.start, covered);
                covered = r.end;
            }
            prop_assert_eq!(covered, num_cells);
        }

        /// Marking a set of cells dirty yields exactly the pages of those cells.
        #[test]
        fn dirty_pages_match_marked_cells(cells in proptest::collection::vec(0usize..1000, 0..50)) {
            let mut t = PageTable::new(1000, 28);
            let mut expected: Vec<usize> = cells.iter().map(|c| c / 28).collect();
            expected.sort_unstable();
            expected.dedup();
            for c in &cells {
                t.mark_cell_dirty(*c);
            }
            prop_assert_eq!(t.dirty_pages(), expected);
        }
    }
}
