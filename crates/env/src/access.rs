//! Per-task access state: counters, MMAT memo and missing-page records.
//!
//! Every task owns one [`AccessState`].  The Env itself is shared (or
//! replicated) between tasks; all mutable bookkeeping of the *access path* —
//! how many searches ran, which accesses hit non-existent data, what MMAT has
//! memorised — is task-local, which both avoids contention and matches the
//! paper's model where MMAT is reset per task by the end-user.

use crate::block::BlockId;
use crate::mmat::MmatTable;
use aohpc_mem::PageId;
use std::collections::HashSet;

/// Counters describing the work done by the memory access layer.
///
/// These feed the deterministic cost model used for the scaling figures and
/// make the MMAT / skip-search ablations observable in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounters {
    /// Total cell reads requested.
    pub reads: u64,
    /// Total cell writes requested.
    pub writes: u64,
    /// Reads satisfied by the starting block without a search.
    pub in_block_hits: u64,
    /// Reads satisfied via the skip-search flag (`GetDD`).
    pub skip_search_hits: u64,
    /// Env tree searches actually run.  Searches are counted when a plan is
    /// resolved, never when it is read (the rule is stated at
    /// [`Env::resolve_run`](crate::Env::resolve_run)): a run plan searches
    /// once a stretch of cells, once a job, so this may be far lower than
    /// the number of reads that left their starting block
    /// (`out_of_block_reads` counts those, one per cell, on every read).
    /// The slab forms never search: every counter they leave is the per-cell
    /// loop's.
    pub env_searches: u64,
    /// Tree nodes visited during the searches that ran.
    pub search_nodes_visited: u64,
    /// Reads resolved by the MMAT memo.
    pub mmat_hits: u64,
    /// Reads that had to fall back to a search although MMAT was enabled.
    pub mmat_misses: u64,
    /// Reads that resolved to a block other than the starting block.
    pub out_of_block_reads: u64,
    /// Reads of Arithmetic blocks (boundary values).
    pub arithmetic_reads: u64,
    /// Reads of Static Data blocks.
    pub static_reads: u64,
    /// Reads routed through Reference blocks.
    pub reference_reads: u64,
    /// Accesses that found no block / invalid data (non-existent pages).
    pub missing_accesses: u64,
}

impl AccessCounters {
    /// Element-wise accumulation (used when aggregating tasks).
    pub fn merge(&mut self, other: &AccessCounters) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.in_block_hits += other.in_block_hits;
        self.skip_search_hits += other.skip_search_hits;
        self.env_searches += other.env_searches;
        self.search_nodes_visited += other.search_nodes_visited;
        self.mmat_hits += other.mmat_hits;
        self.mmat_misses += other.mmat_misses;
        self.out_of_block_reads += other.out_of_block_reads;
        self.arithmetic_reads += other.arithmetic_reads;
        self.static_reads += other.static_reads;
        self.reference_reads += other.reference_reads;
        self.missing_accesses += other.missing_accesses;
    }
}

/// Task-local access state.
#[derive(Debug, Default)]
pub struct AccessState {
    /// The MMAT memo.
    pub mmat: MmatTable,
    /// Whether MMAT is consulted/updated (the end-user opt-in of §III-B6).
    pub mmat_enabled: bool,
    /// Access-path counters.
    pub counters: AccessCounters,
    missing: Vec<(BlockId, PageId)>,
    missing_set: HashSet<(BlockId, PageId)>,
}

impl AccessState {
    /// Fresh state with MMAT disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh state with MMAT enabled.
    pub fn with_mmat() -> Self {
        AccessState { mmat_enabled: true, ..Self::default() }
    }

    /// Record a non-existent page access (deduplicated, order-preserving).
    pub fn record_missing(&mut self, block: BlockId, page: PageId) {
        self.record_missing_n(block, page, 1);
    }

    /// Record `n` accesses to one non-existent page: what `n` calls of
    /// [`AccessState::record_missing`] leave, with one set insert.
    pub fn record_missing_n(&mut self, block: BlockId, page: PageId, n: u64) {
        if n == 0 {
            return;
        }
        self.counters.missing_accesses += n;
        if self.missing_set.insert((block, page)) {
            self.missing.push((block, page));
        }
    }

    /// Pages recorded as non-existent since the last [`AccessState::take_missing`].
    pub fn missing(&self) -> &[(BlockId, PageId)] {
        &self.missing
    }

    /// Whether any non-existent access happened.
    pub fn has_missing(&self) -> bool {
        !self.missing.is_empty()
    }

    /// Drain the non-existent page list (done by `refresh` advice).
    pub fn take_missing(&mut self) -> Vec<(BlockId, PageId)> {
        self.missing_set.clear();
        std::mem::take(&mut self.missing)
    }

    /// Reset the MMAT memo (the `WarmUp` macro clears previously collected
    /// information before a new dry run).
    pub fn reset_mmat(&mut self) {
        self.mmat.reset();
    }

    /// Approximate working-memory footprint of this state in bytes.
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.mmat.footprint_bytes()
            + self.missing.capacity() * std::mem::size_of::<(BlockId, PageId)>()
            + self.missing_set.capacity() * std::mem::size_of::<(BlockId, PageId)>() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_is_deduplicated_and_ordered() {
        let mut s = AccessState::new();
        s.record_missing(3, 1);
        s.record_missing(2, 0);
        s.record_missing(3, 1);
        s.record_missing(2, 1);
        assert_eq!(s.missing(), &[(3, 1), (2, 0), (2, 1)]);
        assert!(s.has_missing());
        assert_eq!(s.counters.missing_accesses, 4, "every access is counted, even duplicates");
        let drained = s.take_missing();
        assert_eq!(drained.len(), 3);
        assert!(!s.has_missing());
        // After draining, the same page can be recorded again.
        s.record_missing(3, 1);
        assert_eq!(s.missing(), &[(3, 1)]);
    }

    #[test]
    fn bulk_missing_equals_repeated_single_records() {
        let (mut bulk, mut single) = (AccessState::new(), AccessState::new());
        for (block, page, n) in [(3, 1, 4), (2, 0, 1), (3, 1, 2), (5, 5, 0)] {
            bulk.record_missing_n(block, page, n);
            for _ in 0..n {
                single.record_missing(block, page);
            }
        }
        assert_eq!(bulk.missing(), single.missing());
        assert_eq!(bulk.missing(), &[(3, 1), (2, 0)], "a zero-count record leaves nothing");
        assert_eq!(bulk.counters, single.counters);
        assert_eq!(bulk.counters.missing_accesses, 7);
    }

    #[test]
    fn counters_merge() {
        let mut a = AccessCounters { reads: 1, writes: 2, env_searches: 3, ..Default::default() };
        let b = AccessCounters { reads: 10, mmat_hits: 5, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.reads, 11);
        assert_eq!(a.writes, 2);
        assert_eq!(a.mmat_hits, 5);
    }

    #[test]
    fn with_mmat_flag() {
        assert!(!AccessState::new().mmat_enabled);
        assert!(AccessState::with_mmat().mmat_enabled);
    }

    #[test]
    fn footprint_grows_with_missing() {
        let mut s = AccessState::new();
        let base = s.footprint_bytes();
        for i in 0..1000 {
            s.record_missing(i, 0);
        }
        assert!(s.footprint_bytes() > base);
    }
}
