//! MMAT — Memorization of Memory Access Type.
//!
//! The platform's memory access interface can accept a flag asserting that an
//! access stays inside the starting block (skipping the Env search).  When
//! the DSL cannot prove that statically — e.g. the unstructured grid, where
//! neighbours are indirect — the end-user can enable **MMAT**: the platform
//! memorises, for each `(starting block, global address)` pair, how the
//! access resolved on the first step (inside the block, in some other block,
//! or non-existent) and replays that resolution on subsequent steps.
//!
//! MMAT is *not* invalidated automatically; the end-user resets it when the
//! access pattern changes (the paper's `WarmUp` macro clears it).  The memo
//! costs memory, which is part of why the platform's memory usage in Fig. 12
//! exceeds the handwritten programs'.

use crate::address::GlobalAddress;
use crate::block::BlockId;
use serde::Serialize;
use std::collections::HashMap;

/// How a memorised access resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MmatEntry {
    /// The address is inside the starting block, at this cell index.
    InBlock(usize),
    /// The address resolved to another block.
    Remote(BlockId),
    /// No block contains the address (recorded as a non-existent access).
    NonExistent,
}

/// The per-task memo table.
#[derive(Debug, Default)]
pub struct MmatTable {
    entries: HashMap<(BlockId, GlobalAddress), MmatEntry>,
    hits: u64,
    misses: u64,
}

impl MmatTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a memorised resolution, counting a hit or miss.
    pub fn lookup(&mut self, start: BlockId, addr: GlobalAddress) -> Option<MmatEntry> {
        match self.entries.get(&(start, addr)) {
            Some(e) => {
                self.hits += 1;
                Some(*e)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Memorise a resolution.
    pub fn record(&mut self, start: BlockId, addr: GlobalAddress, entry: MmatEntry) {
        self.entries.insert((start, addr), entry);
    }

    /// Forget everything (the `WarmUp` macro / explicit reset by the
    /// end-user after an access-pattern change).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.hits = 0;
        self.misses = 0;
    }

    /// Number of memorised accesses.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the memo empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Approximate memory footprint in bytes (working-memory accounting for
    /// Fig. 12).
    pub fn footprint_bytes(&self) -> usize {
        // Key: (usize, 3×i64) = 32 bytes; value ≤ 16 bytes; HashMap overhead
        // ≈ 1.75× the payload for the default load factor.
        let payload = self.entries.len() * (32 + 16);
        std::mem::size_of::<Self>() + payload + payload * 3 / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_lookup_reset() {
        let mut t = MmatTable::new();
        let a = GlobalAddress::new2d(3, 4);
        assert_eq!(t.lookup(0, a), None);
        t.record(0, a, MmatEntry::InBlock(7));
        assert_eq!(t.lookup(0, a), Some(MmatEntry::InBlock(7)));
        assert_eq!(t.lookup(1, a), None, "keyed by starting block too");
        t.record(1, a, MmatEntry::Remote(5));
        t.record(0, GlobalAddress::new2d(-1, 0), MmatEntry::NonExistent);
        assert_eq!(t.len(), 3);
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 2);
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.hits(), 0);
        assert_eq!(t.misses(), 0);
    }

    #[test]
    fn record_overwrites() {
        let mut t = MmatTable::new();
        let a = GlobalAddress::new2d(0, 0);
        t.record(0, a, MmatEntry::NonExistent);
        t.record(0, a, MmatEntry::Remote(2));
        assert_eq!(t.lookup(0, a), Some(MmatEntry::Remote(2)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn footprint_grows_with_entries() {
        let mut t = MmatTable::new();
        let empty = t.footprint_bytes();
        for i in 0..100 {
            t.record(0, GlobalAddress::new2d(i, 0), MmatEntry::InBlock(i as usize));
        }
        assert!(t.footprint_bytes() > empty);
    }

    proptest! {
        /// Whatever was recorded last for a key is what lookup returns.
        #[test]
        fn last_write_wins(ops in proptest::collection::vec((0usize..4, -8i64..8, -8i64..8, 0usize..3), 1..60)) {
            let mut t = MmatTable::new();
            let mut model: std::collections::HashMap<(usize, GlobalAddress), MmatEntry> = Default::default();
            for (blk, x, y, kind) in ops {
                let addr = GlobalAddress::new2d(x, y);
                let entry = match kind {
                    0 => MmatEntry::InBlock((x.unsigned_abs() as usize) + 1),
                    1 => MmatEntry::Remote(blk + 10),
                    _ => MmatEntry::NonExistent,
                };
                t.record(blk, addr, entry);
                model.insert((blk, addr), entry);
            }
            for ((blk, addr), want) in model {
                prop_assert_eq!(t.lookup(blk, addr), Some(want));
            }
        }
    }
}
