//! Fixed-size memory pools and chunk allocation.
//!
//! The platform's execution model places every Data Block's buffers on a
//! fixed-size pool so that (a) allocation cost is paid once at start-up,
//! (b) memory usage is observable (Fig. 12 of the paper separates *used pool*,
//! *unused pool* and *working memory*), and (c) a buffer can be assembled
//! from chunks of *several* pools, which is how the paper plans to expose
//! non-uniform memory tiers and memory-mapped files behind one interface.
//!
//! [`MemoryPool`] is a first-fit allocator over a byte range `0..capacity`.
//! It does not own host memory itself — Rust's typed `Vec<C>` buffers own the
//! bytes — but every buffer registers its backing [`Chunk`] here, so the pool
//! is the single source of truth for accounting and exhaustion behaviour,
//! matching the role Valgrind-measured pools play in the paper's evaluation.

use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Identifier of a pool inside a [`PoolSet`].
pub type PoolId = usize;

/// A contiguous range reserved from a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Chunk {
    /// Pool that owns this chunk.
    pub pool: PoolId,
    /// Byte offset of the chunk inside its pool.
    pub offset: u64,
    /// Length of the chunk in bytes.
    pub len: u64,
}

impl Chunk {
    /// Exclusive end offset.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Errors returned by pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// Not enough contiguous free space for the requested allocation.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes currently unused (possibly fragmented).
        available: u64,
    },
    /// The freed chunk was not allocated from this pool (double free or
    /// cross-pool free).
    InvalidFree(Chunk),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::OutOfMemory { requested, available } => write!(
                f,
                "memory pool exhausted: requested {requested} bytes, {available} bytes available"
            ),
            PoolError::InvalidFree(chunk) => {
                write!(f, "invalid free of chunk {chunk:?} (not currently allocated)")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Usage statistics of a pool (the numbers behind Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Bytes currently allocated.
    pub used: u64,
    /// Bytes never or no longer allocated.
    pub unused: u64,
    /// High-water mark of `used`.
    pub peak_used: u64,
    /// Number of live allocations.
    pub live_allocations: u64,
    /// Total number of allocations performed.
    pub total_allocations: u64,
}

/// A fixed-size, first-fit chunk allocator.
#[derive(Debug)]
pub struct MemoryPool {
    id: PoolId,
    name: String,
    capacity: u64,
    /// Sorted, non-overlapping free ranges `(offset, len)`.
    free: Vec<(u64, u64)>,
    used: u64,
    peak_used: u64,
    live_allocations: u64,
    total_allocations: u64,
}

impl MemoryPool {
    /// Create a pool with the given capacity in bytes.
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        MemoryPool {
            id: 0,
            name: name.into(),
            capacity,
            free: if capacity > 0 { vec![(0, capacity)] } else { vec![] },
            used: 0,
            peak_used: 0,
            live_allocations: 0,
            total_allocations: 0,
        }
    }

    /// Pool name (e.g. `"node-local"`, `"mmap"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Identifier assigned by the owning [`PoolSet`] (0 for stand-alone pools).
    pub fn id(&self) -> PoolId {
        self.id
    }

    pub(crate) fn set_id(&mut self, id: PoolId) {
        self.id = id;
    }

    /// Allocate `len` bytes (first fit). Zero-byte requests succeed and are
    /// tracked so that every buffer owns exactly one chunk.
    pub fn alloc(&mut self, len: u64) -> Result<Chunk, PoolError> {
        if len == 0 {
            self.live_allocations += 1;
            self.total_allocations += 1;
            return Ok(Chunk { pool: self.id, offset: 0, len: 0 });
        }
        let slot = self.free.iter().position(|&(_, flen)| flen >= len);
        match slot {
            None => Err(PoolError::OutOfMemory { requested: len, available: self.available() }),
            Some(i) => {
                let (off, flen) = self.free[i];
                if flen == len {
                    self.free.remove(i);
                } else {
                    self.free[i] = (off + len, flen - len);
                }
                self.used += len;
                self.peak_used = self.peak_used.max(self.used);
                self.live_allocations += 1;
                self.total_allocations += 1;
                Ok(Chunk { pool: self.id, offset: off, len })
            }
        }
    }

    /// Return a chunk to the pool, coalescing adjacent free ranges.
    pub fn free(&mut self, chunk: Chunk) -> Result<(), PoolError> {
        if chunk.len == 0 {
            self.live_allocations = self.live_allocations.saturating_sub(1);
            return Ok(());
        }
        if chunk.end() > self.capacity {
            return Err(PoolError::InvalidFree(chunk));
        }
        // Reject frees that overlap an already-free range.
        for &(off, len) in &self.free {
            let free_end = off + len;
            if chunk.offset < free_end && off < chunk.end() {
                return Err(PoolError::InvalidFree(chunk));
            }
        }
        let pos = self.free.partition_point(|&(off, _)| off < chunk.offset);
        self.free.insert(pos, (chunk.offset, chunk.len));
        // Coalesce with neighbours.
        if pos + 1 < self.free.len() {
            let (off, len) = self.free[pos];
            let (noff, nlen) = self.free[pos + 1];
            if off + len == noff {
                self.free[pos] = (off, len + nlen);
                self.free.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (poff, plen) = self.free[pos - 1];
            let (off, len) = self.free[pos];
            if poff + plen == off {
                self.free[pos - 1] = (poff, plen + len);
                self.free.remove(pos);
            }
        }
        self.used -= chunk.len;
        self.live_allocations = self.live_allocations.saturating_sub(1);
        Ok(())
    }

    /// Bytes currently free (possibly fragmented).
    pub fn available(&self) -> u64 {
        self.free.iter().map(|&(_, len)| len).sum()
    }

    /// Current usage statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            capacity: self.capacity,
            used: self.used,
            unused: self.capacity - self.used,
            peak_used: self.peak_used,
            live_allocations: self.live_allocations,
            total_allocations: self.total_allocations,
        }
    }
}

/// A thread-safe handle to a set of pools.
///
/// Buffers allocate through this handle; the paper's design allows one buffer
/// to combine chunks from several pools, so the handle exposes both
/// pool-targeted and "first pool that fits" allocation.
#[derive(Clone)]
pub struct PoolHandle {
    inner: Arc<Mutex<PoolSet>>,
}

impl PoolHandle {
    /// Wrap a pool set.
    pub fn new(set: PoolSet) -> Self {
        PoolHandle { inner: Arc::new(Mutex::new(set)) }
    }

    /// A handle with one anonymous pool of the given capacity.
    pub fn single(capacity: u64) -> Self {
        let mut set = PoolSet::new();
        set.add_pool(MemoryPool::new("default", capacity));
        Self::new(set)
    }

    /// An effectively unbounded pool — convenient for tests and the
    /// handwritten-comparison runs where pool exhaustion is not under study.
    pub fn unbounded() -> Self {
        Self::single(u64::MAX / 2)
    }

    /// Allocate from the first pool with room.
    pub fn alloc(&self, len: u64) -> Result<Chunk, PoolError> {
        self.inner.lock().alloc(len)
    }

    /// Allocate from a specific pool.
    pub fn alloc_in(&self, pool: PoolId, len: u64) -> Result<Chunk, PoolError> {
        self.inner.lock().alloc_in(pool, len)
    }

    /// Free a chunk.
    pub fn free(&self, chunk: Chunk) -> Result<(), PoolError> {
        self.inner.lock().free(chunk)
    }

    /// Aggregate statistics over all pools.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats()
    }

    /// Per-pool statistics.
    pub fn per_pool_stats(&self) -> Vec<(String, PoolStats)> {
        self.inner.lock().per_pool_stats()
    }
}

impl fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolHandle").field("stats", &self.stats()).finish()
    }
}

/// An ordered collection of pools.
#[derive(Debug, Default)]
pub struct PoolSet {
    pools: Vec<MemoryPool>,
}

impl PoolSet {
    /// Empty set.
    pub fn new() -> Self {
        PoolSet { pools: Vec::new() }
    }

    /// Add a pool; returns its id within the set.
    pub fn add_pool(&mut self, mut pool: MemoryPool) -> PoolId {
        let id = self.pools.len();
        pool.set_id(id);
        self.pools.push(pool);
        id
    }

    /// Number of pools.
    pub fn len(&self) -> usize {
        self.pools.len()
    }

    /// Whether the set has no pools.
    pub fn is_empty(&self) -> bool {
        self.pools.is_empty()
    }

    /// Allocate from the first pool that can satisfy the request.
    pub fn alloc(&mut self, len: u64) -> Result<Chunk, PoolError> {
        let mut best_err = PoolError::OutOfMemory { requested: len, available: 0 };
        for pool in &mut self.pools {
            match pool.alloc(len) {
                Ok(chunk) => return Ok(chunk),
                Err(e) => best_err = e,
            }
        }
        Err(best_err)
    }

    /// Allocate from a specific pool.
    pub fn alloc_in(&mut self, pool: PoolId, len: u64) -> Result<Chunk, PoolError> {
        match self.pools.get_mut(pool) {
            Some(p) => p.alloc(len),
            None => Err(PoolError::OutOfMemory { requested: len, available: 0 }),
        }
    }

    /// Free a chunk back to its owning pool.
    pub fn free(&mut self, chunk: Chunk) -> Result<(), PoolError> {
        match self.pools.get_mut(chunk.pool) {
            Some(p) => p.free(chunk),
            None => Err(PoolError::InvalidFree(chunk)),
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> PoolStats {
        let mut agg = PoolStats::default();
        for p in &self.pools {
            let s = p.stats();
            agg.capacity += s.capacity;
            agg.used += s.used;
            agg.unused += s.unused;
            agg.peak_used += s.peak_used;
            agg.live_allocations += s.live_allocations;
            agg.total_allocations += s.total_allocations;
        }
        agg
    }

    /// Per-pool statistics with pool names.
    pub fn per_pool_stats(&self) -> Vec<(String, PoolStats)> {
        self.pools.iter().map(|p| (p.name().to_string(), p.stats())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut pool = MemoryPool::new("p", 1024);
        let a = pool.alloc(100).unwrap();
        let b = pool.alloc(200).unwrap();
        assert_eq!(pool.stats().used, 300);
        assert_eq!(pool.stats().unused, 724);
        pool.free(a).unwrap();
        assert_eq!(pool.stats().used, 200);
        pool.free(b).unwrap();
        assert_eq!(pool.stats().used, 0);
        assert_eq!(pool.available(), 1024);
        assert_eq!(pool.stats().peak_used, 300);
        assert_eq!(pool.stats().total_allocations, 2);
        assert_eq!(pool.stats().live_allocations, 0);
    }

    #[test]
    fn out_of_memory() {
        let mut pool = MemoryPool::new("p", 128);
        assert!(pool.alloc(100).is_ok());
        let err = pool.alloc(64).unwrap_err();
        assert!(matches!(err, PoolError::OutOfMemory { requested: 64, available: 28 }));
    }

    #[test]
    fn fragmentation_then_coalesce() {
        let mut pool = MemoryPool::new("p", 300);
        let a = pool.alloc(100).unwrap();
        let b = pool.alloc(100).unwrap();
        let c = pool.alloc(100).unwrap();
        pool.free(a).unwrap();
        pool.free(c).unwrap();
        // 200 bytes free but fragmented: a 150-byte allocation must fail.
        assert!(pool.alloc(150).is_err());
        pool.free(b).unwrap();
        // Coalesced back to a single 300-byte range.
        assert!(pool.alloc(300).is_ok());
    }

    #[test]
    fn double_free_rejected() {
        let mut pool = MemoryPool::new("p", 64);
        let a = pool.alloc(32).unwrap();
        pool.free(a).unwrap();
        assert!(matches!(pool.free(a), Err(PoolError::InvalidFree(_))));
    }

    #[test]
    fn free_out_of_range_rejected() {
        let mut pool = MemoryPool::new("p", 64);
        let bogus = Chunk { pool: 0, offset: 60, len: 10 };
        assert!(matches!(pool.free(bogus), Err(PoolError::InvalidFree(_))));
    }

    #[test]
    fn zero_sized_allocations() {
        let mut pool = MemoryPool::new("p", 0);
        let c = pool.alloc(0).unwrap();
        assert_eq!(c.len, 0);
        pool.free(c).unwrap();
        assert!(pool.alloc(1).is_err());
    }

    #[test]
    fn pool_set_falls_through_pools() {
        let mut set = PoolSet::new();
        set.add_pool(MemoryPool::new("small", 64));
        set.add_pool(MemoryPool::new("large", 1024));
        let a = set.alloc(32).unwrap();
        assert_eq!(a.pool, 0);
        let b = set.alloc(512).unwrap();
        assert_eq!(b.pool, 1, "second pool must satisfy what the first cannot");
        set.free(a).unwrap();
        set.free(b).unwrap();
        assert_eq!(set.stats().used, 0);
        assert_eq!(set.stats().capacity, 1088);
    }

    #[test]
    fn pool_set_targeted_allocation() {
        let mut set = PoolSet::new();
        let p0 = set.add_pool(MemoryPool::new("a", 64));
        let p1 = set.add_pool(MemoryPool::new("b", 64));
        let c = set.alloc_in(p1, 10).unwrap();
        assert_eq!(c.pool, p1);
        assert!(set.alloc_in(p0, 128).is_err());
        assert!(set.alloc_in(99, 1).is_err());
    }

    #[test]
    fn handle_is_shareable_across_threads() {
        let handle = PoolHandle::single(1 << 20);
        let mut joins = Vec::new();
        for _ in 0..4 {
            let h = handle.clone();
            joins.push(std::thread::spawn(move || {
                let c = h.alloc(1024).unwrap();
                h.free(c).unwrap();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(handle.stats().used, 0);
        assert_eq!(handle.stats().total_allocations, 4);
    }

    #[test]
    fn per_pool_stats_names() {
        let mut set = PoolSet::new();
        set.add_pool(MemoryPool::new("hbm", 10));
        set.add_pool(MemoryPool::new("ddr", 20));
        let handle = PoolHandle::new(set);
        let stats = handle.per_pool_stats();
        assert_eq!(stats[0].0, "hbm");
        assert_eq!(stats[1].0, "ddr");
        assert_eq!(stats[1].1.capacity, 20);
    }

    proptest! {
        /// Allocating a random sequence and freeing everything restores the
        /// full capacity with one coalesced free range.
        #[test]
        fn alloc_free_conservation(sizes in proptest::collection::vec(1u64..256, 1..40)) {
            let capacity: u64 = 1 << 16;
            let mut pool = MemoryPool::new("p", capacity);
            let mut chunks = Vec::new();
            for s in &sizes {
                match pool.alloc(*s) {
                    Ok(c) => chunks.push(c),
                    Err(_) => break,
                }
            }
            let used: u64 = chunks.iter().map(|c| c.len).sum();
            prop_assert_eq!(pool.stats().used, used);
            // Chunks never overlap.
            let mut sorted = chunks.clone();
            sorted.sort_by_key(|c| c.offset);
            for w in sorted.windows(2) {
                prop_assert!(w[0].end() <= w[1].offset);
            }
            for c in chunks {
                pool.free(c).unwrap();
            }
            prop_assert_eq!(pool.stats().used, 0);
            prop_assert_eq!(pool.available(), capacity);
        }

        /// used + unused always equals capacity.
        #[test]
        fn used_plus_unused_is_capacity(ops in proptest::collection::vec(1u64..512, 1..30)) {
            let mut pool = MemoryPool::new("p", 4096);
            let mut live = Vec::new();
            for (i, s) in ops.iter().enumerate() {
                if i % 3 == 2 && !live.is_empty() {
                    let c = live.swap_remove(i % live.len());
                    pool.free(c).unwrap();
                } else if let Ok(c) = pool.alloc(*s) {
                    live.push(c);
                }
                let stats = pool.stats();
                prop_assert_eq!(stats.used + stats.unused, stats.capacity);
            }
        }
    }
}
