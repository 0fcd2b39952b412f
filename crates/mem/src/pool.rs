//! Fixed-size memory pools and chunk allocation.
//!
//! The platform's execution model places every Data Block's buffers on a
//! fixed-size pool so that (a) allocation cost is paid once at start-up and
//! (b) memory usage is observable (Fig. 12 of the paper separates *used pool*,
//! *unused pool* and *working memory*).
//!
//! [`MemoryPool`] is a first-fit allocator over a byte range `0..capacity`.
//! It does not own host memory itself — Rust's typed `Vec<C>` buffers own the
//! bytes — but every buffer registers its backing [`Chunk`] here, so the pool
//! is the single source of truth for accounting and exhaustion behaviour,
//! matching the role Valgrind-measured pools play in the paper's evaluation.

use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// A contiguous range reserved from a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Chunk {
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
    /// out of range).
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

    /// Allocate `len` bytes (first fit). Zero-byte requests succeed and are
    /// tracked so that every buffer owns exactly one chunk.
    pub fn alloc(&mut self, len: u64) -> Result<Chunk, PoolError> {
        if len == 0 {
            self.live_allocations += 1;
            self.total_allocations += 1;
            return Ok(Chunk { offset: 0, len: 0 });
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
                Ok(Chunk { offset: off, len })
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

/// A thread-safe, shareable handle to one pool: buffers allocate through it.
#[derive(Clone)]
pub struct PoolHandle {
    inner: Arc<Mutex<MemoryPool>>,
}

impl PoolHandle {
    /// A handle with one anonymous pool of the given capacity.
    pub fn single(capacity: u64) -> Self {
        PoolHandle { inner: Arc::new(Mutex::new(MemoryPool::new("default", capacity))) }
    }

    /// An effectively unbounded pool — convenient for tests and the
    /// handwritten-comparison runs where pool exhaustion is not under study.
    pub fn unbounded() -> Self {
        Self::single(u64::MAX / 2)
    }

    /// Allocate `len` bytes (first fit).
    pub fn alloc(&self, len: u64) -> Result<Chunk, PoolError> {
        self.inner.lock().alloc(len)
    }

    /// Free a chunk.
    pub fn free(&self, chunk: Chunk) -> Result<(), PoolError> {
        self.inner.lock().free(chunk)
    }

    /// The pool's usage statistics.
    pub fn stats(&self) -> PoolStats {
        self.inner.lock().stats()
    }
}

impl fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolHandle").field("stats", &self.stats()).finish()
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
        let bogus = Chunk { offset: 60, len: 10 };
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
