//! Layers, topology and hierarchical task ids.
//!
//! The execution model is task-based: the area to be computed is blocked into
//! fixed-size Blocks and each task updates the Blocks assigned to it.  A
//! concrete machine is described as a stack of layers; each layer's aspect
//! module splits the Blocks allocated by the upper layer among the tasks it
//! creates.  The prototype supports a distributed-memory layer (MPI-like) on
//! top of a shared-memory layer (OpenMP-like), which yields `ranks × threads`
//! tasks with task id `rank * threads + thread`.

use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::task::Waker;
use std::time::Duration;

/// A one-shot completion cell: written once, observable by any number of
/// waiters, pollable both synchronously (condvar) and asynchronously (stored
/// [`Waker`]s).
///
/// This is the runtime's completion-notification primitive: a producer (a
/// worker finishing a task or a service finishing a job) calls
/// [`CompletionSlot::complete`] exactly once; consumers either block in
/// [`CompletionSlot::wait`] / [`CompletionSlot::wait_timeout`], sample with
/// [`CompletionSlot::poll`], or register interest through
/// [`CompletionSlot::poll_with_waker`] (what a `Future` implementation
/// calls).  The first `complete` wins — later calls return `false` and drop
/// their value — which is what makes "every job resolves exactly once"
/// assertable.
pub struct CompletionSlot<T> {
    state: Mutex<SlotInner<T>>,
    cv: Condvar,
}

struct SlotInner<T> {
    value: Option<T>,
    wakers: Vec<Waker>,
}

impl<T> Default for CompletionSlot<T> {
    fn default() -> Self {
        CompletionSlot {
            state: Mutex::new(SlotInner { value: None, wakers: Vec::new() }),
            cv: Condvar::new(),
        }
    }
}

impl<T> CompletionSlot<T> {
    /// An unresolved slot.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, SlotInner<T>> {
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Resolve the slot.  Returns `true` if this call was the one that
    /// resolved it; a slot resolves at most once and later values are
    /// dropped.  All waiters are woken and all registered wakers fired.
    pub fn complete(&self, value: T) -> bool {
        let wakers = {
            let mut inner = self.lock();
            if inner.value.is_some() {
                return false;
            }
            inner.value = Some(value);
            std::mem::take(&mut inner.wakers)
        };
        self.cv.notify_all();
        for waker in wakers {
            waker.wake();
        }
        true
    }

    /// Whether the slot has been resolved.
    pub fn is_complete(&self) -> bool {
        self.lock().value.is_some()
    }
}

impl<T: Clone> CompletionSlot<T> {
    /// The resolved value, if any (non-blocking).
    pub fn poll(&self) -> Option<T> {
        self.lock().value.clone()
    }

    /// The resolved value, or register `waker` to be fired on resolution —
    /// the shape `Future::poll` needs.  Re-polling with a waker that would
    /// wake the same task replaces the old registration instead of
    /// accumulating.
    pub fn poll_with_waker(&self, waker: &Waker) -> Option<T> {
        let mut inner = self.lock();
        if let Some(value) = &inner.value {
            return Some(value.clone());
        }
        if let Some(existing) = inner.wakers.iter_mut().find(|w| w.will_wake(waker)) {
            existing.clone_from(waker);
        } else {
            inner.wakers.push(waker.clone());
        }
        None
    }

    /// Block until the slot resolves.
    pub fn wait(&self) -> T {
        let mut inner = self.lock();
        loop {
            if let Some(value) = &inner.value {
                return value.clone();
            }
            inner = self.cv.wait(inner).unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Block until the slot resolves or `timeout` elapses.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<T> {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            if let Some(value) = &inner.value {
                return Some(value.clone());
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(inner, remaining)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            inner = guard;
        }
    }
}

impl<T> fmt::Debug for CompletionSlot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("CompletionSlot")
            .field("complete", &inner.value.is_some())
            .field("wakers", &inner.wakers.len())
            .finish()
    }
}

/// The kind of a parallel layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// Distributed-memory layer: tasks do not share an Env; data moves by
    /// page communication (MPI in the paper).
    Distributed,
    /// Shared-memory layer: tasks share one Env (OpenMP in the paper).
    Shared,
}

/// One layer of the machine description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerSpec {
    /// Kind of parallel resource this layer manages.
    pub kind: LayerKind,
    /// Number of tasks this layer creates per task of the upper layer.
    pub parallelism: usize,
}

impl LayerSpec {
    /// A distributed layer of `ranks` ranks.
    pub fn distributed(ranks: usize) -> Self {
        LayerSpec { kind: LayerKind::Distributed, parallelism: ranks }
    }

    /// A shared layer of `threads` threads.
    pub fn shared(threads: usize) -> Self {
        LayerSpec { kind: LayerKind::Shared, parallelism: threads }
    }
}

/// The position of a task within the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskSlot {
    /// Global task id (`ch_tid` in the paper's terminology).
    pub task_id: usize,
    /// Rank within the distributed layer.
    pub rank: usize,
    /// Thread index within the shared layer.
    pub thread: usize,
}

/// The machine description: how many ranks and how many threads per rank.
///
/// This is intentionally the two-layer shape the prototype evaluates; the
/// layer list is kept so that additional layers (accelerators, NUMA domains)
/// can be described without changing the public API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    layers: Vec<LayerSpec>,
}

impl Topology {
    /// Build a topology from a layer stack (outermost first).
    ///
    /// Unspecified kinds default to one serial task.  Parallelism values must
    /// be non-zero.
    pub fn new(layers: Vec<LayerSpec>) -> Self {
        assert!(layers.iter().all(|l| l.parallelism > 0), "layer parallelism must be non-zero");
        Topology { layers }
    }

    /// Serial topology: one rank, one thread.
    pub fn serial() -> Self {
        Topology { layers: vec![] }
    }

    /// `ranks × threads` topology.
    pub fn hybrid(ranks: usize, threads: usize) -> Self {
        Topology::new(vec![LayerSpec::distributed(ranks), LayerSpec::shared(threads)])
    }

    /// The layer stack.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Number of ranks in the distributed layer (1 if absent).
    pub fn ranks(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| l.kind == LayerKind::Distributed)
            .map(|l| l.parallelism)
            .product::<usize>()
            .max(1)
    }

    /// Number of threads per rank in the shared layer (1 if absent).
    pub fn threads_per_rank(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| l.kind == LayerKind::Shared)
            .map(|l| l.parallelism)
            .product::<usize>()
            .max(1)
    }

    /// Total number of tasks.
    pub fn total_tasks(&self) -> usize {
        self.ranks() * self.threads_per_rank()
    }

    /// The task slot of `(rank, thread)`.
    pub fn slot(&self, rank: usize, thread: usize) -> TaskSlot {
        debug_assert!(rank < self.ranks() && thread < self.threads_per_rank());
        TaskSlot { task_id: rank * self.threads_per_rank() + thread, rank, thread }
    }

    /// The global task id of a rank's master task (thread 0) — the paper's
    /// `dm_tid` for every block owned by that rank.
    pub fn rank_master_task(&self, rank: usize) -> usize {
        rank * self.threads_per_rank()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rank(s) x {} thread(s)", self.ranks(), self.threads_per_rank())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn serial_topology() {
        let t = Topology::serial();
        assert_eq!(t.ranks(), 1);
        assert_eq!(t.threads_per_rank(), 1);
        assert_eq!(t.total_tasks(), 1);
        assert_eq!(t.slot(0, 0), TaskSlot { task_id: 0, rank: 0, thread: 0 });
        assert_eq!(t.to_string(), "1 rank(s) x 1 thread(s)");
    }

    #[test]
    fn hybrid_task_ids() {
        let t = Topology::hybrid(4, 2);
        assert_eq!(t.total_tasks(), 8);
        assert_eq!(t.slot(0, 0).task_id, 0);
        assert_eq!(t.slot(0, 1).task_id, 1);
        assert_eq!(t.slot(1, 0).task_id, 2);
        assert_eq!(t.slot(3, 1).task_id, 7);
        assert_eq!(t.rank_master_task(2), 4);
        assert_eq!(t.layers().len(), 2);
    }

    #[test]
    fn single_layer_topologies() {
        let mpi = Topology::new(vec![LayerSpec::distributed(8)]);
        assert_eq!(mpi.ranks(), 8);
        assert_eq!(mpi.threads_per_rank(), 1);
        let omp = Topology::new(vec![LayerSpec::shared(16)]);
        assert_eq!(omp.ranks(), 1);
        assert_eq!(omp.threads_per_rank(), 16);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_parallelism_rejected() {
        let _ = Topology::new(vec![LayerSpec::distributed(0)]);
    }

    #[test]
    fn completion_slot_resolves_exactly_once() {
        let slot = CompletionSlot::new();
        assert!(!slot.is_complete());
        assert_eq!(slot.poll(), None);
        assert!(slot.complete(7u32), "first completion wins");
        assert!(!slot.complete(9u32), "second completion is dropped");
        assert!(slot.is_complete());
        assert_eq!(slot.poll(), Some(7));
        assert_eq!(slot.wait(), 7);
        assert_eq!(slot.wait_timeout(std::time::Duration::ZERO), Some(7));
        assert!(format!("{slot:?}").contains("complete: true"));
    }

    #[test]
    fn completion_slot_wakes_blocked_waiters() {
        let slot = std::sync::Arc::new(CompletionSlot::<u64>::new());
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let slot = slot.clone();
                std::thread::spawn(move || slot.wait())
            })
            .collect();
        assert_eq!(slot.wait_timeout(Duration::from_millis(1)), None, "unresolved: times out");
        slot.complete(42);
        for w in waiters {
            assert_eq!(w.join().unwrap(), 42);
        }
    }

    #[test]
    fn completion_slot_fires_registered_wakers() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        struct CountingWake(AtomicUsize);
        impl std::task::Wake for CountingWake {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let counter = Arc::new(CountingWake(AtomicUsize::new(0)));
        let waker = std::task::Waker::from(counter.clone());
        let slot = CompletionSlot::<u8>::new();
        assert_eq!(slot.poll_with_waker(&waker), None);
        // Re-registering the same task does not accumulate wakers.
        assert_eq!(slot.poll_with_waker(&waker), None);
        slot.complete(1);
        assert_eq!(counter.0.load(Ordering::SeqCst), 1, "woken exactly once");
        assert_eq!(slot.poll_with_waker(&waker), Some(1), "resolved slots return immediately");
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
    }

    proptest! {
        /// Master tasks are spaced by the thread count.
        #[test]
        fn master_task_spacing(ranks in 1usize..10, threads in 1usize..10) {
            let topo = Topology::hybrid(ranks, threads);
            for r in 0..ranks {
                prop_assert_eq!(topo.rank_master_task(r), r * threads);
                prop_assert_eq!(topo.slot(r, 0).task_id, r * threads);
            }
        }
    }
}
