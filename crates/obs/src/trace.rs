//! The flight recorder: per-thread bounded ring buffers of spans.
//!
//! [`TraceRecorder`] hands out span/trace ids from shared counters and files
//! finished [`SpanRecord`]s into one of a fixed set of ring-buffer shards
//! selected by the calling thread, so concurrent workers never contend on a
//! single buffer.  Rings are bounded: once full they drop the *oldest* record
//! and bump [`TraceRecorder::dropped`], flight-recorder style, so a
//! long-running service keeps the most recent window of activity.
//!
//! The hot path is allocation-free after warmup: [`TraceRecorder::start`] is
//! a clock read plus an atomic increment (no lock, no write), and
//! [`TraceRecorder::end`] writes one `Copy` record into a pre-reserved ring
//! slot under a short shard lock.  `crates/obs/tests/no_alloc.rs` enforces
//! this with a tracking allocator.
//!
//! Cross-layer parenting uses a thread-local context stack
//! ([`push_context`] / [`current_context`]): the service pushes the
//! (trace, job-span) pair while a job runs on a worker thread, the run
//! aspect a sweep's span while the sweep runs on its task's thread, and
//! deeper layers (a sweep's blocks) pick it up without any signature
//! threading.

use crate::clock::Clock;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of ring-buffer shards (threads hash onto these).
const SHARDS: usize = 16;

/// Default per-shard capacity (records kept per shard before drop-oldest).
pub const DEFAULT_SHARD_CAPACITY: usize = 16 * 1024;

static NEXT_THREAD_IDX: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_IDX: u64 = NEXT_THREAD_IDX.fetch_add(1, Ordering::Relaxed);
    static CONTEXT: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn thread_idx() -> u64 {
    THREAD_IDX.with(|v| *v)
}

/// The (trace id, span id) pair currently installed on this thread, if any.
pub fn current_context() -> Option<(u64, u64)> {
    CONTEXT.with(|c| c.borrow().last().copied())
}

/// Install a (trace id, span id) context on this thread until the returned
/// guard drops.  Contexts nest.
pub fn push_context(trace: u64, span: u64) -> ContextGuard {
    CONTEXT.with(|c| c.borrow_mut().push((trace, span)));
    ContextGuard(())
}

/// Pops the context pushed by [`push_context`] on drop.
#[must_use = "dropping the guard immediately pops the context"]
pub struct ContextGuard(());

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// One finished span (or instant event, when `start_ns == end_ns`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace (job) this span belongs to; `0` = untraced.
    pub trace: u64,
    /// Unique span id within the recorder.
    pub span: u64,
    /// Parent span id; `0` = root of its trace.
    pub parent: u64,
    /// Join-point / operation name.
    pub name: &'static str,
    /// Start timestamp (clock nanoseconds).
    pub start_ns: u64,
    /// End timestamp; equal to `start_ns` for instant events.
    pub end_ns: u64,
    /// Recorder-assigned index of the thread that finished the span.
    pub thread: u64,
    /// First operation-specific attribute (e.g. block id, plan origin).
    pub a: i64,
    /// Second operation-specific attribute (e.g. cell count, ok flag).
    pub b: i64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A started-but-unfinished span.  `Copy`, so it can live on the stack across
/// the instrumented region without touching the recorder.
#[derive(Debug, Clone, Copy)]
pub struct OpenSpan {
    /// Trace id the span was started under.
    pub trace: u64,
    /// Allocated span id (stable across `end`).
    pub span: u64,
    /// Parent span id.
    pub parent: u64,
    /// Operation name.
    pub name: &'static str,
    /// Start timestamp.
    pub start_ns: u64,
}

struct Ring {
    buf: Vec<SpanRecord>,
    head: usize,
}

impl Ring {
    fn push(&mut self, cap: usize, rec: SpanRecord) -> bool {
        if self.buf.len() < cap {
            self.buf.push(rec);
            false
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % cap;
            true
        }
    }

    fn snapshot(&self, out: &mut Vec<SpanRecord>) {
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
    }
}

/// Sharded, bounded span recorder.
pub struct TraceRecorder {
    clock: Arc<dyn Clock>,
    shards: Vec<Mutex<Ring>>,
    shard_capacity: usize,
    next_span: AtomicU64,
    next_trace: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRecorder {
    /// Recorder with the default per-shard capacity.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self::with_capacity(clock, DEFAULT_SHARD_CAPACITY)
    }

    /// Recorder keeping at most `shard_capacity` records per shard; the
    /// buffers are reserved up front so the record path never allocates.
    pub fn with_capacity(clock: Arc<dyn Clock>, shard_capacity: usize) -> Self {
        let cap = shard_capacity.max(1);
        let shards = (0..SHARDS)
            .map(|_| Mutex::new(Ring { buf: Vec::with_capacity(cap), head: 0 }))
            .collect();
        TraceRecorder {
            clock,
            shards,
            shard_capacity: cap,
            next_span: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Allocate a fresh trace id (one per job).
    pub fn next_trace_id(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Current time according to the recorder's clock.
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Open a span.  Lock-free: the record is only written at [`end`].
    ///
    /// [`end`]: TraceRecorder::end
    pub fn start(&self, name: &'static str, trace: u64, parent: u64) -> OpenSpan {
        OpenSpan {
            trace,
            span: self.next_span.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.clock.now_nanos(),
        }
    }

    /// Finish a span with zeroed attributes.
    pub fn end(&self, open: OpenSpan) {
        self.end_with(open, 0, 0);
    }

    /// Finish a span, attaching two operation-specific attributes.
    pub fn end_with(&self, open: OpenSpan, a: i64, b: i64) {
        let end_ns = self.clock.now_nanos();
        self.record(SpanRecord {
            trace: open.trace,
            span: open.span,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            thread: thread_idx(),
            a,
            b,
        });
    }

    /// Record an instant event (zero-duration span).
    pub fn event(&self, name: &'static str, trace: u64, parent: u64, a: i64, b: i64) {
        let now = self.clock.now_nanos();
        self.record(SpanRecord {
            trace,
            span: self.next_span.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: now,
            end_ns: now,
            thread: thread_idx(),
            a,
            b,
        });
    }

    fn record(&self, rec: SpanRecord) {
        let shard = (rec.thread % SHARDS as u64) as usize;
        let overflowed = self.shards[shard].lock().push(self.shard_capacity, rec);
        if overflowed {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// All retained spans, sorted by (start time, span id).
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            shard.lock().snapshot(&mut out);
        }
        out.sort_by_key(|r| (r.start_ns, r.span));
        out
    }

    /// Number of currently retained spans.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().buf.len()).sum()
    }

    /// Whether no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records dropped to ring-buffer overflow (drop-oldest).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Discard all retained spans (the drop counter is kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut ring = shard.lock();
            ring.buf.clear();
            ring.head = 0;
        }
    }
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("spans", &self.len())
            .field("dropped", &self.dropped())
            .field("shard_capacity", &self.shard_capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::WallClock;
    use aohpc_testalloc::sync::FakeClock;
    use std::time::Duration;

    fn fake_recorder(cap: usize) -> (Arc<FakeClock>, TraceRecorder) {
        let clock = FakeClock::new();
        let rec = TraceRecorder::with_capacity(clock.clone(), cap);
        (clock, rec)
    }

    #[test]
    fn span_roundtrip_records_parent_and_attrs() {
        let (clock, rec) = fake_recorder(64);
        let trace = rec.next_trace_id();
        let root = rec.start("Service::job", trace, 0);
        clock.advance(Duration::from_nanos(50));
        let child = rec.start("Kernel::execute_block", trace, root.span);
        clock.advance(Duration::from_nanos(25));
        rec.end_with(child, 3, 4096);
        rec.end(root);

        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "Service::job");
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[0].duration_ns(), 75);
        assert_eq!(spans[1].parent, spans[0].span);
        assert_eq!(spans[1].a, 3);
        assert_eq!(spans[1].b, 4096);
        assert_eq!(spans[1].duration_ns(), 25);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let (clock, rec) = fake_recorder(4);
        for i in 0..10u64 {
            clock.advance(Duration::from_nanos(1));
            rec.event("X::e", 1, 0, i as i64, 0);
        }
        // Single-threaded: everything lands in one shard of capacity 4.
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        let kept: Vec<i64> = rec.spans().iter().map(|s| s.a).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "the newest records must survive");
    }

    #[test]
    fn clear_retains_drop_counter() {
        let (_clock, rec) = fake_recorder(2);
        for _ in 0..5 {
            rec.event("X::e", 1, 0, 0, 0);
        }
        assert_eq!(rec.dropped(), 3);
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 3);
    }

    #[test]
    fn context_stack_nests_and_pops() {
        assert_eq!(current_context(), None);
        let g1 = push_context(7, 1);
        assert_eq!(current_context(), Some((7, 1)));
        {
            let _g2 = push_context(7, 2);
            assert_eq!(current_context(), Some((7, 2)));
        }
        assert_eq!(current_context(), Some((7, 1)));
        drop(g1);
        assert_eq!(current_context(), None);
    }

    #[test]
    fn wall_clock_spans_are_ordered() {
        let rec = TraceRecorder::new(Arc::new(WallClock::new()));
        let open = rec.start("X::y", 1, 0);
        rec.end(open);
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }
}
