//! Regression test: the recorder's span path is **zero-alloc** once warm.
//!
//! `start` is a clock read + atomic id allocation (no lock, no write);
//! `end_with` files one `Copy` record into a pre-reserved ring slot.  The
//! only cold-path allocations are the ring buffers themselves (reserved at
//! construction) and the first-touch thread-local index, both of which the
//! warm-up loop below pays for before counting begins.
//!
//! A woven dispatch is zero-alloc too: the weave binds each join point's
//! advice chain once, and a dispatch's attributes live on the stack.
//!
//! Counted with `aohpc-testalloc`'s thread-scoped tracking allocator, so
//! concurrent libtest harness threads cannot contribute stray counts.

use aohpc_aop::{attr, names, JoinPointKind, Weaver, WovenProgram};
use aohpc_obs::{ObsHub, ObsRunAspect};
use aohpc_testalloc::count_in;
use aohpc_testalloc::sync::FakeClock;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: aohpc_testalloc::CountingAlloc = aohpc_testalloc::CountingAlloc;

#[test]
fn warm_span_path_is_allocation_free() {
    let clock = FakeClock::new();
    let hub = ObsHub::with_clock_and_capacity(clock, 1024);
    let recorder = hub.recorder();
    let trace = recorder.next_trace_id();

    // Warm-up: initialize this thread's recorder index and touch the ring.
    for _ in 0..8 {
        let open = recorder.start("Obs::warmup", trace, 0);
        recorder.end(open);
    }

    let ((), allocs) = count_in(|| {
        for i in 0..512i64 {
            let open = recorder.start("Kernel::execute_block", trace, 1);
            recorder.end_with(open, i, 4096);
        }
    });
    assert_eq!(allocs, 0, "span start/end must not allocate once warm");

    // Overflow (drop-oldest) must also be allocation-free: push far past the
    // per-shard capacity.
    let ((), allocs) = count_in(|| {
        for i in 0..4096i64 {
            recorder.event("Obs::overflow", trace, 1, i, 0);
        }
    });
    assert_eq!(allocs, 0, "ring overflow path must not allocate");
    assert!(recorder.dropped() > 0, "overflow must have occurred for this test to bite");
}

#[test]
fn warm_histogram_record_is_allocation_free() {
    let clock = FakeClock::new();
    let hub = ObsHub::with_clock(clock);
    hub.metrics().queue_wait_ns.record(1);
    let ((), allocs) = count_in(|| {
        for i in 0..512u64 {
            hub.metrics().queue_wait_ns.record(i * 100);
        }
    });
    assert_eq!(allocs, 0, "histogram record must not allocate");
}

#[test]
fn warm_woven_dispatch_allocates_nothing() {
    let clock = FakeClock::new();
    let hub = ObsHub::with_clock_and_capacity(clock, 1024);
    let trace = hub.recorder().next_trace_id();
    let job = hub.recorder().start("Service::job", trace, 0);
    let woven = Weaver::new()
        .with_aspect(Box::new(ObsRunAspect::new(Arc::clone(&hub), trace, job.span)))
        .weave();
    let empty = WovenProgram::unwoven();
    let mut cells = 0i64;
    let mut block = |woven: &WovenProgram, block: i64| {
        let attrs = [
            (attr::TASK_ID, 0),
            (attr::STEP, 1),
            (attr::WARMUP, 0),
            (attr::BLOCK, block),
            (attr::CELLS, 64),
        ];
        woven.dispatch_with(
            names::KERNEL_BLOCK,
            JoinPointKind::Execution,
            &attrs,
            &mut (),
            &mut |ctx| {
                cells += ctx.attr(attr::CELLS).unwrap_or(0);
            },
        );
    };

    // Warm-up: the recorder's thread index and the span context's slot.
    for i in 0..8 {
        block(&woven, i);
        block(&empty, i);
    }

    let ((), allocs) = count_in(|| {
        for i in 0..512 {
            block(&woven, i);
        }
    });
    assert_eq!(allocs, 0, "a woven block span must not allocate once warm");
    let ((), allocs) = count_in(|| {
        for i in 0..512 {
            block(&empty, i);
        }
    });
    assert_eq!(allocs, 0, "an unadvised dispatch must not allocate");

    assert_eq!(cells, 2 * (8 + 512) * 64, "every body ran");
    assert_eq!(woven.stats().advised_dispatches(), 8 + 512);
    assert_eq!((empty.stats().dispatches(), empty.stats().advised_dispatches()), (8 + 512, 0));
    let blocks = hub.recorder().spans().iter().filter(|s| s.name == names::KERNEL_BLOCK).count();
    assert_eq!(blocks as u64 + hub.recorder().dropped(), 8 + 512, "a span a woven block");
}
