//! The spans of a whole run — `Initialize`, one per kernel sweep, `Finalize`
//! — add up to the job, and there are as many sweeps as `HpcApp::processing`
//! promises: `steps` on one rank, `steps + 1` (the first flagged warm-up) on
//! each of several.
//!
//! The app advances a `FakeClock` inside its three functions and nowhere
//! else does time pass, so on one rank every duration is exact.

use aohpc_aop::{names, Weaver};
use aohpc_env::{Env, EnvBuilder, Extent, GlobalAddress, LocalAddress};
use aohpc_mem::PoolHandle;
use aohpc_obs::{ObsHub, ObsRunAspect, SpanRecord};
use aohpc_runtime::{execute, HpcApp, MpiAspect, RunConfig, TaskCtx, Topology};
use aohpc_testalloc::sync::FakeClock;
use std::sync::Arc;
use std::time::Duration;

const STEPS: usize = 3;
const INIT_NS: u64 = 100;
const STEP_NS: u64 = 10;
const FINAL_NS: u64 = 1000;

/// Two 2x2 blocks side by side: one per rank on two ranks.
fn build_env() -> Env<f64> {
    let mut b = EnvBuilder::<f64>::new(PoolHandle::unbounded(), 4);
    let root = b.add_empty(None);
    let joint = b.add_empty(Some(root));
    for i in 0..2 {
        b.add_data(joint, GlobalAddress::new2d(i * 2, 0), Extent::new2d(2, 2), i as u64).unwrap();
    }
    b.build()
}

/// Each of the three functions takes a fixed time on the shared fake clock.
struct Ticking(Arc<FakeClock>);

impl HpcApp<f64> for Ticking {
    fn loop_count(&self) -> usize {
        STEPS
    }

    fn initialize(&mut self, ctx: &mut TaskCtx<f64>) {
        ctx.initialize_owned(|g| g.x as f64);
        self.0.advance(Duration::from_nanos(INIT_NS));
    }

    fn kernel(&mut self, ctx: &mut TaskCtx<f64>, _warmup: bool) -> bool {
        for bid in ctx.get_blocks() {
            let at = LocalAddress::new2d(0, 0);
            let v = ctx.get_dd(bid, at);
            ctx.set(bid, at, v + 1.0);
        }
        self.0.advance(Duration::from_nanos(STEP_NS));
        ctx.refresh()
    }

    fn finalize(&mut self, _ctx: &mut TaskCtx<f64>) {
        self.0.advance(Duration::from_nanos(FINAL_NS));
    }
}

/// Run the app on `topology` under a job span, as the service does; the job
/// span and its children, in start order.
fn traced_run(topology: Topology) -> (SpanRecord, Vec<SpanRecord>) {
    let clock = FakeClock::new();
    let hub = ObsHub::with_clock(clock.clone());
    let trace = hub.recorder().next_trace_id();
    let job = hub.recorder().start("Service::job", trace, 0);
    let aspect = ObsRunAspect::new(Arc::clone(&hub), trace, job.span);
    let finisher = aspect.finisher();
    let mut weaver = Weaver::new().with_aspect(Box::new(aspect));
    if topology.ranks() > 1 {
        weaver = weaver.with_aspect(Box::new(MpiAspect::<f64>::new()));
    }
    let report = execute(
        &RunConfig::serial().with_topology(topology),
        weaver.weave(),
        Arc::new(build_env),
        Arc::new(move |_| Ticking(clock.clone())),
    );
    assert!(report.tasks.iter().all(|t| t.steps == STEPS as u64 && t.retries == 0));
    finisher.finish();
    hub.recorder().end(job);

    let mut spans = hub.recorder().spans();
    spans.sort_by_key(|s| s.span);
    let (roots, children): (Vec<_>, Vec<_>) = spans.into_iter().partition(|s| s.span == job.span);
    assert!(children.iter().all(|s| s.parent == job.span && s.trace == trace));
    (roots[0], children)
}

fn named<'a>(spans: &'a [SpanRecord], name: &str) -> Vec<&'a SpanRecord> {
    spans.iter().filter(|s| s.name == name).collect()
}

/// The span names of one rank's run with `sweeps` kernel sweeps, in order.
fn rank_run(sweeps: usize) -> Vec<&'static str> {
    let mut run = vec![names::INITIALIZE];
    run.extend(vec![names::KERNEL_STEP; sweeps]);
    run.push(names::FINALIZE);
    run
}

#[test]
fn single_rank_job_is_initialize_plus_steps_plus_finalize() {
    let (job, spans) = traced_run(Topology::serial());
    let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    assert_eq!(names, rank_run(STEPS), "Initialize, exactly `steps` step spans, Finalize");

    let steps = named(&spans, names::KERNEL_STEP);
    let flags: Vec<(i64, i64)> = steps.iter().map(|s| (s.a, s.b)).collect();
    assert_eq!(flags, [(0, 0), (1, 0), (2, 0)], "(step, warmup): no warm-up sweep on one rank");
    assert!(steps.iter().all(|s| s.duration_ns() == STEP_NS), "{steps:?}");

    let (init, fin) = (spans[0], spans[spans.len() - 1]);
    assert_eq!((init.duration_ns(), fin.duration_ns()), (INIT_NS, FINAL_NS));
    assert_eq!((init.a, init.b, fin.a, fin.b), (0, 0, 0, 0), "(task, rank)");
    assert_eq!(steps[STEPS - 1].end_ns, fin.start_ns, "the last step ends where Finalize starts");
    let parts: u64 = spans.iter().map(SpanRecord::duration_ns).sum();
    assert_eq!(job.duration_ns(), parts, "job = Initialize + steps + Finalize");
    assert_eq!(parts, INIT_NS + STEPS as u64 * STEP_NS + FINAL_NS);
}

#[test]
fn two_rank_job_keeps_a_flagged_warmup_span_per_rank() {
    let (_, spans) = traced_run(Topology::hybrid(2, 1));
    for (name, want) in
        [(names::INITIALIZE, 2), (names::KERNEL_STEP, 2 * (STEPS + 1)), (names::FINALIZE, 2)]
    {
        assert_eq!(named(&spans, name).len(), want, "{name}");
    }
    // A rank is a thread: its spans in start order are its run in order.
    let mut threads: Vec<u64> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();
    assert_eq!(threads.len(), 2);
    for thread in threads {
        let rank: Vec<&SpanRecord> = spans.iter().filter(|s| s.thread == thread).collect();
        let names: Vec<&str> = rank.iter().map(|s| s.name).collect();
        assert_eq!(names, rank_run(STEPS + 1), "thread {thread}");
        let flags: Vec<(i64, i64)> = rank[1..=STEPS + 1].iter().map(|s| (s.a, s.b)).collect();
        assert_eq!(flags, [(0, 1), (0, 0), (1, 0), (2, 0)], "(step, warmup): the first is flagged");
        assert_eq!((rank[0].a, rank[0].b), (rank[STEPS + 2].a, rank[STEPS + 2].b), "(task, rank)");
    }
}
