//! The instrumentation aspects: how observability is *woven*, not inserted.
//!
//! Per the paper's thesis, cross-cutting concerns attach at join points
//! instead of being hand-threaded through every call site.  Two aspect
//! modules cover the stack:
//!
//! - [`ObsServiceAspect`] advises the service-plane join points
//!   ([`names::SERVICE_EXECUTE`], [`names::CACHE_RESOLVE`],
//!   [`names::KERNEL_SPECIALIZE`],
//!   [`names::CLUSTER_SUSPECT`], [`names::CLUSTER_FAILOVER`],
//!   [`names::CLUSTER_REJOIN`], [`names::CLUSTER_PARTITION`]).  One
//!   instance is woven into the service's own program at construction; the
//!   dispatch sites pass trace/parent ids as integer attributes, so this
//!   module needs no service types at all.
//! - [`ObsRunAspect`] advises the kernel-plane join points
//!   ([`names::INITIALIZE`], [`names::KERNEL_STEP`], [`names::KERNEL_BLOCK`],
//!   [`names::FINALIZE`]) and is woven *per job* with the job's trace and
//!   root-span ids baked in, so spans emitted from rank/worker threads
//!   (which have no thread-local context) still parent correctly into the
//!   job tree.  Every one is an around span over the work it names.  Under
//!   the job span a rank's run reads `Initialize`, one span per kernel sweep,
//!   `Finalize`: `steps` sweeps on one rank, `steps + 1` (the first flagged
//!   warm-up) on several — see `HpcApp::processing`.  A block span parents
//!   into the sweep it runs in.
//!
//! Both aspects use precedence 10 (outer), so their spans wrap any
//! domain advice (MPI/OMP modules) at shared join points.

use crate::metrics::{Counter, Histogram, Metrics};
use crate::trace::{current_context, push_context};
use crate::ObsHub;
use aohpc_aop::{attr, names, Advice, AdviceBinding, Aspect, JoinPointKind, Pointcut};
use std::sync::Arc;

/// Aspect precedence for observability modules (outer position).
pub const OBS_PRECEDENCE: i32 = 10;

/// Service-plane instrumentation: job execution, plan resolution, and
/// cluster liveness and failover.
pub struct ObsServiceAspect {
    hub: Arc<ObsHub>,
}

impl ObsServiceAspect {
    /// An aspect recording into `hub`.
    pub fn new(hub: Arc<ObsHub>) -> Self {
        ObsServiceAspect { hub }
    }
}

/// What a service-plane binding files besides its span.
#[derive(Clone, Copy)]
enum Meter {
    /// The span's duration into a latency histogram.
    Elapsed(fn(&Metrics) -> &Histogram),
    /// One more event.
    Count(fn(&Metrics) -> &Counter),
    /// One more event when the body published `ok == 1`.
    CountIfOk(fn(&Metrics) -> &Counter),
}

/// An attribute a span ends with, and the value filed when it is absent.
type EndAttr = (&'static str, i64);

/// The service-plane bindings, a row each: join point, kind, the two
/// attributes its span ends with, its metric.  Every row is the same advice —
/// open a span named after the join point under the dispatch's
/// `(trace, parent)` attributes, proceed, read the two attributes (the body
/// may have published them), file the metric, end the span.  The cluster rows
/// run in the liveness step or in a replay's settlement, with no job
/// context: their spans are trace roots keyed by node.
const SERVICE_BINDINGS: [(&str, JoinPointKind, EndAttr, EndAttr, Meter); 7] = {
    use attr::{FAMILY, JOB, NODE, OK, ORIGIN, STEP};
    use names::*;
    use JoinPointKind::{Call, Execution};
    use Meter::{Count, CountIfOk, Elapsed};
    [
        (SERVICE_EXECUTE, Execution, (FAMILY, -1), (JOB, -1), Elapsed(|m| &m.execute_ns)),
        // The body publishes how the plan was obtained.
        (CACHE_RESOLVE, Call, (ORIGIN, -1), (FAMILY, -1), Elapsed(|m| &m.resolve_ns)),
        // Once per compile/cache insert, never per block: a span per verdict
        // is cheap.
        (KERNEL_SPECIALIZE, Call, (FAMILY, -1), (OK, 0), CountIfOk(|m| &m.specializations)),
        (CLUSTER_SUSPECT, Call, (NODE, -1), (OK, -1), Count(|m| &m.suspicions)),
        (CLUSTER_FAILOVER, Execution, (NODE, -1), (JOB, -1), Count(|m| &m.failovers)),
        (CLUSTER_REJOIN, Call, (NODE, -1), (STEP, -1), Count(|m| &m.rejoins)),
        (CLUSTER_PARTITION, Call, (NODE, -1), (OK, -1), Count(|m| &m.partitions)),
    ]
};

impl Aspect for ObsServiceAspect {
    fn name(&self) -> &str {
        "obs-service"
    }

    fn precedence(&self) -> i32 {
        OBS_PRECEDENCE
    }

    fn bindings(&self) -> Vec<AdviceBinding> {
        SERVICE_BINDINGS
            .into_iter()
            .map(|(name, kind, a, b, meter)| {
                let hub = Arc::clone(&self.hub);
                let pointcut = match kind {
                    JoinPointKind::Call => Pointcut::call(name),
                    JoinPointKind::Execution => Pointcut::execution(name),
                };
                let advice = Advice::around(move |ctx, proceed| {
                    let trace = ctx.attr(attr::TRACE).unwrap_or(0).max(0) as u64;
                    let parent = ctx.attr(attr::PARENT).unwrap_or(0).max(0) as u64;
                    let open = hub.recorder().start(name, trace, parent);
                    proceed(ctx);
                    let a = ctx.attr(a.0).unwrap_or(a.1);
                    let b = ctx.attr(b.0).unwrap_or(b.1);
                    match meter {
                        Meter::Elapsed(histogram) => histogram(hub.metrics())
                            .record(hub.recorder().now_nanos().saturating_sub(open.start_ns)),
                        Meter::Count(counter) => counter(hub.metrics()).inc(),
                        Meter::CountIfOk(counter) => {
                            if ctx.attr(attr::OK) == Some(1) {
                                counter(hub.metrics()).inc();
                            }
                        }
                    }
                    hub.recorder().end_with(open, a, b);
                });
                AdviceBinding::new(pointcut, advice)
            })
            .collect()
    }
}

/// Per-job kernel-plane instrumentation: `Initialize`, superstep, block and
/// `Finalize` spans, each around the work of its join point.
///
/// Constructed in the service's per-job weave with the job's trace and root
/// span ids.
pub struct ObsRunAspect {
    hub: Arc<ObsHub>,
    trace: u64,
    job_span: u64,
}

impl ObsRunAspect {
    /// An aspect parenting all spans under (`trace`, `job_span`).
    pub fn new(hub: Arc<ObsHub>, trace: u64, job_span: u64) -> Self {
        ObsRunAspect { hub, trace, job_span }
    }
}

impl Aspect for ObsRunAspect {
    fn name(&self) -> &str {
        "obs-run"
    }

    fn precedence(&self) -> i32 {
        OBS_PRECEDENCE
    }

    fn bindings(&self) -> Vec<AdviceBinding> {
        let (trace, job_span) = (self.trace, self.job_span);
        // Initialize and Finalize run once per rank on its master task: a
        // span under the job, filed with `(task, rank)`.
        let phase = |name: &'static str| {
            let hub = Arc::clone(&self.hub);
            AdviceBinding::new(
                Pointcut::execution(name),
                Advice::around(move |ctx, proceed| {
                    let open = hub.recorder().start(name, trace, job_span);
                    proceed(ctx);
                    let task = ctx.attr(attr::TASK_ID).unwrap_or(-1);
                    let rank = ctx.attr(attr::RANK).unwrap_or(-1);
                    hub.recorder().end_with(open, task, rank);
                }),
            )
        };
        let step_hub = Arc::clone(&self.hub);
        let block_hub = Arc::clone(&self.hub);
        vec![
            phase(names::INITIALIZE),
            phase(names::FINALIZE),
            // A sweep runs inside its step's dispatch, so the step span is
            // the sweep itself; while it runs it is the task thread's span
            // context, which its block spans parent into.
            AdviceBinding::new(
                Pointcut::execution(names::KERNEL_STEP),
                Advice::around(move |ctx, proceed| {
                    let open = step_hub.recorder().start(names::KERNEL_STEP, trace, job_span);
                    let sweep = push_context(trace, open.span);
                    proceed(ctx);
                    drop(sweep);
                    let step = ctx.attr(attr::STEP).unwrap_or(-1);
                    let warmup = ctx.attr(attr::WARMUP).unwrap_or(0);
                    step_hub.recorder().end_with(open, step, warmup);
                }),
            ),
            AdviceBinding::new(
                Pointcut::execution(names::KERNEL_BLOCK),
                Advice::around(move |ctx, proceed| {
                    // Outside a sweep of this job, the block files under it.
                    let parent = match current_context() {
                        Some((t, step)) if t == trace => step,
                        _ => job_span,
                    };
                    let open = block_hub.recorder().start(names::KERNEL_BLOCK, trace, parent);
                    proceed(ctx);
                    let block = ctx.attr(attr::BLOCK).unwrap_or(-1);
                    let cells = ctx.attr(attr::CELLS).unwrap_or(0);
                    block_hub.recorder().end_with(open, block, cells);
                }),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aohpc_aop::{JoinPointKind, Weaver};
    use aohpc_testalloc::sync::FakeClock;
    use std::time::Duration;

    fn hub() -> (Arc<FakeClock>, Arc<ObsHub>) {
        let clock = FakeClock::new();
        let hub = ObsHub::with_clock(clock.clone());
        (clock, hub)
    }

    #[test]
    fn run_aspect_builds_job_step_block_tree() {
        let (clock, hub) = hub();
        let trace = hub.recorder().next_trace_id();
        let job = hub.recorder().start("Service::job", trace, 0);
        let woven = Weaver::new()
            .with_aspect(Box::new(ObsRunAspect::new(Arc::clone(&hub), trace, job.span)))
            .weave();

        for step in 0..2i64 {
            woven.dispatch_with(
                names::KERNEL_STEP,
                JoinPointKind::Execution,
                &[(attr::TASK_ID, 0), (attr::STEP, step), (attr::WARMUP, 0)],
                &mut (),
                &mut |_| {
                    clock.advance(Duration::from_nanos(10));
                    for block in 0..2i64 {
                        let mut ran = false;
                        woven.dispatch_with(
                            names::KERNEL_BLOCK,
                            JoinPointKind::Execution,
                            &[(attr::TASK_ID, 0), (attr::BLOCK, block), (attr::CELLS, 64)],
                            &mut ran,
                            &mut |ctx| {
                                clock.advance(Duration::from_nanos(5));
                                *ctx.payload_mut::<bool>().unwrap() = true;
                            },
                        );
                        assert!(ran, "instrumentation must not suppress the body");
                    }
                },
            );
        }
        hub.recorder().end(job);

        let spans = hub.recorder().spans();
        let steps: Vec<_> = spans.iter().filter(|s| s.name == names::KERNEL_STEP).collect();
        let blocks: Vec<_> = spans.iter().filter(|s| s.name == names::KERNEL_BLOCK).collect();
        assert_eq!(steps.len(), 2);
        assert_eq!(blocks.len(), 4);
        for s in &steps {
            assert_eq!(s.parent, job.span);
            assert_eq!(s.trace, trace);
        }
        for b in &blocks {
            assert!(steps.iter().any(|s| s.span == b.parent), "block parents a step span");
            assert_eq!(b.b, 64);
        }
        // The first step span is its sweep: it covers the first step's
        // blocks (10 + 2*5 ns).
        assert_eq!(steps[0].duration_ns(), 20);
    }

    #[test]
    fn service_aspect_reads_body_published_origin() {
        let (_clock, hub) = hub();
        let woven =
            Weaver::new().with_aspect(Box::new(ObsServiceAspect::new(Arc::clone(&hub)))).weave();
        let mut payload = ();
        woven.dispatch_with(
            names::CACHE_RESOLVE,
            JoinPointKind::Call,
            &[(attr::TRACE, 9), (attr::PARENT, 1), (attr::FAMILY, 2)],
            &mut payload,
            &mut |ctx| ctx.set_attr(attr::ORIGIN, 1),
        );
        let spans = hub.recorder().spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, names::CACHE_RESOLVE);
        assert_eq!(spans[0].trace, 9);
        assert_eq!(spans[0].parent, 1);
        assert_eq!(spans[0].a, 1, "origin published by the body");
        assert_eq!(hub.metrics().resolve_ns.count(), 1);
    }

    #[test]
    fn unrelated_join_points_stay_unadvised() {
        let (_clock, hub) = hub();
        let woven =
            Weaver::new().with_aspect(Box::new(ObsServiceAspect::new(Arc::clone(&hub)))).weave();
        assert_eq!(woven.matching_advice_count(names::REFRESH, JoinPointKind::Call), 0);
        assert_eq!(woven.matching_advice_count(names::KERNEL_STEP, JoinPointKind::Execution), 0);
        assert_eq!(
            woven.matching_advice_count(names::SERVICE_EXECUTE, JoinPointKind::Execution),
            1
        );
    }
}
