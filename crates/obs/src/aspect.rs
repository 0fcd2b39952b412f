//! The instrumentation aspects: how observability is *woven*, not inserted.
//!
//! Per the paper's thesis, cross-cutting concerns attach at join points
//! instead of being hand-threaded through every call site.  Two aspect
//! modules cover the stack:
//!
//! - [`ObsServiceAspect`] advises the service-plane join points
//!   ([`names::SERVICE_EXECUTE`], [`names::CACHE_RESOLVE`],
//!   [`names::KERNEL_SPECIALIZE`],
//!   [`names::CLUSTER_PLAN_REQ`], [`names::CLUSTER_PLAN_REP`],
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
//!   job tree.  Under the job span a rank's run reads `Initialize`, one span
//!   per kernel sweep, `Finalize`: `steps` sweeps on one rank, `steps + 1`
//!   (the first flagged warm-up) on several — see `HpcApp::processing`.
//!
//! Both aspects use precedence 10 (outer), so their spans wrap any
//! domain advice (MPI/OMP modules) at shared join points.

use crate::metrics::{Counter, Histogram, Metrics};
use crate::trace::OpenSpan;
use crate::ObsHub;
use aohpc_aop::{attr, names, Advice, AdviceBinding, Aspect, JoinPointKind, Pointcut};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Aspect precedence for observability modules (outer position).
pub const OBS_PRECEDENCE: i32 = 10;

/// Service-plane instrumentation: job execution, plan resolution, and
/// cluster plan traffic.
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
/// run on fabric/pacemaker/supervisor threads with no job context: their
/// spans are trace roots keyed by node.
const SERVICE_BINDINGS: [(&str, JoinPointKind, EndAttr, EndAttr, Meter); 9] = {
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
        (CLUSTER_PLAN_REQ, Call, (OK, 0), (NODE, -1), Elapsed(|m| &m.plan_fetch_ns)),
        (CLUSTER_PLAN_REP, Execution, (NODE, -1), (OK, 0), Elapsed(|m| &m.plan_serve_ns)),
        (CLUSTER_SUSPECT, Call, (NODE, -1), (OK, -1), Count(|m| &m.suspicions)),
        (CLUSTER_FAILOVER, Execution, (NODE, -1), (JOB, -1), Count(|m| &m.failovers)),
        (CLUSTER_REJOIN, Call, (NODE, -1), (STEP, -1), Count(|m| &m.rejoins)),
        (CLUSTER_PARTITION, Call, (NODE, -1), (OK, -1), Count(|m| &m.partitions)),
    ]
};

/// `(task, rank)` of an `Initialize` / `Finalize` dispatch: the attributes
/// its span is filed with.
fn task_and_rank(ctx: &aohpc_aop::JoinPointCtx<'_>) -> (i64, i64) {
    (ctx.attr(attr::TASK_ID).unwrap_or(-1), ctx.attr(attr::RANK).unwrap_or(-1))
}

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

type StepTable = Mutex<HashMap<i64, (OpenSpan, i64, i64)>>;

struct RunState {
    steps: StepTable,
}

/// Per-job kernel-plane instrumentation: `Initialize`, superstep, block and
/// `Finalize` spans.
///
/// Constructed in the service's per-job weave with the job's trace and root
/// span ids; keep a [`RunFinisher`] (via [`ObsRunAspect::finisher`]) to close
/// the step spans still open once the run returns (those of a rank's
/// non-master tasks, and every task's if the run never reached `Finalize`).
pub struct ObsRunAspect {
    hub: Arc<ObsHub>,
    trace: u64,
    job_span: u64,
    state: Arc<RunState>,
}

impl ObsRunAspect {
    /// An aspect parenting all spans under (`trace`, `job_span`).
    pub fn new(hub: Arc<ObsHub>, trace: u64, job_span: u64) -> Self {
        ObsRunAspect {
            hub,
            trace,
            job_span,
            state: Arc::new(RunState { steps: Mutex::new(HashMap::new()) }),
        }
    }

    /// Handle for closing still-open step spans after the run completes.
    pub fn finisher(&self) -> RunFinisher {
        RunFinisher { hub: Arc::clone(&self.hub), state: Arc::clone(&self.state) }
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
        let init_hub = Arc::clone(&self.hub);
        let step_hub = Arc::clone(&self.hub);
        let step_state = Arc::clone(&self.state);
        let block_hub = Arc::clone(&self.hub);
        let block_state = Arc::clone(&self.state);
        let fin_hub = Arc::clone(&self.hub);
        let fin_state = Arc::clone(&self.state);
        let trace = self.trace;
        let job_span = self.job_span;
        vec![
            // Initialize and Finalize run once per rank on its master task,
            // bodies inside the dispatch: plain around-spans under the job.
            AdviceBinding::new(
                Pointcut::execution(names::INITIALIZE),
                Advice::around(move |ctx, proceed| {
                    let open = init_hub.recorder().start(names::INITIALIZE, trace, job_span);
                    proceed(ctx);
                    let (task, rank) = task_and_rank(ctx);
                    init_hub.recorder().end_with(open, task, rank);
                }),
            ),
            // The master task's last step has no successor marker: Finalize
            // is what follows it, so Finalize closes it first — the step
            // span then ends where the sweep did, not after the sink and the
            // teardown.
            AdviceBinding::new(
                Pointcut::execution(names::FINALIZE),
                Advice::around(move |ctx, proceed| {
                    let (task, rank) = task_and_rank(ctx);
                    let last_step = fin_state.steps.lock().remove(&task);
                    if let Some((open, a, b)) = last_step {
                        fin_hub.recorder().end_with(open, a, b);
                    }
                    let open = fin_hub.recorder().start(names::FINALIZE, trace, job_span);
                    proceed(ctx);
                    fin_hub.recorder().end_with(open, task, rank);
                }),
            ),
            // KERNEL_STEP is dispatched as a marker before the sweep body, so
            // a step span runs marker-to-marker: before advice closes the
            // task's previous step span and opens the next one.
            AdviceBinding::new(
                Pointcut::execution(names::KERNEL_STEP),
                Advice::before(move |ctx| {
                    let task = ctx.attr(attr::TASK_ID).unwrap_or(0);
                    let step = ctx.attr(attr::STEP).unwrap_or(-1);
                    let warmup = ctx.attr(attr::WARMUP).unwrap_or(0);
                    let open = step_hub.recorder().start(names::KERNEL_STEP, trace, job_span);
                    let prev = step_state.steps.lock().insert(task, (open, step, warmup));
                    if let Some((prev_open, a, b)) = prev {
                        step_hub.recorder().end_with(prev_open, a, b);
                    }
                }),
            ),
            AdviceBinding::new(
                Pointcut::execution(names::KERNEL_BLOCK),
                Advice::around(move |ctx, proceed| {
                    let task = ctx.attr(attr::TASK_ID).unwrap_or(0);
                    let parent = block_state
                        .steps
                        .lock()
                        .get(&task)
                        .map(|(open, _, _)| open.span)
                        .unwrap_or(job_span);
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

/// Closes step spans left open when a run finishes: the final step of a task
/// has no successor marker, and only a rank's master task runs the `Finalize`
/// that closes its own.
pub struct RunFinisher {
    hub: Arc<ObsHub>,
    state: Arc<RunState>,
}

impl RunFinisher {
    /// End every still-open step span.
    pub fn finish(&self) {
        let drained: Vec<(OpenSpan, i64, i64)> =
            self.state.steps.lock().drain().map(|(_, v)| v).collect();
        for (open, a, b) in drained {
            self.hub.recorder().end_with(open, a, b);
        }
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
        let aspect = ObsRunAspect::new(Arc::clone(&hub), trace, job.span);
        let finisher = aspect.finisher();
        let woven = Weaver::new().with_aspect(Box::new(aspect)).weave();

        for step in 0..2i64 {
            let mut payload = ();
            woven.dispatch_with(
                names::KERNEL_STEP,
                JoinPointKind::Execution,
                &[(attr::TASK_ID, 0), (attr::STEP, step), (attr::WARMUP, 0)],
                &mut payload,
                &mut |_| {},
            );
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
        }
        finisher.finish();
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
        // First step span was closed by the second marker: it covers the
        // first step's blocks (10 + 2*5 ns).
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
            &mut |ctx| ctx.set_attr(attr::ORIGIN, 2),
        );
        let spans = hub.recorder().spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, names::CACHE_RESOLVE);
        assert_eq!(spans[0].trace, 9);
        assert_eq!(spans[0].parent, 1);
        assert_eq!(spans[0].a, 2, "origin published by the body");
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
