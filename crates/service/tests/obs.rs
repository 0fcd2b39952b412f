//! Observability integration tests: deterministic traces under the fake
//! clock, cross-validated snapshots at quiescence, and per-job trace
//! linkage on every node of a cluster sharing one hub.
//!
//! The determinism property is the observability analogue of the harness's
//! "no timing guesses" rule: with a [`FakeClock`] driving both the service
//! and the hub, the *entire* flight recording — span ids, parent edges,
//! names, attributes, timestamps — is a pure function of the submitted
//! workload.

use aohpc_obs::SpanRecord;
use aohpc_service::{ClusterService, JobSpec, KernelService, ObsHub, ServiceConfig, SessionSpec};
use aohpc_testalloc::sync::FakeClock;
use aohpc_workloads::Scale;
use proptest::prelude::*;

/// The four distinct programs the workload generator can draw from.
fn job(kind: usize) -> JobSpec {
    match kind % 4 {
        0 => JobSpec::jacobi(Scale::Smoke),
        1 => JobSpec::smooth(Scale::Smoke),
        2 => JobSpec::particle(Scale::Smoke),
        _ => JobSpec::usgrid(Scale::Smoke),
    }
}

/// Everything observable about a span except the recorder's thread index
/// (worker threads are interchangeable; one worker makes the rest of the
/// record deterministic).
type NormalizedSpan = (u64, u64, u64, &'static str, u64, u64, i64, i64);

fn normalize(spans: &[SpanRecord]) -> Vec<NormalizedSpan> {
    let mut out: Vec<_> = spans
        .iter()
        .map(|s| (s.trace, s.span, s.parent, s.name, s.start_ns, s.end_ns, s.a, s.b))
        .collect();
    out.sort_unstable();
    out
}

/// Run `kinds` through a fresh single-worker service on a fresh fake-clocked
/// hub and return the normalized flight recording.
fn record_run(kinds: &[usize]) -> Vec<NormalizedSpan> {
    let clock = FakeClock::new();
    let hub = ObsHub::with_clock(clock.clone());
    let service = KernelService::with_observer_and_clock(
        ServiceConfig::default().with_workers(1),
        std::sync::Arc::clone(&hub),
        clock,
    );
    let session = service.open_session(SessionSpec::tenant("det"));
    for &kind in kinds {
        // Blocking submit + per-job wait keeps the queue depth at most one,
        // so the single worker consumes jobs in submission order.
        service.submit(session, job(kind)).expect("admitted").wait().expect("executed");
    }
    let _ = service.drain();
    let spans = hub.recorder().spans();
    service.shutdown();
    normalize(&spans)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same workload, two fresh service+hub pairs on fake clocks: the two
    /// flight recordings are identical record-for-record — span ids, parent
    /// edges, attributes, and (never-advanced) timestamps all included.
    #[test]
    fn traces_are_deterministic_under_fake_clock(kinds in proptest::collection::vec(0usize..4, 1..5)) {
        let first = record_run(&kinds);
        let second = record_run(&kinds);
        prop_assert!(!first.is_empty(), "an observed run records spans");
        prop_assert_eq!(first, second);
    }
}

/// After a drained run the snapshot's cross-counter invariants all hold:
/// cache ledger (`misses == compiles`), lane sums, queue-wait
/// count vs job count, and the histogram's internal ordering.
#[test]
fn snapshot_validates_clean_at_quiescence() {
    let hub = ObsHub::new();
    let service = KernelService::with_observer(
        ServiceConfig::default().with_workers(2),
        std::sync::Arc::clone(&hub),
    );
    let session = service.open_session(SessionSpec::tenant("snap"));
    let mut handles = Vec::new();
    for round in 0..3 {
        for kind in 0..4 {
            handles.push(service.submit(session, job(kind + round)).expect("admitted"));
        }
    }
    let reports = service.drain();
    assert_eq!(reports.len(), 12);

    // Every report carries its trace id and phase breakdown.
    for report in &reports {
        assert!(report.error.is_none(), "job failed: {:?}", report.error);
        assert!(report.trace_id.is_some(), "observed jobs are traced");
        assert!(report.execute_time > std::time::Duration::ZERO, "execute phase was timed");
    }
    let traces: std::collections::HashSet<_> =
        reports.iter().map(|r| r.trace_id.unwrap()).collect();
    assert_eq!(traces.len(), reports.len(), "each job gets a distinct trace id");

    // Queue-wait percentiles surface through the plain admission stats too.
    let admission = service.admission_stats();
    assert!(admission.queue_wait_p99_ns >= admission.queue_wait_p50_ns);

    let snapshot = service.obs_snapshot().expect("observer installed");
    let violations = snapshot.validate();
    assert!(violations.is_empty(), "snapshot inconsistent: {violations:?}");
    assert_eq!(snapshot.jobs.completed, 12);
    assert_eq!(snapshot.jobs.failed, 0);
    service.shutdown();
}

/// A two-node cluster with one shared hub: each node compiles the plan
/// itself, each job's resolve and superstep → block spans sit inside that
/// job's own trace, no application control frame crosses the fabric, and
/// the cluster-wide snapshot cross-validates clean.
#[test]
fn cluster_job_spans_link_into_each_jobs_trace() {
    use aohpc_aop::names;

    let hub = ObsHub::new();
    let cluster = ClusterService::with_observer(
        2,
        ServiceConfig::default().with_workers(1),
        std::sync::Arc::clone(&hub),
    );
    // The same program on both nodes: each compiles it once.
    for node in 0..2 {
        let session = cluster.open_session_on(node, SessionSpec::tenant(format!("n{node}")));
        cluster.submit(session, job(0)).expect("admitted");
    }
    let reports = cluster.drain();
    assert_eq!(reports.len(), 2);

    let spans = hub.recorder().spans();
    for report in &reports {
        let trace = report.trace_id.expect("traced");
        let in_trace = |name: &str| {
            spans.iter().filter(|s| s.trace == trace && s.name == name).collect::<Vec<_>>()
        };
        let root = spans
            .iter()
            .find(|s| s.trace == trace && s.name == "Service::job" && s.parent == 0)
            .expect("the job has a root span");
        let resolves = in_trace(names::CACHE_RESOLVE);
        assert_eq!(resolves.len(), 1, "trace {trace}: one pre-warm resolve");
        assert_eq!(resolves[0].parent, root.span, "the resolve parents into the job root");
        let steps: std::collections::HashSet<u64> =
            in_trace(names::KERNEL_STEP).iter().map(|s| s.span).collect();
        let blocks = in_trace(names::KERNEL_BLOCK);
        assert!(!steps.is_empty() && !blocks.is_empty(), "trace {trace}: sweeps and blocks");
        assert!(blocks.iter().all(|b| steps.contains(&b.parent)), "blocks parent into sweeps");
    }

    let snapshot = cluster.obs_snapshot().expect("observer installed");
    let violations = snapshot.validate();
    assert!(violations.is_empty(), "cluster snapshot inconsistent: {violations:?}");
    let comm = snapshot.comm.expect("fabric attached");
    assert_eq!(comm.control_sent, 0, "the job path sends no application control frame");
    assert_eq!(snapshot.cache.as_ref().unwrap().compiles, 2, "one compile on each node");
    cluster.shutdown();
}

/// A traced job of every family: every block pass is a `Kernel::execute_block`
/// span under its sweep's `Annotation::KernelStep` span — blocks × sweeps of
/// them, each block once a sweep.  Each job is four 8x8 blocks: a 16x16 grid
/// for the stencil and usgrid jobs, and 1,000 particles make a 16x16 bucket
/// grid.  One rank sweeps `steps` times over all four, each of two ranks
/// `steps + 1` times (the warm-up) over its two.
#[test]
fn every_family_job_has_a_block_span_per_block_and_sweep() {
    use aohpc_aop::names;
    use aohpc_kernel::{ParticleProgram, StencilProgram, UsGridProgram};
    use aohpc_runtime::Topology;
    use aohpc_workloads::RegionSize;

    let steps = 3;
    let region = RegionSize::square(16);
    let families = [
        ("stencil", JobSpec::new(StencilProgram::jacobi_5pt(), vec![0.5, 0.125], region)),
        ("usgrid", JobSpec::new(UsGridProgram::jacobi4(), vec![0.5, 0.125], region)),
        (
            "particle",
            JobSpec::new(ParticleProgram::pair_sweep(), vec![1.0, 1e-3], region)
                .with_particles(1000),
        ),
    ];
    for (family, spec) in families {
        for (ranks, blocks_a_sweep) in [(1, 4), (2, 2)] {
            let at = format!("{family}, {ranks} ranks");
            let hub = ObsHub::new();
            let service = KernelService::with_observer(
                ServiceConfig::default().with_workers(1),
                std::sync::Arc::clone(&hub),
            );
            let session = service.open_session(SessionSpec::tenant("blocks"));
            let spec = spec
                .clone()
                .with_block(8)
                .with_steps(steps)
                .with_topology(Topology::hybrid(ranks, 1));
            let report = service.submit(session, spec).expect("admitted").wait().expect("executed");
            assert_eq!(report.error, None, "{at}");
            let trace = report.trace_id.expect("observed jobs are traced");
            let spans: Vec<SpanRecord> =
                hub.recorder().spans().into_iter().filter(|s| s.trace == trace).collect();
            let named = |name: &str| spans.iter().filter(|s| s.name == name).collect::<Vec<_>>();
            let (sweeps, blocks) = (named(names::KERNEL_STEP), named(names::KERNEL_BLOCK));
            let sweeps_a_rank = steps + usize::from(ranks > 1);
            assert_eq!(sweeps.len(), ranks * sweeps_a_rank, "{at}: sweeps");
            assert_eq!(blocks.len(), 4 * sweeps_a_rank, "{at}: blocks x sweeps");
            for sweep in &sweeps {
                let mut under: Vec<(i64, i64)> =
                    blocks.iter().filter(|b| b.parent == sweep.span).map(|b| (b.a, b.b)).collect();
                under.sort_unstable();
                under.dedup();
                assert_eq!(under.len(), blocks_a_sweep, "{at}: distinct blocks a sweep");
                assert!(under.iter().all(|&(_, cells)| cells == 64), "{at}: 8x8 cells a block");
            }
            service.shutdown();
        }
    }
}
