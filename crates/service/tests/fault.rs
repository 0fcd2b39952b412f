//! Fault-tolerance drills: kill a node, keep the answer.
//!
//! Every test stands up a [`ClusterService`] on a shared [`FakeClock`] with a
//! scripted [`FaultPlan`], so failure detection is fully test-controlled:
//! kills, node wedges and frame perturbations fire exactly when the test
//! advances the clock past their scheduled times.  The invariants:
//!
//! 1. **Zero lost jobs** — every accepted submission resolves its
//!    [`JobHandle`] exactly once, kill schedule or not: executed in place,
//!    replayed on a survivor (with [`FailoverProvenance`]), and only with no
//!    survivor left abandoned with a typed error.
//! 2. **Bit identity** — a replayed job's checksum equals, bit for bit, the
//!    checksum a plain single-node `KernelService` computes for the same
//!    spec.  Failover never changes an answer.
//! 3. **Liveness hygiene** — a wedged node is *suspected*, not buried: it
//!    re-earns Alive after its cooldown, and the detector records zero
//!    deaths.
//! 4. **No failover machinery of its own** — the kill re-homes its orphans
//!    in the liveness step, on the rendezvous survivor of that step, and
//!    each replay settles its original from its own completion: a fake-clock
//!    cluster starts no thread beside its workers, and `drain` returns with
//!    every original handle resolved.

use aohpc_kernel::{load, param, StencilProgram};
use aohpc_service::{
    rendezvous_owner, ClusterService, ClusterSessionId, ClusterTuning, FaultPlan, JobHandle,
    JobSpec, KernelService, NodeState, ServiceConfig, SessionSpec,
};
use aohpc_testalloc::sync::{spin_until, FakeClock};
use aohpc_workloads::RegionSize;
use proptest::collection;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Wake, Waker};
use std::time::Duration;

/// The program palette: three structurally distinct kernels, sized so one
/// job occupies a worker for a macroscopic time — a kill landing mid-batch
/// finds queued jobs to orphan.
fn programs() -> [JobSpec; 3] {
    let anisotropic = StencilProgram::new(
        "anisotropic",
        param(0) * load(0, 0) + param(1) * (load(1, 0) + load(-1, 0)) - load(0, 1) * 0.25,
        2,
    )
    .unwrap();
    let base = |p: StencilProgram| {
        JobSpec::new(p, vec![0.5, 0.125], RegionSize::square(32)).with_block(8).with_steps(256)
    };
    [base(StencilProgram::jacobi_5pt()), base(StencilProgram::smooth_9pt()), base(anisotropic)]
}

/// A cheap, structurally distinct post-recovery program (not in the palette).
fn post_recovery_spec() -> JobSpec {
    let program = StencilProgram::new(
        "post-recovery",
        param(0) * load(0, 0) + 0.125 * (load(1, 0) + load(0, 1)),
        1,
    )
    .unwrap();
    JobSpec::new(program, vec![0.5], RegionSize::square(16)).with_block(8).with_steps(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole property: under a random kill schedule (one or two
    /// distinct ranks of three, at random detector times) and a random
    /// submit interleaving, every job resolves, every checksum is
    /// bit-identical to the single-node reference, every failover carries
    /// provenance naming a killed rank, and the surviving cluster still
    /// compiles new plans afterwards.
    #[test]
    fn kill_schedules_lose_no_jobs_and_change_no_answers(
        kill_spec in collection::vec((0usize..3, 30u64..100), 1..3),
        submissions in collection::vec((0usize..3, 0usize..3), 4..12),
    ) {
        let palette = programs();

        // Reference checksums from a plain single node.
        let reference: Vec<u64> = {
            let single = KernelService::new(ServiceConfig::default().with_workers(1));
            let session = single.open_session(SessionSpec::tenant("ref"));
            let mut sums = Vec::new();
            for spec in &palette {
                let report = single.submit(session, spec.clone()).unwrap().wait().unwrap();
                prop_assert_eq!(&report.error, &None);
                sums.push(report.checksum.to_bits());
            }
            sums
        };

        // Dedupe kill ranks (first scheduled time wins); three nodes and at
        // most two kills always leaves a survivor.
        let mut killed: Vec<(usize, u64)> = Vec::new();
        for &(rank, at_ms) in &kill_spec {
            if !killed.iter().any(|&(r, _)| r == rank) {
                killed.push((rank, at_ms));
            }
        }
        let killed_ranks: Vec<usize> = killed.iter().map(|&(r, _)| r).collect();

        let clock = FakeClock::new();
        let mut plan = FaultPlan::new();
        for &(rank, at_ms) in &killed {
            plan = plan.kill_at(rank, Duration::from_millis(at_ms));
        }
        let cluster = ClusterService::with_fake_clock(
            3,
            ServiceConfig::default().with_workers(1),
            clock.clone(),
            ClusterTuning::fast(),
            plan,
            None,
        );
        let sessions: Vec<_> = (0..3)
            .map(|n| cluster.open_session_on(n, SessionSpec::tenant(format!("t{n}"))))
            .collect();

        // Submit everything before any fault fires, then run the schedule.
        let mut handles = Vec::new();
        for &(node, program) in &submissions {
            let handle = cluster.submit(sessions[node], palette[program].clone()).unwrap();
            handles.push((handle, program));
        }
        for _ in 0..40 {
            clock.advance(Duration::from_millis(10));
        }

        // Zero lost jobs, bit-identical answers, auditable failovers.
        let mut failovers = 0usize;
        for (handle, program) in &handles {
            let outcome = handle.wait_timeout(Duration::from_secs(60));
            prop_assert!(outcome.is_some(), "a job's handle never resolved");
            let report = match outcome.unwrap() {
                Ok(report) => report,
                Err(err) => return Err(TestCaseError::fail(format!(
                    "job lost under kill schedule {killed_ranks:?}: {err:?}"
                ))),
            };
            prop_assert_eq!(&report.error, &None);
            prop_assert_eq!(
                report.checksum.to_bits(),
                reference[*program],
                "failover changed the answer for program {}",
                program
            );
            if let Some(provenance) = &report.failover {
                failovers += 1;
                prop_assert!(
                    killed_ranks.contains(&provenance.from_node),
                    "provenance names a rank that was never killed: {:?}",
                    provenance
                );
                prop_assert!(provenance.to_node != provenance.from_node);
            }
        }
        let _ = failovers; // how many is schedule-dependent; zero is legal

        // The resolve ledger stays balanced under faults: every miss ended
        // in exactly one local compile, and nothing was fetched.
        let stats = cluster.cache_stats();
        prop_assert_eq!(stats.total.misses, stats.total.compiles);
        prop_assert_eq!(stats.total.fetches, 0);

        // Post-recovery: the survivor that runs a brand-new plan compiles it
        // exactly once.
        let survivor = (0..3).find(|r| !killed_ranks.contains(r)).unwrap();
        let before = cluster.cache_stats().total.compiles;
        let session = cluster.open_session_on(survivor, SessionSpec::tenant("post"));
        let report = cluster
            .submit(session, post_recovery_spec())
            .unwrap()
            .wait_timeout(Duration::from_secs(60))
            .expect("post-recovery job resolved")
            .expect("post-recovery job succeeded");
        prop_assert_eq!(&report.error, &None);
        prop_assert_eq!(cluster.cache_stats().total.compiles, before + 1);

        cluster.shutdown();
    }
}

/// A wedged node is *suspected* — the live view drops it — but
/// once un-wedged it re-earns Alive past the suspicion cooldown.  No death is declared, nothing fails over, and the node serves
/// jobs again.
#[test]
fn wedged_fabric_is_suspected_then_recovers() {
    let clock = FakeClock::new();
    let plan = FaultPlan::new()
        .wedge_at(1, Duration::from_millis(20))
        .unwedge_at(1, Duration::from_millis(100));
    let cluster = ClusterService::with_fake_clock(
        2,
        ServiceConfig::default().with_workers(1),
        clock.clone(),
        ClusterTuning::fast(),
        plan,
        None,
    );

    let mut saw_suspect = false;
    let mut recovered = false;
    for _ in 0..300 {
        clock.advance(Duration::from_millis(10));
        if cluster.node_state(0, 1) == NodeState::Suspect {
            saw_suspect = true;
        }
        if saw_suspect && cluster.membership_stats(0).recoveries >= 1 {
            recovered = true;
            break;
        }
    }
    let stats = cluster.membership_stats(0);
    assert!(saw_suspect, "rank 0 never suspected the wedged rank 1: {stats:?}");
    assert!(recovered, "rank 1 never re-earned Alive after un-wedging: {stats:?}");
    assert_eq!(stats.deaths, 0, "a transient wedge must not be declared dead");
    assert_eq!(cluster.node_state(0, 1), NodeState::Alive);

    // Both nodes still serve jobs after the episode.
    for node in 0..2 {
        let session = cluster.open_session_on(node, SessionSpec::tenant(format!("post{node}")));
        let report = cluster
            .submit(session, post_recovery_spec())
            .unwrap()
            .wait_timeout(Duration::from_secs(30))
            .expect("post-wedge job resolved")
            .expect("post-wedge job succeeded");
        assert_eq!(report.error, None);
    }
    cluster.shutdown();
}

/// Parks the worker that wakes it, inside the settlement of the job it is
/// registered on, until the test opens it: the jobs queued behind that job
/// stay queued.
#[derive(Default)]
struct Gate {
    entered: AtomicBool,
    open: Mutex<bool>,
    opened: Condvar,
}

impl Wake for Gate {
    fn wake(self: Arc<Self>) {
        self.entered.store(true, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

const NODES: usize = 4;
const DOOMED: usize = 1;

/// Park `session`'s node's one worker inside the wake-up of a cheap job until
/// the returned gate opens: jobs queued behind it stay queued.
fn park_worker(cluster: &ClusterService, session: ClusterSessionId) -> Arc<Gate> {
    let gate = loop {
        let gate = Arc::new(Gate::default());
        let mut blocker = cluster.submit(session, post_recovery_spec()).unwrap();
        let waker = Waker::from(Arc::clone(&gate));
        let mut cx = Context::from_waker(&waker);
        if std::future::Future::poll(std::pin::Pin::new(&mut blocker), &mut cx).is_pending() {
            break gate;
        }
        // The worker finished the blocker before the gate was on it: again.
    };
    spin_until("the worker parks", || gate.entered.load(Ordering::SeqCst));
    gate
}

/// A four-node fake-clock cluster (one worker a node, `quota` jobs in flight
/// a session) whose rank `DOOMED` is killed with six jobs queued on it, in
/// the sessions `session(cluster, i)` opens on `DOOMED` for job `i`.  Every
/// worker is parked until the clock has passed the kill, so the replays
/// queue on the survivors: with a quota of one, a survivor's second orphan
/// waits in the failover intake (six orphans on three survivors: one gets
/// two).  Returns the cluster and the six jobs' handles.
fn cluster_with_a_stranding_kill_in(
    quota: usize,
    session: impl Fn(&ClusterService, usize) -> ClusterSessionId,
) -> (ClusterService, Vec<JobHandle>) {
    let clock = FakeClock::new();
    let plan = FaultPlan::new().kill_at(DOOMED, Duration::from_millis(15));
    let config = ServiceConfig::default().with_workers(1).with_quota(quota);
    let tuning = ClusterTuning::fast();
    let cluster = ClusterService::with_fake_clock(NODES, config, clock.clone(), tuning, plan, None);
    let open = |rank: usize, name: String| cluster.open_session_on(rank, SessionSpec::tenant(name));
    let gates: Vec<Arc<Gate>> = (0..NODES)
        .map(|rank| park_worker(&cluster, open(rank, format!("blocker-{rank}"))))
        .collect();
    let palette = programs();
    let handles: Vec<JobHandle> = (0..6)
        .map(|i| cluster.submit(session(&cluster, i), palette[i % 3].clone()))
        .collect::<Result<_, _>>()
        .unwrap();
    clock.advance(Duration::from_millis(20));
    let late = open(DOOMED, "late".into());
    assert!(cluster.node(DOOMED).try_submit(late.session, post_recovery_spec()).is_err());
    gates.iter().for_each(|gate| gate.open());
    (cluster, handles)
}

/// [`cluster_with_a_stranding_kill_in`] with each job in its own session.
fn cluster_with_a_stranding_kill(quota: usize) -> (ClusterService, Vec<JobHandle>) {
    cluster_with_a_stranding_kill_in(quota, |cluster, i| {
        cluster.open_session_on(DOOMED, SessionSpec::tenant(format!("doomed-{i}")))
    })
}

/// The names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists the threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

/// A fake-clock cluster replays a killed node's jobs without a thread of its
/// own: none named for failover or liveness exists while it lives.
#[test]
fn failover_runs_on_no_thread_of_its_own() {
    let (cluster, handles) = cluster_with_a_stranding_kill(32);
    let replayed =
        handles.iter().filter(|handle| handle.wait().expect("replayed").failover.is_some()).count();
    assert_eq!(replayed, handles.len(), "every queued job was replayed");
    let names = thread_names();
    assert!(names.iter().any(|name| name.starts_with("aohpc-service")), "{names:?}");
    for extra in ["aohpc-failover", "aohpc-liveness"] {
        assert!(!names.iter().any(|name| name == extra), "{extra} runs: {names:?}");
    }
    cluster.shutdown();
}

/// `drain` returns with every original handle resolved, and each orphan
/// went where the kill's step sent it: the rendezvous owner of
/// `job ^ from << 48` over the ranks not killed in that step — also when
/// that survivor was throttled and the orphan waited in the intake.
#[test]
fn drain_returns_with_every_stranded_job_settled_where_the_kill_sent_it() {
    let survivors: Vec<usize> = (0..NODES).filter(|&rank| rank != DOOMED).collect();
    for quota in [32, 1] {
        let (cluster, handles) = cluster_with_a_stranding_kill(quota);
        cluster.drain();
        for handle in &handles {
            let report = handle.poll().expect("resolved when drain returns").expect("replayed");
            let provenance = report.failover.expect("a queued job of the killed node fails over");
            assert_eq!((provenance.from_node, provenance.original_job), (DOOMED, handle.id()));
            let key = provenance.original_job ^ ((DOOMED as u64) << 48);
            let owner = rendezvous_owner(key, &survivors);
            assert_eq!(provenance.to_node, owner, "quota {quota}: {provenance:?}");
        }
        cluster.shutdown();
    }
}

/// A completion stream on the killed node delivers every stranded job's
/// replayed report in submission order: the replay settles the original's
/// handle, which is what the stream reads.
#[test]
fn a_stream_on_the_killed_node_delivers_the_replays_in_order() {
    let doomed = std::sync::OnceLock::new();
    let stream = std::sync::OnceLock::new();
    let (cluster, handles) = cluster_with_a_stranding_kill_in(32, |cluster, _| {
        *doomed.get_or_init(|| {
            let session = cluster.open_session_on(DOOMED, SessionSpec::tenant("doomed"));
            stream.set(cluster.completion_stream(session).unwrap()).unwrap();
            session
        })
    });
    let stream = stream.into_inner().expect("attached before the first submission");
    cluster.drain();
    assert_eq!(stream.pending(), handles.len(), "the stream owes every stranded job");
    for handle in &handles {
        let report = stream.try_next().expect("resolved when drain returns").expect("replayed");
        let provenance = report.failover.expect("a queued job of the killed node fails over");
        assert_eq!((provenance.from_node, provenance.original_job), (DOOMED, handle.id()));
    }
    assert!(stream.next().is_none(), "nothing further owed");
    cluster.shutdown();
}

/// An orphan whose survivor's queue is full waits in the intake.  No replay
/// finishes after it to retry it, so `drain` re-homes it, parking until the
/// queue has room, and returns with its handle resolved.
#[test]
fn drain_re_homes_an_orphan_parked_behind_a_full_queue() {
    let clock = FakeClock::new();
    let plan = FaultPlan::new().kill_at(DOOMED, Duration::from_millis(15));
    let config = ServiceConfig::default().with_workers(1).with_queue_bound(1);
    let tuning = ClusterTuning::fast();
    let cluster = ClusterService::with_fake_clock(NODES, config, clock.clone(), tuning, plan, None);
    let open = |rank: usize, name: &str| cluster.open_session_on(rank, SessionSpec::tenant(name));
    let gates: Vec<Arc<Gate>> =
        (0..NODES).map(|rank| park_worker(&cluster, open(rank, "blocker"))).collect();
    let stranded = cluster.submit(open(DOOMED, "doomed"), programs()[0].clone()).unwrap();
    let survivors: Vec<usize> = (0..NODES).filter(|&rank| rank != DOOMED).collect();
    let target = rendezvous_owner(stranded.id() ^ ((DOOMED as u64) << 48), &survivors);
    // The target's one queue slot is taken behind its parked worker.
    let filler = cluster.submit(open(target, "filler"), post_recovery_spec()).unwrap();
    clock.advance(Duration::from_millis(20));
    gates.iter().for_each(|gate| gate.open());
    filler.wait().expect("the filler runs");
    assert!(stranded.poll().is_none(), "the orphan waits in the intake");
    cluster.drain();
    let report = stranded.poll().expect("resolved when drain returns").expect("replayed");
    let provenance = report.failover.expect("the stranded job failed over");
    assert_eq!((provenance.from_node, provenance.to_node), (DOOMED, target));
    cluster.shutdown();
}
