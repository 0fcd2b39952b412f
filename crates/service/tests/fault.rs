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

use aohpc_kernel::{load, param, StencilProgram};
use aohpc_service::{
    ClusterService, ClusterTuning, FaultPlan, JobSpec, KernelService, NodeState, ServiceConfig,
    SessionSpec,
};
use aohpc_testalloc::sync::FakeClock;
use aohpc_workloads::RegionSize;
use proptest::collection;
use proptest::prelude::*;
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
