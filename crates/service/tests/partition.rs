//! Partition-recovery drills: cut the fabric, heal it, and rejoin the mesh.
//!
//! Every test stands up a [`ClusterService`] on a shared [`FakeClock`] with a
//! scripted [`FaultPlan`] of kills, restarts and *directional* link cuts, so
//! the whole episode — detection, incarnation arbitration, anti-entropy
//! re-sync — is fully test-controlled.  The invariants:
//!
//! 1. **Zero lost jobs, bit-identical answers** — random interleavings of
//!    kill / restart / cut / heal over a mixed-family workload (stencil,
//!    particle, usgrid) resolve every handle with the checksum a plain
//!    single-node service computes, and after the mesh heals a batch of
//!    fresh plans compiles exactly once on each node that resolves it.
//! 2. **Incarnation arbitration converges asymmetric views** — a one-way
//!    cut pins "A sees B dead, B sees A alive"; B refutes the overheard
//!    suspicion exactly once, and after the heal both views settle on B's
//!    refuted incarnation with no flap.
//! 3. **Death is terminal per incarnation** — an old-incarnation heartbeat
//!    can never resurrect a dead entry.
//! 4. **A restarted rank re-earns its place** — fresh incarnation adopted
//!    by every view, and its cold-reset cache re-warmed by compiling.

use aohpc_kernel::{load, param, StencilProgram};
use aohpc_obs::ObsHub;
use aohpc_service::{
    ClusterService, ClusterTuning, FaultPlan, JobSpec, KernelService, Membership, NodeState,
    ServiceConfig, SessionSpec,
};
use aohpc_testalloc::sync::FakeClock;
use aohpc_workloads::{RegionSize, Scale};
use proptest::collection;
use proptest::prelude::*;
use std::time::Duration;

fn config() -> ServiceConfig {
    ServiceConfig::default().with_workers(1)
}

/// Advance detector time one notch and give fabric threads a real-time
/// beat to process what the advance released.
fn step(clock: &FakeClock, ms: u64) {
    clock.advance(Duration::from_millis(ms));
    std::thread::sleep(Duration::from_millis(1));
}

/// A mixed-family palette: two structurally distinct stencils plus the
/// stock particle and unstructured-grid smoke jobs, so partition recovery
/// is exercised across every kernel family the service hosts.
fn mixed_palette() -> [JobSpec; 4] {
    let base = |p: StencilProgram| {
        JobSpec::new(p, vec![0.5, 0.125], RegionSize::square(32)).with_block(8).with_steps(128)
    };
    [
        base(StencilProgram::jacobi_5pt()),
        base(StencilProgram::smooth_9pt()),
        JobSpec::particle(Scale::Smoke),
        JobSpec::usgrid(Scale::Smoke),
    ]
}

/// Two cheap post-heal programs, structurally distinct from each other and
/// from everything in the palette (fingerprints are structural, so the
/// *expressions* differ, not just the names).
fn post_heal_specs() -> [JobSpec; 2] {
    let a = StencilProgram::new(
        "post-heal-a",
        param(0) * load(0, 0) + 0.0625 * (load(1, 0) + load(0, 1)),
        1,
    )
    .unwrap();
    let b = StencilProgram::new(
        "post-heal-b",
        param(0) * load(0, 0) - 0.03125 * (load(-1, 0) + load(0, -1)),
        1,
    )
    .unwrap();
    let spec = |p| JobSpec::new(p, vec![0.5], RegionSize::square(16)).with_block(8).with_steps(1);
    [spec(a), spec(b)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole property: under a random schedule of kills (each with a
    /// later restart), directional link cuts (each later healed) and a
    /// random mixed-family submit interleaving, every job resolves with a
    /// checksum bit-identical to the single-node reference, the resolve
    /// ledger stays balanced, every view re-converges to all-Alive with
    /// agreed incarnations, and a post-heal batch of fresh plans compiles
    /// exactly once on each node per distinct fingerprint.
    #[test]
    fn partition_schedules_lose_no_jobs_and_change_no_answers(
        kills in collection::vec((0usize..3, 30u64..80), 0..3),
        cuts in collection::vec((0usize..3, 0usize..3, 20u64..100), 0..5),
        submissions in collection::vec((0usize..3, 0usize..4), 4..10),
    ) {
        let palette = mixed_palette();

        // Reference checksums from a plain single node.
        let reference: Vec<u64> = {
            let single = KernelService::new(config());
            let session = single.open_session(SessionSpec::tenant("ref"));
            let mut sums = Vec::new();
            for spec in &palette {
                let report = single.submit(session, spec.clone()).unwrap().wait().unwrap();
                prop_assert_eq!(&report.error, &None);
                sums.push(report.checksum.to_bits());
            }
            sums
        };

        // Dedupe kill ranks (first scheduled time wins) and keep a survivor;
        // every killed rank restarts after its dead verdict can have landed
        // (dead_after = 150 ms under fast tuning).
        let mut killed: Vec<(usize, u64)> = Vec::new();
        for &(rank, at_ms) in &kills {
            if !killed.iter().any(|&(r, _)| r == rank) {
                killed.push((rank, at_ms));
            }
        }
        killed.truncate(2);
        let killed_ranks: Vec<usize> = killed.iter().map(|&(r, _)| r).collect();

        let clock = FakeClock::new();
        let mut plan = FaultPlan::new();
        for (i, &(rank, at_ms)) in killed.iter().enumerate() {
            plan = plan
                .kill_at(rank, Duration::from_millis(at_ms))
                .restart_at(rank, Duration::from_millis(at_ms + 200 + 40 * i as u64));
        }
        // Each cut heals within dead_after, so a lone cut suspects but does
        // not bury; overlapping cuts of one link may still push a rank past
        // the deadline — the probe → pull → refute rejoin path covers it.
        for &(from, to, at_ms) in &cuts {
            if from != to {
                plan = plan
                    .partition_at(from, to, Duration::from_millis(at_ms))
                    .heal_at(from, to, Duration::from_millis(at_ms + 80));
            }
        }
        let cluster = ClusterService::with_fake_clock(
            3,
            config(),
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
        for _ in 0..80 {
            step(&clock, 10);
        }

        // Zero lost jobs, bit-identical answers (a cut-induced false death
        // may legitimately fail a job over, so provenance is not pinned to
        // the scripted kill set here).
        for (handle, program) in &handles {
            let outcome = handle.wait_timeout(Duration::from_secs(60));
            prop_assert!(outcome.is_some(), "a job's handle never resolved");
            let report = match outcome.unwrap() {
                Ok(report) => report,
                Err(err) => return Err(TestCaseError::fail(format!(
                    "job lost under schedule kills={killed_ranks:?} cuts={cuts:?}: {err:?}"
                ))),
            };
            prop_assert_eq!(&report.error, &None);
            prop_assert_eq!(
                report.checksum.to_bits(),
                reference[*program],
                "partition recovery changed the answer for program {}",
                program
            );
        }

        // The resolve ledger stays balanced under partitions: every miss
        // ended in exactly one local compile, and nothing was fetched.
        let stats = cluster.cache_stats();
        prop_assert_eq!(stats.total.misses, stats.total.compiles);
        prop_assert_eq!(stats.total.fetches, 0);

        // Anti-entropy re-converges every view: all-Alive everywhere, and
        // every observer agrees on every rank's incarnation.
        let mut converged = false;
        for _ in 0..400 {
            step(&clock, 10);
            let agreed = (0..3).all(|s| {
                let inc = cluster.incarnation(s, s);
                (0..3).all(|o| {
                    cluster.node_state(o, s) == NodeState::Alive
                        && cluster.incarnation(o, s) == inc
                })
            });
            if agreed {
                converged = true;
                break;
            }
        }
        prop_assert!(converged, "views never re-converged after heals and restarts");
        for &r in &killed_ranks {
            prop_assert!(
                cluster.incarnation(r, r) >= 1,
                "a restarted rank must carry a fresh incarnation"
            );
        }

        // Post-heal, new work compiles exactly once per distinct
        // fingerprint on each of the three nodes that resolves it — the
        // compile-once-per-node contract survives the whole episode.
        let before = cluster.cache_stats().total.compiles;
        let fresh = post_heal_specs();
        let posts: Vec<_> = (0..3)
            .map(|n| cluster.open_session_on(n, SessionSpec::tenant(format!("post{n}"))))
            .collect();
        for spec in &fresh {
            for &post in &posts {
                let report = cluster
                    .submit(post, spec.clone())
                    .unwrap()
                    .wait_timeout(Duration::from_secs(60))
                    .expect("post-heal job resolved")
                    .expect("post-heal job succeeded");
                prop_assert_eq!(&report.error, &None);
            }
        }
        prop_assert_eq!(
            cluster.cache_stats().total.compiles,
            before + 3 * fresh.len() as u64,
            "post-heal compiles must equal nodes x distinct fresh fingerprints"
        );
        cluster.shutdown();
    }
}

/// The asymmetric-partition drill: cutting only the 1→0 direction makes
/// rank 0 walk rank 1 through Suspect into Dead while rank 1 — which still
/// hears rank 0, including the suspicion broadcast — refutes exactly once
/// and keeps believing rank 0 Alive.  After the heal, incarnation order
/// converges both views onto the refuted incarnation, with no further
/// refutations or suspicions.
#[test]
fn asymmetric_partition_converges_views_with_exactly_one_refutation() {
    let clock = FakeClock::new();
    let hub = ObsHub::with_clock(clock.clone());
    let plan = FaultPlan::new().partition_at(1, 0, Duration::from_millis(20)).heal_at(
        1,
        0,
        Duration::from_millis(205),
    );
    let cluster = ClusterService::with_fake_clock(
        2,
        config(),
        clock.clone(),
        ClusterTuning::fast(),
        plan,
        Some(hub.clone()),
    );

    // Drive to the pinned asymmetric window (the heal fires at 205 ms,
    // after this loop): 0-sees-1-dead while 1-sees-0-alive.
    let mut pinned = false;
    for _ in 0..40 {
        step(&clock, 5);
        if cluster.node_state(0, 1) == NodeState::Dead
            && cluster.node_state(1, 0) == NodeState::Alive
        {
            pinned = true;
        }
    }
    assert!(
        pinned,
        "the asymmetric window never pinned: 0 sees 1 as {:?}, 1 sees 0 as {:?}",
        cluster.node_state(0, 1),
        cluster.node_state(1, 0)
    );

    // Heal.  Rank 1's next heartbeat carries its refuted (strictly higher)
    // incarnation, which revives it in rank 0's view outright.
    let mut converged = false;
    for _ in 0..100 {
        step(&clock, 5);
        if cluster.node_state(0, 1) == NodeState::Alive
            && cluster.node_state(1, 0) == NodeState::Alive
            && cluster.incarnation(0, 1) == cluster.incarnation(1, 1)
        {
            converged = true;
            break;
        }
    }
    let a = cluster.membership_stats(0);
    let b = cluster.membership_stats(1);
    assert!(converged, "views never converged after the heal: a={a:?} b={b:?}");
    assert_eq!(b.refutations, 1, "rank 1 must refute its suspicion exactly once: {b:?}");
    assert_eq!(a.rejoins, 1, "rank 0 must adopt the refuted incarnation exactly once: {a:?}");
    assert_eq!(a.deaths, 1, "{a:?}");
    assert_eq!(b.suspicions, 0, "rank 1 never lost rank 0's heartbeats: {b:?}");
    assert!(cluster.incarnation(0, 1) >= 1, "the refutation bumped rank 1's incarnation");

    // No flap after convergence: more detector time moves nothing — no new
    // suspicions, deaths, rejoins or refutations on either side, and the
    // full two-rank view holds.
    for _ in 0..30 {
        step(&clock, 5);
    }
    let a2 = cluster.membership_stats(0);
    let b2 = cluster.membership_stats(1);
    assert_eq!(
        (a2.suspicions, a2.deaths, a2.rejoins, a2.refutations),
        (a.suspicions, a.deaths, a.rejoins, a.refutations),
        "rank 0 flapped: {a2:?}"
    );
    assert_eq!(
        (b2.suspicions, b2.deaths, b2.rejoins, b2.refutations),
        (b.suspicions, b.deaths, b.rejoins, b.refutations),
        "rank 1 flapped: {b2:?}"
    );
    assert_eq!(cluster.node_state(0, 1), NodeState::Alive);
    assert_eq!(cluster.node_state(1, 0), NodeState::Alive);

    // The episode is observable: one cut + one heal at the partition join
    // point, and the refutation landed at the rejoin join point.
    assert_eq!(hub.metrics().partitions.get(), 2);
    assert!(hub.metrics().rejoins.get() >= 1);
    let spans = hub.recorder().spans();
    assert!(spans.iter().any(|s| s.name == aohpc_aop::names::CLUSTER_PARTITION));
    assert!(spans.iter().any(|s| s.name == aohpc_aop::names::CLUSTER_REJOIN));
    cluster.shutdown();
}

/// Death is terminal *per incarnation*: neither a heartbeat nor gossip at
/// the dead incarnation revives the entry — only a strictly higher
/// incarnation (a restart or refutation) does, and that is metered as a
/// rejoin.
#[test]
fn old_incarnation_heartbeat_cannot_resurrect_a_dead_entry() {
    let view = Membership::new(0, 2, ClusterTuning::fast(), Duration::ZERO);
    view.declare_dead(1);
    assert_eq!(view.state_of(1), NodeState::Dead);

    // The dead incarnation's own heartbeats are void...
    assert!(view.observe_alive(1, 0, Duration::from_millis(5)).is_none());
    assert_eq!(view.state_of(1), NodeState::Dead);
    // ...and so is second-hand gossip at the dead incarnation.
    assert!(view.adopt(1, NodeState::Alive, 0, Duration::from_millis(5)).is_none());
    assert_eq!(view.state_of(1), NodeState::Dead);
    assert_eq!(view.stats().rejoins, 0);

    // A strictly higher incarnation wins outright.
    let t = view.observe_alive(1, 1, Duration::from_millis(6)).expect("revival transition");
    assert_eq!(t.to, NodeState::Alive);
    assert_eq!(t.incarnation, 1);
    assert_eq!(view.state_of(1), NodeState::Alive);
    assert_eq!(view.stats().rejoins, 1);
}

/// The acceptance drill: a killed rank restarts, re-announces over the
/// liveness plane under a fresh incarnation adopted by every view, and
/// re-owns its plans: its cold-reset cache compiles each plan its jobs
/// resolve again, once, while the survivors' caches stay warm.
#[test]
fn killed_rank_rejoins_with_fresh_incarnation_and_reowns_its_plans() {
    let spec = |program| {
        JobSpec::new(program, vec![0.5, 0.125], RegionSize::square(48)).with_block(8).with_steps(1)
    };
    let warm_specs = [spec(StencilProgram::jacobi_5pt()), spec(StencilProgram::smooth_9pt())];
    let fresh = post_heal_specs()[0].clone();

    let clock = FakeClock::new();
    let hub = ObsHub::with_clock(clock.clone());
    let plan = FaultPlan::new()
        .kill_at(1, Duration::from_millis(30))
        .restart_at(1, Duration::from_millis(250));
    let cluster = ClusterService::with_fake_clock(
        3,
        config(),
        clock.clone(),
        ClusterTuning::fast(),
        plan,
        Some(hub.clone()),
    );
    let sessions: Vec<_> =
        (0..3).map(|n| cluster.open_session_on(n, SessionSpec::tenant(format!("t{n}")))).collect();
    let run = |session, spec: &JobSpec, what: &str| {
        let report = cluster
            .submit(session, spec.clone())
            .unwrap()
            .wait_timeout(Duration::from_secs(60))
            .unwrap_or_else(|| panic!("{what} job resolved"))
            .unwrap_or_else(|err| panic!("{what} job failed: {err:?}"));
        assert_eq!(report.error, None, "{what}");
    };

    // Warm phase (detector time never advances, so no fault fires): every
    // node compiles both plans once — 3 nodes x 2 plans.
    for spec in &warm_specs {
        for &session in &sessions {
            run(session, spec, "warm");
        }
    }
    let warm = cluster.cache_stats();
    assert_eq!((warm.total.compiles, warm.total.fetches), (6, 0), "{warm:?}");
    assert_eq!(warm.per_node[1].compiles, 2, "rank 1 compiled both of its plans");

    // Kill fires at 30 ms; the survivors walk rank 1 into Dead at its
    // original incarnation.
    let mut dead = false;
    for _ in 0..30 {
        step(&clock, 10);
        if cluster.node_state(0, 1) == NodeState::Dead {
            dead = true;
            break;
        }
    }
    assert!(dead, "rank 1 was never declared dead: {:?}", cluster.membership_stats(0));
    assert_eq!(cluster.incarnation(0, 1), 0, "death condemns the original incarnation");

    // The restart fires at 250 ms: rank 1 revives with a cold cache, bumps
    // its incarnation, and its next heartbeats win the arbitration in every
    // peer view.
    let mut rejoined = false;
    for _ in 0..100 {
        step(&clock, 10);
        let inc = cluster.incarnation(1, 1);
        let agreed = (0..3).all(|o| {
            cluster.node_state(o, 1) == NodeState::Alive && cluster.incarnation(o, 1) == inc
        });
        if agreed && inc >= 1 && cluster.cache_stats().per_node[1].entries == 0 {
            rejoined = true;
            break;
        }
    }
    assert!(
        rejoined,
        "rank 1 never rejoined under a fresh incarnation: {:?} / {:?}",
        cluster.membership_stats(0),
        cluster.cache_stats().per_node[1]
    );
    assert!(cluster.membership_stats(0).rejoins >= 1);
    let rejoined_stats = cluster.cache_stats();
    assert!(
        rejoined_stats.per_node[1].evictions >= 2,
        "the restart must cold-reset rank 1's cache: {:?}",
        rejoined_stats.per_node[1]
    );

    // A fresh plan on every node: one compile on each, the rejoined rank's
    // included.
    let posts: Vec<_> = (0..3)
        .map(|n| cluster.open_session_on(n, SessionSpec::tenant(format!("post{n}"))))
        .collect();
    for &post in &posts {
        run(post, &fresh, "post-rejoin");
    }
    let after = cluster.cache_stats();
    assert_eq!(after.total.compiles, rejoined_stats.total.compiles + 3, "{after:?}");
    assert_eq!(after.per_node[1].compiles, rejoined_stats.per_node[1].compiles + 1);

    // Cold-cache warm-up: a plan rank 1 compiled before its death compiles
    // again there — and only there; the survivors still hit theirs.
    run(posts[1], &warm_specs[0], "re-warm");
    run(posts[0], &warm_specs[0], "survivor");
    let warmed = cluster.cache_stats();
    assert_eq!(warmed.total.compiles, after.total.compiles + 1, "{warmed:?}");
    assert_eq!(warmed.per_node[1].compiles, after.per_node[1].compiles + 1);
    assert_eq!(warmed.total.fetches, 0);

    // The rejoin landed at the observability join point.
    assert!(hub.metrics().rejoins.get() >= 1);
    assert!(hub.recorder().spans().iter().any(|s| s.name == aohpc_aop::names::CLUSTER_REJOIN));
    cluster.shutdown();
}
