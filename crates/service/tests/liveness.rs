//! The liveness step under hostile schedules, with no sleeps anywhere.
//!
//! Every `FakeClock::advance` runs one liveness step of the whole cluster on
//! the advancing thread — beats, frame delivery, detector sweeps and the
//! fault schedule — so a cluster's liveness is a pure function of its fault
//! plan and the advances.  The invariants:
//!
//! 1. **Determinism** — one scripted plan run twice gives the same
//!    suspicion, rejoin and partition trace, span for span at the same
//!    fake-clock instants, and the same detector counters on every rank.
//! 2. **Convergence** — after any random schedule of kills, restarts, link
//!    cuts, heals, wedges and unwedges that ends with everything restored,
//!    every view holds every rank Alive at one agreed incarnation once the
//!    clock has run past the death deadline and twenty more beats.

use aohpc_aop::names;
use aohpc_obs::ObsHub;
use aohpc_service::{
    ClusterService, ClusterTuning, FaultPlan, MembershipStats, NodeState, ServiceConfig,
};
use aohpc_testalloc::sync::FakeClock;
use proptest::collection;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const NODES: usize = 3;

/// The join points the liveness step records at.  `CLUSTER_FAILOVER` is not
/// among them: a replay records it when it finishes on a worker, in wall
/// time.
const LIVENESS_SPANS: [&str; 3] =
    [names::CLUSTER_SUSPECT, names::CLUSTER_REJOIN, names::CLUSTER_PARTITION];

fn ms(ms: u64) -> Duration {
    Duration::from_millis(ms)
}

/// A fake-clock cluster of admission-only nodes (no job runs here) with the
/// fast detector tuning and `plan` armed, recording into a hub on the same
/// clock.
fn cluster(plan: FaultPlan) -> (ClusterService, Arc<FakeClock>, Arc<ObsHub>) {
    let clock = FakeClock::new();
    let hub = ObsHub::with_clock(clock.clone());
    let cluster = ClusterService::with_fake_clock(
        NODES,
        ServiceConfig::default().with_workers(0),
        clock.clone(),
        ClusterTuning::fast(),
        plan,
        Some(Arc::clone(&hub)),
    );
    (cluster, clock, hub)
}

/// One liveness span as compared across runs: name, attributes, start.
type SpanKey = (&'static str, i64, i64, u64);

/// Run the scripted episode once: the liveness spans it recorded and every
/// rank's detector counters.
fn scripted_episode() -> (Vec<SpanKey>, Vec<MembershipStats>) {
    let plan = FaultPlan::new()
        .kill_at(2, ms(30))
        .partition_at(0, 1, ms(40))
        .partition_at(1, 0, ms(60))
        .heal_at(0, 1, ms(120))
        .restart_at(2, ms(250))
        .heal_at(1, 0, ms(260))
        .wedge_at(1, ms(300))
        .unwedge_at(1, ms(380));
    let (cluster, clock, hub) = cluster(plan);
    for _ in 0..60 {
        clock.advance(ms(10));
    }
    let spans = hub
        .recorder()
        .spans()
        .into_iter()
        .filter(|span| LIVENESS_SPANS.contains(&span.name))
        .map(|span| (span.name, span.a, span.b, span.start_ns))
        .collect();
    let stats = (0..NODES).map(|rank| cluster.membership_stats(rank)).collect();
    cluster.shutdown();
    (spans, stats)
}

/// A scripted kill, restart, symmetric cut held past the death deadline,
/// heal and wedge over three nodes replays to the same trace and counters.
#[test]
fn a_scripted_fault_plan_replays_to_the_same_trace() {
    let (spans, stats) = scripted_episode();
    for name in LIVENESS_SPANS {
        assert!(spans.iter().any(|span| span.0 == name), "the episode records no {name}");
    }
    let (again, again_stats) = scripted_episode();
    assert_eq!(spans, again, "the same plan gave a different liveness trace");
    assert_eq!(stats, again_stats, "the same plan gave different detector counters");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A random schedule of fault episodes — each a kill then restart, a
    /// wedge then unwedge, or a directed cut then heal, starting at `at`
    /// and undone `hold` later — settles into one view: every rank Alive at
    /// the same incarnations in every view, no transition naming a rank
    /// outside the mesh, and a clean observability snapshot.
    #[test]
    fn random_fault_schedules_settle_into_one_view(
        episodes in collection::vec((0usize..3, 0usize..NODES, 0usize..NODES, 10u64..300, 10u64..250), 1..10),
    ) {
        let mut plan = FaultPlan::new();
        let mut restored = Duration::ZERO;
        for &(kind, rank, peer, at, hold) in &episodes {
            let (start, end) = (ms(at), ms(at + hold));
            plan = match kind {
                0 => plan.kill_at(rank, start).restart_at(rank, end),
                1 => plan.wedge_at(rank, start).unwedge_at(rank, end),
                _ if rank != peer => plan.partition_at(rank, peer, start).heal_at(rank, peer, end),
                _ => continue,
            };
            restored = restored.max(end);
        }
        let (cluster, clock, hub) = cluster(plan);
        let tuning = cluster.tuning();
        let settled = restored + tuning.dead_after + 20 * tuning.heartbeat_every;
        while clock.now() < settled {
            clock.advance(tuning.heartbeat_every);
        }

        for subject in 0..NODES {
            let incarnation = cluster.incarnation(subject, subject);
            for observer in 0..NODES {
                prop_assert_eq!(
                    cluster.node_state(observer, subject),
                    NodeState::Alive,
                    "rank {} sees rank {} down after {:?}",
                    observer,
                    subject,
                    episodes
                );
                prop_assert_eq!(
                    cluster.incarnation(observer, subject),
                    incarnation,
                    "rank {} disagrees on rank {}'s incarnation after {:?}",
                    observer,
                    subject,
                    episodes
                );
            }
        }
        for span in hub.recorder().spans() {
            if LIVENESS_SPANS.contains(&span.name) {
                prop_assert!((0..NODES as i64).contains(&span.a), "{} names rank {}", span.name, span.a);
            }
        }
        let violations = cluster.obs_snapshot().expect("observer installed").validate();
        prop_assert!(violations.is_empty(), "snapshot violations: {:?}", violations);
        cluster.shutdown();
    }
}
