//! Cluster integration tests: each node compiles its own plans, bit
//! identity with single-node execution, session affinity, fabric metering
//! and deterministic (fake-clock) backpressure on cluster nodes.

use aohpc_service::{
    ClusterService, ClusterTuning, FaultPlan, JobSpec, KernelService, ServiceConfig, SessionSpec,
};
use aohpc_testalloc::sync::FakeClock;
use aohpc_workloads::Scale;
use std::sync::Arc;
use std::time::Duration;

fn config() -> ServiceConfig {
    ServiceConfig::default().with_workers(2)
}

fn smoke_job() -> JobSpec {
    JobSpec::jacobi(Scale::Smoke)
}

/// The reference: what a single node computes for `spec` (serial topology,
/// so checksums are bit-stable).
fn single_node_checksum(spec: JobSpec) -> f64 {
    let service = KernelService::new(ServiceConfig::default().with_workers(1));
    let session = service.open_session(SessionSpec::tenant("reference"));
    let report = service.submit(session, spec).unwrap().wait().unwrap();
    assert!(report.error.is_none());
    report.checksum
}

#[test]
fn each_node_compiles_each_distinct_plan_once() {
    const NODES: usize = 4;
    let cluster = ClusterService::new(NODES, config());
    assert_eq!(cluster.node_count(), NODES);

    // Every node receives the same program twice: each node compiles it on
    // its first job and hits on its second.
    let sessions: Vec<_> = (0..NODES)
        .map(|n| cluster.open_session_on(n, SessionSpec::tenant(format!("tenant-{n}"))))
        .collect();
    for id in &sessions {
        cluster.submit(*id, smoke_job()).unwrap();
        cluster.submit(*id, smoke_job()).unwrap();
    }
    let reports = cluster.drain();
    assert_eq!(reports.len(), 2 * NODES);
    assert!(reports.iter().all(|r| r.error.is_none()));

    let stats = cluster.cache_stats();
    // One distinct plan, one compile on each of the NODES nodes.
    assert_eq!(stats.total.compiles as usize, NODES, "{stats:?}");
    assert_eq!(stats.total.fetches, 0, "{stats:?}");
    assert_eq!(stats.total.misses, stats.total.compiles);
    assert!(stats.per_node.iter().all(|s| s.compiles == 1), "{stats:?}");
    // The plan is now resident on every node.
    assert_eq!(stats.total.entries, NODES);

    // All results agree bit-for-bit with a single-node run.
    let reference = single_node_checksum(smoke_job());
    for report in &reports {
        assert_eq!(
            report.checksum.to_bits(),
            reference.to_bits(),
            "cluster node diverged from single-node execution"
        );
    }

    // The job path put no application frame on the fabric (heartbeats are
    // metered apart, as liveness frames).
    let comm = cluster.comm_stats();
    assert_eq!(comm.total.control_sent, 0, "{:?}", comm.total);
    assert_eq!(comm.total.control_received, 0, "{:?}", comm.total);
    cluster.shutdown();
}

#[test]
fn distinct_programs_each_compile_once() {
    const NODES: usize = 3;
    let cluster = ClusterService::new(NODES, config());
    let jobs = [smoke_job(), JobSpec::smooth(Scale::Smoke)];
    for node in 0..NODES {
        let id = cluster.open_session_on(node, SessionSpec::tenant(format!("t{node}")));
        for job in &jobs {
            cluster.submit(id, job.clone()).unwrap();
        }
    }
    let reports = cluster.drain();
    assert_eq!(reports.len(), NODES * jobs.len());
    assert!(reports.iter().all(|r| r.error.is_none()));
    let stats = cluster.cache_stats();
    assert_eq!(stats.total.compiles as usize, NODES * jobs.len(), "{stats:?}");
    assert_eq!(stats.total.fetches, 0, "{stats:?}");
    for job in jobs {
        let reference = single_node_checksum(job.clone());
        let fp = job.program.fingerprint();
        for report in reports.iter().filter(|r| r.fingerprint == fp) {
            assert_eq!(report.checksum.to_bits(), reference.to_bits());
        }
    }
}

#[test]
fn sessions_are_affine_to_their_tenants_home_node() {
    let cluster = ClusterService::new(3, config());
    let a1 = cluster.open_session(SessionSpec::tenant("acme"));
    let a2 = cluster.open_session(SessionSpec::tenant("acme"));
    assert_eq!(a1.node, a2.node, "a tenant's sessions share one node");
    assert_eq!(a1.node, cluster.home_node("acme"));
    assert_ne!(a1.session, a2.session, "distinct sessions nonetheless");
    assert_eq!(format!("{a1}"), format!("node{}/session{}", a1.node, a1.session));

    // Jobs run on the session's node: its meter moves, other nodes' don't.
    cluster.submit(a1, smoke_job()).unwrap().wait().unwrap();
    let ctx = cluster.session(a1).expect("session resolves through the cluster");
    assert_eq!(ctx.meter().jobs_completed, 1);
    for node in 0..cluster.node_count() {
        let expected = if node == a1.node { 1 } else { 0 };
        assert_eq!(cluster.node(node).drain().len(), expected, "node {node}");
    }

    // Streams and close/drain route through the same node.
    let stream = cluster.completion_stream(a2).unwrap();
    cluster.submit(a2, smoke_job()).unwrap();
    assert!(stream.next().expect("stream delivers").is_ok());
    assert_eq!(cluster.drain_session(a2).len(), 1, "retained report drains via the cluster");
    assert!(cluster.close_session(a2).is_some());
    assert!(cluster.session(a2).map(|c| !c.is_active()).unwrap_or(false));
}

#[test]
fn pinned_sessions_pin_their_plans_on_a_cluster_node() {
    let cluster = ClusterService::new(2, config().with_cache(2, 8));
    let hot = cluster.open_session_on(0, SessionSpec::tenant("hot").pin_plans());
    cluster.submit(hot, smoke_job()).unwrap().wait().unwrap();
    let stats = cluster.cache_stats();
    assert_eq!((stats.total.compiles, stats.total.fetches), (1, 0));
    assert_eq!(stats.per_node[0].pinned_entries, 1, "hot session pinned its plan: {stats:?}");
    cluster.shutdown();
}

#[test]
fn single_node_cluster_degenerates_to_local_compilation() {
    let cluster = ClusterService::new(1, config());
    let id = cluster.open_session(SessionSpec::tenant("solo"));
    cluster.submit(id, smoke_job()).unwrap().wait().unwrap();
    let stats = cluster.cache_stats();
    assert_eq!((stats.total.compiles, stats.total.fetches), (1, 0));
    let comm = cluster.comm_stats();
    assert_eq!(comm.total.control_sent, 0, "no application control traffic");
}

#[test]
fn shutdown_drains_all_nodes_first() {
    // Queue a backlog on every node, then shut down: clean shutdown drains
    // to quiescence, so every handle resolves with a report (not Abandoned).
    let cluster = ClusterService::new(2, config().with_workers(1));
    let mut handles = Vec::new();
    for node in 0..2 {
        let id = cluster.open_session_on(node, SessionSpec::tenant(format!("t{node}")));
        for _ in 0..4 {
            handles.push(cluster.submit(id, smoke_job()).unwrap());
        }
    }
    cluster.shutdown();
    for handle in handles {
        let report = handle.poll().expect("resolved by shutdown").expect("drained, not abandoned");
        assert!(report.error.is_none());
    }
}

#[test]
fn fake_clock_cluster_backpressure_is_deterministic() {
    // Admission-only nodes (0 workers) on one shared FakeClock: quota
    // backpressure and deadline expiry on a cluster node are driven purely
    // by test time — no sleeps, no timing guesses (the cluster analogue of
    // the single-node deterministic harness).
    use aohpc_testalloc::sync::spin_until;

    let clock = FakeClock::new();
    let cluster = ClusterService::with_fake_clock(
        2,
        ServiceConfig::default()
            .with_workers(0)
            .with_quota(1)
            .with_admission_timeout(Duration::ZERO),
        Arc::clone(&clock),
        ClusterTuning::default(),
        FaultPlan::new(),
        None,
    );
    let id = cluster.open_session_on(1, SessionSpec::tenant("t"));
    cluster.submit(id, smoke_job()).unwrap();
    let err = cluster.try_submit(id, smoke_job()).unwrap_err();
    assert!(err.is_backpressure(), "quota full is backpressure, not fatal: {err}");

    // A submitter parked on the node's quota wakes only when the shared
    // clock passes its deadline.
    let node = cluster.node(id.node);
    std::thread::scope(|scope| {
        let submitter =
            scope.spawn(|| node.submit_timeout(id.session, smoke_job(), Duration::from_secs(10)));
        spin_until("submitter parked on the cluster node", || node.admission_stats().waiting == 1);
        clock.advance(Duration::from_secs(9));
        assert_eq!(node.admission_stats().waiting, 1, "9s < 10s: still parked");
        clock.advance(Duration::from_secs(2));
        let err = submitter.join().unwrap().unwrap_err();
        assert!(err.is_backpressure(), "deadline expiry reports the quota: {err}");
    });
    // The untouched node never saw any of this.
    assert_eq!(cluster.node(0).admission_stats().waiting, 0);
}
