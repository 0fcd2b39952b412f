//! Cluster microbench: N independent services vs one N-node cluster, cold,
//! warm, through a node kill and through a rejoin.
//!
//! The variants run the same workload — `programs × nodes × reps` jobs,
//! spread one tenant per node:
//!
//! * `independent_cold` — N unconnected `KernelService`s: every node
//!   compiles every plan its jobs resolve.
//! * `cluster_cold` — a fresh `ClusterService`: every node compiles every
//!   plan its jobs resolve too (each node resolves its own plans; the
//!   fabric carries only liveness), so the variant prices the cluster's
//!   liveness ticker.
//! * `cluster_warm` — the same cluster again: everything hits.
//! * `cluster_failover` — the same workload with rank 1 fail-stopped
//!   mid-batch on a fake-clock fault schedule: the cost of detection and
//!   checkpoint replay, with every answer still bit-identical and the
//!   failover count reported.
//! * `cluster_rejoin` — kill, replay, *restart*: rank 1 rejoins under a
//!   fresh incarnation with a cold cache and the same workload runs again
//!   on the healed mesh (the rejoined rank compiles its plans again).
//!
//! Every variant asserts its compiles: the sum over nodes of the distinct
//! plan keys each node resolved, and no fetch.  Writes machine-readable
//! `BENCH_cluster.json` (jobs/sec, compiles, control frames, failovers per
//! variant).  Problem size follows `AOHPC_SCALE=smoke|default|paper`.

use aohpc_kernel::prelude::Extent;
use aohpc_service::{
    ClusterService, ClusterTuning, FaultPlan, JobHandle, JobSpec, KernelService, NodeState,
    PlanCacheStats, PlanKey, ServiceConfig, SessionSpec,
};
use aohpc_testalloc::sync::FakeClock;
use aohpc_workloads::Scale;
use std::collections::HashSet;
use std::time::{Duration, Instant};

struct Outcome {
    name: &'static str,
    jobs: usize,
    secs: f64,
    compiles: u64,
    control_frames: u64,
    failovers: u64,
    checksum_bits: u64,
}

impl Outcome {
    fn jobs_per_sec(&self) -> f64 {
        self.jobs as f64 / self.secs.max(1e-9)
    }
}

fn workload(scale: Scale) -> Vec<JobSpec> {
    vec![JobSpec::jacobi(scale), JobSpec::smooth(scale)]
}

/// The distinct plan keys a node running every job of `jobs` resolves: a
/// stencil job resolves one plan a tile shape of its region.
fn plan_keys(jobs: &[JobSpec]) -> u64 {
    let mut keys = HashSet::new();
    for spec in jobs {
        let sides = |n: usize| (0..n).step_by(spec.block).map(move |at| spec.block.min(n - at));
        for nx in sides(spec.region.nx) {
            for ny in sides(spec.region.ny) {
                keys.insert(PlanKey::of(&spec.program, Extent::new2d(nx, ny), spec.opt_level));
            }
        }
    }
    keys.len() as u64
}

/// Submit `reps` copies of every program under one session per node.
fn submit_all(
    submit: impl Fn(usize, JobSpec) -> JobHandle,
    nodes: usize,
    jobs: &[JobSpec],
    reps: usize,
) -> Vec<JobHandle> {
    let mut handles = Vec::new();
    for node in 0..nodes {
        for job in jobs {
            for _ in 0..reps {
                handles.push(submit(node, job.clone()));
            }
        }
    }
    handles
}

/// Wait for every handle; returns (first job's checksum bits, failovers).
fn wait_all(handles: &[JobHandle]) -> (u64, u64) {
    let mut first_bits = 0u64;
    let mut failovers = 0u64;
    for (i, handle) in handles.iter().enumerate() {
        let report = handle.wait().expect("job executed");
        assert!(report.error.is_none(), "bench job failed: {:?}", report.error);
        if i == 0 {
            first_bits = report.checksum.to_bits();
        }
        failovers += u64::from(report.failover.is_some());
    }
    (first_bits, failovers)
}

/// The ledger every variant holds: each miss a local compile, no fetch.
fn assert_local(name: &str, stats: &PlanCacheStats) {
    assert_eq!(stats.fetches, 0, "{name}: a node fetched a plan: {stats:?}");
    assert_eq!(stats.misses, stats.compiles, "{name}: ledger broken: {stats:?}");
}

/// Advance the fake clock `ticks` notches of 10 ms; each advance runs one
/// liveness step of the cluster.
fn drive(clock: &FakeClock, ticks: usize) {
    for _ in 0..ticks {
        clock.advance(Duration::from_millis(10));
    }
}

fn main() {
    let scale = Scale::from_env();
    let nodes: usize = 4;
    let reps: usize = match scale {
        Scale::Smoke => 2,
        Scale::Default => 8,
        Scale::Paper => 16,
    };
    let jobs = workload(scale);
    let keys = plan_keys(&jobs);
    let config = ServiceConfig::default().with_workers(scale.service_workers());
    println!(
        "# bench_cluster — {} programs ({keys} plan keys) x {nodes} nodes x {reps} reps, \
         scale = {scale}",
        jobs.len()
    );

    let mut outcomes: Vec<Outcome> = Vec::new();

    // Independent nodes: every node compiles every plan key.
    {
        let services: Vec<KernelService> = (0..nodes).map(|_| KernelService::new(config)).collect();
        let sessions: Vec<_> =
            services.iter().map(|s| s.open_session(SessionSpec::tenant("bench"))).collect();
        let start = Instant::now();
        let handles =
            submit_all(|n, job| services[n].submit(sessions[n], job).unwrap(), nodes, &jobs, reps);
        let (bits, _) = wait_all(&handles);
        let secs = start.elapsed().as_secs_f64();
        let stats = services.iter().fold(PlanCacheStats::default(), |acc, s| acc + s.cache_stats());
        assert_local("independent_cold", &stats);
        assert_eq!(stats.compiles, keys * nodes as u64, "every node compiles every key");
        outcomes.push(Outcome {
            name: "independent_cold",
            jobs: handles.len(),
            secs,
            compiles: stats.compiles,
            control_frames: 0,
            failovers: 0,
            checksum_bits: bits,
        });
    }

    // The cluster: cold (each node compiles its keys), then warm (all hits).
    let cluster = ClusterService::new(nodes, config);
    let sessions: Vec<_> = (0..nodes)
        .map(|n| cluster.open_session_on(n, SessionSpec::tenant(format!("bench-{n}"))))
        .collect();
    for (name, expected) in [("cluster_cold", keys), ("cluster_warm", 0)] {
        let before_cache = cluster.cache_stats().per_node;
        let before_comm = cluster.comm_stats().total;
        let start = Instant::now();
        let handles =
            submit_all(|n, job| cluster.submit(sessions[n], job).unwrap(), nodes, &jobs, reps);
        let (bits, _) = wait_all(&handles);
        let secs = start.elapsed().as_secs_f64();
        let cache = cluster.cache_stats();
        assert_local(name, &cache.total);
        for (rank, (now, was)) in cache.per_node.iter().zip(&before_cache).enumerate() {
            assert_eq!(now.compiles - was.compiles, expected, "{name}: node {rank} compiles");
        }
        let comm = cluster.comm_stats().total;
        outcomes.push(Outcome {
            name,
            jobs: handles.len(),
            secs,
            compiles: expected * nodes as u64,
            control_frames: comm.control_sent - before_comm.control_sent,
            failovers: 0,
            checksum_bits: bits,
        });
    }
    cluster.shutdown();

    // Failover drill: the same workload on a fake-clock cluster whose rank 1
    // is fail-stopped mid-batch.  Every job still completes — queued jobs on
    // the dead rank replay on survivors, bit-identically — and the variant
    // records how many reports carried failover provenance.  Each survivor
    // ran the whole workload, so it compiled every key; rank 1 compiled the
    // keys of the jobs it dequeued before the kill.
    {
        let clock = FakeClock::new();
        let plan = FaultPlan::new().kill_at(1, Duration::from_millis(30));
        let cluster = ClusterService::with_fake_clock(
            nodes,
            config,
            clock.clone(),
            ClusterTuning::fast(),
            plan,
            None,
        );
        let sessions: Vec<_> = (0..nodes)
            .map(|n| cluster.open_session_on(n, SessionSpec::tenant(format!("drill-{n}"))))
            .collect();
        let start = Instant::now();
        let handles =
            submit_all(|n, job| cluster.submit(sessions[n], job).unwrap(), nodes, &jobs, reps);
        // Drive the detector well past the kill and its death threshold.
        drive(&clock, 40);
        let (bits, failovers) = wait_all(&handles);
        let secs = start.elapsed().as_secs_f64();
        let cache = cluster.cache_stats();
        assert_local("cluster_failover", &cache.total);
        for (rank, node) in cache.per_node.iter().enumerate() {
            if rank == 1 {
                assert!(node.compiles <= keys, "the killed rank compiled {node:?}");
            } else {
                assert_eq!(node.compiles, keys, "survivor {rank} compiles every key once");
            }
        }
        outcomes.push(Outcome {
            name: "cluster_failover",
            jobs: handles.len(),
            secs,
            compiles: cache.total.compiles,
            control_frames: cluster.comm_stats().total.control_sent,
            failovers,
            checksum_bits: bits,
        });
        cluster.shutdown();
    }

    // Rejoin drill: rank 1 is fail-stopped mid-batch, the replays drain,
    // then the rank *restarts* under a fresh incarnation with a cold cache
    // and the same workload runs again across the healed mesh: the
    // survivors hit, the rejoined rank compiles every key again.
    {
        let clock = FakeClock::new();
        let plan = FaultPlan::new()
            .kill_at(1, Duration::from_millis(30))
            .restart_at(1, Duration::from_millis(250));
        let cluster = ClusterService::with_fake_clock(
            nodes,
            config,
            clock.clone(),
            ClusterTuning::fast(),
            plan,
            None,
        );
        let sessions: Vec<_> = (0..nodes)
            .map(|n| cluster.open_session_on(n, SessionSpec::tenant(format!("rejoin-{n}"))))
            .collect();
        let start = Instant::now();
        let handles =
            submit_all(|n, job| cluster.submit(sessions[n], job).unwrap(), nodes, &jobs, reps);
        // Drive the detector past the kill (30 ms) and the death threshold,
        // let every job finish — replays and the dead rank's in-flight job,
        // which would otherwise re-warm the restarted rank's cache — then
        // drive past the scripted restart (250 ms).
        drive(&clock, 20);
        let (bits, failovers) = wait_all(&handles);
        drive(&clock, 40);
        // Wait for the rejoin: every view holds rank 1 Alive under one
        // agreed fresh incarnation.
        let mut rejoined = false;
        for _ in 0..300 {
            drive(&clock, 1);
            let inc = cluster.incarnation(1, 1);
            let agreed = (0..nodes).all(|o| {
                cluster.node_state(o, 1) == NodeState::Alive && cluster.incarnation(o, 1) == inc
            });
            if agreed && inc >= 1 {
                rejoined = true;
                break;
            }
        }
        assert!(rejoined, "rank 1 never rejoined the mesh");

        // Steady state on the healed mesh, rejoined rank included.
        let before = cluster.cache_stats().per_node;
        let again =
            submit_all(|n, job| cluster.submit(sessions[n], job).unwrap(), nodes, &jobs, reps);
        let (again_bits, _) = wait_all(&again);
        assert_eq!(again_bits, bits, "the healed mesh computed different bits");
        let secs = start.elapsed().as_secs_f64();
        let cache = cluster.cache_stats();
        assert_local("cluster_rejoin", &cache.total);
        for (rank, (now, was)) in cache.per_node.iter().zip(&before).enumerate() {
            let expected = if rank == 1 { keys } else { 0 };
            assert_eq!(now.compiles - was.compiles, expected, "post-heal compiles on node {rank}");
        }
        outcomes.push(Outcome {
            name: "cluster_rejoin",
            jobs: handles.len() + again.len(),
            secs,
            compiles: cache.total.compiles,
            control_frames: cluster.comm_stats().total.control_sent,
            failovers,
            checksum_bits: bits,
        });
        cluster.shutdown();
    }

    // Every variant computed the same field bit-for-bit.
    for o in &outcomes[1..] {
        assert_eq!(o.checksum_bits, outcomes[0].checksum_bits, "{} diverged", o.name);
    }

    println!(
        "{:<17} {:>6} {:>12} {:>9} {:>15} {:>10}",
        "variant", "jobs", "jobs/sec", "compiles", "control frames", "failovers"
    );
    for o in &outcomes {
        println!(
            "{:<17} {:>6} {:>12.1} {:>9} {:>15} {:>10}",
            o.name,
            o.jobs,
            o.jobs_per_sec(),
            o.compiles,
            o.control_frames,
            o.failovers
        );
    }

    // Machine-readable record (no external JSON dependency in the offline
    // workspace, so the document is assembled by hand).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"cluster\",\n");
    json.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    json.push_str(&format!("  \"nodes\": {nodes},\n"));
    json.push_str(&format!("  \"programs\": {},\n", jobs.len()));
    json.push_str(&format!("  \"plan_keys\": {keys},\n"));
    json.push_str(&format!("  \"reps_per_node\": {reps},\n"));
    json.push_str("  \"variants\": {\n");
    for (i, o) in outcomes.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"jobs\": {}, \"jobs_per_sec\": {:.1}, \"compiles\": {}, \"control_frames\": {}, \"failovers\": {}}}{}\n",
            o.name,
            o.jobs,
            o.jobs_per_sec(),
            o.compiles,
            o.control_frames,
            o.failovers,
            if i + 1 == outcomes.len() { "" } else { "," },
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_cluster.json", json).expect("write BENCH_cluster.json");
    println!("wrote BENCH_cluster.json");
}
