//! Cluster mesh demo: N service nodes over the simulated fabric.
//!
//! Every node receives the same two programs and compiles each once through
//! its own plan cache — `2 × N` compilations in all — while every node's
//! results stay bit-identical.  The fabric carries only liveness frames
//! (heartbeats, gossip, view sync): the job path sends no application
//! control frame.
//!
//! ```sh
//! AOHPC_SCALE=smoke cargo run --release --example cluster_mesh
//! ```

use aohpc_service::{ClusterService, JobSpec, ServiceConfig, SessionSpec};
use aohpc_workloads::Scale;

fn main() {
    let scale = Scale::from_env();
    const NODES: usize = 3;
    let cluster = ClusterService::new(NODES, ServiceConfig::for_scale(scale));
    println!("# cluster_mesh — {NODES} nodes, scale = {scale}");

    // One tenant per node (placement made explicit for the demo; plain
    // `open_session` routes by tenant-hash affinity).
    let jobs = [JobSpec::jacobi(scale), JobSpec::smooth(scale)];
    let mut handles = Vec::new();
    for node in 0..NODES {
        let session = cluster.open_session_on(node, SessionSpec::tenant(format!("tenant-{node}")));
        for job in &jobs {
            handles.push((node, cluster.submit(session, job.clone()).expect("admitted")));
        }
    }

    let mut checksums: Vec<Vec<u64>> = vec![Vec::new(); NODES];
    for (node, handle) in handles {
        let report = handle.wait().expect("job executed");
        assert!(report.error.is_none(), "job failed: {:?}", report.error);
        checksums[node].push(report.checksum.to_bits());
    }
    for node in 1..NODES {
        assert_eq!(
            checksums[node], checksums[0],
            "node {node} diverged from node 0 — every node must compute the same bits"
        );
    }

    let cache = cluster.cache_stats();
    println!("\nper-node plan caches (compiles / hits):");
    for (rank, s) in cache.per_node.iter().enumerate() {
        println!("  node {rank}: {:>2} compiled, {:>3} hits", s.compiles, s.hits);
        assert_eq!(s.compiles as usize, jobs.len(), "node {rank} compiles each program once");
    }
    println!(
        "cluster total: {} compiles for {} distinct programs on {} nodes",
        cache.total.compiles,
        jobs.len(),
        NODES,
    );
    assert_eq!(cache.total.compiles as usize, NODES * jobs.len());

    let comm = cluster.comm_stats();
    println!(
        "fabric: {} application control frames, {} liveness frames",
        comm.total.control_sent, comm.total.liveness_sent,
    );
    assert_eq!(comm.total.control_sent, 0, "the job path sends no application control frame");

    cluster.shutdown();
    println!("\nresults bit-identical across all {NODES} nodes ✓");
}
