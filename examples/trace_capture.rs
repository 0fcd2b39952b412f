//! Flight-recorder capture demo: a mixed-family cluster run under the woven
//! observability layer, exported as a Chrome trace.
//!
//! Two service nodes share one [`ObsHub`], so every span any rank records —
//! job roots, cache resolutions, kernel supersteps and per-block execution —
//! lands in one flight recorder, linked into per-job trees by trace id.  The
//! demo submits one program per kernel family to *both* nodes (each node
//! compiles its own plans), then:
//!
//! 1. verifies the job → superstep → block span linkage,
//! 2. writes `trace_capture.chrome.json` — open it in `chrome://tracing` or
//!    <https://ui.perfetto.dev> to see the timeline,
//! 3. prints the cross-validated [`ObsSnapshot`].
//!
//! ```sh
//! AOHPC_SCALE=smoke cargo run --release --example trace_capture
//! ```

use aohpc_aop::names;
use aohpc_service::{
    chrome_trace_json, ClusterService, JobSpec, ObsHub, ServiceConfig, SessionSpec,
};
use aohpc_workloads::Scale;
use std::collections::HashSet;
use std::sync::Arc;

fn main() {
    let scale = Scale::from_env();
    const NODES: usize = 2;
    let hub = ObsHub::new();
    let cluster =
        ClusterService::with_observer(NODES, ServiceConfig::for_scale(scale), Arc::clone(&hub));
    println!("# trace_capture — {NODES} nodes, shared ObsHub, scale = {scale}");

    // One program per kernel family, submitted on every node: each node
    // compiles the plans its jobs resolve.
    let jobs = [JobSpec::jacobi(scale), JobSpec::particle(scale), JobSpec::usgrid(scale)];
    let mut handles = Vec::new();
    for node in 0..NODES {
        let session = cluster.open_session_on(node, SessionSpec::tenant(format!("trace-{node}")));
        for job in &jobs {
            handles.push(cluster.submit(session, job.clone()).expect("admitted"));
        }
    }
    let mut traces = HashSet::new();
    for handle in handles {
        let report = handle.wait().expect("job executed");
        assert!(report.error.is_none(), "job failed: {:?}", report.error);
        let trace = report.trace_id.expect("observed jobs carry a trace id");
        traces.insert(trace);
        println!(
            "  job {:>2}  trace {trace:>3}  queue {:>7?}  resolve {:>9?}  execute {:>9?}",
            report.job, report.queue_wait, report.resolve_time, report.execute_time
        );
    }

    let spans = hub.recorder().spans();

    // Acceptance: job → superstep → block linkage inside one trace tree.
    let job_roots: Vec<_> =
        spans.iter().filter(|s| s.name == "Service::job" && s.parent == 0).collect();
    assert_eq!(job_roots.len(), traces.len(), "one root span per job");
    let mut linked_blocks = 0usize;
    for root in &job_roots {
        let steps: Vec<_> = spans
            .iter()
            .filter(|s| s.name == names::KERNEL_STEP && s.trace == root.trace)
            .collect();
        assert!(!steps.is_empty(), "trace {} has superstep spans", root.trace);
        let step_ids: HashSet<u64> = steps.iter().map(|s| s.span).collect();
        for block in spans.iter().filter(|s| s.name == names::KERNEL_BLOCK && s.trace == root.trace)
        {
            assert!(
                step_ids.contains(&block.parent),
                "block span parents into a superstep of its own trace"
            );
            linked_blocks += 1;
        }
    }
    assert!(linked_blocks > 0, "block spans recorded");

    let chrome = chrome_trace_json(&spans);
    std::fs::write("trace_capture.chrome.json", &chrome).expect("write chrome trace");
    println!(
        "\n{} spans across {} job traces ({linked_blocks} block spans linked)",
        spans.len(),
        traces.len()
    );
    println!("wrote trace_capture.chrome.json ({} bytes) — open in chrome://tracing", chrome.len());

    let snapshot = cluster.obs_snapshot().expect("observer installed");
    let violations = snapshot.validate();
    assert!(violations.is_empty(), "snapshot inconsistent: {violations:?}");
    println!(
        "snapshot: {} completed, cache {}c/{}h, comm {} control frames — validate() clean ✓",
        snapshot.jobs.completed,
        snapshot.cache.as_ref().unwrap().compiles,
        snapshot.cache.as_ref().unwrap().hits,
        snapshot.comm.as_ref().unwrap().control_sent,
    );
    cluster.shutdown();
}
