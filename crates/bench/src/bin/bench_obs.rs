//! Observability overhead bench: the woven tracing/metrics layer vs the
//! unobserved baseline, on the same service workload.
//!
//! Two variants run identical job streams through a [`KernelService`]:
//!
//! * `baseline` — no [`ObsHub`] installed: no weave carries an obs aspect,
//!   so a service-plane dispatch finds no advice chain and runs its body,
//!   and a task's block join point, unadvised, is a plain call.
//! * `observed` — a hub installed via `with_observer`: full span recording
//!   (job / superstep / block / resolve trees), latency histograms, and
//!   per-fingerprint throughput cells.
//!
//! Measurement is paired: each round times both variants back to back
//! (alternating which goes first, so ordering bias cancels), the per-round
//! overhead is the pair's throughput ratio, and the reported figure is the
//! **median of the per-pair ratios** — robust against the slow drift that
//! makes ratios of independent medians noisy.  A single worker keeps the
//! measured path free of scheduler jitter.  Blocks are large (64 × 64) so
//! the per-block span cost is measured against a realistic grain — the
//! paper's AOP pitch is that woven concerns amortize over block-sized work,
//! not per-cell hooks.  The bin asserts the median overhead stays within
//! the paper's weaving envelope (≤ 2%) and writes machine-readable
//! `BENCH_obs.json`.  Problem size follows `AOHPC_SCALE=smoke|default|paper`.

use aohpc_kernel::StencilProgram;
use aohpc_service::{JobSpec, KernelService, ObsHub, ServiceConfig, SessionSpec};
use aohpc_workloads::{RegionSize, Scale};
use std::sync::Arc;
use std::time::Instant;

/// One timed round: `jobs` identical submissions drained to quiescence.
/// Returns jobs/sec.
fn round(service: &KernelService, spec: &JobSpec, jobs: usize) -> f64 {
    let session = service.open_session(SessionSpec::tenant("obs-bench"));
    let start = Instant::now();
    let handles: Vec<_> =
        (0..jobs).map(|_| service.submit(session, spec.clone()).expect("admitted")).collect();
    for handle in &handles {
        let report = handle.wait().expect("job executed");
        assert!(report.error.is_none(), "bench job failed: {:?}", report.error);
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    service.close_session(session);
    jobs as f64 / secs
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let scale = Scale::from_env();
    let (region, steps, jobs, rounds) = match scale {
        Scale::Smoke => (RegionSize { nx: 256, ny: 256 }, 4, 6, 9),
        Scale::Default => (RegionSize { nx: 512, ny: 512 }, 8, 8, 11),
        Scale::Paper => (RegionSize { nx: 1024, ny: 1024 }, 8, 16, 15),
    };
    // Large blocks: the span-per-block cost amortizes over 4096 cells.
    let spec = JobSpec::new(StencilProgram::jacobi_5pt(), vec![0.5, 0.125], region)
        .with_block(64)
        .with_steps(steps);
    // One worker: the measured path is a single thread executing blocks, so
    // the A/B delta is the woven layer, not scheduler jitter.
    let config = ServiceConfig::default().with_workers(1);
    println!(
        "# bench_obs — baseline vs observed, {}x{} jacobi x{steps} steps, {jobs} jobs x{rounds} paired rounds, scale = {scale}",
        region.nx, region.ny
    );

    let baseline = KernelService::new(config);
    let hub = ObsHub::new();
    let observed = KernelService::with_observer(config, Arc::clone(&hub));

    // Warm-up: compile the plan and size every pool on both services.
    round(&baseline, &spec, 2);
    round(&observed, &spec, 2);

    // Paired rounds, alternating order, overhead = median of pair ratios.
    let mut base_rates = Vec::with_capacity(rounds);
    let mut obs_rates = Vec::with_capacity(rounds);
    let mut ratios = Vec::with_capacity(rounds);
    for pair in 0..rounds {
        let (b, o) = if pair % 2 == 0 {
            let b = round(&baseline, &spec, jobs);
            (b, round(&observed, &spec, jobs))
        } else {
            let o = round(&observed, &spec, jobs);
            (round(&baseline, &spec, jobs), o)
        };
        base_rates.push(b);
        obs_rates.push(o);
        ratios.push(b / o);
    }
    let base = median(&mut base_rates);
    let obs = median(&mut obs_rates);
    let overhead_pct = (median(&mut ratios) - 1.0) * 100.0;

    let spans = hub.recorder().len() + hub.recorder().dropped() as usize;
    let snapshot = observed.obs_snapshot().expect("observer installed");
    let violations = snapshot.validate();
    assert!(violations.is_empty(), "snapshot inconsistent: {violations:?}");

    println!("baseline (no hub):  {base:>10.1} jobs/sec");
    println!("observed (woven):   {obs:>10.1} jobs/sec   ({spans} spans recorded)");
    println!("overhead:           {overhead_pct:>9.2}%   (envelope: <= 2%)");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"obs_overhead\",\n");
    json.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    json.push_str(&format!("  \"region\": [{}, {}],\n", region.nx, region.ny));
    json.push_str(&format!("  \"block\": 64,\n  \"steps\": {steps},\n"));
    json.push_str(&format!("  \"jobs_per_round\": {jobs},\n  \"rounds\": {rounds},\n"));
    json.push_str(&format!("  \"baseline_jobs_per_sec\": {base:.1},\n"));
    json.push_str(&format!("  \"observed_jobs_per_sec\": {obs:.1},\n"));
    json.push_str(&format!("  \"spans_recorded\": {spans},\n"));
    json.push_str(&format!("  \"overhead_pct\": {overhead_pct:.2}\n"));
    json.push_str("}\n");
    std::fs::write("BENCH_obs.json", json).expect("write BENCH_obs.json");
    println!("wrote BENCH_obs.json");

    baseline.shutdown();
    observed.shutdown();
    assert!(
        overhead_pct <= 2.0,
        "observability overhead {overhead_pct:.2}% exceeds the 2% envelope"
    );
}
