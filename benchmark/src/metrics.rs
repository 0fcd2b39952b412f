//! The benchmark's contract in one place: workload names, metric names,
//! units, directions and regression bounds.  `/BENCHMARK.json` is generated
//! from these tables (`run.sh --emit-benchmark-json`) and a unit test fails
//! when the committed file drifts from them.

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).  The driver
/// makes 4 + 22 x [`GATED`] runs and two builds in 3420 s; a run takes 4-9 s
/// more than it measures (set-ups, the hand-written codes, the references),
/// which at 25 s leaves a sixth of the budget to spare.
pub const RUN_SECONDS: u64 = 25;

/// Seed of the committed first set of numbers (`benchmark/BASELINE.json`).
pub const DEFAULT_SEED: u64 = 20220530;

/// A seed no number in this change was tuned on; a later change that claims a
/// gain must also show it here.
pub const HELD_OUT_SEED: u64 = 7919;

/// How many of [`WORKLOADS`], from the front, `BENCHMARK.json` lists and the
/// driver therefore runs and holds to the bounds.  The driver refused all six
/// at 10 s a run as too noisy and its budget pays for runs of half a minute
/// only for four workloads or fewer.  The four keep one workload on which
/// each planned optimisation does its work and one it bypasses.  The two left
/// out keep both cores busy beside the waiting client (two ranks; two nodes
/// with their fabric threads): the hand-written code, which runs alone, does
/// not slow down with them, so `platform_overhead_x` spreads by 11-18% there
/// against 4-9% on the four.  They stay runnable by name and part of the
/// whole-suite run.
pub const GATED: usize = 4;

/// `(name, why)` of every workload, in run order: the gated ones first.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "sgrid_jacobi",
        "The paper's fig06 SGrid case (jacobi 512x512, block 64, 8 steps, one worker): the env/mem access path does ~85% of the work, the kernel ~5%, the service ~0.",
    ),
    (
        "usgrid_jacobi",
        "The same arithmetic through neighbour indirection and the update closure (usgrid CaseC 256x256): the largest overhead ratio over hand-written code.",
    ),
    (
        "particle_sweep",
        "2^15 particles, 8 steps: the pair law does most of the work and the access path little, so it bypasses access-path changes and exercises the particle law.",
    ),
    (
        "service_small_mix",
        "Tiny jobs of all families, two workers, four outstanding, a tenth structurally new programs: per-job fixed costs and the plan cache (hit, compile, evict) dominate.",
    ),
    (
        "sgrid_mpi2",
        "sgrid_jacobi on a 2-rank distributed topology with MpiAspect woven: page exchange and woven dispatch do work here and none in sgrid_jacobi.",
    ),
    (
        "cluster_mixed",
        "Fresh 2-node cluster per epoch, 40 mid-size jobs of all families alternating nodes: the only workload where plan fetch and the control fabric do work.",
    ),
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `(name, unit, better, bound)` of every end-to-end metric.  `bound` is the
/// share of the parent's median by which the metric may worsen.
///
/// The reference box is a 2-vCPU microVM whose memory system slows down for
/// minutes at a time (the spin-loop canary never notices): the platform's jobs
/// by 10-40%, the hand-written jacobi from 12 ms to 17-27 ms.  Every raw
/// timing moves with it — the driver refused `updates_per_s`, `jobs_per_s` and
/// `job_latency_p10_ms` as bounded metrics when `usgrid_jacobi` spread by 26%
/// over one set of ten 10-second runs, and ten 28-second runs have since spread
/// by 26% on `sgrid_jacobi` — and the widest bound the contract allows is 25%.
/// So the one bounded figure besides `setup_s` is the paper's own, a ratio of
/// two timings taken seconds apart on the same box: `platform_overhead_x`, the
/// platform's job time ÷ the hand-written code's, per stretch of the measured
/// phase against the timings made in the pauses at its two ends, median over
/// the stretches (`run::platform_overhead`).  Over ten seeds it spread by
/// 4-9% where the raw timings of the same runs spread by 7-20%.  `setup_s` is
/// a raw time because the contract wants it one; it is the fastest of two
/// batches of set-ups half a minute apart, and only the distance between the
/// medians of two sets is held against its bound.
///
/// The raw timings are reported without a bound, as per-layer metrics (and
/// printed by the untraced run, from all of its samples): `updates_per_s`,
/// `jobs_per_s` (the best tenth of the measured phase), `job_latency_p10_ms`,
/// `job_latency_p50_ms`, `job_latency_p90_ms`; and `peak_rss_mb`, because glibc
/// keeps or returns freed pages depending on the order of earlier frees (17 or
/// 23 MB on `usgrid_jacobi`, 28-43 MB on `cluster_mixed`).  See README.md,
/// "How steady it is".
pub const END_TO_END: [(&str, &str, Better, f64); 2] =
    [("platform_overhead_x", "ratio", Better::Lower, 0.25), ("setup_s", "s", Better::Lower, 0.25)];

/// `(name, unit, better)` of every per-layer metric; the prefix is the module
/// the number belongs to.  README.md says which call each one times.
pub const PER_LAYER: [(&str, &str, Better); 70] = [
    // The two correctness counts ride here because an end-to-end metric may
    // never read 0; they also feed `failed` / `correct` of every result line.
    ("job_failure_ratio", "ratio", Better::Lower),
    ("result_mismatches", "count", Better::Lower),
    // End-to-end timings that cannot hold a bound on the reference box.
    ("updates_per_s", "1/s", Better::Higher),
    ("jobs_per_s", "1/s", Better::Higher),
    ("job_latency_p10_ms", "ms", Better::Lower),
    ("job_latency_p50_ms", "ms", Better::Lower),
    ("job_latency_p90_ms", "ms", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
    ("baselines.updates_per_s", "1/s", Better::Higher),
    ("kernel.execute_block.updates_per_s", "1/s", Better::Higher),
    ("kernel.execute_block.generic_updates_per_s", "1/s", Better::Higher),
    ("kernel.ops_per_update", "count", Better::Lower),
    ("kernel.bytes_per_update_computed", "B", Better::Lower),
    ("kernel.allocs_per_block", "count", Better::Lower),
    ("kernel.law_ns_per_call", "ns", Better::Lower),
    ("kernel.fingerprint_ns", "ns", Better::Lower),
    ("kernel.compile_us", "us", Better::Lower),
    ("kernel.tape_body_len", "count", Better::Lower),
    ("kernel.specialized", "count", Better::Higher),
    ("kernel.portable_bytes", "B", Better::Lower),
    ("kernel.portable_roundtrip_us", "us", Better::Lower),
    ("env.build_ms", "ms", Better::Lower),
    ("env.init_ns_per_cell", "ns", Better::Lower),
    ("env.gather_ns_per_cell", "ns", Better::Lower),
    ("env.halo_ns_per_read", "ns", Better::Lower),
    ("env.search_nodes_per_halo_read", "count", Better::Lower),
    ("env.scatter_ns_per_cell", "ns", Better::Lower),
    ("env.refresh_us_per_step", "us", Better::Lower),
    ("env.working_bytes", "B", Better::Lower),
    ("mem.page_extract_install_ns", "ns", Better::Lower),
    ("mem.pool_alloc_ns", "ns", Better::Lower),
    ("aop.dispatch_ns", "ns", Better::Lower),
    ("aop.dispatches_per_job", "count", Better::Lower),
    ("runtime.execute_ms", "ms", Better::Lower),
    ("runtime.tax_ms", "ms", Better::Lower),
    ("runtime.finalize_sink_ms", "ms", Better::Lower),
    ("runtime.reads_per_update", "count", Better::Lower),
    ("runtime.writes_per_update", "count", Better::Lower),
    ("runtime.allocs_per_job", "count", Better::Lower),
    ("dsl.closure_path_x", "ratio", Better::Lower),
    ("dsl.execute_ms", "ms", Better::Lower),
    ("runtime.comm.pages_per_step", "count", Better::Lower),
    ("runtime.comm.bytes_per_step", "B", Better::Lower),
    ("runtime.comm.page_roundtrip_us", "us", Better::Lower),
    ("service.submit_us", "us", Better::Lower),
    ("service.queue_wait_ms_p50", "ms", Better::Lower),
    ("service.resolve_us_p50", "us", Better::Lower),
    ("service.execute_ms_p50", "ms", Better::Lower),
    ("service.job_self_us_p50", "us", Better::Lower),
    ("service.tax_ms", "ms", Better::Lower),
    ("service.worker_busy_ratio", "ratio", Better::Higher),
    ("service.latency_p99_ms", "ms", Better::Lower),
    ("service.cache.resolve_hit_ns", "ns", Better::Lower),
    ("service.cache.resolve_miss_us", "us", Better::Lower),
    ("service.cache.hit_ratio", "ratio", Better::Higher),
    ("service.cache.compiles", "count", Better::Lower),
    ("service.cache.evictions", "count", Better::Lower),
    ("service.cluster.tax_ms", "ms", Better::Lower),
    ("service.cluster.cold_resolve_us_p50", "us", Better::Lower),
    ("service.cluster.compiles", "count", Better::Lower),
    ("service.cluster.fetches", "count", Better::Lower),
    ("service.cluster.control_frames", "count", Better::Lower),
    ("service.cluster.bytes", "B", Better::Lower),
    ("obs.trace_overhead_pct", "%", Better::Lower),
    ("obs.spans_per_job", "count", Better::Lower),
    ("obs.spans_dropped", "count", Better::Lower),
    ("obs.snapshot_violations", "count", Better::Lower),
    ("ledger.named_parts_ms", "ms", Better::Lower),
    ("ledger.residual_pct", "%", Better::Lower),
    ("bench.canary_drift_pct", "%", Better::Lower),
];

/// The text of `/BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS[..GATED].iter().enumerate() {
        let comma = if i + 1 == GATED { "" } else { "," };
        s.push_str(&format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}\n",
            better.word()
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}\n",
            better.word()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(well_formed(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'), "{name}");
        }
        let units =
            END_TO_END.iter().map(|m| (m.0, m.1)).chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
        for (name, unit) in units {
            assert!(well_formed(name) && seen.insert(name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.3 > 0.0 && m.3 <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").expect("setup_s is required");
        assert_eq!((setup.1, setup.2), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3), "setup_s carries the largest bound");
        assert!(PER_LAYER.len() <= 128 && benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with run.sh --emit-benchmark-json");
    }
}
