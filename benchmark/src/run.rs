//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.

use crate::cli::Args;
use crate::drive::{check, job_spans, measure, setup, JobRecord, Phase, Verdict, Window};
use crate::ledger;
use crate::metrics::PER_LAYER;
use crate::reference::{is_handwritten, run_once};
use crate::report::{MetricSet, RunResult};
use crate::stats::{median, percentile, self_time_ns, Span};
use crate::workloads::{Plan, WorkloadId};
use aohpc_service::ObsHub;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

/// Set-up is done at least this many times before the measured phase of an
/// untraced run, and again after it; `setup_s` is the fastest of all.  Half a
/// minute lies between the two batches, so a burst of interference that
/// covers one of them whole leaves the other.
const SETUPS: usize = 3;

/// A batch of set-ups goes on until it has taken this long, seconds: a set-up
/// of a few hundredths of a second (the small mix) is repeated some twenty
/// times, and its fastest is as steady as that of a half-second one.
const SETUP_BATCH_S: f64 = 1.0;

/// Rounds of the replay ledger.
const LEDGER_REPS: usize = 7;

/// Stretches the measured phase is run in.
const STRETCHES: usize = 10;

/// In one pause between stretches each hand-written code is run this many
/// times at least, ...
const BASE_RUNS: usize = 3;

/// ... and on until the pause has lasted this long, seconds, ...
const BASE_PAUSE_S: f64 = 0.1;

/// ... or this many runs are made.  The short codes scatter most and cost
/// least: a 13 ms one is run eight times a pause, a 125 ms one three times.
const BASE_RUNS_MOST: usize = 32;

/// A fixed spin loop, timed: the same work before and after a run, so a box
/// that slowed down (or sped up) underneath the benchmark shows.
fn canary() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..40_000_000u64 {
        x = black_box(x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1442695040888963407));
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// `VmHWM` of this process so far, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status")
        / 1024.0
}

fn latencies(records: &[JobRecord]) -> Vec<f64> {
    records.iter().map(JobRecord::latency_ms).collect()
}

/// Wall times, seconds, of a few runs of each kind's hand-written code, all
/// made in one pause of the measured phase.
type Bases = BTreeMap<usize, Vec<f64>>;

/// Time the hand-written code of every kind that has one [`BASE_RUNS`] times
/// or more.
fn sample_bases(plan: &Plan) -> Bases {
    let mut bases = Bases::new();
    for kind in plan.stock_kinds().filter(|kind| is_handwritten(&plan.kinds[*kind])) {
        let walls = bases.entry(kind).or_default();
        let batch = Instant::now();
        while walls.len() < BASE_RUNS
            || walls.len() < BASE_RUNS_MOST && batch.elapsed().as_secs_f64() < BASE_PAUSE_S
        {
            let start = Instant::now();
            black_box(run_once(&plan.kinds[kind]));
            walls.push(start.elapsed().as_secs_f64());
        }
    }
    bases
}

/// The throughput the platform sustains over many jobs on an undisturbed box:
/// the best stretch's `count` ÷ wall.  A stretch is a tenth of the measured
/// phase (a dozen jobs or more) and every job of it counts, so a change that
/// slows most jobs (or every tenth one) slows every stretch; a neighbour that
/// slows the box for part of the run does not.
fn best_stretch_rate(phase: &Phase, count: impl Fn(&Window) -> f64) -> f64 {
    phase
        .stretches()
        .map(|(_, decks)| {
            decks.iter().map(&count).sum::<f64>() / decks.iter().map(|w| w.wall_s).sum::<f64>()
        })
        .fold(0.0, f64::max)
}

/// The raw timings of the measured phase: what a user of this box would
/// clock.  They carry no bound, because the box itself changes speed by a
/// quarter and more for minutes at a time (README, "How steady it is"); the
/// untraced run prints them beside the bounded metrics, the traced run
/// computes them the same way on its first stream and reports them among the
/// per-layer metrics.
struct Raw {
    /// `updates_per_s`.
    updates_per_s: f64,
    /// `jobs_per_s`.
    jobs_per_s: f64,
    /// `job_latency_p10_ms`.
    p10_ms: f64,
    /// `job_latency_p50_ms`.
    p50_ms: f64,
    /// `job_latency_p90_ms`.
    p90_ms: f64,
}

impl Raw {
    /// Of a phase in which at least one job completed.
    fn of(phase: &Phase) -> Raw {
        let lat = latencies(&phase.records);
        Raw {
            updates_per_s: best_stretch_rate(phase, |w| w.updates as f64),
            jobs_per_s: best_stretch_rate(phase, |w| w.jobs as f64),
            p10_ms: percentile(&lat, 10.0),
            p50_ms: percentile(&lat, 50.0),
            p90_ms: percentile(&lat, 90.0),
        }
    }

    /// `(name, value)` of each, under the names of `metrics::PER_LAYER`.
    fn named(&self) -> [(&'static str, f64); 5] {
        [
            ("updates_per_s", self.updates_per_s),
            ("jobs_per_s", self.jobs_per_s),
            ("job_latency_p10_ms", self.p10_ms),
            ("job_latency_p50_ms", self.p50_ms),
            ("job_latency_p90_ms", self.p90_ms),
        ]
    }
}

/// The paper's fig06 figure: the platform's time for the jobs that have a
/// hand-written code (`aohpc_baselines::Handwritten*`) ÷ that code's time for
/// the same jobs; smooth-9pt and cold jobs have no hand-written code and stay
/// out.  A job's time is submit → report when it is the only one in flight;
/// with several in flight the client sees reports out of order, so it is the
/// report's resolve + execute time.
///
/// The box changes speed under both codes alike, so the ratio is taken per
/// stretch, against the hand-written timings of the two pauses that enclose
/// the stretch (`pauses[i]` and `pauses[i + 1]`, seconds apart): per kind the
/// median job time ÷ the median hand-written time, weighted by how many jobs
/// of the kind the stretch ran.  The median of the stretches' ratios is
/// reported, with a line naming each kind's base; `None` when no such job
/// completed.
fn platform_overhead(phase: &Phase, plan: &Plan, pauses: &[Bases]) -> Option<(f64, String)> {
    let own_s = |r: &JobRecord| match plan.outstanding {
        1 => r.latency_ms() / 1e3,
        _ => (r.resolve_ns + r.execute_ns) as f64 / 1e9,
    };
    let mut ratios = Vec::new();
    for ((jobs, _), ends) in phase.stretches().zip(pauses.windows(2)) {
        let (mut platform_s, mut by_hand_s) = (0.0, 0.0);
        for (kind, walls) in &ends[0] {
            let own: Vec<f64> = jobs.iter().filter(|r| r.kind == *kind).map(own_s).collect();
            if own.is_empty() {
                continue;
            }
            let both: Vec<f64> = walls.iter().chain(&ends[1][kind]).copied().collect();
            platform_s += own.len() as f64 * median(&own);
            by_hand_s += own.len() as f64 * median(&both);
        }
        if by_hand_s > 0.0 {
            ratios.push(platform_s / by_hand_s);
        }
    }
    let mut line = String::new();
    for kind in pauses.first()?.keys() {
        let all: Vec<f64> = pauses.iter().flat_map(|p| &p[kind]).copied().collect();
        line.push_str(&format!(" {} {:.4} ms,", plan.kinds[*kind].label, median(&all) * 1e3));
    }
    (!ratios.is_empty()).then(|| (median(&ratios), line.trim_end_matches(',').to_string()))
}

fn print_table(title: &str, rows: &[(String, f64, String)]) {
    println!("# {title}");
    for (name, value, unit) in rows {
        println!("{name:<44} {value:>18.6} {unit}");
    }
}

/// The result of a run whose gate failed before there was anything to
/// measure: a job failed, or none completed.  No metrics, `correct: false`.
fn gate_failed(workload: WorkloadId, verdict: &Verdict) -> RunResult {
    println!(
        "# {}: attempted {} failed {} result_mismatches {}: no metrics",
        workload.name(),
        verdict.attempted,
        verdict.failed,
        verdict.mismatches
    );
    RunResult {
        correct: false,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: Vec::new(),
    }
}

/// The untraced run: no `ObsHub` anywhere, system allocator.
pub fn untraced(workload: WorkloadId, args: &Args) -> RunResult {
    let canary_before = canary();
    let epoch = Instant::now();
    let mut setups = Vec::new();
    let mut warmups: Vec<JobRecord> = Vec::new();
    // One batch of set-ups; all but the last are torn down again.
    let mut batch = || {
        let start = Instant::now();
        let mut done = 0;
        loop {
            let mut ready = setup(workload, args.seed, args.smoke, None, epoch);
            setups.push(ready.setup_s);
            warmups.append(&mut ready.warmup);
            done += 1;
            let enough = done >= SETUPS && start.elapsed().as_secs_f64() >= SETUP_BATCH_S;
            if args.smoke || enough {
                return ready;
            }
            ready.host.shutdown();
        }
    };
    let ready = batch();
    let mut pauses = Vec::new();
    let (phase, plan) = measure(ready, args.seconds, STRETCHES, None, epoch, |plan| {
        pauses.push(sample_bases(plan))
    });
    // Before any reference allocates: the platform's own peak.
    let peak_rss_mb = peak_rss_mb();
    batch().host.shutdown();
    let verdict = check(&plan.kinds, warmups.iter().chain(&phase.records));
    let Some((overhead, bases_line)) =
        platform_overhead(&phase, &plan, &pauses).filter(|_| verdict.failed == 0)
    else {
        return gate_failed(workload, &verdict);
    };
    let raw = Raw::of(&phase);

    let mut m = MetricSet::default();
    m.set("platform_overhead_x", overhead);
    m.set("setup_s", setups.iter().copied().fold(f64::INFINITY, f64::min));
    let metrics = m.end_to_end();

    let canary_after = canary();
    print_table(&format!("{} seed {} (untraced)", workload.name(), args.seed), &metrics);
    let mut unbounded: Vec<(String, f64, String)> = Vec::new();
    for (name, value) in raw.named().into_iter().chain([("peak_rss_mb", peak_rss_mb)]) {
        let unit = PER_LAYER.iter().find(|m| m.0 == name).expect("a per-layer metric").1;
        unbounded.push((name.into(), value, unit.into()));
    }
    print_table(
        "no bound on this box (the traced run reports them as per-layer metrics)",
        &unbounded,
    );
    let updates: u64 = phase.windows.iter().map(|w| w.updates).sum();
    let samples = phase.records.len();
    println!(
        "# {} latency samples ({} beyond the p90) over {} decks in {:.2} s: the whole phase sustained {:.2} jobs/s, {:.0} updates/s",
        samples,
        samples / 10,
        phase.windows.len(),
        phase.wall_s,
        samples as f64 / phase.wall_s,
        updates as f64 / phase.wall_s,
    );
    println!(
        "# hand-written base:{}; {} set-ups; canary {:.1} -> {:.1} ms",
        bases_line,
        setups.len(),
        canary_before * 1e3,
        canary_after * 1e3,
    );
    println!(
        "# attempted {} failed {} result_mismatches {}",
        verdict.attempted, verdict.failed, verdict.mismatches
    );
    RunResult {
        correct: verdict.mismatches == 0,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
    }
}

/// The traced run.  (a) The workload's stream once with benchmark-side spans
/// and once more on a host built with an `ObsHub`; (b) the replay ledger.
/// Each stream gets 30% of `--seconds`; the ledger's length is fixed by its
/// repetition count.
pub fn traced(workload: WorkloadId, args: &Args) -> RunResult {
    let canary_before = canary();
    let epoch = Instant::now();
    let share = args.seconds * 0.3;

    let mut ready = setup(workload, args.seed, args.smoke, None, epoch);
    let warmup = std::mem::take(&mut ready.warmup);
    let (phase, plan) = measure(ready, share, STRETCHES, None, epoch, |_| ());
    // Before any reference or replay allocates: the platform's own peak.
    let peak_rss_mb = peak_rss_mb();
    let mut verdict = check(&plan.kinds, warmup.iter().chain(&phase.records));

    let hub = ObsHub::new();
    let mut ready = setup(workload, args.seed, args.smoke, Some(hub.clone()), epoch);
    let observed_warmup = std::mem::take(&mut ready.warmup);
    let (observed, _) = measure(ready, share, STRETCHES, Some(hub.clone()), epoch, |_| ());
    let observed_verdict = check(&plan.kinds, observed_warmup.iter().chain(&observed.records));
    verdict.attempted += observed_verdict.attempted;
    verdict.failed += observed_verdict.failed;
    verdict.mismatches += observed_verdict.mismatches;
    // The ledger replays kind 0: the only kind, or the mix's most frequent.
    let (Some(reference), 0) = (verdict.references.get(&0), verdict.failed) else {
        return gate_failed(workload, &verdict);
    };
    let raw = Raw::of(&phase);
    let hub_spans = hub.recorder().len() as u64 + hub.recorder().dropped();
    let observed_jobs = (observed_warmup.len() + observed.records.len()) as f64;

    let mut next_id = 0u64;
    let mut spans: Vec<Span> = Vec::new();
    let mut self_us = Vec::new();
    for (trace, record) in phase.records.iter().enumerate() {
        let job = job_spans(record, trace as u64, &mut next_id);
        self_us.push(self_time_ns(&job, job[0].id) as f64 / 1e3);
        spans.extend(job);
    }

    let reps = if args.smoke { 2 } else { LEDGER_REPS };
    let ledger = ledger::run(&plan.kinds[0], *reference, reps, epoch, &mut next_id);
    let job_spans = spans.len();
    spans.extend(ledger.spans);

    let records = &phase.records;
    let p50 = |f: fn(&JobRecord) -> u64, scale: f64| {
        percentile(&records.iter().map(|r| f(r) as f64 / scale).collect::<Vec<_>>(), 50.0)
    };
    let decks = phase.windows.len() as f64;
    let workers = (plan.workers * plan.nodes.max(1)) as f64;
    let busy_s: f64 = records.iter().map(|r| r.execute_ns as f64 / 1e9).sum();
    let rate = |p: &Phase| p.records.len() as f64 / p.wall_s;
    let mismatches = verdict.mismatches + ledger.mismatches;

    let mut m = MetricSet::default();
    m.set("job_failure_ratio", verdict.failed as f64 / verdict.attempted as f64);
    m.set("result_mismatches", mismatches as f64);
    for (name, value) in raw.named() {
        m.set(name, value);
    }
    m.set("peak_rss_mb", peak_rss_mb);
    for (name, value) in &ledger.values {
        m.set(name, *value);
    }
    m.set("service.submit_us", p50(|r| r.admitted_ns - r.submit_ns, 1e3));
    m.set("service.queue_wait_ms_p50", p50(|r| r.queue_wait_ns, 1e6));
    m.set("service.resolve_us_p50", p50(|r| r.resolve_ns, 1e3));
    m.set("service.execute_ms_p50", p50(|r| r.execute_ns, 1e6));
    m.set("service.job_self_us_p50", percentile(&self_us, 50.0));
    m.set("service.worker_busy_ratio", busy_s / (workers * phase.wall_s));
    m.set("service.latency_p99_ms", percentile(&latencies(records), 99.0));
    let lookups = (phase.cache.hits + phase.cache.misses).max(1) as f64;
    m.set("service.cache.hit_ratio", phase.cache.hits as f64 / lookups);
    // Per deck, so the figure does not grow with how many decks a run fits.
    let on_cluster = plan.nodes > 0;
    let per_deck = |count: u64, wanted: bool| if wanted { count as f64 / decks } else { 0.0 };
    m.set("service.cache.compiles", per_deck(phase.cache.compiles, !on_cluster));
    m.set("service.cache.evictions", per_deck(phase.cache.evictions, !on_cluster));
    m.set("service.cluster.compiles", per_deck(phase.cache.compiles, on_cluster));
    m.set("service.cluster.fetches", per_deck(phase.cache.fetches, on_cluster));
    m.set("service.cluster.control_frames", per_deck(phase.comm.control_sent, on_cluster));
    m.set("service.cluster.bytes", per_deck(phase.comm.bytes_sent, on_cluster));
    m.set("obs.trace_overhead_pct", (rate(&phase) / rate(&observed) - 1.0) * 100.0);
    m.set("obs.spans_per_job", hub_spans as f64 / observed_jobs);
    m.set("obs.spans_dropped", hub.recorder().dropped() as f64);
    m.set("obs.snapshot_violations", observed.violations.len() as f64);
    let canary_after = canary();
    m.set("bench.canary_drift_pct", (canary_after / canary_before - 1.0) * 100.0);
    let metrics = m.per_layer();

    let path = args.out_dir.join(format!("{}.trace.jsonl", workload.name()));
    let written = std::fs::create_dir_all(&args.out_dir).and_then(|()| {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for span in &spans {
            writeln!(file, "{}", span.to_json())?;
        }
        file.flush()
    });
    if let Err(error) = written {
        eprintln!("could not write {}: {error}", path.display());
    }

    print_table(&format!("{} seed {} (traced)", workload.name(), args.seed), &metrics);
    println!(
        "# {} job spans + {} ledger spans -> {}; hub recorded {} spans over {} jobs",
        job_spans,
        spans.len() - job_spans,
        path.display(),
        hub_spans,
        observed_jobs,
    );
    for violation in &observed.violations {
        println!("# snapshot violation: {violation}");
    }
    RunResult {
        correct: mismatches == 0 && observed.violations.is_empty(),
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::CacheCounts;

    fn record(kind: usize, wall_ms: u64) -> JobRecord {
        JobRecord {
            kind,
            submit_ns: 0,
            admitted_ns: 0,
            done_ns: wall_ms * 1_000_000,
            queue_wait_ns: 0,
            resolve_ns: 0,
            execute_ns: wall_ms * 1_000_000,
            checksum: 0.0,
            failed: false,
        }
    }

    /// A phase of one-job decks, `stretches[i]` listing `(kind, wall ms)` of
    /// the jobs of stretch `i`.
    fn phase(stretches: &[&[(usize, u64)]]) -> Phase {
        let mut phase = Phase {
            records: Vec::new(),
            windows: Vec::new(),
            cuts: Vec::new(),
            wall_s: 0.0,
            cache: CacheCounts::default(),
            comm: Default::default(),
            violations: Vec::new(),
        };
        for jobs in stretches {
            for (kind, wall_ms) in *jobs {
                phase.records.push(record(*kind, *wall_ms));
                let wall_s = *wall_ms as f64 / 1e3;
                phase.windows.push(Window { jobs: 1, updates: 100, wall_s });
                phase.wall_s += wall_s;
            }
            phase.cuts.push((phase.records.len(), phase.windows.len()));
        }
        phase
    }

    #[test]
    fn best_stretch_counts_every_job_of_the_stretch() {
        // The fastest single deck (500 ms) sits beside a slow one, so its
        // stretch is not the best.
        let phase = phase(&[
            &[(0, 1000), (0, 1000)],
            &[(0, 500), (0, 3500)],
            &[(0, 800), (0, 800)],
            &[(0, 2000)],
        ]);
        assert_eq!(phase.stretches().count(), 4);
        assert_eq!(best_stretch_rate(&phase, |w| w.jobs as f64), 2.0 / 1.6);
        assert_eq!(best_stretch_rate(&phase, |w| w.updates as f64), 200.0 / 1.6);
    }

    #[test]
    fn overhead_is_per_stretch_over_hand_written_kinds_only() {
        let plan = Plan::build(WorkloadId::ServiceSmallMix, 1, true);
        // Kind 0 (jacobi64) has a hand-written code; kind 1 (smooth64) has
        // none, so its slow jobs stay out of the ratio.  The box runs both
        // codes at half speed during the second stretch and the pauses around
        // it: the ratio does not move.
        let pause = |ms: f64| Bases::from([(0, vec![ms / 1e3; 3])]);
        let pauses = [pause(1.0), pause(1.0), pause(2.0), pause(2.0), pause(1.0)];
        let jobs = phase(&[
            &[(0, 4), (0, 4), (1, 400)],
            &[(0, 6), (0, 6), (0, 90)],
            &[(0, 8), (1, 800)],
            &[(0, 7), (0, 5), (0, 6)],
        ]);
        // Per stretch: 4 / 1, 6 / median(1, 1, 1, 2, 2, 2), 8 / 2, 6 / 1.5.
        let (ratio, line) = platform_overhead(&jobs, &plan, &pauses).expect("kind 0 ran");
        assert!((ratio - 4.0).abs() < 1e-12, "{ratio}");
        assert_eq!(line, " jacobi64 1.0000 ms");
        let none = phase(&[&[(1, 400)], &[(1, 400)]]);
        assert!(platform_overhead(&none, &plan, &pauses).is_none());
        assert!(platform_overhead(&jobs, &plan, &[]).is_none());
    }
}
