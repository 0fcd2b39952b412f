//! The closed-loop client: one generator thread keeps a fixed number of jobs
//! in flight, waits on the oldest `JobHandle`, and records what it saw.
//!
//! Run length is decided at deck boundaries only, so a run never measures a
//! partial deck (for a cluster: a partial epoch).

use crate::reference::{agrees, run_once};
use crate::stats::Span;
use crate::workloads::{Kind, Plan};
use aohpc_runtime::CommStats;
use aohpc_service::{
    ClusterService, ClusterSessionId, JobHandle, KernelService, ObsHub, PlanCacheStats,
    ServiceConfig, SessionId, SessionSpec,
};
use std::collections::{BTreeMap, VecDeque};
use std::ops::{Add, Sub};
use std::sync::Arc;
use std::time::Instant;

/// The plan-cache counters the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounts {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to fetch or compile.
    pub misses: u64,
    /// Plans compiled.
    pub compiles: u64,
    /// Plans fetched from another node.
    pub fetches: u64,
    /// Plans evicted.
    pub evictions: u64,
}

impl From<PlanCacheStats> for CacheCounts {
    fn from(s: PlanCacheStats) -> Self {
        CacheCounts {
            hits: s.hits,
            misses: s.misses,
            compiles: s.compiles,
            fetches: s.fetches,
            evictions: s.evictions,
        }
    }
}

impl Add for CacheCounts {
    type Output = CacheCounts;
    fn add(self, o: CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            compiles: self.compiles + o.compiles,
            fetches: self.fetches + o.fetches,
            evictions: self.evictions + o.evictions,
        }
    }
}

impl Sub for CacheCounts {
    type Output = CacheCounts;
    fn sub(self, o: CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits - o.hits,
            misses: self.misses - o.misses,
            compiles: self.compiles - o.compiles,
            fetches: self.fetches - o.fetches,
            evictions: self.evictions - o.evictions,
        }
    }
}

/// The service (or cluster) a workload runs on, with its sessions open.
#[allow(clippy::large_enum_variant)] // one Host per run: boxing buys nothing
pub enum Host {
    /// One `KernelService`.
    Single(KernelService, Vec<SessionId>),
    /// A `ClusterService`, one session per node.
    Cluster(ClusterService, Vec<ClusterSessionId>),
}

impl Host {
    /// Start the host `plan` asks for: default `ServiceConfig` apart from the
    /// worker count, and report retention off — the benchmark is a
    /// handle-only client, and retained reports would tie peak memory to how
    /// many jobs a run completes.
    pub fn start(plan: &Plan, hub: Option<Arc<ObsHub>>) -> Host {
        let config =
            ServiceConfig::default().with_workers(plan.workers).with_report_retention(false);
        if plan.nodes == 0 {
            let service = match hub {
                Some(hub) => KernelService::with_observer(config, hub),
                None => KernelService::new(config),
            };
            let sessions = (0..plan.sessions)
                .map(|t| service.open_session(SessionSpec::tenant(format!("tenant-{t}"))))
                .collect();
            Host::Single(service, sessions)
        } else {
            let cluster = match hub {
                Some(hub) => ClusterService::with_observer(plan.nodes, config, hub),
                None => ClusterService::new(plan.nodes, config),
            };
            let sessions = (0..plan.nodes)
                .map(|n| cluster.open_session_on(n, SessionSpec::tenant(format!("tenant-{n}"))))
                .collect();
            Host::Cluster(cluster, sessions)
        }
    }

    /// Submit the `ordinal`-th job of the stream; jobs rotate over sessions
    /// (and so, on a cluster, over nodes).
    fn submit(&self, ordinal: usize, kind: &Kind) -> Option<JobHandle> {
        match self {
            Host::Single(service, sessions) => {
                service.submit(sessions[ordinal % sessions.len()], kind.spec.clone()).ok()
            }
            Host::Cluster(cluster, sessions) => {
                cluster.submit(sessions[ordinal % sessions.len()], kind.spec.clone()).ok()
            }
        }
    }

    /// Plan-cache counters, summed over nodes for a cluster.
    pub fn cache_stats(&self) -> CacheCounts {
        match self {
            Host::Single(service, _) => service.cache_stats().into(),
            Host::Cluster(cluster, _) => cluster.cache_stats().total.into(),
        }
    }

    /// Fabric counters summed over nodes; `None` off a cluster.
    pub fn comm_stats(&self) -> Option<CommStats> {
        match self {
            Host::Single(..) => None,
            Host::Cluster(cluster, _) => Some(cluster.comm_stats().total),
        }
    }

    /// Violations `ObsSnapshot::validate` reports; `None` without a hub.
    pub fn snapshot_violations(&self) -> Option<Vec<String>> {
        let snapshot = match self {
            Host::Single(service, _) => service.obs_snapshot(),
            Host::Cluster(cluster, _) => cluster.obs_snapshot(),
        };
        snapshot.map(|s| s.validate())
    }

    /// Stop the workers and join them.
    pub fn shutdown(self) {
        match self {
            Host::Single(service, _) => service.shutdown(),
            Host::Cluster(cluster, _) => cluster.shutdown(),
        }
    }
}

/// What the client saw of one job.  Times are nanoseconds since the run's
/// epoch.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Index into `Plan::kinds`.
    pub kind: usize,
    /// Just before `submit` was called.
    pub submit_ns: u64,
    /// When `submit` returned the handle.
    pub admitted_ns: u64,
    /// When `JobHandle::wait` returned.
    pub done_ns: u64,
    /// `JobReport::queue_wait`.
    pub queue_wait_ns: u64,
    /// `JobReport::resolve_time`.
    pub resolve_ns: u64,
    /// `JobReport::execute_time`.
    pub execute_ns: u64,
    /// `JobReport::checksum`.
    pub checksum: f64,
    /// Refused at submit, resolved without a report, or reported an error.
    pub failed: bool,
}

impl JobRecord {
    /// Submit → report, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.submit_ns) as f64 / 1e6
    }
}

/// Run jobs of `plan`'s stream through `host`, closed loop, for as long as
/// `more(jobs submitted so far)` asks for another one; returns once every
/// submitted job has reported.  `ordinal` numbers jobs across calls so
/// session rotation continues.
pub fn run_jobs(
    host: &Host,
    plan: &mut Plan,
    epoch: Instant,
    mut more: impl FnMut(usize) -> bool,
    ordinal: &mut usize,
) -> Vec<JobRecord> {
    let now = || epoch.elapsed().as_nanos() as u64;
    let mut records = Vec::new();
    let mut in_flight: VecDeque<(JobRecord, Option<JobHandle>)> = VecDeque::new();
    let mut submitted = 0;
    let mut open = true;
    loop {
        open = open && more(submitted);
        if !open && in_flight.is_empty() {
            break;
        }
        if open && in_flight.len() < plan.outstanding {
            let kind = plan.next_job();
            let submit_ns = now();
            let handle = host.submit(*ordinal, &plan.kinds[kind]);
            let record = JobRecord {
                kind,
                submit_ns,
                admitted_ns: now(),
                done_ns: 0,
                queue_wait_ns: 0,
                resolve_ns: 0,
                execute_ns: 0,
                checksum: f64::NAN,
                failed: handle.is_none(),
            };
            in_flight.push_back((record, handle));
            submitted += 1;
            *ordinal += 1;
            continue;
        }
        let (mut record, handle) = in_flight.pop_front().expect("something is in flight");
        match handle.map(|h| h.wait()) {
            Some(Ok(report)) => {
                record.queue_wait_ns = report.queue_wait.as_nanos() as u64;
                record.resolve_ns = report.resolve_time.as_nanos() as u64;
                record.execute_ns = report.execute_time.as_nanos() as u64;
                record.checksum = report.checksum;
                record.failed = report.error.is_some();
            }
            _ => record.failed = true,
        }
        record.done_ns = now();
        records.push(record);
    }
    records
}

/// A workload set up and warm: the timed part of `setup_s`.
pub struct Ready {
    /// The instantiated workload, its stream positioned after the warm-up.
    pub plan: Plan,
    /// The running host.
    pub host: Host,
    /// Records of the warm-up jobs (checked like any other).
    pub warmup: Vec<JobRecord>,
    /// Next job ordinal.
    pub ordinal: usize,
    /// Input generation + host start + cold compile + warm-up jobs, seconds.
    pub setup_s: f64,
}

/// Generate inputs from `seed`, start the host, run the warm-up jobs.
pub fn setup(
    workload: crate::workloads::WorkloadId,
    seed: u64,
    smoke: bool,
    hub: Option<Arc<ObsHub>>,
    epoch: Instant,
) -> Ready {
    let start = Instant::now();
    let mut plan = Plan::build(workload, seed, smoke);
    let host = Host::start(&plan, hub);
    let mut ordinal = 0;
    let jobs = plan.warmup_jobs;
    let warmup = run_jobs(&host, &mut plan, epoch, |n| n < jobs, &mut ordinal);
    Ready { plan, host, warmup, ordinal, setup_s: start.elapsed().as_secs_f64() }
}

/// One deck's worth of measured work.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Jobs completed.
    pub jobs: usize,
    /// Cell or particle updates those jobs performed.
    pub updates: u64,
    /// Wall time from the previous deck's last report to this deck's last
    /// report — for a cluster, from before `ClusterService::new` to after
    /// `shutdown`.
    pub wall_s: f64,
}

/// The measured phase of one run.
pub struct Phase {
    /// Every job, in completion order.
    pub records: Vec<JobRecord>,
    /// One entry per deck.
    pub windows: Vec<Window>,
    /// One entry per stretch: how many of `records` and of `windows` had been
    /// collected when it ended.
    pub cuts: Vec<(usize, usize)>,
    /// Wall time of the stretches together (the pauses between them excluded).
    pub wall_s: f64,
    /// Plan-cache counters accumulated over the phase.
    pub cache: CacheCounts,
    /// Fabric counters accumulated over the phase (cluster only).
    pub comm: CommStats,
    /// `ObsSnapshot::validate` violations seen (hub runs only).
    pub violations: Vec<String>,
}

impl Phase {
    /// The jobs and the decks of every stretch, in order.
    pub fn stretches(&self) -> impl Iterator<Item = (&[JobRecord], &[Window])> {
        let starts = std::iter::once(&(0, 0)).chain(&self.cuts);
        starts
            .zip(&self.cuts)
            .map(|(from, to)| (&self.records[from.0..to.0], &self.windows[from.1..to.1]))
    }
}

/// Measure whole decks for `seconds`, in `stretches` stretches of equal
/// length; `pause` is called with the pipeline drained before every stretch
/// and after the last (the hand-written codes are timed there, so that each
/// stretch has timings of them from both of its ends).  A plain service is the
/// warm `ready.host`, kept running throughout and shut down at the end; a
/// cluster is started fresh for every deck (one epoch) and shut down after it,
/// both inside the deck's wall time.
pub fn measure(
    ready: Ready,
    seconds: f64,
    stretches: usize,
    hub: Option<Arc<ObsHub>>,
    epoch: Instant,
    mut pause: impl FnMut(&Plan),
) -> (Phase, Plan) {
    let Ready { mut plan, host, mut ordinal, .. } = ready;
    let deck = plan.deck_len;
    let budget_s = seconds / stretches as f64;
    let mut phase = Phase {
        records: Vec::new(),
        windows: Vec::new(),
        cuts: Vec::new(),
        wall_s: 0.0,
        cache: CacheCounts::default(),
        comm: CommStats::default(),
        violations: Vec::new(),
    };
    let updates = |plan: &Plan, records: &[JobRecord]| -> u64 {
        records.iter().map(|r| plan.kinds[r.kind].updates).sum()
    };
    // A cluster workload's warm host only served the warm-up.
    let host = if plan.nodes == 0 {
        Some(host)
    } else {
        host.shutdown();
        None
    };
    let before = host.as_ref().map(Host::cache_stats);
    for _ in 0..stretches {
        pause(&plan);
        let start = Instant::now();
        if let Some(host) = &host {
            // One continuous stream: the pipeline never drains between decks.
            // Decks are cut afterwards, at every `deck`-th report.
            let mut cut_ns = epoch.elapsed().as_nanos() as u64;
            let more =
                |n: usize| !n.is_multiple_of(deck) || start.elapsed().as_secs_f64() < budget_s;
            let records = run_jobs(host, &mut plan, epoch, more, &mut ordinal);
            for chunk in records.chunks(deck) {
                let end_ns = chunk.last().expect("chunks are non-empty").done_ns;
                phase.windows.push(Window {
                    jobs: chunk.len(),
                    updates: updates(&plan, chunk),
                    wall_s: (end_ns - cut_ns) as f64 / 1e9,
                });
                cut_ns = end_ns;
            }
            phase.records.extend(records);
        } else {
            while start.elapsed().as_secs_f64() < budget_s {
                let deck_start = Instant::now();
                let host = Host::start(&plan, hub.clone());
                let records = run_jobs(&host, &mut plan, epoch, |n| n < deck, &mut ordinal);
                phase.cache = phase.cache + host.cache_stats();
                phase.comm = phase.comm + host.comm_stats().unwrap_or_default();
                phase.violations.extend(host.snapshot_violations().unwrap_or_default());
                host.shutdown();
                phase.windows.push(Window {
                    jobs: records.len(),
                    updates: updates(&plan, &records),
                    wall_s: deck_start.elapsed().as_secs_f64(),
                });
                phase.records.extend(records);
            }
        }
        phase.wall_s += start.elapsed().as_secs_f64();
        phase.cuts.push((phase.records.len(), phase.windows.len()));
    }
    pause(&plan);
    if let (Some(host), Some(before)) = (host, before) {
        phase.cache = host.cache_stats() - before;
        phase.violations = host.snapshot_violations().unwrap_or_default();
        host.shutdown();
    }
    (phase, plan)
}

/// The outcome of checking every record against its kind's reference.
pub struct Verdict {
    /// Jobs submitted.
    pub attempted: u64,
    /// Jobs refused, errored, cancelled or panicked.
    pub failed: u64,
    /// Completed jobs whose checksum is not within 1e-9 relative of the
    /// reference, or differs in any bit from another run of the same kind.
    pub mismatches: u64,
    /// The reference checksum of every kind that completed a job.
    pub references: BTreeMap<usize, f64>,
}

/// Check `records` (warm-up and measured alike): each completed job against
/// the independent reference of its kind, and all jobs of one single-rank
/// kind against each other bit for bit.
pub fn check<'a>(kinds: &[Kind], records: impl Iterator<Item = &'a JobRecord>) -> Verdict {
    let mut references = BTreeMap::new();
    let mut first_bits: BTreeMap<usize, u64> = BTreeMap::new();
    let (mut attempted, mut failed, mut mismatches) = (0, 0, 0);
    for record in records {
        attempted += 1;
        if record.failed {
            failed += 1;
            continue;
        }
        let want = *references.entry(record.kind).or_insert_with(|| run_once(&kinds[record.kind]));
        // Ranks deposit into the field sink in arrival order, so a multi-rank
        // job's checksum is folded in an order that varies from run to run:
        // only single-rank topologies repeat bit for bit.
        let repeats_exactly = kinds[record.kind].spec.topology.ranks() == 1;
        let bits = *first_bits.entry(record.kind).or_insert(record.checksum.to_bits());
        if !agrees(record.checksum, want) || (repeats_exactly && bits != record.checksum.to_bits())
        {
            mismatches += 1;
        }
    }
    Verdict { attempted, failed, mismatches, references }
}

/// The spans of one job: a `job` root (submit → report) whose children are
/// the three phase durations the `JobReport` carries, laid end to end from
/// admission.  Whatever the children do not cover — the submit call, the
/// wake-up and hand-back of the report — is the root's self time.
pub fn job_spans(record: &JobRecord, trace: u64, next_id: &mut u64) -> Vec<Span> {
    let mut id = || {
        *next_id += 1;
        *next_id
    };
    let root = id();
    let mut spans = vec![Span {
        id: root,
        parent: 0,
        trace,
        name: "job",
        start_ns: record.submit_ns,
        end_ns: record.done_ns,
    }];
    let mut cursor = record.admitted_ns;
    for (name, len) in [
        ("service.queue_wait", record.queue_wait_ns),
        ("service.resolve", record.resolve_ns),
        ("service.execute", record.execute_ns),
    ] {
        spans.push(Span {
            id: id(),
            parent: root,
            trace,
            name,
            start_ns: cursor,
            end_ns: cursor + len,
        });
        cursor += len;
    }
    spans
}
