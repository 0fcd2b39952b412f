//! Cross-job batch fusion: one tape sweep updates several queued jobs.
//!
//! When [`ServiceConfig::batch_fusion`](crate::ServiceConfig::batch_fusion)
//! is ≥ 2, an idle worker that dequeues a job peeks at the rest of the queue
//! and drains every immediately-available job that is
//! [`fusion_compatible`] with it (same region, blocking, step count,
//! optimization level, schedule policy, weave mode and serial topology — the
//! *programs* may differ).  The batch then runs as **one interleaved pass**:
//!
//! * each member keeps its own environment, task context, woven program,
//!   progress counters, plan-cache ledger, trace root and field sink — every
//!   per-job observable (checksum, [`RunSummary`](aohpc_runtime::RunSummary)
//!   modulo wall time, dispatch counts, session metering, completion-stream
//!   order) is **bit-identical** to running the job alone;
//! * the per-block inner loops are replaced by a single
//!   [`FusedKernel`] sweep over a member-major cell buffer: one prelude, one
//!   interior walk, `width ×` the arithmetic.  Blocks the fuser rejects fall
//!   back, block by block, to their own solo `execute_block` inside the same
//!   interleaved pass.
//!
//! The parity argument, piece by piece: fused-eligible jobs are serial, so
//! their weaves carry no MPI/OpenMP aspects and nothing advises the
//! `Main` / `Initialize` / `Processing` / `Finalize` join points — the
//! driver here re-dispatches them as markers through each member's own woven
//! program, keeping `RunSummary::dispatches` exact.  The per-step and
//! per-block join points go through each member's own [`TaskCtx`] (the
//! `begin_kernel_step` / `finish_kernel_step` split exists for exactly this
//! driver), and [`FusedKernel::execute_block`] is bit-identical, member by
//! member, to the solo kernels by construction.
//!
//! The one intentional divergence: a panic anywhere in the fused pass fails
//! *every* member of the batch (solo execution isolates it).  Compiled
//! stencil jobs only panic on service bugs, and the error reports name the
//! shared pass, so the trade was taken for simplicity.

use crate::cache::PlanOrigin;
use crate::job::{FusionProvenance, JobCell, JobId, JobSpec};
use crate::service::{
    resolve_primary, run_claimed, settle_finished, weave_for, FinishedJob, Inner, Queued,
};
use aohpc_aop::{attr, names, JoinPointKind, WovenProgram, FINALIZE, INITIALIZE, MAIN, PROCESSING};
use aohpc_dsl::{DslSystem, SGridSystem};
use aohpc_env::{Env, EnvStats, Extent};
use aohpc_kernel::{
    default_initial_value, fill_halo_ring, new_stencil_field_sink, CompiledKernel, ExecScratch,
    ExecStats, FusedKernel, HeteroDispatcher, OptLevel, PlanSource, SpecializationId,
    StencilFieldSink, StencilProgram,
};
use aohpc_obs::push_context;
use aohpc_runtime::annotation::MAX_RETRIES_PER_STEP;
use aohpc_runtime::{
    CostModel, PoolStats, RankReport, RankShared, RunReport, RunSummary, TaskCtx, WeaveMode,
};
use aohpc_workloads::checksum;
use std::cell::Cell as MetaCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether two queued specs may share one fused pass.
///
/// Everything that shapes the *sweep structure* must agree — region,
/// blocking, step count, optimization level, schedule policy, weave mode —
/// and the topology must be serial (rank/thread parallel jobs weave the MPI
/// / OpenMP aspects, whose driver-level advice the marker re-dispatch in
/// this module does not replicate).  The stencil programs and their
/// parameters may differ: the fuser concatenates their tapes.
pub(crate) fn fusion_compatible(a: &JobSpec, b: &JobSpec) -> bool {
    a.program.as_stencil().is_some()
        && b.program.as_stencil().is_some()
        && a.region == b.region
        && a.block == b.block
        && a.steps == b.steps
        && a.opt_level == b.opt_level
        && a.policy == b.policy
        && a.weave_mode == b.weave_mode
        && a.topology == b.topology
        && a.topology.ranks() == 1
        && a.topology.threads_per_rank() == 1
}

/// Run a drained batch of compatible jobs as one fused pass.
///
/// Members whose cells were cancelled before the worker claimed them drop
/// out; a single survivor takes the ordinary solo path.
pub(crate) fn run_batch(inner: &Inner, batch: Vec<Queued>) {
    let mut claimed: Vec<Queued> = batch.into_iter().filter(|q| q.cell.begin_running()).collect();
    if claimed.is_empty() {
        return;
    }
    if claimed.len() == 1 {
        let Queued { cell, spec, admitted_at } = claimed.pop().expect("one survivor");
        run_claimed(inner, cell, spec, admitted_at);
        return;
    }
    run_fused(inner, claimed);
}

/// Per-member bookkeeping that must survive a panic in the fused pass (the
/// solo path uses the same `Cell` escape hatch; see `run_claimed`).
struct MemberMeta {
    cache_hit: MetaCell<Option<bool>>,
    resolve_time: MetaCell<Duration>,
    spec_tier: MetaCell<SpecializationId>,
}

/// What one member's run resolves to: checksum, simulated seconds, summary,
/// error.
type MemberResult = (f64, f64, RunSummary, Option<String>);

fn run_fused(inner: &Inner, claimed: Vec<Queued>) {
    let width = claimed.len();

    // Per-member admission bookkeeping: queue-wait histograms and the obs
    // trace roots, exactly as the solo path records them per job.
    let mut cells: Vec<Arc<JobCell>> = Vec::with_capacity(width);
    let mut specs: Vec<JobSpec> = Vec::with_capacity(width);
    let mut queue_waits: Vec<Duration> = Vec::with_capacity(width);
    let mut obs_roots = Vec::with_capacity(width);
    let mut trace_ctxs: Vec<Option<(u64, u64)>> = Vec::with_capacity(width);
    for q in claimed {
        let queue_wait = inner.clock.now().saturating_sub(q.admitted_at);
        inner.queue_wait.record(queue_wait.as_nanos() as u64);
        let obs_job = inner.obs.as_ref().map(|hub| {
            hub.metrics().queue_wait_ns.record(queue_wait.as_nanos() as u64);
            let trace = hub.recorder().next_trace_id();
            (trace, hub.recorder().start("Service::job", trace, 0))
        });
        trace_ctxs.push(obs_job.as_ref().map(|(trace, open)| (*trace, open.span)));
        obs_roots.push(obs_job.map(|(_, open)| open));
        queue_waits.push(queue_wait);
        cells.push(q.cell);
        specs.push(q.spec);
    }

    let metas: Vec<MemberMeta> = (0..width)
        .map(|_| MemberMeta {
            cache_hit: MetaCell::new(None),
            resolve_time: MetaCell::new(Duration::ZERO),
            spec_tier: MetaCell::new(SpecializationId::Generic),
        })
        .collect();

    let execute_start = inner.clock.now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        execute_fused(inner, &specs, &cells, &trace_ctxs, &metas)
    }));
    let execute_time = inner.clock.now().saturating_sub(execute_start);

    let results: Vec<MemberResult> = match outcome {
        Ok(per_member) => per_member,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string());
            specs
                .iter()
                .map(|spec| {
                    let summary = RunReport::empty(spec.topology.clone()).summary();
                    (f64::NAN, 0.0, summary, Some(format!("fused batch failed: {msg}")))
                })
                .collect()
        }
    };

    // Settle in admission order so each session's completion stream sees its
    // jobs in submission order, exactly as a solo worker delivers them.
    for (m, ((cell, spec), (cks, sim, summary, error))) in
        cells.into_iter().zip(specs).zip(results).enumerate()
    {
        settle_finished(
            inner,
            FinishedJob {
                cell,
                fingerprint: spec.program.fingerprint(),
                program: spec.program.name().to_string(),
                cache_hit: metas[m].cache_hit.get(),
                checksum: cks,
                simulated_seconds: sim,
                summary,
                error,
                trace_ctx: trace_ctxs[m],
                obs_root: obs_roots[m].take(),
                queue_wait: queue_waits[m],
                resolve_time: metas[m].resolve_time.get(),
                execute_time,
                specialization: metas[m].spec_tier.get(),
                fusion: Some(FusionProvenance { width, member: m }),
            },
        );
    }
}

/// Pre-warm every member's primary plan (attributing each hit/miss to its
/// job), then run the interleaved pass inside the nested per-member
/// `Service::execute_spec` spans.
fn execute_fused(
    inner: &Inner,
    specs: &[JobSpec],
    cells: &[Arc<JobCell>],
    trace_ctxs: &[Option<(u64, u64)>],
    metas: &[MemberMeta],
) -> Vec<MemberResult> {
    for (m, spec) in specs.iter().enumerate() {
        let pin_plans = inner
            .sessions
            .lock()
            .get(&cells[m].session)
            .map(|ctx| ctx.pins_plans())
            .unwrap_or(false);
        let _scope = trace_ctxs[m].map(|(trace, span)| push_context(trace, span));
        let primary = Extent::new2d(spec.block.min(spec.region.nx), spec.block.min(spec.region.ny));
        let resolve_start = inner.clock.now();
        let (artifact, origin) = resolve_primary(inner, spec, primary, pin_plans, trace_ctxs[m]);
        metas[m].cache_hit.set(Some(origin == PlanOrigin::Hit));
        if let Some(kernel) = artifact.as_stencil() {
            metas[m].spec_tier.set(kernel.specialization());
        }
        metas[m].resolve_time.set(inner.clock.now().saturating_sub(resolve_start));
    }

    let spans: Vec<(u64, u64, u8, JobId)> = specs
        .iter()
        .enumerate()
        .filter_map(|(m, spec)| {
            trace_ctxs[m]
                .map(|(trace, parent)| (trace, parent, spec.program.family().tag(), cells[m].job))
        })
        .collect();
    let mut result: Option<Vec<MemberResult>> = None;
    {
        let mut body = || {
            result = Some(drive_members(inner, specs, cells, trace_ctxs));
        };
        dispatch_execute_spans(inner, &spans, 0, &mut body);
    }
    result.expect("fused execute body runs exactly once")
}

/// Recursively nest every traced member's `Service::execute_spec` dispatch
/// around the fused body, so each per-job trace keeps its execute span.
fn dispatch_execute_spans(
    inner: &Inner,
    spans: &[(u64, u64, u8, JobId)],
    idx: usize,
    body: &mut dyn FnMut(),
) {
    if idx == spans.len() {
        body();
        return;
    }
    let (trace, parent, family, job) = spans[idx];
    let attrs = [
        (attr::TRACE, trace as i64),
        (attr::PARENT, parent as i64),
        (attr::FAMILY, i64::from(family)),
        (attr::JOB, job as i64),
    ];
    let mut payload = ();
    inner.service_woven.dispatch_with(
        names::SERVICE_EXECUTE,
        JoinPointKind::Execution,
        &attrs,
        &mut payload,
        &mut |_| dispatch_execute_spans(inner, spans, idx + 1, body),
    );
}

/// One member's live execution state inside the fused pass.
struct Member {
    program: StencilProgram,
    params: Vec<f64>,
    dispatcher: HeteroDispatcher,
    ctx: TaskCtx<f64>,
    master_ctx: TaskCtx<f64>,
    woven: WovenProgram,
    use_weaver: bool,
    sink: StencilFieldSink,
    compiled: HashMap<(usize, usize), Arc<CompiledKernel>>,
    trace_ctx: Option<(u64, u64)>,
    env_stats: EnvStats,
    pool_stats: PoolStats,
    start: Instant,
}

impl Member {
    /// The member's compiled plan for a block shape, memoized per shape and
    /// resolved through the shared cache — the same once-per-(member, shape)
    /// ledger `IrStencilApp::compiled_for` charges in solo runs.  The
    /// member's trace context scopes the lookup so a cluster fetch fired
    /// from inside the cache parents into the right job tree.
    fn compiled_for(
        &mut self,
        inner: &Inner,
        extent: Extent,
        level: OptLevel,
    ) -> Arc<CompiledKernel> {
        let key = (extent.nx, extent.ny);
        if let Some(k) = self.compiled.get(&key) {
            return Arc::clone(k);
        }
        let _scope = self.trace_ctx.map(|(trace, span)| push_context(trace, span));
        let plan = inner.cache.plan_for(&self.program, extent, level);
        self.compiled.insert(key, Arc::clone(&plan));
        plan
    }
}

/// Build every member's environment and contexts, run the interleaved
/// warm-up + step loop, and assemble per-member reports — the exact
/// observable sequence of `width` solo `runtime::execute` calls.
fn drive_members(
    inner: &Inner,
    specs: &[JobSpec],
    cells: &[Arc<JobCell>],
    trace_ctxs: &[Option<(u64, u64)>],
) -> Vec<MemberResult> {
    let width = specs.len();
    let spec0 = &specs[0];
    let topology = spec0.topology.clone();
    let loops = spec0.steps;
    let opt_level = spec0.opt_level;

    let mut members: Vec<Member> = Vec::with_capacity(width);
    let mut finishers = Vec::with_capacity(width);
    for (m, spec) in specs.iter().enumerate() {
        let program = spec.program.as_stencil().expect("fusion_compatible checked stencil").clone();
        let (woven, config, finisher) = weave_for(inner, spec, &cells[m], trace_ctxs[m]);
        let use_weaver = config.weave_mode == WeaveMode::Woven;
        let start = Instant::now();

        // MAIN marker: serial jobs weave no aspect that advises it, so only
        // the dispatch itself must happen (for the count) — rank 0's work
        // runs inline below, as the driver's un-advised body would.
        let main_attrs = [(attr::PARALLELISM, topology.ranks() as i64)];
        dispatch_marker(&woven, use_weaver, MAIN, &main_attrs);

        // Rank 0's environment replica and Z-order block assignment, exactly
        // as the driver builds them.
        let system = Arc::new(SGridSystem::with_block_size(spec.region, spec.block));
        let env: Env<f64> = (system.env_factory())();
        let parts = env.partition_by_morton(topology.ranks());
        for (r, ids) in parts.iter().enumerate() {
            let master = topology.rank_master_task(r);
            for &id in ids {
                env.block(id).meta.set_dm_tid(Some(master));
                env.block(id).meta.set_ch_tid(Some(master));
            }
        }
        let env = Arc::new(env);
        let env_stats = env.stats();
        let pool_stats = env.pool().stats();

        let shared = Arc::new(RankShared::new(topology.clone(), 0, None, config.dry_run));
        let master_slot = topology.slot(0, 0);
        let mut master_ctx = TaskCtx::new(
            master_slot,
            env.clone(),
            shared.clone(),
            woven.clone(),
            use_weaver,
            config.mmat,
        );

        // INITIALIZE: the same default initial condition `IrStencilApp`
        // installs, dispatched through the member's weave.
        let init_attrs = [(attr::TASK_ID, master_slot.task_id as i64), (attr::RANK, 0i64)];
        dispatch_body(&woven, use_weaver, INITIALIZE, &init_attrs, &mut || {
            master_ctx.initialize_owned(default_initial_value);
        });

        // PROCESSING marker: the interleaved loop below plays the thread-0
        // body; nothing advises this join point for serial jobs either.
        let proc_attrs =
            [(attr::RANK, 0i64), (attr::PARALLELISM, topology.threads_per_rank() as i64)];
        dispatch_marker(&woven, use_weaver, PROCESSING, &proc_attrs);

        // The processing task's own context — distinct from the master
        // context, exactly as in the driver: only this one enters the task
        // report, so the initialize/finalize reads stay out of the summary.
        let mut ctx = TaskCtx::new(
            master_slot,
            env.clone(),
            shared.clone(),
            woven.clone(),
            use_weaver,
            config.mmat,
        );
        if let Some(progress) = &config.progress {
            ctx.set_progress(progress.clone());
        }

        let dispatcher =
            HeteroDispatcher::try_new(spec.policy.clone()).expect("policy validated at submit");
        members.push(Member {
            program,
            params: spec.params.clone(),
            dispatcher,
            ctx,
            master_ctx,
            woven,
            use_weaver,
            sink: new_stencil_field_sink(),
            compiled: HashMap::new(),
            trace_ctx: trace_ctxs[m],
            env_stats,
            pool_stats,
            start,
        });
        finishers.push(finisher);
    }

    // The interleaved processing loop — `HpcApp::processing`'s default body,
    // phase by phase across all members.
    let mut scratch = inner.scratch.acquire();
    for member in members.iter_mut() {
        member.ctx.begin_warmup();
    }
    fused_step(inner, &mut members, opt_level, true, &mut scratch);
    for member in members.iter_mut() {
        member.ctx.end_warmup();
    }
    let mut consecutive_failures = 0u64;
    while members.iter().any(|m| (m.ctx.steps_done() as usize) < loops) {
        let all_ok = fused_step(inner, &mut members, opt_level, false, &mut scratch);
        if all_ok {
            consecutive_failures = 0;
        } else {
            consecutive_failures += 1;
            if consecutive_failures > MAX_RETRIES_PER_STEP {
                break;
            }
        }
    }
    inner.scratch.release(scratch);

    // Close every member's run: task report, FINALIZE, rank report, run
    // report — and from the report the job-facing (checksum, simulated
    // seconds, summary) triple.
    let mut results = Vec::with_capacity(width);
    for mut member in members.into_iter() {
        let task_report = member.ctx.into_report();

        let master_slot = topology.slot(0, 0);
        let init_attrs = [(attr::TASK_ID, master_slot.task_id as i64), (attr::RANK, 0i64)];
        let sink = member.sink.clone();
        let master_ctx = &mut member.master_ctx;
        dispatch_body(&member.woven, member.use_weaver, FINALIZE, &init_attrs, &mut || {
            master_ctx.deposit_owned(&sink, |v| *v);
        });

        let report = RunReport {
            topology: topology.clone(),
            tasks: vec![task_report],
            ranks: vec![RankReport { rank: 0, comm: Default::default() }],
            env_stats: member.env_stats,
            pool_stats: member.pool_stats,
            wall_time: member.start.elapsed(),
            dispatches: member.woven.stats().dispatches(),
            advised_dispatches: member.woven.stats().advised_dispatches(),
            runtime_events: Vec::new(),
        };
        let cks = checksum(member.sink.lock().iter().map(|(_, v)| *v));
        let sim = CostModel::default().makespan_seconds(&report);
        results.push((cks, sim, report.summary(), None));
    }
    for finisher in finishers.into_iter().flatten() {
        finisher.finish();
    }
    results
}

/// One interleaved kernel step across every member: markers, gathers, the
/// fused (or per-member fallback) sweeps, scatters, refreshes, accounting.
/// Returns whether every member's refresh succeeded.
fn fused_step(
    inner: &Inner,
    members: &mut [Member],
    opt_level: OptLevel,
    warmup: bool,
    scratch: &mut ExecScratch,
) -> bool {
    let width = members.len();
    for member in members.iter_mut() {
        member.ctx.begin_kernel_step(warmup);
    }

    // Per-member block lists and schedules.  Compatible members share the
    // region/blocking and the schedule policy, so with the deterministic
    // dispatcher the lists line up index by index; if they ever diverged the
    // uniformity check below would route that index to the solo fallback.
    let mut schedules = Vec::with_capacity(width);
    for member in members.iter_mut() {
        let blocks = member.ctx.get_blocks();
        schedules.push(member.dispatcher.assign(&blocks));
    }
    let blocks_per_member = schedules[0].len();

    let mut cells_buf: Vec<f64> = Vec::new();
    let mut out_buf: Vec<f64> = Vec::new();
    let mut stats = vec![ExecStats::default(); width];

    for i in 0..blocks_per_member {
        let uniform = schedules.iter().all(|s| s.get(i) == schedules[0].get(i));
        let mut compiled = Vec::with_capacity(width);
        for (m, member) in members.iter_mut().enumerate() {
            let (bid, _) = schedules[m][i];
            let ext = member.ctx.env().block(bid).meta.extent;
            compiled.push(member.compiled_for(inner, ext, opt_level));
        }
        let (bid, processor) = schedules[0][i];
        let ext = members[0].ctx.env().block(bid).meta.extent;
        let b = ext.nx * ext.ny;

        // 1. Gather, inside each member's `Kernel::execute_block` join point
        //    (one dispatch per member per block, matching solo counts).
        cells_buf.resize(width * b, 0.0);
        for (m, member) in members.iter_mut().enumerate() {
            let (bid_m, _) = schedules[m][i];
            let seg = &mut cells_buf[m * b..(m + 1) * b];
            member.ctx.run_block(bid_m as i64, b, |ctx| {
                ctx.get_block_dd(bid_m, seg);
            });
        }

        // 2. Execute: one fused sweep when the plans agree, per-member solo
        //    sweeps otherwise — bit-identical either way.
        out_buf.resize(width * b, 0.0);
        let fused = if uniform { FusedKernel::fuse(compiled.clone()) } else { None };
        match fused {
            Some(fused) => {
                fused.prepare_scratch(scratch, processor);
                let mut fused_params = Vec::with_capacity(fused.num_params());
                for (m, k) in compiled.iter().enumerate() {
                    fused_params.extend_from_slice(&members[m].params[..k.num_params()]);
                }
                fused.execute_block_ring(
                    &cells_buf,
                    &fused_params,
                    |m, ring, buf| fill_halo_ring(&mut members[m].ctx, bid, ring, buf),
                    &mut out_buf,
                    processor,
                    &mut stats,
                    scratch,
                );
            }
            None => {
                for (m, k) in compiled.iter().enumerate() {
                    let (bid_m, proc_m) = schedules[m][i];
                    k.prepare_scratch(scratch, proc_m);
                    let Member { params, ctx, .. } = &mut members[m];
                    k.execute_block_ring(
                        &cells_buf[m * b..(m + 1) * b],
                        params,
                        |ring, buf| fill_halo_ring(ctx, bid_m, ring, buf),
                        &mut out_buf[m * b..(m + 1) * b],
                        proc_m,
                        &mut stats[m],
                        scratch,
                    );
                }
            }
        }

        // 3. Scatter each member's next-step values back.
        for (m, member) in members.iter_mut().enumerate() {
            let (bid_m, _) = schedules[m][i];
            member.ctx.set_block(bid_m, &out_buf[m * b..(m + 1) * b]);
        }
    }

    let mut all_ok = true;
    for member in members.iter_mut() {
        let ok = member.ctx.refresh();
        all_ok &= member.ctx.finish_kernel_step(warmup, ok);
    }
    all_ok
}

/// Dispatch a join point through the member's weave purely for its marker
/// (and dispatch-count) effect — valid only where no advice matches, which
/// `fusion_compatible`'s serial-topology requirement guarantees for the
/// driver-level join points.
fn dispatch_marker(
    woven: &WovenProgram,
    use_weaver: bool,
    name: &str,
    attrs: &[(&'static str, i64)],
) {
    dispatch_body(woven, use_weaver, name, attrs, &mut || {});
}

/// Dispatch a join point running `body`, honoring the spec's weave mode the
/// way the runtime driver's private `dispatch` helper does.
fn dispatch_body(
    woven: &WovenProgram,
    use_weaver: bool,
    name: &str,
    attrs: &[(&'static str, i64)],
    body: &mut dyn FnMut(),
) {
    let mut payload = ();
    if use_weaver {
        woven.dispatch_with(name, JoinPointKind::Execution, attrs, &mut payload, &mut |_| body());
    } else {
        body();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{KernelService, ServiceConfig};
    use crate::session::SessionSpec;
    use crate::JobReport;
    use aohpc_kernel::MAX_FUSION_WIDTH;
    use aohpc_runtime::Topology;
    use aohpc_workloads::Scale;

    /// Dequeue everything currently in the service's job channel, with the
    /// same slot bookkeeping a worker performs — the deterministic stand-in
    /// for the worker loop in these tests (the services run zero workers).
    fn drain_queue(service: &KernelService) -> Vec<Queued> {
        let mut out = Vec::new();
        while let Ok(q) = service.queue_rx.try_recv() {
            service.inner.note_dequeued();
            out.push(q);
        }
        out
    }

    fn workerless(fusion: usize) -> KernelService {
        KernelService::new(
            ServiceConfig::default()
                .with_workers(0)
                .with_admission_timeout(Duration::ZERO)
                .with_batch_fusion(fusion),
        )
    }

    /// The job mix every parity test uses: two distinct stencil programs,
    /// alternating, all sharing the Smoke region/blocking/steps — compatible
    /// for fusion while exercising heterogeneous tapes in one sweep.
    fn mixed_jobs() -> Vec<JobSpec> {
        vec![
            JobSpec::jacobi(Scale::Smoke),
            JobSpec::smooth(Scale::Smoke),
            JobSpec::jacobi(Scale::Smoke),
            JobSpec::smooth(Scale::Smoke),
        ]
    }

    fn zero_times(mut s: RunSummary) -> RunSummary {
        s.wall_time = Duration::ZERO;
        s
    }

    fn assert_report_parity(fused: &JobReport, solo: &JobReport) {
        assert_eq!(fused.job, solo.job);
        assert_eq!(
            fused.checksum.to_bits(),
            solo.checksum.to_bits(),
            "job {}: fused checksum {} vs solo {}",
            fused.job,
            fused.checksum,
            solo.checksum
        );
        assert_eq!(fused.simulated_seconds.to_bits(), solo.simulated_seconds.to_bits());
        assert_eq!(zero_times(fused.summary.clone()), zero_times(solo.summary.clone()));
        assert_eq!(fused.specialization, solo.specialization);
        assert_eq!(fused.plan_cache_hit, solo.plan_cache_hit);
        assert_eq!(fused.error, solo.error);
    }

    #[test]
    fn config_clamps_fusion_width() {
        assert_eq!(ServiceConfig::default().with_batch_fusion(64).batch_fusion, MAX_FUSION_WIDTH);
        assert_eq!(ServiceConfig::default().with_batch_fusion(0).batch_fusion, 0);
    }

    #[test]
    fn compatibility_requires_matching_sweep_structure() {
        let a = JobSpec::jacobi(Scale::Smoke);
        assert!(fusion_compatible(&a, &JobSpec::smooth(Scale::Smoke)));
        assert!(fusion_compatible(&a, &a.clone()));
        assert!(!fusion_compatible(&a, &JobSpec::jacobi(Scale::Smoke).with_steps(99)));
        assert!(!fusion_compatible(&a, &JobSpec::jacobi(Scale::Smoke).with_block(a.block * 2)));
        assert!(!fusion_compatible(&a, &JobSpec::particle(Scale::Smoke)));
        assert!(!fusion_compatible(&a, &JobSpec::usgrid(Scale::Smoke)));
        // Parallel topologies weave rank/thread aspects: never fused.
        let parallel = JobSpec::jacobi(Scale::Smoke).with_topology(Topology::hybrid(2, 2));
        assert!(!fusion_compatible(&parallel, &parallel.clone()));
    }

    #[test]
    fn fused_batch_is_bit_identical_to_solo() {
        // Reference: every job alone, through the ordinary worker path.
        let solo = KernelService::new(ServiceConfig::default().with_workers(1));
        let session_s = solo.open_session(SessionSpec::tenant("acme"));
        for spec in mixed_jobs() {
            solo.submit(session_s, spec).unwrap();
        }
        let solo_reports = solo.drain();
        assert_eq!(solo_reports.len(), 4);

        // Fused: same four jobs drained as one batch.
        let fused = workerless(4);
        let session_f = fused.open_session(SessionSpec::tenant("acme"));
        for spec in mixed_jobs() {
            fused.try_submit(session_f, spec).unwrap();
        }
        let batch = drain_queue(&fused);
        assert_eq!(batch.len(), 4);
        run_batch(&fused.inner, batch);
        let fused_reports = fused.drain();
        assert_eq!(fused_reports.len(), 4);

        for (f, s) in fused_reports.iter().zip(&solo_reports) {
            assert_report_parity(f, s);
            assert_eq!(f.fusion, Some(FusionProvenance { width: 4, member: (f.job - 1) as usize }));
            assert_eq!(s.fusion, None);
        }

        // The ledgers agree too: per-session metering and the plan cache.
        let ms = solo.session(session_s).unwrap();
        let mf = fused.session(session_f).unwrap();
        assert_eq!(mf.meter().plan_cache_hits, ms.meter().plan_cache_hits);
        assert_eq!(mf.meter().plan_cache_misses, ms.meter().plan_cache_misses);
        assert_eq!(mf.meter().cells_updated, ms.meter().cells_updated);
        assert_eq!(mf.meter().simulated_seconds.to_bits(), ms.meter().simulated_seconds.to_bits());
        assert_eq!(fused.cache_stats().misses, solo.cache_stats().misses);
    }

    #[test]
    fn completion_stream_sees_fused_jobs_in_submission_order() {
        let service = workerless(4);
        let session = service.open_session(SessionSpec::tenant("t"));
        let stream = service.completion_stream(session).unwrap();
        let handles: Vec<_> =
            mixed_jobs().into_iter().map(|s| service.try_submit(session, s).unwrap()).collect();
        run_batch(&service.inner, drain_queue(&service));
        for handle in &handles {
            let report = stream.next().expect("stream open").expect("job succeeded");
            assert_eq!(report.job, handle.id());
            assert!(report.error.is_none());
            assert_eq!(report.fusion.as_ref().unwrap().width, 4);
        }
    }

    #[test]
    fn cancelled_member_drops_out_and_batch_renumbers() {
        let service = workerless(4);
        let session = service.open_session(SessionSpec::tenant("t"));
        let handles: Vec<_> = (0..3)
            .map(|_| service.try_submit(session, JobSpec::jacobi(Scale::Smoke)).unwrap())
            .collect();
        assert!(handles[1].cancel());
        run_batch(&service.inner, drain_queue(&service));
        let reports = service.drain();
        assert_eq!(reports.len(), 2);
        // The survivors fused as a width-2 pass, renumbered 0 and 1.
        assert_eq!(reports[0].job, handles[0].id());
        assert_eq!(reports[0].fusion, Some(FusionProvenance { width: 2, member: 0 }));
        assert_eq!(reports[1].job, handles[2].id());
        assert_eq!(reports[1].fusion, Some(FusionProvenance { width: 2, member: 1 }));
        assert!(handles[1].wait().is_err());
    }

    #[test]
    fn single_survivor_falls_back_to_solo() {
        let service = workerless(4);
        let session = service.open_session(SessionSpec::tenant("t"));
        let h1 = service.try_submit(session, JobSpec::jacobi(Scale::Smoke)).unwrap();
        let h2 = service.try_submit(session, JobSpec::jacobi(Scale::Smoke)).unwrap();
        assert!(h2.cancel());
        run_batch(&service.inner, drain_queue(&service));
        let reports = service.drain();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].job, h1.id());
        assert_eq!(reports[0].fusion, None, "a lone survivor runs the solo path");
        assert!(reports[0].error.is_none());
    }

    #[test]
    fn worker_loop_fuses_a_backlog_end_to_end() {
        // Through the real worker: a slow head job holds the single worker
        // while the compatible backlog queues behind it, so the next drain
        // picks the backlog up as one fused batch.
        let service =
            KernelService::new(ServiceConfig::default().with_workers(1).with_batch_fusion(4));
        let session = service.open_session(SessionSpec::tenant("t"));
        let blocker = JobSpec::jacobi(Scale::Smoke).with_steps(60);
        service.submit(session, blocker).unwrap();
        for spec in mixed_jobs() {
            service.submit(session, spec).unwrap();
        }
        let reports = service.drain();
        assert_eq!(reports.len(), 5);
        for report in &reports {
            assert!(report.error.is_none(), "job {} failed: {:?}", report.job, report.error);
            assert!(report.checksum.is_finite());
        }
        // Determinism across the fused/solo boundary: identical specs agree
        // bit-for-bit on their results no matter how they were batched.
        assert_eq!(reports[1].checksum.to_bits(), reports[3].checksum.to_bits());
        assert_eq!(reports[2].checksum.to_bits(), reports[4].checksum.to_bits());
    }
}
