//! The replay ledger: one job's problem re-executed at each successive layer
//! boundary, every step timed from outside.
//!
//! * **L0 `baselines`** — the hand-written serial code ([`crate::reference`]).
//! * **L1 `kernel`** — the compiled kernel swept over raw buffers:
//!   blocks × (steps + the warm-up step), no `Env` anywhere.
//! * **L2 `env`/`mem`** — the same sweeps against a real `Env`, phase by
//!   phase (build, init, gather, halo reads, scatter, refresh, sink), using
//!   only `Env`'s public calls.  The replay's checksum is compared with the
//!   reference, so a probe that stops doing what the platform does fails
//!   the run instead of reporting a wrong number.
//! * **L3 `runtime`** — `runtime::execute` with the family's DSL app, the
//!   job's topology and the aspects that topology needs.
//! * **L4 `service`** — a warm one-worker `KernelService`.
//! * **L5 `service.cluster`** — a warm 2-node `ClusterService`, the job
//!   submitted on the node that does not own its plan.
//!
//! The tax of layer k is t(Lk) − t(Lk−1).  `ledger.named_parts_ms` adds the
//! bottom-up parts (L2's build, init, sweeps, refresh, sink and checksum, and
//! the service's queue wait and resolve); `ledger.residual_pct` is what the
//! L4 job wall has left once they are subtracted.  The sweeps contain the
//! kernel (L1) and the access path; the phase passes say how the access path
//! splits.

use crate::reference::agrees;
use crate::stats::{median, Span};

/// The fastest of `walls`.  Every ledger timing is the fastest of its rounds:
/// interference only ever slows a step down, and the taxes are differences,
/// which a slow round on one side would swamp.
fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}
use crate::workloads::Kind;
use aohpc_aop::{JoinPointKind, Weaver, WovenProgram};
use aohpc_dsl::{
    new_field_sink, Bucket, DslSystem, PairForce, Particle, ParticleApp, ParticleSystem,
    SGridJacobiApp, SGridSystem, UsCell, UsGridJacobiApp, UsGridSystem, UsUpdate,
};
use aohpc_env::{AccessState, Cell, Env, Extent, GlobalAddress, LocalAddress};
use aohpc_kernel::{
    default_initial_value, new_stencil_field_sink, CompiledKernel, ExecScratch, ExecStats,
    FamilyProgram, IrStencilApp, OptLevel, PortableKernel, Processor, SpecializationId,
    StencilProgram,
};
use aohpc_mem::PoolHandle;
use aohpc_runtime::{execute, Communicator, MpiAspect, RunConfig, RunReport};
use aohpc_service::{
    plan_owner_among, ClusterService, JobHandle, JobSpec, KernelService, PlanCache, ServiceConfig,
    SessionSpec,
};
use aohpc_workloads::{checksum, GridLayout, ParticleSize};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The trace id ledger spans carry (job spans use the job's ordinal).
pub const LEDGER_TRACE: u64 = u64::MAX;

/// What the ledger found: per-layer values by metric name, its spans, and
/// whether every replay reproduced the reference.
pub struct Ledger {
    /// `(metric name, value)`.
    pub values: Vec<(&'static str, f64)>,
    /// One span per timed ledger step.
    pub spans: Vec<Span>,
    /// Replays (L1–L5) whose checksum disagreed with the reference.
    pub mismatches: u64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Run `f` `reps` times; every result with its wall seconds.
fn repeat<R>(reps: usize, mut f: impl FnMut() -> R) -> Vec<(R, f64)> {
    (0..reps.max(1)).map(|_| timed(&mut f)).collect()
}

/// Fastest of what `pick` reads from each run.
fn fastest_over<R>(runs: &[(R, f64)], pick: impl Fn(&(R, f64)) -> f64) -> f64 {
    fastest(&runs.iter().map(pick).collect::<Vec<_>>())
}

/// Records ledger steps as spans on the run's clock.
struct Recorder<'a> {
    epoch: Instant,
    next_id: &'a mut u64,
    spans: Vec<Span>,
}

impl Recorder<'_> {
    /// Run `f` once under a span called `name`; its result and seconds.
    fn step<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let result = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        *self.next_id += 1;
        self.spans.push(Span {
            id: *self.next_id,
            parent: 0,
            trace: LEDGER_TRACE,
            name,
            start_ns,
            end_ns,
        });
        (result, (end_ns - start_ns) as f64 / 1e9)
    }
}

/// Seconds each L2 phase took over one whole job, plus the exact counts the
/// per-cell figures divide by.
#[derive(Debug, Clone, Copy, Default)]
struct Replay {
    build_s: f64,
    init_s: f64,
    gather_s: f64,
    halo_s: f64,
    law_s: f64,
    scatter_s: f64,
    /// All sweeps the way the app runs them, phases interleaved per point.
    /// Timed apart the phases lose the overlap an out-of-order core gives
    /// them and sum to about a tenth more, so the reconciliation uses this.
    sweeps_s: f64,
    refresh_s: f64,
    sink_s: f64,
    checksum_s: f64,
    page_roundtrip_s: f64,
    cells: u64,
    gathers: u64,
    halo_reads: u64,
    search_nodes: u64,
    scatters: u64,
    working_bytes: u64,
    checksum: f64,
}

impl Replay {
    /// Field-wise fastest of the timings; counts come from the last replay
    /// (they are identical in all of them).
    fn fastest_of(runs: &[Replay]) -> Replay {
        let best = |f: fn(&Replay) -> f64| fastest(&runs.iter().map(f).collect::<Vec<_>>());
        Replay {
            build_s: best(|r| r.build_s),
            init_s: best(|r| r.init_s),
            gather_s: best(|r| r.gather_s),
            halo_s: best(|r| r.halo_s),
            law_s: best(|r| r.law_s),
            scatter_s: best(|r| r.scatter_s),
            sweeps_s: best(|r| r.sweeps_s),
            refresh_s: best(|r| r.refresh_s),
            sink_s: best(|r| r.sink_s),
            checksum_s: best(|r| r.checksum_s),
            page_roundtrip_s: best(|r| r.page_roundtrip_s),
            ..*runs.last().expect("at least one replay")
        }
    }
}

/// Give every data block to task 0, as the runtime driver does for a serial
/// run, so `swap_owned_buffers(0)` rotates all of them.
fn own_all<C: Cell>(env: &Env<C>) {
    for id in env.data_block_ids() {
        env.block(id).meta.set_dm_tid(Some(0));
        env.block(id).meta.set_ch_tid(Some(0));
    }
}

fn block_shape<C: Cell>(env: &Env<C>, id: usize) -> (Extent, GlobalAddress) {
    let meta = &env.block(id).meta;
    (meta.extent, meta.origin)
}

/// `Finalize` as the sample apps do it: collect `(address, value)` pairs in a
/// task-local vector grown from empty, then append them to the shared sink.
fn deposit(fill: impl FnOnce(&mut Vec<(GlobalAddress, f64)>)) -> Vec<(GlobalAddress, f64)> {
    let mut outputs = Vec::new();
    fill(&mut outputs);
    let mut sink = Vec::new();
    sink.extend(outputs);
    sink
}

/// `extract_page` + `install_page` of page 0 of the first data block.
fn page_roundtrip<C: Cell>(env: &Env<C>) -> f64 {
    let block = env.data_block_ids()[0];
    const ROUNDS: usize = 2000;
    let (_, secs) = timed(|| {
        for _ in 0..ROUNDS {
            let page = env.extract_page(block, 0).expect("data blocks have pages");
            env.install_page(block, 0, black_box(&page)).expect("same block, same page");
        }
    });
    secs / ROUNDS as f64
}

/// What the three families' jobs offer the ledger.
trait FamilyJob {
    /// L1: the job's sweeps over raw buffers; seconds.
    fn raw_sweeps(&self) -> f64;
    /// L2: the job against a real `Env`, phase by phase.
    fn replay(&self) -> Replay;
    /// L3: `runtime::execute`, then the service's checksum pass over the
    /// sink.  Returns the report, the checksum and the pass's seconds.
    fn execute(&self, with_sink: bool) -> (RunReport, f64, f64);
    /// The family's own `kernel.*` figures.
    fn kernel_values(&self, reps: usize, sweep_updates: f64, values: &mut Values);
    /// The classic closure-kernel app on the same problem, where the family
    /// has a second path; seconds.
    fn closure_path(&self) -> Option<f64> {
        None
    }
}

type Values = Vec<(&'static str, f64)>;

/// `kernel.*` rows of a family whose kernel is a closure, not a tape.
fn closure_kernel_values(ops: f64, bytes: f64, law_ns: f64, values: &mut Values) {
    values.push(("kernel.execute_block.generic_updates_per_s", 0.0));
    values.push(("kernel.ops_per_update", ops));
    values.push(("kernel.bytes_per_update_computed", bytes));
    values.push(("kernel.allocs_per_block", 0.0));
    values.push(("kernel.law_ns_per_call", law_ns));
    values.push(("kernel.tape_body_len", 0.0));
    values.push(("kernel.specialized", 0.0));
}

// ---------------------------------------------------------------- stencil --

struct StencilJob<'a> {
    program: &'a StencilProgram,
    spec: &'a JobSpec,
    compiled: CompiledKernel,
    plans: Arc<PlanCache>,
}

impl StencilJob<'_> {
    fn blocks(&self) -> usize {
        self.spec.region.nx.div_ceil(self.spec.block)
            * self.spec.region.ny.div_ceil(self.spec.block)
    }

    /// L1: blocks × (steps + warm-up) sweeps of one raw block buffer.
    fn sweep_raw(&self, specialized: bool) -> f64 {
        let extent = self.compiled.extent();
        let cells: Vec<f64> = (0..extent.cells())
            .map(|idx| {
                let la = extent.delinearize(idx);
                default_initial_value(GlobalAddress::new2d(la.dx, la.dy))
            })
            .collect();
        let mut out = vec![0.0; cells.len()];
        let mut scratch = ExecScratch::new();
        self.compiled.prepare_scratch(&mut scratch, Processor::Scalar);
        let mut stats = ExecStats::default();
        let sweeps = self.blocks() * (self.spec.steps + 1);
        let (_, secs) = timed(|| {
            for _ in 0..sweeps {
                let mut halo = |_: i64, _: i64| 0.0;
                if specialized {
                    self.compiled.execute_block(
                        black_box(&cells),
                        &self.spec.params,
                        &mut halo,
                        &mut out,
                        Processor::Scalar,
                        &mut stats,
                        &mut scratch,
                    );
                } else {
                    self.compiled.execute_block_unspecialized(
                        black_box(&cells),
                        &self.spec.params,
                        &mut halo,
                        &mut out,
                        Processor::Scalar,
                        &mut stats,
                        &mut scratch,
                    );
                }
                black_box(&out);
            }
        });
        secs
    }

    /// Allocations of one warm `execute_block` (needs the counting allocator
    /// of the ledger binary; reads 0 under the system allocator).
    fn allocs_per_block(&self) -> u64 {
        let extent = self.compiled.extent();
        let cells = vec![0.5; extent.cells()];
        let mut out = vec![0.0; cells.len()];
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        let mut run = || {
            self.compiled.execute_block(
                &cells,
                &self.spec.params,
                &mut |_, _| 0.0,
                &mut out,
                Processor::Scalar,
                &mut stats,
                &mut scratch,
            )
        };
        run();
        aohpc_testalloc::count_in(run).1
    }

    /// The out-of-block coordinates one block's sweep asks the platform for.
    fn halo_coordinates(&self) -> Vec<(i64, i64)> {
        let extent = self.compiled.extent();
        let cells = vec![0.0; extent.cells()];
        let mut out = vec![0.0; cells.len()];
        let mut asked = Vec::new();
        self.compiled.execute_block(
            &cells,
            &self.spec.params,
            &mut |x, y| {
                asked.push((x, y));
                0.0
            },
            &mut out,
            Processor::Scalar,
            &mut ExecStats::default(),
            &mut ExecScratch::new(),
        );
        asked
    }

    /// The classic closure-kernel app on the same problem (jacobi only).
    fn execute_closure_app(&self) -> f64 {
        let spec = self.spec;
        let system = Arc::new(SGridSystem::with_block_size(spec.region, spec.block));
        let mut app = SGridJacobiApp::new(spec.steps, spec.block);
        (app.alpha, app.beta) = (spec.params[0], spec.params[1]);
        timed(|| execute(&run_config(spec), weave_for(spec), system.env_factory(), app.factory())).1
    }
}

impl FamilyJob for StencilJob<'_> {
    fn raw_sweeps(&self) -> f64 {
        self.sweep_raw(true)
    }

    fn replay(&self) -> Replay {
        let spec = self.spec;
        let mut r = Replay::default();
        let system = SGridSystem::with_block_size(spec.region, spec.block);
        let (env, build_s) = timed(|| {
            let env = system.build_env();
            own_all(&env);
            env
        });
        r.build_s = build_s;
        r.working_bytes = env.working_bytes() as u64;
        let blocks = env.data_block_ids();
        let mut state = AccessState::new();

        r.init_s = timed(|| {
            for &bid in &blocks {
                let (ext, origin) = block_shape(&env, bid);
                for idx in 0..ext.cells() {
                    let la = ext.delinearize(idx);
                    env.write_initial(bid, la, default_initial_value(origin + la));
                }
            }
        })
        .1;

        let mut cells = Vec::new();
        let mut out = Vec::new();
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        for step in 0..=spec.steps {
            for &bid in &blocks {
                let (ext, _) = block_shape(&env, bid);
                cells.resize(ext.cells(), 0.0);
                out.resize(ext.cells(), 0.0);
                r.gather_s += timed(|| {
                    for (idx, cell) in cells.iter_mut().enumerate() {
                        *cell = env
                            .read_local(bid, ext.delinearize(idx), true, &mut state)
                            .unwrap_or_default();
                    }
                })
                .1;
                r.gathers += ext.cells() as u64;
                // In-situ execute, halo reads included.  The app runs its
                // phases block by block exactly like this, so here the sweeps'
                // total is simply the sum of the three.
                let execute_start = Instant::now();
                self.compiled.execute_block(
                    &cells,
                    &spec.params,
                    &mut |x, y| {
                        env.read_local(bid, LocalAddress::new2d(x, y), false, &mut state)
                            .unwrap_or_default()
                    },
                    &mut out,
                    Processor::Scalar,
                    &mut stats,
                    &mut scratch,
                );
                r.sweeps_s += execute_start.elapsed().as_secs_f64();
                r.scatter_s += timed(|| {
                    for (idx, value) in out.iter().enumerate() {
                        env.write_local(bid, ext.delinearize(idx), *value, &mut state);
                    }
                })
                .1;
                r.scatters += ext.cells() as u64;
            }
            // The warm-up step computes and discards: no rotation.
            if step > 0 {
                r.refresh_s += timed(|| env.swap_owned_buffers(0)).1;
            }
        }

        r.sweeps_s += r.gather_s + r.scatter_s;

        // The halo reads of every block, exactly the coordinates the kernel
        // asks for, timed on their own and scaled to the job's sweeps.
        let halo = self.halo_coordinates();
        let mut probe = AccessState::new();
        let (_, halo_s) = timed(|| {
            for &bid in &blocks {
                for &(x, y) in &halo {
                    black_box(env.read_local(bid, LocalAddress::new2d(x, y), false, &mut probe));
                }
            }
        });
        let sweeps = (spec.steps + 1) as u64;
        r.halo_s = halo_s * sweeps as f64;
        r.halo_reads = probe.counters.reads * sweeps;
        r.search_nodes = probe.counters.search_nodes_visited * sweeps;

        let (sink, sink_s) = timed(|| {
            deposit(|outputs| {
                for &bid in &blocks {
                    let (ext, origin) = block_shape(&env, bid);
                    for idx in 0..ext.cells() {
                        let la = ext.delinearize(idx);
                        let v = env.read_local(bid, la, true, &mut state).unwrap_or_default();
                        outputs.push((origin + la, v));
                    }
                }
            })
        });
        r.sink_s = sink_s;
        (r.checksum, r.checksum_s) = timed(|| checksum(sink.iter().map(|(_, v)| *v)));
        r.cells = spec.region.cells() as u64;
        r.page_roundtrip_s = page_roundtrip(&env);
        r
    }

    /// L3: `runtime::execute` + `IrStencilApp`, then the checksum pass the
    /// service runs over the sink.  Returns the report, the checksum and the
    /// seconds of the checksum pass alone.
    fn execute(&self, with_sink: bool) -> (RunReport, f64, f64) {
        let spec = self.spec;
        let system = Arc::new(SGridSystem::with_block_size(spec.region, spec.block));
        let sink = new_stencil_field_sink();
        let mut app = IrStencilApp::new(self.program.clone(), spec.params.clone(), spec.steps)
            .with_plan_source(self.plans.clone());
        if with_sink {
            app = app.with_field_sink(sink.clone());
        }
        let report =
            execute(&run_config(spec), weave_for(spec), system.env_factory(), app.factory());
        let (sum, secs) = timed(|| checksum(sink.lock().iter().map(|(_, v)| *v)));
        (report, sum, secs)
    }
    fn kernel_values(&self, reps: usize, sweep_updates: f64, values: &mut Values) {
        let generic_s = fastest_over(&repeat(reps, || self.sweep_raw(false)), |r| r.0);
        values.push(("kernel.execute_block.generic_updates_per_s", sweep_updates / generic_s));
        values.push(("kernel.ops_per_update", self.compiled.op_count() as f64));
        // One f64 read from the gathered block and one written back.
        values.push(("kernel.bytes_per_update_computed", 16.0));
        values.push(("kernel.allocs_per_block", self.allocs_per_block() as f64));
        values.push(("kernel.law_ns_per_call", 0.0));
        values.push(("kernel.tape_body_len", self.compiled.tape().stats().body_len as f64));
        let specialized = self.compiled.specialization() != SpecializationId::Generic;
        values.push(("kernel.specialized", f64::from(u8::from(specialized))));
    }
    fn closure_path(&self) -> Option<f64> {
        self.program
            .same_structure(&StencilProgram::jacobi_5pt())
            .then(|| self.execute_closure_app())
    }
}

/// The run configuration the service builds for `spec`.
fn run_config(spec: &JobSpec) -> RunConfig {
    RunConfig::serial().with_topology(spec.topology.clone()).with_weave_mode(spec.weave_mode)
}

/// The aspects the service weaves for `spec`'s topology (none when serial).
fn weave_for(spec: &JobSpec) -> WovenProgram {
    let mut weaver = Weaver::new();
    if spec.topology.ranks() > 1 {
        weaver = weaver.with_aspect(Box::new(MpiAspect::<f64>::new()));
    }
    weaver.weave()
}

// ----------------------------------------------------------------- usgrid --

struct UsGridJob<'a> {
    spec: &'a JobSpec,
    system: UsGridSystem,
    update: UsUpdate,
}

impl UsGridJob<'_> {
    /// L1: (steps + warm-up) sweeps over flat arrays — neighbour indices
    /// resolved once, the compiled `update_fn` applied per point.
    fn sweep_flat(&self) -> f64 {
        let (nx, ny) = (self.spec.region.nx as i64, self.spec.region.ny as i64);
        let at = |x: i64, y: i64| -> usize {
            if x < 0 || y < 0 || x >= nx || y >= ny {
                usize::MAX
            } else {
                (y * nx + x) as usize
            }
        };
        let neighbours: Vec<[usize; 4]> = (0..ny)
            .flat_map(|y| {
                (0..nx).map(move |x| [at(x, y - 1), at(x - 1, y), at(x + 1, y), at(x, y + 1)])
            })
            .collect();
        let mut read: Vec<f64> = (0..ny)
            .flat_map(|y| (0..nx).map(move |x| UsGridJacobiApp::initial_value(x, y)))
            .collect();
        let mut write = vec![0.0; read.len()];
        let update = &self.update.0;
        timed(|| {
            for _ in 0..=self.spec.steps {
                for (idx, around) in neighbours.iter().enumerate() {
                    let vals = around.map(|n| if n == usize::MAX { 0.0 } else { read[n] });
                    write[idx] = update(read[idx], &vals);
                }
                std::mem::swap(&mut read, &mut write);
                black_box(&read);
            }
        })
        .1
    }

    fn law_ns_per_call(&self) -> f64 {
        const CALLS: usize = 1_000_000;
        let update = &self.update.0;
        let vals = [0.25, 0.5, 0.75, 1.0];
        let (sum, secs) = timed(|| {
            let mut me = 0.5;
            for _ in 0..CALLS {
                me = update(black_box(me), black_box(&vals)) * 0.5;
            }
            me
        });
        black_box(sum);
        secs * 1e9 / CALLS as f64
    }
}

impl FamilyJob for UsGridJob<'_> {
    fn raw_sweeps(&self) -> f64 {
        self.sweep_flat()
    }

    /// L2: the job against a real `Env<UsCell>`.  The app's per-point
    /// sequence (own cell, four neighbour reads, update, write) runs here as
    /// one pass per phase per row so each phase can be timed.
    fn replay(&self) -> Replay {
        let spec = self.spec;
        let system = &self.system;
        let mut r = Replay::default();
        let (env, build_s) = timed(|| {
            let env = system.build_env();
            own_all(&env);
            env
        });
        r.build_s = build_s;
        r.working_bytes = env.working_bytes() as u64;
        let blocks = env.data_block_ids();
        let mut state = AccessState::new();
        let bs = system.block_size as i64;

        r.init_s = timed(|| {
            let by_origin = aohpc_dsl::common::origin_index(&env);
            for y in 0..spec.region.ny as i64 {
                for x in 0..spec.region.nx as i64 {
                    let s = system.storage_of(x, y);
                    let origin = ((s.x / bs) * bs, (s.y / bs) * bs);
                    let cell = UsCell {
                        value: UsGridJacobiApp::initial_value(x, y),
                        neighbors: [
                            system.neighbor_address(x, y, 0, -1),
                            system.neighbor_address(x, y, -1, 0),
                            system.neighbor_address(x, y, 1, 0),
                            system.neighbor_address(x, y, 0, 1),
                        ],
                    };
                    let local = LocalAddress::new2d(s.x - origin.0, s.y - origin.1);
                    env.write_initial(by_origin[&origin], local, cell);
                }
            }
        })
        .1;

        let update = &self.update.0;
        let mut own: Vec<UsCell> = Vec::new();
        let mut around: Vec<[f64; 4]> = Vec::new();
        let mut next: Vec<f64> = Vec::new();
        for step in 0..=spec.steps {
            for &bid in &blocks {
                let (ext, _) = block_shape(&env, bid);
                // A row at a time, so the staging buffers stay in cache as
                // the app's per-point locals do.
                for j in 0..ext.ny as i64 {
                    let row = |i: usize| LocalAddress::new2d(i as i64, j);
                    own.clear();
                    r.gather_s += timed(|| {
                        for i in 0..ext.nx {
                            own.push(
                                env.read_local(bid, row(i), true, &mut state).unwrap_or_default(),
                            );
                        }
                    })
                    .1;
                    around.clear();
                    let before = state.counters;
                    r.halo_s += timed(|| {
                        for me in &own {
                            around.push(me.neighbors.map(|(x, y)| {
                                env.read(bid, GlobalAddress::new2d(x, y), false, &mut state)
                                    .unwrap_or_default()
                                    .value
                            }));
                        }
                    })
                    .1;
                    r.halo_reads += state.counters.reads - before.reads;
                    r.search_nodes +=
                        state.counters.search_nodes_visited - before.search_nodes_visited;
                    next.clear();
                    r.law_s += timed(|| {
                        for (me, vals) in own.iter().zip(&around) {
                            next.push(update(me.value, vals));
                        }
                    })
                    .1;
                    r.scatter_s += timed(|| {
                        for (i, (me, value)) in own.iter().zip(&next).enumerate() {
                            let cell = UsCell { value: *value, neighbors: me.neighbors };
                            env.write_local(bid, row(i), cell, &mut state);
                        }
                    })
                    .1;
                }
                r.gathers += ext.cells() as u64;
                r.scatters += ext.cells() as u64;
            }
            if step > 0 {
                r.refresh_s += timed(|| env.swap_owned_buffers(0)).1;
            }
        }

        // The same sweeps once more the way the app runs them.  They write
        // the write buffers and never rotate them, so the field is untouched.
        r.sweeps_s = timed(|| {
            for _ in 0..=spec.steps {
                for &bid in &blocks {
                    let (ext, _) = block_shape(&env, bid);
                    for idx in 0..ext.cells() {
                        let la = ext.delinearize(idx);
                        let me = env.read_local(bid, la, true, &mut state).unwrap_or_default();
                        let vals = me.neighbors.map(|(x, y)| {
                            env.read(bid, GlobalAddress::new2d(x, y), false, &mut state)
                                .unwrap_or_default()
                                .value
                        });
                        let cell =
                            UsCell { value: update(me.value, &vals), neighbors: me.neighbors };
                        env.write_local(bid, la, cell, &mut state);
                    }
                }
            }
        })
        .1;

        let (sink, sink_s) = timed(|| {
            deposit(|outputs| {
                for &bid in &blocks {
                    let (ext, origin) = block_shape(&env, bid);
                    for idx in 0..ext.cells() {
                        let la = ext.delinearize(idx);
                        let v = env.read_local(bid, la, true, &mut state).unwrap_or_default();
                        outputs.push((origin + la, v.value));
                    }
                }
            })
        });
        r.sink_s = sink_s;
        (r.checksum, r.checksum_s) = timed(|| checksum(sink.iter().map(|(_, v)| *v)));
        r.cells = spec.region.cells() as u64;
        r.page_roundtrip_s = page_roundtrip(&env);
        r
    }

    /// L3: `runtime::execute` + `UsGridJacobiApp` with the compiled update.
    fn execute(&self, with_sink: bool) -> (RunReport, f64, f64) {
        let spec = self.spec;
        let sink = new_field_sink();
        let mut app =
            UsGridJacobiApp::new(self.system.clone(), spec.steps).with_update(self.update.clone());
        (app.alpha, app.beta) = (spec.params[0], spec.params[1]);
        if with_sink {
            app = app.with_sink(sink.clone());
        }
        let factory = Arc::new(self.system.clone()).env_factory();
        let report = execute(&run_config(spec), weave_for(spec), factory, app.factory());
        let (sum, secs) = timed(|| checksum(sink.lock().iter().map(|(_, v)| *v)));
        (report, sum, secs)
    }

    fn kernel_values(&self, _reps: usize, _sweep_updates: f64, values: &mut Values) {
        // Own cell, four neighbour cells, one cell written.
        let bytes = 6.0 * std::mem::size_of::<UsCell>() as f64;
        closure_kernel_values(0.0, bytes, self.law_ns_per_call(), values);
    }
}

// --------------------------------------------------------------- particle --

struct ParticleJob<'a> {
    spec: &'a JobSpec,
    system: ParticleSystem,
    law: PairForce,
}

/// The in-bucket offset of the `k`-th particle — the sample app's (and the
/// hand-written baseline's) initial condition.
fn particle_offset(k: usize) -> (f64, f64) {
    let fx = ((k * 7 + 3) % 16) as f64 / 16.0;
    let fy = ((k * 11 + 5) % 16) as f64 / 16.0;
    (0.05 + 0.9 * fx, 0.05 + 0.9 * fy)
}

impl ParticleJob<'_> {
    fn initial_bucket(&self, x: i64, y: i64) -> Bucket {
        let fill = self.system.fill_per_bucket;
        let first = (y as usize * self.system.buckets_x + x as usize) * fill;
        let mut bucket = Bucket::default();
        for k in 0..fill {
            if first + k >= self.system.particles.count {
                break;
            }
            let (ox, oy) = particle_offset(k);
            bucket.push(Particle {
                id: (first + k) as u32,
                pos: [x as f64 + ox, y as f64 + oy, 0.5],
                vel: [0.0; 3],
                acc: [0.0; 3],
            });
        }
        bucket
    }

    /// One bucket's update given its 3×3 neighbourhood: the app's
    /// `kernel_in_place` arithmetic in the app's order.  Returns pair-law
    /// calls made.
    fn advance(&self, me: &Bucket, around: &[&Bucket; 9], dt: f64, out: &mut Bucket) -> u64 {
        let law = &self.law.0;
        let mut calls = 0;
        *out = *me;
        for p_idx in 0..me.count as usize {
            let p = me.particles[p_idx];
            let mut force = [0.0f64; 3];
            for nb in around {
                for q in nb.live() {
                    if q.id != p.id {
                        law(&p.pos, &q.pos, &mut force);
                        calls += 1;
                    }
                }
            }
            let p = &mut out.particles[p_idx];
            p.acc = force;
            for d in 0..3 {
                p.vel[d] += p.acc[d] * dt;
                p.pos[d] += p.vel[d] * dt;
            }
        }
        calls
    }

    /// (steps + warm-up) sweeps over a flat bucket array, neighbours taken
    /// by reference (walls built once).  Returns the seconds and the
    /// pair-law calls of one sweep.
    fn sweep_flat(&self) -> (f64, u64) {
        let (nx, ny) = (self.system.buckets_x as i64, self.system.buckets_y as i64);
        let mut read: Vec<Bucket> = (0..ny)
            .flat_map(|y| (0..nx).map(move |x| (x, y)))
            .map(|(x, y)| self.initial_bucket(x, y))
            .collect();
        let mut write = read.clone();
        // The ring of wall buckets around the domain, indexed like a
        // (nx + 2) × (ny + 2) grid.
        let walls: Vec<Bucket> = (-1..=ny)
            .flat_map(|y| {
                (-1..=nx).map(move |x| ParticleSystem::wall_bucket(GlobalAddress::new2d(x, y)))
            })
            .collect();
        let dt = self.spec.params[1];
        let mut calls = 0;
        let (_, secs) = timed(|| {
            for _ in 0..=self.spec.steps {
                calls = 0;
                for y in 0..ny {
                    for x in 0..nx {
                        let around: [&Bucket; 9] = std::array::from_fn(|slot| {
                            let (px, py) = (x + slot as i64 % 3 - 1, y + slot as i64 / 3 - 1);
                            if px < 0 || py < 0 || px >= nx || py >= ny {
                                &walls[((py + 1) * (nx + 2) + px + 1) as usize]
                            } else {
                                &read[(py * nx + px) as usize]
                            }
                        });
                        let idx = (y * nx + x) as usize;
                        calls += self.advance(&read[idx], &around, dt, &mut write[idx]);
                    }
                }
                std::mem::swap(&mut read, &mut write);
                black_box(&read);
            }
        });
        (secs, calls)
    }

    fn law_ns_per_call(&self) -> f64 {
        const CALLS: usize = 1_000_000;
        let law = &self.law.0;
        let (force, secs) = timed(|| {
            let mut force = [0.0f64; 3];
            let p = [0.3, 0.4, 0.5];
            for k in 0..CALLS {
                let q = [0.3 + (k % 7) as f64 * 0.1, 0.9, 0.5];
                law(black_box(&p), black_box(&q), &mut force);
            }
            force
        });
        black_box(force);
        secs * 1e9 / CALLS as f64
    }
}

impl FamilyJob for ParticleJob<'_> {
    fn raw_sweeps(&self) -> f64 {
        self.sweep_flat().0
    }

    /// L2: the job against a real `Env<Bucket>`, one pass per phase per row
    /// of buckets.  `gather` is every hinted read (own bucket and in-block
    /// neighbours), `halo` every unhinted one (neighbours across a block
    /// edge), as `ParticleApp` issues them.
    fn replay(&self) -> Replay {
        let spec = self.spec;
        let dt = spec.params[1];
        let mut r = Replay::default();
        let (env, build_s) = timed(|| {
            let env = self.system.build_env();
            own_all(&env);
            env
        });
        r.build_s = build_s;
        r.working_bytes = env.working_bytes() as u64;
        let blocks = env.data_block_ids();
        let mut state = AccessState::new();

        r.init_s = timed(|| {
            for &bid in &blocks {
                let (ext, origin) = block_shape(&env, bid);
                for idx in 0..ext.cells() {
                    let la = ext.delinearize(idx);
                    let g = origin + la;
                    env.write_initial(bid, la, self.initial_bucket(g.x, g.y));
                }
            }
        })
        .1;

        for step in 0..=spec.steps {
            for &bid in &blocks {
                let (ext, _) = block_shape(&env, bid);
                let (bx, by) = (ext.nx as i64, ext.ny as i64);
                let mut own = vec![Bucket::default(); ext.nx];
                let mut around = vec![Bucket::default(); ext.nx * 9];
                let mut next = vec![Bucket::default(); ext.nx];
                for j in 0..by {
                    let inside = |i: i64, di: i64, dj: i64| {
                        i + di >= 0 && j + dj >= 0 && i + di < bx && j + dj < by
                    };
                    let neighbourhood =
                        || (-1..=1i64).flat_map(|dj| (-1..=1i64).map(move |di| (di, dj)));
                    r.gather_s += timed(|| {
                        for i in 0..bx {
                            own[i as usize] = env
                                .read_local(bid, LocalAddress::new2d(i, j), true, &mut state)
                                .unwrap_or_default();
                            r.gathers += 1;
                            for (slot, (di, dj)) in neighbourhood().enumerate() {
                                if inside(i, di, dj) {
                                    around[i as usize * 9 + slot] = env
                                        .read_local(
                                            bid,
                                            LocalAddress::new2d(i + di, j + dj),
                                            true,
                                            &mut state,
                                        )
                                        .unwrap_or_default();
                                    r.gathers += 1;
                                }
                            }
                        }
                    })
                    .1;
                    let before = state.counters;
                    r.halo_s += timed(|| {
                        for i in 0..bx {
                            for (slot, (di, dj)) in neighbourhood().enumerate() {
                                if !inside(i, di, dj) {
                                    around[i as usize * 9 + slot] = env
                                        .read_local(
                                            bid,
                                            LocalAddress::new2d(i + di, j + dj),
                                            false,
                                            &mut state,
                                        )
                                        .unwrap_or_default();
                                }
                            }
                        }
                    })
                    .1;
                    r.halo_reads += state.counters.reads - before.reads;
                    r.search_nodes +=
                        state.counters.search_nodes_visited - before.search_nodes_visited;
                    r.law_s += timed(|| {
                        for i in 0..ext.nx {
                            let refs: [&Bucket; 9] =
                                std::array::from_fn(|slot| &around[i * 9 + slot]);
                            self.advance(&own[i], &refs, dt, &mut next[i]);
                        }
                    })
                    .1;
                    r.scatter_s += timed(|| {
                        for i in 0..bx {
                            env.write_local(
                                bid,
                                LocalAddress::new2d(i, j),
                                next[i as usize],
                                &mut state,
                            );
                        }
                    })
                    .1;
                    r.scatters += ext.nx as u64;
                }
            }
            if step > 0 {
                r.refresh_s += timed(|| env.swap_owned_buffers(0)).1;
            }
        }

        // The same sweeps once more the way the app runs them.  They write
        // the write buffers and never rotate them, so the field is untouched.
        r.sweeps_s = timed(|| {
            let mut next = Bucket::default();
            for _ in 0..=spec.steps {
                for &bid in &blocks {
                    let (ext, _) = block_shape(&env, bid);
                    let (bx, by) = (ext.nx as i64, ext.ny as i64);
                    for idx in 0..ext.cells() {
                        let la = ext.delinearize(idx);
                        let me = env.read_local(bid, la, true, &mut state).unwrap_or_default();
                        let around: [Bucket; 9] = std::array::from_fn(|slot| {
                            let (i, j) = (la.dx + slot as i64 % 3 - 1, la.dy + slot as i64 / 3 - 1);
                            let inside = i >= 0 && j >= 0 && i < bx && j < by;
                            env.read_local(bid, LocalAddress::new2d(i, j), inside, &mut state)
                                .unwrap_or_default()
                        });
                        self.advance(&me, &around.each_ref(), dt, &mut next);
                        env.write_local(bid, la, next, &mut state);
                    }
                }
            }
        })
        .1;

        let (sink, sink_s) = timed(|| {
            deposit(|outputs| {
                for &bid in &blocks {
                    let (ext, origin) = block_shape(&env, bid);
                    for idx in 0..ext.cells() {
                        let la = ext.delinearize(idx);
                        let bucket = env.read_local(bid, la, true, &mut state).unwrap_or_default();
                        let speed: f64 = bucket
                            .live()
                            .iter()
                            .map(|p| {
                                (p.vel[0].powi(2) + p.vel[1].powi(2) + p.vel[2].powi(2)).sqrt()
                            })
                            .sum();
                        outputs.push((origin + la, speed));
                    }
                }
            })
        });
        r.sink_s = sink_s;
        (r.checksum, r.checksum_s) = timed(|| checksum(sink.iter().map(|(_, v)| *v)));
        r.cells = self.system.particles.count as u64;
        r.page_roundtrip_s = page_roundtrip(&env);
        r
    }

    /// L3: `runtime::execute` + `ParticleApp` with the compiled pair law.
    fn execute(&self, with_sink: bool) -> (RunReport, f64, f64) {
        let spec = self.spec;
        let sink = new_field_sink();
        let mut app = ParticleApp::new(self.system.clone(), spec.steps)
            .with_dt(spec.params[1])
            .with_pair_force(self.law.clone());
        if with_sink {
            app = app.with_sink(sink.clone());
        }
        let factory = Arc::new(self.system.clone()).env_factory();
        let report = execute(&run_config(spec), weave_for(spec), factory, app.factory());
        let (sum, secs) = timed(|| checksum(sink.lock().iter().map(|(_, v)| *v)));
        (report, sum, secs)
    }

    fn kernel_values(&self, _reps: usize, _sweep_updates: f64, values: &mut Values) {
        // Pair-law calls per particle update; own bucket, nine neighbour
        // buckets and one bucket written, shared by the bucket's particles.
        let calls = self.sweep_flat().1 as f64 / self.system.particles.count as f64;
        let bytes =
            11.0 * std::mem::size_of::<Bucket>() as f64 / self.system.fill_per_bucket as f64;
        closure_kernel_values(calls, bytes, self.law_ns_per_call(), values);
    }
}

// ------------------------------------------------------- family-free probes --

/// `FamilyProgram::fingerprint` / `compile` and the portable wire form.
fn compile_probes(spec: &JobSpec, values: &mut Values) {
    let program = &spec.program;
    let extent = Extent::new2d(spec.block.min(spec.region.nx), spec.block.min(spec.region.ny));
    const PRINTS: usize = 2000;
    let (_, secs) = timed(|| {
        for _ in 0..PRINTS {
            black_box(black_box(program).fingerprint());
        }
    });
    values.push(("kernel.fingerprint_ns", secs * 1e9 / PRINTS as f64));
    let compiles = repeat(9, || black_box(program.compile(extent, OptLevel::Full)));
    values.push(("kernel.compile_us", fastest_over(&compiles, |r| r.1) * 1e6));
    let roundtrips = repeat(9, || {
        let bytes = PortableKernel::pack(program, extent, OptLevel::Full).to_bytes();
        let back = PortableKernel::from_bytes(&bytes).expect("a kernel packed here decodes here");
        black_box(back.hydrate());
        bytes.len()
    });
    values.push(("kernel.portable_bytes", roundtrips[0].0 as f64));
    values.push(("kernel.portable_roundtrip_us", fastest_over(&roundtrips, |r| r.1) * 1e6));
}

/// `PlanCache::resolve` on a private default-sized cache: hits on the job's
/// own program, misses on structurally new programs.
fn cache_probes(spec: &JobSpec, values: &mut Values) {
    let cache = PlanCache::new(8, 64);
    let extent = Extent::new2d(spec.block.min(spec.region.nx), spec.block.min(spec.region.ny));
    cache.resolve(&spec.program, extent, OptLevel::Full, false);
    const HITS: usize = 20_000;
    let (_, secs) = timed(|| {
        for _ in 0..HITS {
            black_box(cache.resolve(black_box(&spec.program), extent, OptLevel::Full, false));
        }
    });
    values.push(("service.cache.resolve_hit_ns", secs * 1e9 / HITS as f64));
    let fresh =
        crate::workloads::Plan::build(crate::workloads::WorkloadId::ServiceSmallMix, 1, true);
    let misses: Vec<f64> = fresh
        .kinds
        .iter()
        .rev()
        .take(48)
        .map(|kind| {
            timed(|| black_box(cache.resolve(&kind.spec.program, extent, OptLevel::Full, false))).1
        })
        .collect();
    values.push(("service.cache.resolve_miss_us", median(&misses) * 1e6));
    debug_assert_eq!(cache.stats().compiles, 49);
}

/// An empty weave's `dispatch_with` against calling the body directly.
fn dispatch_probe(values: &mut Values) {
    const CALLS: u64 = 1_000_000;
    let woven = WovenProgram::unwoven();
    let mut counter = 0u64;
    let (_, woven_s) = timed(|| {
        for _ in 0..CALLS {
            woven.dispatch_with(
                "Bench::probe",
                JoinPointKind::Call,
                &[("task_id", 0)],
                &mut (),
                &mut |_| counter = black_box(counter + 1),
            );
        }
    });
    let (_, direct_s) = timed(|| {
        for _ in 0..CALLS {
            counter = black_box(counter + 1);
        }
    });
    black_box(counter);
    values.push(("aop.dispatch_ns", (woven_s - direct_s).max(0.0) * 1e9 / CALLS as f64));
}

/// `PoolHandle::alloc` + `free` of one page-sized chunk.
fn pool_probe(values: &mut Values) {
    const ROUNDS: usize = 100_000;
    let pool = PoolHandle::unbounded();
    let (_, secs) = timed(|| {
        for _ in 0..ROUNDS {
            let chunk = pool.alloc(black_box(2048)).expect("an unbounded pool never refuses");
            pool.free(chunk).expect("the chunk came from this pool");
        }
    });
    values.push(("mem.pool_alloc_ns", secs * 1e9 / ROUNDS as f64));
}

/// One superstep in which each of two ranks fetches a 256-cell page from the
/// other: `Communicator::exchange`, two threads.
fn comm_probe(values: &mut Values) {
    const STEPS: usize = 2000;
    let mut mesh = Communicator::<f64>::mesh(2);
    let mut rank1 = mesh.pop().expect("two endpoints");
    let mut rank0 = mesh.pop().expect("two endpoints");
    let page = vec![1.0f64; 256];
    let serve = |page: &Vec<f64>| page.clone();
    let peer_page = page.clone();
    let peer = std::thread::spawn(move || {
        for _ in 0..STEPS {
            rank1.exchange(&[(0, vec![(0, 0)])], true, |_, _| serve(&peer_page));
        }
    });
    let (_, secs) = timed(|| {
        for _ in 0..STEPS {
            black_box(rank0.exchange(&[(1, vec![(0, 0)])], true, |_, _| serve(&page)));
        }
    });
    peer.join().expect("the peer rank ran to completion");
    values.push(("runtime.comm.page_roundtrip_us", secs * 1e6 / STEPS as f64));
}

// ------------------------------------------------------------ L4 and L5 --

/// One-worker config, otherwise default (retention off: see `drive::Host`).
fn one_worker() -> ServiceConfig {
    ServiceConfig::default().with_workers(1).with_report_retention(false)
}

/// What one service job cost, as the client and as the report see it.
struct ServiceJob {
    wall_s: f64,
    queue_wait_s: f64,
    resolve_s: f64,
    checksum: f64,
}

/// Submit → wait through `submit`.
fn service_job(submit: impl FnOnce() -> JobHandle) -> ServiceJob {
    let start = Instant::now();
    let report = submit().wait().expect("the ledger's job runs");
    ServiceJob {
        wall_s: start.elapsed().as_secs_f64(),
        queue_wait_s: report.queue_wait.as_secs_f64(),
        resolve_s: report.resolve_time.as_secs_f64(),
        checksum: report.checksum,
    }
}

// ------------------------------------------------------------- the ledger --

/// Re-execute `kind` at every layer boundary.  The layers run round-robin,
/// `reps` rounds, so a box that drifts during the run moves every layer of a
/// round together; each layer then reports the fastest of its rounds.  Every
/// replay's checksum is held to `reference`.
pub fn run(kind: &Kind, reference: f64, reps: usize, epoch: Instant, next_id: &mut u64) -> Ledger {
    let spec = &kind.spec;
    let extent = Extent::new2d(spec.block.min(spec.region.nx), spec.block.min(spec.region.ny));
    let artifact = spec.program.compile(extent, OptLevel::Full);
    let job: Box<dyn FamilyJob + '_> = match &spec.program {
        FamilyProgram::Stencil(program) => Box::new(StencilJob {
            program,
            spec,
            compiled: CompiledKernel::compile(program, extent, OptLevel::Full),
            plans: Arc::new(PlanCache::new(8, 64)),
        }),
        FamilyProgram::UsGrid(_) => {
            let kernel =
                artifact.as_usgrid().expect("a usgrid program compiles to a usgrid kernel");
            Box::new(UsGridJob {
                spec,
                system: UsGridSystem::with_block_size(spec.region, spec.block, GridLayout::CaseC),
                update: UsUpdate(kernel.update_fn(spec.params[0], spec.params[1])),
            })
        }
        FamilyProgram::Particle(_) => {
            let count = spec.particles.expect("particle kinds carry their count");
            let kernel =
                artifact.as_particle().expect("a particle program compiles to a particle kernel");
            Box::new(ParticleJob {
                spec,
                system: ParticleSystem::paper(ParticleSize::new(count)),
                law: PairForce(kernel.pair_law(spec.params[0])),
            })
        }
    };

    let mut rec = Recorder { epoch, next_id, spans: Vec::new() };
    let mut mismatches = 0u64;
    let mut verify = |what: &str, got: f64| {
        if !agrees(got, reference) {
            eprintln!("ledger: {what} of {} gave {got}, reference {reference}", kind.label);
            mismatches += 1;
        }
    };

    // Warm everything that has a cold first run.
    let service = KernelService::new(one_worker());
    let session = service.open_session(SessionSpec::tenant("ledger"));
    let on_service = || service_job(|| service.submit(session, spec.clone()).expect("admitted"));
    job.execute(true);
    on_service();
    on_service();

    let (mut l0, mut l1, mut l3, mut l3_bare, mut pass, mut closure) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut replays, mut l4) = (Vec::new(), Vec::new());
    let mut report = None;
    for _ in 0..reps.max(1) {
        l0.push(rec.step("ledger.L0.baselines", || crate::reference::run_once(kind)).1);
        l1.push(rec.step("ledger.L1.kernel", || job.raw_sweeps()).0);
        replays.push(rec.step("ledger.L2.env", || job.replay()).0);
        let ((rep, sum, pass_s), secs) = rec.step("ledger.L3.runtime", || job.execute(true));
        verify("L3 runtime::execute", sum);
        report = Some(rep);
        l3.push(secs);
        pass.push(pass_s);
        l3_bare.push(timed(|| job.execute(false)).1);
        closure.extend(job.closure_path());
        l4.push(rec.step("ledger.L4.service", on_service).0);
    }
    let report = report.expect("at least one round");
    let replay = Replay::fastest_of(&replays);
    verify("L2 env replay", replay.checksum);
    verify("L4 KernelService", l4.last().expect("at least one round").checksum);
    let (l0_s, l1_s, l3_s, l3_bare_s) =
        (fastest(&l0), fastest(&l1), fastest(&l3), fastest(&l3_bare));
    let over_l4 = |f: fn(&ServiceJob) -> f64| fastest(&l4.iter().map(f).collect::<Vec<_>>());
    let l4_s = over_l4(|j| j.wall_s);

    // L5, paired with L4 jobs so both see the same box: fresh 2-node
    // clusters, the job submitted on the node that does not own its plan, so
    // each cluster's first job resolves by fetch.
    const CLUSTERS: usize = 3;
    let (mut l5, mut l4_paired, mut cold) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..CLUSTERS {
        let cluster = ClusterService::new(2, one_worker());
        let visitor = 1 - plan_owner_among(spec, &[0, 1]);
        let visit = cluster.open_session_on(visitor, SessionSpec::tenant("ledger"));
        let on_cluster = || service_job(|| cluster.submit(visit, spec.clone()).expect("admitted"));
        cold.push(on_cluster().resolve_s);
        on_cluster();
        for _ in 0..reps.div_ceil(CLUSTERS) {
            l4_paired.push(on_service().wall_s);
            let remote = rec.step("ledger.L5.cluster", on_cluster).0;
            verify("L5 ClusterService", remote.checksum);
            l5.push(remote.wall_s);
        }
        cluster.shutdown();
    }
    service.shutdown();

    let updates = kind.updates as f64;
    let sweep_updates = updates / spec.steps as f64 * (spec.steps + 1) as f64;
    let per = |secs: f64, count: u64| if count == 0 { 0.0 } else { secs * 1e9 / count as f64 };
    let counters = report.total_counters();
    let mut values: Values = vec![
        ("baselines.updates_per_s", updates / l0_s),
        ("kernel.execute_block.updates_per_s", sweep_updates / l1_s),
        ("env.build_ms", replay.build_s * 1e3),
        ("env.init_ns_per_cell", per(replay.init_s, replay.cells)),
        ("env.gather_ns_per_cell", per(replay.gather_s, replay.gathers)),
        ("env.halo_ns_per_read", per(replay.halo_s, replay.halo_reads)),
        (
            "env.search_nodes_per_halo_read",
            replay.search_nodes as f64 / replay.halo_reads.max(1) as f64,
        ),
        ("env.scatter_ns_per_cell", per(replay.scatter_s, replay.scatters)),
        ("env.refresh_us_per_step", replay.refresh_s * 1e6 / spec.steps as f64),
        ("env.working_bytes", replay.working_bytes as f64),
        ("mem.page_extract_install_ns", replay.page_roundtrip_s * 1e9),
        ("aop.dispatches_per_job", report.dispatches as f64),
        ("runtime.execute_ms", l3_s * 1e3),
        ("runtime.tax_ms", (l3_s - l1_s) * 1e3),
        ("runtime.finalize_sink_ms", ((l3_s - l3_bare_s).max(0.0) + fastest(&pass)) * 1e3),
        ("runtime.reads_per_update", counters.reads as f64 / updates),
        ("runtime.writes_per_update", counters.writes as f64 / updates),
        ("runtime.allocs_per_job", aohpc_testalloc::count_in(|| job.execute(true)).1 as f64),
        ("runtime.comm.pages_per_step", report.total_pages_sent() as f64 / spec.steps as f64),
        ("runtime.comm.bytes_per_step", report.total_bytes_sent() as f64 / spec.steps as f64),
        ("service.tax_ms", (l4_s - l3_s) * 1e3),
        ("service.cluster.tax_ms", (fastest(&l5) - fastest(&l4_paired)) * 1e3),
        ("service.cluster.cold_resolve_us_p50", median(&cold) * 1e6),
    ];
    // Two paths exist only for the stencil family; the others report the one
    // they have.
    match closure.is_empty() {
        false => values
            .extend([("dsl.closure_path_x", fastest(&closure) / l3_s), ("dsl.execute_ms", 0.0)]),
        true => values.extend([("dsl.closure_path_x", 0.0), ("dsl.execute_ms", l3_s * 1e3)]),
    }
    job.kernel_values(reps, sweep_updates, &mut values);
    compile_probes(spec, &mut values);
    cache_probes(spec, &mut values);
    dispatch_probe(&mut values);
    pool_probe(&mut values);
    comm_probe(&mut values);

    // Bottom-up parts against the top-down job wall.
    let named_s = replay.build_s
        + replay.init_s
        + replay.sweeps_s
        + replay.refresh_s
        + replay.sink_s
        + replay.checksum_s
        + over_l4(|j| j.queue_wait_s)
        + over_l4(|j| j.resolve_s);
    values.push(("ledger.named_parts_ms", named_s * 1e3));
    values.push(("ledger.residual_pct", (l4_s - named_s) / l4_s * 100.0));

    eprintln!(
        "ledger {}: L0 {:.3} ms | L1 {:.3} | L2 build {:.3} init {:.3} sweeps {:.3} (apart: gather {:.3} halo {:.3} law {:.3} scatter {:.3}) refresh {:.3} sink {:.3} checksum {:.3} | L3 {:.3} (no sink {:.3}) | L4 {:.3} | L5 {:.3}",
        kind.label,
        l0_s * 1e3,
        l1_s * 1e3,
        replay.build_s * 1e3,
        replay.init_s * 1e3,
        replay.sweeps_s * 1e3,
        replay.gather_s * 1e3,
        replay.halo_s * 1e3,
        replay.law_s * 1e3,
        replay.scatter_s * 1e3,
        replay.refresh_s * 1e3,
        replay.sink_s * 1e3,
        replay.checksum_s * 1e3,
        l3_s * 1e3,
        l3_bare_s * 1e3,
        l4_s * 1e3,
        fastest(&l5) * 1e3,
    );
    Ledger { values, spans: rec.spans, mismatches }
}
