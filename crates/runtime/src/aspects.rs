//! The two prototype aspect modules: the distributed-memory (MPI-like) layer
//! and the shared-memory (OpenMP-like) layer.
//!
//! Each module packages the three advice groups of §III-B7:
//!
//! * **AspectType I — control of the runtime and tasks.**  The distributed
//!   module brackets `Program::main` with runtime initialisation /
//!   finalisation and spawns one task (rank) per unit of parallelism; the
//!   shared module starts its worker tasks around `Annotation::Processing`.
//! * **AspectType II — assigning Blocks to tasks.**  The shared module
//!   divides the blocks allocated by the upper layer (the rank) among its
//!   threads at the `Memory::get_blocks` join point.  (Rank-level assignment
//!   is done by Z-order in the DSL layer, as in §IV-C of the paper.)
//! * **AspectType III — communication of data between tasks.**  The
//!   distributed module intercepts `Memory::refresh`, fetches the recorded
//!   non-existent pages from the ranks holding the latest data, and applies
//!   the Dry-run prefetch plan.  The shared module has no such advice (shared
//!   memory), exactly as in the paper; it only contributes the barrier that
//!   makes `refresh` collective within a rank.
//!
//! Because an aspect module is written once against the platform's join
//! points, the *same* `MpiAspect`/`OmpAspect` instances parallelise all three
//! sample DSLs (structured grid, unstructured grid, particle) without change
//! — the property the paper calls reusability of the optimisation codes.

use crate::comm::Communicator;
use crate::ctx::{GetBlocksPayload, MainPayload, ProcessingPayload, RefreshPayload};
use aohpc_aop::{Advice, AdviceBinding, Aspect, Pointcut, GET_BLOCKS, MAIN, PROCESSING, REFRESH};
use aohpc_env::{BlockId, Cell};
use aohpc_mem::PageId;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;

/// The distributed-memory layer module (the paper's MPI aspect).
pub struct MpiAspect<C> {
    _cell: PhantomData<fn() -> C>,
}

impl<C> Default for MpiAspect<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> MpiAspect<C> {
    /// Create the module.
    pub fn new() -> Self {
        MpiAspect { _cell: PhantomData }
    }
}

impl<C: Cell> Aspect for MpiAspect<C> {
    fn name(&self) -> &str {
        "layer::distributed(mpi-like)"
    }

    /// The distributed layer is the *upper* layer, but at the `refresh` join
    /// point its advice must run *inside* the shared layer's barrier (one
    /// exchange per rank, performed by the rank's master task), so it gets a
    /// larger precedence value (= inner position) than [`OmpAspect`].
    fn precedence(&self) -> i32 {
        20
    }

    fn bindings(&self) -> Vec<AdviceBinding> {
        vec![
            // AspectType I: initialise/finalise the runtime around the entry
            // point and start one task per rank.
            AdviceBinding::new(
                Pointcut::execution(MAIN),
                Advice::around(|ctx, proceed| {
                    let p = match ctx.payload_mut::<MainPayload<C>>() {
                        Some(p) => p,
                        None => {
                            proceed(ctx);
                            return;
                        }
                    };
                    let ranks = p.ranks;
                    let run = p.run_rank.clone();
                    let log = p.runtime_log.clone();
                    log.lock().push(format!("mpi:init(ranks={ranks})"));
                    if ranks <= 1 {
                        proceed(ctx);
                    } else {
                        let comms = Communicator::<C>::mesh(ranks);
                        std::thread::scope(|s| {
                            for (rank, comm) in comms.into_iter().enumerate() {
                                let run = run.clone();
                                s.spawn(move || run(rank, Some(comm)));
                            }
                        });
                    }
                    log.lock().push("mpi:finalize".to_string());
                }),
            ),
            // AspectType III: page communication + Dry-run at refresh.
            //
            // Structure of one collective refresh (a superstep across ranks):
            //   1. merge this task's missing pages into the rank list and let
            //      the original refresh judge *local* success (no rotation);
            //   2. all-reduce the success flags — only if *every* rank
            //      succeeded does simulated time advance;
            //   3. on global success, rotate the owned buffers and invalidate
            //      the locally cached remote pages (they now describe the
            //      previous step);
            //   4. exchange pages: the newly recorded non-existent pages plus,
            //      with Dry-run enabled, everything in the memorised plan, so
            //      that the next step finds its remote data already present.
            AdviceBinding::new(
                Pointcut::call(REFRESH),
                Advice::around(|ctx, proceed| {
                    let (shared, env, warmup) = match ctx.payload_mut::<RefreshPayload<C>>() {
                        Some(p) => {
                            p.shared.merge_missing(&p.local_missing);
                            p.local_missing.clear();
                            p.defer_swap = true;
                            (p.shared.clone(), p.env.clone(), p.warmup)
                        }
                        None => {
                            proceed(ctx);
                            return;
                        }
                    };

                    proceed(ctx);

                    let p = ctx.payload_mut::<RefreshPayload<C>>().expect("RefreshPayload");
                    let local_success = p.success;
                    let dm_task = shared.topology.rank_master_task(shared.rank);

                    let comm = match shared.comm.as_ref() {
                        Some(c) => c,
                        None => {
                            // Single-rank run: behave like the original refresh.
                            if local_success && !warmup {
                                env.swap_owned_buffers(dm_task);
                            }
                            return;
                        }
                    };
                    let mut comm = comm.lock();

                    // (2) Global success decision.
                    let global_success = comm.allreduce_and(local_success);

                    // (3) Advance time: publish own buffers, retire cached
                    // copies of other ranks' data.
                    if global_success && !warmup {
                        env.swap_owned_buffers(dm_task);
                        let threads = shared.topology.threads_per_rank();
                        for bid in env.buffer_block_ids() {
                            let owner_rank =
                                env.block(bid).meta.dm_tid().map(|t| t / threads.max(1));
                            if owner_rank != Some(shared.rank) {
                                let _ = env.set_block_valid(bid, false);
                            }
                        }
                    }

                    // (4) Page exchange.
                    let new_missing = shared.take_missing();
                    let mut wanted: Vec<(BlockId, PageId)> = new_missing.clone();
                    if shared.dry_run {
                        for entry in shared.plan_snapshot() {
                            if !wanted.contains(&entry) {
                                wanted.push(entry);
                            }
                        }
                    }
                    let threads = shared.topology.threads_per_rank();
                    let mut by_rank: HashMap<usize, Vec<(BlockId, PageId)>> = HashMap::new();
                    for (bid, page) in wanted {
                        let owner_master = match env.block(bid).meta.dm_tid() {
                            Some(t) => t,
                            None => continue,
                        };
                        let owner_rank = owner_master / threads.max(1);
                        if owner_rank != shared.rank {
                            by_rank.entry(owner_rank).or_default().push((bid, page));
                        }
                    }
                    let requests: Vec<(usize, Vec<(BlockId, PageId)>)> =
                        by_rank.into_iter().collect();

                    let env_for_serve = env.clone();
                    let (pages, _) = comm.exchange(&requests, local_success, move |block, page| {
                        env_for_serve.extract_page(block, page).unwrap_or_default()
                    });
                    drop(comm);
                    for page in pages {
                        let _ = env.install_page(page.block, page.page, &page.cells);
                    }

                    // Dry-run bookkeeping: remember what had to be fetched.
                    if shared.dry_run && !new_missing.is_empty() {
                        shared.extend_plan(new_missing);
                    }

                    p.success = global_success;
                }),
            ),
        ]
    }
}

/// The shared-memory layer module (the paper's OpenMP aspect).
pub struct OmpAspect<C> {
    _cell: PhantomData<fn() -> C>,
}

impl<C> Default for OmpAspect<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> OmpAspect<C> {
    /// Create the module.
    pub fn new() -> Self {
        OmpAspect { _cell: PhantomData }
    }
}

impl<C: Cell> Aspect for OmpAspect<C> {
    fn name(&self) -> &str {
        "layer::shared(openmp-like)"
    }

    /// Outer position at shared join points (its barrier must wrap the
    /// distributed layer's communication at `refresh`).
    fn precedence(&self) -> i32 {
        10
    }

    fn bindings(&self) -> Vec<AdviceBinding> {
        vec![
            // AspectType I: start the worker tasks around Processing.
            AdviceBinding::new(
                Pointcut::execution(PROCESSING),
                Advice::around(|ctx, proceed| {
                    let p = match ctx.payload_mut::<ProcessingPayload>() {
                        Some(p) => p,
                        None => {
                            proceed(ctx);
                            return;
                        }
                    };
                    let threads = p.threads;
                    let run = p.run_thread.clone();
                    let log = p.runtime_log.clone();
                    log.lock().push(format!("omp:spawn(threads={threads})"));
                    if threads <= 1 {
                        proceed(ctx);
                    } else {
                        std::thread::scope(|s| {
                            for t in 1..threads {
                                let run = run.clone();
                                s.spawn(move || run(t));
                            }
                            // Thread 0's work runs through the original body on
                            // the current thread.
                            proceed(ctx);
                        });
                    }
                    log.lock().push("omp:join".to_string());
                }),
            ),
            // AspectType II: divide the rank's blocks among the threads.
            AdviceBinding::new(
                Pointcut::call(GET_BLOCKS),
                Advice::around(|ctx, proceed| {
                    proceed(ctx);
                    if let Some(p) = ctx.payload_mut::<GetBlocksPayload>() {
                        if p.threads > 1 {
                            let total = p.blocks.len();
                            let per = total.div_ceil(p.threads);
                            let start = (p.thread * per).min(total);
                            let end = ((p.thread + 1) * per).min(total);
                            p.blocks = p.blocks[start..end].to_vec();
                        }
                    }
                }),
            ),
            // Refresh must be collective within the rank: all threads finish
            // the step, then the master publishes the buffers (and, woven
            // together with the distributed module, performs the exchange).
            AdviceBinding::new(
                Pointcut::call(REFRESH),
                Advice::around(|ctx, proceed| {
                    let (shared, thread, threads) = match ctx.payload_mut::<RefreshPayload<C>>() {
                        Some(p) => {
                            p.shared.merge_missing(&p.local_missing);
                            p.local_missing.clear();
                            (p.shared.clone(), p.slot.thread, p.threads)
                        }
                        None => {
                            proceed(ctx);
                            return;
                        }
                    };
                    if threads <= 1 {
                        proceed(ctx);
                        return;
                    }
                    shared.barrier.wait();
                    if thread == 0 {
                        proceed(ctx);
                        let p = ctx.payload_mut::<RefreshPayload<C>>().expect("RefreshPayload");
                        shared.last_success.store(p.success, Ordering::Release);
                    }
                    shared.barrier.wait();
                    let p = ctx.payload_mut::<RefreshPayload<C>>().expect("RefreshPayload");
                    p.success = shared.last_success.load(Ordering::Acquire);
                }),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aohpc_aop::{JoinPointKind, Weaver};

    #[test]
    fn aspect_names_and_precedence() {
        let mpi = MpiAspect::<f64>::new();
        let omp = OmpAspect::<f64>::new();
        assert!(mpi.name().contains("distributed"));
        assert!(omp.name().contains("shared"));
        assert!(omp.precedence() < mpi.precedence(), "shared layer wraps distributed at refresh");
    }

    #[test]
    fn mpi_module_advises_main_and_refresh_only() {
        let woven = Weaver::new().with_aspect(Box::new(MpiAspect::<f64>::new())).weave();
        assert_eq!(woven.matching_advice_count(MAIN, JoinPointKind::Execution), 1);
        assert_eq!(woven.matching_advice_count(REFRESH, JoinPointKind::Call), 1);
        assert_eq!(woven.matching_advice_count(PROCESSING, JoinPointKind::Execution), 0);
        assert_eq!(woven.matching_advice_count(GET_BLOCKS, JoinPointKind::Call), 0);
    }

    #[test]
    fn omp_module_advises_processing_get_blocks_refresh() {
        let woven = Weaver::new().with_aspect(Box::new(OmpAspect::<f64>::new())).weave();
        assert_eq!(woven.matching_advice_count(PROCESSING, JoinPointKind::Execution), 1);
        assert_eq!(woven.matching_advice_count(GET_BLOCKS, JoinPointKind::Call), 1);
        assert_eq!(woven.matching_advice_count(REFRESH, JoinPointKind::Call), 1);
        assert_eq!(woven.matching_advice_count(MAIN, JoinPointKind::Execution), 0);
    }

    #[test]
    fn both_modules_compose_in_one_weave() {
        let woven = Weaver::new()
            .with_aspect(Box::new(MpiAspect::<f64>::new()))
            .with_aspect(Box::new(OmpAspect::<f64>::new()))
            .weave();
        // refresh is advised by both layers.
        assert_eq!(woven.matching_advice_count(REFRESH, JoinPointKind::Call), 2);
        let report = woven.report();
        assert_eq!(report.active_aspects().len(), 2);
    }

    #[test]
    fn advice_with_wrong_payload_falls_through() {
        // Robustness: dispatching an advised join point with an unexpected
        // payload type must still run the body.
        let woven = Weaver::new().with_aspect(Box::new(MpiAspect::<f64>::new())).weave();
        let mut payload = 123u32;
        let mut ran = false;
        woven.dispatch_with(MAIN, JoinPointKind::Execution, &[], &mut payload, &mut |_| ran = true);
        assert!(ran);
    }
}
