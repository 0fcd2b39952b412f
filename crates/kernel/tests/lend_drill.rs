//! The lock rule for a lent block.  `TaskCtx::with_block` holds the block's
//! write guard while the block routine computes, and that guard is not
//! reentrant, so a routine reads its halo before it borrows the block.  The
//! drill: a Reference catch-all maps the whole halo ring back into the
//! block itself, and each product block routine — the stencil's and the
//! particle family's — sweeps twice on a thread with a timeout: the first
//! sweep resolves the block's ring plans, the second reads through them,
//! each landing already resolved, so the ring's reads go straight to the
//! catch-all and through it back into the block.  The stencil's block is
//! also lent in a ghost frame as wide as its program reaches, where the
//! routine places the ring it read in the frame and runs in place.  It must
//! finish with exactly the values and counters of the copying path, also
//! with a writer
//! queued at the block in the middle of the second sweep's ring (the
//! vendored `RwLock` is `std`'s, which prefers writers: a guard kept on the
//! block across a ring read would block behind it for good).

use aohpc_aop::WovenProgram;
use aohpc_dsl::{Bucket, ParticleBlockApp, ParticleSystem};
use aohpc_env::{AccessCounters, BlockId, BlockKind, Cell, Env, EnvBuilder, Extent, GlobalAddress};
use aohpc_kernel::{IrStencilApp, OptLevel, ParticleKernel, ParticleProgram, StencilProgram};
use aohpc_mem::PoolHandle;
use aohpc_runtime::{BlockSweep, HpcApp, RankShared, TaskCtx, Topology};
use aohpc_workloads::ParticleSize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How the block is read.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Path {
    /// Wholly valid: `with_block` lends it.
    Lent,
    /// Every page valid but the block not marked wholly valid:
    /// `with_block` copies it in and out instead (same values).
    Copied,
}

/// The thread of a writer waiting to be let at the block, if there is one.
type Writer = Option<std::thread::JoinHandle<()>>;

/// One 4×4 Data block framed `frame` wide, owned by task 0, and a Reference
/// catch-all that maps
/// every address outside it to the nearest cell of the block.  At its
/// second mapping once armed (the flag returned), the catch-all lets a
/// writer at the block run, when there is one, and waits up to two seconds
/// for it to finish.
fn mirror_env<C: Cell>(
    writer: bool,
    frame: usize,
) -> (Arc<Env<C>>, BlockId, Arc<AtomicBool>, Writer) {
    let armed = Arc::new(AtomicBool::new(false));
    let calls = AtomicUsize::new(0);
    let written = Arc::new(AtomicBool::new(!writer));
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_tx = Mutex::new(release_tx);
    let mirror = {
        let (armed, written) = (Arc::clone(&armed), Arc::clone(&written));
        move |a: GlobalAddress| {
            if writer && armed.load(SeqCst) && calls.fetch_add(1, SeqCst) == 1 {
                release_tx.lock().unwrap().send(()).expect("the writer is waiting for this");
                let deadline = Instant::now() + Duration::from_secs(2);
                while !written.load(SeqCst) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            }
            GlobalAddress::new2d(a.x.clamp(0, 3), a.y.clamp(0, 3))
        }
    };
    let mut b = EnvBuilder::<C>::new(PoolHandle::unbounded(), 4).with_frame(frame);
    let root = b.add_empty(None);
    let joint = b.add_empty(Some(root));
    let block = b.add_data(joint, GlobalAddress::new2d(0, 0), Extent::new2d(4, 4), 0).unwrap();
    b.add_reference(root, block, Arc::new(mirror), true);
    let env = Arc::new(b.build());
    env.block(block).meta.set_dm_tid(Some(0));
    let writer = writer.then(|| {
        let env = Arc::clone(&env);
        std::thread::spawn(move || {
            release_rx.recv().expect("the ring reaches its second cell");
            let BlockKind::Data(buf) = &env.block(block).kind else { unreachable!() };
            drop(buf.write());
            written.store(true, SeqCst);
        })
    });
    (env, block, armed, writer)
}

/// Run `make()`'s sweep twice over the mirror block framed `frame` wide, on
/// its own thread, arming the writer between the two: the block's values
/// after the second sweep and the task's counters.  The second sweep runs
/// no search.
fn run_sweeps<A, F>(
    make: F,
    path: Path,
    writer: bool,
    frame: usize,
) -> (Vec<A::Cell>, AccessCounters)
where
    A: BlockSweep,
    A::Cell: Send + 'static,
    F: FnOnce() -> A + Send + 'static,
{
    let (done_tx, done_rx) = mpsc::channel();
    let task = std::thread::spawn(move || {
        let (env, block, armed, writer) = mirror_env::<A::Cell>(writer, frame);
        let topology = Topology::serial();
        let shared = Arc::new(RankShared::new(topology.clone(), 0, None, true));
        let slot = topology.slot(0, 0);
        let mut ctx =
            TaskCtx::new(slot, Arc::clone(&env), shared, Some(WovenProgram::unwoven()), false);
        let mut app = make();
        app.initialize(&mut ctx);
        env.set_block_valid(block, path == Path::Lent).unwrap();
        if path == Path::Copied {
            for page in 0..env.num_pages(block).unwrap() {
                let payload = env.extract_page(block, page).unwrap();
                env.install_page(block, page, &payload).unwrap();
            }
            env.block(block).meta.set_valid(false);
        }
        assert!(app.kernel(&mut ctx, false), "{path:?}: the first sweep");
        let resolved = ctx.state.counters.env_searches;
        assert!(resolved > 0, "{path:?}: the first sweep resolves the ring");
        armed.store(true, SeqCst);
        assert!(app.kernel(&mut ctx, false), "{path:?}: the second sweep");
        assert_eq!(ctx.state.counters.env_searches, resolved, "{path:?}: a planned read");
        assert!(!ctx.state.has_missing(), "{path:?}: every page is valid");
        let BlockKind::Data(buf) = &env.block(block).kind else { unreachable!() };
        let guard = buf.read();
        let next = guard.frame().rows(guard.read_buf()).flatten().cloned().collect();
        drop(guard);
        done_tx.send((next, ctx.state.counters)).expect("the test is waiting");
        if let Some(writer) = writer {
            writer.join().unwrap();
        }
    });
    let got = done_rx.recv_timeout(Duration::from_secs(30)).unwrap_or_else(|_| {
        panic!("{path:?}, writer {writer}: the block routine must not deadlock")
    });
    task.join().unwrap();
    got
}

#[test]
fn the_stencil_block_routine_reads_its_ring_before_it_borrows_the_block() {
    for program in [StencilProgram::jacobi_5pt(), StencilProgram::smooth_9pt()] {
        let make = {
            let program = program.clone();
            move || IrStencilApp::new(program, vec![0.5, 0.125], 2)
        };
        let copied = run_sweeps(make.clone(), Path::Copied, false, 0);
        for (writer, frame) in [(false, 0), (true, 0), (false, 1), (true, 1)] {
            let lent = run_sweeps(make.clone(), Path::Lent, writer, frame);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let what = format!("{} writer {writer} frame {frame}", program.name());
            assert_eq!(bits(&lent.0), bits(&copied.0), "{what}");
            assert_eq!(lent.1, copied.1, "{what}");
        }
    }
}

#[test]
fn the_particle_block_routine_reads_its_ring_before_it_borrows_the_block() {
    let program = ParticleProgram::pair_sweep();
    let kernel = ParticleKernel::compile(&program, Extent::new2d(4, 4), OptLevel::Full);
    let law = kernel.law(1.0);
    let system = ParticleSystem::paper(ParticleSize::new(40));
    let make = move || ParticleBlockApp::new(system, law, 2);
    let copied: (Vec<Bucket>, _) = run_sweeps(make.clone(), Path::Copied, false, 0);
    assert!(copied.0.iter().any(|b| b.count > 0), "some particles move");
    for writer in [false, true] {
        let lent = run_sweeps(make.clone(), Path::Lent, writer, 0);
        assert_eq!(lent, copied, "writer {writer}");
    }
}
