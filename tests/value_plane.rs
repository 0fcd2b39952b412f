//! The usgrid service path against its paper-fidelity reference.
//!
//! `UsGridJacobiApp` is Fig. 5b as drawn: an `Env<UsCell>` whose cells store
//! their neighbours' addresses beside their value.  What `KernelService` runs
//! for a usgrid job is the program lowered to its stencil
//! (`UsGridProgram::to_stencil`) and run by `IrStencilApp` on the value plane
//! (`UsGridValueSystem`, values only).  Where points stay in place (CaseC) the
//! two are the same mathematics, so:
//!
//! * the fields agree bit for bit by storage address under every topology,
//!   with MMAT off and on, on a ragged tiling; the stencil reads each point
//!   once and each halo-ring cell once a sweep, and its counters and MMAT
//!   memo are pinned;
//! * a program with another neighbour list runs as written: eight
//!   neighbours, or the stock four in another order, through `KernelService`
//!   equal a dense double-buffered loop over the program's offsets, where a
//!   read outside the domain yields the boundary value — and so do random
//!   programs (any 1–16 offsets of span ≤ 8, duplicates and the point itself
//!   included, weights of either sign, ragged regions, both optimization
//!   levels) on one rank and on two.

use aohpc::env::AccessCounters;
use aohpc_suite::prelude::*;
use aohpc_suite::{ExecutionMode, Platform};
use proptest::collection;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const STEPS: usize = 3;
const BLOCK: usize = 8;
/// 20 x 12 in blocks of 8: the right-hand tiles are 4 wide, the bottom ones
/// 4 tall.
const REGION: RegionSize = RegionSize { nx: 20, ny: 12 };
const TOPOLOGIES: [(usize, usize); 4] = [(1, 1), (2, 1), (1, 2), (2, 2)];
const WEIGHTS: (f64, f64) = (0.5, 0.125);

fn mode(ranks: usize, threads: usize) -> ExecutionMode {
    match (ranks, threads) {
        (1, 1) => ExecutionMode::PlatformNop,
        (_, 1) => ExecutionMode::PlatformMpi { ranks },
        (1, _) => ExecutionMode::PlatformOmp { threads },
        _ => ExecutionMode::PlatformHybrid { ranks, threads },
    }
}

/// What a run leaves: the field's bits by storage address `(y, x)`, and each
/// task's counters and memo `(mmat_entries, mmat_hits)`, in task order.
type Outcome = (BTreeMap<(i64, i64), u64>, Vec<(AccessCounters, usize, u64)>);

fn run<S, A>(
    platform: &Platform,
    system: S,
    app: Arc<dyn Fn(TaskSlot) -> A + Send + Sync>,
    sink: &FieldSink,
) -> Outcome
where
    S: DslSystem + 'static,
    A: HpcApp<S::Cell> + 'static,
{
    let report = platform.run_system(Arc::new(system), app).report;
    assert!(report.tasks.iter().all(|t| t.steps == STEPS as u64));
    let field = sink.lock().iter().map(|(at, v)| ((at.y, at.x), v.to_bits())).collect();
    let mut tasks: Vec<_> = report.tasks.iter().collect();
    tasks.sort_by_key(|t| t.slot.task_id);
    (field, tasks.into_iter().map(|t| (t.counters, t.mmat_entries, t.mmat_hits)).collect())
}

/// What the service runs for `program`: its stencil, by the IR app.
fn lowered_app(program: &UsGridProgram, sink: &FieldSink) -> IrStencilApp {
    IrStencilApp::new(program.to_stencil(), vec![WEIGHTS.0, WEIGHTS.1], STEPS)
        .with_field_sink(sink.clone())
}

/// Halo-ring cells a sweep of a 4-neighbour program: each block's four
/// edges, `2 (w + h)`, over the 3 x 2 tiles of 8/8/4 by 8/4 —
/// `2 x (2 x 20 + 3 x 12)` = 152.
const RING_4: u64 = 152;

#[test]
fn value_plane_matches_the_reference_app_in_bits_counters_and_memo() {
    let system = UsGridSystem::with_block_size(REGION, BLOCK, GridLayout::CaseC);
    // Each task's memo with MMAT on, `(mmat_entries, mmat_hits)`: an entry for
    // each ring cell of its blocks, a hit for each later sweep's read of it.
    // The ring of an 8x8 tile is 32, of 4x8 and 8x4 24, of 4x4 16.  One task
    // owns all six tiles: 152 entries, x 2 later sweeps = 304 hits.  Two
    // ranks sweep 4 times: the top row of tiles (32 + 32 + 24 = 88) and the
    // bottom (24 + 24 + 16 = 64), x 3.  Two threads split a rank's row: 8x8
    // + 8x8 | 4x8, 8x4 + 8x4 | 4x4.
    let memos: [&[(usize, u64)]; 4] = [
        &[(152, 304)],
        &[(88, 264), (64, 192)],
        &[(88, 176), (64, 128)],
        &[(64, 192), (24, 72), (48, 144), (16, 48)],
    ];
    for ((ranks, threads), memo) in TOPOLOGIES.into_iter().zip(memos) {
        for mmat in [false, true] {
            let at = format!("{ranks}x{threads} mmat={mmat}");
            let platform = Platform::new(mode(ranks, threads)).with_mmat(mmat);

            let sink = new_field_sink();
            let reference = UsGridJacobiApp::new(system.clone(), STEPS).with_sink(sink.clone());
            let reference = run(&platform, system.clone(), reference.factory(), &sink);

            let sink = new_field_sink();
            let product = lowered_app(&UsGridProgram::jacobi4(), &sink);
            let product =
                run(&platform, UsGridValueSystem(system.clone()), product.factory(), &sink);

            assert_eq!(reference.0.len(), REGION.cells(), "{at}: a value a point");
            assert_eq!(product.0, reference.0, "{at}: field bits by storage address");
            assert_eq!(product.1.len(), ranks * threads, "{at}: tasks");

            // A sweep reads the 240 points once (a hinted slab a block) and
            // the 152 ring cells once (a run an edge), all off their block:
            // above the domain (20) and either side of it (2 x 12) the
            // catch-all's, below it the static row's (20).
            let mut total = AccessCounters::default();
            for task in &product.1 {
                total.merge(&task.0);
            }
            let sweeps = (STEPS + usize::from(ranks > 1)) as u64;
            let cells = REGION.cells() as u64;
            assert_eq!(
                (total.reads, total.skip_search_hits, total.out_of_block_reads),
                (sweeps * (cells + RING_4), sweeps * cells, sweeps * RING_4),
                "{at}: (reads, own, ring) — one read a point and one a ring cell"
            );
            // Two ranks: the warm-up reads the 20 ring cells each side of the
            // ranks' border before their pages arrive.
            assert_eq!(
                (total.arithmetic_reads, total.static_reads, total.missing_accesses),
                (sweeps * 44, sweeps * 20, if ranks > 1 { 40 } else { 0 }),
                "{at}: (arithmetic, static, missing) reads"
            );
            let got: Vec<_> = product.1.iter().map(|t| (t.1, t.2)).collect();
            let want = if mmat { memo.to_vec() } else { vec![(0, 0); ranks * threads] };
            assert_eq!(got, want, "{at}: (mmat_entries, mmat_hits) a task");
        }
    }
}

/// `steps` double-buffered sweeps over `region` of `alpha * me + beta * (sum
/// over offsets, in order, from 0.0)`, `outside` wherever an offset leaves
/// the domain.
fn dense_reference(
    region: RegionSize,
    offsets: &[(i64, i64)],
    (alpha, beta): (f64, f64),
    outside: f64,
) -> Vec<f64> {
    let (nx, ny) = (region.nx as i64, region.ny as i64);
    let at = |x: i64, y: i64| (y * nx + x) as usize;
    let mut cur: Vec<f64> =
        (0..nx * ny).map(|k| UsGridJacobiApp::initial_value(k % nx, k / nx)).collect();
    let mut next = cur.clone();
    for _ in 0..STEPS {
        for (x, y) in (0..ny).flat_map(|y| (0..nx).map(move |x| (x, y))) {
            let mut sum = 0.0;
            for &(dx, dy) in offsets {
                let (px, py) = (x + dx, y + dy);
                let inside = (0..nx).contains(&px) && (0..ny).contains(&py);
                sum += if inside { cur[at(px, py)] } else { outside };
            }
            next[at(x, y)] = alpha * cur[at(x, y)] + beta * sum;
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

#[test]
fn other_neighbour_lists_run_as_written() {
    let programs = [
        // The stock four, summed S, E, N, W: another rounding.  Its ring is
        // the stock four's, 152 cells a sweep.
        ("reordered-4", vec![(0, 1), (1, 0), (0, -1), (-1, 0)], RING_4),
        // The eight around a point, corners first; a reach of 2 on one side.
        // A block's ring: the row above and the row below, corners included
        // (w + 2 each), and the columns at x = -2, -1 and w (h each) — over
        // the six tiles 2 x (2 x 20 + 6 x 2) + 3 x (3 x 12) = 212.
        ("eight", vec![(-1, -1), (1, -1), (-1, 1), (1, 1), (0, -1), (-2, 0), (1, 0), (0, 1)], 212),
    ];
    let service = KernelService::new(ServiceConfig::default().with_workers(1));
    let session = service.open_session(SessionSpec::tenant("value-plane"));
    let stock = dense_reference(REGION, UsGridProgram::jacobi4().neighbors(), WEIGHTS, 0.0);
    for (name, offsets, ring) in programs {
        let program = UsGridProgram::new(name, offsets, 2).expect("valid program");
        let dense =
            |at: &GlobalAddress, field: &[f64]| field[at.y as usize * REGION.nx + at.x as usize];

        // The direct run, cell by cell (CaseC: storage is position), with a
        // boundary value a read that found nothing could not pass for ...
        let mut system = UsGridSystem::with_block_size(REGION, BLOCK, GridLayout::CaseC);
        system.boundary_value = 0.25;
        let want = dense_reference(REGION, program.neighbors(), WEIGHTS, system.boundary_value);
        let sink = new_field_sink();
        let report = Platform::new(ExecutionMode::PlatformNop)
            .run_system(Arc::new(UsGridValueSystem(system)), lowered_app(&program, &sink).factory())
            .report;
        let deposited = sink.lock().clone();
        assert_eq!(deposited.len(), REGION.cells(), "{name}");
        for (at, v) in &deposited {
            assert_eq!(v.to_bits(), dense(at, &want).to_bits(), "{name} at ({}, {})", at.x, at.y);
        }
        // A point's own value is read once a sweep (hinted), and each ring
        // cell once — wherever the program's offsets reach, every ring read
        // leaves its block.
        let (points, counters) = (REGION.cells() as u64 * STEPS as u64, report.total_counters());
        let ring = ring * STEPS as u64;
        assert_eq!(counters.reads, points + ring, "{name}: reads");
        assert_eq!(counters.writes, points, "{name}: writes");
        assert_eq!(counters.skip_search_hits, points, "{name}: own values");
        assert_eq!(counters.out_of_block_reads, ring, "{name}: ring cells");

        // ... and the service's checksum (its boundary is 0.0), folded in the
        // order `Finalize` deposits the field, under every topology.
        let want = dense_reference(REGION, program.neighbors(), WEIGHTS, 0.0);
        assert_ne!(want, stock, "{name}: the list matters");
        let folded = checksum(deposited.iter().map(|(at, _)| dense(at, &want)));
        for (ranks, threads) in TOPOLOGIES {
            let spec = JobSpec::new(program.clone(), vec![WEIGHTS.0, WEIGHTS.1], REGION)
                .with_block(BLOCK)
                .with_steps(STEPS)
                .with_topology(Topology::hybrid(ranks, threads));
            let report = service.submit(session, spec).unwrap().wait().expect("job resolves");
            assert_eq!(report.error, None, "{name} {ranks}x{threads}");
            assert_eq!(
                report.checksum.to_bits(),
                folded.to_bits(),
                "{name} {ranks}x{threads}: vs the dense reference loop"
            );
        }
    }
}

/// The field of `region` in the order a job's `Finalize` deposits it: tile
/// by tile in Z order (the Env's data-block order), each tile row-major.
fn deposit_order(region: RegionSize, block: usize) -> Vec<(usize, usize)> {
    let (bx, by) = (region.nx.div_ceil(block), region.ny.div_ceil(block));
    let mut tiles: Vec<(usize, usize)> =
        (0..by).flat_map(|y| (0..bx).map(move |x| (x, y))).collect();
    tiles.sort_by_key(|&(x, y)| aohpc::env::morton2d(x as u32, y as u32));
    let mut order = Vec::with_capacity(region.cells());
    for (tx, ty) in tiles {
        let (xs, ys) = (
            tx * block..(tx * block + block).min(region.nx),
            ty * block..(ty * block + block).min(region.ny),
        );
        order.extend(ys.flat_map(|y| xs.clone().map(move |x| (x, y))));
    }
    order
}

/// A neighbour offset: anywhere within the span bound, or (half the time)
/// next to the point, where duplicates and the point itself come often.
fn offset() -> impl Strategy<Value = (i64, i64)> {
    prop_oneof![(-8i64..=8, -8i64..=8), (-1i64..=1, -1i64..=1)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid usgrid program, lowered and run by the service on one rank
    /// and on two (one and two threads a rank), gives the dense reference's
    /// checksum bits: 1–16 offsets of span ≤ 8 — past the block too —
    /// weights of either sign, a region of 2–3 ragged tiles a side, blocks
    /// of 2–8, at both optimization levels.
    #[test]
    fn lowered_usgrid_programs_match_the_dense_reference(
        neighbors in collection::vec(offset(), 1..=16),
        block in 2usize..=8,
        sides in (0usize..=1000, 0usize..=1000),
        alpha in -1.5f64..1.5,
        beta in -1.0f64..1.0,
        full in any::<bool>(),
    ) {
        // From one tile and a cell to three full tiles a side.
        let side = |pick: usize| block + 1 + pick % (2 * block);
        let region = RegionSize { nx: side(sides.0), ny: side(sides.1) };
        let program = UsGridProgram::new("random", neighbors, 2).expect("a valid program");
        let level = if full { OptLevel::Full } else { OptLevel::None };
        let want = dense_reference(region, program.neighbors(), (alpha, beta), 0.0);
        let order = deposit_order(region, block);
        let folded = checksum(order.iter().map(|&(x, y)| want[y * region.nx + x]));
        let service = KernelService::new(ServiceConfig::default().with_workers(1));
        let session = service.open_session(SessionSpec::tenant("lowered"));
        for (ranks, threads) in [(1, 1), (2, 1), (2, 2)] {
            let spec = JobSpec::new(program.clone(), vec![alpha, beta], region)
                .with_block(block)
                .with_steps(STEPS)
                .with_opt_level(level)
                .with_topology(Topology::hybrid(ranks, threads));
            let report = service.submit(session, spec).unwrap().wait().expect("job resolves");
            prop_assert_eq!(&report.error, &None, "{:?} {}x{}", program.neighbors(), ranks, threads);
            prop_assert_eq!(
                report.checksum.to_bits(),
                folded.to_bits(),
                "{:?} on {:?} in blocks of {} at {:?}, {}x{}, weights {:?}: {} vs {}",
                program.neighbors(), region, block, level, ranks, threads, (alpha, beta), report.checksum, folded
            );
        }
        service.shutdown();
    }
}
