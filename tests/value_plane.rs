//! The usgrid product path against its paper-fidelity reference.
//!
//! `UsGridJacobiApp` is Fig. 5b as drawn: an `Env<UsCell>` whose cells store
//! their neighbours' addresses beside their value.  `UsGridValueApp` — what
//! `KernelService` runs for a usgrid job — keeps values only and works each
//! block's neighbour list out from the layout and the program's offsets.
//! Same mathematics, same access path, so:
//!
//! * the fields agree bit for bit by storage address, every task's
//!   `AccessCounters` agree field for field, and so do the MMAT memos —
//!   points in place (CaseC) and scattered (CaseR), on a ragged tiling,
//!   under every topology, with MMAT off and on;
//! * a program with another neighbour list runs as written: eight
//!   neighbours, or the stock four in another order, through `KernelService`
//!   equal a dense double-buffered loop over the program's offsets, where a
//!   read outside the domain yields the boundary value.

use aohpc::env::AccessCounters;
use aohpc_kernel::{OptLevel, UsGridKernel};
use aohpc_suite::prelude::*;
use aohpc_suite::{ExecutionMode, Platform};
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

/// The value-plane app for `program` with the compiled block law.
fn value_app(system: &UsGridSystem, program: &UsGridProgram, sink: &FieldSink) -> UsGridValueApp {
    let kernel = UsGridKernel::compile(program, Extent::new2d(BLOCK, BLOCK), OptLevel::Full);
    let law = UsBlockLaw(kernel.block_law(WEIGHTS.0, WEIGHTS.1));
    UsGridValueApp::new(system.clone(), program.neighbors().to_vec(), law, STEPS)
        .with_sink(sink.clone())
}

#[test]
fn value_plane_matches_the_reference_app_in_bits_counters_and_memo() {
    for layout in [GridLayout::CaseC, GridLayout::CaseR { seed: 7 }] {
        let system = UsGridSystem::with_block_size(REGION, BLOCK, layout);
        for (ranks, threads) in TOPOLOGIES {
            for mmat in [false, true] {
                let at = format!("{} {ranks}x{threads} mmat={mmat}", layout.name());
                let platform = Platform::new(mode(ranks, threads)).with_mmat(mmat);

                let sink = new_field_sink();
                let reference = UsGridJacobiApp::new(system.clone(), STEPS).with_sink(sink.clone());
                let reference = run(&platform, system.clone(), reference.factory(), &sink);

                let sink = new_field_sink();
                let product = value_app(&system, &UsGridProgram::jacobi4(), &sink);
                let product =
                    run(&platform, UsGridValueSystem(system.clone()), product.factory(), &sink);

                assert_eq!(reference.0.len(), REGION.cells(), "{at}: a value a point");
                assert_eq!(product.0, reference.0, "{at}: field bits by storage address");
                assert_eq!(product.1.len(), ranks * threads, "{at}: tasks");
                for (task, (got, want)) in product.1.iter().zip(&reference.1).enumerate() {
                    assert_eq!(got.0, want.0, "{at} task {task}: access counters");
                    assert_eq!((got.1, got.2), (want.1, want.2), "{at} task {task}: memo");
                }
                let reads: u64 = product.1.iter().map(|t| t.0.reads).sum();
                let sweeps = (STEPS + usize::from(ranks > 1)) as u64;
                assert_eq!(reads, 5 * REGION.cells() as u64 * sweeps, "{at}: 5 reads a point");
                assert_eq!(product.1.iter().any(|t| t.1 > 0), mmat, "{at}: the memo is in use");
            }
        }
    }
}

/// `steps` double-buffered sweeps of `alpha * me + beta * (sum over offsets,
/// in order, from 0.0)` on the logical grid, `outside` wherever an offset
/// leaves the domain.
fn dense_reference(offsets: &[(i64, i64)], outside: f64) -> Vec<f64> {
    let (nx, ny) = (REGION.nx as i64, REGION.ny as i64);
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
            next[at(x, y)] = WEIGHTS.0 * cur[at(x, y)] + WEIGHTS.1 * sum;
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

#[test]
fn other_neighbour_lists_run_as_written() {
    let programs = [
        // The stock four, summed S, E, N, W: another rounding.
        ("reordered-4", vec![(0, 1), (1, 0), (0, -1), (-1, 0)]),
        // The eight around a point, corners first; a reach of 2 on one side.
        ("eight", vec![(-1, -1), (1, -1), (-1, 1), (1, 1), (0, -1), (-2, 0), (1, 0), (0, 1)]),
    ];
    let service = KernelService::new(ServiceConfig::default().with_workers(1));
    let session = service.open_session(SessionSpec::tenant("value-plane"));
    let stock = dense_reference(UsGridProgram::jacobi4().neighbors(), 0.0);
    for (name, offsets) in programs {
        let program = UsGridProgram::new(name, offsets, 2).expect("valid program");
        let dense =
            |at: &GlobalAddress, field: &[f64]| field[at.y as usize * REGION.nx + at.x as usize];

        // The direct run, cell by cell (CaseC: storage is position), with a
        // boundary value a read that found nothing could not pass for ...
        let mut system = UsGridSystem::with_block_size(REGION, BLOCK, GridLayout::CaseC);
        system.boundary_value = 0.25;
        let want = dense_reference(program.neighbors(), system.boundary_value);
        let sink = new_field_sink();
        let app = value_app(&system, &program, &sink);
        let report = Platform::new(ExecutionMode::PlatformNop)
            .run_system(Arc::new(UsGridValueSystem(system)), app.factory())
            .report;
        let deposited = sink.lock().clone();
        assert_eq!(deposited.len(), REGION.cells(), "{name}");
        for (at, v) in &deposited {
            assert_eq!(v.to_bits(), dense(at, &want).to_bits(), "{name} at ({}, {})", at.x, at.y);
        }
        // The plans these lists are read through are resolved from their
        // offsets: a point's own value (hinted) and its k neighbours (not)
        // are read once a sweep, and every neighbour read lands somewhere —
        // in the block, out of it, or on nothing.
        let k = program.neighbors().len() as u64;
        let (points, counters) = (REGION.cells() as u64 * STEPS as u64, report.total_counters());
        assert_eq!(counters.reads, (1 + k) * points, "{name}: reads");
        assert_eq!(counters.writes, points, "{name}: writes");
        assert_eq!(counters.skip_search_hits, points, "{name}: own values");
        assert_eq!(
            counters.in_block_hits + counters.out_of_block_reads + counters.missing_accesses,
            k * points,
            "{name}: every neighbour read accounted for"
        );

        // ... and the service's checksum (its boundary is 0.0), folded in the
        // order `Finalize` deposits the field, under every topology.
        let want = dense_reference(program.neighbors(), 0.0);
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
