//! Family-generic pipeline integration tests: particle and usgrid jobs are
//! first-class service workloads.  Each family flows through the same
//! fingerprint → plan cache → execution pipeline the stencil path uses,
//! results stay bit-identical to the direct seed path, and each cluster node
//! compiles each distinct plan key it resolves exactly once no matter how
//! the families are mixed (proptested).

use aohpc_aop::Weaver;
use aohpc_dsl::{
    new_field_sink, DslSystem, ParticleApp, ParticleSystem, UsGridJacobiApp, UsGridSystem,
};
use aohpc_env::Extent;
use aohpc_kernel::{
    FamilyProgram, KernelFamilyId, OptLevel, ParticleProgram, SpecializationId, StencilProgram,
    UsGridProgram,
};
use aohpc_runtime::execute;
use aohpc_service::{
    ClusterService, JobSpec, KernelService, PlanCache, PlanKey, ServiceConfig, SessionSpec,
};
use aohpc_workloads::{checksum, GridLayout, ParticleSize, Scale};
use proptest::collection;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

fn config() -> ServiceConfig {
    ServiceConfig::default().with_workers(2)
}

/// The direct seed path for a particle spec: the DSL app with its built-in
/// inline pair force, no service, no cache, no hook.
fn direct_particle_checksum(spec: &JobSpec) -> f64 {
    let count = spec.particles.expect("stock particle specs carry their count");
    let system = ParticleSystem::paper(ParticleSize::new(count));
    let sink = new_field_sink();
    let app = ParticleApp::new(system.clone(), spec.steps)
        .with_dt(spec.params[1])
        .with_sink(sink.clone());
    let run = aohpc_runtime::RunConfig::serial()
        .with_topology(spec.topology.clone())
        .with_weave_mode(spec.weave_mode);
    execute(&run, Weaver::new().weave(), Arc::new(system).env_factory(), app.factory());
    let cks = checksum(sink.lock().iter().map(|(_, v)| *v));
    cks
}

/// The direct seed path for a usgrid spec: the DSL app with its built-in
/// inline `alpha·me + beta·Σ` law.
fn direct_usgrid_checksum(spec: &JobSpec) -> f64 {
    let system = UsGridSystem::with_block_size(spec.region, spec.block, GridLayout::CaseC);
    let sink = new_field_sink();
    let mut app = UsGridJacobiApp::new(system.clone(), spec.steps).with_sink(sink.clone());
    app.alpha = spec.params[0];
    app.beta = spec.params[1];
    let run = aohpc_runtime::RunConfig::serial()
        .with_topology(spec.topology.clone())
        .with_weave_mode(spec.weave_mode);
    execute(&run, Weaver::new().weave(), Arc::new(system).env_factory(), app.factory());
    let cks = checksum(sink.lock().iter().map(|(_, v)| *v));
    cks
}

/// The plan keys a job resolves: a particle job its family record, at the
/// primary block shape; a stencil job its program, a key a tile shape; and a
/// usgrid job, which runs its program lowered to a stencil, that stencil's —
/// no usgrid record.  A stencil fingerprint ignores the name, so the stock
/// four's lowered keys are `jacobi_5pt`'s.
fn plan_keys(spec: &JobSpec) -> Vec<PlanKey> {
    let (block, region, level) = (spec.block, spec.region, spec.opt_level);
    let stencil = match &spec.program {
        FamilyProgram::Stencil(program) => FamilyProgram::from(program.clone()),
        FamilyProgram::UsGrid(program) => FamilyProgram::from(program.to_stencil()),
        FamilyProgram::Particle(_) => {
            let primary = Extent::new2d(block.min(region.nx), block.min(region.ny));
            return vec![PlanKey::of(&spec.program, primary, level)];
        }
    };
    let sides = |n: usize| {
        let mut sides: Vec<usize> = (0..n).step_by(block).map(|at| block.min(n - at)).collect();
        sides.dedup();
        sides
    };
    let mut keys = Vec::new();
    for nx in sides(region.nx) {
        for ny in sides(region.ny) {
            keys.push(PlanKey::of(&stencil, Extent::new2d(nx, ny), level));
        }
    }
    keys
}

fn service_checksum(spec: JobSpec) -> (f64, aohpc_service::PlanCacheStats) {
    let service = KernelService::new(ServiceConfig::default().with_workers(1));
    let session = service.open_session(SessionSpec::tenant("family"));
    let report = service.submit(session, spec).unwrap().wait().unwrap();
    assert!(report.error.is_none(), "{:?}", report.error);
    (report.checksum, service.cache_stats())
}

#[test]
fn particle_jobs_run_end_to_end_and_match_the_direct_seed_path() {
    let spec = JobSpec::particle(Scale::Smoke);
    let (cks, stats) = service_checksum(spec.clone());
    assert!(cks.is_finite());
    assert_eq!(
        cks.to_bits(),
        direct_particle_checksum(&spec).to_bits(),
        "cache-resolved pair law diverged from the DSL's inline force"
    );
    // The job resolved (and compiled) its plan through the shared cache,
    // metered on the particle lane.
    let lane = stats.for_family(KernelFamilyId::Particle);
    assert_eq!((lane.misses, stats.compiles), (1, 1), "{stats:?}");
    assert_eq!(stats.for_family(KernelFamilyId::Stencil).misses, 0);
}

#[test]
fn usgrid_jobs_run_end_to_end_and_match_the_direct_seed_path() {
    let spec = JobSpec::usgrid(Scale::Smoke);
    let (cks, stats) = service_checksum(spec.clone());
    assert!(cks.is_finite());
    assert_eq!(
        cks.to_bits(),
        direct_usgrid_checksum(&spec).to_bits(),
        "cache-resolved update law diverged from the DSL's inline law"
    );
    // The job resolved one plan, the lowered stencil's one tile shape (the
    // smoke region is whole blocks), on the stencil lane; the usgrid lane
    // saw no lookup.
    let lane = stats.for_family(KernelFamilyId::UsGrid);
    let stencil = stats.for_family(KernelFamilyId::Stencil);
    assert_eq!((lane.hits, lane.misses), (0, 0), "{stats:?}");
    assert_eq!((stencil.misses, stats.compiles), (1, 1), "{stats:?}");
    assert_eq!(plan_keys(&spec).len(), 1);
}

/// A hot session's usgrid job pins the plan it runs — its program lowered to
/// a stencil, at the primary block shape — and reports that plan's
/// specialization: the stock four lower to the weighted-sum loop.
#[test]
fn a_hot_sessions_usgrid_job_pins_and_reports_its_stencil_plan() {
    let service = KernelService::new(ServiceConfig::default().with_workers(1));
    let session = service.open_session(SessionSpec::tenant("hot").pin_plans());
    let spec = JobSpec::usgrid(Scale::Smoke);
    let report = service.submit(session, spec.clone()).unwrap().wait().unwrap();
    assert!(report.error.is_none(), "{:?}", report.error);
    assert!(
        matches!(report.specialization, SpecializationId::WeightedSum { neighbors: 4, .. }),
        "{:?}",
        report.specialization
    );
    // The smoke region is whole blocks: one plan, resident and pinned.
    let keys = plan_keys(&spec);
    assert_eq!(keys.len(), 1);
    assert!(service.plan_cache().contains(&keys[0]));
    let stats = service.cache_stats();
    assert_eq!((stats.entries, stats.pinned_entries), (1, 1), "{stats:?}");
}

/// A mixed-family batch through ONE service: every family executes, and the
/// per-family lanes attribute exactly their own lookups — the particle
/// record on its lane, and on the stencil lane one plan that the jacobi job
/// and the two usgrid jobs (the same block shape, lowered to the same
/// stencil) share.
#[test]
fn one_service_hosts_all_three_families() {
    let service = KernelService::new(config());
    let session = service.open_session(SessionSpec::tenant("mixed"));
    let jobs = vec![
        JobSpec::jacobi(Scale::Smoke),
        JobSpec::particle(Scale::Smoke),
        JobSpec::usgrid(Scale::Smoke),
        JobSpec::particle(Scale::Smoke),
        JobSpec::usgrid(Scale::Smoke),
    ];
    service.submit_batch(session, jobs).unwrap();
    let reports = service.drain();
    assert_eq!(reports.len(), 5);
    assert!(reports.iter().all(|r| r.error.is_none() && r.checksum.is_finite()));
    let names: HashSet<&str> = reports.iter().map(|r| r.program.as_str()).collect();
    assert_eq!(names, HashSet::from(["jacobi-5pt", "particle-pair-sweep", "usgrid-jacobi4"]));

    let stats = service.cache_stats();
    let particle = stats.for_family(KernelFamilyId::Particle);
    let stencil = stats.for_family(KernelFamilyId::Stencil);
    let usgrid = stats.for_family(KernelFamilyId::UsGrid);
    assert_eq!((particle.misses, stencil.misses, stats.compiles), (1, 1, 2), "{stats:?}");
    assert_eq!((usgrid.hits, usgrid.misses), (0, 0), "{stats:?}");
    // The second particle submission, and two of the three stencil-lane
    // jobs' pre-warms, hit the warm plan.
    assert!(particle.hits >= 1 && stencil.hits >= 2, "{stats:?}");
}

/// Particle and usgrid jobs on every node of a cluster: each node compiles
/// each plan once — the particle record and the usgrid job's lowered
/// stencil — and results stay bit-identical to a single node.
#[test]
fn particle_and_usgrid_plans_compile_on_every_cluster_node() {
    const NODES: usize = 3;
    let cluster = ClusterService::new(NODES, config());
    let jobs = [JobSpec::particle(Scale::Smoke), JobSpec::usgrid(Scale::Smoke)];
    for node in 0..NODES {
        let id = cluster.open_session_on(node, SessionSpec::tenant(format!("t{node}")));
        for job in &jobs {
            cluster.submit(id, job.clone()).unwrap();
        }
    }
    let reports = cluster.drain();
    assert_eq!(reports.len(), NODES * jobs.len());
    assert!(reports.iter().all(|r| r.error.is_none()));

    let stats = cluster.cache_stats();
    let plans: HashSet<PlanKey> = jobs.iter().flat_map(plan_keys).collect();
    assert_eq!(plans.len(), 2);
    for (rank, node) in stats.per_node.iter().enumerate() {
        assert_eq!(node.compiles as usize, plans.len(), "node {rank}: {node:?}");
    }
    assert_eq!(stats.total.fetches, 0, "{stats:?}");
    assert_eq!(stats.total.misses, stats.total.compiles);

    for job in jobs {
        let reference = match job.program.family() {
            KernelFamilyId::Particle => direct_particle_checksum(&job),
            KernelFamilyId::UsGrid => direct_usgrid_checksum(&job),
            KernelFamilyId::Stencil => unreachable!(),
        };
        let fp = job.program.fingerprint();
        for report in reports.iter().filter(|r| r.fingerprint == fp) {
            assert_eq!(
                report.checksum.to_bits(),
                reference.to_bits(),
                "cluster {:?} job diverged from the seed path",
                job.program.family()
            );
        }
    }
    cluster.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fingerprints are domain-separated by family: programs from different
    /// families can never collide on a `PlanKey`, whatever the shape.
    #[test]
    fn plan_keys_never_collide_across_families(
        nx in 1usize..64,
        ny in 1usize..64,
        full in any::<bool>(),
    ) {
        let level = if full { OptLevel::Full } else { OptLevel::None };
        let ext = aohpc_env::Extent::new2d(nx, ny);
        let programs = [
            FamilyProgram::from(StencilProgram::jacobi_5pt()),
            FamilyProgram::from(ParticleProgram::pair_sweep()),
            FamilyProgram::from(UsGridProgram::jacobi4()),
        ];
        let keys: Vec<PlanKey> = programs.iter().map(|p| PlanKey::of(p, ext, level)).collect();
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                prop_assert_ne!(&keys[i], &keys[j]);
                prop_assert_ne!(keys[i].fingerprint, keys[j].fingerprint);
            }
        }
    }

    /// Per-family hit/miss attribution: resolving each family's program
    /// `n` times charges exactly (1 miss, n-1 hits) to that family's lane
    /// and nothing to the others — families share the cache without
    /// cross-talk.
    #[test]
    fn family_lanes_meter_exactly_their_own_traffic(
        n_stencil in 0usize..5,
        n_particle in 0usize..5,
        n_usgrid in 0usize..5,
    ) {
        let cache = PlanCache::new(4, 64);
        let ext = aohpc_env::Extent::new2d(8, 8);
        let traffic = [
            (FamilyProgram::from(StencilProgram::jacobi_5pt()), n_stencil),
            (FamilyProgram::from(ParticleProgram::pair_sweep()), n_particle),
            (FamilyProgram::from(UsGridProgram::jacobi4()), n_usgrid),
        ];
        for (program, n) in &traffic {
            for _ in 0..*n {
                let (artifact, _) = cache.resolve(program, ext, OptLevel::Full, false);
                prop_assert_eq!(artifact.family(), program.family());
            }
        }
        let stats = cache.stats();
        for (program, n) in &traffic {
            let lane = stats.for_family(program.family());
            let expect = if *n == 0 { (0, 0) } else { (*n as u64 - 1, 1) };
            prop_assert_eq!((lane.hits, lane.misses), expect, "{:?}", stats);
        }
        prop_assert_eq!(
            stats.compiles as usize,
            traffic.iter().filter(|(_, n)| *n > 0).count()
        );
    }

    /// The acceptance property: over a random mixed-family workload on a
    /// random cluster size, each node's compiles == the distinct plan keys
    /// its submissions resolve — compile-once-per-node holds for every
    /// family and for the stencil a usgrid program lowers to, which the
    /// stock four's jobs share with `jacobi_5pt`'s.
    #[test]
    fn mixed_family_cluster_compiles_equal_distinct_fingerprints(
        submissions in collection::vec((0usize..3, 0usize..3), 1..8),
        nodes in 2usize..4,
    ) {
        let palette = [
            JobSpec::jacobi(Scale::Smoke).with_steps(1),
            JobSpec::particle(Scale::Smoke).with_steps(1),
            JobSpec::usgrid(Scale::Smoke)
                .with_block(8)
                .with_steps(1),
        ];
        let cluster = ClusterService::new(nodes, config());
        let sessions: Vec<_> = (0..nodes)
            .map(|n| cluster.open_session_on(n, SessionSpec::tenant(format!("t{n}"))))
            .collect();
        let mut distinct: Vec<HashSet<PlanKey>> = vec![HashSet::new(); nodes];
        for (node, which) in &submissions {
            let spec = palette[*which].clone();
            distinct[node % nodes].extend(plan_keys(&spec));
            cluster.submit(sessions[node % nodes], spec).unwrap();
        }
        let reports = cluster.drain();
        prop_assert_eq!(reports.len(), submissions.len());
        prop_assert!(reports.iter().all(|r| r.error.is_none()));
        let stats = cluster.cache_stats();
        for (rank, node) in stats.per_node.iter().enumerate() {
            prop_assert_eq!(node.compiles as usize, distinct[rank].len(), "node {}: {:?}", rank, node);
        }
        prop_assert_eq!(stats.total.misses, stats.total.compiles);
        prop_assert_eq!(stats.total.fetches, 0);
        cluster.shutdown();
    }
}
