//! One service, every DSL: a heterogeneous mix of stencil, particle and
//! usgrid jobs submitted through a single [`KernelService`], with the plan
//! cache's per-family lanes showing how each workload was compiled and
//! shared.  A usgrid job runs its program lowered to a stencil, so its plan
//! is that stencil's, filed in the Stencil lane — the stock usgrid program
//! lowers to the stock jacobi stencil at the same blocking, so the two
//! families share those plans.
//!
//! ```sh
//! AOHPC_SCALE=smoke cargo run --release --example family_mix
//! ```

use aohpc::prelude::*;
use aohpc_service::PlanKey;

fn main() {
    let scale = Scale::from_env();
    let service = KernelService::new(ServiceConfig::for_scale(scale));
    let session = service.open_session(SessionSpec::tenant("family-mix"));

    // Two of each family, interleaved: the second submission of each family
    // hits the plan its first compiled.
    let usgrid = JobSpec::usgrid(scale);
    let jobs = vec![
        JobSpec::jacobi(scale),
        JobSpec::particle(scale),
        usgrid.clone(),
        JobSpec::jacobi(scale),
        JobSpec::particle(scale),
        usgrid.clone(),
    ];
    let submitted = jobs.len();
    println!("submitting     : {submitted} jobs across 3 kernel families at scale `{scale}`");
    service.submit_batch(session, jobs).expect("admission");

    let reports = service.drain();
    assert_eq!(reports.len(), submitted);
    for report in &reports {
        assert!(report.error.is_none(), "job failed: {:?}", report.error);
        println!(
            "  job {:>2}       : {:<20} checksum {:>18.6}  cache {}",
            report.job,
            report.program,
            report.checksum,
            if report.plan_cache_hit { "hit" } else { "miss" },
        );
    }

    let stats = service.cache_stats();
    println!("plan cache     : {} entries, {} compiles", stats.entries, stats.compiles);
    for family in KernelFamilyId::all() {
        let lane = stats.for_family(family);
        println!("  {family:?} lane : {} hits / {} misses", lane.hits, lane.misses);
    }
    let (stencil, particle, usgrid_lane) = (
        stats.for_family(KernelFamilyId::Stencil),
        stats.for_family(KernelFamilyId::Particle),
        stats.for_family(KernelFamilyId::UsGrid),
    );
    assert_eq!(particle.misses, 1, "the particle record compiles once");
    assert!(particle.hits >= 1, "the repeat particle submission hits");
    assert_eq!((usgrid_lane.hits, usgrid_lane.misses), (0, 0), "no usgrid record is resolved");
    assert_eq!(stencil.misses + particle.misses, stats.compiles, "every other miss is a stencil's");
    assert!(stencil.hits >= 3, "the usgrid jobs and the repeat jacobi hit jacobi's plans");
    // The usgrid job's plan is its lowered stencil, resident at its primary
    // block shape.
    let lowered = match &usgrid.program {
        FamilyProgram::UsGrid(program) => FamilyProgram::from(program.to_stencil()),
        _ => unreachable!("the stock usgrid job runs a usgrid program"),
    };
    let primary =
        Extent::new2d(usgrid.block.min(usgrid.region.nx), usgrid.block.min(usgrid.region.ny));
    assert!(
        service.plan_cache().contains(&PlanKey::of(&lowered, primary, usgrid.opt_level)),
        "a usgrid job's plan is its lowered stencil"
    );
    println!("ok             : three families, one pipeline, one cache");
}
