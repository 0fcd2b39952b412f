//! Property test over random submit interleavings on an N-node cluster.
//!
//! For every generated interleaving — which node, which program, in which
//! order — two invariants must hold after the cluster quiesces:
//!
//! 1. **Compile-once-per-node** — each node compiles exactly the distinct
//!    plan keys it resolved, once each, and nothing is fetched:
//!    `misses == compiles` ties the ledger.
//! 2. **Bit identity** — every job's checksum equals, bit for bit, the
//!    checksum a plain single-node `KernelService` computes for the same
//!    spec.

use aohpc_kernel::{load, param, StencilProgram};
use aohpc_service::{ClusterService, JobSpec, KernelService, ServiceConfig, SessionSpec};
use aohpc_workloads::RegionSize;
use proptest::collection;
use proptest::prelude::*;
use std::collections::HashSet;

/// The program palette: three structurally distinct kernels, all blocked
/// 8x8 over a 16x16 region (block-divisible, so each program resolves
/// exactly one plan key: fingerprints differ, shapes agree).
fn programs() -> [JobSpec; 3] {
    let anisotropic = StencilProgram::new(
        "anisotropic",
        param(0) * load(0, 0) + param(1) * (load(1, 0) + load(-1, 0)) - load(0, 1) * 0.25,
        2,
    )
    .unwrap();
    let base = |p: StencilProgram| {
        JobSpec::new(p, vec![0.5, 0.125], RegionSize::square(16)).with_block(8).with_steps(1)
    };
    [base(StencilProgram::jacobi_5pt()), base(StencilProgram::smooth_9pt()), base(anisotropic)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_interleavings_compile_once_and_match_single_node(
        submissions in collection::vec((0usize..4, 0usize..3), 1..16),
        nodes in 2usize..5,
    ) {
        let palette = programs();

        // Reference checksums from a single node, one program each.
        let reference: Vec<u64> = {
            let single = KernelService::new(ServiceConfig::default().with_workers(1));
            let session = single.open_session(SessionSpec::tenant("ref"));
            palette
                .iter()
                .map(|spec| {
                    let report =
                        single.submit(session, spec.clone()).unwrap().wait().unwrap();
                    prop_assert_eq!(&report.error, &None);
                    Ok(report.checksum.to_bits())
                })
                .collect::<Result<_, TestCaseError>>()?
        };

        let cluster = ClusterService::new(nodes, ServiceConfig::default().with_workers(2));
        let sessions: Vec<_> = (0..nodes)
            .map(|n| cluster.open_session_on(n, SessionSpec::tenant(format!("t{n}"))))
            .collect();

        // The distinct fingerprints each node resolved (each program is
        // one plan key: every palette entry shares one block shape).
        let mut distinct: Vec<HashSet<u128>> = vec![HashSet::new(); nodes];
        for &(node, program) in &submissions {
            let node = node % nodes;
            let spec = palette[program].clone();
            distinct[node].insert(spec.program.fingerprint().as_u128());
            cluster.submit(sessions[node], spec).unwrap();
        }
        let reports = cluster.drain();
        prop_assert_eq!(reports.len(), submissions.len());

        // Bit identity per job (match reports to programs by fingerprint —
        // job ids are node-local and may repeat across nodes).
        for report in &reports {
            prop_assert_eq!(&report.error, &None, "job failed: {:?}", report);
            let program = palette
                .iter()
                .position(|p| p.program.fingerprint() == report.fingerprint)
                .expect("report fingerprint maps to a submitted program");
            prop_assert_eq!(
                report.checksum.to_bits(),
                reference[program],
                "cluster result diverged from single-node for program {}",
                program
            );
        }

        // Each node compiles exactly the distinct keys it resolved.
        let stats = cluster.cache_stats();
        for (rank, s) in stats.per_node.iter().enumerate() {
            prop_assert_eq!(
                s.compiles as usize,
                distinct[rank].len(),
                "node {} compiles != its distinct fingerprints: {:?}",
                rank,
                s
            );
        }
        let total: usize = distinct.iter().map(HashSet::len).sum();
        prop_assert_eq!(stats.total.compiles as usize, total);
        prop_assert_eq!(stats.total.misses, stats.total.compiles);
        prop_assert_eq!(stats.total.fetches, 0);
        prop_assert_eq!(stats.total.collisions, 0);
        cluster.shutdown();
    }
}
