//! The six workloads: which jobs, in which order, on which service shape.
//!
//! Everything here is a function of `--seed`; the platform only ever sees
//! the [`JobSpec`]s this module generates.  The seed picks the numeric
//! parameters (stencil weights, particle time step), the structure of the
//! cold-program pool and the order of every deck.  It never changes *how
//! much* work a run does: decks have a fixed composition and are only
//! shuffled, so ten runs on ten seeds measure the same mix.

use crate::rng::Rng;
use aohpc_dsl::ParticleSystem;
use aohpc_kernel::expr::{lit, load, param};
use aohpc_kernel::{ParticleProgram, StencilProgram, UsGridProgram};
use aohpc_runtime::Topology;
use aohpc_service::JobSpec;
use aohpc_workloads::{ParticleSize, RegionSize};

/// Structurally distinct programs the cold tenth of `service_small_mix`
/// draws from: four times the default 64-entry plan cache, so most draws
/// compile and evict.
pub const COLD_POOL: usize = 256;

/// One of the six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// fig06 SGrid: jacobi 512², one worker.
    SgridJacobi,
    /// fig06 USGrid CaseC 256², one worker.
    UsgridJacobi,
    /// fig06 particle 2^15, one worker.
    ParticleSweep,
    /// `SgridJacobi` on a 2-rank topology.
    SgridMpi2,
    /// Tiny mixed jobs, two workers, cold tenth.
    ServiceSmallMix,
    /// Fresh 2-node cluster per epoch.
    ClusterMixed,
}

impl WorkloadId {
    /// All workloads in the order of [`crate::metrics::WORKLOADS`].
    pub const ALL: [WorkloadId; 6] = [
        WorkloadId::SgridJacobi,
        WorkloadId::UsgridJacobi,
        WorkloadId::ParticleSweep,
        WorkloadId::ServiceSmallMix,
        WorkloadId::SgridMpi2,
        WorkloadId::ClusterMixed,
    ];

    /// The name `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        crate::metrics::WORKLOADS[Self::ALL.iter().position(|w| *w == self).expect("listed")].0
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One distinct job of a workload: every submission of it is the same
/// [`JobSpec`], so all its results must agree bit for bit.
#[derive(Debug, Clone)]
pub struct Kind {
    /// Short label for tables and spans.
    pub label: String,
    /// What is submitted.
    pub spec: JobSpec,
    /// Cell (or particle) updates one job performs: cells × steps.
    pub updates: u64,
}

/// A workload instantiated for one seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload this is.
    pub workload: WorkloadId,
    /// The distinct jobs; decks index into this.
    pub kinds: Vec<Kind>,
    /// Worker threads per service (per node for a cluster).
    pub workers: usize,
    /// Cluster nodes; 0 runs a plain `KernelService`.
    pub nodes: usize,
    /// Tenant sessions jobs rotate over (one per node for a cluster).
    pub sessions: usize,
    /// Jobs the one generator thread keeps in flight.
    pub outstanding: usize,
    /// Jobs per deck: the unit rates are taken over, and for a cluster the
    /// length of one epoch.
    pub deck_len: usize,
    /// Jobs run (and discarded) as part of set-up, after the cold compile.
    pub warmup_jobs: usize,
    /// Deck composition: kind indices, `usize::MAX` marking a cold draw.
    composition: Vec<usize>,
    order: Rng,
    dealt: Vec<usize>,
}

const COLD: usize = usize::MAX;

fn grid_kind(
    label: &str,
    program: impl Into<aohpc_service::FamilyProgram>,
    params: Vec<f64>,
    side: usize,
    block: usize,
    steps: usize,
) -> Kind {
    let region = RegionSize::square(side);
    Kind {
        label: label.to_string(),
        spec: JobSpec::new(program, params, region).with_block(block).with_steps(steps),
        updates: (region.cells() * steps) as u64,
    }
}

fn particle_kind(label: &str, count: usize, dt: f64, steps: usize) -> Kind {
    // The service re-derives this bucket grid from the count; passing it as
    // the region keeps the spec honest about what is swept.
    let system = ParticleSystem::paper(ParticleSize::new(count));
    let region = RegionSize { nx: system.buckets_x, ny: system.buckets_y };
    Kind {
        label: label.to_string(),
        // Radius 1.0 (one bucket): the seed must not change how many pairs
        // interact, only the numbers they produce.
        spec: JobSpec::new(ParticleProgram::pair_sweep(), vec![1.0, dt], region)
            .with_block(8)
            .with_steps(steps)
            .with_particles(count),
        updates: (count * steps) as u64,
    }
}

/// Centre weight in `[0.4, 0.6)` and a per-neighbour weight that keeps the
/// weights' sum just under 1, so fields neither blow up nor denormalise.
fn stencil_weights(rng: &mut Rng, neighbours: usize) -> Vec<f64> {
    let alpha = rng.f64_in(0.4, 0.6);
    let beta = (1.0 - alpha) / neighbours as f64 * rng.f64_in(0.9, 1.0);
    vec![alpha, beta]
}

/// The `k`-th cold program: centre plus three seeded neighbours of the
/// 8-neighbourhood, scaled by a literal unique to `k` — same size for every
/// `k` (so every compile costs the same), different structure (so every one
/// has its own fingerprint).
fn cold_program(k: usize, rng: &mut Rng) -> StencilProgram {
    let mut ring: Vec<(i64, i64)> =
        (-1..=1).flat_map(|dy| (-1..=1).map(move |dx| (dx, dy))).filter(|o| *o != (0, 0)).collect();
    rng.shuffle(&mut ring);
    let sum = load(ring[0].0, ring[0].1) + load(ring[1].0, ring[1].1) + load(ring[2].0, ring[2].1);
    let expr = param(0) * load(0, 0) + param(1) * (sum * lit(0.5 + k as f64 / 512.0));
    StencilProgram::new(format!("cold-{k}"), expr, 2).expect("cold programs are valid stencils")
}

impl Plan {
    /// Instantiate `workload` for `seed`.  `smoke` shrinks every problem so
    /// the whole suite runs in seconds; smoke numbers mean nothing.
    pub fn build(workload: WorkloadId, seed: u64, smoke: bool) -> Plan {
        let root = Rng::new(seed);
        let mut params = root.fork(1);
        let pick = |full: usize, small: usize| if smoke { small } else { full };
        let steps = pick(8, 2);
        let single = |kind: Kind| (vec![kind], vec![0usize]);
        let (kinds, composition) = match workload {
            WorkloadId::SgridJacobi | WorkloadId::SgridMpi2 => {
                let mut kind = grid_kind(
                    "jacobi",
                    StencilProgram::jacobi_5pt(),
                    stencil_weights(&mut params, 4),
                    pick(512, 128),
                    pick(64, 32),
                    steps,
                );
                if workload == WorkloadId::SgridMpi2 {
                    kind.spec = kind.spec.with_topology(Topology::hybrid(2, 1));
                }
                single(kind)
            }
            WorkloadId::UsgridJacobi => single(grid_kind(
                "usgrid",
                UsGridProgram::jacobi4(),
                stencil_weights(&mut params, 4),
                pick(256, 64),
                pick(64, 32),
                steps,
            )),
            WorkloadId::ParticleSweep => single(particle_kind(
                "particle",
                pick(1 << 15, 1 << 11),
                params.f64_in(0.5e-3, 1.5e-3),
                steps,
            )),
            WorkloadId::ServiceSmallMix => {
                let jacobi = stencil_weights(&mut params, 4);
                let mut kinds = vec![
                    grid_kind("jacobi64", StencilProgram::jacobi_5pt(), jacobi.clone(), 64, 16, 4),
                    grid_kind(
                        "smooth64",
                        StencilProgram::smooth_9pt(),
                        stencil_weights(&mut params, 8),
                        64,
                        16,
                        4,
                    ),
                    grid_kind(
                        "usgrid48",
                        UsGridProgram::jacobi4(),
                        stencil_weights(&mut params, 4),
                        48,
                        16,
                        2,
                    ),
                    particle_kind("particle1k", 1 << 10, params.f64_in(0.5e-3, 1.5e-3), 2),
                    grid_kind("jacobi32", StencilProgram::jacobi_5pt(), jacobi, 32, 16, 1),
                ];
                let cold_weights = stencil_weights(&mut params, 3);
                let mut shapes = root.fork(2);
                for k in 0..COLD_POOL {
                    let program = cold_program(k, &mut shapes);
                    kinds.push(grid_kind(
                        &format!("cold{k}"),
                        program,
                        cold_weights.clone(),
                        32,
                        16,
                        1,
                    ));
                }
                // 30% / 20% / 15% / 15% / 10% / 10% cold, exactly, per deck of 20.
                let composition = [(0, 6), (1, 4), (2, 3), (3, 3), (4, 2), (COLD, 2)]
                    .into_iter()
                    .flat_map(|(kind, n)| std::iter::repeat_n(kind, n))
                    .collect();
                (kinds, composition)
            }
            WorkloadId::ClusterMixed => {
                let kinds = vec![
                    grid_kind(
                        "jacobi256",
                        StencilProgram::jacobi_5pt(),
                        stencil_weights(&mut params, 4),
                        pick(256, 64),
                        32,
                        4,
                    ),
                    grid_kind(
                        "smooth256",
                        StencilProgram::smooth_9pt(),
                        stencil_weights(&mut params, 8),
                        pick(256, 64),
                        32,
                        4,
                    ),
                    grid_kind(
                        "usgrid128",
                        UsGridProgram::jacobi4(),
                        stencil_weights(&mut params, 4),
                        pick(128, 64),
                        32,
                        4,
                    ),
                    particle_kind(
                        "particle4k",
                        pick(1 << 12, 1 << 10),
                        params.f64_in(0.5e-3, 1.5e-3),
                        4,
                    ),
                ];
                let composition = (0..4).flat_map(|kind| std::iter::repeat_n(kind, 10)).collect();
                (kinds, composition)
            }
        };
        let (workers, nodes, sessions, outstanding, warmup_jobs) = match workload {
            WorkloadId::ServiceSmallMix => (2, 0, 2, 4, 60),
            WorkloadId::ClusterMixed => (1, 2, 2, 4, 8),
            _ => (1, 0, 1, 1, 3),
        };
        Plan {
            workload,
            kinds,
            workers,
            nodes,
            sessions,
            outstanding,
            deck_len: composition.len(),
            warmup_jobs,
            composition,
            order: root.fork(3),
            dealt: Vec::new(),
        }
    }

    /// The kinds every deck contains (all but the cold pool).
    pub fn stock_kinds(&self) -> std::ops::Range<usize> {
        let cold = if self.composition.contains(&COLD) { COLD_POOL } else { 0 };
        0..self.kinds.len() - cold
    }

    /// The next deck: the fixed composition in a freshly shuffled order, each
    /// cold slot filled with a uniform draw from the cold pool.
    pub fn next_deck(&mut self) -> Vec<usize> {
        let mut deck = self.composition.clone();
        self.order.shuffle(&mut deck);
        let cold_base = self.stock_kinds().end;
        for slot in deck.iter_mut().filter(|slot| **slot == COLD) {
            *slot = cold_base + self.order.below(COLD_POOL);
        }
        deck
    }

    /// The next job of the endless stream of decks.
    pub fn next_job(&mut self) -> usize {
        if self.dealt.is_empty() {
            self.dealt = self.next_deck();
            self.dealt.reverse();
        }
        self.dealt.pop().expect("a deck is never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_round_trip() {
        for w in WorkloadId::ALL {
            assert_eq!(WorkloadId::parse(w.name()), Some(w));
        }
        assert_eq!(WorkloadId::parse("nope"), None);
    }

    #[test]
    fn every_spec_is_admissible() {
        for w in WorkloadId::ALL {
            for smoke in [false, true] {
                for kind in Plan::build(w, 3, smoke).kinds {
                    kind.spec.validate().unwrap_or_else(|e| panic!("{}: {e}", kind.label));
                    assert!(kind.updates > 0);
                    assert!(kind.spec.params.iter().all(|p| p.is_finite() && *p > 0.0));
                }
            }
        }
    }

    #[test]
    fn seeded_mix_is_deterministic_and_keeps_its_proportions() {
        let decks = |seed: u64| -> Vec<Vec<usize>> {
            let mut plan = Plan::build(WorkloadId::ServiceSmallMix, seed, false);
            (0..50).map(|_| plan.next_deck()).collect()
        };
        assert_eq!(decks(11), decks(11), "same seed, same stream");
        assert_ne!(decks(11), decks(12), "another seed, another order");
        for deck in decks(11) {
            assert_eq!(deck.len(), 20);
            let count = |kind: usize| deck.iter().filter(|k| **k == kind).count();
            assert_eq!([count(0), count(1), count(2), count(3), count(4)], [6, 4, 3, 3, 2]);
            assert_eq!(deck.iter().filter(|k| **k >= 5).count(), 2, "a tenth is cold");
            assert!(deck.iter().all(|k| *k < 5 + COLD_POOL));
        }
        // The seed reaches the numbers too, not only the order.
        let params = |seed| {
            Plan::build(WorkloadId::ServiceSmallMix, seed, false).kinds[0].spec.params.clone()
        };
        assert_eq!(params(11), params(11));
        assert_ne!(params(11), params(12));
    }

    #[test]
    fn cold_pool_is_structurally_distinct() {
        let plan = Plan::build(WorkloadId::ServiceSmallMix, 5, false);
        let prints: BTreeSet<_> = plan.kinds.iter().map(|k| k.spec.program.fingerprint()).collect();
        // jacobi64 and jacobi32 share a program; everything else differs.
        assert_eq!(prints.len(), plan.kinds.len() - 1);
        assert_eq!(plan.kinds.len(), 5 + COLD_POOL);
    }

    #[test]
    fn cluster_epoch_is_forty_jobs_ten_of_each() {
        let mut plan = Plan::build(WorkloadId::ClusterMixed, 9, false);
        let deck = plan.next_deck();
        assert_eq!(deck.len(), 40);
        for kind in 0..4 {
            assert_eq!(deck.iter().filter(|k| **k == kind).count(), 10);
        }
        assert_eq!((plan.nodes, plan.workers, plan.outstanding), (2, 1, 4));
    }
}
