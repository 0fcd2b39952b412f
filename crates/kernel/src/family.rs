//! Kernel families: one compile/cache pipeline for every DSL.
//!
//! The paper's platform hosts several DSLs (structured grid, particle,
//! unstructured grid), but a plan pipeline that only understands
//! [`StencilProgram`] forces every other DSL onto a side path with no
//! fingerprinting and no plan cache.  This module is the family-generic
//! boundary: a **kernel family** bundles
//!
//! * a validated *program* type (the structural identity of the kernel),
//! * a *structural fingerprint* with per-family **domain separation** — the
//!   family tag is absorbed into the hash stream before the canonical
//!   program bytes, so two programs of different families can never share a
//!   fingerprint stream, and the plan-cache key additionally carries the
//!   [`KernelFamilyId`] so cross-family collisions are impossible *by
//!   construction*, not merely improbable,
//! * a *compiled artifact* (the lowered, block-shaped executor), and
//! * a *portable wire form* (see [`crate::portable`]), the same frame
//!   layout for every family.
//!
//! Three families are implemented:
//!
//! * [`KernelFamilyId::Stencil`] — the existing expression-IR path
//!   ([`StencilProgram`] → [`CompiledKernel`]), byte-for-byte unchanged:
//!   stencil fingerprints are exactly what they were before this module
//!   existed.
//! * [`KernelFamilyId::Particle`] — a bucketed neighbour sweep with a cutoff
//!   radius and symmetric pair forces, lowered from the particle DSL
//!   (`aohpc-dsl`'s `ParticleApp`): the [`ParticleProgram`] captures the
//!   pair law and the bucket-neighbourhood reach, and the compiled
//!   [`ParticleKernel`] hands out the lowered pair-force routine
//!   ([`ParticleKernel::pair_law`]) that execution plugs into the sweep.
//! * [`KernelFamilyId::UsGrid`] — the unstructured-grid relaxation sweep:
//!   the [`UsGridProgram`] captures the neighbour offsets gathered through
//!   the indirection.  A program is a stencil in disguise: what the service
//!   runs for it is [`UsGridProgram::to_stencil`] on the stencil tiers, and
//!   the compiled [`UsGridKernel`] hands out the lowered point update
//!   ([`UsGridKernel::update_fn`]) for the Listing-1 reference
//!   `UsGridJacobiApp`.
//!
//! The enum pair [`FamilyProgram`] / [`FamilyArtifact`] is what the service
//! stack traffics in: `JobSpec` holds a `FamilyProgram`, the plan cache maps
//! a family-tagged key to a `FamilyArtifact`, and every cluster node
//! compiles its own.

use crate::expr::{load, param};
use crate::opt::OptLevel;
use crate::plan::CompiledKernel;
use crate::program::{ProgramFingerprint, StencilProgram};
use aohpc_env::Extent;
use std::fmt;
use std::sync::Arc;

/// The kernel families the platform pipeline understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelFamilyId {
    /// Structured-grid stencils over the expression IR.
    Stencil,
    /// Bucketed particle interaction kernels (cutoff pair forces).
    Particle,
    /// Unstructured-grid sweeps over indirect neighbour lists.
    UsGrid,
}

impl KernelFamilyId {
    /// The family's stable wire tag (part of the portable-kernel header and
    /// of every non-stencil fingerprint's domain separation).
    pub fn tag(&self) -> u8 {
        match self {
            KernelFamilyId::Stencil => 0,
            KernelFamilyId::Particle => 1,
            KernelFamilyId::UsGrid => 2,
        }
    }

    /// Decode a wire tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(KernelFamilyId::Stencil),
            1 => Some(KernelFamilyId::Particle),
            2 => Some(KernelFamilyId::UsGrid),
            _ => None,
        }
    }

    /// Every family, in tag order (used by per-family stats reporting).
    pub fn all() -> [KernelFamilyId; 3] {
        [KernelFamilyId::Stencil, KernelFamilyId::Particle, KernelFamilyId::UsGrid]
    }
}

impl fmt::Display for KernelFamilyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelFamilyId::Stencil => write!(f, "stencil"),
            KernelFamilyId::Particle => write!(f, "particle"),
            KernelFamilyId::UsGrid => write!(f, "usgrid"),
        }
    }
}

/// Errors produced while validating a non-stencil family program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FamilyError {
    /// The particle neighbourhood reach is outside the supported range.
    BadReach {
        /// Reach found.
        found: u8,
        /// Maximum supported reach (buckets).
        max: u8,
    },
    /// The unstructured-grid neighbour list is empty or too large.
    BadNeighborCount {
        /// Neighbours found.
        found: usize,
        /// Maximum supported neighbour count.
        max: usize,
    },
    /// An unstructured-grid neighbour offset exceeds the halo the platform
    /// ships.
    NeighborTooFar {
        /// The offending offset.
        offset: (i64, i64),
        /// Maximum absolute component.
        max: i64,
    },
    /// Fewer parameters declared than the family's lowered kernel reads.
    TooFewParams {
        /// Parameters the family requires.
        required: usize,
        /// Parameters declared.
        declared: usize,
    },
}

impl fmt::Display for FamilyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FamilyError::BadReach { found, max } => {
                write!(f, "particle neighbourhood reach {found} exceeds the maximum {max}")
            }
            FamilyError::BadNeighborCount { found, max } => {
                write!(f, "neighbour list of {found} entries is empty or exceeds {max}")
            }
            FamilyError::NeighborTooFar { offset, max } => {
                write!(f, "neighbour offset {offset:?} exceeds the ±{max} halo")
            }
            FamilyError::TooFewParams { required, declared } => {
                write!(f, "family kernel reads {required} parameters but only {declared} declared")
            }
        }
    }
}

impl std::error::Error for FamilyError {}

/// Maximum bucket-neighbourhood reach a particle program may declare: a
/// reach of 1 is the paper's 3×3 sweep; 2 is the 5×5 migration gather.
pub const MAX_PARTICLE_REACH: u8 = 2;

/// The pairwise interaction law of a particle program.
///
/// The law is part of the program's structural identity (it selects the
/// lowered arithmetic), so it participates in the canonical encoding and
/// hence the fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairLaw {
    /// The paper's repulsive law: weight `(1 - d/r)²` inside the cutoff
    /// radius, force along the separation vector.
    QuadraticDropoff,
}

impl PairLaw {
    /// Stable wire/fingerprint tag.
    pub fn tag(&self) -> u8 {
        match self {
            PairLaw::QuadraticDropoff => 0,
        }
    }

    /// Decode a wire tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(PairLaw::QuadraticDropoff),
            _ => None,
        }
    }
}

/// A validated particle-family program: the structural identity of a
/// bucketed neighbour sweep with cutoff pair forces.
///
/// Runtime parameters (by convention `params[0]` = cutoff radius,
/// `params[1]` = time step) stay out of the structure, exactly as stencil
/// parameters do — the same program fingerprint serves every radius.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticleProgram {
    name: String,
    law: PairLaw,
    neighbor_reach: u8,
    num_params: usize,
}

impl ParticleProgram {
    /// Parameters the lowered particle kernel reads: cutoff radius and dt.
    pub const REQUIRED_PARAMS: usize = 2;

    /// Validate a particle program.
    pub fn new(
        name: impl Into<String>,
        law: PairLaw,
        neighbor_reach: u8,
        num_params: usize,
    ) -> Result<Self, FamilyError> {
        if neighbor_reach == 0 || neighbor_reach > MAX_PARTICLE_REACH {
            return Err(FamilyError::BadReach { found: neighbor_reach, max: MAX_PARTICLE_REACH });
        }
        if num_params < Self::REQUIRED_PARAMS {
            return Err(FamilyError::TooFewParams {
                required: Self::REQUIRED_PARAMS,
                declared: num_params,
            });
        }
        Ok(ParticleProgram { name: name.into(), law, neighbor_reach, num_params })
    }

    /// The paper's §V-B3 kernel: quadratic-dropoff pair forces over the 3×3
    /// bucket neighbourhood.
    pub fn pair_sweep() -> Self {
        ParticleProgram::new("particle-pair-sweep", PairLaw::QuadraticDropoff, 1, 2)
            .expect("stock program is valid")
    }

    /// The program's name (a reporting label, not part of the fingerprint).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pair law.
    pub fn law(&self) -> PairLaw {
        self.law
    }

    /// Bucket-neighbourhood reach (1 = 3×3 buckets).
    pub fn neighbor_reach(&self) -> u8 {
        self.neighbor_reach
    }

    /// Number of declared runtime parameters.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Canonical byte encoding (the fingerprint/wire payload).
    pub fn encode_canonical(&self, write: &mut dyn FnMut(&[u8])) {
        write(&[self.law.tag(), self.neighbor_reach]);
        write(&(self.num_params as u64).to_le_bytes());
    }

    /// Structural interchangeability: same law, reach and parameter count;
    /// names ignored.
    pub fn same_structure(&self, other: &ParticleProgram) -> bool {
        self.law == other.law
            && self.neighbor_reach == other.neighbor_reach
            && self.num_params == other.num_params
    }

    /// The domain-separated structural fingerprint.
    pub fn fingerprint(&self) -> ProgramFingerprint {
        ProgramFingerprint::of_tagged_stream(KernelFamilyId::Particle.tag(), |write| {
            self.encode_canonical(write)
        })
    }
}

/// Maximum neighbour-list length an unstructured-grid program may declare.
pub const MAX_USGRID_NEIGHBORS: usize = 16;

/// Maximum absolute component of an unstructured-grid neighbour offset
/// (the stencil radius bound, [`crate::program::DEFAULT_MAX_RADIUS`]).
pub const MAX_USGRID_NEIGHBOR_SPAN: i64 = crate::program::DEFAULT_MAX_RADIUS;

/// A validated unstructured-grid program: a weighted relaxation sweep over
/// the per-point indirect neighbour lists.
///
/// The *logical* neighbour offsets are structural (they fix the gathered
/// values and their accumulation order); the weights (`params[0]` = centre,
/// `params[1]` = neighbour) are runtime parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct UsGridProgram {
    name: String,
    neighbors: Vec<(i64, i64)>,
    num_params: usize,
}

impl UsGridProgram {
    /// Parameters the lowered sweep reads: alpha (centre) and beta
    /// (neighbour weight).
    pub const REQUIRED_PARAMS: usize = 2;

    /// Validate an unstructured-grid program.
    pub fn new(
        name: impl Into<String>,
        neighbors: Vec<(i64, i64)>,
        num_params: usize,
    ) -> Result<Self, FamilyError> {
        if neighbors.is_empty() || neighbors.len() > MAX_USGRID_NEIGHBORS {
            return Err(FamilyError::BadNeighborCount {
                found: neighbors.len(),
                max: MAX_USGRID_NEIGHBORS,
            });
        }
        if let Some(&offset) = neighbors.iter().find(|(dx, dy)| {
            dx.abs() > MAX_USGRID_NEIGHBOR_SPAN || dy.abs() > MAX_USGRID_NEIGHBOR_SPAN
        }) {
            return Err(FamilyError::NeighborTooFar { offset, max: MAX_USGRID_NEIGHBOR_SPAN });
        }
        if num_params < Self::REQUIRED_PARAMS {
            return Err(FamilyError::TooFewParams {
                required: Self::REQUIRED_PARAMS,
                declared: num_params,
            });
        }
        Ok(UsGridProgram { name: name.into(), neighbors, num_params })
    }

    /// The paper's §V-B2 kernel: 4-point Jacobi relaxation in the N, W, E, S
    /// gather order of the DSL's `UsCell::neighbors` array.
    pub fn jacobi4() -> Self {
        UsGridProgram::new("usgrid-jacobi4", vec![(0, -1), (-1, 0), (1, 0), (0, 1)], 2)
            .expect("stock program is valid")
    }

    /// The program's name (a reporting label, not part of the fingerprint).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The logical neighbour offsets, in gather (accumulation) order.
    pub fn neighbors(&self) -> &[(i64, i64)] {
        &self.neighbors
    }

    /// Number of declared runtime parameters.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Canonical byte encoding (the fingerprint/wire payload).
    pub fn encode_canonical(&self, write: &mut dyn FnMut(&[u8])) {
        write(&(self.neighbors.len() as u32).to_le_bytes());
        for &(dx, dy) in &self.neighbors {
            write(&dx.to_le_bytes());
            write(&dy.to_le_bytes());
        }
        write(&(self.num_params as u64).to_le_bytes());
    }

    /// Structural interchangeability: same neighbour list (order matters —
    /// it is the accumulation order) and parameter count; names ignored.
    pub fn same_structure(&self, other: &UsGridProgram) -> bool {
        self.neighbors == other.neighbors && self.num_params == other.num_params
    }

    /// The domain-separated structural fingerprint.
    pub fn fingerprint(&self) -> ProgramFingerprint {
        ProgramFingerprint::of_tagged_stream(KernelFamilyId::UsGrid.tag(), |write| {
            self.encode_canonical(write)
        })
    }

    /// The program as the stencil it is, where storage order is logical
    /// order (CaseC): `param(0)·load(0, 0) + param(1)·(n0 + n1 + … + nk)`,
    /// the neighbours `n0 … nk` at [`UsGridProgram::neighbors`] in gather
    /// order, folded left to right from `n0`.
    ///
    /// The reference update ([`UsGridKernel::update_fn`]) folds the same
    /// values in the same order from `0.0`, and `0.0 + n0` is `n0` but for
    /// `n0 = −0.0`.  So the two agree bit for bit except when every
    /// neighbour is −0.0 and `alpha·me` is −0.0 too (a neighbour off the
    /// domain reads the boundary value, +0.0 in the service).  The name
    /// carries over; a stencil fingerprint ignores it, so the lowered
    /// `jacobi4` is `jacobi_5pt` to the plan cache.
    pub fn to_stencil(&self) -> StencilProgram {
        let mut near = self.neighbors.iter().map(|&(dx, dy)| load(dx, dy));
        let first = near.next().expect("a valid usgrid program has a neighbour");
        let sum = near.fold(first, |sum, n| sum + n);
        let law = param(0) * load(0, 0) + param(1) * sum;
        StencilProgram::new(self.name.clone(), law, self.num_params)
            .expect("a valid usgrid program spans at most the stencil radius bound")
    }
}

/// A program of any kernel family — what [`JobSpec`](../../aohpc_service)
/// and the plan pipeline traffic in.
#[derive(Debug, Clone, PartialEq)]
pub enum FamilyProgram {
    /// A structured-grid stencil program.
    Stencil(StencilProgram),
    /// A bucketed particle interaction program.
    Particle(ParticleProgram),
    /// An unstructured-grid sweep program.
    UsGrid(UsGridProgram),
}

impl FamilyProgram {
    /// The program's family.
    pub fn family(&self) -> KernelFamilyId {
        match self {
            FamilyProgram::Stencil(_) => KernelFamilyId::Stencil,
            FamilyProgram::Particle(_) => KernelFamilyId::Particle,
            FamilyProgram::UsGrid(_) => KernelFamilyId::UsGrid,
        }
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        match self {
            FamilyProgram::Stencil(p) => p.name(),
            FamilyProgram::Particle(p) => p.name(),
            FamilyProgram::UsGrid(p) => p.name(),
        }
    }

    /// Number of declared runtime parameters.
    pub fn num_params(&self) -> usize {
        match self {
            FamilyProgram::Stencil(p) => p.num_params(),
            FamilyProgram::Particle(p) => p.num_params(),
            FamilyProgram::UsGrid(p) => p.num_params(),
        }
    }

    /// The structural fingerprint.
    ///
    /// Stencil fingerprints are **exactly** [`StencilProgram::fingerprint`]
    /// (no re-tagging — existing caches, wire frames and pinned test values
    /// stay valid); particle and usgrid fingerprints absorb their family tag
    /// before the canonical bytes, so no byte stream can collide across
    /// families.
    pub fn fingerprint(&self) -> ProgramFingerprint {
        match self {
            FamilyProgram::Stencil(p) => p.fingerprint(),
            FamilyProgram::Particle(p) => p.fingerprint(),
            FamilyProgram::UsGrid(p) => p.fingerprint(),
        }
    }

    /// Whether another program is structurally interchangeable with this one
    /// (always `false` across families).
    pub fn same_structure(&self, other: &FamilyProgram) -> bool {
        match (self, other) {
            (FamilyProgram::Stencil(a), FamilyProgram::Stencil(b)) => a.same_structure(b),
            (FamilyProgram::Particle(a), FamilyProgram::Particle(b)) => a.same_structure(b),
            (FamilyProgram::UsGrid(a), FamilyProgram::UsGrid(b)) => a.same_structure(b),
            _ => false,
        }
    }

    /// Compile the program for blocks of `extent` at `level` — the
    /// family-generic analogue of [`CompiledKernel::compile`].
    pub fn compile(&self, extent: Extent, level: OptLevel) -> FamilyArtifact {
        match self {
            FamilyProgram::Stencil(p) => {
                FamilyArtifact::Stencil(Arc::new(CompiledKernel::compile(p, extent, level)))
            }
            FamilyProgram::Particle(p) => {
                FamilyArtifact::Particle(Arc::new(ParticleKernel::compile(p, extent, level)))
            }
            FamilyProgram::UsGrid(p) => {
                FamilyArtifact::UsGrid(Arc::new(UsGridKernel::compile(p, extent, level)))
            }
        }
    }

    /// The stencil program, if this is the stencil family.
    pub fn as_stencil(&self) -> Option<&StencilProgram> {
        match self {
            FamilyProgram::Stencil(p) => Some(p),
            _ => None,
        }
    }
}

impl From<StencilProgram> for FamilyProgram {
    fn from(p: StencilProgram) -> Self {
        FamilyProgram::Stencil(p)
    }
}

impl From<ParticleProgram> for FamilyProgram {
    fn from(p: ParticleProgram) -> Self {
        FamilyProgram::Particle(p)
    }
}

impl From<UsGridProgram> for FamilyProgram {
    fn from(p: UsGridProgram) -> Self {
        FamilyProgram::UsGrid(p)
    }
}

impl fmt::Display for FamilyProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.family(), self.name())
    }
}

/// The lowered pair-force routine a compiled particle kernel hands out:
/// `(p_pos, q_pos, force_accumulator)`.  The id-skip and neighbourhood
/// gather stay with the sweep (they are structural, not arithmetic); the
/// closure owns every floating-point operation of one pair interaction, in
/// the exact order the DSL's direct path performs them.
pub type PairForceFn = Arc<dyn Fn(&[f64; 3], &[f64; 3], &mut [f64; 3]) + Send + Sync>;

/// The lowered per-point update a compiled usgrid kernel hands out:
/// `(centre_value, gathered_neighbour_values) -> new_value`, accumulating
/// the neighbour sum in gather order.
pub type UsUpdateFn = Arc<dyn Fn(f64, &[f64]) -> f64 + Send + Sync>;

/// A particle program compiled for one bucket-block shape: the lowered pair
/// law plus the resolved neighbourhood geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticleKernel {
    program: ParticleProgram,
    nx: usize,
    ny: usize,
    level: OptLevel,
}

impl ParticleKernel {
    /// Compile a particle program for bucket blocks of `extent`.
    pub fn compile(program: &ParticleProgram, extent: Extent, level: OptLevel) -> Self {
        assert_eq!(extent.nz, 1, "the particle sweep targets 2-D bucket blocks");
        assert!(extent.nx > 0 && extent.ny > 0, "bucket blocks must be non-empty");
        ParticleKernel { program: program.clone(), nx: extent.nx, ny: extent.ny, level }
    }

    /// The compiled program.
    pub fn program(&self) -> &ParticleProgram {
        &self.program
    }

    /// The program name.
    pub fn name(&self) -> &str {
        self.program.name()
    }

    /// Number of runtime parameters.
    pub fn num_params(&self) -> usize {
        self.program.num_params()
    }

    /// Bucket-block shape the kernel was compiled for.
    pub fn extent(&self) -> Extent {
        Extent::new2d(self.nx, self.ny)
    }

    /// Optimization level the kernel was compiled at.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// The lowered pair-force routine for a cutoff `radius`
    /// (`params[0]` of the submitting job).
    ///
    /// Arithmetic and operation order are exactly the DSL direct path's
    /// (`ParticleApp::force_on` / `weight`), so a sweep driven through this
    /// closure is bit-identical to the seed path.
    pub fn pair_law(&self, radius: f64) -> PairForceFn {
        match self.program.law() {
            PairLaw::QuadraticDropoff => Arc::new(move |p, q, force| {
                let dx = p[0] - q[0];
                let dy = p[1] - q[1];
                let dz = p[2] - q[2];
                let dist = (dx * dx + dy * dy + dz * dz).sqrt();
                let w = if dist >= radius || dist <= 1e-9 {
                    0.0
                } else {
                    let x = 1.0 - dist / radius;
                    x * x
                };
                if w > 0.0 {
                    force[0] += w * dx / dist;
                    force[1] += w * dy / dist;
                    force[2] += w * dz / dist;
                }
            }),
        }
    }
}

/// An unstructured-grid program compiled for one block shape: the lowered
/// per-point update plus the gather geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct UsGridKernel {
    program: UsGridProgram,
    nx: usize,
    ny: usize,
    level: OptLevel,
}

impl UsGridKernel {
    /// Compile an unstructured-grid program for blocks of `extent`.
    pub fn compile(program: &UsGridProgram, extent: Extent, level: OptLevel) -> Self {
        assert_eq!(extent.nz, 1, "the usgrid sweep targets 2-D blocks");
        assert!(extent.nx > 0 && extent.ny > 0, "blocks must be non-empty");
        UsGridKernel { program: program.clone(), nx: extent.nx, ny: extent.ny, level }
    }

    /// The compiled program.
    pub fn program(&self) -> &UsGridProgram {
        &self.program
    }

    /// The program name.
    pub fn name(&self) -> &str {
        self.program.name()
    }

    /// Number of runtime parameters.
    pub fn num_params(&self) -> usize {
        self.program.num_params()
    }

    /// Block shape the kernel was compiled for.
    pub fn extent(&self) -> Extent {
        Extent::new2d(self.nx, self.ny)
    }

    /// Optimization level the kernel was compiled at.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// The lowered per-point update for weights `alpha` (centre) and `beta`
    /// (per neighbour) — `params[0]` / `params[1]` of the submitting job.
    ///
    /// The neighbour sum accumulates in gather order, matching the DSL
    /// direct path (`UsGridJacobiApp::kernel`) bit for bit.
    pub fn update_fn(&self, alpha: f64, beta: f64) -> UsUpdateFn {
        Arc::new(move |me, neighbors| {
            let mut sum = 0.0;
            for &n in neighbors {
                sum += n;
            }
            alpha * me + beta * sum
        })
    }
}

/// A compiled artifact of any kernel family — what the plan cache stores.
///
/// Cloning is cheap (each variant is an `Arc`): concurrent tenants
/// resolving the same plan share one lowered kernel, whatever the family.
#[derive(Debug, Clone)]
pub enum FamilyArtifact {
    /// A compiled stencil kernel (access plan + execution tape).
    Stencil(Arc<CompiledKernel>),
    /// A compiled particle kernel (lowered pair law).
    Particle(Arc<ParticleKernel>),
    /// A compiled unstructured-grid kernel (lowered point update).
    UsGrid(Arc<UsGridKernel>),
}

impl FamilyArtifact {
    /// The artifact's family.
    pub fn family(&self) -> KernelFamilyId {
        match self {
            FamilyArtifact::Stencil(_) => KernelFamilyId::Stencil,
            FamilyArtifact::Particle(_) => KernelFamilyId::Particle,
            FamilyArtifact::UsGrid(_) => KernelFamilyId::UsGrid,
        }
    }

    /// The compiled program's name.
    pub fn name(&self) -> &str {
        match self {
            FamilyArtifact::Stencil(k) => k.name(),
            FamilyArtifact::Particle(k) => k.name(),
            FamilyArtifact::UsGrid(k) => k.name(),
        }
    }

    /// Block shape the artifact was compiled for.
    pub fn extent(&self) -> Extent {
        match self {
            FamilyArtifact::Stencil(k) => k.extent(),
            FamilyArtifact::Particle(k) => k.extent(),
            FamilyArtifact::UsGrid(k) => k.extent(),
        }
    }

    /// The stencil kernel, if this is the stencil family.
    pub fn as_stencil(&self) -> Option<&Arc<CompiledKernel>> {
        match self {
            FamilyArtifact::Stencil(k) => Some(k),
            _ => None,
        }
    }

    /// The particle kernel, if this is the particle family.
    pub fn as_particle(&self) -> Option<&Arc<ParticleKernel>> {
        match self {
            FamilyArtifact::Particle(k) => Some(k),
            _ => None,
        }
    }

    /// The usgrid kernel, if this is the usgrid family.
    pub fn as_usgrid(&self) -> Option<&Arc<UsGridKernel>> {
        match self {
            FamilyArtifact::UsGrid(k) => Some(k),
            _ => None,
        }
    }

    /// Unwrap the stencil kernel; panics if the artifact is another family.
    /// Used by the stencil-typed compatibility surfaces
    /// ([`crate::plan::PlanSource::plan_for`] and the service cache's
    /// stencil wrapper), which by construction only see stencil artifacts.
    pub fn expect_stencil(&self) -> Arc<CompiledKernel> {
        match self {
            FamilyArtifact::Stencil(k) => Arc::clone(k),
            other => panic!("expected a stencil artifact, got the {} family", other.family()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_tags_roundtrip_and_display() {
        for fam in KernelFamilyId::all() {
            assert_eq!(KernelFamilyId::from_tag(fam.tag()), Some(fam));
            assert!(!fam.to_string().is_empty());
        }
        assert_eq!(KernelFamilyId::from_tag(9), None);
        assert_eq!(
            PairLaw::from_tag(PairLaw::QuadraticDropoff.tag()),
            Some(PairLaw::QuadraticDropoff)
        );
        assert_eq!(PairLaw::from_tag(7), None);
    }

    #[test]
    fn stencil_fingerprints_pass_through_unchanged() {
        let p = StencilProgram::jacobi_5pt();
        let wrapped = FamilyProgram::from(p.clone());
        assert_eq!(wrapped.fingerprint(), p.fingerprint());
        assert_eq!(wrapped.fingerprint().to_string(), "8156f965671e84dfdbfd78a4365e8f99");
        assert_eq!(wrapped.family(), KernelFamilyId::Stencil);
        assert_eq!(wrapped.name(), "jacobi-5pt");
        assert_eq!(wrapped.num_params(), 2);
    }

    #[test]
    fn non_stencil_fingerprints_are_domain_separated() {
        let particle = ParticleProgram::pair_sweep();
        let usgrid = UsGridProgram::jacobi4();
        let stencil = StencilProgram::jacobi_5pt();
        let fps = [particle.fingerprint(), usgrid.fingerprint(), stencil.fingerprint()];
        assert_ne!(fps[0], fps[1]);
        assert_ne!(fps[0], fps[2]);
        assert_ne!(fps[1], fps[2]);
        // Stable across calls and name-independent.
        let renamed = ParticleProgram::new("other-name", PairLaw::QuadraticDropoff, 1, 2).unwrap();
        assert_eq!(renamed.fingerprint(), particle.fingerprint());
        // Structure participates.
        let wider = ParticleProgram::new("w", PairLaw::QuadraticDropoff, 2, 2).unwrap();
        assert_ne!(wider.fingerprint(), particle.fingerprint());
        let more_params = UsGridProgram::new("p", usgrid.neighbors().to_vec(), 3).unwrap();
        assert_ne!(more_params.fingerprint(), usgrid.fingerprint());
    }

    #[test]
    fn program_validation_rejects_bad_shapes() {
        assert!(matches!(
            ParticleProgram::new("r", PairLaw::QuadraticDropoff, 0, 2),
            Err(FamilyError::BadReach { .. })
        ));
        assert!(matches!(
            ParticleProgram::new("r", PairLaw::QuadraticDropoff, 3, 2),
            Err(FamilyError::BadReach { .. })
        ));
        assert!(matches!(
            ParticleProgram::new("r", PairLaw::QuadraticDropoff, 1, 1),
            Err(FamilyError::TooFewParams { .. })
        ));
        assert!(matches!(
            UsGridProgram::new("u", vec![], 2),
            Err(FamilyError::BadNeighborCount { .. })
        ));
        assert!(matches!(
            UsGridProgram::new("u", vec![(99, 0)], 2),
            Err(FamilyError::NeighborTooFar { .. })
        ));
        assert!(matches!(
            UsGridProgram::new("u", vec![(0, 1)], 0),
            Err(FamilyError::TooFewParams { .. })
        ));
        for e in [
            FamilyError::BadReach { found: 0, max: 2 },
            FamilyError::BadNeighborCount { found: 0, max: 16 },
            FamilyError::NeighborTooFar { offset: (99, 0), max: 8 },
            FamilyError::TooFewParams { required: 2, declared: 0 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn same_structure_is_family_local() {
        let particle = FamilyProgram::from(ParticleProgram::pair_sweep());
        let usgrid = FamilyProgram::from(UsGridProgram::jacobi4());
        let stencil = FamilyProgram::from(StencilProgram::jacobi_5pt());
        assert!(!particle.same_structure(&usgrid));
        assert!(!particle.same_structure(&stencil));
        assert!(particle.same_structure(&FamilyProgram::from(ParticleProgram::pair_sweep())));
        assert!(usgrid.same_structure(&FamilyProgram::from(UsGridProgram::jacobi4())));
        assert!(stencil.same_structure(&FamilyProgram::from(StencilProgram::jacobi_5pt())));
        assert!(particle.to_string().contains("particle"));
    }

    #[test]
    fn compile_produces_the_matching_artifact() {
        let extent = Extent::new2d(8, 8);
        for (program, family) in [
            (FamilyProgram::from(StencilProgram::jacobi_5pt()), KernelFamilyId::Stencil),
            (FamilyProgram::from(ParticleProgram::pair_sweep()), KernelFamilyId::Particle),
            (FamilyProgram::from(UsGridProgram::jacobi4()), KernelFamilyId::UsGrid),
        ] {
            let artifact = program.compile(extent, OptLevel::Full);
            assert_eq!(artifact.family(), family);
            assert_eq!(artifact.extent(), extent);
            assert_eq!(artifact.name(), program.name());
        }
    }

    #[test]
    fn artifact_accessors_match_the_family() {
        let extent = Extent::new2d(4, 4);
        let stencil =
            FamilyProgram::from(StencilProgram::jacobi_5pt()).compile(extent, OptLevel::Full);
        assert!(stencil.as_stencil().is_some());
        assert!(stencil.as_particle().is_none());
        assert!(stencil.as_usgrid().is_none());
        let particle =
            FamilyProgram::from(ParticleProgram::pair_sweep()).compile(extent, OptLevel::Full);
        assert!(particle.as_particle().is_some());
        assert!(particle.as_stencil().is_none());
        let usgrid = FamilyProgram::from(UsGridProgram::jacobi4()).compile(extent, OptLevel::Full);
        assert!(usgrid.as_usgrid().is_some());
        assert!(usgrid.as_particle().is_none());
    }

    #[test]
    #[should_panic(expected = "expected a stencil artifact")]
    fn expect_stencil_panics_on_other_families() {
        let particle = FamilyProgram::from(ParticleProgram::pair_sweep())
            .compile(Extent::new2d(8, 8), OptLevel::Full);
        let _ = particle.expect_stencil();
    }

    #[test]
    fn pair_law_matches_the_reference_arithmetic() {
        let kernel = ParticleKernel::compile(
            &ParticleProgram::pair_sweep(),
            Extent::new2d(8, 8),
            OptLevel::Full,
        );
        let law = kernel.pair_law(1.0);
        let p = [0.5, 0.5, 0.5];
        let q = [0.9, 0.5, 0.5];
        let mut force = [0.0; 3];
        law(&p, &q, &mut force);
        // Reference: dist = 0.4, w = (1 - 0.4)^2 = 0.36, fx = w * -0.4/0.4.
        let dist: f64 = 0.4;
        let x = 1.0 - dist / 1.0;
        let w = x * x;
        assert_eq!(force[0], w * (p[0] - q[0]) / (p[0] - q[0]).abs());
        assert_eq!(force[1], 0.0);
        assert_eq!(force[2], 0.0);
        // Outside the cutoff and self-interaction contribute nothing.
        let mut f2 = [0.0; 3];
        law(&p, &[2.0, 0.5, 0.5], &mut f2);
        law(&p, &p, &mut f2);
        assert_eq!(f2, [0.0; 3]);
    }

    #[test]
    fn usgrid_update_matches_the_reference_arithmetic() {
        let kernel =
            UsGridKernel::compile(&UsGridProgram::jacobi4(), Extent::new2d(8, 8), OptLevel::Full);
        let update = kernel.update_fn(0.5, 0.125);
        let v = update(1.0, &[0.25, 0.5, 0.75, 1.0]);
        assert_eq!(v, 0.5 * 1.0 + 0.125 * (0.25 + 0.5 + 0.75 + 1.0));
    }

    #[test]
    fn usgrid_programs_lower_to_their_stencil() {
        // The stock four is the 5-point Jacobi tree: one plan for both.
        let jacobi = UsGridProgram::jacobi4().to_stencil();
        assert!(jacobi.same_structure(&StencilProgram::jacobi_5pt()));
        assert_eq!(jacobi.fingerprint(), StencilProgram::jacobi_5pt().fingerprint());
        assert_eq!(jacobi.name(), "usgrid-jacobi4");
        // One neighbour, the centre again, and the widest span all lower.
        let span = MAX_USGRID_NEIGHBOR_SPAN;
        for neighbors in [vec![(0, 1)], vec![(0, 0), (0, 0)], vec![(span, -span), (-span, 3)]] {
            let program = UsGridProgram::new("p", neighbors.clone(), 3).unwrap();
            let stencil = program.to_stencil();
            assert_eq!(stencil.num_params(), 3);
            let reach = neighbors.iter().map(|&(dx, dy)| dx.abs().max(dy.abs())).max();
            assert_eq!(stencil.radius(), reach.unwrap());
            // The law, folded from the first neighbour: bits of `update_fn`.
            let kernel = UsGridKernel::compile(&program, Extent::new2d(4, 4), OptLevel::Full);
            let value = |dx: i64, dy: i64| 0.25 + (3 * dx - dy) as f64 / 7.0;
            let near: Vec<f64> = neighbors.iter().map(|&(dx, dy)| value(dx, dy)).collect();
            let want = kernel.update_fn(0.3, -0.7)(value(0, 0), &near);
            let got = stencil.expr().eval(&mut |dx, dy| value(dx, dy), &[0.3, -0.7]);
            assert_eq!(got.to_bits(), want.to_bits(), "{neighbors:?}");
        }
    }
}
