//! The particle-method DSL processing system (`Particle`) and its sample
//! application.
//!
//! Space is divided into unit **buckets**; a Block holds 8×8×1 buckets and a
//! bucket holds up to 16 particles (the paper's §V-B3 parameters).  Forces
//! are short-ranged: a particle interacts with the particles of its own and
//! the eight surrounding buckets through a distance-weighted kernel.  The
//! region outside the domain is modelled by fixed wall particles returned by
//! an Arithmetic block.
//!
//! The paper's prototype "does not implement the movement of particles
//! between buckets", so its runs use a small time step and few iterations.
//! This implementation supports both modes:
//!
//! * the default reproduces the prototype (no migration, particles stay in
//!   the bucket they were born in);
//! * [`ParticleApp::with_migration`] lifts the limitation with a *pull-based*
//!   rebucketing scheme: each bucket gathers its 5×5 neighbourhood, re-runs
//!   the (deterministic) update of every candidate particle in the 3×3 ring,
//!   and keeps exactly those particles whose new position falls inside it.
//!   Because every task evaluates the same arithmetic, a particle is claimed
//!   by exactly one bucket — no cross-block writes are needed, so the scheme
//!   works unchanged under the MPI / OpenMP aspect modules.  The access
//!   pattern is a fixed 5×5 stencil, so MMAT stays valid across steps.
//!
//! [`ParticleApp`] is the family's Listing-1 reference: ten per-cell reads a
//! bucket (itself, then its 3×3 neighbourhood).  [`ParticleBlockApp`] is the
//! product app the service runs: the reference's in-place sweep with a
//! block's buckets moved in bulk — one slab in, its one-bucket ring as four
//! runs, one slab out — the same pair law per pair in the same order, so the
//! same field to the bit, each bucket read once a sweep.

use crate::common::{build_tiled_env_with_topology, DslSystem, FieldSink, Tiling};
use aohpc_env::{BlockId, Env, GlobalAddress, LocalAddress, TreeTopology};
use aohpc_mem::PoolHandle;
use aohpc_runtime::{BlockSweep, HpcApp, TaskCtx, TaskSlot};
use aohpc_workloads::ParticleSize;
use std::sync::Arc;

/// Maximum particles per bucket (the paper uses 16).
pub const BUCKET_CAPACITY: usize = 16;

/// Buckets per block side (the paper uses 8×8×1 buckets per Block).
pub const BUCKETS_PER_BLOCK_SIDE: usize = 8;

/// One particle: id, position, velocity, acceleration (three `vector3`
/// values, as in Fig. 5d).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Particle {
    /// Particle id.
    pub id: u32,
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Acceleration.
    pub acc: [f64; 3],
}

/// One bucket: a fixed-capacity list of particles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bucket {
    /// Number of live particles.
    pub count: u8,
    /// Particle storage.
    pub particles: [Particle; BUCKET_CAPACITY],
}

impl Default for Bucket {
    fn default() -> Self {
        Bucket { count: 0, particles: [Particle::default(); BUCKET_CAPACITY] }
    }
}

impl Bucket {
    /// The live particles.
    pub fn live(&self) -> &[Particle] {
        &self.particles[..self.count as usize]
    }

    /// Append a particle if there is room; returns whether it was stored.
    pub fn push(&mut self, p: Particle) -> bool {
        if (self.count as usize) < BUCKET_CAPACITY {
            self.particles[self.count as usize] = p;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// The summed speed of the live particles: what `Finalize` reports.
    pub fn speed(&self) -> f64 {
        self.live()
            .iter()
            .map(|p| (p.vel[0].powi(2) + p.vel[1].powi(2) + p.vel[2].powi(2)).sqrt())
            .sum()
    }
}

/// Configuration of the Particle DSL processing system.
#[derive(Debug, Clone)]
pub struct ParticleSystem {
    /// Number of movable particles to place.
    pub particles: ParticleSize,
    /// Buckets per domain side (domain is `buckets_x × buckets_y × 1`).
    pub buckets_x: usize,
    /// Buckets per domain side.
    pub buckets_y: usize,
    /// Buckets per page (the paper uses 2³ buckets ≈ 12 KB).
    pub buckets_per_page: usize,
    /// Memory-pool capacity in bytes (None = effectively unbounded).
    pub pool_bytes: Option<u64>,
    /// Target particles per bucket at initialisation.
    pub fill_per_bucket: usize,
    /// Shape of the data branch of the Env tree (§III-B3 locality joints).
    pub tree: TreeTopology,
}

impl ParticleSystem {
    /// The paper's configuration: derive a roughly square bucket grid for a
    /// particle count, filling each bucket to half capacity as the paper's
    /// uniform placement does.  This is the builder front door, matching
    /// `SGridSystem::paper` and `UsGridSystem::paper`; refine with the
    /// `with_*` methods.
    pub fn paper(particles: ParticleSize) -> Self {
        let fill = BUCKET_CAPACITY / 2;
        let buckets_needed = particles.count.div_ceil(fill).max(1);
        let side = (buckets_needed as f64).sqrt().ceil() as usize;
        // Round up to a multiple of the block side so blocks are full.
        let side = side.div_ceil(BUCKETS_PER_BLOCK_SIDE) * BUCKETS_PER_BLOCK_SIDE;
        ParticleSystem {
            particles,
            buckets_x: side,
            buckets_y: side,
            buckets_per_page: 8,
            pool_bytes: None,
            fill_per_bucket: fill,
            tree: TreeTopology::Flat,
        }
    }

    /// Use a non-default data-branch topology (locality joints, §III-B3).
    pub fn with_topology(mut self, tree: TreeTopology) -> Self {
        self.tree = tree;
        self
    }

    fn pool(&self) -> PoolHandle {
        match self.pool_bytes {
            Some(bytes) => PoolHandle::single(bytes),
            None => PoolHandle::unbounded(),
        }
    }

    /// The tiling of the bucket grid into blocks.
    pub fn tiling(&self) -> Tiling {
        Tiling { nx: self.buckets_x, ny: self.buckets_y, block: BUCKETS_PER_BLOCK_SIDE }
    }

    /// The bucket at `g` as `Initialize` places it: uniform placement, up to
    /// `fill_per_bucket` particles until the requested count is reached,
    /// each moving at `velocity`.  Particles are numbered bucket-major, so
    /// every rank computes the same global ids without communication.
    pub fn initial_bucket(&self, g: GlobalAddress, velocity: [f64; 3]) -> Bucket {
        let fill = self.fill_per_bucket;
        let first_id = (g.y as usize * self.buckets_x + g.x as usize) * fill;
        let mut bucket = Bucket::default();
        for k in 0..fill {
            let id = first_id + k;
            if id >= self.particles.count {
                break;
            }
            // A low-discrepancy-ish lattice inside the unit bucket.
            let fx = ((k * 7 + 3) % 16) as f64 / 16.0;
            let fy = ((k * 11 + 5) % 16) as f64 / 16.0;
            let (ox, oy) = (0.05 + 0.9 * fx, 0.05 + 0.9 * fy);
            bucket.push(Particle {
                id: id as u32,
                pos: [g.x as f64 + ox, g.y as f64 + oy, 0.5],
                vel: velocity,
                acc: [0.0; 3],
            });
        }
        bucket
    }

    /// A wall bucket for an out-of-domain position: fixed particles at the
    /// bucket centre (Dirichlet-like wall of §V-B3).
    pub fn wall_bucket(addr: GlobalAddress) -> Bucket {
        let mut b = Bucket::default();
        for k in 0..4 {
            b.push(Particle {
                id: u32::MAX,
                pos: [
                    addr.x as f64 + 0.25 + 0.5 * (k % 2) as f64,
                    addr.y as f64 + 0.25 + 0.5 * (k / 2) as f64,
                    0.5,
                ],
                vel: [0.0; 3],
                acc: [0.0; 3],
            });
        }
        b
    }
}

impl DslSystem for ParticleSystem {
    type Cell = Bucket;

    fn build_env(&self) -> Env<Bucket> {
        let (env, _data) = build_tiled_env_with_topology::<Bucket>(
            self.tiling(),
            self.buckets_per_page,
            self.pool(),
            self.tree,
            |b, root| {
                b.add_arithmetic(root, Arc::new(ParticleSystem::wall_bucket), true);
            },
        );
        env
    }
}

/// The pair-force hook signature: `(p_pos, q_pos, force_accumulator)`.
///
/// Structurally identical to the kernel crate's lowered pair-force routine,
/// so compiled artifacts plug in without a dependency edge between the
/// crates.
pub type PairForceFn = Arc<dyn Fn(&[f64; 3], &[f64; 3], &mut [f64; 3]) + Send + Sync>;

/// A pluggable pairwise force law: `(p_pos, q_pos, force_accumulator)`.
///
/// Installed by [`ParticleApp::with_pair_force`], typically from a compiled
/// particle-family kernel artifact so that service-submitted jobs execute the
/// cached plan's arithmetic.  When absent, the app's built-in quadratic
/// drop-off law runs; the stock compiled law reproduces it bit-for-bit.
#[derive(Clone)]
pub struct PairForce(pub PairForceFn);

impl std::fmt::Debug for PairForce {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PairForce(..)")
    }
}

/// The end-user application: one force-integration step per iteration over
/// the 3×3 bucket neighbourhood.
#[derive(Debug, Clone)]
pub struct ParticleApp {
    /// The DSL system (for initial placement parameters).
    pub system: ParticleSystem,
    /// Time step (kept small so particles stay in their buckets — or, with
    /// migration enabled, move less than one bucket per step).
    pub dt: f64,
    /// Influence radius of the weight function (in bucket units).
    pub radius: f64,
    /// Main-loop iterations.
    pub loops: usize,
    /// Whether particles may move between buckets (the paper's prototype
    /// limitation lifted; see the module documentation).
    pub migration: bool,
    /// Initial velocity given to every movable particle (zero by default; a
    /// non-zero drift is the easiest way to exercise migration).
    pub initial_velocity: [f64; 3],
    /// `Finalize` deposits per-bucket mean speed here (keyed by bucket
    /// coordinates), so tests and harnesses can compare runs.
    pub sink: Option<FieldSink>,
    /// `Finalize` deposits per-bucket particle counts here (keyed by bucket
    /// coordinates), used by the migration/conservation tests.
    pub count_sink: Option<FieldSink>,
    /// Pluggable pair-force law (None = the built-in quadratic drop-off).
    pub pair_force: Option<PairForce>,
}

impl ParticleApp {
    /// Create the benchmark application.
    pub fn new(system: ParticleSystem, loops: usize) -> Self {
        ParticleApp {
            system,
            dt: 1e-3,
            radius: 1.0,
            loops,
            migration: false,
            initial_velocity: [0.0; 3],
            sink: None,
            count_sink: None,
            pair_force: None,
        }
    }

    /// Install a pluggable pair-force law (see [`PairForce`]).
    pub fn with_pair_force(mut self, law: PairForce) -> Self {
        self.pair_force = Some(law);
        self
    }

    /// Attach a result sink.
    pub fn with_sink(mut self, sink: FieldSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attach a per-bucket particle-count sink.
    pub fn with_count_sink(mut self, sink: FieldSink) -> Self {
        self.count_sink = Some(sink);
        self
    }

    /// Enable or disable particle migration between buckets.
    pub fn with_migration(mut self, migration: bool) -> Self {
        self.migration = migration;
        self
    }

    /// Give every movable particle an initial velocity (bucket units per unit
    /// time).  With migration enabled, `|v| * dt` must stay below one bucket
    /// per step for the pull-based rebucketing to see every candidate.
    pub fn with_initial_velocity(mut self, v: [f64; 3]) -> Self {
        self.initial_velocity = v;
        self
    }

    /// Use a different time step.
    pub fn with_dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    /// App factory for the runtime driver.
    pub fn factory(&self) -> Arc<dyn Fn(TaskSlot) -> ParticleApp + Send + Sync> {
        let proto = self.clone();
        Arc::new(move |_slot| proto.clone())
    }

    /// The pairwise weight function: quadratic drop-off within the radius.
    fn weight(&self, dist: f64) -> f64 {
        if dist >= self.radius || dist <= 1e-9 {
            0.0
        } else {
            let x = 1.0 - dist / self.radius;
            x * x
        }
    }

    /// Repulsive force on `p` from every particle of the given buckets.
    fn force_on(&self, p: &Particle, neighbourhood: &[&Bucket]) -> [f64; 3] {
        let mut force = [0.0f64; 3];
        if let Some(law) = &self.pair_force {
            for nb in neighbourhood {
                for q in nb.live() {
                    if q.id == p.id {
                        continue;
                    }
                    (law.0)(&p.pos, &q.pos, &mut force);
                }
            }
            return force;
        }
        for nb in neighbourhood {
            for q in nb.live() {
                if q.id == p.id {
                    continue;
                }
                let dx = p.pos[0] - q.pos[0];
                let dy = p.pos[1] - q.pos[1];
                let dz = p.pos[2] - q.pos[2];
                let dist = (dx * dx + dy * dy + dz * dz).sqrt();
                let w = self.weight(dist);
                if w > 0.0 {
                    force[0] += w * dx / dist;
                    force[1] += w * dy / dist;
                    force[2] += w * dz / dist;
                }
            }
        }
        force
    }

    /// The prototype's kernel (§V-B3): every bucket updates its own particles
    /// in place; positions may drift out of the bucket but the particles stay
    /// where they are (which is why the paper runs few, small steps).
    fn kernel_in_place(&mut self, ctx: &mut TaskCtx<Bucket>) -> bool {
        let dt = self.dt;
        for bid in ctx.get_blocks() {
            let ext = ctx.env().block(bid).meta.extent;
            let (bx, by) = (ext.nx as i64, ext.ny as i64);
            for j in 0..by {
                for i in 0..bx {
                    let la = LocalAddress::new2d(i, j);
                    let me = ctx.get_dd(bid, la);
                    // Gather the 3x3 bucket neighbourhood; the in-block flag is
                    // the arithmetic test of §V-C (possible for Particle).
                    let mut neighbours: Vec<Bucket> = Vec::with_capacity(9);
                    for dj in -1..=1i64 {
                        for di in -1..=1i64 {
                            let inside = i + di >= 0 && j + dj >= 0 && i + di < bx && j + dj < by;
                            neighbours.push(ctx.get(
                                bid,
                                LocalAddress::new2d(i + di, j + dj),
                                inside,
                            ));
                        }
                    }
                    let neighbour_refs: Vec<&Bucket> = neighbours.iter().collect();
                    let mut updated = me;
                    for p_idx in 0..updated.count as usize {
                        let p = updated.particles[p_idx];
                        let force = self.force_on(&p, &neighbour_refs);
                        let p = &mut updated.particles[p_idx];
                        p.acc = force;
                        for d in 0..3 {
                            p.vel[d] += p.acc[d] * dt;
                            p.pos[d] += p.vel[d] * dt;
                        }
                    }
                    ctx.set(bid, la, updated);
                }
            }
        }
        ctx.refresh()
    }

    /// Pull-based rebucketing kernel: each bucket gathers its 5×5
    /// neighbourhood, re-runs the deterministic update of every candidate
    /// particle in the 3×3 ring (whose own 3×3 neighbourhood lies inside the
    /// gathered 5×5), and keeps exactly the particles whose new position
    /// falls inside this bucket.  No cross-block writes are needed, so the
    /// MPI / OpenMP aspect modules apply unchanged.
    fn kernel_with_migration(&mut self, ctx: &mut TaskCtx<Bucket>) -> bool {
        for bid in ctx.get_blocks() {
            let (ext, origin) = {
                let b = ctx.env().block(bid);
                (b.meta.extent, b.meta.origin)
            };
            let (bx, by) = (ext.nx as i64, ext.ny as i64);
            for j in 0..by {
                for i in 0..bx {
                    let la = LocalAddress::new2d(i, j);
                    let here = origin + la;
                    // Gather the 5×5 neighbourhood, indexed by [dj+2][di+2].
                    let mut patch: Vec<Bucket> = Vec::with_capacity(25);
                    for dj in -2..=2i64 {
                        for di in -2..=2i64 {
                            let inside = i + di >= 0 && j + dj >= 0 && i + di < bx && j + dj < by;
                            patch.push(ctx.get(bid, LocalAddress::new2d(i + di, j + dj), inside));
                        }
                    }
                    let at = |di: i64, dj: i64| &patch[((dj + 2) * 5 + (di + 2)) as usize];

                    let mut next = Bucket::default();
                    // Candidates: every movable particle currently within one
                    // bucket of here (migration is bounded by |v|·dt < 1).
                    for cdj in -1..=1i64 {
                        for cdi in -1..=1i64 {
                            let home = at(cdi, cdj);
                            if home.count == 0 {
                                continue;
                            }
                            let neighbourhood: Vec<&Bucket> = (-1..=1i64)
                                .flat_map(|ddj| (-1..=1i64).map(move |ddi| (ddi, ddj)))
                                .map(|(ddi, ddj)| at(cdi + ddi, cdj + ddj))
                                .collect();
                            for p in home.live() {
                                if p.id == u32::MAX {
                                    continue; // wall particles never move
                                }
                                let force = self.force_on(p, &neighbourhood);
                                let moved = self.advance(*p, force);
                                let target =
                                    (moved.pos[0].floor() as i64, moved.pos[1].floor() as i64);
                                if target == (here.x, here.y) {
                                    // Capacity overflow drops the particle —
                                    // tests use densities where this cannot
                                    // happen; a production DSL would spill to
                                    // a side list.
                                    let _ = next.push(moved);
                                }
                            }
                        }
                    }
                    ctx.set(bid, la, next);
                }
            }
        }
        ctx.refresh()
    }

    /// One symplectic-Euler update of a particle, with reflective walls at the
    /// domain boundary (only used by the migration path; the non-migrating
    /// path reproduces the prototype's open-ended update).
    fn advance(&self, mut p: Particle, force: [f64; 3]) -> Particle {
        let domain = [self.system.buckets_x as f64, self.system.buckets_y as f64];
        p.acc = force;
        for d in 0..3 {
            p.vel[d] += p.acc[d] * self.dt;
            p.pos[d] += p.vel[d] * self.dt;
        }
        for (d, &dom) in domain.iter().enumerate() {
            if p.pos[d] < 0.0 {
                p.pos[d] = -p.pos[d];
                p.vel[d] = -p.vel[d];
            }
            if p.pos[d] >= dom {
                p.pos[d] = 2.0 * dom - p.pos[d];
                p.vel[d] = -p.vel[d];
            }
            p.pos[d] = p.pos[d].clamp(0.0, domain[d] - 1e-9);
        }
        p
    }
}

impl HpcApp<Bucket> for ParticleApp {
    fn loop_count(&self) -> usize {
        self.loops
    }

    fn initialize(&mut self, ctx: &mut TaskCtx<Bucket>) {
        let (system, velocity) = (&self.system, self.initial_velocity);
        ctx.initialize_owned(|g| system.initial_bucket(g, velocity));
    }

    fn kernel(&mut self, ctx: &mut TaskCtx<Bucket>, _warmup: bool) -> bool {
        if self.migration {
            self.kernel_with_migration(ctx)
        } else {
            self.kernel_in_place(ctx)
        }
    }

    fn finalize(&mut self, ctx: &mut TaskCtx<Bucket>) {
        if self.sink.is_none() && self.count_sink.is_none() {
            return;
        }
        let mut speeds = Vec::new();
        let mut counts = Vec::new();
        for bid in ctx.owned_blocks() {
            let (ext, origin) = {
                let b = ctx.env().block(bid);
                (b.meta.extent, b.meta.origin)
            };
            for j in 0..ext.ny as i64 {
                for i in 0..ext.nx as i64 {
                    let bucket = ctx.get_dd(bid, LocalAddress::new2d(i, j));
                    let addr = origin + LocalAddress::new2d(i, j);
                    speeds.push((addr, bucket.speed()));
                    counts.push((addr, bucket.count as f64));
                }
            }
        }
        if let Some(sink) = &self.sink {
            sink.lock().extend(speeds);
        }
        if let Some(sink) = &self.count_sink {
            sink.lock().extend(counts);
        }
    }
}

/// The product app of the family (see the module docs): the reference's
/// in-place sweep ([`ParticleApp`] without migration) with a block's buckets
/// moved in bulk.  Run it on [`ParticleSystem`].
///
/// Its block routine (a `BlockSweep`, run inside the `Kernel::execute_block`
/// join point) reads the block's buckets in as one slab, its one-bucket ring
/// as four runs — the row above and the row below, `bx + 2`
/// buckets each with the corners, then the left and the right column, `by`
/// each — the reference's force (one [`PairForce`] call a pair, in the
/// reference's neighbourhood order) and update for every live particle, and
/// the block out as one slab.  A bucket is read once a sweep: hinted in the
/// block, unhinted on the ring.
#[derive(Debug, Clone)]
pub struct ParticleBlockApp {
    /// The DSL system (for initial placement parameters).
    pub system: ParticleSystem,
    /// The pair-force law.
    pub law: PairForce,
    /// Time step.
    pub dt: f64,
    /// Main-loop iterations.
    pub loops: usize,
    /// `Finalize` deposits per-bucket summed speed here (keyed by bucket
    /// coordinates), as the reference does.
    pub sink: Option<FieldSink>,
    /// What the kernel keeps between passes (an app instance is one task's).
    scratch: BlockScratch,
}

/// The block kernel's staging, sized at the first block: at most one 8×8
/// block of buckets each (82 KB), under the allocator's mmap threshold.
#[derive(Debug, Clone, Default)]
struct BlockScratch {
    /// The block's buckets, as read.
    own: Vec<Bucket>,
    /// Its one-bucket ring: row above, row below, left column, right column.
    ring: Vec<Bucket>,
    /// The block's updated buckets.
    out: Vec<Bucket>,
}

impl ParticleBlockApp {
    /// A sweep of `law` over the system's buckets, `loops` times, at the
    /// reference's default time step.
    pub fn new(system: ParticleSystem, law: PairForce, loops: usize) -> Self {
        ParticleBlockApp {
            system,
            law,
            dt: 1e-3,
            loops,
            sink: None,
            scratch: BlockScratch::default(),
        }
    }

    /// Use a different time step.
    pub fn with_dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    /// Attach a result sink.
    pub fn with_sink(mut self, sink: FieldSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// App factory for the runtime driver.
    pub fn factory(&self) -> Arc<dyn Fn(TaskSlot) -> ParticleBlockApp + Send + Sync> {
        let proto = self.clone();
        Arc::new(move |_slot| proto.clone())
    }
}

/// The bucket at block-relative `(x, y)`, at most one bucket outside a
/// `bx × by` block, from the block's slab and its ring (ring order as in
/// [`BlockScratch::ring`]).
fn bucket_at<'a>(
    own: &'a [Bucket],
    ring: &'a [Bucket],
    bx: i64,
    by: i64,
    x: i64,
    y: i64,
) -> &'a Bucket {
    if (0..bx).contains(&x) && (0..by).contains(&y) {
        return &own[(y * bx + x) as usize];
    }
    let slot = if y < 0 {
        x + 1
    } else if y >= by {
        (bx + 2) + x + 1
    } else if x < 0 {
        2 * (bx + 2) + y
    } else {
        2 * (bx + 2) + by + y
    };
    &ring[slot as usize]
}

impl BlockSweep for ParticleBlockApp {
    type Cell = Bucket;

    fn loops(&self) -> usize {
        self.loops
    }

    fn initial(&self) -> impl FnMut(GlobalAddress) -> Bucket + '_ {
        |g| self.system.initial_bucket(g, [0.0; 3])
    }

    fn sink(&self) -> Option<&FieldSink> {
        self.sink.as_ref()
    }

    fn deposit(bucket: &Bucket) -> f64 {
        bucket.speed()
    }

    fn block(&mut self, ctx: &mut TaskCtx<Bucket>, bid: BlockId, _i: usize, _n: usize) {
        let (law, dt) = (&*self.law.0, self.dt);
        let BlockScratch { own, ring, out } = &mut self.scratch;
        let ext = ctx.env().block(bid).meta.extent;
        let (nx, ny) = (ext.nx, ext.ny);
        own.resize(nx * ny, Bucket::default());
        ring.resize(2 * (nx + 2) + 2 * ny, Bucket::default());
        ctx.get_block_dd(bid, own);
        let (bx, by) = (nx as i64, ny as i64);
        let (across, down) = (LocalAddress::new2d(1, 0), LocalAddress::new2d(0, 1));
        let (rows, columns) = ring.split_at_mut(2 * (nx + 2));
        let (above, below) = rows.split_at_mut(nx + 2);
        let (left, right) = columns.split_at_mut(ny);
        ctx.get_run(bid, LocalAddress::new2d(-1, -1), across, above);
        ctx.get_run(bid, LocalAddress::new2d(-1, by), across, below);
        ctx.get_run(bid, LocalAddress::new2d(-1, 0), down, left);
        ctx.get_run(bid, LocalAddress::new2d(bx, 0), down, right);

        out.clear();
        out.extend_from_slice(own);
        for (k, me) in own.iter().enumerate().filter(|(_, me)| me.count > 0) {
            let (i, j) = (k as i64 % bx, k as i64 / bx);
            // The 3×3 neighbourhood in the reference's (dj, di) row-major
            // order.
            let hood: [&Bucket; 9] = std::array::from_fn(|n| {
                let (di, dj) = (n as i64 % 3 - 1, n as i64 / 3 - 1);
                bucket_at(own, ring, bx, by, i + di, j + dj)
            });
            for (p, next) in me.live().iter().zip(&mut out[k].particles) {
                let mut force = [0.0f64; 3];
                for nb in hood {
                    for q in nb.live() {
                        if q.id != p.id {
                            law(&p.pos, &q.pos, &mut force);
                        }
                    }
                }
                next.acc = force;
                for d in 0..3 {
                    next.vel[d] += next.acc[d] * dt;
                    next.pos[d] += next.vel[d] * dt;
                }
            }
        }
        ctx.set_block(bid, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::new_field_sink;
    use aohpc_aop::{Weaver, WovenProgram};
    use aohpc_runtime::{execute, MpiAspect, OmpAspect, RunConfig, Topology};

    fn run(topology: Topology, woven: WovenProgram) -> Vec<((i64, i64), f64)> {
        let system = ParticleSystem::paper(ParticleSize::new(400));
        let sink = new_field_sink();
        let app = ParticleApp::new(system.clone(), 3).with_sink(sink.clone());
        let config = RunConfig::serial().with_topology(topology);
        let report = execute(&config, woven, Arc::new(system).env_factory(), app.factory());
        assert!(report.tasks.iter().all(|t| t.steps == 3));
        let mut v: Vec<((i64, i64), f64)> =
            sink.lock().iter().map(|(a, s)| ((a.x, a.y), *s)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    #[test]
    fn bucket_capacity_is_respected() {
        let mut b = Bucket::default();
        for i in 0..BUCKET_CAPACITY {
            assert!(b.push(Particle { id: i as u32, ..Default::default() }));
        }
        assert!(!b.push(Particle::default()));
        assert_eq!(b.live().len(), BUCKET_CAPACITY);
    }

    #[test]
    fn installed_pair_force_matching_the_builtin_is_bit_identical() {
        let radius = 1.0f64;
        let law = PairForce(Arc::new(move |p: &[f64; 3], q: &[f64; 3], force: &mut [f64; 3]| {
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
        }));
        let system = ParticleSystem::paper(ParticleSize::new(256));
        let sink_a = new_field_sink();
        let sink_b = new_field_sink();
        let config = RunConfig::serial();
        let app = ParticleApp::new(system.clone(), 3).with_sink(sink_a.clone());
        execute(
            &config,
            WovenProgram::unwoven(),
            Arc::new(system.clone()).env_factory(),
            app.factory(),
        );
        let hooked =
            ParticleApp::new(system.clone(), 3).with_sink(sink_b.clone()).with_pair_force(law);
        execute(&config, WovenProgram::unwoven(), Arc::new(system).env_factory(), hooked.factory());
        let collect = |s: &FieldSink| {
            let mut v: Vec<((i64, i64), f64)> =
                s.lock().iter().map(|(a, x)| ((a.x, a.y), *x)).collect();
            v.sort_by_key(|(k, _)| *k);
            v
        };
        let a = collect(&sink_a);
        assert!(!a.is_empty());
        assert_eq!(a, collect(&sink_b), "hooked law must be bit-identical");
    }

    #[test]
    fn system_sizing_matches_particle_count() {
        let sys = ParticleSystem::paper(ParticleSize::new(1 << 10));
        assert_eq!(sys.buckets_x % BUCKETS_PER_BLOCK_SIDE, 0);
        assert!(sys.buckets_x * sys.buckets_y * sys.fill_per_bucket >= 1 << 10);
        let env = sys.build_env();
        assert!(env.stats().num_data_blocks >= 1);
    }

    #[test]
    fn wall_bucket_holds_fixed_particles() {
        let w = ParticleSystem::wall_bucket(GlobalAddress::new2d(-1, 4));
        assert_eq!(w.count, 4);
        assert!(w.live().iter().all(|p| p.id == u32::MAX));
        assert!(w.live().iter().all(|p| p.pos[0] < 0.0));
    }

    /// Run a migrating configuration and return, per bucket, `(count, speed)`.
    ///
    /// Density is kept at a quarter of the bucket capacity so that wall
    /// pile-up (reflected plus incoming particles) never overflows a bucket.
    fn run_migrating(
        topology: Topology,
        woven: WovenProgram,
        loops: usize,
        velocity: [f64; 3],
    ) -> Vec<((i64, i64), f64, f64)> {
        let mut system = ParticleSystem::paper(ParticleSize::new(256));
        system.fill_per_bucket = 4;
        let speed_sink = new_field_sink();
        let count_sink = new_field_sink();
        let app = ParticleApp::new(system.clone(), loops)
            .with_migration(true)
            .with_dt(0.25)
            .with_initial_velocity(velocity)
            .with_sink(speed_sink.clone())
            .with_count_sink(count_sink.clone());
        let config = RunConfig::serial().with_topology(topology);
        let report = execute(&config, woven, Arc::new(system).env_factory(), app.factory());
        assert!(report.tasks.iter().all(|t| t.steps == loops as u64));
        let counts: std::collections::HashMap<(i64, i64), f64> =
            count_sink.lock().iter().map(|(a, c)| ((a.x, a.y), *c)).collect();
        let mut out: Vec<((i64, i64), f64, f64)> =
            speed_sink.lock().iter().map(|(a, s)| ((a.x, a.y), counts[&(a.x, a.y)], *s)).collect();
        out.sort_by_key(|&(key, _, _)| key);
        out
    }

    #[test]
    fn migration_conserves_particles_and_moves_them_between_buckets() {
        // A uniform drift of half a bucket per step: after a few steps most
        // particles have crossed at least one bucket boundary.
        let before = run_migrating(Topology::serial(), WovenProgram::unwoven(), 0, [2.0, 0.0, 0.0]);
        let after = run_migrating(Topology::serial(), WovenProgram::unwoven(), 4, [2.0, 0.0, 0.0]);
        let total_before: f64 = before.iter().map(|(_, c, _)| c).sum();
        let total_after: f64 = after.iter().map(|(_, c, _)| c).sum();
        assert_eq!(total_before, 256.0, "initial placement holds every particle");
        assert_eq!(total_after, total_before, "migration must not create or destroy particles");
        // The per-bucket occupancy actually changed (particles moved).
        let changed = before
            .iter()
            .zip(&after)
            .filter(|((ka, ca, _), (kb, cb, _))| {
                assert_eq!(ka, kb);
                (ca - cb).abs() > 0.5
            })
            .count();
        assert!(changed >= 8, "only {changed} buckets changed occupancy");
    }

    #[test]
    fn migration_is_identical_under_the_distributed_aspect() {
        let serial =
            run_migrating(Topology::serial(), WovenProgram::unwoven(), 3, [1.5, -0.5, 0.0]);
        let woven = Weaver::new().with_aspect(Box::new(MpiAspect::<Bucket>::new())).weave();
        let topo = Topology::new(vec![aohpc_runtime::LayerSpec::distributed(2)]);
        let dist = run_migrating(topo, woven, 3, [1.5, -0.5, 0.0]);
        assert_eq!(serial.len(), dist.len());
        for ((ka, ca, sa), (kb, cb, sb)) in serial.iter().zip(&dist) {
            assert_eq!(ka, kb);
            assert_eq!(ca, cb, "bucket {ka:?} occupancy differs across topologies");
            assert!((sa - sb).abs() < 1e-9, "bucket {ka:?} speed differs: {sa} vs {sb}");
        }
    }

    #[test]
    fn migration_reflects_at_the_domain_walls() {
        // A strong drift towards -x: without reflection particles would leave
        // the domain and the total count would drop.
        let after = run_migrating(Topology::serial(), WovenProgram::unwoven(), 6, [-3.0, 0.0, 0.0]);
        let total: f64 = after.iter().map(|(_, c, _)| c).sum();
        assert_eq!(total, 256.0, "reflective walls keep every particle in the domain");
    }

    #[test]
    fn without_migration_occupancy_never_changes() {
        // The prototype semantics: positions drift, bucket membership does not.
        let system = ParticleSystem::paper(ParticleSize::new(256));
        let count_sink = new_field_sink();
        let app = ParticleApp::new(system.clone(), 4)
            .with_dt(0.25)
            .with_initial_velocity([2.0, 1.0, 0.0])
            .with_count_sink(count_sink.clone());
        execute(
            &RunConfig::serial(),
            WovenProgram::unwoven(),
            Arc::new(system.clone()).env_factory(),
            app.factory(),
        );
        let total: f64 = count_sink.lock().iter().map(|(_, c)| c).sum();
        assert_eq!(total, 256.0);
        // Occupied buckets are exactly the initially filled ones.
        let occupied = count_sink.lock().iter().filter(|(_, c)| *c > 0.0).count();
        let expected = 256usize.div_ceil(system.fill_per_bucket);
        assert_eq!(occupied, expected);
    }

    #[test]
    fn serial_run_moves_particles() {
        let result = run(Topology::serial(), WovenProgram::unwoven());
        let total_speed: f64 = result.iter().map(|(_, s)| s).sum();
        assert!(total_speed > 0.0, "interacting particles must gain velocity");
    }

    #[test]
    fn distributed_run_matches_serial() {
        let serial = run(Topology::serial(), WovenProgram::unwoven());
        let woven = Weaver::new().with_aspect(Box::new(MpiAspect::<Bucket>::new())).weave();
        let topo = Topology::new(vec![aohpc_runtime::LayerSpec::distributed(2)]);
        let dist = run(topo, woven);
        assert_eq!(serial.len(), dist.len());
        for ((ka, va), (kb, vb)) in serial.iter().zip(dist.iter()) {
            assert_eq!(ka, kb);
            assert!((va - vb).abs() < 1e-9, "bucket {ka:?}: {va} vs {vb}");
        }
    }

    #[test]
    fn hybrid_run_matches_serial() {
        let serial = run(Topology::serial(), WovenProgram::unwoven());
        let woven = Weaver::new()
            .with_aspect(Box::new(MpiAspect::<Bucket>::new()))
            .with_aspect(Box::new(OmpAspect::<Bucket>::new()))
            .weave();
        let hybrid = run(Topology::hybrid(2, 2), woven);
        for ((ka, va), (kb, vb)) in serial.iter().zip(hybrid.iter()) {
            assert_eq!(ka, kb);
            assert!((va - vb).abs() < 1e-9);
        }
    }
}
