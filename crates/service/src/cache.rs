//! The sharded compiled-plan cache, with LRU eviction, entry pinning and a
//! chained resolution path.
//!
//! The paper's future-work "cache of data access resolution" is reified
//! per-process by [`CompiledKernel::compile`]; this module makes it a shared,
//! concurrent, *cluster-aware* resource: plans are keyed by the structural
//! program fingerprint plus block shape and optimization level, so concurrent
//! tenants submitting the same mathematics share one `Arc<CompiledKernel>`
//! instead of each paying the compile — and a mesh of service nodes shares
//! them across ranks instead of each node paying it once.
//!
//! Design points:
//!
//! * **Sharding.**  Keys hash onto `N` independent `Mutex<HashMap>` shards,
//!   so unrelated programs never contend on one lock.
//! * **Single-flight resolution.**  A miss registers an in-flight *flight*
//!   for its key; concurrent requests for the same key wait on the flight
//!   instead of compiling again, so each distinct plan is resolved exactly
//!   once per node.  The leader resolves **outside** every lock — a shard is
//!   never blocked behind a compilation, and (crucially for the cluster) a
//!   node waiting on a remote fetch holds no lock a peer-serving thread
//!   could need, which is what keeps the cross-node request/serve cycle
//!   deadlock-free.
//! * **Chained sources.**  A miss resolves through up to three stages:
//!   local shard → cluster fetch (an installed [`PlanFetcher`], e.g. the
//!   cluster fabric asking the key's owner rank) → local compile.  Stats
//!   split misses into [`PlanCacheStats::compiles`] and
//!   [`PlanCacheStats::fetches`], so "each fingerprint is compiled exactly
//!   once per cluster" is directly assertable from aggregated stats.
//! * **One eviction rule.**  Each shard holds at most
//!   `ceil(capacity / shards)` entries; inserting past that evicts the
//!   least-recently-used entry.  Entries can be **pinned** (hot tenants):
//!   a pinned entry is spared while any unpinned one exists, and when every
//!   entry is pinned the least-recently-used of all goes — capacity stays
//!   bounded, pinning is advisory under pressure, never a way to wedge a
//!   shard.  Recency is a global atomic tick, not a clock, so behaviour is
//!   deterministic under test.
//! * **Tape included.**  A [`CompiledKernel`] carries its register-allocated
//!   execution tape (lowered once, inside `compile`), so a warm hit hands the
//!   tenant a ready-to-run tape — no per-job lowering, no per-job register
//!   allocation.

use aohpc_env::Extent;
use aohpc_kernel::{
    CompiledKernel, FamilyArtifact, FamilyProgram, KernelFamilyId, OptLevel, PlanSource,
    PortableKernel, ProgramFingerprint, StencilProgram,
};
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// Cache key: what makes two compilations interchangeable.
///
/// The family tag makes cross-family collisions structurally impossible: even
/// if two programs of different families produced the same fingerprint (the
/// fingerprints are already domain-separated per family), their keys differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Which kernel family the plan belongs to.
    pub family: KernelFamilyId,
    /// Structural fingerprint of the program (name-independent,
    /// domain-separated per family).
    pub fingerprint: ProgramFingerprint,
    /// Block width the plan was compiled for.
    pub nx: usize,
    /// Block height the plan was compiled for.
    pub ny: usize,
    /// Optimization level the DAG was lowered at.
    pub level: OptLevel,
}

impl PlanKey {
    /// The key `(program, extent, level)` resolves under.
    pub fn of(program: &FamilyProgram, extent: Extent, level: OptLevel) -> Self {
        PlanKey {
            family: program.family(),
            fingerprint: program.fingerprint(),
            nx: extent.nx,
            ny: extent.ny,
            level,
        }
    }
}

/// How a lookup obtained its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PlanOrigin {
    /// Served from a resident entry (or by waiting on a concurrent flight).
    Hit,
    /// Compiled locally on this node.
    Compiled,
    /// Fetched from the cluster through the installed [`PlanFetcher`] and
    /// re-lowered locally.
    Fetched,
}

/// Per-family slice of the hit/miss ledger (indexed by
/// [`KernelFamilyId::tag`] in [`PlanCacheStats::family`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FamilyLaneStats {
    /// Lookups of this family served from a resident entry or a shared
    /// flight.
    pub hits: u64,
    /// Lookups of this family that went past the local shards.
    pub misses: u64,
}

impl std::ops::Add for FamilyLaneStats {
    type Output = FamilyLaneStats;

    fn add(self, rhs: FamilyLaneStats) -> FamilyLaneStats {
        FamilyLaneStats { hits: self.hits + rhs.hits, misses: self.misses + rhs.misses }
    }
}

/// Counters of one cache (point-in-time snapshot).
///
/// Invariants: `misses == compiles + fetches` — every miss is resolved by
/// exactly one of the two non-cache sources (collision fall-throughs count a
/// miss *and* a compile, keeping the identity) — and the global `hits` /
/// `misses` each equal the sum of their per-family lanes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PlanCacheStats {
    /// Lookups that found a live entry (or joined an in-progress flight for
    /// the same plan).
    pub hits: u64,
    /// Lookups that had to go past the local shards.
    pub misses: u64,
    /// Misses resolved by a local [`CompiledKernel::compile`] — the number
    /// summed across a cluster to assert compile-once-per-cluster.
    pub compiles: u64,
    /// Misses resolved by fetching the plan from a peer node.
    pub fetches: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Lookups whose fingerprint matched a resident entry for a *different*
    /// program (hash collision); served by an uncached compile.
    pub collisions: u64,
    /// Misses whose cluster fetch was attempted and **failed** (owner dead,
    /// timeout, retry budget spent) before falling back to a local compile.
    /// A subset of `compiles` — the degraded path is visible, not silent.
    pub degraded_resolves: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Resident entries currently pinned.
    pub pinned_entries: usize,
    /// Hit/miss attribution per kernel family, indexed by
    /// [`KernelFamilyId::tag`] (use [`PlanCacheStats::for_family`]).
    pub family: [FamilyLaneStats; 3],
}

impl PlanCacheStats {
    /// The hit/miss lane of one kernel family.
    pub fn for_family(&self, family: KernelFamilyId) -> FamilyLaneStats {
        self.family[family.tag() as usize]
    }
}

/// Element-wise sum — the aggregation the cluster layer folds per-node
/// snapshots with.
impl std::ops::Add for PlanCacheStats {
    type Output = PlanCacheStats;

    fn add(self, rhs: PlanCacheStats) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            compiles: self.compiles + rhs.compiles,
            fetches: self.fetches + rhs.fetches,
            evictions: self.evictions + rhs.evictions,
            collisions: self.collisions + rhs.collisions,
            degraded_resolves: self.degraded_resolves + rhs.degraded_resolves,
            entries: self.entries + rhs.entries,
            pinned_entries: self.pinned_entries + rhs.pinned_entries,
            family: [
                self.family[0] + rhs.family[0],
                self.family[1] + rhs.family[1],
                self.family[2] + rhs.family[2],
            ],
        }
    }
}

/// Per-entry accounting eviction decides on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct EntryMeta {
    /// Global recency tick of the last lookup that touched the entry.
    pub last_used: u64,
    /// Number of lookups served by the entry.
    pub uses: u64,
    /// Whether the entry is pinned (hot tenant); eviction spares pinned
    /// entries while any unpinned one exists.
    pub pinned: bool,
}

/// What a [`PlanFetcher`] consultation produced — the distinction the
/// degraded-path ledger needs: a fetcher that *declines* (this node owns the
/// key, or no cluster is attached) makes the local compile the intended
/// resolution, while a fetcher that *fails* (owner dead, retries exhausted,
/// fabric wedged) makes the same compile a degraded fallback worth metering.
#[derive(Debug)]
pub enum FetchOutcome {
    /// The fetcher has nothing to do for this key (e.g. the local rank is
    /// the owner): compile locally, not a degradation.
    Declined,
    /// The owner served the portable plan.
    Fetched(PortableKernel),
    /// The fetch was attempted and did not succeed (timeout, dead owner,
    /// retry budget spent): the cache compiles locally and meters
    /// [`PlanCacheStats::degraded_resolves`].
    Failed,
}

/// A remote source of compiled plans, consulted between the local shards and
/// a local compile (the "cluster fetch" stage of the resolution chain).
///
/// Implementations must not assume any cache lock is held (none is), and may
/// block — e.g. on a control-plane round trip to the key's owner rank.
pub trait PlanFetcher: Send + Sync {
    /// Fetch the portable form of the plan for `key`.  `program` is the
    /// requesting program (any family) — wire protocols ship it so the owner
    /// can compile a plan it never saw.  See [`FetchOutcome`] for how the
    /// three results steer the cache's ledger.
    fn fetch(&self, key: &PlanKey, program: &FamilyProgram) -> FetchOutcome;
}

struct Entry {
    /// The program the artifact was compiled from, kept to verify hits:
    /// FNV-1a fingerprints are not collision-resistant, and in a multi-tenant
    /// cache a false hit would silently serve another tenant's kernel.
    program: FamilyProgram,
    artifact: FamilyArtifact,
    meta: EntryMeta,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<PlanKey, Entry>,
}

/// What one shard probe found.
enum Resident {
    /// A structurally verified entry (recency/pin updated, hit metered).
    Hit(FamilyArtifact),
    /// A fingerprint collision: the slot is taken by a different program.
    Collision,
}

/// One in-progress resolution: the leader fills `done`, waiters block on the
/// condvar.  The stored program lets waiters verify structure (a colliding
/// program joining the flight must not accept the leader's kernel).  A
/// flight can also **abort** (its leader panicked mid-resolution): waiters
/// observe `None` and retry the whole resolution rather than hanging on a
/// result that will never come.
/// A settled flight's payload: the leader's program + artifact, or `None` if
/// the leader failed before resolving.
type FlightResult = Option<(FamilyProgram, FamilyArtifact)>;

struct Flight {
    /// `None` = in progress; `Some(None)` = aborted; `Some(Some(..))` = done.
    done: StdMutex<Option<FlightResult>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Arc<Self> {
        Arc::new(Flight { done: StdMutex::new(None), cv: Condvar::new() })
    }

    fn complete(&self, program: FamilyProgram, artifact: FamilyArtifact) {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        if done.is_none() {
            *done = Some(Some((program, artifact)));
        }
        drop(done);
        self.cv.notify_all();
    }

    /// Mark the flight failed if it has not completed (idempotent).
    fn abort(&self) {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        if done.is_none() {
            *done = Some(None);
        }
        drop(done);
        self.cv.notify_all();
    }

    /// Block until the flight settles; `None` means the leader failed and
    /// the caller must retry resolution itself.
    fn wait(&self) -> Option<(FamilyProgram, FamilyArtifact)> {
        let mut done = self.done.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(settled) = done.as_ref() {
                return settled
                    .as_ref()
                    .map(|(program, artifact)| (program.clone(), artifact.clone()));
            }
            done = self.cv.wait(done).unwrap_or_else(|p| p.into_inner());
        }
    }
}

/// Unconditional cleanup for a flight's leader: however the leader exits —
/// return, or an unwinding panic inside the fetcher or the compiler — the
/// flight settles (abort is a no-op after `complete`) and leaves the map, so
/// no waiter can block forever on an orphaned flight and no later leader's
/// flight can be removed by mistake (`ptr_eq`-guarded).
struct FlightGuard<'a> {
    cache: &'a PlanCache,
    key: PlanKey,
    flight: Arc<Flight>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.flight.abort();
        let mut flights = self.cache.flights.lock();
        if let Some(current) = flights.get(&self.key) {
            if Arc::ptr_eq(current, &self.flight) {
                flights.remove(&self.key);
            }
        }
    }
}

/// A sharded, capacity-bounded, cluster-chainable cache of compiled kernels.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    fetcher: Option<Arc<dyn PlanFetcher>>,
    flights: Mutex<HashMap<PlanKey, Arc<Flight>>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    fetches: AtomicU64,
    evictions: AtomicU64,
    collisions: AtomicU64,
    degraded_resolves: AtomicU64,
    /// Per-family hit/miss attribution, indexed by [`KernelFamilyId::tag`].
    family_hits: [AtomicU64; 3],
    family_misses: [AtomicU64; 3],
}

impl PlanCache {
    /// A cache of `shards` independent shards holding at most `capacity`
    /// plans in total (rounded up to a whole number per shard), evicting LRU.
    pub fn new(shards: usize, capacity: usize) -> Self {
        assert!(shards > 0, "the cache needs at least one shard");
        assert!(capacity >= shards, "capacity must allow one entry per shard");
        PlanCache {
            shard_capacity: capacity.div_ceil(shards),
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            fetcher: None,
            flights: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            fetches: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            degraded_resolves: AtomicU64::new(0),
            family_hits: Default::default(),
            family_misses: Default::default(),
        }
    }

    /// Install the cluster-fetch stage of the resolution chain (builder
    /// style, before the cache is shared).
    pub fn with_fetcher(mut self, fetcher: Arc<dyn PlanFetcher>) -> Self {
        self.fetcher = Some(fetcher);
        self
    }

    fn shard_for(&self, key: &PlanKey) -> &Mutex<Shard> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % self.shards.len()]
    }

    /// Meter a hit: the global counter plus the key's family lane.
    fn meter_hit(&self, key: &PlanKey) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.family_hits[key.family.tag() as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Meter a miss: the global counter plus the key's family lane.
    fn meter_miss(&self, key: &PlanKey) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.family_misses[key.family.tag() as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Resolve the plan for `(program, extent, level)` — any kernel family —
    /// through the full chain: local shard → in-progress flight → cluster
    /// fetch → compile.  `pin` marks the entry pinned (set by hot-tenant
    /// sessions); pins stick until [`PlanCache::unpin`] or
    /// eviction-under-total-pin-pressure.
    pub fn resolve(
        &self,
        program: &FamilyProgram,
        extent: Extent,
        level: OptLevel,
        pin: bool,
    ) -> (FamilyArtifact, PlanOrigin) {
        let key = PlanKey::of(program, extent, level);
        // The loop restarts resolution when a joined flight aborts (its
        // leader panicked): the failed leader's guard removed the flight, so
        // a retry either hits the shard, joins a healthier flight, or leads.
        loop {
            let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;

            // Stage 1: the local shard.
            match self.probe_resident(&key, program, now, pin) {
                Some(Resident::Hit(artifact)) => return (artifact, PlanOrigin::Hit),
                Some(Resident::Collision) => {
                    return (
                        self.collision_compile(&key, program, extent, level),
                        PlanOrigin::Compiled,
                    )
                }
                None => {}
            }

            // Stage 2: join an in-progress flight for the same key, or lead
            // one.
            let flight = {
                let mut flights = self.flights.lock();
                match flights.get(&key) {
                    Some(flight) => {
                        let flight = Arc::clone(flight);
                        drop(flights);
                        match flight.wait() {
                            Some((leader_program, artifact)) => {
                                if leader_program.same_structure(program) {
                                    // Metered like a shard hit: the plan was
                                    // resolved once and this lookup shared it.
                                    self.meter_hit(&key);
                                    self.touch(&key, now, pin);
                                    return (artifact, PlanOrigin::Hit);
                                }
                                return (
                                    self.collision_compile(&key, program, extent, level),
                                    PlanOrigin::Compiled,
                                );
                            }
                            // The leader failed without resolving: retry.
                            None => continue,
                        }
                    }
                    None => {
                        let flight = Flight::new();
                        flights.insert(key, Arc::clone(&flight));
                        flight
                    }
                }
            };
            return self.lead_flight(flight, key, program, extent, level, now, pin);
        }
    }

    /// The flight leader's path: re-check the shard, then resolve through
    /// fetcher/compile with no locks held, publish and settle the flight.
    #[allow(clippy::too_many_arguments)]
    fn lead_flight(
        &self,
        flight: Arc<Flight>,
        key: PlanKey,
        program: &FamilyProgram,
        extent: Extent,
        level: OptLevel,
        now: u64,
        pin: bool,
    ) -> (FamilyArtifact, PlanOrigin) {
        // However this leader exits — including a panic inside the fetcher
        // or the compiler — the guard settles the flight and removes it, so
        // waiters retry instead of hanging and the key never wedges.
        let _guard = FlightGuard { cache: self, key, flight: Arc::clone(&flight) };

        // Re-check the shard: between this lookup's shard miss and its
        // flight registration, a previous leader may have published its
        // entry and retired its flight.  Without this check that window
        // would compile the same key twice.
        match self.probe_resident(&key, program, now, pin) {
            Some(Resident::Hit(artifact)) => {
                // Wake any joiners (they verify structure themselves); the
                // probe already verified the resident entry is structurally
                // identical to `program`, so complete with it directly.
                // The guard retires the flight.
                flight.complete(program.clone(), artifact.clone());
                return (artifact, PlanOrigin::Hit);
            }
            Some(Resident::Collision) => {
                // The resident entry collides with *this* program, but it is
                // exactly what same-key joiners asked the flight for.
                if let Some(entry) = self.shard_for(&key).lock().entries.get(&key) {
                    flight.complete(entry.program.clone(), entry.artifact.clone());
                }
                return (
                    self.collision_compile(&key, program, extent, level),
                    PlanOrigin::Compiled,
                );
            }
            None => {}
        }

        // Resolve with NO locks held: a cluster fetch may block on a peer
        // whose own threads are resolving against this cache.  Counters move
        // only once the resolution succeeded, so `misses == compiles +
        // fetches` holds even across leader panics.
        let mut resolved: Option<(FamilyProgram, FamilyArtifact, PlanOrigin)> = None;
        let mut fetch_failed = false;
        if let Some(fetcher) = &self.fetcher {
            match fetcher.fetch(&key, program) {
                FetchOutcome::Fetched(portable) => {
                    // Trust nothing off the wire: the portable form must be
                    // the plan this lookup wants (same structure, same
                    // shape/level), or the fetch is discarded and the chain
                    // falls through to a local compile — a degraded resolve,
                    // since the cluster path was attempted and produced
                    // nothing usable.
                    if portable.fingerprint() == key.fingerprint
                        && portable.program().same_structure(program)
                        && portable.extent() == extent
                        && portable.level() == level
                    {
                        let (remote_program, artifact) = portable.hydrate();
                        self.meter_miss(&key);
                        self.fetches.fetch_add(1, Ordering::Relaxed);
                        resolved = Some((remote_program, artifact, PlanOrigin::Fetched));
                    } else {
                        fetch_failed = true;
                    }
                }
                FetchOutcome::Failed => fetch_failed = true,
                FetchOutcome::Declined => {}
            }
        }
        let (entry_program, artifact, origin) = resolved.unwrap_or_else(|| {
            let artifact = program.compile(extent, level);
            self.meter_miss(&key);
            self.compiles.fetch_add(1, Ordering::Relaxed);
            if fetch_failed {
                self.degraded_resolves.fetch_add(1, Ordering::Relaxed);
            }
            (program.clone(), artifact, PlanOrigin::Compiled)
        });

        // Publish: insert into the shard (evicting if it is full), then
        // complete the flight.  Insert-before-complete means no lookup can
        // miss both.
        {
            let mut shard = self.shard_for(&key).lock();
            if shard.entries.len() >= self.shard_capacity && !shard.entries.contains_key(&key) {
                // Least recently used among the unpinned entries; with
                // everything pinned, least recently used of all, so capacity
                // stays bounded.
                let victim = shard
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| (e.meta.pinned, e.meta.last_used))
                    .map(|(k, _)| *k);
                if let Some(victim) = victim {
                    shard.entries.remove(&victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            shard.entries.insert(
                key,
                Entry {
                    program: entry_program.clone(),
                    artifact: artifact.clone(),
                    meta: EntryMeta { last_used: now, uses: 1, pinned: pin },
                },
            );
        }
        flight.complete(entry_program, artifact.clone());
        (artifact, origin)
    }

    /// One shard probe: a verified hit (meta touched), a fingerprint
    /// collision, or nothing resident.
    fn probe_resident(
        &self,
        key: &PlanKey,
        program: &FamilyProgram,
        now: u64,
        pin: bool,
    ) -> Option<Resident> {
        let mut shard = self.shard_for(key).lock();
        let entry = shard.entries.get_mut(key)?;
        // Verify the hit: the fingerprint is a hash, and serving a colliding
        // tenant another program's kernel would be a silent wrong answer.  A
        // collision falls through to an uncached compile (the resident entry
        // keeps its slot).
        if entry.program.same_structure(program) {
            entry.meta.last_used = now;
            entry.meta.uses += 1;
            entry.meta.pinned |= pin;
            self.meter_hit(key);
            Some(Resident::Hit(entry.artifact.clone()))
        } else {
            Some(Resident::Collision)
        }
    }

    /// A fingerprint collision: compile privately, never caching (the
    /// resident entry keeps its slot, the colliding tenant still gets a
    /// correct kernel).
    fn collision_compile(
        &self,
        key: &PlanKey,
        program: &FamilyProgram,
        extent: Extent,
        level: OptLevel,
    ) -> FamilyArtifact {
        self.collisions.fetch_add(1, Ordering::Relaxed);
        self.meter_miss(key);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        program.compile(extent, level)
    }

    /// Refresh recency (and optionally pin) after a flight-shared resolve.
    fn touch(&self, key: &PlanKey, now: u64, pin: bool) {
        let mut shard = self.shard_for(key).lock();
        if let Some(entry) = shard.entries.get_mut(key) {
            entry.meta.last_used = entry.meta.last_used.max(now);
            entry.meta.uses += 1;
            entry.meta.pinned |= pin;
        }
    }

    /// Pin a resident entry (returns `false` if the key is not resident).
    /// Pinned entries are spared by eviction while any unpinned candidate
    /// exists.
    pub fn pin(&self, key: &PlanKey) -> bool {
        let mut shard = self.shard_for(key).lock();
        match shard.entries.get_mut(key) {
            Some(entry) => {
                entry.meta.pinned = true;
                true
            }
            None => false,
        }
    }

    /// Clear a resident entry's pin (returns `false` if not resident).
    pub fn unpin(&self, key: &PlanKey) -> bool {
        let mut shard = self.shard_for(key).lock();
        match shard.entries.get_mut(key) {
            Some(entry) => {
                entry.meta.pinned = false;
                true
            }
            None => false,
        }
    }

    /// Whether a key is currently resident (does not touch recency).
    pub fn contains(&self, key: &PlanKey) -> bool {
        self.shard_for(key).lock().entries.contains_key(key)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// Drop every resident entry, returning how many were discarded.
    ///
    /// Models a process restart (the rejoin path): a revived rank comes back
    /// with a cold cache and re-warms through the fetch/compile chain.
    /// Discarded entries are metered as evictions so the ledger still
    /// explains every departure.  In-flight resolutions are untouched — a
    /// flight's leader re-inserts on completion, which is exactly the
    /// post-restart warm path.
    pub fn invalidate_all(&self) -> usize {
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = shard.lock();
            dropped += shard.entries.len();
            shard.entries.clear();
        }
        self.evictions.fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        let (entries, pinned_entries) = self.shards.iter().fold((0, 0), |(e, p), s| {
            let shard = s.lock();
            (
                e + shard.entries.len(),
                p + shard.entries.values().filter(|entry| entry.meta.pinned).count(),
            )
        });
        let lane = |i: usize| FamilyLaneStats {
            hits: self.family_hits[i].load(Ordering::Relaxed),
            misses: self.family_misses[i].load(Ordering::Relaxed),
        };
        let stats = PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            fetches: self.fetches.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            degraded_resolves: self.degraded_resolves.load(Ordering::Relaxed),
            entries,
            pinned_entries,
            family: [lane(0), lane(1), lane(2)],
        };
        // Ledger invariant: every miss is resolved by exactly one compile or
        // fetch.  Each resolution meters its miss *before* its compile/fetch
        // counter, so an in-flight resolution can only leave `misses` ahead —
        // never behind.  Exact equality (`misses == compiles + fetches`)
        // holds at quiescence and is cross-checked there by
        // `aohpc_obs::ObsSnapshot::validate`.
        debug_assert!(
            stats.misses >= stats.compiles + stats.fetches,
            "plan-cache ledger broken: misses {} < compiles {} + fetches {}",
            stats.misses,
            stats.compiles,
            stats.fetches
        );
        stats
    }
}

impl PlanSource for PlanCache {
    fn plan_for(
        &self,
        program: &StencilProgram,
        extent: Extent,
        level: OptLevel,
    ) -> Arc<CompiledKernel> {
        self.resolve(&FamilyProgram::from(program.clone()), extent, level, false).0.expect_stencil()
    }
}

impl fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanCache")
            .field("shards", &self.shards.len())
            .field("shard_capacity", &self.shard_capacity)
            .field("chained", &self.fetcher.is_some())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aohpc_kernel::{load, param, ParticleProgram, StencilProgram, UsGridProgram};
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    fn program(name: &str, dx: i64) -> StencilProgram {
        StencilProgram::new(name, load(0, 0) + load(dx, 0) * param(0), 1).unwrap()
    }

    /// Wrap a stencil program for the family-generic resolve surface.
    fn fam(p: &StencilProgram) -> FamilyProgram {
        FamilyProgram::from(p.clone())
    }

    /// Resolve a stencil plan unpinned: the shared kernel and whether the
    /// lookup was a hit.
    fn get_or_compile(
        cache: &PlanCache,
        program: &StencilProgram,
        extent: Extent,
        level: OptLevel,
    ) -> (Arc<CompiledKernel>, bool) {
        let (artifact, origin) = cache.resolve(&fam(program), extent, level, false);
        (artifact.expect_stencil(), origin == PlanOrigin::Hit)
    }

    #[test]
    fn hit_after_miss_shares_the_same_kernel() {
        let cache = PlanCache::new(4, 16);
        let p = program("p", 1);
        let (a, hit_a) = get_or_compile(&cache, &p, Extent::new2d(8, 8), OptLevel::Full);
        let (b, hit_b) = get_or_compile(&cache, &p, Extent::new2d(8, 8), OptLevel::Full);
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b), "hits return the same compiled kernel");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!((stats.compiles, stats.fetches), (1, 0), "the miss was a local compile");
    }

    #[test]
    fn key_is_fingerprint_extent_and_level() {
        let cache = PlanCache::new(2, 16);
        let p = program("named-one-way", 1);
        let renamed = program("named-another-way", 1);
        get_or_compile(&cache, &p, Extent::new2d(8, 8), OptLevel::Full);
        // Same structure under a different name: a hit (the anti-collision
        // verification compares structure, not the name label).
        let (_, hit) = get_or_compile(&cache, &renamed, Extent::new2d(8, 8), OptLevel::Full);
        assert!(hit, "the cache keys on structure, not the name label");
        assert_eq!(cache.stats().collisions, 0);
        // Different shape or level: misses.
        let (_, hit) = get_or_compile(&cache, &p, Extent::new2d(8, 4), OptLevel::Full);
        assert!(!hit);
        let (_, hit) = get_or_compile(&cache, &p, Extent::new2d(8, 8), OptLevel::None);
        assert!(!hit);
        // Different structure: a miss.
        let (_, hit) =
            get_or_compile(&cache, &program("p", 2), Extent::new2d(8, 8), OptLevel::Full);
        assert!(!hit);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn lru_eviction_bounds_each_shard() {
        // One shard, two slots: inserting a third evicts the least recently
        // used.
        let cache = PlanCache::new(1, 2);
        let (p1, p2, p3) = (program("p1", 1), program("p2", 2), program("p3", 3));
        let ext = Extent::new2d(8, 8);
        get_or_compile(&cache, &p1, ext, OptLevel::Full);
        get_or_compile(&cache, &p2, ext, OptLevel::Full);
        // Touch p1 so p2 becomes the LRU victim.
        let (_, hit) = get_or_compile(&cache, &p1, ext, OptLevel::Full);
        assert!(hit);
        get_or_compile(&cache, &p3, ext, OptLevel::Full);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let key = |p: &StencilProgram| PlanKey::of(&fam(p), ext, OptLevel::Full);
        assert!(cache.contains(&key(&p1)), "recently used survives");
        assert!(!cache.contains(&key(&p2)), "LRU entry evicted");
        assert!(cache.contains(&key(&p3)));
        // The evicted plan recompiles on next use.
        let (_, hit) = get_or_compile(&cache, &p2, ext, OptLevel::Full);
        assert!(!hit);
    }

    #[test]
    fn pinned_entries_survive_eviction_pressure() {
        let ext = Extent::new2d(8, 8);
        let cache = PlanCache::new(1, 2);
        let (hot, cold, newcomer) = (program("hot", 1), program("cold", 2), program("p", 3));
        let key = |p: &StencilProgram| PlanKey::of(&fam(p), ext, OptLevel::Full);

        // Resolve-with-pin (the hot-session path) pins the entry.
        cache.resolve(&fam(&hot), ext, OptLevel::Full, true);
        get_or_compile(&cache, &cold, ext, OptLevel::Full);
        // `hot` is the LRU entry, but it is pinned: `cold` goes instead.
        get_or_compile(&cache, &newcomer, ext, OptLevel::Full);
        assert!(cache.contains(&key(&hot)), "pinned survives despite being LRU");
        assert!(!cache.contains(&key(&cold)));
        assert_eq!(cache.stats().pinned_entries, 1);

        // Unpin: the entry competes normally again.
        assert!(cache.unpin(&key(&hot)));
        get_or_compile(&cache, &program("q", 4), ext, OptLevel::Full);
        assert!(!cache.contains(&key(&hot)), "unpinned LRU entry evicts normally");

        // Pin APIs on absent keys are no-ops.
        assert!(!cache.pin(&key(&cold)));
        assert!(!cache.unpin(&key(&cold)));
        // Explicit pin of a resident entry works too.
        assert!(cache.pin(&key(&newcomer)));
        assert_eq!(cache.stats().pinned_entries, 1);
    }

    #[test]
    fn all_pinned_shard_still_bounds_capacity() {
        let ext = Extent::new2d(8, 8);
        let cache = PlanCache::new(1, 2);
        cache.resolve(&fam(&program("a", 1)), ext, OptLevel::Full, true);
        cache.resolve(&fam(&program("b", 2)), ext, OptLevel::Full, true);
        // Both residents pinned: the least recently used of them still goes,
        // so the shard cannot grow without bound.
        cache.resolve(&fam(&program("c", 3)), ext, OptLevel::Full, true);
        assert_eq!(cache.len(), 2, "capacity bound holds under total pin pressure");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn concurrent_same_key_compiles_exactly_once() {
        let cache = Arc::new(PlanCache::new(8, 64));
        let p = StencilProgram::jacobi_5pt();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let p = p.clone();
            handles.push(thread::spawn(move || {
                get_or_compile(&cache, &p, Extent::new2d(16, 16), OptLevel::Full).0
            }));
        }
        let kernels: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for k in &kernels[1..] {
            assert!(Arc::ptr_eq(&kernels[0], k));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "single-flight: one compilation total");
        assert_eq!(stats.compiles, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn warm_hits_share_the_lowered_tape() {
        // The tape is lowered inside CompiledKernel::compile, so a hit (the
        // same Arc) necessarily skips lowering: one miss, one tape, shared.
        let cache = PlanCache::new(2, 8);
        let p = StencilProgram::jacobi_5pt();
        let (cold, hit_cold) = get_or_compile(&cache, &p, Extent::new2d(8, 8), OptLevel::Full);
        let (warm, hit_warm) = get_or_compile(&cache, &p, Extent::new2d(8, 8), OptLevel::Full);
        assert!(!hit_cold);
        assert!(hit_warm);
        assert!(Arc::ptr_eq(&cold, &warm));
        assert!(std::ptr::eq(cold.tape(), warm.tape()), "one lowering, shared tape");
        assert!(warm.tape().stats().registers > 0);
    }

    #[test]
    fn plan_source_trait_resolves_through_the_cache() {
        let cache = PlanCache::new(2, 8);
        let p = StencilProgram::jacobi_5pt();
        let a = cache.plan_for(&p, Extent::new2d(8, 8), OptLevel::Full);
        let b = cache.plan_for(&p, Extent::new2d(8, 8), OptLevel::Full);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().hits, 1);
        assert!(!cache.is_empty());
    }

    /// A scripted fetcher: serves the compiled portable form (DAG attached,
    /// like a real cluster reply) for every key it can, recording how often
    /// it was consulted.
    #[derive(Debug)]
    struct ScriptedFetcher {
        calls: AtomicUsize,
        serve: bool,
    }

    impl PlanFetcher for ScriptedFetcher {
        fn fetch(&self, key: &PlanKey, program: &FamilyProgram) -> FetchOutcome {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if !self.serve {
                return FetchOutcome::Declined;
            }
            let extent = Extent::new2d(key.nx, key.ny);
            let artifact = program.compile(extent, key.level);
            FetchOutcome::Fetched(PortableKernel::from_compiled(program, &artifact, key.level))
        }
    }

    #[test]
    fn chained_resolution_prefers_the_fetcher_over_compiling() {
        let fetcher = Arc::new(ScriptedFetcher { calls: AtomicUsize::new(0), serve: true });
        let cache = PlanCache::new(2, 8).with_fetcher(Arc::clone(&fetcher) as Arc<dyn PlanFetcher>);
        let p = StencilProgram::jacobi_5pt();
        let (artifact, origin) =
            cache.resolve(&fam(&p), Extent::new2d(8, 8), OptLevel::Full, false);
        assert_eq!(origin, PlanOrigin::Fetched);
        assert_eq!(artifact.extent(), Extent::new2d(8, 8));
        assert_eq!(fetcher.calls.load(Ordering::SeqCst), 1);

        // The fetched plan is resident: the next lookup never re-fetches.
        let (_, origin) = cache.resolve(&fam(&p), Extent::new2d(8, 8), OptLevel::Full, false);
        assert_eq!(origin, PlanOrigin::Hit);
        assert_eq!(fetcher.calls.load(Ordering::SeqCst), 1, "hits skip the chain");

        let stats = cache.stats();
        assert_eq!((stats.misses, stats.fetches, stats.compiles), (1, 1, 0));
        assert_eq!(stats.hits, 1);

        // The fetched plan matches a local compilation bit-for-bit — DAG
        // included (the sender's optimization travelled; it did not re-run).
        let local = CompiledKernel::compile(&p, Extent::new2d(8, 8), OptLevel::Full);
        let kernel = artifact.expect_stencil();
        assert_eq!(kernel.tape(), local.tape());
        assert_eq!(kernel.dag(), local.dag());
    }

    /// A fetcher that panics on its first call (the leader's resolution
    /// dies) and declines afterwards.
    #[derive(Debug)]
    struct PanicOnceFetcher {
        panicked: std::sync::atomic::AtomicBool,
    }

    impl PlanFetcher for PanicOnceFetcher {
        fn fetch(&self, _key: &PlanKey, _program: &FamilyProgram) -> FetchOutcome {
            if !self.panicked.swap(true, Ordering::SeqCst) {
                panic!("fetcher exploded mid-flight");
            }
            FetchOutcome::Declined
        }
    }

    #[test]
    fn leader_panic_does_not_wedge_the_key() {
        let cache = PlanCache::new(2, 8)
            .with_fetcher(Arc::new(PanicOnceFetcher { panicked: Default::default() }));
        let p = StencilProgram::jacobi_5pt();
        let ext = Extent::new2d(8, 8);

        // The first resolve leads a flight whose resolution panics; the
        // flight guard must settle and retire the flight on the way out.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.resolve(&fam(&p), ext, OptLevel::Full, false)
        }));
        assert!(unwound.is_err(), "the panic propagates to the caller");

        // The key is not wedged: the next resolve leads a fresh flight and
        // compiles normally (the fetcher now declines).
        let (_, origin) = cache.resolve(&fam(&p), ext, OptLevel::Full, false);
        assert_eq!(origin, PlanOrigin::Compiled);
        let (_, origin) = cache.resolve(&fam(&p), ext, OptLevel::Full, false);
        assert_eq!(origin, PlanOrigin::Hit);

        // The panicked attempt moved no counters: the ledger still ties.
        let stats = cache.stats();
        assert_eq!(stats.misses, stats.compiles + stats.fetches, "{stats:?}");
        assert_eq!((stats.misses, stats.hits), (1, 1));
    }

    #[test]
    fn declining_fetcher_falls_back_to_local_compile() {
        let fetcher = Arc::new(ScriptedFetcher { calls: AtomicUsize::new(0), serve: false });
        let cache = PlanCache::new(2, 8).with_fetcher(Arc::clone(&fetcher) as Arc<dyn PlanFetcher>);
        let p = StencilProgram::jacobi_5pt();
        let (_, origin) = cache.resolve(&fam(&p), Extent::new2d(8, 8), OptLevel::Full, false);
        assert_eq!(origin, PlanOrigin::Compiled);
        assert_eq!(fetcher.calls.load(Ordering::SeqCst), 1, "the chain consulted the fetcher");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.fetches, stats.compiles), (1, 0, 1));
    }

    /// A fetcher returning the wrong plan (different block shape): the cache
    /// must reject it and compile locally rather than serve a mis-shaped
    /// kernel.
    #[derive(Debug)]
    struct WrongShapeFetcher;

    impl PlanFetcher for WrongShapeFetcher {
        fn fetch(&self, _key: &PlanKey, program: &FamilyProgram) -> FetchOutcome {
            FetchOutcome::Fetched(PortableKernel::pack(
                program,
                Extent::new2d(2, 2),
                OptLevel::Full,
            ))
        }
    }

    #[test]
    fn mismatched_fetch_results_are_discarded() {
        let cache = PlanCache::new(2, 8).with_fetcher(Arc::new(WrongShapeFetcher));
        let p = StencilProgram::jacobi_5pt();
        let (artifact, origin) =
            cache.resolve(&fam(&p), Extent::new2d(8, 8), OptLevel::Full, false);
        assert_eq!(origin, PlanOrigin::Compiled, "bad fetch falls through to compile");
        assert_eq!(artifact.extent(), Extent::new2d(8, 8), "the local compile is correctly shaped");
        assert_eq!(cache.stats().fetches, 0);
        assert_eq!(cache.stats().compiles, 1);
        assert_eq!(cache.stats().degraded_resolves, 1, "a discarded fetch is a degraded resolve");
    }

    /// A fetcher whose fetch attempt fails outright (dead owner, timeout):
    /// the compile fallback is metered as degraded, unlike a decline.
    #[derive(Debug)]
    struct FailingFetcher;

    impl PlanFetcher for FailingFetcher {
        fn fetch(&self, _key: &PlanKey, _program: &FamilyProgram) -> FetchOutcome {
            FetchOutcome::Failed
        }
    }

    #[test]
    fn failed_fetch_meters_a_degraded_resolve_but_a_decline_does_not() {
        let failing = PlanCache::new(2, 8).with_fetcher(Arc::new(FailingFetcher));
        let p = StencilProgram::jacobi_5pt();
        let (_, origin) = failing.resolve(&fam(&p), Extent::new2d(8, 8), OptLevel::Full, false);
        assert_eq!(origin, PlanOrigin::Compiled);
        let stats = failing.stats();
        assert_eq!((stats.compiles, stats.degraded_resolves), (1, 1));

        let declining = PlanCache::new(2, 8)
            .with_fetcher(Arc::new(ScriptedFetcher { calls: AtomicUsize::new(0), serve: false }));
        declining.resolve(&fam(&p), Extent::new2d(8, 8), OptLevel::Full, false);
        let stats = declining.stats();
        assert_eq!((stats.compiles, stats.degraded_resolves), (1, 0), "declines are not degraded");
    }

    #[test]
    fn families_share_one_cache_without_colliding() {
        let cache = PlanCache::new(4, 16);
        let ext = Extent::new2d(8, 8);
        let stencil = FamilyProgram::from(StencilProgram::jacobi_5pt());
        let particle = FamilyProgram::from(ParticleProgram::pair_sweep());
        let usgrid = FamilyProgram::from(UsGridProgram::jacobi4());

        // Keys never collide across families, even at identical shapes.
        let keys = [
            PlanKey::of(&stencil, ext, OptLevel::Full),
            PlanKey::of(&particle, ext, OptLevel::Full),
            PlanKey::of(&usgrid, ext, OptLevel::Full),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a.family, b.family);
                assert_ne!(a.fingerprint, b.fingerprint, "fingerprints are domain-separated");
            }
        }

        // Three distinct plans resolve into three entries; reuse hits.
        for p in [&stencil, &particle, &usgrid] {
            let (_, origin) = cache.resolve(p, ext, OptLevel::Full, false);
            assert_eq!(origin, PlanOrigin::Compiled);
            let (artifact, origin) = cache.resolve(p, ext, OptLevel::Full, false);
            assert_eq!(origin, PlanOrigin::Hit);
            assert_eq!(artifact.family(), p.family(), "the artifact is the program's own family");
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.entries), (3, 3, 3));
        assert_eq!(stats.collisions, 0);

        // Attribution: one miss + one hit per family lane, and the lanes sum
        // to the global counters.
        for family in KernelFamilyId::all() {
            assert_eq!(stats.for_family(family), FamilyLaneStats { hits: 1, misses: 1 });
        }
        assert_eq!(stats.family.iter().map(|l| l.hits).sum::<u64>(), stats.hits);
        assert_eq!(stats.family.iter().map(|l| l.misses).sum::<u64>(), stats.misses);
    }

    #[test]
    fn family_artifacts_survive_a_fetch_roundtrip() {
        // The chained fetcher serves particle and usgrid plans through the
        // same portable wire form the cluster uses.
        let fetcher = Arc::new(ScriptedFetcher { calls: AtomicUsize::new(0), serve: true });
        let cache = PlanCache::new(2, 8).with_fetcher(Arc::clone(&fetcher) as Arc<dyn PlanFetcher>);
        let ext = Extent::new2d(8, 8);
        for program in [
            FamilyProgram::from(ParticleProgram::pair_sweep()),
            FamilyProgram::from(UsGridProgram::jacobi4()),
        ] {
            let (artifact, origin) = cache.resolve(&program, ext, OptLevel::Full, false);
            assert_eq!(origin, PlanOrigin::Fetched);
            assert_eq!(artifact.family(), program.family());
            let local = program.compile(ext, OptLevel::Full);
            match (&artifact, &local) {
                (FamilyArtifact::Particle(a), FamilyArtifact::Particle(b)) => {
                    assert_eq!(a.as_ref(), b.as_ref())
                }
                (FamilyArtifact::UsGrid(a), FamilyArtifact::UsGrid(b)) => {
                    assert_eq!(a.as_ref(), b.as_ref())
                }
                other => panic!("unexpected artifact pairing: {other:?}"),
            }
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.fetches, stats.compiles), (2, 2, 0));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        PlanCache::new(0, 8);
    }
}
