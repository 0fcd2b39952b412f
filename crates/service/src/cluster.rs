//! The cluster mesh: N service nodes sharing compiled plans over the
//! simulated fabric — and surviving the death of any of them.
//!
//! A [`ClusterService`] stands up `N` [`KernelService`] nodes — each with its
//! own worker pool, session registry and [`PlanCache`] — connected by a
//! [`Communicator::mesh`] whose **control plane** carries the plan-sharing
//! protocol.  The result is the MPI-scale deployment shape the paper targets:
//! tenants land on a node (session affinity), execution stays node-local, and
//! the only cross-node traffic is metered control frames.
//!
//! # The plan-sharing protocol
//!
//! Every [`PlanKey`] has a deterministic **owner rank** — the highest
//! rendezvous-hash scorer among the *live* ranks
//! ([`rendezvous_owner`]) — the
//! cluster's single-flight arbiter for that plan:
//!
//! 1. A node missing locally asks its cache's chained
//!    [`PlanFetcher`] — here a [`ClusterFetcher`]
//!    holding a [`ControlHandle`] onto the mesh.  If the node *is* the
//!    owner (or the cluster is shutting down), the fetcher declines and the
//!    cache compiles locally.
//! 2. Otherwise the fetcher sends a `PLAN_REQ` control frame to the owner:
//!    a request id, the owner incarnation the requester believes it is
//!    addressing, plus the [`PortableKernel`] wire form of the wanted plan
//!    (program, block shape, opt level — enough for the owner to compile a
//!    plan it has never seen).
//! 3. The owner's **fabric thread** — the thread owning the node's
//!    [`Communicator`] endpoint — resolves the request against the owner's
//!    own cache (compiling at most once, its local single-flight) and
//!    replies with a `PLAN_REP` frame carrying the portable form plus the
//!    owner's incarnation number.
//! 4. The requester hydrates the portable form (re-lowering to a
//!    bit-identical tape; see [`aohpc_kernel::portable`]) and caches it.
//!
//! Each distinct plan is therefore **compiled exactly once per cluster** —
//! on its owner — and fetched (not recompiled) everywhere else: summed over
//! all nodes, [`PlanCacheStats::compiles`] equals the number of distinct
//! plans, the invariant the cluster tests assert.
//!
//! Requesters block on a reply holding **no lock** (the cache resolves
//! flights outside its shards), and owners serve requests with node-local
//! compilation only (the owner of a key never forwards), so the
//! request/serve mesh cannot deadlock.
//!
//! # Fault tolerance
//!
//! The cluster survives fail-stop node deaths without losing a job or
//! changing an answer, built from four mechanisms (see also
//! [`membership`](crate::membership) and [`fault`](crate::fault)):
//!
//! * **Liveness.**  Every node runs a *pacemaker* broadcasting heartbeats on
//!   the liveness frame class (tags above
//!   [`aohpc_runtime::LIVENESS_TAG_BASE`], metered outside the application
//!   control ledger) and sweeping a per-node [`Membership`] view: silent
//!   peers become *suspect*, then *dead*, each transition carrying an
//!   incarnation number and gossiped on `SUSPECT` frames so views converge.
//!   Under a [`FakeClock`] the pacemaker ticks on `advance`, making
//!   detection fully test-controlled.
//! * **Rejoin and arbitration.**  A heartbeat carries its sender's
//!   incarnation *and* a digest of its whole membership view.  A scripted
//!   [`FaultAction::Restart`] revives a killed service (cold cache — the
//!   process restarted) under a bumped incarnation; the returning rank's
//!   heartbeats announce the new incarnation, which revives peers' Dead
//!   entries outright (higher incarnation wins), and its plan ownership
//!   returns with the live view.  Digest mismatches trigger an
//!   anti-entropy exchange (`VIEW_PULL` → `VIEW_SYNC`: the full
//!   `(state, incarnation)` vector, lattice-merged), so views diverged by
//!   an asymmetric partition converge without waiting for every detector
//!   to re-time-out.  A rank that learns it stands accused refutes
//!   SWIM-style — outbids the accusation with a fresh incarnation and
//!   broadcasts it ([`MembershipStats::refutations`]).  Because nobody
//!   heartbeats a peer it believes dead, every eighth beat is also sent to
//!   Dead peers as a *probe*: harmless toward a truly dead rank (its old
//!   incarnation cannot resurrect the entry), but a rank falsely condemned
//!   behind a symmetric partition receives it, pulls the condemner's view,
//!   finds the accusation and refutes — so even a both-directions cut held
//!   past the death deadline heals into a rejoin instead of a deadlock of
//!   mutual silence.
//! * **Plan re-ownership.**  Owners are rendezvous-hashed over the *live*
//!   view, so when a rank dies only the keys it owned re-home (each to its
//!   second-highest scorer).  A fetch that times out suspects the owner,
//!   backs off (capped exponential, [`ClusterTuning::backoff_for`]), and
//!   retries against the freshly computed owner; only after the retry
//!   budget is spent does it degrade to a local compile — metered as
//!   [`PlanCacheStats::degraded_resolves`], never silent.
//! * **Checkpoint replay.**  A kill fail-stops a node at the **dequeue
//!   boundary**: jobs a worker already started finish (their superstep
//!   state is node-local and deterministic), queued jobs are orphaned to
//!   the cluster's *failover supervisor*, which replays them on a surviving
//!   node.  The deterministic stack makes the replay bit-identical; the
//!   report resolves the original submitter's [`JobHandle`] carrying a
//!   [`FailoverProvenance`], so zero jobs are lost and every failover is
//!   auditable per job.
//! * **Failure injection.**  A [`FaultPlan`] arms
//!   scripted kills, restarts, directional link cuts/heals, fabric wedges,
//!   and frame drops/delays into the cluster
//!   ([`ClusterService::with_fault_plan`]), driven by the same clock seam —
//!   the harness the fault-tolerance tests (and nobody else) pay for.
//!
//! Stale incarnations are fenced on both sides of the plan protocol: a late
//! `PLAN_REP` from a rank already declared dead carries a stale incarnation
//! and is dropped (metered as
//! [`MembershipStats::stale_replies_dropped`]) — the shutdown-vs-death race
//! cannot fulfil a live request with a dead node's reply — and a `PLAN_REQ`
//! addressed to an incarnation the owner has since superseded is dropped
//! unserved (metered as [`MembershipStats::stale_requests_dropped`]), so
//! the requester re-homes through its normal retry path instead of
//! trusting a plan negotiated with a previous life.

use crate::cache::{FetchOutcome, PlanCache, PlanCacheStats, PlanFetcher, PlanKey};
use crate::fault::{FaultAction, FaultPlan, FaultState, Interception};
use crate::job::{
    FailoverProvenance, JobErrorKind, JobHandle, JobId, JobOutcome, JobReport, JobSpec,
};
use crate::membership::{
    rendezvous_owner, ClusterTuning, Membership, MembershipStats, NodeState, Transition,
};
use crate::service::{
    obs_snapshot, KernelService, OrphanSink, OrphanedJob, ServiceClock, ServiceConfig, SubmitError,
};
use crate::session::{CompletionStream, SessionCtx, SessionId, SessionMeter, SessionSpec};
use aohpc_aop::{attr, names, JoinPointKind, Weaver, WovenProgram};
use aohpc_kernel::{FamilyProgram, OptLevel, PortableKernel};
use aohpc_obs::{current_context, CommCounters, ObsHub, ObsServiceAspect, ObsSnapshot};
use aohpc_runtime::{
    CommProbe, CommStats, Communicator, ControlFrame, ControlHandle, LIVENESS_TAG_BASE,
};
use aohpc_testalloc::sync::FakeClock;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Control-plane tag: stop the receiving fabric thread.
pub const TAG_SHUTDOWN: u32 = 0;
/// Control-plane tag: plan request (`req_id` + portable kernel bytes).
pub const TAG_PLAN_REQ: u32 = 1;
/// Control-plane tag: plan reply (`req_id` + sender incarnation + status +
/// portable kernel bytes).
pub const TAG_PLAN_REP: u32 = 2;
/// Liveness-class tag: heartbeat (payload: sender's incarnation + a digest
/// of its whole membership view, [`Membership::digest`]).  The digest is
/// the anti-entropy trigger: a receiver holding a different view pulls the
/// sender's full vector and lattice-merges it.
pub const TAG_HEARTBEAT: u32 = LIVENESS_TAG_BASE;
/// Liveness-class tag: membership gossip (`subject` + state + incarnation).
/// The originator of a suspect/dead transition — or of a refutation —
/// broadcasts it so views converge without every detector timing out
/// independently.
pub const TAG_SUSPECT: u32 = LIVENESS_TAG_BASE + 1;
/// Liveness-class tag: anti-entropy pull (empty payload) — "your heartbeat
/// digest differs from my view; send me your full vector".
pub const TAG_VIEW_PULL: u32 = LIVENESS_TAG_BASE + 2;
/// Liveness-class tag: anti-entropy sync — the sender's full
/// `(state, incarnation)` vector, one 9-byte entry per rank, lattice-merged
/// by the receiver ([`Membership::merge_view`]).
pub const TAG_VIEW_SYNC: u32 = LIVENESS_TAG_BASE + 3;

/// The well-mixed hash of a plan key that rendezvous scoring runs on; every
/// node computes the same hash for the same key.
fn key_hash(key: &PlanKey) -> u64 {
    let fp = key.fingerprint.as_u128();
    (fp as u64)
        ^ ((fp >> 64) as u64)
        ^ ((key.nx as u64) << 32)
        ^ (key.ny as u64)
        ^ ((key.family.tag() as u64) << 48)
        ^ match key.level {
            OptLevel::None => 0,
            OptLevel::Full => 1 << 16,
        }
}

/// The rank that would own `spec`'s plan among `candidates` — the
/// re-ownership preview surface.
///
/// Matches the fetch path exactly: the plan key is the spec's program
/// fingerprint plus its primary block extent and optimization level, and the
/// scoring is the same rendezvous hash every fetcher runs.  Operators use it
/// to predict plan placement; fault drills use it to build deterministic
/// schedules ("kill the owner of this plan and watch the key re-home").
pub fn plan_owner_among(spec: &JobSpec, candidates: &[usize]) -> usize {
    let primary =
        aohpc_env::Extent::new2d(spec.block.min(spec.region.nx), spec.block.min(spec.region.ny));
    let key = PlanKey::of(&spec.program, primary, spec.opt_level);
    rendezvous_owner(key_hash(&key), candidates)
}

/// A membership state on the wire (`SUSPECT` and `VIEW_SYNC` payloads).
fn state_byte(state: NodeState) -> u8 {
    match state {
        NodeState::Alive => 0,
        NodeState::Suspect => 1,
        NodeState::Dead => 2,
    }
}

fn decode_state(byte: u8) -> Option<NodeState> {
    [NodeState::Alive, NodeState::Suspect, NodeState::Dead].get(usize::from(byte)).copied()
}

/// The `SUSPECT` gossip payload: subject rank, claimed state, incarnation.
fn suspect_payload(t: &Transition) -> Vec<u8> {
    let mut bytes = (t.subject as u64).to_le_bytes().to_vec();
    bytes.push(state_byte(t.to));
    bytes.extend_from_slice(&t.incarnation.to_le_bytes());
    bytes
}

fn decode_suspect(bytes: &[u8]) -> Option<(usize, NodeState, u64)> {
    if bytes.len() != 17 {
        return None;
    }
    let subject = u64::from_le_bytes(bytes[..8].try_into().ok()?) as usize;
    let incarnation = u64::from_le_bytes(bytes[9..17].try_into().ok()?);
    Some((subject, decode_state(bytes[8])?, incarnation))
}

/// The `VIEW_SYNC` payload: the full membership vector, 9 bytes per rank
/// (state byte + incarnation).
fn view_payload(entries: &[(NodeState, u64)]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(entries.len() * 9);
    for (state, incarnation) in entries {
        bytes.push(state_byte(*state));
        bytes.extend_from_slice(&incarnation.to_le_bytes());
    }
    bytes
}

fn decode_view(bytes: &[u8]) -> Option<Vec<(NodeState, u64)>> {
    if bytes.is_empty() || !bytes.len().is_multiple_of(9) {
        return None;
    }
    bytes
        .chunks_exact(9)
        .map(|entry| {
            Some((decode_state(entry[0])?, u64::from_le_bytes(entry[1..9].try_into().ok()?)))
        })
        .collect()
}

/// Record an incarnation-arbitrated revival through the `CLUSTER_REJOIN`
/// join point: `node` = the reviving rank, `step` = its new incarnation,
/// `ok` = 1 for a restart rejoin, 0 for a refutation.
fn dispatch_rejoin(woven: Option<&WovenProgram>, node: usize, incarnation: u64, restart: bool) {
    if let Some(woven) = woven {
        let attrs = [(attr::NODE, node as i64), (attr::STEP, incarnation as i64)];
        woven.dispatch_returning(names::CLUSTER_REJOIN, JoinPointKind::Call, &attrs, |ctx| {
            ctx.set_attr(attr::OK, i64::from(restart));
        });
    }
}

/// Broadcast a locally-originated membership transition to every peer and
/// record it through the `CLUSTER_SUSPECT` join point (attrs: `node` = the
/// subject, `ok` = 1 for a suspicion, 0 for a death).  Only the originator
/// broadcasts — adopted claims are not re-gossiped, so there is no storm.
fn publish_transition(
    handle: &ControlHandle<f64>,
    ranks: usize,
    woven: Option<&WovenProgram>,
    t: &Transition,
) {
    let payload = suspect_payload(t);
    for peer in 0..ranks {
        if peer != handle.rank() {
            let _ = handle.send(peer, TAG_SUSPECT, payload.clone());
        }
    }
    if let Some(woven) = woven {
        if t.to != NodeState::Alive {
            let attrs = [(attr::NODE, t.subject as i64)];
            woven.dispatch_returning(names::CLUSTER_SUSPECT, JoinPointKind::Call, &attrs, |ctx| {
                ctx.set_attr(attr::OK, i64::from(t.to == NodeState::Suspect));
            });
        }
    }
}

/// One in-flight plan request: the fabric thread resolves it with the reply
/// payload (`Some(bytes)`) or a decline (`None`).
struct ReplySlot {
    state: StdMutex<Option<Option<Vec<u8>>>>,
    cv: Condvar,
}

impl ReplySlot {
    fn new() -> Arc<Self> {
        Arc::new(ReplySlot { state: StdMutex::new(None), cv: Condvar::new() })
    }

    fn resolve(&self, payload: Option<Vec<u8>>) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.is_none() {
            *state = Some(payload);
        }
        drop(state);
        self.cv.notify_all();
    }

    fn wait(&self, timeout: Duration) -> Option<Vec<u8>> {
        // A fixed deadline, not a per-iteration timeout: spurious condvar
        // wakeups (which std permits) must not restart the window.
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(payload) = state.take() {
                return payload;
            }
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (next, _) =
                self.cv.wait_timeout(state, remaining).unwrap_or_else(|p| p.into_inner());
            state = next;
        }
    }
}

/// The reply router one node's fetchers and fabric thread share.  Every slot
/// remembers which rank it is waiting on, so a suspicion or death verdict
/// can fail the slots aimed at that rank immediately instead of letting
/// their fetchers wait out the timeout.
struct PendingReplies {
    next_req: AtomicU64,
    slots: StdMutex<HashMap<u64, (usize, Arc<ReplySlot>)>>,
}

impl PendingReplies {
    fn new() -> Arc<Self> {
        Arc::new(PendingReplies {
            next_req: AtomicU64::new(0),
            slots: StdMutex::new(HashMap::new()),
        })
    }

    fn register(&self, owner: usize) -> (u64, Arc<ReplySlot>) {
        let id = self.next_req.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = ReplySlot::new();
        self.slots.lock().unwrap_or_else(|p| p.into_inner()).insert(id, (owner, Arc::clone(&slot)));
        (id, slot)
    }

    fn take(&self, id: u64) -> Option<Arc<ReplySlot>> {
        self.slots.lock().unwrap_or_else(|p| p.into_inner()).remove(&id).map(|(_, slot)| slot)
    }

    /// Fail every request waiting on `rank`: its waiters wake now and re-home
    /// against the next owner.
    fn fail_rank(&self, rank: usize) {
        let slots: Vec<_> = {
            let mut map = self.slots.lock().unwrap_or_else(|p| p.into_inner());
            let ids: Vec<u64> =
                map.iter().filter(|(_, (owner, _))| *owner == rank).map(|(id, _)| *id).collect();
            ids.into_iter().filter_map(|id| map.remove(&id)).map(|(_, slot)| slot).collect()
        };
        for slot in slots {
            slot.resolve(None);
        }
    }

    /// Fail every outstanding request (fabric thread exit): waiters wake and
    /// degrade to local compiles.
    fn fail_all(&self) {
        let slots: Vec<_> = {
            let mut map = self.slots.lock().unwrap_or_else(|p| p.into_inner());
            map.drain().map(|(_, (_, slot))| slot).collect()
        };
        for slot in slots {
            slot.resolve(None);
        }
    }
}

/// The cluster-fetch stage of one node's plan-resolution chain: asks the
/// key's owner rank — rendezvous-hashed over the live membership view — for
/// the portable plan, retrying with capped exponential backoff (and a fresh
/// owner computation) when the owner goes silent.
pub struct ClusterFetcher {
    rank: usize,
    handle: ControlHandle<f64>,
    pending: Arc<PendingReplies>,
    membership: Arc<Membership>,
    clock: ServiceClock,
    shutting_down: Arc<AtomicBool>,
    /// When the cluster carries an observer, cross-node requests dispatch
    /// through this woven program so the obs aspect wraps each round trip in
    /// a span — parented, via the calling worker's thread-local span
    /// context, into the requesting job's trace.
    obs_woven: Option<WovenProgram>,
}

impl ClusterFetcher {
    /// The actual request/reply round trip to `owner`.
    fn fetch_from(
        &self,
        owner: usize,
        key: &PlanKey,
        program: &FamilyProgram,
    ) -> Option<PortableKernel> {
        let (req_id, slot) = self.pending.register(owner);
        let portable =
            PortableKernel::pack(program, aohpc_env::Extent::new2d(key.nx, key.ny), key.level);
        let mut payload = req_id.to_le_bytes().to_vec();
        // Name the incarnation this request is addressed to: if the owner
        // restarts before serving it, the request is provably from its
        // previous life and the owner drops it rather than honoring it.
        payload.extend_from_slice(&self.membership.incarnation_of(owner).to_le_bytes());
        payload.extend_from_slice(&portable.to_bytes());
        if !self.handle.send(owner, TAG_PLAN_REQ, payload) {
            self.pending.take(req_id);
            return None;
        }
        let bytes = slot.wait(self.membership.tuning().fetch_timeout);
        self.pending.take(req_id);
        PortableKernel::from_bytes(&bytes?).ok()
    }

    /// One attempt against `owner`, wrapped in a `CLUSTER_PLAN_REQ` span when
    /// an observer is installed (declines and backoffs are local decisions,
    /// not cross-node traffic, so only real requests get spans).
    fn fetch_attempt(
        &self,
        owner: usize,
        key: &PlanKey,
        program: &FamilyProgram,
    ) -> Option<PortableKernel> {
        let Some(woven) = &self.obs_woven else {
            return self.fetch_from(owner, key, program);
        };
        let (trace, parent) = current_context().unwrap_or((0, 0));
        let attrs = [
            (attr::TRACE, trace as i64),
            (attr::PARENT, parent as i64),
            (attr::NODE, owner as i64),
        ];
        woven.dispatch_returning(names::CLUSTER_PLAN_REQ, JoinPointKind::Call, &attrs, |ctx| {
            let plan = self.fetch_from(owner, key, program);
            ctx.set_attr(attr::OK, i64::from(plan.is_some()));
            plan
        })
    }
}

impl PlanFetcher for ClusterFetcher {
    fn fetch(&self, key: &PlanKey, program: &FamilyProgram) -> FetchOutcome {
        if self.membership.ranks() <= 1 || self.shutting_down.load(Ordering::SeqCst) {
            return FetchOutcome::Declined;
        }
        let hash = key_hash(key);
        let tuning = self.membership.tuning();
        let mut attempt = 0u32;
        loop {
            if self.shutting_down.load(Ordering::SeqCst) {
                return FetchOutcome::Declined;
            }
            // Re-read the live view every attempt: a dead owner's keys
            // re-home, so the retry goes to the *new* owner, not the corpse.
            let owner = rendezvous_owner(hash, &self.membership.live_view());
            if owner == self.rank {
                // This node IS the single-flight arbiter: compile locally.
                return FetchOutcome::Declined;
            }
            if let Some(plan) = self.fetch_attempt(owner, key, program) {
                return FetchOutcome::Fetched(plan);
            }
            // Silence is evidence: suspect the owner (starting its cooldown)
            // so the next attempt — and every other fetcher — re-homes
            // instead of burning its budget against the same silent rank.
            if let Some(t) = self.membership.suspect(owner, self.clock.now()) {
                publish_transition(
                    &self.handle,
                    self.membership.ranks(),
                    self.obs_woven.as_ref(),
                    &t,
                );
            }
            self.pending.fail_rank(owner);
            if attempt >= tuning.fetch_retries {
                // Budget spent: the cache compiles locally and meters the
                // degraded resolve.
                return FetchOutcome::Failed;
            }
            std::thread::sleep(tuning.backoff_for(attempt));
            attempt += 1;
        }
    }
}

impl fmt::Debug for ClusterFetcher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterFetcher")
            .field("rank", &self.rank)
            .field("ranks", &self.membership.ranks())
            .finish()
    }
}

/// Serve one `PLAN_REQ` payload (req id + expected owner incarnation +
/// portable kernel bytes) against the owner's local cache, returning the
/// reply frame (req id + serving rank's incarnation + status byte +
/// compiled portable bytes).  The expected-incarnation guard runs *before*
/// this (a stale request is dropped, not served).
fn serve_plan_req(cache: &PlanCache, bytes: &[u8], incarnation: u64) -> Vec<u8> {
    let req_id: [u8; 8] = bytes[..8].try_into().expect("eight bytes");
    let mut reply = req_id.to_vec();
    reply.extend_from_slice(&incarnation.to_le_bytes());
    match PortableKernel::from_bytes(&bytes[16..]) {
        Ok(portable) => {
            // Resolve against the local cache: the owner's local
            // single-flight makes this the cluster's one compile for the key
            // (its own fetcher declines owned keys, so no forwarding loop is
            // possible).  The reply carries the *compiled* form — optimized
            // DAG attached — so the requester skips the optimizer and only
            // re-lowers plan and tape.
            let (artifact, _) =
                cache.resolve(portable.program(), portable.extent(), portable.level(), false);
            let compiled =
                PortableKernel::from_compiled(portable.program(), &artifact, portable.level());
            reply.push(1);
            reply.extend_from_slice(&compiled.to_bytes());
        }
        Err(_) => reply.push(0),
    }
    reply
}

/// Everything one fabric thread works with besides the communicator it owns.
struct Fabric {
    cache: Arc<PlanCache>,
    pending: Arc<PendingReplies>,
    membership: Arc<Membership>,
    fault: Option<Arc<FaultState>>,
    clock: ServiceClock,
    shutting_down: Arc<AtomicBool>,
    obs_woven: Option<WovenProgram>,
}

impl Fabric {
    /// The per-node fabric loop: owns the node's [`Communicator`] endpoint,
    /// serves `PLAN_REQ` frames from its cache, routes `PLAN_REP` frames to
    /// waiting fetchers, folds heartbeats and gossip into the membership
    /// view, and applies the fault harness's frame perturbations.  Exits on
    /// `TAG_SHUTDOWN` (the only reliable stop signal — a live endpoint's
    /// channel never disconnects, see [`Communicator::recv_control`]),
    /// failing all outstanding requests on the way out.
    fn run(self, mut comm: Communicator<f64>) {
        let rank = comm.rank();
        'fabric: while let Some(frame) = comm.recv_control() {
            if !self.process(rank, &mut comm, frame, true) {
                break 'fabric;
            }
            // Frames the fault harness held are re-injected once due —
            // skipping re-interception, or a delay rule would re-hold them.
            if let Some(fault) = &self.fault {
                for released in fault.take_released(rank, self.clock.now()) {
                    if !self.process(rank, &mut comm, released, false) {
                        break 'fabric;
                    }
                }
            }
        }
        self.pending.fail_all();
    }

    /// Handle one frame; `false` means shutdown.
    fn process(
        &self,
        rank: usize,
        comm: &mut Communicator<f64>,
        frame: ControlFrame,
        intercept: bool,
    ) -> bool {
        if frame.tag == TAG_SHUTDOWN {
            return false;
        }
        let now = self.clock.now();
        if let Some(fault) = &self.fault {
            if intercept {
                match fault.intercept(rank, &frame, now) {
                    Interception::Dropped | Interception::Held => return true,
                    Interception::Deliver => {}
                }
            }
            // A wedged fabric parks mid-stream: frames pile up behind it and
            // its silence earns it a suspicion, exactly like a descheduled
            // or livelocked fabric thread would.  Shutdown un-parks it so
            // teardown cannot hang on a script that never unwedges.
            while fault.is_wedged(rank) && !self.shutting_down.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_micros(200));
            }
            if fault.is_killed(rank) && frame.tag != TAG_PLAN_REP {
                // Fail-stop: a dead node neither serves, gossips, nor
                // observes.  Replies to fetches its still-running jobs
                // issued are the one exception — the kill boundary is the
                // dequeue, so work a worker already started completes.
                return true;
            }
        }
        // Any frame from a current-incarnation peer is liveness evidence.
        if frame.from != rank && frame.from < self.membership.ranks() {
            let evidence_incarnation = if frame.tag == TAG_HEARTBEAT {
                frame
                    .bytes
                    .get(..8)
                    .and_then(|b| b.try_into().ok())
                    .map(u64::from_le_bytes)
                    .unwrap_or_else(|| self.membership.incarnation_of(frame.from))
            } else {
                self.membership.incarnation_of(frame.from)
            };
            let _ = self.membership.observe_alive(frame.from, evidence_incarnation, now);
        }
        match frame.tag {
            TAG_HEARTBEAT => {
                // Liveness evidence was folded above; what remains is the
                // anti-entropy trigger: a sender advertising a different
                // view digest holds evidence we lack (or vice versa), so
                // pull its full vector.  Converged views — the steady state
                // — exchange no sync traffic at all.
                let theirs =
                    frame.bytes.get(8..16).and_then(|b| b.try_into().ok()).map(u64::from_le_bytes);
                if theirs.is_some_and(|digest| digest != self.membership.digest()) {
                    let _ = comm.send_control(frame.from, TAG_VIEW_PULL, Vec::new());
                }
            }
            TAG_SUSPECT => {
                if let Some((subject, state, incarnation)) = decode_suspect(&frame.bytes) {
                    if subject < self.membership.ranks() {
                        if let Some(t) = self.membership.adopt(subject, state, incarnation, now) {
                            self.react(rank, comm, &t);
                        }
                    }
                }
            }
            TAG_VIEW_PULL => {
                let reply = view_payload(&self.membership.view_entries());
                let _ = comm.send_control(frame.from, TAG_VIEW_SYNC, reply);
            }
            TAG_VIEW_SYNC => {
                if let Some(entries) = decode_view(&frame.bytes) {
                    for t in self.membership.merge_view(&entries, now) {
                        self.react(rank, comm, &t);
                    }
                }
            }
            TAG_PLAN_REQ => {
                if frame.bytes.len() < 16 {
                    return true; // malformed: no req id / expected incarnation
                }
                let expected =
                    u64::from_le_bytes(frame.bytes[8..16].try_into().expect("eight bytes"));
                // A request addressed to a previous life of this rank: the
                // requester (or its view) predates our restart.  Drop it —
                // the requester's timeout re-homes the key against the live
                // view, which its heartbeats have meanwhile refreshed.
                if !self.membership.accepts_request(expected) {
                    return true;
                }
                let incarnation = self.membership.incarnation_of(rank);
                let reply = match &self.obs_woven {
                    None => serve_plan_req(&self.cache, &frame.bytes, incarnation),
                    Some(woven) => woven.dispatch_returning(
                        names::CLUSTER_PLAN_REP,
                        JoinPointKind::Execution,
                        &[(attr::NODE, rank as i64)],
                        |ctx| {
                            let bytes = serve_plan_req(&self.cache, &frame.bytes, incarnation);
                            ctx.set_attr(attr::OK, i64::from(bytes.get(16) == Some(&1)));
                            bytes
                        },
                    ),
                };
                // A vanished requester is not an error mid-shutdown.
                let _ = comm.send_control(frame.from, TAG_PLAN_REP, reply);
            }
            TAG_PLAN_REP => {
                if frame.bytes.len() < 17 {
                    return true;
                }
                let req_id = u64::from_le_bytes(frame.bytes[..8].try_into().expect("eight bytes"));
                let incarnation =
                    u64::from_le_bytes(frame.bytes[8..16].try_into().expect("eight bytes"));
                // The shutdown-vs-death race: a reply sent before its sender
                // was declared dead carries the stale incarnation and must
                // not fulfil a live slot.
                if !self.membership.accepts_reply(frame.from, incarnation) {
                    return true;
                }
                let payload = (frame.bytes[16] == 1).then(|| frame.bytes[17..].to_vec());
                if let Some(slot) = self.pending.take(req_id) {
                    slot.resolve(payload);
                }
            }
            _ => {} // unknown tags are ignored (future protocol extensions)
        }
        true
    }

    /// Act on one locally-adopted membership transition.  A condemnation
    /// wakes the fetchers parked on the subject (they re-home now, not at
    /// their timeout).  A refutation — an accusation against *this* rank
    /// that [`Membership::adopt`] outbid with a fresh incarnation — is
    /// broadcast so the accuser (and everyone it gossiped to) adopts the
    /// new incarnation, and is recorded through the `CLUSTER_REJOIN` join
    /// point (`ok` = 0).
    fn react(&self, rank: usize, comm: &mut Communicator<f64>, t: &Transition) {
        if t.subject == rank && t.to == NodeState::Alive {
            let payload = suspect_payload(t);
            for peer in 0..self.membership.ranks() {
                if peer != rank {
                    let _ = comm.send_control(peer, TAG_SUSPECT, payload.clone());
                }
            }
            dispatch_rejoin(self.obs_woven.as_ref(), rank, t.incarnation, false);
        } else if t.to != NodeState::Alive {
            self.pending.fail_rank(t.subject);
        }
    }
}

/// One node's heartbeat source and deadline sweeper, plus the fault
/// schedule's driver.
struct PacemakerCtx {
    rank: usize,
    stop: Arc<AtomicBool>,
    handle: ControlHandle<f64>,
    membership: Arc<Membership>,
    pending: Arc<PendingReplies>,
    fault: Option<Arc<FaultState>>,
    clock: ServiceClock,
    supervisor_tx: Sender<SupervisorMsg>,
    obs_woven: Option<WovenProgram>,
    beats: AtomicU64,
}

/// Every this-many beats, a heartbeat is also sent to peers this node
/// believes dead.  An old-incarnation heartbeat can never resurrect a dead
/// entry, so the probe is harmless toward ranks that really died — but a
/// rank falsely condemned during a symmetric partition receives the probe,
/// notices the digest mismatch, pulls the condemner's view, finds the
/// accusation against itself, and refutes with a fresh incarnation.
/// Without the probe nobody beats toward a Dead peer, so such a rank would
/// never learn of its condemnation and could never rejoin after the heal.
const DEAD_PROBE_EVERY: u64 = 8;

impl PacemakerCtx {
    fn beat(&self) {
        if self.stop.load(Ordering::SeqCst) {
            return;
        }
        let now = self.clock.now();
        if let Some(fault) = &self.fault {
            // Whichever pacemaker observes the schedule first executes it
            // (`drive` pops each action exactly once); kills and restarts
            // are routed to the supervisor, which owns the node handles,
            // and link events are recorded at the `CLUSTER_PARTITION` join
            // point (`drive` already flipped the cut matrix).
            for action in fault.drive(now) {
                match action {
                    FaultAction::Kill(rank) => {
                        let _ = self.supervisor_tx.send(SupervisorMsg::Kill(rank));
                    }
                    FaultAction::Restart(rank) => {
                        let _ = self.supervisor_tx.send(SupervisorMsg::Restart(rank));
                    }
                    FaultAction::Partition { from, to } => self.link_event(from, to, false),
                    FaultAction::Heal { from, to } => self.link_event(from, to, true),
                    FaultAction::Wedge(_) | FaultAction::Unwedge(_) => {}
                }
            }
            if fault.is_killed(self.rank) || fault.is_wedged(self.rank) {
                return; // a dead or wedged node goes silent
            }
        }
        let probe = self.beats.fetch_add(1, Ordering::Relaxed).is_multiple_of(DEAD_PROBE_EVERY);
        let incarnation = self.membership.incarnation_of(self.rank);
        let mut beat = incarnation.to_le_bytes().to_vec();
        beat.extend_from_slice(&self.membership.digest().to_le_bytes());
        for peer in 0..self.membership.ranks() {
            if peer != self.rank && (probe || self.membership.state_of(peer) != NodeState::Dead) {
                let _ = self.handle.send(peer, TAG_HEARTBEAT, beat.clone());
            }
        }
        for t in self.membership.tick(now) {
            // Fetchers parked on a condemned rank wake and re-home now, not
            // at their timeout.
            self.pending.fail_rank(t.subject);
            publish_transition(&self.handle, self.membership.ranks(), self.obs_woven.as_ref(), &t);
        }
    }

    /// Record one scripted link event through the `CLUSTER_PARTITION` join
    /// point (`node` = sending side of the direction, `rank` = receiving
    /// side, `ok` = 1 for a heal, 0 for a cut).
    fn link_event(&self, from: usize, to: usize, healed: bool) {
        if let Some(woven) = &self.obs_woven {
            let attrs = [(attr::NODE, from as i64), (attr::RANK, to as i64)];
            woven.dispatch_returning(
                names::CLUSTER_PARTITION,
                JoinPointKind::Call,
                &attrs,
                |ctx| {
                    ctx.set_attr(attr::OK, i64::from(healed));
                },
            );
        }
    }
}

/// A running pacemaker: a joinable thread (wall clock) or — no thread — a
/// permanent `on_advance` registration (fake clock; it outlives the cluster).
/// Either way the stop flag is the off switch.
struct Pacemaker {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// The failover supervisor's intake.
enum SupervisorMsg {
    /// Execute a scripted fail-stop of `rank` (from the fault schedule).
    Kill(usize),
    /// Execute a scripted restart of a killed `rank`: revive its service
    /// (cold cache) and restart its membership under a fresh incarnation.
    Restart(usize),
    /// A job stranded on killed rank `from`, to be replayed on a survivor.
    Orphan { from: usize, orphan: Box<OrphanedJob> },
    /// Cluster shutdown: finish in-flight replays, then exit.
    Stop,
}

/// One orphan mid-replay on its target node.
struct Replay {
    from: usize,
    to: usize,
    orphan: OrphanedJob,
    handle: JobHandle,
}

/// The cluster's recovery authority: executes scripted kills, replays
/// orphaned jobs on survivors, and settles each orphan's original handle
/// with the replay's (bit-identical) report plus failover provenance.
struct Supervisor {
    nodes: Vec<Arc<KernelService>>,
    /// The per-rank membership views, for restarting a revived rank's view
    /// under its bumped incarnation.
    memberships: Vec<Arc<Membership>>,
    clock: ServiceClock,
    rx: Receiver<SupervisorMsg>,
    obs_woven: Option<WovenProgram>,
    /// One replay session per target node, opened lazily.
    sessions: HashMap<usize, SessionId>,
    inflight: Vec<Replay>,
}

impl Supervisor {
    fn run(mut self) {
        let mut stopping = false;
        loop {
            // Block only when truly idle; while replays are in flight, poll
            // them between short waits (event-driven, never a serial wait —
            // a second kill arriving mid-replay must still be executed).
            let msg = if self.inflight.is_empty() && !stopping {
                match self.rx.recv() {
                    Ok(msg) => Some(msg),
                    Err(_) => break,
                }
            } else {
                match self.rx.recv_timeout(Duration::from_millis(2)) {
                    Ok(msg) => Some(msg),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        stopping = true;
                        None
                    }
                }
            };
            if let Some(msg) = msg {
                stopping |= self.handle(msg);
            }
            self.poll_inflight();
            if stopping && self.inflight.is_empty() {
                // Late orphans (a kill racing shutdown) still get replayed.
                let mut drained_any = false;
                while let Ok(msg) = self.rx.try_recv() {
                    self.handle(msg);
                    drained_any = true;
                }
                if !drained_any && self.inflight.is_empty() {
                    break;
                }
            }
        }
    }

    /// Act on one message; `true` for `Stop`.
    fn handle(&mut self, msg: SupervisorMsg) -> bool {
        match msg {
            SupervisorMsg::Kill(rank) => self.nodes[rank].kill_for_failover(),
            SupervisorMsg::Restart(rank) => self.restart(rank),
            SupervisorMsg::Orphan { from, orphan } => self.replay(from, *orphan),
            SupervisorMsg::Stop => return true,
        }
        false
    }

    /// Execute a scripted restart: revive the killed service — cold cache,
    /// the process restarted — and restart its membership view under a
    /// bumped incarnation.  The revived rank re-announces itself through
    /// its own pacemaker's next heartbeat; peers revive their Dead entry by
    /// incarnation arbitration, its plan ownership returns with the live
    /// view, and its cache re-warms through the normal fetcher path.
    /// Recorded at the `CLUSTER_REJOIN` join point (`ok` = 1).
    fn restart(&self, rank: usize) {
        if !self.nodes[rank].revive_after_failover() {
            return; // a restart without a preceding kill is a no-op
        }
        let incarnation = self.memberships[rank].restart(self.clock.now());
        dispatch_rejoin(self.obs_woven.as_ref(), rank, incarnation, true);
    }

    /// The survivor a stranded job re-homes to: rendezvous-hashed over the
    /// not-killed ranks so a batch of orphans spreads instead of dogpiling
    /// one node.
    fn pick_target(&self, from: usize, job: JobId, candidates: &[usize]) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        Some(rendezvous_owner(job ^ ((from as u64) << 48), candidates))
    }

    fn replay(&mut self, from: usize, orphan: OrphanedJob) {
        let original_job = orphan.cell.job;
        let mut candidates: Vec<usize> =
            (0..self.nodes.len()).filter(|&r| r != from && !self.nodes[r].is_killed()).collect();
        // A target can die between pick and submit (a second kill racing
        // this replay); fall through to the remaining survivors before
        // giving up on the job.
        while let Some(to) = self.pick_target(from, original_job, &candidates) {
            let session = *self.sessions.entry(to).or_insert_with(|| {
                self.nodes[to].open_session(SessionSpec::tenant("cluster-failover"))
            });
            match self.nodes[to].submit(session, orphan.spec.clone()) {
                Ok(handle) => {
                    self.inflight.push(Replay { from, to, orphan, handle });
                    return;
                }
                Err(_) => candidates.retain(|&r| r != to),
            }
        }
        // No survivor exists: resolve the orphan's handle so nothing hangs.
        let abandoned = orphan.cell.error(JobErrorKind::Abandoned);
        self.nodes[from].resolve_orphan(&orphan.cell, Err(abandoned));
    }

    fn poll_inflight(&mut self) {
        let mut index = 0;
        while index < self.inflight.len() {
            if let Some(outcome) = self.inflight[index].handle.poll() {
                let replay = self.inflight.swap_remove(index);
                self.finalize(replay, outcome);
            } else {
                index += 1;
            }
        }
    }

    /// Close one finished replay: stamp the report with provenance, resolve
    /// the orphan on the node that handed it off (handle and stream entry
    /// were left open for this), and record the `CLUSTER_FAILOVER` join
    /// point.
    fn finalize(&self, replay: Replay, outcome: JobOutcome) {
        let Replay { from, to, orphan, .. } = replay;
        let original_job = orphan.cell.job;
        let outcome: JobOutcome = match outcome {
            Ok(mut report) => {
                report.failover = Some(FailoverProvenance {
                    from_node: from,
                    to_node: to,
                    original_job,
                    checkpoint_steps: orphan.watermark.steps,
                });
                Ok(report)
            }
            Err(err) => Err(orphan.cell.error(err.kind)),
        };
        let ok = outcome.is_ok();
        self.nodes[from].resolve_orphan(&orphan.cell, outcome);
        if let Some(woven) = &self.obs_woven {
            let attrs = [(attr::NODE, to as i64), (attr::JOB, original_job as i64)];
            woven.dispatch_returning(
                names::CLUSTER_FAILOVER,
                JoinPointKind::Execution,
                &attrs,
                |ctx| ctx.set_attr(attr::OK, i64::from(ok)),
            );
        }
    }
}

/// A session opened on a cluster: which node owns it plus the node-local id.
///
/// All job routing is **session-affine**: every submission under this id
/// executes on `node`, so per-session ordering, quotas and completion
/// streams behave exactly as on a single [`KernelService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterSessionId {
    /// The node the session lives on.
    pub node: usize,
    /// The node-local session id.
    pub session: SessionId,
}

impl fmt::Display for ClusterSessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}/session{}", self.node, self.session)
    }
}

/// Cluster-aggregated cache counters plus the per-node breakdown.
#[derive(Debug, Clone)]
pub struct ClusterCacheStats {
    /// Sum over all nodes (entries included — cluster-resident plan count).
    pub total: PlanCacheStats,
    /// One snapshot per node, indexed by rank.
    pub per_node: Vec<PlanCacheStats>,
}

/// Cluster-aggregated fabric counters plus the per-node breakdown.
#[derive(Debug, Clone)]
pub struct ClusterCommStats {
    /// Sum over all nodes.
    pub total: CommStats,
    /// One snapshot per node, indexed by rank.
    pub per_node: Vec<CommStats>,
}

/// `N` kernel-service nodes over a simulated fabric, sharing compiled plans
/// so each distinct plan is compiled once per **cluster**, not once per node
/// — and surviving fail-stop node deaths without losing a job (see the
/// [module docs](self) for the protocol and the failure model).
///
/// Dropping the cluster (or calling [`ClusterService::shutdown`]) drains
/// every node, stops the failover supervisor, pacemakers and fabric
/// threads, and joins all workers.
pub struct ClusterService {
    nodes: Vec<Arc<KernelService>>,
    probes: Vec<CommProbe>,
    control: Vec<ControlHandle<f64>>,
    fabrics: Vec<JoinHandle<()>>,
    pacemakers: Vec<Pacemaker>,
    memberships: Vec<Arc<Membership>>,
    supervisor: Option<JoinHandle<()>>,
    supervisor_tx: Option<Sender<SupervisorMsg>>,
    tuning: ClusterTuning,
    shutting_down: Arc<AtomicBool>,
    /// The cluster-wide observability hub, when one was installed
    /// ([`ClusterService::with_observer`]) — shared by every node, so spans
    /// from all ranks land in one flight recorder.
    obs: Option<Arc<ObsHub>>,
}

impl ClusterService {
    /// Start a cluster of `nodes` services, each sized by `config`.
    pub fn new(nodes: usize, config: ServiceConfig) -> Self {
        Self::start(nodes, config, None, None, ClusterTuning::default(), None)
    }

    /// A cluster whose nodes' admission deadlines — and failure detectors —
    /// run on one shared test-controlled [`FakeClock`] (the
    /// deterministic-harness seam; see [`KernelService::with_fake_clock`]).
    pub fn with_fake_clock(nodes: usize, config: ServiceConfig, clock: Arc<FakeClock>) -> Self {
        Self::start(nodes, config, Some(clock), None, ClusterTuning::default(), None)
    }

    /// A cluster sharing one observability hub across every node: each job's
    /// span tree, the cross-node plan requests it triggers, and the peers'
    /// serve spans all land in the same flight recorder, linked by the job's
    /// trace id.  Snapshot with [`ClusterService::obs_snapshot`].
    pub fn with_observer(nodes: usize, config: ServiceConfig, hub: Arc<ObsHub>) -> Self {
        Self::start(nodes, config, None, Some(hub), ClusterTuning::default(), None)
    }

    /// [`ClusterService::with_observer`] on a shared fake clock — give the
    /// hub the same clock for fully deterministic cluster traces.
    pub fn with_observer_and_clock(
        nodes: usize,
        config: ServiceConfig,
        hub: Arc<ObsHub>,
        clock: Arc<FakeClock>,
    ) -> Self {
        Self::start(nodes, config, Some(clock), Some(hub), ClusterTuning::default(), None)
    }

    /// The fault-tolerance test harness: a cluster on a shared fake clock
    /// with explicit detector `tuning` (usually [`ClusterTuning::fast`]) and
    /// a scripted [`FaultPlan`] — kills, wedges and frame perturbations fire
    /// exactly when the test advances the clock past their scheduled times.
    pub fn with_fault_plan(
        nodes: usize,
        config: ServiceConfig,
        clock: Arc<FakeClock>,
        tuning: ClusterTuning,
        plan: FaultPlan,
    ) -> Self {
        Self::start(nodes, config, Some(clock), None, tuning, Some(plan))
    }

    /// [`ClusterService::with_fault_plan`] with an observability hub, so
    /// fault drills land suspect/failover records in the flight recorder.
    pub fn with_fault_plan_observed(
        nodes: usize,
        config: ServiceConfig,
        clock: Arc<FakeClock>,
        tuning: ClusterTuning,
        plan: FaultPlan,
        hub: Arc<ObsHub>,
    ) -> Self {
        Self::start(nodes, config, Some(clock), Some(hub), tuning, Some(plan))
    }

    fn start(
        nodes: usize,
        config: ServiceConfig,
        clock: Option<Arc<FakeClock>>,
        obs: Option<Arc<ObsHub>>,
        tuning: ClusterTuning,
        fault_plan: Option<FaultPlan>,
    ) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        let config = config.normalized();
        let comms = Communicator::<f64>::mesh(nodes);
        let shutting_down = Arc::new(AtomicBool::new(false));
        let probes: Vec<CommProbe> = comms.iter().map(Communicator::probe).collect();
        let control: Vec<ControlHandle<f64>> =
            comms.iter().map(Communicator::control_handle).collect();
        // One woven program serves every node's fetcher, fabric thread,
        // pacemaker and the supervisor: the obs aspect is stateless beyond
        // the hub, and cloning a woven program is an Arc bump.
        let obs_woven = obs.as_ref().map(|hub| {
            Weaver::new().with_aspect(Box::new(ObsServiceAspect::new(Arc::clone(hub)))).weave()
        });
        let cluster_clock = match &clock {
            Some(fake) => ServiceClock::Fake(Arc::clone(fake)),
            None => ServiceClock::real(),
        };
        let fault = fault_plan.map(|plan| Arc::new(plan.arm(nodes)));
        let now = cluster_clock.now();
        let memberships: Vec<Arc<Membership>> =
            (0..nodes).map(|r| Arc::new(Membership::new(r, nodes, tuning, now))).collect();
        let (supervisor_tx, supervisor_rx) = unbounded::<SupervisorMsg>();

        let mut services: Vec<Arc<KernelService>> = Vec::with_capacity(nodes);
        let mut fabrics = Vec::with_capacity(nodes);
        let mut pacemakers = Vec::with_capacity(nodes);
        for comm in comms {
            let rank = comm.rank();
            let pending = PendingReplies::new();
            let membership = Arc::clone(&memberships[rank]);
            let fetcher = ClusterFetcher {
                rank,
                handle: comm.control_handle(),
                pending: Arc::clone(&pending),
                membership: Arc::clone(&membership),
                clock: cluster_clock.clone(),
                shutting_down: Arc::clone(&shutting_down),
                obs_woven: obs_woven.clone(),
            };
            let cache = Arc::new(
                PlanCache::new(config.cache_shards, config.cache_capacity)
                    .with_fetcher(Arc::new(fetcher)),
            );
            let pacemaker_handle = comm.control_handle();
            let fabric = Fabric {
                cache: Arc::clone(&cache),
                pending: Arc::clone(&pending),
                membership: Arc::clone(&membership),
                fault: fault.clone(),
                clock: cluster_clock.clone(),
                shutting_down: Arc::clone(&shutting_down),
                obs_woven: obs_woven.clone(),
            };
            fabrics.push(
                std::thread::Builder::new()
                    .name(format!("aohpc-fabric-{rank}"))
                    .spawn(move || fabric.run(comm))
                    .expect("spawn fabric thread"),
            );
            let service = Arc::new(KernelService::start(
                config,
                cluster_clock.clone(),
                Some(cache),
                obs.clone(),
            ));
            // The node's stranded jobs flow to the supervisor; with the
            // supervisor gone (a kill racing teardown) the orphan goes back
            // to its node, which abandons it so nothing hangs.
            let sink_tx = supervisor_tx.clone();
            let sink: OrphanSink = Arc::new(move |orphan| {
                sink_tx.send(SupervisorMsg::Orphan { from: rank, orphan }).map_err(|refused| {
                    match refused.0 {
                        SupervisorMsg::Orphan { orphan, .. } => orphan,
                        _ => unreachable!("the refused message is the orphan just sent"),
                    }
                })
            });
            service.install_orphan_sink(sink);
            services.push(service);

            let stop = Arc::new(AtomicBool::new(false));
            let ctx = PacemakerCtx {
                rank,
                stop: Arc::clone(&stop),
                handle: pacemaker_handle,
                membership,
                pending,
                fault: fault.clone(),
                clock: cluster_clock.clone(),
                supervisor_tx: supervisor_tx.clone(),
                obs_woven: obs_woven.clone(),
                beats: AtomicU64::new(0),
            };
            match &clock {
                Some(fake) => {
                    // The registration is permanent (the clock keeps it for
                    // its lifetime); the stop flag is the off switch.  The
                    // closure holds no node Arc, so shutdown's try_unwrap
                    // stays possible.
                    fake.on_advance(move || ctx.beat());
                    pacemakers.push(Pacemaker { stop, thread: None });
                }
                None => {
                    let beat_every = tuning.heartbeat_every;
                    let thread_stop = Arc::clone(&stop);
                    let handle = std::thread::Builder::new()
                        .name(format!("aohpc-pacemaker-{rank}"))
                        .spawn(move || {
                            while !thread_stop.load(Ordering::SeqCst) {
                                ctx.beat();
                                // Sliced sleep so shutdown joins promptly.
                                let mut slept = Duration::ZERO;
                                while slept < beat_every {
                                    if thread_stop.load(Ordering::SeqCst) {
                                        return;
                                    }
                                    let slice = Duration::from_millis(5).min(beat_every - slept);
                                    std::thread::sleep(slice);
                                    slept += slice;
                                }
                            }
                        })
                        .expect("spawn pacemaker thread");
                    pacemakers.push(Pacemaker { stop, thread: Some(handle) });
                }
            }
        }
        let supervisor = Supervisor {
            nodes: services.clone(),
            memberships: memberships.clone(),
            clock: cluster_clock.clone(),
            rx: supervisor_rx,
            obs_woven,
            sessions: HashMap::new(),
            inflight: Vec::new(),
        };
        let supervisor_handle = std::thread::Builder::new()
            .name("aohpc-failover".into())
            .spawn(move || supervisor.run())
            .expect("spawn failover supervisor");
        ClusterService {
            nodes: services,
            probes,
            control,
            fabrics,
            pacemakers,
            memberships,
            supervisor: Some(supervisor_handle),
            supervisor_tx: Some(supervisor_tx),
            tuning,
            shutting_down,
            obs,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Direct access to one node's service (stats, completion streams, or
    /// node-local administration).
    pub fn node(&self, rank: usize) -> &KernelService {
        &self.nodes[rank]
    }

    /// The failure-detector timing this cluster runs with.
    pub fn tuning(&self) -> ClusterTuning {
        self.tuning
    }

    /// Rank `observer`'s failure-detector counters.
    pub fn membership_stats(&self, observer: usize) -> MembershipStats {
        self.memberships[observer].stats()
    }

    /// What rank `observer` currently believes about rank `subject`.
    pub fn node_state(&self, observer: usize, subject: usize) -> NodeState {
        self.memberships[observer].state_of(subject)
    }

    /// The incarnation rank `observer` currently believes rank `subject`
    /// runs (for `observer == subject`, the rank's own incarnation).
    /// Converged views agree on every rank's incarnation.
    pub fn incarnation(&self, observer: usize, subject: usize) -> u64 {
        self.memberships[observer].incarnation_of(subject)
    }

    /// The ranks `observer` considers eligible for plan ownership.
    pub fn live_view(&self, observer: usize) -> Vec<usize> {
        self.memberships[observer].live_view()
    }

    /// The node a tenant label is affine to: a stable hash, so every session
    /// a tenant opens lands on the same node and reuses its warm plans and
    /// scratches.
    pub fn home_node(&self, tenant: &str) -> usize {
        let mut hasher = DefaultHasher::new();
        tenant.hash(&mut hasher);
        (hasher.finish() % self.nodes.len() as u64) as usize
    }

    /// Open a session on the tenant's [`ClusterService::home_node`].
    pub fn open_session(&self, spec: SessionSpec) -> ClusterSessionId {
        let node = self.home_node(&spec.tenant);
        self.open_session_on(node, spec)
    }

    /// Open a session on an explicit node (placement override).
    pub fn open_session_on(&self, node: usize, spec: SessionSpec) -> ClusterSessionId {
        ClusterSessionId { node, session: self.nodes[node].open_session(spec) }
    }

    /// Submit one job under a cluster session (session-affine: runs on the
    /// session's node).  Semantics match [`KernelService::submit`].
    pub fn submit(&self, id: ClusterSessionId, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.nodes[id.node].submit(id.session, spec)
    }

    /// Non-blocking submit; see [`KernelService::try_submit`].
    pub fn try_submit(
        &self,
        id: ClusterSessionId,
        spec: JobSpec,
    ) -> Result<JobHandle, SubmitError> {
        self.nodes[id.node].try_submit(id.session, spec)
    }

    /// Attach the session's completion stream on its node.
    pub fn completion_stream(&self, id: ClusterSessionId) -> Result<CompletionStream, SubmitError> {
        self.nodes[id.node].completion_stream(id.session)
    }

    /// Snapshot a cluster session's context.
    pub fn session(&self, id: ClusterSessionId) -> Option<SessionCtx> {
        self.nodes[id.node].session(id.session)
    }

    /// Close a cluster session; see [`KernelService::close_session`].
    pub fn close_session(&self, id: ClusterSessionId) -> Option<SessionMeter> {
        self.nodes[id.node].close_session(id.session)
    }

    /// Drain one session's reports on its node.
    pub fn drain_session(&self, id: ClusterSessionId) -> Vec<JobReport> {
        self.nodes[id.node].drain_session(id.session)
    }

    /// Drain every node (waiting for cluster-wide quiescence) and return all
    /// reports in node-major order (node 0's reports by job id, then node
    /// 1's, ...; job ids are node-local).
    pub fn drain(&self) -> Vec<JobReport> {
        self.nodes.iter().flat_map(|node| node.drain()).collect()
    }

    /// Per-node and cluster-aggregated plan-cache counters.  The
    /// compile-once-per-cluster invariant reads directly off the aggregate:
    /// `total.compiles` equals the number of distinct plans resolved anywhere
    /// in the cluster.
    pub fn cache_stats(&self) -> ClusterCacheStats {
        let per_node: Vec<PlanCacheStats> = self.nodes.iter().map(|n| n.cache_stats()).collect();
        let total = per_node.iter().fold(PlanCacheStats::default(), |acc, s| acc + *s);
        ClusterCacheStats { total, per_node }
    }

    /// Per-node and cluster-aggregated fabric counters (the control plane's
    /// request/reply traffic; send/receive totals balance once quiesced —
    /// heartbeats and gossip are metered separately as liveness frames).
    pub fn comm_stats(&self) -> ClusterCommStats {
        let per_node: Vec<CommStats> = self.probes.iter().map(CommProbe::stats).collect();
        let total = per_node.iter().fold(CommStats::default(), |acc, s| acc + *s);
        ClusterCommStats { total, per_node }
    }

    /// The shared observability hub, when one was installed.
    pub fn observer(&self) -> Option<Arc<ObsHub>> {
        self.obs.clone()
    }

    /// One cross-validated snapshot over the whole cluster: aggregated
    /// plan-cache and fabric counters, admission state summed across nodes,
    /// and the shared hub's job metrics and recorder state.  `None` without
    /// an installed observer.  At quiescence (after
    /// [`ClusterService::drain`]) [`validate`](ObsSnapshot::validate)
    /// returns no violations.
    pub fn obs_snapshot(&self) -> Option<ObsSnapshot> {
        let hub = self.obs.as_ref()?;
        let comm = self.comm_stats().total;
        let comm = CommCounters {
            messages_sent: comm.messages_sent,
            messages_received: comm.messages_received,
            bytes_sent: comm.bytes_sent,
            bytes_received: comm.bytes_received,
            control_sent: comm.control_sent,
            control_received: comm.control_received,
        };
        let admission = self.nodes.iter().map(|node| node.admission_stats());
        Some(obs_snapshot(hub, self.cache_stats().total, Some(comm), admission))
    }

    /// Clean shutdown: drain every node to quiescence (in-flight fetches
    /// need the fabric alive, in-flight replays the supervisor), stop the
    /// pacemakers, stop the failover supervisor, stop the fabric threads,
    /// then stop every node's workers.  Implied by `Drop`.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.fabrics.is_empty() {
            return;
        }
        // Quiesce the data path first: a worker blocked on a plan fetch
        // needs its peer's fabric thread to still be serving, and a replayed
        // orphan resolves through the still-running supervisor.
        for node in &self.nodes {
            let _ = node.drain();
        }
        // New fetches decline from here on (degrading to local compiles),
        // and a wedged fabric un-parks so teardown cannot hang on it.
        self.shutting_down.store(true, Ordering::SeqCst);
        // Silence the pacemakers: no more heartbeats, sweeps or scripted
        // kills.  Fake-clock hooks stay registered but inert.
        for pacemaker in &self.pacemakers {
            pacemaker.stop.store(true, Ordering::SeqCst);
        }
        for thread in self.pacemakers.drain(..).filter_map(|pacemaker| pacemaker.thread) {
            let _ = thread.join();
        }
        // The supervisor finishes every in-flight replay before exiting, so
        // no orphan's handle is left unresolved.
        if let Some(tx) = self.supervisor_tx.take() {
            let _ = tx.send(SupervisorMsg::Stop);
        }
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        for (rank, handle) in self.control.iter().enumerate() {
            let _ = handle.send(rank, TAG_SHUTDOWN, Vec::new());
        }
        for fabric in self.fabrics.drain(..) {
            let _ = fabric.join();
        }
        // Worker pools stop when the services drop; doing it explicitly here
        // keeps shutdown observable and ordered.  The supervisor (the only
        // other Arc holder) is joined, so the unwrap normally succeeds; a
        // straggling clone defers to the Arc's own drop (KernelService shuts
        // down on Drop).
        for node in self.nodes.drain(..) {
            match Arc::try_unwrap(node) {
                Ok(service) => service.shutdown(),
                Err(arc) => drop(arc),
            }
        }
    }
}

impl Drop for ClusterService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

impl fmt::Debug for ClusterService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterService")
            .field("nodes", &self.nodes.len())
            .field("cache", &self.cache_stats().total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owners_are_deterministic_and_in_range() {
        let p = FamilyProgram::from(aohpc_kernel::StencilProgram::jacobi_5pt());
        for ranks in 1..=7usize {
            let live: Vec<usize> = (0..ranks).collect();
            for nx in [4usize, 8, 16] {
                let key = PlanKey::of(&p, aohpc_env::Extent::new2d(nx, nx), OptLevel::Full);
                let owner = rendezvous_owner(key_hash(&key), &live);
                assert!(owner < ranks);
                assert_eq!(owner, rendezvous_owner(key_hash(&key), &live), "stable");
            }
        }
    }

    #[test]
    fn reply_slot_timeout_returns_none() {
        let slot = ReplySlot::new();
        assert_eq!(slot.wait(Duration::from_millis(5)), None);
        slot.resolve(Some(vec![1]));
        assert_eq!(slot.wait(Duration::from_millis(5)), Some(vec![1]));
        // Resolve-at-most-once: a second resolve cannot overwrite.
        let slot = ReplySlot::new();
        slot.resolve(None);
        slot.resolve(Some(vec![2]));
        assert_eq!(slot.wait(Duration::from_millis(5)), None);
    }

    #[test]
    fn pending_replies_route_and_fail() {
        let pending = PendingReplies::new();
        let (id_a, slot_a) = pending.register(1);
        let (id_b, _slot_b) = pending.register(2);
        assert_ne!(id_a, id_b);
        pending.take(id_a).expect("registered").resolve(Some(vec![7]));
        assert_eq!(slot_a.wait(Duration::from_millis(5)), Some(vec![7]));
        assert!(pending.take(id_a).is_none(), "taken slots leave the router");
        pending.fail_all();
        assert!(pending.take(id_b).is_none());
    }

    #[test]
    fn pending_replies_fail_only_the_dead_ranks_slots() {
        let pending = PendingReplies::new();
        let (id_dead, slot_dead) = pending.register(3);
        let (id_live, slot_live) = pending.register(1);
        pending.fail_rank(3);
        assert_eq!(slot_dead.wait(Duration::from_millis(5)), None, "failed immediately");
        assert!(pending.take(id_dead).is_none(), "failed slots leave the router");
        // The slot aimed at the live rank is untouched and still routable.
        pending.take(id_live).expect("still registered").resolve(Some(vec![9]));
        assert_eq!(slot_live.wait(Duration::from_millis(5)), Some(vec![9]));
    }

    #[test]
    fn suspect_payload_roundtrips() {
        for (state, byte_state) in
            [(NodeState::Alive, 0u8), (NodeState::Suspect, 1), (NodeState::Dead, 2)]
        {
            let t = Transition { subject: 5, to: state, incarnation: 7 };
            let bytes = suspect_payload(&t);
            assert_eq!(bytes.len(), 17);
            assert_eq!(bytes[8], byte_state);
            assert_eq!(decode_suspect(&bytes), Some((5, state, 7)));
        }
        assert_eq!(decode_suspect(&[0; 16]), None, "short payload rejected");
        let mut bad =
            suspect_payload(&Transition { subject: 1, to: NodeState::Suspect, incarnation: 0 });
        bad[8] = 9;
        assert_eq!(decode_suspect(&bad), None, "unknown state byte rejected");
    }
}
