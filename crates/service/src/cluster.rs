//! The cluster mesh: N service nodes over a simulated fabric — and
//! surviving the death of any of them.
//!
//! A [`ClusterService`] stands up `N` [`KernelService`] nodes — each with its
//! own worker pool, session registry and [`PlanCache`](crate::PlanCache) —
//! connected by a private frame mesh: one unbounded channel of
//! [`ControlFrame`]s per node, drained by that node's fabric thread.
//! Tenants land on a node (session affinity) and execution stays
//! node-local: a node resolves every plan through its own cache (a shard
//! hit, a single-flight join or a local compile), so each node compiles each
//! distinct plan it runs exactly once.  The fabric carries only liveness —
//! heartbeats, membership gossip and view sync, metered into
//! [`CommStats::liveness_sent`] / [`CommStats::liveness_received`] — plus
//! the unmetered shutdown signal each fabric thread sends itself at
//! teardown.  The runtime's MPI-style mesh is not involved: it carries
//! supersteps only.
//!
//! # Fault tolerance
//!
//! The cluster survives fail-stop node deaths without losing a job or
//! changing an answer, built from four mechanisms (see also
//! [`membership`](crate::membership) and [`fault`](crate::fault)):
//!
//! * **Liveness.**  Every node runs a *pacemaker* broadcasting heartbeats
//!   and sweeping a per-node [`Membership`] view: silent
//!   peers become *suspect*, then *dead*, each transition carrying an
//!   incarnation number and gossiped on `SUSPECT` frames so views converge.
//!   Under a [`FakeClock`] the pacemaker ticks on `advance`, making
//!   detection fully test-controlled.
//! * **Rejoin and arbitration.**  A heartbeat carries its sender's
//!   incarnation *and* a digest of its whole membership view.  A scripted
//!   [`FaultAction::Restart`] revives a killed service (cold cache — the
//!   process restarted) under a bumped incarnation; the returning rank's
//!   heartbeats announce the new incarnation, which revives peers' Dead
//!   entries outright (higher incarnation wins), and its cache re-warms by
//!   compiling.  Digest mismatches trigger an anti-entropy exchange
//!   (`VIEW_PULL` → `VIEW_SYNC`: the full `(state, incarnation)` vector,
//!   lattice-merged), so views diverged by an asymmetric partition converge
//!   without waiting for every detector to re-time-out.  A rank that learns
//!   it stands accused refutes SWIM-style — outbids the accusation with a
//!   fresh incarnation and broadcasts it ([`MembershipStats::refutations`]).
//!   Because nobody heartbeats a peer it believes dead, every eighth beat is
//!   also sent to Dead peers as a *probe*: harmless toward a truly dead rank
//!   (its old incarnation cannot resurrect the entry), but a rank falsely
//!   condemned behind a symmetric partition receives it, pulls the
//!   condemner's view, finds the accusation and refutes — so even a
//!   both-directions cut held past the death deadline heals into a rejoin
//!   instead of a deadlock of mutual silence.
//! * **Checkpoint replay.**  A kill fail-stops a node at the **dequeue
//!   boundary**: jobs a worker already started finish (their superstep
//!   state is node-local and deterministic), queued jobs are orphaned to
//!   the cluster's *failover supervisor*, which re-homes each on a survivor
//!   chosen by [`rendezvous_owner`] over the not-killed ranks and replays
//!   it there.  The deterministic stack makes the replay bit-identical; the
//!   report resolves the original submitter's [`JobHandle`] carrying a
//!   [`FailoverProvenance`], so zero jobs are lost and every failover is
//!   auditable per job.
//! * **Failure injection.**  A [`FaultPlan`] arms
//!   scripted kills, restarts, directional link cuts/heals, fabric wedges,
//!   and frame drops/delays into the cluster
//!   ([`ClusterService::with_fake_clock`]), driven by the same clock seam.
//!   Every other constructor arms the empty plan, which perturbs nothing.

use crate::cache::{PlanCacheStats, PlanKey};
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
use aohpc_kernel::OptLevel;
use aohpc_obs::{CommCounters, ObsHub, ObsServiceAspect, ObsSnapshot};
use aohpc_runtime::CommStats;
use aohpc_testalloc::sync::FakeClock;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Frame tag: stop the receiving fabric thread (a self-send, never
/// metered).
pub const TAG_SHUTDOWN: u32 = 0;
/// Liveness tag: heartbeat (payload: sender's incarnation + a digest of its
/// whole membership view, [`Membership::digest`]).  The digest is the
/// anti-entropy trigger: a receiver holding a different view pulls the
/// sender's full vector and lattice-merges it.
pub const TAG_HEARTBEAT: u32 = 1;
/// Liveness tag: membership gossip (`subject` + state + incarnation).  The
/// originator of a suspect/dead transition — or of a refutation —
/// broadcasts it so views converge without every detector timing out
/// independently.
pub const TAG_SUSPECT: u32 = 2;
/// Liveness tag: anti-entropy pull (empty payload) — "your heartbeat digest
/// differs from my view; send me your full vector".
pub const TAG_VIEW_PULL: u32 = 3;
/// Liveness tag: anti-entropy sync — the sender's full
/// `(state, incarnation)` vector, one 9-byte entry per rank, lattice-merged
/// by the receiver ([`Membership::merge_view`]).
pub const TAG_VIEW_SYNC: u32 = 4;

/// One frame on the cluster's fabric: a tagged byte payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlFrame {
    /// Sending rank.
    pub from: usize,
    /// Message kind (`TAG_*`).
    pub tag: u32,
    /// Payload.
    pub bytes: Vec<u8>,
}

/// The cluster's frame mesh: one unbounded channel of frames per node, and
/// each node's liveness meter.  Every fabric thread and pacemaker, and the
/// cluster itself, share it, so a node's channel never disconnects while the
/// cluster lives: teardown wakes a fabric thread with a `TAG_SHUTDOWN`
/// self-send.
struct FrameMesh {
    senders: Vec<Sender<ControlFrame>>,
    sent: Vec<AtomicU64>,
    received: Vec<AtomicU64>,
}

impl FrameMesh {
    fn new(nodes: usize) -> (Arc<FrameMesh>, Vec<Receiver<ControlFrame>>) {
        let (senders, inboxes) = (0..nodes).map(|_| unbounded()).unzip();
        let meter = || (0..nodes).map(|_| AtomicU64::new(0)).collect();
        (Arc::new(FrameMesh { senders, sent: meter(), received: meter() }), inboxes)
    }

    /// Send a frame from node `from` to node `to` (self-sends allowed).  A
    /// frame is metered only once it is in the peer's channel.  `false`
    /// means it was not delivered: `to` is no node of the mesh, or its
    /// fabric thread has exited.
    fn send(&self, from: usize, to: usize, tag: u32, bytes: Vec<u8>) -> bool {
        let delivered = self
            .senders
            .get(to)
            .is_some_and(|peer| peer.send(ControlFrame { from, tag, bytes }).is_ok());
        if delivered && tag != TAG_SHUTDOWN {
            self.sent[from].fetch_add(1, Ordering::Relaxed);
        }
        delivered
    }

    /// Send one payload from `from` to every other node.
    fn broadcast(&self, from: usize, tag: u32, bytes: &[u8]) {
        for peer in (0..self.senders.len()).filter(|&peer| peer != from) {
            self.send(from, peer, tag, bytes.to_vec());
        }
    }

    /// Node `rank`'s fabric counters: liveness frames only.
    fn stats(&self, rank: usize) -> CommStats {
        CommStats {
            liveness_sent: self.sent[rank].load(Ordering::Relaxed),
            liveness_received: self.received[rank].load(Ordering::Relaxed),
            ..CommStats::default()
        }
    }
}

/// The well-mixed hash of a plan key that rendezvous scoring runs on.
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

/// The rendezvous-hash winner among `candidates` for `spec`'s primary plan
/// key (the spec's program fingerprint plus its primary block extent and
/// optimization level).  A pure hash: no node owns or serves a plan.  Fault
/// drills use it to pick ranks deterministically.  Waits for ROADMAP B1:
/// the ledger under `benchmark/` imports it.
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
fn publish_transition(mesh: &FrameMesh, rank: usize, woven: Option<&WovenProgram>, t: &Transition) {
    mesh.broadcast(rank, TAG_SUSPECT, &suspect_payload(t));
    if let Some(woven) = woven {
        if t.to != NodeState::Alive {
            let attrs = [(attr::NODE, t.subject as i64)];
            woven.dispatch_returning(names::CLUSTER_SUSPECT, JoinPointKind::Call, &attrs, |ctx| {
                ctx.set_attr(attr::OK, i64::from(t.to == NodeState::Suspect));
            });
        }
    }
}

/// Everything one node's fabric thread works with besides its inbox.
struct Fabric {
    rank: usize,
    mesh: Arc<FrameMesh>,
    membership: Arc<Membership>,
    fault: Arc<FaultState>,
    clock: ServiceClock,
    shutting_down: Arc<AtomicBool>,
    obs_woven: Option<WovenProgram>,
}

impl Fabric {
    /// The per-node fabric loop: drains the node's inbox, folds heartbeats
    /// and gossip into the membership view, answers view pulls, and applies
    /// the fault harness's frame perturbations.  Exits on `TAG_SHUTDOWN`
    /// (the only stop signal: the mesh keeps every inbox connected).
    fn run(self, inbox: Receiver<ControlFrame>) {
        while let Ok(frame) = inbox.recv() {
            if frame.tag == TAG_SHUTDOWN {
                return;
            }
            self.mesh.received[self.rank].fetch_add(1, Ordering::Relaxed);
            self.process(frame, true);
            // Frames the fault harness held are re-injected once due —
            // skipping re-interception, or a delay rule would re-hold them.
            for released in self.fault.take_released(self.rank, self.clock.now()) {
                self.process(released, false);
            }
        }
    }

    /// Handle one liveness frame.
    fn process(&self, frame: ControlFrame, intercept: bool) {
        let (rank, fault) = (self.rank, &self.fault);
        let now = self.clock.now();
        if intercept {
            match fault.intercept(rank, &frame, now) {
                Interception::Dropped | Interception::Held => return,
                Interception::Deliver => {}
            }
        }
        // A wedged fabric parks mid-stream: frames pile up behind it and its
        // silence earns it a suspicion, exactly like a descheduled or
        // livelocked fabric thread would.  Shutdown un-parks it so teardown
        // cannot hang on a script that never unwedges.
        while fault.is_wedged(rank) && !self.shutting_down.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(200));
        }
        if fault.is_killed(rank) {
            // Fail-stop: a dead node neither gossips nor observes.
            return;
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
                    self.mesh.send(rank, frame.from, TAG_VIEW_PULL, Vec::new());
                }
            }
            TAG_SUSPECT => {
                if let Some((subject, state, incarnation)) = decode_suspect(&frame.bytes) {
                    if subject < self.membership.ranks() {
                        if let Some(t) = self.membership.adopt(subject, state, incarnation, now) {
                            self.react(&t);
                        }
                    }
                }
            }
            TAG_VIEW_PULL => {
                let reply = view_payload(&self.membership.view_entries());
                self.mesh.send(rank, frame.from, TAG_VIEW_SYNC, reply);
            }
            TAG_VIEW_SYNC => {
                if let Some(entries) = decode_view(&frame.bytes) {
                    for t in self.membership.merge_view(&entries, now) {
                        self.react(&t);
                    }
                }
            }
            _ => {} // unknown tags are ignored (future protocol extensions)
        }
    }

    /// Act on one locally-adopted membership transition.  A refutation — an
    /// accusation against *this* rank that [`Membership::adopt`] outbid
    /// with a fresh incarnation — is broadcast so the accuser (and everyone
    /// it gossiped to) adopts the new incarnation, and is recorded through
    /// the `CLUSTER_REJOIN` join point (`ok` = 0).
    fn react(&self, t: &Transition) {
        if t.subject == self.rank && t.to == NodeState::Alive {
            self.mesh.broadcast(self.rank, TAG_SUSPECT, &suspect_payload(t));
            dispatch_rejoin(self.obs_woven.as_ref(), self.rank, t.incarnation, false);
        }
    }
}

/// One node's heartbeat source and deadline sweeper, plus the fault
/// schedule's driver.
struct PacemakerCtx {
    rank: usize,
    stop: Arc<AtomicBool>,
    mesh: Arc<FrameMesh>,
    membership: Arc<Membership>,
    fault: Arc<FaultState>,
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
        // Whichever pacemaker observes the schedule first executes it
        // (`drive` pops each action exactly once); kills and restarts are
        // routed to the supervisor, which owns the node handles, and link
        // events are recorded at the `CLUSTER_PARTITION` join point (`drive`
        // already flipped the cut matrix).
        for action in self.fault.drive(now) {
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
        if self.fault.is_killed(self.rank) || self.fault.is_wedged(self.rank) {
            return; // a dead or wedged node goes silent
        }
        let probe = self.beats.fetch_add(1, Ordering::Relaxed).is_multiple_of(DEAD_PROBE_EVERY);
        let incarnation = self.membership.incarnation_of(self.rank);
        let mut beat = incarnation.to_le_bytes().to_vec();
        beat.extend_from_slice(&self.membership.digest().to_le_bytes());
        for peer in 0..self.membership.ranks() {
            if peer != self.rank && (probe || self.membership.state_of(peer) != NodeState::Dead) {
                self.mesh.send(self.rank, peer, TAG_HEARTBEAT, beat.clone());
            }
        }
        for t in self.membership.tick(now) {
            publish_transition(&self.mesh, self.rank, self.obs_woven.as_ref(), &t);
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
    /// incarnation arbitration, and its cache re-warms by compiling.
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

/// `N` kernel-service nodes over a simulated fabric, each compiling its own
/// plans, surviving fail-stop node deaths without losing a job (see the
/// [module docs](self) for the failure model).
///
/// Dropping the cluster (or calling [`ClusterService::shutdown`]) drains
/// every node, stops the failover supervisor, pacemakers and fabric
/// threads, and joins all workers.
pub struct ClusterService {
    nodes: Vec<Arc<KernelService>>,
    mesh: Arc<FrameMesh>,
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
        Self::start(nodes, config, None, ClusterTuning::default(), FaultPlan::new(), None)
    }

    /// A cluster sharing one observability hub across every node: every
    /// node's job span trees and the cluster's liveness records land in the
    /// same flight recorder.  Snapshot with [`ClusterService::obs_snapshot`].
    pub fn with_observer(nodes: usize, config: ServiceConfig, hub: Arc<ObsHub>) -> Self {
        Self::start(nodes, config, None, ClusterTuning::default(), FaultPlan::new(), Some(hub))
    }

    /// The deterministic harness: a cluster whose nodes' admission
    /// deadlines and failure detectors run on one shared test-controlled
    /// [`FakeClock`] (see [`KernelService::with_fake_clock`]), with explicit
    /// detector `tuning` (usually [`ClusterTuning::fast`]), a scripted
    /// [`FaultPlan`] (`FaultPlan::new()` for none) — kills, wedges and frame
    /// perturbations fire exactly when the test advances the clock past
    /// their scheduled times — and an optional observability hub (give it
    /// the same clock for deterministic traces).
    pub fn with_fake_clock(
        nodes: usize,
        config: ServiceConfig,
        clock: Arc<FakeClock>,
        tuning: ClusterTuning,
        plan: FaultPlan,
        obs: Option<Arc<ObsHub>>,
    ) -> Self {
        Self::start(nodes, config, Some(clock), tuning, plan, obs)
    }

    fn start(
        nodes: usize,
        config: ServiceConfig,
        clock: Option<Arc<FakeClock>>,
        tuning: ClusterTuning,
        plan: FaultPlan,
        obs: Option<Arc<ObsHub>>,
    ) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        let config = config.normalized();
        let (mesh, inboxes) = FrameMesh::new(nodes);
        let shutting_down = Arc::new(AtomicBool::new(false));
        // One woven program serves every node's fabric thread, pacemaker
        // and the supervisor: the obs aspect is stateless beyond
        // the hub, and cloning a woven program is an Arc bump.
        let obs_woven = obs.as_ref().map(|hub| {
            Weaver::new().with_aspect(Box::new(ObsServiceAspect::new(Arc::clone(hub)))).weave()
        });
        let cluster_clock = match &clock {
            Some(fake) => ServiceClock::Fake(Arc::clone(fake)),
            None => ServiceClock::real(),
        };
        let fault = Arc::new(plan.arm(nodes));
        let now = cluster_clock.now();
        let memberships: Vec<Arc<Membership>> =
            (0..nodes).map(|r| Arc::new(Membership::new(r, nodes, tuning, now))).collect();
        let (supervisor_tx, supervisor_rx) = unbounded::<SupervisorMsg>();

        let mut services: Vec<Arc<KernelService>> = Vec::with_capacity(nodes);
        let mut fabrics = Vec::with_capacity(nodes);
        let mut pacemakers = Vec::with_capacity(nodes);
        for (rank, inbox) in inboxes.into_iter().enumerate() {
            let membership = Arc::clone(&memberships[rank]);
            let fabric = Fabric {
                rank,
                mesh: Arc::clone(&mesh),
                membership: Arc::clone(&membership),
                fault: Arc::clone(&fault),
                clock: cluster_clock.clone(),
                shutting_down: Arc::clone(&shutting_down),
                obs_woven: obs_woven.clone(),
            };
            fabrics.push(
                std::thread::Builder::new()
                    .name(format!("aohpc-fabric-{rank}"))
                    .spawn(move || fabric.run(inbox))
                    .expect("spawn fabric thread"),
            );
            let service =
                Arc::new(KernelService::start(config, cluster_clock.clone(), obs.clone()));
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
                mesh: Arc::clone(&mesh),
                membership,
                fault: Arc::clone(&fault),
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
            mesh,
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

    /// The ranks `observer` currently considers alive (itself included).
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

    /// Per-node and cluster-aggregated plan-cache counters.  Each node
    /// compiles each distinct plan it resolves once, so `total.compiles` is
    /// the sum over nodes of the distinct plans each resolved.
    pub fn cache_stats(&self) -> ClusterCacheStats {
        let per_node: Vec<PlanCacheStats> = self.nodes.iter().map(|n| n.cache_stats()).collect();
        let total = per_node.iter().fold(PlanCacheStats::default(), |acc, s| acc + *s);
        ClusterCacheStats { total, per_node }
    }

    /// Per-node and cluster-aggregated fabric counters.  The fabric carries
    /// liveness frames only (heartbeats, gossip, view sync), metered into
    /// the `liveness_*` counters; the job path sends nothing, so every other
    /// counter stays 0.
    pub fn comm_stats(&self) -> ClusterCommStats {
        let per_node: Vec<CommStats> = (0..self.nodes.len()).map(|r| self.mesh.stats(r)).collect();
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

    /// Clean shutdown: drain every node to quiescence (in-flight replays need
    /// the supervisor), stop the pacemakers, stop the failover supervisor,
    /// stop the fabric threads, then stop every node's workers.  Implied by
    /// `Drop`.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.fabrics.is_empty() {
            return;
        }
        // Quiesce the data path first: a replayed orphan resolves through
        // the still-running supervisor.
        for node in &self.nodes {
            let _ = node.drain();
        }
        // A wedged fabric un-parks so teardown cannot hang on it.
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
        for rank in 0..self.fabrics.len() {
            self.mesh.send(rank, rank, TAG_SHUTDOWN, Vec::new());
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
        let p = aohpc_kernel::FamilyProgram::from(aohpc_kernel::StencilProgram::jacobi_5pt());
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

    /// A 2-node cluster on a fake clock with fast detector tuning.
    fn fake_pair(clock: &Arc<FakeClock>, hub: Option<Arc<ObsHub>>) -> ClusterService {
        let config = ServiceConfig::default().with_workers(1);
        let tuning = ClusterTuning::fast();
        ClusterService::with_fake_clock(2, config, Arc::clone(clock), tuning, FaultPlan::new(), hub)
    }

    /// One detector beat, then a real-time moment for the fabric threads.
    fn beat(clock: &FakeClock) {
        clock.advance(Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(1));
    }

    /// Wait until every metered frame has been received, plus `unmetered`
    /// frames put on the mesh without a sender's meter, twice in a row.
    fn quiesce(cluster: &ClusterService, unmetered: u64) {
        let mut settled = 0;
        for _ in 0..5_000 {
            let total = cluster.comm_stats().total;
            settled = if total.liveness_sent + unmetered == total.liveness_received {
                settled + 1
            } else {
                0
            };
            if settled == 2 {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("the fabric never quiesced: {:?}", cluster.comm_stats().total);
    }

    #[test]
    fn heartbeats_count_into_liveness_and_nothing_else() {
        let clock = FakeClock::new();
        let cluster = fake_pair(&clock, None);
        for _ in 0..5 {
            beat(&clock);
        }
        quiesce(&cluster, 0);
        let comm = cluster.comm_stats();
        for (rank, node) in comm.per_node.iter().enumerate() {
            assert!(node.liveness_sent >= 5, "rank {rank} beat every advance: {node:?}");
            let others = CommStats { liveness_sent: 0, liveness_received: 0, ..*node };
            assert_eq!(others, CommStats::default(), "rank {rank}: liveness only");
        }
        assert_eq!(comm.total.liveness_sent, comm.total.liveness_received, "liveness balance");
        cluster.shutdown();

        // The shutdown self-send wakes a fabric but is metered nowhere.
        let (mesh, _inboxes) = FrameMesh::new(1);
        assert!(mesh.send(0, 0, TAG_SHUTDOWN, Vec::new()));
        assert_eq!(mesh.stats(0), CommStats::default());
        assert!(!mesh.send(0, 1, TAG_HEARTBEAT, Vec::new()), "no rank 1 in the mesh");
    }

    /// Every liveness tag's well-formed payload, truncated at every length
    /// and with each single byte flipped (every single bit, then the whole
    /// byte), plus an unknown tag, and the same from a sender outside the
    /// mesh, injected into node 0's fabric: nothing panics, no transition
    /// names a rank outside the mesh, and the views converge again — both
    /// ranks Alive in both views, agreeing on every incarnation.  A flipped
    /// frame can be a well-formed claim (a higher incarnation, a suspicion,
    /// a death), so a refutation may bump an incarnation on the way.
    #[test]
    fn fabric_wire_fuzz_leaves_views_convergent() {
        const NODES: usize = 2;
        let clock = FakeClock::new();
        let hub = ObsHub::with_clock(clock.clone());
        let cluster = fake_pair(&clock, Some(Arc::clone(&hub)));
        for _ in 0..3 {
            beat(&clock);
        }
        let peer = &cluster.memberships[1];
        let mut heartbeat = peer.incarnation_of(1).to_le_bytes().to_vec();
        heartbeat.extend_from_slice(&peer.digest().to_le_bytes());
        let accuse = |subject| {
            suspect_payload(&Transition { subject, to: NodeState::Suspect, incarnation: 0 })
        };
        let bases = [
            (TAG_HEARTBEAT, heartbeat),
            (TAG_SUSPECT, accuse(0)),
            (TAG_SUSPECT, accuse(1)),
            (TAG_VIEW_PULL, Vec::new()),
            (TAG_VIEW_SYNC, view_payload(&peer.view_entries())),
            (0xdead_beef, vec![0xa5; 16]),
        ];
        let mut frames = Vec::new();
        for (tag, base) in &bases {
            for len in 0..=base.len() {
                frames.push((*tag, base[..len].to_vec()));
            }
            for at in 0..base.len() {
                for mask in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
                    let mut flipped = base.clone();
                    flipped[at] ^= mask;
                    frames.push((*tag, flipped));
                }
            }
        }
        let forged = NODES as u64 + 3;
        for (tag, bytes) in &frames {
            assert!(cluster.mesh.send(1, 0, *tag, bytes.clone()));
            let frame = ControlFrame { from: forged as usize, tag: *tag, bytes: bytes.clone() };
            cluster.mesh.senders[0].send(frame).unwrap();
        }
        quiesce(&cluster, frames.len() as u64);

        let converged = |c: &ClusterService| {
            (0..NODES).all(|subject| {
                (0..NODES).all(|observer| c.node_state(observer, subject) == NodeState::Alive)
                    && c.incarnation(0, subject) == c.incarnation(1, subject)
            })
        };
        // Past the death deadline first, so a claim nobody refuted shows.
        let mut beats = 0;
        while beats < 20 || !converged(&cluster) {
            assert!(beats < 500, "views never converged: {:?}", cluster.memberships);
            beat(&clock);
            beats += 1;
        }
        assert!(cluster.fabrics.iter().all(|fabric| !fabric.is_finished()), "a fabric died");
        assert!(cluster.memberships.iter().all(|view| view.ranks() == NODES));
        for span in hub.recorder().spans() {
            if [names::CLUSTER_SUSPECT, names::CLUSTER_REJOIN].contains(&span.name) {
                assert!((0..NODES as i64).contains(&span.a), "{} names rank {}", span.name, span.a);
            }
        }
        cluster.shutdown();
    }
}
