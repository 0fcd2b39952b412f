//! The cluster mesh: N service nodes over a simulated fabric — and
//! surviving the death of any of them.
//!
//! A [`ClusterService`] stands up `N` [`KernelService`] nodes — each with its
//! own worker pool, session registry and [`PlanCache`](crate::PlanCache) —
//! connected by a private frame mesh: one unbounded channel of
//! [`ControlFrame`]s per node, drained by the cluster's liveness step.
//! Tenants land on a node (session affinity) and execution stays
//! node-local: a node resolves every plan through its own cache (a shard
//! hit, a single-flight join or a local compile), so each node compiles each
//! distinct plan it runs exactly once.  The fabric carries only liveness —
//! heartbeats, membership gossip and view sync, metered into
//! [`CommStats::liveness_sent`] / [`CommStats::liveness_received`].  The
//! runtime's MPI-style mesh is not involved: it carries supersteps only.
//!
//! # The liveness step
//!
//! Liveness is one synchronous step over every node, in a fixed order: the
//! fault schedule's due actions; a heartbeat from every live, unwedged node;
//! every unwedged node's inbox drained in FIFO order, held frames released
//! once due, until no frame moves; then every live, unwedged detector's
//! deadline sweep, its transitions published and the inboxes drained again.
//! Under a [`FakeClock`] each `advance` runs one step on the advancing
//! thread, so the cluster starts no liveness thread and a seeded fault
//! schedule always gives the same trace; under the wall clock one ticker
//! thread runs the step every [`ClusterTuning::heartbeat_every`].
//!
//! # Fault tolerance
//!
//! The cluster survives fail-stop node deaths without losing a job or
//! changing an answer, built from four mechanisms (see also
//! [`membership`](crate::membership) and [`fault`](crate::fault)):
//!
//! * **Liveness.**  Every step, every node broadcasts a heartbeat and
//!   sweeps its [`Membership`] view: silent
//!   peers become *suspect*, then *dead*, each transition carrying an
//!   incarnation number and gossiped on `SUSPECT` frames so views converge.
//!   Under a [`FakeClock`] the step runs on `advance`, making detection
//!   fully test-controlled.
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
//!   state is node-local and deterministic); the call that orphans a queued
//!   job re-homes it on a survivor chosen by [`rendezvous_owner`] over the
//!   not-killed ranks, and the replay's own completion resolves the
//!   original submitter's [`JobHandle`] with its bit-identical report and a
//!   [`FailoverProvenance`], so zero jobs are lost and every failover is
//!   auditable per job.  No thread of its own runs any of this.
//! * **Failure injection.**  A [`FaultPlan`] arms
//!   scripted kills, restarts, directional link cuts/heals, node wedges,
//!   and frame drops/delays into the cluster
//!   ([`ClusterService::with_fake_clock`]); the liveness step runs each
//!   action when the clock passes its time.
//!   Every other constructor arms the empty plan, which perturbs nothing.

use crate::cache::{PlanCacheStats, PlanKey};
use crate::fault::{FaultAction, FaultPlan, FaultState, Interception};
use crate::job::{FailoverProvenance, JobErrorKind, JobHandle, JobOutcome, JobReport, JobSpec};
use crate::membership::{
    rendezvous_owner, ClusterTuning, Membership, MembershipStats, NodeState, Transition,
};
use crate::service::{
    obs_snapshot, KernelService, OrphanSink, OrphanedJob, ServiceClock, ServiceConfig, SubmitError,
};
use crate::session::{CompletionStream, SessionCtx, SessionId, SessionMeter, SessionSpec};
use aohpc_aop::{attr, names, JoinPointKind, WovenProgram};
use aohpc_kernel::OptLevel;
use aohpc_obs::{CommCounters, ObsHub, ObsSnapshot};
use aohpc_runtime::CommStats;
use aohpc_testalloc::sync::FakeClock;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::task::{Wake, Waker};
use std::thread::JoinHandle;
use std::time::Duration;

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
/// each node's liveness meter.  The mesh owns both ends of every channel, so
/// none ever disconnects: a frame waits in its node's inbox until the
/// liveness step drains it.
struct FrameMesh {
    senders: Vec<Sender<ControlFrame>>,
    inboxes: Vec<Receiver<ControlFrame>>,
    sent: Vec<AtomicU64>,
    received: Vec<AtomicU64>,
}

impl FrameMesh {
    fn new(nodes: usize) -> FrameMesh {
        let (senders, inboxes) = (0..nodes).map(|_| unbounded()).unzip();
        let meter = || (0..nodes).map(|_| AtomicU64::new(0)).collect();
        FrameMesh { senders, inboxes, sent: meter(), received: meter() }
    }

    /// Send a frame from node `from` to node `to`.  A frame is metered once
    /// it is in the peer's channel.  `false` means it was not delivered:
    /// `to` is no node of the mesh.
    fn send(&self, from: usize, to: usize, tag: u32, bytes: Vec<u8>) -> bool {
        let delivered = self
            .senders
            .get(to)
            .is_some_and(|peer| peer.send(ControlFrame { from, tag, bytes }).is_ok());
        if delivered {
            self.sent[from].fetch_add(1, Ordering::Relaxed);
        }
        delivered
    }

    /// The oldest frame waiting for node `rank`, metered as received.
    fn recv(&self, rank: usize) -> Option<ControlFrame> {
        let frame = self.inboxes[rank].try_recv().ok()?;
        self.received[rank].fetch_add(1, Ordering::Relaxed);
        Some(frame)
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
/// optimization level).  A pure hash: no node owns or serves a plan.  No
/// test or drill calls it; the layer ledger under `benchmark/` imports it.
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
fn dispatch_rejoin(woven: &WovenProgram, node: usize, incarnation: u64, restart: bool) {
    let attrs = [(attr::NODE, node as i64), (attr::STEP, incarnation as i64)];
    woven.dispatch_returning(names::CLUSTER_REJOIN, JoinPointKind::Call, &attrs, |ctx| {
        ctx.set_attr(attr::OK, i64::from(restart));
    });
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

/// The cluster's liveness plane: the frame mesh, every node's membership
/// view, the armed fault schedule, the services its kills and restarts act
/// on and the failover books of the jobs its kills strand, all driven by
/// [`Liveness::step`].  [`ClusterService`] keeps no copy of the nodes or
/// views: it reaches them through this plane.
struct Liveness {
    mesh: FrameMesh,
    memberships: Vec<Arc<Membership>>,
    fault: FaultState,
    nodes: Vec<Arc<KernelService>>,
    failover: Arc<Failover>,
    clock: ServiceClock,
    obs_woven: WovenProgram,
    /// Steps take turns on this lock.
    turn: Mutex<Turn>,
}

/// What only the step in turn touches.
struct Turn {
    /// Set at shutdown: later steps do nothing.
    stopped: bool,
    /// Heartbeats each node has sent, for the dead-probe rule.
    beats: Vec<u64>,
}

impl Liveness {
    /// One liveness step of the whole cluster at the clock's current time:
    /// run the fault actions now due, beat from every live node, drain the
    /// inboxes until no frame moves, sweep every live detector and publish
    /// its transitions, drain again, then retry the failover intake.  A
    /// killed or wedged node neither beats nor sweeps.  Nothing here parks:
    /// on the wall clock this is the heartbeat ticker.  Concurrent callers
    /// wait their turn.
    fn step(self: &Arc<Self>) {
        let mut turn = self.turn.lock();
        if turn.stopped {
            return;
        }
        let now = self.clock.now();
        for action in self.fault.drive(now) {
            self.execute(action, now);
        }
        let live: Vec<usize> = (0..self.nodes.len())
            .filter(|&rank| !self.fault.is_killed(rank) && !self.fault.is_wedged(rank))
            .collect();
        for &rank in &live {
            self.beat(rank, turn.beats[rank]);
            turn.beats[rank] += 1;
        }
        self.settle(now);
        for &rank in &live {
            for t in self.memberships[rank].tick(now) {
                self.publish(rank, &t);
            }
        }
        self.settle(now);
        self.retry_intake(false);
    }

    /// Stop stepping: a step in progress finishes first.
    fn stop(&self) {
        self.turn.lock().stopped = true;
    }

    /// Run one due fault action (`drive` already flipped its flag): a kill
    /// fail-stops the node's service, whose orphans re-home on survivors
    /// before the kill returns ([`Liveness::strand`]); a restart revives it
    /// under a fresh incarnation; a link event is recorded.
    fn execute(&self, action: FaultAction, now: Duration) {
        match action {
            FaultAction::Kill(rank) => self.nodes[rank].kill_for_failover(),
            FaultAction::Restart(rank) => self.restart(rank, now),
            FaultAction::Partition { from, to } => self.link_event(from, to, false),
            FaultAction::Heal { from, to } => self.link_event(from, to, true),
            FaultAction::Wedge(_) | FaultAction::Unwedge(_) => {}
        }
    }

    /// Execute a scripted restart: revive the killed service — cold cache,
    /// the process restarted — and restart its membership view under a
    /// bumped incarnation.  The revived rank re-announces itself with its
    /// next heartbeat; peers revive their Dead entry by incarnation
    /// arbitration, and its cache re-warms by compiling.  Recorded at the
    /// `CLUSTER_REJOIN` join point (`ok` = 1).
    fn restart(&self, rank: usize, now: Duration) {
        if !self.nodes[rank].revive_after_failover() {
            return; // a restart without a preceding kill is a no-op
        }
        let incarnation = self.memberships[rank].restart(now);
        dispatch_rejoin(&self.obs_woven, rank, incarnation, true);
    }

    /// Record one scripted link event through the `CLUSTER_PARTITION` join
    /// point (`node` = sending side of the direction, `rank` = receiving
    /// side, `ok` = 1 for a heal, 0 for a cut).
    fn link_event(&self, from: usize, to: usize, healed: bool) {
        let attrs = [(attr::NODE, from as i64), (attr::RANK, to as i64)];
        self.obs_woven.dispatch_returning(
            names::CLUSTER_PARTITION,
            JoinPointKind::Call,
            &attrs,
            |ctx| ctx.set_attr(attr::OK, i64::from(healed)),
        );
    }

    /// Node `rank`'s heartbeat — its incarnation and view digest — to every
    /// peer it does not believe dead, and every `DEAD_PROBE_EVERY`-th beat
    /// to the dead too.
    fn beat(&self, rank: usize, beats: u64) {
        let membership = &self.memberships[rank];
        let probe = beats.is_multiple_of(DEAD_PROBE_EVERY);
        let mut beat = membership.incarnation_of(rank).to_le_bytes().to_vec();
        beat.extend_from_slice(&membership.digest().to_le_bytes());
        for peer in 0..membership.ranks() {
            if peer != rank && (probe || membership.state_of(peer) != NodeState::Dead) {
                self.mesh.send(rank, peer, TAG_HEARTBEAT, beat.clone());
            }
        }
    }

    /// Drain every node's inbox, in rank order, until a round moves no frame.
    fn settle(&self, now: Duration) {
        while (0..self.nodes.len()).fold(false, |moved, rank| self.drain(rank, now) | moved) {}
    }

    /// Deliver the frames waiting for node `rank` in FIFO order through the
    /// fault harness, then the held frames now due for it; `true` if any
    /// frame moved.  A wedged node is not drained: its frames pile up, and
    /// its silence earns it a suspicion, as a descheduled node's would.
    fn drain(&self, rank: usize, now: Duration) -> bool {
        if self.fault.is_wedged(rank) {
            return false;
        }
        let mut moved = false;
        while let Some(frame) = self.mesh.recv(rank) {
            moved = true;
            if self.fault.intercept(rank, &frame, now) == Interception::Deliver {
                self.process(rank, frame, now);
            }
        }
        // Released frames skip re-interception, or a delay rule would hold
        // them again.
        for frame in self.fault.take_released(rank, now) {
            moved = true;
            self.process(rank, frame, now);
        }
        moved
    }

    /// Node `rank` handles one liveness frame: folds heartbeats and gossip
    /// into its membership view and answers view pulls.
    fn process(&self, rank: usize, frame: ControlFrame, now: Duration) {
        if self.fault.is_killed(rank) {
            // Fail-stop: a dead node neither gossips nor observes.
            return;
        }
        let membership = &self.memberships[rank];
        // Any frame from a current-incarnation peer is liveness evidence.
        if frame.from != rank && frame.from < membership.ranks() {
            let evidence_incarnation = if frame.tag == TAG_HEARTBEAT {
                frame
                    .bytes
                    .get(..8)
                    .and_then(|b| b.try_into().ok())
                    .map(u64::from_le_bytes)
                    .unwrap_or_else(|| membership.incarnation_of(frame.from))
            } else {
                membership.incarnation_of(frame.from)
            };
            let _ = membership.observe_alive(frame.from, evidence_incarnation, now);
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
                if theirs.is_some_and(|digest| digest != membership.digest()) {
                    self.mesh.send(rank, frame.from, TAG_VIEW_PULL, Vec::new());
                }
            }
            TAG_SUSPECT => {
                if let Some((subject, state, incarnation)) = decode_suspect(&frame.bytes) {
                    if subject < membership.ranks() {
                        if let Some(t) = membership.adopt(subject, state, incarnation, now) {
                            self.react(rank, &t);
                        }
                    }
                }
            }
            TAG_VIEW_PULL => {
                let reply = view_payload(&membership.view_entries());
                self.mesh.send(rank, frame.from, TAG_VIEW_SYNC, reply);
            }
            TAG_VIEW_SYNC => {
                if let Some(entries) = decode_view(&frame.bytes) {
                    for t in membership.merge_view(&entries, now) {
                        self.react(rank, &t);
                    }
                }
            }
            _ => {} // unknown tags are ignored (future protocol extensions)
        }
    }

    /// Node `rank` acts on one adopted membership transition.  A refutation
    /// — an accusation against `rank` itself that [`Membership::adopt`]
    /// outbid with a fresh incarnation — is broadcast so the accuser (and
    /// everyone it gossiped to) adopts the new incarnation, and is recorded
    /// through the `CLUSTER_REJOIN` join point (`ok` = 0).
    fn react(&self, rank: usize, t: &Transition) {
        if t.subject == rank && t.to == NodeState::Alive {
            self.mesh.broadcast(rank, TAG_SUSPECT, &suspect_payload(t));
            dispatch_rejoin(&self.obs_woven, rank, t.incarnation, false);
        }
    }

    /// Broadcast a transition node `rank`'s sweep originated and record it
    /// through the `CLUSTER_SUSPECT` join point (attrs: `node` = the
    /// subject, `ok` = 1 for a suspicion, 0 for a death).  Only the
    /// originator broadcasts — adopted claims are not re-gossiped, so there
    /// is no storm.
    fn publish(&self, rank: usize, t: &Transition) {
        self.mesh.broadcast(rank, TAG_SUSPECT, &suspect_payload(t));
        if t.to != NodeState::Alive {
            let attrs = [(attr::NODE, t.subject as i64)];
            self.obs_woven.dispatch_returning(
                names::CLUSTER_SUSPECT,
                JoinPointKind::Call,
                &attrs,
                |ctx| ctx.set_attr(attr::OK, i64::from(t.to == NodeState::Suspect)),
            );
        }
    }

    /// Killed rank `from`'s orphan sink, called by whoever orphans the job
    /// (the kill inside the step, or a worker racing it): count the orphan
    /// until it settles, then re-home it.
    fn strand(self: &Arc<Self>, from: usize, orphan: OrphanedJob) {
        self.failover.books().unsettled += 1;
        self.rehome(from, orphan, false);
    }

    /// Replay a stranded job on the survivor rendezvous-hashed over the
    /// not-killed ranks, so a batch of orphans spreads instead of dogpiling
    /// one node, falling through to the next survivor when one refuses it.
    /// A survivor that is only throttled leaves the orphan parked in the
    /// intake, unless `wait` parks the admission until it has room.  With no
    /// survivor left the orphan is abandoned.  The replay's handle gets one
    /// waker, which settles the original; if the replay has already
    /// resolved, it settles here.
    fn rehome(self: &Arc<Self>, from: usize, orphan: OrphanedJob, wait: bool) {
        let key = orphan.cell.job ^ ((from as u64) << 48);
        let mut candidates: Vec<usize> =
            (0..self.nodes.len()).filter(|&r| r != from && !self.nodes[r].is_killed()).collect();
        while !candidates.is_empty() {
            let to = rendezvous_owner(key, &candidates);
            let node = &self.nodes[to];
            let session = *self.failover.sessions[to]
                .get_or_init(|| node.open_session(SessionSpec::tenant("cluster-failover")));
            let patience = if wait { Duration::MAX } else { Duration::ZERO };
            match node.submit_timeout(session, orphan.spec.clone(), patience) {
                Ok(handle) => {
                    let (plane, failover) = (Arc::downgrade(self), Arc::clone(&self.failover));
                    let replay = Arc::new(Replay { plane, failover, from, to, orphan, handle });
                    let waker = Waker::from(Arc::clone(&replay));
                    if let Some(outcome) = replay.handle.cell.slot.poll_with_waker(&waker) {
                        replay.settle(outcome);
                    }
                    return;
                }
                Err(error) if error.is_backpressure() => {
                    self.failover.books().intake.push((from, orphan));
                    return self.failover.changed.notify_all();
                }
                Err(_) => candidates.retain(|&r| r != to),
            }
        }
        let abandoned = orphan.cell.error(JobErrorKind::Abandoned);
        self.nodes[from].resolve_orphan(&orphan.cell, Err(abandoned));
        self.failover.settled_one();
    }

    /// Re-home every parked orphan once more; without `wait`, one still
    /// throttled parks again.
    fn retry_intake(self: &Arc<Self>, wait: bool) {
        let parked = std::mem::take(&mut self.failover.books().intake);
        for (from, orphan) in parked {
            self.rehome(from, orphan, wait);
        }
    }

    /// Block until every orphan has settled, re-homing the intake with
    /// admissions that park until they are let in; `false` if none was left
    /// to wait for.
    fn await_orphans(self: &Arc<Self>) -> bool {
        let mut books = self.failover.books();
        let waited = books.unsettled > 0;
        while books.unsettled > 0 {
            if books.intake.is_empty() {
                books = self.failover.changed.wait(books).unwrap_or_else(PoisonError::into_inner);
            } else {
                drop(books);
                self.retry_intake(true);
                books = self.failover.books();
            }
        }
        waited
    }
}

/// The cluster's failover books, apart from the plane so that a replay's
/// waker holds them while it holds the nodes only weakly: one replay
/// session per node, opened lazily; the intake of orphans `(from, job)`
/// whose survivor was only throttled; and how many orphans have not settled
/// yet, parked or replaying.
struct Failover {
    sessions: Vec<OnceLock<SessionId>>,
    books: StdMutex<Books>,
    /// Signalled when an orphan parks or settles.
    changed: Condvar,
}

struct Books {
    intake: Vec<(usize, OrphanedJob)>,
    unsettled: usize,
}

impl Failover {
    fn books(&self) -> MutexGuard<'_, Books> {
        self.books.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn settled_one(&self) {
        self.books().unsettled -= 1;
        self.changed.notify_all();
    }
}

/// One orphan of rank `from` replaying on survivor `to`, registered as the
/// replay's waker.
struct Replay {
    plane: Weak<Liveness>,
    failover: Arc<Failover>,
    from: usize,
    to: usize,
    orphan: OrphanedJob,
    handle: JobHandle,
}

impl Wake for Replay {
    fn wake(self: Arc<Self>) {
        self.settle(self.handle.poll().expect("woken by the replay's resolution"));
    }
}

impl Replay {
    /// Stamp the replay's report with its provenance, resolve the original
    /// on the node that stranded it (its handle, which the session's stream
    /// reads, was left open for this), record the `CLUSTER_FAILOVER` join
    /// point, and retry the intake, since the replay freed a
    /// failover-session slot.  Runs on
    /// the survivor's worker inside its settlement, with no service lock
    /// held.  The orphan counts as settled only once the plane is let go:
    /// the cluster's shutdown waits for that, so a worker is never the last
    /// holder of the nodes.
    fn settle(&self, outcome: JobOutcome) {
        let (orphan, original_job) = (&self.orphan, self.orphan.cell.job);
        let outcome: JobOutcome = match outcome {
            Ok(mut report) => {
                report.failover = Some(FailoverProvenance {
                    from_node: self.from,
                    to_node: self.to,
                    original_job,
                    checkpoint_steps: orphan.watermark.steps,
                });
                Ok(report)
            }
            Err(err) => Err(orphan.cell.error(err.kind)),
        };
        if let Some(plane) = self.plane.upgrade() {
            let ok = outcome.is_ok();
            plane.nodes[self.from].resolve_orphan(&orphan.cell, outcome);
            let attrs = [(attr::NODE, self.to as i64), (attr::JOB, original_job as i64)];
            plane.obs_woven.dispatch_returning(
                names::CLUSTER_FAILOVER,
                JoinPointKind::Execution,
                &attrs,
                |ctx| ctx.set_attr(attr::OK, i64::from(ok)),
            );
            plane.retry_intake(false);
        }
        self.failover.settled_one();
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
/// Dropping the cluster (or calling [`ClusterService::shutdown`]) stops the
/// liveness step, drains every node, settles every stranded job and joins
/// all workers.
pub struct ClusterService {
    /// The liveness plane, which also owns the nodes and their views.
    liveness: Arc<Liveness>,
    /// The wall clock's liveness ticker and its stop channel; a fake clock's
    /// `advance` steps the liveness plane itself.
    ticker: Option<(Sender<()>, JoinHandle<()>)>,
    tuning: ClusterTuning,
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
    /// the same clock for deterministic traces).  Every `advance` runs one
    /// liveness step, until no frame moves, on the advancing thread.
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
        let clock = clock.map_or_else(ServiceClock::real, ServiceClock::Fake);
        let now = clock.now();
        let memberships = (0..nodes).map(|r| Arc::new(Membership::new(r, nodes, tuning, now)));
        let services: Vec<Arc<KernelService>> = (0..nodes)
            .map(|_| Arc::new(KernelService::start(config, clock.clone(), obs.clone())))
            .collect();
        // The liveness step and the replays dispatch through a node's
        // service-plane program: the obs aspect is stateless beyond the hub
        // every node shares, and cloning a woven program is an Arc bump.
        let obs_woven = services[0].service_woven();
        let failover = Failover {
            sessions: (0..nodes).map(|_| OnceLock::new()).collect(),
            books: StdMutex::new(Books { intake: Vec::new(), unsettled: 0 }),
            changed: Condvar::new(),
        };
        let liveness = Arc::new(Liveness {
            mesh: FrameMesh::new(nodes),
            memberships: memberships.collect(),
            fault: plan.arm(nodes),
            nodes: services,
            failover: Arc::new(failover),
            clock: clock.clone(),
            obs_woven,
            turn: Mutex::new(Turn { stopped: false, beats: vec![0; nodes] }),
        });
        // A node's stranded jobs re-home where they are orphaned.  The sink
        // holds the plane weakly, as every node holds its sink.
        for (rank, node) in liveness.nodes.iter().enumerate() {
            let plane = Arc::downgrade(&liveness);
            let sink: OrphanSink = Arc::new(move |orphan| {
                if let Some(plane) = plane.upgrade() {
                    plane.strand(rank, orphan);
                }
            });
            node.install_orphan_sink(sink);
        }
        // The pacer holds the plane weakly: a fake clock keeps its hook for
        // its own lifetime, which must not keep the nodes alive.
        let plane = Arc::downgrade(&liveness);
        let ticker = clock.pace(tuning.heartbeat_every, "aohpc-liveness", move || {
            if let Some(liveness) = plane.upgrade() {
                liveness.step();
            }
        });
        ClusterService { liveness, ticker, tuning, obs }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.liveness.nodes.len()
    }

    /// Direct access to one node's service (stats, completion streams, or
    /// node-local administration).
    pub fn node(&self, rank: usize) -> &KernelService {
        &self.liveness.nodes[rank]
    }

    /// The failure-detector timing this cluster runs with.
    pub fn tuning(&self) -> ClusterTuning {
        self.tuning
    }

    /// Rank `observer`'s failure-detector counters.
    pub fn membership_stats(&self, observer: usize) -> MembershipStats {
        self.liveness.memberships[observer].stats()
    }

    /// What rank `observer` currently believes about rank `subject`.
    pub fn node_state(&self, observer: usize, subject: usize) -> NodeState {
        self.liveness.memberships[observer].state_of(subject)
    }

    /// The incarnation rank `observer` currently believes rank `subject`
    /// runs (for `observer == subject`, the rank's own incarnation).
    /// Converged views agree on every rank's incarnation.
    pub fn incarnation(&self, observer: usize, subject: usize) -> u64 {
        self.liveness.memberships[observer].incarnation_of(subject)
    }

    /// The ranks `observer` currently considers alive (itself included).
    pub fn live_view(&self, observer: usize) -> Vec<usize> {
        self.liveness.memberships[observer].live_view()
    }

    /// The node a tenant label is affine to: a stable hash, so every session
    /// a tenant opens lands on the same node and reuses its warm plans and
    /// scratches.
    pub fn home_node(&self, tenant: &str) -> usize {
        let mut hasher = DefaultHasher::new();
        tenant.hash(&mut hasher);
        (hasher.finish() % self.liveness.nodes.len() as u64) as usize
    }

    /// Open a session on the tenant's [`ClusterService::home_node`].
    pub fn open_session(&self, spec: SessionSpec) -> ClusterSessionId {
        let node = self.home_node(&spec.tenant);
        self.open_session_on(node, spec)
    }

    /// Open a session on an explicit node (placement override).
    pub fn open_session_on(&self, node: usize, spec: SessionSpec) -> ClusterSessionId {
        ClusterSessionId { node, session: self.liveness.nodes[node].open_session(spec) }
    }

    /// Submit one job under a cluster session (session-affine: runs on the
    /// session's node).  Semantics match [`KernelService::submit`].
    pub fn submit(&self, id: ClusterSessionId, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        self.liveness.nodes[id.node].submit(id.session, spec)
    }

    /// Non-blocking submit; see [`KernelService::try_submit`].
    pub fn try_submit(
        &self,
        id: ClusterSessionId,
        spec: JobSpec,
    ) -> Result<JobHandle, SubmitError> {
        self.liveness.nodes[id.node].try_submit(id.session, spec)
    }

    /// Attach the session's completion stream on its node.
    pub fn completion_stream(&self, id: ClusterSessionId) -> Result<CompletionStream, SubmitError> {
        self.liveness.nodes[id.node].completion_stream(id.session)
    }

    /// Snapshot a cluster session's context.
    pub fn session(&self, id: ClusterSessionId) -> Option<SessionCtx> {
        self.liveness.nodes[id.node].session(id.session)
    }

    /// Close a cluster session; see [`KernelService::close_session`].
    pub fn close_session(&self, id: ClusterSessionId) -> Option<SessionMeter> {
        self.liveness.nodes[id.node].close_session(id.session)
    }

    /// Drain one session's reports on its node.
    pub fn drain_session(&self, id: ClusterSessionId) -> Vec<JobReport> {
        self.liveness.nodes[id.node].drain_session(id.session)
    }

    /// Drain every node, waiting until every node is idle and every job a
    /// kill stranded has settled — so every original handle has resolved
    /// when this returns — and return all reports in node-major order (node
    /// 0's reports by job id, then node 1's, ...; job ids are node-local).
    /// Orphans parked on a throttled survivor are re-homed here with parking
    /// admissions.
    pub fn drain(&self) -> Vec<JobReport> {
        let nodes = &self.liveness.nodes;
        let mut reports: Vec<Vec<JobReport>> = nodes.iter().map(|node| node.drain()).collect();
        // A node's drain returns once the cluster counts its orphans; their
        // replays may land on nodes already drained, so drain again after.
        while self.liveness.await_orphans() {
            for (node, reports) in nodes.iter().zip(&mut reports) {
                reports.extend(node.drain());
                reports.sort_by_key(|report| report.job);
            }
        }
        reports.concat()
    }

    /// Per-node and cluster-aggregated plan-cache counters.  Each node
    /// compiles each distinct plan it resolves once, so `total.compiles` is
    /// the sum over nodes of the distinct plans each resolved.
    pub fn cache_stats(&self) -> ClusterCacheStats {
        let per_node: Vec<PlanCacheStats> =
            self.liveness.nodes.iter().map(|n| n.cache_stats()).collect();
        let total = per_node.iter().fold(PlanCacheStats::default(), |acc, s| acc + *s);
        ClusterCacheStats { total, per_node }
    }

    /// Per-node and cluster-aggregated fabric counters.  The fabric carries
    /// liveness frames only (heartbeats, gossip, view sync), metered into
    /// the `liveness_*` counters; the job path sends nothing, so every other
    /// counter stays 0.
    pub fn comm_stats(&self) -> ClusterCommStats {
        let per_node: Vec<CommStats> =
            (0..self.liveness.nodes.len()).map(|r| self.liveness.mesh.stats(r)).collect();
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
    /// an installed observer.  Once idle (after
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
        let admission = self.liveness.nodes.iter().map(|node| node.admission_stats());
        Some(obs_snapshot(hub, self.cache_stats().total, Some(comm), admission))
    }

    /// Clean shutdown: stop the liveness step, then drain every node and
    /// settle every stranded job ([`ClusterService::drain`]); every node's
    /// workers stop as its last handle drops with the cluster.  Implied by
    /// `Drop`.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // No more heartbeats, sweeps or scripted kills; a step in progress
        // finishes first.  A fake clock keeps its hook, which now does
        // nothing.
        self.liveness.stop();
        if let Some((stop, ticker)) = self.ticker.take() {
            drop(stop);
            let _ = ticker.join();
        }
        // Jobs a kill racing the stop stranded are replayed or abandoned
        // here, so no handle is left unresolved.
        let _ = self.drain();
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
            .field("nodes", &self.liveness.nodes.len())
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

    /// One detector beat: the advance runs one liveness step.
    fn beat(clock: &FakeClock) {
        clock.advance(Duration::from_millis(10));
    }

    #[test]
    fn heartbeats_count_into_liveness_and_nothing_else() {
        let clock = FakeClock::new();
        let cluster = fake_pair(&clock, None);
        for _ in 0..5 {
            beat(&clock);
        }
        let comm = cluster.comm_stats();
        for (rank, node) in comm.per_node.iter().enumerate() {
            assert!(node.liveness_sent >= 5, "rank {rank} beat every advance: {node:?}");
            let others = CommStats { liveness_sent: 0, liveness_received: 0, ..*node };
            assert_eq!(others, CommStats::default(), "rank {rank}: liveness only");
        }
        assert_eq!(comm.total.liveness_sent, comm.total.liveness_received, "liveness balance");
        cluster.shutdown();

        let mesh = FrameMesh::new(1);
        assert!(!mesh.send(0, 1, TAG_HEARTBEAT, Vec::new()), "no rank 1 in the mesh");
    }

    /// Every liveness tag's well-formed payload, truncated at every length
    /// and with each single byte flipped (every single bit, then the whole
    /// byte), plus an unknown tag, and the same from a sender outside the
    /// mesh, injected into node 0's inbox — one accusation of node 0 seeded
    /// at incarnation `u64::MAX`, which it cannot outbid: nothing panics, no
    /// transition names a rank outside the mesh, and the views converge
    /// again — both ranks Alive in both views, agreeing on every
    /// incarnation.  A flipped frame can be a well-formed claim (a higher
    /// incarnation, a suspicion, a death), so a refutation may bump an
    /// incarnation on the way.
    #[test]
    fn fabric_wire_fuzz_leaves_views_convergent() {
        const NODES: usize = 2;
        let clock = FakeClock::new();
        let hub = ObsHub::with_clock(clock.clone());
        let cluster = fake_pair(&clock, Some(Arc::clone(&hub)));
        for _ in 0..3 {
            beat(&clock);
        }
        let peer = &cluster.liveness.memberships[1];
        let mut heartbeat = peer.incarnation_of(1).to_le_bytes().to_vec();
        heartbeat.extend_from_slice(&peer.digest().to_le_bytes());
        let accuse = |subject, incarnation| {
            suspect_payload(&Transition { subject, to: NodeState::Suspect, incarnation })
        };
        let bases = [
            (TAG_HEARTBEAT, heartbeat),
            (TAG_SUSPECT, accuse(0, 0)),
            (TAG_SUSPECT, accuse(1, 0)),
            (TAG_SUSPECT, accuse(0, u64::MAX)),
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
            assert!(cluster.liveness.mesh.send(1, 0, *tag, bytes.clone()));
            let frame = ControlFrame { from: forged as usize, tag: *tag, bytes: bytes.clone() };
            cluster.liveness.mesh.senders[0].send(frame).unwrap();
        }
        beat(&clock);

        let converged = |c: &ClusterService| {
            (0..NODES).all(|subject| {
                (0..NODES).all(|observer| c.node_state(observer, subject) == NodeState::Alive)
                    && c.incarnation(0, subject) == c.incarnation(1, subject)
            })
        };
        // Past the death deadline first, so a claim nobody refuted shows.
        let mut beats = 0;
        while beats < 20 || !converged(&cluster) {
            assert!(beats < 500, "views never converged: {:?}", cluster.liveness.memberships);
            beat(&clock);
            beats += 1;
        }
        assert!(cluster.liveness.memberships.iter().all(|view| view.ranks() == NODES));
        for span in hub.recorder().spans() {
            if [names::CLUSTER_SUSPECT, names::CLUSTER_REJOIN].contains(&span.name) {
                assert!((0..NODES as i64).contains(&span.a), "{} names rank {}", span.name, span.a);
            }
        }
        cluster.shutdown();
    }

    /// A frame the fault harness holds is released once due even when its
    /// receiver hears nothing else: rank 1's heartbeats toward rank 0 are
    /// held until `until` and rank 1 is killed before then.  The step at
    /// `until` releases them all, and rank 0 folds them as rank 1's latest
    /// evidence — without them it would suspect rank 1 at `until`, 60 ms
    /// after last hearing from it.
    #[test]
    fn held_frames_are_released_without_further_traffic() {
        let until = Duration::from_millis(60);
        let plan = FaultPlan::new()
            .delay_frames(Some(1), Some(0), None, until)
            .kill_at(1, Duration::from_millis(25));
        let clock = FakeClock::new();
        let config = ServiceConfig::default().with_workers(1);
        let cluster = ClusterService::with_fake_clock(
            2,
            config,
            clock.clone(),
            ClusterTuning::fast(),
            plan,
            None,
        );
        while clock.now() < until {
            beat(&clock);
        }
        assert_eq!(cluster.liveness.fault.held_count(), 0, "every held frame is due at {until:?}");
        assert_eq!(cluster.node_state(0, 1), NodeState::Alive);
        assert_eq!(cluster.membership_stats(0).suspicions, 0);
        cluster.shutdown();
    }
}
