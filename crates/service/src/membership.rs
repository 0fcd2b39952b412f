//! Cluster liveness: the per-node membership view, and the rendezvous hash
//! that picks a survivor for a dead node's orphaned jobs.
//!
//! Every rank runs a failure detector over the cluster's frame mesh:
//! heartbeats ride liveness frames (metered into
//! [`CommStats::liveness_sent`](aohpc_runtime::CommStats::liveness_sent)),
//! and each node folds what it hears into a [`Membership`] view —
//! [`NodeState::Alive`] / [`NodeState::Suspect`] /
//! [`NodeState::Dead`] per rank, each claim carrying an **incarnation
//! number** so late frames from a declared-dead rank are recognizably stale
//! and dropped instead of resurrecting it.
//!
//! # Incarnation arbitration (SWIM-style)
//!
//! Every claim is a point `(incarnation, state)` in a lattice ordered by
//! incarnation first and severity second (`Dead > Suspect > Alive` at equal
//! incarnation).  Views converge by always adopting the larger point
//! ([`Membership::adopt`], [`Membership::merge_view`]), which makes three
//! recovery behaviours fall out of one rule:
//!
//! * **Refutation.**  A suspected-but-alive rank that hears an accusation
//!   against its *current* incarnation bumps its own incarnation past the
//!   claim and announces `Alive` at the new number — a strictly larger
//!   point, so the accusation loses everywhere it raced to.  Each
//!   incarnation refutes at most once: a repeated accusation of an already
//!   refuted incarnation is stale and ignored (the "exactly one refutation"
//!   the asymmetric-partition drill asserts).
//! * **Rejoin.**  A restarted rank calls [`Membership::restart`], which
//!   bumps its incarnation past anything its peers can believe about the
//!   old one.  Its next heartbeat is therefore a larger point than the
//!   `Dead` entry peers hold, reviving it ([`MembershipStats::rejoins`])
//!   where a heartbeat from the *old* incarnation would still be ignored —
//!   death is terminal per incarnation, never per rank.
//! * **Anti-entropy.**  Heartbeats carry a digest of the sender's whole
//!   view ([`Membership::digest`]); a receiver whose digest differs pulls
//!   the peer's full `(state, incarnation)` vector and lattice-merges it,
//!   so asymmetric partitions converge once any path between the divided
//!   sides heals — without re-gossiping every transition.
//!
//! Detection is driven by the service's `Clock` seam: under a
//! [`FakeClock`](aohpc_testalloc::sync::FakeClock) the pacemaker ticks on
//! `advance`, so fault tests control suspicion and death *exactly*; under
//! the wall clock the default [`ClusterTuning`] is generous (suspect after
//! ~1 s of silence, dead after ~3 s) and [`Membership::tick`] forgives its
//! own stalls — if the detector itself was descheduled longer than the
//! suspect threshold, it refreshes every deadline instead of suspecting the
//! whole world.
//!
//! Job re-homing uses **rendezvous (HRW) hashing** ([`rendezvous_owner`]):
//! each (key, rank) pair gets an independent score and the highest score
//! among the candidates wins.  Removing a rank moves only the keys it won
//! (to their second-highest scorer) — the minimal-disruption property
//! modulo hashing lacks — so a batch of orphans spreads over the survivors
//! instead of dogpiling one.

use serde::Serialize;
use std::sync::Mutex;
use std::time::Duration;

/// One rank's state in the local membership view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum NodeState {
    /// Heard from recently (or never yet measured against a deadline).
    Alive,
    /// Silent past the suspect threshold — excluded from the live view,
    /// still given the chance to refute by any frame carrying a current
    /// incarnation.
    Suspect,
    /// Silent past the death threshold (or fail-stopped by the fault
    /// harness).  Terminal for the *incarnation*: only a strictly higher
    /// incarnation — a restarted rank re-announcing itself — revives the
    /// entry ([`MembershipStats::rejoins`]).
    Dead,
}

/// Failure-detector timing knobs.
///
/// The defaults are deliberately generous for wall-clock runs (the existing
/// cluster tests assert exact compile counts and must never see a false
/// suspicion); fault tests tighten them and drive time with a fake clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterTuning {
    /// Cadence the pacemaker broadcasts heartbeats at.
    pub heartbeat_every: Duration,
    /// Silence after which a rank is suspected (the live view excludes it).
    pub suspect_after: Duration,
    /// Silence after which a suspect is declared dead (failover fires).
    pub dead_after: Duration,
    /// After a suspicion, heartbeats cannot clear it until this cooldown
    /// elapses — a wedged-then-revived fabric must re-earn trust instead of
    /// flapping its state on every late frame.
    pub suspect_cooldown: Duration,
}

impl Default for ClusterTuning {
    fn default() -> Self {
        ClusterTuning {
            heartbeat_every: Duration::from_millis(100),
            suspect_after: Duration::from_secs(1),
            dead_after: Duration::from_secs(3),
            suspect_cooldown: Duration::from_millis(500),
        }
    }
}

impl ClusterTuning {
    /// Aggressive thresholds for fake-clock fault tests: suspicion at 50 ms
    /// of fake silence, death at 150 ms, heartbeats every 10 ms.
    pub fn fast() -> Self {
        ClusterTuning {
            heartbeat_every: Duration::from_millis(10),
            suspect_after: Duration::from_millis(50),
            dead_after: Duration::from_millis(150),
            suspect_cooldown: Duration::from_millis(25),
        }
    }
}

/// Counters of one node's failure detector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct MembershipStats {
    /// Alive → Suspect transitions recorded locally.
    pub suspicions: u64,
    /// Transitions into Dead recorded locally.
    pub deaths: u64,
    /// Suspect → Alive recoveries (a suspect refuted past its cooldown).
    pub recoveries: u64,
    /// Dead → Alive revivals: a rank believed dead re-announced itself
    /// under a strictly higher incarnation (a restart, or a refutation that
    /// outran this view's death verdict).
    pub rejoins: u64,
    /// Times *this* rank bumped its own incarnation to refute an accusation
    /// (a peer claimed it Suspect or Dead at its current incarnation).
    pub refutations: u64,
}

#[derive(Debug, Clone, Copy)]
struct NodeView {
    state: NodeState,
    /// The rank's current incarnation as this node believes it.  Frames
    /// carrying an older incarnation are stale; a declared death bumps it so
    /// nothing the dead incarnation sent can be accepted afterwards.
    incarnation: u64,
    /// Detector time the rank was last heard from.
    last_seen: Duration,
    /// While suspect: detector time before which heartbeats cannot clear
    /// the suspicion.
    cooldown_until: Duration,
}

struct ViewInner {
    nodes: Vec<NodeView>,
    last_tick: Duration,
    stats: MembershipStats,
}

/// One node's view of which ranks are alive — the failure detector state
/// liveness and failover decisions read.  Thread-safe; every method is a
/// short critical section.
pub struct Membership {
    rank: usize,
    tuning: ClusterTuning,
    inner: Mutex<ViewInner>,
}

/// A state transition [`Membership::tick`] or a frame observation produced,
/// for the caller to broadcast / dispatch through the obs join points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The rank whose state changed.
    pub subject: usize,
    /// Its new state.
    pub to: NodeState,
    /// The subject's incarnation after the transition.
    pub incarnation: u64,
}

impl Membership {
    /// A fresh view for `rank` in a mesh of `ranks`, everyone alive at
    /// incarnation 0 and last seen "now".
    pub fn new(rank: usize, ranks: usize, tuning: ClusterTuning, now: Duration) -> Self {
        Membership {
            rank,
            tuning,
            inner: Mutex::new(ViewInner {
                nodes: (0..ranks)
                    .map(|_| NodeView {
                        state: NodeState::Alive,
                        incarnation: 0,
                        last_seen: now,
                        cooldown_until: Duration::ZERO,
                    })
                    .collect(),
                last_tick: now,
                stats: MembershipStats::default(),
            }),
        }
    }

    /// The local rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks in the mesh (live or not).
    pub fn ranks(&self) -> usize {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).nodes.len()
    }

    /// A rank's current state.
    pub fn state_of(&self, rank: usize) -> NodeState {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).nodes[rank].state
    }

    /// A rank's current incarnation.
    pub fn incarnation_of(&self, rank: usize) -> u64 {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).nodes[rank].incarnation
    }

    /// The ranks currently believed alive: Alive only (a suspect is
    /// excluded).  The local rank is always included — a node never
    /// excludes itself.
    pub fn live_view(&self) -> Vec<usize> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner
            .nodes
            .iter()
            .enumerate()
            .filter(|(r, n)| *r == self.rank || n.state == NodeState::Alive)
            .map(|(r, _)| r)
            .collect()
    }

    /// Detector counters.
    pub fn stats(&self) -> MembershipStats {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).stats
    }

    /// Liveness evidence: any frame arriving from `from` at detector time
    /// `now` with the current incarnation refreshes its deadline, and — once
    /// a suspicion's cooldown has passed — clears the suspicion.  Returns a
    /// recovery transition when it does.
    ///
    /// Evidence carrying a **strictly higher** incarnation is arbitration:
    /// the rank restarted (or refuted an accusation this view had already
    /// escalated), so the claim wins outright — a `Dead` entry revives
    /// ([`MembershipStats::rejoins`]) and a suspicion clears immediately,
    /// cooldown notwithstanding.  Evidence from a dead rank at its dead (or
    /// older) incarnation is ignored; death is terminal per incarnation.
    pub fn observe_alive(
        &self,
        from: usize,
        incarnation: u64,
        now: Duration,
    ) -> Option<Transition> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let node = &mut inner.nodes[from];
        if incarnation > node.incarnation {
            // A fresh incarnation announced itself: incarnation arbitration
            // overrides Dead and bypasses the suspicion cooldown — the rank
            // provably restarted (or refuted), it need not re-earn trust
            // the way a flapping old incarnation must.
            let was = node.state;
            node.incarnation = incarnation;
            node.state = NodeState::Alive;
            node.last_seen = now;
            node.cooldown_until = Duration::ZERO;
            match was {
                NodeState::Dead => inner.stats.rejoins += 1,
                NodeState::Suspect => inner.stats.recoveries += 1,
                NodeState::Alive => return None,
            }
            return Some(Transition { subject: from, to: NodeState::Alive, incarnation });
        }
        if node.state == NodeState::Dead || incarnation < node.incarnation {
            return None;
        }
        node.last_seen = now;
        if node.state == NodeState::Suspect && now >= node.cooldown_until {
            node.state = NodeState::Alive;
            let t =
                Transition { subject: from, to: NodeState::Alive, incarnation: node.incarnation };
            inner.stats.recoveries += 1;
            return Some(t);
        }
        None
    }

    /// Adopt a peer's claim about `subject` (a `SUSPECT` broadcast or one
    /// anti-entropy vector entry): views converge because claims form a
    /// lattice — a higher incarnation always wins, and Dead beats Suspect
    /// beats Alive at equal incarnation.  Claims are stored *exactly as
    /// claimed* (no local re-bump), so every view settles on the same
    /// `(incarnation, state)` point and digests agree after convergence.
    ///
    /// A claim about **this rank itself** is an accusation: if it would
    /// condemn the current incarnation, the rank refutes SWIM-style —
    /// bumps its own incarnation past the claim
    /// ([`MembershipStats::refutations`]) and returns an `Alive` transition
    /// at the new incarnation for the caller to broadcast.  An accusation
    /// against an already-superseded incarnation is stale and ignored, so
    /// each incarnation refutes at most once.
    ///
    /// Returns the local transition if the claim changed anything.
    pub fn adopt(
        &self,
        subject: usize,
        to: NodeState,
        incarnation: u64,
        now: Duration,
    ) -> Option<Transition> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        Self::adopt_locked(self.rank, &self.tuning, &mut inner, subject, to, incarnation, now)
    }

    fn adopt_locked(
        rank: usize,
        tuning: &ClusterTuning,
        inner: &mut ViewInner,
        subject: usize,
        to: NodeState,
        incarnation: u64,
        now: Duration,
    ) -> Option<Transition> {
        if subject == rank {
            // An accusation against ourselves: we never mark ourselves down;
            // we refute by outbidding the claim's incarnation.
            let node = &mut inner.nodes[rank];
            if to == NodeState::Alive || incarnation < node.incarnation {
                return None;
            }
            node.incarnation = incarnation + 1;
            let refuted =
                Transition { subject: rank, to: NodeState::Alive, incarnation: node.incarnation };
            inner.stats.refutations += 1;
            return Some(refuted);
        }
        let node = &mut inner.nodes[subject];
        let stronger = incarnation > node.incarnation
            || (incarnation == node.incarnation && rank_of_state(to) > rank_of_state(node.state));
        if !stronger {
            return None;
        }
        let was = node.state;
        node.incarnation = incarnation;
        node.state = to;
        match to {
            NodeState::Dead => inner.stats.deaths += 1,
            NodeState::Suspect => {
                node.cooldown_until = now + tuning.suspect_cooldown;
                inner.stats.suspicions += 1;
            }
            NodeState::Alive => {
                // An adopted revival (a refutation or rejoin that reached us
                // second-hand): treat it as fresh evidence.
                node.last_seen = now;
                node.cooldown_until = Duration::ZERO;
                match was {
                    NodeState::Dead => inner.stats.rejoins += 1,
                    NodeState::Suspect => inner.stats.recoveries += 1,
                    NodeState::Alive => {}
                }
            }
        }
        Some(Transition { subject, to, incarnation })
    }

    /// Unilaterally declare `subject` dead (the fault harness's fail-stop).  The verdict condemns the
    /// subject's *current* incarnation — a restart announces a higher one
    /// and revives the entry.  Returns the transition if the rank was not
    /// already dead.
    pub fn declare_dead(&self, subject: usize) -> Option<Transition> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let node = &mut inner.nodes[subject];
        if node.state == NodeState::Dead {
            return None;
        }
        node.state = NodeState::Dead;
        let incarnation = node.incarnation;
        inner.stats.deaths += 1;
        Some(Transition { subject, to: NodeState::Dead, incarnation })
    }

    /// One deadline sweep at detector time `now`: Alive ranks silent past
    /// `suspect_after` become Suspect (cooldown started), Suspect ranks
    /// silent past `dead_after` become Dead (incarnation bumped).  Returns
    /// every transition for the caller to broadcast.
    ///
    /// **Stall forgiveness**: if the detector *itself* went longer than
    /// `suspect_after` between sweeps (a descheduled thread on a loaded
    /// host, not silent peers), every deadline is refreshed instead — a
    /// stalled observer must not condemn the observed.
    pub fn tick(&self, now: Duration) -> Vec<Transition> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let gap = now.saturating_sub(inner.last_tick);
        inner.last_tick = now;
        if gap > self.tuning.suspect_after {
            for node in &mut inner.nodes {
                if node.state != NodeState::Dead {
                    node.last_seen = now;
                }
            }
            return Vec::new();
        }
        let mut transitions = Vec::new();
        let me = self.rank;
        let (suspect_after, dead_after, cooldown) =
            (self.tuning.suspect_after, self.tuning.dead_after, self.tuning.suspect_cooldown);
        for (rank, node) in inner.nodes.iter_mut().enumerate() {
            if rank == me {
                continue;
            }
            let silent = now.saturating_sub(node.last_seen);
            match node.state {
                NodeState::Alive if silent > suspect_after => {
                    node.state = NodeState::Suspect;
                    node.cooldown_until = now + cooldown;
                    transitions.push(Transition {
                        subject: rank,
                        to: NodeState::Suspect,
                        incarnation: node.incarnation,
                    });
                }
                NodeState::Suspect if silent > dead_after => {
                    // The verdict condemns the incarnation as claimed: every
                    // view that adopts it lands on the same (incarnation,
                    // Dead) point, and only a strictly higher incarnation —
                    // a restart — revives it.
                    node.state = NodeState::Dead;
                    transitions.push(Transition {
                        subject: rank,
                        to: NodeState::Dead,
                        incarnation: node.incarnation,
                    });
                }
                _ => {}
            }
        }
        for t in &transitions {
            match t.to {
                NodeState::Suspect => inner.stats.suspicions += 1,
                NodeState::Dead => inner.stats.deaths += 1,
                NodeState::Alive => {}
            }
        }
        transitions
    }

    /// Restart this rank's own membership after a fail-stop: bump its
    /// incarnation past anything a peer can believe about the old one and
    /// cold-reset the view (every peer Alive, deadlines from `now`) — the
    /// rejoiner re-learns the world through heartbeats and anti-entropy
    /// rather than trusting a view frozen at its moment of death.  Peers'
    /// believed incarnations are kept: they only ever rise, and keeping
    /// them means a stale frame from before the outage still loses.
    ///
    /// Returns the new incarnation (what the next heartbeat announces).
    ///
    /// The `+1` suffices because a peer's belief about this rank only ever
    /// comes from this rank's own frames: a death verdict condemns the
    /// *claimed* incarnation without re-bumping it, so no view can hold an
    /// incarnation above our own.
    pub fn restart(&self, now: Duration) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.last_tick = now;
        let me = self.rank;
        for (rank, node) in inner.nodes.iter_mut().enumerate() {
            if rank == me {
                node.incarnation += 1;
            } else {
                node.state = NodeState::Alive;
            }
            node.last_seen = now;
            node.cooldown_until = Duration::ZERO;
        }
        inner.nodes[me].incarnation
    }

    /// An order-sensitive digest of the whole view's `(state, incarnation)`
    /// vector — what heartbeats carry so a peer holding a *different* view
    /// knows to pull ours ([`Membership::view_entries`]) and lattice-merge
    /// it.  Converged views produce equal digests, so a quiescent cluster
    /// exchanges no anti-entropy traffic at all.
    pub fn digest(&self) -> u64 {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let mut acc = 0xa09_c0de_u64;
        for node in &inner.nodes {
            acc = mix64(acc ^ mix64(node.incarnation ^ ((rank_of_state(node.state) as u64) << 62)));
        }
        acc
    }

    /// The full `(state, incarnation)` vector, one entry per rank — the
    /// anti-entropy sync payload a digest mismatch requests.
    pub fn view_entries(&self) -> Vec<(NodeState, u64)> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.nodes.iter().map(|n| (n.state, n.incarnation)).collect()
    }

    /// Lattice-merge a peer's full view into ours: each entry is adopted
    /// under the same arbitration as a gossiped claim (higher incarnation
    /// wins; severity breaks ties), and an entry condemning *this* rank's
    /// current incarnation triggers a refutation.  Because the merge only
    /// ever moves entries up the lattice, repeated exchanges converge and
    /// the digests stop differing.  Returns every local transition for the
    /// caller to act on (broadcasting refutations).
    pub fn merge_view(&self, entries: &[(NodeState, u64)], now: Duration) -> Vec<Transition> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let ranks = inner.nodes.len();
        let mut transitions = Vec::new();
        for (subject, &(state, incarnation)) in entries.iter().enumerate().take(ranks) {
            if let Some(t) = Self::adopt_locked(
                self.rank,
                &self.tuning,
                &mut inner,
                subject,
                state,
                incarnation,
                now,
            ) {
                transitions.push(t);
            }
        }
        transitions
    }
}

impl std::fmt::Debug for Membership {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        f.debug_struct("Membership")
            .field("rank", &self.rank)
            .field("states", &inner.nodes.iter().map(|n| n.state).collect::<Vec<_>>())
            .field("stats", &inner.stats)
            .finish()
    }
}

/// Severity order for view convergence: a stronger claim overwrites a weaker
/// one at equal incarnation.
fn rank_of_state(state: NodeState) -> u8 {
    match state {
        NodeState::Alive => 0,
        NodeState::Suspect => 1,
        NodeState::Dead => 2,
    }
}

/// splitmix64 — an independent, well-mixed score per (key, rank) pair.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Rendezvous (highest-random-weight) owner of `key_hash` among
/// `live_ranks`: every (key, rank) pair scores independently and the highest
/// score wins, so removing a rank re-homes **only** the keys it owned.
/// Ties break toward the lower rank (scores are 64-bit, ties are
/// astronomically rare; determinism matters more).  Panics on an empty view
/// — the local rank is always live, so a caller can never present one.
pub fn rendezvous_owner(key_hash: u64, live_ranks: &[usize]) -> usize {
    assert!(!live_ranks.is_empty(), "the local rank is always in the live view");
    let mut best = (0u64, usize::MAX);
    for &rank in live_ranks {
        let score = mix64(key_hash ^ mix64(rank as u64 + 1));
        if score > best.0 || (score == best.0 && rank < best.1) {
            best = (score, rank);
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    fn fast_view(ranks: usize) -> Membership {
        Membership::new(0, ranks, ClusterTuning::fast(), Duration::ZERO)
    }

    #[test]
    fn silence_suspects_then_kills() {
        let view = fast_view(3);
        // Rank 1 keeps talking, rank 2 goes silent.
        let mut transitions = Vec::new();
        for step in 1..=40u32 {
            let now = 10 * step * MS;
            view.observe_alive(1, 0, now);
            transitions.extend(view.tick(now));
        }
        assert_eq!(view.state_of(1), NodeState::Alive);
        assert_eq!(view.state_of(2), NodeState::Dead);
        assert_eq!(
            transitions.iter().map(|t| (t.subject, t.to)).collect::<Vec<_>>(),
            vec![(2, NodeState::Suspect), (2, NodeState::Dead)],
            "one suspicion then one death, nothing else"
        );
        // The verdict condemns the incarnation as claimed (no re-bump).
        assert_eq!(view.incarnation_of(2), 0);
        let stats = view.stats();
        assert_eq!((stats.suspicions, stats.deaths), (1, 1));
    }

    #[test]
    fn heartbeat_after_cooldown_clears_suspicion() {
        let view = fast_view(2);
        assert!(view.adopt(1, NodeState::Suspect, 0, 10 * MS).is_some());
        assert_eq!(view.state_of(1), NodeState::Suspect);
        // Inside the cooldown the heartbeat refreshes the deadline but the
        // suspicion stands.
        assert!(view.observe_alive(1, 0, 20 * MS).is_none());
        assert_eq!(view.state_of(1), NodeState::Suspect);
        // Past the cooldown it recovers.
        let t = view.observe_alive(1, 0, 40 * MS).expect("recovery");
        assert_eq!((t.subject, t.to), (1, NodeState::Alive));
        assert_eq!(view.stats().recoveries, 1);
    }

    #[test]
    fn dead_is_terminal_for_the_incarnation() {
        let view = fast_view(2);
        view.declare_dead(1);
        assert!(view.observe_alive(1, 0, MS).is_none(), "old incarnation cannot revive");
        assert_eq!(view.state_of(1), NodeState::Dead);
        assert!(view.declare_dead(1).is_none(), "idempotent");
        assert!(view.adopt(1, NodeState::Suspect, 0, MS).is_none());
    }

    #[test]
    fn higher_incarnation_revives_a_dead_entry() {
        let view = fast_view(2);
        view.declare_dead(1);
        // The old incarnation keeps knocking; the door stays shut.
        assert!(view.observe_alive(1, 0, 5 * MS).is_none());
        assert_eq!(view.state_of(1), NodeState::Dead);
        // The restarted rank announces incarnation 1: revival.
        let t = view.observe_alive(1, 1, 10 * MS).expect("rejoin transition");
        assert_eq!((t.subject, t.to, t.incarnation), (1, NodeState::Alive, 1));
        assert_eq!(view.state_of(1), NodeState::Alive);
        assert_eq!(view.incarnation_of(1), 1);
        assert_eq!(view.stats().rejoins, 1);
    }

    #[test]
    fn fresh_incarnation_clears_suspicion_without_cooldown() {
        let view = fast_view(2);
        view.adopt(1, NodeState::Suspect, 0, 10 * MS);
        // Still inside the cooldown — but the incarnation bumped, so this
        // is a refutation, not a flap: trust is restored immediately.
        let t = view.observe_alive(1, 1, 12 * MS).expect("refutation observed");
        assert_eq!((t.to, t.incarnation), (NodeState::Alive, 1));
        assert_eq!(view.state_of(1), NodeState::Alive);
        assert_eq!(view.stats().recoveries, 1);
    }

    #[test]
    fn adopt_converges_on_the_stronger_claim() {
        let view = fast_view(3);
        assert!(view.adopt(2, NodeState::Suspect, 0, MS).is_some());
        // A weaker or equal claim changes nothing.
        assert!(view.adopt(2, NodeState::Suspect, 0, MS).is_none());
        assert!(view.adopt(2, NodeState::Alive, 0, MS).is_none());
        // The stronger claim wins and is stored exactly as claimed, so
        // every adopter lands on the same lattice point.
        let t = view.adopt(2, NodeState::Dead, 0, MS).expect("dead beats suspect");
        assert_eq!(t.incarnation, 0);
        assert_eq!(view.incarnation_of(2), 0);
        // An Alive claim at a higher incarnation revives the dead entry.
        let t = view.adopt(2, NodeState::Alive, 1, 2 * MS).expect("second-hand rejoin");
        assert_eq!((t.to, t.incarnation), (NodeState::Alive, 1));
        assert_eq!(view.stats().rejoins, 1);
    }

    #[test]
    fn accusation_against_self_is_refuted_exactly_once() {
        let view = fast_view(3);
        // A peer suspects us at our current incarnation: refute by outbid.
        let t = view.adopt(0, NodeState::Suspect, 0, MS).expect("refutation");
        assert_eq!((t.subject, t.to, t.incarnation), (0, NodeState::Alive, 1));
        assert_eq!(view.state_of(0), NodeState::Alive, "we never mark ourselves down");
        assert_eq!(view.incarnation_of(0), 1);
        // The same accusation again — and a death verdict on the already
        // refuted incarnation — are stale: no second refutation.
        assert!(view.adopt(0, NodeState::Suspect, 0, 2 * MS).is_none());
        assert!(view.adopt(0, NodeState::Dead, 0, 2 * MS).is_none());
        assert_eq!(view.stats().refutations, 1);
        // A fresh accusation of the *new* incarnation is refuted anew.
        let t = view.adopt(0, NodeState::Dead, 1, 3 * MS).expect("second refutation");
        assert_eq!(t.incarnation, 2);
        assert_eq!(view.stats().refutations, 2);
    }

    #[test]
    fn restart_outbids_every_peer_belief_and_cold_resets_the_view() {
        // Peer view: rank 1 suspected, then declared dead at incarnation 0.
        let peer = fast_view(3);
        peer.adopt(1, NodeState::Suspect, 0, 10 * MS);
        peer.declare_dead(1);
        // Rank 1 restarts; its own view had condemned rank 2 meanwhile.
        let me = Membership::new(1, 3, ClusterTuning::fast(), Duration::ZERO);
        me.declare_dead(2);
        let incarnation = me.restart(100 * MS);
        assert_eq!(incarnation, 1);
        assert_eq!(me.incarnation_of(1), 1);
        assert_eq!(me.state_of(2), NodeState::Alive, "cold reset: re-learn the world");
        // The announced incarnation revives the peer's dead entry.
        assert!(peer.observe_alive(1, incarnation, 110 * MS).is_some());
        assert_eq!(peer.state_of(1), NodeState::Alive);
    }

    #[test]
    fn digests_differ_on_divergence_and_converge_after_merge() {
        let a = Membership::new(0, 3, ClusterTuning::fast(), Duration::ZERO);
        let b = Membership::new(1, 3, ClusterTuning::fast(), Duration::ZERO);
        assert_eq!(a.digest(), b.digest(), "fresh views agree");
        a.adopt(2, NodeState::Suspect, 0, 10 * MS);
        a.declare_dead(2);
        assert_ne!(a.digest(), b.digest(), "divergence is visible");
        let transitions = b.merge_view(&a.view_entries(), 20 * MS);
        assert_eq!(transitions.len(), 1);
        assert_eq!((transitions[0].subject, transitions[0].to), (2, NodeState::Dead));
        assert_eq!(a.digest(), b.digest(), "lattice merge converges the views");
        // Merging the other way is now a no-op.
        assert!(a.merge_view(&b.view_entries(), 30 * MS).is_empty());
    }

    #[test]
    fn merge_refutes_an_embedded_accusation_of_self() {
        let a = Membership::new(0, 2, ClusterTuning::fast(), Duration::ZERO);
        a.adopt(1, NodeState::Suspect, 0, 10 * MS);
        // Rank 1 pulls rank 0's view and finds itself suspected: the merge
        // produces the refutation transition for the caller to broadcast.
        let b = Membership::new(1, 2, ClusterTuning::fast(), Duration::ZERO);
        let transitions = b.merge_view(&a.view_entries(), 20 * MS);
        assert_eq!(transitions.len(), 1);
        assert_eq!(
            (transitions[0].subject, transitions[0].to, transitions[0].incarnation),
            (1, NodeState::Alive, 1)
        );
        assert_eq!(b.stats().refutations, 1);
        // Rank 0 hears the refutation (as a heartbeat at the new
        // incarnation) and clears the suspicion despite the cooldown.
        assert!(a.observe_alive(1, 1, 21 * MS).is_some());
        assert_eq!(a.state_of(1), NodeState::Alive);
    }

    #[test]
    fn live_view_excludes_suspects_but_never_self() {
        let view = fast_view(4);
        assert_eq!(view.live_view(), vec![0, 1, 2, 3]);
        view.adopt(2, NodeState::Suspect, 0, MS);
        assert_eq!(view.live_view(), vec![0, 1, 3]);
        view.declare_dead(3);
        assert_eq!(view.live_view(), vec![0, 1]);
        // Even if peers suspect us, we stay in our own view.
        let me = Membership::new(2, 3, ClusterTuning::fast(), Duration::ZERO);
        me.declare_dead(0);
        me.declare_dead(1);
        assert_eq!(me.live_view(), vec![2]);
    }

    #[test]
    fn detector_stall_refreshes_instead_of_condemning() {
        let view = fast_view(3);
        view.tick(10 * MS);
        // The detector itself vanishes for a second (way past dead_after):
        // nobody is suspected, everyone's deadline restarts.
        assert!(view.tick(1010 * MS).is_empty());
        assert_eq!(view.state_of(1), NodeState::Alive);
        // Normal cadence after the stall still detects real silence.
        let mut transitions = Vec::new();
        for step in 1..=40u32 {
            transitions.extend(view.tick((1010 + 10 * step) * MS));
        }
        assert!(transitions.iter().any(|t| t.to == NodeState::Dead));
    }

    #[test]
    fn rendezvous_moves_only_the_dead_ranks_keys() {
        let all: Vec<usize> = (0..4).collect();
        let survivors: Vec<usize> = vec![0, 1, 3];
        let keys: Vec<u64> =
            (0..512u64).map(|i| mix64(i.wrapping_mul(0x1234_5678_9abc_def1))).collect();
        let mut moved = 0;
        let mut owned_by_dead = 0;
        for &k in &keys {
            let before = rendezvous_owner(k, &all);
            let after = rendezvous_owner(k, &survivors);
            if before == 2 {
                owned_by_dead += 1;
                assert_ne!(after, 2, "dead rank owns nothing");
            } else {
                assert_eq!(before, after, "survivor-owned keys keep their owner");
            }
            if before != after {
                moved += 1;
            }
        }
        assert_eq!(moved, owned_by_dead, "minimal disruption: only orphaned keys move");
        assert!(owned_by_dead > 0, "rank 2 owned some of 512 keys");
        // The load spread is roughly even (each of 4 ranks near 128 ± wide
        // slack — this guards against a broken mixer, not for balance).
        for rank in 0..4usize {
            let owned = keys.iter().filter(|&&k| rendezvous_owner(k, &all) == rank).count();
            assert!((50..=210).contains(&owned), "rank {rank} owns {owned} of 512");
        }
    }

    #[test]
    fn rendezvous_is_deterministic_and_single_rank_trivial() {
        for k in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(rendezvous_owner(k, &[5]), 5);
            assert_eq!(rendezvous_owner(k, &[0, 1, 2]), rendezvous_owner(k, &[0, 1, 2]));
        }
    }

    #[test]
    #[should_panic(expected = "always in the live view")]
    fn rendezvous_rejects_an_empty_view() {
        rendezvous_owner(1, &[]);
    }
}
