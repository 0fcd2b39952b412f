//! Failure injection for cluster fault tests: scripted kills, restarts,
//! wedges, directional partitions and control-frame perturbations, all keyed
//! to detector time.
//!
//! A [`FaultPlan`] is a declarative schedule — *kill rank 2 at t=40 ms,
//! restart it at t=200 ms, cut the link 1→0 at t=10 ms and heal it at
//! t=120 ms, delay every heartbeat from 0 to 1 until t=120 ms* — armed into
//! a [`FaultState`] the [`ClusterService`](crate::cluster::ClusterService)'s
//! liveness step consults:
//!
//! * Each liveness step calls [`FaultState::drive`] once, first (on a
//!   [`FakeClock`](aohpc_testalloc::sync::FakeClock) every `advance` runs a
//!   step), and executes the due [`FaultAction`]s itself: a **kill** is
//!   fail-stop — the node's service orphans its queue, and the node neither
//!   beats nor observes; a **restart** brings the killed rank back as a
//!   *fresh incarnation* (its service re-admits, its membership view
//!   restarts with a bumped incarnation, and it rejoins the mesh through
//!   the normal heartbeat / anti-entropy path); a **wedge** stops draining
//!   the node's inbox without killing it (frames pile up; heartbeats stop;
//!   peers suspect it until the scripted unwedge lets it refute).
//! * A **partition** cuts one *direction* of one link: every frame sent by
//!   `from` stops arriving at `to` (the reverse direction is untouched —
//!   asymmetric partitions are scripted as a single cut, symmetric ones as
//!   two).  A **heal** restores the direction.  Cuts are consulted by
//!   [`FaultState::intercept`] before the frame rules, so a partitioned
//!   direction silences heartbeats and gossip alike.
//! * The step passes every frame it drains from a node's inbox through
//!   [`FaultState::intercept`], which delivers, drops, or holds it; every
//!   drain also takes the node's held frames whose release time has passed
//!   from [`FaultState::take_released`], so a frame from a now-dead
//!   incarnation can be made to arrive *after* the death was declared.
//!
//! The harness is pure bookkeeping: it never spawns threads and never
//! touches a clock itself, so the same plan replays identically under any
//! interleaving — determinism comes from the fake clock driving it.

use crate::cluster::ControlFrame;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One scripted fault, executed by [`FaultState::drive`] when its time comes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail-stop `rank`: its service stops admitting and orphans its queue,
    /// and it neither observes nor beats — until a scripted
    /// [`FaultAction::Restart`] brings it back as a fresh incarnation.
    Kill(usize),
    /// Restart a killed `rank`: its service re-admits and its membership
    /// view restarts under a bumped incarnation, so the returning rank's
    /// heartbeats are recognizably *new* — peers revive their Dead entry
    /// (incarnation arbitration) instead of ignoring a stale ghost.
    Restart(usize),
    /// Stop draining `rank`'s inbox: frames queue up undelivered and no
    /// heartbeats leave, but workers keep running — the node *looks* dead to
    /// its peers without being dead.
    Wedge(usize),
    /// Release a wedged node: it drains its backlog and resumes beating,
    /// eventually refuting the suspicion it earned.
    Unwedge(usize),
    /// Cut the directed link `from → to`: frames sent by `from` stop
    /// arriving at `to`.  The reverse direction keeps flowing — this is the
    /// asymmetric-partition primitive.
    Partition {
        /// The sending side of the severed direction.
        from: usize,
        /// The receiving side that goes deaf to `from`.
        to: usize,
    },
    /// Restore the directed link `from → to`.
    Heal {
        /// The sending side of the restored direction.
        from: usize,
        /// The receiving side that hears `from` again.
        to: usize,
    },
}

impl FaultAction {
    /// The primary rank the action targets (for link actions, the sending
    /// side of the affected direction).
    pub fn rank(&self) -> usize {
        match *self {
            FaultAction::Kill(r)
            | FaultAction::Restart(r)
            | FaultAction::Wedge(r)
            | FaultAction::Unwedge(r) => r,
            FaultAction::Partition { from, .. } | FaultAction::Heal { from, .. } => from,
        }
    }

    /// Every rank the action involves (both ends of a link action).
    fn involved(&self) -> (usize, Option<usize>) {
        match *self {
            FaultAction::Kill(r)
            | FaultAction::Restart(r)
            | FaultAction::Wedge(r)
            | FaultAction::Unwedge(r) => (r, None),
            FaultAction::Partition { from, to } | FaultAction::Heal { from, to } => {
                (from, Some(to))
            }
        }
    }
}

/// What [`FaultState::intercept`] decided about one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interception {
    /// Hand the frame to the protocol as usual.
    Deliver,
    /// The frame never happened (a lossy link).
    Dropped,
    /// The frame is parked inside the harness; it will surface from
    /// [`FaultState::take_released`] at its scripted release time.
    Held,
}

/// A frame-matching rule: which (from → to, tag) traffic a perturbation
/// applies to.  `None` fields are wildcards.
#[derive(Debug, Clone, Copy)]
struct FrameRule {
    from: Option<usize>,
    to: Option<usize>,
    tag: Option<u32>,
    effect: Effect,
}

#[derive(Debug, Clone, Copy)]
enum Effect {
    Drop,
    DelayUntil(Duration),
}

impl FrameRule {
    fn matches(&self, to: usize, frame: &ControlFrame) -> bool {
        self.from.is_none_or(|f| f == frame.from)
            && self.to.is_none_or(|t| t == to)
            && self.tag.is_none_or(|t| t == frame.tag)
    }
}

/// A declarative failure schedule, built by tests and armed into the cluster
/// via [`ClusterService::with_fake_clock`](crate::ClusterService::with_fake_clock).
#[derive(Debug, Default)]
pub struct FaultPlan {
    actions: Vec<(Duration, FaultAction)>,
    rules: Vec<FrameRule>,
}

impl FaultPlan {
    /// An empty plan (no faults — the cluster behaves as without a harness).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Fail-stop `rank` at detector time `at`.
    pub fn kill_at(mut self, rank: usize, at: Duration) -> Self {
        self.actions.push((at, FaultAction::Kill(rank)));
        self
    }

    /// Restart a killed `rank` at detector time `at` (fresh incarnation;
    /// the rank rejoins through heartbeats and anti-entropy).
    pub fn restart_at(mut self, rank: usize, at: Duration) -> Self {
        self.actions.push((at, FaultAction::Restart(rank)));
        self
    }

    /// Cut the directed link `from → to` at detector time `at` (frames sent
    /// by `from` stop arriving at `to`; the reverse direction keeps
    /// flowing).  Script both directions for a symmetric partition.
    pub fn partition_at(mut self, from: usize, to: usize, at: Duration) -> Self {
        self.actions.push((at, FaultAction::Partition { from, to }));
        self
    }

    /// Restore the directed link `from → to` at detector time `at`.
    pub fn heal_at(mut self, from: usize, to: usize, at: Duration) -> Self {
        self.actions.push((at, FaultAction::Heal { from, to }));
        self
    }

    /// Wedge `rank` at detector time `at`.
    pub fn wedge_at(mut self, rank: usize, at: Duration) -> Self {
        self.actions.push((at, FaultAction::Wedge(rank)));
        self
    }

    /// Un-wedge `rank` at detector time `at`.
    pub fn unwedge_at(mut self, rank: usize, at: Duration) -> Self {
        self.actions.push((at, FaultAction::Unwedge(rank)));
        self
    }

    /// Drop every frame matching (`from` → `to`, `tag`); `None` = wildcard.
    pub fn drop_frames(mut self, from: Option<usize>, to: Option<usize>, tag: Option<u32>) -> Self {
        self.rules.push(FrameRule { from, to, tag, effect: Effect::Drop });
        self
    }

    /// Hold every frame matching (`from` → `to`, `tag`) until detector time
    /// `until` — the delayed-delivery seam for stale-reply races.
    pub fn delay_frames(
        mut self,
        from: Option<usize>,
        to: Option<usize>,
        tag: Option<u32>,
        until: Duration,
    ) -> Self {
        self.rules.push(FrameRule { from, to, tag, effect: Effect::DelayUntil(until) });
        self
    }

    /// Arm the plan for a mesh of `ranks` nodes.
    pub fn arm(mut self, ranks: usize) -> FaultState {
        // Sorted by fire time so `drive` pops a due prefix.  The sort is
        // stable: same-instant actions fire in scripted order.
        self.actions.sort_by_key(|(at, _)| *at);
        for (_, action) in &self.actions {
            let (a, b) = action.involved();
            assert!(a < ranks, "fault targets rank {a} of {ranks}");
            if let Some(b) = b {
                assert!(b < ranks, "fault targets rank {b} of {ranks}");
                assert!(a != b, "a link action needs two distinct ranks, got {a} → {b}");
            }
        }
        FaultState {
            pending: Mutex::new(self.actions),
            rules: self.rules,
            ranks,
            killed: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
            wedged: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
            cut: (0..ranks * ranks).map(|_| AtomicBool::new(false)).collect(),
            held: Mutex::new(Vec::new()),
        }
    }
}

/// A held frame waiting for its release time.
struct HeldFrame {
    release: Duration,
    to: usize,
    frame: ControlFrame,
}

/// The armed, thread-shared runtime of a [`FaultPlan`].
///
/// Every method is a short lock-or-atomic operation safe to call from any
/// thread; the harness never blocks.
pub struct FaultState {
    pending: Mutex<Vec<(Duration, FaultAction)>>,
    rules: Vec<FrameRule>,
    ranks: usize,
    killed: Vec<AtomicBool>,
    wedged: Vec<AtomicBool>,
    /// Directional link cuts, indexed `from * ranks + to`; a set flag drops
    /// every frame `from` sends toward `to` at the receiver.
    cut: Vec<AtomicBool>,
    held: Mutex<Vec<HeldFrame>>,
}

impl FaultState {
    /// Advance the schedule to detector time `now`: flips the kill/wedge
    /// flags of every action due and returns those actions for the caller to
    /// execute their side effects (orphaning a killed node's queue, reviving
    /// a restarted one).  Idempotent per action — each fires exactly once.
    pub fn drive(&self, now: Duration) -> Vec<FaultAction> {
        let mut pending = self.pending.lock().unwrap_or_else(|p| p.into_inner());
        let due = pending.iter().take_while(|(at, _)| *at <= now).count();
        let fired: Vec<FaultAction> = pending.drain(..due).map(|(_, a)| a).collect();
        drop(pending);
        for action in &fired {
            match *action {
                FaultAction::Kill(r) => self.killed[r].store(true, Ordering::SeqCst),
                FaultAction::Restart(r) => self.killed[r].store(false, Ordering::SeqCst),
                FaultAction::Wedge(r) => self.wedged[r].store(true, Ordering::SeqCst),
                FaultAction::Unwedge(r) => self.wedged[r].store(false, Ordering::SeqCst),
                FaultAction::Partition { from, to } => {
                    self.cut[from * self.ranks + to].store(true, Ordering::SeqCst);
                }
                FaultAction::Heal { from, to } => {
                    self.cut[from * self.ranks + to].store(false, Ordering::SeqCst);
                }
            }
        }
        fired
    }

    /// Whether `rank` has been fail-stopped.
    pub fn is_killed(&self, rank: usize) -> bool {
        self.killed[rank].load(Ordering::SeqCst)
    }

    /// Whether `rank` is currently wedged.
    pub fn is_wedged(&self, rank: usize) -> bool {
        self.wedged[rank].load(Ordering::SeqCst)
    }

    /// Whether the directed link `from → to` is currently cut.
    pub fn is_cut(&self, from: usize, to: usize) -> bool {
        self.cut[from * self.ranks + to].load(Ordering::SeqCst)
    }

    /// Pass one frame received at `to` through the link cuts and
    /// perturbation rules.  A cut `from → to` direction drops the frame
    /// outright; otherwise the first matching rule wins; with none the frame
    /// is delivered.  A held frame whose release time has already passed
    /// delivers immediately.
    pub fn intercept(&self, to: usize, frame: &ControlFrame, now: Duration) -> Interception {
        if frame.from < self.ranks && frame.from != to && self.is_cut(frame.from, to) {
            return Interception::Dropped;
        }
        for rule in &self.rules {
            if !rule.matches(to, frame) {
                continue;
            }
            return match rule.effect {
                Effect::Drop => Interception::Dropped,
                Effect::DelayUntil(release) if release <= now => Interception::Deliver,
                Effect::DelayUntil(release) => {
                    self.held.lock().unwrap_or_else(|p| p.into_inner()).push(HeldFrame {
                        release,
                        to,
                        frame: clone_frame(frame),
                    });
                    Interception::Held
                }
            };
        }
        Interception::Deliver
    }

    /// Frames held for `to` whose release time has passed, in hold order.
    pub fn take_released(&self, to: usize, now: Duration) -> Vec<ControlFrame> {
        let mut held = self.held.lock().unwrap_or_else(|p| p.into_inner());
        let mut released = Vec::new();
        held.retain_mut(|h| {
            if h.to == to && h.release <= now {
                released.push(clone_frame(&h.frame));
                false
            } else {
                true
            }
        });
        released
    }

    /// How many frames are still parked in the harness (test visibility).
    pub fn held_count(&self) -> usize {
        self.held.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}

impl std::fmt::Debug for FaultState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let killed: Vec<usize> = (0..self.killed.len()).filter(|&r| self.is_killed(r)).collect();
        let wedged: Vec<usize> = (0..self.wedged.len()).filter(|&r| self.is_wedged(r)).collect();
        let mut cut = Vec::new();
        for from in 0..self.ranks {
            for to in 0..self.ranks {
                if self.is_cut(from, to) {
                    cut.push((from, to));
                }
            }
        }
        f.debug_struct("FaultState")
            .field("killed", &killed)
            .field("wedged", &wedged)
            .field("cut", &cut)
            .field("held", &self.held_count())
            .finish()
    }
}

fn clone_frame(frame: &ControlFrame) -> ControlFrame {
    ControlFrame { from: frame.from, tag: frame.tag, bytes: frame.bytes.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    fn frame(from: usize, tag: u32) -> ControlFrame {
        ControlFrame { from, tag, bytes: vec![1, 2, 3] }
    }

    #[test]
    fn scheduled_actions_fire_once_in_time_order() {
        let state =
            FaultPlan::new().wedge_at(1, 10 * MS).kill_at(2, 30 * MS).unwedge_at(1, 20 * MS).arm(3);
        assert!(state.drive(5 * MS).is_empty());
        assert_eq!(state.drive(25 * MS), vec![FaultAction::Wedge(1), FaultAction::Unwedge(1)]);
        assert!(!state.is_wedged(1), "wedge then unwedge both fired");
        assert!(!state.is_killed(2), "not yet due");
        assert_eq!(state.drive(30 * MS), vec![FaultAction::Kill(2)]);
        assert!(state.is_killed(2));
        assert!(state.drive(100 * MS).is_empty(), "each action fires exactly once");
    }

    #[test]
    fn drop_rule_swallows_matching_frames_only() {
        let state = FaultPlan::new().drop_frames(Some(0), Some(1), Some(7)).arm(2);
        assert_eq!(state.intercept(1, &frame(0, 7), MS), Interception::Dropped);
        assert_eq!(state.intercept(1, &frame(0, 8), MS), Interception::Deliver, "other tag");
        assert_eq!(state.intercept(0, &frame(0, 7), MS), Interception::Deliver, "other dest");
        assert_eq!(state.intercept(1, &frame(1, 7), MS), Interception::Deliver, "other source");
    }

    #[test]
    fn wildcard_rule_matches_everything() {
        let state = FaultPlan::new().drop_frames(None, None, None).arm(2);
        assert_eq!(state.intercept(0, &frame(1, 42), MS), Interception::Dropped);
        assert_eq!(state.intercept(1, &frame(0, 0), MS), Interception::Dropped);
    }

    #[test]
    fn delayed_frames_release_at_their_time() {
        let state = FaultPlan::new().delay_frames(Some(0), Some(1), None, 50 * MS).arm(2);
        assert_eq!(state.intercept(1, &frame(0, 2), 10 * MS), Interception::Held);
        assert_eq!(state.held_count(), 1);
        assert!(state.take_released(1, 40 * MS).is_empty(), "not yet due");
        assert!(state.take_released(0, 60 * MS).is_empty(), "wrong destination");
        let released = state.take_released(1, 60 * MS);
        assert_eq!(released.len(), 1);
        assert_eq!(
            (released[0].from, released[0].tag, &released[0].bytes[..]),
            (0, 2, &[1u8, 2, 3][..])
        );
        assert_eq!(state.held_count(), 0);
        // A frame arriving after the release time passes straight through.
        assert_eq!(state.intercept(1, &frame(0, 2), 60 * MS), Interception::Deliver);
    }

    #[test]
    fn empty_plan_perturbs_nothing() {
        let state = FaultPlan::new().arm(4);
        assert!(state.drive(Duration::from_secs(10)).is_empty());
        for rank in 0..4 {
            assert!(!state.is_killed(rank));
            assert!(!state.is_wedged(rank));
            assert_eq!(state.intercept(rank, &frame(0, 1), MS), Interception::Deliver);
        }
    }

    #[test]
    #[should_panic(expected = "fault targets rank 9")]
    fn arming_rejects_out_of_range_targets() {
        let _ = FaultPlan::new().kill_at(9, MS).arm(3);
    }

    #[test]
    fn restart_clears_the_kill_flag_once_due() {
        let state = FaultPlan::new().kill_at(1, 10 * MS).restart_at(1, 50 * MS).arm(2);
        state.drive(20 * MS);
        assert!(state.is_killed(1));
        assert_eq!(state.drive(60 * MS), vec![FaultAction::Restart(1)]);
        assert!(!state.is_killed(1), "a restarted rank is no longer fail-stopped");
    }

    #[test]
    fn partition_cuts_exactly_one_direction() {
        let state = FaultPlan::new().partition_at(0, 1, 10 * MS).arm(3);
        state.drive(10 * MS);
        assert!(state.is_cut(0, 1));
        assert!(!state.is_cut(1, 0), "the reverse direction keeps flowing");
        assert_eq!(state.intercept(1, &frame(0, 7), 20 * MS), Interception::Dropped);
        assert_eq!(state.intercept(0, &frame(1, 7), 20 * MS), Interception::Deliver);
        assert_eq!(state.intercept(2, &frame(0, 7), 20 * MS), Interception::Deliver, "other dest");
    }

    #[test]
    fn heal_restores_the_cut_direction() {
        let state = FaultPlan::new().partition_at(0, 1, 10 * MS).heal_at(0, 1, 40 * MS).arm(2);
        state.drive(10 * MS);
        assert_eq!(state.intercept(1, &frame(0, 7), 20 * MS), Interception::Dropped);
        state.drive(40 * MS);
        assert!(!state.is_cut(0, 1));
        assert_eq!(state.intercept(1, &frame(0, 7), 50 * MS), Interception::Deliver);
    }

    #[test]
    fn link_cut_takes_precedence_over_delay_rules() {
        let state = FaultPlan::new()
            .delay_frames(Some(0), Some(1), None, 100 * MS)
            .partition_at(0, 1, 5 * MS)
            .arm(2);
        state.drive(5 * MS);
        // A cut direction never holds frames — they are simply gone.
        assert_eq!(state.intercept(1, &frame(0, 2), 10 * MS), Interception::Dropped);
        assert_eq!(state.held_count(), 0);
    }

    #[test]
    #[should_panic(expected = "two distinct ranks")]
    fn arming_rejects_a_self_link() {
        let _ = FaultPlan::new().partition_at(1, 1, MS).arm(3);
    }
}
