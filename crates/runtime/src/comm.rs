//! The simulated distributed-memory fabric: the superstep exchange of cell
//! pages between ranks.
//!
//! The paper's distributed layer is MPI over Omni-Path; this environment has
//! neither, so ranks are OS threads connected by a full mesh of channels.
//! The crucial property is preserved: **ranks never share Env memory** — the
//! only way data crosses rank boundaries is an explicit transfer through a
//! [`Communicator`], and every transfer is metered, so the communication
//! pattern (and therefore the Dry-run optimisation and the scaling behaviour)
//! is exercised exactly as with real MPI.
//!
//! The mesh carries supersteps only: the deadlock-free exchange of
//! [`Communicator::exchange`], matching the paper's statement that `refresh`
//! "is synchronously executed when there are multiple tasks" — every rank
//! sends one request message to every other rank (possibly empty, always
//! carrying its local success flag), serves the requests it receives, and
//! then collects the page data addressed to it.  The global success flag is
//! the conjunction of all local flags, so all ranks re-execute a failed step
//! together; [`Communicator::allreduce_and`] is the same conjunction on its
//! own.
//!
//! Traffic is metered in [`CommStats`] with symmetric send/receive counters:
//! across a quiesced mesh, total `messages_sent` equals total
//! `messages_received` and total `bytes_sent` equals total `bytes_received`
//! (the balance the comm tests assert).

use aohpc_env::BlockId;
use aohpc_mem::PageId;
use crossbeam::channel::{unbounded, Receiver, Sender};
use serde::Serialize;
use std::fmt;

/// One page in flight: which block/page it is and its cells.
#[derive(Debug, Clone)]
pub struct PagePayload<C> {
    /// Block the page belongs to (block ids are identical across replicas).
    pub block: BlockId,
    /// Page index within the block.
    pub page: PageId,
    /// The page's cells.
    pub cells: Vec<C>,
}

/// Messages exchanged between ranks.
#[derive(Debug, Clone)]
pub enum RankMessage<C> {
    /// A boolean contribution to a collective AND (the refresh success flag).
    Flag {
        /// Sending rank.
        from: usize,
        /// The sender's local flag.
        value: bool,
    },
    /// Phase 1 of a superstep: page requests plus the sender's success flag.
    Requests {
        /// Sending rank.
        from: usize,
        /// Pages the sender needs from the receiver.
        reqs: Vec<(BlockId, PageId)>,
        /// Whether the sender's step succeeded locally.
        local_success: bool,
    },
    /// Phase 2 of a superstep: the pages the receiver asked for.
    Pages {
        /// Sending rank.
        from: usize,
        /// Served pages.
        pages: Vec<PagePayload<C>>,
    },
}

/// Communication counters of one rank (inputs to the cost model, the
/// weak-scaling analysis and the cluster service's per-node dashboards).
///
/// Send and receive are metered symmetrically: summed over all ranks of a
/// quiesced mesh, `messages_sent == messages_received` and
/// `bytes_sent == bytes_received`.  Bytes count page payloads
/// (`cells × sizeof(C)`); the fixed-size request/flag envelopes count as
/// messages but carry no payload bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CommStats {
    /// Supersteps (collective refreshes) executed.
    pub supersteps: u64,
    /// Messages sent (excluding empty ones is NOT done: MPI would still need
    /// the synchronisation, so every message is counted).
    pub messages_sent: u64,
    /// Messages received.
    pub messages_received: u64,
    /// Pages shipped to other ranks.
    pub pages_sent: u64,
    /// Pages received from other ranks.
    pub pages_received: u64,
    /// Payload bytes shipped to other ranks.
    pub bytes_sent: u64,
    /// Payload bytes received from other ranks.
    pub bytes_received: u64,
    /// Application control frames sent.  Nothing writes it; it stays until
    /// ROADMAP B1, because the ledger under `benchmark/` reads it.
    pub control_sent: u64,
    /// Application control frames received.  Nothing writes it; it stays
    /// until ROADMAP B1, beside [`CommStats::control_sent`].
    pub control_received: u64,
    /// Liveness frames sent on the service cluster's own fabric
    /// (heartbeats, gossip, view sync).  Kept out of every other ledger.
    pub liveness_sent: u64,
    /// Liveness frames received on the service cluster's own fabric.
    pub liveness_received: u64,
}

/// Element-wise sum — the aggregation mesh-wide balance checks and the
/// cluster service's dashboards fold per-rank snapshots with.
impl std::ops::Add for CommStats {
    type Output = CommStats;

    fn add(self, rhs: CommStats) -> CommStats {
        CommStats {
            supersteps: self.supersteps + rhs.supersteps,
            messages_sent: self.messages_sent + rhs.messages_sent,
            messages_received: self.messages_received + rhs.messages_received,
            pages_sent: self.pages_sent + rhs.pages_sent,
            pages_received: self.pages_received + rhs.pages_received,
            bytes_sent: self.bytes_sent + rhs.bytes_sent,
            bytes_received: self.bytes_received + rhs.bytes_received,
            control_sent: self.control_sent + rhs.control_sent,
            control_received: self.control_received + rhs.control_received,
            liveness_sent: self.liveness_sent + rhs.liveness_sent,
            liveness_received: self.liveness_received + rhs.liveness_received,
        }
    }
}

/// A rank's endpoint of the full-mesh fabric.
pub struct Communicator<C> {
    rank: usize,
    size: usize,
    senders: Vec<Sender<RankMessage<C>>>,
    receiver: Receiver<RankMessage<C>>,
    /// Messages that arrived out of phase: a peer already in the *next*
    /// superstep (or allreduce round) while this rank finishes the current
    /// one.
    pending: std::collections::VecDeque<RankMessage<C>>,
    cell_bytes: usize,
    stats: CommStats,
}

impl<C: Clone + Send + 'static> Communicator<C> {
    /// Create a fully connected mesh of `size` communicators.
    pub fn mesh(size: usize) -> Vec<Communicator<C>> {
        assert!(size > 0);
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(r);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| Communicator {
                rank,
                size,
                senders: senders.clone(),
                receiver,
                pending: std::collections::VecDeque::new(),
                cell_bytes: std::mem::size_of::<C>().max(1),
                stats: CommStats::default(),
            })
            .collect()
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the mesh.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Communication counters so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Send one message to `peer`, metering the send side (`bytes` is the
    /// payload's size, 0 for the envelopes).
    fn send(&mut self, peer: usize, msg: RankMessage<C>, bytes: usize, phase: &str) {
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        if self.senders[peer].send(msg).is_err() {
            panic!("peer rank hung up during {phase}");
        }
    }

    /// Receive the next message satisfying `wanted`, buffering everything
    /// else for later phases (messages from faster peers can arrive out of
    /// phase; see the protocol notes on [`Communicator::exchange`]).  Every
    /// message is metered once, when it comes off the wire, however long it
    /// sits in the pending buffer afterwards.
    fn recv_matching(&mut self, mut wanted: impl FnMut(&RankMessage<C>) -> bool) -> RankMessage<C> {
        if let Some(pos) = self.pending.iter().position(&mut wanted) {
            return self.pending.remove(pos).expect("position just found");
        }
        loop {
            let msg = self.receiver.recv().expect("mesh disconnected");
            self.stats.messages_received += 1;
            if let RankMessage::Pages { pages, .. } = &msg {
                let cells: usize = pages.iter().map(|p| p.cells.len()).sum();
                self.stats.pages_received += pages.len() as u64;
                self.stats.bytes_received += (cells * self.cell_bytes) as u64;
            }
            if wanted(&msg) {
                return msg;
            }
            self.pending.push_back(msg);
        }
    }

    /// Collective AND over all ranks (used for the global refresh-success
    /// decision before any buffer is rotated).
    pub fn allreduce_and(&mut self, local: bool) -> bool {
        if self.size == 1 {
            return local;
        }
        let rank = self.rank;
        for peer in (0..self.size).filter(|&peer| peer != rank) {
            self.send(peer, RankMessage::Flag { from: rank, value: local }, 0, "allreduce");
        }
        // One flag per *distinct* sender: a fast peer already in the next
        // allreduce round may have its next flag queued behind a slow peer's
        // current one, and consuming it here would make ranks disagree on
        // this round's conjunction.  Per-sender dedup (the same discipline
        // `exchange` applies to Requests via `reqs_seen`) pins each round to
        // each peer's earliest unconsumed flag; later flags stay buffered
        // for later rounds in sender order.
        let mut result = local;
        let mut flags_seen = std::collections::HashSet::new();
        while flags_seen.len() < self.size - 1 {
            match self.recv_matching(|m| match m {
                RankMessage::Flag { from, .. } => !flags_seen.contains(from),
                _ => false,
            }) {
                RankMessage::Flag { from, value } => {
                    flags_seen.insert(from);
                    result &= value;
                }
                _ => unreachable!("recv_matching only returns Flag messages here"),
            }
        }
        result
    }

    /// Execute one superstep.
    ///
    /// * `requests` — pages this rank needs, keyed by owning rank.
    /// * `local_success` — whether this rank's step succeeded locally.
    /// * `serve` — callback extracting a page of this rank's data for
    ///   shipping.
    ///
    /// Returns the pages received and the global success flag (AND of all
    /// ranks' local flags).
    pub fn exchange(
        &mut self,
        requests: &[(usize, Vec<(BlockId, PageId)>)],
        local_success: bool,
        mut serve: impl FnMut(BlockId, PageId) -> Vec<C>,
    ) -> (Vec<PagePayload<C>>, bool) {
        self.stats.supersteps += 1;
        if self.size == 1 {
            return (Vec::new(), local_success);
        }

        // Phase 1: send a request message to every other rank.
        let rank = self.rank;
        for peer in (0..self.size).filter(|&peer| peer != rank) {
            let reqs = requests
                .iter()
                .find(|(owner, _)| *owner == peer)
                .map(|(_, r)| r.clone())
                .unwrap_or_default();
            let msg = RankMessage::Requests { from: rank, reqs, local_success };
            self.send(peer, msg, 0, "phase 1");
        }

        // Phase 1 receive: one Requests message from every other rank.
        //
        // Messages can interleave: a peer that already received all *its*
        // requests may send us its Pages reply (for this superstep) before a
        // slower peer's Requests arrive, and a peer that finished this
        // superstep entirely may already be in its next allreduce/superstep.
        // `recv_matching` buffers whatever does not belong to this phase.
        let mut incoming_reqs: Vec<(usize, Vec<(BlockId, PageId)>)> = Vec::new();
        let mut global_success = local_success;
        let mut received: Vec<PagePayload<C>> = Vec::new();
        let mut pages_msgs_seen = 0usize;
        let mut reqs_seen = std::collections::HashSet::new();
        while incoming_reqs.len() < self.size - 1 {
            let msg = self.recv_matching(|m| match m {
                RankMessage::Requests { from, .. } => !reqs_seen.contains(from),
                RankMessage::Pages { .. } => true,
                RankMessage::Flag { .. } => false,
            });
            match msg {
                RankMessage::Requests { from, reqs, local_success } => {
                    global_success &= local_success;
                    reqs_seen.insert(from);
                    incoming_reqs.push((from, reqs));
                }
                RankMessage::Pages { pages, .. } => {
                    received.extend(pages);
                    pages_msgs_seen += 1;
                }
                RankMessage::Flag { .. } => unreachable!("flags are filtered out"),
            }
        }

        // Phase 2: serve every request.
        for (peer, reqs) in incoming_reqs {
            let pages: Vec<PagePayload<C>> = reqs
                .into_iter()
                .map(|(block, page)| PagePayload { block, page, cells: serve(block, page) })
                .collect();
            let cells: usize = pages.iter().map(|p| p.cells.len()).sum();
            self.stats.pages_sent += pages.len() as u64;
            let msg = RankMessage::Pages { from: self.rank, pages };
            self.send(peer, msg, cells * self.cell_bytes, "phase 2");
        }

        // Phase 2 receive: one Pages message from every other rank.  Requests
        // or Flags arriving now belong to the next superstep and are buffered
        // by `recv_matching`.
        while pages_msgs_seen < self.size - 1 {
            match self.recv_matching(|m| matches!(m, RankMessage::Pages { .. })) {
                RankMessage::Pages { pages, .. } => {
                    received.extend(pages);
                    pages_msgs_seen += 1;
                }
                _ => unreachable!("recv_matching only returns Pages messages here"),
            }
        }
        (received, global_success)
    }
}

impl<C> fmt::Debug for Communicator<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn single_rank_exchange_is_trivial() {
        let mut comms = Communicator::<f64>::mesh(1);
        let mut c = comms.pop().unwrap();
        let (pages, ok) = c.exchange(&[], true, |_, _| vec![]);
        assert!(pages.is_empty());
        assert!(ok);
        let (_, ok) = c.exchange(&[], false, |_, _| vec![]);
        assert!(!ok);
        assert_eq!(c.stats().supersteps, 2);
        assert_eq!(c.stats().messages_sent, 0);
    }

    #[test]
    fn two_ranks_exchange_pages() {
        let comms = Communicator::<f64>::mesh(2);
        let mut iter = comms.into_iter();
        let mut c0 = iter.next().unwrap();
        let mut c1 = iter.next().unwrap();

        let t1 = thread::spawn(move || {
            // Rank 1 requests page (block 7, page 2) from rank 0.
            let (pages, ok) =
                c1.exchange(&[(0, vec![(7, 2)])], true, |b, p| vec![(b * 100 + p) as f64]);
            (pages, ok, c1.stats())
        });

        // Rank 0 requests nothing and serves block 7 page 2.
        let (pages0, ok0) = c0.exchange(&[], true, |b, p| vec![(b * 10 + p) as f64; 3]);
        let (pages1, ok1, stats1) = t1.join().unwrap();

        assert!(ok0 && ok1);
        assert!(pages0.is_empty());
        assert_eq!(pages1.len(), 1);
        assert_eq!(pages1[0].block, 7);
        assert_eq!(pages1[0].page, 2);
        assert_eq!(pages1[0].cells, vec![72.0, 72.0, 72.0]);
        assert_eq!(stats1.pages_received, 1);
        assert_eq!(stats1.bytes_received, 3 * 8, "page payload metered on receive");
        assert_eq!(c0.stats().pages_sent, 1);
        assert_eq!(c0.stats().bytes_sent, 3 * 8);
    }

    #[test]
    fn global_success_is_conjunction() {
        let comms = Communicator::<u32>::mesh(3);
        let mut handles = Vec::new();
        for (i, mut c) in comms.into_iter().enumerate() {
            handles.push(thread::spawn(move || {
                // Only rank 1 fails locally; everyone must observe failure.
                let local = i != 1;
                let (_, ok) = c.exchange(&[], local, |_, _| vec![0u32]);
                ok
            }));
        }
        for h in handles {
            assert!(!h.join().unwrap());
        }
    }

    #[test]
    fn repeated_supersteps_stay_in_lockstep() {
        let comms = Communicator::<u8>::mesh(4);
        let mut handles = Vec::new();
        for (rank, mut c) in comms.into_iter().enumerate() {
            handles.push(thread::spawn(move || {
                let mut received_total = 0usize;
                for step in 0..20 {
                    // Everyone asks the next rank for one page each step.
                    let peer = (rank + 1) % 4;
                    let reqs = vec![(peer, vec![(step, 0)])];
                    let (pages, ok) = c.exchange(&reqs, true, |b, _| vec![b as u8; 4]);
                    assert!(ok);
                    received_total += pages.len();
                }
                (received_total, c.stats())
            }));
        }
        for h in handles {
            let (total, stats) = h.join().unwrap();
            assert_eq!(total, 20);
            assert_eq!(stats.supersteps, 20);
            assert_eq!(stats.pages_sent, 20);
            assert_eq!(stats.pages_received, 20);
        }
    }

    #[test]
    fn repeated_allreduce_rounds_stay_in_lockstep() {
        // Racing ranks run many back-to-back allreduce rounds with
        // round-dependent flags: a fast rank's next-round flag must never be
        // consumed for a slow rank's current round (per-sender dedup), so
        // every rank computes the same, correct conjunction every round.
        const RANKS: usize = 3;
        const ROUNDS: u64 = 50;
        let comms = Communicator::<f64>::mesh(RANKS);
        let mut handles = Vec::new();
        for (rank, mut c) in comms.into_iter().enumerate() {
            handles.push(thread::spawn(move || {
                (0..ROUNDS)
                    .map(|round| {
                        // Exactly one rank fails per round, rotating.
                        let local = round % RANKS as u64 != rank as u64;
                        c.allreduce_and(local)
                    })
                    .collect::<Vec<bool>>()
            }));
        }
        for h in handles {
            let results = h.join().unwrap();
            // Some rank always fails, so every round's conjunction is false
            // — on every rank, in every interleaving.
            assert_eq!(results, vec![false; ROUNDS as usize]);
        }
    }

    #[test]
    fn mesh_size_and_ranks() {
        let comms = Communicator::<f32>::mesh(5);
        assert_eq!(comms.len(), 5);
        for (i, c) in comms.iter().enumerate() {
            assert_eq!(c.rank(), i);
            assert_eq!(c.size(), 5);
        }
    }

    #[test]
    fn send_and_receive_totals_balance_across_the_mesh() {
        // Every rank runs page supersteps of varying sizes interleaved with
        // allreduce rounds; after the mesh quiesces, the send- and
        // receive-side totals must agree exactly (the symmetry the CommStats
        // contract promises).
        const RANKS: usize = 4;
        let comms = Communicator::<f64>::mesh(RANKS);
        let mut handles = Vec::new();
        for (rank, mut c) in comms.into_iter().enumerate() {
            handles.push(thread::spawn(move || {
                for step in 0..5u64 {
                    let peer = (rank + 1) % RANKS;
                    let reqs = vec![(peer, vec![(step as usize, 0)])];
                    let (pages, ok) = c.exchange(&reqs, true, |b, _| vec![0.5; b + 1]);
                    assert!(ok);
                    assert_eq!(pages.len(), 1);
                    assert!(c.allreduce_and(true));
                }
                c.stats()
            }));
        }
        let totals = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold(CommStats::default(), |acc, s| acc + s);
        assert_eq!(totals.messages_sent, totals.messages_received, "message balance");
        assert_eq!(totals.bytes_sent, totals.bytes_received, "byte balance");
        assert_eq!(totals.pages_sent, totals.pages_received, "page balance");
        // Per rank and step: 3 request, 3 page and 3 flag messages.
        assert_eq!(totals.messages_sent, (RANKS * 5 * 9) as u64);
        assert_eq!(totals.bytes_sent, 4 * (1 + 2 + 3 + 4 + 5) * 8, "page payload bytes");
    }
}
