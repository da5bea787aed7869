//! The synchronous round engine — dense, allocation-free core.
//!
//! A [`Network`] owns one [`Process`] per live node plus the evolving
//! topology [`Graph`]. All node-indexed state lives in contiguous `Vec`s
//! indexed by [`NodeId`] (arena-style slots: a deleted node's slot becomes
//! `None`), so campaigns over 10⁵+ nodes stay cache-friendly and the
//! steady-state round loop performs no allocation: per-node inboxes, the
//! shared outbox, edge-request buffers, and the per-round load counters are
//! all reused between rounds.
//!
//! Time advances in rounds: all messages sent in round `r` are delivered at
//! the start of round `r+1`; edge changes requested in round `r` are applied
//! at the end of round `r`, **drops of pre-existing edges first, then
//! inserts**, so a same-round add+drop of one edge deterministically nets to
//! "present" (the paper allows nodes to "insert edges joining it to any
//! other nodes as desired" — an insert expresses current interest and must
//! not be shadowed by a concurrent release of the old edge).
//!
//! Messages may be addressed to any node whose name the sender has learned
//! (the model explicitly lets messages "contain the names of other
//! vertices"); delivery to dead addressees is dropped, mirroring a crashed
//! peer. What happens to mail a node sent *before it was deleted* is
//! governed by [`InFlightPolicy`]: [`Deliver`](InFlightPolicy::Deliver)
//! (default — the wires keep working after the sender crashes) or
//! [`Drop`](InFlightPolicy::Drop) (the adversary silences the victim's
//! unreceived mail too).
//!
//! Every count the engine reports — [`RoundStats`], totals, per-node books —
//! derives from one [`MsgLedger`] charged at delivery time, so the books
//! reconcile by construction; see the [`crate::ledger`] module docs for the
//! enforced identities.
//!
//! # Canonical delivery order
//!
//! Delivery order within a round is **canonical**: addressees are processed
//! in ascending [`NodeId`] order (the `hot` bitset drains in that order at
//! the top of every [`Network::step`]), and each addressee drains its inbox
//! in arrival order. One thread runs every round, so a campaign is a pure
//! function of its inputs and seeds: the same seed replays the same ledger,
//! the same [`RoundStats`] and the same final graph.

use crate::faults::{FaultPlan, MsgFate};
use crate::hotset::HotSet;
use crate::ledger::MsgLedger;
use ft_costs::{CostResult, OperationCost};
use ft_graph::{Graph, NodeId};

/// A node-local protocol endpoint.
///
/// Implementations must act only on their own state plus received events —
/// the engine hands out no global information.
pub trait Process {
    /// The message type exchanged by this protocol.
    type Msg: Clone + std::fmt::Debug;

    /// Called once before the first round.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Called when a message addressed to this node is delivered.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called when a (graph-)neighbor of this node has been deleted by the
    /// adversary ("only the neighbors of the deleted vertex are informed").
    fn on_neighbor_deleted(&mut self, _dead: NodeId, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Called when the adversary inserted a fresh node wired to this one
    /// (the join notice of the insert/delete model). The newcomer itself is
    /// started via [`Process::on_start`] in the same round.
    fn on_neighbor_joined(&mut self, _new: NodeId, _ctx: &mut Ctx<'_, Self::Msg>) {}
}

/// Side-effect collector handed to process callbacks.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    me: NodeId,
    round: u64,
    faulty: bool,
    outbox: &'a mut Vec<(NodeId, NodeId, M)>,
    edge_adds: &'a mut Vec<(NodeId, NodeId)>,
    edge_drops: &'a mut Vec<(NodeId, NodeId)>,
}

impl<M> Ctx<'_, M> {
    /// This node's ID.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether a fault plan is armed on this network. Protocols whose
    /// correctness assumes reliable delivery may consult this to degrade
    /// gracefully (skip an impossible heal, record the damage) instead of
    /// panicking on a broken invariant that lost or delayed mail can
    /// legitimately produce. Fault-free runs keep the strict panics — an
    /// invariant breach there is an engine bug, not weather.
    pub fn faulty(&self) -> bool {
        self.faulty
    }

    /// Sends `msg` to `to` (delivered next round; dropped if `to` is dead).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((self.me, to, msg));
    }

    /// Requests insertion of the undirected edge `{me, to}`.
    pub fn add_edge(&mut self, to: NodeId) {
        self.edge_adds.push((self.me, to));
    }

    /// Requests removal of the undirected edge `{me, to}`.
    pub fn drop_edge(&mut self, to: NodeId) {
        self.edge_drops.push((self.me, to));
    }
}

/// What happens to a deleted node's already-sent, not-yet-delivered mail.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InFlightPolicy {
    /// The mail stays in flight and is delivered next round: a crashed peer
    /// cannot recall packets already on the wire. This is the model the
    /// paper's heal choreography assumes, and the default.
    ///
    /// One exception, regardless of policy: if the dead node's slot is
    /// later revived under [`SlotPolicy::Reuse`] while its mail is still
    /// in flight, the revival unsends that mail (accounted as dropped) —
    /// the per-node books are per incarnation, and a delivery after the
    /// revival would charge the old node's traffic to the new one's sent
    /// book. Campaigns that need a recycled identity's last words
    /// delivered must heal to quiescence before inserting, which the
    /// per-deletion cadence guarantees.
    #[default]
    Deliver,
    /// The adversary silences the victim entirely: queued mail *from* the
    /// dead node is dropped (and accounted as dropped) along with mail
    /// addressed to it.
    Drop,
}

/// How [`Network::insert_node`] allocates the newcomer's slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SlotPolicy {
    /// Append a fresh slot: every dense vector (and the graph capacity)
    /// grows by one, IDs are never recycled. The default — pristine-graph
    /// baselines rely on stable IDs.
    #[default]
    Grow,
    /// Reuse the lowest dead slot when one exists (fall back to growing):
    /// long churn campaigns stay dense. Reviving a slot *retires* the dead
    /// incarnation's ledger books (they move into the [`MsgLedger`]'s
    /// retired accumulator) and unsends the dead incarnation's
    /// still-undelivered mail, so per-node books are per **incarnation** —
    /// a recycled identity neither inherits its predecessor's message
    /// history nor speaks from the grave.
    Reuse,
}

/// Per-round accounting, derived from the [`MsgLedger`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Messages delivered this round (deletion notices included).
    pub messages: usize,
    /// Maximum messages any single node sent+received this round.
    pub max_per_node: usize,
    /// Edges inserted this round.
    pub edges_added: usize,
    /// Edges dropped this round.
    pub edges_removed: usize,
}

impl RoundStats {
    /// Folds another round into this one (sum counts, max the load).
    pub fn merge(&mut self, other: &RoundStats) {
        self.messages += other.messages;
        self.max_per_node = self.max_per_node.max(other.max_per_node);
        self.edges_added += other.edges_added;
        self.edges_removed += other.edges_removed;
    }
}

/// The simulator: dense process slots + topology + per-node inboxes +
/// the message ledger.
#[derive(Debug)]
pub struct Network<P: Process> {
    /// Process slots indexed by `NodeId` (`None` = deleted).
    procs: Vec<Option<P>>,
    graph: Graph,
    /// Mail awaiting delivery, indexed by addressee; buffers are reused.
    inboxes: Vec<Vec<(NodeId, P::Msg)>>,
    /// Addressees with non-empty inboxes — a dense bitset reused across
    /// rounds. Invariant: exactly the owners of non-empty inboxes are
    /// members (deletion purges remove the victim's bit), and draining it
    /// yields the canonical ascending delivery order with no sort.
    hot: HotSet,
    /// Reusable buffer [`HotSet::drain_into`] fills each round.
    hot_scratch: Vec<NodeId>,
    /// Staging buffer for the current round's sends.
    outbox: Vec<(NodeId, NodeId, P::Msg)>,
    edge_adds: Vec<(NodeId, NodeId)>,
    edge_drops: Vec<(NodeId, NodeId)>,
    /// Per-node message load of the current round, indexed by `NodeId`.
    round_load: Vec<u32>,
    /// Nodes with a non-zero `round_load` entry (cleared every round).
    touched: Vec<NodeId>,
    round: u64,
    /// Queued (in-flight) message count across all inboxes.
    pending: usize,
    live: usize,
    policy: InFlightPolicy,
    slots: SlotPolicy,
    ledger: MsgLedger,
    /// Cumulative [`OperationCost`] of every engine operation since
    /// construction. The costed entry points ([`Network::step`] and
    /// friends) return per-call deltas as snapshots of this counter.
    costs: OperationCost,
    /// Arena of retired inbox buffers: a deleted node's (emptied) inbox
    /// vector parks here and the next grown slot draws from it, so churn
    /// campaigns recycle payload capacity instead of leaking it on dead
    /// slots and reallocating for newcomers.
    buf_pool: Vec<Vec<(NodeId, P::Msg)>>,
    /// Reusable neighbor buffer for [`Graph::delete_node_into`].
    nbr_scratch: Vec<NodeId>,
    /// Topology-churn journal; recorded only while `journal_on` is set.
    journal: ChurnJournal,
    /// Whether churn events are journaled (off by default — the journal
    /// grows without bound until drained, so only consumers that replay
    /// churn, like the incremental stretch tracker, switch it on).
    journal_on: bool,
    /// The armed fault schedule (`None` = the lossless engine; every fate
    /// is decided in `finish_round`, so faulty runs replay from the seed).
    faults: Option<FaultPlan>,
    /// Delay queue: `(due_round, from, to, msg)` for mail the fault plan
    /// postponed; matured entries re-enter the inboxes in `finish_round`.
    /// Entries stay in insertion order (canonical routing order), so the
    /// queue's evolution is deterministic.
    delayed: Vec<(u64, NodeId, NodeId, P::Msg)>,
    /// Reusable buffer the delay queue drains through each round.
    delayed_scratch: Vec<(u64, NodeId, NodeId, P::Msg)>,
    /// Running FNV-1a fingerprint of the realized fault schedule: every
    /// non-[`MsgFate::Deliver`] fate and every crash-stop folds its
    /// identity in. Pure function of (plan, campaign), pinnable in seeded
    /// regressions.
    fault_fp: u64,
    /// Crash-stop deletions performed.
    crashes: u64,
    /// In-flight messages silenced by crash-stops (mail the victims had
    /// sent but that was never delivered because they died mid-sentence).
    crash_silenced: u64,
}

/// FNV-1a offset basis — fingerprint accumulator start value.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one u64 into an FNV-1a accumulator, byte by byte.
#[inline]
fn fnv_fold(fp: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *fp = (*fp ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
}

/// A replayable log of one span of topology churn: every deletion,
/// insertion, and applied edge change since the journal was last drained,
/// in application order. Incremental measurement passes (the stretch
/// tracker) consume this instead of re-scanning the whole graph.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnJournal {
    /// Deleted nodes with the neighbors each had at deletion time.
    pub deleted: Vec<(NodeId, Vec<NodeId>)>,
    /// Inserted nodes with the live anchors each was wired to.
    pub inserted: Vec<(NodeId, Vec<NodeId>)>,
    /// Healer edges actually inserted (requests that changed the graph).
    pub edges_added: Vec<(NodeId, NodeId)>,
    /// Healer edges actually removed (requests that changed the graph).
    pub edges_removed: Vec<(NodeId, NodeId)>,
    /// The subset of `deleted` that were crash-stops (victims whose
    /// in-flight mail was silenced). Topology consumers can ignore this;
    /// it exists so fault post-mortems can tell crashes from departures.
    pub crashed: Vec<NodeId>,
}

impl ChurnJournal {
    /// True when the span recorded no churn at all.
    pub fn is_empty(&self) -> bool {
        self.deleted.is_empty()
            && self.inserted.is_empty()
            && self.edges_added.is_empty()
            && self.edges_removed.is_empty()
            && self.crashed.is_empty()
    }
}

/// The queued-message count at which the retired sharded engine split a
/// round across threads.
///
/// Ignored; kept only because ftbench's sources are frozen; delete with the
/// next benchmark PR.
pub const PAR_MIN_PENDING: usize = 192;

#[inline]
fn bump_load(load: &mut [u32], touched: &mut Vec<NodeId>, v: NodeId) {
    let slot = &mut load[v.index()];
    if *slot == 0 {
        touched.push(v);
    }
    *slot += 1;
}

impl<P: Process> Network<P> {
    /// Builds a network over `graph` with the default in-flight policy,
    /// creating one process per live node.
    pub fn new(graph: Graph, make: impl FnMut(NodeId) -> P) -> Self {
        Self::with_policy(graph, InFlightPolicy::default(), make)
    }

    /// Builds a network over `graph` with an explicit [`InFlightPolicy`].
    pub fn with_policy(
        graph: Graph,
        policy: InFlightPolicy,
        mut make: impl FnMut(NodeId) -> P,
    ) -> Self {
        let cap = graph.capacity();
        let mut procs: Vec<Option<P>> = Vec::with_capacity(cap);
        procs.resize_with(cap, || None);
        let mut live = 0usize;
        for v in graph.nodes() {
            procs[v.index()] = Some(make(v));
            live += 1;
        }
        let mut inboxes = Vec::with_capacity(cap);
        inboxes.resize_with(cap, Vec::new);
        Network {
            procs,
            graph,
            inboxes,
            hot: HotSet::with_capacity(cap),
            hot_scratch: Vec::new(),
            outbox: Vec::new(),
            edge_adds: Vec::new(),
            edge_drops: Vec::new(),
            round_load: vec![0; cap],
            touched: Vec::new(),
            round: 0,
            pending: 0,
            live,
            policy,
            slots: SlotPolicy::default(),
            ledger: MsgLedger::new(cap),
            costs: OperationCost::ZERO,
            buf_pool: Vec::new(),
            nbr_scratch: Vec::new(),
            journal: ChurnJournal::default(),
            journal_on: false,
            faults: None,
            delayed: Vec::new(),
            delayed_scratch: Vec::new(),
            fault_fp: FNV_BASIS,
            crashes: 0,
            crash_silenced: 0,
        }
    }

    /// The current topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Read access to a node's process.
    ///
    /// # Panics
    /// Panics if `v` is dead.
    pub fn process(&self, v: NodeId) -> &P {
        self.procs[v.index()]
            .as_ref()
            .expect("process of dead node")
    }

    /// Mutable access to a node's process (initial field installation and
    /// tests; protocols must not use this to cheat).
    ///
    /// # Panics
    /// Panics if `v` is dead.
    pub fn process_mut(&mut self, v: NodeId) -> &mut P {
        self.procs[v.index()]
            .as_mut()
            .expect("process of dead node")
    }

    /// Live node IDs in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_some())
            .map(|(i, _)| NodeId(i as u32))
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when every node is dead.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The in-flight mail policy applied on node deletion.
    pub fn in_flight_policy(&self) -> InFlightPolicy {
        self.policy
    }

    /// Changes the in-flight mail policy for subsequent deletions.
    pub fn set_in_flight_policy(&mut self, policy: InFlightPolicy) {
        self.policy = policy;
    }

    /// The slot-allocation policy applied on node insertion.
    pub fn slot_policy(&self) -> SlotPolicy {
        self.slots
    }

    /// Changes the slot-allocation policy for subsequent insertions.
    pub fn set_slot_policy(&mut self, slots: SlotPolicy) {
        self.slots = slots;
    }

    /// Does nothing: the engine runs every round on the calling thread.
    ///
    /// Ignored; kept only because ftbench's sources are frozen; delete with
    /// the next benchmark PR.
    pub fn set_threads(&mut self, _threads: usize) {}

    /// The message ledger every statistic derives from.
    pub fn ledger(&self) -> &MsgLedger {
        &self.ledger
    }

    /// The cumulative [`OperationCost`] of every engine operation since
    /// construction. Snapshot before and after a sequence of operations and
    /// subtract to get its exact cost (the costed entry points do exactly
    /// that for single calls).
    pub fn costs(&self) -> OperationCost {
        self.costs
    }

    /// Switches churn journaling on or off (off by default). While on,
    /// every deletion, insertion, and applied edge change is appended to
    /// the [`ChurnJournal`] until [`Network::drain_churn_journal`] empties
    /// it — consumers must drain regularly or the journal grows without
    /// bound.
    pub fn set_churn_journal(&mut self, on: bool) {
        self.journal_on = on;
        if !on {
            self.journal = ChurnJournal::default();
        }
    }

    /// Takes the churn recorded since the last drain (empty when journaling
    /// is off), leaving an empty journal behind.
    pub fn drain_churn_journal(&mut self) -> ChurnJournal {
        std::mem::take(&mut self.journal)
    }

    /// Total messages delivered since construction (notices included).
    pub fn total_messages(&self) -> usize {
        self.ledger.total_messages() as usize
    }

    /// Total messages charged to `v` (delivery-side: delivered sends +
    /// receipts + deletion notices).
    pub fn per_node_messages(&self, v: NodeId) -> u64 {
        self.ledger.per_node(v)
    }

    /// Arms (or with `None` disarms) the fault schedule for subsequent
    /// rounds. Armed faults decide per-message fates and crash-stops; a
    /// disarmed network is the original lossless engine.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// The armed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Running FNV-1a fingerprint of the realized fault schedule: folds
    /// every lose/duplicate/delay fate and every crash-stop, in canonical
    /// order. Equal fingerprints ⇒ the same faults hit the same messages —
    /// the replay contract's witness for faulty runs. On a fault-free run
    /// this stays at the FNV offset basis.
    pub fn fault_fingerprint(&self) -> u64 {
        self.fault_fp
    }

    /// Crash-stop deletions performed so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// In-flight messages silenced by crash-stops so far. A heal whose
    /// conversation was cut this way did not converge in the protocol's
    /// sense even if the network looks quiet.
    pub fn crash_silenced(&self) -> u64 {
        self.crash_silenced
    }

    /// Messages parked in the fault-plan delay queue (still in flight).
    pub fn delayed_in_flight(&self) -> usize {
        self.delayed.len()
    }

    /// Are messages waiting for delivery (inboxes or the delay queue)?
    pub fn has_pending(&self) -> bool {
        self.pending > 0 || !self.delayed.is_empty()
    }

    /// Verifies the ledger identities against the live queue state (see
    /// [`MsgLedger::check`]) **and** the cost/ledger reconciliation: the
    /// [`OperationCost`] message counters are charged from the same
    /// canonical quantities as the ledger books, so
    /// `costs.messages_sent == ledger.sent()` and
    /// `costs.messages_delivered == ledger.delivered()` must hold exactly.
    pub fn check_accounting(&self) -> Result<(), String> {
        self.ledger
            .check(self.pending as u64 + self.delayed.len() as u64)?;
        if self.costs.messages_sent != self.ledger.sent() {
            return Err(format!(
                "cost/ledger split: cost messages_sent {} != ledger sent {}",
                self.costs.messages_sent,
                self.ledger.sent()
            ));
        }
        if self.costs.messages_delivered != self.ledger.delivered() {
            return Err(format!(
                "cost/ledger split: cost messages_delivered {} != ledger delivered {}",
                self.costs.messages_delivered,
                self.ledger.delivered()
            ));
        }
        Ok(())
    }

    /// Runs `on_start` on every process and applies side effects (round 0).
    pub fn start(&mut self) -> RoundStats {
        // every live process is activated once
        self.costs.node_visits += self.live as u64;
        {
            let faulty = self.faults.is_some();
            let Network {
                procs,
                outbox,
                edge_adds,
                edge_drops,
                round,
                ..
            } = self;
            for (i, slot) in procs.iter_mut().enumerate() {
                if let Some(p) = slot.as_mut() {
                    let mut ctx = Ctx {
                        me: NodeId(i as u32),
                        round: *round,
                        faulty,
                        outbox: &mut *outbox,
                        edge_adds: &mut *edge_adds,
                        edge_drops: &mut *edge_drops,
                    };
                    p.on_start(&mut ctx);
                }
            }
        }
        self.finish_round(0)
    }

    /// Unsends `v`'s queued outbound mail: every still-undelivered message
    /// `v` sent is removed from its addressee's inbox (and from the fault
    /// plan's delay queue) and accounted as dropped. Every non-empty inbox
    /// is in the hot set, so this touches only addressees with pending
    /// mail. Used by [`InFlightPolicy::Drop`] deletions, crash-stops, and
    /// slot revival under [`SlotPolicy::Reuse`]. Returns how many messages
    /// were unsent.
    fn unsend_in_flight_from(&mut self, v: NodeId) -> u64 {
        let Network {
            inboxes,
            hot,
            pending,
            ledger,
            costs,
            delayed,
            ..
        } = self;
        // one random-access probe per hot inbox scanned for the victim's mail
        costs.seeks += hot.len() as u64;
        let mut unsent = 0u64;
        let mut emptied: Option<Vec<NodeId>> = None;
        for d in hot.iter() {
            let inbox = &mut inboxes[d.index()];
            let before = inbox.len();
            inbox.retain(|(from, _)| *from != v);
            let removed = before - inbox.len();
            *pending -= removed;
            unsent += removed as u64;
            ledger.record_dropped(removed as u64);
            if removed > 0 && inbox.is_empty() {
                emptied.get_or_insert_with(Vec::new).push(d);
            }
        }
        // An inbox holding only the victim's mail is empty now; its owner
        // leaves the hot set (membership tracks non-emptiness exactly).
        if let Some(emptied) = emptied {
            for d in emptied {
                hot.remove(d);
            }
        }
        // The victim's delayed mail is silenced with it.
        if !delayed.is_empty() {
            let before = delayed.len();
            delayed.retain(|(_, from, _, _)| *from != v);
            let removed = (before - delayed.len()) as u64;
            unsent += removed;
            ledger.record_dropped(removed);
        }
        unsent
    }

    /// Deletes `v` (the adversary's move): removes it from the topology,
    /// discards its pending mail (and, under [`InFlightPolicy::Drop`], the
    /// mail it already sent), and informs its surviving neighbors, whose
    /// immediate reactions are queued for the next round.
    ///
    /// # Panics
    /// Panics if `v` is dead.
    pub fn delete_node(&mut self, v: NodeId) -> RoundStats {
        self.delete_node_impl(v, false)
    }

    /// Deletes `v` as a **crash-stop**: the node dies so abruptly that its
    /// queued outbound mail is silenced regardless of the engine's
    /// [`InFlightPolicy`] — any heal conversation it was mid-sentence in
    /// is cut. Surviving neighbors still receive deletion notices (those
    /// model out-of-band failure detection, not a message from the
    /// victim). The silenced-message count accumulates in
    /// [`Network::crash_silenced`].
    ///
    /// # Panics
    /// Panics if `v` is dead.
    pub fn delete_node_crash(&mut self, v: NodeId) -> RoundStats {
        self.delete_node_impl(v, true)
    }

    /// Deletes `v`, consulting the armed fault plan to decide whether this
    /// deletion is a crash-stop ([`FaultPlan::crash_stop`] of the current
    /// round and victim) or a clean departure. Returns the round's stats
    /// and whether the deletion crashed. Without an armed plan this is
    /// exactly [`Network::delete_node`].
    ///
    /// # Panics
    /// Panics if `v` is dead.
    pub fn delete_node_faulty(&mut self, v: NodeId) -> (RoundStats, bool) {
        let crash = self
            .faults
            .as_ref()
            .is_some_and(|p| p.crash_stop(self.round, v));
        (self.delete_node_impl(v, crash), crash)
    }

    fn delete_node_impl(&mut self, v: NodeId, crash: bool) -> RoundStats {
        assert!(
            self.procs.get(v.index()).is_some_and(|p| p.is_some()),
            "{v:?} already dead"
        );
        let mut neighbors = std::mem::take(&mut self.nbr_scratch);
        self.graph.delete_node_into(v, &mut neighbors);
        self.procs[v.index()] = None;
        self.live -= 1;
        // the victim's inbox purge is one random-access probe; each
        // surviving neighbor's deletion-notice callback is one activation
        self.costs.seeks += 1;
        self.costs.node_visits += neighbors.len() as u64;
        if self.journal_on {
            self.journal.deleted.push((v, neighbors.clone()));
            if crash {
                self.journal.crashed.push(v);
            }
        }
        // Mail addressed to the dead node is lost with it; the emptied
        // buffer parks in the arena for the next inserted slot, and the
        // victim leaves the hot set (its inbox is empty now).
        let mut purged_buf = std::mem::take(&mut self.inboxes[v.index()]);
        let purged = purged_buf.len();
        purged_buf.clear();
        if purged_buf.capacity() > 0 {
            self.buf_pool.push(purged_buf);
        }
        self.hot.remove(v);
        self.pending -= purged;
        self.ledger.record_dropped(purged as u64);
        // Delayed mail addressed to the dead node is lost with it too.
        if !self.delayed.is_empty() {
            let before = self.delayed.len();
            self.delayed.retain(|(_, _, to, _)| *to != v);
            self.ledger
                .record_dropped((before - self.delayed.len()) as u64);
        }
        if crash {
            // Crash-stop: the victim dies mid-sentence — its queued
            // outbound mail is silenced no matter the in-flight policy.
            self.crashes += 1;
            let silenced = self.unsend_in_flight_from(v);
            self.crash_silenced += silenced;
            fnv_fold(&mut self.fault_fp, 4);
            fnv_fold(&mut self.fault_fp, self.round);
            fnv_fold(&mut self.fault_fp, u64::from(v.0));
            fnv_fold(&mut self.fault_fp, silenced);
        } else if self.policy == InFlightPolicy::Drop {
            // Silence the victim: unsend its queued outbound mail too.
            self.unsend_in_flight_from(v);
        }
        let mut delivered = 0usize;
        {
            let faulty = self.faults.is_some();
            let Network {
                procs,
                outbox,
                edge_adds,
                edge_drops,
                round,
                round_load,
                touched,
                ledger,
                ..
            } = self;
            for &u in &neighbors {
                delivered += 1; // the deletion notice itself
                ledger.record_notice(u);
                bump_load(round_load, touched, u);
                let mut ctx = Ctx {
                    me: u,
                    round: *round,
                    faulty,
                    outbox: &mut *outbox,
                    edge_adds: &mut *edge_adds,
                    edge_drops: &mut *edge_drops,
                };
                procs[u.index()]
                    .as_mut()
                    .expect("surviving neighbor")
                    .on_neighbor_deleted(v, &mut ctx);
            }
        }
        // hand the (capacity-retaining) neighbor buffer back to the scratch
        neighbors.clear();
        self.nbr_scratch = neighbors;
        self.finish_round(delivered)
    }

    /// Inserts a fresh node wired to `neighbors` (the adversary's insertion
    /// move of the Forgiving Graph model) and returns its ID plus the
    /// round's stats.
    ///
    /// The slot comes from the [`SlotPolicy`]: appended ([`SlotPolicy::Grow`],
    /// default — all dense state and the ledger books grow by one) or the
    /// lowest dead slot revived ([`SlotPolicy::Reuse`]). The newcomer's
    /// process is built by `make` and started via [`Process::on_start`];
    /// each listed neighbor receives a join notice
    /// ([`Process::on_neighbor_joined`]) charged to the [`MsgLedger`]'s
    /// joins book. Reactions are queued for the next round as usual.
    ///
    /// # Panics
    /// Panics if a listed neighbor is dead or duplicated.
    pub fn insert_node(
        &mut self,
        neighbors: &[NodeId],
        make: impl FnOnce(NodeId) -> P,
    ) -> (NodeId, RoundStats) {
        for (i, &u) in neighbors.iter().enumerate() {
            assert!(
                self.procs.get(u.index()).is_some_and(|p| p.is_some()),
                "insert_node: neighbor {u:?} is dead"
            );
            assert!(
                !neighbors[..i].contains(&u),
                "insert_node: duplicate neighbor {u:?}"
            );
        }
        // only `Reuse` looks for a dead slot: the scan is O(capacity)
        let dead = match self.slots {
            SlotPolicy::Reuse => self.graph.first_dead_slot(),
            SlotPolicy::Grow => None,
        };
        let v = match dead {
            Some(slot) => {
                self.graph.revive_node(slot);
                // The slot is a *new* node: retire the dead incarnation's
                // per-node books so its message history cannot bleed into
                // the newcomer's O(1)-per-node evidence…
                self.ledger.reset_node(slot);
                // …and unsend the dead incarnation's still-undelivered
                // mail — a recycled identity must not speak from the grave
                // (deliveries after the revival would otherwise charge the
                // new incarnation's sent book for the old one's traffic).
                self.unsend_in_flight_from(slot);
                slot
            }
            None => {
                let slot = self.graph.add_node();
                debug_assert_eq!(slot.index(), self.procs.len());
                self.procs.push(None);
                // recycle a retired inbox buffer when the arena has one
                self.inboxes.push(self.buf_pool.pop().unwrap_or_default());
                self.round_load.push(0);
                self.ledger.grow(self.graph.capacity());
                self.hot.grow(self.graph.capacity());
                slot
            }
        };
        debug_assert!(self.inboxes[v.index()].is_empty());
        self.procs[v.index()] = Some(make(v));
        self.live += 1;
        // the newcomer's on_start plus one join-notice callback per anchor
        self.costs.node_visits += 1 + neighbors.len() as u64;
        if self.journal_on {
            self.journal.inserted.push((v, neighbors.to_vec()));
        }
        for &u in neighbors {
            self.graph.add_edge(v, u);
        }
        let mut delivered = 0usize;
        {
            let faulty = self.faults.is_some();
            let Network {
                procs,
                outbox,
                edge_adds,
                edge_drops,
                round,
                round_load,
                touched,
                ledger,
                ..
            } = self;
            let mut ctx = Ctx {
                me: v,
                round: *round,
                faulty,
                outbox: &mut *outbox,
                edge_adds: &mut *edge_adds,
                edge_drops: &mut *edge_drops,
            };
            procs[v.index()]
                .as_mut()
                .expect("just inserted")
                .on_start(&mut ctx);
            for &u in neighbors {
                delivered += 1; // the join notice itself
                ledger.record_join(u);
                bump_load(round_load, touched, u);
                let mut ctx = Ctx {
                    me: u,
                    round: *round,
                    faulty,
                    outbox: &mut *outbox,
                    edge_adds: &mut *edge_adds,
                    edge_drops: &mut *edge_drops,
                };
                procs[u.index()]
                    .as_mut()
                    .expect("live neighbor")
                    .on_neighbor_joined(v, &mut ctx);
            }
        }
        let mut stats = self.finish_round(delivered);
        // the arrival edges are part of this round's churn figures
        stats.edges_added += neighbors.len();
        (v, stats)
    }

    /// Delivers all queued messages (one synchronous round), processing
    /// addressees in the canonical ascending-[`NodeId`] order. Returns the
    /// round's stats together with its exact [`OperationCost`].
    #[deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn step(&mut self) -> CostResult<RoundStats> {
        let before = self.costs;
        let mut hot = std::mem::take(&mut self.hot_scratch);
        debug_assert!(hot.is_empty());
        // the bitset drain IS the canonical ascending order — no sort
        self.hot.drain_into(&mut hot);
        // one inbox probe per hot addressee
        self.costs.seeks += hot.len() as u64;
        let delivered = self.deliver_inboxes(&hot);
        hot.clear();
        self.hot_scratch = hot;
        let stats = self.finish_round(delivered);
        (stats, self.costs - before)
    }

    /// The same round as [`Network::step`].
    ///
    /// Ignored; kept only because ftbench's sources are frozen; delete with
    /// the next benchmark PR.
    #[deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn step_mt(&mut self) -> CostResult<RoundStats> {
        self.step()
    }

    /// Drains the inboxes of the (sorted) `hot` addressees, charging
    /// ledger and load per delivery; returns the delivery count.
    #[deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn deliver_inboxes(&mut self, hot: &[NodeId]) -> usize {
        let mut delivered = 0usize;
        let faulty = self.faults.is_some();
        let Network {
            procs,
            inboxes,
            outbox,
            edge_adds,
            edge_drops,
            round,
            round_load,
            touched,
            pending,
            ledger,
            costs,
            ..
        } = self;
        #[expect(
            clippy::indexing_slicing,
            reason = "hot holds only ids bounds-checked against procs.len() at enqueue time; inboxes has the same length"
        )]
        for &to in hot {
            // A hot entry can be stale: the addressee died and its inbox
            // was purged. Nothing to deliver then.
            if inboxes[to.index()].is_empty() {
                continue;
            }
            let mut mail = std::mem::take(&mut inboxes[to.index()]);
            *pending -= mail.len();
            match procs[to.index()].as_mut() {
                None => {
                    // Unreachable (deletion purges the inbox), but the
                    // books must balance even if it ever fires.
                    ledger.record_dropped(mail.len() as u64);
                    mail.clear();
                }
                Some(p) => {
                    // one live addressee activated (however much mail it has)
                    costs.node_visits += 1;
                    for (from, msg) in mail.drain(..) {
                        delivered += 1;
                        costs.messages_delivered += 1;
                        ledger.record_delivery(from, to);
                        bump_load(round_load, touched, from);
                        bump_load(round_load, touched, to);
                        let mut ctx = Ctx {
                            me: to,
                            round: *round,
                            faulty,
                            outbox: &mut *outbox,
                            edge_adds: &mut *edge_adds,
                            edge_drops: &mut *edge_drops,
                        };
                        p.on_message(from, msg, &mut ctx);
                    }
                }
            }
            // Hand the (empty, capacity-retaining) buffer back.
            inboxes[to.index()] = mail;
        }
        delivered
    }

    /// Steps until no messages are pending; returns the number of rounds
    /// (the recovery latency) and the merged statistics.
    ///
    /// # Panics
    /// Panics if quiescence is not reached within `max_rounds` (a protocol
    /// that chatters forever is a bug). Use
    /// [`Network::run_until_quiet_capped`] to observe truncation instead of
    /// panicking.
    #[deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn run_until_quiet(&mut self, max_rounds: u32) -> CostResult<(u32, RoundStats)> {
        let ((rounds, merged, converged), cost) = self.run_until_quiet_capped(max_rounds);
        assert!(
            converged,
            "protocol did not quiesce within {max_rounds} rounds"
        );
        ((rounds, merged), cost)
    }

    /// Steps until quiescence or until `max_rounds` rounds have run,
    /// whichever comes first. Returns the rounds consumed, the merged
    /// statistics, and `converged`: `true` iff no mail is pending — a
    /// `false` makes a truncated heal distinguishable from a finished one
    /// (the round budget ran out with messages still in flight).
    #[deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    pub fn run_until_quiet_capped(
        &mut self,
        max_rounds: u32,
    ) -> CostResult<(u32, RoundStats, bool)> {
        let before = self.costs;
        let mut rounds = 0;
        let mut merged = RoundStats::default();
        while self.has_pending() && rounds < max_rounds {
            let (s, _) = self.step();
            rounds += 1;
            merged.merge(&s);
        }
        ((rounds, merged, !self.has_pending()), self.costs - before)
    }

    /// Closes a round: routes the outbox into next round's inboxes, applies
    /// edge changes (drops of pre-existing edges first, then adds), folds
    /// the per-round load into the stats, and advances the clock.
    #[deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )]
    fn finish_round(&mut self, delivered: usize) -> RoundStats {
        let mut stats = RoundStats {
            messages: delivered,
            ..RoundStats::default()
        };
        // Charge the round's canonical quantities before the buffers drain.
        // These are the same figures the ledger and stats books see.
        self.costs.messages_sent += self.outbox.len() as u64;
        self.costs.heap_bytes +=
            (self.outbox.len() * std::mem::size_of::<(NodeId, NodeId, P::Msg)>()) as u64;
        self.costs.edge_scans += (self.edge_drops.len() + self.edge_adds.len()) as u64;
        // Mature the fault plan's delay queue first: postponed mail whose
        // due round is next re-enters the inboxes *ahead* of this round's
        // fresh sends (it is older traffic). The guard keeps the fault-free
        // path — where the queue is always empty — byte-for-byte identical
        // to the original engine.
        if !self.delayed.is_empty() {
            let next = self.round + 1;
            let mut queue = std::mem::take(&mut self.delayed_scratch);
            std::mem::swap(&mut self.delayed, &mut queue);
            let Network {
                procs,
                inboxes,
                hot,
                pending,
                ledger,
                delayed,
                ..
            } = self;
            for (due, from, to, msg) in queue.drain(..) {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "guarded: to.index() < procs.len() is checked in the condition; inboxes.len() == procs.len()"
                )]
                if due > next {
                    delayed.push((due, from, to, msg));
                } else if to.index() < procs.len() && procs[to.index()].is_some() {
                    inboxes[to.index()].push((from, msg));
                    hot.insert(to);
                    *pending += 1;
                } else {
                    // the addressee died while the mail was parked
                    ledger.record_dropped(1);
                }
            }
            self.delayed_scratch = queue;
        }
        {
            let Network {
                procs,
                inboxes,
                outbox,
                hot,
                pending,
                ledger,
                faults,
                delayed,
                fault_fp,
                round,
                ..
            } = self;
            match faults {
                None => {
                    for (from, to, msg) in outbox.drain(..) {
                        ledger.record_sent();
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "guarded: to.index() < procs.len() is checked in the condition; inboxes.len() == procs.len()"
                        )]
                        if to.index() < procs.len() && procs[to.index()].is_some() {
                            inboxes[to.index()].push((from, msg));
                            hot.insert(to); // idempotent bit-set
                            *pending += 1;
                        } else {
                            // addressee is dead at send time; dropped on the floor
                            ledger.record_dropped(1);
                        }
                    }
                }
                Some(plan) => {
                    // Faulty routing. Fates are pure functions of (plan
                    // seed, round, endpoints, canonical send position k),
                    // so the realized schedule replays from the seed.
                    for (k, (from, to, msg)) in outbox.drain(..).enumerate() {
                        ledger.record_sent();
                        #[expect(
                            clippy::indexing_slicing,
                            reason = "guarded: to.index() < procs.len() is checked on this line"
                        )]
                        let alive = to.index() < procs.len() && procs[to.index()].is_some();
                        match plan.fate(*round, from, to, k as u64) {
                            MsgFate::Deliver => {
                                if alive {
                                    #[expect(
                                        clippy::indexing_slicing,
                                        reason = "alive implies the bounds guard above held; inboxes.len() == procs.len()"
                                    )]
                                    inboxes[to.index()].push((from, msg));
                                    hot.insert(to);
                                    *pending += 1;
                                } else {
                                    ledger.record_dropped(1);
                                }
                            }
                            MsgFate::Lose => {
                                // destroyed on the wire, endpoints fine
                                ledger.record_lost(1);
                                fnv_fold(fault_fp, 1);
                                fnv_fold(fault_fp, *round);
                                fnv_fold(fault_fp, (u64::from(from.0) << 32) | u64::from(to.0));
                                fnv_fold(fault_fp, k as u64);
                            }
                            MsgFate::Duplicate => {
                                ledger.record_duplicated(1);
                                fnv_fold(fault_fp, 2);
                                fnv_fold(fault_fp, *round);
                                fnv_fold(fault_fp, (u64::from(from.0) << 32) | u64::from(to.0));
                                fnv_fold(fault_fp, k as u64);
                                if alive {
                                    #[expect(
                                        clippy::indexing_slicing,
                                        reason = "alive implies the bounds guard above held; inboxes.len() == procs.len()"
                                    )]
                                    inboxes[to.index()].push((from, msg.clone()));
                                    #[expect(
                                        clippy::indexing_slicing,
                                        reason = "alive implies the bounds guard above held; inboxes.len() == procs.len()"
                                    )]
                                    inboxes[to.index()].push((from, msg));
                                    hot.insert(to);
                                    *pending += 2;
                                } else {
                                    // both copies die with the addressee
                                    ledger.record_dropped(2);
                                }
                            }
                            MsgFate::Delay(extra) => {
                                ledger.record_delayed(1);
                                fnv_fold(fault_fp, 3);
                                fnv_fold(fault_fp, *round);
                                fnv_fold(fault_fp, (u64::from(from.0) << 32) | u64::from(to.0));
                                fnv_fold(fault_fp, k as u64);
                                fnv_fold(fault_fp, u64::from(extra));
                                // parked until due; liveness is re-judged
                                // at maturity (the addressee may die or be
                                // revived while the mail is parked)
                                delayed.push((*round + 1 + u64::from(extra), from, to, msg));
                            }
                        }
                    }
                }
            }
        }
        {
            // Drops first: a drop can only remove a pre-existing edge, so an
            // add requested in the same round always wins.
            let Network {
                graph,
                edge_adds,
                edge_drops,
                journal,
                journal_on,
                ..
            } = self;
            for (a, b) in edge_drops.drain(..) {
                if graph.remove_edge(a, b) {
                    stats.edges_removed += 1;
                    if *journal_on {
                        journal.edges_removed.push((a, b));
                    }
                }
            }
            for (a, b) in edge_adds.drain(..) {
                if a != b && graph.is_alive(a) && graph.is_alive(b) && !graph.has_edge(a, b) {
                    graph.add_edge(a, b);
                    stats.edges_added += 1;
                    if *journal_on {
                        journal.edges_added.push((a, b));
                    }
                }
            }
        }
        {
            let Network {
                round_load,
                touched,
                ..
            } = self;
            let mut max = 0u32;
            #[expect(
                clippy::indexing_slicing,
                reason = "touched only lists ids bump_load already indexed into this same slice"
            )]
            for &v in touched.iter() {
                max = max.max(round_load[v.index()]);
                round_load[v.index()] = 0;
            }
            touched.clear();
            stats.max_per_node = max as usize;
        }
        self.round += 1;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen;
    use std::collections::BTreeMap;

    /// Simple flood protocol: on start the initiator floods a token; each
    /// node forwards it to all neighbors once.
    #[derive(Debug)]
    struct Flood {
        initiator: bool,
        neighbors: Vec<NodeId>,
        seen: bool,
    }

    impl Process for Flood {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if self.initiator {
                self.seen = true;
                for &u in &self.neighbors {
                    ctx.send(u, ());
                }
            }
        }

        fn on_message(&mut self, _from: NodeId, _msg: (), ctx: &mut Ctx<'_, ()>) {
            if !self.seen {
                self.seen = true;
                for &u in &self.neighbors {
                    ctx.send(u, ());
                }
            }
        }
    }

    fn flood_net(g: ft_graph::Graph, init: NodeId) -> Network<Flood> {
        let neighbors: BTreeMap<NodeId, Vec<NodeId>> =
            g.nodes().map(|v| (v, g.neighbors(v).collect())).collect();
        Network::new(g, |v| Flood {
            initiator: v == init,
            neighbors: neighbors[&v].clone(),
            seen: false,
        })
    }

    #[test]
    fn flood_reaches_everyone_in_ecc_rounds() {
        let g = gen::path(6);
        let mut net = flood_net(g, NodeId(0));
        net.start();
        let ((rounds, stats), cost) = net.run_until_quiet(100);
        assert_eq!(rounds, 6, "5 hops + 1 final echo round");
        assert!(stats.messages > 0);
        assert_eq!(
            cost.messages_delivered,
            net.ledger().delivered(),
            "the whole run's cost delta covers every delivery"
        );
        assert!(cost.node_visits > 0 && cost.seeks > 0 && cost.heap_bytes > 0);
        for v in net.nodes().collect::<Vec<_>>() {
            assert!(net.process(v).seen, "{v:?} not reached");
        }
        net.check_accounting().expect("books balance");
    }

    #[test]
    fn messages_to_dead_nodes_are_dropped() {
        let g = gen::path(3);
        let mut net = flood_net(g, NodeId(0));
        net.start();
        net.delete_node(NodeId(1)); // the flood's only path
        let (_, _) = net.run_until_quiet(10);
        assert!(!net.process(NodeId(2)).seen, "message crossed a dead node");
        assert!(
            net.ledger().dropped() > 0,
            "the purged mail is on the books"
        );
        net.check_accounting().expect("books balance");
    }

    #[test]
    fn edge_requests_are_applied_and_deduped() {
        #[derive(Debug)]
        struct Linker(NodeId);
        impl Process for Linker {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.add_edge(self.0); // both sides request the same edge
            }
            fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, ()>) {}
        }
        let g = ft_graph::Graph::new(2);
        let mut net = Network::new(g, |v| Linker(NodeId(1 - v.0)));
        let stats = net.start();
        assert_eq!(stats.edges_added, 1, "duplicate request deduped");
        assert!(net.graph().has_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn deletion_notifies_only_neighbors() {
        #[derive(Debug, Default)]
        struct Obs {
            notices: usize,
        }
        impl Process for Obs {
            type Msg = ();
            fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, ()>) {}
            fn on_neighbor_deleted(&mut self, _: NodeId, _: &mut Ctx<'_, ()>) {
                self.notices += 1;
            }
        }
        let g = gen::star(4); // 0 is hub
        let mut net = Network::new(g, |_| Obs::default());
        net.delete_node(NodeId(1));
        assert_eq!(net.process(NodeId(0)).notices, 1, "hub saw it");
        assert_eq!(net.process(NodeId(2)).notices, 0, "leaf 2 did not");
        net.delete_node(NodeId(0));
        for v in [2u32, 3] {
            assert_eq!(net.process(NodeId(v)).notices, 1, "leaf {v} saw hub die");
        }
    }

    #[test]
    fn run_until_quiet_counts_rounds() {
        let g = gen::cycle(8);
        let mut net = flood_net(g, NodeId(0));
        net.start();
        let ((rounds, _), _) = net.run_until_quiet(50);
        // ecc of a node in C8 is 4; one extra echo round
        assert_eq!(rounds, 5);
    }

    /// One-shot sender used by the in-flight policy tests.
    #[derive(Debug)]
    struct OneShot {
        target: Option<NodeId>,
        received: usize,
    }

    impl Process for OneShot {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if let Some(t) = self.target {
                ctx.send(t, ());
            }
        }
        fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, ()>) {
            self.received += 1;
        }
    }

    fn one_shot_net(policy: InFlightPolicy) -> Network<OneShot> {
        let g = gen::path(2);
        Network::with_policy(g, policy, |v| OneShot {
            target: (v == NodeId(0)).then_some(NodeId(1)),
            received: 0,
        })
    }

    #[test]
    fn dead_senders_mail_is_delivered_by_default() {
        let mut net = one_shot_net(InFlightPolicy::Deliver);
        net.start();
        net.delete_node(NodeId(0)); // sender dies with mail in flight
        let (_, _cost) = net.run_until_quiet(4);
        assert_eq!(net.process(NodeId(1)).received, 1, "wire kept the packet");
        assert_eq!(net.ledger().dropped(), 0);
        net.check_accounting().expect("books balance");
    }

    #[test]
    fn drop_policy_silences_dead_senders() {
        let mut net = one_shot_net(InFlightPolicy::Drop);
        net.start();
        net.delete_node(NodeId(0));
        let (_, _cost) = net.run_until_quiet(4);
        assert_eq!(net.process(NodeId(1)).received, 0, "victim was silenced");
        assert_eq!(net.ledger().dropped(), 1, "the unsent mail is on the books");
        net.check_accounting().expect("books balance");
    }

    /// Requests a set of edge adds/drops on start (ordering tests).
    #[derive(Debug)]
    struct EdgeScript {
        adds: Vec<NodeId>,
        drops: Vec<NodeId>,
    }

    impl Process for EdgeScript {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            for &u in &self.adds {
                ctx.add_edge(u);
            }
            for &u in &self.drops {
                ctx.drop_edge(u);
            }
        }
        fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, ()>) {}
    }

    #[test]
    fn same_round_add_and_drop_of_a_fresh_edge_nets_to_present() {
        // the edge does not pre-exist: the drop is a no-op, the add lands
        let g = ft_graph::Graph::new(2);
        let mut net = Network::new(g, |v| EdgeScript {
            adds: (v == NodeId(0)).then_some(NodeId(1)).into_iter().collect(),
            drops: (v == NodeId(0)).then_some(NodeId(1)).into_iter().collect(),
        });
        let stats = net.start();
        assert!(net.graph().has_edge(NodeId(0), NodeId(1)), "add wins");
        assert_eq!((stats.edges_added, stats.edges_removed), (1, 0));
    }

    #[test]
    fn same_round_add_and_drop_of_an_existing_edge_nets_to_present() {
        // the edge pre-exists: the drop removes it first, then the add lands
        let g = ft_graph::Graph::from_edges(2, &[(0, 1)]);
        let mut net = Network::new(g, |v| EdgeScript {
            adds: (v == NodeId(1)).then_some(NodeId(0)).into_iter().collect(),
            drops: (v == NodeId(0)).then_some(NodeId(1)).into_iter().collect(),
        });
        let stats = net.start();
        assert!(net.graph().has_edge(NodeId(0), NodeId(1)), "add wins");
        assert_eq!((stats.edges_added, stats.edges_removed), (1, 1));
    }

    /// Joiner-aware process: counts join notices and greets newcomers.
    #[derive(Debug, Default)]
    struct Greeter {
        joins: usize,
        greetings: usize,
    }

    impl Process for Greeter {
        type Msg = ();
        fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, ()>) {
            self.greetings += 1;
        }
        fn on_neighbor_joined(&mut self, new: NodeId, ctx: &mut Ctx<'_, ()>) {
            self.joins += 1;
            ctx.send(new, ());
        }
    }

    #[test]
    fn insert_node_grows_and_notifies_neighbors() {
        let g = gen::path(3);
        let mut net = Network::new(g, |_| Greeter::default());
        let (v, stats) = net.insert_node(&[NodeId(0), NodeId(2)], |_| Greeter::default());
        assert_eq!(v, NodeId(3), "grow policy appends");
        assert_eq!(stats.messages, 2, "two join notices");
        assert_eq!(stats.edges_added, 2);
        assert!(net.graph().has_edge(v, NodeId(0)));
        assert_eq!(net.process(NodeId(0)).joins, 1);
        assert_eq!(net.process(NodeId(1)).joins, 0, "non-anchor unaware");
        let (_, _cost) = net.run_until_quiet(4);
        assert_eq!(net.process(v).greetings, 2, "both anchors greeted");
        assert_eq!(net.ledger().joins(), 2);
        net.check_accounting().expect("books balance");
    }

    #[test]
    fn reuse_policy_revives_the_dead_slot() {
        let g = gen::path(3);
        let mut net = Network::new(g, |_| Greeter::default());
        net.set_slot_policy(SlotPolicy::Reuse);
        net.delete_node(NodeId(1));
        let (v, _) = net.insert_node(&[NodeId(0)], |_| Greeter::default());
        assert_eq!(v, NodeId(1), "dead slot reused");
        assert_eq!(net.graph().capacity(), 3, "no growth");
        assert_eq!(net.len(), 3);
        let (w, _) = net.insert_node(&[NodeId(2)], |_| Greeter::default());
        assert_eq!(w, NodeId(3), "no dead slot left: falls back to growing");
        let (_, _cost) = net.run_until_quiet(4);
        net.check_accounting().expect("books balance");
    }

    #[test]
    fn grow_policy_appends_even_with_a_dead_slot() {
        let g = gen::path(3);
        let mut net = Network::new(g, |_| Greeter::default());
        net.delete_node(NodeId(1));
        let (v, _) = net.insert_node(&[NodeId(0)], |_| Greeter::default());
        assert_eq!(v, NodeId(3), "the new id is the old capacity");
        assert_eq!(net.graph().capacity(), 4);
        assert!(!net.graph().is_alive(NodeId(1)), "the dead slot stays dead");
        let (_, _cost) = net.run_until_quiet(4);
        net.check_accounting().expect("books balance");
    }

    #[test]
    #[should_panic(expected = "is dead")]
    fn insert_with_dead_anchor_panics() {
        let g = gen::path(2);
        let mut net = Network::new(g, |_| Greeter::default());
        net.delete_node(NodeId(0));
        net.insert_node(&[NodeId(0)], |_| Greeter::default());
    }

    #[test]
    fn flood_replays_byte_identically() {
        // a grid flood generates hundreds of same-round deliveries
        let run = || {
            let mut net = flood_net(gen::grid(20, 20), NodeId(0));
            net.start();
            let mut rounds = Vec::new();
            while net.has_pending() {
                rounds.push(net.step());
            }
            net.check_accounting().expect("books balance");
            let seen: Vec<bool> = net.nodes().map(|v| net.process(v).seen).collect();
            (rounds, net.ledger().clone(), net.costs(), seen)
        };
        let (rounds_a, ledger_a, costs_a, seen_a) = run();
        let (rounds_b, ledger_b, costs_b, seen_b) = run();
        assert_eq!(rounds_a, rounds_b, "per-round stats/costs diverged");
        assert_eq!(ledger_a, ledger_b, "ledger books diverged");
        assert_eq!(costs_a, costs_b, "cumulative costs diverged");
        assert_eq!(seen_a, seen_b);
    }

    #[test]
    fn notices_are_in_both_books() {
        let g = gen::star(5);
        let mut net = flood_net(g, NodeId(1));
        net.start();
        net.delete_node(NodeId(0)); // hub: 4 surviving neighbors notified
        let (_, _cost) = net.run_until_quiet(10);
        let ledger = net.ledger();
        assert_eq!(ledger.notices(), 4);
        for v in [1u32, 2, 3, 4] {
            assert!(
                ledger.per_node_received(NodeId(v)) >= 1,
                "n{v}'s notice is in the per-node book"
            );
        }
        assert_eq!(
            ledger.sum_per_node(),
            2 * ledger.total_messages() - ledger.notices(),
            "the reconciliation identity"
        );
        net.check_accounting().expect("books balance");
    }
}
