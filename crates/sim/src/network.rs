//! The synchronous round engine — dense, allocation-free core.
//!
//! A [`Network`] owns one [`Process`] per live node plus the evolving
//! topology [`Graph`]. All node-indexed state lives in contiguous `Vec`s
//! indexed by [`NodeId`] (arena-style slots: a deleted node's slot becomes
//! `None`), so campaigns over 10⁵+ nodes stay cache-friendly and the
//! steady-state round loop performs no allocation: the round mailbox and
//! its sort keys, the staged sends and edge requests, and the per-round
//! load counters are all reused between rounds.
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
//! peer. Mail a node sent *before it was deleted* stays on the wire and is
//! delivered next round (a deleted node cannot recall packets already
//! sent); only a crash-stop (a deletion the armed [`FaultPlan`] escalates,
//! see [`Network::delete_node_faulty`]) silences it.
//!
//! Every count the engine reports — [`RoundStats`], totals, per-node books —
//! derives from one [`MsgLedger`] charged at delivery time, so the books
//! reconcile by construction; see the [`crate::ledger`] module docs for the
//! enforced identities.
//!
//! # Canonical delivery order
//!
//! Delivery order within a round is **canonical**: addressees are processed
//! in ascending [`NodeId`] order, and each addressee receives its mail in
//! arrival order. All mail in flight sits in one mailbox in arrival order;
//! the top of every [`Network::step`] sorts it by addressee (an unstable
//! sort of `(addressee, arrival index)` keys, applied in place) and
//! delivers it in runs. One thread runs every round, so a campaign is a pure
//! function of its inputs and seeds: the same seed replays the same ledger,
//! the same [`RoundStats`] and the same final graph.

use crate::faults::FaultPlan;
use crate::ledger::MsgLedger;
use ft_costs::OperationCost;
use ft_graph::hash::FNV_BASIS;
use ft_graph::{Graph, NodeId};
use std::ops::Range;

mod round;

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
    staged: &'a mut Staged<M>,
}

/// What the callbacks of one round stage: sends and edge requests, all
/// applied when the round closes. The buffers are reused between rounds.
#[derive(Debug)]
struct Staged<M> {
    /// Sends as `(from, to, msg)`, in callback order.
    outbox: Vec<(NodeId, NodeId, M)>,
    edge_adds: Vec<(NodeId, NodeId)>,
    edge_drops: Vec<(NodeId, NodeId)>,
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
        self.staged.outbox.push((self.me, to, msg));
    }

    /// Requests insertion of the undirected edge `{me, to}`.
    pub fn add_edge(&mut self, to: NodeId) {
        self.staged.edge_adds.push((self.me, to));
    }

    /// Requests removal of the undirected edge `{me, to}`.
    pub fn drop_edge(&mut self, to: NodeId) {
        self.staged.edge_drops.push((self.me, to));
    }
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

/// The simulator: dense process slots + topology + one round mailbox +
/// the message ledger.
#[derive(Debug)]
pub struct Network<P: Process> {
    /// Process slots indexed by `NodeId` (`None` = deleted).
    procs: Vec<Option<P>>,
    graph: Graph,
    /// Mail awaiting delivery next round as `(to, from, msg)`, in arrival
    /// order; its buffer is reused. Holds only the O(Δ) messages in flight,
    /// not one buffer per node.
    mail: Vec<(NodeId, NodeId, P::Msg)>,
    /// Reusable sort keys for `mail`: `(addressee << 32) | arrival index`.
    mail_order: Vec<u64>,
    /// The current round's sends and edge requests.
    staged: Staged<P::Msg>,
    /// Per-node message load of the current round, indexed by `NodeId`.
    round_load: Vec<u32>,
    /// Nodes with a non-zero `round_load` entry (cleared every round).
    touched: Vec<NodeId>,
    round: u64,
    live: usize,
    ledger: MsgLedger,
    /// Cumulative [`OperationCost`] of every engine operation since
    /// construction. The costed entry points ([`Network::step`] and
    /// friends) return per-call deltas as snapshots of this counter.
    costs: OperationCost,
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
    /// postponed; matured entries re-enter the mailbox in `finish_round`.
    /// Entries stay in insertion order (canonical routing order), so the
    /// queue's evolution is deterministic.
    delayed: Vec<(u64, NodeId, NodeId, P::Msg)>,
    /// Reusable buffer the delay queue drains through each round.
    delayed_scratch: Vec<(u64, NodeId, NodeId, P::Msg)>,
    /// Running FNV-1a fingerprint of the realized fault schedule: every
    /// non-[`Deliver`](crate::faults::MsgFate::Deliver) fate and every crash-stop folds its
    /// identity in. Pure function of (plan, campaign), pinnable in seeded
    /// regressions.
    fault_fp: u64,
    /// Crash-stop deletions performed.
    crashes: u64,
    /// In-flight messages silenced by crash-stops (mail the victims had
    /// sent but that was never delivered because they died mid-sentence).
    crash_silenced: u64,
}

/// A replayable log of one span of topology churn: every deletion,
/// insertion, and applied edge change since the journal was last drained,
/// in application order. Incremental measurement passes (the stretch
/// tracker) consume this instead of re-scanning the whole graph.
///
/// The neighbour lists of all deletions and insertions sit back to back in
/// one id buffer, and each event keeps the range of its list, so recording
/// an event copies its list into spare capacity instead of allocating one.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnJournal {
    /// Every recorded neighbour list, in recording order.
    ids: Vec<NodeId>,
    /// Deleted nodes with the range of `ids` listing their neighbours.
    deleted: Vec<(NodeId, Range<usize>)>,
    /// Inserted nodes with the range of `ids` listing their anchors.
    inserted: Vec<(NodeId, Range<usize>)>,
    /// Healer edges actually inserted (requests that changed the graph).
    pub edges_added: Vec<(NodeId, NodeId)>,
    /// Healer edges actually removed (requests that changed the graph).
    pub edges_removed: Vec<(NodeId, NodeId)>,
    /// The subset of the deletions that were crash-stops (victims whose
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

    /// Appends `list` to the id buffer and returns its range there.
    fn push_list(&mut self, list: &[NodeId]) -> Range<usize> {
        let start = self.ids.len();
        self.ids.extend_from_slice(list);
        start..self.ids.len()
    }

    /// Records the deletion of `v`, which had `neighbors` when it died.
    pub fn record_deleted(&mut self, v: NodeId, neighbors: &[NodeId]) {
        let range = self.push_list(neighbors);
        self.deleted.push((v, range));
    }

    /// Records the insertion of `v`, wired to the live `anchors`.
    pub fn record_inserted(&mut self, v: NodeId, anchors: &[NodeId]) {
        let range = self.push_list(anchors);
        self.inserted.push((v, range));
    }

    /// Deleted nodes with the neighbours each had at deletion time, in
    /// deletion order.
    pub fn deleted(&self) -> impl ExactSizeIterator<Item = (NodeId, &[NodeId])> + '_ {
        self.deleted.iter().map(|(v, r)| (*v, &self.ids[r.clone()]))
    }

    /// Inserted nodes with the live anchors each was wired to, in
    /// insertion order.
    pub fn inserted(&self) -> impl ExactSizeIterator<Item = (NodeId, &[NodeId])> + '_ {
        self.inserted
            .iter()
            .map(|(v, r)| (*v, &self.ids[r.clone()]))
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
    /// Builds a network over `graph`, creating one process per live node.
    pub fn new(graph: Graph, mut make: impl FnMut(NodeId) -> P) -> Self {
        let cap = graph.capacity();
        let mut procs: Vec<Option<P>> = Vec::with_capacity(cap);
        procs.resize_with(cap, || None);
        let mut live = 0usize;
        for v in graph.nodes() {
            procs[v.index()] = Some(make(v));
            live += 1;
        }
        Network {
            procs,
            graph,
            mail: Vec::new(),
            mail_order: Vec::new(),
            staged: Staged {
                outbox: Vec::new(),
                edge_adds: Vec::new(),
                edge_drops: Vec::new(),
            },
            round_load: vec![0; cap],
            touched: Vec::new(),
            round: 0,
            live,
            ledger: MsgLedger::new(cap),
            costs: OperationCost::ZERO,
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

    /// Arms (or with `None` disarms) the fault schedule for subsequent
    /// rounds. Armed faults decide per-message fates and crash-stops; a
    /// disarmed network is the original lossless engine.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
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

    /// Are messages waiting for delivery (the mailbox or the delay queue)?
    pub fn has_pending(&self) -> bool {
        !self.mail.is_empty() || !self.delayed.is_empty()
    }

    /// Verifies the ledger identities against the live queue state (see
    /// [`MsgLedger::check`]) **and** the cost/ledger reconciliation: the
    /// [`OperationCost`] message counters are charged from the same
    /// canonical quantities as the ledger books, so
    /// `costs.messages_sent == ledger.sent()` and
    /// `costs.messages_delivered == ledger.delivered()` must hold exactly.
    pub fn check_accounting(&self) -> Result<(), String> {
        self.ledger
            .check(self.mail.len() as u64 + self.delayed.len() as u64)?;
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
        for i in 0..self.procs.len() {
            self.callback(NodeId(i as u32), |p, ctx| p.on_start(ctx));
        }
        self.finish_round(0)
    }

    /// Unsends `v`'s queued outbound mail: every still-undelivered message
    /// `v` sent is removed from the mailbox (and from the fault plan's
    /// delay queue) and accounted as dropped. Used by crash-stops. Returns
    /// how many messages were unsent.
    fn unsend_in_flight_from(&mut self, v: NodeId) -> u64 {
        // One random-access probe per addressee with mail, the charge
        // `step` makes for the same mailbox. Sorted, each addressee is one
        // run; the sort keeps arrival order within an addressee, and
        // `step` sorts again anyway.
        self.sort_mail();
        let mut run = None;
        let before = self.mail.len() + self.delayed.len();
        self.mail.retain(|&(to, from, _)| {
            if run != Some(to) {
                run = Some(to);
                self.costs.seeks += 1;
            }
            from != v
        });
        // The victim's delayed mail is silenced with it.
        self.delayed.retain(|&(_, from, _, _)| from != v);
        let unsent = (before - self.mail.len() - self.delayed.len()) as u64;
        self.ledger.record_dropped(unsent);
        unsent
    }

    /// Deletes `v` (the adversary's move): removes it from the topology,
    /// discards its pending mail (the mail it already sent stays in flight),
    /// and informs its surviving neighbors, whose immediate reactions are
    /// queued for the next round.
    ///
    /// # Panics
    /// Panics if `v` is dead.
    pub fn delete_node(&mut self, v: NodeId) -> RoundStats {
        self.delete_node_impl(v, false)
    }

    /// Deletes `v`, consulting the armed fault plan to decide whether this
    /// deletion is a crash-stop ([`FaultPlan::crash_stop`] of the current
    /// round and victim) or a clean departure. Returns the round's stats
    /// and whether the deletion crashed. Without an armed plan this is
    /// exactly [`Network::delete_node`].
    ///
    /// A crash-stop victim dies so abruptly that its queued outbound mail
    /// is silenced with it — any heal conversation it was mid-sentence in
    /// is cut. Surviving neighbors still receive deletion notices (those
    /// model out-of-band failure detection, not a message from the
    /// victim). The silenced-message count accumulates in
    /// [`Network::crash_silenced`].
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
        // the purge of the victim's mail is one random-access probe; each
        // surviving neighbor's deletion-notice callback is one activation
        self.costs.seeks += 1;
        self.costs.node_visits += neighbors.len() as u64;
        if self.journal_on {
            self.journal.record_deleted(v, &neighbors);
            if crash {
                self.journal.crashed.push(v);
            }
        }
        // Mail addressed to the dead node, queued or parked, is lost with it.
        let before = self.mail.len() + self.delayed.len();
        self.mail.retain(|&(to, _, _)| to != v);
        self.delayed.retain(|&(_, _, to, _)| to != v);
        self.ledger
            .record_dropped((before - self.mail.len() - self.delayed.len()) as u64);
        if crash {
            // Crash-stop: the victim dies mid-sentence — its queued
            // outbound mail is silenced.
            self.crashes += 1;
            let silenced = self.unsend_in_flight_from(v);
            self.crash_silenced += silenced;
            self.fold_fault(&[4, self.round, u64::from(v.0), silenced]);
        }
        let delivered = self.notify(&neighbors, MsgLedger::record_notice, |p, ctx| {
            p.on_neighbor_deleted(v, ctx);
        });
        // hand the (capacity-retaining) neighbor buffer back to the scratch
        neighbors.clear();
        self.nbr_scratch = neighbors;
        self.finish_round(delivered)
    }

    /// Inserts a fresh node wired to `neighbors` (the adversary's insertion
    /// move of the Forgiving Graph model) and returns its ID plus the
    /// round's stats.
    ///
    /// The newcomer always gets a fresh slot — all dense state and the
    /// ledger books grow by one, and IDs are never recycled (pristine-graph
    /// baselines rely on stable IDs). Its process is built by `make` and
    /// started via [`Process::on_start`];
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
        let v = self.graph.add_node();
        debug_assert_eq!(v.index(), self.procs.len());
        self.procs.push(Some(make(v)));
        self.round_load.push(0);
        self.ledger.grow(self.graph.capacity());
        self.live += 1;
        // the newcomer's on_start plus one join-notice callback per anchor
        self.costs.node_visits += 1 + neighbors.len() as u64;
        if self.journal_on {
            self.journal.record_inserted(v, neighbors);
        }
        for &u in neighbors {
            self.graph.add_edge(v, u);
        }
        self.callback(v, |p, ctx| p.on_start(ctx));
        let delivered = self.notify(neighbors, MsgLedger::record_join, |p, ctx| {
            p.on_neighbor_joined(v, ctx);
        });
        let mut stats = self.finish_round(delivered);
        // the arrival edges are part of this round's churn figures
        stats.edges_added += neighbors.len();
        (v, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultConfig, MsgFate};
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

    /// One-shot sender used by the in-flight mail test.
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

    fn one_shot_net() -> Network<OneShot> {
        let g = gen::path(2);
        Network::new(g, |v| OneShot {
            target: (v == NodeId(0)).then_some(NodeId(1)),
            received: 0,
        })
    }

    #[test]
    fn dead_senders_mail_is_delivered_by_default() {
        let mut net = one_shot_net();
        net.start();
        net.delete_node(NodeId(0)); // sender dies with mail in flight
        let (_, _cost) = net.run_until_quiet(4);
        assert_eq!(net.process(NodeId(1)).received, 1, "wire kept the packet");
        assert_eq!(net.ledger().dropped(), 0);
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
        assert_eq!(v, NodeId(3), "a fresh slot is appended");
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

    /// Delivery log shared by every [`Script`] process of one network:
    /// `(to, from, tag)` in delivery order.
    type Log = std::rc::Rc<std::cell::RefCell<Vec<(u32, u32, char)>>>;

    /// Sends `start` on start; on a `'g'` message sends `on_go`. Logs
    /// every delivery.
    #[derive(Debug)]
    struct Script {
        start: Vec<(NodeId, char)>,
        on_go: Vec<(NodeId, char)>,
        log: Log,
    }

    impl Process for Script {
        type Msg = char;
        fn on_start(&mut self, ctx: &mut Ctx<'_, char>) {
            for &(to, tag) in &self.start {
                ctx.send(to, tag);
            }
        }
        fn on_message(&mut self, from: NodeId, tag: char, ctx: &mut Ctx<'_, char>) {
            self.log.borrow_mut().push((ctx.me().0, from.0, tag));
            if tag == 'g' {
                for &(to, t) in &self.on_go {
                    ctx.send(to, t);
                }
            }
        }
    }

    fn script_net(n: usize, mut script: impl FnMut(u32) -> Script) -> Network<Script> {
        Network::new(ft_graph::Graph::new(n), |v| script(v.0))
    }

    #[test]
    fn mailbox_delivers_by_addressee_then_arrival() {
        // Round 0: node 4 sends 'g' to node 0 and 'L' to node 2, the latter
        // delayed one round. Round 1: node 0 interleaves sends to 3, 1 and
        // 2, one of which is duplicated; the delayed 'L' matures in the
        // same round. Round 2 must deliver by ascending addressee, and in
        // arrival order within one: the matured copy first, a duplicate
        // right behind its original.
        let n = NodeId;
        let go = [
            (n(3), 'a'),
            (n(1), 'b'),
            (n(2), 'c'),
            (n(1), 'd'),
            (n(3), 'e'),
            (n(2), 'f'),
        ];
        let cfg = FaultConfig {
            duplication: 0.2,
            delay: 0.2,
            max_delay: 1,
            ..FaultConfig::zero()
        };
        let wanted = |plan: &FaultPlan| {
            plan.fate(0, n(4), n(0), 0) == MsgFate::Deliver
                && plan.fate(0, n(4), n(2), 1) == MsgFate::Delay(1)
                && go.iter().enumerate().all(|(k, &(to, _))| {
                    let want = if k == 3 {
                        MsgFate::Duplicate
                    } else {
                        MsgFate::Deliver
                    };
                    plan.fate(1, n(0), to, k as u64) == want
                })
        };
        let plan = (0..1_000_000u64)
            .map(|seed| cfg.plan(seed))
            .find(wanted)
            .expect("some seed realizes the scripted fates");
        let log = Log::default();
        let mut net = script_net(5, |v| Script {
            start: if v == 4 {
                vec![(n(0), 'g'), (n(2), 'L')]
            } else {
                Vec::new()
            },
            on_go: if v == 0 { go.to_vec() } else { Vec::new() },
            log: log.clone(),
        });
        net.set_fault_plan(Some(plan));
        net.start();
        let (_, _cost) = net.step();
        assert_eq!(*log.borrow(), [(0, 4, 'g')]);
        log.borrow_mut().clear();
        let (stats, cost) = net.step();
        assert_eq!(
            *log.borrow(),
            [
                (1, 0, 'b'),
                (1, 0, 'd'),
                (1, 0, 'd'),
                (2, 4, 'L'),
                (2, 0, 'c'),
                (2, 0, 'f'),
                (3, 0, 'a'),
                (3, 0, 'e'),
            ]
        );
        assert_eq!(stats.messages, 8);
        assert_eq!(cost.seeks, 3, "one probe per addressee with mail");
        assert_eq!(cost.node_visits, 3, "one activation per addressee");
        assert!(!net.has_pending());
        assert_eq!((net.ledger().duplicated(), net.ledger().delayed()), (1, 1));
        net.check_accounting().expect("books balance");
    }

    /// Sends two messages to each neighbor it still has whenever one dies.
    #[derive(Debug)]
    struct Mourner {
        neighbors: Vec<NodeId>,
    }

    impl Process for Mourner {
        type Msg = ();
        fn on_message(&mut self, _: NodeId, _: (), _: &mut Ctx<'_, ()>) {}
        fn on_neighbor_deleted(&mut self, dead: NodeId, ctx: &mut Ctx<'_, ()>) {
            self.neighbors.retain(|&u| u != dead);
            for &u in &self.neighbors {
                ctx.send(u, ());
                ctx.send(u, ());
            }
        }
    }

    #[test]
    fn second_deletion_drops_exactly_the_victims_mail() {
        // 1 is wired to 0, 2 and 3. Deleting 0 makes 1 mail 2 and 3 twice
        // each; deleting 2 before any step drops exactly 2's two messages,
        // and 1's reaction adds two more for 3.
        let g = ft_graph::Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let nbrs: Vec<Vec<NodeId>> = (0..4).map(|v| g.neighbors(NodeId(v)).collect()).collect();
        let mut net = Network::new(g, |v| Mourner {
            neighbors: nbrs[v.index()].clone(),
        });
        net.delete_node(NodeId(0));
        assert_eq!(net.mail.len(), 4);
        let dropped = net.ledger().dropped();
        net.delete_node(NodeId(2));
        assert_eq!(net.ledger().dropped(), dropped + 2, "2's mail, and only it");
        assert_eq!(net.mail.len(), 4);
        assert!(net.mail.iter().all(|(to, _, _)| *to == NodeId(3)));
        net.check_accounting()
            .expect("books balance between deletions");
        let (stats, _cost) = net.step();
        assert_eq!(stats.messages, 4, "3 receives all four");
        assert!(!net.has_pending());
        net.check_accounting().expect("books balance");
    }

    /// Deletes `v` as a crash-stop; returns the deletion's cost.
    fn crash_stop<P: Process>(net: &mut Network<P>, v: NodeId) -> OperationCost {
        net.set_fault_plan(Some(crate::fault_tests::crash_only_plan()));
        let before = net.costs();
        let (_, crashed) = net.delete_node_faulty(v);
        assert!(crashed);
        net.costs() - before
    }

    #[test]
    fn crash_stop_charges_one_seek_per_addressee_left() {
        // node 0 mails 1, 3, 2 and 1 on start and then crash-stops: the
        // purge is one probe and the unsend one per addressee (1, 2, 3);
        // its mail was the only mail queued, so nothing stays pending
        let n = NodeId;
        let log = Log::default();
        let mut net = script_net(4, |v| Script {
            start: if v == 0 {
                vec![(n(1), 'x'), (n(3), 'x'), (n(2), 'x'), (n(1), 'x')]
            } else {
                Vec::new()
            },
            on_go: Vec::new(),
            log: log.clone(),
        });
        net.start();
        assert_eq!(crash_stop(&mut net, n(0)).seeks, 1 + 3);
        assert!(!net.has_pending());
        assert_eq!(net.crash_silenced(), 4);
        let (stats, cost) = net.step();
        assert_eq!((stats.messages, cost.seeks), (0, 0));
        net.check_accounting().expect("books balance");

        // with other mail queued, only the addressees 1 and 2 are probed,
        // and the next round probes 1, the only one that kept mail
        let mut net = script_net(4, |v| Script {
            start: match v {
                0 => vec![(n(1), 'x'), (n(2), 'x')],
                3 => vec![(n(1), 'y')],
                _ => Vec::new(),
            },
            on_go: Vec::new(),
            log: log.clone(),
        });
        net.start();
        assert_eq!(crash_stop(&mut net, n(0)).seeks, 1 + 2);
        let (stats, cost) = net.step();
        assert_eq!((stats.messages, cost.seeks), (1, 1));
        assert_eq!(log.borrow().last(), Some(&(1, 3, 'y')));
        net.check_accounting().expect("books balance");
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
