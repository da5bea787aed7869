//! The message ledger — the engine's single source of accounting truth.
//!
//! Theorem 1.3 claims O(1) messages per node per deletion, so the
//! simulator's message counts *are* the experimental evidence and must
//! reconcile. Earlier engines kept two independent books (per-node counts
//! charged at send time from the outbox, totals charged at delivery, and
//! deletion notices present in only one of them), which could not balance
//! once mail was dropped on dead addressees. [`MsgLedger`] replaces both:
//! every statistic the engine reports derives from this one ledger.
//!
//! The books:
//!
//! - **sent** — protocol messages handed to the engine at the end of their
//!   sending round, including mail that is later dropped;
//! - **delivered** — protocol messages actually handed to a live process;
//! - **dropped** — mail that never arrived because of an *endpoint death*:
//!   addressee dead at send time, addressee killed while the mail was in
//!   flight, or — on a crash-stop — sender killed;
//! - **lost** — mail a [`FaultPlan`](crate::FaultPlan) destroyed on the
//!   wire (message loss and partition cuts): both endpoints were fine, the
//!   network was not;
//! - **duplicated** — extra copies a fault plan injected (each delivered
//!   copy charges the per-node books as a normal delivery; this book
//!   counts only the surplus the plan created);
//! - **delayed** — fault-plan delay events, observability only: a delayed
//!   message stays in flight and is eventually delivered or dropped like
//!   any other, so this book sits outside the conservation identity;
//! - **notices** — deletion notices (the model's failure detection),
//!   delivered out-of-band by the environment, so they appear in the
//!   delivery-side books but never in `sent`;
//! - **joins** — join notices: when the adversary inserts a node
//!   ([`Network::insert_node`](crate::Network::insert_node)), each chosen
//!   neighbor is informed out-of-band, mirroring deletion notices.
//!
//! Per-node charges happen **at delivery**: a delivered message charges its
//! sender once and its receiver once; a deletion or join notice charges only
//! the live receiver (the other endpoint is dead resp. not yet wired up).
//!
//! A node ID is never recycled (an inserted node always gets a fresh
//! slot), so each slot's per-node books belong to exactly one node. Two
//! identities hold at all times and are enforced by [`MsgLedger::check`]:
//!
//! ```text
//! sent + duplicated == delivered + dropped + lost + in-flight
//!                                                    (conservation)
//! sum_per_node      == 2·delivered + notices + joins
//!                   == 2·total_messages − notices − joins
//!                                                   (reconciliation)
//! ```
//!
//! In-flight counts both next-round inboxes *and* the engine's delay
//! queue. On a fault-free run `duplicated` and `lost` are zero and the
//! conservation identity reduces to the original
//! `sent == delivered + dropped + in-flight`.
//!
//! # Example
//!
//! ```
//! use ft_sim::MsgLedger;
//!
//! let ledger = MsgLedger::new(8);
//! assert_eq!(ledger.total_messages(), 0);
//! ledger.check(0).expect("an empty ledger balances");
//! ```

#![deny(clippy::as_conversions)]

use ft_graph::NodeId;

/// Dense, allocation-free message accounting for one [`crate::Network`].
///
/// Per-node books are contiguous `Vec`s indexed by [`NodeId`], sized once at
/// construction from the graph capacity; nothing is allocated per round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MsgLedger {
    sent: u64,
    delivered: u64,
    dropped: u64,
    lost: u64,
    duplicated: u64,
    delayed: u64,
    notices: u64,
    joins: u64,
    /// Delivered messages charged to their sender, indexed by node.
    per_sent: Vec<u64>,
    /// Deliveries plus notices charged to their receiver, indexed by node.
    per_recv: Vec<u64>,
}

impl MsgLedger {
    /// An empty ledger with per-node books for IDs `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        MsgLedger {
            sent: 0,
            delivered: 0,
            dropped: 0,
            lost: 0,
            duplicated: 0,
            delayed: 0,
            notices: 0,
            joins: 0,
            per_sent: vec![0; capacity],
            per_recv: vec![0; capacity],
        }
    }

    /// Extends the per-node books to cover IDs `0..capacity` (node
    /// insertion).
    pub(crate) fn grow(&mut self, capacity: usize) {
        if capacity > self.per_sent.len() {
            self.per_sent.resize(capacity, 0);
            self.per_recv.resize(capacity, 0);
        }
    }

    /// A message entered the engine (outbox routed at end of round).
    pub(crate) fn record_sent(&mut self) {
        self.sent += 1;
    }

    /// `n` messages were dropped instead of delivered (endpoint death).
    pub(crate) fn record_dropped(&mut self, n: u64) {
        self.dropped += n;
    }

    /// `n` messages were destroyed on the wire by the fault plan (loss or
    /// partition cut).
    pub(crate) fn record_lost(&mut self, n: u64) {
        self.lost += n;
    }

    /// The fault plan injected `n` extra message copies.
    pub(crate) fn record_duplicated(&mut self, n: u64) {
        self.duplicated += n;
    }

    /// The fault plan postponed `n` messages (observability only; a
    /// delayed message stays in flight until delivered or dropped).
    pub(crate) fn record_delayed(&mut self, n: u64) {
        self.delayed += n;
    }

    /// A message from `from` was delivered to the live process `to`.
    pub(crate) fn record_delivery(&mut self, from: NodeId, to: NodeId) {
        self.delivered += 1;
        self.per_sent[from.index()] += 1;
        self.per_recv[to.index()] += 1;
    }

    /// A deletion notice was delivered to the surviving neighbor `to`.
    pub(crate) fn record_notice(&mut self, to: NodeId) {
        self.notices += 1;
        self.per_recv[to.index()] += 1;
    }

    /// A join notice was delivered to `to`, a chosen neighbor of a freshly
    /// inserted node.
    pub(crate) fn record_join(&mut self, to: NodeId) {
        self.joins += 1;
        self.per_recv[to.index()] += 1;
    }

    /// Protocol messages handed to the engine (delivered or not).
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Protocol messages delivered to live processes (notices excluded).
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Messages dropped on dead endpoints.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages the fault plan destroyed on the wire (loss + partitions).
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Extra message copies the fault plan injected.
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Messages the fault plan postponed (each eventually delivered or
    /// dropped; never double-counted in conservation).
    pub fn delayed(&self) -> u64 {
        self.delayed
    }

    /// Deletion notices delivered.
    pub fn notices(&self) -> u64 {
        self.notices
    }

    /// Join notices delivered (node insertions).
    pub fn joins(&self) -> u64 {
        self.joins
    }

    /// Everything the wires carried: deliveries plus deletion and join
    /// notices.
    pub fn total_messages(&self) -> u64 {
        self.delivered + self.notices + self.joins
    }

    /// Delivered messages `v` sent (delivery-side charge).
    pub fn per_node_sent(&self, v: NodeId) -> u64 {
        self.per_sent.get(v.index()).copied().unwrap_or(0)
    }

    /// Messages (and notices) delivered to `v`.
    pub fn per_node_received(&self, v: NodeId) -> u64 {
        self.per_recv.get(v.index()).copied().unwrap_or(0)
    }

    /// Total messages charged to `v`: sent-and-delivered plus received.
    pub fn per_node(&self, v: NodeId) -> u64 {
        self.per_node_sent(v) + self.per_node_received(v)
    }

    /// Sum of [`per_node`](Self::per_node) over all nodes.
    pub fn sum_per_node(&self) -> u64 {
        self.per_sent.iter().sum::<u64>() + self.per_recv.iter().sum::<u64>()
    }

    /// Largest per-node charge any single node accumulated (0 when
    /// empty).
    pub fn max_per_node(&self) -> u64 {
        (0..self.per_sent.len())
            .map(|i| self.per_sent[i] + self.per_recv[i])
            .max()
            .unwrap_or(0)
    }

    /// Verifies both ledger identities given the engine's current count of
    /// queued (in-flight) messages. Returns a description of the first
    /// imbalance found.
    pub fn check(&self, in_flight: u64) -> Result<(), String> {
        if self.sent + self.duplicated != self.delivered + self.dropped + self.lost + in_flight {
            return Err(format!(
                "conservation broken: sent {} + duplicated {} != \
                 delivered {} + dropped {} + lost {} + in-flight {}",
                self.sent, self.duplicated, self.delivered, self.dropped, self.lost, in_flight
            ));
        }
        let sum = self.sum_per_node();
        if sum != 2 * self.delivered + self.notices + self.joins {
            return Err(format!(
                "reconciliation broken: sum per-node {} != \
                 2·delivered {} + notices {} + joins {}",
                sum, self.delivered, self.notices, self.joins
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    const BOOKS: [&str; 8] = [
        "sent",
        "delivered",
        "dropped",
        "lost",
        "duplicated",
        "delayed",
        "notices",
        "joins",
    ];

    /// The fate books, in [`BOOKS`] order.
    fn books(l: &MsgLedger) -> [u64; 8] {
        [
            l.sent(),
            l.delivered(),
            l.dropped(),
            l.lost(),
            l.duplicated(),
            l.delayed(),
            l.notices(),
            l.joins(),
        ]
    }

    /// Each `record_*` method is one whole fate transition: it moves
    /// exactly one book, by exactly the count it was given, and leaves
    /// both identities holding for the in-flight count that fate implies.
    #[test]
    fn each_record_method_moves_exactly_one_book() {
        const N: u64 = 3;
        type Record = fn(&mut MsgLedger);
        // (method, the book it moves, in-flight after the call). Every
        // case starts from N sent messages still in flight.
        let cases: [(&str, Record, &str, u64); 8] = [
            (
                "record_sent",
                |l| (0..N).for_each(|_| l.record_sent()),
                "sent",
                2 * N,
            ),
            (
                "record_delivery",
                |l| (0..N).for_each(|_| l.record_delivery(n(0), n(1))),
                "delivered",
                0,
            ),
            ("record_dropped", |l| l.record_dropped(N), "dropped", 0),
            ("record_lost", |l| l.record_lost(N), "lost", 0),
            (
                "record_duplicated",
                |l| l.record_duplicated(N),
                "duplicated",
                2 * N,
            ),
            ("record_delayed", |l| l.record_delayed(N), "delayed", N),
            (
                "record_notice",
                |l| (0..N).for_each(|_| l.record_notice(n(2))),
                "notices",
                N,
            ),
            (
                "record_join",
                |l| (0..N).for_each(|_| l.record_join(n(3))),
                "joins",
                N,
            ),
        ];
        for (method, record, moved, in_flight) in cases {
            let mut l = MsgLedger::new(4);
            (0..N).for_each(|_| l.record_sent());
            let before = books(&l);
            record(&mut l);
            for ((book, was), now) in BOOKS.iter().zip(before).zip(books(&l)) {
                let want = if *book == moved { was + N } else { was };
                assert_eq!(now, want, "{method} moved the {book} book");
            }
            if let Err(e) = l.check(in_flight) {
                panic!("{method}: {e}");
            }
        }
    }

    #[test]
    fn books_balance_through_a_lifecycle() {
        let mut l = MsgLedger::new(3);
        l.record_sent();
        l.record_sent();
        l.record_sent();
        assert!(l.check(3).is_ok(), "all three in flight");
        l.record_delivery(n(0), n(1));
        l.record_delivery(n(0), n(2));
        l.record_dropped(1);
        l.record_notice(n(1));
        l.check(0).expect("books balance");
        assert_eq!(l.total_messages(), 3);
        assert_eq!(l.per_node(n(0)), 2, "two delivered sends");
        assert_eq!(l.per_node(n(1)), 2, "one delivery + one notice");
        assert_eq!(l.sum_per_node(), 2 * l.total_messages() - l.notices());
    }

    #[test]
    fn joins_reconcile_like_notices() {
        let mut l = MsgLedger::new(2);
        l.record_join(n(0));
        l.record_join(n(1));
        l.check(0).expect("join-only books balance");
        assert_eq!(l.joins(), 2);
        assert_eq!(l.total_messages(), 2);
        assert_eq!(l.sum_per_node(), 2);
        l.grow(5);
        l.record_sent();
        l.record_delivery(n(1), n(4));
        l.check(0).expect("post-growth books balance");
        assert_eq!(l.per_node(n(4)), 1, "grown slot is on the books");
    }

    #[test]
    fn fault_books_extend_conservation() {
        let mut l = MsgLedger::new(4);
        // four sends: one delivered, one lost on the wire, one duplicated
        // (both copies delivered), one delayed then delivered
        for _ in 0..4 {
            l.record_sent();
        }
        l.record_delivery(n(0), n(1));
        l.record_lost(1);
        l.record_duplicated(1);
        l.record_delivery(n(1), n(2));
        l.record_delivery(n(1), n(2));
        l.record_delayed(1);
        assert!(l.check(1).is_ok(), "delayed message still in flight");
        l.record_delivery(n(2), n(3));
        l.check(0).expect("fault books balance");
        assert_eq!((l.lost(), l.duplicated(), l.delayed()), (1, 1, 1));
        // the error message names the new books when conservation breaks
        l.record_lost(5);
        let err = l.check(0).unwrap_err();
        assert!(err.contains("lost 6"), "{err}");
    }

    #[test]
    fn check_reports_conservation_breaks() {
        let mut l = MsgLedger::new(1);
        l.record_sent();
        let err = l.check(0).unwrap_err();
        assert!(err.contains("conservation"), "{err}");
    }
}
