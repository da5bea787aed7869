//! The round path: every function a synchronous round runs through, from
//! a process callback to the close of the round. None of them may panic on
//! a protocol's input, so this module denies indexing, unwraps and panics
//! once for all of them; a waiver names its reason at the statement.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use super::{bump_load, Ctx, Network, Process, RoundStats};
use crate::faults::MsgFate;
use crate::ledger::MsgLedger;
use ft_costs::CostResult;
use ft_graph::hash::fnv1a;
use ft_graph::NodeId;

impl<P: Process> Network<P> {
    /// Runs `f` on `me`'s process with a [`Ctx`] that stages into this
    /// round's buffers. Returns `false`, running nothing, if `me` is dead.
    pub(super) fn callback(
        &mut self,
        me: NodeId,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>),
    ) -> bool {
        let Some(p) = self.procs.get_mut(me.index()).and_then(Option::as_mut) else {
            return false;
        };
        let mut ctx = Ctx {
            me,
            round: self.round,
            faulty: self.faults.is_some(),
            staged: &mut self.staged,
        };
        f(p, &mut ctx);
        true
    }

    /// Delivers one out-of-band notice to each of `nodes` (booked by
    /// `book`, counted in the round's load, handled by `f`); returns how
    /// many were delivered.
    ///
    /// # Panics
    /// Panics if one of `nodes` is dead.
    pub(super) fn notify(
        &mut self,
        nodes: &[NodeId],
        book: fn(&mut MsgLedger, NodeId),
        mut f: impl FnMut(&mut P, &mut Ctx<'_, P::Msg>),
    ) -> usize {
        for &u in nodes {
            book(&mut self.ledger, u);
            bump_load(&mut self.round_load, &mut self.touched, u);
            let live = self.callback(u, &mut f);
            assert!(live, "notice to dead {u:?}");
        }
        nodes.len()
    }

    /// Delivers all queued messages (one synchronous round), processing
    /// addressees in the canonical ascending-[`NodeId`] order. Returns the
    /// round's stats together with its exact
    /// [`OperationCost`](ft_costs::OperationCost).
    pub fn step(&mut self) -> CostResult<RoundStats> {
        let before = self.costs;
        self.sort_mail();
        let delivered = self.deliver_mail();
        let stats = self.finish_round(delivered);
        (stats, self.costs - before)
    }

    /// The same round as [`Network::step`].
    ///
    /// Ignored; kept only because ftbench's sources are frozen; delete with
    /// the next benchmark PR.
    pub fn step_mt(&mut self) -> CostResult<RoundStats> {
        self.step()
    }

    /// Puts the mailbox in canonical order: ascending addressee, arrival
    /// order within one addressee. The keys `(addressee << 32) | arrival
    /// index` are distinct, so an unstable sort of them is exact; the
    /// mailbox then follows the sorted keys by swapping along each cycle of
    /// the permutation. Both buffers are reused, so nothing is allocated.
    #[expect(
        clippy::indexing_slicing,
        reason = "mail_order holds one key per mail entry, and each key's low half is an index into mail"
    )]
    pub(super) fn sort_mail(&mut self) {
        let (mail, mail_order) = (&mut self.mail, &mut self.mail_order);
        debug_assert!(u32::try_from(mail.len()).is_ok(), "arrival index overflows");
        mail_order.clear();
        mail_order.extend(
            mail.iter()
                .enumerate()
                .map(|(i, (to, _, _))| (u64::from(to.0) << 32) | i as u64),
        );
        mail_order.sort_unstable();
        // mail_order[j]'s low half is the arrival index of the entry that
        // belongs at j. Walk each cycle from its smallest position i: the
        // entry at j is swapped for the one it needs until the cycle closes
        // on i's original entry. A visited position is marked j -> j.
        const LOW: u64 = 0xffff_ffff;
        for i in 0..mail_order.len() {
            let mut j = i;
            loop {
                let src = (mail_order[j] & LOW) as usize;
                mail_order[j] = j as u64;
                if src == i {
                    break;
                }
                mail.swap(j, src);
                j = src;
            }
        }
    }

    /// Delivers the sorted mailbox, one run per addressee, charging one
    /// mailbox probe per run and ledger and load per delivery; returns the
    /// delivery count.
    fn deliver_mail(&mut self) -> usize {
        let mut mail = std::mem::take(&mut self.mail);
        let mut delivered = 0usize;
        let mut run = None;
        for (to, from, msg) in mail.drain(..) {
            let first = run != Some(to);
            run = Some(to);
            self.costs.seeks += u64::from(first);
            if !self.callback(to, |p, ctx| p.on_message(from, msg, ctx)) {
                // Unreachable (deletion purges the victim's mail), but the
                // books must balance even if it ever fires.
                self.ledger.record_dropped(1);
                continue;
            }
            // one live addressee activated (however much mail it has)
            self.costs.node_visits += u64::from(first);
            delivered += 1;
            self.costs.messages_delivered += 1;
            self.ledger.record_delivery(from, to);
            bump_load(&mut self.round_load, &mut self.touched, from);
            bump_load(&mut self.round_load, &mut self.touched, to);
        }
        // hand the (capacity-retaining) buffer back; the round's sends
        // went to the outbox, not here
        self.mail = mail;
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

    /// Closes a round: routes the outbox into next round's mailbox, applies
    /// edge changes (drops of pre-existing edges first, then adds), folds
    /// the per-round load into the stats, and advances the clock.
    pub(super) fn finish_round(&mut self, delivered: usize) -> RoundStats {
        let mut stats = RoundStats {
            messages: delivered,
            ..RoundStats::default()
        };
        // Charge the round's canonical quantities before the buffers drain.
        // These are the same figures the ledger and stats books see.
        let staged = &self.staged;
        self.costs.messages_sent += staged.outbox.len() as u64;
        self.costs.heap_bytes +=
            (staged.outbox.len() * std::mem::size_of::<(NodeId, NodeId, P::Msg)>()) as u64;
        self.costs.edge_scans += (staged.edge_drops.len() + staged.edge_adds.len()) as u64;
        // Mature the fault plan's delay queue first: postponed mail whose
        // due round is next re-enters the mailbox *ahead* of this round's
        // fresh sends (it is older traffic); liveness is judged now, as
        // the addressee may have died while the mail was parked.
        if !self.delayed.is_empty() {
            let next = self.round + 1;
            let scratch = std::mem::take(&mut self.delayed_scratch);
            let mut queue = std::mem::replace(&mut self.delayed, scratch);
            for (due, from, to, msg) in queue.drain(..) {
                if due > next {
                    self.delayed.push((due, from, to, msg));
                } else {
                    self.route(from, to, msg);
                }
            }
            self.delayed_scratch = queue;
        }
        // Fates are pure functions of (plan seed, round, endpoints,
        // canonical send position k), so the realized schedule replays
        // from the seed; without a plan every message is delivered.
        let round = self.round;
        let mut outbox = std::mem::take(&mut self.staged.outbox);
        for (k, (from, to, msg)) in outbox.drain(..).enumerate() {
            self.ledger.record_sent();
            let k = k as u64;
            let fate = self
                .faults
                .as_ref()
                .map_or(MsgFate::Deliver, |plan| plan.fate(round, from, to, k));
            let pair = (u64::from(from.0) << 32) | u64::from(to.0);
            match fate {
                MsgFate::Deliver => self.route(from, to, msg),
                MsgFate::Lose => {
                    // destroyed on the wire, endpoints fine
                    self.ledger.record_lost(1);
                    self.fold_fault(&[1, round, pair, k]);
                }
                MsgFate::Duplicate => {
                    self.ledger.record_duplicated(1);
                    self.fold_fault(&[2, round, pair, k]);
                    self.route(from, to, msg.clone());
                    self.route(from, to, msg);
                }
                MsgFate::Delay(extra) => {
                    self.ledger.record_delayed(1);
                    self.fold_fault(&[3, round, pair, k, u64::from(extra)]);
                    // parked until due; liveness is re-judged at maturity
                    // (the addressee may die while the mail is parked)
                    self.delayed
                        .push((round + 1 + u64::from(extra), from, to, msg));
                }
            }
        }
        self.staged.outbox = outbox;
        // Drops first: a drop can only remove a pre-existing edge, so an
        // add requested in the same round always wins.
        for (a, b) in self.staged.edge_drops.drain(..) {
            if self.graph.remove_edge(a, b) {
                stats.edges_removed += 1;
                if self.journal_on {
                    self.journal.edges_removed.push((a, b));
                }
            }
        }
        let graph = &mut self.graph;
        for (a, b) in self.staged.edge_adds.drain(..) {
            if a != b && graph.is_alive(a) && graph.is_alive(b) && !graph.has_edge(a, b) {
                graph.add_edge(a, b);
                stats.edges_added += 1;
                if self.journal_on {
                    self.journal.edges_added.push((a, b));
                }
            }
        }
        let mut max = 0u32;
        #[expect(
            clippy::indexing_slicing,
            reason = "touched only lists ids bump_load already indexed into this same slice"
        )]
        for &v in &self.touched {
            max = max.max(self.round_load[v.index()]);
            self.round_load[v.index()] = 0;
        }
        self.touched.clear();
        stats.max_per_node = max as usize;
        self.round += 1;
        stats
    }

    /// Queues `msg` from `from` for delivery to `to` next round, or books
    /// it as dropped if `to` is dead.
    fn route(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        if self.procs.get(to.index()).is_some_and(Option::is_some) {
            self.mail.push((to, from, msg));
        } else {
            self.ledger.record_dropped(1);
        }
    }

    /// Folds one realized fault into the FNV-1a fingerprint, byte by byte:
    /// its kind (1 lose, 2 duplicate, 3 delay, 4 crash-stop), then the
    /// words that identify it.
    pub(super) fn fold_fault(&mut self, words: &[u64]) {
        self.fault_fp = fnv1a(self.fault_fp, words.iter().flat_map(|w| w.to_le_bytes()));
    }
}
