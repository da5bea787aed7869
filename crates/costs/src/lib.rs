//! # ft-costs — deterministic operation-cost accounting
//!
//! Wall-clock timing is the weakest regression signal this repository has:
//! it is noisy on shared runners and useless on the single-core CI box. The
//! engine's *operation counts*, by contrast, are exact and replay from the
//! seed on any machine. This crate provides the [`OperationCost`]
//! vector those counts accumulate into, in the style of grovedb's
//! `OperationCost`/`CostContext` discipline: every engine operation returns
//! its result *with* its cost ([`CostResult`]), and harnesses diff whole
//! campaigns' counters against committed baselines (`BENCH_costs.json`)
//! instead of trusting timers.
//!
//! The fields map onto the complexity measures of the source papers (the
//! Forgiving Tree's Theorem 1.3 message bounds and the Forgiving Graph's
//! per-repair message/degree/stretch bounds, arXiv:0902.2501; see
//! `docs/ARCHITECTURE.md` § "Cost model" for the field-by-field mapping):
//!
//! - [`messages_sent`](OperationCost::messages_sent) /
//!   [`messages_delivered`](OperationCost::messages_delivered) — the papers'
//!   *message complexity*, charged from the same canonical quantities as the
//!   `MsgLedger`, so `cost.messages_delivered == ledger.delivered()` is an
//!   enforced identity;
//! - [`node_visits`](OperationCost::node_visits) — processor activations
//!   (protocol callbacks, BFS settles): the *work* term;
//! - [`edge_scans`](OperationCost::edge_scans) — adjacency examinations and
//!   topology-change requests: the *repair locality* term;
//! - [`heap_bytes`](OperationCost::heap_bytes) — bytes of payload staged for
//!   delivery (a model cost computed from counts and type sizes, **not**
//!   allocator telemetry — it must stay identical across platforms);
//! - [`seeks`](OperationCost::seeks) — random-access probes (mailbox
//!   probes, priority-queue pops): the *memory-system* term.
//!
//! All arithmetic saturates: a cost can never wrap and panic a campaign —
//! at worst a saturated counter pins at `u64::MAX`, which a baseline diff
//! still catches.
//!
//! # Example
//!
//! ```
//! use ft_costs::{CostResult, OperationCost};
//!
//! fn deliver_two() -> CostResult<&'static str> {
//!     let mut cost = OperationCost::default();
//!     cost.messages_delivered += 2;
//!     cost.node_visits += 1;
//!     ("ok", cost)
//! }
//!
//! let (value, cost) = deliver_two();
//! assert_eq!(value, "ok");
//! assert_eq!(cost.messages_delivered, 2);
//!
//! let mut total = OperationCost::default();
//! total += cost; // saturating fold
//! assert_eq!(total.node_visits, 1);
//! ```

#![deny(clippy::as_conversions)]

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// The cost vector one engine operation (or a whole campaign) accumulated.
///
/// Every field is a monotone counter; composition is element-wise
/// saturating addition ([`AddAssign`]). Deltas between two snapshots of a
/// cumulative counter come from the saturating [`Sub`] impl.
///
/// The type is `#[must_use]`, so a discarded [`CostResult`] is a compile
/// warning ("unused `OperationCost` in tuple element 1") and `let _ = …`
/// of one is denied by `clippy::let_underscore_must_use`. A caller that
/// means to drop a cost names it: `let (stats, _cost) = net.step();`.
#[must_use = "an engine operation's cost must be charged or explicitly named and dropped"]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperationCost {
    /// Protocol messages handed to the engine (outbox routed at end of
    /// round, delivered or not). Identity: equals the ledger's `sent` book.
    pub messages_sent: u64,
    /// Protocol messages delivered to live processes. Identity: equals the
    /// ledger's `delivered` book (deletion/join notices are *not* counted
    /// here — they are out-of-band environment signals, charged to
    /// [`node_visits`](Self::node_visits) instead).
    pub messages_delivered: u64,
    /// Processor activations: protocol callbacks run (`on_start`,
    /// `on_message` addressees, deletion/join notices) and, in measurement
    /// passes, BFS/Dijkstra node settles.
    pub node_visits: u64,
    /// Adjacency examinations: edge change requests processed by the
    /// engine, and edges scanned by measurement traversals.
    pub edge_scans: u64,
    /// Bytes of message payload staged for delivery — a *model* cost
    /// (count × type size), not allocator telemetry, so it is identical
    /// across platforms.
    pub heap_bytes: u64,
    /// Random-access probes. The round engine charges one per addressee
    /// run it delivers, 1 per deletion (the purge of the victim's mail)
    /// and, at a crash-stop, one per distinct addressee in the mailbox it
    /// unsends from; measurement passes charge priority-queue pops.
    pub seeks: u64,
}

/// A value returned together with the [`OperationCost`] of producing it —
/// the grovedb-style result type every costed engine entry point returns.
pub type CostResult<T> = (T, OperationCost);

/// Widens a `usize` count into a cost counter without an `as` cast.
///
/// `usize` is at most 64 bits on every target Rust supports, so the
/// conversion is lossless; the fallback arm is unreachable but keeps the
/// function total and *saturating* rather than panicking, matching the
/// crate's arithmetic discipline. Charging sites in modules that deny
/// `clippy::as_conversions` use this instead of `as u64`.
pub fn count(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

impl OperationCost {
    /// The zero cost.
    pub const ZERO: OperationCost = OperationCost {
        messages_sent: 0,
        messages_delivered: 0,
        node_visits: 0,
        edge_scans: 0,
        heap_bytes: 0,
        seeks: 0,
    };

    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    /// Element-wise saturating addition (the composition law).
    pub fn saturating_add(self, rhs: OperationCost) -> OperationCost {
        OperationCost {
            messages_sent: self.messages_sent.saturating_add(rhs.messages_sent),
            messages_delivered: self
                .messages_delivered
                .saturating_add(rhs.messages_delivered),
            node_visits: self.node_visits.saturating_add(rhs.node_visits),
            edge_scans: self.edge_scans.saturating_add(rhs.edge_scans),
            heap_bytes: self.heap_bytes.saturating_add(rhs.heap_bytes),
            seeks: self.seeks.saturating_add(rhs.seeks),
        }
    }

    /// Element-wise saturating subtraction. For snapshots of a monotone
    /// cumulative counter (`after - before`) the result is the exact delta.
    pub fn saturating_sub(self, rhs: OperationCost) -> OperationCost {
        OperationCost {
            messages_sent: self.messages_sent.saturating_sub(rhs.messages_sent),
            messages_delivered: self
                .messages_delivered
                .saturating_sub(rhs.messages_delivered),
            node_visits: self.node_visits.saturating_sub(rhs.node_visits),
            edge_scans: self.edge_scans.saturating_sub(rhs.edge_scans),
            heap_bytes: self.heap_bytes.saturating_sub(rhs.heap_bytes),
            seeks: self.seeks.saturating_sub(rhs.seeks),
        }
    }

    /// Wraps a value into a [`CostResult`] carrying this cost.
    pub fn wrap<T>(self, value: T) -> CostResult<T> {
        (value, self)
    }
}

impl AddAssign for OperationCost {
    /// Saturating element-wise `+=` — the fold every accumulator uses.
    fn add_assign(&mut self, rhs: OperationCost) {
        *self = self.saturating_add(rhs);
    }
}

impl Add for OperationCost {
    type Output = OperationCost;

    fn add(self, rhs: OperationCost) -> OperationCost {
        self.saturating_add(rhs)
    }
}

impl Sub for OperationCost {
    type Output = OperationCost;

    /// Saturating element-wise difference (exact for monotone snapshots).
    fn sub(self, rhs: OperationCost) -> OperationCost {
        self.saturating_sub(rhs)
    }
}

impl Sum for OperationCost {
    fn sum<I: Iterator<Item = OperationCost>>(iter: I) -> OperationCost {
        iter.fold(OperationCost::default(), |acc, c| acc + c)
    }
}

impl fmt::Display for OperationCost {
    /// Compact single-line rendering for CLI summaries and logs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sent {} | delivered {} | visits {} | edge scans {} | heap {} B | seeks {}",
            self.messages_sent,
            self.messages_delivered,
            self.node_visits,
            self.edge_scans,
            self.heap_bytes,
            self.seeks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(k: u64) -> OperationCost {
        OperationCost {
            messages_sent: k,
            messages_delivered: 2 * k,
            node_visits: 3 * k,
            edge_scans: 4 * k,
            heap_bytes: 5 * k,
            seeks: 6 * k,
        }
    }

    #[test]
    fn zero_is_the_identity() {
        let c = sample(7);
        assert_eq!(c + OperationCost::ZERO, c);
        assert_eq!(OperationCost::ZERO + c, c);
        assert!(OperationCost::default().is_zero());
        assert!(!c.is_zero());
    }

    #[test]
    fn add_assign_accumulates_element_wise() {
        let mut acc = OperationCost::default();
        acc += sample(1);
        acc += sample(2);
        assert_eq!(acc, sample(3));
    }

    #[test]
    fn addition_saturates_instead_of_wrapping() {
        let mut near_max = OperationCost {
            messages_sent: u64::MAX - 1,
            ..OperationCost::default()
        };
        near_max += sample(5);
        assert_eq!(near_max.messages_sent, u64::MAX, "pinned, not wrapped");
        assert_eq!(near_max.messages_delivered, 10, "other fields unaffected");
    }

    #[test]
    fn snapshot_difference_is_the_exact_delta() {
        let before = sample(10);
        let after = sample(17);
        assert_eq!(after - before, sample(7));
        // non-monotone misuse saturates to zero instead of wrapping
        assert_eq!(before - after, OperationCost::ZERO);
    }

    #[test]
    fn sum_folds_an_iterator() {
        let total: OperationCost = (1..=4u64).map(sample).sum();
        assert_eq!(total, sample(10));
    }

    #[test]
    fn wrap_builds_a_cost_result() {
        let (value, cost): CostResult<u32> = sample(2).wrap(41);
        assert_eq!(value, 41);
        assert_eq!(cost.seeks, 12);
    }

    #[test]
    fn display_is_single_line() {
        let s = sample(1).to_string();
        assert!(s.contains("delivered 2"));
        assert!(!s.contains('\n'));
    }
}
