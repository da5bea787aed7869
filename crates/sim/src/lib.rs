//! # ft-sim — synchronous message-passing network simulator
//!
//! Implements the paper's distributed model (Model 2.1): each node is a
//! processor knowing only its own state; per time step the adversary may
//! delete one node, neighbors of the deleted node are informed, and then the
//! processors exchange messages and add/drop edges in synchronous rounds
//! until the recovery phase quiesces.
//!
//! # The dense engine
//!
//! [`Network`] keeps all node-indexed state — process slots, per-round
//! load counters, the per-node message books — in contiguous `Vec`s
//! indexed by [`ft_graph::NodeId`] (arena-style: deletion leaves a `None`
//! slot). The mail in flight is not node-indexed: it sits in one round
//! mailbox that [`Network::step`] sorts by addressee, so its size follows
//! the O(Δ) messages in flight, not the node count. Mailbox, outbox, and
//! scratch buffers are reused between rounds, so the steady-state round
//! loop allocates nothing and adversarial campaigns scale to 10⁶ nodes.
//!
//! # Round & ledger semantics
//!
//! - Messages sent in round `r` are delivered at the start of round `r+1`.
//! - Edge changes requested in round `r` apply at the end of round `r`,
//!   **drops of pre-existing edges first, then adds** — a same-round
//!   add+drop of one edge deterministically nets to "present".
//! - Every count — per-round [`RoundStats`], totals, per-node books —
//!   derives from one [`MsgLedger`] charged at delivery time (deletion
//!   notices included), enforcing `sent = delivered + dropped + in-flight`
//!   and `sum(per-node) = 2·total − notices − joins`; audit any network
//!   with [`Network::check_accounting`], or read its checked [`Books`].
//!
//! # In-flight mail
//!
//! Mail addressed *to* a dead node is always dropped (and accounted). Mail a
//! node sent *before being deleted* stays on the wire and is delivered (the
//! model's neighbours are told of the deletion; packets already sent are
//! not recalled). Only a crash-stop (a deletion the armed fault plan
//! escalates, see [`Network::delete_node_faulty`]) silences the victim's
//! unreceived mail too.
//!
//! # Node arrivals
//!
//! The Forgiving Graph model also lets the adversary *insert* nodes:
//! [`Network::insert_node`] appends a fresh slot (IDs are never recycled),
//! wires the newcomer to its chosen neighbors,
//! starts its process and delivers join notices
//! ([`Process::on_neighbor_joined`]) charged to the ledger's joins book.
//!
//! # Campaigns
//!
//! [`Campaign`] drives batched adversarial waves — deletion-only
//! ([`Campaign::run_wave`]) or mixed insert/delete churn
//! ([`Campaign::run_churn_wave`]) — with interleaved heals
//! ([`HealCadence::PerDeletion`] or [`HealCadence::PerWave`]) and
//! accumulates a ledger-backed [`CampaignReport`] — the engine under
//! `ftree stress` and the `BENCH_sim.json` / `BENCH_graph.json` perf
//! records.
//!
//! # Determinism
//!
//! Delivery order is canonical (ascending [`ft_graph::NodeId`] per round)
//! and one thread runs every round, so a campaign is a pure function of
//! its inputs and seeds: replaying a seed reproduces the same
//! [`MsgLedger`] books, the same [`RoundStats`] and the same final graph.

//! # Fault injection
//!
//! [`faults`] opens the asynchrony/fault axis behind the same replay
//! contract: a [`FaultPlan`] (pure function of seed + message identity, no
//! RNG state) armed via [`Network::set_fault_plan`] decides per-message
//! loss, duplication, and delay, partition windows, and whether a deletion
//! is a crash-stop ([`Network::delete_node_faulty`]). The ledger grows
//! `lost`/`duplicated`/`delayed` books (conservation becomes
//! `sent + duplicated = delivered + dropped + lost + in-flight`), and the
//! realized schedule is FNV-fingerprinted
//! ([`Network::fault_fingerprint`]) so seeded regressions can pin it.
//!
//! [`bfs`] contains the one-time setup protocol: a distributed BFS spanning
//! tree construction with latency equal to the root's eccentricity (the
//! stand-in for Cohen's algorithm cited by the paper).

pub mod bfs;
pub mod campaign;
pub mod faults;
pub mod ledger;
pub mod network;

pub use campaign::{Campaign, CampaignConfig, CampaignReport, HealCadence, WaveStats};
pub use faults::{FaultConfig, FaultPlan, MsgFate};
pub use ft_costs::{CostResult, OperationCost};
pub use ledger::MsgLedger;
pub use network::{Books, ChurnJournal, Ctx, Network, Process, RoundStats};

#[cfg(test)]
mod accounting_tests;
#[cfg(test)]
mod fault_tests;
