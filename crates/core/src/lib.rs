//! # ft-core — The Forgiving Tree
//!
//! A faithful Rust implementation of *"The Forgiving Tree: A Self-Healing
//! Distributed Data Structure"* (Hayes, Rustagi, Saia, Trehan; PODC 2008).
//!
//! The data structure maintains a network (initially a rooted spanning tree)
//! under repeated adversarial node deletions. After each deletion the
//! neighbors of the dead node add O(1) edges according to a pre-distributed
//! *will*, guaranteeing forever that
//!
//! 1. no node's degree grows by more than **3** (Theorem 1.1),
//! 2. the diameter stays **O(D·log Δ)** (Theorem 1.2), and
//! 3. each heal costs **O(1)** latency and O(1) messages per node
//!    (Theorem 1.3).
//!
//! Two engines are provided:
//!
//! - [`distributed::DistributedForgivingTree`]: per-node processors
//!   exchanging real messages over the `ft-sim` synchronous network. The
//!   healers, the adversary and the claims table run it, and every heal's
//!   [`WaveStats`] is read from its message ledger;
//! - [`spec::ForgivingTree`]: the exact virtual-tree semantics in one data
//!   structure, with a full invariant audit. It is the test oracle the
//!   differential suites check the protocol against after every deletion.
//!
//! # Quickstart
//!
//! ```
//! use ft_core::distributed::DistributedForgivingTree;
//! use ft_graph::{gen, tree::RootedTree, NodeId};
//!
//! // a complete 4-ary tree of 85 nodes
//! let g = gen::kary_tree(85, 4);
//! let t = RootedTree::from_tree_graph(&g, NodeId(0));
//! let mut ft = DistributedForgivingTree::new(&t);
//!
//! // the adversary deletes the root, then an internal node: each deletion
//! // is a one-event wave, healed to quiescence
//! ft.delete(NodeId(0));
//! let heal = ft.delete(NodeId(1));
//!
//! assert!(ft.graph().is_connected());
//! assert!(ft.graph().max_degree_increase_over(&g) <= 3);
//! assert!(heal.rounds <= 8 && heal.max_per_node <= 40);
//! ```
//!
//! The successor paper's structure — *The Forgiving Graph*, healing
//! interleaved insertions and deletions on general graphs with O(log n)
//! degree increase and stretch — lives in [`fgraph_dist`] (the
//! message-level [`DistributedForgivingGraph`]) and [`fgraph`] (the
//! [`fgraph::haft_edges`] reconstruction tree and the centralized
//! [`fgraph::LocalHealer`], whose [`fgraph::LocalRule::Haft`] is the
//! protocol's test oracle and whose other rules are the naive heals the
//! Forgiving Tree paper contrasts). The bounds both test suites enforce
//! are [`ft_diameter_bound`], [`fg_degree_bound`] and [`fg_stretch_bound`].

mod bounds;
pub mod distributed;
pub mod fgraph;
pub mod fgraph_dist;
mod invariants;
pub mod shape;
mod sorted;
pub mod spec;
mod varena;

pub use bounds::{fg_degree_bound, fg_stretch_bound, ft_diameter_bound};
pub use fgraph_dist::DistributedForgivingGraph;

use ft_sim::{Campaign, CampaignConfig, WaveStats};

/// Runs one adversarial event as a wave of its own through a fresh
/// [`PerDeletion`](ft_sim::HealCadence::PerDeletion) campaign whose heal
/// gets `budget` rounds: the engines' `delete` and `insert`.
///
/// # Panics
/// Panics if the heal does not quiesce within `budget` rounds.
fn one_event_wave(budget: u32, wave: impl FnOnce(&mut Campaign) -> WaveStats) -> WaveStats {
    let mut campaign = Campaign::new(CampaignConfig {
        max_rounds_per_heal: budget,
        ..CampaignConfig::default()
    });
    let ws = wave(&mut campaign);
    assert!(
        ws.converged,
        "protocol did not quiesce within {budget} rounds"
    );
    ws
}

#[cfg(test)]
mod distributed_tests;
#[cfg(test)]
mod spec_tests;
