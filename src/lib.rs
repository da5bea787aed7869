//! # forgiving-tree
//!
//! A production-quality Rust reproduction of
//! *"The Forgiving Tree: A Self-Healing Distributed Data Structure"*
//! (Hayes, Rustagi, Saia, Trehan; PODC 2008, arXiv:0802.3267).
//!
//! The Forgiving Tree maintains a network under repeated adversarial node
//! deletions: after each deletion, the dead node's neighbors execute a
//! pre-distributed *will* and add O(1) edges, guaranteeing forever that
//!
//! 1. no node's degree grows by more than **3** (Theorem 1.1),
//! 2. the diameter stays **O(D·log Δ)** (Theorem 1.2), and
//! 3. every heal costs **O(1)** rounds and O(1) messages per node
//!    (Theorem 1.3),
//!
//! which is asymptotically optimal (Theorem 2: `α^(2β+1) ≥ Δ`).
//!
//! The successor paper — *The Forgiving Graph* (arXiv:0902.2501) — is
//! implemented alongside it: haft-based healing of arbitrary interleaved
//! node **insertions and deletions** on general graphs, with O(log n)
//! degree increase and O(log n) stretch against the pristine network.
//!
//! This facade re-exports the workspace crates:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`core`] (`ft-core`) | both data structures: message-passing protocols + the spec engines they are tested against; `LocalHealer`'s per-deletion rules (the Forgiving Graph's haft, surrogate/line/binary-tree/no-heal) |
//! | [`graph`] (`ft-graph`) | graphs (insert + delete), BFS/diameter, rooted trees, generators |
//! | [`sim`] (`ft-sim`) | synchronous simulator (arrivals + deletions) + BFS setup |
//! | [`adversary`] (`ft-adversary`) | every omniscient strategy, one-victim or wave, behind one `Planner` trait and named by `PlannerKind` |
//! | [`metrics`] (`ft-metrics`) | workloads, tables, stretch pass, one `Scenario` value and its `run`: the one driver behind every command, for both protocols and the local rules |
//!
//! # Quickstart
//!
//! ```
//! use forgiving_tree::prelude::*;
//!
//! // build a 4-ary tree of 85 peers and arm the data structure: one
//! // message-passing processor per peer
//! let graph = gen::kary_tree(85, 4);
//! let mut ft = DistributedForgivingTree::new(&RootedTree::from_tree_graph(&graph, NodeId(0)));
//!
//! // each deletion is a one-event wave, healed to quiescence
//! ft.delete(NodeId(0));
//! let heal = ft.delete(NodeId(2));
//!
//! assert!(ft.graph().is_connected());
//! assert!(ft.graph().max_degree_increase_over(&graph) <= 3);
//! // the heal's cost, read from the simulator's message ledger
//! assert!(heal.rounds <= 8 && heal.max_per_node <= 40);
//!
//! // or let an omniscient adversary delete every node, one per heal,
//! // through the one driver every command uses
//! let attack = Scenario::attack(Protocol::FORGIVING_TREE, graph, PlannerKind::HeirHunter, 1.0, 7);
//! let outcome = run(&attack, |_, _| {});
//! assert!(outcome.healed.graph().is_empty());
//! assert!(outcome.report.peak_round_load <= 40);
//! ```
//!
//! The Forgiving Graph heals insertions *and* deletions:
//!
//! ```
//! use forgiving_tree::prelude::*;
//!
//! let mut fg = DistributedForgivingGraph::new(&gen::kary_tree(85, 4));
//!
//! let (newcomer, _) = fg.insert(&[NodeId(3), NodeId(7)]);
//! fg.delete(NodeId(0));
//! fg.delete(NodeId(3));
//!
//! assert!(fg.graph().is_alive(newcomer));
//! assert!(fg.graph().is_connected());
//! assert!(fg.max_degree_increase() <= fg_degree_bound(fg.graph().capacity()));
//! ```

/// The README's quickstart snippets, run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme {}

pub use ft_adversary as adversary;
pub use ft_core as core;
pub use ft_costs as costs;
pub use ft_graph as graph;
pub use ft_metrics as metrics;
pub use ft_sim as sim;

/// The types most programs need.
pub mod prelude {
    pub use ft_adversary::{AdversaryView, Planner, PlannerKind};
    pub use ft_core::distributed::DistributedForgivingTree;
    pub use ft_core::fgraph::{LocalHealer, LocalRule};
    pub use ft_core::{fg_degree_bound, fg_stretch_bound, DistributedForgivingGraph};
    pub use ft_costs::{CostResult, OperationCost};
    pub use ft_graph::tree::RootedTree;
    pub use ft_graph::{gen, ChurnEvent, Graph, NodeId};
    pub use ft_metrics::{
        measure_stretch_full, run, run_fault_matrix, run_graph_stress, run_stress, select_sources,
        Events, FaultCell, FaultMatrixConfig, FaultMatrixRecord, Faults, GraphStressConfig,
        GraphStressRecord, Healed, Initial, Outcome, Protocol, Scenario, Series, StressConfig,
        StressRecord, StretchReport, StretchTracker, Table, Verdicts, Workload,
    };
    pub use ft_sim::bfs::distributed_bfs_tree;
    pub use ft_sim::{
        Books, Campaign, CampaignConfig, CampaignReport, FaultConfig, FaultPlan, HealCadence,
        MsgFate, MsgLedger, WaveStats,
    };
}

/// Every healer through the one driver: the local rules' stated cost model
/// and the two Forgiving protocols, on hand-picked deletion sequences.
#[cfg(test)]
mod tests {
    use super::prelude::*;
    use crate::graph::bfs::diameter_exact;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Runs `protocol` on `graph` with one wave per victim, calling `each`
    /// after every heal.
    fn delete(
        protocol: Protocol,
        graph: Graph,
        victims: &[NodeId],
        each: impl FnMut(&Healed, &WaveStats),
    ) -> Outcome {
        let waves = victims.iter().map(|&v| vec![ChurnEvent::Delete(v)]);
        let sc = Scenario {
            protocol,
            initial: Initial::Explicit(graph),
            events: Events::Explicit(waves.collect()),
            faults: Faults::default(),
            seed: 0,
        };
        run(&sc, each)
    }

    /// `v`'s degree increase over the healed run's pristine graph.
    fn increase(healed: &Healed, v: NodeId) -> i64 {
        healed.graph().degree(v) as i64 - healed.pristine().degree(v) as i64
    }

    #[test]
    fn surrogate_hub_absorbs_neighbors() {
        let protocol = Protocol::Local(LocalRule::Surrogate);
        let out = delete(protocol, gen::star(5), &[n(0)], |_, wave| {
            // the model: four notices, two messages per added edge
            assert_eq!((wave.messages, wave.max_per_node, wave.rounds), (10, 4, 1));
        });
        let g = out.healed.graph();
        assert_eq!(g.num_edges(), 3, "the three other leaves join node 1");
        assert_eq!(g.degree(n(1)), 3);
        assert!(g.is_connected());
        assert_eq!(increase(&out.healed, n(1)), 2);
        assert_eq!(out.books, Books::default(), "a local rule keeps no ledger");
    }

    #[test]
    fn surrogate_degree_blowup_is_linear() {
        // On a binary tree, hub-siphon keeps deleting the busiest neighbor
        // of node 0, which (the lowest ID, hence always the surrogate)
        // absorbs the victim's children: Θ(n) degree growth.
        let protocol = Protocol::Local(LocalRule::Surrogate);
        let attack = Scenario::attack(
            protocol,
            gen::kary_tree(63, 2),
            PlannerKind::HubSiphon,
            0.5,
            0,
        );
        let out = run(&attack, |_, _| {});
        let grown = increase(&out.healed, n(0));
        assert!(grown >= 16, "expected Θ(n) degree blow-up, got {grown}");
    }

    #[test]
    fn line_heals_keep_degree_but_stretch_diameter() {
        // one deletion suffices: the star's center dies and line healing
        // chains all Δ leaves — diameter jumps from 2 to n-2 = Θ(n)
        let out = delete(
            Protocol::Local(LocalRule::Line),
            gen::star(32),
            &[n(0)],
            |_, _| {},
        );
        assert!(out.verdicts.connected);
        assert!(out.verdicts.max_degree_increase <= 2, "line adds at most 2");
        let d = diameter_exact(out.healed.graph()).expect("connected");
        assert_eq!(d, 30, "31 leaves in a chain");
    }

    #[test]
    fn binary_tree_heal_keeps_connectivity() {
        let victims: Vec<NodeId> = (0..15).map(n).collect();
        let protocol = Protocol::Local(LocalRule::BinaryTree);
        let out = delete(protocol, gen::kary_tree(31, 2), &victims, |_, _| {});
        assert!(out.verdicts.connected);
        assert_eq!(
            out.verdicts.failed(),
            None,
            "a local rule is judged on connectivity"
        );
    }

    #[test]
    fn no_heal_disconnects() {
        let out = delete(
            Protocol::Local(LocalRule::NoRepair),
            gen::star(5),
            &[n(0)],
            |_, _| {},
        );
        assert!(!out.verdicts.connected);
        assert_eq!(out.verdicts.class(), "broke");
        assert!(
            out.verdicts.max_degree_increase <= 0,
            "no-heal never adds edges"
        );
    }

    #[test]
    fn forgiving_healer_wraps_the_core() {
        let out = delete(Protocol::FORGIVING_TREE, gen::star(9), &[n(0)], |_, _| {});
        assert_eq!(out.books.notices, 8, "one notice per leaf");
        assert!(out.verdicts.connected);
        assert!(out.verdicts.max_degree_increase <= 3);
    }

    #[test]
    fn forgiving_graph_healer_handles_general_graphs() {
        // a graph no tree healer accepts: cycle plus chords, and a newcomer
        let mut g = gen::cycle(12);
        g.add_edge(n(0), n(6));
        g.add_edge(n(3), n(9));
        let mut waves = vec![vec![ChurnEvent::Insert {
            neighbors: vec![n(1), n(7)],
        }]];
        waves.extend([0, 6, 3, 12].map(|v| vec![ChurnEvent::Delete(n(v))]));
        let sc = Scenario {
            protocol: Protocol::FORGIVING_GRAPH,
            initial: Initial::Explicit(g),
            events: Events::Explicit(waves),
            faults: Faults::default(),
            seed: 0,
        };
        let out = run(&sc, |healed, _| assert!(healed.graph().is_connected()));
        assert_eq!((out.report.insertions, out.report.deletions), (1, 4));
        assert!(out.verdicts.wills_ok, "wills consistent");
        assert!(out.verdicts.degree_ok(), "within fg_degree_bound");
    }

    #[test]
    fn all_healers_keep_connectivity_under_random_attack() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gen::random_tree(40, &mut rng);
        let mut order: Vec<NodeId> = g.nodes().collect();
        order.shuffle(&mut rng);
        for protocol in [
            Protocol::Local(LocalRule::Surrogate),
            Protocol::Local(LocalRule::Line),
            Protocol::Local(LocalRule::BinaryTree),
            Protocol::FORGIVING_TREE,
            Protocol::FORGIVING_GRAPH,
        ] {
            let name = protocol.name();
            delete(protocol, g.clone(), &order[..35], |healed, _| {
                assert!(healed.graph().is_connected(), "{name} disconnected");
            });
        }
    }
}
