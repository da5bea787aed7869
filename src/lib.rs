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
//! | [`core`] (`ft-core`) | both data structures: message-passing protocols + the spec engines they are tested against |
//! | [`graph`] (`ft-graph`) | graphs (insert + delete), BFS/diameter, rooted trees, generators |
//! | [`sim`] (`ft-sim`) | synchronous simulator (arrivals + deletions) + BFS setup |
//! | [`baselines`] (`ft-baselines`) | `SelfHealer`, implemented by both Forgiving protocols and by `LocalHealer`'s naive rules (surrogate/line/binary-tree/no-heal) |
//! | [`adversary`] (`ft-adversary`) | omniscient deletion strategies + wave/churn planners |
//! | [`metrics`] (`ft-metrics`) | experiment runner, workloads, tables, stretch pass, one `Scenario` value and its `run` behind the stress harnesses and the fault matrix |
//!
//! # Quickstart
//!
//! ```
//! use forgiving_tree::prelude::*;
//!
//! // build a 4-ary tree of 85 peers and arm the data structure: one
//! // message-passing processor per peer
//! let graph = gen::kary_tree(85, 4);
//! let mut ft = ForgivingHealer::from_tree_graph(&graph, NodeId(0));
//!
//! // the adversary deletes the root and an internal node
//! ft.delete(NodeId(0));
//! let report = ft.delete(NodeId(2));
//!
//! assert!(ft.graph().is_connected());
//! assert!(ft.max_degree_increase() <= 3);
//! // the heal's cost, read from the simulator's message ledger
//! assert!(report.rounds <= 8 && report.max_messages_per_node <= 40);
//! ```
//!
//! The Forgiving Graph heals insertions *and* deletions:
//!
//! ```
//! use forgiving_tree::prelude::*;
//!
//! let mut fg = DistributedForgivingGraph::new(&gen::kary_tree(85, 4));
//!
//! let newcomer = fg.insert(&[NodeId(3), NodeId(7)]);
//! fg.delete(NodeId(0));
//! fg.delete(NodeId(3));
//!
//! assert!(fg.graph().is_alive(newcomer));
//! assert!(fg.graph().is_connected());
//! assert!(fg.max_degree_increase() <= fg_degree_bound(fg.graph().capacity()));
//! ```

pub use ft_adversary as adversary;
pub use ft_baselines as baselines;
pub use ft_core as core;
pub use ft_costs as costs;
pub use ft_graph as graph;
pub use ft_metrics as metrics;
pub use ft_sim as sim;

/// The types most programs need.
pub mod prelude {
    pub use ft_adversary::{
        make_churn_planner, make_wave_planner, Adversary, AdversaryView, ChurnPlanner,
        DiameterGreedy, HeavyTailWave, HeirHunter, HighestDegreeAdversary, HubSiphon,
        LowestDegreeAdversary, MixedChurn, PlannerKind, RandomAdversary, RandomWave, RootAdversary,
        SurgeChurn, TargetedWave, WavePlanner,
    };
    pub use ft_baselines::{ForgivingHealer, LocalHealer, LocalRule, SelfHealer};
    pub use ft_core::distributed::DistributedForgivingTree;
    pub use ft_core::{fg_degree_bound, fg_stretch_bound, DistributedForgivingGraph, HealReport};
    pub use ft_costs::{CostResult, OperationCost};
    pub use ft_graph::tree::RootedTree;
    pub use ft_graph::{gen, ChurnEvent, Graph, NodeId};
    pub use ft_metrics::{
        measure_stretch_full, run, run_fault_matrix, run_graph_stress, run_stress, run_trial,
        select_sources, Events, FaultCell, FaultMatrixConfig, FaultMatrixRecord, Faults,
        GraphStressConfig, GraphStressRecord, Healed, Initial, Outcome, Protocol, Scenario,
        StressConfig, StressRecord, StretchReport, StretchTracker, Table, Trial, TrialConfig,
        Verdicts, Workload,
    };
    pub use ft_sim::bfs::distributed_bfs_tree;
    pub use ft_sim::{
        Books, Campaign, CampaignConfig, CampaignReport, FaultConfig, FaultPlan, HealCadence,
        MsgFate, MsgLedger,
    };
}
