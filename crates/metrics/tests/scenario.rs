//! A run is one `Scenario` value: its realised waves replay it, the stress
//! shims build theirs, and pinned findings live on as scenarios.

use ft_adversary::PlannerKind;
use ft_core::fgraph::ForgivingGraph;
use ft_graph::{ChurnEvent, Graph, NodeId};
use ft_metrics::{
    run, run_fault_matrix, run_graph_stress, run_stress, Events, FaultMatrixConfig, Faults,
    GraphStressConfig, Initial, Outcome, Protocol, Scenario, StressConfig, StressRecord,
};
use ft_sim::HealCadence;
use proptest::prelude::*;

/// A planned scenario on `nodes` generated nodes.
fn planned(
    protocol: Protocol,
    nodes: usize,
    budget: usize,
    wave: usize,
    planner: PlannerKind,
) -> Scenario {
    Scenario {
        protocol,
        initial: Initial::Nodes(nodes),
        events: Events::Planned {
            budget,
            wave_size: wave,
            planner,
        },
        faults: Faults::default(),
        seed: 1,
    }
}

fn tree(arity: usize) -> Protocol {
    Protocol::Tree {
        arity,
        cadence: HealCadence::PerDeletion,
    }
}

fn graph(stretch_sources: usize) -> Protocol {
    Protocol::Graph {
        extra_edges: 0.2,
        insert_fraction: 0.4,
        stretch_sources,
    }
}

/// `sc` with its events replaced by `out`'s realised waves.
fn replay_of(sc: &Scenario, out: &Outcome) -> Scenario {
    Scenario {
        events: Events::Explicit(out.waves.clone()),
        ..sc.clone()
    }
}

/// A record's JSON without its wall-clock fields.
fn exact(json: &str) -> String {
    let timing = [
        "elapsed_secs",
        "wall_ms",
        "stretch_wall_ms",
        "nodes_per_sec",
        "events_per_sec",
        "msgs_per_sec",
    ];
    let timed = |line: &&str| timing.iter().any(|t| line.contains(&format!("\"{t}\"")));
    json.lines()
        .filter(|l| !timed(l))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn realised_waves_replay_as_explicit_events() {
    let matrix = FaultMatrixConfig::default().scenarios();
    let chaos_cell = |protocol: &str| {
        let is_cell = |sc: &&Scenario| sc.protocol.name() == protocol && sc.faults.name == "chaos";
        matrix.iter().find(is_cell).expect("a chaos cell").clone()
    };
    let runs = [
        // the CI smoke shapes; heavy-tail plans against the healed degrees
        planned(tree(8), 2000, 400, 25, PlannerKind::HeavyTail),
        planned(graph(16), 2000, 400, 25, PlannerKind::Mixed),
        chaos_cell("tree"),
        chaos_cell("graph"),
    ];
    for sc in &runs {
        let what = format!("{} under {}", sc.protocol.name(), sc.faults.name);
        let out = run(sc);
        assert!(!out.waves.is_empty(), "{what}: no wave ran");
        if sc.faults.name == "chaos" {
            assert_ne!(
                out.books.fault_fingerprint,
                ft_graph::hash::FNV_BASIS,
                "{what}"
            );
        }
        let again = run(&replay_of(sc, &out));
        assert_eq!(again.books, out.books, "{what}: books");
        assert_eq!(again.report, out.report, "{what}: campaign report");
        assert_eq!(
            again.books.fault_fingerprint, out.books.fault_fingerprint,
            "{what}: fault fingerprint"
        );
        assert_eq!(again.verdicts, out.verdicts, "{what}: verdict inputs");
        assert_eq!(
            again.waves, out.waves,
            "{what}: a replay realises its own waves"
        );
    }
}

/// The stress shims are the only users of their configs: each one's
/// record equals the record `run` makes of its scenario, at the configs
/// ftbench's tests pass.
#[test]
fn shims_build_the_records_of_their_scenarios() {
    let cfg = StressConfig {
        nodes: 4_000,
        deletions: 2_000,
        wave_size: 100,
        arity: 4,
        planner: "random".into(),
        seed: 7,
        threads: 1,
        cadence: "per-deletion".into(),
        faults: "none".into(),
    };
    let sc = Scenario {
        seed: 7,
        ..planned(tree(4), 4_000, 2_000, 100, PlannerKind::Random)
    };
    assert_eq!(cfg.scenario(), sc);
    let rec = StressRecord::new(sc.clone(), &run(&sc));
    assert_eq!(exact(&run_stress(&cfg).to_json()), exact(&rec.to_json()));

    let cfg = GraphStressConfig {
        nodes: 1_500,
        events: 600,
        wave_size: 20,
        insert_fraction: 0.4,
        extra_edges: 0.2,
        planner: "mixed".into(),
        seed: 7,
        stretch_sources: 4,
        threads: 1,
        stretch_mode: "incremental".into(),
        faults: "chaos".into(),
    };
    let sc = Scenario {
        faults: Faults::named("chaos").expect("a fault model"),
        seed: 7,
        ..planned(graph(4), 1_500, 600, 20, PlannerKind::Mixed)
    };
    assert_eq!(cfg.scenario(), sc);
    let rec = StressRecord::new(sc.clone(), &run(&sc));
    assert_eq!(
        exact(&run_graph_stress(&cfg).to_json()),
        exact(&rec.to_json())
    );
}

/// Under chaos, lost or delayed mail can make a vnode its own parent: this
/// run ends disconnected with no verdict failing (`ftree stress --nodes 200
/// --deletions 80 --wave 5 --faults chaos --seed 13 --planner random
/// --arity 8` exits 0). Its realised waves replay it exactly.
#[test]
fn chaos_vnode_cycle_run_replays_disconnected() {
    let sc = Scenario {
        faults: Faults::named("chaos").expect("a fault model"),
        seed: 13,
        ..planned(tree(8), 200, 80, 5, PlannerKind::Random)
    };
    let out = run(&sc);
    assert!(!out.verdicts.connected);
    assert_eq!(out.books.fault_fingerprint, 0x20e2_a761_f7ba_a34b);
    let again = run(&replay_of(&sc, &out));
    assert_eq!(again.books, out.books);
    assert!(!again.verdicts.connected);
}

/// The smallest Forgiving Graph degree witness an exhaustive search over
/// 8-node trees found (ROADMAP item 4). The paper keeps a node of degree
/// d in G′ at degree ≤ 3d; here leaf 4 has d = 1 and ends at degree 4 on
/// both engines, because each deletion heals with a fresh haft over the
/// victim's current neighbours. Item 4's merge of reconstruction trees
/// must flip both assertions to at most 3.
#[test]
fn eight_node_witness_breaks_the_per_node_degree_bound() {
    let g = Graph::from_edges(8, &[(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 7)]);
    let victims = [1, 3, 2].map(NodeId);
    let sc = Scenario {
        protocol: graph(4),
        initial: Initial::Explicit(g.clone()),
        events: Events::Explicit(
            victims
                .iter()
                .map(|&v| vec![ChurnEvent::Delete(v)])
                .collect(),
        ),
        faults: Faults::default(),
        seed: 0,
    };
    let out = run(&sc);
    assert_eq!(out.report.waves, 3);
    assert_eq!(out.healed.pristine().degree(NodeId(4)), 1);
    assert_eq!(
        out.healed.graph().degree(NodeId(4)),
        4,
        "distributed engine"
    );
    let mut spec = ForgivingGraph::new(&g);
    for v in victims {
        spec.delete(v);
    }
    assert_eq!(spec.graph().degree(NodeId(4)), 4, "spec engine");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// No fault-matrix cell panics, at any size from 8 to 300 nodes, any
    /// wave size and any seed.
    #[test]
    fn no_fault_matrix_cell_panics(
        nodes in 8usize..301,
        wave_size in 1usize..17,
        seed in 0u64..1_000_000,
    ) {
        let cfg = FaultMatrixConfig { nodes, events: nodes / 2, wave_size, seed };
        for cell in run_fault_matrix(&cfg).cells {
            prop_assert!(
                cell.verdict() != "panicked",
                "{} × {} panicked at {cfg:?}", cell.protocol, cell.model
            );
        }
    }
}
