//! End-to-end integration: generate → distributed setup → heal under attack
//! → verify every theorem-level guarantee, across crates.

use forgiving_tree::core::spec::ForgivingTree;
use forgiving_tree::graph::bfs::diameter_exact;
use forgiving_tree::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

#[test]
fn general_graph_pipeline_survives_full_deletion() {
    // general graph → distributed BFS tree → FT → full deletion sequence
    let mut rng = StdRng::seed_from_u64(42);
    let overlay = gen::gnp_connected(120, 5.0 / 120.0, &mut rng);
    let setup = distributed_bfs_tree(&overlay, NodeId(0));
    assert_eq!(setup.tree.len(), 120);
    let mut ft = ForgivingTree::new(&setup.tree);
    let bound = ft.diameter_bound();
    let mut order: Vec<NodeId> = setup.tree.nodes().collect();
    order.shuffle(&mut rng);
    for v in order {
        ft.delete(v);
        ft.validate();
        if ft.len() > 1 {
            let d = diameter_exact(ft.graph()).expect("connected");
            assert!(d <= bound, "diameter {d} > bound {bound}");
        }
    }
    assert!(ft.is_empty());
}

/// Runs `protocol` on `w` against a one-victim `adversary` that deletes
/// `fraction` of its nodes, measuring the exact diameter every `every`
/// deletions.
fn attack(
    protocol: Protocol,
    w: &Workload,
    adversary: PlannerKind,
    fraction: f64,
    every: usize,
) -> (Outcome, Series) {
    let graph = w.graph();
    let mut series = Series::new(&graph, every);
    let sc = Scenario::attack(protocol, graph, adversary, fraction, 7);
    let out = run(&sc, |healed, wave| series.observe(healed, wave));
    (out, series)
}

#[test]
fn every_adversary_loses_on_every_workload() {
    use PlannerKind::{DiameterGreedy, HeirHunter, MaxDegree, MinDegree, Random, RootAttack};
    for w in Workload::suite(48) {
        for adversary in [
            Random,
            MaxDegree,
            MinDegree,
            RootAttack,
            HeirHunter,
            DiameterGreedy,
        ] {
            let (out, s) = attack(Protocol::FORGIVING_TREE, &w, adversary, 1.0, 2);
            let what = format!("{} vs {}", w.name(), adversary.name());
            assert!(s.max_degree_increase <= 3, "Theorem 1.1 broken: {what}");
            assert!(s.connected, "disconnected: {what}");
            assert!(out.healed.graph().is_empty(), "{what} deletes every node");
        }
    }
}

#[test]
fn spec_and_distributed_agree_on_p2p_churn() {
    let mut rng = StdRng::seed_from_u64(1);
    let overlay = gen::barabasi_albert(90, 2, &mut rng);
    let tree = RootedTree::bfs_spanning_tree(&overlay, NodeId(0));
    let mut spec = ForgivingTree::new(&tree);
    let mut dist = DistributedForgivingTree::new(&tree);
    let mut order: Vec<NodeId> = tree.nodes().collect();
    order.shuffle(&mut rng);
    for v in order {
        spec.delete(v);
        let r = dist.delete(v);
        assert_eq!(spec.graph(), dist.graph(), "engines diverged at {v:?}");
        assert!(r.rounds <= 8, "recovery latency not O(1)");
    }
}

#[test]
fn theorem2_tradeoff_holds_for_all_healers() {
    // star K(1,64): any healer's measured (α, β) satisfies α^(2β+1) ≥ Δ
    let delta = 64usize;
    let w = Workload::Star(delta + 1);
    for protocol in [
        Protocol::FORGIVING_TREE,
        Protocol::Local(LocalRule::Surrogate),
        Protocol::Local(LocalRule::Line),
        Protocol::Local(LocalRule::BinaryTree),
    ] {
        let name = protocol.name();
        let (_, s) = attack(protocol, &w, PlannerKind::MaxDegree, 0.5, 1);
        let alpha = s.max_degree_increase.max(3) as f64;
        let beta = s.max_stretch();
        assert!(
            alpha.powf(2.0 * beta + 1.0) >= delta as f64 * 0.99,
            "{name}: α={alpha}, β={beta} beats the lower bound?!"
        );
    }
}

#[test]
fn forgiving_tree_beats_baselines_where_the_paper_says() {
    // star center deletion: FT keeps stretch ~log Δ, line suffers Θ(n)
    let nn = 65;
    let center = |protocol| {
        let sc = Scenario {
            events: Events::Explicit(vec![vec![ChurnEvent::Delete(NodeId(0))]]),
            ..Scenario::attack(protocol, gen::star(nn), PlannerKind::MaxDegree, 0.0, 0)
        };
        diameter_exact(run(&sc, |_, _| {}).healed.graph()).expect("connected")
    };
    let d_ft = center(Protocol::FORGIVING_TREE);
    let d_line = center(Protocol::Local(LocalRule::Line));
    assert!(d_ft <= 2 * ((nn as f64).log2().ceil() as u32 + 2));
    assert_eq!(d_line as usize, nn - 2, "line chains all leaves");
    assert!(d_ft < d_line / 3, "FT({d_ft}) must beat line({d_line})");

    // hub-siphon: surrogate blows up degree, FT stays ≤ +3
    let siphon = |protocol| {
        let events = Events::Planned {
            budget: 30,
            wave_size: 1,
            planner: PlannerKind::HubSiphon,
        };
        let attack = Scenario::attack(
            protocol,
            gen::kary_tree(63, 2),
            PlannerKind::HubSiphon,
            0.0,
            0,
        );
        let out = run(&Scenario { events, ..attack }, |_, _| {});
        assert_eq!(out.report.deletions, 30);
        out.verdicts.max_degree_increase
    };
    assert!(
        siphon(Protocol::Local(LocalRule::Surrogate)) >= 10,
        "surrogate hub blow-up"
    );
    assert!(siphon(Protocol::FORGIVING_TREE) <= 3, "FT bounded");
}

#[test]
fn heal_reports_are_consistent_across_engines() {
    let w = Workload::Kary(31, 2);
    let tree = w.tree();
    let before = tree.to_graph();
    let mut spec = ForgivingTree::new(&tree);
    let mut dist = DistributedForgivingTree::new(&tree);
    let added = spec.delete(NodeId(1));
    let dr = dist.delete(NodeId(1));
    assert_eq!((dr.deletions, dist.graph().is_alive(NodeId(1))), (1, false));
    // both engines produce the same *net* new edges (the spec transcript
    // may additionally log edges that were re-routed within the heal)
    let net: Vec<(NodeId, NodeId)> = spec
        .graph()
        .edges()
        .into_iter()
        .filter(|&(a, b)| !before.has_edge(a, b))
        .collect();
    let dist_net: Vec<(NodeId, NodeId)> = dist
        .graph()
        .edges()
        .into_iter()
        .filter(|&(a, b)| !before.has_edge(a, b))
        .collect();
    assert_eq!(net, dist_net);
    for e in &net {
        assert!(added.contains(e), "spec transcript misses {e:?}");
    }
}

/// The victim `root-attack` (`root`) or `heir-hunter` names, read from the
/// spec engine's structure instead of the processors' fields.
fn spec_victim(spec: &ForgivingTree, root: bool) -> Option<NodeId> {
    let structural = if root {
        spec.root_sim()
    } else {
        spec.nodes()
            .filter(|&v| !spec.slot_reps(v).is_empty())
            .max_by_key(|&v| spec.slot_reps(v).len())
            .and_then(|v| spec.heir_of(v))
    };
    let hub = || {
        spec.nodes()
            .max_by_key(|&v| (spec.graph().degree(v), std::cmp::Reverse(v)))
    };
    structural.or_else(hub)
}

#[test]
fn structure_aware_adversaries_choose_alike_on_both_engines() {
    for w in [Workload::Kary(256, 4), Workload::PrefTree(256, 1)] {
        let tree = w.tree();
        for (adversary, root) in [
            (PlannerKind::RootAttack, true),
            (PlannerKind::HeirHunter, false),
        ] {
            let (out, series) = attack(Protocol::FORGIVING_TREE, &w, adversary, 1.0, 4);
            let s = format!("{} vs {}", w.name(), adversary.name());
            let deleted = |wave: &Vec<ChurnEvent>| match wave[..] {
                [ChurnEvent::Delete(v)] => v,
                _ => panic!("a one-victim attack deletes one node per wave"),
            };
            let victims: Vec<NodeId> = out.waves.iter().map(deleted).collect();
            assert_eq!(victims.len(), tree.len(), "{s}");

            // the same attack, on the spec engine
            let mut spec = ForgivingTree::new(&tree);
            let (mut max_degree, mut max_diameter) = (0, series.diam0);
            for (i, &v) in victims.iter().enumerate() {
                assert_eq!(spec_victim(&spec, root), Some(v), "step {i} of {s}");
                spec.delete(v);
                max_degree = max_degree.max(spec.max_degree_increase());
                if ((i + 1) % 4 == 0 || spec.len() <= 1) && !spec.is_empty() {
                    let d = diameter_exact(spec.graph()).expect("connected");
                    max_diameter = max_diameter.max(d);
                }
            }
            assert_eq!(max_degree, series.max_degree_increase, "{s}");
            assert_eq!(max_diameter, series.max_diameter, "{s}");
        }
    }
}
