//! End-to-end integration: generate → distributed setup → heal under attack
//! → verify every theorem-level guarantee, across crates.

use forgiving_tree::core::spec::ForgivingTree;
use forgiving_tree::graph::bfs::diameter_exact;
use forgiving_tree::metrics::{run_trial, TrialConfig};
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

#[test]
fn every_adversary_loses_on_every_workload() {
    for w in Workload::suite(48) {
        for adv in forgiving_tree::adversary::standard_suite(7).iter_mut() {
            let mut healer = ForgivingHealer::new(&w.tree());
            let cfg = TrialConfig {
                workload: w.name(),
                delete_fraction: 1.0,
                measure_every: 2,
            };
            let t = run_trial(&cfg, &mut healer, adv.as_mut());
            assert!(
                t.summary.max_degree_increase <= 3,
                "Theorem 1.1 broken: {}",
                t.summary
            );
            assert!(t.summary.stayed_connected, "disconnected: {}", t.summary);
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
    let healers: Vec<Box<dyn SelfHealer>> = vec![
        Box::new(ForgivingHealer::new(&w.tree())),
        Box::new(LocalHealer::new(LocalRule::Surrogate, w.graph())),
        Box::new(LocalHealer::new(LocalRule::Line, w.graph())),
        Box::new(LocalHealer::new(LocalRule::BinaryTree, w.graph())),
    ];
    for mut h in healers {
        let mut adv = HighestDegreeAdversary;
        let cfg = TrialConfig {
            workload: w.name(),
            delete_fraction: 0.5,
            measure_every: 1,
        };
        let name = h.name();
        let t = run_trial(&cfg, h.as_mut(), &mut adv);
        let alpha = t.summary.max_degree_increase.max(3) as f64;
        let beta = t.summary.max_stretch;
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
    let w = Workload::Star(nn);
    let mut ft = ForgivingHealer::new(&w.tree());
    let mut line = LocalHealer::new(LocalRule::Line, w.graph());
    ft.delete(NodeId(0));
    line.delete(NodeId(0));
    let d_ft = diameter_exact(ft.graph()).expect("connected");
    let d_line = diameter_exact(line.graph()).expect("connected");
    assert!(d_ft <= 2 * ((nn as f64).log2().ceil() as u32 + 2));
    assert_eq!(d_line as usize, nn - 2, "line chains all leaves");
    assert!(d_ft < d_line / 3, "FT({d_ft}) must beat line({d_line})");

    // hub-siphon: surrogate blows up degree, FT stays ≤ +3
    let w2 = Workload::Kary(63, 2);
    let mut sur = LocalHealer::new(LocalRule::Surrogate, w2.graph());
    let mut ft2 = ForgivingHealer::new(&w2.tree());
    let mut adv = HubSiphon;
    for _ in 0..30 {
        let view = AdversaryView {
            graph: sur.graph(),
            ft: None,
        };
        if let Some(v) = adv.next_target(view) {
            sur.delete(v);
        }
        let view = AdversaryView {
            graph: ft2.graph(),
            ft: ft2.as_forgiving(),
        };
        if let Some(v) = adv.next_target(view) {
            ft2.delete(v);
        }
    }
    assert!(sur.max_degree_increase() >= 10, "surrogate hub blow-up");
    assert!(ft2.max_degree_increase() <= 3, "FT bounded");
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
    assert_eq!(dr.deleted, Some(NodeId(1)));
    // both engines produce the same *net* new edges (the spec transcript
    // may additionally log edges that were re-routed within the heal)
    let net: Vec<(NodeId, NodeId)> = spec
        .graph()
        .edges()
        .into_iter()
        .filter(|&(a, b)| !before.has_edge(a, b))
        .collect();
    assert_eq!(net, dr.edges_added);
    for e in &net {
        assert!(added.contains(e), "spec transcript misses {e:?}");
    }
}

/// Wraps an adversary and records the victims it names.
struct Recording<'a> {
    inner: &'a mut dyn Adversary,
    victims: Vec<NodeId>,
}

impl Adversary for Recording<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_target(&mut self, view: AdversaryView<'_>) -> Option<NodeId> {
        let target = self.inner.next_target(view);
        self.victims.extend(target);
        target
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
        let mut advs: [(Box<dyn Adversary>, bool); 2] = [
            (Box::new(RootAdversary), true),
            (Box::new(HeirHunter), false),
        ];
        for (adv, root) in &mut advs {
            let mut rec = Recording {
                inner: adv.as_mut(),
                victims: Vec::new(),
            };
            let cfg = TrialConfig {
                workload: w.name(),
                delete_fraction: 1.0,
                measure_every: 4,
            };
            let s = run_trial(&cfg, &mut ForgivingHealer::new(&tree), &mut rec).summary;
            assert_eq!(rec.victims.len(), tree.len(), "{}", s);

            // the same attack, on the spec engine
            let mut spec = ForgivingTree::new(&tree);
            let (mut max_degree, mut max_diameter) = (0, s.diam0);
            for (i, &v) in rec.victims.iter().enumerate() {
                assert_eq!(spec_victim(&spec, *root), Some(v), "step {i} of {s}");
                spec.delete(v);
                max_degree = max_degree.max(spec.max_degree_increase());
                if ((i + 1) % 4 == 0 || spec.len() <= 1) && !spec.is_empty() {
                    let d = diameter_exact(spec.graph()).expect("connected");
                    max_diameter = max_diameter.max(d);
                }
            }
            assert_eq!(max_degree, s.max_degree_increase, "{s}");
            assert_eq!(max_diameter, s.max_diameter, "{s}");
        }
    }
}
