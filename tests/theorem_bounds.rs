//! Property-level integration tests pinning the theorem bounds under
//! randomized workloads (heavier than the per-crate unit tests).

use forgiving_tree::core::spec::ForgivingTree;
use forgiving_tree::graph::bfs::diameter_exact;
use forgiving_tree::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorems 1.1 + 1.2 on random trees with random deletion orders,
    /// verified after every deletion.
    #[test]
    fn theorems_hold_on_random_trees(nn in 8usize..64, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(nn, &mut rng);
        let tree = RootedTree::from_tree_graph(&g, NodeId(0));
        let mut ft = ForgivingTree::new(&tree);
        let bound = ft.diameter_bound();
        let mut order: Vec<NodeId> = tree.nodes().collect();
        order.shuffle(&mut rng);
        for v in order {
            ft.delete(v);
            prop_assert!(ft.max_degree_increase() <= 3);
            if ft.len() > 1 {
                let d = diameter_exact(ft.graph()).expect("connected");
                prop_assert!(d <= bound, "diameter {} > {}", d, bound);
            }
        }
    }

    /// Theorem 1.3: per-node messages stay below a constant on power-law
    /// trees (high-degree hubs), counted by the protocol, which heals like
    /// the spec engine.
    #[test]
    fn message_bound_on_pref_trees(nn in 10usize..48, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_attachment_tree(nn, &mut rng);
        let tree = RootedTree::from_tree_graph(&g, NodeId(0));
        let mut spec = ForgivingTree::new(&tree);
        let mut dist = DistributedForgivingTree::new(&tree);
        let mut order: Vec<NodeId> = tree.nodes().collect();
        order.shuffle(&mut rng);
        for v in order {
            spec.delete(v);
            let dr = dist.delete(v);
            prop_assert!(dr.max_per_node <= 40, "dist: {}", dr.max_per_node);
            prop_assert!(dr.rounds <= 8);
            prop_assert_eq!(spec.graph(), dist.graph());
        }
    }

    /// Ablation configurations preserve every safety invariant (they only
    /// trade the diameter constant).
    #[test]
    fn ablation_configs_stay_safe(nn in 6usize..32, seed in 0u64..200,
                                  balanced in proptest::bool::ANY) {
        use forgiving_tree::core::shape::ShapeConfig;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(nn, &mut rng);
        let tree = RootedTree::from_tree_graph(&g, NodeId(0));
        let mut ft = ForgivingTree::with_config(&tree, ShapeConfig { balanced });
        let mut order: Vec<NodeId> = tree.nodes().collect();
        order.shuffle(&mut rng);
        for v in order {
            ft.delete(v);
            ft.validate();
        }
    }
}

/// Spec engine against the distributed protocol on 200 seeded trees of
/// 3..=40 nodes (uniform, preferential-attachment, broom), each through a
/// random prefix of a random deletion order, checked after every deletion:
/// the healed graphs, and the structure the omniscient adversary reads
/// (virtual root, heirs, slot representatives), must match.
#[test]
fn spec_and_distributed_agree_on_seeded_random_trees() {
    for iter in 0..200u64 {
        let seed = 0x5EED_0000 + iter;
        let mut rng = StdRng::seed_from_u64(seed);
        let nn = rng.gen_range(3..=40);
        let g = match iter % 3 {
            0 => gen::random_tree(nn, &mut rng),
            1 => gen::random_attachment_tree(nn, &mut rng),
            _ => gen::broom(2 + nn / 4, nn - 2 - nn / 4),
        };
        let tree = RootedTree::from_tree_graph(&g, NodeId(0));
        let mut order: Vec<NodeId> = tree.nodes().collect();
        order.shuffle(&mut rng);
        let stop = rng.gen_range(1..=order.len());
        let mut spec = ForgivingTree::new(&tree);
        let mut dist = DistributedForgivingTree::new(&tree);
        let bound = spec.diameter_bound();
        for &v in order.iter().take(stop) {
            spec.delete(v);
            let dr = dist.delete(v);
            spec.validate();
            assert_eq!(
                spec.graph(),
                dist.graph(),
                "engines diverged, seed {seed:#x}"
            );
            assert_eq!(spec.root_sim(), dist.root_sim(), "root, seed {seed:#x}");
            for u in spec.nodes() {
                let (s, d) = (
                    (spec.heir_of(u), spec.slot_reps(u)),
                    (dist.heir_of(u), dist.slot_reps(u)),
                );
                assert_eq!(s, d, "heir and slots of {u:?}, seed {seed:#x}");
            }
            assert!(
                spec.max_degree_increase() <= 3,
                "Theorem 1.1, seed {seed:#x}"
            );
            assert!(dr.rounds <= 8, "latency not O(1), seed {seed:#x}");
            if spec.len() > 1 {
                let d = diameter_exact(spec.graph()).expect("connected");
                assert!(d <= bound, "Theorem 1.2 budget, seed {seed:#x}");
            }
        }
    }
}
