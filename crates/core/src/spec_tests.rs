//! Unit and property tests for the spec engine.
//!
//! The central discipline: after *every single deletion* we run the full
//! invariant audit (`validate()`), check Theorem 1.1 (degree ≤ +3) and the
//! explicit-constant Theorem 1.2 bound, and check connectivity. Exhaustive
//! small-scale tests enumerate all deletion orders; proptest covers random
//! trees and random orders at larger sizes.

use crate::bounds::ceil_log2;
use crate::distributed::DistributedForgivingTree;
use crate::ft_diameter_bound;
use crate::spec::{ForgivingTree, RoleKind};
use ft_graph::bfs::diameter_exact;
use ft_graph::tree::RootedTree;
use ft_graph::{gen, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Runs a full deletion sequence, validating everything after every step.
/// Returns the max observed (degree increase, diameter stretch numerator).
fn run_sequence(tree: &RootedTree, order: &[NodeId]) -> (i64, u32) {
    let mut ft = ForgivingTree::new(tree);
    ft.validate();
    let bound = ft.diameter_bound();
    let mut max_inc = 0;
    let mut max_diam = 0;
    for &v in order {
        ft.delete(v);
        ft.validate();
        assert!(!ft.is_alive(v));
        max_inc = max_inc.max(ft.max_degree_increase());
        if ft.len() > 1 {
            let d = diameter_exact(ft.graph()).expect("healed graph stays connected");
            assert!(
                d <= bound,
                "diameter {d} exceeds bound {bound} after deleting {v:?} (order {order:?})"
            );
            max_diam = max_diam.max(d);
        }
    }
    assert!(ft.is_empty());
    assert_eq!(ft.deletions(), order.len());
    (max_inc, max_diam)
}

#[test]
fn diameter_bound_rounds_log_delta_up() {
    let deltas = [2, 3, 4, 5, 8, 9, 1024, 1025];
    let logs = deltas.map(ceil_log2);
    assert_eq!(
        logs,
        [1, 2, 2, 3, 3, 4, 10, 11],
        "⌈log₂ Δ⌉ for Δ = {deltas:?}"
    );
    // 2·h₀·(⌈log₂ 5⌉ + 2) + 2 with h₀ = 4
    assert_eq!(ft_diameter_bound(4, 5), 42);
    // Δ₀ below 2 counts as 2; a lone node (h₀ = 0) still gets the floor of 2
    assert_eq!(ft_diameter_bound(1, 1), 8);
    assert_eq!(ft_diameter_bound(0, 0), 2);
}

#[test]
fn single_node_tree_deletes_cleanly() {
    let t = RootedTree::from_parent_pairs(n(0), &[]);
    let mut ft = ForgivingTree::new(&t);
    assert_eq!(ft.root_sim(), Some(n(0)));
    assert!(
        ft.delete(n(0)).is_empty(),
        "a lone node's heal adds no edge"
    );
    assert!(ft.is_empty());
    ft.validate();
}

#[test]
fn two_node_tree_both_orders() {
    for order in [[0u32, 1], [1, 0]] {
        let t = RootedTree::from_parent_pairs(n(0), &[(n(1), n(0))]);
        let order: Vec<NodeId> = order.iter().map(|&i| n(i)).collect();
        run_sequence(&t, &order);
    }
}

#[test]
fn internal_deletion_reconnects_children() {
    // root 0 with child 1; 1 has children 2,3,4,5
    let t = RootedTree::from_parent_pairs(
        n(0),
        &[
            (n(1), n(0)),
            (n(2), n(1)),
            (n(3), n(1)),
            (n(4), n(1)),
            (n(5), n(1)),
        ],
    );
    let mut ft = ForgivingTree::new(&t);
    assert_eq!(ft.heir_of(n(1)), Some(n(5)));
    let added = ft.delete(n(1));
    ft.validate();
    assert!(added.contains(&(n(0), n(5))), "heir wired to the parent");
    assert!(ft.graph().is_connected());
    // heir 5 is a ready heir now, attached to 0
    assert_eq!(ft.role_kind(n(5)), RoleKind::Ready);
    assert!(ft.graph().has_edge(n(0), n(5)));
    // the parent's will now names the heir as the replacement child
    assert_eq!(ft.slot_reps(n(0)), vec![n(5)]);
    // non-heir children became deployed helpers
    for c in [2u32, 3, 4] {
        assert_eq!(ft.role_kind(n(c)), RoleKind::Deployed);
    }
}

#[test]
fn leaf_deletion_updates_parent_will() {
    let t = RootedTree::from_parent_pairs(
        n(0),
        &[(n(1), n(0)), (n(2), n(0)), (n(3), n(0)), (n(4), n(0))],
    );
    let mut ft = ForgivingTree::new(&t);
    assert_eq!(ft.heir_of(n(0)), Some(n(4)));
    assert!(ft.delete(n(2)).is_empty(), "a leaf's heal adds no edge");
    ft.validate();
    assert_eq!(ft.slot_reps(n(0)), vec![n(1), n(3), n(4)]);
    // deleting the heir leaf promotes a survivor
    ft.delete(n(4));
    ft.validate();
    assert_eq!(ft.heir_of(n(0)), Some(n(3)));
}

#[test]
fn root_deletion_promotes_ready_heir_as_new_root() {
    let t = RootedTree::from_parent_pairs(
        n(0),
        &[(n(1), n(0)), (n(2), n(0)), (n(3), n(1)), (n(4), n(1))],
    );
    let mut ft = ForgivingTree::new(&t);
    ft.delete(n(0));
    ft.validate();
    // heir of the root (child 2) simulates the new virtual root
    assert_eq!(ft.root_sim(), Some(n(2)));
    assert_eq!(ft.role_kind(n(2)), RoleKind::Ready);
    assert!(ft.graph().is_connected());
}

#[test]
fn star_center_deletion_keeps_leaf_degrees_small() {
    // Theorem 2's construction: K_{1,Δ}
    for delta in [3usize, 8, 17, 64] {
        let g = gen::star(delta + 1);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut ft = ForgivingTree::new(&t);
        ft.delete(n(0));
        ft.validate();
        assert!(ft.graph().is_connected());
        assert!(ft.max_degree_increase() <= 3, "Δ={delta}");
        // the leaves are now arranged as a balanced binary structure:
        // diameter ~ 2 log Δ
        let d = diameter_exact(ft.graph()).expect("connected");
        let bound = 2 * ((delta as f64).log2().ceil() as u32 + 2) + 2;
        assert!(d <= bound, "Δ={delta}: diameter {d} > {bound}");
    }
}

#[test]
fn exhaustive_deletion_orders_on_paths() {
    // all 5! orders on a path of 5
    let perms = permutations(&[0, 1, 2, 3, 4]);
    for perm in perms {
        let g = gen::path(5);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let order: Vec<NodeId> = perm.iter().map(|&i| n(i)).collect();
        run_sequence(&t, &order);
    }
}

#[test]
fn exhaustive_deletion_orders_on_stars() {
    let perms = permutations(&[0, 1, 2, 3, 4]);
    for perm in perms {
        let g = gen::star(5);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let order: Vec<NodeId> = perm.iter().map(|&i| n(i)).collect();
        run_sequence(&t, &order);
    }
}

#[test]
fn exhaustive_deletion_orders_on_binary_tree() {
    // complete binary tree of 7 nodes, all 7! = 5040 orders
    let perms = permutations(&[0, 1, 2, 3, 4, 5, 6]);
    for perm in perms {
        let g = gen::kary_tree(7, 2);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let order: Vec<NodeId> = perm.iter().map(|&i| n(i)).collect();
        run_sequence(&t, &order);
    }
}

#[test]
fn caterpillar_random_orders() {
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..30 {
        let g = gen::caterpillar(5, 3);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut order: Vec<NodeId> = t.nodes().collect();
        order.shuffle(&mut rng);
        run_sequence(&t, &order);
    }
}

#[test]
fn deep_kary_trees_random_orders() {
    let mut rng = StdRng::seed_from_u64(7);
    for k in [2usize, 3, 5] {
        for _ in 0..10 {
            let g = gen::kary_tree(40, k);
            let t = RootedTree::from_tree_graph(&g, n(0));
            let mut order: Vec<NodeId> = t.nodes().collect();
            order.shuffle(&mut rng);
            run_sequence(&t, &order);
        }
    }
}

#[test]
fn leaf_first_attack() {
    // repeatedly delete a current leaf of the healed graph's spanning
    // structure: stresses LeafWill transfers and short circuits
    let g = gen::kary_tree(31, 2);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut ft = ForgivingTree::new(&t);
    while !ft.is_empty() {
        // lowest-degree node in the healed graph (a leaf-ish target)
        let v = ft
            .nodes()
            .min_by_key(|&v| (ft.graph().degree(v), v))
            .expect("nonempty");
        ft.delete(v);
        ft.validate();
    }
}

#[test]
fn root_first_attack() {
    // always delete the simulator of the virtual root
    let g = gen::kary_tree(31, 2);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut ft = ForgivingTree::new(&t);
    let bound = ft.diameter_bound();
    while let Some(r) = ft.root_sim() {
        ft.delete(r);
        ft.validate();
        if ft.len() > 1 {
            let d = diameter_exact(ft.graph()).expect("connected");
            assert!(d <= bound);
        }
    }
}

#[test]
fn heir_targeted_attack() {
    // always delete the heir of the highest-degree node: stresses heir
    // chains and ready-state bypasses
    let g = gen::kary_tree(40, 3);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut ft = ForgivingTree::new(&t);
    while !ft.is_empty() {
        let target = ft
            .nodes()
            .filter_map(|v| ft.heir_of(v))
            .next()
            .or_else(|| ft.nodes().next())
            .expect("nonempty");
        ft.delete(target);
        ft.validate();
    }
}

#[test]
fn messages_per_node_are_bounded() {
    // Theorem 1.3: O(1) messages per node per heal, independent of n and Δ.
    // The oracle counts no messages: the protocol's ledger does, on the
    // same heals.
    let mut worst = 0;
    for (nn, k) in [(64usize, 2usize), (121, 3), (256, 4), (341, 4)] {
        let g = gen::kary_tree(nn, k);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut ft = ForgivingTree::new(&t);
        let mut dist = DistributedForgivingTree::new(&t);
        let mut rng = StdRng::seed_from_u64(nn as u64);
        let mut order: Vec<NodeId> = t.nodes().collect();
        order.shuffle(&mut rng);
        for v in order {
            ft.delete(v);
            worst = worst.max(dist.delete(v).max_per_node);
            assert_eq!(ft.graph(), dist.graph(), "engines diverged at {v:?}");
        }
    }
    assert!(
        worst <= 24,
        "per-node messages {worst} grew beyond the O(1) budget"
    );
}

#[test]
fn degree_never_grows_beyond_three_under_hub_attack() {
    // delete the max-degree node every round: the surrogate killer
    let g = gen::broom(6, 10);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut ft = ForgivingTree::new(&t);
    while !ft.is_empty() {
        let v = ft
            .nodes()
            .max_by_key(|&v| (ft.graph().degree(v), std::cmp::Reverse(v)))
            .expect("nonempty");
        ft.delete(v);
        ft.validate();
    }
}

#[test]
fn report_counts_are_consistent() {
    let g = gen::kary_tree(31, 2);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut ft = ForgivingTree::new(&t);
    let mut dist = DistributedForgivingTree::new(&t);
    let added = ft.delete(n(1));
    let notified = dist.graph().degree(n(1));
    let r = dist.delete(n(1));
    // every added edge is present in the healed graph
    for (a, b) in &added {
        assert!(
            ft.graph().has_edge(*a, *b),
            "reported edge {a:?}-{b:?} missing"
        );
    }
    // the protocol's net additions are among the oracle's, and its ledger
    // counts every notice
    let net_added = dist
        .graph()
        .edges()
        .into_iter()
        .filter(|&(a, b)| !g.has_edge(a, b));
    assert!(net_added.into_iter().all(|e| added.contains(&e)));
    assert_eq!((r.deletions, dist.graph().is_alive(n(1))), (1, false));
    assert!(r.messages >= notified);
    assert!(r.max_per_node <= r.messages);
}

#[test]
fn clone_preserves_state() {
    let g = gen::kary_tree(15, 2);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut ft = ForgivingTree::new(&t);
    ft.delete(n(0));
    let snapshot = ft.clone();
    ft.delete(n(1));
    assert!(snapshot.is_alive(n(1)));
    assert!(!ft.is_alive(n(1)));
    snapshot.validate();
    ft.validate();
}

#[test]
fn virtual_dot_mentions_helpers() {
    let g = gen::star(5);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut ft = ForgivingTree::new(&t);
    ft.delete(n(0));
    let dot = ft.virtual_dot();
    assert!(dot.contains("heir("), "ready heir missing from dot: {dot}");
    assert!(dot.contains("h("), "helpers missing from dot: {dot}");
}

fn permutations(items: &[u32]) -> Vec<Vec<u32>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &x) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut p in permutations(&rest) {
            p.insert(0, x);
            out.push(p);
        }
    }
    out
}

// ---------------------------------------------------------------------
// property tests
// ---------------------------------------------------------------------

/// Strategy: a random Prüfer sequence (tree) plus a deletion order.
fn tree_and_order(max_n: usize) -> impl Strategy<Value = (usize, Vec<usize>, Vec<u32>)> {
    (3..=max_n).prop_flat_map(|nn| {
        (
            Just(nn),
            proptest::collection::vec(0..nn, nn - 2),
            Just((0..nn as u32).collect::<Vec<u32>>()).prop_shuffle(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// INV-A..E + Theorems 1.1/1.2 on uniformly random trees and orders.
    #[test]
    fn random_trees_random_orders((nn, prufer, order) in tree_and_order(24)) {
        let g = gen::prufer_to_tree(nn, &prufer);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let order: Vec<NodeId> = order.iter().map(|&i| n(i)).collect();
        run_sequence(&t, &order);
    }

    /// Healing never increases the degree of any node beyond +3 even when
    /// only a prefix of nodes is deleted (paper: "maxt<n").
    #[test]
    fn prefix_deletions_hold_invariants((nn, prufer, order) in tree_and_order(20), cut in 0usize..20) {
        let g = gen::prufer_to_tree(nn, &prufer);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut ft = ForgivingTree::new(&t);
        for &i in order.iter().take(cut.min(nn)) {
            ft.delete(n(i));
            ft.validate();
        }
    }

    /// The healed structure's diameter respects the explicit bound on
    /// high-degree stars embedded in trees.
    #[test]
    fn broom_trees_hold_diameter(handle in 2usize..6, bristles in 2usize..12, seed in 0u64..50) {
        let g = gen::broom(handle, bristles);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut order: Vec<NodeId> = t.nodes().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);
        run_sequence(&t, &order);
    }
}

// ---------------------------------------------------------------------
// Figure 3 state machine and miscellaneous coverage
// ---------------------------------------------------------------------

#[test]
fn figure3_wait_ready_deployed_transitions() {
    // Figure 3: wait → ready (owner died role-free), ready → deployed
    // (owner's parent died and the heir's helper gains a second child),
    // wait → deployed (non-heir rep takes a SubRT helper).
    let t = RootedTree::from_parent_pairs(
        n(0),
        &[(n(1), n(0)), (n(2), n(1)), (n(3), n(1)), (n(4), n(1))],
    );
    let mut ft = ForgivingTree::new(&t);
    for v in [1u32, 2, 3, 4] {
        assert_eq!(ft.role_kind(n(v)), RoleKind::Wait, "initially waiting");
    }
    ft.delete(n(1));
    ft.validate();
    assert_eq!(ft.role_kind(n(4)), RoleKind::Ready, "heir: wait → ready");
    assert_eq!(
        ft.role_kind(n(2)),
        RoleKind::Deployed,
        "rep: wait → deployed"
    );
    assert_eq!(ft.role_kind(n(3)), RoleKind::Deployed);
    // deleting the root deploys the ready heir into the root's will slot
    ft.delete(n(0));
    ft.validate();
    assert_ne!(ft.role_kind(n(4)), RoleKind::Wait, "heir stays on duty");
}

#[test]
fn ready_heir_bypass_on_parent_death() {
    // v's heir goes ready; when v's parent later dies, the ready vnode is
    // bypassed and the heir takes a full helper role (Figure 5 turn 2).
    let t = RootedTree::from_parent_pairs(
        n(0),
        &[
            (n(1), n(0)),
            (n(5), n(0)),
            (n(2), n(1)),
            (n(3), n(1)),
            (n(4), n(1)),
        ],
    );
    let mut ft = ForgivingTree::new(&t);
    ft.delete(n(1));
    ft.validate();
    assert_eq!(ft.role_kind(n(4)), RoleKind::Ready);
    ft.delete(n(0));
    ft.validate();
    // after the bypass the former ready heir holds a deployed/ready role in
    // RT(0) and the network stays within bounds
    assert!(ft.graph().is_connected());
    assert!(ft.max_degree_increase() <= 3);
}

#[test]
fn ablation_configs_heal_exhaustively_on_small_trees() {
    use crate::shape::ShapeConfig;
    for perm in permutations(&[0, 1, 2, 3, 4]) {
        let g = gen::star(5);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut ft = ForgivingTree::with_config(&t, ShapeConfig { balanced: false });
        for &i in &perm {
            ft.delete(n(i));
            ft.validate();
        }
    }
}

#[test]
fn parent_of_tracks_virtual_structure() {
    let g = gen::star(5);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut ft = ForgivingTree::new(&t);
    assert_eq!(ft.parent_of(n(3)), Some(n(0)));
    assert_eq!(ft.parent_of(n(0)), None);
    ft.delete(n(0));
    // leaves now hang in the RT: every live node has a live parent-sim
    for v in [1u32, 2, 3] {
        let p = ft.parent_of(n(v)).expect("non-root");
        assert!(ft.is_alive(p));
    }
    // the heir simulates the new virtual root
    assert_eq!(ft.root_sim(), Some(n(4)));
}

#[test]
fn root_will_exposes_figure2_portions() {
    let t = RootedTree::from_parent_pairs(
        n(0),
        &[(n(1), n(0)), (n(2), n(0)), (n(3), n(0)), (n(4), n(0))],
    );
    let ft = ForgivingTree::new(&t);
    let will = ft.info[&n(0)].will.as_ref().expect("the root has a will");
    let reps: Vec<NodeId> = will.reps().collect();
    assert_eq!(reps, [n(1), n(2), n(3), n(4)], "one portion per child");
    // non-heirs carry helper assignments; the heir, alone, does not
    for rep in reps {
        let heir = will.heir() == Some(rep);
        assert_eq!(will.portion(rep).helper.is_none(), heir, "{rep:?}");
    }
}
