//! Differential tests: the distributed protocol against the spec engine.
//!
//! Both engines are driven with identical deletion sequences; after *every*
//! deletion the healed graphs must be identical (same live nodes, same edge
//! sets). This is the strongest evidence the message-level protocol realizes
//! the paper's data structure.

use crate::distributed::{
    install_fields, DPortion, DRole, DistributedForgivingTree, Duty, FtMsg, FtNode, PendingSlots,
    VRef,
};
use crate::spec::ForgivingTree;
use ft_graph::hash::{fnv1a, FNV_BASIS};
use ft_graph::tree::RootedTree;
use ft_graph::{gen, Graph, NodeId};
use ft_sim::{Ctx, FaultConfig, Network, Process};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn n(i: u32) -> NodeId {
    NodeId(i)
}

/// Runs both engines in lock-step, asserting graph equality, the O(1)
/// round/message bounds and every processor's cached interests and
/// portions after every deletion.
fn differential_run(tree: &RootedTree, order: &[NodeId]) {
    let mut spec = ForgivingTree::new(tree);
    let mut dist = DistributedForgivingTree::new(tree);
    assert_eq!(spec.graph(), dist.graph(), "initial graphs differ");
    assert_caches_fresh(&dist);
    for (step, &v) in order.iter().enumerate() {
        spec.delete(v);
        let dr = dist.delete(v);
        spec.validate();
        assert_eq!(
            spec.graph(),
            dist.graph(),
            "graphs diverged after step {step} (deleting {v:?}; order {order:?})\nspec: {:?}\ndist: {:?}",
            spec.graph().edges(),
            dist.graph().edges()
        );
        assert!(
            dr.rounds <= 8,
            "recovery took {} rounds (not O(1))",
            dr.rounds
        );
        assert!(
            dr.max_per_node <= 40,
            "a node handled {} messages in one heal",
            dr.max_per_node
        );
        assert_same_structure(&spec, &dist);
        assert_caches_fresh(&dist);
    }
    assert!(dist.is_empty());
    // the simulator's books must reconcile after every campaign
    dist.network()
        .check_accounting()
        .expect("message ledger imbalance");
}

/// Asserts that the structure the omniscient adversary reads — the virtual
/// root's simulator, and every live node's heir and slot representatives
/// — is the same on both engines.
fn assert_same_structure(spec: &ForgivingTree, dist: &DistributedForgivingTree) {
    assert_eq!(spec.root_sim(), dist.root_sim(), "root simulators differ");
    for v in spec.nodes() {
        assert_eq!(spec.heir_of(v), dist.heir_of(v), "heirs of {v:?} differ");
        assert_eq!(
            spec.slot_reps(v),
            dist.slot_reps(v),
            "slots of {v:?} differ"
        );
    }
}

fn assert_caches_fresh(dist: &DistributedForgivingTree) {
    for v in dist.nodes() {
        dist.node(v).assert_caches_fresh();
    }
}

#[test]
fn two_node_tree() {
    for order in [[0u32, 1], [1, 0]] {
        let t = RootedTree::from_parent_pairs(n(0), &[(n(1), n(0))]);
        let order: Vec<NodeId> = order.iter().map(|&i| n(i)).collect();
        differential_run(&t, &order);
    }
}

#[test]
fn star_all_orders() {
    let perms = permutations(&[0, 1, 2, 3, 4]);
    for perm in perms {
        let g = gen::star(5);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let order: Vec<NodeId> = perm.iter().map(|&i| n(i)).collect();
        differential_run(&t, &order);
    }
}

#[test]
fn path_all_orders() {
    let perms = permutations(&[0, 1, 2, 3, 4]);
    for perm in perms {
        let g = gen::path(5);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let order: Vec<NodeId> = perm.iter().map(|&i| n(i)).collect();
        differential_run(&t, &order);
    }
}

#[test]
fn binary_tree_all_orders() {
    // 7! = 5040 full differential runs
    let perms = permutations(&[0, 1, 2, 3, 4, 5, 6]);
    for perm in perms {
        let g = gen::kary_tree(7, 2);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let order: Vec<NodeId> = perm.iter().map(|&i| n(i)).collect();
        differential_run(&t, &order);
    }
}

#[test]
fn wide_star_with_root_first() {
    let g = gen::star(20);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut order: Vec<NodeId> = t.nodes().collect();
    // root first, then leaves in an interleaved order
    order.sort_by_key(|v| (v.0 != 0, v.0 % 3, v.0));
    differential_run(&t, &order);
    // the claims table's Figure 1: v (id 100) with children 1..=8 under
    // P (id 0), v deleted first
    let pairs: Vec<(NodeId, NodeId)> = (1..=8)
        .map(|i| (n(i), n(100)))
        .chain([(n(100), n(0))])
        .collect();
    let t = RootedTree::from_parent_pairs(n(0), &pairs);
    let order: Vec<NodeId> = [100, 0, 8, 3, 1, 7, 2, 6, 4, 5].map(n).to_vec();
    differential_run(&t, &order);
}

#[test]
fn caterpillar_random_orders() {
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..15 {
        let g = gen::caterpillar(4, 3);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut order: Vec<NodeId> = t.nodes().collect();
        order.shuffle(&mut rng);
        differential_run(&t, &order);
    }
}

#[test]
fn kary_trees_random_orders() {
    let mut rng = StdRng::seed_from_u64(23);
    for k in [2usize, 3, 5] {
        for _ in 0..8 {
            let g = gen::kary_tree(31, k);
            let t = RootedTree::from_tree_graph(&g, n(0));
            let mut order: Vec<NodeId> = t.nodes().collect();
            order.shuffle(&mut rng);
            differential_run(&t, &order);
        }
    }
}

#[test]
fn broom_random_orders() {
    let mut rng = StdRng::seed_from_u64(29);
    for _ in 0..15 {
        let g = gen::broom(4, 8);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut order: Vec<NodeId> = t.nodes().collect();
        order.shuffle(&mut rng);
        differential_run(&t, &order);
    }
}

#[test]
fn heir_chain_stress() {
    // repeatedly delete the current heir of the root's will: exercises
    // ready-heir takeover chains
    let g = gen::kary_tree(31, 2);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut spec = ForgivingTree::new(&t);
    let mut dist = DistributedForgivingTree::new(&t);
    while !spec.is_empty() {
        let target = spec
            .nodes()
            .filter_map(|v| spec.heir_of(v))
            .next()
            .or_else(|| spec.nodes().next())
            .expect("nonempty");
        spec.delete(target);
        dist.delete(target);
        spec.validate();
        assert_eq!(spec.graph(), dist.graph(), "diverged at {target:?}");
        assert_same_structure(&spec, &dist);
    }
}

#[test]
fn distributed_node_introspection() {
    let g = gen::star(6);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut dist = DistributedForgivingTree::new(&t);
    dist.delete(n(0));
    // heir (highest-ID child) ends in ready state
    assert!(dist.node(n(5)).is_ready_heir());
    // the other children are deployed helpers
    for c in [1u32, 2, 3, 4] {
        assert!(dist.node(n(c)).is_helper(), "n{c} should be a helper");
        assert!(!dist.node(n(c)).is_ready_heir());
    }
}

#[test]
fn books_balance_after_a_wave_campaign() {
    // Regression for the split-ledger bugs: per-node counts were charged at
    // send time from the outbox (including mail later dropped on dead
    // addressees) while totals counted deliveries, and deletion notices
    // appeared in only one book. After a whole campaign the single ledger
    // must satisfy both identities.
    use ft_sim::{Campaign, CampaignConfig};

    let g = gen::kary_tree(63, 2);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut dist = DistributedForgivingTree::new(&t);
    let mut campaign = Campaign::new(CampaignConfig::default());
    let mut rng = StdRng::seed_from_u64(11);
    while dist.len() > 8 {
        let mut victims: Vec<NodeId> = dist.nodes().collect();
        victims.shuffle(&mut rng);
        victims.truncate(4);
        campaign.run_wave(dist.network_mut(), &victims);
        dist.network().check_accounting().expect("books balance");
    }
    let ledger = dist.ledger();
    assert_eq!(
        ledger.sum_per_node(),
        2 * ledger.total_messages() - ledger.notices(),
        "per-node books reconcile with the totals"
    );
    assert!(ledger.notices() > 0, "deletion notices are on the books");
    assert_eq!(
        campaign.report().messages,
        ledger.total_messages(),
        "campaign report derives from the same ledger"
    );
    assert_eq!(campaign.report().deletions, 63 - dist.len());
}

/// A processor that mails a scripted message on start, then behaves as
/// the [`FtNode`] it wraps: lets a test deliver one message by hand.
struct Probe {
    node: FtNode,
    script: Option<(NodeId, FtMsg)>,
}

impl Process for Probe {
    type Msg = FtMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, FtMsg>) {
        if let Some((to, msg)) = self.script.take() {
            ctx.send(to, msg);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: FtMsg, ctx: &mut Ctx<'_, FtMsg>) {
        self.node.on_message(from, msg, ctx);
    }
}

#[test]
fn portion_leafwill_and_position_occupancy_send_nothing() {
    // kary(15, 2): 1 owns reps 3 and 4; 3 owns leaves 7 and 8
    let t = RootedTree::from_tree_graph(&gen::kary_tree(15, 2), n(0));
    let portion = DPortion {
        owner: n(1),
        next_parent: None,
        duty: Duty::Ready { subrt_root: None },
        top: VRef::helper(n(3)),
        owner_parent: Some(VRef::pos(n(0))),
    };
    let role = DRole {
        hparent: Some(VRef::pos(n(3))),
        hchildren: [VRef::pos(n(7))].into_iter().collect(),
        pending_slots: PendingSlots::default(),
        ready: true,
    };
    let occupy = FtMsg::OccupySlot {
        slot: n(4),
        child: VRef::pos(n(4)),
        your_end: VRef::pos(n(1)),
        replacing: None,
    };
    for (from, to, msg) in [
        (n(1), n(3), FtMsg::Portion(portion)),
        (n(7), n(3), FtMsg::LeafWill(Some(role))),
        (n(4), n(1), occupy),
    ] {
        let mut script = Some((to, msg));
        let mut net = Network::new(t.to_graph(), |v| Probe {
            node: FtNode::new(v),
            script: if v == from { script.take() } else { None },
        });
        install_fields(&mut net, &t, |p| &mut p.node);
        net.start();
        let (stats, cost) = net.step();
        assert_eq!(stats.messages, 1, "the scripted message was delivered");
        assert_eq!(
            (cost.messages_sent, cost.edge_scans),
            (0, 0),
            "{to:?} reacted to a message from {from:?}"
        );
        assert!(!net.has_pending());
        for v in t.nodes() {
            net.process(v).node.assert_caches_fresh();
        }
    }
}

fn pos(i: u32) -> VRef {
    VRef::pos(n(i))
}

fn helper(i: u32) -> VRef {
    VRef::helper(n(i))
}

/// A helper role with `hchildren` under `hparent`, not ready.
fn helper_role(hparent: VRef, hchildren: &[VRef]) -> DRole {
    DRole {
        hparent: Some(hparent),
        hchildren: hchildren.iter().copied().collect(),
        pending_slots: PendingSlots::default(),
        ready: false,
    }
}

/// Deletes node 1 of the path 2–0–1 once `plant` has set up a vnode
/// cycle only lost mail builds, and runs the heal out; returns the nodes
/// left with a vnode that is its own parent or helper child.
fn heal_planted_cycle(plant: fn(&mut Network<FtNode>), faulty: bool) -> Vec<NodeId> {
    let mut net = Network::new(Graph::from_edges(3, &[(0, 1), (0, 2)]), FtNode::new);
    if faulty {
        // armed but empty: the processors degrade, yet no fault fires
        net.set_fault_plan(Some(FaultConfig::zero().plan(1)));
    }
    plant(&mut net);
    let _ = net.delete_node(n(1));
    for _ in 0..12 {
        let (_stats, _cost) = net.step();
    }
    assert!(!net.has_pending(), "the heal quiesces");
    [n(0), n(2)]
        .into_iter()
        .filter(|&v| net.process(v).has_vnode_self_loop())
        .collect()
}

#[test]
#[should_panic(expected = "did not quiesce within 12 rounds")]
fn a_heal_that_does_not_quiesce_panics() {
    // the wave of a heal cut off by its round budget reads `converged: false`
    crate::one_event_wave(12, |campaign| {
        assert_eq!(campaign.config().max_rounds_per_heal, 12);
        ft_sim::WaveStats::default()
    });
}

#[test]
fn splice_sites_skip_vnode_cycles_under_faults_only() {
    // 0's helper hangs under 2's helper and has it as its other child:
    // losing leaf 1 would short-circuit 0's helper onto 2's as its parent
    let short_circuit: fn(&mut Network<FtNode>) = |net| {
        let own = helper_role(helper(2), &[pos(1), helper(2)]);
        net.process_mut(n(0)).force_role(own, vec![(n(1), None)]);
        let other = helper_role(helper(0), &[helper(0)]);
        net.process_mut(n(2)).force_role(other, Vec::new());
    };
    // 1's helper hangs under 0's helper, and 1's LeafWill names 0's
    // helper as its surviving child: splicing it would make 0's helper
    // its own child
    let splice: fn(&mut Network<FtNode>) = |net| {
        let dead = helper_role(helper(0), &[pos(1), helper(0)]);
        let own = helper_role(helper(1), &[helper(1)]);
        net.process_mut(n(0))
            .force_role(own, vec![(n(1), Some(dead))]);
    };
    let sites = [
        (short_circuit, "my helper's parent is its survivor"),
        (splice, "dead's helper survives as my own"),
    ];
    for (plant, guard) in sites {
        let fault_free = catch_unwind(AssertUnwindSafe(|| heal_planted_cycle(plant, false)));
        let message = fault_free.expect_err("a fault-free run must panic");
        let message = message.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains(guard), "{message}");
        assert_eq!(heal_planted_cycle(plant, true), Vec::new(), "{guard}");
    }
}

#[test]
fn message_layout_is_pinned() {
    use std::mem::size_of;
    // `cost.heap_bytes` charges each staged message by its size, and every
    // processor slot holds a DPortion; a portion travels unboxed, so it
    // must fit the message
    assert_eq!(size_of::<FtMsg>(), 64);
    assert_eq!(size_of::<DPortion>(), 56);
    // every role copy a processor keeps is boxed: at 56 bytes a box takes
    // the allocator's 64-byte class, at 64 bytes it would take 80
    assert_eq!(size_of::<DRole>(), 56);
    // the engine stages each send as `(from, to, msg)` and charges exactly
    // this many heap bytes for it: a change here moves `cost.heap_bytes`
    assert_eq!(size_of::<(NodeId, NodeId, FtMsg)>(), 72);
    // the network keeps one slot per ID ever seen, dead IDs included, so a
    // 10^6-node tree pays this figure a million times: the will (with the
    // portions sent from it) and the helper roles stay boxed, and the held
    // edge interests sit inline, to keep it there
    assert_eq!(size_of::<Option<FtNode>>(), 168);
}

#[test]
fn leaf_interests_sit_inline() {
    // a leaf wants only its parent: its interest set must not allocate
    let t = RootedTree::from_tree_graph(&gen::kary_tree(4096, 8), n(0));
    let dist = DistributedForgivingTree::new(&t);
    let leaves: Vec<NodeId> = t.nodes().filter(|&v| t.is_leaf(v)).collect();
    assert_eq!(leaves.len(), 3584);
    for v in leaves {
        assert!(!dist.node(v).desired_spilled(), "{v:?} spilled");
    }
    // a node with eight children and a parent wants nine: it spills
    assert!(dist.node(n(1)).desired_spilled());
}

#[test]
fn helper_roles_sit_inline() {
    // helpers are binary: on a fault-free campaign no role, live or filed
    // in a LeafWill, ever holds a list on the heap
    let t = RootedTree::from_tree_graph(&gen::kary_tree(4096, 8), n(0));
    let mut dist = DistributedForgivingTree::new(&t);
    let mut order: Vec<NodeId> = t.nodes().collect();
    order.shuffle(&mut StdRng::seed_from_u64(7));
    let mut roles_seen = 0;
    for &v in &order[..2000] {
        dist.delete(v);
        for u in dist.nodes() {
            let (roles, spilled) = dist.node(u).roles_spilled();
            assert_eq!(spilled, 0, "{u:?} spilled a role after deleting {v:?}");
            roles_seen += roles;
        }
    }
    assert!(roles_seen > 0, "the campaign deployed no helper");
}

#[test]
fn golden_heal_trace() {
    // Pins every heal's rounds, message counts and added edges on a seeded
    // campaign, so any change in what the processors send fails here (the
    // graph-equality checks above do not see message counts).
    let g = gen::kary_tree(2000, 8);
    let t = RootedTree::from_tree_graph(&g, n(0));
    let mut dist = DistributedForgivingTree::new(&t);
    let mut order: Vec<NodeId> = t.nodes().collect();
    order.shuffle(&mut StdRng::seed_from_u64(15));
    let mut h = FNV_BASIS;
    for &v in &order[..1000] {
        let before = dist.graph().clone();
        let r = dist.delete(v);
        for x in [
            u64::from(r.rounds),
            before.degree(v) as u64,
            r.messages as u64,
            r.max_per_node as u64,
        ] {
            h = fnv1a(h, x.to_le_bytes());
        }
        for (a, b) in dist.graph().edges() {
            if !before.has_edge(a, b) {
                h = fnv1a(h, (u64::from(a.0) << 32 | u64::from(b.0)).to_le_bytes());
            }
        }
    }
    assert_eq!(h, 0x17c1_f797_9b71_9d4e, "heal trace drifted: {h:#018x}");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Differential equivalence on uniformly random trees and orders.
    #[test]
    fn random_trees_differential(
        nn in 3usize..18,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::random_tree(nn, &mut rng);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut order: Vec<NodeId> = t.nodes().collect();
        order.shuffle(&mut rng);
        differential_run(&t, &order);
    }
}
