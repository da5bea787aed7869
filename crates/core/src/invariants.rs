//! Invariant checking for the spec engine.
//!
//! Each check below names the properties INV-A … INV-E it enforces; the
//! property tests call [`ForgivingTree::validate`] after every single
//! deletion, so a violation pinpoints the exact adversarial sequence that
//! broke the structure.

use crate::spec::ForgivingTree;
use crate::varena::{VId, VKind};
use ft_graph::NodeId;
use std::collections::{BTreeMap, BTreeSet};

impl ForgivingTree {
    /// Checks every structural invariant of the data structure.
    ///
    /// # Panics
    /// Panics with a descriptive message on the first violation.
    pub fn validate(&self) {
        self.validate_virtual_tree();
        self.validate_roles();
        self.validate_wills();
        self.validate_image();
        self.validate_degrees();
    }

    /// The virtual structure is a tree rooted at `vroot` containing every
    /// live real node exactly once.
    fn validate_virtual_tree(&self) {
        let Some(vroot) = self.vroot else {
            assert!(self.info.is_empty(), "no root but live nodes remain");
            assert!(self.arena.is_empty(), "no root but vnodes remain");
            return;
        };
        assert!(
            self.arena.node(vroot).parent.is_none(),
            "virtual root has a parent"
        );
        // reachability + cycle freedom
        let mut seen = BTreeSet::new();
        let mut stack = vec![vroot];
        while let Some(id) = stack.pop() {
            assert!(seen.insert(id), "vnode {id:?} reached twice (cycle?)");
            for &c in &self.arena.node(id).children {
                assert_eq!(
                    self.arena.node(c).parent,
                    Some(id),
                    "child/parent link mismatch at {c:?}"
                );
                stack.push(c);
            }
        }
        assert_eq!(
            seen.len(),
            self.arena.len(),
            "orphaned vnodes exist outside the tree"
        );
        // real vnodes ↔ live nodes
        let mut reals = BTreeSet::new();
        for id in self.arena.ids() {
            if let VKind::Real(v) = self.arena.node(id).kind {
                assert!(reals.insert(v), "{v:?} has two real vnodes");
                assert_eq!(
                    self.info.get(&v).map(|i| i.pos),
                    Some(id),
                    "info.pos mismatch for {v:?}"
                );
            }
        }
        let live: BTreeSet<NodeId> = self.info.keys().copied().collect();
        assert_eq!(reals, live, "real vnodes disagree with live node set");
    }

    /// INV-A/INV-B: helper degree discipline and the simulation relation.
    fn validate_roles(&self) {
        let mut sim_of_helper: BTreeMap<VId, NodeId> = BTreeMap::new();
        for id in self.arena.ids() {
            if let VKind::Helper { sim, ready } = self.arena.node(id).kind {
                let nc = self.arena.node(id).children.len();
                if ready {
                    assert_eq!(nc, 1, "ready heir {id:?} must have exactly 1 child");
                } else {
                    assert_eq!(nc, 2, "deployed helper {id:?} must have exactly 2 children");
                }
                assert!(
                    self.info.contains_key(&sim),
                    "helper {id:?} simulated by dead node {sim:?}"
                );
                sim_of_helper.insert(id, sim);
            }
        }
        // each real node simulates at most one helper, and exactly the one
        // recorded in its info
        let mut claimed: BTreeSet<VId> = BTreeSet::new();
        for (&v, info) in &self.info {
            if let Some(role) = info.role {
                assert!(claimed.insert(role), "role {role:?} simulated twice");
                assert_eq!(
                    sim_of_helper.get(&role),
                    Some(&v),
                    "{v:?}'s role is not simulated by {v:?}"
                );
            }
        }
        assert_eq!(
            claimed.len(),
            sim_of_helper.len(),
            "helpers exist that no live node claims as its role"
        );
    }

    /// Will/slot bookkeeping: slots mirror virtual children of real vnodes;
    /// representatives are alive and free-or-ready (INV-C); shapes validate.
    fn validate_wills(&self) {
        for (&v, info) in &self.info {
            match &info.will {
                None => assert!(info.slots.is_empty(), "{v:?} has slots but no will"),
                Some(will) => {
                    will.validate();
                    assert!(!info.slots.is_empty(), "{v:?} has a will but no slots");
                    let reps: BTreeSet<NodeId> = will.reps().collect();
                    let slot_keys: BTreeSet<NodeId> = info.slots.keys().copied().collect();
                    assert_eq!(reps, slot_keys, "will reps disagree with slots for {v:?}");
                    // slots mirror the virtual children of v's position
                    let vchildren: BTreeSet<VId> =
                        self.arena.node(info.pos).children.iter().copied().collect();
                    let roots: BTreeSet<VId> = info.slots.values().copied().collect();
                    assert_eq!(
                        vchildren, roots,
                        "slot roots disagree with virtual children of {v:?}"
                    );
                    for (&rep, &root) in &info.slots {
                        let rinfo = self
                            .info
                            .get(&rep)
                            .unwrap_or_else(|| panic!("dead rep {rep:?} in {v:?}'s will"));
                        match rinfo.role {
                            None => {
                                // free rep: the slot root is its own position
                                assert_eq!(
                                    root, rinfo.pos,
                                    "free rep {rep:?} must be its own slot root"
                                );
                            }
                            Some(role) => {
                                // ready rep: its role is the slot root
                                assert_eq!(
                                    role, root,
                                    "INV-C: rep {rep:?}'s role must be the slot root"
                                );
                                assert!(
                                    self.arena.is_ready(role),
                                    "INV-C: rep {rep:?}'s role must be ready"
                                );
                            }
                        }
                    }
                }
            }
        }
        // ready vnodes that are slot roots were checked above; also check
        // that leaves under their live original parent hold no role (the
        // precondition of the simple FixLeafDeletion case).
        for (&v, info) in &self.info {
            if let Some(p) = self.arena.node(info.pos).parent {
                if let VKind::Real(pid) = self.arena.node(p).kind {
                    let is_original_child = self.info[&pid].slots.get(&v) == Some(&info.pos);
                    if is_original_child && info.slots.is_empty() {
                        assert!(
                            info.role.is_none(),
                            "leaf {v:?} under live original parent {pid:?} holds a role"
                        );
                    }
                }
            }
        }
    }

    /// INV-E: the real graph equals the homomorphic image of the virtual
    /// tree, and the multi-edge accounting matches.
    fn validate_image(&self) {
        let mut expect: BTreeMap<(NodeId, NodeId), u32> = BTreeMap::new();
        for (p, c) in self.arena.vedges() {
            let (a, b) = (self.arena.sim(p), self.arena.sim(c));
            if a != b {
                let key = if a <= b { (a, b) } else { (b, a) };
                *expect.entry(key).or_insert(0) += 1;
            }
        }
        assert_eq!(
            expect, self.edge_count,
            "edge multiset accounting out of sync"
        );
        let image_edges: Vec<(NodeId, NodeId)> = expect.keys().copied().collect();
        assert_eq!(
            self.graph.edges(),
            image_edges,
            "real graph disagrees with the virtual-tree image"
        );
        let live: BTreeSet<NodeId> = self.info.keys().copied().collect();
        let graph_nodes: BTreeSet<NodeId> = self.graph.nodes().collect();
        assert_eq!(live, graph_nodes, "graph alive-set mismatch");
        if !self.info.is_empty() {
            assert!(self.graph.is_connected(), "healed network disconnected");
        }
    }

    /// INV-D: Theorem 1.1 — degree increase at most 3, forever.
    fn validate_degrees(&self) {
        for v in self.nodes() {
            let inc = self.degree_increase(v);
            assert!(
                inc <= 3,
                "{v:?} degree increased by {inc} (> 3): Theorem 1.1 violated"
            );
        }
    }
}
