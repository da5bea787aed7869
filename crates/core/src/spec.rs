//! The Forgiving Tree specification engine.
//!
//! [`ForgivingTree`] maintains the paper's virtual tree *exactly* — real
//! nodes, helper nodes, ready heirs, wills and slot representatives — under
//! adversarial deletions, together with the real network as the homomorphic
//! image of the virtual tree. It is "centralized" only in the sense that one
//! data structure holds all node states; every heal touches O(degree) state
//! and inserts the same edges the distributed protocol does. It is a test
//! oracle: the message-passing [`crate::distributed`] engine is what the
//! healers, the adversary and the claims table run, and the differential
//! suites check it against this engine after every deletion. Messages are
//! counted only there. Outside the tests, only the SubRT ablation row
//! ([`ShapeConfig`]) of the claims table reads this engine.
//!
//! Terminology follows §3 of the paper:
//!
//! - every real node `v` owns a *will* ([`crate::shape::SubRtShape`])
//!   describing how its children rebuild `RT(v)` when `v` dies;
//! - each child *slot* of `v` has a *representative*: the live node that
//!   holds that portion of the will and will simulate the slot's helper. A
//!   representative is the original child, or the heir that replaced it;
//! - a node *simulates* at most one helper vnode (its *role*): `None`,
//!   *ready* (degree-2 heir-in-waiting) or *deployed* (degree-3 helper);
//! - deleting an internal node splices its prepared SubRT in place
//!   ([Algorithm 3.3/3.8/3.9]); deleting a leaf short-circuits redundant
//!   helpers and passes the leaf's role to its parent ([Algorithm 3.4/3.7]).

use crate::ft_diameter_bound;
use crate::shape::{PortionRef, ShapeConfig, SubRtShape};
use crate::varena::{VArena, VId, VKind};
use ft_graph::tree::RootedTree;
use ft_graph::{Graph, NodeId};
use std::collections::BTreeMap;

/// A live node's helper status (Figure 3 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoleKind {
    /// No helper duties ("wait" state).
    Wait,
    /// Simulating a ready-state heir (degree-2 virtual node).
    Ready,
    /// Simulating a deployed helper (degree-3 virtual node).
    Deployed,
}

#[derive(Clone, Debug)]
pub(crate) struct RealInfo {
    /// This node's own position in the virtual tree.
    pub(crate) pos: VId,
    /// The helper vnode this node simulates, if any.
    pub(crate) role: Option<VId>,
    /// The prepared SubRT plan (present iff the node has child slots).
    pub(crate) will: Option<SubRtShape>,
    /// Slot representative → current root vnode of that slot's subtree.
    pub(crate) slots: BTreeMap<NodeId, VId>,
}

/// The Forgiving Tree data structure.
///
/// # Example
///
/// ```
/// use ft_core::spec::ForgivingTree;
/// use ft_graph::{gen, tree::RootedTree, NodeId};
///
/// let g = gen::kary_tree(15, 2);
/// let t = RootedTree::from_tree_graph(&g, NodeId(0));
/// let mut ft = ForgivingTree::new(&t);
/// let added = ft.delete(NodeId(1)); // adversary removes an internal node
/// assert!(ft.graph().is_connected());
/// assert!(ft.max_degree_increase() <= 3);
/// assert!(added.iter().all(|&(a, b)| ft.graph().has_edge(a, b)));
/// ```
#[derive(Clone, Debug)]
pub struct ForgivingTree {
    pub(crate) arena: VArena,
    pub(crate) vroot: Option<VId>,
    pub(crate) graph: Graph,
    pub(crate) info: BTreeMap<NodeId, RealInfo>,
    pub(crate) orig_degree: BTreeMap<NodeId, usize>,
    pub(crate) edge_count: BTreeMap<(NodeId, NodeId), u32>,
    pub(crate) initial_height: u32,
    pub(crate) initial_max_degree: usize,
    pub(crate) deletions: usize,
    /// Real edges the heal in progress has inserted, `(a, b)` with `a < b`.
    pub(crate) heal_edges: Vec<(NodeId, NodeId)>,
}

fn ord(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl ForgivingTree {
    /// Initializes the data structure over a rooted spanning tree
    /// (Algorithm 3.2: every node computes its SubRT and distributes its
    /// will).
    pub fn new(tree: &RootedTree) -> Self {
        Self::with_config(tree, ShapeConfig::default())
    }

    /// Initializes with explicit SubRT construction knobs (E10 ablations).
    pub fn with_config(tree: &RootedTree, config: ShapeConfig) -> Self {
        let mut arena = VArena::new();
        let mut pos = BTreeMap::new();
        for v in tree.nodes() {
            pos.insert(v, arena.alloc(VKind::Real(v)));
        }
        let mut edge_count = BTreeMap::new();
        let mut info = BTreeMap::new();
        let mut orig_degree = BTreeMap::new();
        for v in tree.nodes() {
            let children = tree.children(v);
            if let Some(p) = tree.parent(v) {
                arena.link(pos[&p], pos[&v]);
                edge_count.insert(ord(p, v), 1);
            }
            let (will, slots) = if children.is_empty() {
                (None, BTreeMap::new())
            } else {
                (
                    Some(SubRtShape::build_with(children, config)),
                    children.iter().map(|&c| (c, pos[&c])).collect(),
                )
            };
            orig_degree.insert(v, tree.degree(v));
            info.insert(
                v,
                RealInfo {
                    pos: pos[&v],
                    role: None,
                    will,
                    slots,
                },
            );
        }
        ForgivingTree {
            arena,
            vroot: Some(pos[&tree.root()]),
            graph: tree.to_graph(),
            info,
            orig_degree,
            edge_count,
            initial_height: tree.height(),
            initial_max_degree: tree.max_degree(),
            deletions: 0,
            heal_edges: Vec::new(),
        }
    }

    /// The current healed network (the homomorphic image of the virtual
    /// tree).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Whether `v` is still alive.
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.info.contains_key(&v)
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.info.len()
    }

    /// True when every node has been deleted.
    pub fn is_empty(&self) -> bool {
        self.info.is_empty()
    }

    /// Live node IDs in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.info.keys().copied()
    }

    /// Number of deletions healed so far.
    pub fn deletions(&self) -> usize {
        self.deletions
    }

    /// The real node simulating the virtual root, if any node remains.
    pub fn root_sim(&self) -> Option<NodeId> {
        self.vroot.map(|r| self.arena.sim(r))
    }

    /// Height of the original spanning tree (the `h` of Theorem 1.2's
    /// proof).
    pub fn initial_height(&self) -> u32 {
        self.initial_height
    }

    /// Maximum degree of the original spanning tree (the paper's Δ).
    pub fn initial_max_degree(&self) -> usize {
        self.initial_max_degree
    }

    /// The explicit-constant diameter bound this implementation guarantees,
    /// [`ft_diameter_bound`] of the original tree.
    pub fn diameter_bound(&self) -> u32 {
        ft_diameter_bound(self.initial_height, self.initial_max_degree)
    }

    /// Degree increase of `v` over its original degree (0 for dead nodes).
    pub fn degree_increase(&self, v: NodeId) -> i64 {
        if !self.is_alive(v) {
            return 0;
        }
        self.graph.degree(v) as i64 - self.orig_degree[&v] as i64
    }

    /// The largest degree increase any live node currently suffers
    /// (Theorem 1.1 bounds this by 3, forever).
    pub fn max_degree_increase(&self) -> i64 {
        self.nodes()
            .map(|v| self.degree_increase(v))
            .max()
            .unwrap_or(0)
    }

    /// The heir named in `v`'s current will, if `v` has children slots.
    pub fn heir_of(&self, v: NodeId) -> Option<NodeId> {
        self.info.get(&v)?.will.as_ref()?.heir()
    }

    /// Current slot representatives of `v`'s will ("children(v)" in Table 1).
    pub fn slot_reps(&self, v: NodeId) -> Vec<NodeId> {
        self.info
            .get(&v)
            .map(|i| i.slots.keys().copied().collect())
            .unwrap_or_default()
    }

    /// `v`'s helper status (Figure 3's wait / ready / deployed).
    pub fn role_kind(&self, v: NodeId) -> RoleKind {
        match self.info.get(&v).and_then(|i| i.role) {
            None => RoleKind::Wait,
            Some(h) if self.arena.is_ready(h) => RoleKind::Ready,
            Some(_) => RoleKind::Deployed,
        }
    }

    /// The paper's `parent(v)` field: the simulator of the nearest ancestor
    /// virtual node not simulated by `v` itself. `None` for the root.
    pub fn parent_of(&self, v: NodeId) -> Option<NodeId> {
        let info = self.info.get(&v)?;
        let mut cur = self.arena.node(info.pos).parent?;
        loop {
            let s = self.arena.sim(cur);
            if s != v {
                return Some(s);
            }
            cur = self.arena.node(cur).parent?;
        }
    }

    /// Deletes node `v` (the adversary's move) and heals the network,
    /// returning the real edges the heal inserted, each as `(a, b)` with
    /// `a < b`, in the order the heal made them.
    ///
    /// # Panics
    /// Panics if `v` is not alive.
    pub fn delete(&mut self, v: NodeId) -> Vec<(NodeId, NodeId)> {
        let info = self
            .info
            .remove(&v)
            .unwrap_or_else(|| panic!("{v:?} is not alive"));
        self.graph.delete_node(v);
        if info.slots.is_empty() {
            self.heal_leaf(v, info);
        } else {
            self.heal_internal(v, info);
        }
        self.deletions += 1;
        std::mem::take(&mut self.heal_edges)
    }

    // ------------------------------------------------------------------
    // image maintenance
    // ------------------------------------------------------------------

    /// Counts one more virtual edge between simulators `a` and `b`; the
    /// first one inserts the real edge.
    fn add_image(&mut self, a: NodeId, b: NodeId) {
        if a == b {
            return;
        }
        let cnt = self.edge_count.entry(ord(a, b)).or_insert(0);
        *cnt += 1;
        if *cnt == 1 {
            self.graph.add_edge(a, b);
            self.heal_edges.push(ord(a, b));
        }
    }

    /// Retracts one virtual edge between simulators `a` and `b`; the last
    /// one removes the real edge, unless an endpoint is the dying node.
    fn retract_image(&mut self, a: NodeId, b: NodeId, dying: NodeId) {
        if a == b {
            return;
        }
        let key = ord(a, b);
        let cnt = self
            .edge_count
            .get_mut(&key)
            .expect("image edge accounting out of sync");
        *cnt -= 1;
        if *cnt == 0 {
            self.edge_count.remove(&key);
            if a != dying && b != dying {
                self.graph.remove_edge(a, b);
            }
        }
    }

    fn vlink(&mut self, parent: VId, child: VId) {
        self.arena.link(parent, child);
        self.add_image(self.arena.sim(parent), self.arena.sim(child));
    }

    fn vunlink(&mut self, parent: VId, child: VId, dying: NodeId) {
        self.arena.unlink(parent, child);
        self.retract_image(self.arena.sim(parent), self.arena.sim(child), dying);
    }

    /// Makes live node `s` the simulator of helper vnode `h` and records
    /// `h` as its role, moving `h`'s image edges from the old simulator.
    fn take_role(&mut self, h: VId, s: NodeId, dying: NodeId) {
        let info = self.info.get_mut(&s).expect("new simulator alive");
        assert!(info.role.is_none(), "{s:?} already busy");
        info.role = Some(h);
        let old = self.arena.sim(h);
        if old == s {
            return;
        }
        let node = self.arena.node(h);
        let mut nbrs: Vec<NodeId> = node.children.iter().map(|&c| self.arena.sim(c)).collect();
        if let Some(p) = node.parent {
            nbrs.push(self.arena.sim(p));
        }
        for n in nbrs {
            self.retract_image(old, n, dying);
            self.add_image(s, n);
        }
        match &mut self.arena.node_mut(h).kind {
            VKind::Helper { sim, .. } => *sim = s,
            VKind::Real(_) => panic!("take_role on a real vnode"),
        }
    }

    // ------------------------------------------------------------------
    // healing
    // ------------------------------------------------------------------

    /// FixNodeDeletion (Algorithm 3.3): replace the dead internal node by
    /// its Reconstruction Tree.
    fn heal_internal(&mut self, v: NodeId, info: RealInfo) {
        let x = info.pos;
        let role = info.role;
        let will = info.will.expect("internal node has a will");
        let mut slots = info.slots;
        let px = self.arena.node(x).parent;

        // A. Detach every slot subtree from x; bypass ready-state roles of
        //    slot representatives first (Algorithm 3.8 lines 2-4).
        let reps: Vec<NodeId> = slots.keys().copied().collect();
        for &rep in &reps {
            let root = slots[&rep];
            match self.info[&rep].role {
                Some(rv) if rv == root => {
                    assert!(
                        self.arena.is_ready(rv),
                        "INV-C: a slot-root role must be a ready heir"
                    );
                    let (children, _) = self.dissolve(rv, v);
                    self.info.get_mut(&rep).expect("rep alive").role = None;
                    slots.insert(rep, children[0]);
                }
                Some(other) => panic!(
                    "INV-C violated: slot rep {rep:?} holds role {other:?} ≠ slot root {root:?}"
                ),
                None => {
                    debug_assert_eq!(
                        root, self.info[&rep].pos,
                        "a role-free rep is its own slot root"
                    );
                    self.vunlink(x, root, v);
                }
            }
        }

        // B. Detach x from its parent and retire it.
        if let Some(p) = px {
            self.vunlink(p, x, v);
        }
        self.arena.release(x);

        // C. Instantiate the SubRT from the prepared will (Algorithm 3.9:
        //    every non-heir representative becomes a deployed helper).
        let mut created: BTreeMap<NodeId, VId> = BTreeMap::new();
        let mut plan: Vec<(NodeId, PortionRef, PortionRef)> = Vec::new();
        let root_ref = will.visit_internals(|sim, l, r| plan.push((sim, l, r)));
        let resolve = |created: &BTreeMap<NodeId, VId>, r: PortionRef| match r {
            PortionRef::Helper(s) => created[&s],
            PortionRef::Slot(rep) => slots[&rep],
        };
        for (sim, l, r) in plan {
            let hv = self.arena.alloc(VKind::Helper { sim, ready: false });
            let (li, ri) = (resolve(&created, l), resolve(&created, r));
            self.vlink(hv, li);
            self.vlink(hv, ri);
            self.take_role(hv, sim, v);
            created.insert(sim, hv);
        }
        let subrt_root = resolve(&created, root_ref.expect("internal node has ≥1 slot"));
        let heir = will.heir().expect("nonempty will");

        // D. Place the heir (Algorithm 3.6's two modes). If v had no helper
        //    duties, the heir becomes a ready-state heir above the SubRT
        //    root, under v's old parent; otherwise it takes them over
        //    wholesale (ready stays ready, deployed stays deployed).
        let hv = role.unwrap_or_else(|| {
            self.arena.alloc(VKind::Helper {
                sim: heir,
                ready: true,
            })
        });
        self.take_role(hv, heir, v);
        if role.is_some() {
            self.hang(px, subrt_root);
        } else {
            self.vlink(hv, subrt_root);
            match px {
                None => self.vroot = Some(hv),
                Some(p) => self.vlink(p, hv),
            }
        }
        // "hparent(h) replaces v by h in SubRT" (Alg 3.3)
        self.hand_slot(hv, v, heir);
    }

    /// FixLeafDeletion (Algorithm 3.4): short-circuit redundant helpers and
    /// execute the LeafWill.
    fn heal_leaf(&mut self, v: NodeId, info: RealInfo) {
        let x = info.pos;
        let role = info.role;
        let Some(p_vid) = self.arena.node(x).parent else {
            // v was the last node of the structure
            assert!(role.is_none(), "a sole surviving node cannot hold a role");
            assert_eq!(self.vroot, Some(x), "parentless vnode must be the root");
            self.arena.release(x);
            self.vroot = None;
            return;
        };
        self.vunlink(p_vid, x, v);
        self.arena.release(x);
        match self.arena.node(p_vid).kind {
            VKind::Real(p) => {
                // Simple case (§3.1.3): the leaf hung under its original
                // live parent; it cannot hold helper duties (the paper's
                // Alg 3.4 line 2 misprints this condition).
                assert!(
                    role.is_none(),
                    "leaf under its live original parent cannot hold a role"
                );
                self.prune_slot(p, v);
            }
            VKind::Helper { sim, ready } if sim == v => {
                // v's virtual parent is v's own helper: both vanish together
                // (MakeLeafWill's special case, Alg 3.7 lines 2-4).
                assert_eq!(
                    role,
                    Some(p_vid),
                    "helper above v simulated by v is v's role"
                );
                let (others, pp) = self.dissolve(p_vid, v);
                if !ready {
                    let [y] = others[..] else {
                        panic!("deployed helper has two children")
                    };
                    self.hang(pp, y);
                    return;
                }
                // the ready vnode lost its only child: the whole slot
                // dissolves.
                assert!(others.is_empty(), "ready vnode has one child");
                match pp.map(|pp| (pp, self.arena.node(pp).kind)) {
                    None => {
                        self.vroot = None;
                        assert!(
                            self.info.is_empty(),
                            "root ready-heir chain implies v was the last node"
                        );
                    }
                    Some((_, VKind::Real(g))) => self.prune_slot(g, v),
                    Some((pp, VKind::Helper { ready, .. })) => {
                        assert!(!ready, "ready vnodes never parent ready vnodes");
                        // pp dropped from 2 children to 1: redundant
                        self.short_circuit(pp, v, None);
                    }
                }
            }
            VKind::Helper { sim: q, ready } => {
                // General helper-parent case: P drops to one child, is
                // short-circuited, and q inherits v's helper duties from the
                // LeafWill (Alg 3.4 lines 7-16); "p detects this and sets
                // its flags accordingly".
                assert!(
                    !ready,
                    "a ready vnode's only child is its simulator's position"
                );
                self.short_circuit(p_vid, v, role);
                if let Some(hv) = role {
                    self.hand_slot(hv, v, q);
                }
            }
        }
    }

    /// Short-circuits a deployed helper that dropped to a single child
    /// (§3: "its degree has now reduced from 3 to 2, at which point we
    /// consider it redundant"). Its simulator then inherits `leaf_role`,
    /// a dead leaf's helper, *before* the survivor is re-linked: that
    /// helper may be the very parent the survivor re-attaches under.
    fn short_circuit(&mut self, h: VId, dying: NodeId, leaf_role: Option<VId>) {
        let s = self.arena.sim(h);
        assert!(
            self.arena.is_helper(h) && !self.arena.is_ready(h),
            "short-circuit expects a deployed helper"
        );
        let (children, pp) = self.dissolve(h, dying);
        let [y] = children[..] else {
            panic!("short-circuit expects a single child")
        };
        {
            let sinfo = self.info.get_mut(&s).expect("simulator alive");
            assert_eq!(sinfo.role, Some(h), "s simulates h");
            sinfo.role = None;
        }
        if let Some(hv) = leaf_role {
            self.take_role(hv, s, dying);
        }
        self.hang(pp, y);
    }

    /// Unlinks helper `h` from its children and its parent and retires it,
    /// returning both.
    fn dissolve(&mut self, h: VId, dying: NodeId) -> (Vec<VId>, Option<VId>) {
        let children = self.arena.node(h).children.clone();
        let pp = self.arena.node(h).parent;
        for &c in &children {
            self.vunlink(h, c, dying);
        }
        if let Some(pp) = pp {
            self.vunlink(pp, h, dying);
        }
        self.arena.release(h);
        (children, pp)
    }

    /// Hangs the surviving subtree `y` under `pp`, or makes it the root.
    fn hang(&mut self, pp: Option<VId>, y: VId) {
        match pp {
            None => self.vroot = Some(y),
            Some(pp) => {
                assert!(
                    !matches!(self.arena.node(pp).kind, VKind::Real(_)),
                    "a deployed helper never hangs under a live original parent"
                );
                self.vlink(pp, y);
            }
        }
    }

    /// When ready vnode `rv` roots a slot of its owner's will, the will
    /// now names `new` for dead representative `dead`'s slot.
    fn hand_slot(&mut self, rv: VId, dead: NodeId, new: NodeId) {
        let Some(p) = self
            .arena
            .node(rv)
            .parent
            .filter(|_| self.arena.is_ready(rv))
        else {
            return;
        };
        if let VKind::Real(owner) = self.arena.node(p).kind {
            let info = self.info.get_mut(&owner).expect("owner alive");
            info.slots
                .remove(&dead)
                .expect("dead was a rep of its owner");
            info.slots.insert(new, rv);
            let will = info.will.as_mut().expect("owner has a will");
            will.replace_rep(dead, new);
        }
    }

    /// Prunes `v`'s slot from `owner`'s will, and the will once empty.
    fn prune_slot(&mut self, owner: NodeId, v: NodeId) {
        let info = self.info.get_mut(&owner).expect("owner alive");
        info.slots.remove(&v).expect("v was a slot of its owner");
        let will = info.will.as_mut().expect("owner has a will");
        will.remove_slot(v);
        if will.is_empty() {
            info.will = None;
        }
    }

    // ------------------------------------------------------------------
    // debugging / figures
    // ------------------------------------------------------------------

    /// Renders the virtual tree in Graphviz DOT (real nodes as boxes,
    /// helpers as ellipses labelled by simulator, ready heirs dashed).
    pub fn virtual_dot(&self) -> String {
        let mut s = String::from("digraph virtual {\n");
        for id in self.arena.ids() {
            let label = match self.arena.node(id).kind {
                VKind::Real(v) => format!("  v{id:?} [shape=box,label=\"{v}\"];\n"),
                VKind::Helper { sim, ready: true } => {
                    format!("  v{id:?} [shape=ellipse,style=dashed,label=\"heir({sim})\"];\n")
                }
                VKind::Helper { sim, ready: false } => {
                    format!("  v{id:?} [shape=ellipse,label=\"h({sim})\"];\n")
                }
            };
            s.push_str(&label);
        }
        for (p, c) in self.arena.vedges() {
            s.push_str(&format!("  v{p:?} -> v{c:?};\n"));
        }
        s.push_str("}\n");
        s
    }
}
