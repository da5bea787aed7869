//! # ft-baselines — self-healing strategies and the common healer trait
//!
//! The paper's introduction motivates the Forgiving Tree by the failure
//! modes of the naive alternatives:
//!
//! - "simply to 'surrogate' one neighbor of the deleted node … an
//!   intelligent adversary can always cause this approach to increase the
//!   degree of some node by θ(n)" — [`SurrogateHealer`];
//! - "connecting neighbors of the deleted node as a straight line" keeps
//!   degrees small but "the diameter can increase by θ(n)" —
//!   [`LineHealer`];
//! - "connecting the neighbors of the deleted node in a binary tree" also
//!   suffers θ(n) diameter growth over multiple adversarial deletions —
//!   [`BinaryTreeHealer`].
//!
//! All strategies implement [`SelfHealer`], as do [`ForgivingHealer`] (the
//! paper's data structure), [`ForgivingGraphHealer`] (the successor
//! paper's insert/delete healer, differential-comparable on the same
//! deletion sweeps), and [`NoHeal`] (a do-nothing reference), so the
//! experiment harness can sweep them uniformly. Experiment E5 regenerates
//! the quoted blow-ups.
//!
//! The two Forgiving healers run the message-passing engines
//! ([`DistributedForgivingTree`], [`DistributedForgivingGraph`]): each
//! heal runs to quiescence and its [`HealReport`] is read from the
//! simulator's ledger.

use ft_core::distributed::DistributedForgivingTree;
use ft_core::{DistributedForgivingGraph, HealReport};
use ft_graph::tree::RootedTree;
use ft_graph::{Graph, NodeId};

/// A strategy that repairs the network after each adversarial deletion.
pub trait SelfHealer {
    /// Short name for tables.
    fn name(&self) -> &'static str;

    /// The current network.
    fn graph(&self) -> &Graph;

    /// The network degree increases are measured against: the initial
    /// one, or for the Forgiving Graph the pristine one (every insertion,
    /// no deletion).
    fn baseline(&self) -> &Graph;

    /// Deletes `v` and heals; returns the heal transcript.
    ///
    /// # Panics
    /// Implementations panic when `v` is not alive.
    fn delete(&mut self, v: NodeId) -> HealReport;

    /// Degree increase of `v` over the baseline network.
    fn degree_increase(&self, v: NodeId) -> i64 {
        self.graph().degree(v) as i64 - self.baseline().degree(v) as i64
    }

    /// Largest degree increase any live node currently suffers.
    fn max_degree_increase(&self) -> i64 {
        self.graph().max_degree_increase_over(self.baseline())
    }

    /// Live node count.
    fn len(&self) -> usize {
        self.graph().len()
    }

    /// True when every node has been deleted.
    fn is_empty(&self) -> bool {
        self.graph().is_empty()
    }

    /// Whether `v` is alive.
    fn is_alive(&self, v: NodeId) -> bool {
        self.graph().is_alive(v)
    }

    /// The Forgiving Tree protocol, when this healer runs one: the
    /// omniscient adversary reads its processors' fields.
    fn as_forgiving(&self) -> Option<&DistributedForgivingTree> {
        None
    }
}

/// Builds a [`HealReport`] for a baseline heal that added `added` edges.
fn baseline_report(v: NodeId, notified: usize, added: Vec<(NodeId, NodeId)>) -> HealReport {
    let mut per_node: std::collections::BTreeMap<NodeId, usize> = std::collections::BTreeMap::new();
    let mut total = notified;
    for (a, b) in &added {
        total += 2;
        *per_node.entry(*a).or_insert(0) += 1;
        *per_node.entry(*b).or_insert(0) += 1;
    }
    HealReport {
        deleted: Some(v),
        notified,
        total_messages: total,
        max_messages_per_node: per_node.values().max().copied().unwrap_or(0) + 1,
        edges_added: added,
        rounds: 1,
    }
}

/// No repair at all: the reference point for connectivity loss.
#[derive(Clone, Debug)]
pub struct NoHeal {
    graph: Graph,
    orig: Graph,
}

impl NoHeal {
    /// Wraps a network without any healing.
    pub fn new(graph: Graph) -> Self {
        let orig = graph.clone();
        NoHeal { graph, orig }
    }
}

impl SelfHealer for NoHeal {
    fn name(&self) -> &'static str {
        "no-heal"
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn baseline(&self) -> &Graph {
        &self.orig
    }

    fn delete(&mut self, v: NodeId) -> HealReport {
        let nbrs = self.graph.delete_node(v);
        baseline_report(v, nbrs.len(), Vec::new())
    }
}

/// The surrogate strategy: the lowest-ID surviving neighbor of the deleted
/// node absorbs all its other neighbors.
#[derive(Clone, Debug)]
pub struct SurrogateHealer {
    graph: Graph,
    orig: Graph,
}

impl SurrogateHealer {
    /// Wraps a network with surrogate healing.
    pub fn new(graph: Graph) -> Self {
        let orig = graph.clone();
        SurrogateHealer { graph, orig }
    }
}

impl SelfHealer for SurrogateHealer {
    fn name(&self) -> &'static str {
        "surrogate"
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn baseline(&self) -> &Graph {
        &self.orig
    }

    fn delete(&mut self, v: NodeId) -> HealReport {
        let nbrs = self.graph.delete_node(v);
        let mut added = Vec::new();
        if let Some(&surrogate) = nbrs.first() {
            for &u in &nbrs[1..] {
                if self.graph.add_edge(surrogate, u) {
                    added.push((surrogate, u));
                }
            }
        }
        baseline_report(v, nbrs.len(), added)
    }
}

/// The straight-line strategy: neighbors of the deleted node are joined in
/// a path in ascending ID order.
#[derive(Clone, Debug)]
pub struct LineHealer {
    graph: Graph,
    orig: Graph,
}

impl LineHealer {
    /// Wraps a network with line healing.
    pub fn new(graph: Graph) -> Self {
        let orig = graph.clone();
        LineHealer { graph, orig }
    }
}

impl SelfHealer for LineHealer {
    fn name(&self) -> &'static str {
        "line"
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn baseline(&self) -> &Graph {
        &self.orig
    }

    fn delete(&mut self, v: NodeId) -> HealReport {
        let nbrs = self.graph.delete_node(v); // ascending order already
        let mut added = Vec::new();
        for w in nbrs.windows(2) {
            if self.graph.add_edge(w[0], w[1]) {
                added.push((w[0], w[1]));
            }
        }
        baseline_report(v, nbrs.len(), added)
    }
}

/// The binary-tree strategy: neighbors of the deleted node are joined as a
/// balanced binary tree (heap layout over the ID-sorted neighbor list).
#[derive(Clone, Debug)]
pub struct BinaryTreeHealer {
    graph: Graph,
    orig: Graph,
}

impl BinaryTreeHealer {
    /// Wraps a network with binary-tree healing.
    pub fn new(graph: Graph) -> Self {
        let orig = graph.clone();
        BinaryTreeHealer { graph, orig }
    }
}

impl SelfHealer for BinaryTreeHealer {
    fn name(&self) -> &'static str {
        "binary-tree"
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn baseline(&self) -> &Graph {
        &self.orig
    }

    fn delete(&mut self, v: NodeId) -> HealReport {
        let nbrs = self.graph.delete_node(v);
        let mut added = Vec::new();
        // heap layout: node i's parent is (i-1)/2
        for i in 1..nbrs.len() {
            let p = (i - 1) / 2;
            if self.graph.add_edge(nbrs[p], nbrs[i]) {
                added.push((nbrs[p], nbrs[i]));
            }
        }
        baseline_report(v, nbrs.len(), added)
    }
}

/// The paper's data structure behind the [`SelfHealer`] interface: the
/// message-passing [`DistributedForgivingTree`], whose fields the
/// omniscient adversary reads through [`SelfHealer::as_forgiving`].
///
/// ```
/// use ft_baselines::{ForgivingHealer, SelfHealer};
/// use ft_graph::{gen, NodeId};
///
/// let mut h = ForgivingHealer::from_tree_graph(&gen::kary_tree(40, 3), NodeId(0));
/// h.delete(NodeId(0));
/// let report = h.delete(NodeId(1));
/// assert!(h.graph().is_connected());
/// assert!(h.max_degree_increase() <= 3); // Theorem 1.1
/// assert!(report.rounds <= 8); // Theorem 1.3
/// ```
#[derive(Debug)]
pub struct ForgivingHealer {
    ft: DistributedForgivingTree,
    /// The spanning tree the structure was armed over.
    initial: Graph,
}

impl ForgivingHealer {
    /// Builds the Forgiving Tree over a rooted spanning tree.
    pub fn new(tree: &RootedTree) -> Self {
        let ft = DistributedForgivingTree::new(tree);
        let initial = ft.graph().clone();
        ForgivingHealer { ft, initial }
    }

    /// Builds over a tree-shaped graph rooted at `root`.
    ///
    /// # Panics
    /// Panics if `graph` is not a tree.
    pub fn from_tree_graph(graph: &Graph, root: NodeId) -> Self {
        Self::new(&RootedTree::from_tree_graph(graph, root))
    }
}

impl SelfHealer for ForgivingHealer {
    fn name(&self) -> &'static str {
        "forgiving-tree"
    }

    fn graph(&self) -> &Graph {
        self.ft.graph()
    }

    fn baseline(&self) -> &Graph {
        &self.initial
    }

    fn delete(&mut self, v: NodeId) -> HealReport {
        self.ft.delete(v)
    }

    fn as_forgiving(&self) -> Option<&DistributedForgivingTree> {
        Some(&self.ft)
    }
}

/// The Forgiving Graph (haft-based insert/delete healer) behind the
/// [`SelfHealer`] interface — the deletion-only view the sweep harness
/// drives; [`ForgivingGraphHealer::inner_mut`] exposes the insertion moves.
///
/// Unlike [`ForgivingHealer`] it accepts *any* connected graph, not just a
/// rooted tree, and measures degree increase against the pristine baseline
/// (all insertions, no deletions).
///
/// ```
/// use ft_baselines::{ForgivingGraphHealer, SelfHealer};
/// use ft_graph::{gen, NodeId};
///
/// let mut h = ForgivingGraphHealer::new(gen::star(12));
/// h.delete(NodeId(0));
/// assert!(h.graph().is_connected());
/// assert!(h.max_degree_increase() <= 4);
/// ```
#[derive(Debug)]
pub struct ForgivingGraphHealer {
    fg: DistributedForgivingGraph,
}

impl ForgivingGraphHealer {
    /// Arms the Forgiving Graph over an initial network.
    pub fn new(graph: Graph) -> Self {
        ForgivingGraphHealer {
            fg: DistributedForgivingGraph::new(&graph),
        }
    }

    /// Access to the underlying structure.
    pub fn inner(&self) -> &DistributedForgivingGraph {
        &self.fg
    }

    /// Mutable access, for the insertion moves
    /// ([`DistributedForgivingGraph::insert`]).
    pub fn inner_mut(&mut self) -> &mut DistributedForgivingGraph {
        &mut self.fg
    }
}

impl SelfHealer for ForgivingGraphHealer {
    fn name(&self) -> &'static str {
        "forgiving-graph"
    }

    fn graph(&self) -> &Graph {
        self.fg.graph()
    }

    fn baseline(&self) -> &Graph {
        self.fg.pristine()
    }

    fn delete(&mut self, v: NodeId) -> HealReport {
        self.fg.delete(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::bfs::diameter_exact;
    use ft_graph::gen;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn surrogate_hub_absorbs_neighbors() {
        let g = gen::star(5);
        let mut h = SurrogateHealer::new(g);
        let r = h.delete(n(0));
        assert_eq!(r.edges_added.len(), 3);
        assert_eq!(h.graph().degree(n(1)), 3);
        assert!(h.graph().is_connected());
        assert_eq!(h.degree_increase(n(1)), 2);
    }

    #[test]
    fn surrogate_degree_blowup_is_linear() {
        // On a binary tree, repeatedly deleting an internal neighbor of
        // node 0 makes 0 (the lowest ID, hence always the surrogate) absorb
        // the victim's children: +1 net degree per deletion, Θ(n) overall.
        let g = gen::kary_tree(63, 2);
        let mut h = SurrogateHealer::new(g);
        while let Some(t) = h
            .graph()
            .neighbors(n(0))
            .filter(|&u| h.graph().degree(u) > 1)
            .max_by_key(|&u| h.graph().degree(u))
        {
            h.delete(t);
        }
        assert!(
            h.degree_increase(n(0)) >= 16,
            "expected Θ(n) degree blow-up, got {}",
            h.degree_increase(n(0))
        );
    }

    #[test]
    fn line_heals_keep_degree_but_stretch_diameter() {
        // one deletion suffices: the star's center dies and line healing
        // chains all Δ leaves — diameter jumps from 2 to n-2 = Θ(n)
        let g = gen::star(32);
        let mut h = LineHealer::new(g);
        h.delete(n(0));
        assert!(h.graph().is_connected());
        assert!(h.max_degree_increase() <= 2, "line adds at most 2");
        let d = diameter_exact(h.graph()).expect("connected");
        assert_eq!(d, 30, "31 leaves in a chain");
    }

    #[test]
    fn binary_tree_heal_keeps_connectivity() {
        let g = gen::kary_tree(31, 2);
        let mut h = BinaryTreeHealer::new(g);
        for i in 0..15u32 {
            h.delete(n(i));
        }
        assert!(h.graph().is_connected());
    }

    #[test]
    fn no_heal_disconnects() {
        let g = gen::star(5);
        let mut h = NoHeal::new(g);
        h.delete(n(0));
        assert!(!h.graph().is_connected());
        assert!(h.max_degree_increase() <= 0, "no-heal never adds edges");
    }

    #[test]
    fn forgiving_healer_wraps_the_core() {
        let g = gen::star(9);
        let mut h = ForgivingHealer::from_tree_graph(&g, n(0));
        let r = h.delete(n(0));
        assert_eq!(r.notified, 8, "one notice per leaf");
        assert!(h.graph().is_connected());
        assert!(h.max_degree_increase() <= 3);
        assert_eq!(h.name(), "forgiving-tree");
    }

    #[test]
    fn forgiving_graph_healer_handles_general_graphs() {
        // a graph no tree healer accepts: cycle plus chords
        let mut g = gen::cycle(12);
        g.add_edge(n(0), n(6));
        g.add_edge(n(3), n(9));
        let mut h = ForgivingGraphHealer::new(g);
        h.inner_mut().insert(&[n(1), n(7)]);
        for v in [0u32, 6, 3, 12] {
            h.delete(n(v));
            assert!(h.graph().is_connected());
        }
        assert_eq!(h.name(), "forgiving-graph");
        h.inner().check_wills().expect("wills consistent");
        let bound = ft_core::fg_degree_bound(h.graph().capacity());
        assert!(h.max_degree_increase() <= bound);
    }

    #[test]
    fn all_healers_keep_connectivity_under_random_attack() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let g = gen::random_tree(40, &mut rng);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut order: Vec<NodeId> = t.nodes().collect();
        order.shuffle(&mut rng);
        let mut healers: Vec<Box<dyn SelfHealer>> = vec![
            Box::new(SurrogateHealer::new(g.clone())),
            Box::new(LineHealer::new(g.clone())),
            Box::new(BinaryTreeHealer::new(g.clone())),
            Box::new(ForgivingHealer::new(&t)),
            Box::new(ForgivingGraphHealer::new(g.clone())),
        ];
        for h in &mut healers {
            for &v in order.iter().take(35) {
                h.delete(v);
                assert!(h.graph().is_connected(), "{} disconnected", h.name());
            }
        }
    }
}
