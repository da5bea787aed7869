//! # ft-baselines — the common healer trait
//!
//! [`SelfHealer`] is the interface the trial runner and the claims table
//! sweep healers through. Three healers implement it:
//!
//! - [`ForgivingHealer`], the Forgiving Tree's message-passing
//!   [`DistributedForgivingTree`];
//! - [`DistributedForgivingGraph`], the successor paper's insert/delete
//!   healer, differential-comparable on the same deletion sweeps;
//! - [`LocalHealer`], a centralized graph healed by one per-deletion
//!   [`LocalRule`](ft_core::fgraph::LocalRule): a naive heal the paper's
//!   introduction contrasts (surrogate, line, binary tree, no repair), or
//!   the Forgiving Graph's haft.
//!
//! The two Forgiving healers run the message-passing engines: each heal
//! runs to quiescence and its [`HealReport`] is read from the simulator's
//! ledger. A [`LocalHealer`]'s report is a cost model instead. The
//! Forgiving Graph accepts *any* connected graph, not just a rooted tree,
//! and measures degree increase against its pristine baseline (all
//! insertions, no deletions):
//!
//! ```
//! use ft_baselines::SelfHealer;
//! use ft_core::DistributedForgivingGraph;
//! use ft_graph::{gen, NodeId};
//!
//! let mut fg = DistributedForgivingGraph::new(&gen::star(12));
//! let h: &mut dyn SelfHealer = &mut fg;
//! h.delete(NodeId(0));
//! assert!(h.graph().is_connected());
//! assert!(h.max_degree_increase() <= 4);
//! ```

use ft_core::distributed::DistributedForgivingTree;
use ft_core::fgraph::LocalHealer;
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

/// Builds a [`HealReport`] for a [`LocalHealer`] heal that added `added`
/// edges. The figures are a cost model, not a ledger: each of the
/// `notified` survivors receives one notice, each added edge costs two
/// messages, a node's load is its added edges plus its notice, and the
/// heal takes one round.
fn baseline_report(v: NodeId, notified: usize, added: Vec<(NodeId, NodeId)>) -> HealReport {
    let mut ends: Vec<NodeId> = added.iter().flat_map(|&(a, b)| [a, b]).collect();
    ends.sort_unstable();
    let load = ends.chunk_by(|a, b| a == b).map(<[NodeId]>::len).max();
    HealReport {
        deleted: Some(v),
        notified,
        total_messages: notified + 2 * added.len(),
        max_messages_per_node: load.unwrap_or(0) + 1,
        edges_added: added,
        rounds: 1,
    }
}

impl SelfHealer for LocalHealer {
    fn name(&self) -> &'static str {
        self.rule().name()
    }

    fn graph(&self) -> &Graph {
        LocalHealer::graph(self)
    }

    fn baseline(&self) -> &Graph {
        LocalHealer::baseline(self)
    }

    fn delete(&mut self, v: NodeId) -> HealReport {
        let notified = self.graph().degree(v);
        baseline_report(v, notified, LocalHealer::delete(self, v))
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

/// The Forgiving Graph measures degree increase against its pristine
/// baseline (every insertion, no deletion); the sweep harness drives only
/// its deletions.
impl SelfHealer for DistributedForgivingGraph {
    fn name(&self) -> &'static str {
        "forgiving-graph"
    }

    fn graph(&self) -> &Graph {
        DistributedForgivingGraph::graph(self)
    }

    fn baseline(&self) -> &Graph {
        self.pristine()
    }

    fn delete(&mut self, v: NodeId) -> HealReport {
        DistributedForgivingGraph::delete(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::fgraph::LocalRule;
    use ft_graph::bfs::diameter_exact;
    use ft_graph::gen;
    use ft_graph::hash::{fnv1a, FNV_BASIS};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn naive_heal_reports_are_pinned() {
        // FNV-1a over every field of every heal report the four naive
        // rules produce while deleting seeded trees down to nothing: the
        // attack, duel and claims figures of the baselines derive from
        // these reports.
        let mut rng = StdRng::seed_from_u64(32);
        let graphs = [
            gen::star(48),
            gen::kary_tree(85, 4),
            gen::random_tree(96, &mut rng),
        ];
        let mut h = FNV_BASIS;
        for g in &graphs {
            let mut order: Vec<NodeId> = g.nodes().collect();
            order.shuffle(&mut rng);
            let healers: [Box<dyn SelfHealer>; 4] = [
                Box::new(LocalHealer::new(LocalRule::NoRepair, g.clone())),
                Box::new(LocalHealer::new(LocalRule::Surrogate, g.clone())),
                Box::new(LocalHealer::new(LocalRule::Line, g.clone())),
                Box::new(LocalHealer::new(LocalRule::BinaryTree, g.clone())),
            ];
            for mut healer in healers {
                for &v in &order {
                    let r = healer.delete(v);
                    for x in [
                        r.deleted.map_or(u64::MAX, |v| u64::from(v.0)),
                        r.notified as u64,
                        r.total_messages as u64,
                        r.max_messages_per_node as u64,
                        u64::from(r.rounds),
                    ] {
                        h = fnv1a(h, x.to_le_bytes());
                    }
                    for (a, b) in r.edges_added {
                        h = fnv1a(h, (u64::from(a.0) << 32 | u64::from(b.0)).to_le_bytes());
                    }
                }
                assert!(healer.is_empty());
            }
        }
        assert_eq!(h, 0x8eeb_765b_88a5_3bd2, "naive heals drifted: {h:#018x}");
    }

    #[test]
    fn surrogate_hub_absorbs_neighbors() {
        let g = gen::star(5);
        let mut h = LocalHealer::new(LocalRule::Surrogate, g);
        let r = SelfHealer::delete(&mut h, n(0));
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
        let mut h = LocalHealer::new(LocalRule::Surrogate, g);
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
        let mut h = LocalHealer::new(LocalRule::Line, g);
        h.delete(n(0));
        assert!(h.graph().is_connected());
        assert!(h.max_degree_increase() <= 2, "line adds at most 2");
        let d = diameter_exact(h.graph()).expect("connected");
        assert_eq!(d, 30, "31 leaves in a chain");
    }

    #[test]
    fn binary_tree_heal_keeps_connectivity() {
        let g = gen::kary_tree(31, 2);
        let mut h = LocalHealer::new(LocalRule::BinaryTree, g);
        for i in 0..15u32 {
            h.delete(n(i));
        }
        assert!(h.graph().is_connected());
    }

    #[test]
    fn no_heal_disconnects() {
        let g = gen::star(5);
        let mut h = LocalHealer::new(LocalRule::NoRepair, g);
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
        let mut h = DistributedForgivingGraph::new(&g);
        h.insert(&[n(1), n(7)]);
        for v in [0u32, 6, 3, 12] {
            SelfHealer::delete(&mut h, n(v));
            assert!(h.graph().is_connected());
        }
        assert_eq!(h.name(), "forgiving-graph");
        h.check_wills().expect("wills consistent");
        let bound = ft_core::fg_degree_bound(h.graph().capacity());
        assert!(SelfHealer::max_degree_increase(&h) <= bound);
    }

    #[test]
    fn all_healers_keep_connectivity_under_random_attack() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gen::random_tree(40, &mut rng);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut order: Vec<NodeId> = t.nodes().collect();
        order.shuffle(&mut rng);
        let mut healers: Vec<Box<dyn SelfHealer>> = vec![
            Box::new(LocalHealer::new(LocalRule::Surrogate, g.clone())),
            Box::new(LocalHealer::new(LocalRule::Line, g.clone())),
            Box::new(LocalHealer::new(LocalRule::BinaryTree, g.clone())),
            Box::new(ForgivingHealer::new(&t)),
            Box::new(DistributedForgivingGraph::new(&g)),
        ];
        for h in &mut healers {
            for &v in order.iter().take(35) {
                h.delete(v);
                assert!(h.graph().is_connected(), "{} disconnected", h.name());
            }
        }
    }
}
