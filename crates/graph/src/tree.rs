//! Rooted spanning trees.
//!
//! The Forgiving Tree "begins with a rooted spanning tree T, which without
//! loss of generality may as well be the entire network" (§3). This module
//! provides the [`RootedTree`] handed to the healer: either the input graph
//! itself (when it is a tree) or a BFS spanning tree extracted from a general
//! graph during the setup phase.

use crate::{bfs, Graph, NodeId};
use std::collections::BTreeMap;

/// Parent slot of the root and of IDs outside the tree.
const NO_PARENT: u32 = u32::MAX;

/// A rooted tree over a set of node IDs.
///
/// Children lists are kept sorted by ID, matching the paper's convention of
/// arranging children "in sorted (say, ascending) order of their IDs".
///
/// The layout is dense over the IDs `0..=max`: a parent array indexed by
/// ID, a membership bitmap, and the children in compressed sparse rows
/// (`v`'s children are `kids[first[v]..first[v + 1]]`). Every query is an
/// index or a slice; no per-node allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootedTree {
    root: NodeId,
    /// Parent ID per slot; [`NO_PARENT`] for the root and for non-members.
    parent: Vec<u32>,
    /// Membership bitmap, bit `v % 64` of word `v / 64`.
    member: Vec<u64>,
    /// Number of members.
    len: usize,
    /// Children offsets, one more entry than `parent`.
    first: Vec<u32>,
    /// Every non-root member, grouped by parent, each group ascending.
    kids: Vec<NodeId>,
}

impl RootedTree {
    /// Builds a rooted tree from explicit `(child, parent)` pairs plus a root.
    ///
    /// # Panics
    /// Panics if the pairs do not describe a tree rooted at `root` (cycles,
    /// disconnection, duplicate children, or parent chains that miss the
    /// root).
    pub fn from_parent_pairs(root: NodeId, pairs: &[(NodeId, NodeId)]) -> Self {
        let cap = pairs
            .iter()
            .fold(root, |m, &(c, p)| m.max(c).max(p))
            .index()
            + 1;
        let mut parent = vec![NO_PARENT; cap];
        let mut member = vec![0u64; cap.div_ceil(64)];
        let mut mark = |v: NodeId| member[v.index() / 64] |= 1 << (v.index() % 64);
        mark(root);
        // counting sort by parent: p's count lands in first[p + 2], so the
        // prefix sums leave p's start in first[p + 1], the fill cursor
        let mut first = vec![0u32; cap + 2];
        for &(c, p) in pairs {
            assert_ne!(c, root, "root cannot have a parent");
            let slot = &mut parent[c.index()];
            assert!(*slot == NO_PARENT, "node {c:?} has two parents");
            *slot = p.0;
            mark(c);
            mark(p);
            first[p.index() + 2] += 1;
        }
        for i in 1..first.len() {
            first[i] += first[i - 1];
        }
        // children visited in ascending ID order fill each group sorted
        let mut kids = vec![NodeId(0); pairs.len()];
        for (c, &p) in parent.iter().enumerate() {
            if p != NO_PARENT {
                let cursor = &mut first[p as usize + 1];
                kids[*cursor as usize] = NodeId(c as u32);
                *cursor += 1;
            }
        }
        first.truncate(cap + 1);
        let len = member.iter().map(|w| w.count_ones() as usize).sum();
        let t = RootedTree {
            root,
            parent,
            member,
            len,
            first,
            kids,
        };
        t.validate();
        t
    }

    /// Interprets a tree-shaped [`Graph`] as a tree rooted at `root`.
    ///
    /// # Panics
    /// Panics if the graph is not connected or has `edges != nodes - 1`
    /// (i.e. is not a tree), or if `root` is not a live node.
    pub fn from_tree_graph(g: &Graph, root: NodeId) -> Self {
        assert!(g.is_alive(root), "root {root:?} is not alive");
        // one BFS both checks connectivity (by its reach) and yields the tree
        let (reached, pairs) = bfs::bfs_tree(g, root);
        assert!(reached.len() == g.len(), "graph is not connected");
        assert_eq!(g.num_edges() + 1, g.len(), "graph is not a tree");
        Self::from_parent_pairs(root, &pairs)
    }

    /// Extracts the BFS spanning tree of a connected graph, rooted at `root`.
    /// This is the centralized stand-in for the distributed setup phase (the
    /// distributed protocol lives in `ft-sim`).
    ///
    /// # Panics
    /// Panics if the graph is disconnected or `root` is dead.
    pub fn bfs_spanning_tree(g: &Graph, root: NodeId) -> Self {
        assert!(g.is_alive(root), "root {root:?} is not alive");
        let (dist, pairs) = bfs::bfs_tree(g, root);
        assert_eq!(dist.len(), g.len(), "graph is not connected");
        Self::from_parent_pairs(root, &pairs)
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree has no nodes — never the case for constructed
    /// trees, which always contain at least the root.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All node IDs in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.member.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                let b = (bits != 0).then(|| bits.trailing_zeros())?;
                bits &= bits - 1;
                Some(NodeId(w as u32 * 64 + b))
            })
        })
    }

    /// Whether `v` belongs to the tree.
    pub fn contains(&self, v: NodeId) -> bool {
        self.member
            .get(v.index() / 64)
            .is_some_and(|w| w & (1 << (v.index() % 64)) != 0)
    }

    /// The parent of `v`, or `None` for the root.
    ///
    /// # Panics
    /// Panics if `v` is not in the tree.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        assert!(self.contains(v), "{v:?} not in tree");
        let p = self.parent[v.index()];
        (p != NO_PARENT).then_some(NodeId(p))
    }

    /// The children of `v`, sorted ascending by ID.
    ///
    /// # Panics
    /// Panics if `v` is not in the tree.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        assert!(self.contains(v), "{v:?} not in tree");
        &self.kids[self.first[v.index()] as usize..self.first[v.index() + 1] as usize]
    }

    /// Whether `v` is a leaf (no children).
    pub fn is_leaf(&self, v: NodeId) -> bool {
        self.children(v).is_empty()
    }

    /// Tree degree of `v` (children + parent edge).
    pub fn degree(&self, v: NodeId) -> usize {
        self.children(v).len() + usize::from(self.parent(v).is_some())
    }

    /// Maximum tree degree (Δ of the spanning tree).
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Visits every node reachable from the root through children lists,
    /// with its depth (root = 0), parents before children.
    fn walk(&self, mut visit: impl FnMut(NodeId, u32)) {
        let mut stack = vec![(self.root, 0u32)];
        while let Some((v, d)) = stack.pop() {
            visit(v, d);
            stack.extend(self.children(v).iter().map(|&c| (c, d + 1)));
        }
    }

    /// Depth of each node (root = 0), in ascending `NodeId` order.
    pub fn depths(&self) -> BTreeMap<NodeId, u32> {
        let mut depth = vec![0u32; self.parent.len()];
        self.walk(|v, d| depth[v.index()] = d);
        self.nodes().map(|v| (v, depth[v.index()])).collect()
    }

    /// Height of the tree: maximum node depth (0 for a single node).
    pub fn height(&self) -> u32 {
        let mut height = 0;
        self.walk(|_, d| height = height.max(d));
        height
    }

    /// The tree as an undirected [`Graph`] (capacity = max ID + 1; IDs not in
    /// the tree are marked dead).
    pub fn to_graph(&self) -> Graph {
        let cap = self.parent.len();
        let mut g = Graph::new(cap);
        // kill IDs that are not tree nodes so that node sets agree
        for i in 0..cap {
            if !self.contains(NodeId(i as u32)) {
                g.delete_node(NodeId(i as u32));
            }
        }
        for (c, &p) in self.parent.iter().enumerate() {
            if p != NO_PARENT {
                g.add_edge(NodeId(c as u32), NodeId(p));
            }
        }
        g
    }

    /// Internal consistency check: every node reaches the root via parent
    /// pointers, children lists mirror parent pointers, and lists are sorted.
    /// One traversal from the root; a node it misses is reported as the
    /// first parent-chain walk in ascending ID order would report it.
    ///
    /// # Panics
    /// Panics on violation (used by constructors and tests).
    pub fn validate(&self) {
        assert!(self.contains(self.root), "root missing");
        assert!(
            self.parent[self.root.index()] == NO_PARENT,
            "root must not have a parent"
        );
        let mut reached = 0usize;
        self.walk(|p, _| {
            reached += 1;
            let list = self.children(p);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "unsorted children");
            for &c in list {
                assert_eq!(self.parent[c.index()], p.0, "parent mismatch for {c:?}");
            }
        });
        if reached == self.len {
            return;
        }
        // some parent chain misses the root: report the smallest such node
        for v in self.nodes() {
            let mut cur = v;
            let mut steps = 0;
            while let Some(p) = self.parent(cur) {
                cur = p;
                steps += 1;
                assert!(steps <= self.len, "cycle in parent chain at {v:?}");
            }
            assert_eq!(cur, self.root, "{v:?} does not reach the root");
        }
        unreachable!("every node reaches the root, yet the walk missed one");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn from_parent_pairs_basic() {
        let t = RootedTree::from_parent_pairs(n(0), &[(n(1), n(0)), (n(2), n(0)), (n(3), n(1))]);
        assert_eq!(t.root(), n(0));
        assert_eq!(t.children(n(0)), &[n(1), n(2)]);
        assert_eq!(t.parent(n(3)), Some(n(1)));
        assert!(t.is_leaf(n(3)));
        assert!(!t.is_leaf(n(1)));
        assert_eq!(t.height(), 2);
        assert_eq!(t.degree(n(1)), 2);
        assert_eq!(t.max_degree(), 2);
    }

    #[test]
    #[should_panic(expected = "two parents")]
    fn duplicate_parent_rejected() {
        RootedTree::from_parent_pairs(n(0), &[(n(1), n(0)), (n(1), n(2))]);
    }

    #[test]
    #[should_panic(expected = "cycle in parent chain")]
    fn cycle_rejected() {
        // 1 -> 2 -> 1 cycle disconnected from the root
        RootedTree::from_parent_pairs(n(0), &[(n(1), n(2)), (n(2), n(1))]);
    }

    #[test]
    #[should_panic(expected = "n1 does not reach the root")]
    fn parentless_member_rejected() {
        // 2 is a member (1's parent) but has no parent and is not the root
        RootedTree::from_parent_pairs(n(0), &[(n(1), n(2))]);
    }

    #[test]
    fn from_tree_graph_roundtrip() {
        let g = gen::kary_tree(15, 2);
        let t = RootedTree::from_tree_graph(&g, n(0));
        assert_eq!(t.len(), 15);
        assert_eq!(t.height(), 3);
        assert_eq!(t.to_graph(), g);
    }

    #[test]
    #[should_panic(expected = "not a tree")]
    fn from_tree_graph_rejects_cycles() {
        let g = gen::cycle(4);
        RootedTree::from_tree_graph(&g, n(0));
    }

    #[test]
    fn bfs_spanning_tree_of_grid() {
        let g = gen::grid(3, 3);
        let t = RootedTree::bfs_spanning_tree(&g, n(0));
        assert_eq!(t.len(), 9);
        // BFS tree height equals eccentricity of the root
        assert_eq!(t.height(), crate::bfs::eccentricity(&g, n(0)).unwrap());
        // every tree edge is a graph edge
        for v in t.nodes() {
            if let Some(p) = t.parent(v) {
                assert!(g.has_edge(v, p));
            }
        }
    }

    #[test]
    fn depths_of_path() {
        let g = gen::path(5);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let d = t.depths();
        assert_eq!(d[&n(4)], 4);
        assert_eq!(d[&n(0)], 0);
    }

    #[test]
    fn spanning_trees_of_random_graphs_validate() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..5 {
            let g = gen::gnp_connected(60, 0.05, &mut rng);
            let t = RootedTree::bfs_spanning_tree(&g, n(0));
            t.validate();
            assert_eq!(t.len(), 60);
        }
    }

    #[test]
    fn single_node_tree() {
        let t = RootedTree::from_parent_pairs(n(7), &[]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 0);
        assert!(t.is_leaf(n(7)));
        assert_eq!(t.degree(n(7)), 0);
        let g = t.to_graph();
        assert_eq!(g.len(), 1);
        assert!(g.is_alive(n(7)));
    }
}

/// The dense tree against a naive `BTreeMap` reference on random trees.
#[cfg(test)]
mod reference_tests {
    use super::*;
    use crate::gen;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// Parent and children maps keyed by ID, each children list ascending.
    struct Naive {
        root: NodeId,
        parent: BTreeMap<NodeId, NodeId>,
        children: BTreeMap<NodeId, Vec<NodeId>>,
    }

    impl Naive {
        fn new(root: NodeId, pairs: &[(NodeId, NodeId)]) -> Self {
            let mut parent = BTreeMap::new();
            let mut children: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
            children.entry(root).or_default();
            for &(c, p) in pairs {
                parent.insert(c, p);
                children.entry(p).or_default().push(c);
                children.entry(c).or_default();
            }
            for list in children.values_mut() {
                list.sort_unstable();
            }
            Naive {
                root,
                parent,
                children,
            }
        }

        fn depths(&self) -> BTreeMap<NodeId, u32> {
            let mut depths = BTreeMap::new();
            let mut stack = vec![(self.root, 0u32)];
            while let Some((v, d)) = stack.pop() {
                depths.insert(v, d);
                stack.extend(self.children[&v].iter().map(|&c| (c, d + 1)));
            }
            depths
        }

        fn to_graph(&self) -> Graph {
            let cap = self.children.keys().last().map_or(0, |v| v.index() + 1);
            let mut g = Graph::new(cap);
            for i in 0..cap as u32 {
                if !self.children.contains_key(&NodeId(i)) {
                    g.delete_node(NodeId(i));
                }
            }
            for (&c, &p) in &self.parent {
                g.add_edge(c, p);
            }
            g
        }
    }

    fn check(root: NodeId, pairs: &[(NodeId, NodeId)]) {
        let t = RootedTree::from_parent_pairs(root, pairs);
        let r = Naive::new(root, pairs);
        assert!(t.nodes().eq(r.children.keys().copied()), "nodes");
        assert_eq!(t.len(), r.children.len());
        for (&v, kids) in &r.children {
            assert!(t.contains(v));
            assert_eq!(t.parent(v), r.parent.get(&v).copied(), "parent of {v:?}");
            assert_eq!(t.children(v), &kids[..], "children of {v:?}");
            assert_eq!(t.is_leaf(v), kids.is_empty());
            let degree = kids.len() + usize::from(r.parent.contains_key(&v));
            assert_eq!(t.degree(v), degree, "degree of {v:?}");
        }
        let depths = r.depths();
        assert_eq!(t.depths(), depths);
        assert_eq!(t.height(), depths.values().copied().max().unwrap_or(0));
        let g = t.to_graph();
        assert_eq!(g, r.to_graph());
        assert_eq!(RootedTree::from_tree_graph(&g, root), t, "round trip");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random recursive trees over sparse, shuffled IDs, pairs in
        /// random order.
        #[test]
        fn random_trees_match_reference(nn in 1usize..60, seed in 0u64..100_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ids: Vec<NodeId> = (0..3 * nn as u32).map(NodeId).collect();
            ids.shuffle(&mut rng);
            ids.truncate(nn);
            let mut pairs: Vec<(NodeId, NodeId)> =
                (1..nn).map(|i| (ids[i], ids[rng.gen_range(0..i)])).collect();
            pairs.shuffle(&mut rng);
            check(ids[0], &pairs);
        }

        /// BFS spanning trees of random connected graphs.
        #[test]
        fn bfs_spanning_trees_match_reference(nn in 1usize..60, seed in 0u64..100_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = gen::gnp_connected(nn, 0.08, &mut rng);
            let root = NodeId(rng.gen_range(0..nn as u32));
            let (_, pairs) = bfs::bfs_tree(&g, root);
            check(root, &pairs);
            assert_eq!(RootedTree::bfs_spanning_tree(&g, root), RootedTree::from_parent_pairs(root, &pairs));
        }
    }
}
