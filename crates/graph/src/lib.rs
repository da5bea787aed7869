//! Graph substrate for the Forgiving Tree reproduction.
//!
//! This crate provides the undirected-graph machinery the paper implicitly
//! relies on: an adjacency-set graph type ([`Graph`]), breadth-first search
//! and distance queries ([`bfs`]), exact and estimated diameter computation,
//! rooted spanning trees ([`tree`]), and the workload generators used by the
//! experiments ([`gen`]).
//!
//! # Example
//!
//! ```
//! use ft_graph::{Graph, NodeId};
//!
//! let mut g = Graph::new(4);
//! g.add_edge(NodeId(0), NodeId(1));
//! g.add_edge(NodeId(1), NodeId(2));
//! g.add_edge(NodeId(2), NodeId(3));
//! assert!(g.is_connected());
//! assert_eq!(ft_graph::bfs::diameter_exact(&g), Some(3));
//! ```

pub mod bfs;
pub mod gen;
pub mod hash;
mod inline_vec;
mod sorted_ids;
pub mod tree;

pub use inline_vec::InlineVec;
pub use sorted_ids::SortedIds;

use std::fmt;

/// Identifier of a node (processor) in the network.
///
/// The Forgiving Tree algorithm assumes "each node v has a unique
/// identification number which we call ID(v)" (§3.1.1); `NodeId` is that
/// number. IDs are dense (`0..n`) in freshly generated graphs but deletion
/// leaves holes, so code must never assume contiguity after healing starts.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index form for dense arrays sized by the initial node count.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// One move of the Forgiving Graph's insert/delete adversary (Hayes–Saia–
/// Trehan, arXiv:0902.2501): per time step the adversary may delete an
/// existing node or insert a fresh one attached to chosen live neighbors.
///
/// Planners (`ft-adversary`) emit these and campaign drivers (`ft-sim`)
/// apply them; the type lives here so neither crate depends on the other.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Delete a live node; its neighbors are notified.
    Delete(NodeId),
    /// Insert a fresh node attached to the listed live nodes (neighbors
    /// dead by apply time are skipped; an insert with no surviving
    /// neighbor is dropped).
    Insert {
        /// The nodes the newcomer wires itself to.
        neighbors: Vec<NodeId>,
    },
}

/// An undirected simple graph over nodes `0..capacity`, supporting node
/// deletion (the adversary's move) and edge insertion/removal (the healer's
/// move).
///
/// Adjacency is kept as one sorted neighbor list per node, a
/// [`SortedIds`] set in a 32-byte slot: up to seven IDs sit in the slot
/// itself and only a longer list spills to the heap. Iteration order stays
/// deterministic ascending — which keeps every experiment and property
/// test reproducible — and a neighbor walk of a node with at most seven
/// neighbors reads the slot in place, with no second load through a heap
/// pointer. How many lists fit depends on the input's degree distribution:
/// the healers bound only the increase over a node's original degree (at
/// most 3 for the Forgiving Tree, O(log n) for the Forgiving Graph), so
/// healing keeps a low-degree node low but cannot make a high-degree input
/// inline. A spilled slot costs 8 bytes more than a bare `Vec` header.
/// Membership tests and mutations are `O(log d)` binary searches plus an
/// `O(d)` shift.
#[derive(Clone, Default)]
pub struct Graph {
    /// Sorted neighbor list per slot.
    adj: Vec<SortedIds>,
    /// Liveness bitset: bit `v % 64` of word `v / 64` is set iff slot `v`
    /// is live. The bits past `capacity` in the last word stay clear.
    alive: Vec<u64>,
    num_alive: usize,
    num_edges: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated live nodes `0..n`.
    pub fn new(n: usize) -> Self {
        let mut alive = vec![u64::MAX; n / 64];
        if !n.is_multiple_of(64) {
            alive.push((1 << (n % 64)) - 1);
        }
        Graph {
            adj: vec![SortedIds::new(); n],
            alive,
            num_alive: n,
            num_edges: 0,
        }
    }

    /// Builds a graph from an explicit edge list over `n` nodes.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range or an edge is a self-loop.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut g = Graph::new(n);
        for &(a, b) in edges {
            g.add_edge(NodeId(a), NodeId(b));
        }
        g
    }

    /// Number of node slots (live or deleted); valid IDs are `0..capacity`.
    pub fn capacity(&self) -> usize {
        self.adj.len()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.num_alive
    }

    /// True when no live nodes remain.
    pub fn is_empty(&self) -> bool {
        self.num_alive == 0
    }

    /// Number of (undirected) edges between live nodes.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Is `v` a live node?
    pub fn is_alive(&self, v: NodeId) -> bool {
        let i = v.index();
        self.alive
            .get(i / 64)
            .is_some_and(|&word| word >> (i % 64) & 1 == 1)
    }

    /// Iterator over live node IDs in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        LiveNodes {
            words: &self.alive,
            w: 0,
            bits: self.alive.first().copied().unwrap_or(0),
        }
    }

    /// Neighbors of `v` in ascending ID order.
    ///
    /// # Panics
    /// Panics if `v` was never a node of this graph.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nbrs(v).iter().copied()
    }

    /// The sorted neighbor list of slot `v` (empty once deleted).
    fn nbrs(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v.index()]
    }

    /// The degree of `v` (0 for deleted nodes).
    pub fn degree(&self, v: NodeId) -> usize {
        if self.is_alive(v) {
            self.nbrs(v).len()
        } else {
            0
        }
    }

    /// Maximum degree over live nodes (Δ in the paper); 0 for empty graphs.
    pub fn max_degree(&self) -> usize {
        self.nodes().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Whether the (undirected) edge `{a, b}` is present.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.is_alive(a) && self.is_alive(b) && self.nbrs(a).binary_search(&b).is_ok()
    }

    /// Inserts the undirected edge `{a, b}`. Returns `true` if it was new.
    ///
    /// # Panics
    /// Panics on self-loops or dead/out-of-range endpoints: the healing
    /// algorithms must never produce those, so they are bugs, not errors.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        assert_ne!(a, b, "self-loop {a:?}");
        assert!(self.is_alive(a), "add_edge: {a:?} is not alive");
        assert!(self.is_alive(b), "add_edge: {b:?} is not alive");
        if !self.adj[a.index()].insert(b) {
            return false;
        }
        let fresh = self.adj[b.index()].insert(a);
        assert!(fresh, "adjacency symmetry broken: {b:?} lists {a:?}");
        self.num_edges += 1;
        true
    }

    /// Removes the undirected edge `{a, b}`. Returns `true` if it existed.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if a.index() >= self.adj.len() || b.index() >= self.adj.len() {
            return false;
        }
        if !self.adj[a.index()].remove(b) {
            return false;
        }
        self.adj[b.index()].remove(a);
        self.num_edges -= 1;
        true
    }

    /// Appends a fresh live node slot and returns its ID (the Forgiving
    /// Graph's *insertion* move: capacity grows by one and the new node
    /// starts isolated — wire it up with [`Graph::add_edge`]).
    pub fn add_node(&mut self) -> NodeId {
        let i = self.adj.len();
        self.adj.push(SortedIds::new());
        if i.is_multiple_of(64) {
            self.alive.push(0);
        }
        self.alive[i / 64] |= 1 << (i % 64);
        self.num_alive += 1;
        NodeId(i as u32)
    }

    /// Deletes node `v` (the adversary's move), dropping all incident edges.
    ///
    /// Returns the former neighbors of `v` — exactly the set of processors
    /// the model notifies of the deletion.
    ///
    /// # Panics
    /// Panics if `v` is not alive.
    pub fn delete_node(&mut self, v: NodeId) -> Vec<NodeId> {
        let mut nbrs = Vec::new();
        self.delete_node_into(v, &mut nbrs);
        nbrs
    }

    /// [`Graph::delete_node`] writing the former neighbors into a
    /// caller-owned buffer (cleared first) instead of allocating — the
    /// allocation-free form churn campaigns reuse one scratch vector with.
    ///
    /// # Panics
    /// Panics if `v` is not alive.
    pub fn delete_node_into(&mut self, v: NodeId, nbrs: &mut Vec<NodeId>) {
        assert!(self.is_alive(v), "delete_node: {v:?} is not alive");
        nbrs.clear();
        nbrs.extend_from_slice(self.nbrs(v));
        // frees a spilled list
        self.adj[v.index()] = SortedIds::new();
        for &u in nbrs.iter() {
            self.adj[u.index()].remove(v);
        }
        self.num_edges -= nbrs.len();
        self.alive[v.index() / 64] &= !(1 << (v.index() % 64));
        self.num_alive -= 1;
    }

    /// All edges `(a, b)` with `a < b`, in lexicographic order.
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for v in self.nodes() {
            for u in self.neighbors(v) {
                if v < u {
                    out.push((v, u));
                }
            }
        }
        out
    }

    /// True when the live portion of the graph is connected
    /// (vacuously true for 0 or 1 live nodes).
    pub fn is_connected(&self) -> bool {
        let Some(start) = self.nodes().next() else {
            return true;
        };
        bfs::bfs_distances(self, start).len() == self.num_alive
    }

    /// The largest degree increase of any live node over its degree in
    /// `base`, 0 when no node is live: one pass over the live set reading
    /// both graphs' list lengths. A slot deleted in `base` counts as
    /// degree 0 there.
    ///
    /// # Panics
    /// Panics if `base` has fewer slots than a live node of `self` needs.
    pub fn max_degree_increase_over(&self, base: &Graph) -> i64 {
        self.nodes()
            .map(|v| self.nbrs(v).len() as i64 - base.nbrs(v).len() as i64)
            .max()
            .unwrap_or(0)
    }

    /// Renders the graph in Graphviz DOT format (undirected).
    pub fn to_dot(&self, name: &str) -> String {
        let mut s = format!("graph {name} {{\n");
        for v in self.nodes() {
            s.push_str(&format!("  {};\n", v.0));
        }
        for (a, b) in self.edges() {
            s.push_str(&format!("  {} -- {};\n", a.0, b.0));
        }
        s.push_str("}\n");
        s
    }
}

/// [`Graph::nodes`]: the set bits of the liveness words, ascending.
struct LiveNodes<'a> {
    words: &'a [u64],
    /// Index of the word `bits` came from.
    w: usize,
    /// That word's live slots not yet yielded.
    bits: u64,
}

impl Iterator for LiveNodes<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.bits == 0 {
            self.w += 1;
            self.bits = *self.words.get(self.w)?;
        }
        let i = self.w * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(NodeId(i as u32))
    }
}

impl PartialEq for Graph {
    /// Two graphs are equal when they have the same live node set and the
    /// same edge set (capacity is ignored).
    fn eq(&self, other: &Self) -> bool {
        let word = |g: &Graph, w: usize| g.alive.get(w).copied().unwrap_or(0);
        let words = self.alive.len().max(other.alive.len());
        (0..words).all(|w| word(self, w) == word(other, w))
            && self.nodes().all(|v| self.nbrs(v) == other.nbrs(v))
    }
}

impl fmt::Debug for Graph {
    /// The live nodes with their neighbor lists, e.g.
    /// `Graph {n0: [n1], n1: [n0], n2: []}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Graph ")?;
        f.debug_map()
            .entries(self.nodes().map(|v| (v, self.nbrs(v))))
            .finish()
    }
}

impl Eq for Graph {}

#[cfg(test)]
mod model_tests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_is_edgeless_and_connectedness_trivial() {
        let g = Graph::new(0);
        assert!(g.is_empty());
        assert!(g.is_connected());
        let g = Graph::new(1);
        assert_eq!(g.len(), 1);
        assert!(g.is_connected());
        let g = Graph::new(2);
        assert!(!g.is_connected());
    }

    #[test]
    fn add_remove_edge_roundtrip() {
        let mut g = Graph::new(3);
        assert!(g.add_edge(NodeId(0), NodeId(1)));
        assert!(!g.add_edge(NodeId(1), NodeId(0)), "duplicate edge");
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(g.remove_edge(NodeId(0), NodeId(1)));
        assert!(!g.remove_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(1), NodeId(1));
    }

    #[test]
    fn delete_node_reports_neighbors_and_drops_edges() {
        let mut g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (2, 3)]);
        let nbrs = g.delete_node(NodeId(0));
        assert_eq!(nbrs, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert!(!g.is_alive(NodeId(0)));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(NodeId(0)), 0);
        assert!(g.has_edge(NodeId(2), NodeId(3)));
        assert!(!g.is_connected(), "node 1 is isolated now");
    }

    #[test]
    #[should_panic(expected = "not alive")]
    fn double_delete_panics() {
        let mut g = Graph::new(2);
        g.delete_node(NodeId(0));
        g.delete_node(NodeId(0));
    }

    #[test]
    fn edges_are_sorted_and_unique() {
        let g = Graph::from_edges(4, &[(2, 3), (0, 3), (0, 1)]);
        assert_eq!(
            g.edges(),
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(3)),
                (NodeId(2), NodeId(3))
            ]
        );
    }

    #[test]
    fn max_degree_tracks_deletions() {
        let mut g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(g.max_degree(), 4);
        g.delete_node(NodeId(0));
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn max_degree_increase_over_reads_live_nodes_only() {
        let base = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let mut g = base.clone();
        assert_eq!(g.max_degree_increase_over(&base), 0);
        g.delete_node(NodeId(0));
        // every survivor lost its hub: the largest increase is −1
        assert_eq!(g.max_degree_increase_over(&base), -1);
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(1), NodeId(4));
        assert_eq!(g.max_degree_increase_over(&base), 2);
        // a slot deleted in the base reads degree 0 there
        let mut thinned = base.clone();
        thinned.delete_node(NodeId(4));
        g.delete_node(NodeId(1));
        g.add_edge(NodeId(4), NodeId(2));
        assert_eq!(g.max_degree_increase_over(&thinned), 1);
        for v in [2, 3, 4] {
            g.delete_node(NodeId(v));
        }
        assert_eq!(g.max_degree_increase_over(&base), 0, "no live node");
    }

    #[test]
    fn graph_equality_ignores_capacity() {
        let mut a = Graph::from_edges(5, &[(0, 1)]);
        let b = Graph::from_edges(2, &[(0, 1)]);
        for i in 2..5 {
            a.delete_node(NodeId(i));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn add_node_grows_capacity() {
        let mut g = Graph::from_edges(2, &[(0, 1)]);
        let v = g.add_node();
        assert_eq!(v, NodeId(2));
        assert_eq!(g.capacity(), 3);
        assert_eq!(g.len(), 3);
        assert_eq!(g.degree(v), 0);
        g.add_edge(v, NodeId(0));
        assert!(g.is_connected());
    }

    #[test]
    fn liveness_bitset_at_word_boundaries() {
        for n in [0usize, 1, 63, 64, 65, 129] {
            let mut g = Graph::new(n);
            let all: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
            assert_eq!(g.nodes().collect::<Vec<_>>(), all, "n = {n}");
            assert_eq!(g.len(), n, "n = {n}: every slot live");
            assert!(!g.is_alive(NodeId(n as u32)), "past capacity");

            // grow across the next word boundary: 64 - n % 64 + 1 slots
            let grown = 65 - n % 64;
            for i in 0..grown {
                assert_eq!(g.add_node(), NodeId((n + i) as u32));
            }
            let cap = n + grown;
            assert_eq!(g.len(), cap, "n = {n}: grown, all live");
            assert!(g.nodes().map(|v| v.index()).eq(0..cap), "ascending");

            // delete a spread of slots on both sides of the word boundary
            let mut victims: Vec<NodeId> = [0, 63, 64, cap - 1].map(|i| NodeId(i as u32)).to_vec();
            victims.dedup(); // cap - 1 is 64 when n = 0
            for &v in &victims {
                g.delete_node(v);
                assert!(!g.is_alive(v));
            }
            let live: Vec<NodeId> = g.nodes().collect();
            assert!(live.windows(2).all(|w| w[0] < w[1]), "n = {n}: ascending");
            assert_eq!(live.len(), cap - victims.len());
            assert!(live.iter().all(|v| !victims.contains(v)));
            assert_eq!(g.len(), live.len());
            assert_eq!(g.capacity(), cap, "deletion keeps the slots");
        }
    }

    #[test]
    fn dot_output_contains_edges() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let dot = g.to_dot("g");
        assert!(dot.contains("0 -- 1"));
        assert!(dot.contains("1 -- 2"));
    }
}
