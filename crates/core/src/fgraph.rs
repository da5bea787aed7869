//! The Forgiving Graph — healing interleaved insertions *and* deletions.
//!
//! Implements the successor paper's data structure (*"The Forgiving Graph: a
//! distributed data structure for low stretch under adversarial attack"*,
//! Hayes–Saia–Trehan, arXiv:0902.2501) at spec level, alongside the
//! Forgiving Tree's RT/will machinery:
//!
//! - the adversary may **insert** a fresh node attached to chosen live
//!   nodes, or **delete** any live node;
//! - each deletion is healed by a **reconstruction tree** shaped as a
//!   *half-full tree* ([`haft_edges`]) whose leaves are the victim's surviving
//!   neighbors in ascending-ID order, with each internal helper position
//!   simulated by a distinct member (the in-order rule: a helper is played
//!   by the rightmost leaf of its left subtree);
//! - the guarantees under arbitrary interleavings are **O(log n)** degree
//!   increase and **O(log n)** stretch against the *pristine* graph — the
//!   network that would exist had every insertion happened and no deletion
//!   (paper Theorem 1; [`fg_degree_bound`]/[`fg_stretch_bound`] are the
//!   bound constants the test-suite enforces).
//!
//! [`ForgivingGraph`] is the reference engine, a test oracle: it performs
//! the haft surgery directly on the healed [`Graph`] while tracking the
//! pristine graph. The message-level implementation the healers and
//! harnesses run lives in [`crate::fgraph_dist`]; it counts the messages,
//! and it is differential-tested against this engine.

use ft_graph::{Graph, NodeId};

/// The member-level edges of the half-full tree (haft) over `d` members:
/// the Forgiving Graph's reconstruction tree.
///
/// A haft over `d` leaves is a binary tree in which every internal node has
/// exactly two children, all leaves live on the bottom two levels, and the
/// bottom-level leaves are as far left as possible — so its height is
/// `⌈log₂ d⌉` and any two hafts merge with at most one level of growth.
/// Leaf `i` is the `i`-th member in ascending-ID order; each internal helper
/// is simulated by a distinct member, the rightmost leaf of its left subtree
/// (the in-order rule). Collapsing every helper into its simulator leaves
/// these edges: pairs `(i, j)` of member positions with `i < j`, sorted and
/// without duplicates. They span all `d` members with `O(log d)` hops and
/// give each member degree at most 4: one edge as a leaf plus at most three
/// as the simulator of one helper.
pub fn haft_edges(d: usize) -> Vec<(usize, usize)> {
    /// Adds the edges of the subtree over leaves `lo..hi`; returns the
    /// member simulating its root.
    fn build(lo: usize, hi: usize, out: &mut Vec<(usize, usize)>) -> usize {
        if hi - lo == 1 {
            return lo;
        }
        let l = haft_split(hi - lo);
        let sim = lo + l - 1;
        for child in [build(lo, lo + l, out), build(lo + l, hi, out)] {
            if child != sim {
                out.push((sim.min(child), sim.max(child)));
            }
        }
        sim
    }
    let mut out = Vec::with_capacity(2 * d);
    if d >= 2 {
        build(0, d, &mut out);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Leaves in the left subtree of a haft over `d ≥ 2` leaves. The split keeps
/// the bottom level left-packed: with `d > 2` and `h = ⌈log₂ d⌉`, the left
/// subtree takes `min(2^(h−1), d − 2^(h−2))` leaves.
fn haft_split(d: usize) -> usize {
    if d == 2 {
        return 1;
    }
    let h = usize::BITS - (d - 1).leading_zeros(); // ⌈log₂ d⌉
    let half = 1usize << (h - 1);
    half.min(d - half / 2)
}

/// The degree-increase bound the Forgiving Graph test-suite enforces:
/// `3·⌈log₂ n⌉ + 3` for an `n`-slot network (the paper's O(log n), with the
/// additive slack covering tiny graphs).
pub fn fg_degree_bound(n: usize) -> i64 {
    3 * (usize::BITS - (n.max(2) - 1).leading_zeros()) as i64 + 3
}

/// The stretch bound the Forgiving Graph test-suite enforces:
/// `⌈log₂ n⌉ + 2` for an `n`-slot network (the paper's O(log n) distance
/// blow-up against the pristine graph).
pub fn fg_stretch_bound(n: usize) -> f64 {
    (usize::BITS - (n.max(2) - 1).leading_zeros()) as f64 + 2.0
}

/// The Forgiving Graph reference engine: haft surgery on the healed graph,
/// with the pristine graph tracked for stretch/degree baselines.
///
/// # Quickstart
///
/// ```
/// use ft_core::fgraph::ForgivingGraph;
/// use ft_graph::{gen, NodeId};
///
/// let mut fg = ForgivingGraph::new(&gen::kary_tree(40, 3));
///
/// // the adversary interleaves an insertion and two deletions
/// let newcomer = fg.insert_node(&[NodeId(4), NodeId(7)]);
/// fg.delete(NodeId(0));
/// fg.delete(NodeId(4));
///
/// assert!(fg.graph().is_alive(newcomer));
/// assert!(fg.graph().is_connected());
/// assert!(fg.max_degree_increase() <= ft_core::fgraph::fg_degree_bound(fg.graph().capacity()));
/// ```
#[derive(Clone, Debug)]
pub struct ForgivingGraph {
    /// The healed network.
    graph: Graph,
    /// All insertions, no deletions: the stretch/degree baseline.
    pristine: Graph,
    /// Insertions performed.
    inserts: usize,
}

impl ForgivingGraph {
    /// Arms the structure over an initial network (any graph; the paper's
    /// guarantees assume it is connected).
    pub fn new(initial: &Graph) -> Self {
        ForgivingGraph {
            graph: initial.clone(),
            pristine: initial.clone(),
            inserts: 0,
        }
    }

    /// The current healed network.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The pristine network: every insertion applied, no deletion — the
    /// baseline that stretch and degree increase are measured against.
    pub fn pristine(&self) -> &Graph {
        &self.pristine
    }

    /// Insertions performed so far.
    pub fn inserts(&self) -> usize {
        self.inserts
    }

    /// Live node count.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// True when every node has been deleted.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Live node IDs in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.graph.nodes()
    }

    /// Inserts a fresh node attached to the listed live nodes (the
    /// adversary's insertion move) and returns its ID. Dead entries in
    /// `neighbors` are skipped.
    ///
    /// # Panics
    /// Panics when no listed neighbor is alive — the model only admits
    /// connected arrivals.
    pub fn insert_node(&mut self, neighbors: &[NodeId]) -> NodeId {
        let live: Vec<NodeId> = neighbors
            .iter()
            .copied()
            .filter(|&u| self.graph.is_alive(u))
            .collect();
        assert!(!live.is_empty(), "insertion with no live neighbor");
        let v = self.graph.add_node();
        let pv = self.pristine.add_node();
        debug_assert_eq!(v, pv, "healed/pristine capacities diverged");
        for &u in &live {
            self.graph.add_edge(v, u);
            self.pristine.add_edge(v, u);
        }
        self.inserts += 1;
        v
    }

    /// Deletes `v` (the adversary's move) and heals: the surviving
    /// neighbors are joined by the member-level edges of the haft over
    /// them ([`haft_edges`]). Returns the edges the heal inserted,
    /// as `(a, b)` with `a < b`, ascending.
    ///
    /// # Panics
    /// Panics if `v` is dead.
    pub fn delete(&mut self, v: NodeId) -> Vec<(NodeId, NodeId)> {
        let members = self.graph.delete_node(v); // ascending-ID order
        let mut added = Vec::new();
        if members.len() >= 2 {
            for (i, j) in haft_edges(members.len()) {
                if self.graph.add_edge(members[i], members[j]) {
                    added.push((members[i], members[j]));
                }
            }
        }
        added
    }

    /// Largest degree increase any live node currently suffers over the
    /// pristine baseline.
    pub fn max_degree_increase(&self) -> i64 {
        self.graph.max_degree_increase_over(&self.pristine)
    }

    /// Full invariant audit: the healed network is connected whenever any
    /// node survives, capacities agree with the pristine baseline, and the
    /// degree increase respects [`fg_degree_bound`].
    ///
    /// # Panics
    /// Panics on the first violated invariant.
    pub fn validate(&self) {
        assert_eq!(
            self.graph.capacity(),
            self.pristine.capacity(),
            "healed/pristine capacities diverged"
        );
        assert!(
            self.graph.is_connected(),
            "healed graph disconnected with {} live nodes",
            self.graph.len()
        );
        let bound = fg_degree_bound(self.graph.capacity());
        let worst = self.max_degree_increase();
        assert!(
            worst <= bound,
            "degree increase {worst} exceeds the O(log n) bound {bound}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen;
    use ft_graph::hash::{fnv1a, FNV_BASIS};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Degrees of the member-level haft graph.
    fn member_degrees(d: usize) -> Vec<usize> {
        let mut deg = vec![0usize; d];
        for (i, j) in haft_edges(d) {
            deg[i] += 1;
            deg[j] += 1;
        }
        deg
    }

    #[test]
    fn haft_height_is_ceil_log2() {
        fn height(d: usize) -> u32 {
            if d == 1 {
                return 0;
            }
            let l = haft_split(d);
            1 + height(l).max(height(d - l))
        }
        for d in 1..=130 {
            let h = height(d);
            let expect = usize::BITS - (d - 1).leading_zeros(); // ⌈log₂ d⌉, 0 for d=1
            assert_eq!(h, expect, "height of haft({d})");
        }
    }

    #[test]
    fn haft_member_edges_span_and_bound_degree() {
        for d in 1..=256 {
            let edges = haft_edges(d);
            let mut g = Graph::new(d);
            for &(i, j) in &edges {
                g.add_edge(NodeId(i as u32), NodeId(j as u32));
            }
            assert!(g.is_connected(), "haft({d}) member graph disconnected");
            for (i, deg) in member_degrees(d).iter().enumerate() {
                assert!(*deg <= 4, "haft({d}) member {i} has degree {deg}");
            }
        }
    }

    #[test]
    fn haft_of_two_is_a_single_edge() {
        assert_eq!(haft_edges(2), vec![(0, 1)]);
        assert!(haft_edges(1).is_empty());
    }

    #[test]
    fn haft_member_diameter_is_logarithmic() {
        for d in [4usize, 16, 64, 200] {
            let mut g = Graph::new(d);
            for (i, j) in haft_edges(d) {
                g.add_edge(NodeId(i as u32), NodeId(j as u32));
            }
            let diam = ft_graph::bfs::diameter_exact(&g).expect("connected");
            let bound = 2 * (usize::BITS - (d - 1).leading_zeros()) + 2;
            assert!(diam <= bound, "haft({d}) diameter {diam} > {bound}");
        }
    }

    #[test]
    fn delete_reconnects_via_haft() {
        let mut fg = ForgivingGraph::new(&gen::star(9));
        let added = fg.delete(n(0));
        assert_eq!(added.len(), haft_edges(8).len());
        assert!(fg.graph().is_connected());
        assert!(fg.max_degree_increase() <= 4);
    }

    #[test]
    fn insert_then_delete_round_trip() {
        let mut fg = ForgivingGraph::new(&gen::path(5));
        let v = fg.insert_node(&[n(0), n(4)]);
        assert_eq!(v, n(5));
        assert!(fg.pristine().has_edge(v, n(0)));
        fg.delete(n(2));
        assert!(fg.graph().is_connected());
        let degree = |g: &Graph| g.degree(n(0));
        assert_eq!(
            degree(fg.graph()),
            degree(fg.pristine()),
            "insert is not an increase"
        );
        fg.validate();
    }

    #[test]
    fn insertion_skips_dead_neighbors() {
        let mut fg = ForgivingGraph::new(&gen::path(4));
        fg.delete(n(3));
        let v = fg.insert_node(&[n(3), n(0)]);
        assert_eq!(fg.graph().degree(v), 1, "dead neighbor skipped");
    }

    #[test]
    #[should_panic(expected = "no live neighbor")]
    fn insertion_needs_a_live_neighbor() {
        let mut fg = ForgivingGraph::new(&gen::path(3));
        fg.delete(n(2));
        fg.insert_node(&[n(2)]);
    }

    #[test]
    fn random_churn_keeps_invariants() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = gen::random_tree(60, &mut rng);
        let mut fg = ForgivingGraph::new(&g);
        let mut heals = 0;
        for _ in 0..120 {
            if rng.gen_bool(0.4) {
                let live: Vec<NodeId> = fg.nodes().collect();
                let a = live[rng.gen_range(0..live.len())];
                let b = live[rng.gen_range(0..live.len())];
                let picks: Vec<NodeId> = if a == b { vec![a] } else { vec![a, b] };
                fg.insert_node(&picks);
            } else if fg.len() > 2 {
                let live: Vec<NodeId> = fg.nodes().collect();
                fg.delete(live[rng.gen_range(0..live.len())]);
                heals += 1;
            }
            fg.validate();
        }
        assert!(fg.inserts() > 10);
        assert!(heals > 10);
    }

    #[test]
    fn haft_edges_are_pinned() {
        // FNV-1a over every haft's member edges for d = 1..=512, in order:
        // `FgNode` sends its fresh-partner wills in this order, so the
        // order is part of the protocol's message trace.
        let mut h = FNV_BASIS;
        for d in 1..=512usize {
            h = fnv1a(h, (d as u64).to_le_bytes());
            for (i, j) in haft_edges(d) {
                h = fnv1a(h, ((i as u64) << 32 | j as u64).to_le_bytes());
            }
        }
        assert_eq!(h, 0xdb23_1976_a740_afc1, "haft edges drifted: {h:#018x}");
    }

    #[test]
    fn bounds_are_logarithmic() {
        assert_eq!(fg_degree_bound(1024), 33);
        assert!(fg_degree_bound(2) >= 6);
        assert_eq!(fg_stretch_bound(1024), 12.0);
    }
}
