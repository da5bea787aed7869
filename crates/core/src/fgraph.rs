//! The Forgiving Graph — healing interleaved insertions *and* deletions.
//!
//! The successor paper (*"The Forgiving Graph: a distributed data structure
//! for low stretch under adversarial attack"*, Hayes–Saia–Trehan,
//! arXiv:0902.2501) lets the adversary **insert** a fresh node attached to
//! chosen live nodes, or **delete** any live node, and bounds degree
//! increase and stretch by **O(log n)** against the *pristine* graph — the
//! network that would exist had every insertion happened and no deletion
//! (paper Theorem 1; [`crate::fg_degree_bound`]/[`crate::fg_stretch_bound`]
//! are the bound constants the test-suite enforces).
//!
//! This repository heals each deletion with a fresh **reconstruction tree**
//! shaped as a *half-full tree* ([`haft_edges`]) whose leaves are the
//! victim's surviving neighbors in ascending-ID order, with each internal
//! helper position simulated by a distinct member (the in-order rule: a
//! helper is played by the rightmost leaf of its left subtree). The paper
//! instead merges it into the reconstruction trees of earlier heals.
//!
//! [`LocalHealer`] heals a centralized graph by one per-deletion
//! [`LocalRule`]. [`LocalRule::Haft`] is the heal above: the test oracle of
//! the message-level implementation in [`crate::fgraph_dist`], which counts
//! the messages and is differential-tested against it. The other rules are
//! the naive heals the Forgiving Tree paper's introduction contrasts.

use crate::bounds::ceil_log2;
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
    let half = 1usize << (ceil_log2(d) - 1);
    half.min(d - half / 2)
}

/// A per-deletion heal rule: the edges it adds among the victim's
/// surviving neighbors, listed in ascending ID order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalRule {
    /// No repair at all: the reference point for connectivity loss.
    NoRepair,
    /// The lowest-ID survivor absorbs all the others; "an intelligent
    /// adversary can always cause this approach to increase the degree of
    /// some node by θ(n)".
    Surrogate,
    /// The survivors are joined in a path in ascending ID order; degrees
    /// stay small but "the diameter can increase by θ(n)".
    Line,
    /// The survivors are joined as a balanced binary tree (heap layout
    /// over the ID-sorted list), which also suffers θ(n) diameter growth
    /// over repeated adversarial deletions.
    BinaryTree,
    /// The survivors are joined by the member-level edges of the haft over
    /// them ([`haft_edges`]): the Forgiving Graph's heal as this repository
    /// runs it. Without the paper's merging of reconstruction trees, a
    /// max-degree attack on a star stretches distances far past
    /// [`crate::fg_stretch_bound`].
    Haft,
}

impl LocalRule {
    /// Short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            LocalRule::NoRepair => "no-heal",
            LocalRule::Surrogate => "surrogate",
            LocalRule::Line => "line",
            LocalRule::BinaryTree => "binary-tree",
            LocalRule::Haft => "haft",
        }
    }

    /// The rule's edges over `d` survivors: pairs `(i, j)` of positions
    /// with `i < j`, in the order the heal adds them.
    fn edges(self, d: usize) -> Vec<(usize, usize)> {
        let partner: fn(usize) -> usize = match self {
            LocalRule::NoRepair => return Vec::new(),
            LocalRule::Haft => return haft_edges(d),
            LocalRule::Surrogate => |_| 0,
            LocalRule::Line => |i| i - 1,
            LocalRule::BinaryTree => |i| (i - 1) / 2,
        };
        (1..d).map(|i| (partner(i), i)).collect()
    }
}

/// A network healed by one [`LocalRule`] after each deletion, and its
/// baseline: the initial network plus every insertion, no deletion (the
/// Forgiving Graph's pristine graph), which degree increase and stretch
/// are measured against. `LocalHealer::new(LocalRule::Haft, g)` is the
/// Forgiving Graph's test oracle:
///
/// ```
/// use ft_core::fgraph::{LocalHealer, LocalRule};
/// use ft_graph::{gen, NodeId};
///
/// let mut fg = LocalHealer::new(LocalRule::Haft, gen::kary_tree(40, 3));
///
/// // the adversary interleaves an insertion and two deletions
/// let newcomer = fg.insert_node(&[NodeId(4), NodeId(7)]);
/// fg.delete(NodeId(0));
/// fg.delete(NodeId(4));
///
/// assert!(fg.graph().is_alive(newcomer));
/// assert!(fg.graph().is_connected());
/// let bound = ft_core::fg_degree_bound(fg.graph().capacity());
/// assert!(fg.graph().max_degree_increase_over(fg.baseline()) <= bound);
/// ```
#[derive(Clone, Debug)]
pub struct LocalHealer {
    rule: LocalRule,
    /// The healed network.
    graph: Graph,
    /// Every insertion, no deletion.
    baseline: Graph,
}

impl LocalHealer {
    /// Arms `rule` over an initial network.
    pub fn new(rule: LocalRule, graph: Graph) -> Self {
        let baseline = graph.clone();
        LocalHealer {
            rule,
            graph,
            baseline,
        }
    }

    /// The rule this network heals by.
    pub fn rule(&self) -> LocalRule {
        self.rule
    }

    /// The current healed network.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The initial network plus every insertion, no deletion.
    pub fn baseline(&self) -> &Graph {
        &self.baseline
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
        self.baseline.add_node();
        for u in live {
            self.graph.add_edge(v, u);
            self.baseline.add_edge(v, u);
        }
        v
    }

    /// Deletes `v` (the adversary's move) and heals: the rule's edges over
    /// the surviving neighbors. Returns the edges the heal inserted, as
    /// `(a, b)` with `a < b`, in the rule's order.
    ///
    /// # Panics
    /// Panics if `v` is dead.
    pub fn delete(&mut self, v: NodeId) -> Vec<(NodeId, NodeId)> {
        let members = self.graph.delete_node(v); // ascending-ID order
        let mut added = Vec::new();
        for (i, j) in self.rule.edges(members.len()) {
            if self.graph.add_edge(members[i], members[j]) {
                added.push((members[i], members[j]));
            }
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fg_degree_bound, fg_stretch_bound};
    use ft_graph::gen;
    use ft_graph::hash::{fnv1a, FNV_BASIS};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn haft(g: Graph) -> LocalHealer {
        LocalHealer::new(LocalRule::Haft, g)
    }

    fn max_degree_increase(fg: &LocalHealer) -> i64 {
        fg.graph().max_degree_increase_over(fg.baseline())
    }

    /// The haft oracle's invariant audit: the healed network is connected
    /// whenever any node survives, capacities agree with the baseline, and
    /// the degree increase respects [`fg_degree_bound`].
    fn validate(fg: &LocalHealer) {
        let graph = fg.graph();
        assert_eq!(
            graph.capacity(),
            fg.baseline().capacity(),
            "healed/pristine capacities diverged"
        );
        assert!(
            graph.is_connected(),
            "healed graph disconnected with {} live nodes",
            graph.len()
        );
        let bound = fg_degree_bound(graph.capacity());
        let worst = max_degree_increase(fg);
        assert!(
            worst <= bound,
            "degree increase {worst} exceeds the O(log n) bound {bound}"
        );
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
            assert_eq!(h, ceil_log2(d), "height of haft({d})");
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
            let bound = 2 * ceil_log2(d) + 2;
            assert!(diam <= bound, "haft({d}) diameter {diam} > {bound}");
        }
    }

    #[test]
    fn delete_reconnects_via_haft() {
        let mut fg = haft(gen::star(9));
        let added = fg.delete(n(0));
        assert_eq!(added.len(), haft_edges(8).len());
        assert!(fg.graph().is_connected());
        assert!(max_degree_increase(&fg) <= 4);
    }

    #[test]
    fn insert_then_delete_round_trip() {
        let mut fg = haft(gen::path(5));
        let v = fg.insert_node(&[n(0), n(4)]);
        assert_eq!(v, n(5));
        assert!(fg.baseline().has_edge(v, n(0)));
        fg.delete(n(2));
        assert!(fg.graph().is_connected());
        let degree = |g: &Graph| g.degree(n(0));
        assert_eq!(
            degree(fg.graph()),
            degree(fg.baseline()),
            "insert is not an increase"
        );
        validate(&fg);
    }

    #[test]
    fn insertion_skips_dead_neighbors() {
        let mut fg = haft(gen::path(4));
        fg.delete(n(3));
        let v = fg.insert_node(&[n(3), n(0)]);
        assert_eq!(fg.graph().degree(v), 1, "dead neighbor skipped");
    }

    #[test]
    #[should_panic(expected = "no live neighbor")]
    fn insertion_needs_a_live_neighbor() {
        let mut fg = haft(gen::path(3));
        fg.delete(n(2));
        fg.insert_node(&[n(2)]);
    }

    #[test]
    fn random_churn_keeps_invariants() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = gen::random_tree(60, &mut rng);
        let mut fg = haft(g);
        let (mut inserts, mut heals) = (0, 0);
        for _ in 0..120 {
            if rng.gen_bool(0.4) {
                let live: Vec<NodeId> = fg.graph().nodes().collect();
                let a = live[rng.gen_range(0..live.len())];
                let b = live[rng.gen_range(0..live.len())];
                let picks: Vec<NodeId> = if a == b { vec![a] } else { vec![a, b] };
                fg.insert_node(&picks);
                inserts += 1;
            } else if fg.graph().len() > 2 {
                let live: Vec<NodeId> = fg.graph().nodes().collect();
                fg.delete(live[rng.gen_range(0..live.len())]);
                heals += 1;
            }
            validate(&fg);
        }
        assert!(inserts > 10);
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
