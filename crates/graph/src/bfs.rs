//! Breadth-first search, distances, eccentricity and diameter.
//!
//! Theorem 1.2 of the paper bounds the *diameter* of the healed network;
//! every diameter experiment in this repository goes through this module.
//! Exact diameter is `O(n·m)` (one BFS per node) which is fine at experiment
//! scale (n ≤ a few thousand); for larger sweeps the double-sweep lower
//! bound [`diameter_double_sweep`] is provided.
//!
//! Distances are returned as a dense [`DistanceMap`] (one `u32` slot per
//! id-space slot) rather than a hash map: iteration is in ascending
//! [`NodeId`] order — deterministic across processes, which the seeded-replay
//! contract requires — and the stretch hot path's lookups become a bounds
//! check plus an array load.

use crate::{Graph, NodeId};
use std::collections::{BTreeMap, VecDeque};

/// Sentinel distance for a slot BFS never reached (dead node, different
/// component, or an id-space hole).
pub const UNREACHED: u32 = u32::MAX;

/// Dense per-node distance table over a graph's id space.
///
/// Slot `i` holds the hop distance of `NodeId(i)` from the BFS source, or
/// [`UNREACHED`]. All iteration ([`DistanceMap::iter`],
/// [`DistanceMap::nodes`]) is in ascending `NodeId` order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistanceMap {
    dist: Vec<u32>,
    reached: usize,
}

impl DistanceMap {
    /// An all-[`UNREACHED`] table covering `cap` id-space slots.
    pub fn with_capacity(cap: usize) -> Self {
        DistanceMap {
            dist: vec![UNREACHED; cap],
            reached: 0,
        }
    }

    /// Records the first (and only) distance assignment for `v`.
    fn set(&mut self, v: NodeId, d: u32) {
        debug_assert_eq!(self.dist[v.index()], UNREACHED, "BFS visits once");
        self.dist[v.index()] = d;
        self.reached += 1;
    }

    /// Extends the table to cover `cap` id-space slots (new slots start
    /// unreached). A no-op when the table is already large enough —
    /// incremental maintainers call this as the id space grows.
    pub fn grow(&mut self, cap: usize) {
        if cap > self.dist.len() {
            self.dist.resize(cap, UNREACHED);
        }
    }

    /// Assigns (or overwrites) `v`'s distance, maintaining the reached
    /// count — the mutation incremental distance repair is built on, where
    /// a slot's label legitimately changes over the structure's lifetime.
    ///
    /// # Panics
    /// Panics if `d` is [`UNREACHED`] (use [`DistanceMap::clear_slot`]) or
    /// `v` is outside the table.
    pub fn assign(&mut self, v: NodeId, d: u32) {
        assert_ne!(d, UNREACHED, "assign cannot unreach; use clear_slot");
        let slot = &mut self.dist[v.index()];
        if *slot == UNREACHED {
            self.reached += 1;
        }
        *slot = d;
    }

    /// Clears `v`'s slot back to unreached, returning the distance it held
    /// (or `None` when it was already unreached / out of range).
    pub fn clear_slot(&mut self, v: NodeId) -> Option<u32> {
        let slot = self.dist.get_mut(v.index())?;
        if *slot == UNREACHED {
            return None;
        }
        let d = *slot;
        *slot = UNREACHED;
        self.reached -= 1;
        Some(d)
    }

    /// Distance of `v` from the source, or `None` when `v` was not reached
    /// (including ids outside the table's range).
    pub fn get(&self, v: NodeId) -> Option<u32> {
        match self.dist.get(v.index()) {
            Some(&d) if d != UNREACHED => Some(d),
            _ => None,
        }
    }

    /// True when BFS reached `v`.
    pub fn contains(&self, v: NodeId) -> bool {
        self.get(v).is_some()
    }

    /// Number of reached nodes (the source counts itself).
    pub fn len(&self) -> usize {
        self.reached
    }

    /// True when nothing was reached (dead source).
    pub fn is_empty(&self) -> bool {
        self.reached == 0
    }

    /// Largest distance over all reached nodes; `None` when empty.
    pub fn max(&self) -> Option<u32> {
        self.dist.iter().filter(|&&d| d != UNREACHED).max().copied()
    }

    /// `(node, distance)` pairs in ascending [`NodeId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.dist
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d != UNREACHED)
            .map(|(i, &d)| (NodeId(i as u32), d))
    }

    /// Reached nodes in ascending [`NodeId`] order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|(v, _)| v)
    }
}

impl From<Vec<u32>> for DistanceMap {
    /// A table whose slot `i` holds `dist[i]`; slots holding [`UNREACHED`]
    /// are unreached. Lets a BFS that fills raw slots hand them over
    /// without a per-slot [`DistanceMap::assign`].
    fn from(dist: Vec<u32>) -> Self {
        let reached = dist.iter().filter(|&&d| d != UNREACHED).count();
        DistanceMap { dist, reached }
    }
}

impl std::ops::Index<NodeId> for DistanceMap {
    type Output = u32;

    /// Distance of `v`; panics when `v` was not reached.
    fn index(&self, v: NodeId) -> &u32 {
        let d = &self.dist[v.index()];
        assert!(*d != UNREACHED, "{v:?} not reached by this BFS");
        d
    }
}

/// Distances (in hops) from `src` to every node reachable from it.
///
/// The table contains `src` itself with distance 0. Nodes not reachable
/// from `src` (or dead nodes) report as unreached.
pub fn bfs_distances(g: &Graph, src: NodeId) -> DistanceMap {
    let mut dist = DistanceMap::with_capacity(g.capacity());
    if !g.is_alive(src) {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist.set(src, 0);
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let d = dist[v];
        for u in g.neighbors(v) {
            if !dist.contains(u) {
                dist.set(u, d + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

/// BFS that also records parents, yielding a BFS tree rooted at `src`.
///
/// Returns `(dist, parents)` where `parents` lists `(child, parent)` pairs
/// in discovery order (deterministic: the queue and each node's neighbor
/// list are). The root appears in no pair.
pub fn bfs_tree(g: &Graph, src: NodeId) -> (DistanceMap, Vec<(NodeId, NodeId)>) {
    let mut dist = DistanceMap::with_capacity(g.capacity());
    let mut parents = Vec::new();
    if !g.is_alive(src) {
        return (dist, parents);
    }
    let mut queue = VecDeque::new();
    dist.set(src, 0);
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let d = dist[v];
        for u in g.neighbors(v) {
            if !dist.contains(u) {
                dist.set(u, d + 1);
                parents.push((u, v));
                queue.push_back(u);
            }
        }
    }
    (dist, parents)
}

/// Shortest-path distance between `a` and `b`, or `None` if disconnected.
pub fn distance(g: &Graph, a: NodeId, b: NodeId) -> Option<u32> {
    bfs_distances(g, a).get(b)
}

/// Eccentricity of `v`: max distance from `v` to any reachable node.
/// `None` if `v` is dead or the graph is disconnected from `v`'s view
/// (strictly: returns the max over the reachable component).
pub fn eccentricity(g: &Graph, v: NodeId) -> Option<u32> {
    bfs_distances(g, v).max()
}

/// Exact diameter of the live graph (max pairwise shortest-path distance).
///
/// Returns `None` for an empty graph and for disconnected graphs (where the
/// diameter is conventionally infinite). A single live node has diameter 0.
pub fn diameter_exact(g: &Graph) -> Option<u32> {
    let n = g.len();
    if n == 0 {
        return None;
    }
    let mut best = 0;
    for v in g.nodes() {
        let dist = bfs_distances(g, v);
        if dist.len() != n {
            return None; // disconnected
        }
        best = best.max(dist.max().expect("nonempty"));
    }
    Some(best)
}

/// Double-sweep lower bound on the diameter: BFS from an arbitrary node to
/// find the farthest node `u`, then BFS from `u`. Exact on trees; a lower
/// bound in general. `None` for empty/disconnected graphs.
pub fn diameter_double_sweep(g: &Graph) -> Option<u32> {
    let start = g.nodes().next()?;
    let d1 = bfs_distances(g, start);
    if d1.len() != g.len() {
        return None;
    }
    // Farthest node, lowest id on ties: ascending iteration + strict `>`
    // keeps the first (smallest-id) maximum.
    let mut u = start;
    let mut du = 0;
    for (v, d) in d1.iter() {
        if d > du {
            u = v;
            du = d;
        }
    }
    bfs_distances(g, u).max()
}

/// All-pairs shortest path distances as an ordered map; `O(n·m)` time,
/// `O(n²)` space. Intended for stretch experiments at modest n.
pub fn all_pairs_distances(g: &Graph) -> BTreeMap<(NodeId, NodeId), u32> {
    let mut out = BTreeMap::new();
    for v in g.nodes() {
        for (u, d) in bfs_distances(g, v).iter() {
            out.insert((v, u), d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn distances_on_a_path() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[NodeId(0)], 0);
        assert_eq!(d[NodeId(3)], 3);
        assert_eq!(distance(&g, NodeId(3), NodeId(0)), Some(3));
    }

    #[test]
    fn bfs_tree_parents_point_toward_root() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let (dist, parents) = bfs_tree(&g, NodeId(0));
        assert_eq!(dist[NodeId(2)], 2);
        assert!(parents.iter().all(|&(c, _)| c != NodeId(0)));
        // every non-root parent is exactly one hop closer to the root
        for &(v, p) in &parents {
            assert_eq!(dist[v], dist[p] + 1);
        }
    }

    #[test]
    fn distance_map_iterates_in_ascending_id_order() {
        let g = Graph::from_edges(5, &[(4, 2), (2, 0), (0, 3), (3, 1)]);
        let d = bfs_distances(&g, NodeId(4));
        let order: Vec<NodeId> = d.nodes().collect();
        assert_eq!(
            order,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        assert_eq!(d.len(), 5);
        assert_eq!(d.get(NodeId(1)), Some(4));
        assert_eq!(d.get(NodeId(9)), None, "out-of-range id is unreached");
    }

    #[test]
    fn unreached_nodes_are_absent() {
        let mut g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d.len(), 2);
        assert!(!d.contains(NodeId(2)));
        assert_eq!(d.get(NodeId(3)), None);
        g.delete_node(NodeId(0));
        assert!(bfs_distances(&g, NodeId(0)).is_empty());
    }

    #[test]
    fn diameter_of_star_is_two() {
        let g = gen::star(9);
        assert_eq!(diameter_exact(&g), Some(2));
        assert_eq!(diameter_double_sweep(&g), Some(2));
    }

    #[test]
    fn diameter_of_path_is_n_minus_one() {
        let g = gen::path(10);
        assert_eq!(diameter_exact(&g), Some(9));
        assert_eq!(diameter_double_sweep(&g), Some(9));
    }

    #[test]
    fn diameter_none_when_disconnected() {
        let mut g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(diameter_exact(&g), None);
        assert_eq!(diameter_double_sweep(&g), None);
        g.add_edge(NodeId(1), NodeId(2));
        assert_eq!(diameter_exact(&g), Some(3));
    }

    #[test]
    fn double_sweep_is_exact_on_random_trees() {
        use rand::{rngs::StdRng, SeedableRng};
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = gen::random_tree(40, &mut rng);
            assert_eq!(diameter_exact(&g), diameter_double_sweep(&g));
        }
    }

    #[test]
    fn eccentricity_on_path_endpoints() {
        let g = gen::path(5);
        assert_eq!(eccentricity(&g, NodeId(0)), Some(4));
        assert_eq!(eccentricity(&g, NodeId(2)), Some(2));
    }

    #[test]
    fn distance_map_mutators_maintain_reached_count() {
        let mut d = DistanceMap::with_capacity(3);
        assert!(d.is_empty());
        d.assign(NodeId(0), 5);
        d.assign(NodeId(0), 2); // overwrite: reached unchanged
        d.assign(NodeId(2), 7);
        assert_eq!((d.len(), d.get(NodeId(0))), (2, Some(2)));
        assert_eq!(d.clear_slot(NodeId(2)), Some(7));
        assert_eq!(d.clear_slot(NodeId(2)), None, "already unreached");
        assert_eq!(d.clear_slot(NodeId(9)), None, "out of range");
        assert_eq!(d.len(), 1);
        d.grow(6);
        d.assign(NodeId(5), 1);
        assert_eq!(d.get(NodeId(5)), Some(1));
        d.grow(2); // shrinking is a no-op
        assert_eq!(d.get(NodeId(5)), Some(1));
    }

    #[test]
    fn all_pairs_symmetric() {
        let g = gen::cycle(6);
        let ap = all_pairs_distances(&g);
        for v in g.nodes() {
            for u in g.nodes() {
                assert_eq!(ap[&(v, u)], ap[&(u, v)]);
            }
        }
        assert_eq!(ap[&(NodeId(0), NodeId(3))], 3);
    }
}
