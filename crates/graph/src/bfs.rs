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
use std::collections::VecDeque;

/// Sentinel distance for a slot BFS never reached (dead node, different
/// component, or an id-space hole).
pub const UNREACHED: u32 = u32::MAX;

/// Dense per-node distance table over a graph's id space.
///
/// Slot `i` holds the hop distance of `NodeId(i)` from the BFS source, or
/// [`UNREACHED`]. All iteration ([`DistanceMap::iter`],
/// [`DistanceMap::nodes`]) is in ascending `NodeId` order.
///
/// The slots live in two buffers. `base` holds the slots the table was
/// built with and is never reallocated; [`DistanceMap::grow`] puts the
/// ids born later in `tail`, so slot `i` is `base[i]` below `base.len()`
/// and `tail[i - base.len()]` above it. A table kept alive while the id
/// space grows then copies only its tail, never the (large) field it was
/// built with. Every accessor, and equality, treats the two buffers as
/// one slot sequence: where the split falls is invisible.
#[derive(Clone, Debug)]
pub struct DistanceMap {
    /// Slots `0..base.len()`: the buffer the table was built with.
    base: Vec<u32>,
    /// Slots from `base.len()` on: ids the table grew to cover.
    tail: Vec<u32>,
    reached: usize,
}

impl DistanceMap {
    /// An all-[`UNREACHED`] table covering `cap` id-space slots.
    pub fn with_capacity(cap: usize) -> Self {
        DistanceMap {
            base: vec![UNREACHED; cap],
            tail: Vec::new(),
            reached: 0,
        }
    }

    /// Slot `i`, wherever it lives.
    fn slot(&self, i: usize) -> Option<&u32> {
        let base = self.base.len();
        if i < base {
            self.base.get(i)
        } else {
            self.tail.get(i - base)
        }
    }

    /// Slot `i` for writing, wherever it lives.
    fn slot_mut(&mut self, i: usize) -> Option<&mut u32> {
        let base = self.base.len();
        if i < base {
            self.base.get_mut(i)
        } else {
            self.tail.get_mut(i - base)
        }
    }

    /// Every slot in id order: the base, then the tail.
    fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.base.iter().chain(&self.tail).copied()
    }

    /// Records the first (and only) distance assignment for `v`.
    fn set(&mut self, v: NodeId, d: u32) {
        let slot = self.slot_mut(v.index()).expect("BFS visits ids in range");
        debug_assert_eq!(*slot, UNREACHED, "BFS visits once");
        *slot = d;
        self.reached += 1;
    }

    /// Extends the table to cover `cap` id-space slots (new slots start
    /// unreached). A no-op when the table is already large enough —
    /// incremental maintainers call this as the id space grows. Only the
    /// tail grows; the base buffer stays where it is.
    pub fn grow(&mut self, cap: usize) {
        if let Some(extra) = cap.checked_sub(self.base.len()) {
            if extra > self.tail.len() {
                self.tail.resize(extra, UNREACHED);
            }
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
        let slot = self
            .slot_mut(v.index())
            .unwrap_or_else(|| panic!("{v:?} is outside the table"));
        let fresh = *slot == UNREACHED;
        *slot = d;
        if fresh {
            self.reached += 1;
        }
    }

    /// Clears `v`'s slot back to unreached, returning the distance it held
    /// (or `None` when it was already unreached / out of range).
    pub fn clear_slot(&mut self, v: NodeId) -> Option<u32> {
        let d = std::mem::replace(self.slot_mut(v.index())?, UNREACHED);
        if d == UNREACHED {
            return None;
        }
        self.reached -= 1;
        Some(d)
    }

    /// Distance of `v` from the source, or `None` when `v` was not reached
    /// (including ids outside the table's range).
    pub fn get(&self, v: NodeId) -> Option<u32> {
        match self.slot(v.index()) {
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
        self.slots().filter(|&d| d != UNREACHED).max()
    }

    /// `(node, distance)` pairs in ascending [`NodeId`] order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        (0u32..)
            .zip(self.slots())
            .filter(|&(_, d)| d != UNREACHED)
            .map(|(i, d)| (NodeId(i), d))
    }

    /// Reached nodes in ascending [`NodeId`] order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().map(|(v, _)| v)
    }
}

impl PartialEq for DistanceMap {
    /// Equal slot sequences, wherever either table splits base from tail.
    fn eq(&self, other: &Self) -> bool {
        self.reached == other.reached
            && self.base.len() + self.tail.len() == other.base.len() + other.tail.len()
            && self.slots().eq(other.slots())
    }
}

impl Eq for DistanceMap {}

impl From<Vec<u32>> for DistanceMap {
    /// A table whose slot `i` holds `dist[i]`; slots holding [`UNREACHED`]
    /// are unreached. The vector becomes the base buffer as it is, so a BFS
    /// that fills raw slots hands them over without a copy or a per-slot
    /// [`DistanceMap::assign`].
    fn from(dist: Vec<u32>) -> Self {
        let reached = dist.iter().filter(|&&d| d != UNREACHED).count();
        DistanceMap {
            base: dist,
            tail: Vec::new(),
            reached,
        }
    }
}

impl std::ops::Index<NodeId> for DistanceMap {
    type Output = u32;

    /// Distance of `v`; panics when `v` was not reached.
    fn index(&self, v: NodeId) -> &u32 {
        let d = self
            .slot(v.index())
            .unwrap_or_else(|| panic!("{v:?} is outside the table"));
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
    bfs_distances(g, farthest(&d1).0).max()
}

/// Whether `g` is connected with a diameter of at most `bound`.
///
/// Decided by the iFUB argument (Crescenzi et al., 2013) cut down to the
/// question: two nodes within `bound / 2` of a source `u` are within
/// `bound` of each other, so only the nodes farther from `u` need a BFS of
/// their own, and the first of them with an eccentricity above `bound`
/// disproves it. `2·ecc(start) ≤ bound` proves it in one BFS; the double
/// sweep's lower bound above `bound` disproves it in a second; otherwise
/// `u` is the midpoint of the sweep's path, whose eccentricity is about
/// half the diameter, and its fringe is checked deepest first. On a tree
/// the fringe is empty unless `bound` is the (odd) diameter itself.
pub fn diameter_within(g: &Graph, bound: u32) -> bool {
    let Some(start) = g.nodes().next() else {
        return false;
    };
    let from_start = bfs_distances(g, start);
    if from_start.len() != g.len() {
        return false;
    }
    let (far, ecc) = farthest(&from_start);
    if 2 * ecc <= bound {
        return true;
    }
    let (from_far, parents) = bfs_tree(g, far);
    let (end, sweep) = farthest(&from_far);
    if sweep > bound {
        return false;
    }
    let mut up = vec![NodeId(0); g.capacity()];
    for (child, parent) in parents {
        up[child.index()] = parent;
    }
    let mid = (0..sweep - sweep / 2).fold(end, |v, _| up[v.index()]);
    let from_mid = bfs_distances(g, mid);
    let mut fringe: Vec<(u32, NodeId)> = from_mid
        .iter()
        .filter(|&(_, d)| 2 * d > bound)
        .map(|(v, d)| (d, v))
        .collect();
    fringe.sort_unstable_by(|a, b| b.cmp(a));
    fringe
        .into_iter()
        .all(|(_, v)| eccentricity(g, v).is_some_and(|e| e <= bound))
}

/// The farthest node of a BFS table and its distance, lowest id on ties.
fn farthest(dist: &DistanceMap) -> (NodeId, u32) {
    let mut best = dist.nodes().next().expect("a BFS reaches its source");
    let mut far = 0;
    for (v, d) in dist.iter() {
        if d > far {
            (best, far) = (v, d);
        }
    }
    (best, far)
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
    fn diameter_within_agrees_with_the_exact_diameter() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut graphs = Vec::new();
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = gen::random_tree(30, &mut rng);
            // chords make 2·ecc a loose upper bound and the sweep inexact
            for _ in 0..seed {
                let (a, b) = (rng.gen_range(0..30), rng.gen_range(0..30));
                if a != b && !g.has_edge(NodeId(a), NodeId(b)) {
                    g.add_edge(NodeId(a), NodeId(b));
                }
            }
            graphs.push(g);
        }
        // odd and even diameters, with and without a central node
        for n in 2..10 {
            graphs.extend([gen::path(n), gen::cycle(n + 1), gen::grid(2, n)]);
            graphs.extend([gen::caterpillar(n, 2), gen::broom(n, 3)]);
            // a path whose lowest id is a hole
            let mut holed = gen::cycle(n + 2);
            holed.delete_node(NodeId(0));
            graphs.push(holed);
        }
        for (i, g) in graphs.iter().enumerate() {
            let exact = diameter_exact(g).expect("connected");
            for bound in 0..=exact + 2 {
                assert_eq!(diameter_within(g, bound), exact <= bound, "{i}/{bound}");
            }
        }
        let split = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!diameter_within(&split, 10));
        assert!(!diameter_within(&Graph::new(0), 10));
        assert!(diameter_within(&Graph::new(1), 0));
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
    fn distance_maps_split_differently_compare_equal() {
        let whole = DistanceMap::from(vec![0, 1, UNREACHED, 2, UNREACHED, 3]);
        let mut split = DistanceMap::from(vec![0, 1, UNREACHED]);
        split.grow(6);
        split.assign(NodeId(3), 2);
        split.assign(NodeId(5), 3);
        assert_eq!((split.base.len(), split.tail.len()), (3, 3));
        assert_eq!(split, whole);
        assert_eq!(whole, split);
        let mut empty = DistanceMap::with_capacity(0);
        empty.grow(6);
        for (v, d) in whole.iter() {
            empty.assign(v, d);
        }
        assert_eq!(empty, whole, "all slots in the tail");
        split.grow(7);
        assert_ne!(split, whole, "one more slot, even an unreached one");
        let mut relabeled = whole.clone();
        relabeled.assign(NodeId(5), 4);
        assert_ne!(relabeled, whole);
    }

    #[test]
    fn grow_never_moves_the_base_buffer() {
        let mut d = DistanceMap::from(vec![UNREACHED; 1000]);
        let base = d.base.as_ptr();
        for cap in [1000, 1001, 1500, 4000, 10_000] {
            d.grow(cap);
            d.assign(NodeId(cap as u32 - 1), 1);
            assert_eq!(d.base.as_ptr(), base, "cap {cap}");
            assert_eq!(d.base.len(), 1000);
        }
        assert_eq!(d.len(), 5);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn distance_map_matches_a_vec_model(
            built in proptest::collection::vec(0u32..6, 0..12),
            steps in proptest::collection::vec((0u32..3, 0u32..64, 0u32..9), 0..48),
        ) {
            // `built` value 5 is an unreached slot of the base buffer
            let raw: Vec<u32> = built
                .iter()
                .map(|&d| if d == 5 { UNREACHED } else { d })
                .collect();
            let mut model: Vec<Option<u32>> =
                raw.iter().map(|&d| (d != UNREACHED).then_some(d)).collect();
            let mut map = DistanceMap::from(raw);
            for (op, x, d) in steps {
                // ids in the base, in the tail and just past the end
                let i = x as usize % (model.len() + 3);
                let v = NodeId(i as u32);
                match op {
                    0 => {
                        let cap = model.len() + d as usize % 4;
                        map.grow(cap);
                        if cap > model.len() {
                            model.resize(cap, None);
                        }
                        // a shrinking request is a no-op
                        map.grow(i.min(model.len()));
                    }
                    1 if i < model.len() => {
                        map.assign(v, d);
                        model[i] = Some(d);
                    }
                    1 => {}
                    _ => {
                        let want = model.get_mut(i).and_then(Option::take);
                        proptest::prop_assert_eq!(map.clear_slot(v), want);
                    }
                }
                for (j, want) in (0..model.len() + 3).map(|j| (j, model.get(j).copied().flatten())) {
                    let u = NodeId(j as u32);
                    proptest::prop_assert_eq!(map.get(u), want, "slot {}", j);
                    proptest::prop_assert_eq!(map.contains(u), want.is_some());
                }
                let reached: Vec<(NodeId, u32)> = model
                    .iter()
                    .enumerate()
                    .filter_map(|(j, d)| d.map(|d| (NodeId(j as u32), d)))
                    .collect();
                proptest::prop_assert_eq!(map.len(), reached.len());
                proptest::prop_assert_eq!(map.is_empty(), reached.is_empty());
                proptest::prop_assert_eq!(map.max(), reached.iter().map(|&(_, d)| d).max());
                proptest::prop_assert!(map.iter().eq(reached.iter().copied()));
                proptest::prop_assert!(map.nodes().eq(reached.iter().map(|&(u, _)| u)));
                let rebuilt = DistanceMap::from(
                    model.iter().map(|d| d.unwrap_or(UNREACHED)).collect::<Vec<u32>>(),
                );
                proptest::prop_assert_eq!(&map, &rebuilt);
            }
        }
    }
}
