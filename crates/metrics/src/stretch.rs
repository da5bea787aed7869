//! Stretch measurement: healed-graph distances against the pristine graph.
//!
//! The Forgiving Graph's headline guarantee is *low stretch*: for any two
//! surviving nodes `u, v`, the healed distance satisfies
//! `d_healed(u, v) ≤ O(log n) · d_pristine(u, v)`, where the pristine graph
//! contains every insertion and no deletion (paths may route through since-
//! deleted nodes — the strongest baseline).
//!
//! [`measure_stretch_full`] samples BFS sources among the surviving nodes
//! and compares the two distance fields pairwise, so the cost is
//! `O(sources · (V + E))` rather than all-pairs — at 10⁴ nodes a full
//! campaign's stretch pass runs in milliseconds and scales to 10⁵⁺. The
//! stress harness measures with the incremental tracker in
//! [`crate::stretch_inc`] instead, which maintains the same distance fields
//! across churn and produces bit-identical figures; this module is its
//! differential oracle, called only by tests.
//!
//! # Source sampling
//!
//! Sources are chosen by **min-wise priority sampling**: every node id gets
//! a fixed pseudorandom priority from `(seed, id)` and the `k` live nodes
//! with the smallest priorities form the sample ([`select_sources`]). The
//! sample is a pure function of the seed and the live set — no RNG state,
//! no draw order — so an incremental maintainer can reselect after churn
//! and land on exactly the set a fresh full pass would pick. Finding it
//! takes one pass over the id space that hashes every slot and looks at a
//! slot's liveness only when its priority could still make the sample.
//!
//! Pairs are counted **once**: when both endpoints of a surviving pair are
//! sampled as sources, the pair is charged to its lower-ID endpoint only,
//! so `pairs`, `mean_stretch`, and `disconnected_pairs` are counts over
//! *unordered* pairs (an earlier version double-counted source–source
//! pairs, silently inflating `pairs` and biasing `mean_stretch` toward
//! whatever the source set happened to oversample).
//!
//! Per-source partial results fold **in sample order** (ascending source
//! id), so every figure — including the floating-point `mean_stretch`
//! accumulation and the [`OperationCost`] counters — is a pure function of
//! the graphs, the source count and the seed.

#![deny(clippy::as_conversions)]

use ft_costs::{count, CostResult, OperationCost};
use ft_graph::bfs::{DistanceMap, UNREACHED};
use ft_graph::{Graph, NodeId};
use std::collections::{BinaryHeap, VecDeque};

/// What a sampled stretch pass observed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StretchReport {
    /// BFS sources sampled.
    pub sources: usize,
    /// Surviving unordered pairs compared (each counted once).
    pub pairs: usize,
    /// Worst observed `d_healed / d_pristine`.
    pub max_stretch: f64,
    /// Mean observed `d_healed / d_pristine`.
    pub mean_stretch: f64,
    /// Worst healed distance seen from any sampled source.
    pub max_healed_distance: u32,
    /// Pairs connected in the pristine graph but not in the healed one —
    /// non-zero means the healer lost connectivity (a bug).
    pub disconnected_pairs: usize,
}

/// Everything one source's pair comparison contributes, folded in sample
/// order so the full pass and the incremental tracker accumulate
/// identically.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SourcePass {
    pub(crate) pairs: usize,
    pub(crate) sum: f64,
    pub(crate) max_stretch: f64,
    pub(crate) max_healed_distance: u32,
    pub(crate) disconnected: usize,
}

/// Folds per-source passes (in sample order) into a [`StretchReport`].
/// Shared by the full pass and the incremental tracker so the two score
/// identically down to the floating-point accumulation order.
pub(crate) fn fold_passes(sources: usize, passes: &[SourcePass]) -> StretchReport {
    let mut report = StretchReport {
        sources,
        ..StretchReport::default()
    };
    let mut sum = 0.0f64;
    for pass in passes {
        report.pairs += pass.pairs;
        sum += pass.sum;
        if pass.max_stretch > report.max_stretch {
            report.max_stretch = pass.max_stretch;
        }
        report.max_healed_distance = report.max_healed_distance.max(pass.max_healed_distance);
        report.disconnected_pairs += pass.disconnected;
    }
    #[expect(
        clippy::as_conversions,
        reason = "pairs < n^2 <= 2^53 at any experiment scale, so the usize->f64 conversion is exact"
    )]
    if report.pairs > 0 {
        report.mean_stretch = sum / report.pairs as f64;
    }
    report
}

/// SplitMix64 finalizer — the priority hash behind min-wise sampling.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The fixed pseudorandom priority of node `v` under `seed`. Lower wins.
pub(crate) fn priority(seed: u64, v: NodeId) -> u64 {
    splitmix64(seed ^ u64::from(v.0).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The min-wise sample: the (up to) `k` live nodes of `g` with the
/// smallest `(priority, id)` keys, returned in **ascending id order** (the
/// canonical sample order every fold in this module uses). Deterministic
/// and history-free: the sample is a pure function of `(seed, k, live
/// set)`, so any two callers that agree on those agree on it. `k = 0` is
/// treated as 1.
///
/// One pass over the id space computes every slot's key first and keeps
/// the `k` smallest live keys in a bounded max-heap. A slot whose priority
/// exceeds the largest kept one cannot enter the sample, so only the rare
/// slot that could is checked for liveness and offered to the heap; ids
/// rise through the scan, so a tied priority loses to the kept key just as
/// the `(priority, id)` order says.
pub fn select_sources(g: &Graph, k: usize, seed: u64) -> Vec<NodeId> {
    let k = k.max(1).min(g.len());
    let capacity = u32::try_from(g.capacity()).expect("node ids fit u32");
    let mut kept: BinaryHeap<(u64, NodeId)> = BinaryHeap::with_capacity(k);
    // the largest kept priority once the heap is full; nothing beats MAX
    let mut bar = u64::MAX;
    for v in (0..capacity).map(NodeId) {
        let key = (priority(seed, v), v);
        if key.0 > bar || !g.is_alive(v) {
            continue;
        }
        if kept.len() < k {
            kept.push(key);
        } else if let Some(mut largest) = kept.peek_mut() {
            if key < *largest {
                *largest = key;
            }
        }
        if kept.len() == k {
            bar = kept.peek().map_or(u64::MAX, |&(p, _)| p);
        }
    }
    let mut picked: Vec<NodeId> = kept.into_iter().map(|(_, v)| v).collect();
    picked.sort_unstable();
    picked
}

/// BFS distances from `src`, charging the pass to `cost`: one node visit
/// per settled node, one edge scan per adjacency entry examined.
pub(crate) fn bfs_with_cost(g: &Graph, src: NodeId, cost: &mut OperationCost) -> DistanceMap {
    let mut dist = DistanceMap::with_capacity(g.capacity());
    if !g.is_alive(src) {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist.assign(src, 0);
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        cost.node_visits += 1;
        cost.edge_scans += count(g.degree(v));
        let d = dist[v];
        for u in g.neighbors(v) {
            if !dist.contains(u) {
                dist.assign(u, d + 1);
                queue.push_back(u);
            }
        }
    }
    cost.heap_bytes = cost
        .heap_bytes
        .saturating_add(count(g.capacity() * std::mem::size_of::<u32>()));
    dist
}

/// Sources one batched BFS carries: one bit of a `u16` lane mask each.
const LANES: usize = 16;

/// The BFS distance field of every source in `srcs` (in `srcs` order),
/// equal to one [`bfs_with_cost`] per source and charged to `cost` exactly
/// as those passes would be: one node visit and `degree(v)` edge scans per
/// settled (source, node) pair, and one table of `capacity` `u32`s per
/// live source.
///
/// Up to 16 sources share one level-synchronous bit-parallel BFS (Then et
/// al., "The More the Merrier", PVLDB 2014): every node carries `u16` lane
/// masks — `seen`, this level's frontier, the next level's — so a node's
/// adjacency is read once per level for all the lanes that reach it then,
/// instead of once per source. Each level is expanded in ascending
/// `NodeId` order over a compact snapshot of the adjacency, which keeps
/// the adjacency and distance-table walks close to sequential. A sparse
/// level is a sorted list and a dense one a bitmap, so a level costs
/// `O(frontier + edges)` either way and deep graphs never pay a
/// capacity-sized scan per level.
pub(crate) fn bfs_fields_with_cost(
    g: &Graph,
    srcs: &[NodeId],
    cost: &mut OperationCost,
) -> Vec<DistanceMap> {
    let mut bfs = MultiBfs::new(g);
    let mut fields = Vec::with_capacity(srcs.len());
    for batch in srcs.chunks(LANES) {
        fields.extend(bfs.search_batch(g, batch, cost));
    }
    fields
}

/// A node's lane masks. `seen` and the next level's mask are read and
/// written together for every edge the BFS follows, so they share a cache
/// line; the two frontier slots trade roles between even and odd levels.
#[derive(Clone, Copy, Default)]
#[repr(align(8))]
struct NodeLanes {
    /// Lanes that have reached the node.
    seen: u16,
    /// Lanes for which the node is on an even level / an odd level.
    frontier: [u16; 2],
}

/// Scratch state of [`bfs_fields_with_cost`], reused across its batches.
struct MultiBfs {
    /// `targets[offsets[v]..offsets[v + 1]]` are `v`'s neighbors (none for
    /// a dead slot): the graph's adjacency laid out contiguously.
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    /// Lane masks per node slot.
    lanes: Vec<NodeLanes>,
    /// The current level in ascending order, while it is sparse.
    cur_list: Vec<NodeId>,
    /// The next level in discovery order, while it stays sparse.
    next_list: Vec<NodeId>,
    /// The current level as a bitmap, while it is dense.
    cur_bits: Vec<u64>,
    /// The next level as a bitmap (always kept, so it can turn dense).
    next_bits: Vec<u64>,
    /// Levels larger than this are walked through the bitmap: scanning
    /// its words then costs at most eight per frontier node.
    dense_at: usize,
}

impl MultiBfs {
    fn new(g: &Graph) -> Self {
        let capacity = g.capacity();
        let mut offsets = Vec::with_capacity(capacity + 1);
        let mut targets = Vec::with_capacity(2 * g.num_edges());
        offsets.push(0);
        let mut v = NodeId(0);
        for _ in 0..capacity {
            if g.is_alive(v) {
                targets.extend(g.neighbors(v));
            }
            offsets.push(u32::try_from(targets.len()).expect("adjacency fits u32 offsets"));
            v.0 += 1;
        }
        let words = capacity.div_ceil(64);
        MultiBfs {
            offsets,
            targets,
            lanes: vec![NodeLanes::default(); capacity],
            cur_list: Vec::new(),
            next_list: Vec::new(),
            cur_bits: vec![0; words],
            next_bits: vec![0; words],
            dense_at: words / 8,
        }
    }

    /// One batch of at most [`LANES`] sources.
    fn search_batch(
        &mut self,
        g: &Graph,
        batch: &[NodeId],
        cost: &mut OperationCost,
    ) -> Vec<DistanceMap> {
        debug_assert!(batch.len() <= LANES);
        let capacity = g.capacity();
        let mut fields: Vec<Vec<u32>> = batch.iter().map(|_| vec![UNREACHED; capacity]).collect();
        for (lane, &src) in batch.iter().enumerate() {
            if !g.is_alive(src) {
                continue; // a dead source's field stays empty and uncharged
            }
            cost.heap_bytes = cost
                .heap_bytes
                .saturating_add(count(capacity * std::mem::size_of::<u32>()));
            let bit = 1u16 << lane;
            let node = &mut self.lanes[src.index()];
            if node.frontier[0] == 0 {
                self.cur_list.push(src);
            }
            node.frontier[0] |= bit;
            node.seen |= bit;
        }
        self.cur_list.sort_unstable();

        let mut dense = false;
        let mut level = 0u32;
        loop {
            if dense {
                let mut bits = std::mem::take(&mut self.cur_bits);
                let mut base = 0u32;
                for word in &mut bits {
                    let mut w = std::mem::take(word);
                    while w != 0 {
                        self.expand_node(
                            NodeId(base + w.trailing_zeros()),
                            level,
                            &mut fields,
                            cost,
                        );
                        w &= w - 1;
                    }
                    base += 64;
                }
                self.cur_bits = bits;
            } else {
                let list = std::mem::take(&mut self.cur_list);
                for &v in &list {
                    self.expand_node(v, level, &mut fields, cost);
                }
                self.cur_list = list;
                self.cur_list.clear();
            }
            let found = self.next_list.len();
            if found == 0 {
                break;
            }
            // `next_list` stops growing at `dense_at + 1` entries, so a
            // full list means the level is dense.
            dense = found > self.dense_at;
            if dense {
                std::mem::swap(&mut self.cur_bits, &mut self.next_bits);
                self.next_list.clear();
            } else {
                self.next_list.sort_unstable();
                for v in &self.next_list {
                    self.next_bits[v.index() / 64] = 0;
                }
                std::mem::swap(&mut self.cur_list, &mut self.next_list);
            }
            level += 1;
        }
        // every other buffer drained itself on the way
        self.lanes.fill(NodeLanes::default());
        fields.into_iter().map(DistanceMap::from).collect()
    }

    /// Settles `v` at distance `level` for every lane of its frontier mask
    /// and pushes the lanes its neighbors have not seen onto the next
    /// level.
    fn expand_node(
        &mut self,
        v: NodeId,
        level: u32,
        fields: &mut [Vec<u32>],
        cost: &mut OperationCost,
    ) {
        let cur = widen(level & 1);
        let next = cur ^ 1;
        let i = v.index();
        let lanes = std::mem::take(&mut self.lanes[i].frontier[cur]);
        let nbrs = &self.targets[widen(self.offsets[i])..widen(self.offsets[i + 1])];
        let settled = u64::from(lanes.count_ones());
        cost.node_visits += settled;
        cost.edge_scans += settled * count(nbrs.len());
        let mut m = lanes;
        while m != 0 {
            fields[widen(m.trailing_zeros())][i] = level;
            m &= m - 1;
        }
        for &u in nbrs {
            let node = &mut self.lanes[u.index()];
            let fresh = lanes & !node.seen;
            if fresh == 0 {
                continue;
            }
            node.seen |= fresh;
            if node.frontier[next] == 0 {
                self.next_bits[u.index() / 64] |= 1 << (u.index() % 64);
                if self.next_list.len() <= self.dense_at {
                    self.next_list.push(u);
                }
            }
            node.frontier[next] |= fresh;
        }
    }
}

/// A `u32` offset or bit index as a slice index.
fn widen(x: u32) -> usize {
    usize::try_from(x).expect("a u32 fits in usize")
}

/// Scores every surviving pair owned by `src` against the two distance
/// fields. Iterates survivors in ascending `NodeId` order (deterministic —
/// never a hash-map iteration order) and skips pairs owned by a lower-ID
/// sampled source. Shared verbatim by the full pass and the incremental
/// tracker — figure parity between the two reduces to distance-field
/// parity.
pub(crate) fn pair_pass(
    dh: &DistanceMap,
    dp: &DistanceMap,
    healed: &Graph,
    src: NodeId,
    sampled: &[bool],
) -> SourcePass {
    let mut pass = SourcePass::default();
    for v in healed.nodes() {
        if v == src {
            continue;
        }
        // {src, v} with both endpoints sampled would be visited from each
        // side; the lower-ID endpoint owns the pair.
        if v < src && sampled.get(v.index()).copied().unwrap_or(false) {
            continue;
        }
        let Some(pd) = dp.get(v) else {
            // not reachable in the pristine graph either: no pair to score
            continue;
        };
        match dh.get(v) {
            None => pass.disconnected += 1,
            Some(hd) => {
                let s = f64::from(hd) / f64::from(pd);
                pass.pairs += 1;
                pass.sum += s;
                if s > pass.max_stretch {
                    pass.max_stretch = s;
                }
                pass.max_healed_distance = pass.max_healed_distance.max(hd);
            }
        }
    }
    pass
}

/// Marks the sampled sources in a dense flag array over the id space.
pub(crate) fn sampled_flags(capacity: usize, picked: &[NodeId]) -> Vec<bool> {
    let mut sampled = vec![false; capacity];
    for &s in picked {
        sampled[s.index()] = true;
    }
    sampled
}

/// One source's full pass: both BFS fields plus the pair comparison.
fn source_pass(
    healed: &Graph,
    pristine: &Graph,
    src: NodeId,
    sampled: &[bool],
) -> (SourcePass, OperationCost) {
    let mut cost = OperationCost::ZERO;
    let dh = bfs_with_cost(healed, src, &mut cost);
    let dp = bfs_with_cost(pristine, src, &mut cost);
    (pair_pass(&dh, &dp, healed, src, sampled), cost)
}

/// The full (from-scratch) stretch pass: min-wise samples up to `sources`
/// BFS sources among the nodes alive in `healed` and measures the distance
/// stretch of every surviving pair involving a sampled source, each
/// unordered pair counted once. Returns the figures together with the
/// [`OperationCost`] of the sweep (BFS settles as node visits, adjacency
/// reads as edge scans, distance tables as heap bytes).
///
/// Per-source partials are folded in sample order. This is the
/// differential oracle the incremental tracker
/// ([`crate::stretch_inc::StretchTracker`]) is checked against.
///
/// Nodes alive in `healed` must exist in `pristine` (the engines guarantee
/// this: insertions grow both graphs in lockstep).
pub fn measure_stretch_full(
    healed: &Graph,
    pristine: &Graph,
    sources: usize,
    seed: u64,
) -> CostResult<StretchReport> {
    let picked = select_sources(healed, sources, seed);
    let sampled = sampled_flags(healed.capacity(), &picked);
    let mut cost = OperationCost::ZERO;
    let passes: Vec<SourcePass> = picked
        .iter()
        .map(|&src| {
            let (pass, c) = source_pass(healed, pristine, src, &sampled);
            cost += c;
            pass
        })
        .collect();
    (fold_passes(picked.len(), &passes), cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen;

    #[test]
    fn identical_graphs_have_stretch_one() {
        let g = gen::kary_tree(30, 2);
        let (r, _) = measure_stretch_full(&g, &g, 8, 1);
        assert_eq!(r.max_stretch, 1.0);
        assert_eq!(r.mean_stretch, 1.0);
        assert_eq!(r.disconnected_pairs, 0);
        assert!(r.pairs > 0);
    }

    #[test]
    fn detour_shows_up_as_stretch() {
        // pristine: a 6-cycle; healed: the cycle minus one edge (a path) —
        // the endpoints' distance grows from 1 to 5.
        let pristine = gen::cycle(6);
        let mut healed = pristine.clone();
        healed.remove_edge(NodeId(0), NodeId(5));
        let (r, _) = measure_stretch_full(&healed, &pristine, 6, 3);
        assert_eq!(r.max_stretch, 5.0);
        assert!(r.mean_stretch > 1.0);
        assert_eq!(r.disconnected_pairs, 0);
    }

    #[test]
    fn lost_connectivity_is_reported() {
        let pristine = gen::path(4);
        let mut healed = pristine.clone();
        healed.remove_edge(NodeId(1), NodeId(2));
        let (r, _) = measure_stretch_full(&healed, &pristine, 4, 5);
        assert!(r.disconnected_pairs > 0);
    }

    #[test]
    fn deleted_nodes_are_skipped_but_route_pristine_paths() {
        // healed: 0-2 direct after 1 died; pristine still routes 0-1-2
        let pristine = gen::path(3);
        let mut healed = pristine.clone();
        healed.delete_node(NodeId(1));
        healed.add_edge(NodeId(0), NodeId(2));
        let (r, _) = measure_stretch_full(&healed, &pristine, 3, 7);
        assert_eq!(r.pairs, 1, "both survivors sampled: the pair counts once");
        assert_eq!(r.max_stretch, 0.5, "the heal shortened the route");
    }

    #[test]
    fn every_pair_counted_exactly_once_under_full_sampling() {
        // every live node sampled ⇒ pairs must be exactly C(n, 2)
        let g = gen::cycle(7);
        let (r, _) = measure_stretch_full(&g, &g, 7, 11);
        assert_eq!(r.sources, 7);
        assert_eq!(r.pairs, 7 * 6 / 2, "unordered pairs, no double count");
        // and on a disconnected healed graph the missing pairs are
        // likewise deduped
        let mut healed = g.clone();
        healed.remove_edge(NodeId(0), NodeId(1));
        healed.remove_edge(NodeId(3), NodeId(4));
        let (r, _) = measure_stretch_full(&healed, &g, 7, 11);
        assert_eq!(
            r.pairs + r.disconnected_pairs,
            7 * 6 / 2,
            "connected + lost pairs partition the unordered pair set"
        );
    }

    #[test]
    fn min_wise_sample_is_a_pure_function_of_seed_and_live_set() {
        let g = gen::kary_tree(100, 3);
        let a = select_sources(&g, 10, 5);
        let b = select_sources(&g, 10, 5);
        assert_eq!(a, b, "deterministic");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "ascending id order");
        assert_ne!(a, select_sources(&g, 10, 6), "seed matters");
        // deleting an unsampled node leaves the sample untouched;
        // deleting a sampled node promotes exactly one replacement
        let mut g2 = g.clone();
        let unsampled = g2.nodes().find(|v| !a.contains(v)).expect("one exists");
        g2.delete_node(unsampled);
        assert_eq!(select_sources(&g2, 10, 5), a);
        let mut g3 = g.clone();
        g3.delete_node(a[0]);
        let c = select_sources(&g3, 10, 5);
        assert_eq!(c.len(), 10);
        assert_eq!(c.iter().filter(|v| a.contains(v)).count(), 9);
    }

    /// The reference selection: sort every live node's key, keep the `k`
    /// smallest, return them by id.
    fn select_by_sort(g: &Graph, k: usize, seed: u64) -> Vec<NodeId> {
        let mut keyed: Vec<(u64, NodeId)> = g.nodes().map(|v| (priority(seed, v), v)).collect();
        keyed.sort_unstable();
        keyed.truncate(k.max(1));
        let mut picked: Vec<NodeId> = keyed.into_iter().map(|(_, v)| v).collect();
        picked.sort_unstable();
        picked
    }

    #[test]
    fn streaming_selection_matches_a_full_sort() {
        let mut g = gen::kary_tree(500, 3);
        for v in (0..500).step_by(7) {
            g.delete_node(NodeId(v)); // id holes
        }
        let live = g.len();
        for seed in [1u64, 9, 42] {
            for k in [0, 1, 2, 16, 100, live - 1, live, live + 1, 10 * live] {
                let picked = select_sources(&g, k, seed);
                assert_eq!(picked, select_by_sort(&g, k, seed), "seed {seed}, k {k}");
            }
        }
        assert_eq!(
            select_sources(&g, 0, 3).len(),
            1,
            "k = 0 samples one source"
        );
        assert_eq!(select_sources(&g, usize::MAX, 3).len(), live);
        assert!(select_sources(&Graph::new(0), 4, 3).is_empty());
    }

    /// One scalar [`bfs_with_cost`] per source: what the batched BFS
    /// must reproduce, field for field and counter for counter.
    fn scalar_fields(g: &Graph, srcs: &[NodeId]) -> (Vec<DistanceMap>, OperationCost) {
        let mut cost = OperationCost::ZERO;
        let fields = srcs
            .iter()
            .map(|&s| bfs_with_cost(g, s, &mut cost))
            .collect();
        (fields, cost)
    }

    fn assert_batched_matches_scalar(g: &Graph, srcs: &[NodeId]) {
        let (want, want_cost) = scalar_fields(g, srcs);
        let mut cost = OperationCost::ZERO;
        let got = bfs_fields_with_cost(g, srcs, &mut cost);
        assert_eq!(got.len(), srcs.len());
        // not assert_eq!: a failure would print two whole tables
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert!(a == b, "field of source {:?} (#{i}) diverged", srcs[i]);
        }
        assert_eq!(cost, want_cost, "batched cost != sum of scalar passes");
    }

    /// A random graph with deleted slots, several components, and a
    /// capacity grown by `add_node` (some newcomers wired, some isolated).
    #[expect(
        clippy::as_conversions,
        reason = "test fixture: slot ids below 2^32 convert exactly"
    )]
    fn holey_graph(seed: u64, n: usize) -> Graph {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = gen::random_tree(n, &mut rng);
        let id = |rng: &mut StdRng, g: &Graph| NodeId(rng.gen_range(0..g.capacity()) as u32);
        for _ in 0..n / 4 {
            let (a, b) = (id(&mut rng, &g), id(&mut rng, &g));
            if a != b && !g.has_edge(a, b) {
                g.add_edge(a, b);
            }
        }
        for _ in 0..n / 10 {
            let v = id(&mut rng, &g);
            if g.is_alive(v) {
                g.delete_node(v); // unpatched: the graph splits
            }
        }
        for _ in 0..n / 20 + 1 {
            let v = g.add_node();
            if rng.gen_bool(0.5) {
                let u = id(&mut rng, &g);
                if u != v && g.is_alive(u) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    #[test]
    fn batched_fields_equal_scalar_passes_for_every_batch_size() {
        for (seed, n) in [(1u64, 60), (2, 400), (3, 3000)] {
            let g = holey_graph(seed, n);
            assert!(!g.is_connected(), "deletions split the graph");
            for k in [1, 15, 16, 17, 40] {
                let srcs = select_sources(&g, k, seed);
                assert_eq!(srcs.len(), k);
                assert_batched_matches_scalar(&g, &srcs);
            }
        }
    }

    #[test]
    fn dead_source_inside_a_batch_gets_an_empty_uncharged_field() {
        let g = holey_graph(5, 500);
        let dead = (0..500u32)
            .map(NodeId)
            .find(|&v| !g.is_alive(v))
            .expect("one died");
        let mut srcs = select_sources(&g, 20, 5);
        srcs.insert(3, dead); // first batch
        srcs.insert(18, dead); // second batch
        srcs.push(NodeId(u32::MAX)); // never a node
        srcs.push(srcs[0]); // a source twice
        assert_batched_matches_scalar(&g, &srcs);
        let mut cost = OperationCost::ZERO;
        let fields = bfs_fields_with_cost(&g, &[dead], &mut cost);
        assert!(fields[0].is_empty());
        assert!(cost.is_zero(), "a dead source is never charged");
    }

    #[test]
    fn batched_fields_on_deep_graphs() {
        for g in [gen::path(100_000), gen::cycle(100_000)] {
            let srcs = select_sources(&g, 16, 7);
            assert_batched_matches_scalar(&g, &srcs);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        #[test]
        fn key_first_selection_matches_a_full_sort(
            seed in 0u64..10_000,
            n in 1usize..400,
            dead_pct in 0u32..=100,
            k_pick in 0usize..10_000,
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let mut g = holey_graph(seed, n);
            let mut rng = StdRng::seed_from_u64(!seed);
            for v in (0u32..).map(NodeId).take(g.capacity()) {
                if g.is_alive(v) && rng.gen_range(0..100) < dead_pct {
                    g.delete_node(v);
                }
            }
            let k = k_pick % (g.len() + 3);
            proptest::prop_assert_eq!(
                select_sources(&g, k, seed),
                select_by_sort(&g, k, seed),
                "k {}, live {}",
                k,
                g.len()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn batched_fields_equal_scalar_passes(
            seed in 0u64..10_000,
            n in 2usize..2_500,
            k in 1usize..40,
        ) {
            let g = holey_graph(seed, n);
            let srcs = select_sources(&g, k, seed);
            assert_batched_matches_scalar(&g, &srcs);
        }
    }

    #[test]
    fn full_pass_charges_costs() {
        let g = gen::kary_tree(50, 2);
        let (r, cost) = measure_stretch_full(&g, &g, 4, 1);
        assert!(r.pairs > 0);
        assert_eq!(
            cost.node_visits,
            2 * 4 * 50,
            "each of 4 sources settles all 50 nodes in both graphs"
        );
        assert!(cost.edge_scans > 0);
        assert!(cost.heap_bytes > 0);
        assert_eq!(cost.messages_sent, 0, "measurement sends nothing");
    }
}
