//! Incremental stretch: per-source distance fields maintained across churn.
//!
//! The full stretch pass ([`crate::stretch::measure_stretch_full`]) rebuilds
//! every sampled BFS field from scratch — `O(sources · (V + E))` per
//! measurement, which at 10⁶ nodes dominates a campaign's wall clock. A
//! [`StretchTracker`] instead keeps each sampled source's healed and
//! pristine [`DistanceMap`]s **alive across waves** and repairs only what a
//! wave's [`ChurnJournal`] invalidated:
//!
//! - **Carve (phase A)**: starting from the journal's deletion
//!   neighborhoods and removed-edge endpoints, a fixpoint worklist clears
//!   every label whose support chain (a neighbor exactly one hop closer)
//!   broke. Labels that survive are achievable in the current graph — the
//!   support chain is itself a live path down to the source.
//! - **Repair (phase B)**: a unit-weight Dijkstra seeded from the carved
//!   region's labeled boundary, inserted nodes, and added-edge endpoints
//!   re-labels exactly the invalidated or improved slots. A wave whose
//!   churn never touches a source's shortest-path dag costs a handful of
//!   support probes and nothing else.
//! - **Pristine fields** only ever improve (that graph grows and never
//!   loses a node), so they skip the carve and take the decrease-only half
//!   of the same Dijkstra.
//!
//! Sources are re-selected per wave by the same min-wise priority rule the
//! full pass uses ([`crate::stretch::select_sources`]): a dead source's
//! state is dropped and the promoted replacements are built fresh, all of
//! them in one batched BFS per graph; sources whose membership survives
//! keep their repaired fields. Because the sample, the distance fields
//! (exact by construction), and the pair-scoring fold (`pair_pass`, sample
//! order) all agree with the full pass, [`StretchTracker::report`] is
//! **bit-identical** to `measure_stretch_full` on the same graphs — the
//! full pass is kept as the differential oracle and CI compares the two.
//!
//! Repair work is charged to an [`OperationCost`]: support probes and
//! Dijkstra settles as `node_visits`, adjacency reads as `edge_scans`,
//! stale heap pops and per-wave sample-reselection probes as `seeks`.

use crate::stretch::{
    bfs_fields_with_cost, fold_passes, pair_pass, sampled_flags, select_sources, SourcePass,
    StretchReport,
};
use ft_costs::{count, OperationCost};
use ft_graph::bfs::DistanceMap;
use ft_graph::{Graph, NodeId};
use ft_sim::ChurnJournal;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One sampled source's maintained state.
#[derive(Debug)]
struct SourceState {
    src: NodeId,
    /// Distances from `src` in the healed graph.
    healed: DistanceMap,
    /// Distances from `src` in the pristine graph.
    pristine: DistanceMap,
}

/// Builds every source's fields from scratch (new or promoted sources),
/// one batched BFS per graph.
fn build_sources(
    healed: &Graph,
    pristine: &Graph,
    srcs: &[NodeId],
    cost: &mut OperationCost,
) -> Vec<SourceState> {
    let dh = bfs_fields_with_cost(healed, srcs, cost);
    let dp = bfs_fields_with_cost(pristine, srcs, cost);
    srcs.iter()
        .zip(dh.into_iter().zip(dp))
        .map(|(&src, (healed, pristine))| SourceState {
            src,
            healed,
            pristine,
        })
        .collect()
}

impl SourceState {
    /// Repairs both fields against one wave's journal.
    fn repair(
        &mut self,
        healed: &Graph,
        pristine: &Graph,
        journal: &ChurnJournal,
    ) -> OperationCost {
        let mut cost = OperationCost::ZERO;
        self.healed.grow(healed.capacity());
        self.pristine.grow(pristine.capacity());

        // --- healed, phase A: carve the unsupported region -------------
        let mut recheck: VecDeque<NodeId> = VecDeque::new();
        let mut carved: Vec<NodeId> = Vec::new();
        for (dead, nbrs) in &journal.deleted {
            self.healed.clear_slot(*dead);
            recheck.extend(nbrs.iter().copied());
        }
        for &(a, b) in &journal.edges_removed {
            recheck.push_back(a);
            recheck.push_back(b);
        }
        while let Some(v) = recheck.pop_front() {
            if v == self.src {
                continue; // the source supports itself at distance 0
            }
            let Some(dv) = self.healed.get(v) else {
                continue; // already carved (or never labeled)
            };
            cost.node_visits += 1;
            cost.edge_scans += count(healed.degree(v));
            // only src holds label 0, so dv >= 1 here
            if healed
                .neighbors(v)
                .any(|u| self.healed.get(u) == Some(dv - 1))
            {
                continue; // support chain intact: label still achievable
            }
            self.healed.clear_slot(v);
            carved.push(v);
            for u in healed.neighbors(v) {
                if self.healed.get(u) == Some(dv + 1) {
                    recheck.push_back(u);
                }
            }
        }

        // --- healed, phase B: Dijkstra repair over carve + new edges ---
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        for &v in &carved {
            if !healed.is_alive(v) {
                continue;
            }
            cost.edge_scans += count(healed.degree(v));
            if let Some(best) = healed.neighbors(v).filter_map(|u| self.healed.get(u)).min() {
                heap.push(Reverse((best + 1, v.0)));
            }
        }
        for (v, _) in &journal.inserted {
            if !healed.is_alive(*v) {
                continue; // inserted then deleted within the span
            }
            cost.edge_scans += count(healed.degree(*v));
            if let Some(best) = healed
                .neighbors(*v)
                .filter_map(|u| self.healed.get(u))
                .min()
            {
                if self.healed.get(*v).is_none_or(|d| best + 1 < d) {
                    heap.push(Reverse((best + 1, v.0)));
                }
            }
        }
        for &(a, b) in &journal.edges_added {
            if !healed.has_edge(a, b) {
                continue; // added then dropped within the span
            }
            for (x, y) in [(a, b), (b, a)] {
                if let Some(dx) = self.healed.get(x) {
                    if self.healed.get(y).is_none_or(|dy| dx + 1 < dy) {
                        heap.push(Reverse((dx + 1, y.0)));
                    }
                }
            }
        }
        cost += dijkstra_settle(&mut self.healed, healed, &mut heap);

        // --- pristine: decrease-only (that graph only ever grows) ------
        for (v, _) in &journal.inserted {
            // insertions are permanent in the pristine baseline
            cost.edge_scans += count(pristine.degree(*v));
            if let Some(best) = pristine
                .neighbors(*v)
                .filter_map(|u| self.pristine.get(u))
                .min()
            {
                if self.pristine.get(*v).is_none_or(|d| best + 1 < d) {
                    heap.push(Reverse((best + 1, v.0)));
                }
            }
        }
        cost += dijkstra_settle(&mut self.pristine, pristine, &mut heap);
        cost
    }
}

/// Drains the heap, settling every improvable label (lazy-deletion
/// Dijkstra with unit weights). Stale pops are charged as seeks.
fn dijkstra_settle(
    dist: &mut DistanceMap,
    g: &Graph,
    heap: &mut BinaryHeap<Reverse<(u32, u32)>>,
) -> OperationCost {
    let mut cost = OperationCost::ZERO;
    while let Some(Reverse((d, vi))) = heap.pop() {
        let v = NodeId(vi);
        if dist.get(v).is_some_and(|cur| cur <= d) {
            cost.seeks += 1;
            continue;
        }
        dist.assign(v, d);
        cost.node_visits += 1;
        cost.edge_scans += count(g.degree(v));
        for u in g.neighbors(v) {
            if dist.get(u).is_none_or(|du| d + 1 < du) {
                heap.push(Reverse((d + 1, u.0)));
            }
        }
    }
    cost
}

/// Incremental stretch measurement over a churning campaign.
///
/// Construct once over the initial graphs, feed every wave's drained
/// [`ChurnJournal`] to [`StretchTracker::apply_wave`], and read figures
/// with [`StretchTracker::report`] — bit-identical to
/// [`crate::stretch::measure_stretch_full`] with the same `(sources,
/// seed)` on the same graphs, at a per-wave cost proportional to the churn
/// actually applied rather than to the graph.
#[derive(Debug)]
pub struct StretchTracker {
    /// Requested sample size (clamped to the live set at selection time).
    k: usize,
    seed: u64,
    /// Maintained per-source state, ascending by source id (sample order).
    sources: Vec<SourceState>,
    cost: OperationCost,
}

impl StretchTracker {
    /// Selects the min-wise sample over `healed`'s live set and builds
    /// every source's distance fields from scratch.
    pub fn new(healed: &Graph, pristine: &Graph, sources: usize, seed: u64) -> Self {
        let picked = select_sources(healed, sources, seed);
        let mut cost = OperationCost::ZERO;
        let states = build_sources(healed, pristine, &picked, &mut cost);
        StretchTracker {
            k: sources,
            seed,
            sources: states,
            cost,
        }
    }

    /// Re-selects the sample against the post-wave live set, repairs every
    /// retained source's fields from the journal, and rebuilds promoted
    /// sources from scratch. `healed`/`pristine` are the **post-wave**
    /// graphs; `journal` is everything the engine recorded since the last
    /// call (or since tracker construction).
    pub fn apply_wave(&mut self, healed: &Graph, pristine: &Graph, journal: &ChurnJournal) {
        let picked = select_sources(healed, self.k, self.seed);
        // one reselection probe per live node (the priority scan)
        self.cost.seeks += count(healed.len());
        let mut old = std::mem::take(&mut self.sources).into_iter().peekable();
        let mut cost = OperationCost::ZERO;
        let mut promoted = Vec::new();
        for &src in &picked {
            // drop states whose source left the sample (died or demoted)
            while old.next_if(|s| s.src < src).is_some() {}
            match old.next_if(|s| s.src == src) {
                Some(mut s) => {
                    cost += s.repair(healed, pristine, journal);
                    self.sources.push(s);
                }
                None => promoted.push(src),
            }
        }
        drop(old); // free the dropped states' fields before building new ones
        if !promoted.is_empty() {
            let fresh = build_sources(healed, pristine, &promoted, &mut cost);
            self.sources.extend(fresh);
            self.sources.sort_unstable_by_key(|s| s.src);
        }
        self.cost += cost;
    }

    /// Scores the maintained fields exactly as the full pass scores fresh
    /// ones: same pair ownership, same sample-order fold — bit-identical
    /// figures when the fields are current for `healed`.
    pub fn report(&self, healed: &Graph) -> StretchReport {
        let picked: Vec<NodeId> = self.sources.iter().map(|s| s.src).collect();
        let sampled = sampled_flags(healed.capacity(), &picked);
        let passes: Vec<SourcePass> = self
            .sources
            .iter()
            .map(|s| pair_pass(&s.healed, &s.pristine, healed, s.src, &sampled))
            .collect();
        fold_passes(picked.len(), &passes)
    }

    /// Cumulative repair/build cost since construction.
    pub fn cost(&self) -> OperationCost {
        self.cost
    }

    /// Number of sources currently maintained.
    pub fn sources(&self) -> usize {
        self.sources.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stretch::measure_stretch_full;
    use ft_graph::gen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Applies `waves` rounds of random mixed churn to `(healed, pristine)`
    /// by hand — deletions with a path-heal over the victim's neighbors,
    /// anchored insertions mirrored into the pristine graph, plus a few
    /// chord adds — journaling exactly what the engine would journal, and
    /// checks the tracker against the full oracle after every wave.
    fn churn_and_check(seed: u64, n: usize, waves: usize, k: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pristine = gen::random_tree(n, &mut rng);
        for _ in 0..n / 5 {
            let a = NodeId(rng.gen_range(0..n) as u32);
            let b = NodeId(rng.gen_range(0..n) as u32);
            if a != b && !pristine.has_edge(a, b) {
                pristine.add_edge(a, b);
            }
        }
        let mut healed = pristine.clone();
        let mut tracker = StretchTracker::new(&healed, &pristine, k, seed);
        for wave in 0..waves {
            let mut j = ChurnJournal::default();
            for _ in 0..3 {
                let live: Vec<NodeId> = healed.nodes().collect();
                if live.len() < 6 {
                    break;
                }
                let v = live[rng.gen_range(0..live.len())];
                let nbrs = healed.delete_node(v);
                j.deleted.push((v, nbrs.clone()));
                for w in nbrs.windows(2) {
                    if healed.add_edge(w[0], w[1]) {
                        j.edges_added.push((w[0], w[1]));
                    }
                }
            }
            for _ in 0..2 {
                let live: Vec<NodeId> = healed.nodes().collect();
                let mut anchors = vec![live[rng.gen_range(0..live.len())]];
                let b = live[rng.gen_range(0..live.len())];
                if b != anchors[0] {
                    anchors.push(b);
                }
                let v = healed.add_node();
                assert_eq!(v, pristine.add_node(), "lockstep capacities");
                for &u in &anchors {
                    healed.add_edge(v, u);
                    pristine.add_edge(v, u);
                }
                j.inserted.push((v, anchors));
            }
            // the odd healer chord between surviving nodes
            let live: Vec<NodeId> = healed.nodes().collect();
            let a = live[rng.gen_range(0..live.len())];
            let b = live[rng.gen_range(0..live.len())];
            if a != b && healed.add_edge(a, b) {
                j.edges_added.push((a, b));
            }
            tracker.apply_wave(&healed, &pristine, &j);
            let inc = tracker.report(&healed);
            let (full, _) = measure_stretch_full(&healed, &pristine, k, seed);
            assert_eq!(inc, full, "seed {seed}, wave {wave} diverged from oracle");
        }
        assert!(!tracker.cost().is_zero(), "repairs were charged");
    }

    #[test]
    fn tracker_matches_full_oracle_over_random_churn() {
        for seed in [3u64, 17, 40] {
            churn_and_check(seed, 120, 6, 10);
        }
    }

    #[test]
    fn tracker_survives_full_sampling_and_source_death() {
        // k >= n: every live node is a source, so deletions always kill
        // sources and force promotion of fresh ones.
        churn_and_check(8, 40, 5, 64);
    }

    #[test]
    fn tracker_build_costs_exactly_what_the_full_pass_costs() {
        // both run one BFS per sampled source in each graph: the batched
        // build must charge what the oracle's scalar passes charge
        let mut rng = StdRng::seed_from_u64(12);
        let pristine = gen::random_tree(700, &mut rng);
        let mut healed = pristine.clone();
        for v in [3u32, 50, 51, 400] {
            healed.delete_node(NodeId(v));
        }
        for k in [1, 16, 17, 40] {
            let tracker = StretchTracker::new(&healed, &pristine, k, 9);
            let (full, full_cost) = measure_stretch_full(&healed, &pristine, k, 9);
            assert_eq!(tracker.cost(), full_cost, "k = {k}");
            assert_eq!(tracker.report(&healed), full, "k = {k}");
        }
    }

    #[test]
    fn quiet_wave_is_nearly_free() {
        let g = gen::kary_tree(500, 3);
        let mut tracker = StretchTracker::new(&g, &g, 8, 1);
        let build_cost = tracker.cost();
        tracker.apply_wave(&g, &g, &ChurnJournal::default());
        let idle = tracker.cost() - build_cost;
        assert_eq!(idle.node_visits, 0, "no churn, no support probes");
        assert_eq!(idle.edge_scans, 0);
        assert_eq!(
            idle.seeks,
            g.len() as u64,
            "only the reselection scan is charged"
        );
        assert_eq!(
            tracker.report(&g),
            measure_stretch_full(&g, &g, 8, 1).0,
            "fields untouched"
        );
    }

    #[test]
    fn edge_removal_carves_and_repairs() {
        // pristine: 8-cycle; healed loses one edge -> distances re-route
        let pristine = gen::cycle(8);
        let mut healed = pristine.clone();
        let mut tracker = StretchTracker::new(&healed, &pristine, 8, 2);
        let mut j = ChurnJournal::default();
        healed.remove_edge(NodeId(0), NodeId(7));
        j.edges_removed.push((NodeId(0), NodeId(7)));
        tracker.apply_wave(&healed, &pristine, &j);
        let inc = tracker.report(&healed);
        let (full, _) = measure_stretch_full(&healed, &pristine, 8, 2);
        assert_eq!(inc, full);
        assert_eq!(inc.max_stretch, 7.0, "cycle end-to-end became a path");
    }

    #[test]
    fn disconnection_is_tracked() {
        let pristine = gen::path(6);
        let mut healed = pristine.clone();
        let mut tracker = StretchTracker::new(&healed, &pristine, 6, 4);
        let mut j = ChurnJournal::default();
        healed.remove_edge(NodeId(2), NodeId(3));
        j.edges_removed.push((NodeId(2), NodeId(3)));
        tracker.apply_wave(&healed, &pristine, &j);
        let inc = tracker.report(&healed);
        let (full, _) = measure_stretch_full(&healed, &pristine, 6, 4);
        assert_eq!(inc, full);
        assert!(inc.disconnected_pairs > 0, "split path loses pairs");
        // reconnecting repairs the fields decrease-only
        let mut j2 = ChurnJournal::default();
        healed.add_edge(NodeId(2), NodeId(3));
        j2.edges_added.push((NodeId(2), NodeId(3)));
        tracker.apply_wave(&healed, &pristine, &j2);
        let inc2 = tracker.report(&healed);
        assert_eq!(inc2.disconnected_pairs, 0);
        assert_eq!(inc2, measure_stretch_full(&healed, &pristine, 6, 4).0);
    }
}
