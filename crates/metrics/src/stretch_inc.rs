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
//! - **Settle (phase B)**: a unit-weight Dijkstra seeded from the carved
//!   region's labeled boundary, inserted nodes, and added-edge endpoints
//!   re-labels exactly the invalidated or improved slots. With unit
//!   weights a settle at distance `d` only queues `d + 1`, so the queue is
//!   a bucket per distance level: each level is complete before it is
//!   drained, and draining it in ascending id order reproduces a binary
//!   heap's `(distance, id)` pop order exactly. A wave whose churn never
//!   touches a source's shortest-path dag costs a handful of support
//!   probes and nothing else.
//! - **Pristine fields** only ever improve (that graph grows and never
//!   loses a node), so they skip the carve and take the decrease-only half
//!   of the same settle.
//!
//! Sources are re-selected per wave by the same min-wise priority rule the
//! full pass uses ([`crate::stretch::select_sources`]): a dead source's
//! state is dropped and the promoted replacements are built fresh, all of
//! them in one batched BFS per graph; sources whose membership survives
//! keep their repaired fields. Reselection reads the journal, not the id
//! space: the tracker keeps the `2k` smallest keys of its last scan, which
//! are exactly the live ids up to the largest of them, drops the wave's
//! deleted ids, adds its surviving inserted ids below that key, and scans
//! again only when fewer than `min(k, live)` ids remain. Because the sample, the distance fields
//! (exact by construction), and the pair-scoring fold (`pair_pass`, sample
//! order) all agree with the full pass, [`StretchTracker::report`] is
//! **bit-identical** to `measure_stretch_full` on the same graphs — the
//! full pass is kept as the differential oracle and CI compares the two.
//!
//! The tracker's workers (one per available core) build and repair
//! fields in parallel. A fresh build runs the healed graph's batched BFS
//! and the pristine graph's on two scoped threads, one after the other
//! with one worker. The retained sources' repairs are independent — each
//! reads the shared graphs and journal and writes only its own two fields
//! — so they run on scoped threads (at most one per source) that take
//! sources one at a time from a shared queue. Which thread builds or
//! repairs what changes nothing: every field is a pure function of its
//! graph, its own state and the wave, and every pass charges its own
//! cost, summed with integer addition, so fields, reports and costs are
//! the same at any worker count.
//!
//! Work is charged to an [`OperationCost`] per phase
//! ([`StretchTracker::cost_by_phase`]): fresh BFS builds, reselection,
//! carve support probes (`node_visits`, with adjacency reads as
//! `edge_scans`), and the settle (seeding adjacency reads and settled
//! neighborhoods as `edge_scans`, settles as `node_visits`, stale queue
//! entries as `seeks`). Reselection is charged one `seek` per live node per
//! wave: the modelled full priority scan, not the journal reads it does.
//! The charge is kept so that ftbench's frozen `pins.txt` and
//! `BENCH_costs.json` stay byte-identical.

#![deny(clippy::as_conversions)]

use crate::stretch::{
    bfs_fields_with_cost, fold_passes, pair_pass, priority, sampled_flags, source_pool, SourcePass,
    StretchReport,
};
use ft_costs::{count, OperationCost};
use ft_graph::bfs::DistanceMap;
use ft_graph::{Graph, NodeId};
use ft_sim::ChurnJournal;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::ops::AddAssign;
use std::sync::Mutex;

/// A [`StretchTracker`]'s cumulative work split by phase; the four sum to
/// [`StretchTracker::cost`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StretchPhaseCosts {
    /// Fresh BFS builds: the initial sample and every promoted source.
    pub build: OperationCost,
    /// Per-wave sample reselection: one `seek` per live node. This is the
    /// modelled full priority scan, kept for ftbench's frozen pins;
    /// reselection reads the journal and rescans only when its pool runs
    /// dry.
    pub reselect: OperationCost,
    /// Support probes that clear invalidated healed labels.
    pub carve: OperationCost,
    /// Seeding and settling both fields.
    pub settle: OperationCost,
}

impl StretchPhaseCosts {
    /// The phases summed: everything the tracker charged.
    pub fn total(&self) -> OperationCost {
        self.build + self.reselect + self.carve + self.settle
    }
}

impl AddAssign for StretchPhaseCosts {
    fn add_assign(&mut self, rhs: StretchPhaseCosts) {
        self.build += rhs.build;
        self.reselect += rhs.reselect;
        self.carve += rhs.carve;
        self.settle += rhs.settle;
    }
}

/// One sampled source's maintained state.
#[derive(Debug, PartialEq, Eq)]
struct SourceState {
    src: NodeId,
    /// Distances from `src` in the healed graph.
    healed: DistanceMap,
    /// Distances from `src` in the pristine graph.
    pristine: DistanceMap,
}

/// Builds every source's fields from scratch (new or promoted sources),
/// one batched BFS per graph. With two or more `workers` the two graphs'
/// passes run on two threads, else one after the other. Each pass charges
/// its own [`OperationCost`] and the two are summed, so the fields and the
/// charge are the same either way.
fn build_sources(
    healed: &Graph,
    pristine: &Graph,
    srcs: &[NodeId],
    cost: &mut OperationCost,
    workers: usize,
) -> Vec<SourceState> {
    let pass = |g: &Graph| {
        let mut cost = OperationCost::ZERO;
        (bfs_fields_with_cost(g, srcs, &mut cost), cost)
    };
    let ((dh, healed_cost), (dp, pristine_cost)) = if workers >= 2 {
        std::thread::scope(|scope| {
            let pristine_pass = scope.spawn(|| pass(pristine));
            let healed_pass = pass(healed);
            let pristine_pass = pristine_pass.join().expect("stretch build worker panicked");
            (healed_pass, pristine_pass)
        })
    } else {
        (pass(healed), pass(pristine))
    };
    *cost += healed_cost + pristine_cost;
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
    /// Repairs both fields against one wave's journal, charging the carve
    /// and settle phases.
    fn repair(
        &mut self,
        healed: &Graph,
        pristine: &Graph,
        journal: &ChurnJournal,
    ) -> StretchPhaseCosts {
        let mut cost = StretchPhaseCosts::default();
        self.healed.grow(healed.capacity());
        self.pristine.grow(pristine.capacity());

        // --- healed, phase A: carve the unsupported region -------------
        let carve = &mut cost.carve;
        let mut recheck: VecDeque<NodeId> = VecDeque::new();
        let mut carved: Vec<NodeId> = Vec::new();
        for (dead, nbrs) in journal.deleted() {
            self.healed.clear_slot(dead);
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
            carve.node_visits += 1;
            carve.edge_scans += count(healed.degree(v));
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

        // --- healed, phase B: settle over carve + new edges ------------
        let settle = &mut cost.settle;
        let mut seeds: Vec<(u32, u32)> = Vec::new();
        for &v in &carved {
            if !healed.is_alive(v) {
                continue;
            }
            settle.edge_scans += count(healed.degree(v));
            if let Some(best) = healed.neighbors(v).filter_map(|u| self.healed.get(u)).min() {
                seeds.push((best + 1, v.0));
            }
        }
        for (v, _) in journal.inserted() {
            if !healed.is_alive(v) {
                continue; // inserted then deleted within the span
            }
            settle.edge_scans += count(healed.degree(v));
            if let Some(best) = healed.neighbors(v).filter_map(|u| self.healed.get(u)).min() {
                if self.healed.get(v).is_none_or(|d| best + 1 < d) {
                    seeds.push((best + 1, v.0));
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
                        seeds.push((dx + 1, y.0));
                    }
                }
            }
        }
        *settle += bucket_settle(&mut self.healed, healed, &mut seeds);

        // --- pristine: decrease-only (that graph only ever grows) ------
        for (v, _) in journal.inserted() {
            // insertions are permanent in the pristine baseline
            settle.edge_scans += count(pristine.degree(v));
            if let Some(best) = pristine
                .neighbors(v)
                .filter_map(|u| self.pristine.get(u))
                .min()
            {
                if self.pristine.get(v).is_none_or(|d| best + 1 < d) {
                    seeds.push((best + 1, v.0));
                }
            }
        }
        *settle += bucket_settle(&mut self.pristine, pristine, &mut seeds);
        cost
    }
}

/// Settles every improvable label reachable from `seeds` (`(distance,
/// id)` pairs in any order, duplicates allowed), draining one distance
/// level at a time; leaves `seeds` empty.
///
/// A settle at level `d` only queues level `d + 1`, so every level is
/// complete before it is drained. Draining each level in ascending id
/// order visits entries in exactly the `(distance, id)` order a binary
/// min-heap would pop them, so every label, settle, and stale entry
/// (charged as a seek) matches a lazy-deletion heap Dijkstra.
fn bucket_settle(dist: &mut DistanceMap, g: &Graph, seeds: &mut Vec<(u32, u32)>) -> OperationCost {
    let mut cost = OperationCost::ZERO;
    seeds.sort_unstable();
    let mut seeds = seeds.drain(..).peekable();
    let mut level: Vec<u32> = Vec::new();
    let mut next: Vec<u32> = Vec::new();
    let mut d = 0;
    loop {
        // the level after `d` if it queued anything, else the lowest seed
        if next.is_empty() {
            match seeds.peek() {
                Some(&(sd, _)) => d = sd,
                None => break,
            }
        } else {
            d += 1;
        }
        std::mem::swap(&mut level, &mut next);
        while let Some((_, vi)) = seeds.next_if(|&(sd, _)| sd == d) {
            level.push(vi);
        }
        level.sort_unstable();
        for &vi in &level {
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
                    next.push(u.0);
                }
            }
        }
        level.clear();
    }
    cost
}

/// Repairs every state against one wave's journal on `workers` scoped
/// threads, at most one per state (inline when that is one). Workers pull states one at a time
/// from a shared queue, since one source's repair can dwarf another's; the
/// summed cost is the same whichever worker repairs which source.
fn repair_all(
    states: &mut [SourceState],
    healed: &Graph,
    pristine: &Graph,
    journal: &ChurnJournal,
    workers: usize,
) -> StretchPhaseCosts {
    let workers = workers.min(states.len());
    let queue = Mutex::new(states.iter_mut());
    let work = || {
        let mut cost = StretchPhaseCosts::default();
        loop {
            let next = queue.lock().expect("repair queue poisoned").next();
            let Some(state) = next else { break cost };
            cost += state.repair(healed, pristine, journal);
        }
    };
    if workers <= 1 {
        return work();
    }
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut cost = work();
        for helper in helpers {
            cost += helper.join().expect("stretch repair worker panicked");
        }
        cost
    })
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
    /// Requested sample size, at least 1 (clamped to the live set at
    /// selection time).
    k: usize,
    seed: u64,
    /// The reserve the sample is read from: exactly the live ids whose
    /// `(priority, id)` key is at most the largest key here, ascending by
    /// key and at most `2k` long. Its first `min(k, live)` ids are then the
    /// `select_sources` sample.
    pool: Vec<(u64, NodeId)>,
    /// Maintained per-source state, ascending by source id (sample order).
    sources: Vec<SourceState>,
    /// Build and repair threads: the machine's available parallelism.
    workers: usize,
    cost: StretchPhaseCosts,
}

impl StretchTracker {
    /// Selects the min-wise sample over `healed`'s live set and builds
    /// every source's distance fields from scratch.
    pub fn new(healed: &Graph, pristine: &Graph, sources: usize, seed: u64) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Self::new_on(healed, pristine, sources, seed, workers)
    }

    /// [`StretchTracker::new`] on `workers` threads, which every later wave
    /// uses too.
    fn new_on(healed: &Graph, pristine: &Graph, sources: usize, seed: u64, workers: usize) -> Self {
        let k = sources.max(1);
        let mut tracker = StretchTracker {
            k,
            seed,
            pool: source_pool(healed, k.saturating_mul(2), seed),
            sources: Vec::new(),
            workers,
            cost: StretchPhaseCosts::default(),
        };
        let picked = tracker.sample(healed);
        tracker.sources =
            build_sources(healed, pristine, &picked, &mut tracker.cost.build, workers);
        tracker
    }

    /// The sample: the pool's first `min(k, live)` ids, by id.
    fn sample(&self, healed: &Graph) -> Vec<NodeId> {
        let want = self.k.min(healed.len());
        let mut picked: Vec<NodeId> = self.pool[..want].iter().map(|&(_, v)| v).collect();
        picked.sort_unstable();
        picked
    }

    /// Brings the pool up to date with the journal and reads the sample
    /// off it, equal to `select_sources(healed, k, seed)`.
    ///
    /// Dropping the deleted ids and adding the surviving inserted ids
    /// whose keys fall below the pool's largest keeps the pool exactly the
    /// live ids up to that key. Its first keys are then the smallest live
    /// keys, as long as at least `min(k, live)` remain; when fewer do, the
    /// pool is scanned afresh.
    fn reselect(&mut self, healed: &Graph, journal: &ChurnJournal) -> Vec<NodeId> {
        for (v, _) in journal.deleted() {
            if let Ok(i) = self.pool.binary_search(&(priority(self.seed, v), v)) {
                self.pool.remove(i);
            }
        }
        if let Some(&largest) = self.pool.last() {
            for (v, _) in journal.inserted() {
                let key = (priority(self.seed, v), v);
                if key < largest && healed.is_alive(v) {
                    if let Err(i) = self.pool.binary_search(&key) {
                        self.pool.insert(i, key);
                    }
                }
            }
            // any prefix of the pool is a valid pool too
            self.pool.truncate(self.k.saturating_mul(2));
        }
        if self.pool.len() < self.k.min(healed.len()) {
            self.pool = source_pool(healed, self.k.saturating_mul(2), self.seed);
        }
        self.sample(healed)
    }

    /// Re-selects the sample against the post-wave live set, repairs every
    /// retained source's fields from the journal, and rebuilds promoted
    /// sources from scratch. `healed`/`pristine` are the **post-wave**
    /// graphs; `journal` is everything the engine recorded since the last
    /// call (or since tracker construction).
    pub fn apply_wave(&mut self, healed: &Graph, pristine: &Graph, journal: &ChurnJournal) {
        let picked = self.reselect(healed, journal);
        // the modelled full priority scan: one probe per live node
        self.cost.reselect.seeks += count(healed.len());
        let mut old = std::mem::take(&mut self.sources).into_iter().peekable();
        let mut promoted = Vec::new();
        for &src in &picked {
            // drop states whose source left the sample (died or demoted)
            while old.next_if(|s| s.src < src).is_some() {}
            match old.next_if(|s| s.src == src) {
                Some(s) => self.sources.push(s),
                None => promoted.push(src),
            }
        }
        drop(old); // free the dropped states' fields before repairing
        self.cost += repair_all(&mut self.sources, healed, pristine, journal, self.workers);
        if !promoted.is_empty() {
            let fresh = build_sources(
                healed,
                pristine,
                &promoted,
                &mut self.cost.build,
                self.workers,
            );
            self.sources.extend(fresh);
            self.sources.sort_unstable_by_key(|s| s.src);
        }
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
        self.cost.total()
    }

    /// [`StretchTracker::cost`] split into build, reselect, carve, and
    /// settle.
    pub fn cost_by_phase(&self) -> StretchPhaseCosts {
        self.cost
    }

    /// Number of sources currently maintained.
    pub fn sources(&self) -> usize {
        self.sources.len()
    }
}

#[cfg(test)]
#[expect(
    clippy::as_conversions,
    reason = "test fixtures: ids and counts below 2^32 convert exactly"
)]
mod tests {
    use super::*;
    use crate::stretch::{measure_stretch_full, select_sources};
    use ft_graph::gen;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// One wave of [`random_churn`]: the post-wave graphs and the journal
    /// that led to them.
    struct Wave {
        healed: Graph,
        pristine: Graph,
        journal: ChurnJournal,
    }

    /// Builds a random graph and applies `waves` rounds of random mixed
    /// churn to `(healed, pristine)` by hand — deletions with a path-heal
    /// over the victim's neighbors, anchored insertions mirrored into the
    /// pristine graph, plus a few chord adds — journaling exactly what the
    /// engine would journal. Returns the initial graph (healed and
    /// pristine alike) and every wave.
    fn random_churn(seed: u64, n: usize, waves: usize) -> (Graph, Vec<Wave>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pristine = gen::random_tree(n, &mut rng);
        for _ in 0..n / 5 {
            let a = NodeId(rng.gen_range(0..n) as u32);
            let b = NodeId(rng.gen_range(0..n) as u32);
            if a != b && !pristine.has_edge(a, b) {
                pristine.add_edge(a, b);
            }
        }
        let initial = pristine.clone();
        let mut healed = pristine.clone();
        let mut out = Vec::with_capacity(waves);
        for _ in 0..waves {
            let mut j = ChurnJournal::default();
            for _ in 0..3 {
                let live: Vec<NodeId> = healed.nodes().collect();
                if live.len() < 6 {
                    break;
                }
                let v = live[rng.gen_range(0..live.len())];
                let nbrs = healed.delete_node(v);
                j.record_deleted(v, &nbrs);
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
                j.record_inserted(v, &anchors);
            }
            // the odd healer chord between surviving nodes
            let live: Vec<NodeId> = healed.nodes().collect();
            let a = live[rng.gen_range(0..live.len())];
            let b = live[rng.gen_range(0..live.len())];
            if a != b && healed.add_edge(a, b) {
                j.edges_added.push((a, b));
            }
            out.push(Wave {
                healed: healed.clone(),
                pristine: pristine.clone(),
                journal: j,
            });
        }
        (initial, out)
    }

    /// Drives a tracker through [`random_churn`] and checks it against the
    /// full oracle after every wave.
    fn churn_and_check(seed: u64, n: usize, waves: usize, k: usize) {
        let (g, waves) = random_churn(seed, n, waves);
        let mut tracker = StretchTracker::new(&g, &g, k, seed);
        for (i, w) in waves.iter().enumerate() {
            tracker.apply_wave(&w.healed, &w.pristine, &w.journal);
            let inc = tracker.report(&w.healed);
            let (full, _) = measure_stretch_full(&w.healed, &w.pristine, k, seed);
            assert_eq!(inc, full, "seed {seed}, wave {i} diverged from oracle");
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

    /// The tracker's sample against a fresh [`select_sources`] scan.
    fn assert_sample_is_fresh(tracker: &StretchTracker, healed: &Graph, what: &str) {
        let got: Vec<NodeId> = tracker.sources.iter().map(|s| s.src).collect();
        let want = select_sources(healed, tracker.k, tracker.seed);
        assert_eq!(got, want, "{what}");
    }

    /// Deletes `v` from `healed`, heals its neighbours into a path and
    /// journals both, as the engine would.
    fn delete_and_heal(healed: &mut Graph, v: NodeId, j: &mut ChurnJournal) {
        let nbrs = healed.delete_node(v);
        j.record_deleted(v, &nbrs);
        for w in nbrs.windows(2) {
            if healed.add_edge(w[0], w[1]) {
                j.edges_added.push((w[0], w[1]));
            }
        }
    }

    #[test]
    fn incremental_sample_matches_select_sources() {
        // random churn; k >= n makes every deletion kill a pool member
        for (seed, n, k) in [(3u64, 120, 10), (17, 60, 1), (8, 40, 64), (9, 30, 30)] {
            let (g, waves) = random_churn(seed, n, 8);
            let mut tracker = StretchTracker::new(&g, &g, k, seed);
            assert_sample_is_fresh(&tracker, &g, "construction");
            for (i, w) in waves.iter().enumerate() {
                tracker.apply_wave(&w.healed, &w.pristine, &w.journal);
                assert_sample_is_fresh(&tracker, &w.healed, &format!("seed {seed}, wave {i}"));
            }
        }

        // each wave deletes the k + 1 lowest-key live nodes: more pool
        // members than the k-id reserve holds, so the pool runs dry
        let (k, seed) = (4, 21);
        let mut healed = gen::random_tree(90, &mut StdRng::seed_from_u64(seed));
        let pristine = healed.clone();
        let mut tracker = StretchTracker::new(&healed, &pristine, k, seed);
        for wave in 0..6 {
            let victims: Vec<NodeId> = source_pool(&healed, k + 1, seed)
                .into_iter()
                .map(|(_, v)| v)
                .collect();
            let in_pool = tracker
                .pool
                .iter()
                .filter(|(_, v)| victims.contains(v))
                .count();
            assert!(
                in_pool > tracker.pool.len() - k,
                "wave {wave} drains the pool"
            );
            let mut j = ChurnJournal::default();
            for v in victims {
                delete_and_heal(&mut healed, v, &mut j);
            }
            tracker.apply_wave(&healed, &pristine, &j);
            assert_sample_is_fresh(&tracker, &healed, &format!("draining wave {wave}"));
            assert_eq!(tracker.pool.len(), 2 * k, "rescanned to a full pool");
        }

        // nodes inserted and deleted within one span never join the pool,
        // though most of their keys fall below its largest
        let (k, seed) = (10, 5);
        let mut healed = gen::random_tree(30, &mut StdRng::seed_from_u64(seed));
        let mut pristine = healed.clone();
        let mut tracker = StretchTracker::new(&healed, &pristine, k, seed);
        let mut below = 0;
        for wave in 0..5 {
            let mut j = ChurnJournal::default();
            let largest = *tracker.pool.last().expect("a live pool");
            for _ in 0..4 {
                let anchor = healed.nodes().next().expect("a live node");
                let v = healed.add_node();
                assert_eq!(v, pristine.add_node(), "lockstep capacities");
                healed.add_edge(v, anchor);
                pristine.add_edge(v, anchor);
                j.record_inserted(v, &[anchor]);
                below += usize::from((priority(seed, v), v) < largest);
                delete_and_heal(&mut healed, v, &mut j);
            }
            tracker.apply_wave(&healed, &pristine, &j);
            assert_sample_is_fresh(&tracker, &healed, &format!("transient wave {wave}"));
            assert!(tracker.pool.iter().all(|&(_, v)| healed.is_alive(v)));
        }
        assert!(
            below > 0,
            "some transient key fell below the pool's largest"
        );
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
    fn phase_costs_sum_exactly_to_the_total() {
        let (g, waves) = random_churn(11, 120, 6);
        let mut tracker = StretchTracker::new(&g, &g, 10, 11);
        let built = tracker.cost_by_phase();
        assert_eq!(built.build, tracker.cost(), "construction only builds");
        let mut live_probes = 0u64;
        for w in &waves {
            tracker.apply_wave(&w.healed, &w.pristine, &w.journal);
            live_probes += count(w.healed.len());
            let p = tracker.cost_by_phase();
            assert_eq!(p.build + p.reselect + p.carve + p.settle, tracker.cost());
        }
        let p = tracker.cost_by_phase();
        assert_eq!(
            p.reselect,
            OperationCost {
                seeks: live_probes,
                ..OperationCost::ZERO
            },
            "reselection charges one seek per live node per wave"
        );
        assert_eq!(p.carve.seeks, 0, "the carve pops no queue");
        assert!(p.carve.node_visits > 0 && p.settle.node_visits > 0);
    }

    #[test]
    fn worker_count_does_not_change_fields_reports_or_cost() {
        // k >= n in the second case: every deletion kills a source, so
        // promoted sources are built on both paths too
        for (seed, n, k) in [(5u64, 150, 12), (8, 40, 64)] {
            let (g, waves) = random_churn(seed, n, 6);
            let mut one = StretchTracker::new_on(&g, &g, k, seed, 1);
            let mut three = StretchTracker::new_on(&g, &g, k, seed, 3);
            assert_eq!(one.sources, three.sources, "fields after construction");
            assert_eq!(one.report(&g), three.report(&g));
            assert_eq!(one.cost_by_phase(), three.cost_by_phase());
            let built = one.cost_by_phase().build;
            for (i, w) in waves.iter().enumerate() {
                one.apply_wave(&w.healed, &w.pristine, &w.journal);
                three.apply_wave(&w.healed, &w.pristine, &w.journal);
                assert_eq!(one.sources, three.sources, "fields, wave {i}");
                assert_eq!(one.report(&w.healed), three.report(&w.healed));
                assert_eq!(one.cost_by_phase(), three.cost_by_phase());
            }
            if k >= n {
                assert!(
                    one.cost_by_phase().build.node_visits > built.node_visits,
                    "promoted sources were built"
                );
            }
        }
    }

    /// The lazy-deletion binary-heap Dijkstra [`bucket_settle`] replaced,
    /// kept as its reference: pops `(distance, id)` in heap order and
    /// charges stale pops as seeks.
    fn heap_settle(dist: &mut DistanceMap, g: &Graph, seeds: &[(u32, u32)]) -> OperationCost {
        let mut cost = OperationCost::ZERO;
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> =
            seeds.iter().copied().map(Reverse).collect();
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn bucket_settle_matches_the_heap_drain(
            n in 2u32..48,
            edges in proptest::collection::vec((0u32..48, 0u32..48), 0..120),
            labels in proptest::collection::vec(0u32..16, 48),
            seeds in proptest::collection::vec((0u32..10, 0u32..48), 0..40),
        ) {
            let mut g = Graph::new(n as usize);
            for (a, b) in edges {
                let (a, b) = (NodeId(a % n), NodeId(b % n));
                if a != b {
                    g.add_edge(a, b);
                }
            }
            // a partly labeled field: labels >= 10 stay unreached, so some
            // seeds improve a slot, some fill one, and some go stale
            let mut start = DistanceMap::with_capacity(n as usize);
            for (i, &d) in (0..n).zip(&labels) {
                if d < 10 {
                    start.assign(NodeId(i), d);
                }
            }
            // duplicate ids on one level and one id on several levels
            let mut seeds: Vec<(u32, u32)> = seeds.into_iter().map(|(d, v)| (d, v % n)).collect();
            if let Some(&(d, v)) = seeds.first() {
                seeds.push((d, v));
                seeds.push((d + 2, v));
            }
            let mut by_heap = start.clone();
            let heap_cost = heap_settle(&mut by_heap, &g, &seeds);
            let mut by_bucket = start;
            let mut queue = seeds.clone();
            let bucket_cost = bucket_settle(&mut by_bucket, &g, &mut queue);
            prop_assert_eq!(&by_bucket, &by_heap, "seeds {:?}", seeds);
            prop_assert_eq!(bucket_cost, heap_cost);
            prop_assert!(queue.is_empty());
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
