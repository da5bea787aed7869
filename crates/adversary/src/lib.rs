//! # ft-adversary — omniscient deletion adversaries
//!
//! The paper's adversary "knows the network topology and our algorithms, and
//! it has the ability to delete arbitrary nodes". [`Adversary`]
//! implementations therefore receive an [`AdversaryView`] exposing the full
//! current network *and*, when the victim is a Forgiving Tree, read access
//! to every processor's fields (heirs, wills, the virtual root) — strictly
//! more information than any honest peer has.
//!
//! The strategies:
//!
//! - [`RandomAdversary`] — the unbiased reference.
//! - [`HighestDegreeAdversary`] — classic hub attack (kills surrogate
//!   healing: Θ(n) degree growth, E5).
//! - [`LowestDegreeAdversary`] — leaf-first grind: maximizes LeafWill /
//!   bypass traffic.
//! - [`RootAdversary`] — repeatedly removes the simulator of the virtual
//!   root (or the highest-degree node for non-FT healers).
//! - [`HeirHunter`] — always kills a current heir, stressing heir chains.
//! - [`HubSiphon`] — feeds the surrogate healer's lowest-ID absorber.
//! - [`DiameterGreedy`] — one-step lookahead diameter maximizer (the
//!   strongest but slowest; used at small n to exhibit the Θ(n) diameter
//!   blow-ups of line/binary-tree healing).
//!
//! Batched attacks come in two flavors: deletion-only [`WavePlanner`]s
//! (`random`/`targeted`/`heavy-tail`) for the Forgiving Tree campaigns, and
//! mixed insert/delete [`ChurnPlanner`]s (`mixed`/`surge`) for the
//! Forgiving Graph's full adversarial model; [`PlannerKind`] names them
//! all. The orthogonal *fault* axis —
//! seeded message loss, duplication, delay, partitions, and crash-stop
//! deaths — is built the same way, by name, via [`FaultConfig::from_name`].

use ft_core::distributed::DistributedForgivingTree;
use ft_graph::bfs::diameter_double_sweep;
use ft_graph::{ChurnEvent, Graph, NodeId};
pub use ft_sim::{FaultConfig, FaultPlan};
use rand::rngs::StdRng;
use rand::seq::{IteratorRandom, SliceRandom};
use rand::{Rng, SeedableRng};

/// Everything the omniscient adversary may inspect before striking.
#[derive(Clone, Copy)]
pub struct AdversaryView<'a> {
    /// The current healed network.
    pub graph: &'a Graph,
    /// The Forgiving Tree's processors, when attacking one.
    pub ft: Option<&'a DistributedForgivingTree>,
}

/// A deletion strategy.
pub trait Adversary {
    /// Short name for tables.
    fn name(&self) -> &'static str;

    /// Picks the next victim, or `None` to stop (e.g. no nodes left).
    fn next_target(&mut self, view: AdversaryView<'_>) -> Option<NodeId>;
}

/// Deletes a uniformly random live node (seeded, reproducible).
#[derive(Debug)]
pub struct RandomAdversary {
    rng: StdRng,
}

impl RandomAdversary {
    /// Creates the adversary from a seed.
    pub fn new(seed: u64) -> Self {
        RandomAdversary {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Adversary for RandomAdversary {
    fn name(&self) -> &'static str {
        "random"
    }

    fn next_target(&mut self, view: AdversaryView<'_>) -> Option<NodeId> {
        view.graph.nodes().choose(&mut self.rng)
    }
}

/// Always deletes a node of maximum current degree (ties: lowest ID).
#[derive(Debug, Default)]
pub struct HighestDegreeAdversary;

impl Adversary for HighestDegreeAdversary {
    fn name(&self) -> &'static str {
        "max-degree"
    }

    fn next_target(&mut self, view: AdversaryView<'_>) -> Option<NodeId> {
        view.graph
            .nodes()
            .max_by_key(|&v| (view.graph.degree(v), std::cmp::Reverse(v)))
    }
}

/// Always deletes a node of minimum current degree (ties: lowest ID) — the
/// leaf-first grind.
#[derive(Debug, Default)]
pub struct LowestDegreeAdversary;

impl Adversary for LowestDegreeAdversary {
    fn name(&self) -> &'static str {
        "min-degree"
    }

    fn next_target(&mut self, view: AdversaryView<'_>) -> Option<NodeId> {
        view.graph
            .nodes()
            .min_by_key(|&v| (view.graph.degree(v), v))
    }
}

/// Deletes the simulator of the virtual root (FT) or the max-degree node.
#[derive(Debug, Default)]
pub struct RootAdversary;

impl Adversary for RootAdversary {
    fn name(&self) -> &'static str {
        "root-attack"
    }

    fn next_target(&mut self, view: AdversaryView<'_>) -> Option<NodeId> {
        if let Some(ft) = view.ft {
            if let Some(r) = ft.root_sim() {
                return Some(r);
            }
        }
        HighestDegreeAdversary.next_target(view)
    }
}

/// Always kills a current heir (FT-aware); falls back to max-degree.
#[derive(Debug, Default)]
pub struct HeirHunter;

impl Adversary for HeirHunter {
    fn name(&self) -> &'static str {
        "heir-hunter"
    }

    fn next_target(&mut self, view: AdversaryView<'_>) -> Option<NodeId> {
        if let Some(ft) = view.ft {
            // heir of the node with the most slots (deepest wills first)
            let target = ft
                .nodes()
                .filter(|&v| !ft.slot_reps(v).is_empty())
                .max_by_key(|&v| ft.slot_reps(v).len())
                .and_then(|v| ft.heir_of(v));
            if let Some(t) = target {
                return Some(t);
            }
        }
        HighestDegreeAdversary.next_target(view)
    }
}

/// Deletes the highest-degree *neighbor* of the lowest-ID node: under
/// surrogate healing the lowest-ID node keeps absorbing the victims'
/// neighbor sets, driving its degree to Θ(n) (E5).
#[derive(Debug, Default)]
pub struct HubSiphon;

impl Adversary for HubSiphon {
    fn name(&self) -> &'static str {
        "hub-siphon"
    }

    fn next_target(&mut self, view: AdversaryView<'_>) -> Option<NodeId> {
        let hub = view.graph.nodes().next()?;
        view.graph
            .neighbors(hub)
            .max_by_key(|&u| (view.graph.degree(u), std::cmp::Reverse(u)))
            .or_else(|| view.graph.nodes().find(|&v| v != hub))
            .or(Some(hub))
    }
}

/// One-step lookahead: deletes the node whose removal (before healing)
/// maximizes the healed... approximated by the double-sweep diameter of the
/// remaining graph with the victim's neighbors clique-connected pessimally.
///
/// Exact lookahead would require simulating each healer; this adversary
/// instead scores a victim by the double-sweep diameter of `G - v` with
/// `v`'s neighbors joined in a line (a worst-case-ish reconnection), which
/// empirically drives both line and binary-tree healing to Θ(n) diameters
/// while staying polynomial. Candidates can be capped for large graphs.
#[derive(Debug)]
pub struct DiameterGreedy {
    /// Evaluate at most this many candidates per round (highest degree
    /// first); `usize::MAX` for exhaustive search.
    pub max_candidates: usize,
}

impl Default for DiameterGreedy {
    fn default() -> Self {
        DiameterGreedy { max_candidates: 32 }
    }
}

impl Adversary for DiameterGreedy {
    fn name(&self) -> &'static str {
        "diameter-greedy"
    }

    fn next_target(&mut self, view: AdversaryView<'_>) -> Option<NodeId> {
        let g = view.graph;
        if g.len() <= 2 {
            return g.nodes().next();
        }
        let mut candidates: Vec<NodeId> = g.nodes().collect();
        candidates.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
        candidates.truncate(self.max_candidates);
        let mut best: Option<(u32, NodeId)> = None;
        for v in candidates {
            let mut trial = g.clone();
            let nbrs = trial.delete_node(v);
            for w in nbrs.windows(2) {
                trial.add_edge(w[0], w[1]);
            }
            if let Some(d) = diameter_double_sweep(&trial) {
                if best.is_none_or(|(bd, _)| d > bd) {
                    best = Some((d, v));
                }
            }
        }
        best.map(|(_, v)| v).or_else(|| g.nodes().next())
    }
}

// ---------------------------------------------------------------------
// wave planners — batched campaigns (Forgiving Graph-style attack waves)
// ---------------------------------------------------------------------

/// Plans a whole *wave* of victims against one topology snapshot, for the
/// campaign driver (`ft_sim::Campaign`). Unlike [`Adversary`], which picks
/// one victim per fully-healed step, a planner nominates up to `k` distinct
/// live nodes at once.
pub trait WavePlanner {
    /// Short name for tables and perf records.
    fn name(&self) -> &'static str;

    /// Picks up to `k` distinct live victims (fewer when the graph is
    /// smaller); an empty plan stops the campaign.
    fn plan(&mut self, view: AdversaryView<'_>, k: usize) -> Vec<NodeId>;
}

/// Uniformly random victims without replacement (seeded, reproducible).
#[derive(Debug)]
pub struct RandomWave {
    rng: StdRng,
}

impl RandomWave {
    /// Creates the planner from a seed.
    pub fn new(seed: u64) -> Self {
        RandomWave {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl WavePlanner for RandomWave {
    fn name(&self) -> &'static str {
        "random"
    }

    fn plan(&mut self, view: AdversaryView<'_>, k: usize) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = view.graph.nodes().collect();
        nodes.shuffle(&mut self.rng);
        nodes.truncate(k);
        nodes
    }
}

/// The hub attack at wave scale: the `k` highest-degree live nodes
/// (ties: lowest ID).
#[derive(Debug, Default)]
pub struct TargetedWave;

impl WavePlanner for TargetedWave {
    fn name(&self) -> &'static str {
        "targeted"
    }

    fn plan(&mut self, view: AdversaryView<'_>, k: usize) -> Vec<NodeId> {
        let g = view.graph;
        let mut nodes: Vec<NodeId> = g.nodes().collect();
        nodes.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        nodes.truncate(k);
        nodes
    }
}

/// Degree-biased sampling without replacement: victim weights follow
/// `(degree + 1)^exponent`, so hubs die disproportionately often but leaves
/// still churn — the heavy-tailed failure mix of real overlays.
///
/// Sampling uses the exponential-keys scheme (Efraimidis–Spirakis A-Res):
/// draw `u^(1/w)` per node and keep the `k` largest keys.
#[derive(Debug)]
pub struct HeavyTailWave {
    rng: StdRng,
    /// Weight exponent; 0 degenerates to uniform, large values to targeted.
    pub exponent: f64,
}

impl HeavyTailWave {
    /// Creates the planner from a seed with the default exponent (2.0).
    pub fn new(seed: u64) -> Self {
        HeavyTailWave {
            rng: StdRng::seed_from_u64(seed),
            exponent: 2.0,
        }
    }
}

impl WavePlanner for HeavyTailWave {
    fn name(&self) -> &'static str {
        "heavy-tail"
    }

    fn plan(&mut self, view: AdversaryView<'_>, k: usize) -> Vec<NodeId> {
        let g = view.graph;
        let mut keyed: Vec<(f64, NodeId)> = g
            .nodes()
            .map(|v| {
                let w = ((g.degree(v) + 1) as f64).powf(self.exponent);
                let u: f64 = self.rng.gen();
                (u.powf(1.0 / w), v)
            })
            .collect();
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        keyed.truncate(k);
        keyed.into_iter().map(|(_, v)| v).collect()
    }
}

/// Builds a wave planner by name (`random`, `targeted`, `heavy-tail`).
pub fn make_wave_planner(name: &str, seed: u64) -> Option<Box<dyn WavePlanner>> {
    PlannerKind::from_name(name)?.wave_planner(seed)
}

// ---------------------------------------------------------------------
// churn planners — mixed insert/delete waves (the Forgiving Graph model)
// ---------------------------------------------------------------------

/// Plans a wave of interleaved insertions and deletions against one
/// topology snapshot, for `ft_sim::Campaign::run_churn_wave`. The Forgiving
/// Graph's adversary (arXiv:0902.2501) may do both per time step; a planner
/// nominates up to `k` events at once.
///
/// Deletion victims must be distinct and alive in the snapshot; insertion
/// anchors must be alive (the campaign driver re-filters anchors killed
/// earlier in the same wave).
pub trait ChurnPlanner {
    /// Short name for tables and perf records.
    fn name(&self) -> &'static str;

    /// Plans up to `k` events; an empty plan stops the campaign.
    fn plan(&mut self, view: AdversaryView<'_>, k: usize) -> Vec<ChurnEvent>;
}

/// Per-event coin flip between a uniform-random deletion and an insertion
/// anchored at 1–3 uniform-random live nodes (seeded, reproducible) — the
/// steady churn of a living overlay.
#[derive(Debug)]
pub struct MixedChurn {
    rng: StdRng,
    /// Probability that an event is an insertion.
    pub insert_fraction: f64,
}

impl MixedChurn {
    /// Creates the planner from a seed with the given insertion fraction
    /// (clamped to `[0, 1]`).
    pub fn new(seed: u64, insert_fraction: f64) -> Self {
        MixedChurn {
            rng: StdRng::seed_from_u64(seed),
            insert_fraction: insert_fraction.clamp(0.0, 1.0),
        }
    }

    fn plan_insert(rng: &mut StdRng, live: &[NodeId]) -> ChurnEvent {
        let arity = rng.gen_range(1..=3usize.min(live.len()));
        let mut anchors: Vec<NodeId> = Vec::with_capacity(arity);
        while anchors.len() < arity {
            let c = live[rng.gen_range(0..live.len())];
            if !anchors.contains(&c) {
                anchors.push(c);
            }
        }
        ChurnEvent::Insert { neighbors: anchors }
    }
}

impl ChurnPlanner for MixedChurn {
    fn name(&self) -> &'static str {
        "mixed"
    }

    fn plan(&mut self, view: AdversaryView<'_>, k: usize) -> Vec<ChurnEvent> {
        let mut live: Vec<NodeId> = view.graph.nodes().collect();
        let mut out = Vec::with_capacity(k);
        for _ in 0..k {
            if live.is_empty() {
                break;
            }
            if self.rng.gen_bool(self.insert_fraction) || live.len() <= 2 {
                out.push(Self::plan_insert(&mut self.rng, &live));
            } else {
                let i = self.rng.gen_range(0..live.len());
                out.push(ChurnEvent::Delete(live.swap_remove(i)));
            }
        }
        out
    }
}

/// Burst churn: the wave's insertions all land first (a membership surge),
/// then the deletions strike — the flash-crowd-then-crash pattern that
/// stresses freshly joined nodes' wills.
#[derive(Debug)]
pub struct SurgeChurn {
    rng: StdRng,
    /// Fraction of each wave that is insertions.
    pub insert_fraction: f64,
}

impl SurgeChurn {
    /// Creates the planner from a seed with the given insertion fraction
    /// (clamped to `[0, 1]`).
    pub fn new(seed: u64, insert_fraction: f64) -> Self {
        SurgeChurn {
            rng: StdRng::seed_from_u64(seed),
            insert_fraction: insert_fraction.clamp(0.0, 1.0),
        }
    }
}

impl ChurnPlanner for SurgeChurn {
    fn name(&self) -> &'static str {
        "surge"
    }

    fn plan(&mut self, view: AdversaryView<'_>, k: usize) -> Vec<ChurnEvent> {
        let mut live: Vec<NodeId> = view.graph.nodes().collect();
        if live.is_empty() {
            return Vec::new();
        }
        let inserts = ((k as f64) * self.insert_fraction).round() as usize;
        let mut out = Vec::with_capacity(k);
        for _ in 0..inserts {
            out.push(MixedChurn::plan_insert(&mut self.rng, &live));
        }
        while out.len() < k && live.len() > 2 {
            let i = self.rng.gen_range(0..live.len());
            out.push(ChurnEvent::Delete(live.swap_remove(i)));
        }
        out
    }
}

/// Builds a churn planner by name (`mixed`, `surge`) with the given
/// insertion fraction.
pub fn make_churn_planner(
    name: &str,
    seed: u64,
    insert_fraction: f64,
) -> Option<Box<dyn ChurnPlanner>> {
    let kind = PlannerKind::from_name(name).filter(|k| k.inserts())?;
    Some(kind.churn_planner(seed, insert_fraction))
}

/// A planner named once, at the boundary: the deletion-only wave planners
/// and the insert/delete churn planners.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlannerKind {
    /// [`RandomWave`].
    Random,
    /// [`TargetedWave`].
    Targeted,
    /// [`HeavyTailWave`].
    HeavyTail,
    /// [`MixedChurn`].
    Mixed,
    /// [`SurgeChurn`].
    Surge,
}

impl PlannerKind {
    /// Every kind, wave planners first.
    pub const ALL: [PlannerKind; 5] = [
        PlannerKind::Random,
        PlannerKind::Targeted,
        PlannerKind::HeavyTail,
        PlannerKind::Mixed,
        PlannerKind::Surge,
    ];

    /// The kind's name: `random`, `targeted`, `heavy-tail`, `mixed` or
    /// `surge`.
    pub fn name(self) -> &'static str {
        match self {
            PlannerKind::Random => "random",
            PlannerKind::Targeted => "targeted",
            PlannerKind::HeavyTail => "heavy-tail",
            PlannerKind::Mixed => "mixed",
            PlannerKind::Surge => "surge",
        }
    }

    /// Parses a [`PlannerKind::name`]; `None` for any other name.
    pub fn from_name(name: &str) -> Option<PlannerKind> {
        PlannerKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether the kind plans insertions (the churn planners).
    pub fn inserts(self) -> bool {
        matches!(self, PlannerKind::Mixed | PlannerKind::Surge)
    }

    /// The kind's wave planner; `None` for the churn planners.
    pub fn wave_planner(self, seed: u64) -> Option<Box<dyn WavePlanner>> {
        match self {
            PlannerKind::Random => Some(Box::new(RandomWave::new(seed))),
            PlannerKind::Targeted => Some(Box::new(TargetedWave)),
            PlannerKind::HeavyTail => Some(Box::new(HeavyTailWave::new(seed))),
            PlannerKind::Mixed | PlannerKind::Surge => None,
        }
    }

    /// The kind as a churn planner. A wave planner plans its victims as
    /// [`ChurnEvent::Delete`]s and ignores `insert_fraction`.
    pub fn churn_planner(self, seed: u64, insert_fraction: f64) -> Box<dyn ChurnPlanner> {
        match self.wave_planner(seed) {
            Some(wave) => Box::new(Deletions(wave)),
            None if self == PlannerKind::Surge => Box::new(SurgeChurn::new(seed, insert_fraction)),
            None => Box::new(MixedChurn::new(seed, insert_fraction)),
        }
    }
}

/// A wave planner's victims as deletion events.
struct Deletions(Box<dyn WavePlanner>);

impl ChurnPlanner for Deletions {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn plan(&mut self, view: AdversaryView<'_>, k: usize) -> Vec<ChurnEvent> {
        let victims = self.0.plan(view, k);
        victims.into_iter().map(ChurnEvent::Delete).collect()
    }
}

/// Convenience: every strategy boxed, for sweeps.
pub fn standard_suite(seed: u64) -> Vec<Box<dyn Adversary>> {
    vec![
        Box::new(RandomAdversary::new(seed)),
        Box::new(HighestDegreeAdversary),
        Box::new(LowestDegreeAdversary),
        Box::new(RootAdversary),
        Box::new(HeirHunter),
        Box::new(DiameterGreedy::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen;
    use ft_graph::tree::RootedTree;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn view(g: &Graph) -> AdversaryView<'_> {
        AdversaryView { graph: g, ft: None }
    }

    #[test]
    fn fault_plans_build_by_name_and_replay() {
        let plan = |name: &str, seed| FaultConfig::from_name(name).map(|cfg| cfg.plan(seed));
        for name in [
            "none",
            "delay",
            "loss",
            "dup",
            "crash",
            "partition",
            "chaos",
        ] {
            let a = plan(name, 11).expect("known fault model");
            let b = plan(name, 11).expect("known fault model");
            assert_eq!(a, b, "fault model {name} must be pure in its seed");
        }
        let combo = plan("loss+crash", 3).expect("combined model");
        assert!(!combo.is_zero());
        assert!(plan("nope", 0).is_none());
        assert!(plan("loss+nope", 0).is_none());
    }

    #[test]
    fn random_is_reproducible() {
        let g = gen::path(20);
        let mut a = RandomAdversary::new(7);
        let mut b = RandomAdversary::new(7);
        for _ in 0..5 {
            assert_eq!(a.next_target(view(&g)), b.next_target(view(&g)));
        }
    }

    #[test]
    fn max_degree_picks_the_hub() {
        let g = gen::star(6);
        assert_eq!(HighestDegreeAdversary.next_target(view(&g)), Some(n(0)));
    }

    #[test]
    fn min_degree_picks_a_leaf() {
        let g = gen::star(6);
        assert_eq!(LowestDegreeAdversary.next_target(view(&g)), Some(n(1)));
    }

    #[test]
    fn root_adversary_tracks_virtual_root() {
        let g = gen::kary_tree(7, 2);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut ft = DistributedForgivingTree::new(&t);
        let mut adv = RootAdversary;
        let v = AdversaryView {
            graph: ft.graph(),
            ft: Some(&ft),
        };
        assert_eq!(adv.next_target(v), Some(n(0)));
        ft.delete(n(0));
        let v = AdversaryView {
            graph: ft.graph(),
            ft: Some(&ft),
        };
        // heir of the root (child 2) now simulates the virtual root
        assert_eq!(adv.next_target(v), Some(n(2)));
    }

    #[test]
    fn heir_hunter_kills_heirs() {
        let g = gen::star(8);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let ft = DistributedForgivingTree::new(&t);
        let mut adv = HeirHunter;
        let v = AdversaryView {
            graph: ft.graph(),
            ft: Some(&ft),
        };
        assert_eq!(adv.next_target(v), Some(n(7)), "highest-ID child is heir");
    }

    #[test]
    fn hub_siphon_feeds_node_zero() {
        let g = gen::path(6);
        let mut adv = HubSiphon;
        // node 0's only neighbor is 1
        assert_eq!(adv.next_target(view(&g)), Some(n(1)));
    }

    #[test]
    fn diameter_greedy_runs_to_completion() {
        let mut g = gen::kary_tree(15, 2);
        let mut adv = DiameterGreedy::default();
        while !g.is_empty() {
            let t = adv.next_target(view(&g)).expect("nonempty");
            g.delete_node(t);
            // crude line-heal so the graph stays connected for the search
            let alive: Vec<NodeId> = g.nodes().collect();
            for w in alive.windows(2) {
                if !g.has_edge(w[0], w[1]) && g.degree(w[0]) == 0 {
                    g.add_edge(w[0], w[1]);
                }
            }
        }
    }

    #[test]
    fn standard_suite_has_six_strategies() {
        assert_eq!(standard_suite(1).len(), 6);
    }

    #[test]
    fn wave_planners_return_distinct_live_victims() {
        let g = gen::kary_tree(40, 3);
        for name in ["random", "targeted", "heavy-tail"] {
            let mut p = make_wave_planner(name, 5).expect("known planner");
            let wave = p.plan(view(&g), 12);
            assert_eq!(wave.len(), 12, "{name} fills the wave");
            let set: std::collections::BTreeSet<NodeId> = wave.iter().copied().collect();
            assert_eq!(set.len(), wave.len(), "{name} victims are distinct");
            assert!(wave.iter().all(|&v| g.is_alive(v)), "{name} victims live");
        }
        assert!(make_wave_planner("nope", 0).is_none());
    }

    #[test]
    fn wave_planners_are_deterministic_per_seed() {
        let g = gen::kary_tree(30, 2);
        for name in ["random", "heavy-tail"] {
            let mut a = make_wave_planner(name, 9).unwrap();
            let mut b = make_wave_planner(name, 9).unwrap();
            assert_eq!(a.plan(view(&g), 7), b.plan(view(&g), 7), "{name}");
        }
    }

    #[test]
    fn targeted_wave_takes_the_hubs() {
        let g = gen::star(10);
        let wave = TargetedWave.plan(view(&g), 3);
        assert_eq!(wave[0], n(0), "the hub dies first");
        assert_eq!(&wave[1..], &[n(1), n(2)], "then lowest-ID leaves");
    }

    #[test]
    fn heavy_tail_wave_prefers_hubs() {
        // on a star, the hub's weight dwarfs the leaves': it should appear
        // in nearly every planned wave
        let g = gen::star(30);
        let mut p = HeavyTailWave::new(3);
        let mut hub_hits = 0;
        for _ in 0..50 {
            if p.plan(view(&g), 3).contains(&n(0)) {
                hub_hits += 1;
            }
        }
        assert!(hub_hits > 40, "hub planned in {hub_hits}/50 waves");
    }

    #[test]
    fn churn_planners_mix_inserts_and_deletes() {
        let g = gen::kary_tree(50, 3);
        for name in ["mixed", "surge"] {
            let mut p = make_churn_planner(name, 4, 0.5).expect("known planner");
            let plan = p.plan(view(&g), 20);
            assert_eq!(plan.len(), 20, "{name} fills the wave");
            let inserts = plan
                .iter()
                .filter(|e| matches!(e, ChurnEvent::Insert { .. }))
                .count();
            assert!(inserts > 0, "{name} plans insertions");
            assert!(inserts < 20, "{name} plans deletions");
            let mut victims = std::collections::BTreeSet::new();
            for e in &plan {
                match e {
                    ChurnEvent::Delete(v) => {
                        assert!(g.is_alive(*v), "{name} victim alive");
                        assert!(victims.insert(*v), "{name} victims distinct");
                    }
                    ChurnEvent::Insert { neighbors } => {
                        assert!(!neighbors.is_empty(), "{name} anchored insert");
                        assert!(neighbors.len() <= 3);
                        assert!(neighbors.iter().all(|&u| g.is_alive(u)));
                    }
                }
            }
        }
        assert!(make_churn_planner("nope", 0, 0.5).is_none());
    }

    #[test]
    fn churn_planners_are_deterministic_per_seed() {
        let g = gen::kary_tree(30, 2);
        for name in ["mixed", "surge"] {
            let mut a = make_churn_planner(name, 9, 0.4).unwrap();
            let mut b = make_churn_planner(name, 9, 0.4).unwrap();
            assert_eq!(a.plan(view(&g), 11), b.plan(view(&g), 11), "{name}");
        }
    }

    #[test]
    fn surge_fronts_the_insertions() {
        let g = gen::kary_tree(40, 2);
        let plan = SurgeChurn::new(1, 0.3).plan(view(&g), 10);
        let first_delete = plan
            .iter()
            .position(|e| matches!(e, ChurnEvent::Delete(_)))
            .expect("has deletions");
        assert_eq!(first_delete, 3, "30% of 10 inserts land first");
        assert!(plan[first_delete..]
            .iter()
            .all(|e| matches!(e, ChurnEvent::Delete(_))));
    }

    #[test]
    fn planner_kinds_round_trip_their_names() {
        for kind in PlannerKind::ALL {
            assert_eq!(PlannerKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.churn_planner(3, 0.5).name(), kind.name());
            assert_eq!(kind.wave_planner(3).is_none(), kind.inserts());
        }
        assert_eq!(PlannerKind::from_name("nope"), None);
        // a wave planner's churn form plans the same victims as deletions
        let g = gen::kary_tree(40, 3);
        let wave = RandomWave::new(5).plan(view(&g), 9);
        let events = PlannerKind::Random.churn_planner(5, 0.9).plan(view(&g), 9);
        let deletes: Vec<ChurnEvent> = wave.into_iter().map(ChurnEvent::Delete).collect();
        assert_eq!(events, deletes);
    }

    #[test]
    fn short_waves_cover_the_whole_graph() {
        let g = gen::path(5);
        let mut p = RandomWave::new(1);
        let wave = p.plan(view(&g), 99);
        assert_eq!(wave.len(), 5, "capped at the live population");
    }
}
