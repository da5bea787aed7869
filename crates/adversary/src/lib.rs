//! # ft-adversary — omniscient adversaries
//!
//! The paper's adversary "knows the network topology and our algorithms, and
//! it has the ability to delete arbitrary nodes". Every strategy is a
//! [`Planner`]: it reads an [`AdversaryView`] of the full current network
//! *and*, when the victim is a Forgiving Tree, every processor's fields
//! (heirs, wills, the virtual root) — strictly more information than any
//! honest peer has — and plans the next wave of [`ChurnEvent`]s.
//! [`PlannerKind`] names them all:
//!
//! - one victim per heal: `random` (the unbiased reference), `max-degree`
//!   (the hub attack that defeats surrogate healing), `min-degree` (the
//!   leaf-first grind), `root-attack` (the simulator of the virtual root),
//!   `heir-hunter` (a current heir), `hub-siphon` (feeds the surrogate
//!   healer's lowest-ID absorber) and `diameter-greedy` (a one-step
//!   lookahead, the strongest but slowest);
//! - waves of deletions for the Forgiving Tree campaigns: `random`,
//!   `targeted`, `heavy-tail`;
//! - waves of insertions and deletions, the Forgiving Graph's full
//!   adversarial model: `mixed`, `surge`.
//!
//! The orthogonal *fault* axis — seeded message loss, duplication, delay,
//! partitions, and crash-stop deaths — is built the same way, by name, via
//! [`FaultConfig::from_name`].

use ft_core::distributed::DistributedForgivingTree;
use ft_graph::bfs::diameter_double_sweep;
use ft_graph::{ChurnEvent, Graph, NodeId};
pub use ft_sim::{FaultConfig, FaultPlan};
use rand::rngs::StdRng;
use rand::seq::{IteratorRandom, SliceRandom};
use rand::{Rng, SeedableRng};
use std::cmp::{Ordering, Reverse};

/// Everything the omniscient adversary may inspect before striking.
#[derive(Clone, Copy)]
pub struct AdversaryView<'a> {
    /// The current healed network.
    pub graph: &'a Graph,
    /// The Forgiving Tree's processors, when attacking one.
    pub ft: Option<&'a DistributedForgivingTree>,
}

/// A churn strategy: plans the next wave against one snapshot of the
/// network.
pub trait Planner {
    /// Plans up to `k` events: distinct deletion victims alive in the
    /// snapshot, and insertions anchored at live nodes (the campaign driver
    /// re-filters anchors killed earlier in the same wave). An empty plan
    /// stops the run.
    fn plan(&mut self, view: AdversaryView<'_>, k: usize) -> Vec<ChurnEvent>;
}

impl<F: FnMut(AdversaryView<'_>, usize) -> Vec<ChurnEvent>> Planner for F {
    fn plan(&mut self, view: AdversaryView<'_>, k: usize) -> Vec<ChurnEvent> {
        self(view, k)
    }
}

/// A one-victim adversary as a planner: it names at most one victim per
/// wave, whatever `k`.
fn one_at_a_time(
    mut pick: impl FnMut(AdversaryView<'_>) -> Option<NodeId> + 'static,
) -> Box<dyn Planner> {
    Box::new(move |view: AdversaryView<'_>, k: usize| {
        let victim = if k == 0 { None } else { pick(view) };
        victim.into_iter().map(ChurnEvent::Delete).collect()
    })
}

/// A node of maximum current degree (ties: lowest ID).
fn max_degree(view: AdversaryView<'_>) -> Option<NodeId> {
    let g = view.graph;
    g.nodes().max_by_key(|&v| (g.degree(v), Reverse(v)))
}

/// A node of minimum current degree (ties: lowest ID).
fn min_degree(view: AdversaryView<'_>) -> Option<NodeId> {
    let g = view.graph;
    g.nodes().min_by_key(|&v| (g.degree(v), v))
}

/// The simulator of the virtual root, or the max-degree node when the
/// victim is not a Forgiving Tree.
fn root_attack(view: AdversaryView<'_>) -> Option<NodeId> {
    view.ft
        .and_then(|ft| ft.root_sim())
        .or_else(|| max_degree(view))
}

/// The heir of the node with the most will slots (deepest wills first), or
/// the max-degree node.
fn heir_hunter(view: AdversaryView<'_>) -> Option<NodeId> {
    let heir = view.ft.and_then(|ft| {
        ft.nodes()
            .filter(|&v| !ft.slot_reps(v).is_empty())
            .max_by_key(|&v| ft.slot_reps(v).len())
            .and_then(|v| ft.heir_of(v))
    });
    heir.or_else(|| max_degree(view))
}

/// The highest-degree *neighbor* of the lowest-ID node: under surrogate
/// healing the lowest-ID node keeps absorbing the victims' neighbor sets,
/// driving its degree to Θ(n).
fn hub_siphon(view: AdversaryView<'_>) -> Option<NodeId> {
    let g = view.graph;
    let hub = g.nodes().next()?;
    g.neighbors(hub)
        .max_by_key(|&u| (g.degree(u), Reverse(u)))
        .or_else(|| g.nodes().find(|&v| v != hub))
        .or(Some(hub))
}

/// Candidates [`diameter_greedy`] scores per round, highest degree first.
const DIAMETER_GREEDY_CANDIDATES: usize = 32;

/// One-step lookahead: of the 32 highest-degree nodes, the one whose
/// removal leaves the largest double-sweep diameter once its neighbors are
/// joined in a line (a worst-case-ish reconnection). Exact lookahead would
/// simulate each healer; this score already drives line and binary-tree
/// healing to Θ(n) diameters while staying polynomial.
fn diameter_greedy(view: AdversaryView<'_>) -> Option<NodeId> {
    let g = view.graph;
    if g.len() <= 2 {
        return g.nodes().next();
    }
    let mut best: Option<(u32, NodeId)> = None;
    for v in by_degree(g, DIAMETER_GREEDY_CANDIDATES) {
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

/// The `k` least of `items` under the total order `order`, sorted: a
/// selection, then a sort of the winners only.
fn least<T>(mut items: Vec<T>, k: usize, order: impl Fn(&T, &T) -> Ordering) -> Vec<T> {
    if k < items.len() {
        items.select_nth_unstable_by(k, &order);
        items.truncate(k);
    }
    items.sort_unstable_by(order);
    items
}

/// The `k` highest-degree live nodes (ties: lowest ID), in that order.
fn by_degree(g: &Graph, k: usize) -> Vec<NodeId> {
    let key = |&v: &NodeId| (Reverse(g.degree(v)), v);
    least(g.nodes().collect(), k, |a, b| key(a).cmp(&key(b)))
}

/// Uniformly random victims without replacement: every live id shuffled,
/// the first `k` kept.
fn random_wave(rng: &mut StdRng, g: &Graph, k: usize) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = g.nodes().collect();
    nodes.shuffle(rng);
    nodes.truncate(k);
    nodes
}

/// [`heavy_tail`]'s weight exponent; 0 would degenerate to uniform, large
/// values to targeted.
const HEAVY_TAIL_EXPONENT: f64 = 2.0;

/// Degree-biased sampling without replacement: victim weights follow
/// `(degree + 1)²`, so hubs die disproportionately often but leaves still
/// churn — the heavy-tailed failure mix of real overlays. It uses the
/// exponential-keys scheme (Efraimidis–Spirakis A-Res): draw `u^(1/w)` per
/// node and keep the `k` largest keys (ties: lowest ID).
fn heavy_tail(rng: &mut StdRng, g: &Graph, k: usize) -> Vec<NodeId> {
    let keyed: Vec<(f64, NodeId)> = g
        .nodes()
        .map(|v| {
            let w = ((g.degree(v) + 1) as f64).powf(HEAVY_TAIL_EXPONENT);
            let u: f64 = rng.gen();
            (u.powf(1.0 / w), v)
        })
        .collect();
    let top = least(keyed, k, |a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    top.into_iter().map(|(_, v)| v).collect()
}

/// An insertion anchored at 1–3 distinct uniform-random live nodes.
fn insertion(rng: &mut StdRng, live: &[NodeId]) -> ChurnEvent {
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

/// Per-event coin flip between a uniform-random deletion and an
/// [`insertion`] — the steady churn of a living overlay.
fn mixed(rng: &mut StdRng, g: &Graph, k: usize, insert_fraction: f64) -> Vec<ChurnEvent> {
    let mut live: Vec<NodeId> = g.nodes().collect();
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        if live.is_empty() {
            break;
        }
        if rng.gen_bool(insert_fraction) || live.len() <= 2 {
            out.push(insertion(rng, &live));
        } else {
            let i = rng.gen_range(0..live.len());
            out.push(ChurnEvent::Delete(live.swap_remove(i)));
        }
    }
    out
}

/// Burst churn: the wave's insertions all land first (a membership surge),
/// then the deletions strike — the flash-crowd-then-crash pattern that
/// stresses freshly joined nodes' wills.
fn surge(rng: &mut StdRng, g: &Graph, k: usize, insert_fraction: f64) -> Vec<ChurnEvent> {
    let mut live: Vec<NodeId> = g.nodes().collect();
    if live.is_empty() {
        return Vec::new();
    }
    let inserts = ((k as f64) * insert_fraction).round() as usize;
    let mut out = Vec::with_capacity(k);
    for _ in 0..inserts {
        out.push(insertion(rng, &live));
    }
    while out.len() < k && live.len() > 2 {
        let i = rng.gen_range(0..live.len());
        out.push(ChurnEvent::Delete(live.swap_remove(i)));
    }
    out
}

/// A strategy named once, at the boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlannerKind {
    /// Uniformly random victims.
    Random,
    /// A node of maximum degree: the hub attack that defeats surrogate
    /// healing.
    MaxDegree,
    /// A node of minimum degree: the leaf-first grind.
    MinDegree,
    /// The simulator of the Forgiving Tree's virtual root.
    RootAttack,
    /// A current heir of the Forgiving Tree.
    HeirHunter,
    /// The busiest neighbor of the lowest-ID node, which surrogate healing
    /// makes absorb every victim's neighbors.
    HubSiphon,
    /// A one-step lookahead that maximizes the diameter a line heal leaves.
    DiameterGreedy,
    /// The hub attack at wave scale: the `k` highest-degree live nodes
    /// (ties: lowest ID).
    Targeted,
    /// Degree-biased sampling without replacement, weights `(degree + 1)²`.
    HeavyTail,
    /// A per-event coin flip between a random deletion and an insertion.
    Mixed,
    /// A wave's insertions first, then its deletions.
    Surge,
}

impl PlannerKind {
    /// Every kind: the one-victim adversaries, the deletion waves, then the
    /// insert/delete waves.
    pub const ALL: [PlannerKind; 11] = [
        PlannerKind::Random,
        PlannerKind::MaxDegree,
        PlannerKind::MinDegree,
        PlannerKind::RootAttack,
        PlannerKind::HeirHunter,
        PlannerKind::HubSiphon,
        PlannerKind::DiameterGreedy,
        PlannerKind::Targeted,
        PlannerKind::HeavyTail,
        PlannerKind::Mixed,
        PlannerKind::Surge,
    ];

    /// The kind's name, as `--adversary` and `--planner` read it.
    pub fn name(self) -> &'static str {
        match self {
            PlannerKind::Random => "random",
            PlannerKind::MaxDegree => "max-degree",
            PlannerKind::MinDegree => "min-degree",
            PlannerKind::RootAttack => "root-attack",
            PlannerKind::HeirHunter => "heir-hunter",
            PlannerKind::HubSiphon => "hub-siphon",
            PlannerKind::DiameterGreedy => "diameter-greedy",
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

    /// Whether the kind plans insertions (`mixed` and `surge`).
    pub fn inserts(self) -> bool {
        matches!(self, PlannerKind::Mixed | PlannerKind::Surge)
    }

    /// The kind's planner, seeded. `insert_fraction` (clamped to `[0, 1]`)
    /// is the share of insertions `mixed` and `surge` plan. Under
    /// `one_victim`, `random` draws each victim with `choose`, as the
    /// one-victim adversary always has; a wave shuffles every live id
    /// instead. The two draw different victims, and committed outputs
    /// depend on both.
    pub fn planner(self, seed: u64, insert_fraction: f64, one_victim: bool) -> Box<dyn Planner> {
        let mut rng = StdRng::seed_from_u64(seed);
        let fraction = insert_fraction.clamp(0.0, 1.0);
        let deletions = |victims: Vec<NodeId>| -> Vec<ChurnEvent> {
            victims.into_iter().map(ChurnEvent::Delete).collect()
        };
        match self {
            PlannerKind::Random if one_victim => {
                one_at_a_time(move |view: AdversaryView<'_>| view.graph.nodes().choose(&mut rng))
            }
            PlannerKind::Random => Box::new(move |view: AdversaryView<'_>, k: usize| {
                deletions(random_wave(&mut rng, view.graph, k))
            }),
            PlannerKind::MaxDegree => one_at_a_time(max_degree),
            PlannerKind::MinDegree => one_at_a_time(min_degree),
            PlannerKind::RootAttack => one_at_a_time(root_attack),
            PlannerKind::HeirHunter => one_at_a_time(heir_hunter),
            PlannerKind::HubSiphon => one_at_a_time(hub_siphon),
            PlannerKind::DiameterGreedy => one_at_a_time(diameter_greedy),
            PlannerKind::Targeted => Box::new(move |view: AdversaryView<'_>, k: usize| {
                deletions(by_degree(view.graph, k))
            }),
            PlannerKind::HeavyTail => Box::new(move |view: AdversaryView<'_>, k: usize| {
                deletions(heavy_tail(&mut rng, view.graph, k))
            }),
            PlannerKind::Mixed => Box::new(move |view: AdversaryView<'_>, k: usize| {
                mixed(&mut rng, view.graph, k, fraction)
            }),
            PlannerKind::Surge => Box::new(move |view: AdversaryView<'_>, k: usize| {
                surge(&mut rng, view.graph, k, fraction)
            }),
        }
    }
}

/// A deletion-only planner whose waves are read as victims: the call shape
/// ftbench's frozen sources use. Everything else builds its planner with
/// [`PlannerKind::planner`].
pub struct Victims(Box<dyn Planner>);

impl Victims {
    /// The victims of the next wave of up to `k`.
    pub fn plan(&mut self, view: AdversaryView<'_>, k: usize) -> Vec<NodeId> {
        let events = self.0.plan(view, k).into_iter();
        events
            .filter_map(|e| match e {
                ChurnEvent::Delete(v) => Some(v),
                ChurnEvent::Insert { .. } => None,
            })
            .collect()
    }
}

/// Builds a deletion-only wave planner by name, as ftbench does.
pub fn make_wave_planner(name: &str, seed: u64) -> Option<Victims> {
    let kind = PlannerKind::from_name(name).filter(|k| !k.inserts())?;
    Some(Victims(kind.planner(seed, 0.0, false)))
}

/// Builds an insert/delete planner (`mixed`, `surge`) by name with the
/// given insertion fraction, as ftbench does.
pub fn make_churn_planner(name: &str, seed: u64, insert_fraction: f64) -> Option<Box<dyn Planner>> {
    let kind = PlannerKind::from_name(name).filter(|k| k.inserts())?;
    Some(kind.planner(seed, insert_fraction, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::gen;
    use ft_graph::tree::RootedTree;
    use std::collections::BTreeSet;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn view(g: &Graph) -> AdversaryView<'_> {
        AdversaryView { graph: g, ft: None }
    }

    /// The victims `kind` plans in one wave of `k`.
    fn victims(planner: &mut dyn Planner, view: AdversaryView<'_>, k: usize) -> Vec<NodeId> {
        let deleted = |e: ChurnEvent| match e {
            ChurnEvent::Delete(v) => v,
            ChurnEvent::Insert { .. } => panic!("a deletion-only planner inserted"),
        };
        planner.plan(view, k).into_iter().map(deleted).collect()
    }

    /// The one victim `kind`, as a one-victim adversary, names.
    fn one(kind: PlannerKind, view: AdversaryView<'_>) -> Option<NodeId> {
        let wave = victims(kind.planner(0, 0.0, true).as_mut(), view, 1);
        assert!(wave.len() <= 1, "{} names one victim", kind.name());
        wave.first().copied()
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
        // the one-victim draw is `choose` over the live ids, per victim
        let g = gen::path(20);
        let mut a = PlannerKind::Random.planner(7, 0.0, true);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let want = g.nodes().choose(&mut rng).expect("nodes live");
            assert_eq!(victims(a.as_mut(), view(&g), 1), [want]);
        }
    }

    #[test]
    fn max_degree_picks_the_hub() {
        let g = gen::star(6);
        assert_eq!(one(PlannerKind::MaxDegree, view(&g)), Some(n(0)));
    }

    #[test]
    fn min_degree_picks_a_leaf() {
        let g = gen::star(6);
        assert_eq!(one(PlannerKind::MinDegree, view(&g)), Some(n(1)));
    }

    #[test]
    fn root_adversary_tracks_virtual_root() {
        let g = gen::kary_tree(7, 2);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let mut ft = DistributedForgivingTree::new(&t);
        let v = AdversaryView {
            graph: ft.graph(),
            ft: Some(&ft),
        };
        assert_eq!(one(PlannerKind::RootAttack, v), Some(n(0)));
        ft.delete(n(0));
        let v = AdversaryView {
            graph: ft.graph(),
            ft: Some(&ft),
        };
        // heir of the root (child 2) now simulates the virtual root
        assert_eq!(one(PlannerKind::RootAttack, v), Some(n(2)));
    }

    #[test]
    fn heir_hunter_kills_heirs() {
        let g = gen::star(8);
        let t = RootedTree::from_tree_graph(&g, n(0));
        let ft = DistributedForgivingTree::new(&t);
        let v = AdversaryView {
            graph: ft.graph(),
            ft: Some(&ft),
        };
        let heir = one(PlannerKind::HeirHunter, v);
        assert_eq!(heir, Some(n(7)), "highest-ID child is heir");
        // without the processors' fields it falls back to the hub
        assert_eq!(one(PlannerKind::HeirHunter, view(&g)), Some(n(0)));
    }

    #[test]
    fn hub_siphon_feeds_node_zero() {
        // node 0's only neighbor is 1
        let g = gen::path(6);
        assert_eq!(one(PlannerKind::HubSiphon, view(&g)), Some(n(1)));
    }

    #[test]
    fn diameter_greedy_runs_to_completion() {
        let mut g = gen::kary_tree(15, 2);
        let mut adv = PlannerKind::DiameterGreedy.planner(0, 0.0, true);
        while !g.is_empty() {
            let t = victims(adv.as_mut(), view(&g), 1)[0];
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
    fn wave_planners_return_distinct_live_victims() {
        let g = gen::kary_tree(40, 3);
        for name in ["random", "targeted", "heavy-tail"] {
            let mut p = make_wave_planner(name, 5).expect("known planner");
            let wave = p.plan(view(&g), 12);
            assert_eq!(wave.len(), 12, "{name} fills the wave");
            let set: BTreeSet<NodeId> = wave.iter().copied().collect();
            assert_eq!(set.len(), wave.len(), "{name} victims are distinct");
            assert!(wave.iter().all(|&v| g.is_alive(v)), "{name} victims live");
        }
        assert!(make_wave_planner("nope", 0).is_none());
        assert!(make_wave_planner("mixed", 0).is_none());
    }

    #[test]
    fn wave_planners_are_deterministic_per_seed() {
        let g = gen::kary_tree(30, 2);
        for name in ["random", "heavy-tail"] {
            let mut a = make_wave_planner(name, 9).expect("known planner");
            let mut b = make_wave_planner(name, 9).expect("known planner");
            assert_eq!(a.plan(view(&g), 7), b.plan(view(&g), 7), "{name}");
        }
    }

    #[test]
    fn targeted_wave_takes_the_hubs() {
        let g = gen::star(10);
        let wave = victims(
            PlannerKind::Targeted.planner(0, 0.0, false).as_mut(),
            view(&g),
            3,
        );
        assert_eq!(wave[0], n(0), "the hub dies first");
        assert_eq!(&wave[1..], &[n(1), n(2)], "then lowest-ID leaves");
    }

    #[test]
    fn heavy_tail_wave_prefers_hubs() {
        // on a star, the hub's weight dwarfs the leaves': it should appear
        // in nearly every planned wave
        let g = gen::star(30);
        let mut p = PlannerKind::HeavyTail.planner(3, 0.0, false);
        let mut hub_hits = 0;
        for _ in 0..50 {
            if victims(p.as_mut(), view(&g), 3).contains(&n(0)) {
                hub_hits += 1;
            }
        }
        assert!(hub_hits > 40, "hub planned in {hub_hits}/50 waves");
    }

    #[test]
    fn selection_matches_the_full_sort() {
        // `targeted`, `heavy-tail` and diameter-greedy's candidates select
        // the k winners, then sort only those: the same victims, in the
        // same order, as sorting every live id
        let mut rng = StdRng::seed_from_u64(13);
        for size in [1usize, 2, 7, 40, 300] {
            let mut g = gen::random_tree(size, &mut rng);
            for _ in 0..size / 3 {
                let (a, b) = (rng.gen_range(0..size), rng.gen_range(0..size));
                if a != b && !g.has_edge(n(a as u32), n(b as u32)) {
                    g.add_edge(n(a as u32), n(b as u32));
                }
            }
            for k in [0, 1, 5, 32, size, size + 3] {
                let mut all: Vec<NodeId> = g.nodes().collect();
                all.sort_by_key(|&v| Reverse(g.degree(v)));
                all.truncate(k);
                assert_eq!(by_degree(&g, k), all, "by degree: n={size} k={k}");

                let seed = rng.gen();
                let mut keys = StdRng::seed_from_u64(seed);
                let mut keyed: Vec<(f64, NodeId)> = g
                    .nodes()
                    .map(|v| {
                        let w = ((g.degree(v) + 1) as f64).powf(HEAVY_TAIL_EXPONENT);
                        let u: f64 = keys.gen();
                        (u.powf(1.0 / w), v)
                    })
                    .collect();
                keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                keyed.truncate(k);
                let want: Vec<NodeId> = keyed.into_iter().map(|(_, v)| v).collect();
                let mut keys = StdRng::seed_from_u64(seed);
                assert_eq!(
                    heavy_tail(&mut keys, &g, k),
                    want,
                    "heavy-tail: n={size} k={k}"
                );
            }
        }
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
            let mut victims = BTreeSet::new();
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
        assert!(make_churn_planner("random", 0, 0.5).is_none());
    }

    #[test]
    fn churn_planners_are_deterministic_per_seed() {
        let g = gen::kary_tree(30, 2);
        for name in ["mixed", "surge"] {
            let mut a = make_churn_planner(name, 9, 0.4).expect("known planner");
            let mut b = make_churn_planner(name, 9, 0.4).expect("known planner");
            assert_eq!(a.plan(view(&g), 11), b.plan(view(&g), 11), "{name}");
        }
    }

    #[test]
    fn surge_fronts_the_insertions() {
        let g = gen::kary_tree(40, 2);
        let plan = PlannerKind::Surge.planner(1, 0.3, false).plan(view(&g), 10);
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
        let names: BTreeSet<&str> = PlannerKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 11, "eleven distinct strategies");
        let g = gen::kary_tree(40, 3);
        for kind in PlannerKind::ALL {
            assert_eq!(PlannerKind::from_name(kind.name()), Some(kind));
            // every kind plans live victims; only mixed and surge insert
            for one in [false, true] {
                let plan = kind.planner(3, 0.5, one).plan(view(&g), 9);
                assert!(!plan.is_empty(), "{} plans", kind.name());
                let inserts = plan.iter().any(|e| matches!(e, ChurnEvent::Insert { .. }));
                assert_eq!(inserts, kind.inserts(), "{}", kind.name());
            }
        }
        assert_eq!(PlannerKind::from_name("nope"), None);
        // the two randoms draw differently: a wave shuffles, one victim
        // is chosen
        let wave = victims(
            PlannerKind::Random.planner(5, 0.0, false).as_mut(),
            view(&g),
            1,
        );
        let one = victims(
            PlannerKind::Random.planner(5, 0.0, true).as_mut(),
            view(&g),
            1,
        );
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(wave, random_wave(&mut rng, &g, 1));
        assert_eq!(
            one,
            [g.nodes()
                .choose(&mut StdRng::seed_from_u64(5))
                .expect("live")]
        );
    }

    #[test]
    fn short_waves_cover_the_whole_graph() {
        let g = gen::path(5);
        let mut p = make_wave_planner("random", 1).expect("known planner");
        let wave = p.plan(view(&g), 99);
        assert_eq!(wave.len(), 5, "capped at the live population");
    }
}
