//! One run as one value. A [`Scenario`] names the protocol, the initial
//! graph, the churn and a parsed fault model; [`run`] drives it through the
//! one wave loop every healer shares, hands each healed wave to an
//! observer, and returns an [`Outcome`]. Names are parsed before a scenario
//! exists, so `run` reads typed values only. The engine is deterministic,
//! so a scenario whose events are an outcome's realised
//! [`Outcome::waves`] replays that run exactly, even when its planner was
//! adaptive.
//!
//! A one-victim attack ([`Scenario::attack`]) deletes one node per heal,
//! down to none if its budget says so; the [`Series`] observer reads the
//! exact diameter off it every few deletions.

use crate::stretch::StretchReport;
use crate::stretch_inc::StretchTracker;
use ft_adversary::{AdversaryView, PlannerKind};
use ft_core::distributed::DistributedForgivingTree;
use ft_core::fgraph::{LocalHealer, LocalRule};
use ft_core::{fg_degree_bound, fg_stretch_bound, ft_diameter_bound, DistributedForgivingGraph};
use ft_costs::OperationCost;
use ft_graph::bfs::{diameter_exact, diameter_within};
use ft_graph::{gen, tree::RootedTree, ChurnEvent, Graph, NodeId};
use ft_sim::{
    Books, Campaign, CampaignConfig, CampaignReport, FaultConfig, HealCadence, WaveStats,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Xor-ed into the seed for the fault plan, so the planner and the fault
/// schedule draw from decoupled streams.
const FAULT_SEED_SALT: u64 = 0xFA17_5EED;

/// One run: a protocol on an initial graph, driven by waves of churn under
/// a fault model.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// The healing protocol, with the knobs only it reads.
    pub protocol: Protocol,
    /// The graph the protocol starts from.
    pub initial: Initial,
    /// The churn the adversary applies.
    pub events: Events,
    /// The fault model armed on the network.
    pub faults: Faults,
    /// Seeds the generated graph, the planner, the fault plan and the
    /// stretch sample.
    pub seed: u64,
}

impl Scenario {
    /// A fault-free one-victim attack: `planner` deletes
    /// `round(fraction · n)` nodes of `graph`, one per heal, drawing from
    /// `seed`.
    pub fn attack(
        protocol: Protocol,
        graph: Graph,
        planner: PlannerKind,
        fraction: f64,
        seed: u64,
    ) -> Scenario {
        let budget = (graph.len() as f64 * fraction).round() as usize;
        Scenario {
            protocol,
            initial: Initial::Explicit(graph),
            events: Events::Planned {
                budget,
                wave_size: 1,
                planner,
            },
            faults: Faults::default(),
            seed,
        }
    }
}

/// The protocol a scenario heals with.
#[derive(Clone, Debug, PartialEq)]
pub enum Protocol {
    /// The Forgiving Tree; it takes deletions only.
    Tree {
        /// Arity of the generated k-ary tree (clamped to at least 2).
        arity: usize,
        /// When heals run relative to a wave's deletions. **Caveat**: the
        /// protocol is specified for one deletion per time step; under
        /// [`HealCadence::PerWave`] a victim's will-holders can die with it
        /// and the heal may lose connectivity, which the `connected`
        /// verdict then reports: the honest measurement of an
        /// out-of-contract adversary.
        cadence: HealCadence,
    },
    /// The Forgiving Graph, under insertions and deletions.
    Graph {
        /// Random chords added to the generated spanning tree, as a
        /// fraction of its nodes.
        extra_edges: f64,
        /// Share of the planned events that are insertions.
        insert_fraction: f64,
        /// BFS sources of the stretch sample.
        stretch_sources: usize,
    },
    /// A centralized heal by one [`LocalRule`] per deletion: the naive
    /// heals the paper contrasts, or the Forgiving Graph's haft. It takes
    /// deletions only and keeps no ledger: its books stay zero, and each
    /// wave's figures are a stated cost model (one notice per survivor,
    /// two messages per added edge, one round), not a count. It claims no
    /// bound, so its verdicts judge connectivity alone.
    Local(LocalRule),
}

impl Protocol {
    /// The Forgiving Tree under the paper's model, one heal per deletion,
    /// on an explicit tree.
    pub const FORGIVING_TREE: Protocol = Protocol::Tree {
        arity: 2,
        cadence: HealCadence::PerDeletion,
    };

    /// The Forgiving Graph on an explicit graph, its stretch sampled from
    /// one source.
    pub const FORGIVING_GRAPH: Protocol = Protocol::Graph {
        extra_edges: 0.0,
        insert_fraction: 0.0,
        stretch_sources: 1,
    };

    /// `tree`, `graph`, or the local rule's name.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Tree { .. } => "tree",
            Protocol::Graph { .. } => "graph",
            Protocol::Local(rule) => rule.name(),
        }
    }
}

/// The graph a scenario starts from.
#[derive(Clone, Debug, PartialEq)]
pub enum Initial {
    /// This many nodes, generated from the seed: a k-ary tree for the
    /// Forgiving Tree, a random spanning tree plus chords for the graph.
    Nodes(usize),
    /// This graph; the Forgiving Tree needs a tree, rooted at node 0.
    Explicit(Graph),
}

impl Initial {
    /// The initial node count.
    pub fn nodes(&self) -> usize {
        match self {
            Initial::Nodes(n) => *n,
            Initial::Explicit(g) => g.len(),
        }
    }
}

/// The churn a scenario applies.
#[derive(Clone, Debug, PartialEq)]
pub enum Events {
    /// Waves of `wave_size` events planned against the live graph until
    /// `budget` events are spent or too few nodes live to plan another. A
    /// wave planner's victims are deletion events.
    Planned {
        /// Total events.
        budget: usize,
        /// Events per wave.
        wave_size: usize,
        /// The planner.
        planner: PlannerKind,
    },
    /// These waves, in order.
    Explicit(Vec<Vec<ChurnEvent>>),
}

impl Events {
    /// Whether the events are a one-victim attack: deletion waves of one.
    /// Such a run may delete every node, as the paper's "up to n rounds"
    /// does; any other wave leaves a survivor.
    fn one_victim(&self) -> bool {
        matches!(self, Events::Planned { wave_size: 1, planner, .. } if !planner.inserts())
    }

    /// The budget, wave size and planner name a record echoes; explicit
    /// waves echo their event count, their largest wave and `explicit`.
    pub fn echo(&self) -> (usize, usize, &'static str) {
        match self {
            Events::Planned {
                budget,
                wave_size,
                planner,
            } => (*budget, *wave_size, planner.name()),
            Events::Explicit(waves) => {
                let largest = waves.iter().map(Vec::len).max().unwrap_or(0);
                (waves.iter().map(Vec::len).sum(), largest, "explicit")
            }
        }
    }
}

/// A fault model, parsed from its name.
#[derive(Clone, Debug, PartialEq)]
pub struct Faults {
    /// The name it was parsed from, which the records echo.
    pub name: String,
    /// Its rates.
    pub config: FaultConfig,
}

impl Default for Faults {
    /// The `none` model.
    fn default() -> Faults {
        Faults {
            name: "none".into(),
            config: FaultConfig::zero(),
        }
    }
}

impl Faults {
    /// Parses a named model ([`FaultConfig::from_name`]); `None` for an
    /// unknown name.
    pub fn named(name: &str) -> Option<Faults> {
        let config = FaultConfig::from_name(name)?;
        let name = name.into();
        Some(Faults { name, config })
    }
}

/// What a run's checks found, and the one judgement of them. Each check is
/// a verdict of a fault-free run and a plain measurement under faults. The
/// empty graph a one-victim run can reach holds every check: it is
/// connected, within every distance bound, and has no degree increase.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdicts {
    /// Every heal quiesced within its round budget.
    pub converged: bool,
    /// The will audit passed; the Forgiving Tree has none and reads `true`.
    pub wills_ok: bool,
    /// The healed graph is connected.
    pub connected: bool,
    /// Worst degree increase of a live node over the pristine graph.
    pub max_degree_increase: i64,
    /// The degree bound: 3 for the tree, `3·⌈log₂ n⌉ + 3` for the graph.
    pub degree_bound: i64,
    /// The distance check, for the tree or the graph.
    pub distance: Distance,
}

/// What a run's distance check measured.
#[derive(Clone, Debug, PartialEq)]
pub enum Distance {
    /// The Forgiving Tree: the healed graph is connected, with a diameter
    /// within Theorem 1.2's [`ft_diameter_bound`] of the initial tree.
    Diameter(bool),
    /// The Forgiving Graph's sampled stretch and its bound `⌈log₂ n⌉ + 2`.
    Stretch(StretchReport, f64),
}

impl Verdicts {
    /// Every check, in the order a failure is named: `converged`,
    /// `wills_ok`, `connected`, `degree_bound`, and the tree's
    /// `diameter_bound` or the graph's `stretch_bound`.
    fn checks(&self) -> [(&'static str, bool); 5] {
        let distance = match self.distance {
            Distance::Diameter(_) => "diameter_bound",
            Distance::Stretch(..) => "stretch_bound",
        };
        [
            ("converged", self.converged),
            ("wills_ok", self.wills_ok),
            ("connected", self.connected),
            ("degree_bound", self.degree_ok()),
            (distance, self.distance_ok()),
        ]
    }

    /// The first check that failed; `None` when all held.
    pub fn failed(&self) -> Option<&'static str> {
        self.checks().into_iter().find(|c| !c.1).map(|c| c.0)
    }

    /// The degree increase is within its bound.
    pub fn degree_ok(&self) -> bool {
        self.max_degree_increase <= self.degree_bound
    }

    /// The distance bound held: the tree's diameter check, or the graph's
    /// sampled stretch within its bound with every sampled pair reachable.
    pub fn distance_ok(&self) -> bool {
        match &self.distance {
            &Distance::Diameter(held) => held,
            Distance::Stretch(report, bound) => {
                report.disconnected_pairs == 0 && report.max_stretch <= *bound
            }
        }
    }

    /// The graph's sampled stretch and its bound; `None` for the tree.
    pub fn stretch(&self) -> Option<(&StretchReport, f64)> {
        match &self.distance {
            Distance::Diameter(_) => None,
            Distance::Stretch(report, bound) => Some((report, *bound)),
        }
    }

    /// `broke` when the healed graph disconnected, `held` when every check
    /// held, `degraded` otherwise.
    pub fn class(&self) -> &'static str {
        match self.failed() {
            None => "held",
            Some(_) if self.connected => "degraded",
            Some(_) => "broke",
        }
    }
}

/// The engine a run healed with, and what its distance check measures
/// against.
#[derive(Debug)]
pub enum Healed {
    /// The Forgiving Tree's processors, the tree they started from, and
    /// [`ft_diameter_bound`] of that tree.
    Tree(DistributedForgivingTree, Graph, u32),
    /// The Forgiving Graph's processors and the stretch tracker that
    /// followed their waves.
    Graph(DistributedForgivingGraph, Box<StretchTracker>),
    /// The centralized graph a local rule healed.
    Local(LocalHealer),
}

impl Healed {
    /// The healed graph.
    pub fn graph(&self) -> &Graph {
        match self {
            Healed::Tree(dist, ..) => dist.graph(),
            Healed::Graph(dist, _) => dist.graph(),
            Healed::Local(healer) => healer.graph(),
        }
    }

    /// What the omniscient adversary reads: the graph, and the Forgiving
    /// Tree's processors.
    fn view(&self) -> AdversaryView<'_> {
        let ft = match self {
            Healed::Tree(dist, ..) => Some(dist),
            _ => None,
        };
        AdversaryView {
            graph: self.graph(),
            ft,
        }
    }

    /// Operation cost of the stretch sample (zero for the tree).
    pub fn stretch_cost(&self) -> OperationCost {
        match self {
            Healed::Graph(_, tracker) => tracker.cost(),
            _ => OperationCost::ZERO,
        }
    }

    /// The initial graph, plus the Forgiving Graph's insertions as they
    /// landed: the baseline of degree and stretch.
    pub fn pristine(&self) -> &Graph {
        match self {
            Healed::Tree(_, pristine, _) => pristine,
            Healed::Graph(dist, _) => dist.pristine(),
            Healed::Local(healer) => healer.baseline(),
        }
    }

    /// The most events the next planned wave may hold; `None` when none
    /// can be planned. A one-victim attack may delete every node. Any other
    /// wave leaves at least one survivor even if every event is a deletion,
    /// and the churn planners need more than two live nodes.
    fn room(&self, one_victim: bool) -> Option<usize> {
        let live = self.graph().len();
        let (floor, keep) = match self {
            _ if one_victim => (0, 0),
            Healed::Graph(..) => (2, 1),
            _ => (1, 1),
        };
        (live > floor).then(|| live - keep)
    }

    fn apply(&mut self, campaign: &mut Campaign, wave: &[ChurnEvent]) -> WaveStats {
        match self {
            Healed::Tree(dist, ..) => dist.run_wave(campaign, wave),
            Healed::Graph(dist, _) => dist.run_wave(campaign, wave),
            Healed::Local(healer) => {
                let mut ws = WaveStats {
                    converged: true,
                    ..WaveStats::default()
                };
                for event in wave {
                    let &ChurnEvent::Delete(v) = event else {
                        panic!("a local rule takes no insertions")
                    };
                    let notified = healer.graph().degree(v);
                    let heal = baseline_report(notified, &healer.delete(v));
                    ws.deletions += heal.deletions;
                    ws.rounds += heal.rounds;
                    ws.messages += heal.messages;
                    ws.max_per_node = ws.max_per_node.max(heal.max_per_node);
                }
                campaign.fold(&ws);
                ws
            }
        }
    }
}

/// The stated cost model of a local heal that notified `notified`
/// survivors and added the edges `added`, as a wave of one deletion. The
/// figures are a model, not a ledger: each notified survivor receives one
/// notice, each added edge costs two messages, a node's load is its added
/// edges plus its notice, and the heal takes one round.
fn baseline_report(notified: usize, added: &[(NodeId, NodeId)]) -> WaveStats {
    let mut ends: Vec<NodeId> = added.iter().flat_map(|&(a, b)| [a, b]).collect();
    ends.sort_unstable();
    let load = ends.chunk_by(|a, b| a == b).map(<[NodeId]>::len).max();
    WaveStats {
        deletions: 1,
        rounds: 1,
        messages: notified + 2 * added.len(),
        max_per_node: load.unwrap_or(0) + 1,
        converged: true,
        ..WaveStats::default()
    }
}

/// What [`run`] hands back.
#[derive(Debug)]
pub struct Outcome {
    /// The campaign's aggregates.
    pub report: CampaignReport,
    /// The ledger and fault counters, checked.
    pub books: Books,
    /// Every wave as applied; as [`Events::Explicit`] they replay the run.
    pub waves: Vec<Vec<ChurnEvent>>,
    /// The one judgement of the run.
    pub verdicts: Verdicts,
    /// The healed engine, with its pristine graph.
    pub healed: Healed,
    /// Wall-clock seconds of the campaign, stretch tracking excluded.
    pub campaign_secs: f64,
    /// Wall-clock seconds of stretch tracking: build, repairs and report.
    pub stretch_secs: f64,
}

/// A run's exact-diameter series, as a per-wave observer of [`run`]: every
/// wave's heal figures, the worst degree increase after every wave, and the
/// exact diameter every `every` deletions and once at most one node lives.
/// Exact diameters cost `O(n·m)`, so `every` throttles them; the figures
/// the theorems bound are read after every wave.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    every: usize,
    /// Max degree of the initial graph (Δ₀).
    pub delta0: usize,
    /// Exact diameter of the initial graph (D₀; 0 when disconnected).
    pub diam0: u32,
    /// Deletions so far.
    pub deletions: usize,
    /// The measured points: `(deletions, live nodes, diameter, degree
    /// increase)`, the diameter `None` when the graph was disconnected.
    pub steps: Vec<(usize, usize, Option<u32>, i64)>,
    /// Largest measured diameter, at least D₀.
    pub max_diameter: u32,
    /// Largest degree increase over the pristine graph after any wave
    /// (Theorem 1.1's figure).
    pub max_degree_increase: i64,
    /// The largest load one node carried in one round of any wave; not the
    /// node's total over a heal, which Theorem 1.3 bounds.
    pub worst_node_messages: usize,
    /// The most messages any wave took.
    pub worst_heal_messages: usize,
    /// Whether every measured graph was connected.
    pub connected: bool,
}

impl Series {
    /// An empty series over the initial graph, measuring the diameter every
    /// `every` deletions (at least 1).
    pub fn new(initial: &Graph, every: usize) -> Series {
        let diam0 = diameter_exact(initial).unwrap_or(0);
        Series {
            every: every.max(1),
            delta0: initial.max_degree(),
            diam0,
            deletions: 0,
            steps: Vec::new(),
            max_diameter: diam0,
            max_degree_increase: 0,
            worst_node_messages: 0,
            worst_heal_messages: 0,
            connected: true,
        }
    }

    /// Folds in one healed wave.
    pub fn observe(&mut self, healed: &Healed, wave: &WaveStats) {
        let g = healed.graph();
        let increase = g.max_degree_increase_over(healed.pristine());
        self.deletions += wave.deletions;
        self.max_degree_increase = self.max_degree_increase.max(increase);
        self.worst_node_messages = self.worst_node_messages.max(wave.max_per_node);
        self.worst_heal_messages = self.worst_heal_messages.max(wave.messages);
        if (self.deletions.is_multiple_of(self.every) || g.len() <= 1) && !g.is_empty() {
            let diameter = diameter_exact(g);
            self.max_diameter = self.max_diameter.max(diameter.unwrap_or(0));
            self.connected &= diameter.is_some();
            self.steps
                .push((self.deletions, g.len(), diameter, increase));
        }
    }

    /// The largest measured diameter over D₀: the paper's diameter stretch
    /// (1 when D₀ is 0).
    pub fn max_stretch(&self) -> f64 {
        if self.diam0 == 0 {
            1.0
        } else {
            f64::from(self.max_diameter) / f64::from(self.diam0)
        }
    }
}

/// Runs `sc` to its end, calls `observe` with the healed engine and the
/// figures of every wave, and checks the books.
///
/// # Panics
/// Panics on a ledger imbalance, and on a malformed scenario: an insertion
/// for the Forgiving Tree or a local rule, a local rule without an explicit
/// graph, an explicit tree graph that is not a tree, an explicit deletion
/// of a dead node, or a graph of fewer than two nodes.
pub fn run(sc: &Scenario, mut observe: impl FnMut(&Healed, &WaveStats)) -> Outcome {
    let initial = match (&sc.initial, &sc.protocol) {
        (Initial::Explicit(g), _) => g.clone(),
        (Initial::Nodes(n), Protocol::Tree { arity, .. }) => gen::kary_tree(*n, (*arity).max(2)),
        (Initial::Nodes(n), Protocol::Graph { extra_edges, .. }) => {
            chorded_tree(*n, *extra_edges, sc.seed)
        }
        (Initial::Nodes(_), Protocol::Local(_)) => panic!("a local rule heals an explicit graph"),
    };
    let faults = sc.faults.config;
    let plan = (!faults.is_zero()).then(|| faults.plan(sc.seed ^ FAULT_SEED_SALT));
    // The graph's stretch tracker repairs its fields from each wave's churn
    // journal; its time is kept apart from the campaign's.
    let (mut stretch_secs, mut campaign_secs) = (0.0, 0.0);
    let (mut healed, cadence, insert_fraction) = match sc.protocol {
        Protocol::Tree { cadence, .. } => {
            let tree = RootedTree::from_tree_graph(&initial, NodeId(0));
            let bound = ft_diameter_bound(tree.height(), tree.max_degree());
            let mut dist = DistributedForgivingTree::new(&tree);
            dist.network_mut().set_fault_plan(plan);
            (Healed::Tree(dist, initial, bound), cadence, 0.0)
        }
        Protocol::Graph {
            insert_fraction,
            stretch_sources,
            ..
        } => {
            let mut dist = DistributedForgivingGraph::new(&initial);
            dist.network_mut().set_fault_plan(plan);
            dist.network_mut().set_churn_journal(true);
            let tracker = timed(&mut stretch_secs, || {
                StretchTracker::new(dist.graph(), dist.pristine(), stretch_sources, sc.seed)
            });
            let healed = Healed::Graph(dist, Box::new(tracker));
            (healed, HealCadence::PerDeletion, insert_fraction)
        }
        Protocol::Local(rule) => {
            let healed = Healed::Local(LocalHealer::new(rule, initial));
            (healed, HealCadence::PerDeletion, 0.0)
        }
    };

    let mut next = waves(sc, insert_fraction);
    let mut campaign = Campaign::new(CampaignConfig {
        cadence,
        ..CampaignConfig::default()
    });
    let (mut waves, one_victim) = (Vec::new(), sc.events.one_victim());
    while let Some((wave, stats)) = timed(&mut campaign_secs, || {
        let wave = next(healed.view(), healed.room(one_victim))?;
        let stats = healed.apply(&mut campaign, &wave);
        Some((wave, stats))
    }) {
        if let Healed::Graph(dist, tracker) = &mut healed {
            let journal = dist.network_mut().drain_churn_journal();
            let repair = || tracker.apply_wave(dist.graph(), dist.pristine(), &journal);
            timed(&mut stretch_secs, repair);
        }
        observe(&healed, &stats);
        waves.push(wave);
    }

    let books = match &healed {
        Healed::Tree(dist, ..) => dist.network().books(),
        Healed::Graph(dist, _) => dist.network().books(),
        Healed::Local(_) => Ok(Books::default()),
    };
    let books = books.expect("message ledger imbalance after the campaign");
    let report = campaign.report().clone();
    let graph = healed.graph();
    let connected = graph.is_connected();
    let (wills_ok, degree_bound, distance) = match &healed {
        &Healed::Tree(.., bound) => {
            let held = graph.is_empty() || diameter_within(graph, bound);
            (true, 3, Distance::Diameter(held))
        }
        Healed::Graph(dist, tracker) => {
            let report = timed(&mut stretch_secs, || tracker.report(graph));
            let n = graph.capacity();
            let distance = Distance::Stretch(report, fg_stretch_bound(n));
            (dist.check_wills().is_ok(), fg_degree_bound(n), distance)
        }
        Healed::Local(_) => (true, i64::MAX, Distance::Diameter(connected)),
    };
    let verdicts = Verdicts {
        converged: report.converged,
        wills_ok,
        connected,
        max_degree_increase: graph.max_degree_increase_over(healed.pristine()),
        degree_bound,
        distance,
    };
    Outcome {
        report,
        books,
        waves,
        verdicts,
        healed,
        campaign_secs: campaign_secs.max(1e-9),
        stretch_secs,
    }
}

/// Runs `f`, adding its wall-clock seconds to `secs`.
#[expect(
    clippy::disallowed_types,
    reason = "times the campaign and the stretch tracker for the outcome's wall-clock fields; no protocol decision reads the clock"
)]
fn timed<T>(secs: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    *secs += start.elapsed().as_secs_f64();
    out
}

/// The next wave against the adversary's view, holding at most the room
/// the engine leaves; `None` ends the run.
type WaveSource<'a> =
    Box<dyn FnMut(AdversaryView<'_>, Option<usize>) -> Option<Vec<ChurnEvent>> + 'a>;

/// The scenario's wave source.
fn waves(sc: &Scenario, insert_fraction: f64) -> WaveSource<'_> {
    match &sc.events {
        Events::Explicit(waves) => {
            let mut waves = waves.iter();
            Box::new(move |_, _| waves.next().cloned())
        }
        Events::Planned {
            budget,
            wave_size,
            planner,
        } => {
            let one_victim = sc.events.one_victim();
            let mut planner = planner.planner(sc.seed, insert_fraction, one_victim);
            let (mut remaining, wave_size) = (*budget, (*wave_size).max(1));
            Box::new(move |view, room| {
                let k = remaining.min(wave_size).min(room?);
                let wave = (k > 0).then(|| planner.plan(view, k))?;
                remaining = remaining.saturating_sub(wave.len());
                (!wave.is_empty()).then_some(wave)
            })
        }
    }
}

/// A random spanning tree over `nodes` plus `⌊extra_edges · nodes⌋` random
/// chords, drawn from one stream seeded by `seed`: connected, sparse,
/// general.
fn chorded_tree(nodes: usize, extra_edges: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = gen::random_tree(nodes, &mut rng);
    let extra = (extra_edges * nodes as f64) as usize;
    let (mut added, mut attempts) = (0usize, 0usize);
    while added < extra && attempts < extra * 20 {
        attempts += 1;
        let a = NodeId(rng.gen_range(0..nodes) as u32);
        let b = NodeId(rng.gen_range(0..nodes) as u32);
        if a != b && !g.has_edge(a, b) {
            g.add_edge(a, b);
            added += 1;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::hash::{fnv1a, FNV_BASIS};
    use rand::seq::SliceRandom;

    #[test]
    fn baseline_report_prices_a_line_heal() {
        let mut line = LocalHealer::new(LocalRule::Line, gen::star(5));
        let notified = line.graph().degree(NodeId(0));
        let heal = baseline_report(notified, &line.delete(NodeId(0)));
        // four notices, then two messages for each of the three path edges
        assert_eq!((heal.messages, heal.rounds), (10, 1));
    }

    #[test]
    fn naive_heal_reports_are_pinned() {
        // FNV-1a over every figure of every heal the four naive rules
        // produce while deleting seeded trees down to nothing: the victim,
        // the survivors notified, the stated cost and the added edges. The
        // attack, duel and claims figures of the naive heals derive from
        // these.
        let mut rng = StdRng::seed_from_u64(32);
        let graphs = [
            gen::star(48),
            gen::kary_tree(85, 4),
            gen::random_tree(96, &mut rng),
        ];
        let mut h = FNV_BASIS;
        for g in &graphs {
            let mut order: Vec<NodeId> = g.nodes().collect();
            order.shuffle(&mut rng);
            let rules = [
                LocalRule::NoRepair,
                LocalRule::Surrogate,
                LocalRule::Line,
                LocalRule::BinaryTree,
            ];
            for rule in rules {
                let mut healer = LocalHealer::new(rule, g.clone());
                for &v in &order {
                    let notified = healer.graph().degree(v);
                    let added = healer.delete(v);
                    let heal = baseline_report(notified, &added);
                    for x in [
                        u64::from(v.0),
                        notified as u64,
                        heal.messages as u64,
                        heal.max_per_node as u64,
                        u64::from(heal.rounds),
                    ] {
                        h = fnv1a(h, x.to_le_bytes());
                    }
                    for (a, b) in added {
                        h = fnv1a(h, (u64::from(a.0) << 32 | u64::from(b.0)).to_le_bytes());
                    }
                }
                assert!(healer.graph().is_empty());
            }
        }
        assert_eq!(h, 0x8eeb_765b_88a5_3bd2, "naive heals drifted: {h:#018x}");
    }
}
