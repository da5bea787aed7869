//! One run as one value. A [`Scenario`] names the protocol, the initial
//! graph, the churn and a parsed fault model; [`run`] drives it through the
//! one wave loop both protocols share and returns an [`Outcome`]. Names are
//! parsed before a scenario exists, so `run` reads typed values only. The
//! engine is deterministic, so a scenario whose events are an outcome's
//! realised [`Outcome::waves`] replays that run exactly, even when its
//! planner was adaptive.

use crate::stretch::StretchReport;
use crate::stretch_inc::StretchTracker;
use ft_adversary::{AdversaryView, PlannerKind};
use ft_core::distributed::{DistributedForgivingTree, FtNode};
use ft_core::{fg_degree_bound, fg_stretch_bound, DistributedForgivingGraph};
use ft_costs::OperationCost;
use ft_graph::{gen, tree::RootedTree, ChurnEvent, Graph, NodeId};
use ft_sim::{Books, Campaign, CampaignConfig, CampaignReport, FaultConfig, HealCadence};
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
}

impl Protocol {
    /// `tree` or `graph`.
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Tree { .. } => "tree",
            Protocol::Graph { .. } => "graph",
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

/// What a run's verdicts read: each a verdict of a fault-free run and a
/// plain measurement under faults.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdicts {
    /// Every heal quiesced within its round budget.
    pub converged: bool,
    /// The healed graph is connected.
    pub connected: bool,
    /// The will audit passed; the Forgiving Tree has none and reads `true`.
    pub wills_ok: bool,
    /// Worst degree increase of a live node over the pristine graph.
    pub max_degree_increase: i64,
    /// The degree bound: 3 for the tree, `3·⌈log₂ n⌉ + 3` for the graph.
    pub degree_bound: i64,
    /// The Forgiving Graph's sampled stretch and its bound `⌈log₂ n⌉ + 2`.
    pub stretch: Option<(StretchReport, f64)>,
}

/// The engine a run healed with.
#[derive(Debug)]
pub enum Healed {
    /// The Forgiving Tree's processors, and the tree they started from.
    Tree(DistributedForgivingTree, Graph),
    /// The Forgiving Graph's processors.
    Graph(DistributedForgivingGraph),
}

impl Healed {
    /// The healed graph.
    pub fn graph(&self) -> &Graph {
        match self {
            Healed::Tree(dist, _) => dist.graph(),
            Healed::Graph(dist) => dist.graph(),
        }
    }

    /// The initial graph, plus the Forgiving Graph's insertions as they
    /// landed: the baseline of degree and stretch.
    pub fn pristine(&self) -> &Graph {
        match self {
            Healed::Tree(_, pristine) => pristine,
            Healed::Graph(dist) => dist.pristine(),
        }
    }

    /// The most events the next planned wave may hold; `None` when none
    /// can be planned. A tree keeps one survivor; the churn planners need
    /// more than two live nodes.
    fn room(&self) -> Option<usize> {
        let live = self.graph().len();
        match self {
            Healed::Tree(..) => (live > 1).then(|| live - 1),
            Healed::Graph(_) => (live > 2).then_some(usize::MAX),
        }
    }

    fn apply(&mut self, campaign: &mut Campaign, wave: &[ChurnEvent]) {
        let no_insertion = |_, _: &[NodeId]| -> FtNode { panic!("a tree takes no insertions") };
        match self {
            Healed::Tree(dist, _) => {
                campaign.run_churn_wave(dist.network_mut(), wave, no_insertion)
            }
            Healed::Graph(dist) => dist.run_wave(campaign, wave),
        };
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
    /// The verdict inputs.
    pub verdicts: Verdicts,
    /// The healed engine, with its pristine graph.
    pub healed: Healed,
    /// Operation cost of the stretch sample (zero for the tree).
    pub stretch_cost: OperationCost,
    /// Wall-clock seconds of the campaign, stretch tracking excluded.
    pub campaign_secs: f64,
    /// Wall-clock seconds of stretch tracking: build, repairs and report.
    pub stretch_secs: f64,
}

/// Runs `sc` to its end and checks its books.
///
/// # Panics
/// Panics on a ledger imbalance, and on a malformed scenario: an insertion
/// for the Forgiving Tree, an explicit tree graph that is not a tree, an
/// explicit deletion of a dead node, or a graph of fewer than two nodes.
pub fn run(sc: &Scenario) -> Outcome {
    let initial = match (&sc.initial, &sc.protocol) {
        (Initial::Explicit(g), _) => g.clone(),
        (Initial::Nodes(n), Protocol::Tree { arity, .. }) => gen::kary_tree(*n, (*arity).max(2)),
        (Initial::Nodes(n), Protocol::Graph { extra_edges, .. }) => {
            chorded_tree(*n, *extra_edges, sc.seed)
        }
    };
    let faults = sc.faults.config;
    let plan = (!faults.is_zero()).then(|| faults.plan(sc.seed ^ FAULT_SEED_SALT));
    // The graph's stretch tracker repairs its fields from each wave's churn
    // journal; its time is kept apart from the campaign's.
    let (mut stretch_secs, mut campaign_secs) = (0.0, 0.0);
    let (mut healed, mut tracker, cadence, insert_fraction) = match sc.protocol {
        Protocol::Tree { cadence, .. } => {
            let tree = RootedTree::from_tree_graph(&initial, NodeId(0));
            let mut dist = DistributedForgivingTree::new(&tree);
            dist.network_mut().set_fault_plan(plan);
            (Healed::Tree(dist, initial), None, cadence, 0.0)
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
            let cadence = HealCadence::PerDeletion;
            (Healed::Graph(dist), Some(tracker), cadence, insert_fraction)
        }
    };

    let mut next = waves(sc, insert_fraction);
    let mut campaign = Campaign::new(CampaignConfig {
        cadence,
        ..CampaignConfig::default()
    });
    let mut waves = Vec::new();
    while let Some(wave) = timed(&mut campaign_secs, || {
        let wave = next(healed.graph(), healed.room())?;
        healed.apply(&mut campaign, &wave);
        Some(wave)
    }) {
        if let (Healed::Graph(dist), Some(tracker)) = (&mut healed, &mut tracker) {
            let journal = dist.network_mut().drain_churn_journal();
            let repair = || tracker.apply_wave(dist.graph(), dist.pristine(), &journal);
            timed(&mut stretch_secs, repair);
        }
        waves.push(wave);
    }

    let books = match &healed {
        Healed::Tree(dist, _) => dist.network().books(),
        Healed::Graph(dist) => dist.network().books(),
    };
    let books = books.expect("message ledger imbalance after the campaign");
    let report = campaign.report().clone();
    let graph = healed.graph();
    let mut verdicts = Verdicts {
        converged: report.converged,
        connected: graph.is_connected(),
        wills_ok: true,
        max_degree_increase: graph.max_degree_increase_over(healed.pristine()),
        degree_bound: 3,
        stretch: None,
    };
    let mut stretch_cost = OperationCost::ZERO;
    if let (Healed::Graph(dist), Some(tracker)) = (&healed, &tracker) {
        let capacity = dist.graph().capacity();
        let stretch = timed(&mut stretch_secs, || tracker.report(dist.graph()));
        stretch_cost = tracker.cost();
        verdicts.wills_ok = dist.check_wills().is_ok();
        verdicts.degree_bound = fg_degree_bound(capacity);
        verdicts.stretch = Some((stretch, fg_stretch_bound(capacity)));
    }
    Outcome {
        report,
        books,
        waves,
        verdicts,
        healed,
        stretch_cost,
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

/// The next wave against the live graph, holding at most the room the
/// engine leaves; `None` ends the run.
type WaveSource<'a> = Box<dyn FnMut(&Graph, Option<usize>) -> Option<Vec<ChurnEvent>> + 'a>;

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
            let mut planner = planner.churn_planner(sc.seed, insert_fraction);
            let (mut remaining, wave_size) = (*budget, (*wave_size).max(1));
            Box::new(move |graph, room| {
                let k = remaining.min(wave_size).min(room?);
                let wave = (k > 0).then(|| planner.plan(AdversaryView { graph, ft: None }, k))?;
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
