//! The three reference campaigns and the closed loop that drives them.
//!
//! Each workload is a closed loop: one adversary plans a wave against the
//! current graph, and the benchmark feeds the wave to the healer one event
//! per `run_wave` call — delete (or insert), then heal to quiescence, the
//! per-deletion cadence the stress harnesses use — so every event's heal
//! latency is observed on its own. Every call into a layer is wrapped in a
//! span ([`crate::spans`]); the outputs are checked as the stress harnesses
//! check them, and any failed check is an `Err`.

use crate::spans::{Kind, Recorder};
use ft_adversary::{make_churn_planner, make_wave_planner, AdversaryView};
use ft_core::distributed::{DistributedForgivingTree, FtNode};
use ft_core::{fg_degree_bound, fg_stretch_bound, DistributedForgivingGraph};
use ft_costs::{count, OperationCost};
use ft_graph::bfs::eccentricity;
use ft_graph::tree::RootedTree;
use ft_graph::{gen, Graph, NodeId};
use ft_metrics::StretchTracker;
use ft_sim::network::PAR_MIN_PENDING;
use ft_sim::{Campaign, CampaignConfig, FaultConfig, Network, Process, RoundStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Xor-ed into the seed for the fault plan, as the stress harnesses do,
/// so planner and fault schedule draw from decoupled streams.
const FAULT_SEED_SALT: u64 = 0xFA17_5EED;

/// Forgiving Tree on `gen::kary_tree(nodes, arity)`; deletions by the
/// `random` wave planner.
#[derive(Clone, Copy, Debug)]
pub struct TreeShape {
    pub nodes: usize,
    pub arity: usize,
    pub deletions: usize,
    pub wave: usize,
}

/// Forgiving Graph on `random_tree(nodes)` plus `extra_edges · nodes`
/// chords; churn by the `mixed` planner; incremental stretch.
#[derive(Clone, Copy, Debug)]
pub struct GraphShape {
    pub nodes: usize,
    pub events: usize,
    pub wave: usize,
    pub insert_fraction: f64,
    pub extra_edges: f64,
    pub sources: usize,
    pub faults: &'static str,
}

#[derive(Clone, Copy, Debug)]
pub enum Shape {
    Tree(TreeShape),
    Graph(GraphShape),
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
}

/// Why each workload exists is in README.md.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "tree-1m-churn",
        shape: Shape::Tree(TreeShape {
            nodes: 1_000_000,
            arity: 8,
            deletions: 500_000,
            wave: 5_000,
        }),
    },
    Workload {
        name: "graph-1m-mixed",
        shape: Shape::Graph(GraphShape {
            nodes: 1_000_000,
            events: 2_000,
            wave: 50,
            insert_fraction: 0.4,
            extra_edges: 0.2,
            sources: 16,
            faults: "none",
        }),
    },
    Workload {
        name: "graph-200k-chaos",
        shape: Shape::Graph(GraphShape {
            nodes: 200_000,
            events: 40_000,
            wave: 50,
            insert_fraction: 0.4,
            extra_edges: 0.2,
            sources: 16,
            faults: "chaos",
        }),
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Deterministic results of one run: a pure function of workload and seed,
/// identical at any thread count, traced or not.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Adversarial events fed to the healer.
    pub events: u64,
    /// Events whose heal did not converge.
    pub heal_failed: u64,
    /// Verdicts attempted: one `converged` per event plus the end checks.
    pub verdicts: u64,
    pub verdicts_ok: u64,
    pub connected: bool,
    /// Will audit; `true` on the tree, whose protocol exposes none.
    pub wills_ok: bool,
    pub degree_ok: bool,
    pub distance_ok: bool,
    /// Engine rounds: each event's deletion/insertion step plus its heal
    /// rounds.
    pub rounds: u64,
    /// Upper bound on heal rounds that delivered at least
    /// `PAR_MIN_PENDING` messages — the only rounds the sharded engine
    /// runs — so 0 proves it never ran.
    pub rounds_sharded: u64,
    pub peak_node_load: u64,
    pub max_degree_increase: i64,
    pub total_messages: u64,
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub lost: u64,
    pub duplicated: u64,
    pub delayed: u64,
    pub notices: u64,
    pub joins: u64,
    pub crashes: u64,
    pub fault_fingerprint: u64,
    pub cost: OperationCost,
    pub stretch_cost: OperationCost,
    /// Pairs scored by the final stretch report (0 on the tree).
    pub stretch_pairs: u64,
    pub max_stretch: f64,
    pub plans: u64,
}

impl Counts {
    /// Every count by name, rendered exactly.
    pub fn pairs(&self) -> Vec<(String, String)> {
        let named = [
            ("events", self.events.to_string()),
            ("heal_failed", self.heal_failed.to_string()),
            ("verdicts", self.verdicts.to_string()),
            ("verdicts_ok", self.verdicts_ok.to_string()),
            ("connected", self.connected.to_string()),
            ("wills_ok", self.wills_ok.to_string()),
            ("degree_ok", self.degree_ok.to_string()),
            ("distance_ok", self.distance_ok.to_string()),
            ("rounds", self.rounds.to_string()),
            ("rounds_sharded", self.rounds_sharded.to_string()),
            ("peak_node_load", self.peak_node_load.to_string()),
            ("max_degree_increase", self.max_degree_increase.to_string()),
            ("total_messages", self.total_messages.to_string()),
            ("sent", self.sent.to_string()),
            ("delivered", self.delivered.to_string()),
            ("dropped", self.dropped.to_string()),
            ("lost", self.lost.to_string()),
            ("duplicated", self.duplicated.to_string()),
            ("delayed", self.delayed.to_string()),
            ("notices", self.notices.to_string()),
            ("joins", self.joins.to_string()),
            ("crashes", self.crashes.to_string()),
            (
                "fault_fingerprint",
                format!("{:#018x}", self.fault_fingerprint),
            ),
            ("plans", self.plans.to_string()),
            ("stretch_pairs", self.stretch_pairs.to_string()),
            // `{:?}` prints the shortest string that parses back to the
            // same f64, so the figure stays exact.
            ("max_stretch", format!("{:?}", self.max_stretch)),
        ];
        let mut out: Vec<(String, String)> =
            named.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        for (prefix, c) in [("cost", &self.cost), ("stretch_cost", &self.stretch_cost)] {
            for (field, v) in [
                ("node_visits", c.node_visits),
                ("edge_scans", c.edge_scans),
                ("heap_bytes", c.heap_bytes),
                ("seeks", c.seeks),
            ] {
                out.push((format!("{prefix}.{field}"), v.to_string()));
            }
        }
        out
    }
}

/// Wall-clock results of one run.
#[derive(Clone, Debug, Default)]
pub struct Timing {
    /// From workload start to the first adversarial event.
    pub setup: Duration,
    /// From workload start through the final audits (teardown excluded).
    pub total: Duration,
    /// Per-event heal wall times.
    pub heals: Vec<Duration>,
}

/// Accumulates the per-event heal outcomes.
#[derive(Default)]
struct Heals {
    events: u64,
    failed: u64,
    rounds: u64,
    sharded: u64,
    peak_load: u64,
    took: Vec<Duration>,
}

impl Heals {
    fn with_capacity(events: usize) -> Self {
        Heals {
            took: Vec::with_capacity(events),
            ..Heals::default()
        }
    }

    fn absorb(
        &mut self,
        rounds: u32,
        messages: usize,
        max_per_node: usize,
        converged: bool,
        took: Duration,
    ) {
        self.events += 1;
        self.failed += u64::from(!converged);
        self.rounds += u64::from(rounds);
        // the first round is the deletion/insertion step, not a heal round
        let heal_rounds = u64::from(rounds.saturating_sub(1));
        self.sharded += heal_rounds.min(count(messages / PAR_MIN_PENDING));
        self.peak_load = self.peak_load.max(count(max_per_node));
        self.took.push(took);
    }

    /// The counts the heals and the network's books determine; verdicts
    /// are the per-event ones plus `end_checks`.
    fn counts<P: Process>(&self, net: &Network<P>, plans: u64, end_checks: &[bool]) -> Counts {
        let held = end_checks.iter().filter(|&&ok| ok).count();
        let ledger = net.ledger();
        Counts {
            events: self.events,
            heal_failed: self.failed,
            verdicts: self.events + count(end_checks.len()),
            verdicts_ok: self.events - self.failed + count(held),
            rounds: self.rounds,
            rounds_sharded: self.sharded,
            peak_node_load: self.peak_load,
            total_messages: ledger.total_messages(),
            sent: ledger.sent(),
            delivered: ledger.delivered(),
            dropped: ledger.dropped(),
            lost: ledger.lost(),
            duplicated: ledger.duplicated(),
            delayed: ledger.delayed(),
            notices: ledger.notices(),
            joins: ledger.joins(),
            crashes: net.crashes(),
            fault_fingerprint: net.fault_fingerprint(),
            cost: net.costs(),
            plans,
            ..Counts::default()
        }
    }
}

/// Runs `w` once with `seed` at `threads` engine workers. With `traced`,
/// spans are kept (see [`Recorder`]) and, on the tree, each heal is opened
/// into its deletion step and rounds.
pub fn run_workload(
    w: &Workload,
    seed: u64,
    threads: usize,
    traced: bool,
) -> Result<(Counts, Timing, Recorder), String> {
    let mut rec = Recorder::new(traced);
    let (counts, timing) = match &w.shape {
        Shape::Tree(shape) => drive_tree(&mut rec, shape, seed, threads, traced)?,
        Shape::Graph(shape) => drive_graph(&mut rec, shape, seed, threads)?,
    };
    Ok((counts, timing, rec))
}

/// One event's heal, opened from outside: the deletion step, then
/// `step_mt` until quiet within the round budget — exactly what
/// `Campaign::run_wave` does for a one-victim wave.
fn heal_opened(
    rec: &mut Recorder,
    net: &mut Network<FtNode>,
    victim: NodeId,
    budget: u32,
) -> (u32, RoundStats, bool, OperationCost) {
    let cost0 = net.costs();
    let silenced0 = net.crash_silenced();
    let notice = rec.begin(Kind::SimNotice);
    let (mut merged, _crashed) = net.delete_node_faulty(victim);
    rec.end(notice);
    let mut rounds = 0u32;
    while net.has_pending() && rounds < budget {
        let round = rec.begin(Kind::SimRound);
        let (stats, _round_cost) = net.step_mt();
        rec.end(round);
        rounds += 1;
        merged.merge(&stats);
    }
    let converged = !net.has_pending() && net.crash_silenced() == silenced0;
    (rounds + 1, merged, converged, net.costs() - cost0)
}

fn drive_tree(
    rec: &mut Recorder,
    shape: &TreeShape,
    seed: u64,
    threads: usize,
    traced: bool,
) -> Result<(Counts, Timing), String> {
    let run = rec.begin(Kind::Run);
    let setup = rec.begin(Kind::Setup);
    let span = rec.begin(Kind::GraphGen);
    let g = gen::kary_tree(shape.nodes, shape.arity);
    let tree = RootedTree::from_tree_graph(&g, NodeId(0));
    let h0 = eccentricity(&g, NodeId(0)).unwrap_or(0);
    let delta0 = g.max_degree().max(2);
    let orig_degree: Vec<usize> = (0..g.capacity())
        .map(|i| g.degree(NodeId(u32::try_from(i).unwrap_or(u32::MAX))))
        .collect();
    rec.end(span);
    // the fault matrix's diameter bound, max(2, 2·h₀·(⌈log₂ Δ₀⌉ + 2) + 2)
    let per_step = usize::BITS - (delta0 - 1).leading_zeros() + 2;
    let diameter_bound = (2 * h0 * per_step + 2).max(2);

    let span = rec.begin(Kind::CoreInit);
    let mut dist = DistributedForgivingTree::new(&tree);
    rec.end(span);
    let mut planner =
        make_wave_planner("random", seed).ok_or("the random wave planner is missing")?;
    let cfg = CampaignConfig {
        threads,
        ..CampaignConfig::default()
    };
    let mut campaign = Campaign::new(cfg);
    dist.network_mut().set_threads(threads);
    let cost0 = dist.network().costs();
    let planned = shape.deletions.min(shape.nodes.saturating_sub(1));
    let setup_took = rec.end(setup);

    let phase = rec.begin(Kind::Campaign);
    let mut heals = Heals::with_capacity(planned);
    let mut opened_cost = OperationCost::ZERO;
    let mut plans = 0u64;
    let mut remaining = planned;
    while remaining > 0 && dist.len() > 1 {
        let k = remaining.min(shape.wave.max(1)).min(dist.len() - 1);
        let span = rec.begin(Kind::AdversaryPlan);
        let victims = planner.plan(
            AdversaryView {
                graph: dist.graph(),
                ft: None,
            },
            k,
        );
        rec.end(span);
        plans += 1;
        if victims.is_empty() {
            break;
        }
        remaining -= victims.len();
        for &v in &victims {
            let span = rec.begin(Kind::SimHeal);
            if traced {
                let (rounds, merged, converged, cost) =
                    heal_opened(rec, dist.network_mut(), v, cfg.max_rounds_per_heal);
                let took = rec.end(span);
                opened_cost += cost;
                heals.absorb(
                    rounds,
                    merged.messages,
                    merged.max_per_node,
                    converged,
                    took,
                );
            } else {
                let ws = campaign.run_wave(dist.network_mut(), &[v]);
                let took = rec.end(span);
                heals.absorb(ws.rounds, ws.messages, ws.max_per_node, ws.converged, took);
            }
        }
    }
    rec.end(phase);

    let audit = rec.begin(Kind::Audit);
    let span = rec.begin(Kind::SimAccounting);
    let books = dist.network().check_accounting();
    rec.end(span);
    let span = rec.begin(Kind::GraphConnected);
    let connected = dist.graph().is_connected();
    rec.end(span);
    let span = rec.begin(Kind::CoreDegree);
    let healed = dist.graph();
    let max_degree_increase = healed
        .nodes()
        .map(|v| healed.degree(v) as i64 - orig_degree[v.index()] as i64)
        .max()
        .unwrap_or(0);
    rec.end(span);
    // 2·ecc(v) bounds the diameter from above, so this check never passes
    // a graph whose diameter exceeds the bound.
    let span = rec.begin(Kind::GraphDistance);
    let ecc = healed.nodes().next().and_then(|v| eccentricity(healed, v));
    rec.end(span);
    rec.end(audit);
    let total = rec.end(run);

    books.map_err(|e| format!("ledger imbalance: {e}"))?;
    let campaign_cost = if traced {
        opened_cost
    } else {
        campaign.report().cost
    };
    if campaign_cost != dist.network().costs() - cost0 {
        return Err("per-event costs do not tile the network's cost history".into());
    }
    let degree_ok = max_degree_increase <= 3;
    let distance_ok = connected && ecc.is_some_and(|e| 2 * e <= diameter_bound);
    let counts = Counts {
        connected,
        wills_ok: true,
        degree_ok,
        distance_ok,
        max_degree_increase,
        ..heals.counts(dist.network(), plans, &[connected, degree_ok, distance_ok])
    };
    check_fault_free(&counts, count(planned))?;
    let timing = Timing {
        setup: setup_took,
        total,
        heals: heals.took,
    };
    Ok((counts, timing))
}

/// The graph stress harness's initial graph: a random spanning tree plus
/// `⌊extra_edges · nodes⌋` random chords, drawn from one seeded stream.
fn initial_graph(nodes: usize, extra_edges: f64, rng: &mut StdRng) -> Graph {
    let mut g = gen::random_tree(nodes, rng);
    let extra = (extra_edges * nodes as f64) as usize;
    let mut added = 0usize;
    let mut attempts = 0usize;
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

fn drive_graph(
    rec: &mut Recorder,
    shape: &GraphShape,
    seed: u64,
    threads: usize,
) -> Result<(Counts, Timing), String> {
    let fault_cfg = FaultConfig::from_name(shape.faults)
        .ok_or_else(|| format!("unknown fault model {}", shape.faults))?;
    let faulty = !fault_cfg.is_zero();
    let run = rec.begin(Kind::Run);
    let setup = rec.begin(Kind::Setup);
    let span = rec.begin(Kind::GraphGen);
    let mut rng = StdRng::seed_from_u64(seed);
    let g = initial_graph(shape.nodes, shape.extra_edges, &mut rng);
    rec.end(span);
    let span = rec.begin(Kind::CoreInit);
    let mut dist = DistributedForgivingGraph::new(&g);
    rec.end(span);
    if faulty {
        dist.network_mut()
            .set_fault_plan(Some(fault_cfg.plan(seed ^ FAULT_SEED_SALT)));
    }
    let mut planner = make_churn_planner("mixed", seed, shape.insert_fraction)
        .ok_or("the mixed churn planner is missing")?;
    let mut campaign = Campaign::new(CampaignConfig {
        threads,
        ..CampaignConfig::default()
    });
    dist.network_mut().set_churn_journal(true);
    let span = rec.begin(Kind::StretchInit);
    let mut tracker = StretchTracker::new(dist.graph(), dist.pristine(), shape.sources, seed);
    rec.end(span);
    let cost0 = dist.network().costs();
    let setup_took = rec.end(setup);

    let phase = rec.begin(Kind::Campaign);
    let mut heals = Heals::with_capacity(shape.events);
    let mut plans = 0u64;
    let mut remaining = shape.events;
    while remaining > 0 && dist.len() > 2 {
        let k = remaining.min(shape.wave.max(1));
        let span = rec.begin(Kind::AdversaryPlan);
        let wave = planner.plan(
            AdversaryView {
                graph: dist.graph(),
                ft: None,
            },
            k,
        );
        rec.end(span);
        plans += 1;
        if wave.is_empty() {
            break;
        }
        remaining = remaining.saturating_sub(wave.len());
        for ev in &wave {
            let span = rec.begin(Kind::SimHeal);
            let ws = dist.run_wave(&mut campaign, std::slice::from_ref(ev));
            let took = rec.end(span);
            heals.absorb(ws.rounds, ws.messages, ws.max_per_node, ws.converged, took);
        }
        let span = rec.begin(Kind::StretchRepair);
        let journal = dist.network_mut().drain_churn_journal();
        tracker.apply_wave(dist.graph(), dist.pristine(), &journal);
        rec.end(span);
    }
    rec.end(phase);

    let audit = rec.begin(Kind::Audit);
    let span = rec.begin(Kind::SimAccounting);
    let books = dist.network().check_accounting();
    rec.end(span);
    let span = rec.begin(Kind::CoreWills);
    let wills_ok = dist.check_wills().is_ok();
    rec.end(span);
    let span = rec.begin(Kind::GraphConnected);
    let connected = dist.graph().is_connected();
    rec.end(span);
    let span = rec.begin(Kind::CoreDegree);
    let max_degree_increase = dist.max_degree_increase();
    rec.end(span);
    let span = rec.begin(Kind::StretchReport);
    let stretch = tracker.report(dist.graph());
    rec.end(span);
    rec.end(audit);
    let total = rec.end(run);

    books.map_err(|e| format!("ledger imbalance: {e}"))?;
    if campaign.report().cost != dist.network().costs() - cost0 {
        return Err("per-event costs do not tile the network's cost history".into());
    }
    let capacity = dist.graph().capacity();
    let degree_ok = max_degree_increase <= fg_degree_bound(capacity);
    let distance_ok =
        stretch.disconnected_pairs == 0 && stretch.max_stretch <= fg_stretch_bound(capacity);
    let counts = Counts {
        connected,
        wills_ok,
        degree_ok,
        distance_ok,
        max_degree_increase,
        stretch_cost: tracker.cost(),
        stretch_pairs: count(stretch.pairs),
        max_stretch: stretch.max_stretch,
        ..heals.counts(
            dist.network(),
            plans,
            &[connected, wills_ok, degree_ok, distance_ok],
        )
    };
    if !faulty {
        check_fault_free(&counts, count(shape.events))?;
    }
    let timing = Timing {
        setup: setup_took,
        total,
        heals: heals.took,
    };
    Ok((counts, timing))
}

/// What a fault-free campaign must satisfy, as the stress harnesses
/// assert it: every planned event fed, every heal converged, and every
/// end-of-run verdict held.
fn check_fault_free(c: &Counts, planned: u64) -> Result<(), String> {
    if c.events != planned {
        return Err(format!("fed {} events, planned {planned}", c.events));
    }
    let verdicts = [
        ("every heal converged", c.heal_failed == 0),
        ("connected", c.connected),
        ("wills fresh", c.wills_ok),
        ("degree bound", c.degree_ok),
        ("distance bound", c.distance_ok),
    ];
    match verdicts.iter().find(|(_, ok)| !ok) {
        Some((what, _)) => Err(format!("fault-free campaign failed: {what}")),
        None => Ok(()),
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
