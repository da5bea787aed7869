//! Forgiving Graph stress harness: mixed insert/delete campaigns on the
//! distributed engine, with a machine-readable perf record
//! (`BENCH_graph.json`).
//!
//! [`run_graph_stress`] builds a connected general-graph workload (random
//! spanning tree plus extra random edges), arms the message-level
//! [`DistributedForgivingGraph`], and drives wave after wave of churn
//! (planned by an `ft-adversary` [`ft_adversary::ChurnPlanner`], applied by
//! the `ft-sim` [`Campaign`] driver) until the event budget is spent. The resulting
//! [`GraphStressRecord`] reports throughput, the full message ledger
//! (join notices included), the sampled stretch against the pristine graph
//! (measured by the incremental [`StretchTracker`], which repairs its
//! distance fields from each wave's churn journal), and the worst degree
//! increase. `run_graph_stress` panics if the books do not balance; a
//! fault-free run that failed to converge, failed its will audit, lost
//! connectivity or exceeded either O(log n) bound is named by
//! [`GraphStressRecord::failed_verdict`], so the harness doubles as the
//! end-to-end acceptance check in CI.
//!
//! `GraphStressConfig::faults` arms a named deterministic fault model
//! ([`ft_sim::FaultConfig`]) on the campaign. Faulty runs still replay
//! byte-identically from their seed and keep the accounting panics
//! armed, but the verdicts become plain measurements — under an adversary
//! that loses mail and crashes nodes mid-heal, those are what the fault
//! matrix collects.

use crate::record::Record;
use crate::stress::{arm_faults, audit, first_failed};
use crate::stretch::StretchReport;
use crate::stretch_inc::StretchTracker;
use ft_adversary::{make_churn_planner, AdversaryView};
use ft_core::{fg_degree_bound, fg_stretch_bound, DistributedForgivingGraph};
use ft_costs::OperationCost;
use ft_graph::gen;
use ft_sim::{Campaign, CampaignConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Graph-model stress-campaign parameters.
#[derive(Clone, Debug)]
pub struct GraphStressConfig {
    /// Initial node count.
    pub nodes: usize,
    /// Total churn-event budget (insertions + deletions).
    pub events: usize,
    /// Events per adversarial wave.
    pub wave_size: usize,
    /// Fraction of events that are insertions.
    pub insert_fraction: f64,
    /// Extra non-tree edges in the initial graph, as a fraction of `nodes`.
    pub extra_edges: f64,
    /// Churn planner: `mixed` or `surge`.
    pub planner: String,
    /// RNG seed (workload, planner, and stretch sampling).
    pub seed: u64,
    /// BFS sources sampled by the stretch pass.
    pub stretch_sources: usize,
    /// Ignored; kept only because ftbench's sources are frozen; delete with
    /// the next benchmark PR.
    pub threads: usize,
    /// Ignored (stretch is always measured by the [`StretchTracker`]); kept
    /// only because ftbench's sources are frozen; delete with the next
    /// benchmark PR.
    pub stretch_mode: String,
    /// Named fault model ([`ft_sim::FaultConfig::from_name`]): `none` (default),
    /// `delay`, `loss`, `dup`, `crash`, `partition`, `chaos`, or
    /// `+`-joined combinations. Any model other than `none` turns the
    /// convergence/connectivity/will/bound verdicts into plain
    /// measurements — under faults those are not contract violations —
    /// while the ledger-balance and cost-reconciliation panics stay armed.
    pub faults: String,
}

impl Default for GraphStressConfig {
    fn default() -> Self {
        GraphStressConfig {
            nodes: 10_000,
            events: 2_000,
            wave_size: 50,
            insert_fraction: 0.4,
            extra_edges: 0.2,
            planner: String::from("mixed"),
            seed: 42,
            stretch_sources: 16,
            threads: 1,
            stretch_mode: String::from("incremental"),
            faults: String::from("none"),
        }
    }
}

/// The perf record emitted as `BENCH_graph.json`.
#[derive(Clone, Debug)]
pub struct GraphStressRecord {
    /// Echo of the configuration.
    pub config: GraphStressConfig,
    /// Waves applied.
    pub waves: usize,
    /// Nodes inserted.
    pub insertions: usize,
    /// Nodes deleted.
    pub deletions: usize,
    /// Engine rounds consumed.
    pub rounds: u64,
    /// Live nodes remaining.
    pub live_remaining: usize,
    /// Wall-clock seconds for the campaign (setup and stretch pass
    /// excluded).
    pub elapsed_secs: f64,
    /// The same wall time in milliseconds (the perf-trajectory datapoint).
    pub wall_ms: f64,
    /// Wall-clock milliseconds of stretch measurement: the tracker's build,
    /// per-wave repairs and final report.
    pub stretch_wall_ms: f64,
    /// Healed churn events per second.
    pub events_per_sec: f64,
    /// Delivered messages (notices and joins included) per second.
    pub msgs_per_sec: f64,
    /// Worst single-node single-round message load.
    pub peak_per_node_load: usize,
    /// Worst lifetime per-node message total.
    pub max_per_node_total: u64,
    /// Ledger: messages handed to the engine.
    pub sent: u64,
    /// Ledger: protocol messages delivered.
    pub delivered: u64,
    /// Ledger: messages dropped on dead endpoints.
    pub dropped: u64,
    /// Ledger: deletion notices delivered.
    pub notices: u64,
    /// Ledger: join notices delivered.
    pub joins: u64,
    /// Ledger: deliveries + notices + joins.
    pub total_messages: u64,
    /// Worst degree increase over the pristine baseline.
    pub max_degree_increase: i64,
    /// The enforced degree bound, `3·⌈log₂ n⌉ + 3`.
    pub degree_bound: i64,
    /// The sampled stretch pass.
    pub stretch: StretchReport,
    /// The enforced stretch bound, `⌈log₂ n⌉ + 2`.
    pub stretch_bound: f64,
    /// Engine-side operation cost of the whole campaign (accumulated by
    /// the round engine; `cost.messages_delivered` reconciles with the
    /// ledger's delivered book by construction).
    pub cost: OperationCost,
    /// Operation cost of the stretch measurement (BFS/repair settles,
    /// adjacency scans, distance-table bytes).
    pub stretch_cost: OperationCost,
    /// Whether the ledger identities held (always true on return).
    pub balanced: bool,
    /// Whether degree and stretch stayed within the O(log n) bounds and
    /// every sampled pair was reachable: the last three verdicts of
    /// [`GraphStressRecord::failed_verdict`] in one boolean.
    pub within_bounds: bool,
    /// Whether every heal phase reached quiescence within its round budget
    /// (a verdict of a fault-free run; under faults a measurement).
    pub converged: bool,
    /// Whether the will audit passed (a verdict of a fault-free run; under
    /// faults crash-stops can strand heirs mid-heal).
    pub wills_ok: bool,
    /// Ledger: messages destroyed on the wire (loss + partition cuts).
    pub lost: u64,
    /// Ledger: surplus copies minted by duplication.
    pub duplicated: u64,
    /// Ledger: messages that took at least one extra round in the delay
    /// queue.
    pub delayed: u64,
    /// Deletions the fault plan escalated to crash-stops.
    pub crashes: u64,
    /// FNV-1a fingerprint of the realized fault schedule.
    pub fault_fingerprint: u64,
    /// Whether the healed graph was still connected at the end (a verdict
    /// of a fault-free run; under faults a measurement).
    pub connected: bool,
}

impl GraphStressRecord {
    /// The first verdict a fault-free run failed: `converged`, `wills_ok`,
    /// `connected`, `disconnected_pairs` (a sampled pair unreachable),
    /// `degree_bound` or `stretch_bound`; `None` when all held or when
    /// faults were armed, which makes them measurements.
    pub fn failed_verdict(&self) -> Option<&'static str> {
        first_failed(
            &self.config.faults,
            &[
                ("converged", self.converged),
                ("wills_ok", self.wills_ok),
                ("connected", self.connected),
                ("disconnected_pairs", self.stretch.disconnected_pairs == 0),
                (
                    "degree_bound",
                    self.max_degree_increase <= self.degree_bound,
                ),
                (
                    "stretch_bound",
                    self.stretch.max_stretch <= self.stretch_bound,
                ),
            ],
        )
    }

    /// Serializes the record as a flat JSON object.
    pub fn to_json(&self) -> String {
        let c = &self.config;
        Record::new()
            .str("bench", "graph_stress")
            .num("nodes", c.nodes)
            .num("events", c.events)
            .num("wave_size", c.wave_size)
            .fixed("insert_fraction", c.insert_fraction, 3)
            .fixed("extra_edges", c.extra_edges, 3)
            .str("planner", &c.planner)
            .num("seed", c.seed)
            .num("waves", self.waves)
            .num("insertions", self.insertions)
            .num("deletions", self.deletions)
            .num("rounds", self.rounds)
            .num("live_remaining", self.live_remaining)
            .fixed("elapsed_secs", self.elapsed_secs, 6)
            .fixed("wall_ms", self.wall_ms, 3)
            .fixed("stretch_wall_ms", self.stretch_wall_ms, 3)
            .fixed("events_per_sec", self.events_per_sec, 1)
            .fixed("msgs_per_sec", self.msgs_per_sec, 1)
            .num("peak_per_node_load", self.peak_per_node_load)
            .num("max_per_node_total", self.max_per_node_total)
            .num("sent", self.sent)
            .num("delivered", self.delivered)
            .num("dropped", self.dropped)
            .num("notices", self.notices)
            .num("joins", self.joins)
            .num("total_messages", self.total_messages)
            .num("max_degree_increase", self.max_degree_increase)
            .num("degree_bound", self.degree_bound)
            .num("stretch_sources", self.stretch.sources)
            .num("stretch_pairs", self.stretch.pairs)
            .fixed("max_stretch", self.stretch.max_stretch, 4)
            .fixed("mean_stretch", self.stretch.mean_stretch, 4)
            .fixed("stretch_bound", self.stretch_bound, 1)
            .cost("cost", &self.cost)
            .num("stretch_node_visits", self.stretch_cost.node_visits)
            .num("stretch_edge_scans", self.stretch_cost.edge_scans)
            .num("stretch_heap_bytes", self.stretch_cost.heap_bytes)
            .num("stretch_seeks", self.stretch_cost.seeks)
            .num("balanced", self.balanced)
            .num("within_bounds", self.within_bounds)
            .num("converged", self.converged)
            .str("faults", &c.faults)
            .num("wills_ok", self.wills_ok)
            .num("lost", self.lost)
            .num("duplicated", self.duplicated)
            .num("delayed", self.delayed)
            .num("crashes", self.crashes)
            .num("fault_fingerprint", self.fault_fingerprint)
            .num("connected", self.connected)
            .render()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} inserts + {} deletes over {} waves on n={} ({} planner): \
             {:.2}s, {:.0} events/s, {:.0} msgs/s, max stretch {:.2} \
             (bound {:.0}), max degree +{} (bound {}), books balanced",
            self.insertions,
            self.deletions,
            self.waves,
            self.config.nodes,
            self.config.planner,
            self.elapsed_secs,
            self.events_per_sec,
            self.msgs_per_sec,
            self.stretch.max_stretch,
            self.stretch_bound,
            self.max_degree_increase,
            self.degree_bound,
        )
    }
}

/// Builds the initial workload: a random spanning tree over `nodes` plus
/// `⌊extra_edges · nodes⌋` random chords — connected, sparse, general.
fn initial_graph(cfg: &GraphStressConfig, rng: &mut StdRng) -> ft_graph::Graph {
    let mut g = gen::random_tree(cfg.nodes, rng);
    let extra = (cfg.extra_edges * cfg.nodes as f64) as usize;
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < extra && attempts < extra * 20 {
        attempts += 1;
        let a = ft_graph::NodeId(rng.gen_range(0..cfg.nodes) as u32);
        let b = ft_graph::NodeId(rng.gen_range(0..cfg.nodes) as u32);
        if a != b && !g.has_edge(a, b) {
            g.add_edge(a, b);
            added += 1;
        }
    }
    g
}

/// Runs the graph-model stress campaign described by `cfg`.
///
/// A heal that fails to quiesce within its round budget, a failed will
/// audit, lost connectivity or an O(log n) bound violation is recorded in
/// `converged` / `wills_ok` / `connected` / `within_bounds`;
/// [`GraphStressRecord::failed_verdict`] names it when no fault was armed.
///
/// # Panics
/// Panics on an unknown planner/fault-model name or a message-ledger
/// imbalance — a non-zero exit is the CI failure signal.
pub fn run_graph_stress(cfg: &GraphStressConfig) -> GraphStressRecord {
    run_graph_campaign(cfg).0
}

/// The graph campaign behind [`run_graph_stress`]; it also returns the
/// healed network, for callers that check more than the record holds
/// (the tests re-measure its stretch with the full-sweep oracle).
///
/// # Panics
/// As [`run_graph_stress`].
#[expect(
    clippy::disallowed_types,
    reason = "times the campaign and the stretch tracker for the record's wall-clock fields; no protocol decision reads the clock"
)]
pub fn run_graph_campaign(
    cfg: &GraphStressConfig,
) -> (GraphStressRecord, DistributedForgivingGraph) {
    use std::time::Instant;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let g = initial_graph(cfg, &mut rng);
    let mut dist = DistributedForgivingGraph::new(&g);
    arm_faults(dist.network_mut(), &cfg.faults, cfg.seed);
    let mut planner = make_churn_planner(&cfg.planner, cfg.seed, cfg.insert_fraction)
        .unwrap_or_else(|| panic!("unknown churn planner: {}", cfg.planner));
    let mut campaign = Campaign::new(CampaignConfig::default());
    // The stretch tracker is armed before the first wave and repairs its
    // fields from each wave's drained churn journal; its wall time — build
    // included — is metered separately so `elapsed_secs` stays
    // campaign-only.
    let build_start = Instant::now();
    dist.network_mut().set_churn_journal(true);
    let mut tracker =
        StretchTracker::new(dist.graph(), dist.pristine(), cfg.stretch_sources, cfg.seed);
    let build_wall = build_start.elapsed().as_secs_f64();
    let mut stretch_wall = 0.0f64;

    let start = Instant::now();
    let mut remaining = cfg.events;
    while remaining > 0 && dist.len() > 2 {
        let k = remaining.min(cfg.wave_size.max(1));
        let events = planner.plan(
            AdversaryView {
                graph: dist.graph(),
                ft: None,
            },
            k,
        );
        if events.is_empty() {
            break;
        }
        remaining = remaining.saturating_sub(events.len());
        dist.run_wave(&mut campaign, &events);
        let journal = dist.network_mut().drain_churn_journal();
        let t0 = Instant::now();
        tracker.apply_wave(dist.graph(), dist.pristine(), &journal);
        stretch_wall += t0.elapsed().as_secs_f64();
    }
    let elapsed = (start.elapsed().as_secs_f64() - stretch_wall).max(1e-9);

    audit(dist.network());
    let converged = campaign.report().converged;
    let wills_ok = dist.check_wills().is_ok();
    let connected = dist.graph().is_connected();

    let capacity = dist.graph().capacity();
    let degree_bound = fg_degree_bound(capacity);
    let stretch_bound = fg_stretch_bound(capacity);
    let max_degree_increase = dist.max_degree_increase();
    let t0 = Instant::now();
    let stretch = tracker.report(dist.graph());
    stretch_wall += t0.elapsed().as_secs_f64();
    let within_bounds = stretch.disconnected_pairs == 0
        && max_degree_increase <= degree_bound
        && stretch.max_stretch <= stretch_bound;

    let ledger = dist.ledger();
    let report = campaign.report();
    let rec = GraphStressRecord {
        waves: report.waves,
        insertions: report.insertions,
        deletions: report.deletions,
        rounds: report.rounds,
        live_remaining: dist.len(),
        elapsed_secs: elapsed,
        wall_ms: elapsed * 1e3,
        stretch_wall_ms: (build_wall + stretch_wall) * 1e3,
        events_per_sec: (report.insertions + report.deletions) as f64 / elapsed,
        msgs_per_sec: ledger.total_messages() as f64 / elapsed,
        peak_per_node_load: report.peak_round_load,
        max_per_node_total: ledger.max_per_node(),
        sent: ledger.sent(),
        delivered: ledger.delivered(),
        dropped: ledger.dropped(),
        notices: ledger.notices(),
        joins: ledger.joins(),
        total_messages: ledger.total_messages(),
        max_degree_increase,
        degree_bound,
        stretch,
        stretch_bound,
        cost: dist.network().costs(),
        stretch_cost: tracker.cost(),
        balanced: true,
        within_bounds,
        converged,
        wills_ok,
        lost: ledger.lost(),
        duplicated: ledger.duplicated(),
        delayed: ledger.delayed(),
        crashes: dist.network().crashes(),
        fault_fingerprint: dist.network().fault_fingerprint(),
        connected,
        config: cfg.clone(),
    };
    (rec, dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stretch::measure_stretch_full;

    /// The full-sweep oracle's figures on the campaign's final graphs.
    fn full_sweep(cfg: &GraphStressConfig, dist: &DistributedForgivingGraph) -> StretchReport {
        measure_stretch_full(dist.graph(), dist.pristine(), cfg.stretch_sources, cfg.seed).0
    }

    #[test]
    fn smoke_graph_campaign_balances_and_bounds() {
        for planner in ["mixed", "surge"] {
            let cfg = GraphStressConfig {
                nodes: 250,
                events: 80,
                wave_size: 8,
                insert_fraction: 0.4,
                extra_edges: 0.2,
                planner: planner.into(),
                seed: 3,
                stretch_sources: 8,
                faults: "none".into(),
                ..GraphStressConfig::default()
            };
            let (rec, dist) = run_graph_campaign(&cfg);
            assert_eq!(rec.insertions + rec.deletions, 80, "{planner}");
            assert!(rec.insertions > 0, "{planner} inserted");
            assert!(rec.balanced && rec.within_bounds && rec.converged);
            assert!(rec.joins > 0, "join notices on the books");
            assert_eq!(rec.total_messages, rec.delivered + rec.notices + rec.joins);
            assert!(rec.stretch.max_stretch >= 1.0);
            assert_eq!(rec.stretch, full_sweep(&cfg, &dist), "{planner} oracle");
            assert_eq!(rec.cost.messages_delivered, rec.delivered);
            assert_eq!(rec.cost.messages_sent, rec.sent);
            assert!(!rec.stretch_cost.is_zero(), "stretch work was charged");
        }
    }

    /// A failed fault-free verdict is recorded, not asserted, and named in
    /// the harness's order; under faults every verdict is a measurement.
    #[test]
    fn failed_verdicts_are_named_in_order() {
        let mut rec = run_graph_stress(&GraphStressConfig {
            nodes: 60,
            events: 20,
            wave_size: 5,
            planner: "mixed".into(),
            seed: 2,
            stretch_sources: 4,
            ..GraphStressConfig::default()
        });
        assert_eq!(rec.failed_verdict(), None);
        rec.stretch.max_stretch = rec.stretch_bound + 1.0;
        assert_eq!(rec.failed_verdict(), Some("stretch_bound"));
        rec.max_degree_increase = rec.degree_bound + 1;
        assert_eq!(rec.failed_verdict(), Some("degree_bound"));
        rec.stretch.disconnected_pairs = 1;
        assert_eq!(rec.failed_verdict(), Some("disconnected_pairs"));
        rec.connected = false;
        assert_eq!(rec.failed_verdict(), Some("connected"));
        rec.wills_ok = false;
        assert_eq!(rec.failed_verdict(), Some("wills_ok"));
        rec.converged = false;
        assert_eq!(rec.failed_verdict(), Some("converged"));
        rec.config.faults = "dup".into();
        assert_eq!(rec.failed_verdict(), None);
    }

    /// Same seed, second run: every deterministic figure of the record —
    /// campaign, ledger, degree, *and* the floating-point stretch pass —
    /// must be identical.
    #[test]
    fn graph_record_replays_identically() {
        let cfg = GraphStressConfig {
            nodes: 300,
            events: 90,
            wave_size: 9,
            insert_fraction: 0.4,
            extra_edges: 0.2,
            planner: "mixed".into(),
            seed: 17,
            stretch_sources: 8,
            faults: "none".into(),
            ..GraphStressConfig::default()
        };
        let rec1 = run_graph_stress(&cfg);
        let rec2 = run_graph_stress(&cfg);
        assert_eq!(
            (rec1.waves, rec1.insertions, rec1.deletions, rec1.rounds),
            (rec2.waves, rec2.insertions, rec2.deletions, rec2.rounds)
        );
        assert_eq!(
            (
                rec1.sent,
                rec1.delivered,
                rec1.dropped,
                rec1.notices,
                rec1.joins
            ),
            (
                rec2.sent,
                rec2.delivered,
                rec2.dropped,
                rec2.notices,
                rec2.joins
            )
        );
        assert_eq!(rec1.max_per_node_total, rec2.max_per_node_total);
        assert_eq!(rec1.max_degree_increase, rec2.max_degree_increase);
        assert_eq!(rec1.stretch, rec2.stretch, "stretch pass bit-identical");
        assert_eq!(rec1.cost, rec2.cost, "engine costs bit-identical");
        assert_eq!(
            rec1.stretch_cost, rec2.stretch_cost,
            "stretch costs bit-identical"
        );
    }

    #[test]
    fn graph_json_record_is_well_formed_enough() {
        let rec = run_graph_stress(&GraphStressConfig {
            nodes: 60,
            events: 20,
            wave_size: 5,
            insert_fraction: 0.5,
            extra_edges: 0.1,
            planner: "mixed".into(),
            seed: 2,
            stretch_sources: 4,
            faults: "none".into(),
            ..GraphStressConfig::default()
        });
        let json = rec.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"bench\": \"graph_stress\""));
        assert!(json.contains("\"joins\""));
        assert!(json.contains("\"max_stretch\""));
        assert!(json.contains("\"within_bounds\": true"));
        assert!(json.contains("\"converged\": true"));
        assert!(json.contains("\"wall_ms\""));
        assert!(json.contains("\"cost_messages_delivered\""));
        assert!(json.contains("\"stretch_node_visits\""));
        assert!(json.contains("\"faults\": \"none\""));
        assert!(json.contains("\"wills_ok\": true"));
        assert!(json.contains("\"connected\": true"));
        assert_eq!(json.matches(':').count(), 54, "54 fields");
    }

    /// Faulty churn campaigns keep the books balanced, replay identically
    /// from their seed, and report (rather than panic on) whatever the
    /// faults did to convergence, wills, connectivity, and the bounds.
    #[test]
    fn faulty_graph_campaign_balances_and_replays() {
        let base = GraphStressConfig {
            nodes: 250,
            events: 80,
            wave_size: 8,
            insert_fraction: 0.4,
            extra_edges: 0.2,
            planner: "mixed".into(),
            seed: 23,
            stretch_sources: 8,
            faults: "chaos".into(),
            ..GraphStressConfig::default()
        };
        let rec1 = run_graph_stress(&base);
        let rec2 = run_graph_stress(&base);
        assert!(
            rec1.lost + rec1.duplicated + rec1.delayed + rec1.crashes > 0,
            "the chaos model must realize at least one fault"
        );
        let fp = |r: &GraphStressRecord| {
            (
                (r.waves, r.insertions, r.deletions, r.rounds),
                (r.sent, r.delivered, r.dropped, r.notices, r.joins),
                (r.lost, r.duplicated, r.delayed, r.crashes),
                r.fault_fingerprint,
                (r.converged, r.wills_ok, r.connected, r.within_bounds),
            )
        };
        assert_eq!(fp(&rec1), fp(&rec2), "faulty record replays");
        assert_eq!(rec1.cost, rec2.cost, "faulty engine costs bit-identical");
        assert_eq!(rec1.stretch, rec2.stretch, "stretch pass bit-identical");
    }

    /// The tracker's figures equal the full sweep's at the shape of the
    /// CI graph smoke, fault-free and under chaos (lost, delayed and
    /// partitioned heal mail can split the healed graph, which exercises
    /// the tracker's carves of whole components).
    #[test]
    fn tracker_matches_the_full_sweep_at_the_ci_smoke_shape() {
        for faults in ["none", "chaos"] {
            let cfg = GraphStressConfig {
                nodes: 2_000,
                events: 400,
                wave_size: 25,
                insert_fraction: 0.4,
                planner: "mixed".into(),
                seed: 1,
                faults: faults.into(),
                ..GraphStressConfig::default()
            };
            let (rec, dist) = run_graph_campaign(&cfg);
            assert_eq!(rec.insertions + rec.deletions, 400, "{faults}");
            assert_eq!(rec.stretch, full_sweep(&cfg, &dist), "{faults}");
        }
    }
}
