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
//! (join notices included), the sampled stretch against the pristine graph,
//! and the worst degree increase — and `run_graph_stress` panics if the
//! books do not balance, a will audit fails, connectivity is lost, or
//! either O(log n) bound is exceeded, so it doubles as the end-to-end
//! acceptance check in CI.
//!
//! `GraphStressConfig::faults` arms a named deterministic fault model
//! ([`ft_sim::FaultConfig`]) on the campaign. Faulty runs still replay
//! byte-identically from their seed and keep the accounting panics
//! armed, but the convergence/will/connectivity/bound panics relax into
//! recorded booleans — under an adversary that loses mail and crashes
//! nodes mid-heal, those are the measurements the fault matrix collects.

use crate::stress::FAULT_SEED_SALT;
use crate::stretch::{measure_stretch_full, StretchReport};
use crate::stretch_inc::StretchTracker;
use ft_adversary::{make_churn_planner, AdversaryView};
use ft_core::{fg_degree_bound, fg_stretch_bound, DistributedForgivingGraph};
use ft_costs::OperationCost;
use ft_graph::gen;
use ft_sim::{Campaign, CampaignConfig, FaultConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

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
    /// Stretch engine: `incremental` (default — per-source distance fields
    /// repaired from the churn journal), `full` (from-scratch re-sweep), or
    /// `both` (run both and panic unless every figure agrees — the
    /// differential-oracle mode CI exercises).
    pub stretch_mode: String,
    /// Named fault model ([`FaultConfig::from_name`]): `none` (default),
    /// `delay`, `loss`, `dup`, `crash`, `partition`, `chaos`, or
    /// `+`-joined combinations. Any model other than `none` relaxes the
    /// convergence/connectivity/will/bound panics into recorded booleans —
    /// under faults those are measurements, not contract violations —
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
    /// Wall-clock milliseconds of stretch measurement: the full pass, or
    /// the incremental tracker's build, per-wave repairs and final report.
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
    /// Stretch engine the recorded figures came from (`incremental` when
    /// the mode was `both` — the full pass is the oracle, not the record).
    pub stretch_mode: String,
    /// Whether full and incremental figures agreed (vacuously true outside
    /// `both` mode; a disagreement panics the harness).
    pub stretch_modes_agree: bool,
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
    /// every sampled pair was reachable (always true on return when
    /// `faults == "none"` — violations panic the fault-free harness).
    pub within_bounds: bool,
    /// Whether every heal phase reached quiescence within its round budget
    /// (always true on return when `faults == "none"`).
    pub converged: bool,
    /// Whether the will audit passed (always true when `faults == "none"`;
    /// crash-stops can strand heirs mid-heal).
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
    /// Whether the healed graph was still connected at the end (always
    /// true when `faults == "none"`).
    pub connected: bool,
}

impl GraphStressRecord {
    /// Serializes the record as a flat JSON object (hand-rolled: the
    /// workspace is offline and vendors no serde).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"graph_stress\",\n",
                "  \"nodes\": {},\n",
                "  \"events\": {},\n",
                "  \"wave_size\": {},\n",
                "  \"insert_fraction\": {:.3},\n",
                "  \"extra_edges\": {:.3},\n",
                "  \"planner\": \"{}\",\n",
                "  \"seed\": {},\n",
                "  \"waves\": {},\n",
                "  \"insertions\": {},\n",
                "  \"deletions\": {},\n",
                "  \"rounds\": {},\n",
                "  \"live_remaining\": {},\n",
                "  \"elapsed_secs\": {:.6},\n",
                "  \"wall_ms\": {:.3},\n",
                "  \"stretch_wall_ms\": {:.3},\n",
                "  \"events_per_sec\": {:.1},\n",
                "  \"msgs_per_sec\": {:.1},\n",
                "  \"peak_per_node_load\": {},\n",
                "  \"max_per_node_total\": {},\n",
                "  \"sent\": {},\n",
                "  \"delivered\": {},\n",
                "  \"dropped\": {},\n",
                "  \"notices\": {},\n",
                "  \"joins\": {},\n",
                "  \"total_messages\": {},\n",
                "  \"max_degree_increase\": {},\n",
                "  \"degree_bound\": {},\n",
                "  \"stretch_sources\": {},\n",
                "  \"stretch_pairs\": {},\n",
                "  \"max_stretch\": {:.4},\n",
                "  \"mean_stretch\": {:.4},\n",
                "  \"stretch_bound\": {:.1},\n",
                "  \"stretch_mode\": \"{}\",\n",
                "  \"stretch_modes_agree\": {},\n",
                "  \"cost_messages_sent\": {},\n",
                "  \"cost_messages_delivered\": {},\n",
                "  \"cost_node_visits\": {},\n",
                "  \"cost_edge_scans\": {},\n",
                "  \"cost_heap_bytes\": {},\n",
                "  \"cost_seeks\": {},\n",
                "  \"stretch_node_visits\": {},\n",
                "  \"stretch_edge_scans\": {},\n",
                "  \"stretch_heap_bytes\": {},\n",
                "  \"stretch_seeks\": {},\n",
                "  \"balanced\": {},\n",
                "  \"within_bounds\": {},\n",
                "  \"converged\": {},\n",
                "  \"faults\": \"{}\",\n",
                "  \"wills_ok\": {},\n",
                "  \"lost\": {},\n",
                "  \"duplicated\": {},\n",
                "  \"delayed\": {},\n",
                "  \"crashes\": {},\n",
                "  \"fault_fingerprint\": {},\n",
                "  \"connected\": {}\n",
                "}}\n"
            ),
            self.config.nodes,
            self.config.events,
            self.config.wave_size,
            self.config.insert_fraction,
            self.config.extra_edges,
            self.config.planner,
            self.config.seed,
            self.waves,
            self.insertions,
            self.deletions,
            self.rounds,
            self.live_remaining,
            self.elapsed_secs,
            self.wall_ms,
            self.stretch_wall_ms,
            self.events_per_sec,
            self.msgs_per_sec,
            self.peak_per_node_load,
            self.max_per_node_total,
            self.sent,
            self.delivered,
            self.dropped,
            self.notices,
            self.joins,
            self.total_messages,
            self.max_degree_increase,
            self.degree_bound,
            self.stretch.sources,
            self.stretch.pairs,
            self.stretch.max_stretch,
            self.stretch.mean_stretch,
            self.stretch_bound,
            self.stretch_mode,
            self.stretch_modes_agree,
            self.cost.messages_sent,
            self.cost.messages_delivered,
            self.cost.node_visits,
            self.cost.edge_scans,
            self.cost.heap_bytes,
            self.cost.seeks,
            self.stretch_cost.node_visits,
            self.stretch_cost.edge_scans,
            self.stretch_cost.heap_bytes,
            self.stretch_cost.seeks,
            self.balanced,
            self.within_bounds,
            self.converged,
            self.config.faults,
            self.wills_ok,
            self.lost,
            self.duplicated,
            self.delayed,
            self.crashes,
            self.fault_fingerprint,
            self.connected,
        )
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
/// # Panics
/// Panics on an unknown planner/fault-model name or a message-ledger
/// imbalance. When `faults == "none"` it additionally panics on a heal
/// that fails to quiesce within its round budget (non-convergence), a
/// failed will audit, lost connectivity, or an O(log n) bound violation —
/// a non-zero exit is the CI failure signal. Under any other fault model
/// those outcomes become the recorded `converged` / `wills_ok` /
/// `connected` / `within_bounds` booleans.
pub fn run_graph_stress(cfg: &GraphStressConfig) -> GraphStressRecord {
    assert!(
        matches!(cfg.stretch_mode.as_str(), "full" | "incremental" | "both"),
        "unknown stretch mode: {} (full | incremental | both)",
        cfg.stretch_mode
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let g = initial_graph(cfg, &mut rng);
    let mut dist = DistributedForgivingGraph::new(&g);
    let fault_cfg = FaultConfig::from_name(&cfg.faults)
        .unwrap_or_else(|| panic!("unknown fault model: {}", cfg.faults));
    let faulty = !fault_cfg.is_zero();
    if faulty {
        dist.network_mut()
            .set_fault_plan(Some(fault_cfg.plan(cfg.seed ^ FAULT_SEED_SALT)));
    }
    let mut planner = make_churn_planner(&cfg.planner, cfg.seed, cfg.insert_fraction)
        .unwrap_or_else(|| panic!("unknown churn planner: {}", cfg.planner));
    let mut campaign = Campaign::new(CampaignConfig::default());
    // The incremental tracker is armed before the first wave and repairs
    // its fields from each wave's drained churn journal; its wall time —
    // build included — is metered separately so `elapsed_secs` stays
    // campaign-only.
    let build_start = Instant::now();
    let mut tracker = if cfg.stretch_mode == "full" {
        None
    } else {
        dist.network_mut().set_churn_journal(true);
        Some(StretchTracker::new(
            dist.graph(),
            dist.pristine(),
            cfg.stretch_sources,
            cfg.seed,
        ))
    };
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
        if let Some(t) = tracker.as_mut() {
            let journal = dist.network_mut().drain_churn_journal();
            let t0 = Instant::now();
            t.apply_wave(dist.graph(), dist.pristine(), &journal);
            stretch_wall += t0.elapsed().as_secs_f64();
        }
    }
    let elapsed = (start.elapsed().as_secs_f64() - stretch_wall).max(1e-9);

    dist.network()
        .check_accounting()
        .expect("message ledger imbalance after graph stress campaign");
    let converged = campaign.report().converged;
    let wills = dist.check_wills();
    let connected = dist.graph().is_connected();
    if !faulty {
        assert!(
            converged,
            "a heal phase was truncated by the round budget (non-convergence)"
        );
        wills
            .as_ref()
            .expect("stale wills after graph stress campaign");
        assert!(connected, "healer lost connectivity during the campaign");
    }
    let wills_ok = wills.is_ok();

    let capacity = dist.graph().capacity();
    let degree_bound = fg_degree_bound(capacity);
    let stretch_bound = fg_stretch_bound(capacity);
    let max_degree_increase = dist.max_degree_increase();
    let full_pass = || {
        let t0 = Instant::now();
        let (report, cost) =
            measure_stretch_full(dist.graph(), dist.pristine(), cfg.stretch_sources, cfg.seed);
        (report, cost, t0.elapsed().as_secs_f64())
    };
    let mut stretch_modes_agree = true;
    let (stretch, stretch_cost, stretch_wall_ms) = match (&tracker, cfg.stretch_mode.as_str()) {
        (None, _) => {
            let (report, cost, secs) = full_pass();
            (report, cost, secs * 1e3)
        }
        (Some(t), mode) => {
            let t0 = Instant::now();
            let report = t.report(dist.graph());
            stretch_wall += t0.elapsed().as_secs_f64();
            if mode == "both" {
                let (oracle, _, _) = full_pass();
                stretch_modes_agree = report == oracle;
                assert!(
                    stretch_modes_agree,
                    "incremental stretch diverged from the full-sweep oracle"
                );
            }
            (report, t.cost(), (build_wall + stretch_wall) * 1e3)
        }
    };
    let within_bounds = stretch.disconnected_pairs == 0
        && max_degree_increase <= degree_bound
        && stretch.max_stretch <= stretch_bound;
    if !faulty {
        assert_eq!(
            stretch.disconnected_pairs, 0,
            "surviving pair unreachable in the healed graph"
        );
        assert!(
            max_degree_increase <= degree_bound,
            "degree increase {max_degree_increase} exceeds the O(log n) bound {degree_bound}"
        );
        assert!(
            stretch.max_stretch <= stretch_bound,
            "stretch {} exceeds the O(log n) bound {stretch_bound}",
            stretch.max_stretch
        );
    }

    let ledger = dist.ledger();
    let cost = dist.network().costs();
    assert_eq!(
        cost.messages_delivered,
        ledger.delivered(),
        "operation-cost delivery counter diverged from the ledger"
    );
    let report = campaign.report();
    GraphStressRecord {
        waves: report.waves,
        insertions: report.insertions,
        deletions: report.deletions,
        rounds: report.rounds,
        live_remaining: dist.len(),
        elapsed_secs: elapsed,
        wall_ms: elapsed * 1e3,
        stretch_wall_ms,
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
        stretch_mode: if cfg.stretch_mode == "full" {
            String::from("full")
        } else {
            String::from("incremental")
        },
        stretch_modes_agree,
        cost,
        stretch_cost,
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                stretch_mode: "both".into(),
                faults: "none".into(),
                ..GraphStressConfig::default()
            };
            let rec = run_graph_stress(&cfg);
            assert_eq!(rec.insertions + rec.deletions, 80, "{planner}");
            assert!(rec.insertions > 0, "{planner} inserted");
            assert!(rec.balanced && rec.within_bounds && rec.converged);
            assert!(rec.joins > 0, "join notices on the books");
            assert_eq!(rec.total_messages, rec.delivered + rec.notices + rec.joins);
            assert!(rec.stretch.max_stretch >= 1.0);
            assert!(rec.stretch_modes_agree, "{planner} oracle agreement");
            assert_eq!(rec.cost.messages_delivered, rec.delivered);
            assert_eq!(rec.cost.messages_sent, rec.sent);
            assert!(!rec.stretch_cost.is_zero(), "stretch work was charged");
        }
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
            stretch_mode: "both".into(),
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
            stretch_mode: "incremental".into(),
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
        assert!(json.contains("\"stretch_mode\": \"incremental\""));
        assert!(json.contains("\"stretch_modes_agree\": true"));
        assert!(json.contains("\"cost_messages_delivered\""));
        assert!(json.contains("\"stretch_node_visits\""));
        assert!(json.contains("\"faults\": \"none\""));
        assert!(json.contains("\"wills_ok\": true"));
        assert!(json.contains("\"connected\": true"));
        assert_eq!(json.matches(':').count(), 56, "56 fields");
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
            stretch_mode: "incremental".into(),
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
}
