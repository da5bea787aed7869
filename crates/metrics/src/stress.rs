//! Scale stress harness: 10⁵-node adversarial campaigns on the distributed
//! Forgiving Tree, and the perf record of both stress harnesses
//! (`BENCH_sim.json`, and `BENCH_graph.json` for [`crate::graph_stress`]).
//!
//! A tree [`Scenario`] builds a k-ary tree workload and [`run`] drives wave
//! after wave of deletions through it until the deletion budget is spent.
//! [`StressRecord::new`] reads the outcome: throughput, the peak per-node
//! round load, the message ledger and the run's [`Verdicts`]. `run`
//! panics if the books do not balance, so a stress run doubles as an
//! end-to-end accounting check in CI; a fault-free run that failed a
//! verdict is named by [`StressRecord::failed_verdict`]. Under a fault
//! model those verdicts are measurements, and the accounting panics never
//! relax.
//!
//! [`StressConfig`] and [`run_stress`] are a thin shim over a scenario.

use crate::record::Record;
use crate::scenario::{run, Events, Faults, Initial, Outcome, Protocol, Scenario, Verdicts};
use crate::stretch::StretchReport;
use ft_adversary::PlannerKind;
use ft_costs::OperationCost;
use ft_sim::{Books, CampaignReport, HealCadence};

/// Stress-campaign parameters, as names.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Initial node count (the paper's `n`).
    pub nodes: usize,
    /// Total deletion budget.
    pub deletions: usize,
    /// Victims per adversarial wave.
    pub wave_size: usize,
    /// Arity of the k-ary tree workload.
    pub arity: usize,
    /// Wave planner: `random`, `targeted`, or `heavy-tail`.
    pub planner: String,
    /// RNG seed for the planner.
    pub seed: u64,
    /// Ignored; kept only because ftbench's sources are frozen.
    pub threads: usize,
    /// Heal cadence: `per-deletion` or `per-wave` (see [`Protocol::Tree`]).
    pub cadence: String,
    /// Named fault model ([`Faults::named`]).
    pub faults: String,
}

impl StressConfig {
    /// The tree scenario this config describes.
    ///
    /// # Panics
    /// Panics on a planner, cadence or fault-model name that does not
    /// parse.
    pub fn scenario(&self) -> Scenario {
        let planner = PlannerKind::from_name(&self.planner).filter(|k| !k.inserts());
        Scenario {
            protocol: Protocol::Tree {
                arity: self.arity,
                cadence: HealCadence::from_name(&self.cadence).expect("a heal cadence"),
            },
            initial: Initial::Nodes(self.nodes),
            events: Events::Planned {
                budget: self.deletions,
                wave_size: self.wave_size,
                planner: planner.expect("a wave planner"),
            },
            faults: Faults::named(&self.faults).expect("a fault model"),
            seed: self.seed,
        }
    }
}

/// Runs the stress campaign described by `cfg`: [`run`] of its
/// [`StressConfig::scenario`].
///
/// # Panics
/// As [`StressConfig::scenario`] and [`run`].
pub fn run_stress(cfg: &StressConfig) -> StressRecord {
    let scenario = cfg.scenario();
    let outcome = run(&scenario, |_, _| {});
    StressRecord::new(scenario, &outcome)
}

/// The perf record of a stress scenario's outcome: `BENCH_sim.json` for
/// the Forgiving Tree, `BENCH_graph.json` for the Forgiving Graph. Its
/// [`Books`] read as the record's own fields (`rec.sent`) through `Deref`;
/// its [`Verdicts`] judge the run.
#[derive(Clone, Debug)]
pub struct StressRecord {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The ledger and fault counters.
    pub books: Books,
    /// The campaign's aggregates: waves, events, rounds, peak round load.
    pub report: CampaignReport,
    /// Engine rounds consumed; echoes `report` for ftbench's frozen sources.
    pub rounds: u64,
    /// Live nodes remaining.
    pub live_remaining: usize,
    /// Wall-clock seconds of the campaign (setup and stretch excluded).
    pub elapsed_secs: f64,
    /// Wall-clock milliseconds of stretch tracking: build, repairs, report.
    pub stretch_wall_ms: f64,
    /// Operation cost of the stretch measurement (graph).
    pub stretch_cost: OperationCost,
    /// The run's judgement.
    pub verdicts: Verdicts,
    /// The sampled stretch pass (graph; zero for the tree). This and the
    /// next two fields echo `verdicts` for ftbench's frozen sources.
    pub stretch: StretchReport,
    /// Whether the will audit passed.
    pub wills_ok: bool,
    /// Whether the healed graph was still connected at the end.
    pub connected: bool,
}

impl std::ops::Deref for StressRecord {
    type Target = Books;

    fn deref(&self) -> &Books {
        &self.books
    }
}

impl StressRecord {
    /// The record of `scenario`'s `outcome`.
    ///
    /// # Panics
    /// Panics for a local rule, which keeps no ledger to record.
    pub fn new(scenario: Scenario, outcome: &Outcome) -> StressRecord {
        let local = matches!(scenario.protocol, Protocol::Local(_));
        assert!(!local, "a local rule keeps no ledger to record");
        let (report, v) = (&outcome.report, &outcome.verdicts);
        let stretch = v.stretch().map(|s| s.0.clone()).unwrap_or_default();
        StressRecord {
            scenario,
            books: outcome.books.clone(),
            report: report.clone(),
            rounds: report.rounds,
            live_remaining: outcome.healed.graph().len(),
            elapsed_secs: outcome.campaign_secs,
            stretch_wall_ms: outcome.stretch_secs * 1e3,
            stretch_cost: outcome.healed.stretch_cost(),
            verdicts: v.clone(),
            stretch,
            wills_ok: v.wills_ok,
            connected: v.connected,
        }
    }

    /// The first verdict a fault-free run failed ([`Verdicts::failed`]);
    /// `None` when all held or when faults were armed, which makes them
    /// measurements.
    pub fn failed_verdict(&self) -> Option<&'static str> {
        let fault_free = self.scenario.faults.config.is_zero();
        self.verdicts.failed().filter(|_| fault_free)
    }

    /// Healed churn events and delivered messages (notices and joins
    /// included) per second.
    pub fn rates(&self) -> (f64, f64) {
        let r = &self.report;
        let (secs, events) = (self.elapsed_secs, r.insertions + r.deletions);
        (events as f64 / secs, self.total_messages as f64 / secs)
    }

    /// Serializes the record as a flat JSON object.
    pub fn to_json(&self) -> String {
        let sc = &self.scenario;
        let (events, wave_size, planner) = sc.events.echo();
        let (events_per_sec, msgs_per_sec) = self.rates();
        let wall_ms = self.elapsed_secs * 1e3;
        let v = &self.verdicts;
        let stretch_bound = v.stretch().map_or(0.0, |s| s.1);
        let record = match sc.protocol {
            Protocol::Tree { arity, cadence } => Record::new()
                .str("bench", "sim_stress")
                .num("nodes", sc.initial.nodes())
                .num("arity", arity)
                .str("planner", planner)
                .str("cadence", cadence.name())
                .num("seed", sc.seed)
                .num("wave_size", wave_size)
                .num("waves", self.report.waves)
                .num("deletions", self.report.deletions)
                .num("rounds", self.rounds)
                .num("live_remaining", self.live_remaining)
                .fixed("elapsed_secs", self.elapsed_secs, 6)
                .fixed("wall_ms", wall_ms, 3)
                .fixed("nodes_per_sec", events_per_sec, 1)
                .fixed("msgs_per_sec", msgs_per_sec, 1)
                .num("peak_per_node_load", self.report.peak_round_load)
                .num("max_per_node_total", self.max_per_node_total)
                .num("sent", self.sent)
                .num("delivered", self.delivered)
                .num("dropped", self.dropped)
                .num("notices", self.notices)
                .num("total_messages", self.total_messages)
                .cost("cost", &self.cost)
                .num("balanced", true)
                .num("converged", v.converged)
                .str("faults", &sc.faults.name),
            Protocol::Graph {
                extra_edges,
                insert_fraction,
                ..
            } => Record::new()
                .str("bench", "graph_stress")
                .num("nodes", sc.initial.nodes())
                .num("events", events)
                .num("wave_size", wave_size)
                .fixed("insert_fraction", insert_fraction, 3)
                .fixed("extra_edges", extra_edges, 3)
                .str("planner", planner)
                .num("seed", sc.seed)
                .num("waves", self.report.waves)
                .num("insertions", self.report.insertions)
                .num("deletions", self.report.deletions)
                .num("rounds", self.rounds)
                .num("live_remaining", self.live_remaining)
                .fixed("elapsed_secs", self.elapsed_secs, 6)
                .fixed("wall_ms", wall_ms, 3)
                .fixed("stretch_wall_ms", self.stretch_wall_ms, 3)
                .fixed("events_per_sec", events_per_sec, 1)
                .fixed("msgs_per_sec", msgs_per_sec, 1)
                .num("peak_per_node_load", self.report.peak_round_load)
                .num("max_per_node_total", self.max_per_node_total)
                .num("sent", self.sent)
                .num("delivered", self.delivered)
                .num("dropped", self.dropped)
                .num("notices", self.notices)
                .num("joins", self.joins)
                .num("total_messages", self.total_messages)
                .num("max_degree_increase", v.max_degree_increase)
                .num("degree_bound", v.degree_bound)
                .num("stretch_sources", self.stretch.sources)
                .num("stretch_pairs", self.stretch.pairs)
                .fixed("max_stretch", self.stretch.max_stretch, 4)
                .fixed("mean_stretch", self.stretch.mean_stretch, 4)
                .fixed("stretch_bound", stretch_bound, 1)
                .cost("cost", &self.cost)
                .num("stretch_node_visits", self.stretch_cost.node_visits)
                .num("stretch_edge_scans", self.stretch_cost.edge_scans)
                .num("stretch_heap_bytes", self.stretch_cost.heap_bytes)
                .num("stretch_seeks", self.stretch_cost.seeks)
                .num("balanced", true)
                .num("within_bounds", v.degree_ok() && v.distance_ok())
                .num("converged", v.converged)
                .str("faults", &sc.faults.name)
                .num("wills_ok", v.wills_ok),
            Protocol::Local(_) => unreachable!("a stress record is never local"),
        };
        record
            .num("lost", self.lost)
            .num("duplicated", self.duplicated)
            .num("delayed", self.delayed)
            .num("crashes", self.crashes)
            .num("fault_fingerprint", self.fault_fingerprint)
            .num("connected", v.connected)
            .render()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let (events_per_sec, msgs_per_sec) = self.rates();
        let (nodes, planner) = (self.scenario.initial.nodes(), self.scenario.events.echo().2);
        let secs = self.elapsed_secs;
        match self.scenario.protocol {
            Protocol::Tree { .. } | Protocol::Local(_) => format!(
                "{} deletions over {} waves on n={nodes} ({planner} planner): \
                 {secs:.2}s, {events_per_sec:.0} deletions/s, {msgs_per_sec:.0} msgs/s, \
                 peak node load {}, books balanced",
                self.report.deletions, self.report.waves, self.report.peak_round_load,
            ),
            Protocol::Graph { .. } => format!(
                "{} inserts + {} deletes over {} waves on n={nodes} ({planner} planner): \
                 {secs:.2}s, {events_per_sec:.0} events/s, {msgs_per_sec:.0} msgs/s, \
                 max stretch {:.2} (bound {:.0}), max degree +{} (bound {}), books balanced",
                self.report.insertions,
                self.report.deletions,
                self.report.waves,
                self.stretch.max_stretch,
                self.verdicts.stretch().map_or(0.0, |s| s.1),
                self.verdicts.max_degree_increase,
                self.verdicts.degree_bound,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Distance;

    /// A fault-free per-deletion scenario on a 4-ary tree.
    fn tree(
        nodes: usize,
        deletions: usize,
        wave: usize,
        planner: PlannerKind,
        seed: u64,
    ) -> Scenario {
        Scenario {
            protocol: Protocol::Tree {
                arity: 4,
                cadence: HealCadence::PerDeletion,
            },
            initial: Initial::Nodes(nodes),
            events: Events::Planned {
                budget: deletions,
                wave_size: wave,
                planner,
            },
            faults: Faults::default(),
            seed,
        }
    }

    fn faults(name: &str) -> Faults {
        Faults::named(name).expect("a fault model")
    }

    fn record(scenario: Scenario) -> StressRecord {
        let outcome = run(&scenario, |_, _| {});
        StressRecord::new(scenario, &outcome)
    }

    #[test]
    fn smoke_scale_campaign_balances() {
        for planner in [
            PlannerKind::Random,
            PlannerKind::Targeted,
            PlannerKind::HeavyTail,
        ] {
            let rec = record(tree(300, 60, 7, planner, 1));
            assert_eq!(rec.report.deletions, 60, "{planner:?}");
            assert!(rec.verdicts.converged);
            assert_eq!(rec.failed_verdict(), None, "{planner:?}");
            assert_eq!(rec.live_remaining, 240);
            assert_eq!(rec.total_messages, rec.delivered + rec.notices);
            assert!(rec.report.peak_round_load > 0);
            assert_eq!(rec.cost.messages_delivered, rec.delivered);
            assert_eq!(rec.cost.messages_sent, rec.sent);
            assert!(rec.cost.node_visits > 0 && rec.cost.seeks > 0);
        }
    }

    /// The tree's twin of the graph's `failed_verdicts_are_named_in_order`:
    /// a fault-free tree run is also judged on Theorem 1.1's degree bound
    /// and Theorem 1.2's diameter bound, and each failure is named.
    #[test]
    fn tree_failed_verdicts_are_named_in_order() {
        let mut rec = record(tree(300, 60, 7, PlannerKind::Random, 1));
        assert_eq!(rec.verdicts.class(), "held");
        type Flip = (fn(&mut Verdicts), &'static str);
        let flips: [Flip; 5] = [
            (|v| v.distance = Distance::Diameter(false), "diameter_bound"),
            (
                |v| v.max_degree_increase = v.degree_bound + 1,
                "degree_bound",
            ),
            (|v| v.connected = false, "connected"),
            (|v| v.wills_ok = false, "wills_ok"),
            (|v| v.converged = false, "converged"),
        ];
        for (flip, name) in flips {
            flip(&mut rec.verdicts);
            assert_eq!(rec.failed_verdict(), Some(name));
            let class = if name == "diameter_bound" || name == "degree_bound" {
                "degraded"
            } else {
                "broke"
            };
            assert_eq!(rec.verdicts.class(), class, "{name}");
        }
        rec.scenario.faults = faults("dup");
        assert_eq!(rec.failed_verdict(), None);
    }

    /// The acceptance property at harness level: a second run of the same
    /// seed produces identical campaign figures and ledger books.
    #[test]
    fn campaign_record_replays_identically() {
        let sc = tree(600, 120, 12, PlannerKind::HeavyTail, 9);
        let rec1 = record(sc.clone());
        let rec2 = record(sc);
        let fingerprint = |r: &StressRecord| {
            (
                r.report.waves,
                r.report.deletions,
                r.rounds,
                r.live_remaining,
                r.report.peak_round_load,
                r.max_per_node_total,
                r.sent,
                r.delivered,
                r.dropped,
                r.notices,
                r.total_messages,
            )
        };
        assert_eq!(fingerprint(&rec1), fingerprint(&rec2));
        assert_eq!(rec1.cost, rec2.cost, "engine costs bit-identical");
    }

    #[test]
    fn json_record_is_well_formed_enough() {
        let rec = record(Scenario {
            protocol: Protocol::Tree {
                arity: 3,
                cadence: HealCadence::PerDeletion,
            },
            ..tree(50, 10, 5, PlannerKind::Random, 2)
        });
        let json = rec.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"nodes_per_sec\""));
        assert!(json.contains("\"balanced\": true"));
        assert!(json.contains("\"converged\": true"));
        assert!(json.contains("\"cadence\": \"per-deletion\""));
        assert!(json.contains("\"wall_ms\""));
        assert!(json.contains("\"cost_messages_delivered\""));
        assert!(json.contains("\"cost_seeks\""));
        assert!(json.contains("\"faults\": \"none\""));
        assert!(json.contains("\"lost\": 0"));
        assert!(json.contains("\"connected\": true"));
        assert_eq!(json.matches(':').count(), 37, "37 fields");
    }

    /// Per-wave cadence is the only tree path where a deletion meets a
    /// non-empty mailbox (the wave strikes before any heal runs), and
    /// duplication keeps two copies of some mail in it. Pins the mail
    /// dropped at deletions, the fault schedule and every engine charge.
    #[test]
    fn per_wave_duplication_campaign_is_pinned() {
        let rec = record(Scenario {
            protocol: Protocol::Tree {
                arity: 4,
                cadence: HealCadence::PerWave,
            },
            faults: faults("dup"),
            ..tree(600, 120, 12, PlannerKind::HeavyTail, 1)
        });
        assert_eq!(rec.dropped, 571);
        assert_eq!(rec.fault_fingerprint, 12_362_097_735_668_377_898);
        assert_eq!(
            rec.cost,
            OperationCost {
                messages_sent: 1983,
                messages_delivered: 1513,
                node_visits: 1508,
                edge_scans: 930,
                heap_bytes: 142_776,
                seeks: 1112,
            }
        );
    }

    /// The smallest seeded chaos campaign found where `ReplaceRep` meets a
    /// helper whose only child is the dead owner's stale helper vnode, not
    /// its position: the exact match leaves that child in place, where a
    /// match on the simulator alone would replace it and send two more
    /// messages under the same fault schedule.
    #[test]
    fn chaos_replace_rep_matches_the_position_only() {
        let rec = record(Scenario {
            protocol: Protocol::Tree {
                arity: 2,
                cadence: HealCadence::PerDeletion,
            },
            faults: faults("chaos"),
            ..tree(100, 40, 20, PlannerKind::Random, 12)
        });
        assert_eq!((rec.sent, rec.dropped), (233, 68));
        assert_eq!(rec.fault_fingerprint, 10_330_576_534_655_175_372);
    }

    /// A fault-free per-wave campaign can lose connectivity (a wave kills
    /// will-holders with their owner): the record says so instead of the
    /// harness panicking.
    #[test]
    fn per_wave_disconnection_is_a_recorded_verdict() {
        let rec = record(Scenario {
            protocol: Protocol::Tree {
                arity: 8,
                cadence: HealCadence::PerWave,
            },
            ..tree(5000, 1000, 50, PlannerKind::Random, 42)
        });
        assert!(rec.verdicts.converged && !rec.connected);
        assert_eq!(rec.failed_verdict(), Some("connected"));
        assert!(rec.to_json().contains("\"connected\": false"));
        // under faults the same booleans are measurements, not verdicts
        let dup = record(Scenario {
            faults: faults("dup"),
            ..rec.scenario.clone()
        });
        assert!(!dup.connected);
        assert_eq!(dup.failed_verdict(), None);
    }

    /// A faulty tree campaign still balances its books and reconciles
    /// costs, replays from its seed (fault schedule included), and
    /// the `none` model is byte-identical to not arming a plan at all.
    #[test]
    fn faulty_campaign_balances_and_replays() {
        let base = Scenario {
            faults: faults("loss+crash"),
            ..tree(400, 80, 8, PlannerKind::Random, 17)
        };
        let rec1 = record(base.clone());
        let rec2 = record(base.clone());
        assert!(
            rec1.lost > 0,
            "a 5% loss model over 80 heals must lose mail"
        );
        assert!(rec1.crashes > 0, "a 50% crash model must crash someone");
        assert_ne!(
            rec1.fault_fingerprint,
            ft_graph::hash::FNV_BASIS,
            "realized faults must move the fingerprint off the FNV basis"
        );
        let fp = |r: &StressRecord| {
            (
                (r.report.waves, r.report.deletions, r.rounds),
                (r.sent, r.delivered, r.dropped),
                (r.lost, r.duplicated, r.delayed, r.crashes),
                r.fault_fingerprint,
                (r.verdicts.converged, r.connected),
            )
        };
        assert_eq!(fp(&rec1), fp(&rec2), "faulty record replays");
        assert_eq!(rec1.cost, rec2.cost, "faulty engine costs bit-identical");

        let clean = record(Scenario {
            faults: Faults::default(),
            ..base
        });
        assert_eq!(clean.lost, 0);
        assert_eq!(clean.crashes, 0);
        assert_ne!(fp(&clean), fp(&rec1), "faults must actually change a run");
    }
}
