//! Forgiving Graph stress harness: mixed insert/delete campaigns on the
//! distributed engine, recorded as `BENCH_graph.json`.
//!
//! A graph [`Scenario`] builds a connected general graph (a random spanning
//! tree plus random chords) and [`run`] drives wave after wave of churn
//! through it until the event budget is spent. Its [`StressRecord`] adds
//! the sampled stretch against the pristine graph, measured by the
//! incremental [`StretchTracker`](crate::StretchTracker), and the worst
//! degree increase; a fault-free run that failed to converge, failed its
//! will audit, lost connectivity or exceeded either O(log n) bound is named
//! by [`StressRecord::failed_verdict`], so the harness doubles as the
//! end-to-end acceptance check in CI.
//!
//! [`GraphStressConfig`] and [`run_graph_stress`] are a thin shim over a
//! scenario.

use crate::scenario::{run, Events, Faults, Initial, Protocol, Scenario};
use crate::stress::StressRecord;
use ft_adversary::PlannerKind;

/// Graph-model stress-campaign parameters, as names.
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
    /// Ignored; kept only because ftbench's sources are frozen.
    pub threads: usize,
    /// Ignored; kept only because ftbench's sources are frozen.
    pub stretch_mode: String,
    /// Named fault model ([`Faults::named`]).
    pub faults: String,
}

impl GraphStressConfig {
    /// The graph scenario this config describes.
    ///
    /// # Panics
    /// Panics on a planner or fault-model name that does not parse.
    pub fn scenario(&self) -> Scenario {
        let planner = PlannerKind::from_name(&self.planner).filter(|k| k.inserts());
        Scenario {
            protocol: Protocol::Graph {
                extra_edges: self.extra_edges,
                insert_fraction: self.insert_fraction,
                stretch_sources: self.stretch_sources,
            },
            initial: Initial::Nodes(self.nodes),
            events: Events::Planned {
                budget: self.events,
                wave_size: self.wave_size,
                planner: planner.expect("a churn planner"),
            },
            faults: Faults::named(&self.faults).expect("a fault model"),
            seed: self.seed,
        }
    }
}

/// Runs the graph-model stress campaign described by `cfg`: [`run`] of
/// its [`GraphStressConfig::scenario`].
///
/// # Panics
/// As [`GraphStressConfig::scenario`] and [`run`].
pub fn run_graph_stress(cfg: &GraphStressConfig) -> GraphStressRecord {
    let scenario = cfg.scenario();
    let outcome = run(&scenario, |_, _| {});
    StressRecord::new(scenario, &outcome)
}

/// The record [`run_graph_stress`] returns: a [`StressRecord`] of a graph
/// scenario.
pub type GraphStressRecord = StressRecord;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Distance, Outcome, Verdicts};
    use crate::stretch::{measure_stretch_full, StretchReport};

    /// A fault-free mixed-churn graph scenario: 40% insertions, extra
    /// chords for 20% of the nodes.
    fn graph(nodes: usize, events: usize, wave: usize, seed: u64, sources: usize) -> Scenario {
        Scenario {
            protocol: Protocol::Graph {
                extra_edges: 0.2,
                insert_fraction: 0.4,
                stretch_sources: sources,
            },
            initial: Initial::Nodes(nodes),
            events: Events::Planned {
                budget: events,
                wave_size: wave,
                planner: PlannerKind::Mixed,
            },
            faults: Faults::default(),
            seed,
        }
    }

    fn record(scenario: Scenario) -> StressRecord {
        let outcome = run(&scenario, |_, _| {});
        StressRecord::new(scenario, &outcome)
    }

    /// The full-sweep oracle's figures on the campaign's final graphs.
    fn full_sweep(sc: &Scenario, out: &Outcome) -> StretchReport {
        let Protocol::Graph {
            stretch_sources, ..
        } = sc.protocol
        else {
            panic!("a graph scenario")
        };
        let healed = out.healed.graph();
        measure_stretch_full(healed, out.healed.pristine(), stretch_sources, sc.seed).0
    }

    #[test]
    fn smoke_graph_campaign_balances_and_bounds() {
        for planner in [PlannerKind::Mixed, PlannerKind::Surge] {
            let sc = Scenario {
                events: Events::Planned {
                    budget: 80,
                    wave_size: 8,
                    planner,
                },
                ..graph(250, 80, 8, 3, 8)
            };
            let out = run(&sc, |_, _| {});
            let rec = StressRecord::new(sc.clone(), &out);
            assert_eq!(
                rec.report.insertions + rec.report.deletions,
                80,
                "{planner:?}"
            );
            assert!(rec.report.insertions > 0, "{planner:?} inserted");
            assert_eq!(rec.failed_verdict(), None, "{planner:?}");
            assert!(rec.joins > 0, "join notices on the books");
            assert_eq!(rec.total_messages, rec.delivered + rec.notices + rec.joins);
            assert!(rec.stretch.max_stretch >= 1.0);
            assert_eq!(rec.stretch, full_sweep(&sc, &out), "{planner:?} oracle");
            assert_eq!(rec.cost.messages_delivered, rec.delivered);
            assert_eq!(rec.cost.messages_sent, rec.sent);
            assert!(!rec.stretch_cost.is_zero(), "stretch work was charged");
        }
    }

    /// A failed fault-free verdict is recorded, not asserted, and named in
    /// the harness's order; under faults every verdict is a measurement.
    /// A stretch above its bound and an unreachable sampled pair each fail
    /// `stretch_bound`.
    #[test]
    fn failed_verdicts_are_named_in_order() {
        let mut rec = record(graph(60, 20, 5, 2, 4));
        assert_eq!(rec.failed_verdict(), None);
        let fresh = rec.verdicts.clone();
        type Stretched = fn(&mut StretchReport, f64);
        let stretched: [Stretched; 2] = [
            |s, bound| s.max_stretch = bound + 1.0,
            |s, _| s.disconnected_pairs = 1,
        ];
        // each on a fresh judgement; the last one stays for the flips below
        for flip in stretched {
            rec.verdicts = fresh.clone();
            let Distance::Stretch(report, bound) = &mut rec.verdicts.distance else {
                panic!("a graph run samples its stretch")
            };
            flip(report, *bound);
            assert_eq!(rec.failed_verdict(), Some("stretch_bound"));
            assert_eq!(rec.verdicts.class(), "degraded");
        }
        type Flip = (fn(&mut Verdicts), &'static str);
        let flips: [Flip; 4] = [
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
        }
        rec.scenario.faults = Faults::named("dup").expect("a fault model");
        assert_eq!(rec.failed_verdict(), None);
    }

    /// Same seed, second run: every deterministic figure of the record —
    /// campaign, ledger, degree, *and* the floating-point stretch pass —
    /// must be identical.
    #[test]
    fn graph_record_replays_identically() {
        let sc = graph(300, 90, 9, 17, 8);
        let rec1 = record(sc.clone());
        let rec2 = record(sc);
        assert_eq!(
            (
                rec1.report.waves,
                rec1.report.insertions,
                rec1.report.deletions,
                rec1.rounds
            ),
            (
                rec2.report.waves,
                rec2.report.insertions,
                rec2.report.deletions,
                rec2.rounds
            )
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
        assert_eq!(rec1.verdicts, rec2.verdicts);
        assert_eq!(rec1.stretch, rec2.stretch, "stretch pass bit-identical");
        assert_eq!(rec1.cost, rec2.cost, "engine costs bit-identical");
        assert_eq!(
            rec1.stretch_cost, rec2.stretch_cost,
            "stretch costs bit-identical"
        );
    }

    #[test]
    fn graph_json_record_is_well_formed_enough() {
        let rec = record(Scenario {
            protocol: Protocol::Graph {
                extra_edges: 0.1,
                insert_fraction: 0.5,
                stretch_sources: 4,
            },
            ..graph(60, 20, 5, 2, 4)
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
        let base = Scenario {
            faults: Faults::named("chaos").expect("a fault model"),
            ..graph(250, 80, 8, 23, 8)
        };
        let rec1 = record(base.clone());
        let rec2 = record(base);
        assert!(
            rec1.lost + rec1.duplicated + rec1.delayed + rec1.crashes > 0,
            "the chaos model must realize at least one fault"
        );
        let fp = |r: &StressRecord| {
            (
                (
                    r.report.waves,
                    r.report.insertions,
                    r.report.deletions,
                    r.rounds,
                ),
                (r.sent, r.delivered, r.dropped, r.notices, r.joins),
                (r.lost, r.duplicated, r.delayed, r.crashes),
                r.fault_fingerprint,
                r.verdicts.clone(),
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
            let sc = Scenario {
                faults: Faults::named(faults).expect("a fault model"),
                ..graph(2_000, 400, 25, 1, 16)
            };
            let out = run(&sc, |_, _| {});
            let rec = StressRecord::new(sc.clone(), &out);
            assert_eq!(
                rec.report.insertions + rec.report.deletions,
                400,
                "{faults}"
            );
            assert_eq!(rec.stretch, full_sweep(&sc, &out), "{faults}");
        }
    }
}
