//! Differential properties for the incremental stretch tracker: driven
//! through the real distributed Forgiving Graph engine (journal and all),
//! fault-free and under the `chaos` fault plan, its figures must match the
//! full re-sweep oracle after every wave — plus a seeded regression
//! pinning the 10⁴-node campaign's headline figures against silent drift.

use ft_adversary::PlannerKind;
use ft_adversary::{make_churn_planner, AdversaryView};
use ft_core::DistributedForgivingGraph;
use ft_graph::gen;
use ft_metrics::{
    measure_stretch_full, run, Events, Faults, Initial, Protocol, Scenario, StressRecord,
    StretchTracker,
};
use ft_sim::{Campaign, CampaignConfig, FaultConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs a mixed-churn campaign under the named fault model with the
/// tracker riding the engine's churn journal, checking tracker-vs-oracle
/// figure equality after every wave. Returns the largest number of
/// disconnected pairs any wave's report showed.
fn drive_and_compare(
    n: usize,
    seed: u64,
    insert_pct: u8,
    events: usize,
    k: usize,
    faults: &str,
) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = gen::gnp_connected(n, 2.0 / n as f64, &mut rng);
    let mut dist = DistributedForgivingGraph::new(&g);
    let fault_cfg = FaultConfig::from_name(faults).expect("known fault model");
    if !fault_cfg.is_zero() {
        dist.network_mut()
            .set_fault_plan(Some(fault_cfg.plan(seed)));
    }
    let mut planner = make_churn_planner("mixed", seed, f64::from(insert_pct) / 100.0)
        .expect("mixed planner exists");
    let mut campaign = Campaign::new(CampaignConfig::default());
    dist.network_mut().set_churn_journal(true);
    let mut tracker = StretchTracker::new(dist.graph(), dist.pristine(), k, seed);
    let mut remaining = events;
    let mut wave = 0usize;
    let mut most_disconnected = 0;
    while remaining > 0 && dist.len() > 2 {
        let plan = planner.plan(
            AdversaryView {
                graph: dist.graph(),
                ft: None,
            },
            remaining.min(6),
        );
        if plan.is_empty() {
            break;
        }
        remaining -= plan.len();
        dist.run_wave(&mut campaign, &plan);
        let journal = dist.network_mut().drain_churn_journal();
        tracker.apply_wave(dist.graph(), dist.pristine(), &journal);
        let inc = tracker.report(dist.graph());
        let (full, _) = measure_stretch_full(dist.graph(), dist.pristine(), k, seed);
        assert_eq!(inc, full, "tracker diverged from oracle, wave {wave}");
        most_disconnected = most_disconnected.max(inc.disconnected_pairs);
        wave += 1;
    }
    assert!(wave > 0, "campaign ran at least one wave");
    most_disconnected
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn incremental_matches_full_oracle_under_engine_churn(
        seed in 0u64..10_000,
        n in 30usize..110,
        insert_pct in 15u8..70,
        events in 12usize..48,
        k in 4usize..12,
    ) {
        drive_and_compare(n, seed, insert_pct, events, k, "none");
    }

    /// Lost, delayed and partitioned heal mail can leave the healed graph
    /// split, so whole components are carved away from a source (and
    /// relabelled if a later heal reconnects them).
    #[test]
    fn incremental_matches_full_oracle_under_chaos_faults(
        seed in 0u64..10_000,
        n in 30usize..110,
        insert_pct in 15u8..70,
        events in 24usize..64,
        k in 4usize..12,
    ) {
        drive_and_compare(n, seed, insert_pct, events, k, "chaos");
    }
}

/// Seeded 10⁴-node regression: the exact figures of one fixed campaign.
/// These values were recorded from the first run of this configuration;
/// any change means the engine, the sampler, or the tracker stopped being
/// deterministic (or changed semantics) and must be understood before the
/// pin is moved.
#[test]
fn seeded_regression_pins_ten_thousand_node_figures() {
    let sc = Scenario {
        protocol: Protocol::Graph {
            extra_edges: 0.2,
            insert_fraction: 0.4,
            stretch_sources: 8,
        },
        initial: Initial::Nodes(10_000),
        events: Events::Planned {
            budget: 160,
            wave_size: 20,
            planner: PlannerKind::Mixed,
        },
        faults: Faults::default(),
        seed: 20_260_807,
    };
    let out = run(&sc, |_, _| {});
    let rec = StressRecord::new(sc.clone(), &out);
    let (full, _) = measure_stretch_full(out.healed.graph(), out.healed.pristine(), 8, sc.seed);
    assert_eq!(rec.stretch, full, "tracker agrees with the full sweep");
    assert_eq!(
        (
            rec.report.insertions,
            rec.report.deletions,
            rec.report.waves,
            rec.rounds
        ),
        (71, 89, 8, 320),
        "campaign shape"
    );
    assert_eq!(
        (rec.sent, rec.delivered, rec.notices, rec.joins),
        (1248, 1248, 211, 136),
        "ledger books"
    );
    assert_eq!(
        (
            rec.stretch.sources,
            rec.stretch.pairs,
            rec.stretch.disconnected_pairs
        ),
        (8, 79_820, 0),
        "stretch sample"
    );
    assert_eq!(
        (rec.stretch.max_stretch, rec.stretch.mean_stretch),
        (1.2857142857142858, 0.996356045504747),
        "stretch figures"
    );
    assert_eq!(rec.cost.messages_delivered, 1248, "engine cost spine");
    assert_eq!(rec.stretch_cost.node_visits, 176_526, "tracker repair work");
}

/// A fixed chaos campaign that does split the healed graph, so the faulted
/// proptest's agreement is known to cover disconnected sources.
#[test]
fn chaos_campaign_disconnects_pairs_and_stays_exact() {
    let most = drive_and_compare(80, 0, 40, 48, 8, "chaos");
    assert!(most > 0, "the chaos campaign left every pair connected");
}
