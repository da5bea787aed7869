//! Seeded fault-injection regression: one fixed 10⁴-node mixed campaign
//! under the chaos fault model, every headline figure pinned — including
//! the FNV-1a fingerprint of the realized fault schedule. The fingerprint
//! folds every Lose/Duplicate/Delay/crash decision in delivery order, so
//! it is the sharpest tripwire the fault axis has: any change to the plan
//! hash, the fate thresholds, the maturation order, or the engine's
//! delivery sequence moves it. A changed pin means the fault axis stopped
//! being deterministic (or changed semantics) and must be understood
//! before the pin is moved.

use ft_adversary::PlannerKind;
use ft_metrics::{run, Events, Faults, Initial, Protocol, Scenario, StressRecord};
use ft_sim::HealCadence;

fn chaos() -> Faults {
    Faults::named("chaos").expect("a fault model")
}

#[test]
fn seeded_regression_pins_faulty_ten_thousand_node_figures() {
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
        faults: chaos(),
        seed: 20_260_807,
    };
    let rec = StressRecord::new(sc.clone(), &run(&sc));
    // The books balance on every faulty run (`run` panics otherwise), and
    // the campaign must have realized faults on every axis.
    assert!(rec.lost > 0, "chaos lost no messages");
    assert!(rec.duplicated > 0, "chaos duplicated no messages");
    assert!(rec.delayed > 0, "chaos delayed no messages");
    assert!(rec.crashes > 0, "chaos crashed no deletions");
    assert_eq!(
        (rec.insertions, rec.deletions, rec.waves, rec.rounds),
        (71, 89, 8, 689),
        "campaign shape"
    );
    assert_eq!(
        (rec.sent, rec.delivered, rec.dropped, rec.notices, rec.joins),
        (1248, 1105, 0, 211, 136),
        "ledger books"
    );
    assert_eq!(
        (rec.lost, rec.duplicated, rec.delayed, rec.crashes),
        (202, 59, 248, 43),
        "fault books"
    );
    assert_eq!(
        rec.fault_fingerprint, 0x460c_7a4e_1b9e_9147,
        "fault-schedule fingerprint"
    );
    assert_eq!(
        (rec.converged, rec.connected, rec.wills_ok),
        (true, true, false),
        "survival verdicts"
    );
    assert_eq!(rec.cost.messages_delivered, 1105, "engine cost spine");
}

/// Tree campaigns under loss+crash that once hit protocol assertions
/// (a leaf-will adopter still busy; a helper short-circuiting mid-build).
/// Lost mail can break those invariants, so the processors must skip the
/// impossible step and let the harness record the damage, not panic.
#[test]
fn tree_degrades_instead_of_panicking_under_loss_and_crash() {
    for (nodes, deletions, seed) in [(2000, 1000, 1), (2000, 1000, 3), (5000, 2500, 42)] {
        let sc = Scenario {
            protocol: Protocol::Tree {
                arity: 8,
                cadence: HealCadence::PerDeletion,
            },
            initial: Initial::Nodes(nodes),
            events: Events::Planned {
                budget: deletions,
                wave_size: 50,
                planner: PlannerKind::Random,
            },
            faults: Faults::named("loss+crash").expect("a fault model"),
            seed,
        };
        // `run` panics on an unbalanced ledger
        let deleted = run(&sc).report.deletions;
        assert_eq!(deleted, deletions, "seed {seed}: campaign cut short");
    }
}
