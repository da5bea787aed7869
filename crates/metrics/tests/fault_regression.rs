//! Seeded fault-injection regression: one fixed 10⁴-node mixed campaign
//! under the chaos fault model, every headline figure pinned — including
//! the FNV-1a fingerprint of the realized fault schedule. The fingerprint
//! folds every Lose/Duplicate/Delay/crash decision in delivery order, so
//! it is the sharpest tripwire the fault axis has: any change to the plan
//! hash, the fate thresholds, the maturation order, or the engine's
//! delivery sequence moves it. A changed pin means the fault axis stopped
//! being deterministic (or changed semantics) and must be understood
//! before the pin is moved.

use ft_metrics::{run_graph_stress, GraphStressConfig};

#[test]
fn seeded_regression_pins_faulty_ten_thousand_node_figures() {
    let rec = run_graph_stress(&GraphStressConfig {
        nodes: 10_000,
        events: 160,
        wave_size: 20,
        insert_fraction: 0.4,
        extra_edges: 0.2,
        planner: "mixed".into(),
        seed: 20_260_807,
        stretch_sources: 8,
        faults: "chaos".into(),
        ..GraphStressConfig::default()
    });
    // The books must balance on every faulty run — that identity never
    // relaxes — and the campaign must have realized faults on every axis.
    assert!(rec.balanced, "faulty ledger out of balance");
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
    use ft_metrics::{run_stress, StressConfig};
    for (nodes, deletions, seed) in [(2000, 1000, 1), (2000, 1000, 3), (5000, 2500, 42)] {
        let rec = run_stress(&StressConfig {
            nodes,
            deletions,
            seed,
            faults: "loss+crash".into(),
            ..StressConfig::default()
        });
        assert!(rec.balanced, "seed {seed}: faulty ledger out of balance");
        assert_eq!(rec.deletions, deletions, "seed {seed}: campaign cut short");
    }
}
