//! Bounds-survival matrix under faults: every protocol × every named
//! fault model, with the theorem bounds downgraded from assertions to
//! measurements (`BENCH_faults.json`).
//!
//! The paper proves its guarantees — connectivity, degree increase ≤ 3
//! (Theorem 1.1) / O(log n) (Forgiving Graph), diameter `O(D log Δ)` /
//! stretch `O(log n)` — for a fault-free synchronous network where the
//! only adversarial act is deletion. [`run_fault_matrix`] asks what
//! survives when the network itself misbehaves: for each protocol
//! (`tree` = Forgiving Tree, `graph` = Forgiving Graph) and each named
//! [`FaultConfig`] model (`none`, `delay`, `loss`, `dup`, `crash`,
//! `partition`, `chaos`) it runs one seeded [`Scenario`] and records which
//! bounds held, one [`FaultCell`] per combination, each with the class of
//! its run's [`Verdicts`]:
//!
//! - `held` — every audited bound survived;
//! - `degraded` — connectivity survived but convergence, a will audit, or
//!   a quantitative bound failed;
//! - `broke` — the healed graph disconnected;
//! - `panicked` — the harness itself blew up (caught; the cell records it).
//!
//! The interesting headline: crash-stop deaths alone (`crash`) leave the
//! tree bounds intact — wills are distributed *before* the fault, so
//! Model 2.1's "last words" survive a node that dies without speaking —
//! while message loss (`loss`, `chaos`) can strand heals half-applied.
//!
//! Every cell is a pure function of the seed (fault schedules are
//! [`FaultPlan`](ft_sim::FaultPlan)-driven, planners are seeded), so the
//! whole matrix replays byte-identically.

#![deny(clippy::as_conversions)]

use crate::record::Record;
use crate::scenario::{run, Events, Faults, Initial, Protocol, Scenario, Verdicts};
use ft_adversary::PlannerKind;
use ft_sim::{Books, FaultConfig, HealCadence};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Matrix parameters: one campaign shape shared by every cell.
#[derive(Clone, Debug)]
pub struct FaultMatrixConfig {
    /// Initial node count per cell.
    pub nodes: usize,
    /// Churn-event budget per cell (deletions for the tree protocol,
    /// mixed insert/delete for the graph protocol).
    pub events: usize,
    /// Events per adversarial wave.
    pub wave_size: usize,
    /// Seed shared by workload, planners, and fault plans.
    pub seed: u64,
}

impl Default for FaultMatrixConfig {
    fn default() -> Self {
        FaultMatrixConfig {
            nodes: 500,
            events: 120,
            wave_size: 10,
            seed: 42,
        }
    }
}

impl FaultMatrixConfig {
    /// Every cell's scenario, protocols outer, models in
    /// [`FaultConfig::model_names`] order: the tree on a 4-ary tree under
    /// random deletion waves, the graph under mixed churn.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let tree = Protocol::Tree {
            arity: 4,
            cadence: HealCadence::PerDeletion,
        };
        let graph = Protocol::Graph {
            extra_edges: 0.2,
            insert_fraction: 0.4,
            stretch_sources: 8,
        };
        let mut scenarios = Vec::new();
        for (protocol, planner) in [(tree, PlannerKind::Random), (graph, PlannerKind::Mixed)] {
            for model in FaultConfig::model_names() {
                scenarios.push(Scenario {
                    protocol: protocol.clone(),
                    initial: Initial::Nodes(self.nodes),
                    events: Events::Planned {
                        budget: self.events,
                        wave_size: self.wave_size,
                        planner,
                    },
                    faults: Faults::named(model).expect("every preset parses"),
                    seed: self.seed,
                });
            }
        }
        scenarios
    }
}

/// One protocol × fault-model cell of the survival matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultCell {
    /// `tree` (Forgiving Tree) or `graph` (Forgiving Graph).
    pub protocol: &'static str,
    /// Named fault model the cell ran under.
    pub model: String,
    /// The run's judgement; `None` when the harness panicked (caught).
    pub verdicts: Option<Verdicts>,
    /// The run's ledger and fault counters (zero when it panicked).
    pub books: Books,
}

impl FaultCell {
    /// The cell's one-word verdict: `panicked`, or its run's
    /// [`Verdicts::class`].
    pub fn verdict(&self) -> &'static str {
        self.verdicts.as_ref().map_or("panicked", Verdicts::class)
    }

    /// The checks the record and the table show, by name; all `false`
    /// when the harness panicked.
    fn flags(&self) -> [(&'static str, bool); 5] {
        let flag = |f: fn(&Verdicts) -> bool| self.verdicts.as_ref().is_some_and(f);
        [
            ("converged", flag(|v| v.converged)),
            ("connected", flag(|v| v.connected)),
            ("wills_ok", flag(|v| v.wills_ok)),
            ("degree_ok", flag(Verdicts::degree_ok)),
            ("distance_ok", flag(Verdicts::distance_ok)),
        ]
    }

    fn record(&self) -> Record {
        let b = &self.books;
        let head = Record::new()
            .str("protocol", self.protocol)
            .str("model", &self.model)
            .str("verdict", self.verdict())
            .num("panicked", self.verdicts.is_none());
        let flags = self.flags().into_iter();
        flags
            .fold(head, |record, (name, flag)| record.num(name, flag))
            .num("sent", b.sent)
            .num("delivered", b.delivered)
            .num("dropped", b.dropped)
            .num("lost", b.lost)
            .num("duplicated", b.duplicated)
            .num("delayed", b.delayed)
            .num("crashes", b.crashes)
            .num("fault_fingerprint", b.fault_fingerprint)
    }
}

/// The whole matrix, emitted as `BENCH_faults.json`.
#[derive(Clone, Debug)]
pub struct FaultMatrixRecord {
    /// Echo of the configuration.
    pub config: FaultMatrixConfig,
    /// One cell per protocol × model, protocols outer, models in
    /// [`FaultConfig::model_names`] order.
    pub cells: Vec<FaultCell>,
}

impl FaultMatrixRecord {
    /// Serializes the record (header + cells array) as JSON.
    pub fn to_json(&self) -> String {
        Record::new()
            .str("bench", "fault_matrix")
            .num("nodes", self.config.nodes)
            .num("events", self.config.events)
            .num("wave_size", self.config.wave_size)
            .num("seed", self.config.seed)
            .rows("cells", self.cells.iter().map(FaultCell::record))
            .render()
    }

    /// Human-readable survival table (one line per cell).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str("protocol  model      verdict    conv conn wills degree dist  crashes lost\n");
        for c in &self.cells {
            out.push_str(&format!(
                "{:<9} {:<10} {:<10}",
                c.protocol,
                c.model,
                c.verdict()
            ));
            // each flag under its column: conv, conn, wills, degree, dist
            for ((_, flag), width) in c.flags().into_iter().zip([4, 4, 5, 6, 5]) {
                out.push_str(&format!(" {flag:<width$}"));
            }
            out.push_str(&format!(" {:<7} {}\n", c.books.crashes, c.books.lost));
        }
        out
    }
}

/// Runs the full protocol × fault-model matrix described by `cfg`, one
/// cell per [`FaultMatrixConfig::scenarios`] entry.
///
/// Each cell runs inside `catch_unwind`, so a blown-up harness is a
/// recorded `panicked` verdict rather than a lost matrix. The `none`
/// column doubles as the in-matrix control: it must always come back
/// `held`, and the tests check that it does (the scenarios record their
/// fault-free verdicts rather than assert them).
pub fn run_fault_matrix(cfg: &FaultMatrixConfig) -> FaultMatrixRecord {
    let cells = cfg.scenarios().into_iter().map(|sc| {
        let out = catch_unwind(AssertUnwindSafe(|| run(&sc, |_, _| {}))).ok();
        FaultCell {
            protocol: sc.protocol.name(),
            model: sc.faults.name,
            books: out.as_ref().map(|o| o.books.clone()).unwrap_or_default(),
            verdicts: out.map(|o| o.verdicts),
        }
    });
    FaultMatrixRecord {
        config: cfg.clone(),
        cells: cells.collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FaultMatrixConfig {
        FaultMatrixConfig {
            nodes: 120,
            events: 30,
            wave_size: 6,
            seed: 7,
        }
    }

    #[test]
    fn matrix_covers_every_protocol_and_model() {
        let rec = run_fault_matrix(&small());
        assert_eq!(rec.cells.len(), 2 * FaultConfig::model_names().len());
        for protocol in ["tree", "graph"] {
            for &model in FaultConfig::model_names() {
                assert!(
                    rec.cells
                        .iter()
                        .any(|c| c.protocol == protocol && c.model == *model),
                    "missing cell {protocol}/{model}"
                );
            }
        }
    }

    #[test]
    fn fault_free_control_column_holds() {
        let rec = run_fault_matrix(&small());
        for cell in rec.cells.iter().filter(|c| c.model == "none") {
            let b = &cell.books;
            assert_eq!(cell.verdict(), "held", "{} control cell", cell.protocol);
            assert_eq!(
                (b.lost, b.duplicated, b.delayed, b.crashes),
                (0, 0, 0, 0),
                "{} control cell realized faults",
                cell.protocol
            );
        }
        // The faulty columns must actually exercise the fault machinery.
        let realized: u64 = rec
            .cells
            .iter()
            .map(|c| c.books.lost + c.books.duplicated + c.books.delayed + c.books.crashes)
            .sum();
        assert!(realized > 0, "no fault ever fired across the matrix");
    }

    #[test]
    fn matrix_replays_byte_identically() {
        let a = run_fault_matrix(&small());
        let b = run_fault_matrix(&small());
        assert_eq!(a.cells, b.cells, "matrix must replay from its seed");
    }

    #[test]
    fn json_shape_is_pinned() {
        let rec = run_fault_matrix(&small());
        let json = rec.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"bench\": \"fault_matrix\""));
        assert!(json.contains("\"protocol\": \"tree\""));
        assert!(json.contains("\"model\": \"chaos\""));
        assert!(json.contains("\"verdict\": \"held\""));
        // 5 header fields + "cells" + 17 fields per cell.
        let expected = 6 + rec.cells.len() * 17;
        assert_eq!(json.matches(':').count(), expected, "pinned field count");
        let table = rec.summary();
        assert!(table.contains("tree") && table.contains("chaos"));
    }
}
