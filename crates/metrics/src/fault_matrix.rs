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
//! `partition`, `chaos`) it drives a seeded churn campaign and records
//! which bounds held, one [`FaultCell`] per combination, each with a
//! verdict:
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

use crate::graph_stress::{run_graph_stress, GraphStressConfig};
use crate::record::Record;
use crate::stress::{run_tree_campaign, StressConfig};
use ft_core::ft_diameter_bound;
use ft_graph::bfs::diameter_exact;
use ft_graph::tree::RootedTree;
use ft_graph::{gen, NodeId};
use ft_sim::FaultConfig;
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

/// One protocol × fault-model cell of the survival matrix.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultCell {
    /// `tree` (Forgiving Tree) or `graph` (Forgiving Graph).
    pub protocol: &'static str,
    /// Named fault model the cell ran under.
    pub model: &'static str,
    /// Whether the harness panicked (caught — the remaining figures are
    /// zeroed when it did).
    pub panicked: bool,
    /// Every heal quiesced within its round budget.
    pub converged: bool,
    /// The healed graph stayed connected.
    pub connected: bool,
    /// The will audit passed (the tree protocol exposes no audit; its
    /// cells record `true`).
    pub wills_ok: bool,
    /// Degree increase stayed within the theorem bound (≤ 3 for the tree,
    /// `3·⌈log₂ n⌉ + 3` for the graph).
    pub degree_ok: bool,
    /// The distance bound held: healed diameter ≤ `O(D log Δ)` for the
    /// tree, sampled stretch ≤ `⌈log₂ n⌉ + 2` (every pair reachable) for
    /// the graph.
    pub distance_ok: bool,
    /// Ledger: messages handed to the engine.
    pub sent: u64,
    /// Ledger: messages delivered.
    pub delivered: u64,
    /// Ledger: messages dropped on dead endpoints.
    pub dropped: u64,
    /// Ledger: messages destroyed on the wire.
    pub lost: u64,
    /// Ledger: surplus copies minted by duplication.
    pub duplicated: u64,
    /// Ledger: messages that spent extra rounds in the delay queue.
    pub delayed: u64,
    /// Deletions escalated to crash-stops by the plan.
    pub crashes: u64,
    /// FNV-1a fingerprint of the realized fault schedule.
    pub fault_fingerprint: u64,
}

impl FaultCell {
    /// The cell's one-word verdict: `panicked`, `broke` (disconnected),
    /// `degraded` (connected but some audited bound failed), or `held`.
    pub fn verdict(&self) -> &'static str {
        if self.panicked {
            "panicked"
        } else if !self.connected {
            "broke"
        } else if self.converged && self.wills_ok && self.degree_ok && self.distance_ok {
            "held"
        } else {
            "degraded"
        }
    }

    /// Serializes the cell as one flat JSON object.
    pub fn to_json(&self) -> String {
        self.record().inline()
    }

    fn record(&self) -> Record {
        Record::new()
            .str("protocol", self.protocol)
            .str("model", self.model)
            .str("verdict", self.verdict())
            .num("panicked", self.panicked)
            .num("converged", self.converged)
            .num("connected", self.connected)
            .num("wills_ok", self.wills_ok)
            .num("degree_ok", self.degree_ok)
            .num("distance_ok", self.distance_ok)
            .num("sent", self.sent)
            .num("delivered", self.delivered)
            .num("dropped", self.dropped)
            .num("lost", self.lost)
            .num("duplicated", self.duplicated)
            .num("delayed", self.delayed)
            .num("crashes", self.crashes)
            .num("fault_fingerprint", self.fault_fingerprint)
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
                "{:<9} {:<10} {:<10} {:<4} {:<4} {:<5} {:<6} {:<5} {:<7} {}\n",
                c.protocol,
                c.model,
                c.verdict(),
                c.converged,
                c.connected,
                c.wills_ok,
                c.degree_ok,
                c.distance_ok,
                c.crashes,
                c.lost,
            ));
        }
        out
    }
}

/// The Forgiving Tree cell: the tree stress campaign (4-ary tree, random
/// deletion waves) with the named fault model armed, bounds re-measured
/// from the healed graph (the harness keeps no oracle, so degree increase
/// is checked against the paper's `+3` and the diameter against
/// [`ft_diameter_bound`]).
fn run_tree_cell(cfg: &FaultMatrixConfig, model: &'static str) -> FaultCell {
    let (rec, dist) = run_tree_campaign(&StressConfig {
        nodes: cfg.nodes,
        deletions: cfg.events,
        wave_size: cfg.wave_size,
        arity: 4,
        planner: String::from("random"),
        seed: cfg.seed,
        cadence: String::from("per-deletion"),
        faults: String::from(model),
        ..StressConfig::default()
    });
    let pristine = gen::kary_tree(cfg.nodes, 4);
    let tree = RootedTree::from_tree_graph(&pristine, NodeId(0));
    let healed = dist.graph();
    let degree_ok = healed.max_degree_increase_over(&pristine) <= 3;
    // A disconnected graph has no finite diameter; charge it to the
    // distance bound as well as to connectivity.
    let distance_ok = diameter_exact(healed)
        .is_some_and(|d| d <= ft_diameter_bound(tree.height(), tree.max_degree()));
    FaultCell {
        protocol: "tree",
        model,
        converged: rec.converged,
        connected: rec.connected,
        wills_ok: true,
        degree_ok,
        distance_ok,
        sent: rec.sent,
        delivered: rec.delivered,
        dropped: rec.dropped,
        lost: rec.lost,
        duplicated: rec.duplicated,
        delayed: rec.delayed,
        crashes: rec.crashes,
        fault_fingerprint: rec.fault_fingerprint,
        ..FaultCell::default()
    }
}

/// The Forgiving Graph cell: the mixed-churn stress harness with the
/// named fault model armed; its relaxed booleans are the cell's verdict
/// inputs.
fn run_graph_cell(cfg: &FaultMatrixConfig, model: &'static str) -> FaultCell {
    let rec = run_graph_stress(&GraphStressConfig {
        nodes: cfg.nodes,
        events: cfg.events,
        wave_size: cfg.wave_size,
        insert_fraction: 0.4,
        extra_edges: 0.2,
        planner: String::from("mixed"),
        seed: cfg.seed,
        stretch_sources: 8,
        faults: String::from(model),
        ..GraphStressConfig::default()
    });
    let degree_ok = rec.max_degree_increase <= rec.degree_bound;
    let distance_ok =
        rec.stretch.disconnected_pairs == 0 && rec.stretch.max_stretch <= rec.stretch_bound;
    FaultCell {
        protocol: "graph",
        model,
        converged: rec.converged,
        connected: rec.connected,
        wills_ok: rec.wills_ok,
        degree_ok,
        distance_ok,
        sent: rec.sent,
        delivered: rec.delivered,
        dropped: rec.dropped,
        lost: rec.lost,
        duplicated: rec.duplicated,
        delayed: rec.delayed,
        crashes: rec.crashes,
        fault_fingerprint: rec.fault_fingerprint,
        ..FaultCell::default()
    }
}

/// Runs the full protocol × fault-model matrix described by `cfg`.
///
/// Each cell runs inside `catch_unwind`, so a blown-up harness is a
/// recorded `panicked` verdict rather than a lost matrix. The `none`
/// column doubles as the in-matrix control: it must always come back
/// `held` (and does — the fault-free asserts in the underlying harnesses
/// stay armed there).
pub fn run_fault_matrix(cfg: &FaultMatrixConfig) -> FaultMatrixRecord {
    let mut cells = Vec::new();
    for protocol in ["tree", "graph"] {
        for &model in FaultConfig::model_names() {
            let run = || match protocol {
                "tree" => run_tree_cell(cfg, model),
                _ => run_graph_cell(cfg, model),
            };
            let cell = catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| FaultCell {
                protocol,
                model,
                panicked: true,
                ..FaultCell::default()
            });
            cells.push(cell);
        }
    }
    FaultMatrixRecord {
        config: cfg.clone(),
        cells,
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
                        .any(|c| c.protocol == protocol && c.model == model),
                    "missing cell {protocol}/{model}"
                );
            }
        }
    }

    #[test]
    fn fault_free_control_column_holds() {
        let rec = run_fault_matrix(&small());
        for cell in rec.cells.iter().filter(|c| c.model == "none") {
            assert_eq!(cell.verdict(), "held", "{} control cell", cell.protocol);
            assert_eq!(
                (cell.lost, cell.duplicated, cell.delayed, cell.crashes),
                (0, 0, 0, 0),
                "{} control cell realized faults",
                cell.protocol
            );
        }
        // The faulty columns must actually exercise the fault machinery.
        let realized: u64 = rec
            .cells
            .iter()
            .map(|c| c.lost + c.duplicated + c.delayed + c.crashes)
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
