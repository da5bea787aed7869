//! # ft-metrics — experiment harness
//!
//! Uniform machinery for the experiments: named workloads ([`workload`]),
//! a trial runner that drives a healer–adversary pair while recording time
//! series ([`runner`]), plain-text/CSV/markdown tables ([`table`]), the
//! large-scale wave-campaign stress harnesses behind `ftree stress` —
//! deletion-only tree campaigns ([`stress`], `BENCH_sim.json`) and mixed
//! insert/delete Forgiving Graph campaigns ([`graph_stress`],
//! `BENCH_graph.json`) — and the sampled-pair stretch pass that scores
//! healed networks against their pristine baseline ([`stretch`]).
//!
//! Every campaign is one [`Scenario`] value ([`scenario`]): a protocol, an
//! initial graph, planned or explicit churn waves and a parsed fault
//! model. [`run`] drives it through the one wave loop both protocols share
//! and returns an [`Outcome`]: the report, the [`Books`](ft_sim::Books), the verdict
//! inputs and the realised waves, which replay the run as explicit events.
//! The stress records read outcomes, and [`fault_matrix`] sweeps every
//! protocol × fault model scenario into the bounds-survival record behind
//! `ftree faults` (`BENCH_faults.json`).
//!
//! [`claims`] runs the seeded set behind `ftree reproduce` and renders it
//! as `CLAIMS.md`, one row per claim of the two papers.
//!
//! Every `BENCH_*.json` record is written by one [`Record`].

pub mod claims;
pub mod fault_matrix;
pub mod graph_stress;
mod record;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod stress;
pub mod stretch;
pub mod stretch_inc;
pub mod table;
pub mod workload;

pub use fault_matrix::{run_fault_matrix, FaultCell, FaultMatrixConfig, FaultMatrixRecord};
pub use graph_stress::{run_graph_stress, GraphStressConfig, GraphStressRecord};
pub use record::Record;
pub use runner::{run_trial, StepMetrics, Trial, TrialConfig, TrialSummary};
pub use scenario::{run, Events, Faults, Healed, Initial, Outcome, Protocol, Scenario, Verdicts};
pub use stats::log_log_slope;
pub use stress::{run_stress, StressConfig, StressRecord};
pub use stretch::{measure_stretch_full, select_sources, StretchReport};
pub use stretch_inc::{StretchPhaseCosts, StretchTracker};
pub use table::Table;
pub use workload::Workload;
