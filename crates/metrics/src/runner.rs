//! The trial runner: one healer, one adversary, one workload.
//!
//! [`run_trial`] drives the adversary loop of Model 2.1, recording a
//! [`StepMetrics`] time series (diameter measurement can be throttled —
//! exact diameters cost `O(n·m)`) and a [`TrialSummary`] holding the
//! quantities the paper's theorems bound: maximum degree increase
//! (Theorem 1.1) and maximum diameter stretch (Theorem 1.2). Its message
//! figure is the largest load one node carried in one round of any heal,
//! which can be smaller than the per-node messages per heal that
//! Theorem 1.3 bounds.

use ft_adversary::{Adversary, AdversaryView};
use ft_baselines::SelfHealer;
use ft_graph::bfs::diameter_exact;
use std::fmt;

/// Per-measurement snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct StepMetrics {
    /// Deletions performed so far.
    pub deletions: usize,
    /// Live nodes remaining.
    pub alive: usize,
    /// Exact diameter (`None` = not measured this step, or disconnected).
    pub diameter: Option<u32>,
    /// Current max degree increase over the initial network.
    pub max_degree_increase: i64,
}

/// Whole-trial aggregates.
#[derive(Clone, Debug, PartialEq)]
pub struct TrialSummary {
    /// Workload name.
    pub workload: String,
    /// Healer name.
    pub healer: String,
    /// Adversary name.
    pub adversary: String,
    /// Initial node count.
    pub n0: usize,
    /// Initial max degree (Δ).
    pub delta0: usize,
    /// Initial diameter (D).
    pub diam0: u32,
    /// Deletions performed.
    pub deletions: usize,
    /// Max diameter ever observed (measured steps only).
    pub max_diameter: u32,
    /// `max_diameter / diam0` (the paper's diameter stretch).
    pub max_stretch: f64,
    /// Max degree increase ever observed (Theorem 1.1's metric).
    pub max_degree_increase: i64,
    /// The largest load one node carried in one round of any heal
    /// ([`ft_core::HealReport::max_messages_per_node`]); not the node's
    /// total over the heal, which Theorem 1.3 bounds.
    pub worst_node_messages: usize,
    /// Worst total messages in any single heal.
    pub worst_heal_messages: usize,
    /// Whether the network stayed connected at every measured step.
    pub stayed_connected: bool,
}

impl fmt::Display for TrialSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vs {} on {}: stretch {:.2}, deg +{}, worst node msgs {}",
            self.healer,
            self.adversary,
            self.workload,
            self.max_stretch,
            self.max_degree_increase,
            self.worst_node_messages
        )
    }
}

/// A completed trial: time series + summary.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Snapshots at measured steps.
    pub steps: Vec<StepMetrics>,
    /// Aggregates.
    pub summary: TrialSummary,
}

/// Trial parameters.
#[derive(Clone, Debug)]
pub struct TrialConfig {
    /// Workload label for the summary.
    pub workload: String,
    /// Stop after this fraction of the initial nodes is deleted (1.0 =
    /// delete everything, the paper's "up to n rounds").
    pub delete_fraction: f64,
    /// Measure diameter every `k` deletions (1 = every step). Diameter is
    /// the expensive measurement; message/degree metrics are always
    /// recorded.
    pub measure_every: usize,
}

impl Default for TrialConfig {
    fn default() -> Self {
        TrialConfig {
            workload: String::from("unnamed"),
            delete_fraction: 1.0,
            measure_every: 1,
        }
    }
}

/// Runs the adversary loop and returns the trial record.
///
/// # Panics
/// Panics if the adversary names a dead node (a buggy adversary).
pub fn run_trial(
    cfg: &TrialConfig,
    healer: &mut dyn SelfHealer,
    adversary: &mut dyn Adversary,
) -> Trial {
    let n0 = healer.len();
    let delta0 = healer.graph().max_degree();
    let diam0 = diameter_exact(healer.graph()).unwrap_or(0);
    let budget = ((n0 as f64) * cfg.delete_fraction).round() as usize;
    let mut steps = Vec::new();
    let mut max_diameter = diam0;
    let mut max_deg = 0i64;
    let mut worst_node_msgs = 0usize;
    let mut worst_heal_msgs = 0usize;
    let mut stayed_connected = true;
    let mut deletions = 0usize;

    while deletions < budget && !healer.is_empty() {
        let target = {
            let view = AdversaryView {
                graph: healer.graph(),
                ft: healer.as_forgiving(),
            };
            adversary.next_target(view)
        };
        let Some(v) = target else { break };
        let report = healer.delete(v);
        deletions += 1;
        max_deg = max_deg.max(healer.max_degree_increase());
        worst_node_msgs = worst_node_msgs.max(report.max_messages_per_node);
        worst_heal_msgs = worst_heal_msgs.max(report.total_messages);

        let measure = deletions.is_multiple_of(cfg.measure_every.max(1)) || healer.len() <= 1;
        let diameter = if measure && !healer.is_empty() {
            let d = diameter_exact(healer.graph());
            match d {
                Some(d) => {
                    max_diameter = max_diameter.max(d);
                    Some(d)
                }
                None => {
                    stayed_connected = false;
                    None
                }
            }
        } else {
            None
        };
        steps.push(StepMetrics {
            deletions,
            alive: healer.len(),
            diameter,
            max_degree_increase: healer.max_degree_increase(),
        });
    }

    let summary = TrialSummary {
        workload: cfg.workload.clone(),
        healer: healer.name().to_string(),
        adversary: adversary.name().to_string(),
        n0,
        delta0,
        diam0,
        deletions,
        max_diameter,
        max_stretch: if diam0 == 0 {
            1.0
        } else {
            max_diameter as f64 / diam0 as f64
        },
        max_degree_increase: max_deg,
        worst_node_messages: worst_node_msgs,
        worst_heal_messages: worst_heal_msgs,
        stayed_connected,
    };
    Trial { steps, summary }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use ft_adversary::{HighestDegreeAdversary, RandomAdversary};
    use ft_baselines::ForgivingHealer;
    use ft_core::fgraph::{LocalHealer, LocalRule};

    #[test]
    fn full_deletion_trial_on_forgiving_tree() {
        let w = Workload::Kary(31, 2);
        let mut healer = ForgivingHealer::new(&w.tree());
        let mut adv = RandomAdversary::new(3);
        let cfg = TrialConfig {
            workload: w.name(),
            delete_fraction: 1.0,
            measure_every: 1,
        };
        let trial = run_trial(&cfg, &mut healer, &mut adv);
        assert_eq!(trial.summary.deletions, 31);
        assert!(trial.summary.stayed_connected);
        assert!(trial.summary.max_degree_increase <= 3);
        assert_eq!(trial.steps.len(), 31);
        assert_eq!(trial.summary.n0, 31);
    }

    #[test]
    fn partial_deletion_respects_budget() {
        let w = Workload::Path(40);
        let mut healer = LocalHealer::new(LocalRule::Line, w.graph());
        let mut adv = HighestDegreeAdversary;
        let cfg = TrialConfig {
            workload: w.name(),
            delete_fraction: 0.5,
            measure_every: 5,
        };
        let trial = run_trial(&cfg, &mut healer, &mut adv);
        assert_eq!(trial.summary.deletions, 20);
        // measured every 5 deletions (plus possibly the tail)
        assert!(trial.steps.iter().filter(|s| s.diameter.is_some()).count() >= 4);
    }

    #[test]
    fn summary_display_mentions_names() {
        let w = Workload::Star(9);
        let mut healer = ForgivingHealer::new(&w.tree());
        let mut adv = HighestDegreeAdversary;
        let cfg = TrialConfig {
            workload: w.name(),
            ..TrialConfig::default()
        };
        let t = run_trial(&cfg, &mut healer, &mut adv);
        let s = format!("{}", t.summary);
        assert!(s.contains("forgiving-tree"));
        assert!(s.contains("max-degree"));
    }
}
