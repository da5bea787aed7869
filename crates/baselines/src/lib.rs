//! # ft-baselines — the naive heals' cost model
//!
//! A [`LocalHealer`](ft_core::fgraph::LocalHealer) heals each deletion by
//! one [`LocalRule`](ft_core::fgraph::LocalRule) on a centralized graph, so
//! no message is ever sent. [`baseline_report`] states what such a heal
//! would cost a message-passing network, so the naive heals the paper's
//! introduction contrasts (surrogate, line, binary tree, no repair) report
//! in the same units as the protocols' ledgers:
//!
//! ```
//! use ft_baselines::baseline_report;
//! use ft_core::fgraph::{LocalHealer, LocalRule};
//! use ft_graph::{gen, NodeId};
//!
//! let mut line = LocalHealer::new(LocalRule::Line, gen::star(5));
//! let notified = line.graph().degree(NodeId(0));
//! let report = baseline_report(NodeId(0), notified, line.delete(NodeId(0)));
//! // four notices, then two messages for each of the three path edges
//! assert_eq!((report.total_messages, report.rounds), (10, 1));
//! ```

use ft_core::HealReport;
use ft_graph::NodeId;

/// Builds the [`HealReport`] of a local heal of `v` that notified
/// `notified` survivors and added `added` edges. The figures are a cost
/// model, not a ledger: each notified survivor receives one notice, each
/// added edge costs two messages, a node's load is its added edges plus
/// its notice, and the heal takes one round.
pub fn baseline_report(v: NodeId, notified: usize, added: Vec<(NodeId, NodeId)>) -> HealReport {
    let mut ends: Vec<NodeId> = added.iter().flat_map(|&(a, b)| [a, b]).collect();
    ends.sort_unstable();
    let load = ends.chunk_by(|a, b| a == b).map(<[NodeId]>::len).max();
    HealReport {
        deleted: Some(v),
        notified,
        total_messages: notified + 2 * added.len(),
        max_messages_per_node: load.unwrap_or(0) + 1,
        edges_added: added,
        rounds: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::fgraph::{LocalHealer, LocalRule};
    use ft_graph::gen;
    use ft_graph::hash::{fnv1a, FNV_BASIS};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    #[test]
    fn naive_heal_reports_are_pinned() {
        // FNV-1a over every field of every heal report the four naive
        // rules produce while deleting seeded trees down to nothing: the
        // attack, duel and claims figures of the baselines derive from
        // these reports.
        let mut rng = StdRng::seed_from_u64(32);
        let graphs = [
            gen::star(48),
            gen::kary_tree(85, 4),
            gen::random_tree(96, &mut rng),
        ];
        let mut h = FNV_BASIS;
        for g in &graphs {
            let mut order: Vec<NodeId> = g.nodes().collect();
            order.shuffle(&mut rng);
            let rules = [
                LocalRule::NoRepair,
                LocalRule::Surrogate,
                LocalRule::Line,
                LocalRule::BinaryTree,
            ];
            for rule in rules {
                let mut healer = LocalHealer::new(rule, g.clone());
                for &v in &order {
                    let notified = healer.graph().degree(v);
                    let r = baseline_report(v, notified, healer.delete(v));
                    for x in [
                        r.deleted.map_or(u64::MAX, |v| u64::from(v.0)),
                        r.notified as u64,
                        r.total_messages as u64,
                        r.max_messages_per_node as u64,
                        u64::from(r.rounds),
                    ] {
                        h = fnv1a(h, x.to_le_bytes());
                    }
                    for (a, b) in r.edges_added {
                        h = fnv1a(h, (u64::from(a.0) << 32 | u64::from(b.0)).to_le_bytes());
                    }
                }
                assert!(healer.graph().is_empty());
            }
        }
        assert_eq!(h, 0x8eeb_765b_88a5_3bd2, "naive heals drifted: {h:#018x}");
    }
}
