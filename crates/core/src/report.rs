//! Heal transcripts, read from the message-passing engines' ledgers.
//!
//! Theorem 1.3 claims O(1) latency per deletion and O(1) messages *per node*
//! per deletion. Both protocols ([`crate::distributed`] and
//! [`crate::fgraph_dist`]) heal a deletion by running the `ft-sim` network
//! to quiescence, and one shared function reads the [`HealReport`] off the
//! rounds it ran: the simulator's [`ft_sim::MsgLedger`] is the one message
//! count.

use ft_graph::NodeId;
use ft_sim::{Network, Process};

/// What happened while healing one deletion.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealReport {
    /// The node the adversary removed.
    pub deleted: Option<NodeId>,
    /// Deletion notices delivered to the dead node's neighbors (the
    /// model's failure detection).
    pub notified: usize,
    /// Real edges the heal inserted, as `(a, b)` with `a < b`, ascending.
    pub edges_added: Vec<(NodeId, NodeId)>,
    /// Total messages across all nodes, notices included.
    pub total_messages: usize,
    /// The largest load one node carried in one *round* of the heal:
    /// messages it sent and received that round, the worst over the
    /// heal's rounds. It is not the node's total over the whole heal,
    /// which is what Theorem 1.3's "messages per node" bounds and can be
    /// larger.
    pub max_messages_per_node: usize,
    /// Rounds of communication, the notice round included (the recovery
    /// latency).
    pub rounds: u32,
}

/// Deletes `v` from `net` and runs the recovery phase to quiescence within
/// `budget` rounds, reporting the heal from the rounds it ran.
///
/// # Panics
/// Panics if `v` is dead or the protocol fails to quiesce within `budget`.
pub(crate) fn heal<P: Process>(net: &mut Network<P>, v: NodeId, budget: u32) -> HealReport {
    let before = net.graph().clone();
    let notice = net.delete_node(v);
    let ((rounds, merged), _) = net.run_until_quiet(budget);
    let edges_added = net
        .graph()
        .edges()
        .into_iter()
        .filter(|&(a, b)| !before.has_edge(a, b))
        .collect();
    HealReport {
        deleted: Some(v),
        notified: notice.messages,
        edges_added,
        total_messages: notice.messages + merged.messages,
        max_messages_per_node: notice.max_per_node.max(merged.max_per_node),
        rounds: rounds + 1,
    }
}
