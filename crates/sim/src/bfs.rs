//! Distributed BFS spanning-tree construction — the setup phase.
//!
//! The paper's one-time setup "can be done with latency equal to the
//! diameter of the original network, and, with high probability, each node v
//! sending O(log n) messages along every edge incident to v as in the
//! algorithm due to Cohen \[4\]". Cohen's machinery exists to *elect* a root
//! and estimate sizes without global knowledge; given a designated root our
//! flooding protocol achieves latency = eccentricity(root) with O(1)
//! messages per edge, which the setup experiment (E9) reports alongside the
//! paper's budget.
//!
//! Protocol: the root floods `Wave(d)`; on its first wave a node adopts the
//! sender as parent, replies `Adopt`, and forwards `Wave(d+1)` to its other
//! neighbors. Non-first waves are answered with `Decline` so parents learn
//! their exact child sets.

use crate::network::{Ctx, Network, Process};
use ft_graph::tree::RootedTree;
use ft_graph::{Graph, NodeId};

/// Messages of the BFS setup protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BfsMsg {
    /// "I am at depth `d`; join me."
    Wave(u32),
    /// "You are my parent."
    Adopt,
    /// "I already have a parent."
    Decline,
}

/// One node of the BFS protocol.
#[derive(Debug)]
pub struct BfsNode {
    id: NodeId,
    is_root: bool,
    neighbors: Vec<NodeId>,
    /// Adopted depth, once reached by the wave.
    pub depth: Option<u32>,
    /// Parent in the BFS tree (root: none).
    pub parent: Option<NodeId>,
    /// Confirmed children.
    pub children: Vec<NodeId>,
}

impl Process for BfsNode {
    type Msg = BfsMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, BfsMsg>) {
        if self.is_root {
            self.depth = Some(0);
            for &u in &self.neighbors {
                ctx.send(u, BfsMsg::Wave(0));
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: BfsMsg, ctx: &mut Ctx<'_, BfsMsg>) {
        match msg {
            BfsMsg::Wave(d) => {
                if self.depth.is_none() {
                    self.depth = Some(d + 1);
                    self.parent = Some(from);
                    ctx.send(from, BfsMsg::Adopt);
                    for &u in &self.neighbors {
                        if u != from {
                            ctx.send(u, BfsMsg::Wave(d + 1));
                        }
                    }
                } else {
                    ctx.send(from, BfsMsg::Decline);
                }
            }
            BfsMsg::Adopt => {
                self.children.push(from);
                self.children.sort_unstable();
            }
            BfsMsg::Decline => {}
        }
        let _ = self.id;
    }
}

/// Outcome of the distributed setup phase.
#[derive(Debug)]
pub struct BfsOutcome {
    /// The constructed spanning tree.
    pub tree: RootedTree,
    /// Rounds until quiescence (the setup latency).
    pub rounds: u32,
    /// Total messages exchanged.
    pub messages: usize,
    /// Messages divided by edge count (the paper budgets O(log n) here;
    /// this protocol achieves O(1) because the root is designated).
    pub messages_per_edge: f64,
}

/// Runs the distributed BFS setup over a connected graph.
///
/// # Panics
/// Panics if the graph is disconnected or `root` is dead.
pub fn distributed_bfs_tree(graph: &Graph, root: NodeId) -> BfsOutcome {
    assert!(graph.is_alive(root), "root {root:?} is dead");
    let edges = graph.num_edges();
    let neighbors: std::collections::BTreeMap<NodeId, Vec<NodeId>> = graph
        .nodes()
        .map(|v| (v, graph.neighbors(v).collect()))
        .collect();
    let mut net = Network::new(graph.clone(), |v| BfsNode {
        id: v,
        is_root: v == root,
        neighbors: neighbors[&v].clone(),
        depth: None,
        parent: None,
        children: Vec::new(),
    });
    net.start();
    let ((rounds, _), _) = net.run_until_quiet(graph.len() as u32 + 4);
    let mut pairs = Vec::new();
    for v in net.nodes().collect::<Vec<_>>() {
        let p = net.process(v);
        assert!(
            p.depth.is_some(),
            "graph is disconnected: {v:?} never reached"
        );
        if let Some(par) = p.parent {
            pairs.push((v, par));
        }
    }
    let tree = RootedTree::from_parent_pairs(root, &pairs);
    let messages = net.total_messages();
    BfsOutcome {
        tree,
        rounds,
        messages,
        messages_per_edge: if edges == 0 {
            0.0
        } else {
            messages as f64 / edges as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_graph::bfs::eccentricity;
    use ft_graph::gen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bfs_tree_on_grid_matches_depths() {
        let g = gen::grid(4, 5);
        let out = distributed_bfs_tree(&g, NodeId(0));
        assert_eq!(out.tree.len(), 20);
        let depths = out.tree.depths();
        let dist = ft_graph::bfs::bfs_distances(&g, NodeId(0));
        for (v, d) in depths {
            assert_eq!(d, dist[v], "BFS depth mismatch at {v:?}");
        }
    }

    #[test]
    fn latency_tracks_eccentricity() {
        let g = gen::path(12);
        let ecc = eccentricity(&g, NodeId(0)).expect("connected") as u32;
        let out = distributed_bfs_tree(&g, NodeId(0));
        assert!(
            out.rounds >= ecc && out.rounds <= ecc + 2,
            "rounds {} vs ecc {ecc}",
            out.rounds
        );
    }

    #[test]
    fn messages_per_edge_is_constant() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [30usize, 100, 300] {
            let g = gen::gnp_connected(n, 4.0 / n as f64, &mut rng);
            let out = distributed_bfs_tree(&g, NodeId(0));
            assert!(
                out.messages_per_edge <= 4.0,
                "n={n}: {} msgs/edge",
                out.messages_per_edge
            );
        }
    }

    #[test]
    fn children_lists_are_exact() {
        let g = gen::star(6);
        let out = distributed_bfs_tree(&g, NodeId(0));
        assert_eq!(out.tree.children(NodeId(0)).len(), 5);
        for i in 1..6 {
            assert!(out.tree.is_leaf(NodeId(i)));
        }
    }

    #[test]
    #[should_panic(expected = "never reached")]
    fn disconnected_graph_panics() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        distributed_bfs_tree(&g, NodeId(0));
    }
}
