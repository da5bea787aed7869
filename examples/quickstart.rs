//! Quickstart: arm a Forgiving Tree, let an adversary hammer it, and watch
//! the guarantees hold.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use forgiving_tree::core::ft_diameter_bound;
use forgiving_tree::prelude::*;

fn main() {
    // A complete 4-ary tree of 341 peers; node 0 is the root.
    let graph = gen::kary_tree(341, 4);
    let tree = RootedTree::from_tree_graph(&graph, NodeId(0));
    println!(
        "network: n={}, Δ={}, diameter={}",
        graph.len(),
        graph.max_degree(),
        forgiving_tree::graph::bfs::diameter_exact(&graph).expect("connected")
    );

    // one message-passing processor per peer
    let mut ft = DistributedForgivingTree::new(&tree);
    let budget = ft_diameter_bound(tree.height(), tree.max_degree());
    println!("diameter budget (Theorem 1.2): {budget}");

    // The omniscient adversary deletes the current max-degree node, every
    // round, until half the network is gone.
    let mut deleted = 0;
    while deleted < 170 {
        let victim = ft
            .graph()
            .nodes()
            .max_by_key(|&v| ft.graph().degree(v))
            .expect("nodes remain");
        let report = ft.delete(victim);
        deleted += 1;
        if deleted % 34 == 0 {
            let d = forgiving_tree::graph::bfs::diameter_exact(ft.graph()).expect("connected");
            println!(
                "after {deleted:3} deletions: alive={}, diameter={d}, max deg inc=+{}, last heal: {} msgs ({} max/node)",
                ft.len(),
                ft.graph().max_degree_increase_over(&graph),
                report.messages, report.max_per_node
            );
        }
    }

    // The paper's guarantees, checked live:
    assert!(ft.graph().is_connected(), "never disconnects");
    assert!(
        ft.graph().max_degree_increase_over(&graph) <= 3,
        "Theorem 1.1"
    );
    let d = forgiving_tree::graph::bfs::diameter_exact(ft.graph()).expect("connected");
    assert!(d <= budget, "Theorem 1.2");
    println!("\nall invariants hold after {deleted} adversarial deletions ✔");
}
