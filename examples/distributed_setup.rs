//! The full distributed pipeline: BFS setup over a general graph, then the
//! message-level Forgiving Tree protocol healing adversarial deletions,
//! with live message/round accounting (Model 2.1 end to end).
//!
//! ```sh
//! cargo run --release --example distributed_setup
//! ```

use forgiving_tree::graph::bfs::diameter_exact;
use forgiving_tree::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    // A sparse random overlay.
    let mut rng = StdRng::seed_from_u64(5);
    let overlay = gen::gnp_connected(300, 6.0 / 300.0, &mut rng);
    println!(
        "overlay: n={}, m={}, Δ={}",
        overlay.len(),
        overlay.num_edges(),
        overlay.max_degree()
    );

    // Setup phase: distributed BFS from node 0 (latency = ecc(root)).
    let setup = distributed_bfs_tree(&overlay, NodeId(0));
    println!(
        "BFS setup: {} rounds, {} messages ({:.2}/edge)",
        setup.rounds, setup.messages, setup.messages_per_edge
    );

    // Wills are installed; the message-level protocol takes over.
    let mut dft = DistributedForgivingTree::new(&setup.tree);
    let mut order: Vec<NodeId> = setup.tree.nodes().collect();
    order.shuffle(&mut rng);

    let mut worst_rounds = 0;
    let mut worst_node_msgs = 0;
    let mut total_msgs = 0usize;
    let deletions = 250;
    for &v in order.iter().take(deletions) {
        let r = dft.delete(v);
        worst_rounds = worst_rounds.max(r.rounds);
        worst_node_msgs = worst_node_msgs.max(r.max_per_node);
        total_msgs += r.messages;
    }
    println!(
        "{deletions} heals: worst latency {worst_rounds} rounds, worst {worst_node_msgs} msgs at one node, {:.1} msgs/heal mean",
        total_msgs as f64 / deletions as f64
    );
    let d = diameter_exact(dft.graph()).expect("stays connected");
    println!(
        "surviving network: {} peers, diameter {d}, connected: {}",
        dft.len(),
        dft.graph().is_connected()
    );
    assert!(worst_rounds <= 8, "O(1) recovery latency");
    println!("Theorem 1.3 in action: constant rounds and per-node messages ✔");
}
