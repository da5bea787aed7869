//! A peer-to-peer overlay surviving a Skype-style cascading outage.
//!
//! The paper's motivation: "on August 15, 2007 the Skype network crashed …
//! due to failures in their self-healing mechanisms". This example builds a
//! power-law overlay (Barabási–Albert), extracts its BFS spanning tree with
//! the *distributed* setup protocol, then lets a hub-targeting adversary
//! simulate the cascade while the Forgiving Tree and the naive healers race.
//!
//! ```sh
//! cargo run --release --example p2p_overlay
//! ```

use forgiving_tree::graph::bfs::diameter_exact;
use forgiving_tree::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2007);
    let overlay = gen::barabasi_albert(1000, 3, &mut rng);
    println!(
        "overlay: n={}, m={}, Δ={}",
        overlay.len(),
        overlay.num_edges(),
        overlay.max_degree()
    );

    // Distributed setup phase: BFS spanning tree from peer 0.
    let setup = distributed_bfs_tree(&overlay, NodeId(0));
    println!(
        "setup: {} rounds (ecc of root), {:.2} msgs/edge",
        setup.rounds, setup.messages_per_edge
    );
    let tree = setup.tree;
    let d0 = diameter_exact(&tree.to_graph()).expect("tree connected");
    println!("spanning tree: Δ={}, diameter={}", tree.max_degree(), d0);

    // The cascade: always kill the highest-degree surviving peer.
    let mut contenders: Vec<Box<dyn SelfHealer>> = vec![
        Box::new(ForgivingHealer::new(&tree)),
        Box::new(LocalHealer::new(LocalRule::Surrogate, tree.to_graph())),
        Box::new(LocalHealer::new(LocalRule::Line, tree.to_graph())),
        Box::new(LocalHealer::new(LocalRule::BinaryTree, tree.to_graph())),
    ];
    println!("\ncascade: deleting the 600 highest-degree peers, one per round\n");
    for healer in &mut contenders {
        let mut adv = HighestDegreeAdversary;
        let mut worst_deg = 0;
        for _ in 0..600 {
            let view = AdversaryView {
                graph: healer.graph(),
                ft: healer.as_forgiving(),
            };
            let Some(v) = adv.next_target(view) else {
                break;
            };
            healer.delete(v);
            worst_deg = worst_deg.max(healer.max_degree_increase());
        }
        let diam = diameter_exact(healer.graph());
        println!(
            "{:>14}: degree inc max +{worst_deg:<4} diameter {:>4}  connected: {}",
            healer.name(),
            diam.map(|d| d.to_string()).unwrap_or_else(|| "∞".into()),
            healer.graph().is_connected()
        );
    }
    println!(
        "\nthe Forgiving Tree keeps every peer's load bounded (+3) and the\n\
         route lengths logarithmic while the naive strategies blow up."
    );
}
