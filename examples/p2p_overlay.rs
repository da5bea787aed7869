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
    let contenders = [
        ("forgiving-tree", Protocol::FORGIVING_TREE),
        ("surrogate", Protocol::Local(LocalRule::Surrogate)),
        ("line", Protocol::Local(LocalRule::Line)),
        ("binary-tree", Protocol::Local(LocalRule::BinaryTree)),
    ];
    println!("\ncascade: deleting the 600 highest-degree peers, one per round\n");
    for (name, protocol) in contenders {
        let cascade = Scenario {
            events: Events::Planned {
                budget: 600,
                wave_size: 1,
                planner: PlannerKind::MaxDegree,
            },
            ..Scenario::attack(protocol, tree.to_graph(), PlannerKind::MaxDegree, 0.0, 0)
        };
        let mut worst_deg = 0;
        let out = run(&cascade, |healed, _| {
            let increase = healed.graph().max_degree_increase_over(healed.pristine());
            worst_deg = worst_deg.max(increase);
        });
        let healed = out.healed.graph();
        println!(
            "{name:>14}: degree inc max +{worst_deg:<4} diameter {:>4}  connected: {}",
            diameter_exact(healed).map_or_else(|| "∞".into(), |d| d.to_string()),
            healed.is_connected()
        );
    }
    println!(
        "\nthe Forgiving Tree keeps every peer's load bounded (+3) and the\n\
         route lengths logarithmic while the naive strategies blow up."
    );
}
