//! Replays Figure 5 of the paper turn by turn, printing the virtual tree
//! (helpers, ready heirs) and the real healed network as Graphviz DOT after
//! every turn. The spec engine draws the virtual tree; the distributed
//! protocol heals alongside it and reports each heal's rounds and messages.
//!
//! ```sh
//! cargo run --example figure5_walkthrough
//! ```

use forgiving_tree::core::spec::ForgivingTree;
use forgiving_tree::prelude::*;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn main() {
    // IDs for the figure's names: r=0, p=1, v=2, i=3, j=4, k=5,
    // a..h = 10..17 (children of v), m,n,o = 20..22 (children of h=17).
    let mut pairs: Vec<(NodeId, NodeId)> = vec![
        (n(1), n(0)),
        (n(2), n(1)),
        (n(3), n(1)),
        (n(4), n(1)),
        (n(5), n(1)),
    ];
    pairs.extend((10..=17).map(|c| (n(c), n(2))));
    pairs.extend((20..=22).map(|c| (n(c), n(17))));
    let tree = RootedTree::from_parent_pairs(n(0), &pairs);

    let mut ft = ForgivingTree::new(&tree);
    let mut dft = DistributedForgivingTree::new(&tree);
    println!(
        "initial tree ({} nodes):\n{}",
        tree.len(),
        tree.to_graph().to_dot("initial")
    );

    let turns: [(u32, &str); 4] = [
        (2, "Turn 1: adversary deletes v — children a..h take over RT(v); h becomes a ready heir under p"),
        (1, "Turn 2: adversary deletes p — h is bypassed and takes v's helper slot in RT(p); d attaches to i"),
        (13, "Turn 3: adversary deletes d (leaf) — the redundant helper is short-circuited"),
        (17, "Turn 4: adversary deletes h — its heir o takes over h's helper role"),
    ];
    for (victim, caption) in turns {
        println!("\n=== {caption} ===");
        let added = ft.delete(n(victim));
        let report = dft.delete(n(victim));
        ft.validate();
        assert_eq!(
            ft.graph(),
            dft.graph(),
            "spec and distributed engines agree"
        );
        println!(
            "heal: {} edges added; {} rounds, {} msgs, at most {} per node",
            added.len(),
            report.rounds,
            report.messages,
            report.max_per_node
        );
        println!("virtual tree:\n{}", ft.virtual_dot());
        println!("healed network:\n{}", ft.graph().to_dot("healed"));
    }
    println!(
        "final: connected={}, max degree increase=+{} (paper: ≤ 3)",
        ft.graph().is_connected(),
        ft.max_degree_increase()
    );
}
