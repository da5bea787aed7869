//! Adversary tournament: every deletion strategy attacks the Forgiving
//! Tree on every workload; the guarantees must survive them all.
//!
//! ```sh
//! cargo run --release --example adversarial_duel
//! ```

use forgiving_tree::prelude::*;

fn main() {
    use PlannerKind::{DiameterGreedy, HeirHunter, MaxDegree, MinDegree, Random, RootAttack};
    let mut table = Table::new(
        "adversarial duel: Forgiving Tree vs every strategy (n≈128, full deletion)",
        &[
            "workload",
            "adversary",
            "stretch",
            "deg inc",
            "worst node msgs",
            "ok",
        ],
    );
    for w in Workload::suite(128) {
        for adversary in [
            Random,
            MaxDegree,
            MinDegree,
            RootAttack,
            HeirHunter,
            DiameterGreedy,
        ] {
            let graph = w.graph();
            let mut s = Series::new(&graph, 4);
            let attack = Scenario::attack(Protocol::FORGIVING_TREE, graph, adversary, 1.0, 99);
            run(&attack, |healed, wave| s.observe(healed, wave));
            let ok = s.max_degree_increase <= 3 && s.connected;
            table.push(vec![
                w.name(),
                adversary.name().into(),
                format!("{:.2}", s.max_stretch()),
                format!("+{}", s.max_degree_increase),
                s.worst_node_messages.to_string(),
                ok.to_string(),
            ]);
            assert!(ok, "guarantee broken: {} vs {}", w.name(), adversary.name());
        }
    }
    table.print();
    println!("\nno adversary breaks the +3 degree bound or disconnects the network");
}
