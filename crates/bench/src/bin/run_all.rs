//! Runs every experiment binary's logic in sequence — the one-shot
//! regeneration of EXPERIMENTS.md. Each binary can also be run
//! individually for faster iteration; the scale campaigns and their
//! `BENCH_sim.json` / `BENCH_graph.json` records come from `ftree stress`.

use std::process::Command;

fn main() {
    let exps = [
        "exp_degree",
        "exp_diameter",
        "exp_messages",
        "exp_lower_bound",
        "exp_baselines",
        "exp_figures",
        "exp_setup",
        "exp_ablation",
        "exp_timeseries",
        "exp_stretch",
    ];
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir").to_path_buf();
    for exp in exps {
        println!("\n########## {exp} ##########");
        // siblings exist when the whole package was built; otherwise fall
        // back to cargo so `cargo run --bin run_all` works standalone
        let sibling = dir.join(exp);
        let status = if sibling.exists() {
            Command::new(&sibling).status()
        } else {
            Command::new("cargo")
                .args(["run", "-p", "ft-bench", "--release", "--bin", exp])
                .status()
        }
        .unwrap_or_else(|e| panic!("failed to launch {exp}: {e}"));
        assert!(status.success(), "{exp} failed");
    }
    println!("\nall experiments completed successfully");
}
