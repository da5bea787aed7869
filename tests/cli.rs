//! `ftree` argument handling: an unknown flag or an out-of-range value is
//! an error (exit 2), never a panic or a silent run on default settings.

use std::process::Command;

/// Runs `ftree` with the whitespace-separated `args` plus `extra`, and
/// returns its exit code.
fn ftree(args: &str, extra: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_ftree"))
        .args(args.split_whitespace())
        .args(extra)
        .output()
        .expect("ftree runs")
        .status
        .code()
        .expect("ftree exits with a code")
}

#[test]
fn misspelt_flag_is_rejected() {
    // `--node` for `--nodes` once ran a 10⁵-node campaign and exited 0
    assert_eq!(ftree("stress --node 300 --deletions 10 --seed 1", &[]), 2);
}

#[test]
fn retired_threads_flag_is_rejected() {
    for args in [
        "stress --nodes 300 --deletions 10 --threads 2",
        "stress --model graph --nodes 300 --threads 2",
        "faults --nodes 100 --threads 2",
    ] {
        assert_eq!(ftree(args, &[]), 2, "{args}");
    }
}

#[test]
fn flag_without_value_is_rejected() {
    assert_eq!(ftree("stress --nodes 300 --seed", &[]), 2);
}

#[test]
fn valid_small_stress_run_succeeds() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_stress.json");
    let out = out.to_str().expect("utf-8 temp path");
    let code = ftree("stress --nodes 300 --deletions 10 --seed 1 --out", &[out]);
    assert_eq!(code, 0);
}

#[test]
fn zero_nodes_is_rejected() {
    // once panicked inside the harness: "root n0 is not alive"
    for args in [
        "stress --nodes 0",
        "stress --model graph --nodes 0",
        "faults --nodes 0",
    ] {
        assert_eq!(ftree(args, &[]), 2, "{args}");
    }
}

#[test]
fn empty_workloads_and_bad_fractions_are_rejected() {
    // the zero-size workloads once panicked in the generators or in
    // `RootedTree`; a fraction outside [0, 1] ran as 0 or 1 deletions' worth
    for args in [
        "attack --workload path:0",
        "attack --workload star:0",
        "attack --workload random:0",
        "attack --workload pref:0",
        "attack --workload kary0:10",
        "attack --workload kary4:0",
        "attack --workload caterpillar:0x3",
        "attack --workload broom:0+5",
        "duel --workload star:0",
        "duel --workload broom:0+5",
        "attack --workload path:8 --fraction -1",
        "attack --workload path:8 --fraction NaN",
        "attack --workload path:8 --fraction 5",
    ] {
        assert_eq!(ftree(args, &[]), 2, "{args}");
    }
}

#[test]
fn reproduce_rejects_unknown_flags() {
    assert_eq!(ftree("reproduce --nodes 5", &[]), 2);
}
