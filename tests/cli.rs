//! `ftree` argument handling: an unknown flag or an out-of-range value is
//! an error (exit 2), never a panic or a silent run on default settings.
//! A campaign that failed a verdict exits 1, not with a panic.

use std::process::{Command, Output};

/// Runs `ftree` with the whitespace-separated `args` plus `extra`.
fn run(args: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ftree"))
        .args(args.split_whitespace())
        .args(extra)
        .output()
        .expect("ftree runs")
}

/// Runs `ftree` like [`run`] and returns its exit code.
fn ftree(args: &str, extra: &[&str]) -> i32 {
    run(args, extra)
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
        "stress --model graph --nodes 300 --stretch full",
    ] {
        assert_eq!(ftree(args, &[]), 2, "{args}");
    }
}

#[test]
fn unknown_names_are_rejected_and_echoed() {
    // names are parsed once, here: the library takes typed values only
    for (args, bad) in [
        ("stress --model tree --planner nope", "nope"),
        ("stress --model tree --planner mixed", "mixed"),
        ("stress --model graph --planner nope", "nope"),
        ("stress --model graph --planner heavy-tail", "heavy-tail"),
        ("stress --cadence per-round", "per-round"),
        ("stress --faults loss+bogus", "loss+bogus"),
        ("stress --model graph --faults bogus", "bogus"),
    ] {
        let o = run(args, &[]);
        assert_eq!(o.status.code(), Some(2), "{args}");
        let stderr = String::from_utf8(o.stderr).expect("utf-8 stderr");
        assert!(stderr.contains(bad), "{args}: stderr lacks {bad}: {stderr}");
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
fn fault_free_per_wave_disconnection_is_a_failed_verdict() {
    // a wave strikes before recovery runs, so a victim's will-holders can
    // die with it: at this size and seed the healed tree ends disconnected,
    // which once panicked the harness (exit 101)
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_per_wave.json");
    let out_str = out.to_str().expect("utf-8 temp path");
    if out.exists() {
        std::fs::remove_file(&out).expect("an earlier run's record is removable");
    }
    let o = run(
        "stress --nodes 5000 --cadence per-wave --seed 42 --out",
        &[out_str],
    );
    assert_eq!(o.status.code(), Some(1));
    let stderr = String::from_utf8(o.stderr).expect("utf-8 stderr");
    assert_eq!(
        stderr.trim_end(),
        "verdict failed: connected (fault-free per-wave campaign)"
    );
    assert!(!out.exists(), "a failed campaign writes no record");
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
fn clamped_arity_and_wave_are_rejected() {
    // the harnesses ran these as `--arity 2`, `--wave 1` and `--sources 1`,
    // yet the record echoed the values given (or, for `--sources`, a value
    // that was never asked for)
    for args in [
        "stress --nodes 300 --deletions 10 --arity 1",
        "stress --nodes 300 --deletions 10 --arity 0",
        "stress --nodes 300 --deletions 10 --wave 0",
        "stress --model graph --nodes 300 --events 10 --wave 0",
        "stress --model graph --nodes 300 --events 10 --sources 0",
        "faults --nodes 100 --wave 0",
    ] {
        assert_eq!(ftree(args, &[]), 2, "{args}");
    }
}

#[test]
fn empty_workloads_and_bad_fractions_are_rejected() {
    // the zero-size workloads once panicked in the generators or in
    // `RootedTree`; a fraction outside [0, 1] ran as 0 or 1 deletions' worth;
    // a graph campaign on two nodes planned nothing yet reported success
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
        "stress --model graph --nodes 2 --events 5",
        "faults --nodes 2",
    ] {
        assert_eq!(ftree(args, &[]), 2, "{args}");
    }
}

#[test]
fn reproduce_rejects_unknown_flags() {
    assert_eq!(ftree("reproduce --nodes 5", &[]), 2);
}

#[test]
fn cost_and_fault_records_match_the_committed_ones() {
    // the only committed pins on the tree protocol's fault-skip paths (the
    // tree × loss/crash/chaos cells): any diff means a figure moved
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (cmd, record) in [
        ("costs", "BENCH_costs.json"),
        ("faults", "BENCH_faults.json"),
    ] {
        let out = tmp.join(format!("cli_{record}"));
        let out_str = out.to_str().expect("utf-8 temp path");
        assert_eq!(ftree(&format!("{cmd} --out"), &[out_str]), 0, "{cmd}");
        let fresh = std::fs::read_to_string(&out).expect("the record was written");
        let committed = std::fs::read_to_string(root.join(record)).expect("committed record");
        assert!(
            fresh == committed,
            "`ftree {cmd}` no longer matches {record}"
        );
    }
}
