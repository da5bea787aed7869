//! Golden tests for the lint pass: the seeded fixture mini-workspace under
//! `tests/fixtures/` trips every rule exactly once (the six semantic
//! rules through real call-graph shapes: taint across two hops, an
//! uncharged mutation, a dropped CostResult, a panic two frames below
//! `step*`, an unbalanced ledger-book pair, and a hot-path write set that
//! outgrew its committed effect baseline), the CLI maps that to a non-zero
//! exit, `--stale` turns rotten suppressions red, and the *real* workspace
//! lints clean (every remaining finding is covered by a reasoned `allow`
//! marker) with byte-identical JSON and SARIF across consecutive runs.

use ft_lint::{lint_workspace, run_cli};
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn stale_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/stale")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn fixtures_trip_every_rule_exactly_once() {
    let report = lint_workspace(&fixtures_root()).expect("fixture tree is readable");
    let mut got: Vec<(&str, &str, u32)> = report
        .violations
        .iter()
        .map(|f| (f.rule, f.file.as_str(), f.line))
        .collect();
    got.sort_unstable();
    let mut want = vec![
        ("nondeterministic-iteration", "crates/core/src/iter.rs", 2),
        ("malformed-suppression", "crates/core/src/marker.rs", 1),
        ("wall-clock-in-protocol", "crates/sim/src/clock.rs", 2),
        ("unseeded-rng", "crates/sim/src/rng.rs", 2),
        ("lossy-cast-in-accounting", "crates/sim/src/ledger.rs", 2),
        ("panic-in-engine", "crates/sim/src/network.rs", 2),
        (
            "unsafe-without-safety-comment",
            "crates/sim/src/danger.rs",
            2,
        ),
        // the semantic rules, each through a real call-graph shape:
        // taint.rs also mentions HashMap at its source function, so the
        // per-token iteration rule fires there too — by design, the two
        // rules guard different hops of the same contract
        ("nondeterministic-iteration", "crates/sim/src/taint.rs", 3),
        ("determinism-taint", "crates/sim/src/taint.rs", 13),
        ("uncharged-mutation", "crates/sim/src/uncharged.rs", 4),
        ("dropped-cost-result", "crates/sim/src/dropcost.rs", 8),
        ("panic-reachability", "crates/sim/src/deep_panic.rs", 12),
        ("ledger-book-coupling", "crates/sim/src/books.rs", 10),
        // drift.rs: the fixture baseline pins `pairs` only; `surprises`
        // is the unreviewed growth
        ("effects-baseline-drift", "crates/sim/src/drift.rs", 9),
    ];
    want.sort_unstable();
    assert_eq!(got, want, "one violation per rule, nothing extra");
    assert!(report.suppressed.is_empty());
    assert!(report.unused_allows.is_empty());
}

#[test]
fn semantic_findings_carry_witness_chains() {
    let report = lint_workspace(&fixtures_root()).expect("fixture tree is readable");
    let by_rule = |rule: &str| {
        report
            .violations
            .iter()
            .find(|v| v.rule == rule)
            .unwrap_or_else(|| panic!("{rule} finding present"))
    };
    assert!(
        by_rule("determinism-taint")
            .message
            .contains("leaf → mid → top"),
        "taint names its two-hop chain: {}",
        by_rule("determinism-taint").message
    );
    assert!(
        by_rule("panic-reachability")
            .message
            .contains("step_fixture → middle → bottom"),
        "reachability names its call path: {}",
        by_rule("panic-reachability").message
    );
    assert!(
        by_rule("effects-baseline-drift")
            .message
            .contains("{surprises}"),
        "drift names the grown write set: {}",
        by_rule("effects-baseline-drift").message
    );
}

#[test]
fn cli_exits_nonzero_on_fixtures() {
    let args = vec!["--root".to_string(), fixtures_root().display().to_string()];
    assert_eq!(run_cli(&args), 1);
}

#[test]
fn cli_rejects_bad_flags() {
    assert_eq!(run_cli(&["--format".to_string(), "yaml".to_string()]), 2);
    assert_eq!(run_cli(&["--frmt".to_string()]), 2);
}

#[test]
fn stale_allows_fail_only_under_stale_flag() {
    let report = lint_workspace(&stale_root()).expect("stale tree is readable");
    assert!(report.is_clean(), "{}", report.to_human());
    assert_eq!(report.unused_allows.len(), 1);
    let root = stale_root().display().to_string();
    assert_eq!(
        run_cli(&["--root".to_string(), root.clone()]),
        0,
        "stale markers alone never fail a plain run"
    );
    assert_eq!(
        run_cli(&["--root".to_string(), root, "--stale".to_string()]),
        1,
        "--stale turns rot into red"
    );
}

#[test]
fn real_workspace_is_clean() {
    // The acceptance bar for the whole repository: `ftree lint` exits 0,
    // i.e. every remaining finding carries a written-reason suppression.
    let report = lint_workspace(&workspace_root()).expect("workspace readable");
    assert!(
        report.is_clean(),
        "unsuppressed violations:\n{}",
        report.to_human()
    );
    // The suppression ledger itself stays tidy: no stale markers.
    assert!(
        report.unused_allows.is_empty(),
        "stale allow markers: {:?}",
        report.unused_allows
    );
}

#[test]
fn real_workspace_reports_are_byte_identical_across_runs() {
    // The determinism the linter polices, applied to itself: two
    // consecutive passes over the same tree must render byte-identical
    // JSON and SARIF (BTreeMap-keyed call graph, sorted walks, no
    // timestamps).
    let a = lint_workspace(&workspace_root()).expect("workspace readable");
    let b = lint_workspace(&workspace_root()).expect("workspace readable");
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_sarif(), b.to_sarif());
}

#[test]
fn json_report_is_stable_and_tagged() {
    let report = lint_workspace(&fixtures_root()).expect("fixture tree is readable");
    let json = report.to_json();
    assert!(json.contains("\"violation_count\": 14"));
    for rule in ft_lint::RULE_NAMES {
        assert!(json.contains(rule), "rule {rule} missing from JSON report");
    }
}

#[test]
fn sarif_report_localizes_fixture_findings() {
    let report = lint_workspace(&fixtures_root()).expect("fixture tree is readable");
    let sarif = report.to_sarif();
    assert!(sarif.contains("\"ruleId\": \"determinism-taint\""));
    assert!(sarif.contains("\"uri\": \"crates/sim/src/deep_panic.rs\""));
    assert!(sarif.contains("\"startLine\": 12"));
    assert!(sarif.contains("\"level\": \"error\""));
}
