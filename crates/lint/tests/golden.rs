//! Golden tests: clippy fails the seeded canary with exactly the findings
//! in `rules::EXPECTED`, for the right reasons and identically on every
//! run, while the real workspace passes under the same flags.

use ft_lint::{canary, canary_plain, clippy, line_of, repo_root, rules::EXPECTED, Report};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Where runs over the real workspace build, away from the lock that the
/// `cargo test` running this binary holds on `target/debug`.
fn target_dir() -> String {
    repo_root().join("target/lint-check").display().to_string()
}

fn file_lints(report: &Report) -> BTreeSet<(&str, &str)> {
    report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.lint.as_str()))
        .collect()
}

/// The `[workspace.lints.*]` tables of a manifest, blank lines dropped.
fn lint_tables(manifest: PathBuf) -> Vec<String> {
    let text = std::fs::read_to_string(&manifest)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", manifest.display()));
    let mut inside = false;
    let mut lines = Vec::new();
    for line in text.lines() {
        if line.starts_with('[') {
            inside = line.starts_with("[workspace.lints.");
        }
        if inside && !line.trim().is_empty() && !line.starts_with('#') {
            lines.push(line.to_string());
        }
    }
    lines
}

#[test]
fn fixtures_trip_every_rule_exactly_once() {
    let report = canary();
    let want: BTreeSet<(&str, &str)> = EXPECTED.iter().map(|&(_, f, l)| (f, l)).collect();
    assert_eq!(want.len(), EXPECTED.len(), "EXPECTED repeats a row");
    assert_eq!(
        file_lints(report),
        want,
        "\n{}{}",
        report.render(),
        report.stderr
    );
}

#[test]
fn canary_copies_the_workspace_lint_tables() {
    let root = lint_tables(repo_root().join("Cargo.toml"));
    assert!(root.len() > 2, "no [workspace.lints] tables found");
    assert_eq!(root, lint_tables(ft_lint::canary_root().join("Cargo.toml")));
}

#[test]
fn cli_exits_nonzero_on_fixtures() {
    assert!(!canary().success);
    assert!(
        !canary_plain().success,
        "the canary breaks deny-level lints too"
    );
}

#[test]
fn cli_rejects_bad_flags() {
    let args = ["-p", "ft-costs", "--target-dir", &target_dir()];
    let good = clippy(&repo_root(), &args, &["-D", "warnings"]);
    assert!(good.is_clean(), "{}{}", good.render(), good.stderr);
    let bad = clippy(
        &repo_root(),
        &args,
        &["-D", "warnings", "-D", "clippy::no_such_lint"],
    );
    assert!(!bad.success, "a misspelled lint flag must fail the run");
    assert!(
        bad.findings.iter().any(|f| f.lint == "E0602"
            && f.level == "error"
            && f.rendered.contains("clippy::no_such_lint")),
        "{}",
        bad.render()
    );
}

#[test]
fn stale_allows_fail_only_under_stale_flag() {
    let file = "src/stale.rs";
    let line = line_of(file, "clippy::as_conversions,");
    let level = |r: &Report| -> Vec<String> {
        r.findings_at(file, line)
            .iter()
            .map(|f| format!("{} {}", f.level, f.lint))
            .collect()
    };
    assert_eq!(
        level(canary_plain()),
        ["warning unfulfilled_lint_expectations"]
    );
    assert_eq!(level(canary()), ["error unfulfilled_lint_expectations"]);
}

#[test]
fn real_workspace_is_clean() {
    // CI's bar for the whole repository: clippy with `-D warnings` over
    // every target. Each waiver in the tree is a fulfilled `#[expect]`.
    let report = clippy(
        &repo_root(),
        &[
            "--workspace",
            "--all-targets",
            "--target-dir",
            &target_dir(),
        ],
        &["-D", "warnings"],
    );
    assert!(report.is_clean(), "{}{}", report.render(), report.stderr);
}

#[test]
fn json_report_is_stable_and_tagged() {
    let again = clippy(
        &ft_lint::canary_root(),
        &["--all-targets"],
        &["-D", "warnings"],
    );
    assert_eq!(again.findings, canary().findings, "two runs disagree");
    // Every finding names a lint: the canary fails only on purpose, never
    // on a compile error (`E0…`) or an untagged diagnostic.
    for f in &again.findings {
        let is_error_code =
            f.lint.starts_with('E') && f.lint[1..].chars().all(|c| c.is_ascii_digit());
        assert!(!f.lint.is_empty() && !is_error_code, "{}", f.rendered);
        assert_ne!(f.line, 0, "{}", f.rendered);
    }
}

#[test]
fn semantic_findings_carry_witness_chains() {
    // The canary spells the table `Table`, an alias of a renamed import.
    // Clippy resolves the chain and names the banned type and its reason.
    let report = canary();
    let taint: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.file == "src/taint.rs")
        .collect();
    assert_eq!(taint.len(), 2, "{}", report.render());
    for f in taint {
        assert!(
            f.rendered
                .contains("use of a disallowed type `std::collections::HashMap`")
                && f.rendered
                    .contains("iteration order is randomized per process"),
            "{}",
            f.rendered
        );
    }
    // rustc names the must-use part of a dropped CostResult.
    let dropped = report.findings_at("src/dropcost.rs", line_of("src/dropcost.rs", "probe(x);"));
    assert!(
        dropped.iter().any(|f| f
            .rendered
            .contains("unused `ft_costs::OperationCost` in tuple element 1")),
        "{dropped:?}"
    );
}
