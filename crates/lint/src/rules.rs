//! What replaced each rule of the retired source-level linter: the lints
//! that now report it, and where `ci/lint-canary` seeds a violation.
//! Rules without a row (`uncharged-mutation`, `panic-reachability`,
//! `ledger-book-coupling`, `effects-baseline-drift`) were retired; see
//! "Static checks" in `docs/ARCHITECTURE.md`.

/// Every `(rule, canary file, lint)` that clippy must report on the
/// canary, and nothing else.
pub const EXPECTED: &[(&str, &str, &str)] = &[
    (
        "nondeterministic-iteration",
        "src/iter.rs",
        "clippy::disallowed_types",
    ),
    (
        "nondeterministic-iteration",
        "src/soak.rs",
        "clippy::disallowed_types",
    ),
    (
        "determinism-taint",
        "src/taint.rs",
        "clippy::disallowed_types",
    ),
    (
        "wall-clock-in-protocol",
        "src/clock.rs",
        "clippy::disallowed_types",
    ),
    ("unseeded-rng", "src/rng.rs", "clippy::disallowed_types"),
    (
        "lossy-cast-in-accounting",
        "src/ledger.rs",
        "clippy::as_conversions",
    ),
    (
        "panic-in-engine",
        "src/network.rs",
        "clippy::indexing_slicing",
    ),
    ("panic-in-engine", "src/network.rs", "clippy::unwrap_used"),
    ("dropped-cost-result", "src/dropcost.rs", "unused_must_use"),
    (
        "dropped-cost-result",
        "src/dropcost.rs",
        "clippy::let_underscore_must_use",
    ),
    (
        "malformed-suppression",
        "src/marker.rs",
        "clippy::allow_attributes",
    ),
    (
        "malformed-suppression",
        "src/marker.rs",
        "clippy::allow_attributes_without_reason",
    ),
    ("malformed-suppression", "src/marker.rs", "unknown_lints"),
    (
        "malformed-suppression",
        "src/stale.rs",
        "unfulfilled_lint_expectations",
    ),
    (
        "unsafe-without-safety-comment",
        "src/danger.rs",
        "unsafe_code",
    ),
];

#[cfg(test)]
mod tests {
    use crate::{canary, canary_plain, line_of, Report};

    /// The lints `report` puts on the canary line of `file` whose trimmed
    /// text is `text`.
    fn lints<'r>(report: &'r Report, file: &str, text: &str) -> Vec<&'r str> {
        report.lints_at(file, line_of(file, text))
    }

    #[test]
    fn dropped_cost_result_flags_both_discard_shapes() {
        let r = canary();
        let file = "src/dropcost.rs";
        assert_eq!(lints(r, file, "probe(x);"), ["unused_must_use"]);
        assert_eq!(
            lints(r, file, "let _ = probe(x);"),
            ["clippy::let_underscore_must_use"]
        );
        for binding in ["let (v, _cost) = probe(x);", "let whole = probe(v);"] {
            assert!(lints(r, file, binding).is_empty(), "{binding}");
        }
    }

    #[test]
    fn engine_rule_is_module_scoped() {
        let r = canary();
        let file = "src/network.rs";
        assert_eq!(
            lints(r, file, "let picked = inboxes[i].len();"),
            ["clippy::indexing_slicing"],
            "indexing inside `step`"
        );
        assert!(
            lints(r, file, "inboxes[i].len()").is_empty(),
            "the same indexing in `peek`"
        );
    }

    #[test]
    fn indexing_detection_skips_attrs_macros_and_patterns() {
        let r = canary();
        let file = "src/network.rs";
        for clean in [
            "#[rustfmt::skip]",
            "let mut sizes = vec![1, 2];",
            "let [a, b] = [3, 4];",
        ] {
            assert!(lints(r, file, clean).is_empty(), "{clean}");
        }
        assert_eq!(
            lints(r, file, "let picked = inboxes[i].len();"),
            ["clippy::indexing_slicing"]
        );
    }

    #[test]
    fn strings_and_comments_never_trip_rules() {
        let r = canary();
        let file = "src/iter.rs";
        for prose in [
            "// HashMap, HashSet, Instant and RandomState, all in a comment",
            "\"std::collections::HashMap std::time::Instant RandomState::new()\"",
        ] {
            assert!(lints(r, file, prose).is_empty(), "{prose}");
        }
    }

    #[test]
    fn allow_markers_suppress_and_carry_reasons() {
        let r = canary();
        let file = "src/marker.rs";
        let reasoned =
            "#[expect(clippy::disallowed_types, reason = \"canary: keyed lookups only\")]";
        assert!(lints(r, file, reasoned).is_empty());
        assert!(
            lints(
                r,
                file,
                "pub fn lookup(m: &std::collections::HashMap<u32, u32>, k: u32) -> Option<u32> {"
            )
            .is_empty(),
            "the waived HashMap is not reported"
        );
        assert_eq!(
            lints(r, file, "#[expect(clippy::disallowed_types)]"),
            ["clippy::allow_attributes_without_reason"],
            "a waiver must carry a reason"
        );
        assert!(lints(
            r,
            file,
            "pub fn count(m: &std::collections::HashSet<u32>) -> usize {"
        )
        .is_empty());
    }

    #[test]
    fn bare_or_unknown_suppressions_are_violations() {
        let r = canary();
        let file = "src/marker.rs";
        assert_eq!(
            lints(r, file, "#[allow(dead_code)]"),
            [
                "clippy::allow_attributes",
                "clippy::allow_attributes_without_reason"
            ]
        );
        assert_eq!(
            lints(
                r,
                file,
                "#[expect(clippy::no_such_lint, reason = \"canary: a misspelled lint name\")]"
            ),
            ["unknown_lints"]
        );
    }

    #[test]
    fn unused_allows_are_reported_not_fatal() {
        let r = canary_plain();
        let file = "src/stale.rs";
        let at = r.findings_at(file, line_of(file, "clippy::as_conversions,"));
        assert_eq!(at.len(), 1, "{}", r.render());
        assert_eq!(at[0].lint, "unfulfilled_lint_expectations");
        assert_eq!(at[0].level, "warning");
    }

    #[test]
    fn test_items_are_exempt() {
        let r = canary();
        let file = "src/network.rs";
        assert_eq!(
            lints(r, file, "inboxes.first().unwrap().len()"),
            ["clippy::unwrap_used"],
            "an unwrap outside tests"
        );
        for in_test in [
            "let first = inboxes.first().unwrap();",
            "let again = inboxes.last().expect(\"one inbox\");",
        ] {
            assert!(lints(r, file, in_test).is_empty(), "{in_test}");
        }
    }

    #[test]
    fn test_scope_files_keep_the_hygiene_rules_only() {
        let r = canary();
        let file = "src/soak.rs";
        for banned in [
            "use std::collections::HashMap;",
            "let mut seen: HashMap<u32, u32> = HashMap::new();",
        ] {
            assert_eq!(
                lints(r, file, banned),
                ["clippy::disallowed_types"],
                "{banned}"
            );
        }
        assert!(lints(r, file, "assert_eq!(seen.get(&1).copied().unwrap(), 2);").is_empty());
    }
}
