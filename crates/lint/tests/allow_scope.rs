//! A waiver is `#[expect(lint, reason = "...")]` on the narrowest item or
//! statement: it silences exactly its own lint, on exactly that statement.

use ft_lint::{canary, line_of};

const FILE: &str = "src/network.rs";

fn lints(text: &str) -> Vec<&'static str> {
    canary().lints_at(FILE, line_of(FILE, text))
}

#[test]
fn allow_suppresses_exactly_its_own_rule() {
    // The statement both unwraps and indexes; the waiver names the unwrap.
    assert_eq!(
        lints("let first = inboxes.first().unwrap()[0];"),
        ["clippy::indexing_slicing"]
    );
    assert!(
        lints("#[expect(clippy::unwrap_used, reason = \"canary: waives the unwrap only\")]")
            .is_empty(),
        "the waiver is fulfilled, not stale"
    );
}

#[test]
fn marker_window_does_not_reach_past_the_next_line() {
    assert!(lints("let head = inboxes[0].len();").is_empty());
    assert_eq!(
        lints("let tail = inboxes[1].len();"),
        ["clippy::indexing_slicing"]
    );
}
