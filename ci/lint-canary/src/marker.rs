//! malformed-suppression: waivers that are an `allow`, that give no
//! reason, or that name no lint, next to one that is well formed.

#[allow(dead_code)]
fn noop() {}

/// Waived with a reason: the finding is suppressed and nothing is reported.
#[expect(clippy::disallowed_types, reason = "canary: keyed lookups only")]
pub fn lookup(m: &std::collections::HashMap<u32, u32>, k: u32) -> Option<u32> {
    m.get(&k).copied()
}

/// Waived without a reason: suppressed, but the waiver itself is flagged.
#[expect(clippy::disallowed_types)]
pub fn count(m: &std::collections::HashSet<u32>) -> usize {
    m.len()
}

/// Waives a lint that does not exist.
#[expect(clippy::no_such_lint, reason = "canary: a misspelled lint name")]
pub fn misspelled() {}
