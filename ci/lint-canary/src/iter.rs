//! nondeterministic-iteration: hash-set order differs between processes.

/// Sums ids in hash order.
pub fn tally(ids: &[u32]) -> Vec<u32> {
    let set: std::collections::HashSet<u32> = ids.iter().copied().collect();
    set.into_iter().collect()
}

/// Names the banned types only in prose and string literals.
pub fn prose() -> &'static str {
    // HashMap, HashSet, Instant and RandomState, all in a comment
    "std::collections::HashMap std::time::Instant RandomState::new()"
}
