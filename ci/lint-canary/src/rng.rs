//! unseeded-rng: std's hasher seeds itself from OS entropy.

use std::hash::BuildHasher;

/// A value that changes on every process start.
pub fn roll() -> u64 {
    std::collections::hash_map::RandomState::new().hash_one(7u32)
}
