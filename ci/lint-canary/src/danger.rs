//! unsafe-without-safety-comment: `unsafe` is forbidden in every package.

/// An all-zero integer, the long way round.
pub fn zeroed() -> u32 {
    unsafe { std::mem::zeroed() }
}
