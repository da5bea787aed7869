//! stale suppression: a waiver whose lint no longer fires.

/// Once held a cast; the waiver outlived it.
#[expect(
    clippy::as_conversions,
    reason = "historical: the cast below was replaced by u64::from"
)]
pub fn widen(x: u32) -> u64 {
    u64::from(x)
}
