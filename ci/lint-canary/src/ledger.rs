//! lossy-cast-in-accounting: `as` in a module that denies it, the way
//! `ft_sim::ledger` does.

#![deny(clippy::as_conversions)]

/// Narrows a counter, silently truncating it.
pub fn shrink(x: u64) -> u32 {
    x as u32
}
