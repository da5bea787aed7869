//! Seeded violations of the workspace's static checks. Each module seeds
//! the violations of one check next to look-alikes that must stay clean;
//! the `ft-lint` tests run clippy over this package and require exactly
//! the findings listed in `ft_lint::rules::EXPECTED`. Nothing here is
//! meant to run.

pub mod clock;
pub mod danger;
pub mod dropcost;
pub mod iter;
pub mod ledger;
pub mod marker;
pub mod network;
pub mod rng;
#[cfg(test)]
mod soak;
pub mod stale;
pub mod taint;
