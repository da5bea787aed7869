//! determinism-taint: hash-order keys reach a protocol send two calls up.
//! The table's type hides `HashMap` behind a rename and an alias.

use std::collections::BTreeMap;
use std::collections::HashMap as Hashed;

/// The hash-keyed table the chain starts from.
pub type Table = Hashed<u32, u32>;

/// Outbound mail of a node.
pub trait Ctx {
    /// Sends one message.
    fn send(&mut self, to: u32);
}

fn leaf(m: &Table) -> Vec<u32> {
    m.keys().copied().collect()
}

fn mid(m: &Table) -> Vec<u32> {
    leaf(m)
}

/// Sends to every key, in whatever order the table yields them.
pub fn top(m: &Table, ctx: &mut impl Ctx) {
    for k in mid(m) {
        ctx.send(k);
    }
}

fn ordered_leaf(m: &BTreeMap<u32, u32>) -> Vec<u32> {
    m.keys().copied().collect()
}

fn ordered_mid(m: &BTreeMap<u32, u32>) -> Vec<u32> {
    ordered_leaf(m)
}

/// The same chain over an ordered map: nothing to report.
pub fn ordered_top(m: &BTreeMap<u32, u32>, ctx: &mut impl Ctx) {
    for k in ordered_mid(m) {
        ctx.send(k);
    }
}
