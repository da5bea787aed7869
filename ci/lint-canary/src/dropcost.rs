//! dropped-cost-result: both ways of discarding the cost of a `CostResult`.

use ft_costs::{CostResult, OperationCost};

/// A costed operation.
pub fn probe(x: u64) -> CostResult<u64> {
    (x, OperationCost::default())
}

/// Drops the whole result as a statement.
pub fn spend(x: u64) {
    probe(x);
}

/// Drops the whole result through `let _`.
pub fn spend_quietly(x: u64) {
    let _ = probe(x);
}

/// Binds the cost by name, which is not a discard.
pub fn keep(x: u64) -> u64 {
    let (v, _cost) = probe(x);
    let whole = probe(v);
    whole.0
}
