//! The papers' bounds in closed form, on one integer `⌈log₂⌉`.

/// `⌈log₂ x⌉` for `x ≥ 1`, in integer arithmetic.
#[inline]
pub(crate) fn ceil_log2(x: usize) -> u32 {
    usize::BITS - (x - 1).leading_zeros()
}

/// The explicit-constant diameter bound of Theorem 1.2 for a spanning tree
/// of height `h0` and maximum degree `delta0`:
/// `max(2, 2·h₀·(⌈log₂ max(Δ₀,2)⌉ + 2) + 2)`, the concrete form of
/// `O(D log Δ)`.
pub fn ft_diameter_bound(h0: u32, delta0: usize) -> u32 {
    (2 * h0 * (ceil_log2(delta0.max(2)) + 2) + 2).max(2)
}

/// The degree-increase bound the Forgiving Graph test-suite enforces:
/// `3·⌈log₂ n⌉ + 3` for an `n`-slot network (the paper's O(log n), with the
/// additive slack covering tiny graphs).
pub fn fg_degree_bound(n: usize) -> i64 {
    3 * i64::from(ceil_log2(n.max(2))) + 3
}

/// The stretch bound the Forgiving Graph test-suite enforces:
/// `⌈log₂ n⌉ + 2` for an `n`-slot network (the paper's O(log n) distance
/// blow-up against the pristine graph).
pub fn fg_stretch_bound(n: usize) -> f64 {
    f64::from(ceil_log2(n.max(2))) + 2.0
}
