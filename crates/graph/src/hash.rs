//! The two fixed hash functions the workspace replays from: the SplitMix64
//! finalizer behind every seeded pseudorandom decision (fault fates,
//! min-wise stretch priorities), and the FNV-1a byte fold behind every
//! pinned fingerprint (the fault schedule, seeded topologies, heal traces).
//! Changing either one changes replayed figures.

/// FNV-1a offset basis: the start value of a fingerprint.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a accumulator `h`, one byte at a time.
#[inline]
pub fn fnv1a(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// SplitMix64 finalizer: one avalanche step over `x`.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
