//! wall-clock-in-protocol: a reading that differs on every run.

/// Nanoseconds since an arbitrary start.
pub fn stamp(start: std::time::Instant) -> u128 {
    std::time::Instant::now().duration_since(start).as_nanos()
}
