//! panic-in-engine: indexing in an engine root that denies panics, the way
//! `ft_sim::Network::step` does, and the same code where it is allowed.

/// Sums inbox lengths the way an engine round would.
#[deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub fn step(inboxes: &[Vec<u32>], i: usize) -> usize {
    #[rustfmt::skip]
    let mut sizes = vec![1, 2];
    sizes.push(inboxes.len());
    let [a, b] = [3, 4];
    let picked = inboxes[i].len();
    #[expect(clippy::unwrap_used, reason = "canary: waives the unwrap only")]
    let first = inboxes.first().unwrap()[0];
    #[expect(clippy::indexing_slicing, reason = "canary: this statement only")]
    let head = inboxes[0].len();
    let tail = inboxes[1].len();
    sizes.len() + a + b + picked + usize::from(first > 0) + head + tail
}

/// The same indexing outside an engine root.
pub fn peek(inboxes: &[Vec<u32>], i: usize) -> usize {
    inboxes[i].len()
}

/// An unwrap in a non-test item; the workspace denies these everywhere.
pub fn first_len(inboxes: &[Vec<u32>]) -> usize {
    inboxes.first().unwrap().len()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwraps_freely() {
        let inboxes = [vec![1u32]];
        let first = inboxes.first().unwrap();
        let again = inboxes.last().expect("one inbox");
        assert_eq!(first, again);
    }
}
