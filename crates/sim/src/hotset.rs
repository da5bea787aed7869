//! Dense bitset over the node id space — the round engine's "has mail" set.
//!
//! The engine keeps all mail in flight in one mailbox and orders it by
//! addressee at the top of every round, so the set only answers membership:
//! does this addressee have mail queued? [`HotSet`] answers that with one
//! bit per id and an O(1) idempotent insert and remove, and keeps the member
//! count that the engine's `seeks` charges read.

use ft_graph::NodeId;

/// A reusable set of [`NodeId`]s with O(1) idempotent insert and remove;
/// backing storage is one bit array sized by the id-space capacity.
#[derive(Debug, Default)]
pub struct HotSet {
    /// Bit `i % 64` of `words[i / 64]` ⇔ `NodeId(i)` is in the set.
    words: Vec<u64>,
    /// Number of ids currently in the set.
    len: usize,
}

impl HotSet {
    /// An empty set covering ids `0..cap`.
    pub fn with_capacity(cap: usize) -> Self {
        HotSet {
            words: vec![0; cap.div_ceil(64)],
            len: 0,
        }
    }

    /// Extends coverage to ids `0..cap`; a no-op when already that large.
    pub fn grow(&mut self, cap: usize) {
        let nwords = cap.div_ceil(64);
        if nwords > self.words.len() {
            self.words.resize(nwords, 0);
        }
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `v`; returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics when `v` is outside the covered id range (grow first).
    pub fn insert(&mut self, v: NodeId) -> bool {
        let word = &mut self.words[v.index() / 64];
        let bit = 1u64 << (v.index() % 64);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.len += 1;
        true
    }

    /// Removes `v`; returns `true` if it was present. Out-of-range ids are
    /// vacuously absent.
    pub fn remove(&mut self, v: NodeId) -> bool {
        let Some(word) = self.words.get_mut(v.index() / 64) else {
            return false;
        };
        let bit = 1u64 << (v.index() % 64);
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        self.len -= 1;
        true
    }

    /// Membership test; out-of-range ids are absent.
    pub fn contains(&self, v: NodeId) -> bool {
        self.words
            .get(v.index() / 64)
            .is_some_and(|w| w & (1u64 << (v.index() % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_is_idempotent() {
        let mut s = HotSet::with_capacity(300);
        assert!(s.insert(NodeId(250)));
        assert!(s.insert(NodeId(3)));
        assert!(!s.insert(NodeId(3)), "second insert is a no-op");
        assert!(s.insert(NodeId(64)));
        assert_eq!(s.len(), 3);
        assert!(s.contains(NodeId(64)));
        assert!(!s.contains(NodeId(65)));
    }

    #[test]
    fn remove_clears_bits() {
        let mut s = HotSet::with_capacity(200);
        s.insert(NodeId(130));
        s.insert(NodeId(131));
        assert!(s.remove(NodeId(130)));
        assert!(!s.remove(NodeId(130)), "already gone");
        assert!(!s.remove(NodeId(4096)), "out of range is absent");
        assert!(!s.contains(NodeId(130)));
        assert!(s.contains(NodeId(131)), "the word's other bit survives");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn grow_extends_coverage() {
        let mut s = HotSet::with_capacity(10);
        s.insert(NodeId(5));
        s.grow(5000);
        s.insert(NodeId(4999));
        assert!(!s.contains(NodeId(6000)));
        assert!(s.contains(NodeId(5)), "growing keeps the members");
        assert!(s.contains(NodeId(4999)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn dense_roundtrip_matches_range() {
        let mut s = HotSet::with_capacity(1000);
        for i in 0..1000u32 {
            s.insert(NodeId(i));
        }
        assert_eq!(s.len(), 1000);
        assert!((0..1000u32).all(|i| s.contains(NodeId(i))));
        for i in 0..1000u32 {
            assert!(s.remove(NodeId(i)));
        }
        assert!(s.is_empty());
    }
}
