//! [`SortedIds`]: a small ascending set of node IDs that keeps up to seven
//! of them inline.

use crate::{InlineVec, NodeId};
use std::fmt;
use std::ops::Deref;

/// The most IDs a [`SortedIds`] holds without a heap list: with the length
/// byte and the tag of its [`InlineVec`] they fill the 32 bytes a spilled
/// `Vec` needs anyway.
pub(crate) const INLINE: usize = 7;

/// An ascending set of distinct node IDs, stored in 32 bytes: a sorted
/// view over an [`InlineVec`] of up to seven inline IDs, so only a longer
/// set spills to a heap `Vec`. A spilled set stays on the heap when it
/// shrinks again, so a set that hovers at the boundary does not
/// reallocate, until it is replaced by a fresh one.
///
/// It is the one sorted-ID-set type of the workspace: each [`crate::Graph`]
/// slot's neighbour list, each Forgiving Tree processor's set of held
/// edge interests, and each Forgiving Graph processor's neighbour set and
/// every will filed with it. Membership tests and mutations are
/// `O(log d)` binary searches plus an `O(d)` shift. It dereferences to the
/// ascending slice.
///
/// ```
/// use ft_graph::{NodeId, SortedIds};
///
/// let mut ids: SortedIds = [5, 1, 3].map(NodeId).into_iter().collect();
/// assert!(ids.insert(NodeId(2)));
/// assert!(!ids.insert(NodeId(3)), "already present");
/// assert!(ids.remove(NodeId(5)));
/// assert_eq!(*ids, [1, 2, 3].map(NodeId));
/// assert!(!ids.is_spilled());
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct SortedIds(InlineVec<NodeId, INLINE>);

impl SortedIds {
    /// An empty set.
    pub fn new() -> Self {
        SortedIds::default()
    }

    /// Whether the set has outgrown its inline capacity and lives on the
    /// heap.
    pub fn is_spilled(&self) -> bool {
        self.0.is_spilled()
    }

    /// Adds `id`; returns whether it was new.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let Err(pos) = self.binary_search(&id) else {
            return false;
        };
        self.0.insert(pos, id);
        true
    }

    /// Removes `id`; returns whether it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let Ok(pos) = self.binary_search(&id) else {
            return false;
        };
        self.0.remove(pos);
        true
    }

    /// Keeps the `len` smallest IDs and drops the rest (a no-op when the
    /// set is no larger).
    pub fn truncate(&mut self, len: usize) {
        self.0.truncate(len);
    }
}

impl Deref for SortedIds {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.0
    }
}

impl FromIterator<NodeId> for SortedIds {
    /// The set of the yielded IDs, in any order, repeats collapsed.
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut set = SortedIds::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

impl fmt::Debug for SortedIds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}
