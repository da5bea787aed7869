//! [`SortedIds`]: a small ascending set of node IDs that keeps up to seven
//! of them inline.

use crate::NodeId;
use std::fmt;
use std::ops::Deref;

/// The most IDs a [`SortedIds`] holds without a heap list: with the length
/// byte and the tag they fill the 32 bytes a spilled `Vec` needs anyway.
pub(crate) const INLINE: usize = 7;

/// An ascending set of distinct node IDs, stored in 32 bytes: up to
/// seven IDs sit in the value itself, and only a longer set
/// spills to a heap `Vec`. A spilled set stays on the heap when it shrinks
/// again, so a set that hovers at the boundary does not reallocate, until
/// it is replaced by a fresh one.
///
/// It is the one sorted-ID-set type of the workspace: each [`crate::Graph`]
/// slot's neighbour list, and each Forgiving Tree processor's set of held
/// edge interests. Membership tests and mutations are `O(log d)` binary
/// searches plus an `O(d)` shift. It dereferences to the ascending slice.
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
pub struct SortedIds(Repr);

/// The storage of a [`SortedIds`].
#[derive(Clone)]
enum Repr {
    /// The first `len` entries are the set.
    Inline {
        len: u8,
        ids: [NodeId; INLINE],
    },
    Spilled(Vec<NodeId>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Inline {
            len: 0,
            ids: [NodeId(0); INLINE],
        }
    }
}

impl PartialEq for Repr {
    /// Equal sets, wherever either one is stored.
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Repr {}

impl Repr {
    fn as_slice(&self) -> &[NodeId] {
        match self {
            Repr::Inline { len, ids } => &ids[..usize::from(*len)],
            Repr::Spilled(list) => list,
        }
    }
}

impl SortedIds {
    /// An empty set.
    pub fn new() -> Self {
        SortedIds::default()
    }

    /// Whether the set has outgrown its inline capacity and lives on the
    /// heap.
    pub fn is_spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }

    /// Adds `id`; returns whether it was new.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let Err(pos) = self.binary_search(&id) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline { len, ids } if usize::from(*len) < INLINE => {
                let n = usize::from(*len);
                ids.copy_within(pos..n, pos + 1);
                ids[pos] = id;
                *len += 1;
            }
            Repr::Inline { ids, .. } => {
                let mut list = Vec::with_capacity(2 * INLINE);
                list.extend_from_slice(&ids[..pos]);
                list.push(id);
                list.extend_from_slice(&ids[pos..]);
                self.0 = Repr::Spilled(list);
            }
            Repr::Spilled(list) => list.insert(pos, id),
        }
        true
    }

    /// Removes `id`; returns whether it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let Ok(pos) = self.binary_search(&id) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline { len, ids } => {
                ids.copy_within(pos + 1..usize::from(*len), pos);
                *len -= 1;
            }
            Repr::Spilled(list) => {
                list.remove(pos);
            }
        }
        true
    }

    /// Keeps the `len` smallest IDs and drops the rest (a no-op when the
    /// set is no larger).
    pub fn truncate(&mut self, len: usize) {
        match &mut self.0 {
            Repr::Inline { len: n, .. } => {
                *n = (*n).min(u8::try_from(len).unwrap_or(u8::MAX));
            }
            Repr::Spilled(list) => list.truncate(len),
        }
    }
}

impl Deref for SortedIds {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        self.0.as_slice()
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
