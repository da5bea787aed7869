//! [`InlineVec`]: a short list that keeps up to `N` entries in the value
//! itself and spills to a heap `Vec` only past them.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A list of `Copy` values, in insertion order, that holds up to `N` of
/// them inline and spills to a heap `Vec` only when it outgrows them. A
/// spilled list stays on the heap when it shrinks again, so a list that
/// hovers at the boundary does not reallocate, until it is replaced by a
/// fresh one.
///
/// Its size is the larger of a tag, a length byte and `[T; N]`, and of a
/// tag and a `Vec`. It dereferences to its slice, and two lists are equal
/// when their slices are, wherever either one is stored.
///
/// It is the storage behind [`SortedIds`](crate::SortedIds), and the
/// Forgiving Tree keeps each helper's children in one: a helper has at
/// most two, so a role stays off the heap unless faulty mail gives it a
/// third.
///
/// ```
/// use ft_graph::InlineVec;
///
/// let mut list: InlineVec<u32, 2> = [7, 3].into_iter().collect();
/// assert!(!list.is_spilled());
/// list.push(5);
/// assert!(list.is_spilled(), "a third entry spills");
/// assert_eq!(list.remove(0), 7);
/// assert_eq!(*list, [3, 5]);
/// assert_eq!(list, [3, 5].into_iter().collect(), "storage is not compared");
/// ```
#[derive(Clone)]
pub struct InlineVec<T, const N: usize>(Repr<T, N>);

/// The storage of an [`InlineVec`].
#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// The first `len` entries are the list.
    Inline {
        len: u8,
        items: [T; N],
    },
    Spilled(Vec<T>),
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        const { assert!(N <= u8::MAX as usize, "the inline length is one byte") };
        InlineVec(Repr::Inline {
            len: 0,
            items: [T::default(); N],
        })
    }
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty list.
    pub fn new() -> Self {
        InlineVec::default()
    }
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// Whether the list has outgrown its inline capacity and lives on the
    /// heap.
    pub fn is_spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }

    /// Inserts `x` at `pos`, shifting the entries after it up.
    ///
    /// # Panics
    /// Panics if `pos > len`.
    pub fn insert(&mut self, pos: usize, x: T) {
        match &mut self.0 {
            Repr::Inline { len, items } if usize::from(*len) < N => {
                let n = usize::from(*len);
                items.copy_within(pos..n, pos + 1);
                items[pos] = x;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut list = Vec::with_capacity(2 * N);
                list.extend_from_slice(&items[..pos]);
                list.push(x);
                list.extend_from_slice(&items[pos..]);
                self.0 = Repr::Spilled(list);
            }
            Repr::Spilled(list) => list.insert(pos, x),
        }
    }

    /// Appends `x`.
    pub fn push(&mut self, x: T) {
        self.insert(self.len(), x);
    }

    /// Removes and returns the entry at `pos`, shifting the rest down.
    ///
    /// # Panics
    /// Panics if `pos >= len`.
    pub fn remove(&mut self, pos: usize) -> T {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                let x = items[..usize::from(*len)][pos];
                items.copy_within(pos + 1..usize::from(*len), pos);
                *len -= 1;
                x
            }
            Repr::Spilled(list) => list.remove(pos),
        }
    }

    /// Keeps the entries for which `keep` holds, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut kept = 0;
        for i in 0..self.len() {
            if keep(&self[i]) {
                self[kept] = self[i];
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// Keeps the first `len` entries and drops the rest (a no-op when the
    /// list is no longer).
    pub fn truncate(&mut self, len: usize) {
        match &mut self.0 {
            Repr::Inline { len: n, .. } => {
                *n = (*n).min(u8::try_from(len).unwrap_or(u8::MAX));
            }
            Repr::Spilled(list) => list.truncate(len),
        }
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Spilled(list) => list,
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..usize::from(*len)],
            Repr::Spilled(list) => list,
        }
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    /// Equal entries in the same order, wherever either list is stored.
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    /// The yielded entries, in order.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = InlineVec::new();
        for x in iter {
            list.push(x);
        }
        list
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::InlineVec;
    use proptest::prelude::*;

    /// One edit of [`inline_list_matches_vec_across_the_spill`].
    #[derive(Clone, Debug)]
    enum Op {
        Push(u32),
        Insert(usize, u32),
        Remove(usize),
        Retain(u32),
        Truncate(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u32..6, 0usize..4, 0u32..8).prop_map(|(kind, at, x)| match kind {
            0 | 1 => Op::Push(x),
            2 => Op::Insert(at, x),
            3 => Op::Remove(at),
            4 => Op::Retain(x),
            _ => Op::Truncate(at),
        })
    }

    proptest! {
        /// A two-entry list against a `Vec` under random edits that cross
        /// two entries both ways: the same entries in the same order, and
        /// on the heap exactly once a third entry ever arrived.
        #[test]
        fn inline_list_matches_vec_across_the_spill(ops in proptest::collection::vec(op(), 0..40)) {
            let mut list: InlineVec<u32, 2> = InlineVec::new();
            let mut model: Vec<u32> = Vec::new();
            let mut peak = 0;
            for op in ops {
                match op {
                    Op::Push(x) => {
                        list.push(x);
                        model.push(x);
                    }
                    Op::Insert(at, x) => {
                        let at = at.min(model.len());
                        list.insert(at, x);
                        model.insert(at, x);
                    }
                    Op::Remove(at) if at < model.len() => {
                        prop_assert_eq!(list.remove(at), model.remove(at));
                    }
                    Op::Remove(_) => {}
                    Op::Retain(x) => {
                        list.retain(|&y| y % 2 != x % 2);
                        model.retain(|&y| y % 2 != x % 2);
                    }
                    Op::Truncate(at) => {
                        list.truncate(at);
                        model.truncate(at);
                    }
                }
                peak = peak.max(model.len());
                prop_assert_eq!(&*list, model.as_slice());
                prop_assert_eq!(list.is_spilled(), peak > 2);
                let rebuilt: InlineVec<u32, 2> = model.iter().copied().collect();
                prop_assert_eq!(rebuilt.is_spilled(), model.len() > 2);
                prop_assert_eq!(&rebuilt, &list);
                prop_assert_eq!(format!("{list:?}"), format!("{model:?}"));
            }
        }
    }
}
