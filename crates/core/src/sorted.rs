//! Sorted-vector maps: the flat layout of the processors' keyed state.
//!
//! Degrees, wills and shapes stay small, so a binary search plus a short
//! shift beats a tree allocation per entry, and iteration is ascending by
//! construction. A map is a `Vec<(K, V)>` ascending by key; a set of node
//! IDs is an [`ft_graph::SortedIds`].

/// Position of `key` in `map`, or where it would go.
pub(crate) fn map_slot<K: Ord + Copy, V>(map: &[(K, V)], key: K) -> Result<usize, usize> {
    map.binary_search_by_key(&key, |&(k, _)| k)
}

/// The value filed under `key`.
pub(crate) fn map_get<K: Ord + Copy, V>(map: &[(K, V)], key: K) -> Option<&V> {
    map_slot(map, key).ok().map(|i| &map[i].1)
}

/// The value filed under `key`, mutably.
pub(crate) fn map_get_mut<K: Ord + Copy, V>(map: &mut [(K, V)], key: K) -> Option<&mut V> {
    map_slot(map, key).ok().map(|i| &mut map[i].1)
}

/// Files `value` under `key`, replacing any value filed there before.
pub(crate) fn map_insert<K: Ord + Copy, V>(map: &mut Vec<(K, V)>, key: K, value: V) {
    match map_slot(map, key) {
        Ok(i) => map[i].1 = value,
        Err(i) => map.insert(i, (key, value)),
    }
}

/// Removes and returns the value filed under `key`.
pub(crate) fn map_remove<K: Ord + Copy, V>(map: &mut Vec<(K, V)>, key: K) -> Option<V> {
    map_slot(map, key).ok().map(|i| map.remove(i).1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_upsert_get_and_remove_by_key() {
        let mut m: Vec<(u32, &str)> = Vec::new();
        map_insert(&mut m, 7, "a");
        map_insert(&mut m, 2, "b");
        map_insert(&mut m, 7, "c");
        assert_eq!(m, [(2, "b"), (7, "c")]);
        assert_eq!(map_get(&m, 7), Some(&"c"));
        assert_eq!(map_get(&m, 3), None);
        *map_get_mut(&mut m, 2).expect("filed") = "d";
        assert_eq!(map_remove(&mut m, 2), Some("d"));
        assert_eq!(map_remove(&mut m, 2), None);
        assert_eq!(m, [(7, "c")]);
    }
}
