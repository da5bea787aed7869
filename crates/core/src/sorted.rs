//! Sorted-vector sets and maps: the flat layout of the processors' state.
//!
//! Degrees, wills and shapes stay small, so a binary search plus a short
//! shift beats a tree allocation per entry, and iteration is ascending by
//! construction. A map is a `Vec<(K, V)>` ascending by key.

/// Inserts `x` into the ascending `set`; returns whether it was new.
pub(crate) fn set_insert<T: Ord>(set: &mut Vec<T>, x: T) -> bool {
    match set.binary_search(&x) {
        Ok(_) => false,
        Err(pos) => {
            set.insert(pos, x);
            true
        }
    }
}

/// Removes `x` from the ascending `set`, if present.
pub(crate) fn set_remove<T: Ord>(set: &mut Vec<T>, x: T) {
    if let Ok(pos) = set.binary_search(&x) {
        set.remove(pos);
    }
}

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
    fn sets_stay_ascending_and_unique() {
        let mut s = Vec::new();
        for x in [5, 1, 3, 1, 9, 5] {
            set_insert(&mut s, x);
        }
        assert_eq!(s, [1, 3, 5, 9]);
        assert!(!set_insert(&mut s, 3));
        set_remove(&mut s, 3);
        set_remove(&mut s, 4);
        assert_eq!(s, [1, 5, 9]);
    }

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
