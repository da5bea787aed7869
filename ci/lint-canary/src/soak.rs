//! A test-only module: it keeps the determinism bans but may unwrap.

use std::collections::HashMap;

#[test]
fn soak() {
    let mut seen: HashMap<u32, u32> = HashMap::new();
    seen.insert(1, 2);
    assert_eq!(seen.get(&1).copied().unwrap(), 2);
}
