//! The rules' test exemptions: clippy must report nothing in this file.

use std::collections::HashMap;

#[test]
fn tests_may_unwrap_panic_and_hash() {
    let mut m = HashMap::new();
    m.insert(1u8, Some(2u8));
    assert_eq!(m[&1].unwrap(), 2);
    assert_eq!(m[&1].expect("inserted"), 2);
    if m.is_empty() {
        panic!("empty");
    }
    if m.len() > 1 {
        unreachable!();
    }
}
