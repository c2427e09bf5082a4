//! Reaches the hash map only through the crate root's `M` alias.

use crate::M;

pub fn aliased() -> M<u8, u8> {
    M::new()
}
