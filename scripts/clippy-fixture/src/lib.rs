//! Every item here breaks one lint rule of DESIGN.md §12. The crate root
//! carries the same attributes as a data-plane crate's.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::disallowed_types)]
#![cfg_attr(test, allow(clippy::unreachable, reason = "tests are exempt"))]
#![cfg_attr(test, allow(clippy::disallowed_types, reason = "tests are exempt"))]

pub mod alias;
#[cfg(test)]
mod tests;

pub use std::collections::HashMap as M;
use std::collections::HashSet;
use std::time::{Instant, SystemTime};

pub fn unwraps(x: Option<u8>) -> u8 {
    x.unwrap()
}

pub fn expects(x: Option<u8>) -> u8 {
    x.expect("some")
}

pub fn panics() {
    panic!("boom")
}

pub fn unreachable() {
    unreachable!()
}

pub fn todo() {
    todo!()
}

pub fn unimplemented() {
    unimplemented!()
}

pub fn hash_set() -> HashSet<u8> {
    HashSet::new()
}

pub fn clocks() -> (Instant, SystemTime) {
    (Instant::now(), SystemTime::now())
}

#[allow(dead_code)]
fn no_reason() {}

#[expect(clippy::unwrap_used)]
pub fn expect_without_reason(x: Option<u8>) -> u8 {
    x.unwrap()
}

#[expect(clippy::unwrap_used, reason = "stale: nothing here unwraps")]
pub fn stale() -> u8 {
    1
}
