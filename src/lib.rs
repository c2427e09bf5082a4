//! Workspace umbrella crate.
//!
//! This package exists so that the repository-level `tests/` and `examples/`
//! directories are built as part of the workspace. The actual library lives
//! in the [`megastream`] facade crate and the `megastream-*` member crates.

#![forbid(unsafe_code)]

pub use megastream;
