//! The **durable cold tier**: checksummed epoch segment files, a small
//! ingest write-ahead log, and kill-and-restart crash recovery for the
//! mega-dataset pipeline.
//!
//! The paper's architecture keeps hot state in memory (stores, spill
//! buffers, the NOC hierarchy) and loses it on a crash. This crate adds the
//! missing durability plane with three pieces:
//!
//! * [`segment`] — one append-only file per rotation ("epoch bundle"),
//!   length-prefixed frames with per-frame CRC-32, a sorted-run frame index
//!   appended at seal, and atomic-rename sealing (`segment.open` →
//!   `epoch-<seq>.seg`);
//! * [`wal`] — a write-ahead log for records of the current epoch, giving
//!   the bounded per-edge spill/ingest path durable backing;
//! * [`tier`] — the [`ColdTier`] handle gluing both to a
//!   directory, with explicit fsync discipline ([`SyncPolicy`]), recovery
//!   ([`tier::ColdTier::open`]), and deterministic fault injection for the
//!   kill-and-restart proof;
//! * [`fsck`] — the offline verifier behind the `mega-fsck` binary.
//!
//! Recovery is *total*: torn tails are truncated and counted, checksum
//! mismatches in sealed data are quarantined and counted, and every failure
//! mode surfaces as a typed [`SegmentError`] — never a panic (clippy's
//! panic lints, denied at this crate's root, cover it).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Data-plane rules (DESIGN.md §12): no panicking call and no hash-ordered
// collection in non-test code.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::disallowed_types)]
#![cfg_attr(test, allow(clippy::unreachable, reason = "tests are exempt"))]
#![cfg_attr(test, allow(clippy::disallowed_types, reason = "tests are exempt"))]

use std::path::PathBuf;

use megastream_flow::time::Timestamp;

pub mod codec;
pub mod crc;
pub mod fsck;
pub mod segment;
pub mod tier;
pub mod wal;

pub use codec::{decode_stored_summary, encode_stored_summary};
pub use tier::{ColdTier, EpochBundle, FaultMode, FaultSpec, RecoveryReport};
pub use wal::WalRecord;

use megastream_datastore::summary::StoredSummary;

/// When the cold tier calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Never fsync segment or WAL *data* (the OS flushes it eventually).
    /// Cheapest; a power loss may lose recent epochs, a process kill does
    /// not. The renames that commit a seal or a WAL reset are still made
    /// durable: every seal fsyncs the directory, and every WAL reset
    /// fsyncs the new header and the directory — 3 fsyncs per rotation.
    Off,
    /// Fsync after every frame and WAL append, on top of everything
    /// `OnSeal` does. Strongest; every acknowledged record survives power
    /// loss.
    WriteThrough,
    /// Fsync each sealed segment's data before its rename (the default),
    /// on top of the rename syncs `Off` already issues — 4 fsyncs per
    /// rotation: sealed epochs survive power loss, the current epoch's
    /// tail rides on the page cache.
    #[default]
    OnSeal,
}

/// Everything that can go wrong in the cold tier — the *only* failure
/// channel: no storage path panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SegmentError {
    /// An operating-system I/O failure.
    Io {
        /// What the tier was doing.
        op: &'static str,
        /// The file involved.
        path: PathBuf,
        /// The OS error kind.
        kind: std::io::ErrorKind,
    },
    /// The file does not start with the expected magic bytes.
    BadMagic {
        /// The file involved.
        path: PathBuf,
        /// What was found instead.
        found: [u8; 4],
    },
    /// The file was written in another format version than the one this
    /// build reads and writes ([`segment::FORMAT_VERSION`]).
    UnsupportedVersion {
        /// The file involved.
        path: PathBuf,
        /// The version found.
        found: u32,
    },
    /// Fewer bytes than a field needs (decode-level truncation).
    Truncated {
        /// Which field ran short.
        what: &'static str,
        /// Bytes required.
        needed: u64,
        /// Bytes available.
        available: u64,
    },
    /// A stored checksum disagrees with the recomputation.
    Checksum {
        /// Byte offset of the checksummed region.
        offset: u64,
        /// CRC stored on disk.
        stored: u32,
        /// CRC recomputed from the bytes.
        computed: u32,
    },
    /// Structurally invalid data (bad tag, violated invariant, trailing
    /// bytes).
    Malformed {
        /// What was malformed.
        what: &'static str,
    },
    /// A frame exceeds the size limit.
    FrameTooLarge {
        /// Claimed length.
        len: u64,
        /// The limit.
        max: u64,
    },
    /// The sealed-epoch sequence has a gap — a segment file is missing, so
    /// replay cannot reconstruct a consistent state.
    MissingEpoch {
        /// The sequence number expected next.
        expected: u64,
        /// The sequence number found.
        found: u64,
    },
    /// The deterministic fault injector fired (tests only).
    InjectedFault {
        /// The durable-op ordinal that tripped.
        op: u64,
    },
    /// The tier is dead after a previous failure; the caller should finish
    /// in memory and recover from disk on restart.
    TierDead,
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegmentError::Io { op, path, kind } => {
                write!(f, "i/o failure during {op} on {}: {kind}", path.display())
            }
            SegmentError::BadMagic { path, found } => {
                write!(f, "bad magic {found:02x?} in {}", path.display())
            }
            SegmentError::UnsupportedVersion { path, found } => {
                write!(
                    f,
                    "unsupported format version {found} in {}",
                    path.display()
                )
            }
            SegmentError::Truncated {
                what,
                needed,
                available,
            } => {
                write!(
                    f,
                    "truncated {what}: needed {needed} bytes, have {available}"
                )
            }
            SegmentError::Checksum {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch at offset {offset}: stored {stored:08x}, computed {computed:08x}"
            ),
            SegmentError::Malformed { what } => write!(f, "malformed {what}"),
            SegmentError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds limit {max}")
            }
            SegmentError::MissingEpoch { expected, found } => {
                write!(
                    f,
                    "missing sealed epoch: expected seq {expected}, found {found}"
                )
            }
            SegmentError::InjectedFault { op } => write!(f, "injected fault at durable op {op}"),
            SegmentError::TierDead => write!(f, "cold tier is dead after a prior failure"),
        }
    }
}

impl std::error::Error for SegmentError {}

/// Per-region cumulative ingest statistics persisted in the epoch
/// [`EpochMeta`] so recovery can restore them absolutely (the sealed
/// segments carry summaries, not the raw records that produced them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegionStatsSnapshot {
    /// Flow records ingested.
    pub flows: u64,
    /// Scalar samples ingested.
    pub scalars: u64,
    /// Raw bytes accounted.
    pub raw_bytes: u64,
}

/// The closing frame of every epoch segment: absolute snapshots of the
/// stream-level state that frames alone cannot rebuild.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EpochMeta {
    /// The stream clock at rotation time.
    pub now: Timestamp,
    /// Round-robin ingest cursor.
    pub rr: u64,
    /// Cumulative export retries observed.
    pub export_retries: u64,
    /// Cumulative summaries parked in spill buffers.
    pub spilled: u64,
    /// Cumulative summaries flushed back out of spill buffers.
    pub flushed: u64,
    /// Cumulative summaries dropped on spill overflow.
    pub dropped: u64,
    /// Cumulative bytes dropped on spill overflow.
    pub dropped_bytes: u64,
    /// Cumulative raw-transfer deferrals.
    pub raw_deferrals: u64,
    /// Pending raw bytes per `[region][router]`.
    pub raw_pending: Vec<Vec<u64>>,
    /// Cumulative per-region ingest statistics.
    pub region_stats: Vec<RegionStatsSnapshot>,
}

/// One durable event in an epoch segment, in execution order.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A spill-buffer entry was flushed and delivered to the NOC.
    Flushed {
        /// Source region.
        region: u32,
        /// The delivered summary.
        summary: StoredSummary,
    },
    /// A rotation summary was exported (stored regionally *and* delivered
    /// to the NOC — `rotate_epoch` does both with the same object).
    Exported {
        /// Source region.
        region: u32,
        /// The exported summary.
        summary: StoredSummary,
    },
    /// A rotation summary failed its transfer and was parked in the spill
    /// buffer (still stored regionally).
    Parked {
        /// Source region.
        region: u32,
        /// The parked summary.
        summary: StoredSummary,
    },
    /// The closing metadata snapshot.
    Meta(EpochMeta),
}
