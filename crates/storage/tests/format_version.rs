//! A cold tier written in another format version is refused, never
//! replayed as current: a version-1 sealed segment, or a version-1
//! `ingest.wal`, makes `ColdTier::open` return `UnsupportedVersion` naming
//! the file — before it writes anything — and makes `mega-fsck` exit 1
//! naming the file.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use megastream_datastore::summary::{Lineage, StoredSummary, Summary};
use megastream_flow::addr::Ipv4Addr;
use megastream_flow::record::FlowRecord;
use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream_flowtree::{Flowtree, FlowtreeConfig};
use megastream_storage::crc::crc32;
use megastream_storage::segment::{sealed_name, FORMAT_VERSION, HEADER_BYTES, OPEN_SEGMENT};
use megastream_storage::wal::{WAL_FILE, WAL_HEADER_BYTES};
use megastream_storage::{ColdTier, Frame, SegmentError, SyncPolicy, WalRecord};
use megastream_telemetry::Telemetry;

const FSCK: &str = env!("CARGO_BIN_EXE_mega-fsck");

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "megastream-format-version-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

fn record(i: u64) -> FlowRecord {
    FlowRecord {
        ts: Timestamp::from_secs(i),
        proto: 6,
        src_ip: Ipv4Addr::new(0x0a00_0100 | i as u32),
        dst_ip: Ipv4Addr::new(0x0101_0101),
        src_port: 5000,
        dst_port: 443,
        packets: i + 1,
        bytes: 64 * (i + 1),
    }
}

fn summary(epoch: u64) -> StoredSummary {
    let mut tree = Flowtree::new(FlowtreeConfig::default().with_capacity(64));
    for i in 0..20 {
        tree.observe(&record(epoch * 20 + i));
    }
    StoredSummary::new(
        "region-0",
        TimeWindow::starting_at(Timestamp::from_secs(epoch * 60), TimeDelta::from_secs(60)),
        Summary::Flowtree(tree),
        Lineage::from_source("router-0-0"),
    )
}

/// Two sealed epochs, WAL records of the third, and its uncommitted
/// `segment.open` — every file recovery would otherwise touch.
fn build_store(d: &Path) {
    let mut tier =
        ColdTier::create(d, SyncPolicy::Off, Telemetry::disabled()).expect("store creates");
    for epoch in 0..3u64 {
        tier.wal_append(&WalRecord {
            rr: epoch,
            region: 0,
            router: 0,
            record: record(epoch),
        })
        .expect("wal");
        tier.begin_epoch(Timestamp::from_secs((epoch + 1) * 60))
            .expect("begin");
        tier.append_frame(&Frame::Exported {
            region: 0,
            summary: summary(epoch),
        })
        .expect("frame");
        if epoch < 2 {
            tier.seal_epoch().expect("seal");
            tier.wal_reset().expect("reset");
        }
    }
}

/// Rewrites the version field of a file's header and its header CRC,
/// which covers everything between the magic and the CRC itself — so the
/// file reads as a clean header of `version`.
fn stamp_version(path: &Path, header_len: u64, version: u32) {
    let mut bytes = fs::read(path).expect("file reads");
    let crc_at = header_len as usize - 4;
    bytes[4..8].copy_from_slice(&version.to_le_bytes());
    let crc = crc32(&bytes[4..crc_at]);
    bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    fs::write(path, bytes).expect("file writes");
}

fn snapshot(d: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fs::read_dir(d)
        .expect("store lists")
        .map(|e| {
            let path = e.expect("entry").path();
            let bytes = fs::read(&path).expect("file reads");
            (path, bytes)
        })
        .collect()
}

fn assert_refused(d: &Path, foreign: &Path) {
    let before = snapshot(d);
    assert!(before.contains_key(&d.join(OPEN_SEGMENT)));

    match ColdTier::open(d, SyncPolicy::Off, Telemetry::disabled()) {
        Err(SegmentError::UnsupportedVersion { path, found }) => {
            assert_eq!(path, foreign);
            assert_eq!(found, 1);
        }
        Err(e) => panic!("expected UnsupportedVersion, got {e}"),
        Ok(_) => panic!("a version-1 file was recovered as version {FORMAT_VERSION}"),
    }
    assert_eq!(
        snapshot(d),
        before,
        "a refused open must leave the store as it found it"
    );

    let out = Command::new(FSCK).arg(d).output().expect("mega-fsck runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!(
            "unsupported format version 1 in {}",
            foreign.display()
        )),
        "stderr: {stderr}"
    );
    assert_eq!(snapshot(d), before, "fsck without --repair writes nothing");
}

#[test]
fn version_1_sealed_segment_is_refused() {
    let d = dir("segment");
    build_store(&d);
    let foreign = d.join(sealed_name(2));
    stamp_version(&foreign, HEADER_BYTES, 1);
    assert_refused(&d, &foreign);
    fs::remove_dir_all(&d).expect("cleanup");
}

#[test]
fn version_1_wal_is_refused() {
    let d = dir("wal");
    build_store(&d);
    let foreign = d.join(WAL_FILE);
    stamp_version(&foreign, WAL_HEADER_BYTES, 1);
    assert_refused(&d, &foreign);
    fs::remove_dir_all(&d).expect("cleanup");
}

#[test]
fn current_version_store_opens() {
    // The control: the same store, unstamped, recovers both epochs and
    // the WAL record of the third.
    let d = dir("current");
    build_store(&d);
    let (_, report) =
        ColdTier::open(&d, SyncPolicy::Off, Telemetry::disabled()).expect("store opens");
    assert_eq!(report.bundles.len(), 2);
    assert_eq!(report.wal_records.len(), 1);
    assert!(report.discarded_open_segment);
    fs::remove_dir_all(&d).expect("cleanup");
}
