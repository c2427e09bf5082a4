//! A store written by another format version is refused by
//! `Flowstream::recover`: a version-1 sealed segment or a version-1
//! `ingest.wal` returns `UnsupportedVersion` naming the file, and nothing
//! is replayed or rewritten.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use megastream::flowstream::FlowstreamConfig;
use megastream::storage::crc::crc32;
use megastream::storage::segment::{sealed_name, HEADER_BYTES};
use megastream::storage::wal::{WAL_FILE, WAL_HEADER_BYTES};
use megastream::storage::SegmentError;
use megastream::{ColdTier, Flowstream, SyncPolicy};
use megastream_flow::time::TimeDelta;
use megastream_telemetry::Telemetry;
use megastream_workloads::netflow::{FlowTraceConfig, FlowTraceGenerator};

fn config() -> FlowstreamConfig {
    FlowstreamConfig {
        epoch_len: TimeDelta::from_secs(30),
        ..Default::default()
    }
}

/// A store left as a kill leaves it: sealed epochs, then WAL records of
/// the epoch in progress. Returns the number of records ingested.
fn build_store(dir: &Path) -> u64 {
    let _ = fs::remove_dir_all(dir);
    let mut fs = Flowstream::new(2, 2, config());
    fs.attach_cold_tier(
        ColdTier::create(dir, SyncPolicy::Off, Telemetry::disabled()).expect("store creates"),
    );
    let trace = FlowTraceGenerator::new(FlowTraceConfig {
        seed: 18,
        flows_per_sec: 30.0,
        duration: TimeDelta::from_secs(100),
        ..Default::default()
    });
    let mut n = 0;
    for record in trace {
        fs.ingest_round_robin(&record);
        n += 1;
    }
    n
}

fn stamp_version(path: &Path, header_len: u64, version: u32) {
    let mut bytes = fs::read(path).expect("file reads");
    let crc_at = header_len as usize - 4;
    bytes[4..8].copy_from_slice(&version.to_le_bytes());
    let crc = crc32(&bytes[4..crc_at]);
    bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    fs::write(path, bytes).expect("file writes");
}

fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fs::read_dir(dir)
        .expect("store lists")
        .map(|e| {
            let path = e.expect("entry").path();
            let bytes = fs::read(&path).expect("file reads");
            (path, bytes)
        })
        .collect()
}

fn recover(dir: &Path) -> Result<Flowstream, SegmentError> {
    Flowstream::recover(2, 2, config(), dir, SyncPolicy::Off, &Telemetry::disabled())
        .map(|(fs, _)| fs)
}

fn assert_refused(dir: &Path, foreign: &Path) {
    let before = snapshot(dir);
    match recover(dir) {
        Err(SegmentError::UnsupportedVersion { path, found }) => {
            assert_eq!((path.as_path(), found), (foreign, 1));
        }
        Err(e) => panic!("expected UnsupportedVersion, got {e}"),
        Ok(fs) => panic!(
            "a version-1 store replayed {} flows as current",
            fs.stats().flows
        ),
    }
    assert_eq!(snapshot(dir), before, "a refused recovery writes nothing");
}

#[test]
fn recover_refuses_a_version_1_sealed_segment() {
    let dir = std::env::temp_dir().join(format!("megastream-fv-seg-{}", std::process::id()));
    build_store(&dir);
    let foreign = dir.join(sealed_name(1));
    stamp_version(&foreign, HEADER_BYTES, 1);
    assert_refused(&dir, &foreign);
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn recover_refuses_a_version_1_wal() {
    let dir = std::env::temp_dir().join(format!("megastream-fv-wal-{}", std::process::id()));
    build_store(&dir);
    let foreign = dir.join(WAL_FILE);
    stamp_version(&foreign, WAL_HEADER_BYTES, 1);
    assert_refused(&dir, &foreign);
    fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn recover_accepts_the_current_version() {
    let dir = std::env::temp_dir().join(format!("megastream-fv-ok-{}", std::process::id()));
    let ingested = build_store(&dir);
    assert!(dir.join(sealed_name(3)).exists(), "three epochs sealed");
    let fs = recover(&dir).expect("store recovers");
    assert_eq!(fs.stats().flows, ingested);
    fs::remove_dir_all(&dir).expect("cleanup");
}
