//! The [`ColdTier`]: one directory holding sealed epoch segments, the
//! in-progress `segment.open`, and the ingest WAL — plus recovery and a
//! deterministic fault injector.
//!
//! ## Write path (one rotation)
//!
//! ```text
//! begin_epoch(at)        create segment.open, header for seq N
//! append_frame(..)*      streamed DURING the rotation, not after it —
//!                        so a kill mid-rotation leaves a torn tail
//! seal_epoch()           index + [fsync] + rename epoch-N.seg + dir fsync
//! wal_reset()            fresh ingest.wal with seq N+1 (tmp + header
//!                        fsync + rename + dir fsync)
//! ```
//!
//! The bracketed data fsync is the only one [`SyncPolicy::Off`] skips, so
//! a rotation issues 3 fsyncs under `Off` and 4 under `OnSeal`;
//! `WriteThrough` adds one per frame and WAL append.
//! `storage.segments.fsync_total` counts every one of them.
//!
//! ## Failure discipline
//!
//! Every durable op increments an op counter; the fault injector trips at a
//! chosen ordinal. A failed op marks the tier **dead**: all later ops
//! return [`SegmentError::TierDead`] without touching the disk, the live
//! pipeline finishes the rotation in memory, and the harness (or operator)
//! restarts from disk via [`ColdTier::open`]. Nothing in this module
//! panics.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use megastream_flow::time::Timestamp;
use megastream_telemetry::{Counter, Gauge, Telemetry};

use crate::crc::crc32;
use crate::segment::{
    self, encode_frame, frame_kind, parse_sealed_name, read_segment, rewrite_sealed, SegmentWriter,
    OPEN_SEGMENT,
};
use crate::wal::{self, read_wal, WalRecord, WalWriter, WAL_FILE};
use crate::{Frame, SegmentError, SyncPolicy};

/// Which flavour of failure the injector produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The op fails before writing anything; the tier dies cleanly.
    CleanStop,
    /// The op writes a partial chunk (a genuinely torn tail) and the tier
    /// dies.
    TornWrite,
    /// A frame append writes its full chunk with one payload bit flipped
    /// but the *clean* checksum — persisted bit rot. The tier stays alive
    /// (the corruption is only discovered by recovery or `mega-fsck`).
    BitFlip,
}

/// A deterministic, seeded crash point: trip at the `at_op`-th durable op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// 1-based ordinal of the durable op to fail.
    pub at_op: u64,
    /// How to fail it.
    pub mode: FaultMode,
}

/// One sealed epoch as read back during recovery.
#[derive(Debug)]
pub struct EpochBundle {
    /// Epoch sequence number.
    pub epoch_seq: u64,
    /// Rotation timestamp from the segment header.
    pub at: Timestamp,
    /// Clean frames in execution order.
    pub frames: Vec<Frame>,
}

/// Everything [`ColdTier::open`] learned while recovering a directory.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Sealed epochs in sequence order, corrupt frames already removed.
    pub bundles: Vec<EpochBundle>,
    /// WAL records of the current epoch, in append order.
    pub wal_records: Vec<WalRecord>,
    /// Torn frames truncated (unsealed tails, WAL tails).
    pub torn_frames: u64,
    /// Checksum-failed frames quarantined out of sealed segments.
    pub corrupt_frames: u64,
    /// Bytes discarded as torn tails.
    pub truncated_bytes: u64,
    /// Clean frames recovered from sealed segments.
    pub recovered_frames: u64,
    /// Whether an uncommitted `segment.open` was discarded.
    pub discarded_open_segment: bool,
    /// Whether a stale WAL (crash between seal and reset) was dropped.
    pub stale_wal_dropped: bool,
    /// Sealed segments rewritten to excise corrupt frames.
    pub repaired_segments: u64,
}

/// Cached handles for the metrics the tier updates per op, registered
/// once when the tier is created or opened so no append looks a metric up
/// by name. All are no-ops on a disabled [`Telemetry`].
#[derive(Debug)]
struct TierMetrics {
    wal_records: Counter,
    wal_bytes: Counter,
    frames: Counter,
    frame_bytes: Counter,
    sealed: Counter,
    /// Every fsync the tier issues, whatever the policy: data syncs and
    /// the header/directory syncs that commit seals and WAL resets.
    fsyncs: Counter,
    active_bytes: Gauge,
}

impl TierMetrics {
    fn new(tel: &Telemetry) -> Self {
        TierMetrics {
            wal_records: tel.counter("storage.wal.records_total"),
            wal_bytes: tel.counter("storage.wal.bytes_total"),
            frames: tel.counter("storage.segments.frames_total"),
            frame_bytes: tel.counter("storage.segments.bytes_total"),
            sealed: tel.counter("storage.segments.sealed_total"),
            fsyncs: tel.counter("storage.segments.fsync_total"),
            active_bytes: tel.gauge("storage.segments.active_bytes"),
        }
    }
}

/// Handle to one cold-tier directory.
#[derive(Debug)]
pub struct ColdTier {
    dir: PathBuf,
    sync: SyncPolicy,
    metrics: TierMetrics,
    /// Sequence the *next* `begin_epoch` will use.
    next_seq: u64,
    writer: Option<SegmentWriter>,
    wal: Option<WalWriter>,
    /// Durable-op ordinal (monotonic across the tier's lifetime).
    op: u64,
    fault: Option<FaultSpec>,
    dead: bool,
    first_error: Option<SegmentError>,
    disk_bytes: u64,
}

/// Adds one recovery's damage and salvage to the `storage.recovery.*`
/// counters.
fn account_recovery(tel: &Telemetry, report: &RecoveryReport) {
    tel.counter("storage.recovery.torn_frames")
        .add(report.torn_frames);
    tel.counter("storage.recovery.corrupt_frames")
        .add(report.corrupt_frames);
    tel.counter("storage.recovery.recovered_frames")
        .add(report.recovered_frames);
    tel.counter("storage.recovery.truncated_bytes")
        .add(report.truncated_bytes);
}

impl ColdTier {
    /// Creates a fresh cold tier at `dir` (directory created if missing;
    /// pre-existing tier files are an error — use [`ColdTier::open`]).
    pub fn create(dir: &Path, sync: SyncPolicy, tel: Telemetry) -> Result<Self, SegmentError> {
        fs::create_dir_all(dir).map_err(|e| segment::io_err("create tier dir", dir, e))?;
        if fs::metadata(dir.join(WAL_FILE)).is_ok() {
            return Err(SegmentError::Malformed {
                what: "tier directory already initialized",
            });
        }
        let wal = WalWriter::create(dir, 1)?;
        let metrics = TierMetrics::new(&tel);
        metrics.fsyncs.add(wal.fsyncs());
        let tier = ColdTier {
            dir: dir.to_path_buf(),
            sync,
            metrics,
            next_seq: 1,
            writer: None,
            wal: Some(wal),
            op: 0,
            fault: None,
            dead: false,
            first_error: None,
            disk_bytes: wal::WAL_HEADER_BYTES,
        };
        tier.refresh_gauges();
        Ok(tier)
    }

    /// Opens an existing tier directory, running full recovery: sealed
    /// segments are verified (corrupt frames quarantined and the segment
    /// rewritten), an uncommitted `segment.open` is discarded, the WAL is
    /// scanned with its torn tail truncated, and a stale WAL is dropped.
    /// Returns the tier (with a fresh WAL) and everything replay needs.
    ///
    /// Every refusal — a missing epoch, or a sealed segment or WAL from
    /// another format version — comes before the first write, so a
    /// refused directory is left exactly as it was found.
    pub fn open(
        dir: &Path,
        sync: SyncPolicy,
        tel: Telemetry,
    ) -> Result<(Self, RecoveryReport), SegmentError> {
        let mut report = RecoveryReport::default();
        let metrics = TierMetrics::new(&tel);
        let wal_scan = read_wal(&dir.join(WAL_FILE))?;

        // Sealed segments, in sequence order.
        let mut sealed: BTreeMap<u64, PathBuf> = BTreeMap::new();
        let entries = fs::read_dir(dir).map_err(|e| segment::io_err("read tier dir", dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| segment::io_err("read tier dir", dir, e))?;
            let name = entry.file_name();
            if let Some(seq) = name.to_str().and_then(parse_sealed_name) {
                sealed.insert(seq, entry.path());
            }
        }
        let mut scans = Vec::with_capacity(sealed.len());
        for (expected, (&seq, path)) in (1u64..).zip(sealed.iter()) {
            if seq != expected {
                return Err(SegmentError::MissingEpoch {
                    expected,
                    found: seq,
                });
            }
            let scan = read_segment(path, true)?;
            if scan.epoch_seq != seq {
                return Err(SegmentError::Malformed {
                    what: "segment name/header seq mismatch",
                });
            }
            scans.push((seq, path, scan));
        }
        for (seq, path, scan) in scans {
            report.corrupt_frames += scan.corrupt.len() as u64;
            report.torn_frames += scan.torn_frames;
            report.truncated_bytes += scan.truncated_bytes;
            report.recovered_frames += scan.frames.len() as u64;
            if !scan.corrupt.is_empty() {
                metrics.fsyncs.add(rewrite_sealed(dir, path, &scan)?);
                report.repaired_segments += 1;
            }
            report.bundles.push(EpochBundle {
                epoch_seq: seq,
                at: scan.at,
                frames: scan.frames,
            });
        }
        let max_sealed = report.bundles.last().map(|b| b.epoch_seq).unwrap_or(0);

        // An uncommitted open segment: its epoch never sealed, so its
        // content is covered by the WAL — discard, but account the damage.
        let open_path = dir.join(OPEN_SEGMENT);
        if fs::metadata(&open_path).is_ok() {
            report.discarded_open_segment = true;
            match read_segment(&open_path, false) {
                Ok(scan) => {
                    report.torn_frames += scan.torn_frames;
                    report.truncated_bytes += scan.truncated_bytes;
                }
                Err(_) => {
                    // Even the header was unreadable: the whole file is a
                    // torn tail.
                    report.torn_frames += 1;
                    report.truncated_bytes +=
                        fs::metadata(&open_path).map(|m| m.len()).unwrap_or(0);
                }
            }
            fs::remove_file(&open_path)
                .map_err(|e| segment::io_err("discard open segment", &open_path, e))?;
        }

        // The WAL: stale (crash between seal and reset) drops; current
        // replays.
        if let Some(scan) = wal_scan {
            report.torn_frames += scan.torn_frames;
            report.truncated_bytes += scan.truncated_bytes;
            if scan.epoch_seq <= max_sealed {
                report.stale_wal_dropped = true;
            } else {
                report.wal_records = scan.records;
            }
        }

        // Fresh WAL for the resumed epoch.
        let next_seq = max_sealed + 1;
        let wal = WalWriter::create(dir, next_seq)?;
        metrics.fsyncs.add(wal.fsyncs());

        let mut tier = ColdTier {
            dir: dir.to_path_buf(),
            sync,
            metrics,
            next_seq,
            writer: None,
            wal: Some(wal),
            op: 0,
            fault: None,
            dead: false,
            first_error: None,
            disk_bytes: 0,
        };
        tier.disk_bytes = tier.measure_disk();
        account_recovery(&tel, &report);
        tier.refresh_gauges();
        Ok((tier, report))
    }

    fn measure_disk(&self) -> u64 {
        let mut total = 0u64;
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if let Ok(meta) = entry.metadata() {
                    if meta.is_file() {
                        total += meta.len();
                    }
                }
            }
        }
        total
    }

    fn refresh_gauges(&self) {
        self.metrics.active_bytes.set(self.disk_bytes as i64);
    }

    /// The tier's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Durable ops performed so far (fault specs address this counter).
    pub fn ops(&self) -> u64 {
        self.op
    }

    /// The sequence the next `begin_epoch` will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Arms (or disarms) the deterministic fault injector.
    pub fn set_fault(&mut self, fault: Option<FaultSpec>) {
        self.fault = fault;
    }

    /// Whether a previous durable op failed; once dead, every op returns
    /// [`SegmentError::TierDead`] and the disk is untouched.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The first error that killed the tier, if any.
    pub fn first_error(&self) -> Option<&SegmentError> {
        self.first_error.as_ref()
    }

    /// Marks the tier dead after an external caller observed `err` from one
    /// of its ops — real I/O errors propagate without killing the tier
    /// internally (the caller may want to retry), so the live pipeline
    /// declares the death and degrades to in-memory operation. Idempotent.
    pub fn mark_dead(&mut self, err: SegmentError) {
        self.dead = true;
        if self.first_error.is_none() {
            self.first_error = Some(err);
        }
    }

    fn die(&mut self, err: SegmentError) -> SegmentError {
        self.dead = true;
        if self.first_error.is_none() {
            self.first_error = Some(err.clone());
        }
        err
    }

    /// Advances the op counter and reports the armed fault mode if this op
    /// is the chosen one.
    fn tick(&mut self) -> Result<Option<FaultMode>, SegmentError> {
        if self.dead {
            return Err(SegmentError::TierDead);
        }
        self.op += 1;
        match self.fault {
            Some(f) if f.at_op == self.op => Ok(Some(f.mode)),
            _ => Ok(None),
        }
    }

    /// Starts the segment for the next epoch; frames stream in during the
    /// rotation that follows.
    pub fn begin_epoch(&mut self, at: Timestamp) -> Result<(), SegmentError> {
        let fault = self.tick()?;
        match fault {
            Some(FaultMode::CleanStop) => {
                return Err(self.die(SegmentError::InjectedFault { op: self.op }))
            }
            Some(FaultMode::TornWrite) => {
                // Header lands, then a ragged partial chunk — the torn tail
                // a kill mid-write leaves behind.
                let mut w = SegmentWriter::create(&self.dir, self.next_seq, at)?;
                w.write_raw(&[0x5a, 0x5a, 0x5a])?;
                return Err(self.die(SegmentError::InjectedFault { op: self.op }));
            }
            _ => {}
        }
        let w = SegmentWriter::create(&self.dir, self.next_seq, at)?;
        self.disk_bytes += segment::HEADER_BYTES;
        self.writer = Some(w);
        self.refresh_gauges();
        Ok(())
    }

    /// Appends one frame to the open segment.
    pub fn append_frame(&mut self, frame: &Frame) -> Result<(), SegmentError> {
        let fault = self.tick()?;
        let sync = self.sync;
        let writer = match self.writer.as_mut() {
            Some(w) => w,
            None => {
                return Err(SegmentError::Malformed {
                    what: "append without open segment",
                })
            }
        };
        let payload = encode_frame(frame);
        let crc = crc32(&payload);
        let written = match fault {
            Some(FaultMode::CleanStop) => {
                return Err(self.die(SegmentError::InjectedFault { op: self.op }))
            }
            Some(FaultMode::TornWrite) => {
                let mut chunk = Vec::with_capacity(8 + payload.len());
                chunk.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                chunk.extend_from_slice(&crc.to_le_bytes());
                chunk.extend_from_slice(&payload);
                let cut = chunk.len() / 2;
                let partial = chunk.get(..cut).unwrap_or_default();
                writer.write_raw(partial)?;
                return Err(self.die(SegmentError::InjectedFault { op: self.op }));
            }
            Some(FaultMode::BitFlip) => {
                // Full write, clean CRC, one bit of payload flipped: what a
                // disk that lies looks like. The tier stays alive.
                let mut corrupted = payload.clone();
                let mid = corrupted.len() / 2;
                if let Some(b) = corrupted.get_mut(mid) {
                    *b ^= 0x01;
                }
                writer.append_frame_parts(frame_kind(frame), &corrupted, crc)?
            }
            None => writer.append_frame_parts(frame_kind(frame), &payload, crc)?,
        };
        if sync == SyncPolicy::WriteThrough {
            writer.sync()?;
            self.metrics.fsyncs.inc();
        }
        self.disk_bytes += written;
        self.metrics.frames.inc();
        self.metrics.frame_bytes.add(written);
        self.refresh_gauges();
        Ok(())
    }

    /// Seals the open segment: index, fsync (per policy), atomic rename,
    /// directory fsync. Advances the epoch sequence.
    pub fn seal_epoch(&mut self) -> Result<(), SegmentError> {
        let fault = self.tick()?;
        let writer = match self.writer.take() {
            Some(w) => w,
            None => {
                return Err(SegmentError::Malformed {
                    what: "seal without open segment",
                })
            }
        };
        match fault {
            Some(FaultMode::CleanStop) => {
                return Err(self.die(SegmentError::InjectedFault { op: self.op }))
            }
            Some(FaultMode::TornWrite) => {
                // A partial index write: the segment never renames, and the
                // junk tail reads as torn on recovery.
                let mut w = writer;
                w.write_raw(&[0xa5, 0xa5, 0xa5, 0xa5, 0xa5])?;
                return Err(self.die(SegmentError::InjectedFault { op: self.op }));
            }
            _ => {}
        }
        let before = writer.bytes_written();
        let (sealed_path, fsyncs) = writer.seal(self.sync != SyncPolicy::Off)?;
        self.metrics.fsyncs.add(fsyncs);
        // Index + trailer bytes: measured as the growth over the data size.
        let after = fs::metadata(&sealed_path)
            .map(|m| m.len())
            .unwrap_or(before);
        self.disk_bytes += after.saturating_sub(before);
        self.metrics.sealed.inc();
        self.next_seq += 1;
        self.refresh_gauges();
        Ok(())
    }

    /// Appends one ingest record to the WAL.
    pub fn wal_append(&mut self, rec: &WalRecord) -> Result<(), SegmentError> {
        let fault = self.tick()?;
        let sync = self.sync;
        let wal = match self.wal.as_mut() {
            Some(w) => w,
            None => {
                return Err(SegmentError::Malformed {
                    what: "wal append without wal",
                })
            }
        };
        match fault {
            Some(FaultMode::CleanStop) => {
                return Err(self.die(SegmentError::InjectedFault { op: self.op }))
            }
            Some(FaultMode::TornWrite) => {
                let chunk = WalWriter::chunk_for(rec);
                let cut = chunk.len() / 2;
                let partial = chunk.get(..cut).unwrap_or_default();
                wal.write_raw(partial)?;
                return Err(self.die(SegmentError::InjectedFault { op: self.op }));
            }
            _ => {}
        }
        let written = wal.append(rec)?;
        if sync == SyncPolicy::WriteThrough {
            wal.sync()?;
            self.metrics.fsyncs.inc();
        }
        self.disk_bytes += written;
        self.metrics.wal_records.inc();
        self.metrics.wal_bytes.add(written);
        self.refresh_gauges();
        Ok(())
    }

    /// Resets the WAL for the epoch that begins after the last seal
    /// (fsyncing the new header and the directory under every policy).
    /// Called immediately after [`ColdTier::seal_epoch`]; the atomic
    /// tmp-and-rename means a crash here leaves either the old (now stale)
    /// WAL or the new empty one, both of which recovery handles.
    pub fn wal_reset(&mut self) -> Result<(), SegmentError> {
        let fault = self.tick()?;
        match fault {
            Some(FaultMode::CleanStop) | Some(FaultMode::TornWrite) => {
                // Either way the reset never happens: the stale WAL stays,
                // which is exactly the crash window this op closes.
                return Err(self.die(SegmentError::InjectedFault { op: self.op }));
            }
            _ => {}
        }
        let old_bytes = self.wal.as_ref().map(|w| w.bytes_written()).unwrap_or(0);
        let wal = WalWriter::create(&self.dir, self.next_seq)?;
        self.metrics.fsyncs.add(wal.fsyncs());
        self.disk_bytes = self
            .disk_bytes
            .saturating_sub(old_bytes)
            .saturating_add(wal::WAL_HEADER_BYTES);
        self.wal = Some(wal);
        self.refresh_gauges();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megastream_datastore::summary::{Lineage, StoredSummary, Summary};
    use megastream_flow::record::FlowRecord;
    use megastream_flow::time::TimeWindow;
    use megastream_primitives::sampling::SampledSeries;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mtier-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn summary(i: u64) -> StoredSummary {
        StoredSummary::new(
            format!("region-{i}"),
            TimeWindow::starting_at(
                Timestamp::from_secs(i),
                megastream_flow::time::TimeDelta::from_secs(60),
            ),
            Summary::Series(SampledSeries::default()),
            Lineage::from_source("router-0-0"),
        )
    }

    fn wal_rec(i: u64) -> WalRecord {
        WalRecord {
            rr: i,
            region: 0,
            router: 0,
            record: FlowRecord {
                ts: Timestamp::from_secs(i),
                proto: 17,
                src_ip: megastream_flow::addr::Ipv4Addr::new(1),
                dst_ip: megastream_flow::addr::Ipv4Addr::new(2),
                src_port: 1,
                dst_port: 2,
                packets: 1,
                bytes: 64,
            },
        }
    }

    #[test]
    fn write_seal_recover_cycle() {
        let d = dir("cycle");
        let mut tier = ColdTier::create(&d, SyncPolicy::Off, Telemetry::disabled()).unwrap();
        tier.wal_append(&wal_rec(0)).unwrap();
        tier.begin_epoch(Timestamp::from_secs(60)).unwrap();
        tier.append_frame(&Frame::Exported {
            region: 0,
            summary: summary(1),
        })
        .unwrap();
        tier.seal_epoch().unwrap();
        tier.wal_reset().unwrap();
        tier.wal_append(&wal_rec(1)).unwrap();
        drop(tier);

        let (tier, report) = ColdTier::open(&d, SyncPolicy::Off, Telemetry::disabled()).unwrap();
        assert_eq!(report.bundles.len(), 1);
        assert_eq!(report.bundles[0].frames.len(), 1);
        assert_eq!(report.wal_records, vec![wal_rec(1)]);
        assert_eq!(report.torn_frames, 0);
        assert_eq!(report.corrupt_frames, 0);
        assert!(!report.stale_wal_dropped);
        assert_eq!(tier.next_seq(), 2);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn torn_write_mid_rotation_truncates() {
        let d = dir("torn");
        let mut tier = ColdTier::create(&d, SyncPolicy::Off, Telemetry::disabled()).unwrap();
        tier.begin_epoch(Timestamp::from_secs(60)).unwrap();
        tier.append_frame(&Frame::Exported {
            region: 0,
            summary: summary(1),
        })
        .unwrap();
        tier.set_fault(Some(FaultSpec {
            at_op: tier.ops() + 1,
            mode: FaultMode::TornWrite,
        }));
        let err = tier
            .append_frame(&Frame::Exported {
                region: 1,
                summary: summary(2),
            })
            .unwrap_err();
        assert!(matches!(err, SegmentError::InjectedFault { .. }));
        assert!(tier.is_dead());
        assert!(matches!(
            tier.append_frame(&Frame::Exported {
                region: 1,
                summary: summary(2)
            }),
            Err(SegmentError::TierDead)
        ));
        drop(tier);

        let (_, report) = ColdTier::open(&d, SyncPolicy::Off, Telemetry::disabled()).unwrap();
        // The open segment never sealed: discarded, torn tail counted.
        assert!(report.bundles.is_empty());
        assert!(report.discarded_open_segment);
        assert_eq!(report.torn_frames, 1);
        assert!(report.truncated_bytes > 0);
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn bit_flip_is_quarantined_on_recovery() {
        let d = dir("flip");
        let mut tier = ColdTier::create(&d, SyncPolicy::Off, Telemetry::disabled()).unwrap();
        tier.begin_epoch(Timestamp::from_secs(60)).unwrap();
        tier.set_fault(Some(FaultSpec {
            at_op: tier.ops() + 1,
            mode: FaultMode::BitFlip,
        }));
        tier.append_frame(&Frame::Exported {
            region: 0,
            summary: summary(1),
        })
        .unwrap();
        assert!(!tier.is_dead());
        tier.append_frame(&Frame::Exported {
            region: 1,
            summary: summary(2),
        })
        .unwrap();
        tier.seal_epoch().unwrap();
        tier.wal_reset().unwrap();
        drop(tier);

        let (_, report) = ColdTier::open(&d, SyncPolicy::Off, Telemetry::disabled()).unwrap();
        assert_eq!(report.corrupt_frames, 1);
        assert_eq!(report.repaired_segments, 1);
        assert_eq!(report.bundles[0].frames.len(), 1);
        assert!(d.join("quarantine").read_dir().unwrap().next().is_some());

        // Second open: the rewrite removed the bad frame, so now clean.
        let (_, report2) = ColdTier::open(&d, SyncPolicy::Off, Telemetry::disabled()).unwrap();
        assert_eq!(report2.corrupt_frames, 0);
        fs::remove_dir_all(&d).unwrap();
    }

    /// Runs one rotation's worth of tier ops — `wal` WAL appends, then a
    /// segment of `frames` frames, sealed, and a WAL reset.
    fn rotation(tier: &mut ColdTier, epoch: u64, wal: u64, frames: u64) {
        for i in 0..wal {
            tier.wal_append(&wal_rec(epoch * 100 + i)).unwrap();
        }
        tier.begin_epoch(Timestamp::from_secs(60 * epoch)).unwrap();
        for i in 0..frames {
            tier.append_frame(&Frame::Exported {
                region: 0,
                summary: summary(i),
            })
            .unwrap();
        }
        tier.seal_epoch().unwrap();
        tier.wal_reset().unwrap();
    }

    fn counter(tel: &Telemetry, name: &str) -> u64 {
        tel.snapshot().counter(name).unwrap_or(0)
    }

    #[test]
    fn fsync_count_per_rotation_is_pinned_per_policy() {
        const WAL: u64 = 5;
        const FRAMES: u64 = 3;
        // (policy, fsyncs per rotation): the WAL reset's header + directory
        // syncs and the seal's directory sync always happen; `OnSeal` adds
        // the sealed data; `WriteThrough` also syncs every append.
        for (policy, per_rotation) in [
            (SyncPolicy::Off, 3),
            (SyncPolicy::OnSeal, 4),
            (SyncPolicy::WriteThrough, 4 + WAL + FRAMES),
        ] {
            let d = dir(&format!("fsync-{policy:?}"));
            let tel = Telemetry::new();
            let mut tier = ColdTier::create(&d, policy, tel.clone()).unwrap();
            // Creating the tier writes its first WAL header: 2 fsyncs.
            assert_eq!(counter(&tel, "storage.segments.fsync_total"), 2);
            for epoch in 1..=3 {
                let before = counter(&tel, "storage.segments.fsync_total");
                rotation(&mut tier, epoch, WAL, FRAMES);
                let issued = counter(&tel, "storage.segments.fsync_total") - before;
                assert_eq!(issued, per_rotation, "{policy:?} epoch {epoch}");
            }
            drop(tier);
            // Reopening writes a fresh WAL header: 2 more.
            let before = counter(&tel, "storage.segments.fsync_total");
            let (_tier, _) = ColdTier::open(&d, policy, tel.clone()).unwrap();
            assert_eq!(counter(&tel, "storage.segments.fsync_total") - before, 2);
            fs::remove_dir_all(&d).unwrap();
        }
    }

    #[test]
    fn wal_and_disk_metrics_match_what_was_written() {
        let d = dir("metrics");
        let tel = Telemetry::new();
        let mut tier = ColdTier::create(&d, SyncPolicy::OnSeal, tel.clone()).unwrap();
        let disk = |d: &Path| -> i64 {
            fs::read_dir(d)
                .unwrap()
                .map(|e| e.unwrap().metadata().unwrap())
                .filter(|m| m.is_file())
                .map(|m| m.len() as i64)
                .sum()
        };
        let active = || tel.snapshot().gauge("storage.segments.active_bytes");
        assert_eq!(active(), Some(disk(&d)));
        let mut appended = 0;
        for i in 0..40 {
            tier.wal_append(&wal_rec(i)).unwrap();
            appended += WalWriter::chunk_for(&wal_rec(i)).len() as u64;
        }
        assert_eq!(counter(&tel, "storage.wal.records_total"), 40);
        assert_eq!(counter(&tel, "storage.wal.bytes_total"), appended);
        let wal_len = fs::metadata(d.join(WAL_FILE)).unwrap().len();
        assert_eq!(wal_len, wal::WAL_HEADER_BYTES + appended);
        assert_eq!(active(), Some(disk(&d)));
        // A rotation resets the WAL; the counters are cumulative and the
        // gauge keeps tracking the directory.
        rotation(&mut tier, 1, 7, 2);
        assert_eq!(counter(&tel, "storage.wal.records_total"), 47);
        assert_eq!(counter(&tel, "storage.segments.frames_total"), 2);
        assert_eq!(counter(&tel, "storage.segments.sealed_total"), 1);
        assert_eq!(active(), Some(disk(&d)));
        fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn stale_wal_dropped_after_seal() {
        let d = dir("stale");
        let mut tier = ColdTier::create(&d, SyncPolicy::Off, Telemetry::disabled()).unwrap();
        tier.wal_append(&wal_rec(0)).unwrap();
        tier.begin_epoch(Timestamp::from_secs(60)).unwrap();
        tier.append_frame(&Frame::Exported {
            region: 0,
            summary: summary(1),
        })
        .unwrap();
        tier.seal_epoch().unwrap();
        // Crash before wal_reset: the WAL still carries seq 1 ≤ sealed 1.
        tier.set_fault(Some(FaultSpec {
            at_op: tier.ops() + 1,
            mode: FaultMode::CleanStop,
        }));
        assert!(tier.wal_reset().is_err());
        drop(tier);

        let (_, report) = ColdTier::open(&d, SyncPolicy::Off, Telemetry::disabled()).unwrap();
        assert!(report.stale_wal_dropped);
        assert!(report.wal_records.is_empty());
        assert_eq!(report.bundles.len(), 1);
        fs::remove_dir_all(&d).unwrap();
    }
}
