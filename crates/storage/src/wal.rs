//! The ingest write-ahead log: durable backing for records of the current
//! (not yet rotated) epoch.
//!
//! Sealed segments cover everything up to the last rotation; the WAL covers
//! the tail. One record is appended per ingested flow *before* the record
//! touches any aggregator, so a WAL'd record is always fully applied (the
//! in-memory ingest path after the append is infallible) and an un-WAL'd
//! record was never applied — the client may simply re-send it
//! (at-least-once delivery with exactly-once effect).
//!
//! The header carries the epoch sequence the log belongs to. After a
//! rotation seals segment *N*, the WAL is reset (tmp file + atomic rename)
//! with sequence *N+1*; a crash between seal and reset therefore leaves a
//! *stale* WAL (`seq ≤` last sealed), which recovery detects and drops —
//! its records were already replayed from the sealed segment.
//!
//! ```text
//! header  "MWAL" | version u32 | epoch_seq u64 | crc u32
//! record* len u32 | crc u32 | payload (rr u64, region u32, router u32, flow record)
//! ```

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use megastream_flow::record::FlowRecord;

use crate::codec::{dec_flow_record, enc_flow_record, Reader};
use crate::crc::crc32;
use crate::segment::{io_err, sync_dir, FORMAT_VERSION, MAX_FRAME_BYTES};
use crate::SegmentError;

/// Magic bytes opening the WAL.
pub const WAL_MAGIC: [u8; 4] = *b"MWAL";
/// Name of the WAL file inside a cold-tier directory.
pub const WAL_FILE: &str = "ingest.wal";
/// Size of the fixed WAL header.
pub const WAL_HEADER_BYTES: u64 = 20;

/// One logged ingest: enough to replay the record through the normal
/// ingest path and to restore the round-robin cursor afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord {
    /// The round-robin cursor *after* this ingest (the post-state, so the
    /// last replayed record pins the cursor exactly).
    pub rr: u64,
    /// Destination region.
    pub region: u32,
    /// Destination router within the region.
    pub router: u32,
    /// The flow record itself.
    pub record: FlowRecord,
}

/// Encodes a record's full chunk (`[len][crc][payload]`) into `buf`,
/// replacing its contents.
fn encode_chunk(buf: &mut Vec<u8>, rec: &WalRecord) {
    buf.clear();
    buf.extend_from_slice(&[0; 8]);
    buf.extend_from_slice(&rec.rr.to_le_bytes());
    buf.extend_from_slice(&rec.region.to_le_bytes());
    buf.extend_from_slice(&rec.router.to_le_bytes());
    enc_flow_record(buf, &rec.record);
    let payload = buf.get(8..).unwrap_or_default();
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(payload).to_le_bytes();
    for (dst, src) in buf.iter_mut().zip(len.into_iter().chain(crc)) {
        *dst = src;
    }
}

fn decode_record(payload: &[u8]) -> Result<WalRecord, SegmentError> {
    let mut r = Reader::new(payload);
    let rr = r.u64("wal.rr")?;
    let region = r.u32("wal.region")?;
    let router = r.u32("wal.router")?;
    let record = dec_flow_record(&mut r)?;
    r.finish("wal record trailing bytes")?;
    Ok(WalRecord {
        rr,
        region,
        router,
        record,
    })
}

/// Appends ingest records to `ingest.wal`.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    epoch_seq: u64,
    offset: u64,
    records: u64,
    /// Fsyncs issued so far, the two of [`WalWriter::create`] included.
    fsyncs: u64,
    /// Chunk buffer reused by every append.
    buf: Vec<u8>,
}

impl WalWriter {
    /// Creates a fresh WAL for `epoch_seq`: header written to a tmp file,
    /// fsynced, atomically renamed over `ingest.wal`, directory fsynced —
    /// so the reset itself can never leave a half-written header behind.
    /// Both fsyncs happen under every [`SyncPolicy`](crate::SyncPolicy).
    pub fn create(dir: &Path, epoch_seq: u64) -> Result<Self, SegmentError> {
        let tmp = dir.join("ingest.wal.tmp");
        let path = dir.join(WAL_FILE);
        let mut header = Vec::with_capacity(WAL_HEADER_BYTES as usize);
        header.extend_from_slice(&WAL_MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&epoch_seq.to_le_bytes());
        let crc = crc32(header.get(4..16).unwrap_or_default());
        header.extend_from_slice(&crc.to_le_bytes());
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)
                .map_err(|e| io_err("create wal", &tmp, e))?;
            f.write_all(&header)
                .map_err(|e| io_err("write wal header", &tmp, e))?;
            f.sync_all()
                .map_err(|e| io_err("sync wal header", &tmp, e))?;
        }
        std::fs::rename(&tmp, &path).map_err(|e| io_err("rename wal", &path, e))?;
        sync_dir(dir)?;
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open wal", &path, e))?;
        Ok(WalWriter {
            file,
            path,
            epoch_seq,
            offset: WAL_HEADER_BYTES,
            records: 0,
            fsyncs: 2, // the header and directory syncs above
            buf: Vec::new(),
        })
    }

    /// The epoch this WAL belongs to.
    pub fn epoch_seq(&self) -> u64 {
        self.epoch_seq
    }

    /// Records appended since creation.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes written including the header.
    pub fn bytes_written(&self) -> u64 {
        self.offset
    }

    /// Fsyncs issued so far: the header and directory syncs of
    /// [`WalWriter::create`] plus one per [`WalWriter::sync`].
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Writes raw bytes with no framing (fault-injection hook for torn
    /// appends); normal callers use [`WalWriter::append`].
    pub fn write_raw(&mut self, bytes: &[u8]) -> Result<(), SegmentError> {
        self.file
            .write_all(bytes)
            .map_err(|e| io_err("write wal", &self.path, e))?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Builds the full chunk ([len][crc][payload]) for a record — split out
    /// so the fault injector can write a prefix of it.
    pub fn chunk_for(rec: &WalRecord) -> Vec<u8> {
        let mut chunk = Vec::new();
        encode_chunk(&mut chunk, rec);
        chunk
    }

    /// Appends one record with a single write of its whole chunk (encoded
    /// into a reused buffer); returns bytes written.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64, SegmentError> {
        encode_chunk(&mut self.buf, rec);
        self.file
            .write_all(&self.buf)
            .map_err(|e| io_err("write wal", &self.path, e))?;
        let written = self.buf.len() as u64;
        self.offset += written;
        self.records += 1;
        Ok(written)
    }

    /// Fsyncs the log (write-through sync policy).
    pub fn sync(&mut self) -> Result<(), SegmentError> {
        self.file
            .sync_all()
            .map_err(|e| io_err("sync wal", &self.path, e))?;
        self.fsyncs += 1;
        Ok(())
    }
}

/// Result of scanning a WAL file on recovery.
#[derive(Debug)]
pub struct WalScan {
    /// Epoch sequence from the header; `0` when the header itself was
    /// unreadable (always stale, so the records — there are none — drop).
    pub epoch_seq: u64,
    /// Records that decoded cleanly, in append order.
    pub records: Vec<WalRecord>,
    /// Torn records truncated from the tail.
    pub torn_frames: u64,
    /// Bytes discarded as torn tail.
    pub truncated_bytes: u64,
}

/// Reads the WAL, tolerating a torn tail. Returns `Ok(None)` if the file
/// does not exist (fresh directory, or a crash between WAL-tmp creation and
/// rename — either way there is nothing to replay). A header that checks
/// out but carries another format version is refused with
/// [`SegmentError::UnsupportedVersion`]: its records are not replayed.
pub fn read_wal(path: &Path) -> Result<Option<WalScan>, SegmentError> {
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("read wal", path, e)),
    };
    let mut scan = WalScan {
        epoch_seq: 0,
        records: Vec::new(),
        torn_frames: 0,
        truncated_bytes: 0,
    };
    let header = match data.get(..WAL_HEADER_BYTES as usize) {
        Some(h) => h,
        None => {
            scan.torn_frames = 1;
            scan.truncated_bytes = data.len() as u64;
            return Ok(Some(scan));
        }
    };
    let magic_ok = header.get(..4) == Some(&WAL_MAGIC[..]);
    let stored_crc = u32_at(header, 16);
    let crc_ok = crc32(header.get(4..16).unwrap_or_default()) == stored_crc;
    if !magic_ok || !crc_ok {
        scan.torn_frames = 1;
        scan.truncated_bytes = data.len() as u64;
        return Ok(Some(scan));
    }
    let version = u32_at(header, 4);
    if version != FORMAT_VERSION {
        return Err(SegmentError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
        });
    }
    scan.epoch_seq = u64_at(header, 8);

    let mut pos = WAL_HEADER_BYTES as usize;
    while pos < data.len() {
        let remaining = data.len() - pos;
        let header = match data.get(pos..pos + 8) {
            Some(h) => h,
            None => {
                scan.torn_frames += 1;
                scan.truncated_bytes += remaining as u64;
                break;
            }
        };
        let len = u32_at(header, 0) as usize;
        let crc = u32_at(header, 4);
        if len as u64 > MAX_FRAME_BYTES || pos + 8 + len > data.len() {
            scan.torn_frames += 1;
            scan.truncated_bytes += remaining as u64;
            break;
        }
        let payload = data.get(pos + 8..pos + 8 + len).unwrap_or_default();
        if crc32(payload) != crc {
            scan.torn_frames += 1;
            scan.truncated_bytes += remaining as u64;
            break;
        }
        match decode_record(payload) {
            Ok(rec) => scan.records.push(rec),
            Err(_) => {
                scan.torn_frames += 1;
                scan.truncated_bytes += remaining as u64;
                break;
            }
        }
        pos += 8 + len;
    }
    Ok(Some(scan))
}

fn u32_at(buf: &[u8], at: usize) -> u32 {
    let mut a = [0u8; 4];
    for (dst, src) in a.iter_mut().zip(buf.iter().skip(at)) {
        *dst = *src;
    }
    u32::from_le_bytes(a)
}

fn u64_at(buf: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    for (dst, src) in a.iter_mut().zip(buf.iter().skip(at)) {
        *dst = *src;
    }
    u64::from_le_bytes(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use megastream_flow::time::Timestamp;

    fn rec(i: u64) -> WalRecord {
        WalRecord {
            rr: i,
            region: (i % 3) as u32,
            router: (i % 2) as u32,
            record: FlowRecord {
                ts: Timestamp::from_secs(i),
                proto: 6,
                src_ip: megastream_flow::addr::Ipv4Addr::new(0x0a000001 + i as u32),
                dst_ip: megastream_flow::addr::Ipv4Addr::new(0x01010101),
                src_port: 1000,
                dst_port: 80,
                packets: i,
                bytes: i * 100,
            },
        }
    }

    #[test]
    fn roundtrip_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!("mwal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = WalWriter::create(&dir, 3).unwrap();
        for i in 0..5 {
            w.append(&rec(i)).unwrap();
        }
        // Torn sixth record.
        let chunk = WalWriter::chunk_for(&rec(5));
        w.write_raw(&chunk[..chunk.len() / 2]).unwrap();
        let scan = read_wal(&dir.join(WAL_FILE)).unwrap().unwrap();
        assert_eq!(scan.epoch_seq, 3);
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.records[4], rec(4));
        assert_eq!(scan.torn_frames, 1);
        assert!(scan.truncated_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_none() {
        let p = std::env::temp_dir().join("mwal-definitely-missing.wal");
        assert!(read_wal(&p).unwrap().is_none());
    }
}
