//! Epoch segment files: append-only, checksummed, sealed by atomic rename.
//!
//! One segment per rotation. The in-progress file is always
//! `segment.open`; sealing appends the frame index, optionally fsyncs, and
//! renames to `epoch-<seq>.seg` (zero-padded so lexical order is epoch
//! order), then fsyncs the directory. A crash therefore leaves either a
//! sealed segment (fully trustworthy modulo later bit rot, which the
//! per-frame CRCs catch) or a `segment.open` whose epoch never committed
//! and is discarded wholesale on recovery.
//!
//! ## File layout
//!
//! ```text
//! header   "MSEG" | version u32 | epoch_seq u64 | at u64 | crc u32
//! frame*   len u32 | crc u32 | payload (kind u8 + body)
//! index    count u32 | (offset u64, len u32, crc u32, kind u8)*   (seal only)
//! trailer  index crc u32 | index_off u64 | "MIDX"
//! ```
//!
//! The index is a sorted run over the frames (offsets ascend by
//! construction), so a verifier can jump straight to any frame; readers
//! fall back to a linear scan when the trailer is missing or damaged, so a
//! valid index is an optimization, never a correctness requirement.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use megastream_flow::time::Timestamp;

use crate::codec::{dec_stored_summary, enc_stored_summary, Reader};
use crate::crc::crc32;
use crate::{EpochMeta, Frame, RegionStatsSnapshot, SegmentError};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"MSEG";
/// Magic bytes closing every sealed segment.
pub const INDEX_MAGIC: [u8; 4] = *b"MIDX";
/// On-disk format version, stamped in every segment and WAL header; a
/// file carrying any other version is refused with
/// [`SegmentError::UnsupportedVersion`]. Version 2 writes Flowtree nodes
/// relative to their parents (see [`crate::codec`]).
pub const FORMAT_VERSION: u32 = 2;
/// Largest frame the reader will accept (64 MiB): no real summary comes
/// close, so a larger length prefix is garbage and scanning stops.
pub const MAX_FRAME_BYTES: u64 = 1 << 26;

/// Size of the fixed header.
pub const HEADER_BYTES: u64 = 28;
/// Name of the in-progress segment file.
pub const OPEN_SEGMENT: &str = "segment.open";

/// The filename of the sealed segment for `epoch_seq`.
pub fn sealed_name(epoch_seq: u64) -> String {
    format!("epoch-{epoch_seq:020}.seg")
}

/// Parses `epoch-<seq>.seg` back to the sequence number.
pub fn parse_sealed_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("epoch-")?.strip_suffix(".seg")?;
    rest.parse().ok()
}

pub(crate) fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> SegmentError {
    SegmentError::Io {
        op,
        path: path.to_path_buf(),
        kind: e.kind(),
    }
}

/// Fsyncs a directory so a just-renamed file inside it is durable.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), SegmentError> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("sync dir", dir, e))
}

// ---------------------------------------------------------------------------
// Frame codec.
// ---------------------------------------------------------------------------

const KIND_FLUSHED: u8 = 0;
const KIND_EXPORTED: u8 = 1;
const KIND_PARKED: u8 = 2;
const KIND_META: u8 = 3;

/// Encodes a frame to its payload bytes (kind tag + body).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match frame {
        Frame::Flushed { region, summary } => {
            out.push(KIND_FLUSHED);
            out.extend_from_slice(&region.to_le_bytes());
            enc_stored_summary(&mut out, summary);
        }
        Frame::Exported { region, summary } => {
            out.push(KIND_EXPORTED);
            out.extend_from_slice(&region.to_le_bytes());
            enc_stored_summary(&mut out, summary);
        }
        Frame::Parked { region, summary } => {
            out.push(KIND_PARKED);
            out.extend_from_slice(&region.to_le_bytes());
            enc_stored_summary(&mut out, summary);
        }
        Frame::Meta(meta) => {
            out.push(KIND_META);
            enc_meta(&mut out, meta);
        }
    }
    out
}

/// Decodes a frame payload produced by [`encode_frame`].
pub fn decode_frame(payload: &[u8]) -> Result<Frame, SegmentError> {
    let mut r = Reader::new(payload);
    let kind = r.u8("frame kind")?;
    let frame = match kind {
        KIND_FLUSHED | KIND_EXPORTED | KIND_PARKED => {
            let region = r.u32("frame region")?;
            let summary = dec_stored_summary(&mut r)?;
            match kind {
                KIND_FLUSHED => Frame::Flushed { region, summary },
                KIND_EXPORTED => Frame::Exported { region, summary },
                _ => Frame::Parked { region, summary },
            }
        }
        KIND_META => Frame::Meta(dec_meta(&mut r)?),
        _ => {
            return Err(SegmentError::Malformed {
                what: "unknown frame kind",
            })
        }
    };
    r.finish("frame trailing bytes")?;
    Ok(frame)
}

/// The frame's kind tag (for index entries).
pub fn frame_kind(frame: &Frame) -> u8 {
    match frame {
        Frame::Flushed { .. } => KIND_FLUSHED,
        Frame::Exported { .. } => KIND_EXPORTED,
        Frame::Parked { .. } => KIND_PARKED,
        Frame::Meta(_) => KIND_META,
    }
}

fn enc_meta(out: &mut Vec<u8>, meta: &EpochMeta) {
    out.extend_from_slice(&meta.now.as_micros().to_le_bytes());
    out.extend_from_slice(&meta.rr.to_le_bytes());
    for v in [
        meta.export_retries,
        meta.spilled,
        meta.flushed,
        meta.dropped,
        meta.dropped_bytes,
        meta.raw_deferrals,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(meta.raw_pending.len() as u32).to_le_bytes());
    for row in &meta.raw_pending {
        out.extend_from_slice(&(row.len() as u32).to_le_bytes());
        for v in row {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out.extend_from_slice(&(meta.region_stats.len() as u32).to_le_bytes());
    for s in &meta.region_stats {
        out.extend_from_slice(&s.flows.to_le_bytes());
        out.extend_from_slice(&s.scalars.to_le_bytes());
        out.extend_from_slice(&s.raw_bytes.to_le_bytes());
    }
}

fn dec_meta(r: &mut Reader<'_>) -> Result<EpochMeta, SegmentError> {
    let now = Timestamp::from_micros(r.u64("meta.now")?);
    let rr = r.u64("meta.rr")?;
    let export_retries = r.u64("meta.counter")?;
    let spilled = r.u64("meta.counter")?;
    let flushed = r.u64("meta.counter")?;
    let dropped = r.u64("meta.counter")?;
    let dropped_bytes = r.u64("meta.counter")?;
    let raw_deferrals = r.u64("meta.counter")?;
    let regions = r.count(4, "meta.raw_pending")?;
    let mut raw_pending = Vec::with_capacity(regions);
    for _ in 0..regions {
        let routers = r.count(8, "meta.raw_pending row")?;
        let mut row = Vec::with_capacity(routers);
        for _ in 0..routers {
            row.push(r.u64("meta.raw_pending value")?);
        }
        raw_pending.push(row);
    }
    let n = r.count(24, "meta.region_stats")?;
    let mut region_stats = Vec::with_capacity(n);
    for _ in 0..n {
        region_stats.push(RegionStatsSnapshot {
            flows: r.u64("meta.stats.flows")?,
            scalars: r.u64("meta.stats.scalars")?,
            raw_bytes: r.u64("meta.stats.raw_bytes")?,
        });
    }
    Ok(EpochMeta {
        now,
        rr,
        export_retries,
        spilled,
        flushed,
        dropped,
        dropped_bytes,
        raw_deferrals,
        raw_pending,
        region_stats,
    })
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// One index entry: where a frame lives and what its checksum should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Byte offset of the frame's length prefix.
    pub offset: u64,
    /// Payload length.
    pub len: u32,
    /// Payload CRC-32 as stored in the frame header.
    pub crc: u32,
    /// Frame kind tag.
    pub kind: u8,
}

const INDEX_ENTRY_BYTES: usize = 17;

/// Appends frames to `segment.open` and seals it into `epoch-<seq>.seg`.
#[derive(Debug)]
pub struct SegmentWriter {
    file: File,
    dir: PathBuf,
    path: PathBuf,
    epoch_seq: u64,
    offset: u64,
    entries: Vec<FrameInfo>,
}

impl SegmentWriter {
    /// Creates (truncating) `segment.open` under `dir` and writes the
    /// header for `epoch_seq`.
    pub fn create(dir: &Path, epoch_seq: u64, at: Timestamp) -> Result<Self, SegmentError> {
        Self::create_named(dir, OPEN_SEGMENT, epoch_seq, at)
    }

    /// Like [`SegmentWriter::create`] but with an explicit working filename
    /// — the repair path rebuilds a sealed segment via a `.tmp` file so it
    /// never clobbers an in-progress `segment.open`.
    pub fn create_named(
        dir: &Path,
        name: &str,
        epoch_seq: u64,
        at: Timestamp,
    ) -> Result<Self, SegmentError> {
        let path = dir.join(name);
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create segment", &path, e))?;
        let mut header = Vec::with_capacity(HEADER_BYTES as usize);
        header.extend_from_slice(&SEGMENT_MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&epoch_seq.to_le_bytes());
        header.extend_from_slice(&at.as_micros().to_le_bytes());
        let crc = crc32(header.get(4..24).unwrap_or_default());
        header.extend_from_slice(&crc.to_le_bytes());
        let mut w = SegmentWriter {
            file,
            dir: dir.to_path_buf(),
            path,
            epoch_seq,
            offset: 0,
            entries: Vec::new(),
        };
        w.write_raw(&header)?;
        Ok(w)
    }

    /// The epoch this segment records.
    pub fn epoch_seq(&self) -> u64 {
        self.epoch_seq
    }

    /// Bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.offset
    }

    /// Frames appended so far.
    pub fn frame_count(&self) -> usize {
        self.entries.len()
    }

    /// Writes raw bytes with no framing or index entry. Exposed so the
    /// fault injector can produce genuinely torn tails; normal callers use
    /// [`SegmentWriter::append_frame`].
    pub fn write_raw(&mut self, bytes: &[u8]) -> Result<(), SegmentError> {
        self.file
            .write_all(bytes)
            .map_err(|e| io_err("write segment", &self.path, e))?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    /// Appends one frame chunk with the caller-supplied payload bytes and
    /// *stored* CRC. In normal operation `crc == crc32(payload)`; the
    /// bit-flip fault injector passes the clean CRC with corrupted bytes so
    /// the mismatch is persisted exactly as real bit rot would look.
    pub fn append_frame_parts(
        &mut self,
        kind: u8,
        payload: &[u8],
        crc: u32,
    ) -> Result<u64, SegmentError> {
        let offset = self.offset;
        let len = u32::try_from(payload.len()).map_err(|_| SegmentError::FrameTooLarge {
            len: payload.len() as u64,
            max: MAX_FRAME_BYTES,
        })?;
        if u64::from(len) > MAX_FRAME_BYTES {
            return Err(SegmentError::FrameTooLarge {
                len: u64::from(len),
                max: MAX_FRAME_BYTES,
            });
        }
        let mut chunk = Vec::with_capacity(8 + payload.len());
        chunk.extend_from_slice(&len.to_le_bytes());
        chunk.extend_from_slice(&crc.to_le_bytes());
        chunk.extend_from_slice(payload);
        self.write_raw(&chunk)?;
        self.entries.push(FrameInfo {
            offset,
            len,
            crc,
            kind,
        });
        Ok(chunk.len() as u64)
    }

    /// Encodes and appends one frame; returns bytes written.
    pub fn append_frame(&mut self, frame: &Frame) -> Result<u64, SegmentError> {
        let payload = encode_frame(frame);
        let crc = crc32(&payload);
        self.append_frame_parts(frame_kind(frame), &payload, crc)
    }

    /// Fsyncs the data written so far (write-through sync policy).
    pub fn sync(&self) -> Result<(), SegmentError> {
        self.file
            .sync_all()
            .map_err(|e| io_err("sync segment", &self.path, e))
    }

    /// Seals the segment: appends the frame index and trailer, optionally
    /// fsyncs the file, atomically renames it to its sealed name, and
    /// fsyncs the directory (always, whatever `fsync` says). Returns the
    /// sealed path and the number of fsyncs issued.
    pub fn seal(mut self, fsync: bool) -> Result<(PathBuf, u64), SegmentError> {
        let index_off = self.offset;
        let mut block = Vec::with_capacity(4 + self.entries.len() * INDEX_ENTRY_BYTES);
        block.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for e in &self.entries {
            block.extend_from_slice(&e.offset.to_le_bytes());
            block.extend_from_slice(&e.len.to_le_bytes());
            block.extend_from_slice(&e.crc.to_le_bytes());
            block.push(e.kind);
        }
        let crc = crc32(&block);
        let mut tail = block;
        tail.extend_from_slice(&crc.to_le_bytes());
        tail.extend_from_slice(&index_off.to_le_bytes());
        tail.extend_from_slice(&INDEX_MAGIC);
        self.write_raw(&tail)?;
        let mut fsyncs = 0;
        if fsync {
            self.sync()?;
            fsyncs += 1;
        }
        let sealed = self.dir.join(sealed_name(self.epoch_seq));
        fs::rename(&self.path, &sealed).map_err(|e| io_err("seal rename", &sealed, e))?;
        sync_dir(&self.dir)?;
        fsyncs += 1;
        Ok((sealed, fsyncs))
    }
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

/// A frame whose stored and computed checksums disagree (or whose payload
/// no longer decodes): quarantined, never replayed.
#[derive(Debug, Clone)]
pub struct CorruptFrame {
    /// Byte offset of the frame's length prefix.
    pub offset: u64,
    /// Stored CRC.
    pub stored_crc: u32,
    /// CRC recomputed over the payload bytes on disk.
    pub computed_crc: u32,
    /// The raw payload bytes (saved to the quarantine sidecar).
    pub bytes: Vec<u8>,
}

/// Everything a scan of one segment file learned.
#[derive(Debug)]
pub struct SegmentScan {
    /// Epoch sequence from the header.
    pub epoch_seq: u64,
    /// Rotation timestamp from the header.
    pub at: Timestamp,
    /// Frames that decoded cleanly, in file order.
    pub frames: Vec<Frame>,
    /// Index info for each clean frame, in file order.
    pub frame_infos: Vec<FrameInfo>,
    /// Frames failing their checksum or decode (sealed segments only).
    pub corrupt: Vec<CorruptFrame>,
    /// Torn (partially written) frames truncated from an unsealed tail.
    pub torn_frames: u64,
    /// Bytes discarded as torn tail.
    pub truncated_bytes: u64,
    /// Whether a valid trailer index was present and matched the scan.
    pub index_ok: bool,
}

/// Reads and verifies one segment file. `sealed` selects the trust model:
/// a sealed segment treats checksum failures as *corruption* (bit rot in
/// committed data — quarantine), an unsealed one treats the first failure
/// as a *torn tail* (the crash point — truncate and stop).
pub fn read_segment(path: &Path, sealed: bool) -> Result<SegmentScan, SegmentError> {
    let data = fs::read(path).map_err(|e| io_err("read segment", path, e))?;
    scan_segment_bytes(path, &data, sealed)
}

fn scan_segment_bytes(path: &Path, data: &[u8], sealed: bool) -> Result<SegmentScan, SegmentError> {
    // Header.
    let header = data
        .get(..HEADER_BYTES as usize)
        .ok_or(SegmentError::Truncated {
            what: "segment header",
            needed: HEADER_BYTES,
            available: data.len() as u64,
        })?;
    let magic = header.get(..4).unwrap_or_default();
    if magic != SEGMENT_MAGIC {
        let mut found = [0u8; 4];
        for (dst, src) in found.iter_mut().zip(magic.iter()) {
            *dst = *src;
        }
        return Err(SegmentError::BadMagic {
            path: path.to_path_buf(),
            found,
        });
    }
    let stored_crc = read_u32(header, 24);
    let computed = crc32(header.get(4..24).unwrap_or_default());
    if stored_crc != computed {
        return Err(SegmentError::Checksum {
            offset: 24,
            stored: stored_crc,
            computed,
        });
    }
    let version = read_u32(header, 4);
    if version != FORMAT_VERSION {
        return Err(SegmentError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
        });
    }
    let epoch_seq = read_u64(header, 8);
    let at = Timestamp::from_micros(read_u64(header, 16));

    // Locate the end of the frame region: the trailer index for sealed
    // segments, end-of-file otherwise. A bad index downgrades to a linear
    // scan to end-of-data.
    let mut index_ok = false;
    let mut frames_end = data.len();
    if sealed {
        if let Some((index_off, entries)) = parse_index(data) {
            index_ok = true;
            frames_end = index_off;
            let _ = entries; // verified below against the scan
        }
    }

    let mut scan = SegmentScan {
        epoch_seq,
        at,
        frames: Vec::new(),
        frame_infos: Vec::new(),
        corrupt: Vec::new(),
        torn_frames: 0,
        truncated_bytes: 0,
        index_ok,
    };

    let mut pos = HEADER_BYTES as usize;
    while pos < frames_end {
        let remaining = frames_end - pos;
        // A frame needs at least its 8-byte chunk header.
        let (len, crc) = match data.get(pos..pos + 8) {
            Some(h) if remaining >= 8 => (read_u32(h, 0) as usize, read_u32(h, 4)),
            _ => {
                scan.torn_frames += 1;
                scan.truncated_bytes += remaining as u64;
                break;
            }
        };
        if len as u64 > MAX_FRAME_BYTES || pos + 8 + len > frames_end {
            // Length prefix is garbage or runs past the data: no resync
            // possible — everything from here is torn/corrupt.
            scan.torn_frames += 1;
            scan.truncated_bytes += remaining as u64;
            break;
        }
        let payload = data.get(pos + 8..pos + 8 + len).unwrap_or_default();
        let computed = crc32(payload);
        if computed != crc {
            if sealed {
                scan.corrupt.push(CorruptFrame {
                    offset: pos as u64,
                    stored_crc: crc,
                    computed_crc: computed,
                    bytes: payload.to_vec(),
                });
                pos += 8 + len;
                continue;
            }
            scan.torn_frames += 1;
            scan.truncated_bytes += remaining as u64;
            break;
        }
        match decode_frame(payload) {
            Ok(frame) => {
                scan.frame_infos.push(FrameInfo {
                    offset: pos as u64,
                    len: len as u32,
                    crc,
                    kind: frame_kind(&frame),
                });
                scan.frames.push(frame);
            }
            Err(_) if sealed => {
                scan.corrupt.push(CorruptFrame {
                    offset: pos as u64,
                    stored_crc: crc,
                    computed_crc: computed,
                    bytes: payload.to_vec(),
                });
            }
            Err(_) => {
                scan.torn_frames += 1;
                scan.truncated_bytes += remaining as u64;
                break;
            }
        }
        pos += 8 + len;
    }

    // Cross-check the index against the scan. When frames were quarantined
    // the index still describes the file faithfully (it lists the damaged
    // frame too); only a mismatch on a clean file demotes it.
    if index_ok && scan.corrupt.is_empty() {
        if let Some((_, entries)) = parse_index(data) {
            scan.index_ok = entries == scan.frame_infos;
        }
    }
    Ok(scan)
}

/// Parses the trailer index of a sealed segment, returning the index
/// offset and entries, or `None` if missing/damaged.
fn parse_index(data: &[u8]) -> Option<(usize, Vec<FrameInfo>)> {
    if data.len() < 16 + HEADER_BYTES as usize {
        return None;
    }
    let tail_start = data.len() - 12;
    if data.get(data.len() - 4..) != Some(&INDEX_MAGIC[..]) {
        return None;
    }
    let index_off = read_u64(data.get(tail_start..tail_start + 8)?, 0) as usize;
    if index_off < HEADER_BYTES as usize || index_off + 16 > data.len() {
        return None;
    }
    let block = data.get(index_off..data.len() - 16)?;
    let stored_crc = read_u32(data.get(data.len() - 16..data.len() - 12)?, 0);
    if crc32(block) != stored_crc {
        return None;
    }
    let count = read_u32(block.get(..4)?, 0) as usize;
    if count.checked_mul(INDEX_ENTRY_BYTES)? != block.len().checked_sub(4)? {
        return None;
    }
    let mut entries = Vec::with_capacity(count);
    let mut pos = 4;
    for _ in 0..count {
        let e = block.get(pos..pos + INDEX_ENTRY_BYTES)?;
        entries.push(FrameInfo {
            offset: read_u64(e, 0),
            len: read_u32(e, 8),
            crc: read_u32(e, 12),
            kind: e.get(16).copied().unwrap_or(0),
        });
        pos += INDEX_ENTRY_BYTES;
    }
    Some((index_off, entries))
}

fn read_u32(buf: &[u8], at: usize) -> u32 {
    let mut a = [0u8; 4];
    for (dst, src) in a.iter_mut().zip(buf.iter().skip(at)) {
        *dst = *src;
    }
    u32::from_le_bytes(a)
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    for (dst, src) in a.iter_mut().zip(buf.iter().skip(at)) {
        *dst = *src;
    }
    u64::from_le_bytes(a)
}

/// Rewrites a sealed segment without its corrupt frames (tmp file + atomic
/// rename, index recomputed), quarantining the bad payload bytes under
/// `quarantine/`. Returns the number of fsyncs issued (none when there was
/// nothing to excise).
pub fn rewrite_sealed(dir: &Path, path: &Path, scan: &SegmentScan) -> Result<u64, SegmentError> {
    if scan.corrupt.is_empty() {
        return Ok(0);
    }
    let qdir = dir.join("quarantine");
    fs::create_dir_all(&qdir).map_err(|e| io_err("create quarantine", &qdir, e))?;
    for (i, c) in scan.corrupt.iter().enumerate() {
        let qpath = qdir.join(format!(
            "epoch-{:020}-frame-{:06}-off-{}.bad",
            scan.epoch_seq, i, c.offset
        ));
        fs::write(&qpath, &c.bytes).map_err(|e| io_err("write quarantine", &qpath, e))?;
    }
    // Rebuild into a tmp file and atomically rename over the damaged
    // segment; the writer's own seal path does exactly that.
    let tmp_name = format!("epoch-{:020}.seg.tmp", scan.epoch_seq);
    let mut w = SegmentWriter::create_named(dir, &tmp_name, scan.epoch_seq, scan.at)?;
    for frame in &scan.frames {
        w.append_frame(frame)?;
    }
    let (sealed, fsyncs) = w.seal(true)?;
    debug_assert_eq!(&sealed, path);
    Ok(fsyncs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> Frame {
        Frame::Meta(EpochMeta {
            now: Timestamp::from_secs(60),
            rr: 7,
            export_retries: 1,
            spilled: 2,
            flushed: 3,
            dropped: 4,
            dropped_bytes: 5,
            raw_deferrals: 6,
            raw_pending: vec![vec![1, 2], vec![3, 4]],
            region_stats: vec![RegionStatsSnapshot {
                flows: 9,
                scalars: 0,
                raw_bytes: 80,
            }],
        })
    }

    #[test]
    fn meta_frame_roundtrip() {
        let frame = meta();
        let payload = encode_frame(&frame);
        let back = decode_frame(&payload).unwrap();
        match (frame, back) {
            (Frame::Meta(a), Frame::Meta(b)) => {
                assert_eq!(a.now, b.now);
                assert_eq!(a.rr, b.rr);
                assert_eq!(a.raw_pending, b.raw_pending);
                assert_eq!(a.region_stats.len(), b.region_stats.len());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn seal_and_rescan() {
        let dir = std::env::temp_dir().join(format!("mseg-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let mut w = SegmentWriter::create(&dir, 1, Timestamp::from_secs(60)).unwrap();
        w.append_frame(&meta()).unwrap();
        let (sealed, fsyncs) = w.seal(false).unwrap();
        assert_eq!(fsyncs, 1, "the directory fsync is unconditional");
        let scan = read_segment(&sealed, true).unwrap();
        assert_eq!(scan.epoch_seq, 1);
        assert_eq!(scan.frames.len(), 1);
        assert!(scan.index_ok);
        assert!(scan.corrupt.is_empty());
        assert_eq!(scan.torn_frames, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates() {
        let dir = std::env::temp_dir().join(format!("mseg-torn-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let mut w = SegmentWriter::create(&dir, 2, Timestamp::from_secs(60)).unwrap();
        w.append_frame(&meta()).unwrap();
        let payload = encode_frame(&meta());
        let mut chunk = Vec::new();
        chunk.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        chunk.extend_from_slice(&crc32(&payload).to_le_bytes());
        chunk.extend_from_slice(&payload);
        w.write_raw(&chunk[..chunk.len() / 2]).unwrap();
        let scan = read_segment(&dir.join(OPEN_SEGMENT), false).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.torn_frames, 1);
        assert!(scan.truncated_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
