//! Binary codec for everything the cold tier persists.
//!
//! Little-endian, length-delimited, self-describing via one-byte tags —
//! deliberately boring, except where the bytes are: Flowtree node entries
//! are nearly all of a sealed segment, so each is written relative to its
//! parent (see [`enc_flowtree`]), about 5 B instead of a fixed 37 B. Two
//! properties matter more than compactness:
//!
//! 1. **Roundtrip identity.** `decode(encode(x)) == x` under each type's
//!    `PartialEq` (proved by the workspace proptest suite). Where internal
//!    state is unobservable (a reservoir's RNG), the owning type's
//!    `PartialEq` deliberately ignores it and decode reseeds from a fixed
//!    constant.
//! 2. **Total decoding.** Arbitrary input bytes — truncation, bit flips,
//!    garbage — decode to a typed [`SegmentError`], never a panic. Every
//!    length is bounds-checked against the remaining input *before*
//!    allocation, and every invariant the constructors would `assert!` is
//!    validated here first.

use megastream_datastore::summary::{Lineage, StoredSummary, Summary, TransformRecord};
use megastream_flow::addr::Ipv4Addr;
use megastream_flow::key::{Feature, FeatureSet, FlowKey, MaskedField};
use megastream_flow::mask::{GeneralizationSchema, StepOrder};
use megastream_flow::record::FlowRecord;
use megastream_flow::score::{Popularity, ScoreKind};
use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream_flowtree::{FlatNode, Flowtree, FlowtreeConfig, FLAT_NO_PARENT};
use megastream_primitives::exact::ExactFlowTable;
use megastream_primitives::reservoir::Reservoir;
use megastream_primitives::sampling::{SamplePoint, SampledSeries};
use megastream_primitives::spacesaving::{SpaceSaving, SsCounter};
use megastream_primitives::timebin::{BinStats, BinnedSeries};

use crate::SegmentError;

/// Longest string the decoder will allocate (1 MiB) — lineage and source
/// names are short; anything longer is garbage input.
const MAX_STR: usize = 1 << 20;

/// Maximum recursion depth for [`StepOrder::Stages`]; real schemas nest two
/// or three levels, so a deeper input is malformed (and unbounded recursion
/// on attacker-controlled bytes would overflow the stack).
const MAX_ORDER_DEPTH: u32 = 16;

/// Seed used when rebuilding a [`Reservoir`] from disk. The in-flight RNG
/// state is not observable through the public API and `Reservoir`'s
/// `PartialEq` deliberately ignores it, so any fixed constant preserves
/// roundtrip equality while keeping recovery deterministic.
const RESERVOIR_RESEED: u64 = 0x4d45_4741_5354_524d;

// ---------------------------------------------------------------------------
// Primitive writers. Encoding is infallible; all fallibility lives in decode.
// ---------------------------------------------------------------------------

fn w_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn w_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn w_str(out: &mut Vec<u8>, s: &str) {
    w_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Writes a `u32` element count, saturating at `u32::MAX` (collections that
/// large never occur; saturation keeps encoding total).
fn w_count(out: &mut Vec<u8>, n: usize) {
    w_u32(out, u32::try_from(n).unwrap_or(u32::MAX));
}

/// Writes `v` as an LEB128 varint: seven bits per byte, low group first,
/// the high bit set on every byte but the last.
fn w_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

// ---------------------------------------------------------------------------
// Bounds-checked reader.
// ---------------------------------------------------------------------------

/// A cursor over an input buffer; every read is bounds-checked and returns
/// a typed error on shortfall.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SegmentError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SegmentError::Malformed { what })?;
        let slice = self.buf.get(self.pos..end).ok_or(SegmentError::Truncated {
            what,
            needed: n as u64,
            available: self.remaining() as u64,
        })?;
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, SegmentError> {
        Ok(self.take(1, what)?.first().copied().unwrap_or(0))
    }

    pub(crate) fn u16(&mut self, what: &'static str) -> Result<u16, SegmentError> {
        let b = self.take(2, what)?;
        let mut a = [0u8; 2];
        a.copy_from_slice(b);
        Ok(u16::from_le_bytes(a))
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, SegmentError> {
        let b = self.take(4, what)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, SegmentError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    pub(crate) fn f64(&mut self, what: &'static str) -> Result<f64, SegmentError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    pub(crate) fn str(&mut self, what: &'static str) -> Result<String, SegmentError> {
        let len = self.u32(what)? as usize;
        if len > MAX_STR {
            return Err(SegmentError::Malformed { what });
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SegmentError::Malformed { what })
    }

    /// Reads a `u32` element count and rejects it up front if `count ×
    /// elem_min` bytes cannot possibly remain — so garbage counts fail fast
    /// instead of triggering a huge allocation.
    pub(crate) fn count(
        &mut self,
        elem_min: usize,
        what: &'static str,
    ) -> Result<usize, SegmentError> {
        let n = self.u32(what)? as usize;
        let need = n
            .checked_mul(elem_min)
            .ok_or(SegmentError::Malformed { what })?;
        if need > self.remaining() {
            return Err(SegmentError::Truncated {
                what,
                needed: need as u64,
                available: self.remaining() as u64,
            });
        }
        Ok(n)
    }

    /// Reads a varint written by `w_varint`. Only the shortest form is
    /// accepted: a redundant zero final byte, or more than the ten bytes
    /// (64 bits) a `u64` needs, is malformed.
    pub(crate) fn varint(&mut self, what: &'static str) -> Result<u64, SegmentError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8(what)?;
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    break;
                }
                return Ok(v);
            }
        }
        Err(SegmentError::Malformed {
            what: "over-long varint",
        })
    }

    /// Fails unless the whole input was consumed — frame payloads are exact.
    pub(crate) fn finish(&self, what: &'static str) -> Result<(), SegmentError> {
        if self.remaining() != 0 {
            return Err(SegmentError::Malformed { what });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Time.
// ---------------------------------------------------------------------------

fn enc_window(out: &mut Vec<u8>, w: TimeWindow) {
    w_u64(out, w.start.as_micros());
    w_u64(out, w.end.as_micros());
}

fn dec_window(r: &mut Reader<'_>) -> Result<TimeWindow, SegmentError> {
    let start = r.u64("window.start")?;
    let end = r.u64("window.end")?;
    if end < start {
        return Err(SegmentError::Malformed {
            what: "window end before start",
        });
    }
    Ok(TimeWindow::new(
        Timestamp::from_micros(start),
        Timestamp::from_micros(end),
    ))
}

// ---------------------------------------------------------------------------
// Flow records.
// ---------------------------------------------------------------------------

pub(crate) fn enc_flow_record(out: &mut Vec<u8>, rec: &FlowRecord) {
    w_u64(out, rec.ts.as_micros());
    w_u8(out, rec.proto);
    w_u32(out, rec.src_ip.bits());
    w_u32(out, rec.dst_ip.bits());
    w_u16(out, rec.src_port);
    w_u16(out, rec.dst_port);
    w_u64(out, rec.packets);
    w_u64(out, rec.bytes);
}

pub(crate) fn dec_flow_record(r: &mut Reader<'_>) -> Result<FlowRecord, SegmentError> {
    Ok(FlowRecord {
        ts: Timestamp::from_micros(r.u64("record.ts")?),
        proto: r.u8("record.proto")?,
        src_ip: Ipv4Addr::new(r.u32("record.src_ip")?),
        dst_ip: Ipv4Addr::new(r.u32("record.dst_ip")?),
        src_port: r.u16("record.src_port")?,
        dst_port: r.u16("record.dst_port")?,
        packets: r.u64("record.packets")?,
        bytes: r.u64("record.bytes")?,
    })
}

/// Encodes one flow record to a standalone buffer (the WAL record payload
/// body uses this via [`crate::wal`]).
pub fn encode_flow_record(rec: &FlowRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(40);
    enc_flow_record(&mut out, rec);
    out
}

/// Decodes a standalone flow-record buffer produced by
/// [`encode_flow_record`].
pub fn decode_flow_record(buf: &[u8]) -> Result<FlowRecord, SegmentError> {
    let mut r = Reader::new(buf);
    let rec = dec_flow_record(&mut r)?;
    r.finish("record trailing bytes")?;
    Ok(rec)
}

// ---------------------------------------------------------------------------
// Flow keys and schemas.
// ---------------------------------------------------------------------------

fn enc_flow_key(out: &mut Vec<u8>, key: &FlowKey) {
    for f in Feature::ALL {
        let field = key.field(f);
        w_u32(out, field.value());
        w_u8(out, field.len());
    }
}

fn dec_flow_key(r: &mut Reader<'_>) -> Result<FlowKey, SegmentError> {
    let mut key = FlowKey::root();
    for f in Feature::ALL {
        let value = r.u32("key.field.value")?;
        let len = r.u8("key.field.len")?;
        let width = f.width();
        if len > width {
            return Err(SegmentError::Malformed {
                what: "key field mask longer than width",
            });
        }
        key = key.with_field(f, MaskedField::new(value, width, len));
    }
    Ok(key)
}

fn enc_feature_set(out: &mut Vec<u8>, fs: FeatureSet) {
    let mut bits = 0u8;
    for f in fs.iter() {
        bits |= 1 << f.index();
    }
    w_u8(out, bits);
}

fn dec_feature_set(r: &mut Reader<'_>) -> Result<FeatureSet, SegmentError> {
    let bits = r.u8("feature set")?;
    if bits >> Feature::ALL.len() != 0 {
        return Err(SegmentError::Malformed {
            what: "unknown feature bit",
        });
    }
    let feats: Vec<Feature> = Feature::ALL
        .into_iter()
        .filter(|f| bits & (1 << f.index()) != 0)
        .collect();
    Ok(FeatureSet::of(&feats))
}

fn enc_score_kind(out: &mut Vec<u8>, kind: ScoreKind) {
    match kind {
        ScoreKind::Packets => w_u8(out, 0),
        ScoreKind::Bytes => w_u8(out, 1),
        ScoreKind::Flows => w_u8(out, 2),
        ScoreKind::Weighted {
            w_packets,
            w_bytes,
            w_flows,
        } => {
            w_u8(out, 3);
            w_u64(out, w_packets);
            w_u64(out, w_bytes);
            w_u64(out, w_flows);
        }
    }
}

fn dec_score_kind(r: &mut Reader<'_>) -> Result<ScoreKind, SegmentError> {
    match r.u8("score kind tag")? {
        0 => Ok(ScoreKind::Packets),
        1 => Ok(ScoreKind::Bytes),
        2 => Ok(ScoreKind::Flows),
        3 => Ok(ScoreKind::Weighted {
            w_packets: r.u64("score weight")?,
            w_bytes: r.u64("score weight")?,
            w_flows: r.u64("score weight")?,
        }),
        _ => Err(SegmentError::Malformed {
            what: "unknown score kind tag",
        }),
    }
}

fn enc_features(out: &mut Vec<u8>, fs: &[Feature]) {
    w_count(out, fs.len());
    for f in fs {
        w_u8(out, f.index() as u8);
    }
}

fn dec_features(r: &mut Reader<'_>) -> Result<Vec<Feature>, SegmentError> {
    let n = r.count(1, "feature list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = r.u8("feature index")? as usize;
        let f = Feature::ALL
            .get(idx)
            .copied()
            .ok_or(SegmentError::Malformed {
                what: "unknown feature index",
            })?;
        out.push(f);
    }
    Ok(out)
}

fn enc_step_order(out: &mut Vec<u8>, order: &StepOrder) {
    match order {
        StepOrder::Priority(fs) => {
            w_u8(out, 0);
            enc_features(out, fs);
        }
        StepOrder::RoundRobin(fs) => {
            w_u8(out, 1);
            enc_features(out, fs);
        }
        StepOrder::Stages(stages) => {
            w_u8(out, 2);
            w_count(out, stages.len());
            for s in stages {
                enc_step_order(out, s);
            }
        }
    }
}

fn dec_step_order(r: &mut Reader<'_>, depth: u32) -> Result<StepOrder, SegmentError> {
    if depth > MAX_ORDER_DEPTH {
        return Err(SegmentError::Malformed {
            what: "step order nested too deeply",
        });
    }
    match r.u8("step order tag")? {
        0 => Ok(StepOrder::Priority(dec_features(r)?)),
        1 => Ok(StepOrder::RoundRobin(dec_features(r)?)),
        2 => {
            let n = r.count(1, "step order stages")?;
            let mut stages = Vec::with_capacity(n);
            for _ in 0..n {
                stages.push(dec_step_order(r, depth + 1)?);
            }
            Ok(StepOrder::Stages(stages))
        }
        _ => Err(SegmentError::Malformed {
            what: "unknown step order tag",
        }),
    }
}

fn enc_schema(out: &mut Vec<u8>, schema: &GeneralizationSchema) {
    for f in Feature::ALL {
        let ladder = schema.ladder(f);
        w_count(out, ladder.len());
        out.extend_from_slice(ladder);
    }
    enc_step_order(out, schema.order());
}

fn dec_schema(r: &mut Reader<'_>) -> Result<GeneralizationSchema, SegmentError> {
    let mut ladders: [Vec<u8>; 5] = Default::default();
    for slot in ladders.iter_mut() {
        let n = r.count(1, "schema ladder")?;
        *slot = r.take(n, "schema ladder")?.to_vec();
    }
    let order = dec_step_order(r, 0)?;
    GeneralizationSchema::new(ladders, order).map_err(|_| SegmentError::Malformed {
        what: "invalid generalization schema",
    })
}

// ---------------------------------------------------------------------------
// Summary payloads.
// ---------------------------------------------------------------------------

/// The field-mask bits a Flowtree node entry may set: bit `i` is
/// `Feature::ALL[i]`; the top three bits are reserved.
const FIELD_BITS: u8 = (1 << Feature::ALL.len()) - 1;

/// Fewest bytes a non-root node entry can take: up-link, field mask, one
/// mask length, one value byte and the score.
const NODE_MIN_BYTES: usize = 5;

/// A Flowtree frame: the configuration, the record count, then the nodes
/// in canonical pre-order, each relative to its parent:
///
/// ```text
/// records u64 | root score varint | count u32 | node*
/// node     up varint | fields u8 | (len u8, bits)* | score varint
/// ```
///
/// `up` is how many entries to pop off the current root path to reach the
/// parent (0: the previous node is the parent). `fields` has a bit per key
/// field that differs from the parent's; for each, in `Feature::ALL`
/// order, come its mask length and the value bits between the parent's
/// length and its own, little-endian in whole bytes with zero padding.
fn enc_flowtree(out: &mut Vec<u8>, tree: &Flowtree) {
    let config = tree.config();
    enc_schema(out, &config.schema);
    enc_feature_set(out, config.features);
    enc_score_kind(out, config.score_kind);
    w_u64(out, config.capacity as u64);
    w_f64(out, config.compact_ratio);
    w_u64(out, tree.records());
    // `path[d]` is the key of the latest node at depth `d`.
    let mut path: Vec<FlowKey> = Vec::with_capacity(config.schema.max_depth() + 1);
    for node in tree.preorder() {
        let parent = node.depth.checked_sub(1).and_then(|d| path.get(d)).copied();
        if let Some(parent) = parent {
            w_varint(out, path.len().saturating_sub(node.depth) as u64);
            path.truncate(node.depth);
            enc_key_delta(out, &parent, &node.key);
            w_varint(out, node.own.value());
        } else {
            // The root: its score, then how many entries follow it.
            w_varint(out, node.own.value());
            w_count(out, tree.len().saturating_sub(1));
        }
        path.push(node.key);
    }
}

/// Writes the fields in which `key` differs from its parent's key.
fn enc_key_delta(out: &mut Vec<u8>, parent: &FlowKey, key: &FlowKey) {
    let changed = Feature::ALL
        .into_iter()
        .filter(|&f| key.field(f) != parent.field(f));
    w_u8(out, changed.clone().fold(0, |m, f| m | (1 << f.index())));
    for f in changed {
        let (from, to) = (parent.field(f).len(), key.field(f));
        let fresh = to.len().saturating_sub(from);
        let bits = (u64::from(to.value()) >> (f.width() - to.len())) & ((1 << fresh) - 1);
        let bytes = bits.to_le_bytes();
        w_u8(out, to.len());
        out.extend_from_slice(
            bytes
                .get(..usize::from(fresh.div_ceil(8)))
                .unwrap_or_default(),
        );
    }
}

/// Reads the fields written by [`enc_key_delta`] and applies them to
/// `parent`. Every field must lengthen the parent's mask within the
/// field's width, and the padding bits must be zero, so each entry names
/// exactly one key strictly below its parent.
fn dec_key_delta(r: &mut Reader<'_>, parent: &FlowKey) -> Result<FlowKey, SegmentError> {
    let fields = r.u8("flowtree node fields")?;
    if fields == 0 {
        return Err(SegmentError::Malformed {
            what: "flowtree node field mask empty",
        });
    }
    if fields & !FIELD_BITS != 0 {
        return Err(SegmentError::Malformed {
            what: "flowtree node field mask reserved bit",
        });
    }
    let mut key = *parent;
    for f in Feature::ALL {
        if fields & (1 << f.index()) == 0 {
            continue;
        }
        let from = parent.field(f);
        let len = r.u8("flowtree node mask length")?;
        if len <= from.len() {
            return Err(SegmentError::Malformed {
                what: "flowtree node mask length not longer than parent's",
            });
        }
        if len > f.width() {
            return Err(SegmentError::Malformed {
                what: "flowtree node mask length longer than field",
            });
        }
        let fresh = len - from.len();
        let bytes = r.take(usize::from(fresh.div_ceil(8)), "flowtree node value bits")?;
        let bits = bytes
            .iter()
            .rev()
            .fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
        if bits >> fresh != 0 {
            return Err(SegmentError::Malformed {
                what: "flowtree node padding bits set",
            });
        }
        let value = u64::from(from.value()) | (bits << (f.width() - len));
        key = key.with_field(f, MaskedField::new(value as u32, f.width(), len));
    }
    Ok(key)
}

fn dec_flowtree(r: &mut Reader<'_>) -> Result<Flowtree, SegmentError> {
    let schema = dec_schema(r)?;
    let features = dec_feature_set(r)?;
    let score_kind = dec_score_kind(r)?;
    let capacity = r.u64("flowtree capacity")?;
    let capacity = usize::try_from(capacity).map_err(|_| SegmentError::Malformed {
        what: "flowtree capacity",
    })?;
    if capacity == 0 {
        return Err(SegmentError::Malformed {
            what: "flowtree capacity zero",
        });
    }
    let compact_ratio = r.f64("flowtree compact ratio")?;
    if !compact_ratio.is_finite() || compact_ratio <= 0.0 || compact_ratio > 1.0 {
        return Err(SegmentError::Malformed {
            what: "flowtree compact ratio",
        });
    }
    let records = r.u64("flowtree records")?;
    let root = FlatNode {
        key: FlowKey::root(),
        own: Popularity::new(r.varint("flowtree root score")?),
        parent: FLAT_NO_PARENT,
    };
    let n = r.count(NODE_MIN_BYTES, "flowtree nodes")?;
    let mut nodes = Vec::with_capacity(n + 1);
    nodes.push(root);
    // The current root path as `(position, key)`. Every entry lengthens a
    // mask, so the path holds at most one entry per key bit plus the root;
    // and the root never leaves it, so an up-link can only name an entry
    // already on it.
    let mut path: Vec<(u32, FlowKey)> = vec![(0, root.key)];
    for _ in 0..n {
        let up = r.varint("flowtree node up-link")?;
        let keep = usize::try_from(up)
            .ok()
            .and_then(|up| path.len().checked_sub(up))
            .filter(|&keep| keep > 0)
            .ok_or(SegmentError::Malformed {
                what: "flowtree node up-link above the root",
            })?;
        path.truncate(keep);
        let Some(&(parent, parent_key)) = path.last() else {
            break;
        };
        let key = dec_key_delta(r, &parent_key)?;
        let own = Popularity::new(r.varint("flowtree node score")?);
        let pos = u32::try_from(nodes.len()).map_err(|_| SegmentError::Malformed {
            what: "flowtree nodes",
        })?;
        path.push((pos, key));
        nodes.push(FlatNode { key, own, parent });
    }
    // Struct literal rather than the builder: `with_compact_ratio` clamps,
    // which would break exact roundtrip for ratios the builder never
    // produced but the (all-public) struct can carry.
    let config = FlowtreeConfig {
        schema,
        features,
        score_kind,
        capacity,
        compact_ratio,
    };
    // The validating constructor rejects what the entries can still get
    // wrong (off-ladder or unprojected keys, duplicate keys, budget
    // overflow) with a typed error — decode never panics and never
    // over-allocates.
    Flowtree::try_from_flat(config, &nodes, records)
        .map_err(|e| SegmentError::Malformed { what: e.what() })
}

fn enc_series(out: &mut Vec<u8>, s: &SampledSeries) {
    enc_window(out, s.window);
    let points = s.points();
    w_count(out, points.len());
    for p in points {
        w_u64(out, p.ts.as_micros());
        w_f64(out, p.value);
        w_f64(out, p.weight);
    }
}

fn dec_series(r: &mut Reader<'_>) -> Result<SampledSeries, SegmentError> {
    let window = dec_window(r)?;
    let n = r.count(24, "series points")?;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let ts = Timestamp::from_micros(r.u64("point.ts")?);
        let value = r.f64("point.value")?;
        let weight = r.f64("point.weight")?;
        if value.is_nan() || weight.is_nan() {
            return Err(SegmentError::Malformed {
                what: "NaN sample point",
            });
        }
        points.push(SamplePoint { ts, value, weight });
    }
    Ok(SampledSeries::from_parts(window, points))
}

fn enc_reservoir(out: &mut Vec<u8>, res: &Reservoir<f64>) {
    w_u64(out, res.capacity() as u64);
    w_u64(out, res.seen());
    w_count(out, res.items().len());
    for v in res.items() {
        w_f64(out, *v);
    }
}

fn dec_reservoir(r: &mut Reader<'_>) -> Result<Reservoir<f64>, SegmentError> {
    let capacity = r.u64("reservoir capacity")?;
    let capacity = usize::try_from(capacity).map_err(|_| SegmentError::Malformed {
        what: "reservoir capacity",
    })?;
    let seen = r.u64("reservoir seen")?;
    let n = r.count(8, "reservoir items")?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(r.f64("reservoir item")?);
    }
    Reservoir::from_parts(capacity, RESERVOIR_RESEED, seen, items).ok_or(SegmentError::Malformed {
        what: "inconsistent reservoir",
    })
}

fn enc_bin_stats(out: &mut Vec<u8>, b: &BinStats) {
    w_u64(out, b.count());
    w_f64(out, b.sum());
    w_f64(out, b.sum_sq());
    let (min, max) = b.raw_bounds();
    w_f64(out, min);
    w_f64(out, max);
    enc_reservoir(out, b.sample());
}

fn dec_bin_stats(r: &mut Reader<'_>) -> Result<BinStats, SegmentError> {
    let count = r.u64("bin count")?;
    let sum = r.f64("bin sum")?;
    let sum_sq = r.f64("bin sum_sq")?;
    let min = r.f64("bin min")?;
    let max = r.f64("bin max")?;
    let sample = dec_reservoir(r)?;
    BinStats::from_parts(count, sum, sum_sq, min, max, sample).ok_or(SegmentError::Malformed {
        what: "inconsistent bin stats",
    })
}

fn enc_binned(out: &mut Vec<u8>, b: &BinnedSeries) {
    enc_window(out, b.window);
    w_u64(out, b.width().as_micros());
    w_count(out, b.len());
    for (idx, stats) in b.raw_bins() {
        w_u64(out, idx);
        enc_bin_stats(out, stats);
    }
}

fn dec_binned(r: &mut Reader<'_>) -> Result<BinnedSeries, SegmentError> {
    let window = dec_window(r)?;
    let width = TimeDelta::from_micros(r.u64("bin width")?);
    let n = r.count(8 + 60, "bins")?;
    let mut bins = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = r.u64("bin index")?;
        bins.push((idx, dec_bin_stats(r)?));
    }
    BinnedSeries::from_parts(window, width, bins).ok_or(SegmentError::Malformed {
        what: "inconsistent binned series",
    })
}

fn enc_top_flows(out: &mut Vec<u8>, ss: &SpaceSaving<FlowKey>) {
    w_u64(out, ss.capacity() as u64);
    w_u64(out, ss.total());
    w_count(out, ss.len());
    for (key, counter) in ss.iter() {
        enc_flow_key(out, key);
        w_u64(out, counter.count);
        w_u64(out, counter.error);
    }
}

fn dec_top_flows(r: &mut Reader<'_>) -> Result<SpaceSaving<FlowKey>, SegmentError> {
    let capacity = r.u64("spacesaving capacity")?;
    let capacity = usize::try_from(capacity).map_err(|_| SegmentError::Malformed {
        what: "spacesaving capacity",
    })?;
    let total = r.u64("spacesaving total")?;
    let n = r.count(21 + 16, "spacesaving entries")?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let key = dec_flow_key(r)?;
        let count = r.u64("counter count")?;
        let error = r.u64("counter error")?;
        entries.push((key, SsCounter { count, error }));
    }
    SpaceSaving::from_parts(capacity, entries, total).ok_or(SegmentError::Malformed {
        what: "inconsistent spacesaving sketch",
    })
}

fn enc_exact(out: &mut Vec<u8>, table: &ExactFlowTable) {
    enc_feature_set(out, table.features());
    enc_score_kind(out, table.score_kind());
    w_count(out, table.len());
    for (key, score) in table.iter() {
        enc_flow_key(out, key);
        w_u64(out, score.value());
    }
}

fn dec_exact(r: &mut Reader<'_>) -> Result<ExactFlowTable, SegmentError> {
    let features = dec_feature_set(r)?;
    let score_kind = dec_score_kind(r)?;
    let n = r.count(21 + 8, "exact table entries")?;
    let mut table = ExactFlowTable::new(features, score_kind);
    for _ in 0..n {
        let key = dec_flow_key(r)?;
        let score = r.u64("exact table score")?;
        table.add(key, Popularity::new(score));
    }
    Ok(table)
}

fn enc_summary(out: &mut Vec<u8>, summary: &Summary) {
    match summary {
        Summary::Flowtree(t) => {
            w_u8(out, 0);
            enc_flowtree(out, t);
        }
        Summary::Series(s) => {
            w_u8(out, 1);
            enc_series(out, s);
        }
        Summary::Bins(b) => {
            w_u8(out, 2);
            enc_binned(out, b);
        }
        Summary::TopFlows(ss) => {
            w_u8(out, 3);
            enc_top_flows(out, ss);
        }
        Summary::Exact(t) => {
            w_u8(out, 4);
            enc_exact(out, t);
        }
        Summary::Raw {
            records,
            score_kind,
        } => {
            w_u8(out, 5);
            enc_score_kind(out, *score_kind);
            w_count(out, records.len());
            for rec in records {
                enc_flow_record(out, rec);
            }
        }
    }
}

fn dec_summary(r: &mut Reader<'_>) -> Result<Summary, SegmentError> {
    match r.u8("summary tag")? {
        0 => Ok(Summary::Flowtree(dec_flowtree(r)?)),
        1 => Ok(Summary::Series(dec_series(r)?)),
        2 => Ok(Summary::Bins(dec_binned(r)?)),
        3 => Ok(Summary::TopFlows(dec_top_flows(r)?)),
        4 => Ok(Summary::Exact(dec_exact(r)?)),
        5 => {
            let score_kind = dec_score_kind(r)?;
            let n = r.count(37, "raw records")?;
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                records.push(dec_flow_record(r)?);
            }
            Ok(Summary::Raw {
                records,
                score_kind,
            })
        }
        _ => Err(SegmentError::Malformed {
            what: "unknown summary tag",
        }),
    }
}

fn enc_lineage(out: &mut Vec<u8>, lineage: &Lineage) {
    w_count(out, lineage.sources.len());
    for s in &lineage.sources {
        w_str(out, s);
    }
    w_count(out, lineage.transforms.len());
    for t in &lineage.transforms {
        w_str(out, &t.op);
        w_str(out, &t.location);
        w_u64(out, t.at.as_micros());
    }
}

fn dec_lineage(r: &mut Reader<'_>) -> Result<Lineage, SegmentError> {
    let n = r.count(4, "lineage sources")?;
    let mut sources = Vec::with_capacity(n);
    for _ in 0..n {
        sources.push(r.str("lineage source")?);
    }
    let n = r.count(16, "lineage transforms")?;
    let mut transforms = Vec::with_capacity(n);
    for _ in 0..n {
        transforms.push(TransformRecord {
            op: r.str("transform op")?,
            location: r.str("transform location")?,
            at: Timestamp::from_micros(r.u64("transform at")?),
        });
    }
    Ok(Lineage {
        sources,
        transforms,
    })
}

pub(crate) fn enc_stored_summary(out: &mut Vec<u8>, s: &StoredSummary) {
    w_str(out, &s.source);
    enc_window(out, s.window);
    w_u32(out, s.level);
    enc_lineage(out, &s.lineage);
    enc_summary(out, &s.summary);
}

pub(crate) fn dec_stored_summary(r: &mut Reader<'_>) -> Result<StoredSummary, SegmentError> {
    let source = r.str("summary source")?;
    let window = dec_window(r)?;
    let level = r.u32("summary level")?;
    let lineage = dec_lineage(r)?;
    let summary = dec_summary(r)?;
    Ok(StoredSummary {
        source,
        window,
        level,
        lineage,
        summary,
    })
}

/// Encodes a stored summary to a standalone buffer.
pub fn encode_stored_summary(s: &StoredSummary) -> Vec<u8> {
    let mut out = Vec::with_capacity(s.wire_size());
    enc_stored_summary(&mut out, s);
    out
}

/// Decodes a buffer produced by [`encode_stored_summary`]; trailing bytes
/// are an error (frame payloads are exact).
pub fn decode_stored_summary(buf: &[u8]) -> Result<StoredSummary, SegmentError> {
    let mut r = Reader::new(buf);
    let s = dec_stored_summary(&mut r)?;
    r.finish("summary trailing bytes")?;
    Ok(s)
}
