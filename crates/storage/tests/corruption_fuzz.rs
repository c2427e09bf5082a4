//! Corruption fuzz: arbitrary damage to any cold-tier file — truncation,
//! bit flips, garbage appended — must never panic recovery or the
//! verifier. Every failure surfaces as a typed [`SegmentError`]; every
//! successful open leaves a store that a repair pass can verify clean.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use megastream_datastore::summary::{Lineage, StoredSummary, Summary};
use megastream_flow::addr::Ipv4Addr;
use megastream_flow::record::FlowRecord;
use megastream_flow::time::{TimeDelta, TimeWindow, Timestamp};
use megastream_flowtree::{Flowtree, FlowtreeConfig};
use megastream_primitives::sampling::SampledSeries;
use megastream_storage::fsck::fsck;
use megastream_storage::{
    decode_stored_summary, encode_stored_summary, ColdTier, Frame, SyncPolicy, WalRecord,
};
use megastream_telemetry::Telemetry;
use proptest::prelude::*;
use proptest::sample;

fn summary(i: u64) -> StoredSummary {
    StoredSummary::new(
        format!("region-{i}"),
        TimeWindow::starting_at(Timestamp::from_secs(i * 60), TimeDelta::from_secs(60)),
        Summary::Series(SampledSeries::default()),
        Lineage::from_source("router-0-0"),
    )
}

fn wal_rec(i: u64) -> WalRecord {
    WalRecord {
        rr: i,
        region: (i % 3) as u32,
        router: (i % 2) as u32,
        record: FlowRecord {
            ts: Timestamp::from_secs(i),
            proto: 6,
            src_ip: Ipv4Addr::new(0x0a00_0000 | i as u32),
            dst_ip: Ipv4Addr::new(0x0101_0101),
            src_port: 5000,
            dst_port: 443,
            packets: i + 1,
            bytes: 64 * (i + 1),
        },
    }
}

/// A pristine store — two sealed epochs plus live WAL records — captured
/// once as `(relative file name, bytes)` pairs and restamped per case.
fn pristine() -> &'static Vec<(String, Vec<u8>)> {
    static FILES: OnceLock<Vec<(String, Vec<u8>)>> = OnceLock::new();
    FILES.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("megastream-fuzz-seed-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut tier = ColdTier::create(&dir, SyncPolicy::Off, Telemetry::disabled())
            .expect("seed store creates");
        for epoch in 0..2u64 {
            for i in 0..3 {
                tier.wal_append(&wal_rec(epoch * 4 + i)).expect("wal");
            }
            tier.begin_epoch(Timestamp::from_secs((epoch + 1) * 60))
                .expect("begin");
            tier.append_frame(&Frame::Exported {
                region: 0,
                summary: summary(epoch),
            })
            .expect("frame");
            tier.append_frame(&Frame::Parked {
                region: 1,
                summary: summary(epoch + 10),
            })
            .expect("frame");
            tier.append_frame(&Frame::Flushed {
                region: 1,
                summary: summary(epoch + 20),
            })
            .expect("frame");
            tier.seal_epoch().expect("seal");
            tier.wal_reset().expect("reset");
            tier.wal_append(&wal_rec(epoch * 4 + 3)).expect("wal");
        }
        drop(tier);
        let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
            .expect("seed dir lists")
            .filter_map(|e| {
                let e = e.ok()?;
                if !e.file_type().ok()?.is_file() {
                    return None;
                }
                let name = e.file_name().into_string().ok()?;
                Some((name.clone(), fs::read(dir.join(&name)).ok()?))
            })
            .collect();
        files.sort();
        let _ = fs::remove_dir_all(&dir);
        assert!(files.len() >= 3, "expected 2 segments + WAL, got {files:?}");
        files
    })
}

fn case_dir() -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("megastream-fuzz-case-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("case dir creates");
    dir
}

#[derive(Debug, Clone, Copy)]
enum Damage {
    Truncate,
    BitFlip,
    Append,
}

/// Materializes the pristine store, damages one file, and returns the dir.
fn damaged_store(target: usize, damage: Damage, offset: u64, garbage: &[u8]) -> PathBuf {
    let files = pristine();
    let dir = case_dir();
    for (name, bytes) in files {
        fs::write(dir.join(name), bytes).expect("case file writes");
    }
    let (name, bytes) = &files[target % files.len()];
    let path = dir.join(name);
    let mut bytes = bytes.clone();
    match damage {
        Damage::Truncate => bytes.truncate((offset % (bytes.len() as u64 + 1)) as usize),
        Damage::BitFlip => {
            if !bytes.is_empty() {
                let at = (offset % bytes.len() as u64) as usize;
                bytes[at] ^= 1 << (offset % 8);
            }
        }
        Damage::Append => bytes.extend_from_slice(garbage),
    }
    fs::write(&path, &bytes).expect("damaged file writes");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Recovery and both fsck modes must return — Ok or a typed error —
    /// for any single-file damage; a successful repair then verifies clean.
    #[test]
    fn damaged_stores_never_panic(
        target in any::<usize>(),
        kind in sample::select(vec![Damage::Truncate, Damage::BitFlip, Damage::Append]),
        offset in any::<u64>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let dir = damaged_store(target, kind, offset, &garbage);

        // Plain verify, then repair: any outcome but a panic is in
        // contract. After a successful repair no CRC-corrupt frame may
        // remain — repair quarantines them all. (Torn tails inside sealed
        // segments stay *reported*: fsck never invents data.)
        let _ = fsck(&dir, false);
        if fsck(&dir, true).is_ok() {
            let after = fsck(&dir, false);
            prop_assert!(after.is_ok(), "verify after successful repair: {after:?}");
            prop_assert!(
                after.is_ok_and(|r| r.corrupt_frames == 0),
                "repair must quarantine every corrupt frame"
            );
        }

        // Recovery over the (repaired) store must also hold the contract,
        // and a store it accepts must be fully usable.
        match ColdTier::open(&dir, SyncPolicy::Off, Telemetry::disabled()) {
            Ok((mut tier, _report)) => {
                tier.wal_append(&wal_rec(99)).expect("recovered tier accepts WAL");
                tier.begin_epoch(Timestamp::from_secs(600)).expect("begin after recovery");
                tier.append_frame(&Frame::Exported { region: 0, summary: summary(99) })
                    .expect("append after recovery");
                tier.seal_epoch().expect("seal after recovery");
                drop(tier);
                let verify = fsck(&dir, false);
                prop_assert!(
                    verify.as_ref().is_ok_and(|r| r.corrupt_frames == 0),
                    "recovery must quarantine every corrupt frame: {verify:?}"
                );
            }
            Err(_typed) => {} // a typed refusal is an acceptable outcome
        }

        fs::remove_dir_all(&dir).expect("case dir removes");
    }

    /// Damage to *both* a sealed segment and the WAL at once.
    #[test]
    fn doubly_damaged_stores_never_panic(
        t1 in any::<usize>(),
        t2 in any::<usize>(),
        o1 in any::<u64>(),
        o2 in any::<u64>(),
    ) {
        let files = pristine();
        let dir = case_dir();
        for (name, bytes) in files {
            fs::write(dir.join(name), bytes).expect("case file writes");
        }
        for (t, o) in [(t1, o1), (t2, o2)] {
            let (name, bytes) = &files[t % files.len()];
            let mut bytes = bytes.clone();
            if !bytes.is_empty() {
                let at = (o % bytes.len() as u64) as usize;
                bytes[at] ^= 0x40;
                bytes.truncate(bytes.len() - (o % 4) as usize);
            }
            fs::write(dir.join(name), &bytes).expect("damaged file writes");
        }
        let _ = fsck(&dir, false);
        let _ = fsck(&dir, true);
        let _ = ColdTier::open(&dir, SyncPolicy::Off, Telemetry::disabled());
        fs::remove_dir_all(&dir).expect("case dir removes");
    }
}

// ---------------------------------------------- flowtree frame attacks
//
// A flowtree summary stores its nodes in canonical pre-order, each
// relative to its parent: an up-link (how many entries to pop off the
// current root path), a mask of the key fields that differ from the
// parent, each such field's new mask length plus the value bits below the
// parent's prefix, and the score as a varint. The decoder must treat every
// one of those fields as hostile: each attack below comes back as a typed
// error, never a panic, never an unbounded allocation. Cycles and forward
// parent links are unrepresentable on the wire: an up-link can only name
// an entry already on the root path.

/// Field-mask bits of the hand-written entries (bit `i` is
/// `Feature::ALL[i]`).
const PROTO: u8 = 1 << 0;
const SRC_IP: u8 = 1 << 1;

/// A stored summary wrapping a flowtree built from 40 records, plus the
/// tree's node count.
fn flowtree_summary() -> (StoredSummary, usize) {
    let mut tree = Flowtree::new(FlowtreeConfig::default().with_capacity(256));
    for i in 0..40u64 {
        tree.observe(&wal_rec(i).record);
    }
    let n = tree.len();
    (flowtree_stored(tree), n)
}

fn flowtree_stored(tree: Flowtree) -> StoredSummary {
    StoredSummary::new(
        "region-ft",
        TimeWindow::starting_at(Timestamp::from_secs(0), TimeDelta::from_secs(60)),
        Summary::Flowtree(tree),
        Lineage::from_source("router-0-0"),
    )
}

/// The encoding of a flowtree summary up to and including its record
/// count: everything before the node section. An empty tree's encoding
/// ends with a one-byte root score and a zero `u32` node count.
fn frame_prefix() -> Vec<u8> {
    let empty = Flowtree::new(FlowtreeConfig::default().with_capacity(256));
    let mut buf = encode_stored_summary(&flowtree_stored(empty));
    assert_eq!(buf[buf.len() - 5..], [0, 0, 0, 0, 0], "root score + count");
    buf.truncate(buf.len() - 5);
    buf
}

/// A hand-written flowtree frame: a zero root score, `count` entries
/// claimed, then the raw entry bytes.
fn frame(count: u32, entries: &[u8]) -> Vec<u8> {
    let mut buf = frame_prefix();
    buf.push(0);
    buf.extend_from_slice(&count.to_le_bytes());
    buf.extend_from_slice(entries);
    buf
}

/// One hand-written node entry: `up`, the field mask, `(mask length,
/// value bytes)` per set field, then a score of 1.
fn entry(up: u8, fields: u8, deltas: &[(u8, &[u8])]) -> Vec<u8> {
    let mut out = vec![up, fields];
    for (len, bits) in deltas {
        out.push(*len);
        out.extend_from_slice(bits);
    }
    out.push(1);
    out
}

/// `src=10.0.0.0/8` under the root.
fn src_8() -> Vec<u8> {
    entry(0, SRC_IP, &[(8, &[10])])
}

/// Asserts that `buf` decodes to an error whose message contains
/// `expect` — proof that the intended check refused it.
fn assert_refused(buf: &[u8], expect: &str) {
    match decode_stored_summary(buf) {
        Ok(_) => panic!("decoder accepted a frame that needs `{expect}`"),
        Err(e) => assert!(
            e.to_string().contains(expect),
            "expected `{expect}`, got `{e}`"
        ),
    }
}

#[test]
fn hand_written_frames_decode() {
    // The control for every attack below: the same helpers, well formed.
    let entries = [
        src_8(),
        entry(0, SRC_IP, &[(16, &[1])]), // 10.1.0.0/16 under /8
        entry(1, SRC_IP, &[(16, &[2])]), // 10.2.0.0/16: pop 10.1, under /8
        entry(2, PROTO, &[(8, &[17])]),  // proto 17: pop to the root
    ]
    .concat();
    let decoded = decode_stored_summary(&frame(4, &entries)).expect("well-formed frame");
    let Summary::Flowtree(tree) = decoded.summary else {
        panic!("not a flowtree");
    };
    assert_eq!(tree.len(), 5);
    assert_eq!(tree.total().value(), 4);
    let depths: Vec<usize> = tree.preorder().map(|n| n.depth).collect();
    assert_eq!(depths, [0, 1, 2, 2, 1]);
}

#[test]
fn flowtree_frame_up_link_above_the_root_is_refused() {
    assert_refused(
        &frame(1, &entry(1, SRC_IP, &[(8, &[10])])),
        "above the root",
    );
    // One entry deep, popping two leaves nothing on the path.
    let entries = [src_8(), entry(2, SRC_IP, &[(8, &[11])])].concat();
    assert_refused(&frame(2, &entries), "above the root");
}

#[test]
fn flowtree_frame_empty_field_mask_is_refused() {
    // Two spare bytes, so the five-bytes-per-entry bound does not refuse
    // the three-byte entry first.
    let entries = [entry(0, 0, &[]), vec![0, 0]].concat();
    assert_refused(&frame(1, &entries), "field mask empty");
}

#[test]
fn flowtree_frame_reserved_field_bits_are_refused() {
    for reserved in [1 << 5, 1 << 6, 1 << 7] {
        let buf = frame(1, &entry(0, SRC_IP | reserved, &[(8, &[10])]));
        assert_refused(&buf, "reserved bit");
    }
}

#[test]
fn flowtree_frame_mask_length_not_longer_than_parent_is_refused() {
    // From the root, a length of 0 changes nothing (one spare byte keeps
    // the five-bytes-per-entry bound from refusing it first).
    let entries = [entry(0, SRC_IP, &[(0, &[])]), vec![0]].concat();
    assert_refused(&frame(1, &entries), "not longer");
    // Under 10.0.0.0/8, another /8 would be a sibling, not a child.
    let entries = [src_8(), entry(0, SRC_IP, &[(8, &[11])])].concat();
    assert_refused(&frame(2, &entries), "not longer");
}

#[test]
fn flowtree_frame_mask_length_beyond_field_width_is_refused() {
    assert_refused(
        &frame(1, &entry(0, PROTO, &[(9, &[6, 0])])),
        "longer than field",
    );
    assert_refused(
        &frame(1, &entry(0, SRC_IP, &[(33, &[1, 2, 3, 4, 0])])),
        "longer than field",
    );
}

#[test]
fn flowtree_frame_nonzero_padding_is_refused() {
    // A /4 carries four value bits in one byte; the high four are padding.
    assert_refused(&frame(1, &entry(0, SRC_IP, &[(4, &[0x1a])])), "padding");
    // 10.0.0.0/8 → /20: twelve bits in two bytes.
    let entries = [src_8(), entry(0, SRC_IP, &[(20, &[0, 0x10])])].concat();
    assert_refused(&frame(2, &entries), "padding");
}

#[test]
fn flowtree_frame_off_ladder_length_is_refused() {
    // Well-formed delta, zero padding, but /4 is not a rung of the schema.
    assert_refused(
        &frame(1, &entry(0, SRC_IP, &[(4, &[0x0a])])),
        "off the schema ladder",
    );
}

#[test]
fn flowtree_frame_duplicate_key_is_refused() {
    let entries = [src_8(), entry(1, SRC_IP, &[(8, &[10])])].concat();
    assert_refused(&frame(2, &entries), "duplicate key");
}

#[test]
fn flowtree_frame_count_beyond_budget_is_refused() {
    let (stored, n) = flowtree_summary();
    let mut buf = encode_stored_summary(&stored);
    // … [capacity u64][compact_ratio f64][records u64] end the prefix. A
    // capacity of 1 puts the real tree's node count beyond the budget.
    assert!(n > FlowtreeConfig::default().with_capacity(1).node_budget());
    let at = frame_prefix().len() - 8 - 8 - 8;
    buf[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
    assert_refused(&buf, "exceeds budget");
}

#[test]
fn flowtree_frame_count_beyond_remaining_bytes_is_refused() {
    // Bounded by the bytes left before anything is allocated.
    assert_refused(&frame(u32::MAX, &src_8()), "truncated flowtree nodes");
}

#[test]
fn flowtree_frame_truncated_varints_are_refused() {
    // The score's continuation bit promises a byte that never comes.
    let mut entries = src_8();
    *entries.last_mut().unwrap() = 0x80;
    assert_refused(&frame(1, &entries), "truncated flowtree node score");
    // A root score cut the same way.
    let mut buf = frame_prefix();
    buf.push(0xff);
    assert_refused(&buf, "truncated flowtree root score");
}

#[test]
fn flowtree_frame_over_long_varints_are_refused() {
    // A redundant zero final byte: 1 written as two bytes.
    let mut entries = src_8();
    entries.pop();
    entries.extend_from_slice(&[0x81, 0x00]);
    assert_refused(&frame(1, &entries), "over-long varint");
    // Eleven bytes, or a tenth byte carrying bits beyond 64.
    let mut up = vec![0x80; 10];
    up.push(0x00);
    up.extend_from_slice(&src_8()[1..]);
    assert_refused(&frame(1, &up), "over-long varint");
    let mut up = vec![0xff; 9];
    up.push(0x02);
    up.extend_from_slice(&src_8()[1..]);
    assert_refused(&frame(1, &up), "over-long varint");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any single-bit flip anywhere in a flowtree frame decodes to Ok or a
    /// typed error — never a panic, never an allocation proportional to a
    /// corrupted length field.
    #[test]
    fn arena_frame_bit_flips_never_panic(at in any::<usize>(), bit in 0u8..8) {
        let (stored, _) = flowtree_summary();
        let mut buf = encode_stored_summary(&stored);
        let len = buf.len();
        buf[at % len] ^= 1 << bit;
        let _ = decode_stored_summary(&buf);
    }

    /// Arbitrary node sections behind a valid header: Ok or a typed
    /// error, never a panic.
    #[test]
    fn random_node_sections_never_panic(
        count in 0u32..64,
        entries in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = decode_stored_summary(&frame(count, &entries));
    }
}
