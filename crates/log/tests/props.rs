//! Property tests for the log formats: arbitrary records round-trip
//! through serialization over the full range of every field, truncated
//! or malformed records decode to `None` without panicking, blocks
//! decode exactly, and checksums catch any single-byte corruption.

use ermia_common::{Oid, TableId};
use ermia_log::{
    checksum32, LogBlockHeader, LogRecord, LogRecordKind, TxLogBuffer, BLOCK_HEADER_LEN,
};
use proptest::prelude::*;

/// Values on both sides of every LEB128 length boundary of a `u32`.
const U32_EDGES: [u32; 10] =
    [0, 127, 128, 16_383, 16_384, 2_097_151, 2_097_152, 268_435_455, 268_435_456, u32::MAX];

/// Lengths on both sides of every varint boundary a test buffer can
/// afford (1, 2, 3 and 4 encoded bytes).
const LEN_EDGES: [usize; 8] = [0, 1, 127, 128, 16_383, 16_384, 2_097_151, 2_097_152];

fn field_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![(0..U32_EDGES.len()).prop_map(|i| U32_EDGES[i]), any::<u32>()]
}

/// Lengths up to `max`: a boundary value or a small length.
fn len_strategy(max: usize) -> impl Strategy<Value = usize> {
    let edges: Vec<usize> = LEN_EDGES.iter().copied().filter(|&l| l <= max).collect();
    prop_oneof![(0..edges.len()).prop_map(move |i| edges[i]), 0..300usize]
}

/// `len` bytes that vary with `seed` (cheap to build at megabyte sizes).
fn bytes(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
}

/// Records with any kind, table and oid, keys up to `u16::MAX` bytes and
/// values up to `max_val` bytes.
fn record_strategy(max_val: usize) -> impl Strategy<Value = LogRecord> {
    (
        prop_oneof![
            Just(LogRecordKind::Insert),
            Just(LogRecordKind::Update),
            Just(LogRecordKind::Delete),
            Just(LogRecordKind::SecondaryInsert),
        ],
        field_strategy(),
        field_strategy(),
        prop_oneof![len_strategy(u16::MAX as usize), Just(u16::MAX as usize)],
        len_strategy(max_val),
        (any::<u8>(), any::<bool>()),
    )
        .prop_map(|(kind, table, oid, key_len, val_len, (seed, indirect))| LogRecord {
            kind,
            table: TableId(table),
            oid: Oid(oid),
            key: bytes(key_len, seed),
            value: bytes(val_len, seed ^ 0x5a),
            indirect,
        })
}

/// Independent LEB128 encoder: the record layout written out by hand.
fn leb128(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn head_byte(r: &LogRecord) -> u8 {
    r.kind as u8 | if r.indirect { 0x80 } else { 0 }
}

proptest! {
    /// Records round-trip, `encoded_len` is exact, and the bytes are the
    /// documented layout: head byte, four LEB128 fields, key, value.
    #[test]
    fn record_roundtrip(rec in record_strategy(2_097_152)) {
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        prop_assert_eq!(buf.len(), rec.encoded_len());

        let mut expect = vec![head_byte(&rec)];
        for field in [rec.key.len() as u64, rec.table.0 as u64, rec.oid.0 as u64, rec.value.len() as u64] {
            leb128(&mut expect, field);
        }
        prop_assert_eq!(buf.len(), expect.len() + rec.key.len() + rec.value.len());
        prop_assert!(buf[..expect.len()] == expect[..], "record header is not the documented layout");

        let (decoded, consumed) = LogRecord::decode(&buf, 0).expect("decodes");
        prop_assert_eq!(decoded, rec);
        prop_assert_eq!(consumed, buf.len());
    }

    /// Every strict prefix of an encoded record is rejected, wherever the
    /// cut falls: in the head byte, inside a varint, or in the body.
    #[test]
    fn every_strict_prefix_decodes_to_none(rec in record_strategy(16_385)) {
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        for cut in 0..buf.len() {
            prop_assert!(LogRecord::decode(&buf[..cut], 0).is_none(), "prefix of {} bytes decoded", cut);
        }
        // The same holds for a record that starts mid-buffer.
        let mut shifted = vec![0xEE; 3];
        shifted.extend_from_slice(&buf);
        for cut in 3..shifted.len() {
            prop_assert!(LogRecord::decode(&shifted[..cut], 3).is_none());
        }
    }

    /// A varint that runs past five bytes (an overlong or non-terminated
    /// field), or a five-byte varint that overflows a `u32`, is malformed
    /// in any of the four header fields.
    #[test]
    fn overlong_varints_decode_to_none(
        rec in record_strategy(64),
        field in 0usize..4,
        last in 0u8..0x80,
        overflow_top in 0x10u8..0x80,
    ) {
        let fields = [rec.key.len() as u64, rec.table.0 as u64, rec.oid.0 as u64, rec.value.len() as u64];
        let build = |bad: &[u8]| {
            let mut out = vec![head_byte(&rec)];
            for (i, &v) in fields.iter().enumerate() {
                if i == field {
                    out.extend_from_slice(bad);
                } else {
                    leb128(&mut out, v);
                }
            }
            out.extend_from_slice(&rec.key);
            out.extend_from_slice(&rec.value);
            out
        };
        let six_bytes = build(&[0x80, 0x80, 0x80, 0x80, 0x80, last]);
        prop_assert!(LogRecord::decode(&six_bytes, 0).is_none(), "6-byte varint decoded");
        let too_big = build(&[0xff, 0xff, 0xff, 0xff, overflow_top]);
        prop_assert!(LogRecord::decode(&too_big, 0).is_none(), "u32 overflow decoded");
    }

    /// A whole transaction block round-trips: header fields plus each
    /// record in order.
    #[test]
    fn block_roundtrip(recs in proptest::collection::vec(record_strategy(16_384), 0..12)) {
        let mut txbuf = TxLogBuffer::new();
        for r in &recs {
            match (r.kind, r.indirect) {
                (LogRecordKind::Insert, false) => txbuf.add_insert(r.table, r.oid, &r.key, &r.value),
                (LogRecordKind::Update, false) => txbuf.add_update(r.table, r.oid, &r.key, &r.value),
                (LogRecordKind::Delete, _) => txbuf.add_delete(r.table, r.oid, &r.key),
                (LogRecordKind::SecondaryInsert, _) => {
                    txbuf.add_secondary_insert(r.table, 7, r.oid, &r.key)
                }
                (kind, true) => txbuf.add_indirect(kind, r.table, r.oid, &r.key, &r.value),
            }
        }
        let bytes = txbuf.serialize().to_vec();
        prop_assert_eq!(bytes.len(), txbuf.block_len());
        prop_assert_eq!(bytes.len() % 32, 0);
        let raw = BLOCK_HEADER_LEN + recs.iter().map(|r| match r.kind {
            LogRecordKind::Delete => LogRecord { value: Vec::new(), indirect: false, ..r.clone() }.encoded_len(),
            LogRecordKind::SecondaryInsert => LogRecord { value: vec![0; 4], indirect: false, ..r.clone() }.encoded_len(),
            _ => r.encoded_len(),
        }).sum::<usize>();
        prop_assert_eq!(bytes.len(), raw.div_ceil(32) * 32, "block_len is not the tight padded length");

        let header = LogBlockHeader::decode(&bytes).expect("header decodes");
        prop_assert_eq!(header.nrec as usize, recs.len());
        prop_assert_eq!(header.len as usize, bytes.len());
        prop_assert_eq!(header.checksum, checksum32(&bytes[BLOCK_HEADER_LEN..]));

        let mut pos = BLOCK_HEADER_LEN;
        for orig in &recs {
            let (dec, next) = LogRecord::decode(&bytes, pos).expect("record decodes");
            // SecondaryInsert rewrites the value to the index id.
            if orig.kind == LogRecordKind::SecondaryInsert {
                prop_assert_eq!(dec.kind, LogRecordKind::SecondaryInsert);
                prop_assert_eq!(&dec.key, &orig.key);
                prop_assert_eq!(dec.value, 7u32.to_le_bytes().to_vec());
            } else if orig.kind == LogRecordKind::Delete {
                prop_assert_eq!(dec.kind, LogRecordKind::Delete);
                prop_assert_eq!(&dec.key, &orig.key);
                prop_assert!(dec.value.is_empty());
            } else {
                prop_assert_eq!(&dec, orig);
            }
            pos = next;
        }
    }

    /// Flipping any payload byte breaks the checksum.
    #[test]
    fn checksum_catches_corruption(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        pos_seed: usize,
        flip in 1u8..=255,
    ) {
        let sum = checksum32(&payload);
        let mut corrupted = payload.clone();
        let pos = pos_seed % corrupted.len();
        corrupted[pos] ^= flip;
        prop_assert_ne!(sum, checksum32(&corrupted));
    }
}
