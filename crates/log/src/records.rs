//! On-disk log block and record formats.
//!
//! The unit of log insertion is a *block*: one block per committing
//! transaction (aggregated from its private buffer), or a skip record.
//! Blocks begin with a 16-byte [`LogBlockHeader`]; transaction blocks
//! carry a sequence of varint-framed [`LogRecord`]s. Recovery examines
//! only block headers to roll the OID arrays forward (§3.7) but the
//! records carry full keys and payloads so the reproduction can rebuild
//! the entire database from the log ("the log is the database").
//!
//! Nothing in a block depends on where it lands: a block's commit stamp
//! is its own LSN, which the scanner reports as [`crate::ScannedBlock`]'s
//! `lsn`. A transaction can therefore serialize and checksum its block
//! before it reserves log space.

use ermia_common::{Oid, TableId};

/// Magic value identifying a block header ("ERM2").
pub const BLOCK_MAGIC: u32 = 0x4552_4d32;

/// Magic of the previous block format (32-byte headers, fixed 16-byte
/// record headers). The scanner refuses a log that carries it instead of
/// treating it as a hole, so an old data directory cannot silently
/// recover as an empty database.
pub(crate) const OLD_BLOCK_MAGIC: u32 = 0x4552_4d4c;

/// Serialized size of a block header in bytes.
pub const BLOCK_HEADER_LEN: usize = 16;

/// Minimum allocation the LSN space will hand out, and the slot size of
/// the log buffer's availability ring; a closing skip record must always
/// fit in the remainder of a segment, so segment sizes are multiples of
/// this and all allocations are rounded up to it. Deliberately larger
/// than [`BLOCK_HEADER_LEN`]: the grain sizes the ring's slot array.
pub const MIN_BLOCK_LEN: usize = 32;

/// Block kinds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum BlockKind {
    /// A committed transaction's updates.
    Txn = 1,
    /// Dead space: an aborted reservation or a segment-closing pad. The
    /// header's `len` covers the whole skipped range.
    Skip = 2,
    /// Checkpoint begin marker (payload: none).
    CheckpointBegin = 3,
    /// Checkpoint end marker (payload: the checkpoint's metadata).
    CheckpointEnd = 4,
    /// A cross-shard transaction's updates, written at 2PC *prepare*.
    /// The payload starts with a [`PrepareMarker`] naming the
    /// coordinator, then carries ordinary records. The updates are not
    /// committed until a matching [`BlockKind::TxnDecide`] (on the
    /// coordinator's log) says so.
    TxnPrepare = 5,
    /// A 2PC decision record (payload: [`DecideRecord`]). Written on the
    /// coordinator's log once every participant's prepare is durable;
    /// mirrored best-effort on participant logs to shortcut recovery.
    TxnDecide = 6,
}

impl BlockKind {
    pub fn from_u8(v: u8) -> Option<BlockKind> {
        match v {
            1 => Some(BlockKind::Txn),
            2 => Some(BlockKind::Skip),
            3 => Some(BlockKind::CheckpointBegin),
            4 => Some(BlockKind::CheckpointEnd),
            5 => Some(BlockKind::TxnPrepare),
            6 => Some(BlockKind::TxnDecide),
            _ => None,
        }
    }
}

/// Serialized size of a [`PrepareMarker`] / [`DecideRecord`].
pub const PREPARE_MARKER_LEN: usize = 32;
pub const DECIDE_RECORD_LEN: usize = 16;

/// Total length of a [`BlockKind::TxnDecide`] block: header plus one
/// [`DecideRecord`], rounded up to the allocation grain.
pub const DECIDE_BLOCK_LEN: usize =
    (BLOCK_HEADER_LEN + DECIDE_RECORD_LEN).div_ceil(MIN_BLOCK_LEN) * MIN_BLOCK_LEN;

/// First 32 bytes of a [`BlockKind::TxnPrepare`] payload: which shard
/// coordinates this global transaction, where the coordinator's own
/// prepare block lives, and the distributed-tracing id of the client
/// operation that wrote it (zero when untraced). The global
/// transaction id is `(coord_shard, coord_lsn)`; the *coordinator's
/// own* prepare block stores [`PrepareMarker::COORD_SELF`] (its gtid
/// LSN is the block's own LSN, which the block cannot name because it is
/// serialized before its log space is reserved, and raw 0 is a real LSN
/// — the first block of a fresh log).
///
/// Layout (little-endian): `coord_shard u32, pad u32, coord_lsn u64,
/// trace_hi u64, trace_lo u64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrepareMarker {
    pub coord_shard: u32,
    /// Raw LSN of the coordinator's prepare block;
    /// [`PrepareMarker::COORD_SELF`] on the coordinator's own prepare.
    pub coord_lsn: u64,
    /// 128-bit trace id of the originating traced operation, split into
    /// two words; both zero when the transaction was untraced. Carried
    /// in the log so a replica's apply of this transaction can be
    /// stitched to the client's trace.
    pub trace_hi: u64,
    pub trace_lo: u64,
}

impl PrepareMarker {
    /// `coord_lsn` sentinel marking the coordinator's own prepare block:
    /// its gtid LSN is the block's own LSN. Never a valid raw LSN
    /// (the top bit is reserved for TID stamps).
    pub const COORD_SELF: u64 = u64::MAX;

    pub fn encode_into(&self, out: &mut [u8]) {
        assert!(out.len() >= PREPARE_MARKER_LEN);
        out[0..4].copy_from_slice(&self.coord_shard.to_le_bytes());
        out[4..8].copy_from_slice(&0u32.to_le_bytes());
        out[8..16].copy_from_slice(&self.coord_lsn.to_le_bytes());
        out[16..24].copy_from_slice(&self.trace_hi.to_le_bytes());
        out[24..32].copy_from_slice(&self.trace_lo.to_le_bytes());
    }

    pub fn decode(buf: &[u8]) -> Option<PrepareMarker> {
        if buf.len() < PREPARE_MARKER_LEN {
            return None;
        }
        Some(PrepareMarker {
            coord_shard: u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            coord_lsn: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            trace_hi: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
            trace_lo: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
        })
    }
}

/// Payload of a [`BlockKind::TxnDecide`] block: the verdict for one
/// global transaction. `decision` is 1 for commit, 0 for abort.
///
/// Layout (little-endian): `gtid_lsn u64, coord_shard u32, decision u8,
/// pad [u8; 3]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecideRecord {
    /// Raw LSN of the coordinator's prepare block (the gtid).
    pub gtid_lsn: u64,
    pub coord_shard: u32,
    pub commit: bool,
}

impl DecideRecord {
    pub fn encode(&self) -> [u8; DECIDE_RECORD_LEN] {
        let mut out = [0u8; DECIDE_RECORD_LEN];
        out[0..8].copy_from_slice(&self.gtid_lsn.to_le_bytes());
        out[8..12].copy_from_slice(&self.coord_shard.to_le_bytes());
        out[12] = self.commit as u8;
        out
    }

    /// The whole [`BlockKind::TxnDecide`] block carrying this verdict.
    pub fn encode_block(&self) -> [u8; DECIDE_BLOCK_LEN] {
        let mut block = [0u8; DECIDE_BLOCK_LEN];
        let payload = &mut block[BLOCK_HEADER_LEN..];
        payload[..DECIDE_RECORD_LEN].copy_from_slice(&self.encode());
        let checksum = checksum32(payload);
        LogBlockHeader::new(BlockKind::TxnDecide, 0, DECIDE_BLOCK_LEN as u32, checksum)
            .encode_into(&mut block);
        block
    }

    pub fn decode(buf: &[u8]) -> Option<DecideRecord> {
        if buf.len() < DECIDE_RECORD_LEN {
            return None;
        }
        Some(DecideRecord {
            gtid_lsn: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
            coord_shard: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            commit: buf[12] != 0,
        })
    }
}

/// Fixed-size header at the start of every log block.
///
/// Layout (little-endian):
/// ```text
/// 0  magic      u32     BLOCK_MAGIC
/// 4  kind       u8      BlockKind
/// 5  flags      u8      reserved, 0
/// 6  nrec       u16     number of records in a Txn/TxnPrepare block
/// 8  len        u32     total block length including header
/// 12 checksum   u32     checksum32 of the payload (0 for skips)
/// ```
///
/// The header carries no commit stamp: a Txn block commits at its own
/// LSN, the position the scanner read it from.
#[derive(Clone, Copy, Debug)]
pub struct LogBlockHeader {
    pub kind: BlockKind,
    pub nrec: u16,
    pub len: u32,
    pub checksum: u32,
}

impl LogBlockHeader {
    /// The header of a `len`-byte block of `kind` holding `nrec` records
    /// whose payload checksums to `checksum`.
    pub fn new(kind: BlockKind, nrec: u16, len: u32, checksum: u32) -> LogBlockHeader {
        LogBlockHeader { kind, nrec, len, checksum }
    }

    pub fn encode_into(&self, out: &mut [u8]) {
        assert!(out.len() >= BLOCK_HEADER_LEN);
        out[0..4].copy_from_slice(&BLOCK_MAGIC.to_le_bytes());
        out[4] = self.kind as u8;
        out[5] = 0;
        out[6..8].copy_from_slice(&self.nrec.to_le_bytes());
        out[8..12].copy_from_slice(&self.len.to_le_bytes());
        out[12..16].copy_from_slice(&self.checksum.to_le_bytes());
    }

    /// Decode a header; `None` if the magic doesn't match (a hole).
    pub fn decode(buf: &[u8]) -> Option<LogBlockHeader> {
        if buf.len() < BLOCK_HEADER_LEN {
            return None;
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if magic != BLOCK_MAGIC {
            return None;
        }
        let kind = BlockKind::from_u8(buf[4])?;
        Some(LogBlockHeader {
            kind,
            nrec: u16::from_le_bytes(buf[6..8].try_into().unwrap()),
            len: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            checksum: u32::from_le_bytes(buf[12..16].try_into().unwrap()),
        })
    }
}

/// Record kinds within a transaction block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum LogRecordKind {
    /// New object: allocates the OID during recovery replay.
    Insert = 1,
    /// New version behind an existing OID.
    Update = 2,
    /// Tombstone.
    Delete = 3,
    /// Secondary-index entry: `key` is the secondary key, `oid` the
    /// primary record, and the first 4 bytes of `value` the index id.
    SecondaryInsert = 4,
}

impl LogRecordKind {
    pub fn from_u8(v: u8) -> Option<LogRecordKind> {
        match v {
            1 => Some(LogRecordKind::Insert),
            2 => Some(LogRecordKind::Update),
            3 => Some(LogRecordKind::Delete),
            4 => Some(LogRecordKind::SecondaryInsert),
            _ => None,
        }
    }
}

/// One logical update inside a transaction block.
///
/// Record layout: one head byte (the kind in bits 0–6, bit 7 set for an
/// *indirect* value), then `key_len`, `table`, `oid` and `val_len` as
/// LEB128 varints (1–5 bytes each), then the key and value bytes. With
/// keys and values under 128 bytes and OIDs under 2^21, the header takes
/// 5–7 bytes. An indirect value is a
/// [`crate::BlobRef`] into the large-object store rather than the payload
/// itself (§3.3, "large object writes can be diverted to secondary
/// storage").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    pub kind: LogRecordKind,
    pub table: TableId,
    pub oid: Oid,
    pub key: Vec<u8>,
    pub value: Vec<u8>,
    /// Value is a blob reference, not the payload.
    pub indirect: bool,
}

const FLAG_INDIRECT: u8 = 0x80;

/// Longest LEB128 encoding of a `u32`.
const MAX_VARINT_LEN: usize = 5;

/// Encoded length of `v` as a LEB128 varint.
#[inline]
fn varint_len(v: u32) -> usize {
    (32 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Write `v` as a varint at the start of `out`; returns its length.
#[inline]
fn put_varint(out: &mut [u8], mut v: u32) -> usize {
    let mut i = 0;
    while v >= 0x80 {
        out[i] = v as u8 | 0x80;
        v >>= 7;
        i += 1;
    }
    out[i] = v as u8;
    i + 1
}

/// Read a varint at `buf[*pos..]` and advance `pos` past it. `None` if
/// the input ends first, runs past [`MAX_VARINT_LEN`] bytes, or
/// overflows a `u32`.
fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u32> {
    let mut v = 0u64;
    for i in 0..MAX_VARINT_LEN {
        let b = *buf.get(*pos + i)?;
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            *pos += i + 1;
            return u32::try_from(v).ok();
        }
    }
    None
}

/// Serialized length of a record with these fields and a `key_len`-byte
/// key and `val_len`-byte value — exactly what [`encode_record_into`]
/// writes.
#[inline]
pub(crate) fn encoded_record_len(table: TableId, oid: Oid, key_len: usize, val_len: usize) -> usize {
    1 + varint_len(key_len as u32)
        + varint_len(table.0)
        + varint_len(oid.0)
        + varint_len(val_len as u32)
        + key_len
        + val_len
}

/// Encode one record from its parts — the single definition of the wire
/// format, shared by [`LogRecord::encode_into`] and the allocation-free
/// [`crate::TxLogBuffer`] serializer.
pub fn encode_record_into(
    out: &mut Vec<u8>,
    kind: LogRecordKind,
    table: TableId,
    oid: Oid,
    indirect: bool,
    key: &[u8],
    value: &[u8],
) {
    let mut head = [0u8; 1 + 4 * MAX_VARINT_LEN];
    head[0] = kind as u8 | if indirect { FLAG_INDIRECT } else { 0 };
    let mut n = 1;
    for field in [key.len() as u32, table.0, oid.0, value.len() as u32] {
        n += put_varint(&mut head[n..], field);
    }
    out.extend_from_slice(&head[..n]);
    out.extend_from_slice(key);
    out.extend_from_slice(value);
}

impl LogRecord {
    /// Serialized length of this record.
    pub fn encoded_len(&self) -> usize {
        encoded_record_len(self.table, self.oid, self.key.len(), self.value.len())
    }

    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_record_into(out, self.kind, self.table, self.oid, self.indirect, &self.key, &self.value);
    }

    /// Decode one record at `buf[pos..]`, returning it and the position of
    /// the next record. `None` on malformed or truncated input.
    pub fn decode(buf: &[u8], pos: usize) -> Option<(LogRecord, usize)> {
        let head = *buf.get(pos)?;
        let kind = LogRecordKind::from_u8(head & !FLAG_INDIRECT)?;
        let indirect = head & FLAG_INDIRECT != 0;
        let mut p = pos + 1;
        let key_len = get_varint(buf, &mut p)? as usize;
        let table = TableId(get_varint(buf, &mut p)?);
        let oid = Oid(get_varint(buf, &mut p)?);
        let val_len = get_varint(buf, &mut p)? as usize;
        let key_end = p + key_len;
        let end = key_end + val_len;
        if buf.len() < end {
            return None;
        }
        let key = buf[p..key_end].to_vec();
        let value = buf[key_end..end].to_vec();
        Some((LogRecord { kind, table, oid, key, value, indirect }, end))
    }
}

/// FNV-1a over the payload; cheap and good enough to catch torn writes.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fold a 64-bit checksum into the header's 32-bit field.
pub fn checksum32(bytes: &[u8]) -> u32 {
    let h = checksum64(bytes);
    (h ^ (h >> 32)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = LogBlockHeader { kind: BlockKind::Txn, nrec: 3, len: 128, checksum: 0xabcd };
        let mut buf = [0u8; BLOCK_HEADER_LEN];
        h.encode_into(&mut buf);
        let d = LogBlockHeader::decode(&buf).unwrap();
        assert_eq!(d.kind, BlockKind::Txn);
        assert_eq!(d.nrec, 3);
        assert_eq!(d.len, 128);
        assert_eq!(d.checksum, 0xabcd);
    }

    #[test]
    fn header_rejects_bad_magic() {
        let buf = [0u8; BLOCK_HEADER_LEN];
        assert!(LogBlockHeader::decode(&buf).is_none());
    }

    #[test]
    fn record_roundtrip() {
        let r = LogRecord {
            kind: LogRecordKind::Update,
            table: TableId(9),
            oid: Oid(1234),
            key: b"key-1".to_vec(),
            value: vec![7; 100],
            indirect: false,
        };
        let mut buf = Vec::new();
        r.encode_into(&mut buf);
        assert_eq!(buf.len(), r.encoded_len());
        let (d, next) = LogRecord::decode(&buf, 0).unwrap();
        assert_eq!(d, r);
        assert_eq!(next, buf.len());
    }

    #[test]
    fn record_decode_rejects_truncation() {
        let r = LogRecord {
            kind: LogRecordKind::Insert,
            table: TableId(1),
            oid: Oid(1),
            key: b"k".to_vec(),
            value: b"v".to_vec(),
            indirect: true,
        };
        let mut buf = Vec::new();
        r.encode_into(&mut buf);
        assert!(LogRecord::decode(&buf[..buf.len() - 1], 0).is_none());
    }

    #[test]
    fn checksum_differs_on_flip() {
        let a = checksum32(b"hello world");
        let mut v = b"hello world".to_vec();
        v[3] ^= 1;
        assert_ne!(a, checksum32(&v));
    }
}
