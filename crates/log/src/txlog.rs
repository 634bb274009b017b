//! Private per-transaction log buffers (paper §3.1, §3.3 feature 2).
//!
//! Each transaction accumulates the descriptors of its inserts, updates
//! and deletes privately to avoid log-buffer contention, then serializes
//! them as one block, which it then copies into the space reserved by its
//! single commit-time `fetch_add`. The block does not depend on the LSN
//! it lands at, so it is built and checksummed before the reservation.
//!
//! The buffer is **allocation-free in the steady state**: record metadata
//! lives in a reused `Vec<RecordMeta>` and key/value bytes are bump-
//! copied into a reused flat arena, so a worker that recycles one
//! `TxLogBuffer` across transactions stops touching the allocator once
//! the high-water capacity is reached (the previous design allocated two
//! `Vec<u8>`s per logged record).

use ermia_common::{Oid, TableId};

use crate::records::{
    checksum32, encode_record_into, encoded_record_len, BlockKind, LogBlockHeader, LogRecordKind,
    PrepareMarker, BLOCK_HEADER_LEN, MIN_BLOCK_LEN, PREPARE_MARKER_LEN,
};

/// Metadata for one buffered record; its key/value bytes live in the
/// shared arena at the recorded ranges.
#[derive(Clone, Copy)]
struct RecordMeta {
    kind: LogRecordKind,
    table: TableId,
    oid: Oid,
    indirect: bool,
    key_start: u32,
    key_len: u32,
    val_len: u32,
}

/// A borrowed view of one buffered record (tests, post-commit walks).
#[derive(Clone, Copy, Debug)]
pub struct TxRecordView<'a> {
    pub kind: LogRecordKind,
    pub table: TableId,
    pub oid: Oid,
    pub indirect: bool,
    pub key: &'a [u8],
    pub value: &'a [u8],
}

/// A transaction's private log buffer.
///
/// Reused across transactions by the worker thread ([`TxLogBuffer::clear`])
/// so steady-state operation performs no heap allocation at all.
#[derive(Default)]
pub struct TxLogBuffer {
    metas: Vec<RecordMeta>,
    /// Bump arena: each record's key bytes immediately followed by its
    /// value bytes.
    arena: Vec<u8>,
    payload_bytes: usize,
    scratch: Vec<u8>,
}

impl TxLogBuffer {
    pub fn new() -> TxLogBuffer {
        TxLogBuffer::default()
    }

    pub fn add_insert(&mut self, table: TableId, oid: Oid, key: &[u8], value: &[u8]) {
        self.push(LogRecordKind::Insert, table, oid, key, value, false);
    }

    pub fn add_update(&mut self, table: TableId, oid: Oid, key: &[u8], value: &[u8]) {
        self.push(LogRecordKind::Update, table, oid, key, value, false);
    }

    pub fn add_delete(&mut self, table: TableId, oid: Oid, key: &[u8]) {
        self.push(LogRecordKind::Delete, table, oid, key, &[], false);
    }

    /// Record a secondary-index entry so recovery can rebuild the index.
    pub fn add_secondary_insert(&mut self, table: TableId, index_raw: u32, oid: Oid, key: &[u8]) {
        self.push(LogRecordKind::SecondaryInsert, table, oid, key, &index_raw.to_le_bytes(), false);
    }

    /// Log an insert/update whose value was diverted to the blob store;
    /// `blob_ref` is the encoded [`crate::BlobRef`].
    pub fn add_indirect(
        &mut self,
        kind: LogRecordKind,
        table: TableId,
        oid: Oid,
        key: &[u8],
        blob_ref: &[u8],
    ) {
        self.push(kind, table, oid, key, blob_ref, true);
    }

    fn push(
        &mut self,
        kind: LogRecordKind,
        table: TableId,
        oid: Oid,
        key: &[u8],
        value: &[u8],
        indirect: bool,
    ) {
        let key_start = self.arena.len() as u32;
        self.arena.extend_from_slice(key);
        self.arena.extend_from_slice(value);
        self.metas.push(RecordMeta {
            kind,
            table,
            oid,
            indirect,
            key_start,
            key_len: key.len() as u32,
            val_len: value.len() as u32,
        });
        self.payload_bytes += encoded_record_len(table, oid, key.len(), value.len());
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Visit the buffered records in order (tests inspect them).
    pub fn for_each_record(&self, mut f: impl FnMut(TxRecordView<'_>)) {
        for m in &self.metas {
            let ks = m.key_start as usize;
            let vs = ks + m.key_len as usize;
            f(TxRecordView {
                kind: m.kind,
                table: m.table,
                oid: m.oid,
                indirect: m.indirect,
                key: &self.arena[ks..vs],
                value: &self.arena[vs..vs + m.val_len as usize],
            });
        }
    }

    /// The block length a commit must reserve: header + records, rounded
    /// up to the minimum block granularity so segment tails always fit a
    /// skip header.
    pub fn block_len(&self) -> usize {
        let raw = BLOCK_HEADER_LEN + self.payload_bytes;
        raw.div_ceil(MIN_BLOCK_LEN) * MIN_BLOCK_LEN
    }

    /// The block length a 2PC *prepare* must reserve: like
    /// [`TxLogBuffer::block_len`] plus the [`PrepareMarker`] prefix.
    pub fn prepare_block_len(&self) -> usize {
        let raw = BLOCK_HEADER_LEN + PREPARE_MARKER_LEN + self.payload_bytes;
        raw.div_ceil(MIN_BLOCK_LEN) * MIN_BLOCK_LEN
    }

    /// Serialize the block into an internal scratch buffer and return it.
    /// Length equals [`TxLogBuffer::block_len`]. The block commits at the
    /// LSN it is written to; it does not name that LSN itself.
    pub fn serialize(&mut self) -> &[u8] {
        self.serialize_inner(BlockKind::Txn, None)
    }

    /// Serialize the same records as a [`BlockKind::TxnPrepare`] block:
    /// the payload leads with `marker` so recovery can find the
    /// coordinator's verdict. Length equals
    /// [`TxLogBuffer::prepare_block_len`].
    pub fn serialize_prepare(&mut self, marker: PrepareMarker) -> &[u8] {
        self.serialize_inner(BlockKind::TxnPrepare, Some(marker))
    }

    /// The block the last [`TxLogBuffer::serialize`] or
    /// [`TxLogBuffer::serialize_prepare`] built.
    pub fn serialized(&self) -> &[u8] {
        &self.scratch
    }

    fn serialize_inner(&mut self, kind: BlockKind, marker: Option<PrepareMarker>) -> &[u8] {
        let total =
            if marker.is_some() { self.prepare_block_len() } else { self.block_len() };
        self.scratch.clear();
        self.scratch.resize(BLOCK_HEADER_LEN, 0);
        if let Some(m) = marker {
            let start = self.scratch.len();
            self.scratch.resize(start + PREPARE_MARKER_LEN, 0);
            m.encode_into(&mut self.scratch[start..]);
        }
        for m in &self.metas {
            let ks = m.key_start as usize;
            let vs = ks + m.key_len as usize;
            encode_record_into(
                &mut self.scratch,
                m.kind,
                m.table,
                m.oid,
                m.indirect,
                &self.arena[ks..vs],
                &self.arena[vs..vs + m.val_len as usize],
            );
        }
        debug_assert_eq!(
            self.scratch.len().div_ceil(MIN_BLOCK_LEN) * MIN_BLOCK_LEN,
            total,
            "block_len must follow the encoded record lengths"
        );
        self.scratch.resize(total, 0); // zero pad to block granularity
        let checksum = checksum32(&self.scratch[BLOCK_HEADER_LEN..]);
        LogBlockHeader::new(kind, self.metas.len() as u16, total as u32, checksum)
            .encode_into(&mut self.scratch);
        &self.scratch
    }

    /// Reset for the next transaction, keeping all buffer capacity.
    pub fn clear(&mut self) {
        self.metas.clear();
        self.arena.clear();
        self.payload_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{LogBlockHeader, LogRecord};

    #[test]
    fn block_len_is_padded() {
        let mut b = TxLogBuffer::new();
        assert_eq!(b.block_len(), MIN_BLOCK_LEN);
        b.add_insert(TableId(1), Oid(1), b"k", b"v");
        assert_eq!(b.block_len() % MIN_BLOCK_LEN, 0);
        assert!(b.block_len() >= BLOCK_HEADER_LEN + 7);
    }

    #[test]
    fn serialize_roundtrips_records() {
        let mut b = TxLogBuffer::new();
        b.add_insert(TableId(1), Oid(10), b"alpha", b"AAAA");
        b.add_update(TableId(2), Oid(20), b"beta", b"BBBBBB");
        b.add_delete(TableId(1), Oid(10), b"alpha");
        let bytes = b.serialize().to_vec();

        let header = LogBlockHeader::decode(&bytes).unwrap();
        assert_eq!(header.kind, BlockKind::Txn);
        assert_eq!(header.nrec, 3);
        assert_eq!(header.len as usize, bytes.len());
        assert_eq!(header.checksum, checksum32(&bytes[BLOCK_HEADER_LEN..]));

        let mut pos = BLOCK_HEADER_LEN;
        let (r1, p) = LogRecord::decode(&bytes, pos).unwrap();
        assert_eq!(r1.kind, LogRecordKind::Insert);
        assert_eq!(r1.key, b"alpha");
        pos = p;
        let (r2, p) = LogRecord::decode(&bytes, pos).unwrap();
        assert_eq!(r2.kind, LogRecordKind::Update);
        assert_eq!(r2.value, b"BBBBBB");
        pos = p;
        let (r3, _) = LogRecord::decode(&bytes, pos).unwrap();
        assert_eq!(r3.kind, LogRecordKind::Delete);
        assert!(r3.value.is_empty());
    }

    #[test]
    fn serialize_prepare_leads_with_marker() {
        let mut b = TxLogBuffer::new();
        b.add_insert(TableId(4), Oid(40), b"gamma", b"CCCC");
        let marker =
            PrepareMarker { coord_shard: 3, coord_lsn: 0xDEAD_BEEF, trace_hi: 0, trace_lo: 0 };
        let bytes = b.serialize_prepare(marker).to_vec();
        assert_eq!(bytes.len(), b.prepare_block_len());
        assert!(b.prepare_block_len() >= b.block_len());

        let header = LogBlockHeader::decode(&bytes).unwrap();
        assert_eq!(header.kind, BlockKind::TxnPrepare);
        assert_eq!(header.nrec, 1);
        assert_eq!(header.len as usize, bytes.len());
        assert_eq!(header.checksum, checksum32(&bytes[BLOCK_HEADER_LEN..]));

        let got = PrepareMarker::decode(&bytes[BLOCK_HEADER_LEN..]).unwrap();
        assert_eq!(got.coord_shard, 3);
        assert_eq!(got.coord_lsn, 0xDEAD_BEEF);

        let (r, _) =
            LogRecord::decode(&bytes, BLOCK_HEADER_LEN + PREPARE_MARKER_LEN).unwrap();
        assert_eq!(r.kind, LogRecordKind::Insert);
        assert_eq!(r.key, b"gamma");
        assert_eq!(r.value, b"CCCC");
    }

    #[test]
    fn record_views_expose_buffered_contents() {
        let mut b = TxLogBuffer::new();
        b.add_update(TableId(3), Oid(7), b"key7", b"val7");
        b.add_indirect(LogRecordKind::Update, TableId(3), Oid(8), b"key8", b"blobref");
        let mut seen = Vec::new();
        b.for_each_record(|r| seen.push((r.oid, r.key.to_vec(), r.value.to_vec(), r.indirect)));
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (Oid(7), b"key7".to_vec(), b"val7".to_vec(), false));
        assert_eq!(seen[1], (Oid(8), b"key8".to_vec(), b"blobref".to_vec(), true));
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut b = TxLogBuffer::new();
        b.add_insert(TableId(1), Oid(1), b"k", b"v");
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.block_len(), MIN_BLOCK_LEN);
    }

    #[test]
    fn steady_state_reuse_does_not_grow() {
        let mut b = TxLogBuffer::new();
        for round in 0..50u32 {
            b.clear();
            for i in 0..8u32 {
                b.add_update(TableId(1), Oid(i), &i.to_le_bytes(), &round.to_le_bytes());
            }
            let _ = b.serialize();
            if round == 0 {
                // Capture high-water capacities after the first round.
                let caps = (b.metas.capacity(), b.arena.capacity(), b.scratch.capacity());
                b.clear();
                for i in 0..8u32 {
                    b.add_update(TableId(1), Oid(i), &i.to_le_bytes(), &round.to_le_bytes());
                }
                let _ = b.serialize();
                assert_eq!(
                    caps,
                    (b.metas.capacity(), b.arena.capacity(), b.scratch.capacity()),
                    "reuse must not grow the buffers"
                );
            }
        }
    }

    /// The block sizes the compact format promises for the benchmark's
    /// commit shapes (OIDs in the 3-byte varint range, as in a table of
    /// 1M rows): a pair commit of two 8-byte keys and values fits one
    /// 64-byte block (16 + 2·(7 + 16) = 62), a wide commit of four 11-byte
    /// keys with 100-byte values fits 512 (16 + 4·(7 + 111) = 488), and a
    /// 2PC decide fits the 32-byte grain.
    #[test]
    fn block_sizes_of_benchmark_commits_are_pinned() {
        let mut b = TxLogBuffer::new();
        for (i, key) in [b"pair-k-a", b"pair-k-b"].into_iter().enumerate() {
            b.add_update(TableId(1), Oid(500_000 + i as u32), key, &[7u8; 8]);
        }
        assert_eq!(BLOCK_HEADER_LEN + b.payload_bytes, 62);
        assert_eq!(b.block_len(), 64);
        assert_eq!(b.serialize().len(), 64);

        b.clear();
        for i in 0..4u32 {
            b.add_update(TableId(1), Oid(900_000 + i), b"row-0000000", &[9u8; 100]);
        }
        assert_eq!(BLOCK_HEADER_LEN + b.payload_bytes, 488);
        assert_eq!(b.block_len(), 512);
        assert_eq!(b.serialize().len(), 512);

        assert_eq!(crate::records::DECIDE_BLOCK_LEN, 32);
        let decide =
            crate::DecideRecord { gtid_lsn: 1 << 40, coord_shard: 1, commit: true }.encode_block();
        let header = LogBlockHeader::decode(&decide).unwrap();
        assert_eq!((header.kind, header.len), (BlockKind::TxnDecide, 32));
        assert_eq!(header.checksum, checksum32(&decide[BLOCK_HEADER_LEN..]));
    }
}
