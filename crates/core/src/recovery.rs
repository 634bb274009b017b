//! Checkpointing and recovery (paper §3.7).
//!
//! "Recovery in ERMIA is straightforward because the log contains only
//! committed work; OID arrays are the only real source of complexity."
//! The engine periodically copies the OID arrays (non-atomically — a
//! *fuzzy* checkpoint) to secondary storage, then recovery restores the
//! snapshot and rolls it forward by scanning the log after the
//! checkpoint. No undo is ever needed; the log truncates at the first
//! hole without losing committed work.
//!
//! The paper stores only OID→log-address mappings and relies on
//! anti-caching to load record bodies on demand; this reproduction has no
//! buffer manager, so checkpoints carry record payloads inline and replay
//! materializes versions directly. The *structure* of recovery (fuzzy
//! snapshot + header-driven forward scan, idempotent by stamp
//! comparison) matches the paper.
//!
//! Cross-shard 2PC adds one question the paper's single log never asks:
//! does a prepare whose verdict is not in its own log commit? One
//! resolver answers it for both readers of the log. [`LogApplier`]
//! replays a shard's log and buffers prepares without a local verdict;
//! [`resolve_in_doubt`] pools the decide verdicts of every shard's log
//! and applies each buffered prepare that has one. What is still pending
//! afterwards gets one of two policies: crash recovery
//! ([`Database::recover`], `ShardedDb::recover`) presumes abort, while a
//! replica keeps waiting for the coordinator's decide to ship.

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use ermia_common::{Lsn, Oid, Stamp};
use ermia_log::{CheckpointMeta, DecideRecord, LogRecord, LogRecordKind, LogScanner, PrepareMarker};
use ermia_storage::Version;
use ermia_telemetry::{EventKind, SpanKind, TraceContext};

use crate::database::Database;

/// Replay one resolved 2PC prepare, stitching a `ReplApply` span onto
/// the originating transaction's trace when the durable prepare marker
/// carried a trace id. This is how a replica tailing the shipped log
/// (and crash recovery) appears on the same timeline as the coordinator
/// that ran the transaction; an untraced marker costs one comparison.
fn apply_traced(
    db: &Database,
    txn: &InDoubtTxn,
    stats: &mut RecoveryStats,
) -> std::io::Result<()> {
    if txn.trace_hi == 0 && txn.trace_lo == 0 {
        return db.replay_records(&txn.records, txn.cstamp, stats);
    }
    let ring = db.inner.svc_ring();
    let t0 = ring.now_ns();
    let r = db.replay_records(&txn.records, txn.cstamp, stats);
    let ctx = TraceContext { trace_hi: txn.trace_hi, trace_lo: txn.trace_lo, parent: 0 };
    ring.record(
        &ctx,
        SpanKind::ReplApply,
        t0,
        ring.now_ns(),
        txn.cstamp.raw(),
        txn.coord_shard as u64,
    );
    r
}

/// Counters reported by [`Database::recover`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records restored from the checkpoint snapshot.
    pub checkpoint_records: u64,
    /// Log blocks replayed after the checkpoint.
    pub replayed_blocks: u64,
    /// Individual log records applied.
    pub replayed_records: u64,
    /// Records skipped because a newer version was already present
    /// (fuzzy-checkpoint overlap).
    pub skipped_stale: u64,
    /// 2PC prepares whose verdict was not in this shard's own log. Each
    /// one either took a commit verdict from another shard's log (see
    /// [`resolve_in_doubt`]) or was presumed aborted.
    pub in_doubt: u64,
}

/// A 2PC prepare found in the log without a verdict yet: validated,
/// durable, and waiting on the coordinator's decision.
struct InDoubtTxn {
    /// Shard that coordinated the global transaction.
    coord_shard: u32,
    /// This participant's prepare cstamp — the commit LSN the records
    /// take if the verdict is commit.
    cstamp: Lsn,
    /// Trace id the coordinator stamped into the prepare marker
    /// ((0, 0) = untraced): applying this prepare records a `ReplApply`
    /// span under the originating transaction's trace.
    trace_hi: u64,
    trace_lo: u64,
    records: Vec<LogRecord>,
}

/// Incremental log replay: the one-shot recovery scan generalized so a
/// replica can tail a growing log. Each [`LogApplier::apply_available`]
/// round replays every complete block past the applied frontier;
/// prepared-but-undecided 2PC transactions and the verdicts seen so far
/// carry over between rounds (a prepare and its decide may arrive in
/// different shipments, or in different shards' logs — see
/// [`resolve_in_doubt`]).
///
/// The frontier only advances to positions just past a successfully
/// decoded block — a scan that stops at a hole (torn or not-yet-shipped
/// bytes) does *not* move it, so the next round rescans from the last
/// good block and replay stays gap-free no matter where a shipment ends.
pub struct LogApplier {
    applied: u64,
    /// Prepares awaiting a verdict, keyed by global transaction id
    /// (coordinator shard, coordinator prepare LSN).
    pending: HashMap<(u32, u64), InDoubtTxn>,
    /// Every 2PC verdict this log has shown so far, by global id.
    decides: HashMap<(u32, u64), bool>,
    stats: RecoveryStats,
}

impl LogApplier {
    /// Start applying from logical log offset `from` (the checkpoint
    /// begin, or 0 for a from-scratch replay).
    pub fn new(from: u64) -> LogApplier {
        LogApplier {
            applied: from,
            pending: HashMap::new(),
            decides: HashMap::new(),
            stats: RecoveryStats::default(),
        }
    }

    /// The offset replay has consumed through: every byte below it has
    /// been applied (or was a skip/dead zone), and it is a sound resume
    /// point for both this applier and a resubscribing shipper.
    pub fn applied_offset(&self) -> u64 {
        self.applied
    }

    /// Replay every complete block currently in `db`'s log past the
    /// applied frontier. Returns the number of blocks replayed this
    /// round. Prepared-but-undecided transactions are buffered across
    /// rounds: first-updater-wins guarantees no conflicting commit
    /// interleaves with a prepared transaction on the same record, and
    /// replay is stamp-idempotent, so applying a decided prepare after
    /// later Txn blocks is order-safe.
    pub fn apply_available(&mut self, db: &Database) -> std::io::Result<u64> {
        let mut rounds = 0u64;
        let mut scanner = LogScanner::new(db.inner.log.segments(), self.applied);
        while let Some(block) = scanner.next_block()? {
            // Only a decoded block certifies the bytes behind it; after
            // `Ok(None)` the scanner's position may sit past a hole.
            self.applied = scanner.offset();
            match block.header.kind {
                ermia_log::BlockKind::Txn => {
                    rounds += 1;
                    self.stats.replayed_blocks += 1;
                    db.replay_records(&block.records(), block.lsn, &mut self.stats)?;
                }
                ermia_log::BlockKind::TxnPrepare => {
                    let Some(marker) = block.prepare_marker() else { continue };
                    let cstamp = block.lsn;
                    let gtid_lsn = if marker.coord_lsn == PrepareMarker::COORD_SELF {
                        cstamp.raw()
                    } else {
                        marker.coord_lsn
                    };
                    let txn = InDoubtTxn {
                        coord_shard: marker.coord_shard,
                        cstamp,
                        trace_hi: marker.trace_hi,
                        trace_lo: marker.trace_lo,
                        records: block.records(),
                    };
                    self.pending.insert((marker.coord_shard, gtid_lsn), txn);
                }
                ermia_log::BlockKind::TxnDecide => {
                    let Some(d) = DecideRecord::decode(&block.payload) else { continue };
                    self.decides.insert((d.coord_shard, d.gtid_lsn), d.commit);
                    if let Some(txn) = self.pending.remove(&(d.coord_shard, d.gtid_lsn)) {
                        if d.commit {
                            rounds += 1;
                            self.stats.replayed_blocks += 1;
                            apply_traced(db, &txn, &mut self.stats)?;
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(rounds)
    }

    /// Settle one pending prepare with a verdict: apply it on commit,
    /// drop it otherwise, and note the outcome on `db`'s service ring.
    fn resolve(&mut self, db: &Database, gtid: (u32, u64), commit: bool) -> std::io::Result<()> {
        let Some(txn) = self.pending.remove(&gtid) else { return Ok(()) };
        if commit {
            self.stats.replayed_blocks += 1;
            apply_traced(db, &txn, &mut self.stats)?;
        }
        db.inner.svc_ring().event(EventKind::TwoPcResolve, gtid.1, commit as u64);
        Ok(())
    }
}

/// Resolve 2PC prepares pending on any shard against the decide verdicts
/// pooled from every shard's log — the one place the engine decides
/// whether an in-doubt prepare commits. Each `(db, applier)` pair is one
/// shard's database and the applier replaying its log. A commit verdict
/// wins over any other copy; it is durable only after *every*
/// participant's prepare is, so resolution never commits a partial
/// transaction. Prepares with no verdict anywhere stay pending: crash
/// recovery then presumes abort, a replica waits for the decide to ship.
/// Returns the number of prepares committed.
pub fn resolve_in_doubt<'a>(
    shards: impl IntoIterator<Item = (&'a Database, &'a mut LogApplier)>,
) -> std::io::Result<u64> {
    let mut shards: Vec<_> = shards.into_iter().collect();
    let mut verdicts: HashMap<(u32, u64), bool> = HashMap::new();
    for (_, applier) in &shards {
        for (&gtid, &commit) in &applier.decides {
            *verdicts.entry(gtid).or_insert(false) |= commit;
        }
    }
    let mut committed = 0u64;
    for (db, applier) in &mut shards {
        let decided: Vec<((u32, u64), bool)> = applier
            .pending
            .keys()
            .filter_map(|gtid| verdicts.get(gtid).map(|&commit| (*gtid, commit)))
            .collect();
        for (gtid, commit) in decided {
            applier.resolve(db, gtid, commit)?;
            committed += commit as u64;
        }
    }
    Ok(committed)
}

/// Crash recovery of `dbs` as the shards of one engine: per shard,
/// install the latest checkpoint and replay the log; then
/// [`resolve_in_doubt`]; then presume abort for whatever is still
/// pending. Returns per-shard stats (in shard order) and the number of
/// in-doubt prepares committed.
pub(crate) fn recover_shards(dbs: &[Database]) -> std::io::Result<(Vec<RecoveryStats>, u64)> {
    let mut appliers = Vec::with_capacity(dbs.len());
    for db in dbs {
        let mut applier = LogApplier::new(0);
        if let Some(store) = &db.inner.checkpoints {
            if let Some((meta, payload)) = store.latest()? {
                (applier.stats.checkpoint_records, _) = db.install_checkpoint(&payload)?;
                applier.applied = meta.begin.offset();
            }
        }
        applier.apply_available(db)?;
        applier.stats.in_doubt = applier.pending.len() as u64;
        appliers.push(applier);
    }
    let committed = resolve_in_doubt(dbs.iter().zip(appliers.iter_mut()))?;
    let mut stats = Vec::with_capacity(dbs.len());
    for (db, mut applier) in dbs.iter().zip(appliers) {
        let presumed: Vec<(u32, u64)> = applier.pending.keys().copied().collect();
        for gtid in presumed {
            applier.resolve(db, gtid, false)?;
        }
        stats.push(applier.stats);
    }
    Ok((stats, committed))
}

// Checkpoint payload format (little-endian):
//   u32 ntables
//   per table: u32 table_id, u32 nrecords
//     per record: u32 oid, u64 clsn_raw, u8 tombstone,
//                 u16 key_len, u32 val_len, key, val
//   u32 nsecondary
//     per entry: u32 index_id, u32 oid, u16 key_len, key

impl Database {
    /// Take a fuzzy checkpoint: walk every indirection array, serialize
    /// the newest committed version of each record, wait for everything
    /// captured to be durable in the log, then persist the snapshot with
    /// a marker file. Returns the checkpoint's begin LSN.
    ///
    /// Two rules keep the fuzzy snapshot honest about crashes:
    ///
    /// * **Replay frontier.** A commit may be mid-post-commit while the
    ///   walk runs, its versions still TID-stamped and invisible — yet
    ///   its log block can already be durable, below where a naive
    ///   `tail_lsn()` frontier would start replay. The begin LSN is
    ///   lowered to the earliest in-flight commit stamp (captured
    ///   *before* the walk) so replay re-applies whatever the walk could
    ///   not see. Replay is idempotent, so overlap is harmless.
    /// * **Durability barrier.** Version stamps advance before their log
    ///   blocks reach disk, so the walk can capture commits the log
    ///   cannot yet back — and chain GC may have already reclaimed the
    ///   older durable version, so filtering them out would drop the key
    ///   from the snapshot entirely. Instead the checkpoint is published
    ///   only once the log is durable past every captured stamp. If the
    ///   log cannot catch up (poisoned, or a crash lands first) no
    ///   marker appears and recovery falls back to the previous
    ///   checkpoint plus a longer replay; an acked write is never
    ///   shadowed by unbacked state. Without the barrier, restoring such
    ///   a version plants it *above* the recovered log tail — invisible
    ///   to every snapshot and hiding the acked version the checkpoint
    ///   no longer carries (the exact loss the chaos harness's
    ///   durability oracle caught).
    pub fn checkpoint(&self) -> std::io::Result<Lsn> {
        let store = self
            .inner
            .checkpoints
            .as_ref()
            .expect("checkpointing requires a durable (log-dir) configuration");
        // Before the walk: any commit stamp acquired after this scan is
        // at or above the current tail, hence at or above `begin`.
        let begin = self.inner.tid.min_commit_low_water(self.inner.log.tail_lsn());
        let mut max_captured = Lsn::NULL;
        let mut payload: Vec<u8> = Vec::new();

        let catalog = self.inner.catalog.read();
        payload.extend_from_slice(&(catalog.tables.len() as u32).to_le_bytes());
        for table in &catalog.tables {
            payload.extend_from_slice(&table.id.0.to_le_bytes());
            let count_pos = payload.len();
            payload.extend_from_slice(&0u32.to_le_bytes());
            let keys = primary_keys_of(table);
            let mut n: u32 = 0;
            table.oids.for_each(|oid, head| {
                // Newest committed version at snapshot time; in-flight
                // (TID-stamped) versions belong to the log, not the
                // checkpoint.
                let mut cur = head;
                while !cur.is_null() {
                    let v = unsafe { &*cur };
                    let stamp = v.stamp();
                    if !stamp.is_tid() {
                        // A key can only be missing for an OID committed
                        // after the reverse scan; its stamp is past
                        // `begin`, so replay restores it from the log.
                        let Some(key) = keys.get(&oid.0) else { break };
                        max_captured = max_captured.max(stamp.as_lsn());
                        payload.extend_from_slice(&oid.0.to_le_bytes());
                        payload.extend_from_slice(&stamp.raw().to_le_bytes());
                        payload.push(v.tombstone as u8);
                        payload.extend_from_slice(&(key.len() as u16).to_le_bytes());
                        payload.extend_from_slice(&(v.data.len() as u32).to_le_bytes());
                        payload.extend_from_slice(key);
                        payload.extend_from_slice(&v.data);
                        n += 1;
                        break;
                    }
                    cur = v.next.load(Ordering::Acquire);
                }
            });
            payload[count_pos..count_pos + 4].copy_from_slice(&n.to_le_bytes());
        }
        // Secondary index entries.
        let secondaries: Vec<_> = catalog.indexes.iter().filter(|i| !i.is_primary).collect();
        payload.extend_from_slice(&(secondaries.len() as u32).to_le_bytes());
        for idx in secondaries {
            let entry_pos = payload.len();
            payload.extend_from_slice(&0u32.to_le_bytes());
            let mut n: u32 = 0;
            let mgr = ermia_epoch::EpochManager::new("chk");
            let h = mgr.register();
            let g = h.pin();
            idx.tree.scan(
                &g,
                &[],
                &[0xFF; 64],
                |_| {},
                |k, oid| {
                    payload.extend_from_slice(&idx.id.0.to_le_bytes());
                    payload.extend_from_slice(&(oid as u32).to_le_bytes());
                    payload.extend_from_slice(&(k.len() as u16).to_le_bytes());
                    payload.extend_from_slice(k);
                    n += 1;
                    ermia_index::ScanControl::Continue
                },
            );
            payload[entry_pos..entry_pos + 4].copy_from_slice(&n.to_le_bytes());
        }
        drop(catalog);

        // Durability barrier: publish nothing until the log durably backs
        // every captured stamp. `durable` advancing past a block's start
        // LSN means the whole block is on disk (it advances in block
        // units), so `offset + 1` is the right group-commit target.
        if !max_captured.is_null() {
            self.inner
                .log
                .wait_durable(max_captured.offset() + 1)
                .map_err(std::io::Error::other)?;
        }
        store.write(CheckpointMeta { begin }, &payload)?;
        Ok(begin)
    }

    /// Recover: restore the latest checkpoint (if any), then replay the
    /// log forward. The schema (tables and secondary indexes) must have
    /// been re-declared — `create_table` / `create_secondary_index` are
    /// idempotent by name, so applications simply run their DDL first.
    ///
    /// This is sharded recovery with one shard: 2PC prepares whose
    /// verdict is not in this log are *presumed aborted* (counted in
    /// [`RecoveryStats::in_doubt`]). Sharded deployments recover through
    /// `ShardedDb::recover`, which resolves them against every shard's
    /// log first.
    pub fn recover(&self) -> std::io::Result<RecoveryStats> {
        let (mut stats, _) = recover_shards(std::slice::from_ref(self))?;
        Ok(stats.pop().expect("one shard"))
    }

    /// Replay one committed transaction's records at `cstamp`.
    fn replay_records(
        &self,
        recs: &[LogRecord],
        cstamp: Lsn,
        stats: &mut RecoveryStats,
    ) -> std::io::Result<()> {
        // Every record in a block shares the commit stamp, so the
        // stamp-based idempotency check in `apply_record` cannot order
        // multiple ops on the same OID within one transaction (e.g.
        // delete-then-reinsert of a key). Only the last image per OID
        // is the committed outcome; apply that one alone.
        let mut last_per_oid = std::collections::HashMap::new();
        for (i, rec) in recs.iter().enumerate() {
            if !matches!(rec.kind, LogRecordKind::SecondaryInsert) {
                last_per_oid.insert((rec.table.0, rec.oid.0), i);
            }
        }
        for (i, rec) in recs.iter().enumerate() {
            stats.replayed_records += 1;
            match rec.kind {
                LogRecordKind::Insert | LogRecordKind::Update | LogRecordKind::Delete => {
                    if last_per_oid.get(&(rec.table.0, rec.oid.0)) != Some(&i) {
                        stats.skipped_stale += 1;
                        continue;
                    }
                    // Indirect values live in the blob store; the log
                    // record carries the reference.
                    let resolved;
                    let value: &[u8] = if rec.indirect {
                        let blob = ermia_log::BlobRef::decode(&rec.value)
                            .expect("malformed blob reference in log");
                        resolved = self.inner.blobs.read(blob)?;
                        &resolved
                    } else {
                        &rec.value
                    };
                    let applied = self.apply_record(
                        rec.table.0,
                        rec.oid,
                        &rec.key,
                        value,
                        cstamp,
                        rec.kind == LogRecordKind::Delete,
                    );
                    if !applied {
                        stats.skipped_stale += 1;
                    }
                }
                LogRecordKind::SecondaryInsert => {
                    let index_raw =
                        u32::from_le_bytes(rec.value[..4].try_into().expect("index id"));
                    self.apply_secondary(index_raw, &rec.key, rec.oid);
                }
            }
        }
        Ok(())
    }

    /// Install a checkpoint payload into this database's (empty or
    /// stale) in-memory state. Returns `(records installed, publish
    /// floor)` — the floor is the maximum commit stamp the fuzzy walk
    /// captured. A fuzzy checkpoint stores only the newest committed
    /// version per record at walk time, so a version overwritten before
    /// the walk (stamp below `begin`) whose overwriter landed after
    /// `begin` exists in *neither* the payload *nor* replay-below-floor:
    /// snapshots cut between `begin` and the floor could see the
    /// overwriter's key but miss siblings the walk captured later. A
    /// replica therefore must not serve a cut until replay has passed
    /// the floor; from there on every cut is transaction-consistent.
    pub fn install_checkpoint(&self, payload: &[u8]) -> std::io::Result<(u64, Lsn)> {
        let mut pos = 0usize;
        let mut restored = 0u64;
        let mut floor = Lsn::NULL;
        let rd_u16 = |p: &mut usize| {
            let v = u16::from_le_bytes(payload[*p..*p + 2].try_into().unwrap());
            *p += 2;
            v
        };
        let rd_u32 = |p: &mut usize| {
            let v = u32::from_le_bytes(payload[*p..*p + 4].try_into().unwrap());
            *p += 4;
            v
        };
        let rd_u64 = |p: &mut usize| {
            let v = u64::from_le_bytes(payload[*p..*p + 8].try_into().unwrap());
            *p += 8;
            v
        };
        let ntables = rd_u32(&mut pos);
        for _ in 0..ntables {
            let table_id = rd_u32(&mut pos);
            let nrecords = rd_u32(&mut pos);
            for _ in 0..nrecords {
                let oid = rd_u32(&mut pos);
                let clsn = rd_u64(&mut pos);
                let tombstone = payload[pos] != 0;
                pos += 1;
                let key_len = rd_u16(&mut pos) as usize;
                let val_len = rd_u32(&mut pos) as usize;
                let key = &payload[pos..pos + key_len];
                pos += key_len;
                let val = &payload[pos..pos + val_len];
                pos += val_len;
                floor = floor.max(Lsn::from_raw(clsn));
                self.apply_record(table_id, Oid(oid), key, val, Lsn::from_raw(clsn), tombstone);
                restored += 1;
            }
        }
        let nsecondary = rd_u32(&mut pos);
        for _ in 0..nsecondary {
            let nentries = rd_u32(&mut pos);
            for _ in 0..nentries {
                let index_raw = rd_u32(&mut pos);
                let oid = rd_u32(&mut pos);
                let key_len = rd_u16(&mut pos) as usize;
                let key = &payload[pos..pos + key_len];
                pos += key_len;
                self.apply_secondary(index_raw, key, Oid(oid));
            }
        }
        Ok((restored, floor))
    }

    /// Idempotently apply one record image: install iff newer than the
    /// current head (fuzzy checkpoints and replay may overlap).
    fn apply_record(
        &self,
        table_raw: u32,
        oid: Oid,
        key: &[u8],
        value: &[u8],
        cstamp: Lsn,
        tombstone: bool,
    ) -> bool {
        let catalog = self.inner.catalog.read();
        let Some(table) = catalog.tables.get(table_raw as usize) else {
            return false; // table not re-declared: skip (documented contract)
        };
        let table = std::sync::Arc::clone(table);
        drop(catalog);

        table.oids.ensure_allocated(oid);
        let head = table.oids.head(oid);
        if !head.is_null() {
            let hstamp = unsafe { (*head).stamp() };
            if !hstamp.is_tid() && hstamp.as_lsn() >= cstamp {
                return false; // already have this or newer
            }
        }
        let new = Version::alloc(Stamp::from_lsn(cstamp), value, tombstone);
        unsafe { (*new).next.store(head, Ordering::Relaxed) };
        table.oids.store_head(oid, new);
        // Index the key (idempotent: Duplicate means it's already there).
        let mgr = &self.inner.epoch;
        let h = mgr.register();
        let g = h.pin();
        let _ = table.primary.insert(&g, key, oid.0 as u64);
        true
    }

    fn apply_secondary(&self, index_raw: u32, key: &[u8], oid: Oid) {
        let catalog = self.inner.catalog.read();
        let Some(idx) = catalog.indexes.get(index_raw as usize) else { return };
        let idx = std::sync::Arc::clone(idx);
        drop(catalog);
        let h = self.inner.epoch.register();
        let g = h.pin();
        let _ = idx.tree.insert(&g, key, oid.0 as u64);
    }
}

/// Build the OID→primary-key reverse map for one checkpoint pass. Keys
/// are not stored in versions, so the walk resolves them through this
/// map; it is rebuilt on every checkpoint — a cached map would miss keys
/// inserted since it was built and silently emit them keyless.
///
/// NOTE: building the reverse map per table per checkpoint is O(n); the
/// paper's checkpoint stores OID→address only (keys live in the log).
/// Payload-carrying checkpoints need the key; the map amortizes to one
/// tree scan per table.
fn primary_keys_of(table: &crate::database::Table) -> std::collections::HashMap<u32, Vec<u8>> {
    let mut map = std::collections::HashMap::new();
    let mgr = ermia_epoch::EpochManager::new("chk-key");
    let h = mgr.register();
    let g = h.pin();
    table.primary.scan(
        &g,
        &[],
        &[0xFF; 64],
        |_| {},
        |k, v| {
            map.insert(v as u32, k.to_vec());
            ermia_index::ScanControl::Continue
        },
    );
    map
}
