//! Transactions: snapshot isolation, the Serial Safety Net, and the
//! pre-commit / post-commit pipeline (paper §3.1, §3.6).
//!
//! # Allocation-free hot path
//!
//! The transaction working sets (read set, write set, secondary set,
//! node set), the write keys, the private log buffer, and the version
//! nodes themselves are all recycled through the worker's
//! [`Scratch`]: the sets are *taken* at begin (a pointer move), cleared
//! and returned at release, key bytes are bump-copied into a reused
//! arena, and new versions come from a per-worker cache fed by the GC.
//! After warmup, begin + execute + commit of a read/write transaction
//! touches the allocator zero times.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ermia_common::{AbortReason, IndexId, Lsn, Oid, OpResult, Stamp, TableId, Tid, TxResult};
use ermia_epoch::Guard;
use ermia_index::{BTree, InsertOutcome, LeafSnapshot, ScanControl};
use ermia_storage::{defer_release, OidArray, TidStatus, TxContext, Version};
use ermia_telemetry::EventKind;

use crate::config::IsolationLevel;
use crate::database::{Database, IndexInfo, Table};
use crate::metrics::{
    IDX_INDEX, IDX_INDIRECTION, IDX_LOG, IDX_TXNS, TXN_ABORT_BASE, TXN_CHAIN_HIST, TXN_COMMITS,
};
use crate::profile::Timed;
use crate::worker::{Scratch, Worker};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum WriteKind {
    Insert,
    Update,
    Delete,
}

/// A range in the worker's key arena (`Scratch::keys`). Replaces a
/// per-write `Box<[u8]>` copy of the key.
#[derive(Clone, Copy)]
pub(crate) struct KeyRef {
    start: u32,
    len: u32,
}

impl KeyRef {
    fn stash(arena: &mut Vec<u8>, key: &[u8]) -> KeyRef {
        let start = arena.len() as u32;
        arena.extend_from_slice(key);
        KeyRef { start, len: key.len() as u32 }
    }

    fn slice(self, arena: &[u8]) -> &[u8] {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }
}

pub(crate) struct WriteEntry {
    table: Arc<Table>,
    oid: Oid,
    key: KeyRef,
    /// The version we installed (TID-stamped until post-commit).
    new: *mut Version,
    /// The committed version we overwrote (null for inserts).
    prev: *mut Version,
    kind: WriteKind,
}

pub(crate) struct SecondaryEntry {
    index: Arc<IndexInfo>,
    key: KeyRef,
    oid: Oid,
}

/// An in-flight transaction. Created by [`Worker::begin`]; consumed by
/// [`Transaction::commit`] or [`Transaction::abort`] (dropping an
/// unfinished transaction aborts it).
pub struct Transaction<'w> {
    db: &'w Database,
    scratch: &'w mut Scratch,
    /// Single pin on the unified epoch: versions, tree nodes, and TID
    /// contexts we can reach all stay allocated while it is held (the
    /// paper's three timescales were pinned in lockstep anyway; one pin
    /// is equivalent and 3× cheaper per begin).
    guard: Guard<'w>,
    tid: Tid,
    begin: Lsn,
    isolation: IsolationLevel,
    /// SSN η(T): latest committed predecessor stamp.
    pstamp: u64,
    /// SSN π(T): earliest successor stamp (∞ = none).
    sstamp: u64,
    // Working sets, borrowed from the worker's scratch for the duration
    // of the transaction (returned, cleared but with capacity, at
    // release).
    reads: Vec<*mut Version>,
    writes: Vec<WriteEntry>,
    secondary: Vec<SecondaryEntry>,
    node_set: Vec<(Arc<BTree>, LeafSnapshot)>,
    /// Version-chain nodes inspected by every visibility walk of this
    /// transaction. A plain local accumulator so the per-read path pays
    /// one integer add; folded into the telemetry chain-length
    /// histogram once, at release.
    chain_walked: u64,
    doomed: Option<AbortReason>,
    finished: bool,
}

/// Outcome of a visibility probe on one chain.
struct VisibleVersion {
    ptr: *mut Version,
    /// Effective creation stamp (resolved through the TID table when the
    /// version has not finished post-commit).
    cstamp: u64,
    /// Created by this very transaction.
    own: bool,
}

impl<'w> Transaction<'w> {
    pub(crate) fn begin(worker: &'w mut Worker, isolation: IsolationLevel) -> Transaction<'w> {
        let Worker { db, epoch_handle, scratch } = worker;
        // Conditional quiescent point: transaction boundaries are where
        // workers hold no epoch-protected references.
        let guard = epoch_handle.pin();
        // Snapshot views (forks, replica serving handles) pin their own
        // consistent cut; everything else reads at the live log tail.
        let begin = db.view_cut().unwrap_or_else(|| db.inner.log.tail_lsn());
        let (tid, _ctx) = db.inner.tid.acquire(begin, &mut scratch.tid_hint);
        if let Some(t) = &scratch.telemetry {
            t.ring.event(EventKind::TxnBegin, tid.raw(), 0);
        }
        scratch.logbuf.clear();
        scratch.keys.clear();
        Transaction {
            db,
            guard,
            tid,
            begin,
            isolation,
            pstamp: 0,
            sstamp: Lsn::MAX.raw(),
            reads: std::mem::take(&mut scratch.reads),
            writes: std::mem::take(&mut scratch.writes),
            secondary: std::mem::take(&mut scratch.secondary),
            node_set: std::mem::take(&mut scratch.node_set),
            chain_walked: 0,
            scratch,
            doomed: None,
            finished: false,
        }
    }

    /// This transaction's ID.
    pub fn tid(&self) -> Tid {
        self.tid
    }

    /// The begin timestamp (snapshot point).
    pub fn begin_lsn(&self) -> Lsn {
        self.begin
    }

    /// True once a CC violation doomed the transaction: further data
    /// operations fail fast with the original reason — the paper's early
    /// detection of transactions destined to abort.
    pub fn is_doomed(&self) -> bool {
        self.doomed.is_some()
    }

    #[inline]
    fn ctx(&self) -> &TxContext {
        self.db.inner.tid.ctx(self.tid)
    }

    #[inline]
    fn check_doomed(&self) -> OpResult<()> {
        match self.doomed {
            Some(r) => Err(r),
            None => Ok(()),
        }
    }

    #[inline]
    fn doom(&mut self, r: AbortReason) -> AbortReason {
        self.doomed = Some(r);
        r
    }

    /// Admission check for write operations: while the database is in
    /// degraded read-only mode (log poisoned), writes are refused the
    /// moment they are issued — long before commit would discover the
    /// poisoned log — so the transaction aborts with a typed reason
    /// instead of burning work it can never make durable. One relaxed
    /// load; reads are not checked and keep committing off the snapshot.
    #[inline]
    fn check_writable(&mut self) -> OpResult<()> {
        if self.db.inner.state.load(Ordering::Relaxed) == crate::database::DbState::Degraded as u8
            || self.db.view.is_some()
        {
            return Err(self.doom(AbortReason::ReadOnlyMode));
        }
        Ok(())
    }

    fn serializable(&self) -> bool {
        self.isolation == IsolationLevel::Serializable
    }

    /// Record (into `scratch.valid_idx`) the indices of node-set entries
    /// for `tree` that are currently valid. Captured immediately before
    /// one of our own inserts so that [`Transaction::refresh_node_set`]
    /// can distinguish self-inflicted version bumps from genuine
    /// concurrent phantoms.
    fn capture_valid_node_entries(&mut self, tree: &Arc<BTree>) {
        let valid = &mut self.scratch.valid_idx;
        valid.clear();
        for (i, (t2, snap)) in self.node_set.iter().enumerate() {
            if Arc::ptr_eq(t2, tree) && t2.validate(snap) {
                valid.push(i);
            }
        }
    }

    /// Re-stamp entries that were valid before our own insert and are
    /// stale now: the change is (with overwhelming probability) ours.
    /// Entries already stale beforehand keep their old stamp and abort
    /// the transaction at pre-commit — a real phantom.
    fn refresh_node_set(&mut self) {
        for &i in &self.scratch.valid_idx {
            let (tree, snap) = &mut self.node_set[i];
            if !tree.validate(snap) {
                tree.refresh_snapshot(snap);
            }
        }
    }

    // ------------------------------------------------------------------
    // Visibility (§3.6.1)
    // ------------------------------------------------------------------

    /// Walk a version chain and return the version this snapshot reads.
    ///
    /// `None` means the record does not exist in this snapshot (no
    /// visible version, or the visible version is a tombstone). Under
    /// SSN, skipping committed-but-too-new versions registers an
    /// anti-dependency: this transaction must serialize before their
    /// creators.
    fn fetch_visible(&mut self, oids: &OidArray, oid: Oid) -> OpResult<Option<VisibleVersion>> {
        let mut cur = oids.head(oid);
        let mut skipped_min: u64 = u64::MAX;
        let mut walked: u64 = 0;
        let result = loop {
            if cur.is_null() {
                break None;
            }
            walked += 1;
            let v = unsafe { &*cur };
            match self.visibility_of(v) {
                Visibility::Visible { cstamp, own } => {
                    break Some(VisibleVersion { ptr: cur, cstamp, own });
                }
                Visibility::SkipCommitted { cstamp } => {
                    skipped_min = skipped_min.min(cstamp);
                    cur = v.next.load(Ordering::Acquire);
                }
                Visibility::SkipUncommitted => {
                    cur = v.next.load(Ordering::Acquire);
                }
            }
        };
        // Chain nodes inspected before the verdict — the GC-health
        // signal the paper's Fig. 9 degradation traces back to. Only
        // accumulated here; the histogram is fed once per transaction
        // at release so this per-read path stays telemetry-free.
        self.chain_walked += walked;
        if self.serializable() && skipped_min != u64::MAX {
            // We read beneath committed overwrites: π(T) shrinks to the
            // earliest of their stamps.
            self.sstamp = self.sstamp.min(skipped_min);
            if self.sstamp <= self.pstamp {
                return Err(self.doom(AbortReason::SsnExclusion));
            }
        }
        match result {
            Some(vis) => {
                if unsafe { (*vis.ptr).tombstone } {
                    Ok(None)
                } else {
                    Ok(Some(vis))
                }
            }
            None => Ok(None),
        }
    }

    /// Decide visibility of a single version, resolving TID stamps
    /// through the owner's context (§3.5) and spinning through the brief
    /// pre-commit window when the verdict depends on an undecided
    /// transaction with an older commit stamp.
    fn visibility_of(&self, v: &Version) -> Visibility {
        loop {
            let stamp = v.stamp();
            if !stamp.is_tid() {
                let c = stamp.as_lsn().raw();
                if c < self.begin.raw() {
                    return Visibility::Visible { cstamp: c, own: false };
                }
                return Visibility::SkipCommitted { cstamp: c };
            }
            let owner = stamp.as_tid();
            if owner == self.tid {
                return Visibility::Visible { cstamp: u64::MAX, own: true };
            }
            match self.db.inner.tid.inquire(owner) {
                TidStatus::InFlight => return Visibility::SkipUncommitted,
                TidStatus::Precommit(c) => {
                    if !c.is_null() && c.raw() >= self.begin.raw() {
                        // Even if it commits, it commits after us.
                        return Visibility::SkipCommitted { cstamp: c.raw() };
                    }
                    // Undecided with a (possibly) older stamp: the window
                    // spans no I/O; wait briefly for the verdict.
                    std::thread::yield_now();
                }
                TidStatus::Committed(c) => {
                    if c.raw() < self.begin.raw() {
                        return Visibility::Visible { cstamp: c.raw(), own: false };
                    }
                    return Visibility::SkipCommitted { cstamp: c.raw() };
                }
                TidStatus::Aborted => return Visibility::SkipUncommitted,
                TidStatus::Stale => {
                    // Post-commit finished: the stamp is now an LSN.
                    std::thread::yield_now();
                }
            }
        }
    }

    /// SSN read registration (in-flight exclusion-window maintenance).
    fn register_read(&mut self, vis: &VisibleVersion) -> OpResult<()> {
        if vis.own || !self.serializable() {
            return Ok(());
        }
        let v = unsafe { &*vis.ptr };
        // η(T) absorbs the creator's stamp; π(T) shrinks to the
        // overwriter's stamp if the version is already overwritten.
        self.pstamp = self.pstamp.max(vis.cstamp);
        let vs = v.sstamp.load(Ordering::Acquire);
        if vs != Lsn::MAX.raw() {
            self.sstamp = self.sstamp.min(vs);
        }
        if self.sstamp <= self.pstamp {
            return Err(self.doom(AbortReason::SsnExclusion));
        }
        self.reads.push(vis.ptr);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data operations (§3.2)
    // ------------------------------------------------------------------

    /// Read a record by primary key; `f` receives the visible payload.
    pub fn read<R>(
        &mut self,
        table: TableId,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> OpResult<Option<R>> {
        self.check_doomed()?;
        let t = self.db.table(table);
        let profile = self.db.inner.cfg.profile;
        let timer = Timed::start(profile);
        let (oid, snap) = t.primary.get(&self.guard, key);
        Timed::stop(timer, self.scratch.breakdown.counter(IDX_INDEX));
        let Some(oid) = oid else {
            if self.serializable() {
                self.node_set.push((Arc::clone(&t.primary), snap));
            }
            return Ok(None);
        };
        let timer = Timed::start(profile);
        let vis = self.fetch_visible(&t.oids, Oid(oid as u32))?;
        Timed::stop(timer, self.scratch.breakdown.counter(IDX_INDIRECTION));
        match vis {
            Some(vis) => {
                self.register_read(&vis)?;
                let data = unsafe { &(*vis.ptr).data };
                Ok(Some(f(data)))
            }
            None => Ok(None),
        }
    }

    /// Read through a secondary index.
    pub fn read_secondary<R>(
        &mut self,
        index: IndexId,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> OpResult<Option<R>> {
        self.check_doomed()?;
        let idx = self.db.index(index);
        let t = self.db.table(idx.table);
        let (oid, snap) = idx.tree.get(&self.guard, key);
        let Some(oid) = oid else {
            if self.serializable() {
                self.node_set.push((Arc::clone(&idx.tree), snap));
            }
            return Ok(None);
        };
        match self.fetch_visible(&t.oids, Oid(oid as u32))? {
            Some(vis) => {
                self.register_read(&vis)?;
                let data = unsafe { &(*vis.ptr).data };
                Ok(Some(f(data)))
            }
            None => Ok(None),
        }
    }

    /// Update a record; returns false if the key does not exist in this
    /// snapshot. First-updater-wins: a conflicting concurrent writer
    /// dooms this transaction immediately.
    pub fn update(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<bool> {
        self.check_doomed()?;
        self.check_writable()?;
        let t = self.db.table(table);
        let profile = self.db.inner.cfg.profile;
        let timer = Timed::start(profile);
        let (oid, snap) = t.primary.get(&self.guard, key);
        Timed::stop(timer, self.scratch.breakdown.counter(IDX_INDEX));
        let Some(oid) = oid else {
            if self.serializable() {
                self.node_set.push((Arc::clone(&t.primary), snap));
            }
            return Ok(false);
        };
        let timer = Timed::start(profile);
        let r = self.install_version(&t, Oid(oid as u32), key, value, WriteKind::Update);
        Timed::stop(timer, self.scratch.breakdown.counter(IDX_INDIRECTION));
        r
    }

    /// Delete a record (tombstone install, §3.2); returns false on miss.
    pub fn delete(&mut self, table: TableId, key: &[u8]) -> OpResult<bool> {
        self.check_doomed()?;
        self.check_writable()?;
        let t = self.db.table(table);
        let (oid, snap) = t.primary.get(&self.guard, key);
        let Some(oid) = oid else {
            if self.serializable() {
                self.node_set.push((Arc::clone(&t.primary), snap));
            }
            return Ok(false);
        };
        self.install_version(&t, Oid(oid as u32), key, &[], WriteKind::Delete)
    }

    /// Install a new version behind `oid` with the first-updater-wins
    /// write-write conflict rule (§3.6.1).
    fn install_version(
        &mut self,
        t: &Arc<Table>,
        oid: Oid,
        key: &[u8],
        value: &[u8],
        kind: WriteKind,
    ) -> OpResult<bool> {
        loop {
            let head = t.oids.head(oid);
            if head.is_null() {
                return Ok(false);
            }
            let hv = unsafe { &*head };
            let stamp = hv.stamp();
            if stamp.is_tid() {
                let owner = stamp.as_tid();
                if owner == self.tid {
                    if hv.tombstone && kind != WriteKind::Insert {
                        // We deleted it earlier in this transaction.
                        return Ok(false);
                    }
                    return self.replace_own_head(t, oid, head, value, kind);
                }
                match self.db.inner.tid.inquire(owner) {
                    // An uncommitted head version acts as a write lock:
                    // the doomed (second) updater aborts immediately,
                    // minimizing wasted work.
                    TidStatus::InFlight | TidStatus::Precommit(_) | TidStatus::Aborted => {
                        return Err(self.doom(AbortReason::WriteWriteConflict));
                    }
                    TidStatus::Committed(_) | TidStatus::Stale => {
                        // Owner finished (or is finishing) post-commit;
                        // re-read the stamp.
                        std::thread::yield_now();
                        continue;
                    }
                }
            }
            let c = stamp.as_lsn();
            // Forbid updating a record whose committed head postdates our
            // snapshot (lost-update prevention).
            if c.raw() >= self.begin.raw() {
                return Err(self.doom(AbortReason::WriteWriteConflict));
            }
            if hv.tombstone && kind != WriteKind::Insert {
                // Deleted in our snapshot: nothing to update.
                return Ok(false);
            }
            if self.serializable() {
                // Overwriting `head`: its readers become predecessors.
                self.pstamp = self.pstamp.max(hv.pstamp.load(Ordering::Acquire));
                if self.sstamp <= self.pstamp {
                    return Err(self.doom(AbortReason::SsnExclusion));
                }
            }
            let new = self.scratch.versions.acquire(
                Stamp::from_tid(self.tid),
                value,
                kind == WriteKind::Delete,
            );
            unsafe { (*new).next.store(head, Ordering::Relaxed) };
            match t.oids.cas_head(oid, head, new) {
                Ok(()) => {
                    self.log_op_if_per_op(t.id, oid, key, value, kind);
                    let kind = if kind == WriteKind::Insert { WriteKind::Update } else { kind };
                    let key = KeyRef::stash(&mut self.scratch.keys, key);
                    self.writes.push(WriteEntry {
                        table: Arc::clone(t),
                        oid,
                        key,
                        new,
                        prev: head,
                        kind,
                    });
                    return Ok(true);
                }
                Err(_) => {
                    // Another writer won the CAS: first-updater-wins. The
                    // version never became visible, so it goes straight
                    // back to the cache.
                    unsafe { self.scratch.versions.release_unpublished(new) };
                    return Err(self.doom(AbortReason::WriteWriteConflict));
                }
            }
        }
    }

    /// Overwrite our own uncommitted head version (repeated update of the
    /// same record inside one transaction).
    fn replace_own_head(
        &mut self,
        t: &Arc<Table>,
        oid: Oid,
        head: *mut Version,
        value: &[u8],
        kind: WriteKind,
    ) -> OpResult<bool> {
        let next = unsafe { (*head).next.load(Ordering::Relaxed) };
        let new = self.scratch.versions.acquire(
            Stamp::from_tid(self.tid),
            value,
            kind == WriteKind::Delete,
        );
        unsafe { (*new).next.store(next, Ordering::Relaxed) };
        t.oids
            .cas_head(oid, head, new)
            .expect("own uncommitted head cannot be displaced");
        // The old private version may still be referenced by concurrent
        // readers resolving visibility: mark it dead (+∞ stamp, so they
        // skip it rather than spin or misread it post-commit) and retire
        // it into the reuse pool.
        unsafe {
            (*head).clsn.store(Stamp::from_lsn(Lsn::MAX).raw(), Ordering::Release);
            defer_release(&self.guard, &self.db.inner.versions, head);
        }
        let entry = self
            .writes
            .iter_mut()
            .find(|w| w.oid == oid && Arc::ptr_eq(&w.table, t))
            .expect("own head implies a write-set entry");
        entry.new = new;
        entry.kind = match (entry.kind, kind) {
            // Created in this txn: rollback must unindex and recycle.
            (WriteKind::Insert, _) => WriteKind::Insert,
            // Reviving our own tombstone of a pre-existing record: the
            // net effect is an update, and rollback must restore the
            // committed head rather than drop the record.
            (_, WriteKind::Insert) => WriteKind::Update,
            (_, k) => k,
        };
        Ok(true)
    }

    /// Insert a new record; returns its OID. Inserting a key whose
    /// visible version is a tombstone revives the record; inserting a
    /// live duplicate dooms the transaction.
    pub fn insert(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<Oid> {
        self.check_doomed()?;
        self.check_writable()?;
        let t = self.db.table(table);
        let profile = self.db.inner.cfg.profile;
        loop {
            // Obtain a new OID and publish the version, then index it
            // (§3.2 Insert: contention-free).
            let oid = t.oids.allocate();
            let new = self.scratch.versions.acquire(Stamp::from_tid(self.tid), value, false);
            t.oids.store_head(oid, new);
            self.capture_valid_node_entries(&t.primary);
            let timer = Timed::start(profile);
            let outcome = t.primary.insert(&self.guard, key, oid.0 as u64);
            Timed::stop(timer, self.scratch.breakdown.counter(IDX_INDEX));
            match outcome {
                InsertOutcome::Inserted => {
                    self.refresh_node_set();
                    self.log_op_if_per_op(t.id, oid, key, value, WriteKind::Insert);
                    let key = KeyRef::stash(&mut self.scratch.keys, key);
                    self.writes.push(WriteEntry {
                        table: Arc::clone(&t),
                        oid,
                        key,
                        new,
                        prev: std::ptr::null_mut(),
                        kind: WriteKind::Insert,
                    });
                    return Ok(oid);
                }
                InsertOutcome::Duplicate(existing) => {
                    // Unpublish our speculative record. It was reachable
                    // through the array slot, so it must quiesce before
                    // reuse.
                    t.oids.store_head(oid, std::ptr::null_mut());
                    unsafe { defer_release(&self.guard, &self.db.inner.versions, new) };
                    t.oids.recycle(oid);
                    let existing = Oid(existing as u32);
                    // Revive if the visible version is a tombstone.
                    if t.oids.head(existing).is_null() {
                        // The owning insert rolled back between our index
                        // probe and now; retry from the top.
                        std::thread::yield_now();
                        continue;
                    }
                    let vis = self.fetch_visible(&t.oids, existing)?;
                    if vis.is_some() {
                        return Err(self.doom(AbortReason::DuplicateKey));
                    }
                    // Invisible or deleted: attempt a tombstone overwrite
                    // under first-updater-wins.
                    match self.install_version(&t, existing, key, value, WriteKind::Insert) {
                        Ok(true) => return Ok(existing),
                        Ok(false) => {
                            // Record vanished mid-flight (concurrent
                            // insert rollback): retry.
                            std::thread::yield_now();
                            continue;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }

    /// Add a secondary-index entry pointing at `oid` (obtained from
    /// [`Transaction::insert`]). Secondary keys must be immutable.
    pub fn insert_secondary(&mut self, index: IndexId, key: &[u8], oid: Oid) -> OpResult<()> {
        self.check_doomed()?;
        self.check_writable()?;
        let idx = self.db.index(index);
        self.capture_valid_node_entries(&idx.tree);
        match idx.tree.insert(&self.guard, key, oid.0 as u64) {
            InsertOutcome::Inserted => {
                self.refresh_node_set();
                let key = KeyRef::stash(&mut self.scratch.keys, key);
                self.secondary.push(SecondaryEntry { index: idx, key, oid });
                Ok(())
            }
            InsertOutcome::Duplicate(_) => Err(self.doom(AbortReason::DuplicateKey)),
        }
    }

    /// Range scan over any index (primary or secondary), ascending, both
    /// bounds inclusive. `f` receives (key, payload) for each visible
    /// record and returns `false` to stop. Returns the delivered count.
    pub fn scan(
        &mut self,
        index: IndexId,
        low: &[u8],
        high: &[u8],
        limit: Option<usize>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> OpResult<usize> {
        self.check_doomed()?;
        let idx = self.db.index(index);
        let t = self.db.table(idx.table);
        let profile = self.db.inner.cfg.profile;

        let mut delivered = 0usize;
        let mut resume: Vec<u8> = low.to_vec();
        loop {
            // Phase 1: collect a batch of (key, oid) pairs from the tree.
            // Collection is separate from visibility so the tree callbacks
            // don't need mutable access to transaction state.
            let cap = limit.map_or(usize::MAX, |l| (l - delivered) * 2 + 64);
            let mut items: Vec<(Vec<u8>, u64)> = Vec::new();
            let mut truncated = false;
            let timer = Timed::start(profile);
            {
                let node_set = &mut self.node_set;
                let serializable = self.isolation == IsolationLevel::Serializable;
                let tree = &idx.tree;
                tree.scan(
                    &self.guard,
                    &resume,
                    high,
                    |snap| {
                        if serializable {
                            node_set.push((Arc::clone(tree), snap));
                        }
                    },
                    |k, v| {
                        items.push((k.to_vec(), v));
                        if items.len() >= cap {
                            truncated = true;
                            ScanControl::Stop
                        } else {
                            ScanControl::Continue
                        }
                    },
                );
            }
            Timed::stop(timer, self.scratch.breakdown.counter(IDX_INDEX));

            // Phase 2: visibility + delivery.
            let timer = Timed::start(profile);
            let mut stopped = false;
            for (k, oidval) in &items {
                let vis = self.fetch_visible(&t.oids, Oid(*oidval as u32))?;
                if let Some(vis) = vis {
                    self.register_read(&vis)?;
                    let data = unsafe { &(*vis.ptr).data };
                    delivered += 1;
                    if !f(k, data) || limit.is_some_and(|l| delivered >= l) {
                        stopped = true;
                        break;
                    }
                }
            }
            Timed::stop(timer, self.scratch.breakdown.counter(IDX_INDIRECTION));
            if stopped || !truncated {
                return Ok(delivered);
            }
            // Resume after the last collected key.
            let (last, _) = items.last().expect("truncated implies items");
            resume.clear();
            resume.extend_from_slice(last);
            resume.push(0);
        }
    }

    /// Fig. 10 emulation: "enforcing a log-buffer round trip for every
    /// single update operation".
    fn log_op_if_per_op(&mut self, table: TableId, oid: Oid, key: &[u8], value: &[u8], kind: WriteKind) {
        if !self.db.inner.cfg.per_op_logging {
            return;
        }
        let mut buf = ermia_log::TxLogBuffer::new();
        match kind {
            WriteKind::Insert => buf.add_insert(table, oid, key, value),
            WriteKind::Update => buf.add_update(table, oid, key, value),
            WriteKind::Delete => buf.add_delete(table, oid, key),
        }
        let block = buf.serialize();
        let res = self.db.inner.log.allocate(block.len()).expect("log allocation");
        res.fill(block);
    }

    // ------------------------------------------------------------------
    // Commit pipeline (§3.1, §3.6; SSN Algorithm 1)
    // ------------------------------------------------------------------

    /// Commit. On success returns the commit LSN.
    ///
    /// Honors [`DbConfig::synchronous_commit`](crate::DbConfig): when set,
    /// the call blocks until the commit block is durable and rolls back on
    /// durability failure.
    pub fn commit(self) -> TxResult<Lsn> {
        let sync = self.db.inner.cfg.synchronous_commit;
        self.commit_impl(sync).map(|t| t.lsn)
    }

    /// Commit without waiting for durability, regardless of the
    /// database-wide `synchronous_commit` setting.
    ///
    /// The transaction becomes visible to other transactions immediately;
    /// the returned [`CommitToken`] identifies the point in the log the
    /// caller must wait on (`db.log().wait_durable_for(token.end_offset(),
    /// …)`) before acknowledging the commit as durable. This is the
    /// server's reply-path integration: the session thread can move on to
    /// the next pipelined request while a writer thread awaits group
    /// commit. If the durability wait later fails, the transaction is
    /// *not* rolled back — its in-memory effects stand and its on-disk
    /// fate is indeterminate until restart recovery (see
    /// [`ermia_common::LogError`]).
    pub fn commit_deferred(self) -> TxResult<CommitToken> {
        self.commit_impl(false)
    }

    fn commit_impl(mut self, wait_durable: bool) -> TxResult<CommitToken> {
        if let Some(r) = self.doomed {
            self.do_abort();
            return Err(r);
        }
        if self.writes.is_empty() && self.secondary.is_empty() {
            return self.commit_readonly();
        }
        let db = self.db;
        let profile = db.inner.cfg.profile;
        let ctx = db.inner.tid.ctx(self.tid);

        // --- Pre-commit ------------------------------------------------
        // Publish intent, build the commit block (it does not depend on
        // its LSN), then fix our global order and reserve log space with
        // the single atomic fetch-and-add. Serializing first keeps the
        // window between the reservation and its fill — which holds back
        // the flusher's contiguous watermark — down to the copy.
        ctx.enter_pending();
        let timer = Timed::start(profile);
        self.stage_log_records();
        let block_len = self.scratch.logbuf.serialize().len();
        let reservation = match db.inner.log.allocate(block_len) {
            Ok(r) => r,
            Err(_) => {
                // A poisoned log rejects all allocations until restart;
                // anything else is transient resource pressure. Decide
                // (and doom) before release so the abort is attributed to
                // the right reason.
                let reason = if db.inner.log.is_poisoned() {
                    if let Some(t) = &self.scratch.telemetry {
                        t.ring.event(EventKind::LogPoison, 1, 0);
                    }
                    AbortReason::LogFailure
                } else {
                    AbortReason::ResourceExhausted
                };
                self.doomed = Some(reason);
                ctx.abort();
                self.rollback();
                self.release(false);
                return Err(reason);
            }
        };
        let cstamp = reservation.lsn();
        ctx.enter_precommit(cstamp);
        Timed::stop(timer, self.scratch.breakdown.counter(IDX_LOG));

        // --- CC commit protocol (SSN exclusion-window test) -------------
        if self.serializable() {
            for w in &self.writes {
                if !w.prev.is_null() {
                    let p = unsafe { &*w.prev };
                    self.pstamp = self.pstamp.max(p.pstamp.load(Ordering::Acquire));
                }
            }
            self.sstamp = self.sstamp.min(cstamp.raw());
            for &r in &self.reads {
                let vs = unsafe { (*r).sstamp.load(Ordering::Acquire) };
                self.sstamp = self.sstamp.min(vs);
            }
            if self.sstamp <= self.pstamp {
                drop(reservation); // becomes a skip record
                self.doomed = Some(AbortReason::SsnExclusion);
                ctx.abort();
                self.rollback();
                self.release(false);
                return Err(AbortReason::SsnExclusion);
            }
            // Phantom protection: node-set validation (§3.6.2).
            for (tree, snap) in &self.node_set {
                if !tree.validate(snap) {
                    drop(reservation);
                    self.doomed = Some(AbortReason::Phantom);
                    ctx.abort();
                    self.rollback();
                    self.release(false);
                    return Err(AbortReason::Phantom);
                }
            }
        }

        // --- Populate the centralized log buffer -----------------------
        let timer = Timed::start(profile);
        let end_offset = reservation.end_offset();
        reservation.fill(self.scratch.logbuf.serialized());
        if wait_durable && db.inner.log.wait_durable(end_offset).is_err() {
            // The commit block never became durable (poisoned log) or its
            // fate is unknown (timeout). Roll back in memory and surface
            // the failure; restart recovery truncates at the first hole,
            // so an unacknowledged block can never resurrect past one.
            self.doomed = Some(AbortReason::LogFailure);
            ctx.abort();
            self.rollback();
            self.release(false);
            return Err(AbortReason::LogFailure);
        }
        Timed::stop(timer, self.scratch.breakdown.counter(IDX_LOG));

        // All updates become visible atomically at this store.
        ctx.commit(cstamp);
        if let Some(t) = &self.scratch.telemetry {
            t.ring.event(EventKind::TxnCommit, self.tid.raw(), cstamp.raw());
        }

        // --- Post-commit ------------------------------------------------
        let sstamp_final = self.sstamp;
        for w in &self.writes {
            let new = unsafe { &*w.new };
            if self.serializable() {
                if !w.prev.is_null() {
                    // π(V_prev): our low watermark caps its readers.
                    unsafe { (*w.prev).sstamp.fetch_min(sstamp_final, Ordering::AcqRel) };
                }
                new.pstamp.store(cstamp.raw(), Ordering::Release);
            }
            // Replace the TID stamp with the commit LSN so readers can
            // check visibility without consulting our context.
            new.clsn.store(Stamp::from_lsn(cstamp).raw(), Ordering::Release);
        }
        if self.serializable() {
            for &r in &self.reads {
                unsafe { (*r).raise_pstamp(cstamp.raw()) };
            }
        }
        self.release(true);
        Ok(CommitToken { lsn: cstamp, end_offset: Some(end_offset) })
    }

    /// Fill the private log buffer from the write/secondary sets,
    /// diverting large payloads to the blob store.
    fn stage_log_records(&mut self) {
        let blob_threshold = self.db.inner.cfg.large_value_threshold;
        for w in &self.writes {
            let key = w.key.slice(&self.scratch.keys);
            let (data, tombstone) = unsafe { (&(*w.new).data, (*w.new).tombstone) };
            // The entry coalesces every op this txn applied to the
            // record; what commits is the final version, so its tombstone
            // flag (not the entry kind) decides the record kind. An
            // insert-then-delete must log a delete, or replay would
            // resurrect the key with the tombstone's empty payload.
            let kind = if tombstone { WriteKind::Delete } else { w.kind };
            let indirect = kind != WriteKind::Delete && data.len() >= blob_threshold;
            if indirect {
                // Divert the payload to the blob store; the log record
                // carries only the fixed-size reference (§3.3 feature 4).
                let blob = self.db.inner.blobs.append(data).expect("blob append");
                let kind = match kind {
                    WriteKind::Insert => ermia_log::LogRecordKind::Insert,
                    _ => ermia_log::LogRecordKind::Update,
                };
                self.scratch.logbuf.add_indirect(kind, w.table.id, w.oid, key, &blob.encode());
                continue;
            }
            match kind {
                WriteKind::Insert => self.scratch.logbuf.add_insert(w.table.id, w.oid, key, data),
                WriteKind::Update => self.scratch.logbuf.add_update(w.table.id, w.oid, key, data),
                WriteKind::Delete => self.scratch.logbuf.add_delete(w.table.id, w.oid, key),
            }
        }
        for s in &self.secondary {
            let key = s.key.slice(&self.scratch.keys);
            self.scratch.logbuf.add_secondary_insert(s.index.table, s.index.id.0, s.oid, key);
        }
    }

    /// True if this transaction installed any write or secondary entry —
    /// i.e. it must participate in 2PC as a writer when cross-shard.
    pub(crate) fn has_writes(&self) -> bool {
        !self.writes.is_empty() || !self.secondary.is_empty()
    }

    /// 2PC phase one: run the full pre-commit pipeline (CC validation,
    /// log-space reservation, block fill) but publish the block as a
    /// [`ermia_log::BlockKind::TxnPrepare`] carrying `marker`, and stop
    /// *before* the in-memory commit. The transaction stays in the
    /// `Precommit` TID state, so its uncommitted head versions keep acting
    /// as write locks (first-updater-wins) and readers that depend on the
    /// verdict spin briefly — no conflicting transaction can commit around
    /// a prepared one.
    ///
    /// The caller must wait for the returned block to become durable
    /// before the coordinator decides, then call
    /// [`PreparedTransaction::finish_commit`] or
    /// [`PreparedTransaction::abort`].
    pub(crate) fn prepare(
        mut self,
        marker: ermia_log::PrepareMarker,
    ) -> TxResult<PreparedTransaction<'w>> {
        if let Some(r) = self.doomed {
            self.do_abort();
            return Err(r);
        }
        debug_assert!(self.has_writes(), "read-only participants never prepare");
        let db = self.db;
        let ctx = db.inner.tid.ctx(self.tid);

        ctx.enter_pending();
        self.stage_log_records();
        let block_len = self.scratch.logbuf.serialize_prepare(marker).len();
        let reservation = match db.inner.log.allocate(block_len) {
            Ok(r) => r,
            Err(_) => {
                let reason = if db.inner.log.is_poisoned() {
                    if let Some(t) = &self.scratch.telemetry {
                        t.ring.event(EventKind::LogPoison, 1, 0);
                    }
                    AbortReason::LogFailure
                } else {
                    AbortReason::ResourceExhausted
                };
                self.doomed = Some(reason);
                ctx.abort();
                self.rollback();
                self.release(false);
                return Err(reason);
            }
        };
        let cstamp = reservation.lsn();
        ctx.enter_precommit(cstamp);

        if self.serializable() {
            for w in &self.writes {
                if !w.prev.is_null() {
                    let p = unsafe { &*w.prev };
                    self.pstamp = self.pstamp.max(p.pstamp.load(Ordering::Acquire));
                }
            }
            self.sstamp = self.sstamp.min(cstamp.raw());
            for &r in &self.reads {
                let vs = unsafe { (*r).sstamp.load(Ordering::Acquire) };
                self.sstamp = self.sstamp.min(vs);
            }
            if self.sstamp <= self.pstamp {
                drop(reservation); // becomes a skip record
                self.doomed = Some(AbortReason::SsnExclusion);
                ctx.abort();
                self.rollback();
                self.release(false);
                return Err(AbortReason::SsnExclusion);
            }
            for (tree, snap) in &self.node_set {
                if !tree.validate(snap) {
                    drop(reservation);
                    self.doomed = Some(AbortReason::Phantom);
                    ctx.abort();
                    self.rollback();
                    self.release(false);
                    return Err(AbortReason::Phantom);
                }
            }
        }

        let end_offset = reservation.end_offset();
        reservation.fill(self.scratch.logbuf.serialized());
        Ok(PreparedTransaction { txn: self, cstamp, end_offset })
    }

    /// Read-only commit: no log space needed. Under SSN the transaction
    /// still needs a commit stamp for the exclusion test and for
    /// registering itself on read versions; we use the current log tail
    /// (monotonic, possibly shared — a documented approximation that can
    /// only add false positives, never lost dependencies).
    fn commit_readonly(mut self) -> TxResult<CommitToken> {
        let db = self.db;
        let ctx = db.inner.tid.ctx(self.tid);
        let cstamp = db.inner.log.tail_lsn();
        if self.serializable() {
            self.sstamp = self.sstamp.min(cstamp.raw());
            for &r in &self.reads {
                let vs = unsafe { (*r).sstamp.load(Ordering::Acquire) };
                self.sstamp = self.sstamp.min(vs);
            }
            if self.sstamp <= self.pstamp {
                self.doomed = Some(AbortReason::SsnExclusion);
                ctx.abort();
                self.release(false);
                return Err(AbortReason::SsnExclusion);
            }
            for (tree, snap) in &self.node_set {
                if !tree.validate(snap) {
                    self.doomed = Some(AbortReason::Phantom);
                    ctx.abort();
                    self.release(false);
                    return Err(AbortReason::Phantom);
                }
            }
            for &r in &self.reads {
                unsafe { (*r).raise_pstamp(cstamp.raw()) };
            }
        }
        ctx.enter_pending();
        ctx.enter_precommit(cstamp);
        ctx.commit(cstamp);
        if let Some(t) = &self.scratch.telemetry {
            t.ring.event(EventKind::TxnCommit, self.tid.raw(), cstamp.raw());
        }
        self.release(true);
        Ok(CommitToken { lsn: cstamp, end_offset: None })
    }

    /// Abort explicitly.
    pub fn abort(mut self) {
        self.do_abort();
    }

    fn do_abort(&mut self) {
        if self.finished {
            return;
        }
        self.ctx().abort();
        self.rollback();
        self.release(false);
    }

    /// Undo installed versions and speculative index entries.
    fn rollback(&mut self) {
        for w in self.writes.drain(..).rev() {
            // Re-stamp the dead version with +∞ before unlinking so
            // concurrent readers already holding the pointer classify it
            // as "committed far in the future" and skip past it, instead
            // of spinning on a TID whose slot will be recycled.
            unsafe {
                (*w.new).clsn.store(Stamp::from_lsn(Lsn::MAX).raw(), Ordering::Release);
            }
            match w.kind {
                WriteKind::Insert => {
                    // Remove the index entry, unpublish, recycle.
                    w.table.primary.remove(&self.guard, w.key.slice(&self.scratch.keys));
                    w.table.oids.store_head(w.oid, std::ptr::null_mut());
                    unsafe { defer_release(&self.guard, &self.db.inner.versions, w.new) };
                    w.table.oids.recycle(w.oid);
                }
                WriteKind::Update | WriteKind::Delete => {
                    // Unlink our version from the chain head.
                    w.table
                        .oids
                        .cas_head(w.oid, w.new, w.prev)
                        .expect("uncommitted head owned by us");
                    unsafe { defer_release(&self.guard, &self.db.inner.versions, w.new) };
                }
            }
        }
        for s in self.secondary.drain(..).rev() {
            s.index.tree.remove(&self.guard, s.key.slice(&self.scratch.keys));
        }
    }

    /// Common epilogue: return resources, deregister, and hand the
    /// (cleared, capacity-preserving) working sets back to the worker's
    /// scratch for the next transaction.
    fn release(&mut self, committed: bool) {
        // The context may be released only after every TID-stamped
        // version has been re-stamped or unlinked (Stale inquiries then
        // re-read a proper stamp).
        self.db.inner.tid.release(self.tid);
        if committed {
            self.db.inner.commits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.db.inner.aborts.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(t) = &self.scratch.telemetry {
            // Chain nodes this transaction walked, accumulated read by
            // read in `fetch_visible` and recorded once here.
            t.slab.hist(TXN_CHAIN_HIST).record(self.chain_walked);
            if committed {
                t.slab.add(TXN_COMMITS, 1);
            } else {
                // Every abort path records its reason in `doomed` before
                // releasing; an explicit `abort()` call has none.
                let reason = self.doomed.unwrap_or(AbortReason::UserRequested);
                t.slab.add(TXN_ABORT_BASE + reason.idx(), 1);
                t.ring.event(EventKind::TxnAbort, self.tid.raw(), reason.idx() as u64);
            }
        }
        self.scratch.breakdown.add(IDX_TXNS, 1);
        self.reads.clear();
        self.writes.clear();
        self.secondary.clear();
        self.node_set.clear();
        self.scratch.reads = std::mem::take(&mut self.reads);
        self.scratch.writes = std::mem::take(&mut self.writes);
        self.scratch.secondary = std::mem::take(&mut self.secondary);
        self.scratch.node_set = std::mem::take(&mut self.node_set);
        self.scratch.keys.clear();
        self.finished = true;
    }
}

impl Drop for Transaction<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.do_abort();
        }
    }
}

enum Visibility {
    Visible { cstamp: u64, own: bool },
    /// Committed, but after our snapshot.
    SkipCommitted { cstamp: u64 },
    /// In flight or aborted.
    SkipUncommitted,
}

/// A transaction that passed [`Transaction::prepare`]: CC-validated, its
/// prepare block filled in the log, awaiting the coordinator's verdict.
/// Dropping it without a verdict aborts in memory — matching recovery's
/// presumed-abort reading of a prepare without a decide record.
pub struct PreparedTransaction<'w> {
    txn: Transaction<'w>,
    cstamp: Lsn,
    end_offset: u64,
}

impl<'w> PreparedTransaction<'w> {
    /// The commit stamp reserved at prepare (becomes the commit LSN).
    pub fn cstamp(&self) -> Lsn {
        self.cstamp
    }

    /// Exclusive end offset of the prepare block; the coordinator must
    /// see this durable before writing its decision.
    pub fn end_offset(&self) -> u64 {
        self.end_offset
    }

    /// 2PC phase two, commit verdict: make the updates visible atomically
    /// and run post-commit stamping. The caller must already have made
    /// the decide record durable.
    pub fn finish_commit(mut self) -> CommitToken {
        let cstamp = self.cstamp;
        let txn = &mut self.txn;
        txn.db.inner.tid.ctx(txn.tid).commit(cstamp);
        if let Some(t) = &txn.scratch.telemetry {
            t.ring.event(EventKind::TxnCommit, txn.tid.raw(), cstamp.raw());
        }
        let sstamp_final = txn.sstamp;
        let serializable = txn.serializable();
        for w in &txn.writes {
            let new = unsafe { &*w.new };
            if serializable {
                if !w.prev.is_null() {
                    unsafe { (*w.prev).sstamp.fetch_min(sstamp_final, Ordering::AcqRel) };
                }
                new.pstamp.store(cstamp.raw(), Ordering::Release);
            }
            new.clsn.store(Stamp::from_lsn(cstamp).raw(), Ordering::Release);
        }
        if serializable {
            for &r in &txn.reads {
                unsafe { (*r).raise_pstamp(cstamp.raw()) };
            }
        }
        txn.release(true);
        CommitToken { lsn: cstamp, end_offset: Some(self.end_offset) }
    }

    /// 2PC phase two, abort verdict: roll back the in-memory effects.
    /// The prepare block stays in the log; recovery's in-doubt resolution
    /// presumes abort when no commit decide record exists.
    pub fn abort(mut self) {
        self.txn.doomed.get_or_insert(AbortReason::UserRequested);
        self.txn.do_abort();
    }
}

/// Receipt of a [`Transaction::commit_deferred`]: the commit LSN plus the
/// log offset whose durability implies the commit block is on disk.
///
/// Tokens are plain data — they do not borrow the worker, so the worker
/// can serve the next transaction while somebody else awaits durability.
#[derive(Clone, Copy, Debug)]
pub struct CommitToken {
    lsn: Lsn,
    /// `None` for read-only commits, which occupy no log space and are
    /// trivially durable.
    end_offset: Option<u64>,
}

impl CommitToken {
    /// A token for a commit that occupied no log space (read-only or
    /// empty transactions) — trivially durable.
    pub(crate) fn readonly_at(lsn: Lsn) -> CommitToken {
        CommitToken { lsn, end_offset: None }
    }

    /// The commit timestamp.
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// The exclusive end offset of the commit block in the log's logical
    /// offset space, or `None` for read-only commits.
    pub fn end_offset(&self) -> Option<u64> {
        self.end_offset
    }

    /// Block until this commit is durable (or `timeout` expires). A
    /// read-only commit returns immediately.
    pub fn wait_durable(
        &self,
        db: &Database,
        timeout: std::time::Duration,
    ) -> Result<(), ermia_common::LogError> {
        match self.end_offset {
            Some(end) => db.inner.log.wait_durable_for(end, timeout),
            None => Ok(()),
        }
    }
}
