//! The `Database`: catalog, resource managers, lifecycle.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ermia_common::{IndexId, Lsn, TableId};
use ermia_epoch::{EpochManager, Ticker};
use ermia_index::BTree;
use ermia_log::{CheckpointStore, LogManager};
use ermia_storage::{GarbageCollector, GcPassHook, GcStats, OidArray, TidManager, VersionPool};
use ermia_telemetry::{EventKind, Ring, Telemetry};
use parking_lot::{Mutex, RwLock};

use crate::config::DbConfig;
use crate::worker::Worker;

/// Service state of a [`Database`].
///
/// A database starts `Active`. When the log flusher dies on an
/// unrecoverable I/O error it poisons the log and the database drops to
/// `Degraded`: read-only transactions keep committing (snapshot reads
/// need no log space), but every write operation aborts with
/// [`ermia_common::AbortReason::ReadOnlyMode`] the moment it is issued.
/// An operator brings the database back with [`Database::resume`], which
/// re-probes the storage backend and re-arms the flusher.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum DbState {
    /// Normal read-write service.
    Active = 0,
    /// The log is poisoned; reads commit, writes abort.
    Degraded = 1,
}

impl DbState {
    fn from_u8(v: u8) -> DbState {
        match v {
            0 => DbState::Active,
            _ => DbState::Degraded,
        }
    }
}

/// Replication role of a database node.
///
/// A database opens as `Primary`. A log-shipping replica (see the
/// `ermia-repl` crate) marks its local database `Replica` so health
/// reporting and load balancers can tell the nodes apart; the role does
/// not by itself change engine behavior — read-only enforcement comes
/// from serving through snapshot views ([`Database::fork`] /
/// [`Database::replica_view`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum NodeRole {
    /// Accepts writes; the source of the log.
    Primary = 0,
    /// Applies a shipped log; serves read-only snapshots.
    Replica = 1,
}

impl NodeRole {
    pub fn from_u8(v: u8) -> NodeRole {
        match v {
            0 => NodeRole::Primary,
            _ => NodeRole::Replica,
        }
    }
}

/// One schema-reproducing DDL statement (see [`Database::schema_ddl`]).
/// `secondary: None` declares a table (with its primary index);
/// `Some(name)` declares a secondary index on `table`. Replaying entries
/// in order reproduces identical dense table/index ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DdlEntry {
    pub table: String,
    pub secondary: Option<String>,
}

/// A set of (id, offset) pins with O(n) minimum — n is the handful of
/// live forks/shippers, never the transaction path.
pub(crate) struct PinSet {
    next: AtomicU64,
    pins: Mutex<Vec<(u64, u64)>>,
}

impl PinSet {
    fn new() -> PinSet {
        PinSet { next: AtomicU64::new(1), pins: Mutex::new(Vec::new()) }
    }

    fn pin(&self, offset: u64) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.pins.lock().push((id, offset));
        id
    }

    fn update(&self, id: u64, offset: u64) {
        let mut pins = self.pins.lock();
        if let Some(p) = pins.iter_mut().find(|(i, _)| *i == id) {
            p.1 = offset;
        }
    }

    fn release(&self, id: u64) {
        self.pins.lock().retain(|(i, _)| *i != id);
    }

    fn min(&self) -> Option<u64> {
        self.pins.lock().iter().map(|&(_, o)| o).min()
    }

    /// Fold the minimum pinned offset into `h` and record the result in
    /// `used` before releasing the pin-table lock. Because [`PinSet::pin`]
    /// takes the same lock, once `pin` returns every horizon a concurrent
    /// GC pass could still be sweeping with is already visible in `used`;
    /// later horizon reads see the new pin. [`Database::fork`] relies on
    /// both halves of this ordering.
    fn fold_and_publish(&self, h: u64, used: &AtomicU64) -> u64 {
        let pins = self.pins.lock();
        let h = pins.iter().map(|&(_, o)| o).min().map_or(h, |m| h.min(m));
        used.fetch_max(h, Ordering::AcqRel);
        h
    }
}

/// A retention handle pinning the log against [`Database::truncate_log`].
///
/// While alive, no segment at or above the pinned offset is retired, so
/// a backup shipper or replica subscriber can keep reading sealed
/// segments without racing truncation. Dropping the handle releases the
/// pin; the next `truncate_log` resumes retiring normally.
pub struct LogRetention {
    inner: Arc<DbInner>,
    id: u64,
}

impl LogRetention {
    /// Move the pin forward (typically to the subscriber's applied
    /// offset) so truncation can reclaim everything already shipped.
    pub fn advance(&self, offset: u64) {
        self.inner.log_pins.update(self.id, offset);
    }
}

impl Drop for LogRetention {
    fn drop(&mut self) {
        self.inner.log_pins.release(self.id);
    }
}

/// Shared state of a snapshot view handle ([`Database::fork`] /
/// [`Database::replica_view`]): the visibility cut, plus a GC pin that
/// keeps version chains below the cut reachable for as long as any
/// handle clone is alive.
pub(crate) struct ViewState {
    /// Raw LSN used as the begin timestamp of every transaction started
    /// through this handle. Frozen for forks; advanced by a replica as
    /// it applies shipped log.
    pub(crate) cut: AtomicU64,
    inner: Arc<DbInner>,
    gc_pin: u64,
    /// True for user-visible forks (counted in `ermia_fork_count`).
    counted: bool,
}

impl Drop for ViewState {
    fn drop(&mut self) {
        self.inner.gc_pins.release(self.gc_pin);
        if self.counted {
            self.inner.fork_count.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Exclusive-ownership lockfile on a durable data directory.
///
/// Holds `ermia.lock` containing the owning pid. Acquisition rules, in
/// order: no file — create and own; file with our own pid — a same-
/// process reopen, take ownership again; file with a dead pid (the
/// previous owner was SIGKILLed — the chaos-harness restart path) or
/// unparseable content — stale, replace it; file with a live foreign
/// pid — refuse to open. Dropped with the database, removing the file.
pub(crate) struct DirLock {
    path: PathBuf,
}

impl DirLock {
    fn acquire(dir: &Path) -> std::io::Result<DirLock> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("ermia.lock");
        if let Ok(contents) = std::fs::read_to_string(&path) {
            match contents.trim().parse::<u32>() {
                Ok(pid) if pid == std::process::id() => {}
                Ok(pid) if Path::new(&format!("/proc/{pid}")).exists() => {
                    return Err(std::io::Error::other(format!(
                        "data directory {} is locked by live process {pid}",
                        dir.display()
                    )));
                }
                // Dead pid or garbage: the previous owner is gone.
                _ => {}
            }
        }
        std::fs::write(&path, format!("{}\n", std::process::id()))?;
        Ok(DirLock { path })
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A table: an indirection array plus its primary index.
pub struct Table {
    pub id: TableId,
    pub name: String,
    pub oids: Arc<OidArray>,
    /// Primary index: encoded key → OID.
    pub primary: Arc<BTree>,
    pub primary_index: IndexId,
}

/// An index registration (primary or secondary). All indexes map keys to
/// OIDs of their owning table, so record updates never touch them (§3.2).
pub struct IndexInfo {
    pub id: IndexId,
    pub name: String,
    pub table: TableId,
    pub tree: Arc<BTree>,
    pub is_primary: bool,
}

pub(crate) struct Catalog {
    pub tables: Vec<Arc<Table>>,
    pub indexes: Vec<Arc<IndexInfo>>,
    pub table_names: HashMap<String, TableId>,
    pub index_names: HashMap<String, IndexId>,
}

pub(crate) struct DbInner {
    pub cfg: DbConfig,
    pub log: LogManager,
    pub tid: TidManager,
    pub catalog: RwLock<Catalog>,
    /// The unified epoch manager. The paper's three timescales (gc, rcu,
    /// tid) were tracked separately, but every transaction pinned all
    /// three in lockstep at the same boundaries, so one timeline is
    /// semantically equivalent and makes begin/end one pin instead of
    /// three. Resources of every timescale retire through it.
    pub epoch: EpochManager,
    /// Recycled version nodes: the GC releases quiesced nodes here and
    /// workers' per-thread caches draw from it, keeping the steady-state
    /// write path off the allocator.
    pub versions: Arc<VersionPool>,
    pub checkpoints: Option<CheckpointStore>,
    /// Large-object side storage (§3.3 feature 4).
    pub blobs: ermia_log::BlobStore,
    /// Commits since the last checkpoint (stats).
    pub commits: AtomicU64,
    pub aborts: AtomicU64,
    /// The unified telemetry layer: per-worker metric slabs (txn
    /// outcomes, the Fig. 11 breakdown), database-level collectors over
    /// the subsystem atomics, and the flight-recorder event rings.
    /// Workers write their own slabs with relaxed adds; locks guard only
    /// registration, retirement, and reads, never the transaction path.
    pub telemetry: Arc<Telemetry>,
    /// GC statistics, owned here (not by the collector) so counts
    /// survive the GC restarts that DDL triggers.
    pub gc_stats: Arc<GcStats>,
    /// Service state ([`DbState`] as u8): flipped to `Degraded` by the
    /// log's poison hook, back to `Active` by [`Database::resume`]. Read
    /// with a relaxed load on every write operation's admission check.
    pub state: AtomicU8,
    /// Replication role ([`NodeRole`] as u8); set once by the replica
    /// process, read by health reporting.
    pub role: AtomicU8,
    /// Log offset a replica has applied through (0 on a primary).
    pub applied: AtomicU64,
    /// Snapshot-view pins (raw LSNs) clamping the GC horizon: versions
    /// a live fork can still read are not reclaimable.
    pub gc_pins: PinSet,
    /// Highest horizon (raw LSN) any GC pass has swept with, published
    /// inside the pin-table critical section (see
    /// [`PinSet::fold_and_publish`]). [`Database::fork`] refuses to pick
    /// a cut below it: a pass that already read its horizon may still be
    /// unlinking versions a lower cut would need.
    pub gc_horizon_used: AtomicU64,
    /// Retention pins (log offsets) clamping [`Database::truncate_log`].
    pub log_pins: PinSet,
    /// Live fork handles (gauge `ermia_fork_count`).
    pub fork_count: AtomicU64,
    /// Pid lockfile on the data directory (`None` for in-memory
    /// databases); held only for its Drop, which removes the file.
    pub _dir_lock: Option<DirLock>,
}

impl DbInner {
    /// The tracer's service ring: where background services (GC passes,
    /// checkpoints, epoch advances, degraded/resumed transitions) record
    /// their events. Workers get their own rings.
    pub(crate) fn svc_ring(&self) -> &Ring {
        self.telemetry.tracer().svc_ring()
    }
}

/// A memory-optimized multi-version database (the paper's ERMIA engine).
///
/// Cheap to clone and share across threads. Each worker thread calls
/// [`Database::register_worker`] once and runs transactions through its
/// [`Worker`].
#[derive(Clone)]
pub struct Database {
    pub(crate) inner: Arc<DbInner>,
    // Background services; dropped (stopped) with the last Database clone.
    _services: Arc<Services>,
    /// When set, this handle is a read-only snapshot view: transactions
    /// begin at the view's cut instead of the log tail, and every write
    /// operation aborts with `ReadOnlyMode`.
    pub(crate) view: Option<Arc<ViewState>>,
}

struct Services {
    _tickers: Vec<Ticker>,
    _gc: parking_lot::Mutex<Option<GarbageCollector>>,
}

impl Database {
    /// Open a database. If the log directory already contains segments,
    /// call [`Database::recover`] after re-declaring the schema.
    pub fn open(cfg: DbConfig) -> std::io::Result<Database> {
        // Take the directory lock before touching any file in it: a live
        // foreign owner means refusing here, a dead one (SIGKILL) means
        // this open *is* the restart-recovery path.
        let dir_lock = match &cfg.log.dir {
            Some(dir) => Some(DirLock::acquire(dir)?),
            None => None,
        };
        let log = LogManager::open(cfg.log.clone())?;
        let checkpoints = match &cfg.log.dir {
            Some(dir) => Some(CheckpointStore::new(dir.join("checkpoints"))?),
            None => None,
        };
        let blobs = match &cfg.log.dir {
            Some(dir) => ermia_log::BlobStore::open(dir)?,
            None => ermia_log::BlobStore::in_memory(),
        };
        let telemetry = Arc::new(Telemetry::new());
        telemetry.tracer().set_slow_threshold_ns(cfg.trace_slow_us.saturating_mul(1_000));
        let inner = Arc::new(DbInner {
            log,
            tid: TidManager::new(),
            catalog: RwLock::new(Catalog {
                tables: Vec::new(),
                indexes: Vec::new(),
                table_names: HashMap::new(),
                index_names: HashMap::new(),
            }),
            epoch: EpochManager::new("unified"),
            versions: Arc::new(VersionPool::default()),
            checkpoints,
            blobs,
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            telemetry,
            gc_stats: Arc::new(GcStats::default()),
            state: AtomicU8::new(DbState::Active as u8),
            role: AtomicU8::new(NodeRole::Primary as u8),
            applied: AtomicU64::new(0),
            gc_pins: PinSet::new(),
            gc_horizon_used: AtomicU64::new(0),
            log_pins: PinSet::new(),
            fork_count: AtomicU64::new(0),
            _dir_lock: dir_lock,
            cfg,
        });
        crate::metrics::register_db_collectors(&inner);
        {
            // Degrade to read-only the instant the flusher poisons the
            // log: reads keep committing off the snapshot, writes are
            // refused at admission with `AbortReason::ReadOnlyMode`.
            let weak = Arc::downgrade(&inner);
            inner.log.set_poison_hook(move || {
                if let Some(db) = weak.upgrade() {
                    db.state.store(DbState::Degraded as u8, Ordering::Release);
                    db.svc_ring().event(
                        EventKind::DbDegraded,
                        db.log.durable_offset(),
                        0,
                    );
                }
            });
        }
        if inner.cfg.telemetry {
            // Record epoch transitions in the service ring. The hook runs
            // after the advance, outside the epoch manager's locks; the
            // Weak keeps the manager (owned by DbInner) from keeping its
            // owner alive.
            let weak = Arc::downgrade(&inner);
            inner.epoch.set_advance_hook(move |epoch| {
                if let Some(db) = weak.upgrade() {
                    db.svc_ring().event(EventKind::EpochAdvance, epoch, 0);
                }
            });
        }
        let cfg = &inner.cfg;
        // One ticker drives the unified timeline at the fastest of the
        // old per-timescale cadences (the tid valve's 1ms).
        let tick = cfg.rcu_epoch_interval.min(Duration::from_millis(1));
        let mut tickers = vec![Ticker::start(inner.epoch.clone(), tick)];
        tickers.shrink_to_fit();
        let services = Arc::new(Services { _tickers: tickers, _gc: parking_lot::Mutex::new(None) });
        let db = Database { inner, _services: services, view: None };
        if db.inner.cfg.enable_gc {
            db.start_gc();
        }
        Ok(db)
    }

    fn start_gc(&self) {
        let inner = Arc::clone(&self.inner);
        let horizon = move || {
            // Versions below every active transaction's begin stamp are
            // reclaimable; fall back to the log tail when idle. Live
            // snapshot views (forks, replica serving handles) clamp the
            // horizon so versions their cut can still read stay linked
            // even while no view transaction is in flight.
            let tail = inner.log.tail_lsn();
            let h = inner.tid.min_active_begin(tail);
            // Clamp by live pins and publish the result under the
            // pin-table lock, so fork() can bound what any in-flight
            // pass might still be sweeping with.
            Lsn::from_raw(inner.gc_pins.fold_and_publish(h.raw(), &inner.gc_horizon_used))
        };
        // The GC sweeps whatever tables exist at each pass; re-arm when
        // tables are created (cheap: GC restart on DDL).
        let arrays: Vec<Arc<OidArray>> =
            self.inner.catalog.read().tables.iter().map(|t| Arc::clone(&t.oids)).collect();
        let on_pass: Option<GcPassHook> = self.inner.cfg.telemetry.then(|| {
            let ring = Arc::clone(self.inner.telemetry.tracer().svc_ring());
            Box::new(move |reclaimed: u64, passes: u64| {
                ring.event(EventKind::GcPass, reclaimed, passes);
            }) as GcPassHook
        });
        let gc = GarbageCollector::start_with(
            arrays,
            self.inner.epoch.clone(),
            horizon,
            self.inner.cfg.gc_interval,
            Some(Arc::clone(&self.inner.versions)),
            Arc::clone(&self.inner.gc_stats),
            on_pass,
        );
        *self._services._gc.lock() = Some(gc);
    }

    /// Create (or look up, by name) a table with its primary index.
    pub fn create_table(&self, name: &str) -> TableId {
        {
            let catalog = self.inner.catalog.read();
            if let Some(&id) = catalog.table_names.get(name) {
                return id;
            }
        }
        let mut catalog = self.inner.catalog.write();
        if let Some(&id) = catalog.table_names.get(name) {
            return id;
        }
        let id = TableId(catalog.tables.len() as u32);
        let index_id = IndexId(catalog.indexes.len() as u32);
        let tree = Arc::new(BTree::new());
        let table = Arc::new(Table {
            id,
            name: name.to_owned(),
            oids: Arc::new(OidArray::new()),
            primary: Arc::clone(&tree),
            primary_index: index_id,
        });
        catalog.indexes.push(Arc::new(IndexInfo {
            id: index_id,
            name: format!("{name}.primary"),
            table: id,
            tree,
            is_primary: true,
        }));
        catalog.table_names.insert(name.to_owned(), id);
        catalog.tables.push(table);
        drop(catalog);
        if self.inner.cfg.enable_gc {
            self.start_gc(); // re-arm with the new array
        }
        id
    }

    /// Create (or look up) a secondary index on `table`. Secondary keys
    /// must be immutable fields of the record: entries map to OIDs and
    /// are not versioned, so updates must never change them.
    pub fn create_secondary_index(&self, table: TableId, name: &str) -> IndexId {
        {
            let catalog = self.inner.catalog.read();
            if let Some(&id) = catalog.index_names.get(name) {
                return id;
            }
        }
        let mut catalog = self.inner.catalog.write();
        if let Some(&id) = catalog.index_names.get(name) {
            return id;
        }
        let id = IndexId(catalog.indexes.len() as u32);
        catalog.indexes.push(Arc::new(IndexInfo {
            id,
            name: name.to_owned(),
            table,
            tree: Arc::new(BTree::new()),
            is_primary: false,
        }));
        catalog.index_names.insert(name.to_owned(), id);
        id
    }

    /// Number of tables in the catalog. Table ids are dense, so an id is
    /// valid iff it is below this count — front-ends use this to validate
    /// untrusted ids before calling [`Transaction`](crate::Transaction) operations, which
    /// index the catalog directly.
    pub fn table_count(&self) -> usize {
        self.inner.catalog.read().tables.len()
    }

    /// Look up a table id by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.inner.catalog.read().table_names.get(name).copied()
    }

    /// Look up a (secondary) index id by name.
    pub fn index_id(&self, name: &str) -> Option<IndexId> {
        self.inner.catalog.read().index_names.get(name).copied()
    }

    /// The primary index id of a table.
    pub fn primary_index(&self, table: TableId) -> IndexId {
        self.inner.catalog.read().tables[table.0 as usize].primary_index
    }

    pub(crate) fn table(&self, id: TableId) -> Arc<Table> {
        Arc::clone(&self.inner.catalog.read().tables[id.0 as usize])
    }

    pub(crate) fn index(&self, id: IndexId) -> Arc<IndexInfo> {
        Arc::clone(&self.inner.catalog.read().indexes[id.0 as usize])
    }

    /// Register the calling thread as a worker.
    pub fn register_worker(&self) -> Worker {
        Worker::new(self.clone())
    }

    /// The log manager (stats, durability control).
    pub fn log(&self) -> &LogManager {
        &self.inner.log
    }

    /// Current service state. `Degraded` means the log is poisoned:
    /// reads commit, writes abort with `ReadOnlyMode`.
    pub fn state(&self) -> DbState {
        DbState::from_u8(self.inner.state.load(Ordering::Acquire))
    }

    /// Operator-triggered recovery from degraded read-only mode.
    ///
    /// Delegates to [`ermia_log::LogManager::resume`] — which re-probes
    /// the storage backend, papers the never-durable gap with skip
    /// blocks, and re-arms the flusher — and returns the database to
    /// `Active` only if that succeeds. Safe to retry while the
    /// underlying fault persists, and a no-op on a healthy database.
    pub fn resume(&self) -> std::io::Result<()> {
        self.inner.log.resume()?;
        self.inner.state.store(DbState::Active as u8, Ordering::Release);
        self.inner.svc_ring().event(EventKind::DbResumed, self.inner.log.durable_offset(), 0);
        Ok(())
    }

    /// Committed / aborted transaction totals.
    pub fn txn_counts(&self) -> (u64, u64) {
        (self.inner.commits.load(Ordering::Relaxed), self.inner.aborts.load(Ordering::Relaxed))
    }

    /// Statistics of the unified epoch manager (all resource timescales
    /// retire through one timeline).
    pub fn epoch_stats(&self) -> ermia_epoch::EpochStats {
        self.inner.epoch.stats()
    }

    /// Version nodes currently parked in the reuse pool.
    pub fn version_pool_size(&self) -> usize {
        self.inner.versions.pooled()
    }

    /// Transaction-context (TID) slots currently in use. Zero whenever no
    /// transaction is in flight — the service layer's session-teardown
    /// tests assert this to prove disconnects leak nothing.
    pub fn tid_slots_in_use(&self) -> usize {
        self.inner.tid.in_use()
    }

    /// Current log tail — the begin timestamp a transaction starting now
    /// would get.
    pub fn now_lsn(&self) -> Lsn {
        self.inner.log.tail_lsn()
    }

    /// Retire log segments made obsolete by the most recent checkpoint
    /// and prune superseded checkpoints. Returns the number of segments
    /// removed. Live [`LogRetention`] handles clamp the truncation
    /// point, so a backup shipper's unshipped segments survive; once the
    /// handles drop, the next call resumes retiring from the checkpoint.
    pub fn truncate_log(&self) -> std::io::Result<usize> {
        let Some(store) = &self.inner.checkpoints else { return Ok(0) };
        let Some((meta, _)) = store.latest()? else { return Ok(0) };
        store.prune()?;
        let mut cut = meta.begin.offset();
        if let Some(pin) = self.inner.log_pins.min() {
            cut = cut.min(pin);
        }
        let removed = self.inner.log.truncate_before(cut)?;
        if self.inner.cfg.telemetry {
            self.inner.svc_ring().event(EventKind::Checkpoint, cut, removed as u64);
        }
        Ok(removed)
    }

    /// Pin the log against truncation from `offset` upward. See
    /// [`LogRetention`].
    pub fn pin_log(&self, offset: u64) -> LogRetention {
        LogRetention { inner: Arc::clone(&self.inner), id: self.inner.log_pins.pin(offset) }
    }

    // ------------------------------------------------------------------
    // Consistent cuts and snapshot views
    // ------------------------------------------------------------------

    /// An epoch-aligned, durable consistent cut: the returned LSN `c`
    /// satisfies (a) every transaction with commit stamp `< c` has
    /// finished post-commit (its versions carry LSN stamps), because `c`
    /// is the in-flight commit low-water frontier, and (b) the log is
    /// durable through `c`, so the cut names a crash-survivable prefix.
    /// A snapshot read at begin `c` therefore observes a
    /// transaction-consistent, durable prefix of history.
    pub fn snapshot_cut(&self) -> std::io::Result<Lsn> {
        let cut = self.inner.tid.min_commit_low_water(self.inner.log.tail_lsn());
        if cut.offset() > 0 {
            // Same barrier as the checkpoint: durable advances in block
            // units, so reaching any offset >= every stamp < cut means
            // all those commit blocks are fully on disk.
            self.inner.log.wait_durable(cut.offset()).map_err(std::io::Error::other)?;
        }
        Ok(cut)
    }

    /// Fork: an instant, read-only clone of this database at a
    /// transaction-consistent cut. No version data is copied — the fork
    /// shares the indirection arrays and version chains copy-on-write
    /// (the primary keeps prepending new versions; the fork's frozen cut
    /// simply never sees them), so the cost is O(metadata): one pin and
    /// one handle. Transactions begun through the returned handle read
    /// the cut's snapshot; writes abort with `ReadOnlyMode`. The fork
    /// pins the GC horizon at its cut until dropped.
    ///
    /// Unlike [`Database::snapshot_cut`] there is no durability barrier:
    /// forks are in-memory artifacts (what-if analysis, tests) and take
    /// the current commit frontier as-is.
    pub fn fork(&self) -> Database {
        let inner = &self.inner;
        // Pin *before* choosing the cut: from here on no new GC pass can
        // reclaim anything (its horizon folds in this floor pin). A pass
        // already in flight read its horizon earlier, but published it
        // to `gc_horizon_used` inside the same lock `pin` just went
        // through — so refusing any cut below that bound guarantees
        // nothing such a pass unlinks (overwriter below its horizon) is
        // needed at the cut we return.
        let gc_pin = inner.gc_pins.pin(Lsn::NULL.raw());
        let cut = loop {
            let c = inner.tid.min_commit_low_water(inner.log.tail_lsn());
            if c.raw() >= inner.gc_horizon_used.load(Ordering::Acquire) {
                break c;
            }
            // The low water sits below a horizon some pass already used:
            // an in-flight commit predating the pin is mid post-commit.
            // The frontier is monotonic and post-commit is short, so
            // spin until it passes the bound.
            std::thread::yield_now();
        };
        inner.gc_pins.update(gc_pin, cut.raw());
        self.view_from_pin(cut, gc_pin, true)
    }

    /// A view handle for replica serving: starts at cut 0 (empty but
    /// consistent) and is advanced with [`Database::advance_view`] as
    /// shipped log gets applied. Not counted as a fork.
    pub fn replica_view(&self) -> Database {
        self.view_at(Lsn::NULL, false)
    }

    fn view_at(&self, cut: Lsn, counted: bool) -> Database {
        let gc_pin = self.inner.gc_pins.pin(cut.raw());
        self.view_from_pin(cut, gc_pin, counted)
    }

    fn view_from_pin(&self, cut: Lsn, gc_pin: u64, counted: bool) -> Database {
        if counted {
            self.inner.fork_count.fetch_add(1, Ordering::Relaxed);
        }
        let view = Arc::new(ViewState {
            cut: AtomicU64::new(cut.raw()),
            inner: Arc::clone(&self.inner),
            gc_pin,
            counted,
        });
        Database {
            inner: Arc::clone(&self.inner),
            _services: Arc::clone(&self._services),
            view: Some(view),
        }
    }

    /// Advance a view handle's cut (replica catch-up). Monotonic: an
    /// older cut than the current one is ignored. Panics if this handle
    /// is not a view.
    pub fn advance_view(&self, cut: Lsn) {
        let view = self.view.as_ref().expect("advance_view requires a view handle");
        view.cut.fetch_max(cut.raw(), Ordering::Release);
        view.inner.gc_pins.update(view.gc_pin, cut.raw());
    }

    /// The cut this handle serves, if it is a snapshot view.
    pub fn view_cut(&self) -> Option<Lsn> {
        self.view.as_ref().map(|v| Lsn::from_raw(v.cut.load(Ordering::Acquire)))
    }

    /// Live fork handles.
    pub fn fork_count(&self) -> u64 {
        self.inner.fork_count.load(Ordering::Relaxed)
    }

    /// This node's replication role.
    pub fn role(&self) -> NodeRole {
        NodeRole::from_u8(self.inner.role.load(Ordering::Relaxed))
    }

    /// Mark this database as a log-shipping replica (health reporting).
    pub fn set_role_replica(&self) {
        self.inner.role.store(NodeRole::Replica as u8, Ordering::Relaxed);
    }

    /// Log offset a replica has applied through (0 on a primary).
    pub fn applied_lsn(&self) -> u64 {
        self.inner.applied.load(Ordering::Acquire)
    }

    /// Record the replica's applied offset (set by the repl crate).
    pub fn set_applied_lsn(&self, offset: u64) {
        self.inner.applied.fetch_max(offset, Ordering::Release);
    }

    /// The most recent verified checkpoint, as (begin LSN, raw payload).
    /// `None` without a durable configuration or before any checkpoint.
    /// Used by the backup shipper to stream the snapshot to a replica.
    pub fn latest_checkpoint(&self) -> std::io::Result<Option<(Lsn, Vec<u8>)>> {
        let Some(store) = &self.inner.checkpoints else { return Ok(None) };
        Ok(store.latest()?.map(|(meta, payload)| (meta.begin, payload)))
    }

    /// Persist a checkpoint payload received from a primary into this
    /// database's own checkpoint store, making the local data directory
    /// a restartable backup. The payload is stored verbatim under the
    /// shipped begin LSN.
    pub fn store_checkpoint(&self, begin: Lsn, payload: &[u8]) -> std::io::Result<()> {
        let store = self
            .inner
            .checkpoints
            .as_ref()
            .expect("storing a shipped checkpoint requires a durable configuration");
        store.write(ermia_log::CheckpointMeta { begin }, payload)
    }

    /// Raw blob-store bytes `[offset, offset + max_len)`, clamped to the
    /// current end of `blobs.dat` (empty when `offset` is at or past
    /// it). Large-object writes divert their payload here and log only a
    /// fixed-size indirection, so a backup shipper must stream this file
    /// alongside the segments for indirect records to resolve during
    /// replica replay.
    pub fn blob_bytes(&self, offset: u64, max_len: u32) -> std::io::Result<Vec<u8>> {
        let end = self.inner.blobs.size().min(offset.saturating_add(max_len as u64));
        if end <= offset {
            return Ok(Vec::new());
        }
        self.inner.blobs.read(ermia_log::BlobRef { offset, len: (end - offset) as u32 })
    }

    /// The DDL statements (in creation order) that reproduce this
    /// database's schema with identical dense table/index ids. A replica
    /// replays these through [`Database::create_table`] /
    /// [`Database::create_secondary_index`] (both idempotent by name)
    /// before applying shipped log.
    pub fn schema_ddl(&self) -> Vec<DdlEntry> {
        let catalog = self.inner.catalog.read();
        catalog
            .indexes
            .iter()
            .map(|idx| {
                let table = catalog.tables[idx.table.0 as usize].name.clone();
                DdlEntry {
                    table,
                    secondary: (!idx.is_primary).then(|| idx.name.clone()),
                }
            })
            .collect()
    }

    /// Apply one [`DdlEntry`] (idempotent; used by replicas).
    pub fn apply_ddl(&self, entry: &DdlEntry) {
        match &entry.secondary {
            None => {
                self.create_table(&entry.table);
            }
            Some(name) => {
                let table = self.create_table(&entry.table);
                self.create_secondary_index(table, name);
            }
        }
    }

    /// Aggregate per-component time breakdown, merged on read across
    /// every worker's slab — live and retired (requires `cfg.profile`).
    pub fn breakdown(&self) -> crate::profile::Breakdown {
        crate::profile::breakdown_from_counters(
            &self.inner.telemetry.registry().family_counters(&crate::metrics::PROFILE_FAMILY),
        )
    }

    /// The database's telemetry layer: merged metric registry, Prometheus
    /// exposition, and the flight recorder.
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }
}
