//! Sharded engine: N independent log/epoch/TID domains, one namespace.
//!
//! The centralized log gives ERMIA a totally ordered commit timestamp
//! from one `fetch_add` — scalable on one socket, but still one cache
//! line every committer must touch, one flusher thread, one TID space.
//! [`ShardedDb`] multiplies the engine instead of the log: it hash-
//! partitions every table across `S` full [`Database`] instances, each
//! with its own log directory, group-commit flusher, epoch manager, GC
//! and TID space. The namespace stays unified — tables and indexes are
//! created on every shard in the same order, so a `TableId` or
//! `IndexId` means the same thing everywhere and callers route by key,
//! never by shard.
//!
//! **Single-shard transactions** (the common case: the TPC-C partition
//! argument, §6 of the paper) touch exactly one inner [`Transaction`]
//! and commit through the unmodified single-database path — no extra
//! log writes, no coordination, overhead is one hash per operation. At
//! `S = 1` even that disappears: routing is constant and commit is a
//! direct pass-through.
//!
//! **Cross-shard transactions** commit with two-phase commit layered on
//! the existing commit/durability split:
//!
//! 1. *Prepare* — every writer shard runs its full commit protocol
//!    (SSN exclusion test, node-set validation, log space allocation)
//!    but serializes its block as
//!    [`BlockKind::TxnPrepare`](ermia_log::BlockKind::TxnPrepare)
//!    carrying the coordinator's identity. The coordinator is the lowest
//!    writer shard and prepares first; the LSN of its prepare block
//!    becomes the global transaction id (gtid).
//! 2. *Decide* — once **all** prepares are durable, the coordinator
//!    appends a [`BlockKind::TxnDecide`](ermia_log::BlockKind::TxnDecide)
//!    record to its own log and waits for it. The decide record is the commit point: durable
//!    decide ⇒ the transaction is committed on every shard.
//! 3. *Finalize* — participants flip their TID slots to committed and
//!    publish versions in memory; matching decide records are appended
//!    best-effort to the other writers' logs so their standalone
//!    recovery resolves locally in the common case.
//!
//! Recovery is presumed-abort: a prepare without a reachable commit
//! verdict (in its own log or the coordinator's) rolls forward to
//! nothing. [`ShardedDb::recover`] replays every shard, then hands the
//! leftover prepares to [`resolve_in_doubt`](crate::resolve_in_doubt) —
//! the resolver a replica uses too — which applies each one iff some
//! shard's log holds a commit decide for it; the rest are dropped. An
//! acked cross-shard commit is therefore always either fully present or
//! (unacked) fully absent after a crash.
//!
//! What sharding deliberately does *not* give: a global snapshot.
//! Each shard's reads run against that shard's own LSN timeline, so a
//! cross-shard reader can observe shard A after a transaction T and
//! shard B before T (a fractured read), and SSN certifies dependency
//! cycles per shard only. This matches the partitioned deployments the
//! paper compares against (H-Store-style) rather than a globally
//! serializable distributed engine; see DESIGN.md §Sharding.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Weak};
use std::task::Waker;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use ermia_common::{AbortReason, IndexId, Lsn, Oid, OpResult, TableId, TxResult};
use ermia_log::{DecideRecord, Durability, PrepareMarker, WakeKey};
use ermia_telemetry::{
    EventKind, FamilyDef, MetricDesc, MetricKind, Ring, Sample, Slab, SpanKind, TraceContext,
};

use crate::config::{DbConfig, IsolationLevel};
use crate::database::{Database, DbState, DdlEntry, NodeRole};
use crate::recovery::{recover_shards, RecoveryStats};
use crate::transaction::{CommitToken, PreparedTransaction, Transaction};
use crate::worker::Worker;

/// Deterministic key → shard map: FNV-1a over the routed key bytes,
/// reduced mod `shards`. Exported so workload generators can partition
/// keys (e.g. pick a key pair that is guaranteed cross-shard).
pub fn shard_of_key(key: &[u8], shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// How a table's rows are distributed across shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Hash the primary key to pick the owning shard. With
    /// `prefix: Some(p)` only the first `p` key bytes are hashed, so
    /// co-prefixed rows (e.g. everything in one TPC-C warehouse)
    /// colocate and prefix range scans stay single-shard.
    Hash { prefix: Option<usize> },
    /// Full copy on every shard: writes fan out to all shards inside
    /// the same transaction, reads are served by shard 0. For small
    /// read-mostly dimension tables (TPC-C `item`). Replicated tables
    /// cannot carry secondary indexes.
    Replicated,
}

impl Default for ShardPolicy {
    fn default() -> ShardPolicy {
        ShardPolicy::Hash { prefix: None }
    }
}

impl ShardPolicy {
    /// Compact `(tag, arg)` form for the replication protocol: a replica
    /// must route reads exactly like its primary, so table policies ship
    /// with the schema DDL.
    pub fn to_wire(self) -> (u8, u64) {
        match self {
            ShardPolicy::Hash { prefix: None } => (0, 0),
            ShardPolicy::Hash { prefix: Some(p) } => (1, p as u64),
            ShardPolicy::Replicated => (2, 0),
        }
    }

    /// Inverse of [`ShardPolicy::to_wire`]; unknown tags fall back to
    /// the default policy.
    pub fn from_wire(tag: u8, arg: u64) -> ShardPolicy {
        match tag {
            1 => ShardPolicy::Hash { prefix: Some(arg as usize) },
            2 => ShardPolicy::Replicated,
            _ => ShardPolicy::default(),
        }
    }
}

/// How a *secondary* index key routes to the owning shard. (Primary
/// indexes always route by the table's [`ShardPolicy`].)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexRouting {
    /// The secondary key embeds the owning row's shard key in its first
    /// `len` bytes (TPC-C customer-by-name starts with `w_id, d_id`).
    OwnerPrefix(usize),
    /// No shard information in the key: lookups probe every shard.
    Probe,
}

impl IndexRouting {
    /// Compact `(tag, arg)` form for the replication protocol (see
    /// [`ShardPolicy::to_wire`]).
    pub fn to_wire(self) -> (u8, u64) {
        match self {
            IndexRouting::Probe => (0, 0),
            IndexRouting::OwnerPrefix(len) => (1, len as u64),
        }
    }

    /// Inverse of [`IndexRouting::to_wire`]; unknown tags fall back to
    /// the always-correct `Probe`.
    pub fn from_wire(tag: u8, arg: u64) -> IndexRouting {
        match tag {
            1 => IndexRouting::OwnerPrefix(arg as usize),
            _ => IndexRouting::Probe,
        }
    }
}

/// One schema entry with its routing, as shipped to a replica: the
/// [`DdlEntry`] plus the wire form of the table's [`ShardPolicy`]
/// (table entries) or the index's [`IndexRouting`] (secondary entries).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutedDdl {
    pub entry: DdlEntry,
    pub route_tag: u8,
    pub route_arg: u64,
}

#[derive(Clone, Copy)]
enum IndexRoute {
    /// Primary index of a table: route by the table's policy.
    Primary(TableId),
    /// Secondary index with its own routing rule.
    Secondary { routing: IndexRouting },
}

/// Immutable routing snapshot: per-table policies and per-index routes,
/// indexed by the dense ids (identical on every shard). Replaced
/// wholesale on DDL; workers cache an `Arc` and revalidate against
/// [`ShardedInner::routing_version`] once per transaction.
struct Routing {
    tables: Vec<ShardPolicy>,
    indexes: Vec<IndexRoute>,
}

impl Routing {
    fn from_catalog(db: &Database) -> Routing {
        let cat = db.inner.catalog.read();
        let tables = vec![ShardPolicy::default(); cat.tables.len()];
        let indexes = cat
            .indexes
            .iter()
            .map(|ix| {
                if ix.is_primary {
                    IndexRoute::Primary(ix.table)
                } else {
                    IndexRoute::Secondary { routing: IndexRouting::Probe }
                }
            })
            .collect();
        Routing { tables, indexes }
    }

    fn hash_shard(policy: ShardPolicy, key: &[u8], shards: usize) -> Option<usize> {
        match policy {
            ShardPolicy::Hash { prefix } => {
                let routed = match prefix {
                    Some(p) if key.len() > p => &key[..p],
                    _ => key,
                };
                Some(shard_of_key(routed, shards))
            }
            ShardPolicy::Replicated => None,
        }
    }
}

// --- 2PC telemetry family -----------------------------------------------

const TWOPC_CROSS: usize = 0;
const TWOPC_PREPARE_HIST: usize = 0;
const TWOPC_DECIDE_HIST: usize = 1;

/// Per-worker 2PC metrics, registered on shard 0's registry.
static TWOPC_FAMILY: FamilyDef = FamilyDef {
    counters: &[MetricDesc {
        name: "ermia_shard_cross_txns_total",
        help: "Cross-shard transactions committed through 2PC",
        kind: MetricKind::Counter,
        label: None,
    }],
    hists: &[
        MetricDesc {
            name: "ermia_2pc_prepare_ns",
            help: "2PC prepare phase latency (all participant prepares durable), ns",
            kind: MetricKind::Counter,
            label: None,
        },
        MetricDesc {
            name: "ermia_2pc_decide_ns",
            help: "2PC decide phase latency (coordinator decide record durable), ns",
            kind: MetricKind::Counter,
            label: None,
        },
    ],
};

/// Per-worker telemetry, present iff `cfg.telemetry`: the 2PC metric
/// slab, the shard-0 engine worker's ring (2PC events and spans share it
/// with that worker's events — one thread, one ring) and the
/// head-sampling countdown. Wire-traced requests always have a ring to
/// land in; `sample_n` only governs engine-initiated traces.
pub(crate) struct WorkerTelemetry {
    slab: Arc<Slab>,
    ring: Arc<Ring>,
    sample_n: u32,
    count: u32,
}

// --- ShardedDb ----------------------------------------------------------

pub(crate) struct ShardedInner {
    dbs: Vec<Database>,
    routing: RwLock<Arc<Routing>>,
    /// Bumped on every DDL so workers revalidate their routing cache
    /// with one relaxed load per transaction.
    routing_version: AtomicU64,
    /// Cross-shard transactions currently between first prepare and
    /// durable decide.
    in_doubt: AtomicU64,
    /// Test hook: sleep between "all prepares durable" and writing the
    /// decide record (`ERMIA_2PC_PREPARE_DELAY_MS`, read once at open),
    /// widening the window the chaos harness SIGKILLs into.
    prepare_delay: Duration,
}

/// `S` independent [`Database`] instances behind one namespace.
///
/// Cheap to clone and share across threads, like [`Database`].
#[derive(Clone)]
pub struct ShardedDb {
    pub(crate) inner: Arc<ShardedInner>,
}

fn prepare_delay_from_env() -> Duration {
    std::env::var("ERMIA_2PC_PREPARE_DELAY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or(Duration::ZERO)
}

impl ShardedDb {
    /// Open `shards` databases from one config. With a durable config,
    /// shard `i` logs under `<dir>/shard-<i>`; in-memory configs stay
    /// in-memory. All shards share the remaining tuning knobs.
    pub fn open(cfg: DbConfig, shards: usize) -> io::Result<ShardedDb> {
        assert!(shards >= 1, "need at least one shard");
        let mut dbs = Vec::with_capacity(shards);
        for i in 0..shards {
            let mut c = cfg.clone();
            if let Some(dir) = &cfg.log.dir {
                let d = dir.join(format!("shard-{i}"));
                std::fs::create_dir_all(&d)?;
                c.log.dir = Some(d);
            }
            dbs.push(Database::open(c)?);
        }
        Ok(ShardedDb::from_shards(dbs))
    }

    /// Wrap already-open per-shard handles (a plain database as one
    /// shard, or a replica's snapshot views) as one `ShardedDb`. Shard
    /// catalogs must be identical, as they are when every shard replayed
    /// the same DDL. Routing starts from shard 0's catalog on the
    /// default hash policy; a replica of a primary with explicit
    /// policies must install them with
    /// [`ShardedDb::refresh_routing_with`] (the shipped schema carries
    /// them), or reads of co-located keys would route to the wrong
    /// shard.
    pub fn from_shards(dbs: Vec<Database>) -> ShardedDb {
        assert!(!dbs.is_empty(), "need at least one shard");
        let routing = Routing::from_catalog(&dbs[0]);
        let inner = Arc::new(ShardedInner {
            dbs,
            routing: RwLock::new(Arc::new(routing)),
            routing_version: AtomicU64::new(1),
            in_doubt: AtomicU64::new(0),
            prepare_delay: prepare_delay_from_env(),
        });
        register_shard_collectors(&inner);
        ShardedDb { inner }
    }

    /// Rebuild the routing snapshot from shard 0's current catalog (all
    /// tables on the default hash policy) and force workers to re-read
    /// it. A replica calls this after replaying newly shipped DDL so
    /// reads route to tables created since the wrapper was built.
    pub fn refresh_routing(&self) {
        self.refresh_routing_with(&[], &[]);
    }

    /// [`ShardedDb::refresh_routing`] with explicit per-table policies
    /// and per-secondary-index routing rules layered on top of the
    /// catalog defaults. A replica passes the policies shipped with the
    /// primary's schema so its reads route exactly like the primary's.
    /// Out-of-range ids are ignored (a policy for a table whose DDL has
    /// not replayed yet applies on the next refresh).
    pub fn refresh_routing_with(
        &self,
        policies: &[(TableId, ShardPolicy)],
        secondaries: &[(IndexId, IndexRouting)],
    ) {
        let mut routing = Routing::from_catalog(&self.inner.dbs[0]);
        for &(table, policy) in policies {
            if let Some(slot) = routing.tables.get_mut(table.0 as usize) {
                *slot = policy;
            }
        }
        for &(index, rule) in secondaries {
            if let Some(slot @ IndexRoute::Secondary { .. }) =
                routing.indexes.get_mut(index.0 as usize)
            {
                *slot = IndexRoute::Secondary { routing: rule };
            }
        }
        *self.inner.routing.write() = Arc::new(routing);
        self.inner.routing_version.fetch_add(1, Relaxed);
    }

    /// The schema DDL (creation order, as [`Database::schema_ddl`]) with
    /// each entry's routing attached: the table's [`ShardPolicy`] for
    /// table entries, the [`IndexRouting`] for secondary entries. This
    /// is what ships to a replica, which must reproduce not only the
    /// dense ids but the routing that placed every key.
    pub fn schema_ddl_routed(&self) -> Vec<RoutedDdl> {
        let routing = self.inner.routing.read().clone();
        let db = &self.inner.dbs[0];
        let cat = db.inner.catalog.read();
        cat.indexes
            .iter()
            .enumerate()
            .map(|(i, ix)| {
                let entry = DdlEntry {
                    table: cat.tables[ix.table.0 as usize].name.clone(),
                    secondary: (!ix.is_primary).then(|| ix.name.clone()),
                };
                let route = if ix.is_primary {
                    routing
                        .tables
                        .get(ix.table.0 as usize)
                        .copied()
                        .unwrap_or_default()
                        .to_wire()
                } else {
                    match routing.indexes.get(i) {
                        Some(&IndexRoute::Secondary { routing }) => routing.to_wire(),
                        _ => IndexRouting::Probe.to_wire(),
                    }
                };
                RoutedDdl { entry, route_tag: route.0, route_arg: route.1 }
            })
            .collect()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.dbs.len()
    }

    /// Direct access to one shard's engine (tests, benchmarks, stats).
    pub fn shard(&self, i: usize) -> &Database {
        &self.inner.dbs[i]
    }

    /// Create a table on every shard with the default hash policy (or
    /// return the existing id). Ids are dense and identical across
    /// shards because all DDL goes through this namespace.
    pub fn create_table(&self, name: &str) -> TableId {
        self.create_table_inner(name, None)
    }

    /// Create a table with an explicit [`ShardPolicy`] (also updates the
    /// policy of an existing table).
    pub fn create_table_with_policy(&self, name: &str, policy: ShardPolicy) -> TableId {
        self.create_table_inner(name, Some(policy))
    }

    fn create_table_inner(&self, name: &str, policy: Option<ShardPolicy>) -> TableId {
        let inner = &self.inner;
        let mut ids = inner.dbs.iter().map(|d| d.create_table(name));
        let id = ids.next().expect("at least one shard");
        for other in ids {
            assert_eq!(other, id, "shard catalogs diverged for table {name:?}");
        }
        let primary = inner.dbs[0].primary_index(id);
        let mut guard = inner.routing.write();
        let mut routing = Routing {
            tables: guard.tables.clone(),
            indexes: guard.indexes.clone(),
        };
        let ti = id.0 as usize;
        if routing.tables.len() <= ti {
            routing.tables.resize(ti + 1, ShardPolicy::default());
        }
        if let Some(p) = policy {
            routing.tables[ti] = p;
        }
        let pi = primary.0 as usize;
        if routing.indexes.len() <= pi {
            routing.indexes.resize(pi + 1, IndexRoute::Primary(id));
        }
        routing.indexes[pi] = IndexRoute::Primary(id);
        *guard = Arc::new(routing);
        inner.routing_version.fetch_add(1, Relaxed);
        id
    }

    /// Create a secondary index on every shard with an explicit routing
    /// rule. Panics on [`ShardPolicy::Replicated`] tables: their OIDs
    /// differ per shard, so one secondary entry cannot name all copies.
    pub fn create_secondary_index(
        &self,
        table: TableId,
        name: &str,
        routing: IndexRouting,
    ) -> IndexId {
        let inner = &self.inner;
        assert!(
            inner.routing.read().tables.get(table.0 as usize).copied()
                != Some(ShardPolicy::Replicated),
            "replicated tables cannot carry secondary indexes"
        );
        let mut ids = inner.dbs.iter().map(|d| d.create_secondary_index(table, name));
        let id = ids.next().expect("at least one shard");
        for other in ids {
            assert_eq!(other, id, "shard catalogs diverged for index {name:?}");
        }
        let mut guard = inner.routing.write();
        let mut new = Routing {
            tables: guard.tables.clone(),
            indexes: guard.indexes.clone(),
        };
        let ii = id.0 as usize;
        if new.indexes.len() <= ii {
            new.indexes.resize(ii + 1, IndexRoute::Secondary { routing });
        }
        new.indexes[ii] = IndexRoute::Secondary { routing };
        *guard = Arc::new(new);
        inner.routing_version.fetch_add(1, Relaxed);
        id
    }

    /// Check out a worker holding one engine [`Worker`] per shard.
    pub fn register_worker(&self) -> ShardedWorker {
        let inner = &self.inner;
        let workers: Vec<Worker> = inner.dbs.iter().map(|d| d.register_worker()).collect();
        let db0 = &inner.dbs[0];
        // Present iff `cfg.telemetry`, exactly like the ring itself.
        let telemetry = workers[0].scratch.telemetry.as_ref().map(|t| WorkerTelemetry {
            slab: db0.telemetry().registry().register_slab(&TWOPC_FAMILY),
            ring: Arc::clone(&t.ring),
            sample_n: db0.inner.cfg.trace_sample_n,
            count: 0,
        });
        ShardedWorker {
            db: self.clone(),
            workers,
            routing: inner.routing.read().clone(),
            routing_version: inner.routing_version.load(Relaxed),
            telemetry,
        }
    }

    /// Number of tables (identical on every shard).
    pub fn table_count(&self) -> usize {
        self.inner.dbs[0].table_count()
    }

    /// Look up a table id by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.inner.dbs[0].table_id(name)
    }

    /// Look up an index id by name.
    pub fn index_id(&self, name: &str) -> Option<IndexId> {
        self.inner.dbs[0].index_id(name)
    }

    /// A table's primary index id (identical on every shard).
    pub fn primary_index(&self, table: TableId) -> IndexId {
        self.inner.dbs[0].primary_index(table)
    }

    /// Shard 0's telemetry layer — where the shard collectors, 2PC
    /// metric slabs and cross-shard flight events land.
    pub fn telemetry(&self) -> &ermia_telemetry::Telemetry {
        self.inner.dbs[0].telemetry()
    }

    /// Degraded if *any* shard is degraded: a cross-shard writer cannot
    /// make progress with one poisoned participant log.
    pub fn state(&self) -> DbState {
        if self.inner.dbs.iter().any(|d| d.state() == DbState::Degraded) {
            DbState::Degraded
        } else {
            DbState::Active
        }
    }

    /// Resume every shard from degraded read-only mode.
    pub fn resume(&self) -> io::Result<()> {
        for db in &self.inner.dbs {
            db.resume()?;
        }
        Ok(())
    }

    /// Summed (commits, aborts) across shards. A cross-shard commit
    /// counts once per participant, which is what per-shard throughput
    /// accounting wants.
    pub fn txn_counts(&self) -> (u64, u64) {
        let mut c = 0;
        let mut a = 0;
        for db in &self.inner.dbs {
            let (dc, da) = db.txn_counts();
            c += dc;
            a += da;
        }
        (c, a)
    }

    /// Summed in-flight TID slots across shards.
    pub fn tid_slots_in_use(&self) -> usize {
        self.inner.dbs.iter().map(|d| d.tid_slots_in_use()).sum()
    }

    /// The *minimum* durable offset across shards — the conservative
    /// answer to "is everything up to my offset durable" for callers
    /// that only track one number.
    pub fn log_durable_offset(&self) -> u64 {
        self.inner.dbs.iter().map(|d| d.log().durable_offset()).min().unwrap_or(0)
    }

    /// This node's replication role (shard 0 speaks for all: a replica
    /// marks every shard).
    pub fn role(&self) -> NodeRole {
        self.inner.dbs[0].role()
    }

    /// The *minimum* applied offset across shards (0 on a primary) —
    /// the conservative catch-up point for lag reporting.
    pub fn applied_lsn(&self) -> u64 {
        self.inner.dbs.iter().map(|d| d.applied_lsn()).min().unwrap_or(0)
    }

    /// Checkpoint every shard; returns the per-shard begin LSNs.
    pub fn checkpoint(&self) -> io::Result<Vec<Lsn>> {
        self.inner.dbs.iter().map(|d| d.checkpoint()).collect()
    }

    /// Truncate every shard's log below its checkpoint; returns the
    /// total number of retired segments.
    pub fn truncate_log(&self) -> io::Result<usize> {
        let mut n = 0;
        for db in &self.inner.dbs {
            n += db.truncate_log()?;
        }
        Ok(n)
    }

    /// Recover every shard and resolve cross-shard in-doubt prepares:
    /// per shard, install the latest checkpoint and replay the log; then
    /// [`resolve_in_doubt`](crate::resolve_in_doubt) commits each
    /// prepare some shard's log holds a commit decide for; the rest were
    /// never decided and are presumed aborted.
    pub fn recover(&self) -> io::Result<ShardRecoveryStats> {
        let (per_shard, resolved_commits) = recover_shards(&self.inner.dbs)?;
        let in_doubt: u64 = per_shard.iter().map(|s| s.in_doubt).sum();
        let resolved_aborts = in_doubt - resolved_commits;
        Ok(ShardRecoveryStats { per_shard, resolved_commits, resolved_aborts })
    }
}

/// What [`ShardedDb::recover`] did.
#[derive(Debug)]
pub struct ShardRecoveryStats {
    /// Per-shard replay stats, in shard order.
    pub per_shard: Vec<RecoveryStats>,
    /// In-doubt prepares rolled forward (a commit decide was found).
    pub resolved_commits: u64,
    /// In-doubt prepares dropped (no commit verdict in any shard's log:
    /// presumed abort).
    pub resolved_aborts: u64,
}

/// Register the shard-level collector on shard 0's registry: shard
/// count, per-shard transaction counters, and the in-doubt gauge. The
/// closure holds a `Weak` so the registry never keeps the sharded
/// wrapper alive.
fn register_shard_collectors(inner: &Arc<ShardedInner>) {
    let registry = inner.dbs[0].telemetry().registry();
    let group = registry.group();
    let weak: Weak<ShardedInner> = Arc::downgrade(inner);
    registry.register_collector(group, move |out| {
        let Some(sd) = weak.upgrade() else { return };
        out.push(Sample::gauge("ermia_shard_count", "Engine shards", sd.dbs.len() as f64));
        out.push(Sample::gauge(
            "ermia_shard_in_doubt",
            "Cross-shard transactions prepared but not yet decided",
            sd.in_doubt.load(Relaxed) as f64,
        ));
        for (i, db) in sd.dbs.iter().enumerate() {
            let (c, a) = db.txn_counts();
            out.push(
                Sample::counter(
                    "ermia_shard_txns_total",
                    "Transactions finished per shard (commits + aborts)",
                    c + a,
                )
                .labeled("shard", i.to_string()),
            );
        }
    });
}

// --- Decide records -----------------------------------------------------

/// Append a TxnDecide block to `db`'s log. Returns the block's
/// exclusive end offset for durability waiting.
fn write_decide(db: &Database, rec: DecideRecord) -> io::Result<u64> {
    let block = rec.encode_block();
    let res = db.inner.log.allocate(block.len())?;
    let end = res.end_offset();
    res.fill(&block);
    Ok(end)
}

// --- ShardedWorker ------------------------------------------------------

/// One engine [`Worker`] per shard plus a cached routing snapshot.
pub struct ShardedWorker {
    db: ShardedDb,
    workers: Vec<Worker>,
    routing: Arc<Routing>,
    routing_version: u64,
    telemetry: Option<WorkerTelemetry>,
}

impl ShardedWorker {
    /// Begin a transaction. Inner per-shard transactions start lazily
    /// on first touch, so a transaction that stays on one shard costs
    /// exactly one engine begin.
    pub fn begin(&mut self, isolation: IsolationLevel) -> ShardedTransaction<'_> {
        self.begin_traced(isolation, None)
    }

    /// [`ShardedWorker::begin`] with an explicit wire-propagated trace
    /// context. `None` (or an untraced context) falls back to head
    /// sampling: with `DbConfig::trace_sample_n = N`, every Nth begin
    /// on this worker mints a fresh trace id. An untraced transaction's
    /// whole tracing cost is the `Option` branch per operation.
    pub fn begin_traced(
        &mut self,
        isolation: IsolationLevel,
        ctx: Option<TraceContext>,
    ) -> ShardedTransaction<'_> {
        let v = self.db.inner.routing_version.load(Relaxed);
        if v != self.routing_version {
            self.routing = self.db.inner.routing.read().clone();
            self.routing_version = v;
        }
        // Resolve the active context before splitting the borrows: wire
        // context wins; otherwise head sampling every Nth begin.
        let active = match &mut self.telemetry {
            Some(t) => match ctx {
                Some(c) if c.is_traced() => Some((c, false)),
                _ if t.sample_n != 0 => {
                    t.count += 1;
                    if t.count >= t.sample_n {
                        t.count = 0;
                        let (hi, lo) = self.db.inner.dbs[0].telemetry().tracer().new_trace_id();
                        Some((TraceContext { trace_hi: hi, trace_lo: lo, parent: 0 }, true))
                    } else {
                        None
                    }
                }
                _ => None,
            },
            None => None,
        };
        let ShardedWorker { db, workers, routing, telemetry, .. } = self;
        let trace = active.and_then(|(ctx, sampled)| {
            telemetry.as_ref().map(|t| ActiveTrace {
                ctx,
                ring: &t.ring,
                start_ns: t.ring.now_ns(),
                sampled,
            })
        });
        let slots = if workers.len() == 1 {
            Slots::One(TxSlot::Idle(&mut workers[0]))
        } else {
            Slots::Many(workers.iter_mut().map(TxSlot::Idle).collect())
        };
        ShardedTransaction {
            db: &*db,
            routing,
            telemetry: telemetry.as_ref(),
            isolation,
            slots,
            trace,
        }
    }

    /// This worker's ring, if telemetry is on. The server threads
    /// wire-traced request spans through here so they land next to the
    /// engine spans of the same worker.
    pub fn span_ring(&self) -> Option<&Arc<Ring>> {
        self.telemetry.as_ref().map(|t| &t.ring)
    }
}

impl Drop for ShardedWorker {
    fn drop(&mut self) {
        // The ring is the shard-0 engine worker's; it retires with it.
        if let Some(t) = self.telemetry.take() {
            let tel = self.db.inner.dbs[0].telemetry();
            tel.registry().retire_slab(&TWOPC_FAMILY, &t.slab);
        }
    }
}

// --- ShardedTransaction -------------------------------------------------

enum TxSlot<'w> {
    Idle(&'w mut Worker),
    Active(Transaction<'w>),
    /// Transient state while a slot is being activated.
    Busy,
}

enum Slots<'w> {
    /// `S == 1`: no allocation, no routing.
    One(TxSlot<'w>),
    Many(Vec<TxSlot<'w>>),
}

impl<'w> Slots<'w> {
    fn get_mut(&mut self, i: usize) -> &mut TxSlot<'w> {
        match self {
            Slots::One(s) => {
                debug_assert_eq!(i, 0);
                s
            }
            Slots::Many(v) => &mut v[i],
        }
    }

    fn into_vec(self) -> Vec<TxSlot<'w>> {
        match self {
            Slots::One(s) => vec![s],
            Slots::Many(v) => v,
        }
    }
}

/// A transaction over the sharded namespace. Routes each operation to
/// the owning shard's inner [`Transaction`]; commit runs the inner
/// commit directly (one participant) or 2PC (several writers).
pub struct ShardedTransaction<'w> {
    db: &'w ShardedDb,
    routing: &'w Routing,
    telemetry: Option<&'w WorkerTelemetry>,
    isolation: IsolationLevel,
    slots: Slots<'w>,
    trace: Option<ActiveTrace<'w>>,
}

/// Tracing state of one *traced* transaction: the propagated context,
/// the owning worker's span ring, and the begin timestamp the tail-based
/// slow-op check measures against.
#[derive(Clone, Copy)]
struct ActiveTrace<'w> {
    ctx: TraceContext,
    ring: &'w Ring,
    start_ns: u64,
    /// Engine-sampled (head sampling) rather than wire-propagated: the
    /// engine owns slow-op capture at commit. Wire-traced ops are
    /// captured by the server at request completion instead, with the
    /// opcode/table/key attribution only that layer has.
    sampled: bool,
}

/// What [`ShardedTransaction::into_active`] destructures into: the
/// engine, the optional worker telemetry and trace, and the live
/// participants as (shard, transaction) pairs.
type ActiveParts<'w> = (
    &'w ShardedDb,
    Option<&'w WorkerTelemetry>,
    Option<ActiveTrace<'w>>,
    Vec<(usize, Transaction<'w>)>,
);

/// Pack a (shard, oid) pair into the opaque row handle inserts return.
fn pack_handle(shard: usize, oid: Oid) -> u64 {
    ((shard as u64) << 32) | oid.0 as u64
}

fn unpack_handle(handle: u64) -> (usize, Oid) {
    ((handle >> 32) as usize, Oid(handle as u32))
}

impl<'w> ShardedTransaction<'w> {
    fn nshards(&self) -> usize {
        self.db.inner.dbs.len()
    }

    /// The wire context this transaction runs under, if traced.
    pub fn trace_ctx(&self) -> Option<TraceContext> {
        self.trace.as_ref().map(|t| t.ctx)
    }

    /// Tracing hook: `(ring, ctx, now_ns)` for a traced transaction,
    /// `None` (one branch, nothing else) otherwise. The returned
    /// borrows are free of `self`, so callers can record after a
    /// `&mut self` operation.
    #[inline]
    fn span_start(&self) -> Option<(&'w Ring, TraceContext, u64)> {
        self.trace.as_ref().map(|t| (t.ring, t.ctx, t.ring.now_ns()))
    }

    /// The inner transaction on `shard`, started on first touch.
    fn txn_at(&mut self, shard: usize) -> &mut Transaction<'w> {
        let iso = self.isolation;
        let sp = self.span_start();
        let slot = self.slots.get_mut(shard);
        if matches!(slot, TxSlot::Idle(_)) {
            let TxSlot::Idle(w) = std::mem::replace(slot, TxSlot::Busy) else {
                unreachable!()
            };
            *slot = TxSlot::Active(Transaction::begin(w, iso));
            if let Some((ring, ctx, t0)) = sp {
                ring.record(&ctx, SpanKind::TxnBegin, t0, ring.now_ns(), shard as u64, 0);
            }
        }
        match slot {
            TxSlot::Active(t) => t,
            _ => unreachable!("slot is never left busy"),
        }
    }

    fn table_policy(&self, table: TableId) -> ShardPolicy {
        self.routing.tables.get(table.0 as usize).copied().unwrap_or_default()
    }

    /// Owning shard for a primary-key operation; `None` = replicated.
    fn home_shard(&self, table: TableId, key: &[u8]) -> Option<usize> {
        let n = self.nshards();
        if n == 1 {
            return Some(0);
        }
        Routing::hash_shard(self.table_policy(table), key, n)
    }

    /// Read a record by primary key.
    pub fn read<R>(
        &mut self,
        table: TableId,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> OpResult<Option<R>> {
        // Replicated reads anchor on shard 0.
        let shard = self.home_shard(table, key).unwrap_or(0);
        let sp = self.span_start();
        let r = self.txn_at(shard).read(table, key, f);
        if let Some((ring, ctx, t0)) = sp {
            ring.record(&ctx, SpanKind::TxnRead, t0, ring.now_ns(), table.0 as u64, shard as u64);
        }
        r
    }

    /// Tracing hook for write-path ops: one `TxnWrite` span per call.
    #[inline]
    fn record_write_span(
        &self,
        sp: Option<(&'w Ring, TraceContext, u64)>,
        table: TableId,
        shard: Option<usize>,
    ) {
        if let Some((ring, ctx, t0)) = sp {
            let b = shard.map(|s| s as u64).unwrap_or(u64::MAX);
            ring.record(&ctx, SpanKind::TxnWrite, t0, ring.now_ns(), table.0 as u64, b);
        }
    }

    /// Update a record; fans out on replicated tables.
    pub fn update(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<bool> {
        let sp = self.span_start();
        let home = self.home_shard(table, key);
        let r = match home {
            Some(s) => self.txn_at(s).update(table, key, value),
            None => {
                let mut hit = false;
                for s in 0..self.nshards() {
                    let r = self.txn_at(s).update(table, key, value)?;
                    if s == 0 {
                        hit = r;
                    }
                }
                Ok(hit)
            }
        };
        self.record_write_span(sp, table, home);
        r
    }

    /// Delete a record; fans out on replicated tables.
    pub fn delete(&mut self, table: TableId, key: &[u8]) -> OpResult<bool> {
        let sp = self.span_start();
        let home = self.home_shard(table, key);
        let r = match home {
            Some(s) => self.txn_at(s).delete(table, key),
            None => {
                let mut hit = false;
                for s in 0..self.nshards() {
                    let r = self.txn_at(s).delete(table, key)?;
                    if s == 0 {
                        hit = r;
                    }
                }
                Ok(hit)
            }
        };
        self.record_write_span(sp, table, home);
        r
    }

    /// Insert a record. Returns an opaque handle (shard + OID) for
    /// [`ShardedTransaction::insert_secondary`].
    pub fn insert(&mut self, table: TableId, key: &[u8], value: &[u8]) -> OpResult<u64> {
        let sp = self.span_start();
        let home = self.home_shard(table, key);
        let r = match home {
            Some(s) => {
                let oid = self.txn_at(s).insert(table, key, value)?;
                Ok(pack_handle(s, oid))
            }
            None => {
                let mut handle = 0;
                for s in 0..self.nshards() {
                    let oid = self.txn_at(s).insert(table, key, value)?;
                    if s == 0 {
                        handle = pack_handle(0, oid);
                    }
                }
                Ok(handle)
            }
        };
        self.record_write_span(sp, table, home);
        r
    }

    /// Register a secondary-index entry for a row inserted in this
    /// transaction. The handle names the owning shard, so the entry
    /// lands next to the row.
    pub fn insert_secondary(&mut self, index: IndexId, key: &[u8], handle: u64) -> OpResult<()> {
        let (shard, oid) = unpack_handle(handle);
        self.txn_at(shard).insert_secondary(index, key, oid)
    }

    /// Read through a secondary index. `OwnerPrefix` keys route
    /// directly; `Probe` keys search shards in order.
    pub fn read_secondary<R>(
        &mut self,
        index: IndexId,
        key: &[u8],
        f: impl FnOnce(&[u8]) -> R,
    ) -> OpResult<Option<R>> {
        let n = self.nshards();
        if n == 1 {
            return self.txn_at(0).read_secondary(index, key, f);
        }
        match self.routing.indexes.get(index.0 as usize).copied() {
            Some(IndexRoute::Primary(table)) => {
                let shard = self.home_shard(table, key).unwrap_or(0);
                self.txn_at(shard).read_secondary(index, key, f)
            }
            Some(IndexRoute::Secondary { routing: IndexRouting::OwnerPrefix(len) }) => {
                let routed = &key[..len.min(key.len())];
                let shard = shard_of_key(routed, n);
                self.txn_at(shard).read_secondary(index, key, f)
            }
            Some(IndexRoute::Secondary { routing: IndexRouting::Probe }) | None => {
                for s in 0..n {
                    if let Some(bytes) =
                        self.txn_at(s).read_secondary(index, key, |v| v.to_vec())?
                    {
                        return Ok(Some(f(&bytes)));
                    }
                }
                Ok(None)
            }
        }
    }

    /// Which single shard serves a `[low, high]` scan, if any. Sound
    /// because byte-wise order means every key in the range shares any
    /// prefix `low` and `high` agree on.
    fn scan_shard(&self, index: IndexId, low: &[u8], high: &[u8]) -> Option<usize> {
        let n = self.nshards();
        if n == 1 {
            return Some(0);
        }
        let prefix_route = |p: usize| -> Option<usize> {
            (low.len() >= p && high.len() >= p && low[..p] == high[..p])
                .then(|| shard_of_key(&low[..p], n))
        };
        match self.routing.indexes.get(index.0 as usize).copied() {
            Some(IndexRoute::Primary(table)) => match self.table_policy(table) {
                ShardPolicy::Replicated => Some(0),
                ShardPolicy::Hash { prefix: Some(p) } => prefix_route(p),
                ShardPolicy::Hash { prefix: None } => {
                    (low == high).then(|| shard_of_key(low, n))
                }
            },
            Some(IndexRoute::Secondary { routing: IndexRouting::OwnerPrefix(p) }) => {
                prefix_route(p)
            }
            Some(IndexRoute::Secondary { routing: IndexRouting::Probe }) | None => None,
        }
    }

    /// Range scan, ascending, both bounds inclusive. Single-shard when
    /// the routed prefix pins the range; otherwise every shard is
    /// scanned and results are merged in key order.
    pub fn scan(
        &mut self,
        index: IndexId,
        low: &[u8],
        high: &[u8],
        limit: Option<usize>,
        mut f: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> OpResult<usize> {
        let sp = self.span_start();
        if let Some(s) = self.scan_shard(index, low, high) {
            let r = self.txn_at(s).scan(index, low, high, limit, f);
            if let (Some((ring, ctx, t0)), Ok(n)) = (sp, &r) {
                ring.record(&ctx, SpanKind::TxnScan, t0, ring.now_ns(), index.0 as u64, *n as u64);
            }
            return r;
        }
        let mut rows: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for s in 0..self.nshards() {
            self.txn_at(s).scan(index, low, high, limit, |k, v| {
                rows.push((k.to_vec(), v.to_vec()));
                true
            })?;
        }
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        let mut delivered = 0usize;
        for (k, v) in &rows {
            if limit.is_some_and(|l| delivered >= l) {
                break;
            }
            delivered += 1;
            if !f(k, v) {
                break;
            }
        }
        if let Some((ring, ctx, t0)) = sp {
            ring.record(
                &ctx,
                SpanKind::TxnScan,
                t0,
                ring.now_ns(),
                index.0 as u64,
                delivered as u64,
            );
        }
        Ok(delivered)
    }

    /// Whether any participant has been doomed.
    pub fn is_doomed(&self) -> bool {
        let check = |s: &TxSlot<'_>| matches!(s, TxSlot::Active(t) if t.is_doomed());
        match &self.slots {
            Slots::One(s) => check(s),
            Slots::Many(v) => v.iter().any(check),
        }
    }

    /// Abort every participant.
    pub fn abort(self) {
        for slot in self.slots.into_vec() {
            if let TxSlot::Active(t) = slot {
                t.abort();
            }
        }
    }

    fn into_active(self) -> ActiveParts<'w> {
        let ShardedTransaction { db, telemetry, trace, slots, .. } = self;
        let mut active = Vec::new();
        for (i, slot) in slots.into_vec().into_iter().enumerate() {
            if let TxSlot::Active(t) = slot {
                active.push((i, t));
            }
        }
        (db, telemetry, trace, active)
    }

    /// Commit and wait for durability (on a synchronous-commit
    /// database). Returns the commit LSN — the coordinator's cstamp for
    /// a cross-shard transaction.
    pub fn commit(self) -> TxResult<Lsn> {
        self.finish(true).map(|tok| tok.lsn())
    }

    /// Commit without waiting for durability; the returned token names
    /// the shard whose log backs the commit. Cross-shard transactions
    /// always wait for prepare + decide durability internally (the
    /// decide record *is* the commit), so their token is trivially
    /// durable.
    pub fn commit_deferred(self) -> TxResult<ShardedCommitToken> {
        self.finish(false)
    }

    /// Shared body of [`ShardedTransaction::commit`] (`sync`) and
    /// [`ShardedTransaction::commit_deferred`].
    #[inline]
    fn finish(self, sync: bool) -> TxResult<ShardedCommitToken> {
        // Fast path: one shard, one active transaction — the inner
        // commit plus span recording when traced, with no slot Vec
        // materialized. Sampled commits must stay on the allocation-free
        // path (see tests/alloc_free.rs).
        if let ShardedTransaction { slots: Slots::One(TxSlot::Active(_)), .. } = &self {
            let ShardedTransaction { db, trace, slots, .. } = self;
            let Slots::One(TxSlot::Active(t)) = slots else { unreachable!("matched above") };
            return commit_one(db, trace, 0, t, sync);
        }
        let (db, telemetry, trace, active) = self.into_active();
        commit_active(db, telemetry, trace, active, sync)
    }
}

/// Commit token carrying the backing shard.
#[derive(Clone, Copy, Debug)]
pub struct ShardedCommitToken {
    shard: u32,
    token: CommitToken,
}

impl ShardedCommitToken {
    /// The commit timestamp (on the backing shard's timeline).
    pub fn lsn(&self) -> Lsn {
        self.token.lsn()
    }

    /// The shard whose log durability backs this commit.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The commit block's end offset in the backing shard's log, or
    /// `None` when trivially durable.
    pub fn end_offset(&self) -> Option<u64> {
        self.token.end_offset()
    }

    /// Block until the commit is durable (or `timeout` expires).
    pub fn wait_durable(
        &self,
        db: &ShardedDb,
        timeout: Duration,
    ) -> Result<(), ermia_common::LogError> {
        self.token.wait_durable(&db.inner.dbs[self.shard as usize], timeout)
    }

    /// Probe durability without blocking (see
    /// [`ermia_log::LogManager::probe_durable`]).
    pub fn probe_durable(&self, db: &ShardedDb) -> Durability {
        let log = db.inner.dbs[self.shard as usize].log();
        self.end_offset().map_or(Durability::Durable, |end| log.probe_durable(end))
    }

    /// Have `waker` fire once the commit is durable or the backing log
    /// poisons (see [`ermia_log::LogManager::register_wake`]); `None`
    /// when the commit is trivially durable.
    pub fn register_wake(&self, db: &ShardedDb, waker: &Waker) -> Option<WakeKey> {
        let log = db.inner.dbs[self.shard as usize].log();
        self.end_offset().map(|end| log.register_wake(end, waker))
    }

    /// Withdraw a [`Self::register_wake`] registration.
    pub fn deregister_wake(&self, db: &ShardedDb, key: WakeKey) {
        db.inner.dbs[self.shard as usize].log().deregister_wake(key);
    }
}

/// Shared commit tail for [`ShardedTransaction::commit`] (sync) and
/// [`ShardedTransaction::commit_deferred`].
fn commit_active<'w>(
    db: &ShardedDb,
    telemetry: Option<&WorkerTelemetry>,
    trace: Option<ActiveTrace<'_>>,
    active: Vec<(usize, Transaction<'w>)>,
    sync: bool,
) -> TxResult<ShardedCommitToken> {
    let mut readonly: Vec<(usize, Transaction<'w>)> = Vec::new();
    let mut writers: Vec<(usize, Transaction<'w>)> = Vec::new();
    for (i, t) in active {
        if t.has_writes() {
            writers.push((i, t));
        } else {
            readonly.push((i, t));
        }
    }
    // Read-only participants first: they publish nothing, so a failure
    // here (doomed by SSN read validation) can still abort the writers.
    let mut ro_token: Option<ShardedCommitToken> = None;
    let mut readonly = readonly.into_iter();
    while let Some((i, t)) = readonly.next() {
        match t.commit_deferred() {
            Ok(tok) => ro_token = Some(ShardedCommitToken { shard: i as u32, token: tok }),
            Err(r) => {
                for (_, t) in readonly {
                    t.abort();
                }
                for (_, t) in writers {
                    t.abort();
                }
                return Err(r);
            }
        }
    }
    let result = match writers.len() {
        0 => Ok(ro_token.unwrap_or(ShardedCommitToken {
            shard: 0,
            token: CommitToken::readonly_at(db.inner.dbs[0].now_lsn()),
        })),
        1 => {
            let (i, t) = writers.pop().expect("len checked");
            // `commit_one` records the span and runs tail capture
            // itself; return directly so the capture below cannot
            // double-fire.
            return commit_one(db, trace, i, t, sync);
        }
        _ => two_pc(db, telemetry, trace, writers),
    };
    capture_if_slow(db, trace);
    result
}

/// Tail-based capture for engine-sampled traces: the server owns it for
/// wire-traced requests (it knows the opcode and key).
#[inline]
fn capture_if_slow(db: &ShardedDb, trace: Option<ActiveTrace<'_>>) {
    if let Some(tr) = trace.filter(|tr| tr.sampled) {
        let total = tr.ring.now_ns().saturating_sub(tr.start_ns);
        db.telemetry().tracer().maybe_capture_slow(&tr.ctx, "txn", 0, &[], total);
    }
}

/// Commit a single participant `t` on shard `i`: the inner commit plus
/// the durability/commit span and the engine-sampled tail capture.
/// Deliberately Vec-free — sampled single-shard commits ride the
/// allocation-free hot path (tests/alloc_free.rs asserts this).
fn commit_one(
    db: &ShardedDb,
    trace: Option<ActiveTrace<'_>>,
    i: usize,
    t: Transaction<'_>,
    sync: bool,
) -> TxResult<ShardedCommitToken> {
    let sp = trace.map(|tr| (tr, tr.ring.now_ns()));
    let token = if sync {
        // For a sync commit the inner call is dominated by the
        // group-commit wait, which is what the span names.
        let lsn = t.commit()?;
        if let Some((tr, t0)) = sp {
            tr.ring.record(&tr.ctx, SpanKind::DurabilityWait, t0, tr.ring.now_ns(), i as u64, 0);
        }
        CommitToken::readonly_at(lsn)
    } else {
        let tok = t.commit_deferred()?;
        if let Some((tr, t0)) = sp {
            tr.ring.record(&tr.ctx, SpanKind::CommitDeferred, t0, tr.ring.now_ns(), i as u64, 0);
        }
        tok
    };
    capture_if_slow(db, trace);
    Ok(ShardedCommitToken { shard: i as u32, token })
}

/// Decrements the in-doubt gauge when the 2PC window closes, on every
/// exit path.
struct InDoubtGuard<'a>(&'a AtomicU64);

impl Drop for InDoubtGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Relaxed);
    }
}

/// Two-phase commit across ≥2 writer shards. See the module docs for
/// the protocol; every durability wait happens before any in-memory
/// publish, so the decide record is the single commit point.
fn two_pc<'w>(
    db: &ShardedDb,
    telemetry: Option<&WorkerTelemetry>,
    trace: Option<ActiveTrace<'_>>,
    writers: Vec<(usize, Transaction<'w>)>,
) -> TxResult<ShardedCommitToken> {
    let inner = &*db.inner;
    inner.in_doubt.fetch_add(1, Relaxed);
    let _guard = InDoubtGuard(&inner.in_doubt);
    let prepare_start = Instant::now();
    // The trace id rides inside each participant's durable prepare
    // marker, so a replica (or recovery) applying the shipped log can
    // stitch its apply spans to this transaction.
    let (trace_hi, trace_lo) =
        trace.map(|t| (t.ctx.trace_hi, t.ctx.trace_lo)).unwrap_or((0, 0));
    let span = |kind: SpanKind, t0: u64, a: u64, b: u64| {
        if let Some(tr) = trace {
            tr.ring.record(&tr.ctx, kind, t0, tr.ring.now_ns(), a, b);
        }
    };
    let now = || trace.map(|tr| tr.ring.now_ns()).unwrap_or(0);

    // Phase 1: prepare, coordinator (lowest writer shard) first — its
    // prepare cstamp is the global transaction id.
    let mut rest = writers.into_iter();
    let (coord, ct) = rest.next().expect("two_pc needs writers");
    let t0 = now();
    let cp = match ct.prepare(PrepareMarker {
        coord_shard: coord as u32,
        coord_lsn: PrepareMarker::COORD_SELF,
        trace_hi,
        trace_lo,
    }) {
        Ok(p) => p,
        Err(r) => {
            for (_, t) in rest {
                t.abort();
            }
            return Err(r);
        }
    };
    let gtid_lsn = cp.cstamp().raw();
    span(SpanKind::TwoPcPrepare, t0, coord as u64, gtid_lsn);
    let mut prepared: Vec<(usize, PreparedTransaction<'w>)> = vec![(coord, cp)];
    loop {
        let Some((i, t)) = rest.next() else { break };
        let t0 = now();
        match t.prepare(PrepareMarker {
            coord_shard: coord as u32,
            coord_lsn: gtid_lsn,
            trace_hi,
            trace_lo,
        }) {
            Ok(p) => {
                span(SpanKind::TwoPcPrepare, t0, i as u64, p.cstamp().raw());
                prepared.push((i, p));
            }
            Err(r) => {
                for (_, p) in prepared {
                    p.abort();
                }
                for (_, t) in rest {
                    t.abort();
                }
                return Err(r);
            }
        }
    }
    if let Some(t) = telemetry {
        for (i, p) in &prepared {
            t.ring.event(EventKind::TwoPcPrepare, *i as u64, p.cstamp().raw());
        }
    }

    // All prepares must be durable before the decide may exist: a
    // durable decide with a lost prepare would commit a partial
    // transaction at recovery.
    for (i, p) in &prepared {
        let t0 = now();
        if inner.dbs[*i].inner.log.wait_durable(p.end_offset()).is_err() {
            for (_, p) in prepared {
                p.abort();
            }
            return Err(AbortReason::LogFailure);
        }
        span(SpanKind::DurabilityWait, t0, *i as u64, 0);
    }
    if let Some(t) = telemetry {
        t.slab.hist(TWOPC_PREPARE_HIST).record(prepare_start.elapsed().as_nanos() as u64);
    }
    if !inner.prepare_delay.is_zero() {
        std::thread::sleep(inner.prepare_delay);
    }

    // Phase 2: the decide record on the coordinator's log is the commit
    // point.
    let decide_start = Instant::now();
    let decide_t0 = now();
    let rec = DecideRecord { gtid_lsn, coord_shard: coord as u32, commit: true };
    let decide_ok = match write_decide(&inner.dbs[coord], rec) {
        Ok(end) => inner.dbs[coord].inner.log.wait_durable(end).is_ok(),
        Err(_) => false,
    };
    if !decide_ok {
        // The decide may or may not reach disk; either way the outcome
        // is atomic — recovery commits all participants iff it finds
        // the decide. In memory we must pick one answer now, and
        // without a durable decide that answer is abort.
        for (_, p) in prepared {
            p.abort();
        }
        return Err(AbortReason::LogFailure);
    }
    span(SpanKind::TwoPcDecide, decide_t0, gtid_lsn, 0);
    if let Some(t) = telemetry {
        t.slab.hist(TWOPC_DECIDE_HIST).record(decide_start.elapsed().as_nanos() as u64);
        t.slab.add(TWOPC_CROSS, 1);
        t.ring.event(EventKind::TwoPcDecide, gtid_lsn, 1);
    }

    // Finalize: publish every participant in memory, then drop
    // best-effort decide copies on the other writers' logs so their
    // standalone recovery resolves without consulting the coordinator.
    let fin_t0 = now();
    let nparticipants = prepared.len() as u64;
    let mut coord_token = None;
    let mut others: Vec<usize> = Vec::with_capacity(prepared.len() - 1);
    for (i, p) in prepared {
        let tok = p.finish_commit();
        if i == coord {
            coord_token = Some(tok);
        } else {
            others.push(i);
        }
    }
    for i in others {
        let _ = write_decide(&inner.dbs[i], rec);
    }
    span(SpanKind::TwoPcFinalize, fin_t0, nparticipants, 0);
    Ok(ShardedCommitToken {
        shard: coord as u32,
        token: coord_token.expect("coordinator is in prepared"),
    })
}

// --- ShardedWorkerPool --------------------------------------------------

struct ShardedPoolInner {
    db: ShardedDb,
    capacity: usize,
    idle: Mutex<Vec<ShardedWorker>>,
    created: std::sync::atomic::AtomicUsize,
    outstanding: std::sync::atomic::AtomicUsize,
    returned: Condvar,
}

/// A bounded pool of [`ShardedWorker`]s, checked out per transaction
/// (the server's worker pool). One pooled unit holds a worker on
/// *every* shard, so `capacity` bounds total engine concurrency no
/// matter how sessions spread across shards: admission control stays a
/// single global bound.
#[derive(Clone)]
pub struct ShardedWorkerPool {
    inner: Arc<ShardedPoolInner>,
}

impl ShardedWorkerPool {
    /// Create a pool of at most `capacity` sharded workers. Workers are
    /// created on first use, not up front.
    pub fn new(db: &ShardedDb, capacity: usize) -> ShardedWorkerPool {
        assert!(capacity > 0, "worker pool needs capacity >= 1");
        ShardedWorkerPool {
            inner: Arc::new(ShardedPoolInner {
                db: db.clone(),
                capacity,
                idle: Mutex::new(Vec::with_capacity(capacity)),
                created: std::sync::atomic::AtomicUsize::new(0),
                outstanding: std::sync::atomic::AtomicUsize::new(0),
                returned: Condvar::new(),
            }),
        }
    }

    /// Check out a worker if one is idle or capacity remains; `None`
    /// when the pool is exhausted. Never blocks.
    pub fn try_checkout(&self) -> Option<PooledShardedWorker> {
        let inner = &self.inner;
        let mut idle = inner.idle.lock();
        if let Some(w) = idle.pop() {
            drop(idle);
            inner.outstanding.fetch_add(1, Relaxed);
            return Some(PooledShardedWorker { worker: Some(w), pool: Arc::clone(inner) });
        }
        // `created` is only bumped under the idle lock, so the capacity
        // check cannot race.
        if inner.created.load(Relaxed) < inner.capacity {
            inner.created.fetch_add(1, Relaxed);
            drop(idle);
            let w = inner.db.register_worker();
            inner.outstanding.fetch_add(1, Relaxed);
            return Some(PooledShardedWorker { worker: Some(w), pool: Arc::clone(inner) });
        }
        None
    }

    /// Check out a worker, waiting up to `timeout` for one to return.
    pub fn checkout_timeout(&self, timeout: Duration) -> Option<PooledShardedWorker> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(w) = self.try_checkout() {
                return Some(w);
            }
            let mut idle = self.inner.idle.lock();
            if !idle.is_empty() {
                continue; // a return won the race; retry the fast path
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            if self.inner.returned.wait_for(&mut idle, left).timed_out() {
                drop(idle);
                return self.try_checkout();
            }
        }
    }

    /// Pool capacity (the bound).
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Workers currently checked out.
    pub fn outstanding(&self) -> usize {
        self.inner.outstanding.load(Relaxed)
    }

    /// Workers parked in the pool right now.
    pub fn idle(&self) -> usize {
        self.inner.idle.lock().len()
    }

    /// Workers created so far (≤ capacity).
    pub fn created(&self) -> usize {
        self.inner.created.load(Relaxed)
    }
}

/// A checked-out [`ShardedWorker`]; derefs to it and returns it on drop
/// (including on unwind, so a panicking session cannot leak one).
pub struct PooledShardedWorker {
    worker: Option<ShardedWorker>,
    pool: Arc<ShardedPoolInner>,
}

impl std::ops::Deref for PooledShardedWorker {
    type Target = ShardedWorker;

    fn deref(&self) -> &ShardedWorker {
        self.worker.as_ref().expect("present until drop")
    }
}

impl std::ops::DerefMut for PooledShardedWorker {
    fn deref_mut(&mut self) -> &mut ShardedWorker {
        self.worker.as_mut().expect("present until drop")
    }
}

impl Drop for PooledShardedWorker {
    fn drop(&mut self) {
        let w = self.worker.take().expect("returned exactly once");
        self.pool.idle.lock().push(w);
        self.pool.outstanding.fetch_sub(1, Relaxed);
        self.pool.returned.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{resolve_in_doubt, LogApplier};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir()
            .join(format!("ermia-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Two keys guaranteed to land on different shards.
    fn cross_pair(shards: usize) -> (Vec<u8>, Vec<u8>) {
        let a = b"pair-a".to_vec();
        let home = shard_of_key(&a, shards);
        for i in 0..10_000u32 {
            let b = format!("pair-b-{i}").into_bytes();
            if shard_of_key(&b, shards) != home {
                return (a, b);
            }
        }
        panic!("no cross-shard key found");
    }

    #[test]
    fn shard_of_key_disperses_and_is_stable() {
        let mut counts = [0usize; 4];
        for i in 0..4096u32 {
            counts[shard_of_key(&i.to_be_bytes(), 4)] += 1;
        }
        for c in counts {
            assert!(c > 512, "lopsided hash: {counts:?}");
        }
        assert_eq!(shard_of_key(b"alice", 4), shard_of_key(b"alice", 4));
        assert_eq!(shard_of_key(b"anything", 1), 0);
    }

    #[test]
    fn single_shard_txn_reads_its_writes() {
        let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
        let t = db.create_table("kv");
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.insert(t, b"alice", b"100").unwrap();
        tx.commit().unwrap();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        let v = tx.read(t, b"alice", |v| v.to_vec()).unwrap();
        assert_eq!(v.as_deref(), Some(&b"100"[..]));
        tx.commit().unwrap();
    }

    #[test]
    fn cross_shard_commit_is_atomic_and_visible() {
        let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
        let t = db.create_table("kv");
        let (ka, kb) = cross_pair(2);
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.insert(t, &ka, b"va").unwrap();
        tx.insert(t, &kb, b"vb").unwrap();
        tx.commit().unwrap();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        assert_eq!(tx.read(t, &ka, |v| v.to_vec()).unwrap().as_deref(), Some(&b"va"[..]));
        assert_eq!(tx.read(t, &kb, |v| v.to_vec()).unwrap().as_deref(), Some(&b"vb"[..]));
        tx.commit().unwrap();
        // Both shards took part.
        let (c0, _) = db.shard(0).txn_counts();
        let (c1, _) = db.shard(1).txn_counts();
        assert!(c0 >= 1 && c1 >= 1, "both shards should have committed");
    }

    #[test]
    fn cross_shard_abort_leaves_nothing() {
        let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
        let t = db.create_table("kv");
        let (ka, kb) = cross_pair(2);
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.insert(t, &ka, b"va").unwrap();
        tx.insert(t, &kb, b"vb").unwrap();
        tx.abort();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        assert!(tx.read(t, &ka, |_| ()).unwrap().is_none());
        assert!(tx.read(t, &kb, |_| ()).unwrap().is_none());
        tx.commit().unwrap();
    }

    #[test]
    fn replicated_table_fans_writes_and_reads_anywhere() {
        let db = ShardedDb::open(DbConfig::in_memory(), 3).unwrap();
        let t = db.create_table_with_policy("item", ShardPolicy::Replicated);
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.insert(t, b"i-1", b"widget").unwrap();
        tx.commit().unwrap();
        // Every shard holds the row.
        for s in 0..3 {
            let mut iw = db.shard(s).register_worker();
            let mut itx = iw.begin(IsolationLevel::Snapshot);
            let v = itx.read(t, b"i-1", |v| v.to_vec()).unwrap();
            assert_eq!(v.as_deref(), Some(&b"widget"[..]), "shard {s} missing replica");
            itx.commit().unwrap();
        }
    }

    #[test]
    fn prefix_policy_keeps_cohort_on_one_shard_and_scans_merge() {
        let db = ShardedDb::open(DbConfig::in_memory(), 4).unwrap();
        let t = db.create_table_with_policy("orders", ShardPolicy::Hash { prefix: Some(4) });
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        for wh in 0..4u32 {
            for o in 0..8u32 {
                let mut key = wh.to_be_bytes().to_vec();
                key.extend_from_slice(&o.to_be_bytes());
                tx.insert(t, &key, format!("o-{wh}-{o}").as_bytes()).unwrap();
            }
        }
        tx.commit().unwrap();
        // Same-prefix scan stays on one shard and sees all 8 in order.
        let mut tx = w.begin(IsolationLevel::Snapshot);
        let idx = db.shard(0).primary_index(t);
        let low = 2u32.to_be_bytes().to_vec();
        let mut high = 2u32.to_be_bytes().to_vec();
        high.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut seen = Vec::new();
        let n = tx
            .scan(idx, &low, &high, None, |k, _| {
                seen.push(k.to_vec());
                true
            })
            .unwrap();
        assert_eq!(n, 8);
        assert!(seen.windows(2).all(|p| p[0] < p[1]), "ordered");
        tx.commit().unwrap();
        // Cross-prefix scan fans out and merges in key order.
        let mut tx2 = w.begin(IsolationLevel::Snapshot);
        let mut all = Vec::new();
        let full = tx2
            .scan(idx, &[0u8; 4], &[0xff; 8], None, |k, _| {
                all.push(k.to_vec());
                true
            })
            .unwrap();
        assert_eq!(full, 32);
        assert!(all.windows(2).all(|p| p[0] < p[1]), "merged order");
        tx2.commit().unwrap();
    }

    #[test]
    fn secondary_owner_prefix_routes_with_row() {
        let db = ShardedDb::open(DbConfig::in_memory(), 4).unwrap();
        let t = db.create_table_with_policy("cust", ShardPolicy::Hash { prefix: Some(4) });
        let by_name = db.create_secondary_index(t, "cust_by_name", IndexRouting::OwnerPrefix(4));
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        let mut key = 7u32.to_be_bytes().to_vec();
        key.extend_from_slice(b"c-1");
        let h = tx.insert(t, &key, b"carol").unwrap();
        let mut skey = 7u32.to_be_bytes().to_vec();
        skey.extend_from_slice(b"CAROL");
        tx.insert_secondary(by_name, &skey, h).unwrap();
        tx.commit().unwrap();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        let v = tx.read_secondary(by_name, &skey, |v| v.to_vec()).unwrap();
        assert_eq!(v.as_deref(), Some(&b"carol"[..]));
        tx.commit().unwrap();
    }

    #[test]
    fn cross_shard_commit_survives_restart() {
        let dir = tmpdir("2pc-restart");
        let (ka, kb) = cross_pair(2);
        {
            let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
            let t = db.create_table("kv");
            let mut w = db.register_worker();
            let mut tx = w.begin(IsolationLevel::Snapshot);
            tx.insert(t, &ka, b"va").unwrap();
            tx.insert(t, &kb, b"vb").unwrap();
            tx.commit().unwrap();
        }
        let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
        let t = db.create_table("kv");
        let stats = db.recover().unwrap();
        // Finalized on both shards before the drop: participants hold
        // prepare + decide, so nothing stays in doubt.
        assert_eq!(
            stats.per_shard.iter().map(|s| s.in_doubt).sum::<u64>(),
            0,
            "finalized 2PC must not reopen in doubt"
        );
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        assert_eq!(tx.read(t, &ka, |v| v.to_vec()).unwrap().as_deref(), Some(&b"va"[..]));
        assert_eq!(tx.read(t, &kb, |v| v.to_vec()).unwrap().as_deref(), Some(&b"vb"[..]));
        tx.commit().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Crash between prepare and decide: recovery must presume abort.
    #[test]
    fn in_doubt_without_decide_resolves_to_abort() {
        let dir = tmpdir("2pc-presume-abort");
        let (ka, kb) = cross_pair(2);
        {
            let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
            let t = db.create_table("kv");
            let sa = shard_of_key(&ka, 2);
            let sb = 1 - sa;
            let mut wa = db.shard(sa).register_worker();
            let mut wb = db.shard(sb).register_worker();
            let mut ta = wa.begin(IsolationLevel::Snapshot);
            ta.insert(t, &ka, b"va").unwrap();
            let mut tb = wb.begin(IsolationLevel::Snapshot);
            tb.insert(t, &kb, b"vb").unwrap();
            let pa = ta
                .prepare(PrepareMarker {
                    coord_shard: sa as u32,
                    coord_lsn: PrepareMarker::COORD_SELF,
                    trace_hi: 0,
                    trace_lo: 0,
                })
                .unwrap();
            let pb = tb
                .prepare(PrepareMarker {
                    coord_shard: sa as u32,
                    coord_lsn: pa.cstamp().raw(),
                    trace_hi: 0,
                    trace_lo: 0,
                })
                .unwrap();
            db.shard(sa).log().wait_durable(pa.end_offset()).unwrap();
            db.shard(sb).log().wait_durable(pb.end_offset()).unwrap();
            // Simulated crash: no decide record, drop without finalize.
        }
        let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
        let t = db.create_table("kv");
        let stats = db.recover().unwrap();
        assert_eq!(stats.resolved_aborts, 2, "both prepares presumed aborted");
        assert_eq!(stats.resolved_commits, 0);
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        assert!(tx.read(t, &ka, |_| ()).unwrap().is_none());
        assert!(tx.read(t, &kb, |_| ()).unwrap().is_none());
        tx.commit().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Crash after the coordinator's decide is durable but before any
    /// finalize: recovery must roll the whole transaction forward.
    #[test]
    fn in_doubt_with_durable_decide_resolves_to_commit() {
        let dir = tmpdir("2pc-resolve-commit");
        let (ka, kb) = cross_pair(2);
        {
            let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
            let t = db.create_table("kv");
            let sa = shard_of_key(&ka, 2);
            let sb = 1 - sa;
            let mut wa = db.shard(sa).register_worker();
            let mut wb = db.shard(sb).register_worker();
            let mut ta = wa.begin(IsolationLevel::Snapshot);
            ta.insert(t, &ka, b"va").unwrap();
            let mut tb = wb.begin(IsolationLevel::Snapshot);
            tb.insert(t, &kb, b"vb").unwrap();
            let pa = ta
                .prepare(PrepareMarker {
                    coord_shard: sa as u32,
                    coord_lsn: PrepareMarker::COORD_SELF,
                    trace_hi: 0,
                    trace_lo: 0,
                })
                .unwrap();
            let gtid = pa.cstamp().raw();
            let pb = tb
                .prepare(PrepareMarker {
                    coord_shard: sa as u32,
                    coord_lsn: gtid,
                    trace_hi: 0,
                    trace_lo: 0,
                })
                .unwrap();
            db.shard(sa).log().wait_durable(pa.end_offset()).unwrap();
            db.shard(sb).log().wait_durable(pb.end_offset()).unwrap();
            let rec = DecideRecord { gtid_lsn: gtid, coord_shard: sa as u32, commit: true };
            let end = write_decide(db.shard(sa), rec).unwrap();
            db.shard(sa).log().wait_durable(end).unwrap();
            // Simulated crash before finalize: drop the prepared txns.
        }
        let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
        let t = db.create_table("kv");
        let stats = db.recover().unwrap();
        // The coordinator resolves its own prepare locally (decide in
        // the same log); only the participant crosses shards.
        assert_eq!(stats.resolved_commits, 1, "decide is the commit point");
        assert_eq!(stats.resolved_aborts, 0);
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        assert_eq!(tx.read(t, &ka, |v| v.to_vec()).unwrap().as_deref(), Some(&b"va"[..]));
        assert_eq!(tx.read(t, &kb, |v| v.to_vec()).unwrap().as_deref(), Some(&b"vb"[..]));
        tx.commit().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Repeated seeded cycles: a prepared pair either commits on both
    /// shards or on neither, deterministically per decide presence.
    #[test]
    fn in_doubt_resolution_is_deterministic_across_cycles() {
        for cycle in 0u32..6 {
            let with_decide = cycle % 2 == 0;
            let dir = tmpdir(&format!("2pc-cycle-{cycle}"));
            let (ka, kb) = cross_pair(2);
            {
                let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
                let t = db.create_table("kv");
                let sa = shard_of_key(&ka, 2);
                let sb = 1 - sa;
                let mut wa = db.shard(sa).register_worker();
                let mut wb = db.shard(sb).register_worker();
                let mut ta = wa.begin(IsolationLevel::Snapshot);
                ta.insert(t, &ka, b"va").unwrap();
                let mut tb = wb.begin(IsolationLevel::Snapshot);
                tb.insert(t, &kb, b"vb").unwrap();
                let pa = ta
                    .prepare(PrepareMarker {
                        coord_shard: sa as u32,
                        coord_lsn: PrepareMarker::COORD_SELF,
                        trace_hi: 0,
                        trace_lo: 0,
                    })
                    .unwrap();
                let gtid = pa.cstamp().raw();
                let pb = tb
                    .prepare(PrepareMarker {
                        coord_shard: sa as u32,
                        coord_lsn: gtid,
                        trace_hi: 0,
                        trace_lo: 0,
                    })
                    .unwrap();
                db.shard(sa).log().wait_durable(pa.end_offset()).unwrap();
                db.shard(sb).log().wait_durable(pb.end_offset()).unwrap();
                if with_decide {
                    let rec =
                        DecideRecord { gtid_lsn: gtid, coord_shard: sa as u32, commit: true };
                    let end = write_decide(db.shard(sa), rec).unwrap();
                    db.shard(sa).log().wait_durable(end).unwrap();
                }
            }
            let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
            let t = db.create_table("kv");
            db.recover().unwrap();
            let mut w = db.register_worker();
            let mut tx = w.begin(IsolationLevel::Snapshot);
            let a = tx.read(t, &ka, |_| ()).unwrap().is_some();
            let b = tx.read(t, &kb, |_| ()).unwrap().is_some();
            tx.commit().unwrap();
            assert_eq!(a, b, "cycle {cycle}: fractured resolution");
            assert_eq!(a, with_decide, "cycle {cycle}: wrong verdict");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Durably prepare `ka` (coordinator) and `kb` (participant) as one
    /// 2PC transaction whose markers carry `trace`, then "crash": no
    /// decide, no finalize. Returns the coordinator shard and the gtid.
    fn prepare_pair(
        db: &ShardedDb,
        t: TableId,
        (ka, kb): (&[u8], &[u8]),
        (trace_hi, trace_lo): (u64, u64),
    ) -> (usize, u64) {
        let sa = shard_of_key(ka, 2);
        let sb = 1 - sa;
        let mut wa = db.shard(sa).register_worker();
        let mut wb = db.shard(sb).register_worker();
        let mut ta = wa.begin(IsolationLevel::Snapshot);
        ta.insert(t, ka, b"va").unwrap();
        let mut tb = wb.begin(IsolationLevel::Snapshot);
        tb.insert(t, kb, b"vb").unwrap();
        let coord_lsn = PrepareMarker::COORD_SELF;
        let marker = PrepareMarker { coord_shard: sa as u32, coord_lsn, trace_hi, trace_lo };
        let pa = ta.prepare(marker).unwrap();
        let gtid = pa.cstamp().raw();
        let pb = tb.prepare(PrepareMarker { coord_lsn: gtid, ..marker }).unwrap();
        db.shard(sa).log().wait_durable(pa.end_offset()).unwrap();
        db.shard(sb).log().wait_durable(pb.end_offset()).unwrap();
        (sa, gtid)
    }

    fn visible(db: &ShardedDb, t: TableId, ka: &[u8], kb: &[u8]) -> (bool, bool) {
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        let a = tx.read(t, ka, |_| ()).unwrap().is_some();
        let b = tx.read(t, kb, |_| ()).unwrap().is_some();
        tx.commit().unwrap();
        (a, b)
    }

    /// A traced prepare pair whose decide reached only the coordinator's
    /// log: recovery applies the participant's half exactly like the
    /// coordinator's — a `ReplApply` span under the transaction's trace
    /// on that shard's tracer, and its records in that shard's stats.
    #[test]
    fn cross_shard_resolution_replays_participant_like_coordinator() {
        let dir = tmpdir("2pc-traced-resolve");
        let (ka, kb) = cross_pair(2);
        let trace = (0x5eed_0001, 0x5eed_0002);
        let (coord, gtid) = {
            let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
            let t = db.create_table("kv");
            let (coord, gtid) = prepare_pair(&db, t, (&ka, &kb), trace);
            let rec = DecideRecord { gtid_lsn: gtid, coord_shard: coord as u32, commit: true };
            let end = write_decide(db.shard(coord), rec).unwrap();
            db.shard(coord).log().wait_durable(end).unwrap();
            (coord, gtid)
        };
        let participant = 1 - coord;
        let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
        let t = db.create_table("kv");
        let stats = db.recover().unwrap();
        assert_eq!(stats.resolved_commits, 1);
        assert_eq!(stats.per_shard[participant].in_doubt, 1, "no verdict in its own log");
        for shard in [coord, participant] {
            let spans = db.shard(shard).telemetry().tracer().capture_trace(trace.0, trace.1);
            assert!(
                spans.iter().any(|s| s.kind == SpanKind::ReplApply && s.b == coord as u64),
                "shard {shard}: no repl-apply span for gtid {gtid:#x}: {spans:?}"
            );
            assert!(
                stats.per_shard[shard].replayed_records >= 1,
                "shard {shard}: resolved prepare not counted: {:?}",
                stats.per_shard[shard]
            );
        }
        assert_eq!(visible(&db, t, &ka, &kb), (true, true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The resolver's replica policy: a participant prepare applied in a
    /// round before its coordinator's decide stays pending and
    /// invisible, and commits in the round that applies the decide.
    /// Crash recovery of the same logs without the decide presumes abort.
    #[test]
    fn undecided_prepare_waits_on_replica_and_presumes_abort_on_recovery() {
        let dir = tmpdir("2pc-replica-wait");
        let (ka, kb) = cross_pair(2);
        let (coord, gtid) = {
            let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
            let t = db.create_table("kv");
            prepare_pair(&db, t, (&ka, &kb), (0, 0))
        };
        {
            let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
            let t = db.create_table("kv");
            let stats = db.recover().unwrap();
            assert_eq!((stats.resolved_commits, stats.resolved_aborts), (0, 2));
            assert_eq!(visible(&db, t, &ka, &kb), (false, false), "presumed abort");
        }
        let db = ShardedDb::open(DbConfig::durable(&dir), 2).unwrap();
        let t = db.create_table("kv");
        let mut appliers = [LogApplier::new(0), LogApplier::new(0)];
        let round = |appliers: &mut [LogApplier; 2]| {
            for (i, a) in appliers.iter_mut().enumerate() {
                a.apply_available(db.shard(i)).unwrap();
            }
            resolve_in_doubt((0..2).map(|i| db.shard(i)).zip(appliers.iter_mut())).unwrap()
        };
        assert_eq!(round(&mut appliers), 0, "no decide has been applied yet");
        assert_eq!(visible(&db, t, &ka, &kb), (false, false), "undecided prepare is invisible");
        assert_eq!(round(&mut appliers), 0, "still waiting, not presumed aborted");
        let rec = DecideRecord { gtid_lsn: gtid, coord_shard: coord as u32, commit: true };
        let end = write_decide(db.shard(coord), rec).unwrap();
        db.shard(coord).log().wait_durable(end).unwrap();
        assert_eq!(round(&mut appliers), 1, "participant commits with the decide's round");
        assert_eq!(visible(&db, t, &ka, &kb), (true, true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The commit stamp of the newest committed version of `key` on `db`.
    fn head_stamp(db: &Database, t: TableId, key: &[u8]) -> Lsn {
        let table = db.table(t);
        let handle = db.inner.epoch.register();
        let guard = handle.pin();
        let (oid, _) = table.primary.get(&guard, key);
        let oid = oid.unwrap_or_else(|| panic!("key {key:?} not recovered"));
        let head = table.oids.head(Oid(oid as u32));
        assert!(!head.is_null(), "key {key:?} has no version");
        // SAFETY: `head` is non-null and the pinned guard keeps the
        // version from being reclaimed while it is read.
        let stamp = unsafe { (*head).stamp() };
        assert!(!stamp.is_tid(), "key {key:?} recovered uncommitted");
        stamp.as_lsn()
    }

    /// Log blocks carry no commit stamp: replay stamps each version with
    /// the LSN of the block's position. Crash recovery and a replica-style
    /// `LogApplier` replay must both reproduce exactly the LSN each
    /// commit (and each 2PC prepare reservation) returned, across
    /// segment switches and for a prepare resolved by its decide.
    #[test]
    fn replay_stamps_versions_with_the_reserved_lsn() {
        let dir = tmpdir("position-stamps");
        let cfg = || {
            let mut cfg = DbConfig::durable(&dir);
            cfg.log.segment_size = 4096; // several rotations per shard
            cfg
        };
        let (ka, kb) = cross_pair(2);
        let mut expect: Vec<(usize, Vec<u8>, Lsn)> = Vec::new();
        {
            let db = ShardedDb::open(cfg(), 2).unwrap();
            let t = db.create_table("kv");
            let mut workers = [db.shard(0).register_worker(), db.shard(1).register_worker()];
            let mut commit = |i: u32, expect: &mut Vec<(usize, Vec<u8>, Lsn)>| {
                let key = format!("key-{i:05}").into_bytes();
                let s = shard_of_key(&key, 2);
                let mut tx = workers[s].begin(IsolationLevel::Snapshot);
                tx.insert(t, &key, &[i as u8; 40]).unwrap();
                expect.push((s, key, tx.commit().unwrap()));
            };
            for i in 0..150 {
                commit(i, &mut expect);
            }
            let sa = shard_of_key(&ka, 2);
            let sb = 1 - sa;
            let mut wa = db.shard(sa).register_worker();
            let mut wb = db.shard(sb).register_worker();
            let mut ta = wa.begin(IsolationLevel::Snapshot);
            ta.insert(t, &ka, b"va").unwrap();
            let mut tb = wb.begin(IsolationLevel::Snapshot);
            tb.insert(t, &kb, b"vb").unwrap();
            let coord_lsn = PrepareMarker::COORD_SELF;
            let marker =
                PrepareMarker { coord_shard: sa as u32, coord_lsn, trace_hi: 0, trace_lo: 0 };
            let pa = ta.prepare(marker).unwrap();
            let gtid = pa.cstamp().raw();
            let pb = tb.prepare(PrepareMarker { coord_lsn: gtid, ..marker }).unwrap();
            let (stamp_a, stamp_b) = (pa.cstamp(), pb.cstamp());
            expect.push((sa, ka.clone(), stamp_a));
            expect.push((sb, kb.clone(), stamp_b));
            db.shard(sa).log().wait_durable(pa.end_offset()).unwrap();
            db.shard(sb).log().wait_durable(pb.end_offset()).unwrap();
            let rec = DecideRecord { gtid_lsn: gtid, coord_shard: sa as u32, commit: true };
            let end = write_decide(db.shard(sa), rec).unwrap();
            db.shard(sa).log().wait_durable(end).unwrap();
            assert_eq!(pa.finish_commit().lsn(), stamp_a);
            assert_eq!(pb.finish_commit().lsn(), stamp_b);
            for i in 150..300 {
                commit(i, &mut expect);
            }
            for s in 0..2 {
                assert!(db.shard(s).log().segments().all().len() > 2, "shard {s} never rotated");
            }
        }
        {
            let db = ShardedDb::open(cfg(), 2).unwrap();
            let t = db.create_table("kv");
            let stats = db.recover().unwrap();
            assert_eq!(stats.resolved_commits, 1);
            for (s, key, lsn) in &expect {
                assert_eq!(head_stamp(db.shard(*s), t, key), *lsn, "recovery: {key:?}");
            }
        }
        let db = ShardedDb::open(cfg(), 2).unwrap();
        let t = db.create_table("kv");
        let mut appliers = [LogApplier::new(0), LogApplier::new(0)];
        for (i, a) in appliers.iter_mut().enumerate() {
            a.apply_available(db.shard(i)).unwrap();
        }
        resolve_in_doubt((0..2).map(|i| db.shard(i)).zip(appliers.iter_mut())).unwrap();
        for (s, key, lsn) in &expect {
            assert_eq!(head_stamp(db.shard(*s), t, key), *lsn, "log applier: {key:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_pool_bounds_total_concurrency() {
        let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
        let t = db.create_table("kv");
        let pool = ShardedWorkerPool::new(&db, 2);
        let mut a = pool.try_checkout().expect("first");
        let b = pool.try_checkout().expect("second");
        assert!(pool.try_checkout().is_none(), "capacity 2 must bound checkouts");
        assert_eq!(pool.outstanding(), 2);
        // A pooled worker runs transactions on any shard.
        let mut tx = a.begin(IsolationLevel::Snapshot);
        tx.insert(t, b"k", b"v").unwrap();
        tx.commit().unwrap();
        drop(a);
        assert_eq!(pool.idle(), 1);
        let c = pool.try_checkout().expect("recycled");
        drop(b);
        drop(c);
        assert_eq!(pool.created(), 2);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn sharded_checkout_timeout_waits_for_a_return() {
        let db = ShardedDb::open(DbConfig::in_memory(), 1).unwrap();
        let pool = ShardedWorkerPool::new(&db, 1);
        let held = pool.try_checkout().unwrap();
        assert!(pool.checkout_timeout(Duration::from_millis(20)).is_none());
        let pool2 = pool.clone();
        let h = std::thread::spawn(move || {
            pool2.checkout_timeout(Duration::from_secs(5)).expect("worker returned in time")
        });
        std::thread::sleep(Duration::from_millis(30));
        drop(held);
        drop(h.join().unwrap());
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn shard_metrics_are_exposed() {
        let db = ShardedDb::open(DbConfig::in_memory(), 2).unwrap();
        let t = db.create_table("kv");
        let (ka, kb) = cross_pair(2);
        let mut w = db.register_worker();
        let mut tx = w.begin(IsolationLevel::Snapshot);
        tx.insert(t, &ka, b"a").unwrap();
        tx.insert(t, &kb, b"b").unwrap();
        tx.commit().unwrap();
        let text = db.telemetry().render_prometheus();
        for name in [
            "ermia_shard_count",
            "ermia_shard_in_doubt",
            "ermia_shard_txns_total",
            "ermia_shard_cross_txns_total",
            "ermia_2pc_prepare_ns",
            "ermia_2pc_decide_ns",
        ] {
            assert!(text.contains(name), "missing metric {name} in exposition");
        }
        assert!(text.contains("shard=\"1\""), "per-shard label missing");
    }
}
