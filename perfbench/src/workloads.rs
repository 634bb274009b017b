//! The four workloads: engine set-up, per-connection input generators,
//! the measured phases, the quiescent-state checks and crash recovery.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ermia::{shard_of_key, DbConfig, IsolationLevel, ShardedCommitToken, ShardedDb, TableId};
use ermia_repl::{Replica, ReplicaConfig};
use ermia_server::{BatchOp, Client, Response, Server, ServerConfig, WireIsolation};

use crate::checks;
use crate::drive::{self, GetCheck, Journal, LongPlan, Planned, StreamResult, Window};
use crate::gen::{self, Rng, Zipf};

pub const WIDE_ROWS: u32 = 1_000_000;
pub const PAIR_ROWS: u32 = 100_000;
/// Rows one long transaction scans (10% of the paired table).
pub const SCAN_ROWS: u32 = 10_000;
/// Share of `cross_shard_2pc` transactions that write both shards (the
/// TPC-C remote rate).
pub const CROSS_SHARE: f64 = 0.15;
const LOAD_TXN_ROWS: usize = 2_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    OltpSync,
    HybridSsn,
    CrossShard2pc,
    ReplicaTail,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::OltpSync, Kind::HybridSsn, Kind::CrossShard2pc, Kind::ReplicaTail];

    pub fn name(self) -> &'static str {
        match self {
            Kind::OltpSync => "oltp_sync",
            Kind::HybridSsn => "hybrid_ssn",
            Kind::CrossShard2pc => "cross_shard_2pc",
            Kind::ReplicaTail => "replica_tail",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn shards(self) -> usize {
        if self == Kind::CrossShard2pc {
            2
        } else {
            1
        }
    }

    /// Wide rows (11-byte keys, 100-byte values) or paired 8-byte rows.
    pub fn wide(self) -> bool {
        matches!(self, Kind::OltpSync | Kind::CrossShard2pc)
    }

    pub fn rows(self) -> u32 {
        if self.wide() {
            WIDE_ROWS
        } else {
            PAIR_ROWS
        }
    }

    pub fn table_name(self) -> &'static str {
        if self.wide() {
            "usertable"
        } else {
            "pairs"
        }
    }

    /// Journal slots: one per row, or one per pair.
    pub fn slots(self) -> usize {
        if self.wide() {
            self.rows() as usize
        } else {
            self.rows() as usize / 2
        }
    }
}

/// The engine configuration every leg of every workload runs: a durable,
/// fsynced log with synchronous commit.
pub fn db_config(dir: &Path, profile: bool) -> DbConfig {
    let mut c = DbConfig::durable(dir);
    c.log.fsync = true;
    c.profile = profile;
    c
}

/// The flush policy as printed in the fingerprint.
pub fn flush_policy_json(dir: &Path) -> String {
    let c = db_config(dir, false);
    format!(
        "{{\"synchronous_commit\": {}, \"fsync\": {}, \"durable_dir\": {}, \"flush_interval_us\": {}, \"log_buffer_bytes\": {}, \"segment_bytes\": {}}}",
        c.synchronous_commit,
        c.log.fsync,
        crate::stats::json_str(&dir.display().to_string()),
        c.log.flush_interval.as_micros(),
        c.log.buffer_size,
        c.log.segment_size,
    )
}

fn server_config() -> ServerConfig {
    ServerConfig {
        worker_capacity: 4,
        checkout_wait: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

fn io(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Input generators
// ---------------------------------------------------------------------------

/// Rows each connection may write, bucketed by shard; connection `c` owns
/// the rows `r` with `r % 2 == c`, so no two connections write one row.
pub struct Placement {
    pub shards: usize,
    /// `own[conn][shard]`.
    own: Vec<Vec<Vec<u32>>>,
    /// `all[shard]`.
    all: Vec<Vec<u32>>,
}

impl Placement {
    pub fn new(rows: u32, shards: usize) -> Placement {
        let mut own = vec![vec![Vec::new(); shards]; 2];
        let mut all = vec![Vec::new(); shards];
        for r in 0..rows {
            let s = if shards == 1 { 0 } else { shard_of_key(&gen::wide_key(r), shards) };
            own[(r % 2) as usize][s].push(r);
            all[s].push(r);
        }
        Placement { shards, own, all }
    }
}

/// Keys the last `window` transactions of a connection wrote: a new write
/// avoids them, so a row is never written twice concurrently and the
/// journal order is the commit order.
struct Recent {
    cap: usize,
    rows: VecDeque<u32>,
}

impl Recent {
    fn new(window: usize, per_txn: usize) -> Recent {
        Recent { cap: window * per_txn, rows: VecDeque::with_capacity(window * per_txn) }
    }

    fn contains(&self, r: u32) -> bool {
        self.rows.contains(&r)
    }

    fn push(&mut self, r: u32) {
        if self.rows.len() == self.cap {
            self.rows.pop_front();
        }
        self.rows.push_back(r);
    }
}

/// `oltp_sync` / `cross_shard_2pc`: 4 gets and 4 puts on uniform rows.
pub fn wide_gen(
    seed: u64,
    conn: usize,
    table: u32,
    window: usize,
    place: Arc<Placement>,
) -> impl FnMut(&Journal) -> Planned + Send {
    let mut rng = Rng::new(seed, 100 + conn as u64);
    let mut recent = Recent::new(window, 4);
    move |j: &Journal| {
        let shards = place.shards;
        let cross = shards > 1 && rng.unit() < CROSS_SHARE;
        let home = rng.below(shards as u64) as usize;
        let mut ops = Vec::with_capacity(8);
        let mut gets = Vec::with_capacity(4);
        for _ in 0..4 {
            let s = if cross { rng.below(shards as u64) as usize } else { home };
            let row = place.all[s][rng.below(place.all[s].len() as u64) as usize];
            ops.push(BatchOp::Get { table, key: gen::wide_key(row).to_vec() });
            gets.push(GetCheck::Wide(row));
        }
        let mut writes: Vec<(u32, u32)> = Vec::with_capacity(4);
        for i in 0..4 {
            // A cross transaction writes two rows on each of two shards.
            let s = if cross { (home + i / 2) % shards } else { home };
            let own = &place.own[conn][s];
            let row = loop {
                let r = own[rng.below(own.len() as u64) as usize];
                if !recent.contains(r) && writes.iter().all(|w| w.0 != r) {
                    break r;
                }
            };
            writes.push((row, j.next_version(row)));
        }
        for &(row, v) in &writes {
            recent.push(row);
            ops.push(BatchOp::Put {
                table,
                key: gen::wide_key(row).to_vec(),
                value: gen::wide_value(seed, row, v).to_vec(),
            });
        }
        Planned {
            isolation: WireIsolation::Snapshot,
            sync: true,
            ops,
            writes,
            gets,
            user_bytes: 4 * (gen::WIDE_KEY_LEN + gen::WIDE_VALUE_LEN) as u64,
        }
    }
}

/// Which pairs a pair writer picks.
pub enum PairPick {
    /// Zipfian (theta 0.99) over the even pairs (`hybrid_ssn`).
    ZipfEven(Zipf),
    /// Uniform over every pair (`replica_tail`).
    Uniform,
}

/// One pair rewritten per transaction, synchronous.
pub fn pair_write_gen(
    seed: u64,
    stream: u64,
    table: u32,
    window: usize,
    pick: PairPick,
) -> impl FnMut(&Journal) -> Planned + Send {
    let pairs = (PAIR_ROWS / 2) as u64;
    let mut rng = Rng::new(seed, stream);
    let mut recent = Recent::new(window, 1);
    move |j: &Journal| {
        let pair = loop {
            let p = match &pick {
                PairPick::ZipfEven(z) => 2 * gen::scatter(z.sample(&mut rng), pairs / 2) as u32,
                PairPick::Uniform => rng.below(pairs) as u32,
            };
            if !recent.contains(p) {
                break p;
            }
        };
        recent.push(pair);
        let v = j.next_version(pair);
        let value = gen::pair_value(pair, v).to_vec();
        Planned {
            isolation: WireIsolation::Snapshot,
            sync: true,
            ops: vec![
                BatchOp::Put { table, key: gen::pair_key(2 * pair).to_vec(), value: value.clone() },
                BatchOp::Put { table, key: gen::pair_key(2 * pair + 1).to_vec(), value },
            ],
            writes: vec![(pair, v)],
            gets: Vec::new(),
            user_bytes: 2 * 16,
        }
    }
}

/// `replica_tail` reads: both halves of a uniform pair in one snapshot.
pub fn pair_read_gen(seed: u64, table: u32) -> impl FnMut(&Journal) -> Planned + Send {
    let mut rng = Rng::new(seed, 300);
    move |_: &Journal| {
        let pair = rng.below((PAIR_ROWS / 2) as u64) as u32;
        Planned {
            isolation: WireIsolation::Snapshot,
            sync: false,
            ops: vec![
                BatchOp::Get { table, key: gen::pair_key(2 * pair).to_vec() },
                BatchOp::Get { table, key: gen::pair_key(2 * pair + 1).to_vec() },
            ],
            writes: Vec::new(),
            gets: vec![GetCheck::PairHalf(pair), GetCheck::PairHalf(pair)],
            user_bytes: 0,
        }
    }
}

/// `hybrid_ssn` long transactions: a contiguous 10% scan, then one odd
/// pair inside it rewritten (odd pairs belong to this connection alone).
pub fn long_gen(seed: u64) -> impl FnMut(&Journal) -> LongPlan + Send {
    let mut rng = Rng::new(seed, 400);
    let pairs = PAIR_ROWS / 2;
    let span = SCAN_ROWS / 2;
    move |_: &Journal| {
        let low_pair = rng.below((pairs - span + 1) as u64) as u32;
        let mut pair = low_pair + rng.below(span as u64) as u32;
        if pair.is_multiple_of(2) {
            pair = if pair + 1 < low_pair + span { pair + 1 } else { pair - 1 };
        }
        LongPlan { low_row: 2 * low_pair, rows: SCAN_ROWS, pair }
    }
}

/// What one load connection does.
pub enum Role {
    Pipelined { window: usize, to_replica: bool, gen: Box<dyn FnMut(&Journal) -> Planned + Send> },
    Long { gen: Box<dyn FnMut(&Journal) -> LongPlan + Send> },
}

impl Role {
    /// The primary's short write stream (measured as `txn_*`).
    fn is_short_writer(&self) -> bool {
        matches!(self, Role::Pipelined { to_replica: false, .. })
    }
}

/// Both connections' roles for `kind`.
pub fn roles(kind: Kind, seed: u64, table: u32, place: Option<Arc<Placement>>) -> Vec<Role> {
    match kind {
        Kind::OltpSync | Kind::CrossShard2pc => {
            let place = place.expect("wide workloads need a placement");
            (0..2)
                .map(|c| Role::Pipelined {
                    window: 16,
                    to_replica: false,
                    gen: Box::new(wide_gen(seed, c, table, 16, Arc::clone(&place))),
                })
                .collect()
        }
        Kind::HybridSsn => vec![
            Role::Long { gen: Box::new(long_gen(seed)) },
            Role::Pipelined {
                window: 8,
                to_replica: false,
                gen: Box::new(pair_write_gen(
                    seed,
                    200,
                    table,
                    8,
                    PairPick::ZipfEven(Zipf::new((PAIR_ROWS / 4) as u64, 0.99)),
                )),
            },
        ],
        Kind::ReplicaTail => vec![
            Role::Pipelined {
                window: 8,
                to_replica: false,
                gen: Box::new(pair_write_gen(seed, 200, table, 8, PairPick::Uniform)),
            },
            Role::Pipelined {
                window: 8,
                to_replica: true,
                gen: Box::new(pair_read_gen(seed, table)),
            },
        ],
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Bulk-load every row at version 0; each transaction stays on one
/// shard. Returns once the load is durable.
///
/// The load runs on one worker: concurrent inserts from two workers lose
/// keys from the primary index (a known engine defect; see CHANGES.md),
/// and the measured workloads themselves only update existing rows.
pub fn load(db: &ShardedDb, table: TableId, kind: Kind, seed: u64) -> Result<(), String> {
    let shards = db.shards();
    let mut by_shard: Vec<Vec<u32>> = vec![Vec::new(); shards];
    for r in 0..kind.rows() {
        let s = if shards == 1 {
            0
        } else if kind.wide() {
            shard_of_key(&gen::wide_key(r), shards)
        } else {
            shard_of_key(&gen::pair_key(r), shards)
        };
        by_shard[s].push(r);
    }
    let mut w = db.register_worker();
    let mut last: Vec<Option<ShardedCommitToken>> = vec![None; shards];
    for chunk in by_shard.iter().flat_map(|rows| rows.chunks(LOAD_TXN_ROWS)) {
        let mut tx = w.begin(IsolationLevel::Snapshot);
        for &r in chunk {
            let res = if kind.wide() {
                tx.insert(table, &gen::wide_key(r), &gen::wide_value(seed, r, 0))
            } else {
                tx.insert(table, &gen::pair_key(r), &gen::pair_value(r / 2, 0))
            };
            res.map_err(|e| format!("load row {r}: {e}"))?;
        }
        let tok = tx.commit_deferred().map_err(|e| format!("load commit: {e}"))?;
        last[tok.shard() as usize] = Some(tok);
    }
    for tok in last.into_iter().flatten() {
        tok.wait_durable(db, Duration::from_secs(60)).map_err(io)?;
    }
    Ok(())
}

pub struct ReplicaEnv {
    pub replica: Option<Replica>,
    pub server: Server,
    pub dir: PathBuf,
}

/// A running workload: engine, server, connections and journal.
pub struct Env {
    pub kind: Kind,
    pub seed: u64,
    pub dir: PathBuf,
    pub db: ShardedDb,
    pub table: TableId,
    pub server: Server,
    pub wire_table: u32,
    pub journal: Arc<Journal>,
    pub conns: Vec<(Client, Role)>,
    pub replica: Option<ReplicaEnv>,
}

/// Open, load, start the server (and replica), connect, and warm up.
pub fn setup(kind: Kind, seed: u64, root: &Path, tag: &str, profile: bool) -> Result<Env, String> {
    let dir = root.join(format!("primary-{tag}"));
    let db = ShardedDb::open(db_config(&dir, profile), kind.shards()).map_err(io)?;
    let table = db.create_table(kind.table_name());
    load(&db, table, kind, seed)?;
    let server = Server::start_sharded(&db, "127.0.0.1:0", server_config()).map_err(io)?;
    let addr = server.local_addr();
    let replica = if kind == Kind::ReplicaTail {
        let rdir = root.join(format!("replica-{tag}"));
        let mut replica =
            Replica::bootstrap(ReplicaConfig::new(addr.to_string(), &rdir)).map_err(io)?;
        replica.catch_up().map_err(io)?;
        let server = replica.serve("127.0.0.1:0", server_config()).map_err(io)?;
        Some(ReplicaEnv { replica: Some(replica), server, dir: rdir })
    } else {
        None
    };
    let mut probe = Client::connect(addr).map_err(io)?;
    let wire_table = probe.open_table(kind.table_name()).map_err(io)?;
    let place = kind.wide().then(|| Arc::new(Placement::new(kind.rows(), kind.shards())));
    let mut conns = Vec::new();
    for role in roles(kind, seed, wire_table, place) {
        let target = match (&role, &replica) {
            (Role::Pipelined { to_replica: true, .. }, Some(r)) => r.server.local_addr(),
            _ => addr,
        };
        let mut c = Client::connect(target).map_err(io)?;
        // A wedged server fails the run instead of hanging it.
        c.set_reply_timeout(Some(Duration::from_secs(30))).map_err(io)?;
        conns.push((c, role));
    }
    let mut env = Env {
        kind,
        seed,
        dir,
        db,
        table,
        server,
        wire_table,
        journal: Arc::new(Journal::new(kind.slots())),
        conns,
        replica,
    };
    let warm = run_phase(&mut env, Duration::from_millis(300), 0, None)?;
    if let Some(e) = warm.errors().first() {
        return Err(format!("warm-up: {e}"));
    }
    Ok(env)
}

impl Env {
    /// Stop the servers and drop every engine handle; the directories
    /// stay for recovery.
    pub fn close(self) -> (PathBuf, Option<PathBuf>, Arc<Journal>) {
        let Env { dir, db, server, conns, replica, journal, .. } = self;
        drop(conns);
        let rdir = replica.map(|r| {
            r.server.shutdown();
            drop(r.replica);
            r.dir
        });
        server.shutdown();
        drop(server);
        drop(db);
        (dir, rdir, journal)
    }
}

// ---------------------------------------------------------------------------
// Measured phase
// ---------------------------------------------------------------------------

/// One replica tailing round as the benchmark saw it.
#[derive(Clone, Copy)]
pub struct Round {
    pub end: Instant,
    pub dur_ns: u64,
    pub applied: u64,
    pub shipped: u64,
    pub lag: u64,
    /// Round bounds on the replica tracer's clock (to match ship spans).
    pub t0_ns: u64,
    pub t1_ns: u64,
}

pub struct PhaseOut {
    pub secs: f64,
    /// The primary's short write transactions.
    pub short: StreamResult,
    /// Long transactions or replica reads.
    pub other: StreamResult,
    pub rounds: Vec<Round>,
}

impl PhaseOut {
    pub fn errors(&self) -> Vec<&String> {
        self.short.errors.iter().chain(&self.other.errors).collect()
    }
}

/// Observer run alongside the load (control connection work).
pub type Observer<'a> = &'a (dyn Fn(&AtomicBool) -> Result<(), String> + Sync);

/// Drive every connection for `dur`, tailing the replica if there is one.
pub fn run_phase(
    env: &mut Env,
    dur: Duration,
    trace_every: u64,
    observer: Option<Observer<'_>>,
) -> Result<PhaseOut, String> {
    let start = Instant::now() + Duration::from_millis(5);
    let win = Window { start, end: start + dur };
    let stop = AtomicBool::new(false);
    let seed = env.seed;
    let wire_table = env.wire_table;
    let journal = Arc::clone(&env.journal);
    let mut replica = env.replica.as_mut().and_then(|r| r.replica.take());
    let tracer = replica.as_ref().map(|r| Arc::clone(r.serving().telemetry().tracer()));
    let (results, rounds, observed) = std::thread::scope(|s| {
        let tail = replica.as_mut().map(|r| {
            let stop = &stop;
            let tracer = tracer.clone().expect("replica tracer");
            s.spawn(move || -> Result<Vec<Round>, String> {
                let mut rounds = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let t = Instant::now();
                    let t0_ns = tracer.now_ns();
                    let p = r.poll().map_err(io)?;
                    let end = Instant::now();
                    rounds.push(Round {
                        end,
                        dur_ns: end.duration_since(t).as_nanos() as u64,
                        applied: r.applied_lsn(),
                        shipped: p.shipped_bytes,
                        lag: p.lag_bytes,
                        t0_ns,
                        t1_ns: tracer.now_ns(),
                    });
                    if p.shipped_bytes == 0 {
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
                Ok(rounds)
            })
        });
        let obs = observer.map(|f| {
            let stop = &stop;
            s.spawn(move || f(stop))
        });
        let loads: Vec<_> = env
            .conns
            .iter_mut()
            .enumerate()
            .map(|(i, (client, role))| {
                let journal = &journal;
                s.spawn(move || -> Result<(bool, StreamResult), String> {
                    let mut out = StreamResult::default();
                    let short = role.is_short_writer();
                    match role {
                        Role::Pipelined { window, gen, to_replica } => {
                            let every = if *to_replica { 0 } else { trace_every };
                            drive::run_pipelined(
                                client,
                                *window,
                                win,
                                every,
                                i as u64,
                                seed,
                                journal,
                                gen.as_mut(),
                                &mut out,
                            )
                        }
                        Role::Long { gen } => drive::run_long(
                            client,
                            wire_table,
                            win,
                            journal,
                            gen.as_mut(),
                            &mut out,
                        ),
                    }
                    .map_err(|e| format!("connection {i}: {e}"))?;
                    Ok((short, out))
                })
            })
            .collect();
        let results: Vec<_> = loads.into_iter().map(|h| h.join().expect("load thread")).collect();
        stop.store(true, Ordering::Release);
        let rounds = tail.map(|h| h.join().expect("tail thread"));
        let observed = obs.map(|h| h.join().expect("observer thread"));
        (results, rounds, observed)
    });
    if let (Some(r), Some(renv)) = (replica, env.replica.as_mut()) {
        renv.replica = Some(r);
    }
    let mut out = PhaseOut {
        secs: dur.as_secs_f64(),
        short: StreamResult::default(),
        other: StreamResult::default(),
        rounds: Vec::new(),
    };
    for r in results {
        let (short, res) = r?;
        if short {
            out.short.merge(res);
        } else {
            out.other.merge(res);
        }
    }
    if let Some(r) = rounds {
        out.rounds = r?;
    }
    if let Some(o) = observed {
        o?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Quiescent-state checks and recovery
// ---------------------------------------------------------------------------

/// Every row (or pair) of `db` against the journal. Returns the errors
/// (at most a handful are kept).
pub fn verify_state(
    db: &ShardedDb,
    table: TableId,
    kind: Kind,
    seed: u64,
    journal: &Journal,
) -> Vec<String> {
    let mut errors = Vec::new();
    let mut w = db.register_worker();
    let mut tx = w.begin(IsolationLevel::Snapshot);
    let mut read = |key: &[u8]| -> Result<Option<Vec<u8>>, String> {
        tx.read(table, key, |v| v.to_vec()).map_err(|e| format!("read {key:?}: {e}"))
    };
    for slot in 0..journal.len() as u32 {
        let res = if kind.wide() {
            read(&gen::wide_key(slot))
                .map(|v| checks::wide_row(seed, slot, v.as_deref(), journal.acked(slot)))
        } else {
            let a = read(&gen::pair_key(2 * slot));
            let b = read(&gen::pair_key(2 * slot + 1));
            a.and_then(|a| {
                b.map(|b| checks::pair_state(slot, a.as_deref(), b.as_deref(), journal.acked(slot)))
            })
        };
        if let Err(e) | Ok(Err(e)) = res {
            errors.push(e);
            if errors.len() >= 8 {
                break;
            }
        }
    }
    errors
}

/// A sample of acknowledged writes read back over the wire: each must
/// return its last acknowledged value.
pub fn verify_sample_wire(env: &Env, n: usize) -> Result<Vec<String>, String> {
    let mut client = Client::connect(env.server.local_addr()).map_err(io)?;
    let mut rng = Rng::new(env.seed, 500);
    let mut errors = Vec::new();
    let slots: Vec<u32> = (0..n).map(|_| rng.below(env.journal.len() as u64) as u32).collect();
    for chunk in slots.chunks(64) {
        let mut ops = Vec::new();
        for &slot in chunk {
            if env.kind.wide() {
                ops.push(BatchOp::Get { table: env.wire_table, key: gen::wide_key(slot).to_vec() });
            } else {
                ops.push(BatchOp::Get {
                    table: env.wire_table,
                    key: gen::pair_key(2 * slot).to_vec(),
                });
                ops.push(BatchOp::Get {
                    table: env.wire_table,
                    key: gen::pair_key(2 * slot + 1).to_vec(),
                });
            }
        }
        let (results, outcome) = client.batch(WireIsolation::Snapshot, false, ops).map_err(io)?;
        if !matches!(outcome, Response::Committed { .. }) {
            return Err(format!("sample read-back did not commit: {outcome:?}"));
        }
        let values: Vec<Option<Vec<u8>>> = results
            .into_iter()
            .map(|r| match r {
                Response::Value { value } => value,
                _ => None,
            })
            .collect();
        let per = if env.kind.wide() { 1 } else { 2 };
        for (i, &slot) in chunk.iter().enumerate() {
            let expected = env.journal.acked(slot);
            let r = if env.kind.wide() {
                checks::wide_row(env.seed, slot, values[i].as_deref(), expected)
            } else {
                checks::pair_state(
                    slot,
                    values[per * i].as_deref(),
                    values[per * i + 1].as_deref(),
                    expected,
                )
            };
            if let Err(e) = r {
                errors.push(format!("wire read-back: {e}"));
            }
        }
    }
    Ok(errors)
}

/// After the phase: the replica catches up, then must equal the journal
/// exactly (prefix consistency at quiescence).
pub fn verify_replica(env: &mut Env) -> Result<Vec<String>, String> {
    let Some(renv) = env.replica.as_mut() else { return Ok(Vec::new()) };
    let replica = renv.replica.as_mut().expect("replica present between phases");
    replica.catch_up().map_err(io)?;
    let serving = replica.serving().clone();
    let table = serving.table_id(env.kind.table_name()).ok_or("replica lost the table")?;
    Ok(verify_state(&serving, table, env.kind, env.seed, &env.journal)
        .into_iter()
        .map(|e| format!("replica: {e}"))
        .collect())
}

/// Reopen a crashed primary directory and run recovery. Returns the
/// reopened engine, its table, and the reopen + recovery time.
pub fn recover(kind: Kind, dir: &Path) -> Result<(ShardedDb, TableId, f64), String> {
    let t = Instant::now();
    let db = ShardedDb::open(db_config(dir, false), kind.shards()).map_err(io)?;
    let table = db.create_table(kind.table_name());
    db.recover().map_err(io)?;
    Ok((db, table, t.elapsed().as_secs_f64()))
}
