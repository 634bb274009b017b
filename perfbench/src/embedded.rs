//! The embedded leg: the same generated transactions replayed through
//! `ShardedWorker` on a fresh engine with the same configuration and no
//! server, each engine call timed by the benchmark. It splits the wire
//! view's `core` and `log` time into per-call costs.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ermia::{IsolationLevel, ShardedDb, ShardedTransaction, TableId};
use ermia_server::{BatchOp, WireIsolation};

use crate::drive::{GetCheck, Journal};
use crate::gen;
use crate::workloads::{self, Kind, Placement, Role};

#[derive(Default)]
pub struct EmbeddedOut {
    pub begin_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub scan_ns: Vec<u64>,
    pub scan_rows: u64,
    pub commit_ns: Vec<u64>,
    pub wait_ns: Vec<u64>,
    pub committed: u64,
    pub errors: Vec<String>,
}

impl EmbeddedOut {
    fn merge(&mut self, o: EmbeddedOut) {
        self.begin_ns.extend(o.begin_ns);
        self.read_ns.extend(o.read_ns);
        self.write_ns.extend(o.write_ns);
        self.scan_ns.extend(o.scan_ns);
        self.scan_rows += o.scan_rows;
        self.commit_ns.extend(o.commit_ns);
        self.wait_ns.extend(o.wait_ns);
        self.committed += o.committed;
        self.errors.extend(o.errors);
    }
}

fn iso(w: WireIsolation) -> IsolationLevel {
    match w {
        WireIsolation::Snapshot => IsolationLevel::Snapshot,
        WireIsolation::Serializable => IsolationLevel::Serializable,
    }
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Open a fresh engine under `dir`, load it, and replay each primary
/// connection's generated transactions for `dur`.
pub fn run(kind: Kind, seed: u64, dir: &Path, dur: Duration) -> Result<EmbeddedOut, String> {
    let db = ShardedDb::open(workloads::db_config(dir, false), kind.shards())
        .map_err(|e| e.to_string())?;
    let table = db.create_table(kind.table_name());
    workloads::load(&db, table, kind, seed)?;
    let place = kind.wide().then(|| Arc::new(Placement::new(kind.rows(), kind.shards())));
    let journal = Journal::new(kind.slots());
    let roles: Vec<Role> = workloads::roles(kind, seed, table.0, place)
        .into_iter()
        .filter(|r| !matches!(r, Role::Pipelined { to_replica: true, .. }))
        .collect();
    let end = Instant::now() + dur;
    let mut out = EmbeddedOut::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = roles
            .into_iter()
            .map(|role| {
                let (db, journal) = (&db, &journal);
                s.spawn(move || replay(db, table, seed, role, journal, end))
            })
            .collect();
        for h in handles {
            out.merge(h.join().expect("embedded thread"));
        }
    });
    Ok(out)
}

fn replay(
    db: &ShardedDb,
    table: TableId,
    seed: u64,
    role: Role,
    journal: &Journal,
    end: Instant,
) -> EmbeddedOut {
    let mut out = EmbeddedOut::default();
    let mut w = db.register_worker();
    let index = db.primary_index(table);
    match role {
        Role::Pipelined { mut gen, .. } => {
            while Instant::now() < end {
                let p = gen(journal);
                let t = Instant::now();
                let mut tx = w.begin(iso(p.isolation));
                out.begin_ns.push(ns(t));
                let mut gets = p.gets.iter();
                let mut failed = false;
                for op in &p.ops {
                    let t = Instant::now();
                    match op {
                        BatchOp::Get { key, .. } => {
                            let r = tx.read(table, key, |v| v.to_vec());
                            out.read_ns.push(ns(t));
                            match (r, gets.next()) {
                                (Ok(Some(v)), Some(GetCheck::Wide(row))) => {
                                    if gen::wide_version(seed, *row, &v).is_none() {
                                        out.errors.push(format!(
                                            "embedded: row {row} holds foreign bytes"
                                        ));
                                    }
                                }
                                (Ok(Some(v)), Some(GetCheck::PairHalf(pair))) => {
                                    if gen::pair_version(*pair, &v).is_none() {
                                        out.errors.push(format!(
                                            "embedded: pair {pair} holds foreign bytes"
                                        ));
                                    }
                                }
                                (Ok(_), _) => {
                                    out.errors.push(format!("embedded: read {key:?} found no row"))
                                }
                                (Err(_), _) => failed = true,
                            }
                        }
                        BatchOp::Put { key, value, .. } => {
                            let r = tx.update(table, key, value);
                            out.write_ns.push(ns(t));
                            failed |= r.is_err();
                        }
                        other => out.errors.push(format!("embedded: unplanned op {other:?}")),
                    }
                    if failed {
                        break;
                    }
                }
                if failed {
                    tx.abort();
                    continue;
                }
                if commit_durable(db, tx, &mut out) {
                    for &(slot, v) in &p.writes {
                        journal.ack(slot, v);
                    }
                }
            }
        }
        Role::Long { mut gen } => {
            while Instant::now() < end {
                let plan = gen(journal);
                let version = journal.next_version(plan.pair);
                let t = Instant::now();
                let mut tx = w.begin(IsolationLevel::Serializable);
                out.begin_ns.push(ns(t));
                let low = gen::pair_key(plan.low_row);
                let high = gen::pair_key(plan.low_row + plan.rows - 1);
                let mut rows = Vec::with_capacity(plan.rows as usize);
                let t = Instant::now();
                let scanned = tx.scan(index, &low, &high, None, |k, v| {
                    rows.push((k.to_vec(), v.to_vec()));
                    true
                });
                out.scan_ns.push(ns(t));
                if scanned.is_err() {
                    tx.abort();
                    continue;
                }
                out.scan_rows += rows.len() as u64;
                if let Err(e) = crate::checks::scan_pairs(plan.low_row, plan.rows, false, &rows) {
                    out.errors.push(format!("embedded: {e}"));
                }
                let value = gen::pair_value(plan.pair, version);
                let mut ok = true;
                for row in [2 * plan.pair, 2 * plan.pair + 1] {
                    let t = Instant::now();
                    ok &= tx.update(table, &gen::pair_key(row), &value).is_ok();
                    out.write_ns.push(ns(t));
                }
                if !ok {
                    tx.abort();
                    continue;
                }
                if commit_durable(db, tx, &mut out) {
                    journal.ack(plan.pair, version);
                }
            }
        }
    }
    out
}

/// Commit, then wait for durability, timing both; true once durable.
fn commit_durable(db: &ShardedDb, tx: ShardedTransaction<'_>, out: &mut EmbeddedOut) -> bool {
    let t = Instant::now();
    let token = tx.commit_deferred();
    out.commit_ns.push(ns(t));
    let Ok(token) = token else { return false };
    let t = Instant::now();
    if let Err(e) = token.wait_durable(db, Duration::from_secs(10)) {
        out.errors.push(format!("embedded: durability wait failed: {e}"));
        return false;
    }
    out.wait_ns.push(ns(t));
    out.committed += 1;
    true
}
